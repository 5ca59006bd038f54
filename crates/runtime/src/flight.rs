//! Per-vCPU flight recorder: the last N facility events, always on.
//!
//! When a chaos or kill test wedges, aggregate counters say *that*
//! something happened, never *what happened last*. The flight recorder
//! answers that: each vCPU owns a fixed-capacity ring of 16-byte packed
//! events — dispatch-mode choices, spin-vs-park outcomes, Frank
//! redirects, bulk denials and revoke races, kills, contained faults —
//! stamped with a monotonic per-vCPU sequence number. A failing test
//! dumps the rings ([`crate::Runtime::dump_diagnostics`]) and reads the
//! facility's final seconds instead of debugging blind.
//!
//! Shared-nothing discipline matches the stats and histogram planes:
//! recording touches only the calling vCPU's ring (one `Relaxed`
//! `fetch_add` on the cursor plus two stores into the claimed slot —
//! no locks, no SeqCst). Rare events (kills, faults, denials, Frank
//! redirects) are recorded unconditionally; per-call events (dispatch
//! mode, spin outcome) are recorded only on observability-sampled calls
//! so the recorder never becomes the hot path's biggest store.
//!
//! An event is one `SeqRing` record: the slot's sequence word plus the
//! payload word `kind:8 | vcpu:8 | entry:16 | data:32`. The span plane
//! ([`crate::span`]) writes its four-word records into the same ring
//! type.

use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// Events retained per vCPU (a power of two; 4 KiB of slots per vCPU).
pub const RING_CAPACITY: usize = 256;

/// What a flight event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// Synchronous call dispatched inline on the caller's thread
    /// (`data` = caller program).
    Inline = 1,
    /// Synchronous call handed off to a worker (`data` = caller
    /// program).
    Handoff = 2,
    /// Hand-off rendezvous resolved by spinning (`data` = wait ns,
    /// saturated to u32).
    SpinResolved = 3,
    /// Hand-off rendezvous fell back to parking (`data` = wait ns,
    /// saturated).
    Parked = 4,
    /// Asynchronous dispatch (`data` = caller program).
    Async = 5,
    /// Frank slow path: a pool ran dry and grew (`data` = 0 worker
    /// pool, 1 CD pool).
    Frank = 6,
    /// Bulk access denied (`data` = region id).
    BulkDenied = 7,
    /// Bulk authorization lapsed mid-transfer — the revoke race
    /// (`data` = region id).
    BulkRevoked = 8,
    /// Entry soft-killed (`data` = killer program).
    SoftKill = 9,
    /// Entry hard-killed (`data` = killer program).
    HardKill = 10,
    /// Handler panic contained as a server fault (`data` = caller
    /// program).
    Fault = 11,
    /// Handler exchanged on a live entry (`data` = requester program).
    Exchange = 12,
    /// Entry published: bound and broadcast to every vCPU's table
    /// replica (`data` = owner program).
    Publish = 13,
    /// Retired handler(s) freed once no claim could reach them (`data`
    /// = handlers freed).
    Retire = 14,
    /// Dead entry reclaimed: unpublished, its claims drained, registry
    /// reference dropped (`data` = requester program).
    Reclaim = 15,
    /// Ring doorbell that woke a sleeping ring worker (`data` =
    /// submission-queue depth at wake).
    Doorbell = 16,
    /// Completion-queue reap batch (`data` = completions harvested).
    RingReap = 17,
    /// SLO watchdog rule began firing (`ep` = rule index, `data` = the
    /// measured value saturated to u32 — a rate in units/s or a
    /// quantile in ns, per the rule's metric).
    Alert = 18,
    /// The interference probe observed a large involuntary-deschedule
    /// excursion: a single clock-gap far above the probe threshold
    /// (`data` = excursion ns, saturated to u32). Recorded by the
    /// telemetry sampler on vCPU 0.
    Interference = 19,
    /// A cross-process peer died or detached with work outstanding:
    /// the server lost a client (slot/ring/region reclaimed; `ep` =
    /// client slot index, `data` = peer PID) or a client lost its
    /// server (`data` = server PID). See [`crate::xproc`].
    PeerLost = 20,
}

impl FlightKind {
    fn from_u8(v: u8) -> Option<FlightKind> {
        Some(match v {
            1 => FlightKind::Inline,
            2 => FlightKind::Handoff,
            3 => FlightKind::SpinResolved,
            4 => FlightKind::Parked,
            5 => FlightKind::Async,
            6 => FlightKind::Frank,
            7 => FlightKind::BulkDenied,
            8 => FlightKind::BulkRevoked,
            9 => FlightKind::SoftKill,
            10 => FlightKind::HardKill,
            11 => FlightKind::Fault,
            12 => FlightKind::Exchange,
            13 => FlightKind::Publish,
            14 => FlightKind::Retire,
            15 => FlightKind::Reclaim,
            16 => FlightKind::Doorbell,
            17 => FlightKind::RingReap,
            18 => FlightKind::Alert,
            19 => FlightKind::Interference,
            20 => FlightKind::PeerLost,
            _ => return None,
        })
    }

    /// Stable lower-case label for dumps and exports.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Inline => "inline",
            FlightKind::Handoff => "handoff",
            FlightKind::SpinResolved => "spin",
            FlightKind::Parked => "park",
            FlightKind::Async => "async",
            FlightKind::Frank => "frank",
            FlightKind::BulkDenied => "bulk_denied",
            FlightKind::BulkRevoked => "bulk_revoked",
            FlightKind::SoftKill => "soft_kill",
            FlightKind::HardKill => "hard_kill",
            FlightKind::Fault => "fault",
            FlightKind::Exchange => "exchange",
            FlightKind::Publish => "publish",
            FlightKind::Retire => "retire",
            FlightKind::Reclaim => "reclaim",
            FlightKind::Doorbell => "doorbell",
            FlightKind::RingReap => "ring_reap",
            FlightKind::Alert => "alert",
            FlightKind::Interference => "interference",
            FlightKind::PeerLost => "peer_lost",
        }
    }
}

/// One decoded flight event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic per-vCPU sequence number (0-based; contiguous within a
    /// snapshot — gaps mean torn slots were skipped).
    pub seq: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// vCPU the event was recorded on.
    pub vcpu: u8,
    /// Entry point involved (0 when not entry-specific).
    pub ep: u16,
    /// Kind-specific payload (program, region id, or saturated ns).
    pub data: u32,
}

impl FlightEvent {
    /// Pack the payload word (`kind:8 | vcpu:8 | ep:16 | data:32`).
    pub fn pack(kind: FlightKind, vcpu: u8, ep: u16, data: u32) -> u64 {
        ((kind as u64) << 56) | ((vcpu as u64) << 48) | ((ep as u64) << 32) | data as u64
    }

    /// Decode a payload word; `None` for an invalid kind byte.
    pub fn unpack(seq: u64, word: u64) -> Option<FlightEvent> {
        Some(FlightEvent {
            seq,
            kind: FlightKind::from_u8((word >> 56) as u8)?,
            vcpu: (word >> 48) as u8,
            ep: (word >> 32) as u16,
            data: word as u32,
        })
    }
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<6} {:<12} ep={:<4} data={}",
            self.seq,
            self.kind.label(),
            self.ep,
            self.data
        )
    }
}

/// One slot: the sequence word (`seq + 1`, 0 = empty, [`BUSY`] = being
/// written) and `W` payload words.
#[derive(Debug)]
pub(crate) struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// The lock-free record ring both record planes write: a power-of-two
/// array of `W`-word records behind one claim cursor. The flight
/// recorder keeps one word per event, the span plane four per span.
///
/// A writer claims a sequence number with one `Relaxed` `fetch_add`,
/// then the slot itself: a CAS from a published or empty sequence word
/// to the in-flight mark [`BUSY`]. It fills the slot and publishes
/// `seq + 1`. A writer that finds the slot in flight (a writer a whole
/// ring behind stalled mid-record) or holding a newer record drops its
/// own and counts the drop, so a slot has one writer at a time. A
/// reader validates by re-reading the sequence word after the payload:
/// a slot caught mid-write is skipped, never misreported.
///
/// ORDERING: a seqlock. The `Release` fence after the claiming CAS
/// keeps the payload stores from becoming visible before it. The
/// `Acquire` fence before the re-check keeps that load from being
/// satisfied before the payload loads. So a reader that loaded any word
/// of a newer fill sees its mark (or a later store) at the re-check and
/// skips the slot. On x86 both fences only stop the compiler.
#[derive(Debug)]
pub(crate) struct SeqRing<const W: usize> {
    cursor: AtomicU64,
    /// Records dropped because their slot was still being written.
    dropped: AtomicU64,
    slots: Box<[Slot<W>]>,
}

/// The sequence word of a slot a writer is filling.
const BUSY: u64 = u64::MAX;

impl<const W: usize> SeqRing<W> {
    /// An empty ring of `capacity` slots, a power of two so the cursor
    /// mask is a single AND.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity must be a power of two");
        let zero = |_| AtomicU64::new(0);
        let slot = |_| Slot { seq: AtomicU64::new(0), words: std::array::from_fn(zero) };
        let slots = (0..capacity).map(slot).collect();
        SeqRing { cursor: AtomicU64::new(0), dropped: AtomicU64::new(0), slots }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records written since creation (including overwritten and
    /// dropped ones).
    pub(crate) fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }


    fn slot(&self, seq: u64) -> &Slot<W> {
        &self.slots[seq as usize & (self.slots.len() - 1)]
    }

    /// Append one record, overwriting the oldest.
    #[inline]
    pub(crate) fn record(&self, words: [u64; W]) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(seq);
        let mut cur = slot.seq.load(Ordering::Relaxed);
        loop {
            if cur == BUSY || cur > seq + 1 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match slot.seq.compare_exchange_weak(cur, BUSY, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
            #[cfg(test)] crate::claims::pause::point("record");
        }
        slot.seq.store(seq + 1, Ordering::Release);
    }

    /// Visit every retained, untorn record with its sequence number,
    /// oldest first.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u64, [u64; W])) {
        let cursor = self.cursor.load(Ordering::Acquire);
        let retained = cursor.min(self.slots.len() as u64);
        for seq in cursor - retained..cursor {
            let slot = self.slot(seq);
            if slot.seq.load(Ordering::Acquire) != seq + 1 {
                continue; // overwritten or in flight
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == seq + 1 {
                f(seq, words);
            }
        }
    }

    /// Empty the slot of record `seq` if it still holds it: a racing
    /// writer's fresher record survives.
    pub(crate) fn clear(&self, seq: u64) {
        let seq_word = &self.slot(seq).seq;
        let _ = seq_word.compare_exchange(seq + 1, 0, Ordering::Relaxed, Ordering::Relaxed);
    }
}

/// The runtime's flight-recorder plane: one ring of
/// [`RING_CAPACITY`] events per vCPU plus the global enable bit. The
/// per-event cost only exists when events fire; per-call events are
/// additionally sample-gated by the caller.
#[derive(Debug)]
pub struct FlightPlane {
    rings: Box<[CachePadded<SeqRing<1>>]>,
    enabled: AtomicBool,
}

impl FlightPlane {
    pub(crate) fn new(n_vcpus: usize) -> Self {
        FlightPlane {
            rings: (0..n_vcpus.max(1))
                .map(|_| CachePadded::new(SeqRing::new(RING_CAPACITY)))
                .collect(),
            enabled: AtomicBool::new(true),
        }
    }

    /// Whether recording is enabled (one `Relaxed` load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record an event on `vcpu`'s ring. Lock-free; see `SeqRing`.
    #[inline]
    pub fn record(&self, vcpu: usize, kind: FlightKind, ep: usize, data: u32) {
        if !self.enabled() {
            return;
        }
        self.rings[vcpu].record([FlightEvent::pack(kind, vcpu as u8, ep as u16, data)]);
    }

    /// Number of vCPU rings.
    pub fn n_vcpus(&self) -> usize {
        self.rings.len()
    }

    /// Events recorded on `vcpu` since boot (including overwritten
    /// ones).
    pub fn recorded(&self, vcpu: usize) -> u64 {
        self.rings[vcpu].recorded()
    }

    /// The retained events of `vcpu`'s ring, oldest first.
    pub fn snapshot(&self, vcpu: usize) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(RING_CAPACITY);
        self.rings[vcpu].for_each(|seq, [word]| out.extend(FlightEvent::unpack(seq, word)));
        out
    }

    /// Snapshot `vcpu`'s ring and clear it (sequence numbering
    /// continues — a post-drain snapshot starts where this one ended).
    pub fn drain(&self, vcpu: usize) -> Vec<FlightEvent> {
        let out = self.snapshot(vcpu);
        for ev in &out {
            self.rings[vcpu].clear(ev.seq);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let word = FlightEvent::pack(FlightKind::BulkRevoked, 3, 512, 0xDEAD_BEEF);
        let ev = FlightEvent::unpack(41, word).unwrap();
        assert_eq!(ev.seq, 41);
        assert_eq!(ev.kind, FlightKind::BulkRevoked);
        assert_eq!(ev.vcpu, 3);
        assert_eq!(ev.ep, 512);
        assert_eq!(ev.data, 0xDEAD_BEEF);
        assert!(FlightEvent::unpack(0, 0).is_none(), "kind 0 is invalid");
        assert_eq!(std::mem::size_of::<Slot<1>>(), 16, "16-byte packed slots");
    }

    #[test]
    fn ring_keeps_newest_with_contiguous_seqs() {
        let fp = FlightPlane::new(1);
        let n = RING_CAPACITY as u64 + 37;
        for i in 0..n {
            fp.record(0, FlightKind::Inline, 7, i as u32);
        }
        let evs = fp.snapshot(0);
        assert_eq!(evs.len(), RING_CAPACITY);
        // Newest RING_CAPACITY events, contiguous, ending at n-1.
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, n - RING_CAPACITY as u64 + i as u64);
            assert_eq!(ev.data as u64, ev.seq);
        }
        assert_eq!(fp.recorded(0), n);
    }

    #[test]
    fn custom_capacity_rings_wrap_at_their_own_size() {
        let ring = SeqRing::<1>::new(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.record([i]);
        }
        let mut kept = Vec::new();
        ring.for_each(|seq, [word]| {
            assert_eq!(seq, word);
            kept.push(word);
        });
        assert_eq!(kept, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_ring_capacity_panics() {
        let _ = SeqRing::<4>::new(100);
    }

    #[test]
    fn drain_clears_but_keeps_numbering() {
        let fp = FlightPlane::new(2);
        fp.record(1, FlightKind::HardKill, 9, 0);
        fp.record(1, FlightKind::Fault, 9, 1);
        let first = fp.drain(1);
        assert_eq!(first.len(), 2);
        assert!(fp.snapshot(1).is_empty());
        fp.record(1, FlightKind::Inline, 9, 2);
        let second = fp.snapshot(1);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].seq, 2, "numbering continues across drain");
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let fp = FlightPlane::new(1);
        fp.set_enabled(false);
        fp.record(0, FlightKind::Inline, 1, 1);
        assert!(fp.snapshot(0).is_empty());
        fp.set_enabled(true);
        fp.record(0, FlightKind::Inline, 1, 1);
        assert_eq!(fp.snapshot(0).len(), 1);
    }

    #[test]
    fn display_is_greppable() {
        let ev = FlightEvent::unpack(5, FlightEvent::pack(FlightKind::Parked, 0, 3, 950)).unwrap();
        let s = ev.to_string();
        assert!(s.contains("park"), "{s}");
        assert!(s.contains("ep=3"), "{s}");
    }

    /// Reads and clears under concurrent writers, at the flight
    /// recorder's width and the span plane's: torn slots may be
    /// *skipped* (that is the seqlock) but never surface as garbage.
    #[test]
    fn concurrent_writers_never_yield_garbage() {
        hammer::<1>();
        hammer::<4>();
    }

    /// A writer parked mid-record while others lap the ring: the writer
    /// that lands on its slot drops its record instead of writing under
    /// it, so no reader ever sees a record mixed from two writes.
    #[test]
    fn a_writer_stalled_mid_record_is_never_mixed_with_a_lapping_one() {
        use crate::claims::pause::{self, Gate};
        let _hung = crate::wait::abort_if_hung("stalled ring writer");
        let ring = SeqRing::<2>::new(4);
        let gate = std::sync::Arc::new(Gate::default());
        let whole = |ring: &SeqRing<2>| {
            ring.for_each(|seq, w| assert_eq!(w[1], w[0] + 1, "record {seq} is one write: {w:x?}"))
        };
        std::thread::scope(|s| {
            let g = std::sync::Arc::clone(&gate);
            let stalled = s.spawn(|| {
                pause::arm(Some(("record", g)));
                ring.record([0xA0, 0xA1]);
            });
            gate.parked(1); // after its first word
            for i in 1..=4u64 {
                ring.record([i << 4, (i << 4) + 1]);
            }
            gate.release(1);
            gate.parked(2); // after its last word, before it publishes
            let mixed = std::panic::catch_unwind(|| whole(&ring));
            gate.release(1);
            stalled.join().unwrap();
            assert!(mixed.is_ok(), "a reader saw a record mixed from two writes");
        });
        whole(&ring);
        assert_eq!((ring.recorded(), ring.dropped.load(Ordering::Relaxed)), (5, 1));
    }

    /// N threads hammer one ring while a reader visits it continuously,
    /// clearing what it read on every other pass. Every record it sees
    /// must be one writer's whole record, with seqs strictly increasing
    /// within a pass.
    fn hammer<const W: usize>() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 200_000;
        // Word k of writer w's record i: each word differs, so a record
        // mixing two writes fails the check.
        let word =
            |w: u64, i: u64, k: usize| ((w << 56) | (i << 8) | k as u64).rotate_left(8 * k as u32);
        let ring = SeqRing::<W>::new(1024);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let ring = &ring;
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            ring.record(std::array::from_fn(|k| word(w, i, k)));
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                let (mut reads, mut records) = (0u64, 0u64);
                while !done.load(Ordering::Relaxed) || reads == 0 {
                    let mut last = None;
                    ring.for_each(|seq, words| {
                        assert!(last < Some(seq), "seqs strictly increase");
                        last = Some(seq);
                        let (w, i) = (words[0] >> 56, (words[0] >> 8) & 0xFFFF_FFFF_FFFF);
                        let real = w < WRITERS && i < PER_WRITER;
                        assert!(real, "a real writer's record: {words:x?}");
                        for (k, &v) in words.iter().enumerate() {
                            assert_eq!(v, word(w, i, k), "record {seq} is one write: {words:x?}");
                        }
                        if reads % 2 == 1 {
                            ring.clear(seq);
                        }
                        records += 1;
                    });
                    reads += 1;
                }
                (reads, records)
            });
            for h in writers {
                h.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            let (reads, records) = reader.join().unwrap();
            assert!(reads > 0 && records > 0, "reader observed traffic");
        });
        assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
        // Quiescent ring: the newest record is the last one written.
        ring.record([0; W]);
        let mut newest = None;
        ring.for_each(|seq, _| newest = Some(seq));
        assert_eq!(newest, Some(ring.recorded() - 1));
    }
}
