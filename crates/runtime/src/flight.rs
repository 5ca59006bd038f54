//! The one observability record, the ring it lives in, and the flight
//! recorder.
//!
//! Every record the facility retains is one [`Record`] of four words:
//! `kind:8 | vcpu:8 | ep:16 | data:32`, `span_id:16 | parent_id:16 |
//! depth:8 | 0:24`, `start_ns` and `dur_ns`. The kind byte is a
//! [`FlightKind`] discriminant (1..=20) for a **flight event**, or `0x80 |`
//! a [`SpanPhase`] discriminant (0x81..=0x87) for a **span**
//! ([`crate::span`]); 0 and every other value decode to nothing. `data`
//! is an event's payload and a span's trace id; `start_ns` is an event's
//! timestamp and a span's begin, both on one process-wide timeline. An
//! event leaves the span fields and `dur_ns` zero (but for an exemplar
//! header's `dur_ns`). This module alone decodes and renders a record:
//! one `Display`, one [`Record::json`] object and its decoder.
//!
//! Each vCPU owns three rings of the one type (`SeqRing`): the flight
//! recorder's ([`RING_CAPACITY`] events), the span plane's
//! (`RuntimeOptions::trace_capacity` spans) and the exemplar ring
//! ([`crate::span::EXEMPLAR_RING`] records). The flight events are the
//! facility's last seconds — dispatch-mode choices, spin-vs-park outcomes,
//! Frank redirects, bulk denials and revoke races, kills, contained faults
//! — which a failing test dumps ([`crate::Runtime::dump_diagnostics`]).
//!
//! Recording touches only the calling vCPU's ring (one `Relaxed`
//! `fetch_add` on the cursor, a CAS on the slot and four stores — no
//! locks, no SeqCst) and reads the clock once. Rare events are recorded
//! unconditionally, per-call ones (dispatch mode, spin outcome) only on
//! observability-sampled calls. Readers copy and never consume: a record
//! leaves its slot only when a newer one overwrites it.

use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crossbeam::utils::CachePadded;

use crate::export::Json;
use crate::span::SpanPhase;

/// Events retained per vCPU by the flight recorder (a power of two;
/// 10 KiB of slots per vCPU).
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
    /// Entry soft-killed (`data` = killer program).
    SoftKill = 8,
    /// Entry hard-killed (`data` = killer program).
    HardKill = 9,
    /// Handler panic contained as a server fault (`data` = caller
    /// program).
    Fault = 10,
    /// Handler exchanged on a live entry (`data` = requester program).
    Exchange = 11,
    /// Entry published: bound and broadcast to every vCPU's table
    /// replica (`data` = owner program).
    Publish = 12,
    /// Retired handler(s) freed once no claim could reach them (`data`
    /// = handlers freed).
    Retire = 13,
    /// Dead entry reclaimed: unpublished, its claims drained, registry
    /// reference dropped (`data` = requester program).
    Reclaim = 14,
    /// Ring doorbell that woke a sleeping ring worker, for a traced batch
    /// only (`data` = the producer's in-flight count at wake).
    Doorbell = 15,
    /// Completion-queue reap batch (`data` = completions harvested).
    RingReap = 16,
    /// SLO watchdog rule began firing (`ep` = rule index, `data` = the
    /// measured value saturated to u32 — a rate in units/s or a
    /// quantile in ns, per the rule's metric).
    Alert = 17,
    /// The interference probe observed a large involuntary-deschedule
    /// excursion: a single clock-gap far above the probe threshold
    /// (`data` = excursion ns, saturated to u32). Recorded by the
    /// telemetry sampler on vCPU 0.
    Interference = 18,
    /// A cross-process peer died or detached with work outstanding:
    /// the server lost a client (slot/ring/region reclaimed; `ep` =
    /// client slot index, `data` = peer PID) or a client lost its
    /// server (`data` = server PID). See [`crate::xproc`].
    PeerLost = 19,
    /// A root span promoted to a tail exemplar: the header closing its
    /// tree in the vCPU's exemplar ring, after the copied spans (`ep` =
    /// root entry, `data` = the trace's retained spans, `dur_ns` = the
    /// entry's EWMA latency when promoted). See [`crate::span`].
    Exemplar = 20,
}

impl FlightKind {
    /// Every kind and its stable lower-case label, in discriminant order
    /// from 1.
    const ALL: [(FlightKind, &'static str); 20] = {
        use FlightKind::*;
        [
            (Inline, "inline"), (Handoff, "handoff"), (SpinResolved, "spin"), (Parked, "park"),
            (Async, "async"), (Frank, "frank"), (BulkDenied, "bulk_denied"),
            (SoftKill, "soft_kill"), (HardKill, "hard_kill"), (Fault, "fault"),
            (Exchange, "exchange"), (Publish, "publish"), (Retire, "retire"),
            (Reclaim, "reclaim"), (Doorbell, "doorbell"), (RingReap, "ring_reap"),
            (Alert, "alert"), (Interference, "interference"), (PeerLost, "peer_lost"),
            (Exemplar, "exemplar"),
        ]
    };

    /// Stable lower-case label for dumps and exports.
    pub fn label(self) -> &'static str {
        Self::ALL[self as usize - 1].1
    }
}

/// What a record is: its kind byte, decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A flight event.
    Flight(FlightKind),
    /// A span of one phase.
    Span(SpanPhase),
}

impl Kind {
    pub(crate) fn from_byte(b: u8) -> Option<Kind> {
        let i = usize::from(b & 0x7F).checked_sub(1)?;
        Some(match b & 0x80 {
            0 => Kind::Flight(FlightKind::ALL.get(i)?.0),
            _ => Kind::Span(*crate::span::PHASES.get(i)?),
        })
    }

    /// The flight kind's or span phase's label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Flight(k) => k.label(),
            Kind::Span(p) => p.label(),
        }
    }
}

/// One retained record, decoded: a flight event or a span (the module
/// docs give its words).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// Sequence number in the ring it was read from (contiguous within
    /// a snapshot — gaps mean torn slots were skipped).
    pub seq: u64,
    /// Flight kind or span phase: the kind byte, decoded.
    pub kind: Kind,
    /// vCPU whose ring recorded it.
    pub vcpu: u8,
    /// Entry point involved (0 when not entry-specific).
    pub ep: u16,
    /// An event's payload (program, region id, saturated ns); a span's
    /// trace id.
    pub data: u32,
    /// A span's id, unique within its trace (from a wrapping 16-bit mint).
    pub span_id: u16,
    /// A span's parent span id (0 = root).
    pub parent_id: u16,
    /// A span's nesting depth (root = 0).
    pub depth: u8,
    /// An event's time or a span's begin, ns on the records' timeline.
    pub start_ns: u64,
    /// A span's duration (0 for an instant span).
    pub dur_ns: u64,
}

impl Record {
    /// A flight event stamped now.
    pub fn event(kind: FlightKind, vcpu: u8, ep: u16, data: u32) -> Record {
        let kind = Kind::Flight(kind);
        let (seq, span_id, parent_id, depth, start_ns, dur_ns) = (0, 0, 0, 0, now_ns(), 0);
        Record { seq, kind, vcpu, ep, data, span_id, parent_id, depth, start_ns, dur_ns }
    }

    /// A span's phase; `None` for a flight event.
    pub fn phase(&self) -> Option<SpanPhase> {
        match self.kind {
            Kind::Span(p) => Some(p),
            Kind::Flight(_) => None,
        }
    }

    /// A span's trace id.
    pub fn trace_id(&self) -> u32 {
        self.data
    }

    /// Whether this is a trace root (a span with no parent).
    pub fn is_root(&self) -> bool {
        self.parent_id == 0
    }

    /// The record's ring words (its `seq` is the ring's).
    fn words(&self) -> [u64; 4] {
        let id = |id: u16, at: u32| u64::from(id) << at;
        let kind = match self.kind {
            Kind::Flight(k) => k as u64,
            Kind::Span(p) => 0x80 | p as u64,
        };
        [
            (kind << 56)
                | (u64::from(self.vcpu) << 48)
                | id(self.ep, 32)
                | u64::from(self.data),
            id(self.span_id, 48) | id(self.parent_id, 32) | (u64::from(self.depth) << 24),
            self.start_ns,
            self.dur_ns,
        ]
    }

    /// Decode ring words; `None` for an invalid kind byte.
    fn decode(seq: u64, [head, ids, start_ns, dur_ns]: [u64; 4]) -> Option<Record> {
        Some(Record {
            seq,
            kind: Kind::from_byte((head >> 56) as u8)?,
            vcpu: (head >> 48) as u8,
            ep: (head >> 32) as u16,
            data: head as u32,
            span_id: (ids >> 48) as u16,
            parent_id: (ids >> 32) as u16,
            depth: (ids >> 24) as u8,
            start_ns,
            dur_ns,
        })
    }

    /// The record's one JSON object: `seq`, the label (under `kind` for
    /// an event, `phase` for a span), then the fields its kind uses.
    pub fn json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let label = Json::Str(self.kind.label().into());
        let (vcpu, ep, data, start) =
            (n(self.vcpu.into()), n(self.ep.into()), n(self.data.into()), n(self.start_ns));
        let mut fields = vec![("seq", n(self.seq))];
        match self.kind {
            Kind::Flight(_) => fields.extend([
                ("kind", label), ("vcpu", vcpu), ("ep", ep), ("data", data), ("start_ns", start),
            ]),
            Kind::Span(_) => fields.extend([
                ("phase", label), ("trace_id", data), ("span_id", n(self.span_id.into())),
                ("parent_id", n(self.parent_id.into())), ("depth", n(self.depth.into())),
                ("vcpu", vcpu), ("ep", ep), ("start_ns", start), ("dur_ns", n(self.dur_ns)),
            ]),
        }
        Json::obj(fields)
    }

    /// Decode [`Record::json`]'s object; `None` for anything else.
    pub fn from_json(j: &Json) -> Option<Record> {
        let n = |key| j.get(key).and_then(Json::as_u64);
        let label = |key| j.get(key).and_then(Json::as_str);
        let (kind, data) = match label("phase") {
            Some(l) => {
                let phase = crate::span::PHASES.iter().find(|p| p.label() == l)?;
                (Kind::Span(*phase), "trace_id")
            }
            None => {
                let (kind, _) = FlightKind::ALL.iter().find(|k| Some(k.1) == label("kind"))?;
                (Kind::Flight(*kind), "data")
            }
        };
        Some(Record {
            seq: n("seq")?,
            kind,
            vcpu: n("vcpu")?.try_into().ok()?,
            ep: n("ep")?.try_into().ok()?,
            data: n(data)?.try_into().ok()?,
            span_id: n("span_id").unwrap_or(0).try_into().ok()?,
            parent_id: n("parent_id").unwrap_or(0).try_into().ok()?,
            depth: n("depth").unwrap_or(0).try_into().ok()?,
            start_ns: n("start_ns")?,
            dur_ns: n("dur_ns").unwrap_or(0),
        })
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<6} {:<12} ep={:<4}", self.seq, self.kind.label(), self.ep)?;
        match self.kind {
            Kind::Flight(_) => write!(f, " data={} at={}ns", self.data, self.start_ns),
            Kind::Span(_) => write!(
                f,
                " trace={:08x} span={} parent={} depth={} start={}ns dur={}ns",
                self.data, self.span_id, self.parent_id, self.depth, self.start_ns, self.dur_ns,
            ),
        }
    }
}

/// Nanoseconds since the process's first reading: the one timeline
/// every record's `start_ns` is on.
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One slot: the sequence word (`seq + 1`, 0 = empty, [`BUSY`] = being
/// written) and a record's four words.
#[derive(Debug)]
pub(crate) struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// The lock-free record ring every retained record lives in: a
/// power-of-two array of slots behind one claim cursor.
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
pub(crate) struct SeqRing {
    cursor: AtomicU64,
    /// Records dropped because their slot was still being written.
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

/// The sequence word of a slot a writer is filling.
const BUSY: u64 = u64::MAX;

impl SeqRing {
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

    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[seq as usize & (self.slots.len() - 1)]
    }

    /// Append one record, overwriting the oldest.
    #[inline]
    pub(crate) fn push(&self, rec: &Record) {
        self.write(rec.words());
    }

    #[inline]
    fn write(&self, words: [u64; 4]) {
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

    /// Visit every retained, untorn record, oldest first.
    pub(crate) fn each(&self, mut f: impl FnMut(Record)) {
        self.read(|seq, words| Record::decode(seq, words).into_iter().for_each(&mut f));
    }

    /// Every retained, untorn record, oldest first (cold read path).
    pub(crate) fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.slots.len());
        self.each(|rec| out.push(rec));
        out
    }

    /// Visit every retained, untorn slot's words with its sequence
    /// number, oldest first.
    fn read(&self, mut f: impl FnMut(u64, [u64; 4])) {
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
}

/// The runtime's flight-recorder plane: one ring of
/// [`RING_CAPACITY`] events per vCPU plus the global enable bit. The
/// per-event cost only exists when events fire; per-call events are
/// additionally sample-gated by the caller.
#[derive(Debug)]
pub struct FlightPlane {
    rings: Box<[CachePadded<SeqRing>]>,
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
        self.rings[vcpu].push(&Record::event(kind, vcpu as u8, ep as u16, data));
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
    pub fn snapshot(&self, vcpu: usize) -> Vec<Record> {
        self.rings[vcpu].records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let words = Record::event(FlightKind::BulkDenied, 3, 512, 0xDEAD_BEEF).words();
        let ev = Record::decode(41, words).unwrap();
        assert_eq!(ev.seq, 41);
        assert_eq!(ev.kind, Kind::Flight(FlightKind::BulkDenied));
        assert_eq!(ev.vcpu, 3);
        assert_eq!(ev.ep, 512);
        assert_eq!(ev.data, 0xDEAD_BEEF);
        assert!(Record::decode(0, [0; 4]).is_none(), "kind 0 is invalid");
        for (i, (kind, _)) in FlightKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i + 1, "ALL is in discriminant order");
            let words = Record::event(kind, 0, 0, 0).words();
            assert_eq!(Record::decode(0, words).unwrap().kind, Kind::Flight(kind));
        }
        assert!(Record::decode(0, [21 << 56, 0, 0, 0]).is_none(), "no kind past the last");
        let span = Record { kind: Kind::Span(SpanPhase::Ring), span_id: 7, parent_id: 6, depth: 2, dur_ns: 9, ..ev };
        assert_eq!(Record::decode(41, span.words()), Some(span), "every span field survives");
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
        let ring = SeqRing::new(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.write([i, 0, 0, 0]);
        }
        let mut kept = Vec::new();
        ring.read(|seq, [word, ..]| {
            assert_eq!(seq, word);
            kept.push(word);
        });
        assert_eq!(kept, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_ring_capacity_panics() {
        let _ = SeqRing::new(100);
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
        let s = Record::event(FlightKind::Parked, 0, 3, 950).to_string();
        assert!(s.contains("park"), "{s}");
        assert!(s.contains("ep=3"), "{s}");
    }

    /// The one rendering of a record — its `Display` line and JSON
    /// object — for a span of each phase and three flight kinds, the
    /// Chrome trace of the spans, and one exemplar's summary and JSON,
    /// each exactly as `testdata/records.golden` holds it.
    #[test]
    fn records_render_the_golden_bytes() {
        use crate::span::{Exemplar, PHASES};
        let spans: Vec<Record> = (0u16..)
            .zip(PHASES)
            .map(|(i, phase)| Record {
                seq: 10 + u64::from(i),
                kind: Kind::Span(phase),
                vcpu: (i % 2) as u8,
                ep: 3,
                data: 0x00c0_ffee,
                span_id: i + 1,
                parent_id: i,
                depth: i as u8,
                start_ns: 1_000 * u64::from(i + 1),
                dur_ns: if phase == SpanPhase::Frank { 0 } else { 19_000 - 2_000 * u64::from(i) },
            })
            .collect();
        let event = |seq, kind, ep, data| {
            Record { seq, start_ns: 500 * seq, ..Record::event(kind, 1, ep, data) }
        };
        let events = [
            event(1, FlightKind::Parked, 3, 950),
            event(2, FlightKind::HardKill, 7, 2),
            event(3, FlightKind::PeerLost, 1, 4242),
        ];
        let header = Record { dur_ns: 2_500, ..event(20, FlightKind::Exemplar, 3, 7) };
        let ex = Exemplar::from_tree(&header, &spans).expect("a whole tree");
        let all: Vec<Record> = spans.iter().chain(&events).copied().collect();
        let lines = |f: &dyn Fn(&Record) -> String| all.iter().map(f).collect::<Vec<_>>().join("\n");
        let got = format!(
            "== Display\n{}\n== Record::json\n{}\n== export::chrome_trace\n{}\n\
             == Exemplar::summary\n{}\n== Exemplar::json\n{}\n",
            lines(&|r| r.to_string()),
            lines(&|r| r.json().to_string()),
            crate::export::chrome_trace(&all),
            ex.summary(),
            ex.json(),
        );
        let want = include_str!("../testdata/records.golden");
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "line {} of testdata/records.golden", i + 1);
        }
        assert_eq!(got, want);
    }

    /// Reads under concurrent writers: torn slots may be *skipped* (that
    /// is the seqlock) but never surface as garbage.
    #[test]
    fn concurrent_writers_never_yield_garbage() {
        hammer();
    }

    /// A writer parked mid-record while others lap the ring: the writer
    /// that lands on its slot drops its record instead of writing under
    /// it, so no reader ever sees a record mixed from two writes.
    #[test]
    fn a_writer_stalled_mid_record_is_never_mixed_with_a_lapping_one() {
        use crate::claims::pause::{self, Gate};
        let _hung = crate::wait::abort_if_hung("stalled ring writer");
        let ring = SeqRing::new(4);
        let gate = std::sync::Arc::new(Gate::default());
        let whole = |ring: &SeqRing| {
            ring.read(|seq, w| assert_eq!(w[3], w[0] + 1, "record {seq} is one write: {w:x?}"))
        };
        std::thread::scope(|s| {
            let g = std::sync::Arc::clone(&gate);
            let stalled = s.spawn(|| {
                pause::arm(Some(("record", g)));
                ring.write([0xA0, 0, 0, 0xA1]);
            });
            gate.parked(1); // after its first word
            for i in 1..=4u64 {
                ring.write([i << 4, 0, 0, (i << 4) + 1]);
            }
            gate.release(3);
            gate.parked(4); // after its last word, before it publishes
            let mixed = std::panic::catch_unwind(|| whole(&ring));
            gate.release(1);
            stalled.join().unwrap();
            assert!(mixed.is_ok(), "a reader saw a record mixed from two writes");
        });
        whole(&ring);
        assert_eq!((ring.recorded(), ring.dropped.load(Ordering::Relaxed)), (5, 1));
    }

    /// N threads hammer one ring while a reader visits it continuously.
    /// Every record it sees must be one writer's whole record, with seqs
    /// strictly increasing within a pass.
    fn hammer() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 200_000;
        // Word k of writer w's record i: each word differs, so a record
        // mixing two writes fails the check.
        let word =
            |w: u64, i: u64, k: usize| ((w << 56) | (i << 8) | k as u64).rotate_left(8 * k as u32);
        let ring = SeqRing::new(1024);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let ring = &ring;
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            ring.write(std::array::from_fn(|k| word(w, i, k)));
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                let (mut reads, mut records) = (0u64, 0u64);
                while !done.load(Ordering::Relaxed) || reads == 0 {
                    let mut last = None;
                    ring.read(|seq, words| {
                        assert!(last < Some(seq), "seqs strictly increase");
                        last = Some(seq);
                        let (w, i) = (words[0] >> 56, (words[0] >> 8) & 0xFFFF_FFFF_FFFF);
                        let real = w < WRITERS && i < PER_WRITER;
                        assert!(real, "a real writer's record: {words:x?}");
                        for (k, &v) in words.iter().enumerate() {
                            assert_eq!(v, word(w, i, k), "record {seq} is one write: {words:x?}");
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
        ring.write([0; 4]);
        let mut newest = None;
        ring.read(|seq, _| newest = Some(seq));
        assert_eq!(newest, Some(ring.recorded() - 1));
    }
}
