//! One ring conformance body, two front-ends.
//!
//! `ring.rs` is the only SQ/CQ implementation; `ClientRing` and
//! `XClient` are two doors to it. Everything a submitter can observe —
//! order, admission, staging, fault containment, teardown — is asserted
//! once here, against a [`Rig`] (a serving runtime and a way to open
//! ring front-ends on it), and run by `tests/ring.rs` over an in-process
//! runtime and by `tests/xproc.rs` over a re-exec'd server child.
//!
//! Handlers that must block until the test says so do it on a [`Gate`]
//! — two files — because that is the one signal both a thread and
//! another process can see.

#![allow(dead_code)] // each test binary uses the bodies, not every helper

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppc_rt::{BulkDesc, Completion, EntryId, EntryOptions, RtError, Runtime, Snapshot};

/// Abort the process if the binary wedges (ring bugs hang, not fail).
pub fn watchdog(secs: u64) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(secs));
        eprintln!("ring conformance watchdog fired after {secs}s");
        std::process::abort();
    });
}

/// A cross-process latch: the `gate` entry announces it has started
/// and blocks until released.
pub struct Gate {
    pub dir: PathBuf,
}

impl Gate {
    pub fn at(dir: &Path) -> Gate {
        std::fs::create_dir_all(dir).expect("gate directory");
        Gate { dir: dir.to_path_buf() }
    }

    fn poll(&self, file: &str) {
        while !self.dir.join(file).exists() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Handler side.
    fn block(&self) {
        std::fs::write(self.dir.join("started"), b"").expect("gate file");
        self.poll("released");
    }

    /// Test side: the handler is inside `block`.
    pub fn wait_started(&self) {
        self.poll("started");
    }

    /// Test side: let the handler go. The returned guard from
    /// [`Gate::opener`] does the same on drop, so a failed assertion
    /// unblocks the handler instead of hanging the ring's teardown.
    pub fn release(&self) {
        std::fs::write(self.dir.join("released"), b"").expect("gate file");
    }

    /// Declare *after* the front-ends it must outlive-in-reverse.
    pub fn opener(&self) -> Opener<'_> {
        Opener(self)
    }
}

pub struct Opener<'a>(&'a Gate);

impl Drop for Opener<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The conformance entry table, bound in this order on a runtime that
/// already has `base` entries.
#[derive(Clone, Copy)]
pub struct Eps {
    /// Spins `args[0] % 256` passes, returns its arguments.
    pub echo: EntryId,
    /// `args[0] == 0`: blocks on the rig's [`Gate`]. Returns its arguments.
    pub gate: EntryId,
    /// `[Σ scratch[..args[0]]; 8]`.
    pub psum: EntryId,
    /// `[every byte of the descriptor's span == args[0], span length, ..]`.
    pub check: EntryId,
    /// Counts calls with `args[0] != 0`; returns `[count so far, caller's
    /// program id, 0, ..]`.
    pub count: EntryId,
    /// Panics on `args[0] == 13`, else returns its arguments.
    pub flaky: EntryId,
    /// `tick` and `tock` return `[calls to either so far, args[0], 0, ..]`.
    pub tick: EntryId,
    pub tock: EntryId,
}

impl Eps {
    pub fn at(base: EntryId) -> Eps {
        Eps {
            echo: base,
            gate: base + 1,
            psum: base + 2,
            check: base + 3,
            count: base + 4,
            flaky: base + 5,
            tick: base + 6,
            tock: base + 7,
        }
    }
}

pub fn bind_entries(rt: &Arc<Runtime>, gate_dir: &Path) -> Eps {
    let opts = EntryOptions::default;
    let echo = rt
        .bind(
            "c-echo",
            opts(),
            Arc::new(|c| {
                (0..c.args[0] % 256).for_each(|_| std::hint::spin_loop());
                c.args
            }),
        )
        .unwrap();
    let latch = Gate::at(gate_dir);
    let gate = rt
        .bind(
            "c-gate",
            opts(),
            Arc::new(move |c| {
                if c.args[0] == 0 {
                    latch.block();
                }
                c.args
            }),
        )
        .unwrap();
    let psum = rt
        .bind(
            "c-psum",
            opts(),
            Arc::new(|c| {
                let n = c.args[0] as usize;
                [c.scratch()[..n].iter().map(|b| u64::from(*b)).sum(); 8]
            }),
        )
        .unwrap();
    let check = rt
        .bind(
            "c-check",
            opts(),
            Arc::new(|c| {
                let desc = c.bulk_desc().expect("descriptor in args[7]");
                let want = c.args[0] as u8;
                let ok = c
                    .with_bulk_mut(desc, |bytes| bytes.iter().all(|b| *b == want))
                    .expect("granted access");
                [u64::from(ok), u64::from(desc.len), 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let calls = AtomicU64::new(0);
    let count = rt
        .bind(
            "c-count",
            opts(),
            Arc::new(move |c| {
                let before = calls.fetch_add(u64::from(c.args[0] != 0), Ordering::Relaxed);
                [before, u64::from(c.caller_program), 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let flaky = rt
        .bind(
            "c-flaky",
            opts(),
            Arc::new(|c| {
                assert_ne!(c.args[0], 13, "injected");
                c.args
            }),
        )
        .unwrap();
    let seq = Arc::new(AtomicU64::new(0));
    let stamp = |seq: Arc<AtomicU64>| -> ppc_rt::Handler {
        Arc::new(move |c| [seq.fetch_add(1, Ordering::Relaxed), c.args[0], 0, 0, 0, 0, 0, 0])
    };
    let tick = rt.bind("c-tick", opts(), stamp(Arc::clone(&seq))).unwrap();
    let tock = rt.bind("c-tock", opts(), stamp(seq)).unwrap();
    let eps = Eps::at(echo);
    assert_eq!(
        (gate, psum, check, count, flaky, tick, tock),
        (eps.gate, eps.psum, eps.check, eps.count, eps.flaky, eps.tick, eps.tock)
    );
    eps
}

/// What both `ClientRing` and `XClient` let a submitter do.
pub trait RingFront {
    fn submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError>;
    fn submit_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        payload: &[u8],
    ) -> Result<(), RtError>;
    fn submit_bulk(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        desc: BulkDesc,
        payload: &[u8],
    ) -> Result<(), RtError>;
    fn doorbell(&mut self);
    /// Non-blocking; a transport error fails the test.
    fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> usize;
    fn in_flight(&self) -> u64;
    /// SQ and CQ slots, staging pages, and the in-flight bound.
    fn depth(&self) -> u64;
    /// A write descriptor over the first `len` bytes of this
    /// front-end's own bulk memory, granted to `ep`.
    fn bulk_desc(&mut self, ep: EntryId, len: u32) -> BulkDesc;

    /// Doorbell, then reap until nothing is in flight.
    fn drain(&mut self, out: &mut Vec<Completion>) {
        self.doorbell();
        while self.in_flight() > 0 {
            if self.reap(usize::MAX, out) == 0 {
                std::thread::yield_now();
            }
        }
    }
}

/// A serving runtime the bodies open front-ends on.
pub trait Rig {
    fn eps(&self) -> Eps;
    fn gate(&self) -> &Gate;
    /// A fresh ring under program identity `program`.
    fn front(&mut self, program: u32) -> Box<dyn RingFront>;
    /// The serving runtime's counters, where the test can read them
    /// (in-process only).
    fn stats(&self) -> Option<Snapshot>;
}

// ---------------------------------------------------------------------
// The bodies
// ---------------------------------------------------------------------

/// Many laps around a small ring: cursors are monotonic u64s masked
/// into the slots, so 100 submissions wrap both queues over and over,
/// and every completion arrives in submission order with its user tag.
pub fn wraparound_preserves_order_across_many_laps(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().echo, rig.front(1));
    let mut out: Vec<Completion> = Vec::new();
    let mut next = 0u64;
    while next < 100 {
        // Fill the ring to its depth, then drain — each iteration is one
        // full lap of both queues.
        while next < 100 {
            match f.submit(ep, [next; 8], next) {
                Ok(()) => next += 1,
                Err(RtError::RingFull) => break,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        f.drain(&mut out);
    }
    assert_eq!(out.len(), 100);
    for (i, c) in out.iter().enumerate() {
        assert_eq!(c.user, i as u64, "completions in submission order");
        assert_eq!(c.ep, ep);
        assert_eq!(c.result, Ok([i as u64; 8]), "handler ran with the right args");
    }
    assert_eq!(f.in_flight(), 0);
}

/// One ring is one queue: SQEs to two entries, interleaved A, B, A, B…
/// and rung in under one doorbell, execute and reap in exact submission
/// order — neither entry overtakes the other. (Isolation for
/// latency-critical traffic is a ring of its own, not a lane.)
pub fn interleaved_entries_run_and_reap_in_submission_order(rig: &mut dyn Rig) {
    let (eps, mut f) = (rig.eps(), rig.front(1));
    let ep_of = |i: u64| if i.is_multiple_of(2) { eps.tick } else { eps.tock };
    for i in 0..f.depth() {
        f.submit(ep_of(i), [i; 8], i).unwrap();
    }
    let mut out = Vec::new();
    f.drain(&mut out);
    assert_eq!(out.len() as u64, f.depth());
    let first = out[0].result.as_ref().unwrap()[0];
    for (i, c) in (0u64..).zip(&out) {
        assert_eq!((c.user, c.ep), (i, ep_of(i)), "reaped in submission order");
        let rets = c.result.as_ref().unwrap();
        assert_eq!((rets[0], rets[1]), (first + i, i), "executed in submission order");
    }
}

/// Credit exhaustion is a clean refusal, not a deadlock: with the
/// server blocked inside a handler, the submission beyond the ring's
/// depth returns `RingFull` immediately, in-flight never exceeds the
/// depth (the bounded-memory invariant), and draining restores full
/// capacity.
pub fn credit_exhaustion_refuses_without_deadlock(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().gate, rig.front(1));
    let _open = rig.gate().opener();
    let depth = f.depth();
    for i in 0..depth {
        f.submit(ep, [i; 8], i).unwrap();
    }
    f.doorbell();
    // The ring is full; the next submission sheds immediately.
    assert_eq!(f.submit(ep, [99; 8], 99), Err(RtError::RingFull));
    assert_eq!(f.in_flight(), depth, "in-flight bounded by the depth");
    if let Some(s) = rig.stats() {
        // Every shed counts into `ring_no_credit`: the remedy is to reap.
        assert!(s.ring_no_credit >= 1, "the shed was counted");
        assert_eq!(s.ring_full, 0, "ring_full is never counted");
    }
    rig.gate().release();
    let mut out = Vec::new();
    f.drain(&mut out);
    assert_eq!(out.len() as u64, depth);
    // Slots returned: the refused submission now succeeds.
    f.submit(ep, [99; 8], 99).unwrap();
    f.drain(&mut out);
    assert_eq!(out.last().unwrap().user, 99);
}

/// Admission is one rule: refuse iff `depth` submissions are in flight.
/// The consumer taking an SQE frees nothing a submitter can use — the
/// slot is free once its completion is reaped. With SQE 0 taken and its
/// handler blocked, exactly `depth − 1` more are admitted, and the next
/// is refused once and counted once, in `ring_no_credit`.
pub fn admission_refuses_only_at_depth_in_flight(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().gate, rig.front(1));
    let _open = rig.gate().opener();
    let more = f.depth() - 1;

    // The consumer takes SQE 0 and blocks in the handler.
    f.submit(ep, [0; 8], 0).unwrap();
    f.doorbell();
    rig.gate().wait_started();
    for i in 1..=more {
        f.submit(ep, [i; 8], i).expect("fewer than depth in flight is admitted");
    }
    assert_eq!(f.submit(ep, [more + 1; 8], more + 1), Err(RtError::RingFull));
    if let Some(s) = rig.stats() {
        assert_eq!((s.ring_full, s.ring_no_credit), (0, 1), "one refusal, counted once");
    }
    assert_eq!(f.in_flight(), more + 1);

    // Release the handler and reap: the next submission goes through.
    rig.gate().release();
    let mut out = Vec::new();
    f.drain(&mut out);
    assert_eq!(out.iter().map(|c| c.user).collect::<Vec<_>>(), (0..=more).collect::<Vec<_>>());
    f.submit(ep, [more + 1; 8], more + 1).unwrap();
    f.drain(&mut out);
    assert_eq!(out.last().unwrap().result, Ok([more + 1; 8]));
    if let Some(s) = rig.stats() {
        assert_eq!((s.ring_full, s.ring_no_credit), (0, 1), "and never again");
    }
}

/// 10⁵ submissions through a two-deep ring against a consumer that is
/// usually behind: the submitter runs into the full ring on every
/// batch. No SQE may be overwritten before the consumer has read it —
/// every completion arrives in order with its own tag and its own
/// echoed frame.
pub fn admission_never_overwrites_an_unread_sqe(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().echo, rig.front(1));
    assert_eq!(f.depth(), 2);
    let frame = |i: u64| [i, !i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i ^ 0xA5, i << 7, i, 1, 2];
    let (total, mut next, mut seen) = (100_000u64, 0u64, 0u64);
    let mut out: Vec<Completion> = Vec::new();
    while seen < total {
        while next < total {
            match f.submit(ep, frame(next), next) {
                Ok(()) => next += 1,
                Err(RtError::RingFull) => break,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        f.doorbell();
        if f.reap(usize::MAX, &mut out) == 0 {
            std::thread::yield_now();
        }
        for c in out.drain(..) {
            assert_eq!((c.user, c.result), (seen, Ok(frame(seen))), "SQE {seen} arrived intact");
            seen += 1;
        }
    }
    assert_eq!(f.in_flight(), 0);
    if let Some(s) = rig.stats() {
        assert_eq!((s.ring_submits, s.ring_calls), (total, total));
        assert!(s.ring_no_credit > 0, "the two-deep ring was found full");
    }
}

/// Staged payload delivery: the bytes handed to `submit_payload` arrive
/// as the handler's scratch — one submitter-side memcpy into the ring's
/// own staging page. What does not fit a page is refused up front.
pub fn payload_rides_as_handler_scratch(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().psum, rig.front(1));
    let mut out = Vec::new();
    // More payloads than the ring has staging pages: pages are reused.
    for round in 0..3 * f.depth() {
        let payload = vec![(round % 7) as u8 + 1; 1000];
        let mut args = [0u64; 8];
        args[0] = payload.len() as u64;
        f.submit_payload(ep, args, round, &payload).unwrap();
        if f.in_flight() == f.depth() {
            f.drain(&mut out);
        }
    }
    f.drain(&mut out);
    for (round, c) in out.iter().enumerate() {
        let sum = (round as u64 % 7 + 1) * 1000;
        assert_eq!((c.user, &c.result), (round as u64, &Ok([sum; 8])), "payload visible in scratch");
    }
    let page = vec![1u8; 4096];
    let mut args = [0u64; 8];
    args[0] = 4096;
    f.submit_payload(ep, args, 1, &page).expect("a whole page fits");
    assert_eq!(f.submit_payload(ep, args, 2, &[0u8; 4097]), Err(RtError::BadBulk));
    out.clear();
    f.drain(&mut out);
    assert_eq!(out[0].result, Ok([4096; 8]));
}

/// `submit_bulk` copies the payload into the submitter's own granted
/// span before it queues the SQE and packs the descriptor into
/// `args[7]` — the handler observes the payload in place, like
/// `call_bulk`.
pub fn submit_bulk_copies_into_region_before_handler(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().check, rig.front(7));
    let desc = f.bulk_desc(ep, 4096);
    let mut args = [0u64; 8];
    args[0] = 0xAB;
    f.submit_bulk(ep, args, 1, desc, &[0xABu8; 4096]).unwrap();
    let mut out = Vec::new();
    f.drain(&mut out);
    let rets = out[0].result.clone().expect("bulk submission completes");
    assert_eq!(rets[0], 1, "handler saw the payload in the region");
    assert_eq!(rets[1], 4096);
    if let Some(s) = rig.stats() {
        assert!(s.bulk_bytes >= 4096, "the copy was accounted");
    }
    // A payload longer than the descriptor's span is refused up front.
    assert_eq!(f.submit_bulk(ep, args, 2, desc, &[0u8; 8192]), Err(RtError::BadBulk));
}

/// The copy is owner-checked: a ring whose program does not own the
/// span is refused by `submit_bulk` itself — nothing is queued, the
/// handler never runs — and the ring keeps serving.
pub fn submit_bulk_denies_foreign_descriptors(rig: &mut dyn Rig) {
    let ep = rig.eps().count;
    let (mut owner, mut imposter) = (rig.front(7), rig.front(8));
    let desc = owner.bulk_desc(ep, 4096);
    assert!(
        matches!(imposter.submit_bulk(ep, [1; 8], 1, desc, &[1, 2, 3]), Err(RtError::BulkDenied(_))),
        "program 8 submitting program 7's descriptor is refused"
    );
    assert_eq!(imposter.in_flight(), 0, "nothing was queued");
    if let Some(s) = rig.stats() {
        assert_eq!(s.bulk_denied, 1);
    }
    // The ring survives the refusal, and the handler has not run.
    imposter.submit(ep, [0; 8], 2).unwrap();
    let mut out = Vec::new();
    imposter.drain(&mut out);
    assert_eq!(out[0].result.as_ref().unwrap()[0], 0, "handler never ran on a denied copy");
}

/// Fault containment matches the dispatch paths: a panicking handler
/// produces a `ServerFault` completion, the serving thread survives,
/// and later submissions on the same ring succeed.
pub fn handler_fault_is_contained_to_its_completion(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().flaky, rig.front(1));
    f.submit(ep, [1; 8], 1).unwrap();
    f.submit(ep, [13; 8], 2).unwrap();
    f.submit(ep, [3; 8], 3).unwrap();
    let mut out = Vec::new();
    f.drain(&mut out);
    assert_eq!(out[0].result, Ok([1; 8]));
    assert_eq!(out[1].result, Err(RtError::ServerFault(ep)), "fault becomes its CQE");
    assert_eq!(out[2].result, Ok([3; 8]), "the queue keeps flowing past the fault");
    if let Some(s) = rig.stats() {
        assert_eq!(s.server_faults, 1);
    }
}

/// A server that sleeps whenever it is idle (`ParkOnly` rigs) still
/// makes progress on one doorbell per batch.
pub fn park_only_ring_progresses_via_doorbell(rig: &mut dyn Rig) {
    let (ep, mut f) = (rig.eps().echo, rig.front(1));
    let mut out = Vec::new();
    for round in 0..20u64 {
        for i in 0..8u64 {
            f.submit(ep, [round * 8 + i; 8], round * 8 + i).unwrap();
        }
        // One doorbell per batch of 8 — the amortization under test.
        f.drain(&mut out);
    }
    assert_eq!(out.len(), 160);
    assert!(out.iter().enumerate().all(|(i, c)| c.user == i as u64));
}

/// Dropping a front-end with queued submissions — staged payloads, no
/// doorbell, no reap — shuts down cleanly, and a fresh one on the same
/// server is served.
pub fn drop_with_queued_work_shuts_down_cleanly(rig: &mut dyn Rig) {
    let ep = rig.eps().echo;
    let mut f = rig.front(1);
    for i in 0..8u64 {
        f.submit_payload(ep, [i; 8], i, &[i as u8; 64]).unwrap();
    }
    drop(f);
    let mut f = rig.front(1);
    f.submit(ep, [1; 8], 1).unwrap();
    let mut out = Vec::new();
    f.drain(&mut out);
    assert_eq!(out[0].result, Ok([1; 8]));
}
