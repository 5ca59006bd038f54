//! Submission/completion rings: pipelined PPC with doorbell batching.
//!
//! Every dispatch mode in `call.rs` is one-call-at-a-time rendezvous: a
//! client's throughput is capped at 1/RTT, and the park modes pay a
//! park/unpark **per call**. A ring is the io_uring-style alternative:
//! a **submission queue** (SQ) and a **completion queue** (CQ) serviced
//! by one thread, so many PPCs ride in flight per client and the wake
//! cost amortizes over a batch.
//!
//! This module is the only place a queue pair is laid out, filled,
//! bounded, drained and reaped. The memory is the process's own
//! ([`ClientRing`], with its own worker thread) or one client's ring
//! area of a shared segment ([`crate::XClient`], served by `xproc.rs`);
//! either way one producer and one consumer share one queue pair, and
//! completions come back in submission order. DESIGN §10 has the
//! picture and what each front-end adds; the two rules every `unsafe`
//! block below leans on are here.
//!
//! **Sequence words.** Each entry publishes itself (FastForward,
//! Giacomoni et al., PPoPP 2008): entry *n*, in slot `n & mask`, ends in
//! a `seq` word its writer — the producer for an SQE, the consumer for a
//! CQE — sets to `n + 1` with `Release` after the body, and its reader
//! loads with `Acquire`. SQE *n*'s word reads `n + 1` (ready), the
//! previous lap's `n + 1 − depth` (not yet; 0 on the first lap), or
//! anything else: a hostile producer, which `drain` refuses. Each side's
//! progress is private, and the consumer never loads a CQE word back, so
//! a producer that scribbles one confuses only itself. No shared cursor,
//! and no RMW per entry.
//!
//! **Admission.** One rule: a ring is `depth` deep — SQ slots, CQ slots,
//! staging pages — and a submission is refused with
//! [`RtError::RingFull`] iff `depth` are in flight (submitted, not yet
//! reaped). That is enough, because the consumer copies SQE *n* out
//! before it posts CQE *n*, and the producer reaps CQE *n* before it
//! can admit *n + depth*: `in_flight < depth` proves SQ slot, CQ slot and
//! staging page `n & mask` free. The producer's admission reads nothing
//! the consumer writes, and overload shows as shed requests and bounded
//! queues, never unbounded memory.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::claims::{self, NOBODY};
use crate::flight::FlightKind;
use crate::obs::LatencyKind;
use crate::region::BulkDesc;
use crate::shm::Segment;
use crate::slot::SCRATCH_BYTES;
use crate::span::{SpanPhase, SpanToken};
use crate::stats::{StateTimer, TimeState};
use crate::wait::{notify, Poll, Sleeper};
use crate::worker::idle_wait;
use crate::{Client, EntryId, ProgramId, RegionId, RtError, Runtime};

/// Hard cap on ring capacities (entries). Large enough for any open-loop
/// experiment, small enough that a mis-typed depth cannot map gigabytes.
pub const MAX_RING_DEPTH: usize = 1 << 16;

/// Sizing for a [`ClientRing`]: one depth, rounded up to a power of two
/// and clamped to [2, [`MAX_RING_DEPTH`]].
#[derive(Clone, Copy, Debug)]
pub struct RingOptions {
    /// SQ slots, CQ slots and staging pages, and so the in-flight bound
    /// behind [`RtError::RingFull`] (module docs, Admission).
    pub depth: usize,
}

impl Default for RingOptions {
    fn default() -> Self {
        RingOptions { depth: 64 }
    }
}

/// One harvested completion (see [`ClientRing::reap`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The user tag passed at submission, returned verbatim.
    pub user: u64,
    /// The entry the SQE targeted.
    pub ep: EntryId,
    /// The handler's 8 return words, or the dispatch/execution error
    /// (unknown/dead entry, contained fault, refused staging span).
    pub result: Result<[u64; 8], RtError>,
}

// ---------------------------------------------------------------------
// Wire status codes
// ---------------------------------------------------------------------

/// Encode an [`RtError`] as the `(status, aux)` words of a completion
/// (status 0 is reserved for success; 6, once a transfer revoked in
/// flight, is retired and not reused).
fn err_to_wire(e: &RtError) -> (u32, u32) {
    match e {
        RtError::UnknownEntry(ep) => (1, *ep as u32),
        RtError::EntryDead(ep) => (2, *ep as u32),
        RtError::Aborted(ep) => (3, *ep as u32),
        RtError::BadBulk => (4, 0),
        RtError::BulkDenied(r) => (5, u32::from(*r)),
        RtError::BulkReentrant(r) => (7, u32::from(*r)),
        RtError::TableFull => (8, 0),
        RtError::NotOwner => (9, 0),
        RtError::BadVcpu(v) => (10, *v as u32),
        RtError::ServerFault(ep) => (11, *ep as u32),
        RtError::RingFull => (12, 0),
        RtError::PeerGone => (13, 0),
        RtError::BadSegment => (14, 0),
    }
}

/// Decode a completion's `(status, aux)` back into the [`RtError`] the
/// dispatch produced. Unknown codes (a newer server) fold to
/// [`RtError::BadSegment`] — the one error that says "do not trust this
/// segment's words".
fn wire_to_err(code: u32, aux: u32) -> RtError {
    match code {
        1 => RtError::UnknownEntry(aux as EntryId),
        2 => RtError::EntryDead(aux as EntryId),
        3 => RtError::Aborted(aux as EntryId),
        4 => RtError::BadBulk,
        5 => RtError::BulkDenied(aux as RegionId),
        7 => RtError::BulkReentrant(aux as RegionId),
        8 => RtError::TableFull,
        9 => RtError::NotOwner,
        10 => RtError::BadVcpu(aux as usize),
        11 => RtError::ServerFault(aux as EntryId),
        12 => RtError::RingFull,
        13 => RtError::PeerGone,
        _ => RtError::BadSegment,
    }
}

/// A dispatch result as the `(status, aux, rets)` words of a completion.
pub(crate) fn result_to_wire(r: Result<[u64; 8], RtError>) -> (u32, u32, [u64; 8]) {
    match r {
        Ok(rets) => (0, 0, rets),
        Err(e) => {
            let (status, aux) = err_to_wire(&e);
            (status, aux, [0; 8])
        }
    }
}

/// The result a completion's words carry (`rets` is valid iff `status == 0`).
pub(crate) fn wire_to_result(status: u32, aux: u32, rets: [u64; 8]) -> Result<[u64; 8], RtError> {
    match status {
        0 => Ok(rets),
        code => Err(wire_to_err(code, aux)),
    }
}

// ---------------------------------------------------------------------
// Layout (repr(C), layout-asserted: these structs cross processes)
// ---------------------------------------------------------------------

/// [`Sqe`] flag bit: `payload_off`/`payload_len` name a staged span
/// that becomes the handler's scratch.
const SQE_PAYLOAD: u32 = 1;

/// One queue entry, two cache lines: a body of plain words and the
/// sequence word that publishes it (module docs).
#[repr(C, align(64))]
struct Entry<B> {
    body: B,
    seq: AtomicU64,
}

type Sqe = Entry<SqeBody>;
type Cqe = Entry<CqeBody>;
crate::assert_segment_layout!(Sqe { size: 128, align: 64, body: 0, seq: 96 });
crate::assert_segment_layout!(Cqe { size: 128, align: 64, body: 0, seq: 88 });

/// What an SQE carries.
#[repr(C)]
#[derive(Clone, Copy)]
struct SqeBody {
    ep: u32,
    /// [`SQE_PAYLOAD`], or 0.
    flags: u32,
    args: [u64; 8],
    /// Submitter's tag, returned verbatim in the matching [`Cqe`].
    user: u64,
    /// Packed [`crate::TraceCtx`] of the submitter's ring span (0 =
    /// none): the handler span parents under it, like the call slot's
    /// trace word on the hand-off path.
    trace: u64,
    /// Offset of the staged span from the ring's staging base — the
    /// segment base, across processes (valid with [`SQE_PAYLOAD`]).
    payload_off: u32,
    payload_len: u32,
}

crate::assert_segment_layout!(SqeBody {
    size: 96,
    align: 8,
    ep: 0,
    flags: 4,
    args: 8,
    user: 72,
    trace: 80,
    payload_off: 88,
    payload_len: 92,
});

/// What a CQE carries.
#[repr(C)]
#[derive(Clone, Copy)]
struct CqeBody {
    user: u64,
    ep: u32,
    /// 0 = success, else an [`err_to_wire`] code with `aux`.
    status: u32,
    aux: u32,
    _pad: u32,
    /// Result frame (valid when `status == 0`).
    rets: [u64; 8],
}

crate::assert_segment_layout!(CqeBody {
    size: 88,
    align: 8,
    user: 0,
    ep: 8,
    status: 12,
    aux: 16,
    rets: 24,
});

/// One ring's queue pair in memory its owner keeps alive: where the
/// entries are, where the staging pages are, how deep it is. Every
/// pointer into the queue is derived here, from a cursor and the mask.
#[derive(Clone, Copy)]
pub(crate) struct LaneRef {
    /// The SQE array; the CQE array follows it.
    ring: *mut u8,
    /// What a staged-payload offset counts from (a segment's base).
    base: *mut u8,
    /// Offset from `base` of the staging pages, one per slot.
    stage_off: usize,
    /// `depth - 1`: SQ, CQ and staging pages are all `depth` deep.
    mask: u64,
}

// Safety: the pointers name memory that outlives every copy of the
// view (`LaneRef::new`'s contract); everything reached through them is
// an atomic or an entry body owned by one side at a time under the
// sequence-word protocol; the view itself is plain words.
unsafe impl Send for LaneRef {}
unsafe impl Sync for LaneRef {}

impl LaneRef {
    /// Bytes of entries (a multiple of 64).
    pub(crate) const fn ring_bytes(depth: usize) -> usize {
        depth * (std::mem::size_of::<Sqe>() + std::mem::size_of::<Cqe>())
    }

    /// Bytes of staging pages.
    pub(crate) const fn stage_bytes(depth: usize) -> usize {
        depth * SCRATCH_BYTES
    }

    /// # Safety
    /// For as long as this view or any copy of it is used,
    /// [`LaneRef::ring_bytes`] at `ring` (64-aligned) and
    /// [`LaneRef::stage_bytes`] at `base + stage_off` stay allocated,
    /// were zero when first used as a ring, and are used as nothing
    /// else; `depth` is a power of two.
    pub(crate) unsafe fn new(ring: *mut u8, base: *mut u8, stage_off: usize, depth: usize) -> LaneRef {
        debug_assert!(depth.is_power_of_two());
        debug_assert_eq!(ring as usize % 64, 0);
        LaneRef { ring, base, stage_off, mask: depth as u64 - 1 }
    }

    fn depth(&self) -> u64 {
        self.mask + 1
    }

    fn sqe(&self, cursor: u64) -> *mut Sqe {
        // Safety: the masked cursor is below the depth; in bounds by
        // `new`'s contract.
        unsafe { (self.ring as *mut Sqe).add((cursor & self.mask) as usize) }
    }

    fn cqe(&self, cursor: u64) -> *mut Cqe {
        // Safety: as in `sqe`; the CQ follows `depth` SQEs.
        unsafe { (self.sqe(0).add(self.depth() as usize) as *mut Cqe).add((cursor & self.mask) as usize) }
    }

    fn sq_seq(&self, cursor: u64) -> &AtomicU64 {
        // Safety: in bounds and aligned by `new`'s contract; only the
        // atomic is borrowed, never the body beside it.
        unsafe { &(*self.sqe(cursor)).seq }
    }

    fn cq_seq(&self, cursor: u64) -> &AtomicU64 {
        // Safety: as in `sq_seq`.
        unsafe { &(*self.cqe(cursor)).seq }
    }

    /// Offset from `base` of the staging page of submission `cursor`.
    fn stage_page(&self, cursor: u64) -> usize {
        self.stage_off + (cursor & self.mask) as usize * SCRATCH_BYTES
    }

    /// The span a `PAYLOAD` SQE names, checked against this ring's own
    /// staging area: a forged offset cannot reach another client's
    /// pages, the entries, or anything else in the mapping.
    fn staged(&self, sqe: &SqeBody) -> Result<(*mut u8, usize), RtError> {
        let len = (sqe.payload_len as usize).min(SCRATCH_BYTES);
        let off = sqe.payload_off as usize;
        let end = self.stage_off + Self::stage_bytes(self.depth() as usize);
        if off < self.stage_off || off + len > end {
            return Err(RtError::BadBulk);
        }
        // Safety: `[off, off + len)` was just bounded to the staging
        // area.
        Ok((unsafe { self.base.add(off) }, len))
    }
}

// ---------------------------------------------------------------------
// Producer: admit, stage, publish, reap
// ---------------------------------------------------------------------

/// The submitting side of a ring. Its owner is the ring's single
/// producer (`&mut self` on [`ClientRing`] and [`crate::XClient`]
/// enforces it).
pub(crate) struct Producer {
    lane: LaneRef,
    /// Submissions pushed: private, published nowhere.
    tail: u64,
    /// Completions reaped: private, published nowhere.
    head: u64,
}

impl Producer {
    /// A producer over a ring whose sequence words are zero: a fresh
    /// mapping, or a segment slot the server reset at attach.
    pub(crate) fn new(lane: LaneRef) -> Producer {
        Producer { lane, tail: 0, head: 0 }
    }

    /// Submissions accepted and not yet reaped.
    pub(crate) fn in_flight(&self) -> u64 {
        self.tail - self.head
    }

    /// The ring's depth: SQ slots, CQ slots, staging pages, in-flight
    /// bound.
    pub(crate) fn depth(&self) -> u64 {
        self.lane.depth()
    }

    /// Admission control for one submission carrying `payload_len`
    /// staged bytes: [`RtError::BadBulk`] for a payload that does not
    /// fit a staging page, [`RtError::RingFull`] iff `depth` are in
    /// flight — the remedy is to reap. Reads no consumer-written word.
    pub(crate) fn admit(&self, payload_len: usize) -> Result<(), RtError> {
        if payload_len > SCRATCH_BYTES {
            return Err(RtError::BadBulk);
        }
        if self.in_flight() == self.depth() {
            return Err(RtError::RingFull);
        }
        Ok(())
    }

    /// Write one admitted SQE — staging `payload`, if any, into the
    /// page of its completion slot — and publish it by its sequence word
    /// (`Release`). No wake: that is the front-end's doorbell, once per
    /// batch. Returns the offset one past the staged bytes (0 without a
    /// payload).
    pub(crate) fn push(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        trace: u64,
        payload: Option<&[u8]>,
    ) -> usize {
        let n = self.tail;
        let mut body = SqeBody { ep: ep as u32, flags: 0, args, user, trace, payload_off: 0, payload_len: 0 };
        if let Some(p) = payload {
            debug_assert!(p.len() <= SCRATCH_BYTES, "admit bounds the payload");
            let off = self.lane.stage_page(n);
            // Safety: the page is in the ring's staging area and is this
            // producer's until the CQE of submission `n` is reaped — the
            // previous tenant's was, by admission (module docs).
            unsafe { std::ptr::copy_nonoverlapping(p.as_ptr(), self.lane.base.add(off), p.len()) };
            (body.flags, body.payload_off, body.payload_len) = (SQE_PAYLOAD, off as u32, p.len() as u32);
        }
        debug_assert!(self.in_flight() < self.depth(), "admit bounds the queue");
        // Safety: single producer; admission proved the slot consumed.
        // The body is published by the `Release` store below.
        unsafe { std::ptr::write(&raw mut (*self.lane.sqe(n)).body, body) };
        self.lane.sq_seq(n).store(n + 1, Ordering::Release);
        self.tail = n + 1;
        (body.payload_off + body.payload_len) as usize
    }

    /// Harvest up to `max` completions into `out`, in submission order,
    /// freeing a slot each. Never past what was pushed: a producer made
    /// afresh over a used ring (an `XClient` that lost its server) still
    /// finds old CQE words there.
    pub(crate) fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        let mut n = 0;
        while n < max
            && self.head != self.tail
            && self.lane.cq_seq(self.head).load(Ordering::Acquire) == self.head + 1
        {
            // Safety: single CQ consumer; the `Acquire` on its sequence
            // word published the entry, and the consumer will not rewrite
            // it before this producer has admitted past `head` (admission).
            let cqe = unsafe { std::ptr::read(&raw const (*self.lane.cqe(self.head)).body) };
            self.head += 1;
            out.push(Completion {
                user: cqe.user,
                ep: cqe.ep as EntryId,
                result: wire_to_result(cqe.status, cqe.aux, cqe.rets),
            });
            n += 1;
        }
        n
    }
}

// ---------------------------------------------------------------------
// Consumer: bound, execute, post
// ---------------------------------------------------------------------

/// The serving side of a ring: its head — the next SQE to take, and
/// the CQE slot its completion goes to — private, published nowhere.
pub(crate) struct Consumer {
    lane: LaneRef,
    head: u64,
}

impl Consumer {
    pub(crate) fn new(lane: LaneRef) -> Consumer {
        Consumer { lane, head: 0 }
    }

    /// Hand the ring to a new producer: zero every sequence word and the
    /// head. The caller owns the ring exclusively (no producer is
    /// active): a segment server between a slot's `attach_req` and its
    /// ack.
    pub(crate) fn reset(&mut self) {
        for n in 0..self.lane.depth() {
            self.lane.sq_seq(n).store(0, Ordering::Relaxed);
            self.lane.cq_seq(n).store(0, Ordering::Relaxed);
        }
        self.head = 0;
    }

    /// What SQE `n`'s sequence word says (module docs): `Some(true)`
    /// published — the `Acquire` licenses reading its body —,
    /// `Some(false)` not yet (the previous lap's word, 0 on the first),
    /// `None` a word no honest producer writes.
    fn published(&self, n: u64) -> Option<bool> {
        match self.lane.sq_seq(n).load(Ordering::Acquire) {
            s if s == n + 1 => Some(true),
            s if s == (n + 1).saturating_sub(self.lane.depth()) => Some(false),
            _ => None,
        }
    }

    /// Nothing to serve at the head: the readiness predicates' test (a
    /// hostile word is something to serve — `drain` refuses it).
    fn idle(&self) -> bool {
        self.published(self.head) == Some(false)
    }
}

/// Serve `c` on behalf of `program` on `vcpu` until its SQ is empty or
/// one queue-full of SQEs has run — a producer that keeps submitting
/// cannot hold the caller in here. SQEs execute, and their completions
/// are posted, in submission order, whichever entries they target. The
/// handler runs through [`Runtime::execute`], under an **execution-time
/// claim** — a queued SQE holds no entry reference, so kill, Exchange
/// and reclaim drain a queued ring with
/// [`RtError::EntryDead`]/[`RtError::Aborted`] CQEs. An SQE that
/// completes counts in `ring_calls` before its CQE is posted. `scratch`
/// is the page handlers of payload-less SQEs see; a sampled handler run
/// adds its estimate to `handler_ns`. Returns how many SQEs were
/// executed (each has its CQE posted), or `None` once the head SQE's
/// sequence word is neither this lap's nor the last — a broken or
/// hostile producer; nothing from that point on is executed.
pub(crate) fn drain(
    rt: &Arc<Runtime>,
    c: &mut Consumer,
    vcpu: usize,
    program: ProgramId,
    scratch: &mut [u8],
    handler_ns: &mut u64,
) -> Option<u64> {
    let mut done = 0;
    // The drain counts what it served, as one thread: one token per drain.
    let (cell, who) = (rt.stats.served_cell(vcpu), claims::token());
    while done < c.lane.depth() && c.published(c.head)? {
        // One sampler tick per SQE decides all its records: a second
        // site on this thread would fall into step and take every
        // sample or none.
        let sampled = rt.obs().try_sample(vcpu);
        if sampled {
            // The published run this pickup finds, a queue-full at most
            // (log₂ bands): one sequence word per entry, sampled only.
            let run = (0..c.lane.depth()).take_while(|&k| c.published(c.head + k) == Some(true));
            rt.obs().record(LatencyKind::RingDepth, vcpu, run.count() as u64);
        }
        let n = c.head;
        // Safety: sole SQ consumer; `published`'s `Acquire` published
        // the body, and the producer will not rewrite it before it reaps
        // this SQE's CQE. A hostile producer can tear the copy; every
        // field is validated or opaque below.
        let sqe = unsafe { std::ptr::read(&raw const (*c.lane.sqe(n)).body) };
        c.head = n + 1;
        let page = match sqe.flags & SQE_PAYLOAD {
            0 => Ok(&mut *scratch),
            // Safety: `staged` bounded the span; the staging
            // protocol gives the consumer exclusive use of the page
            // until its CQE is reaped.
            _ => c.lane.staged(&sqe).map(|(p, n)| unsafe { std::slice::from_raw_parts_mut(p, n) }),
        };
        let ep = sqe.ep as EntryId;
        let result = page.and_then(|page| {
            rt.execute(vcpu, ep, sqe.args, program, sqe.trace, page, sampled, handler_ns)
        });
        if result.is_ok() {
            cell.add(who, |c| &c.ring_calls, 1);
        }
        let (status, aux, rets) = result_to_wire(result);
        let body = CqeBody { user: sqe.user, ep: sqe.ep, status, aux, _pad: 0, rets };
        // Safety: sole CQ producer; the producer admitted this SQE with
        // fewer than `depth` in flight (asserted in `Producer::push`),
        // so the slot's previous completion has been reaped. The body
        // is published by the `Release` store below.
        unsafe { std::ptr::write(&raw mut (*c.lane.cqe(n)).body, body) };
        c.lane.cq_seq(n).store(n + 1, Ordering::Release);
        done += 1;
    }
    Some(done)
}

// ---------------------------------------------------------------------
// The in-process front-end
// ---------------------------------------------------------------------

/// The state shared between a [`ClientRing`] handle and its worker
/// thread.
struct RingShared {
    vcpu: usize,
    program: ProgramId,
    /// The queue's memory; the ring's [`LaneRef`] points into these
    /// two.
    entries: Box<[Line]>,
    stage: Segment,
    /// Worker's sleep announcement (the sleeper flag the doorbell
    /// reads): 1 while it is about to park or parked.
    sleeping: AtomicU32,
    shutdown: AtomicBool,
}

/// A zeroed cache line: what the heap half of a ring is allocated in.
/// A cell, because both ends write the queue while they share the
/// `RingShared` that owns it.
#[repr(align(64))]
struct Line {
    _zero: UnsafeCell<[u8; 64]>,
}

// Safety: the bytes are reached only through `LaneRef`s, under the
// cursor protocol (see there).
unsafe impl Sync for Line {}

impl RingShared {
    /// Allocate a ring. Cursors and entries are heap lines — the
    /// allocator hands back warm memory, where a fresh mapping costs a
    /// page fault per page on the first batch (≈ 20 % of `ring_d16`'s
    /// `setup_s` in a VM); the staging pages are a private mapping,
    /// untouched — and so not resident — until a payload is staged.
    fn map(vcpu: usize, program: ProgramId, depth: usize) -> (Arc<RingShared>, LaneRef) {
        let ring = LaneRef::ring_bytes(depth);
        let shared = Arc::new(RingShared {
            vcpu,
            program,
            entries: (0..ring / 64).map(|_| Line { _zero: UnsafeCell::new([0; 64]) }).collect(),
            stage: Segment::private(LaneRef::stage_bytes(depth)).expect("map ring staging pages"),
            sleeping: AtomicU32::new(0),
            shutdown: AtomicBool::new(false),
        });
        // The pointer is taken from the allocation where it will stay,
        // through the cells: what the two ends write, no `&` claims
        // frozen.
        let first = UnsafeCell::raw_get(shared.entries.as_ptr() as *const UnsafeCell<u8>);
        // Safety: zeroed, 64-aligned and sized by the arithmetic above;
        // `RingShared` owns both allocations and both ends hold an `Arc`
        // of it beside their `LaneRef`.
        let lane = unsafe { LaneRef::new(first, shared.stage.base(), 0, depth) };
        (shared, lane)
    }

    fn sleeper(&self) -> Sleeper<'_> {
        Sleeper { word: &self.sleeping, asleep: 1, awake: 0 }
    }
}

/// The per-client ring handle: submit many PPCs, ring the doorbell once
/// per batch, reap completions in submission order. Created with
/// [`Client::ring`] / [`Client::ring_with`]; dropping it shuts the
/// worker down after everything queued has completed.
///
/// All producer-side methods take `&mut self`: the type system enforces
/// the single-producer half of the queue contract (clone the
/// [`Client`] and build another ring for a second submitter). SQEs run
/// in submission order: latency-critical traffic gets a ring of its own.
pub struct ClientRing {
    rt: Arc<Runtime>,
    shared: Arc<RingShared>,
    ring: Producer,
    /// The ring span of a traced batch's first SQE, keyed by its
    /// submission number, until that SQE is reaped: at most one is open.
    traced: Option<(u64, SpanToken)>,
    /// Submissions since the last doorbell, not yet in `ring_submits`:
    /// the doorbell bills them, one counter write per batch.
    unbilled: Cell<u64>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ClientRing {
    pub(crate) fn new(client: &Client, opts: RingOptions) -> ClientRing {
        let rt = Arc::clone(client.runtime());
        let depth = opts.depth.next_power_of_two().clamp(2, MAX_RING_DEPTH);
        let (shared, lane) = RingShared::map(client.vcpu, client.program, depth);
        let rt2 = Arc::clone(&rt);
        let sh2 = Arc::clone(&shared);
        let consumer = Consumer::new(lane);
        let cpu = rt.cpu_of(client.vcpu);
        let jh = std::thread::Builder::new()
            .name(format!("ppc-ring-v{}", client.vcpu))
            .spawn(move || {
                if let Some(cpu) = cpu {
                    crate::affinity::pin_current(cpu);
                }
                ring_worker(rt2, sh2, consumer);
            })
            .expect("spawn ring worker thread");
        rt.stats.cell(client.vcpu).add(NOBODY, |c| &c.workers_created, 1);
        ClientRing {
            rt,
            shared,
            ring: Producer::new(lane),
            traced: None,
            unbilled: Cell::new(0),
            join: Some(jh),
        }
    }

    /// Submissions accepted but not yet reaped — bounded by
    /// [`ClientRing::depth`] at all times (the bounded-memory invariant
    /// the overload experiment checks).
    pub fn in_flight(&self) -> u64 {
        self.ring.in_flight()
    }

    /// The ring's depth: SQ and CQ slots, staging pages, and the
    /// in-flight bound.
    pub fn depth(&self) -> u64 {
        self.ring.depth()
    }

    /// [`Producer::admit`], with a `RingFull` counted in
    /// `ring_no_credit`: the remedy is always to reap.
    fn admit(&self, payload_len: usize) -> Result<(), RtError> {
        self.ring.admit(payload_len).inspect_err(|e| self.refused(e))
    }

    #[cold]
    fn refused(&self, e: &RtError) {
        if *e == RtError::RingFull {
            self.rt.stats.cell(self.shared.vcpu).add(claims::token(), |c| &c.ring_no_credit, 1);
        }
    }

    /// [`Producer::push`] the SQE. A batch's first submit, while no traced
    /// SQE is in flight, takes its one sampler tick ([`Self::open_batch`]).
    fn push(&mut self, ep: EntryId, args: [u64; 8], user: u64, payload: Option<&[u8]>) {
        let first = *self.unbilled.get_mut() == 0 && self.traced.is_none();
        let trace = if first { self.open_batch(ep) } else { 0 };
        self.ring.push(ep, args, user, trace, payload);
        *self.unbilled.get_mut() += 1;
    }

    /// A batch's one sampler tick: a sampled batch, or one under a live
    /// trace, opens the ring span its first SQE carries; returns that
    /// SQE's trace word (0 untraced). Out of line, so the other submits
    /// of a batch save no registers for it.
    #[cold]
    #[inline(never)]
    fn open_batch(&mut self, ep: EntryId) -> u64 {
        let vcpu = self.shared.vcpu;
        let sampled = self.rt.obs().try_sample(vcpu);
        let phase = SpanPhase::Ring;
        let Some(tok) = self.rt.spans().begin_client(sampled, false, vcpu, ep, phase) else {
            return 0;
        };
        let trace = tok.ctx().pack();
        self.traced = Some((self.ring.tail, tok));
        trace
    }

    /// Queue one PPC: entry `ep`, 8 argument words, and a `user` tag
    /// returned verbatim in the [`Completion`]. Returns
    /// [`RtError::RingFull`] when admission control refuses (reap, or
    /// shed the request, and retry). Call [`ClientRing::doorbell`]
    /// after the batch.
    pub fn submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        self.admit(0)?;
        self.push(ep, args, user, None);
        Ok(())
    }

    /// Queue one PPC carrying a request payload. The bytes are staged
    /// into the ring's own page for this submission (one local memcpy)
    /// and handed to the handler as its scratch, exactly `payload.len()`
    /// bytes long; a payload over [`crate::slot::SCRATCH_BYTES`] is
    /// refused with [`RtError::BadBulk`]. No reply payload: the
    /// [`Completion`] carries the 8 return words only.
    pub fn submit_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        payload: &[u8],
    ) -> Result<(), RtError> {
        self.admit(payload.len())?;
        self.push(ep, args, user, Some(payload));
        Ok(())
    }

    /// Queue one bulk PPC: `payload` is copied — here, on the
    /// submitting thread — into the span `desc` describes, which this
    /// client's program must own, and the handler later runs with
    /// `desc` packed into `args[7]`, exactly like [`Client::call_bulk`].
    /// A foreign descriptor is refused on the spot with
    /// [`RtError::BulkDenied`] (nothing is queued), a payload longer
    /// than the descriptor's span with [`RtError::BadBulk`]. Two
    /// in-flight bulk submissions must not target one span: the second
    /// copy would land before the first handler has run.
    pub fn submit_bulk(
        &mut self,
        ep: EntryId,
        mut args: [u64; 8],
        user: u64,
        desc: BulkDesc,
        payload: &[u8],
    ) -> Result<(), RtError> {
        args[7] = desc.encode().ok_or(RtError::BadBulk)?;
        if payload.len() > desc.len as usize {
            return Err(RtError::BadBulk);
        }
        self.admit(0)?;
        self.copy_in(desc, payload)?;
        self.push(ep, args, user, None);
        Ok(())
    }

    /// Move `payload` into the region span `desc` names on behalf of
    /// this ring's program. Owner-side access — authorized iff the
    /// program owns the region — with the accounting of the synchronous
    /// copy paths.
    fn copy_in(&self, desc: BulkDesc, payload: &[u8]) -> Result<(), RtError> {
        let (vcpu, program) = (self.shared.vcpu, self.shared.program);
        let (cell, who) = (self.rt.stats.cell(vcpu), claims::token());
        let registry = self.rt.bulk().registry(vcpu);
        let acc = registry
            .begin(desc, 0, program, program, true, true)
            .inspect_err(|_| cell.add(who, |c| &c.bulk_denied, 1))?;
        let n = acc.len.min(payload.len());
        // Safety: `acc` authorizes `[acc.ptr, acc.ptr + acc.len)` and
        // holds the slot exclusively (write access); `payload` cannot
        // alias region memory.
        unsafe { std::ptr::copy_nonoverlapping(payload.as_ptr(), acc.ptr, n) };
        cell.add(who, |c| &c.bulk_calls, 1);
        cell.add(who, |c| &c.bulk_bytes, n as u64);
        Ok(())
    }

    /// Ring the doorbell: wake the worker iff it actually went to sleep
    /// (`notify` in `wait.rs`; `push` published the SQEs), and count the
    /// batch's submissions in `ring_submits`. One park/unpark pair per
    /// *batch*, not per call — the amortization that pays for the ring
    /// in the park modes. Idempotent and cheap when the worker is awake
    /// (spin modes): one fence and one load.
    pub fn doorbell(&self) {
        let s = &self.shared;
        let batch = self.unbilled.replace(0);
        self.rt.stats.cell(s.vcpu).add(claims::token(), |c| &c.ring_submits, batch);
        notify(s.sleeper(), || {
            // `join` is taken only by `drop`, after its last doorbell.
            if let Some(jh) = &self.join {
                self.rt.stats.cell(s.vcpu).add(claims::token(), |c| &c.ring_doorbells, 1);
                // Recorded only if this batch carries the traced SQE.
                if self.traced.as_ref().is_some_and(|(n, _)| n + batch >= self.ring.tail) {
                    let in_flight = self.ring.in_flight() as u32;
                    self.rt.flight().record(s.vcpu, FlightKind::Doorbell, 0, in_flight);
                }
                jh.thread().unpark();
            }
        });
    }

    /// Harvest up to `max` completions into `out` (append; the caller
    /// reuses the vector so the hot loop never allocates). Returns how
    /// many were reaped. Completions arrive in submission order, each
    /// freeing a slot; the reap that takes the traced SQE closes its
    /// ring span. Non-blocking — an empty CQ reaps zero.
    pub fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        let n = self.ring.reap(max, out);
        if let Some((_, tok)) = self.traced.take_if(|(n, _)| *n < self.ring.head) {
            self.rt.spans().end_token(tok, None);
        }
        if n > 0 && self.rt.obs().try_sample(self.shared.vcpu) {
            let vcpu = self.shared.vcpu;
            self.rt.obs().record(LatencyKind::ReapBatch, vcpu, n as u64);
            self.rt.flight().record(vcpu, FlightKind::RingReap, 0, n as u32);
        }
        n
    }

    /// Doorbell, then reap until every accepted submission has
    /// completed. Yields between empty polls; progress is guaranteed
    /// because the worker completes every queued SQE (a dead entry
    /// yields an error CQE, never silence).
    pub fn drain(&mut self, out: &mut Vec<Completion>) {
        self.doorbell();
        while self.in_flight() > 0 {
            if self.reap(usize::MAX, out) == 0 {
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for ClientRing {
    fn drop(&mut self) {
        // Shut the worker down; it finishes everything still queued
        // (error CQEs for dead entries) before exiting, so nothing is
        // silently dropped mid-queue.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.doorbell();
        if let Some(jh) = self.join.take() {
            let _ = jh.join();
        }
        // Close the ring span of a traced SQE never reaped.
        if let Some((_, tok)) = self.traced.take() {
            self.rt.spans().end_token(tok, None);
        }
    }
}

impl Client {
    /// A submission/completion ring with default sizing (see
    /// [`RingOptions`]): pipelined PPC for this client's vCPU.
    pub fn ring(&self) -> ClientRing {
        ClientRing::new(self, RingOptions::default())
    }

    /// A submission/completion ring with explicit sizing.
    pub fn ring_with(&self, opts: RingOptions) -> ClientRing {
        ClientRing::new(self, opts)
    }
}

/// The ring worker: [`drain`] while there is work, the serving threads'
/// [`idle_wait`] on the head SQE's sequence word when there is none. One
/// thread per ring; it exits when the client handle drops, after
/// finishing the queue.
fn ring_worker(rt: Arc<Runtime>, ring: Arc<RingShared>, mut c: Consumer) {
    // The persistent scratch page handlers see on payload-less SQEs —
    // the ring worker's stand-in for a CD's scratch.
    let mut scratch = vec![0u8; SCRATCH_BYTES].into_boxed_slice();
    // This thread's wall-time classifier: Idle on the SQE spin, Park
    // across the Dekker sleep, Ring while draining — one clock read where
    // a run of SQEs begins and one where it ends, none per SQE. The
    // handlers' share is `handler_ns`, `execute`'s sampled estimate,
    // carved out of the Ring interval at the transition that closes it.
    let mut timer = StateTimer::new(rt.stats.served_cell(ring.vcpu), TimeState::Idle);
    let mut handler_ns = 0u64;
    // The SQ's learned poll; this loop is its only writer. The worker
    // wakes nobody (the client reaps by polling): always passed.
    let mut poll = Poll::default();
    loop {
        if c.idle() {
            if ring.shutdown.load(Ordering::Acquire) {
                break;
            }
            // The budget follows `Runtime::set_spin_policy` from the
            // next idle wait on: one `Relaxed` load on a path that is
            // about to spin or sleep.
            let budget = crate::worker_idle_budget(rt.spin_policy());
            let ready = || !c.idle() || ring.shutdown.load(Ordering::Acquire);
            idle_wait(budget, Some(&mut poll), ring.sleeper(), ready, &mut timer, &mut handler_ns);
            continue;
        }
        timer.transition(TimeState::Ring);
        while drain(&rt, &mut c, ring.vcpu, ring.program, &mut scratch, &mut handler_ns)
            .expect("ClientRing is the ring's only producer")
            > 0
        {}
        timer.transition_carving(TimeState::Idle, TimeState::Handler, &mut handler_ns);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Push an SQE whose staged span is `len` bytes at offset `off`,
    /// unchecked — what a hostile producer writes.
    pub(crate) fn push_forged(p: &mut Producer, ep: EntryId, user: u64, off: u32, len: u32) {
        p.push(ep, [7; 8], user, 0, None);
        // Safety: the consumer reads the entry only once the caller
        // drains, on this thread.
        let body = unsafe { &mut (*p.lane.sqe(p.tail - 1)).body };
        (body.flags, body.payload_off, body.payload_len) = (SQE_PAYLOAD, off, len);
    }

    /// A runtime with an echo entry, and one mapped ring's two ends
    /// with nothing in between: the tests below play the worker.
    fn bare_ring(depth: usize) -> (Arc<Runtime>, EntryId, Arc<RingShared>, Producer, Consumer) {
        let rt = Runtime::new(1);
        let ep = rt.bind("echo", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let (shared, lane) = RingShared::map(0, 1, depth);
        (rt, ep, shared, Producer::new(lane), Consumer::new(lane))
    }

    fn drain_all(rt: &Arc<Runtime>, c: &mut Consumer) -> Option<u64> {
        drain(rt, c, 0, 1, &mut [0u8; 64], &mut 0)
    }

    #[test]
    fn spsc_wraps_and_preserves_order() {
        let (rt, ep, _mem, mut p, mut cons) = bare_ring(4);
        let mut out = Vec::new();
        // Three full laps around a 4-slot ring.
        for round in 0..3u64 {
            for i in 0..4u64 {
                p.admit(0).unwrap();
                p.push(ep, [round * 100 + i; 8], i, 0, None);
            }
            assert_eq!(p.admit(0), Err(RtError::RingFull), "depth in flight");
            assert_eq!(drain_all(&rt, &mut cons), Some(4));
            assert_eq!(p.reap(usize::MAX, &mut out), 4);
            for (i, c) in out.drain(..).enumerate() {
                assert_eq!((c.user, c.result), (i as u64, Ok([round * 100 + i as u64; 8])));
            }
        }
        assert_eq!(drain_all(&rt, &mut cons), Some(0), "idle");
    }

    /// An SQE names its staged span by offset, and the consumer checks
    /// the offset against the ring's own pages: a span straddling the
    /// end of its area and an offset past everything are refused with a
    /// `BadBulk` CQE — the handler never sees them — and the honest
    /// offset right after is served. (The segment ring, whose clients'
    /// areas have neighbours, checks both ends in `xproc.rs`.)
    #[test]
    fn forged_staging_offset_is_bad_bulk() {
        let (rt, ep, _mem, mut p, mut cons) = bare_ring(4);
        let end = (p.lane.stage_off + 4 * SCRATCH_BYTES) as u32;
        let mut out = Vec::new();
        for (user, forged) in [end - 2, u32::MAX - 8].into_iter().enumerate() {
            push_forged(&mut p, ep, user as u64, forged, 3);
            assert_eq!(drain_all(&rt, &mut cons), Some(1));
            p.reap(1, &mut out);
            assert_eq!(out.pop().unwrap().result, Err(RtError::BadBulk), "offset {forged}");
        }
        p.push(ep, [7; 8], 9, 0, Some(&[1, 2, 3]));
        assert_eq!(drain_all(&rt, &mut cons), Some(1));
        p.reap(1, &mut out);
        assert_eq!(out.pop().unwrap().result, Ok([7; 8]));
        assert_eq!(rt.stats.snapshot().ring_calls, 1, "only the honest SQE reached a handler");
    }

    /// The sequence words gate every lap: a depth-2 ring driven through
    /// a hundred laps, in runs of one and of two, finds the previous
    /// lap's word "not yet" after each run; the consumer never reads a
    /// CQE word back, so scribbled ones are neither replayed nor
    /// rewritten; and a stale 0 after the first lap, or a word from a lap
    /// ahead, is hostile, with nothing executed.
    #[test]
    fn sequence_words_gate_each_lap_and_refuse_a_stale_or_future_word() {
        let (rt, ep, _mem, mut p, mut cons) = bare_ring(2);
        let lane = p.lane;
        let mut out = Vec::new();
        for n in 0..200u64 {
            p.admit(0).unwrap();
            p.push(ep, [n; 8], n, 0, None);
            if n % 4 == 2 {
                continue; // the first of a run of two
            }
            let run = if n % 4 == 3 { 2 } else { 1 };
            assert_eq!(drain_all(&rt, &mut cons), Some(run), "SQE {n}");
            assert_eq!(drain_all(&rt, &mut cons), Some(0), "the previous lap is not ready");
            assert_eq!(p.reap(usize::MAX, &mut out), run as usize);
        }
        assert!(out.iter().enumerate().all(|(i, c)| (c.user, &c.result) == (i as u64, &Ok([i as u64; 8]))));
        (0..2).for_each(|k| lane.cq_seq(k).store(u64::MAX, Ordering::SeqCst));
        assert_eq!(drain_all(&rt, &mut cons), Some(0), "scribbled CQE words replay nothing");
        p.push(ep, [200; 8], 200, 0, None);
        assert_eq!(drain_all(&rt, &mut cons), Some(1));
        assert_eq!(p.reap(usize::MAX, &mut out), 1);
        assert_eq!(lane.cq_seq(1).load(Ordering::SeqCst), u64::MAX, "nor rewritten");
        assert_eq!(rt.stats.snapshot().ring_calls, 201);
        let head = cons.head;
        for (word, why) in [(0, "a stale 0 after the first lap"), (head + 1 + 2, "a lap ahead")] {
            lane.sq_seq(head).store(word, Ordering::SeqCst);
            assert_eq!(drain_all(&rt, &mut cons), None, "{why} is hostile");
        }
        assert_eq!(rt.stats.snapshot().ring_calls, 201, "and nothing more ran");
    }

    /// A sampled pickup records the published run it finds, counted
    /// from the sequence words: 16 queued SQEs, every pickup sampled,
    /// record 16, 15, … 1.
    #[test]
    fn a_sampled_pickup_records_the_ready_run() {
        let (rt, ep, _mem, mut p, mut cons) = bare_ring(32);
        rt.obs().set_sample_shift(0);
        for i in 0..16u64 {
            p.push(ep, [i; 8], i, 0, None);
        }
        assert_eq!(drain_all(&rt, &mut cons), Some(16));
        let h = rt.obs().vcpu_hist(LatencyKind::RingDepth, 0);
        assert_eq!((h.count(), h.max_ns, h.sum_ns), (16, 16, (1..=16).sum()));
    }

    /// Fails when an entry stops owning its cache lines: a neighbour on
    /// the same line is what made the producer of entry *i + 1* steal the
    /// line from the consumer of entry *i*.
    #[test]
    fn queue_entries_are_whole_cache_lines() {
        use std::mem::{align_of, size_of};
        assert!(align_of::<Sqe>() >= 64 && size_of::<Sqe>().is_multiple_of(64));
        assert!(align_of::<Cqe>() >= 64 && size_of::<Cqe>().is_multiple_of(64));
        // Both arrays land on line boundaries of the mapping.
        let (_shared, lane) = RingShared::map(0, 1, 2);
        assert_eq!((lane.sqe(0) as usize % 64, lane.cqe(0) as usize % 64), (0, 0));
        assert_eq!((lane.sqe(1) as usize % 64, lane.cqe(1) as usize % 64), (0, 0));
        assert_eq!((lane.base as usize + lane.stage_page(1)) % SCRATCH_BYTES, 0);
    }

    /// No queue entry owns a resource: a ring dropped with 64 staged
    /// payloads queued leaves nothing to free — the pool was never
    /// asked for a buffer, and holds what it held.
    #[test]
    fn an_unexecuted_payload_sqe_leaves_nothing_to_free() {
        let rt = Runtime::new(1);
        let ep = rt.bind("echo", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let pool_state = || {
            let s = rt.stats.snapshot();
            let idle: Vec<usize> =
                (0..crate::bulk::SIZE_CLASSES.len()).map(|c| rt.bulk().pool(0).idle_in_class(c)).collect();
            (s.bulk_pool_hits + s.bulk_pool_misses, idle)
        };
        let before = pool_state();
        let mut ring = rt.client(0, 1).ring();
        for i in 0..64u64 {
            ring.submit_payload(ep, [i; 8], i, &[i as u8; 512]).unwrap();
        }
        // No doorbell, no reap.
        drop(ring);
        assert_eq!(pool_state(), before);
    }

    /// `n` depth-1 round trips — submit, doorbell, spin-reap — with a
    /// think time between rounds drawn log-uniformly from nothing to a
    /// few hundred µs (and now and then a long yielding pause), so the
    /// doorbell catches the worker polling, yielding, announced but not
    /// yet parked, and parked. The worker's park has no timeout: a lost
    /// wake hangs the reap, and the watchdog fails the test. Returns how
    /// many doorbells really woke the worker.
    fn ping_pong(rt: &Runtime, ring: &mut ClientRing, ep: EntryId, n: u64) -> u64 {
        let woken = rt.stats.ring_doorbells();
        let (mut out, mut rng) = (Vec::new(), 0x9E37_79B9_7F4A_7C15u64);
        for i in 0..n {
            let r = crate::wait::xorshift(&mut rng);
            (0..(r >> 8) % (1 << (r % 16))).for_each(|_| std::hint::spin_loop());
            if (r >> 4).is_multiple_of(128) {
                (0..(r >> 32) % 1024).for_each(|_| std::thread::yield_now());
            }
            ring.submit(ep, [i; 8], i).unwrap();
            ring.doorbell();
            let mut polls = 0u32;
            while ring.reap(1, &mut out) == 0 {
                polls += 1;
                if polls.is_multiple_of(64) {
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
            assert_eq!(out.pop().map(|c| (c.user, c.result)), Some((i, Ok([i; 8]))));
        }
        rt.stats.ring_doorbells() - woken
    }

    #[test]
    fn no_doorbell_is_lost_over_a_hundred_thousand_rounds() {
        let _watchdog = crate::wait::abort_if_hung("ring.rs doorbell test");
        let n = 100_000;
        for policy in [crate::SpinPolicy::Adaptive, crate::SpinPolicy::ParkOnly] {
            let rt = Runtime::new(1);
            rt.set_spin_policy(policy);
            let ep = rt.bind("echo", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
            let woken = ping_pong(&rt, &mut rt.client(0, 1).ring(), ep, n);
            match policy {
                crate::SpinPolicy::Adaptive => assert!(woken >= 100, "parked path taken: {woken}"),
                // The worker blocks at once, so all but the rounds with
                // (next to) no think time need a real wake.
                crate::SpinPolicy::ParkOnly => {
                    assert!(woken >= n / 2, "ParkOnly worker parks between rounds: {woken} wakes")
                }
            }
        }
    }

    /// The worker reads the policy at each idle wait: flipped on a live
    /// ring, the very next waits block at once — by the bound above,
    /// at least half the rounds that follow need a real wake.
    #[test]
    fn a_live_ring_follows_set_spin_policy() {
        let _watchdog = crate::wait::abort_if_hung("ring.rs live policy test");
        let rt = Runtime::new(1);
        let ep = rt.bind("echo", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let mut ring = rt.client(0, 1).ring();
        ping_pong(&rt, &mut ring, ep, 2_000);
        rt.set_spin_policy(crate::SpinPolicy::ParkOnly);
        let n = 20_000;
        let woken = ping_pong(&rt, &mut ring, ep, n);
        assert!(woken >= n / 2, "the live worker parks between rounds: {woken} wakes");
    }

    /// Budget 0 (`SpinPolicy::ParkOnly`): the idle wait goes straight to
    /// the announced park and never consults the learned poll — a
    /// consulted poll's budget doubles or halves, this one is as it was.
    #[test]
    fn park_only_idle_wait_never_consults_the_poll() {
        let _watchdog = crate::wait::abort_if_hung("ring.rs idle_wait test");
        let (ring, lane) = RingShared::map(0, 1, 2);
        let c = Consumer::new(lane);
        let stats = crate::stats::RuntimeStats::new(1);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut timer = StateTimer::new(stats.served_cell(0), TimeState::Idle);
                let mut poll = Poll::from_bits(1024);
                let budget = crate::worker_idle_budget(crate::SpinPolicy::ParkOnly);
                while !ring.shutdown.load(Ordering::Acquire) {
                    let ready = || !c.idle() || ring.shutdown.load(Ordering::Acquire);
                    idle_wait(budget, Some(&mut poll), ring.sleeper(), ready, &mut timer, &mut 0);
                }
                poll.bits()
            });
            while ring.sleeping.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            ring.shutdown.store(true, Ordering::SeqCst);
            assert!(notify(ring.sleeper(), || worker.thread().unpark()), "announced its sleep");
            assert_eq!(worker.join().unwrap(), 1024, "the poll was consulted");
        });
        assert!(stats.time_park_ns() > 0 || stats.time_idle_ns() > 0, "the wait was timed");
    }

    /// The doorbell's flight record follows the batch's sampler tick.
    /// Each round rings a sampled batch, then — its traced SQE still
    /// unreaped — a second batch and `drain`'s empty one, each at a
    /// parked worker: only the first batch's wakes are recorded, and with
    /// the sampler off none is, though the worker wakes all the same.
    #[test]
    fn a_doorbell_is_flight_recorded_only_for_a_traced_batch() {
        let _watchdog = crate::wait::abort_if_hung("ring.rs doorbell record test");
        for sampled in [true, false] {
            let rt = Runtime::new(1);
            rt.set_spin_policy(crate::SpinPolicy::ParkOnly);
            rt.obs().set_sample_shift(0);
            rt.obs().set_enabled(sampled);
            let ep = rt.bind("echo", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
            let (mut ring, mut out) = (rt.client(0, 1).ring(), Vec::new());
            let parked = |ring: &ClientRing| {
                while ring.shared.sleeping.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
            };
            let mut first_woken = 0;
            for i in 0..8u64 {
                parked(&ring);
                ring.submit(ep, [i; 8], i).unwrap();
                let woken = rt.stats.ring_doorbells();
                ring.doorbell();
                first_woken += rt.stats.ring_doorbells() - woken;
                parked(&ring);
                ring.submit(ep, [i; 8], i).unwrap();
                ring.doorbell();
                parked(&ring);
                ring.drain(&mut out);
            }
            let events = rt.flight().snapshot(0);
            let recorded = events.iter().filter(|e| e.kind == crate::flight::Kind::Flight(FlightKind::Doorbell)).count() as u64;
            assert!(rt.stats.ring_doorbells() > first_woken && first_woken > 0, "parked workers were woken");
            assert_eq!(recorded, if sampled { first_woken } else { 0 }, "sampled: {sampled}");
        }
    }

    #[test]
    fn ring_options_clamp() {
        let rt = Runtime::new(1);
        let client = rt.client(0, 1);
        let depth = |depth| client.ring_with(RingOptions { depth }).depth();
        assert_eq!(depth(5), 8, "rounded up to a power of two");
        assert_eq!(depth(0), 2, "clamped below");
        assert_eq!(depth(MAX_RING_DEPTH + 1), MAX_RING_DEPTH as u64, "clamped above");
    }
}
