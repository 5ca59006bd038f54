//! Submission/completion rings: pipelined PPC with doorbell batching.
//!
//! Every dispatch mode in `call.rs` is one-call-at-a-time rendezvous: a
//! client's throughput is capped at 1/RTT however fast the control
//! plane gets, and the park modes pay a park/unpark **per call**. This
//! module adds the io_uring-style alternative over the same per-vCPU
//! machinery: a per-client **submission queue** (SQ) and **completion
//! queue** (CQ) pair serviced by one dedicated ring worker thread, so
//! many PPCs ride in flight per client and the wake cost amortizes over
//! a whole batch.
//!
//! Layout and protocol:
//!
//! * Both queues are power-of-two single-producer/single-consumer rings
//!   of fixed-size entries, with cache-line-padded head/tail words. The
//!   client is the SQ producer and CQ consumer; the ring worker is the
//!   SQ consumer and CQ producer. Each side publishes its cursor with a
//!   `Release` store and reads the other's with `Acquire` — no RMWs on
//!   the per-entry fast path at all. Entries are whole cache lines (an
//!   SQE three, a CQE two): the producer of entry *i + 1* never
//!   invalidates the line the consumer of entry *i* is reading.
//! * **Cursor ownership.** `sq.tail`: client stores per submit, worker
//!   loads per SQE. `sq.head`: worker stores per SQE, *before*
//!   executing; client loads only when its cached copy says the lane is
//!   full (and for the flight record of a doorbell that really wakes).
//!   `cq.tail`: worker stores per completion, client loads once per lane
//!   per reap. `cq.head`: client stores per reaped completion, worker
//!   loads only in a `debug_assert` — the credit clamp, not the cursor,
//!   keeps the CQ from overflowing.
//! * An SQE carries the entry id, the 8 argument words, a user tag
//!   (returned verbatim in the completion), the packed span context
//!   (so PR-4 traces stay causally complete across the queue hop), and
//!   optionally a staged payload buffer from the PR-2 pools.
//! * **Doorbell batching**: [`ClientRing::submit`] only writes the SQE
//!   and publishes the tail. [`ClientRing::doorbell`] — once per batch
//!   — wakes the worker only if it actually went to sleep: the worker's
//!   idle wait and the doorbell are the `wait`/`notify` pair of
//!   `wait.rs` (announce `sleeping`, fence, re-check the tails, park /
//!   fence, read `sleeping`, unpark), which is where the lost-wakeup
//!   argument lives. In the spin modes the worker picks submissions up
//!   mid-spin and the doorbell is a fence and a load.
//! * **Admission control**: the client holds a fixed credit budget,
//!   clamped to the CQ capacity. `submitted - reaped >= credits` (or a
//!   full SQ) refuses the submission with [`RtError::RingFull`] — the
//!   open-loop backpressure signal — so overload shows up as shed
//!   requests and bounded queues, never unbounded memory. The same
//!   invariant proves the CQ can never overflow: completions in flight
//!   plus queued SQEs never exceed the credit budget.
//! * **Execution-time claims**: the worker claims the entry (the PR-5
//!   lifetime-bearing `frank::Claim` guard) only when an SQE
//!   reaches the head of the queue, never while it waits. Queued
//!   submissions therefore hold no entry references: kill, Exchange and
//!   reclaim drain cleanly (in-queue SQEs for a killed entry complete
//!   with [`RtError::EntryDead`]/[`RtError::Aborted`] CQEs), and
//!   `wait_drained` cannot wedge on parked queue depth.
//! * **Async copy engine**: [`ClientRing::submit_bulk`] stages the
//!   payload into a pool buffer (a local memcpy) and returns; the ring
//!   worker performs the grant-checked copy into the client's region
//!   *off the caller's critical path* before running the handler. The
//!   owner-side access (`owner_access = true`) authorizes iff the ring
//!   client's program owns the region, so a forged descriptor is
//!   refused in the worker with a [`RtError::BulkDenied`] completion.
//!
//! * **QoS lanes**: each ring keeps one SQ/CQ pair per
//!   [`crate::QosClass`] (the class of the *entry* an SQE targets,
//!   resolved at submit time and cached per-entry). The single ring
//!   worker drains every queued `Latency` SQE before each `Bulk` one
//!   and re-checks the `Latency` lane between `Bulk` executions, so a
//!   latency-critical submission waits behind at most one in-progress
//!   bulk handler — never behind a deep batch of 1MiB copies that
//!   happened to be queued first. Credits are a single budget across
//!   both lanes (total in-flight bounds each lane's CQ occupancy, so
//!   the no-overflow proof is unchanged). A cached class can go stale
//!   if an entry ID is killed and re-bound under the other class; that
//!   mis-sorts *priority* for that ID until the ring is rebuilt — it
//!   never affects correctness, since execution re-claims the entry
//!   fresh.
//!
//! Completions are posted in submission order **within a QoS lane**
//! (one FIFO worker per lane stream), which is the ordering guarantee
//! the tests pin down: for SQEs of the same class, CQE *i* is always
//! the completion of SQE *i*. Across classes, `Latency` completions
//! overtake `Bulk` ones by design — [`ClientRing::reap`] also harvests
//! the `Latency` lane first.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Instant;

use crossbeam::utils::CachePadded;

use crate::bulk::PoolBuf;
use crate::flight::FlightKind;
use crate::obs::LatencyKind;
use crate::region::BulkDesc;
use crate::span::SpanToken;
use crate::stats::TimeState;
use crate::wait::{notify, wait, Poll, Sleeper, Spin};
use crate::{bulk, Client, EntryId, ProgramId, RtError, Runtime};

/// Number of QoS lanes per ring — one per [`crate::QosClass`] variant.
const LANES: usize = 2;
/// Lane index of the `Latency` class (drained first by the worker).
const LANE_LAT: usize = 0;
/// Lane index of the `Bulk` class.
const LANE_BULK: usize = 1;

/// Hard cap on ring capacities (entries). Large enough for any open-loop
/// experiment, small enough that a mis-typed depth cannot allocate gigabytes.
pub const MAX_RING_DEPTH: usize = 1 << 16;

/// Sizing for a [`ClientRing`]. Depths are rounded up to powers of two
/// and clamped to [2, [`MAX_RING_DEPTH`]]; `credits` is clamped to the
/// completion-queue capacity so the CQ can never overflow.
#[derive(Clone, Copy, Debug)]
pub struct RingOptions {
    /// Submission-queue capacity (entries).
    pub sq_depth: usize,
    /// Completion-queue capacity (entries).
    pub cq_depth: usize,
    /// In-flight credit budget: submissions not yet reaped. The
    /// admission bound behind [`RtError::RingFull`].
    pub credits: usize,
}

impl Default for RingOptions {
    fn default() -> Self {
        RingOptions { sq_depth: 64, cq_depth: 64, credits: 64 }
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
    /// (unknown/dead entry, contained fault, refused bulk copy).
    pub result: Result<[u64; 8], RtError>,
}

/// A queued submission. Fixed-size; the staged payload (if any) rides
/// as an owned pool buffer, so dropping an unexecuted SQE cannot leak.
/// Line-aligned: 136 → 192 bytes, and no two entries share a line.
#[repr(align(64))]
struct Sqe {
    ep: EntryId,
    args: [u64; 8],
    user: u64,
    /// Packed [`crate::TraceCtx`] of the client-side ring span (0 = no
    /// trace) — the handler span parents under it, exactly like the
    /// call slot's trace word on the hand-off path.
    trace: u64,
    staged: Option<Staged>,
}

/// Payload staged client-side for worker-side delivery.
enum Staged {
    /// Request bytes the handler sees as its scratch page
    /// ([`crate::ScratchRef::Ready`] over the buffer).
    Payload { buf: PoolBuf },
    /// Async bulk copy: `len` bytes to move into the granted region
    /// span `desc` before the handler (which receives `desc` in
    /// `args[7]`) runs.
    Bulk { buf: PoolBuf, len: usize, desc: BulkDesc },
}

/// A queued completion (plain data; the CQ never owns resources);
/// whole lines like [`Sqe`], 88 → 128 bytes.
#[repr(align(64))]
struct Cqe {
    user: u64,
    ep: EntryId,
    result: Result<[u64; 8], RtError>,
}

/// A power-of-two SPSC ring: cache-line-padded cursors, `MaybeUninit`
/// slots. The index protocol is the whole synchronization story: the
/// producer owns `[tail, head + capacity)`, the consumer owns
/// `[head, tail)`, and each side publishes its cursor with `Release`
/// after touching a slot, never before.
struct Spsc<T> {
    /// Consumer cursor (next entry to read). Monotonic, never masked.
    head: CachePadded<AtomicU64>,
    /// Producer cursor (next entry to write). Monotonic, never masked.
    tail: CachePadded<AtomicU64>,
    mask: u64,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// Safety: slots are accessed only under the SPSC index protocol — the
// producer touches a slot strictly before publishing it via `tail`, the
// consumer strictly after observing it there (and symmetrically for
// recycling via `head`) — so no slot is ever reachable from two threads
// at once.
unsafe impl<T: Send> Send for Spsc<T> {}
unsafe impl<T: Send> Sync for Spsc<T> {}

impl<T> Spsc<T> {
    fn new(cap: usize) -> Spsc<T> {
        debug_assert!(cap.is_power_of_two());
        Spsc {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            mask: cap as u64 - 1,
            slots: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: move `v` into slot `idx`.
    ///
    /// # Safety
    /// Caller is the sole producer, `idx` is its unpublished cursor, and
    /// `idx - head < capacity` (the slot is free).
    unsafe fn write(&self, idx: u64, v: T) {
        (*self.slots[(idx & self.mask) as usize].get()).write(v);
    }

    /// Consumer side: move slot `idx`'s entry out.
    ///
    /// # Safety
    /// Caller is the sole consumer, `idx` is its cursor, and `idx <
    /// tail` was observed with `Acquire` (the slot is published).
    unsafe fn read(&self, idx: u64) -> T {
        (*self.slots[(idx & self.mask) as usize].get()).assume_init_read()
    }

    /// Drop every published-but-unconsumed entry (sole-owner teardown).
    fn drain_owned(&mut self) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            // Safety: exclusive access (`&mut self`), entries in
            // `[head, tail)` are initialized and unconsumed.
            unsafe { drop(self.read(i)) };
        }
        self.head.store(tail, Ordering::Relaxed);
    }
}

/// One QoS lane: an SQ/CQ pair carrying SQEs of a single
/// [`crate::QosClass`]. Both lanes share the worker, the sleep flag and the
/// credit budget — the lane split only decides *drain order*.
struct Lane {
    sq: Spsc<Sqe>,
    cq: Spsc<Cqe>,
}

/// The state shared between a [`ClientRing`] handle and its worker
/// thread. Registered (weakly) with Frank so runtime-wide policy
/// changes reach the worker's idle budget.
pub(crate) struct RingShared {
    vcpu: usize,
    program: ProgramId,
    /// SQ/CQ pairs indexed by [`crate::QosClass::index`]: `Latency` in lane 0,
    /// `Bulk` in lane 1.
    lanes: [Lane; LANES],
    /// Worker's sleep announcement (the sleeper flag the doorbell
    /// reads): 1 while it is about to park or parked.
    sleeping: AtomicU32,
    /// Worker thread handle, installed by the spawner before the ring
    /// is usable — a doorbell can never miss its unpark target.
    worker: OnceLock<Thread>,
    shutdown: AtomicBool,
    /// Worker-side idle spin budget before sleeping; paired with the
    /// runtime [`crate::SpinPolicy`] like every entry's `idle_spin`.
    idle_spin: AtomicU32,
}

impl RingShared {
    pub(crate) fn set_idle_spin(&self, budget: u32) {
        self.idle_spin.store(budget, Ordering::Relaxed);
    }

    fn sleeper(&self) -> Sleeper<'_> {
        Sleeper { word: &self.sleeping, asleep: 1, awake: 0 }
    }
}

impl Drop for RingShared {
    fn drop(&mut self) {
        // Sole owner at this point (client handle and worker both
        // gone): free anything still queued so staged payload buffers
        // never leak.
        for lane in &mut self.lanes {
            lane.sq.drain_owned();
            lane.cq.drain_owned();
        }
    }
}

/// The per-client ring handle: submit many PPCs, ring the doorbell once
/// per batch, reap completions in submission order. Created with
/// [`Client::ring`] / [`Client::ring_with`]; dropping it shuts the
/// worker down after everything queued has completed.
///
/// All producer-side methods take `&mut self`: the type system enforces
/// the single-producer half of the SPSC contract (clone the
/// [`Client`] and build another ring for a second submitter).
pub struct ClientRing {
    rt: Arc<Runtime>,
    shared: Arc<RingShared>,
    /// Client-local submission cursors, one per lane (each equals the
    /// lane's published SQ tail).
    local_tail: [u64; LANES],
    /// Each lane's SQ head as last loaded: never ahead of the true one.
    sq_head_cache: [u64; LANES],
    /// Completions harvested so far per lane (each equals the lane's
    /// published CQ head).
    reaped: [u64; LANES],
    credits: u64,
    /// Per-entry lane cache: 0 = not yet resolved, else
    /// `1 + QosClass::index()`. Submit-time classification costs one
    /// byte load after the first call on an entry — no claim, no
    /// atomic.
    classes: Box<[u8]>,
    /// Ring spans of in-flight SQEs per lane, submission order —
    /// completions arrive in the same per-lane order, so reap closes
    /// them front-first.
    tokens: [VecDeque<Option<SpanToken>>; LANES],
    join: Option<std::thread::JoinHandle<()>>,
}

impl ClientRing {
    pub(crate) fn new(client: &Client, opts: RingOptions) -> ClientRing {
        let rt = Arc::clone(client.runtime());
        let sq_cap = opts.sq_depth.next_power_of_two().clamp(2, MAX_RING_DEPTH);
        let cq_cap = opts.cq_depth.next_power_of_two().clamp(2, MAX_RING_DEPTH);
        let credits = opts.credits.clamp(1, cq_cap) as u64;
        // Each lane gets the full configured depth: the lane split is a
        // priority mechanism, not a capacity partition, and the global
        // credit budget (<= one lane's CQ capacity) already bounds
        // total occupancy.
        let shared = Arc::new(RingShared {
            vcpu: client.vcpu,
            program: client.program,
            lanes: std::array::from_fn(|_| Lane {
                sq: Spsc::new(sq_cap),
                cq: Spsc::new(cq_cap),
            }),
            sleeping: AtomicU32::new(0),
            worker: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            idle_spin: AtomicU32::new(crate::worker_idle_budget(rt.spin_policy())),
        });
        rt.register_ring(&shared);
        let rt2 = Arc::clone(&rt);
        let sh2 = Arc::clone(&shared);
        let cpu = rt.cpu_of(client.vcpu);
        let jh = std::thread::Builder::new()
            .name(format!("ppc-ring-v{}", client.vcpu))
            .spawn(move || {
                if let Some(cpu) = cpu {
                    crate::affinity::pin_current(cpu);
                }
                ring_worker(rt2, sh2);
            })
            .expect("spawn ring worker thread");
        shared.worker.set(jh.thread().clone()).expect("worker thread set once");
        rt.stats.cell(client.vcpu).workers_created.fetch_add(1, Ordering::Relaxed);
        ClientRing {
            rt,
            shared,
            local_tail: [0; LANES],
            sq_head_cache: [0; LANES],
            reaped: [0; LANES],
            credits,
            classes: vec![0u8; crate::MAX_ENTRIES].into_boxed_slice(),
            tokens: std::array::from_fn(|_| VecDeque::new()),
            join: Some(jh),
        }
    }

    /// Submissions accepted but not yet reaped, both lanes — bounded by
    /// [`ClientRing::credits`] at all times (the bounded-memory
    /// invariant the overload experiment checks).
    pub fn in_flight(&self) -> u64 {
        (self.local_tail[LANE_LAT] - self.reaped[LANE_LAT])
            + (self.local_tail[LANE_BULK] - self.reaped[LANE_BULK])
    }

    /// The in-flight credit budget (shared across both QoS lanes).
    pub fn credits(&self) -> u64 {
        self.credits
    }

    /// Submission-queue capacity (entries, per QoS lane).
    pub fn sq_capacity(&self) -> usize {
        self.shared.lanes[LANE_LAT].sq.capacity()
    }

    /// Completion-queue capacity (entries, per QoS lane).
    pub fn cq_capacity(&self) -> usize {
        self.shared.lanes[LANE_LAT].cq.capacity()
    }

    /// The QoS lane `ep` rides: its entry's [`crate::QosClass`], resolved from
    /// this vCPU's service table on first submission and cached. An
    /// unknown or dead entry rides the `Latency` lane un-cached (its
    /// SQE completes with an error CQE either way; the id may be bound
    /// for real later).
    fn lane_of(&mut self, ep: EntryId) -> usize {
        if ep >= crate::MAX_ENTRIES {
            return LANE_LAT;
        }
        match self.classes[ep] {
            0 => match self.rt.entry_qos(self.shared.vcpu, ep) {
                Some(q) => {
                    self.classes[ep] = 1 + q.index() as u8;
                    q.index()
                }
                None => LANE_LAT,
            },
            c => (c - 1) as usize,
        }
    }

    /// Admission control for `lane`: refuse when the shared credit
    /// budget is spent (`ring_no_credit` — the remedy is to reap) or
    /// the lane's SQ has no free slot (`ring_full` — the worker is
    /// behind), both surfacing as [`RtError::RingFull`].
    fn admit(&mut self, lane: usize) -> Result<(), RtError> {
        let s = &self.shared;
        if self.in_flight() >= self.credits {
            self.rt.stats.cell(s.vcpu).ring_no_credit.fetch_add(1, Ordering::Relaxed);
            return Err(RtError::RingFull);
        }
        // The consumer's head is loaded only when the cached copy says
        // the queue is full; refused iff the fresh value still does.
        let sq = &s.lanes[lane].sq;
        let depth = sq.capacity() as u64;
        if self.local_tail[lane] - self.sq_head_cache[lane] >= depth {
            self.sq_head_cache[lane] = sq.head.load(Ordering::Acquire);
            if self.local_tail[lane] - self.sq_head_cache[lane] >= depth {
                self.rt.stats.cell(s.vcpu).ring_full.fetch_add(1, Ordering::Relaxed);
                return Err(RtError::RingFull);
            }
        }
        Ok(())
    }

    /// Write one SQE into `lane` and publish that lane's tail
    /// (`Release`). No wake — that is [`ClientRing::doorbell`]'s job,
    /// once per batch.
    fn push(&mut self, lane: usize, ep: EntryId, args: [u64; 8], user: u64, staged: Option<Staged>) {
        let s = &self.shared;
        let sampled = self.rt.obs().try_sample();
        let tok = self.rt.spans().begin_ring(sampled, s.vcpu, ep);
        let trace = tok.as_ref().map_or(0, |t| t.ctx.pack());
        // Safety: single producer (`&mut self`), space checked by
        // `admit` — the cursor's slot is free.
        unsafe { s.lanes[lane].sq.write(self.local_tail[lane], Sqe { ep, args, user, trace, staged }) };
        self.local_tail[lane] += 1;
        s.lanes[lane].sq.tail.store(self.local_tail[lane], Ordering::Release);
        self.tokens[lane].push_back(tok);
        self.rt.stats.cell(s.vcpu).ring_submits.fetch_add(1, Ordering::Relaxed);
    }

    /// Queue one PPC: entry `ep`, 8 argument words, and a `user` tag
    /// returned verbatim in the [`Completion`]. Returns
    /// [`RtError::RingFull`] when admission control refuses (reap, or
    /// shed the request, and retry). Call [`ClientRing::doorbell`]
    /// after the batch.
    pub fn submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        let lane = self.lane_of(ep);
        self.admit(lane)?;
        self.push(lane, ep, args, user, None);
        Ok(())
    }

    /// Queue one PPC carrying a request payload. The bytes are staged
    /// into a pool buffer (one local memcpy) and handed to the handler
    /// as its scratch page, payload in the prefix. Payloads above the
    /// top pool size class are refused with [`RtError::BadBulk`].
    pub fn submit_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        payload: &[u8],
    ) -> Result<(), RtError> {
        let lane = self.lane_of(ep);
        self.admit(lane)?;
        let s = &self.shared;
        let cell = self.rt.stats.cell(s.vcpu);
        let mut buf =
            self.rt.bulk().pool(s.vcpu).take(payload.len().max(1), cell).ok_or(RtError::BadBulk)?;
        buf.as_mut_slice()[..payload.len()].copy_from_slice(payload);
        self.push(lane, ep, args, user, Some(Staged::Payload { buf }));
        Ok(())
    }

    /// Queue one bulk PPC, draining the region copy off this thread's
    /// critical path: `payload` is staged into a pool buffer now (one
    /// local memcpy), the ring worker later performs the grant-checked
    /// copy into the span `desc` describes — which this client's
    /// program must own — and then runs the handler with `desc` packed
    /// into `args[7]`, exactly like [`Client::call_bulk`]. A payload
    /// longer than the descriptor's span, or wider than the top pool
    /// class, is refused with [`RtError::BadBulk`] up front.
    pub fn submit_bulk(
        &mut self,
        ep: EntryId,
        mut args: [u64; 8],
        user: u64,
        desc: BulkDesc,
        payload: &[u8],
    ) -> Result<(), RtError> {
        let lane = self.lane_of(ep);
        self.admit(lane)?;
        args[7] = desc.encode().ok_or(RtError::BadBulk)?;
        if payload.len() > desc.len as usize {
            return Err(RtError::BadBulk);
        }
        let s = &self.shared;
        let cell = self.rt.stats.cell(s.vcpu);
        let mut buf =
            self.rt.bulk().pool(s.vcpu).take(payload.len().max(1), cell).ok_or(RtError::BadBulk)?;
        buf.as_mut_slice()[..payload.len()].copy_from_slice(payload);
        cell.bulk_calls.fetch_add(1, Ordering::Relaxed);
        self.push(lane, ep, args, user, Some(Staged::Bulk { buf, len: payload.len(), desc }));
        Ok(())
    }

    /// Ring the doorbell: wake the worker iff it actually went to sleep
    /// (`notify` in `wait.rs`; the tails were published by `push`). One
    /// park/unpark pair per *batch*, not per call — the amortization
    /// that pays for the ring in the park modes. Idempotent and cheap
    /// when the worker is awake (spin modes): one fence and one load.
    pub fn doorbell(&self) {
        let s = &self.shared;
        notify(s.sleeper(), || {
            if let Some(t) = s.worker.get() {
                let cell = self.rt.stats.cell(s.vcpu);
                cell.ring_doorbells.fetch_add(1, Ordering::Relaxed);
                let depth: u64 = (0..LANES)
                    .map(|l| {
                        self.local_tail[l]
                            .saturating_sub(s.lanes[l].sq.head.load(Ordering::Relaxed))
                    })
                    .sum();
                self.rt.flight().record(s.vcpu, FlightKind::Doorbell, 0, depth as u32);
                t.unpark();
            }
        });
    }

    /// Harvest completions from one lane's CQ (per-lane submission
    /// order; closes ring spans front-first and returns credits).
    fn reap_lane(&mut self, lane: usize, max: usize, out: &mut Vec<Completion>) -> usize {
        let s = &self.shared;
        let cq = &s.lanes[lane].cq;
        let tail = cq.tail.load(Ordering::Acquire);
        let mut n = 0usize;
        while self.reaped[lane] < tail && n < max {
            // Safety: single consumer (`&mut self`), `reaped < tail`
            // observed with Acquire.
            let cqe = unsafe { cq.read(self.reaped[lane]) };
            self.reaped[lane] += 1;
            cq.head.store(self.reaped[lane], Ordering::Release);
            if let Some(tok) = self.tokens[lane].pop_front().flatten() {
                self.rt.spans().end_token(tok, None);
            }
            out.push(Completion { user: cqe.user, ep: cqe.ep, result: cqe.result });
            n += 1;
        }
        n
    }

    /// Harvest up to `max` completions into `out` (append; the caller
    /// reuses the vector so the hot loop never allocates). Returns how
    /// many were reaped. The `Latency` lane is harvested first — its
    /// completions overtake queued `Bulk` ones end to end — and within
    /// a lane completions arrive in submission order; each reap closes
    /// the matching ring span and returns a credit. Non-blocking — an
    /// empty CQ reaps zero.
    pub fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        let mut n = self.reap_lane(LANE_LAT, max, out);
        n += self.reap_lane(LANE_BULK, max - n, out);
        if n > 0 && self.rt.obs().try_sample() {
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
        // (error CQEs for dead entries) before exiting, so staged
        // buffers recycle and nothing is silently dropped mid-queue.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.doorbell();
        if let Some(jh) = self.join.take() {
            let _ = jh.join();
        }
        // Close the ring spans of completions never reaped, both lanes.
        for lane in &mut self.tokens {
            while let Some(tok) = lane.pop_front() {
                if let Some(tok) = tok {
                    self.rt.spans().end_token(tok, None);
                }
            }
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

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Idle rendezvous, ring-worker side: `wait.rs`'s primitive with the
/// learned `poll` and a yielding spin of `idle_spin` passes on both
/// lanes' SQ tails (the mirror of the entry workers' mailbox spin), then
/// the announced park the doorbell pairs with; budget 0 (`ParkOnly`)
/// parks at once, no poll either. One park per call: the worker loop
/// re-reads the tails and the shutdown flag itself.
fn idle_wait(
    ring: &RingShared,
    head: &[u64; LANES],
    poll: &mut Poll,
    timer: &mut crate::stats::StateTimer<'_>,
) {
    let budget = ring.idle_spin.load(Ordering::Relaxed);
    let spin = Spin { poll: Some(poll).filter(|_| budget > 0), budget, rounds: 0 };
    let ready = || {
        (0..LANES).any(|l| ring.lanes[l].sq.tail.load(Ordering::Acquire) != head[l])
            || ring.shutdown.load(Ordering::Acquire)
    };
    let park = || {
        // The spin was Idle time; the sleep is Park time.
        timer.transition(TimeState::Park);
        std::thread::park();
        timer.transition(TimeState::Idle);
        false
    };
    wait(spin, Some(ring.sleeper()), ready, || (), park);
}

/// Consume one SQE from `lane` and post its CQE: the per-SQE body of
/// the worker loop, parameterized so the priority scheduler above can
/// interleave lanes.
#[allow(clippy::too_many_arguments)] // the worker loop's locals, one by one
fn execute_lane(
    rt: &Arc<Runtime>,
    ring: &RingShared,
    lane: usize,
    head: &mut [u64; LANES],
    cq_tail: &mut [u64; LANES],
    scratch: &mut [u8],
    handler_ns: &mut u64,
    timer: &mut crate::stats::StateTimer<'_>,
) {
    let l = &ring.lanes[lane];
    // One sampler tick per SQE decides all its records: a second site
    // on this thread would fall into step and take every sample or none.
    let sampled = rt.obs().try_sample();
    if sampled {
        // The queue depth this pickup observes — log₂ depth bands.
        let depth = (0..LANES).map(|i| ring.lanes[i].sq.tail.load(Ordering::Relaxed) - head[i]);
        rt.obs().record(LatencyKind::RingDepth, ring.vcpu, depth.sum());
    }
    // Safety: sole consumer; `head < tail` observed Acquire by the
    // caller.
    let sqe = unsafe { l.sq.read(head[lane]) };
    head[lane] += 1;
    // Free the SQ slot before executing: admission is bounded by
    // credits, not SQ occupancy, so the client may refill while this
    // entry runs. The client's cached copy of this head is only ever
    // *behind* it, so it can refuse late, never admit early.
    l.sq.head.store(head[lane], Ordering::Release);
    let cqe = execute_sqe(rt, ring, sqe, scratch, sampled, handler_ns, timer);
    debug_assert!(
        cq_tail[lane] - l.cq.head.load(Ordering::Relaxed) < l.cq.capacity() as u64,
        "credit clamp must bound CQ occupancy"
    );
    // Safety: sole CQ producer; occupancy bounded by the credit clamp
    // (credits <= cq capacity, and per-lane in-flight <= total).
    unsafe { l.cq.write(cq_tail[lane], cqe) };
    cq_tail[lane] += 1;
    l.cq.tail.store(cq_tail[lane], Ordering::Release);
}

/// The ring worker loop: consume SQEs in per-lane order — every queued
/// `Latency` SQE before each `Bulk` one, re-reading the `Latency` tail
/// between `Bulk` executions so a latency submission arriving mid-batch
/// waits behind at most one in-progress bulk handler — execute each
/// under an execution-time claim, post the CQE, repeat. One thread per
/// ring; it exits when the client handle drops (after finishing both
/// queues).
fn ring_worker(rt: Arc<Runtime>, ring: Arc<RingShared>) {
    // The persistent scratch page handlers see on non-payload SQEs —
    // the ring worker's stand-in for a CD's scratch.
    let mut scratch = vec![0u8; crate::slot::SCRATCH_BYTES].into_boxed_slice();
    let mut head = [0u64; LANES];
    let mut cq_tail = [0u64; LANES];
    // This thread's wall-time classifier: Idle on the tail spin, Park
    // across the Dekker sleep, Ring while draining — one clock read where
    // a run of SQEs begins and one where it ends, none per SQE. Staged
    // bulk copies are timed out to Copy in `execute_sqe`; the handlers'
    // share is `handler_ns`, `ring_execute`'s sampled estimate, carved
    // out of the Ring interval at the transition that closes it.
    let mut timer =
        crate::stats::StateTimer::new(rt.stats.served_cell(ring.vcpu), TimeState::Idle);
    let mut handler_ns = 0u64;
    // The tails' learned poll; this loop is its only writer. The worker
    // wakes nobody (the client reaps by polling): always passed.
    let mut poll = Poll::default();
    loop {
        let lat_tail = ring.lanes[LANE_LAT].sq.tail.load(Ordering::Acquire);
        let bulk_tail = ring.lanes[LANE_BULK].sq.tail.load(Ordering::Acquire);
        if head[LANE_LAT] == lat_tail && head[LANE_BULK] == bulk_tail {
            if ring.shutdown.load(Ordering::Acquire) {
                break;
            }
            idle_wait(&ring, &head, &mut poll, &mut timer);
            continue;
        }
        timer.transition(TimeState::Ring);
        loop {
            if ring.lanes[LANE_LAT].sq.tail.load(Ordering::Acquire) != head[LANE_LAT] {
                execute_lane(
                    &rt, &ring, LANE_LAT, &mut head, &mut cq_tail, &mut scratch, &mut handler_ns,
                    &mut timer,
                );
                continue;
            }
            if ring.lanes[LANE_BULK].sq.tail.load(Ordering::Acquire) == head[LANE_BULK] {
                break;
            }
            execute_lane(
                &rt, &ring, LANE_BULK, &mut head, &mut cq_tail, &mut scratch, &mut handler_ns,
                &mut timer,
            );
        }
        timer.transition_carving(TimeState::Idle, TimeState::Handler, &mut handler_ns);
    }
}

/// Execute one SQE: deliver any staged payload, run the handler under
/// an execution-time claim, recycle the staging buffer, and produce the
/// completion entry.
fn execute_sqe(
    rt: &Arc<Runtime>,
    ring: &RingShared,
    sqe: Sqe,
    scratch: &mut [u8],
    sampled: bool,
    handler_ns: &mut u64,
    timer: &mut crate::stats::StateTimer<'_>,
) -> Cqe {
    let Sqe { ep, args, user, trace, staged } = sqe;
    let run = |scratch: &mut [u8], handler_ns: &mut u64| {
        rt.ring_execute(ring.vcpu, ep, args, ring.program, trace, scratch, sampled, handler_ns)
    };
    let result = match staged {
        None => run(scratch, handler_ns),
        Some(Staged::Payload { mut buf }) => {
            let r = run(buf.as_mut_slice(), handler_ns);
            rt.bulk().pool(ring.vcpu).put(buf);
            r
        }
        Some(Staged::Bulk { buf, len, desc }) => {
            // µs-scale, so timed exactly: closes the Ring interval so
            // far (handlers' share carved out) and opens the next.
            timer.transition_carving(TimeState::Copy, TimeState::Handler, handler_ns);
            let copied = bulk_copy_in(rt, ring, &buf, len, desc, sampled);
            timer.transition(TimeState::Ring);
            rt.bulk().pool(ring.vcpu).put(buf);
            match copied {
                Ok(()) => run(scratch, handler_ns),
                Err(e) => Err(e),
            }
        }
    };
    Cqe { user, ep, result }
}

/// The async copy engine's worker half: move the staged bytes into the
/// granted region span on behalf of the submitting program. Owner-side
/// access — authorized iff the ring client's program owns the region —
/// with the same accounting as the synchronous copy paths.
fn bulk_copy_in(
    rt: &Arc<Runtime>,
    ring: &RingShared,
    buf: &PoolBuf,
    len: usize,
    desc: BulkDesc,
    sampled: bool,
) -> Result<(), RtError> {
    let cell = rt.stats.served_cell(ring.vcpu);
    let t0 = sampled.then(Instant::now);
    let acc = rt
        .bulk()
        .registry(ring.vcpu)
        .begin(desc, 0, ring.program, ring.program, true, true)
        .inspect_err(|_| {
            cell.bulk_denied.fetch_add(1, Ordering::Relaxed);
        })?;
    let n = acc.len.min(len);
    // Safety: `acc` authorizes `[acc.ptr, acc.ptr + acc.len)` and holds
    // the slot exclusively (write access); the pool buffer holds at
    // least `len` initialized bytes and cannot alias region memory.
    unsafe { bulk::copy_span(acc.ptr, buf.as_mut_ptr() as *const u8, n) };
    acc.finish().inspect_err(|_| {
        cell.bulk_denied.fetch_add(1, Ordering::Relaxed);
    })?;
    cell.bulk_bytes.fetch_add(n as u64, Ordering::Relaxed);
    if let Some(t0) = t0 {
        rt.obs().record(LatencyKind::BulkCopy, ring.vcpu, t0.elapsed().as_nanos() as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_wraps_and_preserves_order() {
        let q: Spsc<u64> = Spsc::new(4);
        let mut tail = 0u64;
        let mut head = 0u64;
        // Three full laps around a 4-slot ring.
        for round in 0..3u64 {
            for i in 0..4u64 {
                unsafe { q.write(tail, round * 100 + i) };
                tail += 1;
                q.tail.store(tail, Ordering::Release);
            }
            assert_eq!(tail - head, 4, "full");
            for i in 0..4u64 {
                let got = unsafe { q.read(head) };
                head += 1;
                q.head.store(head, Ordering::Release);
                assert_eq!(got, round * 100 + i);
            }
        }
    }

    #[test]
    fn spsc_drain_owned_frees_queued_entries() {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        struct Probe(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut q: Spsc<Probe> = Spsc::new(8);
        for i in 0..5u64 {
            unsafe { q.write(i, Probe(std::sync::Arc::clone(&counter))) };
            q.tail.store(i + 1, Ordering::Release);
        }
        // Consume two, leave three queued.
        for i in 0..2u64 {
            unsafe { drop(q.read(i)) };
            q.head.store(i + 1, Ordering::Release);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2);
        q.drain_owned();
        assert_eq!(counter.load(Ordering::Relaxed), 5, "queued entries freed exactly once");
        drop(q);
        assert_eq!(counter.load(Ordering::Relaxed), 5, "no double free on drop");
    }

    /// Fails when an entry stops owning its cache lines: a neighbour on
    /// the same line is what made the producer of entry *i + 1* steal the
    /// line from the consumer of entry *i*.
    #[test]
    fn queue_entries_are_whole_cache_lines() {
        use std::mem::{align_of, size_of};
        assert!(align_of::<Sqe>() >= 64 && size_of::<Sqe>().is_multiple_of(64));
        assert!(align_of::<Cqe>() >= 64 && size_of::<Cqe>().is_multiple_of(64));
        // The boxed slot array inherits the alignment.
        let (sq, cq) = (Spsc::<Sqe>::new(4), Spsc::<Cqe>::new(4));
        assert_eq!(sq.slots.as_ptr() as usize % 64, 0);
        assert_eq!(cq.slots.as_ptr() as usize % 64, 0);
    }

    /// `n` depth-1 round trips — submit, doorbell, spin-reap — with a
    /// think time between rounds drawn log-uniformly from nothing to a
    /// few hundred µs (and now and then a long yielding pause), so the
    /// doorbell catches the worker polling, yielding, announced but not
    /// yet parked, and parked. The worker's park has no timeout: a lost
    /// wake hangs the reap, and the watchdog fails the test. Returns how
    /// many doorbells really woke the worker.
    fn ping_pong(n: u64, policy: crate::SpinPolicy) -> u64 {
        let _watchdog = crate::wait::abort_if_hung("ring.rs doorbell test");
        let rt = Runtime::new(1);
        rt.set_spin_policy(policy);
        let ep = rt.bind("echo", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let mut ring = rt.client(0, 1).ring();
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
        rt.stats.ring_doorbells()
    }

    #[test]
    fn no_doorbell_is_lost_over_a_hundred_thousand_rounds() {
        let n = 100_000;
        let woken = ping_pong(n, crate::SpinPolicy::Adaptive);
        assert!(woken >= 100, "parked path taken: {woken} wakes");
        // `ParkOnly`: the worker blocks at once, so all but the rounds
        // with (next to) no think time need a real wake.
        let woken = ping_pong(n, crate::SpinPolicy::ParkOnly);
        assert!(woken >= n / 2, "ParkOnly worker parks between rounds: {woken} wakes");
    }

    /// Budget 0 (`SpinPolicy::ParkOnly`): the idle wait goes straight to
    /// the announced park and never consults the learned poll — a
    /// consulted poll's budget doubles or halves, this one is as it was.
    #[test]
    fn park_only_idle_wait_never_consults_the_poll() {
        let _watchdog = crate::wait::abort_if_hung("ring.rs idle_wait test");
        let ring = RingShared {
            vcpu: 0,
            program: 1,
            lanes: std::array::from_fn(|_| Lane { sq: Spsc::new(2), cq: Spsc::new(2) }),
            sleeping: AtomicU32::new(0),
            worker: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            idle_spin: AtomicU32::new(crate::worker_idle_budget(crate::SpinPolicy::ParkOnly)),
        };
        let stats = crate::stats::RuntimeStats::new(1);
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut timer = crate::stats::StateTimer::new(stats.served_cell(0), TimeState::Idle);
                let mut poll = Poll::from_bits(1024);
                while !ring.shutdown.load(Ordering::Acquire) {
                    idle_wait(&ring, &[0; LANES], &mut poll, &mut timer);
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

    #[test]
    fn ring_options_clamp() {
        let rt = Runtime::new(1);
        let client = rt.client(0, 1);
        let ring =
            client.ring_with(RingOptions { sq_depth: 5, cq_depth: 3, credits: 1000 });
        assert_eq!(ring.sq_capacity(), 8, "rounded up to a power of two");
        assert_eq!(ring.cq_capacity(), 4);
        assert_eq!(ring.credits(), 4, "credits clamped to CQ capacity");
        assert_eq!(ring.in_flight(), 0);
    }
}
