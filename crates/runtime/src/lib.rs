//! # ppc-rt — a real-threads, user-level port of the PPC design
//!
//! The simulator crates reproduce the paper's *numbers*; this crate makes
//! the paper's *design* executable on a modern machine. It maps the
//! kernel-level mechanism onto user-level primitives:
//!
//! | paper (Hurricane kernel) | this crate |
//! |---|---|
//! | processor | [`Runtime`] virtual processor (optionally pinned to a CPU, [`affinity`]) |
//! | worker process | worker OS thread, parked in a per-vCPU lock-free pool |
//! | call descriptor + stack page | [`slot::CallSlot`] with a 4 KB scratch page, owned by its worker (hold-CD) |
//! | hand-off scheduling | `thread::park` / `Thread::unpark` direct switch |
//! | 8 registers each way | `[u64; 8]` argument/result frames, never touching shared queues |
//! | service table (1024, per CPU) | per-vCPU `AtomicPtr` table **replicas**, wait-free reads, cold-path publish broadcast |
//! | Frank (slow-path resource manager) | [`frank`]: bind/kill/exchange/reclaim + the grow/shrink paths, reclamation paid by the writer (`membarrier`) |
//! | program-ID authentication | `caller_program` in [`CallCtx`] + [`auth::Acl`] |
//! | soft-/hard-kill, Exchange | [`Runtime::soft_kill`], [`Runtime::hard_kill`], [`Runtime::exchange`] |
//! | worker initialization (§4.5.3) | per-worker handler override via [`CallCtx::set_worker_handler`] |
//! | async / interrupt / upcall variants | [`Client::call_async`], [`Runtime::upcall`] |
//! | CopyTo/CopyFrom bulk data (§4.2) | [`Client::call_with_payload`] through the scratch page |
//! | worker-process fault isolation (§2) | handler panics become [`RtError::ServerFault`]; the pool survives |
//! | "handled on the same processor as the client" (§3) | [`EntryOptions::inline_ok`]: caller-thread inline dispatch, zero park/unpark |
//! | temporary-then-block waiting (hand-off latency) | [`SpinPolicy`]: adaptive spin-then-park rendezvous, per-vCPU EWMA-tuned budget |
//! | "a PPC accesses no shared data" (§3) | per-vCPU `#[repr(align(128))]` cells (stats, completions, histograms), aggregated only on read, and per-thread claim cells |
//!
//! The common-case call path performs **no lock acquisitions and no
//! writes to a cache line any other vCPU's fast path writes**: pools are
//! lock-free queues, the entry lookup is one load of the calling vCPU's
//! own table replica, the rendezvous is a post into the worker's own
//! slot plus an adaptive wait, and every fast-path counter — the entry's
//! completion count included — is an increment on the calling vCPU's
//! own line pair. The handler stays in the entry's box, borrowed under
//! the claim, so no call writes its reference count. The claim itself is
//! plain stores to the calling thread's own claim cell plus loads of
//! read-mostly words (table replica, state, handler pointer) that stay
//! in every cache until an exchange or reclaim changes them; those
//! writers pay with a `membarrier` (`claims`). Locks appear only on
//! cold paths (bind, kill, exchange, worker overrides).
//!
//! Three dispatch modes cover the latency spectrum (`ppcbench`'s
//! `inline_null`, `handoff_null` and `worker.park_rtt_ns`; see
//! `EXPERIMENTS.md`):
//!
//! 1. **inline** ([`EntryOptions::inline_ok`]) — the handler runs on the
//!    caller's thread in a borrowed CD; nothing parks, nothing wakes.
//! 2. **spin-then-park** (default, [`SpinPolicy::Adaptive`]) — the caller
//!    hands off to a worker and spins on the padded slot-state word for a
//!    budget tuned from an EWMA of recent call latency, parking only when
//!    handlers are slow enough that spinning would waste the processor.
//! 3. **park** ([`SpinPolicy::ParkOnly`]) — the pre-optimization
//!    behavior; one park/unpark round trip per call.
//!
//! ```
//! use ppc_rt::{Runtime, EntryOptions};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(2);
//! let ep = rt
//!     .bind("echo", EntryOptions::default(), Arc::new(|ctx| ctx.args))
//!     .unwrap();
//! let client = rt.client(0, 42);
//! assert_eq!(client.call(ep, [1, 2, 3, 4, 5, 6, 7, 8]).unwrap(), [1, 2, 3, 4, 5, 6, 7, 8]);
//! ```

pub mod affinity;
pub mod auth;
pub mod baseline;
pub mod blackbox;
pub mod bulk;
pub mod call;
mod claims;
pub mod entry;
pub mod export;
pub mod flight;
pub mod frank;
pub mod http;
pub mod naming;
pub mod obs;
pub mod profile;
pub mod region;
pub mod ring;
pub mod shm;
pub mod slot;
pub mod span;
pub mod stats;
pub mod telemetry;
mod wait;
pub mod worker;
pub mod xproc;

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU8, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use bulk::{BufferPool, BulkState, PoolBuf};
pub use entry::{EntryOptions, EntryState};
pub use flight::{FlightEvent, FlightKind, FlightPlane};
pub use obs::{Histogram, LatencyKind, ObsState};
pub use region::{BulkDesc, RegionId, MAX_BULK, MAX_REGIONS};
pub use ring::{ClientRing, Completion, RingOptions};
pub use shm::{SegOffset, SegRef, Segment};
pub use span::{Exemplar, SpanPhase, SpanPlane, SpanRecord, TraceCtx};
pub use stats::{RuntimeStats, Snapshot, StatsCell};
pub use telemetry::{AlertState, SloMetric, SloRule, Telemetry, TickDelta, WindowStats};
pub use xproc::{
    ForkedServer, XClient, XSegOptions, XServer, XprocStats, XPROC_LAYOUT_VERSION, XPROC_MAGIC,
};

use entry::EntryShared;
use slot::CallSlot;
use worker::WorkerHandle;

/// Entry-point identifier (small integer, < [`MAX_ENTRIES`]).
pub type EntryId = usize;

/// The paper's cap on simultaneously-bound entry points.
pub const MAX_ENTRIES: usize = 1024;

/// Program identity used for server-side authentication (§4.1).
pub type ProgramId = u32;

/// Errors reported by runtime operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// Entry-point ID out of range or unbound.
    UnknownEntry(EntryId),
    /// The entry point is soft- or hard-killed.
    EntryDead(EntryId),
    /// The call ran while the entry point was hard-killed.
    Aborted(EntryId),
    /// Bulk descriptor malformed, region unknown, span out of bounds, or
    /// the region table is exhausted for this vCPU.
    BadBulk,
    /// Bulk access denied: no matching grant, wrong owner, or the
    /// descriptor does not permit the requested direction.
    BulkDenied(RegionId),
    /// The region's permissions changed (grant/revoke/unregister) while
    /// the transfer was in flight; the transfer is not acknowledged.
    BulkRevoked(RegionId),
    /// The calling thread already holds an in-flight access to the region
    /// that this operation would have to wait out — a self-deadlock,
    /// reported instead of spinning forever. E.g. beginning a write
    /// access, revoking, or unregistering from inside a
    /// [`CallCtx::with_bulk`]-family closure over the same region.
    BulkReentrant(RegionId),
    /// The entry table is full, or the requested slot is taken.
    TableFull,
    /// Operation requires ownership of the entry point.
    NotOwner,
    /// vCPU index out of range.
    BadVcpu(usize),
    /// The server's handler panicked while servicing the call. Per the
    /// paper's §2 rationale for worker processes, the failure "follows
    /// those of a message exchange": the caller gets an error, the server
    /// (and its other workers) keep running.
    ServerFault(EntryId),
    /// A ring submission was refused by admission control: the
    /// submission queue is full or the client's in-flight credits are
    /// exhausted. Open-loop backpressure — reap completions (or shed
    /// the request) and retry.
    RingFull,
    /// The cross-process peer (server or client) died or detached while
    /// an operation was outstanding; the operation did not complete.
    /// Reported instead of hanging — [`crate::xproc`] pairs futex waits
    /// with PID/heartbeat liveness checks.
    PeerGone,
    /// A shared segment failed validation: bad magic, layout-version
    /// mismatch, truncated file, or inconsistent geometry. Nothing in
    /// the segment was trusted or dereferenced past the header check.
    BadSegment,
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::UnknownEntry(ep) => write!(f, "unknown entry point {ep}"),
            RtError::EntryDead(ep) => write!(f, "entry point {ep} is dead"),
            RtError::Aborted(ep) => write!(f, "call aborted by hard kill of {ep}"),
            RtError::BadBulk => write!(f, "bulk descriptor malformed or out of bounds"),
            RtError::BulkDenied(r) => write!(f, "bulk access to region {r} denied"),
            RtError::BulkRevoked(r) => {
                write!(f, "bulk region {r} permissions changed mid-transfer")
            }
            RtError::BulkReentrant(r) => {
                write!(f, "reentrant access to bulk region {r} would deadlock")
            }
            RtError::TableFull => write!(f, "entry table full or slot taken"),
            RtError::NotOwner => write!(f, "caller does not own this entry point"),
            RtError::BadVcpu(v) => write!(f, "virtual processor {v} does not exist"),
            RtError::ServerFault(ep) => {
                write!(f, "server handler for entry {ep} faulted during the call")
            }
            RtError::RingFull => {
                write!(f, "submission ring full or in-flight credits exhausted")
            }
            RtError::PeerGone => {
                write!(f, "cross-process peer died or detached mid-operation")
            }
            RtError::BadSegment => {
                write!(f, "shared segment failed validation (magic/version/geometry)")
            }
        }
    }
}

impl std::error::Error for RtError {}

/// How a synchronous caller waits out the hand-off rendezvous. Set per
/// runtime with [`Runtime::set_spin_policy`]; read on every sync call
/// with a `Relaxed` load.
///
/// The policy is paired: it also sets the *worker-side* idle-slot spin
/// budget, so under `Adaptive` a stream of back-to-back calls resolves
/// both waits in user space without either thread reaching a futex,
/// while under `ParkOnly` an idle worker parks at once. A runtime that
/// serves a cross-process segment ([`Runtime::serve_xproc`]) applies it
/// to the serve loop the same way: `Adaptive` polls for remote calls
/// with a learned budget before sleeping on the doorbell, `ParkOnly`
/// sleeps as soon as a pass finds nothing. Every one of these waits is
/// the same primitive (`wait.rs`) with different budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinPolicy {
    /// Spin on the slot-state word with a per-vCPU budget tuned from an
    /// EWMA of observed call latency, then park. Fast handlers keep their
    /// vCPU spinning (no park/unpark round trip); slow handlers push the
    /// EWMA past [`spin::PARK_THRESHOLD_NS`] and the vCPU stops spinning
    /// altogether. The default.
    Adaptive,
    /// Skip the spin budget: go straight to the bounded escalation
    /// (donate the timeslice to the worker for up to
    /// [`spin::ESCALATE_YIELDS`] yields, see [`slot::CallSlot`]), then
    /// park. Historically this was a pure park/unpark pair; the
    /// escalation was folded in because the park convoy — client parks,
    /// worker finishes, futex wake straggles — produced the exact same
    /// 50–80µs tail here as in the spun-out adaptive case, and a yield
    /// to the worker costs strictly less than a futex sleep/wake when
    /// the handler is already done or about to be.
    ParkOnly,
}

/// Tuning constants for the adaptive spin-then-park rendezvous.
pub mod spin {
    /// Spin budget (iterations) before the first latency observation.
    pub const DEFAULT_BUDGET: u32 = 1 << 10;
    /// Floor of the adaptive budget while spinning is still worthwhile.
    pub const MIN_BUDGET: u32 = 1 << 8;
    /// Ceiling of the adaptive budget — past this, parking is cheaper
    /// than the burned cycles even if the handler eventually finishes.
    pub const MAX_BUDGET: u32 = 1 << 14;
    /// EWMA latency (ns) above which the adaptive policy stops spinning
    /// entirely: a 100 µs handler dwarfs any park/unpark saving.
    pub const PARK_THRESHOLD_NS: u64 = 100_000;
    /// Escalation rounds after the spin budget runs dry and before the
    /// client finally parks: each round donates the client's timeslice
    /// (priority-unpark the worker, then `yield_now`) so a worker that
    /// lost the processor mid-handler gets it back *now* instead of
    /// whenever the scheduler's futex wake path runs. This is what caps
    /// the park-convoy tail — a park/unpark round trip under contention
    /// costs tens of µs; a yield-to-the-worker round costs two context
    /// switches.
    pub const ESCALATE_YIELDS: u32 = 64;
    /// Hard cap on the *donating* wait's spin phase, in iterations
    /// (~2–4 µs of wall clock). The adaptive EWMA budget may grow to
    /// [`MAX_BUDGET`] (~30 µs of spinning) after a latency spike
    /// inflates the average — exactly the head-of-line stall that
    /// shows up as the null-call p999. Past this cap the client stops
    /// burning cycles *hoping* the worker gets scheduled and instead
    /// donates its timeslice to make it happen; the EWMA keeps its
    /// full range for deciding *whether* to spin at all
    /// ([`PARK_THRESHOLD_NS`]).
    pub const SPIN_HARD_CAP: u32 = 2_048;
    /// Ceiling of the *learned poll* the cross-process segment's two
    /// ends run before anything else (see `wait.rs`), in passes of a
    /// pure spin: ≈ 25 µs for the client's one-word poll and ≈ 50 µs for
    /// the server's scan on the 2.1 GHz reference host (12 ns per
    /// `spin_loop` pass) — the order of one cross-CPU futex sleep/wake
    /// there (`shm.futex_pingpong_ns` ≈ 40 µs). Polling longer than the
    /// sleep it avoids cannot pay; the budget below the cap is learned.
    pub const POLL_CAP: u32 = 2_048;
}

/// Where a handler's scratch page comes from.
pub(crate) enum ScratchRef<'a> {
    /// Materialized by the dispatcher: hand-off and ring workers own
    /// their page before the handler runs.
    Ready(&'a mut [u8]),
    /// Inline dispatch: `slot` starts out as the CD that carries the
    /// payload, or — without a payload — empty, and then no CD is
    /// borrowed unless the handler actually asks for
    /// [`CallCtx::scratch`]. Descriptor-only bulk calls never touch the
    /// CD pool at all — their payload lives in the granted region, so
    /// charging them two pool operations for a page they never read
    /// would violate the fast path's "touch nothing you don't need"
    /// discipline.
    Lazy {
        vc: &'a VcpuState,
        cell: &'a stats::StatsCell,
        slot: Option<Box<slot::CallSlot>>,
    },
}

/// Context a service handler receives for one call.
pub struct CallCtx<'a> {
    /// The 8 argument words.
    pub args: [u64; 8],
    /// Caller's program identity (0 for interrupt/upcall variants).
    pub caller_program: ProgramId,
    /// Virtual processor the call executes on (== the caller's vCPU).
    pub vcpu: usize,
    /// The entry point being invoked.
    pub ep: EntryId,
    pub(crate) scratch: ScratchRef<'a>,
    /// `None` when the call executes inline on the caller's thread
    /// ([`EntryOptions::inline_ok`]) — there is no worker to configure.
    pub(crate) worker: Option<&'a WorkerHandle>,
    pub(crate) entry: &'a EntryShared,
}

impl<'a> CallCtx<'a> {
    /// The 4 KB per-call scratch page (the CD's "stack page"). Recycled
    /// across calls and, by default, across services — exactly the paper's
    /// serially-shared stacks, with the same caveat that secrets should
    /// not be left behind.
    ///
    /// Inline calls without a payload borrow the page lazily on first
    /// use; handlers that never ask for it cost the CD pool nothing.
    pub fn scratch(&mut self) -> &mut [u8] {
        match &mut self.scratch {
            ScratchRef::Ready(s) => s,
            ScratchRef::Lazy { vc, cell, slot } => {
                let flight = &self.entry.flight;
                let spans = &self.entry.spans;
                let s =
                    slot.get_or_insert_with(|| vc.take_slot(cell, flight, spans));
                // Safety: the slot was popped from the pool, so this
                // context owns it exclusively until dispatch recycles it;
                // the borrow is tied to `&mut self`.
                unsafe {
                    std::slice::from_raw_parts_mut(s.scratch_raw(), slot::SCRATCH_BYTES)
                }
            }
        }
    }

    /// Reclaim the CD behind a lazy scratch page so the dispatcher can
    /// repool it.
    pub(crate) fn take_lazy_slot(&mut self) -> Option<Box<slot::CallSlot>> {
        match &mut self.scratch {
            ScratchRef::Lazy { slot, .. } => slot.take(),
            ScratchRef::Ready(_) => None,
        }
    }

    /// Replace **this worker's** handling routine for subsequent calls —
    /// the §4.5.3 one-time-initialization pattern: bind the init routine,
    /// and have it call `set_worker_handler(main_handler)` on first call.
    ///
    /// No-op when the call executes inline on the caller's thread
    /// ([`EntryOptions::inline_ok`]): inline dispatch has no worker, so
    /// per-worker initialization does not apply.
    pub fn set_worker_handler(&self, h: Handler) {
        if let Some(w) = self.worker {
            w.set_override(Some(h));
        }
    }

    /// Number of calls this entry point has completed (diagnostics; a
    /// sum over the per-vCPU lifecycle shards).
    pub fn entry_calls(&self) -> u64 {
        self.entry.completions()
    }

    // ---- bulk data: the handler side of the payload plane (§4.2) ----
    //
    // Every accessor below is warm-path legal: authorization is a
    // lock-free epoch-stamped registry read on this vCPU, transfers go
    // through the vectored copy engine, and accounting is a Relaxed
    // increment on this vCPU's own stats cell. The server's identity for
    // the grant check is (entry, entry owner) — the same pair
    // `ppc-core`'s Copy Server validates.
    //
    // Concurrency contract: *writing* accessors (`copy_to`,
    // `exchange_bulk`, `with_bulk_mut`, and the owner-side
    // `BulkRegion::fill`/`with_bytes`) hold their region **exclusively**
    // for the duration of the transfer or closure — concurrent accesses
    // to the same region wait, and grant/revoke/unregister block until
    // the access finishes. Keep closures short: a long-running closure
    // stalls every conflicting access and all registry writes for its
    // region. Beginning a conflicting access — or revoking/dropping the
    // region — from the thread that already holds one returns
    // `RtError::BulkReentrant` rather than deadlocking.

    /// The bulk descriptor riding in `args[7]`, if the caller sent one
    /// (see [`Client::call_bulk`]).
    pub fn bulk_desc(&self) -> Option<BulkDesc> {
        BulkDesc::decode(self.args[7])
    }

    /// The one shape every accessor below has: begin an authorized access
    /// to `desc`'s span on behalf of this entry (counting a denial), run
    /// `f` over `(ptr, n)`, settle. `cap` is `Some(limit)` for a copying
    /// operation — `n` is then the span length clamped to `limit`, the
    /// copy gets its span and latency sample, and the moved bytes are
    /// counted on success — and `None` for in-place access over the whole
    /// span, where no bytes move (`bulk_bytes += 0` would cost a locked
    /// add on the warm path). Returns `f`'s result and `n`; if the
    /// authorization lapsed mid-transfer the result is discarded and a
    /// denial counted, so a revoked access is never acknowledged.
    fn bulk_op<R>(
        &self,
        desc: BulkDesc,
        write: bool,
        cap: Option<usize>,
        f: impl FnOnce(*mut u8, usize) -> R,
    ) -> Result<(R, usize), RtError> {
        let entry = self.entry;
        let _span = cap.map(|_| entry.spans.leaf_scope(self.vcpu, self.ep, SpanPhase::BulkCopy));
        let t0 = (cap.is_some() && entry.obs.try_sample()).then(std::time::Instant::now);
        let cell = entry.bulk.stats.cell(self.vcpu);
        let begun = entry.bulk.registry(self.vcpu).begin(
            desc,
            self.ep,
            entry.opts.owner,
            self.caller_program,
            write,
            false,
        );
        let acc = begun.inspect_err(|_| {
            cell.bulk_denied.fetch_add(1, Ordering::Relaxed);
            let region = desc.region as u32;
            entry.flight.record(self.vcpu, flight::FlightKind::BulkDenied, self.ep, region);
        })?;
        let n = cap.map_or(acc.len, |cap| acc.len.min(cap));
        let r = f(acc.ptr, n);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            entry.obs.record(obs::LatencyKind::BulkCopy, self.vcpu, ns);
        }
        acc.finish().inspect_err(|e| {
            cell.bulk_denied.fetch_add(1, Ordering::Relaxed);
            // The revoke race is exactly what a post-mortem needs to
            // see: always in the flight ring.
            if let RtError::BulkRevoked(r) = e {
                let region = *r as u32;
                entry.flight.record(self.vcpu, flight::FlightKind::BulkRevoked, self.ep, region);
            }
        })?;
        if cap.is_some() {
            cell.bulk_bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok((r, n))
    }

    /// CopyFrom (§4.2): copy up to `dst.len()` bytes of the granted span
    /// into server memory. Returns the bytes copied. Requires a read
    /// grant.
    pub fn copy_from(&self, desc: BulkDesc, dst: &mut [u8]) -> Result<usize, RtError> {
        let dst_ptr = dst.as_mut_ptr();
        // Safety: the access authorizes [ptr, ptr+n); `dst` is a live
        // unique borrow of at least `n` bytes and cannot alias registry
        // memory.
        self.bulk_op(desc, false, Some(dst.len()), |ptr, n| unsafe {
            bulk::copy_span(dst_ptr, ptr, n)
        })
        .map(|((), n)| n)
    }

    /// CopyTo (§4.2): copy up to the span length from server memory into
    /// the granted span. Returns the bytes copied. Requires a write grant
    /// and a writable descriptor.
    pub fn copy_to(&self, desc: BulkDesc, src: &[u8]) -> Result<usize, RtError> {
        // Safety: as in `copy_from`, directions reversed.
        self.bulk_op(desc, true, Some(src.len()), |ptr, n| unsafe {
            bulk::copy_span(ptr, src.as_ptr(), n)
        })
        .map(|((), n)| n)
    }

    /// Exchange for payloads: swap bytes between the granted span and
    /// `buf` (both directions in one pass, no allocation). Returns the
    /// bytes swapped. Requires a write grant.
    pub fn exchange_bulk(&self, desc: BulkDesc, buf: &mut [u8]) -> Result<usize, RtError> {
        let buf_ptr = buf.as_mut_ptr();
        // Safety: as in `copy_to`; `exchange_span` reads and writes both.
        self.bulk_op(desc, true, Some(buf.len()), |ptr, n| unsafe {
            bulk::exchange_span(ptr, buf_ptr, n)
        })
        .map(|((), n)| n)
    }

    /// Zero-copy read: run `f` over the granted span **in place** — no
    /// bytes move at all. If the authorization lapses while `f` runs the
    /// result is discarded and [`RtError::BulkRevoked`] is returned, so a
    /// revoked access is never acknowledged.
    ///
    /// A shared access: concurrent reads proceed in parallel, write
    /// accesses to the region wait for `f` to return. Keep `f` short —
    /// it stalls the region's writers and grant/revoke traffic — and do
    /// not revoke or unregister the region from inside `f` (that returns
    /// [`RtError::BulkReentrant`]).
    pub fn with_bulk<R>(&self, desc: BulkDesc, f: impl FnOnce(&[u8]) -> R) -> Result<R, RtError> {
        // Safety: span authorized; shared read view for the closure's
        // duration, protected from unmapping by the reader announcement.
        self.bulk_op(desc, false, None, |ptr, n| f(unsafe { std::slice::from_raw_parts(ptr, n) }))
            .map(|(r, _)| r)
    }

    /// Zero-copy write: run `f` over the granted span in place with
    /// mutable access. Requires a write grant. The revocation caveat of
    /// [`CallCtx::with_bulk`] applies — plus, since `f` mutates client
    /// memory directly, a revoked access may still have written bytes
    /// (the client revoked mid-flight; the transfer is unacknowledged).
    ///
    /// The access is **exclusive**: while `f` runs, every other access
    /// to the region waits, and any bulk operation on the same region
    /// from inside `f` returns [`RtError::BulkReentrant`].
    pub fn with_bulk_mut<R>(
        &self,
        desc: BulkDesc,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, RtError> {
        // Safety: span authorized for write; the registry protocol keeps
        // the memory mapped while the reader announcement is held.
        self.bulk_op(desc, true, None, |ptr, n| {
            f(unsafe { std::slice::from_raw_parts_mut(ptr, n) })
        })
        .map(|(r, _)| r)
    }
}

/// A service handler: receives the call context, returns 8 result words.
pub type Handler = Arc<dyn Fn(&mut CallCtx<'_>) -> [u64; 8] + Send + Sync>;

/// Per-virtual-processor state: the inline CD pool (all services on this
/// vCPU share it) and this vCPU's replica of the service table — the
/// analogue of the paper's per-processor pools and per-processor table.
pub struct VcpuState {
    /// This vCPU's service-table replica: one atomic pointer per entry
    /// ID, read only by callers on this vCPU (a single cache-local load
    /// per call), written only by Frank's publish/unpublish broadcasts.
    pub(crate) table: Box<[AtomicPtr<EntryShared>]>,
    /// Lock-free pool of idle call slots: the scratch pages inline calls
    /// borrow, held only while a handler runs on the caller's thread (a
    /// hand-off uses its worker's own slot).
    pub(crate) cd_pool: crossbeam::queue::ArrayQueue<Box<CallSlot>>,
    /// EWMA of observed synchronous hand-off latency on this vCPU, in
    /// nanoseconds. Written only by callers on this vCPU (`Relaxed`);
    /// feeds [`VcpuState::spin_budget`].
    pub(crate) ewma_ns: AtomicU64,
    /// The learned poll of this vCPU's callers ([`wait::Poll::bits`]),
    /// written like the EWMA beside it.
    poll: AtomicU64,
    /// Index of this vCPU.
    pub id: usize,
}

impl VcpuState {
    fn new(id: usize, initial_cds: usize) -> Arc<Self> {
        let v = Arc::new(VcpuState {
            table: (0..MAX_ENTRIES).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
            cd_pool: crossbeam::queue::ArrayQueue::new(256),
            ewma_ns: AtomicU64::new(0),
            poll: AtomicU64::new(0),
            id,
        });
        for _ in 0..initial_cds {
            let _ = v.cd_pool.push(CallSlot::new());
        }
        v
    }

    /// Fold one observed call latency into the EWMA (weight 1/8: old
    /// enough to smooth scheduler noise, fresh enough to track a phase
    /// change within a few calls). A lost update under a racy
    /// read-modify-write is harmless — the next call re-observes.
    pub(crate) fn observe_latency(&self, ns: u64) {
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.ewma_ns.store(new, Ordering::Relaxed);
    }

    /// The adaptive spin budget for the next rendezvous on this vCPU:
    /// roughly "spin about as long as a typical call takes", clamped to
    /// [`spin::MIN_BUDGET`]..=[`spin::MAX_BUDGET`], and zero (park
    /// immediately) once typical latency exceeds
    /// [`spin::PARK_THRESHOLD_NS`].
    pub(crate) fn spin_budget(&self) -> u32 {
        let ewma = self.ewma_ns.load(Ordering::Relaxed);
        if ewma == 0 {
            return spin::DEFAULT_BUDGET;
        }
        if ewma > spin::PARK_THRESHOLD_NS {
            return 0;
        }
        (ewma as u32).clamp(spin::MIN_BUDGET, spin::MAX_BUDGET)
    }

    /// The client side of every hand-off rendezvous on `worker`'s slot, a
    /// synchronous caller's (`donate` to the worker it posted to, `woke`
    /// whether that took a wake) and an async call's late waiter alike:
    /// this vCPU's learned poll unless the peer had to be woken, the
    /// EWMA's yielding spin capped at [`spin::SPIN_HARD_CAP`], donation
    /// rounds, then the announced futex sleep. `ParkOnly` (not `adaptive`)
    /// keeps the rounds only, an EWMA past [`spin::PARK_THRESHOLD_NS`]
    /// nothing. Returns `(resolved_without_blocking, escalated)`.
    pub(crate) fn wait_done(
        &self,
        worker: &worker::WorkerHandle,
        adaptive: bool,
        donate: bool,
        woke: bool,
    ) -> (bool, bool) {
        let budget = if adaptive { self.spin_budget() } else { 0 };
        let donates = donate && !(adaptive && budget == 0);
        let mut poll = wait::Poll::from_bits(self.poll.load(Ordering::Relaxed));
        let spin = wait::Spin {
            poll: (budget > 0 && !woke).then_some(&mut poll),
            budget: budget.min(spin::SPIN_HARD_CAP),
            rounds: if donates { spin::ESCALATE_YIELDS } else { 0 },
        };
        let how = worker.slot.wait_done(spin, || worker.unpark());
        self.poll.store(poll.bits(), Ordering::Relaxed);
        (how != wait::Waited::Blocked, donates && how != wait::Waited::Spun)
    }

    /// Take a slot from the pool, growing it if dry (the Frank slow
    /// path). `cell` is the calling vCPU's stats cell; `flight` records
    /// the Frank event (slow path by definition, so unconditionally) and
    /// `spans` stamps it into a live trace, if one encloses the take.
    pub(crate) fn take_slot(
        &self,
        cell: &StatsCell,
        flight: &FlightPlane,
        spans: &SpanPlane,
    ) -> Box<CallSlot> {
        match self.cd_pool.pop() {
            Some(s) => s,
            None => {
                let tf0 = std::time::Instant::now();
                cell.frank_redirects.fetch_add(1, Ordering::Relaxed);
                cell.cds_created.fetch_add(1, Ordering::Relaxed);
                // data 1 = CD pool (the entry is unknown this deep).
                flight.record(self.id, flight::FlightKind::Frank, 0, 1);
                spans.record_instant(self.id, 0, SpanPhase::Frank);
                let s = CallSlot::new();
                // Cold path: the CD allocation is Frank time.
                cell.add_time(
                    stats::TimeState::Frank,
                    tf0.elapsed().as_nanos() as u64,
                );
                s
            }
        }
    }

    /// Return a slot (never posted: it stays `IDLE`) to the pool, dropped
    /// if full — §2's "extra stacks can easily be reclaimed".
    pub(crate) fn put_slot(&self, slot: Box<CallSlot>) {
        let _ = self.cd_pool.push(slot);
    }
}

/// The PPC runtime: virtual processors (each with its own service-table
/// replica) and the Frank cold-path resource manager.
pub struct Runtime {
    pub(crate) vcpus: Vec<Arc<VcpuState>>,
    /// The cold-path resource manager: entry registry (the strong
    /// references behind every published table pointer) and name table
    /// (see [`frank`]).
    pub(crate) frank: parking_lot::Mutex<frank::Frank>,
    /// Facility counters, sharded per vCPU. (`Arc` so the bulk engine can
    /// account from handler context without a back reference.)
    pub stats: Arc<RuntimeStats>,
    /// The payload plane: per-vCPU region registries and buffer pools.
    bulk: Arc<bulk::BulkState>,
    /// Latency-histogram plane, sharded per vCPU (`Arc` for the same
    /// reason as `stats`: handler-context instrumentation without a back
    /// reference).
    obs: Arc<ObsState>,
    /// Flight-recorder event rings, sharded per vCPU.
    flight: Arc<FlightPlane>,
    /// Causal-tracing plane: per-vCPU span rings + tail exemplars.
    spans: Arc<SpanPlane>,
    /// The CPUs vCPUs are pinned to (vCPU *i* on the *i*-th, modulo the
    /// count): what the constructing thread was allowed when
    /// [`RuntimeOptions::pin`] was set, else empty — nothing is pinned.
    pin_cpus: Vec<usize>,
    /// Whether the [`SpinPolicy`] is `ParkOnly` (else `Adaptive`).
    park_only: AtomicBool,
    /// The telemetry plane (windowed sampler + SLO watchdog), present
    /// once started via [`RuntimeOptions::telemetry_tick`] or
    /// [`Runtime::start_telemetry`]. Cold-path mutex: touched only at
    /// start/stop/read, never by dispatch.
    telemetry: parking_lot::Mutex<Option<Arc<telemetry::Telemetry>>>,
    /// The postmortem capture sink, shared with every bound entry so the
    /// worker panic path can trigger a capture without a runtime back
    /// reference (see [`blackbox::Sink`]).
    blackbox: Arc<blackbox::Sink>,
    /// The cross-process transport segment, when this runtime is serving
    /// one (see [`Runtime::serve_xproc`]). Weak: the [`xproc::XServer`]
    /// owns the mapping; the exporters only peek.
    xproc_seg: parking_lot::Mutex<Option<std::sync::Weak<shm::Segment>>>,
    shutdown: AtomicU8,
}

/// Worker-side idle-slot spin budget implied by a client wait policy.
/// The rendezvous is spin-paired: when clients spin out the hand-off, the
/// worker also spins briefly on its slot between calls, so a stream of
/// back-to-back calls never reaches a futex on either side (the client's
/// post finds the worker unparked and its `unpark` stays token-only).
/// `ParkOnly` maps to 0 so that baseline's idle worker parks at once.
pub(crate) fn worker_idle_budget(p: SpinPolicy) -> u32 {
    match p {
        SpinPolicy::Adaptive => spin::DEFAULT_BUDGET,
        SpinPolicy::ParkOnly => 0,
    }
}

/// Construction-time knobs for [`Runtime::with_runtime_options`].
/// (`Clone` but no longer `Copy`: the SLO rule list is heap-backed.)
#[derive(Clone, Debug)]
pub struct RuntimeOptions {
    /// Pin every thread the runtime spawns for vCPU *i* — entry workers,
    /// ring worker, `serve_xproc` thread — to the *i*-th CPU (modulo the
    /// count) the constructing thread is allowed ([`affinity`]); unpinned
    /// where the kernel refuses.
    pub pin: bool,
    /// CDs pre-pooled per vCPU.
    pub initial_cds: usize,
    /// Span-ring slots per vCPU for the tracing plane (power of two).
    pub trace_capacity: usize,
    /// Start the telemetry sampler with this tick (`None`, the default,
    /// spawns no thread; [`telemetry::DEFAULT_TICK`] is the conventional
    /// choice). Also startable later via [`Runtime::start_telemetry`].
    pub telemetry_tick: Option<Duration>,
    /// SLO watchdog rules evaluated every telemetry tick (ignored until
    /// the sampler starts).
    pub slo_rules: Vec<telemetry::SloRule>,
    /// Directory for automatic postmortem black-box captures (handler
    /// panics, SLO alert rising edges). `None` — the default — leaves
    /// automatic capture off unless the `PPC_BLACKBOX_DIR` environment
    /// variable names a directory. See [`blackbox`].
    pub blackbox_dir: Option<std::path::PathBuf>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            pin: false,
            initial_cds: 1,
            trace_capacity: span::DEFAULT_TRACE_CAPACITY,
            telemetry_tick: None,
            slo_rules: Vec::new(),
            blackbox_dir: None,
        }
    }
}

impl Runtime {
    /// A runtime with `n_vcpus` virtual processors, unpinned, one CD
    /// pre-pooled per vCPU (like the worker pools, the CD pool "most
    /// commonly contains only" what back-to-back calls recycle; bursts
    /// grow it on demand).
    pub fn new(n_vcpus: usize) -> Arc<Self> {
        Self::with_options(n_vcpus, false, 1)
    }

    /// A runtime with the historical option pair; see
    /// [`Runtime::with_runtime_options`] for the full knob set.
    pub fn with_options(n_vcpus: usize, pin: bool, initial_cds: usize) -> Arc<Self> {
        Self::with_runtime_options(
            n_vcpus,
            RuntimeOptions { pin, initial_cds, ..RuntimeOptions::default() },
        )
    }

    /// A runtime with explicit [`RuntimeOptions`]. Panics if
    /// `trace_capacity` is not a power of two (the rings mask with a
    /// single AND), or for more than 256 virtual processors.
    pub fn with_runtime_options(n_vcpus: usize, opts: RuntimeOptions) -> Arc<Self> {
        assert!(n_vcpus >= 1, "at least one virtual processor");
        assert!(
            n_vcpus <= 256,
            "at most 256 virtual processors: flight and span records carry the vCPU in 8 bits"
        );
        claims::register();
        let stats = Arc::new(RuntimeStats::new(n_vcpus));
        let rt = Arc::new(Runtime {
            vcpus: (0..n_vcpus).map(|i| VcpuState::new(i, opts.initial_cds)).collect(),
            frank: parking_lot::Mutex::new(frank::Frank::new()),
            bulk: bulk::BulkState::new(n_vcpus, Arc::clone(&stats)),
            obs: Arc::new(ObsState::new(n_vcpus)),
            flight: Arc::new(FlightPlane::new(n_vcpus)),
            spans: Arc::new(SpanPlane::new(n_vcpus, opts.trace_capacity)),
            stats,
            pin_cpus: if opts.pin { affinity::allowed_cpus() } else { Vec::new() },
            park_only: AtomicBool::new(false),
            telemetry: parking_lot::Mutex::new(None),
            blackbox: Arc::new(blackbox::Sink::new()),
            xproc_seg: parking_lot::Mutex::new(None),
            shutdown: AtomicU8::new(0),
        });
        rt.blackbox.attach(Arc::downgrade(&rt));
        let bb_dir = opts
            .blackbox_dir
            .clone()
            .or_else(|| std::env::var_os("PPC_BLACKBOX_DIR").map(std::path::PathBuf::from));
        if bb_dir.is_some() {
            rt.blackbox.set_dir(bb_dir);
        }
        if let Some(tick) = opts.telemetry_tick {
            rt.start_telemetry(tick, opts.slo_rules);
        }
        rt
    }

    /// Start the telemetry sampler (tick period and the SLO watchdog
    /// rules; the series keeps [`telemetry::DEFAULT_SERIES_DEPTH`]
    /// ticks). Idempotent: if a sampler is already running, it is
    /// returned unchanged and the arguments are ignored. See
    /// [`telemetry::Telemetry`].
    pub fn start_telemetry(
        self: &Arc<Self>,
        tick: Duration,
        rules: Vec<telemetry::SloRule>,
    ) -> Arc<telemetry::Telemetry> {
        let mut guard = self.telemetry.lock();
        if let Some(t) = guard.as_ref() {
            return Arc::clone(t);
        }
        let t = telemetry::Telemetry::start(
            tick,
            rules,
            Arc::clone(&self.stats),
            Arc::clone(&self.obs),
            Arc::clone(&self.flight),
            Arc::downgrade(self),
            self.vcpus.len(),
        );
        *guard = Some(Arc::clone(&t));
        t
    }

    /// The telemetry plane, if the sampler has been started.
    pub fn telemetry(&self) -> Option<Arc<telemetry::Telemetry>> {
        self.telemetry.lock().clone()
    }

    /// Record the serving cross-process segment (exporter hook; see
    /// [`Runtime::serve_xproc`]).
    pub(crate) fn set_xproc_segment(&self, seg: std::sync::Weak<shm::Segment>) {
        *self.xproc_seg.lock() = Some(seg);
    }

    /// The serving cross-process segment, if any.
    pub(crate) fn xproc_segment(&self) -> Option<std::sync::Weak<shm::Segment>> {
        self.xproc_seg.lock().clone()
    }

    /// Stop and join the telemetry sampler (idempotent; also runs on
    /// drop).
    pub fn stop_telemetry(&self) {
        let t = self.telemetry.lock().take();
        if let Some(t) = t {
            t.stop();
        }
    }

    /// Change the synchronous-rendezvous wait policy. Takes effect for
    /// subsequent calls; safe to call concurrently with dispatch (the
    /// fast path reads it with one `Relaxed` load).
    pub fn set_spin_policy(&self, p: SpinPolicy) {
        self.park_only.store(p == SpinPolicy::ParkOnly, Ordering::Relaxed);
        // Propagate the paired worker-side idle spin budget to every
        // bound entry (cold path; new binds pick it up from the policy
        // directly, and ring workers and serve loops read the policy at
        // each idle wait).
        let budget = worker_idle_budget(p);
        let inner = self.frank.lock();
        for e in inner.entries.iter().flatten() {
            e.idle_spin.store(budget, Ordering::Relaxed);
        }
    }

    /// The current synchronous-rendezvous wait policy.
    pub fn spin_policy(&self) -> SpinPolicy {
        if self.park_only.load(Ordering::Relaxed) {
            SpinPolicy::ParkOnly
        } else {
            SpinPolicy::Adaptive
        }
    }

    /// Number of virtual processors.
    pub fn n_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    pub(crate) fn vcpu(&self, v: usize) -> Result<&Arc<VcpuState>, RtError> {
        self.vcpus.get(v).ok_or(RtError::BadVcpu(v))
    }

    /// Whether this runtime's threads are pinned.
    pub fn pinned(&self) -> bool {
        !self.pin_cpus.is_empty()
    }

    /// The CPU `vcpu`'s threads are pinned to; `None` when unpinned.
    pub(crate) fn cpu_of(&self, vcpu: usize) -> Option<usize> {
        self.pin_cpus.get(vcpu % self.pin_cpus.len().max(1)).copied()
    }

    /// The bulk-data state (per-vCPU region registries and buffer pools).
    pub fn bulk(&self) -> &Arc<bulk::BulkState> {
        &self.bulk
    }

    /// The latency-histogram plane (enable bit, sampling shift, merged
    /// percentile reads).
    pub fn obs(&self) -> &Arc<ObsState> {
        &self.obs
    }

    /// The flight-recorder plane (per-vCPU event rings).
    pub fn flight(&self) -> &Arc<FlightPlane> {
        &self.flight
    }

    /// The causal-tracing plane (per-vCPU span rings, tail exemplars).
    pub fn spans(&self) -> &Arc<SpanPlane> {
        &self.spans
    }

    /// Counters + histograms in Prometheus text exposition format (cold
    /// path). With the telemetry sampler running, the `ppc_rate_*`
    /// windowed gauges are appended.
    pub fn export_prometheus(&self) -> String {
        let mut out = export::prometheus(&self.stats.snapshot(), &self.obs);
        if let Some(tel) = self.telemetry() {
            out.push_str(&export::prometheus_rates(&tel));
        }
        out.push_str(&export::prometheus_transport(self.xproc_stats().as_ref()));
        out
    }

    /// Counters + histograms as a JSON document (cold path). Parse it
    /// back with [`export::Json::parse`]. With the telemetry sampler
    /// running, a `"telemetry"` member carries the windowed rates,
    /// quantiles and alert states ([`export::telemetry_json`]).
    pub fn export_json(&self) -> export::Json {
        let mut doc = export::json_snapshot(&self.stats.snapshot(), &self.obs);
        if let export::Json::Obj(fields) = &mut doc {
            if let Some(tel) = self.telemetry() {
                fields.push(("telemetry".into(), export::telemetry_json(&tel)));
            }
            fields.push(("transport".into(), export::transport_json(self.xproc_stats().as_ref())));
        }
        doc
    }

    /// The raw telemetry time-series ring as JSON (the `/series`
    /// endpoint); an empty series when the sampler isn't running.
    pub fn export_series(&self) -> export::Json {
        match self.telemetry() {
            Some(tel) => export::series_json(&tel.series(usize::MAX)),
            None => export::series_json(&[]),
        }
    }

    /// Every retained span record as a Chrome/Perfetto trace-event JSON
    /// document (cold path). Load the file in `ui.perfetto.dev` or
    /// `chrome://tracing`; parse it back with
    /// [`export::load_chrome_trace`]. Empty (but valid) with tracing
    /// disabled.
    pub fn export_trace(&self) -> String {
        export::chrome_trace(&self.spans.all_records())
    }

    /// The full diagnostics dump: final counter [`Snapshot`], per-kind
    /// latency percentiles, and every vCPU's retained flight-recorder
    /// events (oldest first). This is what a wedged stress/kill test
    /// prints before aborting, so failures come with the facility's last
    /// seconds attached.
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== ppc-rt diagnostics ===");
        let _ = writeln!(out, "stats: {}", self.stats.snapshot());
        if let Some(tel) = self.telemetry() {
            let alerts = tel.alerts();
            let _ = writeln!(
                out,
                "alerts: {} rule(s), {} firing ({} ticks sampled, tick {:?})",
                alerts.len(),
                alerts.iter().filter(|a| a.firing).count(),
                tel.ticks(),
                tel.tick(),
            );
            for a in &alerts {
                let _ = writeln!(
                    out,
                    "  [{}] {}: {:.3}{} over {:?} (threshold {}, burn \
                     {:.2}x slow / {:.2}x fast, fired {} rising edge(s))",
                    if a.firing { "FIRING" } else { "ok" },
                    a.rule.name,
                    a.measured_slow,
                    a.rule.metric.unit(),
                    a.rule.window,
                    a.rule.threshold,
                    a.measured_slow / a.rule.threshold.max(f64::MIN_POSITIVE),
                    a.measured_fast / a.rule.threshold.max(f64::MIN_POSITIVE),
                    a.fired,
                );
            }
        }
        for kind in obs::KINDS {
            let h = self.obs.merged(kind);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "latency[{}]: n={} p50={} p90={} p99={} max={} (ns, sampled 1/{})",
                kind.label(),
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max_ns,
                1u64 << self.obs.sample_shift(),
            );
        }
        for v in 0..self.flight.n_vcpus() {
            let events = self.flight.snapshot(v);
            let _ = writeln!(
                out,
                "vcpu {v}: {} flight events retained ({} recorded)",
                events.len(),
                self.flight.recorded(v),
            );
            for ev in events {
                let _ = writeln!(out, "  {ev}");
            }
        }
        let mut any_exemplar = false;
        for v in 0..self.spans.n_vcpus() {
            for ex in self.spans.exemplars(v) {
                if !any_exemplar {
                    let _ = writeln!(
                        out,
                        "slowest recent calls ({} promoted, > {}x entry EWMA):",
                        self.spans.promoted(),
                        span::EXEMPLAR_FACTOR,
                    );
                    any_exemplar = true;
                }
                let _ = writeln!(out, "  {}", ex.summary());
                for s in &ex.spans {
                    let _ = writeln!(out, "    {s}");
                }
            }
        }
        let _ = writeln!(out, "=== end diagnostics ===");
        out
    }

    /// Print [`Runtime::diagnostics`] to stderr (failure-path hook for
    /// watchdogs and panic containment).
    pub fn dump_diagnostics(&self) {
        eprintln!("{}", self.diagnostics());
    }

    /// The postmortem black-box document for this runtime (see
    /// [`blackbox::capture`]): counters, histograms, per-vCPU occupancy,
    /// interference tally, telemetry windows + tick series, flight
    /// events, and span exemplars, under one schema-versioned object.
    pub fn blackbox_json(&self, reason: &str) -> export::Json {
        blackbox::capture(self, reason)
    }

    /// Write the black-box document for `reason` to `path`,
    /// unconditionally (no rate limit, no directory configuration
    /// needed) — the hook for gate failures and explicit captures.
    pub fn write_blackbox(
        &self,
        reason: &str,
        path: &std::path::Path,
    ) -> std::io::Result<()> {
        let mut text = self.blackbox_json(reason).to_string();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Configure (or clear) the automatic-capture directory at runtime.
    /// Equivalent to [`RuntimeOptions::blackbox_dir`] / the
    /// `PPC_BLACKBOX_DIR` environment variable, but switchable live.
    pub fn set_blackbox_dir(&self, dir: Option<std::path::PathBuf>) {
        self.blackbox.set_dir(dir);
    }

    /// The capture sink (automatic-capture state: directory, count).
    pub fn blackbox(&self) -> &Arc<blackbox::Sink> {
        &self.blackbox
    }

    /// Automatic capture hook: rate-limited, a no-op unless a capture
    /// directory is configured. Returns the artifact path when one was
    /// written. Failure paths call this — it must never panic or block
    /// on anything hot.
    pub fn blackbox_event(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.blackbox.event(reason)
    }

    /// A client bound to vCPU `vcpu` with program identity `program`.
    /// Calls made through the client use that vCPU's pools, mirroring
    /// "requests are always handled on the same processor as the client".
    pub fn client(self: &Arc<Self>, vcpu: usize, program: ProgramId) -> Client {
        assert!(vcpu < self.vcpus.len(), "vcpu {vcpu} out of range");
        Client { rt: Arc::clone(self), vcpu, program }
    }
}

/// A client handle: the caller's (vCPU, program) identity.
#[derive(Clone)]
pub struct Client {
    rt: Arc<Runtime>,
    /// The vCPU this client runs on.
    pub vcpu: usize,
    /// The client's program identity.
    pub program: ProgramId,
}

impl Client {
    /// The runtime this client belongs to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Synchronous PPC: 8 words in, 8 words out, hand-off to a worker on
    /// this client's vCPU. No locks, no shared queues.
    pub fn call(&self, ep: EntryId, args: [u64; 8]) -> Result<[u64; 8], RtError> {
        self.rt.dispatch(self.vcpu, ep, args, self.program, None).map(|(rets, _)| rets)
    }

    /// Asynchronous PPC (§4.4): the caller continues immediately; the
    /// result can be awaited (or dropped, as the paper's prefetch does).
    pub fn call_async(&self, ep: EntryId, args: [u64; 8]) -> Result<AsyncCall, RtError> {
        self.rt.dispatch_async(self.vcpu, ep, args, self.program)
    }

    /// Synchronous PPC with a bulk payload (§4.2's CopyFrom/CopyTo rolled
    /// into the call): up to 4 KB of request data travels in the call
    /// slot's scratch page, the handler rewrites it in place, and the
    /// first `rets[7]` bytes come back as the response payload. Panics if
    /// `payload` exceeds the scratch page.
    ///
    /// This is the **memcpy-through-slot** path: the payload is copied
    /// into the slot, and the response copied back out. For transfers
    /// where the copies matter, use a registered region and
    /// [`Client::call_bulk`] instead.
    pub fn call_with_payload(
        &self,
        ep: EntryId,
        args: [u64; 8],
        payload: &[u8],
    ) -> Result<([u64; 8], Vec<u8>), RtError> {
        self.rt
            .dispatch(self.vcpu, ep, args, self.program, Some(payload))
            .map(|(rets, response)| (rets, response.unwrap_or_default()))
    }

    /// Synchronous PPC carrying a bulk-region descriptor: `desc` is
    /// packed into `args[7]` and rides the ordinary 8-word frame, so
    /// every dispatch mode (inline, spin-then-park, park) works
    /// unchanged and nothing is copied at dispatch time. The handler
    /// recovers the descriptor with [`CallCtx::bulk_desc`] and accesses
    /// the granted span through [`CallCtx::copy_from`] /
    /// [`CallCtx::copy_to`] / [`CallCtx::with_bulk_mut`].
    ///
    /// The warm path performs no lock acquisitions and no allocations on
    /// top of [`Client::call`]'s — encoding a descriptor is pure bit
    /// packing. A descriptor whose fields exceed the word's bit budget
    /// is rejected with [`RtError::BadBulk`] up front (it could not be
    /// transmitted faithfully).
    pub fn call_bulk(
        &self,
        ep: EntryId,
        mut args: [u64; 8],
        desc: BulkDesc,
    ) -> Result<[u64; 8], RtError> {
        args[7] = desc.encode().ok_or(RtError::BadBulk)?;
        let r = self.call(ep, args)?;
        self.rt.stats.cell(self.vcpu).bulk_calls.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    }

    /// Register a `len`-byte shared region backed by this vCPU's buffer
    /// pool (lock-free pool hit when warm; a counted Frank allocation
    /// otherwise). The region is owned by this client's program; grant
    /// entry points access with [`BulkRegion::grant`], then pass
    /// descriptors to [`Client::call_bulk`]. Dropping the handle revokes
    /// everything and recycles the buffer.
    ///
    /// Errors with [`RtError::BadBulk`] when `len` exceeds [`MAX_BULK`],
    /// or [`RtError::TableFull`] when this vCPU's [`MAX_REGIONS`] region
    /// slots are all taken.
    pub fn bulk_register(&self, len: usize) -> Result<BulkRegion, RtError> {
        let bulk = self.rt.bulk();
        let mut buf = bulk
            .pool(self.vcpu)
            .take(len, self.rt.stats.cell(self.vcpu))
            .ok_or(RtError::BadBulk)?;
        // A buffer recycled from another program (or dirtied outside the
        // region machinery) is scrubbed here, so a new region can never
        // read a previous tenant's payload bytes across the program
        // boundary the grant model enforces.
        buf.bind_owner(self.program);
        let id = bulk.registry(self.vcpu).register(buf, len, self.program)?;
        Ok(BulkRegion {
            rt: Arc::clone(&self.rt),
            vcpu: self.vcpu,
            program: self.program,
            id,
            len,
        })
    }
}

/// A registered shared region: the client-side handle to one entry in
/// its vCPU's region registry. The owner fills and drains it in place
/// ([`BulkRegion::fill`], [`BulkRegion::read_into`],
/// [`BulkRegion::with_bytes`]), grants servers access, and mints
/// descriptors for [`Client::call_bulk`]. Dropped ⇒ unregistered, buffer
/// recycled to the vCPU pool (after in-flight transfers drain).
pub struct BulkRegion {
    rt: Arc<Runtime>,
    vcpu: usize,
    program: ProgramId,
    id: RegionId,
    len: usize,
}

impl BulkRegion {
    /// The region's ID within its vCPU registry.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A descriptor for `[offset, offset + len)`; `write` lets the
    /// server modify the span (still subject to its grant).
    pub fn desc(&self, offset: u32, len: u32, write: bool) -> BulkDesc {
        BulkDesc { region: self.id, offset, len, write }
    }

    /// A descriptor covering the whole region.
    pub fn full_desc(&self, write: bool) -> BulkDesc {
        self.desc(0, self.len as u32, write)
    }

    /// Grant entry `ep` access (write access if `write`), bound to the
    /// program owning `ep` right now — `ppc-core`'s grant semantics: a
    /// later re-bind of the same entry ID under a different owner does
    /// not inherit the grant. Cold path.
    pub fn grant(&self, ep: EntryId, write: bool) -> Result<(), RtError> {
        self.rt.grant_region(self.vcpu, self.id, self.program, ep, write)
    }

    /// Revoke every grant to `ep`. Blocks until in-flight transfers
    /// drain; once this returns, no transfer under the revoked grant can
    /// report success. Returns the number of grants removed. Calling
    /// this from a thread holding an in-flight access to the region
    /// (e.g. inside a `with_*` closure) returns
    /// [`RtError::BulkReentrant`] instead of deadlocking.
    pub fn revoke(&self, ep: EntryId) -> Result<usize, RtError> {
        self.rt.bulk().registry(self.vcpu).revoke(self.id, self.program, ep)
    }

    /// Owner access: run `f` over `[offset, offset+len)` of the region.
    /// A `write` access excludes every concurrent access to the region
    /// (in-place mutation must never alias another access); a read
    /// access shares with other reads.
    fn with_span<R>(
        &self,
        offset: u32,
        len: u32,
        write: bool,
        f: impl FnOnce(*mut u8, usize) -> R,
    ) -> Result<R, RtError> {
        let desc = self.desc(offset, len, write);
        let acc = self.rt.bulk().registry(self.vcpu).begin(
            desc, 0, self.program, self.program, write, true,
        )?;
        let r = f(acc.ptr, acc.len);
        acc.finish()?;
        Ok(r)
    }

    /// Owner write: copy `data` into the region at `offset` (the fill
    /// before a call). Lock-free; uses the vectored copy engine. Holds
    /// the region exclusively while the copy runs — a concurrent
    /// server-side access to the same region waits.
    pub fn fill(&self, offset: u32, data: &[u8]) -> Result<(), RtError> {
        let _span = self.rt.spans.leaf_scope(self.vcpu, 0, SpanPhase::BulkCopy);
        let t0 = self.rt.obs.try_sample().then(std::time::Instant::now);
        let r = self.with_span(offset, data.len() as u32, true, |ptr, n| {
            // Safety: span validated by the registry, held exclusively;
            // `data` cannot alias registry memory.
            unsafe { bulk::copy_span(ptr, data.as_ptr(), n) };
        });
        if let Some(t0) = t0 {
            self.rt.obs.record(obs::LatencyKind::BulkCopy, self.vcpu, t0.elapsed().as_nanos() as u64);
        }
        r
    }

    /// Owner read: copy `[offset, offset+dst.len())` out of the region
    /// (the drain after a call). A shared read access — concurrent reads
    /// of the region proceed in parallel.
    pub fn read_into(&self, offset: u32, dst: &mut [u8]) -> Result<(), RtError> {
        let _span = self.rt.spans.leaf_scope(self.vcpu, 0, SpanPhase::BulkCopy);
        let t0 = self.rt.obs.try_sample().then(std::time::Instant::now);
        let r = self.with_span(offset, dst.len() as u32, false, |ptr, n| {
            // Safety: as in `fill`, directions reversed; writers are
            // excluded while this read access is announced.
            unsafe { bulk::copy_span(dst.as_mut_ptr(), ptr, n) };
        });
        if let Some(t0) = t0 {
            self.rt.obs.record(obs::LatencyKind::BulkCopy, self.vcpu, t0.elapsed().as_nanos() as u64);
        }
        r
    }

    /// Owner zero-copy access: run `f` over the whole region in place.
    ///
    /// The access is **exclusive** while `f` runs: concurrent accesses
    /// to the region (e.g. a handler's [`CallCtx::with_bulk_mut`] from
    /// an async call) wait, and any bulk operation on the same region
    /// from inside `f` — including dropping the region — returns
    /// [`RtError::BulkReentrant`]. Keep `f` short; it stalls the
    /// region's grant/revoke traffic for its duration.
    pub fn with_bytes<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> Result<R, RtError> {
        self.with_span(0, self.len as u32, true, |ptr, n| {
            // Safety: owner-validated span, held exclusively and kept
            // mapped by the access announcement for the closure's
            // duration — no other &mut (or &) view of these bytes can
            // exist concurrently.
            f(unsafe { std::slice::from_raw_parts_mut(ptr, n) })
        })
    }
}

impl Drop for BulkRegion {
    fn drop(&mut self) {
        // Unregister drains in-flight transfers, then the buffer goes
        // back to this vCPU's pool for the next region.
        if let Ok(buf) = self.rt.bulk().registry(self.vcpu).unregister(self.id, self.program) {
            self.rt.bulk().pool(self.vcpu).put(buf);
        }
    }
}

/// A pending asynchronous call: its result is in the worker's own slot.
pub struct AsyncCall {
    pub(crate) worker: Arc<WorkerHandle>,
    pub(crate) vcpu: Arc<VcpuState>,
    pub(crate) ep: EntryId,
    /// Whether the spin policy at dispatch let a waiter spin.
    pub(crate) adaptive: bool,
    /// The async span, if the dispatch was traced; closed when the
    /// completion is observed (first of [`AsyncCall::wait`] / drop) —
    /// the span covers dispatch → completion-observed, the async
    /// analogue of the sync call span.
    pub(crate) trace: std::cell::Cell<Option<span::SpanToken>>,
    pub(crate) spans: Arc<SpanPlane>,
}

impl AsyncCall {
    fn finish_trace(&self) {
        if let Some(tok) = self.trace.take() {
            self.spans.end_token(tok, None);
        }
    }

    /// Block until the worker completes and return the result words: the
    /// sync caller's wait arriving late, minus a worker to donate to.
    pub fn wait(&self) -> [u64; 8] {
        self.vcpu.wait_done(&self.worker, self.adaptive, false, false);
        self.finish_trace();
        self.worker.slot.read_rets()
    }

    /// Non-blocking completion check.
    pub fn is_done(&self) -> bool {
        self.worker.slot.is_done()
    }

    /// The entry point this call targets.
    pub fn entry(&self) -> EntryId {
        self.ep
    }
}

impl Drop for AsyncCall {
    fn drop(&mut self) {
        // Hand the slot back once the worker is done; it pools itself.
        self.vcpu.wait_done(&self.worker, self.adaptive, false, false);
        self.finish_trace();
        self.worker.hand_back();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown.store(1, Ordering::SeqCst);
        // Stop and join the telemetry sampler before tearing down the
        // planes it reads.
        let tel = self.telemetry.lock().take();
        if let Some(t) = tel {
            t.stop();
        }
        // Reap every live entry: signal workers and join them, then let
        // the registry drop the shared state.
        let entries: Vec<Arc<EntryShared>> =
            self.frank.lock().entries.iter().flatten().cloned().collect();
        for e in &entries {
            e.state.store(EntryState::Dead as u8, Ordering::SeqCst);
            e.reap_workers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_and_echo() {
        let rt = Runtime::new(1);
        let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|ctx| ctx.args)).unwrap();
        let c = rt.client(0, 7);
        assert_eq!(c.call(ep, [9; 8]).unwrap(), [9; 8]);
        assert_eq!(rt.stats.calls(), 1);
    }

    #[test]
    fn unknown_entry_rejected() {
        let rt = Runtime::new(1);
        let c = rt.client(0, 7);
        assert_eq!(c.call(5, [0; 8]), Err(RtError::UnknownEntry(5)));
        assert_eq!(c.call(MAX_ENTRIES + 1, [0; 8]), Err(RtError::UnknownEntry(MAX_ENTRIES + 1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_vcpu_client_panics() {
        let rt = Runtime::new(1);
        let _ = rt.client(3, 1);
    }

    /// vCPU 256 would pack as vCPU 0 and write vCPU 0's rings.
    #[test]
    #[should_panic(expected = "at most 256 virtual processors")]
    fn more_vcpus_than_records_can_name_panics() {
        let _ = Runtime::new(257);
    }
}
