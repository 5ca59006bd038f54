//! Entry points: per-entry lifecycle state and handler retirement.
//!
//! The cold-path mutations themselves (bind, kill, exchange, reclaim) live
//! in [`crate::frank`]; this module owns the data those operations act on.
//! A call writes nothing here: in-flight calls are the claims (`claims`),
//! and completed ones are counted once, on the vCPU's stats cell
//! ([`crate::stats`]).
//!
//! **The limbo slot**: an exchange swaps the handler pointer, then
//! snapshots the claims on the entry — the only calls that can still run
//! the old handler — and parks the old box beside that snapshot. The next
//! exchange waits for it to drain and frees the box, so limbo never holds
//! more than one handler no matter how many exchanges run, and no
//! exchange waits for the calls running when it returns.

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::claims::{self, Snapshot, NOBODY};
use crate::flight::FlightKind;
use crate::obs::LatencyKind;
use crate::slot::CallSlot;
use crate::worker::{WorkerHandle, WorkerPool};
use crate::{CallCtx, EntryId, Handler, ProgramId, ScratchRef};

/// Entry lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryState {
    /// Accepting calls.
    Active = 0,
    /// Draining: new calls rejected, in-progress calls complete (§4.5.2).
    SoftKilled = 1,
    /// Dead: resources reaped; in-progress calls were aborted.
    Dead = 2,
}

impl EntryState {
    fn from_u8(v: u8) -> EntryState {
        match v {
            0 => EntryState::Active,
            1 => EntryState::SoftKilled,
            _ => EntryState::Dead,
        }
    }
}

/// Options for a bound entry point.
#[derive(Clone, Copy, Debug)]
pub struct EntryOptions {
    /// Synchronous calls may run the handler *inline on the caller's
    /// thread* — the logical conclusion of hand-off scheduling: when the
    /// worker would run on the caller's processor anyway, skip the worker
    /// entirely (no slot hand-off, no park/unpark). Borrow a CD for the scratch
    /// page, run, return. The trade-offs a service opts into:
    /// per-worker state is bypassed (worker-initialization overrides are
    /// ignored and [`crate::CallCtx::set_worker_handler`] is a no-op on
    /// inline calls), and a faulting handler unwinds on the caller's
    /// thread (still contained to [`crate::RtError::ServerFault`]).
    /// Asynchronous calls and upcalls to the entry still hand off. A ring
    /// worker or segment serve thread runs every entry this way, flag or not.
    pub inline_ok: bool,
    /// Workers pre-spawned per vCPU at bind time.
    pub initial_workers: usize,
    /// Owning program (may kill/exchange; 0 = anyone).
    pub owner: ProgramId,
    /// Bind at this specific entry ID.
    pub want_ep: Option<EntryId>,
}

impl Default for EntryOptions {
    fn default() -> Self {
        EntryOptions {
            inline_ok: false,
            initial_workers: 1,
            owner: 0,
            want_ep: None,
        }
    }
}

/// What [`EntryShared::run_handler`] hands back to its transport.
pub(crate) struct HandlerRun {
    /// The handler's result words ([`crate::slot::ABORT_RETS`] when it
    /// panicked).
    pub(crate) rets: [u64; 8],
    /// The handler panicked; the fault was contained.
    pub(crate) faulted: bool,
    /// The CD behind a [`ScratchRef::Lazy`] scratch page — the inline
    /// path's payload CD, or one the handler borrowed on first use — for
    /// the caller to repool.
    pub(crate) lazy: Option<Box<CallSlot>>,
    /// When `sampled`, the run time scaled by the sample period: the
    /// estimate for the unsampled runs it stands for, which read no clock.
    pub(crate) est_ns: Option<u64>,
}

/// Shared state of one bound entry point.
pub struct EntryShared {
    /// Entry ID.
    pub id: EntryId,
    /// Diagnostic name.
    pub name: String,
    /// Options.
    pub opts: EntryOptions,
    /// Lifecycle state (`EntryState` as u8).
    pub state: AtomicU8,
    /// Points into `installed`'s handler: what a call borrows.
    handler_ptr: AtomicPtr<Handler>,
    /// The installed handler. Its lock serializes exchanges (and
    /// opportunistic limbo drains); deliberately *not* the Frank lock —
    /// the wait inside an exchange must not block unrelated binds.
    installed: Mutex<Arc<Handler>>,
    /// The handler the last exchange retired, with the claims that could
    /// still run it; freed once they drain.
    limbo: Mutex<Option<(Snapshot, Arc<Handler>)>>,
    /// Self-reference, set at construction ([`Arc::new_cyclic`]). The
    /// grow-on-demand path upgrades this instead of scanning a registry
    /// under a lock, and tests observe entry reclamation through
    /// downgraded copies of it.
    weak_self: Weak<EntryShared>,
    /// Worker-side idle spin budget (on its slot) before an idle worker parks
    /// (0 = park immediately). Mirrors the runtime's [`crate::SpinPolicy`]
    /// so the rendezvous is spin-paired on both sides; updated by
    /// [`crate::Runtime::set_spin_policy`] through Frank.
    pub(crate) idle_spin: AtomicU32,
    /// The runtime's payload plane, shared in at bind so handlers reach
    /// region registries and buffer pools from [`crate::CallCtx`] without
    /// a back reference to the [`crate::Runtime`].
    pub(crate) bulk: Arc<crate::bulk::BulkState>,
    /// The latency-histogram plane, shared in at bind for the same
    /// no-back-reference reason (workers time handler runs, the bulk
    /// accessors time copies).
    pub(crate) obs: Arc<crate::obs::ObsState>,
    /// The flight-recorder plane, shared in at bind (workers record
    /// contained faults; kill paths record on the entry).
    pub(crate) flight: Arc<crate::flight::FlightPlane>,
    /// The facility counters, shared in at bind so the contained-fault
    /// dump can attach the last [`crate::Snapshot`] from the worker
    /// thread (which has no back reference to the [`crate::Runtime`]).
    pub(crate) stats: Arc<crate::stats::RuntimeStats>,
    /// The tracing plane, shared in at bind (workers open handler spans
    /// under the propagated context; dispatch opens call spans).
    pub(crate) spans: Arc<crate::span::SpanPlane>,
    /// The postmortem capture sink, shared in at bind so the contained-
    /// fault path can write a black-box artifact from the worker thread
    /// (same no-back-reference pattern as `stats`).
    pub(crate) blackbox: Arc<crate::blackbox::Sink>,
    /// EWMA of this entry's traced root-call latency (ns; 0 = unseeded)
    /// — the tail-exemplar promotion baseline. Only traced roots feed
    /// it, so the cell costs nothing untraced. Padded: every vCPU's
    /// sampled roots store here, off the words every call reads.
    pub(crate) trace_ewma_ns: CachePadded<AtomicU64>,
    pools: Vec<WorkerPool>,
}

impl EntryShared {
    #[allow(clippy::too_many_arguments)] // internal ctor mirroring the field list
    pub(crate) fn new_arc(
        id: EntryId,
        name: &str,
        opts: EntryOptions,
        handler: Handler,
        n_vcpus: usize,
        idle_spin: u32,
        bulk: Arc<crate::bulk::BulkState>,
        obs: Arc<crate::obs::ObsState>,
        flight: Arc<crate::flight::FlightPlane>,
        stats: Arc<crate::stats::RuntimeStats>,
        spans: Arc<crate::span::SpanPlane>,
        blackbox: Arc<crate::blackbox::Sink>,
    ) -> Arc<Self> {
        let handler = Arc::new(handler);
        Arc::new_cyclic(|weak| EntryShared {
            id,
            name: name.to_string(),
            opts,
            state: AtomicU8::new(EntryState::Active as u8),
            handler_ptr: AtomicPtr::new(Arc::as_ptr(&handler).cast_mut()),
            installed: Mutex::new(handler),
            limbo: Mutex::new(None),
            weak_self: weak.clone(),
            idle_spin: AtomicU32::new(idle_spin),
            bulk,
            obs,
            flight,
            stats,
            spans,
            blackbox,
            trace_ewma_ns: CachePadded::new(AtomicU64::new(0)),
            pools: (0..n_vcpus).map(|_| WorkerPool::new()).collect(),
        })
    }

    /// Upgrade the self-reference (grow-on-demand path). Cannot fail
    /// while a claim on this entry is held — a claim blocks reclamation.
    pub(crate) fn strong(&self) -> Option<Arc<EntryShared>> {
        self.weak_self.upgrade()
    }

    /// Contained-fault diagnostics: the last counter snapshot plus the
    /// faulting vCPU's retained flight events, to stderr. Cold by
    /// construction — only runs after a handler panic was caught, so the
    /// dump can never tax a healthy fast path.
    pub(crate) fn dump_fault(&self, vcpu: usize) {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== contained fault: entry {} ({:?}) on vcpu {vcpu} ===",
            self.id, self.name
        );
        let _ = writeln!(out, "stats: {}", self.stats.snapshot());
        for ev in self.flight.snapshot(vcpu) {
            let _ = writeln!(out, "  {ev}");
        }
        let _ = writeln!(out, "=== end fault dump ===");
        eprint!("{out}");
    }

    /// The one place a handler runs: hand-off workers, the inline path
    /// and both rings' workers all enter here, so the handler span, the
    /// sampled [`LatencyKind::Handler`] record and fault containment are
    /// identical on every transport. The caller holds a claim on this
    /// entry; `scratch` is the page the handler sees (a ready page, or
    /// the inline path's lazy CD borrow), `worker` the hand-off worker
    /// the handler may re-initialise, `over` that worker's installed
    /// override (§4.5.3), which replaces the entry's handler, and
    /// `trace_word` the propagated context the handler span (and
    /// anything the handler calls) parents under.
    ///
    /// A panicking handler unwinds to here, not through the caller's
    /// frames. Contained faults are rare: always in the flight ring,
    /// always dumped — a panic that something upstream swallows still
    /// leaves its context on stderr — and frozen into a black-box
    /// artifact (rate-limited; a no-op without a capture directory).
    ///
    /// Forced inline: each run site then hands the result frame straight
    /// to its completion; called out of line, the `HandlerRun` round trip
    /// through memory measured 4–9 % off `ring_d16` `ops_per_s`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // the call frame, field by field
    pub(crate) fn run_handler<'a>(
        &'a self,
        vcpu: usize,
        args: [u64; 8],
        program: ProgramId,
        trace_word: u64,
        scratch: ScratchRef<'a>,
        worker: Option<&'a WorkerHandle>,
        over: Option<&Handler>,
        sampled: bool,
    ) -> HandlerRun {
        // Borrowed, not cloned: a clone writes the refcount line every
        // caller of the entry shares.
        // SAFETY: `installed` keeps the handler alive; a retired one is
        // freed only once the claims its exchange snapshotted drain
        // (`swap_handler`), a claim taken later loads the new pointer,
        // and a claim outlives the run on every transport — the inline
        // caller's `Claim`, a sync hand-off's client until `DONE`, an
        // async worker's own claim from pickup, `Runtime::execute`'s
        // `Claim` for both rings and the segment slot.
        let handler = over.unwrap_or_else(|| unsafe { &*self.handler_ptr.load(Ordering::SeqCst) });
        let t0 = sampled.then(Instant::now);
        let span = self.spans.handler_scope(trace_word, vcpu, self.id);
        let mut ctx = CallCtx {
            args,
            caller_program: program,
            vcpu,
            ep: self.id,
            scratch,
            worker,
            entry: self,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&mut ctx)));
        drop(span); // the handler span ends here, even on a panic
        let ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
        if let Some(ns) = ns {
            self.obs.record(LatencyKind::Handler, vcpu, ns);
        }
        let faulted = result.is_err();
        if faulted {
            self.flight.record(vcpu, FlightKind::Fault, self.id, program);
            self.dump_fault(vcpu);
            self.blackbox.event("handler-panic");
        }
        let rets = result.unwrap_or(crate::slot::ABORT_RETS);
        let lazy = if let ScratchRef::Lazy { slot, .. } = ctx.scratch { slot } else { None };
        HandlerRun { rets, faulted, lazy, est_ns: ns.map(|ns| ns << self.obs.sample_shift()) }
    }

    /// Current lifecycle state.
    pub fn entry_state(&self) -> EntryState {
        EntryState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// The worker pool on `vcpu`.
    pub fn pool(&self, vcpu: usize) -> &WorkerPool {
        &self.pools[vcpu]
    }

    /// Whether an async call handed to one of this entry's workers is
    /// still `POSTED` (a kill drain counts it as a held claim).
    pub(crate) fn async_posted(&self) -> bool {
        self.pools.iter().any(WorkerPool::async_posted)
    }

    /// Replace the handler (Exchange, §4.5.2) and clear worker overrides
    /// so initialization reruns against the new code. Returns the number
    /// of previously retired handlers freed by this exchange (0 or 1).
    ///
    /// Protocol (serialized by `installed`): wait for the claims the previous
    /// exchange snapshotted and free its retiree, swap the new handler
    /// in, then snapshot the claims on this entry (`claims::snapshot`:
    /// the barrier, then the scan) and park the old box beside them. A
    /// claim the scan missed took its frame after the barrier, so it loads
    /// the new pointer. The wait is for calls that were running one
    /// exchange ago, never for the ones running now, and limbo holds at
    /// most one box.
    ///
    /// Must not be called from one of this entry's own handlers — the
    /// wait can be for the caller's own claim (same restriction as
    /// `wait_drained`/`hard_kill`).
    pub fn swap_handler(&self, h: Handler) -> u64 {
        let mut installed = self.installed.lock();
        let prev = self.limbo.lock().take();
        let freed = prev.map_or(0, |(snap, _old)| {
            snap.wait();
            1
        });
        let new = Arc::new(h);
        self.handler_ptr.store(Arc::as_ptr(&new).cast_mut(), Ordering::SeqCst);
        let old = std::mem::replace(&mut *installed, new);
        let snap = claims::snapshot(self);
        *self.limbo.lock() = Some((snap, old));
        let cold = self.stats.cell(0);
        cold.add(NOBODY, |c| &c.handlers_retired, 1);
        cold.add(NOBODY, |c| &c.handlers_freed, freed);
        if freed > 0 {
            self.flight.record(0, crate::flight::FlightKind::Retire, self.id, freed as u32);
        }
        for p in &self.pools {
            p.for_each_worker(|w| w.set_override(None));
        }
        freed
    }

    /// Opportunistically free the retired handler if its claims have
    /// drained (Frank maintenance; also the final drain a reclaim
    /// performs once the entry is fully drained). Returns how many were
    /// freed.
    pub(crate) fn try_drain_limbo(&self) -> u64 {
        let Some(_x) = self.installed.try_lock() else { return 0 };
        let mut limbo = self.limbo.lock();
        if !limbo.as_mut().is_some_and(|(snap, _)| snap.drained()) {
            return 0;
        }
        *limbo = None;
        self.stats.cell(0).add(NOBODY, |c| &c.handlers_freed, 1);
        self.flight.record(0, crate::flight::FlightKind::Retire, self.id, 1);
        1
    }

    /// Retired-but-not-yet-freed handlers (diagnostics; the exchange
    /// regression test asserts this stays bounded).
    pub fn limbo_len(&self) -> usize {
        usize::from(self.limbo.lock().is_some())
    }

    /// Shut down and join every worker (called off the worker threads).
    pub fn reap_workers(&self) {
        for p in &self.pools {
            p.reap();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::worker::tests::{apart, pairs};

    /// The inline path's private writes and shared reads, by line pair:
    /// each thread's claim cell owns a pair, so do each vCPU's
    /// histograms, and the entry words every call reads
    /// (`state`, `handler_ptr`) keep off the pair every vCPU's sampled
    /// roots store to (`trace_ewma_ns`). Fails when one of them moves
    /// onto a pair another vCPU or thread writes.
    #[test]
    fn per_vcpu_words_keep_to_their_lines() {
        let rt = crate::Runtime::new(3);
        let opts = crate::EntryOptions { initial_workers: 0, ..Default::default() };
        let ep = rt.bind("layout", opts, std::sync::Arc::new(|c| c.args)).unwrap();
        let e = rt.frank_entry(ep).unwrap();
        // Two threads holding a claim at once: two cells.
        let both = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let cell = || {
                let _c = rt.claim(0, ep).unwrap();
                both.wait();
                pairs(crate::claims::my_cell())
            };
            let t = [s.spawn(cell), s.spawn(cell)];
            t.map(|t| t.join().unwrap())
        });
        assert!(apart(&a, &b), "claim cells {a:?} and {b:?} share a line pair");
        assert_eq!(std::mem::align_of::<crate::obs::HistCell>(), 128, "histogram cells");
        let ewma = pairs(&*e.trace_ewma_ns);
        for read in [pairs(&e.state), pairs(&e.handler_ptr)] {
            assert!(apart(&read, &ewma), "a per-call read {read:?} shares `trace_ewma_ns`'s pair");
        }
    }
}
