//! Entry points: per-entry lifecycle state, sharded in-flight accounting,
//! and the era-parity handler-retirement protocol.
//!
//! The cold-path mutations themselves (bind, kill, exchange, reclaim) live
//! in [`crate::frank`]; this module owns the data those operations act on:
//!
//! * **Per-vCPU lifecycle cells** (`LifeCell`): every in-flight claim and
//!   every completion is counted on the calling vCPU's own cache line, so
//!   the hot path never writes a line another vCPU's hot path also writes.
//!   Kill/drain paths *sum* the shards — the same aggregate-on-read
//!   discipline as the stats plane.
//! * **Era-parity claims**: the entry carries an `era` counter, bumped by
//!   each handler exchange. A claim counts itself under the era's parity
//!   and re-validates the era afterwards, so "every call that can still
//!   observe the previous handler" is exactly "the claims counted under
//!   the previous parity" — a directly observable drain condition, even
//!   under continuous new traffic.
//! * **The limbo list**: a replaced handler is quarantined tagged with the
//!   era it was retired under, and freed once that era's parity drains —
//!   which [`EntryShared::swap_handler`] forces before installing the next
//!   handler, so the list never holds more than about one handler no
//!   matter how many exchanges run (the fix for the old unbounded
//!   graveyard).

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

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
    /// Asynchronous calls and upcalls to the entry still hand off.
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
    /// The handler's run time, when `sampled`.
    pub(crate) ns: Option<u64>,
}

/// One vCPU's lifecycle shard for one entry: in-flight claims split by
/// era parity, plus the completion count, on a line pair of its own (the
/// unit the adjacent-line prefetcher moves): the hot path's claim, finish
/// and completion writes land here and nowhere another vCPU writes.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct LifeCell {
    /// In-flight claims, indexed by the parity of the era they were
    /// validated under (see [`EntryShared::claim`]).
    active: [AtomicU64; 2],
    /// Calls completed on this vCPU (sync, async, and upcall alike).
    completed: AtomicU64,
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
    /// Handler-exchange era. Bumped (under `xlock`) by every
    /// [`EntryShared::swap_handler`]; claims re-validate against it so
    /// each in-flight call is attributed to exactly one era's parity.
    /// The hot path only *reads* this line — it stays shared in every
    /// vCPU's cache and transfers only on an exchange (a cold path).
    era: AtomicU64,
    /// Per-vCPU lifecycle shards (claims + completions).
    life: Box<[LifeCell]>,
    handler_ptr: AtomicPtr<Handler>,
    /// Retired handlers, tagged with the era they were retired under.
    /// A tag-`t` handler can only be referenced by claims validated at
    /// era `t` (counted under parity `t & 1`): once that parity drains
    /// the box is freed. `swap_handler` forces the drain before every
    /// install, so the list holds at most ~one handler in steady state.
    #[allow(clippy::vec_box)]
    limbo: Mutex<Vec<(u64, Box<Handler>)>>,
    /// Serializes handler exchanges (and opportunistic limbo drains):
    /// the era-parity argument needs at most two live eras at any time.
    /// Deliberately *not* the Frank lock — the quiesce wait inside an
    /// exchange must not block unrelated binds.
    xlock: Mutex<()>,
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
        Arc::new_cyclic(|weak| EntryShared {
            id,
            name: name.to_string(),
            opts,
            state: AtomicU8::new(EntryState::Active as u8),
            era: AtomicU64::new(0),
            life: (0..n_vcpus).map(|_| LifeCell::default()).collect(),
            handler_ptr: AtomicPtr::new(Box::into_raw(Box::new(handler))),
            limbo: Mutex::new(Vec::new()),
            xlock: Mutex::new(()),
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
        // SAFETY: the box is freed only once this claim's era parity
        // drains (`swap_handler`), and the claim outlives the run on every
        // transport — the inline caller's `Claim`, a sync hand-off's
        // client until `DONE`, an async worker until its `finish_call`,
        // `ring_execute`'s `Claim` for both rings.
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
        HandlerRun { rets, faulted, lazy: ctx.take_lazy_slot(), ns }
    }

    /// Current lifecycle state.
    pub fn entry_state(&self) -> EntryState {
        EntryState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// The worker pool on `vcpu`.
    pub fn pool(&self, vcpu: usize) -> &WorkerPool {
        &self.pools[vcpu]
    }

    /// Claim an in-flight call slot on `vcpu`; returns the era parity the
    /// claim was counted under (pass it to [`EntryShared::finish_call`]).
    ///
    /// The loop re-validates the era *after* the increment: if an
    /// exchange flipped the era in between, the claim backs out and
    /// retries under the new parity. In the sequentially-consistent total
    /// order this guarantees that any claim whose later handler load in
    /// `run_handler` can still observe a pre-swap handler is counted
    /// under the pre-swap parity — which the swap drains before freeing
    /// that handler, and the claim is held until the run returns. All
    /// three operations touch this vCPU's own [`LifeCell`] line plus a
    /// read-only load of the shared era word; a `SeqCst` RMW costs the
    /// same as the `AcqRel` it replaces on x86/ARM.
    #[inline]
    pub(crate) fn claim(&self, vcpu: usize) -> u8 {
        let cell = &self.life[vcpu];
        loop {
            let era = self.era.load(Ordering::SeqCst);
            let parity = (era & 1) as usize;
            cell.active[parity].fetch_add(1, Ordering::SeqCst);
            if self.era.load(Ordering::SeqCst) == era {
                return parity as u8;
            }
            cell.active[parity].fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Release a claim taken on `vcpu` under `parity` (invoked by the
    /// side that owns the claim: the client for sync/inline calls, the
    /// worker for async ones).
    #[inline]
    pub(crate) fn finish_call(&self, vcpu: usize, parity: u8) {
        self.life[vcpu].active[parity as usize & 1].fetch_sub(1, Ordering::Release);
    }

    /// Count one completed call on `vcpu` (a `Relaxed` increment on the
    /// vCPU's own lifecycle line — the sharded successor of the old
    /// shared `calls` counter).
    #[inline]
    pub(crate) fn record_completion(&self, vcpu: usize) {
        self.life[vcpu].completed.fetch_add(1, Ordering::Relaxed);
    }

    /// In-flight claims, summed across every vCPU and both parities —
    /// the kill paths' drain gate (aggregate-on-read; cold).
    pub fn active(&self) -> u64 {
        self.life
            .iter()
            .map(|c| {
                c.active[0].load(Ordering::SeqCst) + c.active[1].load(Ordering::SeqCst)
            })
            .sum()
    }

    /// In-flight claims counted under `parity`, summed across vCPUs.
    fn parity_active(&self, parity: usize) -> u64 {
        self.life.iter().map(|c| c.active[parity & 1].load(Ordering::SeqCst)).sum()
    }

    /// Completed calls, summed across every vCPU (diagnostics).
    pub fn completions(&self) -> u64 {
        self.life.iter().map(|c| c.completed.load(Ordering::Relaxed)).sum()
    }

    /// Completed calls on one vCPU (the shard itself; used by tests that
    /// verify the shards sum exactly).
    pub(crate) fn completions_on(&self, vcpu: usize) -> u64 {
        self.life[vcpu].completed.load(Ordering::Relaxed)
    }

    /// Replace the handler (Exchange, §4.5.2) and clear worker overrides
    /// so initialization reruns against the new code. Returns the number
    /// of previously retired handlers freed by this exchange's quiesce.
    ///
    /// Protocol (serialized by `xlock`): wait for the *previous* era's
    /// parity to drain — after which every handler already in limbo is
    /// unreferenced and freed — then swap the new handler in, quarantine
    /// the old box tagged with the current era, and bump the era. The
    /// two-era window keeps the parity counters unambiguous, and limbo
    /// never accumulates: 10k exchanges leave at most one box pending.
    ///
    /// Must not be called from one of this entry's own handlers — the
    /// quiesce can wait on the caller's own claim (same restriction as
    /// `wait_drained`/`hard_kill`).
    pub fn swap_handler(&self, h: Handler) -> u64 {
        let _x = self.xlock.lock();
        let era = self.era.load(Ordering::SeqCst);
        if era > 0 {
            let old_parity = ((era - 1) & 1) as usize;
            while self.parity_active(old_parity) != 0 {
                std::thread::yield_now();
            }
        }
        // The previous era has quiesced: every limbo tag is < era, and a
        // tag-t handler is only reachable from era-t claims, all drained.
        let freed = {
            let mut limbo = self.limbo.lock();
            let n = limbo.len() as u64;
            limbo.clear();
            n
        };
        let new = Box::into_raw(Box::new(h));
        let old = self.handler_ptr.swap(new, Ordering::SeqCst);
        // Safety: `old` came from Box::into_raw at bind or a prior swap.
        self.limbo.lock().push((era, unsafe { Box::from_raw(old) }));
        self.era.fetch_add(1, Ordering::SeqCst);
        let cold = self.stats.cell(0);
        cold.handlers_retired.fetch_add(1, Ordering::Relaxed);
        cold.handlers_freed.fetch_add(freed, Ordering::Relaxed);
        if freed > 0 {
            self.flight.record(0, crate::flight::FlightKind::Retire, self.id, freed as u32);
        }
        for p in &self.pools {
            p.for_each_worker(|w| w.set_override(None));
        }
        freed
    }

    /// Opportunistically free quiesced limbo handlers (Frank maintenance;
    /// also the final drain a reclaim performs once the entry is fully
    /// drained). Returns how many were freed.
    pub(crate) fn try_drain_limbo(&self) -> u64 {
        let Some(_x) = self.xlock.try_lock() else { return 0 };
        let mut limbo = self.limbo.lock();
        let before = limbo.len();
        // `xlock` is held, so the era cannot advance under us; a tag-t
        // box is free once parity t&1 shows no claims (conservative when
        // era ≥ t+2 traffic shares the parity, but never unsound).
        limbo.retain(|(tag, _)| self.parity_active((tag & 1) as usize) != 0);
        let freed = (before - limbo.len()) as u64;
        if freed > 0 {
            self.stats.cell(0).handlers_freed.fetch_add(freed, Ordering::Relaxed);
            self.flight.record(0, crate::flight::FlightKind::Retire, self.id, freed as u32);
        }
        freed
    }

    /// Retired-but-not-yet-freed handlers (diagnostics; the exchange
    /// regression test asserts this stays bounded).
    pub fn limbo_len(&self) -> usize {
        self.limbo.lock().len()
    }

    /// Shut down and join every worker (called off the worker threads).
    pub fn reap_workers(&self) {
        for p in &self.pools {
            p.reap();
        }
    }
}

impl Drop for EntryShared {
    fn drop(&mut self) {
        let p = self.handler_ptr.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !p.is_null() {
            // Safety: the final handler box, never freed elsewhere.
            unsafe { drop(Box::from_raw(p)) };
        }
        // Limbo boxes drop with the Vec.
    }
}

#[cfg(test)]
mod tests {
    use crate::worker::tests::{apart, pairs};

    /// The inline path's per-vCPU writes and shared reads, by line pair:
    /// each vCPU's claim and pin cells own a pair, so do its histograms,
    /// and the entry words every call reads (`state`, `era`,
    /// `handler_ptr`) keep off the pair every vCPU's sampled roots store
    /// to (`trace_ewma_ns`). Fails when one of them moves onto a pair
    /// another vCPU writes.
    #[test]
    fn per_vcpu_words_keep_to_their_lines() {
        let rt = crate::Runtime::new(3);
        let opts = crate::EntryOptions { initial_workers: 0, ..Default::default() };
        let ep = rt.bind("layout", opts, std::sync::Arc::new(|c| c.args)).unwrap();
        let e = rt.frank_entry(ep).unwrap();
        let life: Vec<_> = e.life.iter().map(pairs).collect();
        let pins: Vec<_> = rt.vcpus.iter().map(|v| pairs(&v.epoch)).collect();
        for cells in [&life, &pins] {
            for (i, a) in cells.iter().enumerate() {
                for b in &cells[i + 1..] {
                    assert!(apart(a, b), "per-vCPU cells {a:?} and {b:?} share a line pair");
                }
            }
        }
        assert_eq!(std::mem::align_of::<crate::obs::HistCell>(), 128, "histogram cells");
        let ewma = pairs(&*e.trace_ewma_ns);
        for read in [pairs(&e.state), pairs(&e.era), pairs(&e.handler_ptr)] {
            assert!(apart(&read, &ewma), "a per-call read {read:?} shares `trace_ewma_ns`'s pair");
        }
    }
}
