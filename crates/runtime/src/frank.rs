//! Frank — the paper's slow-path resource manager, as a module: the
//! single owner of every control-plane mutation (bind, exchange,
//! soft/hard kill, reclaim, worker shrink, name registration).
//!
//! The hot path never takes Frank's lock. It sees the control plane only
//! through two structures:
//!
//! * **Per-vCPU service-table replicas** (`VcpuState::table`) —
//!   the paper's per-processor service table. A lookup is one atomic load
//!   of the calling vCPU's own replica; bind broadcasts a publish to
//!   every replica from the cold path, reclaim broadcasts the unpublish.
//! * **Per-thread claim cells** (`claims`). A claim pushes the
//!   entry on the calling thread's own cell with plain stores and
//!   re-loads the replica to validate; no locked instruction. The cost
//!   moves to the writers: reclaim unpublishes, and the kill drains set
//!   the state, then each takes a `claims::snapshot` (one
//!   `membarrier` plus a scan of the cells) and waits out the claims it
//!   found, plus any async call handed to a worker that has not yet
//!   claimed for itself. Exchange does the same for a retired handler,
//!   one exchange later (see [`crate::entry`]).

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use crate::claims;
use crate::entry::{EntryOptions, EntryShared, EntryState};
use crate::flight::FlightKind;
use crate::span::SpanPhase;
use crate::{EntryId, Handler, ProgramId, RtError, Runtime, VcpuState, MAX_ENTRIES};

/// A claim on an entry, returned by [`Runtime::claim`].
///
/// Derefs to the entry, and releasing happens on drop — so the borrow
/// checker itself enforces the reclamation contract: any borrow taken
/// *through* the claim (a trace scope holding `&entry.trace_ewma_ns`, a
/// `CallCtx` handed to an inline handler) keeps the claim borrowed and
/// therefore cannot outlive the release. The claim is what keeps the
/// entry's memory, and its handler, alive against a concurrent reclaim
/// or exchange; before this type, that invariant lived only in comments
/// and was broken twice.
///
/// An async dispatch hands the claim over with [`Claim::transfer`], the
/// one deliberate escape hatch from the guard.
pub(crate) struct Claim<'rt> {
    entry: &'rt EntryShared,
    vc: &'rt VcpuState,
    held: claims::Held,
}

impl<'rt> Claim<'rt> {
    /// The vCPU the claim was taken on, resolved once by the claim.
    pub(crate) fn vc(&self) -> &'rt VcpuState {
        self.vc
    }

    /// The claiming thread's counting identity.
    pub(crate) fn token(&self) -> claims::Token {
        claims::Token(self.held.cell as *const _ as usize)
    }

    /// Hand the claim to the worker an async call was posted to: the
    /// caller's frame is released, the `POSTED` slot counts as the claim
    /// until the worker pushes its own at pickup, and the worker's entry
    /// `Arc` keeps the memory (see [`drain`]).
    pub(crate) fn transfer(self) {}
}

impl Deref for Claim<'_> {
    type Target = EntryShared;
    fn deref(&self) -> &EntryShared {
        self.entry
    }
}

/// Wait out every claim on `e` after the store that stops new ones (an
/// unpublish, or a state other than `Active`): the claims a snapshot
/// finds, then async calls handed over to a worker. Their caller released
/// its claim once the slot was `POSTED`, and the worker claims only at
/// pickup, so a `POSTED` client-less slot counts as held. The slots are
/// read after the callers' claims drained, so a hand-over the scan caught
/// on neither side shows here: the caller's release ordered its `POSTED`
/// store before that read, and the slot stays `POSTED` until after the
/// worker's own claim is released. No new hand-over can start: each needs
/// a new claim, and those fail.
fn drain(e: &EntryShared) {
    claims::snapshot(e).wait();
    while e.async_posted() {
        std::thread::yield_now();
    }
}

/// The resource manager's state, behind one mutex ([`Runtime`]'s
/// `frank`). All mutation goes through the `impl Runtime` block below so
/// callers keep the familiar `rt.bind(..)` / `rt.hard_kill(..)` surface.
pub(crate) struct Frank {
    /// The authoritative entry registry (the strong references behind
    /// every raw pointer published in the vCPU table replicas).
    pub(crate) entries: Vec<Option<Arc<EntryShared>>>,
    /// Name table.
    pub(crate) names: HashMap<String, EntryId>,
}

impl Frank {
    pub(crate) fn new() -> Frank {
        Frank { entries: (0..MAX_ENTRIES).map(|_| None).collect(), names: HashMap::new() }
    }
}

impl Runtime {
    /// Hot-path entry lookup + claim: load the entry pointer from this
    /// vCPU's own table replica, push it on this thread's claim cell,
    /// re-load the replica to validate, check state. No locked
    /// instruction: the push writes only this thread's own line pair,
    /// and the replica, state and handler words are read-only here, so
    /// they stay resident in every vCPU's cache.
    ///
    /// The returned [`Claim`] releases on drop and Derefs to the entry;
    /// borrows of the entry go through it, so the compiler rejects any
    /// use of the entry past the release.
    #[inline]
    pub(crate) fn claim(&self, vcpu: usize, ep: EntryId) -> Result<Claim<'_>, RtError> {
        let vc: &VcpuState = self.vcpu(vcpu)?;
        let slot = vc.table.get(ep).ok_or(RtError::UnknownEntry(ep))?;
        let p = slot.load(Ordering::Acquire);
        if p.is_null() {
            return Err(RtError::UnknownEntry(ep));
        }
        let held = claims::push(p);
        if slot.load(Ordering::Acquire) != p {
            return Err(RtError::UnknownEntry(ep)); // dropping `held` pops it
        }
        // Safety: `p` was still published after our claim was pushed and
        // ordered, so a reclaim's scan (after its unpublish and barrier)
        // sees the claim and waits for it before dropping the registry
        // `Arc` behind `p` (`claims` module docs).
        let entry = unsafe { &*p };
        let claim = Claim { entry, vc, held };
        if claim.entry_state() != EntryState::Active {
            return Err(RtError::EntryDead(ep)); // drop releases the claim
        }
        Ok(claim)
    }

    /// Cold-path entry lookup: the registry `Arc` behind `ep`.
    pub(crate) fn frank_entry(&self, ep: EntryId) -> Result<Arc<EntryShared>, RtError> {
        if ep >= MAX_ENTRIES {
            return Err(RtError::UnknownEntry(ep));
        }
        self.frank.lock().entries[ep].clone().ok_or(RtError::UnknownEntry(ep))
    }

    /// Grant entry `ep` access to `region` of `program` on `vcpu`, bound
    /// to the program owning `ep` right now (a later re-bind of the id
    /// under another owner does not inherit the grant). Cold path.
    pub(crate) fn grant_region(
        &self,
        vcpu: usize,
        region: crate::RegionId,
        program: crate::ProgramId,
        ep: EntryId,
        write: bool,
    ) -> Result<(), RtError> {
        let e = self.frank_entry(ep)?;
        if e.entry_state() != crate::EntryState::Active {
            return Err(RtError::EntryDead(ep));
        }
        self.bulk().registry(vcpu).grant(region, program, ep, e.opts.owner, write)
    }

    /// A `Weak` observer of entry `ep`'s shared state (diagnostics and
    /// tests: reclamation is visible as the upgrade starting to fail).
    pub fn entry_weak(&self, ep: EntryId) -> Result<Weak<EntryShared>, RtError> {
        Ok(Arc::downgrade(&self.frank_entry(ep)?))
    }

    /// Bind a service: claim an entry ID (specific one via
    /// `opts.want_ep`), install the handler, pre-spawn
    /// `opts.initial_workers` pooled workers on every vCPU, and publish
    /// the entry to every vCPU's table replica. Also registers `name`
    /// with the name table when non-empty.
    pub fn bind(
        self: &Arc<Self>,
        name: &str,
        opts: EntryOptions,
        handler: Handler,
    ) -> Result<EntryId, RtError> {
        let mut inner = self.frank.lock();
        let ep = match opts.want_ep {
            Some(ep) => {
                if ep >= MAX_ENTRIES {
                    return Err(RtError::UnknownEntry(ep));
                }
                if inner.entries[ep].is_some() {
                    return Err(RtError::TableFull);
                }
                ep
            }
            None => {
                inner.entries.iter().position(|e| e.is_none()).ok_or(RtError::TableFull)?
            }
        };
        let entry = EntryShared::new_arc(
            ep,
            name,
            opts,
            handler,
            self.n_vcpus(),
            crate::worker_idle_budget(self.spin_policy()),
            Arc::clone(self.bulk()),
            Arc::clone(self.obs()),
            Arc::clone(self.flight()),
            Arc::clone(&self.stats),
            Arc::clone(self.spans()),
            Arc::clone(&self.blackbox),
        );
        for v in 0..self.n_vcpus() {
            for _ in 0..opts.initial_workers {
                entry.pool(v).grow(&entry, v, self.cpu_of(v), true);
            }
        }
        let raw = Arc::as_ptr(&entry) as *mut EntryShared;
        inner.entries[ep] = Some(entry);
        // Publish: broadcast the pointer to every vCPU's replica. Claims
        // on other vCPUs start succeeding as each store lands; the
        // registry entry above is what keeps the pointee alive.
        for vc in &self.vcpus {
            vc.table[ep].store(raw, Ordering::SeqCst);
        }
        if !name.is_empty() {
            inner.names.insert(name.to_string(), ep);
        }
        drop(inner);
        self.flight().record(0, FlightKind::Publish, ep, opts.owner);
        self.spans().record_instant(0, ep, SpanPhase::Frank);
        Ok(ep)
    }

    /// Soft-kill `ep`: reject new calls, let in-progress calls drain.
    /// Resources are reaped by [`Runtime::wait_drained`] or shutdown.
    pub fn soft_kill(&self, ep: EntryId, by: ProgramId) -> Result<(), RtError> {
        let e = self.frank_entry(ep)?;
        self.check_owner(&e, by)?;
        match e.entry_state() {
            EntryState::Active => {
                e.state.store(EntryState::SoftKilled as u8, Ordering::Release);
                // Lifecycle events are facility-global, not tied to a
                // calling vCPU; by convention they land on ring 0.
                e.flight.record(0, FlightKind::SoftKill, ep, by);
                Ok(())
            }
            _ => Err(RtError::EntryDead(ep)),
        }
    }

    /// Wait for a soft-killed entry to drain, then reap its workers.
    /// Must not be called from one of the entry's own handlers.
    pub fn wait_drained(&self, ep: EntryId) -> Result<(), RtError> {
        let e = self.frank_entry(ep)?;
        drain(&e);
        e.state.store(EntryState::Dead as u8, Ordering::Release);
        e.reap_workers();
        Ok(())
    }

    /// Hard-kill `ep`: reject new calls, abort callers of in-progress
    /// calls (they observe [`RtError::Aborted`]), reap all workers. Must
    /// not be called from one of the entry's own handlers.
    pub fn hard_kill(&self, ep: EntryId, by: ProgramId) -> Result<(), RtError> {
        let e = self.frank_entry(ep)?;
        self.check_owner(&e, by)?;
        if e.entry_state() == EntryState::Dead {
            return Err(RtError::EntryDead(ep));
        }
        e.state.store(EntryState::Dead as u8, Ordering::SeqCst);
        e.flight.record(0, FlightKind::HardKill, ep, by);
        e.reap_workers();
        Ok(())
    }

    /// Exchange (§4.5.2): atomically replace the handler of a live entry
    /// — on-line replacement of an executing server. Worker-local
    /// initialization overrides are cleared, and handlers retired by
    /// previous exchanges are freed once no claim can reach them (the
    /// retired set is bounded; see [`EntryShared::swap_handler`]). Must not be
    /// called from one of the entry's own handlers.
    pub fn exchange(&self, ep: EntryId, h: Handler, by: ProgramId) -> Result<(), RtError> {
        let e = self.frank_entry(ep)?;
        self.check_owner(&e, by)?;
        if e.entry_state() != EntryState::Active {
            return Err(RtError::EntryDead(ep));
        }
        e.swap_handler(h);
        e.flight.record(0, FlightKind::Exchange, ep, by);
        Ok(())
    }

    /// Free a dead entry's ID for rebinding — and actually free the
    /// entry: unpublish it from every vCPU replica, wait out the claims
    /// that may still hold it (`drain`), and drop the registry
    /// reference. Once this
    /// returns, the old `EntryShared` is gone as soon as the last
    /// external `Arc` (a worker mid-join, a caller-held handle) drops —
    /// observable via [`Runtime::entry_weak`]. Kept separate from the
    /// kill so stale callers racing a kill observe `EntryDead`, never an
    /// unrelated new service.
    pub fn reclaim_slot(&self, ep: EntryId, by: ProgramId) -> Result<(), RtError> {
        let e = self.frank_entry(ep)?;
        self.check_owner(&e, by)?;
        if e.entry_state() != EntryState::Dead {
            return Err(RtError::EntryDead(ep));
        }
        {
            // Unpublish under the Frank lock: a concurrent bind cannot
            // slip a *new* entry into this ID before our removal below
            // (the ID stays occupied in the registry until then), so the
            // nulls can never clobber someone else's publish.
            let inner = self.frank.lock();
            if !inner.entries[ep].as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &e)) {
                return Err(RtError::UnknownEntry(ep));
            }
            for vc in &self.vcpus {
                vc.table[ep].store(std::ptr::null_mut(), Ordering::SeqCst);
            }
        }
        // NOT under the Frank lock: in-flight calls claimed before the
        // kill may run handlers that call bind().
        drain(&e);
        // A dispatch that claimed before the kill may have grown the
        // pool after the kill's reap; with zero claims left no more can
        // appear, so this second reap is final — no pooled worker
        // outlives the reclaim holding the entry `Arc`.
        e.reap_workers();
        // Fully drained: no claim is left to reach a limbo handler.
        e.try_drain_limbo();
        let mut inner = self.frank.lock();
        if inner.entries[ep].as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &e)) {
            inner.entries[ep] = None;
            if !e.name.is_empty() && inner.names.get(&e.name) == Some(&ep) {
                inner.names.remove(&e.name);
            }
        }
        drop(inner);
        self.stats.cell(0).add(claims::NOBODY, |c| &c.entries_reclaimed, 1);
        self.flight().record(0, FlightKind::Reclaim, ep, by);
        self.spans().record_instant(0, ep, SpanPhase::Frank);
        Ok(())
    }

    /// Shrink the pooled workers of (`ep`, `vcpu`) down to `keep`.
    pub fn shrink_workers(&self, ep: EntryId, vcpu: usize, keep: usize) -> Result<usize, RtError> {
        let e = self.frank_entry(ep)?;
        if vcpu >= self.n_vcpus() {
            return Err(RtError::BadVcpu(vcpu));
        }
        Ok(e.pool(vcpu).shrink_to(keep))
    }

    /// Idle pooled workers of `ep`, summed across vCPUs (diagnostics;
    /// the shrink-policy tests watch this decay).
    pub fn idle_workers(&self, ep: EntryId) -> Result<usize, RtError> {
        let e = self.frank_entry(ep)?;
        Ok((0..self.n_vcpus()).map(|v| e.pool(v).idle_len()).sum())
    }

    /// One Frank maintenance pass (cold; call it from a housekeeping
    /// thread or after load spikes): shrink every pool back to the size
    /// it was bound with — `max(1, initial_workers)`, the paper's pools
    /// "most commonly contain only a single worker" and "shrink
    /// dynamically as needed" — and free retired handlers no claim can
    /// still reach. Returns `(workers_reaped, handlers_freed)`.
    pub fn frank_maintain(&self) -> (usize, u64) {
        let entries: Vec<Arc<EntryShared>> =
            self.frank.lock().entries.iter().flatten().cloned().collect();
        let mut reaped = 0;
        let mut freed = 0;
        for e in entries {
            let keep = e.opts.initial_workers.max(1);
            for v in 0..self.n_vcpus() {
                reaped += e.pool(v).shrink_to(keep);
            }
            freed += e.try_drain_limbo();
        }
        (reaped, freed)
    }

    pub(crate) fn check_owner(&self, e: &EntryShared, by: ProgramId) -> Result<(), RtError> {
        if e.opts.owner != 0 && by != 0 && e.opts.owner != by {
            return Err(RtError::NotOwner);
        }
        Ok(())
    }
}
