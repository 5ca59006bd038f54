//! Frank — the paper's slow-path resource manager, as a module: the
//! single owner of every control-plane mutation (bind, exchange,
//! soft/hard kill, reclaim, worker shrink, name registration).
//!
//! The hot path never takes Frank's lock. It sees the control plane only
//! through two read-mostly structures:
//!
//! * **Per-vCPU service-table replicas** (`VcpuState::table`) —
//!   the paper's per-processor service table. A lookup is one atomic load
//!   of the calling vCPU's own replica; bind broadcasts a publish to
//!   every replica from the cold path, reclaim broadcasts the unpublish.
//! * **The pin-era cells** (`EpochCell`) — per-vCPU epoch counters
//!   advanced at call boundaries. A claim *pins* its vCPU for the tiny
//!   lookup→claim window; `Frank::wait_grace` on the reclaim path
//!   advances the era and waits for the old era's pins to exit, which
//!   (with the unpublish ordered first) proves no claimant can still be
//!   holding the dead entry's raw pointer without also holding a counted
//!   entry claim. After that, draining the entry's own claim shards is
//!   sufficient to free it.
//!
//! The grace protocol is the same era-parity scheme the entries use for
//! handler retirement (see [`crate::entry`]): an increment-then-revalidate
//! loop against a shared era word, counted in a parity-indexed slot of
//! the pinner's own cache line, so detecting quiescence is a sum over
//! per-vCPU counters instead of a global barrier — and, unlike a plain
//! entered/exited counter pair, it terminates under continuous traffic
//! because new pins land in the *new* parity.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::entry::{EntryOptions, EntryShared, EntryState};
use crate::flight::FlightKind;
use crate::span::SpanPhase;
use crate::{EntryId, Handler, ProgramId, RtError, Runtime, VcpuState, MAX_ENTRIES};

/// A counted lifecycle claim on an entry, returned by [`Runtime::claim`].
///
/// Derefs to the entry, and releasing happens on drop — so the borrow
/// checker itself enforces the reclamation contract: any borrow taken
/// *through* the claim (a trace scope holding `&entry.trace_ewma_ns`, a
/// `CallCtx` handed to an inline handler) keeps the claim borrowed and
/// therefore cannot outlive the release. The claim is what keeps the
/// entry's memory alive against a concurrent `reclaim_slot`; before this
/// type, that invariant lived only in comments and was broken twice.
///
/// Async dispatch transfers the release obligation to the worker (the
/// parity rides the slot) via [`Claim::transfer`], the one deliberate
/// escape hatch from the guard.
pub(crate) struct Claim<'rt> {
    entry: &'rt EntryShared,
    vcpu: usize,
    parity: u8,
}

impl<'rt> Claim<'rt> {
    /// The vCPU whose lifecycle shard counts this claim.
    pub(crate) fn vcpu(&self) -> usize {
        self.vcpu
    }

    /// The era parity the claim was counted under (rides the slot so the
    /// releasing side passes it back to [`EntryShared::finish_call`]).
    pub(crate) fn parity(&self) -> u8 {
        self.parity
    }

    /// Hand the release obligation to another owner (the worker, for
    /// async calls — it finds the parity on the slot): suppresses the
    /// drop. From here the entry stays alive only while that owner still
    /// holds the counted claim.
    pub(crate) fn transfer(self) {
        std::mem::forget(self);
    }
}

impl Deref for Claim<'_> {
    type Target = EntryShared;
    fn deref(&self) -> &EntryShared {
        self.entry
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.entry.finish_call(self.vcpu, self.parity);
    }
}

/// One vCPU's pin cell: claims in the lookup→claim window, split by
/// pin-era parity. Aligned to a line pair for the same reason as the
/// entries' lifecycle cells — the pin is two RMWs here and nothing else.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct EpochCell {
    pub(crate) active: [AtomicU64; 2],
}

/// Cold-path state: everything Frank owns, behind one mutex.
pub(crate) struct FrankInner {
    /// The authoritative entry registry (the strong references behind
    /// every raw pointer published in the vCPU table replicas).
    pub(crate) entries: Vec<Option<Arc<EntryShared>>>,
    /// Name table.
    pub(crate) names: HashMap<String, EntryId>,
}

/// The resource manager. Owned by [`Runtime`]; all mutation goes through
/// the `impl Runtime` block below so callers keep the familiar
/// `rt.bind(..)` / `rt.hard_kill(..)` surface.
pub(crate) struct Frank {
    pub(crate) inner: Mutex<FrankInner>,
    /// The table-pin era (see module docs). Read-only on the hot path.
    pin_era: AtomicU64,
    /// Serializes grace periods: the parity scheme admits at most two
    /// live eras, so era flips must not overlap.
    reclaim_lock: Mutex<()>,
}

impl Frank {
    pub(crate) fn new() -> Frank {
        Frank {
            inner: Mutex::new(FrankInner {
                entries: (0..MAX_ENTRIES).map(|_| None).collect(),
                names: HashMap::new(),
            }),
            pin_era: AtomicU64::new(0),
            reclaim_lock: Mutex::new(()),
        }
    }

    /// Advance the pin era and wait for every pin taken under the old
    /// era to exit. Caller holds `reclaim_lock`, and must have made the
    /// state being reclaimed unreachable (nulled the table replicas)
    /// *before* calling: the SeqCst total order then guarantees any pin
    /// that read the old pointer is counted in the old parity until its
    /// entry claim is, so post-grace the entry claims alone gate freeing.
    fn wait_grace(&self, vcpus: &[Arc<VcpuState>]) {
        let era = self.pin_era.fetch_add(1, Ordering::SeqCst);
        let old = (era & 1) as usize;
        loop {
            let pinned: u64 =
                vcpus.iter().map(|v| v.epoch.active[old].load(Ordering::SeqCst)).sum();
            if pinned == 0 {
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Runtime {
    /// Hot-path entry lookup + lifecycle claim: pin this vCPU's epoch
    /// cell, load the entry pointer from this vCPU's own table replica,
    /// count the claim on this vCPU's lifecycle shard, unpin, check
    /// state. Everything written is on the calling vCPU's own cache
    /// lines; the era words and the table replica are read-only here, so
    /// they stay resident in shared state across vCPUs.
    ///
    /// The returned [`Claim`] releases on drop and Derefs to the entry;
    /// borrows of the entry go through it, so the compiler rejects any
    /// use of the entry past the release (async dispatch escapes via
    /// [`Claim::transfer`], handing the release to the worker).
    #[inline]
    pub(crate) fn claim(&self, vcpu: usize, ep: EntryId) -> Result<Claim<'_>, RtError> {
        let vc = self.vcpu(vcpu)?;
        if ep >= MAX_ENTRIES {
            return Err(RtError::UnknownEntry(ep));
        }
        let cell = &vc.epoch;
        loop {
            let era = self.frank.pin_era.load(Ordering::SeqCst);
            let pin = (era & 1) as usize;
            cell.active[pin].fetch_add(1, Ordering::SeqCst);
            if self.frank.pin_era.load(Ordering::SeqCst) != era {
                // A grace period raced us; retry under the new era.
                cell.active[pin].fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let p = vc.table[ep].load(Ordering::SeqCst);
            if p.is_null() {
                cell.active[pin].fetch_sub(1, Ordering::Release);
                return Err(RtError::UnknownEntry(ep));
            }
            // Safety: the pin protocol — a reclaim unpublishes before its
            // grace period, so a pointer read under a validated pin is
            // backed by a registry Arc until at least our claim lands.
            let entry = unsafe { &*p };
            let parity = entry.claim(vcpu);
            // The entry claim now protects the entry; exit the pin.
            cell.active[pin].fetch_sub(1, Ordering::Release);
            let claim = Claim { entry, vcpu, parity };
            if claim.entry_state() != EntryState::Active {
                return Err(RtError::EntryDead(ep)); // drop releases the claim
            }
            return Ok(claim);
        }
    }

    /// Cold-path entry lookup: the registry `Arc` behind `ep`.
    pub(crate) fn frank_entry(&self, ep: EntryId) -> Result<Arc<EntryShared>, RtError> {
        if ep >= MAX_ENTRIES {
            return Err(RtError::UnknownEntry(ep));
        }
        self.frank.inner.lock().entries[ep].clone().ok_or(RtError::UnknownEntry(ep))
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
        let mut inner = self.frank.inner.lock();
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
        while e.active() != 0 {
            std::thread::yield_now();
        }
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
    /// previous exchanges are freed as their era quiesces (the retired
    /// set is bounded; see [`EntryShared::swap_handler`]). Must not be
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

    /// Free a dead entry's ID for rebinding — and, unlike the
    /// pre-epoch runtime, actually free the entry: unpublish it from
    /// every vCPU replica, run a pin-era grace period, drain the
    /// lifecycle shards, and drop the registry reference. Once this
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
            let inner = self.frank.inner.lock();
            if !inner.entries[ep].as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &e)) {
                return Err(RtError::UnknownEntry(ep));
            }
            for vc in &self.vcpus {
                vc.table[ep].store(std::ptr::null_mut(), Ordering::SeqCst);
            }
        }
        // Grace period — NOT under the Frank lock: in-flight calls
        // claimed before the kill may run handlers that call bind().
        {
            let _g = self.frank.reclaim_lock.lock();
            self.frank.wait_grace(&self.vcpus);
        }
        // No future claim can reach the entry; wait out the ones held.
        while e.active() != 0 {
            std::thread::yield_now();
        }
        // A dispatch that claimed before the kill may have grown the
        // pool after the kill's reap; with zero claims left no more can
        // appear, so this second reap is final — no pooled worker
        // outlives the reclaim holding the entry `Arc`.
        e.reap_workers();
        // Fully drained: every parity is zero, so all limbo handlers free.
        e.try_drain_limbo();
        let mut inner = self.frank.inner.lock();
        if inner.entries[ep].as_ref().is_some_and(|cur| Arc::ptr_eq(cur, &e)) {
            inner.entries[ep] = None;
            if !e.name.is_empty() && inner.names.get(&e.name) == Some(&ep) {
                inner.names.remove(&e.name);
            }
        }
        drop(inner);
        self.stats.cell(0).entries_reclaimed.fetch_add(1, Ordering::Relaxed);
        self.flight().record(0, FlightKind::Reclaim, ep, by);
        self.spans().record_instant(0, ep, SpanPhase::Frank);
        Ok(())
    }

    /// Completed calls of entry `ep` — sync (inline or hand-off), async,
    /// and upcall alike (diagnostics; used by stats-conservation checks).
    /// A sum over the per-vCPU lifecycle shards.
    pub fn entry_completions(&self, ep: EntryId) -> Result<u64, RtError> {
        Ok(self.frank_entry(ep)?.completions())
    }

    /// Completed calls of entry `ep` on one vCPU — the shard itself
    /// (tests verify the shards sum exactly to the aggregate).
    pub fn entry_completions_on(&self, ep: EntryId, vcpu: usize) -> Result<u64, RtError> {
        if vcpu >= self.n_vcpus() {
            return Err(RtError::BadVcpu(vcpu));
        }
        Ok(self.frank_entry(ep)?.completions_on(vcpu))
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
    /// dynamically as needed" — and free retired handlers whose era has
    /// quiesced. Returns `(workers_reaped, handlers_freed)`.
    pub fn frank_maintain(&self) -> (usize, u64) {
        let entries: Vec<Arc<EntryShared>> =
            self.frank.inner.lock().entries.iter().flatten().cloned().collect();
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
