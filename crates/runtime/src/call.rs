//! The dispatch fastpath.
//!
//! A synchronous call performs, in order: one pinned load of the calling
//! vCPU's own service-table replica plus a lifecycle claim on its own
//! shard (see [`crate::frank`]), one lock-free worker-pool pop, the fill
//! of the worker's own slot and one `Release` store that posts it (the
//! hand-off; a sleeping worker is woken), an adaptive poll-spin-block
//! wait for `DONE`, and one lock-free push that re-pools the worker.
//! **Zero lock acquisitions, zero writes to a cache line any other
//! vCPU's fast path writes** — the paper's common case — and each slot
//! line crosses once per direction. (The epoch protocol's `SeqCst`
//! operations are vCPU-local RMWs plus loads of read-mostly era/table
//! words; the handler stays in the entry's box, borrowed under the
//! claim: no refcount write per call.)
//!
//! Entries bound with [`crate::EntryOptions::inline_ok`] skip even the
//! hand-off: the handler runs on the caller's own thread in a borrowed
//! CD, which is hand-off scheduling taken to its limit — the "switch" to
//! the worker costs nothing because the caller *is* the worker.
//!
//! Everything here is built from two primitives, as the paper builds its
//! async, interrupt and upcall variants from the one PPC mechanism:
//! `EntryShared::run_handler` is the only place a handler runs (worker
//! loop, inline path, ring workers) and `Runtime::post` the only place a
//! call is handed to a worker (sync and async).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::entry::{EntryShared, EntryState, HandlerRun};
use crate::flight::FlightKind;
use crate::frank::Claim;
use crate::obs::LatencyKind;
use crate::slot::SCRATCH_BYTES;
use crate::span::SpanPhase;
use crate::stats::{StatsCell, TimeState};
use crate::worker::WorkerHandle;
use crate::{AsyncCall, EntryId, ProgramId, RtError, Runtime, ScratchRef, SpinPolicy, VcpuState};

impl Runtime {
    /// Synchronous dispatch: blocks and returns the result words.
    ///
    /// With `payload`, the call carries bulk data through the scratch
    /// page — the runtime analogue of §4.2: the 8 register words carry
    /// the opcode/lengths, the page carries the data. The handler reads
    /// and rewrites the payload in place via `CallCtx::scratch`; the
    /// response payload of `rets[7]` bytes (by convention) is copied back
    /// out and returned beside the result words (`None` without a
    /// request payload).
    pub(crate) fn dispatch(
        &self,
        vcpu: usize,
        ep: EntryId,
        args: [u64; 8],
        program: ProgramId,
        payload: Option<&[u8]>,
    ) -> Result<([u64; 8], Option<Vec<u8>>), RtError> {
        assert!(
            payload.map_or(0, <[u8]>::len) <= SCRATCH_BYTES,
            "payload exceeds the {SCRATCH_BYTES}-byte scratch page",
        );
        let claim = self.claim(vcpu, ep)?;
        if claim.opts.inline_ok {
            return self.dispatch_inline(args, program, payload, claim);
        }
        // The claim guards the rest of the call: every early `?`/`return
        // Err` below releases it, and at the happy-path exit it drops
        // last (no explicit drop — `scope` below borrows the entry
        // *through* it, so the compiler rejects any earlier release),
        // keeping the entry alive for the scope's EWMA read.
        //
        // Observability gate: one Relaxed load (plus a thread-local tick
        // when enabled). Unsampled calls pay only the end-to-end
        // timestamp pair that feeds the *exact* per-kind max — the tail
        // gate cannot live with a 1/128-sampled max — and nothing when
        // the plane is off entirely.
        let sampled = self.obs().try_sample();
        let t0 = self.obs().enabled().then(Instant::now);
        // The call span opens before resource acquisition so Frank grow
        // events during `post` parent under it; the drop guard closes it
        // (and runs the root's tail-exemplar check) on every exit.
        let scope = self.spans().call_scope(sampled, vcpu, ep, Some(&*claim.trace_ewma_ns));
        let (worker, woke) = self.post(&claim, args, program, payload, true, scope.ctx_word())?;
        let vc = self.vcpu(vcpu)?;
        let done_at = self.rendezvous(vc, &worker, woke, ep, sampled);
        let slot = &worker.slot;
        let rets = slot.read_rets();
        let faulted = slot.is_faulted();
        // A hard kill that landed while we ran aborts the call. (The
        // claim is still held, so the entry memory is safe.)
        let killed = claim.entry_state() == EntryState::Dead;
        // An aborted or faulted completion carries `ABORT_RETS`, not a
        // response length.
        let response = (payload.is_some() && !killed && !faulted)
            .then(|| slot.read_payload(rets[7] as usize));
        // Results read, the slot is the next caller's (no reset). We
        // popped the worker and hold the claim — pool it and count the
        // completion here, on lines only this vCPU's callers write.
        claim.pool(vcpu).push(worker);
        claim.record_completion(vcpu);
        let cell = self.stats.cell(vcpu);
        Self::settle(cell, ep, killed, faulted)?;
        cell.handoff_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(t0) = t0 {
            // The instant the wait ended closes the call record too.
            let ns = done_at.duration_since(t0).as_nanos() as u64;
            self.obs().record_max(LatencyKind::Call, vcpu, ns);
            if sampled {
                self.obs().record(LatencyKind::Call, vcpu, ns);
                self.flight().record(vcpu, FlightKind::Handoff, ep, program);
            }
        }
        // `scope` drops first (it borrows `claim`), then the claim
        // releases — the order the reclaim protocol requires.
        Ok((rets, response))
    }

    /// The error a finished handler run maps to, on every transport: a
    /// hard kill that landed while it ran aborts the call, and a
    /// contained panic is a counted server fault, on `cell` — the
    /// settling thread's side of the vCPU's counters.
    fn settle(cell: &StatsCell, ep: EntryId, killed: bool, faulted: bool) -> Result<(), RtError> {
        if killed {
            return Err(RtError::Aborted(ep));
        }
        if faulted {
            cell.server_faults.fetch_add(1, Ordering::Relaxed);
            return Err(RtError::ServerFault(ep));
        }
        Ok(())
    }

    /// Caller-thread inline dispatch ([`crate::EntryOptions::inline_ok`]):
    /// the caller already claimed the entry; run the handler right here —
    /// no worker, no slot hand-off, no park/unpark. With `payload`, a CD's
    /// scratch page carries the request in and the first `rets[7]` bytes
    /// back out, as in the hand-off variant.
    fn dispatch_inline(
        &self,
        args: [u64; 8],
        program: ProgramId,
        payload: Option<&[u8]>,
        claim: Claim<'_>,
    ) -> Result<([u64; 8], Option<Vec<u8>>), RtError> {
        // The claim (a parameter, so dropped after every local) releases
        // on exit; the trace scope and the handler's `CallCtx` borrow the
        // entry through it, so no use can outlive the release.
        let entry: &EntryShared = &claim;
        let (vcpu, ep) = (claim.vcpu(), entry.id);
        let vc = self.vcpu(vcpu)?;
        let cell = self.stats.cell(vcpu);
        // One sample decides the call *and* handler records: the
        // unsampled null inline call reads no clock at all.
        let sampled = self.obs().try_sample();
        let t0 = sampled.then(Instant::now);
        // The inline call span; the drop guard closes it on the early
        // kill/fault returns too, restoring the caller's trace context.
        let call_scope = self.spans().call_scope(sampled, vcpu, ep, Some(&*entry.trace_ewma_ns));
        // A payload call owns a CD up front (the scratch page carries the
        // bytes both ways); a plain call borrows one lazily, only if the
        // handler asks — descriptor-only bulk calls skip the CD pool.
        let slot = payload.map(|p| {
            let s = vc.take_slot(cell, self.flight(), self.spans());
            s.write_payload(p);
            s
        });
        // The handler span nests under the call span (no slot hop inline
        // — the context word passes directly), so nested calls the
        // handler makes parent under it.
        let scratch = ScratchRef::Lazy { vc, cell, slot };
        let word = call_scope.ctx_word();
        let run = entry.run_handler(vcpu, args, program, word, scratch, None, None, sampled);
        if let Some(est) = self.handler_estimate(&run) {
            cell.add_time(TimeState::Handler, est);
        }
        let killed = entry.entry_state() == EntryState::Dead;
        // The slot never left IDLE, so the response is read straight off
        // the scratch page before recycling.
        let response = match (payload, &run.lazy) {
            (Some(_), Some(s)) if !killed && !run.faulted => Some(s.with_scratch(|page| {
                page[..(run.rets[7] as usize).min(SCRATCH_BYTES)].to_vec()
            })),
            _ => None,
        };
        if let Some(s) = run.lazy {
            vc.put_slot(s);
        }
        Self::settle(cell, ep, killed, run.faulted)?;
        entry.record_completion(vcpu);
        // `inline_calls` alone records the completion: the aggregate
        // `calls` getter derives hand-off + inline, so the fast path
        // pays one counter increment, not two.
        cell.inline_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(t0) = t0 {
            self.obs().record(LatencyKind::Call, vcpu, t0.elapsed().as_nanos() as u64);
            self.flight().record(vcpu, FlightKind::Inline, ep, program);
        }
        Ok((run.rets, response))
    }

    /// Handler time on a thread that does other work around the handler
    /// (the inline path, a ring drain), as a sampled estimate: the
    /// observed run scaled by the sample period. The unsampled call gains
    /// *zero* clock reads (`ppcbench`'s `obs.enabled_extra_ns` prices
    /// the plane), while the sum converges on the true handler occupancy.
    fn handler_estimate(&self, run: &HandlerRun) -> Option<u64> {
        run.ns.map(|ns| ns << self.obs().sample_shift())
    }

    /// Ring-worker-side execution of one accepted SQE
    /// ([`crate::ring::ClientRing`] and the cross-process ring): claim
    /// the entry *at execution time* — never while the SQE sits queued,
    /// so kill/exchange/reclaim drain with the queue instead of
    /// deadlocking against claims parked inside it — and run the handler
    /// on the ring worker's thread under the SQE's propagated trace
    /// word. `scratch` is the page the handler sees: the ring worker's
    /// persistent page, or the SQE's staged payload buffer. `sampled`:
    /// the drain's one sampler tick for this SQE; a sampled run adds its
    /// [`Runtime::handler_estimate`] to `handler_ns`, which the drain
    /// carves out of its interval when it next reads the clock.
    #[allow(clippy::too_many_arguments)] // the call frame, field by field
    pub(crate) fn ring_execute(
        &self,
        vcpu: usize,
        ep: EntryId,
        args: [u64; 8],
        program: ProgramId,
        trace_word: u64,
        scratch: &mut [u8],
        sampled: bool,
        handler_ns: &mut u64,
    ) -> Result<[u64; 8], RtError> {
        // The claim releases on exit; the handler's borrows go through it.
        let claim = self.claim(vcpu, ep)?;
        let scratch = ScratchRef::Ready(scratch);
        let run = claim.run_handler(vcpu, args, program, trace_word, scratch, None, None, sampled);
        *handler_ns += self.handler_estimate(&run).unwrap_or(0);
        let killed = claim.entry_state() == EntryState::Dead;
        // The ring worker serves this vCPU: off the submitter's lines.
        let cell = self.stats.served_cell(vcpu);
        Self::settle(cell, ep, killed, run.faulted)?;
        claim.record_completion(vcpu);
        cell.ring_calls.fetch_add(1, Ordering::Relaxed);
        Ok(run.rets)
    }

    /// Wait for the posted call to complete, per the runtime's
    /// [`SpinPolicy`] ([`VcpuState::wait_done`]). Every budgeted wait is
    /// *bounded with escalation*: when the spin budget runs dry the
    /// client donates its timeslice to `worker` — priority-unpark plus
    /// `yield_now`, up to [`crate::spin::ESCALATE_YIELDS`] rounds —
    /// before finally blocking. A spun-out budget means the worker lost
    /// the processor mid-handler; blocking straight away stacks a futex
    /// sleep/wake round trip on top of the context switch the worker
    /// needs anyway, and that convoy is precisely the 50–80µs p999/max
    /// outlier the tail histograms showed. `ParkOnly` skips poll and spin
    /// but keeps the escalation (its tail had the same convoy shape).
    ///
    /// Under `Adaptive`, the observed wall-clock latency feeds the
    /// calling vCPU's EWMA so the next budget fits the workload. With
    /// the obs plane enabled the wait is always timed and feeds the
    /// exact [`LatencyKind::Rendezvous`] max; a `sampled` rendezvous
    /// additionally records the full histogram entry and its
    /// spin-vs-park outcome into the flight ring. Returns when it ended.
    fn rendezvous(
        &self,
        vc: &VcpuState,
        worker: &WorkerHandle,
        woke: bool,
        ep: EntryId,
        sampled: bool,
    ) -> Instant {
        // The client-side wait as a leaf span under the live call span
        // (no-op otherwise) — this is the "rendezvous wait" slice of a
        // tail exemplar's phase breakdown.
        let _span = self.spans().leaf_scope(vc.id, ep, SpanPhase::Rendezvous);
        let cell = self.stats.cell(vc.id);
        let adaptive = self.spin_policy() == SpinPolicy::Adaptive;
        // Unconditional timestamp pair: the wait below is µs-scale
        // (spin, donation, or futex), so the attribution plane's charge
        // of this interval to `time_spin_ns`/`time_park_ns` costs noise
        // relative to what it measures — unlike the inline path, which
        // stays sampled.
        let t0 = Instant::now();
        let (resolved, escalated) = vc.wait_done(worker, adaptive, true, woke);
        let done_at = Instant::now();
        let wait_ns = done_at.duration_since(t0).as_nanos() as u64;
        if self.obs().enabled() {
            self.obs().record_max(LatencyKind::Rendezvous, vc.id, wait_ns);
        }
        if adaptive {
            vc.observe_latency(wait_ns);
        }
        // The client's wait is this vCPU's attributed time: a resolved
        // wait was spent spinning (userspace), an unresolved one parked.
        if resolved {
            cell.spin_waits.fetch_add(1, Ordering::Relaxed);
            cell.add_time(TimeState::Spin, wait_ns);
        } else {
            cell.park_waits.fetch_add(1, Ordering::Relaxed);
            cell.add_time(TimeState::Park, wait_ns);
        }
        if escalated {
            cell.spin_escalations.fetch_add(1, Ordering::Relaxed);
        }
        if sampled {
            self.obs().record(LatencyKind::Rendezvous, vc.id, wait_ns);
            let kind = if resolved { FlightKind::SpinResolved } else { FlightKind::Parked };
            self.flight().record(vc.id, kind, ep, wait_ns.min(u32::MAX as u64) as u32);
        }
        done_at
    }

    /// Asynchronous dispatch: returns a handle; the caller continues
    /// immediately ("the caller and worker proceed independently").
    /// Always hands off to a worker — inline execution would defeat the
    /// point of an async call. The *worker* releases the entry claim
    /// when the handler completes (the caller may be long gone), using
    /// the parity that rides the slot.
    pub(crate) fn dispatch_async(
        &self,
        vcpu: usize,
        ep: EntryId,
        args: [u64; 8],
        program: ProgramId,
    ) -> Result<AsyncCall, RtError> {
        let sampled = self.obs().try_sample();
        let claim = self.claim(vcpu, ep)?;
        // The async span is not installed (the caller continues past the
        // dispatch); it closes when the completion is observed. The
        // context word rides the slot so the worker's handler span — and
        // anything nested under it — parents here.
        let trace = self.spans().begin_async(sampled, vcpu, ep);
        let word = trace.as_ref().map_or(0, |tok| tok.ctx.pack());
        let worker = match self.post(&claim, args, program, None, false, word) {
            Ok((worker, _)) => worker,
            Err(e) => {
                // Not posted (or posted and taken back): the claim is
                // still ours and its drop releases it — without that, a
                // shutdown race would leak a claim and wedge
                // `wait_drained`.
                if let Some(tok) = trace {
                    self.spans().end_token(tok, None);
                }
                return Err(e);
            }
        };
        // The worker owns the release from here.
        claim.transfer();
        self.stats.cell(vcpu).async_calls.fetch_add(1, Ordering::Relaxed);
        if sampled {
            self.flight().record(vcpu, FlightKind::Async, ep, program);
        }
        Ok(AsyncCall {
            worker,
            vcpu: Arc::clone(self.vcpu(vcpu)?),
            ep,
            adaptive: self.spin_policy() == SpinPolicy::Adaptive,
            trace: std::cell::Cell::new(trace),
            spans: Arc::clone(self.spans()),
        })
    }

    /// Upcall / interrupt dispatch (§4.4): an asynchronous request with no
    /// calling program, manufactured by the runtime itself.
    pub fn upcall(
        self: &Arc<Self>,
        vcpu: usize,
        ep: EntryId,
        args: [u64; 8],
    ) -> Result<AsyncCall, RtError> {
        let r = self.dispatch_async(vcpu, ep, args, 0)?;
        self.stats.cell(vcpu).upcalls.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    }

    /// The one place a call is handed to a worker: pop a worker from the
    /// entry's pool on the claim's vCPU (or grow one), write the payload
    /// into its slot's page, fill the slot in place and post it. `sync`:
    /// the caller will wait on the slot and re-pool the worker (else
    /// nobody waits yet, and the worker releases the claim and pools
    /// itself once the handle hands the slot back); a non-zero
    /// `trace_word` rides the slot so the handler span parents under the
    /// caller's. Also returns whether the worker had to be woken.
    ///
    /// Never releases the claim: on `Err` the call was not posted, or was
    /// posted and taken back, and the caller's [`Claim`] still owns the
    /// release. After an `Ok` from a non-`sync` post the worker may
    /// release the claim at any moment, so nothing past the post touches
    /// the entry unless the call was taken back.
    pub(crate) fn post(
        &self,
        claim: &Claim<'_>,
        args: [u64; 8],
        program: ProgramId,
        payload: Option<&[u8]>,
        sync: bool,
        trace_word: u64,
    ) -> Result<(Arc<WorkerHandle>, bool), RtError> {
        let (vcpu, ep) = (claim.vcpu(), claim.id);
        let cell = self.stats.cell(vcpu);
        // Worker: lock-free pool pop, or the Frank grow path.
        let worker = match claim.pool(vcpu).pop() {
            Some(w) => w,
            None => {
                let tf0 = Instant::now();
                cell.frank_redirects.fetch_add(1, Ordering::Relaxed);
                cell.workers_created.fetch_add(1, Ordering::Relaxed);
                // Frank redirects are the slow path by definition:
                // record unconditionally (data 0 = worker pool).
                self.flight().record(vcpu, FlightKind::Frank, ep, 0);
                self.spans().record_instant(vcpu, ep, SpanPhase::Frank);
                // The self-weak upgrade cannot fail while our claim is
                // held — reclamation drains claims first.
                let arc = claim.strong().ok_or(RtError::UnknownEntry(ep))?;
                let w = claim.pool(vcpu).grow(&arc, vcpu, self.cpu_of(vcpu), false);
                // Cold by construction: charge the grow (thread spawn
                // and all) to the caller's Frank time.
                cell.add_time(TimeState::Frank, tf0.elapsed().as_nanos() as u64);
                w
            }
        };
        let slot = &worker.slot;
        // The payload is written before the post publishes the slot.
        if let Some(p) = payload {
            slot.write_payload(p);
        }
        slot.stage(args, program, sync, claim.parity(), trace_word);
        // Racing a kill, the worker may have exited without seeing the
        // post: the call is ours again, and nobody else would ever
        // complete (or, for an async call, release the claim of) it.
        let woke = worker.post().ok_or(RtError::Aborted(ep))?;
        Ok((worker, woke))
    }
}
