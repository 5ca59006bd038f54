//! The dispatch fastpath.
//!
//! A synchronous call performs, in order: one load of the calling vCPU's
//! own service-table replica plus a claim pushed on the calling thread's
//! own cell (see [`crate::frank`]), one lock-free worker-pool pop, the fill
//! of the worker's own slot and one `Release` store that posts it (the
//! hand-off; a sleeping worker is woken), an adaptive poll-spin-block
//! wait for `DONE`, and one lock-free push that re-pools the worker.
//! **Zero lock acquisitions, zero writes to a cache line any other
//! vCPU's fast path writes** — the paper's common case — and each slot
//! line crosses once per direction. (The claim is plain stores to the
//! thread's own line pair plus loads of read-mostly table, state and
//! handler words — no locked instruction; the handler stays in the
//! entry's box, borrowed under the claim: no refcount write per call;
//! the counts are plain stores to the thread's own copy, [`crate::stats`].)
//!
//! Entries bound with [`crate::EntryOptions::inline_ok`] skip even the
//! hand-off: the handler runs on the caller's own thread in a borrowed
//! CD, which is hand-off scheduling taken to its limit — the "switch" to
//! the worker costs nothing because the caller *is* the worker. One obs
//! gate, one body: only a sampled or traced call takes the cold twin.
//!
//! Everything here is built from two primitives, as the paper builds its
//! async, interrupt and upcall variants from the one PPC mechanism:
//! `EntryShared::run_handler` is the only place a handler runs (worker
//! loop, inline path, and `Runtime::execute` for serving threads) and
//! `Runtime::post` the only place a call is handed to a worker (sync
//! and async).

use std::sync::Arc;
use std::time::Instant;

use crate::claims::{self, Token, NOBODY};
use crate::entry::EntryState;
use crate::flight::FlightKind;
use crate::frank::Claim;
use crate::obs::LatencyKind;
use crate::slot::SCRATCH_BYTES;
use crate::span::SpanPhase;
use crate::stats::{StatsCell, TimeState};
use crate::worker::WorkerHandle;
use crate::{AsyncCall, EntryId, ProgramId, RtError, Runtime, ScratchRef, SpinPolicy, VcpuState};

/// A payload call's request bytes and the buffer its response lands in.
pub(crate) type Payload<'p> = Option<(&'p [u8], &'p mut Vec<u8>)>;

impl Runtime {
    /// Synchronous dispatch: blocks and returns the result words. A
    /// `payload` travels in the scratch page (§4.2's bulk data; the words
    /// carry opcode/lengths), which the handler rewrites in place via
    /// `CallCtx::scratch`; its first `rets[7]` bytes land in the buffer.
    ///
    /// An inline call's one gate: the sampler's tick (taken once) or a
    /// live trace context — a nested call parents under its handler's
    /// span even when unsampled — sends it to the traced twin.
    #[inline(always)]
    pub(crate) fn dispatch(
        &self,
        vcpu: usize,
        ep: EntryId,
        args: [u64; 8],
        program: ProgramId,
        payload: Payload<'_>,
    ) -> Result<[u64; 8], RtError> {
        if let Some((request, _)) = &payload {
            assert!(request.len() <= SCRATCH_BYTES, "payload exceeds the scratch page");
        }
        // The claim drops last: trace scopes and the handler's `CallCtx`
        // borrow the entry through it, so none can outlive the release.
        let claim = self.claim(vcpu, ep)?;
        if claim.opts.inline_ok {
            let sampled = self.obs().try_sample(vcpu);
            if sampled || self.spans().current().is_some() {
                return self.inline_traced(&claim, args, program, payload, sampled);
            }
            return self.inline_body(&claim, args, program, payload, 0, false);
        }
        self.handoff(&claim, args, program, payload)
    }

    /// A synchronous call handed to a worker. Out of line, so that the
    /// inline path keeps its registers to itself.
    #[inline(never)]
    fn handoff(
        &self,
        claim: &Claim<'_>,
        args: [u64; 8],
        program: ProgramId,
        payload: Payload<'_>,
    ) -> Result<[u64; 8], RtError> {
        let (vcpu, ep) = (claim.vc().id, claim.id);
        let (request, response) = payload.unzip();
        // The tick decides every timed record of a hand-off — call,
        // rendezvous and, riding the slot, the worker's handler run: an
        // unsampled call reads no clock.
        let sampled = self.obs().try_sample(vcpu);
        let t0 = sampled.then(Instant::now);
        // The call span opens before resource acquisition so Frank grow
        // events during `post` parent under it; the drop guard closes it
        // (and runs the root's tail-exemplar check) on every exit.
        let scope = self.spans().call_scope(sampled, vcpu, ep, Some(&*claim.trace_ewma_ns));
        let word = scope.ctx_word();
        let (worker, woke) = self.post(claim, args, program, request, true, word, sampled)?;
        let vc = claim.vc();
        let done_at = self.rendezvous(vc, claim.token(), &worker, woke, ep, sampled);
        let slot = &worker.slot;
        let rets = slot.read_rets();
        let faulted = slot.is_faulted();
        // A hard kill that landed while we ran aborts the call. (The
        // claim is still held, so the entry memory is safe.)
        let killed = claim.entry_state() == EntryState::Dead;
        // An aborted or faulted completion carries `ABORT_RETS`, not a
        // response length.
        if let Some(out) = response.filter(|_| !killed && !faulted) {
            *out = slot.read_payload(rets[7] as usize);
        }
        // Results read, the slot is the next caller's (no reset). We
        // popped the worker and hold the claim — pool it and count the
        // completion here, on lines only this vCPU's callers write.
        claim.pool(vcpu).push(worker);
        let cell = self.stats.cell(vcpu);
        Self::settle(cell, claim.token(), ep, killed, faulted)?;
        cell.add(claim.token(), |c| &c.handoff_calls, 1);
        if let (Some(t0), Some(done_at)) = (t0, done_at) {
            // The instant the wait ended closes the call record too.
            let ns = done_at.duration_since(t0).as_nanos() as u64;
            self.obs().record(LatencyKind::Call, vcpu, ns);
            self.flight().record(vcpu, FlightKind::Handoff, ep, program);
        }
        // `scope` drops here, then the caller's claim releases — the
        // order the reclaim protocol requires.
        Ok(rets)
    }

    /// The error a finished handler run maps to, on every transport: a
    /// hard kill that landed while it ran aborts the call, and a
    /// contained panic is a counted server fault, on `cell` — the
    /// settling thread's side of the vCPU's counters — as `who`.
    fn settle(
        cell: &StatsCell,
        who: Token,
        ep: EntryId,
        killed: bool,
        faulted: bool,
    ) -> Result<(), RtError> {
        if killed {
            return Err(RtError::Aborted(ep));
        }
        if faulted {
            cell.add(who, |c| &c.server_faults, 1);
            return Err(RtError::ServerFault(ep));
        }
        Ok(())
    }

    /// The traced twin of an inline call: the call span (its drop guard
    /// closes it on every exit, restoring the caller's trace context)
    /// around the one body, and, if `sampled`, the call record.
    #[cold]
    #[inline(never)]
    fn inline_traced(
        &self,
        claim: &Claim<'_>,
        args: [u64; 8],
        program: ProgramId,
        payload: Payload<'_>,
        sampled: bool,
    ) -> Result<[u64; 8], RtError> {
        let (vcpu, ep) = (claim.vc().id, claim.id);
        let t0 = sampled.then(Instant::now);
        let scope = self.spans().call_scope(sampled, vcpu, ep, Some(&*claim.trace_ewma_ns));
        let rets = self.inline_body(claim, args, program, payload, scope.ctx_word(), sampled)?;
        if let Some(t0) = t0 {
            self.obs().record(LatencyKind::Call, vcpu, t0.elapsed().as_nanos() as u64);
            self.flight().record(vcpu, FlightKind::Inline, ep, program);
        }
        Ok(rets)
    }

    /// Caller-thread inline dispatch ([`crate::EntryOptions::inline_ok`]):
    /// the handler runs right here under `word` — no worker, no hand-off.
    #[inline(always)]
    fn inline_body(
        &self,
        claim: &Claim<'_>,
        args: [u64; 8],
        program: ProgramId,
        payload: Payload<'_>,
        word: u64,
        sampled: bool,
    ) -> Result<[u64; 8], RtError> {
        let (request, response) = payload.unzip();
        let (vc, ep) = (claim.vc(), claim.id);
        let vcpu = vc.id;
        let cell = self.stats.cell(vcpu);
        // A payload's CD is taken up front, else borrowed on first use.
        let slot = request.map(|p| {
            let s = vc.take_slot(cell, self.flight(), self.spans());
            s.write_payload(p);
            s
        });
        // No slot hop inline: the handler span nests directly under
        // `word`, and nested calls the handler makes under it.
        let scratch = ScratchRef::Lazy { vc, cell, slot };
        let run = claim.run_handler(vcpu, args, program, word, scratch, None, None, sampled);
        if let Some(ns) = run.est_ns {
            cell.add_time(TimeState::Handler, ns);
        }
        let killed = claim.entry_state() == EntryState::Dead;
        // The slot never left IDLE, so the response is read straight off
        // the scratch page before recycling.
        if let (Some(out), Some(s)) = (response, &run.lazy) {
            if !killed && !run.faulted {
                let n = (run.rets[7] as usize).min(SCRATCH_BYTES);
                *out = s.with_scratch(|page| page[..n].to_vec());
            }
        }
        if let Some(s) = run.lazy {
            let _ = vc.cd_pool.push(s); // dropped if full: §2's reclaimable stacks
        }
        Self::settle(cell, claim.token(), ep, killed, run.faulted)?;
        // `inline_calls` alone records the completion: the aggregate
        // `calls` getter derives hand-off + inline, so the fast path
        // pays one counter increment, not two.
        cell.add(claim.token(), |c| &c.inline_calls, 1);
        Ok(run.rets)
    }

    /// How a serving thread runs a call it found (an SQE, a segment
    /// slot's `CALL` or `PAYLOAD`): claim the entry *at execution time* —
    /// never while the call sits queued, so kill/exchange/reclaim drain
    /// with the queue instead of deadlocking against claims parked in it
    /// — and run the handler here under `trace_word`, whatever the
    /// entry's [`crate::EntryOptions::inline_ok`]; no worker, so
    /// [`crate::CallCtx::set_worker_handler`] is a no-op. `scratch`: the
    /// thread's own page or the SQE's staged payload. `sampled`: the
    /// caller's tick; a sampled run records a Handler sample (no Call
    /// sample, no root span) and adds its estimate to `handler_ns`.
    /// Counts only a fault: each caller counts what it served.
    #[allow(clippy::too_many_arguments)] // the call frame, field by field
    pub(crate) fn execute(
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
        *handler_ns += run.est_ns.unwrap_or(0);
        let killed = claim.entry_state() == EntryState::Dead;
        // A serving thread: off the callers' lines.
        Self::settle(self.stats.served_cell(vcpu), claim.token(), ep, killed, run.faulted)?;
        Ok(run.rets)
    }

    /// Wait for the posted call to complete, per the runtime's
    /// [`SpinPolicy`] ([`VcpuState::wait_done`]). Every budgeted wait is
    /// *bounded with escalation*: when the spin budget runs dry the
    /// client donates its timeslice to `worker` — priority-unpark plus
    /// `yield_now`, up to [`crate::spin::ESCALATE_YIELDS`] rounds (its
    /// doc says why) — before finally blocking. `ParkOnly` skips poll and spin
    /// but keeps the escalation.
    ///
    /// Every call counts its outcome and charges its futex wait, timed
    /// around the wait itself, to Park. Only a `sampled` rendezvous reads
    /// the clock around the whole wait: it records the histogram and the
    /// flight event, feeds the vCPU's EWMA under `Adaptive` (so the next
    /// budget fits the workload), and charges its unblocked part, scaled
    /// by the sample period, to Spin. Returns when a sampled wait ended.
    fn rendezvous(
        &self,
        vc: &VcpuState,
        who: Token,
        worker: &WorkerHandle,
        woke: bool,
        ep: EntryId,
        sampled: bool,
    ) -> Option<Instant> {
        // The client-side wait as a leaf span under the live call span
        // (no-op otherwise) — this is the "rendezvous wait" slice of a
        // tail exemplar's phase breakdown.
        let _span = self.spans().leaf_scope(vc.id, ep, SpanPhase::Rendezvous);
        let adaptive = self.spin_policy() == SpinPolicy::Adaptive;
        let t0 = sampled.then(Instant::now);
        let (resolved, escalated, blocked_ns) = vc.wait_done(worker, adaptive, true, woke);
        let cell = self.stats.cell(vc.id);
        cell.add(who, |c| if resolved { &c.spin_waits } else { &c.park_waits }, 1);
        if !resolved {
            cell.add_time(TimeState::Park, blocked_ns);
        }
        if escalated {
            cell.add(who, |c| &c.spin_escalations, 1);
        }
        let t0 = t0?;
        let done_at = Instant::now();
        let wait_ns = done_at.duration_since(t0).as_nanos() as u64;
        if adaptive {
            vc.observe_latency(wait_ns);
        }
        let spun_ns = wait_ns.saturating_sub(blocked_ns) << self.obs().sample_shift();
        cell.add_time(TimeState::Spin, spun_ns);
        self.obs().record(LatencyKind::Rendezvous, vc.id, wait_ns);
        let kind = if resolved { FlightKind::SpinResolved } else { FlightKind::Parked };
        self.flight().record(vc.id, kind, ep, wait_ns.min(u32::MAX as u64) as u32);
        Some(done_at)
    }

    /// Asynchronous dispatch: returns a handle; the caller continues
    /// immediately ("the caller and worker proceed independently").
    /// Always hands off to a worker — inline execution would defeat the
    /// point of an async call. The caller's claim passes to the *worker*,
    /// which holds its own from pickup until the handler completes (the
    /// caller may be long gone).
    pub(crate) fn dispatch_async(
        &self,
        vcpu: usize,
        ep: EntryId,
        args: [u64; 8],
        program: ProgramId,
    ) -> Result<AsyncCall, RtError> {
        let sampled = self.obs().try_sample(vcpu);
        let claim = self.claim(vcpu, ep)?;
        // The async span is not installed (the caller continues past the
        // dispatch); it closes when the completion is observed. The
        // context word rides the slot so the worker's handler span — and
        // anything nested under it — parents here.
        let trace = self.spans().begin_client(sampled, false, vcpu, ep, SpanPhase::Async);
        let word = trace.as_ref().map_or(0, |tok| tok.ctx().pack());
        let worker = match self.post(&claim, args, program, None, false, word, sampled) {
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
        // The worker claims for itself from here.
        let who = claim.token();
        claim.transfer();
        self.stats.cell(vcpu).add(who, |c| &c.async_calls, 1);
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
        self.stats.cell(vcpu).add(claims::token(), |c| &c.upcalls, 1);
        Ok(r)
    }

    /// The one place a call is handed to a worker: pop a worker from the
    /// entry's pool on the claim's vCPU (or grow one), write the payload
    /// into its slot's page, fill the slot in place and post it. `sync`:
    /// the caller will wait on the slot and re-pool the worker (else
    /// nobody waits yet, and the worker claims for itself and pools
    /// itself once the handle hands the slot back); a non-zero
    /// `trace_word` rides the slot so the handler span parents under the
    /// caller's, and `sampled` — the caller's tick — decides whether the
    /// worker times the handler run. Also returns whether the worker had
    /// to be woken.
    ///
    /// Never releases the claim: on `Err` the call was not posted, or was
    /// posted and taken back, and the caller's [`Claim`] still owns the
    /// release. After an `Ok` from a non-`sync` post the caller's claim
    /// is handed over ([`Claim::transfer`]), so nothing past the post
    /// touches the entry unless the call was taken back.
    #[allow(clippy::too_many_arguments)] // the call frame, field by field
    pub(crate) fn post(
        &self,
        claim: &Claim<'_>,
        args: [u64; 8],
        program: ProgramId,
        payload: Option<&[u8]>,
        sync: bool,
        trace_word: u64,
        sampled: bool,
    ) -> Result<(Arc<WorkerHandle>, bool), RtError> {
        let (vcpu, ep) = (claim.vc().id, claim.id);
        // Worker: lock-free pool pop, or the Frank grow path.
        let worker = match claim.pool(vcpu).pop() {
            Some(w) => w,
            None => {
                let tf0 = Instant::now();
                let cold = self.stats.cell(vcpu);
                cold.add(NOBODY, |c| &c.frank_redirects, 1);
                cold.add(NOBODY, |c| &c.workers_created, 1);
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
                cold.add_time(TimeState::Frank, tf0.elapsed().as_nanos() as u64);
                w
            }
        };
        let slot = &worker.slot;
        // The payload is written before the post publishes the slot.
        if let Some(p) = payload {
            slot.write_payload(p);
        }
        slot.stage(args, program, sync, trace_word, sampled);
        // Racing a kill, the worker may have exited without seeing the
        // post: the call is ours again, and nobody else would ever
        // complete (or, for an async call, release the claim of) it.
        let woke = worker.post().ok_or(RtError::Aborted(ep))?;
        Ok((worker, woke))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crate::{EntryOptions, Runtime};

    /// Only sampled waits feed the vCPU's EWMA, and that is enough for it
    /// to follow a phase change: exchange a null hand-off entry for a
    /// 150 µs one and the budget must reach 0 (park at once) within 2 048
    /// calls — 16 sampled waits at the default 1 in 128, where 9 of ≥
    /// 150 µs carry the weight-⅛ EWMA past 100 µs from any start — and
    /// exchange it back and the budget must return within 8 192 calls
    /// (64 samples). Without the feed the EWMA never moves off 0, and
    /// the budget never off its default.
    #[test]
    fn sampled_waits_flip_the_vcpu_to_park_at_once_and_back() {
        let _watchdog = crate::wait::abort_if_hung("call.rs EWMA test");
        let rt = Runtime::new(1);
        assert_eq!(rt.obs().sample_shift(), crate::obs::DEFAULT_SAMPLE_SHIFT);
        let ep = rt.bind("phase", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let client = rt.client(0, 1);
        let vc = rt.vcpu(0).unwrap();
        for i in 0..1_024 {
            client.call(ep, [i; 8]).unwrap();
        }
        assert!(vc.spin_budget() > 0, "a null handler spins");
        let slow = Arc::new(|c: &mut crate::CallCtx<'_>| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(150) {
                std::hint::spin_loop();
            }
            c.args
        });
        rt.exchange(ep, slow, 0).unwrap();
        let to_park = (1..=2_048).find(|&i| {
            client.call(ep, [i; 8]).unwrap();
            vc.spin_budget() == 0
        });
        assert!(to_park.is_some(), "150 µs calls never flipped the vCPU to park at once");
        rt.exchange(ep, Arc::new(|c| c.args), 0).unwrap();
        let back = (1..=8_192).find(|&i| {
            client.call(ep, [i; 8]).unwrap();
            vc.spin_budget() > 0
        });
        assert!(back.is_some(), "null calls never brought the spin budget back");
    }
}
