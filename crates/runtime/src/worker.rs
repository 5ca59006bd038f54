//! Worker threads and their per-vCPU pools.
//!
//! A worker is the runtime's analogue of the paper's worker *process*: it
//! belongs to one (entry point, vCPU) pair, idles in a lock-free pool,
//! and owns its call slot (hold-CD: it keeps its CD and stack page). The
//! caller that popped it fills that slot in place and posts it; the
//! worker's idle wait polls the slot's state word. Pools "most commonly
//! contain only a single worker, but can grow and shrink dynamically as
//! needed".
//!
//! Who pools when: a **synchronous caller** popped the worker, so it
//! pushes it back once it has read the results — the pool's lines are
//! written from the caller's CPU only. An async handle holds no claim,
//! so it never touches the pool: the worker pools *itself* once the
//! handle hands the slot back. The price: a caller slow to wake keeps its
//! worker, and a second caller on that vCPU takes the Frank path.

use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use crossbeam::queue::ArrayQueue;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::slot::{state, CallSlot};
use crate::wait::{notify, wait, Poll, Sleeper, Spin};
use crate::Handler;

/// Maximum pooled workers per (entry, vCPU).
pub const MAX_POOLED: usize = 64;

/// Shared handle to one worker thread.
///
/// Posting a call is a `Release` store into the worker's own slot, a
/// fence and a load, plus — only if the worker announced its sleep — an
/// `unpark`; no mutex anywhere on the dispatch path. A test pins three
/// groups of lines apart: what a caller only *reads* (`thread`,
/// `shutdown`, `asleep` — written when the worker blocks, not per call),
/// the slot both sides write in turn, and what only the worker writes
/// (`calls`).
pub struct WorkerHandle {
    /// The worker thread, for unparking. Written exactly once by the
    /// spawner before the worker becomes visible to any client, then read
    /// without synchronization cost on every post.
    thread: OnceLock<Thread>,
    /// The worker's sleeper flag (`wait.rs`): 1 while it is about to
    /// park waiting on its slot, or parked.
    asleep: AtomicU32,
    /// Per-worker handler override (worker initialization, §4.5.3), and
    /// its generation, bumped under the lock by every `set_override`.
    override_handler: Mutex<Option<Handler>>,
    override_gen: AtomicU64,
    /// Shutdown request, and the worker's last word: its final look at
    /// its slot is done (see [`WorkerHandle::post`]).
    shutdown: AtomicBool,
    exited: AtomicBool,
    /// The worker's own call slot: whoever popped (or grew) the worker
    /// fills it, the worker owns it while `POSTED`. Padded: its lines go
    /// back and forth once per call, apart from the words around it.
    pub(crate) slot: CachePadded<CallSlot>,
    /// Calls this worker is done with (diagnostics) — an async one once
    /// its handle handed the slot back and the worker pooled itself.
    /// Padded: written by the worker per call, off the lines `post` reads.
    pub calls: CachePadded<AtomicU64>,
}

impl WorkerHandle {
    fn new() -> Arc<Self> {
        Arc::new(WorkerHandle {
            thread: OnceLock::new(),
            asleep: AtomicU32::new(0),
            override_handler: Mutex::new(None),
            override_gen: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            exited: AtomicBool::new(false),
            slot: CachePadded::new(*CallSlot::new()),
            calls: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// Post the filled slot (`POSTED`, `Release`) and wake the worker if
    /// it sleeps. Returns whether it had to wake — or `None`: the worker
    /// was shutting down and exited without seeing the post, so the call
    /// is the caller's again (nobody will ever complete it).
    ///
    /// ORDERING: exactly one side gets the call. The caller stores
    /// `POSTED`, fences (`SeqCst`, in `notify`) and loads `shutdown`; the
    /// worker loads `shutdown`, fences, takes its final look at the slot
    /// and only then stores `exited` (`Release`). A caller that read
    /// `shutdown` false has its fence first in the total order (the
    /// request happens before the worker's fence, and the caller's load
    /// missed it), so the final look sees `POSTED` and the worker
    /// completes the call. One that read it true waits for `DONE` or
    /// `exited`: a final look that saw `POSTED` stores `DONE` before
    /// `exited`, so `exited` without `DONE` (re-read after the `Acquire`)
    /// means the worker missed the post and will never touch the slot.
    pub(crate) fn post(&self) -> Option<bool> {
        self.slot.core.post();
        let woke = notify(self.sleeper(), || self.unpark());
        if self.shutdown.load(Ordering::Acquire) {
            while !self.slot.is_done() && !self.exited.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            if !self.slot.is_done() {
                return None;
            }
        }
        Some(woke)
    }

    /// An async handle's last act: hand the slot back (`IDLE`) and wait
    /// until the worker has pooled itself (its `calls` moves) or exited,
    /// so the drop returns with the worker ready for the next call.
    pub(crate) fn hand_back(&self) {
        let before = self.calls.load(Ordering::Acquire);
        self.slot.core.reset();
        notify(self.sleeper(), || self.unpark());
        while self.calls.load(Ordering::Acquire) == before && !self.exited.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    fn sleeper(&self) -> Sleeper<'_> {
        Sleeper { word: &self.asleep, asleep: 1, awake: 0 }
    }

    /// Unpark the worker whatever its flag says (shutdown; the donation
    /// rounds of a client whose spin budget ran dry). A token it did not
    /// need costs the worker one more pass of its idle wait.
    pub(crate) fn unpark(&self) {
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Install a per-worker handler override, or remove it (`None`:
    /// Exchange does, so that new code takes effect).
    pub fn set_override(&self, h: Option<Handler>) {
        let mut slot = self.override_handler.lock();
        *slot = h;
        self.override_gen.fetch_add(1, Ordering::Release);
    }

    /// Bring the worker's `(generation, override)` copy up to date,
    /// locking only when the generation moved. Called after the worker
    /// acquired a `POSTED` slot, so a call posted once an exchange
    /// returned sees its clear.
    fn refresh_override(&self, mine: &mut (u64, Option<Handler>)) {
        if self.override_gen.load(Ordering::Acquire) != mine.0 {
            *mine = {
                let slot = self.override_handler.lock();
                (self.override_gen.load(Ordering::Relaxed), slot.clone())
            };
        }
    }

    /// Request shutdown and wake the worker.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.unpark();
    }
}

/// A worker plus its join handle (taken when reaped).
type WorkerRecord = (Arc<WorkerHandle>, Option<JoinHandle<()>>);

/// The per-(entry, vCPU) worker pool.
pub struct WorkerPool {
    idle: ArrayQueue<Arc<WorkerHandle>>,
    /// All workers ever created here (for reaping).
    all: Mutex<Vec<WorkerRecord>>,
    /// Workers created (diagnostics).
    pub created: AtomicU64,
}

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkerPool {
            idle: ArrayQueue::new(MAX_POOLED),
            all: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
        }
    }

    /// Pop an idle worker (lock-free fastpath).
    pub fn pop(&self) -> Option<Arc<WorkerHandle>> {
        self.idle.pop()
    }

    /// Return a worker to the pool.
    pub fn push(&self, w: Arc<WorkerHandle>) {
        let _ = self.idle.push(w);
    }

    /// Idle count (diagnostics).
    pub fn idle_len(&self) -> usize {
        self.idle.len()
    }

    /// Create a worker thread bound to `entry`'s dispatch loop on `vcpu`.
    /// `cpu` pins the thread there when set; `pool_it` leaves the worker
    /// idle in the pool (bind-time pre-spawn), otherwise it is handed
    /// directly to the caller (the Frank grow-on-demand path).
    ///
    /// The thread handle is installed by the *spawner* before the worker
    /// becomes visible, so a post can never miss its unpark target.
    pub fn grow(
        &self,
        entry: &Arc<crate::entry::EntryShared>,
        vcpu: usize,
        cpu: Option<usize>,
        pool_it: bool,
    ) -> Arc<WorkerHandle> {
        let w = WorkerHandle::new();
        let entry2 = Arc::clone(entry);
        let w2 = Arc::clone(&w);
        let name = format!("ppc-worker-e{}-v{}", entry.id, vcpu);
        let jh = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                if let Some(cpu) = cpu {
                    crate::affinity::pin_current(cpu);
                }
                worker_loop(entry2, w2, vcpu);
            })
            .expect("spawn worker thread");
        w.thread.set(jh.thread().clone()).expect("thread handle set once");
        self.created.fetch_add(1, Ordering::Relaxed);
        self.all.lock().push((Arc::clone(&w), Some(jh)));
        if pool_it {
            self.push(Arc::clone(&w));
        }
        w
    }

    /// Whether a live worker here holds an async call it was handed and
    /// has not completed (`POSTED`, no client waiting). A worker that
    /// exited never runs its slot again: a post it missed was taken back
    /// (`WorkerHandle::post`) and stays `POSTED`. Cold path.
    pub(crate) fn async_posted(&self) -> bool {
        let held = |w: &WorkerHandle| {
            w.slot.core.state_word().load(Ordering::Acquire) == state::POSTED
                && !w.slot.has_client()
                && !w.exited.load(Ordering::Acquire)
        };
        self.all.lock().iter().any(|(w, _)| held(w))
    }

    /// Visit every worker ever created in this pool (cold path).
    pub fn for_each_worker(&self, mut f: impl FnMut(&WorkerHandle)) {
        for (w, _) in self.all.lock().iter() {
            f(w);
        }
    }

    /// Shut down every worker and join the threads.
    pub fn reap(&self) {
        let mut all = self.all.lock();
        for (w, _) in all.iter() {
            w.request_shutdown();
        }
        for (_, jh) in all.iter_mut() {
            if let Some(jh) = jh.take() {
                let _ = jh.join();
            }
        }
        while self.idle.pop().is_some() {}
    }

    /// Shut down surplus idle workers beyond `keep` ("pools can grow and
    /// shrink dynamically"). Returns how many were reaped.
    pub fn shrink_to(&self, keep: usize) -> usize {
        let mut reaped = 0;
        while self.idle.len() > keep {
            match self.idle.pop() {
                Some(w) => {
                    w.request_shutdown();
                    reaped += 1;
                }
                None => break,
            }
        }
        // Join the reaped threads.
        let mut all = self.all.lock();
        for (w, jh) in all.iter_mut() {
            if w.shutdown.load(Ordering::Acquire) {
                if let Some(jh) = jh.take() {
                    let _ = jh.join();
                }
            }
        }
        reaped
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

/// Idle rendezvous, worker side — the mirror of the client's
/// `CallSlot::wait_done`, on the same primitive (`wait.rs`): the learned
/// `poll`, a yielding spin of `idle_spin` passes until the slot's state
/// reads `want`, then the announced park that `post` pairs with. In a
/// stream of back-to-back calls neither side ever reaches a futex. Budget
/// 0 (`SpinPolicy::ParkOnly`) parks immediately — no poll either. One
/// park per call — the worker loop re-runs its own checks, so the stray
/// token of an unconditional `unpark` costs another spin, not a hang.
fn idle_wait(
    entry: &crate::entry::EntryShared,
    me: &WorkerHandle,
    want: u32,
    poll: Option<&mut Poll>,
    timer: &mut crate::stats::StateTimer<'_>,
) {
    let budget = entry.idle_spin.load(Ordering::Relaxed);
    let spin = Spin { poll: poll.filter(|_| budget > 0), budget, rounds: 0 };
    let st = me.slot.core.state_word();
    let ready =
        || st.load(Ordering::Relaxed) == want || me.shutdown.load(Ordering::Relaxed);
    let park = || {
        // The spin was Idle time; the park interval is Park time.
        timer.transition(crate::stats::TimeState::Park);
        std::thread::park();
        timer.transition(crate::stats::TimeState::Idle);
        false
    };
    wait(spin, Some(me.sleeper()), ready, || (), park);
}

/// The worker thread body: wait for `POSTED` → run handler → complete →
/// wait. (The spawner installed our thread handle and pooled us before
/// we became visible.)
fn worker_loop(entry: Arc<crate::entry::EntryShared>, me: Arc<WorkerHandle>, vcpu: usize) {
    // This thread's wall-time classifier: Idle on the slot spin, Park
    // across the futex wait (both inside `idle_wait`), Handler from call
    // pickup to completion. One timer per thread keeps the states
    // exclusive; the drop on return charges the tail interval. It writes
    // the vCPU's *served* cell: the caller's counters are on other lines.
    let mut timer =
        crate::stats::StateTimer::new(entry.stats.served_cell(vcpu), crate::stats::TimeState::Idle);
    // The slot's learned poll (this loop is its only writer), skipped
    // when the last completion had to wake its waiter (see `wait.rs`).
    let (mut poll, mut woke) = (Poll::default(), false);
    let mut over = (0, None);
    let slot = &me.slot;
    // An async result not yet handed back: wait for `IDLE`, then pool.
    let mut owed = false;
    loop {
        if me.shutdown.load(Ordering::Acquire) {
            // The final look (ORDERING: `WorkerHandle::post`): a call
            // posted between the pop and our shutdown completes with the
            // abort marker (the caller reads the entry's Dead state and
            // reports `Aborted`); an async one's claim was the `POSTED`
            // slot, released by the completion.
            fence(Ordering::SeqCst);
            if slot.core.state_word().load(Ordering::Acquire) == state::POSTED {
                slot.complete(crate::slot::ABORT_RETS);
            }
            me.exited.store(true, Ordering::Release);
            return;
        }
        let want = if owed { state::IDLE } else { state::POSTED };
        if slot.core.state_word().load(Ordering::Acquire) != want {
            idle_wait(&entry, &me, want, (!woke).then_some(&mut poll), &mut timer);
            continue;
        }
        if owed {
            // Pooled first, then counted: `hand_back` waits for the count.
            owed = false;
            entry.pool(vcpu).push(Arc::clone(&me));
            me.calls.fetch_add(1, Ordering::Release);
            continue;
        }
        // An async call's caller has let go of its claim: take our own
        // before anything reads the entry's handler (`Claim::transfer`).
        #[cfg(test)] crate::claims::pause::point("pickup");
        let held = (!slot.has_client()).then(|| crate::claims::push(Arc::as_ptr(&entry)));
        timer.transition(crate::stats::TimeState::Handler);
        me.refresh_override(&mut over);

        // A faulting (panicking) handler must not take the worker — or the
        // parked client — down with it: the paper chose worker processes
        // precisely so failure modes "more closely follow those of a
        // message exchange" (§2). The handler span opens under the context
        // that rode the slot across the hand-off and ends inside
        // `run_handler` — before `complete` — so the DONE Release/Acquire
        // edge orders our ring write before any client-side scan of the
        // trace. Handler-run timing samples on *this* worker thread's
        // tick — per-thread sampling needs no coordination with the
        // client side.
        let run = slot.with_scratch(|scratch| {
            entry.run_handler(
                vcpu,
                slot.read_args(),
                slot.caller_program(),
                slot.trace_word(),
                crate::ScratchRef::Ready(scratch),
                Some(&me),
                over.1.as_ref(),
                entry.obs.try_sample(),
            )
        });
        if run.faulted {
            slot.mark_faulted();
        }
        // A synchronous caller holds the claim until it has read the
        // results, counts the completion on its own vCPU's line and
        // re-pools us. Async calls and upcalls have no one else: count,
        // release our claim and owe the re-pool.
        if held.is_none() {
            me.calls.fetch_add(1, Ordering::Relaxed);
        } else {
            entry.record_completion(vcpu);
            drop(held);
            owed = true;
        }
        woke = slot.complete(run.rets);
        // The clock read that ends Handler time comes after `DONE`: it
        // is off the waiting caller's critical path.
        timer.transition(crate::stats::TimeState::Idle);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::ops::RangeInclusive;

    /// The 128-byte line pairs (`CachePadded`'s unit) `x` occupies.
    pub(crate) fn pairs<T>(x: &T) -> RangeInclusive<usize> {
        let at = x as *const T as usize;
        at / 128..=(at + std::mem::size_of::<T>().max(1) - 1) / 128
    }

    pub(crate) fn apart(a: &RangeInclusive<usize>, b: &RangeInclusive<usize>) -> bool {
        a.end() < b.start() || b.end() < a.start()
    }

    /// Who writes which line: fails when a hot word of the hand-off moves
    /// onto a line the other side writes. (`SlotCore`'s three lines are
    /// asserted at compile time, beside the struct.)
    #[test]
    fn hot_words_keep_to_their_lines() {
        let w = WorkerHandle::new();
        // What a caller reads on every post …
        let read = [pairs(&w.thread), pairs(&w.shutdown), pairs(&w.asleep)];
        // … against what the worker writes per call, and the slot's three
        // lines, which both sides write in turn.
        let written = [pairs(&*w.calls), pairs(&w.slot.core)];
        assert_eq!(written[1].clone().count(), 2, "the slot core starts on a pair boundary");
        for r in &read {
            for x in &written {
                assert!(apart(r, x), "caller-read {r:?} shares a line pair with {x:?}");
            }
        }
        assert!(apart(&written[0], &written[1]), "`calls` shares the slot's line pairs");
        let stats = crate::stats::RuntimeStats::new(3);
        for v in 0..3 {
            let (c, s) = (pairs(stats.cell(v)), pairs(stats.served_cell(v)));
            assert!(apart(&c, &s), "vCPU {v}: callers' cell {c:?} against served cell {s:?}");
        }
    }

    /// The slot pair for real: `post` wakes by the worker's flag
    /// while a bystander showers the worker with unconditional `unpark`s
    /// (what `request_shutdown` and the donation rounds issue), under
    /// `ParkOnly` so that the worker parks between any two calls. A stray
    /// token may cost it a pass of its idle wait; no call may hang.
    #[test]
    fn stray_unparks_cost_a_spin_never_a_hang() {
        let _watchdog = crate::wait::abort_if_hung("worker.rs stray-unpark test");
        let rt = crate::Runtime::new(1);
        rt.set_spin_policy(crate::SpinPolicy::ParkOnly);
        let ep = rt.bind("null", crate::EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let (entry, client) = (rt.frank_entry(ep).unwrap(), rt.client(0, 1));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    entry.pool(0).for_each_worker(WorkerHandle::unpark);
                    std::thread::yield_now();
                }
            });
            for i in 0..20_000 {
                assert_eq!(client.call(ep, [i; 8]), Ok([i; 8]));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(rt.stats.workers_created(), 0, "one worker served every call");
    }

    /// A post racing a kill goes to exactly one side. 10⁴ rounds of a
    /// `post`, sync and async in turn, against a `hard_kill` that shuts
    /// its worker down, each round then reclaimed: each
    /// call is served (its own result), aborted by the worker's final look
    /// (`ABORT_RETS`), or taken back (`Aborted`, the worker gone), and its
    /// handler runs at most once. Then a shut-down worker that a late
    /// re-pool put back must give its post back: a worker that exited
    /// never completes a call, so without the take-back that call would
    /// wait forever.
    #[test]
    fn a_post_racing_a_kill_goes_to_exactly_one_side() {
        use crate::{EntryOptions, RtError};
        let _watchdog = crate::wait::abort_if_hung("worker.rs shutdown-race test");
        let rt = crate::Runtime::new(1);
        let runs = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&runs);
        let handler: Handler = Arc::new(move |c| {
            counted.fetch_add(1, Ordering::Relaxed);
            c.args
        });
        let mut seen = [0u32; 3];
        for round in 0..10_000u64 {
            let ep = rt.bind("racy", EntryOptions::default(), Arc::clone(&handler)).unwrap();
            let before = runs.load(Ordering::Relaxed);
            let claim = rt.claim(0, ep).unwrap();
            let go = std::sync::Barrier::new(2);
            let posted = std::thread::scope(|s| {
                s.spawn(|| {
                    go.wait();
                    rt.hard_kill(ep, 0).unwrap();
                });
                go.wait();
                // Sync and async alike: a taken-back async post must not
                // look held to the reclaim below.
                let posted = rt.post(&claim, [round; 8], 1, None, round % 2 == 0, 0);
                if let Ok((w, _)) = &posted {
                    while !w.slot.is_done() {
                        std::thread::yield_now();
                    }
                }
                posted
            });
            let ran = runs.load(Ordering::Relaxed) - before;
            let outcome = match posted {
                Ok((w, _)) if w.slot.read_rets() == [round; 8] => 0,
                Ok((w, _)) => {
                    assert_eq!(w.slot.read_rets(), crate::slot::ABORT_RETS);
                    1
                }
                Err(e) => {
                    assert_eq!(e, RtError::Aborted(ep));
                    2
                }
            };
            assert_eq!(ran, u64::from(outcome == 0), "round {round}: {outcome}, {ran} runs");
            seen[outcome] += 1;
            drop(claim);
            rt.reclaim_slot(ep, 0).unwrap();
        }
        assert!(seen.iter().all(|&n| n > 0), "served / aborted / taken back: {seen:?}");

        let ep = rt.bind("late", EntryOptions::default(), handler).unwrap();
        let entry = rt.frank_entry(ep).unwrap();
        let w = entry.pool(0).pop().unwrap();
        entry.reap_workers();
        assert!(w.exited.load(Ordering::Acquire));
        entry.pool(0).push(w);
        let claim = rt.claim(0, ep).unwrap();
        let before = runs.load(Ordering::Relaxed);
        match rt.post(&claim, [7; 8], 1, None, true, 0) {
            Err(e) => assert_eq!(e, RtError::Aborted(ep)),
            Ok(_) => panic!("a worker that exited accepted a post"),
        }
        assert_eq!(runs.load(Ordering::Relaxed), before);
    }
}
