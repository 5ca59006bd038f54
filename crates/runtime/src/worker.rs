//! Worker threads and their per-vCPU pools.
//!
//! A worker is the runtime's analogue of the paper's worker *process*: it
//! belongs to one (entry point, vCPU) pair, idles parked in a lock-free
//! pool and is handed one call at a time through an atomic mailbox.
//! Pools "most commonly contain only a single worker, but can grow and
//! shrink dynamically as needed".
//!
//! Who pools when: a **synchronous caller** popped the worker, so it
//! pushes it back once it has observed `DONE` — the pool's lines and the
//! handle's reference count are written from the caller's CPU only. A
//! worker **pools itself** only when nobody else will (async calls,
//! upcalls), before it completes. The price: a caller slow to wake keeps
//! its worker, and a second caller on that vCPU takes the Frank path.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use crossbeam::queue::ArrayQueue;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::slot::CallSlot;
use crate::wait::{notify, wait, Poll, Sleeper, Spin};
use crate::Handler;

/// Maximum pooled workers per (entry, vCPU).
pub const MAX_POOLED: usize = 64;

/// Shared handle to one worker thread.
///
/// The hot fields (`thread`, `mailbox`) are lock-free: posting a call is
/// one atomic swap plus — only if the worker announced its sleep — an
/// `unpark` against a `OnceLock`-published thread handle; no mutex
/// anywhere on the dispatch path. Overrides and shutdown are cold; the
/// fast path only loads the override generation and the shutdown flag
/// (`Acquire`). A test pins three groups of lines apart:
/// what a caller only *reads* (`thread`, `shutdown`, `asleep` — written
/// when the worker blocks, not per call), the mailbox both sides swap,
/// and what only the worker writes (`calls`).
pub struct WorkerHandle {
    /// The worker thread, for unparking. Written exactly once by the
    /// spawner before the worker becomes visible to any client, then read
    /// without synchronization cost on every post.
    thread: OnceLock<Thread>,
    /// The worker's sleeper flag (`wait.rs`): 1 while it is about to
    /// park on an empty mailbox, or parked.
    asleep: AtomicU32,
    /// Mailbox: the posted call slot (`Arc::into_raw` transferred).
    /// Padded: the mailbox ping-pongs between client and worker every
    /// call and must not share a line with the cold fields below.
    mailbox: CachePadded<AtomicPtr<CallSlot>>,
    /// Per-worker handler override (worker initialization, §4.5.3), and
    /// its generation, bumped under the lock by every `set_override`.
    override_handler: Mutex<Option<Handler>>,
    override_gen: AtomicU64,
    /// Shutdown request.
    shutdown: AtomicBool,
    /// Calls completed by this worker (diagnostics). Padded: written by
    /// the worker per call, off the lines `post` reads.
    pub calls: CachePadded<AtomicU64>,
}

impl WorkerHandle {
    fn new() -> Arc<Self> {
        Arc::new(WorkerHandle {
            thread: OnceLock::new(),
            asleep: AtomicU32::new(0),
            mailbox: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            override_handler: Mutex::new(None),
            override_gen: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            calls: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// Post `slot` to this worker, transferring one strong reference
    /// through the mailbox, and wake it if it sleeps: one swap, a fence
    /// and a load. Returns whether it had to wake.
    pub fn post(&self, slot: Arc<CallSlot>) -> bool {
        let raw = Arc::into_raw(slot) as *mut CallSlot;
        let prev = self.mailbox.swap(raw, Ordering::AcqRel);
        debug_assert!(prev.is_null(), "worker double-posted");
        notify(self.sleeper(), || self.unpark())
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

    pub(crate) fn take_mail(&self) -> Option<Arc<CallSlot>> {
        let raw = self.mailbox.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if raw.is_null() {
            None
        } else {
            // Safety: `post` transferred exactly one strong reference.
            Some(unsafe { Arc::from_raw(raw) })
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
    /// locking only when the generation moved. Called after the mailbox
    /// take, so a call posted once an exchange returned sees its clear.
    fn refresh_override(&self, mine: &mut (u64, Option<Handler>)) {
        if self.override_gen.load(Ordering::Acquire) != mine.0 {
            *mine = {
                let slot = self.override_handler.lock();
                (self.override_gen.load(Ordering::Relaxed), slot.clone())
            };
        }
    }

    /// Has this worker been asked to shut down? `Acquire` pairs with the
    /// `Release` in [`WorkerHandle::request_shutdown`]; the dispatch fast
    /// path performs this load, so it must not be (and is not) SeqCst.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
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
/// `poll`, a yielding spin of `idle_spin` passes on the mailbox, then the
/// announced park that `post` pairs with. In a stream of back-to-back
/// calls neither side ever reaches a futex: the client posts while we
/// are still spinning, reads our flag, and wakes nobody. Budget 0
/// (`SpinPolicy::ParkOnly`) parks immediately — no poll either — keeping
/// that baseline a pure park/unpark pair. One park per call — the worker
/// loop re-runs its shutdown and mailbox checks itself, so the stray
/// token of an unconditional `unpark` costs another spin, not a hang.
fn idle_wait(
    entry: &crate::entry::EntryShared,
    me: &WorkerHandle,
    poll: Option<&mut Poll>,
    timer: &mut crate::stats::StateTimer<'_>,
) {
    let budget = entry.idle_spin.load(Ordering::Relaxed);
    let spin = Spin { poll: poll.filter(|_| budget > 0), budget, rounds: 0 };
    let ready = || {
        !me.mailbox.load(Ordering::Relaxed).is_null() || me.shutdown.load(Ordering::Relaxed)
    };
    let park = || {
        // The spin was Idle time; the park interval is Park time.
        timer.transition(crate::stats::TimeState::Park);
        std::thread::park();
        timer.transition(crate::stats::TimeState::Idle);
        false
    };
    wait(spin, Some(me.sleeper()), ready, || (), park);
}

/// The worker thread body: park → take call → run handler → complete →
/// park. (The spawner installed our thread handle and pooled us before
/// we became visible.)
fn worker_loop(entry: Arc<crate::entry::EntryShared>, me: Arc<WorkerHandle>, vcpu: usize) {
    // This thread's wall-time classifier: Idle on the mailbox spin, Park
    // across the futex wait (both inside `idle_wait`), Handler from call
    // pickup to completion. One timer per thread keeps the states
    // exclusive; the drop on return charges the tail interval. It writes
    // the vCPU's *served* cell: the caller's counters are on other lines.
    let mut timer =
        crate::stats::StateTimer::new(entry.stats.served_cell(vcpu), crate::stats::TimeState::Idle);
    // The mailbox's learned poll (this loop is its only writer), skipped
    // when the last completion had to wake its waiter (see `wait.rs`).
    let (mut poll, mut woke) = (Poll::default(), false);
    let mut over = (0, None);
    loop {
        if me.shutdown.load(Ordering::Acquire) {
            // A client may have posted a call in the window between
            // popping this worker and our shutdown: complete it with the
            // abort marker so the caller is never left parked forever
            // (it will observe the entry's Dead state and report
            // `Aborted`). A waiting client owns the claim release (its
            // guard drops after it reads the entry state); for async
            // calls nobody else will, so release it here.
            if let Some(slot) = me.take_mail() {
                if !slot.has_client() {
                    entry.finish_call(vcpu, slot.parity());
                }
                slot.complete(crate::slot::ABORT_RETS);
            }
            return;
        }
        let Some(slot) = me.take_mail() else {
            idle_wait(&entry, &me, (!woke).then_some(&mut poll), &mut timer);
            continue;
        };
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
        me.calls.fetch_add(1, Ordering::Relaxed);
        // A synchronous caller holds the claim (releasing it here would
        // let a reclaim free the entry under the caller), counts the
        // completion on its own lifecycle line and re-pools us once it
        // sees `DONE`. Async calls and upcalls have no one else: count,
        // release the claim under the parity that rode the slot, and
        // re-pool *before* completing, so a waiter that re-dispatches at
        // once finds this worker idle.
        if !slot.has_client() {
            entry.record_completion(vcpu);
            entry.finish_call(vcpu, slot.parity());
            entry.pool(vcpu).push(Arc::clone(&me));
        }
        woke = slot.complete(run.rets);
        drop(slot);
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
        // … against what the worker writes per call, and the mailbox.
        let written = [pairs(&*w.calls), pairs(&*w.mailbox)];
        for r in &read {
            for x in &written {
                assert!(apart(r, x), "caller-read {r:?} shares a line pair with {x:?}");
            }
        }
        assert!(apart(&written[0], &written[1]), "`calls` shares the mailbox's line pair");
        let stats = crate::stats::RuntimeStats::new(3);
        for v in 0..3 {
            let (c, s) = (pairs(stats.cell(v)), pairs(stats.served_cell(v)));
            assert!(apart(&c, &s), "vCPU {v}: callers' cell {c:?} against served cell {s:?}");
        }
    }

    /// The mailbox pair for real: `post` wakes by the worker's flag
    /// while a bystander showers the worker with unconditional `unpark`s
    /// (what `request_shutdown` and the donation rounds issue), under
    /// `ParkOnly` so that the worker parks between any two calls. A stray
    /// token may cost it a pass of its idle wait; no call may hang.
    #[test]
    fn stray_unparks_cost_a_spin_never_a_hang() {
        let _watchdog = crate::wait::abort_if_hung("worker.rs mailbox test");
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
}
