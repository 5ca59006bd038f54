//! Worker threads and their per-vCPU pools.
//!
//! A worker is the runtime's analogue of the paper's worker *process*: it
//! belongs to one (entry point, vCPU) pair, idles parked in a lock-free
//! LIFO pool, is handed one call at a time through an atomic mailbox, and
//! re-pools itself after completing. Pools "most commonly contain only a
//! single worker, but can grow and shrink dynamically as needed".

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use crossbeam::queue::ArrayQueue;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::slot::CallSlot;
use crate::wait::{wait, Spin};
use crate::Handler;

/// Maximum pooled workers per (entry, vCPU).
pub const MAX_POOLED: usize = 64;

/// Shared handle to one worker thread.
///
/// The hot fields (`thread`, `mailbox`) are lock-free: posting a call is
/// one atomic swap plus an `unpark` against a `OnceLock`-published thread
/// handle — no mutex anywhere on the dispatch path. Overrides and
/// shutdown are cold; the fast path only crosses them via the `Relaxed`
/// `has_override` gate and an `Acquire` shutdown load.
pub struct WorkerHandle {
    /// The worker thread, for unparking. Written exactly once by the
    /// spawner before the worker becomes visible to any client, then read
    /// without synchronization cost on every post.
    thread: OnceLock<Thread>,
    /// Mailbox: the posted call slot (`Arc::into_raw` transferred).
    /// Padded: the mailbox ping-pongs between client and worker every
    /// call and must not share a line with the cold fields below.
    mailbox: CachePadded<AtomicPtr<CallSlot>>,
    /// Per-worker handler override (worker initialization, §4.5.3).
    override_handler: Mutex<Option<Handler>>,
    /// Whether an override is installed — the fast-path gate that keeps
    /// `override_handler`'s mutex off the common case entirely.
    has_override: AtomicBool,
    /// Shutdown request.
    shutdown: AtomicBool,
    /// Calls completed by this worker (diagnostics).
    pub calls: AtomicU64,
}

impl WorkerHandle {
    fn new() -> Arc<Self> {
        Arc::new(WorkerHandle {
            thread: OnceLock::new(),
            mailbox: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            override_handler: Mutex::new(None),
            has_override: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            calls: AtomicU64::new(0),
        })
    }

    /// Post `slot` to this worker and wake it. Transfers one strong
    /// reference through the mailbox. Lock-free: one swap, one unpark.
    pub fn post(&self, slot: Arc<CallSlot>) {
        let raw = Arc::into_raw(slot) as *mut CallSlot;
        let prev = self.mailbox.swap(raw, Ordering::AcqRel);
        debug_assert!(prev.is_null(), "worker double-posted");
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// The worker's thread handle, once spawned (for the rendezvous's
    /// donation escalation: the client priority-unparks this thread when
    /// its spin budget runs dry).
    pub(crate) fn thread(&self) -> Option<&Thread> {
        self.thread.get()
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

    /// Install a per-worker handler override. The content is published
    /// before the gate flips, so a worker that observes the gate with
    /// `Acquire` always finds the override behind the lock.
    pub fn set_override(&self, h: Handler) {
        *self.override_handler.lock() = Some(h);
        self.has_override.store(true, Ordering::Release);
    }

    /// Remove the override (used by Exchange so new code takes effect).
    pub fn clear_override(&self) {
        self.has_override.store(false, Ordering::Release);
        *self.override_handler.lock() = None;
    }

    /// The installed override, if any. The mutex is only ever taken when
    /// the gate says an override exists — workers with no initialization
    /// routine never touch a lock here.
    pub(crate) fn override_handler(&self) -> Option<Handler> {
        let installed = self.has_override.load(Ordering::Acquire);
        installed.then(|| self.override_handler.lock().clone()).flatten()
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
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
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
/// `CallSlot::wait_done_donate`, on the same primitive (`wait.rs`): a
/// yielding spin of `idle_spin` passes on the mailbox, then one park. In
/// a stream of back-to-back calls neither side ever reaches a futex: the
/// client posts while we are still spinning (its `unpark` then only sets
/// the token, no syscall). Budget 0 (`SpinPolicy::ParkOnly`) parks
/// immediately, keeping that baseline a pure park/unpark pair. No
/// sleeper flag: `post` and `request_shutdown` unpark unconditionally,
/// and a token set during the spin makes the park return at once. One
/// park per call — the worker loop re-runs its shutdown and mailbox
/// checks itself, so a spurious token costs another spin, not a hang.
fn idle_wait(
    entry: &crate::entry::EntryShared,
    me: &WorkerHandle,
    timer: &mut crate::stats::StateTimer<'_>,
) {
    let spin = Spin { budget: entry.idle_spin.load(Ordering::Relaxed), ..Spin::default() };
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
    wait(spin, None, ready, || (), park);
}

/// The worker thread body: park → take call → run handler → complete →
/// re-pool → park. (The spawner installed our thread handle and pooled us
/// before we became visible.)
fn worker_loop(entry: Arc<crate::entry::EntryShared>, me: Arc<WorkerHandle>, vcpu: usize) {
    // This thread's wall-time classifier: Idle on the mailbox spin, Park
    // across the futex wait (both inside `idle_wait`), Handler from call
    // pickup to completion. One timer per thread keeps the states
    // exclusive; the drop on return charges the tail interval.
    let mut timer =
        crate::stats::StateTimer::new(entry.stats.cell(vcpu), crate::stats::TimeState::Idle);
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
            idle_wait(&entry, &me, &mut timer);
            continue;
        };
        timer.transition(crate::stats::TimeState::Handler);

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
                entry.obs.try_sample(),
            )
        });
        if run.faulted {
            slot.mark_faulted();
        }
        timer.transition(crate::stats::TimeState::Idle);
        me.calls.fetch_add(1, Ordering::Relaxed);
        // The completion count lands on this vCPU's lifecycle shard —
        // the worker is bound to the caller's vCPU, so this is the same
        // cache line the caller's own accounting uses, never a remote
        // one. Claim release is ownership-split: a synchronous caller's
        // guard releases after it finishes reading the entry (releasing
        // here would let a reclaim free the entry under the caller);
        // async calls have no one else to do it.
        entry.record_completion(vcpu);
        if !slot.has_client() {
            entry.finish_call(vcpu, slot.parity());
        }
        // Re-pool *before* waking the client: a client that immediately
        // re-dispatches must find this worker idle again, not grow the
        // pool (the paper's single pooled worker handles back-to-back
        // calls).
        entry.pool(vcpu).push(Arc::clone(&me));
        slot.complete(run.rets);
        drop(slot);
    }
}
