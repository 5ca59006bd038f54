//! Claim cells: how a call keeps its entry alive without a locked
//! instruction (DESIGN §9 has the full ordering argument).
//!
//! Every thread that claims owns one [`ClaimCell`], a stack of frames
//! only that thread writes: a claim pushes the entry's address with a
//! plain store, a release clears it with one, and a nested call pushes
//! the next frame. The writers — reclaim, exchange and the kill drains —
//! pay instead: after the store that hides the entry (or its old
//! handler) they take a [`snapshot`], which issues `membarrier(2)`
//! (`PRIVATE_EXPEDITED`, the paper's remote interrupt) and scans every
//! cell, and wait out the claims it found. This is liburcu's "memb"
//! flavour (Desnoyers et al., IEEE TPDS 2012).
//!
//! ORDERING: the reader stores its frame, [`order`]s, then re-loads
//! what it claimed through; the writer stores, barriers, then scans.
//! The barrier is a full fence on every CPU running a thread of this
//! process, so either the scan sees the frame or the reader's loads see
//! the writer's store, and [`order`] only has to stop the compiler. If
//! registration is refused, both sides use `fence(SeqCst)` instead.
//!
//! A frame word is the address (128-aligned) or'ed with the frame's push
//! count mod 128: a writer waits for the word it saw to change, so for
//! *that* claim only, and terminates under continuous traffic. Cells are
//! process-wide (so is `membarrier`) and never freed: an exiting
//! thread's cell goes to a free list. A cell's address is also its
//! thread's counting identity, the [`Token`] a stats cell's owner is
//! known by.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{compiler_fence, fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

use parking_lot::Mutex;

use crate::entry::EntryShared;

/// Frames per cell. `fs_chain` nests 2 deep (the file server's handler
/// calls the copy server); claims past `DEPTH` spill to a mutexed list.
pub(crate) const DEPTH: usize = 8;
/// The push-count bits of a frame word.
const TAG: usize = 127;
const _: () = assert!(std::mem::align_of::<EntryShared>() > TAG);

/// One thread's claims, on a line pair of its own.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct ClaimCell {
    frames: [AtomicUsize; DEPTH],
    /// Frames in use; only the owner reads or writes it.
    top: AtomicUsize,
    /// Claims past `DEPTH`: (entry address, id), and the last id handed
    /// out (ids start at `DEPTH`, so a [`Held`] tells the two apart).
    overflow: Mutex<(usize, Vec<(usize, usize)>)>,
}

/// Every cell, and the free ones.
type Registry = (Vec<&'static ClaimCell>, Vec<&'static ClaimCell>);
static REGISTRY: Mutex<Registry> = Mutex::new((Vec::new(), Vec::new()));

/// Whether writers issue `membarrier`, so that readers need only a
/// compiler fence: set by [`register`], false if the kernel refused.
static EXPEDITED: AtomicBool = AtomicBool::new(false);
static REGISTERED: Once = Once::new();

/// Register this process for expedited `membarrier`, once (the first
/// `Runtime::new`): it costs microseconds single-threaded but ~10 ms
/// once a second thread lives, and `fork` inherits it.
pub(crate) fn register() {
    REGISTERED.call_once(|| EXPEDITED.store(crate::shm::membarrier(true), Ordering::SeqCst));
}

/// The reader's half of the ordering argument: between its frame store
/// and its validating loads.
#[inline(always)]
fn order() {
    if EXPEDITED.load(Ordering::Relaxed) {
        compiler_fence(Ordering::SeqCst);
    } else {
        fence(Ordering::SeqCst);
    }
}

thread_local! {
    static CELL: Cell<Option<&'static ClaimCell>> = const { Cell::new(None) };
    static LEAVE: Leave = const { Leave };
}

/// Hands the thread's cell back when the thread exits.
struct Leave;

impl Drop for Leave {
    fn drop(&mut self) {
        if let Some(c) = CELL.with(Cell::take) {
            assert!(c.is_empty(), "a thread exited holding a claim");
            REGISTRY.lock().1.push(c);
        }
    }
}

impl ClaimCell {
    fn is_empty(&self) -> bool {
        self.top.load(Ordering::Relaxed) == 0 && self.overflow.lock().1.is_empty()
    }

    /// A claim past `DEPTH`: on the overflow list, under its lock.
    #[cold]
    fn spill(&self, e: usize) -> usize {
        let mut o = self.overflow.lock();
        o.0 = o.0.max(DEPTH - 1) + 1;
        let id = o.0;
        o.1.push((e, id));
        id
    }

    #[cold]
    fn unspill(&self, id: usize) {
        self.overflow.lock().1.retain(|&(_, i)| i != id);
    }
}

/// A thread's counting identity: its claim cell's address. ORDERING: it
/// passes to another thread only with the cell, through [`REGISTRY`]'s
/// mutex, so the old holder's last count happens before the new one's
/// first (DESIGN §9). Cells are never freed: a token is never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Token(pub(crate) usize);

/// No cell's address: cold counts (bind, grow, Frank) never own a cell.
pub(crate) const NOBODY: Token = Token(1);

/// The calling thread's [`Token`], for a count with no claim at hand.
#[inline]
pub(crate) fn token() -> Token {
    Token(CELL.with(Cell::get).unwrap_or_else(adopt) as *const ClaimCell as usize)
}

/// The calling thread's first claim: adopt a free cell or leak a new one.
#[cold]
fn adopt() -> &'static ClaimCell {
    let cell = {
        let (all, free) = &mut *REGISTRY.lock();
        free.pop().unwrap_or_else(|| {
            all.push(Box::leak(Box::default()));
            all[all.len() - 1]
        })
    };
    // A thread already past its TLS destructors keeps the cell for good.
    let _ = LEAVE.try_with(|_| ());
    CELL.with(|s| s.set(Some(cell)));
    cell
}

/// A claim on the calling thread's cell; dropping it releases the claim
/// (on the same thread: it is neither `Send` nor `Sync`).
pub(crate) struct Held {
    pub(crate) cell: &'static ClaimCell,
    /// A frame index, or an overflow id (`>= DEPTH`).
    at: usize,
    _thread: PhantomData<*const ()>,
}

/// Claim `e` on the calling thread's cell, then [`order`]: the caller's
/// next load of the word it found `e` through validates the claim.
#[inline]
pub(crate) fn push(e: *const EntryShared) -> Held {
    let cell = CELL.with(Cell::get).unwrap_or_else(adopt);
    let top = cell.top.load(Ordering::Relaxed);
    let at = if top < DEPTH {
        // Frames from `top` up are empty: the word holds its tag only.
        // `Release` (a plain store on x86): a scan that reads this word
        // is then ordered after the frame's previous claim, released.
        let f = &cell.frames[top];
        f.store(e as usize | (f.load(Ordering::Relaxed) + 1) & TAG, Ordering::Release);
        cell.top.store(top + 1, Ordering::Relaxed);
        top
    } else {
        cell.spill(e as usize)
    };
    order();
    #[cfg(test)] pause::point("claim");
    Held { cell, at, _thread: PhantomData }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        let c = self.cell;
        if self.at >= DEPTH {
            return c.unspill(self.at);
        }
        // Release: a scan that reads the cleared word (`Acquire`) is
        // ordered after everything this claim's holder did. `top` drops
        // past every empty frame, so a release out of LIFO order leaves
        // the claims above it where they are.
        let f = &c.frames[self.at];
        f.store(f.load(Ordering::Relaxed) & TAG, Ordering::Release);
        let mut top = c.top.load(Ordering::Relaxed);
        while top > 0 && c.frames[top - 1].load(Ordering::Relaxed) <= TAG {
            top -= 1;
        }
        c.top.store(top, Ordering::Relaxed);
    }
}

/// The claims on one entry that a scan found live.
pub(crate) struct Snapshot(Vec<(&'static ClaimCell, usize, usize)>);

/// The writer's half: after the store that makes `e` (or its old
/// handler) unreachable, issue the barrier and collect every claim on `e`
/// live now — the only claims that can still use what the store hid.
pub(crate) fn snapshot(e: *const EntryShared) -> Snapshot {
    if EXPEDITED.load(Ordering::Relaxed) {
        assert!(crate::shm::membarrier(false), "membarrier failed after registration");
    } else {
        fence(Ordering::SeqCst);
    }
    let e = e as usize;
    let mut seen = Vec::new();
    for &c in &REGISTRY.lock().0 {
        for (at, f) in c.frames.iter().enumerate() {
            let w = f.load(Ordering::Acquire);
            if w & !TAG == e {
                seen.push((c, at, w));
            }
        }
        let o = c.overflow.lock();
        seen.extend(o.1.iter().filter(|&&(a, _)| a == e).map(|&(_, id)| (c, id, e)));
    }
    Snapshot(seen)
}

impl Snapshot {
    /// Forget the claims released since the scan; true once none is left.
    pub(crate) fn drained(&mut self) -> bool {
        self.0.retain(|&(c, at, w)| match at < DEPTH {
            true => c.frames[at].load(Ordering::Acquire) == w,
            false => c.overflow.lock().1.iter().any(|&(_, id)| id == at),
        });
        self.0.is_empty()
    }

    /// Wait until every claim of the snapshot is released.
    pub(crate) fn wait(mut self) {
        while !self.drained() {
            std::thread::yield_now();
        }
    }
}

/// Pause points for the forced-window tests: a thread armed with a gate
/// parks at the named point until the test lets it go. Unarmed threads,
/// and every non-test build, pass straight through.
#[cfg(test)]
pub(crate) mod pause {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[derive(Default)]
    pub(crate) struct Gate {
        hits: AtomicU32,
        go: AtomicU32,
    }

    impl Gate {
        /// Wait until a thread has parked here `n` times in all.
        pub(crate) fn parked(&self, n: u32) {
            while self.hits.load(Ordering::Acquire) < n {
                std::thread::yield_now();
            }
        }

        /// Let the parked thread (and its next `n - 1` hits) through.
        pub(crate) fn release(&self, n: u32) {
            self.go.fetch_add(n, Ordering::AcqRel);
        }
    }

    thread_local! {
        static ARMED: RefCell<Option<(&'static str, Arc<Gate>)>> = const { RefCell::new(None) };
    }

    /// Park the calling thread at `at` from now on (`None`: never).
    pub(crate) fn arm(at: Option<(&'static str, Arc<Gate>)>) {
        ARMED.with(|a| *a.borrow_mut() = at);
    }

    pub(crate) fn point(at: &str) {
        let gate = ARMED.with(|a| a.borrow().as_ref().filter(|(p, _)| *p == at).map(|g| g.1.clone()));
        if let Some(g) = gate {
            let n = g.hits.fetch_add(1, Ordering::AcqRel) + 1;
            while g.go.load(Ordering::Acquire) < n {
                std::thread::yield_now();
            }
        }
    }
}

/// Keep this process off `membarrier` (call before any `Runtime`).
#[cfg(test)]
pub(crate) fn force_fence() {
    REGISTERED.call_once(|| ());
}

#[cfg(test)]
pub(crate) fn registered_cells() -> usize {
    REGISTRY.lock().0.len()
}

/// The calling thread's cell (it must have claimed before).
#[cfg(test)]
pub(crate) fn my_cell() -> &'static ClaimCell {
    CELL.with(Cell::get).expect("this thread has claimed")
}

#[cfg(test)]
mod tests {
    use super::pause::{self, Gate};
    use super::*;
    use crate::{EntryOptions, EntryState, Handler, RtError, Runtime};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;
    use std::time::Duration;

    /// Set in the environment of a test run by [`in_child`].
    const CHILD: &str = "PPC_CLAIMS_CHILD";

    /// Run test `name` alone in a fresh process of this test binary, so
    /// that a process-wide mode or count is its own.
    fn in_child(name: &str) {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([name, "--exact", "--test-threads=1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("re-run the test binary");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success() && text.contains("1 passed"), "{name} in a child:\n{text}");
    }

    fn inline(ep: usize) -> EntryOptions {
        EntryOptions { inline_ok: true, initial_workers: 0, want_ep: Some(ep), ..Default::default() }
    }

    /// A handler that counts the calls running it, and counts a
    /// violation if it is freed while one does.
    struct Retiree {
        running: AtomicU64,
        freed_mid_call: Arc<AtomicU64>,
    }

    impl Drop for Retiree {
        fn drop(&mut self) {
            let mid_call = self.running.load(Ordering::SeqCst) != 0;
            self.freed_mid_call.fetch_add(u64::from(mid_call), Ordering::SeqCst);
        }
    }

    /// Answers `tag` in word 0 and echoes the rest, after a short spin.
    fn tagged(tag: u64, freed_mid_call: &Arc<AtomicU64>) -> Handler {
        let me = Retiree { running: AtomicU64::new(0), freed_mid_call: Arc::clone(freed_mid_call) };
        Arc::new(move |c| {
            me.running.fetch_add(1, Ordering::SeqCst);
            (0..c.args[1] % 64).for_each(|_| std::hint::spin_loop());
            me.running.fetch_sub(1, Ordering::SeqCst);
            [tag, c.args[1], c.args[2], c.args[3], c.args[4], c.args[5], c.args[6], c.args[7]]
        })
    }

    /// The storm: kill → drain → reclaim → rebind at one ID beside busy
    /// inline callers on both vCPUs, while a fourth thread exchanges a
    /// second entry's handler. Every call returns an answer of the entry
    /// it named, `UnknownEntry` or `EntryDead`; no handler is freed while
    /// a call runs it; a reclaimed entry's `Weak` never upgrades.
    fn storm(rounds: u64) {
        let _hung = crate::wait::abort_if_hung("claim storm");
        let rt = Runtime::new(2);
        let (id, swap) = (21usize, 22usize);
        let freed_mid_call = Arc::new(AtomicU64::new(0));
        rt.bind("swap", inline(swap), tagged((swap as u64) << 32, &freed_mid_call)).unwrap();
        let stop = AtomicBool::new(false);
        let (ok, gone) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            let mut threads: Vec<_> = (0..2).map(|v| {
                let (c, stop, ok, gone) = (rt.client(v, 1), &stop, &ok, &gone);
                s.spawn(move || {
                    let _ = crate::affinity::pin_current(v);
                    for i in 1u64.. {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let args = [0, i, 2, 3, 4, 5, 6, v as u64];
                        match c.call(id, args) {
                            Ok(r) => {
                                assert_eq!((r[0] >> 32, &r[1..]), (id as u64, &args[1..]), "{r:?}");
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(RtError::UnknownEntry(e) | RtError::EntryDead(e)) if e == id => {
                                gone.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("call {i} to the storm entry: {e}"),
                        }
                        let r = c.call(swap, args).expect("exchange never kills the entry");
                        assert_eq!((r[0] >> 32, &r[1..]), (swap as u64, &args[1..]), "{r:?}");
                    }
                })
            }).collect();
            threads.push(s.spawn(|| {
                for gen in 1u64.. {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let h = tagged((swap as u64) << 32 | gen, &freed_mid_call);
                    rt.exchange(swap, h, 0).unwrap();
                }
            }));
            let kills = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for round in 0..rounds {
                    let h = tagged((id as u64) << 32 | round, &freed_mid_call);
                    rt.bind("storm", inline(id), h).unwrap();
                    let weak = rt.entry_weak(id).unwrap();
                    let seen = ok.load(Ordering::Relaxed);
                    let t0 = std::time::Instant::now();
                    while ok.load(Ordering::Relaxed) == seen && t0.elapsed() < Duration::from_millis(2) {
                        std::thread::yield_now();
                    }
                    rt.soft_kill(id, 0).unwrap();
                    rt.wait_drained(id).unwrap();
                    rt.reclaim_slot(id, 0).unwrap();
                    assert!(weak.upgrade().is_none(), "round {round}: the entry outlived its reclaim");
                }
            }));
            stop.store(true, Ordering::Release);
            // Joined one by one (`pthread_join`): TSan does not see the
            // scope's own join, which runs in uninstrumented std.
            let joined: Vec<_> = threads.into_iter().map(|t| t.join()).collect();
            for result in std::iter::once(kills).chain(joined) {
                if let Err(panic) = result {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        assert_eq!(freed_mid_call.load(Ordering::SeqCst), 0, "a handler was freed mid-call");
        let (ok, gone) = (ok.into_inner(), gone.into_inner());
        assert!(ok > 0 && gone > 0, "a vacuous storm: {ok} answers, {gone} refusals");
    }

    #[test]
    fn storm_at_one_id_beside_inline_callers() {
        storm(200);
    }

    #[test]
    fn child_storm_in_fence_mode() {
        if std::env::var_os(CHILD).is_none() {
            return;
        }
        force_fence();
        storm(200);
        assert!(!EXPEDITED.load(Ordering::SeqCst), "registration overrode the forced mode");
    }

    /// The storm again with `membarrier` unused: readers fence, writers
    /// fence.
    #[test]
    fn storm_in_fence_mode() {
        in_child("claims::tests::child_storm_in_fence_mode");
    }

    /// A reader parked between its push and its validating load, while
    /// `reclaim_slot` runs: the reclaim waits for it, and the reader then
    /// sees the null and backs out. Fails if the writer's scan misses
    /// the pushed frame.
    #[test]
    fn a_reclaim_waits_for_a_reader_parked_before_validation() {
        let _hung = crate::wait::abort_if_hung("parked reader");
        let rt = Runtime::new(1);
        let ep = rt.bind("parked", inline(30), Arc::new(|c| c.args)).unwrap();
        let weak = rt.entry_weak(ep).unwrap();
        let gate = Arc::new(Gate::default());
        std::thread::scope(|s| {
            let (c, g) = (rt.client(0, 1), Arc::clone(&gate));
            let reader = s.spawn(move || {
                pause::arm(Some(("claim", g)));
                c.call(ep, [1; 8])
            });
            gate.parked(1);
            rt.hard_kill(ep, 0).unwrap();
            let reclaim = s.spawn(|| rt.reclaim_slot(ep, 0));
            std::thread::sleep(Duration::from_millis(50));
            let (early, alive) = (reclaim.is_finished(), weak.upgrade().is_some());
            gate.release(1);
            assert!(!early && alive, "the reclaim ran past a pushed claim");
            assert_eq!(reader.join().unwrap(), Err(RtError::UnknownEntry(ep)));
            reclaim.join().unwrap().unwrap();
        });
        assert!(weak.upgrade().is_none());
    }

    /// An async call posted, its caller's claim released, the worker
    /// parked before its own push: a kill drain counts the `POSTED` slot
    /// as a held claim and waits, and the call completes normally. Fails
    /// if the drain only scans the cells.
    #[test]
    fn a_drain_waits_for_an_async_call_between_caller_and_worker() {
        let _hung = crate::wait::abort_if_hung("async hand-over");
        let rt = Runtime::new(1);
        let gate = Arc::new(Gate::default());
        let g = Arc::clone(&gate);
        let h: Handler = Arc::new(move |c| {
            if c.args[0] == 0 {
                pause::arm(Some(("pickup", Arc::clone(&g)))); // the worker's next pickups
            }
            c.args
        });
        let ep = rt.bind("handover", EntryOptions::default(), h).unwrap();
        let c = rt.client(0, 1);
        c.call(ep, [0; 8]).unwrap();
        let call = c.call_async(ep, [1; 8]).unwrap();
        gate.parked(1);
        rt.soft_kill(ep, 0).unwrap();
        std::thread::scope(|s| {
            let drain = s.spawn(|| rt.wait_drained(ep));
            std::thread::sleep(Duration::from_millis(50));
            let state = rt.frank_entry(ep).unwrap().entry_state();
            gate.release(u32::MAX / 2);
            assert_eq!(state, EntryState::SoftKilled, "the drain ran past a handed-over call");
            assert_eq!(call.wait(), [1; 8]);
            drain.join().unwrap().unwrap();
        });
        drop(call);
    }

    /// Nesting past [`DEPTH`]: the innermost claim spills to the overflow
    /// list, and an exchange still waits for it. The handler retired by
    /// the first exchange must survive the second exchange until the deep
    /// call running it returns. Fails if a scan skips the overflow list.
    #[test]
    fn claims_past_the_stack_depth_still_hold() {
        let _hung = crate::wait::abort_if_hung("deep nesting");
        let rt = Runtime::new(1);
        let freed_mid_call = Arc::new(AtomicU64::new(0));
        let (entered, go) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
        let (e2, g2, freed) = (Arc::clone(&entered), Arc::clone(&go), Arc::clone(&freed_mid_call));
        let me = Retiree { running: AtomicU64::new(0), freed_mid_call: Arc::clone(&freed) };
        let leaf: Handler = Arc::new(move |c| {
            me.running.fetch_add(1, Ordering::SeqCst);
            assert!(!my_cell().overflow.lock().1.is_empty(), "the leaf claim did not spill");
            e2.store(true, Ordering::SeqCst);
            while !g2.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            me.running.fetch_sub(1, Ordering::SeqCst);
            c.args
        });
        let leaf_ep = rt.bind("leaf", inline(40), leaf).unwrap();
        let inner = rt.client(0, 1);
        let deep: Handler = Arc::new(move |c| match c.args[0] {
            0 => inner.call(leaf_ep, c.args).unwrap(),
            n => inner.call(41, [n - 1; 8]).unwrap(),
        });
        let deep_ep = rt.bind("deep", inline(41), deep).unwrap();
        std::thread::scope(|s| {
            let c = rt.client(0, 2);
            let caller = s.spawn(move || c.call(deep_ep, [DEPTH as u64 + 2; 8]));
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            rt.exchange(leaf_ep, tagged(1, &freed_mid_call), 0).unwrap();
            let second = s.spawn(|| rt.exchange(leaf_ep, tagged(2, &freed_mid_call), 0));
            std::thread::sleep(Duration::from_millis(50));
            let early = second.is_finished();
            go.store(true, Ordering::SeqCst);
            assert!(!early, "the second exchange freed a handler a spilled claim runs");
            second.join().unwrap().unwrap();
            caller.join().unwrap().unwrap();
        });
        assert_eq!(freed_mid_call.load(Ordering::SeqCst), 0, "a handler was freed mid-call");
        assert!(my_cell_is_released());
    }

    fn my_cell_is_released() -> bool {
        CELL.with(Cell::get).is_none_or(ClaimCell::is_empty)
    }

    #[test]
    fn child_exiting_threads_return_their_cells() {
        if std::env::var_os(CHILD).is_none() {
            return;
        }
        const WAVE: usize = 4;
        let rt = Runtime::new(1);
        let ep = rt.bind("short", inline(50), Arc::new(|c| c.args)).unwrap();
        let before = registered_cells();
        for _ in 0..1000 / WAVE {
            let wave: Vec<_> = (0..WAVE)
                .map(|_| {
                    let c = rt.client(0, 1);
                    std::thread::spawn(move || c.call(ep, [1; 8]).unwrap())
                })
                .collect();
            wave.into_iter().for_each(|t| assert_eq!(t.join().unwrap(), [1; 8]));
        }
        let after = registered_cells();
        assert!(after <= before + WAVE, "1000 threads, {WAVE} at a time, left {after} cells (from {before})");
    }

    /// 1 000 short-lived claiming threads, four alive at a time, leave
    /// the registry at four more cells: an exiting thread's cell is
    /// reused.
    #[test]
    fn exiting_threads_leave_the_registry_at_its_peak() {
        in_child("claims::tests::child_exiting_threads_return_their_cells");
    }
}
