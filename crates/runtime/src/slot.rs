//! Call slots — the runtime's call descriptors.
//!
//! A [`CallSlot`] plays the CD's double role from §2 of the paper: it
//! carries the call's linkage (here: argument/result frames and the
//! waiter word the completion wake goes by) and it owns the 4 KB
//! scratch page that stands in for the worker's stack. A hand-off worker
//! owns one for life (hold-CD); inline calls borrow one from a per-vCPU
//! pool for its page.
//!
//! The rendezvous state machine itself lives in [`SlotCore`] — a
//! `#[repr(C)]`, **pointer-free, position-independent** structure so the
//! identical protocol runs in two homes, laid out alike (core, then
//! page): a [`CallSlot`] in-process, and a segment's client slot for the
//! cross-process transport ([`crate::xproc`]). Both complete the same
//! way: the waiter announces its sleep on the waiter word and
//! futex-waits on the **state word** — which is why that word is an
//! `AtomicU32` (the futex granule), not a byte — and the completing side
//! wakes it only if it announced (`SlotCore::wake_done`). The layout is
//! locked down with compile-time assertions
//! ([`assert_segment_layout!`](crate::assert_segment_layout)): drift is a
//! build error, not UB at a process boundary.
//!
//! The hand-off is a two-party rendezvous in which each slot line
//! crosses once per direction per call:
//!
//! 1. the client, owning the slot, fills `args`, `caller_program` and
//!    the waiter word (does a synchronous caller wait, or nobody yet),
//!    stores `POSTED` with `Release` and wakes the peer if it sleeps;
//! 2. the server acquires `POSTED`, runs the handler on the scratch
//!    page, writes `rets`, stores `DONE` with `Release`, and futex-wakes
//!    the state word if the waiter word says a waiter sleeps there;
//! 3. the client observes `DONE` with `Acquire` and reads the results.
//!    Nothing resets the slot: it stays `DONE` until the next post takes
//!    it straight to `POSTED`, and servers serve `POSTED` only. `IDLE`
//!    is a slot's state at birth and after a detach or an async hand-back.
//!    An asynchronous call's waiter is the same machine arriving late: it
//!    announces on the waiter word when (and if) it has to sleep.
//!
//! No step locks; the only blocking is a futex wait on the state word
//! (client) and `thread::park` (idle worker), the user-level analogue of
//! the paper's hand-off scheduling.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use crate::wait::{notify, wait, Sleeper, Spin, Waited};

/// Size of the per-call scratch page ("one-page stacks", §4.5.4).
pub const SCRATCH_BYTES: usize = 4096;

/// The result frame a shutdown-aborted call completes with.
pub const ABORT_RETS: [u64; 8] = [u64::MAX; 8];

/// Slot lifecycle states. `u32` because the state word doubles as a
/// futex word on the cross-process path.
pub mod state {
    /// Never posted, or detached (or an async result handed back).
    pub const IDLE: u32 = 0;
    /// Filled by a client, owned by a worker.
    pub const POSTED: u32 = 1;
    /// Handler finished; results valid until the slot's next post.
    pub const DONE: u32 = 2;
}

/// Who waits on the slot's completion — the value of
/// [`SlotCore`]'s waiter word. Bit 1 says a synchronous caller waits
/// (and, in-process, owns the claim release); bit 0 that the waiter has
/// announced a futex sleep on the state word, which completion must
/// `FUTEX_WAKE` (the waiter's half of the sleeper protocol, see
/// `wait.rs`). Only the waiter stores the announced values.
pub mod waiter {
    /// Nobody waits yet (async call; a waiter may arrive late).
    pub const NONE: u32 = 0;
    /// An async call's late waiter sleeps; not [`ASLEEP`], so that it
    /// cannot change which side releases the claim. Only `CallSlot`'s
    /// wait stores it: never in a segment, where every call is [`FUTEX`].
    pub const LATE: u32 = 1;
    /// A synchronous caller — a thread of this process or a remote
    /// process — polls the state word and will sleep on it if the
    /// completion takes long.
    pub const FUTEX: u32 = 2;
    /// That caller sleeps.
    pub const ASLEEP: u32 = 3;
}

/// The position-independent core of a call descriptor: the rendezvous
/// state word, the 8-word argument/result frames, and the control words
/// that ride the hand-off. `#[repr(C)]`, pointer-free, layout asserted —
/// safe to place in a shared segment and operate from two processes.
///
/// Line layout (64-byte lines, asserted below):
///
/// ```text
/// line 0   st | waiter | caller_program | faulted | status
///          | aux | payload_len | sampled | trace | pad
/// line 1   args[0..8]
/// line 2   rets[0..8]
/// ```
///
/// The state word shares line 0 only with words the **server does not
/// write during the wait**: `caller_program`/`sampled`/`trace` are
/// written by the client before POSTED, `status`/`aux`/`faulted` by the
/// server at completion (right before the `DONE` store that ends the
/// spin). `waiter` is the waiter's own: written before POSTED, and by a
/// cross-process waiter again when it announces its futex sleep
/// ([`waiter::ASLEEP`]) and when that sleep ends; the server only reads
/// it. `args` and `rets` get their own lines, so a spinning client
/// re-reads only line 0 — the worker's stores to `rets` mid-completion
/// never bounce the spinner's cached line until `DONE` lands.
#[repr(C, align(64))]
pub struct SlotCore {
    st: AtomicU32,
    /// Which wake mechanism completion must use ([`waiter`]).
    waiter: AtomicU32,
    caller_program: AtomicU32,
    /// The handler faulted (panicked) while servicing this call.
    faulted: AtomicU32,
    /// Wire status for cross-process completion (0 = ok; see
    /// [`crate::xproc`]'s `RtError` code mapping). Unused in-process —
    /// errors there travel as `Result`s, never through the slot.
    status: AtomicU32,
    /// Auxiliary word accompanying `status` (entry/region id).
    aux: AtomicU32,
    /// Valid payload bytes in the slot's payload page (cross-process
    /// `call_with_payload`); unused in-process (the scratch page is
    /// process-local there).
    payload_len: AtomicU32,
    /// The caller's sample decision (1 = time the handler run too).
    /// In-process only: a segment server samples on its own tick.
    sampled: AtomicU32,
    /// Packed trace context riding the hand-off (0 = no trace). Written
    /// by the client between `fill` and the post; the `POSTED`
    /// Release/Acquire edge publishes it to the worker.
    trace: AtomicU64,
    _pad0: [u8; 24],
    args: UnsafeCell<[u64; 8]>,
    rets: UnsafeCell<[u64; 8]>,
}

crate::assert_segment_layout!(SlotCore {
    size: 192,
    align: 64,
    st: 0,
    waiter: 4,
    caller_program: 8,
    faulted: 12,
    status: 16,
    aux: 20,
    payload_len: 24,
    sampled: 28,
    trace: 32,
    args: 64,
    rets: 128,
});

// Safety: access to the UnsafeCell frames follows the ownership protocol
// documented on the module — exactly one party touches them in each
// state, with Release/Acquire edges on `st` ordering the transfers.
unsafe impl Sync for SlotCore {}
unsafe impl Send for SlotCore {}

impl SlotCore {
    /// A fresh, idle core (heap-embedded use; segment-resident cores are
    /// born valid from zeroed segment memory — all-zero is exactly
    /// `IDLE`/`NONE`/empty frames, which the layout test pins).
    pub fn new() -> SlotCore {
        SlotCore {
            st: AtomicU32::new(state::IDLE),
            waiter: AtomicU32::new(waiter::NONE),
            caller_program: AtomicU32::new(0),
            faulted: AtomicU32::new(0),
            status: AtomicU32::new(0),
            aux: AtomicU32::new(0),
            payload_len: AtomicU32::new(0),
            sampled: AtomicU32::new(0),
            trace: AtomicU64::new(0),
            _pad0: [0; 24],
            args: UnsafeCell::new([0; 8]),
            rets: UnsafeCell::new([0; 8]),
        }
    }

    /// Client side: fill the frame prior to posting. Caller must own the
    /// slot; spins only while it is still `POSTED` (a segment async call
    /// whose handle was forgotten): `IDLE` and `DONE` are both fillable.
    pub fn fill(&self, args: [u64; 8], program: u32, wait_mode: u32) {
        let mut spins = 0u32;
        while self.st.load(Ordering::Acquire) == state::POSTED {
            std::hint::spin_loop();
            spins += 1;
            if spins > 1 << 12 {
                std::thread::yield_now();
            }
        }
        // Safety: exclusive ownership outside POSTED.
        unsafe {
            *self.args.get() = args;
        }
        self.caller_program.store(program, Ordering::Relaxed);
        self.waiter.store(wait_mode, Ordering::Relaxed);
        self.faulted.store(0, Ordering::Relaxed);
        self.status.store(0, Ordering::Relaxed);
        self.trace.store(0, Ordering::Relaxed);
    }

    /// Publish the filled frame to the peer (`Release`): the slot
    /// transitions to POSTED. Separate from [`SlotCore::fill`] so the
    /// in-process path can add the trace word first and
    /// the cross-process path ring its doorbell after.
    #[inline]
    pub fn post(&self) {
        self.st.store(state::POSTED, Ordering::Release);
    }

    /// The state word, for futex waits and external polling.
    #[inline]
    pub fn state_word(&self) -> &AtomicU32 {
        &self.st
    }

    /// The waiter's sleeper flag: the waiter word, announcing over what
    /// `fill` wrote — [`waiter::ASLEEP`] over a synchronous caller's
    /// [`waiter::FUTEX`], [`waiter::LATE`] over [`waiter::NONE`].
    #[inline]
    pub(crate) fn sleeper(&self, sync: bool) -> Sleeper<'_> {
        let awake = if sync { waiter::FUTEX } else { waiter::NONE };
        Sleeper { word: &self.waiter, asleep: awake | waiter::LATE, awake }
    }

    /// Server side, after [`SlotCore::complete_frame`]: wake the waiter
    /// iff it announced its sleep — the one completion wake, in-process
    /// and across the segment. `sync` as read from the waiter word before
    /// `DONE` (after it the slot may carry its next call). Says if it woke.
    #[inline]
    pub(crate) fn wake_done(&self, sync: bool) -> bool {
        notify(self.sleeper(sync), || {
            crate::shm::futex_wake(&self.st, u32::MAX);
        })
    }

    /// Server side: read the arguments (slot must be POSTED and owned).
    #[inline]
    pub fn read_args(&self) -> [u64; 8] {
        debug_assert_eq!(self.st.load(Ordering::Relaxed), state::POSTED);
        // Safety: owner reads after acquiring the POSTED edge.
        unsafe { *self.args.get() }
    }

    /// Server side: publish results + status, transition to DONE
    /// (`Release`). The wake (`SlotCore::wake_done`) is a separate
    /// step: a driver that only polls (the benchmark's bare state
    /// machine) never pays its fence.
    pub fn complete_frame(&self, rets: [u64; 8], status: u32, aux: u32) {
        // Safety: server owns the slot while POSTED.
        unsafe {
            *self.rets.get() = rets;
        }
        self.status.store(status, Ordering::Relaxed);
        self.aux.store(aux, Ordering::Relaxed);
        self.st.store(state::DONE, Ordering::Release);
    }

    /// Client side: read the results (slot must be DONE).
    #[inline]
    pub fn read_rets(&self) -> [u64; 8] {
        debug_assert_eq!(self.st.load(Ordering::Relaxed), state::DONE);
        // Safety: DONE observed with Acquire; server wrote before the
        // Release store.
        unsafe { *self.rets.get() }
    }

    /// Completion status word (valid once DONE; 0 = ok).
    #[inline]
    pub fn status(&self) -> (u32, u32) {
        (self.status.load(Ordering::Relaxed), self.aux.load(Ordering::Relaxed))
    }

    /// Payload length word (cross-process payload calls).
    #[inline]
    pub fn payload_len(&self) -> u32 {
        self.payload_len.load(Ordering::Relaxed)
    }

    /// Set the payload length word.
    #[inline]
    pub fn set_payload_len(&self, n: u32) {
        self.payload_len.store(n, Ordering::Relaxed);
    }

    /// Return the slot to IDLE (a detach, an abandoned segment async call,
    /// an async hand-back); a finished call needs none.
    #[inline]
    pub fn reset(&self) {
        self.st.store(state::IDLE, Ordering::Release);
    }
}

impl Default for SlotCore {
    fn default() -> Self {
        SlotCore::new()
    }
}

/// One call descriptor (the in-process home of a [`SlotCore`]), laid out
/// like the segment's `XClientSlot`: core lines, then the page.
///
/// The state word is the rendezvous's ping-pong line: the client spins or
/// parks on it while the worker writes results. The core's line layout
/// keeps `rets`/`scratch` stores off the spinner's line — it transfers
/// exactly once per call (at `DONE`).
#[repr(C)]
pub struct CallSlot {
    pub(crate) core: SlotCore,
    scratch: UnsafeCell<[u8; SCRATCH_BYTES]>,
}

// Safety: see `SlotCore`; `scratch` is owned by whichever party owns the
// slot.
unsafe impl Sync for CallSlot {}
unsafe impl Send for CallSlot {}

impl CallSlot {
    /// A fresh, idle slot.
    pub fn new() -> Box<Self> {
        Box::new(CallSlot { core: SlotCore::new(), scratch: UnsafeCell::new([0; SCRATCH_BYTES]) })
    }

    /// Client side: fill the slot and post it. Caller must own the slot.
    /// `sync`: the caller will wait for the completion (and owns the
    /// claim release); otherwise nobody waits until a late waiter says
    /// so.
    pub fn fill(&self, args: [u64; 8], program: u32, sync: bool) {
        self.stage(args, program, sync, 0, false);
        self.core.post();
    }

    /// Client side: fill the frame plus the packed trace context
    /// ([`crate::span::TraceCtx::pack`], 0 = none) and the caller's
    /// sample decision, without posting — [`SlotCore::post`] publishes
    /// all of it.
    pub(crate) fn stage(&self, args: [u64; 8], program: u32, sync: bool, trace: u64, sampled: bool) {
        self.core.fill(args, program, if sync { waiter::FUTEX } else { waiter::NONE });
        self.core.sampled.store(u32::from(sampled), Ordering::Relaxed);
        if trace != 0 {
            self.core.trace.store(trace, Ordering::Relaxed);
        }
    }

    /// Worker side: the call's packed trace context (0 = none).
    #[inline]
    pub fn trace_word(&self) -> u64 {
        self.core.trace.load(Ordering::Relaxed)
    }

    /// Worker side: whether the caller's tick sampled this call.
    pub(crate) fn sampled(&self) -> bool {
        self.core.sampled.load(Ordering::Relaxed) != 0
    }

    /// Worker side: read the arguments (slot must be POSTED and owned).
    pub fn read_args(&self) -> [u64; 8] {
        self.core.read_args()
    }

    /// Worker side: the caller's program identity.
    pub fn caller_program(&self) -> u32 {
        self.core.caller_program.load(Ordering::Relaxed)
    }

    /// Whether a client thread waits synchronously on this call — which
    /// side owns the claim release (see `worker_loop`). The waiter's
    /// sleep announcements flip bit 0 only, so the answer holds for the
    /// whole call.
    #[inline]
    pub(crate) fn has_client(&self) -> bool {
        self.core.waiter.load(Ordering::Relaxed) & waiter::FUTEX != 0
    }

    /// Worker side: run `f` with exclusive access to the scratch page.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        // Safety: worker owns the slot while POSTED.
        let scratch = unsafe { &mut *self.scratch.get() };
        f(scratch)
    }

    /// Raw pointer to the scratch page, for an exclusive owner operating
    /// outside the rendezvous protocol (the lazy inline scratch borrow).
    pub(crate) fn scratch_raw(&self) -> *mut u8 {
        // Only the page's data pointer: no reference to its bytes forms.
        self.scratch.get().cast()
    }

    /// Worker side: publish the results and wake the waiter if one
    /// sleeps. Returns whether it had to.
    pub fn complete(&self, rets: [u64; 8]) -> bool {
        let sync = self.has_client();
        self.core.complete_frame(rets, 0, 0);
        self.core.wake_done(sync)
    }

    /// Worker side: mark the call as faulted before completing (the
    /// handler panicked).
    pub fn mark_faulted(&self) {
        self.core.faulted.store(1, Ordering::Relaxed);
    }

    /// Did the handler fault? (Valid once DONE.)
    pub fn is_faulted(&self) -> bool {
        self.core.faulted.load(Ordering::Relaxed) != 0
    }

    /// Whether the handler has completed.
    pub fn is_done(&self) -> bool {
        self.core.st.load(Ordering::Acquire) == state::DONE
    }

    /// Client side: wait for `DONE` — the one wait primitive (`wait.rs`)
    /// as the segment client uses it: spin per `spin`, `donate` once per
    /// donation round (the caller priority-unparks its worker), then
    /// announce on the waiter word and futex-wait on the state word. No
    /// timeout: [`CallSlot::complete`] changes that word before it reads
    /// the announcement. A synchronous caller and an async call's late
    /// waiter differ only in the value announced. Also returns the time
    /// spent blocked, read around each futex wait and nowhere else.
    pub(crate) fn wait_done(&self, spin: Spin<'_>, donate: impl FnMut()) -> (Waited, u64) {
        let mut blocked_ns = 0;
        let sleep = || {
            let t0 = Instant::now();
            crate::shm::futex_wait(&self.core.st, state::POSTED, None);
            blocked_ns += t0.elapsed().as_nanos() as u64;
            true
        };
        let sleeper = Some(self.core.sleeper(self.has_client()));
        (wait(spin, sleeper, || self.is_done(), donate, sleep), blocked_ns)
    }

    /// Client side: read the results (slot must be DONE).
    pub fn read_rets(&self) -> [u64; 8] {
        debug_assert!(self.is_done());
        self.core.read_rets()
    }

    /// Return the slot to IDLE (an async result handed back).
    pub fn reset(&self) {
        self.core.reset();
    }

    /// Client side, before posting (slot owned, not POSTED): copy a request
    /// payload into the scratch page — the runtime's bulk-data channel
    /// (§4.2's CopyFrom direction). Panics if the payload exceeds the
    /// page.
    pub fn write_payload(&self, data: &[u8]) {
        assert!(data.len() <= SCRATCH_BYTES, "payload exceeds the scratch page");
        // Safety: exclusive ownership before POSTED.
        let scratch = unsafe { &mut *self.scratch.get() };
        scratch[..data.len()].copy_from_slice(data);
    }

    /// Client side, after DONE and before the slot's next post: copy a
    /// response payload out of the scratch page (§4.2's CopyTo direction).
    pub fn read_payload(&self, len: usize) -> Vec<u8> {
        debug_assert!(self.is_done());
        let len = len.min(SCRATCH_BYTES);
        // Safety: DONE observed with Acquire; the worker is finished.
        let scratch = unsafe { &*self.scratch.get() };
        scratch[..len].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fill_complete_roundtrip() {
        let s = CallSlot::new();
        s.fill([1, 2, 3, 4, 5, 6, 7, 8], 42, false);
        assert_eq!(s.read_args(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(s.caller_program(), 42);
        assert!(!s.is_done());
        s.complete([8, 7, 6, 5, 4, 3, 2, 1]);
        assert!(s.is_done());
        assert_eq!(s.read_rets(), [8, 7, 6, 5, 4, 3, 2, 1]);
        s.reset();
        assert!(!s.is_done());
    }

    #[test]
    fn scratch_is_page_sized_and_writable() {
        let s = CallSlot::new();
        s.fill([0; 8], 0, false);
        s.with_scratch(|buf| {
            assert_eq!(buf.len(), SCRATCH_BYTES);
            buf[0] = 0xAB;
            buf[SCRATCH_BYTES - 1] = 0xCD;
        });
        // Scratch persists across calls (recycled stacks).
        s.with_scratch(|buf| {
            assert_eq!(buf[0], 0xAB);
            assert_eq!(buf[SCRATCH_BYTES - 1], 0xCD);
        });
    }

    #[test]
    fn trace_word_rides_the_slot_and_clears_on_refill() {
        let s = CallSlot::new();
        s.fill([0; 8], 0, false);
        assert_eq!(s.trace_word(), 0);
        s.complete([0; 8]);
        s.stage([0; 8], 0, false, 0xAB_CD, false);
        s.core.post();
        assert_eq!(s.trace_word(), 0xAB_CD);
        s.complete([0; 8]);
        s.fill([0; 8], 0, false);
        assert_eq!(s.trace_word(), 0, "stale context never leaks into the next call");
    }

    #[test]
    fn cross_thread_handoff() {
        let s = CallSlot::new();
        s.fill([5; 8], 1, true);
        std::thread::scope(|scope| {
            let completer = scope.spawn(|| {
                let args = s.read_args();
                s.complete([args[0] + 1; 8]);
            });
            s.wait_done(Spin::default(), || ());
            // Joined (`pthread_join`) before the slot drops: TSan does not
            // see the scope's own join, which runs in uninstrumented std.
            completer.join().unwrap();
        });
        assert_eq!(s.read_rets(), [6; 8]);
    }

    /// `n` hand-offs of one slot to a completing thread, the waiter going
    /// straight to its futex wait — which has no timeout, so a lost wake
    /// hangs and the watchdog aborts. `sync`: the caller's wait, else an
    /// async call's late waiter; `after_done`: that waiter shows up only
    /// once the call is `DONE`, when nobody is left to wake it. Returns
    /// how many waits blocked.
    fn handoffs(n: u64, sync: bool, after_done: bool) -> u32 {
        let _watchdog = crate::wait::abort_if_hung("slot.rs hand-off test");
        let s = CallSlot::new();
        std::thread::scope(|scope| {
            let completer = scope.spawn(|| {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                for _ in 0..n {
                    while s.core.st.load(Ordering::Acquire) != state::POSTED {
                        std::thread::yield_now();
                    }
                    // Now and then, long enough for the waiter to block.
                    if crate::wait::xorshift(&mut rng).is_multiple_of(8) {
                        (0..rng >> 58).for_each(|_| std::thread::yield_now());
                    }
                    s.complete([s.read_args()[0] + 1; 8]);
                }
            });
            let mut blocked = 0;
            for i in 0..n {
                s.fill([i; 8], 7, sync);
                while after_done && !s.is_done() {
                    std::thread::yield_now();
                }
                let (how, _) = s.wait_done(Spin::default(), || ());
                assert!(!after_done || how == Waited::Spun, "nobody is left to wake this wait");
                blocked += u32::from(how == Waited::Blocked);
                assert_eq!(s.read_rets(), [i + 1; 8]);
                assert_eq!(s.has_client(), sync, "an announcement changed who releases the claim");
                // No reset: the next fill posts straight from DONE.
            }
            // Joined before the slot drops, as in `cross_thread_handoff`.
            completer.join().unwrap();
            blocked
        })
    }

    #[test]
    fn no_completion_wake_is_lost() {
        assert!(handoffs(100_000, true, false) >= 100, "sync waits blocked");
        assert!(handoffs(100_000, false, false) >= 100, "late waits blocked");
        assert_eq!(handoffs(100_000, false, true), 0);
    }

    /// An async call nobody waits for: the handle's drop is the late
    /// waiter. Under `ParkOnly` it blocks at once; on both policies the
    /// call completes and the drop hands the worker's slot back, so the
    /// worker is pooled again before the next call pops — one worker and
    /// no CD serve every call.
    #[test]
    fn async_calls_dropped_unwaited_complete() {
        let _watchdog = crate::wait::abort_if_hung("slot.rs drop-without-wait test");
        let rt = crate::Runtime::new(1);
        let runs = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&runs);
        let handler: crate::Handler = Arc::new(move |c| {
            counted.fetch_add(1, Ordering::Relaxed);
            c.args
        });
        let ep = rt.bind("null", crate::EntryOptions::default(), handler).unwrap();
        let client = rt.client(0, 1);
        for policy in [crate::SpinPolicy::ParkOnly, crate::SpinPolicy::Adaptive] {
            rt.set_spin_policy(policy);
            for i in 0..50_000 {
                drop(client.call_async(ep, [i; 8]).unwrap());
            }
        }
        assert_eq!(runs.load(Ordering::Relaxed), 100_000);
        assert_eq!(rt.stats.workers_created(), 0, "the worker was back in its pool every time");
        assert_eq!(rt.stats.cds_created(), 0, "the hand-off borrows no CD");
    }

    /// A zeroed `SlotCore` is a valid idle core: segment-resident cores
    /// are born from zeroed pages without running a constructor, so the
    /// all-zero bit pattern must mean exactly IDLE / no waiter / clean
    /// frames. Pinned here so a field whose zero value gains meaning
    /// fails a test, not a process boundary.
    #[test]
    fn zeroed_core_is_idle() {
        // Safety: SlotCore is repr(C) atomics + UnsafeCell'd arrays —
        // every field is valid at all bit patterns.
        let core: SlotCore = unsafe { std::mem::zeroed() };
        assert_eq!(core.state_word().load(Ordering::Relaxed), state::IDLE);
        assert_eq!(core.waiter.load(Ordering::Relaxed), waiter::NONE);
        assert_eq!(core.status(), (0, 0));
        assert_eq!(core.payload_len(), 0);
        core.fill([3; 8], 9, waiter::FUTEX);
        core.post();
        assert_eq!(core.read_args(), [3; 8]);
        core.complete_frame([4; 8], 0, 0);
        assert_eq!(core.read_rets(), [4; 8]);
    }
}
