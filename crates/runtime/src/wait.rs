//! The one wait primitive. Every rendezvous in the runtime — a client
//! waiting for `DONE`, an idle worker for mail, a ring worker for
//! submissions, both ends of the cross-process segment — waits through
//! [`wait`] and is woken through [`notify`].
//!
//! [`wait`] escalates through four phases; a zero budget skips one:
//!
//! 1. **Learned poll** ([`Spin::poll`]): a pure spin — no yields — whose
//!    budget follows whether polling pays. Work that arrives *during*
//!    the spin doubles it (up to [`crate::spin::POLL_CAP`], about one
//!    futex sleep/wake); a spin that runs dry halves it, to zero. From
//!    then on one wait in [`PROBE`] runs a [`PROBE`]-pass *probe* — one
//!    pass per wait on average — and a probe that is answered restores a
//!    budget. A peer on its own CPU answers within the spin, the budget
//!    grows, and neither side reaches a futex. A peer sharing this CPU
//!    *cannot* answer while we spin without yielding, so the budget
//!    collapses and the wait moves on at once — to the yield that runs
//!    the peer, or to the block whose wake-up preemption does (a
//!    yielding spin would mistake the shared CPU for a responsive peer).
//!    A caller that had to *wake* its peer passes `None`: on a shared CPU
//!    the woken peer preempts it and the answer appears "during the
//!    spin" without polling having paid.
//! 2. **Yielding spin** ([`Spin::budget`]): the site's own budget (EWMA,
//!    `idle_spin`), yielding the processor first and then every 64
//!    passes, so that on an oversubscribed host the thread being waited
//!    on actually runs (yield-*last*, measured on one CPU: hand-off
//!    ≈ 500 k → ≈ 185 k op/s).
//! 3. **Donation rounds** ([`Spin::rounds`]): `donate()` (priority-unpark
//!    the worker), `yield_now`, re-check — see
//!    [`crate::spin::ESCALATE_YIELDS`] for why that beats parking.
//! 4. **Block**: announce the [`Sleeper`] flag, full fence, re-check,
//!    `block()` — `thread::park`, or a futex wait (with the site's
//!    liveness timeout where the peer can die). `block` returns whether
//!    to keep waiting should it wake with the predicate still false;
//!    `false` hands control back (the idle loops re-run their own
//!    checks, the segment client gives up on a dead server).
//!
//! # Sites
//!
//! | waiter | [`Poll`] lives | flag | woken by | sticky because |
//! |---|---|---|---|---|
//! | sync caller, async late waiter (`CallSlot::wait_done`) | per vCPU, beside the EWMA | slot waiter word, `ASLEEP` / `LATE` | `SlotCore::wake_done`: futex wake of the state word | `DONE` changed the word the `FUTEX_WAIT` compares |
//! | segment client (`XClient::wait_done`) | per client handle | slot waiter word, `ASLEEP` | the same | the same |
//! | entry worker (`worker::idle_wait`) | local in `worker_loop` | `WorkerHandle` sleeper word | `post`, an async `hand_back`: `unpark` iff announced; `request_shutdown` and the caller's donation rounds: `unpark` always | `unpark` leaves a token; a stray one costs a spin |
//! | ring worker (`worker::idle_wait`) | local in `ring_worker` | `RingShared::sleeping` | doorbell: `unpark` iff announced | token |
//! | segment server (`serve_loop`) | local in the loop | header `server_sleeping` | doorbell bump + futex wake iff announced | the bump changed the word compared |
//!
//! A site passes its `Poll` only when its last exchange woke nobody (see
//! phase 1) and its spin policy spins at all (an idle budget above zero
//! for the two workers — the entry's `idle_spin`, the ring worker's
//! `worker_idle_budget` of the policy it reads at each idle wait): under
//! `ParkOnly` both in-process sides block at once — zero poll, zero spin. The ring worker wakes nobody — its client reaps by
//! polling — so for it the second condition is the only one.
//!
//! # Lost-wake freedom
//!
//! Announce/re-check in [`wait`] and publish/check in [`notify`] are the
//! two halves of a Dekker pair: the waiter stores its flag, fences
//! (`SeqCst`), loads the data; the notifier stores the data, fences,
//! loads the flag. The fences are totally ordered, so one side sees the
//! other's store: the waiter finds the work at the re-check and never
//! blocks, or the notifier finds the flag and wakes. The wake must be
//! *sticky* against a waiter that has announced but not yet blocked:
//! `unpark` leaves a token, and a futex wake follows a change of the
//! very word the waiter's `FUTEX_WAIT` compares (the slot state, the
//! bumped doorbell). [`notify`] only *reads* the flag — the waiter alone
//! writes it — so a notifier delayed past the end of the wait can issue
//! a spurious wake, never erase a later announcement. A waiter arriving
//! after the notifier has come and gone (the async shape) finds the data
//! at its re-check and never blocks.

use std::sync::atomic::{fence, AtomicU32, Ordering};

/// Passes of the probe a zero-budget [`Poll`] runs, how many waits lie
/// between two probes, and the smallest budget worth keeping.
const PROBE: u32 = 64;

/// The learned-poll state of one waiting site (see the module docs).
/// Zeroed is valid: no budget, a probe on the first wait.
#[derive(Default)]
pub(crate) struct Poll {
    budget: u32,
    /// Zero-budget waits since the last probe, modulo [`PROBE`].
    dry: u32,
}

impl Poll {
    /// A site several threads wait at (a vCPU's callers) keeps its state
    /// in one atomic word, copied in and out around the wait (racy: EWMA).
    pub(crate) fn from_bits(bits: u64) -> Poll {
        Poll { budget: bits as u32, dry: (bits >> 32) as u32 }
    }

    pub(crate) fn bits(&self) -> u64 {
        u64::from(self.budget) | u64::from(self.dry) << 32
    }
}

/// How long [`wait`] spins before it blocks.
#[derive(Default)]
pub(crate) struct Spin<'a> {
    /// Phase 1; `None` skips it and leaves the budget untouched.
    pub poll: Option<&'a mut Poll>,
    /// Phase 2 passes.
    pub budget: u32,
    /// Phase 3 rounds.
    pub rounds: u32,
}

/// The word a waiter announces its sleep in. Only the waiter writes it.
#[derive(Clone, Copy)]
pub(crate) struct Sleeper<'a> {
    pub word: &'a AtomicU32,
    /// Value meaning "about to block, or blocked".
    pub asleep: u32,
    /// Value restored when the wait ends.
    pub awake: u32,
}

/// How a [`wait`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Waited {
    /// Ready within the spin phases.
    Spun,
    /// Ready within the donation rounds.
    Donated,
    /// `block()` ran at least once.
    Blocked,
}

/// Wait until `ready()` holds (or `block()` says stop): spin per `spin`,
/// then announce `sleeper`, re-check and block. See the module docs.
pub(crate) fn wait(
    spin: Spin<'_>,
    sleeper: Option<Sleeper<'_>>,
    mut ready: impl FnMut() -> bool,
    mut donate: impl FnMut(),
    mut block: impl FnMut() -> bool,
) -> Waited {
    if ready() {
        return Waited::Spun;
    }
    if let Some(p) = spin.poll {
        let n = if p.budget > 0 {
            p.budget
        } else {
            p.dry = (p.dry + 1) % PROBE;
            if p.dry == 1 { PROBE } else { 0 }
        };
        for _ in 0..n {
            std::hint::spin_loop();
            if ready() {
                p.budget = (n * 2).min(crate::spin::POLL_CAP);
                return Waited::Spun;
            }
        }
        p.budget = if p.budget / 2 >= PROBE { p.budget / 2 } else { 0 };
    }
    for pass in 0..spin.budget {
        if pass & 63 == 0 {
            std::thread::yield_now();
        }
        std::hint::spin_loop();
        if ready() {
            return Waited::Spun;
        }
    }
    for _ in 0..spin.rounds {
        donate();
        std::thread::yield_now();
        if ready() {
            return Waited::Donated;
        }
    }
    loop {
        if let Some(s) = sleeper {
            // Relaxed throughout: the flag publishes no data, and its
            // order against `ready()`'s loads is the fences' job.
            s.word.store(s.asleep, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if ready() {
                s.word.store(s.awake, Ordering::Relaxed);
                return Waited::Spun;
            }
        }
        let keep = block();
        if let Some(s) = sleeper {
            s.word.store(s.awake, Ordering::Relaxed);
        }
        if !keep || ready() {
            return Waited::Blocked;
        }
    }
}

/// Wake a [`wait`]er — iff it announced. Call *after* publishing what
/// the waiter's `ready()` reads; `wake` must be sticky (see the module
/// docs). Returns whether `wake` ran. Inlined into every doorbell,
/// whose ledger counts assume it; without the hint, unrelated edits move it.
#[inline]
pub(crate) fn notify(sleeper: Sleeper<'_>, wake: impl FnOnce()) -> bool {
    fence(Ordering::SeqCst);
    let asleep = sleeper.word.load(Ordering::Relaxed) == sleeper.asleep;
    if asleep {
        wake();
    }
    asleep
}

/// Test watchdog for waits that have no timeout: aborts the process if
/// the returned guard is still alive after 120 s — a wake was lost.
#[cfg(test)]
pub(crate) fn abort_if_hung(what: &'static str) -> std::sync::mpsc::Sender<()> {
    // Dropping the guard ends the `recv` with `Disconnected`; only a
    // timeout aborts.
    let (guard, watch) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let hung = std::sync::mpsc::RecvTimeoutError::Timeout;
        if watch.recv_timeout(std::time::Duration::from_secs(120)) == Err(hung) {
            eprintln!("{what} hung: a wake was lost");
            std::process::abort();
        }
    });
    guard
}

/// One step of the tests' xorshift64 generator.
#[cfg(test)]
pub(crate) fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm;
    use std::sync::OnceLock;
    use std::thread::Thread;

    /// One direction of a ping-pong: a sequence word, the receiver's
    /// sleeper flag, and the receiver's thread (for the park blocker).
    #[derive(Default)]
    struct Chan {
        seq: AtomicU32,
        flag: AtomicU32,
        rx: OnceLock<Thread>,
    }

    impl Chan {
        fn sleeper(&self) -> Sleeper<'_> {
            Sleeper { word: &self.flag, asleep: 1, awake: 0 }
        }

        fn unpark(&self) {
            self.rx.get().expect("receiver registered").unpark();
        }

        fn send(&self, futex: bool) {
            self.seq.fetch_add(1, Ordering::Release);
            notify(self.sleeper(), || {
                if futex {
                    shm::futex_wake(&self.seq, 1);
                } else {
                    self.unpark();
                }
            });
        }

        /// Wait for message `last + 1`. Neither blocker has a timeout:
        /// a lost wake hangs here, and the watchdog fails the test.
        /// `keep`: what `block` answers — `false` is the idle loops'
        /// "one block per wait, the caller re-checks".
        fn recv(&self, last: u32, spin: Spin<'_>, futex: bool, keep: bool, blocks: &mut u32) {
            let block = || {
                *blocks += 1;
                if futex {
                    shm::futex_wait(&self.seq, last, None);
                } else {
                    std::thread::park();
                }
                keep
            };
            let ready = || self.seq.load(Ordering::Acquire) != last;
            wait(spin, Some(self.sleeper()), ready, || (), block);
        }
    }

    /// What a ping-pong run adds to the plain exchange.
    #[derive(Clone, Copy, PartialEq)]
    enum Extra {
        Nothing,
        /// The async shapes: one wait in four starts only once its ping
        /// is there (the waiter arrives after `DONE` — it must not
        /// block, nobody is left to wake it), one in four after a few
        /// yields (it announces around the post).
        Late,
        /// The worker's slot: the flag-gated wake of `post` mixed with
        /// unconditional `unpark`s (`request_shutdown`, the donation
        /// rounds) before and after it, against a consumer that blocks
        /// once per wait and re-checks itself, as `worker_loop` does. A
        /// stray token costs a pass, never a hang. Park blocker only.
        Strays,
    }

    /// `n` ping-pongs between two threads through [`wait`]/[`notify`].
    /// One ping in 128 is preceded by a random pause of up to 1023
    /// yields (≈ 250 µs), which straddles the consumer's whole spin — a
    /// learned poll at its cap included — on one CPU and on two.
    /// Returns how many of the consumer's waits (polled, blocked).
    fn ping_pong(n: u32, budget: u32, futex: bool, extra: Extra) -> (u32, u32) {
        let _watchdog = abort_if_hung("wait.rs hand-off test");
        let (ping, pong) = (Chan::default(), Chan::default());
        pong.rx.set(std::thread::current()).unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let (mut polled, mut blocks, mut poll) = (0, 0, Poll::default());
                let mut rng = 0xD1B5_4A32_D192_ED03u64;
                for i in 0..n {
                    let arrived = || ping.seq.load(Ordering::Acquire) != i;
                    let before = blocks;
                    match (extra == Extra::Late, xorshift(&mut rng) % 4) {
                        (true, 1) => {
                            while !arrived() {
                                std::thread::yield_now();
                            }
                        }
                        (true, 3) => (0..rng >> 61).for_each(|_| std::thread::yield_now()),
                        _ => (),
                    }
                    let was_there = arrived();
                    loop {
                        // All four phases when budgeted, block-only at 0.
                        let spin = match budget {
                            0 => Spin::default(),
                            _ => Spin { poll: Some(&mut poll), budget, rounds: 2 },
                        };
                        ping.recv(i, spin, futex, extra != Extra::Strays, &mut blocks);
                        if arrived() {
                            break;
                        }
                    }
                    assert!(!was_there || blocks == before, "a waiter arriving late blocked");
                    polled += u32::from(blocks == before);
                    pong.send(futex);
                }
                (polled, blocks)
            });
            ping.rx.set(consumer.thread().clone()).unwrap();
            let (mut rng, mut blocks) = (0x9E37_79B9_7F4A_7C15u64, 0);
            for i in 0..n {
                if xorshift(&mut rng).is_multiple_of(128) {
                    (0..(rng >> 32) % 1024).for_each(|_| std::thread::yield_now());
                }
                let stray = if extra == Extra::Strays { rng >> 8 & 3 } else { 0 };
                if stray == 1 {
                    ping.unpark();
                }
                ping.send(futex);
                if stray == 2 {
                    ping.unpark();
                }
                pong.recv(i, Spin { budget, ..Spin::default() }, futex, true, &mut blocks);
            }
            consumer.join().unwrap()
        })
    }

    #[test]
    fn no_wake_is_lost_over_a_million_handoffs() {
        for futex in [false, true] {
            let (polled, blocked) = ping_pong(1_000_000, 256, futex, Extra::Nothing);
            assert!(polled >= 1_000 && blocked >= 1_000, "both paths taken: {polled} / {blocked}");
        }
    }

    /// Budget 0 — `SpinPolicy::ParkOnly`: every wait that is not ready
    /// on arrival announces and blocks.
    #[test]
    fn no_wake_is_lost_without_a_spin() {
        for futex in [false, true] {
            let (_, blocked) = ping_pong(100_000, 0, futex, Extra::Nothing);
            assert!(blocked >= 1_000, "blocked path taken: {blocked}");
        }
    }

    /// The three pairs the in-process hand-off added (see [`Extra`]),
    /// spinning and block-only.
    #[test]
    fn no_wake_is_lost_to_a_late_waiter_or_a_stray_token() {
        for budget in [256, 0] {
            for futex in [false, true] {
                let (polled, blocked) = ping_pong(100_000, budget, futex, Extra::Late);
                assert!(polled >= 25_000 && blocked >= 100, "late: {polled} / {blocked}");
            }
            let (_, blocked) = ping_pong(100_000, budget, false, Extra::Strays);
            assert!(blocked >= 100, "strays, blocked path taken: {blocked}");
        }
    }

    #[test]
    fn poll_budget_follows_whether_polling_pays() {
        // Passes of the learned poll one wait runs, against a peer that
        // answers on the first pass (`pays`) or never.
        let spins = |p: &mut Poll, pays: bool| {
            let mut calls = 0u32;
            let ready = || {
                calls += 1;
                pays && calls > 1
            };
            wait(Spin { poll: Some(p), ..Spin::default() }, None, ready, || (), || false);
            calls - 1
        };
        let cap = crate::spin::POLL_CAP;
        let mut p = Poll::default();
        // The first wait probes; answers within the spin double the
        // budget, up to the cap.
        assert_eq!((spins(&mut p, true), p.budget), (1, 2 * PROBE));
        for _ in 0..16 {
            spins(&mut p, true);
        }
        assert_eq!(p.budget, cap);
        // Spins that run dry halve it, to zero …
        let steps = (cap / PROBE).ilog2() + 1;
        (0..steps).for_each(|k| assert_eq!(spins(&mut p, false), cap >> k));
        // … then one PROBE-pass probe per PROBE waits, until one is
        // answered.
        let dry: u32 = (0..4 * PROBE).map(|_| spins(&mut p, false)).sum();
        assert_eq!((dry, p.budget), (4 * PROBE, 0));
        (1..PROBE).for_each(|_| assert_eq!(spins(&mut p, true), 0));
        assert_eq!((spins(&mut p, true), p.budget), (1, 2 * PROBE));
    }
}
