//! Control-plane churn: the lifecycle paths the per-vCPU replication
//! rework added — exchange-era handler retirement, dead-entry
//! reclamation, pool decay — exercised under concurrent call traffic.
//!
//! These are the anti-leak gates: before the epoch rework, retired
//! handlers accumulated in a graveyard forever and reclaimed entries
//! stayed pinned by the registry. Every test here would have failed
//! against that runtime.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppc_rt::{EntryOptions, RtError, Runtime};

/// Abort (with diagnostics) if `done` is not set within `secs`.
fn watchdog(
    done: Arc<AtomicBool>,
    secs: u64,
    tag: &'static str,
    rt: Arc<Runtime>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        while std::time::Instant::now() < deadline {
            if done.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: {tag} did not finish within {secs}s — aborting");
        rt.dump_diagnostics();
        std::process::abort();
    })
}

/// Satellite (a), part 1: 10k exchanges under concurrent call load stay
/// memory-flat. Every retired handler is freed as its era quiesces —
/// `handlers_freed` trails `handlers_retired` by at most the bounded
/// limbo length, and the limbo itself drains to empty once traffic
/// stops.
#[test]
fn ten_k_exchanges_under_load_stay_memory_flat() {
    let rt = Runtime::new(2);
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 120, "10k exchanges", Arc::clone(&rt));
    let ep = rt.bind("swapee", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let progress: Vec<Arc<AtomicU64>> =
        (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut clients = Vec::new();
    for v in 0..2 {
        let c = rt.client(v, 1 + v as u32);
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress[v]);
        clients.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            while !stop.load(Ordering::Acquire) {
                match c.call(ep, [ok; 8]) {
                    Ok(_) => {
                        ok += 1;
                        progress.store(ok, Ordering::Release);
                    }
                    Err(e) => panic!("unexpected error under exchange churn: {e}"),
                }
            }
            ok
        }));
    }
    // Don't start churning until every client is demonstrably in its
    // call loop — a tight exchange loop can otherwise finish before the
    // client threads are first scheduled, making "under load" vacuous.
    while progress.iter().any(|p| p.load(Ordering::Acquire) == 0) {
        std::thread::yield_now();
    }

    const EXCHANGES: u64 = 10_000;
    for gen in 0..EXCHANGES {
        rt.exchange(ep, Arc::new(move |_| [gen; 8]), 0).unwrap();
    }
    stop.store(true, Ordering::Release);
    for c in clients {
        assert!(c.join().unwrap() > 0, "clients made progress throughout");
    }

    let entry = rt.entry_weak(ep).unwrap().upgrade().expect("entry still live");
    // In steady state each exchange frees the previous era's retiree, so
    // the limbo never grows beyond a couple of eras.
    assert!(entry.limbo_len() <= 2, "limbo unbounded: {}", entry.limbo_len());
    // Traffic has stopped; a maintenance pass drains whatever era was
    // still in flight at the end.
    for _ in 0..100 {
        if entry.limbo_len() == 0 {
            break;
        }
        rt.frank_maintain();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(entry.limbo_len(), 0, "limbo drains to empty after quiesce");
    let retired = rt.stats.handlers_retired();
    let freed = rt.stats.handlers_freed();
    assert_eq!(retired, EXCHANGES);
    assert_eq!(freed, retired, "every retired handler was freed: {freed}/{retired}");
    done.store(true, Ordering::Release);
    dog.join().unwrap();
}

/// Satellite (a), part 2: after `reclaim_slot`, a `Weak` taken on the
/// entry's shared state fails to upgrade — the registry reference (the
/// old leak) is actually gone.
#[test]
fn weak_upgrade_fails_after_reclaim() {
    let rt = Runtime::new(1);
    let ep = rt.bind("mortal", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [3; 8]).unwrap(), [3; 8]);
    let weak = rt.entry_weak(ep).unwrap();
    assert!(weak.upgrade().is_some(), "live entry upgrades");

    rt.hard_kill(ep, 0).unwrap();
    assert!(weak.upgrade().is_some(), "dead-but-unreclaimed entry is still pinned");
    rt.reclaim_slot(ep, 0).unwrap();
    assert!(weak.upgrade().is_none(), "reclaim dropped the last registry reference");
    assert_eq!(c.call(ep, [0; 8]), Err(RtError::UnknownEntry(ep)));
    assert_eq!(rt.stats.entries_reclaimed(), 1);
}

/// Lifecycle acceptance check 3: bind → kill → reclaim → rebind at the same
/// `EntryId` frees the old `EntryShared` while the new binding serves.
#[test]
fn rebind_at_same_id_frees_old_entry() {
    let rt = Runtime::new(2);
    let opts = EntryOptions { want_ep: Some(37), ..Default::default() };
    let ep = rt.bind("first", opts, Arc::new(|_| [1; 8])).unwrap();
    assert_eq!(ep, 37);
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [0; 8]).unwrap(), [1; 8]);
    let old = rt.entry_weak(ep).unwrap();

    rt.hard_kill(ep, 0).unwrap();
    rt.reclaim_slot(ep, 0).unwrap();
    let ep2 = rt.bind("second", opts, Arc::new(|_| [2; 8])).unwrap();
    assert_eq!(ep2, 37, "the reclaimed ID is reusable");
    assert!(old.upgrade().is_none(), "old generation freed, not shadowed");
    assert_eq!(c.call(ep2, [0; 8]).unwrap(), [2; 8], "new generation serves");
    // The name table followed the lifecycle: the old name went with the
    // reclaim, the new one resolves.
    assert_eq!(rt.ns_lookup("first"), None);
    assert_eq!(rt.ns_lookup("second"), Some(37));
}

/// Satellite (b): worker pools grown by a burst decay back to their
/// bind-time size (`initial_workers`) on a Frank maintenance pass, and
/// the shrunken entry still serves.
#[test]
fn pools_decay_after_burst() {
    let rt = Runtime::new(1);
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 60, "pool decay", Arc::clone(&rt));
    let ep = rt
        .bind(
            "bursty",
            EntryOptions::default(),
            Arc::new(|c| {
                std::thread::sleep(Duration::from_millis(2));
                c.args
            }),
        )
        .unwrap();

    // A burst of concurrent callers forces the pool to grow (each
    // blocked call holds a worker).
    let burst: Vec<_> = (0..8)
        .map(|i| {
            let c = rt.client(0, 1 + i as u32);
            std::thread::spawn(move || c.call(ep, [i; 8]).unwrap())
        })
        .collect();
    for t in burst {
        t.join().unwrap();
    }
    let grown = rt.idle_workers(ep).unwrap();
    assert!(grown >= 4, "burst grew the pool (idle={grown})");

    let (reaped, _) = rt.frank_maintain();
    assert_eq!(reaped, grown - 1, "maintenance reaped the surplus");
    assert_eq!(rt.idle_workers(ep).unwrap(), 1, "idle pool decayed to `initial_workers`");

    // The decayed entry still serves, growing back on demand.
    let c = rt.client(0, 99);
    for i in 0..20u64 {
        assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
    }
    done.store(true, Ordering::Release);
    dog.join().unwrap();
}

/// Satellite (d): cross-vCPU drain correctness. Handlers carry a canary
/// that counts live (not-yet-dropped) closures; calls racing exchanges
/// across two vCPUs must only ever execute a live handler, and once
/// traffic quiesces exactly one canary — the current handler's — is
/// left alive (every retiree was dropped, none early).
#[test]
fn exchange_churn_never_runs_a_freed_handler() {
    struct Canary {
        live: Arc<AtomicU64>,
        executing_freed: Arc<AtomicBool>,
        dropped: AtomicBool,
    }
    impl Canary {
        fn new(live: &Arc<AtomicU64>, executing_freed: &Arc<AtomicBool>) -> Arc<Canary> {
            live.fetch_add(1, Ordering::SeqCst);
            Arc::new(Canary {
                live: Arc::clone(live),
                executing_freed: Arc::clone(executing_freed),
                dropped: AtomicBool::new(false),
            })
        }
    }
    impl Drop for Canary {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    let rt = Runtime::new(2);
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 120, "canary churn", Arc::clone(&rt));
    let live = Arc::new(AtomicU64::new(0));
    let executing_freed = Arc::new(AtomicBool::new(false));

    let make_handler = |live: &Arc<AtomicU64>, flag: &Arc<AtomicBool>, gen: u64| {
        let canary = Canary::new(live, flag);
        Arc::new(move |_: &mut ppc_rt::CallCtx<'_>| {
            // The dispatch claim must keep the handler alive for the
            // whole execution; observing our own Drop is the bug the
            // era protocol exists to prevent.
            if canary.dropped.load(Ordering::SeqCst) {
                canary.executing_freed.store(true, Ordering::SeqCst);
            }
            [gen; 8]
        }) as ppc_rt::Handler
    };

    let ep = rt
        .bind("canary", EntryOptions::default(), make_handler(&live, &executing_freed, 0))
        .unwrap();

    let remaining = Arc::new(AtomicU64::new(2));
    let clients: Vec<_> = (0..2)
        .map(|v| {
            let c = rt.client(v, 1 + v as u32);
            let remaining = Arc::clone(&remaining);
            std::thread::spawn(move || {
                for _ in 0..1_000u64 {
                    // Torn or freed-handler results are caught by the
                    // canary flag, not the return value.
                    c.call(ep, [0; 8]).expect("entry stays live");
                }
                remaining.fetch_sub(1, Ordering::AcqRel);
            })
        })
        .collect();

    // At least 2000 exchanges, and keep churning until every client has
    // finished its quota mid-churn.
    let mut gen = 0u64;
    while gen < 2_000 || remaining.load(Ordering::Acquire) > 0 {
        gen += 1;
        rt.exchange(ep, make_handler(&live, &executing_freed, gen), 0).unwrap();
    }
    for c in clients {
        c.join().unwrap();
    }
    assert!(!executing_freed.load(Ordering::SeqCst), "a call executed a freed handler");

    // Quiesce: drain the final era's limbo, then exactly the current
    // handler's canary survives.
    for _ in 0..100 {
        if live.load(Ordering::SeqCst) == 1 {
            break;
        }
        rt.frank_maintain();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(live.load(Ordering::SeqCst), 1, "all retired handlers dropped, current alive");
    done.store(true, Ordering::Release);
    dog.join().unwrap();
}

/// The handler-borrow argument under real concurrency: two vCPUs call
/// one *inline* entry — each run borrows the handler straight from the
/// entry's box, on the caller's thread — while a third thread exchanges
/// it 10⁴ times. Every handler owns a guard that counts its running
/// calls; the guard drops when the retired box is freed and counts it
/// as a violation if a call is still running (counted, not panicked:
/// a panic in `drop` during an unwind would abort the run). Each client
/// also sees the handler generations in order, never an older one after
/// a newer.
#[test]
fn inline_exchange_never_frees_a_running_handler() {
    #[derive(Default)]
    struct Freed {
        all: AtomicU64,
        mid_call: AtomicU64,
    }
    struct Retiree {
        running: AtomicU64,
        freed: Arc<Freed>,
    }
    impl Drop for Retiree {
        fn drop(&mut self) {
            let mid_call = self.running.load(Ordering::SeqCst) != 0;
            self.freed.mid_call.fetch_add(u64::from(mid_call), Ordering::SeqCst);
            self.freed.all.fetch_add(1, Ordering::SeqCst);
        }
    }
    let freed = Arc::new(Freed::default());
    let make = |gen: u64| -> ppc_rt::Handler {
        let me = Retiree { running: AtomicU64::new(0), freed: Arc::clone(&freed) };
        Arc::new(move |c| {
            me.running.fetch_add(1, Ordering::SeqCst);
            // Stay inside long enough for an exchange to land mid-run.
            (0..c.args[0]).for_each(|_| std::hint::spin_loop());
            me.running.fetch_sub(1, Ordering::SeqCst);
            [gen; 8]
        })
    };

    let rt = Runtime::new(2);
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 120, "inline exchange churn", Arc::clone(&rt));
    let opts = EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() };
    let ep = rt.bind("inline-swapee", opts, make(0)).unwrap();

    const EXCHANGES: u64 = 10_000;
    let stop = AtomicBool::new(false);
    let progress = [AtomicU64::new(0), AtomicU64::new(0)];
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|v| {
                let (c, stop, progress) = (rt.client(v, 1 + v as u32), &stop, &progress[v]);
                s.spawn(move || {
                    let (mut calls, mut last) = (0u64, 0u64);
                    while !stop.load(Ordering::Acquire) {
                        let gen = c.call(ep, [64; 8]).expect("exchange never kills the entry")[0];
                        assert!(gen >= last, "generation {gen} after {last}");
                        (calls, last) = (calls + 1, gen);
                        progress.store(calls, Ordering::Release);
                    }
                    calls
                })
            })
            .collect();
        while progress.iter().any(|p| p.load(Ordering::Acquire) == 0) {
            std::thread::yield_now();
        }
        for gen in 1..=EXCHANGES {
            rt.exchange(ep, make(gen), 0).unwrap();
        }
        stop.store(true, Ordering::Release);
        for c in clients {
            assert!(c.join().unwrap() > 0, "clients made progress throughout");
        }
    });
    for _ in 0..100 {
        if freed.all.load(Ordering::SeqCst) == EXCHANGES {
            break;
        }
        rt.frank_maintain();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(freed.all.load(Ordering::SeqCst), EXCHANGES, "every retired handler was freed");
    assert_eq!(freed.mid_call.load(Ordering::SeqCst), 0, "handlers freed while a call ran them");
    done.store(true, Ordering::Release);
    dog.join().unwrap();
}

/// Ring lifecycle interop: kill and reclaim with SQEs still queued.
/// Ring submissions hold no entry claim while they wait (claims are
/// taken at execution time), so a hard kill mid-queue must not wedge
/// `reclaim_slot` — queued SQEs for the dead entry complete with error
/// CQEs, every accepted submission gets exactly one completion, and the
/// slot reclaims and rebinds while the same ring keeps serving.
#[test]
fn kill_with_queued_sqes_drains_cleanly() {
    let rt = Runtime::new(1);
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 60, "ring kill drain", Arc::clone(&rt));
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let ep = rt
        .bind(
            "victim",
            ppc_rt::EntryOptions { want_ep: Some(11), ..Default::default() },
            Arc::new(move |c| {
                // The first SQE blocks the ring worker so the rest of
                // the batch is provably still queued at kill time.
                if c.args[0] == 0 {
                    while !g.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring();
    for i in 0..8u64 {
        ring.submit(ep, [i; 8], i).unwrap();
    }
    ring.doorbell();
    rt.hard_kill(ep, 0).unwrap();
    gate.store(true, Ordering::Release);

    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out.len(), 8, "every accepted SQE completed exactly once");
    let errors = out.iter().filter(|c| c.result.is_err()).count();
    assert!(errors >= 1, "submissions queued behind the kill fail: {out:?}");
    for c in &out {
        if let Err(e) = &c.result {
            assert!(
                matches!(
                    e,
                    RtError::EntryDead(_) | RtError::Aborted(_) | RtError::UnknownEntry(_)
                ),
                "dead-entry shaped error, got {e}"
            );
        }
    }

    // The queue held no claims, so the slot reclaims without wedging
    // and the ID rebinds — and the *same ring* serves the new binding.
    rt.reclaim_slot(ep, 0).unwrap();
    let opts = ppc_rt::EntryOptions { want_ep: Some(11), ..Default::default() };
    let ep2 = rt.bind("reborn", opts, Arc::new(|_| [7; 8])).unwrap();
    assert_eq!(ep2, ep);
    ring.submit(ep2, [0; 8], 99).unwrap();
    ring.drain(&mut out);
    assert_eq!(out.last().unwrap().result, Ok([7; 8]));
    done.store(true, Ordering::Release);
    dog.join().unwrap();
}

/// Exchange with SQEs in flight: each queued submission executes
/// whichever handler era is current when it reaches the head of the
/// queue — never a freed one, never a torn mix — and all complete Ok.
#[test]
fn exchange_with_queued_sqes_serves_some_era() {
    let rt = Runtime::new(1);
    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 60, "ring exchange drain", Arc::clone(&rt));
    let ep = rt.bind("gen", EntryOptions::default(), Arc::new(|_| [1; 8])).unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring_with(ppc_rt::RingOptions { depth: 256 });
    let mut out = Vec::new();
    for round in 2..50u64 {
        for i in 0..16u64 {
            ring.submit(ep, [i; 8], round * 100 + i).unwrap();
        }
        ring.doorbell();
        // Race the exchange against the draining batch.
        rt.exchange(ep, Arc::new(move |_| [round; 8]), 0).unwrap();
        ring.drain(&mut out);
    }
    assert_eq!(out.len(), 48 * 16);
    for c in &out {
        let rets = c.result.clone().expect("exchange never kills the entry");
        let gen = rets[0];
        assert!(
            (1..50).contains(&gen),
            "result from a real handler era, got {gen}"
        );
    }
    done.store(true, Ordering::Release);
    dog.join().unwrap();
}

