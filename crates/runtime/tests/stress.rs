//! Cross-vCPU stress: many clients × many entries × every dispatch
//! variant, with and without lifecycle chaos.
//!
//! Two invariants anchor the suite:
//!
//! 1. **No lost replies / no deadlocks** — every call either returns a
//!    result or a well-defined error; every client thread joins. A
//!    watchdog aborts the process if the run wedges, so a hang fails the
//!    test instead of hanging CI.
//! 2. **Stats conservation** — in a chaos-free run, the facility's
//!    sharded counters and the handlers' own run counts describe the
//!    same set of events: `calls + async_calls == handler runs` and
//!    `calls == inline + spin + park` (each sync call resolves by
//!    exactly one rendezvous mode).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ppc_rt::{EntryOptions, Handler, RtError, Runtime};

/// Abort the whole process if `done` is not set within `secs` — a hung
/// rendezvous would otherwise park the harness forever. Before aborting,
/// dump the runtime's diagnostics (final counter snapshot, latency
/// percentiles, per-vCPU flight-recorder rings) so the wedge comes with
/// the facility's last events attached.
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

#[test]
fn cross_vcpu_mixed_traffic_conserves_stats() {
    const VCPUS: usize = 4;
    const CLIENTS: usize = 8;
    const ITERS: usize = 250;

    let rt = Runtime::new(VCPUS);
    // Every handler counts its own runs: the oracle the dispatcher does
    // not write.
    let runs = Arc::new(AtomicU64::new(0));
    let echo = || -> Handler {
        let runs = Arc::clone(&runs);
        Arc::new(move |c| {
            runs.fetch_add(1, Ordering::Relaxed);
            c.args
        })
    };
    // M entries covering the option matrix: plain (twice), inline, and
    // a multi-worker one.
    let eps = [
        rt.bind("plain", EntryOptions::default(), echo()).unwrap(),
        rt.bind("plain2", EntryOptions::default(), echo()).unwrap(),
        rt.bind("inline", EntryOptions { inline_ok: true, ..Default::default() }, echo())
            .unwrap(),
        rt.bind("wide", EntryOptions { initial_workers: 2, ..Default::default() }, echo())
            .unwrap(),
    ];

    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 120, "mixed traffic", Arc::clone(&rt));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let rt = Arc::clone(&rt);
            let client = rt.client(i % VCPUS, 100 + i as u32);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ i as u64);
                for n in 0..ITERS {
                    let ep = eps[rng.gen_range(0..eps.len())];
                    let args = [n as u64, i as u64, 0, 0, 0, 0, 0, 0];
                    match rng.gen_range(0..4u32) {
                        // Sync: the reply must be the echo, always.
                        0 | 1 => {
                            let rets = client.call(ep, args).expect("sync call on live entry");
                            assert_eq!(rets, args, "lost or corrupted reply");
                        }
                        // Async: dispatch, then await the reply.
                        2 => {
                            let pending =
                                client.call_async(ep, args).expect("async call on live entry");
                            assert_eq!(pending.wait(), args, "lost async reply");
                        }
                        // Upcall: runtime-manufactured async request.
                        _ => {
                            let pending = rt
                                .upcall(client.vcpu, ep, args)
                                .expect("upcall on live entry");
                            assert_eq!(pending.wait(), args, "lost upcall reply");
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    done.store(true, Ordering::Release);
    dog.join().unwrap();

    // Conservation: the sharded per-vCPU cells, aggregated, must agree
    // with the handlers' own run counts — every dispatched call ran and
    // was counted exactly once, nothing double-counted, nothing lost.
    let s = rt.stats.snapshot();
    assert_eq!(
        s.calls + s.async_calls,
        runs.load(Ordering::Relaxed),
        "facility counters disagree with the handler runs: {s}"
    );
    assert_eq!(s.calls + s.async_calls, (CLIENTS * ITERS) as u64);
    // Each sync call resolved by exactly one mode.
    assert_eq!(s.calls, s.inline_calls + s.spin_waits + s.park_waits, "{s}");
    // Upcalls are a subset of async dispatches.
    assert!(s.upcalls <= s.async_calls);
    assert_eq!(s.server_faults, 0);
}

#[test]
fn chaos_kill_exchange_never_wedges() {
    const VCPUS: usize = 2;
    const CLIENTS: usize = 4;
    const ITERS: usize = 300;
    const CHAOS_ROUNDS: usize = 40;

    let rt = Runtime::new(VCPUS);
    // Victim entries get killed, reclaimed, and rebound underneath the
    // clients; the durable entry gets its handler exchanged mid-traffic.
    let durable = rt
        .bind("durable", EntryOptions::default(), Arc::new(|c| c.args))
        .unwrap();
    let victims: Vec<usize> = (0..3)
        .map(|i| {
            rt.bind(
                &format!("victim-{i}"),
                EntryOptions { want_ep: Some(10 + i), ..Default::default() },
                Arc::new(|c| c.args),
            )
            .unwrap()
        })
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    let dog = watchdog(Arc::clone(&done), 120, "chaos kill/exchange", Arc::clone(&rt));
    let stop = Arc::new(AtomicBool::new(false));

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let rt = Arc::clone(&rt);
            let client = rt.client(i % VCPUS, 200 + i as u32);
            let victims = victims.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xDEAD ^ i as u64);
                let mut ok = 0u64;
                for n in 0..ITERS {
                    let (ep, must_succeed) = if rng.gen::<bool>() {
                        (durable, true)
                    } else {
                        (victims[rng.gen_range(0..victims.len())], false)
                    };
                    let args = [n as u64, i as u64, 0, 0, 0, 0, 0, 0];
                    match client.call(ep, args) {
                        Ok(rets) => {
                            assert_eq!(rets, args, "corrupted reply under chaos");
                            ok += 1;
                        }
                        // The only legitimate failures while entries die
                        // and are reborn around us.
                        Err(
                            RtError::EntryDead(_)
                            | RtError::Aborted(_)
                            | RtError::UnknownEntry(_),
                        ) if !must_succeed => {}
                        Err(e) => panic!("unexpected error under chaos: {e}"),
                    }
                }
                ok
            })
        })
        .collect();

    let chaos = {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xBADCAB);
            for round in 0..CHAOS_ROUNDS {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let ep = 10 + rng.gen_range(0..3usize);
                if rng.gen::<bool>() {
                    // Soft kill: drain, reap, free the ID, rebind.
                    if rt.soft_kill(ep, 0).is_ok() {
                        rt.wait_drained(ep).unwrap();
                        rt.reclaim_slot(ep, 0).unwrap();
                        rt.bind(
                            &format!("victim-re-{round}"),
                            EntryOptions { want_ep: Some(ep), ..Default::default() },
                            Arc::new(|c| c.args),
                        )
                        .unwrap();
                    }
                } else if rt.hard_kill(ep, 0).is_ok() {
                    rt.reclaim_slot(ep, 0).unwrap();
                    rt.bind(
                        &format!("victim-re-{round}"),
                        EntryOptions { want_ep: Some(ep), ..Default::default() },
                        Arc::new(|c| c.args),
                    )
                    .unwrap();
                }
                // Exchange on the durable entry: handler swaps must stay
                // invisible to callers (same echo semantics).
                rt.exchange(durable, Arc::new(|c: &mut ppc_rt::CallCtx<'_>| c.args), 0)
                    .unwrap();
                std::thread::yield_now();
            }
        })
    };

    let mut total_ok = 0u64;
    for h in clients {
        total_ok += h.join().expect("client thread panicked under chaos");
    }
    stop.store(true, Ordering::Relaxed);
    chaos.join().expect("chaos thread panicked");
    done.store(true, Ordering::Release);
    dog.join().unwrap();

    // Durable-entry calls never fail, so at least those succeeded; and
    // the facility's own ledger must cover every success we observed.
    assert!(total_ok > 0);
    assert!(rt.stats.calls() >= total_ok, "stats lost completed calls");
}
