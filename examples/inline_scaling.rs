//! Figure 3's question asked of the runtime at N = 1 and N = 2: do two
//! vCPUs deliver twice the null inline calls of one?
//!
//! One inline null entry on a two-vCPU runtime. Each client thread is
//! pinned to a CPU of its own and calls the entry on its own vCPU for a
//! fixed time; the example prints ns per call per client — the median
//! over the rounds, with the lowest and highest round — for one client
//! and for two, with the observability planes on (the default) and off.
//! If the call path writes no line another vCPU writes, the two-client
//! figure stays close to the one-client figure; a shared written line
//! roughly doubles it. The control row (`2 apart`) runs the two clients
//! against two one-vCPU runtimes that share nothing: what the host itself
//! costs a second busy CPU. The `2 on vCPU 0` row has both clients call
//! the same vCPU from their two CPUs: one thread owns the vCPU's stats
//! cell and counts with plain stores, the other counts on its shared copy
//! with locked adds; the row prints the faster and the slower client of
//! each round (the owner is whichever thread counted first).
//!
//! Run: `cargo run --release --example inline_scaling [-- --seconds S --rounds R]`
//! (defaults: 1 s per round, 5 rounds). Needs two allowed CPUs.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ppc_ipc::rt::{affinity, Client, EntryId, EntryOptions, Runtime};

/// A runtime of `n_vcpus` with the inline null entry, observability on
/// or off.
fn null_runtime(n_vcpus: usize, obs: bool) -> (Arc<Runtime>, EntryId) {
    let rt = Runtime::new(n_vcpus);
    rt.obs().set_enabled(obs);
    rt.spans().set_enabled(obs);
    rt.flight().set_enabled(obs);
    let opts = EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() };
    let ep = rt.bind("null", opts, Arc::new(|c| c.args)).unwrap();
    (rt, ep)
}

/// One round: client *i* calls on `cpus[i]` for `secs`; ns/call each.
fn round(clients: Vec<(Client, EntryId)>, cpus: &[usize], secs: f64) -> Vec<f64> {
    let start = Barrier::new(clients.len());
    std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .zip(cpus)
            .map(|((client, ep), &cpu)| {
                let start = &start;
                s.spawn(move || {
                    affinity::pin_current(cpu);
                    start.wait();
                    let (t0, mut calls) = (Instant::now(), 0u64);
                    let budget = Duration::from_secs_f64(secs);
                    loop {
                        for i in 0..4096u64 {
                            assert_eq!(client.call(ep, [i; 8]).expect("null call")[0], i);
                        }
                        calls += 4096;
                        let t = t0.elapsed();
                        if t >= budget {
                            return t.as_nanos() as f64 / calls as f64;
                        }
                    }
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str, default: f64| {
        args.iter().position(|a| a == flag).map_or(default, |i| args[i + 1].parse().unwrap())
    };
    let (secs, rounds) = (arg("--seconds", 1.0), arg("--rounds", 5.0) as usize);
    let cpus = affinity::allowed_cpus();
    assert!(cpus.len() >= 2, "needs two allowed CPUs, have {cpus:?}");
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find(|l| l.starts_with("model name")).map(str::to_owned))
        .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_owned()))
        .unwrap_or_default();
    println!("host {model:?}, CPUs {cpus:?}; {rounds} rounds of {secs} s");
    println!("{:<5}{:>20}{:>34}", "obs", "clients", "ns/call per client [min..max]");
    for obs in [true, false] {
        let (rt, ep) = null_runtime(2, obs);
        let apart = [null_runtime(1, obs), null_runtime(1, obs)];
        let on = if obs { "on" } else { "off" };
        let print = |name: &str, mut ns: Vec<f64>| {
            ns.sort_by(f64::total_cmp);
            let (lo, mid, hi) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1]);
            println!("{on:<5}{name:>20}{:>34}", format!("{mid:.1} [{lo:.1}..{hi:.1}]"));
        };
        for name in ["1", "2", "2 apart"] {
            let clients = || match name {
                "1" => vec![(rt.client(0, 1), ep)],
                "2" => vec![(rt.client(0, 1), ep), (rt.client(1, 2), ep)],
                _ => apart.iter().map(|(rt, ep)| (rt.client(0, 1), *ep)).collect(),
            };
            print(name, (0..rounds).flat_map(|_| round(clients(), &cpus, secs)).collect());
        }
        let (one, ep) = null_runtime(1, obs);
        let both: Vec<Vec<f64>> = (0..rounds)
            .map(|_| round(vec![(one.client(0, 1), ep), (one.client(0, 2), ep)], &cpus, secs))
            .collect();
        let side = |pick: fn(f64, f64) -> f64| both.iter().map(|r| pick(r[0], r[1])).collect();
        print("2 on vCPU 0, faster", side(f64::min));
        print("2 on vCPU 0, slower", side(f64::max));
    }
}
