//! Tail-latency probe: exact (unsampled) per-call timing across wait
//! policies, plus a no-IPC control that measures the host's own jitter
//! floor.
//!
//! The control experiment is the important part. On the 1-core hosts
//! these benches run on, the kernel timer tick plus hypervisor
//! preemption produce wall-clock excursions at a fixed *rate per unit
//! time* (~1.5 events/ms of exposure, 8–32 µs each). A null call with a
//! ~1.3 µs round trip is therefore hit on ~0.2 % of calls — which pins
//! its exact p999 at the excursion magnitude (~16–18 µs) for *any*
//! wait policy, spin or park. Run this before chasing a p999 number:
//! if the control's excursion rate times your p50 exceeds 0.1 %, the
//! p999 you are staring at belongs to the host, not the runtime.
//! What the wait policy *does* own is the far tail: bounded-spin
//! escalation (timeslice donation) caps the convoy class, pulling max
//! from multi-ms to sub-ms. See EXPERIMENTS.md § TAIL-MODES.

use ppc_rt::{EntryOptions, Runtime, SpinPolicy};
use std::sync::Arc;
use std::time::Instant;

fn quantiles(mut v: Vec<u64>) -> (u64, u64, u64, u64, u64) {
    v.sort_unstable();
    let q = |p: f64| v[((v.len() as f64 - 1.0) * p) as usize];
    (q(0.5), q(0.99), q(0.999), q(0.9999), v[v.len() - 1])
}

fn host_floor(iters: u64) {
    // Back-to-back busy intervals, no threads, no syscalls: every
    // excursion here is the host (tick, steal), an absolute floor no
    // IPC design can get under.
    let mut v = Vec::with_capacity(iters as usize);
    let mut acc = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        for i in 0..330 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        v.push(t0.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(acc);
    let over = v.iter().filter(|&&x| x > 8_000).count();
    let (p50, p99, p999, p9999, max) = quantiles(v);
    println!(
        "control  p50={p50} p99={p99} p999={p999} p9999={p9999} max={max} | \
         >8us: {over}/{iters} ({:.3}%) => ~{:.2} excursions/ms",
        100.0 * over as f64 / iters as f64,
        over as f64 / (iters as f64 * p50 as f64 / 1.0e6),
    );
}

fn policy(label: &str, policy: SpinPolicy, calls: u64) {
    let rt = Runtime::new(1);
    rt.set_spin_policy(policy);
    let ep = rt
        .bind("probe", EntryOptions::default(), Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    for _ in 0..500 {
        client.call(ep, [0; 8]).unwrap();
    }
    let mut v = Vec::with_capacity(calls as usize);
    for i in 0..calls {
        let t0 = Instant::now();
        std::hint::black_box(client.call(ep, std::hint::black_box([i; 8])).unwrap());
        v.push(t0.elapsed().as_nanos() as u64);
    }
    let s = rt.stats.snapshot();
    let (p50, p99, p999, p9999, max) = quantiles(v);
    println!(
        "{label:8} p50={p50} p99={p99} p999={p999} p9999={p9999} max={max} | \
         spin={} park={} esc={}",
        s.spin_waits, s.park_waits, s.spin_escalations
    );
}

fn main() {
    let calls = 200_000;
    host_floor(calls);
    policy("adaptive", SpinPolicy::Adaptive, calls);
    policy("park", SpinPolicy::ParkOnly, calls);
}
