//! Dispatch-mode matrix for the real-threads runtime: **inline** vs.
//! **spin-then-park** vs. **park-only** vs. the locked-queue baseline,
//! across handler service times.
//!
//! Run: `cargo run -p ppc-bench --release --bin rt_modes`
//! JSON: `cargo run -p ppc-bench --release --bin rt_modes -- --json BENCH_RTMODES.json`
//!
//! This is the measurement behind the hand-off fast-path rework: inline
//! dispatch eliminates the park/unpark round trip entirely (the caller
//! *is* the worker), and the adaptive spin rendezvous recovers most of
//! that saving for entries that still need a worker, as long as the
//! handler is short. As the handler grows, the rendezvous cost amortizes
//! away and the rows converge (the 20 µs row shows spin ≈ park); past
//! the 100 µs EWMA threshold the adaptive policy stops spinning at all.
//!
//! Per-mode stats snapshots are printed so the attribution is checkable:
//! the inline row completes via `inline=`, the spin rows via `spin=`, the
//! park rows via `park=`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_bench::report;
use ppc_rt::baseline::LockedServer;
use ppc_rt::{EntryOptions, Handler, Runtime, SpinPolicy};

/// Busy-wait handler of roughly `ns` nanoseconds of service time.
fn busy_handler(ns: u64) -> Handler {
    Arc::new(move |ctx| {
        if ns > 0 {
            let t0 = Instant::now();
            while (t0.elapsed().as_nanos() as u64) < ns {
                std::hint::spin_loop();
            }
        }
        ctx.args
    })
}

/// Mean ns/call of `f`, reported as the minimum over `TRIALS` trials of
/// ~`budget_ms` wall clock each (after a short warmup). The minimum is
/// the noise-robust estimator here: interference from the host only ever
/// adds time, so the smallest trial is the closest to the true cost.
fn measure(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    const TRIALS: usize = 5;
    for _ in 0..100 {
        f();
    }
    let budget = Duration::from_millis(budget_ms);
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let mut iters = 0u64;
        while t0.elapsed() < budget {
            for _ in 0..50 {
                f();
            }
            iters += 50;
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn ppc_mode(handler_ns: u64, opts: EntryOptions, policy: SpinPolicy) -> (f64, String, report::Json) {
    let rt = Runtime::new(1);
    rt.set_spin_policy(policy);
    let ep = rt.bind("svc", opts, busy_handler(handler_ns)).unwrap();
    let client = rt.client(0, 1);
    let before = rt.stats.snapshot();
    let ns = measure(100, || {
        std::hint::black_box(client.call(ep, std::hint::black_box([7; 8])).unwrap());
    });
    let delta = rt.stats.snapshot().since(&before);
    // The runtime's own sampled histogram plane supplies the
    // distribution — no extra timing pass, the fast path measured
    // itself while `measure` ran.
    let mut fields = vec![("ns_per_call".to_string(), report::Json::Num(ns))];
    fields.push((
        "latency_ns".to_string(),
        report::latency_fields(&rt.obs().merged(report::LatencyKind::Call)),
    ));
    (ns, delta.to_string(), report::Json::Obj(fields))
}

fn locked_mode(handler_ns: u64) -> (f64, report::Json) {
    let server = LockedServer::start(
        1,
        Arc::new(move |a: [u64; 8]| {
            if handler_ns > 0 {
                let t0 = Instant::now();
                while (t0.elapsed().as_nanos() as u64) < handler_ns {
                    std::hint::spin_loop();
                }
            }
            a
        }),
    );
    let ns = measure(100, || {
        std::hint::black_box(server.call(std::hint::black_box([7; 8])));
    });
    // The baseline has no runtime (and thus no histogram plane): a short
    // explicitly-timed pass fills a private histogram for the artifact.
    let mut h = report::Histogram::new();
    for _ in 0..4096 {
        let t0 = Instant::now();
        std::hint::black_box(server.call(std::hint::black_box([7; 8])));
        h.record(t0.elapsed().as_nanos() as u64);
    }
    let fields = vec![
        ("ns_per_call".to_string(), report::Json::Num(ns)),
        ("latency_ns".to_string(), report::latency_fields(&h)),
    ];
    (ns, report::Json::Obj(fields))
}

fn main() {
    let (_rest, json_path) = report::json_flag(std::env::args().skip(1));
    let mut json = report::JsonReport::new("rt_modes");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("Dispatch-mode latency matrix ({cores} host core(s)); ns/call");
    println!();
    let widths = [12, 10, 10, 10, 10];
    println!(
        "{}",
        report::row(
            &[
                "handler".into(),
                "inline".into(),
                "spin".into(),
                "park".into(),
                "locked".into(),
            ],
            &widths
        )
    );
    println!("{}", report::rule(&widths));

    let mut details: Vec<String> = Vec::new();
    for handler_ns in [0u64, 500, 2_000, 20_000] {
        let (inline_ns, inline_d, inline_j) = ppc_mode(
            handler_ns,
            EntryOptions { inline_ok: true, ..Default::default() },
            SpinPolicy::Adaptive,
        );
        let (spin_ns, spin_d, spin_j) =
            ppc_mode(handler_ns, EntryOptions::default(), SpinPolicy::Adaptive);
        let (park_ns, park_d, park_j) =
            ppc_mode(handler_ns, EntryOptions::default(), SpinPolicy::ParkOnly);
        let (locked_ns, locked_j) = locked_mode(handler_ns);
        let label = if handler_ns == 0 {
            "null".to_string()
        } else {
            format!("{handler_ns} ns")
        };
        for (mode, j) in [
            ("inline", inline_j),
            ("spin", spin_j),
            ("park", park_j),
            ("locked", locked_j),
        ] {
            let report::Json::Obj(fields) = j else { unreachable!() };
            json.mode(&format!("{label}/{mode}"), fields);
        }
        println!(
            "{}",
            report::row(
                &[
                    label.clone(),
                    format!("{inline_ns:.0}"),
                    format!("{spin_ns:.0}"),
                    format!("{park_ns:.0}"),
                    format!("{locked_ns:.0}"),
                ],
                &widths
            )
        );
        details.push(format!("[{label}] inline: {inline_d}"));
        details.push(format!("[{label}] spin:   {spin_d}"));
        details.push(format!("[{label}] park:   {park_d}"));
    }

    println!();
    println!("mode attribution (per-run stats snapshots):");
    for d in details {
        println!("  {d}");
    }
    json.write_if(&json_path);
}
