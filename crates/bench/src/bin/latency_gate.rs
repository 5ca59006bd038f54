//! The CI latency gate binary: replay the rt/bulk/ring matrices
//! against the committed `BENCH_*.json` baselines and exit non-zero on
//! tail regression (see `ppc_bench::gate` for the tolerance model).
//!
//! Run:  `cargo run -p ppc-bench --release --bin latency_gate`
//! CI:   `cargo run -p ppc-bench --release --bin latency_gate -- --smoke`
//! JSON: `... --json BENCH_LATENCY_GATE.json`
//! Baselines are read from `--baseline-dir <dir>` (default `.`, the
//! repo root in CI). A missing baseline file or mode is *skipped*, not
//! failed: a new mode starts gating itself the moment its baseline is
//! committed.
//!
//! Unlike the bench bins (whose distributions come from the runtime's
//! 1/128-sampled histogram plane), the gate times **every call** into a
//! private histogram, so the p999 and max columns are exact — a single
//! 80 µs park convoy in 40k calls is visible, which is precisely the
//! event the gate exists to catch. On violation the runtime's
//! diagnostics (PR-4 flight recorder + tail exemplars, with per-phase
//! breakdowns) are dumped to stderr so CI logs attribute the
//! regression by phase without a re-run.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ppc_bench::gate::{self, Tolerance, Violation};
use ppc_bench::report::{self, Json};
use ppc_rt::{EntryOptions, Handler, QosClass, RingOptions, RtError, Runtime, SpinPolicy};

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

/// Time `calls` null calls one by one into an exact histogram.
fn null_mode(
    opts: EntryOptions,
    policy: SpinPolicy,
    calls: u64,
) -> (report::Histogram, Arc<Runtime>) {
    let rt = Runtime::new(1);
    rt.set_spin_policy(policy);
    let ep = rt.bind("gate-null", opts, busy_handler(0)).unwrap();
    let client = rt.client(0, 1);
    for _ in 0..200 {
        client.call(ep, [0; 8]).unwrap();
    }
    let mut h = report::Histogram::new();
    for i in 0..calls {
        let t0 = Instant::now();
        std::hint::black_box(client.call(ep, std::hint::black_box([i; 8])).unwrap());
        h.record(t0.elapsed().as_nanos() as u64);
    }
    (h, rt)
}

/// Time `calls` grant-backed bulk-copy calls of `size` bytes (the
/// `bulk_modes` copy-mode handler: privatize into a pooled buffer,
/// stamp, copy back).
fn bulk_copy_mode(size: usize, calls: u64) -> (report::Histogram, Arc<Runtime>) {
    let rt = Runtime::new(1);
    let bulk = Arc::clone(rt.bulk());
    let stats = Arc::clone(&rt.stats);
    let ep = rt
        .bind(
            "gate-bulk",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let mut buf = bulk
                    .pool(ctx.vcpu)
                    .take(desc.len as usize, stats.cell(ctx.vcpu))
                    .expect("span within the top size class");
                let scratch = &mut buf.as_mut_slice()[..desc.len as usize];
                let n = ctx.copy_from(desc, scratch).unwrap();
                if let Some(b) = scratch.first_mut() {
                    *b = b.wrapping_add(1);
                }
                let n2 = ctx.copy_to(desc, scratch).unwrap();
                debug_assert_eq!(n, n2);
                bulk.pool(ctx.vcpu).put(buf);
                [n as u64, 0, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let region = client.bulk_register(size).unwrap();
    region.fill(0, &vec![7u8; size]).unwrap();
    region.grant(ep, true).unwrap();
    let desc = region.full_desc(true);
    for _ in 0..20 {
        client.call_bulk(ep, [0; 8], desc).unwrap();
    }
    let mut h = report::Histogram::new();
    for _ in 0..calls {
        let t0 = Instant::now();
        std::hint::black_box(client.call_bulk(ep, [0; 8], desc).unwrap());
        h.record(t0.elapsed().as_nanos() as u64);
    }
    (h, rt)
}

/// Replay the `ring_modes` open loop (1 µs Latency service, every 8th
/// arrival a 4 µs Bulk-class entry) at `rate_per_s` for `run_ms`,
/// recording exact per-completion sojourn — overall and for the
/// Latency class alone.
fn ring_sojourn(
    rate_per_s: f64,
    run_ms: u64,
) -> (report::Histogram, report::Histogram, Arc<Runtime>) {
    let rt = Runtime::new(1);
    let ep = rt.bind("gate-ring", EntryOptions::default(), busy_handler(1_000)).unwrap();
    let bulk_ep = rt
        .bind(
            "gate-ring-bulk",
            EntryOptions { qos: QosClass::Bulk, ..Default::default() },
            busy_handler(4_000),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring_with(RingOptions { sq_depth: 64, cq_depth: 64, credits: 64 });
    let mean_ns = 1e9 / rate_per_s;
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next_exp = move || -> u64 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((lcg >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        (-mean_ns * (1.0 - u).ln()).round() as u64
    };
    let mut sojourn = report::Histogram::new();
    let mut sojourn_lat = report::Histogram::new();
    let mut out: Vec<ppc_rt::Completion> = Vec::with_capacity(64);
    let mut offered = 0u64;
    let run_ns = run_ms * 1_000_000;
    let t0 = Instant::now();
    let mut next_arrival = next_exp();
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= run_ns {
            break;
        }
        let mut submitted = false;
        while next_arrival <= now {
            offered += 1;
            next_arrival += next_exp();
            let target = if offered.is_multiple_of(8) { bulk_ep } else { ep };
            match ring.submit(target, [0; 8], now) {
                Ok(()) => submitted = true,
                Err(RtError::RingFull) => {}
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        if submitted {
            ring.doorbell();
        }
        if ring.reap(64, &mut out) > 0 {
            let now = t0.elapsed().as_nanos() as u64;
            for c in out.drain(..) {
                c.result.expect("gate entries stay live");
                let s = now.saturating_sub(c.user);
                sojourn.record(s);
                if c.ep == ep {
                    sojourn_lat.record(s);
                }
            }
        } else if !submitted {
            std::thread::yield_now();
        }
    }
    ring.drain(&mut out);
    let tail = t0.elapsed().as_nanos() as u64;
    for c in out.drain(..) {
        let s = tail.saturating_sub(c.user);
        sojourn.record(s);
        if c.ep == ep {
            sojourn_lat.record(s);
        }
    }
    drop(ring);
    (sojourn, sojourn_lat, rt)
}

/// Gate one measured mode, record it in the artifact, dump diagnostics
/// on violation, and accumulate.
#[allow(clippy::too_many_arguments)]
fn gate_mode(
    json: &mut report::JsonReport,
    violations: &mut Vec<Violation>,
    gated: &mut usize,
    mode: &str,
    field: &str,
    h: &report::Histogram,
    baseline: &Json,
    tol: &Tolerance,
    rt: &Runtime,
) {
    let mut measured = report::latency_fields(h);
    // A tail quantile needs sample support to mean anything: with n
    // below ~2/(1−q) the estimate degenerates to the max sample, and
    // gating it would re-run the max check under a tighter tolerance
    // (the 200-call 1 MiB matrix would fail on any single hypervisor
    // preemption). Strip unsupported quantiles; `check` skips missing
    // fields, and the exact max is always gated.
    if let Json::Obj(fields) = &mut measured {
        let n = h.count();
        fields.retain(|(k, _)| match k.as_str() {
            "p999" => n >= 2_000,
            "p99" => n >= 200,
            _ => true,
        });
    }
    let v = gate::check(mode, &measured, baseline, tol);
    let verdict = if v.is_empty() { "ok" } else { "VIOLATION" };
    println!(
        "gate: {mode:<24} {field:<12} count={:<8} p99={:<8} p999={:<8} max={:<10} {verdict}",
        h.count(),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max_ns,
    );
    let mut fields = vec![
        (field.to_string(), measured),
        ("violations".to_string(), Json::Num(v.len() as f64)),
    ];
    if !v.is_empty() {
        // Before blaming the runtime, measure the box: a clock-gap
        // probe right after the violation says how much of this
        // machine's time was going to *someone else* (CI neighbors,
        // the hypervisor). A high ratio re-attributes the tail.
        let probe = ppc_rt::telemetry::interference_probe(std::time::Duration::from_millis(5));
        eprintln!(
            "-- interference probe for {mode}: {:.2}% time lost, {} excursion(s), worst {} ns --",
            probe.ratio() * 100.0,
            probe.excursions,
            probe.max_excursion_ns,
        );
        fields.push(("interference_ratio".to_string(), Json::Num(probe.ratio())));
        eprintln!("-- diagnostics for {mode} (tail exemplars attribute by phase) --");
        rt.dump_diagnostics();
        // Freeze the full postmortem for CI artifact upload.
        let dir = std::env::var_os("PPC_BLACKBOX_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let _ = std::fs::create_dir_all(&dir);
        let fname: String = mode
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("blackbox-gate-{fname}.json"));
        match rt.write_blackbox(&format!("latency-gate:{mode}"), &path) {
            Ok(()) => eprintln!("black box written: {}", path.display()),
            Err(e) => eprintln!("black-box write to {} failed: {e}", path.display()),
        }
    }
    json.mode(mode, fields);
    violations.extend(v);
    *gated += 1;
}

fn main() -> ExitCode {
    let (args, json_path) = report::json_flag(std::env::args().skip(1));
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut baseline_dir = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--baseline-dir" {
            if let Some(d) = it.next() {
                baseline_dir = PathBuf::from(d);
            }
        } else if let Some(d) = a.strip_prefix("--baseline-dir=") {
            baseline_dir = PathBuf::from(d);
        }
    }
    let tol = if smoke { Tolerance::smoke() } else { Tolerance::full() };
    let mut json = report::JsonReport::new("latency_gate");
    json.meta("smoke", Json::Bool(smoke));
    let mut violations: Vec<Violation> = Vec::new();
    let mut gated = 0usize;
    println!(
        "latency gate ({} host core(s), {} schedulable; {})",
        report::host_cores(),
        report::cpus_allowed(),
        if smoke { "smoke tolerances" } else { "full tolerances" },
    );

    // -------- rt matrix: exact-timed null calls --------
    let calls: u64 = if smoke { 8_000 } else { 40_000 };
    match gate::load_baseline(&baseline_dir, "BENCH_RTMODES.json") {
        Some(base) => {
            let rt_modes: [(&str, EntryOptions, SpinPolicy); 3] = [
                (
                    "null/inline",
                    EntryOptions { inline_ok: true, ..Default::default() },
                    SpinPolicy::Adaptive,
                ),
                ("null/spin", EntryOptions::default(), SpinPolicy::Adaptive),
                ("null/park", EntryOptions::default(), SpinPolicy::ParkOnly),
            ];
            for (mode, opts, policy) in rt_modes {
                let Some(b) = gate::baseline_latency(&base, mode, "latency_ns") else {
                    println!("gate: {mode}: no committed baseline, skipped");
                    continue;
                };
                let (h, rt) = null_mode(opts, policy, calls);
                gate_mode(
                    &mut json, &mut violations, &mut gated, mode, "latency_ns", &h, b, &tol, &rt,
                );
            }
        }
        None => println!("gate: BENCH_RTMODES.json missing, rt matrix skipped"),
    }

    // -------- bulk matrix: grant-backed copy at the extremes --------
    match gate::load_baseline(&baseline_dir, "BENCH_BULKMODES.json") {
        Some(base) => {
            let bulk_modes: [(&str, usize, u64); 2] = [
                ("64 B/copy", 64, if smoke { 4_000 } else { 20_000 }),
                ("1 MiB/copy", 1 << 20, if smoke { 40 } else { 200 }),
            ];
            for (mode, size, calls) in bulk_modes {
                let Some(b) = gate::baseline_latency(&base, mode, "latency_ns") else {
                    println!("gate: {mode}: no committed baseline, skipped");
                    continue;
                };
                let (h, rt) = bulk_copy_mode(size, calls);
                gate_mode(
                    &mut json, &mut violations, &mut gated, mode, "latency_ns", &h, b, &tol, &rt,
                );
            }
        }
        None => println!("gate: BENCH_BULKMODES.json missing, bulk matrix skipped"),
    }

    // -------- ring matrix: open-loop sojourn at rho 0.5 --------
    match gate::load_baseline(&baseline_dir, "BENCH_RINGMODES.json") {
        Some(base) => {
            let cap = base.get("open_capacity_per_s").and_then(|v| v.as_f64());
            let b = gate::baseline_latency(&base, "open/rho0.5", "sojourn_ns");
            match (cap, b) {
                (Some(cap), Some(b)) => {
                    let run_ms = if smoke { 200 } else { 600 };
                    let (soj, soj_lat, rt) = ring_sojourn(cap * 0.5, run_ms);
                    gate_mode(
                        &mut json,
                        &mut violations,
                        &mut gated,
                        "open/rho0.5",
                        "sojourn_ns",
                        &soj,
                        b,
                        &tol,
                        &rt,
                    );
                    // Gate the Latency class alone once the per-class
                    // baseline exists (the QoS-lane guarantee).
                    if let Some(bl) =
                        gate::baseline_latency(&base, "open/rho0.5", "sojourn_latency_ns")
                    {
                        gate_mode(
                            &mut json,
                            &mut violations,
                            &mut gated,
                            "open/rho0.5 (latency class)",
                            "sojourn_latency_ns",
                            &soj_lat,
                            bl,
                            &tol,
                            &rt,
                        );
                    }
                }
                _ => println!("gate: ring baseline lacks capacity/sojourn fields, skipped"),
            }
        }
        None => println!("gate: BENCH_RINGMODES.json missing, ring matrix skipped"),
    }

    json.meta("modes_gated", Json::Num(gated as f64));
    json.meta("violation_count", Json::Num(violations.len() as f64));
    // Stamp the run's ambient interference (scheduling time lost to
    // other tenants of this box) so a flaky-looking artifact carries
    // its own exculpatory evidence.
    let probe = ppc_rt::telemetry::interference_probe(std::time::Duration::from_millis(5));
    json.meta("interference_ratio", Json::Num(probe.ratio()));
    json.write_if(&json_path);
    println!();
    if violations.is_empty() {
        println!("latency gate: OK ({gated} modes gated, 0 violations)");
        ExitCode::SUCCESS
    } else {
        eprintln!("latency gate: FAILED ({} violation(s) across {gated} modes)", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}
