//! OBS-OVERHEAD: the cost of the always-on observability plane on the
//! null inline call, measured as enabled-vs-compiled-out.
//!
//! Two-step protocol (CI builds the binary twice, so a broken
//! `--no-default-features` build fails there):
//!
//! ```text
//! cargo run -p ppc-bench --release --no-default-features --bin obs_overhead -- --write base.json
//! cargo run -p ppc-bench --release --bin obs_overhead -- --check base.json
//! ```
//!
//! The compiled-out run records the baseline ns/call; the enabled run
//! re-measures and prints the difference. It reports and does not
//! judge: two runs minutes apart on a shared host differ by more than
//! the plane costs (a 25 ns floor failed by 0.1 ns one run in four on
//! untouched code), so the figure to track over time is `ppcbench`'s
//! `obs.enabled_extra_ns`, taken inside one process. Histograms stay
//! affordable because the per-call cost is one `Relaxed` config load
//! plus a thread-local tick; timestamps are only taken on sampled calls
//! (1 in 128 by default).
//!
//! The enabled run measures with the causal-tracing plane in its
//! default (enabled) state **and the telemetry sampler running at its
//! default tick**, so the figure covers span minting and the background
//! snapshot/delta work too. `--no-trace` disables the span plane and
//! `--no-sampler` the telemetry thread, for attribution runs that
//! isolate histogram cost from tracing cost from sampler cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_bench::report::{self, Json};
use ppc_rt::{EntryOptions, Runtime};

/// Null inline call ns/call: minimum over trials (interference only ever
/// adds time). `trace_on` leaves the span plane in its default enabled
/// state; `--no-trace` switches it off so a difference can be attributed
/// to tracing vs the histograms.
///
/// On the enabled (`obs`) side the telemetry sampler runs at its default
/// tick for the whole measurement, so the figure also covers the
/// background snapshot/delta work the sampler's shared-nothing reads
/// cause. The compiled-out baseline stays sampler-free: it defines the
/// zero-observability floor the difference is measured against.
fn measure_null_inline(trace_on: bool, sampler_on: bool) -> f64 {
    const TRIALS: usize = 8;
    const BUDGET: Duration = Duration::from_millis(60);
    let rt = Runtime::new(1);
    rt.spans().set_enabled(trace_on);
    if sampler_on && cfg!(feature = "obs") {
        rt.start_telemetry(
            ppc_rt::telemetry::DEFAULT_TICK,
            ppc_rt::telemetry::DEFAULT_SERIES_DEPTH,
            Vec::new(),
        );
    }
    let ep = rt
        .bind(
            "null",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| ctx.args),
        )
        .unwrap();
    let client = rt.client(0, 1);
    for _ in 0..1_000 {
        client.call(ep, [7; 8]).unwrap();
    }
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let mut iters = 0u64;
        while t0.elapsed() < BUDGET {
            for _ in 0..100 {
                std::hint::black_box(client.call(ep, std::hint::black_box([7; 8])).unwrap());
            }
            iters += 100;
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn doc(ns: f64, trace_on: bool, sampler_on: bool) -> Json {
    Json::obj([
        ("bench", Json::Str("obs_overhead".to_string())),
        ("obs_compiled", Json::Bool(cfg!(feature = "obs"))),
        ("trace_enabled", Json::Bool(cfg!(feature = "obs") && trace_on)),
        ("sampler_enabled", Json::Bool(cfg!(feature = "obs") && sampler_on)),
        ("ns_per_call", Json::Num(ns)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let trace_on = !args.iter().any(|a| a == "--no-trace");
    let sampler_on = !args.iter().any(|a| a == "--no-sampler");

    let ns = measure_null_inline(trace_on, sampler_on);
    println!(
        "null inline call: {ns:.1} ns/call (histograms {}, tracing {})",
        match (cfg!(feature = "obs"), sampler_on) {
            (false, _) => "compiled out",
            (true, true) => "compiled in, enabled, sampler running",
            (true, false) => "compiled in, enabled, sampler off",
        },
        match (cfg!(feature = "obs"), trace_on) {
            (false, _) => "compiled out",
            (true, true) => "enabled",
            (true, false) => "disabled",
        }
    );

    if let Some(path) = flag_value("--write") {
        std::fs::write(&path, doc(ns, trace_on, sampler_on).to_string() + "\n")
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("baseline written: {path}");
        return;
    }

    if let Some(path) = flag_value("--check") {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let base = Json::parse(&text)
            .unwrap_or_else(|e| panic!("parsing {path}: {e}"))
            .get("ns_per_call")
            .and_then(|v| v.as_f64())
            .expect("baseline has ns_per_call");
        println!(
            "baseline {base:.1} ns/call -> {ns:.1} ns/call ({:+.1} ns, {:+.1}%)",
            ns - base,
            (ns / base - 1.0) * 100.0,
        );
    }

    // Consistency with the other bins: `--json` emits the same document.
    let (_rest, json_path) = report::json_flag(args.into_iter());
    if let Some(path) = json_path {
        std::fs::write(&path, doc(ns, trace_on, sampler_on).to_string() + "\n")
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("json report: {}", path.display());
    }
}
