//! `ppc-profile`: render a runtime's critical-path profile — the
//! per-entry phase breakdown and a collapsed-stack flamegraph file —
//! from the tracing plane's span records.
//!
//! ```text
//! ppc-profile                        # demo workload, text report to stdout
//! ppc-profile --out prof.folded     # also write collapsed stacks
//! ppc-profile --smoke               # CI: assert the profile is non-empty
//! ```
//!
//! The demo workload is a deliberately nested call chain — a client
//! calls an inline entry whose handler calls a second, hand-off entry
//! — so the report exercises every attribution rule: client self time,
//! rendezvous wait, handler self time, cross-entry child billing, and
//! the Frank pool-grow excursion on first dispatch. Point a flamegraph
//! renderer at the `--out` file:
//!
//! ```text
//! flamegraph.pl prof.folded > prof.svg     # or load in speedscope
//! ```
//!
//! Against a *live* runtime, the same two renderings are served over
//! HTTP at `/profile` and `/profile.folded` (`Runtime::serve_metrics`);
//! this bin is the offline/CI path.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ppc_rt::{EntryOptions, Runtime};

const USAGE: &str = "\
ppc-profile: critical-path profile report + collapsed-stack flamegraph

  --out <path>   write collapsed stacks (flamegraph.pl / speedscope format)
  --calls <n>    demo workload size (default 400)
  --smoke        CI mode: run the demo, assert the profile is complete
";

fn flag_value(args: &[String], name: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == name) {
        return args.get(i + 1).cloned();
    }
    let eq = format!("{name}=");
    args.iter().find_map(|a| a.strip_prefix(&eq)).map(str::to_string)
}

/// The nested demo workload: `outer` (inline) calls `inner` (hand-off,
/// zero pre-spawned workers so the first dispatch takes the Frank
/// path), every root traced.
fn demo_profile(calls: u64) -> (ppc_rt::profile::Profile, Arc<Runtime>) {
    // A deep span ring so the whole demo run is retained — the default
    // ring would wrap and truncate early traces into orphans.
    let rt = Runtime::with_runtime_options(
        1,
        ppc_rt::RuntimeOptions { trace_capacity: 8192, ..Default::default() },
    );
    rt.obs().set_sample_shift(0); // trace every root deterministically
    let inner = rt
        .bind(
            "profile-inner",
            EntryOptions { initial_workers: 0, ..Default::default() },
            Arc::new(|ctx| {
                // ~2 µs of real service time so the handler phase has
                // visible weight in the flame.
                let t0 = Instant::now();
                while t0.elapsed().as_nanos() < 2_000 {
                    std::hint::spin_loop();
                }
                [ctx.args[0] * 2; 8]
            }),
        )
        .unwrap();
    let rt2 = Arc::clone(&rt);
    let outer = rt
        .bind(
            "profile-outer",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                let c = rt2.client(ctx.vcpu, 999);
                let r = c.call(inner, [ctx.args[0] + 1; 8]).unwrap();
                [r[0] + 5; 8]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..calls {
        client.call(outer, [i; 8]).unwrap();
    }
    (rt.profile(), rt)
}

fn run(args: &[String], smoke: bool) -> Result<(), String> {
    let calls: u64 =
        flag_value(args, "--calls").and_then(|s| s.parse().ok()).unwrap_or(400);
    let out_path = flag_value(args, "--out");

    let (profile, _rt) = demo_profile(calls);
    print!("{}", profile.text_report());

    let folded = profile.folded();
    if let Some(path) = &out_path {
        std::fs::write(path, &folded).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\ncollapsed stacks written: {path} ({} path(s))", profile.stacks.len());
    }

    if smoke {
        if profile.records == 0 || profile.traces == 0 {
            return Err("profile is empty under a traced workload".into());
        }
        let outer = profile
            .entries
            .iter()
            .find(|e| e.name == "profile-outer")
            .ok_or("no profile for the root entry")?;
        if outer.roots == 0 {
            return Err("root entry shows zero traced roots".into());
        }
        for phase in [ppc_rt::SpanPhase::Call, ppc_rt::SpanPhase::Handler] {
            if outer.phases[phase as usize].count == 0 {
                return Err(format!("root entry lacks {} spans", phase.label()));
            }
        }
        if outer.child_ns == 0 {
            return Err("nested call into profile-inner was not child-attributed".into());
        }
        // The folded output must be flamegraph-loadable: every line is
        // `frame;frame... <int>`, and the cross-entry path is present.
        if folded.is_empty() {
            return Err("collapsed-stack output is empty".into());
        }
        for line in folded.lines() {
            let (path, val) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed folded line: {line:?}"))?;
            if path.is_empty() || val.parse::<u64>().is_err() {
                return Err(format!("malformed folded line: {line:?}"));
            }
        }
        if !folded.lines().any(|l| l.contains("profile-outer:") && l.contains("profile-inner:"))
        {
            return Err("no cross-entry stack path in the folded output".into());
        }
        println!(
            "ppc-profile smoke: OK ({} span(s), {} stack path(s), cross-entry path present)",
            profile.records,
            profile.stacks.len(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    match run(&args, smoke) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ppc-profile: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
