//! `ppc-blackbox`: load a postmortem black-box artifact
//! ([`ppc_rt::blackbox`]) and reconstruct what the facility was doing
//! when the capture fired.
//!
//! ```text
//! ppc-blackbox <artifact.json>      # analyze a captured black box
//! ppc-blackbox --smoke              # CI: capture + reload round-trip
//! ```
//!
//! The analyzer prints, in order of usefulness to a person paged at
//! 3am:
//!
//! 1. **the verdict line** — capture reason, dominant attributed time
//!    state per vCPU, and the measured interference ratio (was it us,
//!    or was it the box?),
//! 2. **alerts** — every SLO rule's state at capture, with its
//!    windowed interference annotation,
//! 3. **the merged timeline** — the embedded telemetry ticks (calls/s
//!    and occupancy per tick) interleaved with flight-recorder
//!    excursion events, oldest first,
//! 4. **tail exemplars** — the slowest recent calls, span by span.
//!
//! `--smoke` runs the whole loop in-process: drive a runtime, write a
//! black box via `Runtime::write_blackbox`, reload it, verify the
//! schema stamp and that the reloaded counters equal the live ones,
//! and run the analyzer over it.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_bench::report::Json;
use ppc_rt::export;
use ppc_rt::stats::TIME_STATES;
use ppc_rt::{EntryOptions, Runtime};

const USAGE: &str = "\
ppc-blackbox: postmortem black-box analyzer

  ppc-blackbox <artifact.json>   analyze a capture
  ppc-blackbox --smoke           CI: write + reload + analyze round-trip
";

fn num(doc: &Json, field: &str) -> f64 {
    doc.get(field).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// The dominant (largest-share) occupancy state of one vCPU's
/// occupancy object, as `(label, share)`.
fn dominant_state(occ: &Json) -> (String, f64) {
    let mut best = ("unattributed".to_string(), 0.0);
    for &(_, _, label) in &TIME_STATES {
        let share = num(occ, label);
        if share > best.1 {
            best = (label.to_string(), share);
        }
    }
    best
}

fn analyze(doc: &Json) -> Result<String, String> {
    if doc.get("kind").and_then(|k| k.as_str()) != Some("ppc-blackbox") {
        return Err("not a ppc-blackbox artifact (kind field missing/wrong)".into());
    }
    export::check_schema_version(doc, "black box");
    let mut out = String::new();
    use std::fmt::Write as _;

    // 1. The verdict: why the capture fired and where the time went.
    let reason = doc.get("reason").and_then(|r| r.as_str()).unwrap_or("?");
    let n_vcpus = num(doc, "n_vcpus") as usize;
    let intf = doc.get("interference").cloned().unwrap_or(Json::Obj(Vec::new()));
    let _ = writeln!(
        out,
        "black box: reason={reason}  vcpus={n_vcpus}  calls={}  interference {:.2}% \
         ({} excursion(s) over {})",
        num(doc.get("counters").unwrap_or(&Json::Null), "calls"),
        num(&intf, "ratio") * 100.0,
        num(&intf, "excursions"),
        fmt_ns(num(&intf, "probed_ns")),
    );
    let occupancy = doc.get("occupancy").and_then(|o| o.as_arr()).unwrap_or_default();
    let mut causes: Vec<String> = Vec::new();
    for (v, occ) in occupancy.iter().enumerate() {
        let (state, share) = dominant_state(occ);
        let _ = writeln!(
            out,
            "  vcpu {v}: dominant state {state} ({:.1}% of attributed time)",
            share * 100.0
        );
        causes.push(state);
    }
    // Top attributed causes, ranked: dominant states, then firing
    // alerts, then measured interference.
    let alerts = doc
        .get("telemetry")
        .and_then(|t| t.get("alerts"))
        .and_then(|a| a.as_arr())
        .unwrap_or_default();
    let _ = writeln!(out, "top attributed causes:");
    causes.sort();
    causes.dedup();
    for c in &causes {
        let _ = writeln!(out, "  - time concentrated in `{c}`");
    }
    for a in alerts {
        if a.get("firing").and_then(|f| f.as_bool()) == Some(true) {
            let _ = writeln!(
                out,
                "  - SLO rule `{}` firing (measured {:.3} vs threshold {:.3}, intf {:.1}%)",
                a.get("name").and_then(|n| n.as_str()).unwrap_or("?"),
                num(a, "measured_slow"),
                num(a, "threshold"),
                num(a, "interference_ratio") * 100.0,
            );
        }
    }
    if num(&intf, "ratio") > 0.05 {
        let _ = writeln!(
            out,
            "  - host interference {:.1}%: the box was descheduling us, \
             discount latency conclusions",
            num(&intf, "ratio") * 100.0
        );
    }

    // 2. All alerts (including the quiet ones — a rule that *didn't*
    // fire is also evidence).
    if !alerts.is_empty() {
        let _ = writeln!(out, "alerts at capture:");
        for a in alerts {
            let _ = writeln!(
                out,
                "  [{}] {}  measured {:.3} / threshold {:.3}  fired {}  intf {:.1}%",
                if a.get("firing").and_then(|f| f.as_bool()) == Some(true) {
                    "FIRING"
                } else {
                    "ok"
                },
                a.get("name").and_then(|n| n.as_str()).unwrap_or("?"),
                num(a, "measured_slow"),
                num(a, "threshold"),
                num(a, "fired"),
                num(a, "interference_ratio") * 100.0,
            );
        }
    }

    // 3. Merged timeline: telemetry ticks (rates + occupancy), then
    // notable flight events. Ticks carry timestamps; flight events are
    // sequence-ordered within their vCPU ring.
    let ticks = doc
        .get("series")
        .and_then(|s| s.get("ticks"))
        .and_then(|t| t.as_arr())
        .unwrap_or_default();
    if !ticks.is_empty() {
        let _ = writeln!(out, "timeline ({} tick(s), oldest first):", ticks.len());
        for t in ticks.iter().rev().take(20).rev() {
            let c = t.get("counters").cloned().unwrap_or(Json::Obj(Vec::new()));
            let dt = num(t, "dt_ns").max(1.0);
            let occ = |name: &str| num(&c, name) / dt;
            let _ = writeln!(
                out,
                "  t+{:<9} calls/s {:<9.0} handler {:.2} spin {:.2} park {:.2} idle {:.2} intf {:.2}",
                fmt_ns(num(t, "at_ns")),
                num(&c, "calls") * 1e9 / dt,
                occ("time_handler_ns"),
                occ("time_spin_ns"),
                occ("time_park_ns"),
                occ("time_idle_ns"),
                occ("interference_ns"),
            );
        }
    }
    let flight = doc.get("flight").and_then(|f| f.as_arr()).unwrap_or_default();
    let mut notable = 0usize;
    for per_vcpu in flight {
        for ev in per_vcpu.as_arr().unwrap_or_default() {
            let kind = ev.get("kind").and_then(|k| k.as_str()).unwrap_or("?");
            if matches!(kind, "fault" | "interference" | "soft_kill" | "hard_kill") {
                if notable == 0 {
                    let _ = writeln!(out, "notable flight events:");
                }
                notable += 1;
                let _ = writeln!(
                    out,
                    "  #{:<8} vcpu {} {kind} ep={} data={}",
                    num(ev, "seq"),
                    num(ev, "vcpu"),
                    num(ev, "ep"),
                    num(ev, "data"),
                );
            }
        }
    }

    // 4. Tail exemplars: the slowest recent calls, span by span.
    let exemplars = doc.get("exemplars").and_then(|e| e.as_arr()).unwrap_or_default();
    if !exemplars.is_empty() {
        let _ = writeln!(out, "tail exemplars (slowest recent calls):");
        for ex in exemplars.iter().take(5) {
            let _ = writeln!(
                out,
                "  trace {:#010x} ep={} vcpu={} total {}",
                num(ex, "trace_id") as u64,
                num(ex, "ep"),
                num(ex, "vcpu"),
                fmt_ns(num(ex, "total_ns")),
            );
            for s in ex.get("spans").and_then(|s| s.as_arr()).unwrap_or_default() {
                let _ = writeln!(
                    out,
                    "    {:>12}  depth {}  {}",
                    s.get("phase").and_then(|p| p.as_str()).unwrap_or("?"),
                    num(s, "depth"),
                    fmt_ns(num(s, "dur_ns")),
                );
            }
        }
    }
    Ok(out)
}

/// CI round-trip: drive a runtime, capture, reload, compare, analyze.
fn smoke() -> Result<(), String> {
    let rt = Runtime::new(2);
    rt.start_telemetry(Duration::from_millis(20), Vec::new());
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind(
            "bb-demo",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| {
                let t0 = Instant::now();
                while t0.elapsed().as_nanos() < 1_000 {
                    std::hint::spin_loop();
                }
                ctx.args
            }),
        )
        .map_err(|e| format!("bind: {e}"))?;
    let clients = [rt.client(0, 1), rt.client(1, 1)];
    for i in 0..2_000u64 {
        for c in &clients {
            c.call(ep, [i; 8]).map_err(|e| format!("call: {e}"))?;
        }
    }
    // A few sampler ticks so the capture embeds a real timeline.
    std::thread::sleep(Duration::from_millis(120));

    let path = std::env::temp_dir().join(format!("ppc-blackbox-smoke-{}.json", std::process::id()));
    rt.write_blackbox("smoke", &path).map_err(|e| format!("write_blackbox: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reload: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("reparse: {e}"))?;

    // Round-trip checks: stamp, identity, and counter equality with
    // the live runtime (no more traffic ran in between).
    if !export::check_schema_version(&doc, "black box") {
        return Err("schema_version mismatch on reload".into());
    }
    let live = rt.stats.snapshot();
    let loaded = doc.get("counters").ok_or("no counters object")?;
    for (name, value) in live.fields() {
        // The sampler thread is still running its per-tick probe, so
        // the interference counters legitimately advance between the
        // capture and this comparison; everything else must be exact
        // (traffic stopped before the capture).
        if name.starts_with("interference") {
            continue;
        }
        let got = num(loaded, name) as u64;
        if got != value {
            return Err(format!("counter {name} round-trip mismatch: wrote {value}, read {got}"));
        }
    }
    let per_vcpu = doc.get("per_vcpu").and_then(|p| p.as_arr()).unwrap_or_default();
    if per_vcpu.len() != rt.n_vcpus() {
        return Err("per_vcpu arity mismatch".into());
    }
    let occupancy = doc.get("occupancy").and_then(|o| o.as_arr()).unwrap_or_default();
    if occupancy.len() != rt.n_vcpus() {
        return Err("occupancy arity mismatch".into());
    }

    let report = analyze(&doc)?;
    print!("{report}");
    if !report.contains("dominant state") {
        return Err("analyzer names no dominant attributed state".into());
    }
    let _ = std::fs::remove_file(&path);
    println!("ppc-blackbox smoke: OK (capture round-tripped, analyzer attributed the time)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--smoke") {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ppc-blackbox smoke: FAIL — {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ppc-blackbox: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ppc-blackbox: {path}: parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match analyze(&doc) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ppc-blackbox: {e}");
            ExitCode::FAILURE
        }
    }
}
