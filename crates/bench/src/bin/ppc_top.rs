//! `ppc-top`: a live terminal view of a running runtime's telemetry —
//! windowed rates, per-vCPU lanes and call quantiles, and active SLO
//! alerts — polled over the `serve_metrics` HTTP endpoint (or from an
//! in-process demo runtime with `--attach`).
//!
//! ```text
//! ppc-top --url http://127.0.0.1:9100        # poll a serve_metrics endpoint
//! ppc-top --attach                           # spawn a demo runtime + traffic
//! ppc-top --url ... --once                   # one frame, no clear (CI)
//! ppc-top --smoke                            # self-contained CI smoke test
//! ```
//!
//! Flags: `--window 1s|10s|60s` picks the displayed window (default
//! `1s`); `--interval-ms N` the poll cadence (default 1000). `--once`
//! renders a single frame and exits 0 — the CI-friendly mode. `--smoke`
//! runs the full telemetry loop end to end with **no external tools**:
//! it spawns a runtime with an injected near-zero-threshold SLO rule,
//! serves metrics on a loopback port, drives traffic until the alert
//! fires, round-trips `/metrics` through the crate's own Prometheus
//! parser (including the `ppc_rate_*` gauges), renders a frame from
//! `/json`, and writes the runtime's diagnostics dump to
//! `--diag <path>` (if given) for CI artifact upload. Exit 1 with a
//! message on any failed expectation.
//!
//! The viewer is deliberately dumb: everything it shows is parsed out
//! of the `/json` document with the crate's own [`Json`] parser, so it
//! doubles as a living consumer test of the export schema — if a field
//! the viewer needs moves, `--smoke` breaks in CI.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppc_bench::report::Json;
use ppc_rt::export::{self, parse_prometheus};
use ppc_rt::http::http_get;
use ppc_rt::telemetry::{SloMetric, SloRule};
use ppc_rt::{EntryOptions, Runtime};

const USAGE: &str = "\
ppc-top: live telemetry viewer for a ppc-rt runtime

  --url <http://host:port>   poll a Runtime::serve_metrics endpoint
  --addr <host:port>         same, bare address form
  --attach                   spawn an in-process demo runtime + traffic
  --window <1s|10s|60s>      which telemetry window to render (default 1s)
  --interval-ms <n>          poll/render cadence (default 1000)
  --once                     render one frame and exit (CI)
  --smoke                    end-to-end CI smoke (implies in-process runtime)
  --diag <path>              (smoke) write the diagnostics dump here
";

fn flag_value(args: &[String], name: &str) -> Option<String> {
    if let Some(i) = args.iter().position(|a| a == name) {
        return args.get(i + 1).cloned();
    }
    let eq = format!("{name}=");
    args.iter().find_map(|a| a.strip_prefix(&eq)).map(str::to_string)
}

/// `http://host:port[/...]` or bare `host:port` → socket address.
fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    let s = s.strip_prefix("http://").unwrap_or(s);
    let s = s.split('/').next().unwrap_or(s);
    s.to_socket_addrs()
        .map_err(|e| format!("{s}: {e}"))?
        .next()
        .ok_or_else(|| format!("{s}: no address"))
}

// ---------------------------------------------------------------------
// Frame rendering
// ---------------------------------------------------------------------

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

fn fmt_ns(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}us", v / 1e3)
    } else {
        format!("{v:.0}ns")
    }
}

fn num(doc: &Json, field: &str) -> f64 {
    doc.get(field).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// Render one frame from a parsed `/json` document. Returns an error
/// when the document is missing the telemetry section (sampler not
/// running on the target runtime).
fn render_frame(doc: &Json, window: &str) -> Result<String, String> {
    let tel = doc.get("telemetry").ok_or("no `telemetry` section: is the sampler running?")?;
    let w = tel
        .get("windows")
        .and_then(|ws| ws.get(window))
        .ok_or_else(|| format!("no `{window}` window in telemetry.windows"))?;
    let mut out = String::new();
    // Transport line: in-process, or the serving segment's occupancy.
    let transport = match doc.get("transport") {
        Some(t) => {
            let mode = t.get("mode").and_then(|v| v.as_str()).unwrap_or("in-process");
            if mode == "in-process" {
                mode.to_string()
            } else {
                format!(
                    "{mode}  seg {:.0} KiB (hw {:.0} KiB)  clients {:.0}",
                    num(t, "segment_bytes") / 1024.0,
                    num(t, "segment_high_water_bytes") / 1024.0,
                    num(t, "segment_clients"),
                )
            }
        }
        None => "in-process".to_string(),
    };
    out.push_str(&format!(
        "ppc-top  tick {:.0} ms  ticks {}  window {window} ({:.2}s measured)  transport {transport}\n",
        num(tel, "tick_ms"),
        num(tel, "ticks"),
        num(w, "dt_ns") / 1e9,
    ));

    // Alerts first: the reason a human is looking at this screen.
    let alerts = tel.get("alerts").and_then(|a| a.as_arr()).unwrap_or_default();
    if alerts.is_empty() {
        out.push_str("alerts: none configured\n");
    } else {
        let firing = alerts
            .iter()
            .filter(|a| a.get("firing").and_then(|v| v.as_bool()) == Some(true))
            .count();
        out.push_str(&format!("alerts: {} rule(s), {firing} firing\n", alerts.len()));
        for a in alerts {
            let name = a.get("name").and_then(|v| v.as_str()).unwrap_or("?");
            let firing = a.get("firing").and_then(|v| v.as_bool()) == Some(true);
            out.push_str(&format!(
                "  {} {name:<24} measured {:.3} / threshold {:.3}  (burn x{:.1}, fired {}, {} firing tick(s), intf {:.1}%)\n",
                if firing { "[FIRING]" } else { "[ok]    " },
                num(a, "measured_slow"),
                num(a, "threshold"),
                num(a, "burn_factor"),
                num(a, "fired"),
                num(a, "firing_ticks"),
                num(a, "interference_ratio") * 100.0,
            ));
        }
    }

    // Headline rates over the selected window.
    let rates = w.get("rates").ok_or("window lacks `rates`")?;
    out.push_str(&format!(
        "rates/s: calls {}  (handoff {} / inline {})  upcalls {}  ring submits {}  spin {}  park {}\n",
        fmt_rate(num(rates, "calls")),
        fmt_rate(num(rates, "handoff_calls")),
        fmt_rate(num(rates, "inline_calls")),
        fmt_rate(num(rates, "upcalls")),
        fmt_rate(num(rates, "ring_submits")),
        fmt_rate(num(rates, "spin_waits")),
        fmt_rate(num(rates, "park_waits")),
    ));

    // Facility occupancy: attributed thread-seconds per wall-second,
    // split by time state. (Several threads account to one vCPU's
    // shard — pooled workers, the ring worker, waiting clients — so
    // the states sum to the attributed *thread* count, not to 1.0.)
    // `handler` against `ring` within a ring worker's drain is a sampled
    // estimate; with the obs plane off the whole drain reads as `ring`.
    let occ = |name: &str| num(rates, name) / 1e9;
    out.push_str(&format!(
        "occupancy: handler {:.2}  spin {:.2}  park {:.2}  ring {:.2}  frank {:.2}  idle {:.2}",
        occ("time_handler_ns"),
        occ("time_spin_ns"),
        occ("time_park_ns"),
        occ("time_ring_ns"),
        occ("time_frank_ns"),
        occ("time_idle_ns"),
    ));
    let intf = tel.get("interference").map(|i| num(i, window)).unwrap_or(0.0);
    out.push_str(&format!("   interference {:.2}%\n", intf * 100.0));

    // Windowed call latency, merged then per vCPU.
    if let Some(call) = w.get("latency_ns").and_then(|l| l.get("call")) {
        out.push_str(&format!(
            "call latency: p50 {}  p99 {}  p999 {}  max {}  ({} sample(s))\n",
            fmt_ns(num(call, "p50")),
            fmt_ns(num(call, "p99")),
            fmt_ns(num(call, "p999")),
            fmt_ns(num(call, "max")),
            num(call, "count"),
        ));
    } else {
        out.push_str("call latency: no samples in window\n");
    }
    let per_vcpu = w.get("per_vcpu").and_then(|v| v.as_arr()).unwrap_or_default();
    out.push_str("  vcpu      calls/s     handoff      inline         p50         p99        p999   hnd%  spn%  prk%  idl%\n");
    for (i, v) in per_vcpu.iter().enumerate() {
        let c = v.get("counters").cloned().unwrap_or(Json::Obj(Vec::new()));
        let call = v.get("call_ns").cloned().unwrap_or(Json::Obj(Vec::new()));
        let dt_s = (num(w, "dt_ns") / 1e9).max(1e-9);
        let pct = |name: &str| num(&c, name) / (num(w, "dt_ns")).max(1.0) * 100.0;
        out.push_str(&format!(
            "  {i:<4} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>6.1} {:>5.1} {:>5.1} {:>5.1}\n",
            fmt_rate(num(&c, "calls") / dt_s),
            fmt_rate(num(&c, "handoff_calls") / dt_s),
            fmt_rate(num(&c, "inline_calls") / dt_s),
            fmt_ns(num(&call, "p50")),
            fmt_ns(num(&call, "p99")),
            fmt_ns(num(&call, "p999")),
            pct("time_handler_ns"),
            pct("time_spin_ns"),
            pct("time_park_ns"),
            pct("time_idle_ns"),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// In-process demo runtime (--attach / --smoke)
// ---------------------------------------------------------------------

/// A 2-vCPU runtime with the sampler on a fast tick, plus a background
/// traffic thread so the viewer has something to show. Returns the
/// runtime and a stop flag for the traffic thread.
fn demo_runtime(rules: Vec<SloRule>) -> (Arc<Runtime>, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let rt = Runtime::new(2);
    rt.start_telemetry(Duration::from_millis(25), rules);
    let ep = rt
        .bind(
            "top-demo",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| ctx.args),
        )
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let clients = [rt.client(0, 1), rt.client(1, 1)];
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for c in &clients {
                    let _ = c.call(ep, [i; 8]);
                }
                i = i.wrapping_add(1);
                if i.is_multiple_of(64) {
                    // Keep the demo from saturating a CI box: bursts with
                    // breathing room, not a spin flood.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        })
    };
    (rt, stop, traffic)
}

fn poll_and_render(addr: SocketAddr, window: &str, once: bool, interval: Duration) -> ExitCode {
    loop {
        let frame = http_get(addr, "/json")
            .map_err(|e| format!("GET /json from {addr}: {e}"))
            .and_then(|(status, body)| {
                if status != 200 {
                    return Err(format!("GET /json: HTTP {status}"));
                }
                Json::parse(&body).map_err(|e| format!("parsing /json: {e}"))
            })
            .and_then(|doc| render_frame(&doc, window));
        match frame {
            Ok(f) => {
                if !once {
                    print!("\x1b[2J\x1b[H"); // clear + home, plain ANSI
                }
                print!("{f}");
            }
            Err(e) => {
                eprintln!("ppc-top: {e}");
                return ExitCode::FAILURE;
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

// ---------------------------------------------------------------------
// --smoke: the CI end-to-end
// ---------------------------------------------------------------------

fn smoke(diag_path: Option<String>) -> Result<(), String> {
    // A rule any traffic at all violates: the alert must fire.
    let rule = SloRule {
        name: "smoke-call-rate-ceiling",
        metric: SloMetric::Rate("calls"),
        window: Duration::from_millis(100),
        threshold: 0.001,
        burn_factor: 1.0,
        nudge_frank: false,
    };
    let (rt, stop, traffic) = demo_runtime(vec![rule]);
    // Automatic capture target: the alert's rising edge must leave a
    // black-box artifact here.
    let bb_dir = std::env::temp_dir().join(format!("ppc-top-smoke-bb-{}", std::process::id()));
    std::fs::create_dir_all(&bb_dir).map_err(|e| format!("mkdir {}: {e}", bb_dir.display()))?;
    rt.set_blackbox_dir(Some(bb_dir.clone()));
    let server = rt.serve_metrics("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let tel = rt.telemetry().expect("sampler running");

    // Wait (bounded) for the injected violation to fire.
    let fired = (0..400).any(|_| {
        std::thread::sleep(Duration::from_millis(25));
        tel.alerts().first().map(|a| a.fired >= 1).unwrap_or(false)
    });
    if !fired {
        return Err("injected SLO violation never fired".into());
    }

    // The rising edge triggers an automatic black-box capture; give the
    // sampler thread a moment to finish the write.
    let artifact = (0..200).find_map(|_| {
        let found = std::fs::read_dir(&bb_dir)
            .ok()
            .and_then(|d| d.filter_map(Result::ok).next().map(|e| e.path()));
        if found.is_none() {
            std::thread::sleep(Duration::from_millis(25));
        }
        found
    });
    let artifact =
        artifact.ok_or("SLO alert fired but no black-box artifact was captured")?;
    let bb = std::fs::read_to_string(&artifact)
        .map_err(|e| format!("reading {}: {e}", artifact.display()))?;
    let bb = Json::parse(&bb).map_err(|e| format!("parsing black box: {e}"))?;
    if bb.get("kind").and_then(|k| k.as_str()) != Some("ppc-blackbox") {
        return Err("black-box artifact lacks kind=ppc-blackbox".into());
    }
    if !export::check_schema_version(&bb, "black box") {
        return Err("black-box artifact schema_version mismatch".into());
    }
    println!("black-box artifact captured: {}", artifact.display());

    // /metrics round-trips through the crate's own parser, including
    // the windowed ppc_rate_* gauges and the cumulative counters.
    let (status, body) =
        http_get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    let snap = parse_prometheus(&body).map_err(|e| format!("parse /metrics: {e}"))?;
    if snap.counter("calls").unwrap_or(0) == 0 {
        return Err("parsed /metrics shows zero calls under live traffic".into());
    }
    for window in ["1s", "10s", "60s"] {
        if snap.rate("calls", window).is_none() {
            return Err(format!("ppc_rate_calls{{window=\"{window}\"}} missing from /metrics"));
        }
    }
    if snap.rate("calls", "1s").unwrap_or(0.0) <= 0.0 {
        return Err("1s calls rate is zero under live traffic".into());
    }
    // The attribution plane's time counters ride the same windows, and
    // the labeled occupancy family must be in the exposition text.
    if snap.rate("time_handler_ns", "1s").is_none() {
        return Err("ppc_rate_time_handler_ns{window=\"1s\"} missing from /metrics".into());
    }
    if !body.contains("ppc_time_ns{state=\"handler\"}") {
        return Err("ppc_time_ns{state=...} family missing from /metrics".into());
    }

    // /json renders a full frame and reports the alert as fired.
    let (status, body) = http_get(addr, "/json").map_err(|e| format!("GET /json: {e}"))?;
    if status != 200 {
        return Err(format!("GET /json: HTTP {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("parse /json: {e}"))?;
    if !export::check_schema_version(&doc, "/json") {
        return Err("/json schema_version mismatch".into());
    }
    let frame = render_frame(&doc, "1s")?;
    println!("{frame}");
    let alert_fired = doc
        .get("telemetry")
        .and_then(|t| t.get("alerts"))
        .and_then(|a| a.as_arr())
        .and_then(|a| a.first().cloned())
        .map(|a| num(&a, "fired") >= 1.0)
        .unwrap_or(false);
    if !alert_fired {
        return Err("/json alerts section does not show the fired alert".into());
    }

    // The diagnostics dump (with its alerts section) is the CI artifact.
    let diagnostics = rt.diagnostics();
    if !diagnostics.contains("smoke-call-rate-ceiling") {
        return Err("diagnostics dump lacks the alert rule".into());
    }
    if let Some(path) = diag_path {
        std::fs::write(&path, &diagnostics).map_err(|e| format!("writing {path}: {e}"))?;
        println!("diagnostics written: {path}");
    }

    stop.store(true, Ordering::Relaxed);
    traffic.join().map_err(|_| "traffic thread panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&bb_dir);
    println!(
        "ppc-top smoke: OK (alert fired, black box captured, /metrics round-tripped, frame rendered)"
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let once = args.iter().any(|a| a == "--once");
    let attach = args.iter().any(|a| a == "--attach");
    let window = flag_value(&args, "--window").unwrap_or_else(|| "1s".to_string());
    let interval = Duration::from_millis(
        flag_value(&args, "--interval-ms").and_then(|s| s.parse().ok()).unwrap_or(1000),
    );

    if args.iter().any(|a| a == "--smoke") {
        return match smoke(flag_value(&args, "--diag")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ppc-top smoke: FAIL — {e}");
                ExitCode::FAILURE
            }
        };
    }

    if attach {
        let (rt, stop, traffic) = demo_runtime(Vec::new());
        let server = match rt.serve_metrics("127.0.0.1:0") {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ppc-top: bind: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("ppc-top --attach: demo runtime at {}", server.url(""));
        // Give the sampler a couple of ticks before the first frame so
        // `--once` renders real rates, not an empty window.
        std::thread::sleep(Duration::from_millis(100));
        let code = poll_and_render(server.addr(), &window, once, interval);
        stop.store(true, Ordering::Relaxed);
        let _ = traffic.join();
        return code;
    }

    let target = flag_value(&args, "--url").or_else(|| flag_value(&args, "--addr"));
    let Some(target) = target else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match parse_addr(&target) {
        Ok(addr) => poll_and_render(addr, &window, once, interval),
        Err(e) => {
            eprintln!("ppc-top: {e}");
            ExitCode::FAILURE
        }
    }
}
