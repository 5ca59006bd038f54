//! Telemetry-plane integration tests: the sampler's windowed deltas
//! against brute-force recomputation, the std-only HTTP endpoints, the
//! SLO watchdog (alert edge, flight event, Frank nudge), exporter
//! completeness driven from the `counters!` name list, and the
//! `schema_version` stamp.
//!
//! Everything runs against the public `Runtime` surface; the ring and
//! window mechanics have unit tests in `telemetry.rs` itself.

use std::sync::Arc;
use std::time::Duration;

use ppc_rt::export::{self, Json};
use ppc_rt::http::http_get;
use ppc_rt::obs::KINDS;
use ppc_rt::telemetry::{SloMetric, SloRule, DEFAULT_SERIES_DEPTH, WINDOWS};
use ppc_rt::{EntryOptions, FlightKind, Kind, LatencyKind, Runtime, Snapshot};

/// A runtime with a fast sampler tick (10 ms keeps the tests quick
/// without making tick-boundary races likely).
fn telemetry_rt(n_vcpus: usize, rules: Vec<SloRule>) -> Arc<Runtime> {
    let rt = Runtime::new(n_vcpus);
    rt.start_telemetry(Duration::from_millis(10), rules);
    rt
}

/// The acceptance-criteria test: a 1 s-window quantile recovered from
/// histogram-bucket deltas equals a brute-force recompute over the same
/// samples. Bucket deltas of a cumulative histogram are exactly the
/// window's sample histogram, so the equality is bucket-for-bucket —
/// not approximate.
#[test]
fn windowed_quantile_matches_brute_force() {
    let rt = telemetry_rt(2, Vec::new());
    let tel = rt.telemetry().expect("sampler running");
    assert!(tel.wait_ticks(2), "sampler ticking");

    // A known, skewed sample set spread across vCPUs: a dense body and
    // a sparse tail, exercising interpolation and the exact-max clamp.
    let mut brute = ppc_rt::Histogram::new();
    let t0 = tel.ticks();
    for i in 0..500u64 {
        let ns = 200 + i * 3;
        rt.obs().record(LatencyKind::Call, (i % 2) as usize, ns);
        brute.record(ns);
    }
    for ns in [40_000u64, 900_000, 5_000_000] {
        rt.obs().record(LatencyKind::Call, 0, ns);
        brute.record(ns);
    }
    // Let the sampler observe everything, then read the window
    // immediately (all samples are well inside the last second).
    assert!(tel.wait_ticks(t0 + 2), "sampler advanced past the recording");
    let w = tel.window(Duration::from_secs(1));

    let got = w.hist(LatencyKind::Call);
    assert_eq!(got.count(), brute.count(), "window contains exactly the samples");
    assert_eq!(got.buckets, brute.buckets, "bucket deltas are exact");
    assert_eq!(got.sum_ns, brute.sum_ns);
    assert_eq!(got.max_ns, brute.max_ns, "window max moved, so it is exact");
    for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(
            w.quantile_ns(LatencyKind::Call, q),
            brute.quantile(q),
            "q={q} from bucket deltas matches brute-force recompute"
        );
    }
    // Per-vCPU call deltas partition the merged window.
    let per_vcpu: u64 = w.vcpu_call.iter().map(|h| h.count()).sum();
    assert_eq!(per_vcpu, brute.count());
}

/// Counter deltas over a window match the counter movement measured by
/// plain snapshots around it, and rates divide by measured (not
/// nominal) time.
#[test]
fn windowed_counters_match_snapshot_movement() {
    let rt = telemetry_rt(1, Vec::new());
    let tel = rt.telemetry().expect("sampler running");
    assert!(tel.wait_ticks(2));
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);

    let before = rt.stats.snapshot();
    let t0 = tel.ticks();
    for i in 0..200u64 {
        client.call(ep, [i; 8]).unwrap();
    }
    assert!(tel.wait_ticks(t0 + 2));
    let moved = rt.stats.snapshot().since(&before);
    let w = tel.window(Duration::from_secs(5));
    assert_eq!(w.counters.calls, moved.calls, "window calls = snapshot movement");
    assert!(w.rate("calls") > 0.0);
    assert!(w.secs() > 0.0);
    // The series endpoint retains the ticks that carried the burst.
    let total_from_series: u64 =
        tel.series(usize::MAX).iter().map(|t| t.counters.calls).sum();
    assert_eq!(total_from_series, moved.calls);
}

/// `serve_metrics` answers every endpoint; `/metrics` round-trips
/// through `parse_prometheus` including a `ppc_rate_*` sample for every
/// counter × window pair — the exporter-completeness check driven from
/// the macro's own name list.
#[test]
fn http_endpoints_roundtrip_and_are_complete() {
    let rt = telemetry_rt(2, Vec::new());
    let tel = rt.telemetry().expect("sampler running");
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..100u64 {
        client.call(ep, [i; 8]).unwrap();
    }
    // Baseline the tick count AFTER the traffic: if the call loop
    // straddles tick boundaries on a loaded host, ticks taken mid-loop
    // must not count toward the two that prove full series coverage.
    let t0 = tel.ticks();
    assert!(tel.wait_ticks(t0 + 2));

    let server = rt.serve_metrics("127.0.0.1:0").expect("bind metrics server");
    let addr = server.addr();

    // /metrics: parses, and is complete — every counter from the
    // `counters!` list appears both as a cumulative counter and as a
    // windowed rate for every window label.
    let (status, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let prom = export::parse_prometheus(&body).expect("exposition parses");
    for &name in Snapshot::field_names() {
        assert!(prom.counter(name).is_some(), "counter {name} missing from /metrics");
        for (label, _) in WINDOWS {
            assert!(
                prom.rate(name, label).is_some(),
                "rate {name}/{label} missing from /metrics"
            );
        }
    }
    assert_eq!(prom.counter("calls"), Some(rt.stats.calls()));
    assert!(prom.hist("call").is_some(), "call histogram missing");

    // /json: parses; counters object is complete; telemetry member
    // carries every window and (empty) alerts.
    let (status, body) = http_get(addr, "/json").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("/json parses");
    assert_eq!(export::schema_version_of(&doc), Some(export::SCHEMA_VERSION));
    let counters = doc.get("counters").expect("counters member");
    for &name in Snapshot::field_names() {
        assert!(counters.get(name).is_some(), "counter {name} missing from /json");
    }
    let telemetry = doc.get("telemetry").expect("telemetry member");
    let windows = telemetry.get("windows").expect("windows member");
    for (label, _) in WINDOWS {
        let w = windows.get(label).unwrap_or_else(|| panic!("window {label} missing"));
        let rates = w.get("rates").expect("rates member");
        for &name in Snapshot::field_names() {
            assert!(rates.get(name).is_some(), "rate {name} missing from {label}");
        }
    }
    assert_eq!(telemetry.get("alerts").and_then(Json::as_arr).map(<[_]>::len), Some(0));

    // /series: parses, ticks carry per-vCPU counter objects.
    let (status, body) = http_get(addr, "/series").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("/series parses");
    let ticks = doc.get("ticks").and_then(Json::as_arr).expect("ticks array");
    assert!(!ticks.is_empty());
    let calls_from_series: u64 = ticks
        .iter()
        .map(|t| t.get("counters").and_then(|c| c.get("calls")).and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(calls_from_series, rt.stats.calls());
    assert_eq!(
        ticks[0].get("per_vcpu").and_then(Json::as_arr).map(<[_]>::len),
        Some(2),
        "one per-vCPU delta object per vCPU"
    );

    // /trace parses as a Chrome trace document; / and 404 behave.
    let (status, body) = http_get(addr, "/trace").unwrap();
    assert_eq!(status, 200);
    assert!(export::load_chrome_trace(&body).is_ok());
    let (status, body) = http_get(addr, "/").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("/metrics"));
    let (status, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    let (status, body) = http_get(addr, "/diagnostics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("ppc-rt diagnostics"));

    drop(server); // joins the accept loop
}

/// JSON and Prometheus exporter completeness without HTTP: every
/// counter and every histogram kind surfaces.
#[test]
fn export_json_is_complete_from_the_name_list() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..10u64 {
        client.call(ep, [i; 8]).unwrap();
    }
    let doc = Json::parse(&rt.export_json().to_string()).unwrap();
    assert_eq!(export::schema_version_of(&doc), Some(export::SCHEMA_VERSION));
    let counters = doc.get("counters").expect("counters member");
    for &name in Snapshot::field_names() {
        assert!(counters.get(name).is_some(), "counter {name} missing from JSON");
    }
    // Feed every histogram kind, then every kind must surface.
    for (i, &kind) in KINDS.iter().enumerate() {
        rt.obs().record(kind, 0, 100 * (i as u64 + 1));
    }
    let doc = Json::parse(&rt.export_json().to_string()).unwrap();
    let latency = doc.get("latency_ns").expect("latency member");
    for kind in KINDS {
        let label = kind.label();
        assert!(latency.get(label).is_some(), "kind {label} missing from JSON latency");
    }
    let prom = export::parse_prometheus(&rt.export_prometheus()).unwrap();
    for kind in KINDS {
        assert!(
            prom.hist(kind.label()).is_some(),
            "kind {} missing from Prometheus exposition",
            kind.label()
        );
    }
}

/// An injected SLO violation: the rule fires, the rising edge lands in
/// the flight ring as `FlightKind::Alert`, and `diagnostics()` grows an
/// alerts section naming the rule.
#[test]
fn slo_watchdog_fires_alert_and_flight_event() {
    let rules = vec![SloRule {
        name: "call-rate-ceiling",
        metric: SloMetric::Rate("calls"),
        window: Duration::from_millis(100),
        threshold: 1.0, // ~one call/s — any real burst burns this
        burn_factor: 1.0,
        nudge_frank: false,
    }];
    let rt = telemetry_rt(1, rules);
    let tel = rt.telemetry().expect("sampler running");
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);

    // Sustain traffic across ticks until the rule fires (both burn
    // windows must see the burst), then stop immediately so the Alert
    // stays in the ring.
    let t0 = tel.ticks();
    loop {
        for i in 0..100u64 {
            client.call(ep, [i; 8]).unwrap();
        }
        if tel.alerts()[0].fired >= 1 {
            break;
        }
        assert!(tel.ticks() < t0 + 500, "rule never fired: {:?}", tel.alerts());
    }
    let alerts = tel.alerts();
    assert_eq!(alerts.len(), 1);
    let a = &alerts[0];
    assert!(a.fired >= 1, "rule fired at least one rising edge");
    assert!(a.measured_slow > 1.0, "measured {} calls/s", a.measured_slow);
    assert!(tel.firing() <= 1);

    let events = rt.flight().snapshot(0);
    assert!(
        events.iter().any(|e| e.kind == Kind::Flight(FlightKind::Alert)),
        "Alert event in the flight ring: {events:?}"
    );
    let diag = rt.diagnostics();
    assert!(diag.contains("alerts: 1 rule(s)"), "{diag}");
    assert!(diag.contains("call-rate-ceiling"), "{diag}");

    // Quiesce: traffic stops, the windows drain, the rule un-fires.
    let t1 = tel.ticks();
    assert!(tel.wait_ticks(t1 + 25));
    assert_eq!(tel.firing(), 0, "rule cleared after the burst: {:?}", tel.alerts());
}

/// A firing rule with `nudge_frank` invokes Frank maintenance: a pool
/// grown past its bind-time size decays back to `initial_workers` while
/// the burn lasts.
#[test]
fn sustained_burn_nudges_frank() {
    let rules = vec![SloRule {
        name: "pool-pressure",
        metric: SloMetric::Rate("calls"),
        window: Duration::from_millis(100),
        threshold: 1.0,
        burn_factor: 1.0,
        nudge_frank: true,
    }];
    let rt = telemetry_rt(1, rules);
    let tel = rt.telemetry().expect("sampler running");
    // Hand-off entry (no inline), bound with the default single worker.
    // A `u64::MAX` call waits in the handler for a second one, so the
    // pair below must overlap and the pool must grow to serve it.
    let pair = Arc::new(std::sync::Barrier::new(2));
    let gate = Arc::clone(&pair);
    let ep = rt
        .bind(
            "svc",
            EntryOptions::default(),
            Arc::new(move |c| {
                if c.args[0] == u64::MAX {
                    gate.wait();
                }
                c.args
            }),
        )
        .unwrap();
    let overlapped: Vec<_> = (0..2u32)
        .map(|i| {
            let c = rt.client(0, 2 + i);
            std::thread::spawn(move || c.call(ep, [u64::MAX; 8]).unwrap())
        })
        .collect();
    for t in overlapped {
        t.join().unwrap();
    }
    assert!(rt.stats.snapshot().workers_created >= 1, "the overlapping pair grew the pool");

    // Keep burning until the watchdog's maintenance pass has reaped the
    // surplus worker (bounded by wait_ticks' own 10 s timeout).
    let client = rt.client(0, 1);
    let t0 = tel.ticks();
    while rt.idle_workers(ep).unwrap() > 1 {
        for i in 0..50u64 {
            client.call(ep, [i; 8]).unwrap();
        }
        assert!(tel.wait_ticks(tel.ticks() + 1), "sampler stalled");
        assert!(tel.ticks() < t0 + 500, "nudge never reaped the surplus worker");
    }
    assert_eq!(rt.idle_workers(ep).unwrap(), 1, "idle pool decayed to `initial_workers`");
    assert!(tel.alerts()[0].fired >= 1);
}

/// Telemetry lifecycle: late start is idempotent, `stop_telemetry` is
/// clean, and dropping the runtime joins the sampler without hanging.
#[test]
fn telemetry_lifecycle() {
    let rt = Runtime::new(1);
    assert!(rt.telemetry().is_none(), "no sampler unless asked");
    let t1 = rt.start_telemetry(Duration::from_millis(10), Vec::new());
    let t2 = rt.start_telemetry(Duration::from_millis(99), Vec::new());
    assert!(Arc::ptr_eq(&t1, &t2), "second start returns the running sampler");
    assert_eq!(t2.tick(), Duration::from_millis(10));
    assert_eq!(t1.depth(), DEFAULT_SERIES_DEPTH);
    assert!(t1.wait_ticks(2));
    rt.stop_telemetry();
    assert!(rt.telemetry().is_none());
    rt.stop_telemetry(); // idempotent

    // Drop with a live sampler: Drop must stop and join it.
    let rt = telemetry_rt(1, Vec::new());
    rt.telemetry().unwrap().wait_ticks(2);
    drop(rt);
}

/// `schema_version` mismatch detection: current documents pass, old or
/// unstamped ones warn (return false) instead of mis-parsing.
#[test]
fn schema_version_check() {
    let rt = Runtime::new(1);
    let doc = rt.export_json();
    assert!(export::check_schema_version(&doc, "fresh export"));
    let old = Json::obj([("schema_version", Json::Num(0.0))]);
    assert!(!export::check_schema_version(&old, "stale artifact"));
    let unstamped = Json::obj([("counters", Json::Obj(vec![]))]);
    assert!(!export::check_schema_version(&unstamped, "pre-stamp artifact"));
    assert_eq!(export::schema_version_of(&unstamped), None);
}
