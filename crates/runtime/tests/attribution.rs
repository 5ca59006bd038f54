//! Attribution-plane integration tests: per-vCPU time accounting
//! against real wall-time, the critical-path profiler against the raw
//! span tree, and the black-box capture round-trip.
//!
//! The accounting invariant under test is the tentpole claim: every
//! facility thread's wall-time is classified into exactly one
//! [`TimeState`](ppc_rt::stats::TimeState) at a time, so the per-state
//! counters a thread charges must *partition* that thread's lifetime —
//! no double counting, no unattributed gaps beyond timer-edge noise.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_rt::export::{self, load_chrome_trace};
use ppc_rt::stats::TIME_STATES;
use ppc_rt::{EntryOptions, RtError, Runtime, RuntimeOptions, SpanPhase};

/// Σ of all attributed time-state counters in a snapshot (ns).
fn attributed_ns(snap: &ppc_rt::Snapshot) -> u64 {
    TIME_STATES.iter().map(|&(_, name, _)| snap.field(name).unwrap_or(0)).sum()
}

/// The ring worker is the one facility thread whose whole life is
/// spent inside its `StateTimer` (spawned at ring creation, flushed by
/// the synchronous join in `ClientRing::drop`), and the ring client
/// never blocks — so the time the vCPU's counters gain across the
/// ring's lifetime must equal the ring worker's wall-time, which we
/// bracket with `Instant` reads around creation and drop.
#[test]
fn ring_worker_state_times_partition_wall_time() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "attr-ring",
            // No pooled workers: the ring thread runs handlers itself,
            // so it is the only thread charging this vCPU's shard.
            EntryOptions { initial_workers: 0, ..Default::default() },
            Arc::new(|ctx| {
                let t0 = Instant::now();
                while t0.elapsed().as_nanos() < 5_000 {
                    std::hint::spin_loop();
                }
                ctx.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let before = rt.stats.vcpu_snapshot(0);

    let t0 = Instant::now();
    let mut ring = client.ring();
    let mut out = Vec::with_capacity(64);
    let run = Duration::from_millis(200);
    let mut submitted = 0u64;
    let mut reaped = 0u64;
    while t0.elapsed() < run {
        if ring.submit(ep, [reaped; 8], 0).is_ok() {
            submitted += 1;
            ring.doorbell();
        }
        reaped += ring.reap(64, &mut out) as u64;
        out.clear();
        // Let the ring idle now and then so Park/Idle states appear
        // in the partition too, not just Ring/Handler.
        if submitted.is_multiple_of(50) {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    drop(ring); // drains, joins the worker, flushes its StateTimer
    let elapsed = t0.elapsed().as_nanos() as u64;

    let after = rt.stats.vcpu_snapshot(0);
    let gained = attributed_ns(&after) - attributed_ns(&before);
    assert!(submitted > 0 && reaped > 0, "workload ran: {submitted} submitted");
    // The bracket includes thread spawn/join overhead outside the
    // timer, and a CI box can deschedule either thread — ±25%.
    assert!(
        gained >= elapsed / 4 * 3 && gained <= elapsed / 4 * 5,
        "attributed {gained}ns vs wall {elapsed}ns: states must partition \
         the ring worker's lifetime"
    );
    // Exclusivity means no single state can exceed the whole bracket.
    for &(_, name, label) in &TIME_STATES {
        let d = after.field(name).unwrap_or(0) - before.field(name).unwrap_or(0);
        assert!(d <= elapsed * 5 / 4, "state {label} alone exceeds wall-time: {d}ns");
    }
}

/// The profiler's per-entry phase totals must equal what the span
/// tree's B/E pairs say — folding is aggregation, not re-measurement.
#[test]
fn profiler_breakdown_matches_span_tree() {
    if !cfg!(feature = "obs") {
        return; // tracing compiled out: nothing to fold
    }
    let rt = Runtime::with_runtime_options(
        1,
        RuntimeOptions { trace_capacity: 4096, ..Default::default() },
    );
    rt.obs().set_sample_shift(0); // trace every root
    let inner = rt
        .bind(
            "attr-inner",
            EntryOptions { initial_workers: 0, ..Default::default() },
            Arc::new(|c| [c.args[0] * 2; 8]),
        )
        .unwrap();
    let rt2 = Arc::clone(&rt);
    let outer = rt
        .bind(
            "attr-outer",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                let c = rt2.client(ctx.vcpu, 999);
                c.call(inner, [ctx.args[0]; 8]).unwrap()
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..50u64 {
        client.call(outer, [i; 8]).unwrap();
    }

    let records = rt.spans().all_records();
    assert!(!records.is_empty(), "traced calls left span records");

    // Independent per-(entry, phase) totals straight off the records.
    let mut expect: std::collections::HashMap<(u16, u8), (u64, u64)> =
        std::collections::HashMap::new();
    for r in &records {
        let e = expect.entry((r.ep, r.phase as u8)).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.dur_ns;
    }

    let prof = ppc_rt::profile::build(&records, &std::collections::HashMap::new());
    assert_eq!(prof.records, records.len());
    assert_eq!(prof.orphans, 0, "deep ring, nothing wrapped");
    for e in &prof.entries {
        for phase in
            [SpanPhase::Call, SpanPhase::Rendezvous, SpanPhase::Handler, SpanPhase::Frank]
        {
            let a = &e.phases[phase as usize];
            let (count, total) =
                expect.get(&(e.ep, phase as u8)).copied().unwrap_or((0, 0));
            assert_eq!(a.count, count, "{}/{} count", e.name, phase.label());
            assert_eq!(a.total_ns, total, "{}/{} total", e.name, phase.label());
            assert!(a.self_ns <= a.total_ns, "self within total");
        }
        // The nested hand-off call is billed to the outer entry as
        // child time.
        if e.ep == outer as u16 {
            let (_, inner_total) =
                expect.get(&(inner as u16, SpanPhase::Call as u8)).copied().unwrap();
            assert_eq!(e.child_ns, inner_total, "cross-entry child attribution");
        }
    }

    // And the B/E export agrees span-for-span: each record round-trips
    // through the Chrome trace as one begin/end pair of the same
    // duration (µs floats carry the ns in the fraction).
    let loaded = load_chrome_trace(&export::chrome_trace(&records)).unwrap();
    assert_eq!(loaded.len(), records.len());
    for r in &records {
        let t = loaded
            .iter()
            .find(|t| t.trace_id == r.trace_id && t.span_id == r.span_id)
            .unwrap_or_else(|| panic!("span {}/{} lost in B/E export", r.trace_id, r.span_id));
        let dur_ns = (t.dur_us * 1_000.0).round() as u64;
        assert!(
            dur_ns.abs_diff(r.dur_ns) <= 1,
            "B/E duration drifted: {} vs {}",
            dur_ns,
            r.dur_ns
        );
    }
}

/// The black-box document survives a full serialize → parse round-trip
/// with counters intact, and the automatic sink honors its directory
/// gate and rate limit.
#[test]
fn blackbox_round_trips_and_rate_limits() {
    let rt = Runtime::new(2);
    let ep = rt
        .bind(
            "attr-bb",
            // No pooled workers: an idle worker would charge its
            // Idle→Park transition between the capture and the
            // comparing snapshot below.
            EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() },
            Arc::new(|c| c.args),
        )
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..500u64 {
        client.call(ep, [i; 8]).unwrap();
    }

    let doc = rt.blackbox_json("round-trip-test");
    let reparsed = export::Json::parse(&doc.to_string()).expect("capture is valid JSON");
    assert_eq!(doc, reparsed, "document survives the text round-trip");
    assert_eq!(
        reparsed.get("kind").and_then(|k| k.as_str()),
        Some("ppc-blackbox"),
        "self-identifying artifact"
    );
    assert_eq!(
        export::schema_version_of(&reparsed),
        Some(export::SCHEMA_VERSION),
        "stamped with the current schema"
    );
    assert_eq!(
        reparsed.get("reason").and_then(|r| r.as_str()),
        Some("round-trip-test")
    );
    let snap = rt.stats.snapshot();
    let counters = reparsed.get("counters").expect("counters object");
    for (name, value) in snap.fields() {
        assert_eq!(
            counters.get(name).and_then(|v| v.as_u64()),
            Some(value),
            "counter {name} intact after round-trip"
        );
    }
    let occ = reparsed.get("occupancy").and_then(|o| o.as_arr()).expect("occupancy");
    assert_eq!(occ.len(), rt.n_vcpus(), "one occupancy object per vCPU");
    // No sampler running: telemetry members are explicit nulls, not
    // absent — loaders can rely on the keys existing.
    assert_eq!(reparsed.get("telemetry"), Some(&export::Json::Null));

    // Automatic capture: off without a directory, on with one, and
    // rate-limited once it fires.
    assert_eq!(rt.blackbox_event("no-dir"), None, "no directory, no capture");
    let dir = std::env::temp_dir().join(format!("ppc-bb-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    rt.set_blackbox_dir(Some(dir.clone()));
    let first = rt.blackbox_event("incident").expect("first capture writes");
    assert!(first.exists(), "artifact on disk: {}", first.display());
    let text = std::fs::read_to_string(&first).unwrap();
    let loaded = export::Json::parse(&text).expect("artifact parses");
    assert_eq!(loaded.get("reason").and_then(|r| r.as_str()), Some("incident"));
    assert_eq!(
        rt.blackbox_event("incident-again"),
        None,
        "second capture inside the rate-limit window is suppressed"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A contained handler panic freezes the facility state into a
/// black-box artifact whichever transport ran the handler: the worker
/// loop, the caller's own thread, and the ring worker share one fault
/// arm. (One runtime per transport — `MIN_CAPTURE_INTERVAL` rate-limits
/// captures within one.)
#[test]
fn handler_panic_captures_a_blackbox_on_every_transport() {
    for transport in ["hand-off", "inline", "ring"] {
        let dir = std::env::temp_dir()
            .join(format!("ppc-bb-panic-{}-{transport}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rt = Runtime::with_runtime_options(
            1,
            RuntimeOptions { blackbox_dir: Some(dir.clone()), ..Default::default() },
        );
        let ep = rt
            .bind(
                "attr-boom",
                EntryOptions { inline_ok: transport == "inline", ..Default::default() },
                Arc::new(|_| panic!("injected handler fault")),
            )
            .unwrap();
        let client = rt.client(0, 1);
        let result = if transport == "ring" {
            let mut ring = client.ring();
            ring.submit(ep, [0; 8], 7).unwrap();
            let mut out = Vec::new();
            ring.drain(&mut out);
            out.pop().expect("one completion").result
        } else {
            client.call(ep, [0; 8])
        };
        assert_eq!(result, Err(RtError::ServerFault(ep)), "{transport}: fault contained");
        let captured = std::fs::read_dir(&dir).unwrap().any(|f| {
            let name = f.unwrap().file_name().into_string().unwrap();
            name.starts_with("blackbox-") && name.ends_with("-handler-panic.json")
        });
        assert!(captured, "{transport}: no blackbox-*-handler-panic.json in {}", dir.display());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
