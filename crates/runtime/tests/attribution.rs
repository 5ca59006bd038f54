//! Attribution-plane integration tests: per-vCPU time accounting
//! against real wall-time, the critical-path profiler against the raw
//! span tree, and the black-box capture round-trip.
//!
//! The accounting invariant under test is the tentpole claim: every
//! facility thread's wall-time is classified into exactly one
//! [`TimeState`](ppc_rt::stats::TimeState) at a time, so the per-state
//! counters a thread charges must *partition* that thread's lifetime —
//! no double counting, no unattributed gaps beyond timer-edge noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ppc_rt::export::{self, load_chrome_trace};
use ppc_rt::stats::TIME_STATES;
use ppc_rt::{EntryOptions, RtError, Runtime, RuntimeOptions, SpanPhase};

/// Every test here holds this for its whole run (poisoned or not), so
/// none runs beside another. They compare what the runtime charged with
/// wall time, and a neighbour busy on the host's CPUs stretches the one
/// but not the other: a `ParkOnly` caller's donation rounds before it
/// parks (`yield_now`, up to `spin::ESCALATE_YIELDS` of them) each hand
/// a busy neighbour a timeslice that is wall time and not Park, and a
/// 30 ms handler can finish before a starved killer thread runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _serial = serial();
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

/// The ring worker reads no clock per SQE: a drain is one Ring interval,
/// and the handlers' share of it is a sampled estimate (a 1-in-128
/// sampled run × 128) carved out where the interval closes. With the same
/// 5 µs handler as above over 2·10⁴ SQEs (≈ 160 samples) the estimate
/// must show up, must be of the size of the handlers' real time, and —
/// carved, not added — Handler + Ring must still be the time the worker
/// spent draining: no less than the handler bodies, no more than the
/// wall. With the obs plane off nothing is sampled, and the whole drain
/// is Ring time.
#[test]
fn ring_worker_handler_share_is_carved_from_the_drain() {
    let _serial = serial();
    const SQES: u64 = 20_000;
    const HANDLER_NS: u64 = 5_000;
    for sampling in [true, false] {
        let rt = Runtime::new(1);
        rt.obs().set_enabled(sampling);
        let ep = rt
            .bind(
                "attr-carve",
                EntryOptions { initial_workers: 0, ..Default::default() },
                Arc::new(|ctx| {
                    let t0 = Instant::now();
                    while (t0.elapsed().as_nanos() as u64) < HANDLER_NS {
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
        let (mut submitted, mut reaped) = (0u64, 0u64);
        while reaped < SQES {
            // One SQE per doorbell: where the worker keeps up, every run
            // of its drain is one SQE long — the pattern a sampler ticked
            // once per run *and* once per SQE falls into step with.
            if submitted < SQES && ring.submit(ep, [submitted; 8], 0).is_ok() {
                submitted += 1;
                ring.doorbell();
            }
            if ring.reap(64, &mut out) == 0 {
                std::thread::yield_now();
            }
            reaped += out.drain(..).count() as u64;
        }
        drop(ring);
        let elapsed = t0.elapsed().as_nanos() as u64;
        let d = rt.stats.vcpu_snapshot(0).since(&before);
        assert_eq!(d.ring_calls, SQES);
        let bodies = SQES * HANDLER_NS;
        if sampling {
            assert!(
                d.time_handler_ns >= bodies / 2,
                "Handler {}ns is not of the size of {SQES} × {HANDLER_NS}ns handler bodies",
                d.time_handler_ns
            );
        } else {
            assert_eq!(d.time_handler_ns, 0, "nothing sampled, nothing carved");
        }
        let busy = d.time_handler_ns + d.time_ring_ns;
        assert!(
            busy >= bodies * 9 / 10 && busy <= elapsed,
            "Handler + Ring = {busy}ns: the drain ran {bodies}ns of handlers within {elapsed}ns"
        );
    }
}

/// The hand-off worker's partner of the two ring-worker tests above. A
/// worker reads the clock only at a park edge and after a sampled run,
/// and carves the sampled handler estimate out of its Idle interval: its
/// Idle + Park + Handler, on the vCPU's served cell, must fill the
/// bracket from bind (which spawns it) to the hard kill (which joins it)
/// — never more, and no less than the bracket less spawn and join noise.
/// With sampling the Handler share is of the size of the handler bodies;
/// with the obs plane off nothing is sampled and it is 0.
#[test]
fn handoff_worker_state_times_partition_wall_time() {
    let _serial = serial();
    const CALLS: u64 = 20_000;
    const HANDLER_NS: u64 = 5_000;
    for sampling in [true, false] {
        let rt = Runtime::new(1);
        rt.obs().set_enabled(sampling);
        let before = rt.stats.served_cell(0).snapshot();
        let t0 = Instant::now();
        let ep = rt
            .bind(
                "attr-handoff",
                EntryOptions::default(),
                Arc::new(|ctx| {
                    let t0 = Instant::now();
                    while (t0.elapsed().as_nanos() as u64) < HANDLER_NS {
                        std::hint::spin_loop();
                    }
                    ctx.args
                }),
            )
            .unwrap();
        let client = rt.client(0, 1);
        for i in 0..CALLS {
            assert_eq!(client.call(ep, [i; 8]), Ok([i; 8]));
            // Let the worker park now and then: Park edges in the bracket.
            if i % 2_000 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        rt.hard_kill(ep, 0).unwrap();
        let elapsed = t0.elapsed().as_nanos() as u64;
        let d = rt.stats.served_cell(0).snapshot().since(&before);
        let states = d.time_idle_ns + d.time_park_ns + d.time_handler_ns;
        assert_eq!(attributed_ns(&d), states, "a worker charges Idle, Park and Handler only");
        assert!(
            states <= elapsed && states >= elapsed / 4 * 3,
            "Idle + Park + Handler = {states}ns against a {elapsed}ns bracket"
        );
        assert!(d.time_park_ns > 0, "the worker parked");
        let bodies = CALLS * HANDLER_NS;
        if sampling {
            assert!(
                d.time_handler_ns >= bodies / 2 && d.time_handler_ns <= elapsed,
                "Handler {}ns is not of the size of {CALLS} × {HANDLER_NS}ns handler bodies",
                d.time_handler_ns
            );
        } else {
            assert_eq!(d.time_handler_ns, 0, "nothing sampled, nothing carved");
        }
    }
}

/// Park time stays exact on the caller's side: the clock is read around
/// each futex wait, sampled or not. Under `ParkOnly` a caller of a 10 ms
/// handler donates a few rounds and then blocks for nearly the whole
/// call, so the Park it charges must come within 20 % of the wall time
/// of the calls whose wait blocked, and never exceed it. (On a busy host
/// a donation round can outlast the handler; such a call blocks not at
/// all and is left out of both sides.)
#[test]
fn parkonly_caller_charges_its_blocked_time_to_park() {
    let _serial = serial();
    const CALLS: u64 = 30;
    let rt = Runtime::new(1);
    rt.set_spin_policy(ppc_rt::SpinPolicy::ParkOnly);
    let ep = rt
        .bind(
            "attr-park",
            EntryOptions::default(),
            Arc::new(|ctx| {
                std::thread::sleep(Duration::from_millis(10));
                ctx.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let (mut blocked_wall, mut park, mut blocked) = (0u64, 0u64, 0u64);
    for i in 0..CALLS {
        let before = rt.stats.cell(0).snapshot();
        let t0 = Instant::now();
        assert_eq!(client.call(ep, [i; 8]), Ok([i; 8]));
        let wall = t0.elapsed().as_nanos() as u64;
        let d = rt.stats.cell(0).snapshot().since(&before);
        if d.park_waits == 1 {
            blocked += 1;
            blocked_wall += wall;
            park += d.time_park_ns;
        } else {
            assert_eq!(d.time_park_ns, 0, "call {i} did not block but charged Park");
        }
    }
    assert!(blocked >= CALLS / 2, "only {blocked} of {CALLS} waits blocked");
    assert!(
        park <= blocked_wall && park >= blocked_wall / 5 * 4,
        "Park {park}ns against {blocked_wall}ns the caller spent in {blocked} blocked calls"
    );
}

/// Each vCPU's counters are kept in two halves, one written by the
/// threads that call on it and one by the threads that serve it. A fixed
/// script — sync, async and ring calls on two vCPUs with one handler
/// panic and one hard kill among them — must leave (a) every reader's sum
/// where it was before the split (the expected values are what the
/// unsplit parent commit reports for this script), (b) each half holding
/// only what its side writes.
#[test]
fn split_cells_sum_to_the_same_counters() {
    let _serial = serial();
    let rt = Runtime::new(2);
    // Handler runs, counted by the handlers: `svc` on vCPU 0 and 1, then
    // `inl` and `doomed`.
    let runs: Arc<[AtomicU64; 4]> = Arc::default();
    let svc_runs = Arc::clone(&runs);
    let svc = rt
        .bind(
            "svc",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                svc_runs[ctx.vcpu].fetch_add(1, Ordering::Relaxed);
                assert_ne!(ctx.args[0], 13, "injected server fault");
                ctx.args
            }),
        )
        .unwrap();
    let inl_runs = Arc::clone(&runs);
    let inline = rt.bind(
        "inl",
        EntryOptions { inline_ok: true, ..Default::default() },
        Arc::new(move |c| {
            inl_runs[2].fetch_add(1, Ordering::Relaxed);
            c.args
        }),
    );
    let inline = inline.unwrap();
    let (started_tx, started) = std::sync::mpsc::channel();
    let started_tx = std::sync::Mutex::new(started_tx);
    let doomed_runs = Arc::clone(&runs);
    let doomed = rt
        .bind(
            "doomed",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                doomed_runs[3].fetch_add(1, Ordering::Relaxed);
                started_tx.lock().unwrap().send(()).unwrap();
                std::thread::sleep(Duration::from_millis(30));
                ctx.args
            }),
        )
        .unwrap();
    let (c0, c1) = (rt.client(0, 1), rt.client(1, 2));
    for i in 0..100 {
        assert_eq!(c0.call(svc, [i + 100; 8]), Ok([i + 100; 8]));
        assert_eq!(c0.call(inline, [i; 8]), Ok([i; 8]));
    }
    (0..50).for_each(|i| assert_eq!(c1.call(svc, [i + 100; 8]), Ok([i + 100; 8])));
    assert_eq!(c0.call(svc, [13; 8]), Err(RtError::ServerFault(svc)));
    for i in 0..40 {
        let call = c0.call_async(svc, [i + 100; 8]).unwrap();
        if i % 2 == 0 {
            assert_eq!(call.wait(), [i + 100; 8]);
        }
    }
    let mut ring = c1.ring();
    let mut out = Vec::new();
    for batch in 0..4 {
        (0..16).for_each(|i| ring.submit(svc, [batch * 16 + i + 100; 8], i).unwrap());
        ring.doorbell();
        while out.len() < 16 * (batch as usize + 1) {
            ring.reap(64, &mut out);
            std::thread::yield_now();
        }
    }
    drop(ring);
    let killer = {
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            started.recv().unwrap();
            rt.hard_kill(doomed, 0).unwrap();
        })
    };
    assert_eq!(c1.call(doomed, [1; 8]), Err(RtError::Aborted(doomed)));
    killer.join().unwrap();

    // (a) What the parent commit reports for this script, counter by
    // counter (wall-time and interference counters aside).
    let total = rt.stats.snapshot();
    let expect = [
        ("calls", 250),
        ("handoff_calls", 150),
        ("inline_calls", 100),
        ("async_calls", 40),
        ("upcalls", 0),
        ("server_faults", 1),
        ("ring_submits", 64),
        ("ring_calls", 64),
        ("workers_created", 1), // the ring's
        ("cds_created", 0),
        ("frank_redirects", 0),
    ];
    for (name, want) in expect {
        assert_eq!(total.field(name), Some(want), "{name}");
    }
    assert_eq!(total.spin_waits + total.park_waits, 152, "every sync hand-off waited once");
    // Every handler ran once per call, whatever the call then returned:
    // on vCPU 0 100 sync + the fault + 40 async, on vCPU 1 50 sync + 64
    // ring; the aborted call on its own entry.
    let runs = runs.each_ref().map(|r| r.load(Ordering::Relaxed));
    assert_eq!(runs, [141, 114, 100, 1], "svc on vCPU 0 and 1, inl, doomed");

    // (b) Who wrote what. The halves sum to the per-vCPU view, field by
    // field, and those to the aggregate.
    let mut sum = ppc_rt::Snapshot::default();
    for v in 0..2 {
        let (client, served) = (rt.stats.cell(v).snapshot(), rt.stats.served_cell(v).snapshot());
        assert_eq!(rt.stats.vcpu_snapshot(v), client.plus(&served), "vCPU {v}");
        sum = sum.plus(&client).plus(&served);
        // Workers and the ring worker write wall-time states, `ring_calls`
        // and nothing a caller counts …
        assert!(served.time_handler_ns > 0 && served.time_idle_ns > 0, "vCPU {v}: {served}");
        assert_eq!(served.ring_calls, [0, 64][v]);
        let callers_only = ["calls", "async_calls", "ring_submits", "spin_waits", "park_waits"];
        callers_only.iter().for_each(|n| assert_eq!(served.field(n), Some(0), "{n} on vCPU {v}"));
        // … and callers leave those alone (an inline call's handler time
        // is the caller's own, but vCPU 1 made no inline call).
        assert_eq!(client.ring_calls + client.time_idle_ns + client.time_ring_ns, 0);
        assert!(v == 0 || client.time_handler_ns == 0);
    }
    assert_eq!(sum, rt.stats.snapshot());
}

/// The profiler's per-entry phase totals must equal what the span
/// tree's B/E pairs say — folding is aggregation, not re-measurement.
#[test]
fn profiler_breakdown_matches_span_tree() {
    let _serial = serial();
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
        let e = expect.entry((r.ep, r.phase().unwrap() as u8)).or_insert((0, 0));
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
            .find(|t| t.trace_id() == r.trace_id() && t.span_id == r.span_id)
            .unwrap_or_else(|| panic!("span {}/{} lost in B/E export", r.trace_id(), r.span_id));
        let dur_ns = t.dur_ns;
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
    let _serial = serial();
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
    let _serial = serial();
    for transport in ["hand-off", "inline", "ring"] {
        let dir = std::env::temp_dir()
            .join(format!("ppc-bb-panic-{}-{transport}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rt = Runtime::new(1);
        rt.set_blackbox_dir(Some(dir.clone()));
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
