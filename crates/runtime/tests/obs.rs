//! Observability-plane integration tests: exact concurrent sums, ring
//! wraparound through the runtime, exporter round-trips, bucket-index
//! stability, and the failure-path diagnostics dump.
//!
//! Everything here runs against the public `Runtime` surface — the
//! plane's unit tests live with the modules; these tests check the
//! wiring: that real calls on real threads land in the histograms and
//! rings the exporters read.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::Config;

use ppc_rt::flight::RING_CAPACITY;
use ppc_rt::obs::{bucket_bound, bucket_of, BUCKETS};
use ppc_rt::{EntryOptions, FlightKind, LatencyKind, RtError, Runtime};

/// Histograms sum exactly under concurrent multi-vCPU recording: every
/// `Relaxed` bucket increment survives, none are lost or double-counted.
#[test]
fn concurrent_recording_sums_exactly() {
    const VCPUS: usize = 4;
    const THREADS_PER_VCPU: usize = 2;
    const RECORDS: u64 = 10_000;

    let rt = Runtime::new(VCPUS);
    let obs = Arc::clone(rt.obs());
    let mut handles = Vec::new();
    for v in 0..VCPUS {
        for t in 0..THREADS_PER_VCPU {
            let obs = Arc::clone(&obs);
            handles.push(std::thread::spawn(move || {
                for i in 0..RECORDS {
                    // Distinct durations per thread so the sum check
                    // would catch increments landing in the wrong cell.
                    obs.record(LatencyKind::Call, v, i + t as u64);
                }
            }));
        }
    }
    for h in handles {
        h.join().unwrap();
    }

    let merged = rt.obs().merged(LatencyKind::Call);
    let n = VCPUS as u64 * THREADS_PER_VCPU as u64 * RECORDS;
    assert_eq!(merged.count(), n, "every record is counted exactly once");
    // Σ over threads of Σ_{i<RECORDS} (i + t):
    let per_thread_base: u64 = (0..RECORDS).sum();
    let expected_sum: u64 = (0..VCPUS as u64 * THREADS_PER_VCPU as u64)
        .map(|k| per_thread_base + (k % THREADS_PER_VCPU as u64) * RECORDS)
        .sum();
    assert_eq!(merged.sum_ns, expected_sum, "sum is exact, not sampled");
    // Per-vCPU cells partition the merged view.
    let per_vcpu: u64 = (0..VCPUS)
        .map(|v| rt.obs().vcpu_hist(LatencyKind::Call, v).count())
        .sum();
    assert_eq!(per_vcpu, n);
}

/// Overfilling a vCPU's flight ring through the runtime keeps exactly
/// the newest `RING_CAPACITY` events with contiguous sequence numbers.
#[test]
fn flight_ring_wraparound_keeps_newest() {
    let rt = Runtime::new(2);
    let total = RING_CAPACITY as u32 + 100;
    for i in 0..total {
        rt.flight().record(1, FlightKind::Inline, 3, i);
    }
    let events = rt.flight().snapshot(1);
    assert_eq!(events.len(), RING_CAPACITY, "ring retains exactly its capacity");
    for (k, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq, (total as u64 - RING_CAPACITY as u64) + k as u64);
        assert_eq!(ev.data, ev.seq as u32, "newest events, in order");
        assert_eq!(ev.vcpu, 1);
        assert_eq!(ev.ep, 3);
    }
    assert!(rt.flight().snapshot(0).is_empty(), "other rings untouched");
}

/// The JSON exporter round-trips through its own parser, and counters in
/// the document match the live facility counters.
#[test]
fn export_json_roundtrips_with_live_counters() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0); // time every call
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..50u64 {
        assert_eq!(client.call(ep, [i; 8]).unwrap(), [i; 8]);
    }

    let text = rt.export_json().to_string();
    let back = ppc_rt::export::Json::parse(&text).expect("exporter output parses");
    let counters = back.get("counters").expect("counters object");
    assert_eq!(counters.get("calls").unwrap().as_u64(), Some(rt.stats.calls()));
    assert_eq!(counters.get("inline_calls").unwrap().as_u64(), Some(50));
    let call = back.get("latency_ns").unwrap().get("call").expect("call histogram");
    assert_eq!(call.get("count").unwrap().as_u64(), Some(50));
    assert!(call.get("p50").unwrap().as_u64().unwrap() <= call.get("p99").unwrap().as_u64().unwrap());

    let prom = rt.export_prometheus();
    assert!(prom.contains("ppc_calls 50"), "counter line present:\n{prom}");
    assert!(prom.contains("ppc_latency_ns_bucket{kind=\"call\",le=\"+Inf\"} 50"));
    assert!(prom.contains("ppc_latency_ns_count{kind=\"call\"} 50"));
}

/// The failure-path dump: after traffic, a contained fault, and a hard
/// kill, the diagnostics text carries the per-vCPU flight rings with the
/// fault and kill events — what a tripped watchdog prints to stderr.
#[test]
fn diagnostics_dump_carries_flight_rings() {
    let rt = Runtime::new(2);
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let boom = rt
        .bind(
            "boom",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|_| panic!("handler fault")),
        )
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..10u64 {
        client.call(ep, [i; 8]).unwrap();
    }
    assert!(matches!(client.call(boom, [0; 8]), Err(RtError::ServerFault(_))));
    rt.hard_kill(ep, 0).unwrap();

    let dump = rt.diagnostics();
    assert!(dump.contains("=== ppc-rt diagnostics ==="), "framed:\n{dump}");
    assert!(dump.contains("stats:"), "last snapshot attached:\n{dump}");
    assert!(dump.contains("vcpu 0:") && dump.contains("vcpu 1:"), "per-vCPU sections:\n{dump}");
    assert!(dump.contains("inline"), "dispatch events present:\n{dump}");
    assert!(dump.contains("fault"), "the contained fault is in the ring:\n{dump}");
    assert!(dump.contains("hard_kill"), "the kill is in the ring:\n{dump}");
    assert!(dump.contains("latency[call]:"), "percentile lines present:\n{dump}");
}

/// The runtime enable bit actually gates recording.
#[test]
fn runtime_disable_stops_sampling() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    rt.obs().set_enabled(false);
    rt.flight().set_enabled(false);
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..20u64 {
        client.call(ep, [i; 8]).unwrap();
    }
    assert_eq!(rt.obs().merged(LatencyKind::Call).count(), 0);
    assert!(rt.flight().snapshot(0).is_empty());
    // Counters are independent of the obs plane and still count.
    assert_eq!(rt.stats.calls(), 20);
}

proptest! {
    #![proptest_config(Config { cases: 256, ..Config::default() })]

    /// Bucket indexing is stable: every duration lands in exactly one
    /// bucket, the bucket's bound covers it (except the topmost bucket,
    /// which is a clamp for ≥2⁶³ ns durations), and the previous
    /// bucket's bound does not — so percentile reads overestimate by at
    /// most 2×.
    #[test]
    fn bucket_index_is_stable(ns in any::<u64>()) {
        let b = bucket_of(ns);
        prop_assert!(b < BUCKETS);
        if ns < 1u64 << 63 {
            prop_assert!(bucket_bound(b) >= ns, "bound covers the duration");
        } else {
            prop_assert_eq!(b, BUCKETS - 1, "out-of-range durations clamp to the top");
        }
        if b > 0 {
            prop_assert!(bucket_bound(b - 1) < ns, "previous bound excludes it");
        }
    }

    /// Monotone: a longer duration never lands in an earlier bucket.
    #[test]
    fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_of(lo) <= bucket_of(hi));
    }
}
