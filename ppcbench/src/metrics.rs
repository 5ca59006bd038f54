//! The benchmark's vocabulary: workload and metric names with units.
//! `BENCHMARK.json` lists the same names (a unit test holds the two
//! together), `--list` prints them, and every run is checked to report
//! exactly the metrics of its kind.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "inline_null",
        why: "null call on an inline entry: only lookup, epoch pin, claim and completion do work; slot, worker, ring, xproc and bulk are bypassed",
    },
    Workload {
        name: "handoff_null",
        why: "the same call handed to a worker thread under the default adaptive spin: slot and worker rendezvous dominate, and spinning shows as CPU time",
    },
    Workload {
        name: "ring_d16",
        why: "in-process ClientRing, 16 submits per doorbell: ring.rs does the work and the rendezvous is amortised 16 times",
    },
    Workload {
        name: "xproc_null",
        why: "null call to a forked server process: shared segment slot plus a futex pair across a real protection boundary, ring bypassed",
    },
    Workload {
        name: "xproc_ring_d16",
        why: "the 16-deep batch through the segment ring: the second ring implementation, paired with ring_d16 for the day the two merge",
    },
    Workload {
        name: "bulk_rw_64k",
        why: "alternating 64 KiB copy_from and copy_to on a granted region: grant check, seqlock, copy engine and pool dominate, the call path is under 5 %",
    },
    Workload {
        name: "fs_chain",
        why: "client process to Name Server, file server and CopyServer with a seeded open/getlen/read/write mix: transport, nested dispatch, naming and copy all contribute",
    },
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The bounds are what this host can resolve, not what one would wish
/// for: with client and server on the two vCPUs of a shared VM, the same
/// commit's ten-run medians moved by up to 17 % between two sets taken
/// twenty minutes apart (README, "How the bounds were derived").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ns",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_s",
        unit: "B/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_op",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: "lower",
    }
}

const fn ratio(name: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // call
    ns("call.inline_null_ns"),
    ns("call.payload64_ns"),
    ns("call.bulk_desc_ns"),
    ns("call.async_null_ns"),
    ns("call.inline_under_exchange_ns"),
    // slot / worker
    ns("slot.statemachine_ns"),
    ns("worker.handoff_extra_ns"),
    ns("worker.park_rtt_ns"),
    ratio("worker.spin_wait_ratio", "higher"),
    ratio("worker.park_wait_ratio", "lower"),
    ns("worker.grow_ns"),
    // ring
    ns("ring.submit_ns"),
    ns("ring.doorbell_ns"),
    ns("ring.reap_wait_ns"),
    ns("ring.d1_ns"),
    ratio("ring.doorbells_per_op", "lower"),
    ratio("ring.full_ratio", "lower"),
    // bulk / region
    ns("bulk.register_ns"),
    ns("bulk.grant_ns"),
    ns("bulk.revoke_ns"),
    ns("bulk.copy_from_64k_ns"),
    ns("bulk.copy_to_64k_ns"),
    ns("bulk.copy_to_4k_ns"),
    ns("bulk.with_bulk_64k_ns"),
    ns("bulk.pool_take_put_ns"),
    ratio("bulk.pool_hit_ratio", "higher"),
    // frank / naming
    ns("frank.bind_ns"),
    ns("frank.exchange_ns"),
    ns("frank.kill_reclaim_ns"),
    ns("frank.ns_lookup_ns"),
    ns("frank.exchange_under_load_ns"),
    // shm / xproc
    ns("shm.segment_create_ns"),
    ns("shm.futex_pingpong_ns"),
    ns("xproc.connect_ns"),
    ns("xproc.call_null_ns"),
    ns("xproc.payload64_ns"),
    ns("xproc.bulk4k_ns"),
    ns("xproc.boundary_extra_ns"),
    ratio("xproc.wakes_per_call", "lower"),
    ns("xproc.ring_submit_ns"),
    ns("xproc.ring_doorbell_ns"),
    ns("xproc.ring_reap_wait_ns"),
    PerLayer {
        name: "xproc.seg_bytes",
        unit: "B",
        better: "lower",
    },
    // obs / span
    ns("obs.enabled_extra_ns"),
    ns("span.sampled_root_ns"),
    // tail of the selected workload
    ns("tail.p99_ns"),
    ns("tail.p999_ns"),
    ns("tail.max_ns"),
    // host context: what this kernel and CPU charge for the bare primitive
    ns("host.clock_ns"),
    ns("host.memcpy_64k_ns"),
    ns("host.pipe_rtt_ns"),
    ns("host.uds_rtt_ns"),
    ns("host.park_rtt_ns"),
    ns("host.locked_queue_null_ns"),
    ratio("host.interference_ratio", "lower"),
    PerLayer {
        name: "host.cpus_allowed",
        unit: "count",
        better: "higher",
    },
    // fs_chain trace: mean self time of each span, per op class
    ns("fs_chain.client_self_ns.open"),
    ns("fs_chain.transport_ns.open"),
    ns("fs_chain.names_self_ns.open"),
    ns("fs_chain.client_self_ns.getlen"),
    ns("fs_chain.transport_ns.getlen"),
    ns("fs_chain.fs_self_ns.getlen"),
    ns("fs_chain.client_self_ns.read"),
    ns("fs_chain.transport_ns.read"),
    ns("fs_chain.fs_self_ns.read"),
    ns("fs_chain.nested_call_ns.read"),
    ns("fs_chain.copy_self_ns.read"),
    ns("fs_chain.memcpy_ns.read"),
    ns("fs_chain.client_self_ns.write"),
    ns("fs_chain.transport_ns.write"),
    ns("fs_chain.fs_self_ns.write"),
    ns("fs_chain.nested_call_ns.write"),
    ns("fs_chain.copy_self_ns.write"),
    ns("fs_chain.memcpy_ns.write"),
    ratio("trace.reconcile_err.open", "lower"),
    ratio("trace.reconcile_err.getlen", "lower"),
    ratio("trace.reconcile_err.read", "lower"),
    ratio("trace.reconcile_err.write", "lower"),
    ratio("trace.overhead_ratio", "higher"),
];

/// Measured values of one run, in report order.
#[derive(Default)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Names in `expected` that were not measured, and measured names
    /// that are not in `expected` or occur twice.
    pub fn mismatch(&self, expected: &[&str]) -> Vec<String> {
        let mut bad: Vec<String> = expected
            .iter()
            .filter(|e| self.0.iter().filter(|(n, _)| n == *e).count() != 1)
            .map(|e| format!("{e} (missing or repeated)"))
            .collect();
        bad.extend(
            self.0
                .iter()
                .filter(|(n, _)| !expected.contains(&n.as_str()))
                .map(|(n, _)| format!("{n} (not declared)")),
        );
        bad
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        all.extend(WORKLOADS.iter().map(|w| w.name));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for n in all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` sits at the repository root, outside this
    /// package; it must name exactly what the tables above name.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let count = |needle: String| text.matches(&needle).count();
        for w in WORKLOADS {
            assert_eq!(count(format!("\"name\": \"{}\"", w.name)), 1, "{}", w.name);
            assert_eq!(count(format!("\"why\": \"{}\"", w.why)), 1, "{}", w.name);
        }
        for m in END_TO_END {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert_eq!(count(entry), 1, "{}", m.name);
        }
        for m in PER_LAYER {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert_eq!(count(entry), 1, "{}", m.name);
        }
        let declared = text.matches("\"name\": ").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn mismatch_reports_missing_extra_and_repeated() {
        let mut v = Values::default();
        v.put("a", 1.0);
        v.put("a", 2.0);
        v.put("c", 3.0);
        let bad = v.mismatch(&["a", "b"]);
        assert_eq!(bad.len(), 3, "{bad:?}");
        let mut ok = Values::default();
        ok.put("a", 1.0);
        assert!(ok.mismatch(&["a"]).is_empty());
    }
}
