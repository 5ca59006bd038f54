//! Submission/completion ring semantics on the in-process front-end:
//! wraparound, ordering, depth backpressure, staged payloads, bulk
//! submission, fault containment, and worker teardown. The bodies live
//! in `conformance/` and run here against `Client::ring()`;
//! `tests/xproc.rs` runs the same bodies through a segment. The queue
//! protocol's unit tests are in `ring.rs` itself. Last, the isolation
//! a second ring gives latency-critical traffic from a flooded one.

use std::sync::{Arc, LockResult, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use ppc_rt::{
    BulkDesc, BulkRegion, Client, ClientRing, Completion, EntryId, EntryOptions, RingOptions,
    RtError, Runtime, Snapshot, SpinPolicy,
};

mod conformance;
use conformance::{watchdog, Eps, Gate, Rig, RingFront};

/// The isolation test at the bottom times a probe against a deadline,
/// and that depends on nothing else here busying the host's CPUs
/// meanwhile: it holds this exclusively, every rig shared (the guard
/// lives inside the `LockResult`, poisoned or not).
static CPUS: RwLock<()> = RwLock::new(());

/// A one-vCPU runtime with the conformance entries bound, handing out
/// `ClientRing`s of one depth.
struct InProc {
    rt: Arc<Runtime>,
    eps: Eps,
    gate: Gate,
    opts: RingOptions,
    _shared: LockResult<RwLockReadGuard<'static, ()>>,
}

impl InProc {
    fn new(tag: &str, depth: usize) -> InProc {
        watchdog(120);
        let rt = Runtime::new(1);
        let gate_dir =
            std::env::temp_dir().join(format!("ppc-ring-gate-{tag}-{}", std::process::id()));
        let eps = conformance::bind_entries(&rt, &gate_dir);
        let opts = RingOptions { depth };
        InProc { rt, eps, gate: Gate::at(&gate_dir), opts, _shared: CPUS.read() }
    }

    fn default_sized(tag: &str) -> InProc {
        InProc::new(tag, RingOptions::default().depth)
    }
}

impl Drop for InProc {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.gate.dir);
    }
}

impl Rig for InProc {
    fn eps(&self) -> Eps {
        self.eps
    }

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn front(&mut self, program: u32) -> Box<dyn RingFront> {
        let client = self.rt.client(0, program);
        let ring = client.ring_with(self.opts);
        // Every rig here is sized in powers of two: the ring is exactly
        // as deep as the test asked.
        assert_eq!(ring.depth(), self.opts.depth as u64);
        Box::new(Front { ring, region: None, client })
    }

    fn stats(&self) -> Option<Snapshot> {
        Some(self.rt.stats.snapshot())
    }
}

/// Declared ring-first: the ring's drop runs what is still queued, and
/// a queued bulk SQE's handler reads the region.
struct Front {
    ring: ClientRing,
    region: Option<BulkRegion>,
    client: Client,
}

impl RingFront for Front {
    fn submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        self.ring.submit(ep, args, user)
    }

    fn submit_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        payload: &[u8],
    ) -> Result<(), RtError> {
        self.ring.submit_payload(ep, args, user, payload)
    }

    fn submit_bulk(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        desc: BulkDesc,
        payload: &[u8],
    ) -> Result<(), RtError> {
        self.ring.submit_bulk(ep, args, user, desc, payload)
    }

    fn doorbell(&mut self) {
        self.ring.doorbell();
    }

    fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        self.ring.reap(max, out)
    }

    fn in_flight(&self) -> u64 {
        self.ring.in_flight()
    }

    fn depth(&self) -> u64 {
        self.ring.depth()
    }

    fn bulk_desc(&mut self, ep: EntryId, len: u32) -> BulkDesc {
        let region = self.client.bulk_register(len as usize).unwrap();
        region.grant(ep, true).unwrap();
        self.region.insert(region).full_desc(true)
    }
}

#[test]
fn wraparound_preserves_order_across_many_laps() {
    conformance::wraparound_preserves_order_across_many_laps(&mut InProc::new("wrap", 8));
}

#[test]
fn interleaved_entries_run_and_reap_in_submission_order() {
    let mut rig = InProc::new("interleave", 16);
    conformance::interleaved_entries_run_and_reap_in_submission_order(&mut rig);
}

#[test]
fn credit_exhaustion_refuses_without_deadlock() {
    let mut rig = InProc::new("credit", 4);
    conformance::credit_exhaustion_refuses_without_deadlock(&mut rig);
}

#[test]
fn admission_refuses_only_at_depth_in_flight() {
    conformance::admission_refuses_only_at_depth_in_flight(&mut InProc::new("admit", 8));
}

#[test]
fn admission_never_overwrites_an_unread_sqe() {
    conformance::admission_never_overwrites_an_unread_sqe(&mut InProc::new("laps", 2));
}

#[test]
fn payload_rides_as_handler_scratch() {
    conformance::payload_rides_as_handler_scratch(&mut InProc::default_sized("payload"));
}

#[test]
fn submit_bulk_copies_into_region_before_handler() {
    conformance::submit_bulk_copies_into_region_before_handler(&mut InProc::default_sized("bulk"));
}

#[test]
fn submit_bulk_denies_foreign_descriptors() {
    conformance::submit_bulk_denies_foreign_descriptors(&mut InProc::default_sized("denied"));
}

#[test]
fn handler_fault_is_contained_to_its_completion() {
    conformance::handler_fault_is_contained_to_its_completion(&mut InProc::default_sized("fault"));
}

/// Rings follow the runtime spin policy: a park-only ring still makes
/// progress (doorbell wakes it), and flipping the policy mid-flight
/// reaches the already-running ring worker.
#[test]
fn park_only_ring_progresses_via_doorbell() {
    let mut rig = InProc::default_sized("parkonly");
    rig.rt.set_spin_policy(SpinPolicy::ParkOnly);
    conformance::park_only_ring_progresses_via_doorbell(&mut rig);
    let mut ring = rig.rt.client(0, 1).ring();
    ring.submit(rig.eps.echo, [0; 8], 1).unwrap();
    rig.rt.set_spin_policy(SpinPolicy::Adaptive);
    ring.submit(rig.eps.echo, [0; 8], 999).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out.last().unwrap().user, 999);
}

#[test]
fn drop_with_queued_work_shuts_down_cleanly() {
    conformance::drop_with_queued_work_shuts_down_cleanly(&mut InProc::default_sized("drop"));
}

/// A ring runs its SQEs in submission order, so latency-critical
/// traffic gets a ring of its own. With 24 four-millisecond handlers
/// queued on one ring at all times, a probe on a second ring of the
/// same client completes within 40 ms — the bound the two-lane ring
/// was held to — where one queued behind the flood would wait ~96 ms.
#[test]
fn a_second_ring_is_not_held_up_by_a_flooded_one() {
    let _exclusive = CPUS.write();
    watchdog(120);
    let rt = Runtime::new(1);
    let sleepy = Arc::new(|c: &mut ppc_rt::CallCtx<'_>| {
        std::thread::sleep(Duration::from_millis(4));
        c.args
    });
    let flood = rt.bind("flood", EntryOptions::default(), sleepy).unwrap();
    let probe = rt.bind("probe", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);
    let opts = RingOptions { depth: 32 };
    let (mut bulk, mut fast) = (client.ring_with(opts), client.ring_with(opts));
    let (mut out, mut worst) = (Vec::new(), Duration::ZERO);
    for round in 0..12u64 {
        while bulk.in_flight() < 24 {
            bulk.submit(flood, [0; 8], 0).unwrap();
        }
        bulk.doorbell();
        let t0 = Instant::now();
        fast.submit(probe, [round; 8], round).unwrap();
        fast.doorbell();
        // Yielding: on one CPU the probe's worker runs in the gaps.
        while fast.reap(1, &mut out) == 0 {
            std::thread::yield_now();
        }
        worst = worst.max(t0.elapsed());
        assert_eq!(out.pop().map(|c| (c.user, c.result)), Some((round, Ok([round; 8]))));
        bulk.reap(usize::MAX, &mut out);
        out.clear();
    }
    assert!(bulk.in_flight() > 0, "the flood was still queued at the last probe");
    bulk.drain(&mut out);
    assert!(
        worst < Duration::from_millis(40),
        "the probe's sojourn stayed under 40 ms beside the flood, worst {worst:?} \
         (behind it on one ring: ~96 ms)"
    );
}
