//! Submission/completion ring semantics: wraparound, ordering, credit
//! backpressure, staged payload and async bulk delivery, fault
//! containment, and worker teardown. Everything runs against the public
//! `Client::ring()` surface; the SPSC index protocol's unit tests live
//! in `ring.rs` itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppc_rt::{Completion, EntryOptions, RingOptions, RtError, Runtime, SpinPolicy};

/// Abort the process if the binary wedges (ring bugs hang, not fail).
fn watchdog(secs: u64) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(secs));
        eprintln!("ring test watchdog fired after {secs}s");
        std::process::abort();
    });
}

/// Many laps around a tiny ring: cursors are monotonic u64s masked into
/// 8 slots, so 100 submissions exercise 12+ wraparounds of both queues,
/// and every completion arrives in submission order with its user tag.
#[test]
fn wraparound_preserves_order_across_many_laps() {
    watchdog(60);
    let rt = Runtime::new(1);
    let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|c| [c.args[0] + 1; 8])).unwrap();
    let client = rt.client(0, 1);
    let mut ring =
        client.ring_with(RingOptions { sq_depth: 8, cq_depth: 8, credits: 8 });
    assert_eq!(ring.sq_capacity(), 8);

    let mut out: Vec<Completion> = Vec::new();
    let mut next = 0u64;
    while next < 100 {
        // Fill the credit budget, then drain — each iteration is one
        // full lap of both rings.
        while next < 100 {
            match ring.submit(ep, [next; 8], next) {
                Ok(()) => next += 1,
                Err(RtError::RingFull) => break,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        ring.drain(&mut out);
    }
    assert_eq!(out.len(), 100);
    for (i, c) in out.iter().enumerate() {
        assert_eq!(c.user, i as u64, "completions in submission order");
        assert_eq!(c.ep, ep);
        assert_eq!(c.result, Ok([i as u64 + 1; 8]), "handler ran with the right args");
    }
    assert_eq!(ring.in_flight(), 0);
}

/// Credit exhaustion is a clean refusal, not a deadlock: with the
/// worker blocked inside a slow handler, submissions beyond the credit
/// budget return `RingFull` immediately, in-flight never exceeds the
/// budget (the bounded-memory invariant), and draining restores full
/// capacity.
#[test]
fn credit_exhaustion_refuses_without_deadlock() {
    watchdog(60);
    let rt = Runtime::new(1);
    let gate = Arc::new(AtomicU64::new(0));
    let g = Arc::clone(&gate);
    let ep = rt
        .bind(
            "slow",
            EntryOptions::default(),
            Arc::new(move |c| {
                // First call parks the ring worker here until released.
                if c.args[0] == 0 {
                    while g.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                }
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring =
        client.ring_with(RingOptions { sq_depth: 16, cq_depth: 16, credits: 4 });
    assert_eq!(ring.credits(), 4);

    for i in 0..4u64 {
        ring.submit(ep, [i; 8], i).unwrap();
    }
    ring.doorbell();
    // The budget is spent; the 5th submission sheds immediately even
    // though the SQ itself has 12 free slots.
    assert_eq!(ring.submit(ep, [9; 8], 9), Err(RtError::RingFull));
    assert_eq!(ring.in_flight(), 4, "in-flight bounded by credits");
    // A credit shed counts into `ring_no_credit`, not `ring_full`: the
    // SQ has free slots, the client just has to reap.
    let snap = rt.stats.snapshot();
    assert!(snap.ring_no_credit >= 1, "the credit shed was counted");
    assert_eq!(snap.ring_full, 0, "SQ-full never happened");

    gate.store(1, Ordering::Release);
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out.len(), 4);
    // Credits returned: the refused submission now succeeds.
    ring.submit(ep, [9; 8], 9).unwrap();
    ring.drain(&mut out);
    assert_eq!(out.last().unwrap().user, 9);
}

/// Admission reads the worker's SQ head through a cached copy, loaded
/// only when the copy says the lane is full. The copy is stale the moment
/// the worker takes an SQE (it frees the slot *before* executing), so a
/// submitter that refused on the copy alone would shed work the queue has
/// room for: the third submission below is admitted only by the re-load,
/// and the fourth is the one real refusal.
#[test]
fn admission_reloads_the_head_only_on_apparent_full() {
    watchdog(60);
    let rt = Runtime::new(1);
    let (started_tx, started) = std::sync::mpsc::channel::<()>();
    let (release, released) = std::sync::mpsc::channel::<()>();
    let chans = std::sync::Mutex::new((started_tx, released));
    let ep = rt
        .bind(
            "gate",
            EntryOptions::default(),
            Arc::new(move |c| {
                if c.args[0] == 0 {
                    let (started, released) = &*chans.lock().unwrap();
                    started.send(()).unwrap();
                    let _ = released.recv();
                }
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring_with(RingOptions { sq_depth: 2, cq_depth: 8, credits: 8 });
    assert_eq!((ring.sq_capacity(), ring.credits()), (2, 8));
    // Declared after the ring, so dropped before it: a failed assertion
    // below unblocks the handler instead of hanging the ring's drop.
    let release = release;

    // The worker takes SQE 0 — freeing its slot — and blocks in the
    // handler: the true head is 1, the client's copy still 0.
    ring.submit(ep, [0; 8], 0).unwrap();
    ring.doorbell();
    started.recv().unwrap();
    // Tail 1: room by the copy. Tail 2: full by the copy, one free slot
    // by the head. Tail 3: full by both.
    ring.submit(ep, [1; 8], 1).unwrap();
    ring.submit(ep, [2; 8], 2).expect("the stale copy must be re-loaded before refusing");
    assert_eq!(ring.submit(ep, [3; 8], 3), Err(RtError::RingFull));
    let snap = rt.stats.snapshot();
    assert_eq!((snap.ring_full, snap.ring_no_credit), (1, 0), "one real refusal, counted once");
    assert_eq!(ring.in_flight(), 3);

    // Release the handler and reap: the next submission goes through on
    // the same rule, with no refresh asked for.
    release.send(()).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out.iter().map(|c| c.user).collect::<Vec<_>>(), [0, 1, 2]);
    ring.submit(ep, [3; 8], 3).unwrap();
    ring.drain(&mut out);
    assert_eq!(out[3].result, Ok([3; 8]));
    assert_eq!(rt.stats.snapshot().ring_full, 1);
}

/// 10⁵ submissions through a two-slot SQ against a consumer that is
/// usually behind: the submitter runs into the full queue all the time
/// and admits on a head it re-loads only then. No SQE may be overwritten
/// before the worker has read it — every completion arrives in order
/// with its own tag and its own echoed frame.
#[test]
fn cached_head_never_admits_over_an_unread_sqe() {
    watchdog(120);
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "slow-echo",
            EntryOptions::default(),
            Arc::new(|c| {
                (0..c.args[0] % 256).for_each(|_| std::hint::spin_loop());
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring_with(RingOptions { sq_depth: 2, cq_depth: 8, credits: 8 });
    let frame = |i: u64| [i, !i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i ^ 0xA5, i << 7, i, 1, 2];
    let (total, mut next, mut seen) = (100_000u64, 0u64, 0u64);
    let mut out: Vec<Completion> = Vec::new();
    while seen < total {
        while next < total {
            match ring.submit(ep, frame(next), next) {
                Ok(()) => next += 1,
                Err(RtError::RingFull) => break,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        ring.doorbell();
        if ring.reap(usize::MAX, &mut out) == 0 {
            std::thread::yield_now();
        }
        for c in out.drain(..) {
            assert_eq!((c.user, c.result), (seen, Ok(frame(seen))), "SQE {seen} arrived intact");
            seen += 1;
        }
    }
    assert_eq!(ring.in_flight(), 0);
    let snap = rt.stats.snapshot();
    assert_eq!((snap.ring_submits, snap.ring_calls), (total, total));
    assert!(snap.ring_full > 0, "the two-slot SQ was found full");
}

/// Staged payload delivery: the bytes handed to `submit_payload` arrive
/// as the handler's scratch prefix — one client-side memcpy into a pool
/// buffer, recycled after execution.
#[test]
fn payload_rides_as_handler_scratch() {
    watchdog(60);
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "sum",
            EntryOptions::default(),
            Arc::new(|c| {
                let n = c.args[0] as usize;
                let sum: u64 = c.scratch()[..n].iter().map(|b| *b as u64).sum();
                [sum; 8]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring();
    let payload = vec![3u8; 1000];
    let mut args = [0u64; 8];
    args[0] = payload.len() as u64;
    ring.submit_payload(ep, args, 1, &payload).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out[0].result, Ok([3_000; 8]), "payload visible in scratch");
}

/// The async copy engine: `submit_bulk` returns after staging locally;
/// the ring worker performs the grant-checked copy into the region
/// before the handler runs and packs the descriptor into `args[7]` —
/// the handler observes the payload in place, like `call_bulk`.
#[test]
fn submit_bulk_copies_into_region_before_handler() {
    watchdog(60);
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "check",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().expect("descriptor in args[7]");
                let ok = ctx
                    .with_bulk_mut(desc, |bytes| {
                        bytes.iter().all(|b| *b == 0xAB) as u64
                    })
                    .expect("granted access");
                [ok, desc.len as u64, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 7);
    let region = client.bulk_register(4096).unwrap();
    region.grant(ep, true).unwrap();
    let mut ring = client.ring();

    let payload = vec![0xABu8; 4096];
    ring.submit_bulk(ep, [0; 8], 1, region.full_desc(true), &payload).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    let rets = out[0].result.clone().expect("bulk submission completes");
    assert_eq!(rets[0], 1, "handler saw the staged bytes in the region");
    assert_eq!(rets[1], 4096);
    assert!(rt.stats.bulk_bytes() >= 4096, "the worker-side copy was accounted");

    // A payload longer than the descriptor's span is refused up front.
    let long = vec![0u8; 8192];
    assert_eq!(
        ring.submit_bulk(ep, [0; 8], 2, region.full_desc(true), &long),
        Err(RtError::BadBulk)
    );
}

/// The worker-side copy is owner-checked: a ring whose program does not
/// own the region gets a `BulkDenied` completion — the handler never
/// runs — and the ring keeps serving.
#[test]
fn submit_bulk_denies_foreign_descriptors() {
    watchdog(60);
    let rt = Runtime::new(1);
    let calls = Arc::new(AtomicU64::new(0));
    let n = Arc::clone(&calls);
    let ep = rt
        .bind(
            "svc",
            EntryOptions::default(),
            Arc::new(move |c| {
                n.fetch_add(1, Ordering::Relaxed);
                c.args
            }),
        )
        .unwrap();
    let owner = rt.client(0, 7);
    let region = owner.bulk_register(4096).unwrap();
    region.grant(ep, true).unwrap();

    // Program 8 submits program 7's descriptor.
    let imposter = rt.client(0, 8);
    let mut ring = imposter.ring();
    ring.submit_bulk(ep, [0; 8], 1, region.full_desc(true), &[1, 2, 3]).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert!(
        matches!(out[0].result, Err(RtError::BulkDenied(_))),
        "foreign copy refused: {:?}",
        out[0].result
    );
    assert_eq!(calls.load(Ordering::Relaxed), 0, "handler never ran on a denied copy");
    assert_eq!(rt.stats.snapshot().bulk_denied, 1);

    // The ring survives the refusal.
    ring.submit(ep, [5; 8], 2).unwrap();
    ring.drain(&mut out);
    assert_eq!(out[1].result, Ok([5; 8]));
}

/// Fault containment matches the dispatch paths: a panicking handler
/// produces a `ServerFault` completion, the ring worker survives, and
/// subsequent submissions on the same ring succeed.
#[test]
fn handler_fault_is_contained_to_its_completion() {
    watchdog(60);
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "flaky",
            EntryOptions::default(),
            Arc::new(|c| {
                if c.args[0] == 13 {
                    panic!("injected");
                }
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring();
    ring.submit(ep, [1; 8], 1).unwrap();
    ring.submit(ep, [13; 8], 2).unwrap();
    ring.submit(ep, [3; 8], 3).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out[0].result, Ok([1; 8]));
    assert_eq!(out[1].result, Err(RtError::ServerFault(ep)), "fault becomes its CQE");
    assert_eq!(out[2].result, Ok([3; 8]), "the queue keeps flowing past the fault");
    assert_eq!(rt.stats.snapshot().server_faults, 1);
}

/// Rings follow the runtime spin policy: a park-only ring still makes
/// progress (doorbell wakes it), and flipping the policy mid-flight
/// reaches already-running ring workers.
#[test]
fn park_only_ring_progresses_via_doorbell() {
    watchdog(60);
    let rt = Runtime::new(1);
    rt.set_spin_policy(SpinPolicy::ParkOnly);
    let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring();
    let mut out = Vec::new();
    for round in 0..20u64 {
        for i in 0..8u64 {
            ring.submit(ep, [round * 8 + i; 8], round * 8 + i).unwrap();
        }
        // One doorbell per batch of 8 — the amortization under test.
        ring.drain(&mut out);
    }
    assert_eq!(out.len(), 160);
    assert!(out.iter().enumerate().all(|(i, c)| c.user == i as u64));
    rt.set_spin_policy(SpinPolicy::Adaptive);
    ring.submit(ep, [0; 8], 999).unwrap();
    ring.drain(&mut out);
    assert_eq!(out.last().unwrap().user, 999);
}

/// Dropping a ring with unreaped completions and queued submissions
/// shuts down cleanly: the worker finishes the queue before exiting and
/// nothing leaks (the staged pool buffers recycle on the Drop path).
#[test]
fn drop_with_queued_work_shuts_down_cleanly() {
    watchdog(60);
    let rt = Runtime::new(1);
    let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring();
    for i in 0..8u64 {
        ring.submit_payload(ep, [i; 8], i, &[i as u8; 64]).unwrap();
    }
    // No doorbell, no reap: drop must still terminate the worker.
    drop(ring);
    // The runtime is intact; a fresh ring on the same vCPU serves.
    let mut ring = client.ring();
    ring.submit(ep, [1; 8], 1).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out);
    assert_eq!(out[0].result, Ok([1; 8]));
}
