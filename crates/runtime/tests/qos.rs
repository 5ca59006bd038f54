//! QoS-class isolation: the tail-latency campaign's correctness
//! surface.
//!
//! - Latency-lane SQEs overtake a queued Bulk backlog (at most one bulk
//!   handler ahead, the documented bound).
//! - A flooded Bulk entry cannot push a Latency entry's ring sojourn
//!   anywhere near the FIFO bound.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppc_rt::{EntryOptions, QosClass, RingOptions, Runtime};

/// Abort the process if a test wedges (ring bugs hang, not fail).
fn watchdog(secs: u64) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(secs));
        eprintln!("qos test watchdog fired after {secs}s");
        std::process::abort();
    });
}

/// Eight Bulk-class SQEs and one Latency-class SQE, submitted in that
/// order under a single doorbell: the worker's priority loop runs the
/// latency SQE with at most one bulk handler ahead of it, even though
/// it was last in submission order.
#[test]
fn latency_sqe_overtakes_bulk_backlog() {
    watchdog(60);
    let rt = Runtime::new(1);
    let order = Arc::new(Mutex::new(Vec::new()));
    let (o1, o2) = (Arc::clone(&order), Arc::clone(&order));
    let bulk_ep = rt
        .bind(
            "bulk",
            EntryOptions { qos: QosClass::Bulk, ..Default::default() },
            Arc::new(move |c| {
                o1.lock().unwrap().push(c.args[0]);
                c.args
            }),
        )
        .unwrap();
    let lat_ep = rt
        .bind(
            "lat",
            EntryOptions::default(),
            Arc::new(move |c| {
                o2.lock().unwrap().push(1000 + c.args[0]);
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring_with(RingOptions { sq_depth: 16, cq_depth: 16, credits: 16 });

    for i in 0..8 {
        ring.submit(bulk_ep, [i; 8], i).unwrap();
    }
    ring.submit(lat_ep, [0; 8], 100).unwrap();
    let mut out = Vec::new();
    ring.drain(&mut out); // one doorbell for all nine
    assert_eq!(out.len(), 9);

    let order = order.lock().unwrap();
    let pos = order.iter().position(|&x| x == 1000).unwrap();
    assert!(
        pos <= 1,
        "latency SQE executed behind at most one bulk handler, ran {pos}th: {order:?}"
    );
    // Reap serves the Latency lane first, whatever the execution order.
    assert_eq!(out[0].ep, lat_ep);
    assert_eq!(out[0].user, 100);
}

/// Sustained Bulk flood: with ~24 four-millisecond bulk handlers queued
/// at all times, a Latency-class SQE still completes within roughly one
/// bulk slice — an order of magnitude under the FIFO backlog bound
/// (24 × 4 ms ≈ 96 ms). This is the head-of-line-blocking guarantee the
/// two-lane transport exists for.
#[test]
fn bulk_flood_cannot_head_of_line_block_latency() {
    watchdog(120);
    let rt = Runtime::new(1);
    let bulk_ep = rt
        .bind(
            "flood",
            EntryOptions { qos: QosClass::Bulk, ..Default::default() },
            Arc::new(|c| {
                std::thread::sleep(Duration::from_millis(4));
                c.args
            }),
        )
        .unwrap();
    let lat_ep = rt.bind("probe", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring_with(RingOptions { sq_depth: 32, cq_depth: 32, credits: 32 });

    // Keep the bulk lane saturated; probe with a latency SQE each round.
    let mut out = Vec::new();
    let mut bulk_user = 0u64;
    let mut worst = Duration::ZERO;
    for _ in 0..12 {
        while ring.in_flight() < 25 {
            ring.submit(bulk_ep, [0; 8], bulk_user).unwrap();
            bulk_user += 1;
        }
        let t0 = Instant::now();
        ring.submit(lat_ep, [0; 8], u64::MAX).unwrap();
        ring.doorbell();
        'wait: loop {
            ring.reap(32, &mut out);
            for c in out.drain(..) {
                if c.ep == lat_ep {
                    break 'wait;
                }
            }
            std::hint::spin_loop();
        }
        worst = worst.max(t0.elapsed());
    }
    ring.drain(&mut out);
    assert!(
        worst < Duration::from_millis(40),
        "latency sojourn stayed near one bulk slice under flood, worst {worst:?} \
         (FIFO bound would be ~96 ms)"
    );
}

/// The default class is Latency: an entry that never opts in pays no
/// QoS tax and keeps the seed's fast-path behavior.
#[test]
fn default_class_is_latency() {
    assert_eq!(QosClass::default(), QosClass::Latency);
    assert_eq!(EntryOptions::default().qos, QosClass::Latency);
}
