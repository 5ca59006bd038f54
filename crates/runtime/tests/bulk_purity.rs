//! Purity of the warm `call_bulk` path: the ISSUE-2 acceptance gate that
//! a warmed bulk call performs **no allocations** and stays off every
//! slow path (no lock acquisitions by construction — the fast path is
//! lock-free pools + lock-free registry reads + `Relaxed` sharded
//! counters; the stats deltas below pin that no cold path was entered).
//!
//! The allocation half is proved directly: a counting `#[global_allocator]`
//! wraps `System`, armed only around the measured loop. This test binary
//! holds exactly one `#[test]` so no sibling test's allocations bleed
//! into the armed window, and arms the counter only once every other
//! thread sleeps: `bind` spawns the inline entry's worker too, and a
//! thread's start-up allocates on whichever core first runs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ppc_rt::{EntryOptions, Runtime};

mod settle;

/// `System`, plus a counter armed around the measured region.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_call_bulk_allocates_nothing_and_stays_on_the_fast_path() {
    let rt = Runtime::new(1);
    // Inline dispatch: the handler runs on the caller's thread — the
    // paper's same-processor fast path, and the mode `call_bulk` is
    // expected to ride in the common case.
    let inline_ep = rt
        .bind(
            "bulk-inline",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let n = ctx
                    .with_bulk_mut(desc, |bytes| {
                        // Touch one byte per cache line: real work, no
                        // allocation.
                        for i in (0..bytes.len()).step_by(64) {
                            bytes[i] = bytes[i].wrapping_add(1);
                        }
                        bytes.len()
                    })
                    .unwrap();
                [n as u64, 0, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    // Hand-off dispatch: same handler through the spin rendezvous — the
    // worker side must be allocation-free too once warm.
    let handoff_ep = rt
        .bind(
            "bulk-handoff",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let n = ctx.with_bulk(desc, |bytes| bytes.len()).unwrap();
                [n as u64, 0, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();

    let client = rt.client(0, 1);
    let region = client.bulk_register(4096).unwrap();
    region.fill(0, &[7u8; 4096]).unwrap();
    region.grant(inline_ep, true).unwrap();
    region.grant(handoff_ep, false).unwrap();

    // Warm both paths: worker spawned, CD pooled, pool buffer resident.
    for _ in 0..10 {
        assert_eq!(client.call_bulk(inline_ep, [0; 8], region.full_desc(true)).unwrap()[0], 4096);
        assert_eq!(client.call_bulk(handoff_ep, [0; 8], region.full_desc(false)).unwrap()[0], 4096);
    }

    settle::others_asleep();
    let warm = rt.stats.snapshot();
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..500u64 {
        client.call_bulk(inline_ep, [0; 8], region.full_desc(true)).unwrap();
        client.call_bulk(handoff_ep, [0; 8], region.full_desc(false)).unwrap();
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let delta = rt.stats.snapshot().since(&warm);

    assert_eq!(allocs, 0, "warm call_bulk allocated {allocs} times in 1000 calls");
    assert_eq!(delta.bulk_calls, 1000);
    assert_eq!(delta.calls, 1000);
    assert_eq!(delta.inline_calls, 500);
    assert_eq!(delta.bulk_denied, 0);
    assert_eq!(delta.bulk_pool_misses, 0, "warm path re-entered the buffer allocator");
    assert_eq!(delta.frank_redirects, 0, "warm path hit the Frank slow path");
    assert_eq!(delta.workers_created, 0);
    assert_eq!(delta.cds_created, 0);
}
