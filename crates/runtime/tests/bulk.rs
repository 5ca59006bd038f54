//! Integration tests of the bulk-data payload plane: grant-backed
//! regions, `call_bulk`, the copy engine, buffer-pool recycling, and the
//! grant/revoke revocation guarantee under concurrency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppc_rt::{BulkDesc, EntryOptions, Runtime, RtError, SpinPolicy};

/// Abort the process if the whole test binary wedges (the race tests
/// would otherwise hang `cargo test` forever on a rendezvous bug). The
/// thread dies with the process on a normal exit.
fn watchdog(secs: u64) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(secs));
        eprintln!("bulk test watchdog fired after {secs}s");
        std::process::abort();
    });
}

#[test]
fn zero_copy_roundtrip_in_place() {
    let rt = Runtime::new(1);
    // The server uppercases the granted span in place — no payload bytes
    // ever cross a mailbox or a scratch page.
    let ep = rt
        .bind(
            "upper",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().expect("descriptor in args[7]");
                let n = ctx
                    .with_bulk_mut(desc, |bytes| {
                        for b in bytes.iter_mut() {
                            b.make_ascii_uppercase();
                        }
                        bytes.len()
                    })
                    .expect("granted access");
                [0, n as u64, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 7);

    let region = client.bulk_register(64 << 10).unwrap();
    let payload = vec![b'x'; 64 << 10];
    region.fill(0, &payload).unwrap();
    region.grant(ep, true).unwrap();

    let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!(rets[1] as usize, 64 << 10);

    let mut out = vec![0u8; 64 << 10];
    region.read_into(0, &mut out).unwrap();
    assert!(out.iter().all(|b| *b == b'X'));

    let snap = rt.stats.snapshot();
    assert_eq!(snap.bulk_calls, 1);
    assert_eq!(snap.bulk_denied, 0);
    // In-place access moves no bytes through the copy engine; the owner
    // fill/drain moved 2 × 64 KiB.
    assert_eq!(snap.bulk_bytes, 0);
}

#[test]
fn copy_from_copy_to_and_exchange() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "sum-and-stamp",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                // CopyFrom into server memory, compute, CopyTo the result
                // back — the paper's two-request bulk pattern in one call.
                let mut buf = vec![0u8; desc.len as usize];
                let n = ctx.copy_from(desc, &mut buf).unwrap();
                let sum: u64 = buf.iter().map(|b| *b as u64).sum();
                buf.iter_mut().for_each(|b| *b = b.wrapping_add(1));
                let wrote = ctx.copy_to(desc, &buf).unwrap();
                [sum, n as u64, wrote as u64, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 3);
    let region = client.bulk_register(4096).unwrap();
    region.fill(0, &[5u8; 4096]).unwrap();
    region.grant(ep, true).unwrap();

    let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!(rets[0], 5 * 4096);
    assert_eq!(rets[1], 4096);
    assert_eq!(rets[2], 4096);
    let mut out = [0u8; 4096];
    region.read_into(0, &mut out).unwrap();
    assert!(out.iter().all(|b| *b == 6));
    // copy_from + copy_to moved 8 KiB through the engine.
    assert_eq!(rt.stats.bulk_bytes(), 2 * 4096);

    // Exchange: server swaps its buffer with the span.
    let xep = rt
        .bind(
            "swap",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let mut mine = vec![9u8; desc.len as usize];
                let n = ctx.exchange_bulk(desc, &mut mine).unwrap();
                // The server now holds the client's old bytes.
                [mine[0] as u64, n as u64, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    region.grant(xep, true).unwrap();
    let rets = client.call_bulk(xep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!(rets[0], 6, "server received the client's bytes");
    region.read_into(0, &mut out).unwrap();
    assert!(out.iter().all(|b| *b == 9), "client received the server's bytes");
}

#[test]
fn authorization_is_enforced() {
    let rt = Runtime::new(1);
    let denied = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&denied);
    let ep = rt
        .bind(
            "prober",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let mut buf = vec![0u8; 16];
                let read_ok = ctx.copy_from(desc, &mut buf).is_ok();
                let write_ok = ctx.copy_to(desc, &buf).is_ok();
                if !read_ok || !write_ok {
                    d2.fetch_add(1, Ordering::Relaxed);
                }
                [read_ok as u64, write_ok as u64, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 11);
    let region = client.bulk_register(256).unwrap();

    // No grant: both directions denied.
    let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!((rets[0], rets[1]), (0, 0));

    // Read-only grant: reads pass, writes denied.
    region.grant(ep, false).unwrap();
    let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!((rets[0], rets[1]), (1, 0));

    // Write grant but a read-only *descriptor*: the descriptor caps it.
    region.grant(ep, true).unwrap();
    let rets = client.call_bulk(ep, [0; 8], region.full_desc(false)).unwrap();
    assert_eq!((rets[0], rets[1]), (1, 0));

    // Full grant + writable descriptor: both pass.
    let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!((rets[0], rets[1]), (1, 1));

    // A different program's client cannot pass off the owner's region as
    // its own: the granter check fails.
    let imposter = rt.client(0, 999);
    let rets = imposter.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!((rets[0], rets[1]), (0, 0));

    assert!(rt.stats.bulk_denied() >= denied.load(Ordering::Relaxed));
}

#[test]
fn bounds_and_descriptor_validation() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "bounds",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let mut sink = vec![0u8; 2 << 20];
                match ctx.copy_from(desc, &mut sink) {
                    Ok(n) => [1, n as u64, 0, 0, 0, 0, 0, 0],
                    Err(RtError::BadBulk) => [2, 0, 0, 0, 0, 0, 0, 0],
                    Err(_) => [3, 0, 0, 0, 0, 0, 0, 0],
                }
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let region = client.bulk_register(1024).unwrap();
    region.grant(ep, false).unwrap();

    // Zero-length at the exact end of the region: legal, copies nothing.
    let rets = client.call_bulk(ep, [0; 8], region.desc(1024, 0, false)).unwrap();
    assert_eq!((rets[0], rets[1]), (1, 0));
    // One byte past the end: BadBulk, not a wrap or a panic.
    let rets = client.call_bulk(ep, [0; 8], region.desc(1024, 1, false)).unwrap();
    assert_eq!(rets[0], 2);
    // offset+len saturating the 24-bit fields: BadBulk.
    let rets = client
        .call_bulk(ep, [0; 8], region.desc((1 << 24) - 1, (1 << 24) - 1, false))
        .unwrap();
    assert_eq!(rets[0], 2);
    // An unknown region id: BadBulk.
    let forged = BulkDesc::read(region.id() + 1, 0, 16);
    let rets = client.call_bulk(ep, [0; 8], forged).unwrap();
    assert_eq!(rets[0], 2);

    // Oversized registration is refused up front.
    assert_eq!(client.bulk_register((1 << 20) + 1).err(), Some(RtError::BadBulk));

    // A descriptor whose fields exceed the one-word bit budget cannot be
    // transmitted faithfully: rejected before dispatch, never silently
    // truncated to a smaller span.
    assert_eq!(
        client.call_bulk(ep, [0; 8], region.desc(1 << 24, 16, false)).err(),
        Some(RtError::BadBulk)
    );
    assert_eq!(
        client.call_bulk(ep, [0; 8], region.desc(0, 1 << 24, false)).err(),
        Some(RtError::BadBulk)
    );
}

#[test]
fn buffers_recycle_through_the_pool() {
    let rt = Runtime::new(1);
    let client = rt.client(0, 1);
    {
        let r = client.bulk_register(16 << 10).unwrap();
        r.fill(0, &[1; 128]).unwrap();
    } // dropped: buffer back to the pool
    let before = rt.stats.snapshot();
    for _ in 0..32 {
        let r = client.bulk_register(16 << 10).unwrap();
        r.fill(0, &[2; 128]).unwrap();
    }
    let delta = rt.stats.snapshot().since(&before);
    assert_eq!(delta.bulk_pool_hits, 32, "every re-registration reused the pooled buffer");
    assert_eq!(delta.bulk_pool_misses, 0);
}

/// A buffer recycled through the vCPU pool must never surface one
/// program's payload bytes inside another program's freshly registered
/// region — the grant model's boundary applies to leftovers too.
#[test]
fn recycled_buffers_do_not_leak_across_programs() {
    let rt = Runtime::new(1);
    let alice = rt.client(0, 100);
    let bob = rt.client(0, 200);
    {
        let secret = alice.bulk_register(4096).unwrap();
        secret.fill(0, &[0xA5; 4096]).unwrap();
    } // dropped: Alice's bytes ride back to the pool
    let before = rt.stats.snapshot();
    let probe = bob.bulk_register(4096).unwrap();
    // Bob really did get the recycled buffer, and it is scrubbed.
    assert_eq!(rt.stats.snapshot().since(&before).bulk_pool_hits, 1);
    probe
        .with_bytes(|bytes| assert!(bytes.iter().all(|b| *b == 0), "leaked payload bytes"))
        .unwrap();
    drop(probe);
    // Same-program recycling keeps its own leftovers (the paper's
    // serially-shared caveat, scoped to one program).
    let again = bob.bulk_register(4096).unwrap();
    let mut out = [0u8; 16];
    again.read_into(0, &mut out).unwrap();
    assert!(out.iter().all(|b| *b == 0));
}

/// Regression for the aliasing-`&mut` soundness hole: the owner's
/// in-place access (`with_bytes`) and a handler's `with_bulk_mut` on a
/// worker thread (reachable via `call_async`) must be mutually
/// exclusive, never two live `&mut [u8]` over the same bytes.
#[test]
fn owner_and_server_in_place_writes_exclude_each_other() {
    watchdog(120);
    let rt = Runtime::new(1);
    let writer_live = Arc::new(AtomicBool::new(false));
    let wl = Arc::clone(&writer_live);
    let ep = rt
        .bind(
            "mutator",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let ok = ctx
                    .with_bulk_mut(desc, |bytes| {
                        assert!(
                            !wl.swap(true, Ordering::SeqCst),
                            "two in-place write accesses overlapped"
                        );
                        for b in bytes.iter_mut() {
                            *b = b.wrapping_add(1);
                        }
                        wl.store(false, Ordering::SeqCst);
                    })
                    .is_ok();
                [ok as u64, 0, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let region = client.bulk_register(4096).unwrap();
    region.grant(ep, true).unwrap();
    let mut args = [0u64; 8];
    args[7] = region.full_desc(true).encode().unwrap();

    for _ in 0..20 {
        let pending: Vec<_> =
            (0..8).map(|_| client.call_async(ep, args).unwrap()).collect();
        // Owner-side in-place writes race the async handlers.
        for _ in 0..8 {
            region
                .with_bytes(|bytes| {
                    assert!(
                        !writer_live.swap(true, Ordering::SeqCst),
                        "owner write overlapped a server write"
                    );
                    for b in bytes.iter_mut() {
                        *b = b.wrapping_sub(1);
                    }
                    writer_live.store(false, Ordering::SeqCst);
                })
                .unwrap();
        }
        for p in pending {
            p.wait();
        }
    }
}

/// Reentrant bulk operations from inside an in-place closure report
/// [`RtError::BulkReentrant`] instead of deadlocking the slot.
#[test]
fn reentrant_bulk_access_errors_cleanly() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "reentrant",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let mut nested = [0u64; 2];
                ctx.with_bulk_mut(desc, |_| {
                    // Both directions conflict with the write access we
                    // already hold on this region.
                    nested[0] = matches!(
                        ctx.copy_to(desc, &[1, 2, 3]),
                        Err(RtError::BulkReentrant(_))
                    ) as u64;
                    nested[1] = matches!(
                        ctx.with_bulk(desc, |_| ()),
                        Err(RtError::BulkReentrant(_))
                    ) as u64;
                })
                .unwrap();
                [nested[0], nested[1], 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let region = client.bulk_register(256).unwrap();
    region.grant(ep, true).unwrap();
    let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
    assert_eq!((rets[0], rets[1]), (1, 1), "nested accesses must error, not deadlock");
}

#[test]
fn region_table_exhaustion_reports_full() {
    let rt = Runtime::new(1);
    let client = rt.client(0, 1);
    let mut held = Vec::new();
    for _ in 0..ppc_rt::MAX_REGIONS {
        held.push(client.bulk_register(64).unwrap());
    }
    assert_eq!(client.bulk_register(64).err(), Some(RtError::TableFull));
    held.pop();
    assert!(client.bulk_register(64).is_ok());
}

#[test]
fn call_bulk_works_across_dispatch_modes() {
    // The descriptor rides the ordinary arg frame, so inline,
    // spin-then-park, and park-only dispatch all carry it unchanged.
    for (inline_ok, policy) in [
        (true, SpinPolicy::Adaptive),
        (false, SpinPolicy::Adaptive),
        (false, SpinPolicy::ParkOnly),
    ] {
        let rt = Runtime::new(1);
        rt.set_spin_policy(policy);
        let ep = rt
            .bind(
                "negate",
                EntryOptions { inline_ok, ..Default::default() },
                Arc::new(|ctx| {
                    let desc = ctx.bulk_desc().unwrap();
                    let n = ctx
                        .with_bulk_mut(desc, |bytes| {
                            bytes.iter_mut().for_each(|b| *b = !*b);
                            bytes.len()
                        })
                        .unwrap();
                    [n as u64, 0, 0, 0, 0, 0, 0, 0]
                }),
            )
            .unwrap();
        let client = rt.client(0, 5);
        let region = client.bulk_register(4096).unwrap();
        region.fill(0, &[0xF0; 4096]).unwrap();
        region.grant(ep, true).unwrap();
        let rets = client.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
        assert_eq!(rets[0], 4096);
        let mut out = [0u8; 4096];
        region.read_into(0, &mut out).unwrap();
        assert!(out.iter().all(|b| *b == 0x0F), "inline={inline_ok} policy={policy:?}");
    }
}

/// The revocation guarantee (satellite): one thread revokes a grant while
/// others stream bulk copies. Once the revoker observes its revoke
/// complete, **no** copy may succeed — the registry drains in-flight
/// transfers before the revoke returns, and later transfers fail the
/// grant check.
#[test]
fn revoke_vs_streaming_copies_race() {
    watchdog(120);
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "streamer",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let src = vec![0xAB; desc.len as usize];
                match ctx.copy_to(desc, &src) {
                    Ok(n) => [1, n as u64, 0, 0, 0, 0, 0, 0],
                    Err(_) => [0; 8],
                }
            }),
        )
        .unwrap();

    for round in 0..20 {
        let client = rt.client(0, 42);
        let region = Arc::new(client.bulk_register(8 << 10).unwrap());
        region.grant(ep, true).unwrap();

        let revoked = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let successes = Arc::new(AtomicU64::new(0));

        let streamers: Vec<_> = (0..2)
            .map(|_| {
                let c = client.clone();
                let region = Arc::clone(&region);
                let revoked = Arc::clone(&revoked);
                let stop = Arc::clone(&stop);
                let violations = Arc::clone(&violations);
                let successes = Arc::clone(&successes);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        // Sample the flag BEFORE dispatching: if the
                        // revoke had already returned, this copy must
                        // not succeed.
                        let was_revoked = revoked.load(Ordering::SeqCst);
                        let rets = c.call_bulk(ep, [0; 8], region.full_desc(true)).unwrap();
                        if rets[0] == 1 {
                            successes.fetch_add(1, Ordering::Relaxed);
                            if was_revoked {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();

        // Let copies flow — wait (under the watchdog) until a streamer
        // has actually been scheduled and copied — then revoke
        // mid-stream.
        while successes.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        region.revoke(ep).unwrap();
        revoked.store(true, Ordering::SeqCst);
        // Keep streaming a moment against the revoked grant.
        std::thread::sleep(Duration::from_millis(2));
        stop.store(true, Ordering::Release);
        for s in streamers {
            s.join().unwrap();
        }
        assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "round {round}: a copy succeeded after its revoke was observed"
        );
        // Sanity: the pre-revoke window actually exercised the grant.
        assert!(successes.load(Ordering::Relaxed) > 0, "round {round}: no copy ever succeeded");
    }
}

/// Unregister during streaming: dropping the region drains in-flight
/// transfers, recycles the buffer, and later calls fail cleanly.
#[test]
fn unregister_vs_streaming_copies_race() {
    watchdog(120);
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "reader",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().unwrap();
                let ok = ctx.with_bulk(desc, |bytes| bytes.iter().map(|b| *b as u64).sum::<u64>());
                match ok {
                    Ok(sum) => [1, sum, 0, 0, 0, 0, 0, 0],
                    Err(_) => [0; 8],
                }
            }),
        )
        .unwrap();
    for _ in 0..20 {
        let client = rt.client(0, 9);
        let region = client.bulk_register(4096).unwrap();
        region.fill(0, &[1; 4096]).unwrap();
        region.grant(ep, false).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(AtomicU64::new(0));
        let c = client.clone();
        let desc = region.full_desc(false);
        let stop2 = Arc::clone(&stop);
        let seen2 = Arc::clone(&seen);
        let t = std::thread::spawn(move || {
            let mut good = 0u64;
            while !stop2.load(Ordering::Acquire) {
                let rets = c.call_bulk(ep, [0; 8], desc).unwrap();
                if rets[0] == 1 {
                    assert_eq!(rets[1], 4096, "torn read of a live region");
                    good += 1;
                    seen2.store(good, Ordering::Release);
                }
            }
            good
        });
        // Wait until the stream has actually observed the live region
        // before unregistering — a fixed sleep loses to a loaded
        // single-core scheduler (the watchdog bounds this loop).
        while seen.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(1));
        drop(region); // unregister mid-stream
        std::thread::sleep(Duration::from_millis(1));
        stop.store(true, Ordering::Release);
        let good = t.join().unwrap();
        assert!(good > 0, "stream never observed the live region");
    }
}
