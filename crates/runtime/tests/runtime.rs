//! End-to-end tests of the real-threads PPC runtime: every §4 feature of
//! the paper exercised against real threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ppc_rt::{EntryOptions, ProgramId, RtError, Runtime};

fn echo_rt(n: usize) -> (Arc<Runtime>, usize) {
    let rt = Runtime::new(n);
    let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|ctx| ctx.args)).unwrap();
    (rt, ep)
}

#[test]
fn sync_roundtrip_returns_all_eight_words() {
    let (rt, ep) = echo_rt(1);
    let c = rt.client(0, 1);
    let args = [11, 22, 33, 44, 55, 66, 77, 88];
    assert_eq!(c.call(ep, args).unwrap(), args);
}

#[test]
fn many_sequential_calls_reuse_one_worker() {
    let (rt, ep) = echo_rt(1);
    let c = rt.client(0, 1);
    for i in 0..200u64 {
        assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
    }
    // One pre-spawned worker handles everything: no Frank growth.
    assert_eq!(rt.stats.workers_created(), 0);
    assert_eq!(rt.stats.calls(), 200);
}

#[test]
fn caller_program_reaches_handler() {
    let rt = Runtime::new(1);
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let ep = rt
        .bind(
            "whoami",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                seen2.store(ctx.caller_program as u64, Ordering::SeqCst);
                [ctx.caller_program as u64; 8]
            }),
        )
        .unwrap();
    let c = rt.client(0, 4242);
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 4242);
    assert_eq!(seen.load(Ordering::SeqCst), 4242);
}

#[test]
fn scratch_page_is_usable_and_recycled() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "scratch",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let args = ctx.args;
                let s = ctx.scratch();
                // Leave a marker; read back whatever a previous call left.
                let prev = u64::from_le_bytes(s[..8].try_into().unwrap());
                s[..8].copy_from_slice(&args[0].to_le_bytes());
                [prev, args[0], 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [7; 8]).unwrap()[0], 0, "fresh scratch is zeroed");
    // The slot (and its scratch) is recycled from the per-vCPU pool.
    assert_eq!(c.call(ep, [9; 8]).unwrap()[0], 7, "serially shared stack");
}

#[test]
fn async_call_completes_and_caller_continues() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "slowish",
            EntryOptions::default(),
            Arc::new(|ctx| {
                std::thread::sleep(Duration::from_millis(5));
                [ctx.args[0] + 1; 8]
            }),
        )
        .unwrap();
    let c = rt.client(0, 1);
    let pending = c.call_async(ep, [41; 8]).unwrap();
    // We got control back before completion (the worker sleeps 5ms).
    let done_immediately = pending.is_done();
    let rets = pending.wait();
    assert_eq!(rets, [42; 8]);
    assert!(!done_immediately || rets == [42; 8]);
    assert_eq!(rt.stats.async_calls(), 1);
}

#[test]
fn upcall_has_no_caller_program() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "handler",
            EntryOptions::default(),
            Arc::new(|ctx| [ctx.caller_program as u64, ctx.args[0], 0, 0, 0, 0, 0, 0]),
        )
        .unwrap();
    let up = rt.upcall(0, ep, [5; 8]).unwrap();
    let rets = up.wait();
    assert_eq!(rets[0], 0, "upcalls carry program 0");
    assert_eq!(rets[1], 5);
    assert_eq!(rt.stats.upcalls(), 1);
}

#[test]
fn burst_grows_worker_pool_frank_style() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "slow",
            EntryOptions::default(),
            Arc::new(|ctx| {
                std::thread::sleep(Duration::from_millis(20));
                ctx.args
            }),
        )
        .unwrap();
    let c = rt.client(0, 1);
    // Three overlapping async calls against one pre-spawned worker: the
    // pool must grow (dynamic worker creation).
    let a = c.call_async(ep, [1; 8]).unwrap();
    let b = c.call_async(ep, [2; 8]).unwrap();
    let d = c.call_async(ep, [3; 8]).unwrap();
    assert_eq!(a.wait()[0], 1);
    assert_eq!(b.wait()[0], 2);
    assert_eq!(d.wait()[0], 3);
    assert!(rt.stats.workers_created() >= 2);
    assert!(rt.stats.frank_redirects() >= 2);
}

#[test]
fn concurrent_clients_on_distinct_vcpus() {
    let rt = Runtime::new(4);
    let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let mut handles = Vec::new();
    for v in 0..4 {
        let c = rt.client(v, v as ProgramId + 1);
        handles.push(std::thread::spawn(move || {
            for i in 0..100u64 {
                assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(rt.stats.calls(), 400);
}

#[test]
fn soft_kill_rejects_new_calls_then_drains() {
    let rt = Runtime::new(1);
    let ep = rt.bind("victim", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let c = rt.client(0, 9);
    c.call(ep, [1; 8]).unwrap();
    rt.soft_kill(ep, 0).unwrap();
    assert_eq!(c.call(ep, [2; 8]), Err(RtError::EntryDead(ep)));
    rt.wait_drained(ep).unwrap();
    assert_eq!(c.call(ep, [3; 8]), Err(RtError::EntryDead(ep)));
    // Double kill reports dead.
    assert_eq!(rt.soft_kill(ep, 0), Err(RtError::EntryDead(ep)));
}

#[test]
fn hard_kill_aborts_in_flight_call() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "doomed",
            EntryOptions::default(),
            Arc::new(|ctx| {
                std::thread::sleep(Duration::from_millis(30));
                ctx.args
            }),
        )
        .unwrap();
    let c = rt.client(0, 9);
    let rt2 = Arc::clone(&rt);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        rt2.hard_kill(ep, 0).unwrap();
    });
    let r = c.call(ep, [1; 8]);
    killer.join().unwrap();
    assert_eq!(r, Err(RtError::Aborted(ep)));
}

#[test]
fn reclaim_allows_rebinding_at_same_id() {
    let rt = Runtime::new(1);
    let opts = EntryOptions { want_ep: Some(37), ..Default::default() };
    let ep = rt.bind("first", opts, Arc::new(|_| [1; 8])).unwrap();
    assert_eq!(ep, 37);
    // The slot is taken while live.
    assert_eq!(
        rt.bind("second", EntryOptions { want_ep: Some(37), ..Default::default() }, Arc::new(|_| [2; 8])),
        Err(RtError::TableFull)
    );
    rt.hard_kill(ep, 0).unwrap();
    rt.reclaim_slot(ep, 0).unwrap();
    let ep2 = rt
        .bind("second", EntryOptions { want_ep: Some(37), ..Default::default() }, Arc::new(|_| [2; 8]))
        .unwrap();
    assert_eq!(ep2, 37);
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep2, [0; 8]).unwrap()[0], 2);
}

#[test]
fn exchange_swaps_handler_online() {
    let rt = Runtime::new(1);
    let ep = rt.bind("svc", EntryOptions::default(), Arc::new(|_| [1; 8])).unwrap();
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 1);
    rt.exchange(ep, Arc::new(|_| [2; 8]), 0).unwrap();
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 2);
}

#[test]
fn ownership_enforced_for_kills() {
    let rt = Runtime::new(1);
    let opts = EntryOptions { owner: 5, ..Default::default() };
    let ep = rt.bind("owned", opts, Arc::new(|c| c.args)).unwrap();
    assert_eq!(rt.soft_kill(ep, 6), Err(RtError::NotOwner));
    assert_eq!(rt.hard_kill(ep, 6), Err(RtError::NotOwner));
    rt.soft_kill(ep, 5).unwrap();
}

#[test]
fn worker_initialization_self_replaces_handler() {
    // §4.5.3: the first call enters the initialization routine, which
    // changes the worker's own call-handling routine.
    let rt = Runtime::new(1);
    let init_runs = Arc::new(AtomicU64::new(0));
    let init_runs2 = Arc::clone(&init_runs);
    let ep = rt
        .bind(
            "lazy",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                // One-time initialization...
                init_runs2.fetch_add(1, Ordering::SeqCst);
                // ...then swap in the steady-state handler for this worker.
                ctx.set_worker_handler(Arc::new(|ctx| [ctx.args[0] + 100; 8]));
                [ctx.args[0] + 1000; 8]
            }),
        )
        .unwrap();
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [1; 8]).unwrap()[0], 1001, "first call runs init");
    assert_eq!(c.call(ep, [2; 8]).unwrap()[0], 102, "subsequent calls use the new routine");
    assert_eq!(c.call(ep, [3; 8]).unwrap()[0], 103);
    assert_eq!(init_runs.load(Ordering::SeqCst), 1);
}

/// A worker keeps its own copy of its override; an exchange must still
/// reach it. The first exchange lands right after the init call that
/// installed the override (the worker has not run it yet), the second
/// after the worker already ran its copy. The next call runs new code
/// both times.
#[test]
fn exchange_right_after_self_replacement_runs_new_code() {
    fn self_replacing(first: u64, then: u64) -> ppc_rt::Handler {
        Arc::new(move |ctx| {
            ctx.set_worker_handler(Arc::new(move |_| [then; 8]));
            [first; 8]
        })
    }
    let rt = Runtime::new(1);
    let ep = rt.bind("init", EntryOptions::default(), self_replacing(1, 2)).unwrap();
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 1, "init runs");
    rt.exchange(ep, self_replacing(3, 4), 0).unwrap();
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 3, "the exchanged code, not the old override");
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 4, "its own override");
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 4, "the worker's copy of it");
    rt.exchange(ep, Arc::new(|_| [5; 8]), 0).unwrap();
    assert_eq!(c.call(ep, [0; 8]).unwrap()[0], 5, "the copy is gone with the exchange");
    assert_eq!(rt.stats.workers_created(), 0, "one worker served every call");
}

#[test]
fn shrink_reaps_surplus_workers() {
    let rt = Runtime::new(1);
    let opts = EntryOptions { initial_workers: 4, ..Default::default() };
    let ep = rt.bind("wide", opts, Arc::new(|c| c.args)).unwrap();
    let reaped = rt.shrink_workers(ep, 0, 1).unwrap();
    assert_eq!(reaped, 3);
    // Still functional with the remaining worker.
    let c = rt.client(0, 1);
    assert_eq!(c.call(ep, [5; 8]).unwrap(), [5; 8]);
}

/// A synchronous caller pools the worker it popped. Two threads calling
/// on one vCPU hold at most two workers between them, so the pool grows
/// by at most one beyond the pre-spawned one, and every worker is back in
/// it when the callers are done.
#[test]
fn callers_return_the_workers_they_pop() {
    let rt = Runtime::new(1);
    let runs = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&runs);
    let handler = Arc::new(move |c: &mut ppc_rt::CallCtx<'_>| {
        counted.fetch_add(1, Ordering::Relaxed);
        c.args
    });
    let ep = rt.bind("shared", EntryOptions::default(), handler).unwrap();
    std::thread::scope(|s| {
        for t in 0..2 {
            let c = rt.client(0, t + 1);
            s.spawn(move || (0..5_000).for_each(|i| assert_eq!(c.call(ep, [i; 8]), Ok([i; 8]))));
        }
    });
    let created = rt.stats.workers_created();
    assert!(created <= 1, "two callers never need a third worker: {created} grown");
    assert_eq!(rt.idle_workers(ep).unwrap() as u64, 1 + created, "all pooled at rest");
    assert_eq!(runs.load(Ordering::Relaxed), 10_000);
}

#[test]
fn distinct_services_do_not_interfere() {
    let rt = Runtime::new(2);
    let add = rt.bind("add", EntryOptions::default(), Arc::new(|c| [c.args[0] + c.args[1]; 8])).unwrap();
    let mul = rt.bind("mul", EntryOptions::default(), Arc::new(|c| [c.args[0] * c.args[1]; 8])).unwrap();
    let c0 = rt.client(0, 1);
    let c1 = rt.client(1, 2);
    assert_eq!(c0.call(add, [3, 4, 0, 0, 0, 0, 0, 0]).unwrap()[0], 7);
    assert_eq!(c1.call(mul, [3, 4, 0, 0, 0, 0, 0, 0]).unwrap()[0], 12);
    assert_eq!(rt.ns_lookup("add"), Some(add));
    assert_eq!(rt.ns_lookup("mul"), Some(mul));
}

#[test]
fn nested_call_from_handler() {
    let rt = Runtime::new(1);
    let inner = rt.bind("inner", EntryOptions::default(), Arc::new(|c| [c.args[0] * 2; 8])).unwrap();
    let rt2 = Arc::clone(&rt);
    let outer = rt
        .bind(
            "outer",
            EntryOptions::default(),
            Arc::new(move |ctx| {
                let c = rt2.client(ctx.vcpu, 999);
                let r = c.call(inner, [ctx.args[0] + 1; 8]).unwrap();
                [r[0] + 5; 8]
            }),
        )
        .unwrap();
    let c = rt.client(0, 1);
    // (10 + 1) * 2 + 5 = 27
    assert_eq!(c.call(outer, [10; 8]).unwrap()[0], 27);
}

#[test]
fn panicking_handler_is_isolated_like_a_message_failure() {
    // §2: the paper chose worker processes so failure modes "more closely
    // follow those of a message exchange". A handler that panics must not
    // hang the client, kill the worker pool, or affect other services.
    let rt = Runtime::new(1);
    let bomb = rt
        .bind(
            "bomb",
            EntryOptions::default(),
            Arc::new(|ctx| {
                if ctx.args[0] == 13 {
                    panic!("injected server fault");
                }
                [ctx.args[0] + 1; 8]
            }),
        )
        .unwrap();
    let echo = rt.bind("echo", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);

    assert_eq!(client.call(bomb, [1; 8]).unwrap()[0], 2, "healthy call works");
    assert_eq!(client.call(bomb, [13; 8]), Err(RtError::ServerFault(bomb)));
    // The same service keeps serving afterwards; the fault consumed no pool.
    assert_eq!(client.call(bomb, [5; 8]).unwrap()[0], 6);
    assert_eq!(client.call(echo, [9; 8]).unwrap(), [9; 8], "other services untouched");
    assert_eq!(rt.stats.server_faults(), 1);
    // Repeated faults stay contained.
    for _ in 0..10 {
        assert_eq!(client.call(bomb, [13; 8]), Err(RtError::ServerFault(bomb)));
    }
    assert_eq!(client.call(bomb, [1; 8]).unwrap()[0], 2);
}

#[test]
fn payload_calls_round_trip_bulk_data() {
    // §4.2 analogue: a "file read" service that uppercases the request
    // payload in place and returns it.
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "upper",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let len = ctx.args[0] as usize;
                let s = ctx.scratch();
                for b in &mut s[..len] {
                    *b = b.to_ascii_uppercase();
                }
                [0, 0, 0, 0, 0, 0, 0, len as u64]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let req = b"hello, protected procedure calls".to_vec();
    let (rets, resp) = client
        .call_with_payload(ep, [req.len() as u64, 0, 0, 0, 0, 0, 0, 0], &req)
        .unwrap();
    assert_eq!(rets[7] as usize, req.len());
    assert_eq!(resp, b"HELLO, PROTECTED PROCEDURE CALLS");
    // A full-page payload works too.
    let big = vec![b'a'; ppc_rt::slot::SCRATCH_BYTES];
    let (rets, resp) =
        client.call_with_payload(ep, [big.len() as u64, 0, 0, 0, 0, 0, 0, 0], &big).unwrap();
    assert_eq!(rets[7] as usize, big.len());
    assert!(resp.iter().all(|b| *b == b'A'));
}

#[test]
#[should_panic(expected = "payload exceeds")]
fn oversized_payload_panics() {
    let rt = Runtime::new(1);
    let ep = rt.bind("x", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);
    let too_big = vec![0u8; ppc_rt::slot::SCRATCH_BYTES + 1];
    let _ = client.call_with_payload(ep, [0; 8], &too_big);
}

#[test]
fn runtime_drop_joins_all_workers() {
    // Regression guard: dropping the runtime must not hang or leak
    // threads that keep the test binary alive.
    for _ in 0..5 {
        let rt = Runtime::new(2);
        let ep = rt.bind("x", EntryOptions { initial_workers: 2, ..Default::default() }, Arc::new(|c| c.args)).unwrap();
        let c = rt.client(1, 1);
        c.call(ep, [1; 8]).unwrap();
        drop(rt);
    }
}

#[test]
fn table_full_with_want_ep_out_of_range() {
    let rt = Runtime::new(1);
    let opts = EntryOptions { want_ep: Some(ppc_rt::MAX_ENTRIES), ..Default::default() };
    assert_eq!(
        rt.bind("bad", opts, Arc::new(|c| c.args)),
        Err(RtError::UnknownEntry(ppc_rt::MAX_ENTRIES))
    );
}

// ---- hand-off fast path: inline dispatch, spin rendezvous, purity ----

#[test]
fn inline_entry_runs_on_caller_thread() {
    let rt = Runtime::new(1);
    let handler_thread = Arc::new(parking_lot::Mutex::new(None));
    let ht = Arc::clone(&handler_thread);
    let ep = rt
        .bind(
            "inline-echo",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                *ht.lock() = Some(std::thread::current().id());
                ctx.args
            }),
        )
        .unwrap();
    let c = rt.client(0, 9);
    assert_eq!(c.call(ep, [5; 8]).unwrap(), [5; 8]);
    // The handler ran on this very thread — no hand-off happened.
    assert_eq!(handler_thread.lock().unwrap(), std::thread::current().id());
    assert_eq!(rt.stats.inline_calls(), 1);
    assert_eq!(rt.stats.calls(), 1);
}

#[test]
fn inline_entry_supports_payload_and_faults() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "inline-upper",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| {
                let n = ctx.args[0] as usize;
                let scratch = ctx.scratch();
                for b in &mut scratch[..n] {
                    b.make_ascii_uppercase();
                }
                [0, 0, 0, 0, 0, 0, 0, n as u64]
            }),
        )
        .unwrap();
    let c = rt.client(0, 9);
    let (rets, resp) = c.call_with_payload(ep, [5, 0, 0, 0, 0, 0, 0, 0], b"hello").unwrap();
    assert_eq!(rets[7], 5);
    assert_eq!(resp, b"HELLO");

    let boom = rt
        .bind(
            "inline-boom",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|_| panic!("inline fault")),
        )
        .unwrap();
    assert_eq!(c.call(boom, [0; 8]), Err(RtError::ServerFault(boom)));
    assert_eq!(rt.stats.server_faults(), 1);
    // The fault is contained: the inline entry still serves.
    assert_eq!(c.call(ep, [0; 8]).unwrap()[7], 0);
}

/// The inline call's lean body repools the CD a payload-less handler
/// borrows through `scratch()`, on a fault too: after one warm call no
/// call creates a CD — a leaked one would show as a pool miss on the
/// next call — and a panic after the borrow is one counted server fault.
#[test]
fn inline_lazy_scratch_is_repooled_through_calls_and_faults() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "inline-scratch",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| {
                ctx.scratch()[0] = ctx.args[0] as u8;
                if ctx.args[1] == u64::MAX {
                    panic!("inline fault after borrowing scratch");
                }
                ctx.args
            }),
        )
        .unwrap();
    let c = rt.client(0, 1);
    c.call(ep, [0; 8]).unwrap(); // warm
    let warm = rt.stats.snapshot();
    for i in 0..1_000u64 {
        assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
    }
    assert_eq!(rt.stats.snapshot().since(&warm).cds_created, 0, "the lazy CD leaked");

    assert_eq!(c.call(ep, [1, u64::MAX, 0, 0, 0, 0, 0, 0]), Err(RtError::ServerFault(ep)));
    assert_eq!(rt.stats.server_faults(), 1);
    for i in 0..1_000u64 {
        assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
    }
    let delta = rt.stats.snapshot().since(&warm);
    assert_eq!(delta.cds_created, 0, "the faulted call's CD was not repooled");
    assert_eq!(delta.server_faults, 1);
    assert_eq!(delta.inline_calls, 2_000);
}

#[test]
fn async_to_inline_entry_still_hands_off() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "inline-echo",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|ctx| ctx.args),
        )
        .unwrap();
    let c = rt.client(0, 9);
    let pending = c.call_async(ep, [7; 8]).unwrap();
    assert_eq!(pending.wait(), [7; 8]);
    assert_eq!(rt.stats.async_calls(), 1);
    assert_eq!(rt.stats.inline_calls(), 0);
}

#[test]
fn warm_path_is_pure_fast_path() {
    // The acceptance gate for the hand-off rework: once warmed (the
    // bind-time worker and CD exist), a stream of sync calls must never
    // leave the fast path — no Frank redirections, no worker growth, no
    // CD growth. Combined with the fast path's construction (lock-free
    // pools, OnceLock unpark target, Relaxed sharded counters, Acquire
    // shutdown checks, vCPU-local epoch/lifecycle claims), this pins
    // "no Mutex/Condvar, no writes to another vCPU's cache lines"
    // behavior.
    let (rt, ep) = echo_rt(1);
    let c = rt.client(0, 1);
    c.call(ep, [0; 8]).unwrap(); // warm
    let warm = rt.stats.snapshot();
    for i in 0..500u64 {
        assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
    }
    let delta = rt.stats.snapshot().since(&warm);
    assert_eq!(delta.frank_redirects, 0, "warm path hit the Frank slow path");
    assert_eq!(delta.workers_created, 0);
    assert_eq!(delta.cds_created, 0);
    assert_eq!(delta.calls, 500);
    // Every hand-off rendezvous is accounted as exactly one spin or park.
    assert_eq!(delta.spin_waits + delta.park_waits, 500);
}

#[test]
fn spin_policy_roundtrip_and_modes_complete() {
    use ppc_rt::SpinPolicy;
    let (rt, ep) = echo_rt(1);
    assert_eq!(rt.spin_policy(), SpinPolicy::Adaptive);
    let c = rt.client(0, 1);
    for policy in [SpinPolicy::ParkOnly, SpinPolicy::Adaptive] {
        rt.set_spin_policy(policy);
        assert_eq!(rt.spin_policy(), policy);
        for i in 0..50u64 {
            assert_eq!(c.call(ep, [i; 8]).unwrap(), [i; 8]);
        }
    }
    // ParkOnly never spins a budget: a rendezvous that does not find
    // DONE already set goes straight to the bounded escalation
    // (timeslice donation), then either resolves in userspace
    // (spin_waits) or parks (park_waits). At least the cold first call
    // must have escalated; warm calls may find DONE immediately.
    assert!(rt.stats.spin_escalations() >= 1);
    // Every hand-off rendezvous still accounts as exactly one of the two.
    assert_eq!(rt.stats.spin_waits() + rt.stats.park_waits(), 100);
    assert_eq!(rt.stats.calls(), 100);
}
