//! The per-layer ledger of the traced run: what each `ppc-rt` module
//! costs by itself, next to what this kernel and CPU charge for the bare
//! primitive underneath it.
//!
//! Everything is measured from here, through the runtime's public API:
//! by timing calls into a layer, by the difference of two such timings,
//! or by `rt.stats` counter deltas. Layer names are the module names of
//! `crates/runtime/src`. The cross-process figures use an in-process
//! `serve_xproc` thread as the server so that its counters are readable.

use std::cell::Cell;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppc_rt::baseline::LockedServer;
use ppc_rt::shm::{futex_wait, futex_wake};
use ppc_rt::slot::{waiter, SlotCore};
use ppc_rt::{
    Completion, EntryOptions, Handler, RingOptions, Runtime, Segment, SpinPolicy, XClient,
    XSegOptions,
};

use crate::harness::Env;
use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{inline_entry, null_handler, reap_until, CLIENT_PROGRAM, DEPTH};

/// Timed steps in [`run`]; the budget is split evenly between them.
const STEPS: u32 = 34;
const SUBTRIALS: u32 = 3;
const K64: usize = 64 << 10;
const K4: usize = 4 << 10;

/// ns per call of `f`: the median of [`SUBTRIALS`] sub-trials that
/// together fill `slice`, the clock read once per `batch` calls.
fn per_op(slice: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f();
    }
    let sub = slice / SUBTRIALS;
    let trials: Vec<f64> = (0..SUBTRIALS)
        .map(|_| {
            let mut n = 0u64;
            let t0 = Instant::now();
            loop {
                for _ in 0..batch {
                    f();
                }
                n += u64::from(batch);
                let e = t0.elapsed();
                if e >= sub {
                    break e.as_nanos() as f64 / n as f64;
                }
            }
        })
        .collect();
    median(&trials)
}

/// Typical value of what `f` reports per repetition, repeated until
/// `slice` has passed: for cold-path operations that are timed one at a
/// time (inside `f`, which returns one figure per measured phase), and
/// for handlers that time their own inner step. "Typical" is the mean of
/// the central half of the samples — as deaf to outliers as the median,
/// without landing on one whole-nanosecond reading.
fn timed_each<const N: usize>(slice: Duration, mut f: impl FnMut() -> [f64; N]) -> [f64; N] {
    let mut cols: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let t0 = Instant::now();
    while cols[0].len() < 5 || (t0.elapsed() < slice && cols[0].len() < 1 << 16) {
        for (col, v) in cols.iter_mut().zip(f()) {
            col.push(v);
        }
    }
    std::array::from_fn(|i| midmean(&mut cols[i]))
}

fn midmean(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let quarter = samples.len() / 4;
    let mid = &samples[quarter..samples.len() - quarter];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// A thread that echoes one byte per round trip until its input closes.
fn echo_thread<R, W>(mut rx: R, mut tx: W, cpu: Option<usize>) -> std::thread::JoinHandle<()>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    std::thread::spawn(move || {
        if let Some(c) = cpu {
            crate::host::pin_to(c);
        }
        let mut b = [0u8; 1];
        while rx.read_exact(&mut b).is_ok() && tx.write_all(&b).is_ok() {}
    })
}

fn byte_rtt<R: Read, W: Write>(slice: Duration, mut tx: W, mut rx: R, fails: &Cell<u64>) -> f64 {
    let mut b = [0u8; 1];
    let mut seq = 0u8;
    per_op(slice, 16, || {
        seq = seq.wrapping_add(1);
        let ok = tx.write_all(&[seq]).is_ok() && rx.read_exact(&mut b).is_ok() && b[0] == seq;
        fails.set(fails.get() + u64::from(!ok));
    })
}

/// `thread::park` / `unpark` ping-pong between this thread and a peer on
/// `cpu`: what a hand-off pays when neither side spins. ns per round trip.
fn park_rtt(slice: Duration, cpu: Option<usize>) -> f64 {
    let ping = Arc::new(AtomicU32::new(0));
    let pong = Arc::new(AtomicU32::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (ping2, pong2, stop2, main) = (
        Arc::clone(&ping),
        Arc::clone(&pong),
        Arc::clone(&stop),
        std::thread::current(),
    );
    let peer = std::thread::spawn(move || {
        if let Some(c) = cpu {
            crate::host::pin_to(c);
        }
        let mut seen = 0u32;
        while !stop2.load(Ordering::Relaxed) {
            let p = ping2.load(Ordering::Acquire);
            if p == seen {
                std::thread::park_timeout(Duration::from_millis(10));
                continue;
            }
            seen = p;
            pong2.store(p, Ordering::Release);
            main.unpark();
        }
    });
    let mut seq = 0u32;
    let rtt = per_op(slice, 16, || {
        seq += 1;
        ping.store(seq, Ordering::Release);
        peer.thread().unpark();
        while pong.load(Ordering::Acquire) != seq {
            std::thread::park_timeout(Duration::from_millis(10));
        }
    });
    stop.store(true, Ordering::Relaxed);
    peer.thread().unpark();
    peer.join().expect("park peer");
    rtt
}

/// The same ping-pong on two futex words in a shared mapping — the floor
/// under every cross-process rendezvous. ns per round trip.
fn futex_rtt(slice: Duration, cpu: Option<usize>) -> f64 {
    struct Words(Segment);
    impl Words {
        fn word(&self, i: usize) -> &AtomicU32 {
            assert!(i < 2);
            // SAFETY: the mapping is live while `self` is, page-aligned and
            // 4096 bytes long, so both 64-byte-spaced words are in bounds
            // and aligned; they are only ever accessed as atomics.
            unsafe { &*(self.0.base().add(64 * i) as *const AtomicU32) }
        }
    }
    let words = Arc::new(Words(Segment::anon(4096).expect("memfd")));
    let stop = Arc::new(AtomicBool::new(false));
    let (words2, stop2) = (Arc::clone(&words), Arc::clone(&stop));
    let tick = Some(Duration::from_millis(10));
    let peer = std::thread::spawn(move || {
        if let Some(c) = cpu {
            crate::host::pin_to(c);
        }
        let (ping, pong) = (words2.word(0), words2.word(1));
        let mut seen = 0u32;
        while !stop2.load(Ordering::Relaxed) {
            let p = ping.load(Ordering::Acquire);
            if p == seen {
                futex_wait(ping, seen, tick);
                continue;
            }
            seen = p;
            pong.store(p, Ordering::Release);
            futex_wake(pong, 1);
        }
    });
    let (ping, pong) = (words.word(0), words.word(1));
    let mut seq = 0u32;
    let rtt = per_op(slice, 16, || {
        seq += 1;
        ping.store(seq, Ordering::Release);
        futex_wake(ping, 1);
        while pong.load(Ordering::Acquire) != seq {
            futex_wait(pong, seq - 1, tick);
        }
    });
    stop.store(true, Ordering::Relaxed);
    futex_wake(ping, 1);
    peer.join().expect("futex peer");
    rtt
}

/// Handler that times one bulk step by itself and answers
/// `[bytes, elapsed ns]`. `args[0]` selects the step.
const STEP_COPY_FROM: u64 = 0;
const STEP_COPY_TO: u64 = 1;
const STEP_WITH_BULK: u64 = 2;

fn bulk_step_handler(rt: &Arc<Runtime>) -> Handler {
    let bulk = Arc::clone(rt.bulk());
    let stats = Arc::clone(&rt.stats);
    let src = vec![0xA5u8; K64];
    Arc::new(move |ctx| {
        let Some(desc) = ctx.bulk_desc() else {
            return [u64::MAX; 8];
        };
        let len = desc.len as usize;
        let (n, dt) = match ctx.args[0] {
            STEP_COPY_FROM => {
                // As the bulk_rw_64k read handler: into a pooled buffer.
                let pool = bulk.pool(ctx.vcpu);
                let Some(mut buf) = pool.take(len, stats.cell(ctx.vcpu)) else {
                    return [u64::MAX; 8];
                };
                let t0 = Instant::now();
                let n = ctx.copy_from(desc, &mut buf.as_mut_slice()[..len]);
                let dt = t0.elapsed();
                pool.put(buf);
                (n, dt)
            }
            STEP_COPY_TO => {
                let t0 = Instant::now();
                let n = ctx.copy_to(desc, &src[..len]);
                (n, t0.elapsed())
            }
            _ => {
                let t0 = Instant::now();
                let n = ctx.with_bulk(desc, |b| black_box(b.len()));
                (n, t0.elapsed())
            }
        };
        [
            n.map_or(u64::MAX, |n| n as u64),
            dt.as_nanos() as u64,
            0,
            0,
            0,
            0,
            0,
            0,
        ]
    })
}

/// Sum of the first `args[0]` scratch bytes (the 64 B payload call).
fn psum_handler() -> Handler {
    Arc::new(|ctx| {
        let n = (ctx.args[0] as usize).min(ppc_rt::slot::SCRATCH_BYTES);
        let sum: u64 = ctx.scratch()[..n].iter().map(|b| u64::from(*b)).sum();
        [sum, 0, 0, 0, 0, 0, 0, 0]
    })
}

/// Phases of one 16-deep ring batch, in ns: (per submit, doorbell, wait
/// from doorbell return to the 16th completion).
fn ring_phases(
    slice: Duration,
    mut submit: impl FnMut(u64) -> bool,
    mut doorbell: impl FnMut(),
    mut reap: impl FnMut(usize, &mut Vec<Completion>) -> Option<usize>,
    fails: &Cell<u64>,
) -> [f64; 3] {
    let mut out = Vec::with_capacity(DEPTH);
    let mut tag = 0u64;
    timed_each(slice, || {
        let base = tag;
        let t0 = Instant::now();
        let mut ok = true;
        for _ in 0..DEPTH {
            ok &= submit(tag);
            tag += 1;
        }
        let t1 = Instant::now();
        doorbell();
        let t2 = Instant::now();
        if ok {
            reap_until(&mut out, DEPTH, &mut reap);
        }
        let t3 = Instant::now();
        ok &= out.len() == DEPTH
            && out
                .iter()
                .enumerate()
                .all(|(k, c)| c.user == base + k as u64 && c.result.is_ok());
        fails.set(fails.get() + u64::from(!ok));
        out.clear();
        [ns(t1 - t0) / DEPTH as f64, ns(t2 - t1), ns(t3 - t2)]
    })
}

/// Measure every workload-independent per-layer metric within roughly
/// `budget` and append them to `v`. Returns the number of results that
/// were wrong.
pub fn run(budget: Duration, env: &Env, v: &mut Values) -> u64 {
    let slice = budget / STEPS;
    let fails = Cell::new(0u64);
    let check = |ok: bool| fails.set(fails.get() + u64::from(!ok));
    let pins = env.pins;
    pins.enter_client();

    // ---- host: the bare primitives -----------------------------------
    v.put(
        "host.clock_ns",
        per_op(slice, 64, || {
            black_box(Instant::now());
        }),
    );
    {
        let (src, mut dst) = (vec![1u8; K64], vec![0u8; K64]);
        v.put(
            "host.memcpy_64k_ns",
            per_op(slice, 16, || {
                black_box(&mut dst).copy_from_slice(black_box(&src));
            }),
        );
    }
    {
        let (a_rx, a_tx) = std::io::pipe().expect("pipe");
        let (b_rx, b_tx) = std::io::pipe().expect("pipe");
        let echo = echo_thread(a_rx, b_tx, pins.server);
        v.put("host.pipe_rtt_ns", byte_rtt(slice, &a_tx, &b_rx, &fails));
        drop(a_tx);
        echo.join().expect("pipe echo thread");
    }
    {
        let (mine, theirs) = UnixStream::pair().expect("socketpair");
        let echo = echo_thread(theirs.try_clone().expect("dup"), theirs, pins.server);
        v.put("host.uds_rtt_ns", byte_rtt(slice, &mine, &mine, &fails));
        mine.shutdown(std::net::Shutdown::Both).expect("shutdown");
        echo.join().expect("socket echo thread");
    }
    v.put("host.park_rtt_ns", park_rtt(slice, pins.server));
    v.put("shm.futex_pingpong_ns", futex_rtt(slice, pins.server));
    {
        pins.enter_server();
        let locked = LockedServer::start(1, Arc::new(|a| a));
        pins.enter_client();
        v.put(
            "host.locked_queue_null_ns",
            per_op(slice, 16, || {
                check(locked.call([7; 8]) == [7; 8]);
            }),
        );
    }
    {
        let core = SlotCore::new();
        v.put(
            "slot.statemachine_ns",
            per_op(slice, 64, || {
                core.fill([3; 8], CLIENT_PROGRAM, waiter::NONE);
                core.post();
                let args = core.read_args();
                core.complete_frame(args, 0, 0);
                check(black_box(core.read_rets()) == [3; 8]);
                core.reset();
            }),
        );
    }

    // ---- call / obs / frank / bulk on an inline runtime ----------------
    let rt = Runtime::new(1);
    let ep_null = rt
        .bind("null", inline_entry(), null_handler(false))
        .expect("bind");
    let ep_psum = rt
        .bind("psum", inline_entry(), psum_handler())
        .expect("bind");
    let ep_desc = rt
        .bind(
            "desc",
            inline_entry(),
            Arc::new(|ctx| {
                [
                    ctx.bulk_desc().map_or(u64::MAX, |d| u64::from(d.len)),
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                ]
            }),
        )
        .expect("bind");
    let ep_step = rt
        .bind("bulk_step", inline_entry(), bulk_step_handler(&rt))
        .expect("bind");
    let client = rt.client(0, CLIENT_PROGRAM);
    let null_call = |c: &ppc_rt::Client| {
        check(c.call(ep_null, [1, 2, 3, 4, 5, 6, 7, 8]) == Ok([1, 2, 3, 4, 5, 6, 7, 8]));
    };

    let inline_ns = per_op(slice, 64, || null_call(&client));
    v.put("call.inline_null_ns", inline_ns);
    {
        let payload = [5u8; 64];
        let mut args = [0u64; 8];
        args[0] = payload.len() as u64;
        v.put(
            "call.payload64_ns",
            per_op(slice, 64, || {
                check(
                    client
                        .call_with_payload(ep_psum, args, &payload)
                        .is_ok_and(|(r, _)| r[0] == 5 * 64),
                );
            }),
        );
    }
    let region = client.bulk_register(K64).expect("register");
    for ep in [ep_desc, ep_step] {
        region.grant(ep, true).expect("grant");
    }
    v.put(
        "call.bulk_desc_ns",
        per_op(slice, 64, || {
            check(
                client
                    .call_bulk(ep_desc, [0; 8], region.full_desc(false))
                    .is_ok_and(|r| r[0] == K64 as u64),
            );
        }),
    );
    {
        let shift = rt.obs().sample_shift();
        rt.obs().set_enabled(false);
        rt.spans().set_enabled(false);
        let off_ns = per_op(slice, 64, || null_call(&client));
        rt.obs().set_enabled(true);
        rt.spans().set_enabled(true);
        v.put("obs.enabled_extra_ns", inline_ns - off_ns);
        rt.obs().set_sample_shift(0);
        v.put(
            "span.sampled_root_ns",
            per_op(slice, 64, || null_call(&client)),
        );
        rt.obs().set_sample_shift(shift);
    }
    v.put(
        "frank.exchange_ns",
        per_op(slice, 16, || {
            check(rt.exchange(ep_null, null_handler(false), 0).is_ok());
        }),
    );
    v.put(
        "frank.ns_lookup_ns",
        per_op(slice, 64, || {
            check(black_box(rt.ns_lookup("null")) == Some(ep_null));
        }),
    );
    {
        // Writes beside reads on the service table: one thread exchanges
        // the null entry's handler continuously while this one calls it.
        let stop = Arc::new(AtomicBool::new(false));
        let exchanges = Arc::new(AtomicU64::new(0));
        let (rt2, stop2, n2) = (Arc::clone(&rt), Arc::clone(&stop), Arc::clone(&exchanges));
        let server_cpu = pins.server;
        let writer = std::thread::spawn(move || {
            if let Some(c) = server_cpu {
                crate::host::pin_to(c);
            }
            let t0 = Instant::now();
            while !stop2.load(Ordering::Relaxed) {
                for _ in 0..16 {
                    let _ = rt2.exchange(ep_null, null_handler(false), 0);
                }
                n2.fetch_add(16, Ordering::Relaxed);
            }
            t0.elapsed()
        });
        v.put(
            "call.inline_under_exchange_ns",
            per_op(slice, 64, || null_call(&client)),
        );
        stop.store(true, Ordering::Relaxed);
        let busy = writer.join().expect("exchange thread");
        v.put(
            "frank.exchange_under_load_ns",
            ns(busy) / exchanges.load(Ordering::Relaxed).max(1) as f64,
        );
    }
    {
        let [bind, kill_reclaim] = timed_each(slice, || {
            let t0 = Instant::now();
            let ep = rt
                .bind("tmp", inline_entry(), null_handler(false))
                .expect("bind tmp");
            let t1 = Instant::now();
            check(rt.hard_kill(ep, 0).is_ok() && rt.reclaim_slot(ep, 0).is_ok());
            [ns(t1 - t0), ns(t1.elapsed())]
        });
        v.put("frank.bind_ns", bind);
        v.put("frank.kill_reclaim_ns", kill_reclaim);
    }
    let bulk_before = rt.stats.snapshot();
    {
        let [register, grant, revoke] = timed_each(slice, || {
            let t0 = Instant::now();
            let r = client.bulk_register(K64).expect("register");
            let t1 = Instant::now();
            check(r.grant(ep_step, true).is_ok());
            let t2 = Instant::now();
            check(r.revoke(ep_step) == Ok(1));
            [ns(t1 - t0), ns(t2 - t1), ns(t2.elapsed())]
        });
        v.put("bulk.register_ns", register);
        v.put("bulk.grant_ns", grant);
        v.put("bulk.revoke_ns", revoke);
    }
    for (name, step, len, write) in [
        ("bulk.copy_from_64k_ns", STEP_COPY_FROM, K64, false),
        ("bulk.copy_to_64k_ns", STEP_COPY_TO, K64, true),
        ("bulk.copy_to_4k_ns", STEP_COPY_TO, K4, true),
        ("bulk.with_bulk_64k_ns", STEP_WITH_BULK, K64, false),
    ] {
        let desc = region.desc(0, len as u32, write);
        let [inner] = timed_each(slice, || match client.call_bulk(ep_step, [step; 8], desc) {
            Ok(r) if r[0] == len as u64 => [r[1] as f64],
            _ => {
                check(false);
                [0.0]
            }
        });
        v.put(name, inner);
    }
    {
        let (pool, cell) = (rt.bulk().pool(0), rt.stats.cell(0));
        v.put(
            "bulk.pool_take_put_ns",
            per_op(slice, 64, || match pool.take(K64, cell) {
                Some(b) => pool.put(black_box(b)),
                None => check(false),
            }),
        );
        let d = rt.stats.snapshot().since(&bulk_before);
        v.put(
            "bulk.pool_hit_ratio",
            d.bulk_pool_hits as f64 / (d.bulk_pool_hits + d.bulk_pool_misses).max(1) as f64,
        );
    }

    // ---- ring: in-process ClientRing -----------------------------------
    {
        pins.enter_server();
        let ring = std::cell::RefCell::new(client.ring_with(RingOptions::default()));
        pins.enter_client();
        let before = rt.stats.snapshot();
        let [submit, doorbell, reap_wait] = ring_phases(
            slice,
            |tag| ring.borrow_mut().submit(ep_null, [tag; 8], tag).is_ok(),
            || ring.borrow().doorbell(),
            |max, out| Some(ring.borrow_mut().reap(max, out)),
            &fails,
        );
        let d = rt.stats.snapshot().since(&before);
        v.put("ring.submit_ns", submit);
        v.put("ring.doorbell_ns", doorbell);
        v.put("ring.reap_wait_ns", reap_wait);
        v.put(
            "ring.doorbells_per_op",
            d.ring_doorbells as f64 / d.ring_submits.max(1) as f64,
        );
        v.put(
            "ring.full_ratio",
            (d.ring_full + d.ring_no_credit) as f64
                / (d.ring_submits + d.ring_full + d.ring_no_credit).max(1) as f64,
        );
        let mut ring = ring.into_inner();
        let mut out = Vec::with_capacity(1);
        let mut tag = 0u64;
        v.put(
            "ring.d1_ns",
            per_op(slice, 16, || {
                tag += 1;
                check(ring.submit(ep_null, [tag; 8], tag).is_ok());
                ring.doorbell();
                while ring.reap(1, &mut out) == 0 {
                    std::hint::spin_loop();
                }
                check(
                    out.pop()
                        .is_some_and(|c| c.user == tag && c.result == Ok([tag; 8])),
                );
            }),
        );
    }
    drop(region);

    // ---- slot / worker: hand-off to a worker thread --------------------
    let handoff_ns;
    {
        pins.enter_server();
        let rt = Runtime::new(1);
        let ep = rt
            .bind("null", EntryOptions::default(), null_handler(false))
            .expect("bind");
        pins.enter_client();
        let client = rt.client(0, CLIENT_PROGRAM);
        let call = || check(client.call(ep, [9; 8]) == Ok([9; 8]));
        let before = rt.stats.snapshot();
        handoff_ns = per_op(slice, 16, call);
        let d = rt.stats.snapshot().since(&before);
        v.put("worker.handoff_extra_ns", handoff_ns - inline_ns);
        v.put(
            "worker.spin_wait_ratio",
            d.spin_waits as f64 / d.handoff_calls.max(1) as f64,
        );
        v.put(
            "worker.park_wait_ratio",
            d.park_waits as f64 / d.handoff_calls.max(1) as f64,
        );
        v.put(
            "call.async_null_ns",
            per_op(slice, 16, || {
                check(
                    client
                        .call_async(ep, [9; 8])
                        .is_ok_and(|c| c.wait() == [9; 8]),
                );
            }),
        );
        rt.set_spin_policy(SpinPolicy::ParkOnly);
        v.put("worker.park_rtt_ns", per_op(slice, 16, call));
        rt.set_spin_policy(SpinPolicy::Adaptive);
        // First call on an entry bound without workers: the pool grows
        // (a thread is created) inside the call.
        let cold = EntryOptions {
            initial_workers: 0,
            ..EntryOptions::default()
        };
        pins.enter_server();
        let [grow] = timed_each(slice, || {
            let ep = rt
                .bind("cold", cold, null_handler(false))
                .expect("bind cold");
            let t0 = Instant::now();
            check(client.call(ep, [4; 8]) == Ok([4; 8]));
            let dt = t0.elapsed();
            check(rt.hard_kill(ep, 0).is_ok() && rt.reclaim_slot(ep, 0).is_ok());
            [ns(dt)]
        });
        pins.enter_client();
        v.put("worker.grow_ns", grow);
    }

    // ---- shm / xproc: the segment transport, server as a thread --------
    {
        let seg_bytes = 2 << 20;
        let [create] = timed_each(slice, || {
            let path = env.seg_path("create");
            let t0 = Instant::now();
            let seg = Segment::create(&path, seg_bytes);
            let dt = t0.elapsed();
            check(seg.is_ok_and(|s| s.len() == seg_bytes));
            [ns(dt)]
        });
        v.put("shm.segment_create_ns", create);

        let srv_rt = Runtime::new(1);
        let ep_null = srv_rt
            .bind("null", inline_entry(), null_handler(false))
            .expect("bind");
        let ep_psum = srv_rt
            .bind("psum", inline_entry(), psum_handler())
            .expect("bind");
        let src = vec![0x5Au8; K4];
        let ep_copy = srv_rt
            .bind(
                "copy4k",
                inline_entry(),
                Arc::new(move |ctx| {
                    let n = ctx.bulk_desc().and_then(|d| ctx.copy_to(d, &src).ok());
                    [n.map_or(u64::MAX, |n| n as u64), 0, 0, 0, 0, 0, 0, 0]
                }),
            )
            .expect("bind");
        let path = env.seg_path("layers");
        pins.enter_server();
        let mut server = srv_rt
            .serve_xproc(&path, XSegOptions::default())
            .expect("serve");
        pins.enter_client();
        let mut xc = XClient::connect_retry(&path, CLIENT_PROGRAM, Duration::from_secs(10))
            .expect("connect");
        v.put(
            "xproc.seg_bytes",
            srv_rt.xproc_stats().map_or(0.0, |s| s.segment_bytes as f64),
        );

        let [connect] = timed_each(slice, || {
            let t0 = Instant::now();
            let c = XClient::connect(&path, CLIENT_PROGRAM + 1);
            let dt = t0.elapsed();
            check(c.is_ok());
            [ns(dt)]
        });
        v.put("xproc.connect_ns", connect);

        let before = srv_rt.stats.snapshot();
        let xnull = per_op(slice, 16, || check(xc.call(ep_null, [6; 8]) == Ok([6; 8])));
        let d = srv_rt.stats.snapshot().since(&before);
        v.put("xproc.call_null_ns", xnull);
        v.put("xproc.boundary_extra_ns", xnull - handoff_ns);
        v.put(
            "xproc.wakes_per_call",
            d.xproc_wakes as f64 / d.xproc_calls.max(1) as f64,
        );
        {
            let payload = [5u8; 64];
            let mut args = [0u64; 8];
            args[0] = payload.len() as u64;
            v.put(
                "xproc.payload64_ns",
                per_op(slice, 16, || {
                    check(
                        xc.call_with_payload(ep_psum, args, &payload)
                            .is_ok_and(|(r, _)| r[0] == 5 * 64),
                    );
                }),
            );
        }
        check(xc.bulk_grant(ep_copy, true).is_ok());
        let desc = xc.bulk_desc(0, K4 as u32, true).expect("descriptor");
        v.put(
            "xproc.bulk4k_ns",
            per_op(slice, 16, || {
                check(
                    xc.call_bulk(ep_copy, [0; 8], desc)
                        .is_ok_and(|r| r[0] == K4 as u64),
                );
            }),
        );
        {
            let xc = std::cell::RefCell::new(&mut xc);
            let [submit, doorbell, reap_wait] = ring_phases(
                slice,
                |tag| xc.borrow_mut().submit(ep_null, [tag; 8], tag).is_ok(),
                || xc.borrow_mut().ring_doorbell(),
                |max, out| xc.borrow_mut().reap(max, out).ok(),
                &fails,
            );
            v.put("xproc.ring_submit_ns", submit);
            v.put("xproc.ring_doorbell_ns", doorbell);
            v.put("xproc.ring_reap_wait_ns", reap_wait);
        }
        drop(xc);
        server.shutdown();
    }
    fails.get()
}
