//! Real-threads null-call latency: the user-level analogue of Figure 2's
//! single-client round trip, plus the locked-queue baseline for contrast.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use ppc_rt::baseline::LockedServer;
use ppc_rt::{EntryOptions, Runtime};

fn bench_null_call(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt_latency");

    let rt = Runtime::new(1);
    let ep = rt.bind("null", EntryOptions::default(), Arc::new(|ctx| ctx.args)).unwrap();
    let client = rt.client(0, 1);
    g.bench_function("null_call_no_cd", |b| {
        b.iter(|| std::hint::black_box(client.call(ep, std::hint::black_box([7; 8])).unwrap()))
    });

    let server = LockedServer::start(1, Arc::new(|a| a));
    g.bench_function("null_call_locked_baseline", |b| {
        b.iter(|| std::hint::black_box(server.call(std::hint::black_box([7; 8]))))
    });

    g.finish();
}

fn bench_async_dispatch(c: &mut Criterion) {
    let rt = Runtime::new(1);
    let ep = rt.bind("async-null", EntryOptions::default(), Arc::new(|ctx| ctx.args)).unwrap();
    let client = rt.client(0, 1);
    c.bench_function("rt_latency/async_dispatch_and_wait", |b| {
        b.iter(|| {
            let h = client.call_async(ep, std::hint::black_box([3; 8])).unwrap();
            std::hint::black_box(h.wait())
        })
    });
}

criterion_group!(benches, bench_null_call, bench_async_dispatch);
criterion_main!(benches);
