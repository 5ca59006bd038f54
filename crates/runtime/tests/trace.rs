//! Causal-tracing integration tests: span propagation through real
//! dispatch (inline, hand-off, nested, async), the exported Chrome
//! trace round-trip, tail-exemplar promotion, and the capacity knobs.
//!
//! Everything here runs against the public `Runtime` surface — the
//! plane's unit tests live in `span.rs`; these tests check the wiring:
//! that real calls on real threads produce one correctly-parented span
//! tree per causal chain.

use std::sync::Arc;

use ppc_rt::export::load_chrome_trace;
use ppc_rt::{EntryOptions, FlightKind, Kind, Record, Runtime, RuntimeOptions};

fn spans_of(rt: &Arc<Runtime>) -> Vec<Record> {
    let text = rt.export_trace();
    load_chrome_trace(&text).expect("export_trace emits a loadable Chrome trace")
}

/// The acceptance chain: a client call into an inline entry whose
/// handler calls a second entry point that Frank-grows its worker pool
/// on first use. One trace id; every span parented into one tree:
///
/// ```text
/// call(outer) ── handler(outer) ── call(inner) ──┬─ frank (pool grow)
///                                                ├─ rendezvous
///                                                └─ handler(inner)
/// ```
#[test]
fn nested_chain_produces_one_correctly_parented_trace() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0); // sample every root deterministically
    let inner = rt
        .bind(
            "inner",
            EntryOptions { initial_workers: 0, ..Default::default() },
            Arc::new(|c| [c.args[0] * 2; 8]),
        )
        .unwrap();
    let rt2 = Arc::clone(&rt);
    let outer = rt
        .bind(
            "outer",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                let c = rt2.client(ctx.vcpu, 999);
                let r = c.call(inner, [ctx.args[0] + 1; 8]).unwrap();
                [r[0] + 5; 8]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    assert_eq!(client.call(outer, [10; 8]).unwrap()[0], 27);

    let spans = spans_of(&rt);

    // One trace, rooted once.
    let trace = spans[0].trace_id();
    assert!(spans.iter().all(|s| s.trace_id() == trace), "one causal chain, one id: {spans:#?}");
    let roots: Vec<_> = spans.iter().filter(|s| s.is_root()).collect();
    assert_eq!(roots.len(), 1, "exactly one root: {spans:#?}");
    let root = roots[0];
    assert_eq!((root.kind.label(), root.depth, root.ep), ("call", 0, outer as u16));

    let find = |name: &str, depth: u8| -> &Record {
        spans
            .iter()
            .find(|s| s.kind.label() == name && s.depth == depth)
            .unwrap_or_else(|| panic!("no {name} span at depth {depth} in {spans:#?}"))
    };
    let outer_handler = find("handler", 1);
    assert_eq!(outer_handler.parent_id, root.span_id, "handler under its call");
    let inner_call = find("call", 2);
    assert_eq!(inner_call.parent_id, outer_handler.span_id, "nested call under the handler");
    assert_eq!(inner_call.ep, inner as u16);
    let inner_handler = find("handler", 3);
    assert_eq!(inner_handler.parent_id, inner_call.span_id, "inner handler under its call");
    let rendezvous = find("rendezvous", 3);
    assert_eq!(rendezvous.parent_id, inner_call.span_id, "wait attributed to the nested call");
    let franks: Vec<_> = spans.iter().filter(|s| s.kind.label() == "frank").collect();
    assert!(!franks.is_empty(), "worker-pool grow recorded: {spans:#?}");
    assert!(
        franks.iter().any(|f| f.parent_id == inner_call.span_id),
        "the grow fired inside the nested dispatch: {spans:#?}"
    );
    // Every span's parent is in the tree (no orphans).
    for s in &spans {
        assert!(
            s.is_root() || spans.iter().any(|p| p.span_id == s.parent_id),
            "orphaned span {s:?}"
        );
    }
    // Containment: children start no earlier than their parent.
    for s in &spans {
        if let Some(p) = spans.iter().find(|p| p.span_id == s.parent_id) {
            assert!(s.start_ns >= p.start_ns, "child {s:?} starts before parent {p:?}");
        }
    }
}

/// The inline call's gate honours a live trace: with every second call
/// sampled, each outer call ticks even (sampled, a root) and the inline
/// call its handler makes ticks odd (unsampled), yet the nested call
/// must still parent under the handler span. Eight outer calls, eight
/// roots, each exactly call → handler → call → handler.
#[test]
fn unsampled_nested_inline_call_joins_the_live_trace() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(1);
    let inline = || EntryOptions { inline_ok: true, ..Default::default() };
    let inner = rt.bind("inner", inline(), Arc::new(|c| c.args)).unwrap();
    let nested = rt.client(0, 2);
    let outer =
        rt.bind("outer", inline(), Arc::new(move |c| nested.call(inner, c.args).unwrap())).unwrap();
    // A fresh thread: its sampler tick starts at 0, so the outer calls
    // take the even ticks.
    let client = rt.client(0, 1);
    std::thread::spawn(move || {
        for i in 0..8 {
            assert_eq!(client.call(outer, [i; 8]).unwrap(), [i; 8]);
        }
    })
    .join()
    .unwrap();

    let spans = spans_of(&rt);
    let roots: Vec<_> = spans.iter().filter(|s| s.is_root()).collect();
    assert_eq!(roots.len(), 8, "one root per outer call: {spans:#?}");
    for root in roots {
        let mut tree: Vec<_> = spans.iter().filter(|s| s.trace_id() == root.trace_id()).collect();
        tree.sort_by_key(|s| s.depth);
        let shape: Vec<_> = tree.iter().map(|s| (s.kind.label(), s.depth, s.ep)).collect();
        let (o, i) = (outer as u16, inner as u16);
        assert_eq!(shape, [("call", 0, o), ("handler", 1, o), ("call", 2, i), ("handler", 3, i)]);
        for pair in tree.windows(2) {
            assert_eq!(pair[1].parent_id, pair[0].span_id, "each under the one above: {tree:#?}");
        }
    }
}

/// The thread-local trace context never leaks past the call that
/// installed it — including through nested handlers on the same thread.
#[test]
fn trace_context_is_restored_after_every_call() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    assert!(rt.spans().current().is_none());
    for i in 0..5u64 {
        client.call(ep, [i; 8]).unwrap();
        assert!(rt.spans().current().is_none(), "context restored after call {i}");
    }
}

/// Asynchronous calls are observable end to end: the stats counter and
/// flight event fire at dispatch, and the trace context crosses the
/// completion boundary — the async root span closes at `wait()` and the
/// worker-side handler span carries the same trace id.
#[test]
fn call_async_is_fully_observable() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind("svc", EntryOptions::default(), Arc::new(|c| [c.args[0] + 1; 8]))
        .unwrap();
    let client = rt.client(0, 1);
    let pending = client.call_async(ep, [41; 8]).unwrap();
    assert_eq!(pending.wait(), [42; 8]);

    assert_eq!(rt.stats.async_calls(), 1, "counter fires regardless of sampling");

    let spans = spans_of(&rt);
    let events = rt.flight().snapshot(0);
    assert!(
        events.iter().any(|e| e.kind == Kind::Flight(FlightKind::Async) && e.ep == ep as u16),
        "async dispatch in the flight ring: {events:?}"
    );
    let root = spans
        .iter()
        .find(|s| s.kind.label() == "async" && s.is_root())
        .unwrap_or_else(|| panic!("async root span closed by wait(): {spans:#?}"));
    let handler = spans
        .iter()
        .find(|s| s.kind.label() == "handler")
        .unwrap_or_else(|| panic!("worker handler span: {spans:#?}"));
    assert_eq!(handler.trace_id(), root.trace_id(), "context crossed the hand-off");
    assert_eq!(handler.parent_id, root.span_id, "handler parented under the async root");
    // Dropping an unwaited call still closes its span (no dangling B).
    let pending = client.call_async(ep, [1; 8]).unwrap();
    drop(pending);
    load_chrome_trace(&rt.export_trace()).expect("every begin has an end after drop");
}

/// Ring submissions trace once per batch: the first submit after a
/// doorbell takes the batch's one sampler tick, and a sampled batch's
/// first SQE carries a `ring` root span that opens at submit and closes
/// at reap; the worker-side handler span rides that SQE's packed context
/// — same trace id, parented under the ring span and contained in it.
/// The rest of the batch carries no context, and no batch opens a span
/// while another's traced SQE is in flight. A traced handler that
/// submits a batch gets one child ring span.
#[test]
fn ring_submissions_parent_their_handler_spans() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    let first = rt.bind("first", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let second = rt.bind("second", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let client = rt.client(0, 1);
    let mut ring = client.ring();
    let mut out = Vec::new();
    let rings = |spans: &[Record]| spans.iter().filter(|s| s.kind.label() == "ring").cloned().collect::<Vec<_>>();
    let mut batch = |ring: &mut ppc_rt::ClientRing, drain: bool| {
        ring.submit(first, [1; 8], 1).unwrap();
        ring.submit(second, [2; 8], 2).unwrap();
        if drain {
            ring.drain(&mut out)
        } else {
            ring.doorbell()
        }
    };

    batch(&mut ring, true);
    let spans = spans_of(&rt);
    let found = rings(&spans);
    let [r] = &found[..] else { panic!("one ring span per batch: {spans:#?}") };
    assert!(r.is_root(), "a sampled batch is a trace root");
    assert_eq!(r.ep, first as u16, "the span is the first SQE's");
    let handlers: Vec<_> = spans.iter().filter(|s| s.kind.label() == "handler").collect();
    let [h] = handlers[..] else { panic!("only the first SQE carries a context: {spans:#?}") };
    assert_eq!((h.trace_id(), h.parent_id, h.ep), (r.trace_id(), r.span_id, first as u16), "handler under it");
    assert!(h.start_ns >= r.start_ns && h.start_ns + h.dur_ns <= r.start_ns + r.dur_ns, "containment");

    // A second batch is a second causal chain.
    batch(&mut ring, true);
    let spans = rings(&spans_of(&rt));
    assert_eq!(spans.len(), 2, "a second ring span: {spans:#?}");
    assert_ne!(spans[0].trace_id(), spans[1].trace_id());

    // A batch rung while the traced SQE of the one before is unreaped
    // opens no span of its own.
    batch(&mut ring, false);
    batch(&mut ring, false);
    ring.drain(&mut out);
    assert_eq!(out.len(), 8);
    let spans = spans_of(&rt);
    let handlers: Vec<_> = spans.iter().filter(|s| s.kind.label() == "handler").collect();
    assert_eq!((rings(&spans).len(), handlers.len()), (3, 3), "the unreaped batch's span only: {spans:#?}");
    for h in handlers {
        let parent = spans.iter().find(|s| (s.trace_id(), s.span_id) == (h.trace_id(), h.parent_id));
        assert_eq!(parent.map(|p| p.kind.label()), Some("ring"), "every handler under its ring span");
    }
    drop(ring);

    // Submitting from inside a traced handler parents the batch's ring
    // span into the surrounding chain instead of minting a new root.
    let rt2 = Arc::clone(&rt);
    let outer = rt
        .bind(
            "outer",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                let c = rt2.client(ctx.vcpu, 999);
                let mut ring = c.ring();
                let mut out = Vec::new();
                ring.submit(first, ctx.args, 1).unwrap();
                ring.submit(second, ctx.args, 2).unwrap();
                ring.drain(&mut out);
                out[0].result.clone().unwrap()
            }),
        )
        .unwrap();
    client.call(outer, [5; 8]).unwrap();
    let spans = spans_of(&rt);
    let nested: Vec<_> = spans.iter().filter(|s| s.kind.label() == "ring" && !s.is_root()).collect();
    let [nested] = nested[..] else { panic!("one child ring span per batch: {spans:#?}") };
    let parent = spans
        .iter()
        .find(|s| s.span_id == nested.parent_id && s.trace_id() == nested.trace_id())
        .expect("nested ring span's parent exists");
    assert_eq!((parent.kind.label(), parent.ep), ("handler", outer as u16), "under the submitting handler");
}

/// A root call slower than `EXEMPLAR_FACTOR`× the entry's EWMA is
/// promoted into the per-vCPU exemplar buffer, and the diagnostics dump
/// reports it with its phase breakdown.
#[test]
fn tail_call_promotes_an_exemplar() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    let ep = rt
        .bind(
            "svc",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|c| {
                if c.args[0] == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                c.args
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    for _ in 0..40 {
        client.call(ep, [0; 8]).unwrap(); // seed the EWMA with fast calls
    }
    client.call(ep, [1; 8]).unwrap(); // the tail

    assert!(rt.spans().promoted() >= 1, "the 5ms call dwarfs the µs-scale EWMA");
    let exemplars = rt.spans().exemplars(0);
    assert!(!exemplars.is_empty());
    let ex = exemplars.last().unwrap();
    assert_eq!(ex.root.ep, ep as u16);
    assert!(ex.root.dur_ns >= 5_000_000, "captured the slow call: {}", ex.summary());
    assert!(!ex.spans.is_empty(), "span tree attached");
    let dump = rt.diagnostics();
    assert!(dump.contains("slowest recent calls"), "exemplar section present:\n{dump}");
}

/// `RuntimeOptions::trace_capacity` sizes the span rings.
#[test]
fn runtime_options_size_the_rings() {
    let rt = Runtime::with_runtime_options(
        1,
        RuntimeOptions { trace_capacity: 128, ..Default::default() },
    );
    assert_eq!(rt.spans().capacity(), 128);
}

/// Disabling the trace plane at runtime stops span recording without
/// touching the histogram/counter planes.
#[test]
fn trace_plane_disable_stops_span_recording() {
    let rt = Runtime::new(1);
    rt.obs().set_sample_shift(0);
    rt.spans().set_enabled(false);
    let ep = rt
        .bind("svc", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    let client = rt.client(0, 1);
    for i in 0..10u64 {
        client.call(ep, [i; 8]).unwrap();
    }
    assert!(spans_of(&rt).is_empty(), "no roots minted while disabled");
    assert_eq!(rt.stats.calls(), 10, "counters unaffected");
    rt.spans().set_enabled(true);
    client.call(ep, [0; 8]).unwrap();
    assert!(!spans_of(&rt).is_empty(), "recording resumes on re-enable");
}
