//! Capture a Perfetto-loadable trace of real PPC traffic.
//!
//! Drives a mixed workload — inline calls, hand-off calls with a Frank
//! worker-pool grow, nested calls from a handler, zero-copy bulk
//! transfers, asynchronous dispatches, and one deliberately slow tail
//! call — then writes the span rings out as Chrome trace-event JSON.
//! Load the file at <https://ui.perfetto.dev> or `chrome://tracing`:
//! each vCPU renders as a process, client and server phases of a chain
//! on adjacent tracks, and the trace/span ids ride in `args`.
//!
//! Run: `cargo run --release --example ppc_trace -- --out trace.json`
//! CI:  `cargo run --example ppc_trace -- --smoke` (small run, validate
//! the document with the in-repo parser, write nothing).

use std::sync::Arc;

use ppc_ipc::rt::export::{load_chrome_trace, Json};
use ppc_ipc::rt::{EntryOptions, Runtime, RuntimeOptions};

fn main() {
    let mut out_path = String::from("ppc-trace.json");
    let mut smoke = false;
    let mut calls: u64 = 200;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--smoke" => {
                smoke = true;
                calls = 25;
            }
            "--out" => out_path = argv.next().expect("--out needs a path"),
            "--calls" => {
                calls = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--calls needs a number")
            }
            other => {
                eprintln!("unknown flag {other}; flags: --smoke | --out <path> | --calls <n>");
                std::process::exit(2);
            }
        }
    }

    // A bigger span ring than the default so a capture of `calls`
    // iterations isn't silently truncated by wraparound.
    let rt = Runtime::with_runtime_options(
        2,
        RuntimeOptions { trace_capacity: 4096, ..Default::default() },
    );
    rt.obs().set_sample_shift(0); // trace every root for the capture

    // Inline fast path: handler on the caller's thread.
    let echo = rt
        .bind("echo", EntryOptions { inline_ok: true, ..Default::default() }, Arc::new(|c| c.args))
        .unwrap();
    // Hand-off path; zero pre-spawned workers, so the first call takes
    // the Frank slow path (pool grow) — visible as an instant span.
    let work = rt
        .bind(
            "work",
            EntryOptions { initial_workers: 0, ..Default::default() },
            Arc::new(|c| [c.args[0].wrapping_mul(3); 8]),
        )
        .unwrap();
    // Nested chain: an inline handler that itself calls `work`, so one
    // trace spans two entry points and both dispatch modes.
    let rt2 = Arc::clone(&rt);
    let chain = rt
        .bind(
            "chain",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(move |ctx| {
                let c = rt2.client(ctx.vcpu, 999);
                c.call(work, [ctx.args[0] + 1; 8]).unwrap()
            }),
        )
        .unwrap();
    // Bulk path: copy the granted span through the copy engine,
    // uppercase it server-side, and copy it back — both transfers land
    // as `bulk_copy` spans inside the handler.
    let upper = rt
        .bind(
            "upper",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let desc = ctx.bulk_desc().expect("descriptor in args[7]");
                let mut buf = vec![0u8; desc.len as usize];
                ctx.copy_from(desc, &mut buf).expect("granted read");
                buf.make_ascii_uppercase();
                let n = ctx.copy_to(desc, &buf).expect("granted write");
                [n as u64; 8]
            }),
        )
        .unwrap();
    // Tail: sleeps on demand, so the last call promotes an exemplar.
    let tail = rt
        .bind(
            "tail",
            EntryOptions { inline_ok: true, ..Default::default() },
            Arc::new(|c| {
                if c.args[0] == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                c.args
            }),
        )
        .unwrap();

    let client = rt.client(0, 7);
    let region = client.bulk_register(4096).unwrap();
    region.fill(0, &vec![b'x'; 4096]).unwrap();
    region.grant(upper, true).unwrap();

    for i in 0..calls {
        client.call(echo, [i; 8]).unwrap();
        client.call(chain, [i; 8]).unwrap();
        let pending = client.call_async(work, [i; 8]).unwrap();
        client.call_bulk(upper, [0; 8], region.full_desc(true)).unwrap();
        client.call(tail, [u64::from(i == calls - 1); 8]).unwrap();
        pending.wait();
    }

    let text = rt.export_trace();
    // Validate with the in-repo parser before shipping the file:
    // well-formed JSON, every begin paired with an end.
    let doc = Json::parse(&text).expect("export_trace emits valid JSON");
    let n_events =
        doc.get("traceEvents").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let spans = load_chrome_trace(&text).expect("begin/end pairs round-trip");

    // The capture must contain every phase the workload exercised, and
    // every span must parent into a tree within its own trace.
    for want in ["call", "handler", "rendezvous", "bulk_copy", "frank", "async"] {
        assert!(
            spans.iter().any(|s| s.kind.label() == want),
            "no {want} span in the capture ({n_events} events)"
        );
    }
    for s in &spans {
        assert!(
            s.is_root()
                || spans
                    .iter()
                    .any(|p| p.trace_id() == s.trace_id() && p.span_id == s.parent_id),
            "orphaned span {s:?}"
        );
    }
    assert!(rt.spans().promoted() >= 1, "the slow tail call promotes an exemplar");

    if smoke {
        println!(
            "ppc_trace smoke OK: {n_events} events, {} spans, {} exemplar(s) promoted",
            spans.len(),
            rt.spans().promoted()
        );
        return;
    }

    std::fs::write(&out_path, &text).expect("write trace file");
    println!(
        "wrote {out_path}: {n_events} trace events ({} spans) from {} vCPU rings",
        spans.len(),
        rt.spans().n_vcpus()
    );
    println!("load it at https://ui.perfetto.dev or chrome://tracing\n");
    println!("{}", rt.diagnostics());
}
