//! `ppcbench` — the repository benchmark for `ppc-rt`.
//!
//! One command measures one workload: `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ledger (with tracing on, so its
//! numbers are never mixed with the end-to-end ones). Every result the
//! benchmark receives is checked; a wrong answer fails the command. The
//! last line of standard output is the machine-readable result. See
//! `README.md` in this directory for the metric and workload tables.

mod cli;
mod fs_chain;
mod harness;
mod host;
mod layers;
mod metrics;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use harness::{Env, Workload};
use metrics::Values;

/// Host context stamped on every result.
struct Host {
    cpus_allowed: Vec<usize>,
    cpu_model: String,
    interference_before: f64,
}

impl Host {
    fn probe() -> Host {
        Host {
            cpus_allowed: host::cpus_allowed(),
            cpu_model: host::cpu_model(),
            interference_before: host::interference_ratio(),
        }
    }
}

/// Outcome of one workload run.
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    /// Human-readable detail lines (quartiles, sample counts).
    notes: Vec<String>,
}

/// Segment files live next to the benchmark executable — inside the build
/// directory, hence inside the checkout the benchmark was built in.
fn segment_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .filter(|d| d.is_dir())
        .unwrap_or_else(std::env::temp_dir)
}

fn end_to_end<W: Workload>(seed: u64, seconds: u64, env: &Env) -> Outcome {
    let r = harness::end_to_end::<W>(seed, seconds, env);
    let mut values = Values::default();
    values.put("ops_per_s", r.ops_per_s.median);
    values.put("p50_ns", r.p50_ns.median);
    values.put("bytes_per_s", r.bytes_per_s.median);
    values.put("cpu_ns_per_op", r.cpu_ns_per_op.median);
    values.put("setup_s", r.setup_s.median);
    values.put("peak_rss_mb", r.peak_rss_mb);
    let quart = |name: &str, s: &stats::Summary| {
        format!(
            "{name}: median {:.6e} q1 {:.6e} q3 {:.6e} over {} trials (spread {:.2} %)",
            s.median,
            s.q1,
            s.q3,
            s.n,
            100.0 * s.spread()
        )
    };
    let notes = vec![
        quart("ops_per_s", &r.ops_per_s),
        quart("p50_ns", &r.p50_ns),
        quart("bytes_per_s", &r.bytes_per_s),
        quart("cpu_ns_per_op", &r.cpu_ns_per_op),
        quart("setup_s", &r.setup_s),
        format!(
            "p50_ns: each sample is the median of one trial's individually timed units \
             ({} units of {} op(s) in all, one clock read each)",
            r.latency_samples,
            W::UNIT_OPS
        ),
    ];
    Outcome {
        values,
        attempted: r.attempted,
        failed: r.failed,
        notes,
    }
}

/// The traced run. Everything that forks runs first, while this process
/// has never had a second thread; the layer ledger, which creates
/// threads, runs last.
fn per_layer<W: Workload>(seed: u64, seconds: u64, env: &Env, host: &Host) -> Outcome {
    let share = |f: f64| Duration::from_secs_f64(seconds as f64 * f);
    let mut values = Values::default();
    let mut notes = Vec::new();

    let traced = fs_chain::traced(seed, share(0.25), env);
    let tail = harness::tail::<W>(seed, share(0.15), env);
    let layer_failed = layers::run(share(0.50), env, &mut values);

    values.put("tail.p99_ns", tail.p99_ns);
    values.put("tail.p999_ns", tail.p999_ns);
    values.put("tail.max_ns", tail.max_ns);
    notes.push(format!(
        "tail.*: workload {} over {} individually timed units; tail.max_ns is the highest \
         percentile with {} samples beyond it",
        W::NAME,
        tail.samples,
        stats::TAIL_SUPPORT
    ));

    values.put(
        "host.interference_ratio",
        (host.interference_before + host::interference_ratio()) / 2.0,
    );
    values.put("host.cpus_allowed", host.cpus_allowed.len() as f64);

    use trace::{Class, Name};
    for class in Class::ALL {
        let led = traced
            .ledger
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, l)| l);
        let parts: &[(&str, Name)] = match class {
            Class::Open => &[
                ("client_self_ns", Name::ClientOp),
                ("transport_ns", Name::ClientCall),
                ("names_self_ns", Name::NamesHandler),
            ],
            Class::GetLen => &[
                ("client_self_ns", Name::ClientOp),
                ("transport_ns", Name::ClientCall),
                ("fs_self_ns", Name::FsHandler),
            ],
            Class::Read | Class::Write => &[
                ("client_self_ns", Name::ClientOp),
                ("transport_ns", Name::ClientCall),
                ("fs_self_ns", Name::FsHandler),
                ("nested_call_ns", Name::FsNestedCall),
                ("copy_self_ns", Name::CopyHandler),
                ("memcpy_ns", Name::CopyMemcpy),
            ],
        };
        for (part, name) in parts {
            values.put(
                format!("fs_chain.{part}.{}", class.label()),
                led.map_or(f64::NAN, |l| l.self_of(*name)),
            );
        }
        values.put(
            format!("trace.reconcile_err.{}", class.label()),
            led.map_or(f64::NAN, |l| l.reconcile_err),
        );
        if let Some(l) = led {
            let selfs: Vec<String> = l
                .self_ns
                .iter()
                .map(|(n, v)| format!("{} {v:.0}", n.label()))
                .collect();
            notes.push(format!(
                "fs_chain {}: {} traced ops, mean client.op {:.0} ns; mean self ns: {}",
                class.label(),
                l.ops,
                l.root_ns,
                selfs.join(", ")
            ));
        }
    }
    values.put("trace.overhead_ratio", traced.overhead_ratio);
    if traced.spans_dropped > 0 {
        notes.push(format!(
            "!! {} spans did not fit the span store",
            traced.spans_dropped
        ));
    }
    Outcome {
        values,
        attempted: traced.attempted + tail.attempted,
        failed: traced.failed + tail.failed + layer_failed,
        notes,
    }
}

fn run<W: Workload>(args: &cli::Args, env: &Env, host: &Host) -> (Outcome, usize) {
    let out = if args.trace {
        per_layer::<W>(args.seed, args.seconds, env, host)
    } else {
        end_to_end::<W>(args.seed, args.seconds, env)
    };
    (out, W::BUSY_THREADS)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .values
        .0
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(name),
                json_string(metrics::unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn host_json(h: &Host, after: f64, busy: usize, oversubscribed: bool) -> String {
    format!(
        "{{\"cpus_allowed\": {:?}, \"cpu_model\": {}, \"interference_before\": {}, \
         \"interference_after\": {after}, \"busy_threads\": {busy}, \"oversubscribed\": {oversubscribed}}}",
        h.cpus_allowed,
        json_string(&h.cpu_model),
        h.interference_before
    )
}

fn run_one(name: &str, args: &cli::Args) -> ExitCode {
    let host = Host::probe();
    let env = Env {
        pins: host::Pins::choose(&host.cpus_allowed),
        seg_dir: segment_dir(),
        wrong_answers: false,
    };
    println!(
        "ppcbench {name} seed={} seconds={} trace={} | cpus_allowed={:?} pins={:?} | {} | \
         interference before {:.4}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cpus_allowed,
        env.pins,
        host.cpu_model,
        host.interference_before
    );
    let (out, busy) = match name {
        "inline_null" => run::<workloads::InlineNull>(args, &env, &host),
        "handoff_null" => run::<workloads::HandoffNull>(args, &env, &host),
        "ring_d16" => run::<workloads::RingD16>(args, &env, &host),
        "xproc_null" => run::<workloads::XprocNull>(args, &env, &host),
        "xproc_ring_d16" => run::<workloads::XprocRingD16>(args, &env, &host),
        "bulk_rw_64k" => run::<workloads::BulkRw64k>(args, &env, &host),
        "fs_chain" => run::<fs_chain::FsChain>(args, &env, &host),
        other => unreachable!("the argument parser admitted workload {other}"),
    };
    let after = host::interference_ratio();
    // The traced run's ledger always uses a client and a server thread.
    let busy = if args.trace { busy.max(2) } else { busy };
    let oversubscribed = busy > host.cpus_allowed.len().max(1);
    if oversubscribed {
        println!(
            "!! oversubscribed: {busy} busy threads on {} allowed CPU(s) — client and server \
             time-share, every figure below includes that",
            host.cpus_allowed.len()
        );
    }
    for n in &out.notes {
        println!("  {n}");
    }
    println!("  interference after {after:.4}");
    for (metric, v) in &out.values.0 {
        println!("{metric} = {v} {}", metrics::unit_of(metric));
    }

    let expected: Vec<&str> = if args.trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut problems = out.values.mismatch(&expected);
    problems.extend(
        out.values
            .0
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| format!("{n} is not finite")),
    );
    if out.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed their check",
            out.failed, out.attempted
        ));
    }
    for p in &problems {
        eprintln!("ppcbench: {p}");
    }
    let correct = problems.is_empty();
    let result = result_json(correct, &out);
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"result\": {result}}}\n",
            json_string(name),
            args.seed,
            args.seconds,
            args.trace,
            host_json(&host, after, busy, oversubscribed)
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("ppcbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// No `--workload`: run every workload in turn, each in a fresh process
/// of this executable, so that server processes are forked before any
/// thread exists and set-up time and peak memory are per workload.
fn run_all(args: &cli::Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ppcbench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut all_ok = true;
    for w in metrics::WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ppcbench: cannot run {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("").to_string();
        if !output.status.success() || !last.starts_with('{') {
            eprintln!("ppcbench: workload {} failed ({})", w.name, output.status);
            all_ok = false;
            continue;
        }
        results.push(format!("{}: {last}", json_string(w.name)));
    }
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{{}}}}}\n",
            args.seed,
            args.seconds,
            args.trace,
            results.join(", ")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("ppcbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_list() {
    println!("workloads:");
    for w in metrics::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in metrics::END_TO_END {
        println!(
            "  {:<34} {:<6} better: {:<6} bound: {}",
            m.name, m.unit, m.better, m.bound
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in metrics::PER_LAYER {
        println!("  {:<34} {:<6} better: {}", m.name, m.unit, m.better);
    }
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1), &metrics::workload_names()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppcbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.list {
        print_list();
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}
