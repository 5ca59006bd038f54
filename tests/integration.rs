//! Workspace-level integration tests: full scenarios spanning the machine
//! model, the OS substrate, the PPC facility, the baselines, and the
//! real-threads runtime — exercised through the umbrella crate's public
//! API exactly as a downstream user would.

use std::rc::Rc;
use std::sync::Arc;

use ppc_ipc::baselines::lrpc::Lrpc;
use ppc_ipc::baselines::msg_rpc::MsgRpc;
use ppc_ipc::hector::{Machine, MachineConfig};
use ppc_ipc::hurricane::Kernel;
use ppc_ipc::ppc::bob::boot_with_bob;
use ppc_ipc::ppc::{PpcSystem, ServiceSpec};
use ppc_ipc::rt::{EntryOptions, Runtime};

/// The complete life of a service, through Frank: register by PPC call,
/// resolve by name, serve calls, get replaced online, retire.
#[test]
fn service_lifecycle_end_to_end() {
    let mut sys = PpcSystem::boot(MachineConfig::hector(4));
    let prog = sys.kernel.new_program_id();
    let client = sys.new_client(1, prog);
    let asid = sys.kernel.create_space("calc");

    // Register through Frank (a real PPC call) and publish the name.
    let ep = sys
        .register_service(
            1,
            client,
            ServiceSpec::new(asid).owned_by(prog),
            Rc::new(|_s, ctx| [ctx.args[0] + ctx.args[1], 0, 0, 0, 0, 0, 0, 0]),
        )
        .expect("register");
    sys.ns_register(1, client, "calc", ep).expect("publish");

    // Another client on another CPU resolves and calls.
    let prog2 = sys.kernel.new_program_id();
    let client2 = sys.new_client(3, prog2);
    let resolved = sys.ns_lookup(3, client2, "calc").unwrap().expect("resolve");
    assert_eq!(resolved, ep);
    let r = sys.call(3, client2, resolved, [20, 22, 0, 0, 0, 0, 0, 0]).unwrap();
    assert_eq!(r[0], 42);

    // Online replacement, then retirement.
    sys.exchange_entry(1, client, ep, Rc::new(|_s, ctx| [ctx.args[0] * ctx.args[1], 0, 0, 0, 0, 0, 0, 0]))
        .expect("exchange");
    let r = sys.call(3, client2, ep, [6, 7, 0, 0, 0, 0, 0, 0]).unwrap();
    assert_eq!(r[0], 42, "v2 multiplies");
    sys.soft_kill_entry(1, client, ep).expect("retire");
    assert!(sys.call(3, client2, ep, [0; 8]).is_err());
}

/// The Figure-3 workload end-to-end on the simulator: four CPUs hammering
/// Bob, with per-CPU cycle accounting proving locality.
#[test]
fn figure3_workload_accounting() {
    let (mut sys, bob, handles) = boot_with_bob(MachineConfig::hector(4), 4);
    let mut clients = Vec::new();
    for cpu in 0..4 {
        let prog = sys.kernel.new_program_id();
        clients.push((cpu, sys.new_client(cpu, prog)));
    }
    for round in 0..5 {
        for &(cpu, client) in &clients {
            let h = handles[(cpu + round) % handles.len()];
            bob.get_length(&mut sys, cpu, client, h).expect("GetLength");
        }
    }
    assert_eq!(sys.stats.calls, 20);
    // Every CPU did its own work — all clocks advanced.
    for cpu in 0..4 {
        assert!(sys.kernel.machine.cpu(cpu).clock().as_us() > 100.0);
    }
}

/// Simulator vs. real threads: the same logical service graph produces the
/// same results in both worlds.
#[test]
fn simulator_and_runtime_agree_on_semantics() {
    // Simulator.
    let mut sys = PpcSystem::boot(MachineConfig::hector(1));
    let asid = sys.kernel.create_space("fib");
    let sim_ep = sys
        .bind_entry_boot(
            ServiceSpec::new(asid),
            Rc::new(|_s, ctx| {
                let (mut a, mut b) = (0u64, 1u64);
                for _ in 0..ctx.args[0] {
                    (a, b) = (b, a + b);
                }
                [a, 0, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let prog = sys.kernel.new_program_id();
    let client = sys.new_client(0, prog);

    // Real threads.
    let rt = Runtime::new(1);
    let rt_ep = rt
        .bind(
            "fib",
            EntryOptions::default(),
            Arc::new(|ctx| {
                let (mut a, mut b) = (0u64, 1u64);
                for _ in 0..ctx.args[0] {
                    (a, b) = (b, a + b);
                }
                [a, 0, 0, 0, 0, 0, 0, 0]
            }),
        )
        .unwrap();
    let rt_client = rt.client(0, 1);

    for n in 0..20u64 {
        let s = sys.call(0, client, sim_ep, [n, 0, 0, 0, 0, 0, 0, 0]).unwrap()[0];
        let r = rt_client.call(rt_ep, [n, 0, 0, 0, 0, 0, 0, 0]).unwrap()[0];
        assert_eq!(s, r, "fib({n})");
    }
}

/// The three IPC designs ordered by single-client latency on the same
/// machine model: PPC < LRPC < message RPC.
#[test]
fn latency_ordering_across_designs() {
    // PPC warm round trip.
    let ppc = ppc_ipc::ppc::microbench::measure(ppc_ipc::ppc::microbench::Condition {
        kernel_server: false,
        hold_cd: false,
        flushed: false,
    })
    .total();

    // LRPC warm round trip.
    let mut m = Machine::new(MachineConfig::hector(4));
    let lrpc = Lrpc::new(&mut m, 0);
    for _ in 0..3 {
        lrpc.round_trip(&mut m, 0);
    }
    let lrpc_t = lrpc.round_trip(&mut m, 0);

    // Message RPC warm round trip.
    let mut k = Kernel::boot(MachineConfig::hector(4));
    let mut msg = MsgRpc::new(&mut k, 0);
    for _ in 0..3 {
        msg.round_trip(&mut k, 0);
    }
    let msg_t = msg.round_trip(&mut k, 0);

    assert!(ppc < lrpc_t, "ppc {ppc} !< lrpc {lrpc_t}");
    assert!(lrpc_t < msg_t, "lrpc {lrpc_t} !< msg {msg_t}");
}

/// Cross-processor PPC reaches a service whose device lives on another
/// CPU, with identity intact — the §4.3 extension working end to end.
#[test]
fn cross_processor_call_end_to_end() {
    let mut sys = PpcSystem::boot(MachineConfig::hector(8));
    let ep = sys
        .bind_entry_boot(
            ServiceSpec::new(hector_sim::tlb::ASID_KERNEL).name("dev"),
            Rc::new(|_s, ctx| [u64::from(ctx.caller_program), ctx.cpu as u64, 0, 0, 0, 0, 0, 0]),
        )
        .unwrap();
    let prog = sys.kernel.new_program_id();
    let client = sys.new_client(0, prog);
    let r = sys.call_remote(0, client, 5, ep, [0; 8]).unwrap();
    assert_eq!(r[0], u64::from(prog), "identity crossed CPUs");
    assert_eq!(r[1], 5, "executed on the target CPU");
}

/// Deterministic replay: two identical full scenarios produce identical
/// cycle counts on every CPU.
#[test]
fn whole_scenario_is_deterministic() {
    let run = || {
        let (mut sys, bob, handles) = boot_with_bob(MachineConfig::hector(4), 2);
        let prog = sys.kernel.new_program_id();
        let client = sys.new_client(0, prog);
        for i in 0..10 {
            bob.get_length(&mut sys, 0, client, handles[i % 2]).unwrap();
        }
        (0..4).map(|c| sys.kernel.machine.cpu(c).clock()).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The documents that tell a reader what to run, relative to the
/// repository root.
const DOCS: [&str; 6] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "CONTRIBUTING.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

fn repo(path: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

/// Whether `<dir>/<name>.rs` exists at the root or in a workspace crate.
fn target_exists(dir: &str, name: &str) -> bool {
    let mut roots = vec![repo("")];
    roots.extend(std::fs::read_dir(repo("crates")).unwrap().map(|e| e.unwrap().path()));
    roots.iter().any(|r| r.join(dir).join(format!("{name}.rs")).exists())
}

/// Docs against the tree: every `--bin`, `--bench` and `--example` a
/// document names is a target that exists, and every `BENCH_*.json[l]`
/// it names is a file at the root (a `*` in the name matches anything).
#[test]
fn docs_name_only_targets_and_artifacts_that_exist() {
    let root_files: Vec<String> = std::fs::read_dir(repo(""))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let dir = match pair[0].trim_start_matches('`') {
                "--bin" => "src/bin",
                "--bench" => "benches",
                "--example" => "examples",
                _ => continue,
            };
            let name: String =
                pair[1].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !target_exists(dir, &name) {
                missing.push(format!("{doc}: {} {name}", pair[0]));
            }
        }
        for (at, _) in text.match_indices("BENCH_") {
            let is_name = |c: &char| c.is_ascii_uppercase() || matches!(c, '_' | '*' | '.');
            let stem: String = text[at..].chars().take_while(is_name).collect();
            let rest = &text[at + stem.len()..];
            let ext = ["jsonl", "json"].into_iter().find(|e| rest.starts_with(e));
            let (Some(ext), true) = (ext, stem.ends_with('.')) else { continue };
            let name = format!("{stem}{ext}");
            let (head, tail) = name.split_once('*').unwrap_or((&name, ""));
            let found = root_files.iter().any(|f| {
                f.len() >= head.len() + tail.len() && f.starts_with(head) && f.ends_with(tail)
            });
            if !found {
                missing.push(format!("{doc}: {name}"));
            }
        }
    }
    assert!(missing.is_empty(), "documents name things the tree does not have:\n{missing:#?}");
}

/// Every line of the benchmark history parses and carries its stamp and
/// all end-to-end metrics of all workloads `BENCHMARK.json` declares.
#[test]
fn bench_history_lines_are_complete() {
    use ppc_ipc::rt::export::Json;
    let names = |doc: &Json, list: &str| -> Vec<String> {
        let items = doc.get(list).and_then(Json::as_arr).expect(list);
        items.iter().map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    };
    let bench = Json::parse(&std::fs::read_to_string(repo("BENCHMARK.json")).unwrap()).unwrap();
    let (workloads, metrics) = (names(&bench, "workloads"), names(&bench, "end_to_end"));
    assert_eq!(workloads.len() * metrics.len(), 42);

    let history = std::fs::read_to_string(repo("BENCH_HISTORY.jsonl")).unwrap();
    assert!(history.lines().count() >= 1, "the history is seeded");
    for (n, line) in history.lines().enumerate() {
        let n = n + 1;
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("line {n} does not parse: {e}"));
        for key in ["commit", "date"] {
            assert!(doc.get(key).and_then(Json::as_str).is_some(), "line {n}: no {key}");
        }
        assert!(doc.get("benchmark_revision").and_then(Json::as_u64).is_some(), "line {n}");
        let host = doc.get("host").unwrap_or_else(|| panic!("line {n}: no host stamp"));
        assert!(host.get("cpus_allowed").and_then(Json::as_arr).is_some(), "line {n}");
        assert!(host.get("interference_ratio").and_then(Json::as_f64).is_some(), "line {n}");
        for w in &workloads {
            for m in &metrics {
                let value = doc.get("workloads").and_then(|ws| ws.get(w)).and_then(|w| w.get(m));
                assert!(
                    value.and_then(Json::as_f64).is_some_and(f64::is_finite),
                    "line {n}: no {m} for {w}"
                );
            }
        }
    }
}
