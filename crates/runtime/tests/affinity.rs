//! `RuntimeOptions::pin` puts every thread the runtime spawns for vCPU
//! *i* on the *i*-th CPU the constructing thread was allowed — checked
//! against what the kernel reports for the thread itself
//! (`/proc/thread-self/status`), not against the library's own getter.
//!
//! One test in a binary of its own: it compares affinity masks with the
//! process's, which a test that pins its own thread would disturb.

use std::sync::{Arc, Mutex};

use ppc_rt::{affinity, EntryOptions, Handler, Runtime, RuntimeOptions, XClient, XSegOptions};

/// The calling thread's name and `Cpus_allowed_list`, from the kernel.
fn whereabouts() -> (String, String) {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("procfs");
    let field = |key: &str| {
        let line = status.lines().find_map(|l| l.strip_prefix(key));
        line.unwrap_or_else(|| panic!("{key} in /proc/thread-self/status")).trim().to_string()
    };
    (field("Name:"), field("Cpus_allowed_list:"))
}

/// Run one call on a worker and the ring worker and two on the serve
/// thread of each vCPU; return `(vcpu, thread name, Cpus_allowed_list)` as the
/// handler found them.
fn thread_masks(pin: bool, tag: &str) -> Vec<(usize, String, String)> {
    const VCPUS: usize = 2;
    let rt = Runtime::with_runtime_options(VCPUS, RuntimeOptions { pin, ..Default::default() });
    assert_eq!(rt.pinned(), pin);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let report: Handler = {
        let seen = Arc::clone(&seen);
        Arc::new(move |ctx| {
            let (name, cpus) = whereabouts();
            seen.lock().unwrap().push((ctx.args[0] as usize, name, cpus));
            ctx.args
        })
    };
    // A hand-off entry runs on a worker; an inline one on whichever
    // thread dispatches it. The ring worker and the serve thread run
    // whatever they find themselves, so a remote hand-off call runs on
    // the serve thread too.
    let handoff = rt.bind("handoff", EntryOptions::default(), Arc::clone(&report)).unwrap();
    let inline_opts = EntryOptions { inline_ok: true, ..Default::default() };
    let inline = rt.bind("inline", inline_opts, report).unwrap();

    for v in 0..VCPUS {
        let args = [v as u64, 0, 0, 0, 0, 0, 0, 0];
        let client = rt.client(v, 1);
        client.call(handoff, args).unwrap();

        let mut ring = client.ring();
        ring.submit(inline, args, 0).unwrap();
        ring.drain(&mut Vec::new());

        let path = ppc_rt::shm::segment_dir()
            .join(format!("ppc-affinity-{tag}-{v}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = XSegOptions { n_clients: 1, ring_depth: 8, bulk_bytes: 4096, vcpu: v };
        let _srv = rt.serve_xproc(&path, opts).unwrap();
        let mut xc = XClient::connect(&path, 1).unwrap();
        xc.call(inline, args).unwrap();
        xc.call(handoff, args).unwrap();
    }
    let seen = seen.lock().unwrap().clone();
    let names: Vec<&str> = seen.iter().map(|(_, name, _)| &name[..8]).collect();
    assert_eq!(names, ["ppc-work", "ppc-ring", "ppc-xpro", "ppc-xpro"].repeat(VCPUS), "{seen:?}");
    seen
}

#[test]
fn pinned_runtime_threads_are_where_they_were_put() {
    let allowed = affinity::allowed_cpus();
    assert!(!allowed.is_empty(), "sched_getaffinity");
    let (_, process_mask) = whereabouts();

    for (vcpu, name, cpus) in thread_masks(false, "free") {
        assert_eq!(cpus, process_mask, "unpinned {name} of vCPU {vcpu} keeps the process mask");
    }
    for (vcpu, name, cpus) in thread_masks(true, "pinned") {
        let want = allowed[vcpu % allowed.len()].to_string();
        assert_eq!(cpus, want, "{name} of vCPU {vcpu} is on the CPU it was assigned");
    }
    // Pinning the runtime's threads never narrows the caller.
    assert_eq!(whereabouts().1, process_mask);
}
