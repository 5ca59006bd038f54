//! The locked-RMW ledger: exact counts of `lock`-prefixed instructions
//! (and `xchg` with a memory operand, locked without a prefix) that one
//! call executes, by single-stepping it.
//!
//! It needs no hardware PMU (virtual machines often have none):
//! `ptrace` single-stepping is exact. For each path a forked child asks
//! to be traced, warms the path, then raises `SIGSTOP` around an empty
//! marker pair and around one call. The parent single-steps both
//! intervals, decodes the prefix bytes at every `rip`, and reports the
//! difference: the call alone. The counts do not depend on timing or on
//! the build profile, so they are asserted exactly — a ratchet, not a
//! bound: a change that moves one edits the number here and says so.
//! Instruction counts do depend on the build and are only printed.
//!
//! `harness = false`: `main` is the only thread, so `fork` is safe and
//! the child is single-threaded too.

use std::ffi::{c_int, c_long, c_void};
use std::hint::black_box;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use ppc_rt::{Client, EntryOptions, Runtime};

extern "C" {
    fn ptrace(request: c_int, ...) -> c_long;
    fn fork() -> c_int;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    fn raise(sig: c_int) -> c_int;
    fn _exit(code: c_int) -> !;
}

const PTRACE_TRACEME: c_int = 0;
const PTRACE_CONT: c_int = 7;
const PTRACE_SINGLESTEP: c_int = 9;
const PTRACE_GETREGS: c_int = 12;
const SIGSTOP: c_int = 19;
/// `rip`'s index in x86-64's `struct user_regs_struct` (27 words).
const RIP: usize = 16;
/// Calls made before the measured one: the sampler's thread-local tick
/// (one call in 128 is timed) then stands off a sampled call.
const WARM: usize = 5;

/// A path to count: its name, the locked RMWs one call takes, and a
/// builder for the call (run in the child).
type Path = (&'static str, u64, fn() -> Box<dyn FnMut()>);

fn inline_entry(rt: &Arc<Runtime>, name: &str, h: ppc_rt::Handler) -> usize {
    let opts = EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() };
    rt.bind(name, opts, h).unwrap()
}

fn inline_null() -> Box<dyn FnMut()> {
    let rt = Runtime::new(1);
    let ep = inline_entry(&rt, "null", Arc::new(|c| c.args));
    let c = rt.client(0, 1);
    Box::new(move || {
        black_box(c.call(ep, black_box([1; 8])).unwrap());
    })
}

fn inline_nested() -> Box<dyn FnMut()> {
    let rt = Runtime::new(1);
    let inner = inline_entry(&rt, "null", Arc::new(|c| c.args));
    let nested: Client = rt.client(0, 2);
    let outer = inline_entry(&rt, "outer", Arc::new(move |c| nested.call(inner, c.args).unwrap()));
    let c = rt.client(0, 1);
    Box::new(move || {
        black_box(c.call(outer, black_box([1; 8])).unwrap());
    })
}

fn inline_payload_64() -> Box<dyn FnMut()> {
    let rt = Runtime::new(1);
    let ep = inline_entry(&rt, "echo", Arc::new(|c| {
        let mut rets = c.args;
        rets[7] = 64;
        rets
    }));
    let c = rt.client(0, 1);
    let payload = [7u8; 64];
    Box::new(move || {
        black_box(c.call_with_payload(ep, black_box([1; 8]), &payload).unwrap());
    })
}

/// Whether the instruction at the start of `text` is a locked RMW: a
/// `lock` prefix among the legacy prefixes, or `xchg` (0x86/0x87) with a
/// memory operand (ModRM `mod` ≠ 3).
fn locked(text: &[u8; 16]) -> bool {
    let mut i = 0;
    while i < 14 && matches!(text[i], 0xF0 | 0xF2 | 0xF3 | 0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 | 0x66 | 0x67) {
        if text[i] == 0xF0 {
            return true;
        }
        i += 1;
    }
    if text[i] & 0xF0 == 0x40 {
        i += 1; // REX
    }
    matches!(text[i], 0x86 | 0x87) && text[i + 1] >> 6 != 3
}

fn wait(pid: c_int) -> c_int {
    let mut status = 0;
    // Safety: `status` outlives the call.
    assert_eq!(unsafe { waitpid(pid, &mut status, 0) }, pid, "waitpid: {}", std::io::Error::last_os_error());
    status
}

fn stopped_by(status: c_int) -> Option<c_int> {
    (status & 0xFF == 0x7F).then_some((status >> 8) & 0xFF)
}

fn request(req: c_int, pid: c_int, data: *mut c_void) {
    // Safety: the requests used here take no address and a data word
    // that is either 0 or a buffer of the size the kernel writes.
    let r = unsafe { ptrace(req, pid, std::ptr::null_mut::<c_void>(), data) };
    assert!(r != -1, "ptrace({req}): {}", std::io::Error::last_os_error());
}

/// Single-step the stopped child to its next `SIGSTOP`; returns
/// (instructions, locked RMWs).
fn step_to_marker(pid: c_int, mem: &std::fs::File) -> (u64, u64) {
    let (mut insns, mut locks) = (0, 0);
    loop {
        let mut regs = [0u64; 27];
        request(PTRACE_GETREGS, pid, regs.as_mut_ptr().cast());
        let mut text = [0u8; 16];
        mem.read_exact_at(&mut text, regs[RIP]).expect("read the child's text");
        insns += 1;
        locks += u64::from(locked(&text));
        request(PTRACE_SINGLESTEP, pid, std::ptr::null_mut());
        match stopped_by(wait(pid)) {
            Some(SIGSTOP) => return (insns, locks),
            Some(_) => {}
            None => panic!("the child left its traced interval"),
        }
    }
}

/// Fork a child that runs `build`'s call between markers; returns
/// (instructions, locked RMWs) of one call.
fn count(build: fn() -> Box<dyn FnMut()>) -> (u64, u64) {
    // Safety: this process has one thread (`harness = false`).
    let pid = unsafe { fork() };
    assert!(pid >= 0, "fork: {}", std::io::Error::last_os_error());
    if pid == 0 {
        // Safety: the child only traces itself, runs the call and exits
        // without unwinding into the parent's state.
        unsafe {
            if ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) == -1 {
                let errno = std::io::Error::last_os_error().raw_os_error().unwrap_or(0);
                _exit(100 + errno.min(100));
            }
            let mut call = build();
            for _ in 0..WARM {
                call();
            }
            raise(SIGSTOP);
            raise(SIGSTOP);
            raise(SIGSTOP);
            call();
            raise(SIGSTOP);
            _exit(0);
        }
    }
    let status = wait(pid);
    if status & 0x7F == 0 {
        let code = (status >> 8) & 0xFF;
        panic!("the child could not be traced: PTRACE_TRACEME failed with errno {}", code - 100);
    }
    assert_eq!(stopped_by(status), Some(SIGSTOP), "first marker");
    let mem = std::fs::File::open(format!("/proc/{pid}/mem")).expect("open the child's memory");
    let empty = step_to_marker(pid, &mem);
    request(PTRACE_CONT, pid, std::ptr::null_mut());
    assert_eq!(stopped_by(wait(pid)), Some(SIGSTOP), "third marker");
    let call = step_to_marker(pid, &mem);
    request(PTRACE_CONT, pid, std::ptr::null_mut());
    assert_eq!(wait(pid), 0, "the child exits cleanly");
    (call.0 - empty.0, call.1 - empty.1)
}

fn main() {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        println!("ledger: skipped, it decodes x86-64 Linux register sets and encodings");
        return;
    }
    let paths: [Path; 3] = [
        ("inline null", 2, inline_null),
        ("inline outer -> inline null", 4, inline_nested),
        ("inline call_with_payload, 64 B", 4, inline_payload_64),
    ];
    let mut wrong = Vec::new();
    for (name, want, build) in paths {
        let (insns, locks) = count(build);
        println!("ledger: {name:<32} {insns:>6} instructions {locks:>3} locked RMWs (expected {want})");
        if locks != want {
            wrong.push(format!("{name}: {locks} locked RMWs, expected {want}"));
        }
    }
    assert!(wrong.is_empty(), "locked-RMW ledger changed: {wrong:?}");
    println!("test result: ok. 3 passed; 0 failed");
}
