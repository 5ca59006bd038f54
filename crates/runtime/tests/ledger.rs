//! The locked-RMW ledger: exact counts of `lock`-prefixed instructions
//! (and `xchg` with a memory operand, locked without a prefix) and of
//! clock reads (`rdtsc`, `rdtscp`) that one call executes, by
//! single-stepping it.
//!
//! It needs no hardware PMU (virtual machines often have none):
//! `ptrace` single-stepping is exact, and steps through the vDSO as
//! through any user code — so a `clock_gettime` shows up as the counter
//! read inside it. For each path a forked child asks to be traced, warms
//! the path, settles it (a worker thread parked, say), then raises
//! `SIGSTOP` around an empty marker pair and around one call (then drops
//! the path, which ends any server process it forked). The parent
//! single-steps both intervals — the calling thread only; a worker runs
//! untraced — decodes the instruction at every `rip`, and reports the
//! difference: the call alone. Locked RMWs do not depend on timing, so
//! they are asserted exactly — a ratchet, not a bound: a change that
//! moves one edits the number here and says so. The first call of a
//! thread on a vCPU takes ownership of its stats cell with one CAS; the
//! warm-up calls pay it, outside the markers. Every path must read
//! the clock 0 times (an unsampled call reads none). Instruction counts
//! depend on the build, and on a hand-off on how long the caller's wait
//! loop runs: a release build holds the four inline paths and the two
//! ring batches under ceilings (another ratchet — a toolchain that
//! moves one edits it here and says why), and every other count is only
//! printed.
//!
//! `harness = false`: `main` is the only thread, so `fork` is safe and
//! the child is single-threaded too until the path spawns its workers.

use std::ffi::{c_int, c_long, c_void};
use std::hint::black_box;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use ppc_rt::xproc::fork_server;
use ppc_rt::{Client, EntryOptions, Runtime, XClient, XSegOptions};

mod settle;
use settle::others_asleep;

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

/// One call to count, and what settles the process before the next
/// marker (run after each warming call too).
struct Case {
    call: Box<dyn FnMut()>,
    settle: Box<dyn FnMut()>,
}

impl Case {
    fn call(call: impl FnMut() + 'static) -> Case {
        Case { call: Box::new(call), settle: Box::new(|| ()) }
    }
}

/// A path to count: its name, the locked RMWs one call takes (`None`:
/// printed, not asserted), the most instructions it may take in a
/// release build (`None`: printed only), and a builder for the call
/// (run in the child).
type Path = (&'static str, Option<u64>, Option<u64>, fn() -> Case);

fn inline_entry(rt: &Arc<Runtime>, name: &str, h: ppc_rt::Handler) -> usize {
    let opts = EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() };
    rt.bind(name, opts, h).unwrap()
}

fn inline_null() -> Case {
    let rt = Runtime::new(1);
    let ep = inline_entry(&rt, "null", Arc::new(|c| c.args));
    let c = rt.client(0, 1);
    Case::call(move || {
        black_box(c.call(ep, black_box([1; 8])).unwrap());
    })
}

fn inline_nested() -> Case {
    let rt = Runtime::new(1);
    let inner = inline_entry(&rt, "null", Arc::new(|c| c.args));
    let nested: Client = rt.client(0, 2);
    let outer = inline_entry(&rt, "outer", Arc::new(move |c| nested.call(inner, c.args).unwrap()));
    let c = rt.client(0, 1);
    Case::call(move || {
        black_box(c.call(outer, black_box([1; 8])).unwrap());
    })
}

fn inline_payload_64() -> Case {
    let rt = Runtime::new(1);
    let ep = inline_entry(&rt, "echo", Arc::new(|c| {
        let mut rets = c.args;
        rets[7] = 64;
        rets
    }));
    let c = rt.client(0, 1);
    let payload = [7u8; 64];
    Case::call(move || {
        black_box(c.call_with_payload(ep, black_box([1; 8]), &payload).unwrap());
    })
}

/// An inline `call_bulk` whose handler copies the whole granted 64 KiB
/// span out with `copy_from`, into a buffer of the calling thread's own.
fn inline_bulk_64k() -> Case {
    const LEN: usize = 64 << 10;
    thread_local! {
        static DST: RefCell<Vec<u8>> = RefCell::new(vec![0; LEN]);
    }
    let rt = Runtime::new(1);
    let ep = inline_entry(&rt, "copy", Arc::new(|c| {
        let desc = c.bulk_desc().unwrap();
        let n = DST.with(|d| c.copy_from(desc, &mut d.borrow_mut()[..]).unwrap());
        [n as u64, 0, 0, 0, 0, 0, 0, 0]
    }));
    let c = rt.client(0, 1);
    let region = c.bulk_register(LEN).unwrap();
    region.grant(ep, false).unwrap();
    let desc = region.full_desc(false);
    Case::call(move || {
        assert_eq!(black_box(c.call_bulk(ep, black_box([1; 8]), desc).unwrap())[0], LEN as u64);
        let _ = &region;
    })
}

/// The caller's side of a null hand-off, its worker parked at the
/// marker: the post always wakes it (one `unpark`), and the caller's wait
/// loop runs while the worker, untraced, completes the call.
fn handoff_null() -> Case {
    let rt = Runtime::new(1);
    let ep = rt.bind("null", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
    let c = rt.client(0, 1);
    Case {
        call: Box::new(move || {
            black_box(c.call(ep, black_box([1; 8])).unwrap());
        }),
        settle: Box::new(others_asleep),
    }
}

/// The client side of a 16-deep `ClientRing` batch: 16 submits and the
/// doorbell, its ring worker parked at the marker so the doorbell always
/// wakes it. The settle step reaps the batch, outside the markers, once
/// the worker has drained it and parked: one non-empty reap per batch,
/// so the sampler ticks twice a batch — once where the batch opens, once
/// at the reap — and the marked batch stays unsampled however the
/// threads ran (its 0 clock reads show it).
fn ring_d16() -> Case {
    let rt = Runtime::new(1);
    let opts = EntryOptions { initial_workers: 0, ..Default::default() };
    let ep = rt.bind("null", opts, Arc::new(|c| c.args)).unwrap();
    let ring = Rc::new(RefCell::new(rt.client(0, 1).ring()));
    let reaper = Rc::clone(&ring);
    let mut out = Vec::with_capacity(16);
    Case {
        call: Box::new(move || {
            let mut ring = ring.borrow_mut();
            for i in 0..16 {
                ring.submit(ep, black_box([i; 8]), i).unwrap();
            }
            ring.doorbell();
        }),
        settle: Box::new(move || {
            others_asleep();
            let mut ring = reaper.borrow_mut();
            while out.len() < 16 {
                ring.reap(16, &mut out);
            }
            assert!(out.drain(..).all(|c| c.result.is_ok()));
        }),
    }
}

/// The segment file, removed when the path is dropped.
struct SegFile(PathBuf);

impl Drop for SegFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A forked server process with an inline null entry (entry 0), and a
/// client connected to it; the server ends when its handle drops.
fn xproc_client() -> (XClient, impl Sized) {
    let file = SegFile(std::env::temp_dir().join(format!("ppc-ledger-{}.seg", std::process::id())));
    let server = fork_server(&file.0, XSegOptions::default(), || {
        let rt = Runtime::new(1);
        inline_entry(&rt, "null", Arc::new(|c| c.args));
        rt
    })
    .unwrap();
    let xc = XClient::connect_retry(&file.0, 1, Duration::from_secs(10)).unwrap();
    (xc, (server, file))
}

/// Leave a segment server 20 ms to fall asleep on its doorbell, so the
/// next post or ring doorbell rings it.
fn server_asleep() {
    std::thread::sleep(Duration::from_millis(20));
}

/// The client side of a null `XClient::call` to a forked server process.
/// Single-stepped, the client finds the call done when it reaches the
/// wait.
fn xproc_null() -> Case {
    let (mut xc, server) = xproc_client();
    Case {
        call: Box::new(move || {
            black_box(xc.call(0, black_box([1; 8])).unwrap());
            let _ = &server;
        }),
        settle: Box::new(server_asleep),
    }
}

/// The client side of a 16-deep `XClient` ring batch: 16 submits and
/// `ring_doorbell`, the server asleep at the marker so the doorbell
/// always wakes it. The settle step reaps the batch, outside the markers.
fn xproc_ring_d16() -> Case {
    let (xc, server) = xproc_client();
    let xc = Rc::new(RefCell::new(xc));
    let reaper = Rc::clone(&xc);
    let mut out = Vec::with_capacity(16);
    Case {
        call: Box::new(move || {
            let mut xc = xc.borrow_mut();
            for i in 0..16 {
                xc.submit(0, black_box([i; 8]), i).unwrap();
            }
            xc.ring_doorbell();
            let _ = &server;
        }),
        settle: Box::new(move || {
            let mut xc = reaper.borrow_mut();
            while out.len() < 16 {
                xc.reap(16, &mut out).unwrap();
            }
            assert!(out.drain(..).all(|c| c.result.is_ok()));
            drop(xc);
            server_asleep();
        }),
    }
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

/// Whether the instruction at the start of `text` reads the time-stamp
/// counter: `rdtsc` (`0F 31`) or `rdtscp` (`0F 01 F9`).
fn clock_read(text: &[u8; 16]) -> bool {
    let mut i = 0;
    while i < 13 && matches!(text[i], 0xF2 | 0xF3 | 0x66 | 0x67) {
        i += 1;
    }
    text[i] == 0x0F && (text[i + 1] == 0x31 || text[i + 1..i + 3] == [0x01, 0xF9])
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

/// What one traced interval executed.
#[derive(Clone, Copy)]
struct Tally {
    insns: u64,
    locks: u64,
    clocks: u64,
}

/// Single-step the stopped child to its next `SIGSTOP`.
fn step_to_marker(pid: c_int, mem: &std::fs::File) -> Tally {
    let mut t = Tally { insns: 0, locks: 0, clocks: 0 };
    loop {
        let mut regs = [0u64; 27];
        request(PTRACE_GETREGS, pid, regs.as_mut_ptr().cast());
        let mut text = [0u8; 16];
        mem.read_exact_at(&mut text, regs[RIP]).expect("read the child's text");
        t.insns += 1;
        t.locks += u64::from(locked(&text));
        t.clocks += u64::from(clock_read(&text));
        request(PTRACE_SINGLESTEP, pid, std::ptr::null_mut());
        match stopped_by(wait(pid)) {
            Some(SIGSTOP) => return t,
            Some(_) => {}
            None => panic!("the child left its traced interval"),
        }
    }
}

/// Fork a child that runs `build`'s call between markers; returns what
/// one call executed.
fn count(build: fn() -> Case) -> Tally {
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
            let mut case = build();
            for _ in 0..WARM {
                (case.call)();
                (case.settle)();
            }
            raise(SIGSTOP);
            raise(SIGSTOP);
            raise(SIGSTOP);
            (case.call)();
            raise(SIGSTOP);
            drop(case);
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
    // Run the child to its exit; a stop for a signal (the `SIGCHLD` of a
    // server process it ended) is resumed with the signal dropped.
    let status = loop {
        request(PTRACE_CONT, pid, std::ptr::null_mut());
        let status = wait(pid);
        if stopped_by(status).is_none() {
            break status;
        }
    };
    assert_eq!(status, 0, "the child exits cleanly");
    Tally {
        insns: call.insns - empty.insns,
        locks: call.locks - empty.locks,
        clocks: call.clocks - empty.clocks,
    }
}

fn main() {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        println!("ledger: skipped, it decodes x86-64 Linux register sets and encodings");
        return;
    }
    // Counters take none: the calling thread owns its vCPU's stats cell
    // and counts with plain stores. The payload call's 2: the CD pool pop
    // and push. The hand-off caller's 4, in both build profiles: the pool
    // pop, the `SeqCst` fence of the post's Dekker check (a `lock or` on
    // the stack), the parked worker's `unpark` and the pool push. The
    // ring's 2: the doorbell's fence and `unpark` (an unsampled batch
    // writes no flight record). The segment ring's 2: the doorbell's
    // fence and the doorbell word's bump before the futex wake.
    //
    // The instruction ceilings: the four inline paths at their counts once
    // a call stopped writing a per-entry completion count and the sampler
    // kept one tick per vCPU (the inline null call against the paper's
    // ≈ 200-instruction round trip: 268). The two ring batches at the
    // counts a release build prints: `ClientRing`'s once the batch's
    // sampler tick moved out of line (1 307), the segment ring's once its
    // peer-loss note went cold and left the submit path (1 005).
    let paths: [Path; 8] = [
        ("inline null", Some(0), Some(268), inline_null),
        ("inline outer -> inline null", Some(0), Some(533), inline_nested),
        ("inline call_with_payload, 64 B", Some(2), Some(607), inline_payload_64),
        ("inline call_bulk, copy_from 64 KiB", Some(2), Some(66_300), inline_bulk_64k),
        ("hand-off null (caller)", Some(4), None, handoff_null),
        ("ClientRing 16 submits + doorbell", Some(2), Some(1_307), ring_d16),
        ("XClient null (client)", Some(2), None, xproc_null),
        ("XClient 16 submits + ring_doorbell (client)", Some(2), Some(1_005), xproc_ring_d16),
    ];
    let release = !cfg!(debug_assertions);
    let mut wrong = Vec::new();
    for (name, want, ceiling, build) in paths {
        let t = count(build);
        let expected = want.map_or("not asserted".to_string(), |w| format!("expected {w}"));
        println!(
            "ledger: {name:<43} {:>6} instructions {:>3} locked RMWs ({expected}) {:>2} clock reads",
            t.insns, t.locks, t.clocks
        );
        if want.is_some_and(|w| t.locks != w) {
            wrong.push(format!("{name}: {} locked RMWs, {expected}", t.locks));
        }
        if let Some(max) = ceiling.filter(|&max| release && t.insns > max) {
            let (n, build) = (t.insns, "in a release build");
            wrong.push(format!("{name}: {n} instructions, at most {max} {build}"));
        }
        if t.clocks != 0 {
            wrong.push(format!("{name}: {} clock reads, expected 0", t.clocks));
        }
    }
    assert!(wrong.is_empty(), "ledger changed: {wrong:?}");
    println!("test result: ok. {} passed; 0 failed", paths.len());
}
