//! Host context: which CPUs this process may use, pinning, CPU time and
//! peak memory of a process from `/proc`, and the interference probe that
//! is stamped on every result.
//!
//! The repository builds offline without the `libc` crate, so the three C
//! library calls used here are declared locally.

use std::time::Duration;

mod sys {
    use core::ffi::{c_int, c_long};

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }

    /// `_SC_CLK_TCK` on Linux.
    pub const SC_CLK_TCK: c_int = 2;
}

/// Words in the affinity mask: 1024 CPUs, the kernel's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on, ascending. Empty when the call is
/// unavailable (then nothing is pinned).
pub fn cpus_allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpu`. Threads and processes it creates
/// afterwards inherit the restriction, which is how the server side of a
/// workload is placed: pin, create the server, pin again. Returns whether
/// the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0 is
    // the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Where the two sides of a workload run.
#[derive(Clone, Copy, Debug)]
pub struct Pins {
    pub client: Option<usize>,
    pub server: Option<usize>,
}

impl Pins {
    /// Client on the first allowed CPU, server on the second. With one
    /// CPU there is nothing to separate and nothing is pinned.
    pub fn choose(allowed: &[usize]) -> Pins {
        match allowed {
            [a, b, ..] => Pins {
                client: Some(*a),
                server: Some(*b),
            },
            _ => Pins {
                client: None,
                server: None,
            },
        }
    }

    #[cfg(test)]
    pub fn unpinned() -> Pins {
        Pins {
            client: None,
            server: None,
        }
    }

    /// Place whatever the calling thread creates next on the server CPU.
    pub fn enter_server(&self) {
        if let Some(c) = self.server {
            pin_to(c);
        }
    }

    /// Place the calling thread on the client CPU.
    pub fn enter_client(&self) {
        if let Some(c) = self.client {
            pin_to(c);
        }
    }
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// User + system CPU time consumed so far by process `pid` (all its
/// threads), from `/proc/<pid>/stat`. `None` once the process is gone.
pub fn cpu_time(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    // SAFETY: sysconf with a valid name has no preconditions.
    let hz = unsafe { sys::sysconf(sys::SC_CLK_TCK) }.max(1) as u64;
    Some(Duration::from_nanos((utime + stime) * (1_000_000_000 / hz)))
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Share of a short busy probe lost to involuntary deschedules (the
/// runtime's own clock-gap probe, so the figure means the same thing here
/// as in its telemetry).
pub fn interference_ratio() -> f64 {
    ppc_rt::telemetry::interference_probe(Duration::from_millis(40)).ratio()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_time(me).is_some());
        assert!(peak_rss_mib(me).unwrap() > 0.0);
        assert!(cpu_time(u32::MAX).is_none());
    }

    #[test]
    fn pins_need_two_cpus() {
        let p = Pins::choose(&[3, 5, 7]);
        assert_eq!((p.client, p.server), (Some(3), Some(5)));
        let p = Pins::choose(&[3]);
        assert_eq!((p.client, p.server), (None, None));
    }
}
