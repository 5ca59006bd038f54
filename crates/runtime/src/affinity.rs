//! Thread placement: which CPUs the calling thread may run on, and a way
//! to narrow that to one. std wraps neither call, so the two are declared
//! `extern "C"` like [`crate::shm`]'s futex (std already links libc).
//!
//! [`crate::RuntimeOptions::pin`] uses it to make a vCPU a CPU: vCPU *i*'s
//! entry workers, ring worker and `serve_xproc` thread all run on the
//! *i*-th CPU the constructing thread was allowed.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's `cpu_set_t`: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending. Empty when the
/// kernel refuses the call (then nothing can be pinned).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restrict the calling thread to `cpu`; threads it spawns afterwards
/// inherit the restriction. Returns whether the kernel accepted it.
pub fn pin_current(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
