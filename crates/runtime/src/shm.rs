//! Shared-memory segments: the substrate under the cross-process
//! transport ([`crate::xproc`]).
//!
//! A [`Segment`] is a file-backed (or `memfd`-backed) `mmap(MAP_SHARED)`
//! mapping that two processes open independently. Everything placed in a
//! segment must be **position-independent**: the mapping lands at a
//! different virtual address in every process, so segment-resident
//! structures carry no pointers — only [`SegOffset`]s (byte offsets from
//! the segment base) and indices, resolved against the local base at the
//! point of use via [`SegRef`]. The structures themselves are `#[repr(C)]`
//! with compile-time size/offset assertions (see [`crate::slot::SlotCore`]
//! and the `xproc` wire types) so both sides agree on layout without a
//! serialization step.
//!
//! The module is std-only: the repo vendors its dependency graph, so the
//! handful of calls std does not wrap (`mmap`, `munmap`, `futex`,
//! `memfd_create`, `kill(pid, 0)`) go through a thin `extern "C"` /
//! `syscall(2)` shim below. File length management uses
//! [`std::fs::File::set_len`] (ftruncate) and segment files live in
//! `/dev/shm` when present (tmpfs — no writeback), falling back to the
//! system temp directory.
//!
//! Cross-process blocking uses **futexes on shared words**: a waiting
//! process sleeps on a `u32` inside the segment (`FUTEX_WAIT`, *without*
//! `FUTEX_PRIVATE_FLAG` — the word is shared between address spaces) and
//! the peer wakes it (`FUTEX_WAKE`) after a release-store to that word —
//! the same rendezvous the in-process path gets from park/unpark, minus
//! the shared `Thread` handle that cannot cross a process boundary. On
//! non-Linux hosts the wait degrades to a bounded sleep-poll loop so the
//! crate still builds and the in-process tests run; the cross-process
//! transport itself is Linux-only.

use std::fs::{File, OpenOptions};
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::AtomicU32;
use std::time::Duration;

/// A byte offset from a [`Segment`]'s base address — the only form of
/// "pointer" allowed inside a segment. `u32` bounds segments at 4 GiB,
/// far above any transport configuration, and keeps segment-resident
/// structures compact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(transparent)]
pub struct SegOffset(pub u32);

impl SegOffset {
    /// The offset as a plain `usize`.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A typed segment offset: `SegRef<T>` is to `SegOffset` what `*mut T`
/// is to `*mut u8`. It stores no address — resolution happens against a
/// segment base in *this* process, so a `SegRef` written by one process
/// means the same object when read by another.
#[derive(Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct SegRef<T> {
    off: SegOffset,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for SegRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SegRef<T> {}

impl<T> SegRef<T> {
    /// A typed reference at byte offset `off`. Debug-asserts alignment —
    /// segment layouts are computed with explicit alignment, so a
    /// misaligned `SegRef` is a layout bug, not a runtime condition.
    #[inline]
    pub fn new(off: SegOffset) -> SegRef<T> {
        debug_assert_eq!(off.as_usize() % std::mem::align_of::<T>(), 0);
        SegRef { off, _marker: PhantomData }
    }

    /// The untyped offset.
    #[inline]
    pub fn offset(self) -> SegOffset {
        self.off
    }

    /// Resolve against `seg`'s local base.
    ///
    /// # Safety
    /// The caller must guarantee the offset (plus `size_of::<T>()`) lies
    /// within the segment and that a valid `T` lives there (segment
    /// layouts are initialized by the creator and validated by the
    /// opener before any `SegRef` is resolved). The returned reference
    /// aliases shared memory: `T` must be a `repr(C)` structure whose
    /// cross-process shared fields are atomics or `UnsafeCell`s governed
    /// by the transport's ownership protocol.
    #[inline]
    pub unsafe fn resolve(self, seg: &Segment) -> &T {
        debug_assert!(self.off.as_usize() + std::mem::size_of::<T>() <= seg.len());
        // Safety: bounds and validity per the contract above.
        unsafe { &*(seg.base().add(self.off.as_usize()) as *const T) }
    }
}

/// The directory segment files live in: `/dev/shm` (tmpfs) when present,
/// else the system temp dir.
pub fn segment_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// A shared, mapped memory segment.
///
/// Created by one process ([`Segment::create`] — which also unlinks the
/// backing file on drop) and opened read-write by peers
/// ([`Segment::open`]). [`Segment::anon`] gives an anonymous
/// `memfd`-backed segment for single-process layout tests, and the
/// in-process ring keeps its queues in a private one.
pub struct Segment {
    base: NonNull<u8>,
    len: usize,
    /// Unlinked on drop when this process created the file.
    unlink: Option<PathBuf>,
}

// Safety: the mapping is plain memory; all shared mutation inside it
// goes through atomics/UnsafeCell per the transport protocol.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Create the backing file at `path` (must not exist), size it to
    /// `len`, and map it shared. The file is unlinked when this
    /// `Segment` drops — peers that already opened it keep their
    /// mapping (POSIX unlink semantics), and a crashed creator leaves
    /// at worst one stale file in tmpfs.
    pub fn create(path: &Path, len: usize) -> io::Result<Segment> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.set_len(len as u64)?;
        let base = map_shared(&file, len)?;
        Ok(Segment { base, len, unlink: Some(path.to_path_buf()) })
    }

    /// Open and map an existing segment file read-write. The mapped
    /// length is the file's current length; content validation (magic,
    /// layout version) is the caller's job — this layer only maps bytes.
    pub fn open(path: &Path) -> io::Result<Segment> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty segment file"));
        }
        let base = map_shared(&file, len)?;
        Ok(Segment { base, len, unlink: None })
    }

    /// An anonymous segment (`memfd_create` on Linux, an unlinked temp
    /// file elsewhere) — reachable only through this mapping or an
    /// inherited fd, used by layout unit tests.
    pub fn anon(len: usize) -> io::Result<Segment> {
        let file = sys::memfd(len)?;
        let base = map_shared(&file, len)?;
        Ok(Segment { base, len, unlink: None })
    }

    /// An anonymous **private** mapping: zero pages no other process can
    /// reach, for a structure that uses a segment's offset-addressed
    /// layout inside one process (the in-process ring). One `mmap`, no
    /// file; a page costs memory only once it is touched.
    pub(crate) fn private(len: usize) -> io::Result<Segment> {
        Ok(Segment { base: sys::map(len, None)?, len, unlink: None })
    }

    /// The local base address of the mapping.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.base.as_ptr()
    }

    /// Mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is zero-length (never true for a live
    /// segment; here for the conventional pairing with `len`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole mapping as a byte slice — the byte-dump side of the
    /// layout round-trip test.
    ///
    /// # Safety
    /// The caller must ensure no peer is concurrently writing the
    /// segment (quiesced dump), since this forms a `&[u8]` over memory
    /// that is otherwise mutated through atomics.
    pub unsafe fn bytes(&self) -> &[u8] {
        // Safety: mapping is valid for `len` bytes; quiescence per the
        // contract above.
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // Safety: base/len came from a successful mmap of exactly `len`.
        unsafe { sys::unmap(self.base.as_ptr(), self.len) };
        if let Some(p) = self.unlink.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn map_shared(file: &File, len: usize) -> io::Result<NonNull<u8>> {
    sys::map(len, Some(file))
}

/// Sleep on a shared `u32` until its value is no longer `expected` (or
/// the timeout lapses, or a spurious wake). Returns whether the word
/// changed (`true`) as observed on wake — callers re-check state in a
/// loop regardless, this is a hint for accounting.
///
/// The word must live in shared memory for cross-process use; the futex
/// is issued *non-private*.
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> bool {
    sys::futex_wait(word, expected, timeout)
}

/// Wake up to `n` waiters sleeping on `word`. Returns the number woken.
pub fn futex_wake(word: &AtomicU32, n: u32) -> u32 {
    sys::futex_wake(word, n)
}

/// Whether a process with this PID currently exists (`kill(pid, 0)`).
/// Used for peer-death detection; PID reuse makes it a heuristic, which
/// the transport pairs with the segment's `server_state` word.
pub fn pid_alive(pid: u32) -> bool {
    sys::pid_alive(pid)
}

/// `membarrier(2)`: register this process for `PRIVATE_EXPEDITED`, or
/// issue one such barrier. False if the kernel refused.
pub(crate) fn membarrier(register: bool) -> bool {
    sys::membarrier(register)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::{AsRawFd, FromRawFd};
    use std::ptr::NonNull;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    use core::ffi::{c_char, c_int, c_long, c_uint, c_void};

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn kill(pid: c_int, sig: c_int) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;

    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: c_long = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: c_long = 98;
    #[cfg(target_arch = "x86_64")]
    const SYS_MEMFD_CREATE: c_long = 319;
    #[cfg(target_arch = "aarch64")]
    const SYS_MEMFD_CREATE: c_long = 279;
    #[cfg(target_arch = "x86_64")]
    const SYS_MEMBARRIER: c_long = 324;
    #[cfg(target_arch = "aarch64")]
    const SYS_MEMBARRIER: c_long = 283;

    /// `FUTEX_WAIT`/`FUTEX_WAKE` **without** `FUTEX_PRIVATE_FLAG`: the
    /// word is shared between address spaces.
    const FUTEX_WAIT: c_int = 0;
    const FUTEX_WAKE: c_int = 1;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// Map `len` bytes: `file` shared, or fresh private zero pages.
    pub(super) fn map(len: usize, file: Option<&File>) -> io::Result<NonNull<u8>> {
        let (flags, fd) = match file {
            Some(f) => (MAP_SHARED, f.as_raw_fd()),
            None => (MAP_PRIVATE | MAP_ANONYMOUS, -1),
        };
        // Safety: plain mmap of a file we own a handle to, or of no
        // file; failure is reported, success hands us `len` mapped
        // bytes.
        let p = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, fd, 0) };
        if p as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        NonNull::new(p as *mut u8).ok_or_else(|| io::Error::other("mmap returned null"))
    }

    pub(super) unsafe fn unmap(base: *mut u8, len: usize) {
        // Safety: caller passes a live mapping of exactly `len` bytes.
        unsafe { munmap(base as *mut c_void, len) };
    }

    pub(super) fn memfd(len: usize) -> io::Result<File> {
        let name = b"ppc-seg\0";
        // Safety: memfd_create with a NUL-terminated static name.
        let fd = unsafe {
            syscall(SYS_MEMFD_CREATE, name.as_ptr() as *const c_char, 0 as c_uint)
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Safety: fresh fd owned by us.
        let file = unsafe { File::from_raw_fd(fd as c_int) };
        file.set_len(len as u64)?;
        Ok(file)
    }

    pub(super) fn futex_wait(
        word: &AtomicU32,
        expected: u32,
        timeout: Option<Duration>,
    ) -> bool {
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        });
        let tsp = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
        // Safety: `word` outlives the call; the kernel compares and
        // sleeps atomically. EAGAIN (value changed), EINTR, and
        // ETIMEDOUT are all normal returns — callers re-check state.
        unsafe {
            syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAIT, expected, tsp);
        }
        word.load(Ordering::Acquire) != expected
    }

    pub(super) fn futex_wake(word: &AtomicU32, n: u32) -> u32 {
        // The kernel takes nr_wake as a signed int: an unclamped
        // `u32::MAX as c_int` is -1, which wakes at most ONE waiter —
        // silently breaking the wake-all idiom every shutdown/doorbell
        // call site relies on.
        let n = n.min(i32::MAX as u32) as c_int;
        // Safety: `word` outlives the call.
        let r = unsafe { syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAKE, n) };
        if r < 0 {
            0
        } else {
            r as u32
        }
    }

    pub(super) fn membarrier(register: bool) -> bool {
        // MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, _PRIVATE_EXPEDITED.
        let cmd: c_int = if register { 16 } else { 8 };
        // Safety: no pointer arguments; `flags` and `cpu_id` are 0.
        unsafe { syscall(SYS_MEMBARRIER, cmd, 0 as c_uint, 0 as c_int) == 0 }
    }

    pub(super) fn pid_alive(pid: u32) -> bool {
        if pid == 0 {
            return false;
        }
        // Safety: signal 0 performs existence + permission checks only.
        let r = unsafe { kill(pid as c_int, 0) };
        if r == 0 {
            return true;
        }
        // EPERM means "exists, not ours" — still alive.
        std::io::Error::last_os_error().raw_os_error() == Some(1)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portability shim: keeps the crate building (and the in-process
    //! tests running) off Linux. Cross-process segments degrade to
    //! temp-file mappings via std (unsupported — `map_shared` errors),
    //! and futex waits become bounded sleep-polls.

    use std::fs::File;
    use std::io;
    use std::ptr::NonNull;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::{Duration, Instant};

    pub(super) fn map(_len: usize, _file: Option<&File>) -> io::Result<NonNull<u8>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory segments require Linux",
        ))
    }

    pub(super) unsafe fn unmap(_base: *mut u8, _len: usize) {}

    pub(super) fn memfd(_len: usize) -> io::Result<File> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memfd segments require Linux",
        ))
    }

    pub(super) fn futex_wait(
        word: &AtomicU32,
        expected: u32,
        timeout: Option<Duration>,
    ) -> bool {
        let deadline = timeout.map(|d| Instant::now() + d);
        while word.load(Ordering::Acquire) == expected {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    pub(super) fn futex_wake(_word: &AtomicU32, _n: u32) -> u32 {
        0
    }

    pub(super) fn pid_alive(_pid: u32) -> bool {
        false
    }

    pub(super) fn membarrier(_register: bool) -> bool {
        false
    }
}

/// Compile-time layout lock-down for a segment-resident type: size,
/// alignment, and (optionally) field offsets. Layout drift across a
/// refactor becomes a build error on **both** sides of the boundary
/// instead of cross-process UB.
#[macro_export]
macro_rules! assert_segment_layout {
    ($t:ty { size: $size:expr, align: $align:expr $(, $field:ident: $off:expr)* $(,)? }) => {
        const _: () = {
            assert!(
                std::mem::size_of::<$t>() == $size,
                concat!("segment layout drift: size_of ", stringify!($t)),
            );
            assert!(
                std::mem::align_of::<$t>() == $align,
                concat!("segment layout drift: align_of ", stringify!($t)),
            );
            $(assert!(
                std::mem::offset_of!($t, $field) == $off,
                concat!(
                    "segment layout drift: offset_of ",
                    stringify!($t), ".", stringify!($field)
                ),
            );)*
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn anon_segment_maps_and_is_zeroed() {
        let seg = Segment::anon(1 << 16).unwrap();
        assert_eq!(seg.len(), 1 << 16);
        // Safety: no concurrent writers.
        let bytes = unsafe { seg.bytes() };
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn create_open_share_bytes_and_unlink_on_drop() {
        let path = segment_dir().join(format!("ppc-shm-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let a = Segment::create(&path, 4096).unwrap();
        // Safety: single-threaded test; offset 0 is in bounds.
        unsafe { *a.base() = 0xAB };
        let b = Segment::open(&path).unwrap();
        // Safety: as above.
        assert_eq!(unsafe { *b.base() }, 0xAB);
        drop(a);
        assert!(!path.exists(), "creator unlinks on drop");
        // The peer's mapping stays valid after the unlink.
        // Safety: as above.
        assert_eq!(unsafe { *b.base() }, 0xAB);
    }

    #[test]
    fn segref_resolves_typed_offsets() {
        let seg = Segment::anon(4096).unwrap();
        let r: SegRef<AtomicU32> = SegRef::new(SegOffset(64));
        // Safety: offset 64 is in bounds and aligned; zeroed memory is a
        // valid AtomicU32.
        let w = unsafe { r.resolve(&seg) };
        w.store(7, Ordering::Relaxed);
        // Safety: as above.
        assert_eq!(unsafe { *(seg.base().add(64) as *const u32) }, 7);
    }

    #[test]
    fn futex_wake_crosses_threads() {
        let seg = Segment::anon(4096).unwrap();
        let r: SegRef<AtomicU32> = SegRef::new(SegOffset(0));
        // Safety: in-bounds, aligned, zero-initialized.
        let word = unsafe { r.resolve(&seg) };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                while word.load(Ordering::Acquire) == 0 {
                    futex_wait(word, 0, Some(Duration::from_millis(50)));
                }
            });
            std::thread::sleep(Duration::from_millis(10));
            word.store(1, Ordering::Release);
            futex_wake(word, u32::MAX);
            waiter.join().unwrap(); // by hand: TSan sees `pthread_join`
        });
        assert_eq!(word.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pid_alive_sees_self_and_not_garbage() {
        assert!(pid_alive(std::process::id()));
        assert!(!pid_alive(0));
    }
}
