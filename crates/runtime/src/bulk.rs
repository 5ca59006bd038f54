//! The payload plane: per-vCPU size-classed buffer pools behind
//! [`crate::Client::call_bulk`].
//!
//! PR 1 made the *control* plane (8 words each way) lock-free and
//! shared-nothing; this module applies the same discipline to payloads.
//! Buffers are allocated 64-byte aligned in power-of-four-ish size
//! classes, pooled **per virtual processor**, and recycled without ever
//! crossing CPUs — the CD-pool discipline applied to bulk data. A pool
//! miss is a Frank slow-path event: the buffer is allocated on demand
//! (and counted), exactly like worker/CD growth. Bytes move with the
//! standard library's `copy_nonoverlapping` (`memcpy`) and
//! `swap_nonoverlapping`.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::Arc;

use crossbeam::queue::ArrayQueue;

use crate::region::RegionRegistry;
use crate::stats::{RuntimeStats, StatsCell};

/// Pool buffer alignment: one cache line, so DMA-style word copies never
/// straddle a line at the buffer head.
pub const BULK_ALIGN: usize = 64;

/// The size classes, 64 B – 1 MiB. A request takes the smallest class
/// that fits; anything larger than the top class is refused (the paper's
/// `MAX_COPY` cap).
pub const SIZE_CLASSES: [usize; 8] =
    [64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// Per-class pool depth: enough to keep a ping-pong workload warm without
/// letting the big classes pin tens of megabytes per vCPU.
fn class_depth(class: usize) -> usize {
    ((4 << 20) / SIZE_CLASSES[class]).clamp(2, 64)
}

/// The class index for a request of `len` bytes, or `None` if it exceeds
/// the top class.
pub fn class_for(len: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|c| len <= *c)
}

/// Who last held a [`PoolBuf`]'s contents — the input to the
/// cross-program scrub decision in [`PoolBuf::bind_owner`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum BufOwner {
    /// Fresh allocation, still all-zero: safe for any program as is.
    Fresh,
    /// Used outside the region machinery (e.g. as server scratch via
    /// [`PoolBuf::as_mut_slice`]): contents unknown, scrub before any
    /// region registration.
    Unbound,
    /// Last registered as a region by this program: its own leftovers,
    /// the serially-shared-stacks caveat applies within the program.
    Program(crate::ProgramId),
}

/// A pooled, 64-byte-aligned byte buffer. Dropping it outside a pool
/// frees the allocation; returning it via [`BufferPool::put`] recycles
/// it. Contents persist across recycling **within one program** (the
/// serially-shared-stacks caveat from §2 applies to payload buffers
/// too); a region registration that rebinds the buffer to a different
/// program scrubs it first, so payload bytes never leak across the
/// program boundary the grant model enforces.
pub struct PoolBuf {
    ptr: NonNull<u8>,
    class: u8,
    owner: BufOwner,
    /// Capacity override for foreign (non-owned) memory; 0 for pooled
    /// buffers, whose capacity is their class size.
    foreign_len: u32,
}

/// Class sentinel marking a [`PoolBuf`] that *borrows* foreign memory
/// (e.g. a span of a shared segment) instead of owning a heap
/// allocation: never deallocated, never pooled.
const FOREIGN_CLASS: u8 = u8::MAX;

// Safety: the buffer is a plain owned allocation.
unsafe impl Send for PoolBuf {}

impl PoolBuf {
    fn alloc(class: usize) -> PoolBuf {
        let layout = Self::layout(class);
        // Safety: layout has non-zero size. Zeroed so the buffer is fully
        // initialized from birth — `as_mut_slice` is sound, and a fresh
        // region never leaks a previous allocation's bytes.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw) else { handle_alloc_error(layout) };
        PoolBuf { ptr, class: class as u8, owner: BufOwner::Fresh, foreign_len: 0 }
    }

    /// Wrap `len` bytes of foreign memory (a shared-segment span) as a
    /// region backing. The buffer borrows: dropping it never
    /// deallocates, and [`BufferPool::put`] refuses to pool it. The
    /// contents are attributed to `program` up front (the segment
    /// creator zeroed the span), so registration does not scrub memory
    /// another process may already be reading.
    ///
    /// # Safety
    /// `ptr` must point to at least `len` writable bytes that outlive
    /// every region registered over this buffer (the transport keeps
    /// the segment mapped for the server's lifetime).
    pub(crate) unsafe fn foreign(
        ptr: NonNull<u8>,
        len: usize,
        program: crate::ProgramId,
    ) -> PoolBuf {
        PoolBuf {
            ptr,
            class: FOREIGN_CLASS,
            owner: BufOwner::Program(program),
            foreign_len: len as u32,
        }
    }

    /// Whether this buffer borrows foreign memory (see
    /// [`PoolBuf::foreign`]).
    pub(crate) fn is_foreign(&self) -> bool {
        self.class == FOREIGN_CLASS
    }

    /// Claim the buffer for a region owned by `program`. Recycled
    /// contents left by a *different* program (or by scratch use outside
    /// the region machinery) are zeroed — the whole capacity, not just
    /// the new region's length, because a later same-program
    /// re-registration may expose more of the buffer. Fresh allocations
    /// are already zero; same-program recycling keeps its bytes.
    pub(crate) fn bind_owner(&mut self, program: crate::ProgramId) {
        match self.owner {
            BufOwner::Fresh => {}
            BufOwner::Program(p) if p == program => {}
            _ => {
                // Safety: owned allocation of `cap()` bytes.
                unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, self.cap()) };
            }
        }
        self.owner = BufOwner::Program(program);
    }

    fn layout(class: usize) -> Layout {
        Layout::from_size_align(SIZE_CLASSES[class], BULK_ALIGN).expect("valid bulk layout")
    }

    /// Capacity (the class size — at least what was requested — or the
    /// foreign span length).
    pub fn cap(&self) -> usize {
        if self.class == FOREIGN_CLASS {
            self.foreign_len as usize
        } else {
            SIZE_CLASSES[self.class as usize]
        }
    }

    pub(crate) fn as_mut_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// The whole buffer as a mutable slice (servers using pooled buffers
    /// as private scratch).
    /// Marks the contents unknown: if the buffer later backs a region,
    /// `PoolBuf::bind_owner` scrubs it first.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // Whatever gets written here (possibly another program's data) is
        // not attributable to the last region owner any more.
        self.owner = BufOwner::Unbound;
        // Safety: owned, fully initialized allocation of `cap()` bytes.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.cap()) }
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        // Foreign memory is borrowed, not owned: the segment mapping
        // frees it.
        if self.class == FOREIGN_CLASS {
            return;
        }
        // Safety: allocated with the identical layout in `alloc`.
        unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.class as usize)) };
    }
}

/// One vCPU's payload-buffer pool: a lock-free queue per size class.
pub struct BufferPool {
    classes: Vec<ArrayQueue<PoolBuf>>,
}

impl BufferPool {
    /// An empty pool (buffers are created on first miss — the same lazy
    /// growth as the CD pools).
    pub fn new() -> BufferPool {
        BufferPool {
            classes: (0..SIZE_CLASSES.len()).map(|c| ArrayQueue::new(class_depth(c))).collect(),
        }
    }

    /// Take a buffer of at least `len` bytes: lock-free pop on a hit, a
    /// counted Frank slow-path allocation on a miss. `None` when `len`
    /// exceeds the top size class.
    pub fn take(&self, len: usize, cell: &StatsCell) -> Option<PoolBuf> {
        let class = class_for(len)?;
        let who = crate::claims::token();
        match self.classes[class].pop() {
            Some(b) => {
                cell.add(who, |c| &c.bulk_pool_hits, 1);
                Some(b)
            }
            None => {
                cell.add(who, |c| &c.bulk_pool_misses, 1);
                cell.add(who, |c| &c.frank_redirects, 1);
                Some(PoolBuf::alloc(class))
            }
        }
    }

    /// Recycle a buffer (dropped — freed — when its class queue is full:
    /// surplus reclamation, as with workers and CDs).
    pub fn put(&self, buf: PoolBuf) {
        // Foreign (segment-backed) buffers are borrows: dropping them
        // releases nothing, and pooling one would hand segment memory
        // to an unrelated region after the segment unmaps.
        if buf.is_foreign() {
            return;
        }
        let _ = self.classes[buf.class as usize].push(buf);
    }

    /// Pooled buffers in `class` (diagnostics).
    pub fn idle_in_class(&self, class: usize) -> usize {
        self.classes[class].len()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

/// The runtime's bulk-data state: one registry and one buffer pool per
/// virtual processor, plus the sharded stats the engine accounts to.
/// Shared into every bound entry so handlers reach it without a back
/// reference to the [`crate::Runtime`].
pub struct BulkState {
    registries: Vec<RegionRegistry>,
    pools: Vec<BufferPool>,
    pub(crate) stats: Arc<RuntimeStats>,
}

impl BulkState {
    pub(crate) fn new(n_vcpus: usize, stats: Arc<RuntimeStats>) -> Arc<BulkState> {
        Arc::new(BulkState {
            registries: (0..n_vcpus).map(|_| RegionRegistry::new()).collect(),
            pools: (0..n_vcpus).map(|_| BufferPool::new()).collect(),
            stats,
        })
    }

    /// vCPU `v`'s region registry.
    pub fn registry(&self, v: usize) -> &RegionRegistry {
        &self.registries[v]
    }

    /// vCPU `v`'s payload-buffer pool.
    pub fn pool(&self, v: usize) -> &BufferPool {
        &self.pools[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_and_align() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(64), Some(0));
        assert_eq!(class_for(65), Some(1));
        assert_eq!(class_for(1 << 20), Some(SIZE_CLASSES.len() - 1));
        assert_eq!(class_for((1 << 20) + 1), None);
        let cell = StatsCell::default();
        let pool = BufferPool::new();
        for len in [1usize, 64, 100, 4096, 1 << 20] {
            let b = pool.take(len, &cell).unwrap();
            assert!(b.cap() >= len);
            assert_eq!(b.as_mut_ptr() as usize % BULK_ALIGN, 0, "64-byte aligned");
            pool.put(b);
        }
        // Four class-cold takes missed; the second class-0 take (len 64,
        // after len 1 recycled its buffer) hit.
        assert_eq!(cell.snapshot().bulk_pool_misses, 4);
        assert_eq!(cell.snapshot().bulk_pool_hits, 1);
        let b = pool.take(4096, &cell).unwrap();
        assert_eq!(cell.snapshot().bulk_pool_hits, 2);
        pool.put(b);
    }

    #[test]
    fn bind_owner_scrubs_cross_program_leftovers() {
        let cell = StatsCell::default();
        let pool = BufferPool::new();
        let mut b = pool.take(256, &cell).unwrap();
        b.bind_owner(7);
        // Region-style write through the raw pointer (what a registered
        // region's fill/copy path does).
        unsafe { b.as_mut_ptr().write(42) };
        // Same-program rebind keeps the bytes (serially-shared caveat).
        b.bind_owner(7);
        assert_eq!(unsafe { b.as_mut_ptr().read() }, 42);
        // Cross-program rebind scrubs the whole capacity.
        b.bind_owner(8);
        assert_eq!(unsafe { b.as_mut_ptr().read() }, 0);
        // Scratch use leaves unattributable contents: the next region
        // bind scrubs even for the same program.
        b.as_mut_slice()[0] = 9;
        b.bind_owner(8);
        assert_eq!(unsafe { b.as_mut_ptr().read() }, 0);
    }

    /// `copy_from`, `copy_to` and `exchange_bulk` move exactly the
    /// span's bytes: at odd offsets on either side, at 0 B, and past
    /// 64 KiB.
    #[test]
    fn copy_and_exchange_spans() {
        use std::sync::Mutex;
        const LEN: usize = (64 << 10) + 128;
        let rt = crate::Runtime::new(1);
        // The handler's own memory, beside the caller's region.
        let server = Arc::new(Mutex::new(vec![0u8; LEN]));
        let mem = Arc::clone(&server);
        let h: crate::Handler = Arc::new(move |c| {
            let desc = c.bulk_desc().unwrap();
            let (off, len) = (c.args[1] as usize, c.args[2] as usize);
            let span = &mut mem.lock().unwrap()[off..off + len];
            let n = match c.args[0] {
                0 => c.copy_from(desc, span),
                1 => c.copy_to(desc, span),
                _ => c.exchange_bulk(desc, span),
            };
            [n.unwrap() as u64; 8]
        });
        let ep = rt.bind("copy", crate::EntryOptions::default(), h).unwrap();
        let client = rt.client(0, 1);
        let region = client.bulk_register(LEN).unwrap();
        region.grant(ep, true).unwrap();
        let (a, b): (Vec<u8>, Vec<u8>) = (0..LEN).map(|i| ((i * 7) as u8, (i * 3 + 1) as u8)).unzip();
        for (reg_off, buf_off, len) in
            [(0usize, 0usize, 4096usize), (1, 1, 1000), (1, 2, 777), (0, 0, (64 << 10) + 123), (3, 3, 0)]
        {
            for op in 0..3u64 {
                region.fill(0, &a).unwrap();
                server.lock().unwrap().copy_from_slice(&b);
                let desc = region.desc(reg_off as u32, len as u32, true);
                let args = [op, buf_off as u64, len as u64, 0, 0, 0, 0, 0];
                assert_eq!(client.call_bulk(ep, args, desc).unwrap()[0], len as u64);
                let (mut want_reg, mut want_buf) = (a.clone(), b.clone());
                let (reg, buf) = (reg_off..reg_off + len, buf_off..buf_off + len);
                match op {
                    0 => want_buf[buf.clone()].copy_from_slice(&a[reg]),
                    1 => want_reg[reg].copy_from_slice(&b[buf]),
                    _ => {
                        want_reg[reg.clone()].copy_from_slice(&b[buf.clone()]);
                        want_buf[buf].copy_from_slice(&a[reg]);
                    }
                }
                let mut got = vec![0u8; LEN];
                region.read_into(0, &mut got).unwrap();
                let case = format!("op {op} ({reg_off},{buf_off},{len})");
                assert!(got == want_reg, "region after {case}");
                assert!(*server.lock().unwrap() == want_buf, "handler memory after {case}");
            }
        }
    }
}
