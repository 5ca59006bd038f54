//! Grant-backed shared regions — the paper's V-style region permissions
//! (§4.2) rebuilt for the real-threads runtime.
//!
//! The simulator's Copy Server keeps one global `ppc-core` grant table
//! behind shared mutable state; that is exactly what the runtime's "a PPC
//! accesses no shared data" discipline forbids on a hot path. Here every
//! virtual processor owns a [`RegionRegistry`]: a fixed array of region
//! slots whose *read* path (the per-transfer authorization check) is
//! lock-free, while the *write* path (register, grant, revoke,
//! unregister — all cold) serializes on a per-registry mutex.
//!
//! Each slot synchronises on one access word beside its state pointer:
//!
//! 1. an accessor announces itself in the slot's `access` word — *read*
//!    accesses share (a counter in the low bits), *write* accesses are
//!    **exclusive** against every other access to the slot (bit 31),
//!    because the in-place APIs ([`crate::CallCtx::with_bulk_mut`],
//!    [`crate::BulkRegion::with_bytes`]) materialize `&mut [u8]` over the
//!    span and two overlapping writers (or a writer racing a reader)
//!    would be undefined behavior, not just a torn transfer;
//! 2. once announced, it dereferences the published `RegionState`,
//!    checks its authorization and performs its copy under it; dropping
//!    the access withdraws the announcement;
//! 3. a registry writer sets bit 30 *first* (new accesses see it and back
//!    off: writer preference), waits until the word reads exactly bit 30
//!    (every announced access has dropped), swaps the state, frees the
//!    old one, and clears bit 30.
//!
//! The drain means a grant, revoke or unregister **waits for in-flight
//! transfers to finish** — they complete, and are acknowledged, under the
//! authorization they began with — and no transfer can begin under the
//! old state once the write has returned: after `revoke` returns no copy
//! succeeds, the property the revocation stress test pins. State boxes
//! are freed eagerly (the drain guarantees no reader holds them); the
//! region's backing buffer returns to its vCPU's pool only at
//! unregister.
//!
//! Because drains and write exclusivity block, a thread that already
//! holds an `Access` on a slot must not begin a conflicting access or a
//! registry write on the *same* slot — that is a self-deadlock. A
//! per-thread ledger of live accesses turns those cycles into
//! [`RtError::BulkReentrant`] instead of an infinite spin.

use std::cell::RefCell;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};

use crate::bulk::PoolBuf;
use crate::{EntryId, ProgramId, RtError};

/// Region identifier, small and per-vCPU (< [`MAX_REGIONS`]).
pub type RegionId = u16;

/// Regions per virtual processor.
pub const MAX_REGIONS: usize = 256;

/// Largest single bulk transfer (mirrors `ppc-core`'s `MAX_COPY`).
pub const MAX_BULK: usize = 1 << 20;

/// A bulk-transfer descriptor: which region, which span, and whether the
/// server may write. Packs into **one argument word**, so it rides in the
/// existing 8-word frame (`args[7]` by convention, see
/// [`crate::Client::call_bulk`]) and every dispatch mode from the hand-off
/// fast path — inline, spin-then-park, park — carries it unchanged.
///
/// Layout (LSB first): `len:24 | offset:24 | region:12 | write:1 | tag:3`.
/// The tag distinguishes a descriptor from an arbitrary argument word;
/// [`BulkDesc::decode`] returns `None` for non-descriptor words (zero
/// included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BulkDesc {
    /// The region being shared.
    pub region: RegionId,
    /// Byte offset of the span within the region.
    pub offset: u32,
    /// Span length in bytes.
    pub len: u32,
    /// Whether the server side may write the span.
    pub write: bool,
}

/// Tag in the top 3 bits marking a word as an encoded descriptor.
const DESC_TAG: u64 = 0b101;
/// 24-bit field mask (offset and length).
const FIELD24: u64 = (1 << 24) - 1;
/// 12-bit region-id mask.
const REGION12: u64 = (1 << 12) - 1;

impl BulkDesc {
    /// A read-only descriptor covering `[offset, offset + len)`.
    pub fn read(region: RegionId, offset: u32, len: u32) -> BulkDesc {
        BulkDesc { region, offset, len, write: false }
    }

    /// A read-write descriptor covering `[offset, offset + len)`.
    pub fn write(region: RegionId, offset: u32, len: u32) -> BulkDesc {
        BulkDesc { region, offset, len, write: true }
    }

    /// Pack into one argument word. `None` when a field exceeds its bit
    /// budget (offset or length ≥ 2²⁴, region ≥ 2¹²) — rejected in
    /// release builds too, so an oversized descriptor can never silently
    /// encode a different, smaller span.
    pub fn encode(self) -> Option<u64> {
        if u64::from(self.offset) > FIELD24
            || u64::from(self.len) > FIELD24
            || u64::from(self.region) > REGION12
        {
            return None;
        }
        Some(
            (DESC_TAG << 61)
                | ((self.write as u64) << 60)
                | (u64::from(self.region) << 48)
                | (u64::from(self.offset) << 24)
                | u64::from(self.len),
        )
    }

    /// Unpack an argument word; `None` when the word is not a descriptor.
    pub fn decode(w: u64) -> Option<BulkDesc> {
        if w >> 61 != DESC_TAG {
            return None;
        }
        Some(BulkDesc {
            region: ((w >> 48) & REGION12) as RegionId,
            offset: ((w >> 24) & FIELD24) as u32,
            len: (w & FIELD24) as u32,
            write: (w >> 60) & 1 == 1,
        })
    }
}

/// One permission: `grantee` (bound by `grantee_program` at grant time)
/// may access the region, writing if `write` — the runtime restatement of
/// `ppc-core`'s `Grant`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GrantSpec {
    grantee: EntryId,
    grantee_program: ProgramId,
    write: bool,
}

/// Published, immutable-after-publish view of one region. Replaced
/// wholesale (copy-on-write) by the cold write path; readers only ever
/// dereference it while their access is announced.
struct RegionState {
    mem: *mut u8,
    len: usize,
    owner: ProgramId,
    grants: Vec<GrantSpec>,
}

/// Bit of [`RegionSlot::access`] held by an exclusive (write) access.
const WRITE_ACCESS: u32 = 1 << 31;
/// Bit of [`RegionSlot::access`] held by a registry writer while it
/// drains the slot and swaps its state.
const REGISTRY_WRITE: u32 = 1 << 30;
/// The bits that keep a new access out.
const BLOCKING: u32 = WRITE_ACCESS | REGISTRY_WRITE;

/// One region slot: the access word and the published state. The slot's
/// only synchronisation is `access`: its low bits count shared (read)
/// accesses, [`WRITE_ACCESS`] is set while an exclusive (write) access
/// holds the slot, and [`REGISTRY_WRITE`] while a registry writer drains
/// it.
#[derive(Default)]
struct RegionSlot {
    access: AtomicU32,
    state: AtomicPtr<RegionState>,
}

/// Per-thread ledger of live [`Access`]es, keyed by slot address with the
/// access's write-ness in bit 0 (slots are line-pair aligned, the bit is
/// free). Fixed-size — no allocation ever, so begin/drop stay legal on
/// the allocation-free warm path; nesting deeper than the window falls
/// back to an untracked count so the books still balance (conflict checks
/// then miss those entries, which only weakens deadlock *detection*,
/// never soundness — the slot's access word still enforces exclusion).
const MAX_TRACKED_ACCESSES: usize = 16;

struct AccessLedger {
    slots: [usize; MAX_TRACKED_ACCESSES],
    n: usize,
    untracked: usize,
}

thread_local! {
    static LIVE_ACCESSES: RefCell<AccessLedger> = const {
        RefCell::new(AccessLedger { slots: [0; MAX_TRACKED_ACCESSES], n: 0, untracked: 0 })
    };
}

fn ledger_key(slot: &RegionSlot, write: bool) -> usize {
    (slot as *const RegionSlot as usize) | usize::from(write)
}

fn ledger_push(slot: &RegionSlot, write: bool) {
    LIVE_ACCESSES.with(|l| {
        let mut l = l.borrow_mut();
        if l.n < MAX_TRACKED_ACCESSES {
            let n = l.n;
            l.slots[n] = ledger_key(slot, write);
            l.n = n + 1;
        } else {
            l.untracked += 1;
        }
    });
}

fn ledger_pop(slot: &RegionSlot, write: bool) {
    LIVE_ACCESSES.with(|l| {
        let mut l = l.borrow_mut();
        let key = ledger_key(slot, write);
        if let Some(i) = l.slots[..l.n].iter().rposition(|s| *s == key) {
            l.slots[i] = l.slots[l.n - 1];
            l.n -= 1;
        } else {
            l.untracked -= 1;
        }
    });
}

/// Whether this thread already holds an access on `slot` that a new
/// operation would deadlock against: any access blocks a registry write
/// or a write access (`write_wanted`), only a write access blocks a read.
fn ledger_conflicts(slot: &RegionSlot, write_wanted: bool) -> bool {
    let addr = slot as *const RegionSlot as usize;
    LIVE_ACCESSES.with(|l| {
        let l = l.borrow();
        l.slots[..l.n]
            .iter()
            .any(|s| (s & !1) == addr && (write_wanted || s & 1 == 1))
    })
}

/// Cold-path registry state, serialized behind the writer mutex.
struct RegistryCold {
    /// Free region IDs.
    free: Vec<RegionId>,
    /// Backing buffers, indexed by region ID (owned here until
    /// unregister hands them back to the vCPU's pool).
    bufs: Vec<Option<PoolBuf>>,
}

/// The per-vCPU region registry: lock-free reads, mutexed cold writes.
/// Each slot has a line pair of its own, so accesses to neighbouring
/// regions never share a line.
pub struct RegionRegistry {
    slots: Box<[CachePadded<RegionSlot>]>,
    cold: Mutex<RegistryCold>,
}

/// An in-flight authorized access to a region span. Holding it keeps the
/// backing memory alive and the authorization it was granted under in
/// force (registry writers drain accesses before they swap or free
/// anything); dropping it withdraws the announcement. A write access
/// additionally holds the slot's [`WRITE_ACCESS`] bit, excluding every
/// other access for its duration.
pub(crate) struct Access<'a> {
    slot: &'a RegionSlot,
    /// Whether this access holds the slot exclusively.
    write: bool,
    /// Start of the authorized span.
    pub(crate) ptr: *mut u8,
    /// Length of the authorized span.
    pub(crate) len: usize,
}

impl Drop for Access<'_> {
    fn drop(&mut self) {
        ledger_pop(self.slot, self.write);
        // Release: orders the transfer's memory operations before a
        // writer's observation of the drained word (and any free that
        // follows it).
        let held = if self.write { WRITE_ACCESS } else { 1 };
        self.slot.access.fetch_sub(held, Ordering::Release);
    }
}

impl RegionRegistry {
    /// An empty registry with [`MAX_REGIONS`] slots.
    pub(crate) fn new() -> RegionRegistry {
        RegionRegistry {
            slots: (0..MAX_REGIONS).map(|_| CachePadded::default()).collect(),
            cold: Mutex::new(RegistryCold {
                free: (0..MAX_REGIONS as RegionId).rev().collect(),
                bufs: (0..MAX_REGIONS).map(|_| None).collect(),
            }),
        }
    }

    /// Register `buf` as a region of `len` bytes owned by `owner`.
    /// Cold path (mutex). Errors with [`RtError::TableFull`] when all
    /// [`MAX_REGIONS`] slots are taken.
    pub(crate) fn register(
        &self,
        buf: PoolBuf,
        len: usize,
        owner: ProgramId,
    ) -> Result<RegionId, RtError> {
        debug_assert!(len <= buf.cap());
        let mut cold = self.cold.lock();
        let id = cold.free.pop().ok_or(RtError::TableFull)?;
        let state = Box::new(RegionState {
            mem: buf.as_mut_ptr(),
            len,
            owner,
            grants: Vec::new(),
        });
        cold.bufs[id as usize] = Some(buf);
        // The slot was free: no state pointer, so no access gets past the
        // null check and there is nothing to drain or free.
        let prev = self.slots[id as usize].state.swap(Box::into_raw(state), Ordering::Release);
        debug_assert!(prev.is_null());
        Ok(id)
    }

    /// Replace `id`'s published state by `f`'s (`None` empties the slot)
    /// and return the cold state, still locked. `by` must own the region.
    /// Cold path: bit 30 goes up, announced accesses drain (new ones see
    /// the bit and back off), the state is swapped and the old box freed
    /// (safe — no reader can hold it past the drain), the bit comes down.
    /// Errors with [`RtError::BulkReentrant`] when the calling thread
    /// itself holds an in-flight access on the slot — the drain would
    /// never finish.
    fn mutate(
        &self,
        id: RegionId,
        by: ProgramId,
        f: impl FnOnce(&RegionState) -> Option<RegionState>,
    ) -> Result<MutexGuard<'_, RegistryCold>, RtError> {
        let slot = self.slots.get(id as usize).ok_or(RtError::BadBulk)?;
        if ledger_conflicts(slot, true) {
            return Err(RtError::BulkReentrant(id));
        }
        let cold = self.cold.lock();
        let cur = slot.state.load(Ordering::Acquire);
        if cur.is_null() {
            return Err(RtError::BadBulk);
        }
        // Safety: non-null states are only freed under this mutex, after
        // a drain; we hold the mutex.
        let cur_ref = unsafe { &*cur };
        if cur_ref.owner != by {
            return Err(RtError::NotOwner);
        }
        let next = f(cur_ref).map_or(std::ptr::null_mut(), |st| Box::into_raw(Box::new(st)));
        slot.access.fetch_or(REGISTRY_WRITE, Ordering::SeqCst);
        // Acquire: pairs with each access's releasing drop, so every
        // transfer under `cur` happens before the free below.
        while slot.access.load(Ordering::Acquire) != REGISTRY_WRITE {
            std::hint::spin_loop();
        }
        slot.state.store(next, Ordering::Release);
        // Safety: drained — no reader holds `cur`.
        unsafe { drop(Box::from_raw(cur)) };
        // Release: an access that announces after this sees `next`.
        slot.access.fetch_and(!REGISTRY_WRITE, Ordering::Release);
        Ok(cold)
    }

    /// Grant `grantee` (currently owned by `grantee_program`) access to
    /// the whole region; `write` allows the server to modify it.
    pub(crate) fn grant(
        &self,
        id: RegionId,
        by: ProgramId,
        grantee: EntryId,
        grantee_program: ProgramId,
        write: bool,
    ) -> Result<(), RtError> {
        self.mutate(id, by, |cur| {
            let mut grants = cur.grants.clone();
            grants.retain(|g| g.grantee != grantee);
            grants.push(GrantSpec { grantee, grantee_program, write });
            Some(RegionState { mem: cur.mem, len: cur.len, owner: cur.owner, grants })
        })
        .map(drop)
    }

    /// Revoke every grant `id → grantee`. Returns how many were removed.
    /// Waits for in-flight transfers to finish (they complete under the
    /// grant they began with); once this returns, no transfer under the
    /// revoked grant can succeed.
    pub(crate) fn revoke(
        &self,
        id: RegionId,
        by: ProgramId,
        grantee: EntryId,
    ) -> Result<usize, RtError> {
        let mut removed = 0;
        self.mutate(id, by, |cur| {
            let mut grants = cur.grants.clone();
            let before = grants.len();
            grants.retain(|g| g.grantee != grantee);
            removed = before - grants.len();
            Some(RegionState { mem: cur.mem, len: cur.len, owner: cur.owner, grants })
        })?;
        Ok(removed)
    }

    /// Unregister the region, returning its backing buffer for pooling.
    /// Cold path; drains in-flight transfers like any other write.
    pub(crate) fn unregister(&self, id: RegionId, by: ProgramId) -> Result<PoolBuf, RtError> {
        let mut cold = self.mutate(id, by, |_| None)?;
        let buf = cold.bufs[id as usize].take().expect("registered region has a buffer");
        cold.free.push(id);
        Ok(buf)
    }

    /// Begin a lock-free access to `desc`'s span, authorizing `accessor`
    /// (an entry bound by `accessor_program`) against the grants of the
    /// region owned by `granter` — the exact check `ppc-core`'s
    /// `GrantTable::authorizes` performs, minus its lock.
    ///
    /// `owner_access` short-circuits the grant check for the region owner
    /// itself (client-side fill/drain of its own buffer).
    ///
    /// A `write` access is **exclusive** for the whole slot: it waits for
    /// every in-flight access to the region to finish and blocks new ones
    /// until it drops, because write accesses hand out `&mut [u8]` views
    /// (or perform non-atomic stores) that must never alias a concurrent
    /// access to the same bytes. Read accesses share. Exclusivity is
    /// per-slot, not per-span — coarser than strictly necessary, but the
    /// conflict window is one transfer. An access that arrives while a
    /// registry writer drains the slot waits for it and is then checked
    /// against the new state. Beginning an access that conflicts with one
    /// this thread already holds returns [`RtError::BulkReentrant`]
    /// instead of deadlocking.
    pub(crate) fn begin(
        &self,
        desc: BulkDesc,
        accessor: EntryId,
        accessor_program: ProgramId,
        granter: ProgramId,
        write: bool,
        owner_access: bool,
    ) -> Result<Access<'_>, RtError> {
        let slot = self.slots.get(desc.region as usize).ok_or(RtError::BadBulk)?;
        if write && !desc.write && !owner_access {
            // The descriptor itself caps the server at read-only.
            return Err(RtError::BulkDenied(desc.region));
        }
        if ledger_conflicts(slot, write) {
            // Our own thread holds a conflicting access: waiting for it
            // to drop would wait forever.
            return Err(RtError::BulkReentrant(desc.region));
        }
        loop {
            // Back off on a plain load while the slot is blocked, so a
            // draining registry writer is not hammered by RMWs.
            if slot.access.load(Ordering::Relaxed) & BLOCKING != 0 {
                std::hint::spin_loop();
                continue;
            }
            // Announce. Writes take the slot exclusively (the word must
            // be idle); reads bounce off a held write access or a
            // registry writer. Acquire: a writer that cleared bit 30
            // before this published its state first.
            let announced = if write {
                slot.access
                    .compare_exchange(0, WRITE_ACCESS, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            } else {
                let prev = slot.access.fetch_add(1, Ordering::Acquire);
                prev & BLOCKING == 0 || {
                    slot.access.fetch_sub(1, Ordering::Release);
                    false
                }
            };
            if announced {
                break;
            }
            std::hint::spin_loop();
        }
        ledger_push(slot, write);
        // From here every exit releases the announcement through `Drop`.
        let mut acc = Access { slot, write, ptr: std::ptr::null_mut(), len: 0 };
        let p = slot.state.load(Ordering::Acquire);
        if p.is_null() {
            return Err(RtError::BadBulk);
        }
        // Safety: our announcement precedes any registry writer's drain,
        // so it cannot swap or free `p` until we drop.
        let st = unsafe { &*p };
        let authorized = if owner_access {
            st.owner == accessor_program
        } else {
            st.owner == granter
                && st.grants.iter().any(|g| {
                    g.grantee == accessor
                        && g.grantee_program == accessor_program
                        && (!write || g.write)
                })
        };
        if !authorized {
            return Err(RtError::BulkDenied(desc.region));
        }
        // Overflow-proof span check (checked_add: a forged descriptor
        // must fail, not wrap).
        let (off, len) = (desc.offset as usize, desc.len as usize);
        if !off.checked_add(len).is_some_and(|end| end <= st.len && len <= MAX_BULK) {
            return Err(RtError::BadBulk);
        }
        // Safety: off is within the live allocation just validated.
        acc.ptr = unsafe { st.mem.add(off) };
        acc.len = len;
        Ok(acc)
    }

    /// Number of live regions (diagnostics; takes the cold mutex).
    pub fn live(&self) -> usize {
        let cold = self.cold.lock();
        cold.bufs.iter().filter(|b| b.is_some()).count()
    }
}

// Safety: RegionState pointers are managed under the documented
// access-word drain protocol; PoolBuf memory is plain bytes.
unsafe impl Send for RegionRegistry {}
unsafe impl Sync for RegionRegistry {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BufferPool;
    use crate::stats::StatsCell;

    fn buf(pool: &BufferPool, len: usize) -> PoolBuf {
        pool.take(len, &StatsCell::default()).unwrap()
    }

    #[test]
    fn desc_encode_decode_roundtrip() {
        let d = BulkDesc { region: 0xabc, offset: 0x12_3456, len: 0x65_4321, write: true };
        assert_eq!(BulkDesc::decode(d.encode().unwrap()), Some(d));
        let r = BulkDesc::read(3, 64, 4096);
        assert_eq!(BulkDesc::decode(r.encode().unwrap()), Some(r));
        // Ordinary argument words are not descriptors.
        assert_eq!(BulkDesc::decode(0), None);
        assert_eq!(BulkDesc::decode(42), None);
        assert_eq!(BulkDesc::decode(u64::MAX >> 3), None);
        // Fields past their bit budget are rejected, not truncated —
        // release builds included.
        assert_eq!(BulkDesc::read(0, 1 << 24, 4).encode(), None);
        assert_eq!(BulkDesc::read(0, 4, 1 << 24).encode(), None);
        assert_eq!(BulkDesc { region: 1 << 12, offset: 0, len: 4, write: false }.encode(), None);
    }

    #[test]
    fn register_grant_authorize_revoke() {
        let pool = BufferPool::new();
        let reg = RegionRegistry::new();
        let id = reg.register(buf(&pool, 4096), 4096, 10).unwrap();
        assert_eq!(reg.live(), 1);
        let d = BulkDesc::read(id, 0, 4096);

        // No grant yet: server access denied, owner access allowed.
        assert!(matches!(
            reg.begin(d, 5, 20, 10, false, false),
            Err(RtError::BulkDenied(_))
        ));
        reg.begin(d, 0, 10, 10, true, true).unwrap();

        reg.grant(id, 10, 5, 20, false).unwrap();
        reg.begin(d, 5, 20, 10, false, false).unwrap();
        // Write against a read grant: denied.
        let dw = BulkDesc::write(id, 0, 4096);
        assert!(matches!(
            reg.begin(dw, 5, 20, 10, true, false),
            Err(RtError::BulkDenied(_))
        ));
        // Wrong entry, wrong program, wrong granter: denied.
        assert!(reg.begin(d, 6, 20, 10, false, false).is_err());
        assert!(reg.begin(d, 5, 21, 10, false, false).is_err());
        assert!(reg.begin(d, 5, 20, 11, false, false).is_err());

        assert_eq!(reg.revoke(id, 10, 5).unwrap(), 1);
        assert!(reg.begin(d, 5, 20, 10, false, false).is_err());

        // Only the owner may mutate or unregister.
        assert_eq!(reg.grant(id, 99, 5, 20, false), Err(RtError::NotOwner));
        assert_eq!(reg.unregister(id, 99).err(), Some(RtError::NotOwner));
        let b = reg.unregister(id, 10).unwrap();
        assert_eq!(reg.live(), 0);
        assert!(b.cap() >= 4096);
    }

    #[test]
    fn bounds_are_checked_without_overflow() {
        let pool = BufferPool::new();
        let reg = RegionRegistry::new();
        let id = reg.register(buf(&pool, 256), 256, 1).unwrap();
        reg.grant(id, 1, 2, 3, true).unwrap();
        // End-of-region zero-length span: allowed.
        reg.begin(BulkDesc::read(id, 256, 0), 2, 3, 1, false, false).unwrap();
        // One past the end: rejected.
        assert_eq!(
            reg.begin(BulkDesc::read(id, 256, 1), 2, 3, 1, false, false).err(),
            Some(RtError::BadBulk)
        );
        // Offset+len overflowing u32/usize arithmetic: rejected, no wrap.
        let forged = BulkDesc::read(id, FIELD24 as u32, FIELD24 as u32);
        assert_eq!(
            reg.begin(forged, 2, 3, 1, false, false).err(),
            Some(RtError::BadBulk)
        );
        reg.unregister(id, 1).unwrap();
    }

    /// Regression for the aliasing-`&mut` soundness hole: two write
    /// accesses (or a write and a read) to the same slot must never be
    /// live at once, across threads.
    #[test]
    fn write_accesses_are_exclusive_per_slot() {
        use std::sync::atomic::AtomicBool;

        let pool = BufferPool::new();
        let reg = RegionRegistry::new();
        let id = reg.register(buf(&pool, 4096), 4096, 1).unwrap();
        reg.grant(id, 1, 2, 3, true).unwrap();
        let d = BulkDesc::write(id, 0, 4096);
        let writer_live = AtomicBool::new(false);

        std::thread::scope(|s| {
            let mut threads = Vec::new();
            for _ in 0..4 {
                threads.push(s.spawn(|| {
                    for _ in 0..200 {
                        let acc = reg.begin(d, 2, 3, 1, true, false).unwrap();
                        assert!(
                            !writer_live.swap(true, Ordering::SeqCst),
                            "two write accesses overlapped"
                        );
                        // Safety: the exclusivity under test is exactly
                        // what makes this &mut unique.
                        let bytes = unsafe { std::slice::from_raw_parts_mut(acc.ptr, acc.len) };
                        bytes[0] = bytes[0].wrapping_add(1);
                        writer_live.store(false, Ordering::SeqCst);
                        drop(acc);
                    }
                }));
                threads.push(s.spawn(|| {
                    for _ in 0..200 {
                        let acc = reg.begin(d, 2, 3, 1, false, false).unwrap();
                        assert!(
                            !writer_live.load(Ordering::SeqCst),
                            "read access overlapped a write access"
                        );
                        drop(acc);
                    }
                }));
            }
            // Joined by hand (`pthread_join`, which TSan sees) before the
            // region is unregistered below.
            threads.into_iter().for_each(|t| t.join().unwrap());
        });
        reg.unregister(id, 1).unwrap();
    }

    /// A thread holding an access must get an error — not a deadlock —
    /// from conflicting operations on the same slot.
    #[test]
    fn reentrant_conflicts_error_instead_of_deadlocking() {
        let pool = BufferPool::new();
        let reg = RegionRegistry::new();
        let id = reg.register(buf(&pool, 256), 256, 1).unwrap();
        reg.grant(id, 1, 2, 3, true).unwrap();
        let d = BulkDesc::write(id, 0, 256);

        // Holding a read access: another read is fine, a write or any
        // registry mutation on the same slot is a reentrancy error.
        let r1 = reg.begin(d, 2, 3, 1, false, false).unwrap();
        let r2 = reg.begin(d, 2, 3, 1, false, false).unwrap();
        assert_eq!(
            reg.begin(d, 2, 3, 1, true, false).err(),
            Some(RtError::BulkReentrant(id))
        );
        assert_eq!(reg.revoke(id, 1, 2).err(), Some(RtError::BulkReentrant(id)));
        assert_eq!(reg.unregister(id, 1).err(), Some(RtError::BulkReentrant(id)));
        drop((r2, r1));

        // Holding a write access: even a read on the same slot errors.
        let w = reg.begin(d, 2, 3, 1, true, false).unwrap();
        assert_eq!(
            reg.begin(d, 2, 3, 1, false, false).err(),
            Some(RtError::BulkReentrant(id))
        );
        drop(w);

        // Ledger fully drained: everything works again.
        reg.begin(d, 2, 3, 1, true, false).unwrap();
        assert_eq!(reg.revoke(id, 1, 2).unwrap(), 1);
        reg.unregister(id, 1).unwrap();
    }

    /// A grant, revoke or unregister waits for an access it finds in
    /// flight, and an access that arrives meanwhile waits behind it: the
    /// writer is preferred, and the late access sees the new state.
    #[test]
    fn a_registry_write_waits_for_an_in_flight_access() {
        use std::time::Duration;

        let pool = BufferPool::new();
        let reg = RegionRegistry::new();
        let id = reg.register(buf(&pool, 64), 64, 1).unwrap();
        reg.grant(id, 1, 2, 3, false).unwrap();
        let d = BulkDesc::read(id, 0, 64);
        let first = reg.begin(d, 2, 3, 1, false, false).unwrap();
        std::thread::scope(|s| {
            let revoke = s.spawn(|| reg.revoke(id, 1, 2));
            // Let the revoker raise bit 30 and start its drain.
            while reg.slots[id as usize].access.load(Ordering::Acquire) & REGISTRY_WRITE == 0 {
                std::thread::yield_now();
            }
            let late = s.spawn(|| reg.begin(d, 2, 3, 1, false, false).map(drop));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!revoke.is_finished(), "the revoke returned under a live access");
            assert!(!late.is_finished(), "an access began while a registry writer drained");
            drop(first);
            // Joined by hand (`pthread_join`, which TSan sees) before the
            // region is unregistered below.
            assert_eq!(revoke.join().unwrap(), Ok(1));
            assert_eq!(late.join().unwrap(), Err(RtError::BulkDenied(id)));
        });
        // The first access left neither the word nor the ledger behind.
        assert_eq!(reg.slots[id as usize].access.load(Ordering::Relaxed), 0);
        reg.unregister(id, 1).unwrap();
    }

    /// Each slot keeps to its own line pair: an access to one region
    /// never writes a line that a neighbouring region's accesses read.
    #[test]
    fn neighbouring_slots_keep_to_their_lines() {
        use crate::worker::tests::{apart, pairs};
        let reg = RegionRegistry::new();
        for (i, w) in reg.slots.windows(2).enumerate() {
            let (word, next) = (pairs(&w[0].access), pairs(&w[1].access));
            assert_eq!(word, pairs(&w[0].state), "slot {i}: state left its word's pair");
            assert!(apart(&word, &next), "slots {i} and {} share a pair", i + 1);
        }
    }
}
