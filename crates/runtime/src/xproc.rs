//! The cross-process PPC transport: the runtime over a **real**
//! protection boundary.
//!
//! Everything before this module ran the paper's protected procedure
//! call inside one address space — fast, but the protection was an
//! honor system. Here the client and server are separate processes that
//! share exactly one thing: a mapped segment ([`crate::shm::Segment`])
//! whose contents are **position-independent** (`#[repr(C)]`, offsets
//! instead of pointers — see [`crate::shm::SegOffset`]) and whose
//! rendezvous words double as futexes. The API mirrors the in-process
//! one: [`XClient::call`], [`XClient::call_async`],
//! [`XClient::call_with_payload`], [`XClient::call_bulk`], and ring
//! [`XClient::submit`]/[`XClient::reap`] behave like their
//! [`crate::Client`]/[`crate::ClientRing`] counterparts, returning the
//! same [`RtError`]s — plus [`RtError::PeerGone`], the one failure mode
//! a process boundary adds. The ring *is* [`crate::ring`]'s: one queue
//! pair per client, laid out, filled, drained and reaped by that module;
//! this one adds what the boundary needs around it (liveness, the
//! high-water mark, the futex doorbell, detaching a hostile producer).
//!
//! # Segment layout (version [`XPROC_LAYOUT_VERSION`])
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ XSegHeader     magic, layout version, geometry, server pid/state │
//! │                doorbell (futex) + sleeper flag, claim mask,      │
//! │                high-water                                        │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ XClientSlot×N  SlotCore (call rendezvous) + control words        │
//! │                + 4 KiB payload page                              │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ ring×N         one `ring.rs` ring: RingCursors + Sqe[depth]      │
//! │                + Cqe[depth]                                      │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ stage×N        that ring's depth × 4 KiB staging pages           │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ bulk×N         per-client bulk share, registered server-side as  │
//! │                a foreign-backed region (grant-checked access)    │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Offset-reference rules: segment structures never contain addresses.
//! Cross-references are [`crate::shm::SegOffset`]s (e.g. an SQE's
//! staged-payload location) resolved against the local mapping base at
//! the point of use. All segment-resident structs are
//! layout-asserted at compile time; a layout change without a
//! [`XPROC_LAYOUT_VERSION`] bump fails the build on the offsets and the
//! byte-dump round-trip test, not at a process boundary.
//!
//! # Claim handshake
//!
//! A connector owns a slot **before** touching it: it CASes a free bit
//! into the header's claim mask, then writes the slot's control words
//! (pid, program, ack), then publishes them with a Release store of the
//! slot's `attach_req` word. The server attaches only after
//! Acquire-reading `attach_req == 1`, so it can never pair a claimed
//! bit with half-written (or another racer's) identity words. Between
//! that read and its ack the server owns the slot — the connector
//! touches nothing until the ack — and that is where it zeroes the
//! slot's ring cursors, shared and private: every owner of a slot
//! starts from an empty ring, whatever the last one left queued or
//! unreaped. Whichever side releases a claim retracts `attach_req`
//! before clearing the bit.
//!
//! # Futex protocol
//!
//! Both ends **poll first and sleep as a fallback**, through the one
//! wait primitive of `wait.rs` (learned poll → yielding spin → announce →
//! re-check → block) and its `notify` (publish → full fence → wake only
//! if the peer announced). A busy segment therefore issues no syscalls
//! at all — the server runs the call the moment it is posted, which is
//! the paper's hand-off — and an idle one costs nothing: a serve loop
//! that finds no work within its poll sleeps, and a timeout wake with
//! nothing to do sleeps again without polling. Two words sleep, each
//! guarded by an advisory *sleeper flag* its owner alone writes:
//!
//! * **Doorbell** (header) — the serve loop's sleep. Announce: the
//!   header's `server_sleeping` flag, then a re-run of the service pass,
//!   then `FUTEX_WAIT` on the doorbell value read *before* the announce,
//!   with a 5 ms timeout that doubles as the liveness-sweep tick. A
//!   client, after publishing work (`POSTED` in its slot, or `sq_tail`),
//!   fences and reads the flag; only if it is set does it bump the
//!   doorbell and `FUTEX_WAKE`. *Dekker pair 1 — server flag vs slot/SQ
//!   publication:* the server stores the flag, fences, loads the work
//!   words; the client stores a work word, fences, loads the flag — one
//!   of them sees the other, and the bump makes the wake stick to a
//!   server that has announced but not yet slept. Cold ringers
//!   (`connect`, both shutdowns) skip the flag and always wake.
//! * **Slot state word** ([`crate::slot::SlotCore`]) — the synchronous
//!   caller's sleep. Announce: [`waiter::ASLEEP`] in the slot's waiter
//!   word, re-check `DONE`, then `FUTEX_WAIT` on `POSTED` in ~25 ms
//!   chunks, each preceded by a server-liveness check (`server_state` +
//!   `pid_alive`), so a dead server yields [`RtError::PeerGone`] in tens
//!   of milliseconds instead of a hang. The server completes with a
//!   `Release` store of `DONE`, fences, and `FUTEX_WAKE`s only if it
//!   reads `ASLEEP`. *Dekker pair 2 — client flag vs `DONE`:* symmetric
//!   to pair 1, and here the state word itself changes before the wake,
//!   so a caller that has not slept yet fails the kernel's compare. The
//!   attach ack and the DETACH completion are cold and always wake.
//!   Nothing resets the slot between calls (it stays `DONE`, which the
//!   serve loop passes over, until the next post), and `ep`/`xop` are
//!   stored only when they change: each line crosses once per direction.
//!
//! The flags are hints to skip a syscall, never the only road to
//! progress: a client that scribbles either one buys at worst a needless
//! wake or one timeout of latency, for itself or (the header flag) its
//! neighbours — the timeouts, the attach gate, the cursor bound, the
//! staging-offset validation and the peer-death sweep are where they
//! were. `SpinPolicy::ParkOnly` on the serving runtime drops the poll:
//! the serve loop then blocks as soon as a pass finds nothing.
//!
//! # Trust model at the boundary
//!
//! The segment is the trust boundary, and it is asymmetric. The
//! *server* treats segment contents as untrusted input: geometry is
//! validated once against the header before anything is dereferenced,
//! offsets derived from client words (`ep`, descriptors, payload
//! lengths) are clamped/validated per use, and bulk access from
//! handlers still goes through the grant-checked region registry — a
//! client can corrupt *its own* calls and bulk share, never another
//! client's region or the server's heap. The *client* trusts the server
//! (it mapped a segment the server created) — the same direction of
//! trust as any syscall boundary. Payload pages and bulk shares are
//! per-client, so clients cannot read each other's payloads through the
//! transport; the OS-level file mode on the segment path is the
//! admission control for who may connect at all.

use std::cell::UnsafeCell;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::flight::FlightKind;
use crate::region::BulkDesc;
use crate::ring::{self, result_to_wire, wire_to_result, Completion, Consumer, LaneRef, Producer};
use crate::shm::{self, SegOffset, SegRef, Segment};
use crate::slot::{state, waiter, SlotCore, SCRATCH_BYTES};
use crate::wait::{notify, wait, Poll, Sleeper, Spin, Waited};
use crate::{EntryId, ProgramId, RegionId, RtError, Runtime, SpinPolicy};

/// Magic word at segment offset 0 (`"PPC_SEG1"`).
pub const XPROC_MAGIC: u64 = 0x5050_435f_5345_4731;

/// Version of the segment layout described in the module docs. Bump on
/// any layout change; openers refuse other versions with
/// [`RtError::BadSegment`].
pub const XPROC_LAYOUT_VERSION: u32 = 4;

/// Hard cap on clients per segment (the claim mask is one `u64`).
pub const MAX_XCLIENTS: usize = 64;

/// Yielding-spin passes of the client's slot wait between its learned
/// poll and the futex (≈ 60 µs here; on a shared CPU the yields are what
/// let the server run).
const SLOT_SPIN: u32 = 4096;

/// Server lifecycle values in [`XSegHeader`]'s state word.
mod srv {
    pub const STARTING: u32 = 0;
    pub const SERVING: u32 = 1;
    pub const SHUTDOWN: u32 = 2;
}

/// Slot-call operations (the client-slot `xop` word).
mod op {
    /// Plain / bulk-descriptor call (`args` only).
    pub const CALL: u32 = 1;
    /// Call carrying a payload in the slot's payload page.
    pub const PAYLOAD: u32 = 2;
    /// Grant the client's region to entry `ep` (`args[0]` = write).
    pub const GRANT: u32 = 3;
    /// Revoke the client's region grants to entry `ep`.
    pub const REVOKE: u32 = 4;
    /// Detach: unregister the region and release the claim bit.
    pub const DETACH: u32 = 5;
}

// ---------------------------------------------------------------------
// Segment-resident structures (repr(C), layout-asserted)
// ---------------------------------------------------------------------

/// The versioned segment header at offset 0. Geometry fields are
/// written once by the creator and validated (recomputed and compared)
/// by every opener; only the atomics mutate afterwards.
#[repr(C, align(64))]
pub struct XSegHeader {
    magic: u64,
    layout_version: u32,
    n_clients: u32,
    ring_depth: u32,
    bulk_bytes: u32,
    total_len: u64,
    slots_off: u32,
    rings_off: u32,
    ring_stride: u32,
    stage_off: u32,
    bulk_off: u32,
    /// Serving process's PID (liveness anchor for clients).
    server_pid: AtomicU32,
    /// [`srv`] lifecycle word.
    server_state: AtomicU32,
    /// The shared doorbell futex word.
    doorbell: AtomicU32,
    /// Server loop heartbeat: stored once per sweep tick / blocking
    /// wake, never on the polled path. A diagnostic — nothing reads it
    /// for liveness (`server_state` + `pid_alive` decide that).
    server_beat: AtomicU32,
    /// The serve loop's sleeper flag (`wait.rs`): 1 while it is about
    /// to block, or blocked, on the doorbell. Posting clients read it to
    /// decide whether a wake syscall is needed. Advisory: scribbling it
    /// costs a needless wake or a doorbell-timeout of latency, never
    /// liveness.
    server_sleeping: AtomicU32,
    /// One bit per claimed client slot.
    claim_mask: AtomicU64,
    /// Highest segment byte offset any bulk descriptor or staged
    /// payload has reached — the capacity early-warning the exporters
    /// publish.
    high_water: AtomicU64,
    _pad_end: [u8; 40],
}

crate::assert_segment_layout!(XSegHeader {
    size: 128,
    align: 64,
    magic: 0,
    layout_version: 8,
    n_clients: 12,
    ring_depth: 16,
    bulk_bytes: 20,
    total_len: 24,
    slots_off: 32,
    rings_off: 36,
    ring_stride: 40,
    stage_off: 44,
    bulk_off: 48,
    server_pid: 52,
    server_state: 56,
    doorbell: 60,
    server_beat: 64,
    server_sleeping: 68,
    claim_mask: 72,
    high_water: 80,
});

/// One client's slot: the [`SlotCore`] rendezvous, connection control
/// words, and the 4 KiB payload page (the cross-process scratch).
#[repr(C, align(64))]
pub struct XClientSlot {
    core: SlotCore,
    /// Client PID (liveness anchor for the server's sweep).
    pid: AtomicU32,
    /// Entry point for the posted operation.
    ep: AtomicU32,
    /// Operation selector ([`op`]).
    xop: AtomicU32,
    /// Server-assigned region id over this client's bulk share
    /// (`u32::MAX` until attached).
    region_id: AtomicU32,
    /// Attach handshake futex word: 0 pending, 1 attached, 2 refused.
    attach_ack: AtomicU32,
    /// The client's program identity (region owner).
    client_program: AtomicU32,
    /// Slot-words-valid gate: the claimer stores 1 (Release) only
    /// *after* owning the claim bit and writing pid/program/ack words;
    /// the server attaches only after Acquire-reading 1, so it never
    /// reads a half-written identity. Reset to 0 by whichever side
    /// releases the claim, *before* the claim bit clears.
    attach_req: AtomicU32,
    _pad0: [u8; 36],
    payload: UnsafeCell<[u8; SCRATCH_BYTES]>,
}

crate::assert_segment_layout!(XClientSlot {
    size: 4352,
    align: 64,
    core: 0,
    pid: 192,
    ep: 196,
    xop: 200,
    region_id: 204,
    attach_ack: 208,
    client_program: 212,
    attach_req: 216,
    payload: 256,
});

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

/// Transport sizing. The defaults fit a parent/child pair with a few
/// pipelined clients in ~2 MiB of tmpfs.
#[derive(Clone, Copy, Debug)]
pub struct XSegOptions {
    /// Client slots in the segment (≤ [`MAX_XCLIENTS`]).
    pub n_clients: usize,
    /// SQ/CQ depth per client (power of two).
    pub ring_depth: u32,
    /// Bulk share per client, bytes (≤ 2²⁴ — descriptor offsets are
    /// 24-bit).
    pub bulk_bytes: usize,
    /// The vCPU the server dispatches remote calls on.
    pub vcpu: usize,
}

impl Default for XSegOptions {
    fn default() -> Self {
        XSegOptions { n_clients: 4, ring_depth: 32, bulk_bytes: 256 << 10, vcpu: 0 }
    }
}

fn align_up(x: usize, a: usize) -> usize {
    (x + a - 1) & !(a - 1)
}

/// The derived segment geometry, computed identically from the options
/// (creator) and from the header fields (opener) — any disagreement is
/// a validation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geometry {
    n_clients: usize,
    ring_depth: u64,
    bulk_bytes: usize,
    slots_off: usize,
    rings_off: usize,
    ring_stride: usize,
    stage_off: usize,
    bulk_off: usize,
    total_len: usize,
}

impl Geometry {
    fn compute(n_clients: usize, ring_depth: u32, bulk_bytes: usize) -> Option<Geometry> {
        if n_clients == 0
            || n_clients > MAX_XCLIENTS
            || !ring_depth.is_power_of_two()
            || ring_depth > 1 << 12
            || bulk_bytes == 0
            || bulk_bytes > 1 << 24
            || !bulk_bytes.is_multiple_of(64)
        {
            return None;
        }
        let depth = ring_depth as usize;
        let slots_off = std::mem::size_of::<XSegHeader>();
        let rings_off = align_up(slots_off + n_clients * std::mem::size_of::<XClientSlot>(), 64);
        let ring_stride = LaneRef::ring_bytes(depth, depth);
        let stage_off = align_up(rings_off + n_clients * ring_stride, 4096);
        let bulk_off = stage_off + n_clients * LaneRef::stage_bytes(depth);
        let total_len = align_up(bulk_off + n_clients * bulk_bytes, 4096);
        if total_len > u32::MAX as usize {
            return None;
        }
        Some(Geometry {
            n_clients,
            ring_depth: ring_depth as u64,
            bulk_bytes,
            slots_off,
            rings_off,
            ring_stride,
            stage_off,
            bulk_off,
            total_len,
        })
    }
}

/// A validated, mapped segment: the only door to the raw structures.
/// All offset arithmetic is checked against the geometry once, here,
/// so the accessors below are in-bounds by construction.
struct SegMap {
    seg: Arc<Segment>,
    geo: Geometry,
}

impl SegMap {
    /// Create + initialize a segment at `path`.
    fn create(path: &Path, opts: &XSegOptions) -> Result<SegMap, RtError> {
        let geo = Geometry::compute(opts.n_clients, opts.ring_depth, opts.bulk_bytes)
            .ok_or(RtError::BadSegment)?;
        let seg = Segment::create(path, geo.total_len).map_err(|_| RtError::BadSegment)?;
        // Safety: fresh zeroed mapping of total_len ≥ header size; the
        // header is written before any peer can validate-open (openers
        // check magic, which is written last via the plain field — the
        // file is complete before `create` returns).
        unsafe {
            let h = seg.base() as *mut XSegHeader;
            std::ptr::write(
                h,
                XSegHeader {
                    magic: XPROC_MAGIC,
                    layout_version: XPROC_LAYOUT_VERSION,
                    n_clients: geo.n_clients as u32,
                    ring_depth: geo.ring_depth as u32,
                    bulk_bytes: geo.bulk_bytes as u32,
                    total_len: geo.total_len as u64,
                    slots_off: geo.slots_off as u32,
                    rings_off: geo.rings_off as u32,
                    ring_stride: geo.ring_stride as u32,
                    stage_off: geo.stage_off as u32,
                    bulk_off: geo.bulk_off as u32,
                    server_pid: AtomicU32::new(0),
                    server_state: AtomicU32::new(srv::STARTING),
                    doorbell: AtomicU32::new(0),
                    server_beat: AtomicU32::new(0),
                    server_sleeping: AtomicU32::new(0),
                    claim_mask: AtomicU64::new(0),
                    high_water: AtomicU64::new(0),
                    _pad_end: [0; 40],
                },
            );
        }
        Ok(SegMap { seg: Arc::new(seg), geo })
    }

    /// Open + validate a segment at `path`. Nothing beyond the header
    /// is touched until every geometry claim checks out.
    fn open(path: &Path) -> Result<SegMap, RtError> {
        let seg = Segment::open(path).map_err(|_| RtError::BadSegment)?;
        Self::validate(Arc::new(seg))
    }

    /// Validate an already-mapped segment (the byte-dump round-trip
    /// test enters here).
    fn validate(seg: Arc<Segment>) -> Result<SegMap, RtError> {
        if seg.len() < std::mem::size_of::<XSegHeader>() {
            return Err(RtError::BadSegment);
        }
        // Safety: length checked; XSegHeader is valid at any bit
        // pattern (u64/u32/atomics), so reading an arbitrary header is
        // safe — trusting it is what the checks below decide.
        let h: &XSegHeader = unsafe { SegRef::new(SegOffset(0)).resolve(&seg) };
        if h.magic != XPROC_MAGIC || h.layout_version != XPROC_LAYOUT_VERSION {
            return Err(RtError::BadSegment);
        }
        let geo = Geometry::compute(h.n_clients as usize, h.ring_depth, h.bulk_bytes as usize)
            .ok_or(RtError::BadSegment)?;
        let claimed = (
            h.slots_off as usize,
            h.rings_off as usize,
            h.ring_stride as usize,
            h.stage_off as usize,
            h.bulk_off as usize,
            h.total_len as usize,
        );
        let expect = (
            geo.slots_off,
            geo.rings_off,
            geo.ring_stride,
            geo.stage_off,
            geo.bulk_off,
            geo.total_len,
        );
        if claimed != expect || seg.len() != geo.total_len {
            return Err(RtError::BadSegment);
        }
        Ok(SegMap { seg, geo })
    }

    fn header(&self) -> &XSegHeader {
        // Safety: validated geometry; header fields are atomics or
        // creator-written plain words.
        unsafe { SegRef::new(SegOffset(0)).resolve(&self.seg) }
    }

    /// The serve loop's sleeper flag (see [`XSegHeader`]).
    fn server_sleeper(&self) -> Sleeper<'_> {
        Sleeper { word: &self.header().server_sleeping, asleep: 1, awake: 0 }
    }

    fn slot(&self, i: usize) -> &XClientSlot {
        debug_assert!(i < self.geo.n_clients);
        let off = self.geo.slots_off + i * std::mem::size_of::<XClientSlot>();
        // Safety: in-bounds by geometry; XClientSlot is valid zeroed.
        unsafe { SegRef::new(SegOffset(off as u32)).resolve(&self.seg) }
    }

    /// Client `i`'s ring: one [`ring`] queue pair, SQ and CQ both
    /// `ring_depth` deep.
    fn lane(&self, i: usize) -> LaneRef {
        debug_assert!(i < self.geo.n_clients);
        let depth = self.geo.ring_depth as usize;
        let ring_off = self.geo.rings_off + i * self.geo.ring_stride;
        let stage_off = self.geo.stage_off + i * LaneRef::stage_bytes(depth);
        // Safety: both areas are in bounds, disjoint from every other
        // client's and 64-aligned by the validated geometry; zero in a
        // fresh segment; every holder of the view (`XClient`, the serve
        // loop) holds this `SegMap`, whose `Arc<Segment>` keeps the
        // mapping alive.
        unsafe { LaneRef::new(self.seg.base().add(ring_off), self.seg.base(), stage_off, depth, depth) }
    }

    /// Segment offset of client `i`'s bulk share.
    fn bulk_off(&self, i: usize) -> usize {
        self.geo.bulk_off + i * self.geo.bulk_bytes
    }

    /// Raw pointer to `len` bytes at `off`; panics (server-side: the
    /// per-use clamp happens before) if out of bounds.
    fn span(&self, off: usize, len: usize) -> *mut u8 {
        assert!(off.checked_add(len).is_some_and(|end| end <= self.seg.len()));
        // Safety: bounds asserted.
        unsafe { self.seg.base().add(off) }
    }

    fn payload_ptr(&self, i: usize) -> *mut u8 {
        self.slot(i).payload.get() as *mut u8
    }
}

/// Validate the segment file at `path` — magic, layout version, and the
/// full geometry cross-check — without claiming a client slot or
/// touching anything past the header. The check every
/// [`XClient::connect`] performs, exposed for inspection tooling and
/// the byte-dump round-trip test.
pub fn validate_segment(path: &Path) -> Result<(), RtError> {
    SegMap::open(path).map(|_| ())
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A serving cross-process transport: owns the segment (created at
/// [`Runtime::serve_xproc`], unlinked on drop) and the serve thread.
/// Dropping (or [`XServer::shutdown`]) stops serving, completes
/// outstanding slot calls with [`RtError::PeerGone`] semantics on the
/// client side (state flips to shutdown and clients are woken), and
/// unmaps.
pub struct XServer {
    rt: Arc<Runtime>,
    map: Arc<SegMap>,
    path: PathBuf,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Serve this runtime's entry points to other processes through a
    /// shared segment at `path` (must not exist; unlinked when the
    /// server drops). Remote calls dispatch on `opts.vcpu` with the
    /// caller's own program identity, exactly as if a local client had
    /// made them.
    pub fn serve_xproc(
        self: &Arc<Self>,
        path: &Path,
        opts: XSegOptions,
    ) -> Result<XServer, RtError> {
        if opts.vcpu >= self.n_vcpus() {
            return Err(RtError::BadVcpu(opts.vcpu));
        }
        let map = Arc::new(SegMap::create(path, &opts)?);
        self.set_xproc_segment(Arc::downgrade(&map.seg));
        let rt = Arc::clone(self);
        let tmap = Arc::clone(&map);
        let vcpu = opts.vcpu;
        let cpu = self.cpu_of(vcpu);
        let thread = std::thread::Builder::new()
            .name("ppc-xproc".into())
            .spawn(move || {
                if let Some(cpu) = cpu {
                    crate::affinity::pin_current(cpu);
                }
                serve_loop(rt, tmap, vcpu)
            })
            .map_err(|_| RtError::TableFull)?;
        Ok(XServer {
            rt: Arc::clone(self),
            map,
            path: path.to_path_buf(),
            thread: Some(thread),
        })
    }
}

impl XServer {
    /// The segment path clients connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop serving: flip the state word, wake everyone, join the serve
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        let h = self.map.header();
        h.server_state.store(srv::SHUTDOWN, Ordering::Release);
        shm::futex_wake(&h.doorbell, u32::MAX);
        self.wait();
    }

    /// Block until the serve loop exits (a peer-initiated shutdown —
    /// the forked-child pattern: serve until the parent says stop).
    pub fn wait(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// The serving runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }
}

impl Drop for XServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-client connection state on the server side (process-local).
struct ClientCtx {
    attached: bool,
    /// The attach was refused (registry full): remembered so the serve
    /// loop does not re-attempt — and busy-spin on — every iteration
    /// while the client winds down. Cleared when the claim bit clears.
    refused: bool,
    program: ProgramId,
    pid: u32,
    region: Option<RegionId>,
    /// The slot's ring, served end: its cursors are this process's own
    /// and are zeroed, with the shared words, at every attach.
    ring: Consumer,
}

impl ClientCtx {
    fn new(ring: Consumer) -> ClientCtx {
        ClientCtx { attached: false, refused: false, program: 0, pid: 0, region: None, ring }
    }

    /// Forget the slot's owner: unregister its region (drains in-flight
    /// bulk transfers) and clear the process-local state.
    fn release(&mut self, rt: &Runtime, vcpu: usize) {
        if let Some(region) = self.region.take() {
            let _ = rt.bulk().registry(vcpu).unregister(region, self.program);
        }
        (self.attached, self.refused, self.program, self.pid) = (false, false, 0, 0);
    }
}

/// How often the serve loop looks at the clock without having slept:
/// once in this many waits (each at most one service pass or one
/// [`crate::spin::POLL_CAP`] poll), so the polled path pays no clock read.
const TICK_EVERY: u32 = 256;

fn serve_loop(rt: Arc<Runtime>, map: Arc<SegMap>, vcpu: usize) {
    let h = map.header();
    h.server_pid.store(std::process::id(), Ordering::Relaxed);
    h.server_state.store(srv::SERVING, Ordering::Release);
    let n = map.geo.n_clients;
    let mut ctx: Vec<ClientCtx> =
        (0..n).map(|i| ClientCtx::new(Consumer::new(map.lane(i)))).collect();
    let mut local_scratch = vec![0u8; SCRATCH_BYTES];
    let mut last_sweep = Instant::now();
    let mut poll = Poll::default();
    // Poll before blocking only when the last wait ended in work — a
    // timeout wake with nothing to do re-blocks, so an idle server
    // sleeps — and that work woke no client: a client that slept tells
    // us nothing arrives within a poll (and on a shared CPU its answer
    // "during the spin" would be wake-up preemption, see `wait.rs`).
    let mut may_poll = false;
    let mut waits = 0u32;
    loop {
        // Read before the wait announces: a doorbell bump after this
        // load makes the futex wait below return at once.
        let seen = h.doorbell.load(Ordering::Acquire);
        let (mut woke, mut slept) = (false, false);
        // The readiness predicate *is* the service pass: whatever a
        // client published is served where it is found, including at the
        // re-check under the announced flag. Returns whether anything
        // was done — or shutdown was requested, which must end the wait
        // just the same.
        let pass = || {
            let mut progress = false;
            let mask = h.claim_mask.load(Ordering::Acquire);
            for (i, c) in ctx.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    // Attach only once the claimer has published its slot
                    // words (attach_req = 1) — a claimed bit alone says
                    // nothing about the words — and never re-attempt a
                    // refused slot (that would busy-spin until the client
                    // noticed and released).
                    if !c.attached
                        && !c.refused
                        && map.slot(i).attach_req.load(Ordering::Acquire) == 1
                    {
                        attach_client(&rt, &map, vcpu, i, c);
                        progress = true;
                    }
                    if c.attached {
                        progress |= service_slot(&rt, &map, vcpu, i, c, &mut woke);
                    }
                    // Checked again: a DETACH just served ends the
                    // client, whatever it left queued.
                    if c.attached {
                        progress |= service_ring(&rt, &map, vcpu, i, c, &mut local_scratch);
                    }
                } else if c.attached || c.refused {
                    // The claimer released its bit (clean DETACH, a refused
                    // connect, or an abandoned handshake). The slot may
                    // already belong to a new claimer, so touch only
                    // process-local state — but if the release raced our
                    // attach, the region is still registered and must not
                    // leak.
                    c.release(&rt, vcpu);
                }
            }
            progress || h.server_state.load(Ordering::Acquire) == srv::SHUTDOWN
        };
        // Doorbell sleep (see module docs). The short timeout bounds the
        // liveness sweep latency; `false` hands control back to this
        // loop whatever the wake found.
        let doze = || {
            if shm::futex_wait(&h.doorbell, seen, Some(Duration::from_millis(5))) {
                rt.stats.cell(vcpu).xproc_wakes.fetch_add(1, Ordering::Relaxed);
            }
            slept = true;
            false
        };
        let learn = may_poll && rt.spin_policy() == SpinPolicy::Adaptive;
        let spin = Spin { poll: learn.then_some(&mut poll), ..Spin::default() };
        let how = wait(spin, Some(map.server_sleeper()), pass, || (), doze);
        if h.server_state.load(Ordering::Acquire) == srv::SHUTDOWN {
            break;
        }
        may_poll = how != Waited::Blocked && !woke;
        waits = waits.wrapping_add(1);
        if !slept && !waits.is_multiple_of(TICK_EVERY) {
            continue;
        }
        h.server_beat.store(waits, Ordering::Relaxed);
        // Peer-death sweep: a killed client never sends DETACH, so its
        // claim bit, region, and any posted-but-unserviced call would
        // leak. The sweep reclaims all three and leaves a flight-plane
        // record of the loss. It also covers claimed-but-unattached
        // slots (a connector that died mid-handshake, or a refused
        // claimer that crashed before releasing its bit) — attach_req
        // == 1 guarantees the slot's pid word is valid to judge by.
        if last_sweep.elapsed() >= Duration::from_millis(50) {
            last_sweep = Instant::now();
            for (i, c) in ctx.iter_mut().enumerate() {
                let published = || {
                    h.claim_mask.load(Ordering::Acquire) & (1 << i) != 0
                        && map.slot(i).attach_req.load(Ordering::Acquire) == 1
                };
                let pid = match c.attached {
                    true => c.pid,
                    false if published() => map.slot(i).pid.load(Ordering::Acquire),
                    false => 0,
                };
                if pid != 0 && !shm::pid_alive(pid) {
                    lose_client(&rt, &map, vcpu, i, c, pid);
                }
            }
        }
    }
    // Shutdown: drain nothing further; flip state (already SHUTDOWN or
    // set here for the drop path), unregister regions, wake all
    // sleepers so remote waiters observe the state and error out.
    h.server_state.store(srv::SHUTDOWN, Ordering::Release);
    for (i, c) in ctx.iter_mut().enumerate() {
        c.release(&rt, vcpu);
        shm::futex_wake(map.slot(i).core.state_word(), u32::MAX);
        shm::futex_wake(&map.slot(i).attach_ack, u32::MAX);
    }
    shm::futex_wake(&h.doorbell, u32::MAX);
}

/// Register the client's bulk share as a foreign-backed region, empty
/// its ring, and ack the attach handshake.
fn attach_client(rt: &Arc<Runtime>, map: &SegMap, vcpu: usize, i: usize, c: &mut ClientCtx) {
    let slot = map.slot(i);
    // Ours alone until the ack below (module docs, Claim handshake).
    c.ring.reset();
    let program = slot.client_program.load(Ordering::Acquire);
    let pid = slot.pid.load(Ordering::Acquire);
    let base = map.span(map.bulk_off(i), map.geo.bulk_bytes);
    // Safety: the span is segment memory kept mapped for the server's
    // lifetime (the region is unregistered before the segment unmaps).
    let buf = unsafe {
        crate::bulk::PoolBuf::foreign(NonNull::new_unchecked(base), map.geo.bulk_bytes, program)
    };
    match rt.bulk().registry(vcpu).register(buf, map.geo.bulk_bytes, program) {
        Ok(id) => {
            slot.region_id.store(u32::from(id), Ordering::Release);
            c.attached = true;
            c.program = program;
            c.pid = pid;
            c.region = Some(id);
            slot.attach_ack.store(1, Ordering::Release);
        }
        Err(_) => {
            // Remember the refusal so the serve loop does not retry
            // (and busy-spin) every iteration; the flag clears when the
            // claim bit does.
            c.refused = true;
            slot.attach_ack.store(2, Ordering::Release);
        }
    }
    shm::futex_wake(&slot.attach_ack, u32::MAX);
    rt.stats.cell(vcpu).xproc_wakes.fetch_add(1, Ordering::Relaxed);
}

/// Tear down a client (death or detach): unregister its region, reset
/// its slot, release its claim bit.
fn detach_client(rt: &Arc<Runtime>, map: &SegMap, vcpu: usize, i: usize, c: &mut ClientCtx) {
    c.release(rt, vcpu);
    let slot = map.slot(i);
    slot.region_id.store(u32::MAX, Ordering::Relaxed);
    slot.attach_ack.store(0, Ordering::Relaxed);
    slot.pid.store(0, Ordering::Relaxed);
    slot.core.reset();
    // Retract readiness before the claim bit clears (the AcqRel RMW
    // below releases this store) so a fresh claimer never inherits a
    // stale "words valid" signal.
    slot.attach_req.store(0, Ordering::Release);
    map.header().claim_mask.fetch_and(!(1u64 << i), Ordering::AcqRel);
}

/// [`detach_client`] for a client that did not ask for it — its process
/// `pid` died, or its ring turned hostile — with the flight-plane record
/// of the loss.
fn lose_client(rt: &Arc<Runtime>, map: &SegMap, vcpu: usize, i: usize, c: &mut ClientCtx, pid: u32) {
    detach_client(rt, map, vcpu, i, c);
    rt.flight().record(vcpu, FlightKind::PeerLost, i, pid);
}

/// Service a posted slot call. Returns whether work was done; sets
/// `woke` when the completion had to futex-wake its client.
fn service_slot(
    rt: &Arc<Runtime>,
    map: &SegMap,
    vcpu: usize,
    i: usize,
    c: &mut ClientCtx,
    woke: &mut bool,
) -> bool {
    let slot = map.slot(i);
    if slot.core.state_word().load(Ordering::Acquire) != state::POSTED {
        return false;
    }
    let xop = slot.xop.load(Ordering::Relaxed);
    let ep = slot.ep.load(Ordering::Relaxed) as EntryId;
    let args = slot.core.read_args();
    let cell = rt.stats.cell(vcpu);
    let result: Result<[u64; 8], RtError> = match xop {
        op::CALL => rt.dispatch(vcpu, ep, args, c.program, None).map(|(r, _)| r),
        op::PAYLOAD => {
            let len = (slot.core.payload_len() as usize).min(SCRATCH_BYTES);
            // Safety: the client owns the payload page only while the
            // slot is IDLE/DONE; during POSTED the server has exclusive
            // use (the rendezvous protocol, same as in-process scratch).
            let req = unsafe { std::slice::from_raw_parts(map.payload_ptr(i), len) };
            rt.dispatch(vcpu, ep, args, c.program, Some(req)).map(|(r, resp)| {
                let resp = resp.unwrap_or_default();
                let n = resp.len().min(SCRATCH_BYTES);
                // Safety: as above; exclusive during POSTED.
                unsafe { std::ptr::copy_nonoverlapping(resp.as_ptr(), map.payload_ptr(i), n) };
                slot.core.set_payload_len(n as u32);
                r
            })
        }
        op::GRANT => c.region.ok_or(RtError::BadBulk).and_then(|region| {
            rt.grant_region(vcpu, region, c.program, ep, args[0] != 0)?;
            Ok([0; 8])
        }),
        op::REVOKE => c.region.ok_or(RtError::BadBulk).and_then(|region| {
            let n = rt.bulk().registry(vcpu).revoke(region, c.program, ep)?;
            Ok([n as u64, 0, 0, 0, 0, 0, 0, 0])
        }),
        op::DETACH => {
            // Complete before the claim release, so the waiting client
            // sees POSTED end before the slot can change hands; then
            // reclaim. Unconditional wake: it sleeps without announcing.
            slot.core.complete_frame([0; 8], 0, 0);
            shm::futex_wake(slot.core.state_word(), u32::MAX);
            detach_client(rt, map, vcpu, i, c);
            cell.xproc_wakes.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        _ => Err(RtError::BadSegment),
    };
    let (status, aux, rets) = result_to_wire(result);
    slot.core.complete_frame(rets, status, aux);
    // DONE is published; wake the caller only if it announced its sleep.
    if slot.core.wake_done(true) {
        cell.xproc_wakes.fetch_add(1, Ordering::Relaxed);
        *woke = true;
    }
    cell.xproc_calls.fetch_add(1, Ordering::Relaxed);
    true
}

/// Drain client `i`'s ring — at most a queue-full per pass, so one
/// client cannot starve the rest. Returns whether work was done. A
/// producer whose tail runs past its ring is detached on the spot: the
/// module's "a client can corrupt only itself" trust model.
fn service_ring(
    rt: &Arc<Runtime>,
    map: &SegMap,
    vcpu: usize,
    i: usize,
    c: &mut ClientCtx,
    local_scratch: &mut [u8],
) -> bool {
    match ring::drain(rt, &mut c.ring, vcpu, c.program, local_scratch, &mut 0) {
        Some(0) => return false,
        Some(n) => _ = rt.stats.cell(vcpu).xproc_calls.fetch_add(n, Ordering::Relaxed),
        None => lose_client(rt, map, vcpu, i, c, c.pid),
    }
    true
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A cross-process client: the remote mirror of [`crate::Client`] plus
/// its ring. One `XClient` owns one claimed client slot — `&mut self`
/// on the call methods is the single-caller discipline the slot
/// rendezvous requires (the in-process analogue shards by value:
/// one `Client` per thread).
pub struct XClient {
    map: SegMap,
    idx: usize,
    program: ProgramId,
    server_pid: u32,
    /// The submitting end of this slot's ring; credits = `ring_depth`.
    ring: Producer,
    /// The transport observed peer death: everything fails fast with
    /// [`RtError::PeerGone`] from here on.
    dead: bool,
    /// Learned poll budget of the slot rendezvous (`wait.rs`).
    poll: Poll,
    /// The last post found the server asleep and woke it: the wait for
    /// that call skips the learned poll.
    woke_server: bool,
    /// Empty [`XClient::reap`] polls with work in flight.
    empty_reaps: u32,
    /// Optional local observability home: peer-loss flight events and
    /// client-side xproc counters land here (vCPU index second).
    obs: Option<(Arc<Runtime>, usize)>,
}

impl XClient {
    /// Connect to the segment a server created at `path`, claiming one
    /// client slot under program identity `program`.
    pub fn connect(path: &Path, program: ProgramId) -> Result<XClient, RtError> {
        let map = SegMap::open(path)?;
        let h = map.header();
        // The creator writes the header before serving; wait briefly
        // for the serve loop to come up.
        let deadline = Instant::now() + Duration::from_secs(5);
        while h.server_state.load(Ordering::Acquire) != srv::SERVING {
            if Instant::now() >= deadline
                || h.server_state.load(Ordering::Acquire) == srv::SHUTDOWN
            {
                return Err(RtError::PeerGone);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let server_pid = h.server_pid.load(Ordering::Acquire);
        // Claim a slot: CAS the claim bit FIRST — only the bit's owner
        // may touch the slot's control words. Writing them before the
        // CAS would let a losing racer's stores land after the winner's
        // claim (and even after the server's attach), clobbering the
        // winner's pid/program — identity confusion at the protection
        // boundary. Readiness is signalled separately via `attach_req`,
        // which the server Acquire-reads before looking at any word.
        let n = map.geo.n_clients;
        let idx = 'claim: loop {
            let mask = h.claim_mask.load(Ordering::Acquire);
            let Some(i) = (0..n).find(|i| mask & (1u64 << i) == 0) else {
                return Err(RtError::TableFull);
            };
            if h.claim_mask
                .compare_exchange(mask, mask | (1u64 << i), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break 'claim i;
            }
            // Raced another claimer; retry from a fresh mask.
        };
        let slot = map.slot(idx);
        slot.pid.store(std::process::id(), Ordering::Relaxed);
        slot.client_program.store(program, Ordering::Relaxed);
        slot.attach_ack.store(0, Ordering::Relaxed);
        slot.region_id.store(u32::MAX, Ordering::Relaxed);
        // Publish the words: everything above is visible to whoever
        // Acquire-reads this 1.
        slot.attach_req.store(1, Ordering::Release);
        // Ring the doorbell so a sleeping server attaches us promptly.
        h.doorbell.fetch_add(1, Ordering::Release);
        shm::futex_wake(&h.doorbell, u32::MAX);
        // Await the attach ack (region registered server-side). On the
        // give-up paths, retract `attach_req` *before* releasing the
        // claim bit (both ordered before the mask RMW) so the next
        // claimer of this slot starts from an unpublished state and the
        // server can never pair a stale "ready" with fresh words.
        let deadline = Instant::now() + Duration::from_secs(5);
        let refused = loop {
            match slot.attach_ack.load(Ordering::Acquire) {
                1 => break None,
                2 => break Some(RtError::TableFull),
                _ if Instant::now() >= deadline || !shm::pid_alive(server_pid) => {
                    break Some(RtError::PeerGone)
                }
                _ => _ = shm::futex_wait(&slot.attach_ack, 0, Some(Duration::from_millis(20))),
            }
        };
        if let Some(e) = refused {
            slot.attach_req.store(0, Ordering::Release);
            h.claim_mask.fetch_and(!(1u64 << idx), Ordering::AcqRel);
            return Err(e);
        }
        // The server emptied the slot's ring before it acked.
        let ring = Producer::new(map.lane(idx));
        Ok(XClient {
            map,
            idx,
            program,
            server_pid,
            ring,
            dead: false,
            poll: Poll::default(),
            woke_server: false,
            empty_reaps: 0,
            obs: None,
        })
    }

    /// Like [`XClient::connect`], retrying while the segment file does
    /// not exist yet — the "parent connects to a freshly forked child"
    /// race, closed by polling.
    pub fn connect_retry(
        path: &Path,
        program: ProgramId,
        timeout: Duration,
    ) -> Result<XClient, RtError> {
        let deadline = Instant::now() + timeout;
        loop {
            match XClient::connect(path, program) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Attach a local runtime as the observability home for this
    /// client: peer-loss flight events and client-side `xproc_*`
    /// counters are recorded against `vcpu`'s cell there.
    pub fn with_obs(mut self, rt: Arc<Runtime>, vcpu: usize) -> XClient {
        self.obs = Some((rt, vcpu));
        self
    }

    /// This client's program identity.
    pub fn program(&self) -> ProgramId {
        self.program
    }

    /// The region id over this client's bulk share (server-assigned at
    /// attach).
    pub fn region_id(&self) -> RegionId {
        self.map.slot(self.idx).region_id.load(Ordering::Acquire) as RegionId
    }

    /// Bulk share capacity in bytes.
    pub fn bulk_capacity(&self) -> usize {
        self.map.geo.bulk_bytes
    }

    /// Ring depth (submission credits).
    pub fn ring_depth(&self) -> u64 {
        self.map.geo.ring_depth
    }

    /// Whether the server is still alive and serving. Cheap enough for
    /// per-operation use: one shared load, plus `kill(pid, 0)` only on
    /// the slow paths that already decided to sleep.
    pub fn server_alive(&self) -> bool {
        !self.dead
            && self.map.header().server_state.load(Ordering::Acquire) == srv::SERVING
    }

    fn ensure_alive(&mut self) -> Result<(), RtError> {
        if self.server_alive() {
            return Ok(());
        }
        self.note_peer_lost();
        Err(RtError::PeerGone)
    }

    fn note_peer_lost(&mut self) {
        if !self.dead {
            self.dead = true;
            if let Some((rt, vcpu)) = &self.obs {
                rt.flight().record(*vcpu, FlightKind::PeerLost, self.idx, self.server_pid);
            }
        }
    }

    /// Tell the server there is work — after publishing it (`POSTED`,
    /// `sq_tail`). A polling server needs nothing; one that announced
    /// its sleep gets the doorbell bumped (so a wait it has not entered
    /// yet returns at once) and a `FUTEX_WAKE`. Returns whether it woke.
    fn bump_doorbell(&self) -> bool {
        let h = self.map.header();
        let woke = notify(self.map.server_sleeper(), || {
            h.doorbell.fetch_add(1, Ordering::Release);
            shm::futex_wake(&h.doorbell, u32::MAX);
        });
        if let (true, Some((rt, vcpu))) = (woke, &self.obs) {
            rt.stats.cell(*vcpu).xproc_wakes.fetch_add(1, Ordering::Relaxed);
        }
        woke
    }

    /// Wait out the slot rendezvous — [`crate::slot::CallSlot::wait_done`]
    /// across the boundary, on the same primitive (`wait.rs`) and the
    /// same sleeper: learned poll (unless this call had to wake the
    /// server), the yielding spin, then the announced futex sleep in
    /// ~25 ms chunks, each preceded by a server-liveness check
    /// (`server_state` + `pid_alive`).
    fn wait_done(&mut self) -> Result<(), RtError> {
        let core = &self.map.slot(self.idx).core;
        let (w, h, server_pid) = (core.state_word(), self.map.header(), self.server_pid);
        let done = || w.load(Ordering::Acquire) == state::DONE;
        let spin = Spin {
            poll: (!self.woke_server).then_some(&mut self.poll),
            budget: SLOT_SPIN,
            rounds: 0,
        };
        let sleep = || {
            let alive = h.server_state.load(Ordering::Acquire) == srv::SERVING
                && shm::pid_alive(server_pid);
            if alive {
                shm::futex_wait(w, state::POSTED, Some(Duration::from_millis(25)));
            }
            alive
        };
        wait(spin, Some(core.sleeper(true)), done, || (), sleep);
        if done() {
            return Ok(());
        }
        self.note_peer_lost();
        Err(RtError::PeerGone)
    }

    /// Fill and post this client's slot; `ep`/`xop` (a line the server
    /// reads per call) are stored only when they change.
    fn post_slot_op(&mut self, xop: u32, ep: EntryId, args: [u64; 8]) -> Result<(), RtError> {
        self.ensure_alive()?;
        let slot = self.map.slot(self.idx);
        for (word, v) in [(&slot.ep, ep as u32), (&slot.xop, xop)] {
            if word.load(Ordering::Relaxed) != v {
                word.store(v, Ordering::Relaxed);
            }
        }
        slot.core.fill(args, self.program, waiter::FUTEX);
        slot.core.post();
        self.woke_server = self.bump_doorbell();
        Ok(())
    }

    /// Wait for the posted slot op and read its result. No reset: the slot
    /// stays `DONE` until the next post.
    fn finish_slot_op(&mut self) -> Result<[u64; 8], RtError> {
        self.wait_done()?;
        let core = &self.map.slot(self.idx).core;
        let (status, aux) = core.status();
        let rets = core.read_rets();
        if let Some((rt, vcpu)) = &self.obs {
            rt.stats.cell(*vcpu).xproc_calls.fetch_add(1, Ordering::Relaxed);
        }
        wire_to_result(status, aux, rets)
    }

    /// Synchronous PPC across the process boundary — the remote
    /// [`crate::Client::call`].
    pub fn call(&mut self, ep: EntryId, args: [u64; 8]) -> Result<[u64; 8], RtError> {
        self.post_slot_op(op::CALL, ep, args)?;
        self.finish_slot_op()
    }

    /// Start an asynchronous call; at most one per client slot (the
    /// borrow enforces it). The remote [`crate::Client::call_async`].
    pub fn call_async(&mut self, ep: EntryId, args: [u64; 8]) -> Result<XAsyncCall<'_>, RtError> {
        self.post_slot_op(op::CALL, ep, args)?;
        Ok(XAsyncCall { client: self })
    }

    /// Synchronous PPC carrying a request payload in the slot's 4 KiB
    /// payload page; returns the result words and the response payload
    /// — the remote [`crate::Client::call_with_payload`].
    pub fn call_with_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        payload: &[u8],
    ) -> Result<([u64; 8], Vec<u8>), RtError> {
        if payload.len() > SCRATCH_BYTES {
            return Err(RtError::BadBulk);
        }
        self.ensure_alive()?;
        // Safety: the client owns the payload page while the slot is not
        // POSTED (it is not: every slot op waits for its DONE).
        unsafe {
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                self.map.payload_ptr(self.idx),
                payload.len(),
            );
        }
        self.map.slot(self.idx).core.set_payload_len(payload.len() as u32);
        self.post_slot_op(op::PAYLOAD, ep, args)?;
        let rets = self.finish_slot_op()?;
        let n = (self.map.slot(self.idx).core.payload_len() as usize).min(SCRATCH_BYTES);
        // Safety: DONE observed; the server is finished with the page.
        let resp =
            unsafe { std::slice::from_raw_parts(self.map.payload_ptr(self.idx), n).to_vec() };
        Ok((rets, resp))
    }

    /// Synchronous bulk PPC: `desc` (over this client's own share —
    /// see [`XClient::bulk_desc`]) rides `args[7]`, exactly like
    /// [`crate::Client::call_bulk`]. Grant the entry first with
    /// [`XClient::bulk_grant`].
    pub fn call_bulk(
        &mut self,
        ep: EntryId,
        mut args: [u64; 8],
        desc: BulkDesc,
    ) -> Result<[u64; 8], RtError> {
        args[7] = desc.encode().ok_or(RtError::BadBulk)?;
        self.note_high_water(self.map.bulk_off(self.idx) + desc.offset as usize + desc.len as usize);
        self.call(ep, args)
    }

    /// A descriptor over `[offset, offset + len)` of this client's bulk
    /// share. Errors if the span exceeds the share or the client is not
    /// attached.
    pub fn bulk_desc(&self, offset: u32, len: u32, write: bool) -> Result<BulkDesc, RtError> {
        let region = self.map.slot(self.idx).region_id.load(Ordering::Acquire);
        if region == u32::MAX || offset as usize + len as usize > self.map.geo.bulk_bytes {
            return Err(RtError::BadBulk);
        }
        Ok(BulkDesc { region: region as RegionId, offset, len, write })
    }

    /// Copy `data` into the bulk share at `offset` (the remote
    /// [`crate::BulkRegion::fill`]). The caller must not have an
    /// in-flight call or SQE whose descriptor covers the span — the
    /// same exclusivity the in-process region access rules enforce,
    /// here guaranteed by the client's own call discipline (`&mut
    /// self` + synchronous waits).
    pub fn bulk_write(&mut self, offset: u32, data: &[u8]) -> Result<(), RtError> {
        let base = self.share_span(offset, data.len())?;
        // Safety: in-bounds; exclusivity per the doc contract.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), base, data.len()) };
        Ok(())
    }

    /// `[offset, offset + len)` of this client's bulk share, bounded.
    fn share_span(&self, offset: u32, len: usize) -> Result<*mut u8, RtError> {
        if offset as usize + len > self.map.geo.bulk_bytes {
            return Err(RtError::BadBulk);
        }
        Ok(self.map.span(self.map.bulk_off(self.idx) + offset as usize, len))
    }

    /// Copy `len` bytes out of the bulk share at `offset` (the remote
    /// [`crate::BulkRegion::read_into`] direction).
    pub fn bulk_read(&mut self, offset: u32, len: usize) -> Result<Vec<u8>, RtError> {
        let base = self.share_span(offset, len)?;
        // Safety: in-bounds; exclusivity per `bulk_write`'s contract.
        Ok(unsafe { std::slice::from_raw_parts(base, len).to_vec() })
    }

    /// Grant entry `ep` access to this client's bulk share (the remote
    /// [`crate::BulkRegion::grant`]): a control call the server
    /// executes against its region registry.
    pub fn bulk_grant(&mut self, ep: EntryId, write: bool) -> Result<(), RtError> {
        let mut args = [0u64; 8];
        args[0] = u64::from(write);
        self.post_slot_op(op::GRANT, ep, args)?;
        self.finish_slot_op().map(|_| ())
    }

    /// Revoke this client's grants to `ep`; returns how many were
    /// removed (the remote [`crate::BulkRegion::revoke`]).
    pub fn bulk_revoke(&mut self, ep: EntryId) -> Result<usize, RtError> {
        self.post_slot_op(op::REVOKE, ep, [0; 8])?;
        self.finish_slot_op().map(|r| r[0] as usize)
    }

    /// Advance the segment high-water mark to absolute offset `abs_end`.
    /// Its line is read by every serve pass: RMW only when it must grow.
    fn note_high_water(&self, abs_end: usize) {
        let hw = &self.map.header().high_water;
        if abs_end as u64 > hw.load(Ordering::Relaxed) {
            hw.fetch_max(abs_end as u64, Ordering::Relaxed);
        }
    }

    // -- ring ----------------------------------------------------------

    /// The boundary's part of a submission: liveness, then
    /// [`Producer::admit`] against `ring_depth` credits.
    fn ring_admit(&mut self, payload_len: usize) -> Result<(), RtError> {
        self.ensure_alive()?;
        self.ring.admit(self.map.geo.ring_depth, payload_len)
    }

    /// Queue one PPC (the remote [`crate::ClientRing::submit`]).
    /// Returns [`RtError::RingFull`] under backpressure — reap and
    /// retry. Call [`XClient::ring_doorbell`] after the batch.
    pub fn submit(&mut self, ep: EntryId, args: [u64; 8], user: u64) -> Result<(), RtError> {
        self.ring_admit(0)?;
        self.ring.push(ep, args, user, 0, None);
        Ok(())
    }

    /// Queue one PPC with a request payload staged into this client's
    /// ring staging page (the remote [`crate::ClientRing::submit_payload`]).
    /// The handler's scratch is exactly `payload.len()` bytes, and the
    /// [`Completion`] carries no reply payload.
    pub fn submit_payload(
        &mut self,
        ep: EntryId,
        args: [u64; 8],
        user: u64,
        payload: &[u8],
    ) -> Result<(), RtError> {
        self.ring_admit(payload.len())?;
        let staged_end = self.ring.push(ep, args, user, 0, Some(payload));
        self.note_high_water(staged_end);
        Ok(())
    }

    /// Queue one bulk PPC: `payload` is copied into the span `desc`
    /// describes (this client's share), and the descriptor rides
    /// `args[7]` (the remote [`crate::ClientRing::submit_bulk`]; see
    /// [`XClient::bulk_write`] for the span's exclusivity contract).
    pub fn submit_bulk(
        &mut self,
        ep: EntryId,
        mut args: [u64; 8],
        user: u64,
        desc: BulkDesc,
        payload: &[u8],
    ) -> Result<(), RtError> {
        if payload.len() > desc.len as usize {
            return Err(RtError::BadBulk);
        }
        // The copy below lands in this client's share whatever the
        // descriptor says: one over somebody else's region is refused.
        if desc.region != self.region_id() {
            return Err(RtError::BulkDenied(desc.region));
        }
        args[7] = desc.encode().ok_or(RtError::BadBulk)?;
        self.ring_admit(0)?;
        self.bulk_write(desc.offset, payload)?;
        self.note_high_water(self.map.bulk_off(self.idx) + desc.offset as usize + desc.len as usize);
        self.ring.push(ep, args, user, 0, None);
        Ok(())
    }

    /// Ring the doorbell for a submitted batch (the remote
    /// [`crate::ClientRing::doorbell`]): at most one futex wake per
    /// batch, and none while the server polls.
    pub fn ring_doorbell(&mut self) {
        self.bump_doorbell();
    }

    /// Harvest up to `max` completions (the remote
    /// [`crate::ClientRing::reap`]). Non-blocking; returns how many
    /// landed in `out`. When nothing is reapable but submissions are
    /// outstanding and the server died, returns [`RtError::PeerGone`]
    /// (in-flight work is lost; credits are forfeited with it). Empty
    /// polls read `server_state` each time, but `kill(pid, 0)` only once
    /// in 1 024 (the first included): no syscall per pass.
    pub fn reap(&mut self, max: usize, out: &mut Vec<Completion>) -> Result<usize, RtError> {
        let n = self.ring.reap(max, out, || ());
        if n != 0 || self.in_flight() == 0 {
            return Ok(n);
        }
        // A short pause, as the syscall it mostly skips was: a tight reap
        // loop would steal `cq_tail` back after every completion the
        // server publishes (−10 % `xproc_ring_d16` on a 2-vCPU Xeon VM).
        (0..8).for_each(|_| std::hint::spin_loop());
        self.empty_reaps = self.empty_reaps.wrapping_add(1);
        if self.map.header().server_state.load(Ordering::Acquire) != srv::SERVING
            || (self.empty_reaps % 1024 == 1 && !shm::pid_alive(self.server_pid))
        {
            self.note_peer_lost();
            // Forfeited: nothing is in flight towards a lost server.
            self.ring = Producer::new(self.map.lane(self.idx));
            return Err(RtError::PeerGone);
        }
        Ok(n)
    }

    /// Submissions not yet reaped.
    pub fn in_flight(&self) -> u64 {
        self.ring.in_flight()
    }

    /// Ask the server to shut down (sets the segment state word and
    /// wakes the serve loop) — the cooperating-parent teardown for
    /// forked servers. The server exits its loop; in-flight work on
    /// *other* clients completes with peer-gone semantics on their
    /// side.
    pub fn shutdown_server(&mut self) {
        let h = self.map.header();
        h.server_state.store(srv::SHUTDOWN, Ordering::Release);
        shm::futex_wake(&h.doorbell, u32::MAX);
        self.dead = true;
    }
}

impl Drop for XClient {
    fn drop(&mut self) {
        // Best-effort clean detach so the server reclaims the slot and
        // region immediately instead of at the next liveness sweep.
        if !self.server_alive() {
            return;
        }
        if self.post_slot_op(op::DETACH, 0, [0; 8]).is_ok() {
            // The server completes the DETACH and at once resets the
            // slot for its next claimer: wait only while it is POSTED,
            // and never touch it again — it may be somebody else's.
            let w = self.map.slot(self.idx).core.state_word();
            let deadline = Instant::now() + Duration::from_millis(200);
            while w.load(Ordering::Acquire) == state::POSTED && Instant::now() < deadline {
                shm::futex_wait(w, state::POSTED, Some(Duration::from_millis(20)));
            }
        }
    }
}

/// A pending asynchronous cross-process call (see
/// [`XClient::call_async`]). Dropping it without [`XAsyncCall::wait`]
/// blocks until the in-flight call completes (with the usual liveness
/// checks), discards the result, and releases the slot.
pub struct XAsyncCall<'a> {
    client: &'a mut XClient,
}

impl XAsyncCall<'_> {
    /// Whether the completion has landed.
    pub fn is_done(&self) -> bool {
        self.client.map.slot(self.client.idx).core.state_word().load(Ordering::Acquire)
            == state::DONE
    }

    /// Block for the result (futex rendezvous + liveness, like the
    /// synchronous call).
    pub fn wait(self) -> Result<[u64; 8], RtError> {
        // ManuallyDrop: finish_slot_op consumes the completion; the
        // abandoned-call Drop below must not run on top of that.
        let mut this = std::mem::ManuallyDrop::new(self);
        this.client.finish_slot_op()
    }
}

/// An abandoned call cannot simply be forgotten: the server owns the
/// slot — its payload page and words included — while it is POSTED, and
/// the client's next operation (the DETACH posted by [`XClient`]'s own
/// drop, say) must not write over them. Drop therefore drains the
/// rendezvous and resets the slot explicitly. On peer death the wait
/// errors out in tens of milliseconds and the reset is what frees the
/// slot: a gone server never writes it again.
impl Drop for XAsyncCall<'_> {
    fn drop(&mut self) {
        let _ = self.client.wait_done();
        self.client.map.slot(self.client.idx).core.reset();
    }
}

// ---------------------------------------------------------------------
// Forked servers (bench / example convenience)
// ---------------------------------------------------------------------

/// Handle to a server child created by [`fork_server`].
pub struct ForkedServer {
    pid: i32,
    reaped: bool,
}

impl ForkedServer {
    /// The child's PID.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    /// SIGKILL the child (peer-death experiments).
    pub fn kill(&self) {
        fork_sys::kill_pid(self.pid);
    }

    /// Reap the child (waitpid); idempotent.
    pub fn wait(&mut self) {
        if !self.reaped {
            fork_sys::waitpid(self.pid);
            self.reaped = true;
        }
    }
}

impl Drop for ForkedServer {
    fn drop(&mut self) {
        if !self.reaped {
            self.kill();
            self.wait();
        }
    }
}

/// Fork a child process that builds a runtime (via `build`), serves it
/// over a segment at `path`, and exits when a client calls
/// [`XClient::shutdown_server`] (or it is killed).
///
/// **Must be called before the calling process spawns threads** — fork
/// only duplicates the calling thread, and a forked child of a threaded
/// process may hold poisoned locks. Test binaries (whose harness is
/// threaded) should use the re-exec pattern instead: spawn
/// `current_exe()` with an env flag and run the server in the fresh
/// child's `main` (see `tests/xproc.rs`).
pub fn fork_server(
    path: &Path,
    opts: XSegOptions,
    build: impl FnOnce() -> Arc<Runtime>,
) -> std::io::Result<ForkedServer> {
    let pid = fork_sys::fork()?;
    if pid == 0 {
        // Child: serve until told to stop, then exit without running
        // the parent's atexit/Drop state.
        let rt = build();
        let code = match rt.serve_xproc(path, opts) {
            Ok(mut srv) => {
                srv.wait();
                0
            }
            Err(_) => 1,
        };
        std::process::exit(code);
    }
    Ok(ForkedServer { pid, reaped: false })
}

#[cfg(target_os = "linux")]
mod fork_sys {
    use core::ffi::c_int;

    mod libc {
        use core::ffi::c_int;
        extern "C" {
            pub fn fork() -> c_int;
            pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
            pub fn kill(pid: c_int, sig: c_int) -> c_int;
        }
    }

    pub(super) fn fork() -> std::io::Result<i32> {
        // Safety: plain fork; the caller upholds the single-threaded
        // contract documented on `fork_server`.
        let pid = unsafe { libc::fork() };
        if pid < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(pid)
    }

    pub(super) fn waitpid(pid: i32) {
        let mut status: c_int = 0;
        // Safety: plain waitpid on a child we own.
        unsafe { libc::waitpid(pid, &mut status, 0) };
    }

    pub(super) fn kill_pid(pid: i32) {
        const SIGKILL: c_int = 9;
        // Safety: signalling a child we own.
        unsafe { libc::kill(pid, SIGKILL) };
    }
}

#[cfg(not(target_os = "linux"))]
mod fork_sys {
    pub(super) fn fork() -> std::io::Result<i32> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "fork_server requires Linux",
        ))
    }

    pub(super) fn waitpid(_pid: i32) {}

    pub(super) fn kill_pid(_pid: i32) {}
}

// ---------------------------------------------------------------------
// Transport stats (exporter hook)
// ---------------------------------------------------------------------

/// A snapshot of segment-level transport stats for the exporters.
pub struct XprocStats {
    /// `"xproc-server"` — present only while a segment is mapped.
    pub mode: &'static str,
    /// Segment size in bytes.
    pub segment_bytes: u64,
    /// High-water byte offset reached by bulk/staged traffic.
    pub high_water: u64,
    /// Currently claimed client slots.
    pub clients: u32,
}

impl Runtime {
    /// Segment transport stats, if this runtime is serving a segment
    /// (`None` ⇒ purely in-process).
    pub fn xproc_stats(&self) -> Option<XprocStats> {
        let seg = self.xproc_segment()?.upgrade()?;
        if seg.len() < std::mem::size_of::<XSegHeader>() {
            return None;
        }
        // Safety: only ever set from a validated server segment.
        let h: &XSegHeader = unsafe { SegRef::new(SegOffset(0)).resolve(&seg) };
        Some(XprocStats {
            mode: "xproc-server",
            segment_bytes: seg.len() as u64,
            high_water: h.high_water.load(Ordering::Relaxed),
            clients: h.claim_mask.load(Ordering::Relaxed).count_ones(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::AtomicBool;

    #[test]
    fn wire_codes_roundtrip() {
        let errs = [
            RtError::UnknownEntry(7),
            RtError::EntryDead(3),
            RtError::Aborted(9),
            RtError::BadBulk,
            RtError::BulkDenied(5),
            RtError::BulkRevoked(6),
            RtError::BulkReentrant(2),
            RtError::TableFull,
            RtError::NotOwner,
            RtError::BadVcpu(1),
            RtError::ServerFault(4),
            RtError::RingFull,
            RtError::PeerGone,
            RtError::BadSegment,
        ];
        for e in errs {
            let (c, a, _) = result_to_wire(Err(e.clone()));
            assert_ne!(c, 0, "status 0 is success");
            assert_eq!(wire_to_result(c, a, [0; 8]), Err(e.clone()), "roundtrip {e:?}");
        }
    }

    #[test]
    fn geometry_is_consistent_and_bounded() {
        let g = Geometry::compute(4, 32, 256 << 10).unwrap();
        assert_eq!(g.slots_off, 128);
        assert!(g.rings_off >= g.slots_off + 4 * std::mem::size_of::<XClientSlot>());
        assert_eq!(g.stage_off % 4096, 0);
        assert_eq!(g.total_len % 4096, 0);
        // Refusals: zero clients, too many, non-pow2 depth, giant bulk.
        assert!(Geometry::compute(0, 32, 4096).is_none());
        assert!(Geometry::compute(65, 32, 4096).is_none());
        assert!(Geometry::compute(4, 33, 4096).is_none());
        assert!(Geometry::compute(4, 32, (1 << 24) + 64).is_none());
    }

    /// One of client `xc`'s four ring cursor words, by its byte offset
    /// in the asserted `RingCursors` layout (`sq_tail` 0, `sq_head` 64,
    /// `cq_tail` 128, `cq_head` 192) — what a hostile peer would poke.
    fn cursor(xc: &XClient, byte: usize) -> &AtomicU64 {
        let off = xc.map.geo.rings_off + xc.idx * xc.map.geo.ring_stride + byte;
        // Safety: inside the client's ring area; an aligned atomic word.
        unsafe { &*(xc.map.seg.base().add(off) as *const AtomicU64) }
    }

    fn serve_add(tag: &str, n_clients: usize) -> (Arc<Runtime>, XServer, EntryId, PathBuf) {
        let rt = Runtime::new(1);
        let ep = rt
            .bind(
                "add",
                crate::EntryOptions::default(),
                Arc::new(|ctx| [ctx.args[0] + ctx.args[1], 0, 0, 0, 0, 0, 0, 0]),
            )
            .unwrap();
        let path = shm::segment_dir().join(format!("ppc-xproc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = XSegOptions { n_clients, ring_depth: 8, bulk_bytes: 4096, vcpu: 0 };
        let srv = rt.serve_xproc(&path, opts).unwrap();
        (rt, srv, ep, path)
    }

    /// The claim handshake under contention: concurrent connectors must
    /// end up in distinct slots, each slot's identity words matching
    /// the client that owns it — the claim-before-write protocol (a
    /// losing racer that wrote words first could clobber the winner's
    /// pid/program after the winner's CAS).
    #[test]
    fn concurrent_connects_claim_distinct_slots() {
        let n = 8usize;
        let (_rt, srv, ep, path) = serve_add("claimrace", n);
        let clients: Vec<XClient> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n as u32)
                .map(|p| {
                    let path = path.clone();
                    s.spawn(move || {
                        XClient::connect_retry(&path, 100 + p, Duration::from_secs(10))
                            .expect("connect under contention")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut idxs: Vec<usize> = clients.iter().map(|c| c.idx).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), n, "every client owns a distinct slot");
        for c in &clients {
            assert_eq!(
                c.map.slot(c.idx).client_program.load(Ordering::Acquire),
                c.program,
                "slot identity words belong to the slot's owner"
            );
        }
        for mut c in clients {
            assert_eq!(c.call(ep, [20, 22, 0, 0, 0, 0, 0, 0]).unwrap()[0], 42);
        }
        drop(srv);
    }

    /// A client storing a garbage `sq_tail` must be detached — not
    /// handed an effectively-infinite drain loop that starves every
    /// other client and never re-checks shutdown.
    #[test]
    fn malformed_sq_tail_detaches_client_not_server() {
        let (rt, srv, ep, path) = serve_add("badtail", 2);
        let mut evil = XClient::connect_retry(&path, 66, Duration::from_secs(10)).unwrap();
        let mut good = XClient::connect_retry(&path, 77, Duration::from_secs(10)).unwrap();
        // Break the SPSC cursor contract: tail leaps far past head.
        cursor(&evil, 0).store(u64::MAX, Ordering::Release);
        evil.bump_doorbell();
        // The serve loop must stay responsive for well-behaved clients…
        assert_eq!(good.call(ep, [19, 23, 0, 0, 0, 0, 0, 0]).unwrap()[0], 42);
        // …and must reclaim the malformed one (claim bit released,
        // loss on the flight record).
        let deadline = Instant::now() + Duration::from_secs(5);
        while evil.map.header().claim_mask.load(Ordering::Acquire) & (1u64 << evil.idx) != 0 {
            assert!(Instant::now() < deadline, "malformed client detached before deadline");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            rt.flight().snapshot(0).iter().any(|e| e.kind == FlightKind::PeerLost),
            "forced detach lands on the flight record"
        );
        // The slot no longer belongs to `evil`; skip its clean-detach
        // drop protocol against a reclaimed (possibly re-claimed) slot.
        evil.dead = true;
        drop(evil);
        drop(good);
        drop(srv);
    }

    /// The other two cursors are the server's own: a client that
    /// rewinds `sq_head` and `cq_tail` mid-traffic gets no SQE replayed
    /// and no completion rewritten — the server publishes from private
    /// copies and never loads them back. Nor does it load `cq_head`,
    /// the client's own word: scribbled far ahead it must not stop a
    /// debug server on an occupancy check (and every other client with
    /// it).
    #[test]
    fn scribbled_server_cursors_do_not_rewind_the_server() {
        let (rt, srv, ep, path) = serve_add("rewind", 1);
        let mut xc = XClient::connect_retry(&path, 66, Duration::from_secs(10)).unwrap();
        let mut out = Vec::new();
        let mut round_trip = |xc: &mut XClient, user: u64| {
            xc.submit(ep, [user, 1, 0, 0, 0, 0, 0, 0], user).unwrap();
            xc.ring_doorbell();
            let deadline = Instant::now() + Duration::from_secs(5);
            while xc.reap(8, &mut out).unwrap() == 0 {
                assert!(Instant::now() < deadline, "SQE {user} completed");
                std::thread::yield_now();
            }
        };
        (0..3).for_each(|user| round_trip(&mut xc, user));
        cursor(&xc, 64).store(0, Ordering::SeqCst);
        cursor(&xc, 128).store(0, Ordering::SeqCst);
        cursor(&xc, 192).store(u64::MAX / 2, Ordering::SeqCst);
        // The client reads `cq_tail` too: let the server overwrite the
        // scribble — from its private copy, 3 + 1 — before reaping.
        xc.submit(ep, [3, 1, 0, 0, 0, 0, 0, 0], 3).unwrap();
        xc.ring_doorbell();
        let deadline = Instant::now() + Duration::from_secs(5);
        while cursor(&xc, 128).load(Ordering::SeqCst) != 4 {
            assert!(Instant::now() < deadline, "cq_tail published from the private copy");
            std::thread::yield_now();
        }
        assert_eq!(xc.reap(8, &mut out), Ok(1));
        let seen: Vec<_> = out.iter().map(|c| (c.user, c.result.clone().unwrap()[0])).collect();
        assert_eq!(seen, [(0, 1), (1, 2), (2, 3), (3, 4)], "each SQE completed once");
        assert_eq!(rt.stats.snapshot().xproc_calls, 4, "and ran once");
        drop(xc);
        drop(srv);
    }

    /// The slot is never reset between calls: it stays `DONE` until the
    /// next post, `ep`/`xop` are rewritten only when they change, and the
    /// high-water RMW runs only when the mark grows. One client mixes
    /// every slot op across two entries — plain and payload calls, bulk
    /// calls over moving spans, grants, async calls waited and dropped —
    /// for 10⁴ checked operations, detaches, and a second client on the
    /// same slot starts clean. The high-water mark is still the largest
    /// span any descriptor reached.
    #[test]
    fn slot_ops_mix_without_a_reset_between_calls() {
        let (rt, srv, add, path) = serve_add("noreset", 1);
        // The second entry: a payload call bumps each byte and doubles
        // `args[1]`; a bulk call sums its span.
        let bump: crate::Handler = Arc::new(|ctx| {
            if let Some(desc) = ctx.bulk_desc() {
                let sum = ctx.with_bulk(desc, |b| b.iter().map(|&x| u64::from(x)).sum::<u64>());
                return [sum.unwrap_or(u64::MAX), 0, 0, 0, 0, 0, 0, 0];
            }
            let n = ctx.args[0] as usize;
            ctx.scratch()[..n].iter_mut().for_each(|b| *b = b.wrapping_add(1));
            [ctx.args[1] * 2, 0, 0, 0, 0, 0, 0, n as u64]
        });
        let bump = rt.bind("bump", crate::EntryOptions::default(), bump).unwrap();
        let mut xc = XClient::connect_retry(&path, 66, Duration::from_secs(10)).unwrap();
        xc.bulk_write(0, &[1; 4096]).unwrap();
        xc.bulk_grant(bump, false).unwrap();
        let share = xc.map.bulk_off(xc.idx) as u64;
        let mut high = 0;
        for i in 0..10_000u64 {
            match i % 6 {
                0 => assert_eq!(xc.call(add, [i, 1, 0, 0, 0, 0, 0, 0]).unwrap()[0], i + 1),
                1 => {
                    let req: Vec<u8> = (0..i % 64 + 1).map(|k| (i + k) as u8).collect();
                    let args = [req.len() as u64, i, 0, 0, 0, 0, 0, 0];
                    let (rets, resp) = xc.call_with_payload(bump, args, &req).unwrap();
                    assert_eq!(rets[0], 2 * i);
                    assert!(resp.iter().zip(&req).all(|(r, q)| *r == q.wrapping_add(1)));
                    assert_eq!(resp.len(), req.len());
                }
                2 => {
                    let (off, len) = ((i * 7 % 2048) as u32, (i % 512 + 1) as u32);
                    high = high.max(share + u64::from(off + len));
                    let desc = xc.bulk_desc(off, len, false).unwrap();
                    assert_eq!(xc.call_bulk(bump, [0; 8], desc).unwrap()[0], u64::from(len));
                }
                3 => xc.bulk_grant(bump, false).unwrap(),
                4 => {
                    let pending = xc.call_async(add, [i, 2, 0, 0, 0, 0, 0, 0]).unwrap();
                    assert_eq!(pending.wait().unwrap()[0], i + 2);
                }
                _ => drop(xc.call_async(bump, [0, i, 0, 0, 0, 0, 0, 0]).unwrap()),
            }
        }
        assert_eq!(rt.xproc_stats().unwrap().high_water, high);
        drop(xc);
        let mut next = XClient::connect_retry(&path, 67, Duration::from_secs(10)).unwrap();
        assert_eq!(next.idx, 0, "the one slot, detached and claimed again");
        assert_eq!(next.call(add, [40, 2, 0, 0, 0, 0, 0, 0]).unwrap()[0], 42);
        // The grants went with the detach: the new share is unreadable.
        let desc = next.bulk_desc(0, 16, false).unwrap();
        assert_eq!(next.call_bulk(bump, [0; 8], desc).unwrap()[0], u64::MAX);
        assert_eq!(rt.xproc_stats().unwrap().high_water, high);
        drop(next);
        drop(srv);
    }

    /// A drop's DETACH is over once the server has answered it: the
    /// server resets the slot right after completing, so a drop that
    /// waited for `DONE` instead sat out its 200 ms deadline.
    #[test]
    fn a_dropped_client_detaches_promptly() {
        let (_rt, srv, ep, path) = serve_add("dropwait", 1);
        let mut slow = Vec::new();
        for round in 0..30u64 {
            let mut xc = XClient::connect_retry(&path, 66, Duration::from_secs(10)).unwrap();
            assert_eq!(xc.call(ep, [round, 1, 0, 0, 0, 0, 0, 0]).unwrap()[0], round + 1);
            let t0 = Instant::now();
            drop(xc);
            slow.extend(Some(t0.elapsed()).filter(|d| *d >= Duration::from_millis(50)));
        }
        assert!(slow.is_empty(), "drops that took 50 ms or more: {slow:?}");
        drop(srv);
    }

    /// The slot a drop frees can be claimed while the drop is still
    /// returning: the old client must not write it again. A new client
    /// claims it and calls until the old one's drop has returned — and
    /// at least 10³ times — with every call answered.
    #[test]
    fn a_new_claimer_survives_the_old_clients_drop() {
        let (_rt, srv, ep, path) = serve_add("reclaim", 1);
        let mut old = XClient::connect_retry(&path, 66, Duration::from_secs(10)).unwrap();
        assert_eq!(old.call(ep, [1, 1, 0, 0, 0, 0, 0, 0]).unwrap()[0], 2);
        let dropped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let flag = Arc::clone(&dropped);
        // Detached: a call lost to a stray write would block it.
        std::thread::spawn(move || {
            let mut xc = XClient::connect_retry(&path, 67, Duration::from_secs(10)).unwrap();
            let mut n = 0u64;
            while n < 1_000 || !flag.load(Ordering::Acquire) {
                let sum = xc.call(ep, [n, 1, 0, 0, 0, 0, 0, 0]).map(|r| r[0]);
                assert_eq!(sum, Ok(n + 1), "call {n} of the new client");
                n += 1;
            }
            tx.send(n).unwrap();
        });
        drop(old);
        dropped.store(true, Ordering::Release);
        let n = rx.recv_timeout(Duration::from_secs(10)).expect("the new client's calls all answered");
        assert!(n >= 1_000);
        drop(srv);
    }

    /// The segment's client staging areas are neighbours. Client 0
    /// forging an SQE's staged span onto client 1's first page, across
    /// the boundary between their areas, or below its own area gets a
    /// `BadBulk` CQE for each: the handler — which overwrites whatever
    /// scratch it is given — never runs on them, client 1's pages keep
    /// their bytes, and client 0 stays attached and served.
    #[test]
    fn forged_offset_cannot_reach_a_neighbours_staging_page() {
        let (rt, srv, _, path) = serve_add("forge", 2);
        let scribble: crate::Handler = Arc::new(|ctx| {
            let fill = ctx.args[0] as u8;
            ctx.scratch().fill(fill);
            ctx.args
        });
        let ep = rt.bind("scribble", crate::EntryOptions::default(), scribble).unwrap();
        let mut a = XClient::connect_retry(&path, 66, Duration::from_secs(10)).unwrap();
        let mut b = XClient::connect_retry(&path, 77, Duration::from_secs(10)).unwrap();
        assert_eq!((a.idx, b.idx), (0, 1));
        let mut out = Vec::new();
        let reap_one = |xc: &mut XClient, out: &mut Vec<Completion>| {
            xc.ring_doorbell();
            let deadline = Instant::now() + Duration::from_secs(5);
            while xc.reap(1, out).unwrap() == 0 {
                assert!(Instant::now() < deadline, "the SQE completed");
                std::thread::yield_now();
            }
            out.pop().unwrap().result
        };
        let g = a.map.geo;
        let stage = LaneRef::stage_bytes(g.ring_depth as usize);
        // Client 1's whole area, once one of its own payloads is staged
        // and scribbled on.
        b.submit_payload(ep, [0xB1; 8], 1, &[0; 64]).unwrap();
        assert_eq!(reap_one(&mut b, &mut out), Ok([0xB1; 8]));
        let area1 = a.map.seg.base().wrapping_add(g.stage_off + stage) as *const u8;
        // Safety: inside the mapping by the validated geometry.
        let area1 = || unsafe { std::slice::from_raw_parts(area1, stage).to_vec() };
        let before = area1();
        assert!(before[..64].iter().all(|&x| x == 0xB1), "the handler wrote its own page");
        let calls = rt.stats.snapshot().xproc_calls;
        for (user, forged) in [g.stage_off + stage, g.stage_off + stage - 2, g.stage_off - 1]
            .into_iter()
            .enumerate()
        {
            crate::ring::tests::push_forged(&mut a.ring, ep, user as u64, forged as u32, 3);
            assert_eq!(reap_one(&mut a, &mut out), Err(RtError::BadBulk), "offset {forged}");
        }
        assert_eq!(area1(), before, "client 1's pages are untouched");
        assert_ne!(a.map.header().claim_mask.load(Ordering::Acquire) & 1, 0, "client 0 attached");
        a.submit_payload(ep, [5; 8], 9, &[1, 2, 3]).unwrap();
        assert_eq!(reap_one(&mut a, &mut out), Ok([5; 8]), "and served");
        assert_eq!(rt.stats.snapshot().xproc_calls, calls + 4, "each forged SQE completed once");
        drop((a, b));
        drop(srv);
    }

    #[test]
    fn create_then_validate_accepts_and_version_mismatch_is_clean() {
        let dir = shm::segment_dir();
        let path = dir.join(format!("ppc-xproc-hdr-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = XSegOptions { n_clients: 2, ring_depth: 8, bulk_bytes: 4096, vcpu: 0 };
        let map = SegMap::create(&path, &opts).unwrap();
        // Re-open by path: full validation passes.
        let re = SegMap::open(&path).unwrap();
        assert_eq!(re.geo, map.geo);
        // Any other version — layouts 1 and 2, whose rings had 96- and
        // 88-byte entries, and 3, whose slots carried a claim-parity
        // word at offset 16, included — is a clean BadSegment, not UB.
        assert_eq!(XPROC_LAYOUT_VERSION, 4);
        for version in [1, 2, 3, XPROC_LAYOUT_VERSION + 1] {
            // Safety: single-process test, no concurrent reader.
            unsafe { *(map.seg.base().add(8) as *mut u32) = version };
            assert_eq!(SegMap::open(&path).err(), Some(RtError::BadSegment));
        }
        drop(re);
        drop(map);
        assert!(!path.exists());
    }
}
