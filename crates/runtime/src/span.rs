//! Causal call tracing: span propagation across PPC chains.
//!
//! The histogram plane ([`crate::obs`]) reports marginal distributions —
//! it can say rendezvous waits are slow *in aggregate*, never why *this*
//! p99 call was slow. The tracing plane answers that: every sampled root
//! call mints a 64-bit **trace context** (trace id + parent span + depth)
//! that rides the call through inline dispatch, the hand-off rendezvous,
//! nested calls made from inside handlers, Frank grow events, and bulk
//! copies, leaving packed **span records** (begin/end + phase tag) in
//! per-vCPU rings.
//!
//! The discipline matches the rest of the observability plane:
//!
//! * **Sampling** — a root span is only minted on calls already chosen
//!   by [`crate::ObsState::try_sample`], so the unsampled common case
//!   pays one thread-local read and a branch. Once a trace is live,
//!   every span *within* it records (causal completeness: a sampled
//!   trace with holes cannot attribute its own tail).
//! * **Shared-nothing recording** — a span is one [`Record`] (the
//!   flight recorder's record, its kind byte naming a [`SpanPhase`],
//!   `data` the trace id) in the vCPU's own `flight::SeqRing`, and trace
//!   and span ids come from a mint beside that ring's cursor. A sampled
//!   call writes no line another vCPU writes.
//!
//! **Propagation** is thread-local: whoever begins an *enclosing* span
//! (the root call span, a handler span) installs its context into a
//! thread-local cell and restores the previous value at end, so nested
//! `Client::call`s from inside a handler parent naturally. Across the
//! hand-off the context travels in a word on the [`crate::slot::CallSlot`]
//! (written before the `POSTED` store, read by the worker after its
//! acquire — the existing edge orders it for free).
//!
//! **Tail exemplars**: when a completed root span's duration exceeds
//! [`EXEMPLAR_FACTOR`] × the entry point's EWMA latency, the root and up
//! to [`EXEMPLAR_SPANS`] − 1 more of the trace's records are copied from
//! the span rings into the vCPU's exemplar ring (a third ring of the same
//! type, [`EXEMPLAR_RING`] records), closed by a
//! [`FlightKind::Exemplar`] header. An [`Exemplar`] is built when read:
//! its phase breakdown comes from [`crate::profile::build`], and a tree
//! whose records were partly overwritten is not returned.
//! `Runtime::diagnostics()` prints "slowest recent calls and where the
//! time went".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use crate::export::Json;
use crate::flight::{now_ns, FlightKind, Kind, Record, SeqRing};
use crate::EntryId;

/// Default span-ring slots per vCPU (power of two; ~40 KB per vCPU).
/// Override with `RuntimeOptions::trace_capacity`.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Tail exemplars returned per vCPU (the newest whole ones).
pub const EXEMPLAR_CAPACITY: usize = 4;

/// Spans retained per exemplar (a deeper tree is truncated, flagged).
pub const EXEMPLAR_SPANS: usize = 32;

/// Exemplar-ring slots per vCPU: room for [`EXEMPLAR_CAPACITY`] trees
/// of [`EXEMPLAR_SPANS`] spans and a header each.
pub const EXEMPLAR_RING: usize = (EXEMPLAR_CAPACITY * (EXEMPLAR_SPANS + 1)).next_power_of_two();

/// Promotion threshold: a root span slower than this factor times the
/// entry's EWMA latency becomes an exemplar.
pub const EXEMPLAR_FACTOR: u64 = 2;

/// What a span covers — the phase tag in the packed record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanPhase {
    /// Synchronous root or nested call, end to end (dispatch → return).
    Call = 1,
    /// Client-side rendezvous wait (post → `DONE` observed).
    Rendezvous = 2,
    /// Handler execution (worker-side or inline).
    Handler = 3,
    /// Bulk copy engine transfer.
    BulkCopy = 4,
    /// Frank slow path fired inside the call (instant span, duration 0).
    Frank = 5,
    /// Asynchronous call, dispatch to completion-observed.
    Async = 6,
    /// Ring-submitted batch, its first SQE accepted to that SQE reaped.
    Ring = 7,
}

/// All phases, in discriminant order (exporter iteration surface).
pub const PHASES: [SpanPhase; 7] = [
    SpanPhase::Call,
    SpanPhase::Rendezvous,
    SpanPhase::Handler,
    SpanPhase::BulkCopy,
    SpanPhase::Frank,
    SpanPhase::Async,
    SpanPhase::Ring,
];

/// Slots in a per-phase accumulation array indexed by discriminant
/// (index 0 unused).
pub const NPHASES: usize = 8;

impl SpanPhase {
    /// Stable lower-case label (trace-event `name`, diagnostics).
    pub fn label(self) -> &'static str {
        ["call", "rendezvous", "handler", "bulk_copy", "frank", "async", "ring"][self as usize - 1]
    }

    /// Whether this phase runs on the serving side of the hand-off
    /// (drawn on the server track in the exported trace, so overlapping
    /// client waits and handler runs never mis-nest).
    pub fn server_side(self) -> bool {
        matches!(self, SpanPhase::Handler | SpanPhase::BulkCopy | SpanPhase::Frank)
    }
}

/// The 64-bit trace context: `trace_id:32 | span_id:16 | depth:8 | 0:8`.
/// A packed value of 0 means "no active trace" — trace ids are minted
/// non-zero, so every live context packs non-zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace identity, shared by every span of one causal chain.
    pub trace_id: u32,
    /// This context's own span (the parent of spans begun under it).
    pub span_id: u16,
    /// Nesting depth (root call = 0).
    pub depth: u8,
}

impl TraceCtx {
    /// Pack into the wire word (non-zero for any minted context).
    pub fn pack(self) -> u64 {
        ((self.trace_id as u64) << 32) | ((self.span_id as u64) << 16) | ((self.depth as u64) << 8)
    }

    /// Unpack a wire word; `None` for the "no trace" zero word.
    pub fn unpack(w: u64) -> Option<TraceCtx> {
        if w == 0 {
            return None;
        }
        Some(TraceCtx {
            trace_id: (w >> 32) as u32,
            span_id: (w >> 16) as u16,
            depth: (w >> 8) as u8,
        })
    }
}

/// A live span handed back by the begin calls: its record, still
/// without a duration. Closed by [`SpanPlane::end_token`] (usually via
/// [`SpanScope`]'s drop).
#[derive(Clone, Copy, Debug)]
pub struct SpanToken {
    /// The span's record; `dur_ns` is filled in at its end.
    pub rec: Record,
    /// Thread context to restore at end (only meaningful if installed).
    pub(crate) prev: u64,
    /// Whether this span was installed as the thread's current context.
    pub(crate) installed: bool,
}

impl SpanToken {
    /// This span's own context (what children parent under).
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx { trace_id: self.rec.trace_id(), span_id: self.rec.span_id, depth: self.rec.depth }
    }
}

/// One promoted tail exemplar: a slow root call with its span tree and
/// per-phase time breakdown, built from the exemplar ring when read.
#[derive(Clone, Debug)]
pub struct Exemplar {
    /// The root call's span: the trace, entry, vCPU and total time.
    pub root: Record,
    /// The entry's EWMA latency when promoted (ns) — the threshold base.
    pub ewma_ns: u64,
    /// Summed duration per phase, indexed by [`SpanPhase`] discriminant
    /// (index 0 unused; the root call span itself is excluded so the
    /// breakdown attributes time *within* the call).
    pub phase_ns: [u64; NPHASES],
    /// Frank slow-path events inside the retained tree.
    pub frank_events: u32,
    /// The retained span tree (at most [`EXEMPLAR_SPANS`], by start
    /// time).
    pub spans: Vec<Record>,
    /// The tree had more spans than [`EXEMPLAR_SPANS`].
    pub truncated: bool,
}

impl Exemplar {
    /// The exemplar `header` closes: `tree` is the records before it,
    /// root first. `None` unless the tree is whole — one trace's spans,
    /// as many as the header counts (up to [`EXEMPLAR_SPANS`]).
    pub fn from_tree(header: &Record, tree: &[Record]) -> Option<Exemplar> {
        let root = *tree.first()?;
        let whole = header.kind == Kind::Flight(FlightKind::Exemplar)
            && tree.len() == (header.data as usize).min(EXEMPLAR_SPANS)
            && root.is_root()
            && tree.iter().all(|r| r.phase().is_some() && r.trace_id() == root.trace_id());
        if !whole {
            return None;
        }
        let (mut phase_ns, mut frank_events) = ([0; NPHASES], 0);
        for e in crate::profile::build(tree, &HashMap::new()).entries {
            for (ns, agg) in phase_ns.iter_mut().zip(&e.phases) {
                *ns += agg.total_ns;
            }
            frank_events += e.phases[SpanPhase::Frank as usize].count as u32;
        }
        phase_ns[SpanPhase::Call as usize] -= root.dur_ns; // time within the call
        let mut spans = tree.to_vec();
        spans.sort_unstable_by_key(|r| (r.start_ns, r.depth));
        let (ewma_ns, truncated) = (header.dur_ns, header.data as usize > EXEMPLAR_SPANS);
        Some(Exemplar { root, ewma_ns, phase_ns, frank_events, spans, truncated })
    }

    /// One-line summary: where the time went.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let r = &self.root;
        let mut out = format!(
            "trace {:08x} ep {} vcpu {}: total={}ns (ewma {}ns)",
            r.data, r.ep, r.vcpu, r.dur_ns, self.ewma_ns
        );
        for phase in PHASES {
            if phase == SpanPhase::Call {
                continue;
            }
            let ns = self.phase_ns[phase as usize];
            if ns > 0 {
                let _ = write!(out, " {}={}ns", phase.label(), ns);
            }
        }
        if self.frank_events > 0 {
            let _ = write!(out, " frank_events={}", self.frank_events);
        }
        if self.truncated {
            let _ = write!(out, " (tree truncated)");
        }
        out
    }

    /// The exemplar's JSON object: its root's [`Record::json`] object,
    /// then `total_ns` (the root's `dur_ns`) and the tree's objects as
    /// `spans`.
    pub fn json(&self) -> Json {
        let mut doc = self.root.json();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("total_ns".into(), Json::Num(self.root.dur_ns as f64)));
            fields.push(("spans".into(), Json::Arr(self.spans.iter().map(Record::json).collect())));
        }
        doc
    }
}

/// One vCPU's share of the plane: its span ring, the id mint beside the
/// ring's cursor (one line pair, written only by calls on this vCPU),
/// and its exemplar ring, written only by promotions (cold by the EWMA
/// threshold's construction).
#[derive(Debug)]
struct VcpuSpans {
    ring: SeqRing,
    /// Ids minted on this vCPU so far.
    mint: AtomicU64,
    exemplars: SeqRing,
}

thread_local! {
    /// The calling thread's current trace context (packed; 0 = none).
    /// Thread-local for the same reason the sampling tick is: the
    /// unsampled fast path must not touch shared memory to learn "no
    /// trace is active".
    static CTX: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The runtime's tracing plane: per-vCPU span rings, id mints and
/// exemplar rings.
#[derive(Debug)]
pub struct SpanPlane {
    /// Bit 0: tracing enabled.
    cfg: AtomicU32,
    /// Bits of a minted id that carry the vCPU index.
    vcpu_bits: u32,
    promotions: AtomicU64,
    vcpus: Box<[CachePadded<VcpuSpans>]>,
}

const CFG_TRACE_ON: u32 = 1;

impl SpanPlane {
    /// A plane for `n_vcpus` virtual processors with `capacity` ring
    /// slots per vCPU (must be a power of two), enabled.
    pub(crate) fn new(n_vcpus: usize, capacity: usize) -> Self {
        let n = n_vcpus.max(1);
        SpanPlane {
            cfg: AtomicU32::new(CFG_TRACE_ON),
            vcpu_bits: usize::BITS - (n - 1).leading_zeros(),
            promotions: AtomicU64::new(0),
            vcpus: (0..n)
                .map(|_| {
                    CachePadded::new(VcpuSpans {
                        ring: SeqRing::new(capacity),
                        mint: AtomicU64::new(0),
                        exemplars: SeqRing::new(EXEMPLAR_RING),
                    })
                })
                .collect(),
        }
    }

    /// Whether tracing is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.load(Ordering::Relaxed) & CFG_TRACE_ON != 0
    }

    /// Enable or disable span recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.cfg.store(if on { CFG_TRACE_ON } else { 0 }, Ordering::Relaxed);
    }

    /// Ring slots per vCPU.
    pub fn capacity(&self) -> usize {
        self.vcpus[0].ring.capacity()
    }

    /// Number of vCPU rings.
    pub fn n_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    /// The calling thread's current trace context, if any.
    #[inline]
    pub fn current(&self) -> Option<TraceCtx> {
        TraceCtx::unpack(CTX.with(|c| c.get()))
    }

    /// Mint a non-zero id on `vcpu`: the vCPU index in the low
    /// `vcpu_bits`, the vCPU's own counter above it. A trace id is the
    /// whole word, a span id its low 16 bits. Ids minted on two vCPUs
    /// never collide, and one vCPU's ids repeat only after its counter
    /// wraps the 16 (span) or 32 (trace) bits left; the exporter matches
    /// begin/end pairs by (trace, span).
    fn mint(&self, vcpu: usize) -> u32 {
        loop {
            let n = self.vcpus[vcpu].mint.fetch_add(1, Ordering::Relaxed);
            let id = ((n << self.vcpu_bits) | vcpu as u64) as u32;
            if id as u16 != 0 {
                return id;
            }
        }
    }

    fn begin(
        &self,
        parent: Option<TraceCtx>,
        mint_root: bool,
        install: bool,
        vcpu: usize,
        ep: EntryId,
        phase: SpanPhase,
    ) -> Option<SpanToken> {
        let (data, span_id, parent_id, depth) = match parent {
            Some(p) => (p.trace_id, self.mint(vcpu) as u16, p.span_id, p.depth.saturating_add(1)),
            None if mint_root && self.enabled() => {
                let id = self.mint(vcpu);
                (id, id as u16, 0, 0)
            }
            None => return None,
        };
        let (seq, kind, vcpu, ep, start_ns, dur_ns) =
            (0, Kind::Span(phase), vcpu as u8, ep as u16, now_ns(), 0);
        let rec = Record { seq, kind, vcpu, ep, data, span_id, parent_id, depth, start_ns, dur_ns };
        let mut tok = SpanToken { rec, prev: 0, installed: install };
        if install {
            tok.prev = CTX.with(|c| c.replace(tok.ctx().pack()));
        }
        Some(tok)
    }

    /// Begin a (possibly root) call span on the client side and install
    /// it as the thread's context, so Frank events during resource
    /// acquisition and the rendezvous wait parent under it. A root is
    /// minted only when `sampled` (the caller's existing
    /// [`crate::ObsState::try_sample`] verdict); a live enclosing
    /// context always traces, sampled or not.
    #[inline]
    pub fn begin_call(&self, sampled: bool, vcpu: usize, ep: EntryId) -> Option<SpanToken> {
        self.begin_client(sampled, true, vcpu, ep, SpanPhase::Call)
    }

    /// A client-side span: under the thread's context if one is live,
    /// else a new root if `sampled`. The unsampled, untraced case leaves
    /// here without a call. An async span (closed when its completion is
    /// observed) and a ring span (one per sampled batch, at its first
    /// SQE, closed when that SQE is reaped; its context rides the SQE's
    /// trace word) are not installed: the caller continues immediately.
    #[inline]
    pub(crate) fn begin_client(
        &self,
        sampled: bool,
        install: bool,
        vcpu: usize,
        ep: EntryId,
        phase: SpanPhase,
    ) -> Option<SpanToken> {
        let parent = self.current();
        if parent.is_none() && !sampled {
            return None;
        }
        self.begin(parent, sampled, install, vcpu, ep, phase)
    }

    /// Begin a handler span under a propagated context word (the call
    /// slot's trace word for hand-off, the call token's context for
    /// inline) and install it, so nested calls made by the handler
    /// parent under the handler span.
    #[inline]
    pub fn begin_handler(&self, ctx_word: u64, vcpu: usize, ep: EntryId) -> Option<SpanToken> {
        let parent = TraceCtx::unpack(ctx_word)?;
        self.begin(Some(parent), false, true, vcpu, ep, SpanPhase::Handler)
    }

    /// Begin a leaf span (rendezvous wait, bulk copy) under the thread's
    /// current context. Not installed — leaves have no children.
    #[inline]
    pub fn begin_leaf(&self, vcpu: usize, ep: EntryId, phase: SpanPhase) -> Option<SpanToken> {
        let parent = self.current()?;
        self.begin(Some(parent), false, false, vcpu, ep, phase)
    }

    /// Record an instant (zero-duration) span under the thread's current
    /// context — Frank grow events. No-op outside a live trace.
    #[inline]
    pub fn record_instant(&self, vcpu: usize, ep: EntryId, phase: SpanPhase) {
        if let Some(tok) = self.begin_leaf(vcpu, ep, phase) {
            self.write(&tok, 0);
        }
    }

    /// Write `tok`'s record, lasting `dur_ns`, into its vCPU's ring.
    fn write(&self, tok: &SpanToken, dur_ns: u64) -> Record {
        let rec = Record { dur_ns, ..tok.rec };
        self.vcpus[rec.vcpu as usize].ring.push(&rec);
        rec
    }

    /// End a span: write its record into the token's vCPU ring, restore
    /// the thread context if the begin installed one, and — for a root
    /// token with an EWMA cell — run the exemplar promotion check.
    /// Returns the span duration in nanoseconds.
    pub fn end_token(&self, tok: SpanToken, ewma: Option<&AtomicU64>) -> u64 {
        let dur = now_ns().saturating_sub(tok.rec.start_ns);
        let rec = self.write(&tok, dur);
        if tok.installed {
            CTX.with(|c| c.set(tok.prev));
        }
        if rec.is_root() {
            if let Some(cell) = ewma {
                self.consider_exemplar(&rec, cell);
            }
        }
        dur
    }

    /// Root-span tail check: promote the trace into the vCPU's exemplar
    /// ring when its duration exceeds [`EXEMPLAR_FACTOR`] × the
    /// entry's EWMA, then fold the duration into the EWMA (weight 1/8,
    /// like the spin-budget EWMA). First observation seeds the EWMA and
    /// never promotes (no baseline yet).
    fn consider_exemplar(&self, root: &Record, ewma: &AtomicU64) {
        let (old, dur) = (ewma.load(Ordering::Relaxed), root.dur_ns);
        let promote = old > 0 && dur > old.saturating_mul(EXEMPLAR_FACTOR);
        let new = if old == 0 { dur } else { old - old / 8 + dur / 8 };
        ewma.store(new, Ordering::Relaxed);
        if promote {
            self.promote(root, old);
        }
    }

    /// Copy the trace's records into the root vCPU's exemplar ring — the
    /// root first, then up to [`EXEMPLAR_SPANS`] − 1 more — and close
    /// the tree with its header. Cold path (taken only past the tail
    /// threshold); allocates nothing.
    fn promote(&self, root: &Record, ewma: u64) {
        let ring = &self.vcpus[root.vcpu as usize].exemplars;
        ring.push(root);
        let mut found = 1u32;
        for v in self.vcpus.iter() {
            v.ring.each(|rec| {
                if rec.trace_id() == root.trace_id() && !rec.is_root() && rec.phase().is_some() {
                    if (found as usize) < EXEMPLAR_SPANS {
                        ring.push(&rec);
                    }
                    found += 1;
                }
            });
        }
        ring.push(&Record { dur_ns: ewma, ..Record::event(FlightKind::Exemplar, root.vcpu, root.ep, found) });
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Total exemplar promotions since boot.
    pub fn promoted(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Spans recorded on `vcpu` since boot (including overwritten ones).
    pub fn recorded(&self, vcpu: usize) -> u64 {
        self.vcpus[vcpu].ring.recorded()
    }

    /// The retained span records of `vcpu`'s ring, oldest first (cold
    /// read path; torn slots skipped).
    pub fn snapshot(&self, vcpu: usize) -> Vec<Record> {
        self.vcpus[vcpu].ring.records()
    }

    /// Every retained span record across all vCPUs, ordered by start
    /// time (the exporter's input).
    pub fn all_records(&self) -> Vec<Record> {
        let mut out: Vec<Record> = self.vcpus.iter().flat_map(|v| v.ring.records()).collect();
        out.sort_unstable_by_key(|r| (r.start_ns, r.depth, r.span_id));
        out
    }

    /// The newest whole tail exemplars of `vcpu`, most recent last (at
    /// most [`EXEMPLAR_CAPACITY`]; cold path).
    pub fn exemplars(&self, vcpu: usize) -> Vec<Exemplar> {
        let recs = self.vcpus[vcpu].exemplars.records();
        let mut out = Vec::new();
        for (i, header) in recs.iter().enumerate().rev() {
            // The tree is the records just before its header, retained
            // without a gap.
            let n = (header.data as usize).min(EXEMPLAR_SPANS);
            let tree = i.checked_sub(n).map(|first| &recs[first..i]);
            let gapless = |t: &&[Record]| t.first().is_some_and(|r| r.seq + n as u64 == header.seq);
            if let Some(ex) = tree.filter(gapless).and_then(|t| Exemplar::from_tree(header, t)) {
                out.push(ex);
            }
            if out.len() == EXEMPLAR_CAPACITY {
                break;
            }
        }
        out.reverse();
        out
    }
}

/// Drop guard closing a span on every exit path of the function that
/// began it (dispatch has several early `return Err(..)` exits; a span
/// left open would leak the installed thread context into unrelated
/// calls).
pub struct SpanScope<'a> {
    plane: &'a SpanPlane,
    tok: Option<SpanToken>,
    /// Root-span exemplar accounting target (the entry's trace EWMA).
    ewma: Option<&'a AtomicU64>,
}

impl SpanScope<'_> {
    /// Whether a span is actually live inside this scope.
    #[inline]
    pub fn active(&self) -> bool {
        self.tok.is_some()
    }

    /// The packed context word of the live span (0 when inactive) — what
    /// the dispatcher writes into the call slot's trace word.
    #[inline]
    pub fn ctx_word(&self) -> u64 {
        self.tok.map_or(0, |t| t.ctx().pack())
    }
}

impl Drop for SpanScope<'_> {
    fn drop(&mut self) {
        if let Some(tok) = self.tok.take() {
            self.plane.end_token(tok, self.ewma);
        }
    }
}

impl SpanPlane {
    /// Scope wrapper around [`SpanPlane::begin_call`]: closes (and, for
    /// roots, exemplar-checks against `ewma`) on drop.
    #[inline]
    pub fn call_scope<'a>(
        &'a self,
        sampled: bool,
        vcpu: usize,
        ep: EntryId,
        ewma: Option<&'a AtomicU64>,
    ) -> SpanScope<'a> {
        SpanScope { plane: self, tok: self.begin_call(sampled, vcpu, ep), ewma }
    }

    /// Scope wrapper around [`SpanPlane::begin_handler`].
    #[inline]
    pub fn handler_scope(&self, ctx_word: u64, vcpu: usize, ep: EntryId) -> SpanScope<'_> {
        SpanScope { plane: self, tok: self.begin_handler(ctx_word, vcpu, ep), ewma: None }
    }

    /// Scope wrapper around [`SpanPlane::begin_leaf`].
    #[inline]
    pub fn leaf_scope(&self, vcpu: usize, ep: EntryId, phase: SpanPhase) -> SpanScope<'_> {
        SpanScope { plane: self, tok: self.begin_leaf(vcpu, ep, phase), ewma: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_pack_unpack_roundtrip() {
        let ctx = TraceCtx { trace_id: 0xDEADBEEF, span_id: 513, depth: 3 };
        assert_eq!(TraceCtx::unpack(ctx.pack()), Some(ctx));
        assert_eq!(TraceCtx::unpack(0), None);
        // Every minted context packs non-zero (trace ids are non-zero).
        let min = TraceCtx { trace_id: 1, span_id: 0, depth: 0 };
        assert_ne!(min.pack(), 0);
    }

    #[test]
    fn phase_bytes_roundtrip() {
        for phase in PHASES {
            assert_eq!(Kind::from_byte(0x80 | phase as u8), Some(Kind::Span(phase)), "{phase:?}");
            assert!((phase as usize) < NPHASES);
        }
        assert_eq!(Kind::from_byte(0x80), None);
        assert_eq!(Kind::from_byte(0x80 | 99), None);
    }

    #[test]
    fn slot_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<crate::flight::Slot>(), 40);
    }

    #[test]
    fn root_and_children_share_a_trace() {
        let plane = SpanPlane::new(1, 64);
        let root = plane.begin_call(true, 0, 7).expect("sampled root");
        assert!(root.rec.is_root());
        assert_eq!(plane.current().unwrap().trace_id, root.ctx().trace_id);
        let leaf = plane.begin_leaf(0, 7, SpanPhase::Rendezvous).expect("leaf under root");
        assert_eq!(leaf.ctx().trace_id, root.ctx().trace_id);
        assert_eq!(leaf.rec.parent_id, root.ctx().span_id);
        assert_eq!(leaf.ctx().depth, 1);
        plane.end_token(leaf, None);
        plane.end_token(root, None);
        assert!(plane.current().is_none(), "root end restores empty ctx");
        let recs = plane.snapshot(0);
        assert_eq!(recs.len(), 2);
        let root_rec = recs.iter().find(|r| r.is_root()).unwrap();
        assert_eq!(root_rec.kind, Kind::Span(SpanPhase::Call));
        let leaf_rec = recs.iter().find(|r| !r.is_root()).unwrap();
        assert_eq!(leaf_rec.parent_id, root_rec.span_id);
    }

    #[test]
    fn unsampled_without_enclosing_trace_is_free() {
        let plane = SpanPlane::new(1, 64);
        assert!(plane.begin_call(false, 0, 1).is_none());
        assert!(plane.begin_leaf(0, 1, SpanPhase::Rendezvous).is_none());
        plane.record_instant(0, 1, SpanPhase::Frank);
        assert_eq!(plane.recorded(0), 0);
        // Disabled plane mints nothing even when sampled.
        plane.set_enabled(false);
        assert!(plane.begin_call(true, 0, 1).is_none());
    }

    #[test]
    fn handler_scope_installs_and_restores() {
        let plane = SpanPlane::new(1, 64);
        let root = plane.begin_call(true, 0, 3).unwrap();
        let word = root.ctx().pack();
        {
            let h = plane.handler_scope(word, 0, 3);
            assert!(h.active());
            let cur = plane.current().unwrap();
            assert_eq!(cur.trace_id, root.ctx().trace_id);
            assert_eq!(cur.depth, 1, "handler installed");
            // A nested call under the handler parents under it.
            let nested = plane.begin_call(false, 0, 4).unwrap();
            assert_eq!(nested.rec.parent_id, cur.span_id);
            assert_eq!(nested.ctx().depth, 2);
            plane.end_token(nested, None);
        }
        assert_eq!(plane.current().unwrap().span_id, root.ctx().span_id, "scope restored");
        plane.end_token(root, None);
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let plane = SpanPlane::new(1, 8);
        for _ in 0..20 {
            let t = plane.begin_call(true, 0, 1).unwrap();
            plane.end_token(t, None);
        }
        assert_eq!(plane.recorded(0), 20);
        let recs = plane.snapshot(0);
        assert_eq!(recs.len(), 8);
        for w in recs.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn exemplar_promotes_past_threshold() {
        let plane = SpanPlane::new(1, 64);
        let ewma = AtomicU64::new(0);
        // Seed the EWMA: first root never promotes.
        let t = plane.begin_call(true, 0, 9).unwrap();
        plane.end_token(t, Some(&ewma));
        assert_eq!(plane.promoted(), 0);
        assert!(ewma.load(Ordering::Relaxed) > 0);
        // Force a tail: backdate the root to the records' epoch, so its
        // measured duration dwarfs the seeded EWMA deterministically.
        let mut slow = plane.begin_call(true, 0, 9).unwrap();
        slow.rec.start_ns = 0;
        let leaf = plane.begin_leaf(0, 9, SpanPhase::Rendezvous).unwrap();
        plane.record_instant(0, 9, SpanPhase::Frank);
        plane.end_token(leaf, None);
        let dur = plane.end_token(slow, Some(&ewma));
        assert_eq!(plane.promoted(), 1);
        let exemplars = plane.exemplars(0);
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert_eq!(ex.root.ep, 9);
        assert_eq!(ex.root.dur_ns, dur);
        assert_eq!(ex.frank_events, 1);
        assert!(ex.spans.len() >= 3, "root + leaf + frank instant");
        assert!(ex.summary().contains("frank_events=1"), "{}", ex.summary());
        // The breakdown attributes the leaf's wait, not the root's total.
        assert!(ex.phase_ns[SpanPhase::Call as usize] < ex.root.dur_ns);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_capacity_panics() {
        let _ = SpanPlane::new(1, 100);
    }

    /// Two threads on two vCPUs each mint 10⁴ spans, half of them roots
    /// and half children of one shared trace: every (trace, span) pair
    /// is distinct and non-zero.
    #[test]
    fn ids_minted_on_two_vcpus_never_collide() {
        let plane = SpanPlane::new(2, 1024);
        let shared = plane.begin_call(true, 0, 1).unwrap();
        plane.end_token(shared, None);
        let word = shared.ctx().pack();
        let ids: Vec<(u32, u16)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|v| {
                    let plane = &plane;
                    s.spawn(move || {
                        (0..10_000)
                            .map(|i| {
                                let tok = if i % 2 == 0 {
                                    plane.begin_call(true, v, 1)
                                } else {
                                    plane.begin_handler(word, v, 1)
                                };
                                let tok = tok.unwrap();
                                plane.end_token(tok, None);
                                (tok.ctx().trace_id, tok.ctx().span_id)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
        });
        assert!(ids.iter().all(|&(t, s)| t != 0 && s != 0), "ids stay non-zero");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "a (trace, span) pair minted twice");
    }

    /// The sampled path's per-vCPU writes, by line pair: a vCPU's span
    /// cursor and id mint share a pair no other vCPU writes, and the
    /// plane's `cfg` word, read by every sampled root, sits on none of
    /// them.
    #[test]
    fn per_vcpu_span_words_keep_to_their_lines() {
        use crate::worker::tests::{apart, pairs};
        let plane = SpanPlane::new(3, 64);
        let cells: Vec<_> = plane.vcpus.iter().map(|v| pairs(&**v)).collect();
        for (i, v) in plane.vcpus.iter().enumerate() {
            assert_eq!(pairs(&v.ring), pairs(&v.mint), "vCPU {i}: the mint left its cursor's pair");
            for b in &cells[i + 1..] {
                assert!(apart(&cells[i], b), "vCPU {i}'s cell shares a pair with {b:?}");
            }
            assert!(apart(&cells[i], &pairs(&plane.cfg)), "vCPU {i}'s cell shares `cfg`'s pair");
        }
    }
}
