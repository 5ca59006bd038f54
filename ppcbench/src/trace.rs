//! Spans of the traced `fs_chain` run — the Figure-2 analogue.
//!
//! The benchmark's client code and service handlers record one span per
//! boundary they cross. Client and server are different processes, so the
//! span store is an anonymous shared mapping created before the server is
//! forked: both sides append to their own half of preallocated memory,
//! nothing is written out while the run is timed, and the client reads
//! the server's half once the server has exited. Timestamps are offsets
//! from one `Instant` taken before the fork (the monotonic clock is
//! system-wide, so the two processes share the anchor).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ppc_rt::Segment;

/// The boundaries of one `fs_chain` operation. Each span's parent is
/// fixed by the call structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    /// The whole client-side operation: staging, call, verification.
    ClientOp = 0,
    /// The `XClient` call inside it.
    ClientCall = 1,
    NamesHandler = 2,
    FsHandler = 3,
    /// The file server's nested `call_bulk` into the CopyServer.
    FsNestedCall = 4,
    CopyHandler = 5,
    /// `ctx.copy_to` / `ctx.copy_from` inside the CopyServer.
    CopyMemcpy = 6,
}

impl Name {
    pub const ALL: [Name; 7] = [
        Name::ClientOp,
        Name::ClientCall,
        Name::NamesHandler,
        Name::FsHandler,
        Name::FsNestedCall,
        Name::CopyHandler,
        Name::CopyMemcpy,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::ClientOp => "client.op",
            Name::ClientCall => "client.call",
            Name::NamesHandler => "names.handler",
            Name::FsHandler => "fs.handler",
            Name::FsNestedCall => "fs.nested_call",
            Name::CopyHandler => "copy.handler",
            Name::CopyMemcpy => "copy.memcpy",
        }
    }

    /// The span that caused this one.
    pub fn parent(self) -> Option<Name> {
        match self {
            Name::ClientOp => None,
            Name::ClientCall => Some(Name::ClientOp),
            Name::NamesHandler | Name::FsHandler => Some(Name::ClientCall),
            Name::FsNestedCall => Some(Name::FsHandler),
            Name::CopyHandler => Some(Name::FsNestedCall),
            Name::CopyMemcpy => Some(Name::CopyHandler),
        }
    }

    fn from_u8(v: u8) -> Option<Name> {
        Name::ALL.get(v as usize).copied()
    }
}

/// Operation classes of the `fs_chain` mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    Open = 0,
    GetLen = 1,
    Read = 2,
    Write = 3,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Open, Class::GetLen, Class::Read, Class::Write];

    pub fn label(self) -> &'static str {
        match self {
            Class::Open => "open",
            Class::GetLen => "getlen",
            Class::Read => "read",
            Class::Write => "write",
        }
    }
}

/// Class byte of a server-side record (the class is taken from the
/// operation's root span).
const CLASS_UNKNOWN: u8 = 0xFF;
const NO_PARENT: u8 = 0xFF;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Per-operation identifier shared by all spans of one operation.
    pub op: u32,
    pub name: Name,
    pub parent: Option<Name>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Client = 0,
    Server = 1,
}

/// Words per stored span: start, end, packed (op, name, parent, class).
const REC_WORDS: usize = 3;
/// Header words: the two sides' append cursors.
const HDR_WORDS: usize = 2;

/// The shared span store. Every word is an atomic, so concurrent appends
/// and reads are defined behaviour whoever makes them; a reader that
/// wants a complete picture waits until the writers have stopped.
pub struct TraceBuf {
    seg: Segment,
    cap: [usize; 2],
}

impl TraceBuf {
    pub fn new(client_cap: usize, server_cap: usize) -> std::io::Result<TraceBuf> {
        let words = HDR_WORDS + REC_WORDS * (client_cap + server_cap);
        let seg = Segment::anon(words * std::mem::size_of::<AtomicU64>())?;
        Ok(TraceBuf {
            seg,
            cap: [client_cap, server_cap],
        })
    }

    fn words(&self) -> &[AtomicU64] {
        let n = self.seg.len() / std::mem::size_of::<AtomicU64>();
        // SAFETY: the mapping is live for `self`'s lifetime, page-aligned,
        // zero-initialised and `n` words long; it is only ever accessed
        // through these atomics, in this process and in a forked child.
        unsafe { std::slice::from_raw_parts(self.seg.base() as *const AtomicU64, n) }
    }

    fn base_of(&self, side: Side) -> usize {
        match side {
            Side::Client => HDR_WORDS,
            Side::Server => HDR_WORDS + REC_WORDS * self.cap[0],
        }
    }

    /// Append one span to `side`'s half; dropped (but still counted)
    /// when the half is full.
    fn push(&self, side: Side, start: u64, end: u64, packed: u64) {
        let w = self.words();
        let i = w[side as usize].fetch_add(1, Ordering::Relaxed) as usize;
        if i < self.cap[side as usize] {
            let at = self.base_of(side) + REC_WORDS * i;
            w[at].store(start, Ordering::Relaxed);
            w[at + 1].store(end, Ordering::Relaxed);
            w[at + 2].store(packed, Ordering::Release);
        }
    }

    /// Spans appended to `side` that did not fit.
    pub fn dropped(&self, side: Side) -> usize {
        let n = self.words()[side as usize].load(Ordering::Acquire) as usize;
        n.saturating_sub(self.cap[side as usize])
    }

    /// The stored spans of `side` with each span's class byte.
    fn spans(&self, side: Side) -> Vec<(Span, u8)> {
        let w = self.words();
        let n = (w[side as usize].load(Ordering::Acquire) as usize).min(self.cap[side as usize]);
        (0..n)
            .filter_map(|i| {
                let at = self.base_of(side) + REC_WORDS * i;
                let packed = w[at + 2].load(Ordering::Acquire);
                let name = Name::from_u8((packed >> 32) as u8)?;
                let span = Span {
                    op: packed as u32,
                    name,
                    parent: Name::from_u8((packed >> 40) as u8),
                    start_ns: w[at].load(Ordering::Relaxed),
                    end_ns: w[at + 1].load(Ordering::Relaxed),
                };
                Some((span, (packed >> 48) as u8))
            })
            .collect()
    }
}

/// One side's handle for recording spans.
#[derive(Clone)]
pub struct Recorder {
    buf: Arc<TraceBuf>,
    side: Side,
    anchor: Instant,
}

impl Recorder {
    pub fn new(buf: &Arc<TraceBuf>, side: Side, anchor: Instant) -> Recorder {
        Recorder {
            buf: Arc::clone(buf),
            side,
            anchor,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    #[inline]
    pub fn close(&self, name: Name, op: u64, class: Option<Class>, start_ns: u64) {
        let parent = name.parent().map_or(NO_PARENT, |p| p as u8);
        let class = class.map_or(CLASS_UNKNOWN, |c| c as u8);
        let packed = (op as u32 as u64)
            | (name as u64) << 32
            | u64::from(parent) << 40
            | u64::from(class) << 48;
        self.buf.push(self.side, start_ns, self.now(), packed);
    }
}

/// `rec.now()` when tracing, 0 otherwise — so untraced runs read no clock.
#[inline]
pub fn start(rec: &Option<Recorder>) -> u64 {
    rec.as_ref().map_or(0, Recorder::now)
}

#[inline]
pub fn close(rec: &Option<Recorder>, name: Name, op: u64, class: Option<Class>, start_ns: u64) {
    if let Some(r) = rec {
        r.close(name, op, class, start_ns);
    }
}

/// Self time of every span of one operation: its duration minus the part
/// of its interval that its child spans cover. Children are clipped to
/// the parent's interval and overlapping children are counted once, so
/// the self times of a well-nested tree sum to the root's duration and a
/// child that sticks out of its parent shows up as a reconciliation
/// error instead of negative time.
pub fn self_times(op: &[Span]) -> Vec<(Name, u64)> {
    op.iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = op
                .iter()
                .filter(|c| c.parent == Some(s.name))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            (
                s.name,
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered),
            )
        })
        .collect()
}

/// |Σ self − root| of one operation, in ns: what its spans fail to
/// account for (or account for twice).
pub fn reconcile_gap(selfs: &[(Name, u64)], root_ns: u64) -> u64 {
    selfs
        .iter()
        .map(|(_, ns)| ns)
        .sum::<u64>()
        .abs_diff(root_ns)
}

/// The ledger of one operation class. The figures are means, not
/// medians: throughput is the reciprocal of the mean operation time, so
/// it is the mean self times that add up to it — a change that claims
/// `ops_per_s` must find its saving among them. (The transport's time in
/// particular is two-humped, and no median of it accounts for anything.)
pub struct ClassLedger {
    pub ops: usize,
    /// Mean duration of the root span (`client.op`).
    pub root_ns: f64,
    /// Mean self time of each span that occurs in this class.
    pub self_ns: Vec<(Name, f64)>,
    /// Σ over operations of |Σ self − root|, over Σ root: zero for a
    /// well-nested trace, and as large as the share of time that child
    /// spans claim outside their parents (clock disagreement between the
    /// two processes would show here).
    pub reconcile_err: f64,
}

impl ClassLedger {
    pub fn self_of(&self, name: Name) -> f64 {
        self.self_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Group spans by operation, compute self times, and summarise per class.
/// Operations without a root span (dropped when a half filled up) are
/// skipped.
pub fn ledger(buf: &TraceBuf) -> Vec<(Class, ClassLedger)> {
    let mut all = buf.spans(Side::Client);
    all.extend(buf.spans(Side::Server));
    all.sort_unstable_by_key(|(s, _)| (s.op, s.name));

    #[derive(Default, Clone)]
    struct Sums {
        ops: usize,
        root: f64,
        err: f64,
        /// Per span name: (occurrences, Σ self).
        selfs: [(usize, f64); Name::ALL.len()],
    }
    let mut sums = vec![Sums::default(); Class::ALL.len()];
    for group in all.chunk_by(|a, b| a.0.op == b.0.op) {
        let Some((root, class)) = group.iter().find(|(s, _)| s.name == Name::ClientOp) else {
            continue;
        };
        let Some(sum) = sums.get_mut(*class as usize) else {
            continue;
        };
        let spans: Vec<Span> = group.iter().map(|(s, _)| *s).collect();
        let root_ns = root.end_ns.saturating_sub(root.start_ns);
        let selfs = self_times(&spans);
        for (name, ns) in &selfs {
            let slot = &mut sum.selfs[*name as usize];
            *slot = (slot.0 + 1, slot.1 + *ns as f64);
        }
        sum.ops += 1;
        sum.root += root_ns as f64;
        sum.err += reconcile_gap(&selfs, root_ns) as f64;
    }
    Class::ALL
        .iter()
        .zip(sums)
        .filter(|(_, s)| s.ops > 0)
        .map(|(class, s)| {
            let ops = s.ops as f64;
            let ledger = ClassLedger {
                ops: s.ops,
                root_ns: s.root / ops,
                self_ns: Name::ALL
                    .iter()
                    .zip(s.selfs)
                    .filter(|(_, (n, _))| *n > 0)
                    .map(|(name, (_, total))| (*name, total / ops))
                    .collect(),
                reconcile_err: s.err / s.root,
            };
            (*class, ledger)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            name,
            parent: name.parent(),
            start_ns,
            end_ns,
        }
    }

    fn self_of(v: &[(Name, u64)], n: Name) -> u64 {
        v.iter().find(|(m, _)| *m == n).unwrap().1
    }

    #[test]
    fn self_time_of_a_nested_read() {
        // client.op 0..1000
        //   client.call 100..900
        //     fs.handler 300..800
        //       fs.nested_call 350..750
        //         copy.handler 400..700
        //           copy.memcpy 450..650
        let op = [
            span(Name::ClientOp, 0, 1000),
            span(Name::ClientCall, 100, 900),
            span(Name::FsHandler, 300, 800),
            span(Name::FsNestedCall, 350, 750),
            span(Name::CopyHandler, 400, 700),
            span(Name::CopyMemcpy, 450, 650),
        ];
        let s = self_times(&op);
        assert_eq!(self_of(&s, Name::ClientOp), 200);
        assert_eq!(self_of(&s, Name::ClientCall), 300); // transport
        assert_eq!(self_of(&s, Name::FsHandler), 100);
        assert_eq!(self_of(&s, Name::FsNestedCall), 100);
        assert_eq!(self_of(&s, Name::CopyHandler), 100);
        assert_eq!(self_of(&s, Name::CopyMemcpy), 200);
        assert_eq!(reconcile_gap(&s, 1000), 0);
    }

    #[test]
    fn a_child_outside_its_parent_is_clipped_and_shows_as_error() {
        // The handler claims to end 100 ns after the call that caused it
        // returned (clock skew between processes would look like this).
        let op = [
            span(Name::ClientOp, 0, 1000),
            span(Name::ClientCall, 100, 900),
            span(Name::FsHandler, 300, 1000),
        ];
        let s = self_times(&op);
        assert_eq!(self_of(&s, Name::ClientCall), 200); // 800 - clipped 600
        assert_eq!(self_of(&s, Name::FsHandler), 700);
        // 100 ns of 1000 are claimed twice: an error of 0.10.
        assert_eq!(reconcile_gap(&s, 1000), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mk = |name, parent, a, b| Span {
            op: 1,
            name,
            parent,
            start_ns: a,
            end_ns: b,
        };
        let op = [
            mk(Name::ClientOp, None, 0, 100),
            mk(Name::ClientCall, Some(Name::ClientOp), 10, 60),
            mk(Name::FsHandler, Some(Name::ClientOp), 40, 90),
        ];
        assert_eq!(self_of(&self_times(&op), Name::ClientOp), 20);
    }

    #[test]
    fn buffer_round_trip_and_ledger() {
        let buf = Arc::new(TraceBuf::new(8, 8).unwrap());
        let anchor = Instant::now();
        let client = Recorder::new(&buf, Side::Client, anchor);
        let server = Recorder::new(&buf, Side::Server, anchor);
        for op in 0..3u64 {
            let t0 = client.now();
            let t1 = client.now();
            let h0 = server.now();
            server.close(Name::FsHandler, op, None, h0);
            client.close(Name::ClientCall, op, Some(Class::GetLen), t1);
            client.close(Name::ClientOp, op, Some(Class::GetLen), t0);
        }
        assert_eq!(buf.spans(Side::Client).len(), 6);
        assert_eq!(buf.spans(Side::Server).len(), 3);
        assert_eq!(buf.dropped(Side::Client), 0);
        let l = ledger(&buf);
        assert_eq!(l.len(), 1);
        let (class, led) = &l[0];
        assert_eq!((*class, led.ops), (Class::GetLen, 3));
        assert_eq!(led.self_ns.len(), 3);
        // Nested by construction: the mean self times add up to the root.
        let parts: f64 = led.self_ns.iter().map(|(_, v)| v).sum();
        assert!((parts - led.root_ns).abs() < 1e-6 && led.reconcile_err < 1e-9);
        // Overflow is counted, not written out of bounds.
        for op in 3..10u64 {
            client.close(Name::ClientOp, op, Some(Class::Open), 0);
        }
        assert_eq!(buf.dropped(Side::Client), 5);
        assert_eq!(buf.spans(Side::Client).len(), 8);
    }
}
