//! Facility counters, sharded per virtual processor.
//!
//! The paper's central claim is that a PPC "accesses no shared data" in
//! the common case — a single global statistics block would violate that
//! from inside the facility itself: every call on every vCPU would bounce
//! the same counter cache lines. Counters therefore live in
//! [`StatsCell`]s, each on line pairs of its own (the pair the
//! adjacent-line prefetcher moves, as `CachePadded` pads), and are
//! aggregated only when someone asks (a cold read path). Each vCPU has
//! two: [`RuntimeStats::cell`] for the threads that *call* on it,
//! [`RuntimeStats::served_cell`] for those that *serve* it (entry
//! workers, the ring worker) from another CPU. Every reader sums the
//! halves: the split shows in no exported number.
//!
//! **One writer per copy.** A cell holds two copies of its counters. The
//! first thread that counts a call on it owns it for good, known by its
//! claim cell's address (DESIGN §9), and counts on its copy with a
//! `Relaxed` load and store — no locked instruction. Every other writer
//! (a second caller, a worker, the cold paths, which never take
//! ownership) adds to the other copy with `fetch_add`, through the same
//! `StatsCell::add`. Readers sum both copies. These counts are the only
//! record of a completed call: an entry keeps none of its own.
//!
//! The whole counter surface — the cell fields, the aggregate getters,
//! [`Snapshot`], [`Snapshot::since`], [`Snapshot::fields`], and the
//! `Display` impl — is generated from the single `counters!` list below,
//! so adding a counter is a one-line change and the five views can never
//! drift apart. The only hand-written special case is the aggregate
//! [`RuntimeStats::calls`] / [`Snapshot::calls`], which derives
//! hand-off + inline completions so each dispatch path pays exactly one
//! counter increment.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::claims::{Token, NOBODY};
use crossbeam::utils::CachePadded;

/// Defines every facility counter exactly once. Expands to:
///
/// * the [`Counters`] field (one `AtomicU64` per counter),
/// * the per-counter aggregate getter on [`RuntimeStats`],
/// * the [`Snapshot`] field, filled by [`RuntimeStats::snapshot`],
/// * the counter-wise [`Snapshot::since`] difference,
/// * the `name=value` segment of [`Snapshot`]'s `Display`,
/// * the `(name, value)` entry in [`Snapshot::fields`] (what the
///   metrics exporter iterates).
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// One copy of a [`StatsCell`]'s counters: the owner's, or
        /// everyone else's.
        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $($(#[$doc])* pub $field: AtomicU64,)+
        }

        impl RuntimeStats {
            $(
                $(#[$doc])*
                /// (Aggregated across all vCPUs.)
                pub fn $field(&self) -> u64 {
                    self.cells.iter().map(|c| c.sum(|b| &b.$field)).sum()
                }
            )+

            /// A consistent-enough point-in-time aggregation (each
            /// counter read is atomic; the set is not — fine for
            /// diagnostics and benches).
            pub fn snapshot(&self) -> Snapshot {
                Snapshot {
                    calls: self.calls(),
                    $($field: self.$field(),)+
                }
            }

            /// One vCPU's counters as a [`Snapshot`], both halves summed
            /// (the telemetry sampler's per-vCPU read).
            pub fn vcpu_snapshot(&self, vcpu: usize) -> Snapshot {
                self.cell(vcpu).snapshot().plus(&self.served_cell(vcpu).snapshot())
            }
        }

        impl StatsCell {
            /// This cell's counters as a [`Snapshot`] (generated from the
            /// same list as the cell, so it can never miss a counter).
            pub fn snapshot(&self) -> Snapshot {
                Snapshot {
                    calls: self.sync_calls(),
                    $($field: self.sum(|b| &b.$field),)+
                }
            }
        }

        /// Plain-value aggregation of [`RuntimeStats`], comparable and
        /// printable — what benches and tests should consume instead of
        /// reading atomics by hand.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Snapshot {
            /// Completed synchronous calls (hand-off + inline; derived).
            pub calls: u64,
            $($(#[$doc])* pub $field: u64,)+
        }

        impl Snapshot {
            /// Counter-wise difference (`self - earlier`, saturating):
            /// the activity between two snapshots.
            pub fn since(&self, earlier: &Snapshot) -> Snapshot {
                Snapshot {
                    calls: self.calls.saturating_sub(earlier.calls),
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }

            /// Counter-wise sum (`self + other`, saturating): how two
            /// disjoint deltas compose, such as a vCPU's client and
            /// served cells.
            pub fn plus(&self, other: &Snapshot) -> Snapshot {
                Snapshot {
                    calls: self.calls.saturating_add(other.calls),
                    $($field: self.$field.saturating_add(other.$field),)+
                }
            }

            /// Set counter `name` to `value`; `false` for an unknown
            /// name. (Cold-path helper for tests and loaders; generated
            /// from the same list as the fields.)
            pub fn set_field(&mut self, name: &str, value: u64) -> bool {
                match name {
                    "calls" => self.calls = value,
                    $(stringify!($field) => self.$field = value,)+
                    _ => return false,
                }
                true
            }

            /// Every counter as a `(name, value)` pair, `calls` first —
            /// the exporter's iteration surface. Generated from the same
            /// list as the fields, so a new counter shows up in the
            /// Prometheus/JSON output without touching the exporter.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![
                    ("calls", self.calls),
                    $((stringify!($field), self.$field),)+
                ]
            }

            /// Every counter name, `calls` first — the same list
            /// [`Snapshot::fields`] iterates, without needing values.
            /// Tests drive exporter-completeness checks from this so a
            /// new counter that fails to surface in an export fails
            /// loudly instead of silently vanishing.
            pub fn field_names() -> &'static [&'static str] {
                &["calls", $(stringify!($field),)+]
            }

            /// Value of counter `name` (`None` for an unknown name) —
            /// the lookup the SLO watchdog's rate rules use.
            pub fn field(&self, name: &str) -> Option<u64> {
                match name {
                    "calls" => Some(self.calls),
                    $(stringify!($field) => Some(self.$field),)+
                    _ => None,
                }
            }
        }

        impl fmt::Display for Snapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "calls={}", self.calls)?;
                $(write!(f, concat!(" ", stringify!($field), "={}"), self.$field)?;)+
                Ok(())
            }
        }
    };
}

counters! {
    /// Completed synchronous hand-off calls — hand-off completions
    /// *only*; inline completions count in [`Snapshot::inline_calls`].
    /// The aggregate [`RuntimeStats::calls`] getter sums the two, so
    /// each dispatch path pays exactly one counter increment. (Named
    /// `handoff_calls` rather than `calls` so a reader wanting all
    /// completed calls cannot pick it up by accident.)
    handoff_calls,
    /// Synchronous calls executed inline on the caller's thread.
    inline_calls,
    /// Hand-off rendezvous resolved by spinning alone (no park).
    spin_waits,
    /// Hand-off rendezvous that exhausted the spin budget and parked.
    park_waits,
    /// Hand-off rendezvous that spun out their budget and escalated to
    /// timeslice donation (priority-unpark the worker + yield) before
    /// deciding between resolve-in-userspace and park. Counted whether
    /// or not the donation resolved the wait; subtract `park_waits` in a
    /// window to see how many donations saved a futex round trip.
    spin_escalations,
    /// Dispatched asynchronous calls.
    async_calls,
    /// Upcall dispatches.
    upcalls,
    /// Slow-path events (pool empty → grow), the Frank redirections.
    frank_redirects,
    /// Workers created on demand.
    workers_created,
    /// Call slots created on demand.
    cds_created,
    /// Handler panics contained by fault isolation.
    server_faults,
    /// Synchronous calls dispatched with a bulk descriptor.
    bulk_calls,
    /// Payload bytes moved by the bulk copy engine (copy/exchange; the
    /// in-place zero-copy path moves none by construction).
    bulk_bytes,
    /// Bulk buffer requests served from the vCPU pool.
    bulk_pool_hits,
    /// Bulk buffer requests that missed the pool and allocated (the
    /// payload plane's Frank slow-path entries).
    bulk_pool_misses,
    /// Bulk accesses rejected: no grant or a bad descriptor.
    bulk_denied,
    /// Handlers retired by Exchange into the limbo slot.
    handlers_retired,
    /// Retired handlers freed once no claim could reach them. Trails
    /// `handlers_retired` by at most the bounded limbo length — the
    /// anti-leak invariant the churn tests assert.
    handlers_freed,
    /// Dead entries reclaimed (unpublished + claims drained + registry
    /// reference dropped).
    entries_reclaimed,
    /// SQEs accepted into a submission ring (admitted with fewer than
    /// `depth` in flight; each later completes exactly once), counted a
    /// batch at a time by the next doorbell.
    ring_submits,
    /// Ring-submitted calls executed by a ring worker (completions
    /// posted to a CQ, successful or not).
    ring_calls,
    /// Doorbell rings that actually woke a sleeping ring worker — the
    /// batched stand-in for per-call unpark.
    ring_doorbells,
    /// Always 0: a ring has one depth, and every refusal is
    /// `ring_no_credit`. Kept for readers of the counter set.
    ring_full,
    /// Submissions refused with [`crate::RtError::RingFull`]: `depth`
    /// were in flight. The remedy is to *reap*.
    ring_no_credit,
    /// Wall-time (ns) spent running handlers ([`TimeState::Handler`]).
    /// Every in-process transport charges a sampled estimate (observed
    /// ns × the obs sample period): no unsampled call reads a clock for
    /// it. Workers carve it out of the interval it ran in (hand-off: Idle,
    /// ring: the drain's [`TimeState::Ring`]), so their states still sum
    /// to their wall time. With the obs plane off nothing is sampled and
    /// handlers charge nothing.
    time_handler_ns,
    /// Wall-time (ns) clients spent in a hand-off rendezvous outside its
    /// futex wait, sampled like handler time ([`TimeState::Spin`]).
    time_spin_ns,
    /// Wall-time (ns) spent parked/blocked, exactly: clients in a hand-off
    /// rendezvous's futex wait, workers parked on an idle slot or ring
    /// ([`TimeState::Park`]).
    time_park_ns,
    /// Wall-time (ns) ring workers spent draining submission queues —
    /// SQE decode, staging, completion posting — *excluding* the bulk
    /// copies, which are timed exactly, and the handler bodies, whose
    /// sampled estimate is carved out (see
    /// [`Snapshot::time_handler_ns`]; [`TimeState::Ring`]).
    time_ring_ns,
    /// Wall-time (ns) spent in Frank cold paths: worker-pool and CD-pool
    /// grow, the allocation slow path ([`TimeState::Frank`]).
    time_frank_ns,
    /// Wall-time (ns) workers spent spinning on an idle slot or
    /// ring before parking ([`TimeState::Idle`]).
    time_idle_ns,
    /// Interference detector: total ns the probe observed stolen by
    /// involuntary deschedule (clock-gap excursions above the probe
    /// threshold). Accumulated on vCPU 0's cell by the telemetry
    /// sampler; the ratio to [`Snapshot::interference_probe_ns`] is
    /// the measured interference fraction.
    interference_ns,
    /// Interference detector: total ns the probe spent measuring. The
    /// denominator for the interference ratio.
    interference_probe_ns,
    /// Interference detector: number of clock-gap excursions observed
    /// (each one involuntary-deschedule shaped: a single tight-loop
    /// clock read pair separated by more than the gap threshold).
    interference_excursions,
    /// Cross-process transport: PPCs serviced across a process
    /// boundary (slot calls, payload calls, and ring SQEs executed for
    /// remote clients). Counted on the serving vCPU's cell by the
    /// segment server loop ([`crate::xproc`]).
    xproc_calls,
    /// Cross-process transport: wake syscalls issued plus sleeps ended
    /// by a wake, on this side of the segment — for a serving runtime,
    /// `FUTEX_WAKE`s to clients that announced their sleep (and the
    /// unconditional attach/DETACH acks) plus doorbell sleeps a client's
    /// wake or bump cut short; for a client's obs home, doorbell wakes it
    /// issued. A timeout wake counts nothing. Near zero per call while
    /// both ends poll; one or two per call once they sleep.
    xproc_wakes,
}

/// One side of one virtual processor's counters: the owner word (on a
/// line of its own: every writer reads it, the first writes it once), the
/// owner's copy and everyone else's, on line pairs apart.
#[derive(Debug, Default)]
#[repr(C, align(128))]
pub struct StatsCell {
    owner: OwnerWord,
    mine: Counters,
    theirs: CachePadded<Counters>,
}

/// The owner's [`Token`] (0: none yet), set once, by a CAS.
#[derive(Debug, Default)]
#[repr(align(64))]
struct OwnerWord(AtomicUsize);

impl StatsCell {
    /// Add `n` to the counter `field` picks, as `who`: on the owner's copy
    /// with a `Relaxed` load and store if `who` owns the cell or takes it
    /// now (unowned, and `who` is not [`NOBODY`]), else on the other copy
    /// with `fetch_add`.
    #[inline]
    pub(crate) fn add(&self, who: Token, field: impl Fn(&Counters) -> &AtomicU64, n: u64) {
        let owner = self.owner.0.load(Ordering::Relaxed);
        let take = || self.owner.0.compare_exchange(0, who.0, Ordering::Relaxed, Ordering::Relaxed);
        if owner == who.0 || owner == 0 && who != NOBODY && take().is_ok() {
            let word = field(&self.mine);
            word.store(word.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            field(&self.theirs).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// One counter, both copies summed.
    fn sum(&self, field: impl Fn(&Counters) -> &AtomicU64) -> u64 {
        field(&self.mine).load(Ordering::Relaxed) + field(&self.theirs).load(Ordering::Relaxed)
    }

    fn sync_calls(&self) -> u64 {
        self.sum(|b| &b.handoff_calls) + self.sum(|b| &b.inline_calls)
    }

    /// Charge `ns` of wall-time to `state`'s accumulator, on the shared
    /// copy: time is charged on sampled, parked and cold paths only.
    #[inline]
    pub fn add_time(&self, state: TimeState, ns: u64) {
        let field: fn(&Counters) -> &AtomicU64 = match state {
            TimeState::Handler => |c| &c.time_handler_ns,
            TimeState::Spin => |c| &c.time_spin_ns,
            TimeState::Park => |c| &c.time_park_ns,
            TimeState::Ring => |c| &c.time_ring_ns,
            TimeState::Frank => |c| &c.time_frank_ns,
            TimeState::Idle => |c| &c.time_idle_ns,
        };
        self.add(NOBODY, field, ns);
    }
}

/// Sharded facility counters: two padded cells per virtual processor,
/// the callers' halves first, then the served halves.
#[derive(Debug)]
pub struct RuntimeStats {
    cells: Box<[StatsCell]>,
}

impl RuntimeStats {
    /// Counters for `n_vcpus` virtual processors.
    pub(crate) fn new(n_vcpus: usize) -> Self {
        RuntimeStats { cells: (0..2 * n_vcpus.max(1)).map(|_| StatsCell::default()).collect() }
    }

    /// The cell `vcpu`'s callers own — the client side of the fast path
    /// writes here and nowhere else, so same-vCPU calls touch only their
    /// own lines.
    #[inline]
    pub fn cell(&self, vcpu: usize) -> &StatsCell {
        &self.cells[..self.cells.len() / 2][vcpu]
    }

    /// The cell the threads serving `vcpu` own: workers' and the ring
    /// worker's wall-time states, `ring_calls`.
    #[inline]
    pub fn served_cell(&self, vcpu: usize) -> &StatsCell {
        &self.cells[self.cells.len() / 2..][vcpu]
    }

    /// Completed synchronous calls across all vCPUs (hand-off + inline).
    pub fn calls(&self) -> u64 {
        self.cells.iter().map(StatsCell::sync_calls).sum()
    }
}

/// The exclusive wall-time states of the attribution plane. Every
/// facility thread (worker, ring worker) is in exactly one state at any
/// instant; client threads charge their rendezvous waits and cold paths
/// point-wise. Each state maps 1:1 onto a `time_*_ns` counter, so the
/// per-vCPU breakdown rides the ordinary counter plumbing (snapshots,
/// telemetry windows, exports) with no extra machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeState {
    /// Running a service handler body.
    Handler,
    /// Client spinning out a hand-off rendezvous (resolved in userspace).
    Spin,
    /// Parked/blocked: client futex wait, worker park.
    Park,
    /// Ring worker draining SQEs (decode/staging/completion, not the
    /// handler bodies).
    Ring,
    /// Frank cold path: pool grow, on-demand allocation.
    Frank,
    /// Spinning on an idle slot/ring, waiting for work.
    Idle,
}

/// Every [`TimeState`] with its counter name and `ppc_time_ns{state=}`
/// label, in declaration order — what the exporter and `ppc-top` iterate.
pub const TIME_STATES: [(TimeState, &str, &str); 6] = [
    (TimeState::Handler, "time_handler_ns", "handler"),
    (TimeState::Spin, "time_spin_ns", "spin"),
    (TimeState::Park, "time_park_ns", "park"),
    (TimeState::Ring, "time_ring_ns", "ring"),
    (TimeState::Frank, "time_frank_ns", "frank"),
    (TimeState::Idle, "time_idle_ns", "idle"),
];

/// A facility thread's wall-time classifier: owned by the thread's loop,
/// it tracks the instant of the last state transition and charges the
/// elapsed interval to the *outgoing* state on every transition. One
/// timer per thread ⇒ states are exclusive by construction — the sum of
/// a worker's `time_*_ns` deltas equals its elapsed wall-time (minus the
/// loop's own transition overhead, which is one `Instant::now` per
/// transition on paths that already cost microseconds).
pub struct StateTimer<'a> {
    cell: &'a StatsCell,
    state: TimeState,
    last: std::time::Instant,
}

impl<'a> StateTimer<'a> {
    /// Start classifying this thread's time against `cell`, initially in
    /// `state`.
    pub fn new(cell: &'a StatsCell, state: TimeState) -> Self {
        StateTimer { cell, state, last: std::time::Instant::now() }
    }

    /// The current state.
    #[inline]
    pub fn state(&self) -> TimeState {
        self.state
    }

    /// Transition to `state`, charging the interval since the last
    /// transition to the outgoing state. A same-state transition just
    /// flushes the accumulator (see [`StateTimer::flush`]).
    #[inline]
    pub fn transition(&mut self, state: TimeState) {
        self.transition_carving(state, state, &mut 0);
    }

    /// [`StateTimer::transition`], with as much of the estimate `*ns` as
    /// the closing interval holds charged to `carved` instead of the
    /// outgoing state, and taken off `*ns`: the states still partition
    /// the wall time exactly, and what an interval cannot hold waits for
    /// the next instead of over-charging `carved`.
    #[inline]
    pub fn transition_carving(&mut self, state: TimeState, carved: TimeState, ns: &mut u64) {
        let now = std::time::Instant::now();
        let elapsed = now.duration_since(self.last).as_nanos() as u64;
        let cut = elapsed.min(*ns);
        if cut > 0 {
            self.cell.add_time(carved, cut);
            *ns -= cut;
        }
        self.cell.add_time(self.state, elapsed - cut);
        self.last = now;
        self.state = state;
    }

    /// Charge the accrued interval to the current state without leaving
    /// it — call periodically inside long waits so observers see time
    /// accrue instead of a burst at the next transition.
    #[inline]
    pub fn flush(&mut self) {
        let s = self.state;
        self.transition(s);
    }
}

impl Drop for StateTimer<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_zero_and_aggregate() {
        let s = RuntimeStats::new(4);
        assert_eq!(s.calls(), 0);
        assert_eq!(s.frank_redirects(), 0);
        s.cell(0).add(NOBODY, |c| &c.handoff_calls, 2);
        s.cell(3).add(NOBODY, |c| &c.handoff_calls, 3);
        s.cell(1).add(NOBODY, |c| &c.inline_calls, 1);
        // Aggregate `calls` derives hand-off + inline.
        assert_eq!(s.calls(), 6);
        assert_eq!(s.inline_calls(), 1);
    }

    #[test]
    fn cells_do_not_share_cache_lines() {
        // 128, not 64: the line pair `CachePadded` pads to. (Client half
        // against served half: `worker.rs`'s layout test.)
        assert!(std::mem::align_of::<StatsCell>() >= 128);
        assert!(std::mem::size_of::<StatsCell>().is_multiple_of(128));
        // Inside a cell: the owner word alone on its line, the two copies
        // on line pairs apart.
        let c = StatsCell::default();
        let at = |x: *const u8| x as usize - &c as *const StatsCell as usize;
        let (mine, theirs) = (at(&c.mine as *const _ as _), at(&*c.theirs as *const _ as _));
        assert_eq!((at(&c.owner as *const _ as _), mine), (0, 64));
        assert!(mine + std::mem::size_of::<Counters>() <= theirs && theirs % 128 == 0);
        let s = RuntimeStats::new(2);
        let a = s.cell(0) as *const _ as usize;
        let b = s.cell(1) as *const _ as usize;
        assert!(b.abs_diff(a) >= 128);
    }

    #[test]
    fn snapshot_since_and_display() {
        let s = RuntimeStats::new(2);
        s.cell(0).add(NOBODY, |c| &c.handoff_calls, 10);
        let first = s.snapshot();
        s.cell(1).add(NOBODY, |c| &c.handoff_calls, 4);
        s.cell(1).add(NOBODY, |c| &c.park_waits, 4);
        let delta = s.snapshot().since(&first);
        assert_eq!(delta.calls, 4);
        assert_eq!(delta.park_waits, 4);
        assert_eq!(delta.frank_redirects, 0);
        let text = delta.to_string();
        assert!(text.contains("calls=4"));
        assert!(text.contains("park_waits=4"));
    }

    #[test]
    fn vcpu_snapshot_and_field_lookup() {
        let s = RuntimeStats::new(2);
        s.cell(0).add(NOBODY, |c| &c.inline_calls, 3);
        s.cell(1).add(NOBODY, |c| &c.inline_calls, 5);
        s.cell(1).add(NOBODY, |c| &c.ring_submits, 2);
        let v0 = s.vcpu_snapshot(0);
        let v1 = s.vcpu_snapshot(1);
        assert_eq!(v0.calls, 3);
        assert_eq!(v1.calls, 5);
        assert_eq!(v1.ring_submits, 2);
        assert_eq!(v0.ring_submits, 0);
        // Per-vCPU shards partition the aggregate, counter for counter.
        let total = s.snapshot();
        for name in Snapshot::field_names() {
            assert_eq!(
                total.field(name).unwrap(),
                v0.field(name).unwrap() + v1.field(name).unwrap(),
                "{name} shards must sum to the aggregate"
            );
        }
        assert_eq!(total.field("calls"), Some(8));
        assert_eq!(total.field("no_such_counter"), None);
        assert_eq!(Snapshot::field_names().len(), total.fields().len());
    }

    #[test]
    fn snapshot_plus_and_set_field() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        assert!(a.set_field("park_waits", 3));
        assert!(b.set_field("park_waits", 4));
        assert!(b.set_field("calls", 9));
        assert!(!b.set_field("no_such_counter", 1));
        let m = a.plus(&b);
        assert_eq!(m.park_waits, 7);
        assert_eq!(m.calls, 9);
        // plus is since's inverse on every counter.
        assert_eq!(m.since(&b), a);
    }

    #[test]
    fn snapshot_fields_cover_every_counter() {
        let s = RuntimeStats::new(1);
        s.cell(0).add(NOBODY, |c| &c.inline_calls, 7);
        s.cell(0).add(NOBODY, |c| &c.bulk_denied, 2);
        let snap = s.snapshot();
        let fields = snap.fields();
        // `calls` plus one entry per StatsCell counter, no drift.
        assert_eq!(fields.len(), 36);
        assert_eq!(fields[0], ("calls", 7));
        let get = |name: &str| fields.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("inline_calls"), 7);
        assert_eq!(get("bulk_denied"), 2);
        assert_eq!(get("park_waits"), 0);
        // Display is generated from the same list: every name appears.
        let text = snap.to_string();
        for (name, _) in &fields {
            assert!(text.contains(&format!("{name}=")), "{name} missing in {text}");
        }
    }

    #[test]
    fn time_states_map_to_live_counters() {
        let s = RuntimeStats::new(1);
        // Every TIME_STATES row names a real counter, and add_time
        // charges exactly that counter.
        for (i, (state, name, _label)) in TIME_STATES.iter().enumerate() {
            s.cell(0).add_time(*state, (i as u64 + 1) * 10);
            assert_eq!(
                s.snapshot().field(name),
                Some((i as u64 + 1) * 10),
                "{name} must receive its state's charge"
            );
        }
    }

    #[test]
    fn carving_charges_no_more_than_the_interval_it_closes() {
        let s = RuntimeStats::new(1);
        let mut t = StateTimer::new(s.cell(0), TimeState::Ring);
        // An estimate larger than the interval takes all of it, and what
        // is left waits for the next interval.
        let hour = 3_600_000_000_000u64;
        let mut est = hour;
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.transition_carving(TimeState::Ring, TimeState::Handler, &mut est);
        let snap = s.snapshot();
        assert!(snap.time_handler_ns >= 2_000_000, "the interval went to the carved state");
        assert_eq!(snap.time_ring_ns, 0, "nothing was left for the outgoing state");
        assert_eq!(est, hour - snap.time_handler_ns, "what was charged came off the estimate");
        // A smaller one is charged whole, the rest of the interval stays.
        est = 1_000;
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.transition_carving(TimeState::Idle, TimeState::Handler, &mut est);
        let d = s.snapshot().since(&snap);
        assert_eq!((d.time_handler_ns, est), (1_000, 0));
        assert!(d.time_ring_ns >= 2_000_000 - 1_000);
    }

    /// Counts stay exact when callers share a vCPU, and when a cell
    /// changes hands. Four threads call on vCPU 0 at once, inline and
    /// hand-off: one owns the caller cell, the other three count on its
    /// shared copy (were they all to take the owned path, their plain
    /// load/store pairs would lose counts, and the shared copy would stay
    /// empty). Then 300 short-lived threads call in turn: an exiting
    /// thread's claim cell — its token — passes to a later thread, which
    /// keeps counting on the owned copy it inherited. The oracle is each
    /// handler's own count of its runs, which the dispatcher never writes.
    #[test]
    fn counts_stay_exact_when_callers_share_a_vcpu_or_a_cell_changes_hands() {
        use crate::{EntryOptions, Handler, Runtime};
        use std::sync::Arc;
        let _watchdog = crate::wait::abort_if_hung("stats.rs shared-vCPU test");
        let counted = || {
            let runs = Arc::new(AtomicU64::new(0));
            let mine = Arc::clone(&runs);
            let h: Handler = Arc::new(move |c| {
                mine.fetch_add(1, Ordering::Relaxed);
                c.args
            });
            (runs, h)
        };
        let inline = EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() };
        let rt = Runtime::new(1);
        let ((runs_in, h_in), (runs_ho, h_ho)) = (counted(), counted());
        let ep_in = rt.bind("inline", inline, h_in).unwrap();
        let ep_ho = rt.bind("handoff", EntryOptions::default(), h_ho).unwrap();
        let callers: Vec<_> = (0..4)
            .map(|p| {
                let client = rt.client(0, p + 1);
                std::thread::spawn(move || {
                    for i in 0..20_000 {
                        assert_eq!(client.call(ep_in, [i; 8]), Ok([i; 8]));
                        if i % 10 == 0 {
                            assert_eq!(client.call(ep_ho, [i; 8]), Ok([i; 8]));
                        }
                    }
                })
            })
            .collect();
        for t in callers {
            t.join().unwrap();
        }
        let s = rt.stats.snapshot();
        assert_eq!((s.inline_calls, s.handoff_calls, s.calls), (80_000, 8_000, 88_000));
        assert_eq!(s.spin_waits + s.park_waits, 8_000);
        let runs = (runs_in.load(Ordering::Relaxed), runs_ho.load(Ordering::Relaxed));
        assert_eq!(runs, (80_000, 8_000), "every counted call ran its handler once");
        let cell = rt.stats.cell(0);
        let (mine, theirs) = (&cell.mine.inline_calls, &cell.theirs.inline_calls);
        let (mine, theirs) = (mine.load(Ordering::Relaxed), theirs.load(Ordering::Relaxed));
        assert!(mine > 0 && theirs > 0, "owned {mine}, shared {theirs}: both copies count");

        let rt = Runtime::new(1);
        let (runs, h) = counted();
        let ep = rt.bind("inline", inline, h).unwrap();
        let mut first = 0;
        for n in 0..300 {
            let client = rt.client(0, 1);
            std::thread::spawn(move || {
                for i in 0..100 {
                    assert_eq!(client.call(ep, [i; 8]), Ok([i; 8]));
                }
            })
            .join()
            .unwrap();
            if n == 0 {
                first = rt.stats.cell(0).mine.inline_calls.load(Ordering::Relaxed);
            }
        }
        assert_eq!((rt.stats.inline_calls(), runs.load(Ordering::Relaxed)), (30_000, 30_000));
        let owned = rt.stats.cell(0).mine.inline_calls.load(Ordering::Relaxed);
        assert_eq!(first, 100, "the first thread owns the cell");
        assert!(owned > first, "no later thread inherited the owned copy ({owned})");
    }

    #[test]
    fn state_timer_partitions_elapsed_time() {
        let s = RuntimeStats::new(1);
        let start = std::time::Instant::now();
        {
            let mut t = StateTimer::new(s.cell(0), TimeState::Idle);
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.transition(TimeState::Handler);
            assert_eq!(t.state(), TimeState::Handler);
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.flush();
            // Drop charges the remainder to the current state.
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        let snap = s.snapshot();
        let total: u64 =
            TIME_STATES.iter().filter_map(|(_, name, _)| snap.field(name)).sum();
        assert!(snap.time_idle_ns >= 4_000_000, "idle interval charged");
        assert!(snap.time_handler_ns >= 4_000_000, "handler interval charged");
        // Exclusive states: the partition covers (and never exceeds)
        // the elapsed wall-time.
        assert!(total <= elapsed, "states must not double-count ({total} > {elapsed})");
        assert!(total >= elapsed * 9 / 10, "states must cover elapsed time");
    }
}
