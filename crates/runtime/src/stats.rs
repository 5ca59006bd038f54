//! Facility counters, sharded per virtual processor.
//!
//! The paper's central claim is that a PPC "accesses no shared data" in
//! the common case — a single global statistics block would violate that
//! from inside the facility itself: every call on every vCPU would bounce
//! the same counter cache lines. Counters therefore live in
//! [`StatsCell`]s, each `#[repr(align(128))]` (the line *pair* the
//! adjacent-line prefetcher moves, as `CachePadded` pads), updated with
//! `Relaxed` stores on the fast path and aggregated only when someone
//! asks (a cold read path). Each vCPU has two: [`RuntimeStats::cell`] for
//! the threads that *call* on it, [`RuntimeStats::served_cell`] for those
//! that *serve* it (entry workers, the ring worker) from another CPU.
//! Every reader sums the halves: the split shows in no exported number.
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
use std::sync::atomic::{AtomicU64, Ordering};

/// Defines every facility counter exactly once. Expands to:
///
/// * the [`StatsCell`] field (one padded `AtomicU64` per counter),
/// * the per-counter aggregate getter on [`RuntimeStats`],
/// * the [`Snapshot`] field, filled by [`RuntimeStats::snapshot`],
/// * the counter-wise [`Snapshot::since`] difference,
/// * the `name=value` segment of [`Snapshot`]'s `Display`,
/// * the `(name, value)` entry in [`Snapshot::fields`] (what the
///   metrics exporter iterates).
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// One side of one virtual processor's counters, padded to its
        /// own cache-line pair so fast-path increments by different
        /// writers never contend.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct StatsCell {
            $($(#[$doc])* pub $field: AtomicU64,)+
        }

        impl RuntimeStats {
            $(
                $(#[$doc])*
                /// (Aggregated across all vCPUs.)
                pub fn $field(&self) -> u64 {
                    self.cells.iter().map(|c| c.$field.load(Ordering::Relaxed)).sum()
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
                    $($field: self.$field.load(Ordering::Relaxed),)+
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
            /// disjoint deltas compose — what the telemetry window
            /// merger uses to stitch tick deltas together.
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
    /// *only*; inline completions count in [`StatsCell::inline_calls`].
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
    /// Bulk accesses rejected: no grant, bad descriptor, or revoked
    /// mid-transfer.
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
    /// SQEs accepted into a submission ring (admitted past the credit
    /// gate; each later completes exactly once).
    ring_submits,
    /// Ring-submitted calls executed by a ring worker (completions
    /// posted to a CQ, successful or not).
    ring_calls,
    /// Doorbell rings that actually woke a sleeping ring worker — the
    /// batched stand-in for per-call unpark.
    ring_doorbells,
    /// Submissions refused because the submission queue itself was full
    /// ([`crate::RtError::RingFull`]): the producer outran the ring
    /// worker's drain.
    ring_full,
    /// Submissions refused because the in-flight credit budget was
    /// exhausted (also [`crate::RtError::RingFull`], but a different
    /// remedy: the client must *reap* — completions are waiting — where
    /// a full SQ means the worker is behind).
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
    /// [`StatsCell::time_handler_ns`]; [`TimeState::Ring`]).
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
    /// sampler; the ratio to [`StatsCell::interference_probe_ns`] is
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

impl StatsCell {
    fn sync_calls(&self) -> u64 {
        self.handoff_calls.load(Ordering::Relaxed) + self.inline_calls.load(Ordering::Relaxed)
    }

    /// Charge `ns` of wall-time to `state`'s accumulator (Relaxed, the
    /// fast-path discipline of every other counter).
    #[inline]
    pub fn add_time(&self, state: TimeState, ns: u64) {
        let cell = match state {
            TimeState::Handler => &self.time_handler_ns,
            TimeState::Spin => &self.time_spin_ns,
            TimeState::Park => &self.time_park_ns,
            TimeState::Ring => &self.time_ring_ns,
            TimeState::Frank => &self.time_frank_ns,
            TimeState::Idle => &self.time_idle_ns,
        };
        cell.fetch_add(ns, Ordering::Relaxed);
    }
}

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
        s.cell(0).handoff_calls.fetch_add(2, Ordering::Relaxed);
        s.cell(3).handoff_calls.fetch_add(3, Ordering::Relaxed);
        s.cell(1).inline_calls.fetch_add(1, Ordering::Relaxed);
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
        let s = RuntimeStats::new(2);
        let a = s.cell(0) as *const _ as usize;
        let b = s.cell(1) as *const _ as usize;
        assert!(b.abs_diff(a) >= 128);
    }

    #[test]
    fn snapshot_since_and_display() {
        let s = RuntimeStats::new(2);
        s.cell(0).handoff_calls.fetch_add(10, Ordering::Relaxed);
        let first = s.snapshot();
        s.cell(1).handoff_calls.fetch_add(4, Ordering::Relaxed);
        s.cell(1).park_waits.fetch_add(4, Ordering::Relaxed);
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
        s.cell(0).inline_calls.fetch_add(3, Ordering::Relaxed);
        s.cell(1).inline_calls.fetch_add(5, Ordering::Relaxed);
        s.cell(1).ring_submits.fetch_add(2, Ordering::Relaxed);
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
        s.cell(0).inline_calls.fetch_add(7, Ordering::Relaxed);
        s.cell(0).bulk_denied.fetch_add(2, Ordering::Relaxed);
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
