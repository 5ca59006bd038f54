//! Lock-free latency histograms, sharded per virtual processor.
//!
//! The instrumentation must preserve the property it exists to prove:
//! a PPC "accesses no shared data and acquires no locks" in the common
//! case. So the histograms mirror [`crate::stats::StatsCell`] exactly —
//! one `#[repr(align(128))]` `HistCell` per vCPU, `Relaxed` increments
//! on the recording (hot) path, merge and percentile extraction only on
//! the cold read path.
//!
//! Two mechanisms keep the fast path honest:
//!
//! 1. **Runtime enable bit** — one `Relaxed` load per call
//!    ([`ObsState::try_sample`]). Disabled at runtime, a call pays that
//!    single load and nothing else.
//! 2. **Sampling** — timestamps are the real cost (`Instant::now` is
//!    tens of nanoseconds, comparable to a whole null inline call), so
//!    durations are recorded for every 2^`sample_shift`-th call per
//!    *(thread, vCPU)* (default 1/128). A thread-local tick per vCPU
//!    makes the decision without touching shared memory — a thread that
//!    alternates between two vCPUs' clients samples each of them, where
//!    one tick per thread and an even period would land every sample on
//!    one vCPU; sampled calls pay the two
//!    timestamps and one bucket increment, unsampled calls pay a
//!    thread-local increment and a branch. The calling thread's tick
//!    decides every timed record of a call, a hand-off worker's included
//!    (the decision rides the slot), and the per-kind max is the max
//!    over sampled calls. Uniform every-Nth sampling is unbiased for
//!    quantiles, which is what the plane reports.
//!
//! Buckets are log₂-spaced over nanoseconds: bucket *i* holds durations
//! with bit length *i* (i.e. `ns in [2^(i-1), 2^i)` for `i ≥ 1`, and
//! `ns == 0` in bucket 0), clamped to [`BUCKETS`]`-1`. Percentiles
//! interpolate linearly within the crossing bucket (assuming a uniform
//! spread of samples inside it), so reported quantiles are usable for
//! gating rather than snapping to the next power of two.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of log₂ buckets per histogram (covers 0 ns up to ≈ 2⁶³ ns).
pub const BUCKETS: usize = 64;

/// Default per-thread sampling shift: record every 2^7 = 128th call.
/// Chosen against the ≤5% overhead budget on a ~65 ns null inline call:
/// a sampled call costs ~200 ns (four timestamps plus the bucket and
/// ring stores), so 1/128 amortizes to ~1.6 ns; a busy bench run still
/// collects tens of thousands of samples.
pub const DEFAULT_SAMPLE_SHIFT: u32 = 7;

/// Which duration a histogram tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum LatencyKind {
    /// Synchronous call, end to end (dispatch entry to result return).
    Call = 0,
    /// Client-side rendezvous wait (post → `DONE` observed).
    Rendezvous = 1,
    /// Handler execution (worker-side or inline).
    Handler = 2,
    /// Bulk copy engine transfer (`copy_from`/`copy_to`/`exchange`,
    /// owner `fill`/`read_into`).
    BulkCopy = 3,
    /// Submission-queue occupancy observed by a ring worker when it
    /// picks up a sampled SQE, that SQE included (a depth in entries,
    /// not a duration — the log₂ buckets read as queue-depth bands).
    RingDepth = 4,
    /// Completions harvested per [`crate::ring::ClientRing::reap`] call
    /// (a batch size, not a duration).
    ReapBatch = 5,
}

/// All kinds, in discriminant order (exporter iteration surface).
pub const KINDS: [LatencyKind; 6] = [
    LatencyKind::Call,
    LatencyKind::Rendezvous,
    LatencyKind::Handler,
    LatencyKind::BulkCopy,
    LatencyKind::RingDepth,
    LatencyKind::ReapBatch,
];

/// Number of tracked [`LatencyKind`]s.
pub const NKINDS: usize = 6;

impl LatencyKind {
    /// Stable lower-case label (Prometheus `kind` tag / JSON key).
    pub fn label(self) -> &'static str {
        match self {
            LatencyKind::Call => "call",
            LatencyKind::Rendezvous => "rendezvous",
            LatencyKind::Handler => "handler",
            LatencyKind::BulkCopy => "bulk_copy",
            LatencyKind::RingDepth => "ring_depth",
            LatencyKind::ReapBatch => "reap_batch",
        }
    }
}

/// The log₂ bucket index of a duration in nanoseconds.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound (ns) of bucket `i` — the value percentiles
/// report for samples landing in that bucket. `bucket_of` of this bound
/// is `i` again, so re-encoding a decoded value never migrates buckets.
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// One virtual processor's histograms: [`NKINDS`] × [`BUCKETS`] bucket
/// counters plus a running sum and max per kind, aligned so two vCPUs
/// never share a cache-line pair (the recording path touches only the
/// calling vCPU's cell).
#[repr(align(128))]
#[derive(Debug)]
pub struct HistCell {
    buckets: [[AtomicU64; BUCKETS]; NKINDS],
    sum_ns: [AtomicU64; NKINDS],
    max_ns: [AtomicU64; NKINDS],
}

impl HistCell {
    fn new() -> Self {
        // `AtomicU64` is not Copy; build the arrays element-wise.
        HistCell {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sum_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            max_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    fn record(&self, kind: LatencyKind, ns: u64) {
        let k = kind as usize;
        self.buckets[k][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns[k].fetch_add(ns, Ordering::Relaxed);
        self.max_ns[k].fetch_max(ns, Ordering::Relaxed);
    }
}

/// A merged (cross-vCPU) view of one kind's histogram — the cold-path
/// product handed to percentile queries and the exporter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts (log₂ buckets, see [`bucket_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of recorded durations (ns).
    pub sum_ns: u64,
    /// Largest recorded duration (ns; exact, not bucket-rounded).
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: [0; BUCKETS], sum_ns: 0, max_ns: 0 }
    }

    /// Record one duration (single-owner variant, used by bench
    /// harnesses that keep a private histogram rather than going through
    /// a runtime's sampled plane).
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `(inclusive upper bound ns, count)` per bucket, in bucket order —
    /// the exporter's iteration surface.
    pub fn bucket_entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(i, &n)| (bucket_bound(i), n))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated within the
    /// log₂ bucket where the cumulative count crosses `q`: the rank's
    /// position among the bucket's samples picks a proportional point
    /// between the bucket's lower and upper bound (assuming samples
    /// spread uniformly inside the bucket — the standard refinement that
    /// keeps a 70 ns p50 from reporting as 127). The topmost populated
    /// bucket uses the exact tracked max as its upper bound, so p100 and
    /// near-tail quantiles are never inflated to a power of two.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let top = self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 };
                // The top populated bucket's upper bound is the exact
                // tracked max — but clamped into the bucket: a window
                // delta's `max_ns` is 0 when the window set no new max
                // (see `delta_since`), and a hand-built histogram may
                // carry a max from outside its buckets; letting either
                // stretch the interpolation span would corrupt every
                // near-tail quantile.
                let upper = if i == top {
                    self.max_ns.clamp(lower, bucket_bound(i))
                } else {
                    bucket_bound(i)
                };
                let within = rank - seen; // 1 ..= c
                let span = (upper - lower) as f64;
                return lower + (span * within as f64 / c as f64).round() as u64;
            }
            seen += c;
        }
        self.max_ns
    }

    /// Merge `other` into `self` (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clear every bucket, the sum, **and the exact max** back to zero.
    /// The max reset matters: a max only ratchets up, so a histogram
    /// reused across measurement windows would otherwise report a stale
    /// worst case from a previous window forever.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }

    /// The activity between two cumulative snapshots of the same
    /// histogram: bucket-wise `self - earlier` (saturating, so a
    /// concurrent [`ObsState::reset`] between the two reads degrades to
    /// zeros instead of wrapping).
    ///
    /// Delta-safe exact-max semantics: a cumulative `max_ns` only ever
    /// ratchets up, so it cannot be subtracted. If `self.max_ns` moved
    /// past `earlier.max_ns`, the new worst case was observed *inside*
    /// this window and is reported exactly; otherwise the window saw no
    /// new max and the delta's `max_ns` is 0 — "unknown", which
    /// [`Histogram::quantile`] already handles by clamping the top
    /// bucket's interpolation span to the bucket bounds. Reporting the
    /// stale cumulative max instead would pin every window's p100 at
    /// boot-time's worst call.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (o, (a, b)) in
            out.buckets.iter_mut().zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *o = a.saturating_sub(*b);
        }
        out.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        out.max_ns = if self.max_ns > earlier.max_ns { self.max_ns } else { 0 };
        out
    }
}

/// The runtime's histogram plane: per-vCPU cells plus the shared
/// enable/sampling configuration word.
#[derive(Debug)]
pub struct ObsState {
    /// Bit 0: histograms enabled. Bits 8..=15: sample shift (record
    /// every 2^shift-th call per thread and vCPU), bits 16..=31 the tick
    /// mask it makes ([`shift_bits`]). One `Relaxed` load per call.
    cfg: AtomicU32,
    cells: Box<[HistCell]>,
}

const CFG_HIST_ON: u32 = 1;

/// The config bits of sample shift `shift` (at most 16): the shift, and
/// the mask 2^shift − 1 that the per-call gate tests the tick against.
const fn shift_bits(shift: u32) -> u32 {
    shift << 8 | ((1 << shift) - 1) << 16
}

thread_local! {
    /// Per-thread sampling ticks, one per vCPU (a runtime has at most
    /// 256). Thread-local so the unsampled common case touches no shared
    /// memory at all (a shared per-vCPU tick would put an RMW on every
    /// call — measurable against a ~70 ns null inline call).
    static SAMPLE_TICKS: [Cell<u32>; 256] = const { [const { Cell::new(0) }; 256] };
}

impl ObsState {
    /// Histograms for `n_vcpus` virtual processors, enabled, sampling
    /// every 2^[`DEFAULT_SAMPLE_SHIFT`]-th call per thread and vCPU.
    pub(crate) fn new(n_vcpus: usize) -> Self {
        ObsState {
            cfg: AtomicU32::new(CFG_HIST_ON | shift_bits(DEFAULT_SAMPLE_SHIFT)),
            cells: (0..n_vcpus.max(1)).map(|_| HistCell::new()).collect(),
        }
    }

    /// Whether histogram recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.load(Ordering::Relaxed) & CFG_HIST_ON != 0
    }

    /// Enable or disable recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        let mut cur = self.cfg.load(Ordering::Relaxed);
        loop {
            let next = if on { cur | CFG_HIST_ON } else { cur & !CFG_HIST_ON };
            match self.cfg.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Set the sampling shift: durations are recorded for every
    /// 2^`shift`-th call per thread and vCPU. `0` records every call
    /// (full cost: two timestamps per call). Clamped to 16.
    pub fn set_sample_shift(&self, shift: u32) {
        let bits = shift_bits(shift.min(16));
        let mut cur = self.cfg.load(Ordering::Relaxed);
        loop {
            let next = (cur & CFG_HIST_ON) | bits;
            match self.cfg.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// The current sampling shift.
    pub fn sample_shift(&self) -> u32 {
        (self.cfg.load(Ordering::Relaxed) >> 8) & 0xFF
    }

    /// The once-per-call gate: one `Relaxed` config load; if enabled,
    /// one tick of the calling thread's counter for `vcpu`. Returns `true`
    /// when this call should be timed (the caller then takes timestamps
    /// and calls [`ObsState::record`]).
    #[inline]
    pub fn try_sample(&self, vcpu: usize) -> bool {
        let cfg = self.cfg.load(Ordering::Relaxed);
        if cfg & CFG_HIST_ON == 0 {
            return false;
        }
        let mask = cfg >> 16;
        SAMPLE_TICKS.with(|t| {
            let t = &t[vcpu as u8 as usize];
            let n = t.get();
            t.set(n.wrapping_add(1));
            n & mask == 0
        })
    }

    /// Record one duration into the calling vCPU's cell. Hot-path legal:
    /// three `Relaxed` RMWs on this vCPU's own cache lines. Callers
    /// normally gate this behind [`ObsState::try_sample`]; the method
    /// itself is unconditional (tests and cold paths may record
    /// directly).
    #[inline]
    pub fn record(&self, kind: LatencyKind, vcpu: usize, ns: u64) {
        self.cells[vcpu].record(kind, ns);
    }

    /// Merge every vCPU's histogram for `kind` (cold read path).
    pub fn merged(&self, kind: LatencyKind) -> Histogram {
        let mut out = Histogram::new();
        for v in 0..self.cells.len() {
            out.merge(&self.vcpu_hist(kind, v));
        }
        out
    }

    /// One vCPU's histogram for `kind` (cold read path).
    pub fn vcpu_hist(&self, kind: LatencyKind, vcpu: usize) -> Histogram {
        let k = kind as usize;
        let cell = &self.cells[vcpu];
        Histogram {
            buckets: std::array::from_fn(|i| cell.buckets[k][i].load(Ordering::Relaxed)),
            sum_ns: cell.sum_ns[k].load(Ordering::Relaxed),
            max_ns: cell.max_ns[k].load(Ordering::Relaxed),
        }
    }

    /// Reset every bucket, sum and max to zero (cold path; racing
    /// recorders may land increments before or after — fine for the
    /// bench "reset between phases" use).
    pub fn reset(&self) {
        for cell in self.cells.iter() {
            for k in 0..NKINDS {
                for b in &cell.buckets[k] {
                    b.store(0, Ordering::Relaxed);
                }
                cell.sum_ns[k].store(0, Ordering::Relaxed);
                cell.max_ns[k].store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_covers_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Re-encoding the reported bound never migrates buckets.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_step_through_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, bound 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, bound 16383
        }
        assert_eq!(h.count(), 100);
        // Interpolated within bucket 7 ([64, 127]): rank 50 of 90
        // samples lands at 64 + 63·50/90 ≈ 99; rank 90 pins the upper
        // bound.
        assert_eq!(h.quantile(0.5), 99);
        assert_eq!(h.quantile(0.9), 127);
        // The topmost populated bucket interpolates toward the exact
        // max ([8192, 10_000]): rank 99 is the 9th of its 10 samples.
        assert_eq!(h.quantile(0.99), 9_819);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.max_ns, 10_000);
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn quantile_interpolation_brackets_uniform_samples() {
        // A single value recorded repeatedly: every quantile must land
        // inside its bucket, and the median should sit near the value's
        // proportional position, not at the bucket bound.
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(70); // bucket 7: [64, 127]
        }
        for q in [0.01, 0.5, 0.999] {
            let v = h.quantile(q);
            assert!((64..=70).contains(&v), "q{q} = {v} outside [64, 70]");
        }
        assert_eq!(h.quantile(1.0), 70, "top bucket upper bound is the exact max");
    }

    #[test]
    fn unsampled_max_does_not_skew_quantiles() {
        // A max from outside the sampled buckets (an 80µs convoy
        // recorded in another window, say) may sit far above the top
        // one. Quantiles must stay inside the sampled distribution; only
        // the max reports the outlier.
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(1_500); // bucket 11: [1024, 2047]
        }
        h.max_ns = 80_000;
        for q in [0.5, 0.99, 0.999] {
            let v = h.quantile(q);
            assert!((1024..=2047).contains(&v), "q{q} = {v} escaped the sampled bucket");
        }
        assert_eq!(h.max_ns, 80_000);
    }

    #[test]
    fn reset_clears_the_exact_max() {
        let mut h = Histogram::new();
        h.record(80_000); // one outlier
        assert_eq!(h.max_ns, 80_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns, 0);
        assert_eq!(h.max_ns, 0, "a stale max must not leak into the next window");
        h.record(500);
        assert_eq!(h.quantile(1.0), 500, "post-reset quantiles use post-reset max only");
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let mut cum = Histogram::new();
        cum.record(100);
        cum.record(80_000);
        let t0 = cum.clone();
        // Window activity: three fast samples, no new max.
        for _ in 0..3 {
            cum.record(120);
        }
        let d = cum.delta_since(&t0);
        assert_eq!(d.count(), 3);
        assert_eq!(d.sum_ns, 360);
        assert_eq!(d.max_ns, 0, "no new max observed in the window");
        // Quantiles stay inside the window's own bucket despite max=0.
        let q = d.quantile(0.99);
        assert!((64..=127).contains(&q), "q={q}");
        // A new max inside the window reports exactly.
        let t1 = cum.clone();
        cum.record(200_000);
        let d2 = cum.delta_since(&t1);
        assert_eq!(d2.count(), 1);
        assert_eq!(d2.max_ns, 200_000);
    }

    #[test]
    fn delta_of_deltas_is_consistent() {
        // delta(t2, t0) == merge(delta(t2, t1), delta(t1, t0)) for
        // buckets and sums — the property the windowed merger relies on.
        let mut cum = Histogram::new();
        cum.record(50);
        let t0 = cum.clone();
        cum.record(500);
        cum.record(700);
        let t1 = cum.clone();
        cum.record(9_000);
        let t2 = cum.clone();
        let whole = t2.delta_since(&t0);
        let mut stitched = t1.delta_since(&t0);
        stitched.merge(&t2.delta_since(&t1));
        assert_eq!(whole.buckets, stitched.buckets);
        assert_eq!(whole.sum_ns, stitched.sum_ns);
        assert_eq!(whole.count(), 3);
        // A racing reset between snapshots degrades to zeros, not wrap.
        let empty = Histogram::new();
        let d = empty.delta_since(&t2);
        assert_eq!(d.count(), 0);
        assert_eq!(d.sum_ns, 0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(500_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns, 500_000);
        assert_eq!(a.buckets[bucket_of(5)], 2);
    }

    #[test]
    fn state_records_per_vcpu_and_merges() {
        let obs = ObsState::new(2);
        obs.record(LatencyKind::Call, 0, 100);
        obs.record(LatencyKind::Call, 1, 200);
        obs.record(LatencyKind::Handler, 1, 50);
        assert_eq!(obs.merged(LatencyKind::Call).count(), 2);
        assert_eq!(obs.merged(LatencyKind::Call).max_ns, 200);
        assert_eq!(obs.vcpu_hist(LatencyKind::Call, 0).count(), 1);
        assert_eq!(obs.merged(LatencyKind::Handler).count(), 1);
        assert_eq!(obs.merged(LatencyKind::BulkCopy).count(), 0);
        obs.reset();
        assert_eq!(obs.merged(LatencyKind::Call).count(), 0);
    }

    #[test]
    fn sampling_honors_shift_and_enable_bit() {
        let obs = ObsState::new(1);
        obs.set_sample_shift(2); // every 4th
        let hits = (0..32).filter(|_| obs.try_sample(0)).count();
        assert_eq!(hits, 8);
        obs.set_enabled(false);
        assert!(!obs.enabled());
        assert_eq!((0..32).filter(|_| obs.try_sample(0)).count(), 0);
        obs.set_enabled(true);
        obs.set_sample_shift(0); // every call
        assert_eq!((0..8).filter(|_| obs.try_sample(0)).count(), 8);
    }

    /// One thread alternating inline calls between vCPU 0's and vCPU 1's
    /// clients samples each vCPU every 128th of its own calls: with one
    /// tick per thread, the even default period landed every sampled
    /// call on the same vCPU and left the other's histograms empty. Any
    /// 512 consecutive ticks hold exactly four multiples of 128.
    #[test]
    fn a_thread_alternating_vcpus_samples_each_of_them() {
        let rt = crate::Runtime::new(2);
        assert_eq!(rt.obs().sample_shift(), DEFAULT_SAMPLE_SHIFT);
        let opts = crate::EntryOptions { inline_ok: true, initial_workers: 0, ..Default::default() };
        let ep = rt.bind("null", opts, std::sync::Arc::new(|c| c.args)).unwrap();
        let clients = [rt.client(0, 1), rt.client(1, 1)];
        for i in 0..1_024u64 {
            assert_eq!(clients[i as usize % 2].call(ep, [i; 8]), Ok([i; 8]));
        }
        let counts = [0, 1].map(|v| rt.obs().vcpu_hist(LatencyKind::Call, v).count());
        assert_eq!(counts, [4, 4], "sampled calls on vCPU 0 and 1");
    }

    #[test]
    fn cells_are_line_aligned() {
        assert!(std::mem::align_of::<HistCell>() >= 64);
    }
}
