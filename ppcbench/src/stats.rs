//! Order statistics the harness reports: medians and quartiles over
//! trials, and a constant-memory latency histogram with the "highest
//! percentile that still has ten samples beyond it" rule for tails.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice — every caller has at least one trial.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them — the acceptance rule for this benchmark is stated in those
/// terms, so the repeat-set tables in the README use the same arithmetic.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median, quartiles and sample count of one metric over the trials of a
/// run.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Samples beyond a reported tail value, at minimum.
pub const TAIL_SUPPORT: u64 = 10;

/// 0-based rank of the value to report for quantile `q` of `n` sorted
/// samples: the nearest rank, lowered until at least [`TAIL_SUPPORT`]
/// samples lie beyond it. `q = 1.0` therefore names the highest
/// percentile the sample supports (the 11th largest value), not the
/// single worst outlier. `None` when `n` cannot support any tail.
pub fn tail_rank(n: u64, q: f64) -> Option<u64> {
    if n <= TAIL_SUPPORT {
        return None;
    }
    let beyond = (((1.0 - q) * n as f64).floor() as u64).max(TAIL_SUPPORT);
    Some(n - 1 - beyond.min(n - 1))
}

/// Exact 1 ns buckets below this; rarer, larger samples are kept verbatim.
const FINE_NS: usize = 1 << 16;

/// Latency samples in constant memory: a 1 ns-resolution count array for
/// everything under 65 µs and an exact side list above, so a pass can
/// take millions of samples without its buffer becoming the process's
/// peak RSS.
pub struct LatHist {
    fine: Vec<u32>,
    over: Vec<u64>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist::new()
    }
}

impl LatHist {
    pub fn new() -> LatHist {
        LatHist {
            fine: vec![0; FINE_NS],
            over: Vec::with_capacity(1 << 12),
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sort the side list; call once after the pass, before rank queries.
    pub fn seal(&mut self) {
        self.over.sort_unstable();
    }

    /// Value at 0-based `rank` in sorted order, with the number of
    /// samples strictly below that value and equal to it.
    fn locate(&self, rank: u64) -> (u64, u64, u64) {
        assert!(rank < self.n, "rank {rank} of {} samples", self.n);
        let mut below = 0u64;
        for (v, &c) in self.fine.iter().enumerate() {
            let c = u64::from(c);
            if rank < below + c {
                return (v as u64, below, c);
            }
            below += c;
        }
        let i = (rank - below) as usize;
        let v = self.over[i];
        let first = self.over.partition_point(|&x| x < v);
        let last = self.over.partition_point(|&x| x <= v);
        (v, below + first as u64, (last - first) as u64)
    }

    /// Value at 0-based `rank`, interpolated inside its 1 ns bucket: a
    /// reading `v` stands for the interval `[v, v + 1)`, and the samples
    /// that share a bucket are taken to be spread evenly over it. A clock
    /// that truncates to whole nanoseconds puts many samples on one value,
    /// and the plain order statistic would read the same integer whether
    /// the distribution moved by 0.9 ns or not at all.
    pub fn value_at_rank(&self, rank: u64) -> f64 {
        let (v, below, at) = self.locate(rank);
        v as f64 + ((rank - below) as f64 + 0.5) / at as f64
    }

    /// The median (the grouped-data median, see [`LatHist::value_at_rank`]).
    pub fn median_interp(&self) -> f64 {
        (self.value_at_rank((self.n - 1) / 2) + self.value_at_rank(self.n / 2)) / 2.0
    }

    /// Tail value for quantile `q` under the [`tail_rank`] rule.
    pub fn tail(&self, q: f64) -> Option<f64> {
        tail_rank(self.n, q).map(|r| self.value_at_rank(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.0, 4.0, 6.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.q1, s.q3, s.n), (4.0, 2.0, 6.0, 7));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // Too few samples to support any tail.
        assert_eq!(tail_rank(10, 0.99), None);
        // 100k samples: p99 has 1000 beyond, p999 has 100, max is capped
        // at the 11th largest.
        assert_eq!(tail_rank(100_000, 0.99), Some(100_000 - 1 - 1000));
        assert_eq!(tail_rank(100_000, 0.999), Some(100_000 - 1 - 100));
        assert_eq!(tail_rank(100_000, 1.0), Some(100_000 - 11));
        // 500 samples cannot support p99 (5 beyond): lowered to 10 beyond.
        assert_eq!(tail_rank(500, 0.99), Some(489));
        assert_eq!(tail_rank(500, 0.999), Some(489));
        assert_eq!(tail_rank(11, 1.0), Some(0));
    }

    #[test]
    fn hist_ranks_span_fine_and_side_list() {
        let mut h = LatHist::new();
        for v in [5u64, 5, 7, 100_000, 70_000, 5] {
            h.record(v);
        }
        h.seal();
        assert_eq!(h.count(), 6);
        let got: Vec<u64> = (0..6).map(|r| h.value_at_rank(r) as u64).collect();
        assert_eq!(got, [5, 5, 5, 7, 70_000, 100_000]);
    }

    #[test]
    fn hist_tail_selects_supported_percentile() {
        let mut h = LatHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        h.seal();
        // p99 of 1000 samples has exactly 10 beyond: value 990.
        assert_eq!(h.tail(0.99), Some(990.5));
        // p999 would have 1 beyond: lowered to the same rank.
        assert_eq!(h.tail(0.999), Some(990.5));
        assert_eq!(h.tail(1.0), Some(990.5));
        let mut small = LatHist::new();
        small.record(1);
        small.seal();
        assert_eq!(small.tail(0.99), None);
    }

    #[test]
    fn interpolated_median_moves_inside_a_bucket() {
        // 4 samples at 10, 6 at 11: the centre (5 of 10) sits 1/6 into
        // the 11 ns bucket.
        let mut h = LatHist::new();
        for _ in 0..4 {
            h.record(10);
        }
        for _ in 0..6 {
            h.record(11);
        }
        h.seal();
        let m = h.median_interp();
        assert!((m - (11.0 + 1.0 / 6.0)).abs() < 1e-9, "{m}");
        // All samples equal: centre of the bucket.
        let mut h = LatHist::new();
        for _ in 0..8 {
            h.record(42);
        }
        h.seal();
        assert!((h.median_interp() - 42.5).abs() < 1e-9);
        // Sparse samples: the ordinary median of the bucket centres.
        let mut h = LatHist::new();
        for v in [100, 300, 200_000, 400_000] {
            h.record(v);
        }
        h.seal();
        assert!((h.median_interp() - 100_150.5).abs() < 1e-9);
    }
}
