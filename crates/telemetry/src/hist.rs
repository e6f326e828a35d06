//! Bounded log-bucketed histograms (HDR-style).
//!
//! Values are `u64` (the workspace records nanoseconds). The value domain is
//! split into octaves `[2^h, 2^(h+1))`, each divided into `2^SUB_BITS`
//! linear sub-buckets, so the bucket holding a value `v` is never wider than
//! `v / 2^SUB_BITS`: every reported quantile is within a relative error of
//! `2^-SUB_BITS` (≈ 3.1%) of the exact order statistic — "within one bucket
//! width". Values below `2^SUB_BITS` are counted exactly.
//!
//! The footprint is a fixed `BUCKETS × 8` bytes (~15 KB) regardless of how
//! many observations are recorded, which is what lets the simulator keep
//! per-metric latency series for arbitrarily long runs.

/// Number of linear sub-bucket bits per octave.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` domain.
pub const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let h = 63 - v.leading_zeros();
        let sub = ((v >> (h - SUB_BITS)) as usize) - SUB;
        (((h - SUB_BITS + 1) as usize) << SUB_BITS) | sub
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    let group = i >> SUB_BITS;
    let sub = (i & (SUB - 1)) as u64;
    if group == 0 {
        sub
    } else {
        let h = group as u32 + SUB_BITS - 1;
        (1u64 << h) + (sub << (h - SUB_BITS))
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

/// Pre-computed scalar digest of a histogram, as embedded in run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Exact minimum observed value (0 when empty).
    pub min: u64,
    /// Exact maximum observed value (0 when empty).
    pub max: u64,
    /// Exact arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median, within one bucket width of exact.
    pub p50: u64,
    /// 95th percentile, within one bucket width of exact.
    pub p95: u64,
    /// 99th percentile, within one bucket width of exact.
    pub p99: u64,
}

crate::record!(HistogramSummary {
    count,
    min,
    max,
    mean,
    p50,
    p95,
    p99
});

/// A bounded log-bucketed histogram over `u64` values.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>, // fixed length BUCKETS
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates its full fixed footprint up front.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// `q = 0` returns the exact minimum and `q = 1` the exact maximum;
    /// interior quantiles return the upper edge of the bucket holding the
    /// order statistic, clamped into `[min, max]`, so the result is always
    /// within one bucket width (relative error `2^-SUB_BITS`) of exact.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(bucket_hi(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The constant memory footprint of the bucket array, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.counts.capacity() * core::mem::size_of::<u64>()
    }

    /// Non-empty buckets as `(lower_bound, upper_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
    }

    /// Rebuilds a histogram from sparse `[lower_bound, count]` pairs, as
    /// stored in a run report. Min/max are bucket bounds, not exact.
    pub fn from_sparse(buckets: &[[u64; 2]]) -> Self {
        let mut h = LogHistogram::new();
        for &[lo, c] in buckets {
            if c > 0 {
                let i = bucket_index(lo);
                h.counts[i] += c;
                h.count += c;
                h.sum += lo as u128 * c as u128;
                h.min = h.min.min(bucket_lo(i));
                h.max = h.max.max(bucket_hi(i));
            }
        }
        h
    }

    /// Scalar digest: count, min/max/mean, p50/p95/p99.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.percentile(0.50).unwrap_or(0),
            p95: self.percentile(0.95).unwrap_or(0),
            p99: self.percentile(0.99).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        // Each value below 2^SUB_BITS lands in its own unit-width bucket.
        for (lo, hi, c) in h.nonzero_buckets() {
            assert_eq!(lo, hi);
            assert_eq!(c, 1);
        }
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(1.0), Some(SUB as u64 - 1));
    }

    #[test]
    fn bucket_boundaries_are_tight() {
        // The first value of each octave starts a fresh bucket, and bucket
        // bounds tile the domain with no gaps or overlaps.
        for &v in &[31u64, 32, 33, 63, 64, 65, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v && v <= bucket_hi(i), "v={v} i={i}");
        }
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_hi(i) + 1, bucket_lo(i + 1), "gap after bucket {i}");
        }
        assert_eq!(bucket_hi(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_bounded_by_one_bucket_width() {
        for &v in &[100u64, 999, 12_345, 1_000_000, 987_654_321] {
            let i = bucket_index(v);
            let width = bucket_hi(i) - bucket_lo(i) + 1;
            assert!(
                width as f64 <= v as f64 / SUB as f64 + 1.0,
                "v={v} width={width}"
            );
        }
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0);
    }

    #[test]
    fn p0_and_p100_are_exact_extremes() {
        let mut h = LogHistogram::new();
        for v in [17u64, 123_456, 7_890_123, 3] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(3));
        assert_eq!(h.percentile(1.0), Some(7_890_123));
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(7_890_123));
    }

    #[test]
    fn memory_constant_while_percentiles_track_exact() {
        let mut h = LogHistogram::new();
        let before = h.footprint_bytes();
        // A deterministic skewed stream: 100k observations spanning 6 octaves.
        let mut exact = Vec::new();
        let mut x = 88172645463325252u64;
        for _ in 0..100_000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 1_000 + x % 1_000_000;
            h.record(v);
            exact.push(v);
        }
        assert_eq!(
            h.footprint_bytes(),
            before,
            "footprint grew with observations"
        );
        assert_eq!(h.count(), 100_000);

        exact.sort_unstable();
        for q in [0.5, 0.99] {
            let idx = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len()) - 1;
            let truth = exact[idx];
            let got = h.percentile(q).unwrap();
            let width = truth as f64 / SUB as f64 + 1.0;
            assert!(
                (got as f64 - truth as f64).abs() <= width,
                "q={q}: got {got}, exact {truth}, allowed ±{width}"
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let (mut a, mut b, mut union) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in [5u64, 900, 40_000] {
            a.record(v);
            union.record(v);
        }
        for v in [1u64, 70_000, 70_000] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn sparse_round_trip_preserves_counts_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [0u64, 31, 32, 1000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let sparse: Vec<[u64; 2]> = h.nonzero_buckets().map(|(lo, _, c)| [lo, c]).collect();
        let back = LogHistogram::from_sparse(&sparse);
        assert_eq!(back.count(), h.count());
        let orig: Vec<_> = h.nonzero_buckets().collect();
        let rt: Vec<_> = back.nonzero_buckets().collect();
        assert_eq!(orig, rt);
    }
}
