//! The estimators: slice floor for host time, order statistics, and the
//! percentile rule for simulated latency.

/// The floor of a workload's wall time: each of the equal simulated-time
/// slices does the same work in every rep, so the least wall any rep spent
/// on slice `i` is the best evidence of that slice's cost, and the floor is
/// the sum of those minima. One noisy slice in a rep spoils only that
/// sample, not the rep.
///
/// Reps of another length than the first are ignored.
pub fn slice_floor_ns(reps: &[Vec<u64>]) -> u64 {
    let Some(first) = reps.first() else { return 0 };
    (0..first.len())
        .map(|i| {
            reps.iter()
                .filter(|r| r.len() == first.len())
                .map(|r| r[i])
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// Median of the values (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Least of the values; 0 when empty.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The percentiles a report may quote, ascending, each with the number of
/// samples of which one lies beyond it.
pub const PERCENTILE_LADDER: [(f64, u64); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it; `None` when even the median has not.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .filter(|(_, one_in)| samples >= 10 * one_in)
        .map(|&(q, _)| q)
        .reduce(f64::max)
}

/// The `q`-quantile of a bucketed histogram given as ascending
/// `(lower, upper, count)` buckets, interpolated linearly inside the bucket
/// that holds the order statistic. The simulator's histogram reports a
/// bucket edge (3 % wide); interpolation resolves movements smaller than a
/// bucket.
pub fn bucket_quantile(buckets: &[(u64, u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.2).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).clamp(0.0, total as f64);
    let mut below = 0u64;
    for &(lo, hi, count) in buckets {
        if (below + count) as f64 >= target {
            let inside = (target - below as f64) / count as f64;
            return lo as f64 + inside * (hi - lo) as f64;
        }
        below += count;
    }
    buckets.last().map_or(0.0, |b| b.1 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::splitmix64;

    #[test]
    fn floor_recovers_true_cost_under_spikes_and_a_slow_phase() {
        // 100 slices of known cost; 12 reps; every rep has 2x spikes on a
        // tenth of its slices, and reps 3..9 run wholly 50 % slow.
        let truth: Vec<u64> = (0..100).map(|i| 10_000 + 37 * i).collect();
        let mut draws = 0u64;
        let reps: Vec<Vec<u64>> = (0..12)
            .map(|r| {
                truth
                    .iter()
                    .map(|&t| {
                        let mut v = t;
                        if (3..9).contains(&r) {
                            v += t / 2;
                        }
                        draws += 1;
                        if splitmix64(draws).is_multiple_of(10) {
                            v *= 2;
                        }
                        v
                    })
                    .collect()
            })
            .collect();
        let want: u64 = truth.iter().sum();
        assert_eq!(slice_floor_ns(&reps), want);
        // The median rep is far off: that is the estimator the floor replaces.
        let totals: Vec<f64> = reps.iter().map(|r| r.iter().sum::<u64>() as f64).collect();
        assert!(median(&totals) > want as f64 * 1.2);
    }

    #[test]
    fn floor_ignores_reps_of_another_length() {
        let reps = vec![vec![5, 5, 5], vec![1], vec![4, 6, 4]];
        assert_eq!(slice_floor_ns(&reps), 4 + 5 + 4);
        assert_eq!(slice_floor_ns(&[]), 0);
    }

    #[test]
    fn median_and_least() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(99_999), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let buckets = [(0, 10, 10), (10, 20, 10)];
        assert_eq!(bucket_quantile(&buckets, 0.5), 10.0);
        assert_eq!(bucket_quantile(&buckets, 0.75), 15.0);
        assert_eq!(bucket_quantile(&buckets, 1.0), 20.0);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
