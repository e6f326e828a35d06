//! Simulation-wide measurement sink.
//!
//! Experiments read throughput, latency percentiles, propagation curves,
//! and per-stage bundle lifecycles out of [`Metrics`] after a run. Actors
//! record into it through [`crate::actor::Context::metrics`].
//!
//! Storage is bounded: latency series live in fixed-footprint
//! [`LogHistogram`]s (≤ 1/32 relative bucket error) instead of per-sample
//! vectors, labeled counters are plain cells, and bundle timelines are
//! capped. Everything snapshots into a [`RunReport`] via
//! [`Metrics::run_report`].

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

pub use predis_telemetry::{BundleKey, CounterHandle, Labels, RunReport, Stage};
use predis_telemetry::{Counters, LogHistogram, Timelines};

use crate::time::{SimDuration, SimTime};

/// A single commit observation: `txs` transactions committed at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitEvent {
    /// When the commit happened (simulated time).
    pub at: SimTime,
    /// Number of transactions the commit confirmed.
    pub txs: u64,
}

/// Collected measurements of one simulation run.
///
/// # Examples
///
/// ```
/// use predis_sim::{Metrics, SimDuration, SimTime};
///
/// let mut m = Metrics::new();
/// m.incr("commits", 1);
/// m.record_commit(SimTime::from_secs(1), 500);
/// m.record_latency("lat", SimDuration::from_millis(80));
/// assert_eq!(m.committed_txs_in(SimTime::ZERO, SimTime::from_secs(2)), 500);
/// assert_eq!(m.latency_percentile("lat", 0.5), Some(SimDuration::from_millis(80)));
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Counters,
    latencies: HashMap<&'static str, LogHistogram>,
    commits: Vec<CommitEvent>,
    arrivals: HashMap<u64, Vec<SimTime>>,
    timelines: Timelines,
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to the named (global, unlabeled) counter.
    pub fn incr(&mut self, name: &'static str, n: u64) {
        self.counters.incr(name, Labels::GLOBAL, n);
    }

    /// Reads the global (unlabeled) cell of a counter (zero if never written).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name, Labels::GLOBAL)
    }

    /// Adds `n` to a labeled counter cell (node / chain / zone dimensions):
    /// [`Metrics::incr_handle`] after one key-table lookup.
    pub fn incr_labeled(&mut self, name: &'static str, labels: Labels, n: u64) {
        self.counters.incr(name, labels, n);
    }

    /// Adds `n` through a [`CounterHandle`] — no string hashing or map
    /// lookup, the form per-event hot paths use. Mint the handle where its
    /// key is first known: a constructor, or `on_start` for a key labelled
    /// with the node's own id.
    #[inline]
    pub fn incr_handle(&mut self, handle: CounterHandle, n: u64) {
        self.counters.incr_by_handle(handle, n);
    }

    /// Reads one labeled cell (zero if never written).
    pub fn labeled_counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.counters.get(name, labels)
    }

    /// Sum of a counter across every label combination (including global).
    pub fn counter_total(&self, name: &'static str) -> u64 {
        self.counters.total(name)
    }

    /// All counter cells, for report assembly.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Records one latency sample under `name`.
    ///
    /// Samples land in a bounded log-bucketed histogram: memory does not
    /// grow with the number of observations, and percentiles are within one
    /// bucket width (relative error 1/32) of exact.
    pub fn record_latency(&mut self, name: &'static str, sample: SimDuration) {
        self.latencies
            .entry(name)
            .or_default()
            .record(sample.as_nanos());
    }

    /// Number of latency samples recorded under `name`.
    pub fn latency_count(&self, name: &'static str) -> usize {
        self.latencies.get(name).map_or(0, |h| h.count() as usize)
    }

    /// The full histogram recorded under `name`, if any samples exist.
    pub fn latency_histogram(&self, name: &'static str) -> Option<&LogHistogram> {
        self.latencies.get(name)
    }

    /// The `p`-th percentile (0.0..=1.0) of latency samples under `name`,
    /// or `None` if no samples were recorded. `p = 0` and `p = 1` are the
    /// exact extremes; interior percentiles are within one histogram bucket
    /// width of the exact order statistic.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_percentile(&self, name: &'static str, p: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
        self.latencies
            .get(name)?
            .percentile(p)
            .map(SimDuration::from_nanos)
    }

    /// The mean of latency samples under `name`, or `None` if empty.
    pub fn latency_mean(&self, name: &'static str) -> Option<SimDuration> {
        self.latencies
            .get(name)?
            .mean()
            .map(|m| SimDuration::from_nanos(m.round() as u64))
    }

    /// Stamps `stage` of the bundle identified by `key` at time `at`.
    ///
    /// The earliest observation of a stage wins, so concurrent observers
    /// (every replica sees the same bundle) converge on the first time the
    /// pipeline reached that stage.
    pub fn timeline_mark(&mut self, key: BundleKey, stage: Stage, at: SimTime) {
        self.timelines.mark(key, stage, at.as_nanos());
    }

    /// All bundle lifecycle timelines recorded so far.
    pub fn timelines(&self) -> &Timelines {
        &self.timelines
    }

    /// Records that `txs` transactions committed at `at`.
    pub fn record_commit(&mut self, at: SimTime, txs: u64) {
        self.commits.push(CommitEvent { at, txs });
    }

    /// All commit events, in recording order.
    pub fn commits(&self) -> &[CommitEvent] {
        &self.commits
    }

    /// Total transactions committed in the half-open window `[from, to)`.
    pub fn committed_txs_in(&self, from: SimTime, to: SimTime) -> u64 {
        self.commits
            .iter()
            .filter(|c| c.at >= from && c.at < to)
            .map(|c| c.txs)
            .sum()
    }

    /// Transactions per second over the window `[from, to)`.
    ///
    /// Returns 0.0 for an empty window.
    pub fn throughput_tps(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.committed_txs_in(from, to) as f64 / span
    }

    /// Marks that the object identified by `key` (e.g. a block) arrived
    /// somewhere at time `at`. Used for propagation-latency curves.
    pub fn mark_arrival(&mut self, key: u64, at: SimTime) {
        self.arrivals.entry(key).or_default().push(at);
    }

    /// All recorded arrival times for `key`, unsorted.
    pub fn arrivals(&self, key: u64) -> &[SimTime] {
        self.arrivals.get(&key).map_or(&[], Vec::as_slice)
    }

    /// The time by which a `fraction` (0..=1] of `population` recipients had
    /// received `key`, measured from `origin`. `None` if fewer than
    /// `ceil(fraction * population)` arrivals were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or `population` is zero.
    pub fn propagation_to_fraction(
        &self,
        key: u64,
        origin: SimTime,
        population: usize,
        fraction: f64,
    ) -> Option<SimDuration> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        assert!(population > 0, "population must be positive");
        let needed = ((population as f64) * fraction).ceil() as usize;
        let mut times: Vec<SimTime> = self.arrivals(key).to_vec();
        if times.len() < needed {
            return None;
        }
        times.sort_unstable();
        Some(times[needed - 1].saturating_since(origin))
    }

    /// Keys with at least one recorded arrival.
    pub fn arrival_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.arrivals.keys().copied()
    }

    /// The committed-transaction rate over consecutive buckets of width
    /// `bucket`, from time zero to `until` — the raw series behind a
    /// throughput-over-time plot.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn throughput_series(&self, bucket: SimDuration, until: SimTime) -> Vec<f64> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let n = (until.as_nanos() / bucket.as_nanos()) as usize;
        let mut counts = vec![0u64; n];
        for c in &self.commits {
            let idx = (c.at.as_nanos() / bucket.as_nanos()) as usize;
            if idx < n {
                counts[idx] += c.txs;
            }
        }
        let secs = bucket.as_secs_f64();
        counts.into_iter().map(|c| c as f64 / secs).collect()
    }

    /// Detects the stable suffix of a run: the earliest bucket index from
    /// which every bucket's throughput stays within `tolerance` (relative)
    /// of the suffix mean. Returns `None` if no suffix of at least three
    /// buckets is stable — the run never settled.
    pub fn stable_from(
        &self,
        bucket: SimDuration,
        until: SimTime,
        tolerance: f64,
    ) -> Option<usize> {
        let series = self.throughput_series(bucket, until);
        if series.len() < 3 {
            return None;
        }
        for start in 0..=series.len() - 3 {
            let window = &series[start..];
            let mean: f64 = window.iter().sum::<f64>() / window.len() as f64;
            if mean <= 0.0 {
                continue;
            }
            if window.iter().all(|&x| (x - mean).abs() <= tolerance * mean) {
                return Some(start);
            }
        }
        None
    }

    /// An empty fork of this sink for a partition worker (every
    /// [`CounterHandle`] names the same cell in it), keeping the timeline
    /// cap. Fold back with [`Metrics::absorb_worker`].
    pub(crate) fn fork_for_worker(&self) -> Metrics {
        Metrics {
            counters: Counters::new(),
            latencies: HashMap::new(),
            commits: Vec::new(),
            arrivals: HashMap::new(),
            timelines: Timelines::with_cap(self.timelines.cap()),
        }
    }

    /// Folds a worker fork back in. Counters add cell-wise and histograms
    /// merge bucket-wise (both commutative), arrivals append per key (their
    /// consumers sort), timelines re-mark with earliest-observation-wins,
    /// and commits append then stably re-sort by simulated time — so every
    /// aggregate a report reads is identical to the sequential run's.
    pub(crate) fn absorb_worker(&mut self, other: Metrics) {
        self.counters.absorb(&other.counters);
        self.timelines.absorb(&other.timelines);
        for (name, hist) in &other.latencies {
            self.latencies.entry(name).or_default().merge(hist);
        }
        for (key, times) in other.arrivals {
            self.arrivals.entry(key).or_default().extend(times);
        }
        self.commits.extend(other.commits);
        self.commits.sort_by_key(|c| c.at);
    }

    /// Snapshots everything recorded so far into a machine-readable
    /// [`RunReport`] named `name`: every latency histogram, every labeled
    /// counter cell, and the per-stage bundle-lifecycle breakdown.
    ///
    /// Scalar metrics (throughput, stable-window bounds) and run metadata
    /// are the caller's to add — they depend on experiment-level knowledge
    /// this sink does not have.
    pub fn run_report(&self, name: impl Into<String>) -> RunReport {
        let mut report = RunReport::new(name);
        report.add_counters(&self.counters);
        let mut names: Vec<&'static str> = self.latencies.keys().copied().collect();
        names.sort_unstable();
        for n in names {
            report.add_histogram(n, &self.latencies[n]);
        }
        report.add_timelines(&self.timelines);
        report
    }
}

/// Summary statistics of a throughput/latency run, serializable for the
/// bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Sustained throughput (transactions per second) in the stable window.
    pub throughput_tps: f64,
    /// Mean client latency in milliseconds.
    pub mean_latency_ms: f64,
    /// 50th percentile client latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th percentile client latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Total committed transactions in the measurement window.
    pub committed_txs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn handles_and_names_share_cells() {
        let mut m = Metrics::new();
        let h = CounterHandle::of("node.deliveries", Labels::node(3));
        m.incr_handle(h, 5);
        m.incr_labeled("node.deliveries", Labels::node(3), 2);
        assert_eq!(m.labeled_counter("node.deliveries", Labels::node(3)), 7);
        // An interned-but-unwritten handle does not show up in reports.
        let _idle = CounterHandle::of("node.drops", Labels::node(3));
        let report = m.run_report("handles");
        assert_eq!(report.counter("node.deliveries", Labels::node(3)), 7);
        assert!(report.counters.iter().all(|c| c.name != "node.drops"));
    }

    #[test]
    fn labeled_counters_are_independent_cells() {
        let mut m = Metrics::new();
        m.incr_labeled("deliveries", Labels::node(1), 4);
        m.incr_labeled("deliveries", Labels::node(2), 6);
        assert_eq!(m.labeled_counter("deliveries", Labels::node(1)), 4);
        assert_eq!(m.labeled_counter("deliveries", Labels::node(2)), 6);
        assert_eq!(m.counter("deliveries"), 0);
        assert_eq!(m.counter_total("deliveries"), 10);
    }

    #[test]
    fn latency_percentiles() {
        let mut m = Metrics::new();
        for ms in [10u64, 20, 30, 40, 50] {
            m.record_latency("lat", SimDuration::from_millis(ms));
        }
        // Extremes are exact; interior percentiles are within one log-bucket
        // width (1/32 relative) of the exact order statistic.
        assert_eq!(
            m.latency_percentile("lat", 0.0),
            Some(SimDuration::from_millis(10))
        );
        assert_eq!(
            m.latency_percentile("lat", 1.0),
            Some(SimDuration::from_millis(50))
        );
        let p50 = m.latency_percentile("lat", 0.5).unwrap();
        let exact = SimDuration::from_millis(30);
        let tol = exact.as_nanos() / 32 + 1;
        assert!(
            p50.as_nanos().abs_diff(exact.as_nanos()) <= tol,
            "p50 {p50} not within one bucket of {exact}"
        );
        assert_eq!(m.latency_mean("lat"), Some(SimDuration::from_millis(30)));
        assert_eq!(m.latency_count("lat"), 5);
    }

    #[test]
    fn empty_latency_series_yield_none() {
        let m = Metrics::new();
        assert_eq!(m.latency_percentile("nope", 0.0), None);
        assert_eq!(m.latency_percentile("nope", 0.5), None);
        assert_eq!(m.latency_percentile("nope", 1.0), None);
        assert_eq!(m.latency_mean("nope"), None);
        assert_eq!(m.latency_count("nope"), 0);
        assert!(m.latency_histogram("nope").is_none());
    }

    #[test]
    fn latency_storage_is_bounded() {
        let mut m = Metrics::new();
        m.record_latency("lat", SimDuration::from_micros(100));
        let footprint = m.latency_histogram("lat").unwrap().footprint_bytes();
        for i in 0..200_000u64 {
            m.record_latency("lat", SimDuration::from_micros(50 + i % 10_000));
        }
        assert_eq!(
            m.latency_histogram("lat").unwrap().footprint_bytes(),
            footprint,
            "histogram footprint grew with observations"
        );
        assert_eq!(m.latency_count("lat"), 200_001);
    }

    #[test]
    fn timeline_marks_feed_stage_breakdown() {
        let mut m = Metrics::new();
        let key = BundleKey {
            producer: 3,
            chain: 3,
            height: 1,
        };
        m.timeline_mark(key, Stage::Produced, SimTime::from_millis(10));
        m.timeline_mark(key, Stage::Committed, SimTime::from_millis(250));
        // A later duplicate observation of the same stage is ignored.
        m.timeline_mark(key, Stage::Committed, SimTime::from_millis(400));
        let t = m.timelines().get(&key).unwrap();
        assert_eq!(
            t.span(Stage::Produced, Stage::Committed),
            Some(SimDuration::from_millis(240).as_nanos())
        );
    }

    #[test]
    fn run_report_snapshots_sink_contents() {
        let mut m = Metrics::new();
        m.incr("net.messages", 41);
        m.incr_labeled("node.deliveries", Labels::node(2), 7);
        m.record_latency("client_latency", SimDuration::from_millis(12));
        let key = BundleKey {
            producer: 0,
            chain: 0,
            height: 1,
        };
        m.timeline_mark(key, Stage::Produced, SimTime::from_millis(1));
        m.timeline_mark(key, Stage::Committed, SimTime::from_millis(5));
        let report = m.run_report("snap");
        assert_eq!(report.counter("net.messages", Labels::GLOBAL), 41);
        assert_eq!(report.counter("node.deliveries", Labels::node(2)), 7);
        assert_eq!(report.histogram("client_latency").unwrap().summary.count, 1);
        assert_eq!(
            report.stage("produced->committed").unwrap().summary.count,
            1
        );
        assert_eq!(report.timeline_count, 1);
    }

    #[test]
    fn throughput_window() {
        let mut m = Metrics::new();
        m.record_commit(SimTime::from_secs(1), 100);
        m.record_commit(SimTime::from_secs(2), 200);
        m.record_commit(SimTime::from_secs(3), 400);
        assert_eq!(
            m.committed_txs_in(SimTime::from_secs(1), SimTime::from_secs(3)),
            300
        );
        let tps = m.throughput_tps(SimTime::from_secs(0), SimTime::from_secs(4));
        assert!((tps - 175.0).abs() < 1e-9);
        assert_eq!(
            m.throughput_tps(SimTime::from_secs(2), SimTime::from_secs(2)),
            0.0
        );
    }

    #[test]
    fn throughput_series_buckets_commits() {
        let mut m = Metrics::new();
        m.record_commit(SimTime::from_millis(100), 10);
        m.record_commit(SimTime::from_millis(900), 20);
        m.record_commit(SimTime::from_millis(1500), 30);
        let series = m.throughput_series(SimDuration::from_secs(1), SimTime::from_secs(3));
        assert_eq!(series, vec![30.0, 30.0, 0.0]);
    }

    #[test]
    fn stable_from_finds_the_settled_suffix() {
        let mut m = Metrics::new();
        // Ramp: 10, 100, 100, 100, 100 tx/s.
        for (sec, txs) in [(0u64, 10u64), (1, 100), (2, 100), (3, 100), (4, 100)] {
            m.record_commit(SimTime::from_millis(sec * 1000 + 500), txs);
        }
        let start = m
            .stable_from(SimDuration::from_secs(1), SimTime::from_secs(5), 0.05)
            .unwrap();
        assert_eq!(start, 1);
        // A wildly oscillating series has no stable suffix.
        let mut osc = Metrics::new();
        for (sec, txs) in [(0u64, 10u64), (1, 500), (2, 10), (3, 500), (4, 10)] {
            osc.record_commit(SimTime::from_millis(sec * 1000 + 500), txs);
        }
        assert_eq!(
            osc.stable_from(SimDuration::from_secs(1), SimTime::from_secs(5), 0.05),
            None
        );
    }

    #[test]
    fn propagation_fractions() {
        let mut m = Metrics::new();
        let origin = SimTime::from_secs(10);
        for ms in [100u64, 200, 300, 400] {
            m.mark_arrival(7, origin + SimDuration::from_millis(ms));
        }
        // 4-node population: 50% = 2nd arrival, 100% = 4th.
        assert_eq!(
            m.propagation_to_fraction(7, origin, 4, 0.5),
            Some(SimDuration::from_millis(200))
        );
        assert_eq!(
            m.propagation_to_fraction(7, origin, 4, 1.0),
            Some(SimDuration::from_millis(400))
        );
        // Not enough arrivals for a larger population.
        assert_eq!(m.propagation_to_fraction(7, origin, 8, 1.0), None);
        assert_eq!(m.arrivals(8).len(), 0);
    }
}
