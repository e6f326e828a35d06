//! Machine-readable run reports.
//!
//! A [`RunReport`] is the single artifact an experiment run leaves behind:
//! run metadata, derived scalar metrics, every labeled counter, every
//! latency histogram (sparse buckets plus a scalar summary), and the
//! per-stage bundle-lifecycle breakdown. It serializes to JSON
//! ([`RunReport::to_json`] / [`RunReport::from_json`] round-trip), writes
//! itself under a results directory, and renders a human-readable summary
//! table for the terminal.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::counters::{Counters, Labels};
use crate::hist::{HistogramSummary, LogHistogram};
use crate::json::{record, Json, Shape};
use crate::timeline::Timelines;

/// One labeled counter cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Label dimensions.
    pub labels: Labels,
    /// Cell value.
    pub value: u64,
}

/// One latency histogram: scalar digest plus exact sparse buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// Scalar digest (count, min/max/mean, p50/p95/p99).
    pub summary: HistogramSummary,
    /// Sparse `[bucket_lower_bound, count]` pairs, ascending.
    pub buckets: Vec<[u64; 2]>,
}

impl HistogramEntry {
    /// Builds an entry from a live histogram.
    pub fn from_histogram(name: impl Into<String>, h: &LogHistogram) -> Self {
        HistogramEntry {
            name: name.into(),
            summary: h.summary(),
            buckets: h.nonzero_buckets().map(|(lo, _, c)| [lo, c]).collect(),
        }
    }
}

/// One bundle-lifecycle stage segment (`produced->multicast`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct StageEntry {
    /// Segment name, `a->b` over [`crate::Stage`] names.
    pub segment: String,
    /// Latency digest for the segment, in nanoseconds.
    pub summary: HistogramSummary,
}

/// One dispatch-profiler cell: event count and attributed wall time for one
/// actor kind × event kind pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Actor kind (shortened type name, e.g. `ActorOf<PbftNode<PredisPlane>, ConsMsg>`).
    pub actor: String,
    /// Event kind: `deliver`, `timer`, `start`, or `other`.
    pub event: String,
    /// Events dispatched to this cell.
    pub count: u64,
    /// Wall time attributed to this cell, in nanoseconds.
    pub ns: u64,
}

/// The full machine-readable snapshot of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Run name; used as the output file stem.
    pub name: String,
    /// Free-form run parameters (protocol, load, n_c, seed, ...).
    pub meta: BTreeMap<String, String>,
    /// Derived scalar metrics (throughput_tps, mean_latency_ms, ...).
    pub metrics: BTreeMap<String, f64>,
    /// Every labeled counter cell, deterministic order.
    pub counters: Vec<CounterEntry>,
    /// Every latency histogram.
    pub histograms: Vec<HistogramEntry>,
    /// Per-stage bundle-lifecycle latency breakdown (nanoseconds).
    pub stages: Vec<StageEntry>,
    /// Distinct bundles the run tracked timelines for.
    pub timeline_count: u64,
    /// Timeline marks dropped because the span store hit its cap.
    pub timeline_dropped: u64,
    /// Dispatch-profiler cells (empty unless profiling was enabled).
    pub profile: Vec<ProfileEntry>,
    /// Total wall time of the profiled dispatch loop, in nanoseconds.
    pub profile_run_ns: u64,
}

// The profile block exists only when profiling ran, so default-off reports
// stay byte-identical with and without the profiler compiled in.
record!(RunReport {
    name,
    meta,
    metrics,
    counters,
    histograms,
    stages,
    timeline_count,
    timeline_dropped,
    #[optional]
    profile,
    #[optional]
    profile_run_ns,
});
record!(CounterEntry {
    name,
    labels,
    value
});
record!(HistogramEntry {
    name,
    summary,
    buckets
});
record!(StageEntry { segment, summary });
record!(ProfileEntry {
    actor,
    event,
    count,
    ns
});

impl RunReport {
    /// A new empty report named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            ..RunReport::default()
        }
    }

    /// Adds a free-form metadata pair.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.meta.insert(key.into(), value.to_string());
        self
    }

    /// Sets a free-form metadata pair in place.
    pub fn set_meta(&mut self, key: &str, value: impl ToString) {
        self.meta.insert(key.into(), value.to_string());
    }

    /// Adds a derived scalar metric.
    pub fn set_metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.insert(key.into(), value);
    }

    /// A derived scalar metric, if present.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// A derived scalar metric that the caller *requires* to exist.
    ///
    /// Experiment runners drop non-finite summary values instead of storing
    /// `NaN` (a run with zero commits has no latency), so a missing key
    /// here means the run did not measure what the caller is about to
    /// report. Failing loudly with the run name and the available keys
    /// beats silently NaN-propagating a `-` into a benchmark artifact.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never recorded, naming the run and listing every
    /// metric it does carry.
    pub fn require_metric(&self, key: &str) -> f64 {
        match self.metrics.get(key) {
            Some(v) => *v,
            None => {
                let available: Vec<&str> = self.metrics.keys().map(String::as_str).collect();
                panic!(
                    "run report `{}` has no metric `{key}` (available: [{}])",
                    self.name,
                    available.join(", ")
                );
            }
        }
    }

    /// Absorbs every counter cell.
    pub fn add_counters(&mut self, counters: &Counters) {
        for (name, labels, value) in counters.iter() {
            self.counters.push(CounterEntry {
                name: name.to_string(),
                labels,
                value,
            });
        }
    }

    /// Absorbs one named histogram.
    pub fn add_histogram(&mut self, name: impl Into<String>, h: &LogHistogram) {
        self.histograms
            .push(HistogramEntry::from_histogram(name, h));
    }

    /// Absorbs the per-stage breakdown and bookkeeping of a span store.
    ///
    /// Also surfaces the cap-overflow drop count as the
    /// `timeline.spans_dropped` metric so artifact-level tooling (and
    /// `bench_all`'s loud warning) can see silent Fig. 8 truncation.
    pub fn add_timelines(&mut self, timelines: &Timelines) {
        for (segment, h) in timelines.stage_histograms() {
            self.stages.push(StageEntry {
                segment,
                summary: h.summary(),
            });
        }
        self.timeline_count = timelines.len() as u64;
        self.timeline_dropped = timelines.dropped();
        self.set_metric("timeline.spans_dropped", timelines.dropped() as f64);
    }

    /// Sum of one counter metric across all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// One counter cell's value (0 if absent).
    pub fn counter(&self, name: &str, labels: Labels) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == labels)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The named histogram entry, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The named stage segment, if any bundle completed it.
    pub fn stage(&self, segment: &str) -> Option<&StageEntry> {
        self.stages.iter().find(|s| s.segment == segment)
    }

    /// Total wall time attributed across all profile cells, in nanoseconds.
    pub fn profile_attributed_ns(&self) -> u64 {
        self.profile.iter().map(|p| p.ns).sum()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Shape::to_json(self).to_pretty_string()
    }

    /// Parses a report previously produced by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        Shape::from_json(&Json::parse(text)?)
    }

    /// Writes `<dir>/<name>.json`, creating `dir` if needed, and returns the
    /// path written.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let safe: String = self
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("{safe}.json"));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Human-readable summary: metrics, stage breakdown (in ms), and the
    /// largest counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== run report: {} ==\n", self.name));
        if !self.meta.is_empty() {
            let pairs: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("   {}\n", pairs.join(" ")));
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!("   {k:<32} {v:>14.2}\n"));
        }
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "   {:<34} {:>8} {:>10} {:>10} {:>10}\n",
                "stage segment", "count", "p50 ms", "p95 ms", "p99 ms"
            ));
            for s in &self.stages {
                out.push_str(&format!(
                    "   {:<34} {:>8} {:>10.2} {:>10.2} {:>10.2}\n",
                    s.segment,
                    s.summary.count,
                    s.summary.p50 as f64 / 1e6,
                    s.summary.p95 as f64 / 1e6,
                    s.summary.p99 as f64 / 1e6,
                ));
            }
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "   hist {:<29} {:>8} {:>10.2} {:>10.2} {:>10.2}\n",
                h.name,
                h.summary.count,
                h.summary.p50 as f64 / 1e6,
                h.summary.p95 as f64 / 1e6,
                h.summary.p99 as f64 / 1e6,
            ));
        }
        if self.timeline_count > 0 {
            out.push_str(&format!(
                "   timelines tracked {} (dropped {})\n",
                self.timeline_count, self.timeline_dropped
            ));
        }
        if !self.profile.is_empty() {
            let attributed = self.profile_attributed_ns();
            let pct = if self.profile_run_ns > 0 {
                100.0 * attributed as f64 / self.profile_run_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "   profile: {:.2} ms dispatch loop, {pct:.1}% attributed\n",
                self.profile_run_ns as f64 / 1e6
            ));
            for p in &self.profile {
                out.push_str(&format!(
                    "   prof {:<48} {:>12} {:>10.2} ms\n",
                    format!("{} / {}", p.actor, p.event),
                    p.count,
                    p.ns as f64 / 1e6
                ));
            }
        }
        if !self.counters.is_empty() {
            let mut top: Vec<&CounterEntry> = self.counters.iter().collect();
            top.sort_by(|a, b| b.value.cmp(&a.value).then(a.name.cmp(&b.name)));
            for c in top.iter().take(12) {
                let labels = c.labels.render();
                let shown = if labels.is_empty() {
                    c.name.clone()
                } else {
                    format!("{}{{{labels}}}", c.name)
                };
                out.push_str(&format!("   ctr  {shown:<40} {:>12}\n", c.value));
            }
            if top.len() > 12 {
                out.push_str(&format!("   ctr  ... {} more\n", top.len() - 12));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{BundleKey, Stage};

    fn sample_report() -> RunReport {
        let mut counters = Counters::new();
        counters.incr("tips.updated", Labels::node(0).and_chain(1), 17);
        counters.incr("zone.stripe_sends", Labels::zone(2), 400);
        counters.incr("ban.hits", Labels::GLOBAL, 3);

        let mut lat = LogHistogram::new();
        for v in [1_000_000u64, 2_000_000, 2_500_000, 40_000_000] {
            lat.record(v);
        }

        let mut timelines = Timelines::default();
        for h in 0..5u64 {
            let key = BundleKey {
                producer: 1,
                chain: 1,
                height: h,
            };
            timelines.mark(key, Stage::Produced, h * 1_000_000);
            timelines.mark(key, Stage::Multicast, h * 1_000_000 + 50_000);
            timelines.mark(key, Stage::Committed, h * 1_000_000 + 900_000);
        }

        let mut report = RunReport::new("unit-sample")
            .with_meta("protocol", "p-pbft")
            .with_meta("seed", 7);
        report.set_metric("throughput_tps", 12_345.5);
        report.set_metric("p50_latency_ms", 2.5);
        report.add_counters(&counters);
        report.add_histogram("client_latency", &lat);
        report.add_timelines(&timelines);
        report
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("parse back");
        assert_eq!(back, report);
        // And a second generation is byte-identical (deterministic writer).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn accessors_find_cells_and_segments() {
        let report = sample_report();
        assert_eq!(
            report.counter("tips.updated", Labels::node(0).and_chain(1)),
            17
        );
        assert_eq!(report.counter_total("zone.stripe_sends"), 400);
        assert_eq!(report.counter("missing", Labels::GLOBAL), 0);
        assert_eq!(report.metric("throughput_tps"), Some(12_345.5));
        let seg = report.stage("produced->multicast").expect("segment");
        assert_eq!(seg.summary.count, 5);
        assert_eq!(seg.summary.min, 50_000);
        assert!(report.stage("cut->proposed").is_none());
        let h = report.histogram("client_latency").expect("hist");
        assert_eq!(h.summary.count, 4);
    }

    #[test]
    fn require_metric_returns_present_values() {
        let report = sample_report();
        assert_eq!(report.require_metric("throughput_tps"), 12_345.5);
    }

    #[test]
    #[should_panic(expected = "run report `unit-sample` has no metric `p99_latency_ms`")]
    fn require_metric_fails_loudly_on_absent_key() {
        sample_report().require_metric("p99_latency_ms");
    }

    #[test]
    fn write_to_dir_emits_parseable_file() {
        let dir =
            std::env::temp_dir().join(format!("predis-telemetry-test-{}", std::process::id()));
        let report = sample_report();
        let path = report.write_to_dir(&dir).expect("write");
        assert_eq!(path.file_name().unwrap(), "unit-sample.json");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(RunReport::from_json(&text).unwrap(), report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_mentions_key_rows() {
        let report = sample_report();
        let table = report.render();
        assert!(table.contains("unit-sample"));
        assert!(table.contains("throughput_tps"));
        assert!(table.contains("produced->multicast"));
        assert!(table.contains("zone.stripe_sends{zone=2}"));
    }

    #[test]
    fn empty_report_round_trips() {
        let report = RunReport::new("empty");
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn profile_block_round_trips_and_is_absent_when_empty() {
        let mut report = sample_report();
        assert!(!report.to_json().contains("\"profile\""));
        report.profile.push(ProfileEntry {
            actor: "ActorOf<PbftNode<PredisPlane>, ConsMsg>".into(),
            event: "deliver".into(),
            count: 1234,
            ns: 5_600_000,
        });
        report.profile.push(ProfileEntry {
            actor: "ActorOf<PbftNode<PredisPlane>, ConsMsg>".into(),
            event: "timer".into(),
            count: 99,
            ns: 70_000,
        });
        report.profile_run_ns = 6_000_000;
        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.profile_attributed_ns(), 5_670_000);
        assert!(report.render().contains("94.5% attributed"));
    }

    /// What the reader used to guess — a global counter, an empty map, a
    /// zero — is an error naming the member.
    #[test]
    fn ill_typed_members_are_located_errors() {
        let text = sample_report().to_json();
        let global = "\"labels\": \"\",";
        assert!(text.contains(global), "the sample has a global counter");
        // The report with its top-level member `key` set to `value`.
        let top = |key: &str, value: &str| {
            let Json::Obj(mut pairs) = Json::parse(&text).unwrap() else {
                unreachable!("a report is an object")
            };
            pairs.retain(|(k, _)| k != key);
            pairs.push((key.into(), Json::parse(value).unwrap()));
            Json::Obj(pairs).to_pretty_string()
        };
        for (broken, want) in [
            (text.replace(global, ""), "].labels`: missing"),
            (
                text.replace(global, "\"labels\": 0,"),
                "].labels`: not a string",
            ),
            (top("meta", "[]"), "`meta`: not an object"),
            (top("metrics", "\"1.5\""), "`metrics`: not an object"),
            (
                top("timeline_count", "\"5\""),
                "`timeline_count`: not a u64",
            ),
            (
                top("timeline_dropped", "-1"),
                "`timeline_dropped`: not a u64",
            ),
            (top("profile_run_ns", "1.5"), "`profile_run_ns`: not a u64"),
        ] {
            let err = RunReport::from_json(&broken).unwrap_err();
            assert!(err.ends_with(want), "{want}: {err}");
        }
    }

    #[test]
    fn add_timelines_surfaces_drop_metric() {
        let report = sample_report();
        assert_eq!(report.metric("timeline.spans_dropped"), Some(0.0));
        let mut tl = Timelines::with_cap(1);
        for h in 0..3u64 {
            tl.mark(
                BundleKey {
                    producer: 1,
                    chain: 1,
                    height: h,
                },
                Stage::Produced,
                h,
            );
        }
        let mut r = RunReport::new("dropped");
        r.add_timelines(&tl);
        assert_eq!(r.metric("timeline.spans_dropped"), Some(2.0));
        assert_eq!(r.timeline_dropped, 2);
    }
}
