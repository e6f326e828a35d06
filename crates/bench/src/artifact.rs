//! The identity artifact (`BENCH_<schema>.json`) and its one comparison.
//!
//! `bench_all` folds every sweep point's [`predis_telemetry::RunReport`]
//! into one [`BenchArtifact`]: a map from run name to the run's identity —
//! the paper's quantities, the event count and the trace fingerprint — plus
//! its memory footprint and how the engine executed it. Every field is a
//! pure function of the tree and the engine's thread count, so two passes
//! of one tree write byte-identical files; `compare_bench` answers "same
//! behaviour?" with [`BenchArtifact::compare`]. How fast the tree runs is
//! not recorded here: that is the repo benchmark's question (`benchmark/`).

use std::collections::BTreeMap;
use std::path::Path;

use predis_telemetry::{json::Shape, record, Json, RunReport};

use predis::experiments::World;

use crate::sweep::{SweepOutcome, SweepPoint};

/// Version of the artifact schema; part of the default file name, and the
/// only version [`BenchArtifact::from_json`] reads, so a stale baseline
/// fails loudly instead of comparing apples to oranges.
pub const BENCH_SCHEMA_VERSION: u64 = 17;

/// The default artifact file name, `BENCH_17.json`.
pub fn bench_file_name() -> String {
    format!("BENCH_{BENCH_SCHEMA_VERSION}.json")
}

/// How much `mem.bytes_per_node` may grow over the baseline before
/// [`BenchArtifact::compare`] reports it. The estimate sums container
/// capacities, which a behaviour-preserving refactor may move a little; a
/// jump of more than 20% means a container stopped being retired or a
/// per-node map came back.
pub const MEM_REGRESSION_PCT: f64 = 20.0;

/// Absolute per-node memory budget for mega-scale (fig9) runs, bytes.
/// `bench_all` fails a fig9 run whose `mem.bytes_per_node` exceeds it: at
/// 10^5 full nodes the whole fleet must fit in ~400 MB of actor state, so
/// each struct-of-arrays `MultiZoneNode` (plus its amortized share of the
/// zone roster) has to stay under 4 KiB.
pub const MEM_BYTES_PER_NODE_BUDGET: u64 = 4_096;

/// One benchmark run: its identity, its footprint, and how it executed.
/// Field names are the file's keys.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Sustained throughput, tx/s (0.0 for pure propagation runs).
    pub tps: f64,
    /// Median latency, ms. Client commit latency for consensus runs,
    /// 50%-coverage propagation time for Fig. 8 runs.
    pub p50_latency_ms: f64,
    /// Tail latency, ms (p99 commit latency / 100%-coverage time).
    pub p99_latency_ms: f64,
    /// Total bytes the simulated network carried.
    pub bytes: u64,
    /// Payload materializations (`msg.payload_clones`): deep constructions
    /// of shared payloads during the run. O(1) per produced
    /// bundle/proposal — fan-out adds zero (the zero-copy gate).
    pub payload_clones: u64,
    /// Simulation events the engine dispatched (`engine.events_processed`).
    pub events_processed: u64,
    /// The run's trace fingerprint (`trace.fingerprint` meta): a 128-bit
    /// streaming digest of the canonical event stream, rendered as 32 hex
    /// chars. Strictly stronger than metric equality — two runs can commit
    /// the same totals through different event interleavings, but they
    /// cannot share a fingerprint.
    pub fingerprint: String,
    /// The run's memory footprint.
    pub mem: MemEntry,
    /// How the engine executed the run.
    pub engine: EngineEntry,
}

/// A run's memory footprint (the `mem.*` meta).
#[derive(Debug, Clone, PartialEq)]
pub struct MemEntry {
    /// Peak Σ `Actor::approx_bytes` over all live actors
    /// (`mem.resident_bytes` meta): capacities, not live bytes.
    pub resident_bytes: u64,
    /// `mem.resident_bytes / node count` (`mem.bytes_per_node` meta) — the
    /// number the mega-scale (fig9) absolute budget and the
    /// [`MEM_REGRESSION_PCT`] bound read.
    pub bytes_per_node: u64,
}

/// How the engine executed a run, not what it computed:
/// [`BenchArtifact::compare`] ignores it, and CI's thread matrix reads it to
/// prove the parallel engine engaged.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineEntry {
    /// Worker threads the engine used for the run's last session
    /// (`engine.threads` meta; 1 = sequential).
    pub threads: u64,
    /// Events dispatched per partition in the last parallel session
    /// (`engine.partition_events` meta; empty when the run was sequential).
    pub partition_events: Vec<u64>,
    /// Lockstep window barriers the parallel engine crossed over the run
    /// (`engine.windows` meta; 0 when the run executed sequentially).
    pub windows: u64,
}

record!(BenchEntry {
    tps,
    p50_latency_ms,
    p99_latency_ms,
    bytes,
    payload_clones,
    events_processed,
    fingerprint,
    mem,
    engine
});
record!(MemEntry {
    resident_bytes,
    bytes_per_node
});
record!(EngineEntry {
    threads,
    partition_events,
    windows
});

/// A meta value every run report carries; its absence is a located panic,
/// like [`RunReport::require_metric`]'s.
fn require_meta<'a>(report: &'a RunReport, key: &str) -> &'a str {
    report
        .meta
        .get(key)
        .unwrap_or_else(|| panic!("run report `{}` has no meta `{key}`", report.name))
}

/// An optional numeric meta value (0 when the run did not record it).
fn meta_u64(report: &RunReport, key: &str) -> u64 {
    report
        .meta
        .get(key)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

impl BenchEntry {
    /// Extracts the entry of one finished sweep point from its report.
    ///
    /// Uses [`RunReport::require_metric`] for every number the runner kind
    /// is expected to have measured, and requires the two identity stamps
    /// (`engine.events_processed`, `trace.fingerprint`) of every run, so a
    /// run that silently failed to commit, or a report that lost its
    /// identity, aborts the artifact build with the run's name and what is
    /// missing rather than writing NaN, `0` or `""` into the baseline.
    pub fn from_report(point: &SweepPoint, report: &RunReport) -> BenchEntry {
        // Client latency from the histogram when present (ns -> ms), else 0.
        let client_latency = || {
            report
                .histogram("client_latency")
                .map(|h| (h.summary.p50 as f64 / 1e6, h.summary.p99 as f64 / 1e6))
                .unwrap_or((0.0, 0.0))
        };
        let (tps, p50_latency_ms, p99_latency_ms) = match &point.runner.world {
            // A scenario run carries its own checks; a dissemination-world
            // scenario legitimately commits no client transactions, so
            // nothing is required here — absent numbers record as 0.
            _ if point.is_scenario() => {
                let (p50, p99) = client_latency();
                (report.metric("throughput_tps").unwrap_or(0.0), p50, p99)
            }
            World::Consensus(_) => (
                report.require_metric("throughput_tps"),
                report.require_metric("p50_latency_ms"),
                report.require_metric("p99_latency_ms"),
            ),
            // Figs. 7/9 measure capacity, not client latency.
            World::Flow(_) | World::MegaScale(_) => {
                let (p50, p99) = client_latency();
                (report.require_metric("throughput_tps"), p50, p99)
            }
            World::Net(..) => (
                0.0,
                report.require_metric("to_50_ms"),
                report.require_metric("to_100_ms"),
            ),
        };
        BenchEntry {
            tps,
            p50_latency_ms,
            p99_latency_ms,
            bytes: report.counter_total("net.bytes"),
            payload_clones: report.metric("msg.payload_clones").unwrap_or(0.0) as u64,
            events_processed: report.require_metric("engine.events_processed") as u64,
            fingerprint: require_meta(report, "trace.fingerprint").to_string(),
            mem: MemEntry {
                resident_bytes: meta_u64(report, "mem.resident_bytes"),
                bytes_per_node: meta_u64(report, "mem.bytes_per_node"),
            },
            engine: EngineEntry {
                threads: meta_u64(report, "engine.threads").max(1),
                partition_events: report
                    .meta
                    .get("engine.partition_events")
                    .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
                    .unwrap_or_default(),
                windows: meta_u64(report, "engine.windows"),
            },
        }
    }
}

/// A full benchmark artifact: one entry per run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArtifact {
    /// Run name → entry, sorted by name.
    pub runs: BTreeMap<String, BenchEntry>,
}

/// The artifact file: the schema version, then the runs.
struct ArtifactFile {
    schema_version: u64,
    runs: BTreeMap<String, BenchEntry>,
}

record!(ArtifactFile {
    schema_version,
    runs
});

impl BenchArtifact {
    /// Builds an artifact from a finished sweep.
    ///
    /// # Panics
    ///
    /// Panics on duplicate run names or on a run missing a required metric
    /// or identity stamp (see [`BenchEntry::from_report`]).
    pub fn from_sweep(points: &[SweepPoint], outcomes: &[SweepOutcome]) -> BenchArtifact {
        assert_eq!(points.len(), outcomes.len(), "points/outcomes mismatch");
        let mut runs = BTreeMap::new();
        for (point, outcome) in points.iter().zip(outcomes) {
            let prev = runs.insert(
                point.name.clone(),
                BenchEntry::from_report(point, &outcome.report),
            );
            assert!(prev.is_none(), "duplicate run name `{}`", point.name);
        }
        BenchArtifact { runs }
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let file = ArtifactFile {
            schema_version: BENCH_SCHEMA_VERSION,
            runs: self.runs.clone(),
        };
        file.to_json().to_pretty_string()
    }

    /// Parses an artifact written by [`BenchArtifact::to_json`]. Every field
    /// is required — a missing or ill-typed one is an error naming the run
    /// and the field, never a default that [`BenchArtifact::compare`] would
    /// then find equal on both sides.
    pub fn from_json(text: &str) -> Result<BenchArtifact, String> {
        let v = Json::parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("artifact missing schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "artifact schema_version {version}, this build reads {BENCH_SCHEMA_VERSION}"
            ));
        }
        let ArtifactFile { runs, .. } = Shape::from_json(&v)?;
        for (name, run) in &runs {
            let fingerprint = &run.fingerprint;
            if fingerprint.len() != 32 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!(
                    "`runs.{name}.fingerprint`: {fingerprint:?} is not 32 hex chars"
                ));
            }
        }
        Ok(BenchArtifact { runs })
    }

    /// Writes the artifact to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads an artifact from `path`.
    pub fn read(path: impl AsRef<Path>) -> Result<BenchArtifact, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The one comparison: `self` is the baseline, `new` the candidate.
    ///
    /// Every run must exist on both sides with bit-identical
    /// `tps`/`p50`/`p99`/`bytes`/`payload_clones`/`events_processed`/
    /// `fingerprint`; `mem.bytes_per_node` may not exceed the baseline's by
    /// more than [`MEM_REGRESSION_PCT`]; the `engine` block is ignored.
    /// Returns one message per difference, naming the run, the field and
    /// both values, so a CI log is actionable without re-running.
    pub fn compare(&self, new: &BenchArtifact) -> Vec<String> {
        let mut out = Vec::new();
        for (name, a) in &self.runs {
            let Some(b) = new.runs.get(name) else {
                out.push(format!("{name}: only in the baseline"));
                continue;
            };
            let mut differs =
                |key: &str, av: &dyn std::fmt::Display, bv: &dyn std::fmt::Display| {
                    out.push(format!("{name}: {key} {av} vs {bv}"));
                };
            for (key, av, bv) in [
                ("tps", a.tps, b.tps),
                ("p50_latency_ms", a.p50_latency_ms, b.p50_latency_ms),
                ("p99_latency_ms", a.p99_latency_ms, b.p99_latency_ms),
            ] {
                if av.to_bits() != bv.to_bits() {
                    differs(key, &av, &bv);
                }
            }
            for (key, av, bv) in [
                ("bytes", a.bytes, b.bytes),
                ("payload_clones", a.payload_clones, b.payload_clones),
                ("events_processed", a.events_processed, b.events_processed),
            ] {
                if av != bv {
                    differs(key, &av, &bv);
                }
            }
            if a.fingerprint != b.fingerprint {
                out.push(format!(
                    "{name}: trace fingerprint {} vs {} — the two trees dispatched different \
                     event streams; re-run both with PREDIS_TRACE_DIR set and use `trace_diff` \
                     on the captures to find the first divergent event",
                    a.fingerprint, b.fingerprint
                ));
            }
            let limit = a.mem.bytes_per_node as f64 * (1.0 + MEM_REGRESSION_PCT / 100.0);
            if b.mem.bytes_per_node as f64 > limit {
                out.push(format!(
                    "{name}: per-node memory {} -> {} B, over the +{MEM_REGRESSION_PCT}% limit \
                     of {limit:.0} B",
                    a.mem.bytes_per_node, b.mem.bytes_per_node
                ));
            }
        }
        for name in new.runs.keys() {
            if !self.runs.contains_key(name) {
                out.push(format!("{name}: only in the new artifact"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tps: f64, p99: f64) -> BenchEntry {
        BenchEntry {
            tps,
            p50_latency_ms: p99 / 2.0,
            p99_latency_ms: p99,
            bytes: 1_000,
            payload_clones: 42,
            events_processed: 9_000,
            fingerprint: "00112233445566778899aabbccddeeff".to_string(),
            mem: MemEntry {
                resident_bytes: 1_000_000,
                bytes_per_node: 2_000,
            },
            engine: EngineEntry {
                threads: 2,
                partition_events: vec![4_500, 4_500],
                windows: 120,
            },
        }
    }

    fn artifact(entries: &[(&str, BenchEntry)]) -> BenchArtifact {
        BenchArtifact {
            runs: entries
                .iter()
                .map(|(n, e)| (n.to_string(), e.clone()))
                .collect(),
        }
    }

    /// `base` with `edit` applied to run `a`.
    fn edited(base: &BenchArtifact, edit: impl FnOnce(&mut BenchEntry)) -> BenchArtifact {
        let mut out = base.clone();
        edit(out.runs.get_mut("a").unwrap());
        out
    }

    #[test]
    fn json_round_trip_is_exact() {
        let a = artifact(&[
            ("fig4_pbft", entry(12_000.0, 80.0)),
            ("fig8_star_1mb", entry(0.0, 4_000.0)),
        ]);
        let text = a.to_json();
        let back = BenchArtifact::from_json(&text).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.to_json(), text);
    }

    /// An artifact that lost a field is an error naming the run and the
    /// field — not a default that the comparison then finds equal.
    #[test]
    fn a_missing_field_is_a_located_error() {
        let text = artifact(&[("fig4_pbft", entry(10_000.0, 100.0))]).to_json();
        for (cut, key) in [
            (
                "\"fingerprint\": \"00112233445566778899aabbccddeeff\",",
                "fingerprint",
            ),
            ("\"payload_clones\": 42,", "payload_clones"),
            ("\"events_processed\": 9000,", "events_processed"),
            ("\"resident_bytes\": 1000000,", "mem.resident_bytes"),
            (",\n        \"windows\": 120", "engine.windows"),
        ] {
            let broken = text.replace(cut, "");
            assert_ne!(broken, text, "fixture lacks {cut}");
            let err = BenchArtifact::from_json(&broken).unwrap_err();
            assert_eq!(err, format!("`runs.fig4_pbft.{key}`: missing"));
        }
    }

    #[test]
    fn an_empty_or_non_hex_fingerprint_is_rejected() {
        let text = artifact(&[("fig4_pbft", entry(10_000.0, 100.0))]).to_json();
        for bad in ["", "0011", "zz112233445566778899aabbccddeeff"] {
            let broken = text.replace("00112233445566778899aabbccddeeff", bad);
            let err = BenchArtifact::from_json(&broken).unwrap_err();
            assert!(
                err.starts_with("`runs.fig4_pbft.fingerprint`: ") && err.contains("32 hex"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn any_other_schema_version_is_rejected() {
        let text = artifact(&[]).to_json();
        for other in [10, BENCH_SCHEMA_VERSION + 1] {
            let stale = text.replace(
                &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
                &format!("\"schema_version\": {other}"),
            );
            let err = BenchArtifact::from_json(&stale).unwrap_err();
            assert!(err.contains(&format!("schema_version {other}")), "{err}");
        }
    }

    fn report_of(point: &SweepPoint) -> RunReport {
        let mut report = RunReport::new(&point.name);
        for key in ["throughput_tps", "p50_latency_ms", "p99_latency_ms"] {
            report.set_metric(key, 1.0);
        }
        report.set_metric("engine.events_processed", 9_000.0);
        report.set_meta("trace.fingerprint", "00112233445566778899aabbccddeeff");
        report
    }

    fn point() -> SweepPoint {
        SweepPoint::throughput("unit_identity", Default::default())
    }

    #[test]
    fn a_stamped_report_becomes_an_entry() {
        let point = point();
        let e = BenchEntry::from_report(&point, &report_of(&point));
        assert_eq!(e.events_processed, 9_000);
        assert_eq!(e.fingerprint, "00112233445566778899aabbccddeeff");
        assert_eq!((e.engine.threads, e.engine.windows), (1, 0));
    }

    #[test]
    #[should_panic(expected = "run report `unit_identity` has no meta `trace.fingerprint`")]
    fn a_report_without_a_fingerprint_cannot_become_an_entry() {
        let point = point();
        let mut report = report_of(&point);
        report.meta.remove("trace.fingerprint");
        BenchEntry::from_report(&point, &report);
    }

    #[test]
    #[should_panic(expected = "run report `unit_identity` has no metric `engine.events_processed`")]
    fn a_report_without_an_event_count_cannot_become_an_entry() {
        let point = point();
        let mut report = report_of(&point);
        report.metrics.remove("engine.events_processed");
        BenchEntry::from_report(&point, &report);
    }

    #[test]
    fn compare_ignores_how_the_run_executed() {
        // The determinism matrix compares runs across PREDIS_SIM_THREADS
        // values: the engine block records how a run executed, not what it
        // computed, so it must never read as a difference.
        let a = artifact(&[("a", entry(10_000.0, 100.0))]);
        let b = edited(&a, |e| {
            e.engine = EngineEntry {
                threads: 8,
                partition_events: vec![1, 2, 3],
                windows: 7,
            };
        });
        assert!(a.compare(&b).is_empty());
    }

    #[test]
    fn compare_names_each_differing_identity_field() {
        let a = artifact(&[("a", entry(10_000.0, 100.0))]);
        assert!(a.compare(&a).is_empty());
        let b = edited(&a, |e| {
            e.tps = 10_000.1;
            e.bytes = 2_000;
            e.events_processed += 1;
        });
        let msgs = a.compare(&b);
        assert_eq!(
            msgs,
            [
                "a: tps 10000 vs 10000.1",
                "a: bytes 1000 vs 2000",
                "a: events_processed 9000 vs 9001",
            ]
        );
    }

    #[test]
    fn compare_points_a_fingerprint_flip_at_trace_diff() {
        let a = artifact(&[("a", entry(10_000.0, 100.0))]);
        let b = edited(&a, |e| {
            e.fingerprint = "ffffffffffffffffffffffffffffffff".into()
        });
        let msgs = a.compare(&b);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("trace fingerprint"), "{msgs:?}");
        assert!(msgs[0].contains("trace_diff"), "{msgs:?}");
    }

    #[test]
    fn compare_bounds_per_node_memory_growth_only() {
        let a = artifact(&[("a", entry(10_000.0, 100.0))]);
        let with_mem = |bytes_per_node| edited(&a, |e| e.mem.bytes_per_node = bytes_per_node);
        // Exactly +20% and any shrink pass; one byte over the limit fails.
        assert!(a.compare(&with_mem(2_400)).is_empty());
        assert!(a.compare(&with_mem(10)).is_empty());
        let msgs = a.compare(&with_mem(2_401));
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].contains("per-node memory 2000 -> 2401 B") && msgs[0].contains("2400 B"),
            "{msgs:?}"
        );
        // The resident total is reported, not gated.
        assert!(a
            .compare(&edited(&a, |e| e.mem.resident_bytes *= 5))
            .is_empty());
    }

    #[test]
    fn compare_reports_runs_present_on_one_side_only() {
        let a = artifact(&[("a", entry(1.0, 1.0)), ("gone", entry(1.0, 1.0))]);
        let b = artifact(&[("a", entry(1.0, 1.0)), ("added", entry(1.0, 1.0))]);
        assert_eq!(
            a.compare(&b),
            [
                "gone: only in the baseline",
                "added: only in the new artifact"
            ]
        );
    }
}
