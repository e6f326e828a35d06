//! The merged benchmark artifact (`BENCH_<schema>.json`) and its diff.
//!
//! `bench_all` folds every sweep point's [`predis_telemetry::RunReport`]
//! into one
//! [`BenchArtifact`]: a map from run name to the handful of headline
//! numbers CI gates on. `compare_bench` reads two artifacts back and
//! reports regressions (or, in `--identical` mode, any non-wall-clock
//! difference — the determinism gate).
//!
//! Every field except `wall_ms` is a pure function of the run's setup, so
//! two artifacts produced from the same tree must match exactly modulo
//! `wall_ms`.

use std::collections::BTreeMap;
use std::path::Path;

use predis_telemetry::Json;

use predis::experiments::World;

use crate::sweep::{SweepOutcome, SweepPoint};

/// Version of the artifact schema; part of the default file name so stale
/// baselines fail loudly instead of comparing apples to oranges.
///
/// Version 9 adds no per-run fields; it marks the arrival of the scenario
/// plane (`scenario_*` runs), whose entries may legitimately measure no
/// client latency (p50/p99 = 0) — see [`BenchArtifact::diff`]'s
/// zero-baseline rules.
///
/// Version 10 adds `engine.windows`: the number of lockstep window barriers
/// the parallel engine crossed (0 when the run was sequential). Like the
/// rest of the `engine` block it records *how* the run executed, not what
/// it computed, so it is excluded from determinism comparisons — the
/// adaptive window policy legitimately crosses far fewer barriers than the
/// fixed-stride policy while dispatching the identical event stream.
pub const BENCH_SCHEMA_VERSION: u64 = 10;

/// Oldest schema version [`BenchArtifact::from_json`] still reads: the
/// current one and its predecessor. A version 9 artifact lacks
/// `engine.windows` (read as 0); every other field is required, and a
/// missing one is an error naming the run and the field — never a default,
/// which would let a truncated artifact slip through
/// [`BenchArtifact::identical_modulo_wall`].
pub const BENCH_SCHEMA_MIN_SUPPORTED: u64 = 9;

/// The default artifact file name, `BENCH_10.json`.
pub fn bench_file_name() -> String {
    format!("BENCH_{BENCH_SCHEMA_VERSION}.json")
}

/// How much `mem.bytes_per_node` may grow over the baseline before
/// [`BenchArtifact::diff`] flags a memory regression. Fixed (not the CLI
/// threshold): allocator capacity rounding gives the estimate a little
/// step-function noise, but a >20% jump means a container stopped being
/// retired or a per-node map came back.
pub const MEM_REGRESSION_PCT: f64 = 20.0;

/// Absolute per-node memory budget for mega-scale (fig9) runs, bytes.
/// `bench_all` fails a fig9 run whose `mem.bytes_per_node` exceeds it: at
/// 10^5 full nodes the whole fleet must fit in ~400 MB of actor state, so
/// each struct-of-arrays `MultiZoneNode` (plus its amortized share of the
/// zone roster) has to stay under 4 KiB.
pub const MEM_BYTES_PER_NODE_BUDGET: u64 = 4_096;

/// Headline numbers of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Sustained throughput, tx/s (0.0 for pure propagation runs).
    pub tps: f64,
    /// Median latency, ms. Client commit latency for consensus runs,
    /// 50%-coverage propagation time for Fig. 8 runs.
    pub p50_ms: f64,
    /// Tail latency, ms (p99 commit latency / 100%-coverage time).
    pub p99_ms: f64,
    /// Total bytes the simulated network carried.
    pub bytes: u64,
    /// Payload materializations (`msg.payload_clones`): deep constructions
    /// of shared payloads during the run. Deterministic, and O(1) per
    /// produced bundle/proposal — fan-out adds zero (the zero-copy gate).
    pub payload_clones: u64,
    /// Simulation events the engine dispatched (`engine.events_processed`).
    /// Deterministic: a pure function of the workload, so it participates
    /// in [`BenchArtifact::identical_modulo_wall`].
    pub events_processed: u64,
    /// The run's trace fingerprint (`trace.fingerprint` meta): a 128-bit
    /// streaming digest of the canonical event stream, rendered as 32 hex
    /// chars. Strictly stronger than metric equality — two runs can commit
    /// the same totals through different event interleavings, but they
    /// cannot share a fingerprint..
    pub fingerprint: String,
    /// Engine event throughput, events per wall-clock second. Derived from
    /// `events_processed / wall_ms`, so it is machine-dependent and excluded
    /// from determinism comparisons; CI's perf-smoke gate reads it.
    pub events_per_sec: f64,
    /// Worker threads the engine actually used for the run's last session
    /// (`engine.threads` meta; 1 = sequential). An execution-strategy knob,
    /// not a workload property, so it is excluded from
    /// [`BenchArtifact::identical_modulo_wall`] — the determinism gate
    /// compares runs *across* thread counts.
    pub threads: u64,
    /// Events dispatched per partition in the last parallel session
    /// (`engine.partition_events` meta; empty when the run was sequential).
    /// Load-balance diagnostics only — excluded from determinism
    /// comparisons for the same reason as `threads`.
    pub partition_events: Vec<u64>,
    /// Lockstep window barriers the parallel engine crossed over the run
    /// (`engine.windows` meta; 0 when the run executed sequentially or the
    /// artifact is schema 9). Execution-strategy telemetry like
    /// `threads` — the adaptive window policy's whole point is to shrink
    /// this number without changing the event stream — so it is excluded
    /// from [`BenchArtifact::identical_modulo_wall`].
    pub windows: u64,
    /// Peak Σ `Actor::approx_bytes` over all live actors
    /// (`mem.resident_bytes` meta). A footprint
    /// *estimate* — capacities, not live bytes — so it is excluded from
    /// [`BenchArtifact::identical_modulo_wall`] like the `engine` block,
    /// but it gates memory regressions in [`BenchArtifact::diff`].
    pub mem_resident_bytes: u64,
    /// `mem.resident_bytes / node count` (`mem.bytes_per_node` meta) — the
    /// number the mega-scale (fig9) absolute budget and the >20% memory
    /// regression gate read.
    pub mem_bytes_per_node: u64,
    /// Wall-clock milliseconds the run took (machine-dependent; excluded
    /// from determinism and regression comparisons).
    pub wall_ms: u64,
}

impl BenchEntry {
    /// Extracts the headline numbers from one finished sweep point.
    ///
    /// Uses [`predis_telemetry::RunReport::require_metric`] for every
    /// number the runner kind is expected to have measured, so a run that
    /// silently failed to commit (or to complete a block) aborts the
    /// artifact build with the run's name and its available metrics rather
    /// than writing NaN into the baseline.
    pub fn from_outcome(point: &SweepPoint, outcome: &SweepOutcome) -> BenchEntry {
        let report = &outcome.report;
        let bytes = report.counter_total("net.bytes");
        // Client latency from the histogram when present (ns -> ms), else 0.
        let client_latency = || {
            report
                .histogram("client_latency")
                .map(|h| (h.summary.p50 as f64 / 1e6, h.summary.p99 as f64 / 1e6))
                .unwrap_or((0.0, 0.0))
        };
        let (tps, p50_ms, p99_ms) = match &point.runner.world {
            // Scenario runs assert their own liveness/safety checks
            // in-runner; a dissemination-world scenario legitimately
            // commits no client transactions, so nothing is required
            // here — absent numbers record as 0.
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
        let events_processed = report.metric("engine.events_processed").unwrap_or(0.0) as u64;
        let events_per_sec = if outcome.wall_ms > 0 {
            events_processed as f64 * 1000.0 / outcome.wall_ms as f64
        } else {
            0.0
        };
        BenchEntry {
            tps,
            p50_ms,
            p99_ms,
            bytes,
            payload_clones: report.metric("msg.payload_clones").unwrap_or(0.0) as u64,
            events_processed,
            fingerprint: report
                .meta
                .get("trace.fingerprint")
                .cloned()
                .unwrap_or_default(),
            events_per_sec,
            threads: report
                .meta
                .get("engine.threads")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1),
            partition_events: report
                .meta
                .get("engine.partition_events")
                .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
                .unwrap_or_default(),
            windows: report
                .meta
                .get("engine.windows")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            mem_resident_bytes: report
                .meta
                .get("mem.resident_bytes")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            mem_bytes_per_node: report
                .meta
                .get("mem.bytes_per_node")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            wall_ms: outcome.wall_ms,
        }
    }
}

/// A full benchmark artifact: schema version plus one entry per run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArtifact {
    /// Run name → headline numbers, sorted by name.
    pub runs: BTreeMap<String, BenchEntry>,
}

/// One difference found by [`BenchArtifact::diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Human-readable description of the difference.
    pub message: String,
    /// Whether the difference counts as a regression (gates CI).
    pub regression: bool,
}

impl BenchArtifact {
    /// Builds an artifact from a finished sweep.
    ///
    /// # Panics
    ///
    /// Panics on duplicate run names or on a run missing a required metric
    /// (see [`BenchEntry::from_outcome`]).
    pub fn from_sweep(points: &[SweepPoint], outcomes: &[SweepOutcome]) -> BenchArtifact {
        assert_eq!(points.len(), outcomes.len(), "points/outcomes mismatch");
        let mut runs = BTreeMap::new();
        for (point, outcome) in points.iter().zip(outcomes) {
            let prev = runs.insert(point.name.clone(), BenchEntry::from_outcome(point, outcome));
            assert!(prev.is_none(), "duplicate run name `{}`", point.name);
        }
        BenchArtifact { runs }
    }

    /// Serializes to deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let runs: Vec<(String, Json)> = self
            .runs
            .iter()
            .map(|(name, e)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("tps".into(), Json::F64(e.tps)),
                        ("p50_latency_ms".into(), Json::F64(e.p50_ms)),
                        ("p99_latency_ms".into(), Json::F64(e.p99_ms)),
                        ("bytes".into(), Json::U64(e.bytes)),
                        ("payload_clones".into(), Json::U64(e.payload_clones)),
                        ("fingerprint".into(), Json::Str(e.fingerprint.clone())),
                        (
                            "perf".into(),
                            Json::Obj(vec![
                                ("events_processed".into(), Json::U64(e.events_processed)),
                                ("events_per_sec".into(), Json::F64(e.events_per_sec)),
                            ]),
                        ),
                        (
                            "engine".into(),
                            Json::Obj(vec![
                                ("threads".into(), Json::U64(e.threads)),
                                (
                                    "partition_events".into(),
                                    Json::Arr(
                                        e.partition_events.iter().map(|&n| Json::U64(n)).collect(),
                                    ),
                                ),
                                ("windows".into(), Json::U64(e.windows)),
                            ]),
                        ),
                        (
                            "mem".into(),
                            Json::Obj(vec![
                                ("resident_bytes".into(), Json::U64(e.mem_resident_bytes)),
                                ("bytes_per_node".into(), Json::U64(e.mem_bytes_per_node)),
                            ]),
                        ),
                        ("wall_ms".into(), Json::U64(e.wall_ms)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::U64(BENCH_SCHEMA_VERSION)),
            ("runs".into(), Json::Obj(runs)),
        ])
        .to_pretty_string()
    }

    /// Parses an artifact written by [`BenchArtifact::to_json`].
    pub fn from_json(text: &str) -> Result<BenchArtifact, String> {
        let v = Json::parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("artifact missing schema_version")?;
        if !(BENCH_SCHEMA_MIN_SUPPORTED..=BENCH_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "artifact schema_version {version} outside supported \
                 {BENCH_SCHEMA_MIN_SUPPORTED}..={BENCH_SCHEMA_VERSION}"
            ));
        }
        let mut artifact = BenchArtifact::default();
        let Some(Json::Obj(pairs)) = v.get("runs") else {
            return Err("artifact missing runs object".into());
        };
        for (name, run) in pairs {
            // `key` is a field of the run, or `block.field` one level down.
            let field = |key: &str| {
                let found = match key.split_once('.') {
                    Some((block, k)) => run.get(block).and_then(|b| b.get(k)),
                    None => run.get(key),
                };
                found.ok_or_else(|| format!("run `{name}` missing `{key}`"))
            };
            let malformed = |key: &str| format!("run `{name}`: `{key}` has the wrong type");
            let num = |key: &str| field(key)?.as_f64().ok_or_else(|| malformed(key));
            let int = |key: &str| field(key)?.as_u64().ok_or_else(|| malformed(key));
            artifact.runs.insert(
                name.clone(),
                BenchEntry {
                    tps: num("tps")?,
                    p50_ms: num("p50_latency_ms")?,
                    p99_ms: num("p99_latency_ms")?,
                    bytes: int("bytes")?,
                    payload_clones: int("payload_clones")?,
                    fingerprint: field("fingerprint")?
                        .as_str()
                        .ok_or_else(|| malformed("fingerprint"))?
                        .to_string(),
                    events_processed: int("perf.events_processed")?,
                    events_per_sec: num("perf.events_per_sec")?,
                    threads: int("engine.threads")?,
                    partition_events: field("engine.partition_events")?
                        .as_arr()
                        .ok_or_else(|| malformed("engine.partition_events"))?
                        .iter()
                        .map(|n| {
                            n.as_u64()
                                .ok_or_else(|| malformed("engine.partition_events"))
                        })
                        .collect::<Result<_, _>>()?,
                    windows: if version >= 10 {
                        int("engine.windows")?
                    } else {
                        0
                    },
                    mem_resident_bytes: int("mem.resident_bytes")?,
                    mem_bytes_per_node: int("mem.bytes_per_node")?,
                    wall_ms: int("wall_ms")?,
                },
            );
        }
        Ok(artifact)
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

    /// Compares `self` (baseline) against `new`, flagging regressions
    /// beyond `threshold_pct` percent.
    ///
    /// A regression is: a run that disappeared, throughput that dropped by
    /// more than the threshold, p99 latency that grew by more than the
    /// threshold (when the baseline measured a nonzero p99), a metric the
    /// baseline measured that the new run no longer does (nonzero → 0), or
    /// per-node memory (`mem.bytes_per_node`) that grew by more than
    /// [`MEM_REGRESSION_PCT`] when both artifacts recorded it. Added runs
    /// and sub-threshold drift are reported as informational lines.
    ///
    /// Zero baselines never produce a percentage: a metric that appears
    /// (0 → nonzero) is reported as an informational "new metric" line and
    /// a metric that vanishes (nonzero → 0) as a "no longer measured"
    /// regression, so no `inf`/`NaN` relative delta ever reaches a CI log.
    pub fn diff(&self, new: &BenchArtifact, threshold_pct: f64) -> Vec<DiffLine> {
        let mut lines = Vec::new();
        let pct = |old: f64, new: f64| {
            if old == 0.0 {
                0.0
            } else {
                (new - old) / old * 100.0
            }
        };
        for (name, old) in &self.runs {
            let Some(cur) = new.runs.get(name) else {
                lines.push(DiffLine {
                    message: format!("{name}: missing from new artifact"),
                    regression: true,
                });
                continue;
            };
            let tps_delta = pct(old.tps, cur.tps);
            let p99_delta = pct(old.p99_ms, cur.p99_ms);
            if old.tps == 0.0 && cur.tps > 0.0 {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: throughput new metric 0 -> {:.0} tx/s (baseline 0, not gated)",
                        cur.tps
                    ),
                    regression: false,
                });
            } else if old.tps > 0.0 && cur.tps == 0.0 {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: throughput {:.0} tx/s no longer measured (now 0)",
                        old.tps
                    ),
                    regression: true,
                });
            } else if tps_delta < -threshold_pct {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: throughput {:.0} -> {:.0} tx/s ({tps_delta:+.1}%)",
                        old.tps, cur.tps
                    ),
                    regression: true,
                });
            }
            if old.p99_ms == 0.0 && cur.p99_ms > 0.0 {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: p99 latency new metric 0 -> {:.1} ms (baseline 0, not gated)",
                        cur.p99_ms
                    ),
                    regression: false,
                });
            } else if old.p99_ms > 0.0 && cur.p99_ms == 0.0 {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: p99 latency {:.1} ms no longer measured (now 0)",
                        old.p99_ms
                    ),
                    regression: true,
                });
            } else if old.p99_ms > 0.0 && p99_delta > threshold_pct {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: p99 latency {:.1} -> {:.1} ms ({p99_delta:+.1}%)",
                        old.p99_ms, cur.p99_ms
                    ),
                    regression: true,
                });
            }
            if (old.mem_bytes_per_node > 0) != (cur.mem_bytes_per_node > 0) {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: per-node memory measured on one side only ({} -> {} B, not gated)",
                        old.mem_bytes_per_node, cur.mem_bytes_per_node
                    ),
                    regression: false,
                });
            }
            if old.mem_bytes_per_node > 0 && cur.mem_bytes_per_node > 0 {
                let mem_delta = pct(old.mem_bytes_per_node as f64, cur.mem_bytes_per_node as f64);
                if mem_delta > MEM_REGRESSION_PCT {
                    lines.push(DiffLine {
                        message: format!(
                            "{name}: per-node memory {} -> {} B ({mem_delta:+.1}%, limit \
                             +{MEM_REGRESSION_PCT}%)",
                            old.mem_bytes_per_node, cur.mem_bytes_per_node
                        ),
                        regression: true,
                    });
                }
            }
            if tps_delta.abs() > f64::EPSILON && tps_delta >= -threshold_pct {
                lines.push(DiffLine {
                    message: format!(
                        "{name}: throughput drift {tps_delta:+.1}% (within {threshold_pct}%)"
                    ),
                    regression: false,
                });
            }
        }
        for name in new.runs.keys() {
            if !self.runs.contains_key(name) {
                lines.push(DiffLine {
                    message: format!("{name}: new run (not in baseline)"),
                    regression: false,
                });
            }
        }
        lines
    }

    /// Strict determinism check: every run must exist in both artifacts
    /// with bit-identical `tps`/`p50`/`p99`/`bytes`/`payload_clones`/
    /// `events_processed`/`fingerprint`; only `wall_ms` (and the
    /// wall-derived `events_per_sec`) may differ. Returns one message per
    /// mismatching *field*, naming the run, the field, both values, and the
    /// relative delta — so a CI log is actionable without re-running.
    pub fn identical_modulo_wall(&self, other: &BenchArtifact) -> Vec<String> {
        let mut mismatches = Vec::new();
        let rel = |a: f64, b: f64| {
            if a == 0.0 {
                if b == 0.0 {
                    "±0%".to_string()
                } else {
                    "baseline 0".to_string()
                }
            } else {
                format!("{:+.4}%", (b - a) / a * 100.0)
            }
        };
        for (name, a) in &self.runs {
            match other.runs.get(name) {
                None => mismatches.push(format!("{name}: only in first artifact")),
                Some(b) => {
                    let floats = [
                        ("tps", a.tps, b.tps),
                        ("p50_latency_ms", a.p50_ms, b.p50_ms),
                        ("p99_latency_ms", a.p99_ms, b.p99_ms),
                    ];
                    for (key, av, bv) in floats {
                        if av != bv {
                            mismatches
                                .push(format!("{name}: {key} {av} vs {bv} ({})", rel(av, bv)));
                        }
                    }
                    let ints = [
                        ("bytes", a.bytes, b.bytes),
                        ("payload_clones", a.payload_clones, b.payload_clones),
                        ("events_processed", a.events_processed, b.events_processed),
                    ];
                    for (key, av, bv) in ints {
                        if av != bv {
                            mismatches.push(format!(
                                "{name}: {key} {av} vs {bv} ({})",
                                rel(av as f64, bv as f64)
                            ));
                        }
                    }
                    if a.fingerprint != b.fingerprint {
                        mismatches.push(format!(
                            "{name}: trace fingerprint {} vs {} — the engines dispatched \
                             different event streams; re-run both with PREDIS_TRACE_DIR set \
                             and use `trace_diff` on the captures to find the first divergent \
                             event",
                            a.fingerprint, b.fingerprint
                        ));
                    }
                }
            }
        }
        for name in other.runs.keys() {
            if !self.runs.contains_key(name) {
                mismatches.push(format!("{name}: only in second artifact"));
            }
        }
        mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tps: f64, p99: f64, wall: u64) -> BenchEntry {
        BenchEntry {
            tps,
            p50_ms: p99 / 2.0,
            p99_ms: p99,
            bytes: 1_000,
            payload_clones: 42,
            events_processed: 9_000,
            events_per_sec: 1_234.5,
            fingerprint: "00112233445566778899aabbccddeeff".to_string(),
            threads: 2,
            partition_events: vec![4_500, 4_500],
            windows: 120,
            mem_resident_bytes: 1_000_000,
            mem_bytes_per_node: 2_048,
            wall_ms: wall,
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

    #[test]
    fn json_round_trip_is_exact() {
        let a = artifact(&[
            ("fig4_pbft", entry(12_000.0, 80.0, 900)),
            ("fig8_star_1mb", entry(0.0, 4_000.0, 150)),
        ]);
        let text = a.to_json();
        let back = BenchArtifact::from_json(&text).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn previous_schema_reads_without_the_barrier_count() {
        let a = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        let text = a
            .to_json()
            .replace(
                &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
                "\"schema_version\": 9",
            )
            .replace(",\n        \"windows\": 120", "");
        assert!(!text.contains("windows"), "{text}");
        let back = BenchArtifact::from_json(&text).unwrap();
        assert_eq!(back.runs["a"].windows, 0);
        assert_eq!(back.runs["a"].threads, 2);
    }

    /// A current-schema artifact that lost a field is an error naming the
    /// run and the field — not a default that the determinism gate then
    /// skips over.
    #[test]
    fn a_missing_field_is_a_located_error() {
        let text = artifact(&[("fig4_pbft", entry(10_000.0, 100.0, 1))]).to_json();
        for (cut, key) in [
            (
                "\"fingerprint\": \"00112233445566778899aabbccddeeff\",",
                "fingerprint",
            ),
            ("\"payload_clones\": 42,", "payload_clones"),
            ("\"events_processed\": 9000,", "perf.events_processed"),
            ("\"resident_bytes\": 1000000,", "mem.resident_bytes"),
            (",\n        \"windows\": 120", "engine.windows"),
        ] {
            let broken = text.replace(cut, "");
            assert_ne!(broken, text, "fixture lacks {cut}");
            let err = BenchArtifact::from_json(&broken).unwrap_err();
            assert!(
                err.contains("run `fig4_pbft`") && err.contains(&format!("`{key}`")),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn identical_modulo_wall_ignores_mem_footprint() {
        // The mem block is a capacity estimate, not a workload property:
        // like `engine`, it must never read as a determinism break.
        let a = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        let mut b = artifact(&[("a", entry(10_000.0, 100.0, 9))]);
        b.runs.get_mut("a").unwrap().mem_resident_bytes = 9_999_999;
        b.runs.get_mut("a").unwrap().mem_bytes_per_node = 9_999;
        assert!(a.identical_modulo_wall(&b).is_empty());
    }

    #[test]
    fn diff_flags_per_node_memory_regressions() {
        let base = artifact(&[("fig9_z10_fulls500", entry(10_000.0, 100.0, 1))]);
        // +25% per-node memory: over the fixed 20% bound.
        let mut grown = base.clone();
        grown
            .runs
            .get_mut("fig9_z10_fulls500")
            .unwrap()
            .mem_bytes_per_node = 2_560;
        let lines = base.diff(&grown, 10.0);
        assert!(
            lines
                .iter()
                .any(|l| l.regression && l.message.contains("per-node memory")),
            "{lines:?}"
        );
        // +10% stays informationally silent; a baseline without mem data
        // never trips the gate.
        let mut mild = base.clone();
        mild.runs
            .get_mut("fig9_z10_fulls500")
            .unwrap()
            .mem_bytes_per_node = 2_252;
        assert!(base.diff(&mild, 10.0).iter().all(|l| !l.regression));
        let mut old = base.clone();
        old.runs
            .get_mut("fig9_z10_fulls500")
            .unwrap()
            .mem_bytes_per_node = 0;
        assert!(old.diff(&grown, 10.0).iter().all(|l| !l.regression));
    }

    #[test]
    fn identical_modulo_wall_ignores_thread_count() {
        // The determinism matrix compares runs across PREDIS_SIM_THREADS
        // values: the engine block records how a run executed, not what it
        // computed, so it must never read as a determinism break.
        let a = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        let mut b = artifact(&[("a", entry(10_000.0, 100.0, 77))]);
        b.runs.get_mut("a").unwrap().threads = 8;
        b.runs.get_mut("a").unwrap().partition_events = vec![1, 2, 3];
        // The barrier count depends on thread count and window policy, not
        // on the workload — never a determinism break either.
        b.runs.get_mut("a").unwrap().windows = 7;
        assert!(a.identical_modulo_wall(&b).is_empty());
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let text = artifact(&[]).to_json().replace(
            &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
            "\"schema_version\": 1",
        );
        assert!(BenchArtifact::from_json(&text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn diff_flags_throughput_and_latency_regressions() {
        let base = artifact(&[
            ("a", entry(10_000.0, 100.0, 1)),
            ("b", entry(10_000.0, 100.0, 1)),
            ("gone", entry(1.0, 1.0, 1)),
        ]);
        let new = artifact(&[
            ("a", entry(8_000.0, 100.0, 999)), // -20% tps: regression
            ("b", entry(10_000.0, 130.0, 1)),  // +30% p99: regression
            ("added", entry(1.0, 1.0, 1)),
        ]);
        let lines = base.diff(&new, 10.0);
        let regressions: Vec<&str> = lines
            .iter()
            .filter(|l| l.regression)
            .map(|l| l.message.as_str())
            .collect();
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        assert!(regressions.iter().any(|m| m.starts_with("a: throughput")));
        assert!(regressions.iter().any(|m| m.starts_with("b: p99")));
        assert!(regressions.iter().any(|m| m.starts_with("gone: missing")));
        // The added run is informational only.
        assert!(lines
            .iter()
            .any(|l| !l.regression && l.message.starts_with("added")));
    }

    #[test]
    fn diff_zero_baselines_report_new_and_removed_metrics_without_nan() {
        // A scenario entry may legitimately measure no throughput/latency:
        // a 0 on either side must never become an inf/NaN percentage.
        let mut zeroed = entry(0.0, 0.0, 1);
        zeroed.mem_bytes_per_node = 0;
        let base = artifact(&[("scenario_x", zeroed)]);
        let new = artifact(&[("scenario_x", entry(5_000.0, 80.0, 1))]);
        let lines = base.diff(&new, 10.0);
        // Metrics appearing from a zero baseline are informational.
        assert!(lines.iter().all(|l| !l.regression), "{lines:?}");
        assert!(
            lines
                .iter()
                .any(|l| l.message.contains("throughput new metric")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.message.contains("p99 latency new metric")),
            "{lines:?}"
        );
        // Metrics vanishing to zero are regressions with explicit wording.
        let back = new.diff(&base, 10.0);
        assert!(
            back.iter().any(|l| l.regression
                && l.message.contains("throughput")
                && l.message.contains("no longer measured")),
            "{back:?}"
        );
        assert!(
            back.iter().any(|l| l.regression
                && l.message.contains("p99")
                && l.message.contains("no longer measured")),
            "{back:?}"
        );
        for l in lines.iter().chain(&back) {
            assert!(
                !l.message.contains("inf") && !l.message.contains("NaN"),
                "{}",
                l.message
            );
        }
    }

    #[test]
    fn drift_within_threshold_is_informational() {
        let base = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        let new = artifact(&[("a", entry(9_500.0, 100.0, 1))]); // -5%
        let lines = base.diff(&new, 10.0);
        assert!(lines.iter().all(|l| !l.regression), "{lines:?}");
        assert!(lines.iter().any(|l| l.message.contains("drift")));
    }

    #[test]
    fn identical_modulo_wall_ignores_wall_only_differences() {
        let a = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        let mut b = artifact(&[("a", entry(10_000.0, 100.0, 12_345))]);
        // events_per_sec is wall-derived, so it may differ too.
        b.runs.get_mut("a").unwrap().events_per_sec = 9.9;
        assert!(a.identical_modulo_wall(&b).is_empty());
        let c = artifact(&[("a", entry(10_000.1, 100.0, 1))]);
        assert_eq!(a.identical_modulo_wall(&c).len(), 1);
        // events_processed is deterministic and must match exactly.
        let mut d = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        d.runs.get_mut("a").unwrap().events_processed += 1;
        assert_eq!(a.identical_modulo_wall(&d).len(), 1);
    }

    #[test]
    fn identical_modulo_wall_names_each_differing_field() {
        let a = artifact(&[("fig4_pbft", entry(10_000.0, 100.0, 1))]);
        let mut b = artifact(&[("fig4_pbft", entry(9_000.0, 100.0, 1))]);
        b.runs.get_mut("fig4_pbft").unwrap().bytes = 2_000;
        let msgs = a.identical_modulo_wall(&b);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        // Each message names the run, the field, both values, and the delta.
        assert!(
            msgs.iter()
                .any(|m| m.contains("fig4_pbft: tps 10000 vs 9000") && m.contains("-10.0000%")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("fig4_pbft: bytes 1000 vs 2000") && m.contains("+100.0000%")),
            "{msgs:?}"
        );
    }

    #[test]
    fn identical_modulo_wall_compares_fingerprints() {
        let a = artifact(&[("a", entry(10_000.0, 100.0, 1))]);
        let mut b = artifact(&[("a", entry(10_000.0, 100.0, 9))]);
        b.runs.get_mut("a").unwrap().fingerprint = "ffffffffffffffffffffffffffffffff".into();
        let msgs = a.identical_modulo_wall(&b);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("trace fingerprint"), "{msgs:?}");
        assert!(msgs[0].contains("trace_diff"), "{msgs:?}");
    }
}
