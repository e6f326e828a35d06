//! The metric table: every name the benchmark prints, with its unit and
//! direction, in the order of `BENCHMARK.json`, and the result line.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which carry no bound.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

/// What a user of the simulator sees: how fast and how large it runs (host),
/// and what it says about the protocol (simulated). Bounds are three times
/// the widest quartile spread measured over ten seeds, rounded up (README).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", 0.25),
    higher("sim_rate", "sim_s/s", 0.25),
    lower("peak_rss_mb", "MiB", 0.07),
    lower("allocs_per_sim_s", "count/sim_s", 0.04),
    higher("sim_tps", "tx/s", 0.04),
    lower("sim_p50_ms", "ms", 0.03),
    lower("sim_p99_ms", "ms", 0.1),
    lower("upload_bytes_per_tx", "B/tx", 0.06),
    higher("commit_share", "share", 0.02),
];

/// One row per thing a layer does or costs. `host.` is the one prefix that
/// is not a module of the repository.
pub const PER_LAYER: &[MetricDef] = &[
    lower("sim.events", "count", 0.0),
    lower("sim.deliveries", "count", 0.0),
    lower("sim.timers", "count", 0.0),
    lower("sim.messages", "count", 0.0),
    lower("sim.ns_per_event", "ns", 0.0),
    lower("sim.queue_ns_per_op", "ns", 0.0),
    lower("sim.net_schedule_ns", "ns", 0.0),
    lower("sim.multicast_ns_per_msg", "ns", 0.0),
    lower("sim.est_s", "s", 0.0),
    higher("sim.mt2_speedup", "ratio", 0.0),
    lower("sim.mt2_windows", "count", 0.0),
    higher("sim.mt2_events_per_window", "count", 0.0),
    lower("sim.mt2_partition_imbalance", "ratio", 0.0),
    lower("consensus.actor_s", "s", 0.0),
    lower("consensus.actor_share", "share", 0.0),
    lower("consensus.ns_per_delivery", "ns", 0.0),
    lower("consensus.ns_per_timer", "ns", 0.0),
    lower("consensus.ns_per_event", "ns", 0.0),
    lower("consensus.client_actor_s", "s", 0.0),
    lower("consensus.proposals", "count", 0.0),
    higher("consensus.txs_per_proposal", "count", 0.0),
    lower("consensus.stage_commit_p50_ms", "ms", 0.0),
    lower("consensus.msgs_per_block", "count", 0.0),
    lower("consensus.bytes_per_tx", "B/tx", 0.0),
    lower("consensus.view_changes", "count", 0.0),
    higher("consensus.latency_samples", "count", 0.0),
    higher("mempool.bundles_accepted", "count", 0.0),
    lower("mempool.tip_updates", "count", 0.0),
    lower("mempool.cuts", "count", 0.0),
    lower("mempool.insert_ns", "ns", 0.0),
    lower("mempool.cut_ns", "ns", 0.0),
    lower("mempool.build_block_ns", "ns", 0.0),
    lower("mempool.validate_block_ns", "ns", 0.0),
    lower("mempool.produce_ns", "ns", 0.0),
    lower("mempool.est_s", "s", 0.0),
    lower("mempool.stage_tip_acked_p50_ms", "ms", 0.0),
    lower("mempool.stage_cut_p50_ms", "ms", 0.0),
    lower("types.bundle_build_ns", "ns", 0.0),
    lower("types.bundle_verify_ns", "ns", 0.0),
    lower("types.tiplist_merge_ns", "ns", 0.0),
    lower("types.block_digest_ns", "ns", 0.0),
    lower("types.est_s", "s", 0.0),
    lower("types.payload_clones", "count", 0.0),
    lower("types.bytes_cloned", "B", 0.0),
    lower("types.wire_size_computed", "count", 0.0),
    higher("crypto.sha256_mb_per_s", "MB/s", 0.0),
    lower("crypto.merkle_root_ns", "ns", 0.0),
    lower("crypto.merkle_verify_ns", "ns", 0.0),
    lower("crypto.sign_ns", "ns", 0.0),
    lower("crypto.verify_ns", "ns", 0.0),
    lower("erasure.encodes", "count", 0.0),
    lower("erasure.decodes", "count", 0.0),
    higher("erasure.encode_mb_per_s", "MB/s", 0.0),
    higher("erasure.decode_mb_per_s", "MB/s", 0.0),
    higher("erasure.decode_fast_mb_per_s", "MB/s", 0.0),
    lower("multizone.actor_s", "s", 0.0),
    lower("multizone.actor_share", "share", 0.0),
    lower("multizone.ns_per_delivery", "ns", 0.0),
    lower("multizone.stripe_sends", "count", 0.0),
    lower("multizone.heartbeats", "count", 0.0),
    lower("multizone.promotions", "count", 0.0),
    lower("multizone.redundancy_shed", "count", 0.0),
    lower("multizone.bytes_per_node", "B", 0.0),
    higher("multizone.delivery_share", "share", 0.0),
    lower("multizone.stripes_rejected", "count", 0.0),
    lower("telemetry.counter_incr_ns", "ns", 0.0),
    lower("telemetry.counter_incr_named_ns", "ns", 0.0),
    lower("telemetry.hist_record_ns", "ns", 0.0),
    lower("telemetry.timeline_mark_ns", "ns", 0.0),
    lower("telemetry.counter_cells", "count", 0.0),
    lower("telemetry.timeline_count", "count", 0.0),
    lower("telemetry.timeline_dropped", "count", 0.0),
    lower("telemetry.report_json_ms", "ms", 0.0),
    lower("parallel.pool_map_us_per_task", "us", 0.0),
    lower("core.setup_us_per_node", "us", 0.0),
    lower("core.report_s", "s", 0.0),
    lower("host.compute_ms", "ms", 0.0),
    lower("host.memchase_ms", "ms", 0.0),
    lower("host.rep_excess_pct", "%", 0.0),
    lower("host.trace_overhead_pct", "%", 0.0),
    lower("host.unattributed_s", "s", 0.0),
    lower("host.wall_s", "s", 0.0),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, listing every metric of `defs`
    /// once, in table order. Rust prints an `f64` with the fewest digits
    /// that read back to the same value, so no digit is lost.
    ///
    /// # Errors
    ///
    /// Names a metric of `defs` that has no finite value.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let value = self
                .values
                .get(def.name)
                .copied()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric `{}` has no finite value", def.name))?;
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            ));
        }
        line.push_str("}}");
        Ok(line)
    }

    /// A table for people, on standard error.
    pub fn print_table(&self, title: &str, defs: &[MetricDef]) {
        eprintln!("{title}");
        for def in defs {
            let value = self.values.get(def.name).copied().unwrap_or(f64::NAN);
            eprintln!(
                "  {:<36} {:>18.6} {:<12} ({} is better)",
                def.name,
                value,
                def.unit,
                def.better.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use predis_telemetry::Json;

    fn filled(defs: &[MetricDef]) -> Outcome {
        Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            values: defs
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, i as f64 + 0.125))
                .collect(),
        }
    }

    #[test]
    fn result_line_lists_every_metric_once_with_its_unit() {
        for defs in [END_TO_END, PER_LAYER] {
            let line = filled(defs).result_line(defs).unwrap();
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).unwrap();
            let Json::Obj(top) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics object")
            };
            assert_eq!(metrics.len(), defs.len());
            for (def, (name, body)) in defs.iter().zip(metrics) {
                assert_eq!(name, def.name);
                assert_eq!(body.get("unit").unwrap().as_str(), Some(def.unit));
                assert!(body.get("value").unwrap().as_f64().is_some());
            }
        }
    }

    #[test]
    fn result_line_refuses_a_missing_or_non_finite_metric() {
        let mut outcome = filled(END_TO_END);
        outcome.values.insert("sim_rate", f64::NAN);
        let err = outcome.result_line(END_TO_END).unwrap_err();
        assert!(err.contains("sim_rate"), "{err}");
        outcome.values.remove("setup_s");
        assert!(outcome
            .result_line(END_TO_END)
            .unwrap_err()
            .contains("setup_s"));
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables above
    /// are what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.spec().name).collect();
        assert_eq!(names, ours);

        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better.name()),
                    "{}",
                    def.name
                );
                match entry.get("bound") {
                    Some(b) if bounded => assert_eq!(b.as_f64(), Some(def.bound), "{}", def.name),
                    None if !bounded => {}
                    other => panic!("{}: unexpected bound {other:?}", def.name),
                }
            }
        }

        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        all.extend(ours);
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }
}
