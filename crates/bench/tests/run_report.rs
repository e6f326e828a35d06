//! End-to-end check of the telemetry pipeline the fig binaries use: a real
//! (small) P-PBFT run must yield a `RunReport` carrying bundle-lifecycle
//! stage percentiles and labeled counters, and the report written to disk
//! must read back identical.

use predis::experiments::{FaultSpec, NetEnv, Protocol, ThroughputSetup, World};
use predis_telemetry::{Labels, RunReport, Stage};

fn small_run() -> RunReport {
    World::Consensus(ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: 4,
        clients: 4,
        offered_tps: 2_000.0,
        env: NetEnv::Lan,
        duration_secs: 5,
        warmup_secs: 1,
        seed: 99,
        ..Default::default()
    })
    .run_report("itest_ppbft")
}

/// A run that commits nothing: three of four replicas are silent, so no
/// quorum ever forms. Latency summaries come back `NaN` and must be
/// *omitted* from the report, and reading them through `require_metric`
/// must fail loudly rather than NaN-propagate.
fn idle_run() -> RunReport {
    World::Consensus(ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: 4,
        clients: 4,
        offered_tps: 100.0,
        env: NetEnv::Lan,
        duration_secs: 2,
        warmup_secs: 0,
        seed: 99,
        faults: FaultSpec {
            silent: vec![1, 2, 3],
            selective: vec![],
            ..FaultSpec::none()
        },
        ..Default::default()
    })
    .run_report("itest_idle")
}

#[test]
fn unmeasured_metrics_are_omitted_not_nan() {
    let report = idle_run();
    // Throughput over an empty window is a measured 0.0, and stays.
    assert_eq!(report.metric("throughput_tps"), Some(0.0));
    // No commit ever happened, so there is no client latency to summarize;
    // the key must be absent (never stored as NaN).
    assert_eq!(report.metric("p99_latency_ms"), None);
    assert!(report.metrics.values().all(|v| v.is_finite()));
}

#[test]
fn require_metric_fails_loudly_on_unmeasured_key() {
    let report = idle_run();
    let err = std::panic::catch_unwind(|| report.require_metric("p99_latency_ms"))
        .expect_err("absent metric must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("itest_idle"), "panic names the run: {msg}");
    assert!(msg.contains("p99_latency_ms"), "panic names the key: {msg}");
    assert!(
        msg.contains("throughput_tps"),
        "panic lists available keys: {msg}"
    );
}

#[test]
fn fig_pipeline_report_has_stages_counters_and_roundtrips() {
    let report = small_run();

    // Headline metrics from the RunSummary made it in.
    assert!(report.metric("throughput_tps").unwrap() > 0.0);
    assert!(report.metric("committed_txs").unwrap() > 0.0);
    assert_eq!(
        report.meta.get("protocol").map(String::as_str),
        Some("P-PBFT")
    );

    // Bundle-lifecycle stage percentiles: bundles were produced, acked,
    // cut, proposed, and committed, so the end-to-end segment must be
    // populated with ordered percentiles.
    let total = report
        .stage(&format!(
            "{}->{}",
            Stage::Produced.name(),
            Stage::Committed.name()
        ))
        .expect("produced->committed stage present");
    assert!(total.summary.count > 0);
    assert!(total.summary.p50 > 0, "commit latency cannot be zero");
    assert!(total.summary.p50 <= total.summary.p95);
    assert!(total.summary.p95 <= total.summary.p99);
    assert!(total.summary.p99 <= total.summary.max);

    // The tip-ack segment exists too (multicast -> first peer acceptance).
    assert!(report
        .stage(&format!(
            "{}->{}",
            Stage::Multicast.name(),
            Stage::TipAcked.name()
        ))
        .is_some());

    // Labeled counters: per-(node, chain) tip updates were recorded at the
    // metrics replica, and the global production counter is non-zero.
    assert!(report.counter_total("mempool.tip_updates") > 0);
    assert!(report
        .counters
        .iter()
        .any(|c| c.name == "mempool.tip_updates"
            && c.labels.node.is_some()
            && c.labels.chain.is_some()));
    assert!(report.counter("predis.bundles_produced", Labels::GLOBAL) > 0);

    // Latency histograms are carried with bucket detail.
    assert!(!report.histograms.is_empty());

    // Write to a results dir and read back: byte-for-byte identical model.
    let dir = std::env::temp_dir().join(format!("predis-results-{}", std::process::id()));
    let path = report.write_to_dir(&dir).expect("write report");
    assert_eq!(path.extension().and_then(|e| e.to_str()), Some("json"));
    let text = std::fs::read_to_string(&path).expect("read report back");
    let back = RunReport::from_json(&text).expect("parse report");
    assert_eq!(back, report);
    std::fs::remove_dir_all(&dir).ok();
}
