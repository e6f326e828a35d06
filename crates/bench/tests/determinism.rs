//! The parallel runner's core guarantee: a sweep's reports — and the
//! benchmark artifact derived from them — are byte-identical regardless of
//! pool width and scheduling order.

use predis::experiments::{
    DistMode, NetEnv, PropagationSetup, Protocol, ThroughputSetup, Topology, TopologySetup,
};
use predis::sim::{LatencyModel, SimDuration};
use predis_bench::{suite, sweep, BenchArtifact, SweepPoint};
use predis_parallel::Pool;

/// A scaled-down grid covering all three runner kinds (seconds, not
/// minutes, so it can run inside the tier-1 test suite).
fn mini_suite() -> Vec<SweepPoint> {
    vec![
        SweepPoint::throughput(
            "det_throughput",
            ThroughputSetup {
                protocol: Protocol::PPbft,
                n_c: 4,
                clients: 4,
                offered_tps: 2_000.0,
                env: NetEnv::Lan,
                duration_secs: 3,
                warmup_secs: 1,
                seed: 1234,
                ..Default::default()
            },
        ),
        SweepPoint::topology(
            "det_topology",
            TopologySetup {
                n_c: 4,
                full_nodes: 8,
                mode: DistMode::MultiZone { zones: 4 },
                duration_secs: 3,
                warmup_secs: 1,
                seed: 1234,
                ..Default::default()
            },
        ),
        SweepPoint::propagation(
            "det_propagation",
            PropagationSetup {
                n_c: 4,
                full_nodes: 20,
                block_bytes: 1_000_000,
                interval: SimDuration::from_secs(3),
                blocks: 2,
                mbps: 100,
                latency: LatencyModel::lan(),
                max_children: 24,
                locality_zones: false,
                seed: 1234,
            },
            Topology::MultiZone { zones: 4 },
        ),
    ]
}

#[test]
fn sweep_reports_are_identical_across_pool_widths() {
    let points = mini_suite();
    let serial = sweep(&points, &Pool::new(1));
    let wide = sweep(&points, &Pool::new(4));
    for (i, (a, b)) in serial.iter().zip(&wide).enumerate() {
        assert_eq!(
            a.report.to_json(),
            b.report.to_json(),
            "report {i} ({}) differs between pool widths",
            points[i].name
        );
    }
}

#[test]
fn two_sweeps_serialize_to_equal_artifacts() {
    let points = mini_suite();
    let first = BenchArtifact::from_sweep(&points, &sweep(&points, &Pool::new(3)));
    let second = BenchArtifact::from_sweep(&points, &sweep(&points, &Pool::new(2)));
    // Byte for byte, no field normalised away: the artifact holds nothing
    // that depends on the clock or on who ran which point.
    assert_eq!(first.to_json(), second.to_json());
    // All three runner kinds carry a trace fingerprint.
    for (name, entry) in &first.runs {
        assert_eq!(entry.fingerprint.len(), 32, "{name} missing fingerprint");
    }
}

/// The full CI gate, locally runnable with `--ignored`: the entire
/// `--quick` suite twice, artifacts byte-identical. Takes a few minutes of
/// simulation; CI runs the equivalent via `bench_all` twice + `cmp`.
#[test]
#[ignore = "minutes of simulation; CI covers this via bench_all twice + cmp"]
fn full_quick_suite_is_deterministic() {
    let points = suite::quick_suite();
    let pool = Pool::default();
    let first = BenchArtifact::from_sweep(&points, &sweep(&points, &pool));
    let second = BenchArtifact::from_sweep(&points, &sweep(&points, &pool));
    assert_eq!(first.to_json(), second.to_json());
}
