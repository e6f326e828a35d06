//! The refactoring licence, pinned in tier-1: one small point per
//! [`World`] variant and the scenario plane's lowerings, each asserted
//! against the trace fingerprint and the full metrics map the code produced
//! *before* the five setups' run protocols were folded into one path. A
//! change that keeps these equal dispatched the same event streams and
//! reported the same numbers; one that moves them must say why.
//!
//! The dissemination-only points run past one simulated second because
//! their horizon carries a fixed 30 s drain; they are idle there and cheap.

use predis::experiments::{
    Check, DistMode, Injection, MegaScaleSetup, NetEnv, PropagationSetup, Protocol, ScenarioSetup,
    ThroughputSetup, Topology, TopologySetup, World, ZoneWorld,
};
use predis::multizone::StripeFault;
use predis::sim::{RunReport, SimDuration};

/// Asserts the run's trace fingerprint and its complete metrics map (in key
/// order).
fn assert_pinned(report: &RunReport, fingerprint: &str, metrics: &[(&str, f64)]) {
    assert_eq!(
        report.meta["trace.fingerprint"], fingerprint,
        "{}: event stream moved",
        report.name
    );
    let got: Vec<(&str, f64)> = report
        .metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert_eq!(got, metrics, "{}: metrics moved", report.name);
}

fn consensus() -> ThroughputSetup {
    ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: 4,
        clients: 4,
        offered_tps: 2_000.0,
        env: NetEnv::Lan,
        duration_secs: 1,
        warmup_secs: 0,
        seed: 41,
        ..Default::default()
    }
}

fn flow(mode: DistMode) -> TopologySetup {
    TopologySetup {
        n_c: 4,
        full_nodes: 12,
        mode,
        gen_tps: 2_000.0,
        duration_secs: 1,
        warmup_secs: 0,
        seed: 42,
        ..Default::default()
    }
}

fn zone(seed: u64) -> ZoneWorld {
    ZoneWorld {
        n_c: 4,
        zones: 3,
        full_nodes: 12,
        block_bytes: 100_000,
        blocks: 2,
        interval_ms: 500,
        mbps: 100,
        max_children: 24,
        seed,
    }
}

fn mega() -> MegaScaleSetup {
    MegaScaleSetup {
        zones: 2,
        zone_size: 10,
        users_per_zone: 1_000,
        per_user_tps: 1.0,
        duration_secs: 1,
        warmup_secs: 0,
        seed: 44,
        ..Default::default()
    }
}

#[test]
fn consensus_world_is_pinned() {
    assert_pinned(
        &World::Consensus(consensus()).run_report("worlds_consensus"),
        "4025c6b64e7b7f582e18c347eec5c416",
        &[
            ("committed_txs", 1628.0),
            ("engine.events_processed", 5659.0),
            ("mean_latency_ms", 215.398582),
            ("msg.bytes_cloned", 1034028.0),
            ("msg.payload_clones", 197.0),
            ("p50_latency_ms", 218.103807),
            ("p99_latency_ms", 226.492415),
            ("throughput_tps", 1628.0),
            ("timeline.spans_dropped", 0.0),
            ("wire_size.computed", 197.0),
        ],
    );
}

#[test]
fn flow_world_is_pinned_under_both_duties() {
    assert_pinned(
        &World::Flow(flow(DistMode::MultiZone { zones: 3 })).run_report("worlds_flow"),
        "5d418dc43d47ed3ef0ee1b18fe717cac",
        &[
            ("consensus_upload_bytes", 8080666.0),
            ("engine.events_processed", 12069.0),
            ("msg.bytes_cloned", 1034028.0),
            ("msg.payload_clones", 197.0),
            ("throughput_tps", 1628.0),
            ("timeline.spans_dropped", 0.0),
            ("wire_size.computed", 197.0),
        ],
    );
    assert_pinned(
        &World::Flow(flow(DistMode::Star)).run_report("worlds_flow_star"),
        "b5d34dfaa48432b127a43789589a865b",
        &[
            ("consensus_upload_bytes", 15332628.0),
            ("engine.events_processed", 7471.0),
            ("msg.bytes_cloned", 1034028.0),
            ("msg.payload_clones", 197.0),
            ("throughput_tps", 1580.0),
            ("timeline.spans_dropped", 0.0),
            ("wire_size.computed", 197.0),
        ],
    );
}

#[test]
fn net_world_is_pinned_and_a_plain_zone_scenario_is_the_same_run() {
    // The Fig. 8 setup a `ZoneWorld` file shape stands for, written out.
    let setup = PropagationSetup {
        n_c: 4,
        full_nodes: 12,
        block_bytes: 100_000,
        interval: SimDuration::from_millis(500),
        blocks: 2,
        seed: 45,
        ..Default::default()
    };
    let topology = Topology::MultiZone { zones: 3 };
    assert_eq!(
        zone(45).world(),
        World::Net(setup.clone(), topology.clone())
    );
    let net = [
        ("complete_blocks", 2.0),
        ("engine.events_processed", 12493.0),
        ("msg.bytes_cloned", 0.0),
        ("msg.payload_clones", 0.0),
        ("produced_blocks", 2.0),
        ("timeline.spans_dropped", 0.0),
        ("to_100_ms", 81.300557),
        ("to_50_ms", 55.400476999999995),
        ("to_90_ms", 79.50039699999999),
        ("wire_size.computed", 0.0),
    ];
    let plain = World::Net(setup.clone(), topology).run_report("worlds_net");
    assert_pinned(&plain, "f8c9c546e20eda9b5eebb9ab8299e229", &net);
    assert!(!plain.meta.contains_key("scenario"));

    // The same world as a named scenario: the same event stream, the same
    // numbers, plus the scenario stamps.
    let scenario = ScenarioSetup {
        name: "plain_zone".into(),
        world: zone(45).world(),
        injections: vec![],
        checks: vec![Check::MinCompleteBlocks { blocks: 2 }],
    }
    .run_report("worlds_zone_plain");
    let mut with_stamp = net.to_vec();
    with_stamp.insert(5, ("scenario.checks_passed", 1.0));
    assert_pinned(&scenario, "f8c9c546e20eda9b5eebb9ab8299e229", &with_stamp);
    assert_eq!(scenario.meta["scenario"], "plain_zone");

    assert_pinned(
        &World::Net(setup, Topology::Star).run_report("worlds_net_star"),
        "7ffab29d87a4f15dad5bd6411c742cc7",
        &[
            ("complete_blocks", 2.0),
            ("engine.events_processed", 52.0),
            ("msg.bytes_cloned", 0.0),
            ("msg.payload_clones", 0.0),
            ("produced_blocks", 2.0),
            ("timeline.spans_dropped", 0.0),
            ("to_100_ms", 215.672186),
            ("to_50_ms", 207.670346),
            ("to_90_ms", 215.672186),
            ("wire_size.computed", 0.0),
        ],
    );
}

#[test]
fn megascale_world_is_pinned() {
    assert_pinned(
        &World::MegaScale(mega()).run_report("worlds_mega"),
        "38042f76a3348bb9bfc129cb0d4aa113",
        &[
            ("consensus_upload_bytes", 6024020.0),
            ("engine.events_processed", 8570.0),
            ("msg.bytes_cloned", 890576.0),
            ("msg.payload_clones", 44.0),
            ("throughput_tps", 1343.0),
            ("timeline.spans_dropped", 0.0),
            ("wire_size.computed", 44.0),
        ],
    );
}

/// Jitter, a straggler, Byzantine relayers and an outage applied to the
/// *built* Multi-Zone world reproduce the run the scenario plane used to
/// wire by hand. `to_50_ms`/`to_90_ms` are new for this world — it now
/// reports through `PropagationSetup`'s headline — so only their presence
/// is checked.
#[test]
fn injections_on_a_built_zone_world_are_pinned() {
    let mut report = ScenarioSetup {
        name: "hostile_zone".into(),
        world: zone(46).world(),
        injections: vec![
            Injection::Jitter { max_ms: 5 },
            Injection::Straggler { node: 5, mbps: 20 },
            Injection::ByzantineRelayers {
                count: 2,
                fault: StripeFault::Corrupt,
            },
            Injection::Outage {
                nodes: vec![7],
                from_ms: 5_200,
                until_ms: 5_700,
            },
        ],
        checks: vec![Check::MinCompleteBlocks { blocks: 2 }],
    }
    .run_report("worlds_zone_hostile");
    assert!(report.metrics.remove("to_50_ms").is_some());
    assert!(report.metrics.remove("to_90_ms").is_some());
    assert_pinned(
        &report,
        "57bd308168166671f17b5a0cd530a234",
        &[
            ("complete_blocks", 2.0),
            ("engine.events_processed", 13379.0),
            ("msg.bytes_cloned", 0.0),
            ("msg.payload_clones", 0.0),
            ("produced_blocks", 2.0),
            ("scenario.checks_passed", 1.0),
            ("timeline.spans_dropped", 0.0),
            ("to_100_ms", 1321.0575549999999),
            ("wire_size.computed", 0.0),
        ],
    );
}

/// The injections a setup has its own field for: a consensus straggler
/// (uplink *and* production pacing), equivocators, and the flash crowd.
#[test]
fn injections_folded_into_the_setup_are_pinned() {
    assert_pinned(
        &ScenarioSetup {
            name: "slow".into(),
            world: World::Consensus(ThroughputSetup {
                seed: 47,
                duration_secs: 3,
                ..consensus()
            }),
            injections: vec![
                Injection::Jitter { max_ms: 3 },
                Injection::Straggler { node: 0, mbps: 10 },
                Injection::EquivocationStorm { producers: vec![3] },
            ],
            checks: vec![Check::MinCommittedTxs { txs: 1 }],
        }
        .run_report("worlds_cons_hostile"),
        "8afedb284db5cf9576309dfa003012b0",
        &[
            ("committed_txs", 4104.0),
            ("engine.events_processed", 14638.0),
            ("mean_latency_ms", 935.658949),
            ("msg.bytes_cloned", 4320408.0),
            ("msg.payload_clones", 1288.0),
            ("p50_latency_ms", 822.083583),
            ("p99_latency_ms", 2147.483647),
            ("scenario.checks_passed", 1.0),
            ("throughput_tps", 1368.0),
            ("timeline.spans_dropped", 0.0),
            ("wire_size.computed", 1288.0),
        ],
    );
    assert_pinned(
        &ScenarioSetup {
            name: "crowd".into(),
            world: World::MegaScale(MegaScaleSetup {
                seed: 48,
                duration_secs: 2,
                ..mega()
            }),
            injections: vec![Injection::FlashCrowd {
                at_secs: 1,
                ramp_secs: 1,
                peak_mult: 2.0,
            }],
            checks: vec![Check::MinCommittedTxs { txs: 1 }],
        }
        .run_report("worlds_mega_crowd"),
        "a71fb1bab71e1ed894804972f513e10e",
        &[
            ("consensus_upload_bytes", 14564527.0),
            ("engine.events_processed", 18493.0),
            ("msg.bytes_cloned", 2410376.0),
            ("msg.payload_clones", 94.0),
            ("scenario.checks_passed", 1.0),
            ("throughput_tps", 1947.5),
            ("timeline.spans_dropped", 0.0),
            ("wire_size.computed", 94.0),
        ],
    );
}
