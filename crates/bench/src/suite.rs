//! The benchmark suite: every figure's grid as [`SweepPoint`]s.
//!
//! Each `figN_points(quick)` builder reproduces the parameter grid of the
//! matching `src/bin/figN.rs` binary, point for point, with a *unique*
//! report name per point (the names key the merged benchmark artifact).
//! [`quick_suite`] concatenates all of them in the `--quick` configuration;
//! that is what `bench_all` runs and what CI gates on.

use predis::experiments::{
    Check, DistMode, FaultSpec, Injection, MegaScaleSetup, NetEnv, PropagationSetup, Protocol,
    ScenarioSetup, ThroughputSetup, Topology, TopologySetup, World, ZoneWorld,
};
use predis::multizone::{FegConfig, StripeFault};
use predis::sim::{LatencyModel, SimDuration};

use crate::f0;
use crate::sweep::SweepPoint;

fn proto_slug(p: Protocol) -> String {
    p.name().to_ascii_lowercase().replace('-', "")
}

/// Fig. 4 — Predis's improvement on PBFT and HotStuff (WAN).
///
/// Section 0: throughput–latency parameter study at `n_c = 4`.
/// Section 1: saturated-throughput scalability in `n_c`.
pub fn fig4_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 9 } else { 15 };
    let loads: &[f64] = if quick {
        &[2_000.0, 8_000.0, 30_000.0]
    } else {
        &[
            1_000.0, 2_000.0, 4_000.0, 8_000.0, 15_000.0, 25_000.0, 40_000.0,
        ]
    };
    let setup =
        |protocol: Protocol, n_c: usize, bundle: usize, batch: usize, load: f64| ThroughputSetup {
            protocol,
            n_c,
            clients: 8,
            offered_tps: load,
            bundle_size: bundle,
            batch_size: batch,
            env: NetEnv::Wan,
            duration_secs: secs,
            warmup_secs: secs / 3,
            seed: 42,
            ..Default::default()
        };

    let mut points = Vec::new();
    // (a,b): parameter study at n_c = 4.
    for (proto, params) in [
        (Protocol::Pbft, vec![400usize, 800]),
        (Protocol::HotStuff, vec![400, 800]),
        (Protocol::PPbft, vec![25, 50, 100]),
        (Protocol::PHs, vec![25, 50, 100]),
    ] {
        let predis = matches!(proto, Protocol::PPbft | Protocol::PHs);
        for p in params {
            let (bundle, batch) = if predis { (p, 800) } else { (50, p) };
            let knob = if predis { "bundle" } else { "batch" };
            for &load in loads {
                points.push(
                    SweepPoint::throughput(
                        format!("fig4_{}_{knob}{p}_load{}", proto_slug(proto), load as u64),
                        setup(proto, 4, bundle, batch, load),
                    )
                    .section(0)
                    .labels(vec![
                        proto.name().to_string(),
                        format!("{knob}={p}"),
                        f0(load),
                    ]),
                );
            }
        }
    }
    // (c,d): scalability in n_c at saturating load.
    for proto in [
        Protocol::Pbft,
        Protocol::PPbft,
        Protocol::HotStuff,
        Protocol::PHs,
    ] {
        for n_c in [4usize, 8, 16] {
            let mut point = SweepPoint::throughput(
                format!("fig4_scal_{}_nc{n_c}", proto_slug(proto)),
                setup(proto, n_c, 50, 800, 45_000.0),
            )
            .section(1)
            .labels(vec![proto.name().to_string(), n_c.to_string()]);
            if proto == Protocol::PPbft && n_c == 4 {
                point = point.showcase();
            }
            points.push(point);
        }
    }
    points
}

/// Fig. 5 — Predis vs Narwhal-style RBC and Stratus-style PAB, WAN + LAN.
///
/// Section 0 is WAN, section 1 is LAN.
pub fn fig5_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 9 } else { 15 };
    let loads: &[f64] = if quick {
        &[4_000.0, 20_000.0]
    } else {
        &[2_000.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0]
    };

    let mut points = Vec::new();
    for (section, env) in [(0usize, NetEnv::Wan), (1, NetEnv::Lan)] {
        for proto in [Protocol::PHs, Protocol::Narwhal, Protocol::Stratus] {
            let display = if proto == Protocol::PHs {
                "Predis"
            } else {
                proto.name()
            };
            for &load in loads {
                let mut point = SweepPoint::throughput(
                    format!(
                        "fig5_{}_{:?}_load{}",
                        display.to_ascii_lowercase(),
                        env,
                        load as u64
                    )
                    .to_ascii_lowercase(),
                    ThroughputSetup {
                        protocol: proto,
                        n_c: 4,
                        clients: 8,
                        offered_tps: load,
                        bundle_size: 50,
                        env,
                        duration_secs: secs,
                        warmup_secs: secs / 3,
                        seed: 7,
                        ..Default::default()
                    },
                )
                .section(section)
                .labels(vec![display.to_string(), f0(load)]);
                if proto == Protocol::PHs && env == NetEnv::Wan && load == *loads.last().unwrap() {
                    point = point.showcase();
                }
                points.push(point);
            }
        }
    }
    points
}

/// Fig. 6 — P-PBFT under silent and selective faults (`n_c = 8`, LAN).
pub fn fig6_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 9 } else { 18 };
    let setup = |faults: FaultSpec| ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: 8,
        clients: 8,
        offered_tps: 40_000.0, // saturating load: measures capacity
        env: NetEnv::Lan,
        duration_secs: secs,
        warmup_secs: secs / 3,
        seed: 11,
        faults,
        ..Default::default()
    };

    let mut points = vec![
        SweepPoint::throughput("fig6_normal", setup(FaultSpec::none()))
            .labels(vec!["normal".into(), "0".into()])
            .showcase(),
    ];
    for f in 1..=2usize {
        // Case 1: silent nodes (indices chosen among non-initial-leaders).
        points.push(
            SweepPoint::throughput(
                format!("fig6_case1_f{f}"),
                setup(FaultSpec {
                    silent: (8 - f..8).collect(),
                    selective: vec![],
                    ..FaultSpec::none()
                }),
            )
            .labels(vec!["case1-silent".into(), f.to_string()]),
        );
        // Case 2: selective senders that never vote.
        points.push(
            SweepPoint::throughput(
                format!("fig6_case2_f{f}"),
                setup(FaultSpec {
                    silent: vec![],
                    selective: (8 - f..8).collect(),
                    ..FaultSpec::none()
                }),
            )
            .labels(vec!["case2-selective".into(), f.to_string()]),
        );
    }
    points
}

/// Fig. 7 — dissemination topology vs consensus throughput.
///
/// Section 0: star vs Multi-Zone over the full-node count at `n_c = 4`.
/// Section 1: throughput vs `n_c` at 48 full nodes.
pub fn fig7_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 10 } else { 16 };
    let full_counts: &[usize] = if quick {
        &[12, 48]
    } else {
        &[8, 16, 24, 48, 72, 96]
    };

    let mut points = Vec::new();
    for (mode, label) in [
        (DistMode::Star, "star"),
        (DistMode::MultiZone { zones: 4 }, "multizone-4"),
        (DistMode::MultiZone { zones: 12 }, "multizone-12"),
    ] {
        for &fulls in full_counts {
            let mut point = SweepPoint::topology(
                format!("fig7_{label}_fulls{fulls}"),
                TopologySetup {
                    n_c: 4,
                    full_nodes: fulls,
                    mode,
                    duration_secs: secs,
                    warmup_secs: secs / 3,
                    seed: 5,
                    ..Default::default()
                },
            )
            .section(0)
            .labels(vec![label.to_string(), fulls.to_string()]);
            if matches!(mode, DistMode::MultiZone { zones: 12 })
                && fulls == *full_counts.last().unwrap()
            {
                point = point.showcase();
            }
            points.push(point);
        }
    }
    for (mode, label) in [
        (DistMode::Star, "star"),
        (DistMode::MultiZone { zones: 12 }, "multizone-12"),
    ] {
        for n_c in [4usize, 8, 16] {
            points.push(
                SweepPoint::topology(
                    format!("fig7_scal_{label}_nc{n_c}"),
                    TopologySetup {
                        n_c,
                        full_nodes: 48,
                        mode,
                        duration_secs: secs,
                        warmup_secs: secs / 3,
                        seed: 5,
                        ..Default::default()
                    },
                )
                .section(1)
                .labels(vec![label.to_string(), n_c.to_string()]),
            );
        }
    }
    points
}

/// Fig. 8 — block propagation latency of star, random(FEG), Multi-Zone.
pub fn fig8_points(quick: bool) -> Vec<SweepPoint> {
    let sizes_mb: &[u64] = if quick { &[1, 20] } else { &[1, 5, 10, 20, 40] };
    let blocks = if quick { 3 } else { 8 };
    let full_nodes = if quick { 60 } else { 100 };

    let topologies = [
        ("star", Topology::Star),
        (
            "random-feg",
            Topology::Random {
                degree: 8,
                feg: FegConfig::default(),
            },
        ),
        ("multizone-3", Topology::MultiZone { zones: 3 }),
        ("multizone-12", Topology::MultiZone { zones: 12 }),
    ];

    let mut points = Vec::new();
    for &mb in sizes_mb {
        // Blocks must be spaced far enough apart that even the slowest
        // topology can finish one before the next arrives (the star's
        // service time is ~block x fleet/n_c at 100 Mbps), otherwise the
        // measurement becomes a queueing artifact.
        let star_service_secs = (mb as f64 * 8.0 * (full_nodes as f64 / 8.0) / 100.0) as u64;
        let interval_secs = 5.max(star_service_secs + star_service_secs / 2);
        for (label, topo) in &topologies {
            let mut point = SweepPoint::propagation(
                format!("fig8_{label}_{mb}mb"),
                PropagationSetup {
                    n_c: 8,
                    full_nodes,
                    block_bytes: mb * 1_000_000,
                    interval: SimDuration::from_secs(interval_secs),
                    blocks,
                    mbps: 100,
                    latency: LatencyModel::lan(),
                    max_children: 24,
                    locality_zones: false,
                    seed: 3,
                },
                topo.clone(),
            )
            .labels(vec![format!("{mb}MB"), label.to_string()]);
            if *label == "multizone-12" && mb == *sizes_mb.last().unwrap() {
                point = point.showcase();
            }
            points.push(point);
        }
    }
    points
}

/// Fig. 9 — mega-scale Multi-Zone dissemination.
///
/// Holds the zone count fixed while `zone_size` grows, so a flat
/// `consensus_upload_bytes` across a row demonstrates O(zones) upload
/// cost, independent of the full-node population. The quick tier tops out
/// at 10^4 full nodes (what CI runs under the `mem.bytes_per_node` gate);
/// the full tier adds the 10^5-node points. One extra point exercises the
/// flash-crowd ramp of the per-zone client swarms.
pub fn fig9_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 8 } else { 12 };
    let grid: &[(usize, usize)] = if quick {
        &[(10, 50), (10, 250), (10, 1_000)]
    } else {
        &[(10, 50), (10, 250), (10, 1_000), (20, 1_250), (20, 5_000)]
    };
    let setup = |zones: usize, zone_size: usize| MegaScaleSetup {
        zones,
        zone_size,
        duration_secs: secs,
        warmup_secs: secs / 3,
        seed: 9,
        ..Default::default()
    };

    let mut points = Vec::new();
    for &(zones, zone_size) in grid {
        let fulls = zones * zone_size;
        let mut point = SweepPoint::megascale(
            format!("fig9_z{zones}_fulls{fulls}"),
            setup(zones, zone_size),
        )
        .section(0)
        .labels(vec![
            zones.to_string(),
            zone_size.to_string(),
            fulls.to_string(),
        ]);
        if (zones, zone_size) == *grid.last().unwrap() {
            point = point.showcase();
        }
        points.push(point);
    }
    // Flash crowd: the aggregate arrival rate doubles over a 2 s linear
    // ramp right after warm-up — throughput must follow the offered load
    // without destabilizing dissemination.
    points.push(
        SweepPoint::megascale(
            "fig9_crowd_fulls2500",
            MegaScaleSetup {
                crowd_at_secs: (secs / 3).max(1),
                crowd_ramp_secs: 2,
                crowd_peak_mult: 2.0,
                ..setup(10, 250)
            },
        )
        .section(1)
        .labels(vec!["10".into(), "250".into(), "2500".into()]),
    );
    points
}

/// Ablation sweeps (the simulated part of `bin/ablation.rs`).
///
/// Section 0: bandwidth-model ablation (PBFT vs P-PBFT over uplink Mbps).
/// Section 1: bundle-size ablation (P-PBFT at saturating load).
pub fn ablation_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 6 } else { 10 };
    let mbps_grid: &[u64] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let bundles: &[usize] = if quick {
        &[25, 100]
    } else {
        &[10, 25, 50, 100, 200]
    };

    let mut points = Vec::new();
    for &mbps in mbps_grid {
        for proto in [Protocol::Pbft, Protocol::PPbft] {
            let mut point = SweepPoint::throughput(
                format!("ablation_{}_{mbps}mbps", proto_slug(proto)),
                ThroughputSetup {
                    protocol: proto,
                    n_c: 4,
                    clients: 8,
                    offered_tps: 40_000.0,
                    batch_size: 800,
                    env: NetEnv::Lan,
                    mbps,
                    duration_secs: secs,
                    warmup_secs: secs * 2 / 5,
                    seed: 23,
                    ..Default::default()
                },
            )
            .section(0)
            .labels(vec![format!("{mbps} Mbps"), proto.name().to_string()]);
            if proto == Protocol::PPbft && mbps == 100 {
                point = point.showcase();
            }
            points.push(point);
        }
    }
    for &bundle_size in bundles {
        points.push(
            SweepPoint::throughput(
                format!("ablation_bundle{bundle_size}"),
                ThroughputSetup {
                    protocol: Protocol::PPbft,
                    n_c: 4,
                    clients: 8,
                    offered_tps: 40_000.0,
                    bundle_size,
                    env: NetEnv::Lan,
                    duration_secs: secs,
                    warmup_secs: secs * 2 / 5,
                    seed: 23,
                    ..Default::default()
                },
            )
            .section(1)
            .labels(vec![bundle_size.to_string()]),
        );
    }
    points
}

/// The scenario plane — config-driven fault & adversary runs.
///
/// Every point here is pure data: a [`ScenarioSetup`] whose injections
/// compile onto one of three worlds (consensus committee, Multi-Zone
/// dissemination, mega-scale) and whose checks are asserted in-runner, so
/// a dead scenario fails the sweep instead of writing a hollow artifact.
/// `fig_scenarios` runs the same list after a JSON round trip.
pub fn scenario_points(quick: bool) -> Vec<SweepPoint> {
    let secs = if quick { 10 } else { 16 };
    let consensus = |seed: u64| ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: 4,
        clients: 8,
        offered_tps: 8_000.0,
        env: NetEnv::Lan,
        duration_secs: secs,
        warmup_secs: 2,
        seed,
        ..Default::default()
    };
    let zone = |seed: u64| ZoneWorld {
        n_c: 4,
        zones: 3,
        full_nodes: if quick { 18 } else { 36 },
        block_bytes: 500_000,
        blocks: if quick { 3 } else { 6 },
        interval_ms: 1_500,
        mbps: 100,
        max_children: 24,
        seed,
    };
    let zone_blocks = if quick { 3 } else { 6 };

    let scenarios = vec![
        // Regional outage + rejoin: replica 3 is down for 3 s mid-run and
        // must catch up after reviving; nobody gets banned for crashing.
        ScenarioSetup {
            name: "outage_rejoin".into(),
            world: World::Consensus(consensus(101)),
            injections: vec![Injection::Outage {
                nodes: vec![3],
                from_ms: 3_000,
                until_ms: 6_000,
            }],
            checks: vec![
                Check::ThroughputResumesAfter {
                    after_ms: 6_000,
                    min_tps: 4_000.0,
                },
                Check::MinCommittedTxs { txs: 20_000 },
                Check::CounterZero {
                    counter: "ban.hits".into(),
                },
            ],
        },
        // WAN weather: up to 20 ms of random propagation jitter on every
        // link. Jitter draws come from counter-keyed per-link streams
        // (hash of stream seed, link, draw index), so the run executes in
        // parallel and stays thread-count invariant: only a link's owning
        // shard draws on it, in the same order the sequential engine would.
        ScenarioSetup {
            name: "wan_jitter".into(),
            world: World::Consensus(ThroughputSetup {
                env: NetEnv::Wan,
                ..consensus(102)
            }),
            injections: vec![Injection::Jitter { max_ms: 20 }],
            checks: vec![
                Check::MinThroughputTps { tps: 4_000.0 },
                Check::MinCommittedTxs { txs: 20_000 },
            ],
        },
        // Relayer churn storm: two full nodes (relayer candidates in
        // distinct zones) crash and rejoin repeatedly; announcements must
        // drive re-fetch so dissemination still completes every block.
        ScenarioSetup {
            name: "churn_storm".into(),
            world: zone(103).world(),
            injections: vec![Injection::ChurnStorm {
                nodes: vec![4, 5],
                first_ms: 2_500,
                down_ms: 800,
                up_ms: 1_200,
                cycles: 3,
            }],
            checks: vec![Check::MinCompleteBlocks {
                blocks: zone_blocks,
            }],
        },
        // Byzantine relayers withholding stripes: subscribers detect the
        // silent provider and reroute/pull; all blocks still complete.
        ScenarioSetup {
            name: "byz_withhold".into(),
            world: zone(104).world(),
            injections: vec![Injection::ByzantineRelayers {
                count: 2,
                fault: StripeFault::Withhold,
            }],
            checks: vec![Check::MinCompleteBlocks {
                blocks: zone_blocks,
            }],
        },
        // Byzantine relayers corrupting stripes: Merkle verification must
        // reject the forgeries (counted) and recovery must still complete
        // every block.
        ScenarioSetup {
            name: "byz_corrupt".into(),
            world: zone(105).world(),
            injections: vec![Injection::ByzantineRelayers {
                count: 2,
                fault: StripeFault::Corrupt,
            }],
            checks: vec![
                Check::CounterAtLeast {
                    counter: "zone.stripes_rejected".into(),
                    min: 1,
                },
                Check::MinCompleteBlocks {
                    blocks: zone_blocks,
                },
            ],
        },
        // Equivocation storm: producer 3 forks its bundle chain every
        // height. Honest planes must detect the conflict, ban the producer
        // network-wide, and keep committing.
        ScenarioSetup {
            name: "equivocation".into(),
            world: World::Consensus(consensus(106)),
            injections: vec![Injection::EquivocationStorm { producers: vec![3] }],
            checks: vec![
                Check::BanListEngaged,
                Check::MinCommittedTxs { txs: 20_000 },
            ],
        },
        // Slow leader: the initial leader's uplink is throttled to
        // 10 Mbps. Predis's decoupled data path must keep the pipeline
        // moving despite the straggler.
        ScenarioSetup {
            name: "slow_leader".into(),
            world: World::Consensus(consensus(107)),
            injections: vec![Injection::Straggler { node: 0, mbps: 10 }],
            checks: vec![
                Check::MinThroughputTps { tps: 2_000.0 },
                Check::MinCommittedTxs { txs: 20_000 },
            ],
        },
        // Flash crowd at mega scale: aggregate arrival rate doubles over a
        // 2 s ramp; dissemination must absorb the spike with zero stripe
        // rejections (nobody is Byzantine here).
        ScenarioSetup {
            name: "flash_crowd".into(),
            world: World::MegaScale(MegaScaleSetup {
                zones: 4,
                zone_size: 50,
                duration_secs: if quick { 8 } else { 12 },
                warmup_secs: 2,
                seed: 108,
                ..Default::default()
            }),
            injections: vec![Injection::FlashCrowd {
                at_secs: 3,
                ramp_secs: 2,
                peak_mult: 2.0,
            }],
            checks: vec![
                Check::MinThroughputTps { tps: 100.0 },
                Check::CounterZero {
                    counter: "zone.stripes_rejected".into(),
                },
            ],
        },
    ];

    scenarios
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let name = format!("scenario_{}", scenario.name);
            let world = match &scenario.world {
                World::Consensus(_) => "consensus",
                World::Flow(_) => "flow",
                World::Net(..) => "zone",
                World::MegaScale(_) => "megascale",
            };
            let mut point = SweepPoint::scenario(name, scenario.clone())
                .labels(vec![scenario.name.clone(), world.to_string()]);
            if i == 0 {
                point = point.showcase();
            }
            point
        })
        .collect()
}

/// The full suite: every figure's grid plus the ablations and the
/// scenario plane.
pub fn suite(quick: bool) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    points.extend(fig4_points(quick));
    points.extend(fig5_points(quick));
    points.extend(fig6_points(quick));
    points.extend(fig7_points(quick));
    points.extend(fig8_points(quick));
    points.extend(fig9_points(quick));
    points.extend(ablation_points(quick));
    points.extend(scenario_points(quick));
    points
}

/// The `--quick` suite `bench_all` and CI run.
pub fn quick_suite() -> Vec<SweepPoint> {
    suite(true)
}

/// Keeps only the points whose name starts with `prefix`.
pub fn filter_prefix(points: Vec<SweepPoint>, prefix: &str) -> Vec<SweepPoint> {
    points
        .into_iter()
        .filter(|p| p.name.starts_with(prefix))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_point_name_is_unique_across_the_suite() {
        for quick in [true, false] {
            let points = suite(quick);
            let names: BTreeSet<&str> = points.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(names.len(), points.len(), "duplicate names, quick={quick}");
        }
    }

    #[test]
    fn quick_suite_covers_every_figure() {
        let points = quick_suite();
        for prefix in [
            "fig4_",
            "fig5_",
            "fig6_",
            "fig7_",
            "fig8_",
            "fig9_",
            "ablation_",
            "scenario_",
        ] {
            assert!(
                points.iter().any(|p| p.name.starts_with(prefix)),
                "no {prefix} points"
            );
        }
        let showcases = points.iter().filter(|p| p.showcase).count();
        assert_eq!(showcases, 8, "one showcase per figure/ablation/plane");
    }

    #[test]
    fn scenario_plane_is_config_driven_and_checked() {
        for quick in [true, false] {
            let points = scenario_points(quick);
            assert!(
                points.len() >= 6,
                "need >= 6 scenarios, got {}",
                points.len()
            );
            for p in &points {
                let scenario = &p.runner;
                assert!(p.is_scenario(), "{} is not a scenario point", p.name);
                assert!(
                    !scenario.checks.is_empty(),
                    "{} has no liveness/safety check",
                    p.name
                );
                // Every scenario must survive the JSON round trip
                // `fig_scenarios` performs — config-driven, not hand-wired.
                let back = ScenarioSetup::from_json(&scenario.to_json())
                    .unwrap_or_else(|e| panic!("{}: {e}", p.name));
                assert_eq!(&back, scenario, "{} JSON round trip", p.name);
            }
        }
    }

    #[test]
    fn filter_prefix_trims_to_one_figure() {
        let fig6 = filter_prefix(quick_suite(), "fig6_");
        assert_eq!(fig6.len(), 5);
        assert!(fig6.iter().all(|p| p.name.starts_with("fig6_")));
    }
}
