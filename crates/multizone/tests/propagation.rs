//! Network-layer integration tests: relayer convergence and the Fig. 8
//! propagation-latency ordering.

use std::sync::Arc;

use predis_multizone::{FegConfig, MultiZoneNode, NetMsg, PropagationSetup, Topology, ZoneSource};
use predis_sim::prelude::*;

fn setup(block_mb: u64, blocks: u64, seed: u64) -> PropagationSetup {
    PropagationSetup {
        n_c: 8,
        full_nodes: 60,
        block_bytes: block_mb * 1_000_000,
        interval: SimDuration::from_secs(5),
        blocks,
        mbps: 100,
        latency: LatencyModel::lan(),
        max_children: 24,
        locality_zones: false,
        seed,
    }
}

#[test]
fn multizone_relayers_converge_to_nc_per_zone() {
    // Build a 3-zone network with no load and let membership settle.
    let s = PropagationSetup {
        full_nodes: 30,
        blocks: 0,
        ..setup(1, 0, 7)
    };
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<NetMsg> = Sim::new(s.seed, network);
    // Reuse the experiment wiring by calling run() with 0 blocks? Simpler:
    // assemble manually via the public API.
    let zones = 3;
    let cons: Vec<NodeId> = (0..s.n_c as u32).map(NodeId).collect();
    let zcfg = predis_multizone::ZoneConfig {
        n_c: s.n_c,
        f: (s.n_c - 1) / 3,
        max_children: s.max_children,
        alive_interval: SimDuration::from_millis(250),
        digest_interval: SimDuration::from_secs(1),
        consensus: cons.clone(),
        retire_unannounced: false,
    };
    for i in 0..s.n_c {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(ZoneSource::new(
                i as u32,
                zcfg.clone(),
                None,
            ))),
            SimTime::ZERO,
        );
    }
    let fulls: Vec<NodeId> = (s.n_c as u32..(s.n_c + s.full_nodes) as u32)
        .map(NodeId)
        .collect();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); zones];
    for (j, &fnode) in fulls.iter().enumerate() {
        members[j % zones].push(fnode);
    }
    let rosters: Vec<Arc<[NodeId]>> = members.iter().map(|m| m.as_slice().into()).collect();
    for (j, &fnode) in fulls.iter().enumerate() {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                zcfg.clone(),
                j as u64,
                Arc::clone(&rosters[j % zones]),
                fnode,
            ))),
            SimTime::from_millis(10 * j as u64),
        );
    }
    sim.run_until(SimTime::from_secs(20));

    // Every full node should have a provider for every stripe, and each
    // zone should have converged to n_c relayers.
    let mut zone_relayers = vec![0usize; zones];
    for (j, &fnode) in fulls.iter().enumerate() {
        let actor = sim
            .actor_as::<ActorOf<MultiZoneNode, NetMsg>>(fnode)
            .expect("node exists");
        let node = actor.core();
        assert_eq!(
            node.covered_stripes(),
            s.n_c,
            "full node {j} is missing stripe providers"
        );
        if node.is_relayer() {
            zone_relayers[j % zones] += 1;
        }
    }
    for (z, &count) in zone_relayers.iter().enumerate() {
        assert!(
            count >= s.n_c && count <= s.n_c + 3,
            "zone {z} has {count} relayers, expected ~{}",
            s.n_c
        );
    }
}

#[test]
fn multizone_beats_star_and_random_on_large_blocks() {
    // 20 MB blocks: the paper's Fig. 8(c,d) regime where Multi-Zone wins.
    let s = setup(20, 4, 11);
    let mz = s.run(&Topology::MultiZone { zones: 12 });
    let star = s.run(&Topology::Star);
    let random = s.run(&Topology::Random {
        degree: 8,
        feg: FegConfig::default(),
    });
    assert!(
        mz.to_100_ms < 0.5 * star.to_100_ms,
        "multi-zone {:.0} ms should be <50% of star {:.0} ms",
        mz.to_100_ms,
        star.to_100_ms
    );
    assert!(
        mz.to_100_ms < random.to_100_ms,
        "multi-zone {:.0} ms should beat random {:.0} ms",
        mz.to_100_ms,
        random.to_100_ms
    );
}

#[test]
fn star_grows_linearly_multizone_grows_slowly() {
    // Fig. 8's size sweep shape: star's latency scales ~linearly with block
    // size (every byte crosses the consensus uplinks once per full node),
    // while Multi-Zone's grows slowly (bundles are pre-distributed; only
    // the constant-size announcement and the stripe tail remain).
    //
    // NOTE (EXPERIMENTS.md): the paper additionally reports star *winning*
    // below 5 MB; that crossover does not reproduce in a bandwidth-accurate
    // simulator and is attributed to per-message implementation overheads
    // of the paper's testbed stack.
    let small = setup(1, 4, 13);
    let large = setup(20, 4, 13);
    let star_s = small.run(&Topology::Star);
    let star_l = large.run(&Topology::Star);
    let mz_s = small.run(&Topology::MultiZone { zones: 3 });
    let mz_l = large.run(&Topology::MultiZone { zones: 3 });
    let star_growth = star_l.to_100_ms / star_s.to_100_ms;
    let mz_growth = mz_l.to_100_ms / mz_s.to_100_ms;
    assert!(
        star_growth > 8.0,
        "star should scale ~linearly over a 20x size range, got {star_growth:.1}x"
    );
    assert!(
        mz_growth < star_growth / 2.0,
        "multi-zone growth {mz_growth:.1}x should be far below star's {star_growth:.1}x"
    );
}

#[test]
fn more_zones_reduce_latency() {
    let s = setup(20, 3, 17);
    let z3 = s.run(&Topology::MultiZone { zones: 3 });
    let z12 = s.run(&Topology::MultiZone { zones: 12 });
    assert!(
        z12.to_100_ms <= z3.to_100_ms * 1.1,
        "12 zones ({:.0} ms) should not be slower than 3 zones ({:.0} ms)",
        z12.to_100_ms,
        z3.to_100_ms
    );
}

#[test]
fn all_blocks_complete_everywhere() {
    let s = setup(5, 4, 19);
    for topo in [
        Topology::Star,
        Topology::MultiZone { zones: 6 },
        Topology::Random {
            degree: 8,
            feg: FegConfig::default(),
        },
    ] {
        let r = s.run(&topo);
        assert_eq!(
            r.complete_blocks, s.blocks,
            "{topo:?}: only {}/{} blocks reached all nodes",
            r.complete_blocks, s.blocks
        );
    }
}

#[test]
fn small_subscriber_caps_deepen_trees_but_blocks_still_complete() {
    // With a tight per-node subscriber cap, RejectSub redirects newcomers
    // to the relayers' children, deepening the multicast tree (SplitStream
    // style) — correctness must survive the extra depth.
    let tight = PropagationSetup {
        max_children: 6,
        ..setup(5, 4, 23)
    };
    let roomy = PropagationSetup {
        max_children: 24,
        ..setup(5, 4, 23)
    };
    let t = tight.run(&Topology::MultiZone { zones: 3 });
    let r = roomy.run(&Topology::MultiZone { zones: 3 });
    assert_eq!(t.complete_blocks, 4, "deep trees must still deliver");
    assert_eq!(r.complete_blocks, 4);
    // No latency ordering is asserted: deeper trees add hops, but a roomy
    // cap serializes more stripe copies on each relayer's uplink, so either
    // configuration can win depending on bandwidth vs hop latency (the
    // SplitStream trade-off the cap exists to navigate). Both must finish
    // within the measurement window, though.
    assert!(t.to_100_ms > 0.0, "tight cap never reached full coverage");
    assert!(r.to_100_ms > 0.0, "roomy cap never reached full coverage");
}

#[test]
fn crashed_subscribers_are_reaped_by_heartbeat_timeout() {
    use predis_multizone::{SyntheticLoad, ZoneConfig};
    // One zone of 6 nodes; half of them crash silently mid-stream. Their
    // providers must reap them (§IV-E heartbeat timeout) so the uplink
    // stops carrying stripes for dead children.
    let n_c = 4usize;
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<NetMsg> = Sim::new(29, network);
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let zcfg = ZoneConfig {
        n_c,
        f: 1,
        max_children: 24,
        alive_interval: SimDuration::from_millis(250),
        digest_interval: SimDuration::from_secs(1),
        consensus: cons.clone(),
        retire_unannounced: false,
    };
    let mut load = SyntheticLoad::for_block_size(1_000_000, 40, SimDuration::from_secs(2));
    load.blocks = 0; // unlimited stream
    load.start_at = SimDuration::from_secs(3);
    for i in 0..n_c {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(ZoneSource::new(
                i as u32,
                zcfg.clone(),
                Some(load.clone()),
            ))),
            SimTime::ZERO,
        );
    }
    let fulls: Vec<NodeId> = (n_c as u32..(n_c + 6) as u32).map(NodeId).collect();
    let zone: Arc<[NodeId]> = fulls.as_slice().into();
    let mut faults = FaultPlan::none();
    for (j, &fnode) in fulls.iter().enumerate() {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                zcfg.clone(),
                j as u64,
                Arc::clone(&zone),
                fnode,
            ))),
            SimTime::from_millis(10 * j as u64),
        );
        if j >= 3 {
            faults.crash(fnode, SimTime::from_secs(8));
        }
    }
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(30));
    assert!(
        sim.metrics().counter("zone.children_reaped") >= 3,
        "providers must reap crashed children, reaped {}",
        sim.metrics().counter("zone.children_reaped")
    );
    // Survivors keep completing blocks long after the crashes.
    for (j, &fnode) in fulls.iter().enumerate().take(3) {
        let n = sim
            .actor_as::<ActorOf<MultiZoneNode, NetMsg>>(fnode)
            .unwrap()
            .core();
        assert!(
            n.completed_blocks >= 10,
            "survivor {j} completed only {} blocks",
            n.completed_blocks
        );
    }
    // And nobody keeps streaming stripes at the dead nodes: once reaped,
    // only tiny control chatter (alive/digest gossip) still hits them.
    let dropped = sim.metrics().counter("net.dropped_bytes");
    sim.run_until(SimTime::from_secs(34));
    let dropped_later = sim.metrics().counter("net.dropped_bytes");
    let late_rate = (dropped_later - dropped) as f64 / 4.0;
    assert!(
        late_rate < 50_000.0,
        "still ~{late_rate:.0} B/s streamed at dead nodes after reaping"
    );
}
