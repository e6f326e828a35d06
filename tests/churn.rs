//! Multi-Zone under churn: relayers leave mid-stream and the zone heals
//! (§IV-E "Fix the Number of Relayers"); block reconstruction keeps
//! working through the backup/pull paths.

use std::sync::Arc;

use predis::multizone::{MultiZoneNode, NetMsg, SyntheticLoad, ZoneConfig, ZoneSource};
use predis::sim::prelude::*;

const N_C: usize = 4;
const FULLS: usize = 18;
const ZONES: usize = 3;

fn build(seed: u64, leavers: &[usize], crashers: &[usize]) -> Sim<NetMsg> {
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<NetMsg> = Sim::new(seed, network);
    let cons: Vec<NodeId> = (0..N_C as u32).map(NodeId).collect();
    let zcfg = ZoneConfig {
        n_c: N_C,
        f: (N_C - 1) / 3,
        max_children: 24,
        alive_interval: SimDuration::from_millis(250),
        digest_interval: SimDuration::from_millis(500),
        consensus: cons.clone(),
        retire_unannounced: false,
    };
    let mut load = SyntheticLoad::for_block_size(2_000_000, 40, SimDuration::from_secs(2));
    load.blocks = 8;
    load.start_at = SimDuration::from_secs(4);
    for i in 0..N_C {
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
    let fulls: Vec<NodeId> = (N_C as u32..(N_C + FULLS) as u32).map(NodeId).collect();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); ZONES];
    for (j, &fnode) in fulls.iter().enumerate() {
        members[j % ZONES].push(fnode);
    }
    let rosters: Vec<Arc<[NodeId]>> = members.iter().map(|m| m.as_slice().into()).collect();
    let mut faults = FaultPlan::none();
    for (j, &fnode) in fulls.iter().enumerate() {
        let zone = j % ZONES;
        let backups: Vec<NodeId> = members[(zone + 1) % ZONES]
            .iter()
            .copied()
            .take(2)
            .collect();
        let roster = Arc::clone(&rosters[zone]);
        let mut node =
            MultiZoneNode::new(zcfg.clone(), j as u64, roster, fnode).with_backups(backups);
        if leavers.contains(&j) {
            // Voluntary, announced departure mid-stream.
            node = node.leaving_at(SimTime::from_secs(8));
        }
        if crashers.contains(&j) {
            // Unannounced crash mid-stream.
            faults.crash(fnode, SimTime::from_secs(9));
        }
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(node)),
            SimTime::from_millis(10 * j as u64),
        );
    }
    sim.set_faults(faults);
    sim
}

/// Survivors that should have completed every block.
fn survivors(leavers: &[usize], crashers: &[usize]) -> Vec<usize> {
    (0..FULLS)
        .filter(|j| !leavers.contains(j) && !crashers.contains(j))
        .collect()
}

fn completed_blocks(sim: &Sim<NetMsg>, j: usize) -> u64 {
    sim.actor_as::<ActorOf<MultiZoneNode, NetMsg>>(NodeId((N_C + j) as u32))
        .expect("node")
        .core()
        .completed_blocks
}

#[test]
fn announced_relayer_departure_heals() {
    // The first node of every zone (earliest relayers) leaves at t=8s.
    let leavers = vec![0usize, 1, 2];
    let mut sim = build(51, &leavers, &[]);
    sim.run_until(SimTime::from_secs(30));
    assert!(sim.metrics().counter("zone.voluntary_leaves") >= 3);
    for j in survivors(&leavers, &[]) {
        assert_eq!(
            completed_blocks(&sim, j),
            8,
            "node {j} missed blocks after announced departures"
        );
    }
}

#[test]
fn relayer_crash_heals_via_timeouts_and_pulls() {
    let crashers = vec![3usize, 4];
    let mut sim = build(53, &[], &crashers);
    sim.run_until(SimTime::from_secs(40));
    for j in survivors(&[], &crashers) {
        assert_eq!(
            completed_blocks(&sim, j),
            8,
            "node {j} missed blocks after crashes"
        );
    }
}

#[test]
fn combined_churn_still_completes() {
    let leavers = vec![6usize];
    let crashers = vec![7usize];
    let mut sim = build(57, &leavers, &crashers);
    sim.run_until(SimTime::from_secs(40));
    let ok = survivors(&leavers, &crashers)
        .into_iter()
        .filter(|&j| completed_blocks(&sim, j) == 8)
        .count();
    assert_eq!(ok, FULLS - 2, "every survivor must reconstruct all blocks");
}
