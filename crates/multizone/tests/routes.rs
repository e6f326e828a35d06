//! The churning Multi-Zone world, pinned: two zones of twelve full nodes
//! joining at randomized times, every fifth one leaving mid-stream, under
//! a ten-block synthetic load. For seeds 11, 23 and 47 the trace
//! fingerprint and the completed-block count are literals, so any change
//! to the full node's per-stripe route state that alters a single event
//! fails here.
//!
//! Every seed of the churn world runs each route transition many times:
//! an Algorithm 2 shed the keeper rejects (the shed is reverted), a shed
//! it accepts (the old consensus feed gets an `Unsubscribe`), and the
//! §IV-E reroute off a silent provider. Dropping any one of those three
//! steps fails all three tests. The corrupting-relayer world adds the
//! integrity check, whose rejections make the relayer look silent to its
//! children. The announced world (`retire_unannounced: false`) reroutes
//! on pending blocks and recovers through pulls.

use std::sync::Arc;

use predis_multizone::{MultiZoneNode, NetMsg, StripeFault, SyntheticLoad, ZoneConfig, ZoneSource};
use predis_sim::prelude::*;

/// Seed-deterministic LCG for join times and departures, without pulling a
/// rand dependency into the test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[derive(Debug, Clone, Copy)]
enum World {
    /// Ann-less retirement on, every node honest.
    Churn,
    /// The first node of zone 0 (an early relayer) corrupts what it
    /// forwards.
    CorruptRelayer,
    /// Blocks retire on announcement only (`retire_unannounced: false`).
    Announced,
}

fn run_world(seed: u64, world: World) -> (String, u64) {
    let n_c = 4usize;
    let zones = 2usize;
    let per_zone = 12usize;
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let zcfg = ZoneConfig {
        n_c,
        f: 1,
        max_children: 8,
        alive_interval: SimDuration::from_millis(250),
        digest_interval: SimDuration::from_secs(1),
        consensus: cons.clone(),
        retire_unannounced: !matches!(world, World::Announced),
    };
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<NetMsg> = Sim::new(seed, network);
    let mut load = SyntheticLoad::for_block_size(400_000, 10, SimDuration::from_millis(500));
    load.start_at = SimDuration::from_secs(2);
    load.blocks = 10;
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
    let mut rng = Lcg(seed ^ 0x9e37);
    for z in 0..zones {
        let base = n_c + z * per_zone;
        let members: Vec<NodeId> = (base..base + per_zone).map(|i| NodeId(i as u32)).collect();
        let zone: Arc<[NodeId]> = members.as_slice().into();
        for (j, &me) in members.iter().enumerate() {
            // Staggered joins; every fifth node leaves mid-run, forcing its
            // children to switch providers.
            let join_ms = 20 * j as u64 + rng.next() % 200;
            let mut node = MultiZoneNode::new(zcfg.clone(), j as u64, Arc::clone(&zone), me);
            if j % 5 == 3 {
                node = node.leaving_at(SimTime::from_millis(4_000 + rng.next() % 2_000));
            }
            if matches!(world, World::CorruptRelayer) && z == 0 && j == 0 {
                node = node.with_stripe_fault(StripeFault::Corrupt);
            }
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(ActorOf::<_, NetMsg>::new(node)),
                SimTime::from_millis(join_ms),
            );
        }
    }
    sim.run_until(SimTime::from_secs(10));
    if matches!(world, World::CorruptRelayer) {
        assert!(sim.metrics().counter_total("zone.stripes_rejected") > 0);
    }
    let mut completed = 0u64;
    for id in n_c as u32..(n_c + zones * per_zone) as u32 {
        if let Some(a) = sim.actor_as::<ActorOf<MultiZoneNode, NetMsg>>(NodeId(id)) {
            completed += a.core().completed_blocks;
        }
    }
    (sim.fingerprint(), completed)
}

fn check(world: World, pinned: [(u64, &str, u64); 3]) {
    for (seed, fingerprint, completed) in pinned {
        let got = run_world(seed, world);
        assert_eq!(
            got,
            (fingerprint.to_string(), completed),
            "{world:?} seed {seed}"
        );
    }
}

#[test]
fn churning_world_is_pinned() {
    check(
        World::Churn,
        [
            (11, "91c606ed3db2f6f16cda3d1f2fd580fa", 218),
            (23, "9e93e9fa1e698b151acb3bb738ad3ad7", 209),
            (47, "90d36ad30dea8abd5d6a01281b80c46a", 221),
        ],
    );
}

#[test]
fn churning_world_with_a_corrupting_relayer_is_pinned() {
    check(
        World::CorruptRelayer,
        [
            (11, "19432827ba7d5bcb18e872d84de96a9a", 220),
            (23, "0d56a22d31551ba271fde2cde6aaab95", 209),
            (47, "bd9660b0e2374a5f881e1d012edeae26", 223),
        ],
    );
}

#[test]
fn churning_world_retiring_on_announcement_is_pinned() {
    check(
        World::Announced,
        [
            (11, "78ddaca37db3f1c54165a760b56651b4", 221),
            (23, "9d99b75fae80d65d31f0967a8056374b", 219),
            (47, "734735fe64bbd22a2f923839e0d8dafa", 226),
        ],
    );
}
