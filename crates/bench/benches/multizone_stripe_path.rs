//! The `NetMsg::Stripe` arm of `MultiZoneNode` — the hottest callback of
//! the Fig. 7 / Fig. 9 worlds, and what `multizone.ns_per_delivery` of the
//! repo benchmark mostly measures — in isolation: one full node with no
//! children already tracks 16 / 4 096 / 65 536 blocks and is handed the
//! four stripes (`n_c` 4, `k` 3) of 2 500 fresh single-bundle blocks. One
//! iteration delivers the 10 000 queued stripes, so a tenth of µs/iter
//! reads as ns per stripe — queue pop and dispatch included, and the one
//! memory sample that ends a `run_until` (a walk over the table: ~30 ns
//! per stripe at 65 536).
//!
//! Block ids are bundle digests under the consensus duty and counters
//! under the synthetic loads; `retire` is `ZoneConfig::retire_unannounced`
//! (on in Fig. 9: a block leaves at its fourth stripe; off in Fig. 7: it
//! stays, so the table ends the iteration 2 500 blocks larger).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use predis_multizone::{BundleId, MultiZoneNode, NetMsg, ZoneConfig};
use predis_sim::prelude::*;

const FRESH_BLOCKS: u64 = 2_500;

/// How the `n`-th block of a run is named.
type BlockIds = fn(u64) -> u64;

/// Ids as the consensus duty mints them: `bundle.hash().to_u64()`.
fn digest(n: u64) -> u64 {
    predis_crypto::Hash::digest(&n.to_le_bytes()).to_u64()
}

fn stripe(block: u64, stripe: u32) -> NetMsg {
    NetMsg::Stripe {
        bundle: BundleId { block, idx: 0 },
        stripe,
        k: 3,
        bytes: 8_534,
        corrupt: false,
    }
}

/// A lone full node holding the first stripe of `tracked` blocks, with the
/// stripes of the fresh blocks queued behind them — all inside the first
/// maintenance period (no sweep, no compaction).
fn node_tracking(tracked: u64, id: BlockIds, retire: bool) -> Sim<NetMsg> {
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<NetMsg> = Sim::new(3, network);
    let cfg = ZoneConfig {
        retire_unannounced: retire,
        ..ZoneConfig::paper((10..14).map(NodeId).collect())
    };
    let me = NodeId(0);
    let core = MultiZoneNode::new(cfg, 0, vec![me].into(), me);
    let node = sim.add_node(
        LinkConfig::paper_default(),
        Box::new(ActorOf::<_, NetMsg>::new(core)),
        SimTime::ZERO,
    );
    for n in 0..tracked {
        let at = SimTime::from_nanos(1_000_000 + n * 100);
        sim.inject(node, NodeId(9), stripe(id(n), 0), at);
    }
    sim.run_until(SimTime::from_millis(10));
    for n in 0..FRESH_BLOCKS * 4 {
        let at = SimTime::from_nanos(20_000_000 + n * 1_000);
        let fresh = stripe(id(tracked + n / 4), (n % 4) as u32);
        sim.inject(node, NodeId(9), fresh, at);
    }
    sim
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("multizone_stripe_path");
    let ids: [(&str, BlockIds); 2] = [("digest", digest), ("sequential", |n| n)];
    for tracked in [16u64, 4_096, 65_536] {
        for (id_name, id) in ids {
            for retire in [false, true] {
                let name = format!("tracked{tracked}_{id_name}_retire_{retire}");
                // Finished worlds are dropped after the clock stops.
                let mut spent = Vec::new();
                g.bench_function(name, |b| {
                    b.iter_batched(
                        || node_tracking(tracked, id, retire),
                        |mut sim| {
                            sim.run_until(SimTime::from_millis(30));
                            spent.push(sim);
                        },
                        BatchSize::LargeInput,
                    )
                });
            }
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
