//! Long-run hygiene: state that must stay bounded over extended operation
//! actually stays bounded (slots, block trees, cut records, mempool
//! pruning).

use predis::consensus::planes::PredisPlane;
use predis::consensus::{ConsMsg, HotStuffNode, PbftNode};
use predis::experiments::{NetEnv, Protocol, Setup, ThroughputSetup};
use predis::sim::prelude::*;
use predis::types::ChainId;

#[test]
fn pbft_state_stays_bounded_over_a_long_run() {
    let setup = ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: 4,
        clients: 4,
        offered_tps: 8_000.0,
        env: NetEnv::Lan,
        duration_secs: 60,
        warmup_secs: 10,
        seed: 91,
        ..Default::default()
    };
    let sim = setup.run_sim();
    let summary = setup.result(&sim);
    assert!(summary.throughput_tps > 7_000.0);
    for me in 0..4u32 {
        let node = sim
            .actor_as::<ActorOf<PbftNode<PredisPlane>, ConsMsg>>(NodeId(me))
            .unwrap()
            .core();
        // The retention window (256 slots, kept for crash-recovery state
        // transfer) plus in-flight slots bounds memory.
        assert!(
            node.retained_slots() <= 256 + 8 + 2,
            "replica {me} retains {} slots after a minute",
            node.retained_slots()
        );
        assert!(
            node.plane().retained_cuts() <= 1024,
            "replica {me} retains {} cuts",
            node.plane().retained_cuts()
        );
        // Committed bundles are pruned from the mempool: chains hold only
        // the uncommitted suffix.
        let pool = node.plane().mempool();
        for c in 0..4u32 {
            let chain = pool.chain(ChainId(c));
            let backlog = chain.tip().0 - chain.committed().0;
            assert!(
                backlog < 500,
                "replica {me} chain {c}: {backlog} uncommitted bundles piled up"
            );
        }
    }
}

#[test]
fn hotstuff_block_tree_stays_bounded() {
    let setup = ThroughputSetup {
        protocol: Protocol::PHs,
        n_c: 4,
        clients: 4,
        offered_tps: 8_000.0,
        env: NetEnv::Lan,
        duration_secs: 60,
        warmup_secs: 10,
        seed: 93,
        ..Default::default()
    };
    let sim = setup.run_sim();
    let summary = setup.result(&sim);
    assert!(summary.throughput_tps > 7_000.0);
    for me in 0..4u32 {
        let node = sim
            .actor_as::<ActorOf<HotStuffNode<PredisPlane>, ConsMsg>>(NodeId(me))
            .unwrap()
            .core();
        // Retention window (256 blocks for crash-recovery state transfer)
        // plus the live pipeline.
        assert!(
            node.retained_blocks() <= 256 + 16,
            "replica {me} retains {} blocks after hundreds of rounds",
            node.retained_blocks()
        );
        assert!(
            node.executed_blocks() > 200,
            "replica {me} executed too few"
        );
    }
}
