//! The Predis plane's hashing work, pinned as counts rather than timings:
//! a bundle's body is folded by the producer that packs it and by nobody
//! else, and a Predis block is digested a bounded number of times per
//! proposal — whatever the committee size, and on either engine.

use predis::experiments::{NetEnv, Protocol, Setup, ThroughputSetup};
use predis::types::payload_stats::{self, PayloadStats};

/// What one run did, and how much it hashed to do it.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    stats: PayloadStats,
    produced: u64,
    accepted: u64,
    proposals: u64,
}

const N_C: usize = 8;

/// Two simulated seconds of P-PBFT over Predis on `threads` sim threads.
fn run(threads: usize) -> Work {
    let setup = ThroughputSetup {
        protocol: Protocol::PPbft,
        n_c: N_C,
        clients: N_C,
        offered_tps: 8_000.0,
        env: NetEnv::Wan,
        duration_secs: 2,
        warmup_secs: 0,
        seed: 19,
        ..Default::default()
    };
    // Building the world opens this thread's counting epoch.
    let mut sim = setup.build();
    sim.set_sim_threads(threads);
    sim.run_until(setup.horizon());
    assert_eq!(sim.threads_used(), threads, "engine fell back");
    let m = sim.metrics();
    Work {
        stats: payload_stats::snapshot(),
        produced: m.counter("predis.bundles_produced"),
        accepted: m.counter("predis.bundles_accepted"),
        proposals: m.counter("pbft.proposals"),
    }
}

#[test]
fn one_fold_per_bundle_and_bounded_block_digests_on_either_engine() {
    let one = run(1);
    assert!(one.produced > 300, "{one:?}");
    assert!(one.proposals > 10, "{one:?}");
    // Every bundle reached most of the committee; none of those inserts
    // hashed a body.
    assert!(one.accepted > one.produced * (N_C as u64 - 2), "{one:?}");
    assert_eq!(one.stats.body_folds, one.produced, "{one:?}");
    // The leader signs and names its block; a replica takes the identity
    // from the proposal it was handed.
    assert!(
        one.stats.block_digests <= one.proposals * (N_C as u64 + 1),
        "{one:?}"
    );
    assert!(one.stats.block_digests >= one.proposals, "{one:?}");
    assert_eq!(run(2), one);
}
