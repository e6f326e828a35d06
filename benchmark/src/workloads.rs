//! The four workloads: what each one is, why it was chosen, and how its
//! world is built from a seed.

use predis::experiments::{
    DistMode, MegaScaleSetup, NetEnv, Protocol, ThroughputSetup, TopologySetup,
};

/// One benchmark workload. All four are open loops at a fixed offered rate
/// below the knee of their rate sweep (`--sweep-rate`, table in README.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PbftBatch,
    PbftPredis,
    MzFlow,
    MzMega,
}

/// The constants of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Simulated horizon: as short as the stable window allows. Every slice
    /// needs one undisturbed sample for the floor to be true, quiet spells
    /// on a shared host last a second or so, and a short rep fits into one.
    pub horizon_ms: u64,
    /// Prefix excluded from the stable window.
    pub warmup_ms: u64,
    /// Offered rate, tx/s, before the seed's jitter.
    pub nominal_tps: f64,
    /// Sustainability limit on `sim_p99_ms`.
    pub p99_limit_ms: f64,
    /// World builds per set-up batch, sized so a batch takes at least 20 ms.
    pub setup_builds: usize,
    /// Committee size.
    pub n_c: usize,
    /// Transactions per bundle (probe input size).
    pub bundle_txs: usize,
    /// Typical multicast fan-out (probe input size).
    pub fanout: usize,
    /// Full nodes served by the dissemination layer (0: committee only).
    pub full_nodes: usize,
    /// Offered-rate multipliers of `--sweep-rate`.
    pub sweep: [f64; 5],
}

pub const TX_SIZE: usize = 512;

/// Slices of equal simulated time a sliced rep is timed in.
pub const SLICES: u64 = 100;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PbftBatch,
        Workload::PbftPredis,
        Workload::MzFlow,
        Workload::MzMega,
    ];

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            // Vanilla PBFT + BatchPlane, n_c 8, WAN. Client broadcast and
            // vote traffic with trivial actor work: the engine does most of
            // the work; Predis, mempool and multizone do none.
            Workload::PbftBatch => Spec {
                name: "pbft_batch",
                horizon_ms: 25_000,
                warmup_ms: 5_000,
                nominal_tps: 2_000.0,
                p99_limit_ms: 150.0,
                setup_builds: 1_000,
                n_c: 8,
                bundle_txs: 50,
                fanout: 7,
                full_nodes: 0,
                sweep: [0.5, 1.0, 1.5, 1.75, 2.0],
            },
            // P-PBFT + PredisPlane, n_c 8, WAN. Bundle production, mempool,
            // types and crypto dominate; multizone does none.
            Workload::PbftPredis => Spec {
                name: "pbft_predis",
                horizon_ms: 10_000,
                warmup_ms: 2_000,
                nominal_tps: 20_000.0,
                p99_limit_ms: 300.0,
                setup_builds: 800,
                n_c: 8,
                bundle_txs: 50,
                fanout: 7,
                full_nodes: 0,
                sweep: [0.5, 1.0, 1.25, 1.5, 2.0],
            },
            // Fig. 7 shape: 12 zones, 48 full nodes, n_c 4, LAN. The
            // multizone stripe/relayer path on a small dense world on top of
            // the Predis plane.
            Workload::MzFlow => Spec {
                name: "mz_flow",
                horizon_ms: 15_000,
                warmup_ms: 3_000,
                nominal_tps: 3_000.0,
                p99_limit_ms: 500.0,
                setup_builds: 200,
                n_c: 4,
                bundle_txs: 50,
                fanout: 4,
                full_nodes: 48,
                sweep: [0.5, 1.0, 1.5, 1.75, 2.0],
            },
            // Fig. 9 shape: 10 zones x 250 full nodes, swarm clients,
            // 400-tx bundles, 2 Gbps. The same multizone layer on a large
            // sparse world (2 500 actors, deep timer wheel).
            Workload::MzMega => Spec {
                name: "mz_mega",
                // The last tenth of the full nodes is still joining when the
                // window opens; the committee, whose clients the simulated
                // metrics describe, is steady long before.
                horizon_ms: 3_000,
                warmup_ms: 1_800,
                nominal_tps: 20_000.0,
                p99_limit_ms: 600.0,
                setup_builds: 4,
                n_c: 4,
                bundle_txs: 400,
                fanout: 24,
                full_nodes: 2_500,
                sweep: [0.5, 1.0, 2.0, 3.0, 4.0],
            },
        }
    }

    /// The offered rate of a run, the one input made from the seed: drawn
    /// within +-0.25 % of the nominal rate, so every seed is another arrival
    /// schedule while the rate-proportional metrics stay within a fraction
    /// of their bounds.
    pub fn offered_tps(self, seed: u64, rate_mult: f64) -> f64 {
        let unit = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
        self.spec().nominal_tps * rate_mult * (1.0 + (unit - 0.5) * 0.005)
    }

    /// Parameters of the two committee-only worlds.
    ///
    /// All three set-ups keep the simulator seed of the figure point they
    /// are shaped after. That seed drives the world's own randomness (join
    /// order, relayer election), which on `mz_mega` selects among a few
    /// dissemination trees whose allocation counts differ by up to 60 % and
    /// whose wall differs by 25 %: which tree is simulated is a fixed input,
    /// as the zone count is.
    pub fn throughput_setup(self, offered_tps: f64) -> ThroughputSetup {
        let spec = self.spec();
        ThroughputSetup {
            protocol: match self {
                Workload::PbftBatch => Protocol::Pbft,
                _ => Protocol::PPbft,
            },
            n_c: spec.n_c,
            clients: spec.n_c,
            offered_tps,
            tx_size: TX_SIZE,
            bundle_size: spec.bundle_txs,
            env: NetEnv::Wan,
            duration_secs: spec.horizon_ms / 1_000,
            warmup_secs: spec.warmup_ms / 1_000,
            ..ThroughputSetup::default()
        }
    }

    /// Parameters of the Fig. 7 world. `duration_secs: 0` makes
    /// `run_with_sim_named` build the world and stop at time zero, the only
    /// build-only entry the setup exposes.
    pub fn topology_setup(self, offered_tps: f64) -> TopologySetup {
        let spec = self.spec();
        TopologySetup {
            n_c: spec.n_c,
            full_nodes: spec.full_nodes,
            mode: DistMode::MultiZone { zones: 12 },
            gen_tps: offered_tps,
            clients: spec.n_c,
            tx_size: TX_SIZE,
            mbps: 100,
            duration_secs: 0,
            warmup_secs: 0,
            ..TopologySetup::default()
        }
    }

    /// Parameters of the Fig. 9 world (see [`Workload::topology_setup`] for
    /// `duration_secs: 0`).
    pub fn megascale_setup(self, offered_tps: f64) -> MegaScaleSetup {
        let spec = self.spec();
        let defaults = MegaScaleSetup::default();
        let users = defaults.users_per_zone as f64 * 10.0;
        MegaScaleSetup {
            n_c: spec.n_c,
            zones: 10,
            zone_size: spec.full_nodes / 10,
            per_user_tps: offered_tps / users,
            tx_size: TX_SIZE,
            bundle_txs: spec.bundle_txs,
            duration_secs: 0,
            warmup_secs: 0,
            ..defaults
        }
    }
}

pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_moves_the_rate_by_at_most_a_quarter_percent() {
        for w in Workload::ALL {
            let nominal = w.spec().nominal_tps;
            let rates: Vec<f64> = (0..64).map(|s| w.offered_tps(s, 1.0)).collect();
            assert!(rates.iter().all(|r| (r / nominal - 1.0).abs() <= 0.0025));
            assert!(rates.iter().any(|r| *r != rates[0]));
            assert_eq!(w.offered_tps(7, 1.0), w.offered_tps(7, 1.0));
        }
    }

    #[test]
    fn names_resolve_and_slices_divide_every_horizon() {
        for w in Workload::ALL {
            let spec = w.spec();
            assert_eq!(Workload::by_name(spec.name), Some(w));
            // Slices are whole milliseconds and the warm-up ends on a slice
            // edge, at full size and at the smoke run's tenth.
            assert_eq!(spec.horizon_ms % (10 * SLICES), 0);
            assert_eq!(spec.warmup_ms % (spec.horizon_ms / SLICES), 0);
            assert!(spec.warmup_ms < spec.horizon_ms);
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
