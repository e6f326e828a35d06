//! Throughput–latency experiment runner (Fig. 4, Fig. 5, Fig. 6).
//!
//! Wires a committee of any evaluated protocol plus open-loop clients into
//! a simulated LAN or WAN, runs to a horizon, and summarizes sustained
//! throughput and client latency over the stable window.

use predis_consensus::planes::{AckRule, BatchPlane, MicroPlane, PredisPlane};
use predis_consensus::{
    ClientCore, ConsMsg, ConsensusConfig, EquivocatingProducer, HotStuffNode, PbftNode, Roster,
    SilentNode, CLIENT_LATENCY,
};
use predis_sim::prelude::*;
use predis_sim::RunSummary;
use predis_telemetry::RunReport;
use predis_types::ClientId;
use serde::{Deserialize, Serialize};

use crate::experiments::world::{validate_committee, validate_window, Setup};

/// The protocols of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Vanilla PBFT with batch proposals.
    Pbft,
    /// Predis-based PBFT (P-PBFT).
    PPbft,
    /// Vanilla chained HotStuff with batch proposals.
    HotStuff,
    /// Predis-based HotStuff (P-HS).
    PHs,
    /// Narwhal-lite: microblocks with RBC certificates over HotStuff.
    Narwhal,
    /// Stratus-lite: microblocks with PAB certificates over HotStuff.
    Stratus,
}

impl Protocol {
    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Pbft => "PBFT",
            Protocol::PPbft => "P-PBFT",
            Protocol::HotStuff => "HotStuff",
            Protocol::PHs => "P-HS",
            Protocol::Narwhal => "Narwhal",
            Protocol::Stratus => "Stratus",
        }
    }

    /// True if clients broadcast submissions to every replica (the batch
    /// protocols' classic-PBFT client behaviour).
    pub fn clients_broadcast(self) -> bool {
        matches!(self, Protocol::Pbft | Protocol::HotStuff)
    }
}

/// The paper's two network environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetEnv {
    /// 25 ms uniform one-way latency (`tc`-emulated LAN).
    Lan,
    /// The four-region Chinese WAN.
    Wan,
}

impl NetEnv {
    fn latency(self) -> LatencyModel {
        match self {
            NetEnv::Lan => LatencyModel::lan(),
            NetEnv::Wan => LatencyModel::cn_wan(),
        }
    }
}

/// Byzantine faults to inject (Fig. 6).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Committee indices that are completely silent (case 1: neither
    /// produce bundles nor vote).
    pub silent: Vec<usize>,
    /// Committee indices that produce bundles to only `n_c − f − 1` random
    /// peers and never vote (case 2). Only meaningful for Predis planes.
    pub selective: Vec<usize>,
    /// Committee indices running the §III-E forking attacker
    /// ([`EquivocatingProducer`]): two conflicting bundles per height, each
    /// sent to a disjoint half of the committee. Honest Predis planes must
    /// detect the conflict, gossip the proof, and ban the producer.
    pub equivocators: Vec<usize>,
}

impl FaultSpec {
    /// No faults.
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// True if the committee index is faulty in any way.
    pub fn is_faulty(&self, idx: usize) -> bool {
        self.silent.contains(&idx)
            || self.selective.contains(&idx)
            || self.equivocators.contains(&idx)
    }
}

/// Parameters of one throughput–latency run.
///
/// # Examples
///
/// ```no_run
/// use predis::experiments::{FaultSpec, NetEnv, Protocol, ThroughputSetup};
///
/// // Fig. 6 case 1 at f = 2: two silent members of an 8-node committee.
/// let summary = ThroughputSetup {
///     protocol: Protocol::PPbft,
///     n_c: 8,
///     offered_tps: 40_000.0,
///     env: NetEnv::Lan,
///     faults: FaultSpec { silent: vec![6, 7], ..FaultSpec::none() },
///     ..Default::default()
/// }
/// .run();
/// println!("{:.0} tx/s with two silent members", summary.throughput_tps);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSetup {
    /// Which protocol to run.
    pub protocol: Protocol,
    /// Committee size `n_c`.
    pub n_c: usize,
    /// Number of client nodes.
    pub clients: usize,
    /// Total offered load across all clients, tx/s.
    pub offered_tps: f64,
    /// Transaction size in bytes (paper: 512).
    pub tx_size: usize,
    /// Transactions per bundle/microblock (paper: 50).
    pub bundle_size: usize,
    /// Transactions per batch proposal (paper: 800).
    pub batch_size: usize,
    /// LAN or WAN.
    pub env: NetEnv,
    /// Random propagation jitter bound, milliseconds (0 = deterministic
    /// propagation, the default). Jitter draws are counter-keyed per-link
    /// streams, so nonzero jitter still runs on the parallel engine and
    /// stays bit-identical across `PREDIS_SIM_THREADS` settings.
    pub jitter_ms: u64,
    /// Upload bandwidth per node, Mbps (paper: 100).
    pub mbps: u64,
    /// Measurement horizon (simulated seconds).
    pub duration_secs: u64,
    /// Stabilization prefix excluded from throughput (simulated seconds).
    pub warmup_secs: u64,
    /// RNG seed.
    pub seed: u64,
    /// Byzantine faults (Fig. 6).
    pub faults: FaultSpec,
    /// Per-replica upload bandwidths in Mbps, overriding `mbps` where set
    /// (Eq. 2's heterogeneous `x_i`; shorter vectors repeat cyclically).
    pub per_node_mbps: Vec<u64>,
    /// Consensus pipelining depth (PBFT in-flight slots).
    pub pipeline: usize,
}

impl Default for ThroughputSetup {
    fn default() -> Self {
        ThroughputSetup {
            protocol: Protocol::PPbft,
            n_c: 4,
            clients: 4,
            offered_tps: 10_000.0,
            tx_size: 512,
            bundle_size: 50,
            batch_size: 800,
            env: NetEnv::Wan,
            jitter_ms: 0,
            mbps: 100,
            duration_secs: 15,
            warmup_secs: 5,
            seed: 1,
            faults: FaultSpec::none(),
            per_node_mbps: Vec::new(),
            pipeline: 8,
        }
    }
}

impl ThroughputSetup {
    /// Builds, runs, and summarizes the experiment.
    pub fn run(&self) -> RunSummary {
        Setup::run_with_sim_named(self, "").0
    }

    /// Builds and runs the experiment, returning the raw simulation for
    /// deeper inspection.
    pub fn run_sim(&self) -> Sim<ConsMsg> {
        Setup::run_with_sim_named(self, "").1
    }

    /// [`Setup::build`] plus the observability switches for a run named
    /// `name` (`""` skips them) — the entry point the repo benchmark drives
    /// in its own time slices.
    pub fn build_sim_named(&self, name: &str) -> Sim<ConsMsg> {
        let mut sim = self.build();
        if !name.is_empty() {
            sim.apply_observability_env(name);
        }
        sim
    }

    /// Snapshots a finished simulation into a [`RunReport`] named `name`:
    /// [`Setup::report`] over the summary [`Setup::result`] reads off `sim`.
    pub fn report(&self, sim: &Sim<ConsMsg>, name: &str) -> RunReport {
        Setup::report(self, &self.result(sim), sim, name)
    }

    /// Nodes of the built world: the committee, then the clients.
    /// Entry-replica submission spreads clients over the committee, so every
    /// replica gets at least one client to have bundles to pack.
    pub fn node_count(&self) -> usize {
        self.n_c + self.clients.max(self.n_c)
    }

    /// Rejects parameters the build cannot wire: an empty committee, zero
    /// bandwidth, a fault index outside the committee, no honest replica
    /// left to record metrics at, or a warm-up that swallows the run.
    pub fn validate(&self) -> Result<(), String> {
        validate_committee(self.n_c, self.mbps)?;
        if self.per_node_mbps.contains(&0) {
            return Err("per_node_mbps entries must be positive".into());
        }
        let f = &self.faults;
        let mut faulty = f.silent.iter().chain(&f.selective).chain(&f.equivocators);
        if let Some(i) = faulty.find(|&&i| i >= self.n_c) {
            return Err(format!(
                "faults name replica {i}, outside n_c = {}",
                self.n_c
            ));
        }
        if (0..self.n_c).all(|i| f.is_faulty(i)) {
            return Err(format!(
                "faults leave no honest replica among n_c = {}",
                self.n_c
            ));
        }
        validate_window(self.warmup_secs, self.duration_secs)
    }

    fn build_replica(
        &self,
        me: usize,
        roster: &Roster,
        cfg: &ConsensusConfig,
    ) -> Box<dyn Actor<ConsMsg>> {
        if self.faults.silent.contains(&me) {
            return Box::new(SilentNode);
        }
        if self.faults.equivocators.contains(&me) {
            return Box::new(ActorOf::<_, ConsMsg>::new(EquivocatingProducer::new(
                me,
                roster.clone(),
                cfg.clone(),
            )));
        }
        let selective = self.faults.selective.contains(&me);
        let subset = self.n_c - roster.f() - 1;
        match self.protocol {
            Protocol::Pbft => Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                BatchPlane::new(cfg.batch_size),
            ))),
            Protocol::PPbft => {
                let mut plane = PredisPlane::new(me, roster.clone(), cfg.clone());
                if selective {
                    plane = plane.with_selective_sending(subset);
                }
                let mut node = PbftNode::new(me, roster.clone(), cfg.clone(), plane);
                if selective {
                    node = node.muted();
                }
                Box::new(ActorOf::<_, ConsMsg>::new(node))
            }
            Protocol::HotStuff => Box::new(ActorOf::<_, ConsMsg>::new(HotStuffNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                BatchPlane::new(cfg.batch_size),
            ))),
            Protocol::PHs => {
                let mut plane = PredisPlane::new(me, roster.clone(), cfg.clone());
                if selective {
                    plane = plane.with_selective_sending(subset);
                }
                let mut node = HotStuffNode::new(me, roster.clone(), cfg.clone(), plane);
                if selective {
                    node = node.muted();
                }
                Box::new(ActorOf::<_, ConsMsg>::new(node))
            }
            Protocol::Narwhal => Box::new(ActorOf::<_, ConsMsg>::new(HotStuffNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                MicroPlane::new(me, roster.clone(), cfg.clone(), AckRule::ReliableBroadcast),
            ))),
            Protocol::Stratus => Box::new(ActorOf::<_, ConsMsg>::new(HotStuffNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                MicroPlane::new(me, roster.clone(), cfg.clone(), AckRule::ProvablyAvailable),
            ))),
        }
    }
}

impl Setup for ThroughputSetup {
    type Msg = ConsMsg;
    type Result = RunSummary;

    fn build(&self) -> Sim<ConsMsg> {
        let network = Network::new(self.env.latency(), SimDuration::from_millis(self.jitter_ms));
        let mut sim: Sim<ConsMsg> = Sim::new(self.seed, network);
        let n_clients = self.node_count() - self.n_c;
        let cons: Vec<NodeId> = (0..self.n_c as u32).map(NodeId).collect();
        let clients: Vec<NodeId> = (self.n_c as u32..self.node_count() as u32)
            .map(NodeId)
            .collect();
        let roster = Roster::new(cons, clients);
        let mut cfg = ConsensusConfig {
            bundle_size: self.bundle_size,
            batch_size: self.batch_size,
            pipeline: self.pipeline,
            ..ConsensusConfig::default()
        }
        .paced_production(self.n_c, self.tx_size, self.mbps * 1_000_000);
        // Record metrics at the first honest replica.
        cfg.metrics_replica = (0..self.n_c)
            .find(|&i| !self.faults.is_faulty(i))
            .expect("at least one honest replica (see ThroughputSetup::validate)");

        let region_of = |i: usize| match self.env {
            NetEnv::Lan => Region(0),
            NetEnv::Wan => Region((i % 4) as u8),
        };
        let link = LinkConfig::paper_default().with_mbps(self.mbps);
        for me in 0..self.n_c {
            let mbps = if self.per_node_mbps.is_empty() {
                self.mbps
            } else {
                self.per_node_mbps[me % self.per_node_mbps.len()]
            };
            // Production pacing follows the node's own uplink (Eq. 1's x_i).
            let mut node_cfg = cfg.clone();
            if mbps != self.mbps {
                node_cfg = node_cfg.paced_production(self.n_c, self.tx_size, mbps * 1_000_000);
            }
            let actor = self.build_replica(me, &roster, &node_cfg);
            sim.add_node(
                link.with_mbps(mbps).in_region(region_of(me)),
                actor,
                SimTime::ZERO,
            );
        }
        let per_client = self.offered_tps / n_clients as f64;
        for c in 0..n_clients {
            let mut client = ClientCore::new(
                ClientId(c as u32),
                roster.clone(),
                per_client,
                self.tx_size as u32,
            );
            if self.protocol.clients_broadcast() {
                client = client.broadcast_submissions();
            }
            sim.add_node(
                link.in_region(region_of(self.n_c + c)),
                Box::new(ActorOf::<_, ConsMsg>::new(client)),
                SimTime::ZERO,
            );
        }
        sim
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.duration_secs)
    }

    fn result(&self, sim: &Sim<ConsMsg>) -> RunSummary {
        let from = SimTime::from_secs(self.warmup_secs);
        let to = self.horizon();
        let metrics = sim.metrics();
        let ms = |d: Option<SimDuration>| d.map_or(f64::NAN, |d| d.as_millis_f64());
        RunSummary {
            throughput_tps: metrics.throughput_tps(from, to),
            mean_latency_ms: ms(metrics.latency_mean(CLIENT_LATENCY)),
            p50_latency_ms: ms(metrics.latency_percentile(CLIENT_LATENCY, 0.5)),
            p99_latency_ms: ms(metrics.latency_percentile(CLIENT_LATENCY, 0.99)),
            committed_txs: metrics.committed_txs_in(from, to),
        }
    }

    fn headline(&self, summary: &RunSummary, report: &mut RunReport) {
        report.set_meta("protocol", self.protocol.name());
        report.set_meta("n_c", self.n_c);
        report.set_meta("env", format!("{:?}", self.env).to_lowercase());
        report.set_meta("seed", self.seed);
        report.set_meta("offered_tps", format!("{:.0}", self.offered_tps));
        let mut put = |k: &str, v: f64| {
            if v.is_finite() {
                report.set_metric(k, v);
            }
        };
        put("throughput_tps", summary.throughput_tps);
        put("mean_latency_ms", summary.mean_latency_ms);
        put("p50_latency_ms", summary.p50_latency_ms);
        put("p99_latency_ms", summary.p99_latency_ms);
        put("committed_txs", summary.committed_txs as f64);
    }
}
