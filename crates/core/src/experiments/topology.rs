//! The combined consensus + dissemination experiment (Fig. 7): P-PBFT
//! consensus nodes that *also* serve the full-node network out of the same
//! upload links, under either the star topology (full blocks to every
//! assigned full node — cost grows with the full-node count) or Multi-Zone
//! (one stripe to ~one relayer per zone — cost stays O(n_c)).

use std::sync::Arc;

use predis_consensus::planes::PredisPlane;
use predis_consensus::{ClientCore, ConsMsg, ConsensusConfig, PbftNode, Roster};
use predis_multizone::{
    round_robin, validate_node_count, validate_stripes, BlockSink, BundleId, MultiZoneNode, NetMsg,
    ZoneConfig, ZoneSource,
};
use predis_sim::prelude::*;
use predis_telemetry::RunReport;
use predis_types::{ClientId, SizedBundle, WireSize};
use serde::{Deserialize, Serialize};

use crate::experiments::world::{validate_committee, validate_window, Setup};
use crate::msg::FlowMsg;

/// Which dissemination duty the consensus nodes carry (Fig. 7 compares
/// star against Multi-Zone; the random topology is excluded there, as in
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistMode {
    /// Send every bundle's full content to each assigned full node.
    Star,
    /// Serve this node's stripe of every bundle to its zone relayers.
    MultiZone {
        /// Number of zones.
        zones: usize,
    },
}

/// A consensus node that both orders transactions (P-PBFT) and serves the
/// full-node dissemination layer from the same upload link.
#[derive(Debug)]
pub struct FlowConsensusNode {
    shell: PbftNode<PredisPlane>,
    duty: Duty,
}

/// What a committee member owes the full-node layer.
#[derive(Debug)]
pub(crate) enum Duty {
    /// Full content to every assigned full node.
    Star { assigned: Vec<NodeId> },
    /// This node's stripe to its zone relayers. Boxed: a ZoneSource (stripe
    /// buffers, subscriber lists, counter handles) dwarfs the star variant.
    Zone { source: Box<ZoneSource> },
}

impl FlowConsensusNode {
    /// Committee member `me` of a flow world: a P-PBFT shell over its own
    /// Predis plane, carrying `duty`.
    pub(crate) fn new(
        me: usize,
        roster: &Roster,
        cfg: &ConsensusConfig,
        duty: Duty,
    ) -> FlowConsensusNode {
        let plane = PredisPlane::new(me, roster.clone(), cfg.clone());
        FlowConsensusNode {
            shell: PbftNode::new(me, roster.clone(), cfg.clone(), plane),
            duty,
        }
    }

    /// The consensus shell (post-run inspection).
    pub fn shell(&self) -> &PbftNode<PredisPlane> {
        &self.shell
    }

    fn distribute(&mut self, ctx: &mut Context<'_, FlowMsg>, bundle: &SizedBundle) {
        let bytes = bundle.wire_size(); // memoized at construction
        let id = bundle.hash().to_u64();
        match &mut self.duty {
            Duty::Star { assigned } => {
                // Star: the full content goes to every assigned full node
                // (block distribution, accounted at bundle granularity).
                let mut net = ctx.narrow::<NetMsg>();
                for &n in assigned.iter() {
                    net.send(
                        n,
                        NetMsg::FullBlock {
                            block: id,
                            bytes: bytes as u64,
                        },
                    );
                }
            }
            Duty::Zone { source } => {
                source.offer_bundle(
                    &mut ctx.narrow::<NetMsg>(),
                    BundleId { block: id, idx: 0 },
                    bytes as u32,
                );
            }
        }
    }

    fn drain_produced(&mut self, ctx: &mut Context<'_, FlowMsg>) {
        let produced = self.shell.plane_mut().drain_produced();
        for b in produced {
            self.distribute(ctx, &b);
        }
    }
}

impl Actor<FlowMsg> for FlowConsensusNode {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.duty {
                Duty::Star { assigned } => assigned.capacity() * std::mem::size_of::<NodeId>(),
                Duty::Zone { source } => source.approx_size(),
            }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, FlowMsg>) {
        self.shell.start(&mut ctx.narrow::<ConsMsg>());
        self.drain_produced(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FlowMsg>, from: NodeId, msg: FlowMsg) {
        match msg {
            FlowMsg::Cons(c) => {
                // Every bundle this node learns (peers' included) is also
                // disseminated to the full-node layer.
                if let ConsMsg::Bundle(b) = &c {
                    let bundle = b.clone(); // Arc bump, not a body copy
                    self.distribute(ctx, &bundle);
                }

                self.shell.message(&mut ctx.narrow::<ConsMsg>(), from, c);
                self.drain_produced(ctx);
            }
            FlowMsg::Net(n) => {
                if let Duty::Zone { source } = &mut self.duty {
                    source.message(&mut ctx.narrow::<NetMsg>(), from, n);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FlowMsg>, tag: TimerTag) {
        self.shell.timer(&mut ctx.narrow::<ConsMsg>(), tag);
        self.drain_produced(ctx);
    }
}

/// Partition affinity for the parallel engine, derived from the
/// dissemination topology: traffic is densest inside a zone (or a star's
/// assigned set) and between clients and consensus, so those stay on one
/// worker and only stripe/block dissemination crosses partitions. Clients
/// (or swarms) ride with the consensus they submit to.
pub(crate) fn affinity_groups(
    mut core: Vec<NodeId>,
    clients: Vec<NodeId>,
    zones: impl IntoIterator<Item = Vec<NodeId>>,
) -> Vec<Vec<NodeId>> {
    core.extend(clients);
    let mut groups = vec![core];
    groups.extend(zones.into_iter().filter(|g| !g.is_empty()));
    groups
}

/// Bytes the committee (nodes `0..n_c`) uploaded so far.
pub(crate) fn consensus_upload_bytes(sim: &Sim<FlowMsg>, n_c: usize) -> u64 {
    (0..n_c as u32)
        .map(|n| sim.network().bytes_sent(NodeId(n)))
        .sum()
}

/// Parameters of one Fig. 7 run.
///
/// # Examples
///
/// ```no_run
/// use predis::experiments::{DistMode, TopologySetup};
///
/// let r = TopologySetup {
///     n_c: 4,
///     full_nodes: 48,
///     mode: DistMode::MultiZone { zones: 12 },
///     ..Default::default()
/// }
/// .run();
/// println!("consensus sustains {:.0} tx/s while feeding 48 full nodes",
///          r.throughput_tps);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySetup {
    /// Committee size.
    pub n_c: usize,
    /// Number of full nodes served by the consensus layer.
    pub full_nodes: usize,
    /// Dissemination duty.
    pub mode: DistMode,
    /// Fixed transaction generation rate (paper: 26,000 tx/s).
    pub gen_tps: f64,
    /// Number of client nodes producing that load.
    pub clients: usize,
    /// Transaction size in bytes.
    pub tx_size: usize,
    /// Upload bandwidth per node, Mbps.
    pub mbps: u64,
    /// Measurement horizon, simulated seconds.
    pub duration_secs: u64,
    /// Warm-up excluded from throughput.
    pub warmup_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopologySetup {
    fn default() -> Self {
        TopologySetup {
            n_c: 4,
            full_nodes: 24,
            mode: DistMode::MultiZone { zones: 12 },
            gen_tps: 26_000.0,
            clients: 4,
            tx_size: 512,
            mbps: 100,
            duration_secs: 15,
            warmup_secs: 5,
            seed: 1,
        }
    }
}

/// Result of a Fig. 7 run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyResult {
    /// Sustained consensus throughput, tx/s.
    pub throughput_tps: f64,
    /// Bytes the consensus layer uploaded during the run.
    pub consensus_upload_bytes: u64,
}

impl TopologySetup {
    /// Builds, runs, and summarizes the experiment.
    pub fn run(&self) -> TopologyResult {
        Setup::run_with_sim_named(self, "").0
    }

    /// [`Setup::run_with_sim_named`], callable without the trait in scope.
    /// With `duration_secs: 0` it builds the world and stops at time zero.
    pub fn run_with_sim_named(&self, name: &str) -> (TopologyResult, Sim<FlowMsg>) {
        Setup::run_with_sim_named(self, name)
    }

    /// [`Setup::report`], callable without the trait in scope.
    pub fn report(&self, result: &TopologyResult, sim: &Sim<FlowMsg>, name: &str) -> RunReport {
        Setup::report(self, result, sim, name)
    }

    /// Nodes of the built world: the committee, the full nodes, then the
    /// clients (entry-replica submission: at least one client per replica).
    pub fn node_count(&self) -> usize {
        self.n_c + self.full_nodes + self.clients.max(self.n_c)
    }

    /// Rejects parameters the build cannot wire: an empty committee, zero
    /// bandwidth, zero zones, more Multi-Zone stripes than a stripe mask
    /// holds, more nodes than a simulation holds, or a warm-up that
    /// swallows the run.
    pub fn validate(&self) -> Result<(), String> {
        validate_committee(self.n_c, self.mbps)?;
        // `node_count`, overflow-checked.
        let nodes = (self.n_c.checked_add(self.full_nodes))
            .and_then(|n| n.checked_add(self.clients.max(self.n_c)));
        validate_node_count(nodes, "n_c, full_nodes and clients")?;
        if let DistMode::MultiZone { zones } = self.mode {
            if zones == 0 {
                return Err("mode: zones must be at least 1".into());
            }
            validate_stripes(self.n_c)?;
        }
        validate_window(self.warmup_secs, self.duration_secs)
    }
}

impl Setup for TopologySetup {
    type Msg = FlowMsg;
    type Result = TopologyResult;

    fn build(&self) -> Sim<FlowMsg> {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<FlowMsg> = Sim::new(self.seed, network);
        let link = LinkConfig::paper_default().with_mbps(self.mbps);
        let first_client = self.n_c + self.full_nodes;
        let cons: Vec<NodeId> = (0..self.n_c as u32).map(NodeId).collect();
        let fulls: Vec<NodeId> = (self.n_c as u32..first_client as u32).map(NodeId).collect();
        let client_ids: Vec<NodeId> = (first_client as u32..self.node_count() as u32)
            .map(NodeId)
            .collect();
        let roster = Roster::new(cons.clone(), client_ids.clone());
        let cfg = ConsensusConfig::default().paced_production(
            self.n_c,
            self.tx_size,
            self.mbps * 1_000_000,
        );
        let zcfg = ZoneConfig::paper(cons.clone());
        // The full nodes each consensus node serves (star) or each zone's
        // members (Multi-Zone): node construction and the partition hint
        // both read them.
        let groups = round_robin(
            &fulls,
            match self.mode {
                DistMode::Star => self.n_c,
                DistMode::MultiZone { zones } => zones,
            },
        );

        // Consensus nodes with their dissemination duty (`groups` is indexed
        // by consensus node only under the star duty).
        #[allow(clippy::needless_range_loop)]
        for me in 0..self.n_c {
            let duty = match self.mode {
                DistMode::Star => Duty::Star {
                    assigned: groups[me].clone(),
                },
                DistMode::MultiZone { .. } => Duty::Zone {
                    source: Box::new(ZoneSource::new(me as u32, zcfg.clone(), None)),
                },
            };
            let node = FlowConsensusNode::new(me, &roster, &cfg, duty);
            sim.add_node(link, Box::new(node), SimTime::ZERO);
        }

        // Full nodes; under Multi-Zone each zone shares one member list.
        let rosters: Vec<Arc<[NodeId]>> = groups.iter().map(|g| g.as_slice().into()).collect();
        for (j, &fnode) in fulls.iter().enumerate() {
            match self.mode {
                DistMode::Star => {
                    sim.add_node(
                        link,
                        Box::new(ActorOf::<_, NetMsg>::new(BlockSink::new())),
                        SimTime::ZERO,
                    );
                }
                DistMode::MultiZone { zones } => {
                    sim.add_node(
                        link,
                        Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                            zcfg.clone(),
                            j as u64,
                            Arc::clone(&rosters[j % zones]),
                            fnode,
                        ))),
                        SimTime::from_millis(5 * j as u64),
                    );
                }
            }
        }

        // Clients.
        let per_client = self.gen_tps / client_ids.len() as f64;
        for c in 0..client_ids.len() {
            let client = ClientCore::new(
                ClientId(c as u32),
                roster.clone(),
                per_client,
                self.tx_size as u32,
            );
            sim.add_node(
                link,
                Box::new(ActorOf::<_, ConsMsg>::new(client)),
                SimTime::ZERO,
            );
        }

        sim.set_partition_hint(affinity_groups(cons, client_ids, groups));
        sim
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.duration_secs)
    }

    fn result(&self, sim: &Sim<FlowMsg>) -> TopologyResult {
        let from = SimTime::from_secs(self.warmup_secs);
        TopologyResult {
            throughput_tps: sim.metrics().throughput_tps(from, self.horizon()),
            consensus_upload_bytes: consensus_upload_bytes(sim, self.n_c),
        }
    }

    fn headline(&self, result: &TopologyResult, report: &mut RunReport) {
        report.set_meta("mode", format!("{:?}", self.mode));
        report.set_meta("n_c", self.n_c);
        report.set_meta("full_nodes", self.full_nodes);
        report.set_meta("seed", self.seed);
        if result.throughput_tps.is_finite() {
            report.set_metric("throughput_tps", result.throughput_tps);
        }
        report.set_metric(
            "consensus_upload_bytes",
            result.consensus_upload_bytes as f64,
        );
    }
}
