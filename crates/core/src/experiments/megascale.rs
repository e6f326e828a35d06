//! The mega-scale dissemination experiment (Fig. 9): Multi-Zone fan-out
//! pushed to 10^5 full nodes, with per-zone [`ClientSwarm`]s standing in
//! for millions of users as aggregate arrival processes.
//!
//! Two properties are on trial as `zones x zone_size` grows:
//!
//! * **flat consensus upload** — each consensus node serves one stripe to
//!   at most `max_children` relayers per zone, so its upload cost is a
//!   function of the *zone count*, not the full-node population;
//! * **bounded per-node memory** — every full node is a struct-of-arrays
//!   [`MultiZoneNode`] sharing its zone roster behind one `Arc`, and the
//!   engine's `mem.bytes_per_node` metric (peak Σ `Actor::approx_bytes`
//!   over live actors, divided by the actor count) must stay under the CI
//!   budget (4 KiB) at every grid point.

use std::sync::Arc;

use predis_consensus::{ClientSwarm, ConsMsg, ConsensusConfig, FlashCrowd, Roster};
use predis_multizone::{
    validate_node_count, validate_stripes, MultiZoneNode, NetMsg, SubCap, ZoneConfig, ZoneSource,
};
use predis_sim::prelude::*;
use predis_telemetry::RunReport;
use predis_types::ClientId;
use serde::{Deserialize, Serialize};

use crate::experiments::topology::{
    affinity_groups, consensus_upload_bytes, Duty, FlowConsensusNode,
};
use crate::experiments::world::{validate_committee, validate_window, Setup};
use crate::msg::FlowMsg;

/// Parameters of one Fig. 9 run.
///
/// # Examples
///
/// ```no_run
/// use predis::experiments::MegaScaleSetup;
///
/// let r = MegaScaleSetup {
///     zones: 10,
///     zone_size: 1_000,
///     ..Default::default()
/// }
/// .run();
/// println!(
///     "{} full nodes at {:.0} tx/s, {} B/node resident",
///     r.full_nodes, r.throughput_tps, r.bytes_per_node
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MegaScaleSetup {
    /// Committee size.
    pub n_c: usize,
    /// Number of zones; consensus upload scales with this, not with the
    /// full-node count.
    pub zones: usize,
    /// Full nodes per zone (total full nodes = `zones * zone_size`).
    pub zone_size: usize,
    /// Users modeled by each zone's [`ClientSwarm`] arrival process.
    pub users_per_zone: u64,
    /// Mean offered rate per user, tx/s (aggregate per zone =
    /// `users_per_zone * per_user_tps`).
    pub per_user_tps: f64,
    /// Draw per-tick arrivals from a Poisson distribution instead of the
    /// deterministic fractional accumulator.
    pub poisson: bool,
    /// Flash-crowd start, simulated seconds (0 disables the ramp).
    pub crowd_at_secs: u64,
    /// Flash-crowd ramp length, seconds (rate climbs linearly).
    pub crowd_ramp_secs: u64,
    /// Flash-crowd peak rate multiplier.
    pub crowd_peak_mult: f64,
    /// Transaction size in bytes.
    pub tx_size: usize,
    /// Transactions per bundle. Larger bundles than the paper's 50-tx
    /// default keep the *simulation* tractable at 10^5 nodes: total event
    /// count scales with `bundle rate x full_nodes`, and the bundle rate
    /// is `offered tps / bundle_txs`.
    pub bundle_txs: usize,
    /// Upload bandwidth per node, Mbps. Consensus uplinks carry bundle
    /// multicast *and* stripe serving to every zone, and a relayer with a
    /// full child list forwards its stripe at `max_children x` the stripe
    /// rate, so the mega-scale default is a datacenter-grade 2 Gbps
    /// rather than fig7's 100 Mbps.
    pub mbps: u64,
    /// Measurement horizon, simulated seconds.
    pub duration_secs: u64,
    /// Warm-up excluded from throughput.
    pub warmup_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MegaScaleSetup {
    fn default() -> Self {
        MegaScaleSetup {
            n_c: 4,
            zones: 10,
            zone_size: 100,
            users_per_zone: 100_000,
            per_user_tps: 0.02,
            poisson: true,
            crowd_at_secs: 0,
            crowd_ramp_secs: 2,
            crowd_peak_mult: 1.0,
            tx_size: 512,
            bundle_txs: 400,
            mbps: 2_000,
            duration_secs: 10,
            warmup_secs: 3,
            seed: 9,
        }
    }
}

/// Result of a Fig. 9 run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MegaScaleResult {
    /// Sustained consensus throughput, tx/s.
    pub throughput_tps: f64,
    /// Bytes the consensus layer uploaded during the run (must stay flat
    /// in `zone_size`).
    pub consensus_upload_bytes: u64,
    /// Total full nodes simulated (`zones * zone_size`).
    pub full_nodes: usize,
    /// Peak Σ `Actor::approx_bytes` over all live actors.
    pub peak_actor_bytes: u64,
    /// `peak_actor_bytes` divided by the actor count — the number the CI
    /// memory gate bounds.
    pub bytes_per_node: u64,
}

impl MegaScaleSetup {
    /// Total full nodes of the grid point.
    pub fn full_nodes(&self) -> usize {
        self.zones * self.zone_size
    }

    /// Nodes of the built world: the committee, the full nodes in
    /// zone-contiguous id blocks, then one client swarm per zone.
    pub fn node_count(&self) -> usize {
        self.n_c + self.full_nodes() + self.zones
    }

    /// Builds, runs, and summarizes the experiment.
    pub fn run(&self) -> MegaScaleResult {
        Setup::run_with_sim_named(self, "").0
    }

    /// [`Setup::run_with_sim_named`], callable without the trait in scope.
    /// With `duration_secs: 0` it builds the world and stops at time zero.
    pub fn run_with_sim_named(&self, name: &str) -> (MegaScaleResult, Sim<FlowMsg>) {
        Setup::run_with_sim_named(self, name)
    }

    /// [`Setup::report`], callable without the trait in scope.
    pub fn report(&self, result: &MegaScaleResult, sim: &Sim<FlowMsg>, name: &str) -> RunReport {
        Setup::report(self, result, sim, name)
    }

    /// Rejects parameters the build cannot wire: an empty committee, more
    /// stripes than a stripe mask holds, zero bandwidth, zero zones, more
    /// nodes than a simulation holds, or a warm-up that swallows the run.
    pub fn validate(&self) -> Result<(), String> {
        validate_committee(self.n_c, self.mbps)?;
        validate_stripes(self.n_c)?;
        if self.zones < 1 {
            return Err("zones must be at least 1".into());
        }
        // `node_count`, overflow-checked: each zone is its full nodes plus
        // one swarm.
        let nodes = (self.zone_size.checked_add(1))
            .and_then(|per_zone| self.zones.checked_mul(per_zone))
            .and_then(|n| n.checked_add(self.n_c));
        validate_node_count(nodes, "n_c, zones and zone_size")?;
        validate_window(self.warmup_secs, self.duration_secs)
    }
}

impl Setup for MegaScaleSetup {
    type Msg = FlowMsg;
    type Result = MegaScaleResult;

    fn build(&self) -> Sim<FlowMsg> {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<FlowMsg> = Sim::new(self.seed, network);
        let link = LinkConfig::paper_default().with_mbps(self.mbps);
        let first_swarm = self.n_c + self.full_nodes();
        let cons: Vec<NodeId> = (0..self.n_c as u32).map(NodeId).collect();
        // One swarm actor per zone stands in for that zone's user base.
        let swarm_ids: Vec<NodeId> = (first_swarm as u32..self.node_count() as u32)
            .map(NodeId)
            .collect();
        let roster = Roster::new(cons.clone(), swarm_ids.clone());
        // Large bundles and a relaxed ack heartbeat keep the bundle rate
        // demand-bound: every bundle fans out to all `zones x zone_size`
        // full nodes, so the bundle rate — not the tx rate — is what the
        // simulation's event count scales with.
        let cfg = ConsensusConfig {
            bundle_size: self.bundle_txs,
            heartbeat: SimDuration::from_millis(100),
            ..ConsensusConfig::default()
        }
        .paced_production(self.n_c, self.tx_size, self.mbps * 1_000_000);
        let zcfg = ZoneConfig {
            // The fig9 consensus duty streams bundles but never sends
            // block announcements, so full nodes must retire decoded
            // blocks on their own or grow O(blocks) in-flight state.
            retire_unannounced: true,
            ..ZoneConfig::paper(cons.clone())
        };

        // Consensus nodes, always with the Multi-Zone stripe-serving duty.
        for me in 0..self.n_c {
            // The per-zone cap keeps the join storm off the consensus
            // uplink: at most two direct subscribers per zone per source
            // (Algorithm 2's shedding trims toward one in steady state);
            // the rest are redirected into the zone tree.
            let source = ZoneSource::new(me as u32, zcfg.clone(), None).with_sub_cap(SubCap {
                base: self.n_c as u32,
                zone_size: self.zone_size as u32,
                per_zone: 2,
            });
            let duty = Duty::Zone {
                source: Box::new(source),
            };
            let node = FlowConsensusNode::new(me, &roster, &cfg, duty);
            sim.add_node(link, Box::new(node), SimTime::ZERO);
        }

        // Full nodes: contiguous id blocks per zone, each zone sharing one
        // `Arc<[NodeId]>` roster — membership costs O(1) amortized per node.
        // Joins are staggered over ~2 simulated seconds (wrapping at 400
        // slots so a 10^5-node fleet does not take 8 minutes to assemble).
        let mut zone_members: Vec<Arc<[NodeId]>> = Vec::with_capacity(self.zones);
        for z in 0..self.zones {
            let base = self.n_c + z * self.zone_size;
            let members: Vec<NodeId> = (base as u32..(base + self.zone_size) as u32)
                .map(NodeId)
                .collect();
            zone_members.push(members.into());
        }
        for (z, members) in zone_members.iter().enumerate() {
            for (i, &fnode) in members.iter().enumerate() {
                let j = z * self.zone_size + i;
                sim.add_node(
                    link,
                    Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                        zcfg.clone(),
                        j as u64,
                        members.clone(),
                        fnode,
                    ))),
                    SimTime::from_millis(5 * (j % 400) as u64),
                );
            }
        }

        // Client swarms: one open-loop arrival process per zone.
        for z in 0..self.zones {
            let mut swarm = ClientSwarm::new(
                ClientId(z as u32),
                roster.clone(),
                self.users_per_zone,
                self.per_user_tps,
                self.tx_size as u32,
            );
            if self.poisson {
                swarm = swarm.poisson_arrivals();
            }
            if self.crowd_at_secs > 0 && self.crowd_peak_mult > 1.0 {
                swarm = swarm.with_flash_crowd(FlashCrowd {
                    at: SimTime::from_secs(self.crowd_at_secs),
                    ramp: SimDuration::from_secs(self.crowd_ramp_secs.max(1)),
                    peak_mult: self.crowd_peak_mult,
                });
            }
            sim.add_node(
                link,
                Box::new(ActorOf::<_, ConsMsg>::new(swarm)),
                SimTime::ZERO,
            );
        }

        let zones = zone_members.iter().map(|m| m.to_vec());
        sim.set_partition_hint(affinity_groups(cons, swarm_ids, zones));
        sim
    }

    fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.duration_secs)
    }

    fn result(&self, sim: &Sim<FlowMsg>) -> MegaScaleResult {
        let from = SimTime::from_secs(self.warmup_secs);
        let peak = sim.peak_actor_bytes();
        MegaScaleResult {
            throughput_tps: sim.metrics().throughput_tps(from, self.horizon()),
            consensus_upload_bytes: consensus_upload_bytes(sim, self.n_c),
            full_nodes: self.full_nodes(),
            peak_actor_bytes: peak,
            bytes_per_node: peak / self.node_count() as u64,
        }
    }

    fn headline(&self, result: &MegaScaleResult, report: &mut RunReport) {
        report.set_meta("n_c", self.n_c);
        report.set_meta("zones", self.zones);
        report.set_meta("zone_size", self.zone_size);
        report.set_meta("full_nodes", result.full_nodes);
        report.set_meta("users", self.users_per_zone * self.zones as u64);
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
