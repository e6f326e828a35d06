//! Propagation-experiment wiring (Fig. 8): builds a complete simulated
//! network for one of the three topologies, drives synthetic block load
//! through it, and reports block propagation latency to any fraction of
//! the full-node population.

use std::sync::Arc;

use predis_sim::prelude::*;
use predis_sim::{RunReport, MAX_NODES};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dense::MAX_STRIPES;
use crate::msg::NetMsg;
use crate::random::{FegConfig, FegNode, RandomSource};
use crate::source::{SyntheticLoad, ZoneSource};
use crate::star::{BlockSink, StarSource};
use crate::zone::{MultiZoneNode, ZoneConfig};

/// Which dissemination topology to build.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Consensus nodes push complete blocks to their assigned full nodes.
    Star,
    /// Random graph of the given degree with FEG gossip.
    Random {
        /// Peer-link degree per node (the paper uses 8).
        degree: usize,
        /// FEG parameters (fanout 4 in the paper).
        feg: FegConfig,
    },
    /// Multi-Zone with the given zone count.
    MultiZone {
        /// Number of zones.
        zones: usize,
    },
}

/// The committee-size rule of every world whose full nodes run Multi-Zone:
/// one stripe per consensus node, and a stripe mask holds [`MAX_STRIPES`].
pub fn validate_stripes(n_c: usize) -> Result<(), String> {
    if n_c > MAX_STRIPES {
        return Err(format!(
            "n_c ({n_c}) must be at most {MAX_STRIPES} under Multi-Zone: stripe masks are one word"
        ));
    }
    Ok(())
}

/// The world-size rule of every setup: the built world must fit a
/// simulation ([`MAX_NODES`]). `nodes` is the setup's node count, `None`
/// when computing it overflowed; `fields` names what the setup derives it
/// from.
pub fn validate_node_count(nodes: Option<usize>, fields: &str) -> Result<(), String> {
    match nodes {
        Some(n) if n <= MAX_NODES => Ok(()),
        Some(n) => Err(format!(
            "{fields} describe {n} nodes; a simulation holds at most {MAX_NODES}"
        )),
        None => Err(format!(
            "{fields} describe more nodes than a simulation holds (at most {MAX_NODES})"
        )),
    }
}

/// Deals `nodes` into `n` groups round-robin by index — a star's assignment
/// sets, a Multi-Zone deployment's zone memberships (join order = index
/// order). No groups for `n == 0`.
pub fn round_robin(nodes: &[NodeId], n: usize) -> Vec<Vec<NodeId>> {
    let mut groups = vec![Vec::new(); n];
    if n > 0 {
        for (j, &node) in nodes.iter().enumerate() {
            groups[j % n].push(node);
        }
    }
    groups
}

/// Parameters of a propagation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationSetup {
    /// Number of consensus nodes (the paper's Fig. 8 uses 8).
    pub n_c: usize,
    /// Number of full nodes (the paper uses 100).
    pub full_nodes: usize,
    /// Block size in bytes (1 MB – 40 MB in the paper).
    pub block_bytes: u64,
    /// Block interval.
    pub interval: SimDuration,
    /// How many blocks to measure.
    pub blocks: u64,
    /// Upload bandwidth per node, Mbps.
    pub mbps: u64,
    /// One-way latency model.
    pub latency: LatencyModel,
    /// Per-node subscriber cap in Multi-Zone (24 in the paper, matching
    /// the random topology's bandwidth budget).
    pub max_children: usize,
    /// With a regional latency model: align zones with regions (the
    /// paper's locality-based zone division, §IV-A "west-coast or
    /// east-coast zones") instead of scattering each zone across regions.
    pub locality_zones: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PropagationSetup {
    fn default() -> Self {
        PropagationSetup {
            n_c: 8,
            full_nodes: 100,
            block_bytes: 5_000_000,
            interval: SimDuration::from_secs(5),
            blocks: 10,
            mbps: 100,
            latency: LatencyModel::lan(),
            max_children: 24,
            locality_zones: false,
            seed: 1,
        }
    }
}

/// Result of a propagation run: per-fraction mean latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationResult {
    /// Mean time for a block to reach 50% of full nodes, milliseconds.
    pub to_50_ms: f64,
    /// Mean time to reach 90%.
    pub to_90_ms: f64,
    /// Mean time to reach 100%.
    pub to_100_ms: f64,
    /// Blocks that reached 100% of full nodes within the run.
    pub complete_blocks: u64,
    /// Blocks produced.
    pub produced_blocks: u64,
}

impl PropagationSetup {
    fn load(&self) -> SyntheticLoad {
        // Bundle granularity: the paper's 50x512B bundles, coarsened for
        // simulation efficiency on very large blocks (bandwidth identical).
        let bundles = (self.block_bytes / 25_600).clamp(1, 160) as u32;
        let mut load = SyntheticLoad::for_block_size(self.block_bytes, bundles, self.interval);
        load.blocks = self.blocks;
        load
    }

    /// Builds and runs the experiment, returning per-fraction latencies.
    pub fn run(&self, topology: &Topology) -> PropagationResult {
        let mut sim = self.build(topology);
        sim.run_named("", self.horizon());
        self.result(&sim)
    }

    /// Nodes of the built world: the block sources, then the full nodes.
    pub fn node_count(&self) -> usize {
        self.n_c + self.full_nodes
    }

    /// Rejects parameters [`PropagationSetup::build`] cannot wire: no block
    /// source, zero bandwidth, zero zones, more Multi-Zone stripes than a
    /// stripe mask holds, or more nodes than a simulation holds.
    pub fn validate(&self, topology: &Topology) -> Result<(), String> {
        if self.n_c < 1 {
            return Err("n_c must be at least 1".into());
        }
        if self.mbps == 0 {
            return Err("mbps must be positive".into());
        }
        validate_node_count(self.n_c.checked_add(self.full_nodes), "n_c and full_nodes")?;
        if let Topology::MultiZone { zones } = topology {
            if *zones == 0 {
                return Err("zones must be at least 1".into());
            }
            validate_stripes(self.n_c)?;
        }
        Ok(())
    }

    /// How far a run goes: the load's start, every block interval plus
    /// three, and a 30 s drain.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + self.load().start_at
            + self.interval * (self.blocks + 3)
            + SimDuration::from_secs(30)
    }

    /// Adds the run parameters and the per-fraction latencies of `result`
    /// to `report` (unmeasured fractions are omitted, not stored as `NaN`).
    pub fn headline(&self, result: &PropagationResult, report: &mut RunReport) {
        report.set_meta("n_c", self.n_c);
        report.set_meta("full_nodes", self.full_nodes);
        report.set_meta("block_bytes", self.block_bytes);
        report.set_meta("seed", self.seed);
        let mut put = |k: &str, v: f64| {
            if v.is_finite() {
                report.set_metric(k, v);
            }
        };
        put("to_50_ms", result.to_50_ms);
        put("to_90_ms", result.to_90_ms);
        put("to_100_ms", result.to_100_ms);
        put("complete_blocks", result.complete_blocks as f64);
        put("produced_blocks", result.produced_blocks as f64);
    }

    /// Wires the network for `topology` without running it.
    pub fn build(&self, topology: &Topology) -> Sim<NetMsg> {
        let network = Network::new(self.latency.clone(), SimDuration::from_nanos(0));
        let mut sim: Sim<NetMsg> = Sim::new(self.seed, network);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xfeed_beef);
        let link = LinkConfig::paper_default().with_mbps(self.mbps);
        let regionize = |i: usize| match &self.latency {
            LatencyModel::Uniform(_) => Region(0),
            LatencyModel::Regional { matrix } => Region((i % matrix.len()) as u8),
        };
        let total = self.node_count();
        let cons: Vec<NodeId> = (0..self.n_c as u32).map(NodeId).collect();
        let fulls: Vec<NodeId> = (self.n_c as u32..total as u32).map(NodeId).collect();
        let load = self.load();
        // Star assignment sets or zone memberships: node construction and
        // the partition hint both read them.
        let groups = round_robin(
            &fulls,
            match topology {
                Topology::Star => self.n_c,
                Topology::MultiZone { zones } => *zones,
                Topology::Random { .. } => 0,
            },
        );

        match topology {
            Topology::Star => {
                for (i, assigned) in groups.iter().enumerate() {
                    sim.add_node(
                        link.in_region(regionize(i)),
                        Box::new(ActorOf::<_, NetMsg>::new(StarSource::new(
                            assigned.clone(),
                            load.clone(),
                        ))),
                        SimTime::ZERO,
                    );
                }
                for (j, _) in fulls.iter().enumerate() {
                    sim.add_node(
                        link.in_region(regionize(self.n_c + j)),
                        Box::new(ActorOf::<_, NetMsg>::new(BlockSink::new())),
                        SimTime::ZERO,
                    );
                }
            }
            Topology::Random { degree, feg } => {
                // Undirected random graph: each node picks `degree` peers;
                // adjacency is the union of picks.
                let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); total];
                let all: Vec<NodeId> = (0..total as u32).map(NodeId).collect();
                for i in 0..total {
                    let mut others: Vec<NodeId> =
                        all.iter().copied().filter(|n| n.index() != i).collect();
                    others.shuffle(&mut rng);
                    for &peer in others.iter().take(*degree) {
                        if !adj[i].contains(&peer) {
                            adj[i].push(peer);
                        }
                        if !adj[peer.index()].contains(&all[i]) {
                            adj[peer.index()].push(all[i]);
                        }
                    }
                }
                for (i, peers) in adj.iter().take(self.n_c).enumerate() {
                    sim.add_node(
                        link.in_region(regionize(i)),
                        Box::new(ActorOf::<_, NetMsg>::new(RandomSource::new(
                            peers.clone(),
                            *feg,
                            load.clone(),
                        ))),
                        SimTime::ZERO,
                    );
                }
                for j in 0..self.full_nodes {
                    let idx = self.n_c + j;
                    sim.add_node(
                        link.in_region(regionize(idx)),
                        Box::new(ActorOf::<_, NetMsg>::new(FegNode::new(
                            adj[idx].clone(),
                            *feg,
                        ))),
                        SimTime::ZERO,
                    );
                }
            }
            Topology::MultiZone { zones } => {
                let zcfg = ZoneConfig {
                    max_children: self.max_children,
                    ..ZoneConfig::paper(cons.clone())
                };
                for i in 0..self.n_c {
                    sim.add_node(
                        link.in_region(regionize(i)),
                        Box::new(ActorOf::<_, NetMsg>::new(ZoneSource::new(
                            i as u32,
                            zcfg.clone(),
                            Some(load.clone()),
                        ))),
                        SimTime::ZERO,
                    );
                }
                // Join order = index order, staggered so subscription trees
                // build deterministically.
                let regions = self.latency.region_count();
                let rosters: Vec<Arc<[NodeId]>> =
                    groups.iter().map(|g| g.as_slice().into()).collect();
                for (j, &fnode) in fulls.iter().enumerate() {
                    let zone = j % zones;
                    // Backup connections: two nodes of the next zone.
                    let next_zone = (zone + 1) % zones;
                    let backups: Vec<NodeId> = groups[next_zone].iter().copied().take(2).collect();
                    let roster = Arc::clone(&rosters[zone]);
                    let node = MultiZoneNode::new(zcfg.clone(), j as u64, roster, fnode)
                        .with_backups(backups);
                    // Locality-based division puts a whole zone in one
                    // region, so intra-zone forwarding stays local; the
                    // scattered baseline cycles each zone's members through
                    // the regions instead.
                    let region = if self.locality_zones {
                        Region((zone % regions) as u8)
                    } else {
                        match &self.latency {
                            LatencyModel::Uniform(_) => Region(0),
                            LatencyModel::Regional { .. } => Region(((j / zones) % regions) as u8),
                        }
                    };
                    sim.add_node(
                        link.in_region(region),
                        Box::new(ActorOf::<_, NetMsg>::new(node)),
                        SimTime::from_millis(10 * j as u64),
                    );
                }
            }
        }

        // Partition affinity for the parallel engine: sources form one
        // group (they multicast to each other's duty sets and share the
        // block schedule); each zone (or star assignment set) is its own
        // group so the dense intra-zone forwarding never crosses a worker
        // boundary. The random graph has no exploitable cut — leave it to
        // the planner's default.
        if !groups.is_empty() {
            let mut affinity = vec![cons];
            affinity.extend(groups.into_iter().filter(|g| !g.is_empty()));
            sim.set_partition_hint(affinity);
        }
        sim
    }

    /// Reads the per-block fraction latencies off a finished run, relative
    /// to each block's announcement time (the last bundle tick of the block).
    pub fn result(&self, sim: &Sim<NetMsg>) -> PropagationResult {
        let load = self.load();
        let tick = self.interval / load.bundles_per_block as u64;
        let mut sums = [0f64; 3];
        let mut counts = [0u64; 3];
        let mut complete = 0;
        for block in 0..self.blocks {
            let origin = SimTime::ZERO + load.start_at + self.interval * (block + 1) - tick;
            for (slot, frac) in [(0usize, 0.5f64), (1, 0.9), (2, 1.0)] {
                if let Some(d) =
                    sim.metrics()
                        .propagation_to_fraction(block, origin, self.full_nodes, frac)
                {
                    sums[slot] += d.as_millis_f64();
                    counts[slot] += 1;
                    if frac == 1.0 {
                        complete += 1;
                    }
                }
            }
        }
        let mean = |i: usize| {
            if counts[i] == 0 {
                f64::NAN
            } else {
                sums[i] / counts[i] as f64
            }
        };
        PropagationResult {
            to_50_ms: mean(0),
            to_90_ms: mean(1),
            to_100_ms: mean(2),
            complete_blocks: complete,
            produced_blocks: self.blocks,
        }
    }
}
