//! The random-topology baseline with FEG-style gossip (Fair and Efficient
//! Gossip, the Hyperledger Fabric dissemination protocol the paper uses for
//! its random-topology comparison in Fig. 8).
//!
//! Every node keeps a fixed random neighbour set (degree 8, as in
//! Bitcoin/Ethereum); a node holding a new block *pushes* the full block to
//! `fanout` neighbours and sends a *digest* to the rest, which *pull* the
//! block if they have not received it within a pull delay.

use std::collections::{HashMap, HashSet};

use predis_sim::{
    Codec, CounterHandle, Labels, NarrowContext, NodeId, ProtocolCore, SimDuration, TimerTag,
};
use predis_types::Shared;
use rand::seq::SliceRandom;

use crate::msg::{net_timers, NetMsg};
use crate::source::SyntheticLoad;

/// FEG tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FegConfig {
    /// How many neighbours receive a full-block push.
    pub fanout: usize,
    /// How long a digest-informed node waits before pulling.
    pub pull_delay: SimDuration,
}

impl Default for FegConfig {
    fn default() -> Self {
        FegConfig {
            fanout: 4,
            pull_delay: SimDuration::from_millis(150),
        }
    }
}

/// A full node in the random topology running FEG gossip.
#[derive(Debug)]
pub struct FegNode {
    neighbors: Vec<NodeId>,
    cfg: FegConfig,
    have: HashMap<u64, u64>,
    aware_from: HashMap<u64, NodeId>,
    pulled: HashSet<u64>,
    /// Blocks received (first arrivals).
    pub received: u64,
}

impl FegNode {
    /// Creates a gossip node with a fixed neighbour set.
    pub fn new(neighbors: Vec<NodeId>, cfg: FegConfig) -> FegNode {
        FegNode {
            neighbors,
            cfg,
            have: HashMap::new(),
            aware_from: HashMap::new(),
            pulled: HashSet::new(),
            received: 0,
        }
    }

    fn on_block<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        from: Option<NodeId>,
        block: u64,
        bytes: u64,
    ) {
        if self.have.contains_key(&block) {
            return;
        }
        self.have.insert(block, bytes);
        self.received += 1;
        let now = ctx.now();
        ctx.metrics().mark_arrival(block, now);
        // FEG relay: push to `fanout` random neighbours (excluding the
        // sender), digest to the rest.
        let mut peers: Vec<NodeId> = self
            .neighbors
            .iter()
            .copied()
            .filter(|&n| Some(n) != from)
            .collect();
        peers.shuffle(ctx.rng());
        let (push, digest) = peers.split_at(self.cfg.fanout.min(peers.len()));
        ctx.multicast(push.to_vec(), NetMsg::Push { block, bytes });
        ctx.multicast(
            digest.to_vec(),
            NetMsg::GossipDigest {
                blocks: Shared::new(vec![block]),
            },
        );
    }
}

impl ProtocolCore<NetMsg> for FegNode {
    fn message<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        from: NodeId,
        msg: NetMsg,
    ) {
        match msg {
            NetMsg::Push { block, bytes } | NetMsg::FullBlock { block, bytes } => {
                self.on_block(ctx, Some(from), block, bytes);
            }
            NetMsg::GossipDigest { blocks } => {
                for &block in blocks.iter() {
                    if !self.have.contains_key(&block) {
                        self.aware_from.entry(block).or_insert(from);
                        ctx.set_timer(
                            self.cfg.pull_delay,
                            TimerTag::with_a(net_timers::FEG_PULL, block),
                        );
                    }
                }
            }
            NetMsg::GossipPull { block } => {
                if let Some(&bytes) = self.have.get(&block) {
                    ctx.send(from, NetMsg::Push { block, bytes });
                }
            }
            _ => {}
        }
    }

    fn timer<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        tag: TimerTag,
    ) {
        if tag.kind != net_timers::FEG_PULL {
            return;
        }
        let block = tag.a;
        if !self.have.contains_key(&block) && self.pulled.insert(block) {
            if let Some(&src) = self.aware_from.get(&block) {
                ctx.send(src, NetMsg::GossipPull { block });
            }
        }
    }
}

/// A consensus node in the random topology: at every block boundary it
/// pushes the complete block to `fanout` of its neighbours and digests the
/// rest, like any other gossip participant.
#[derive(Debug)]
pub struct RandomSource {
    neighbors: Vec<NodeId>,
    cfg: FegConfig,
    load: SyntheticLoad,
    next_block: u64,
    /// `random.blocks_sent`, minted at construction.
    blocks_sent: CounterHandle,
}

impl RandomSource {
    /// Creates a gossip source with a fixed neighbour set and load.
    pub fn new(neighbors: Vec<NodeId>, cfg: FegConfig, load: SyntheticLoad) -> RandomSource {
        RandomSource {
            neighbors,
            cfg,
            load,
            next_block: 0,
            blocks_sent: CounterHandle::of("random.blocks_sent", Labels::GLOBAL),
        }
    }
}

impl ProtocolCore<NetMsg> for RandomSource {
    fn start<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        let first = self.load.start_at + self.load.interval;
        ctx.set_timer(first, TimerTag::of_kind(net_timers::SOURCE_TICK));
    }

    fn message<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        from: NodeId,
        msg: NetMsg,
    ) {
        // Sources also answer pulls for blocks they produced.
        if let NetMsg::GossipPull { block } = msg {
            if block < self.next_block {
                ctx.send(
                    from,
                    NetMsg::Push {
                        block,
                        bytes: self.load.block_bytes(),
                    },
                );
            }
        }
    }

    fn timer<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        tag: TimerTag,
    ) {
        if tag.kind != net_timers::SOURCE_TICK {
            return;
        }
        if self.load.blocks > 0 && self.next_block >= self.load.blocks {
            return;
        }
        let block = self.next_block;
        let bytes = self.load.block_bytes();
        let mut peers = self.neighbors.clone();
        peers.shuffle(ctx.rng());
        let (push, digest) = peers.split_at(self.cfg.fanout.min(peers.len()));
        ctx.multicast(push.to_vec(), NetMsg::Push { block, bytes });
        ctx.multicast(
            digest.to_vec(),
            NetMsg::GossipDigest {
                blocks: Shared::new(vec![block]),
            },
        );
        ctx.metrics().incr_handle(self.blocks_sent, 1);
        self.next_block += 1;
        let interval = self.load.interval;
        ctx.set_timer(interval, TimerTag::of_kind(net_timers::SOURCE_TICK));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis_sim::prelude::*;

    /// FEG's pull path: a node that only hears a digest fetches the block
    /// after the pull delay.
    #[test]
    fn digest_only_nodes_pull_the_block() {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(2, network);
        let cfg = FegConfig {
            fanout: 1,
            pull_delay: SimDuration::from_millis(100),
        };
        // a has the block; its fanout of 1 pushes to exactly one of b, c;
        // the other gets a digest and must pull.
        let b = NodeId(1);
        let c = NodeId(2);
        let a = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(FegNode::new(vec![b, c], cfg))),
            SimTime::ZERO,
        );
        for peers in [vec![a, c], vec![a, b]] {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(ActorOf::<_, NetMsg>::new(FegNode::new(peers, cfg))),
                SimTime::ZERO,
            );
        }
        // Seed the block at a from a phantom source node.
        let src = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(FegNode::new(vec![], cfg))),
            SimTime::ZERO,
        );
        sim.inject(
            a,
            src,
            NetMsg::Push {
                block: 9,
                bytes: 10_000,
            },
            SimTime::from_millis(1),
        );
        sim.run_until(SimTime::from_secs(2));
        for node in [a, b, c] {
            let n = sim
                .actor_as::<ActorOf<FegNode, NetMsg>>(node)
                .unwrap()
                .core();
            assert_eq!(n.received, 1, "{node} must end up with the block");
        }
        assert_eq!(sim.metrics().arrivals(9).len(), 3);
    }

    /// Pushes deduplicate: a block pushed twice counts once and is only
    /// relayed once.
    #[test]
    fn duplicate_pushes_are_ignored() {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(3, network);
        let cfg = FegConfig::default();
        let a = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(FegNode::new(vec![], cfg))),
            SimTime::ZERO,
        );
        let src = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(FegNode::new(vec![], cfg))),
            SimTime::ZERO,
        );
        for ms in [1u64, 5, 9] {
            sim.inject(
                a,
                src,
                NetMsg::Push {
                    block: 1,
                    bytes: 100,
                },
                SimTime::from_millis(ms),
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let n = sim.actor_as::<ActorOf<FegNode, NetMsg>>(a).unwrap().core();
        assert_eq!(n.received, 1);
        assert_eq!(sim.metrics().arrivals(1).len(), 1);
    }
}
