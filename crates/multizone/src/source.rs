//! Multi-Zone's consensus-node side (§IV): [`ZoneSource`] serves exactly
//! its own stripe index to its subscribers, keeping the consensus layer's
//! dissemination cost at O(n_c) regardless of the full-node count.
//! [`SyntheticLoad`] lets a source generate bundles itself for the
//! propagation experiments; [`SubCap`] bounds direct subscriptions per
//! zone in the mega-scale worlds.

use predis_sim::{
    BundleKey, Codec, CounterHandle, Labels, NarrowContext, NodeId, ProtocolCore, SimDuration,
    SimTime, Stage, TimerTag,
};

use crate::dense::PeerMap;
use crate::msg::{net_timers, BundleId, NetMsg};
use crate::zone::ZoneConfig;

/// Synthetic block/bundle generation for propagation experiments: the data
/// of one `block_bytes`-sized block is produced as `bundles_per_block`
/// bundles spread evenly over `interval`, matching Predis's continuous
/// pre-distribution; at each block boundary a constant-size announcement
/// (the Predis block) is emitted.
#[derive(Debug, Clone)]
pub struct SyntheticLoad {
    /// Bytes per bundle.
    pub bundle_bytes: u32,
    /// Bundles per block.
    pub bundles_per_block: u32,
    /// Block interval.
    pub interval: SimDuration,
    /// How many blocks to produce (0 = unlimited).
    pub blocks: u64,
    /// Wire size of a block announcement (a Predis block, ~2.5 KB).
    pub ann_wire: u32,
    /// When generation starts (after the membership warm-up).
    pub start_at: SimDuration,
}

impl SyntheticLoad {
    /// A load equivalent to blocks of `block_bytes` every `interval`,
    /// split into `bundles_per_block` bundles.
    pub fn for_block_size(block_bytes: u64, bundles_per_block: u32, interval: SimDuration) -> Self {
        SyntheticLoad {
            bundle_bytes: (block_bytes / bundles_per_block as u64).max(1) as u32,
            bundles_per_block,
            interval,
            blocks: 0,
            ann_wire: 2500,
            start_at: SimDuration::from_secs(5),
        }
    }

    /// Total bytes of one block.
    pub fn block_bytes(&self) -> u64 {
        self.bundle_bytes as u64 * self.bundles_per_block as u64
    }
}

/// Caps direct consensus subscriptions per zone (mega-scale worlds).
///
/// A full node's zone is derived from its contiguous id block:
/// `zone = (id - base) / zone_size`. Once a zone holds `per_zone` direct
/// subscribers on a source, further joiners from that zone are redirected
/// (`RejectSub` listing the zone's existing subscribers) so they deepen
/// the zone tree instead of widening the source fanout. Without the cap a
/// join storm — thousands of nodes running Algorithm 1 before any
/// `RelayerAlive` has propagated — subscribes *en masse* to the source,
/// saturating the consensus uplink and stalling block production.
#[derive(Debug, Clone, Copy)]
pub struct SubCap {
    /// First full-node id (ids below this are consensus nodes).
    pub base: u32,
    /// Full nodes per zone.
    pub zone_size: u32,
    /// Direct subscribers allowed per zone on each source.
    pub per_zone: usize,
}

impl SubCap {
    fn zone_of(&self, n: NodeId) -> u32 {
        (n.index() as u32).saturating_sub(self.base) / self.zone_size.max(1)
    }
}

/// The consensus-node side of Multi-Zone: serves stripe `idx` of every
/// bundle to its subscribers and forwards block announcements.
#[derive(Debug)]
pub struct ZoneSource {
    idx: u32,
    cfg: ZoneConfig,
    load: Option<SyntheticLoad>,
    sub_cap: Option<SubCap>,
    subscribers: Vec<NodeId>,
    /// Last heartbeat per subscriber (§IV-E: silent subscribers are
    /// disconnected so the uplink stops carrying their stripes).
    sub_last_seen: PeerMap<SimTime>,
    current_block: u64,
    bundle_in_block: u32,
    /// `zone.rs_encodes` / `zone.stripe_sends` for this stripe's chain
    /// label, minted here so the per-bundle path is a dense-array add.
    rs_encodes: CounterHandle,
    stripe_sends: CounterHandle,
}

impl ZoneSource {
    /// Creates the source for stripe `idx`; with a [`SyntheticLoad`] it
    /// generates bundles itself (propagation experiments), without one it
    /// is driven externally via [`ZoneSource::offer_bundle`].
    pub fn new(idx: u32, cfg: ZoneConfig, load: Option<SyntheticLoad>) -> ZoneSource {
        let chain = Labels::chain(idx as u64);
        ZoneSource {
            idx,
            cfg,
            load,
            sub_cap: None,
            subscribers: Vec::new(),
            sub_last_seen: PeerMap::new(),
            current_block: 0,
            bundle_in_block: 0,
            rs_encodes: CounterHandle::of("zone.rs_encodes", chain),
            stripe_sends: CounterHandle::of("zone.stripe_sends", chain),
        }
    }

    /// Current subscribers (for tests).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Enables the per-zone direct-subscription cap (see [`SubCap`]).
    pub fn with_sub_cap(mut self, cap: SubCap) -> ZoneSource {
        self.sub_cap = Some(cap);
        self
    }

    /// Approximate resident footprint (for `mem.*` accounting).
    pub fn approx_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.subscribers.capacity() * std::mem::size_of::<NodeId>()
            + self.sub_last_seen.approx_bytes()
            + self.cfg.consensus.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Sends this source's stripe of the given bundle to all subscribers.
    pub fn offer_bundle<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        bundle: BundleId,
        bundle_bytes: u32,
    ) {
        let k = self.cfg.k() as u32;
        let stripe_bytes = bundle_bytes.div_ceil(k);
        let msg = NetMsg::Stripe {
            bundle,
            stripe: self.idx,
            k,
            bytes: stripe_bytes,
            corrupt: false,
        };
        let fanout = self.subscribers.len() as u64;
        ctx.multicast(self.subscribers.iter().copied(), msg);
        let now = ctx.now();
        ctx.metrics().incr_handle(self.rs_encodes, 1);
        if fanout > 0 {
            ctx.metrics().incr_handle(self.stripe_sends, fanout);
        }
        ctx.metrics().timeline_mark(
            BundleKey {
                producer: bundle.idx as u64,
                chain: bundle.idx as u64,
                height: bundle.block,
            },
            Stage::StripeEncoded,
            now,
        );
    }

    /// Announces a completed block to all subscribers (who forward it on).
    pub fn announce_block<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        block: u64,
        bundles: u32,
        ann_wire: u32,
    ) {
        ctx.multicast(
            self.subscribers.iter().copied(),
            NetMsg::BlockAnn {
                block,
                bundles,
                wire: ann_wire,
            },
        );
    }

    fn tick<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        let Some(load) = self.load.clone() else {
            return;
        };
        if load.blocks > 0 && self.current_block >= load.blocks {
            return; // done: no further timer
        }
        let bundle = BundleId {
            block: self.current_block,
            idx: self.bundle_in_block,
        };
        self.offer_bundle(ctx, bundle, load.bundle_bytes);
        self.bundle_in_block += 1;
        if self.bundle_in_block == load.bundles_per_block {
            let block = self.current_block;
            self.announce_block(ctx, block, load.bundles_per_block, load.ann_wire);
            if self.idx == 0 {
                ctx.metrics().incr("zone.blocks_announced", 1);
            }
            self.current_block += 1;
            self.bundle_in_block = 0;
        }
        let tick = load.interval / load.bundles_per_block as u64;
        ctx.set_timer(tick, TimerTag::of_kind(net_timers::SOURCE_TICK));
    }
}

impl ProtocolCore<NetMsg> for ZoneSource {
    fn approx_bytes(&self) -> usize {
        self.approx_size()
    }

    fn start<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        if let Some(load) = &self.load {
            let start = load.start_at;
            ctx.set_timer(start, TimerTag::of_kind(net_timers::SOURCE_TICK));
        }
        let hb = self.cfg.alive_interval * 2;
        ctx.set_timer(hb, TimerTag::of_kind(net_timers::HEARTBEAT));
    }

    fn message<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        from: NodeId,
        msg: NetMsg,
    ) {
        match msg {
            NetMsg::Heartbeat => {
                let now = ctx.now();
                self.sub_last_seen.insert(from, now);
            }
            NetMsg::Subscribe { stripes } => {
                // A consensus node serves exactly its own stripe.
                if stripes.contains(&self.idx) {
                    let full_zone = self.sub_cap.filter(|_| !self.subscribers.contains(&from));
                    let redirect = full_zone.and_then(|cap| {
                        let zone = cap.zone_of(from);
                        let peers: Vec<NodeId> = self
                            .subscribers
                            .iter()
                            .copied()
                            .filter(|&n| cap.zone_of(n) == zone)
                            .collect();
                        (peers.len() >= cap.per_zone).then_some(peers)
                    });
                    if let Some(children) = redirect {
                        ctx.metrics().incr("zone.source_subs_capped", 1);
                        ctx.send(
                            from,
                            NetMsg::RejectSub {
                                stripes: vec![self.idx],
                                children,
                            },
                        );
                    } else {
                        if !self.subscribers.contains(&from) {
                            self.subscribers.push(from);
                        }
                        let now = ctx.now();
                        self.sub_last_seen.insert(from, now);
                        ctx.send(
                            from,
                            NetMsg::AcceptSub {
                                stripes: vec![self.idx],
                            },
                        );
                    }
                }
                let rejected: Vec<u32> = stripes.into_iter().filter(|&s| s != self.idx).collect();
                if !rejected.is_empty() {
                    ctx.send(
                        from,
                        NetMsg::RejectSub {
                            stripes: rejected,
                            children: Vec::new(),
                        },
                    );
                }
            }
            NetMsg::Unsubscribe { .. } | NetMsg::Leave => {
                self.subscribers.retain(|&n| n != from);
            }
            NetMsg::BundlePull { bundle } => {
                // Consensus nodes hold every bundle they generated and can
                // serve recovery pulls directly (§IV-F backup connections).
                if let Some(load) = &self.load {
                    let produced = bundle.block < self.current_block
                        || (bundle.block == self.current_block
                            && bundle.idx < self.bundle_in_block);
                    if produced {
                        ctx.metrics().incr("zone.source_pulls_served", 1);
                        ctx.send(
                            from,
                            NetMsg::FullBundle {
                                bundle,
                                bytes: load.bundle_bytes,
                            },
                        );
                    }
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
        match tag.kind {
            net_timers::SOURCE_TICK => self.tick(ctx),
            net_timers::HEARTBEAT => {
                let now = ctx.now();
                let cutoff = self.cfg.alive_interval * 8;
                let before = self.subscribers.len();
                let seen = &self.sub_last_seen;
                self.subscribers.retain(|&n| {
                    seen.get(n)
                        .is_some_and(|&t| now.saturating_since(t) <= cutoff)
                });
                if self.subscribers.len() < before {
                    ctx.metrics().incr(
                        "zone.source_subs_reaped",
                        (before - self.subscribers.len()) as u64,
                    );
                }
                let hb = self.cfg.alive_interval * 2;
                ctx.set_timer(hb, TimerTag::of_kind(net_timers::HEARTBEAT));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis_sim::prelude::*;

    #[test]
    fn synthetic_load_splits_blocks() {
        let load = SyntheticLoad::for_block_size(10_000_000, 100, SimDuration::from_secs(5));
        assert_eq!(load.bundle_bytes, 100_000);
        assert_eq!(load.block_bytes(), 10_000_000);
        // Tiny blocks still produce at least 1-byte bundles.
        let tiny = SyntheticLoad::for_block_size(10, 100, SimDuration::from_secs(1));
        assert!(tiny.bundle_bytes >= 1);
    }

    /// A subscription for a stripe a source does not own is rejected.
    #[test]
    fn source_rejects_foreign_stripes() {
        #[derive(Debug, Default)]
        struct Probe {
            accepted: Vec<u32>,
            rejected: Vec<u32>,
        }
        impl Actor<NetMsg> for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
                ctx.send(
                    NodeId(0),
                    NetMsg::Subscribe {
                        stripes: vec![0, 1, 2],
                    },
                );
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, NetMsg>, _f: NodeId, msg: NetMsg) {
                match msg {
                    NetMsg::AcceptSub { stripes } => self.accepted.extend(stripes),
                    NetMsg::RejectSub { stripes, .. } => self.rejected.extend(stripes),
                    _ => {}
                }
            }
        }
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(1, network);
        let cfg = ZoneConfig::paper(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(ZoneSource::new(0, cfg, None))),
            SimTime::ZERO,
        );
        for _ in 0..3 {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(Probe::default()),
                SimTime::ZERO,
            );
        }
        sim.run_until(SimTime::from_secs(1));
        let p = sim.actor_as::<Probe>(NodeId(1)).unwrap();
        assert_eq!(p.accepted, vec![0]);
        assert_eq!(p.rejected, vec![1, 2]);
    }
}
