//! Multi-Zone: zones, relayers, stripe subscription trees (§IV).
//!
//! [`MultiZoneNode`] implements the full-node side: Algorithm 1 (check and
//! become a relayer), Algorithm 2 (process relayerAlive, redundancy
//! shedding), stripe forwarding down subscription trees, bundle decoding
//! (any `k = n_c − f` stripes), Predis-block announcements, leave/churn
//! handling, and backup-connection digests to neighbouring zones. The
//! consensus-node side is [`crate::source`].
//!
//! A node's place in each stripe's subscription tree is one `Route`
//! record per stripe (provider, outstanding request, make-before-break
//! switch, last data, children); the stripes it still wants are derived
//! from them, not stored. Everything else lives in the dense containers of
//! [`crate::dense`] (stripe bitsets, interned peer handles, one shared
//! roster per zone, one keyed per-block table) rather than per-node
//! `BTreeMap`s, so 10^5 simulated full nodes fit in a few GB. Every walk
//! over stripes is ascending, as the maps they replaced iterated, keeping
//! message emission — and therefore run fingerprints — bit-identical.

use std::sync::Arc;

use predis_sim::{
    BundleKey, Codec, CounterHandle, Labels, NarrowContext, NodeId, ProtocolCore, SimDuration,
    SimTime, Stage, TimerTag,
};
use predis_types::Shared;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::dense::{BlockTable, PeerMap, StripeSet, U64Set, ZoneRoster, MAX_STRIPES};
use crate::msg::{net_timers, BundleId, NetMsg, RelayerInfo};

/// Static parameters of a Multi-Zone deployment.
#[derive(Debug, Clone)]
pub struct ZoneConfig {
    /// Number of consensus nodes (= number of stripes).
    pub n_c: usize,
    /// Fault bound: any `n_c − f` stripes reconstruct a bundle.
    pub f: usize,
    /// Maximum subscriber links one full node serves (the paper's Fig. 8
    /// comparison caps this at 24).
    pub max_children: usize,
    /// Relayer-alive / zone maintenance period.
    pub alive_interval: SimDuration,
    /// Backup-connection digest period.
    pub digest_interval: SimDuration,
    /// The consensus (stripe source) nodes, indexed by stripe.
    pub consensus: Vec<NodeId>,
    /// Forget a block's in-flight slot as soon as every bundle seen so
    /// far is decoded, without waiting for an announcement. Only sound
    /// in open-loop worlds that never send [`NetMsg::BlockAnn`] (the
    /// fig7/fig9 consensus duty): with announcements on the wire, a node
    /// can hold every stripe *before* a slow announcement arrives, and
    /// forgetting the slot would resurrect it as new work. Off by
    /// default; without it an ann-less node's in-flight table grows with
    /// every block ever streamed.
    pub retire_unannounced: bool,
}

impl ZoneConfig {
    /// The paper's deployment for the given consensus nodes: `f = (n_c − 1)
    /// / 3`, 24 subscribers per node, 250 ms relayer heartbeats, 1 s backup
    /// digests, blocks retired on announcement.
    pub fn paper(consensus: Vec<NodeId>) -> ZoneConfig {
        ZoneConfig {
            n_c: consensus.len(),
            f: (consensus.len() - 1) / 3,
            max_children: 24,
            alive_interval: SimDuration::from_millis(250),
            digest_interval: SimDuration::from_secs(1),
            consensus,
            retire_unannounced: false,
        }
    }

    /// Stripes needed to reconstruct a bundle.
    pub fn k(&self) -> usize {
        self.n_c - self.f
    }
}

/// Byzantine dissemination behaviour of a relayer toward its subscription
/// children (the Raptr attack shapes). Honest nodes defend with the
/// integrity check (corrupt stripes are rejected and counted as
/// `zone.stripes_rejected`) and the §IV-E silent-provider reroute — either
/// way the faulty provider eventually looks silent and is replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StripeFault {
    /// Forward nothing down the tree: children silently starve.
    Withhold,
    /// Forward stripes whose payload does not match the Merkle proof:
    /// children reject them on the integrity check.
    Corrupt,
}

// How a scenario file names the fault.
predis_sim::json::named!(StripeFault {
    Withhold => "withhold",
    Corrupt => "corrupt"
});

/// A full node's own counter cells, all labelled with its id.
#[derive(Debug)]
struct NodeCells {
    /// `zone.stripe_sends`, one per stripe.
    stripe_sends: Box<[CounterHandle]>,
    redundancy_shed: CounterHandle,
    stripes_rejected: CounterHandle,
    rs_decodes: CounterHandle,
    heartbeats: CounterHandle,
}

impl NodeCells {
    fn of(me: NodeId, n_c: usize) -> NodeCells {
        let node = Labels::node(me.index() as u64);
        NodeCells {
            stripe_sends: (0..n_c as u64)
                .map(|s| CounterHandle::of("zone.stripe_sends", node.and_chain(s)))
                .collect(),
            redundancy_shed: CounterHandle::of("zone.redundancy_shed", node),
            stripes_rejected: CounterHandle::of("zone.stripes_rejected", node),
            rs_decodes: CounterHandle::of("zone.rs_decodes", node),
            heartbeats: CounterHandle::of("zone.heartbeats", node),
        }
    }
}

/// A known relayer of this zone: join order, advertised stripes, last
/// alive time.
#[derive(Debug, Clone, Copy)]
struct RelayerState {
    join_seq: u64,
    stripes: StripeSet,
    seen: SimTime,
}

/// This node's place in one stripe's subscription tree. A stripe with no
/// `upstream` is one the node still wants.
#[derive(Debug, Clone, Default)]
struct Route {
    /// The current provider.
    upstream: Option<NodeId>,
    /// The node a subscription was requested from, awaiting an answer.
    pending: Option<NodeId>,
    /// Make-before-break: the old provider to drop once the new
    /// subscription is accepted.
    switching: Option<NodeId>,
    /// When data last arrived on the stripe.
    last_data: Option<SimTime>,
    /// Downstream subscribers, in subscription order.
    children: Vec<NodeId>,
}

/// The full-node side of Multi-Zone (ordinary node or relayer — the role is
/// dynamic, per Algorithms 1 and 2).
#[derive(Debug)]
pub struct MultiZoneNode {
    cfg: ZoneConfig,
    /// This node's join order (smaller = earlier).
    join_seq: u64,
    /// Zone membership (static knowledge; in a permissioned chain the
    /// registry is on-ledger). One shared list per zone.
    roster: ZoneRoster,
    /// Backup connections into neighbouring zones.
    backup_peers: Vec<NodeId>,
    /// Leave the network at this time, if set (churn experiments).
    leave_at: Option<SimTime>,
    /// Byzantine forwarding behaviour toward children (None = honest).
    byz: Option<StripeFault>,

    // ---- stripe routing (walks are ascending by stripe, and so is
    // message emission) ----
    /// One record per stripe.
    routes: Box<[Route]>,
    /// Stripes received directly from consensus nodes (relayer-ness).
    relaying: StripeSet,
    /// Known relayers of this zone (interned peer handles, ascending
    /// `NodeId` iteration).
    zone_relayers: PeerMap<RelayerState>,

    // ---- data state ----
    /// Everything known per block: stripes held, decoded bits, pull
    /// attempts, announcement metadata while in flight; the size and the
    /// bundle payload size (for serving pulls) also once done.
    blocks: BlockTable,
    /// The done blocks in ascending order (backup digests read its tail).
    completed: U64Set,
    ann_forwarded: U64Set,
    pulled: U64Set,
    /// Last heartbeat (or any message) per child, for §IV-E disconnects.
    child_last_seen: PeerMap<SimTime>,
    /// Ring of recently retired blocks (ann-less worlds only): absorbs
    /// late duplicate stripes that would otherwise resurrect a retired
    /// slot, at a fixed cost instead of O(blocks) tombstones.
    retired_ring: std::collections::VecDeque<u64>,

    /// Minted in `start`, the first hook that knows this node's id; the
    /// engine starts a node before any other event reaches it.
    cells: Option<NodeCells>,

    /// Number of blocks fully reconstructed (ann + all bundles decoded).
    pub completed_blocks: u64,
}

impl MultiZoneNode {
    /// Creates full node `me` of a zone. `zone` is the zone's member list,
    /// shared by all its members (it may include `me`; any order), so
    /// membership costs O(1) amortized per node instead of O(zone size);
    /// `join_seq` is this node's join order.
    pub fn new(cfg: ZoneConfig, join_seq: u64, zone: Arc<[NodeId]>, me: NodeId) -> MultiZoneNode {
        assert!(
            cfg.n_c <= MAX_STRIPES,
            "Multi-Zone supports at most {MAX_STRIPES} stripes (n_c = {})",
            cfg.n_c
        );
        let routes = vec![Route::default(); cfg.n_c].into_boxed_slice();
        MultiZoneNode {
            cfg,
            join_seq,
            roster: ZoneRoster::new(zone, me),
            backup_peers: Vec::new(),
            leave_at: None,
            byz: None,
            routes,
            relaying: StripeSet::EMPTY,
            zone_relayers: PeerMap::new(),
            blocks: BlockTable::new(),
            completed: U64Set::new(),
            ann_forwarded: U64Set::new(),
            pulled: U64Set::new(),
            child_last_seen: PeerMap::new(),
            retired_ring: std::collections::VecDeque::new(),
            cells: None,
            completed_blocks: 0,
        }
    }

    /// Adds backup connections to nodes in neighbouring zones (§IV-F).
    pub fn with_backups(mut self, peers: Vec<NodeId>) -> MultiZoneNode {
        self.backup_peers = peers;
        self
    }

    /// Schedules a voluntary departure (churn experiments).
    pub fn leaving_at(mut self, at: SimTime) -> MultiZoneNode {
        self.leave_at = Some(at);
        self
    }

    /// Makes this node a Byzantine relayer: it participates normally as a
    /// subscriber but attacks its own children with the given fault.
    pub fn with_stripe_fault(mut self, fault: StripeFault) -> MultiZoneNode {
        self.set_stripe_fault(fault);
        self
    }

    /// [`MultiZoneNode::with_stripe_fault`] on a node already wired into a
    /// simulation that has not started.
    pub fn set_stripe_fault(&mut self, fault: StripeFault) {
        self.byz = Some(fault);
    }

    /// True if this node currently relays at least one stripe.
    pub fn is_relayer(&self) -> bool {
        !self.relaying.is_empty()
    }

    /// The stripes this node receives directly from consensus nodes.
    pub fn relayed_stripes(&self) -> Vec<u32> {
        self.relaying.to_vec()
    }

    /// The number of distinct relayers this node believes its zone has.
    pub fn known_relayer_count(&self) -> usize {
        self.zone_relayers.len() + usize::from(self.is_relayer())
    }

    /// Stripes with an active provider.
    pub fn covered_stripes(&self) -> usize {
        self.providers().count()
    }

    /// Blocks with any in-flight tracking state (pending or merely
    /// receiving stripes) — bounded in steady state because completed
    /// blocks retire their slots.
    pub fn inflight_blocks(&self) -> usize {
        self.blocks.live_len()
    }

    /// Approximate resident footprint (for `mem.*` accounting).
    pub fn approx_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.roster.approx_bytes()
            + self.backup_peers.capacity() * std::mem::size_of::<NodeId>()
            + self.cfg.consensus.capacity() * std::mem::size_of::<NodeId>()
            + self
                .routes
                .iter()
                .map(|r| std::mem::size_of::<Route>() + r.children.capacity() * 4)
                .sum::<usize>()
            + self.zone_relayers.approx_bytes()
            + self.child_last_seen.approx_bytes()
            + self.blocks.approx_bytes()
            + self.completed.approx_bytes()
            + self.ann_forwarded.approx_bytes()
            + self.pulled.approx_bytes()
            + self.retired_ring.capacity() * 8
            + self.cells.as_ref().map_or(0, |c| {
                c.stripe_sends.len() * std::mem::size_of::<CounterHandle>()
            })
    }

    fn cells(&self) -> &NodeCells {
        self.cells
            .as_ref()
            .expect("the engine starts a node before its first event")
    }

    /// How many retired blocks the dup-absorbing ring remembers: 63, the
    /// largest count a 64-slot `VecDeque` allocation holds (its capacity
    /// rounds to a power of two). That covers over half a second of
    /// blocks even at flash-crowd bundle rates (~100/s) — longer than any
    /// make-before-break overlap window — for half a kilobyte per node.
    const RETIRED_RING: usize = 63;

    /// Records an ann-less retirement so late duplicates of the block
    /// are dropped instead of resurrecting a slot.
    fn note_retired(&mut self, block: u64) {
        if self.retired_ring.len() == Self::RETIRED_RING {
            self.retired_ring.pop_front();
        }
        self.retired_ring.push_back(block);
    }

    /// The provider of every covered stripe, ascending by stripe.
    fn providers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.routes.iter().filter_map(|r| r.upstream)
    }

    /// Whether `stripe` has neither a provider nor a request outstanding
    /// (false for a stripe out of range).
    fn unrequested(&self, stripe: u32) -> bool {
        let route = self.routes.get(stripe as usize);
        route.is_some_and(|r| r.upstream.is_none() && r.pending.is_none())
    }

    fn total_children(&self) -> usize {
        self.routes.iter().map(|r| r.children.len()).sum()
    }

    fn unique_children(&self) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = Vec::new();
        for route in self.routes.iter() {
            for &kid in &route.children {
                if !set.contains(&kid) {
                    set.push(kid);
                }
            }
        }
        set
    }

    /// Drops `gone` from every stripe's children.
    fn drop_child(&mut self, gone: NodeId) {
        for route in self.routes.iter_mut() {
            route.children.retain(|&n| n != gone);
        }
    }

    fn subscribe<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        provider: NodeId,
        stripes: Vec<u32>,
    ) {
        if stripes.is_empty() {
            return;
        }
        for &s in &stripes {
            self.routes[s as usize].pending = Some(provider);
        }
        ctx.send(provider, NetMsg::Subscribe { stripes });
    }

    /// Finds a provider for `stripe`: a known relayer advertising it, else
    /// the consensus source (which makes this node a relayer on accept).
    fn acquire<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        stripe: u32,
    ) {
        if !self.unrequested(stripe) {
            return;
        }
        let relayer = self
            .zone_relayers
            .iter()
            .find(|(_, r)| r.stripes.contains(stripe))
            .map(|(n, _)| n);
        let provider = relayer.unwrap_or(self.cfg.consensus[stripe as usize]);
        self.subscribe(ctx, provider, vec![stripe]);
    }

    fn announce_alive<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        let msg = NetMsg::RelayerAlive {
            join_seq: self.join_seq,
            // Built once; the zone-wide multicast shares the allocation.
            stripes: Shared::new(self.relaying.to_vec()),
        };
        ctx.multicast(self.roster.peers(), msg);
    }

    /// Algorithm 2 core: redundancy shedding. For every stripe two
    /// relayers both relay, exactly one keeper survives, decided by a rule
    /// both sides evaluate identically: the relayer with *fewer* stripes
    /// keeps it (spreading load), ties broken toward the *later* joiner
    /// (the paper's Fig. 3 dynamic, where elders hand stripes to
    /// newcomers and shrink to one stripe each). The loser re-sources the
    /// stripe from the keeper make-before-break; a fully redundant relayer
    /// ends with an empty set and steps down (lines 21-23).
    fn shed_overlap<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        other: NodeId,
        other_join: u64,
        other_stripes: StripeSet,
    ) {
        if self.relaying.is_empty() {
            return;
        }
        let my_len = self.relaying.len();
        let their_len = other_stripes.len();
        let keeper_is_other =
            their_len < my_len || (their_len == my_len && other_join > self.join_seq);
        if !keeper_is_other {
            return; // they shed when they process our relayerAlive
        }
        let overlap: Vec<u32> = self.relaying.intersection(other_stripes).to_vec();
        if overlap.is_empty() {
            return;
        }
        for &s in &overlap {
            self.relaying.remove(s);
            // Make-before-break: keep receiving from the consensus source
            // until the new provider accepts, so no bundle is dropped.
            self.routes[s as usize].switching = Some(self.cfg.consensus[s as usize]);
        }
        ctx.metrics()
            .incr_handle(self.cells().redundancy_shed, overlap.len() as u64);
        self.subscribe(ctx, other, overlap);
        if self.relaying.is_empty() {
            ctx.metrics().incr("zone.relayer_stepdowns", 1);
        }
        self.announce_alive(ctx);
    }

    fn try_complete<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        block: u64,
    ) {
        if self.blocks.pending_count() == 0 {
            return;
        }
        let Some(slot) = self.blocks.get(block) else {
            return;
        };
        let Some(bundles) = slot.pending() else {
            return;
        };
        if !(0..bundles).all(|idx| slot.is_decoded(idx)) {
            return;
        }
        let now = ctx.now();
        for idx in 0..bundles {
            ctx.metrics().timeline_mark(
                BundleKey {
                    producer: idx as u64,
                    chain: idx as u64,
                    height: block,
                },
                Stage::ZoneDelivered,
                now,
            );
        }
        self.mark_complete(ctx, block);
    }

    fn mark_complete<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        block: u64,
    ) {
        // Frees the block's in-flight bookkeeping; its size and byte hint
        // stay so pulls can still be served.
        if !self.blocks.complete(block) {
            return;
        }
        self.completed.insert(block);
        self.completed_blocks += 1;
        let now = ctx.now();
        ctx.metrics().mark_arrival(block, now);
        ctx.metrics().incr("zone.blocks_completed", 1);
    }

    fn on_leave_of<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        gone: NodeId,
    ) {
        self.drop_child(gone);
        self.on_provider_lost(ctx, gone);
    }

    /// Re-routes any stripes currently provided by `gone` (which left, went
    /// stale, or stopped serving). Child links are untouched: a stale
    /// *relayer* may still be a live *subscriber*.
    fn on_provider_lost<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        gone: NodeId,
    ) {
        let was_relayer = self.zone_relayers.remove(gone).is_some();
        // Re-routing one stripe touches only that stripe's record, so the
        // walk needs no snapshot of the lost ones.
        for s in 0..self.cfg.n_c as u32 {
            let route = &mut self.routes[s as usize];
            if route.upstream != Some(gone) {
                continue;
            }
            route.upstream = None;
            route.pending = None;
            if was_relayer {
                // §IV-E: a departing relayer's subscriber takes over by
                // subscribing to the consensus node directly.
                let src = self.cfg.consensus[s as usize];
                self.subscribe(ctx, src, vec![s]);
            } else {
                self.acquire(ctx, s);
            }
        }
    }

    fn maintain<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        let now = ctx.now();
        // Drop stale relayer entries (no alive message for 3 periods).
        let stale_cut = self.cfg.alive_interval * 3;
        let stale: Vec<NodeId> = self
            .zone_relayers
            .iter()
            .filter(|(_, r)| now.saturating_since(r.seen) > stale_cut)
            .map(|(n, _)| n)
            .collect();
        for n in stale {
            self.on_provider_lost(ctx, n);
        }
        if self.is_relayer() {
            self.announce_alive(ctx);
        }
        // Retry unfinished acquisitions (pending subs may have been lost).
        for s in 0..self.cfg.n_c as u32 {
            self.routes[s as usize].pending = None;
            self.acquire(ctx, s);
        }
        // §IV-E: if the zone has fewer than n_c relayers, a non-relayer
        // volunteers (randomized to avoid a thundering herd): first for a
        // stripe nobody relays; otherwise for a stripe of the most-loaded
        // relayer, which Algorithm 2's shedding then hands over, splitting
        // multi-stripe relayers until the zone holds n_c single-stripe
        // relayers.
        if !self.is_relayer() && self.known_relayer_count() < self.cfg.n_c {
            let relayed = self
                .zone_relayers
                .values()
                .fold(StripeSet::EMPTY, |acc, r| acc.union(r.stripes));
            let orphan = (0..self.cfg.n_c as u32).find(|&s| !relayed.contains(s));
            // Deterministic preference (join order modulo stripe count)
            // breaks simultaneous-volunteer collisions; a small random
            // fallback preserves liveness when the preferred claimant is
            // gone.
            let preferred = (self.join_seq % self.cfg.n_c as u64) as u32;
            let claim = match orphan {
                Some(s) if s == preferred => true,
                Some(_) => ctx.rng().gen_bool(0.15),
                None => ctx.rng().gen_bool(0.5),
            };
            let target = if !claim {
                None
            } else {
                orphan.or_else(|| {
                    self.zone_relayers
                        .values()
                        .filter(|r| r.stripes.len() > 1)
                        .max_by_key(|r| r.stripes.len())
                        .and_then(|r| r.stripes.first())
                })
            };
            if let Some(stripe) = target {
                let src = self.cfg.consensus[stripe as usize];
                // Re-route the stripe to its consensus source,
                // make-before-break.
                let route = &mut self.routes[stripe as usize];
                if route.upstream.is_some() {
                    route.switching = route.upstream;
                }
                route.pending = None;
                self.subscribe(ctx, src, vec![stripe]);
            }
        }
        // A provider that has gone silent while blocks are pending is
        // presumed dead: re-route its stripes (make-before-break).
        // Without announcements there are no pending blocks, so the
        // ann-less worlds (opt-in) substitute "some other stripe is still
        // flowing": if any feed is fresh the zone is under load, and a
        // silent stripe means its subscription path lost the source
        // (churn, or a cycle that predates the subscribe-time guard).
        let silence = self.cfg.alive_interval * 4;
        let fresh = |r: &Route| {
            r.last_data
                .is_some_and(|t| now.saturating_since(t) <= silence)
        };
        let reroute_silent = self.blocks.pending_count() > 0
            || (self.cfg.retire_unannounced && self.routes.iter().any(fresh));
        if reroute_silent {
            for st in 0..self.cfg.n_c as u32 {
                let route = &mut self.routes[st as usize];
                if route.upstream.is_none() || fresh(route) {
                    continue;
                }
                route.switching = route.upstream.take();
                route.pending = None;
                self.relaying.remove(st);
                self.acquire(ctx, st);
            }
        }
        // Recovery (§IV-F backup path, at bundle granularity): for blocks
        // announced but still incomplete after two maintenance periods,
        // pull the missing bundles from random zone members.
        let overdue = self.cfg.alive_interval * 2;
        let mut wanted: Vec<BundleId> = Vec::new();
        'blocks: for (block, slot) in self.blocks.pending_iter() {
            let bundles = slot.pending().unwrap_or(0);
            let seen = slot.ann_at().unwrap_or(now);
            if now.saturating_since(seen) < overdue {
                continue;
            }
            for idx in 0..bundles {
                if !slot.is_decoded(idx) {
                    wanted.push(BundleId { block, idx });
                    if wanted.len() >= 64 {
                        break 'blocks;
                    }
                }
            }
        }
        if !wanted.is_empty() {
            for b in wanted {
                let attempts = self.blocks.entry(b.block).bump_pull(b.idx);
                // First tries stay zone-local; if the zone itself lost the
                // bundle (e.g. relayer churn mid-stream), go to the source.
                let peer = if attempts <= 2 && self.roster.peer_count() > 0 {
                    self.roster.choose_other(ctx.rng()).expect("non-empty")
                } else {
                    *self
                        .cfg
                        .consensus
                        .as_slice()
                        .choose(ctx.rng())
                        .expect("consensus nodes exist")
                };
                ctx.send(peer, NetMsg::BundlePull { bundle: b });
            }
            ctx.metrics().incr("zone.bundle_pulls", 1);
        }
        // Ann-less expiry (opt-in): a block that went stale without ever
        // being announced will never complete — no announcement means no
        // recovery pulls either (see above: recovery is ann-driven). The
        // prompt retirement in the stripe handler already reaps decoded
        // blocks; this sweep bounds the stragglers that lost a stripe to
        // subscription churn, keeping in-flight state O(rate x window)
        // instead of O(blocks ever streamed).
        if self.cfg.retire_unannounced {
            let expiry = self.cfg.alive_interval * 2;
            let mut stale: Vec<u64> = self
                .blocks
                .iter()
                .filter(|(_, slot)| {
                    slot.first_touch()
                        .is_some_and(|t| now.saturating_since(t) >= expiry)
                })
                .map(|(block, _)| block)
                .collect();
            // The table iterates in hash order; retirement order decides
            // which blocks the retired ring still remembers.
            stale.sort_unstable();
            for block in stale {
                self.blocks.retire(block);
                self.note_retired(block);
            }
            // `approx_bytes` counts *capacity*, and the startup burst
            // (before the subscription tree settles) pins each node's
            // table at its worst-case size. Compact so steady-state
            // residency reflects steady-state load.
            self.blocks.compact();
        }
        let interval = self.cfg.alive_interval;
        ctx.set_timer(interval, TimerTag::of_kind(net_timers::ZONE_MAINTAIN));
    }
}

impl ProtocolCore<NetMsg> for MultiZoneNode {
    fn approx_bytes(&self) -> usize {
        self.approx_size()
    }

    fn start<M: Codec<NetMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, NetMsg>) {
        let me = ctx.node();
        self.cells = Some(NodeCells::of(me, self.cfg.n_c));
        // Algorithm 1: learn the zone's relayers, then subscribe. The
        // bootstrap is the earliest-joined fellow zone member.
        let bootstrap = self
            .roster
            .peers()
            .filter(|n| n.index() < me.index())
            .min_by_key(|n| n.index());
        if let Some(bootstrap) = bootstrap {
            ctx.send(bootstrap, NetMsg::GetRelayers);
            ctx.set_timer(
                self.cfg.alive_interval,
                TimerTag::of_kind(net_timers::JOIN_RETRY),
            );
        } else {
            // First node of the zone: everything it lacks comes from
            // consensus (all of it, unless this is a revival).
            for s in 0..self.cfg.n_c as u32 {
                if self.routes[s as usize].upstream.is_none() {
                    let src = self.cfg.consensus[s as usize];
                    self.subscribe(ctx, src, vec![s]);
                }
            }
        }
        let interval = self.cfg.alive_interval;
        ctx.set_timer(interval, TimerTag::of_kind(net_timers::ZONE_MAINTAIN));
        ctx.set_timer(interval * 2, TimerTag::of_kind(net_timers::HEARTBEAT));
        if !self.backup_peers.is_empty() {
            let d = self.cfg.digest_interval;
            ctx.set_timer(d, TimerTag::of_kind(net_timers::DIGEST));
        }
        if let Some(at) = self.leave_at {
            let delay = at.saturating_since(ctx.now());
            ctx.set_timer(delay, TimerTag::of_kind(net_timers::LEAVE));
        }
    }

    fn message<M: Codec<NetMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, NetMsg>,
        from: NodeId,
        msg: NetMsg,
    ) {
        match msg {
            NetMsg::Stripe {
                bundle,
                stripe,
                k,
                bytes,
                corrupt,
            } => {
                if stripe as usize >= self.cfg.n_c {
                    return; // unreachable with honest peers
                }
                if corrupt {
                    // Integrity check: the payload does not verify against
                    // the Merkle proof in the bundle header. Reject it
                    // *before* touching `last_data`, so the corrupting
                    // provider looks silent on this stripe and the §IV-E
                    // reroute replaces it; the bundle itself recovers via
                    // the overdue-pull path.
                    ctx.metrics().incr_handle(self.cells().stripes_rejected, 1);
                    return;
                }
                let now = ctx.now();
                self.routes[stripe as usize].last_data = Some(now);
                if self.cfg.retire_unannounced && self.retired_ring.contains(&bundle.block) {
                    // A retired block held all stripes, so this can only
                    // be a duplicate (switch-overlap delivery) — relaying
                    // it would cascade the duplicate down the tree.
                    return;
                }
                let cells = self.cells();
                let (sends, decodes) = (cells.stripe_sends[stripe as usize], cells.rs_decodes);
                // The one table probe of the stripe path: everything below
                // works on this entry (a done block always has one).
                let slot = self.blocks.entry(bundle.block);
                if slot.is_done() {
                    return;
                }
                slot.note_touch(now);
                let Some(have_count) = slot.add_stripe(bundle.idx, stripe) else {
                    return; // duplicate
                };
                // Forward down the subscription tree. The child list is
                // borrowed, not cloned: `self.routes` and `ctx` are
                // disjoint, and multicast takes any NodeId iterator. A
                // Byzantine relayer withholds the forward entirely or
                // poisons it; it still decodes for itself either way.
                let kids = &self.routes[stripe as usize].children;
                let fanout = match self.byz {
                    Some(StripeFault::Withhold) => 0,
                    byz => {
                        let fanout = kids.len() as u64;
                        ctx.multicast(
                            kids.iter().copied(),
                            NetMsg::Stripe {
                                bundle,
                                stripe,
                                k,
                                bytes,
                                corrupt: byz == Some(StripeFault::Corrupt),
                            },
                        );
                        fanout
                    }
                };
                if fanout > 0 {
                    ctx.metrics().incr_handle(sends, fanout);
                }
                let announced = slot.pending().is_some();
                let decoded = have_count >= k && slot.mark_decoded(bundle.idx);
                if decoded {
                    slot.add_size(bytes as u64 * k as u64);
                    slot.note_hint(bytes * k);
                    ctx.metrics().incr_handle(decodes, 1);
                }
                // Ann-less steady state (opt-in): no announcement will
                // ever arrive to drive `try_complete`, so once every
                // bundle is decoded AND all `n_c` stripes have landed
                // (retiring at `k` would let the remaining stripes
                // resurrect the slot) it is dead weight — drop it and its
                // size bookkeeping. Deliberately no events, counters, or
                // `completed` insert: per-block tombstones would
                // themselves grow O(blocks).
                let spent = self.cfg.retire_unannounced
                    && !announced
                    && slot.all_decoded()
                    && slot.holds_all_stripes(self.cfg.n_c as u32);
                if decoded && announced {
                    self.try_complete(ctx, bundle.block);
                }
                if spent {
                    self.blocks.retire(bundle.block);
                    self.note_retired(bundle.block);
                }
            }
            NetMsg::BlockAnn {
                block,
                bundles,
                wire,
            } if self.ann_forwarded.insert(block) => {
                let kids = self.unique_children();
                ctx.multicast(
                    kids,
                    NetMsg::BlockAnn {
                        block,
                        bundles,
                        wire,
                    },
                );
                // Both are no-ops on a block that is already done.
                let now = ctx.now();
                self.blocks.set_pending(block, bundles, now);
                self.try_complete(ctx, block);
            }
            NetMsg::FullBlock { block, bytes } => {
                self.blocks.entry(block).set_size(bytes);
                self.mark_complete(ctx, block);
            }
            NetMsg::GetRelayers => {
                let mut relayers: Vec<RelayerInfo> = self
                    .zone_relayers
                    .iter()
                    .map(|(node, r)| RelayerInfo {
                        node,
                        join_seq: r.join_seq,
                        stripes: r.stripes.to_vec(),
                    })
                    .collect();
                if self.is_relayer() {
                    relayers.push(RelayerInfo {
                        node: ctx.node(),
                        join_seq: self.join_seq,
                        stripes: self.relayed_stripes(),
                    });
                }
                ctx.send(
                    from,
                    NetMsg::RelayersInfo {
                        relayers: Shared::new(relayers),
                    },
                );
            }
            NetMsg::RelayersInfo { relayers } => {
                // Algorithm 1: subscribe up to half of each relayer's
                // stripes; the remainder goes to consensus nodes (making us
                // a relayer).
                let now = ctx.now();
                for r in relayers.iter() {
                    if r.node == ctx.node() {
                        continue;
                    }
                    self.zone_relayers.insert(
                        r.node,
                        RelayerState {
                            join_seq: r.join_seq,
                            stripes: StripeSet::from_iter(r.stripes.iter().copied()),
                            seen: now,
                        },
                    );
                }
                for r in relayers.iter() {
                    if r.node == ctx.node() {
                        continue;
                    }
                    let max = (r.stripes.len() / 2).max(1);
                    let wanted: Vec<u32> = r
                        .stripes
                        .iter()
                        .copied()
                        .filter(|&s| self.unrequested(s))
                        .take(max)
                        .collect();
                    self.subscribe(ctx, r.node, wanted);
                }
                for s in 0..self.cfg.n_c as u32 {
                    if self.unrequested(s) {
                        let src = self.cfg.consensus[s as usize];
                        self.subscribe(ctx, src, vec![s]);
                    }
                }
            }
            NetMsg::Subscribe { stripes } => {
                let mut granted = Vec::new();
                let mut rejected = Vec::new();
                for s in stripes {
                    let upstream = self.routes.get(s as usize).and_then(|r| r.upstream);
                    let have_source = self.relaying.contains(s) || upstream.is_some();
                    let capacity = self.total_children() < self.cfg.max_children;
                    // Granting our own provider would form a two-node
                    // cycle detached from the source; in ann-less worlds
                    // (no recovery pulls) such a cycle starves both
                    // subtrees forever, so refuse outright.
                    let cycle = self.cfg.retire_unannounced && upstream == Some(from);
                    if have_source && capacity && !cycle {
                        let kids = &mut self.routes[s as usize].children;
                        if !kids.contains(&from) {
                            kids.push(from);
                        }
                        granted.push(s);
                    } else {
                        rejected.push(s);
                    }
                }
                if !granted.is_empty() {
                    let now = ctx.now();
                    self.child_last_seen.insert(from, now);
                    ctx.send(from, NetMsg::AcceptSub { stripes: granted });
                }
                if !rejected.is_empty() {
                    // Redirect to our children (tree deepening).
                    let children = self.unique_children();
                    ctx.send(
                        from,
                        NetMsg::RejectSub {
                            stripes: rejected,
                            children,
                        },
                    );
                }
            }
            NetMsg::AcceptSub { stripes } => {
                let mut became_relayer = false;
                for s in stripes {
                    let Some(route) = self.routes.get_mut(s as usize) else {
                        continue; // unreachable with honest peers
                    };
                    route.pending = None;
                    route.upstream = Some(from);
                    if let Some(old) = route.switching.take().filter(|&old| old != from) {
                        ctx.send(old, NetMsg::Unsubscribe { stripes: vec![s] });
                    }
                    if self.cfg.consensus.contains(&from) {
                        became_relayer |= self.relaying.insert(s);
                    }
                }
                if became_relayer {
                    ctx.metrics().incr("zone.relayer_promotions", 1);
                    self.announce_alive(ctx);
                }
            }
            NetMsg::RejectSub { stripes, children } => {
                for s in stripes {
                    let Some(route) = self.routes.get_mut(s as usize) else {
                        continue; // unreachable with honest peers
                    };
                    route.pending = None;
                    // A shed that was rejected is reverted: keep relaying
                    // from the consensus source (otherwise the stripe would
                    // silently keep flowing without being advertised, and
                    // volunteers would pile extra consensus subscriptions).
                    if let Some(old) = route.switching.take() {
                        if self.cfg.consensus.contains(&old) {
                            self.relaying.insert(s);
                            self.announce_alive(ctx);
                        }
                        continue;
                    }
                    if route.upstream.is_some() {
                        continue;
                    }
                    let me = ctx.node();
                    let alt: Vec<NodeId> = children
                        .iter()
                        .copied()
                        .filter(|&n| n != me && !self.cfg.consensus.contains(&n))
                        .collect();
                    // Nothing else serves it: go to the source, unless the
                    // source refused (maintenance retries the stripe).
                    let src = self.cfg.consensus[s as usize];
                    match alt.as_slice().choose(ctx.rng()).copied() {
                        Some(alt) => self.subscribe(ctx, alt, vec![s]),
                        None if from != src => self.subscribe(ctx, src, vec![s]),
                        None => {}
                    }
                }
            }
            NetMsg::Unsubscribe { stripes } => {
                for s in stripes {
                    if let Some(route) = self.routes.get_mut(s as usize) {
                        route.children.retain(|&n| n != from);
                    }
                }
            }
            NetMsg::RelayerAlive { join_seq, stripes } => {
                if stripes.is_empty() {
                    self.zone_relayers.remove(from);
                    return;
                }
                let set = StripeSet::from_iter(stripes.iter().copied());
                let now = ctx.now();
                self.zone_relayers.insert(
                    from,
                    RelayerState {
                        join_seq,
                        stripes: set,
                        seen: now,
                    },
                );
                self.shed_overlap(ctx, from, join_seq, set);
                // An ordinary node missing stripes subscribes to the newly
                // announced relayer.
                let wanted: Vec<u32> = set.iter().filter(|&s| self.unrequested(s)).collect();
                self.subscribe(ctx, from, wanted);
            }
            NetMsg::Leave => self.on_leave_of(ctx, from),
            NetMsg::Heartbeat => {
                let now = ctx.now();
                self.child_last_seen.insert(from, now);
            }
            NetMsg::Digest { blocks } => {
                for &block in blocks.iter() {
                    let slot = self.blocks.get(block);
                    let known = slot.is_some_and(|s| s.is_done() || s.pending().is_some());
                    if !known && self.pulled.insert(block) {
                        ctx.send(from, NetMsg::Pull { block });
                    }
                }
            }
            NetMsg::Pull { block } => {
                if let Some(slot) = self.blocks.get(block).filter(|s| s.is_done()) {
                    let bytes = slot.size();
                    ctx.send(from, NetMsg::FullBlock { block, bytes });
                }
            }
            NetMsg::BundlePull { bundle } => {
                ctx.metrics().incr("zone.bundle_pulls_received", 1);
                let slot = self.blocks.get(bundle.block);
                let have = slot.is_some_and(|s| s.is_done() || s.is_decoded(bundle.idx));
                if have {
                    ctx.metrics().incr("zone.bundle_pulls_served", 1);
                    let bytes = slot.and_then(|s| s.hint()).unwrap_or(25_600);
                    ctx.send(from, NetMsg::FullBundle { bundle, bytes });
                }
            }
            NetMsg::FullBundle { bundle, bytes } => {
                ctx.metrics().incr("zone.full_bundles_received", 1);
                let now = ctx.now();
                let slot = self.blocks.entry(bundle.block);
                if slot.is_done() {
                    return;
                }
                slot.note_touch(now);
                if slot.mark_decoded(bundle.idx) {
                    slot.add_size(bytes as u64);
                    self.try_complete(ctx, bundle.block);
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
            net_timers::ZONE_MAINTAIN => self.maintain(ctx),
            net_timers::JOIN_RETRY => {
                // If the bootstrap answer never came, fall back to the
                // consensus nodes directly.
                for s in 0..self.cfg.n_c as u32 {
                    self.acquire(ctx, s);
                }
            }
            net_timers::HEARTBEAT => {
                // §IV-E: prove liveness to the nodes serving us...
                let mut providers: Vec<NodeId> = self.providers().collect();
                providers.sort_unstable();
                providers.dedup();
                let hb_fanout = providers.len() as u64;
                ctx.multicast(providers, NetMsg::Heartbeat);
                if hb_fanout > 0 {
                    ctx.metrics()
                        .incr_handle(self.cells().heartbeats, hb_fanout);
                }
                // ...and disconnect children whose heartbeats timed out
                // (stop wasting uplink on crashed subscribers).
                let now = ctx.now();
                let cutoff = self.cfg.alive_interval * 8;
                let dead: Vec<NodeId> = self
                    .child_last_seen
                    .iter()
                    .filter(|(_, &seen)| now.saturating_since(seen) > cutoff)
                    .map(|(n, _)| n)
                    .collect();
                for n in dead {
                    self.child_last_seen.remove(n);
                    self.drop_child(n);
                    ctx.metrics().incr("zone.children_reaped", 1);
                }
                let interval = self.cfg.alive_interval * 2;
                ctx.set_timer(interval, TimerTag::of_kind(net_timers::HEARTBEAT));
            }
            net_timers::DIGEST => {
                let recent: Vec<u64> = self
                    .completed
                    .as_slice()
                    .iter()
                    .rev()
                    .take(8)
                    .copied()
                    .collect();
                if !recent.is_empty() {
                    let peers = self.backup_peers.clone();
                    ctx.multicast(
                        peers,
                        NetMsg::Digest {
                            blocks: Shared::new(recent),
                        },
                    );
                }
                let d = self.cfg.digest_interval;
                ctx.set_timer(d, TimerTag::of_kind(net_timers::DIGEST));
            }
            net_timers::LEAVE => {
                // §IV-E departure: tell children and providers, then halt.
                let mut notify = self.unique_children();
                for p in self.providers() {
                    if !notify.contains(&p) {
                        notify.push(p);
                    }
                }
                ctx.multicast(notify, NetMsg::Leave);
                ctx.metrics().incr("zone.voluntary_leaves", 1);
                ctx.halt();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SyntheticLoad, ZoneSource};
    use predis_sim::prelude::*;

    fn zcfg(consensus: Vec<NodeId>) -> ZoneConfig {
        ZoneConfig::paper(consensus)
    }

    #[test]
    fn k_is_nc_minus_f() {
        let cfg = zcfg((0..4u32).map(NodeId).collect());
        assert_eq!(cfg.k(), 3);
        let cfg16 = zcfg((0..16u32).map(NodeId).collect());
        assert_eq!(cfg16.k(), 11);
    }

    /// Drives a source + two nodes through the subscription handshake and
    /// one bundle, asserting stripes flow and decode.
    #[test]
    fn source_serves_only_its_stripe() {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(5, network);
        let cons: Vec<NodeId> = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let cfg = zcfg(cons.clone());
        let mut load = SyntheticLoad::for_block_size(25_600, 1, SimDuration::from_millis(500));
        load.blocks = 2;
        load.start_at = SimDuration::from_secs(2);
        for i in 0..4u32 {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(ActorOf::<_, NetMsg>::new(ZoneSource::new(
                    i,
                    cfg.clone(),
                    Some(load.clone()),
                ))),
                SimTime::ZERO,
            );
        }
        // Two full nodes in one zone.
        let a = NodeId(4);
        let b = NodeId(5);
        let zone: Arc<[NodeId]> = vec![a, b].into();
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                cfg.clone(),
                0,
                Arc::clone(&zone),
                a,
            ))),
            SimTime::ZERO,
        );
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                cfg.clone(),
                1,
                zone,
                b,
            ))),
            SimTime::from_millis(100),
        );
        sim.run_until(SimTime::from_secs(5));
        for node in [a, b] {
            let core = sim
                .actor_as::<ActorOf<MultiZoneNode, NetMsg>>(node)
                .unwrap()
                .core();
            assert_eq!(core.covered_stripes(), 4, "{node}");
            assert_eq!(core.completed_blocks, 2, "{node}");
            // Completed blocks retire their in-flight slots.
            assert_eq!(core.inflight_blocks(), 0, "{node}");
        }
        // Sources accepted at most the two nodes each.
        for i in 0..4u32 {
            let src = sim
                .actor_as::<ActorOf<ZoneSource, NetMsg>>(NodeId(i))
                .unwrap()
                .core();
            assert!(src.subscriber_count() <= 2, "source {i}");
            assert!(src.subscriber_count() >= 1, "source {i}");
        }
    }

    /// Builds the Byzantine-relayer victim topology: four loaded sources,
    /// one early-joining relayer with the given fault, one honest child
    /// that bootstraps through it. Returns the sim plus (relayer, child).
    fn byz_world(fault: Option<StripeFault>, seed: u64) -> (Sim<NetMsg>, NodeId, NodeId) {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(seed, network);
        let cons: Vec<NodeId> = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let cfg = zcfg(cons.clone());
        let mut load = SyntheticLoad::for_block_size(25_600, 1, SimDuration::from_millis(500));
        load.blocks = 2;
        load.start_at = SimDuration::from_secs(2);
        for i in 0..4u32 {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(ActorOf::<_, NetMsg>::new(ZoneSource::new(
                    i,
                    cfg.clone(),
                    Some(load.clone()),
                ))),
                SimTime::ZERO,
            );
        }
        let relayer = NodeId(4);
        let child = NodeId(5);
        let zone: Arc<[NodeId]> = vec![relayer, child].into();
        let mut r = MultiZoneNode::new(cfg.clone(), 0, Arc::clone(&zone), relayer);
        if let Some(f) = fault {
            r = r.with_stripe_fault(f);
        }
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(r)),
            SimTime::ZERO,
        );
        // Joins after the relayer has claimed every stripe, so its feeds
        // all run through the Byzantine node at first.
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                cfg.clone(),
                1,
                zone,
                child,
            ))),
            SimTime::from_millis(600),
        );
        (sim, relayer, child)
    }

    fn zone_core(sim: &Sim<NetMsg>, node: NodeId) -> &MultiZoneNode {
        sim.actor_as::<ActorOf<MultiZoneNode, NetMsg>>(node)
            .unwrap()
            .core()
    }

    /// A corrupting relayer's stripes fail the integrity check: the child
    /// counts the rejections, never decodes from poisoned data, and still
    /// completes every block through re-fetch — no deadlocked slot.
    #[test]
    fn corrupt_stripes_are_rejected_and_blocks_refetched() {
        let (mut sim, relayer, child) = byz_world(Some(StripeFault::Corrupt), 21);
        sim.run_until(SimTime::from_secs(8));
        let rejected = sim
            .metrics()
            .labeled_counter("zone.stripes_rejected", Labels::node(child.index() as u64));
        assert!(rejected > 0, "child saw no corrupt stripes to reject");
        // The Byzantine node itself decodes fine (it receives honest data).
        assert_eq!(zone_core(&sim, relayer).completed_blocks, 2);
        // Liveness: the child recovered every block despite the poisoning.
        let c = zone_core(&sim, child);
        assert_eq!(c.completed_blocks, 2, "child failed to recover blocks");
        assert_eq!(c.inflight_blocks(), 0, "a block slot deadlocked");
        assert!(
            sim.metrics().counter("zone.bundle_pulls") > 0,
            "recovery should have gone through the pull path"
        );
    }

    /// A withholding relayer forwards nothing: the child starves, reroutes
    /// off the silent provider, and recovers — again without rejections
    /// (nothing corrupt ever arrives) or stuck slots.
    #[test]
    fn withheld_stripes_starve_then_reroute() {
        let (mut sim, relayer, child) = byz_world(Some(StripeFault::Withhold), 22);
        sim.run_until(SimTime::from_secs(8));
        let rejected = sim
            .metrics()
            .labeled_counter("zone.stripes_rejected", Labels::node(child.index() as u64));
        assert_eq!(rejected, 0, "withholding sends nothing to reject");
        assert_eq!(zone_core(&sim, relayer).completed_blocks, 2);
        let c = zone_core(&sim, child);
        assert_eq!(c.completed_blocks, 2, "child failed to recover blocks");
        assert_eq!(c.inflight_blocks(), 0, "a block slot deadlocked");
    }

    /// Control: the same topology with an honest relayer completes without
    /// a single rejection, so the counter isolates Byzantine behaviour.
    #[test]
    fn honest_relayer_causes_no_rejections() {
        let (mut sim, _, child) = byz_world(None, 23);
        sim.run_until(SimTime::from_secs(8));
        assert_eq!(
            sim.metrics()
                .labeled_counter("zone.stripes_rejected", Labels::node(child.index() as u64)),
            0
        );
        assert_eq!(zone_core(&sim, child).completed_blocks, 2);
    }

    /// Retired-ring interaction (PR 8): in the ann-less mode a fully
    /// decoded block retires its slot; a late honest duplicate is absorbed
    /// by the ring, while a late *corrupt* stripe is rejected and counted —
    /// neither resurrects the slot.
    #[test]
    fn retired_block_absorbs_duplicates_and_rejects_corrupt() {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(3, network);
        let mut cfg = zcfg(vec![NodeId(10), NodeId(11), NodeId(12), NodeId(13)]);
        cfg.retire_unannounced = true;
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(MultiZoneNode::new(
                cfg,
                0,
                vec![NodeId(0)].into(),
                NodeId(0),
            ))),
            SimTime::ZERO,
        );
        let bundle = BundleId { block: 1, idx: 0 };
        let stripe = |s: u32, corrupt: bool| NetMsg::Stripe {
            bundle,
            stripe: s,
            k: 3,
            bytes: 100,
            corrupt,
        };
        let from = NodeId(9); // sender identity is irrelevant to the handler
        for (i, s) in [0u32, 1, 2, 3].into_iter().enumerate() {
            sim.inject(
                n,
                from,
                stripe(s, false),
                SimTime::from_millis(100 + i as u64 * 10),
            );
        }
        sim.run_until(SimTime::from_millis(200));
        let core = zone_core(&sim, n);
        assert_eq!(core.inflight_blocks(), 0, "decoded block must retire");
        // Late honest duplicate: absorbed by the retired ring.
        sim.inject(n, from, stripe(2, false), SimTime::from_millis(210));
        // Late corrupt duplicate: rejected before the ring is consulted.
        sim.inject(n, from, stripe(1, true), SimTime::from_millis(220));
        sim.run_until(SimTime::from_millis(300));
        let core = zone_core(&sim, n);
        assert_eq!(
            core.inflight_blocks(),
            0,
            "a duplicate resurrected the slot"
        );
        assert_eq!(
            sim.metrics()
                .labeled_counter("zone.stripes_rejected", Labels::node(n.index() as u64)),
            1
        );
    }

    /// Recovery pulls are capped at 64 per maintenance period across all
    /// overdue blocks, not per block: two announced 100-bundle blocks with
    /// nothing received cost exactly 64 pulls in the first period that
    /// finds them overdue.
    #[test]
    fn recovery_pulls_are_capped_per_period_across_blocks() {
        /// A consensus node that only counts the pulls it receives.
        #[derive(Debug, Default)]
        struct PullCounter {
            pulls: u64,
        }
        impl Actor<NetMsg> for PullCounter {
            fn on_message(&mut self, _ctx: &mut Context<'_, NetMsg>, _f: NodeId, msg: NetMsg) {
                if matches!(msg, NetMsg::BundlePull { .. }) {
                    self.pulls += 1;
                }
            }
        }
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(7, network);
        let cons: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        for _ in &cons {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(PullCounter::default()),
                SimTime::ZERO,
            );
        }
        // Alone in its zone, so every pull goes to a consensus node.
        let me = NodeId(4);
        let node = MultiZoneNode::new(zcfg(cons.clone()), 0, vec![me].into(), me);
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(node)),
            SimTime::ZERO,
        );
        for block in [1, 2] {
            let ann = NetMsg::BlockAnn {
                block,
                bundles: 100,
                wire: 2_500,
            };
            sim.inject(me, cons[0], ann, SimTime::from_millis(10));
        }
        // Maintenance runs every 250 ms; the blocks are overdue (two
        // periods old) first at 750 ms, and the next period is at 1 s.
        sim.run_until(SimTime::from_millis(900));
        let pulls: u64 = cons
            .iter()
            .map(|&c| sim.actor_as::<PullCounter>(c).unwrap().pulls)
            .sum();
        assert_eq!(pulls, 64);
        assert_eq!(sim.metrics().counter("zone.bundle_pulls"), 1);
    }

    /// A revived node keeps its routes: on its second start, the first
    /// node of a zone subscribes only the stripes it has no provider for.
    #[test]
    fn revival_resubscribes_only_uncovered_stripes() {
        /// A consensus node that grants and counts every subscription.
        #[derive(Debug, Default)]
        struct Granter {
            subscribes: u64,
        }
        impl Actor<NetMsg> for Granter {
            fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, msg: NetMsg) {
                if let NetMsg::Subscribe { stripes } = msg {
                    self.subscribes += 1;
                    ctx.send(from, NetMsg::AcceptSub { stripes });
                }
            }
        }
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<NetMsg> = Sim::new(9, network);
        let cons: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        for _ in &cons {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(Granter::default()),
                SimTime::ZERO,
            );
        }
        let me = NodeId(4);
        let node = MultiZoneNode::new(zcfg(cons.clone()), 0, vec![me].into(), me);
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, NetMsg>::new(node)),
            SimTime::ZERO,
        );
        let mut faults = FaultPlan::none();
        faults.crash_for(me, SimTime::from_secs(1), SimTime::from_millis(1_500));
        sim.set_faults(faults);
        sim.run_until(SimTime::from_secs(2));
        let subscribes: u64 = cons
            .iter()
            .map(|&c| sim.actor_as::<Granter>(c).unwrap().subscribes)
            .sum();
        assert_eq!(
            subscribes, 4,
            "one subscription per stripe, none on revival"
        );
        assert_eq!(zone_core(&sim, me).covered_stripes(), 4);
    }
}
