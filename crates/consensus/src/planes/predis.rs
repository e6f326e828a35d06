//! The Predis data plane (§III of the paper).
//!
//! Each consensus node continuously packs client transactions into bundles,
//! multicasts them to the committee, and maintains the parallel-bundle-chain
//! mempool. Proposals are constant-size Predis blocks; voters validate them
//! against their own mempool, fetching missing bundles when needed.

use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};

use predis_crypto::{Hash, Keypair, SignerId};
use predis_mempool::{BlockValidationError, BundleProducer, InsertOutcome, Mempool, TxPool};
use predis_sim::{
    BundleKey, Codec, CounterHandle, Labels, NarrowContext, NodeId, SimTime, Stage, TimerTag,
};
use predis_types::{
    ChainId, Height, IdMap, IdSet, ProposalPayload, SizedBundle, Transaction, TxId, View,
};
use rand::seq::SliceRandom;

use crate::config::{timers, ConsensusConfig, Roster};
use crate::msg::ConsMsg;
use crate::plane::{DataPlane, PlaneOutcome, ProposalCheck};

/// The Predis content strategy.
#[derive(Debug)]
pub struct PredisPlane {
    me: usize,
    roster: Roster,
    cfg: ConsensusConfig,
    key: Keypair,
    producer: BundleProducer,
    mempool: Mempool,
    txpool: TxPool,
    /// Cut of every proposal this node has built or validated, keyed by the
    /// proposal's payload digest, so children can be validated against the
    /// right base even before their parent commits (pipelining). Bounded:
    /// insertion order is tracked and old entries are evicted.
    cuts: IdMap<Hash, Vec<Height>>,
    cut_order: VecDeque<Hash>,
    last_produced: SimTime,
    /// Ordered so retry iteration (and message emission) is deterministic.
    outstanding: BTreeSet<(ChainId, Height)>,
    /// Byzantine case 2 (Fig. 6): send each bundle only to a random subset
    /// of this size instead of the whole committee.
    selective_subset: Option<usize>,
    /// Mir-BFT-style transaction partitioning (§III-E duplicate-transaction
    /// countermeasure, the paper's future-work item): this node only packs
    /// transactions hashing into its partition and drops duplicates.
    partitioning: bool,
    /// Transactions already packed (dedup when partitioning is on).
    packed: IdSet<TxId>,
    /// Bundles this node produced, drained by composed actors that also run
    /// a dissemination layer (Multi-Zone). Shared handles: the mempool and
    /// the multicast hold the same allocations.
    produced: Vec<SizedBundle>,
    /// Handles for the once-per-bundle counters: `predis.bundles_produced`
    /// and `predis.bundles_accepted`, minted here, and
    /// `mempool.tip_updates`, one `(node, chain)` cell per chain, minted in
    /// `init` (the first hook that knows the node's id).
    bundles_produced: CounterHandle,
    bundles_accepted: CounterHandle,
    tip_updates: Vec<CounterHandle>,
}

impl PredisPlane {
    /// Creates a Predis plane for committee member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig) -> PredisPlane {
        assert!(me < roster.n(), "committee index out of range");
        let n = roster.n();
        let f = roster.f();
        let key = Keypair::for_node(SignerId(me as u32));
        PredisPlane {
            me,
            key,
            producer: BundleProducer::new(ChainId(me as u32), key, cfg.bundle_size),
            mempool: Mempool::new(n, f, Some(ChainId(me as u32))),
            txpool: TxPool::new(),
            cuts: IdMap::default(),
            cut_order: VecDeque::new(),
            last_produced: SimTime::ZERO,
            outstanding: BTreeSet::new(),
            selective_subset: None,
            partitioning: false,
            packed: IdSet::default(),
            produced: Vec::new(),
            bundles_produced: CounterHandle::of("predis.bundles_produced", Labels::GLOBAL),
            bundles_accepted: CounterHandle::of("predis.bundles_accepted", Labels::GLOBAL),
            tip_updates: Vec::new(),
            roster,
            cfg,
        }
    }

    /// Byzantine case 2 (Fig. 6): restrict every bundle multicast to a
    /// random subset of `size` peers.
    pub fn with_selective_sending(mut self, size: usize) -> PredisPlane {
        self.selective_subset = Some(size);
        self
    }

    /// Enables Mir-BFT-style transaction partitioning (the paper's §III-E
    /// countermeasure to Byzantine clients submitting the same transaction
    /// to several nodes): each transaction belongs to exactly one producer
    /// (by hash), so duplicates across producers are impossible and
    /// duplicates within a producer are filtered.
    pub fn with_tx_partitioning(mut self) -> PredisPlane {
        self.partitioning = true;
        self
    }

    /// Read access to the mempool (post-run inspection, composed layers).
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Pending client transactions not yet packed into bundles.
    pub fn backlog(&self) -> usize {
        self.txpool.len()
    }

    /// Number of per-proposal cut records retained (bounded).
    pub fn retained_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// Drains the bundles this node has produced since the last call
    /// (consumed by composed dissemination layers).
    pub fn drain_produced(&mut self) -> Vec<SizedBundle> {
        std::mem::take(&mut self.produced)
    }

    fn remember_cut(&mut self, id: Hash, cut: Vec<Height>) {
        if self.cuts.insert(id, cut).is_none() {
            self.cut_order.push_back(id);
            // Keep a generous window: far more than any pipeline depth.
            while self.cut_order.len() > 1024 {
                let old = self.cut_order.pop_front().expect("non-empty");
                self.cuts.remove(&old);
            }
        }
    }

    /// Files a block's cut under both names a child may know it by: the
    /// shell's proposal `id` and the block's own `digest` (one and the
    /// same hash under PBFT).
    fn remember_block_cut(&mut self, id: Hash, digest: Hash, cut: &[Height]) {
        self.remember_cut(id, cut.to_vec());
        if digest != id {
            self.remember_cut(digest, cut.to_vec());
        }
    }

    fn base_for(&self, parent: Hash) -> Vec<Height> {
        self.cuts
            .get(&parent)
            .cloned()
            .unwrap_or_else(|| self.mempool.committed_base())
    }

    fn request_bundle<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        chain: ChainId,
        height: Height,
        also_ask: Option<usize>,
    ) {
        if !self.outstanding.insert((chain, height)) {
            return; // already requested; the refetch timer will retry
        }
        let producer = self.roster.consensus_node(chain.index());
        ctx.send(producer, ConsMsg::BundleRequest { chain, height });
        if let Some(extra) = also_ask {
            if extra != chain.index() && extra != self.me {
                ctx.send(
                    self.roster.consensus_node(extra),
                    ConsMsg::BundleRequest { chain, height },
                );
            }
        }
    }

    fn produce_once<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        allow_empty: bool,
    ) -> bool {
        let tips = self.mempool.my_tips();
        let Some(bundle) = self
            .producer
            .produce(&mut self.txpool, tips, Hash::ZERO, allow_empty)
        else {
            return false;
        };
        // The mempool, the multicast, and `produced` all share the
        // producer's one allocation, and with it the fold it was built from.
        self.mempool
            .insert_bundle(bundle.clone())
            .expect("own bundle is valid");
        let key = BundleKey {
            producer: bundle.header.chain.index() as u64,
            chain: bundle.header.chain.index() as u64,
            height: bundle.header.height.0,
        };
        let is_heartbeat = bundle.txs.is_empty();
        let msg = ConsMsg::Bundle(bundle.clone());
        match self.selective_subset {
            Some(k) => {
                let mut targets: Vec<NodeId> = self.roster.peers_of(self.me).collect();
                targets.shuffle(ctx.rng());
                targets.truncate(k);
                ctx.multicast(targets, msg);
            }
            None => ctx.multicast(self.roster.peers_of(self.me), msg),
        }
        let now = ctx.now();
        ctx.metrics().incr_handle(self.bundles_produced, 1);
        if is_heartbeat {
            ctx.metrics()
                .incr_labeled("predis.heartbeats", Labels::chain(key.chain), 1);
        }
        ctx.metrics().timeline_mark(key, Stage::Produced, now);
        ctx.metrics().timeline_mark(key, Stage::Multicast, now);
        self.produced.push(bundle);
        self.last_produced = now;
        true
    }

    /// Marks `stage` for every height the cut advances past `base`, one mark
    /// per (chain, height) bundle slot covered by the block.
    fn mark_cut_stages<M: Codec<ConsMsg>>(
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        base: &[Height],
        cut: &[Height],
        stage: Stage,
    ) {
        let now = ctx.now();
        for (i, (b, c)) in base.iter().zip(cut).enumerate() {
            for h in b.0 + 1..=c.0 {
                let key = BundleKey {
                    producer: i as u64,
                    chain: i as u64,
                    height: h,
                };
                ctx.metrics().timeline_mark(key, stage, now);
            }
        }
    }
}

impl DataPlane for PredisPlane {
    fn has_pending(&self) -> bool {
        // Unconfirmed bundles in any chain, or unpacked client txs.
        let committed = self.mempool.committed_base();
        let tips = self.mempool.my_tips();
        !self.txpool.is_empty()
            || tips
                .heights()
                .iter()
                .zip(&committed)
                .any(|(tip, base)| tip > base)
    }

    fn init<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        let me = Labels::node(ctx.node().index() as u64);
        self.tip_updates = (0..self.roster.n() as u64)
            .map(|chain| CounterHandle::of("mempool.tip_updates", me.and_chain(chain)))
            .collect();
        ctx.set_timer(
            self.cfg.production_interval,
            TimerTag::of_kind(timers::PLANE_PRODUCE),
        );
        ctx.set_timer(
            self.cfg.heartbeat * 5,
            TimerTag::of_kind(timers::PLANE_REFETCH),
        );
    }

    fn handle<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: &ConsMsg,
    ) -> PlaneOutcome {
        match msg {
            ConsMsg::Submit(tx) => {
                if self.partitioning {
                    let owner = (tx.hash().to_u64() % self.roster.n() as u64) as usize;
                    if owner != self.me || !self.packed.insert(tx.id) {
                        ctx.metrics().incr("predis.partition_filtered", 1);
                        return PlaneOutcome::CONSUMED;
                    }
                }
                self.txpool.push(*tx);
                PlaneOutcome::CONSUMED
            }
            ConsMsg::Bundle(bundle) => {
                let chain = bundle.header.chain;
                // Arc bump: the mempool keeps the delivered allocation.
                match self.mempool.insert_bundle(bundle.clone()) {
                    Ok(InsertOutcome::Inserted { new_tip, .. }) => {
                        ctx.metrics().incr_handle(self.bundles_accepted, 1);
                        ctx.metrics()
                            .incr_handle(self.tip_updates[chain.index()], 1);
                        let now = ctx.now();
                        ctx.metrics().timeline_mark(
                            BundleKey {
                                producer: chain.index() as u64,
                                chain: chain.index() as u64,
                                height: bundle.header.height.0,
                            },
                            Stage::TipAcked,
                            now,
                        );
                        // Anything we were waiting for at or below the new
                        // tip has arrived.
                        self.outstanding.retain(|&(c, h)| c != chain || h > new_tip);
                        PlaneOutcome::PROGRESSED
                    }
                    Ok(InsertOutcome::Parked { waiting_for }) => {
                        self.request_bundle(ctx, chain, waiting_for, None);
                        PlaneOutcome::CONSUMED
                    }
                    Ok(InsertOutcome::Conflict(proof)) => {
                        ctx.metrics().incr("predis.conflicts_detected", 1);
                        ctx.metrics().incr_labeled(
                            "ban.hits",
                            Labels::chain(chain.index() as u64),
                            1,
                        );
                        ctx.multicast(
                            self.roster.peers_of(self.me),
                            ConsMsg::ConflictGossip((*proof).into()),
                        );
                        PlaneOutcome::CONSUMED
                    }
                    Ok(_) => PlaneOutcome::CONSUMED,
                    Err(_) => {
                        ctx.metrics().incr("predis.bundles_rejected", 1);
                        PlaneOutcome::CONSUMED
                    }
                }
            }
            ConsMsg::BundleRequest { chain, height } => {
                if let Some(b) = self.mempool.get_bundle_shared(*chain, *height) {
                    // Re-serve the stored allocation: Arc bump, no body copy.
                    ctx.send(from, ConsMsg::Bundle(b.clone()));
                }
                PlaneOutcome::CONSUMED
            }
            ConsMsg::ConflictGossip(proof) => {
                if self.mempool.register_conflict((**proof).clone()) {
                    ctx.metrics().incr_labeled(
                        "ban.hits",
                        Labels::chain(proof.a.chain.index() as u64),
                        1,
                    );
                    ctx.multicast(
                        self.roster.peers_of(self.me),
                        ConsMsg::ConflictGossip(proof.clone()),
                    );
                }
                PlaneOutcome::CONSUMED
            }
            _ => PlaneOutcome::IGNORED,
        }
    }

    fn on_timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) -> bool {
        match tag.kind {
            timers::PLANE_PRODUCE => {
                let since = ctx.now().saturating_since(self.last_produced);
                let backlog = self.txpool.len();
                if ctx.link_backlog() > self.cfg.max_link_backlog {
                    // Upload link saturated (e.g. by dissemination duties):
                    // back off, matching TCP fair sharing on a real node.
                } else if backlog >= self.cfg.bundle_size {
                    self.produce_once(ctx, false);
                } else if since >= self.cfg.heartbeat {
                    // Partial bundle if we have stragglers, otherwise an
                    // empty heartbeat so tip lists keep flowing.
                    self.produce_once(ctx, true);
                }
                ctx.set_timer(
                    self.cfg.production_interval,
                    TimerTag::of_kind(timers::PLANE_PRODUCE),
                );
                true
            }
            timers::PLANE_REFETCH => {
                let stale: Vec<(ChainId, Height)> =
                    std::mem::take(&mut self.outstanding).into_iter().collect();
                for (chain, height) in stale {
                    if self.mempool.get_bundle(chain, height).is_none()
                        && self.mempool.chain(chain).tip() < height
                    {
                        let extra = (self.me + 1) % self.roster.n();
                        self.request_bundle(ctx, chain, height, Some(extra));
                    }
                }
                ctx.set_timer(
                    self.cfg.heartbeat * 5,
                    TimerTag::of_kind(timers::PLANE_REFETCH),
                );
                true
            }
            _ => false,
        }
    }

    fn make_proposal<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        view: View,
    ) -> Option<ProposalPayload> {
        let base = self.base_for(parent);
        let (block, digest) = self
            .mempool
            .build_block_signed(view, parent, &base, &self.key)?;
        self.remember_cut(digest, block.cut.clone());
        Self::mark_cut_stages(ctx, &base, &block.cut, Stage::Cut);
        ctx.metrics().incr("predis.cuts_made", 1);
        Some(ProposalPayload::Predis(Box::new(block)))
    }

    fn validate<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        proposer: usize,
        parent: Hash,
        id: Hash,
        digest: Hash,
        payload: &ProposalPayload,
    ) -> ProposalCheck {
        let block = match payload {
            ProposalPayload::Predis(block) => block,
            // Empty keep-alive blocks (chained HotStuff proposes them to
            // drive the 3-chain forward when there is nothing to order):
            // accept and thread the parent's cut through.
            ProposalPayload::Batch(txs) if txs.is_empty() => {
                let base = self.base_for(parent);
                self.remember_cut(id, base);
                return ProposalCheck::Accept;
            }
            _ => return ProposalCheck::Reject,
        };
        // `digest` is this block's `PredisBlock::digest` (the payload
        // digest of a Predis proposal), already derived by the shell.
        if !block.signature.verify_by(SignerId(proposer as u32), digest) {
            return ProposalCheck::Reject;
        }
        let base = self.base_for(parent);
        match self.mempool.validate_block(block, &base) {
            Ok(()) => {
                self.remember_block_cut(id, digest, &block.cut);
                Self::mark_cut_stages(ctx, &base, &block.cut, Stage::Proposed);
                ProposalCheck::Accept
            }
            Err(BlockValidationError::MissingBundles(missing)) => {
                for (chain, height) in missing {
                    self.request_bundle(ctx, chain, height, Some(proposer));
                }
                ProposalCheck::Defer
            }
            // §III-B check 2: our bundle at the cut height differs from the
            // one the block references. Fetch the leader's copy — inserting
            // it will either surface an equivocation proof (same parent,
            // different header → producer banned and the proof gossiped) or
            // reveal the block as junk. Defer until the evidence arrives.
            Err(BlockValidationError::HeaderMismatch(chain)) => {
                let height = block.cut[chain.index()];
                // Bypass the dedup in request_bundle: we *do* hold a bundle
                // at this height, we want the proposer's conflicting copy.
                ctx.send(
                    self.roster.consensus_node(proposer),
                    ConsMsg::BundleRequest { chain, height },
                );
                ProposalCheck::Defer
            }
            // The leader may know a parent cut we have not seen yet.
            Err(BlockValidationError::BaseMismatch) if !self.cuts.contains_key(&parent) => {
                ProposalCheck::Defer
            }
            Err(_) => ProposalCheck::Reject,
        }
    }

    fn catch_up<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        id: Hash,
        digest: Hash,
        payload: &ProposalPayload,
        txs: Vec<Transaction>,
    ) -> Vec<Transaction> {
        match payload {
            ProposalPayload::Predis(block) => {
                // Re-anchor the bundle chains at the block's cut: the
                // missed bundles are pruned network-wide, but the header
                // hashes in the block are exactly the anchors live bundles
                // chain onto.
                self.remember_block_cut(id, digest, &block.cut);
                let absorbed = self.mempool.fast_forward(block);
                if absorbed > 0 {
                    ctx.metrics().incr("predis.catchup_absorbed", absorbed);
                }
                // Our own producer must not reuse heights the network has
                // already committed for our chain.
                let me_chain = ChainId(self.me as u32);
                let committed = self.mempool.chain(me_chain).committed();
                if self.producer.next_height() <= committed {
                    let parent_hash = self
                        .mempool
                        .chain(me_chain)
                        .hash_at(committed)
                        .expect("anchor recorded");
                    self.producer.restart_at(committed.next(), parent_hash);
                }
                ctx.metrics().incr("predis.blocks_caught_up", 1);
            }
            ProposalPayload::Batch(b) if b.is_empty() => {
                let base = self.base_for(parent);
                self.remember_cut(id, base);
            }
            _ => {}
        }
        txs
    }

    fn commit<'p, M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        id: Hash,
        digest: Hash,
        payload: &'p ProposalPayload,
    ) -> Option<Cow<'p, [Transaction]>> {
        let block = match payload {
            ProposalPayload::Predis(block) => block,
            ProposalPayload::Batch(txs) if txs.is_empty() => {
                let base = self.base_for(parent);
                self.remember_cut(id, base);
                return Some(Cow::Borrowed(&[]));
            }
            _ => return Some(Cow::Borrowed(&[])),
        };
        match self.mempool.extract_txs(block) {
            Some(txs) => {
                self.remember_block_cut(id, digest, &block.cut);
                let prev = self.mempool.committed_base();
                self.mempool.commit_cut(&block.cut);
                Self::mark_cut_stages(ctx, &prev, &block.cut, Stage::Committed);
                ctx.metrics().incr("predis.blocks_executed", 1);
                Some(Cow::Owned(txs))
            }
            None => {
                // Fetch whatever is missing, stall execution.
                for i in 0..block.chain_count() {
                    let chain = ChainId(i as u32);
                    for h in self
                        .mempool
                        .chain(chain)
                        .missing_in(self.mempool.chain(chain).tip(), block.cut[i])
                    {
                        self.request_bundle(ctx, chain, h, None);
                    }
                }
                None
            }
        }
    }
}
