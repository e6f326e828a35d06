//! A chained-HotStuff consensus shell over a pluggable [`DataPlane`].
//!
//! Implements the chained (pipelined) variant of HotStuff: rotating
//! leaders, all-to-one voting (linear message complexity), a highest-QC
//! pacemaker, and the one-direct-three-chain commit rule. With
//! [`crate::planes::BatchPlane`] it is the paper's HotStuff baseline; with
//! [`crate::planes::PredisPlane`] it is **P-HS**; with
//! [`crate::planes::MicroPlane`] it is the Narwhal-lite / Stratus-lite
//! baseline of Fig. 5.

use std::collections::VecDeque;

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId, ProtocolCore, TimerTag};
use predis_types::{IdMap, IdSet, ProposalPayload, SeqNum, SizedPayload, Transaction, View};

use crate::config::{timers, ConsensusConfig, Roster, VoteSet};
use crate::msg::{ConsMsg, HsBlockMsg, Qc};
use crate::pbft::{catch_up_txs, deliver_commit, kept_for_catch_up};
use crate::plane::{DataPlane, ProposalCheck};

/// A stored block with its local voting status.
#[derive(Debug)]
struct BlockEntry {
    /// Shared with the delivered proposal (and, on the leader, with every
    /// outgoing copy).
    msg: SizedPayload<HsBlockMsg>,
    /// `msg.payload.digest()`, derived once when the proposal's hash was
    /// checked; the data plane is handed this instead of re-digesting.
    payload_digest: Hash,
    validated: bool,
    deferred: bool,
    executed: bool,
    /// Executed transactions, retained (within the GC window) for serving
    /// crash-recovery state transfer — unless they are the payload's own
    /// batch, which is served from the payload.
    kept_txs: Option<Vec<Transaction>>,
}

/// A chained-HotStuff replica parameterised by its data plane.
///
/// # Examples
///
/// ```
/// use predis_consensus::planes::{AckRule, MicroPlane};
/// use predis_consensus::{ConsensusConfig, HotStuffNode, Roster};
/// use predis_sim::NodeId;
///
/// let roster = Roster::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)], vec![]);
/// let cfg = ConsensusConfig::default();
/// // The Narwhal-lite baseline: HotStuff over RBC-certified microblocks.
/// let node = HotStuffNode::new(
///     0,
///     roster.clone(),
///     cfg.clone(),
///     MicroPlane::new(0, roster, cfg, AckRule::ReliableBroadcast),
/// );
/// assert_eq!(node.round(), predis_types::View(1));
/// ```
#[derive(Debug)]
pub struct HotStuffNode<P> {
    me: usize,
    roster: Roster,
    cfg: ConsensusConfig,
    plane: P,
    round: View,
    generic_qc: Qc,
    locked_qc: Qc,
    last_voted: View,
    blocks: IdMap<Hash, BlockEntry>,
    votes: IdMap<(Hash, View), VoteSet>,
    newviews: IdMap<View, VoteSet>,
    proposed_rounds: IdSet<View>,
    /// Blocks committed by the 3-chain rule, awaiting execution in order.
    exec_queue: VecDeque<Hash>,
    /// Executed blocks in order (drives garbage collection and serves
    /// crash-recovery catch-up).
    exec_order: VecDeque<Hash>,
    /// Execution index of `exec_order.front()` (indices are global: the
    /// n-th block every replica executes).
    exec_base: u64,
    /// A catch-up request is in flight.
    syncing: bool,
    committed_set: IdSet<Hash>,
    /// `deliver_commit`'s reusable sort buffer.
    reply_scratch: Vec<(u32, u32)>,
    /// Byzantine mute mode: never proposes or votes.
    mute: bool,
    /// Deferred votes: blocks whose payload validation is pending data.
    pending_votes: Vec<Hash>,
    /// Total transactions this replica has executed.
    pub executed_txs: u64,
    /// Total blocks this replica has executed.
    pub executed_blocks: u64,
}

impl<P: DataPlane> HotStuffNode<P> {
    /// Creates a replica for committee member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig, plane: P) -> HotStuffNode<P> {
        assert!(me < roster.n(), "committee index out of range");
        HotStuffNode {
            me,
            roster,
            cfg,
            plane,
            round: View(1),
            generic_qc: Qc::GENESIS,
            locked_qc: Qc::GENESIS,
            last_voted: View(0),
            blocks: IdMap::default(),
            votes: IdMap::default(),
            newviews: IdMap::default(),
            proposed_rounds: IdSet::default(),
            exec_queue: VecDeque::new(),
            exec_order: VecDeque::new(),
            exec_base: 0,
            syncing: false,
            committed_set: IdSet::default(),
            reply_scratch: Vec::new(),
            mute: false,
            pending_votes: Vec::new(),
            executed_txs: 0,
            executed_blocks: 0,
        }
    }

    /// Byzantine variant: never proposes or votes (Fig. 6).
    pub fn muted(mut self) -> Self {
        self.mute = true;
        self
    }

    /// The data plane (post-run inspection).
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// Mutable access to the data plane (composed actors drain produced
    /// bundles through this).
    pub fn plane_mut(&mut self) -> &mut P {
        &mut self.plane
    }

    /// The replica's current round.
    pub fn round(&self) -> View {
        self.round
    }

    /// The highest quorum certificate this replica holds.
    pub fn high_qc(&self) -> Qc {
        self.generic_qc
    }

    /// Number of blocks currently retained (bounded by garbage collection).
    pub fn retained_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn leader_of(&self, round: View) -> usize {
        self.roster.leader_of(round.0)
    }

    fn update_high_qc(&mut self, qc: Qc) {
        if qc.round > self.generic_qc.round {
            self.generic_qc = qc;
        }
    }

    fn try_propose<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        if self.mute
            || self.leader_of(self.round) != self.me
            || self.proposed_rounds.contains(&self.round)
        {
            return;
        }
        // Happy path: a QC for the previous round. Timeout path: a quorum of
        // new-view messages for this round.
        let happy = self.generic_qc.round.next() == self.round;
        let timeout_quorum = self
            .newviews
            .get(&self.round)
            .is_some_and(|s| s.len() >= self.roster.quorum());
        if !happy && !timeout_quorum {
            return;
        }
        let parent = self.generic_qc.block;
        let payload = match self.plane.make_proposal(ctx, parent, self.round) {
            Some(p) => p,
            None => {
                // Nothing to order. Keep the pipeline moving with an empty
                // block only if uncommitted blocks are waiting on the
                // 3-chain rule; otherwise stay silent.
                let chain_pending =
                    !parent.is_zero() && !self.blocks.get(&parent).is_none_or(|b| b.executed);
                if chain_pending {
                    ProposalPayload::Batch(Vec::new())
                } else {
                    return;
                }
            }
        };
        let hash = HsBlockMsg::compute_hash(parent, self.round, payload.digest());
        // Wrap once: the local block store and every recipient share it.
        let block = SizedPayload::from(HsBlockMsg {
            hash,
            parent,
            round: self.round,
            payload,
            justify: self.generic_qc,
        });
        self.proposed_rounds.insert(self.round);
        ctx.metrics().incr("hs.proposals", 1);
        // Deliver to self first (local processing), then multicast.
        self.on_proposal(ctx, self.me, block.clone());
        ctx.multicast(self.roster.peers_of(self.me), ConsMsg::HsProposal(block));
    }

    fn on_proposal<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: usize,
        block: SizedPayload<HsBlockMsg>,
    ) {
        if from != self.leader_of(block.round) || block.parent != block.justify.block {
            return;
        }
        let payload_digest = block.payload.digest();
        if block.hash != HsBlockMsg::compute_hash(block.parent, block.round, payload_digest) {
            return;
        }
        let hash = block.hash;
        self.blocks.entry(hash).or_insert_with(|| BlockEntry {
            msg: block.clone(),
            payload_digest,
            validated: false,
            deferred: false,
            executed: false,
            kept_txs: None,
        });
        self.update_high_qc(block.justify);
        // Crash-recovery lag detection: the proposal's parent is a block
        // we never saw and our committed history is far behind the chain's
        // round — fetch the executed gap from the proposer.
        if !self.mute
            && !self.syncing
            && !block.parent.is_zero()
            && !self.blocks.contains_key(&block.parent)
            && block.round.0 > 8
        {
            self.syncing = true;
            ctx.metrics().incr("hs.catchup_requests", 1);
            ctx.send(
                self.roster.consensus_node(from),
                ConsMsg::CatchUpRequest {
                    from: SeqNum(self.executed_blocks),
                },
            );
        }
        self.apply_commit_rule(ctx, hash);
        // Pacemaker: seeing a proposal for round r moves us to r + 1.
        if block.round >= self.round {
            self.advance_round(ctx, block.round.next());
        }
        self.try_vote(ctx, hash);
        self.try_propose(ctx);
    }

    fn try_vote<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        hash: Hash,
    ) {
        if self.mute {
            return;
        }
        let Some(entry) = self.blocks.get(&hash) else {
            return;
        };
        let block = &entry.msg;
        // Safety rule: vote once per round, and only for blocks extending
        // the lock (or justified past it).
        if block.round <= self.last_voted {
            return;
        }
        let safe = block.justify.round >= self.locked_qc.round;
        if !safe {
            return;
        }
        if !entry.validated {
            let proposer = self.leader_of(block.round);
            let parent = block.parent;
            let digest = entry.payload_digest;
            let msg = entry.msg.clone(); // Arc bump, not a payload copy
            match self
                .plane
                .validate(ctx, proposer, parent, hash, digest, &msg.payload)
            {
                ProposalCheck::Accept => {
                    self.blocks.get_mut(&hash).expect("exists").validated = true;
                }
                ProposalCheck::Defer => {
                    let e = self.blocks.get_mut(&hash).expect("exists");
                    e.deferred = true;
                    if !self.pending_votes.contains(&hash) {
                        self.pending_votes.push(hash);
                    }
                    return;
                }
                ProposalCheck::Reject => {
                    ctx.metrics().incr("hs.rejected_proposals", 1);
                    return;
                }
            }
        }
        let block = &self.blocks.get(&hash).expect("exists").msg;
        let round = block.round;
        self.last_voted = round;
        // Lock on the parent's QC (two-chain rule).
        if let Some(parent) = self.blocks.get(&block.parent) {
            if parent.msg.justify.round > self.locked_qc.round {
                self.locked_qc = parent.msg.justify;
            }
        }
        let next_leader = self.leader_of(round.next());
        let vote = ConsMsg::HsVote { block: hash, round };
        if next_leader == self.me {
            self.on_vote(ctx, self.me, hash, round);
        } else {
            ctx.send(self.roster.consensus_node(next_leader), vote);
        }
    }

    fn on_vote<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: usize,
        block: Hash,
        round: View,
    ) {
        let quorum = self.roster.quorum();
        let set = self.votes.entry((block, round)).or_default();
        set.insert(from);
        if set.len() == quorum {
            self.update_high_qc(Qc { block, round });
            self.advance_round(ctx, round.next());
            self.try_propose(ctx);
        }
    }

    fn advance_round<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        to: View,
    ) {
        if to > self.round {
            self.round = to;
            ctx.metrics().incr("hs.rounds", 1);
            // Vote and new-view tallies for long-past rounds are dead.
            if self.round.0 > 128 {
                let cutoff = View(self.round.0 - 128);
                self.votes.retain(|(_, r), _| *r >= cutoff);
                self.newviews.retain(|r, _| *r >= cutoff);
                self.proposed_rounds.retain(|r| *r >= cutoff);
            }
        }
    }

    /// One-direct-three-chain commit: on seeing block `b`, if
    /// `b.justify -> b1`, `b1.parent = b2`, `b2.parent = b3` with direct
    /// parent links, commit `b3` and all its uncommitted ancestors.
    fn apply_commit_rule<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        b: Hash,
    ) {
        let Some(b1) = self.blocks.get(&b).map(|e| e.msg.justify.block) else {
            return;
        };
        let Some(b1e) = self.blocks.get(&b1) else {
            return;
        };
        let b2 = b1e.msg.parent;
        let b1_round = b1e.msg.round;
        let Some(b2e) = self.blocks.get(&b2) else {
            return;
        };
        let b3 = b2e.msg.parent;
        let b2_round = b2e.msg.round;
        // Require the chain b3 <- b2 <- b1 with consecutive justifications:
        // b1.justify certifies b2, b2.justify certifies b3.
        if b1e.msg.justify.block != b2 || b2e.msg.justify.block != b3 {
            return;
        }
        let _ = (b1_round, b2_round);
        if b3.is_zero() || self.committed_set.contains(&b3) {
            return;
        }
        // Commit b3 and every uncommitted ancestor, oldest first.
        let mut chain = Vec::new();
        let mut cursor = b3;
        while !cursor.is_zero() && !self.committed_set.contains(&cursor) {
            chain.push(cursor);
            cursor = match self.blocks.get(&cursor) {
                Some(e) => e.msg.parent,
                None => break,
            };
        }
        for h in chain.into_iter().rev() {
            self.committed_set.insert(h);
            self.exec_queue.push_back(h);
        }
        self.try_execute(ctx);
    }

    fn try_execute<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        while let Some(&h) = self.exec_queue.front() {
            let Some(entry) = self.blocks.get(&h) else {
                self.exec_queue.pop_front();
                continue;
            };
            if entry.executed {
                self.exec_queue.pop_front();
                continue;
            }
            let (parent, digest) = (entry.msg.parent, entry.payload_digest);
            let msg = entry.msg.clone(); // Arc bump, not a payload copy
            let Some(txs) = self.plane.commit(ctx, parent, h, digest, &msg.payload) else {
                break; // stalled on missing data; retried on plane progress
            };
            self.executed_txs += txs.len() as u64;
            deliver_commit(
                ctx,
                self.me,
                &self.roster,
                &self.cfg,
                &txs,
                &mut self.reply_scratch,
            );
            let entry = self.blocks.get_mut(&h).expect("exists");
            entry.executed = true;
            entry.kept_txs = kept_for_catch_up(txs);
            self.exec_queue.pop_front();
            self.executed_blocks += 1;
            self.exec_order.push_back(h);
            // Garbage-collect deep-committed ancestors: blocks executed
            // more than the retention window ago are unreachable by the
            // 3-chain rule and no longer served for catch-up.
            while self.exec_order.len() > self.cfg.retention {
                let old = self.exec_order.pop_front().expect("non-empty");
                self.exec_base += 1;
                self.blocks.remove(&old);
                self.committed_set.remove(&old);
                self.votes.retain(|(b, _), _| *b != old);
            }
            ctx.metrics().incr("hs.blocks_executed", 1);
        }
    }

    fn on_plane_progress<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
    ) {
        let pending = std::mem::take(&mut self.pending_votes);
        for hash in pending {
            let still_deferred = self
                .blocks
                .get(&hash)
                .is_some_and(|e| e.deferred && !e.validated);
            if still_deferred {
                self.blocks.get_mut(&hash).expect("exists").deferred = false;
                self.try_vote(ctx, hash);
            }
        }
        self.try_execute(ctx);
        self.try_propose(ctx);
    }
}

impl<P: DataPlane> ProtocolCore<ConsMsg> for HotStuffNode<P> {
    fn start<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        self.plane.init(ctx);
        let round = self.round;
        ctx.set_timer(
            self.cfg.view_timeout,
            TimerTag::with_a(timers::HS_PACEMAKER, round.0),
        );
        ctx.set_timer(
            self.cfg.propose_interval,
            TimerTag::of_kind(timers::HS_PROPOSE),
        );
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: ConsMsg,
    ) {
        let outcome = self.plane.handle(ctx, from, &msg);
        if outcome.progressed {
            self.on_plane_progress(ctx);
        }
        if outcome.consumed {
            return;
        }
        let Some(sender) = self.roster.index_of(from) else {
            return;
        };
        match msg {
            ConsMsg::HsProposal(block) => self.on_proposal(ctx, sender, block),
            ConsMsg::HsVote { block, round } if self.leader_of(round.next()) == self.me => {
                self.on_vote(ctx, sender, block, round);
            }
            ConsMsg::CatchUpRequest { from: start } => {
                let mut slots = Vec::new();
                let mut idx = start.0;
                while slots.len() < 8 {
                    let Some(offset) = idx.checked_sub(self.exec_base) else {
                        break;
                    };
                    let Some(&h) = self.exec_order.get(offset as usize) else {
                        break;
                    };
                    let Some(entry) = self.blocks.get(&h) else {
                        break;
                    };
                    slots.push((
                        SeqNum(idx),
                        entry.msg.payload.clone(),
                        catch_up_txs(&entry.kept_txs, &entry.msg.payload),
                    ));
                    idx += 1;
                }
                if !slots.is_empty() {
                    ctx.send(from, ConsMsg::CatchUpResponse { slots });
                }
            }
            ConsMsg::CatchUpResponse { slots } => {
                self.syncing = false;
                let mut advanced = false;
                for (idx, payload, txs) in slots {
                    if idx.0 != self.executed_blocks {
                        continue;
                    }
                    let id = payload.digest();
                    let txs = self.plane.catch_up(ctx, Hash::ZERO, id, id, &payload, txs);
                    self.executed_blocks += 1;
                    self.executed_txs += txs.len() as u64;
                    advanced = true;
                    ctx.metrics().incr("hs.blocks_caught_up", 1);
                }
                if advanced {
                    // Keep pulling until the live pipeline overlaps.
                    self.syncing = true;
                    ctx.send(
                        from,
                        ConsMsg::CatchUpRequest {
                            from: SeqNum(self.executed_blocks),
                        },
                    );
                }
            }
            ConsMsg::HsNewView { round, qc } => {
                self.update_high_qc(qc);
                self.newviews.entry(round).or_default().insert(sender);
                if round > self.round {
                    // Adopt the round once a quorum is moving.
                    let votes = self.newviews.get(&round).map_or(0, VoteSet::len);
                    if votes >= self.roster.quorum() {
                        self.advance_round(ctx, round);
                    }
                }
                self.try_propose(ctx);
            }
            _ => {}
        }
    }

    fn timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) {
        if self.plane.on_timer(ctx, tag) {
            self.try_propose(ctx);
            return;
        }
        match tag.kind {
            timers::HS_PROPOSE => {
                self.try_propose(ctx);
                ctx.set_timer(
                    self.cfg.propose_interval,
                    TimerTag::of_kind(timers::HS_PROPOSE),
                );
            }
            timers::HS_PACEMAKER => {
                // If the round has not moved since the timer was armed,
                // broadcast a new-view for the next round.
                let stalled_round = View(tag.a);
                if !self.mute && stalled_round == self.round && self.round > View(0) {
                    let next = self.round.next();
                    ctx.metrics().incr("hs.timeouts", 1);
                    self.newviews.entry(next).or_default().insert(self.me);
                    ctx.multicast(
                        self.roster.peers_of(self.me),
                        ConsMsg::HsNewView {
                            round: next,
                            qc: self.generic_qc,
                        },
                    );
                    let votes = self.newviews.get(&next).map_or(0, VoteSet::len);
                    if votes >= self.roster.quorum() {
                        self.advance_round(ctx, next);
                        self.try_propose(ctx);
                    }
                }
                let round = self.round;
                ctx.set_timer(
                    self.cfg.view_timeout,
                    TimerTag::with_a(timers::HS_PACEMAKER, round.0),
                );
            }
            _ => {}
        }
    }
}
