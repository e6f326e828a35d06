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
use std::ops::{Deref, DerefMut};

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId, ProtocolCore, TimerTag};
use predis_types::{IdMap, IdSet, ProposalPayload, SizedPayload, View};

use crate::config::{timers, ConsensusConfig, Roster, VoteSet};
use crate::msg::{ConsMsg, HsBlockMsg, Qc};
use crate::plane::{DataPlane, ProposalCheck};
use crate::replica::Replica;

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
}

/// What the [`Replica`]'s executed log holds of a HotStuff execution.
#[derive(Debug)]
pub enum Held {
    /// A block this replica executed: the handle its block tree shares.
    Block(SizedPayload<HsBlockMsg>),
    /// A payload received by state transfer, which arrives without its block.
    Transferred(ProposalPayload),
}

impl Deref for Held {
    type Target = ProposalPayload;

    fn deref(&self) -> &ProposalPayload {
        match self {
            Held::Block(block) => &block.payload,
            Held::Transferred(payload) => payload,
        }
    }
}

/// A chained-HotStuff replica parameterised by its data plane. It
/// dereferences to its [`Replica`], which holds the plane, the execution
/// counters and the executed log.
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
    replica: Replica<P, Held>,
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
    committed_set: IdSet<Hash>,
    /// Deferred votes: blocks whose payload validation is pending data.
    pending_votes: Vec<Hash>,
}

impl<P> Deref for HotStuffNode<P> {
    type Target = Replica<P, Held>;

    fn deref(&self) -> &Self::Target {
        &self.replica
    }
}

impl<P> DerefMut for HotStuffNode<P> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.replica
    }
}

impl<P: DataPlane> HotStuffNode<P> {
    /// Creates a replica for committee member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig, plane: P) -> HotStuffNode<P> {
        HotStuffNode {
            // Executions are counted from 0.
            replica: Replica::new(me, roster, cfg, plane, 0),
            round: View(1),
            generic_qc: Qc::GENESIS,
            locked_qc: Qc::GENESIS,
            last_voted: View(0),
            blocks: IdMap::default(),
            votes: IdMap::default(),
            newviews: IdMap::default(),
            proposed_rounds: IdSet::default(),
            exec_queue: VecDeque::new(),
            committed_set: IdSet::default(),
            pending_votes: Vec::new(),
        }
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
        self.replica.roster.leader_of(round.0)
    }

    fn update_high_qc(&mut self, qc: Qc) {
        if qc.round > self.generic_qc.round {
            self.generic_qc = qc;
        }
    }

    fn try_propose<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        if self.replica.mute
            || self.leader_of(self.round) != self.replica.me
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
            .is_some_and(|s| s.len() >= self.replica.roster.quorum());
        if !happy && !timeout_quorum {
            return;
        }
        let parent = self.generic_qc.block;
        let payload = match self.replica.plane.make_proposal(ctx, parent, self.round) {
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
        self.on_proposal(ctx, self.replica.me, block.clone());
        ctx.multicast(self.replica.peers(), ConsMsg::HsProposal(block));
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
        });
        self.update_high_qc(block.justify);
        // Crash-recovery lag detection: the proposal's parent is a block
        // we never saw and our committed history is far behind the chain's
        // round — fetch the executed gap from the proposer.
        if !block.parent.is_zero()
            && !self.blocks.contains_key(&block.parent)
            && block.round.0 > 8
            && self
                .replica
                .request_catch_up(ctx, self.replica.roster.consensus_node(from))
        {
            ctx.metrics().incr("hs.catchup_requests", 1);
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
        if self.replica.mute {
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
                .replica
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
        if next_leader == self.replica.me {
            self.on_vote(ctx, self.replica.me, hash, round);
        } else {
            ctx.send(self.replica.roster.consensus_node(next_leader), vote);
        }
    }

    fn on_vote<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: usize,
        block: Hash,
        round: View,
    ) {
        let quorum = self.replica.roster.quorum();
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
        let Some(b2e) = self.blocks.get(&b2) else {
            return;
        };
        let b3 = b2e.msg.parent;
        // Require the chain b3 <- b2 <- b1 with consecutive justifications:
        // b1.justify certifies b2, b2.justify certifies b3.
        if b1e.msg.justify.block != b2 || b2e.msg.justify.block != b3 {
            return;
        }
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
            // An Arc bump, not a payload copy.
            let block = Held::Block(entry.msg.clone());
            // Garbage-collect deep-committed ancestors with the log: blocks
            // executed more than the retention window ago are unreachable by
            // the 3-chain rule and no longer served for catch-up.
            let (blocks, committed, votes) =
                (&mut self.blocks, &mut self.committed_set, &mut self.votes);
            let evicted = |old: Held| {
                if let Held::Block(old) = old {
                    blocks.remove(&old.hash);
                    committed.remove(&old.hash);
                    votes.retain(|(b, _), _| *b != old.hash);
                }
            };
            if !self.replica.execute(ctx, parent, h, digest, block, evicted) {
                break; // stalled on missing data; retried on plane progress
            }
            if let Some(entry) = self.blocks.get_mut(&h) {
                entry.executed = true;
            }
            self.exec_queue.pop_front();
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
        self.replica.plane.init(ctx);
        let cfg = &self.replica.cfg;
        ctx.set_timer(
            cfg.view_timeout,
            TimerTag::with_a(timers::HS_PACEMAKER, self.round.0),
        );
        ctx.set_timer(cfg.propose_interval, TimerTag::of_kind(timers::HS_PROPOSE));
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: ConsMsg,
    ) {
        let (progressed, sender) = self.replica.offer(ctx, from, &msg);
        if progressed {
            self.on_plane_progress(ctx);
        }
        let Some(sender) = sender else {
            return;
        };
        match msg {
            ConsMsg::HsProposal(block) => self.on_proposal(ctx, sender, block),
            ConsMsg::HsVote { block, round } if self.leader_of(round.next()) == self.replica.me => {
                self.on_vote(ctx, sender, block, round);
            }
            ConsMsg::CatchUpResponse { slots } => {
                // A caught-up payload's block is unknown: the plane gets no
                // parent.
                let transferred = |_, _, payload| (Hash::ZERO, Held::Transferred(payload));
                let applied = self.replica.apply_catch_up(ctx, slots, transferred);
                if applied > 0 {
                    ctx.metrics().incr("hs.blocks_caught_up", applied);
                    // Keep pulling until the live pipeline overlaps.
                    self.replica.request_catch_up(ctx, from);
                }
            }
            ConsMsg::HsNewView { round, qc } => {
                self.update_high_qc(qc);
                self.newviews.entry(round).or_default().insert(sender);
                if round > self.round {
                    // Adopt the round once a quorum is moving.
                    let votes = self.newviews.get(&round).map_or(0, VoteSet::len);
                    if votes >= self.replica.roster.quorum() {
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
        if self.replica.plane.on_timer(ctx, tag) {
            self.try_propose(ctx);
            return;
        }
        match tag.kind {
            timers::HS_PROPOSE => {
                self.try_propose(ctx);
                ctx.set_timer(
                    self.replica.cfg.propose_interval,
                    TimerTag::of_kind(timers::HS_PROPOSE),
                );
            }
            timers::HS_PACEMAKER => {
                // If the round has not moved since the timer was armed,
                // broadcast a new-view for the next round.
                let stalled_round = View(tag.a);
                if !self.replica.mute && stalled_round == self.round && self.round > View(0) {
                    let next = self.round.next();
                    ctx.metrics().incr("hs.timeouts", 1);
                    self.newviews
                        .entry(next)
                        .or_default()
                        .insert(self.replica.me);
                    ctx.multicast(
                        self.replica.peers(),
                        ConsMsg::HsNewView {
                            round: next,
                            qc: self.generic_qc,
                        },
                    );
                    let votes = self.newviews.get(&next).map_or(0, VoteSet::len);
                    if votes >= self.replica.roster.quorum() {
                        self.advance_round(ctx, next);
                        self.try_propose(ctx);
                    }
                }
                ctx.set_timer(
                    self.replica.cfg.view_timeout,
                    TimerTag::with_a(timers::HS_PACEMAKER, self.round.0),
                );
            }
            _ => {}
        }
    }
}
