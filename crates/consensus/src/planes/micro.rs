//! Narwhal-style and Stratus-style data planes (the paper's SOTA baselines,
//! Fig. 5).
//!
//! Both pre-distribute transactions in **microblocks** and propose lists of
//! certified digests; they differ in the availability primitive:
//!
//! * **Narwhal (RBC)** — a producer must collect `n_c − f` acknowledgements
//!   before a microblock is certified and proposable;
//! * **Stratus (PAB)** — `f + 1` acknowledgements suffice (at least one
//!   honest holder).
//!
//! Certificates cost an ack message per receiver per microblock plus a
//! certificate broadcast, and proposals grow ~32 bytes per digest — the two
//! overheads Predis eliminates (tip lists piggyback on bundles; proposals
//! are constant-size).

use std::borrow::Cow;
use std::collections::VecDeque;

use predis_crypto::Hash;
use predis_mempool::TxPool;
use predis_sim::{Codec, Labels, NarrowContext, NodeId, SimTime, TimerTag};
use predis_types::{
    ChainId, IdMap, IdSet, MicroRef, ProposalPayload, SizedPayload, Transaction, View,
};

use crate::config::{timers, ConsensusConfig, Roster, VoteSet};
use crate::msg::{ConsMsg, MicroBlock};
use crate::plane::{DataPlane, PlaneOutcome, ProposalCheck};

/// Which availability primitive the plane runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckRule {
    /// Narwhal's reliable broadcast: `n_c − f` acknowledgements.
    ReliableBroadcast,
    /// Stratus's provably available broadcast: `f + 1` acknowledgements.
    ProvablyAvailable,
}

impl AckRule {
    /// The acknowledgement quorum under this rule for a committee of `n`
    /// with fault bound `f`.
    pub fn quorum(self, n: usize, f: usize) -> usize {
        match self {
            AckRule::ReliableBroadcast => n - f,
            AckRule::ProvablyAvailable => f + 1,
        }
    }
}

/// The microblock content strategy (Narwhal-lite / Stratus-lite).
#[derive(Debug)]
pub struct MicroPlane {
    me: usize,
    roster: Roster,
    cfg: ConsensusConfig,
    ack_quorum: usize,
    txpool: TxPool,
    next_seq: u64,
    /// Microblock bodies by digest; shared handles, so storing a delivered
    /// body or re-serving it to a requester never copies the transactions.
    store: IdMap<Hash, SizedPayload<MicroBlock>>,
    /// Acks collected for microblocks this node produced.
    acks: IdMap<Hash, VoteSet>,
    /// Digests known to be certified (proposable / votable).
    certified: IdSet<Hash>,
    /// Certified digests not yet proposed or executed, in arrival order.
    proposable: VecDeque<MicroRef>,
    /// Digests already included in an executed proposal.
    executed: IdSet<Hash>,
    /// Digests this node itself already put into a proposal.
    proposed: IdSet<Hash>,
    last_produced: SimTime,
    requested: IdSet<Hash>,
}

impl MicroPlane {
    /// Creates a microblock plane for committee member `me` under the given
    /// acknowledgement rule.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig, rule: AckRule) -> MicroPlane {
        assert!(me < roster.n(), "committee index out of range");
        let ack_quorum = rule.quorum(roster.n(), roster.f());
        MicroPlane {
            me,
            ack_quorum,
            txpool: TxPool::new(),
            next_seq: 0,
            store: IdMap::default(),
            acks: IdMap::default(),
            certified: IdSet::default(),
            proposable: VecDeque::new(),
            executed: IdSet::default(),
            proposed: IdSet::default(),
            last_produced: SimTime::ZERO,
            requested: IdSet::default(),
            roster,
            cfg,
        }
    }

    /// The acknowledgement quorum in force.
    pub fn ack_quorum(&self) -> usize {
        self.ack_quorum
    }

    fn certify<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        digest: Hash,
        producer: ChainId,
        txs: u32,
    ) {
        if !self.certified.insert(digest) {
            return;
        }
        self.proposable.push_back(MicroRef {
            digest,
            producer,
            txs,
        });
        ctx.metrics().incr("micro.certified", 1);
    }

    fn produce_once<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
    ) -> bool {
        let txs = self.txpool.take(self.cfg.bundle_size);
        if txs.is_empty() {
            return false;
        }
        let micro = MicroBlock {
            producer: ChainId(self.me as u32),
            seq: self.next_seq,
            txs,
        };
        self.next_seq += 1;
        // Wrap once: the local store and the multicast share the allocation.
        let micro = SizedPayload::from(micro);
        let digest = micro.digest();
        self.store.insert(digest, micro.clone());
        self.acks.entry(digest).or_default().insert(self.me);
        ctx.multicast(self.roster.peers_of(self.me), ConsMsg::Micro(micro));
        ctx.metrics().incr("micro.produced", 1);
        self.last_produced = ctx.now();
        true
    }
}

impl DataPlane for MicroPlane {
    fn has_pending(&self) -> bool {
        !self.proposable.is_empty() || !self.txpool.is_empty()
    }

    fn init<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        ctx.set_timer(
            self.cfg.production_interval,
            TimerTag::of_kind(timers::PLANE_PRODUCE),
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
                self.txpool.push(*tx);
                PlaneOutcome::CONSUMED
            }
            ConsMsg::Micro(micro) => {
                let digest = micro.digest();
                self.requested.remove(&digest);
                // Arc bump: keep the delivered allocation.
                self.store.entry(digest).or_insert_with(|| micro.clone());
                // Acknowledge availability to the producer (the RBC/PAB
                // echo that Predis does not need).
                ctx.send(
                    from,
                    ConsMsg::MicroAck {
                        digest,
                        producer: micro.producer,
                    },
                );
                PlaneOutcome::PROGRESSED
            }
            ConsMsg::MicroAck { digest, producer } => {
                if producer.index() != self.me {
                    return PlaneOutcome::CONSUMED;
                }
                let Some(peer) = self.roster.index_of(from) else {
                    return PlaneOutcome::CONSUMED;
                };
                let set = self.acks.entry(*digest).or_default();
                set.insert(peer);
                ctx.metrics().incr_labeled(
                    "micro.acks_received",
                    Labels::chain(producer.index() as u64),
                    1,
                );
                if set.len() == self.ack_quorum {
                    let txs = self.store.get(digest).map_or(0, |m| m.txs.len() as u32);
                    self.certify(ctx, *digest, ChainId(self.me as u32), txs);
                    ctx.multicast(
                        self.roster.peers_of(self.me),
                        ConsMsg::MicroCert {
                            digest: *digest,
                            producer: ChainId(self.me as u32),
                            txs,
                        },
                    );
                    return PlaneOutcome::PROGRESSED;
                }
                PlaneOutcome::CONSUMED
            }
            ConsMsg::MicroCert {
                digest,
                producer,
                txs,
            } => {
                self.certify(ctx, *digest, *producer, *txs);
                PlaneOutcome::PROGRESSED
            }
            ConsMsg::MicroRequest { digest } => {
                if let Some(m) = self.store.get(digest) {
                    ctx.send(from, ConsMsg::Micro(m.clone()));
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
        if tag.kind != timers::PLANE_PRODUCE {
            return false;
        }
        let since = ctx.now().saturating_since(self.last_produced);
        let throttled = ctx.link_backlog() > self.cfg.max_link_backlog;
        if !throttled && (self.txpool.len() >= self.cfg.bundle_size || since >= self.cfg.heartbeat)
        {
            self.produce_once(ctx);
        }
        ctx.set_timer(
            self.cfg.production_interval,
            TimerTag::of_kind(timers::PLANE_PRODUCE),
        );
        true
    }

    fn make_proposal<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _parent: Hash,
        _view: View,
    ) -> Option<ProposalPayload> {
        let mut refs = Vec::new();
        let mut rest = VecDeque::new();
        while let Some(r) = self.proposable.pop_front() {
            if self.executed.contains(&r.digest) || self.proposed.contains(&r.digest) {
                continue;
            }
            if refs.len() < self.cfg.max_digests {
                self.proposed.insert(r.digest);
                refs.push(r);
            } else {
                rest.push_back(r);
            }
        }
        self.proposable = rest;
        if refs.is_empty() {
            None
        } else {
            ctx.metrics()
                .incr("micro.digests_proposed", refs.len() as u64);
            Some(ProposalPayload::Digests(refs))
        }
    }

    fn validate<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        proposer: usize,
        _parent: Hash,
        _id: Hash,
        _digest: Hash,
        payload: &ProposalPayload,
    ) -> ProposalCheck {
        let refs = match payload {
            ProposalPayload::Digests(refs) => refs,
            // Empty keep-alive blocks from the HotStuff shell.
            ProposalPayload::Batch(txs) if txs.is_empty() => {
                return ProposalCheck::Accept;
            }
            _ => return ProposalCheck::Reject,
        };
        let mut missing = false;
        for r in refs {
            if !self.certified.contains(&r.digest) {
                missing = true;
                if self.requested.insert(r.digest) {
                    ctx.send(
                        self.roster.consensus_node(proposer),
                        ConsMsg::MicroRequest { digest: r.digest },
                    );
                }
            }
        }
        if missing {
            ProposalCheck::Defer
        } else {
            ProposalCheck::Accept
        }
    }

    fn catch_up<M: Codec<ConsMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _parent: Hash,
        _id: Hash,
        _digest: Hash,
        payload: &ProposalPayload,
        txs: Vec<Transaction>,
    ) -> Vec<Transaction> {
        if let ProposalPayload::Digests(refs) = payload {
            for r in refs {
                self.executed.insert(r.digest);
                self.store.remove(&r.digest);
            }
        }
        txs
    }

    fn commit<'p, M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _parent: Hash,
        _id: Hash,
        _digest: Hash,
        payload: &'p ProposalPayload,
    ) -> Option<Cow<'p, [Transaction]>> {
        let ProposalPayload::Digests(refs) = payload else {
            return Some(Cow::Borrowed(&[]));
        };
        // First pass: every body must be present (and sizes the result: the
        // shell keeps it for a retention window, slack included).
        let mut stalled = false;
        let mut count = 0;
        for r in refs {
            if self.executed.contains(&r.digest) {
                continue;
            }
            match self.store.get(&r.digest) {
                Some(m) => count += m.txs.len(),
                None => {
                    stalled = true;
                    if self.requested.insert(r.digest) {
                        ctx.send(
                            self.roster.consensus_node(r.producer.index()),
                            ConsMsg::MicroRequest { digest: r.digest },
                        );
                    }
                }
            }
        }
        if stalled {
            return None;
        }
        let mut txs = Vec::with_capacity(count);
        for r in refs {
            if !self.executed.insert(r.digest) {
                continue; // already executed in an earlier proposal
            }
            if let Some(m) = self.store.remove(&r.digest) {
                txs.extend_from_slice(&m.txs);
            }
        }
        ctx.metrics().incr("micro.blocks_executed", 1);
        Some(Cow::Owned(txs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_rules_match_paper() {
        // n = 4, f = 1: Narwhal needs 3 acks, Stratus needs 2.
        assert_eq!(AckRule::ReliableBroadcast.quorum(4, 1), 3);
        assert_eq!(AckRule::ProvablyAvailable.quorum(4, 1), 2);
        // n = 16, f = 5.
        assert_eq!(AckRule::ReliableBroadcast.quorum(16, 5), 11);
        assert_eq!(AckRule::ProvablyAvailable.quorum(16, 5), 6);
    }
}
