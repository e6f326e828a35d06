//! Byzantine behaviours used by the fault experiments (Fig. 6) and the
//! safety tests.
//!
//! * [`SilentNode`] — Fig. 6 case 1: neither produces bundles nor votes.
//! * Fig. 6 case 2 is built compositionally: a muted shell
//!   ([`crate::Replica::mute`], which both shells dereference to) over a
//!   [`crate::planes::PredisPlane::with_selective_sending`] plane.
//! * [`EquivocatingProducer`] — the forking attacker of §III-E: produces
//!   *two* different bundles at every height and sends each to a disjoint
//!   half of the committee, exercising conflict detection and the ban list.

use predis_crypto::{Hash, Keypair, SignerId};
use predis_mempool::TxPool;
use predis_sim::{Actor, Codec, Context, NarrowContext, NodeId, ProtocolCore, TimerTag};
use predis_types::{Bundle, ChainId, ClientId, Height, SizedBundle, TipList, Transaction, TxId};

use crate::config::{timers, ConsensusConfig, Roster};
use crate::msg::ConsMsg;

/// Fig. 6 case 1: a consensus node that does absolutely nothing.
#[derive(Debug, Default)]
pub struct SilentNode;

impl<M: 'static> Actor<M> for SilentNode {
    fn on_message(&mut self, _ctx: &mut Context<'_, M>, _from: NodeId, _msg: M) {}
}

/// A forking attacker: at every production tick it builds two conflicting
/// bundles at the same height (same parent, different transactions) and
/// sends each to a different half of the committee.
#[derive(Debug)]
pub struct EquivocatingProducer {
    me: usize,
    roster: Roster,
    cfg: ConsensusConfig,
    key: Keypair,
    next_height: Height,
    /// Parent hash of the *first* fork (the attacker extends fork A).
    parent: Hash,
    txpool: TxPool,
    fake_seq: u64,
}

impl EquivocatingProducer {
    /// Creates the attacker as committee member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig) -> EquivocatingProducer {
        assert!(me < roster.n(), "committee index out of range");
        EquivocatingProducer {
            me,
            key: Keypair::for_node(SignerId(me as u32)),
            next_height: Height(1),
            parent: Hash::ZERO,
            txpool: TxPool::new(),
            fake_seq: u64::MAX / 2,
            roster,
            cfg,
        }
    }

    fn forged_tx(&mut self) -> Transaction {
        self.fake_seq += 1;
        Transaction::new(TxId(self.fake_seq), ClientId(u32::MAX), 0)
    }

    fn produce_forks<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        let mut txs_a = self.txpool.take(self.cfg.bundle_size);
        if txs_a.is_empty() {
            txs_a.push(self.forged_tx());
        }
        let mut txs_b = txs_a.clone();
        txs_b.push(self.forged_tx()); // differ in content
        let tips = TipList::new(self.roster.n());
        let a = Bundle::build(
            ChainId(self.me as u32),
            self.next_height,
            self.parent,
            tips.clone(),
            txs_a,
            Hash::ZERO,
            &self.key,
        );
        let b = Bundle::build(
            ChainId(self.me as u32),
            self.next_height,
            self.parent,
            tips,
            txs_b,
            Hash::ZERO,
            &self.key,
        );
        debug_assert_ne!(a.hash(), b.hash());
        // Two *distinct* shared payloads — the forks must never alias one
        // allocation, or conflict detection would compare a bundle against
        // itself. Each half of the committee gets Arc clones of its fork.
        let fork_a = SizedBundle::from(a);
        let fork_b = SizedBundle::from(b);
        debug_assert!(!predis_types::Shared::ptr_eq(
            fork_a.shared(),
            fork_b.shared()
        ));
        let half = (self.roster.n() - 1) / 2;
        for (i, peer) in self.roster.peers_of(self.me).enumerate() {
            let bundle = if i < half { &fork_a } else { &fork_b };
            ctx.send(peer, ConsMsg::Bundle(bundle.clone()));
        }
        ctx.metrics().incr("byz.forked_heights", 1);
        self.parent = fork_a.hash();
        self.next_height = self.next_height.next();
    }
}

impl ProtocolCore<ConsMsg> for EquivocatingProducer {
    fn start<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        ctx.set_timer(
            self.cfg.production_interval,
            TimerTag::of_kind(timers::PLANE_PRODUCE),
        );
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _from: NodeId,
        msg: ConsMsg,
    ) {
        if let ConsMsg::Submit(tx) = msg {
            self.txpool.push(tx);
        }
        // Ignores everything else: never votes, never serves fetches.
    }

    fn timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) {
        if tag.kind == timers::PLANE_PRODUCE {
            self.produce_forks(ctx);
            ctx.set_timer(
                self.cfg.production_interval,
                TimerTag::of_kind(timers::PLANE_PRODUCE),
            );
        }
    }
}
