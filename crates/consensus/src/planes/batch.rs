//! The vanilla data plane: transactions travel inside proposals.

use std::borrow::Cow;
use std::collections::VecDeque;

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId, TimerTag};
use predis_types::{IdMap, ProposalPayload, Transaction, TxId, View};

use crate::msg::ConsMsg;
use crate::plane::{DataPlane, PlaneOutcome, ProposalCheck};

/// What the plane knows about every transaction it has seen in a proposal,
/// two bits per id: 0 absent (never proposed anywhere; it may sit in
/// `queue`), `PROPOSED` (seen in someone's proposal: do not re-propose) or
/// `EXECUTED` (final: never re-propose, re-execute or re-count).
///
/// A page is 64 bytes, a cache line's worth, holding 256 consecutive ids. Clients mint
/// `client << 40 | seq` with `seq` dense, so a client's transactions fill
/// pages in order and a replica's whole run fits in a few hundred of them.
/// Only proposals create pages; a probe never does. Exact for any `u64`:
/// sparse ids cost a page each, never a wrong answer.
#[derive(Debug, Default)]
struct TxTable {
    pages: IdMap<u64, [u64; 8]>,
}

const PROPOSED: u64 = 1;
const EXECUTED: u64 = 2;

/// An id's page key, word within the page, and bit offset within the word.
fn cell(id: TxId) -> (u64, usize, u32) {
    let (page, slot) = (id.0 >> 8, id.0 & 255);
    (page, slot as usize / 32, (slot % 32) as u32 * 2)
}

impl TxTable {
    /// Whether `id` was ever proposed (or executed). Allocates nothing.
    fn contains(&self, id: TxId) -> bool {
        let (page, word, shift) = cell(id);
        self.pages
            .get(&page)
            .is_some_and(|p| (p[word] >> shift) & 3 != 0)
    }

    /// Raises `id` to `state` and returns the state it had. States only
    /// move up (absent, proposed, executed), so an executed id stays so.
    fn raise(&mut self, id: TxId, state: u64) -> u64 {
        let (page, word, shift) = cell(id);
        let word = &mut self.pages.entry(page).or_default()[word];
        let old = (*word >> shift) & 3;
        *word = (*word & !(3 << shift)) | (old.max(state) << shift);
        old
    }
}

/// Baseline PBFT/HotStuff content strategy: the leader packs up to
/// `batch_size` pending transactions straight into the proposal, so the
/// whole batch is multicast during consensus — the bandwidth pattern Predis
/// is designed to avoid.
///
/// Clients broadcast submissions to every replica (classic PBFT), so the
/// plane tracks which transactions are already in flight (seen in a
/// proposal) or executed, and skips them when a rotating leader builds its
/// next batch.
#[derive(Debug)]
pub struct BatchPlane {
    batch_size: usize,
    /// Submitted and, at the head, not yet proposed anywhere. Only a leader
    /// pops it to propose; everyone drops known heads when a block commits.
    queue: VecDeque<Transaction>,
    /// Every transaction ever seen in a proposal, probed once per `Submit`.
    /// Grows with the run: an executed id must be refused forever.
    txs: TxTable,
}

impl BatchPlane {
    /// Creates a batch plane with the given maximum batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: usize) -> BatchPlane {
        assert!(batch_size > 0, "batch size must be positive");
        BatchPlane {
            batch_size,
            queue: VecDeque::new(),
            txs: TxTable::default(),
        }
    }

    /// Queued submissions: everything behind the first transaction no
    /// proposal has carried yet, so on a healthy replica at most what is in
    /// flight.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn note_proposed(&mut self, txs: &[Transaction]) {
        for tx in txs {
            self.txs.raise(tx.id, PROPOSED);
        }
    }

    /// Drops queued transactions some proposal already carried, up to the
    /// first one none has. A non-leader never pops its queue to propose, so
    /// without this it would hold every submission of the run and report
    /// pending work (the shell's leader-suspicion trigger) forever.
    fn drop_known_heads(&mut self) {
        while let Some(tx) = self.queue.front() {
            if !self.txs.contains(tx.id) {
                break;
            }
            self.queue.pop_front();
        }
    }
}

impl DataPlane for BatchPlane {
    fn init<M: Codec<ConsMsg>>(&mut self, _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {}

    fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    fn handle<M: Codec<ConsMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _from: NodeId,
        msg: &ConsMsg,
    ) -> PlaneOutcome {
        match msg {
            ConsMsg::Submit(tx) => {
                if !self.txs.contains(tx.id) {
                    self.queue.push_back(*tx);
                }
                PlaneOutcome::CONSUMED
            }
            _ => PlaneOutcome::IGNORED,
        }
    }

    fn on_timer<M: Codec<ConsMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _tag: TimerTag,
    ) -> bool {
        false
    }

    fn make_proposal<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _parent: Hash,
        _view: View,
    ) -> Option<ProposalPayload> {
        let mut txs = Vec::with_capacity(self.queue.len().min(self.batch_size));
        while txs.len() < self.batch_size {
            let Some(tx) = self.queue.pop_front() else {
                break;
            };
            if self.txs.contains(tx.id) {
                continue;
            }
            txs.push(tx);
        }
        if txs.is_empty() {
            return None;
        }
        self.note_proposed(&txs);
        ctx.metrics().incr("batch.proposals_made", 1);
        ctx.metrics().incr("batch.txs_proposed", txs.len() as u64);
        Some(ProposalPayload::Batch(txs))
    }

    fn validate<M: Codec<ConsMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _proposer: usize,
        _parent: Hash,
        _id: Hash,
        _digest: Hash,
        payload: &ProposalPayload,
    ) -> ProposalCheck {
        // All data travels in the proposal; only the shape can be wrong.
        match payload {
            ProposalPayload::Batch(txs) => {
                // Remember what is in flight so this replica's own future
                // leadership does not duplicate it.
                self.note_proposed(txs);
                ProposalCheck::Accept
            }
            _ => ProposalCheck::Reject,
        }
    }

    fn catch_up<M: Codec<ConsMsg>>(
        &mut self,
        _ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        _parent: Hash,
        _id: Hash,
        _digest: Hash,
        _payload: &ProposalPayload,
        txs: Vec<Transaction>,
    ) -> Vec<Transaction> {
        // Remember the ids so this replica's own future leadership neither
        // re-proposes nor double-counts them.
        for tx in &txs {
            self.txs.raise(tx.id, EXECUTED);
        }
        self.drop_known_heads();
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
        let ProposalPayload::Batch(txs) = payload else {
            return Some(Cow::Borrowed(&[]));
        };
        // The whole batch is fresh unless a rotated leader re-proposed
        // something (or a batch repeats an id): only then is a filtered
        // copy made, starting at the first transaction already executed.
        let mut filtered: Option<Vec<Transaction>> = None;
        for (i, tx) in txs.iter().enumerate() {
            let fresh = self.txs.raise(tx.id, EXECUTED) != EXECUTED;
            match (&mut filtered, fresh) {
                (None, false) => filtered = Some(txs[..i].to_vec()),
                (Some(kept), true) => kept.push(*tx),
                _ => {}
            }
        }
        self.drop_known_heads();
        let executed = filtered.map_or(Cow::Borrowed(&txs[..]), Cow::Owned);
        ctx.metrics()
            .incr("batch.txs_executed", executed.len() as u64);
        Some(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis_sim::prelude::*;
    use predis_types::ClientId;

    /// Drives a plane through a one-node simulation so NarrowContext can be
    /// constructed (contexts only exist inside actor callbacks).
    #[derive(Debug)]
    struct Probe {
        plane: BatchPlane,
        made: Vec<ProposalPayload>,
    }

    impl Actor<ConsMsg> for Probe {
        fn on_message(&mut self, ctx: &mut Context<'_, ConsMsg>, from: NodeId, msg: ConsMsg) {
            let out = self.plane.handle(&mut ctx.narrow(), from, &msg);
            assert!(out.consumed);
            if let Some(p) = self
                .plane
                .make_proposal(&mut ctx.narrow(), Hash::ZERO, View(0))
            {
                self.made.push(p);
            }
        }
    }

    fn tx(i: u64) -> Transaction {
        Transaction::new(TxId(i), ClientId(0), 0)
    }

    #[test]
    fn batches_dedup_in_flight_and_executed() {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<ConsMsg> = Sim::new(0, net);
        let probe = Probe {
            plane: BatchPlane::new(10),
            made: Vec::new(),
        };
        let n = sim.add_node(LinkConfig::paper_default(), Box::new(probe), SimTime::ZERO);
        let src = sim.add_node(LinkConfig::paper_default(), Box::new(Idle), SimTime::ZERO);
        // The same tx submitted twice only appears once.
        sim.inject(n, src, ConsMsg::Submit(tx(1)), SimTime::from_millis(1));
        sim.inject(n, src, ConsMsg::Submit(tx(1)), SimTime::from_millis(2));
        sim.inject(n, src, ConsMsg::Submit(tx(2)), SimTime::from_millis(3));
        sim.run_until(SimTime::from_secs(1));
        let probe = sim.actor_as::<Probe>(n).unwrap();
        let total: usize = probe
            .made
            .iter()
            .map(|p| match p {
                ProposalPayload::Batch(t) => t.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(total, 2, "tx 1 must be proposed exactly once");
    }

    #[derive(Debug)]
    struct Idle;
    impl Actor<ConsMsg> for Idle {
        fn on_message(&mut self, _: &mut Context<'_, ConsMsg>, _: NodeId, _: ConsMsg) {}
    }

    type Body = fn(&mut NarrowContext<'_, '_, ConsMsg, ConsMsg>);

    /// Runs `body` once from inside an actor callback, where a plane's
    /// context exists.
    #[derive(Debug)]
    struct OnStart(Body);
    impl Actor<ConsMsg> for OnStart {
        fn on_start(&mut self, ctx: &mut Context<'_, ConsMsg>) {
            (self.0)(&mut ctx.narrow());
        }
        fn on_message(&mut self, _: &mut Context<'_, ConsMsg>, _: NodeId, _: ConsMsg) {}
    }

    fn run(body: Body) {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<ConsMsg> = Sim::new(0, net);
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(OnStart(body)),
            SimTime::ZERO,
        );
        sim.run_until(SimTime::from_millis(1));
    }

    /// Per client, how many transactions the density test mints: page
    /// edges (255, 256, 257) and long runs, 50 000 in all.
    const PER_CLIENT: [u64; 8] = [1, 255, 256, 257, 513, 7_000, 20_000, 21_718];

    /// Client `c`'s transactions `from..to`, as clients mint their ids.
    fn minted(c: usize, from: u64, to: u64) -> Vec<Transaction> {
        let client = ClientId(c as u32);
        let ids = (from..to).map(move |s| TxId(((c as u64) << 40) | s));
        ids.map(|id| Transaction::new(id, client, 0)).collect()
    }

    fn propose_then_commit(
        ctx: &mut NarrowContext<'_, '_, ConsMsg, ConsMsg>,
        plane: &mut BatchPlane,
        txs: Vec<Transaction>,
    ) {
        let (z, len) = (Hash::ZERO, txs.len());
        let payload = ProposalPayload::Batch(txs);
        assert_eq!(
            plane.validate(ctx, 0, z, z, z, &payload),
            ProposalCheck::Accept
        );
        let executed = plane.commit(ctx, z, z, z, &payload).unwrap();
        assert_eq!(executed.len(), len, "every transaction is fresh once");
    }

    #[test]
    fn dense_ids_share_pages_and_stay_refused() {
        run(|ctx| {
            let mut plane = BatchPlane::new(10);
            for (c, &n) in PER_CLIENT.iter().enumerate() {
                propose_then_commit(ctx, &mut plane, minted(c, 0, n));
            }
            assert_eq!(PER_CLIENT.iter().sum::<u64>(), 50_000);
            let pages: u64 = PER_CLIENT.iter().map(|n| n.div_ceil(256)).sum();
            assert_eq!(plane.txs.pages.len() as u64, pages);
            // 100 000 more, in the pages after each client's first run.
            for (c, &n) in PER_CLIENT.iter().enumerate() {
                propose_then_commit(ctx, &mut plane, minted(c, n, n + 12_500));
            }
            let pages_now = plane.txs.pages.len();
            for (c, &n) in PER_CLIENT.iter().enumerate() {
                let old = minted(c, 0, n);
                for tx in &old {
                    plane.handle(ctx, NodeId(1), &ConsMsg::Submit(*tx));
                }
                assert_eq!(plane.pending(), 0, "client {c}: an executed id was queued");
                let z = Hash::ZERO;
                let payload = ProposalPayload::Batch(old);
                let again = plane.commit(ctx, z, z, z, &payload).unwrap();
                assert!(again.is_empty(), "client {c}: an executed id was fresh");
            }
            // A submission of an unseen id in an unseen page allocates none.
            let unseen = Transaction::new(TxId((9 << 40) | (1 << 20)), ClientId(9), 0);
            plane.handle(ctx, NodeId(1), &ConsMsg::Submit(unseen));
            assert_eq!(plane.pending(), 1);
            assert_eq!(plane.txs.pages.len(), pages_now);
        });
    }
}
