//! Differential tests of the ordering path's bookkeeping structures against
//! the general-purpose containers they replaced: [`VoteSet`] against a
//! `BTreeSet<usize>`, and [`BatchPlane`]'s one transaction-state table
//! against the two `HashSet<TxId>` (`in_flight`, `executed`) it used to
//! probe — the reference lives here, not in the crate.

use std::collections::{BTreeSet, HashSet, VecDeque};

use predis_consensus::planes::BatchPlane;
use predis_consensus::{ConsMsg, DataPlane, ProposalCheck, VoteSet};
use predis_crypto::Hash;
use predis_sim::prelude::*;
use predis_types::{ClientId, ProposalPayload, Transaction, TxId, View};
use proptest::prelude::*;

/// The batch plane's dedup rules as they were written over two sets.
#[derive(Debug, Default)]
struct TwoSetPlane {
    queue: VecDeque<Transaction>,
    in_flight: HashSet<TxId>,
    executed: HashSet<TxId>,
}

impl TwoSetPlane {
    fn known(&self, id: TxId) -> bool {
        self.in_flight.contains(&id) || self.executed.contains(&id)
    }

    fn submit(&mut self, tx: Transaction) {
        if !self.known(tx.id) {
            self.queue.push_back(tx);
        }
    }

    fn make_proposal(&mut self, batch_size: usize) -> Option<Vec<Transaction>> {
        let mut txs = Vec::new();
        while txs.len() < batch_size {
            let Some(tx) = self.queue.pop_front() else {
                break;
            };
            if !self.known(tx.id) {
                txs.push(tx);
            }
        }
        self.in_flight.extend(txs.iter().map(|tx| tx.id));
        (!txs.is_empty()).then_some(txs)
    }

    fn validate(&mut self, txs: &[Transaction]) {
        self.in_flight.extend(txs.iter().map(|tx| tx.id));
    }

    fn commit(&mut self, txs: &[Transaction]) -> Vec<Transaction> {
        let fresh = txs.iter().filter(|tx| self.executed.insert(tx.id));
        fresh.copied().collect()
    }

    fn catch_up(&mut self, txs: &[Transaction]) {
        self.executed.extend(txs.iter().map(|tx| tx.id));
    }
}

/// A 64-bit mixer (SplitMix64's finalizer): random bits for one draw.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a word-coded script against both planes from inside an actor
/// callback (the only place a plane's context exists), comparing every
/// answer.
#[derive(Debug)]
struct Script {
    words: Vec<u64>,
    /// Dense ids per client: `seq` ranges over `0..pool`.
    pool: u64,
    /// Ids no client mints, as a Byzantine leader could propose them.
    sparse: Vec<u64>,
    batch_size: usize,
}

impl Script {
    /// One transaction from random bits `r`. Clients mint
    /// `client << 40 | seq`; the table pages ids by 256, so draws land on
    /// dense ids, on both sides of a page edge (k·256 − 1, k·256), on a few
    /// hot ids (to repeat), or on 0, `u64::MAX` and sparse high ids.
    fn tx(&self, r: u64) -> Transaction {
        let (client, pick) = ((r >> 3) % 3, r >> 5);
        let seq = match r % 8 {
            0..=2 => pick % self.pool,
            3..=5 => (1 + (pick >> 1) % (self.pool / 256 + 1)) * 256 - 1 + (pick & 1),
            6 => pick % 16,
            _ => {
                let k = pick as usize % (2 + self.sparse.len());
                let id = [0, u64::MAX].get(k).copied();
                let id = id.unwrap_or_else(|| self.sparse[k - 2]);
                return Transaction::new(TxId(id), ClientId(9), 0);
            }
        };
        Transaction::new(TxId((client << 40) | seq), ClientId(client as u32), 0)
    }

    /// A proposal's batch of up to six, which may repeat an id.
    fn batch(&self, word: u64) -> Vec<Transaction> {
        let len = (word >> 8) % 7;
        (0..len).map(|i| self.tx(mix(word ^ i))).collect()
    }
}

impl Actor<ConsMsg> for Script {
    fn on_start(&mut self, ctx: &mut Context<'_, ConsMsg>) {
        let ctx = &mut ctx.narrow();
        let mut plane = BatchPlane::new(self.batch_size);
        let mut model = TwoSetPlane::default();
        // Every batch either side has proposed or been shown.
        let mut batches: Vec<Vec<Transaction>> = Vec::new();
        for &word in &self.words {
            match word % 8 {
                0..=3 => {
                    let tx = self.tx(mix(word));
                    let out = plane.handle(ctx, NodeId(1), &ConsMsg::Submit(tx));
                    assert!(out.consumed && !out.progressed);
                    model.submit(tx);
                }
                4 => {
                    let got = plane.make_proposal(ctx, Hash::ZERO, View(0));
                    let want = model.make_proposal(self.batch_size);
                    assert_eq!(got, want.clone().map(ProposalPayload::Batch));
                    batches.extend(want);
                }
                5 => {
                    // Another leader's proposal; may repeat an id.
                    let txs = self.batch(word);
                    let payload = ProposalPayload::Batch(txs.clone());
                    let check =
                        plane.validate(ctx, 0, Hash::ZERO, Hash::ZERO, Hash::ZERO, &payload);
                    assert_eq!(check, ProposalCheck::Accept);
                    model.validate(&txs);
                    batches.push(txs);
                }
                6 if !batches.is_empty() => {
                    // Any batch, in any order, any number of times.
                    let txs = batches[(word >> 8) as usize % batches.len()].clone();
                    let payload = ProposalPayload::Batch(txs.clone());
                    let got = plane.commit(ctx, Hash::ZERO, Hash::ZERO, Hash::ZERO, &payload);
                    assert_eq!(got.as_deref(), Some(&model.commit(&txs)[..]));
                }
                7 => {
                    let txs = self.batch(word);
                    let payload = ProposalPayload::Batch(txs.clone());
                    let got = plane.catch_up(
                        ctx,
                        Hash::ZERO,
                        Hash::ZERO,
                        Hash::ZERO,
                        &payload,
                        txs.clone(),
                    );
                    assert_eq!(got, txs);
                    model.catch_up(&txs);
                }
                _ => {}
            }
            // The table plane additionally drops queue heads a committed
            // block made redundant; it never holds more than the reference.
            assert!(plane.pending() <= model.queue.len());
            let unknown = model.queue.iter().filter(|tx| !model.known(tx.id));
            assert!(plane.pending() >= unknown.count());
        }
    }

    fn on_message(&mut self, _: &mut Context<'_, ConsMsg>, _: NodeId, _: ConsMsg) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vote_set_matches_btreeset_model(
        ops in proptest::collection::vec(0usize..128, 0..300),
    ) {
        let mut set = VoteSet::default();
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            // Odd words vote, even ones only look.
            let (index, vote) = (op / 2, op % 2 == 1);
            if vote {
                prop_assert_eq!(set.insert(index), model.insert(index));
            }
            prop_assert_eq!(set.contains(index), model.contains(&index));
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        prop_assert!(!set.contains(64) && !set.contains(usize::MAX));
    }

    #[test]
    fn tx_table_matches_two_set_reference(
        words in proptest::collection::vec(any::<u64>(), 50..1500),
        pool in 256u64..4096,
        sparse in proptest::collection::vec(any::<u64>(), 0..6),
        batch_size in 1usize..12,
    ) {
        let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<ConsMsg> = Sim::new(0, network);
        let script = Script { words, pool, sparse, batch_size };
        sim.add_node(LinkConfig::paper_default(), Box::new(script), SimTime::ZERO);
        // `on_start` runs the script; a mismatch panics out of `run_until`.
        sim.run_until(SimTime::from_millis(1));
    }
}

#[test]
#[should_panic(expected = "committee index out of range")]
fn vote_set_refuses_an_index_past_the_mask() {
    VoteSet::default().insert(VoteSet::CAPACITY);
}
