//! Bundle production: turning a node's pending client transactions into a
//! signed bundle chain.

use std::collections::VecDeque;

use predis_crypto::{Hash, Keypair};
use predis_types::{ChainId, Height, SizedBundle, TipList, Transaction};

/// A FIFO of client transactions awaiting packing.
#[derive(Debug, Default)]
pub struct TxPool {
    queue: VecDeque<Transaction>,
    total_enqueued: u64,
}

impl TxPool {
    /// An empty pool.
    pub fn new() -> TxPool {
        TxPool::default()
    }

    /// Enqueues one transaction.
    pub fn push(&mut self, tx: Transaction) {
        self.queue.push_back(tx);
        self.total_enqueued += 1;
    }

    /// Dequeues up to `max` transactions.
    pub fn take(&mut self, max: usize) -> Vec<Transaction> {
        let n = max.min(self.queue.len());
        self.queue.drain(..n).collect()
    }

    /// Number of transactions waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total transactions ever enqueued (for accounting).
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }
}

/// Produces one consensus node's bundle chain (§III-A: transactions are
/// "unceasingly packed into bundles" and multicast).
#[derive(Debug)]
pub struct BundleProducer {
    chain: ChainId,
    key: Keypair,
    next_height: Height,
    parent: Hash,
    bundle_size: usize,
}

impl BundleProducer {
    /// Creates a producer for `chain` signing with `key`, packing at most
    /// `bundle_size` transactions per bundle (the paper's default is 50).
    ///
    /// # Panics
    ///
    /// Panics if `bundle_size` is zero.
    pub fn new(chain: ChainId, key: Keypair, bundle_size: usize) -> BundleProducer {
        assert!(bundle_size > 0, "bundle size must be positive");
        BundleProducer {
            chain,
            key,
            next_height: Height(1),
            parent: Hash::ZERO,
            bundle_size,
        }
    }

    /// The chain this producer extends.
    pub fn chain(&self) -> ChainId {
        self.chain
    }

    /// The height the next bundle will have.
    pub fn next_height(&self) -> Height {
        self.next_height
    }

    /// Maximum transactions per bundle.
    pub fn bundle_size(&self) -> usize {
        self.bundle_size
    }

    /// Restarts the chain from `height` with the given parent hash — the
    /// §III-E rejoin path after a pardon: the producer resumes at the
    /// committed prefix every honest node agrees on.
    pub fn restart_at(&mut self, height: Height, parent: Hash) {
        self.next_height = height;
        self.parent = parent;
    }

    /// Produces the next bundle from `txpool`, stamping it with `tips`
    /// (the producer's current acknowledgement vector — pass
    /// [`crate::Mempool::my_tips`]).
    ///
    /// When `allow_empty` is false and the pool is empty, returns `None`
    /// (nothing to pre-distribute); when true, an empty bundle is produced
    /// anyway so the tip list keeps flowing (heartbeat acknowledgements,
    /// needed for cut progress under light load).
    ///
    /// The bundle comes back as the shared handle the mempool, the
    /// multicast and the dissemination layer all hold, carrying the body
    /// fold and header digest this call computed
    /// ([`SizedBundle::build`]): nobody hashes the body again.
    pub fn produce(
        &mut self,
        txpool: &mut TxPool,
        mut tips: TipList,
        stripe_root: Hash,
        allow_empty: bool,
    ) -> Option<SizedBundle> {
        let txs = txpool.take(self.bundle_size);
        if txs.is_empty() && !allow_empty {
            return None;
        }
        // A producer acknowledges its own chain up to the bundle it is
        // creating: tip lists must dominate the parent's, which includes
        // this chain's previous height.
        tips.observe(self.chain, self.next_height);
        let bundle = SizedBundle::build(
            self.chain,
            self.next_height,
            self.parent,
            tips,
            txs,
            stripe_root,
            &self.key,
        );
        self.parent = bundle.hash();
        self.next_height = self.next_height.next();
        Some(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BundleError, InsertOutcome, Mempool};
    use predis_crypto::SignerId;
    use predis_types::{payload_stats, Bundle, ClientId, TxId};

    fn txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
            .collect()
    }

    #[test]
    fn txpool_fifo() {
        let mut pool = TxPool::new();
        for tx in txs(5) {
            pool.push(tx);
        }
        assert_eq!(pool.len(), 5);
        let first = pool.take(2);
        assert_eq!(first[0].id, TxId(0));
        assert_eq!(first[1].id, TxId(1));
        assert_eq!(pool.take(10).len(), 3);
        assert!(pool.is_empty());
        assert_eq!(pool.total_enqueued(), 5);
    }

    #[test]
    fn produced_bundles_chain_and_validate() {
        let mut producer = BundleProducer::new(ChainId(0), Keypair::for_node(SignerId(0)), 3);
        let mut txpool = TxPool::new();
        for tx in txs(7) {
            txpool.push(tx);
        }
        let mut mempool = Mempool::new(4, 1, Some(ChainId(0)));
        for expected_len in [3usize, 3, 1] {
            let b = producer
                .produce(&mut txpool, mempool.my_tips(), Hash::ZERO, false)
                .unwrap();
            assert_eq!(b.txs.len(), expected_len);
            assert!(b.verify());
            mempool.insert_bundle(b).unwrap();
        }
        assert_eq!(mempool.chain(ChainId(0)).tip(), Height(3));
        // Pool drained: silent unless empty bundles are allowed.
        assert!(producer
            .produce(&mut txpool, mempool.my_tips(), Hash::ZERO, false)
            .is_none());
        let hb = producer
            .produce(&mut txpool, mempool.my_tips(), Hash::ZERO, true)
            .unwrap();
        assert!(hb.txs.is_empty());
        assert!(hb.verify());
        assert_eq!(hb.header.height, Height(4));
    }

    #[test]
    fn tip_list_acknowledges_own_chain() {
        let mut producer = BundleProducer::new(ChainId(2), Keypair::for_node(SignerId(2)), 10);
        let mut txpool = TxPool::new();
        txpool.push(Transaction::new(TxId(0), ClientId(0), 0));
        let b = producer
            .produce(&mut txpool, TipList::new(4), Hash::ZERO, false)
            .unwrap();
        assert_eq!(b.header.tips.get(ChainId(2)), Height(1));
    }

    #[test]
    fn one_fold_serves_the_producer_and_every_receiver() {
        const N: usize = 8;
        let mut producer = BundleProducer::new(ChainId(0), Keypair::for_node(SignerId(0)), 50);
        let mut txpool = TxPool::new();
        for tx in txs(50) {
            txpool.push(tx);
        }
        payload_stats::reset();
        let b = producer
            .produce(&mut txpool, TipList::new(N), Hash::ZERO, false)
            .unwrap();
        // The producer's own insert, then seven receivers of its multicast.
        for me in 0..N as u32 {
            let mut mempool = Mempool::new(N, 2, Some(ChainId(me)));
            assert!(matches!(
                mempool.insert_bundle(b.clone()).unwrap(),
                InsertOutcome::Inserted { .. }
            ));
        }
        assert_eq!(payload_stats::snapshot().body_folds, 1);
    }

    #[test]
    fn tampered_copies_of_an_accepted_bundle_are_rejected() {
        let mut producer = BundleProducer::new(ChainId(0), Keypair::for_node(SignerId(0)), 50);
        let mut txpool = TxPool::new();
        for tx in txs(50) {
            txpool.push(tx);
        }
        let honest = producer
            .produce(&mut txpool, TipList::new(4), Hash::ZERO, false)
            .unwrap();
        // Accepted, and its verdict memoized, before any forgery shows up.
        let mut holder = Mempool::new(4, 1, Some(ChainId(1)));
        holder.insert_bundle(honest.clone()).unwrap();
        let tamper: [fn(&mut Bundle); 4] = [
            |b| b.txs[7] = Transaction::new(TxId(999), ClientId(9), 0),
            |b| b.header.tx_root = Hash::digest(b"forged root"),
            |b| b.header.height = Height(2),
            |b| {
                b.header.signature = Keypair::for_node(SignerId(3)).sign(b.header.digest());
            },
        ];
        for alter in tamper {
            let mut forged: Bundle = (*honest).clone();
            alter(&mut forged);
            // Two allocations never share a memo: whether the node already
            // holds the original or sees this height for the first time,
            // the copy is judged by its own bytes.
            let mut newcomer = Mempool::new(4, 1, Some(ChainId(2)));
            for pool in [&mut holder, &mut newcomer] {
                assert_eq!(
                    pool.insert_bundle(forged.clone()),
                    Err(BundleError::InvalidBundle)
                );
            }
        }
        assert_eq!(
            holder.insert_bundle(honest).unwrap(),
            InsertOutcome::AlreadyKnown
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bundle_size_rejected() {
        let _ = BundleProducer::new(ChainId(0), Keypair::for_node(SignerId(0)), 0);
    }
}
