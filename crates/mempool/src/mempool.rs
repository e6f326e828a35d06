//! The Predis mempool: `n_c` parallel bundle chains plus the cut rule.
//!
//! This module is the paper's core data structure (§III). Every node —
//! consensus or full — maintains one [`Mempool`]; consensus nodes
//! additionally use it to build and validate Predis blocks.

use predis_crypto::{merkle_root, Hash, Keypair, Signature};
use predis_types::{
    quorum_cut_height, Bundle, ChainId, ConflictProof, Height, PredisBlock, SizedBundle, TipList,
    Transaction, View,
};

use crate::ban::BanList;
use crate::chain::BundleChain;

/// The outcome of inserting a received bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// The bundle extended its chain; `absorbed` parked bundles followed it.
    Inserted {
        /// The chain that grew.
        chain: ChainId,
        /// The chain's new tip.
        new_tip: Height,
        /// How many previously parked bundles became valid in cascade.
        absorbed: u64,
    },
    /// A bundle with this exact header was already validated.
    AlreadyKnown,
    /// The bundle arrived before its parent and was parked; the node should
    /// request the height `waiting_for` from the producer (§III-A check 1).
    Parked {
        /// The next height the chain needs.
        waiting_for: Height,
    },
    /// The producer is banned; the bundle was discarded.
    IgnoredBanned,
    /// Equivocation detected: the proof should be multicast and the
    /// producer is now banned locally (§III-E forking attack).
    Conflict(Box<ConflictProof>),
}

/// Why a bundle was rejected outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// The chain id does not exist in this network.
    UnknownChain(ChainId),
    /// Bad signature or transaction-root mismatch.
    InvalidBundle,
    /// The parent hash does not match the validated chain.
    ParentMismatch {
        /// The offending chain.
        chain: ChainId,
        /// The offending height.
        height: Height,
    },
    /// The tip list is not `>=` the parent bundle's tip list (§III-A
    /// validity check 3).
    TipRegression {
        /// The offending chain.
        chain: ChainId,
        /// The offending height.
        height: Height,
    },
    /// The bundle is at or below a pruned, committed height.
    Stale {
        /// The offending chain.
        chain: ChainId,
        /// The offending height.
        height: Height,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::UnknownChain(c) => write!(f, "unknown chain {c}"),
            BundleError::InvalidBundle => write!(f, "invalid bundle signature or tx root"),
            BundleError::ParentMismatch { chain, height } => {
                write!(f, "parent mismatch on {chain} at {height}")
            }
            BundleError::TipRegression { chain, height } => {
                write!(f, "tip list regression on {chain} at {height}")
            }
            BundleError::Stale { chain, height } => {
                write!(f, "stale bundle on {chain} at {height}")
            }
        }
    }
}

impl std::error::Error for BundleError {}

/// Why a received Predis block failed validation (§III-B checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockValidationError {
    /// Structurally broken (mismatched vectors, header slots wrong).
    Malformed,
    /// The block's base does not match the expected parent state.
    BaseMismatch,
    /// The block cuts a chain this node has banned (check 2).
    BannedProducer(ChainId),
    /// Bundles referenced by the block are missing locally; the node must
    /// fetch them before voting (check 3). Heights listed per chain.
    MissingBundles(Vec<(ChainId, Height)>),
    /// The header in the block disagrees with the locally validated bundle
    /// at the cut height — evidence of equivocation somewhere.
    HeaderMismatch(ChainId),
    /// The recomputed transaction Merkle root differs (check 4).
    TxRootMismatch,
}

impl std::fmt::Display for BlockValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockValidationError::Malformed => write!(f, "malformed predis block"),
            BlockValidationError::BaseMismatch => write!(f, "block base mismatches parent state"),
            BlockValidationError::BannedProducer(c) => {
                write!(f, "block references banned producer {c}")
            }
            BlockValidationError::MissingBundles(m) => {
                write!(f, "missing {} bundles referenced by block", m.len())
            }
            BlockValidationError::HeaderMismatch(c) => {
                write!(f, "header mismatch on {c} at cut height")
            }
            BlockValidationError::TxRootMismatch => write!(f, "transaction root mismatch"),
        }
    }
}

impl std::error::Error for BlockValidationError {}

/// A node's Predis mempool.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Mempool {
    f: usize,
    /// This node's own chain, if it is a consensus node.
    me: Option<ChainId>,
    chains: Vec<BundleChain>,
    /// Tip list of the bundle currently at each chain's tip (the producer's
    /// newest acknowledgement vector).
    producer_tips: Vec<TipList>,
    ban: BanList,
}

impl Mempool {
    /// Creates a mempool tracking `n_chains` producer chains with fault
    /// bound `f`. `me` is this node's own chain if it is a consensus node.
    ///
    /// # Panics
    ///
    /// Panics if `n_chains == 0` or `f >= n_chains`.
    pub fn new(n_chains: usize, f: usize, me: Option<ChainId>) -> Mempool {
        assert!(n_chains > 0, "need at least one chain");
        assert!(f < n_chains, "f must be smaller than the chain count");
        Mempool {
            f,
            me,
            chains: (0..n_chains)
                .map(|i| BundleChain::new(ChainId(i as u32)))
                .collect(),
            producer_tips: vec![TipList::new(n_chains); n_chains],
            ban: BanList::new(),
        }
    }

    /// Number of chains (= consensus nodes).
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Read access to a chain's state.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub fn chain(&self, chain: ChainId) -> &BundleChain {
        &self.chains[chain.index()]
    }

    /// The ban list.
    pub fn ban_list(&self) -> &BanList {
        &self.ban
    }

    /// Registers externally received conflict evidence; returns `true` if
    /// the producer is newly banned (gossip it on).
    pub fn register_conflict(&mut self, proof: ConflictProof) -> bool {
        self.ban.register(proof)
    }

    /// This node's current acknowledgement vector: the tip of every chain.
    /// This is what the node writes into the bundles it produces.
    pub fn my_tips(&self) -> TipList {
        TipList::from(self.chains.iter().map(BundleChain::tip).collect::<Vec<_>>())
    }

    /// Validates and inserts a received bundle (§III-A checks 1-4).
    ///
    /// Accepts anything convertible into a [`SizedBundle`]; passing one
    /// directly (the form the network delivers) stores the very same
    /// allocation without copying the transaction body.
    ///
    /// # Errors
    ///
    /// Returns a [`BundleError`] when the bundle is rejected outright;
    /// recoverable situations (parked, duplicate, banned, conflict) are
    /// reported through [`InsertOutcome`].
    pub fn insert_bundle(
        &mut self,
        bundle: impl Into<SizedBundle>,
    ) -> Result<InsertOutcome, BundleError> {
        let bundle = bundle.into();
        let chain = bundle.header.chain;
        if chain.index() >= self.chains.len() {
            return Err(BundleError::UnknownChain(chain));
        }
        if self.ban.is_banned(chain) {
            return Ok(InsertOutcome::IgnoredBanned);
        }
        if !bundle.verify() {
            return Err(BundleError::InvalidBundle);
        }
        let h = bundle.header.height;
        let state = &self.chains[chain.index()];
        if h <= state.tip() {
            // Duplicate or equivocation at an already validated height.
            return match state.hash_at(h) {
                Some(known) if known == bundle.hash() => Ok(InsertOutcome::AlreadyKnown),
                Some(_) => {
                    let ours = match state.header(h) {
                        Some(hdr) => hdr.clone(),
                        // Body pruned: cannot build evidence; the height is
                        // committed anyway, nothing to do.
                        None => return Err(BundleError::Stale { chain, height: h }),
                    };
                    if ours.parent == bundle.header.parent {
                        let proof = ConflictProof {
                            a: ours,
                            b: bundle.header.clone(),
                        };
                        debug_assert!(proof.verify());
                        self.ban.register(proof.clone());
                        Ok(InsertOutcome::Conflict(Box::new(proof)))
                    } else {
                        Err(BundleError::ParentMismatch { chain, height: h })
                    }
                }
                None => Err(BundleError::Stale { chain, height: h }),
            };
        }
        if h > state.tip().next() {
            let waiting_for = state.tip().next();
            self.chains[chain.index()].park(bundle);
            return Ok(InsertOutcome::Parked { waiting_for });
        }
        // h == tip + 1: the appending case.
        self.try_append(bundle)?;
        let mut absorbed = 0;
        // Cascade parked successors.
        loop {
            let next = self.chains[chain.index()].tip().next();
            match self.chains[chain.index()].take_parked(next) {
                Some(parked) => match self.try_append(parked) {
                    Ok(()) => absorbed += 1,
                    Err(_) => break, // broken successor: drop it
                },
                None => break,
            }
        }
        Ok(InsertOutcome::Inserted {
            chain,
            new_tip: self.chains[chain.index()].tip(),
            absorbed,
        })
    }

    /// Appends a verified bundle at exactly `tip + 1` after parent/tip-list
    /// checks.
    fn try_append(&mut self, bundle: SizedBundle) -> Result<(), BundleError> {
        let chain = bundle.header.chain;
        let h = bundle.header.height;
        let state = &self.chains[chain.index()];
        let expected_parent = state.hash_at(state.tip()).expect("tip hash always known");
        if bundle.header.parent != expected_parent {
            return Err(BundleError::ParentMismatch { chain, height: h });
        }
        // Validity check 3: the tip list must dominate the parent's.
        if state.tip() > Height(0) {
            if let Some(parent_hdr) = state.header(state.tip()) {
                if !bundle.header.tips.dominates(&parent_hdr.tips) {
                    return Err(BundleError::TipRegression { chain, height: h });
                }
            }
        }
        let tips = bundle.header.tips.clone();
        self.chains[chain.index()].append(bundle);
        let pt = &mut self.producer_tips[chain.index()];
        pt.merge(&tips);
        pt.observe(chain, h); // a producer trivially holds its own bundle
        Ok(())
    }

    /// The acknowledgement heights for `target` chain as seen from all
    /// `n_c` consensus nodes (this node's own observation substituted for
    /// its slot, when it is a consensus node).
    pub fn acked_heights(&self, target: ChainId) -> Vec<Height> {
        (0..self.chains.len())
            .map(|j| {
                if Some(ChainId(j as u32)) == self.me {
                    self.chains[target.index()].tip()
                } else {
                    self.producer_tips[j].get(target)
                }
            })
            .collect()
    }

    /// The leader's cut (§III-B): per chain, the highest height received by
    /// at least `n_c − f` nodes, clamped to what this node actually holds
    /// and never below the given `base`. Banned chains are cut empty.
    pub fn cut(&self, base: &[Height]) -> Vec<Height> {
        assert_eq!(base.len(), self.chains.len(), "base must cover every chain");
        (0..self.chains.len())
            .map(|i| {
                let chain = ChainId(i as u32);
                if self.ban.is_banned(chain) {
                    return base[i];
                }
                let quorum = quorum_cut_height(&self.acked_heights(chain), self.f);
                quorum.min(self.chains[i].tip()).max(base[i])
            })
            .collect()
    }

    /// The committed height of every chain (the default block base).
    pub fn committed_base(&self) -> Vec<Height> {
        self.chains.iter().map(BundleChain::committed).collect()
    }

    /// Builds and signs a Predis block extending `parent` with base `base`
    /// (pass [`Mempool::committed_base`] for sequential protocols, or the
    /// parent block's cut for pipelined ones). Returns `None` if no chain
    /// has new bundles to confirm.
    pub fn build_block(
        &self,
        view: View,
        parent: Hash,
        base: &[Height],
        key: &Keypair,
    ) -> Option<PredisBlock> {
        self.build_block_signed(view, parent, base, key)
            .map(|(block, _)| block)
    }

    /// [`Mempool::build_block`] together with the digest the leader just
    /// signed — the block's identity, so the proposing plane need not
    /// digest its own block a second time.
    pub fn build_block_signed(
        &self,
        view: View,
        parent: Hash,
        base: &[Height],
        key: &Keypair,
    ) -> Option<(PredisBlock, Hash)> {
        let cut = self.cut(base);
        if cut.iter().zip(base).all(|(c, b)| c == b) {
            return None;
        }
        let headers = (0..self.chains.len())
            .map(|i| {
                if cut[i] > base[i] {
                    Some(
                        self.chains[i]
                            .hash_at(cut[i])
                            .expect("cut is clamped to held tip"),
                    )
                } else {
                    None
                }
            })
            .collect();
        let tx_root = self.slice_tx_root(base, &cut);
        let mut block = PredisBlock {
            parent,
            view,
            base: base.to_vec(),
            cut,
            headers,
            tx_root,
            signature: Signature::default(),
        };
        let digest = block.sign(key);
        debug_assert!(block.well_formed());
        Some((block, digest))
    }

    /// Merkle root over all transactions in the slices `(base, cut]`, chain
    /// by chain.
    /// Hierarchical commitment to the slice's transactions: a Merkle root
    /// over the per-bundle `tx_root`s in `(base, cut]`, chain by chain.
    ///
    /// Each leaf is itself the Merkle root of one bundle's transactions,
    /// checked against the body when the bundle was inserted — so this
    /// commits to exactly the same transaction sequence as a flat root over
    /// every transaction, while costing O(#bundles) instead of O(#txs)
    /// hashes. That difference is what keeps per-replica block validation
    /// constant-ish: replicas validate every proposal, and a slice holds
    /// hundreds of transactions but only a handful of bundles.
    fn slice_tx_root(&self, base: &[Height], cut: &[Height]) -> Hash {
        let mut leaves = Vec::new();
        for (i, chain) in self.chains.iter().enumerate() {
            for bundle in chain.range(base[i], cut[i]) {
                leaves.push(bundle.header.tx_root);
            }
        }
        // Equal leaves are legitimate here (two empty bundles both carry
        // `tx_root == Hash::ZERO`), so `mutated` is not consulted.
        merkle_root(&mut leaves).root
    }

    /// Validates a received Predis block against `expected_base` (§III-B
    /// checks 2-4; parent-block and leader-signature checks belong to the
    /// consensus layer).
    ///
    /// # Errors
    ///
    /// See [`BlockValidationError`]; in the [`BlockValidationError::MissingBundles`]
    /// case the node should fetch the listed heights and revalidate.
    pub fn validate_block(
        &self,
        block: &PredisBlock,
        expected_base: &[Height],
    ) -> Result<(), BlockValidationError> {
        if !block.well_formed() || block.chain_count() != self.chains.len() {
            return Err(BlockValidationError::Malformed);
        }
        if block.base.as_slice() != expected_base {
            return Err(BlockValidationError::BaseMismatch);
        }
        let mut missing = Vec::new();
        for i in 0..self.chains.len() {
            let chain = ChainId(i as u32);
            if block.cut[i] == block.base[i] {
                continue;
            }
            if self.ban.is_banned(chain) {
                return Err(BlockValidationError::BannedProducer(chain));
            }
            let state = &self.chains[i];
            if state.tip() < block.cut[i] {
                missing.extend(
                    state
                        .missing_in(state.tip(), block.cut[i])
                        .into_iter()
                        .map(|h| (chain, h)),
                );
                // Heights between base and our tip might also be pruned
                // only if committed > base, which BaseMismatch excludes.
                continue;
            }
            let local = state
                .hash_at(block.cut[i])
                .ok_or(BlockValidationError::Malformed)?;
            let claimed = block.headers[i].expect("well-formed");
            if local != claimed {
                return Err(BlockValidationError::HeaderMismatch(chain));
            }
        }
        if !missing.is_empty() {
            return Err(BlockValidationError::MissingBundles(missing));
        }
        if self.slice_tx_root(&block.base, &block.cut) != block.tx_root {
            return Err(BlockValidationError::TxRootMismatch);
        }
        Ok(())
    }

    /// The transactions a valid block confirms, in canonical order.
    /// Returns `None` if bundles are missing locally.
    pub fn extract_txs(&self, block: &PredisBlock) -> Option<Vec<Transaction>> {
        // Sized exactly: consensus shells keep the list (for catch-up) for
        // a retention window, slack included.
        let mut txs = Vec::with_capacity(self.count_txs(block)? as usize);
        for (i, chain) in self.chains.iter().enumerate() {
            for bundle in chain.range(block.base[i], block.cut[i]) {
                txs.extend_from_slice(&bundle.txs);
            }
        }
        Some(txs)
    }

    /// Total transactions a block confirms (cheaper than
    /// [`Mempool::extract_txs`]).
    pub fn count_txs(&self, block: &PredisBlock) -> Option<u64> {
        let mut n = 0u64;
        for (i, chain) in self.chains.iter().enumerate() {
            if !chain.holds_range(block.base[i], block.cut[i]) {
                return None;
            }
            n += chain
                .range(block.base[i], block.cut[i])
                .map(|b| b.txs.len() as u64)
                .sum::<u64>();
        }
        Some(n)
    }

    /// Marks a block's cut as committed and prunes bundle bodies below the
    /// new committed heights. Returns the number of bundles pruned.
    pub fn commit_cut(&mut self, cut: &[Height]) -> usize {
        let mut pruned = 0;
        for (i, chain) in self.chains.iter_mut().enumerate() {
            chain.commit_to(cut[i]);
            pruned += chain.prune_committed();
        }
        pruned
    }

    /// Fast-forwards every chain to the committed anchors of a block
    /// received via crash-recovery state transfer: chain `i` jumps to
    /// `cut[i]` with the block's header hash as the new anchor, after which
    /// live bundles extend it normally. Returns how many parked bundles
    /// became appendable and were absorbed.
    pub fn fast_forward(&mut self, block: &PredisBlock) -> u64 {
        let mut absorbed = 0;
        for i in 0..self.chains.len() {
            if let Some(hash) = block.headers[i] {
                self.chains[i].fast_forward(block.cut[i], hash);
                // Cascade parked successors onto the new anchor.
                loop {
                    let next = self.chains[i].tip().next();
                    match self.chains[i].take_parked(next) {
                        Some(parked) => {
                            if self.try_append(parked).is_ok() {
                                absorbed += 1;
                            } else {
                                break;
                            }
                        }
                        None => break,
                    }
                }
            }
        }
        absorbed
    }

    /// Pardons a banned producer (§III-E: a banned node "has the option to
    /// propose a new genesis bundle to rejoin"): lifts the ban and rolls the
    /// producer's chain back to its committed prefix, which every honest
    /// node agrees on, so the producer can rebuild from there. Returns
    /// `false` if the chain was not banned.
    pub fn pardon(&mut self, chain: ChainId) -> bool {
        if !self.ban.unban(chain) {
            return false;
        }
        self.chains[chain.index()].rollback_to_committed();
        // Stale acknowledgements about the discarded fork are reset.
        self.producer_tips[chain.index()] = TipList::new(self.chains.len());
        true
    }

    /// The bundle at `(chain, height)` if held (for serving fetch requests).
    pub fn get_bundle(&self, chain: ChainId, height: Height) -> Option<&Bundle> {
        self.chains.get(chain.index())?.bundle(height)
    }

    /// The bundle at `(chain, height)` as a shared handle: re-serving it to
    /// a peer clones the `Arc`, not the transaction body.
    pub fn get_bundle_shared(&self, chain: ChainId, height: Height) -> Option<&SizedBundle> {
        self.chains.get(chain.index())?.bundle_shared(height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis_crypto::{Keypair, SignerId};
    use predis_types::{ClientId, Transaction, TxId};

    const N: usize = 4;
    const F: usize = 1;

    fn key(chain: u32) -> Keypair {
        Keypair::for_node(SignerId(chain))
    }

    /// Builds a bundle for `chain` at `height` whose parent is looked up in
    /// `pool`, with an explicit tip list.
    fn mk_bundle(pool: &Mempool, chain: u32, height: u64, tips: TipList, salt: u64) -> Bundle {
        let parent = pool
            .chain(ChainId(chain))
            .hash_at(Height(height - 1))
            .expect("parent known");
        Bundle::build(
            ChainId(chain),
            Height(height),
            parent,
            tips,
            vec![Transaction::new(
                TxId(height * 1000 + chain as u64 + salt),
                ClientId(0),
                0,
            )],
            Hash::ZERO,
            &key(chain),
        )
    }

    /// Fills the pool: every chain grows to `height`, every producer's tip
    /// list acknowledges everything it has "seen" (full mesh, no lag).
    fn filled_pool(me: u32, height: u64) -> Mempool {
        let mut pool = Mempool::new(N, F, Some(ChainId(me)));
        for h in 1..=height {
            for c in 0..N as u32 {
                // Every producer acknowledges every chain at `h`: models a
                // settled round where all bundles have propagated.
                let tips = TipList::from(vec![Height(h); N]);
                let b = mk_bundle(&pool, c, h, tips, 0);
                pool.insert_bundle(b).unwrap();
            }
        }
        pool
    }

    #[test]
    fn inserts_extend_chains() {
        let pool = filled_pool(0, 3);
        for c in 0..N as u32 {
            assert_eq!(pool.chain(ChainId(c)).tip(), Height(3));
        }
        assert_eq!(pool.my_tips().heights(), &[Height(3); 4]);
    }

    #[test]
    fn duplicate_is_already_known() {
        let mut pool = Mempool::new(N, F, Some(ChainId(0)));
        let b = mk_bundle(&pool, 1, 1, TipList::new(N), 0);
        assert!(matches!(
            pool.insert_bundle(b.clone()).unwrap(),
            InsertOutcome::Inserted { .. }
        ));
        assert_eq!(pool.insert_bundle(b).unwrap(), InsertOutcome::AlreadyKnown);
    }

    #[test]
    fn out_of_order_parks_and_cascades() {
        let mut pool = Mempool::new(N, F, Some(ChainId(0)));
        let b1 = mk_bundle(&pool, 2, 1, TipList::new(N), 0);
        // Build b2 against a temp pool that has b1.
        let mut tmp = Mempool::new(N, F, Some(ChainId(0)));
        tmp.insert_bundle(b1.clone()).unwrap();
        let b2 = mk_bundle(&tmp, 2, 2, TipList::new(N), 0);
        // Deliver out of order.
        assert_eq!(
            pool.insert_bundle(b2).unwrap(),
            InsertOutcome::Parked {
                waiting_for: Height(1)
            }
        );
        let out = pool.insert_bundle(b1).unwrap();
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                chain: ChainId(2),
                new_tip: Height(2),
                absorbed: 1
            }
        );
    }

    #[test]
    fn equivocation_is_detected_and_banned() {
        let mut pool = Mempool::new(N, F, Some(ChainId(0)));
        let a = mk_bundle(&pool, 3, 1, TipList::new(N), 0);
        let b = mk_bundle(&pool, 3, 1, TipList::new(N), 7); // same parent, different txs
        pool.insert_bundle(a).unwrap();
        match pool.insert_bundle(b).unwrap() {
            InsertOutcome::Conflict(proof) => {
                assert!(proof.verify());
                assert_eq!(proof.offender(), ChainId(3));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        assert!(pool.ban_list().is_banned(ChainId(3)));
        // Further bundles from the banned chain are ignored.
        let pool2 = Mempool::new(N, F, Some(ChainId(0)));
        let c = mk_bundle(&pool2, 3, 1, TipList::new(N), 9);
        let _ = pool2; // silence
        assert_eq!(pool.insert_bundle(c).unwrap(), InsertOutcome::IgnoredBanned);
    }

    #[test]
    fn tip_regression_rejected() {
        let mut pool = Mempool::new(N, F, Some(ChainId(0)));
        let high_tips = TipList::from(vec![Height(2); N]);
        let b1 = Bundle::build(
            ChainId(1),
            Height(1),
            Hash::ZERO,
            high_tips,
            vec![],
            Hash::ZERO,
            &key(1),
        );
        pool.insert_bundle(b1).unwrap();
        let parent = pool.chain(ChainId(1)).hash_at(Height(1)).unwrap();
        let regressed = Bundle::build(
            ChainId(1),
            Height(2),
            parent,
            TipList::new(N), // all zeros: regression
            vec![],
            Hash::ZERO,
            &key(1),
        );
        assert_eq!(
            pool.insert_bundle(regressed),
            Err(BundleError::TipRegression {
                chain: ChainId(1),
                height: Height(2)
            })
        );
    }

    #[test]
    fn parent_mismatch_rejected() {
        let mut pool = Mempool::new(N, F, Some(ChainId(0)));
        let bad = Bundle::build(
            ChainId(0),
            Height(1),
            Hash::digest(b"not-zero"),
            TipList::new(N),
            vec![],
            Hash::ZERO,
            &key(0),
        );
        assert!(matches!(
            pool.insert_bundle(bad),
            Err(BundleError::ParentMismatch { .. })
        ));
    }

    #[test]
    fn cut_follows_quorum_acks() {
        // All chains at height 3 with full acks: cut everything.
        let pool = filled_pool(0, 3);
        let base = pool.committed_base();
        assert_eq!(pool.cut(&base), vec![Height(3); 4]);
    }

    #[test]
    fn cut_limited_by_slow_acks() {
        // Chains grow to 3 but producers only acknowledge height 1 of chain
        // 0: the quorum for chain 0 stalls at 1 (leader's own ack can't
        // carry it alone).
        let mut pool = Mempool::new(N, F, Some(ChainId(0)));
        for h in 1..=3u64 {
            for c in 0..N as u32 {
                let mut tips = TipList::new(N);
                for j in 0..N as u32 {
                    // Everyone acks everything except chain 0, acked to 1.
                    let cap = if j == 0 { 1 } else { h };
                    tips.observe(ChainId(j), Height(cap.min(h)));
                }
                let b = mk_bundle(&pool, c, h, tips, 0);
                pool.insert_bundle(b).unwrap();
            }
        }
        let cut = pool.cut(&pool.committed_base());
        assert_eq!(cut[0], Height(1), "chain 0 under-acked");
        assert_eq!(cut[1], Height(3));
    }

    #[test]
    fn banned_chain_is_cut_empty() {
        let mut pool = filled_pool(0, 2);
        let a = pool.chain(ChainId(1)).header(Height(2)).unwrap().clone();
        // Construct a fake sibling to ban chain 1.
        let sibling = Bundle::build(
            ChainId(1),
            Height(2),
            a.parent,
            a.tips.clone(),
            vec![Transaction::new(TxId(424242), ClientId(1), 0)],
            Hash::ZERO,
            &key(1),
        );
        let proof = ConflictProof {
            a,
            b: sibling.header,
        };
        assert!(pool.register_conflict(proof));
        let cut = pool.cut(&pool.committed_base());
        assert_eq!(cut[1], Height(0));
        assert_eq!(cut[0], Height(2));
    }

    #[test]
    fn build_and_validate_roundtrip() {
        let leader = filled_pool(0, 3);
        let base = leader.committed_base();
        let block = leader
            .build_block(View(1), Hash::ZERO, &base, &key(0))
            .expect("non-empty");
        assert!(block.verify_signature(SignerId(0)));
        assert_eq!(block.bundle_count(), 12); // 4 chains x 3 bundles

        // A replica with identical state validates and extracts the same txs.
        let replica = filled_pool(1, 3);
        replica.validate_block(&block, &base).expect("valid");
        let txs_l = leader.extract_txs(&block).unwrap();
        let txs_r = replica.extract_txs(&block).unwrap();
        assert_eq!(txs_l, txs_r); // Theorem 3.3: identical candidate blocks
        assert_eq!(replica.count_txs(&block), Some(txs_l.len() as u64));
    }

    #[test]
    fn validate_detects_missing_bundles() {
        let leader = filled_pool(0, 3);
        let base = leader.committed_base();
        let block = leader
            .build_block(View(1), Hash::ZERO, &base, &key(0))
            .unwrap();
        // A replica that only has height 2 everywhere.
        let behind = filled_pool(1, 2);
        match behind.validate_block(&block, &base) {
            Err(BlockValidationError::MissingBundles(m)) => {
                assert_eq!(m.len(), 4);
                assert!(m.iter().all(|&(_, h)| h == Height(3)));
            }
            other => panic!("expected missing bundles, got {other:?}"),
        }
        assert_eq!(behind.extract_txs(&block), None);
    }

    #[test]
    fn validate_detects_tx_root_tampering() {
        let leader = filled_pool(0, 2);
        let base = leader.committed_base();
        let mut block = leader
            .build_block(View(1), Hash::ZERO, &base, &key(0))
            .unwrap();
        block.tx_root = Hash::digest(b"evil");
        block.sign(&key(0)); // re-signed by the (malicious) leader
        let replica = filled_pool(1, 2);
        assert_eq!(
            replica.validate_block(&block, &base),
            Err(BlockValidationError::TxRootMismatch)
        );
    }

    #[test]
    fn validate_detects_base_mismatch() {
        let leader = filled_pool(0, 2);
        let base = leader.committed_base();
        let block = leader
            .build_block(View(1), Hash::ZERO, &base, &key(0))
            .unwrap();
        let replica = filled_pool(1, 2);
        let wrong_base = vec![Height(1); 4];
        assert_eq!(
            replica.validate_block(&block, &wrong_base),
            Err(BlockValidationError::BaseMismatch)
        );
    }

    #[test]
    fn commit_advances_base_and_prunes() {
        let mut pool = filled_pool(0, 3);
        let base = pool.committed_base();
        let block = pool
            .build_block(View(1), Hash::ZERO, &base, &key(0))
            .unwrap();
        let pruned = pool.commit_cut(&block.cut);
        assert_eq!(pruned, 12);
        assert_eq!(pool.committed_base(), vec![Height(3); 4]);
        // Next block over the same state is empty.
        assert!(pool
            .build_block(View(2), block.hash(), &pool.committed_base(), &key(0))
            .is_none());
    }

    #[test]
    fn empty_cut_produces_no_block() {
        let pool = Mempool::new(N, F, Some(ChainId(0)));
        assert!(pool
            .build_block(View(1), Hash::ZERO, &pool.committed_base(), &key(0))
            .is_none());
    }

    #[test]
    fn pardon_rolls_back_and_allows_rejoin() {
        // Ban chain 1 via equivocation, commit nothing, then pardon: the
        // chain rolls back to the committed prefix and fresh bundles are
        // accepted again.
        let mut pool = filled_pool(0, 2);
        let base = pool.committed_base();
        let block = pool
            .build_block(View(1), Hash::ZERO, &base, &key(0))
            .unwrap();
        pool.commit_cut(&block.cut); // committed = 2 everywhere

        // Grow chain 1 to height 3, then ban it with a forged sibling.
        let tips = TipList::from(vec![Height(3); N]);
        let b3 = mk_bundle(&pool, 1, 3, tips.clone(), 0);
        pool.insert_bundle(b3.clone()).unwrap();
        let sibling = Bundle::build(
            ChainId(1),
            Height(3),
            b3.header.parent,
            tips,
            vec![Transaction::new(TxId(31337), ClientId(1), 0)],
            Hash::ZERO,
            &key(1),
        );
        match pool.insert_bundle(sibling).unwrap() {
            InsertOutcome::Conflict(_) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert!(pool.ban_list().is_banned(ChainId(1)));
        // Banned: cut excludes chain 1 even though it has height 3.
        assert_eq!(pool.cut(&pool.committed_base())[1], Height(2));

        // Pardon: chain rolls back to the committed height 2.
        assert!(pool.pardon(ChainId(1)));
        assert!(!pool.ban_list().is_banned(ChainId(1)));
        assert_eq!(pool.chain(ChainId(1)).tip(), Height(2));
        assert!(!pool.pardon(ChainId(1)), "double pardon is a no-op");

        // The producer restarts from the committed prefix and is accepted.
        let parent = pool.chain(ChainId(1)).hash_at(Height(2)).unwrap();
        let fresh = Bundle::build(
            ChainId(1),
            Height(3),
            parent,
            TipList::from(vec![Height(3); N]),
            vec![Transaction::new(TxId(99), ClientId(0), 0)],
            Hash::ZERO,
            &key(1),
        );
        assert!(matches!(
            pool.insert_bundle(fresh).unwrap(),
            InsertOutcome::Inserted { .. }
        ));
        assert_eq!(pool.chain(ChainId(1)).tip(), Height(3));
    }

    #[test]
    fn producer_restart_matches_pardoned_chain() {
        use crate::producer::{BundleProducer, TxPool};
        let mut pool = filled_pool(1, 2);
        let base = pool.committed_base();
        let block = pool
            .build_block(View(1), Hash::ZERO, &base, &key(1))
            .unwrap();
        pool.commit_cut(&block.cut);
        // A producer that equivocated restarts at committed + 1.
        let committed = pool.chain(ChainId(0)).committed();
        let parent = pool.chain(ChainId(0)).hash_at(committed).unwrap();
        let mut producer = BundleProducer::new(ChainId(0), key(0), 10);
        producer.restart_at(committed.next(), parent);
        let mut txpool = TxPool::new();
        txpool.push(Transaction::new(TxId(5), ClientId(0), 0));
        let b = producer
            .produce(&mut txpool, pool.my_tips(), Hash::ZERO, false)
            .unwrap();
        assert!(matches!(
            pool.insert_bundle(b).unwrap(),
            InsertOutcome::Inserted { .. }
        ));
    }

    #[test]
    fn get_bundle_serves_fetches() {
        let pool = filled_pool(0, 2);
        assert!(pool.get_bundle(ChainId(1), Height(2)).is_some());
        assert!(pool.get_bundle(ChainId(1), Height(5)).is_none());
        assert!(pool.get_bundle(ChainId(9), Height(1)).is_none());
    }
}
