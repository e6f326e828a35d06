//! Arc-shared payloads with memoized wire sizes.
//!
//! The simulator models a bandwidth-honest multicast as sequential unicasts,
//! which means every recipient receives "its own copy" of the message. Real
//! implementations (and the simulator, after this module) do not deep-copy
//! the payload per recipient: the bulk content — bundles, microblocks,
//! proposal payloads — is built once, shared by reference, and its wire size
//! is computed once at construction. [`Shared`] is the reference-counted
//! immutable handle; [`SizedPayload`] additionally memoizes the wire size so
//! the engine can charge bandwidth without re-walking the payload on every
//! send, delivery, and trace event.
//!
//! Sharing is a *simulator* optimization: the charged bandwidth is unchanged
//! because the cached size equals the recomputed size (enforced by a debug
//! assertion on every [`SizedPayload::wire_size`] call). Logically distinct
//! payloads — e.g. the two halves of a Byzantine equivocation — are distinct
//! allocations; nothing ever aliases two different values.
//!
//! The same allocation carries what has been computed about it: identity
//! digests and verification verdicts are derived once and served to every
//! clone, and a bundle that comes out of [`SizedBundle::build`] — the
//! producer's path — brings along the body fold and header digest `build`
//! computed, so a body is hashed by the producer that packs it and never
//! again. A memo only ever describes its own allocation's bytes: the cell is
//! private, nothing public accepts a digest, a fold or a verdict from a
//! caller, and a copy of a payload is a new allocation with an empty memo.
//!
//! [`payload_stats`] counts materializations so benchmark artifacts can prove
//! the clone count per produced bundle is O(1), independent of fan-out — and,
//! for tests only, body folds and Predis-block digests, which pin the
//! hashing work per bundle and per proposal as exact counts.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use predis_crypto::{Hash, Keypair, MerkleRoot};

use crate::block::ProposalPayload;
use crate::bundle::{body_fold, Bundle};
use crate::ids::{ChainId, Height};
use crate::tip_list::TipList;
use crate::tx::Transaction;
use crate::wire::WireSize;

/// An immutable, cheaply clonable, reference-counted value.
///
/// `Clone` bumps a reference count instead of deep-copying; equality is by
/// value (two independently built equal payloads compare equal).
pub struct Shared<T: ?Sized>(Arc<T>);

impl<T> Shared<T> {
    /// Wraps a value; this is the only point that allocates.
    pub fn new(value: T) -> Shared<T> {
        Shared(Arc::new(value))
    }

    /// True if both handles point at the same allocation (not just equal
    /// values) — the zero-copy property tests assert with this.
    pub fn ptr_eq(a: &Shared<T>, b: &Shared<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: ?Sized> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: PartialEq + ?Sized> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq + ?Sized> Eq for Shared<T> {}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Shared<T> {
        Shared::new(value)
    }
}

impl<T: WireSize + ?Sized> WireSize for Shared<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

/// Facts about a shared payload, each derived once from the allocation it
/// sits next to (and shares a lifetime with).
///
/// The cell is reference-counted separately from the value so that every
/// `Clone` of the owning [`SizedPayload`] — i.e. every simulated recipient
/// of a multicast — reads and writes the *same* memo. The payload behind a
/// [`SizedPayload`] is immutable (there is no mutable access), so a
/// memoized digest, fold or verification verdict can never go stale.
///
/// Every cell is filled by this module computing over `value` itself, with
/// one exception that computes over the same bytes a moment earlier:
/// [`SizedPayload::<Bundle>::build`]. Nothing public takes a digest, a fold
/// or a verdict from a caller, so a memo cannot describe any bytes but its
/// own allocation's.
#[derive(Default)]
struct PayloadMemo {
    digest: OnceLock<Hash>,
    verified: OnceLock<bool>,
    /// Bundles only: the Merkle fold of the transaction body.
    body: OnceLock<MerkleRoot>,
}

/// A [`Shared`] payload whose wire size was computed once at construction.
///
/// Cloning bumps a reference count; [`WireSize::wire_size`] returns the
/// memoized size (with a debug assertion that it still matches the
/// recomputed one, so the cache can never silently drift).
///
/// Beyond the wire size, the payload carries a memo cell shared by
/// all clones: identity digests and verification verdicts are computed on
/// first use — or, for a bundle, by the `build` that created it — and then
/// served from the allocation. Like payload sharing itself this is a
/// *simulator* optimization — digesting or verifying a payload costs no
/// simulated time, so memoizing it changes no simulated observable; it only
/// removes redundant host CPU work when fifteen replicas each
/// "independently" hash the same bytes.
pub struct SizedPayload<T: WireSize> {
    value: Shared<T>,
    wire: usize,
    memo: Shared<PayloadMemo>,
}

impl<T: WireSize> SizedPayload<T> {
    /// Materializes a payload: wraps it in an `Arc`, walks its wire size
    /// once, and records the materialization in [`payload_stats`].
    pub fn new(value: T) -> SizedPayload<T> {
        SizedPayload::with_memo(value, PayloadMemo::default())
    }

    fn with_memo(value: T, memo: PayloadMemo) -> SizedPayload<T> {
        let wire = value.wire_size();
        payload_stats::record_materialize(wire);
        SizedPayload {
            value: Shared::new(value),
            wire,
            memo: Shared::new(memo),
        }
    }

    /// The payload's identity digest, computed by `compute` on first call
    /// and memoized in the shared allocation afterwards.
    fn memo_digest(&self, compute: impl FnOnce(&T) -> Hash) -> Hash {
        *self.memo.digest.get_or_init(|| compute(&self.value))
    }

    /// The shared handle (for stores that keep the same allocation the
    /// network delivered).
    pub fn shared(&self) -> &Shared<T> {
        &self.value
    }

    /// True if both handles share one allocation.
    pub fn ptr_eq(a: &SizedPayload<T>, b: &SizedPayload<T>) -> bool {
        Shared::ptr_eq(&a.value, &b.value)
    }
}

impl<T: WireSize> Clone for SizedPayload<T> {
    fn clone(&self) -> Self {
        SizedPayload {
            value: self.value.clone(),
            wire: self.wire,
            memo: self.memo.clone(),
        }
    }
}

impl<T: WireSize> Deref for SizedPayload<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: WireSize + fmt::Debug> fmt::Debug for SizedPayload<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: WireSize + PartialEq> PartialEq for SizedPayload<T> {
    fn eq(&self, other: &Self) -> bool {
        self.wire == other.wire && *self.value == *other.value
    }
}

impl<T: WireSize + Eq> Eq for SizedPayload<T> {}

impl<T: WireSize> WireSize for SizedPayload<T> {
    fn wire_size(&self) -> usize {
        debug_assert_eq!(
            self.wire,
            self.value.wire_size(),
            "memoized wire size drifted from the recomputed one"
        );
        self.wire
    }
}

impl<T: WireSize> From<T> for SizedPayload<T> {
    fn from(value: T) -> SizedPayload<T> {
        SizedPayload::new(value)
    }
}

/// The workhorse alias: a bundle shared between the network, the mempool,
/// and the dissemination layer without copies.
pub type SizedBundle = SizedPayload<Bundle>;

// Inherent methods take precedence over `Deref`, so existing call sites on
// the shared wrappers pick up the memoized forms without being touched.
// Calls on a bare `Bundle`/`ProposalPayload` still recompute — hand-built
// (possibly tampered) values in tests keep their semantics.
impl SizedPayload<Bundle> {
    /// [`Bundle::build`] straight into the shared handle, which keeps what
    /// `build` derived on the way: the body's Merkle fold and the header
    /// digest it signed. A body is hashed by the producer that packs it and
    /// never again — [`SizedPayload::<Bundle>::verify`] compares against
    /// this fold instead of re-deriving it from the same immutable bytes.
    ///
    /// This is the only way a fact enters a memo without being computed
    /// from behind the handle: the arguments are the bundle's ingredients,
    /// never a fold or a verdict. Any other allocation — `from(bundle)` of
    /// a received, deserialized, forged or hand-edited value — starts with
    /// an empty memo and meets the real fold.
    ///
    /// # Panics
    ///
    /// As [`Bundle::build`]: `key` must belong to the node owning `chain`.
    pub fn build(
        chain: ChainId,
        height: Height,
        parent: Hash,
        tips: TipList,
        txs: Vec<Transaction>,
        stripe_root: Hash,
        key: &Keypair,
    ) -> SizedBundle {
        let (bundle, body, digest) =
            Bundle::build_with_facts(chain, height, parent, tips, txs, stripe_root, key);
        let memo = PayloadMemo {
            digest: digest.into(),
            body: body.into(),
            verified: OnceLock::new(),
        };
        SizedPayload::with_memo(bundle, memo)
    }

    /// [`Bundle::hash`], computed once per allocation.
    pub fn hash(&self) -> Hash {
        self.memo_digest(Bundle::hash)
    }

    /// [`Bundle::verify`], decided once per allocation: the producer's
    /// signature is checked over the memoized header digest, and
    /// `header.tx_root` is compared with the fold of *this allocation's*
    /// body (equal-sibling flag included). An allocation that came out of
    /// [`SizedPayload::<Bundle>::build`] carries that fold; for any other
    /// the first caller computes it here. The `n - 1` simulated recipients
    /// of a multicast share the allocation, so they share the verdict.
    pub fn verify(&self) -> bool {
        *self.memo.verified.get_or_init(|| {
            self.header.signed_over(self.hash())
                && self.body_matches(*self.memo.body.get_or_init(|| body_fold(&self.txs)))
        })
    }
}

impl SizedPayload<ProposalPayload> {
    /// [`ProposalPayload::digest`], computed once per allocation instead of
    /// once per replica receiving the proposal.
    pub fn digest(&self) -> Hash {
        self.memo_digest(ProposalPayload::digest)
    }
}

/// Thread-local materialization and hashing-work counters.
///
/// Each simulation run executes on one thread (grid points fan out across a
/// pool, but a single run never migrates), so thread-local cells give exact,
/// deterministic per-run counts with zero synchronization. Harnesses call
/// [`payload_stats::reset`] at run start and [`payload_stats::snapshot`] at
/// report time; worker threads are reused between runs, so skipping the
/// reset would bleed one run's counts into the next.
pub mod payload_stats {
    use std::cell::Cell;

    thread_local! {
        static CLONES: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
        static COMPUTED: Cell<u64> = const { Cell::new(0) };
        static BODY_FOLDS: Cell<u64> = const { Cell::new(0) };
        static BLOCK_DIGESTS: Cell<u64> = const { Cell::new(0) };
    }

    /// A snapshot of the counters since the last [`reset`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct PayloadStats {
        /// Payload materializations (`msg.payload_clones`): each is one
        /// deep construction of a shared payload. Fan-out adds zero.
        pub payload_clones: u64,
        /// Wire bytes materialized (`msg.bytes_cloned`): the bytes that
        /// would have been deep-copied per recipient without sharing.
        pub bytes_cloned: u64,
        /// Full O(payload) wire-size walks (`wire_size.computed`); cached
        /// reads do not count.
        pub wire_size_computed: u64,
        /// Merkle folds over a bundle body ([`crate::Bundle::build`], a
        /// bare [`crate::Bundle::verify`], a shared bundle not built here).
        /// No report carries it: tests pin the work shape with it — one
        /// fold per honestly produced bundle, whatever the fan-out.
        pub body_folds: u64,
        /// [`crate::PredisBlock::digest`] calls; like `body_folds`, a count
        /// for tests, not a report metric.
        pub block_digests: u64,
    }

    /// Records one payload materialization of `bytes` wire bytes.
    pub fn record_materialize(bytes: usize) {
        CLONES.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
        COMPUTED.with(|c| c.set(c.get() + 1));
    }

    /// Records one Merkle fold over a bundle body.
    pub(crate) fn record_body_fold() {
        BODY_FOLDS.with(|c| c.set(c.get() + 1));
    }

    /// Records one `PredisBlock` digest.
    pub(crate) fn record_block_digest() {
        BLOCK_DIGESTS.with(|c| c.set(c.get() + 1));
    }

    /// Reads the counters accumulated on this thread since the last reset.
    pub fn snapshot() -> PayloadStats {
        PayloadStats {
            payload_clones: CLONES.with(Cell::get),
            bytes_cloned: BYTES.with(Cell::get),
            wire_size_computed: COMPUTED.with(Cell::get),
            body_folds: BODY_FOLDS.with(Cell::get),
            block_digests: BLOCK_DIGESTS.with(Cell::get),
        }
    }

    /// Zeroes the counters (call at the start of every run).
    pub fn reset() {
        CLONES.with(|c| c.set(0));
        BYTES.with(|c| c.set(0));
        COMPUTED.with(|c| c.set(0));
        BODY_FOLDS.with(|c| c.set(0));
        BLOCK_DIGESTS.with(|c| c.set(0));
    }

    /// Adds a snapshot taken on another thread into this thread's counters.
    /// The parallel simulation engine harvests each partition worker's
    /// counts at session teardown and folds them into the driving thread,
    /// so per-run totals stay exact regardless of thread count.
    pub fn add(stats: PayloadStats) {
        CLONES.with(|c| c.set(c.get() + stats.payload_clones));
        BYTES.with(|c| c.set(c.get() + stats.bytes_cloned));
        COMPUTED.with(|c| c.set(c.get() + stats.wire_size_computed));
        BODY_FOLDS.with(|c| c.set(c.get() + stats.body_folds));
        BLOCK_DIGESTS.with(|c| c.set(c.get() + stats.block_digests));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};
    use predis_crypto::SignerId;

    fn txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
            .collect()
    }

    fn bundle(height: u64) -> Bundle {
        Bundle::build(
            ChainId(0),
            Height(height),
            Hash::ZERO,
            TipList::new(4),
            txs(5),
            Hash::ZERO,
            &Keypair::for_node(SignerId(0)),
        )
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = SizedBundle::new(bundle(1));
        let b = a.clone();
        assert!(SizedBundle::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.wire_size(), b.wire_size());
    }

    #[test]
    fn cached_size_matches_recomputed() {
        let b = bundle(2);
        let expect = b.wire_size();
        let shared = SizedBundle::new(b);
        assert_eq!(shared.wire_size(), expect);
        assert_eq!(shared.shared().wire_size(), expect);
    }

    #[test]
    fn equal_values_in_distinct_allocations_compare_equal_not_aliased() {
        let a = SizedBundle::new(bundle(3));
        let b = SizedBundle::new(bundle(3));
        assert_eq!(a, b);
        assert!(!SizedBundle::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_count_materializations_not_clones() {
        payload_stats::reset();
        let a = SizedBundle::new(bundle(4));
        let wire = a.wire_size();
        // A thousand recipients: still one materialization.
        let fanout: Vec<SizedBundle> = (0..1000).map(|_| a.clone()).collect();
        assert!(fanout.iter().all(|c| SizedBundle::ptr_eq(&a, c)));
        let s = payload_stats::snapshot();
        assert_eq!(s.payload_clones, 1);
        assert_eq!(s.bytes_cloned, wire as u64);
        assert_eq!(s.wire_size_computed, 1);
        payload_stats::reset();
        assert_eq!(payload_stats::snapshot(), Default::default());
    }

    fn build_shared(txs: Vec<Transaction>) -> SizedBundle {
        SizedBundle::build(
            ChainId(0),
            Height(1),
            Hash::ZERO,
            TipList::new(4),
            txs,
            Hash::ZERO,
            &Keypair::for_node(SignerId(0)),
        )
    }

    #[test]
    fn a_built_bundle_is_folded_once_whoever_verifies_it() {
        payload_stats::reset();
        let built = build_shared(txs(50));
        assert_eq!(payload_stats::snapshot().body_folds, 1);
        // The producer and seven receivers: the fold `build` made serves all.
        for _ in 0..8 {
            assert!(built.clone().verify());
        }
        assert_eq!(built.hash(), Bundle::hash(&built));
        assert_eq!(payload_stats::snapshot().body_folds, 1);
        // Another allocation of the same value shares nothing: it is folded
        // by its first verifier, once.
        let copy = SizedBundle::from((*built).clone());
        assert_eq!(payload_stats::snapshot().body_folds, 1);
        assert!(copy.verify() && copy.clone().verify());
        assert_eq!(payload_stats::snapshot().body_folds, 2);
        // A bare bundle keeps no memo at all.
        assert!(Bundle::verify(&built) && Bundle::verify(&built));
        assert_eq!(payload_stats::snapshot().body_folds, 4);
    }

    #[test]
    fn equal_sibling_bodies_are_rejected_through_the_shared_wrapper() {
        // Forged after the fact: same root as the signed body, longer list.
        let good = build_shared(txs(3));
        let mut forged = (*good).clone();
        forged.txs.push(good.txs[2]);
        assert!(good.verify());
        assert!(!forged.verify());
        assert!(!SizedBundle::from(forged).verify());
        // Packed that way by the producer itself: the fold that travels
        // from `build` carries the flag, not just the root.
        let mut body = txs(3);
        body.push(body[2]);
        let built = build_shared(body);
        assert!(!Bundle::verify(&built));
        assert!(!built.verify());
    }

    #[test]
    fn a_tampered_copy_does_not_inherit_the_memo() {
        let built = build_shared(txs(10));
        assert!(built.verify());
        let mut tampered = (*built).clone();
        tampered.txs[4] = Transaction::new(TxId(999), ClientId(9), 0);
        let tampered = SizedBundle::from(tampered);
        assert!(!tampered.verify());
        assert_eq!(tampered.hash(), built.hash(), "the header is untouched");
        assert!(built.verify());
    }
}
