//! Bundles: the unit of Predis's pre-distribution.
//!
//! Every consensus node continuously packs client transactions into bundles
//! and multicasts them (§III-A). A bundle is structured like a miniature
//! block: its header carries the parent hash (forming one chain per
//! producer), the producer's tip list, the transaction Merkle root, the
//! stripe Merkle root (for Multi-Zone erasure dissemination), and the
//! producer's signature.

use predis_crypto::{merkle_root, Hash, Keypair, MerkleRoot, Sha256, Signature, SignerId};
use serde::{Deserialize, Serialize};

use crate::ids::{ChainId, Height};
use crate::shared::payload_stats;
use crate::tip_list::TipList;
use crate::tx::{tx_leaves, Transaction};
use crate::wire::{WireSize, FRAME_OVERHEAD, HASH_WIRE, SIG_WIRE, U32_WIRE, U64_WIRE};

/// The signed header of a bundle (the green part of the paper's Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BundleHeader {
    /// Which chain (= producing consensus node) this bundle extends.
    pub chain: ChainId,
    /// Position within the chain (first bundle is height 1).
    pub height: Height,
    /// Hash of the parent bundle's header ([`Hash::ZERO`] at height 1).
    pub parent: Hash,
    /// The producer's latest-received heights, per chain.
    pub tips: TipList,
    /// Merkle root over the bundle's transactions.
    pub tx_root: Hash,
    /// Merkle root over the bundle's erasure-coded stripes (Multi-Zone).
    pub stripe_root: Hash,
    /// Producer's signature over the header digest.
    pub signature: Signature,
}

impl BundleHeader {
    /// The digest the producer signs (everything except the signature).
    ///
    /// Streams the fields straight into the hasher — same digest as
    /// concatenating them, without building intermediate buffers (this runs
    /// once per append on every replica's hot path).
    pub fn digest(&self) -> Hash {
        let mut h = Sha256::new();
        h.update(b"bundle-header");
        h.update(&self.chain.0.to_be_bytes());
        h.update(&self.height.0.to_be_bytes());
        h.update(self.parent.as_bytes());
        h.update(self.tx_root.as_bytes());
        h.update(self.stripe_root.as_bytes());
        for height in self.tips.heights() {
            h.update(&height.0.to_be_bytes());
        }
        Hash(h.finalize())
    }

    /// The header's identity hash (same as [`BundleHeader::digest`]).
    pub fn hash(&self) -> Hash {
        self.digest()
    }

    /// Verifies that the producer (the node owning `self.chain`) signed
    /// this header.
    pub fn verify_signature(&self) -> bool {
        self.signed_over(self.digest())
    }

    /// The signature check against `digest`, which must be this header's
    /// [`BundleHeader::digest`] (the shared wrapper keeps one per
    /// allocation).
    pub(crate) fn signed_over(&self, digest: Hash) -> bool {
        self.signature.verify_by(SignerId(self.chain.0), digest)
    }
}

impl WireSize for BundleHeader {
    fn wire_size(&self) -> usize {
        U32_WIRE + U64_WIRE + HASH_WIRE * 3 + self.tips.wire_size() + SIG_WIRE + FRAME_OVERHEAD
    }
}

/// A full bundle: signed header plus transaction body.
///
/// # Examples
///
/// ```
/// use predis_crypto::Keypair;
/// use predis_crypto::{Hash, SignerId};
/// use predis_types::{Bundle, ChainId, ClientId, Height, TipList, Transaction, TxId};
///
/// let key = Keypair::for_node(SignerId(0));
/// let txs: Vec<Transaction> =
///     (0..50).map(|i| Transaction::new(TxId(i), ClientId(0), 0)).collect();
/// let bundle = Bundle::build(
///     ChainId(0), Height(1), Hash::ZERO, TipList::new(4), txs, Hash::ZERO, &key,
/// );
/// assert!(bundle.verify());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bundle {
    /// The signed header.
    pub header: BundleHeader,
    /// The transactions (the gray body in the paper's Fig. 1).
    pub txs: Vec<Transaction>,
}

impl Bundle {
    /// Builds and signs a bundle. Computes the transaction root from `txs`;
    /// `stripe_root` is supplied by the caller (the dissemination layer
    /// computes it after erasure-encoding the body; pass [`Hash::ZERO`]
    /// when Multi-Zone is not in use).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not belong to the node owning `chain` (a bundle
    /// must be signed by its producer).
    pub fn build(
        chain: ChainId,
        height: Height,
        parent: Hash,
        tips: TipList,
        txs: Vec<Transaction>,
        stripe_root: Hash,
        key: &Keypair,
    ) -> Bundle {
        Bundle::build_with_facts(chain, height, parent, tips, txs, stripe_root, key).0
    }

    /// [`Bundle::build`], handing back what it derived on the way: the
    /// Merkle fold of the body and the header digest it signed (the
    /// bundle's identity). Only [`crate::SizedBundle::build`] keeps the two,
    /// and only by moving the bundle behind its immutable handle in the same
    /// breath: a bare `Bundle` has public fields, so facts about one go
    /// stale at the first assignment.
    pub(crate) fn build_with_facts(
        chain: ChainId,
        height: Height,
        parent: Hash,
        tips: TipList,
        txs: Vec<Transaction>,
        stripe_root: Hash,
        key: &Keypair,
    ) -> (Bundle, MerkleRoot, Hash) {
        assert_eq!(
            key.id(),
            SignerId(chain.0),
            "bundle must be signed by its producing chain's key"
        );
        let body = body_fold(&txs);
        let mut header = BundleHeader {
            chain,
            height,
            parent,
            tips,
            tx_root: body.root,
            stripe_root,
            signature: Signature::default(),
        };
        let digest = header.digest();
        header.signature = key.sign(digest);
        (Bundle { header, txs }, body, digest)
    }

    /// Checks the producer signature and that the body matches the header's
    /// transaction root (§III-A validity checks 2 and signature).
    ///
    /// A body whose Merkle fold combines two equal siblings is rejected
    /// even when the root matches: odd layers duplicate their last node, so
    /// `[.., t]` and `[.., t, t]` share a root, and transaction ids are
    /// unique — such a body is never what the producer signed.
    pub fn verify(&self) -> bool {
        self.header.verify_signature() && self.body_matches(body_fold(&self.txs))
    }

    /// The body half of [`Bundle::verify`], given `body`: the fold of
    /// *these* transactions.
    pub(crate) fn body_matches(&self, body: MerkleRoot) -> bool {
        !body.mutated && body.root == self.header.tx_root
    }

    /// Total bytes of transaction payloads.
    pub fn body_size(&self) -> usize {
        self.txs.iter().map(WireSize::wire_size).sum()
    }

    /// The header hash, i.e. this bundle's identity.
    pub fn hash(&self) -> Hash {
        self.header.hash()
    }
}

impl WireSize for Bundle {
    fn wire_size(&self) -> usize {
        self.header.wire_size() + self.body_size()
    }
}

/// The Merkle fold of a bundle body: the one place a body is hashed, hence
/// the one place [`payload_stats`] counts it.
pub(crate) fn body_fold(txs: &[Transaction]) -> MerkleRoot {
    payload_stats::record_body_fold();
    merkle_root(&mut tx_leaves(txs))
}

/// Evidence that a producer equivocated: two validly signed headers for the
/// same chain and parent with different content (a "conflict bundle",
/// §III-A). Honest nodes multicast this proof and ban the producer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictProof {
    /// One of the conflicting headers.
    pub a: BundleHeader,
    /// The other conflicting header.
    pub b: BundleHeader,
}

impl ConflictProof {
    /// Checks the proof: both headers validly signed by the same producer,
    /// same height and parent, but different content.
    pub fn verify(&self) -> bool {
        self.a.chain == self.b.chain
            && self.a.height == self.b.height
            && self.a.parent == self.b.parent
            && self.a.hash() != self.b.hash()
            && self.a.verify_signature()
            && self.b.verify_signature()
    }

    /// The equivocating producer.
    pub fn offender(&self) -> ChainId {
        self.a.chain
    }
}

impl WireSize for ConflictProof {
    fn wire_size(&self) -> usize {
        self.a.wire_size() + self.b.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};

    fn key(chain: u32) -> Keypair {
        Keypair::for_node(SignerId(chain))
    }

    fn txs(n: u64, start: u64) -> Vec<Transaction> {
        (start..start + n)
            .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
            .collect()
    }

    fn bundle(chain: u32, height: u64, parent: Hash, start_tx: u64) -> Bundle {
        Bundle::build(
            ChainId(chain),
            Height(height),
            parent,
            TipList::new(4),
            txs(10, start_tx),
            Hash::ZERO,
            &key(chain),
        )
    }

    #[test]
    fn build_verify_roundtrip() {
        let b = bundle(0, 1, Hash::ZERO, 0);
        assert!(b.verify());
        assert!(b.header.verify_signature());
    }

    #[test]
    fn tampered_body_fails_verification() {
        let mut b = bundle(0, 1, Hash::ZERO, 0);
        b.txs[0] = Transaction::new(TxId(999), ClientId(9), 0);
        assert!(!b.verify());
    }

    #[test]
    fn corrupt_stripe_reconstructions_fail_verification() {
        // Erasure-decoding with a corrupted stripe yields a byte-level
        // different tx vector — reordered, truncated, or mutated — and any
        // such difference moves the Merkle root off `header.tx_root`.
        let good = bundle(0, 1, Hash::ZERO, 0);
        assert!(good.verify());
        let mut reordered = good.clone();
        reordered.txs.swap(0, 1);
        assert!(!reordered.verify());
        let mut truncated = good.clone();
        truncated.txs.pop();
        assert!(!truncated.verify());
    }

    #[test]
    fn duplicated_tail_body_fails_verification() {
        // Odd-layer duplication gives [t1,t2,t3] and [t1,t2,t3,t3] the same
        // root (CVE-2012-2459): without the equal-sibling check a relayer
        // could commit t3 twice under the producer's valid signature.
        let good = Bundle::build(
            ChainId(0),
            Height(1),
            Hash::ZERO,
            TipList::new(4),
            txs(3, 0),
            Hash::ZERO,
            &key(0),
        );
        assert!(good.verify());
        let mut forged = good.clone();
        forged.txs.push(good.txs[2]);
        assert_eq!(
            merkle_root(&mut tx_leaves(&forged.txs)).root,
            good.header.tx_root,
            "the attack shape: same root, longer body"
        );
        assert!(!forged.verify());
        // The same one layer up: [t1..t6] vs [t1..t6, t5, t6].
        let good6 = Bundle::build(
            ChainId(0),
            Height(1),
            Hash::ZERO,
            TipList::new(4),
            txs(6, 0),
            Hash::ZERO,
            &key(0),
        );
        let mut forged6 = good6.clone();
        forged6.txs.extend_from_slice(&good6.txs[4..]);
        assert!(good6.verify() && !forged6.verify());
    }

    #[test]
    fn tampered_header_fails_signature() {
        let mut b = bundle(0, 1, Hash::ZERO, 0);
        b.header.height = Height(2);
        assert!(!b.header.verify_signature());
    }

    #[test]
    #[should_panic(expected = "signed by its producing chain")]
    fn foreign_key_rejected() {
        let _ = Bundle::build(
            ChainId(0),
            Height(1),
            Hash::ZERO,
            TipList::new(4),
            txs(1, 0),
            Hash::ZERO,
            &key(1),
        );
    }

    #[test]
    fn header_hash_covers_every_field() {
        let base = bundle(0, 2, Hash::digest(b"p"), 0).header;
        let mut h1 = base.clone();
        h1.parent = Hash::digest(b"q");
        assert_ne!(base.hash(), h1.hash());
        let mut h2 = base.clone();
        h2.tx_root = Hash::digest(b"r");
        assert_ne!(base.hash(), h2.hash());
        let mut h3 = base.clone();
        h3.tips = TipList::from(vec![Height(1), Height(0), Height(0), Height(0)]);
        assert_ne!(base.hash(), h3.hash());
        let mut h4 = base.clone();
        h4.stripe_root = Hash::digest(b"s");
        assert_ne!(base.hash(), h4.hash());
    }

    #[test]
    fn conflict_proof_detects_equivocation() {
        let parent = Hash::digest(b"parent");
        let a = bundle(2, 5, parent, 0);
        let b = bundle(2, 5, parent, 100); // same slot, different txs
        let proof = ConflictProof {
            a: a.header.clone(),
            b: b.header.clone(),
        };
        assert!(proof.verify());
        assert_eq!(proof.offender(), ChainId(2));
    }

    #[test]
    fn conflict_proof_rejects_non_conflicts() {
        let parent = Hash::digest(b"parent");
        let a = bundle(2, 5, parent, 0);
        // Same header twice: not a conflict.
        let same = ConflictProof {
            a: a.header.clone(),
            b: a.header.clone(),
        };
        assert!(!same.verify());
        // Different parents: legitimate siblings on different forks are
        // impossible by construction, but the proof must still reject.
        let b = bundle(2, 5, Hash::digest(b"other"), 100);
        let diff_parent = ConflictProof {
            a: a.header.clone(),
            b: b.header.clone(),
        };
        assert!(!diff_parent.verify());
        // Different chains.
        let c = bundle(3, 5, parent, 100);
        let diff_chain = ConflictProof {
            a: a.header.clone(),
            b: c.header.clone(),
        };
        assert!(!diff_chain.verify());
        // Unsigned/tampered header.
        let mut tampered = bundle(2, 5, parent, 100).header;
        tampered.tx_root = Hash::digest(b"evil");
        let bad_sig = ConflictProof {
            a: a.header.clone(),
            b: tampered,
        };
        assert!(!bad_sig.verify());
    }

    #[test]
    fn wire_sizes_add_up() {
        let b = bundle(0, 1, Hash::ZERO, 0);
        // 10 txs x 512 B body.
        assert_eq!(b.body_size(), 5120);
        assert_eq!(b.wire_size(), b.header.wire_size() + 5120);
        // Header: 4 + 8 + 96 + 32 + 64 + 16 = 220 for a 4-chain tip list.
        assert_eq!(b.header.wire_size(), 220);
    }
}
