//! Property tests for Merkle trees and the hash/signature substrate.

use predis_crypto::{merkle_root, Hash, Keypair, MerkleTree, SignerId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every leaf of every tree size proves against the root, and proofs
    /// do not transfer to other leaves or other indices.
    #[test]
    fn proofs_verify_exactly_their_leaf(n in 1usize..64, probe in any::<u64>()) {
        let leaves: Vec<Hash> = (0..n as u64)
            .map(|i| Hash::digest(&i.to_be_bytes()))
            .collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let i = (probe as usize) % n;
        let proof = tree.proof(i).unwrap();
        prop_assert!(proof.verify(tree.root(), leaves[i]));
        // A different leaf under the same proof must fail.
        let other = (i + 1) % n;
        if other != i {
            prop_assert!(!proof.verify(tree.root(), leaves[other]));
        }
        // A foreign leaf value must fail.
        prop_assert!(!proof.verify(tree.root(), Hash::digest(b"foreign")));
        // An index that differs only above the proof's depth walks the same
        // path but names no leaf of this tree.
        let mut aliased = proof.clone();
        aliased.index = i + ((1 + (probe >> 32) as usize % 7) << proof.siblings.len());
        prop_assert!(!aliased.verify(tree.root(), leaves[i]));
    }

    /// The root is a commitment: any permutation or truncation of a
    /// non-uniform leaf list changes it.
    #[test]
    fn root_commits_to_order_and_content(n in 2usize..32, swap in any::<u64>()) {
        let leaves: Vec<Hash> = (0..n as u64)
            .map(|i| Hash::digest(&i.to_be_bytes()))
            .collect();
        let root = MerkleTree::from_leaves(leaves.clone()).root();
        let i = (swap as usize) % n;
        let j = (i + 1) % n;
        let mut swapped = leaves.clone();
        swapped.swap(i, j);
        prop_assert_ne!(MerkleTree::from_leaves(swapped).root(), root);
        let truncated = leaves[..n - 1].to_vec();
        prop_assert_ne!(MerkleTree::from_leaves(truncated).root(), root);
    }

    /// An interior node is the digest of the concatenation — the fixed
    /// 64-byte shape and the general path agree.
    #[test]
    fn combine_is_digest_of_concatenation(l in any::<[u8; 32]>(), r in any::<[u8; 32]>()) {
        let mut both = [0u8; 64];
        both[..32].copy_from_slice(&l);
        both[32..].copy_from_slice(&r);
        prop_assert_eq!(Hash::combine(Hash(l), Hash(r)), Hash::digest(&both));
        prop_assert_eq!(Hash::combine(Hash(l), Hash(r)), Hash::digest_parts(&[&l, &r]));
    }

    /// Signatures bind signer and message.
    #[test]
    fn signature_binding(signer in 0u32..64, other in 0u32..64, msg in any::<[u8; 16]>()) {
        let key = Keypair::for_node(SignerId(signer));
        let m = Hash::digest(&msg);
        let sig = key.sign(m);
        prop_assert!(sig.verify(m));
        prop_assert!(sig.verify_by(SignerId(signer), m));
        if other != signer {
            prop_assert!(!sig.verify_by(SignerId(other), m));
        }
        prop_assert!(!sig.verify(Hash::digest(b"other message")));
    }

    /// Incremental hashing equals one-shot for arbitrary split points.
    #[test]
    fn sha256_incremental(data in proptest::collection::vec(any::<u8>(), 0..2048), cut in any::<u16>()) {
        use predis_crypto::Sha256;
        let split = if data.is_empty() { 0 } else { cut as usize % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(Hash(h.finalize()), Hash::digest(&data));
    }
}

/// The in-place fold is the tree's root for every shape of odd and even
/// layers up to one past a power of two, and leaves nothing flagged when
/// the leaves are distinct.
#[test]
fn in_place_root_equals_tree_root() {
    let leaves: Vec<Hash> = (0..257u64)
        .map(|i| Hash::digest(&i.to_be_bytes()))
        .collect();
    for n in 0..=leaves.len() {
        let folded = merkle_root(&mut leaves[..n].to_vec());
        let tree = MerkleTree::from_leaves(leaves[..n].to_vec());
        assert_eq!(folded.root, tree.root(), "n={n}");
        assert!(!folded.mutated, "n={n}");
    }
}
