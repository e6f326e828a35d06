//! Merkle trees with inclusion proofs.
//!
//! Used in two places by the framework, mirroring the paper's Fig. 1 bundle
//! header: the **transaction root** over a bundle's transactions, and the
//! **stripe root** over the erasure-coded stripes of a bundle (so a relayer
//! can check a stripe against the signed header before forwarding it).

use serde::{Deserialize, Serialize};

use crate::hash::Hash;

/// A binary Merkle tree over a list of leaf digests.
///
/// Odd layers duplicate their last element (Bitcoin-style), so the tree is
/// defined for any non-zero leaf count. An empty leaf set has the
/// distinguished root [`Hash::ZERO`].
///
/// # Examples
///
/// ```
/// use predis_crypto::{Hash, MerkleTree};
///
/// let leaves: Vec<Hash> = (0..5u8).map(|i| Hash::digest(&[i])).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// let proof = tree.proof(3).unwrap();
/// assert!(proof.verify(tree.root(), leaves[3]));
/// assert!(!proof.verify(tree.root(), leaves[4]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `layers[0]` is the leaves; the last layer has length 1 (the root).
    layers: Vec<Vec<Hash>>,
}

/// An inclusion proof for one leaf of a [`MerkleTree`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling digests from leaf level to just below the root.
    pub siblings: Vec<Hash>,
}

/// What [`merkle_root`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerkleRoot {
    /// The root digest ([`Hash::ZERO`] for no leaves).
    pub root: Hash,
    /// True if some layer combined two *equal* siblings that were both
    /// present (not the odd-layer duplicate). With Bitcoin-style
    /// duplication `[a, b, c]` and `[a, b, c, c]` share a root
    /// (CVE-2012-2459), so a verifier of a list whose entries must be
    /// distinct rejects on this flag; a list that may legitimately repeat
    /// an entry ignores it.
    pub mutated: bool,
}

/// The root of the [`MerkleTree`] over `leaves`, folded in place: each
/// layer overwrites the front of the slice, so nothing is allocated. Same
/// odd-layer duplication, hence byte-identical to
/// `MerkleTree::from_leaves(leaves.to_vec()).root()`. The slice is scratch
/// afterwards.
///
/// # Examples
///
/// ```
/// use predis_crypto::{merkle_root, Hash, MerkleTree};
///
/// let leaves: Vec<Hash> = (0..5u8).map(|i| Hash::digest(&[i])).collect();
/// let folded = merkle_root(&mut leaves.clone());
/// assert_eq!(folded.root, MerkleTree::from_leaves(leaves).root());
/// assert!(!folded.mutated);
/// ```
pub fn merkle_root(leaves: &mut [Hash]) -> MerkleRoot {
    let mut mutated = false;
    let mut len = leaves.len();
    while len > 1 {
        let parents = len.div_ceil(2);
        for i in 0..parents {
            let left = leaves[2 * i];
            let right = match leaves[..len].get(2 * i + 1) {
                Some(&right) => {
                    mutated |= right == left;
                    right
                }
                None => left,
            };
            leaves[i] = Hash::combine(left, right);
        }
        len = parents;
    }
    MerkleRoot {
        root: leaves.first().copied().unwrap_or(Hash::ZERO),
        mutated,
    }
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    pub fn from_leaves(leaves: Vec<Hash>) -> MerkleTree {
        if leaves.is_empty() {
            return MerkleTree {
                layers: vec![vec![]],
            };
        }
        let mut layers = vec![leaves];
        while layers.last().expect("non-empty").len() > 1 {
            let prev = layers.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = pair[0];
                let right = if pair.len() == 2 { pair[1] } else { pair[0] };
                next.push(Hash::combine(left, right));
            }
            layers.push(next);
        }
        MerkleTree { layers }
    }

    /// The root digest ([`Hash::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash {
        self.layers
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash::ZERO)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.layers[0].len()
    }

    /// The inclusion proof for leaf `index`, or `None` if out of range.
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for layer in &self.layers[..self.layers.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = if sibling_idx < layer.len() {
                layer[sibling_idx]
            } else {
                layer[idx] // odd layer: duplicated last element
            };
            siblings.push(sibling);
            idx /= 2;
        }
        Some(MerkleProof { index, siblings })
    }

    /// Convenience: the root over raw leaf data (each item hashed first).
    pub fn root_of<I, B>(items: I) -> Hash
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut leaves: Vec<Hash> = items
            .into_iter()
            .map(|b| Hash::digest(b.as_ref()))
            .collect();
        merkle_root(&mut leaves).root
    }
}

impl MerkleProof {
    /// Checks that `leaf` is at `self.index` under `root`. An index with
    /// bits above the proof's depth names no leaf of that tree and fails.
    pub fn verify(&self, root: Hash, leaf: Hash) -> bool {
        let depth = self.siblings.len();
        if depth < usize::BITS as usize && self.index >> depth != 0 {
            return false;
        }
        let mut acc = leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            acc = if idx.is_multiple_of(2) {
                Hash::combine(acc, *sibling)
            } else {
                Hash::combine(*sibling, acc)
            };
            idx /= 2;
        }
        acc == root
    }

    /// The serialized size of the proof in bytes (for wire-size modelling).
    pub fn wire_size(&self) -> usize {
        8 + self.siblings.len() * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Hash> {
        (0..n)
            .map(|i| Hash::digest(&(i as u64).to_be_bytes()))
            .collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let t = MerkleTree::from_leaves(vec![]);
        assert_eq!(t.root(), Hash::ZERO);
        assert_eq!(t.leaf_count(), 0);
        assert!(t.proof(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let t = MerkleTree::from_leaves(l.clone());
        assert_eq!(t.root(), l[0]);
        let p = t.proof(0).unwrap();
        assert!(p.siblings.is_empty());
        assert!(p.verify(t.root(), l[0]));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in 1..=17 {
            let l = leaves(n);
            let t = MerkleTree::from_leaves(l.clone());
            for (i, &leaf) in l.iter().enumerate() {
                let p = t.proof(i).unwrap();
                assert!(p.verify(t.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_or_index_fails() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let p = t.proof(2).unwrap();
        assert!(!p.verify(t.root(), l[3]));
        let mut wrong_index = p.clone();
        wrong_index.index = 3;
        assert!(!wrong_index.verify(t.root(), l[2]));
        // Index bits above the proof depth used to be ignored: 10 and 18
        // walk the same left/right path as 2 in an 8-leaf tree.
        for aliased in [2 + 8, 2 + 16, 2 + (1 << 40)] {
            let mut alias = p.clone();
            alias.index = aliased;
            assert!(!alias.verify(t.root(), l[2]), "index {aliased}");
        }
    }

    #[test]
    fn tampered_sibling_fails() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let mut p = t.proof(5).unwrap();
        p.siblings[1] = Hash::digest(b"evil");
        assert!(!p.verify(t.root(), l[5]));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(6);
        let base = MerkleTree::from_leaves(l.clone()).root();
        for i in 0..6 {
            let mut altered = l.clone();
            altered[i] = Hash::digest(b"altered");
            assert_ne!(MerkleTree::from_leaves(altered).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn root_of_hashes_items() {
        let r = MerkleTree::root_of([b"a".as_slice(), b"b".as_slice()]);
        let expected = Hash::combine(Hash::digest(b"a"), Hash::digest(b"b"));
        assert_eq!(r, expected);
    }

    #[test]
    fn in_place_root_flags_equal_present_siblings_only() {
        let l = leaves(3);
        let honest = merkle_root(&mut l.clone());
        // The odd-layer duplicate of a lone last leaf is not a mutation...
        assert!(!honest.mutated);
        // ...but the same leaf present twice is, and shares the root.
        let mut dup = vec![l[0], l[1], l[2], l[2]];
        let forged = merkle_root(&mut dup);
        assert_eq!(forged.root, honest.root);
        assert!(forged.mutated);
        // Equal siblings in an interior layer count too.
        let mut interior = vec![l[0], l[1], l[0], l[1]];
        assert!(merkle_root(&mut interior).mutated);
        // Equal leaves that are not siblings are not flagged.
        let mut apart = vec![l[0], l[1], l[1], l[0]];
        assert!(!merkle_root(&mut apart).mutated);
        assert_eq!(merkle_root(&mut []).root, Hash::ZERO);
    }

    #[test]
    fn proof_wire_size() {
        let t = MerkleTree::from_leaves(leaves(8));
        let p = t.proof(0).unwrap();
        assert_eq!(p.wire_size(), 8 + 3 * 32);
    }
}
