//! Predis blocks and consensus proposal payloads.
//!
//! A *Predis block* (§III-B) is the proposal an honest leader multicasts: it
//! carries **no transactions**, only per-chain cut heights and the last
//! bundle header of each cut slice. Because bundle headers chain by parent
//! hash, the header at the cut height pins the content of the entire slice
//! (Theorem 3.2), so every voter reconstructs an identical candidate block
//! from its own mempool (Theorem 3.3). Its wire size is `O(n_c)` and does
//! not grow with the transaction volume — the property Fig. 5 measures
//! against Narwhal's and Stratus's digest-list proposals.

use predis_crypto::{Hash, Keypair, Sha256, Signature, SignerId};
use serde::{Deserialize, Serialize};

use crate::ids::{ChainId, Height, View};
use crate::shared::payload_stats;
use crate::tx::Transaction;
use crate::wire::{WireSize, FRAME_OVERHEAD, HASH_WIRE, SIG_WIRE, U64_WIRE};

/// The constant-size proposal of Predis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredisBlock {
    /// Hash of the parent (previous committed) block.
    pub parent: Hash,
    /// The view/round this block was proposed in.
    pub view: View,
    /// Per chain: the last height already committed (exclusive slice start).
    pub base: Vec<Height>,
    /// Per chain: the cut height (inclusive slice end); `cut[i] >= base[i]`,
    /// equality meaning "no new bundles from that chain this round".
    pub cut: Vec<Height>,
    /// Per chain: the *hash* of the bundle header at `cut[i]`, present iff
    /// `cut[i] > base[i]`. Carrying hashes instead of full headers is what
    /// keeps the block ~32 bytes per chain (the paper's ≤2.5 KB at
    /// `n_c = 80`); voters look the header up in their own mempool.
    pub headers: Vec<Option<Hash>>,
    /// Merkle root over all transactions in the block, in chain order.
    pub tx_root: Hash,
    /// The proposing leader's signature.
    pub signature: Signature,
}

impl PredisBlock {
    /// The digest the leader signs (everything except the signature).
    /// Streams fields into the hasher without intermediate buffers.
    pub fn digest(&self) -> Hash {
        payload_stats::record_block_digest();
        let mut h = Sha256::new();
        h.update(b"predis-block");
        h.update(self.parent.as_bytes());
        h.update(&self.view.0.to_be_bytes());
        h.update(self.tx_root.as_bytes());
        for (i, (b, c)) in self.base.iter().zip(&self.cut).enumerate() {
            h.update(&b.0.to_be_bytes());
            h.update(&c.0.to_be_bytes());
            match &self.headers[i] {
                Some(hd) => h.update(hd.as_bytes()),
                None => h.update(&[0u8]),
            }
        }
        Hash(h.finalize())
    }

    /// The block's identity hash.
    pub fn hash(&self) -> Hash {
        self.digest()
    }

    /// Signs the block in place with the leader's key, returning the
    /// digest it signed (the block's identity from here on).
    pub fn sign(&mut self, key: &Keypair) -> Hash {
        let digest = self.digest();
        self.signature = key.sign(digest);
        digest
    }

    /// Verifies the leader signature.
    pub fn verify_signature(&self, leader: SignerId) -> bool {
        self.signature.verify_by(leader, self.digest())
    }

    /// Number of chains the block cuts across.
    pub fn chain_count(&self) -> usize {
        self.cut.len()
    }

    /// Number of bundles the block confirms (sum of slice lengths).
    pub fn bundle_count(&self) -> u64 {
        self.base
            .iter()
            .zip(&self.cut)
            .map(|(b, c)| c.0.saturating_sub(b.0))
            .sum()
    }

    /// True if the block confirms no bundles at all (an empty round).
    pub fn is_empty(&self) -> bool {
        self.bundle_count() == 0
    }

    /// Structural sanity: equal-length vectors, `cut >= base`, headers
    /// present exactly where slices are non-empty and matching their slot.
    pub fn well_formed(&self) -> bool {
        let n = self.cut.len();
        if self.base.len() != n || self.headers.len() != n {
            return false;
        }
        for i in 0..n {
            if self.cut[i] < self.base[i] {
                return false;
            }
            if self.headers[i].is_some() != (self.cut[i] > self.base[i]) {
                return false;
            }
        }
        true
    }
}

impl WireSize for PredisBlock {
    fn wire_size(&self) -> usize {
        // parent + tx_root + view + per chain (cut height + optional header
        // hash) + signature. The base heights are derivable from the parent
        // block and are not serialized.
        let headers: usize = self
            .headers
            .iter()
            .map(|h| 1 + h.as_ref().map_or(0, |_| HASH_WIRE))
            .sum();
        HASH_WIRE * 2 + U64_WIRE + self.cut.len() * U64_WIRE + headers + SIG_WIRE + FRAME_OVERHEAD
    }
}

/// A reference to a certified microblock, as carried in Narwhal-style and
/// Stratus-style proposals. Roughly 32 bytes each on the wire, which is how
/// those proposals grow linearly with transaction volume (the paper's ~30 KB
/// for 1000 identifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroRef {
    /// Digest of the referenced microblock.
    pub digest: Hash,
    /// Its producer.
    pub producer: ChainId,
    /// Number of transactions inside (metadata for commit accounting).
    pub txs: u32,
}

impl WireSize for MicroRef {
    fn wire_size(&self) -> usize {
        HASH_WIRE
    }
}

/// What a consensus proposal carries, across all evaluated protocols.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProposalPayload {
    /// Vanilla PBFT/HotStuff: the full transaction batch travels in the
    /// proposal.
    Batch(Vec<Transaction>),
    /// Predis: the constant-size block.
    Predis(Box<PredisBlock>),
    /// Narwhal/Stratus: a list of certified microblock digests.
    Digests(Vec<MicroRef>),
}

impl ProposalPayload {
    /// Number of transactions the proposal will commit.
    ///
    /// For [`ProposalPayload::Predis`] this is unknown from the payload
    /// alone (it depends on the mempool slices), so callers account for it
    /// at commit time; this method returns 0 in that case.
    pub fn direct_tx_count(&self) -> u64 {
        match self {
            ProposalPayload::Batch(txs) => txs.len() as u64,
            ProposalPayload::Predis(_) => 0,
            ProposalPayload::Digests(refs) => refs.iter().map(|r| r.txs as u64).sum(),
        }
    }

    /// The payload's identity digest.
    pub fn digest(&self) -> Hash {
        match self {
            ProposalPayload::Batch(txs) => {
                let mut h = Sha256::new();
                h.update(b"batch");
                for tx in txs {
                    h.update(tx.hash().as_bytes());
                }
                Hash(h.finalize())
            }
            ProposalPayload::Predis(block) => block.hash(),
            ProposalPayload::Digests(refs) => {
                let mut h = Sha256::new();
                h.update(b"digests");
                for r in refs {
                    h.update(r.digest.as_bytes());
                }
                Hash(h.finalize())
            }
        }
    }
}

impl WireSize for ProposalPayload {
    fn wire_size(&self) -> usize {
        match self {
            ProposalPayload::Batch(txs) => {
                txs.iter().map(WireSize::wire_size).sum::<usize>() + FRAME_OVERHEAD
            }
            ProposalPayload::Predis(block) => block.wire_size(),
            ProposalPayload::Digests(refs) => {
                refs.iter().map(WireSize::wire_size).sum::<usize>() + FRAME_OVERHEAD
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};
    use crate::tip_list::TipList;
    use crate::Bundle;

    fn header(chain: u32, height: u64) -> Hash {
        let key = Keypair::for_node(SignerId(chain));
        Bundle::build(
            ChainId(chain),
            Height(height),
            Hash::digest(b"parent"),
            TipList::new(4),
            vec![Transaction::new(TxId(1), ClientId(0), 0)],
            Hash::ZERO,
            &key,
        )
        .hash()
    }

    fn block() -> PredisBlock {
        PredisBlock {
            parent: Hash::digest(b"genesis"),
            view: View(3),
            base: vec![Height(4), Height(5), Height(3), Height(3)],
            cut: vec![Height(5), Height(5), Height(4), Height(4)],
            headers: vec![
                Some(header(0, 5)),
                None,
                Some(header(2, 4)),
                Some(header(3, 4)),
            ],
            tx_root: Hash::digest(b"txroot"),
            signature: Signature::default(),
        }
    }

    /// Digest bytes are protocol: every trace fingerprint hangs off them.
    /// These constants were produced by the pre-SHA-NI scalar code; a hashing
    /// "optimisation" that moves one fails here, not 97 fingerprints later.
    /// (`tests/crypto.rs` at the workspace root pins the same values through
    /// the public facade.)
    #[test]
    fn golden_bundle_and_block_digests() {
        fn hex(h: Hash) -> String {
            h.0.iter().map(|b| format!("{b:02x}")).collect()
        }
        let txs: Vec<Transaction> = (0..50u64)
            .map(|i| Transaction::new(TxId(1000 + i), ClientId((i % 4) as u32), 0))
            .collect();
        let bundle = Bundle::build(
            ChainId(3),
            Height(7),
            Hash::digest(b"golden-parent"),
            TipList::from((1..=8u64).map(Height).collect::<Vec<_>>()),
            txs,
            Hash::digest(b"golden-stripes"),
            &Keypair::for_node(SignerId(3)),
        );
        assert!(bundle.verify());
        assert_eq!(
            hex(bundle.header.tx_root),
            "5eb74220ab3f4b57bb5fd16e0039d1b236583be87ea777fa1a21be9a35572aaa"
        );
        assert_eq!(
            hex(bundle.hash()),
            "38a6f5e71fa6405ffba168f37cb545819178d3e8efc4fb4301367342c896ddff"
        );
        assert_eq!(
            hex(bundle.header.signature.tag),
            "a7596c865601c54a34240f6451f49a4ecdb081eb868f9519421766ac46aa75c7"
        );
        let block = PredisBlock {
            parent: Hash::digest(b"golden-block-parent"),
            view: View(3),
            base: vec![Height(4), Height(5), Height(3), Height(3)],
            cut: vec![Height(5), Height(5), Height(4), Height(4)],
            headers: vec![
                Some(bundle.hash()),
                None,
                Some(Hash::digest(b"h2")),
                Some(Hash::digest(b"h3")),
            ],
            tx_root: bundle.header.tx_root,
            signature: Signature::default(),
        };
        assert_eq!(
            hex(block.digest()),
            "8a691dfad57eef8658a705b97d8630f55af6f8f0f2623d7079c67d90e29059fc"
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut b = block();
        let leader = Keypair::for_node(SignerId(0));
        b.sign(&leader);
        assert!(b.verify_signature(SignerId(0)));
        assert!(!b.verify_signature(SignerId(1)));
        b.view = View(4);
        assert!(!b.verify_signature(SignerId(0)));
    }

    #[test]
    fn bundle_count_sums_slices() {
        let b = block();
        // Slices: (4,5]=1, (5,5]=0, (3,4]=1, (3,4]=1.
        assert_eq!(b.bundle_count(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.chain_count(), 4);
    }

    #[test]
    fn well_formedness() {
        let good = block();
        assert!(good.well_formed());
        // Header missing where slice is non-empty.
        let mut bad = good.clone();
        bad.headers[0] = None;
        assert!(!bad.well_formed());
        // Header present where slice is empty.
        let mut bad = good.clone();
        bad.headers[1] = Some(header(1, 5));
        assert!(!bad.well_formed());
        // Cut below base.
        let mut bad = good.clone();
        bad.cut[0] = Height(3);
        assert!(!bad.well_formed());
        // Mismatched vector lengths.
        let mut bad = good.clone();
        bad.base.pop();
        assert!(!bad.well_formed());
    }

    #[test]
    fn predis_block_size_is_constant_in_tx_volume() {
        // The same block maps to arbitrarily many transactions; its wire
        // size depends only on n_c.
        let b = block();
        let size = b.wire_size();
        assert!(
            size < 400,
            "4-chain Predis block should be tiny, got {size}"
        );
        // A batch proposal of 800 txs is ~400 KB by contrast.
        let batch = ProposalPayload::Batch(
            (0..800)
                .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
                .collect(),
        );
        assert!(batch.wire_size() > 400_000);
    }

    #[test]
    fn digest_proposals_grow_linearly() {
        let refs: Vec<MicroRef> = (0..1000)
            .map(|i| MicroRef {
                digest: Hash::digest(&(i as u64).to_be_bytes()),
                producer: ChainId(0),
                txs: 50,
            })
            .collect();
        let p = ProposalPayload::Digests(refs);
        // ~32 KB for 1000 identifiers: the paper's observed ~30 KB.
        assert!((30_000..40_000).contains(&p.wire_size()));
        assert_eq!(p.direct_tx_count(), 50_000);
    }

    #[test]
    fn payload_digests_are_distinct() {
        let a = ProposalPayload::Batch(vec![Transaction::new(TxId(1), ClientId(0), 0)]);
        let b = ProposalPayload::Batch(vec![Transaction::new(TxId(2), ClientId(0), 0)]);
        assert_ne!(a.digest(), b.digest());
        let p = ProposalPayload::Predis(Box::new(block()));
        assert_eq!(p.digest(), block().hash());
    }
}
