//! Client transactions.
//!
//! The simulator does not execute transaction payloads; a transaction is a
//! sized, identified unit whose journey (submit → bundle → block → commit →
//! reply) is what the experiments measure. Its digest is derived from its
//! identity so Merkle roots are real and collision-checked.

use predis_crypto::Hash;
use serde::{Deserialize, Serialize};

use crate::ids::{ClientId, TxId};
use crate::wire::{WireSize, DEFAULT_TX_SIZE};

/// A client transaction.
///
/// # Examples
///
/// ```
/// use predis_types::{ClientId, Transaction, TxId};
///
/// let tx = Transaction::new(TxId(1), ClientId(0), 0);
/// assert_eq!(tx.size, 512); // the paper's default payload
/// assert_eq!(tx.hash(), Transaction::new(TxId(1), ClientId(0), 99).hash());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transaction {
    /// Unique transaction identifier.
    pub id: TxId,
    /// The submitting client.
    pub client: ClientId,
    /// Simulated submit time in nanoseconds (drives latency measurement;
    /// not part of the transaction's identity/digest).
    pub submitted_at_nanos: u64,
    /// Payload size in bytes.
    pub size: u32,
}

impl Transaction {
    /// Creates a transaction with the paper's default 512-byte payload.
    pub fn new(id: TxId, client: ClientId, submitted_at_nanos: u64) -> Transaction {
        Transaction {
            id,
            client,
            submitted_at_nanos,
            size: DEFAULT_TX_SIZE as u32,
        }
    }

    /// Creates a transaction with an explicit payload size.
    pub fn with_size(
        id: TxId,
        client: ClientId,
        submitted_at_nanos: u64,
        size: u32,
    ) -> Transaction {
        Transaction {
            id,
            client,
            submitted_at_nanos,
            size,
        }
    }

    /// The transaction digest (identity only: id + client + size).
    ///
    /// The 18-byte preimage is assembled on the stack: one SHA-256 block,
    /// one compression — this is the Merkle leaf every bundle build and
    /// verify computes per transaction.
    pub fn hash(&self) -> Hash {
        let mut preimage = [0u8; 18];
        preimage[..2].copy_from_slice(b"tx");
        preimage[2..10].copy_from_slice(&self.id.0.to_be_bytes());
        preimage[10..14].copy_from_slice(&self.client.0.to_be_bytes());
        preimage[14..].copy_from_slice(&self.size.to_be_bytes());
        Hash::digest(&preimage)
    }
}

impl WireSize for Transaction {
    fn wire_size(&self) -> usize {
        self.size as usize
    }
}

/// The Merkle-tree leaf digests of a transaction list.
pub fn tx_leaves(txs: &[Transaction]) -> Vec<Hash> {
    txs.iter().map(Transaction::hash).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis_crypto::MerkleTree;

    #[test]
    fn hash_ignores_submit_time() {
        let a = Transaction::new(TxId(9), ClientId(2), 100);
        let b = Transaction::new(TxId(9), ClientId(2), 200);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn hash_depends_on_identity() {
        let a = Transaction::new(TxId(1), ClientId(0), 0);
        assert_ne!(a.hash(), Transaction::new(TxId(2), ClientId(0), 0).hash());
        assert_ne!(a.hash(), Transaction::new(TxId(1), ClientId(1), 0).hash());
        assert_ne!(
            a.hash(),
            Transaction::with_size(TxId(1), ClientId(0), 0, 100).hash()
        );
    }

    #[test]
    fn wire_size_is_payload_size() {
        assert_eq!(Transaction::new(TxId(0), ClientId(0), 0).wire_size(), 512);
        assert_eq!(
            Transaction::with_size(TxId(0), ClientId(0), 0, 256).wire_size(),
            256
        );
    }

    #[test]
    fn hash_preimage_layout_is_pinned() {
        let tx = Transaction::with_size(TxId(0x0102_0304_0506_0708), ClientId(0x0a0b_0c0d), 0, 77);
        assert_eq!(
            tx.hash(),
            Hash::digest_parts(&[
                b"tx",
                &tx.id.0.to_be_bytes(),
                &tx.client.0.to_be_bytes(),
                &tx.size.to_be_bytes(),
            ])
        );
    }

    #[test]
    fn leaves_feed_merkle_roots() {
        let txs: Vec<Transaction> = (0..4)
            .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
            .collect();
        let root = MerkleTree::from_leaves(tx_leaves(&txs)).root();
        let mut reordered = txs.clone();
        reordered.swap(0, 1);
        assert_ne!(root, MerkleTree::from_leaves(tx_leaves(&reordered)).root());
    }
}
