//! # predis-crypto
//!
//! Cryptographic primitives for the Predis + Multi-Zone data flow framework:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 (SHA-NI where the CPU
//!   has it, portable code elsewhere);
//! * [`struct@Hash`] — the 32-byte digest newtype the whole framework keys on;
//! * [`MerkleTree`]/[`MerkleProof`]/[`merkle_root`] — transaction roots and
//!   stripe proofs (the paper's Fig. 1 bundle header fields);
//! * [`Keypair`]/[`Signature`] — *simulated* signatures (keyed-hash tags);
//!   see the `sig` module docs for the substitution rationale.
//!
//! # Examples
//!
//! ```
//! use predis_crypto::{Hash, Keypair, MerkleTree, SignerId};
//!
//! let txs = [b"tx1".as_slice(), b"tx2".as_slice(), b"tx3".as_slice()];
//! let root = MerkleTree::root_of(txs);
//! let sig = Keypair::for_node(SignerId(0)).sign(root);
//! assert!(sig.verify(root));
//! assert_eq!(root, MerkleTree::root_of(txs)); // deterministic
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod hash;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use hash::Hash;
pub use merkle::{merkle_root, MerkleProof, MerkleRoot, MerkleTree};
pub use sha256::Sha256;
pub use sig::{Keypair, Signature, SignerId, SIGNATURE_WIRE_SIZE};
