//! # predis-types
//!
//! The common vocabulary of the Predis + Multi-Zone data flow framework:
//! transactions, bundles, tip lists, Predis blocks and proposal payloads,
//! plus the wire-size model the bandwidth-accurate simulator charges by.
//!
//! # Examples
//!
//! ```
//! use predis_crypto::{Hash, Keypair, SignerId};
//! use predis_types::{
//!     Bundle, ChainId, ClientId, Height, TipList, Transaction, TxId, WireSize,
//! };
//!
//! // A consensus node packs 50 transactions into a bundle and signs it.
//! let key = Keypair::for_node(SignerId(0));
//! let txs: Vec<Transaction> =
//!     (0..50).map(|i| Transaction::new(TxId(i), ClientId(0), 0)).collect();
//! let bundle = Bundle::build(
//!     ChainId(0), Height(1), Hash::ZERO, TipList::new(4), txs, Hash::ZERO, &key,
//! );
//! assert!(bundle.verify());
//! assert_eq!(bundle.body_size(), 50 * 512);
//! assert!(bundle.header.wire_size() < 300); // headers are tiny
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod block;
pub mod bundle;
pub mod idhash;
pub mod ids;
pub mod shared;
pub mod tip_list;
pub mod tx;
pub mod wire;

pub use block::{MicroRef, PredisBlock, ProposalPayload};
pub use bundle::{Bundle, BundleHeader, ConflictProof};
pub use idhash::{IdBuildHasher, IdHasher, IdMap, IdSet};
pub use ids::{ChainId, ClientId, Height, SeqNum, TxId, View};
pub use shared::{payload_stats, Shared, SizedBundle, SizedPayload};
pub use tip_list::{quorum_cut_height, TipList};
pub use tx::{tx_leaves, Transaction};
pub use wire::{
    WireSize, DEFAULT_BATCH_SIZE, DEFAULT_BUNDLE_SIZE, DEFAULT_TX_SIZE, FRAME_OVERHEAD, HASH_WIRE,
    SIG_WIRE, U32_WIRE, U64_WIRE,
};
