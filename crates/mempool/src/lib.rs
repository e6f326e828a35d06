//! # predis-mempool
//!
//! Predis's chained mempool (§III of the paper): every consensus node keeps
//! `n_c` **parallel bundle chains** — one per producer — and the leader
//! **cuts** them each round at the heights acknowledged by the fastest
//! `n_c − f` nodes (read straight off the tip lists carried in bundles),
//! yielding a constant-size Predis block instead of RBC/PAB certificate
//! machinery.
//!
//! # Examples
//!
//! ```
//! use predis_crypto::{Hash, Keypair, SignerId};
//! use predis_mempool::{BundleProducer, Mempool, TxPool};
//! use predis_types::{ChainId, ClientId, Transaction, TxId, View};
//!
//! // One producer feeds a 4-node mempool; the node then cuts and builds a
//! // Predis block.
//! let key = Keypair::for_node(SignerId(0));
//! let mut producer = BundleProducer::new(ChainId(0), key, 50);
//! let mut txpool = TxPool::new();
//! for i in 0..100 {
//!     txpool.push(Transaction::new(TxId(i), ClientId(0), 0));
//! }
//! let mut mempool = Mempool::new(4, 1, Some(ChainId(0)));
//! while let Some(bundle) =
//!     producer.produce(&mut txpool, mempool.my_tips(), Hash::ZERO, false)
//! {
//!     mempool.insert_bundle(bundle)?;
//! }
//! // With only the leader's own acks, nothing reaches the n_c - f quorum
//! // yet, so no block can be built.
//! let base = mempool.committed_base();
//! assert!(mempool.build_block(View(1), Hash::ZERO, &base, &key).is_none());
//! # Ok::<(), predis_mempool::BundleError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ban;
pub mod chain;
pub mod mempool;
pub mod producer;

pub use ban::BanList;
pub use chain::BundleChain;
pub use mempool::{BlockValidationError, BundleError, InsertOutcome, Mempool};
pub use producer::{BundleProducer, TxPool};
