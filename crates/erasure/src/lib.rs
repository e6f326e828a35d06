//! # predis-erasure
//!
//! GF(2^8) Reed-Solomon erasure coding, built from scratch for the
//! Multi-Zone dissemination layer: each bundle is encoded into `n_c`
//! stripes of which any `n_c − f` reconstruct it, so a node can decode a
//! bundle from stripes arriving in parallel from different relayers even
//! when `f` of them fail or lie (stripe integrity is checked against the
//! bundle header's stripe Merkle root, see `predis-crypto`).
//!
//! # Examples
//!
//! ```
//! use predis_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(3, 4)?; // n_c = 4, f = 1
//! let bundle_bytes = vec![7u8; 25_600]; // 50 txs x 512 B
//! let stripes = rs.encode_blob(&bundle_bytes);
//! assert_eq!(stripes.len(), 4);
//! # Ok::<(), predis_erasure::CodecError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod gf256;
pub mod matrix;
pub mod parallel;
pub mod rs;

pub use gf256::{Gf, MulTable};
pub use matrix::Matrix;
pub use rs::{CodecError, ReedSolomon};
