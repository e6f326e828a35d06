//! The [`struct@Hash`] digest newtype used throughout the framework.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::sha256::{sha256, sha256_64, Sha256};

/// A 32-byte SHA-256 digest.
///
/// # Examples
///
/// ```
/// use predis_crypto::Hash;
///
/// let h = Hash::digest(b"hello");
/// assert_ne!(h, Hash::ZERO);
/// assert_eq!(h, Hash::digest(b"hello"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero digest, used as the genesis parent pointer.
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Hashes a byte string.
    pub fn digest(data: &[u8]) -> Hash {
        Hash(sha256(data))
    }

    /// Hashes the concatenation of several byte strings (domain-separated
    /// callers should prepend their own tags).
    pub fn digest_parts(parts: &[&[u8]]) -> Hash {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        Hash(h.finalize())
    }

    /// Combines two digests (used for Merkle interior nodes): the digest of
    /// `left ‖ right`, hashed as the one-data-block shape it always is.
    pub fn combine(left: Hash, right: Hash) -> Hash {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&left.0);
        block[32..].copy_from_slice(&right.0);
        Hash(sha256_64(&block))
    }

    /// The digest truncated to a `u64` (handy as a deterministic map key).
    pub fn to_u64(self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// True if this is the all-zero digest.
    pub fn is_zero(&self) -> bool {
        *self == Hash::ZERO
    }
}

impl Default for Hash {
    fn default() -> Self {
        Hash::ZERO
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({self})")
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "..")
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash {
    fn from(bytes: [u8; 32]) -> Self {
        Hash(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_parts_equals_concatenation() {
        assert_eq!(
            Hash::digest_parts(&[b"foo", b"bar"]),
            Hash::digest(b"foobar")
        );
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Hash::digest(b"a");
        let b = Hash::digest(b"b");
        assert_ne!(Hash::combine(a, b), Hash::combine(b, a));
    }

    #[test]
    fn to_u64_is_prefix() {
        let h = Hash([
            1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0,
        ]);
        assert_eq!(h.to_u64(), 0x0102030405060708);
    }

    #[test]
    fn zero_and_display() {
        assert!(Hash::ZERO.is_zero());
        assert!(!Hash::digest(b"x").is_zero());
        assert_eq!(Hash::ZERO.to_string(), "0000000000000000..");
        assert_eq!(format!("{:?}", Hash::ZERO), "Hash(0000000000000000..)");
    }
}
