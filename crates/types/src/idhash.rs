//! A cheap hasher for maps keyed by the framework's own identifiers.
//!
//! The ordering path keys its maps by [`crate::TxId`]s, [`crate::View`]s and
//! SHA-256 digests: unique counters and uniformly distributed bytes the
//! program minted itself. std's default SipHash defends against keys an
//! adversary crafts to collide, which costs ~20 ns a probe these keys do not
//! need. [`IdHasher`] is one multiply per word instead.
//!
//! Keep the default hasher for any map keyed by input from outside the
//! program (scenario files, CLI strings, artifact names): nothing here
//! resists chosen collisions, and byte-string keys are hashed by their first
//! eight bytes only.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply hasher over integer words and digest prefixes.
///
/// Integers fold into the state whole; a byte string (a derived `Hash` of a
/// `[u8; 32]` digest) folds in its first eight bytes, which for a SHA-256
/// output are as good as all thirty-two. Equal keys hash equal on every run
/// and host, but no map's iteration order may reach the wire or a report:
/// it is a function of capacity history, as with any hash map.
///
/// # Examples
///
/// ```
/// use predis_types::{IdMap, IdSet, TxId};
///
/// let mut state: IdMap<TxId, u8> = IdMap::default();
/// state.insert(TxId(7), 1);
/// assert_eq!(state.get(&TxId(7)), Some(&1));
/// let mut seen: IdSet<[u8; 32]> = IdSet::default();
/// assert!(seen.insert([9; 32]) && !seen.insert([9; 32]));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    /// An odd 64-bit constant with no short bit pattern (the multiplier of
    /// the PCG generators); odd makes the multiply a bijection.
    const K: u64 = 0x5851_f42d_4c95_7f2d;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut prefix = [0u8; 8];
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        self.fold(u64::from_le_bytes(prefix));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    /// The multiply leaves its entropy in the high bits; the table picks a
    /// bucket from the low ones, so rotate the best bits down. Client ids
    /// sit in bits 40 and up of a [`crate::TxId`]: without the rotation,
    /// every client's n-th transaction would share a bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`IdHasher`]s (stateless: no per-map seed).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` on [`IdHasher`]; construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` on [`IdHasher`]; construct with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;
    use crate::ids::{TxId, View};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    #[test]
    fn dense_client_tagged_ids_spread_over_low_and_high_bits() {
        // 8 clients x 4 096 sequence numbers, ids as `ClientCore` mints
        // them. hashbrown indexes by the low bits and tags by the top
        // seven: both must see (nearly) every value.
        let ids = (0..8u64).flat_map(|c| (0..4096u64).map(move |s| TxId((c << 40) | s)));
        let hashes: Vec<u64> = ids.map(|id| hash_of(&id)).collect();
        let low: IdSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
        let top: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        // 32 768 balls into 65 536 bins leave ~39 % of the bins hit.
        assert!(low.len() > 24_000, "only {} distinct buckets", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn digests_hash_by_prefix_and_tuples_by_every_field() {
        let a = predis_crypto::Hash::digest(b"a");
        let b = predis_crypto::Hash::digest(b"b");
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&(a, View(1))), hash_of(&(a, View(2))));
        assert_eq!(hash_of(&(a, View(1))), hash_of(&(a, View(1))));
    }
}
