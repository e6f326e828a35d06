//! Simulated digital signatures.
//!
//! The paper assumes standard unforgeable signatures (nodes "can not forge
//! the signatures of honest nodes"). Running real Ed25519 inside a
//! discrete-event simulation would add nothing to the measured quantities
//! (the paper never measures signing cost), so we use a *keyed-hash tag*
//! scheme: `sig = SHA-256(secret_id || message)` where `secret_id` is
//! deterministically derived from the signer's identity. Within the
//! simulation honest actors never sign other nodes' messages, so the scheme
//! behaves observationally like an unforgeable signature while remaining
//! deterministic and dependency-free. **This is a simulation substitute, not
//! a cryptographic signature** — documented in DESIGN.md.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hash::Hash;

/// Byte size of a signature on the wire (matching Ed25519 for size
/// modelling).
pub const SIGNATURE_WIRE_SIZE: usize = 64;

/// Identity of a signer. In the framework this is the node's index.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SignerId(pub u32);

impl fmt::Display for SignerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signer{}", self.0)
    }
}

/// A signature tag over a message digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Signature {
    /// Who produced the tag.
    pub signer: SignerId,
    /// The keyed-hash tag.
    pub tag: Hash,
}

/// A signing key bound to a [`SignerId`].
///
/// # Examples
///
/// ```
/// use predis_crypto::{Hash, Keypair, SignerId};
///
/// let key = Keypair::for_node(SignerId(3));
/// let msg = Hash::digest(b"bundle header");
/// let sig = key.sign(msg);
/// assert!(sig.verify(msg));
/// assert!(!sig.verify(Hash::digest(b"other")));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Keypair {
    id: SignerId,
    secret: Hash,
}

impl Keypair {
    /// Derives the keypair for a node identity (deterministic: every run of
    /// the simulation agrees on the key material).
    pub fn for_node(id: SignerId) -> Keypair {
        const TAG: &[u8; 21] = b"predis-sim-secret-key";
        let mut msg = [0u8; TAG.len() + 4];
        msg[..TAG.len()].copy_from_slice(TAG);
        msg[TAG.len()..].copy_from_slice(&id.0.to_be_bytes());
        let secret = Hash::digest(&msg);
        Keypair { id, secret }
    }

    /// The signer identity this key belongs to.
    pub fn id(&self) -> SignerId {
        self.id
    }

    /// Signs a message digest.
    pub fn sign(&self, message: Hash) -> Signature {
        Signature {
            signer: self.id,
            // secret ‖ message is exactly one block: the `combine` shape.
            tag: Hash::combine(self.secret, message),
        }
    }
}

impl Signature {
    /// Verifies the tag against the claimed signer and message digest.
    pub fn verify(&self, message: Hash) -> bool {
        Keypair::for_node(self.signer).sign(message).tag == self.tag
    }

    /// Verifies and additionally pins the expected signer.
    pub fn verify_by(&self, expected: SignerId, message: Hash) -> bool {
        self.signer == expected && self.verify(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let k = Keypair::for_node(SignerId(7));
        let m = Hash::digest(b"msg");
        let s = k.sign(m);
        assert!(s.verify(m));
        assert!(s.verify_by(SignerId(7), m));
        assert_eq!(k.id(), SignerId(7));
    }

    #[test]
    fn wrong_message_rejected() {
        let k = Keypair::for_node(SignerId(1));
        let s = k.sign(Hash::digest(b"a"));
        assert!(!s.verify(Hash::digest(b"b")));
    }

    #[test]
    fn wrong_signer_rejected() {
        let m = Hash::digest(b"m");
        let s = Keypair::for_node(SignerId(1)).sign(m);
        assert!(!s.verify_by(SignerId(2), m));
        // Claiming a different signer id breaks the tag.
        let forged = Signature {
            signer: SignerId(2),
            tag: s.tag,
        };
        assert!(!forged.verify(m));
    }

    #[test]
    fn keys_are_deterministic_per_identity() {
        assert_eq!(
            Keypair::for_node(SignerId(4)),
            Keypair::for_node(SignerId(4))
        );
        assert_ne!(
            Keypair::for_node(SignerId(4)).sign(Hash::ZERO),
            Keypair::for_node(SignerId(5)).sign(Hash::ZERO)
        );
    }
}
