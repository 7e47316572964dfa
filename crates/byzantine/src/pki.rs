//! A simulated public-key infrastructure.
//!
//! The strongest positive result quoted in Section 2 of the paper
//! (`n > k + t` suffices to ε-implement a mediator) assumes cryptography,
//! polynomially bounded players **and a PKI**. This module provides the
//! interface such protocols need — per-player signing keys, unforgeable (in
//! the simulation) signatures, and a registry mapping players to
//! verification keys — implemented with the non-cryptographic
//! [`mix_hash`]. Honest protocol code cannot forge signatures because it
//! never learns other players' signing keys; that is the property the
//! protocol logic exercises. Its one user is Dolev–Strong
//! ([`crate::broadcast`]).
//!
//! **Security disclaimer.** This is a *functional simulation*: the
//! "signatures" are MAC-like tags over a non-cryptographic hash. The
//! protocols built on top exercise exactly the message patterns of their
//! real counterparts, but none of this is secure against a real adversary.

use rand::{Rng, RngExt};

/// The accumulator [`mix_hash`] starts from.
const MIX_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A 64-bit mixing hash (SplitMix64-style finalizer over the input words).
/// Deterministic and stable across platforms; **not** cryptographic.
pub fn mix_hash(words: &[u64]) -> u64 {
    words.iter().fold(MIX_SEED, |acc, &w| mix(acc, w))
}

/// One word of [`mix_hash`]: folds `w` into the accumulator.
fn mix(acc: u64, w: u64) -> u64 {
    let mut z = acc ^ w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).rotate_left(17).wrapping_add(MIX_SEED)
}

/// A signature over a message, bound to a specific signer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    tag: u64,
    signer: usize,
}

impl Signature {
    /// The index of the claimed signer.
    pub fn signer(&self) -> usize {
        self.signer
    }
}

/// A player's key pair. The secret half stays with the player; the public
/// half is registered in the [`PublicKeyInfrastructure`].
#[derive(Debug, Clone, Copy)]
pub struct KeyPair {
    signing_key: u64,
    /// Index of the owning player.
    pub owner: usize,
}

impl KeyPair {
    /// Signs a message (a sequence of 64-bit words).
    pub fn sign(&self, message: &[u64]) -> Signature {
        Signature {
            tag: tag(self.signing_key, self.owner, message),
            signer: self.owner,
        }
    }
}

/// The tag `signer`'s key puts on `message`: [`mix_hash`] of the key,
/// the signer and the message words, folded in place.
fn tag(key: u64, signer: usize, message: &[u64]) -> u64 {
    let head = mix(mix(MIX_SEED, key), signer as u64);
    message.iter().fold(head, |acc, &w| mix(acc, w))
}

/// The registry of verification keys, held by every player.
///
/// In this simulation the "verification key" is the signing key itself kept
/// inside the registry; verification recomputes the tag. Protocol code only
/// ever interacts through [`KeyPair::sign`] and
/// [`PublicKeyInfrastructure::verify`], so swapping in a real signature
/// scheme would not change any caller.
#[derive(Debug, Clone)]
pub struct PublicKeyInfrastructure {
    keys: Vec<u64>,
}

impl PublicKeyInfrastructure {
    /// Generates a PKI for `n` players, returning the infrastructure and
    /// each player's key pair.
    pub fn setup<R: Rng + ?Sized>(n: usize, rng: &mut R) -> (Self, Vec<KeyPair>) {
        let keys: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        let pairs = keys
            .iter()
            .enumerate()
            .map(|(owner, &signing_key)| KeyPair { signing_key, owner })
            .collect();
        (PublicKeyInfrastructure { keys }, pairs)
    }

    /// Number of registered players.
    pub fn num_players(&self) -> usize {
        self.keys.len()
    }

    /// Whether `signature` is a valid signature by `claimed_signer` over
    /// `message`; `false` also when the signer index is unknown.
    pub fn verify(&self, claimed_signer: usize, message: &[u64], signature: &Signature) -> bool {
        let Some(&key) = self.keys.get(claimed_signer) else {
            return false;
        };
        signature.signer == claimed_signer && tag(key, claimed_signer, message) == signature.tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (pki, pairs) = PublicKeyInfrastructure::setup(4, &mut rng);
        assert_eq!(pki.num_players(), 4);
        for (i, kp) in pairs.iter().enumerate() {
            let sig = kp.sign(&[1, 2, 3]);
            assert_eq!(sig.signer(), i);
            assert!(pki.verify(i, &[1, 2, 3], &sig));
        }
    }

    #[test]
    fn wrong_message_or_signer_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (pki, pairs) = PublicKeyInfrastructure::setup(3, &mut rng);
        let sig = pairs[0].sign(&[10, 20]);
        assert!(!pki.verify(0, &[10, 21], &sig));
        assert!(!pki.verify(1, &[10, 20], &sig));
        assert!(!pki.verify(7, &[10, 20], &sig));
    }

    #[test]
    fn forgery_by_another_player_fails() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (pki, pairs) = PublicKeyInfrastructure::setup(2, &mut rng);
        // player 1 tries to pass off her own signature as player 0's
        let forged = pairs[1].sign(&[5]);
        assert!(!pki.verify(0, &[5], &forged));
    }

    #[test]
    fn tags_hash_key_signer_and_message_as_one_word_list() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for len in 0..40 {
            let message: Vec<u64> = (0..len % 9).map(|_| rng.random()).collect();
            let (key, signer) = (rng.random(), rng.random_range(0..64usize));
            let mut words = vec![key, signer as u64];
            words.extend_from_slice(&message);
            assert_eq!(tag(key, signer, &message), mix_hash(&words), "{words:?}");
        }
    }

    #[test]
    fn hash_is_deterministic_and_sensitive() {
        assert_eq!(mix_hash(&[1, 2, 3]), mix_hash(&[1, 2, 3]));
        assert_ne!(mix_hash(&[1, 2, 3]), mix_hash(&[1, 2, 4]));
        assert_ne!(mix_hash(&[1, 2, 3]), mix_hash(&[3, 2, 1]));
        assert_ne!(mix_hash(&[]), mix_hash(&[0]));
    }
}
