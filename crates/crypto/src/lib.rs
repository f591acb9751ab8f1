//! From-scratch embedded cryptography for the TyTAN reproduction.
//!
//! The TyTAN paper (DAC 2015) builds its trust anchor on a small set of
//! symmetric primitives: a cryptographic hash for task measurement (SHA-1,
//! §4 — pluggable per footnote 8), HMAC for remote attestation (§3) and for
//! deriving per-task sealing keys `K_t = HMAC(id_t | K_p)` (secure storage,
//! §3), all rooted in a hardware platform key `K_p`.
//!
//! This crate implements those primitives with no external dependencies:
//!
//! - [`Sha1`] and [`Sha256`] — resumable block hashes behind the [`Digest`]
//!   trait. Resumability matters: TyTAN's RTM task must be *interruptible*
//!   during measurement to preserve real-time guarantees, which requires
//!   carrying hash state across preemptions.
//! - [`hmac`] / [`HmacKey`] — HMAC over any [`Digest`].
//! - [`derive_key`] — key derivation from the platform key ([`PlatformKey`]),
//!   used for the attestation key `K_a` and per-task keys `K_t`.
//! - [`SealingCipher`] — an HMAC-CTR stream cipher with an encrypt-then-MAC
//!   tag, used by the secure-storage task.
//! - [`ct_eq`] — constant-time comparison for MAC verification.
//! - [`CfChain`] — the Tiny-CFA-style control-flow hash chain the CFA
//!   plane folds taken edges into; only its head is MACed.
//! - [`TaskId`] — the 64-bit truncated measurement digest the paper uses as
//!   task identity (§6, footnote 9).
//!
//! SHA-1 is retained because the paper uses it; the RTM is generic over
//! [`Digest`] so SHA-256 drops in (see `tytan::rtm`).
//!
//! # Examples
//!
//! ```
//! use tytan_crypto::{Digest, Sha1, TaskId};
//!
//! let mut hasher = Sha1::new();
//! hasher.update(b"task binary code");
//! let digest = hasher.finalize();
//! let id = TaskId::from_digest(&digest);
//! assert_eq!(digest.len(), 20);
//! assert_eq!(id.as_u64(), u64::from_be_bytes(digest[..8].try_into().unwrap()));
//! ```

pub mod chain;
mod cipher;
mod ct;
mod hmac;
mod kdf;
mod sha1;
mod sha256;
mod taskid;

pub use chain::{compress_log, expand_runs, CfChain, RunRefolder};
pub use cipher::{SealedBlob, SealingCipher, UnsealError};
pub use ct::ct_eq;
pub use hmac::{hmac, hmac_sha1, HmacKey, HmacSchedule};
pub use kdf::{derive_key, PlatformKey, SymmetricKey, KEY_LEN};
pub use sha1::Sha1;
pub use sha256::Sha256;
pub use taskid::TaskId;

/// A resumable cryptographic hash.
///
/// The block-oriented `update` interface is what makes TyTAN's RTM task
/// interruptible: measurement state (an implementor of this trait) is kept
/// across preemptions, and each scheduling slice hashes a bounded number of
/// blocks.
pub trait Digest: Clone {
    /// Digest output length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block length in bytes (64 for SHA-1/SHA-256).
    const BLOCK_LEN: usize;

    /// Creates a fresh hash state.
    fn new() -> Self;

    /// Absorbs `data` into the state.
    fn update(&mut self, data: &[u8]);

    /// Consumes the state and produces the digest.
    fn finalize(self) -> Vec<u8>;

    /// Convenience: hash `data` in one call.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_trait_one_shot_matches_incremental() {
        let data = b"the quick brown fox";
        let mut h = Sha1::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Sha1::digest(data));
    }
}
