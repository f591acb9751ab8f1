//! HMAC (RFC 2104) over any [`Digest`].
//!
//! TyTAN uses HMAC twice: remote attestation authenticates task
//! measurements with MACs under the attestation key `K_a` (§3), and the
//! secure-storage task derives per-task keys `K_t = HMAC(id_t | K_p)` (§3).

use crate::{ct_eq, Digest, Sha1};

/// Computes `HMAC(key, message)` with hash `D`.
///
/// # Examples
///
/// ```
/// use tytan_crypto::{hmac, Sha1};
///
/// let tag = hmac::<Sha1>(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[..4], [0xde, 0x7c, 0x9b, 0x85]);
/// ```
pub fn hmac<D: Digest>(key: &[u8], message: &[u8]) -> Vec<u8> {
    HmacSchedule::<D>::new(key).sign(message)
}

/// A precomputed HMAC key schedule: the hash states after absorbing the
/// ipad/opad key blocks.
///
/// Computing `HMAC(key, m)` from scratch costs four compression-function
/// calls for a short `m` (ipad block, message block, opad block, inner
/// digest block). The two key-block compressions depend only on the key,
/// so a verifier that checks many tags under the same key — each fleet
/// verifier session checks every report of its device, round after
/// round — precomputes them once and halves the per-message hashing
/// work.
///
/// # Examples
///
/// ```
/// use tytan_crypto::{hmac_sha1, HmacSchedule, Sha1};
///
/// let schedule: HmacSchedule<Sha1> = HmacSchedule::new(b"key");
/// assert_eq!(schedule.sign(b"msg"), hmac_sha1(b"key", b"msg"));
/// assert!(schedule.verify(b"msg", &schedule.sign(b"msg")));
/// ```
#[derive(Clone)]
pub struct HmacSchedule<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> HmacSchedule<D> {
    /// Precomputes the schedule for `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = vec![0u8; D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let hashed = D::digest(key);
            key_block[..hashed.len()].copy_from_slice(&hashed);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = D::new();
        let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
        inner.update(&ipad);
        let mut outer = D::new();
        let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
        outer.update(&opad);
        HmacSchedule { inner, outer }
    }

    /// Signs `message`, reusing the precomputed key states.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let mut inner = self.inner.clone();
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Verifies `tag` over `message` in constant time (see
    /// [`crate::ct_eq`] for the comparison contract).
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        ct_eq(&self.sign(message), tag)
    }
}

impl<D: Digest> std::fmt::Debug for HmacSchedule<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The pad states are key-equivalent material: never print them.
        write!(f, "HmacSchedule(redacted)")
    }
}

/// Computes `HMAC-SHA1(key, message)` — the paper's MAC.
pub fn hmac_sha1(key: &[u8], message: &[u8]) -> Vec<u8> {
    hmac::<Sha1>(key, message)
}

/// A MAC key with misuse-resistant verification.
///
/// Wrapping key bytes in `HmacKey` keeps verification constant-time and the
/// key out of `Debug` output.
///
/// # Examples
///
/// ```
/// use tytan_crypto::HmacKey;
///
/// let key = HmacKey::new(b"attestation key".to_vec());
/// let tag = key.sign(b"report");
/// assert!(key.verify(b"report", &tag));
/// assert!(!key.verify(b"forged", &tag));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HmacKey(Vec<u8>);

impl HmacKey {
    /// Wraps raw key bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        HmacKey(bytes)
    }

    /// Signs `message` with HMAC-SHA1.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        hmac_sha1(&self.0, message)
    }

    /// Verifies `tag` over `message` in constant time.
    ///
    /// The comparison is a byte-wise accumulate with no early exit (see
    /// [`crate::ct_eq`]): an equal-length tag differing in any position —
    /// first byte or last — takes the same code path, so timing reveals
    /// nothing about *where* a forgery diverges.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        ct_eq(&self.sign(message), tag)
    }

    /// Precomputes the HMAC-SHA1 key schedule for bulk signing or
    /// verification under this key (see [`HmacSchedule`]).
    pub fn schedule(&self) -> HmacSchedule<Sha1> {
        HmacSchedule::new(&self.0)
    }

    /// Exposes the raw key bytes (for key-derivation input).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "HmacKey({} bytes, redacted)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test vectors for HMAC-SHA1.
    #[test]
    fn rfc2202_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_case_2() {
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha1(&key, &data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_long_key() {
        let key = [0xaau8; 80];
        assert_eq!(
            hex(&hmac_sha1(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    // RFC 4231 test vector 1 for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1_sha256() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac::<Sha256>(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_key_sign_verify() {
        let key = HmacKey::new(vec![7u8; 16]);
        let tag = key.sign(b"hello");
        assert!(key.verify(b"hello", &tag));
        assert!(!key.verify(b"hellp", &tag));
        let mut bad_tag = tag.clone();
        bad_tag[0] ^= 1;
        assert!(!key.verify(b"hello", &bad_tag));
        assert!(!key.verify(b"hello", &tag[..19]));
    }

    #[test]
    fn debug_redacts_key() {
        let key = HmacKey::new(vec![0x42; 16]);
        let debug = format!("{key:?}");
        assert!(debug.contains("redacted"));
        assert!(!debug.contains("42"));
        let schedule = key.schedule();
        assert!(format!("{schedule:?}").contains("redacted"));
    }

    #[test]
    fn schedule_matches_from_scratch_hmac() {
        // Every key-size regime: shorter than, equal to, and longer than
        // the block length (the long-key path hashes the key first).
        for key_len in [0usize, 5, 20, 64, 80, 200] {
            let key: Vec<u8> = (0..key_len).map(|i| i as u8).collect();
            let schedule: HmacSchedule<Sha1> = HmacSchedule::new(&key);
            for msg_len in [0usize, 1, 55, 64, 300] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7) as u8).collect();
                assert_eq!(
                    schedule.sign(&msg),
                    hmac_sha1(&key, &msg),
                    "key_len {key_len} msg_len {msg_len}"
                );
            }
        }
        let schedule: HmacSchedule<Sha256> = HmacSchedule::new(b"k");
        assert_eq!(schedule.sign(b"m"), hmac::<Sha256>(b"k", b"m"));
    }

    #[test]
    fn schedule_verify_equal_length_mismatch_rejected() {
        // The fleet verifier's tag comparison: equal-length forgeries are
        // rejected wherever the flipped byte sits (no-early-exit compare).
        let schedule: HmacSchedule<Sha1> = HmacSchedule::new(b"fleet key");
        let tag = schedule.sign(b"report");
        for position in 0..tag.len() {
            let mut forged = tag.clone();
            forged[position] ^= 0x80;
            assert!(
                !schedule.verify(b"report", &forged),
                "flipped byte {position} accepted"
            );
        }
        assert!(schedule.verify(b"report", &tag));
        assert!(!schedule.verify(b"report", &tag[..tag.len() - 1]));
    }

    #[test]
    fn schedules_verify_only_their_own_tags() {
        let a: HmacSchedule<Sha1> = HmacSchedule::new(b"device-a");
        let b: HmacSchedule<Sha1> = HmacSchedule::new(b"device-b");
        let tag_a = a.sign(b"report-a");
        let tag_b = b.sign(b"report-b");
        let mut forged = tag_b.clone();
        forged[0] ^= 1;
        assert!(a.verify(b"report-a", &tag_a));
        assert!(!b.verify(b"report-b", &forged));
        assert!(b.verify(b"report-b", &tag_b));
        // Another device's key never verifies that device's tag.
        assert!(!a.verify(b"report-b", &tag_b));
    }
}
