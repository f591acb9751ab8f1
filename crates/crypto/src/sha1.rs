//! SHA-1 (FIPS 180-4), implemented from scratch.
//!
//! The paper's RTM uses SHA-1 for task measurement (§4, footnote 8). The
//! implementation is block-resumable so the RTM task can be preempted
//! between blocks — the property Table 7 depends on.
//!
//! The compression function has two bodies. The portable one below is
//! the reference and runs everywhere; on x86-64 CPUs with the SHA
//! extensions (and SSE4.1) a `sha1rnds4`-based body computes the same
//! function, chosen per call by runtime feature detection.

use crate::Digest;

pub(crate) const H0: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// One SHA-1 compression-function invocation over a prepared 64-byte
/// block, mutating `h` in place. Crate-internal: the control-flow chain
/// refolder (`chain::RunRefolder`) folds fixed 32-byte messages whose
/// padding never changes, so it formats one reusable block and calls the
/// compression function directly instead of round-tripping the streaming
/// [`Digest`] state machine per fold.
///
/// Runs on the CPU's SHA extensions when it has them, and the portable
/// [`compress_block_portable`] otherwise; both compute the same function.
pub(crate) fn compress_block(h: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `available` detected every feature
        // `sha_ni::compress_block` is compiled for on this CPU.
        unsafe { sha_ni::compress_block(h, block) };
        return;
    }
    compress_block_portable(h, block);
}

/// The portable compression function: the reference every other body is
/// tested against, and the only one on CPUs without SHA extensions.
fn compress_block_portable(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk of 4"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *h;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | (!b & d), 0x5a82_7999),
            20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
            _ => (b ^ c ^ d, 0xca62_c1d6),
        };
        let temp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = temp;
    }

    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_setzero_si128, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
        _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    /// Whether this CPU has the features [`compress_block`] needs.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Four message words `w[4g..4g + 4]` in one vector, `w[4g]` in the
    /// top lane as the SHA instructions expect. Each big-endian 8-byte
    /// load is two adjacent words, high word first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_quad(block: &[u8; 64], g: usize) -> __m128i {
        let half = |at: usize| {
            let bytes: [u8; 8] = block[at..at + 8].try_into().expect("8 bytes");
            i64::from_be_bytes(bytes)
        };
        _mm_set_epi64x(half(16 * g), half(16 * g + 8))
    }

    /// Runs one `sha1rnds4` group of four rounds per quad in `w`, with
    /// round function `F`. `before` is the ABCD one group back: four
    /// rounds after it, E is its A rotated left by 30, which
    /// `sha1nexte` adds to the group's message words.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn groups<const F: i32>(abcd: &mut __m128i, before: &mut __m128i, w: &[__m128i]) {
        for &quad in w {
            let e_plus_w = _mm_sha1nexte_epu32(*before, quad);
            *before = *abcd;
            *abcd = _mm_sha1rnds4_epu32::<F>(*abcd, e_plus_w);
        }
    }

    /// One SHA-1 compression of `block` into `h`: the 80-word message
    /// schedule as 20 four-word vectors, then 20 `sha1rnds4` groups of
    /// four rounds, five per round function.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress_block(h: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [_mm_setzero_si128(); 20];
        for (g, quad) in w.iter_mut().take(4).enumerate() {
            *quad = load_quad(block, g);
        }
        // W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), four at once.
        for g in 4..20 {
            let x = _mm_xor_si128(_mm_sha1msg1_epu32(w[g - 4], w[g - 3]), w[g - 2]);
            w[g] = _mm_sha1msg2_epu32(x, w[g - 1]);
        }

        let abcd0 = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
        let e0 = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        // The first group takes E straight from the state.
        let mut before = abcd0;
        let mut abcd = _mm_sha1rnds4_epu32::<0>(abcd0, _mm_add_epi32(e0, w[0]));
        groups::<0>(&mut abcd, &mut before, &w[1..5]);
        groups::<1>(&mut abcd, &mut before, &w[5..10]);
        groups::<2>(&mut abcd, &mut before, &w[10..15]);
        groups::<3>(&mut abcd, &mut before, &w[15..20]);
        let abcd = _mm_add_epi32(abcd, abcd0);
        let e = _mm_sha1nexte_epu32(before, e0);

        h[0] = _mm_extract_epi32::<3>(abcd) as u32;
        h[1] = _mm_extract_epi32::<2>(abcd) as u32;
        h[2] = _mm_extract_epi32::<1>(abcd) as u32;
        h[3] = _mm_extract_epi32::<0>(abcd) as u32;
        h[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

/// SHA-1 hash state.
///
/// # Examples
///
/// ```
/// use tytan_crypto::{Digest, Sha1};
///
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(
///     digest,
///     [
///         0xa9, 0x99, 0x3e, 0x36, 0x47, 0x06, 0x81, 0x6a, 0xba, 0x3e, 0x25, 0x71, 0x78, 0x50,
///         0xc2, 0x6c, 0x9c, 0xd0, 0xd8, 0x9d,
///     ]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha1 {
    /// Creates a fresh SHA-1 state.
    pub fn new() -> Self {
        Sha1 {
            h: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Pads, compresses the last block and returns the 20-byte digest
    /// (what [`Digest::finalize`] returns, as a fixed-size array).
    pub fn finalize_array(mut self) -> [u8; 20] {
        let bit_len = self.total_len * 8;
        // The buffer always has room for the 0x80 marker; the 8-byte
        // length needs a second block when 56 or more bytes are buffered.
        let len = self.buffer_len;
        self.buffer[len] = 0x80;
        self.buffer[len + 1..].fill(0);
        if len >= 56 {
            compress_block(&mut self.h, &self.buffer);
            self.buffer[..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_block(&mut self.h, &self.buffer);
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.h) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Number of compression-function invocations so far (full blocks).
    ///
    /// Exposed so the RTM can charge cycle costs per block processed.
    pub fn blocks_processed(&self) -> u64 {
        (self.total_len - self.buffer_len as u64) / 64
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.h, block);
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;
    const BLOCK_LEN: usize = 64;

    fn new() -> Self {
        Sha1::new()
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
            if data.is_empty() {
                // Everything fit in the partial buffer; the tail handling
                // below must not clobber buffer_len.
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().expect("chunk of 64"));
        }
        let rest = chunks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    fn finalize(self) -> Vec<u8> {
        self.finalize_array().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / RFC 3174 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn exactly_one_block() {
        let data = vec![0x61u8; 64];
        let mut h = Sha1::new();
        h.update(&data);
        assert_eq!(h.blocks_processed(), 1);
        assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn incremental_equals_one_shot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn blocks_processed_counts_full_blocks() {
        let mut h = Sha1::new();
        h.update(&[0u8; 63]);
        assert_eq!(h.blocks_processed(), 0);
        h.update(&[0u8; 1]);
        assert_eq!(h.blocks_processed(), 1);
        h.update(&[0u8; 128]);
        assert_eq!(h.blocks_processed(), 3);
    }

    /// SplitMix64: a fixed pseudo-random stream for the differential tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn fill(&mut self, bytes: &mut [u8]) {
            for chunk in bytes.chunks_mut(8) {
                chunk.copy_from_slice(&self.next().to_le_bytes()[..chunk.len()]);
            }
        }
    }

    /// SHA-1 from the portable compression function alone, padding done
    /// by hand: independent of both `finalize_array` and the hardware path.
    fn reference_digest(msg: &[u8]) -> [u8; 20] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        for block in padded.chunks_exact(64) {
            compress_block_portable(&mut h, block.try_into().expect("64 bytes"));
        }
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn hardware_compression_matches_the_portable_reference() {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            let mut rng = SplitMix(0x5a1);
            let mut state = [0u32; 5];
            for word in &mut state {
                *word = rng.next() as u32;
            }
            let mut block = [0u8; 64];
            for i in 0..10_000 {
                rng.fill(&mut block);
                let mut reference = state;
                compress_block_portable(&mut reference, &block);
                // With the extensions detected, this is the hardware body.
                compress_block(&mut state, &block);
                assert_eq!(state, reference, "pair {i}");
            }
            return;
        }
        eprintln!("no SHA extensions on this CPU: hardware leg skipped");
    }

    #[test]
    fn digest_matches_the_reference_at_every_padding_edge() {
        let mut rng = SplitMix(130);
        let mut data = [0u8; 130];
        rng.fill(&mut data);
        for len in 0..=data.len() {
            let msg = &data[..len];
            assert_eq!(Sha1::digest(msg), reference_digest(msg), "length {len}");
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha1::new();
        h.update(b"partial ");
        let mut h2 = h.clone();
        h.update(b"message");
        h2.update(b"message");
        assert_eq!(h.finalize(), h2.finalize());
    }
}
