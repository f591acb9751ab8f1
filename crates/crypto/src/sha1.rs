//! SHA-1 (FIPS 180-4), implemented from scratch.
//!
//! The paper's RTM uses SHA-1 for task measurement (§4, footnote 8). The
//! implementation is block-resumable so the RTM task can be preempted
//! between blocks — the property Table 7 depends on.

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
pub(crate) fn compress_block(h: &mut [u32; 5], block: &[u8; 64]) {
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
        self.update(&[0x80]);
        while self.buffer_len != 56 {
            self.update(&[0x00]);
        }
        // Appending the length fills the block exactly; bypass total_len
        // bookkeeping by compressing directly.
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
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
