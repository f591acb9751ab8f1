//! Tiny-CFA-style control-flow hash chain, folded over edge *runs*.
//!
//! The prover folds the taken control-flow edges of a monitored task
//! into a running SHA-1 chain. Real edge logs are loop-dominated — the
//! same backward edge repeats thousands of times per scheduling slice —
//! so the chain is defined over the **canonical run-length
//! decomposition** of the edge stream: maximal runs of a repeated edge
//! fold in one compression each, not one per iteration:
//!
//! ```text
//! H_0     = 0^20
//! H_{i+1} = SHA-1(H_i ‖ from_i.to_le_bytes() ‖ to_i.to_le_bytes() ‖ count_i.to_le_bytes())
//! ```
//!
//! where `(from_i, to_i, count_i)` is the i-th maximal run (adjacent
//! runs never share an edge, every count is ≥ 1). The run encoding is
//! domain-separated from the legacy per-edge encoding by message length
//! (32 bytes of chain input vs the old 28), so no run head collides
//! with any head of the count-free chain.
//!
//! Only the 20-byte chain head is authenticated (MACed into the CFA
//! report); the edge log itself travels in the clear, run-length
//! compressed. A raw edge stream and its runs verify against the same
//! head, because the verifier refolds the *canonical decomposition*:
//! [`CfChain::fold_all`] compresses a raw log on the fly, and
//! [`CfChain::fold_runs`] consumes runs directly. Any tampering with the log — reorder, truncation,
//! substitution, or splitting/merging run counts — changes the head
//! and cannot survive. (The verifier consults edge-by-edge
//! admissibility first, so tampering that also bends an edge off the
//! static CFG is reported as the more specific violation; the head
//! comparison is the backstop that catches substitutions which stay on
//! admissible edges.)
//!
//! Verifier-side refolding is the hot path at fleet scale, so
//! [`RunRefolder`] folds runs directly: every run folds a fixed
//! 32-byte message, whose SHA-1 padding is one constant 64-byte block
//! suffix. The refolder precomputes that padded block once and reuses
//! it across every report its verifier checks, driving the compression
//! function directly instead of the streaming [`Digest`] state machine.
//!
//! The chain is deliberately engine-agnostic: it consumes architectural
//! `(from, to)` pc pairs, never cycle counts or block boundaries, so
//! both execution engines produce byte-identical heads for the
//! same guest run.

use crate::sha1;
use crate::{Digest, Sha1};

/// Length of a chain head in bytes (one SHA-1 digest).
pub const CHAIN_LEN: usize = 20;

/// The all-zero genesis head `H_0`.
pub const CHAIN_GENESIS: [u8; CHAIN_LEN] = [0; CHAIN_LEN];

/// Bytes of chain input per folded run: head ‖ from ‖ to ‖ count.
const RUN_MSG_LEN: usize = CHAIN_LEN + 12;

/// An incremental control-flow hash chain.
///
/// # Examples
///
/// ```
/// use tytan_crypto::chain::{CfChain, CHAIN_GENESIS};
///
/// let mut chain = CfChain::new();
/// assert_eq!(chain.head(), CHAIN_GENESIS);
/// chain.fold_run(0x10, 0x40, 3);
/// chain.fold_run(0x44, 0x10, 1);
/// // The raw stream folds to the same head via its canonical runs.
/// assert_eq!(
///     chain.head(),
///     CfChain::fold_all([(0x10, 0x40), (0x10, 0x40), (0x10, 0x40), (0x44, 0x10)])
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfChain {
    head: [u8; CHAIN_LEN],
    edges: u64,
}

impl Default for CfChain {
    fn default() -> Self {
        Self::new()
    }
}

impl CfChain {
    /// A fresh chain at the genesis head.
    pub fn new() -> Self {
        CfChain {
            head: CHAIN_GENESIS,
            edges: 0,
        }
    }

    /// Folds one maximal run — edge `(from, to)` taken `count`
    /// consecutive times — into the chain in a single compression.
    /// `count == 0` is a no-op.
    ///
    /// Canonicality is the caller's contract: adjacent calls must not
    /// repeat the same edge (coalesce them into one count instead), or
    /// the head diverges from the canonical decomposition that
    /// [`CfChain::fold_all`] and every verifier computes.
    pub fn fold_run(&mut self, from: u32, to: u32, count: u32) {
        if count == 0 {
            return;
        }
        let mut h = Sha1::new();
        h.update(&self.head);
        h.update(&from.to_le_bytes());
        h.update(&to.to_le_bytes());
        h.update(&count.to_le_bytes());
        let digest = h.finalize();
        self.head.copy_from_slice(&digest);
        self.edges += u64::from(count);
    }

    /// Folds one taken edge: a run of length 1. Subject to the same
    /// canonicality contract as [`CfChain::fold_run`] — a repeated edge
    /// must fold as one counted run, not as repeated calls.
    pub fn fold(&mut self, from: u32, to: u32) {
        self.fold_run(from, to, 1);
    }

    /// The current chain head.
    pub fn head(&self) -> [u8; CHAIN_LEN] {
        self.head
    }

    /// Number of raw edges folded so far (sum of run counts).
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Folds a raw edge log via its canonical run decomposition and
    /// returns the final head. O(#runs) compressions, not O(#edges).
    pub fn fold_all(edges: impl IntoIterator<Item = (u32, u32)>) -> [u8; CHAIN_LEN] {
        let mut chain = CfChain::new();
        let mut pending: Option<(u32, u32, u32)> = None;
        for (from, to) in edges {
            match &mut pending {
                Some((f, t, n)) if *f == from && *t == to && *n < u32::MAX => *n += 1,
                _ => {
                    if let Some((f, t, n)) = pending {
                        chain.fold_run(f, t, n);
                    }
                    pending = Some((from, to, 1));
                }
            }
        }
        if let Some((f, t, n)) = pending {
            chain.fold_run(f, t, n);
        }
        chain.head()
    }

    /// Folds an already run-length-encoded log and returns the final
    /// head. The runs must be the canonical decomposition (maximal,
    /// counts ≥ 1); zero-count runs are skipped as no-ops.
    pub fn fold_runs(runs: impl IntoIterator<Item = (u32, u32, u32)>) -> [u8; CHAIN_LEN] {
        let mut chain = CfChain::new();
        for (from, to, count) in runs {
            chain.fold_run(from, to, count);
        }
        chain.head()
    }
}

/// Canonically run-length-encodes a raw edge log: maximal runs of a
/// repeated edge collapse to one `(from, to, count)` triple. This is
/// the decomposition the chain is defined over, so
/// `CfChain::fold_runs(compress_log(log)) == CfChain::fold_all(log)`.
pub fn compress_log(edges: impl IntoIterator<Item = (u32, u32)>) -> Vec<(u32, u32, u32)> {
    let mut runs: Vec<(u32, u32, u32)> = Vec::new();
    for (from, to) in edges {
        match runs.last_mut() {
            Some((f, t, n)) if *f == from && *t == to && *n < u32::MAX => *n += 1,
            _ => runs.push((from, to, 1)),
        }
    }
    runs
}

/// Expands a run-length-encoded log back into its raw edge stream.
/// Lazy — hostile counts cost the consumer only as far as it iterates.
pub fn expand_runs(runs: &[(u32, u32, u32)]) -> impl Iterator<Item = (u32, u32)> + '_ {
    runs.iter()
        .flat_map(|&(from, to, count)| std::iter::repeat_n((from, to), count as usize))
}

/// Chain refolder: precomputed-padding single-block folds.
///
/// A run folds a fixed `RUN_MSG_LEN`-byte message, short enough that
/// its padded SHA-1 form is exactly one 64-byte block: message bytes,
/// the `0x80` terminator, zeros, and the constant 256-bit length field.
/// The refolder formats that block once and rewrites only the first 32
/// bytes per fold, invoking the compression function directly. Held by
/// a verifier for its whole life, refolding a report is then one
/// compression per *run* with no per-fold state-machine overhead.
///
/// Equivalence with the streaming fold is pinned by property test:
/// `refold(runs) == CfChain::fold_runs(runs)` for arbitrary logs.
#[derive(Debug, Clone)]
pub struct RunRefolder {
    block: [u8; 64],
}

impl Default for RunRefolder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunRefolder {
    /// Builds the reusable padded block template.
    pub fn new() -> Self {
        let mut block = [0u8; 64];
        block[RUN_MSG_LEN] = 0x80;
        let bit_len = (RUN_MSG_LEN as u64) * 8;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        RunRefolder { block }
    }

    /// Folds one run onto `head` in place (one compression).
    fn fold_into(&mut self, head: &mut [u8; CHAIN_LEN], from: u32, to: u32, count: u32) {
        self.block[..CHAIN_LEN].copy_from_slice(head);
        self.block[CHAIN_LEN..CHAIN_LEN + 4].copy_from_slice(&from.to_le_bytes());
        self.block[CHAIN_LEN + 4..CHAIN_LEN + 8].copy_from_slice(&to.to_le_bytes());
        self.block[CHAIN_LEN + 8..CHAIN_LEN + 12].copy_from_slice(&count.to_le_bytes());
        let mut h = sha1::H0;
        sha1::compress_block(&mut h, &self.block);
        for (chunk, word) in head.chunks_exact_mut(4).zip(h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Refolds a run-length-encoded log from genesis and returns the
    /// head. Zero-count runs are skipped, mirroring
    /// [`CfChain::fold_run`].
    pub fn refold(&mut self, runs: impl IntoIterator<Item = (u32, u32, u32)>) -> [u8; CHAIN_LEN] {
        let mut head = CHAIN_GENESIS;
        for (from, to, count) in runs {
            if count == 0 {
                continue;
            }
            self.fold_into(&mut head, from, to, count);
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_all_zero() {
        assert_eq!(CfChain::new().head(), [0u8; CHAIN_LEN]);
        assert_eq!(CfChain::new().edges(), 0);
    }

    #[test]
    fn incremental_matches_fold_all() {
        let log = [(4u32, 16u32), (20, 4), (8, 32), (36, 4)];
        let mut chain = CfChain::new();
        for &(f, t) in &log {
            chain.fold(f, t);
        }
        assert_eq!(chain.head(), CfChain::fold_all(log));
        assert_eq!(chain.edges(), 4);
    }

    #[test]
    fn repeated_edge_folds_as_one_counted_run() {
        // The canonical chain hashes a thousand-iteration loop edge
        // once; the count still moves the head and the edge total.
        let mut chain = CfChain::new();
        chain.fold_run(0x10, 0x4, 1000);
        assert_eq!(chain.edges(), 1000);
        assert_eq!(
            chain.head(),
            CfChain::fold_all(std::iter::repeat_n((0x10, 0x4), 1000))
        );
        // And a different count is a different head.
        let mut other = CfChain::new();
        other.fold_run(0x10, 0x4, 999);
        assert_ne!(chain.head(), other.head());
    }

    #[test]
    fn split_runs_do_not_collide_with_merged_runs() {
        // (e,2)(e,3) and (e,5) expand to the same raw stream but only
        // the canonical (maximal) decomposition defines the chain; a
        // non-canonical split must not reproduce the head.
        let merged = CfChain::fold_runs([(8, 4, 5)]);
        let split = CfChain::fold_runs([(8, 4, 2), (8, 4, 3)]);
        assert_ne!(merged, split);
        assert_eq!(merged, CfChain::fold_all(std::iter::repeat_n((8, 4), 5)));
    }

    #[test]
    fn zero_count_run_is_a_no_op() {
        let mut chain = CfChain::new();
        chain.fold_run(1, 2, 0);
        assert_eq!(chain.head(), CHAIN_GENESIS);
        assert_eq!(chain.edges(), 0);
    }

    #[test]
    fn order_matters() {
        let ab = CfChain::fold_all([(1, 2), (3, 4)]);
        let ba = CfChain::fold_all([(3, 4), (1, 2)]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn direction_matters() {
        // (from, to) and (to, from) must chain differently: a reversed
        // edge is exactly the shape of a return-to-attacker detour.
        assert_ne!(
            CfChain::fold_all([(0x10, 0x20)]),
            CfChain::fold_all([(0x20, 0x10)])
        );
    }

    #[test]
    fn prefix_never_equals_extension() {
        // Truncating the log must change the head (length extension by
        // edge append always moves the head off any prefix head).
        let full = CfChain::fold_all([(1, 2), (3, 4), (5, 6)]);
        let short = CfChain::fold_all([(1, 2), (3, 4)]);
        assert_ne!(full, short);
    }

    #[test]
    fn edge_is_not_byte_concat_ambiguous() {
        // Fixed-width little-endian framing: (0x0102, 0x0304) must not
        // collide with any re-split of the same byte stream.
        assert_ne!(
            CfChain::fold_all([(0x0102, 0x0304)]),
            CfChain::fold_all([(0x01020304, 0)])
        );
    }

    #[test]
    fn compress_log_is_canonical_and_expands_back() {
        let raw = [(1u32, 2u32), (1, 2), (1, 2), (3, 4), (1, 2), (1, 2)];
        let runs = compress_log(raw);
        assert_eq!(runs, vec![(1, 2, 3), (3, 4, 1), (1, 2, 2)]);
        // Maximality: adjacent runs never share an edge.
        for pair in runs.windows(2) {
            assert_ne!((pair[0].0, pair[0].1), (pair[1].0, pair[1].1));
        }
        let expanded: Vec<(u32, u32)> = expand_runs(&runs).collect();
        assert_eq!(expanded, raw);
        assert_eq!(CfChain::fold_runs(runs), CfChain::fold_all(raw));
    }

    #[test]
    fn refolder_matches_streaming_fold() {
        let runs = [(0u32, 8u32, 1u32), (8, 8, 4097), (8, 0, 1), (0, 8, 2)];
        let mut refolder = RunRefolder::new();
        assert_eq!(refolder.refold(runs), CfChain::fold_runs(runs));
        // Reuse across reports never leaks state from one to the next.
        assert_eq!(refolder.refold(runs), CfChain::fold_runs(runs));
        assert_eq!(refolder.refold([]), CHAIN_GENESIS);
    }

    #[test]
    fn run_encoding_is_domain_separated_from_legacy_edge_encoding() {
        // The legacy chain hashed 28-byte messages (head ‖ from ‖ to);
        // the run chain hashes 32. A single-edge fold under the new
        // encoding must not collide with the old definition.
        let mut legacy = Sha1::new();
        legacy.update(&CHAIN_GENESIS);
        legacy.update(&7u32.to_le_bytes());
        legacy.update(&9u32.to_le_bytes());
        let legacy_head = legacy.finalize();
        assert_ne!(CfChain::fold_all([(7, 9)]).to_vec(), legacy_head);
    }
}
