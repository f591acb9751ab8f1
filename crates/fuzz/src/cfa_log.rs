//! Control-flow-attestation oracle: hostile CF logs must never verify.
//!
//! The CFA verifier accepts a clear-text edge log whose only bindings
//! are the hash-chain head and the edge count inside the MAC, so the
//! log itself is attacker-writable wire data. Each case builds a random
//! synthetic [`AdmissibleEdgeSet`] *together with* an honest walk over
//! it (the generator mirrors replay semantics exactly, shadow stack
//! included), seals the walk into a [`CfaReport`], and then attacks:
//!
//! - **Honest** — the generated walk must always verify.
//! - **Detour** — one edge bent off the admissible set and *re-sealed
//!   under the real key* (the compromised-prover case: static digest
//!   and MAC both valid) must still fail, typed as a CFG violation —
//!   this is the property the whole plane exists for.
//! - **Mutation / reorder / truncation** — log tampering under the
//!   original MAC must be rejected (replay, chain, or MAC, in that
//!   order of detection) and never reach `Ok`. Mutation covers run
//!   counts too: inflating or shrinking a run changes the raw edge
//!   count inside the MAC.
//! - **Codec round-trip** — the wire form (run triples) must decode
//!   back to the same sealed report, and that decode must verify.
//! - **Non-canonical encode** — a byte stream carrying a split run
//!   (adjacent runs with the same edge) or a zero-count run must be
//!   rejected by the decoder, never silently re-canonicalised.
//!
//! Nothing here boots a platform: the oracle targets the verifier-side
//! replay/chain/MAC pipeline in isolation, so thousands of cases per
//! second are cheap.

use std::collections::{BTreeMap, BTreeSet};

use tytan::attest::{CfaReport, RemoteVerifier, VerifyError};
use tytan_crypto::{compress_log, CfChain, PlatformKey, SymmetricKey, TaskId};
use tytan_lint::{AdmissibleEdgeSet, SiteKind};

use crate::rng::FuzzRng;

/// A synthetic edge set plus one honest walk over it.
struct WalkCase {
    edges: AdmissibleEdgeSet,
    log: Vec<(u32, u32)>,
}

/// Generates an edge set and an admissible walk jointly: site kinds are
/// assigned lazily as the walk first reaches each pc, so every emitted
/// edge is admissible by construction and the shadow stack is balanced
/// the same way replay will rebalance it.
fn gen_walk(rng: &mut FuzzRng) -> WalkCase {
    let n = rng.range(3, 12) as u32; // sites at 0, 4, …, 4(n-1)
    let pcs: Vec<u32> = (0..n).map(|i| i * 4).collect();
    let instr_pcs: BTreeSet<u32> = pcs.iter().copied().collect();
    let mut sites: BTreeMap<u32, SiteKind> = BTreeMap::new();
    let mut shadow: Vec<u32> = Vec::new();
    let mut log = Vec::new();
    let mut cur = 0u32;
    let steps = rng.range(1, 48);
    for _ in 0..steps {
        if !instr_pcs.contains(&cur) {
            break; // walked off the site universe (e.g. past a call's ret)
        }
        let kind = sites.entry(cur).or_insert_with(|| {
            let target = pcs[rng.below(u64::from(n)) as usize];
            match rng.below(if shadow.is_empty() { 4 } else { 5 }) {
                0 => SiteKind::Jump { target },
                1 => SiteKind::CondJump { target },
                2 => SiteKind::Call {
                    target,
                    ret: cur + 4,
                },
                3 => {
                    if rng.chance(1, 2) {
                        SiteKind::Unproven
                    } else {
                        let mut targets: Vec<u32> =
                            pcs.iter().copied().filter(|_| rng.chance(1, 2)).collect();
                        if !targets.contains(&target) {
                            targets.push(target);
                            targets.sort_unstable();
                        }
                        SiteKind::Indirect { targets }
                    }
                }
                _ => SiteKind::Return,
            }
        });
        let to = match kind {
            SiteKind::Jump { target } | SiteKind::CondJump { target } => *target,
            SiteKind::Call { target, ret } => {
                shadow.push(*ret);
                *target
            }
            SiteKind::Return => match shadow.pop() {
                Some(ret) => ret,
                None => break, // revisited a return with nothing to pop
            },
            SiteKind::Indirect { targets } => targets[rng.below(targets.len() as u64) as usize],
            SiteKind::Unproven => pcs[rng.below(u64::from(n)) as usize],
        };
        log.push((cur, to));
        cur = to;
    }
    WalkCase {
        edges: AdmissibleEdgeSet {
            image_name: "fuzz-walk".into(),
            entry: 0,
            text_len: n * 4,
            instr_pcs,
            sites,
            external_sites: BTreeSet::new(),
        },
        log,
    }
}

/// Rebuilds a report's chain head from a (possibly tampered) *raw* edge
/// log — compressed to its canonical run decomposition, exactly as a
/// device monitor would record it — and re-seals it under `ka`: the
/// compromised-prover attacker who holds the device key but cannot
/// change what the static CFG admits.
fn reseal(ka: &SymmetricKey, report: &CfaReport, raw: Vec<(u32, u32)>) -> CfaReport {
    let log = compress_log(raw.iter().copied());
    let head = CfChain::fold_runs(log.iter().copied());
    let mut sealed = report.clone();
    sealed.log = log;
    sealed.chain_head = head;
    sealed.mac = ka.to_hmac_key().sign(&sealed.mac_input());
    sealed
}

/// Hostile control-flow logs: detoured, mutated, reordered, and
/// truncated edge logs must never verify; honest walks always must.
pub fn cfa_log(rng: &mut FuzzRng) -> Result<(), String> {
    let case = gen_walk(rng);
    let digest: Vec<u8> = (0..20).map(|_| rng.next_u32() as u8).collect();
    let nonce: Vec<u8> = (0..8).map(|_| rng.next_u32() as u8).collect();
    let mut kp = [0u8; 20];
    for b in kp.iter_mut() {
        *b = rng.next_u32() as u8;
    }
    let ka = PlatformKey::from_bytes(kp).derive(tytan::attest::ATTEST_PURPOSE);
    let verifier = RemoteVerifier::new(ka.clone());
    let template = CfaReport {
        id: TaskId::from_digest(&digest),
        digest: digest.clone(),
        nonce: nonce.clone(),
        log: Vec::new(),
        chain_head: [0u8; 20],
        mac: Vec::new(),
    };
    let honest = reseal(&ka, &template, case.log.clone());

    // The honest walk must verify — the generator and replay disagree
    // about admissibility otherwise, which is itself a finding.
    verifier
        .verify_cfa(&honest, &nonce, &digest, &case.edges)
        .map_err(|e| format!("honest walk rejected: {e:?} log={:?}", case.log))?;

    match rng.below(6) {
        0 => {
            // Single-edge detour in the *raw* stream, re-sealed under
            // the real key: the destination is knocked off 4-byte
            // alignment, so it can match no site target, no
            // shadow-stack return, and no instruction start. MAC and
            // digest stay valid — only the CFG replay can catch this,
            // and it must, typed, with the violation index reported as
            // a raw-stream position regardless of how the runs around
            // it compress.
            if case.log.is_empty() {
                return Ok(());
            }
            let i = rng.below(case.log.len() as u64) as usize;
            let mut raw = case.log.clone();
            raw[i].1 ^= 2;
            let detoured = reseal(&ka, &honest, raw);
            match verifier.verify_cfa(&detoured, &nonce, &digest, &case.edges) {
                Ok(()) => Err("re-sealed detour verified".to_string()),
                Err(
                    VerifyError::InadmissibleEdge { index, .. }
                    | VerifyError::UnprovenSiteViolation { index, .. },
                ) if index == i => Ok(()),
                Err(other) => Err(format!(
                    "detour at {i} rejected as {other:?}, want a CFG violation at {i}"
                )),
            }
        }
        1 => {
            // Bit-flipped run under the original MAC: flipping `from`
            // or `to` breaks replay or the chain; flipping `count`
            // changes the raw edge total inside the MAC. Any change
            // must be rejected — never Ok.
            if honest.log.is_empty() {
                return Ok(());
            }
            let i = rng.below(honest.log.len() as u64) as usize;
            let mut tampered = honest.clone();
            let bit = 1u32 << rng.below(32);
            match rng.below(3) {
                0 => tampered.log[i].0 ^= bit,
                1 => tampered.log[i].1 ^= bit,
                _ => tampered.log[i].2 ^= bit,
            }
            match verifier.verify_cfa(&tampered, &nonce, &digest, &case.edges) {
                Ok(()) => Err(format!("mutated run {i} verified")),
                Err(_) => Ok(()),
            }
        }
        2 => {
            // Reorder under the original MAC: runs swapped whole keep
            // the raw edge total, so the MAC may hold and the permuted
            // log may even replay cleanly — the order-sensitive chain
            // must then expose it.
            if honest.log.len() < 2 {
                return Ok(());
            }
            let i = rng.below(honest.log.len() as u64) as usize;
            let j = rng.below(honest.log.len() as u64) as usize;
            let mut tampered = honest.clone();
            tampered.log.swap(i, j);
            if tampered.log == honest.log {
                return Ok(()); // swapped identical runs: still honest
            }
            match verifier.verify_cfa(&tampered, &nonce, &digest, &case.edges) {
                Ok(()) => Err(format!("reordered log ({i}<->{j}) verified")),
                Err(_) => Ok(()),
            }
        }
        3 => {
            // Truncation under the original MAC: every run carries at
            // least one edge, so dropping runs shrinks the raw edge
            // count inside the MAC — this must fail as BadMac
            // specifically; an attacker cannot silently shorten the
            // evidence.
            if honest.log.is_empty() {
                return Ok(());
            }
            let drop = rng.range(1, honest.log.len() as u64) as usize;
            let mut tampered = honest.clone();
            tampered.log.truncate(honest.log.len() - drop);
            match verifier.verify_cfa(&tampered, &nonce, &digest, &case.edges) {
                Ok(()) => Err(format!("log truncated by {drop} runs verified")),
                Err(VerifyError::BadMac) => Ok(()),
                Err(other) => Err(format!(
                    "truncation rejected as {other:?}, want BadMac (count is MACed)"
                )),
            }
        }
        4 => {
            // Codec round-trip: the wire form must decode back to the
            // identical sealed report, and the decode must verify. Logs
            // produced by `compress_log` are canonical, so it must be
            // lossless.
            let bytes = honest.to_bytes();
            let dec = CfaReport::from_bytes(&bytes)
                .ok_or_else(|| "canonical encode failed to decode".to_string())?;
            if dec != honest {
                return Err(format!("round-trip changed the report: {dec:?}"));
            }
            verifier
                .verify_cfa(&dec, &nonce, &digest, &case.edges)
                .map_err(|e| format!("decoded honest report rejected: {e:?}"))
        }
        _ => {
            // Non-canonical v4 bytes: splitting a run into two adjacent
            // runs over the same edge (or zeroing a count) preserves or
            // shrinks the raw stream while changing the run
            // decomposition the chain folds over. The decoder must
            // reject such an encoding outright — re-canonicalising it
            // silently would let a split-run forgery reach the refolder
            // under a chain head computed over the forged decomposition.
            if honest.log.is_empty() {
                return Ok(());
            }
            let i = rng.below(honest.log.len() as u64) as usize;
            let mut forged = honest.clone();
            let (from, to, count) = forged.log[i];
            if count >= 2 {
                let left = 1 + rng.below(u64::from(count) - 1) as u32;
                forged.log[i] = (from, to, left);
                forged.log.insert(i + 1, (from, to, count - left));
            } else {
                forged.log[i].2 = 0;
            }
            match CfaReport::from_bytes(&forged.to_bytes()) {
                None => Ok(()),
                Some(_) => Err(format!(
                    "non-canonical v4 log at run {i} decoded instead of being rejected"
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_cf_logs_never_verify() {
        for seed in 4200..4400 {
            cfa_log(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
