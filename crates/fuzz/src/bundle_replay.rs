//! Forensic-bundle oracle: every typed rejection must replay to itself.
//!
//! The observability plane promises that a [`ForensicBundle`] dumped by
//! the fleet verifier is *self-contained*: fed back through
//! [`replay_bundle`], the recorded frame re-verifies against the
//! restored session state and reproduces the identical typed verdict —
//! offline, with no access to the original run. This oracle drives one
//! random rejection class (verbatim replay, MAC forgery, or a
//! wrong-software digest) through the real ingest → flush pipeline and
//! checks the whole chain:
//!
//! - exactly one bundle is produced for the rejection;
//! - its JSON encoding round-trips byte-identically;
//! - replaying it reproduces the recorded verdict code;
//! - a mutated copy of the bundle JSON fails *typed* — parse errors and
//!   verdict mismatches are fine, panics are findings (the campaign
//!   engine converts them).

use tytan::attest::{AttestationReport, DeviceId};
use tytan_crypto::TaskId;
use tytan_fleet::farm::device_attestation_key;
use tytan_fleet::proto::{decode, encode, Message, PROTOCOL_VERSION};
use tytan_fleet::recorder::{replay_bundle, ForensicBundle};
use tytan_fleet::verifier::FleetVerifier;
use tytan_trace::Tracer;

use crate::rng::FuzzRng;

/// Signs an honest report for `device` over `digest` and `nonce`.
fn signed_report(
    master: &[u8; 20],
    device: DeviceId,
    digest: &[u8],
    nonce: &[u8],
) -> AttestationReport {
    let mut report = AttestationReport {
        id: TaskId::from_digest(digest),
        digest: digest.to_vec(),
        nonce: nonce.to_vec(),
        mac: Vec::new(),
    };
    report.mac = device_attestation_key(master, device)
        .to_hmac_key()
        .sign(&report.mac_input());
    report
}

/// A random typed rejection must dump exactly one bundle that
/// round-trips and replays to the identical verdict; mutated bundles
/// must fail typed, never panic.
pub fn bundle_replay(rng: &mut FuzzRng) -> Result<(), String> {
    let mut master = [0u8; 20];
    for b in master.iter_mut() {
        *b = rng.next_u32() as u8;
    }
    let expected: Vec<u8> = (0..20).map(|_| rng.next_u32() as u8).collect();
    let mut verifier = FleetVerifier::new(master, expected.clone(), rng.next_u64(), Tracer::null());
    let device = DeviceId::from_u64(rng.below(16));
    verifier.provision(device);
    verifier.collect_bundles();

    // The real admission path: Hello yields a Welcome and a challenge.
    let hello = encode(
        &Message::Hello {
            device,
            max_version: PROTOCOL_VERSION,
        },
        PROTOCOL_VERSION,
    );
    let replies = verifier.ingest(device, &hello);
    let (corr, nonce) = replies
        .iter()
        .find_map(|frame| match decode(frame) {
            Ok((Message::Challenge { corr, nonce, .. }, _)) => Some((corr, nonce)),
            _ => None,
        })
        .ok_or("hello produced no challenge")?;

    // One random rejection class through the pipeline.
    let expected_verdict = match rng.below(3) {
        0 => {
            // Verbatim replay: accept once, then the identical frame.
            let report = signed_report(&master, device, &expected, &nonce);
            let frame = encode(
                &Message::Report {
                    device,
                    corr,
                    report,
                },
                PROTOCOL_VERSION,
            );
            verifier.ingest(device, &frame);
            let first = verifier.flush();
            if first.len() != 1 || first[0].result.is_err() {
                return Err(format!("honest report did not verify: {first:?}"));
            }
            verifier.ingest(device, &frame);
            "replayed_nonce"
        }
        1 => {
            // MAC forgery: one flipped MAC byte.
            let mut report = signed_report(&master, device, &expected, &nonce);
            let at = rng.below(report.mac.len() as u64) as usize;
            report.mac[at] ^= 1 << rng.below(8);
            verifier.ingest(
                device,
                &encode(
                    &Message::Report {
                        device,
                        corr,
                        report,
                    },
                    PROTOCOL_VERSION,
                ),
            );
            "bad_mac"
        }
        _ => {
            // Wrong software: a properly signed report over a digest
            // the fleet does not expect.
            let mut wrong = expected.clone();
            wrong[rng.below(20) as usize] ^= 0xFF;
            let report = signed_report(&master, device, &wrong, &nonce);
            verifier.ingest(
                device,
                &encode(
                    &Message::Report {
                        device,
                        corr,
                        report,
                    },
                    PROTOCOL_VERSION,
                ),
            );
            "digest_mismatch"
        }
    };
    let entries = verifier.flush();
    if entries.len() != 1 || entries[0].result.is_ok() {
        return Err(format!("expected one rejection, got {entries:?}"));
    }
    let bundles = verifier.take_bundles();
    if bundles.len() != 1 {
        return Err(format!("expected one bundle, got {}", bundles.len()));
    }
    let bundle = &bundles[0];
    if bundle.verdict != expected_verdict {
        return Err(format!(
            "bundle verdict {:?}, want {expected_verdict:?}",
            bundle.verdict
        ));
    }

    // The JSON encoding round-trips byte-identically.
    let json = bundle.to_json();
    let reparsed = ForensicBundle::from_json(&json).map_err(|e| format!("bundle reparse: {e}"))?;
    if reparsed.to_json() != json {
        return Err("bundle JSON round trip is not byte-identical".to_string());
    }

    // Offline replay reproduces the recorded verdict.
    let outcome = replay_bundle(&json).map_err(|e| format!("bundle replay: {e}"))?;
    if !outcome.matches {
        return Err(format!(
            "bundle replayed to code {} but recorded {}",
            outcome.replayed_code, outcome.recorded_code
        ));
    }

    // A mutated copy must fail typed — any Ok/Err is fine, panics are
    // the finding (the campaign engine converts them).
    let mut mutated: Vec<u8> = json.clone().into_bytes();
    match rng.below(3) {
        0 => {
            let at = rng.below(mutated.len() as u64) as usize;
            mutated[at] ^= 1 << rng.below(8);
        }
        1 => {
            mutated.truncate(rng.below(mutated.len() as u64 + 1) as usize);
        }
        _ => mutated = (0..rng.below(64)).map(|_| rng.next_u32() as u8).collect(),
    }
    let mutated = String::from_utf8_lossy(&mutated).into_owned();
    if mutated != json {
        // Whatever the verdict, it must be reached without panicking.
        let _ = replay_bundle(&mutated);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_always_replay_to_their_recorded_verdict() {
        for seed in 4200..4400 {
            bundle_replay(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
