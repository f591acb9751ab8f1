//! Fleet verifier oracle: hostile wire traffic must never verify.
//!
//! The fleet service accepts length-prefixed frames from thousands of
//! connections, so its decode → session check (MAC, freshness, digest)
//! pipeline is the widest untrusted-input surface in the host plane. The oracle drives
//! one provisioned device per case through the real admission path
//! (`Hello` → `Welcome` + `Challenge`), builds an honestly MACed report
//! for the issued nonce, and then attacks:
//!
//! - **Replay** — the genuine frame must verify exactly once; every
//!   verbatim re-delivery must be rejected as `ReplayedNonce`
//!   specifically, never accepted, never any other class.
//! - **Mutation** — bit-flipped, truncated, or pure-garbage frames must
//!   decode to typed errors or poison the connection; no mutated frame
//!   may ever reach an `Ok` verdict, and nothing may panic (the
//!   campaign engine converts panics into findings).
//!
//! Frames are delivered in RNG-sized chunks so stream reassembly is
//! under test too, not just whole-frame decode.

use tytan::attest::{AttestationReport, DeviceId, VerifyError};
use tytan_crypto::TaskId;
use tytan_fleet::farm::device_attestation_key;
use tytan_fleet::proto::{decode, encode, Message, PROTOCOL_VERSION};
use tytan_fleet::verifier::FleetVerifier;
use tytan_image::mutate;
use tytan_trace::Tracer;

use crate::rng::FuzzRng;

/// Feeds `bytes` to the verifier in RNG-sized chunks, discarding
/// replies (the attack arms never need them).
fn ingest_chunked(verifier: &mut FleetVerifier, device: DeviceId, bytes: &[u8], rng: &mut FuzzRng) {
    let mut offset = 0;
    while offset < bytes.len() {
        let n = rng.range(1, 16).min((bytes.len() - offset) as u64) as usize;
        let _ = verifier.ingest(device, &bytes[offset..offset + n]);
        offset += n;
    }
}

/// Hostile fleet traffic: replayed and mutated attestation frames
/// through the full verifier pipeline must never verify and never
/// panic.
pub fn fleet_frame(rng: &mut FuzzRng) -> Result<(), String> {
    let mut master = [0u8; 20];
    for b in master.iter_mut() {
        *b = rng.next_u32() as u8;
    }
    let expected: Vec<u8> = (0..20).map(|_| rng.next_u32() as u8).collect();
    let mut verifier = FleetVerifier::new(master, expected.clone(), rng.next_u64(), Tracer::null());
    let device = DeviceId::from_u64(rng.below(16));
    verifier.provision(device);

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

    // An honest report for that challenge, MACed under the device's
    // derived K_a — the only frame that is allowed to verify.
    let mut report = AttestationReport {
        id: TaskId::from_digest(&expected),
        digest: expected,
        nonce,
        mac: Vec::new(),
    };
    report.mac = device_attestation_key(&master, device)
        .to_hmac_key()
        .sign(&report.mac_input());
    let genuine = encode(
        &Message::Report {
            device,
            corr,
            report: report.clone(),
        },
        PROTOCOL_VERSION,
    );

    if rng.chance(1, 2) {
        // Replay arm: the genuine frame verifies exactly once; every
        // verbatim copy after it is a typed replay, nothing else.
        ingest_chunked(&mut verifier, device, &genuine, rng);
        let first = verifier.flush();
        if first.len() != 1 || first[0].result.is_err() {
            return Err(format!("honest report did not verify: {first:?}"));
        }
        for _ in 0..rng.range(1, 3) {
            ingest_chunked(&mut verifier, device, &genuine, rng);
            for entry in verifier.flush() {
                match entry.result {
                    Ok(()) => return Err("replayed report verified".to_string()),
                    Err(VerifyError::ReplayedNonce) => {}
                    Err(other) => {
                        return Err(format!("replay rejected as {other:?}, want ReplayedNonce"));
                    }
                }
            }
        }
        if verifier.accepted_total() != 1 {
            return Err(format!(
                "accepted count {} after replays, want 1",
                verifier.accepted_total()
            ));
        }
    } else {
        // Mutation arm: flipped, truncated, or garbage frames must
        // never produce an accepted verdict.
        let mut bytes = genuine.clone();
        match rng.below(3) {
            0 => {
                for _ in 0..rng.range(1, 8) {
                    mutate::flip_bit(&mut bytes, rng.next_u64());
                }
            }
            1 => bytes = mutate::truncated(&bytes, rng.next_u64()),
            _ => bytes = (0..rng.below(96)).map(|_| rng.next_u32() as u8).collect(),
        }
        // The oracle's invariant is about *authenticated* content: an
        // even number of flips can cancel, and a flip confined to the
        // correlation id (transport metadata, deliberately outside the
        // MAC) still carries the genuine report — both correctly
        // verify. Only a frame whose decoded report differs (or that no
        // longer decodes to this device's report at all) must never
        // reach an `Ok` verdict.
        let benign = match decode(&bytes) {
            Ok((
                Message::Report {
                    device: d,
                    report: r,
                    ..
                },
                consumed,
            )) => consumed == bytes.len() && d == device && r == report,
            _ => false,
        };
        ingest_chunked(&mut verifier, device, &bytes, rng);
        for entry in verifier.flush() {
            if entry.result.is_ok() && !benign {
                return Err("mutated frame verified".to_string());
            }
        }
        if !benign && verifier.accepted_total() != 0 {
            return Err(format!(
                "mutated traffic raised the accepted count to {}",
                verifier.accepted_total()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_fleet_traffic_never_verifies() {
        for seed in 800..1000 {
            fleet_frame(&mut FuzzRng::new(seed)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
