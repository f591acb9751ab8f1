//! Fleet attestation service, end to end across crates.
//!
//! The fleet crate's own tests exercise its modules in isolation; here
//! the full stack runs together: real [`tytan::platform::Platform`]
//! devices booted under diversified keys, the framed wire protocol, the
//! fleet verifier, and the orchestrated [`tytan_fleet::run_fleet`]
//! driver — at integration-test scale (tens of devices, not thousands;
//! the CI `fleet-smoke` job covers 1k).

use tytan::attest::{DeviceId, VerifyError};
use tytan_fleet::farm::{reference_digest, DeviceSim};
use tytan_fleet::proto::{decode, encode, Message, PROTOCOL_VERSION};
use tytan_fleet::verifier::FleetVerifier;
use tytan_fleet::{run_fleet, FleetConfig};
use tytan_trace::Tracer;

#[test]
fn small_fleet_round_is_clean_and_books_balance() {
    let outcome = run_fleet(&FleetConfig {
        devices: 16,
        rounds: 2,
        seed: 0xF1EE7,
        chunk: 3,
        ..FleetConfig::default()
    })
    .expect("fleet runs");
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(outcome.accepted, 32);
    assert_eq!(outcome.reports, 32);
    assert_eq!(outcome.device_errors, 0);
    assert!(outcome.throughput > 0.0);
}

#[test]
fn injected_attacks_are_fully_booked_at_integration_scale() {
    let outcome = run_fleet(&FleetConfig {
        devices: 12,
        rounds: 2,
        seed: 0xBAD5EED,
        replay_every: Some(3),
        corrupt_every: Some(4),
        ..FleetConfig::default()
    })
    .expect("fleet runs");
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(outcome.accepted, 24);
    // Devices 0,3,6,9 replay twice each; devices 0,4,8 forge twice each.
    assert_eq!(outcome.injected_replays, 8);
    assert_eq!(outcome.injected_corrupt, 6);
    assert_eq!(outcome.rejected_replay, 8);
    assert_eq!(outcome.rejected_bad_mac, 6);
    assert_eq!(outcome.rejected_nonce, 0);
    assert_eq!(outcome.rejected_digest, 0);
    assert_eq!(outcome.decode_errors, 0);
}

/// A real booted platform attests through the wire protocol into the
/// fleet verifier — no hand-built reports anywhere in the loop.
#[test]
fn real_device_attests_through_the_wire_and_replay_is_typed() {
    let master = [0x42u8; 20];
    let (_, digest) = reference_digest().expect("reference boots");
    let device = DeviceId::from_u64(7);
    let mut sim = DeviceSim::provision(device, &master).expect("device boots");

    let mut verifier = FleetVerifier::new(master, digest, 0x5417, Tracer::null());
    verifier.provision(device);

    // Hello → Welcome + Challenge over the wire.
    let hello = encode(
        &Message::Hello {
            device,
            max_version: PROTOCOL_VERSION,
        },
        PROTOCOL_VERSION,
    );
    let replies = verifier.ingest(device, &hello);
    assert_eq!(replies.len(), 2);
    let (corr, nonce) = match decode(&replies[1]).expect("challenge decodes").0 {
        Message::Challenge { corr, nonce, .. } => (corr, nonce),
        other => panic!("expected challenge, got {other:?}"),
    };

    // The platform's own Remote Attest task answers the challenge.
    let report = sim.respond(&nonce).expect("platform attests");
    let frame = encode(
        &Message::Report {
            device,
            corr,
            report,
        },
        PROTOCOL_VERSION,
    );
    // Byte-by-byte delivery: reassembly plus verification in one pass.
    for byte in &frame {
        verifier.ingest(device, std::slice::from_ref(byte));
    }
    let entries = verifier.flush();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].result, Ok(()));
    assert_eq!(verifier.accepted_total(), 1);

    // The identical frame again is a replay, typed as such.
    verifier.ingest(device, &frame);
    let entries = verifier.flush();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].result, Err(VerifyError::ReplayedNonce));
    assert_eq!(verifier.accepted_total(), 1);
}

#[test]
fn same_seed_reproduces_the_same_fleet_books() {
    let config = FleetConfig {
        devices: 10,
        rounds: 1,
        seed: 99,
        replay_every: Some(5),
        ..FleetConfig::default()
    };
    let a = run_fleet(&config).expect("first run");
    let b = run_fleet(&config).expect("second run");
    assert!(a.clean() && b.clean());
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.rejected_replay, b.rejected_replay);
    assert_eq!(a.reports, b.reports);
}
