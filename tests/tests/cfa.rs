//! Control-flow attestation, end to end across crates.
//!
//! Two properties the plane exists for, proven on real booted
//! platforms with no hand-built evidence anywhere:
//!
//! - A monitored task's control-flow report travels the real wire path
//!   (Hello → Welcome + Challenge → `CfaReport` frame, delivered byte
//!   by byte) into the fleet verifier and verifies against the edge
//!   set `tytan-lint` extracted statically — and the same run with one
//!   injected non-admissible edge is rejected as `InadmissibleEdge`,
//!   not some generic failure.
//! - A runtime detour that leaves the static image untouched (a
//!   smashed return address in task RAM) still passes *static*
//!   attestation — the digest is over code, and the code never changed
//!   — and is caught **only** by the control-flow plane, via the
//!   shadow-stack replay.

use tytan::attest::{DeviceId, RemoteVerifier, VerifyError};
use tytan::platform::{Platform, PlatformConfig};
use tytan::toolchain::SecureTaskBuilder;
use tytan_fleet::farm::{fleet_admissible_edges, reference_digest, DeviceSim};
use tytan_fleet::proto::{decode, encode, Message, PROTOCOL_VERSION};
use tytan_fleet::verifier::FleetVerifier;

/// A real platform's control-flow evidence through the wire protocol
/// into the fleet verifier: the honest report verifies, and an
/// injected non-admissible edge in an otherwise genuine report (MAC
/// and chain head intact — the MAC covers the chain, not the raw log)
/// is rejected with the typed `InadmissibleEdge`.
#[test]
fn cf_attested_report_travels_the_wire_and_detours_are_typed() {
    let master = [0x7Au8; 20];
    let (_, digest) = reference_digest().expect("reference boots");
    let device = DeviceId::from_u64(3);
    let mut sim = DeviceSim::provision(device, &master).expect("device boots");
    sim.arm_cfa().expect("monitor arms");
    sim.run(50_000).expect("monitored run");

    let mut verifier = FleetVerifier::new(master, digest, 0xCFA, tytan_trace::Tracer::null());
    verifier.provision_edge_set(fleet_admissible_edges());
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

    // The platform seals its monitored run for the challenge.
    let report = sim.respond_cfa(&nonce).expect("platform attests");
    assert!(!report.log.is_empty(), "looping task must record edges");

    // First: the same report with one edge bent off the static CFG.
    // The destination is knocked off 4-byte alignment so no site kind
    // admits it; MAC and chain head are untouched and still valid, so
    // only the edge replay can reject this — and it must, typed, at
    // the offending index. (Sent before the honest report so the
    // freshness check cannot mask the CFG verdict.)
    let mut detoured = report.clone();
    detoured.log[0].1 ^= 2;
    let frame = encode(
        &Message::CfaReport {
            device,
            corr,
            report: detoured,
        },
        PROTOCOL_VERSION,
    );
    verifier.ingest(device, &frame);
    let entries = verifier.flush();
    assert_eq!(entries.len(), 1);
    match entries[0].result {
        Err(VerifyError::InadmissibleEdge { index, .. }) => assert_eq!(index, 0),
        ref other => panic!("detour verdict: {other:?}, want InadmissibleEdge"),
    }
    assert_eq!(verifier.accepted_total(), 0);

    // Then the honest frame, delivered byte by byte: reassembly plus
    // replay plus chain refold in one pass.
    let frame = encode(
        &Message::CfaReport {
            device,
            corr,
            report,
        },
        PROTOCOL_VERSION,
    );
    for byte in &frame {
        verifier.ingest(device, std::slice::from_ref(byte));
    }
    let entries = verifier.flush();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].result, Ok(()));
    assert_eq!(verifier.accepted_total(), 1);
}

/// The out-of-region blind spot, closed: a smashed return address that
/// sends execution *outside* the monitored code region used to vanish
/// from the evidence entirely — the monitor dropped boundary-crossing
/// edges, so the sealed log was an admissible prefix and the excursion
/// was invisible to replay and chain alike. Now the exit records an
/// `OUT_OF_REGION` sentinel edge, the chain commits to it, and the
/// verifier — with no external call sites declared for this task —
/// types the excursion as the `InadmissibleEdge` it is.
#[test]
fn out_of_region_detour_is_recorded_and_rejected_typed() {
    let source = SecureTaskBuilder::new(
        "escaper",
        "main:\n movi r1, gate\n call work\n\
         after:\n jmp after\n\
         work:\n\
         wspin:\n ldw r3, [r1]\n cmpi r3, 0\n jz wspin\n ret\n",
    )
    .data("gate:\n .word 0\n")
    .build()
    .expect("task assembles");
    let edges = tytan_lint::admissible_edges(&source.image);
    assert!(
        edges.external_sites.is_empty(),
        "no external call sites are declared, so any region exit is hostile"
    );

    let mut platform: Platform = Platform::boot(PlatformConfig::default()).expect("boots");
    let token = platform.begin_load(&source, 2);
    let (_, task) = platform.wait_load(token, 400_000_000).expect("loads");
    let digest = platform.local_attest(task).expect("measured");
    platform.arm_cf_monitor(task).expect("monitor arms");

    // Park the task inside `work` with the return address live.
    platform.run_for(50_000).expect("monitored run");
    let record = platform.rtm().lookup(task).expect("task is measured");
    let code = record.code;
    let data = record.data;
    let ret_abs = code.start() + source.symbol_offset("after").expect("label");

    // The attacker's write: redirect the saved return address to a pc
    // *outside* the monitored code region (the task's own data region —
    // not entry-protected code, so the transfer itself is not blocked).
    let machine = platform.machine_mut();
    let mut smashed_at = None;
    let mut addr = data.start();
    while addr + 4 <= data.start() + data.len() {
        if machine.read_word(addr).expect("task RAM reads") == ret_abs {
            machine
                .write_word(addr, data.start())
                .expect("task RAM writes");
            smashed_at = Some(addr);
            break;
        }
        addr += 4;
    }
    smashed_at.expect("saved return address found on the stack");

    // Release the gate and let the poisoned return leave the region.
    // Whatever the platform then does about executing data (fault,
    // kill, garbage), the monitor has already recorded the exit edge.
    let gate_abs = code.start() + source.symbol_offset("gate").expect("label");
    machine.write_word(gate_abs, 1).expect("gate writes");
    let _ = platform.run_for(50_000);

    let monitor = platform.cf_monitor().expect("monitor is still armed");
    assert!(
        monitor
            .runs()
            .iter()
            .any(|&(_, to, _)| to == tytan_lint::OUT_OF_REGION),
        "the region exit must appear in the evidence: {:?}",
        monitor.runs()
    );

    let verifier = RemoteVerifier::new(platform.attestation_key());
    let cfa = platform
        .remote_attest_cfa(task, b"escape-nonce")
        .expect("attests with evidence");
    match verifier.verify_cfa(&cfa, b"escape-nonce", &digest, &edges) {
        Err(VerifyError::InadmissibleEdge { to, .. }) => {
            assert_eq!(
                to,
                tytan_lint::OUT_OF_REGION,
                "the verdict names the region exit itself"
            );
        }
        other => panic!("CFA verdict: {other:?}, want InadmissibleEdge at the region exit"),
    }
}

/// A ROP-style detour that never touches the task's code: the saved
/// return address on the stack is overwritten between run slices, so
/// the measured image — and therefore static attestation — is
/// unchanged, yet the return lands somewhere the matching call never
/// pointed it. Static attestation stays green; the control-flow plane
/// alone catches the hijack, as a typed `InadmissibleEdge` from the
/// shadow-stack replay.
#[test]
fn stack_smash_passes_static_attestation_and_only_cfa_catches_it() {
    // `work` spins until the test releases it by writing `gate`, so the
    // call frame (and the saved return address) is live on the stack at
    // a deterministic point.
    let source = SecureTaskBuilder::new(
        "smashable",
        "main:\n movi r1, gate\n call work\n\
         after:\n jmp after\n\
         work:\n\
         wspin:\n ldw r3, [r1]\n cmpi r3, 0\n jz wspin\n ret\n",
    )
    .data("gate:\n .word 0\n")
    .build()
    .expect("task assembles");
    let edges = tytan_lint::admissible_edges(&source.image);
    assert!(
        edges.sites.len() >= 4,
        "call, jmp, jz and ret sites expected"
    );

    let mut platform: Platform = Platform::boot(PlatformConfig::default()).expect("boots");
    let token = platform.begin_load(&source, 2);
    let (_, task) = platform.wait_load(token, 400_000_000).expect("loads");
    let digest = platform.local_attest(task).expect("measured");
    platform.arm_cf_monitor(task).expect("monitor arms");

    // Run until the task is parked inside `work` with the return
    // address for `after` on its stack.
    platform.run_for(50_000).expect("monitored run");
    let record = platform.rtm().lookup(task).expect("task is measured");
    let code = record.code;
    let data = record.data;
    let ret_abs = code.start() + source.symbol_offset("after").expect("label");

    // The attacker's write: scan the task's RAM for the saved return
    // address and redirect it to the task's own entry — an aligned,
    // real instruction, so execution continues cleanly. No code byte
    // changes.
    let machine = platform.machine_mut();
    let mut smashed_at = None;
    let mut addr = data.start();
    while addr + 4 <= data.start() + data.len() {
        if machine.read_word(addr).expect("task RAM reads") == ret_abs {
            machine
                .write_word(addr, code.start())
                .expect("task RAM writes");
            smashed_at = Some(addr);
            break;
        }
        addr += 4;
    }
    let smashed_at = smashed_at.expect("saved return address found on the stack");

    // Release the gate (it lives below the smashed slot, in .data) and
    // let the poisoned return execute.
    let gate_abs = code.start() + source.symbol_offset("gate").expect("label");
    assert_ne!(gate_abs, smashed_at, "gate and frame must not collide");
    machine.write_word(gate_abs, 1).expect("gate writes");
    platform.run_for(50_000).expect("poisoned run");

    // Static attestation is blind to the hijack: the image digest never
    // changed, so the plain report still verifies.
    let verifier = RemoteVerifier::new(platform.attestation_key());
    let plain = platform
        .remote_attest(task, b"static-nonce")
        .expect("attests");
    assert_eq!(
        verifier.verify(&plain, b"static-nonce", &digest),
        Ok(()),
        "static attestation must NOT catch a pure control-flow detour"
    );

    // The control-flow plane is not: the return edge disagrees with the
    // shadow stack and is typed as inadmissible.
    let cfa = platform
        .remote_attest_cfa(task, b"cfa-nonce")
        .expect("attests with evidence");
    let ret_site = *edges
        .sites
        .iter()
        .find(|(_, kind)| matches!(kind, tytan_lint::SiteKind::Return))
        .expect("the task has exactly one ret")
        .0;
    match verifier.verify_cfa(&cfa, b"cfa-nonce", &digest, &edges) {
        Err(VerifyError::InadmissibleEdge { from, to, .. }) => {
            assert_eq!(from, ret_site, "the ret site is the offender");
            assert_eq!(to, 0, "the poisoned return landed at the entry");
        }
        other => panic!("CFA verdict: {other:?}, want InadmissibleEdge"),
    }
}
