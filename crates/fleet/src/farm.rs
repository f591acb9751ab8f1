//! The device farm: simulated TyTAN devices for fleet-scale runs.
//!
//! Every device is a full [`Platform`] — real secure boot, real RTM
//! measurement, real attestation key derivation — not a mock that signs
//! whatever it is handed. Devices are provisioned with per-device
//! platform keys derived from a fleet master secret keyed by
//! [`DeviceId`] ([`device_platform_key`]), mirroring how a manufacturer
//! diversifies one injection secret across a production run; the
//! verifier derives the same keys from the same master and never stores
//! per-device state beyond its [`tytan::attest::VerifierSession`].
//!
//! All devices run the same task image, so one [`reference_digest`] boot
//! provisions the expected measurement for the whole fleet.

use std::sync::OnceLock;
use tytan::attest::{AttestationReport, CfaReport, DeviceId, ATTEST_PURPOSE};
use tytan::platform::{Platform, PlatformConfig, PlatformError};
use tytan::toolchain::{SecureTaskBuilder, TaskSource};
use tytan_crypto::{Digest, PlatformKey, Sha1, SymmetricKey, TaskId};
use tytan_lint::AdmissibleEdgeSet;

/// Load budget (guest cycles) for the fleet task.
const LOAD_BUDGET: u64 = 400_000_000;

/// Derives the per-device platform key `K_p(d)` from the fleet master
/// secret: `SHA-1(master ‖ id)`, the standard key-diversification shape.
/// Both the factory (device side) and the verifier compute this; neither
/// ships the master to the field.
pub fn device_platform_key(master: &[u8; 20], device: DeviceId) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(master);
    h.update(&device.to_bytes());
    h.finalize_array()
}

/// Derives the per-device attestation key `K_a(d)` the verifier shares
/// with device `d` (symmetric setting, as in the paper).
pub fn device_attestation_key(master: &[u8; 20], device: DeviceId) -> SymmetricKey {
    PlatformKey::from_bytes(device_platform_key(master, device)).derive(ATTEST_PURPOSE)
}

/// The task image every fleet device runs: a counter loop, the same
/// shape the paper's use case keeps resident.
///
/// Built once per process, as a toolchain builds a binary once for the
/// whole production run; every device still loads and measures it.
pub fn fleet_task_source() -> &'static TaskSource {
    static SOURCE: OnceLock<TaskSource> = OnceLock::new();
    SOURCE.get_or_init(build_fleet_task)
}

fn build_fleet_task() -> TaskSource {
    SecureTaskBuilder::new(
        "fleet-task",
        "main:\n movi r1, counter\n\
         loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n jmp loop\n",
    )
    .data("counter:\n .word 0\n")
    .build()
    // INVARIANT: the source above is a constant, so it assembles in every
    // run or in none; `cached_fleet_task_matches_a_fresh_build` builds it.
    .expect("fleet task assembles")
}

/// The admissible edge set `tytan-lint` extracts from the fleet task's
/// reference image: the static CFG the verifier replays every reported
/// control-flow log against. Pure static analysis — no platform boots.
pub fn fleet_admissible_edges() -> AdmissibleEdgeSet {
    tytan_lint::admissible_edges(&fleet_task_source().image)
}

/// Boots one reference platform and returns the fleet task's measured
/// identity and digest. Every honest device reports exactly this digest
/// (measurement depends on the binary, not the platform key), so the
/// verifier provisions it fleet-wide.
///
/// # Errors
///
/// Any [`PlatformError`] from the reference boot or load.
pub fn reference_digest() -> Result<(TaskId, Vec<u8>), PlatformError> {
    let sim = DeviceSim::provision(DeviceId::from_u64(0), &[0u8; 20])?;
    let digest = sim
        .platform
        .local_attest(sim.task)
        .ok_or(PlatformError::NoSuchTask)?;
    Ok((sim.task, digest))
}

/// One simulated device: a booted platform with the fleet task loaded
/// and measured, ready to answer challenges.
pub struct DeviceSim {
    device: DeviceId,
    platform: Platform,
    task: TaskId,
}

impl std::fmt::Debug for DeviceSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSim")
            .field("device", &self.device)
            .field("task", &self.task)
            .finish()
    }
}

impl DeviceSim {
    /// Boots a device: secure boot under its diversified platform key,
    /// then loads and measures the fleet task.
    ///
    /// # Errors
    ///
    /// Any [`PlatformError`] from boot or load.
    pub fn provision(device: DeviceId, master: &[u8; 20]) -> Result<Self, PlatformError> {
        let config = PlatformConfig {
            platform_key: device_platform_key(master, device),
            ..PlatformConfig::default()
        };
        let mut platform = Platform::boot(config)?;
        let token = platform.begin_load(fleet_task_source(), 2);
        let (_, task) = platform.wait_load(token, LOAD_BUDGET)?;
        Ok(DeviceSim {
            device,
            platform,
            task,
        })
    }

    /// This device's identity.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Answers a challenge: a MAC-authenticated report over the fleet
    /// task's measurement for `nonce`, produced by the platform's own
    /// Remote Attest task.
    ///
    /// # Errors
    ///
    /// Any [`PlatformError`] from the attestation call.
    pub fn respond(&mut self, nonce: &[u8]) -> Result<AttestationReport, PlatformError> {
        self.platform.remote_attest(self.task, nonce)
    }

    /// Arms the control-flow monitor over the fleet task's code region,
    /// starting a fresh edge log.
    ///
    /// # Errors
    ///
    /// Any [`PlatformError`] from the arm.
    pub fn arm_cfa(&mut self) -> Result<(), PlatformError> {
        self.platform.arm_cf_monitor(self.task)
    }

    /// Runs the platform for `cycles` guest cycles (the monitored task
    /// executes and accumulates control-flow evidence).
    ///
    /// # Errors
    ///
    /// Any [`PlatformError`] from execution.
    pub fn run(&mut self, cycles: u64) -> Result<(), PlatformError> {
        self.platform.run_for(cycles)
    }

    /// Answers a challenge with a control-flow-attested report sealing
    /// everything the armed monitor has recorded.
    ///
    /// # Errors
    ///
    /// Any [`PlatformError`]; notably
    /// [`PlatformError::NoCfEvidence`] if [`DeviceSim::arm_cfa`] was
    /// never called or the log overflowed.
    pub fn respond_cfa(&mut self, nonce: &[u8]) -> Result<CfaReport, PlatformError> {
        self.platform.remote_attest_cfa(self.task, nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytan::attest::VerifierSession;

    #[test]
    fn key_diversification_is_per_device() {
        let master = [7u8; 20];
        let a = device_platform_key(&master, DeviceId::from_u64(1));
        let b = device_platform_key(&master, DeviceId::from_u64(2));
        assert_ne!(a, b);
        assert_eq!(a, device_platform_key(&master, DeviceId::from_u64(1)));
        let other_master = [8u8; 20];
        assert_ne!(a, device_platform_key(&other_master, DeviceId::from_u64(1)));
    }

    #[test]
    fn provisioned_device_attests_against_derived_key() {
        let master = [3u8; 20];
        let device = DeviceId::from_u64(42);
        let (_, digest) = reference_digest().expect("reference boots");
        let mut sim = DeviceSim::provision(device, &master).expect("device boots");
        let mut session =
            VerifierSession::new(device, device_attestation_key(&master, device), digest, 99);
        let nonce = session.challenge();
        let report = sim.respond(&nonce).expect("attests");
        assert_eq!(session.submit(&report), Ok(()));
    }

    #[test]
    fn provisioned_device_cfa_attests_and_replays_cleanly() {
        let master = [6u8; 20];
        let device = DeviceId::from_u64(13);
        let (_, digest) = reference_digest().expect("reference boots");
        let edges = fleet_admissible_edges();
        let mut sim = DeviceSim::provision(device, &master).expect("device boots");
        sim.arm_cfa().expect("task is measured");
        sim.run(50_000).expect("monitored run");
        let mut session =
            VerifierSession::new(device, device_attestation_key(&master, device), digest, 42);
        let nonce = session.challenge();
        let report = sim.respond_cfa(&nonce).expect("attests with evidence");
        assert!(
            !report.log.is_empty(),
            "the looping task must record taken edges"
        );
        assert_eq!(session.submit_cfa(&report, &edges), Ok(()));
    }

    #[test]
    fn cached_fleet_task_matches_a_fresh_build() {
        let cached = fleet_task_source();
        let fresh = build_fleet_task();
        assert_eq!(cached.image, fresh.image);
        assert_eq!(cached.program, fresh.program);
        assert_eq!(cached.mailbox_offset, fresh.mailbox_offset);
        assert!(std::ptr::eq(cached, fleet_task_source()));
    }

    #[test]
    fn a_provisioned_device_holds_4_of_256_ram_pages() {
        // Paged RAM allocates a page on its first write, so a device costs
        // the host the pages boot, load and the task touch, not 1 MiB.
        let master = [5u8; 20];
        let mut sim = DeviceSim::provision(DeviceId::from_u64(21), &master).expect("boots");
        let resident = |sim: &DeviceSim| sim.platform.machine().resident_pages();
        assert_eq!(sim.platform.machine().ram_size(), 256 * 4096);
        assert_eq!(resident(&sim), 4);
        sim.respond(&[0x11; 16]).expect("attests");
        assert_eq!(resident(&sim), 4);
        sim.arm_cfa().expect("task is measured");
        sim.run(500_000).expect("monitored run");
        assert_eq!(resident(&sim), 4);
    }

    #[test]
    fn a_provisioned_device_holds_no_smc_bitmap_page() {
        // Boot, load and the task's first instructions each run once, so
        // the translator compiles nothing and tracks no code page.
        let master = [5u8; 20];
        let mut sim = DeviceSim::provision(DeviceId::from_u64(21), &master).expect("boots");
        let pages = |sim: &DeviceSim| sim.platform.machine().smc_bitmap_pages();
        assert_eq!(pages(&sim), 0);
        sim.respond(&[0x11; 16]).expect("attests");
        assert_eq!(pages(&sim), 0);
        // The monitored run loops, so the translator compiles code now
        // (the legacy reference never does), and only on pages that hold
        // code the device wrote.
        sim.arm_cfa().expect("task is measured");
        sim.run(500_000).expect("monitored run");
        assert!(pages(&sim) <= sim.platform.machine().resident_pages());
    }

    #[test]
    fn a_provisioned_device_idles_to_an_exact_clock() {
        // Provisioning ends with the core halted in the idle loop, waiting
        // for the next tick. The translator crosses each halt in one move;
        // a move that overshoots by one 8-cycle step changes this clock.
        let sim = DeviceSim::provision(DeviceId::from_u64(21), &[5u8; 20]).expect("boots");
        let machine = sim.platform.machine();
        let stats = machine.stats();
        assert_eq!(machine.cycles(), 49_631);
        assert_eq!(stats.instructions, 26);
        assert_eq!(stats.interrupts, 1);
        assert_eq!(stats.faults, 0);
        assert!(machine.is_halted());
    }

    #[test]
    fn reprovisioning_a_device_is_bit_identical() {
        let master = [9u8; 20];
        let device = DeviceId::from_u64(77);
        let mut a = DeviceSim::provision(device, &master).expect("boots");
        let mut b = DeviceSim::provision(device, &master).expect("boots");
        assert_eq!(a.platform.machine().cycles(), b.platform.machine().cycles());
        let nonce = [0x5a; 16];
        let ra = a.respond(&nonce).expect("attests");
        let rb = b.respond(&nonce).expect("attests");
        assert_eq!(ra.to_bytes(), rb.to_bytes());
        assert_eq!(a.platform.machine().cycles(), b.platform.machine().cycles());
    }

    #[test]
    fn cross_device_key_confusion_is_caught() {
        // A report MACed under device 1's key must not verify in device
        // 2's session even though digest and nonce format agree.
        let master = [5u8; 20];
        let (_, digest) = reference_digest().expect("reference boots");
        let mut sim = DeviceSim::provision(DeviceId::from_u64(1), &master).expect("boots");
        let mut session = VerifierSession::new(
            DeviceId::from_u64(2),
            device_attestation_key(&master, DeviceId::from_u64(2)),
            digest,
            99,
        );
        let nonce = session.challenge();
        let report = sim.respond(&nonce).expect("attests");
        assert_eq!(
            session.submit(&report),
            Err(tytan::attest::VerifyError::BadMac)
        );
    }
}
