//! Local and remote attestation.
//!
//! Local attestation on TyTAN uses the task identity `id_t` directly: the
//! EA-MPU guarantees only the RTM can write the measurement list, so a
//! local component reading `id_t` from the list needs no further
//! authentication (§3). Remote attestation authenticates the measurement
//! with a MAC under the attestation key `K_a`, which is derived from the
//! platform key and accessible only to the Remote Attest task (§3).

use crate::rtm::MeasurementRecord;
use std::borrow::Cow;
use tytan_crypto::{HmacKey, HmacSchedule, RunRefolder, Sha1, SymmetricKey, TaskId};
use tytan_lint::{AdmissibleEdgeSet, CfaViolation};

/// The prover-side raw edge-log cap, re-exported for layers (the fleet
/// wire protocol) that size buffers against report extremes but do not
/// depend on the emulator crate directly.
pub use sp_emu::CF_LOG_CAP;

/// The key-derivation purpose label for `K_a`.
pub const ATTEST_PURPOSE: &[u8] = b"tytan-remote-attestation-v1";

/// A remote-attestation report: `(id_t, digest, nonce)` authenticated by
/// `MAC(K_a, ·)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// The attested task identity.
    pub id: TaskId,
    /// The full measurement digest of the task.
    pub digest: Vec<u8>,
    /// The verifier's challenge nonce (freshness).
    pub nonce: Vec<u8>,
    /// `HMAC(K_a, id ‖ digest ‖ nonce)` with length framing.
    pub mac: Vec<u8>,
}

impl AttestationReport {
    /// Serializes the report for transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.id.to_bytes());
        out.extend_from_slice(&(self.digest.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.digest);
        out.extend_from_slice(&(self.nonce.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&(self.mac.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses a report serialized with [`AttestationReport::to_bytes`].
    ///
    /// Returns `None` on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut rest = bytes;
        let id = TaskId::from_u64(u64::from_be_bytes(take(&mut rest, 8)?.try_into().ok()?));
        let digest = take_vec(&mut rest)?;
        let nonce = take_vec(&mut rest)?;
        let mac = take_vec(&mut rest)?;
        Some(AttestationReport {
            id,
            digest,
            nonce,
            mac,
        })
    }

    /// The exact byte string the report's MAC covers
    /// (`id ‖ digest ‖ nonce` with length framing).
    ///
    /// Exposed for parties that hold `K_a` outside [`RemoteAttestor`]
    /// (test fixtures and fuzzers that seal or forge reports directly).
    /// Verifiers never take a MAC verdict from outside: [`RemoteVerifier`]
    /// and [`VerifierSession`] recompute the MAC over this input
    /// themselves.
    pub fn mac_input(&self) -> Vec<u8> {
        mac_input(self.id, &self.digest, &self.nonce)
    }
}

fn mac_input(id: TaskId, digest: &[u8], nonce: &[u8]) -> Vec<u8> {
    let mut input = Vec::with_capacity(8 + 8 + digest.len() + nonce.len());
    input.extend_from_slice(&id.to_bytes());
    input.extend_from_slice(&(digest.len() as u32).to_le_bytes());
    input.extend_from_slice(digest);
    input.extend_from_slice(&(nonce.len() as u32).to_le_bytes());
    input.extend_from_slice(nonce);
    input
}

/// The Remote Attest task: holds `K_a` and produces reports.
#[derive(Debug)]
pub struct RemoteAttestor {
    key: HmacKey,
}

impl RemoteAttestor {
    /// Creates the attestor from the derived attestation key `K_a`.
    pub fn new(ka: SymmetricKey) -> Self {
        RemoteAttestor {
            key: ka.to_hmac_key(),
        }
    }

    /// Produces a report over an RTM record for the verifier's `nonce`.
    pub fn attest(&self, record: &MeasurementRecord, nonce: &[u8]) -> AttestationReport {
        let mac = self.key.sign(&mac_input(record.id, &record.digest, nonce));
        AttestationReport {
            id: record.id,
            digest: record.digest.clone(),
            nonce: nonce.to_vec(),
            mac,
        }
    }
}

/// A device-level report: the MAC-authenticated list of every loaded
/// task's identity and digest ("prove the integrity of its software
/// state to another device", §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceReport {
    /// `(id, digest)` for every measured task, sorted by id.
    pub tasks: Vec<(TaskId, Vec<u8>)>,
    /// The verifier's challenge nonce.
    pub nonce: Vec<u8>,
    /// `HMAC(K_a, task list ‖ nonce)`.
    pub mac: Vec<u8>,
}

/// The canonical encoding of a task set, `count ‖ (id ‖ len ‖ digest)*`:
/// a device report's "digest", covering every id and every digest.
fn task_set_bytes(tasks: &[(TaskId, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tasks.len() as u32).to_le_bytes());
    for (id, digest) in tasks {
        out.extend_from_slice(&id.to_bytes());
        out.extend_from_slice(&(digest.len() as u32).to_le_bytes());
        out.extend_from_slice(digest);
    }
    out
}

fn device_mac_input(tasks: &[(TaskId, Vec<u8>)], nonce: &[u8]) -> Vec<u8> {
    let mut input = task_set_bytes(tasks);
    input.extend_from_slice(&(nonce.len() as u32).to_le_bytes());
    input.extend_from_slice(nonce);
    input
}

impl RemoteAttestor {
    /// Produces a device-level report over every record in the RTM list.
    pub fn attest_device<'a>(
        &self,
        records: impl Iterator<Item = &'a crate::rtm::MeasurementRecord>,
        nonce: &[u8],
    ) -> DeviceReport {
        let mut tasks: Vec<(TaskId, Vec<u8>)> = records.map(|r| (r.id, r.digest.clone())).collect();
        tasks.sort_by_key(|(id, _)| *id);
        let mac = self.key.sign(&device_mac_input(&tasks, nonce));
        DeviceReport {
            tasks,
            nonce: nonce.to_vec(),
            mac,
        }
    }
}

impl RemoteVerifier {
    /// Verifies a device-level report and checks that the reported task
    /// set is exactly `expected` (sorted or not).
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::BadMac`], [`VerifyError::NonceMismatch`],
    /// or [`VerifyError::DigestMismatch`] if the task sets differ
    /// (checked in that order), carrying both task sets in their
    /// canonical encoding.
    pub fn verify_device(
        &self,
        report: &DeviceReport,
        nonce: &[u8],
        expected: &[(TaskId, Vec<u8>)],
    ) -> Result<(), VerifyError> {
        let mut expected = expected.to_vec();
        expected.sort_by_key(|(id, _)| *id);
        check(
            &self.schedule,
            Evidence::Device(report),
            |got| nonce_equals(got, nonce),
            &task_set_bytes(&expected),
            &mut RunRefolder::new(),
            None,
        )
    }
}

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The MAC does not verify under `K_a`: forged or corrupted report.
    BadMac,
    /// The nonce does not match the verifier's challenge (replay).
    NonceMismatch,
    /// The nonce was already consumed by an accepted report: a verbatim
    /// replay of an earlier, genuine attestation (session-tracked;
    /// distinguishes "old answer re-sent" from a plain stale nonce).
    ReplayedNonce,
    /// The digest differs from the verifier's reference value for this
    /// software: the device runs unexpected code.
    DigestMismatch {
        /// The digest the verifier expected.
        expected: Vec<u8>,
        /// The digest the device reported.
        reported: Vec<u8>,
    },
    /// A control-flow edge in the reported log is not admitted by the
    /// static CFG of the attested image: a jump/call to a target the
    /// binary cannot legally reach, or a return that disagrees with the
    /// shadow stack (ROP).
    InadmissibleEdge {
        /// Index of the offending edge in the log.
        index: usize,
        /// Task-relative source pc.
        from: u32,
        /// Task-relative destination pc.
        to: u32,
    },
    /// An edge from an indirect-branch site the static analysis could
    /// not bound lands somewhere that is not even a reachable
    /// instruction start.
    UnprovenSiteViolation {
        /// Index of the offending edge in the log.
        index: usize,
        /// Task-relative source pc (the unproven site).
        from: u32,
        /// Task-relative destination pc.
        to: u32,
    },
    /// Refolding the reported edge log does not reproduce the MAC'd
    /// chain head: the log was tampered with (edges substituted,
    /// reordered, dropped or appended) after the device sealed the run.
    ChainMismatch,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadMac => write!(f, "report MAC verification failed"),
            VerifyError::NonceMismatch => write!(f, "nonce mismatch (possible replay)"),
            VerifyError::ReplayedNonce => {
                write!(f, "nonce already consumed (verbatim report replay)")
            }
            VerifyError::DigestMismatch { .. } => {
                write!(f, "measurement digest differs from reference")
            }
            VerifyError::InadmissibleEdge { index, from, to } => write!(
                f,
                "control-flow edge {index}: {from:#x} -> {to:#x} is not admitted by the \
                 static CFG"
            ),
            VerifyError::UnprovenSiteViolation { index, from, to } => write!(
                f,
                "control-flow edge {index}: unproven site {from:#x} -> {to:#x} is not a \
                 reachable instruction start"
            ),
            VerifyError::ChainMismatch => {
                write!(
                    f,
                    "refolded edge log does not reproduce the attested chain head"
                )
            }
        }
    }
}

impl From<CfaViolation> for VerifyError {
    fn from(v: CfaViolation) -> VerifyError {
        match v {
            CfaViolation::InadmissibleEdge { index, from, to } => {
                VerifyError::InadmissibleEdge { index, from, to }
            }
            CfaViolation::UnprovenSiteViolation { index, from, to } => {
                VerifyError::UnprovenSiteViolation { index, from, to }
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The remote verifier: shares `K_a` (symmetric setting, as in the paper)
/// and knows the reference digest of the software it expects.
#[derive(Debug)]
pub struct RemoteVerifier {
    schedule: HmacSchedule<Sha1>,
}

impl RemoteVerifier {
    /// Creates a verifier holding the shared attestation key.
    pub fn new(ka: SymmetricKey) -> Self {
        RemoteVerifier {
            schedule: ka.to_hmac_key().schedule(),
        }
    }

    /// Verifies a report against the challenge `nonce` and the reference
    /// digest of the expected task binary.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::BadMac`], [`VerifyError::NonceMismatch`], or
    /// [`VerifyError::DigestMismatch`] (checked in that order, so a forged
    /// report never reaches the digest comparison).
    pub fn verify(
        &self,
        report: &AttestationReport,
        nonce: &[u8],
        expected_digest: &[u8],
    ) -> Result<(), VerifyError> {
        check(
            &self.schedule,
            Evidence::Plain(report),
            |got| nonce_equals(got, nonce),
            expected_digest,
            &mut RunRefolder::new(),
            None,
        )
    }
}

/// The stateless verifier's freshness: the report answers exactly the
/// caller's challenge.
fn nonce_equals(got: &[u8], challenge: &[u8]) -> Result<(), VerifyError> {
    if got == challenge {
        Ok(())
    } else {
        Err(VerifyError::NonceMismatch)
    }
}

// ------------------------------------------- control-flow attestation

/// A control-flow-attested report: the static measurement of
/// [`AttestationReport`] extended with the run's control-flow evidence.
///
/// The device MACs `(id, digest, nonce, chain_head, edge count)` under
/// `K_a` — the raw edge log travels in the clear and is *implicitly*
/// authenticated, because the verifier refolds it through
/// [`CfChain`](tytan_crypto::CfChain) and compares against the MAC'd head ([`VerifyError::ChainMismatch`]
/// on any discrepancy). The verifier then replays the log against the
/// [`AdmissibleEdgeSet`] that `tytan-lint` extracted from the same
/// image, so a run that detours through statically-illegal edges —
/// even one that leaves every code byte (and therefore the measurement
/// digest) untouched, as ROP/JOP does — fails with a typed
/// [`VerifyError::InadmissibleEdge`] or
/// [`VerifyError::UnprovenSiteViolation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfaReport {
    /// The attested task identity.
    pub id: TaskId,
    /// The full measurement digest of the task (static evidence).
    pub digest: Vec<u8>,
    /// The verifier's challenge nonce (freshness).
    pub nonce: Vec<u8>,
    /// The task-relative taken-edge log in execution order, as its
    /// canonical maximal-run decomposition `(from, to, count)` — the
    /// form the monitor records and the chain is defined over.
    pub log: Vec<(u32, u32, u32)>,
    /// The [`CfChain`](tytan_crypto::CfChain) head over `log` as sealed
    /// by the device.
    pub chain_head: [u8; 20],
    /// `HMAC(K_a, "CFA1" ‖ id ‖ digest ‖ nonce ‖ chain_head ‖ #raw edges)`.
    /// Binds the raw edge count, not the run count, so the seal does
    /// not depend on how the log is encoded.
    pub mac: Vec<u8>,
}

fn cfa_mac_input(
    id: TaskId,
    digest: &[u8],
    nonce: &[u8],
    chain_head: &[u8; 20],
    edges: u32,
) -> Vec<u8> {
    // Domain-separated from the plain report MAC so a CFA report can
    // never be replayed as a static report or vice versa.
    let mut input = Vec::with_capacity(4 + 8 + 8 + digest.len() + nonce.len() + 24);
    input.extend_from_slice(b"CFA1");
    input.extend_from_slice(&id.to_bytes());
    input.extend_from_slice(&(digest.len() as u32).to_le_bytes());
    input.extend_from_slice(digest);
    input.extend_from_slice(&(nonce.len() as u32).to_le_bytes());
    input.extend_from_slice(nonce);
    input.extend_from_slice(chain_head);
    input.extend_from_slice(&edges.to_le_bytes());
    input
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if bytes.len() < n {
        return None;
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Some(head)
}

fn take_vec(bytes: &mut &[u8]) -> Option<Vec<u8>> {
    let len = u32::from_le_bytes(take(bytes, 4)?.try_into().ok()?) as usize;
    if len > 1 << 16 {
        return None;
    }
    Some(take(bytes, len)?.to_vec())
}

fn take_u32(bytes: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(bytes, 4)?.try_into().ok()?))
}

impl CfaReport {
    /// Total raw edges the run-encoded log covers (sum of run counts).
    /// This — not the run count — is what the MAC binds, keeping the
    /// seal independent of how the log is encoded on the wire.
    pub fn raw_edges(&self) -> u64 {
        self.log.iter().map(|&(_, _, n)| u64::from(n)).sum()
    }

    /// Serializes the report with its log as `(from, to, count)` run
    /// triples, the one wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.id.to_bytes());
        out.extend_from_slice(&(self.digest.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.digest);
        out.extend_from_slice(&(self.nonce.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.chain_head);
        out.extend_from_slice(&(self.log.len() as u32).to_le_bytes());
        for (from, to, count) in &self.log {
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&to.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out.extend_from_slice(&(self.mac.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses a report serialized with [`CfaReport::to_bytes`].
    ///
    /// Returns `None` on truncation, oversized length prefixes, a raw
    /// edge total above the prover-side cap [`sp_emu::CF_LOG_CAP`]
    /// (summed in u64 — hostile counts cannot wrap past the check and
    /// are never expanded), or a non-canonical run list (a zero count,
    /// or adjacent runs sharing an edge): the monitor only emits
    /// maximal runs, so each sealed log has exactly one valid encoding.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut rest = bytes;
        let id = TaskId::from_u64(u64::from_be_bytes(take(&mut rest, 8)?.try_into().ok()?));
        let digest = take_vec(&mut rest)?;
        let nonce = take_vec(&mut rest)?;
        let chain_head: [u8; 20] = take(&mut rest, 20)?.try_into().ok()?;
        let runs = take_u32(&mut rest)? as usize;
        if runs > sp_emu::CF_LOG_CAP {
            return None;
        }
        let mut log = Vec::with_capacity(runs);
        let mut total: u64 = 0;
        for _ in 0..runs {
            let from = take_u32(&mut rest)?;
            let to = take_u32(&mut rest)?;
            let count = take_u32(&mut rest)?;
            if count == 0 {
                return None;
            }
            if let Some(&(pf, pt, _)) = log.last() {
                if (pf, pt) == (from, to) {
                    return None;
                }
            }
            total += u64::from(count);
            if total > sp_emu::CF_LOG_CAP as u64 {
                return None;
            }
            log.push((from, to, count));
        }
        let mac = take_vec(&mut rest)?;
        Some(CfaReport {
            id,
            digest,
            nonce,
            log,
            chain_head,
            mac,
        })
    }

    /// The exact byte string the report's MAC covers (see
    /// [`AttestationReport::mac_input`] for why this is public).
    pub fn mac_input(&self) -> Vec<u8> {
        cfa_mac_input(
            self.id,
            &self.digest,
            &self.nonce,
            &self.chain_head,
            self.raw_edges() as u32,
        )
    }
}

impl RemoteAttestor {
    /// Produces a control-flow-attested report: the RTM record's static
    /// measurement plus the monitored run's edge log and sealed chain
    /// head.
    pub fn attest_cfa(
        &self,
        record: &MeasurementRecord,
        nonce: &[u8],
        log: &[(u32, u32, u32)],
        chain_head: [u8; 20],
    ) -> CfaReport {
        let raw_edges: u64 = log.iter().map(|&(_, _, n)| u64::from(n)).sum();
        let mac = self.key.sign(&cfa_mac_input(
            record.id,
            &record.digest,
            nonce,
            &chain_head,
            raw_edges as u32,
        ));
        CfaReport {
            id: record.id,
            digest: record.digest.clone(),
            nonce: nonce.to_vec(),
            log: log.to_vec(),
            chain_head,
            mac,
        }
    }
}

/// One report as a verifier checks it: a plain measurement, a
/// control-flow report with the admissible edge set its log replays
/// against, or a device-level report over the whole task set.
#[derive(Debug, Clone, Copy)]
pub enum Evidence<'a> {
    /// A static measurement report.
    Plain(&'a AttestationReport),
    /// A control-flow-attested report and the edge set of its image.
    Cfa(&'a CfaReport, &'a AdmissibleEdgeSet),
    /// A device-level report; its digest is the canonical encoding of
    /// its id-sorted task set.
    Device(&'a DeviceReport),
}

/// Nanosecond wall-clock cost of each verifier stage one report
/// reached, in check order. A stage the report never reached is `None`:
/// a bad MAC stops after `mac`, a stale nonce or wrong digest after
/// `freshness`, an inadmissible edge after `edge_replay`, and a plain
/// report has no control-flow stages at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStageNanos {
    /// The HMAC over the report under the verifier's own key schedule.
    pub mac: Option<u64>,
    /// Freshness (replay window + outstanding nonce) and digest compare.
    pub freshness: Option<u64>,
    /// Edge-log replay against the static CFG (admissibility and
    /// shadow-stack return checks).
    pub edge_replay: Option<u64>,
    /// Refolding the edge log through [`CfChain`](tytan_crypto::CfChain)
    /// and comparing heads.
    pub chain_refold: Option<u64>,
}

/// Stamps `stages`' field chosen by `pick` with the wall-clock cost of
/// `f`, when attribution is requested.
fn staged<T>(
    stages: &mut Option<&mut VerifyStageNanos>,
    pick: fn(&mut VerifyStageNanos) -> &mut Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match stages {
        Some(stages) => {
            let begin = std::time::Instant::now();
            let out = f();
            *pick(stages) = Some(begin.elapsed().as_nanos() as u64);
            out
        }
        None => f(),
    }
}

/// The one per-report check every verifier runs, in the paper's order:
/// the MAC under `schedule` (so a forged report learns nothing about
/// verifier state), then freshness (`fresh` judges the reported nonce)
/// and the digest against `expected_digest`, then for control-flow
/// evidence the edge replay and the refold. When `stages` is supplied,
/// every stage reached is timed into it.
///
/// Both control-flow phases run over runs, never the expanded stream:
/// replay checks each run's edge once (its admissibility cannot change
/// with repetition; only the shadow stack sees counts), and the refold
/// uses the caller's [`RunRefolder`] so a long-lived verifier formats
/// the padded SHA-1 block once.
fn check(
    schedule: &HmacSchedule<Sha1>,
    evidence: Evidence<'_>,
    fresh: impl FnOnce(&[u8]) -> Result<(), VerifyError>,
    expected_digest: &[u8],
    refolder: &mut RunRefolder,
    mut stages: Option<&mut VerifyStageNanos>,
) -> Result<(), VerifyError> {
    let (input, mac, nonce, digest) = match evidence {
        Evidence::Plain(r) => (r.mac_input(), &r.mac, &r.nonce, Cow::Borrowed(&r.digest)),
        Evidence::Cfa(r, _) => (r.mac_input(), &r.mac, &r.nonce, Cow::Borrowed(&r.digest)),
        Evidence::Device(r) => (
            device_mac_input(&r.tasks, &r.nonce),
            &r.mac,
            &r.nonce,
            Cow::Owned(task_set_bytes(&r.tasks)),
        ),
    };
    if !staged(&mut stages, |s| &mut s.mac, || schedule.verify(&input, mac)) {
        return Err(VerifyError::BadMac);
    }
    staged(
        &mut stages,
        |s| &mut s.freshness,
        || {
            fresh(nonce)?;
            if digest.as_slice() != expected_digest {
                return Err(VerifyError::DigestMismatch {
                    expected: expected_digest.to_vec(),
                    reported: digest.into_owned(),
                });
            }
            Ok(())
        },
    )?;
    let Evidence::Cfa(report, edges) = evidence else {
        return Ok(());
    };
    // Admissibility first: an injected detour is reported as the typed
    // CFG violation it is, not as the chain damage it also causes.
    staged(
        &mut stages,
        |s| &mut s.edge_replay,
        || edges.replay_runs(&report.log),
    )?;
    let refolds = staged(
        &mut stages,
        |s| &mut s.chain_refold,
        || refolder.refold(report.log.iter().copied()) == report.chain_head,
    );
    if !refolds {
        return Err(VerifyError::ChainMismatch);
    }
    Ok(())
}

impl RemoteVerifier {
    /// Verifies a control-flow-attested report against the challenge
    /// `nonce`, the reference `expected_digest`, and the admissible
    /// edge set `edges` extracted by `tytan-lint` from the reference
    /// image.
    ///
    /// # Errors
    ///
    /// In check order: [`VerifyError::BadMac`],
    /// [`VerifyError::NonceMismatch`], [`VerifyError::DigestMismatch`],
    /// then the control-flow evidence —
    /// [`VerifyError::InadmissibleEdge`] /
    /// [`VerifyError::UnprovenSiteViolation`] from replaying the log
    /// against the static CFG, and [`VerifyError::ChainMismatch`] if
    /// the (admissible) log does not refold to the MAC'd chain head.
    pub fn verify_cfa(
        &self,
        report: &CfaReport,
        nonce: &[u8],
        expected_digest: &[u8],
        edges: &AdmissibleEdgeSet,
    ) -> Result<(), VerifyError> {
        check(
            &self.schedule,
            Evidence::Cfa(report, edges),
            |got| nonce_equals(got, nonce),
            expected_digest,
            &mut RunRefolder::new(),
            None,
        )
    }
}

// ---------------------------------------------------------------- fleet

/// Identity of one device in an attested fleet.
///
/// Devices are provisioned with per-device platform keys derived from a
/// fleet master secret keyed by this id (see `tytan-fleet`), so the id is
/// both the wire address and the key-derivation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(u64);

impl DeviceId {
    /// Wraps a raw 64-bit device identity.
    pub const fn from_u64(v: u64) -> Self {
        DeviceId(v)
    }

    /// The raw 64-bit identity.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Big-endian wire encoding.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decodes the big-endian wire encoding.
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        DeviceId(u64::from_be_bytes(bytes))
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev-{:016x}", self.0)
    }
}

/// How many consumed nonces a [`VerifierSession`] remembers for typed
/// replay classification. Older replays still fail (the nonce no longer
/// matches the outstanding challenge) — they just report
/// [`VerifyError::NonceMismatch`] instead of the more specific
/// [`VerifyError::ReplayedNonce`].
pub const REPLAY_WINDOW: usize = 64;

/// Per-device verifier state for fleet attestation: the device's key
/// schedule, its reference digest, the outstanding challenge nonce, and
/// a bounded window of consumed nonces for replay rejection.
///
/// The session enforces nonce freshness *statefully*, which the
/// stateless [`RemoteVerifier`] cannot: every challenge it issues is
/// unique (a session-salted counter), a report only verifies against the
/// one outstanding challenge, and an accepted report **consumes** its
/// nonce — submitting the same genuine report twice yields
/// [`VerifyError::ReplayedNonce`] on the second copy.
///
/// # Examples
///
/// ```
/// use tytan::attest::{DeviceId, VerifierSession, VerifyError, ATTEST_PURPOSE};
/// use tytan_crypto::PlatformKey;
///
/// let ka = PlatformKey::from_bytes([7u8; 20]).derive(ATTEST_PURPOSE);
/// let mut session =
///     VerifierSession::new(DeviceId::from_u64(1), ka, vec![0xAA; 20], 99);
/// let nonce = session.challenge();
/// assert_ne!(nonce, session.challenge()); // every challenge is fresh
/// ```
#[derive(Debug)]
pub struct VerifierSession {
    device: DeviceId,
    schedule: HmacSchedule<Sha1>,
    expected_digest: Vec<u8>,
    salt: u64,
    counter: u64,
    outstanding: Option<Vec<u8>>,
    consumed: std::collections::VecDeque<Vec<u8>>,
    accepted: u64,
    rejected: u64,
}

impl VerifierSession {
    /// Creates a session for `device` holding its shared attestation key
    /// `K_a` and the reference digest of the software it must run.
    /// `salt` decorrelates nonce streams across sessions and service
    /// restarts.
    pub fn new(device: DeviceId, ka: SymmetricKey, expected_digest: Vec<u8>, salt: u64) -> Self {
        VerifierSession {
            device,
            schedule: ka.to_hmac_key().schedule(),
            expected_digest,
            salt,
            counter: 0,
            outstanding: None,
            consumed: std::collections::VecDeque::with_capacity(REPLAY_WINDOW),
            accepted: 0,
            rejected: 0,
        }
    }

    /// The device this session verifies.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Reports accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Reports rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Issues a fresh challenge nonce, replacing any outstanding one (a
    /// device that never answered simply gets a new challenge; the old
    /// nonce can no longer be answered).
    pub fn challenge(&mut self) -> Vec<u8> {
        // SplitMix64-style mix of (salt, device, counter): unique per
        // (session, round) and not guessable from prior nonces without
        // the salt. 16 bytes on the wire.
        let mut z = self
            .salt
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.device.0.rotate_left(17))
            .wrapping_add(self.counter.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut nonce = Vec::with_capacity(16);
        nonce.extend_from_slice(&z.to_be_bytes());
        nonce.extend_from_slice(&self.counter.to_be_bytes());
        self.counter += 1;
        self.outstanding = Some(nonce.clone());
        nonce
    }

    /// Verifies `report` against the outstanding challenge, consuming the
    /// nonce on success.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadMac`] (checked first, so forged reports learn
    /// nothing about session state), [`VerifyError::ReplayedNonce`] for a
    /// verbatim replay of an accepted report,
    /// [`VerifyError::NonceMismatch`] for any other stale or unknown
    /// nonce, [`VerifyError::DigestMismatch`] for wrong software.
    pub fn submit(&mut self, report: &AttestationReport) -> Result<(), VerifyError> {
        self.judge(Evidence::Plain(report), &mut RunRefolder::new(), None)
    }

    /// Verifies a control-flow-attested report against the outstanding
    /// challenge and the admissible edge set `edges`, consuming the
    /// nonce on success.
    ///
    /// # Errors
    ///
    /// As [`RemoteVerifier::verify_cfa`], plus
    /// [`VerifyError::ReplayedNonce`] for a verbatim replay of an
    /// accepted report.
    pub fn submit_cfa(
        &mut self,
        report: &CfaReport,
        edges: &AdmissibleEdgeSet,
    ) -> Result<(), VerifyError> {
        self.judge(Evidence::Cfa(report, edges), &mut RunRefolder::new(), None)
    }

    /// Verifies either kind of report exactly as [`Self::submit`] /
    /// [`Self::submit_cfa`] do, refolding control-flow logs through the
    /// caller's long-lived `refolder`, and returns the verdict with the
    /// cost of every stage the check reached.
    pub fn submit_staged(
        &mut self,
        evidence: Evidence<'_>,
        refolder: &mut RunRefolder,
    ) -> (Result<(), VerifyError>, VerifyStageNanos) {
        let mut stages = VerifyStageNanos::default();
        let result = self.judge(evidence, refolder, Some(&mut stages));
        (result, stages)
    }

    /// Runs the one check against this session's key, freshness state
    /// and reference digest, and books the verdict: an accepted report
    /// consumes its nonce.
    fn judge(
        &mut self,
        evidence: Evidence<'_>,
        refolder: &mut RunRefolder,
        stages: Option<&mut VerifyStageNanos>,
    ) -> Result<(), VerifyError> {
        let result = check(
            &self.schedule,
            evidence,
            |nonce| self.freshness(nonce),
            &self.expected_digest,
            refolder,
            stages,
        );
        match result {
            Ok(()) => {
                self.consume_outstanding();
                self.accepted += 1;
            }
            Err(_) => self.rejected += 1,
        }
        result
    }

    /// Typed freshness check against the consumed window and the
    /// outstanding challenge. Does not consume.
    fn freshness(&self, nonce: &[u8]) -> Result<(), VerifyError> {
        if self.consumed.iter().any(|n| n.as_slice() == nonce) {
            return Err(VerifyError::ReplayedNonce);
        }
        match &self.outstanding {
            Some(out) if out.as_slice() == nonce => Ok(()),
            _ => Err(VerifyError::NonceMismatch),
        }
    }

    /// Consumes the outstanding nonce into the bounded replay window:
    /// the same report can never verify again.
    fn consume_outstanding(&mut self) {
        let nonce = self.outstanding.take().expect("freshness matched");
        if self.consumed.len() == REPLAY_WINDOW {
            self.consumed.pop_front();
        }
        self.consumed.push_back(nonce);
    }

    /// Snapshot of the consumed-nonce replay window, oldest first — the
    /// freshness state a forensic bundle must carry to re-verify a
    /// rejected report deterministically.
    pub fn consumed_nonces(&self) -> Vec<Vec<u8>> {
        self.consumed.iter().cloned().collect()
    }

    /// The currently outstanding (unanswered) challenge nonce, if any.
    pub fn outstanding_nonce(&self) -> Option<&[u8]> {
        self.outstanding.as_deref()
    }

    /// Restores freshness state captured by [`VerifierSession::consumed_nonces`]
    /// and [`VerifierSession::outstanding_nonce`] — bundle replay rebuilds a
    /// session and installs the rejection-time state before resubmitting
    /// the recorded frame. `consumed` is truncated to the newest
    /// [`REPLAY_WINDOW`] entries.
    pub fn restore_freshness(&mut self, consumed: Vec<Vec<u8>>, outstanding: Option<Vec<u8>>) {
        let skip = consumed.len().saturating_sub(REPLAY_WINDOW);
        self.consumed = consumed.into_iter().skip(skip).collect();
        self.outstanding = outstanding;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eampu::Region;
    use rtos::TaskHandle;
    use tytan_crypto::PlatformKey;

    fn record(digest: Vec<u8>) -> MeasurementRecord {
        MeasurementRecord {
            id: TaskId::from_digest(&digest),
            digest,
            handle: TaskHandle::from_index(0),
            base: 0x4000,
            mailbox: 0x4100,
            code: Region::new(0x4000, 0x100),
            data: Region::new(0x4100, 0x100),
            name: "t".into(),
        }
    }

    fn keypair() -> (RemoteAttestor, RemoteVerifier) {
        let kp = PlatformKey::from_bytes([3u8; 20]);
        let ka = kp.derive(ATTEST_PURPOSE);
        (RemoteAttestor::new(ka.clone()), RemoteVerifier::new(ka))
    }

    #[test]
    fn honest_report_verifies() {
        let (attestor, verifier) = keypair();
        let digest = vec![7u8; 20];
        let report = attestor.attest(&record(digest.clone()), b"nonce-1");
        assert_eq!(verifier.verify(&report, b"nonce-1", &digest), Ok(()));
    }

    #[test]
    fn forged_mac_rejected() {
        let (attestor, verifier) = keypair();
        let digest = vec![7u8; 20];
        let mut report = attestor.attest(&record(digest.clone()), b"n");
        report.mac[0] ^= 1;
        assert_eq!(
            verifier.verify(&report, b"n", &digest),
            Err(VerifyError::BadMac)
        );
    }

    #[test]
    fn tampered_digest_breaks_mac() {
        let (attestor, verifier) = keypair();
        let digest = vec![7u8; 20];
        let mut report = attestor.attest(&record(digest.clone()), b"n");
        report.digest[0] ^= 1;
        assert_eq!(
            verifier.verify(&report, b"n", &digest),
            Err(VerifyError::BadMac)
        );
    }

    #[test]
    fn replayed_nonce_rejected() {
        let (attestor, verifier) = keypair();
        let digest = vec![7u8; 20];
        let report = attestor.attest(&record(digest.clone()), b"old-nonce");
        assert_eq!(
            verifier.verify(&report, b"fresh-nonce", &digest),
            Err(VerifyError::NonceMismatch)
        );
    }

    #[test]
    fn wrong_software_detected() {
        let (attestor, verifier) = keypair();
        let report = attestor.attest(&record(vec![7u8; 20]), b"n");
        let expected = vec![8u8; 20];
        assert!(matches!(
            verifier.verify(&report, b"n", &expected),
            Err(VerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn wrong_platform_key_rejected() {
        let (attestor, _) = keypair();
        let other_kp = PlatformKey::from_bytes([4u8; 20]);
        let other_verifier = RemoteVerifier::new(other_kp.derive(ATTEST_PURPOSE));
        let digest = vec![7u8; 20];
        let report = attestor.attest(&record(digest.clone()), b"n");
        assert_eq!(
            other_verifier.verify(&report, b"n", &digest),
            Err(VerifyError::BadMac)
        );
    }

    #[test]
    fn device_report_verifies_and_detects_set_changes() {
        let (attestor, verifier) = keypair();
        let a = record(vec![1u8; 20]);
        let b = {
            let mut r = record(vec![2u8; 20]);
            r.handle = TaskHandle::from_index(1);
            r
        };
        let records = [a.clone(), b.clone()];
        let report = attestor.attest_device(records.iter(), b"dev-nonce");
        let expected = vec![(a.id, a.digest.clone()), (b.id, b.digest.clone())];
        assert_eq!(
            verifier.verify_device(&report, b"dev-nonce", &expected),
            Ok(())
        );

        // Missing task detected.
        let short = vec![(a.id, a.digest.clone())];
        assert!(matches!(
            verifier.verify_device(&report, b"dev-nonce", &short),
            Err(VerifyError::DigestMismatch { .. })
        ));
        // Forged MAC detected.
        let mut forged = report.clone();
        forged.mac[0] ^= 1;
        assert_eq!(
            verifier.verify_device(&forged, b"dev-nonce", &expected),
            Err(VerifyError::BadMac)
        );
        // Replay detected.
        assert_eq!(
            verifier.verify_device(&report, b"other", &expected),
            Err(VerifyError::NonceMismatch)
        );
    }

    #[test]
    fn device_report_check_order_is_mac_then_nonce_then_task_set() {
        let (attestor, verifier) = keypair();
        let a = record(vec![1u8; 20]);
        let report = attestor.attest_device([a.clone()].iter(), b"n");
        let wrong_set = vec![(a.id, vec![9u8; 20])];
        // Wrong in MAC, nonce and task set: the MAC is judged first.
        let mut forged = report.clone();
        forged.mac[0] ^= 1;
        assert_eq!(
            verifier.verify_device(&forged, b"other", &wrong_set),
            Err(VerifyError::BadMac)
        );
        // A good MAC with a wrong nonce and task set: freshness next.
        assert_eq!(
            verifier.verify_device(&report, b"other", &wrong_set),
            Err(VerifyError::NonceMismatch)
        );
        // The task-set comparison covers ids as well as digests.
        let wrong_id = vec![(TaskId::from_u64(a.id.as_u64() ^ 1), a.digest.clone())];
        assert!(matches!(
            verifier.verify_device(&report, b"n", &wrong_id),
            Err(VerifyError::DigestMismatch { .. })
        ));
        assert!(matches!(
            verifier.verify_device(&report, b"n", &wrong_set),
            Err(VerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn device_report_order_independent_expectations() {
        let (attestor, verifier) = keypair();
        let a = record(vec![1u8; 20]);
        let b = {
            let mut r = record(vec![2u8; 20]);
            r.handle = TaskHandle::from_index(1);
            r
        };
        let report = attestor.attest_device([a.clone(), b.clone()].iter(), b"n");
        // Expected list given in reverse order still verifies.
        let expected = vec![(b.id, b.digest.clone()), (a.id, a.digest.clone())];
        assert_eq!(verifier.verify_device(&report, b"n", &expected), Ok(()));
    }

    #[test]
    fn report_serialization_roundtrip() {
        let (attestor, _) = keypair();
        let report = attestor.attest(&record(vec![9u8; 20]), b"serialize-me");
        let parsed = AttestationReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn truncated_report_rejected() {
        let (attestor, _) = keypair();
        let bytes = attestor.attest(&record(vec![9u8; 20]), b"n").to_bytes();
        for len in 0..bytes.len() {
            assert!(
                AttestationReport::from_bytes(&bytes[..len]).is_none(),
                "len {len}"
            );
        }
    }

    fn fleet_session() -> (RemoteAttestor, VerifierSession, MeasurementRecord) {
        let kp = PlatformKey::from_bytes([9u8; 20]);
        let ka = kp.derive(ATTEST_PURPOSE);
        let digest = vec![5u8; 20];
        let session = VerifierSession::new(
            DeviceId::from_u64(0xD0D0),
            ka.clone(),
            digest.clone(),
            0x5EED,
        );
        (RemoteAttestor::new(ka), session, record(digest))
    }

    #[test]
    fn session_accepts_fresh_report_and_rejects_its_replay() {
        let (attestor, mut session, rec) = fleet_session();
        let nonce = session.challenge();
        let report = attestor.attest(&rec, &nonce);
        assert_eq!(session.submit(&report), Ok(()));
        // The verbatim replay of the *accepted* report is typed as such.
        assert_eq!(session.submit(&report), Err(VerifyError::ReplayedNonce));
        assert_eq!(session.accepted(), 1);
        assert_eq!(session.rejected(), 1);
    }

    #[test]
    fn session_rejects_answer_to_a_superseded_challenge() {
        let (attestor, mut session, rec) = fleet_session();
        let old = session.challenge();
        let fresh = session.challenge(); // supersedes `old`
        let stale = attestor.attest(&rec, &old);
        assert_eq!(session.submit(&stale), Err(VerifyError::NonceMismatch));
        let good = attestor.attest(&rec, &fresh);
        assert_eq!(session.submit(&good), Ok(()));
    }

    #[test]
    fn session_challenges_never_repeat() {
        let (_, mut session, _) = fleet_session();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(session.challenge()), "duplicate nonce");
        }
    }

    #[test]
    fn session_rejects_forged_mac_and_wrong_software() {
        let (attestor, mut session, rec) = fleet_session();
        let nonce = session.challenge();
        let mut forged = attestor.attest(&rec, &nonce);
        forged.mac[7] ^= 1;
        assert_eq!(session.submit(&forged), Err(VerifyError::BadMac));
        // Honest MAC over the wrong binary: the attestor (who holds the
        // key) reports a different measurement than the reference.
        let wrong = attestor.attest(&record(vec![6u8; 20]), &nonce);
        assert!(matches!(
            session.submit(&wrong),
            Err(VerifyError::DigestMismatch { .. })
        ));
        // The challenge was not consumed by the failures.
        let good = attestor.attest(&rec, &nonce);
        assert_eq!(session.submit(&good), Ok(()));
    }

    #[test]
    fn session_replay_window_is_bounded() {
        let (attestor, mut session, rec) = fleet_session();
        let first_nonce = session.challenge();
        let first = attestor.attest(&rec, &first_nonce);
        assert_eq!(session.submit(&first), Ok(()));
        // Push the first nonce out of the bounded window.
        for _ in 0..REPLAY_WINDOW {
            let nonce = session.challenge();
            let report = attestor.attest(&rec, &nonce);
            assert_eq!(session.submit(&report), Ok(()));
        }
        // Still rejected — just as a generic stale nonce now.
        assert_eq!(session.submit(&first), Err(VerifyError::NonceMismatch));
    }

    #[test]
    fn session_staged_submit_matches_submit() {
        let (attestor, mut session, rec) = fleet_session();
        let (_, mut twin, _) = fleet_session();
        let nonce = session.challenge();
        assert_eq!(twin.challenge(), nonce, "same salt, same challenge");
        let report = attestor.attest(&rec, &nonce);
        let mut forged = report.clone();
        forged.mac[3] ^= 1;
        let mut refolder = RunRefolder::new();
        // Same verdicts and books through either entry, in any order.
        for r in [&forged, &report, &report] {
            let (staged, _) = session.submit_staged(Evidence::Plain(r), &mut refolder);
            assert_eq!(staged, twin.submit(r));
        }
        assert_eq!(
            (session.accepted(), session.rejected()),
            (twin.accepted(), twin.rejected())
        );
        assert_eq!(session.consumed_nonces(), twin.consumed_nonces());
    }

    #[test]
    fn session_timed_submit_attributes_freshness_only_for_plain_reports() {
        let (attestor, mut session, rec) = fleet_session();
        let mut refolder = RunRefolder::new();
        let nonce = session.challenge();
        let report = attestor.attest(&rec, &nonce);
        let (result, stages) = session.submit_staged(Evidence::Plain(&report), &mut refolder);
        assert_eq!(result, Ok(()));
        // Plain reports never reach the control-flow stages.
        assert!(stages.mac.is_some());
        assert!(stages.freshness.is_some());
        assert_eq!(stages.edge_replay, None);
        assert_eq!(stages.chain_refold, None);
        // A bad MAC stops before any later stage.
        let mut forged = report.clone();
        forged.mac[0] ^= 1;
        let (result, stages) = session.submit_staged(Evidence::Plain(&forged), &mut refolder);
        assert_eq!(result, Err(VerifyError::BadMac));
        assert!(stages.mac.is_some());
        assert_eq!(
            VerifyStageNanos {
                mac: None,
                ..stages
            },
            VerifyStageNanos::default()
        );
    }

    #[test]
    fn session_freshness_state_snapshots_and_restores() {
        let (attestor, mut session, rec) = fleet_session();
        let nonce = session.challenge();
        let report = attestor.attest(&rec, &nonce);
        assert_eq!(session.submit(&report), Ok(()));
        let next = session.challenge();
        let consumed = session.consumed_nonces();
        let outstanding = session.outstanding_nonce().map(<[u8]>::to_vec);
        assert_eq!(consumed, vec![nonce]);
        assert_eq!(outstanding.as_deref(), Some(next.as_slice()));

        // A rebuilt session with the restored state reproduces both the
        // typed replay rejection and the acceptance of the live answer.
        let (_, mut rebuilt, _) = fleet_session();
        rebuilt.restore_freshness(consumed, outstanding);
        assert_eq!(rebuilt.submit(&report), Err(VerifyError::ReplayedNonce));
        let live = attestor.attest(&rec, &next);
        assert_eq!(rebuilt.submit(&live), Ok(()));
    }

    #[test]
    fn restore_freshness_truncates_to_the_replay_window() {
        let (_, mut session, _) = fleet_session();
        let consumed: Vec<Vec<u8>> = (0..REPLAY_WINDOW as u64 + 10)
            .map(|i| i.to_be_bytes().to_vec())
            .collect();
        session.restore_freshness(consumed.clone(), None);
        let kept = session.consumed_nonces();
        assert_eq!(kept.len(), REPLAY_WINDOW);
        assert_eq!(kept, consumed[10..].to_vec());
    }

    mod cfa {
        use super::*;
        use tytan_crypto::CfChain;
        use tytan_lint::SiteKind;

        /// A hand-built admissible edge set for a tiny synthetic image:
        ///
        /// ```text
        ///  0: jmp  8
        ///  8: call 16   (ret 12)
        /// 12: jmp  20
        /// 16: ret
        /// 20: <unproven indirect>
        /// ```
        fn demo_edges() -> AdmissibleEdgeSet {
            AdmissibleEdgeSet {
                image_name: "demo".into(),
                entry: 0,
                text_len: 24,
                instr_pcs: [0u32, 8, 12, 16, 20].into_iter().collect(),
                sites: [
                    (0u32, SiteKind::Jump { target: 8 }),
                    (
                        8,
                        SiteKind::Call {
                            target: 16,
                            ret: 12,
                        },
                    ),
                    (12, SiteKind::Jump { target: 20 }),
                    (16, SiteKind::Return),
                    (20, SiteKind::Unproven),
                ]
                .into_iter()
                .collect(),
                external_sites: Default::default(),
            }
        }

        /// The honest run as count-1 runs (no edge repeats).
        fn honest_log() -> Vec<(u32, u32, u32)> {
            vec![(0, 8, 1), (8, 16, 1), (16, 12, 1), (12, 20, 1), (20, 0, 1)]
        }

        fn cfa_fixture() -> (RemoteAttestor, RemoteVerifier, MeasurementRecord) {
            let (attestor, verifier) = keypair();
            (attestor, verifier, record(vec![7u8; 20]))
        }

        #[test]
        fn honest_cfa_report_verifies() {
            let (attestor, verifier, rec) = cfa_fixture();
            let log = honest_log();
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"n", &log, head);
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Ok(())
            );
        }

        #[test]
        fn detour_is_typed_inadmissible_edge() {
            let (attestor, verifier, rec) = cfa_fixture();
            // The return at 16 detours to 20 instead of the shadow-stack
            // return address 12 — a ROP-style pivot over real code bytes.
            let mut log = honest_log();
            log[2] = (16, 20, 1);
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"n", &log, head);
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::InadmissibleEdge {
                    index: 2,
                    from: 16,
                    to: 20
                })
            );
        }

        #[test]
        fn unproven_site_violation_is_typed() {
            let (attestor, verifier, rec) = cfa_fixture();
            // The unbounded indirect at 20 lands mid-instruction.
            let mut log = honest_log();
            log[4] = (20, 5, 1);
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"n", &log, head);
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::UnprovenSiteViolation {
                    index: 4,
                    from: 20,
                    to: 5
                })
            );
        }

        #[test]
        fn admissible_substitution_is_chain_mismatch() {
            let (attestor, verifier, rec) = cfa_fixture();
            let log = honest_log();
            let head = CfChain::fold_runs(log.iter().copied());
            let mut report = attestor.attest_cfa(&rec, b"n", &log, head);
            // Swap in a different but statically-admissible log of the
            // same length: every edge replays, only the chain disagrees.
            report.log = vec![(0, 8, 1), (8, 16, 1), (16, 12, 1), (12, 20, 1), (20, 8, 1)];
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::ChainMismatch)
            );
        }

        #[test]
        fn truncated_log_breaks_mac() {
            let (attestor, verifier, rec) = cfa_fixture();
            let log = honest_log();
            let head = CfChain::fold_runs(log.iter().copied());
            let mut report = attestor.attest_cfa(&rec, b"n", &log, head);
            report.log.pop(); // edge count is MAC'd
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::BadMac)
            );
        }

        #[test]
        fn cfa_and_static_macs_are_domain_separated() {
            let (attestor, verifier, rec) = cfa_fixture();
            let report = attestor.attest_cfa(&rec, b"n", &[], CfChain::new().head());
            // A CFA MAC spliced into a static report never verifies.
            let spliced = AttestationReport {
                id: report.id,
                digest: report.digest.clone(),
                nonce: report.nonce.clone(),
                mac: report.mac.clone(),
            };
            assert_eq!(
                verifier.verify(&spliced, b"n", &rec.digest),
                Err(VerifyError::BadMac)
            );
        }

        #[test]
        fn cfa_report_serialization_roundtrip_and_truncation() {
            let (attestor, _, rec) = cfa_fixture();
            let log = honest_log();
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"serialize-me", &log, head);
            let bytes = report.to_bytes();
            assert_eq!(CfaReport::from_bytes(&bytes), Some(report));
            for len in 0..bytes.len() {
                assert!(CfaReport::from_bytes(&bytes[..len]).is_none(), "len {len}");
            }
        }

        #[test]
        fn session_cfa_accepts_fresh_and_rejects_replay_and_detour() {
            let (attestor, mut session, rec) = fleet_session();
            let edges = demo_edges();
            let log = honest_log();
            let head = CfChain::fold_runs(log.iter().copied());

            let nonce = session.challenge();
            let report = attestor.attest_cfa(&rec, &nonce, &log, head);
            assert_eq!(session.submit_cfa(&report, &edges), Ok(()));
            assert_eq!(
                session.submit_cfa(&report, &edges),
                Err(VerifyError::ReplayedNonce)
            );

            // A detour against a fresh challenge does not consume it.
            let nonce = session.challenge();
            let mut bad_log = honest_log();
            bad_log[2] = (16, 20, 1);
            let bad_head = CfChain::fold_runs(bad_log.iter().copied());
            let bad = attestor.attest_cfa(&rec, &nonce, &bad_log, bad_head);
            assert!(matches!(
                session.submit_cfa(&bad, &edges),
                Err(VerifyError::InadmissibleEdge { .. })
            ));
            let good = attestor.attest_cfa(&rec, &nonce, &log, head);
            assert_eq!(session.submit_cfa(&good, &edges), Ok(()));
            assert_eq!(session.accepted(), 2);
            assert_eq!(session.rejected(), 2);
        }

        #[test]
        fn session_timed_cfa_submit_attributes_all_three_stages() {
            let (attestor, mut session, rec) = fleet_session();
            let edges = demo_edges();
            let mut refolder = RunRefolder::new();
            let log = honest_log();
            let head = CfChain::fold_runs(log.iter().copied());
            let nonce = session.challenge();
            let report = attestor.attest_cfa(&rec, &nonce, &log, head);
            let (result, stages) =
                session.submit_staged(Evidence::Cfa(&report, &edges), &mut refolder);
            assert_eq!(result, Ok(()));
            // Every stage ran; Instant is monotonic but can tick 0ns, so
            // assert which stages ran, not their cost.
            assert!(stages.mac.is_some());
            assert!(stages.freshness.is_some());
            assert!(stages.edge_replay.is_some());
            assert!(stages.chain_refold.is_some());

            // A detour stops at edge replay: the refold stage never runs.
            let nonce = session.challenge();
            let mut bad_log = honest_log();
            bad_log[2] = (16, 20, 1);
            let bad_head = CfChain::fold_runs(bad_log.iter().copied());
            let bad = attestor.attest_cfa(&rec, &nonce, &bad_log, bad_head);
            let (result, stages) =
                session.submit_staged(Evidence::Cfa(&bad, &edges), &mut refolder);
            assert!(matches!(result, Err(VerifyError::InadmissibleEdge { .. })));
            assert!(stages.edge_replay.is_some());
            assert_eq!(stages.chain_refold, None);
        }

        /// The prover-side and verifier-side sentinel constants are
        /// defined in separate crates (the emulator cannot depend on
        /// the lint crate or vice versa); this is the one place both
        /// are visible, so the equality is pinned here.
        #[test]
        fn out_of_region_sentinel_agrees_across_prover_and_verifier() {
            assert_eq!(sp_emu::OUT_OF_REGION, tytan_lint::OUT_OF_REGION);
        }

        #[test]
        fn wire_form_carries_the_sealed_report() {
            let (attestor, verifier, rec) = cfa_fixture();
            // A loop-heavy log: the jump at 12 re-fires 400 times.
            let mut log = honest_log();
            log[3] = (12, 20, 400);
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"n", &log, head);

            // Compression is real: 5 runs of 12 bytes, not 404 edges.
            let bytes = report.to_bytes();
            assert!(bytes.len() < 404 * 8 / 10);

            // It decodes back to the identical sealed report — same MAC,
            // same chain head, same canonical log — and verifies.
            let decoded = CfaReport::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, report);
            assert_eq!(
                verifier.verify_cfa(&decoded, b"n", &rec.digest, &demo_edges()),
                Ok(())
            );
        }

        #[test]
        fn v4_decode_rejects_non_canonical_and_oversized_runs() {
            let (attestor, _, rec) = cfa_fixture();
            let reencode = |log: Vec<(u32, u32, u32)>| {
                let head = CfChain::fold_runs(log.iter().copied());
                let mut report = attestor.attest_cfa(&rec, b"n", &honest_log(), head);
                report.log = log;
                CfaReport::from_bytes(&report.to_bytes())
            };
            // A zero-count run encodes nothing and is not canonical.
            assert_eq!(reencode(vec![(0, 8, 0)]), None);
            // Adjacent runs of the same edge must have been coalesced.
            assert_eq!(reencode(vec![(0, 8, 1), (0, 8, 1)]), None);
            // One run over the raw cap.
            assert_eq!(reencode(vec![(0, 8, sp_emu::CF_LOG_CAP as u32 + 1)]), None);
            // Two huge counts whose u64 sum exceeds the cap (and would
            // wrap a u32 summation).
            assert_eq!(reencode(vec![(0, 8, u32::MAX), (8, 16, u32::MAX)]), None);
        }

        #[test]
        fn split_run_forgery_is_caught_by_the_chain() {
            // Splitting a run preserves the raw edge stream and the raw
            // edge count, so the MAC still verifies — but the chain is
            // defined over the *canonical* decomposition, so the heads
            // disagree. (The wire codec independently rejects the split
            // encoding as non-canonical; this pins the cryptographic
            // backstop underneath it.)
            let (attestor, verifier, rec) = cfa_fixture();
            let mut log = honest_log();
            log[3] = (12, 20, 400);
            let head = CfChain::fold_runs(log.iter().copied());
            let mut report = attestor.attest_cfa(&rec, b"n", &log, head);
            report.log[3] = (12, 20, 399);
            report.log.insert(3, (12, 20, 1));
            assert_eq!(report.raw_edges(), 404);
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::ChainMismatch)
            );
        }

        #[test]
        fn violation_indices_are_raw_stream_positions() {
            // A detour *after* a long run is attributed at its raw
            // expanded index, not its run index, so forensics line up
            // with what the device actually executed.
            let (attestor, verifier, rec) = cfa_fixture();
            let mut log = honest_log();
            log[3] = (12, 20, 400);
            log[4] = (20, 5, 1); // unproven indirect lands mid-instruction
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"n", &log, head);
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::UnprovenSiteViolation {
                    index: 403,
                    from: 20,
                    to: 5
                })
            );
        }

        #[test]
        fn undeclared_region_exit_is_typed_inadmissible() {
            // The monitor's sentinel edges survive sealing and reach the
            // verifier: a detour out of the monitored region at a site
            // with no declared external call is rejected, typed, at the
            // exit edge.
            let (attestor, verifier, rec) = cfa_fixture();
            let out = sp_emu::OUT_OF_REGION;
            let mut log = honest_log();
            log.truncate(2);
            log.push((16, out, 1)); // return detours out of the region
            log.push((out, 12, 1)); // ...and comes back
            let head = CfChain::fold_runs(log.iter().copied());
            let report = attestor.attest_cfa(&rec, b"n", &log, head);
            assert_eq!(
                verifier.verify_cfa(&report, b"n", &rec.digest, &demo_edges()),
                Err(VerifyError::InadmissibleEdge {
                    index: 2,
                    from: 16,
                    to: out
                })
            );
        }
    }

    mod from_bytes_corrupt_inputs {
        use super::*;
        use proptest::prelude::*;

        fn sample_report(seed: u64) -> AttestationReport {
            AttestationReport {
                id: TaskId::from_u64(seed),
                digest: (0..20).map(|i| (seed as u8).wrapping_add(i)).collect(),
                nonce: (0..(seed % 32) as u8).collect(),
                mac: (0..20).map(|i| (seed as u8) ^ i).collect(),
            }
        }

        proptest! {
            // Arbitrary garbage never panics, and anything that parses
            // must survive a serialization round trip.
            #[test]
            fn garbage_parses_to_none_or_roundtrips(
                bytes in proptest::collection::vec(any::<u8>(), 0..256)
            ) {
                if let Some(report) = AttestationReport::from_bytes(&bytes) {
                    prop_assert_eq!(
                        AttestationReport::from_bytes(&report.to_bytes()),
                        Some(report)
                    );
                }
            }

            // A single flipped bit in a valid encoding either still
            // parses (payload bytes) or is rejected — never a panic, and
            // never a report that re-encodes to the *original* bytes.
            #[test]
            fn bit_flipped_reports_never_panic(seed in any::<u64>(), bit in 0usize..2048) {
                let original = sample_report(seed).to_bytes();
                let mut flipped = original.clone();
                let bit = bit % (flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Some(report) = AttestationReport::from_bytes(&flipped) {
                    prop_assert!(report.to_bytes() != original);
                }
            }

            // Every strict prefix of a valid encoding is rejected.
            #[test]
            fn truncations_rejected(seed in any::<u64>(), cut in 0usize..1024) {
                let bytes = sample_report(seed).to_bytes();
                let cut = cut % bytes.len();
                prop_assert_eq!(AttestationReport::from_bytes(&bytes[..cut]), None);
            }

            // Oversized length prefixes (> 64 KiB fields) are rejected
            // rather than allocating unboundedly.
            #[test]
            fn oversized_length_prefix_rejected(
                len in ((1u32 << 16) + 1)..u32::MAX,
                seed in any::<u64>(),
            ) {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&seed.to_be_bytes());
                bytes.extend_from_slice(&len.to_le_bytes());
                bytes.extend_from_slice(&[0u8; 64]);
                prop_assert_eq!(AttestationReport::from_bytes(&bytes), None);
            }
        }
    }

    mod cfa_codec_properties {
        use super::*;
        use proptest::prelude::*;
        use tytan_crypto::{compress_log, expand_runs, CfChain};

        proptest! {
            // Arbitrary raw logs: canonical compression round-trips, and
            // the run-fold equals the raw fold — the equivalence that
            // lets the prover seal runs over the raw edge stream.
            #[test]
            fn compressed_and_raw_logs_seal_identically(
                raw in proptest::collection::vec((0u32..64, 0u32..64), 0..200)
            ) {
                let runs = compress_log(raw.iter().copied());
                let expanded: Vec<(u32, u32)> = expand_runs(&runs).collect();
                prop_assert_eq!(&expanded, &raw);
                prop_assert_eq!(
                    CfChain::fold_runs(runs.iter().copied()),
                    CfChain::fold_all(raw)
                );
            }

            // Garbage never panics; anything that parses re-encodes
            // to itself (canonical-form validation makes the decode a
            // bijection on its image).
            #[test]
            fn cfa_garbage_parses_to_none_or_roundtrips(
                bytes in proptest::collection::vec(any::<u8>(), 0..512)
            ) {
                if let Some(report) = CfaReport::from_bytes(&bytes) {
                    prop_assert_eq!(CfaReport::from_bytes(&report.to_bytes()), Some(report));
                }
            }
        }
    }
}
