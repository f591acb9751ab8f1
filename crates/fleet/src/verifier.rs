//! The fleet verifier service: many connections in, batched HMAC
//! verification, per-device freshness out.
//!
//! One [`FleetVerifier`] owns every device's
//! [`tytan::attest::VerifierSession`] plus a streaming
//! [`crate::proto::FrameDecoder`] per connection. Bytes arrive in
//! whatever chunks the transport produced ([`FleetVerifier::ingest`]);
//! decoded reports accumulate in a pending batch and are verified
//! together in [`FleetVerifier::flush`]: one
//! [`tytan_crypto::batch_verify`] pass over precomputed per-device key
//! schedules (the ipad/opad states are hashed once per *device*, not
//! once per report), then each verdict completes through the session's
//! stateful nonce check.
//!
//! All verifier state is per device, so a fleet may split its devices
//! across verifiers sharing one tracer and event log.
//!
//! Everything observable lands in the shared `tytan-trace` registries:
//! `fleet_*` counters for totals and each rejection class, the
//! `lat_fleet_verify` / `lat_fleet_batch` histograms (nanoseconds) for
//! the latency tables, and — since the observability plane — per-stage
//! cost attribution (`lat_fleet_stage_*`: frame decode, batched HMAC,
//! freshness+digest, control-flow edge replay, chain refold), a
//! structured [`EventLog`] narrating challenges, reports and verdicts by
//! correlation id, and — only for a verifier asked to collect them
//! ([`FleetVerifier::collect_bundles`]) — a
//! [`crate::recorder::ForensicBundle`] for every typed rejection of a
//! provisioned device.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use tytan::attest::{
    AttestationReport, CfaReport, DeviceId, VerifierSession, VerifyError, VerifyStageNanos,
};
use tytan_crypto::{batch_verify, RunRefolder};
use tytan_lint::AdmissibleEdgeSet;
use tytan_trace::events::{EventLog, LogFields, Severity};
use tytan_trace::{HistId, Tracer};

use crate::farm::device_attestation_key;
use crate::proto::{encode, verdict_code, CodecError, FrameDecoder, Message, PROTOCOL_VERSION};
use crate::recorder::{ForensicBundle, EDGE_TAIL_CAP};

/// Maps a session verdict to its wire [`verdict_code`]. Shared by
/// [`FlushEntry::code`] and bundle replay so the two can never disagree.
pub fn result_code(result: &Result<(), VerifyError>) -> u8 {
    match result {
        Ok(()) => verdict_code::OK,
        Err(VerifyError::BadMac) => verdict_code::BAD_MAC,
        Err(VerifyError::ReplayedNonce) => verdict_code::REPLAYED_NONCE,
        Err(VerifyError::NonceMismatch) => verdict_code::NONCE_MISMATCH,
        Err(VerifyError::DigestMismatch { .. }) => verdict_code::DIGEST_MISMATCH,
        Err(VerifyError::InadmissibleEdge { .. }) => verdict_code::INADMISSIBLE_EDGE,
        Err(VerifyError::UnprovenSiteViolation { .. }) => verdict_code::UNPROVEN_SITE,
        Err(VerifyError::ChainMismatch) => verdict_code::CHAIN_MISMATCH,
    }
}

/// The verdict for one submitted report, as the orchestrator sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushEntry {
    /// The device whose report was judged.
    pub device: DeviceId,
    /// Correlation id the report carried, echoed from its challenge.
    pub corr: u64,
    /// The session verdict ([`Ok`] means accepted and nonce consumed).
    pub result: Result<(), VerifyError>,
}

impl FlushEntry {
    /// The wire [`verdict_code`] for this entry.
    pub fn code(&self) -> u8 {
        result_code(&self.result)
    }

    /// Encodes this entry as a `Verdict` frame.
    pub fn to_frame(&self, version: u8) -> Vec<u8> {
        encode(
            &Message::Verdict {
                device: self.device,
                corr: self.corr,
                accepted: self.result.is_ok(),
                code: self.code(),
            },
            version,
        )
    }
}

struct FleetCounters {
    hello: tytan_trace::CounterId,
    reports: tytan_trace::CounterId,
    cfa_reports: tytan_trace::CounterId,
    cfa_edges: tytan_trace::CounterId,
    cfa_runs: tytan_trace::CounterId,
    accepted: tytan_trace::CounterId,
    rejected_bad_mac: tytan_trace::CounterId,
    rejected_replay: tytan_trace::CounterId,
    rejected_nonce: tytan_trace::CounterId,
    rejected_digest: tytan_trace::CounterId,
    rejected_inadmissible: tytan_trace::CounterId,
    rejected_unproven: tytan_trace::CounterId,
    rejected_chain: tytan_trace::CounterId,
    cfa_unconfigured: tytan_trace::CounterId,
    unknown_device: tytan_trace::CounterId,
    decode_errors: tytan_trace::CounterId,
    batches: tytan_trace::CounterId,
    bundles: tytan_trace::CounterId,
}

/// One decoded report awaiting the batched flush — either kind shares
/// the MAC-then-session pipeline. A control-flow report carries the edge
/// set it was admitted against, so its flush cannot lack one.
enum PendingReport {
    Plain(AttestationReport),
    Cfa(CfaReport, Arc<AdmissibleEdgeSet>),
}

impl PendingReport {
    fn mac_input(&self) -> Vec<u8> {
        match self {
            PendingReport::Plain(r) => r.mac_input(),
            PendingReport::Cfa(r, _) => r.mac_input(),
        }
    }

    fn mac(&self) -> &[u8] {
        match self {
            PendingReport::Plain(r) => &r.mac,
            PendingReport::Cfa(r, _) => &r.mac,
        }
    }
}

/// The host-side attestation verifier for a whole fleet.
pub struct FleetVerifier {
    master: [u8; 20],
    expected_digest: Vec<u8>,
    salt: u64,
    sessions: HashMap<DeviceId, VerifierSession>,
    decoders: HashMap<DeviceId, FrameDecoder>,
    pending: Vec<(DeviceId, u64, PendingReport)>,
    edge_set: Option<Arc<AdmissibleEdgeSet>>,
    tracer: Tracer,
    counters: FleetCounters,
    h_verify: HistId,
    h_batch: HistId,
    h_stage_decode: HistId,
    h_stage_hmac: HistId,
    h_stage_freshness: HistId,
    h_stage_edge: HistId,
    h_stage_refold: HistId,
    /// The next correlation id to mint; `0` is reserved for "none".
    next_corr: u64,
    /// Step between minted correlation ids (see [`Self::stride_corr_ids`]).
    corr_stride: u64,
    /// Per-device Hello count — the session number in structured events.
    hello_counts: HashMap<DeviceId, u64>,
    /// Forensic bundles built so far; `None` builds none (see
    /// [`Self::collect_bundles`]).
    bundles: Option<Vec<ForensicBundle>>,
    event_log: Option<Arc<EventLog>>,
}

impl std::fmt::Debug for FleetVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetVerifier")
            .field("sessions", &self.sessions.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl FleetVerifier {
    /// Creates a verifier that derives per-device keys from `master` and
    /// expects every device to report `expected_digest`. `salt`
    /// decorrelates challenge streams across service runs.
    pub fn new(master: [u8; 20], expected_digest: Vec<u8>, salt: u64, tracer: Tracer) -> Self {
        let c = tracer.counters();
        let counters = FleetCounters {
            hello: c.register("fleet_hello"),
            reports: c.register("fleet_reports"),
            cfa_reports: c.register("fleet_cfa_reports"),
            cfa_edges: c.register("fleet_cfa_edges"),
            cfa_runs: c.register("fleet_cfa_runs"),
            accepted: c.register("fleet_accepted"),
            rejected_bad_mac: c.register("fleet_rejected_bad_mac"),
            rejected_replay: c.register("fleet_rejected_replay"),
            rejected_nonce: c.register("fleet_rejected_nonce"),
            rejected_digest: c.register("fleet_rejected_digest"),
            rejected_inadmissible: c.register("fleet_rejected_inadmissible"),
            rejected_unproven: c.register("fleet_rejected_unproven"),
            rejected_chain: c.register("fleet_rejected_chain"),
            cfa_unconfigured: c.register("fleet_cfa_unconfigured"),
            unknown_device: c.register("fleet_unknown_device"),
            decode_errors: c.register("fleet_decode_errors"),
            batches: c.register("fleet_batches"),
            bundles: c.register("fleet_bundles"),
        };
        let h = tracer.histograms();
        let h_verify = h.register("lat_fleet_verify");
        let h_batch = h.register("lat_fleet_batch");
        let h_stage_decode = h.register("lat_fleet_stage_decode");
        let h_stage_hmac = h.register("lat_fleet_stage_hmac");
        let h_stage_freshness = h.register("lat_fleet_stage_freshness");
        let h_stage_edge = h.register("lat_fleet_stage_edge_replay");
        let h_stage_refold = h.register("lat_fleet_stage_refold");
        FleetVerifier {
            master,
            expected_digest,
            salt,
            sessions: HashMap::new(),
            decoders: HashMap::new(),
            pending: Vec::new(),
            edge_set: None,
            tracer,
            counters,
            h_verify,
            h_batch,
            h_stage_decode,
            h_stage_hmac,
            h_stage_freshness,
            h_stage_edge,
            h_stage_refold,
            next_corr: 1,
            corr_stride: 1,
            hello_counts: HashMap::new(),
            bundles: None,
            event_log: None,
        }
    }

    /// Attaches a structured event log; challenges, reports, verdicts
    /// and bundles are narrated into it with their correlation ids.
    pub fn attach_event_log(&mut self, log: Arc<EventLog>) {
        self.event_log = Some(log);
    }

    /// Has every later typed rejection of a provisioned device build a
    /// forensic bundle (and bump `fleet_bundles`, and log a `bundle`
    /// event). Without this call the verifier builds none.
    pub fn collect_bundles(&mut self) {
        self.bundles.get_or_insert_with(Vec::new);
    }

    /// Takes every forensic bundle produced since the last call; empty
    /// unless [`Self::collect_bundles`] was called.
    pub fn take_bundles(&mut self) -> Vec<ForensicBundle> {
        self.bundles
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn log_event(
        &self,
        severity: Severity,
        event: &str,
        device: Option<DeviceId>,
        corr: u64,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(log) = &self.event_log {
            let session = device.and_then(|d| self.hello_counts.get(&d).copied());
            log.emit(
                severity,
                "fleet.verifier",
                event,
                LogFields {
                    device: device.map(DeviceId::as_u64),
                    session,
                    corr: (corr != 0).then_some(corr),
                    detail: detail(),
                },
            );
        }
    }

    /// Mints correlation ids `first`, `first + stride`, … (0 counts as 1):
    /// verifiers given distinct `first`s in `1..=stride` never collide.
    pub fn stride_corr_ids(&mut self, first: u64, stride: u64) {
        self.next_corr = first.max(1);
        self.corr_stride = stride.max(1);
    }

    /// Provisions a session for `device` (derives its shared `K_a` from
    /// the fleet master). Connections from unprovisioned devices are
    /// counted and ignored — the roster is explicit.
    pub fn provision(&mut self, device: DeviceId) {
        let ka = device_attestation_key(&self.master, device);
        // Per-device salt keeps nonce streams distinct even if two
        // sessions interleave challenges identically.
        let salt = self.salt ^ device.as_u64().rotate_left(32);
        self.sessions.insert(
            device,
            VerifierSession::new(device, ka, self.expected_digest.clone(), salt),
        );
    }

    /// Registers the admissible edge set `tytan-lint` extracted from
    /// the fleet's reference task image. Required before any
    /// [`crate::proto::Message::CfaReport`] can be verified: a CFA
    /// report arriving while no edge set is registered is counted
    /// (`fleet_cfa_unconfigured`) and dropped without a verdict — the
    /// service refuses to judge evidence it has no reference for.
    /// Verifiers of one fleet can share one set behind an [`Arc`].
    pub fn provision_edge_set(&mut self, edges: impl Into<Arc<AdmissibleEdgeSet>>) {
        self.edge_set = Some(edges.into());
    }

    /// Drops all state held for `device` except its finished bundles;
    /// later frames from it count as from an unprovisioned device.
    pub fn retire(&mut self, device: DeviceId) {
        self.sessions.remove(&device);
        self.decoders.remove(&device);
        self.hello_counts.remove(&device);
    }

    /// Reports decoded but not yet verified.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Issues a fresh challenge for `device` and returns it as an
    /// encoded `Challenge` frame (`None` for unknown devices). Mints a
    /// fresh correlation id the device echoes in its answer, so one id
    /// follows the whole attestation round.
    pub fn challenge_frame(&mut self, device: DeviceId, version: u8) -> Option<Vec<u8>> {
        let session = self.sessions.get_mut(&device)?;
        let nonce = session.challenge();
        let corr = self.next_corr;
        self.next_corr += self.corr_stride;
        self.log_event(Severity::Info, "challenge", Some(device), corr, || {
            format!("nonce {} bytes", nonce.len())
        });
        Some(encode(
            &Message::Challenge {
                device,
                corr,
                nonce,
            },
            version,
        ))
    }

    /// Feeds received bytes from `from`'s connection through its frame
    /// decoder and handles every complete message: a `Hello` from `from`
    /// itself at [`PROTOCOL_VERSION`] gets a `Welcome` and a first
    /// challenge, `Report`s join the pending batch.
    ///
    /// Returns frames to send back to `from` (the `Hello` replies).
    /// Decode failures poison that connection and bump
    /// `fleet_decode_errors`; they never propagate as panics.
    pub fn ingest(&mut self, from: DeviceId, bytes: &[u8]) -> Vec<Vec<u8>> {
        // Decode every complete frame first, so the decoder's borrow of
        // `self.decoders` ends before any message is handled.
        let decoder = self.decoders.entry(from).or_default();
        decoder.push(bytes);
        let mut decoded = Vec::new();
        let mut failure = None;
        loop {
            let decode_began = Instant::now();
            match decoder.next_message_sized() {
                Ok(Some(sized)) => {
                    self.tracer.histograms().record(
                        self.h_stage_decode,
                        decode_began.elapsed().as_nanos() as u64,
                    );
                    decoded.push(sized);
                }
                Ok(None) | Err(CodecError::Poisoned) => break,
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        let mut replies = Vec::new();
        for (message, frame_len) in decoded {
            self.handle(from, message, frame_len, &mut replies);
        }
        if let Some(err) = failure {
            self.tracer.counters().add(self.counters.decode_errors, 1);
            self.log_event(Severity::Warn, "decode_error", Some(from), 0, || {
                format!("{err}")
            });
        }
        replies
    }

    /// Handles one decoded message that arrived on `from`'s connection
    /// in a frame of `frame_len` bytes.
    fn handle(
        &mut self,
        from: DeviceId,
        message: Message,
        frame_len: usize,
        replies: &mut Vec<Vec<u8>>,
    ) {
        match message {
            Message::Hello {
                device,
                max_version,
            } => {
                self.tracer.counters().add(self.counters.hello, 1);
                // A Hello speaks only for its own connection: one naming
                // another device would re-challenge that device and void
                // the nonce its honest report answers.
                if device != from {
                    self.tracer.counters().add(self.counters.decode_errors, 1);
                    self.log_event(Severity::Warn, "hello_mismatch", Some(from), 0, || {
                        format!("hello names device {device}")
                    });
                    return;
                }
                if !self.sessions.contains_key(&device) {
                    self.tracer.counters().add(self.counters.unknown_device, 1);
                    self.log_event(Severity::Warn, "hello_unknown", Some(device), 0, || {
                        "hello from unprovisioned device".to_string()
                    });
                    return;
                }
                *self.hello_counts.entry(device).or_insert(0) += 1;
                if max_version < PROTOCOL_VERSION {
                    self.tracer.counters().add(self.counters.decode_errors, 1);
                    self.log_event(
                        Severity::Warn,
                        "hello_unsupported_version",
                        Some(device),
                        0,
                        || CodecError::UnsupportedVersion { got: max_version }.to_string(),
                    );
                    return;
                }
                self.log_event(Severity::Info, "hello", Some(device), 0, || {
                    format!("version {PROTOCOL_VERSION}")
                });
                replies.push(encode(
                    &Message::Welcome {
                        version: PROTOCOL_VERSION,
                    },
                    PROTOCOL_VERSION,
                ));
                if let Some(frame) = self.challenge_frame(device, PROTOCOL_VERSION) {
                    replies.push(frame);
                }
            }
            Message::Report {
                device,
                corr,
                report,
            } => {
                self.tracer.counters().add(self.counters.reports, 1);
                self.log_event(Severity::Debug, "report", Some(device), corr, || {
                    format!("frame {frame_len} bytes")
                });
                self.pending
                    .push((device, corr, PendingReport::Plain(report)));
            }
            Message::CfaReport {
                device,
                corr,
                report,
            } => {
                self.tracer.counters().add(self.counters.reports, 1);
                self.tracer.counters().add(self.counters.cfa_reports, 1);
                let Some(edges) = self.edge_set.clone() else {
                    self.tracer
                        .counters()
                        .add(self.counters.cfa_unconfigured, 1);
                    self.log_event(
                        Severity::Warn,
                        "cfa_unconfigured",
                        Some(device),
                        corr,
                        || "cfa report dropped: no edge set registered".to_string(),
                    );
                    return;
                };
                // Two counters, two semantics: `cfa_edges` stays on the
                // raw expanded-edge count (replay work admitted, and
                // the long-lived bench baseline), `cfa_runs` counts
                // what actually crossed the wire and gets refolded.
                self.tracer
                    .counters()
                    .add(self.counters.cfa_edges, report.raw_edges());
                self.tracer
                    .counters()
                    .add(self.counters.cfa_runs, report.log.len() as u64);
                self.log_event(Severity::Debug, "cfa_report", Some(device), corr, || {
                    format!(
                        "frame {frame_len} bytes, {} edges in {} runs",
                        report.raw_edges(),
                        report.log.len()
                    )
                });
                self.pending
                    .push((device, corr, PendingReport::Cfa(report, edges)));
            }
            // Welcome / Challenge / Verdict are verifier → device;
            // receiving one here is a protocol misuse we just count.
            Message::Welcome { .. } | Message::Challenge { .. } | Message::Verdict { .. } => {
                self.tracer.counters().add(self.counters.decode_errors, 1);
            }
        }
    }

    /// Builds the forensic bundle for one rejected report of a
    /// provisioned session. The freshness snapshot is taken after the
    /// rejection, which equals the verification-time state: rejections
    /// never consume nonces.
    fn build_bundle(
        session: &VerifierSession,
        master: [u8; 20],
        expected_digest: &[u8],
        device: DeviceId,
        corr: u64,
        report: &PendingReport,
        code: u8,
    ) -> ForensicBundle {
        let (frame, edge_tail, edge_set_json) = match report {
            PendingReport::Plain(r) => (
                encode(
                    &Message::Report {
                        device,
                        corr,
                        report: r.clone(),
                    },
                    PROTOCOL_VERSION,
                ),
                Vec::new(),
                None,
            ),
            PendingReport::Cfa(r, edges) => (
                encode(
                    &Message::CfaReport {
                        device,
                        corr,
                        report: r.clone(),
                    },
                    PROTOCOL_VERSION,
                ),
                r.log[r.log.len().saturating_sub(EDGE_TAIL_CAP)..].to_vec(),
                Some(edges.to_json()),
            ),
        };
        ForensicBundle {
            device: device.as_u64(),
            corr,
            verdict: verdict_code::name(code).to_string(),
            code,
            master,
            expected_digest: expected_digest.to_vec(),
            frame,
            consumed: session.consumed_nonces(),
            outstanding: session.outstanding_nonce().map(<[u8]>::to_vec),
            edge_tail,
            edge_set_json,
        }
    }

    /// Verifies every pending report: one batched HMAC pass over the
    /// precomputed per-device key schedules, then the stateful session
    /// checks (freshness, replay window, digest) per report. A verifier
    /// that [collects bundles](Self::collect_bundles) also builds one for
    /// every typed rejection of a provisioned device.
    pub fn flush(&mut self) -> Vec<FlushEntry> {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return Vec::new();
        }
        self.tracer.counters().add(self.counters.batches, 1);
        let collect = self.bundles.is_some();
        let begin = Instant::now();

        // Phase 1: batched MAC verification. Unknown devices get no MAC
        // check at all — there is no key to check against.
        let inputs: Vec<Option<Vec<u8>>> = pending
            .iter()
            .map(|(device, _, report)| {
                self.sessions
                    .contains_key(device)
                    .then(|| report.mac_input())
            })
            .collect();
        let items = pending
            .iter()
            .zip(&inputs)
            .filter_map(|((device, _, report), input)| {
                let schedule = self.sessions.get(device)?.schedule();
                Some((schedule, input.as_deref()?, report.mac()))
            });
        let hmac_began = Instant::now();
        let outcome = batch_verify(items);
        let hmac_elapsed = hmac_began.elapsed().as_nanos() as u64;
        let batched = outcome.ok.len() as u64;
        // The batch shares one timestamp pair; each report is charged
        // its mean share of the HMAC pass.
        if let Some(share) = hmac_elapsed.checked_div(batched) {
            for _ in 0..batched {
                self.tracer.histograms().record(self.h_stage_hmac, share);
            }
        }

        // Phase 2: complete each report through its session. One
        // refolder serves the whole flush, so the SHA-1 run-block
        // template is set up once per batch, not once per report.
        let mut refolder = RunRefolder::new();
        let mut verdicts = outcome.ok.into_iter();
        let mut entries = Vec::with_capacity(pending.len());
        let mut bundles = Vec::new();
        for ((device, corr, report), input) in pending.iter().zip(&inputs) {
            // `batch_verify` returns one verdict per batched item, in
            // order; a report left without one is rejected below.
            let mac = input.as_ref().and_then(|_| verdicts.next());
            let mut stages = VerifyStageNanos::default();
            let mut mac_ok_known = false;
            let result = match (self.sessions.get_mut(device), mac) {
                (Some(session), Some(mac_ok)) => {
                    mac_ok_known = mac_ok;
                    let result = match report {
                        PendingReport::Plain(report) => {
                            session.submit_with_mac_verdict_timed(report, mac_ok, Some(&mut stages))
                        }
                        PendingReport::Cfa(report, edges) => session
                            .submit_cfa_with_mac_verdict_timed(
                                report,
                                mac_ok,
                                edges,
                                Some(&mut refolder),
                                Some(&mut stages),
                            ),
                    };
                    if collect && result.is_err() {
                        bundles.push(Self::build_bundle(
                            session,
                            self.master,
                            &self.expected_digest,
                            *device,
                            *corr,
                            report,
                            result_code(&result),
                        ));
                    }
                    result
                }
                _ => {
                    self.tracer.counters().add(self.counters.unknown_device, 1);
                    Err(VerifyError::BadMac)
                }
            };
            // Per-stage attribution: record a stage only when it ran.
            // MAC failures short-circuit before freshness; control-flow
            // stages exist only for CFA reports; an inadmissible edge
            // stops before the refold.
            if mac_ok_known {
                self.tracer
                    .histograms()
                    .record(self.h_stage_freshness, stages.freshness);
                if matches!(report, PendingReport::Cfa(..)) {
                    let reached_edges = matches!(
                        &result,
                        Ok(())
                            | Err(VerifyError::InadmissibleEdge { .. })
                            | Err(VerifyError::UnprovenSiteViolation { .. })
                            | Err(VerifyError::ChainMismatch)
                    );
                    if reached_edges {
                        self.tracer
                            .histograms()
                            .record(self.h_stage_edge, stages.edge_replay);
                        let reached_refold =
                            matches!(&result, Ok(()) | Err(VerifyError::ChainMismatch));
                        if reached_refold {
                            self.tracer
                                .histograms()
                                .record(self.h_stage_refold, stages.chain_refold);
                        }
                    }
                }
            }
            let counter = match &result {
                Ok(()) => self.counters.accepted,
                Err(VerifyError::BadMac) => self.counters.rejected_bad_mac,
                Err(VerifyError::ReplayedNonce) => self.counters.rejected_replay,
                Err(VerifyError::NonceMismatch) => self.counters.rejected_nonce,
                Err(VerifyError::DigestMismatch { .. }) => self.counters.rejected_digest,
                Err(VerifyError::InadmissibleEdge { .. }) => self.counters.rejected_inadmissible,
                Err(VerifyError::UnprovenSiteViolation { .. }) => self.counters.rejected_unproven,
                Err(VerifyError::ChainMismatch) => self.counters.rejected_chain,
            };
            self.tracer.counters().add(counter, 1);
            let code = result_code(&result);
            self.log_event(
                if result.is_ok() {
                    Severity::Info
                } else {
                    Severity::Warn
                },
                "verdict",
                Some(*device),
                *corr,
                || verdict_code::name(code).to_string(),
            );
            entries.push(FlushEntry {
                device: *device,
                corr: *corr,
                result,
            });
        }
        for bundle in &bundles {
            self.tracer.counters().add(self.counters.bundles, 1);
            self.log_event(
                Severity::Error,
                "bundle",
                Some(DeviceId::from_u64(bundle.device)),
                bundle.corr,
                || format!("forensic bundle: {}", bundle.verdict),
            );
        }
        if let Some(kept) = &mut self.bundles {
            kept.extend(bundles);
        }

        let elapsed = begin.elapsed().as_nanos() as u64;
        self.tracer.histograms().record(self.h_batch, elapsed);
        // Amortized per-report verify latency: the batch shares one
        // timestamp pair, so each report is charged its mean share.
        let per_report = elapsed / entries.len() as u64;
        for _ in 0..entries.len() {
            self.tracer.histograms().record(self.h_verify, per_report);
        }
        entries
    }

    /// Sum of reports accepted across every session.
    pub fn accepted_total(&self) -> u64 {
        self.sessions.values().map(VerifierSession::accepted).sum()
    }

    /// The tracer whose counters and histograms this verifier reports
    /// into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::replay_bundle;
    use tytan_crypto::TaskId;

    const MASTER: [u8; 20] = [0xA5; 20];

    fn digest() -> Vec<u8> {
        vec![0x11; 20]
    }

    /// An honest report from `device` (MACed under its derived `K_a`).
    fn attest(device: DeviceId, nonce: &[u8]) -> AttestationReport {
        let digest = digest();
        let mut report = AttestationReport {
            id: TaskId::from_digest(&digest),
            digest,
            nonce: nonce.to_vec(),
            mac: Vec::new(),
        };
        let key = device_attestation_key(&MASTER, device).to_hmac_key();
        report.mac = key.sign(&report.mac_input());
        report
    }

    fn verifier_with(devices: u64) -> FleetVerifier {
        let mut v = FleetVerifier::new(MASTER, digest(), 7, Tracer::null());
        for d in 0..devices {
            v.provision(DeviceId::from_u64(d));
        }
        v
    }

    fn challenge_parts(frame: &[u8]) -> (u64, Vec<u8>) {
        match crate::proto::decode(frame).expect("challenge frame").0 {
            Message::Challenge { corr, nonce, .. } => (corr, nonce),
            other => panic!("expected challenge, got {other:?}"),
        }
    }

    #[test]
    fn hello_negotiates_and_challenges() {
        let mut v = verifier_with(1);
        let device = DeviceId::from_u64(0);
        let hello = encode(
            &Message::Hello {
                device,
                max_version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        );
        let replies = v.ingest(device, &hello);
        assert_eq!(replies.len(), 2);
        assert_eq!(
            crate::proto::decode(&replies[0]).unwrap().0,
            Message::Welcome {
                version: PROTOCOL_VERSION
            }
        );
        assert!(matches!(
            crate::proto::decode(&replies[1]).unwrap().0,
            Message::Challenge { .. }
        ));
    }

    #[test]
    fn hello_below_protocol_version_is_rejected_typed() {
        let mut v = verifier_with(1);
        let log = Arc::new(EventLog::new(16));
        v.attach_event_log(log.clone());
        let device = DeviceId::from_u64(0);
        let hello = encode(
            &Message::Hello {
                device,
                max_version: PROTOCOL_VERSION - 1,
            },
            PROTOCOL_VERSION,
        );
        // No Welcome, no Challenge, no correlation id minted.
        assert!(v.ingest(device, &hello).is_empty());
        assert_eq!(v.next_corr, 1);
        assert_eq!(v.tracer().counters().get("fleet_decode_errors"), Some(1));
        let events = log.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, "hello_unsupported_version");
        assert_eq!(events[0].severity, Severity::Warn);
        assert_eq!(
            events[0].fields.detail,
            CodecError::UnsupportedVersion {
                got: PROTOCOL_VERSION - 1
            }
            .to_string()
        );
    }

    fn hello(device: DeviceId) -> Vec<u8> {
        encode(
            &Message::Hello {
                device,
                max_version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        )
    }

    fn report_frame(device: DeviceId, corr: u64, report: AttestationReport) -> Vec<u8> {
        encode(
            &Message::Report {
                device,
                corr,
                report,
            },
            PROTOCOL_VERSION,
        )
    }

    #[test]
    fn hello_naming_another_device_cannot_void_its_challenge() {
        let mut v = verifier_with(2);
        let log = Arc::new(EventLog::new(16));
        v.attach_event_log(log.clone());
        let (a, b) = (DeviceId::from_u64(0), DeviceId::from_u64(1));
        let (corr, nonce) =
            challenge_parts(&v.challenge_frame(b, PROTOCOL_VERSION).expect("known"));
        // A Hello naming B on A's connection: no reply, no corr minted,
        // counted and logged against A's connection.
        assert!(v.ingest(a, &hello(b)).is_empty());
        assert_eq!(v.next_corr, 2);
        assert_eq!(v.tracer().counters().get("fleet_decode_errors"), Some(1));
        let refused = log.events().into_iter().last().expect("logged");
        assert_eq!(refused.event, "hello_mismatch");
        assert_eq!(refused.fields.device, Some(a.as_u64()));
        // B's honest answer to its original challenge still verifies.
        v.ingest(b, &report_frame(b, corr, attest(b, &nonce)));
        let entries = v.flush();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].result, Ok(()));
        // A's connection is not poisoned: its own Hello still works.
        assert_eq!(v.ingest(a, &hello(a)).len(), 2);
    }

    #[test]
    fn hellos_from_unprovisioned_ids_leave_no_hello_counts() {
        let mut v = verifier_with(1);
        for d in 1_000..2_000 {
            let ghost = DeviceId::from_u64(d);
            assert!(v.ingest(ghost, &hello(ghost)).is_empty());
        }
        assert!(v.hello_counts.is_empty());
        assert_eq!(
            v.tracer().counters().get("fleet_unknown_device"),
            Some(1_000)
        );
    }

    /// One flush of an accepted report, its verbatim replay, a forgery
    /// and a ghost's report; returns the verdicts, every counter but
    /// `fleet_bundles`, and the bundles built.
    fn mixed_flush(collect: bool) -> (Vec<FlushEntry>, Vec<(String, u64)>, usize) {
        let mut v = verifier_with(2);
        if collect {
            v.collect_bundles();
        }
        let (honest, forger, ghost) = (
            DeviceId::from_u64(0),
            DeviceId::from_u64(1),
            DeviceId::from_u64(999),
        );
        let (corr, nonce) =
            challenge_parts(&v.challenge_frame(honest, PROTOCOL_VERSION).expect("known"));
        let frame = report_frame(honest, corr, attest(honest, &nonce));
        v.ingest(honest, &frame);
        v.ingest(honest, &frame);
        let (corr, nonce) =
            challenge_parts(&v.challenge_frame(forger, PROTOCOL_VERSION).expect("known"));
        let mut forged = attest(forger, &nonce);
        forged.mac[0] ^= 1;
        v.ingest(forger, &report_frame(forger, corr, forged));
        v.ingest(ghost, &report_frame(ghost, 9, attest(ghost, b"nonce")));
        let entries = v.flush();
        let counters = v
            .tracer()
            .counters()
            .snapshot()
            .into_iter()
            .filter(|(name, _)| name != "fleet_bundles")
            .collect();
        (entries, counters, v.take_bundles().len())
    }

    #[test]
    fn collecting_bundles_changes_no_verdict_or_count() {
        let (entries, counters, bundles) = mixed_flush(true);
        assert_eq!(entries.len(), 4);
        assert_eq!(bundles, 2, "the replay and the forgery, not the ghost");
        assert_eq!(mixed_flush(false), (entries, counters, 0));
    }

    #[test]
    fn batch_of_reports_verifies_and_replays_are_typed() {
        let mut v = verifier_with(8);
        let mut frames = Vec::new();
        for d in 0..8u64 {
            let device = DeviceId::from_u64(d);
            let (corr, nonce) =
                challenge_parts(&v.challenge_frame(device, PROTOCOL_VERSION).expect("known"));
            let report = attest(device, &nonce);
            frames.push((
                device,
                corr,
                encode(
                    &Message::Report {
                        device,
                        corr,
                        report,
                    },
                    PROTOCOL_VERSION,
                ),
            ));
        }
        // Deliver byte-by-byte to exercise stream reassembly.
        for (device, _, frame) in &frames {
            for byte in frame {
                let replies = v.ingest(*device, std::slice::from_ref(byte));
                assert!(replies.is_empty());
            }
        }
        assert_eq!(v.pending(), 8);
        let entries = v.flush();
        assert!(entries.iter().all(|e| e.result.is_ok()));
        // The verdict carries back the corr the report carried in.
        for (entry, (_, corr, _)) in entries.iter().zip(&frames) {
            assert_eq!(entry.corr, *corr);
            assert!(matches!(
                crate::proto::decode(&entry.to_frame(PROTOCOL_VERSION)).unwrap().0,
                Message::Verdict { corr: c, accepted: true, .. } if c == *corr
            ));
        }
        assert_eq!(v.accepted_total(), 8);

        // Replay the whole batch verbatim: every copy must be rejected
        // as a replay, none accepted.
        for (device, _, frame) in &frames {
            v.ingest(*device, frame);
        }
        let entries = v.flush();
        assert!(entries
            .iter()
            .all(|e| e.result == Err(VerifyError::ReplayedNonce)));
        assert_eq!(v.accepted_total(), 8);
        assert_eq!(v.tracer().counters().get("fleet_rejected_replay"), Some(8));
    }

    #[test]
    fn unknown_device_reports_never_verify() {
        let mut v = verifier_with(1);
        v.collect_bundles();
        let ghost = DeviceId::from_u64(999);
        let report = attest(ghost, b"nonce");
        let frame = encode(
            &Message::Report {
                device: ghost,
                corr: 5,
                report,
            },
            PROTOCOL_VERSION,
        );
        v.ingest(ghost, &frame);
        let entries = v.flush();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].result.is_err());
        assert_eq!(v.tracer().counters().get("fleet_unknown_device"), Some(1));
        // No bundle: the verifier has no key material for ghosts, so a
        // replay could not reproduce the roster decision.
        assert!(v.take_bundles().is_empty());
    }

    #[test]
    fn corrupt_stream_is_counted_and_poisoned() {
        let mut v = verifier_with(1);
        let device = DeviceId::from_u64(0);
        v.ingest(device, &[0xFF, 0xFF, 0xFF, 0xFF, 0x00]);
        assert_eq!(v.tracer().counters().get("fleet_decode_errors"), Some(1));
        // Further bytes on the poisoned connection are ignored, and the
        // error is not double-counted.
        let hello = encode(
            &Message::Hello {
                device,
                max_version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        );
        assert!(v.ingest(device, &hello).is_empty());
        assert_eq!(v.tracer().counters().get("fleet_decode_errors"), Some(1));
    }

    #[test]
    fn latency_histograms_populate_on_flush() {
        let mut v = verifier_with(1);
        let device = DeviceId::from_u64(0);
        let (corr, nonce) =
            challenge_parts(&v.challenge_frame(device, PROTOCOL_VERSION).expect("known"));
        let report = attest(device, &nonce);
        v.ingest(
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
        v.flush();
        let hists = v.tracer().histograms();
        assert_eq!(hists.get("lat_fleet_verify").unwrap().count(), 1);
        assert_eq!(hists.get("lat_fleet_batch").unwrap().count(), 1);
        // Per-stage attribution for an accepted plain report: decode,
        // HMAC share and freshness ran; no control-flow stages.
        assert_eq!(hists.get("lat_fleet_stage_decode").unwrap().count(), 1);
        assert_eq!(hists.get("lat_fleet_stage_hmac").unwrap().count(), 1);
        assert_eq!(hists.get("lat_fleet_stage_freshness").unwrap().count(), 1);
        assert_eq!(hists.get("lat_fleet_stage_edge_replay").unwrap().count(), 0);
        assert_eq!(hists.get("lat_fleet_stage_refold").unwrap().count(), 0);
    }

    #[test]
    fn rejections_produce_bundles_that_replay_to_the_same_verdict() {
        let mut v = verifier_with(2);
        v.collect_bundles();
        let device = DeviceId::from_u64(0);
        let (corr, nonce) =
            challenge_parts(&v.challenge_frame(device, PROTOCOL_VERSION).expect("known"));
        let report = attest(device, &nonce);
        let frame = encode(
            &Message::Report {
                device,
                corr,
                report: report.clone(),
            },
            PROTOCOL_VERSION,
        );
        // Honest report accepted, then its verbatim replay rejected.
        v.ingest(device, &frame);
        v.ingest(device, &frame);
        // And a corrupt copy from the second device.
        let other = DeviceId::from_u64(1);
        let (corr2, nonce2) =
            challenge_parts(&v.challenge_frame(other, PROTOCOL_VERSION).expect("known"));
        let mut forged = attest(other, &nonce2);
        forged.mac[0] ^= 0x80;
        v.ingest(
            other,
            &encode(
                &Message::Report {
                    device: other,
                    corr: corr2,
                    report: forged,
                },
                PROTOCOL_VERSION,
            ),
        );
        let entries = v.flush();
        assert_eq!(entries.len(), 3);
        assert_eq!(v.tracer().counters().get("fleet_bundles"), Some(2));
        let bundles = v.take_bundles();
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].verdict, "replayed_nonce");
        assert_eq!(bundles[1].verdict, "bad_mac");
        for bundle in &bundles {
            let outcome = replay_bundle(&bundle.to_json()).expect("bundle replays");
            assert!(
                outcome.matches,
                "bundle {} replayed to {} (recorded {})",
                bundle.verdict, outcome.replayed_code, outcome.recorded_code
            );
        }
        // Taking drains.
        assert!(v.take_bundles().is_empty());
    }

    #[test]
    fn event_log_narrates_the_round_with_one_corr() {
        let mut v = verifier_with(1);
        let log = Arc::new(EventLog::new(64));
        v.attach_event_log(log.clone());
        let device = DeviceId::from_u64(0);
        let hello = encode(
            &Message::Hello {
                device,
                max_version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        );
        let replies = v.ingest(device, &hello);
        let (corr, nonce) = challenge_parts(&replies[1]);
        let report = attest(device, &nonce);
        v.ingest(
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
        v.flush();
        let events = log.events();
        let with_corr: Vec<_> = events
            .iter()
            .filter(|e| e.fields.corr == Some(corr))
            .collect();
        // challenge, report, verdict all share the round's corr.
        let kinds: Vec<&str> = with_corr.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(kinds, vec!["challenge", "report", "verdict"]);
        // Every event from this round names the device and session 1.
        for e in &with_corr {
            assert_eq!(e.fields.device, Some(0));
            assert_eq!(e.fields.session, Some(1));
        }
    }
}
