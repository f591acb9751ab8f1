//! Fleet-scale remote attestation for the TyTAN reproduction.
//!
//! The paper evaluates one device; real deployments attest thousands.
//! This crate closes that gap host-side: a **device farm** boots
//! thousands of independent [`tytan::platform::Platform`] instances
//! ([`farm`]) on a few scoped worker threads, each device streams
//! MAC-authenticated attestation reports over a framed, versioned wire
//! protocol ([`proto`]), and a **verifier service** ([`verifier`])
//! ingests each connection and hands every report to its device's
//! session, which checks the MAC under a precomputed key schedule and
//! enforces nonce freshness so replays are rejected *typed*, not
//! silently.
//!
//! [`run_fleet`] wires the three together: each farm worker owns a
//! verifier and holds its devices' conversations with it by direct
//! calls ([`endpoint`]), through a transport that deliberately fragments
//! frames at odd boundaries (the decoders earn their keep). It drives
//! the whole fleet to completion and returns a [`FleetOutcome`] with
//! totals, rejection classes, throughput and verify-latency quantiles —
//! the numbers the repository benchmark's fleet workloads report.
//!
//! # Examples
//!
//! ```
//! use tytan_fleet::{run_fleet, FleetConfig};
//!
//! let outcome = run_fleet(&FleetConfig {
//!     devices: 4,
//!     ..FleetConfig::default()
//! })
//! .expect("fleet runs");
//! assert_eq!(outcome.accepted, 4);
//! assert!(outcome.clean());
//! ```

pub mod endpoint;
pub mod farm;
pub mod proto;
pub mod recorder;
pub mod verifier;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use tytan::attest::DeviceId;
use tytan::platform::PlatformError;
use tytan_crypto::{Digest, Sha1};
use tytan_trace::events::{EventLog, LogFields, Severity};
use tytan_trace::metrics::{self, DeltaWindow};
use tytan_trace::{Counters, Tracer};

use endpoint::{converse, ConversationError, DeviceEndpoint};
use verifier::FleetVerifier;

/// Parameters for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub devices: u64,
    /// Attestation rounds per device.
    pub rounds: u64,
    /// Seed for the fleet master secret and challenge salts. The same
    /// seed reproduces the same keys, nonces and injection pattern.
    pub seed: u64,
    /// Worker threads for the device farm. `0` picks the host's available
    /// parallelism clamped to 2..=8, looked up once per process; any
    /// other value is used as given.
    pub workers: usize,
    /// Wire chunk size: frames are fragmented into chunks of this many
    /// bytes to exercise stream reassembly (`0` = whole frames).
    pub chunk: usize,
    /// Every `n`th device re-sends each accepted report verbatim — a
    /// replay attack the verifier must reject, typed.
    pub replay_every: Option<u64>,
    /// Every `n`th device also sends a MAC-corrupted copy of each
    /// report — a forgery the verifier must reject as `BadMac`.
    pub corrupt_every: Option<u64>,
    /// Control-flow attestation mode: devices arm the CF monitor, run a
    /// monitored slice, and answer challenges with
    /// [`proto::Message::CfaReport`] frames; the verifier replays every
    /// edge log against the fleet task's static CFG.
    pub cfa: bool,
    /// (CFA mode) every `n`th device first sends a copy of its report
    /// with one edge detoured off the static CFG — the MAC still
    /// verifies (it covers the chain head, not the raw log), so only
    /// edge replay can reject it, typed `InadmissibleEdge`.
    pub detour_every: Option<u64>,
    /// (CFA mode) guest cycles of monitored execution before attesting.
    pub monitored_cycles: u64,
    /// Where to write the Prometheus metrics exposition after the run
    /// (`None` = don't write).
    pub metrics_out: Option<PathBuf>,
    /// Where to write the structured event stream as JSONL after the
    /// run (`None` = don't write).
    pub events_out: Option<PathBuf>,
    /// Directory receiving one forensic bundle file per typed rejection
    /// (`None` = no bundles are built). Created if missing.
    pub bundle_dir: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 8,
            rounds: 1,
            seed: 7,
            workers: 0,
            chunk: 13,
            replay_every: None,
            corrupt_every: None,
            cfa: false,
            detour_every: None,
            monitored_cycles: 50_000,
            metrics_out: None,
            events_out: None,
            bundle_dir: None,
        }
    }
}

impl FleetConfig {
    /// The fleet master secret for this seed.
    pub fn master(&self) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(b"tytan-fleet-master-v1");
        h.update(&self.seed.to_be_bytes());
        h.finalize_array()
    }

    fn worker_count(&self) -> usize {
        // `available_parallelism` reads the cgroup files on every call
        // (about 0.1 ms on a 2-vCPU VM), so a process looks it up once.
        static AUTO: OnceLock<usize> = OnceLock::new();
        if self.workers > 0 {
            return self.workers;
        }
        *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .clamp(2, 8)
        })
    }

    fn replay_hit(&self, device: u64) -> bool {
        matches!(self.replay_every, Some(n) if n > 0 && device.is_multiple_of(n))
    }

    fn corrupt_hit(&self, device: u64) -> bool {
        matches!(self.corrupt_every, Some(n) if n > 0 && device.is_multiple_of(n))
    }

    fn detour_hit(&self, device: u64) -> bool {
        self.cfa && matches!(self.detour_every, Some(n) if n > 0 && device.is_multiple_of(n))
    }

    /// Replay copies this configuration injects across the whole run.
    pub fn injected_replays(&self) -> u64 {
        (0..self.devices).filter(|&d| self.replay_hit(d)).count() as u64 * self.rounds
    }

    /// Corrupt copies this configuration injects across the whole run.
    pub fn injected_corrupt(&self) -> u64 {
        (0..self.devices).filter(|&d| self.corrupt_hit(d)).count() as u64 * self.rounds
    }

    /// Detoured copies this configuration injects across the whole run.
    pub fn injected_detours(&self) -> u64 {
        (0..self.devices).filter(|&d| self.detour_hit(d)).count() as u64 * self.rounds
    }
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Devices driven.
    pub devices: u64,
    /// Rounds per device.
    pub rounds: u64,
    /// Reports received by the verifier (genuine + injected copies).
    pub reports: u64,
    /// Reports accepted (MAC, freshness and digest all good).
    pub accepted: u64,
    /// Verbatim replays rejected with the typed replay error.
    pub rejected_replay: u64,
    /// Forged/corrupted MACs rejected.
    pub rejected_bad_mac: u64,
    /// Stale-nonce rejections (should be zero for honest fleets).
    pub rejected_nonce: u64,
    /// Wrong-software rejections (should be zero here).
    pub rejected_digest: u64,
    /// Reports from devices the verifier was never provisioned for.
    pub unknown_device: u64,
    /// Connections dropped on malformed frames.
    pub decode_errors: u64,
    /// Control-flow-attested reports received (subset of `reports`).
    pub cfa_reports: u64,
    /// Raw (expanded) control-flow edges the received logs cover.
    pub cfa_edges: u64,
    /// Run-length-encoded runs those logs actually shipped and refolded.
    pub cfa_runs: u64,
    /// Edge logs rejected because an edge left the static CFG.
    pub rejected_inadmissible: u64,
    /// Edge logs rejected at an unproven site (conservative mode).
    pub rejected_unproven: u64,
    /// Edge logs rejected because they do not refold to the chain head.
    pub rejected_chain: u64,
    /// Replay copies the run injected (expected `rejected_replay`).
    pub injected_replays: u64,
    /// Corrupt copies the run injected (expected `rejected_bad_mac`).
    pub injected_corrupt: u64,
    /// Detoured copies the run injected (expected `rejected_inadmissible`).
    pub injected_detours: u64,
    /// Device jobs that failed to boot, load or converse, or panicked.
    pub device_errors: u64,
    /// Wall-clock time for the whole run (boots included).
    pub elapsed: Duration,
    /// Accepted attestations per second of wall-clock.
    pub throughput: f64,
    /// Median amortized per-report verify latency (ns).
    pub verify_p50_ns: u64,
    /// 99th-percentile amortized per-report verify latency (ns).
    pub verify_p99_ns: u64,
    /// Median batch verification latency (ns).
    pub batch_p50_ns: u64,
    /// 99th-percentile batch verification latency (ns).
    pub batch_p99_ns: u64,
    /// Verification batches flushed.
    pub batches: u64,
    /// Forensic bundles built (one per typed rejection of a provisioned
    /// device); 0 when [`FleetConfig::bundle_dir`] is `None`, since none
    /// are built.
    pub bundles: u64,
    /// Structured events emitted (including any later shed); 0 when
    /// [`FleetConfig::events_out`] is `None`, since no log is kept.
    pub events: u64,
    /// Structured events shed because the bounded log was full; 0 when
    /// [`FleetConfig::events_out`] is `None`.
    pub events_dropped: u64,
}

impl FleetOutcome {
    /// Whether the run did exactly what the configuration demanded: every
    /// genuine report accepted, every injected replay and forgery
    /// rejected as its own class, nothing unexplained anywhere.
    pub fn clean(&self) -> bool {
        self.accepted == self.devices * self.rounds
            && self.rejected_replay == self.injected_replays
            && self.rejected_bad_mac == self.injected_corrupt
            && self.rejected_inadmissible == self.injected_detours
            && self.rejected_nonce == 0
            && self.rejected_digest == 0
            && self.rejected_unproven == 0
            && self.rejected_chain == 0
            && self.unknown_device == 0
            && self.decode_errors == 0
            && self.device_errors == 0
    }
}

/// Runs a whole fleet round: boots `config.devices` platforms on the
/// device farm, streams their reports through the wire protocol into the
/// farm workers' [`FleetVerifier`]s, and returns the aggregate outcome.
///
/// Each farm worker owns a verifier; it provisions each device it claims
/// and holds the conversation with [`converse`]. Each verifier counts
/// and times into its own [`Tracer`], so no two cores write one counter,
/// and the workers' counters and histograms are summed after the timed
/// phase. The structured event stream is kept only when
/// `config.events_out` will write it out, and forensic bundles are built
/// only when `config.bundle_dir` will.
///
/// Determinism: keys, digests, nonces and injections depend only on
/// `config` (throughput and latency numbers are wall-clock, of course).
///
/// # Errors
///
/// Any [`PlatformError`] from the reference boot that provisions the
/// expected fleet digest. Per-device failures do not abort the run; they
/// are counted in [`FleetOutcome::device_errors`].
pub fn run_fleet(config: &FleetConfig) -> Result<FleetOutcome, PlatformError> {
    run_fleet_traced(config).map(|(outcome, _)| outcome)
}

/// [`run_fleet`], also returning the tracer that holds the run's merged
/// counters and histograms.
fn run_fleet_traced(config: &FleetConfig) -> Result<(FleetOutcome, Tracer), PlatformError> {
    let master = config.master();
    let (_, expected_digest) = farm::reference_digest()?;
    let edges = config.cfa.then(|| Arc::new(farm::fleet_admissible_edges()));
    let event_log = config
        .events_out
        .is_some()
        .then(|| Arc::new(EventLog::new(1 << 16)));
    let workers = config.worker_count();
    // One tracer per worker; worker 0's becomes the run's once the
    // others are folded into it.
    let tracers: Vec<Tracer> = (0..workers).map(|_| Tracer::null()).collect();
    // Windowed metric deltas: each time the workers' verifiers pass
    // another WINDOW_BATCHES flushes between them, the movement of the
    // workers' summed counters since the previous window lands in the
    // event stream as rates.
    const WINDOW_BATCHES: u64 = 32;
    let flushes = AtomicU64::new(0);
    let window = Mutex::new(DeltaWindow::new(&Counters::new()));
    let tick_window = |n: u64| {
        let Some(event_log) = &event_log else {
            return;
        };
        let before = flushes.fetch_add(n, Ordering::Relaxed);
        if (before + n) / WINDOW_BATCHES > before / WINDOW_BATCHES {
            // A tick leaves the window valid at every step, so a lock
            // poisoned by a panicking device is safe to take over.
            let mut window = window.lock().unwrap_or_else(PoisonError::into_inner);
            let total = Counters::new();
            for tracer in &tracers {
                total.absorb(tracer.counters());
            }
            let detail = window.tick(&total).compact();
            let fields = LogFields {
                detail,
                ..LogFields::default()
            };
            event_log.emit(Severity::Info, "fleet.farm", "metrics.window", fields);
        }
    };

    let began = Instant::now();
    let verifiers = run_farm(
        config.devices,
        workers,
        |n| {
            let tracer = tracers[n].clone();
            let mut verifier =
                FleetVerifier::new(master, expected_digest.clone(), config.seed, tracer);
            if let Some(log) = &event_log {
                verifier.attach_event_log(log.clone());
            }
            if config.bundle_dir.is_some() {
                verifier.collect_bundles();
            }
            verifier.stride_corr_ids(n as u64 + 1, workers as u64);
            if let Some(edges) = &edges {
                verifier.provision_edge_set(edges.clone());
            }
            verifier
        },
        |verifier, d| {
            let device = DeviceId::from_u64(d);
            let mut endpoint = DeviceEndpoint::provision(device, config, &master)?;
            verifier.provision(device);
            let flushes = converse(&mut endpoint, verifier);
            // A worker's verifier holds one device at a time.
            verifier.retire(device);
            tick_window(flushes?);
            Ok::<_, ConversationError>(())
        },
    );
    let elapsed = began.elapsed();
    let (tracer, others) = tracers.split_first().expect("the farm has a worker");
    for other in others {
        tracer.counters().absorb(other.counters());
        tracer.histograms().absorb(other.histograms());
    }

    let device_errors = verifiers.iter().map(|(_, errors)| errors).sum();
    if let Some(dir) = &config.bundle_dir {
        let bundles: Vec<_> = verifiers
            .into_iter()
            .flat_map(|(mut verifier, _)| verifier.take_bundles())
            .collect();
        write_bundles(dir, &bundles);
    }
    if let Some(path) = &config.metrics_out {
        let text = metrics::prometheus_text(tracer.counters(), tracer.histograms());
        write_best_effort(path, &text);
    }
    if let (Some(path), Some(log)) = (&config.events_out, &event_log) {
        write_best_effort(path, &log.to_jsonl());
    }

    let counters = tracer.counters();
    let get = |name: &str| counters.get(name).unwrap_or(0);
    let hists = tracer.histograms();
    let verify = hists.get("lat_fleet_verify").map(|h| h.summary());
    let batch = hists.get("lat_fleet_batch").map(|h| h.summary());
    let accepted = get("fleet_accepted");
    let outcome = FleetOutcome {
        devices: config.devices,
        rounds: config.rounds,
        reports: get("fleet_reports"),
        accepted,
        rejected_replay: get("fleet_rejected_replay"),
        rejected_bad_mac: get("fleet_rejected_bad_mac"),
        rejected_nonce: get("fleet_rejected_nonce"),
        rejected_digest: get("fleet_rejected_digest"),
        unknown_device: get("fleet_unknown_device"),
        decode_errors: get("fleet_decode_errors"),
        cfa_reports: get("fleet_cfa_reports"),
        cfa_edges: get("fleet_cfa_edges"),
        cfa_runs: get("fleet_cfa_runs"),
        rejected_inadmissible: get("fleet_rejected_inadmissible"),
        rejected_unproven: get("fleet_rejected_unproven"),
        rejected_chain: get("fleet_rejected_chain"),
        injected_replays: config.injected_replays(),
        injected_corrupt: config.injected_corrupt(),
        injected_detours: config.injected_detours(),
        device_errors,
        elapsed,
        throughput: accepted as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        verify_p50_ns: verify.map_or(0, |s| s.p50),
        verify_p99_ns: verify.map_or(0, |s| s.p99),
        batch_p50_ns: batch.map_or(0, |s| s.p50),
        batch_p99_ns: batch.map_or(0, |s| s.p99),
        batches: get("fleet_batches"),
        bundles: get("fleet_bundles"),
        events: event_log.as_ref().map_or(0, |log| log.emitted()),
        events_dropped: event_log.as_ref().map_or(0, |log| log.dropped()),
    };
    Ok((outcome, tracer.clone()))
}

/// The device farm: runs `job(&mut state, d)` once for every device
/// index `d` in `0..devices` on `workers` (at least one) scoped threads
/// named `fleet-worker-{n}`, and returns each worker's `state` (made by
/// `init(n)` on its own thread) with its error count.
///
/// One shared counter shares the identical jobs out. A worker that
/// cannot be spawned leaves its share to the others; if none can be,
/// the calling thread runs worker 0 itself.
///
/// A job that returns `Err` or panics counts once as an error, and
/// neither stops the other jobs.
fn run_farm<S: Send, E>(
    devices: u64,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    job: impl Fn(&mut S, u64) -> Result<(), E> + Sync,
) -> Vec<(S, u64)> {
    let next = AtomicU64::new(0);
    let worker = |n: usize| {
        let (mut state, mut errors) = (init(n), 0);
        loop {
            let d = next.fetch_add(1, Ordering::Relaxed);
            if d >= devices {
                return (state, errors);
            }
            // A panicking device is a device error like a failing one:
            // catching it keeps this worker claiming indices and its count.
            if !matches!(
                catch_unwind(AssertUnwindSafe(|| job(&mut state, d))),
                Ok(Ok(()))
            ) {
                errors += 1;
            }
        }
    };
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .filter_map(|n| {
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{n}"))
                    .spawn_scoped(scope, move || worker(n))
                    .map_err(|e| eprintln!("fleet: could not spawn worker {n}: {e}"))
                    .ok()
            })
            .collect();
        if handles.is_empty() {
            return vec![worker(0)];
        }
        // Join each worker rather than leave it to the scope: the scope
        // waits only for the closure, `join` for the thread's exit, so
        // the next run's workers reuse its malloc arena instead of making
        // more and growing peak RSS run over run. Jobs cannot unwind a
        // worker, so a worker that does (its `init` panicked) passes its
        // panic on to the caller.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

/// Writes `content` to `path`, reporting failures to stderr instead of
/// failing the run — observability outputs must never break the books.
fn write_best_effort(path: &Path, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("fleet: could not write {}: {e}", path.display());
    }
}

/// Writes each bundle as `bundle-<n>-dev<device>-<verdict>.json` under
/// `dir` (created if missing).
fn write_bundles(dir: &Path, bundles: &[recorder::ForensicBundle]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("fleet: could not create {}: {e}", dir.display());
        return;
    }
    for (n, bundle) in bundles.iter().enumerate() {
        let name = format!("bundle-{n}-dev{}-{}.json", bundle.device, bundle.verdict);
        write_best_effort(&dir.join(name), &bundle.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use endpoint::fragments;

    /// Runs the farm with a test `job`; each worker's state is the list of
    /// indices it ran. Returns how often each index ran, every index the
    /// workers report having run (sorted), the number of workers, and the
    /// error count.
    fn farm_with(
        devices: u64,
        workers: usize,
        job: impl Fn(u64) -> Result<(), String> + Sync,
    ) -> (Vec<u64>, Vec<u64>, usize, u64) {
        let runs: Vec<AtomicU64> = (0..devices).map(|_| AtomicU64::new(0)).collect();
        let states = run_farm(
            devices,
            workers,
            |_| Vec::new(),
            |ran: &mut Vec<u64>, d| {
                let name = std::thread::current().name().map(str::to_owned);
                assert!(name.is_some_and(|n| n.starts_with("fleet-worker-")));
                runs[d as usize].fetch_add(1, Ordering::Relaxed);
                ran.push(d);
                job(d)
            },
        );
        let errors = states.iter().map(|(_, e)| e).sum();
        let mut seen: Vec<u64> = states.iter().flat_map(|(ran, _)| ran).copied().collect();
        seen.sort_unstable();
        let runs = runs.into_iter().map(AtomicU64::into_inner).collect();
        (runs, seen, states.len(), errors)
    }

    #[test]
    fn farm_runs_every_device_once_on_a_single_worker() {
        let (runs, seen, workers, errors) = farm_with(50, 1, |_| Ok(()));
        assert!(runs.iter().all(|&r| r == 1), "runs: {runs:?}");
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!(workers, 1);
        assert_eq!(errors, 0);
    }

    #[test]
    fn farm_runs_every_device_once_with_more_workers_than_devices() {
        let (runs, seen, workers, errors) = farm_with(3, 8, |_| Ok(()));
        assert_eq!(runs, vec![1, 1, 1]);
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(workers, 8);
        assert_eq!(errors, 0);
    }

    #[test]
    fn farm_with_no_devices_returns_at_once() {
        let began = Instant::now();
        let (runs, seen, _, errors) = farm_with(0, 4, |_| Ok(()));
        assert!(runs.is_empty() && seen.is_empty());
        assert_eq!(errors, 0);
        assert!(began.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn farm_counts_a_panicking_device_once_and_runs_the_rest() {
        let (runs, seen, _, errors) = farm_with(40, 3, |d| {
            if d == 17 {
                panic!("synthetic device fault");
            }
            Ok(())
        });
        assert!(runs.iter().all(|&r| r == 1), "runs: {runs:?}");
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert_eq!(errors, 1);
    }

    #[test]
    fn farm_counts_failing_devices() {
        let (runs, _, _, errors) = farm_with(30, 2, |d| match d % 10 {
            0 => Err(format!("device {d} failed")),
            _ => Ok(()),
        });
        assert!(runs.iter().all(|&r| r == 1), "runs: {runs:?}");
        assert_eq!(errors, 3);
    }

    #[test]
    fn one_fragmentation_policy_both_ways() {
        let frame: Vec<u8> = (0..30).collect();
        let sizes = |chunk| {
            fragments(&frame, chunk)
                .map(<[u8]>::len)
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(13), vec![13, 13, 4]);
        assert_eq!(sizes(0), vec![30], "0 means whole frames");
        assert_eq!(sizes(64), vec![30]);
        assert_eq!(fragments(&[], 0).count(), 0);
        assert_eq!(fragments(&[], 13).count(), 0);
        assert_eq!(
            fragments(&frame, 7).flatten().copied().collect::<Vec<_>>(),
            frame
        );
    }

    #[test]
    fn honest_fleet_is_clean() {
        let outcome = run_fleet(&FleetConfig {
            devices: 12,
            rounds: 2,
            workers: 3,
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert_eq!(outcome.accepted, 24);
        assert_eq!(outcome.reports, 24);
        assert!(outcome.clean(), "outcome: {outcome:?}");
        assert!(outcome.batches > 0);
        assert!(outcome.throughput > 0.0);
    }

    #[test]
    fn injected_replays_are_all_rejected_typed() {
        let outcome = run_fleet(&FleetConfig {
            devices: 10,
            rounds: 2,
            replay_every: Some(2),
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert_eq!(outcome.accepted, 20);
        assert_eq!(outcome.injected_replays, 10);
        assert_eq!(outcome.rejected_replay, 10);
        assert!(outcome.clean(), "outcome: {outcome:?}");
    }

    #[test]
    fn injected_forgeries_are_all_rejected_as_bad_mac() {
        let outcome = run_fleet(&FleetConfig {
            devices: 9,
            rounds: 1,
            corrupt_every: Some(3),
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert_eq!(outcome.accepted, 9);
        assert_eq!(outcome.injected_corrupt, 3);
        assert_eq!(outcome.rejected_bad_mac, 3);
        assert!(outcome.clean(), "outcome: {outcome:?}");
    }

    #[test]
    fn whole_frame_transport_works_too() {
        let outcome = run_fleet(&FleetConfig {
            devices: 4,
            chunk: 0,
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert!(outcome.clean(), "outcome: {outcome:?}");
    }

    #[test]
    fn cfa_fleet_is_clean_and_counts_cfa_reports() {
        let outcome = run_fleet(&FleetConfig {
            devices: 6,
            rounds: 2,
            cfa: true,
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert_eq!(outcome.accepted, 12);
        assert_eq!(outcome.cfa_reports, 12);
        assert!(outcome.clean(), "outcome: {outcome:?}");
    }

    #[test]
    fn cfa_logs_arrive_run_compressed() {
        let outcome = run_fleet(&FleetConfig {
            devices: 4,
            cfa: true,
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert!(outcome.clean(), "outcome: {outcome:?}");
        // The fleet task is a tight counter loop: its dominant back-edge
        // collapses into long runs. Each report covers exactly 2,165 raw
        // edges in 4 shipped runs (541.25x); both counts are
        // deterministic for the seed.
        assert_eq!(outcome.cfa_edges, 8_660);
        assert_eq!(outcome.cfa_runs, 16);
    }

    #[test]
    fn injection_schedule_counts_are_exact() {
        let config = FleetConfig {
            devices: 1_000,
            cfa: true,
            replay_every: Some(10),
            corrupt_every: Some(25),
            detour_every: Some(10),
            ..FleetConfig::default()
        };
        assert_eq!(config.injected_replays(), 100);
        assert_eq!(config.injected_corrupt(), 40);
        assert_eq!(config.injected_detours(), 100);
    }

    #[test]
    fn injected_detours_are_rejected_as_inadmissible_edges() {
        let outcome = run_fleet(&FleetConfig {
            devices: 6,
            rounds: 2,
            cfa: true,
            detour_every: Some(2),
            ..FleetConfig::default()
        })
        .expect("fleet runs");
        assert_eq!(outcome.accepted, 12);
        assert_eq!(outcome.injected_detours, 6);
        assert_eq!(outcome.rejected_inadmissible, 6);
        assert_eq!(outcome.rejected_chain, 0);
        assert_eq!(outcome.rejected_bad_mac, 0, "the detoured MAC verifies");
        assert!(outcome.clean(), "outcome: {outcome:?}");
    }

    /// An outcome with its wall-clock fields zeroed, rendered whole.
    fn books(mut o: FleetOutcome) -> String {
        o.elapsed = Duration::ZERO;
        o.throughput = 0.0;
        (o.verify_p50_ns, o.verify_p99_ns) = (0, 0);
        (o.batch_p50_ns, o.batch_p99_ns) = (0, 0);
        format!("{o:?}")
    }

    /// Books, counters, histogram counts and exposition families of one
    /// run: everything a merge of per-worker tracers could lose.
    type MergedView = (String, Vec<(String, u64)>, Vec<(String, u64)>, Vec<String>);

    fn merged_view(config: &FleetConfig) -> MergedView {
        let (outcome, tracer) = run_fleet_traced(config).expect("fleet runs");
        assert!(outcome.clean(), "outcome: {outcome:?}");
        let counters = tracer.counters().snapshot();
        assert!(counters.iter().all(|(name, _)| name.starts_with("fleet_")));
        let hists = tracer.histograms().snapshot();
        assert!(hists.iter().all(|(name, _)| name.starts_with("lat_fleet_")));
        let hist_counts = hists.into_iter().map(|(name, s)| (name, s.count)).collect();
        let text = metrics::prometheus_text(tracer.counters(), tracer.histograms());
        let families = metrics::validate_prometheus_text(&text).expect("well-formed");
        (books(outcome), counters, hist_counts, families)
    }

    #[test]
    fn merging_worker_books_loses_nothing() {
        let plain = FleetConfig {
            devices: 30,
            rounds: 2,
            seed: 97,
            replay_every: Some(4),
            corrupt_every: Some(5),
            ..FleetConfig::default()
        };
        let cfa = FleetConfig {
            devices: 12,
            cfa: true,
            detour_every: Some(3),
            ..plain.clone()
        };
        for config in [plain, cfa] {
            let one = merged_view(&FleetConfig {
                workers: 1,
                ..config.clone()
            });
            let three = merged_view(&FleetConfig {
                workers: 3,
                ..config.clone()
            });
            assert_eq!(one, three, "cfa: {}", config.cfa);
            // Every stage a report can reach in this leg recorded, and
            // every counter is named even where it stayed zero.
            assert!(one.2.len() >= 5, "histograms: {:?}", one.2);
            assert!(one
                .1
                .iter()
                .any(|(name, v)| name == "fleet_rejected_chain" && *v == 0));
        }
    }

    #[test]
    fn same_seed_same_books() {
        let config = FleetConfig {
            devices: 6,
            rounds: 1,
            replay_every: Some(3),
            corrupt_every: Some(2),
            ..FleetConfig::default()
        };
        let a = run_fleet(&config).expect("fleet runs");
        let b = run_fleet(&config).expect("fleet runs");
        // Wall-clock differs; the deterministic books must not.
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.rejected_replay, b.rejected_replay);
        assert_eq!(a.rejected_bad_mac, b.rejected_bad_mac);
        assert!(a.clean() && b.clean());
    }
}
