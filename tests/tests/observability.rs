//! Fleet observability & forensics, end to end across crates.
//!
//! The fleet crate's unit tests cover forensic bundles and replay in
//! isolation; here the full orchestrated driver runs with injected
//! attacks and every observability artifact is consumed the way an
//! operator would: forensic bundle files re-verified offline with
//! [`tytan_fleet::recorder::replay_bundle`], the Prometheus exposition
//! validated, and the event JSONL parsed line by line.

use std::fs;
use std::path::PathBuf;

use tytan_fleet::recorder::replay_bundle;
use tytan_fleet::{run_fleet, FleetConfig, FleetOutcome};
use tytan_trace::events::LogEvent;
use tytan_trace::metrics::validate_prometheus_text;

/// A unique, self-cleaning scratch directory per test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("tytan-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Reads every bundle file under `dir`, replays each offline, and
/// asserts the reproduced verdict matches the recorded one and carries
/// the expected name.
fn replay_all_bundles(dir: &PathBuf, expected_verdict: &str) -> usize {
    let mut replayed = 0;
    for entry in fs::read_dir(dir).expect("bundle dir exists") {
        let path = entry.expect("dir entry").path();
        let json = fs::read_to_string(&path).expect("bundle reads");
        let outcome =
            replay_bundle(&json).unwrap_or_else(|e| panic!("{} replays: {e}", path.display()));
        assert!(
            outcome.matches,
            "{}: recorded code {} but replay produced {}",
            path.display(),
            outcome.recorded_code,
            outcome.replayed_code
        );
        assert_eq!(
            outcome.verdict,
            expected_verdict,
            "{}: unexpected verdict class",
            path.display()
        );
        replayed += 1;
    }
    replayed
}

#[test]
fn injected_replays_produce_bundles_that_reverify_offline() {
    let scratch = Scratch::new("replay");
    let bundles = scratch.path("bundles");
    let metrics = scratch.path("metrics.prom");
    let events = scratch.path("events.jsonl");

    let outcome = run_fleet(&FleetConfig {
        devices: 12,
        rounds: 2,
        seed: 0xBAD5EED,
        replay_every: Some(3),
        metrics_out: Some(metrics.clone()),
        events_out: Some(events.clone()),
        bundle_dir: Some(bundles.clone()),
        ..FleetConfig::default()
    })
    .expect("fleet runs");
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(outcome.rejected_replay, 8);

    // Every typed rejection produced exactly one bundle file, and every
    // bundle re-verifies offline to the identical typed verdict.
    assert_eq!(outcome.bundles, 8);
    assert_eq!(replay_all_bundles(&bundles, "replayed_nonce"), 8);

    // The metrics exposition is well-formed Prometheus text and carries
    // the fleet families the schema contract names.
    let text = fs::read_to_string(&metrics).expect("metrics written");
    let families = validate_prometheus_text(&text).expect("exposition validates");
    for family in ["tytan_fleet_reports", "tytan_fleet_bundles"] {
        assert!(families.iter().any(|f| f == family), "missing {family}");
    }

    // Every event line is canonical JSONL, and the stream narrates the
    // rejections it booked.
    let jsonl = fs::read_to_string(&events).expect("events written");
    let mut rejected = 0;
    for line in jsonl.lines() {
        let event = LogEvent::from_json(line).expect("canonical event line");
        if event.event == "verdict" && event.fields.detail == "replayed_nonce" {
            rejected += 1;
        }
    }
    assert_eq!(rejected, 8);
    assert!(outcome.events >= jsonl.lines().count() as u64);
}

#[test]
fn injected_detours_produce_bundles_that_reverify_offline() {
    let scratch = Scratch::new("detour");
    let bundles = scratch.path("bundles");

    let outcome = run_fleet(&FleetConfig {
        devices: 10,
        rounds: 1,
        seed: 0xC0FFEE,
        cfa: true,
        detour_every: Some(5),
        bundle_dir: Some(bundles.clone()),
        ..FleetConfig::default()
    })
    .expect("fleet runs");
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(outcome.rejected_inadmissible, 2);

    // Detour rejections carry the edge log and admissible set in the
    // bundle, so offline replay walks the same CFG to the same verdict.
    assert_eq!(outcome.bundles, 2);
    assert_eq!(replay_all_bundles(&bundles, "inadmissible_edge"), 2);
}

/// Runs `config` with the event stream written under `scratch` as `name`
/// and returns the parsed events.
fn events_of(scratch: &Scratch, name: &str, config: FleetConfig) -> Vec<LogEvent> {
    let path = scratch.path(name);
    let outcome = run_fleet(&FleetConfig {
        events_out: Some(path.clone()),
        ..config
    })
    .expect("fleet runs");
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(outcome.events_dropped, 0, "the whole stream is retained");
    fs::read_to_string(&path)
        .expect("events written")
        .lines()
        .map(|line| LogEvent::from_json(line).expect("canonical event line"))
        .collect()
}

#[test]
fn correlation_ids_stay_unique_across_worker_verifiers() {
    let scratch = Scratch::new("corr");
    let events = events_of(
        &scratch,
        "events.jsonl",
        FleetConfig {
            devices: 24,
            rounds: 3,
            workers: 3,
            replay_every: Some(4),
            corrupt_every: Some(5),
            ..FleetConfig::default()
        },
    );
    let mut challenges = std::collections::HashMap::new();
    for event in events.iter().filter(|e| e.event == "challenge") {
        let corr = event.fields.corr.expect("a challenge carries its corr");
        let device = event.fields.device.expect("a challenge names its device");
        assert!(
            challenges.insert(corr, device).is_none(),
            "corr {corr} minted twice"
        );
    }
    assert_eq!(challenges.len(), 24 * 3);
    let mut verdicts = 0;
    for event in events.iter().filter(|e| e.event == "verdict") {
        let corr = event.fields.corr.expect("a verdict carries its corr");
        assert_eq!(
            challenges.get(&corr).copied(),
            event.fields.device,
            "verdict corr {corr} does not name its device's challenge"
        );
        verdicts += 1;
    }
    // Genuine reports, 6 devices' replays and 5 devices' forgeries, per round.
    assert_eq!(verdicts, (24 + 6 + 5) * 3);
}

#[test]
fn single_worker_event_stream_is_identical_run_to_run() {
    let scratch = Scratch::new("determinism");
    let config = FleetConfig {
        devices: 40,
        rounds: 2,
        workers: 1,
        replay_every: Some(3),
        corrupt_every: Some(4),
        ..FleetConfig::default()
    };
    // Window details carry wall-clock rates; everything else must match.
    let comparable = |events: Vec<LogEvent>| -> Vec<String> {
        events
            .into_iter()
            .map(|mut e| {
                if e.event == "metrics.window" {
                    e.fields.detail.clear();
                }
                e.to_json()
            })
            .collect()
    };
    let a = comparable(events_of(&scratch, "a.jsonl", config.clone()));
    let b = comparable(events_of(&scratch, "b.jsonl", config));
    assert!(a.iter().any(|line| line.contains("metrics.window")));
    assert_eq!(a, b);
}

#[test]
fn fleet_keeps_no_events_unless_they_are_written_out() {
    let outcome = run_fleet(&FleetConfig {
        devices: 6,
        rounds: 2,
        replay_every: Some(3),
        ..FleetConfig::default()
    })
    .expect("fleet runs");
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!((outcome.events, outcome.events_dropped), (0, 0));
}

/// Every count a run books (what `clean()` judges, plus the work done);
/// leaves out wall-clock figures and the observability outputs.
fn books(o: &FleetOutcome) -> [u64; 21] {
    [
        o.devices,
        o.rounds,
        o.reports,
        o.accepted,
        o.rejected_replay,
        o.rejected_bad_mac,
        o.rejected_nonce,
        o.rejected_digest,
        o.unknown_device,
        o.decode_errors,
        o.cfa_reports,
        o.cfa_edges,
        o.cfa_runs,
        o.rejected_inadmissible,
        o.rejected_unproven,
        o.rejected_chain,
        o.injected_replays,
        o.injected_corrupt,
        o.injected_detours,
        o.device_errors,
        o.batches,
    ]
}

#[test]
fn fleet_keeps_no_bundles_unless_they_are_written_out() {
    let config = FleetConfig {
        devices: 12,
        rounds: 2,
        replay_every: Some(3),
        corrupt_every: Some(4),
        ..FleetConfig::default()
    };
    let without = run_fleet(&config).expect("fleet runs");
    assert!(without.clean(), "{without:?}");
    assert_eq!(without.bundles, 0);

    let scratch = Scratch::new("no-bundles");
    let with = run_fleet(&FleetConfig {
        bundle_dir: Some(scratch.path("bundles")),
        ..config
    })
    .expect("fleet runs");
    assert!(with.clean(), "{with:?}");
    assert_eq!(with.bundles, with.injected_replays + with.injected_corrupt);
    assert!(with.bundles > 0);
    assert_eq!(books(&without), books(&with));
}
