//! Fleet attestation driver CLI.
//!
//! Boots a fleet of simulated TyTAN devices, streams their attestation
//! reports through the framed wire protocol into the verifier service,
//! and prints the outcome. Exits non-zero unless the run was
//! *clean*: every genuine report accepted, every injected replay and
//! forgery rejected as its own class, zero decode errors — which is
//! exactly what the `fleet-smoke` CI job asserts.
//!
//! Every failure is typed and carries its own exit code, so CI and
//! scripts can branch on *why* a run failed without scraping stderr:
//!
//! | exit | meaning                                                |
//! |------|--------------------------------------------------------|
//! | 0    | success                                                |
//! | 1    | verification failed (run not clean, bundle mismatch,   |
//! |      | metrics family missing)                                |
//! | 2    | usage error (bad flag or missing argument)             |
//! | 3    | reference platform failed to boot                      |
//! | 4    | I/O error reading or writing an artifact               |
//!
//! In `--cfa` mode every device arms the control-flow monitor, runs a
//! monitored slice, and answers with `CfaReport` frames; the verifier
//! replays each edge log against the fleet task's static CFG, and
//! `--detour-every N` makes every `N`th device first send a copy with
//! one edge bent off the CFG, which must be rejected as the typed
//! `InadmissibleEdge` for the run to count as clean.
//!
//! Observability outputs: `--metrics-out FILE` writes the Prometheus
//! exposition after the run, `--events-out FILE` the structured JSONL
//! event stream, and `--bundle-dir DIR` one forensic bundle per typed
//! rejection. Two subcommands work on those artifacts:
//!
//! - `fleet replay-bundle FILE...` re-verifies each bundle offline and
//!   exits zero only if every one reproduces its recorded verdict;
//! - `fleet check-metrics FILE --schema SCHEMA` validates a metrics
//!   exposition against the checked-in required-family schema.
//!
//! ```text
//! fleet [--devices N] [--rounds N] [--seed N] [--workers N]
//!       [--chunk N] [--replay-every N] [--corrupt-every N]
//!       [--cfa] [--detour-every N] [--monitored-cycles N]
//!       [--metrics-out FILE] [--events-out FILE] [--bundle-dir DIR]
//!       [--json]
//! fleet replay-bundle FILE...
//! fleet check-metrics FILE --schema SCHEMA
//! ```

use std::process::ExitCode;

use tytan_fleet::recorder::replay_bundle;
use tytan_fleet::{run_fleet, FleetConfig, FleetOutcome};
use tytan_trace::json::Value;
use tytan_trace::metrics::validate_prometheus_text;

/// Every way a fleet invocation can fail, each with its own exit code
/// (see the module docs). Replaces the old single catch-all
/// `ExitCode::FAILURE` so callers never have to parse stderr.
#[derive(Debug)]
enum FleetError {
    /// Verification did not hold: a run booked unexplained rejections,
    /// a bundle replay mismatched, or a required metrics family was
    /// missing.
    NotClean(String),
    /// The command line was malformed.
    Usage(String),
    /// The reference platform boot that provisions the fleet failed.
    Boot(String),
    /// An artifact file could not be read.
    Io(String),
}

impl FleetError {
    fn exit_code(&self) -> u8 {
        match self {
            FleetError::NotClean(_) => 1,
            FleetError::Usage(_) => 2,
            FleetError::Boot(_) => 3,
            FleetError::Io(_) => 4,
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NotClean(what) => write!(f, "{what}"),
            FleetError::Usage(what) => write!(f, "usage: {what}"),
            FleetError::Boot(what) => write!(f, "reference boot failed: {what}"),
            FleetError::Io(what) => write!(f, "{what}"),
        }
    }
}

/// `fleet replay-bundle FILE...`: re-verifies each forensic bundle
/// offline; success means every bundle reproduces its recorded verdict.
/// Unreadable files are I/O failures; mismatches and rejected bundles
/// are verification failures (I/O wins when both occur).
fn cmd_replay_bundle(paths: Vec<String>) -> Result<(), FleetError> {
    if paths.is_empty() {
        return Err(FleetError::Usage("fleet replay-bundle FILE...".to_string()));
    }
    let mut io_failures = 0u64;
    let mut mismatches = 0u64;
    for path in &paths {
        let input = match std::fs::read_to_string(path) {
            Ok(input) => input,
            Err(e) => {
                eprintln!("fleet replay-bundle: {path}: {e}");
                io_failures += 1;
                continue;
            }
        };
        match replay_bundle(&input) {
            Ok(outcome) if outcome.matches => {
                println!(
                    "{path}: device {} corr {} -> {} (reproduced)",
                    outcome.device, outcome.corr, outcome.verdict
                );
            }
            Ok(outcome) => {
                eprintln!(
                    "{path}: MISMATCH — recorded code {} but replay produced {}",
                    outcome.recorded_code, outcome.replayed_code
                );
                mismatches += 1;
            }
            Err(e) => {
                eprintln!("{path}: bundle rejected: {e}");
                mismatches += 1;
            }
        }
    }
    let failures = io_failures + mismatches;
    if failures == 0 {
        return Ok(());
    }
    let what = format!("replay-bundle: {failures} of {} failed", paths.len());
    if io_failures > 0 {
        Err(FleetError::Io(what))
    } else {
        Err(FleetError::NotClean(what))
    }
}

/// `fleet check-metrics FILE --schema SCHEMA`: validates a Prometheus
/// exposition file and checks every family the schema requires exists.
fn cmd_check_metrics(rest: Vec<String>) -> Result<(), FleetError> {
    let mut file = None;
    let mut schema = None;
    let mut iter = rest.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--schema" => schema = iter.next(),
            other => {
                if file.replace(other.to_string()).is_some() {
                    return Err(FleetError::Usage(
                        "check-metrics: more than one metrics file given".to_string(),
                    ));
                }
            }
        }
    }
    let (Some(file), Some(schema)) = (file, schema) else {
        return Err(FleetError::Usage(
            "fleet check-metrics FILE --schema SCHEMA".to_string(),
        ));
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| FleetError::Io(format!("check-metrics: {file}: {e}")))?;
    let families = validate_prometheus_text(&text)
        .map_err(|e| FleetError::NotClean(format!("check-metrics: {file}: {e}")))?;
    let schema_text = std::fs::read_to_string(&schema)
        .map_err(|e| FleetError::Io(format!("check-metrics: {schema}: {e}")))?;
    let required = required_families(&schema_text)
        .map_err(|e| FleetError::NotClean(format!("check-metrics: {schema}: {e}")))?;
    let mut missing = 0u64;
    for family in &required {
        if !families.iter().any(|f| f == family) {
            eprintln!("fleet check-metrics: required family {family} missing");
            missing += 1;
        }
    }
    if missing == 0 {
        println!(
            "{file}: {} families, all {} required present",
            families.len(),
            required.len()
        );
        Ok(())
    } else {
        Err(FleetError::NotClean(format!(
            "check-metrics: {missing} required families missing"
        )))
    }
}

/// Parses the `required_families` list out of the metrics schema file.
fn required_families(schema: &str) -> Result<Vec<String>, String> {
    let value = tytan_trace::json::parse(schema).map_err(|e| e.to_string())?;
    let list = value
        .get("required_families")
        .and_then(Value::as_array)
        .ok_or("schema has no required_families array")?;
    list.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "required_families entries must be strings".to_string())
        })
        .collect()
}

fn print_json(outcome: &FleetOutcome) {
    println!("{{");
    println!("  \"devices\": {},", outcome.devices);
    println!("  \"rounds\": {},", outcome.rounds);
    println!("  \"reports\": {},", outcome.reports);
    println!("  \"accepted\": {},", outcome.accepted);
    println!("  \"rejected_replay\": {},", outcome.rejected_replay);
    println!("  \"rejected_bad_mac\": {},", outcome.rejected_bad_mac);
    println!("  \"rejected_nonce\": {},", outcome.rejected_nonce);
    println!("  \"rejected_digest\": {},", outcome.rejected_digest);
    println!("  \"unknown_device\": {},", outcome.unknown_device);
    println!("  \"decode_errors\": {},", outcome.decode_errors);
    println!("  \"cfa_reports\": {},", outcome.cfa_reports);
    println!("  \"cfa_edges\": {},", outcome.cfa_edges);
    println!("  \"cfa_runs\": {},", outcome.cfa_runs);
    println!(
        "  \"rejected_inadmissible\": {},",
        outcome.rejected_inadmissible
    );
    println!("  \"rejected_unproven\": {},", outcome.rejected_unproven);
    println!("  \"rejected_chain\": {},", outcome.rejected_chain);
    println!("  \"injected_replays\": {},", outcome.injected_replays);
    println!("  \"injected_corrupt\": {},", outcome.injected_corrupt);
    println!("  \"injected_detours\": {},", outcome.injected_detours);
    println!("  \"device_errors\": {},", outcome.device_errors);
    println!("  \"elapsed_ms\": {},", outcome.elapsed.as_millis());
    println!("  \"throughput_atts_per_s\": {:.1},", outcome.throughput);
    println!("  \"verify_p50_ns\": {},", outcome.verify_p50_ns);
    println!("  \"verify_p99_ns\": {},", outcome.verify_p99_ns);
    println!("  \"batch_p50_ns\": {},", outcome.batch_p50_ns);
    println!("  \"batch_p99_ns\": {},", outcome.batch_p99_ns);
    println!("  \"batches\": {},", outcome.batches);
    println!("  \"bundles\": {},", outcome.bundles);
    println!("  \"events\": {},", outcome.events);
    println!("  \"events_dropped\": {},", outcome.events_dropped);
    println!("  \"clean\": {}", outcome.clean());
    println!("}}");
}

fn print_human(outcome: &FleetOutcome) {
    println!(
        "fleet: {} devices x {} rounds -> {} reports in {:.2?}",
        outcome.devices, outcome.rounds, outcome.reports, outcome.elapsed
    );
    println!(
        "  accepted {}  ({:.0} atts/s)",
        outcome.accepted, outcome.throughput
    );
    println!(
        "  rejected: replay {} (injected {}), bad-mac {} (injected {}), nonce {}, digest {}",
        outcome.rejected_replay,
        outcome.injected_replays,
        outcome.rejected_bad_mac,
        outcome.injected_corrupt,
        outcome.rejected_nonce,
        outcome.rejected_digest,
    );
    if outcome.cfa_reports > 0 {
        println!(
            "  cfa: {} cf-attested reports, inadmissible {} (detours injected {}), \
             chain {}, unproven {}",
            outcome.cfa_reports,
            outcome.rejected_inadmissible,
            outcome.injected_detours,
            outcome.rejected_chain,
            outcome.rejected_unproven,
        );
        println!(
            "  cfa logs: {} raw edges in {} runs ({:.1}x compression)",
            outcome.cfa_edges,
            outcome.cfa_runs,
            outcome.cfa_edges as f64 / (outcome.cfa_runs as f64).max(1.0),
        );
    }
    println!(
        "  verify latency p50 {} ns, p99 {} ns  ({} batches, batch p99 {} ns)",
        outcome.verify_p50_ns, outcome.verify_p99_ns, outcome.batches, outcome.batch_p99_ns
    );
    println!(
        "  forensics: {} bundles, {} events ({} shed)",
        outcome.bundles, outcome.events, outcome.events_dropped
    );
    println!(
        "  decode errors {}, unknown devices {}, device errors {}",
        outcome.decode_errors, outcome.unknown_device, outcome.device_errors
    );
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn dispatch() -> Result<(), FleetError> {
    let mut args = std::env::args().skip(1);
    let argv = match args.next() {
        Some(first) if first == "replay-bundle" => {
            return cmd_replay_bundle(args.collect());
        }
        Some(first) if first == "check-metrics" => {
            return cmd_check_metrics(args.collect());
        }
        // Not a subcommand: re-parse from scratch including `first`.
        Some(first) => std::iter::once(first).chain(args).collect(),
        None => Vec::new(),
    };
    let (config, json) = parse_args_from(argv).map_err(FleetError::Usage)?;
    let outcome = run_fleet(&config).map_err(|e| FleetError::Boot(format!("{e:?}")))?;
    if json {
        print_json(&outcome);
    } else {
        print_human(&outcome);
    }
    if outcome.clean() {
        Ok(())
    } else {
        Err(FleetError::NotClean(
            "NOT CLEAN — unexplained acceptances or rejections (see counts above)".to_string(),
        ))
    }
}

/// Parses run flags from an owned argument list (after subcommand
/// dispatch has consumed the first argument).
fn parse_args_from(argv: Vec<String>) -> Result<(FleetConfig, bool), String> {
    let mut config = FleetConfig {
        devices: 1000,
        ..FleetConfig::default()
    };
    let mut json = false;
    let mut args = argv.into_iter();
    fn value(args: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, String> {
        args.next()
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    }
    fn path(
        args: &mut impl Iterator<Item = String>,
        name: &str,
    ) -> Result<std::path::PathBuf, String> {
        args.next()
            .map(std::path::PathBuf::from)
            .ok_or_else(|| format!("{name} needs a path"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--devices" => config.devices = value(&mut args, "--devices")?,
            "--rounds" => config.rounds = value(&mut args, "--rounds")?,
            "--seed" => config.seed = value(&mut args, "--seed")?,
            "--workers" => config.workers = value(&mut args, "--workers")? as usize,
            "--chunk" => config.chunk = value(&mut args, "--chunk")? as usize,
            "--replay-every" => config.replay_every = Some(value(&mut args, "--replay-every")?),
            "--corrupt-every" => config.corrupt_every = Some(value(&mut args, "--corrupt-every")?),
            "--cfa" => config.cfa = true,
            "--detour-every" => config.detour_every = Some(value(&mut args, "--detour-every")?),
            "--monitored-cycles" => {
                config.monitored_cycles = value(&mut args, "--monitored-cycles")?
            }
            "--metrics-out" => config.metrics_out = Some(path(&mut args, "--metrics-out")?),
            "--events-out" => config.events_out = Some(path(&mut args, "--events-out")?),
            "--bundle-dir" => config.bundle_dir = Some(path(&mut args, "--bundle-dir")?),
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: fleet [--devices N] [--rounds N] [--seed N] [--workers N] \
                     [--chunk N] [--replay-every N] [--corrupt-every N] \
                     [--cfa] [--detour-every N] [--monitored-cycles N] \
                     [--metrics-out FILE] [--events-out FILE] [--bundle-dir DIR] [--json]\n\
                     \x20      fleet replay-bundle FILE...\n\
                     \x20      fleet check-metrics FILE --schema SCHEMA"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((config, json))
}
