//! Prints every reproduced table/figure of the paper's evaluation.
//!
//! Run with: `cargo run -p tytan-bench --bin tables --release`
//!
//! Flags (combinable):
//!
//! - `--json`: additionally emits the same data as JSON — paper value,
//!   measured value, and unit per row, the host-cache counters, and the
//!   latency histogram summaries of the observed workload — and writes it
//!   to `BENCH_tables.json` in the current directory. Beside it, it writes
//!   the golden `BENCH_tables.counts`: every deterministic metric of the
//!   document, one `key value` line each (see `tytan_bench::render_counts`).
//!   The counts file is tracked; a changed count shows as a `git diff`,
//!   which CI fails on. Exits nonzero when either file cannot be written.
//! - `--check`: validates the JSON document against the checked-in schema
//!   (`crates/bench/schema/bench_tables.schema.json`) and exits nonzero on
//!   any violation. Implies computing the document; combine with `--json`
//!   to also write it.
//! - `--trace`: runs the traced paper workload and writes its Chrome
//!   `trace_event` export to `BENCH_trace.json` (load in `chrome://tracing`
//!   or Perfetto).
//! - `--profile`: runs the profiled use-case workload and writes the
//!   folded-stack flamegraph text to `BENCH_profile.folded` (feed to
//!   `flamegraph.pl` or speedscope); prints the top cycle consumers and
//!   symbolization coverage to stderr.
//! - `--engine-floor <x>`: asserts the block translator's speedup over the
//!   legacy reference loop (the `translator speedup` row of the
//!   `engine_throughput` table, a median over alternating pairs) is at
//!   least `<x>`, exiting nonzero otherwise. Implies computing the
//!   document.

use tytan_bench::{experiments, render, render_counts, render_json, schema};

fn main() {
    let mut json_mode = false;
    let mut check_mode = false;
    let mut trace_mode = false;
    let mut profile_mode = false;
    let mut engine_floor: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_mode = true,
            "--check" => check_mode = true,
            "--trace" => trace_mode = true,
            "--profile" => profile_mode = true,
            "--engine-floor" => match args.next().as_deref().map(str::parse::<f64>) {
                Some(Ok(floor)) => engine_floor = Some(floor),
                _ => {
                    eprintln!("--engine-floor requires a numeric argument");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!(
                    "unknown flag {arg}; known flags: --json --check --trace --profile \
                     --engine-floor <x>"
                );
                std::process::exit(2);
            }
        }
    }

    if trace_mode {
        let trace = experiments::chrome_trace_use_case();
        if let Err(err) = std::fs::write("BENCH_trace.json", &trace) {
            eprintln!("error: could not write BENCH_trace.json: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote BENCH_trace.json ({} bytes)", trace.len());
    }

    if profile_mode {
        let report = experiments::profile_use_case();
        let folded = report.folded();
        if let Err(err) = std::fs::write("BENCH_profile.folded", &folded) {
            eprintln!("error: could not write BENCH_profile.folded: {err}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote BENCH_profile.folded ({} stacks, {:.1}% of {} cycles symbolized)",
            folded.lines().count(),
            report.coverage() * 100.0,
            report.total,
        );
        eprint!("{}", report.top(15));
    }

    if json_mode || check_mode || engine_floor.is_some() {
        let tables = experiments::all();
        let counters = experiments::fast_path_counters();
        let latency = experiments::latency_snapshot();
        let json = render_json(&tables, &counters, &latency);
        if check_mode {
            if let Err(errors) = schema::check_bench_tables(&json) {
                eprintln!("BENCH_tables.json violates its schema:");
                for error in errors {
                    eprintln!("  - {error}");
                }
                std::process::exit(1);
            }
            eprintln!("schema check passed");
        }
        if json_mode {
            let counts = render_counts(&tables, &counters, &latency);
            for (path, contents) in [
                ("BENCH_tables.json", &json),
                ("BENCH_tables.counts", &counts),
            ] {
                if let Err(err) = std::fs::write(path, contents) {
                    eprintln!("error: could not write {path}: {err}");
                    std::process::exit(1);
                }
            }
            print!("{json}");
        }
        if let Some(floor) = engine_floor {
            let speedup = tables
                .iter()
                .find(|t| t.id == "engine_throughput")
                .and_then(|t| t.rows.iter().find(|r| r.label == "translator speedup"))
                .map(|r| r.measured);
            match speedup {
                Some(speedup) if speedup >= floor => {
                    eprintln!("engine floor passed: translator speedup {speedup:.2}x >= {floor}x");
                }
                Some(speedup) => {
                    eprintln!(
                        "engine floor FAILED: translator speedup {speedup:.2}x < required {floor}x"
                    );
                    std::process::exit(1);
                }
                None => {
                    eprintln!("engine floor FAILED: no engine_throughput speedup row computed");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    if trace_mode || profile_mode {
        return;
    }

    println!("TyTAN (DAC 2015) — reproduced evaluation");
    println!("paper values vs. cycle counts measured on the simulated platform");
    println!();
    for table in experiments::all() {
        println!("{}", render(&table));
    }
}
