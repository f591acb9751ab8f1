//! The TyTAN evaluation harness.
//!
//! One experiment per table/figure of the paper's evaluation (§6). Every
//! experiment runs the corresponding code path on the simulated platform,
//! measures **simulated clock cycles** (the unit the paper reports), and
//! returns a [`Table`] pairing each measured value with the paper's
//! number. `cargo run -p tytan-bench --bin tables` prints them all, and
//! with `--json` pins every deterministic count in `BENCH_tables.counts`.
//! Host speed has one table, `engine_throughput`.
//!
//! Absolute cycle counts come from the documented cost model (DESIGN.md)
//! — the reproduced claims are the *shapes*: which phases dominate, what
//! scales linearly in what, and where real-time behaviour holds.

pub mod experiments;
pub mod schema;

use std::fmt::Write as _;
use tytan_trace::hist::Summary;

/// One measured row of an experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (workload/parameter).
    pub label: String,
    /// The paper's reported value, if it reports one for this row.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit of both values.
    pub unit: &'static str,
}

impl Row {
    /// Builds a row with a paper reference value.
    pub fn with_paper(
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        Row {
            label: label.into(),
            paper: Some(paper),
            measured,
            unit,
        }
    }

    /// Builds a measurement-only row (no paper counterpart).
    pub fn measured_only(label: impl Into<String>, measured: f64, unit: &'static str) -> Self {
        Row {
            label: label.into(),
            paper: None,
            measured,
            unit,
        }
    }

    /// measured / paper, when the paper value exists and is nonzero.
    pub fn ratio(&self) -> Option<f64> {
        match self.paper {
            Some(p) if p != 0.0 => Some(self.measured / p),
            _ => None,
        }
    }
}

/// One reproduced table or figure.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id ("table1", …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Notes on methodology / interpretation.
    pub note: &'static str,
    /// The rows.
    pub rows: Vec<Row>,
}

/// Renders a table as aligned text.
pub fn render(table: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", table.id, table.title);
    let width = table
        .rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(10)
        .max(10);
    let _ = writeln!(
        out,
        "{:width$}  {:>14}  {:>14}  {:>8}  unit",
        "row", "paper", "measured", "ratio",
    );
    for row in &table.rows {
        let paper = match row.paper {
            Some(p) => format_num(p),
            None => "—".to_string(),
        };
        let ratio = match row.ratio() {
            Some(r) => format!("{r:.2}x"),
            None => "—".to_string(),
        };
        let _ = writeln!(
            out,
            "{:width$}  {:>14}  {:>14}  {:>8}  {}",
            row.label,
            paper,
            format_num(row.measured),
            ratio,
            row.unit,
        );
    }
    if !table.note.is_empty() {
        let _ = writeln!(out, "note: {}", table.note);
    }
    out
}

/// Renders all tables as a JSON document for machine consumption
/// (`tables --json` writes this to `BENCH_tables.json`; the document
/// validates against `schema/bench_tables.schema.json`).
///
/// `counters` is the flat instrumentation snapshot (see
/// [`experiments::fast_path_counters`]): raw per-layer event counts plus
/// the derived cache hit rates. `latency` is the histogram snapshot of
/// the observed workload (see [`experiments::latency_snapshot`]): one
/// count/p50/p90/p99/max record per measured distribution.
pub fn render_json(
    tables: &[Table],
    counters: &[(String, f64)],
    latency: &[(String, Summary)],
) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {}", json_string(name), json_number(*value));
    }
    if !counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"latency\": {");
    for (i, (name, s)) in latency.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
            json_string(name),
            s.count,
            s.p50,
            s.p90,
            s.p99,
            s.max,
        );
    }
    if !latency.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"tables\": [");
    for (t, table) in tables.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\n      \"id\": {},\n      \"title\": {},\n      \"rows\": [",
            json_string(table.id),
            json_string(table.title),
        );
        for (r, row) in table.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{\"label\": {}, \"paper\": {}, \"measured\": {}, \"unit\": {}}}",
                json_string(&row.label),
                row.paper.map_or("null".to_string(), json_number),
                json_number(row.measured),
                json_string(row.unit),
            );
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the deterministic metrics of the same data as the golden
/// counts file (`tables --json` writes it to `BENCH_tables.counts`
/// beside `BENCH_tables.json`; CI regenerates it and fails on any
/// `git diff`, so every count is pinned exactly).
///
/// One `key value` line per metric, in emission order:
/// `tables.<id>.<label>` for every row not measured in a wall-clock unit,
/// then `counters.<name>`, then `latency.<name>.<field>` for `count`,
/// `p50`, `p90`, `p99` and `max`. Labels may contain spaces and colons,
/// but a value never contains a space, so the value is everything after
/// the line's last space. Values are f64 `Display`, the shortest form
/// that round-trips.
pub fn render_counts(
    tables: &[Table],
    counters: &[(String, f64)],
    latency: &[(String, Summary)],
) -> String {
    let mut out = String::new();
    for table in tables {
        for row in table.rows.iter().filter(|r| !is_wall_clock(r.unit)) {
            let _ = writeln!(out, "tables.{}.{} {}", table.id, row.label, row.measured);
        }
    }
    for (name, value) in counters {
        let _ = writeln!(out, "counters.{name} {value}");
    }
    for (name, s) in latency {
        for (field, v) in [
            ("count", s.count),
            ("p50", s.p50),
            ("p90", s.p90),
            ("p99", s.p99),
            ("max", s.max),
        ] {
            let _ = writeln!(out, "latency.{name}.{field} {}", v as f64);
        }
    }
    out
}

/// Row units that measure host wall-clock speed, not simulated cycles:
/// they vary with the machine, so [`render_counts`] leaves them out.
fn is_wall_clock(unit: &str) -> bool {
    matches!(unit, "images/s" | "instr/s" | "speedup")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let n = v as i64;
        let raw = n.abs().to_string();
        let mut grouped = String::new();
        for (i, c) in raw.chars().enumerate() {
            if i > 0 && (raw.len() - i).is_multiple_of(3) {
                grouped.push(',');
            }
            grouped.push(c);
        }
        if n < 0 {
            format!("-{grouped}")
        } else {
            grouped
        }
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_ratio() {
        let row = Row::with_paper("x", 100.0, 150.0, "cycles");
        assert_eq!(row.ratio(), Some(1.5));
        assert_eq!(Row::measured_only("y", 1.0, "kHz").ratio(), None);
    }

    #[test]
    fn render_contains_all_rows() {
        let table = Table {
            id: "tableX",
            title: "demo",
            note: "n",
            rows: vec![
                Row::with_paper("alpha", 1000.0, 1100.0, "cycles"),
                Row::measured_only("beta", 2.5, "kHz"),
            ],
        };
        let text = render(&table);
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("1,000"));
        assert!(text.contains("1.10x"));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_num(642241.0), "642,241");
        assert_eq!(format_num(95.0), "95");
        assert_eq!(format_num(15.92), "15.92");
    }

    #[test]
    fn json_rendering() {
        let table = Table {
            id: "tableX",
            title: "demo \"quoted\"",
            note: "n",
            rows: vec![
                Row::with_paper("alpha", 1000.0, 1100.5, "cycles"),
                Row::measured_only("beta", 2.5, "kHz"),
            ],
        };
        let counters = vec![
            ("block_hit_rate".to_string(), 0.97),
            ("eampu_cache_hit_rate".to_string(), 0.99),
            ("emu_block_compile".to_string(), 12.0),
            ("emu_block_hit".to_string(), 480.0),
            ("emu_block_invalidate_smc".to_string(), 1.0),
            ("emu_block_invalidate_mpu".to_string(), 2.0),
        ];
        let latency = vec![
            (
                "lat_irq_entry".to_string(),
                Summary {
                    count: 15,
                    sum: 3_000,
                    p50: 180,
                    p90: 220,
                    p99: 260,
                    max: 291,
                },
            ),
            (
                "lat_ctx_save".to_string(),
                Summary {
                    count: 15,
                    sum: 1_500,
                    p50: 96,
                    p90: 100,
                    p99: 104,
                    max: 104,
                },
            ),
            (
                "lat_ctx_restore".to_string(),
                Summary {
                    count: 14,
                    sum: 1_400,
                    p50: 96,
                    p90: 100,
                    p99: 104,
                    max: 104,
                },
            ),
            (
                "lat_ipc_rtt".to_string(),
                Summary {
                    count: 1,
                    sum: 1_300,
                    p50: 1_280,
                    p90: 1_280,
                    p99: 1_280,
                    max: 1_300,
                },
            ),
        ];
        let json = render_json(&[table], &counters, &latency);
        assert!(json.contains("\"block_hit_rate\": 0.97"));
        assert!(json.contains(
            "\"lat_irq_entry\": {\"count\": 15, \"p50\": 180, \"p90\": 220, \"p99\": 260, \"max\": 291}"
        ));
        assert!(json.contains("\"id\": \"tableX\""));
        assert!(json.contains("\"title\": \"demo \\\"quoted\\\"\""));
        assert!(json.contains("\"paper\": 1000, \"measured\": 1100.5"));
        assert!(json.contains("\"paper\": null, \"measured\": 2.5"));
        let parsed = tytan_trace::json::parse(&json).expect("render_json emits valid JSON");
        assert!(parsed.get("counters").is_some());
        // The rendered document honours the checked-in schema contract.
        schema::check_bench_tables(&json).expect("schema-valid");
    }

    /// The three sections `render_counts` reads.
    type Doc = (Vec<Table>, Vec<(String, f64)>, Vec<(String, Summary)>);

    /// A synthetic document: a table mixing cycle, kHz and wall-clock
    /// rows (one label with spaces and a colon), two counters and two
    /// latency distributions.
    fn sample() -> Doc {
        let table = Table {
            id: "table2",
            title: "demo",
            note: "",
            rows: vec![
                Row::with_paper("overall", 95.0, 9500.0, "cycles"),
                Row::measured_only("t0: rate at 2 tasks", 1.5, "kHz"),
                Row::measured_only("throughput", 123_456.0, "instr/s"),
                Row::measured_only("lint", 40.0, "images/s"),
                Row::measured_only("translator speedup", 3.0, "speedup"),
            ],
        };
        let counters = vec![
            ("block_hit_rate".to_string(), 0.97),
            ("emu_instr_alu".to_string(), 12345.0),
        ];
        let summary = |count, p50, max| Summary {
            count,
            sum: count * p50,
            p50,
            p90: p50 + 40,
            p99: p50 + 80,
            max,
        };
        let latency = vec![
            ("lat_irq_entry".to_string(), summary(15, 180, 291)),
            ("lat_ipc_rtt".to_string(), summary(1, 1280, 1300)),
        ];
        (vec![table], counters, latency)
    }

    fn counts_of(doc: &Doc) -> String {
        render_counts(&doc.0, &doc.1, &doc.2)
    }

    /// Splits every counts line into key and value at its last space.
    fn parse_counts(counts: &str) -> Vec<(&str, f64)> {
        counts
            .lines()
            .map(|line| {
                let (key, value) = line.rsplit_once(' ').expect("key value line");
                (key, value.parse().expect("numeric value"))
            })
            .collect()
    }

    #[test]
    fn counts_leave_out_wall_clock_rows() {
        let counts = counts_of(&sample());
        for label in ["throughput", "lint", "translator speedup"] {
            assert!(!counts.contains(label), "{label} in:\n{counts}");
        }
        assert!(counts
            .starts_with("tables.table2.overall 9500\ntables.table2.t0: rate at 2 tasks 1.5\n"));
    }

    #[test]
    fn counts_pin_every_counter_and_latency_field() {
        let doc = sample();
        let counts = counts_of(&doc);
        let parsed = parse_counts(&counts);
        let value = |key: &str| parsed.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        for (name, v) in &doc.1 {
            assert_eq!(value(&format!("counters.{name}")), Some(*v), "{name}");
        }
        for (name, s) in &doc.2 {
            for (field, v) in [
                ("count", s.count),
                ("p50", s.p50),
                ("p90", s.p90),
                ("p99", s.p99),
                ("max", s.max),
            ] {
                assert_eq!(value(&format!("latency.{name}.{field}")), Some(v as f64));
            }
        }
        // Two kept table rows, two counters, five fields per distribution.
        assert_eq!(parsed.len(), 2 + 2 + 2 * 5);
    }

    #[test]
    fn counts_keys_are_unique() {
        let counts = counts_of(&sample());
        let keys: Vec<&str> = parse_counts(&counts).into_iter().map(|(k, _)| k).collect();
        let unique: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "{counts}");
    }

    #[test]
    fn counts_are_identical_for_identical_documents() {
        assert_eq!(counts_of(&sample()), counts_of(&sample()));
    }

    #[test]
    fn counts_change_when_a_metric_goes_missing() {
        let golden = counts_of(&sample());
        let mut missing = sample();
        missing.1.pop();
        assert_ne!(counts_of(&missing), golden);
    }

    #[test]
    fn counts_change_when_a_metric_is_added_or_renamed() {
        let golden = counts_of(&sample());
        let mut added = sample();
        added.1.push(("emu_instr_mem".to_string(), 7.0));
        assert_ne!(counts_of(&added), golden);
        let mut renamed = sample();
        renamed.2[0].0 = "lat_irq_exit".to_string();
        assert_ne!(counts_of(&renamed), golden);
        let mut relabelled = sample();
        relabelled.0[0].rows[0].label = "total".to_string();
        assert_ne!(counts_of(&relabelled), golden);
    }

    #[test]
    fn counts_change_when_a_table_row_moves_by_one() {
        let golden = counts_of(&sample());
        let mut slower = sample();
        slower.0[0].rows[0].measured += 1.0;
        assert_ne!(counts_of(&slower), golden);
    }

    #[test]
    fn counts_change_when_a_quantile_improves_by_one() {
        let golden = counts_of(&sample());
        let mut faster = sample();
        faster.2[0].1.p99 -= 1;
        assert_ne!(counts_of(&faster), golden);
    }

    #[test]
    fn counts_change_when_a_latency_quantile_moves_by_one() {
        let golden = counts_of(&sample());
        let mut slower = sample();
        slower.2[1].1.p50 += 1;
        assert_ne!(counts_of(&slower), golden);
    }

    #[test]
    fn json_rendering_with_empty_counters_is_still_valid_json() {
        let json = render_json(&[], &[], &[]);
        tytan_trace::json::parse(&json).expect("valid JSON");
    }
}
