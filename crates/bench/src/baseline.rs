//! The bench regression gate: compares a freshly rendered
//! `BENCH_tables.json` against a checked-in baseline.
//!
//! Both documents are flattened to `metric-key → value` maps
//! (`tables.<id>.<label>`, `counters.<name>`, `latency.<name>.<field>`)
//! and every baseline metric is checked against the current value under a
//! per-family tolerance. The gate is **two-sided**: a metric that got
//! *better* beyond tolerance also fails, because an unexplained
//! improvement usually means the measurement changed, not the code — the
//! fix is to regenerate the baseline deliberately, with review.
//!
//! Wall-clock-dependent rows (measured in `images/s`, `instr/s`, or as a
//! host-side `speedup`) are excluded: they vary with the CI host and
//! would make the gate flaky. Everything else in the document is
//! simulated-cycle-derived and deterministic, so tolerances exist only to
//! absorb deliberate small cost-model adjustments and histogram bin
//! granularity (log-linear bins are exact below 16 and within 1/16
//! above — see `tytan_trace::hist`).
//!
//! Metrics present in the baseline but missing from the current document
//! are violations (a silently dropped measurement is a regression of the
//! harness itself); metrics new in the current document are reported as
//! skipped, not failed, so adding coverage never breaks the gate.

use tytan_trace::json::{self, Value};

/// Relative/absolute tolerance pair: a change is accepted when it is
/// within `rel * baseline` **or** within `abs` of the baseline,
/// whichever is looser (the absolute floor keeps tiny baselines from
/// rejecting ±1-cycle jitter).
#[derive(Debug, Clone, Copy)]
struct Tolerance {
    rel: f64,
    abs: f64,
}

impl Tolerance {
    fn allows(self, baseline: f64, current: f64) -> bool {
        let delta = (current - baseline).abs();
        delta <= self.abs || delta <= self.rel * baseline.abs()
    }
}

/// Deterministic cycle counts and derived kHz figures move only when the
/// cost model deliberately changes.
const TABLE_TOLERANCE: Tolerance = Tolerance {
    rel: 0.02,
    abs: 16.0,
};
/// Raw event counters may drift slightly with workload re-tuning.
const COUNTER_TOLERANCE: Tolerance = Tolerance {
    rel: 0.05,
    abs: 16.0,
};
/// Event counts per distribution are near-deterministic.
const LATENCY_COUNT_TOLERANCE: Tolerance = Tolerance {
    rel: 0.02,
    abs: 4.0,
};
/// Quantiles carry up to 1/16 log-linear bin error on top of genuine
/// cost-model slack.
const LATENCY_QUANTILE_TOLERANCE: Tolerance = Tolerance {
    rel: 0.125,
    abs: 16.0,
};
/// The max is a single-sample extreme; give it the widest band.
const LATENCY_MAX_TOLERANCE: Tolerance = Tolerance {
    rel: 0.25,
    abs: 32.0,
};

/// Row units whose values depend on host wall-clock speed, not simulated
/// cycles — excluded from the gate.
const WALL_CLOCK_UNITS: &[&str] = &["images/s", "instr/s", "speedup"];

/// Outcome of a baseline comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Number of metrics checked against a tolerance.
    pub checked: usize,
    /// Metrics present but not gated (wall-clock, or new since the
    /// baseline), with the reason.
    pub skipped: Vec<String>,
    /// Tolerance violations, human-readable, one per metric.
    pub violations: Vec<String>,
}

impl Comparison {
    /// True when every gated metric stayed within tolerance.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One flattened metric: key, value, tolerance family, and whether the
/// gate should ignore it.
struct Metric {
    key: String,
    value: f64,
    tolerance: Tolerance,
    wall_clock: bool,
}

/// Compares two rendered `BENCH_tables.json` documents.
///
/// # Errors
///
/// Returns a message when either document fails to parse or lacks the
/// expected top-level shape; tolerance violations are *not* errors — they
/// are reported in [`Comparison::violations`].
pub fn compare_documents(baseline: &str, current: &str) -> Result<Comparison, String> {
    let baseline = flatten(baseline).map_err(|e| format!("baseline: {e}"))?;
    let current = flatten(current).map_err(|e| format!("current: {e}"))?;

    let mut cmp = Comparison::default();
    for m in &baseline {
        if m.wall_clock {
            cmp.skipped
                .push(format!("{} (wall-clock, not gated)", m.key));
            continue;
        }
        let Some(cur) = current.iter().find(|c| c.key == m.key) else {
            cmp.violations.push(format!(
                "{}: present in baseline ({}) but missing from current document",
                m.key, m.value
            ));
            continue;
        };
        cmp.checked += 1;
        if !m.tolerance.allows(m.value, cur.value) {
            let direction = if cur.value > m.value {
                "regressed"
            } else {
                "improved beyond tolerance (regenerate the baseline if intended)"
            };
            cmp.violations.push(format!(
                "{}: {} — baseline {}, current {} ({:+.1}%, allowed ±{:.1}% or ±{})",
                m.key,
                direction,
                m.value,
                cur.value,
                percent_change(m.value, cur.value),
                m.tolerance.rel * 100.0,
                m.tolerance.abs,
            ));
        }
    }
    for c in &current {
        if !c.wall_clock && !baseline.iter().any(|m| m.key == c.key) {
            cmp.skipped
                .push(format!("{} (new since baseline, not gated)", c.key));
        }
    }
    Ok(cmp)
}

fn percent_change(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline.abs() * 100.0
    }
}

/// Flattens a `BENCH_tables.json` document into gateable metrics.
fn flatten(doc: &str) -> Result<Vec<Metric>, String> {
    let doc = json::parse(doc).map_err(|e| format!("JSON parse error: {e}"))?;
    let mut out = Vec::new();

    let Some(Value::Object(counters)) = doc.get("counters") else {
        return Err("missing \"counters\" object".to_string());
    };
    for (name, value) in counters {
        if let Value::Number(n) = value {
            out.push(Metric {
                key: format!("counters.{name}"),
                value: *n,
                tolerance: COUNTER_TOLERANCE,
                wall_clock: false,
            });
        }
    }

    let Some(Value::Object(latency)) = doc.get("latency") else {
        return Err("missing \"latency\" object".to_string());
    };
    for (name, summary) in latency {
        for (field, tolerance) in [
            ("count", LATENCY_COUNT_TOLERANCE),
            ("p50", LATENCY_QUANTILE_TOLERANCE),
            ("p90", LATENCY_QUANTILE_TOLERANCE),
            ("p99", LATENCY_QUANTILE_TOLERANCE),
            ("max", LATENCY_MAX_TOLERANCE),
        ] {
            if let Some(v) = summary.get(field).and_then(Value::as_number) {
                out.push(Metric {
                    key: format!("latency.{name}.{field}"),
                    value: v,
                    tolerance,
                    wall_clock: false,
                });
            }
        }
    }

    let Some(Value::Array(tables)) = doc.get("tables") else {
        return Err("missing \"tables\" array".to_string());
    };
    for table in tables {
        let id = table
            .get("id")
            .and_then(Value::as_str)
            .ok_or("table without \"id\"")?;
        let Some(Value::Array(rows)) = table.get("rows") else {
            return Err(format!("table {id:?} without \"rows\""));
        };
        for row in rows {
            let label = row
                .get("label")
                .and_then(Value::as_str)
                .ok_or("row without \"label\"")?;
            let unit = row.get("unit").and_then(Value::as_str).unwrap_or("");
            let Some(measured) = row.get("measured").and_then(Value::as_number) else {
                continue;
            };
            out.push(Metric {
                key: format!("tables.{id}.{label}"),
                value: measured,
                tolerance: TABLE_TOLERANCE,
                wall_clock: WALL_CLOCK_UNITS.contains(&unit),
            });
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tweak: impl FnOnce(&mut String)) -> String {
        let mut s = String::from(
            r#"{
              "counters": {
                "block_hit_rate": 0.97,
                "emu_instr_alu": 12345
              },
              "latency": {
                "lat_irq_entry": {"count": 15, "p50": 180, "p90": 220, "p99": 260, "max": 291},
                "lat_ipc_rtt": {"count": 1, "p50": 1280, "p90": 1280, "p99": 1280, "max": 1300}
              },
              "tables": [
                {
                  "id": "table2",
                  "title": "demo",
                  "rows": [
                    {"label": "overall", "paper": 95, "measured": 9500, "unit": "cycles"},
                    {"label": "throughput", "paper": null, "measured": 123456, "unit": "instr/s"}
                  ]
                }
              ]
            }"#,
        );
        tweak(&mut s);
        s
    }

    #[test]
    fn identical_documents_pass() {
        let cmp = compare_documents(&doc(|_| {}), &doc(|_| {})).expect("parses");
        assert!(cmp.passed(), "{:?}", cmp.violations);
        // The instr/s row is skipped, not checked.
        assert!(cmp.checked >= 12, "checked {}", cmp.checked);
        assert_eq!(cmp.skipped.len(), 1, "{:?}", cmp.skipped);
    }

    #[test]
    fn cycle_regression_beyond_tolerance_fails() {
        // +10% on a cycles row, far past the ±2% table tolerance.
        let current = doc(|s| {
            *s = s.replace("\"measured\": 9500", "\"measured\": 10450");
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(!cmp.passed());
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.contains("tables.table2.overall") && v.contains("regressed")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn improvement_beyond_tolerance_also_fails() {
        let current = doc(|s| {
            *s = s.replace("\"measured\": 9500", "\"measured\": 8000");
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.contains("tables.table2.overall") && v.contains("improved")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn latency_quantile_within_bin_slack_passes() {
        // +10% on p99 stays inside the ±12.5% quantile tolerance.
        let current = doc(|s| {
            *s = s.replace("\"p99\": 260", "\"p99\": 286");
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(cmp.passed(), "{:?}", cmp.violations);
    }

    #[test]
    fn latency_quantile_beyond_slack_fails() {
        let current = doc(|s| {
            *s = s.replace("\"p99\": 260", "\"p99\": 340");
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.contains("latency.lat_irq_entry.p99")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn small_absolute_changes_on_tiny_baselines_pass() {
        // count 15 → 17 is +13% relative but within the ±4 absolute floor.
        let current = doc(|s| {
            *s = s.replace("\"count\": 15", "\"count\": 17");
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(cmp.passed(), "{:?}", cmp.violations);
    }

    #[test]
    fn wall_clock_metrics_are_ignored() {
        // Halve the instr/s row: not gated.
        let current = doc(|s| {
            *s = s.replace("\"measured\": 123456", "\"measured\": 61728");
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(cmp.passed(), "{:?}", cmp.violations);
    }

    #[test]
    fn metric_missing_from_current_is_a_violation() {
        let current = doc(|s| {
            *s = s.replace(
                "\"block_hit_rate\": 0.97,\n                \"emu_instr_alu\": 12345",
                "\"block_hit_rate\": 0.97",
            );
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.contains("counters.emu_instr_alu") && v.contains("missing")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn new_metric_in_current_is_skipped_not_failed() {
        let current = doc(|s| {
            *s = s.replace(
                "\"emu_instr_alu\": 12345",
                "\"emu_instr_alu\": 12345, \"emu_instr_new\": 7",
            );
        });
        let cmp = compare_documents(&doc(|_| {}), &current).expect("parses");
        assert!(cmp.passed(), "{:?}", cmp.violations);
        assert!(
            cmp.skipped
                .iter()
                .any(|s| s.contains("counters.emu_instr_new") && s.contains("new since baseline")),
            "{:?}",
            cmp.skipped
        );
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(compare_documents("not json", &doc(|_| {}))
            .unwrap_err()
            .contains("baseline"));
        assert!(compare_documents(&doc(|_| {}), "{}")
            .unwrap_err()
            .contains("current"));
    }
}
