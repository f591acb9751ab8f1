//! Schema validation for `BENCH_tables.json`.
//!
//! The schema is checked in at `schema/bench_tables.schema.json` (and
//! embedded here at compile time) so the document shape is a reviewed
//! contract: CI runs `tables --json --check` and fails the build when the
//! emitted document drifts from it.
//!
//! The validator implements the subset of JSON Schema the contract uses —
//! `type` (single name or alternatives), `properties`, `required`,
//! `additionalProperties` (boolean or schema), `items`, `minItems` and
//! `minimum` — on top of the dependency-free reader in
//! [`tytan_trace::json`]. Unknown keywords are ignored, as JSON Schema
//! specifies.

use tytan_trace::json::{self, Value};

/// The checked-in schema for `BENCH_tables.json`, embedded verbatim.
pub const BENCH_TABLES_SCHEMA: &str = include_str!("../schema/bench_tables.schema.json");

/// Validates a rendered `BENCH_tables.json` document against the
/// checked-in schema.
///
/// # Errors
///
/// Returns every violation found (JSON-path prefixed), or a single parse
/// error if `doc` is not valid JSON.
///
/// # Panics
///
/// Panics if the embedded schema itself fails to parse — a build defect,
/// covered by tests.
pub fn check_bench_tables(doc: &str) -> Result<(), Vec<String>> {
    let schema = json::parse(BENCH_TABLES_SCHEMA).expect("embedded schema parses");
    let doc = json::parse(doc).map_err(|e| vec![format!("JSON parse error: {e}")])?;
    validate(&schema, &doc)
}

/// Validates `doc` against `schema`, returning all violations.
///
/// # Errors
///
/// Returns one message per violation, prefixed with the JSON path (`$` is
/// the document root).
pub fn validate(schema: &Value, doc: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    validate_at(schema, doc, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn validate_at(schema: &Value, doc: &Value, path: &str, errors: &mut Vec<String>) {
    if let Some(t) = schema.get("type") {
        let names: Vec<&str> = match t {
            Value::String(s) => vec![s.as_str()],
            Value::Array(alternatives) => alternatives.iter().filter_map(Value::as_str).collect(),
            _ => Vec::new(),
        };
        if !names.is_empty() && !names.iter().any(|n| type_matches(n, doc)) {
            errors.push(format!(
                "{path}: expected {}, got {}",
                names.join(" or "),
                doc.type_name()
            ));
            // The structural keywords below assume the right type.
            return;
        }
    }

    if let (Some(min), Value::Number(n)) = (schema.get("minimum").and_then(Value::as_number), doc) {
        if *n < min {
            errors.push(format!("{path}: {n} is below minimum {min}"));
        }
    }

    if let Value::Object(fields) = doc {
        if let Some(Value::Array(required)) = schema.get("required") {
            for key in required.iter().filter_map(Value::as_str) {
                if doc.get(key).is_none() {
                    errors.push(format!("{path}: missing required property {key:?}"));
                }
            }
        }
        let properties = schema.get("properties");
        for (key, value) in fields {
            let child_path = format!("{path}.{key}");
            match properties.and_then(|p| p.get(key)) {
                Some(property_schema) => validate_at(property_schema, value, &child_path, errors),
                None => match schema.get("additionalProperties") {
                    Some(Value::Bool(false)) => {
                        errors.push(format!("{path}: unexpected property {key:?}"));
                    }
                    Some(additional @ Value::Object(_)) => {
                        validate_at(additional, value, &child_path, errors);
                    }
                    _ => {}
                },
            }
        }
    }

    if let Value::Array(items) = doc {
        if let Some(min) = schema.get("minItems").and_then(Value::as_number) {
            if (items.len() as f64) < min {
                errors.push(format!(
                    "{path}: {} item(s) is below minItems {min}",
                    items.len()
                ));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate_at(item_schema, item, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

fn type_matches(name: &str, doc: &Value) -> bool {
    match name {
        "object" => matches!(doc, Value::Object(_)),
        "array" => matches!(doc, Value::Array(_)),
        "string" => matches!(doc, Value::String(_)),
        "number" => matches!(doc, Value::Number(_)),
        "integer" => matches!(doc, Value::Number(n) if n.fract() == 0.0),
        "boolean" => matches!(doc, Value::Bool(_)),
        "null" => matches!(doc, Value::Null),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tweak: impl FnOnce(&mut String)) -> String {
        let mut s = String::from(
            r#"{
              "counters": {
                "block_hit_rate": 0.97,
                "eampu_cache_hit_rate": 0.99,
                "emu_block_compile": 12,
                "emu_block_hit": 480,
                "emu_block_invalidate_smc": 1,
                "emu_block_invalidate_mpu": 2,
                "emu_instr_alu": 12345
              },
              "latency": {
                "lat_irq_entry": {"count": 15, "p50": 180, "p90": 220, "p99": 260, "max": 291},
                "lat_ctx_save": {"count": 15, "p50": 96, "p90": 100, "p99": 104, "max": 104},
                "lat_ctx_restore": {"count": 14, "p50": 96, "p90": 100, "p99": 104, "max": 104},
                "lat_ipc_rtt": {"count": 1, "p50": 1280, "p90": 1280, "p99": 1280, "max": 1300}
              },
              "tables": [
                {
                  "id": "table2",
                  "title": "demo",
                  "rows": [
                    {"label": "overall", "paper": 95, "measured": 95, "unit": "cycles"},
                    {"label": "extra", "paper": null, "measured": 1.5, "unit": "kHz"}
                  ]
                }
              ]
            }"#,
        );
        tweak(&mut s);
        s
    }

    #[test]
    fn embedded_schema_parses() {
        json::parse(BENCH_TABLES_SCHEMA).expect("schema is valid JSON");
    }

    #[test]
    fn valid_document_passes() {
        check_bench_tables(&doc(|_| {})).expect("valid");
    }

    #[test]
    fn missing_counter_is_reported() {
        let errors = check_bench_tables(&doc(|s| *s = s.replace("block_hit_rate", "block_hits")))
            .unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("block_hit_rate") && e.contains("missing")),
            "{errors:?}"
        );
    }

    #[test]
    fn wrong_type_is_reported_with_path() {
        let errors = check_bench_tables(&doc(|s| {
            *s = s.replace("\"paper\": 95", "\"paper\": \"95\"");
        }))
        .unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("$.tables[0].rows[0].paper") && e.contains("number or null")),
            "{errors:?}"
        );
    }

    #[test]
    fn unexpected_property_is_rejected() {
        let errors = check_bench_tables(&doc(|s| {
            *s = s.replace(
                "\"id\": \"table2\"",
                "\"id\": \"table2\", \"idd\": \"typo\"",
            );
        }))
        .unwrap_err();
        assert!(errors.iter().any(|e| e.contains("\"idd\"")), "{errors:?}");
    }

    #[test]
    fn non_numeric_counter_is_rejected() {
        let errors = check_bench_tables(&doc(|s| {
            *s = s.replace("12345", "\"many\"");
        }))
        .unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("$.counters.emu_instr_alu")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_latency_distribution_is_reported() {
        let errors = check_bench_tables(&doc(|s| {
            *s = s.replace("lat_irq_entry", "lat_irq_entrance");
        }))
        .unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("lat_irq_entry") && e.contains("missing")),
            "{errors:?}"
        );
    }

    #[test]
    fn malformed_latency_summary_is_rejected() {
        let errors = check_bench_tables(&doc(|s| {
            *s = s.replace("\"p50\": 180", "\"p50\": \"fast\"");
        }))
        .unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("$.latency.lat_irq_entry.p50")),
            "{errors:?}"
        );
    }

    #[test]
    fn empty_tables_violate_min_items() {
        let valid = doc(|_| {});
        let start = valid.find("\"tables\"").unwrap();
        let truncated = format!("{}\"tables\": []\n}}", &valid[..start]);
        let errors = check_bench_tables(&truncated).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("minItems")), "{errors:?}");
    }

    #[test]
    fn garbage_input_reports_parse_error() {
        let errors = check_bench_tables("not json").unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("parse error"));
    }
}
