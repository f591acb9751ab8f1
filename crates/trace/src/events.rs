//! Structured JSONL event log for fleet-scale observability.
//!
//! Counters and histograms ([`crate::Counters`], [`crate::hist`]) answer
//! *how many* and *how long*; they cannot answer *what happened to this
//! one attestation*. This module is the narrative side of the
//! observation plane: a bounded, thread-safe [`EventLog`] of
//! [`LogEvent`]s, each carrying a severity, the emitting scope, an
//! optional device / session / correlation id, and a monotonic sequence
//! number assigned at emission — so the exported stream is totally
//! ordered even when many threads log concurrently.
//!
//! # Wire format
//!
//! [`LogEvent::to_json`] emits one canonical JSON object per event (one
//! line of a JSONL file). The encoding is deliberately rigid so the
//! stream is diffable and round-trippable:
//!
//! - keys always appear, in a fixed order (`seq`, `sev`, `scope`,
//!   `event`, `device`, `session`, `corr`, `detail`); absent ids are
//!   `null`;
//! - 64-bit ids are JSON **strings** (`"seq":"42"`), because JSON
//!   numbers are doubles and silently lose integer precision above
//!   2^53 — a real hazard for hash-derived device ids;
//! - strings escape `"`\\, the common control shorthands (`\n`, `\t`,
//!   `\r`) and every other byte below 0x20 as `\u00XX`; nothing else
//!   is escaped.
//!
//! [`LogEvent::from_json`] inverts the encoding exactly:
//! `from_json(line).to_json() == line` for every line the log emits
//! (property-tested, including escaping and maximum-length fields).
//!
//! # Examples
//!
//! ```
//! use tytan_trace::events::{EventLog, LogFields, Severity};
//!
//! let log = EventLog::new(1024);
//! log.emit(
//!     Severity::Info,
//!     "fleet.verifier",
//!     "verdict",
//!     LogFields {
//!         device: Some(7),
//!         corr: Some(42),
//!         detail: "accepted".to_string(),
//!         ..LogFields::default()
//!     },
//! );
//! let line = log.to_jsonl();
//! assert!(line.contains("\"corr\":\"42\""));
//! ```

use std::sync::Mutex;

use crate::json::{self, Value};
use crate::ring::Ring;

/// Longest `detail` string (in bytes) an event may carry; longer strings
/// are truncated at a character boundary on emission. Bounds both memory
/// and the line length downstream `grep`s must handle.
pub const MAX_DETAIL_LEN: usize = 256;

/// Longest `scope` / `event` name (in bytes); same truncation rule.
pub const MAX_NAME_LEN: usize = 64;

/// Event severity, ordered from chattiest to most urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Developer-facing detail.
    Debug,
    /// Normal operation worth recording.
    Info,
    /// Something degraded but handled (e.g. events dropped).
    Warn,
    /// A typed failure (e.g. a rejected report).
    Error,
}

impl Severity {
    /// Stable wire name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses a wire name produced by [`Severity::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// The optional identity fields of an event. Split out so
/// [`EventLog::emit`] stays callable without naming every id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogFields {
    /// The device the event concerns, if any.
    pub device: Option<u64>,
    /// The device's session (connection) number, if any.
    pub session: Option<u64>,
    /// The wire correlation id threaded through the protocol, if any.
    pub corr: Option<u64>,
    /// Free-text detail, truncated to [`MAX_DETAIL_LEN`] bytes.
    pub detail: String,
}

/// One structured event: what happened, to whom, in which attestation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Monotonic sequence number, assigned by the [`EventLog`].
    pub seq: u64,
    /// How urgent.
    pub severity: Severity,
    /// The emitting component, dotted (`"fleet.verifier"`).
    pub scope: String,
    /// The event name (`"verdict"`, `"challenge"`, `"bundle"`).
    pub event: String,
    /// Identity fields (device / session / correlation id / detail).
    pub fields: LogFields,
}

/// Truncates `s` to at most `max` bytes on a character boundary.
fn truncate(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Appends `s` as a JSON string literal with the canonical escaping
/// described in the module docs.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_opt_id(out: &mut String, key: &str, id: Option<u64>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    match id {
        Some(v) => {
            out.push('"');
            out.push_str(&v.to_string());
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

impl LogEvent {
    /// Canonical single-line JSON encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.detail.len());
        out.push_str("{\"seq\":\"");
        out.push_str(&self.seq.to_string());
        out.push_str("\",\"sev\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"scope\":");
        push_json_string(&mut out, &self.scope);
        out.push_str(",\"event\":");
        push_json_string(&mut out, &self.event);
        out.push(',');
        push_opt_id(&mut out, "device", self.fields.device);
        out.push(',');
        push_opt_id(&mut out, "session", self.fields.session);
        out.push(',');
        push_opt_id(&mut out, "corr", self.fields.corr);
        out.push_str(",\"detail\":");
        push_json_string(&mut out, &self.fields.detail);
        out.push('}');
        out
    }

    /// Parses one line produced by [`LogEvent::to_json`]. Strict: every
    /// key must be present, ids must be decimal strings or `null`, and
    /// length limits must hold — so `from_json(line).to_json() == line`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn from_json(line: &str) -> Result<LogEvent, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let id_field = |key: &str| -> Result<Option<u64>, String> {
            match value.get(key) {
                Some(Value::Null) => Ok(None),
                Some(Value::String(s)) => s
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|e| format!("field {key:?}: {e}")),
                Some(other) => Err(format!(
                    "field {key:?}: expected string id or null, got {}",
                    other.type_name()
                )),
                None => Err(format!("missing field {key:?}")),
            }
        };
        let seq = id_field("seq")?.ok_or("field \"seq\" must not be null")?;
        let sev = str_field("sev")?;
        let severity = Severity::parse(&sev).ok_or_else(|| format!("unknown severity {sev:?}"))?;
        let scope = str_field("scope")?;
        let event = str_field("event")?;
        let detail = str_field("detail")?;
        if scope.len() > MAX_NAME_LEN || event.len() > MAX_NAME_LEN {
            return Err(format!("scope/event longer than {MAX_NAME_LEN} bytes"));
        }
        if detail.len() > MAX_DETAIL_LEN {
            return Err(format!("detail longer than {MAX_DETAIL_LEN} bytes"));
        }
        Ok(LogEvent {
            seq,
            severity,
            scope,
            event,
            fields: LogFields {
                device: id_field("device")?,
                session: id_field("session")?,
                corr: id_field("corr")?,
                detail,
            },
        })
    }
}

/// A bounded, thread-safe structured event log: a [`Ring`] of
/// [`LogEvent`]s behind a lock, with the sequence counter — recording
/// never blocks progress and never grows without bound, and everything
/// shed is counted in [`EventLog::dropped`].
#[derive(Debug)]
pub struct EventLog(Mutex<(u64, Ring<LogEvent>)>);

impl EventLog {
    /// Creates a log retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        EventLog(Mutex::new((0, Ring::new(capacity))))
    }

    fn state(&self) -> std::sync::MutexGuard<'_, (u64, Ring<LogEvent>)> {
        self.0.lock().expect("event log poisoned")
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.state().1.capacity()
    }

    /// Records one event, assigning the next sequence number (returned).
    /// `scope`, `event` and `fields.detail` are truncated to their
    /// length limits; if the ring is full the oldest event is shed and
    /// counted.
    pub fn emit(&self, severity: Severity, scope: &str, event: &str, fields: LogFields) -> u64 {
        let mut fields = fields;
        fields.detail = truncate(&fields.detail, MAX_DETAIL_LEN).to_string();
        let mut state = self.state();
        let seq = state.0;
        state.0 += 1;
        state.1.push(LogEvent {
            seq,
            severity,
            scope: truncate(scope, MAX_NAME_LEN).to_string(),
            event: truncate(event, MAX_NAME_LEN).to_string(),
            fields,
        });
        seq
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<LogEvent> {
        self.state().1.iter().cloned().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.state().1.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events emitted in total (including any later shed).
    pub fn emitted(&self) -> u64 {
        self.state().0
    }

    /// Events shed because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state().1.dropped()
    }

    /// The retained events as a JSONL document (one canonical line per
    /// event, each newline-terminated).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogEvent {
        LogEvent {
            seq: 3,
            severity: Severity::Error,
            scope: "fleet.verifier".to_string(),
            event: "verdict".to_string(),
            fields: LogFields {
                device: Some(u64::MAX),
                session: None,
                corr: Some(9_007_199_254_740_993), // 2^53 + 1: breaks f64
                detail: "line\nbreak \"quoted\" \\ tab\t\u{1}".to_string(),
            },
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let line = sample().to_json();
        let back = LogEvent::from_json(&line).expect("parses");
        assert_eq!(back, sample());
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn large_ids_survive_exactly() {
        // The whole point of string-encoded ids: 2^53 + 1 is not
        // representable as an f64, but must survive the round trip.
        let back = LogEvent::from_json(&sample().to_json()).expect("parses");
        assert_eq!(back.fields.corr, Some(9_007_199_254_740_993));
        assert_eq!(back.fields.device, Some(u64::MAX));
    }

    #[test]
    fn log_assigns_monotonic_seq_and_sheds_oldest() {
        let log = EventLog::new(2);
        for i in 0..5u64 {
            let seq = log.emit(
                Severity::Info,
                "s",
                "e",
                LogFields {
                    device: Some(i),
                    ..LogFields::default()
                },
            );
            assert_eq!(seq, i);
        }
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.emitted(), 5);
    }

    #[test]
    fn detail_is_truncated_at_char_boundary() {
        let log = EventLog::new(4);
        // 'é' is 2 bytes; an odd limit would split it without the
        // boundary walk.
        let detail: String = "é".repeat(MAX_DETAIL_LEN);
        log.emit(
            Severity::Debug,
            "s",
            "e",
            LogFields {
                detail,
                ..LogFields::default()
            },
        );
        let event = &log.events()[0];
        assert!(event.fields.detail.len() <= MAX_DETAIL_LEN);
        assert!(event.fields.detail.chars().all(|c| c == 'é'));
        // And the truncated event still round-trips.
        let line = event.to_json();
        assert_eq!(LogEvent::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn overlong_multibyte_detail_truncates_at_a_char_boundary() {
        // One ASCII byte, then 2-byte chars: byte MAX_DETAIL_LEN falls
        // inside a char, so the cut lands one byte earlier.
        let detail = format!("a{}", "é".repeat(MAX_DETAIL_LEN));
        let expected = format!("a{}", "é".repeat((MAX_DETAIL_LEN - 1) / 2));
        assert_eq!(expected.len(), MAX_DETAIL_LEN - 1);
        let log = EventLog::new(4);
        for detail in [detail, "short é".to_string()] {
            log.emit(
                Severity::Debug,
                "s",
                "e",
                LogFields {
                    detail,
                    ..LogFields::default()
                },
            );
        }
        let events = log.events();
        assert_eq!(events[0].fields.detail, expected);
        assert_eq!(events[1].fields.detail, "short é");
    }

    #[test]
    fn from_json_rejects_overlong_and_malformed() {
        let long = LogEvent {
            fields: LogFields {
                detail: "x".repeat(MAX_DETAIL_LEN + 1),
                ..LogFields::default()
            },
            ..sample()
        };
        assert!(LogEvent::from_json(&long.to_json()).is_err());
        assert!(LogEvent::from_json("{}").is_err());
        assert!(LogEvent::from_json("not json").is_err());
        // A numeric id (instead of a string) is rejected, not coerced.
        let line = sample().to_json().replace("\"seq\":\"3\"", "\"seq\":3");
        assert!(LogEvent::from_json(&line).is_err());
    }

    #[test]
    fn jsonl_export_has_one_line_per_event() {
        let log = EventLog::new(8);
        for _ in 0..3 {
            log.emit(Severity::Info, "s", "e", LogFields::default());
        }
        let doc = log.to_jsonl();
        assert_eq!(doc.lines().count(), 3);
        for line in doc.lines() {
            LogEvent::from_json(line).expect("every line parses");
        }
    }
}
