//! Forensic bundles: self-contained records of typed rejections.
//!
//! The verifier's counters say *how many* reports were rejected; a
//! bundle preserves *which bytes and which state* produced one
//! rejection. A verifier asked to collect them
//! ([`crate::verifier::FleetVerifier::collect_bundles`]) builds a
//! [`ForensicBundle`] for each typed rejection of a provisioned session:
//! the full rejected frame, the session's freshness state at rejection
//! time, the edge log tail for control-flow evidence, and everything
//! needed to re-verify offline — the fleet master secret, the expected
//! digest and the admissible edge set.
//!
//! Embedding the master secret makes a bundle *self-contained*: the
//! `fleet replay-bundle` subcommand rebuilds the device's session from
//! the bundle alone and must reproduce the identical typed verdict.
//! This is sound here because the whole fleet is a simulation — the
//! "secret" is derived from a benchmark seed. A production deployment
//! would reference a key handle instead; the bundle format carries a
//! version field so that change stays compatible.
//!
//! Reports from *unprovisioned* devices get no verdict and so no
//! bundle: the verifier has no key material to judge them with, and
//! only counts them (`fleet_unknown_device`).

use tytan::attest::{DeviceId, VerifierSession};
use tytan_lint::AdmissibleEdgeSet;
use tytan_trace::json::{self, Value};

use crate::farm::device_attestation_key;
use crate::proto::{self, verdict_code, Message};

/// Control-flow log *runs* of a rejected report retained in a bundle.
/// A run covers up to `u32::MAX` raw edges, so the tail's raw coverage
/// is far deeper than the pre-compression 32-edge tail at the same cost.
pub const EDGE_TAIL_CAP: usize = 32;

/// Bundle format version written into every bundle. Version 2 switched
/// `edge_tail` from expanded `[from, to]` pairs to run-length-encoded
/// `[from, to, count]` triples, matching the wire form; version 3
/// dropped the per-device `frame_tail` and `decisions` tapes, which
/// replay never read.
pub const BUNDLE_FORMAT_VERSION: u64 = 3;

/// A self-contained forensic record of one typed rejection. See the
/// module docs for the trust model behind embedding the master secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicBundle {
    /// The rejected device.
    pub device: u64,
    /// Correlation id of the rejected report.
    pub corr: u64,
    /// Verdict name (see [`verdict_code::name`]).
    pub verdict: String,
    /// The [`verdict_code`].
    pub code: u8,
    /// Fleet master secret the device's key derives from.
    pub master: [u8; 20],
    /// Reference digest every device must report.
    pub expected_digest: Vec<u8>,
    /// The complete rejected frame, exactly as received.
    pub frame: Vec<u8>,
    /// The session's consumed-nonce window at rejection time.
    pub consumed: Vec<Vec<u8>>,
    /// The session's outstanding challenge nonce at rejection time.
    pub outstanding: Option<Vec<u8>>,
    /// Tail of the rejected report's control-flow edge log (CFA only),
    /// as canonical `(from, to, count)` runs.
    pub edge_tail: Vec<(u32, u32, u32)>,
    /// The admissible edge set as its canonical JSON (CFA only).
    pub edge_set_json: Option<String>,
}

fn push_hex(out: &mut String, bytes: &[u8]) {
    out.push('"');
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out.push('"');
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn parse_hex(s: &str) -> Result<Vec<u8>, String> {
    // Byte-wise, not slice-wise: hostile input may put multi-byte
    // characters at arbitrary offsets, where `&s[i..i + 2]` would panic.
    if !s.is_ascii() {
        return Err("non-ASCII hex string".into());
    }
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(obj: &Value, key: &str) -> Result<u64, String> {
    // Large u64s (device ids, correlation ids) are encoded as decimal
    // strings — f64 JSON numbers lose precision past 2^53.
    field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .parse::<u64>()
        .map_err(|e| format!("field {key:?}: {e}"))
}

fn hex_field(obj: &Value, key: &str) -> Result<Vec<u8>, String> {
    parse_hex(
        field(obj, key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} is not a string"))?,
    )
    .map_err(|e| format!("field {key:?}: {e}"))
}

impl ForensicBundle {
    /// Serializes the bundle as one self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"bundle_version\":\"{BUNDLE_FORMAT_VERSION}\","));
        out.push_str(&format!("\"device\":\"{}\",", self.device));
        out.push_str(&format!("\"corr\":\"{}\",", self.corr));
        out.push_str("\"verdict\":");
        push_json_string(&mut out, &self.verdict);
        out.push_str(&format!(",\"code\":{},", self.code));
        out.push_str("\"master\":");
        push_hex(&mut out, &self.master);
        out.push_str(",\"expected_digest\":");
        push_hex(&mut out, &self.expected_digest);
        out.push_str(",\"frame\":");
        push_hex(&mut out, &self.frame);
        out.push_str(",\"consumed\":[");
        for (i, nonce) in self.consumed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_hex(&mut out, nonce);
        }
        out.push_str("],\"outstanding\":");
        match &self.outstanding {
            Some(nonce) => push_hex(&mut out, nonce),
            None => out.push_str("null"),
        }
        out.push_str(",\"edge_tail\":[");
        for (i, (from, to, count)) in self.edge_tail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{from},{to},{count}]"));
        }
        out.push_str("],\"edge_set\":");
        match &self.edge_set_json {
            Some(edges) => push_json_string(&mut out, edges),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Parses a bundle serialized by [`ForensicBundle::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn from_json(input: &str) -> Result<ForensicBundle, String> {
        let doc = json::parse(input).map_err(|e| format!("bundle does not parse: {e:?}"))?;
        let version = u64_field(&doc, "bundle_version")?;
        if version != BUNDLE_FORMAT_VERSION {
            return Err(format!("unsupported bundle version {version}"));
        }
        let master: [u8; 20] = hex_field(&doc, "master")?
            .try_into()
            .map_err(|_| "master is not 20 bytes".to_string())?;
        let consumed = field(&doc, "consumed")?
            .as_array()
            .ok_or("consumed is not an array")?
            .iter()
            .map(|n| {
                parse_hex(n.as_str().ok_or("consumed nonce is not a string")?)
                    .map_err(|e| format!("consumed nonce: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let outstanding = match field(&doc, "outstanding")? {
            Value::Null => None,
            v => Some(
                parse_hex(v.as_str().ok_or("outstanding is not a string")?)
                    .map_err(|e| format!("outstanding: {e}"))?,
            ),
        };
        let edge_tail = field(&doc, "edge_tail")?
            .as_array()
            .ok_or("edge_tail is not an array")?
            .iter()
            .map(|run| {
                let run = run.as_array().ok_or("edge run is not a triple")?;
                if run.len() != 3 {
                    return Err("edge run is not a triple".to_string());
                }
                let from = run[0].as_number().ok_or("run from is not a number")?;
                let to = run[1].as_number().ok_or("run to is not a number")?;
                let count = run[2].as_number().ok_or("run count is not a number")?;
                Ok((from as u32, to as u32, count as u32))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let edge_set_json = match field(&doc, "edge_set")? {
            Value::Null => None,
            v => Some(v.as_str().ok_or("edge_set is not a string")?.to_string()),
        };
        let code_value = field(&doc, "code")?
            .as_number()
            .ok_or("code is not a number")? as u8;
        Ok(ForensicBundle {
            device: u64_field(&doc, "device")?,
            corr: u64_field(&doc, "corr")?,
            verdict: field(&doc, "verdict")?
                .as_str()
                .ok_or("verdict is not a string")?
                .to_string(),
            code: code_value,
            master,
            expected_digest: hex_field(&doc, "expected_digest")?,
            frame: hex_field(&doc, "frame")?,
            consumed,
            outstanding,
            edge_tail,
            edge_set_json,
        })
    }
}

/// What re-verifying a bundle produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The bundled device.
    pub device: u64,
    /// The bundled correlation id.
    pub corr: u64,
    /// Verdict code the bundle recorded.
    pub recorded_code: u8,
    /// Verdict code the replay produced.
    pub replayed_code: u8,
    /// Name of the replayed verdict.
    pub verdict: String,
    /// Whether the replay reproduced the recorded verdict exactly.
    pub matches: bool,
}

/// Deterministically re-verifies a bundled rejection: rebuilds the
/// device's session from the bundle's key material, installs the
/// rejection-time freshness state, decodes the bundled frame and submits
/// the report again. A faithful bundle replays to its recorded verdict.
///
/// # Errors
///
/// Malformed bundle JSON, an undecodable bundled frame, a bundled frame
/// that is not a report, or a CFA frame bundled without its edge set.
pub fn replay_bundle(input: &str) -> Result<ReplayOutcome, String> {
    let bundle = ForensicBundle::from_json(input)?;
    let device = DeviceId::from_u64(bundle.device);
    let ka = device_attestation_key(&bundle.master, device);
    let mut session = VerifierSession::new(device, ka, bundle.expected_digest.clone(), 0);
    session.restore_freshness(bundle.consumed.clone(), bundle.outstanding.clone());

    let (message, _) = proto::decode(&bundle.frame).map_err(|e| format!("bundled frame: {e}"))?;
    let result = match message {
        Message::Report { report, .. } => session.submit(&report),
        Message::CfaReport { report, .. } => {
            let edges_json = bundle
                .edge_set_json
                .as_deref()
                .ok_or("cfa bundle carries no edge set")?;
            let edges = AdmissibleEdgeSet::from_json(edges_json)
                .map_err(|e| format!("bundled edge set: {e}"))?;
            session.submit_cfa(&report, &edges)
        }
        other => return Err(format!("bundled frame is not a report: {other:?}")),
    };
    let replayed_code = crate::verifier::result_code(&result);
    Ok(ReplayOutcome {
        device: bundle.device,
        corr: bundle.corr,
        recorded_code: bundle.code,
        replayed_code,
        verdict: verdict_code::name(replayed_code).to_string(),
        matches: replayed_code == bundle.code && verdict_code::name(bundle.code) == bundle.verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> ForensicBundle {
        ForensicBundle {
            device: u64::MAX,
            corr: 0x0123_4567_89AB_CDEF,
            verdict: "replayed_nonce".into(),
            code: verdict_code::REPLAYED_NONCE,
            master: [0xA5; 20],
            expected_digest: vec![0x11; 20],
            frame: vec![1, 2, 3, 4, 5],
            consumed: vec![vec![0xAA; 16], vec![0xBB; 16]],
            outstanding: Some(vec![0xCC; 16]),
            edge_tail: vec![(0, 8, 1), (8, 16, 250)],
            edge_set_json: Some("{\"fake\":true}".into()),
        }
    }

    #[test]
    fn bundle_json_round_trips() {
        let bundle = sample_bundle();
        let json = bundle.to_json();
        assert_eq!(ForensicBundle::from_json(&json), Ok(bundle));
        // And the encoding is stable.
        assert_eq!(ForensicBundle::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn bundle_without_cfa_fields_round_trips() {
        let bundle = ForensicBundle {
            edge_tail: Vec::new(),
            edge_set_json: None,
            outstanding: None,
            ..sample_bundle()
        };
        let json = bundle.to_json();
        assert!(json.contains("\"outstanding\":null"));
        assert!(json.contains("\"edge_set\":null"));
        assert_eq!(ForensicBundle::from_json(&json), Ok(bundle));
    }

    #[test]
    fn malformed_bundles_fail_typed() {
        assert!(ForensicBundle::from_json("not json").is_err());
        assert!(ForensicBundle::from_json("{}").is_err());
        let mut bundle = sample_bundle();
        bundle.verdict = "x".into();
        // A future version and the v2 layout (with its tapes) both
        // fail on the version check.
        for other in ["999", "2"] {
            let wrong_version = bundle.to_json().replace(
                &format!("\"bundle_version\":\"{BUNDLE_FORMAT_VERSION}\""),
                &format!("\"bundle_version\":\"{other}\""),
            );
            assert!(ForensicBundle::from_json(&wrong_version)
                .unwrap_err()
                .contains("version"));
        }
    }
}
