//! The fleet attestation wire protocol.
//!
//! Reports travel from thousands of devices to one verifier over byte
//! streams that fragment and concatenate arbitrarily, so the protocol is
//! framed and versioned:
//!
//! ```text
//! [len: u32 LE] [version: u8] [type: u8] [payload: (len - 2) bytes]
//! ```
//!
//! `len` covers everything after itself (version byte, type byte and
//! payload) and is bounded by [`MAX_FRAME_LEN`], so a corrupted length
//! prefix cannot make the decoder buffer unboundedly. There is exactly
//! one protocol version, [`PROTOCOL_VERSION`]: every frame carries it,
//! and a frame stamped with any other version byte is a typed
//! [`CodecError::UnsupportedVersion`] — never a silent misparse. The
//! verifier applies the same rule to the version a device advertises in
//! its [`Message::Hello`].
//!
//! Decoding is strict: unknown message types, short payloads, trailing
//! payload bytes, oversized nonces and non-canonical report encodings are
//! all distinct [`CodecError`]s. The streaming [`FrameDecoder`] reassembles
//! frames across arbitrary chunk boundaries and poisons itself on the
//! first error — a corrupted connection is dropped, not resynchronized.
//!
//! # Examples
//!
//! ```
//! use tytan::attest::DeviceId;
//! use tytan_fleet::proto::{encode, FrameDecoder, Message, PROTOCOL_VERSION};
//!
//! let msg = Message::Hello { device: DeviceId::from_u64(7), max_version: PROTOCOL_VERSION };
//! let bytes = encode(&msg, PROTOCOL_VERSION);
//!
//! let mut decoder = FrameDecoder::new();
//! for chunk in bytes.chunks(3) {
//!     decoder.push(chunk);
//! }
//! assert_eq!(decoder.next_message().unwrap(), Some(msg));
//! assert_eq!(decoder.next_message().unwrap(), None);
//! ```

use tytan::attest::{AttestationReport, CfaReport, DeviceId, CF_LOG_CAP};

/// The one protocol version this implementation speaks.
///
/// Challenges, reports and verdicts carry a verifier-minted correlation
/// id, and [`Message::CfaReport`] ships its edge log as run-length
/// compressed `(from, to, count)` triples. Earlier drafts of the format
/// used version bytes 1–3; keeping this value at 4 makes their frames
/// fail typed instead of misparsing.
pub const PROTOCOL_VERSION: u8 = 4;

/// Upper bound on `len` (version + type + payload). Frames beyond this
/// are rejected before any payload is buffered. Sized for the largest
/// legal [`Message::CfaReport`] frame: an edge log at the prover-side
/// cap ([`tytan::attest::CF_LOG_CAP`], re-exported from the emulator
/// crate) degenerates to 65 536 count-1 runs × 12 bytes = 768 KiB of
/// run table. Plus three 64 KiB length-framed fields (digest, nonce,
/// MAC) and headers, the worst case stays under 1 MiB — checked at
/// compile time below, so a cap change cannot silently make legal
/// reports unframeable.
pub const MAX_FRAME_LEN: usize = 1 << 20;

const _: () = {
    // Worst-case CfaReport payload: id + three length-framed 64 KiB
    // fields + chain head + run count + the log itself.
    let fields = 8 + (4 + (1 << 16)) * 3 + 20 + 4;
    let log = 12 * CF_LOG_CAP; // count-1 runs, 12 bytes each
                               // Frame: version + type + device + correlation id + inner length.
    assert!(2 + 8 + 8 + 4 + fields + log <= MAX_FRAME_LEN);
};

/// Upper bound on a challenge nonce carried in a frame.
pub const MAX_NONCE_LEN: usize = 64;

/// Typed decode failures. Every way a frame can be malformed maps to a
/// distinct variant; decoding never panics and never guesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a frame header or payload. `need` is the
    /// total bytes required to finish decoding what `have` started.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes required.
        need: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is too short to
    /// hold the version and type bytes).
    BadLength {
        /// The declared length.
        len: usize,
    },
    /// A version byte other than [`PROTOCOL_VERSION`]: on a frame, or
    /// advertised as a device's newest version in its `Hello`.
    UnsupportedVersion {
        /// The version on the wire.
        got: u8,
    },
    /// The type byte names no known message.
    UnknownMessageType(u8),
    /// The payload does not parse as the message type's body.
    MalformedPayload(&'static str),
    /// The payload parsed but left unconsumed bytes — frames are exact.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// The decoder already reported an error for this stream; the
    /// connection must be dropped, not resumed.
    Poisoned,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            CodecError::BadLength { len } => write!(f, "bad frame length {len}"),
            CodecError::UnsupportedVersion { got } => write!(
                f,
                "unsupported protocol version {got} (this build speaks {PROTOCOL_VERSION})"
            ),
            CodecError::UnknownMessageType(t) => write!(f, "unknown message type {t:#04x}"),
            CodecError::MalformedPayload(what) => write!(f, "malformed payload: {what}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            CodecError::Poisoned => write!(f, "stream already failed"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Verdict detail codes carried by [`Message::Verdict`] (the wire form of
/// `tytan::attest::VerifyError`).
///
/// Code 5 is unassigned: it once meant "no provisioned session", but a
/// report from an unprovisioned device gets no verdict at all. The other
/// codes keep their values, so 5 stays free rather than being reused.
pub mod verdict_code {
    /// Report accepted.
    pub const OK: u8 = 0;
    /// MAC verification failed.
    pub const BAD_MAC: u8 = 1;
    /// Verbatim replay of an already-accepted report.
    pub const REPLAYED_NONCE: u8 = 2;
    /// Nonce does not match the outstanding challenge.
    pub const NONCE_MISMATCH: u8 = 3;
    /// Measurement digest does not match the reference.
    pub const DIGEST_MISMATCH: u8 = 4;
    /// A control-flow edge in the log is not admitted by the static CFG.
    pub const INADMISSIBLE_EDGE: u8 = 6;
    /// An unproven-site edge landed outside reachable instruction starts.
    pub const UNPROVEN_SITE: u8 = 7;
    /// The edge log does not refold to the MAC'd chain head.
    pub const CHAIN_MISMATCH: u8 = 8;

    /// Stable lowercase name for a verdict code — the vocabulary the
    /// structured event log and forensic bundles use.
    pub fn name(code: u8) -> &'static str {
        match code {
            OK => "ok",
            BAD_MAC => "bad_mac",
            REPLAYED_NONCE => "replayed_nonce",
            NONCE_MISMATCH => "nonce_mismatch",
            DIGEST_MISMATCH => "digest_mismatch",
            INADMISSIBLE_EDGE => "inadmissible_edge",
            UNPROVEN_SITE => "unproven_site",
            CHAIN_MISMATCH => "chain_mismatch",
            _ => "unknown_code",
        }
    }
}

/// A protocol message. One frame carries exactly one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Device → verifier: opens a session, advertising the newest
    /// protocol version the device speaks.
    Hello {
        /// The connecting device.
        device: DeviceId,
        /// Newest version the device supports.
        max_version: u8,
    },
    /// Verifier → device: accepts the session.
    Welcome {
        /// The session's protocol version, always [`PROTOCOL_VERSION`].
        version: u8,
    },
    /// Verifier → device: a fresh challenge nonce.
    Challenge {
        /// The challenged device.
        device: DeviceId,
        /// Verifier-minted correlation id for this attestation round
        /// (minted from 1; `0` is reserved for "none").
        corr: u64,
        /// The nonce to attest against.
        nonce: Vec<u8>,
    },
    /// Device → verifier: an attestation report answering a challenge.
    Report {
        /// The reporting device.
        device: DeviceId,
        /// The correlation id echoed from the challenge being answered.
        corr: u64,
        /// The MAC-authenticated report.
        report: AttestationReport,
    },
    /// Verifier → device: the outcome for one submitted report.
    Verdict {
        /// The judged device.
        device: DeviceId,
        /// The correlation id of the judged report.
        corr: u64,
        /// Whether the report was accepted.
        accepted: bool,
        /// A [`verdict_code`] detailing the outcome.
        code: u8,
    },
    /// Device → verifier: a control-flow-attested report answering a
    /// challenge.
    CfaReport {
        /// The reporting device.
        device: DeviceId,
        /// The correlation id echoed from the challenge being answered.
        corr: u64,
        /// The MAC-authenticated report with its edge log.
        report: CfaReport,
    },
}

const TYPE_HELLO: u8 = 1;
const TYPE_WELCOME: u8 = 2;
const TYPE_CHALLENGE: u8 = 3;
const TYPE_REPORT: u8 = 4;
const TYPE_VERDICT: u8 = 5;
const TYPE_CFA_REPORT: u8 = 6;

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => TYPE_HELLO,
            Message::Welcome { .. } => TYPE_WELCOME,
            Message::Challenge { .. } => TYPE_CHALLENGE,
            Message::Report { .. } => TYPE_REPORT,
            Message::Verdict { .. } => TYPE_VERDICT,
            Message::CfaReport { .. } => TYPE_CFA_REPORT,
        }
    }

    /// The message's correlation id, `0` for the kinds that carry none.
    pub fn corr(&self) -> u64 {
        match self {
            Message::Hello { .. } | Message::Welcome { .. } => 0,
            Message::Challenge { corr, .. }
            | Message::Report { corr, .. }
            | Message::Verdict { corr, .. }
            | Message::CfaReport { corr, .. } => *corr,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello {
                device,
                max_version,
            } => {
                out.extend_from_slice(&device.to_bytes());
                out.push(*max_version);
            }
            Message::Welcome { version } => out.push(*version),
            Message::Challenge {
                device,
                corr,
                nonce,
            } => {
                out.extend_from_slice(&device.to_bytes());
                out.extend_from_slice(&corr.to_be_bytes());
                out.extend_from_slice(&(nonce.len() as u16).to_le_bytes());
                out.extend_from_slice(nonce);
            }
            Message::Report {
                device,
                corr,
                report,
            } => {
                out.extend_from_slice(&device.to_bytes());
                out.extend_from_slice(&corr.to_be_bytes());
                let bytes = report.to_bytes();
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&bytes);
            }
            Message::Verdict {
                device,
                corr,
                accepted,
                code,
            } => {
                out.extend_from_slice(&device.to_bytes());
                out.extend_from_slice(&corr.to_be_bytes());
                out.push(u8::from(*accepted));
                out.push(*code);
            }
            Message::CfaReport {
                device,
                corr,
                report,
            } => {
                out.extend_from_slice(&device.to_bytes());
                out.extend_from_slice(&corr.to_be_bytes());
                let bytes = report.to_bytes();
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&bytes);
            }
        }
        out
    }
}

/// Encodes `message` as one complete frame stamped with `version`.
/// Peers speak only [`PROTOCOL_VERSION`]; a frame stamped with any other
/// byte decodes as [`CodecError::UnsupportedVersion`].
pub fn encode(message: &Message, version: u8) -> Vec<u8> {
    let payload = message.payload();
    let len = 2 + payload.len();
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(version);
    out.push(message.type_byte());
    out.extend_from_slice(&payload);
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() < n {
            return Err(CodecError::MalformedPayload("field extends past payload"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or(CodecError::MalformedPayload("field extends past payload"))?;
        self.bytes = tail;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    fn u16_le(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32_le(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn corr(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn device(&mut self) -> Result<DeviceId, CodecError> {
        Ok(DeviceId::from_bytes(self.array()?))
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                extra: self.bytes.len(),
            })
        }
    }
}

fn decode_payload(type_byte: u8, mut r: Reader<'_>) -> Result<Message, CodecError> {
    let message = match type_byte {
        TYPE_HELLO => Message::Hello {
            device: r.device()?,
            max_version: r.u8()?,
        },
        TYPE_WELCOME => Message::Welcome { version: r.u8()? },
        TYPE_CHALLENGE => {
            let device = r.device()?;
            let corr = r.corr()?;
            let len = r.u16_le()? as usize;
            if len > MAX_NONCE_LEN {
                return Err(CodecError::MalformedPayload("nonce too long"));
            }
            Message::Challenge {
                device,
                corr,
                nonce: r.take(len)?.to_vec(),
            }
        }
        TYPE_REPORT => {
            let device = r.device()?;
            let corr = r.corr()?;
            let len = r.u32_le()? as usize;
            let bytes = r.take(len)?;
            let report = AttestationReport::from_bytes(bytes)
                .ok_or(CodecError::MalformedPayload("report does not parse"))?;
            // Canonical-encoding check: `from_bytes` tolerates trailing
            // bytes inside its slice; the frame does not.
            if report.to_bytes().len() != len {
                return Err(CodecError::MalformedPayload("report not canonical"));
            }
            Message::Report {
                device,
                corr,
                report,
            }
        }
        TYPE_VERDICT => {
            let device = r.device()?;
            let corr = r.corr()?;
            let accepted = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::MalformedPayload("verdict flag not boolean")),
            };
            Message::Verdict {
                device,
                corr,
                accepted,
                code: r.u8()?,
            }
        }
        TYPE_CFA_REPORT => {
            let device = r.device()?;
            let corr = r.corr()?;
            let len = r.u32_le()? as usize;
            let bytes = r.take(len)?;
            let report = CfaReport::from_bytes(bytes)
                .ok_or(CodecError::MalformedPayload("cfa report does not parse"))?;
            if report.to_bytes().len() != len {
                return Err(CodecError::MalformedPayload("cfa report not canonical"));
            }
            Message::CfaReport {
                device,
                corr,
                report,
            }
        }
        other => return Err(CodecError::UnknownMessageType(other)),
    };
    r.finish()?;
    Ok(message)
}

/// Decodes exactly one frame from the front of `bytes`, returning the
/// message and the number of bytes consumed.
///
/// # Errors
///
/// Any [`CodecError`]; [`CodecError::Truncated`] means more bytes may
/// complete the frame, every other variant is fatal for the stream.
pub fn decode(bytes: &[u8]) -> Result<(Message, usize), CodecError> {
    let mut r = Reader { bytes };
    let prefix = r.array().map_err(|_| CodecError::Truncated {
        have: bytes.len(),
        need: 4,
    })?;
    let len = u32::from_le_bytes(prefix) as usize;
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(CodecError::BadLength { len });
    }
    let total = 4 + len;
    let frame = r.take(len).map_err(|_| CodecError::Truncated {
        have: bytes.len(),
        need: total,
    })?;
    let mut r = Reader { bytes: frame };
    let [version, type_byte] = r.array()?;
    if version != PROTOCOL_VERSION {
        return Err(CodecError::UnsupportedVersion { got: version });
    }
    let message = decode_payload(type_byte, r)?;
    Ok((message, total))
}

/// A streaming frame reassembler: push byte chunks in whatever sizes the
/// transport delivers, pull complete messages out.
///
/// The first hard decode error poisons the decoder — every subsequent
/// call returns [`CodecError::Poisoned`]. A framed stream that has lost
/// sync cannot be trusted to resynchronize, so the connection owning this
/// decoder must be dropped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    poisoned: bool,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends received bytes. Accepts any chunking, including empty.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Whether a hard decode error has been observed.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Whether the next [`FrameDecoder::next_message`] can return more
    /// than `Ok(None)`: the buffer holds a length prefix that is either
    /// out of bounds or followed by the whole frame it announces.
    pub(crate) fn frame_ready(&self) -> bool {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return false;
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        !(2..=MAX_FRAME_LEN).contains(&len) || self.buf.len() >= 4 + len
    }

    /// Decodes the next complete message, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// The first hard [`CodecError`] poisons the decoder;
    /// [`CodecError::Poisoned`] thereafter.
    pub fn next_message(&mut self) -> Result<Option<Message>, CodecError> {
        Ok(self.next_message_sized()?.map(|(message, _)| message))
    }

    /// Like [`FrameDecoder::next_message`], also returning the length
    /// the message occupied on the wire (the verifier's events cite it).
    pub(crate) fn next_message_sized(&mut self) -> Result<Option<(Message, usize)>, CodecError> {
        if self.poisoned {
            return Err(CodecError::Poisoned);
        }
        match decode(&self.buf) {
            Ok((message, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some((message, consumed)))
            }
            Err(CodecError::Truncated { .. }) => Ok(None),
            Err(err) => {
                self.poisoned = true;
                self.buf.clear();
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tytan_crypto::TaskId;

    fn sample_messages() -> Vec<Message> {
        let report = AttestationReport {
            id: TaskId::from_u64(0xFEED),
            digest: vec![7u8; 20],
            nonce: vec![1, 2, 3, 4],
            mac: vec![9u8; 20],
        };
        vec![
            Message::Hello {
                device: DeviceId::from_u64(3),
                max_version: PROTOCOL_VERSION,
            },
            Message::Welcome {
                version: PROTOCOL_VERSION,
            },
            Message::Challenge {
                device: DeviceId::from_u64(u64::MAX),
                corr: u64::MAX,
                nonce: vec![0xAB; 16],
            },
            Message::Challenge {
                device: DeviceId::from_u64(0),
                corr: 0,
                nonce: Vec::new(),
            },
            Message::Report {
                device: DeviceId::from_u64(77),
                corr: 0x1122_3344_5566_7788,
                report,
            },
            Message::Verdict {
                device: DeviceId::from_u64(5),
                corr: 42,
                accepted: true,
                code: verdict_code::OK,
            },
            Message::Verdict {
                device: DeviceId::from_u64(5),
                corr: 43,
                accepted: false,
                code: verdict_code::REPLAYED_NONCE,
            },
            Message::CfaReport {
                device: DeviceId::from_u64(11),
                corr: 7,
                report: sample_cfa_report(),
            },
        ]
    }

    fn sample_cfa_report() -> CfaReport {
        CfaReport {
            id: TaskId::from_u64(0xBEEF),
            digest: vec![6u8; 20],
            nonce: vec![5, 6, 7, 8],
            log: vec![(0, 8, 1), (8, 16, 300), (16, 12, 1)],
            chain_head: [0xC4; 20],
            mac: vec![8u8; 20],
        }
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let bytes = encode(&msg, PROTOCOL_VERSION);
            let (decoded, consumed) = decode(&bytes).expect("decodes");
            assert_eq!(decoded, msg);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn streaming_decoder_reassembles_any_chunking() {
        let mut wire = Vec::new();
        for msg in sample_messages() {
            wire.extend_from_slice(&encode(&msg, PROTOCOL_VERSION));
        }
        for chunk_size in [1, 2, 3, 5, 7, 64, wire.len()] {
            let mut decoder = FrameDecoder::new();
            let mut out = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                decoder.push(chunk);
                while let Some(msg) = decoder.next_message().expect("clean stream") {
                    out.push(msg);
                }
            }
            assert_eq!(out, sample_messages(), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn frame_ready_is_exactly_when_a_decode_can_return_something() {
        // Byte by byte through every message, then a bad length prefix
        // and a frame with a bad version byte: whenever `frame_ready` says
        // no, the decode would have returned `Ok(None)`, and vice versa.
        let mut wire = Vec::new();
        for msg in sample_messages() {
            wire.extend_from_slice(&encode(&msg, PROTOCOL_VERSION));
        }
        let mut bad_version = encode(&sample_messages()[0], PROTOCOL_VERSION);
        bad_version[4] ^= 0xFF;
        let bad_length = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        for tail in [&bad_version[..], &bad_length[..]] {
            let mut decoder = FrameDecoder::new();
            for byte in wire.iter().chain(tail) {
                decoder.push(std::slice::from_ref(byte));
                loop {
                    let ready = decoder.frame_ready();
                    let got = decoder.next_message_sized();
                    assert_eq!(ready, !matches!(got, Ok(None) | Err(CodecError::Poisoned)));
                    if !matches!(got, Ok(Some(_))) {
                        break;
                    }
                }
            }
            assert!(decoder.is_poisoned() && !decoder.frame_ready());
        }
    }

    #[test]
    fn verdict_code_5_is_unassigned() {
        use verdict_code::*;
        let assigned = [
            OK,
            BAD_MAC,
            REPLAYED_NONCE,
            NONCE_MISMATCH,
            DIGEST_MISMATCH,
            INADMISSIBLE_EDGE,
            UNPROVEN_SITE,
            CHAIN_MISMATCH,
        ];
        assert_eq!(assigned, [0, 1, 2, 3, 4, 6, 7, 8]);
        assert_eq!(name(5), "unknown_code");
        assert!(assigned.iter().all(|&code| name(code) != "unknown_code"));
    }

    #[test]
    fn truncated_frames_wait_instead_of_failing() {
        let bytes = encode(
            &Message::Welcome {
                version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        );
        for cut in 0..bytes.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&bytes[..cut]);
            assert_eq!(
                decoder.next_message().expect("not an error"),
                None,
                "cut {cut}"
            );
            decoder.push(&bytes[cut..]);
            assert!(
                decoder.next_message().expect("completes").is_some(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn version_outside_window_is_typed() {
        // The one version rule: every other version byte, on every
        // message kind, is the typed reject and poisons the stream.
        for version in (0..=u8::MAX).filter(|&v| v != PROTOCOL_VERSION) {
            let want = CodecError::UnsupportedVersion { got: version };
            for msg in sample_messages() {
                let frame = encode(&msg, version);
                assert_eq!(decode(&frame), Err(want.clone()), "{msg:?}");
                let mut decoder = FrameDecoder::new();
                decoder.push(&frame);
                assert_eq!(decoder.next_message(), Err(want.clone()), "{msg:?}");
                assert!(decoder.is_poisoned());
                decoder.push(&encode(&msg, PROTOCOL_VERSION));
                assert_eq!(decoder.next_message(), Err(CodecError::Poisoned));
            }
        }
    }

    /// A `CfaReport` frame at [`PROTOCOL_VERSION`] around hand-built
    /// inner report bytes.
    fn cfa_frame(inner: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&DeviceId::from_u64(11).to_bytes());
        payload.extend_from_slice(&7u64.to_be_bytes());
        payload.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        payload.extend_from_slice(inner);
        let mut frame = Vec::new();
        frame.extend_from_slice(&((2 + payload.len()) as u32).to_le_bytes());
        frame.push(PROTOCOL_VERSION);
        frame.push(TYPE_CFA_REPORT);
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn non_canonical_v4_run_log_is_rejected() {
        // Hand-build a CFA frame whose inner report splits a run into
        // two adjacent runs of the same edge: the raw stream and the
        // MAC'd edge count are unchanged, but the encoding is not
        // canonical and must not decode.
        let report = sample_cfa_report();
        let mut split = report.clone();
        split.log = vec![(0, 8, 1), (8, 16, 299), (8, 16, 1), (16, 12, 1)];
        assert_eq!(split.raw_edges(), report.raw_edges());
        assert!(matches!(
            decode(&cfa_frame(&split.to_bytes())),
            Err(CodecError::MalformedPayload(_))
        ));
    }

    #[test]
    fn expanded_pair_cfa_payload_is_malformed() {
        // The edge log has one wire form, run triples. The retired
        // layout (raw edge count, then every `(from, to)` pair) must
        // not decode, even stamped with the current version.
        let loopy = sample_cfa_report();
        let mut straight = loopy.clone();
        straight.log = vec![(0, 8, 1), (8, 16, 1), (16, 12, 1)];
        for report in [loopy, straight] {
            let mut inner = Vec::new();
            inner.extend_from_slice(&report.id.to_bytes());
            inner.extend_from_slice(&(report.digest.len() as u32).to_le_bytes());
            inner.extend_from_slice(&report.digest);
            inner.extend_from_slice(&(report.nonce.len() as u32).to_le_bytes());
            inner.extend_from_slice(&report.nonce);
            inner.extend_from_slice(&report.chain_head);
            inner.extend_from_slice(&(report.raw_edges() as u32).to_le_bytes());
            for (from, to) in tytan_crypto::expand_runs(&report.log) {
                inner.extend_from_slice(&from.to_le_bytes());
                inner.extend_from_slice(&to.to_le_bytes());
            }
            inner.extend_from_slice(&(report.mac.len() as u32).to_le_bytes());
            inner.extend_from_slice(&report.mac);
            assert!(
                matches!(
                    decode(&cfa_frame(&inner)),
                    Err(CodecError::MalformedPayload(_))
                ),
                "log {:?}",
                report.log
            );
        }
    }

    #[test]
    fn corr_accessor_reports_the_carried_id() {
        for msg in sample_messages() {
            match &msg {
                Message::Hello { .. } | Message::Welcome { .. } => {
                    assert_eq!(msg.corr(), 0);
                }
                Message::Challenge { corr, .. }
                | Message::Report { corr, .. }
                | Message::Verdict { corr, .. }
                | Message::CfaReport { corr, .. } => assert_eq!(msg.corr(), *corr),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_buffering() {
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode(&bytes),
            Err(CodecError::BadLength {
                len: MAX_FRAME_LEN + 1
            })
        );
        // Too-short lengths (cannot hold version + type) are equally bad.
        assert_eq!(
            decode(&1u32.to_le_bytes()),
            Err(CodecError::BadLength { len: 1 })
        );
    }

    #[test]
    fn poisoned_decoder_stays_poisoned() {
        let mut decoder = FrameDecoder::new();
        let mut bytes = encode(
            &Message::Welcome {
                version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        );
        bytes[5] = 0xEE; // unknown type
        decoder.push(&bytes);
        assert_eq!(
            decoder.next_message(),
            Err(CodecError::UnknownMessageType(0xEE))
        );
        assert!(decoder.is_poisoned());
        decoder.push(&encode(
            &Message::Welcome {
                version: PROTOCOL_VERSION,
            },
            PROTOCOL_VERSION,
        ));
        assert_eq!(decoder.next_message(), Err(CodecError::Poisoned));
    }

    #[test]
    fn non_canonical_report_encoding_rejected() {
        let report = AttestationReport {
            id: TaskId::from_u64(1),
            digest: vec![2u8; 20],
            nonce: vec![3u8; 8],
            mac: vec![4u8; 20],
        };
        let device = DeviceId::from_u64(9);
        let mut frame = encode(
            &Message::Report {
                device,
                corr: 0,
                report,
            },
            PROTOCOL_VERSION,
        );
        // Grow the inner length prefix and pad: `from_bytes` would accept
        // the prefix, the canonical check must not. Header, device and
        // correlation id precede the inner length.
        let inner_len_at = 4 + 2 + 8 + 8;
        let inner = u32::from_le_bytes(frame[inner_len_at..inner_len_at + 4].try_into().unwrap());
        frame[inner_len_at..inner_len_at + 4].copy_from_slice(&(inner + 2).to_le_bytes());
        frame.extend_from_slice(&[0, 0]);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode(&frame),
            Err(CodecError::MalformedPayload(_))
        ));
    }

    proptest! {
        // Round trip under proptest-chosen fields.
        #[test]
        fn prop_challenge_round_trips(
            device in any::<u64>(),
            corr in any::<u64>(),
            nonce in proptest::collection::vec(any::<u8>(), 0..MAX_NONCE_LEN),
        ) {
            let msg = Message::Challenge {
                device: DeviceId::from_u64(device),
                corr,
                nonce,
            };
            let bytes = encode(&msg, PROTOCOL_VERSION);
            prop_assert_eq!(decode(&bytes), Ok((msg, bytes.len())));
        }

        // Arbitrary bytes never panic the decoder: either a message, a
        // wait-for-more, or a typed error.
        #[test]
        fn prop_garbage_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let mut decoder = FrameDecoder::new();
            decoder.push(&bytes);
            while let Ok(Some(_)) = decoder.next_message() {}
        }

        // A single flipped bit in a valid frame is caught or yields a
        // different (still well-formed) message — never a panic, and any
        // successfully decoded frame consumes exactly its own bytes.
        #[test]
        fn prop_bit_flips_never_panic(
            msg_index in 0usize..8,
            bit in 0usize..4096,
        ) {
            let msg = sample_messages().remove(msg_index);
            let mut bytes = encode(&msg, PROTOCOL_VERSION);
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match decode(&bytes) {
                Ok((_, consumed)) => prop_assert!(consumed <= bytes.len()),
                Err(CodecError::Truncated { have, need }) => {
                    // Only a length-prefix flip can make the frame look
                    // longer than what was sent.
                    prop_assert!(bit < 32);
                    prop_assert!(need > have);
                }
                Err(_) => {}
            }
        }

        // Chunk boundaries never change what a stream decodes to.
        #[test]
        fn prop_chunking_is_transparent(
            split in 1usize..64,
            count in 1usize..5,
        ) {
            let mut wire = Vec::new();
            let expected: Vec<Message> = (0..count)
                .map(|i| Message::Challenge {
                    device: DeviceId::from_u64(i as u64),
                    corr: i as u64,
                    nonce: vec![i as u8; i],
                })
                .collect();
            for msg in &expected {
                wire.extend_from_slice(&encode(msg, PROTOCOL_VERSION));
            }
            let mut decoder = FrameDecoder::new();
            let mut out = Vec::new();
            for chunk in wire.chunks(split) {
                decoder.push(chunk);
                while let Some(msg) = decoder.next_message().expect("clean stream") {
                    out.push(msg);
                }
            }
            prop_assert_eq!(out, expected);
        }
    }
}
