//! The device end of a fleet conversation, without I/O.
//!
//! A [`DeviceEndpoint`] is one simulated device's side of the wire
//! protocol as a state machine: verifier bytes go in through
//! [`DeviceEndpoint::receive`] and device frames come out. It owns the
//! [`DeviceSim`], the device's reply [`FrameDecoder`] and the attacks the
//! [`FleetConfig`] injects from this device (verbatim replays, MAC
//! forgeries, control-flow detours). It never blocks, so [`converse`]
//! can hold a whole conversation against a [`FleetVerifier`] by direct
//! calls on one thread.

use tytan::attest::DeviceId;
use tytan::platform::PlatformError;

use crate::farm::DeviceSim;
use crate::proto::{encode, CodecError, FrameDecoder, Message, PROTOCOL_VERSION};
use crate::verifier::FleetVerifier;
use crate::FleetConfig;

/// Why a device conversation ended early; each names the device.
#[derive(Debug)]
pub enum ConversationError {
    /// The platform failed at the named stage (boot, attest, …).
    Platform(DeviceId, &'static str, PlatformError),
    /// The verifier's reply stream did not decode.
    Reply(DeviceId, CodecError),
    /// The verifier sent a message the device does not expect now.
    Unexpected(DeviceId, Box<Message>),
    /// A detour was due but the monitored run logged no edge to bend.
    NoEdgesToDetour(DeviceId),
    /// The device waits for a reply the verifier did not send.
    VerifierSilent(DeviceId),
}

/// The transport's one fragmentation policy, used in both directions:
/// `frame` in `chunk`-byte pieces, or whole when `chunk` is 0.
pub(crate) fn fragments(frame: &[u8], chunk: usize) -> std::slice::Chunks<'_, u8> {
    let size = if chunk == 0 { frame.len() } else { chunk };
    frame.chunks(size.max(1))
}

/// One device's side of the conversation: Hello, then `rounds` of
/// challenge → report, plus whatever injected copies the configuration
/// asks of this device.
#[derive(Debug)]
pub struct DeviceEndpoint<'c> {
    config: &'c FleetConfig,
    sim: DeviceSim,
    decoder: FrameDecoder,
    /// Rounds answered so far; `None` until the verifier's Welcome.
    answered: Option<u64>,
}

impl<'c> DeviceEndpoint<'c> {
    /// Boots and loads `device` under `master` and, in CFA mode, arms
    /// the control-flow monitor and runs the monitored slice.
    ///
    /// # Errors
    ///
    /// [`ConversationError::Platform`] if any of those steps fails.
    pub fn provision(
        device: DeviceId,
        config: &'c FleetConfig,
        master: &[u8; 20],
    ) -> Result<Self, ConversationError> {
        let fail = |stage| move |e| ConversationError::Platform(device, stage, e);
        let mut sim = DeviceSim::provision(device, master).map_err(fail("boot"))?;
        if config.cfa {
            sim.arm_cfa().map_err(fail("arm"))?;
            sim.run(config.monitored_cycles)
                .map_err(fail("monitored run"))?;
        }
        Ok(DeviceEndpoint {
            config,
            sim,
            decoder: FrameDecoder::new(),
            answered: None,
        })
    }

    /// The frame that opens the conversation.
    pub fn hello(&self) -> Vec<u8> {
        let hello = Message::Hello {
            device: self.sim.device(),
            max_version: PROTOCOL_VERSION,
        };
        encode(&hello, PROTOCOL_VERSION)
    }

    /// Whether every round has been answered.
    pub fn is_done(&self) -> bool {
        self.answered == Some(self.config.rounds)
    }

    /// Takes `bytes` from the verifier, in whatever pieces the transport
    /// cut, and appends every frame the device sends in answer to `out`.
    ///
    /// # Errors
    ///
    /// A reply stream that does not decode, a message out of turn, or a
    /// platform failure while answering a challenge.
    pub fn receive(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), ConversationError> {
        self.decoder.push(bytes);
        while !self.is_done() {
            let message = self.decoder.next_message();
            match message.map_err(|e| ConversationError::Reply(self.sim.device(), e))? {
                Some(message) => self.handle(message, out)?,
                None => break,
            }
        }
        Ok(())
    }

    fn handle(
        &mut self,
        message: Message,
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), ConversationError> {
        match (self.answered, message) {
            (None, Message::Welcome { version }) if version == PROTOCOL_VERSION => {
                self.answered = Some(0);
            }
            // Verdicts for earlier rounds interleave with the next
            // challenge; skip them (the verifier is the source of truth).
            (Some(_), Message::Verdict { .. }) => {}
            (Some(round), Message::Challenge { corr, nonce, .. }) => {
                self.answer(corr, &nonce, out)?;
                self.answered = Some(round + 1);
            }
            (_, other) => {
                return Err(ConversationError::Unexpected(
                    self.sim.device(),
                    Box::new(other),
                ))
            }
        }
        Ok(())
    }

    /// Answers the challenge `(corr, nonce)`: the honest report, plus
    /// this device's injected copies in the order the verifier must
    /// judge them.
    fn answer(
        &mut self,
        corr: u64,
        nonce: &[u8],
        out: &mut Vec<Vec<u8>>,
    ) -> Result<(), ConversationError> {
        let (config, device) = (self.config, self.sim.device());
        let d = device.as_u64();
        let fail = |stage| move |e| ConversationError::Platform(device, stage, e);
        let mut honest = if config.cfa {
            let report = self.sim.respond_cfa(nonce).map_err(fail("cfa attest"))?;
            if config.detour_hit(d) {
                // One edge knocked off 4-byte alignment (inadmissible at
                // every site kind), sent *before* the honest report so
                // freshness cannot mask the typed `InadmissibleEdge`. The
                // MAC covers the chain head, not the raw log, so only edge
                // replay catches it.
                let mut report = report.clone();
                let edge = report.log.first_mut();
                edge.ok_or(ConversationError::NoEdgesToDetour(device))?.1 ^= 2;
                let detoured = Message::CfaReport {
                    device,
                    corr,
                    report,
                };
                out.push(encode(&detoured, PROTOCOL_VERSION));
            }
            Message::CfaReport {
                device,
                corr,
                report,
            }
        } else {
            let report = self.sim.respond(nonce).map_err(fail("attest"))?;
            Message::Report {
                device,
                corr,
                report,
            }
        };
        let frame = encode(&honest, PROTOCOL_VERSION);
        if config.replay_hit(d) {
            // The identical bytes again: a verbatim replay.
            out.push(frame.clone());
        }
        out.push(frame);
        if config.corrupt_hit(d) {
            // The honest report with one MAC bit flipped, static or CFA.
            let mac = match &mut honest {
                Message::Report { report, .. } => &mut report.mac,
                Message::CfaReport { report, .. } => &mut report.mac,
                _ => unreachable!("the honest answer is a report"),
            };
            mac[0] ^= 0x80;
            out.push(encode(&honest, PROTOCOL_VERSION));
        }
        Ok(())
    }
}

/// Holds `endpoint`'s whole conversation with `verifier`, whose session
/// for the device must be provisioned, and returns how many non-empty
/// batches the verifier flushed. Frames cross both ways in `chunk`-byte
/// fragments; the verifier flushes whenever the device waits, and
/// challenges again after each accepted report until the rounds are done.
///
/// # Errors
///
/// Whatever the endpoint fails with, or
/// [`ConversationError::VerifierSilent`] when the device waits and the
/// verifier has nothing to send.
pub fn converse(
    endpoint: &mut DeviceEndpoint<'_>,
    verifier: &mut FleetVerifier,
) -> Result<u64, ConversationError> {
    let device = endpoint.sim.device();
    let (chunk, rounds) = (endpoint.config.chunk, endpoint.config.rounds);
    let mut to_verifier = vec![endpoint.hello()];
    let mut to_device = Vec::new();
    let (mut accepted, mut flushes) = (0, 0);
    loop {
        for frame in to_verifier.drain(..) {
            for piece in fragments(&frame, chunk) {
                to_device.extend(verifier.ingest(device, piece));
            }
        }
        let entries = verifier.flush();
        flushes += u64::from(!entries.is_empty());
        for entry in entries {
            to_device.push(entry.to_frame(PROTOCOL_VERSION));
            if entry.result.is_ok() {
                accepted += 1;
                if accepted < rounds {
                    to_device.extend(verifier.challenge_frame(device, PROTOCOL_VERSION));
                }
            }
        }
        if endpoint.is_done() {
            return Ok(flushes);
        }
        if to_device.is_empty() {
            return Err(ConversationError::VerifierSilent(device));
        }
        for frame in to_device.drain(..) {
            for piece in fragments(&frame, chunk) {
                endpoint.receive(piece, &mut to_verifier)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::reference_digest;
    use tytan_trace::Tracer;

    /// One conversation of device 0, which carries every injection, at
    /// `chunk`: the verifier's books as a counter snapshot.
    fn books_at(chunk: usize) -> Vec<(String, u64)> {
        let config = FleetConfig {
            rounds: 3,
            chunk,
            replay_every: Some(1),
            corrupt_every: Some(1),
            ..FleetConfig::default()
        };
        let (_, digest) = reference_digest().expect("reference boots");
        let mut verifier = FleetVerifier::new(config.master(), digest, config.seed, Tracer::null());
        let device = DeviceId::from_u64(0);
        verifier.provision(device);
        let mut endpoint =
            DeviceEndpoint::provision(device, &config, &config.master()).expect("device boots");
        let flushes = converse(&mut endpoint, &mut verifier).expect("conversation completes");
        assert!(endpoint.is_done());
        assert_eq!(flushes, 3, "one batch per round");
        verifier.tracer().counters().snapshot()
    }

    #[test]
    fn fragment_size_does_not_move_the_books() {
        let whole = books_at(0);
        let count = |name: &str| whole.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(count("fleet_accepted"), Some(3));
        assert_eq!(count("fleet_rejected_replay"), Some(3));
        assert_eq!(count("fleet_rejected_bad_mac"), Some(3));
        assert_eq!(count("fleet_decode_errors"), Some(0));
        assert_eq!(books_at(1), whole);
        assert_eq!(books_at(13), whole);
    }

    #[test]
    fn cfa_forgeries_land_in_bad_mac_and_the_books_balance() {
        // Device 0 carries every injection: per round one detour, one
        // replay and one forgery beside the honest report.
        let config = FleetConfig {
            devices: 1,
            rounds: 2,
            cfa: true,
            replay_every: Some(1),
            corrupt_every: Some(1),
            detour_every: Some(1),
            ..FleetConfig::default()
        };
        let outcome = crate::run_fleet(&config).expect("fleet runs");
        assert_eq!(outcome.reports, 8);
        assert_eq!(outcome.cfa_reports, 8);
        assert_eq!(outcome.accepted, 2);
        assert_eq!(outcome.rejected_replay, 2);
        assert_eq!(outcome.rejected_bad_mac, 2);
        assert_eq!(outcome.rejected_inadmissible, 2);
        assert_eq!(outcome.injected_corrupt, 2);
        assert_eq!(outcome.rejected_chain + outcome.rejected_nonce, 0);
        assert!(outcome.clean(), "outcome: {outcome:?}");
    }

    #[test]
    fn a_silent_verifier_is_a_typed_error_not_a_hang() {
        let config = FleetConfig::default();
        let (_, digest) = reference_digest().expect("reference boots");
        // The session is never provisioned, so the Hello gets no reply.
        let mut verifier = FleetVerifier::new(config.master(), digest, config.seed, Tracer::null());
        let device = DeviceId::from_u64(3);
        let mut endpoint =
            DeviceEndpoint::provision(device, &config, &config.master()).expect("device boots");
        assert!(matches!(
            converse(&mut endpoint, &mut verifier),
            Err(ConversationError::VerifierSilent(d)) if d == device
        ));
        assert!(!endpoint.is_done());
    }

    #[test]
    fn a_message_out_of_turn_is_a_typed_error() {
        let config = FleetConfig::default();
        let device = DeviceId::from_u64(1);
        let mut endpoint =
            DeviceEndpoint::provision(device, &config, &config.master()).expect("device boots");
        let verdict = encode(
            &Message::Verdict {
                device,
                corr: 1,
                accepted: true,
                code: 0,
            },
            PROTOCOL_VERSION,
        );
        let mut out = Vec::new();
        assert!(matches!(
            endpoint.receive(&verdict, &mut out),
            Err(ConversationError::Unexpected(d, got)) if d == device && matches!(*got, Message::Verdict { .. })
        ));
        assert!(out.is_empty());
    }
}
