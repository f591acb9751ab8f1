//! Deterministic differential fuzzing and fault-injection plane.
//!
//! TyTAN's trust argument leans on components agreeing with each other:
//! the block translator must be cycle- and state-identical to the
//! legacy interpreter, the static linter's verdict must match what execution
//! actually does, and the loader/attestation paths must degrade to
//! typed errors — never panics — under arbitrary corruption. Each of
//! those cross-component contracts is an *oracle* this crate drives
//! with seed-derived random inputs:
//!
//! - [`diff`] — the differential oracle: every generated program +
//!   platform state runs on a legacy machine and two translated ones
//!   (decision log on and off) in lockstep; any divergence in events,
//!   registers, cycles, EA-MPU decisions, or RAM is a failure.
//! - [`faults`] — platform fault injection: RAM bit flips between
//!   chunks, IRQ storms, timer reprogramming chaos, mutated/truncated
//!   task images through the loader, garbage attestation reports.
//! - [`lintcheck`] — lint-vs-execution cross-check: a `Reject` verdict
//!   must stop a verified load at zero guest cycles; a `CleanProven`
//!   verdict means sandboxed execution never raises an EA-MPU fault.
//! - [`fleet_frames`] — the fleet verifier's untrusted-input surface:
//!   replayed and mutated attestation frames through the framed codec
//!   and the verifier must never verify and never panic.
//! - [`cfa_log`] — the control-flow-attestation oracle: detoured,
//!   mutated, reordered, and truncated edge logs must never verify
//!   against the static admissible-edge set, even when re-sealed under
//!   the real device key; honest walks always must.
//! - [`bundle_replay`] — the forensics oracle: every typed rejection's
//!   bundle must round-trip through JSON byte-identically and replay
//!   offline to the identical verdict; mutated bundles fail typed.
//! - [`campaign`] — the engine: runs `(seed, index)`-keyed cases
//!   through every scenario under `catch_unwind`, so a panic anywhere
//!   in the stack is itself a reportable finding, and minimizes
//!   failures for the corpus.
//! - [`corpus`] — a text format for pinned regression cases, replayed
//!   by `cargo test` and the CI `fuzz-smoke` job.
//!
//! Everything is a pure function of a `u64` seed ([`rng`]): a failure
//! report is reproducible from the scenario name and `(seed, index)`
//! alone, on any machine, with no corpus file required.

pub mod bundle_replay;
pub mod campaign;
pub mod cfa_log;
pub mod corpus;
pub mod diff;
pub mod faults;
pub mod fleet_frames;
pub mod gen;
pub mod lintcheck;
pub mod rng;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CaseFailure};
pub use corpus::CorpusCase;
pub use rng::FuzzRng;
