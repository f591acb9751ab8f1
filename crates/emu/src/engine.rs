//! The execution-engine abstraction: [`CpuCore`].
//!
//! The machine has two ways to retire guest instructions — the legacy
//! per-instruction reference loop and the block translation engine —
//! bit-identical in every observable (clock, architectural state,
//! events, trace, EA-MPU decision log, control-flow chain). [`CpuCore`]
//! names that contract as a trait so harnesses can hold the strategy as
//! a value: the differential fuzzer iterates `dyn CpuCore` participants,
//! and the bench suite measures them side by side.
//!
//! A core is a stateless strategy; all engine state (the translation
//! cache) lives in the [`Machine`] and is sized by
//! [`MachineConfig::engine`](crate::MachineConfig). A core must therefore
//! only drive machines configured for its [`EngineKind`] — pick it with
//! [`core_for`]`(machine.engine())`.

use crate::machine::{EngineKind, Event, Fault, Machine};

/// One execution engine: a strategy for retiring guest instructions on
/// a [`Machine`] configured for it.
pub trait CpuCore {
    /// Stable engine name (matches the `TYTAN_EXEC_ENGINE` values).
    fn name(&self) -> &'static str;

    /// The configuration this core requires the machine to run under.
    fn kind(&self) -> EngineKind;

    /// Retires exactly one instruction. All engines share
    /// [`Machine::step`] as the semantic core, so single-stepping is
    /// engine-independent by construction.
    fn step(&self, m: &mut Machine) -> Result<(), Fault> {
        m.step()
    }

    /// Runs until an [`Event`] stops execution or the cycle budget is
    /// exhausted, exactly as [`Machine::run`] would on a machine
    /// configured for this engine.
    fn exec(&self, m: &mut Machine, max_cycles: u64) -> Event;
}

/// The original per-instruction reference loop.
pub struct LegacyCore;

/// The basic-block translation engine (threaded code + EA-MPU decision
/// cache), the default.
pub struct TranslatedCore;

impl CpuCore for LegacyCore {
    fn name(&self) -> &'static str {
        "legacy"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Legacy
    }
    fn exec(&self, m: &mut Machine, max_cycles: u64) -> Event {
        debug_assert_eq!(m.engine(), EngineKind::Legacy);
        m.run_legacy(max_cycles)
    }
}

impl CpuCore for TranslatedCore {
    fn name(&self) -> &'static str {
        "translated"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Translated
    }
    fn exec(&self, m: &mut Machine, max_cycles: u64) -> Event {
        debug_assert_eq!(m.engine(), EngineKind::Translated);
        m.run_translated(max_cycles)
    }
}

/// The core implementing `kind` (pick with `core_for(machine.engine())`).
pub fn core_for(kind: EngineKind) -> &'static dyn CpuCore {
    match kind {
        EngineKind::Legacy => &LegacyCore,
        EngineKind::Translated => &TranslatedCore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::engine_from_env;
    use crate::MachineConfig;
    use sp32::asm::assemble;

    #[test]
    fn core_names_round_trip_through_the_env_selector() {
        for kind in [EngineKind::Legacy, EngineKind::Translated] {
            let core = core_for(kind);
            assert_eq!(core.kind(), kind);
            assert_eq!(engine_from_env(Some(core.name())), kind);
        }
    }

    #[test]
    fn exec_engine_selector_defaults_to_the_translator() {
        assert_eq!(engine_from_env(Some(" legacy ")), EngineKind::Legacy);
        // Anything else, including unset and retired engine names,
        // selects the default.
        for other in [Some("translated"), Some("fast"), Some(""), None] {
            assert_eq!(engine_from_env(other), EngineKind::Translated);
        }
    }

    #[test]
    fn cores_execute_identically_through_the_trait() {
        let source = "main:\n movi r2, 0\nloop:\n addi r2, 1\n cmpi r2, 500\n jnz loop\n hlt\n";
        let mut reference: Option<(u64, u32)> = None;
        for kind in [EngineKind::Legacy, EngineKind::Translated] {
            let mut m = crate::Machine::new(MachineConfig {
                engine: kind,
                ..MachineConfig::default()
            });
            let program = assemble(source, 0x1000).unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
            let core = core_for(m.engine());
            core.step(&mut m).unwrap();
            core.exec(&mut m, 100_000);
            assert!(m.is_halted(), "{}: never halted", core.name());
            let got = (m.cycles(), m.reg(sp32::Reg::R2));
            match reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(got, r, "{}: diverged", core.name()),
            }
        }
    }
}
