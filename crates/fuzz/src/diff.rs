//! The differential oracle: every execution engine vs the legacy
//! interpreter in lockstep.
//!
//! One machine per [`EngineKind`] is built bit-identically from a
//! [`CaseSetup`] — same program, registers, IDT, EA-MPU rules, devices,
//! pending IRQs — differing in exactly one bit: the engine. The block
//! translator's contract is total invisibility (EA-MPU decision cache,
//! event-driven run loop, block translation cache — all
//! guest-transparent), so *any* observable difference from the legacy
//! reference is a bug:
//!
//! - run-loop events ([`Event`]) must match at every chunk boundary,
//! - [`Machine::snapshot`] (registers, EIP, flags, clock, stats,
//!   pending IRQs) must match at every boundary,
//! - the EA-MPU decision logs (query + decision, including rule slots)
//!   must be byte-identical,
//! - the final RAM digests must match.
//!
//! Two drive modes: [`run_diff`] exercises the real run loops
//! (IRQ delivery, device polling, batching, block compilation and
//! invalidation — where loop-boundary bugs live) in odd-sized chunks;
//! [`step_diff`] single-steps all machines and compares after every
//! instruction, which localises a divergence to the exact instruction
//! that caused it.

use crate::gen::{setup_rules, words_to_bytes, CaseSetup};
use sp_emu::devices::Timer;
use sp_emu::{EngineKind, Event, Machine, MachineConfig};

/// RAM size for fuzz machines: big enough for any generated address
/// drawn from `[0, 2^17)`, small enough that per-case construction and
/// RAM digests stay cheap across a 10,000-case campaign.
pub const FUZZ_RAM: u32 = 1 << 17;

/// MMIO base the optional case timer is mapped at.
pub const TIMER_BASE: u32 = 0xf000_0000;

/// The lockstep participants, reference first: every comparison is
/// against `ENGINES[0]` (legacy).
pub const ENGINES: [EngineKind; 2] = [EngineKind::Legacy, EngineKind::Translated];

/// Builds one machine of a differential set.
pub fn build_machine(setup: &CaseSetup, engine: EngineKind) -> Machine {
    let mut m = Machine::new(MachineConfig {
        ram_size: FUZZ_RAM,
        engine,
        hw_context_save: setup.hw_context_save,
        ..MachineConfig::default()
    });
    let bytes = words_to_bytes(&setup.words);
    m.load_image(setup.origin, &bytes)
        .expect("generated program fits in fuzz RAM");
    m.set_regs(setup.regs);
    m.set_eflags(setup.eflags);
    if setup.idt_base != 0 {
        m.set_idt_base(setup.idt_base);
    }
    for &(vector, handler) in &setup.idt_entries {
        // A hostile IDT (off-bus slots) is part of the input space.
        let _ = m.set_idt_entry(vector, handler);
    }
    for rule in setup_rules(setup) {
        // Conflicting rules are rejected identically on all machines.
        let _ = m.mpu_mut().configure(rule);
    }
    m.set_mpu_enabled(setup.mpu_enabled);
    if let Some((interval, vector)) = setup.timer {
        let h = m.add_device(Box::new(Timer::new(TIMER_BASE, vector)));
        m.device_mut::<Timer>(h)
            .expect("timer just added")
            .configure(interval, true);
    }
    for &v in &setup.prior_irqs {
        m.raise_irq(v);
    }
    m.set_eip(setup.origin);
    m.mpu_mut().set_decision_log_enabled(true);
    m
}

/// Builds the full lockstep set, one machine per engine in [`ENGINES`]
/// order (legacy reference first).
pub fn build_machines(setup: &CaseSetup) -> Vec<Machine> {
    ENGINES.map(|engine| build_machine(setup, engine)).into()
}

/// Compares every non-reference machine's state against the reference
/// (`machines[0]`), consuming all decision logs. The reference log is
/// taken once up front (taking drains), so every participant is held
/// against the same record sequence.
pub fn compare_all(at: &str, machines: &[Machine]) -> Result<(), String> {
    let (legacy, rest) = machines.split_first().expect("at least the reference");
    let sl = legacy.snapshot();
    let dl = legacy.mpu().take_decision_log();
    for m in rest {
        let engine = m.engine();
        let sm = m.snapshot();
        if sm != sl {
            return Err(format!(
                "state divergence at {at}:\n  {engine:?}: {sm:?}\n  legacy: {sl:?}"
            ));
        }
        let dm = m.mpu().take_decision_log();
        if dm != dl {
            let i = dm.iter().zip(&dl).take_while(|(a, b)| a == b).count();
            return Err(format!(
                "EA-MPU decision divergence at {at}: {} vs {} records, first mismatch at {i}: \
                 {engine:?} {:?} vs legacy {:?}",
                dm.len(),
                dl.len(),
                dm.get(i),
                dl.get(i),
            ));
        }
    }
    Ok(())
}

fn compare_ram(machines: &[Machine]) -> Result<(), String> {
    let digest = machines[0].ram_digest();
    for m in &machines[1..] {
        if m.ram_digest() != digest {
            return Err(format!(
                "RAM digest divergence at end of case ({:?} vs legacy)",
                m.engine()
            ));
        }
    }
    Ok(())
}

/// Drives the set through their *run loops* in identical chunks,
/// comparing events, state, and EA-MPU decisions at every boundary and
/// RAM at the end.
pub fn run_diff(setup: &CaseSetup) -> Result<(), String> {
    let mut machines = build_machines(setup);
    let start = machines[0].cycles();
    let mut boundary = 0u64;
    loop {
        let spent = machines[0].cycles() - start;
        if spent >= setup.budget {
            break;
        }
        let chunk = setup.chunk.min(setup.budget - spent);
        let el = machines[0].run(chunk);
        for m in machines.iter_mut().skip(1) {
            let e = m.run(chunk);
            if e != el {
                return Err(format!(
                    "event divergence at chunk {boundary}: {:?} {e:?} vs legacy {el:?}",
                    m.engine()
                ));
            }
        }
        compare_all(&format!("chunk {boundary}"), &machines)?;
        boundary += 1;
        if let Event::Fault(_) | Event::FirmwareTrap { .. } = el {
            // Faults charge nothing (the clock cannot advance past them)
            // and no firmware is registered to service traps.
            break;
        }
    }
    compare_ram(&machines)
}

/// Single-steps the set, comparing after every instruction. Stops at
/// the first fault or halt (no run loop means no IRQ delivery to wake
/// a halted core).
pub fn step_diff(setup: &CaseSetup, max_steps: u64) -> Result<(), String> {
    let mut machines = build_machines(setup);
    for step in 0..max_steps {
        let rl = machines[0].step();
        for m in machines.iter_mut().skip(1) {
            let r = m.step();
            if r != rl {
                return Err(format!(
                    "step result divergence at instruction {step}: {:?} {r:?} vs legacy {rl:?}",
                    m.engine()
                ));
            }
        }
        compare_all(&format!("instruction {step}"), &machines)?;
        if rl.is_err() || machines[0].is_halted() {
            break;
        }
    }
    compare_ram(&machines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_setup;
    use crate::rng::FuzzRng;

    #[test]
    fn random_setups_run_identically_on_all_engines() {
        for seed in 0..200 {
            let setup = gen_setup(&mut FuzzRng::new(seed));
            run_diff(&setup).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn random_setups_step_identically_on_all_engines() {
        for seed in 1_000..1_200 {
            let setup = gen_setup(&mut FuzzRng::new(seed));
            step_diff(&setup, 2_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn self_modifying_code_stays_coherent_across_the_set() {
        // A program that overwrites its own next instruction: the
        // translation cache must see the write.
        // `movi r0, <addr of target>; movi r1, <hlt word>; stw [r0], r1;
        // target: jmp target` becomes `... hlt`.
        let origin = 0x1000u32;
        let mut words = Vec::new();
        sp32::encode(
            &sp32::Instr::MovImm {
                rd: sp32::Reg::R0,
                imm: origin + 6 * 4,
            },
            &mut words,
        );
        sp32::encode(
            &sp32::Instr::MovImm {
                rd: sp32::Reg::R1,
                imm: {
                    let mut w = Vec::new();
                    sp32::encode(&sp32::Instr::Hlt, &mut w);
                    w[0]
                },
            },
            &mut words,
        );
        sp32::encode(
            &sp32::Instr::Stw {
                rd: sp32::Reg::R0,
                rs: sp32::Reg::R1,
                disp: 0,
            },
            &mut words,
        );
        sp32::encode(&sp32::Instr::Nop, &mut words);
        sp32::encode(
            &sp32::Instr::Jmp {
                target: origin + 6 * 4,
            },
            &mut words,
        );
        assert_eq!(words.len(), 8, "layout: the jmp sits at word 6");
        let setup = CaseSetup {
            origin,
            words,
            regs: [0; 8],
            eflags: 0,
            idt_base: 0,
            idt_entries: vec![],
            mpu_rules: vec![],
            mpu_enabled: false,
            timer: None,
            prior_irqs: vec![],
            hw_context_save: false,
            budget: 1_000,
            chunk: 97,
        };
        run_diff(&setup).expect("self-modifying case");
        step_diff(&setup, 100).expect("self-modifying case, stepped");
        // And the rewritten instruction must actually have executed, on
        // every engine.
        for engine in ENGINES {
            let mut m = build_machine(&setup, engine);
            m.run(1_000);
            assert!(m.is_halted(), "{engine:?}: stored HLT not executed");
        }
    }
}
