//! The differential oracle: every execution engine vs the legacy
//! interpreter in lockstep.
//!
//! One machine per [`PARTICIPANTS`] entry is built bit-identically from
//! a [`CaseSetup`] — same program, registers, IDT, EA-MPU rules,
//! devices, pending IRQs — differing only in the engine and in whether
//! the EA-MPU decision log is on. The block translator's contract is
//! total invisibility (EA-MPU decision cache, event-driven run loop,
//! block translation cache — all guest-transparent), so *any*
//! observable difference from the legacy reference is a bug:
//!
//! - run-loop events ([`Event`]), faults included, must match at every
//!   chunk boundary,
//! - [`Machine::snapshot`] (registers, EIP, flags, clock, stats,
//!   pending IRQs) must match at every boundary,
//! - the EA-MPU decision logs (query + decision, including rule slots)
//!   of the logged participants must be byte-identical,
//! - the control-flow monitors over the program's text must hold the
//!   same edge log,
//! - the RAM digests must match at the end of every pass.
//!
//! Two drive modes: [`run_diff`] exercises the real run loops
//! (IRQ delivery, device polling, batching, block compilation and
//! invalidation — where loop-boundary bugs live) in odd-sized chunks,
//! over several passes of the case (see [`run_lockstep`]); [`step_diff`]
//! single-steps all machines and compares after every instruction,
//! which localises a divergence to the exact instruction that caused
//! it.

use crate::gen::{setup_rules, words_to_bytes, CaseSetup};
use eampu::Region;
use sp_emu::devices::Timer;
use sp_emu::{CfMonitor, EngineKind, Event, Machine, MachineConfig};

/// RAM size for fuzz machines: big enough for any generated address
/// drawn from `[0, 2^17)`, small enough that per-case construction and
/// RAM digests stay cheap across a 10,000-case campaign.
pub const FUZZ_RAM: u32 = 1 << 17;

/// MMIO base the optional case timer is mapped at.
pub const TIMER_BASE: u32 = 0xf000_0000;

/// The engines under test, reference first.
pub const ENGINES: [EngineKind; 2] = [EngineKind::Legacy, EngineKind::Translated];

/// The lockstep participants, reference first: every comparison is
/// against `PARTICIPANTS[0]` (legacy). Each is an engine and whether its
/// EA-MPU decision log is on. A logged translator compiles every check
/// as observed, so the unlogged one is the only participant that runs
/// the quiet paths compiled: unchecked transfer edges, unchecked
/// accesses, and memoised access windows.
pub const PARTICIPANTS: [(EngineKind, bool); 3] = [
    (EngineKind::Legacy, true),
    (EngineKind::Translated, true),
    (EngineKind::Translated, false),
];

/// Builds one machine of a differential set, with its EA-MPU decision
/// log on when `logged`.
pub fn build_machine(setup: &CaseSetup, engine: EngineKind, logged: bool) -> Machine {
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
    m.mpu_mut().set_decision_log_enabled(logged);
    let text = (setup.words.len() as u32 * 4).max(4);
    m.attach_cf_monitor(Region::new(setup.origin, text));
    m
}

/// Builds the full lockstep set, one machine per entry of
/// [`PARTICIPANTS`], in that order (legacy reference first).
pub fn build_machines(setup: &CaseSetup) -> Vec<Machine> {
    PARTICIPANTS
        .map(|(engine, logged)| build_machine(setup, engine, logged))
        .into()
}

/// Names a participant in failure messages.
fn label(m: &Machine) -> String {
    let unlogged = if m.mpu().log_enabled() {
        ""
    } else {
        " (unlogged)"
    };
    format!("{:?}{unlogged}", m.engine())
}

/// Compares every non-reference machine's state against the reference
/// (`machines[0]`), consuming all decision logs. The reference log is
/// taken once up front (taking drains), so every logged participant is
/// held against the same record sequence.
pub fn compare_all(at: &str, machines: &[Machine]) -> Result<(), String> {
    let (legacy, rest) = machines.split_first().expect("at least the reference");
    let sl = legacy.snapshot();
    let dl = legacy.mpu().take_decision_log();
    for m in rest {
        let engine = label(m);
        let sm = m.snapshot();
        if sm != sl {
            return Err(format!(
                "state divergence at {at}:\n  {engine}: {sm:?}\n  legacy: {sl:?}"
            ));
        }
        let (cm, cl) = (m.cf_monitor(), legacy.cf_monitor());
        let log = |c: Option<&CfMonitor>| c.map(|c| (c.runs().to_vec(), c.truncated()));
        if log(cm) != log(cl) {
            return Err(format!(
                "control-flow log divergence at {at}:\n  {engine}: {:?}\n  legacy: {:?}",
                log(cm),
                log(cl)
            ));
        }
        if !m.mpu().log_enabled() {
            continue;
        }
        let dm = m.mpu().take_decision_log();
        if dm != dl {
            let i = dm.iter().zip(&dl).take_while(|(a, b)| a == b).count();
            return Err(format!(
                "EA-MPU decision divergence at {at}: {} vs {} records, first mismatch at {i}: \
                 {engine} {:?} vs legacy {:?}",
                dm.len(),
                dl.len(),
                dm.get(i),
                dl.get(i),
            ));
        }
    }
    Ok(())
}

fn compare_ram(at: &str, machines: &[Machine]) -> Result<(), String> {
    let digest = machines[0].ram_digest();
    for m in &machines[1..] {
        if m.ram_digest() != digest {
            return Err(format!(
                "RAM digest divergence at {at} ({} vs legacy)",
                label(m)
            ));
        }
    }
    Ok(())
}

/// How often [`run_lockstep`] runs a case. The translator interprets an
/// entry on its first arrival and compiles it on its second, and a
/// generated case seldom loops, so the first pass runs mostly
/// interpreted; the second compiles the entries the first reached and
/// runs them straight after compiling; the third runs those blocks from
/// the cache, with the access windows the second pass memoised. Only a
/// transfer, a block end, an interrupt or a run entry marks an entry,
/// so a resume point inside interpreted code (an IRQ return, a chunk
/// boundary) compiles only once such an arrival has reached it twice,
/// and those points move with the clock from pass to pass: the later
/// passes compile and run them, which keeps the budgeted block loop and
/// its device-deadline and SMC breaks under test in the interrupt-heavy
/// scenarios.
pub const PASSES: u32 = 6;

/// Drives a fresh lockstep set through [`run_lockstep`] with nothing
/// injected.
pub fn run_diff(setup: &CaseSetup) -> Result<(), String> {
    run_lockstep(setup, &mut build_machines(setup), |_| {})
}

/// Drives `machines`, a lockstep set built from `setup`, through their
/// *run loops* in identical chunks, comparing events, state and EA-MPU
/// decisions at every boundary and RAM at the end of each pass. After
/// each boundary `inject` may mutate the set; it must apply the *same*
/// mutation to every machine.
///
/// The case runs [`PASSES`] times on the same machines, each pass from
/// the case's initial state (see `rewind`).
pub fn run_lockstep(
    setup: &CaseSetup,
    machines: &mut [Machine],
    mut inject: impl FnMut(&mut [Machine]),
) -> Result<(), String> {
    let initial = machines[0]
        .read_bytes(0, FUZZ_RAM)
        .expect("fuzz RAM is readable");
    for pass in 0..PASSES {
        if pass > 0 {
            for m in machines.iter_mut() {
                rewind(setup, m, &initial);
            }
        }
        run_pass(setup, machines, pass, &mut inject)?;
    }
    Ok(())
}

/// One pass of [`run_lockstep`]: `setup.budget` cycles in `setup.chunk`
/// slices, or up to the first fault or firmware trap.
fn run_pass(
    setup: &CaseSetup,
    machines: &mut [Machine],
    pass: u32,
    inject: &mut impl FnMut(&mut [Machine]),
) -> Result<(), String> {
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
                    "event divergence at pass {pass} chunk {boundary}: {} {e:?} vs legacy {el:?}",
                    label(m)
                ));
            }
        }
        compare_all(&format!("pass {pass} chunk {boundary}"), machines)?;
        if let Event::Fault(_) | Event::FirmwareTrap { .. } = el {
            // Faults charge nothing (the clock cannot advance past them)
            // and no firmware is registered to service traps.
            break;
        }
        inject(machines);
        boundary += 1;
    }
    compare_ram(&format!("end of pass {pass}"), machines)
}

/// Puts `m` back at `setup`'s initial state for another pass: registers,
/// flags, the prior IRQs, EIP at the origin (un-halting the core), and
/// every RAM word that differs from `initial`. The clock, statistics,
/// devices and translation cache carry on. Only changed words are
/// written, because a write over compiled code counts as
/// self-modifying and hands those words to the interpreter; rewriting
/// the whole image would keep the pass from running compiled.
fn rewind(setup: &CaseSetup, m: &mut Machine, initial: &[u8]) {
    let now = m.read_bytes(0, FUZZ_RAM).expect("fuzz RAM is readable");
    let words = initial.chunks_exact(4).zip(now.chunks_exact(4));
    for (index, (was, is)) in words.enumerate() {
        if was != is {
            let word = u32::from_le_bytes(was.try_into().expect("4 bytes"));
            m.write_word(index as u32 * 4, word)
                .expect("inside fuzz RAM");
        }
    }
    m.set_regs(setup.regs);
    m.set_eflags(setup.eflags);
    for &v in &setup.prior_irqs {
        m.raise_irq(v);
    }
    m.set_eip(setup.origin);
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
                    "step result divergence at instruction {step}: {} {r:?} vs legacy {rl:?}",
                    label(m)
                ));
            }
        }
        compare_all(&format!("instruction {step}"), &machines)?;
        if rl.is_err() || machines[0].is_halted() {
            break;
        }
    }
    compare_ram("end of case", &machines)
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
            let mut m = build_machine(&setup, engine, true);
            m.run(1_000);
            assert!(m.is_halted(), "{engine:?}: stored HLT not executed");
        }
    }
}
