//! Differential tests: the block translator must be invisible to the
//! model.
//!
//! Each lockstep test builds identically-configured machines — the
//! `Legacy` reference (the verbatim per-instruction loop) and the
//! block translator both bare and traced — runs them through the same
//! budget slices, and asserts bit-identical observable state after every
//! slice: clock, `EIP`, registers, `EFLAGS`, halt state, and statistics.
//!
//! The remaining tests pin the cache-invalidation edges: a guest store
//! into its own compiled code, a guest overwriting a hot loop the
//! translator has compiled, a loader-style `write_bytes` rewriting
//! cached text, breakpoint (firmware trap) add/remove mid-run, EA-MPU
//! rule mutation between two identical accesses, and an EA-MPU window
//! reconfiguration between two executions of the same translated block.

use eampu::{Perms, Region, Rule};
use sp32::asm::assemble;
use sp32::Reg;
use sp_emu::devices::{Sensor, Timer};
use sp_emu::{
    CycleObserver, EngineKind, Event, Fault, Machine, MachineConfig, MachineStats, OUT_OF_REGION,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use tytan_trace::{RingRecorder, Tracer};

const ALL_ENGINES: [EngineKind; 2] = [EngineKind::Legacy, EngineKind::Translated];

fn config(engine: EngineKind) -> MachineConfig {
    MachineConfig {
        engine,
        ..MachineConfig::default()
    }
}

type Snapshot = (u64, u32, [u32; 8], u32, bool, MachineStats);

fn snapshot(m: &Machine) -> Snapshot {
    (
        m.cycles(),
        m.eip(),
        m.regs(),
        m.eflags(),
        m.is_halted(),
        m.stats(),
    )
}

/// Names a lockstep participant for failure messages.
fn label(m: &Machine) -> String {
    let traced = if m.tracer().is_some() {
        " (traced)"
    } else {
        ""
    };
    format!("{:?}{traced}", m.engine())
}

/// Runs the same setup on the legacy reference and on two translated
/// machines, then executes `chunks` budget slices of `budget` cycles
/// each, asserting identical events and machine state after every slice.
///
/// One translated machine runs bare (the lean block loop), the other
/// with an event recorder attached (the instrumented block loop), so
/// every lockstep test also proves the tracing layer cycle-neutral: if
/// recording an event or bumping a counter ever touched the model, these
/// snapshots would diverge.
fn lockstep(setup: impl Fn(&mut Machine), chunks: usize, budget: u64) {
    lockstep_with(setup, chunks, budget, false);
}

/// Sums the cycle-observer callbacks: idle cycles apart, all classes
/// together.
#[derive(Default)]
struct Tally {
    idle: AtomicU64,
    total: AtomicU64,
}

impl CycleObserver for Tally {
    fn instruction(&self, _eip: u32, cycles: u64) {
        self.total.fetch_add(cycles, Relaxed);
    }
    fn dispatch(&self, _vector: u8, cycles: u64) {
        self.total.fetch_add(cycles, Relaxed);
    }
    fn firmware(&self, _eip: u32, cycles: u64) {
        self.total.fetch_add(cycles, Relaxed);
    }
    fn idle(&self, cycles: u64) {
        self.idle.fetch_add(cycles, Relaxed);
        self.total.fetch_add(cycles, Relaxed);
    }
}

/// [`lockstep`], and with `observe` a [`Tally`] on every machine: after
/// each slice the idle tallies must also agree, and every machine's
/// tally must account for its whole clock.
fn lockstep_with(setup: impl Fn(&mut Machine), chunks: usize, budget: u64, observe: bool) {
    let mut legacy = Machine::new(config(EngineKind::Legacy));
    let mut traced = Machine::new(config(EngineKind::Translated));
    traced.attach_tracer(Tracer::new(Arc::new(RingRecorder::new(4096))));
    let mut others = vec![Machine::new(config(EngineKind::Translated)), traced];
    setup(&mut legacy);
    for m in &mut others {
        setup(m);
    }
    let tallies: Vec<Arc<Tally>> = if observe {
        std::iter::once(&mut legacy)
            .chain(&mut others)
            .map(|m| {
                let tally = Arc::new(Tally::default());
                m.attach_cycle_observer(tally.clone());
                tally
            })
            .collect()
    } else {
        Vec::new()
    };
    for i in 0..chunks {
        let el = legacy.run(budget);
        for m in &mut others {
            let e = m.run(budget);
            let engine = label(m);
            assert_eq!(e, el, "{engine}: event diverged at slice {i}");
            assert_eq!(
                snapshot(m),
                snapshot(&legacy),
                "{engine}: state diverged at slice {i}"
            );
        }
        if let Some((reference, rest)) = tallies.split_first() {
            let idle = reference.idle.load(Relaxed);
            assert_eq!(reference.total.load(Relaxed), legacy.cycles());
            for (tally, m) in rest.iter().zip(&others) {
                let engine = label(m);
                assert_eq!(
                    tally.idle.load(Relaxed),
                    idle,
                    "{engine}: idle tally diverged at slice {i}"
                );
                assert_eq!(tally.total.load(Relaxed), m.cycles(), "{engine}");
            }
        }
    }
}

#[test]
fn lockstep_plain_compute_loop() {
    lockstep(
        |m| {
            let program = assemble(
                "main:\n movi r1, 0x9000\n movi r2, 0\n\
                 loop:\n ldw r3, [r1]\n add r3, r2\n stw [r1], r3\n addi r2, 1\n jmp loop\n",
                0x1000,
            )
            .unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
        },
        32,
        997,
    );
}

#[test]
fn lockstep_timer_interrupts() {
    lockstep(
        |m| {
            let program = assemble(
                "main:\n sti\nloop:\n addi r2, 1\n jmp loop\n\
                 handler:\n addi r3, 1\n iret\n",
                0x1000,
            )
            .unwrap();
            let handler = program.symbol("handler").unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
            m.set_reg(Reg::R7, 0x8000);
            m.set_idt_base(0x40);
            m.set_idt_entry(32, handler).unwrap();
            let timer = m.add_device(Box::new(Timer::new(0xf000_0000, 32)));
            m.device_mut::<Timer>(timer).unwrap().configure(197, true);
        },
        64,
        1_003,
    );
}

#[test]
fn lockstep_sensor_threshold_and_halt() {
    lockstep(
        |m| {
            let program = assemble(
                "main:\n sti\nloop:\n addi r2, 1\n jmp loop\n\
                 handler:\n addi r3, 1\n hlt\n iret\n",
                0x1000,
            )
            .unwrap();
            let handler = program.symbol("handler").unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
            m.set_reg(Reg::R7, 0x8000);
            m.set_idt_base(0x40);
            m.set_idt_entry(33, handler).unwrap();
            let sensor = m.add_device(Box::new(Sensor::new(0xf000_0110, 10)));
            let sensor = m.device_mut::<Sensor>(sensor).unwrap();
            sensor.set_threshold_irq(500, 33);
            sensor.set_trace(vec![(2_500, 900), (5_000, 100), (7_500, 900)]);
        },
        24,
        1_009,
    );
}

/// A core that halts between timer IRQs: the idle loop the fleet's
/// provisioned devices sit in. The period (1,001) is not a multiple of
/// the 8-cycle idle step, so each wake-up lands mid-step, and the odd
/// budgets end slices both inside one step (7) and across several
/// wake-ups (1,003).
fn halting_between_timer_irqs(m: &mut Machine) {
    let program = assemble(
        "main:\n sti\nidle:\n hlt\n jmp idle\n\
         handler:\n addi r3, 1\n iret\n",
        0x1000,
    )
    .unwrap();
    let handler = program.symbol("handler").unwrap();
    m.load_image(0x1000, &program.bytes).unwrap();
    m.set_eip(0x1000);
    m.set_reg(Reg::R7, 0x8000);
    m.set_idt_base(0x40);
    m.set_idt_entry(32, handler).unwrap();
    let timer = m.add_device(Box::new(Timer::new(0xf000_0000, 32)));
    m.device_mut::<Timer>(timer).unwrap().configure(1_001, true);
}

/// A core that halts with IF clear: the timer keeps latching its IRQ,
/// but nothing is ever delivered, so the core never wakes.
fn halting_with_interrupts_masked(m: &mut Machine) {
    let program = assemble("main:\n cli\n hlt\n", 0x1000).unwrap();
    m.load_image(0x1000, &program.bytes).unwrap();
    m.set_eip(0x1000);
    let timer = m.add_device(Box::new(Timer::new(0xf000_0000, 32)));
    m.device_mut::<Timer>(timer).unwrap().configure(197, true);
}

#[test]
fn lockstep_halt_between_timer_interrupts() {
    for observe in [false, true] {
        lockstep_with(halting_between_timer_irqs, 700, 7, observe);
        lockstep_with(halting_between_timer_irqs, 48, 1_003, observe);
    }
    let mut m = Machine::new(config(EngineKind::Translated));
    halting_between_timer_irqs(&mut m);
    m.run(48 * 1_003);
    assert!(m.is_halted());
    assert_eq!(m.reg(Reg::R3), 48, "one wake-up per timer period");
}

#[test]
fn lockstep_halt_with_interrupts_masked_never_wakes() {
    for observe in [false, true] {
        lockstep_with(halting_with_interrupts_masked, 300, 7, observe);
        lockstep_with(halting_with_interrupts_masked, 24, 1_003, observe);
    }
    for engine in ALL_ENGINES {
        let mut m = Machine::new(config(engine));
        halting_with_interrupts_masked(&mut m);
        for _ in 0..10 {
            assert_eq!(m.run(1_003), Event::IdleBudgetExhausted, "{engine:?}");
        }
        assert!(m.is_halted(), "{engine:?}");
        assert_eq!(m.stats().interrupts, 0, "{engine:?}");
    }
}

#[test]
fn lockstep_mpu_enforced_loop() {
    // The mpu_on bench shape: enforcement on, empty rule table. This is
    // the configuration the translator specialises hardest (statically
    // allowed, unobserved edges compile to nothing on the untraced
    // side, to replays on the traced side), so pin it in lockstep.
    lockstep(
        |m| {
            let program = assemble(
                "main:\n movi r1, 0x9000\n movi r2, 0\n\
                 loop:\n ldw r3, [r1]\n add r3, r2\n stw [r1], r3\n addi r2, 1\n jmp loop\n",
                0x1000,
            )
            .unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
            m.set_mpu_enabled(true);
        },
        32,
        997,
    );
}

#[test]
fn lockstep_self_modifying_code() {
    // The loop patches its own `addi r4, 1` to `addi r4, 2` on the first
    // iteration; the translation cache must observe the store.
    let patched = assemble("addi r4, 2\n", 0).unwrap();
    let word = u32::from_le_bytes(patched.bytes[0..4].try_into().unwrap());
    let source = format!(
        "main:\n movi r1, target\n movi r2, {word:#010x}\n movi r3, 0\n\
         loop:\ntarget:\n addi r4, 1\n stw [r1], r2\n addi r3, 1\n cmpi r3, 10\n jnz loop\n hlt\n"
    );
    lockstep(
        |m| {
            let program = assemble(&source, 0x1000).unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
        },
        16,
        211,
    );

    // Functional check on each engine alone: ten iterations, the first
    // at the old encoding (+1), the next nine patched (+2).
    for engine in ALL_ENGINES {
        let mut m = Machine::new(config(engine));
        let program = assemble(&source, 0x1000).unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
        m.run(100_000);
        assert!(m.is_halted());
        assert_eq!(
            m.reg(Reg::R4),
            1 + 9 * 2,
            "{engine:?}: stale cached instruction executed"
        );
    }
}

#[test]
fn hot_loop_overwrite_invalidates_translated_block() {
    // A hot spin loop runs long enough for the translator to compile and
    // repeatedly hit its block, then the guest overwrites the loop's own
    // branch with `hlt`. Both engines must observe the rewrite at
    // the same cycle, and the translated engine must account for it as
    // an SMC invalidation.
    let hlt = assemble("hlt\n", 0).unwrap();
    let hlt_word = u32::from_le_bytes(hlt.bytes[0..4].try_into().unwrap());
    let source = format!(
        "main:\n movi r1, patch\n movi r2, {hlt_word:#010x}\n movi r3, 0\n\
         loop:\n addi r3, 1\n cmpi r3, 4000\n jnz loop\n\
         stw [r1], r2\n\
         patch:\n jmp loop\n"
    );
    lockstep(
        |m| {
            let program = assemble(&source, 0x1000).unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
        },
        24,
        1_013,
    );

    // Counter check on a traced translated machine: the hot loop block
    // was hit, and the store into it was booked as an SMC invalidation.
    let mut m = Machine::new(config(EngineKind::Translated));
    let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
    m.attach_tracer(tracer.clone());
    let program = assemble(&source, 0x1000).unwrap();
    m.load_image(0x1000, &program.bytes).unwrap();
    m.set_eip(0x1000);
    m.run(200_000);
    assert!(m.is_halted(), "patched hlt never executed");
    let c = tracer.counters();
    assert!(c.get("emu_block_compile").unwrap_or(0) > 0);
    assert!(c.get("emu_block_hit").unwrap_or(0) > 100, "loop not hot");
    assert!(
        c.get("emu_block_invalidate_smc").unwrap_or(0) > 0,
        "store into compiled code not booked as SMC invalidation"
    );
}

#[test]
fn mpu_reconfiguration_invalidates_translated_block() {
    // The same block executes twice with an EA-MPU window reconfiguration
    // in between: address 0x9000 stays protected throughout by a foreign
    // task's rule (slot 0), and the probe's own rule (slot 1) initially
    // grants it. Between the two executions the probe's data window moves
    // away, so the identical access by the identical block must now
    // fault. Cycle-identical across both engines, and the translated
    // engine must drop its compiled blocks at the reconfiguration
    // (counted as an MPU invalidation) rather than replay the stale
    // decision.
    let source = "main:\n movi r1, 0x9000\n\
                  loop:\n ldw r3, [r1]\n addi r2, 1\n jmp loop\n";
    let build = |engine: EngineKind| {
        let mut m = Machine::new(config(engine));
        let program = assemble(source, 0x1000).unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
        m.set_mpu_enabled(true);
        m.mpu_mut().set_rule(
            0,
            Rule::new(
                Region::new(0x2000, 0x100),
                0x2000,
                Region::new(0x9000, 0x100),
                Perms::RW,
            ),
        );
        m.mpu_mut().set_rule(
            1,
            Rule::new(
                Region::new(0x1000, 0x100),
                0x1000,
                Region::new(0x9000, 0x100),
                Perms::RW,
            ),
        );
        m
    };

    let mut machines: Vec<Machine> = ALL_ENGINES.into_iter().map(build).collect();
    let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
    machines[1].attach_tracer(tracer.clone());

    let mut reference: Option<(Event, Snapshot, Event, Snapshot)> = None;
    for m in &mut machines {
        let engine = m.engine();
        // First execution: the block's probe read is allowed.
        let e1 = m.run(1_000);
        assert_eq!(e1, Event::BudgetExhausted, "{engine:?}: probe faulted");
        let s1 = snapshot(m);
        // Move the probe's data window away from 0x9000 (which stays
        // protected by slot 0): the very same block must now fault on
        // its first load.
        m.mpu_mut().set_rule(
            1,
            Rule::new(
                Region::new(0x1000, 0x100),
                0x1000,
                Region::new(0xa000, 0x100),
                Perms::RW,
            ),
        );
        let e2 = m.run(1_000);
        assert!(
            matches!(e2, Event::Fault(Fault::MpuAccess { addr: 0x9000, .. })),
            "{engine:?}: stale MPU decision survived reconfiguration: {e2:?}"
        );
        let s2 = snapshot(m);
        match &reference {
            None => reference = Some((e1, s1, e2, s2)),
            Some((r1, rs1, r2, rs2)) => {
                assert_eq!((&e1, &s1), (r1, rs1), "{engine:?}: diverged before");
                assert_eq!((&e2, &s2), (r2, rs2), "{engine:?}: diverged after");
            }
        }
    }
    assert!(
        tracer
            .counters()
            .get("emu_block_invalidate_mpu")
            .unwrap_or(0)
            > 0,
        "reconfiguration did not invalidate compiled blocks"
    );
}

#[test]
fn write_bytes_rewrite_invalidates_cached_text() {
    // The loader's relocation pass rewrites already-copied text with
    // `write_bytes`; a compiled copy of the old bytes must not survive.
    for engine in ALL_ENGINES {
        let mut m = Machine::new(config(engine));
        let before = assemble("main:\n movi r0, 1\n jmp main\n", 0x1000).unwrap();
        m.load_image(0x1000, &before.bytes).unwrap();
        m.set_eip(0x1000);
        m.run(500);
        assert_eq!(m.reg(Reg::R0), 1);

        let after = assemble("main:\n movi r0, 2\n jmp main\n", 0x1000).unwrap();
        m.write_bytes(0x1000, &after.bytes).unwrap();
        m.run(500);
        assert_eq!(
            m.reg(Reg::R0),
            2,
            "{engine:?}: cache served stale text after write_bytes"
        );
    }
}

#[test]
fn breakpoint_add_remove_mid_run_matches_legacy() {
    // A debugger-style firmware trap set and cleared between run slices
    // must fire identically on both engines (the trap bitset and sorted
    // array are updated in place; the translator stops blocks before
    // trap addresses and recompiles when the trap set changes).
    let build = |engine: EngineKind| {
        let mut m = Machine::new(config(engine));
        let program = assemble(
            "main:\n movi r2, 0\nloop:\n addi r2, 1\nprobe:\n addi r3, 1\n jmp loop\n",
            0x1000,
        )
        .unwrap();
        let probe = program.symbol("probe").unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
        (m, probe)
    };
    let mut machines: Vec<(Machine, u32)> = ALL_ENGINES.into_iter().map(build).collect();

    for (m, probe) in &mut machines {
        let probe = *probe;
        assert_eq!(m.run(300), Event::BudgetExhausted);
        m.add_firmware_trap(probe);
        assert_eq!(m.run(10_000), Event::FirmwareTrap { addr: probe });
        m.step().unwrap(); // step past the trap address
        assert_eq!(m.run(10_000), Event::FirmwareTrap { addr: probe });
        m.remove_firmware_trap(probe);
        assert_eq!(m.run(300), Event::BudgetExhausted);
    }
    let reference = snapshot(&machines[0].0);
    for (m, _) in &machines[1..] {
        assert_eq!(snapshot(m), reference);
    }
}

#[test]
fn mpu_rule_mutation_between_identical_accesses() {
    // Two identical accesses with a rule-table mutation in between: the
    // decision cache must not replay the first verdict. Address 0x9000 is
    // protected throughout by another task's rule (slot 0), so whether the
    // probe at 0x1000 may read it depends entirely on its own rule (slot 1).
    let mut m = Machine::new(MachineConfig::default());
    m.set_mpu_enabled(true);
    let data = Region::new(0x9000, 0x100);
    m.mpu_mut().set_rule(
        0,
        Rule::new(Region::new(0x2000, 0x100), 0x2000, data, Perms::RW),
    );
    let probe_rule = Rule::new(Region::new(0x1000, 0x100), 0x1000, data, Perms::RW);

    assert!(
        matches!(
            m.checked_read_word(0x1000, 0x9000),
            Err(Fault::MpuAccess { .. })
        ),
        "protected address readable without a rule"
    );
    m.mpu_mut().set_rule(1, probe_rule);
    assert!(
        m.checked_read_word(0x1000, 0x9000).is_ok(),
        "decision cache replayed a denial across a rule add"
    );
    m.mpu_mut().clear_slot(1);
    assert!(
        matches!(
            m.checked_read_word(0x1000, 0x9000),
            Err(Fault::MpuAccess { .. })
        ),
        "decision cache replayed an allow across a rule removal"
    );

    // Same dance through enable/disable: toggling must flush too.
    m.set_mpu_enabled(false);
    assert!(
        m.checked_read_word(0x1000, 0x9000).is_ok(),
        "MPU off: everything allowed"
    );
    m.set_mpu_enabled(true);
    assert!(
        matches!(
            m.checked_read_word(0x1000, 0x9000),
            Err(Fault::MpuAccess { .. })
        ),
        "decision cache survived an MPU enable toggle"
    );
}

#[test]
fn idt_arithmetic_is_checked_at_address_space_edge() {
    // `idt_base + 4 * vector` must not wrap around the address space: a
    // base near the top plus a high vector is a bus fault, not a silent
    // wrap into low RAM (where it would corrupt the zero page).
    let mut edge = Machine::new(MachineConfig::default());
    edge.set_idt_base(0xffff_fff0);
    // 0xffff_fff0 + 4*4 == 2^32: the first wrapping vector.
    assert!(matches!(
        edge.set_idt_entry(4, 0x1234),
        Err(Fault::Bus { .. })
    ));
    assert!(matches!(edge.idt_entry(4), Err(Fault::Bus { .. })));
    assert!(matches!(
        edge.set_idt_entry(255, 0x1234),
        Err(Fault::Bus { .. })
    ));
    assert!(matches!(edge.idt_entry(255), Err(Fault::Bus { .. })));
    // A non-wrapping slot at the very edge computes its address fine (the
    // store still bus-faults — there is no RAM up there — but for the
    // right reason, with the true unwrapped address).
    assert!(matches!(
        edge.set_idt_entry(3, 0x1234),
        Err(Fault::Bus { addr: 0xffff_fffc })
    ));
    // Zero-page guard: had the sum wrapped, vector 4 would have landed at
    // address 0 (the IDT base register is write-once, hence the fresh
    // machine below for the happy path).
    assert_eq!(
        edge.read_word(0x0).unwrap(),
        0,
        "zero page must stay untouched"
    );

    let mut ok = Machine::new(MachineConfig::default());
    ok.set_idt_base(0x40);
    ok.set_idt_entry(4, 0x1234).unwrap();
    assert_eq!(ok.idt_entry(4).unwrap(), 0x1234);
}

#[test]
fn cf_monitor_chains_are_engine_invariant() {
    // The control-flow attestation chain is part of the observable
    // model: the same guest under every engine must record the same
    // taken edges in the same order and fold them to a byte-identical
    // chain head. The guest mixes calls, returns and branches, a tight
    // single-block self-loop, and a call out of the monitored region
    // and back (recorded as OUT_OF_REGION sentinel edges).
    let source = "main:\n movi r2, 0\n\
                  loop:\n call work\n addi r2, 1\n cmpi r2, 50\n jnz loop\n\
                  movi r4, 0\n\
                  spin:\n addi r4, 1\n cmpi r4, 200\n jnz spin\n\
                  call 0x2000\n hlt\n\
                  work:\n addi r3, 1\n ret\n";
    let outside = "addi r5, 1\n ret\n";
    let build = |engine: EngineKind| {
        let mut m = Machine::new(config(engine));
        let program = assemble(source, 0x1000).unwrap();
        assert!(program.bytes.len() <= 0x100, "guest outgrew the region");
        m.load_image(0x1000, &program.bytes).unwrap();
        m.load_image(0x2000, &assemble(outside, 0x2000).unwrap().bytes)
            .unwrap();
        m.set_eip(0x1000);
        m.set_reg(Reg::R7, 0x8000);
        m.attach_cf_monitor(Region::new(0x1000, 0x100));
        m
    };
    // Legacy reference, then the translator bare (lean block loop) and
    // traced (instrumented block loop).
    let mut machines: Vec<Machine> = [
        EngineKind::Legacy,
        EngineKind::Translated,
        EngineKind::Translated,
    ]
    .into_iter()
    .map(build)
    .collect();
    let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
    machines[2].attach_tracer(tracer.clone());
    for m in &mut machines {
        // Uneven slices so the translated engine crosses run boundaries
        // mid-loop: the monitor must not care how the run is sliced.
        for budget in [37, 211, 100_000] {
            m.run(budget);
        }
        assert!(m.is_halted(), "{}: guest never finished", label(m));
        assert_eq!(m.reg(Reg::R5), 1, "{}: outside call skipped", label(m));
    }
    // The translator retired the monitored run through compiled blocks.
    assert!(
        tracer.counters().get("emu_block_hit").unwrap_or(0) > 0,
        "monitored run bypassed the block cache"
    );
    let reference = machines[0].cf_monitor().expect("monitor armed");
    assert!(
        !reference.runs().is_empty(),
        "the call/return loop must record edges"
    );
    assert!(!reference.truncated());
    assert!(
        reference
            .runs()
            .iter()
            .any(|&(_, to, _)| to == OUT_OF_REGION)
            && reference
                .runs()
                .iter()
                .any(|&(from, _, _)| from == OUT_OF_REGION),
        "the outside call must record exit and re-entry sentinels"
    );
    for m in &machines[1..] {
        let monitor = m.cf_monitor().expect("monitor armed");
        let engine = label(m);
        assert_eq!(
            monitor.runs(),
            reference.runs(),
            "{engine}: run-encoded edge log diverged"
        );
        // The exact raw edge streams must agree too — the expansion
        // iterator is the oracle-facing view of the compressed log.
        assert!(
            monitor.expanded().eq(reference.expanded()),
            "{engine}: expanded edge stream diverged"
        );
        assert_eq!(
            monitor.chain_head(),
            reference.chain_head(),
            "{engine}: chain head diverged"
        );
    }
    // And the machines themselves stayed in lockstep with the monitor
    // attached — monitoring is not allowed to perturb execution.
    let s0 = snapshot(&machines[0]);
    for m in &machines[1..] {
        assert_eq!(snapshot(m), s0, "{}: state diverged", label(m));
    }
}
