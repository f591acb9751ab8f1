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
//!
//! The `block_budget_*` tests slice runs at every residue of a block's
//! worst-case charge, so the translator's budgeted and exact block
//! loops both stop, fault and break the batch at every op of a block.

use eampu::{AccessKind, EaMpu, Perms, Region, Rule};
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
/// One translated machine runs bare (the budgeted block loop where a
/// pass cannot reach the budget), the other with an event recorder
/// attached (the exact block loop throughout), so
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

/// A task walking `r1` word by word from its own data (0x9000, granted
/// by its rule in slot 0) through unprotected memory (0x9100) into data
/// that another task's rule protects (0x9180): `body` is the loop's
/// memory access, and the first access at 0x9180 must fault.
fn pointer_walk_into_protected_data(m: &mut Machine, body: &str) {
    let program = assemble(
        &format!("main:\n movi r1, 0x9000\nloop:\n{body} addi r1, 4\n jmp loop\n"),
        0x1000,
    )
    .unwrap();
    m.load_image(0x1000, &program.bytes).unwrap();
    m.set_eip(0x1000);
    m.set_mpu_enabled(true);
    m.mpu_mut().set_rule(
        0,
        Rule::new(
            Region::new(0x1000, 0x100),
            0x1000,
            Region::new(0x9000, 0x100),
            Perms::RW,
        ),
    );
    m.mpu_mut().set_rule(
        1,
        Rule::new(
            Region::new(0x2000, 0x100),
            0x2000,
            Region::new(0x9180, 0x80),
            Perms::RW,
        ),
    );
}

#[test]
fn lockstep_pointer_walk_into_protected_data() {
    // Under a rule, compiled loads and stores are checked accesses: the
    // untraced translator memoises each op's allowed window and re-checks
    // only outside it, the traced one checks every access. Walking out
    // of the task's own data, through open memory and into another
    // task's data crosses both window edges; all three machines must
    // fault at the same instruction and cycle.
    let bodies = [
        // Load first: the fault is a read by the `ldw`.
        (
            " ldw r3, [r1]\n addi r3, 1\n stw [r1], r3\n",
            0x1008,
            AccessKind::Read,
        ),
        // Store first: the fault is a write by the `stw`.
        (" stw [r1], r1\n ldw r3, [r1]\n", 0x1008, AccessKind::Write),
    ];
    for (body, eip, kind) in bodies {
        lockstep(|m| pointer_walk_into_protected_data(m, body), 24, 157);
        let mut m = Machine::new(config(EngineKind::Translated));
        pointer_walk_into_protected_data(&mut m, body);
        assert_eq!(
            m.run(100_000),
            Event::Fault(Fault::MpuAccess {
                eip,
                addr: 0x9180,
                kind
            }),
            "{body:?}"
        );
        // The fault lands inside the lockstep slices, after a write to
        // the last open word.
        assert!(m.cycles() < 24 * 157, "{body:?}: fault past the slices");
        assert_ne!(m.read_word(0x917c), Ok(0), "{body:?}: walk stopped early");
    }
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
    // repeatedly hit its blocks, then the guest overwrites the loop's own
    // back-branch — a block of its own, entered on every iteration — with
    // `hlt`. Both engines must observe the rewrite at the same cycle, and
    // the translated engine must account for it as an SMC invalidation.
    let hlt = assemble("hlt\n", 0).unwrap();
    let hlt_word = u32::from_le_bytes(hlt.bytes[0..4].try_into().unwrap());
    let source = format!(
        "main:\n movi r1, patch\n movi r2, {hlt_word:#010x}\n movi r3, 0\n\
         loop:\n addi r3, 1\n cmpi r3, 4000\n jz store\n\
         patch:\n jmp loop\n\
         store:\n stw [r1], r2\n jmp loop\n"
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
fn code_rewritten_before_its_second_entry_compiles_the_new_bytes() {
    // `body` runs once through the interpreter, then the guest copies
    // `addi r3, 100` over its first word and jumps back. The first pass
    // compiled nothing, so the store is no SMC write, and the second
    // entry must compile the bytes as they are now.
    let source = "main:\n movi r5, 0\n jmp body\n\
                  body:\n addi r3, 1\n addi r5, 1\n cmpi r5, 2\n jz done\n\
                  movi r1, body\n movi r6, newcode\n ldw r2, [r6]\n stw [r1], r2\n jmp body\n\
                  done:\n hlt\n\
                  newcode:\n addi r3, 100\n";
    let load = |m: &mut Machine| {
        let program = assemble(source, 0x1000).unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
    };
    lockstep(load, 24, 7);

    for engine in ALL_ENGINES {
        let mut m = Machine::new(config(engine));
        let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
        m.attach_tracer(tracer.clone());
        load(&mut m);
        m.run(10_000);
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::R3), 1 + 100, "{engine:?}: stale bytes ran");
        if engine == EngineKind::Translated {
            // `body` is the only entry reached twice.
            let c = tracer.counters();
            assert_eq!(c.get("emu_block_compile"), Some(1));
            assert_eq!(c.get("emu_block_invalidate_smc"), Some(0));
        }
    }
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
    // decision. The translator runs traced (every access checked) and
    // bare: the bare machine's load memoised an allowed window over
    // 0x9000 before the change, which must not allow it after.
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

    let engines = [
        EngineKind::Legacy,
        EngineKind::Translated,
        EngineKind::Translated,
    ];
    let mut machines: Vec<Machine> = engines.into_iter().map(build).collect();
    let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
    machines[1].attach_tracer(tracer.clone());

    let mut reference: Option<(Event, Snapshot, Event, Snapshot)> = None;
    for m in &mut machines {
        let engine = label(m);
        // First execution: the block's probe read is allowed.
        let e1 = m.run(1_000);
        assert_eq!(e1, Event::BudgetExhausted, "{engine}: probe faulted");
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
            "{engine}: stale MPU decision survived reconfiguration: {e2:?}"
        );
        let s2 = snapshot(m);
        match &reference {
            None => reference = Some((e1, s1, e2, s2)),
            Some((r1, rs1, r2, rs2)) => {
                assert_eq!((&e1, &s1), (r1, rs1), "{engine}: diverged before");
                assert_eq!((&e2, &s2), (r2, rs2), "{engine}: diverged after");
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
fn replacing_the_mpu_drops_blocks_compiled_under_the_old_one() {
    // The EA-MPU can be swapped whole through `mpu_mut`. The replacement
    // protects the loop's data for another task, and is bumped until its
    // generation is at least the old one's: were epochs counted per
    // instance, the two would then match, and the compiled blocks, with
    // the bare machine's memoised window over 0x9000, would survive.
    for engine in ALL_ENGINES {
        let mut m = Machine::new(config(engine));
        let program = assemble(
            "main:\n movi r1, 0x9000\nloop:\n ldw r3, [r1]\n jmp loop\n",
            0x1000,
        )
        .unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
        m.set_mpu_enabled(true);
        m.mpu_mut().set_rule(
            0,
            Rule::new(
                Region::new(0x1000, 0x100),
                0x1000,
                Region::new(0x9000, 0x100),
                Perms::RW,
            ),
        );
        assert_eq!(m.run(1_000), Event::BudgetExhausted, "{engine:?}");
        let mut other = EaMpu::new(m.mpu().slot_count());
        other.set_rule(
            0,
            Rule::new(
                Region::new(0x2000, 0x100),
                0x2000,
                Region::new(0x9000, 0x100),
                Perms::RW,
            ),
        );
        while other.generation() < m.mpu().generation() {
            other.invalidate_decision_cache();
        }
        *m.mpu_mut() = other;
        assert_eq!(
            m.run(1_000),
            Event::Fault(Fault::MpuAccess {
                eip: 0x1008,
                addr: 0x9000,
                kind: AccessKind::Read
            }),
            "{engine:?}: a block compiled under the replaced EA-MPU survived"
        );
    }
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
    // Legacy reference, then the translator bare (budgeted block loop)
    // and traced (exact block loop).
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

/// Runs `setup` on the legacy reference and on a bare and a traced
/// translator, each with a control-flow monitor over 0x1000..0x1100,
/// in slices of every budget in `budgets` until `total` cycles have run
/// or the guest faults. Events and snapshots must agree after every
/// slice; RAM digests and the monitors' edge runs and chain heads at
/// the end. Slices of 1 to 2× a block's worst-case charge end passes at
/// every residue of the block, so both sides of the block-entry budget
/// — the budgeted pass and the exact one — stop, fault and break on
/// every op.
fn boundary_lockstep(
    setup: impl Fn(&mut Machine),
    budgets: std::ops::RangeInclusive<u64>,
    total: u64,
) {
    restarting_lockstep(setup, |_| {}, 0, budgets, total);
}

/// [`boundary_lockstep`], where up to `restarts` faults do not end the
/// run: after each, `restart` puts every machine back at its loop, as a
/// supervisor restarts a faulted task, and the run goes on over the
/// blocks the translator compiled and the windows it memoised.
fn restarting_lockstep(
    setup: impl Fn(&mut Machine),
    restart: impl Fn(&mut Machine),
    restarts: usize,
    budgets: std::ops::RangeInclusive<u64>,
    total: u64,
) {
    for budget in budgets {
        let mut machines: Vec<Machine> = [
            EngineKind::Legacy,
            EngineKind::Translated,
            EngineKind::Translated,
        ]
        .into_iter()
        .map(|engine| {
            let mut m = Machine::new(config(engine));
            setup(&mut m);
            m.attach_cf_monitor(Region::new(0x1000, 0x100));
            m
        })
        .collect();
        machines[2].attach_tracer(Tracer::new(Arc::new(RingRecorder::new(64))));
        let (reference, others) = machines.split_first_mut().expect("three machines");
        let mut slice = 0;
        let mut faults = 0;
        while reference.cycles() < total {
            let event = reference.run(budget);
            for m in others.iter_mut() {
                let engine = label(m);
                assert_eq!(
                    m.run(budget),
                    event,
                    "{engine}: event, budget {budget} slice {slice}"
                );
                assert_eq!(
                    m.snapshot(),
                    reference.snapshot(),
                    "{engine}: state, budget {budget} slice {slice}"
                );
            }
            if matches!(event, Event::Fault(_)) {
                if faults == restarts {
                    break;
                }
                faults += 1;
                restart(reference);
                others.iter_mut().for_each(&restart);
            }
            slice += 1;
        }
        let monitor = reference.cf_monitor().expect("monitor armed");
        for m in others.iter() {
            let engine = label(m);
            assert_eq!(
                m.ram_digest(),
                reference.ram_digest(),
                "{engine}: RAM, budget {budget}"
            );
            let other = m.cf_monitor().expect("monitor armed");
            assert_eq!(
                other.runs(),
                monitor.runs(),
                "{engine}: CF runs, budget {budget}"
            );
            assert_eq!(
                other.chain_head(),
                monitor.chain_head(),
                "{engine}: CF chain, budget {budget}"
            );
        }
    }
}

/// Loads `source` at 0x1000 with the EA-MPU on: the task's rule grants
/// its code at 0x1000 the data at 0x9000..0x9100, another task's rule
/// protects code at 0x2000 and data at 0x9180..0x9200, and a timer at
/// 0xf000_0000 raises vector 32 into `handler`, if the source has one.
fn secure_task(m: &mut Machine, source: &str) {
    let program = assemble(source, 0x1000).unwrap();
    m.load_image(0x1000, &program.bytes).unwrap();
    m.set_eip(0x1000);
    m.set_reg(Reg::R7, 0x8000);
    m.set_mpu_enabled(true);
    m.mpu_mut().set_rule(
        0,
        Rule::new(
            Region::new(0x1000, 0x100),
            0x1000,
            Region::new(0x9000, 0x100),
            Perms::RW,
        ),
    );
    m.mpu_mut().set_rule(
        1,
        Rule::new(
            Region::new(0x2000, 0x100),
            0x2000,
            Region::new(0x9180, 0x80),
            Perms::RW,
        ),
    );
    if let Some(handler) = program.symbol("handler") {
        m.set_idt_base(0x40);
        m.set_idt_entry(32, handler).unwrap();
        m.add_device(Box::new(Timer::new(0xf000_0000, 32)));
    }
}

#[test]
fn block_budget_boundaries_match_legacy() {
    // The fleet task's loop: `ldw; addi; stw; jmp` charges 16 cycles a
    // pass, so budgets of 1..=32 end slices at every op of it. Then the
    // same loop closed by a `jnz`, whose taken edge (4 cycles) costs more
    // than its fall-through (2): the budget must count the dearer one.
    for back_edge in ["jmp loop", "cmpi r3, 0\n jnz loop"] {
        let source = format!(
            "main:\n movi r1, 0x9000\n\
             loop:\n ldw r3, [r1]\n addi r3, 1\n stw [r1], r3\n {back_edge}\n"
        );
        boundary_lockstep(|m| secure_task(m, &source), 1..=36, 400);
    }
}

#[test]
fn block_budget_denials_fault_at_every_op_index() {
    // A six-op block walks `r1` out of the task's data into the other
    // task's: its load, placed at each body index in turn, is denied at
    // 0x9180. Then a block whose terminator is denied: a `jz` into the
    // middle of the other task's code, taken on the ninth pass; and one
    // whose terminator's fall-through is denied: a `jnz` on the last
    // word of the task's code, falling into a third task's code below
    // its entry on the ninth pass.
    let fillers = ["addi r4, 1", "addi r1, 4", "addi r5, 2", "addi r6, 3"];
    for index in 0..=fillers.len() {
        let mut body: Vec<&str> = fillers.to_vec();
        body.insert(index, "ldw r3, [r1]");
        let source = format!(
            "main:\n movi r1, 0x9100\nloop:\n {}\n jmp loop\n",
            body.join("\n ")
        );
        boundary_lockstep(|m| secure_task(m, &source), 1..=40, 600);
        let mut m = Machine::new(config(EngineKind::Legacy));
        secure_task(&mut m, &source);
        assert_eq!(
            m.run(600),
            Event::Fault(Fault::MpuAccess {
                eip: 0x1008 + 4 * index as u32,
                addr: 0x9180,
                kind: AccessKind::Read
            }),
            "load at index {index}"
        );
    }
    let source = "main:\n movi r4, 0\nloop:\n addi r4, 1\n cmpi r4, 9\n jz 0x2008\n jmp loop\n";
    boundary_lockstep(|m| secure_task(m, source), 1..=24, 400);
    let mut m = Machine::new(config(EngineKind::Legacy));
    secure_task(&mut m, source);
    assert!(matches!(
        m.run(400),
        Event::Fault(Fault::MpuTransfer { to: 0x2008, .. })
    ));
    let (head, tail) = (
        "main:\n movi r4, 0\n jmp loop\n",
        "loop:\n addi r4, 1\n cmpi r4, 9\n jnz loop\nend:\n",
    );
    let unpadded = assemble(&format!("{head}{tail}"), 0x1000).unwrap();
    let nop = assemble("nop\n", 0).unwrap().bytes.len() as u32;
    let pad = " nop\n".repeat(((0x1100 - unpadded.symbols["end"]) / nop) as usize);
    let source = format!("{head}{pad}{tail}");
    assert_eq!(assemble(&source, 0x1000).unwrap().symbols["end"], 0x1100);
    let fenced = |m: &mut Machine| {
        secure_task(m, &source);
        m.mpu_mut().set_rule(
            2,
            Rule::new(
                Region::new(0x1100, 0x40),
                0x1120,
                Region::new(0x9200, 0x40),
                Perms::RW,
            ),
        );
    };
    boundary_lockstep(fenced, 1..=24, 400);
    let mut m = Machine::new(config(EngineKind::Legacy));
    fenced(&mut m);
    assert!(matches!(
        m.run(400),
        Event::Fault(Fault::MpuTransfer { to: 0x1100, .. })
    ));
}

#[test]
fn block_budget_mid_block_device_and_code_stores_match_legacy() {
    // Mid-block, the loop reads the timer's count, the clock as the
    // device sees it, and re-arms the timer, moving the device deadline
    // to 41 cycles after the store's clock; the handler counts wake-ups.
    // Each device access breaks the batch, so the loop's next pass
    // starts well short of the deadline and runs under the budget.
    let timed = |m: &mut Machine| {
        secure_task(
            m,
            "main:\n movi r6, 0xf0000000\n movi r2, 41\n stw [r6+4], r2\n movi r2, 1\n sti\n\
             loop:\n addi r3, 1\n ldw r4, [r6+8]\n addi r5, 1\n stw [r6], r2\n jmp loop\n\
             handler:\n addi r0, 1\n iret\n",
        );
        m.mpu_mut().set_rule(
            2,
            Rule::new(
                Region::new(0x1000, 0x100),
                0x1000,
                Region::new(0xf000_0000, 0x10),
                Perms::RW,
            ),
        );
    };
    boundary_lockstep(timed, 1..=40, 800);
    let mut m = Machine::new(config(EngineKind::Translated));
    timed(&mut m);
    m.run(800);
    assert_ne!(m.reg(Reg::R4), 0, "the count was never read");
    // Mid-block, the loop stores over its own next op, toggling it
    // between `addi r5, 2` and `addi r5, 1` (no EA-MPU rule here: a
    // task's rule would deny the write to its code).
    let word = |source| {
        let bytes = assemble(source, 0).unwrap().bytes;
        u32::from_le_bytes(bytes[0..4].try_into().unwrap())
    };
    let (two, one) = (word("addi r5, 2\n"), word("addi r5, 1\n"));
    let source = format!(
        "main:\n movi r1, target\n movi r2, {two:#010x}\n movi r3, {:#010x}\n\
         loop:\n addi r4, 1\n stw [r1], r2\n xor r2, r3\n\
         target:\n addi r5, 1\n addi r6, 1\n jmp loop\n",
        two ^ one
    );
    let patching = |m: &mut Machine| {
        let program = assemble(&source, 0x1000).unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
    };
    boundary_lockstep(patching, 1..=40, 600);
    let mut m = Machine::new(config(EngineKind::Translated));
    patching(&mut m);
    m.run(600);
    // Every pass runs what its own store wrote: +2, +1, +2, ...
    let (r5, r6) = (m.reg(Reg::R5), m.reg(Reg::R6));
    assert!(r6 > 10, "the loop did not run");
    assert!(
        (3 * r6 / 2..=3 * r6 / 2 + 2).contains(&r5),
        "a stale op ran: r5 {r5}, r6 {r6}"
    );
}

/// The assembled word of the one-word instruction `source`.
fn word_of(source: &str) -> u32 {
    let bytes = assemble(source, 0).unwrap().bytes;
    u32::from_le_bytes(bytes[0..4].try_into().unwrap())
}

/// Puts the machine back at `loop`, the fourth word of the programs
/// below, with `r1` at `pointer`.
fn restart_at(pointer: u32) -> impl Fn(&mut Machine) {
    move |m: &mut Machine| {
        m.set_reg(Reg::R1, pointer);
        m.set_eip(0x1008);
    }
}

#[test]
fn fused_triples_fault_where_legacy_denies_the_load() {
    // The fused triple walks `r1` up from `from` until its load is
    // denied. Each restart runs the walk again over windows the last run
    // memoised.
    let walk = |from: u32| {
        format!(
            "main:\n movi r1, {from:#x}\n\
             loop:\n ldw r3, [r1]\n addi r3, 1\n stw [r1], r3\n addi r1, 4\n jmp loop\n"
        )
    };
    // From the task's data, through unprotected RAM, into the other
    // task's data at 0x9180.
    let into_other = walk(0x90e0);
    // The task may write all its data but read only the lower half, so
    // the store's window reaches past the load's: at 0x9080 only the
    // load's own check denies the triple.
    let past_reads = walk(0x9040);
    let write_wider = |m: &mut Machine| {
        secure_task(m, &past_reads);
        let task = |data: Region, perms| Rule::new(Region::new(0x1000, 0x100), 0x1000, data, perms);
        m.mpu_mut()
            .set_rule(0, task(Region::new(0x9000, 0x100), Perms::W));
        m.mpu_mut()
            .set_rule(2, task(Region::new(0x9000, 0x80), Perms::R));
    };
    restarting_lockstep(
        |m| secure_task(m, &into_other),
        restart_at(0x90e0),
        3,
        1..=24,
        1_200,
    );
    restarting_lockstep(write_wider, restart_at(0x9040), 3, 1..=24, 1_200);
    let denied_at = |addr| {
        Event::Fault(Fault::MpuAccess {
            eip: 0x1008,
            addr,
            kind: AccessKind::Read,
        })
    };
    let mut m = Machine::new(config(EngineKind::Translated));
    secure_task(&mut m, &into_other);
    assert_eq!(m.run(1_200), denied_at(0x9180));
    let mut m = Machine::new(config(EngineKind::Translated));
    write_wider(&mut m);
    for _ in 0..3 {
        assert_eq!(m.run(1_200), denied_at(0x9080));
        restart_at(0x9040)(&mut m);
    }
}

#[test]
fn fused_triples_fault_where_legacy_denies_the_store() {
    // The task's data is read-only: every run loads, then faults on the
    // store. From the third run on the load's window holds the address
    // and only the store's check stands between the triple and RAM.
    let source = "main:\n movi r1, 0x9040\n\
                  loop:\n ldw r3, [r1]\n addi r3, 1\n stw [r1], r3\n jmp loop\n";
    let read_only = |m: &mut Machine| {
        secure_task(m, source);
        m.mpu_mut().set_rule(
            0,
            Rule::new(
                Region::new(0x1000, 0x100),
                0x1000,
                Region::new(0x9000, 0x100),
                Perms::R,
            ),
        );
    };
    restarting_lockstep(read_only, restart_at(0x9040), 6, 1..=24, 600);
    let mut m = Machine::new(config(EngineKind::Translated));
    read_only(&mut m);
    for _ in 0..4 {
        assert_eq!(
            m.run(600),
            Event::Fault(Fault::MpuAccess {
                eip: 0x1010,
                addr: 0x9040,
                kind: AccessKind::Write
            })
        );
        restart_at(0x9040)(&mut m);
    }
    assert_eq!(m.read_word(0x9040), Ok(0), "a denied store landed");
}

#[test]
fn fused_triples_over_device_registers_match_legacy() {
    // The triple reads the timer's count, the cycles since it last
    // fired, as the device sees the clock, and writes it back, which the
    // timer ignores. No rule covers the timer, so neither access needs a
    // check and only the word's place keeps the triple off the fused
    // path. The timer fires every 300 cycles, so most passes start far
    // from the device deadline, in the budgeted loop.
    let timed = |m: &mut Machine| {
        let program = assemble(
            "main:\n movi r6, 0xf0000000\n movi r2, 300\n stw [r6+4], r2\n movi r2, 1\n\
             stw [r6], r2\n sti\n\
             loop:\n addi r4, 1\n ldw r3, [r6+8]\n addi r3, 1\n stw [r6+8], r3\n addi r5, 1\n jmp loop\n\
             handler:\n addi r0, 1\n iret\n",
            0x1000,
        )
        .unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
        m.set_reg(Reg::R7, 0x8000);
        m.set_mpu_enabled(true);
        m.set_idt_base(0x40);
        m.set_idt_entry(32, program.symbol("handler").unwrap())
            .unwrap();
        m.add_device(Box::new(Timer::new(0xf000_0000, 32)));
    };
    boundary_lockstep(timed, 1..=40, 800);
    boundary_lockstep(timed, 700..=720, 2_000);
    let mut m = Machine::new(config(EngineKind::Translated));
    timed(&mut m);
    m.run(2_000);
    assert!(m.reg(Reg::R0) > 2, "the timer did not fire");
    assert!(m.reg(Reg::R5) > 50, "the loop did not run");
}

#[test]
fn fused_triples_storing_into_their_own_block_match_legacy() {
    // The triple toggles `target`, an op later in its own block, between
    // `addi r5, 1` and `addi r5, 2`: every pass must run what the last
    // pass's store wrote.
    let (one, two) = (word_of("addi r5, 1\n"), word_of("addi r5, 2\n"));
    let source = format!(
        "main:\n movi r1, target\n movi r3, {:#010x}\n\
         loop:\n ldw r2, [r1]\n xor r2, r3\n stw [r1], r2\n\
         target:\n addi r5, 1\n addi r6, 1\n jmp loop\n",
        one ^ two
    );
    let patching = |m: &mut Machine| {
        let program = assemble(&source, 0x1000).unwrap();
        m.load_image(0x1000, &program.bytes).unwrap();
        m.set_eip(0x1000);
    };
    boundary_lockstep(patching, 1..=40, 600);
    let mut m = Machine::new(config(EngineKind::Translated));
    patching(&mut m);
    m.run(600);
    // The first pass writes `+2`, the next `+1`, and so on.
    let (r5, r6) = (m.reg(Reg::R5), m.reg(Reg::R6));
    assert!(r6 > 10, "the loop did not run");
    assert!(
        (3 * r6 / 2..=3 * r6 / 2 + 2).contains(&r5),
        "a stale op ran: r5 {r5}, r6 {r6}"
    );
}

#[test]
fn fused_triples_over_page_straddling_words_match_legacy() {
    // The word at 0x9ffe spans two RAM pages; the one two bytes short of
    // the end of RAM leaves it, so its load is a bus fault.
    let end = MachineConfig::default().ram_size;
    let straddle = |pointer: u32| {
        format!(
            "main:\n movi r1, {pointer:#x}\n\
             loop:\n ldw r2, [r1]\n addi r2, 0x7fff\n stw [r1], r2\n jmp loop\n"
        )
    };
    for pointer in [0x9ffe, end - 2] {
        let source = straddle(pointer);
        let straddling = |m: &mut Machine| {
            let program = assemble(&source, 0x1000).unwrap();
            m.load_image(0x1000, &program.bytes).unwrap();
            m.set_eip(0x1000);
            m.set_mpu_enabled(true);
        };
        restarting_lockstep(straddling, restart_at(pointer), 2, 1..=24, 400);
    }
    // Three passes carry into the word's second page.
    let mut m = Machine::new(config(EngineKind::Translated));
    let program = assemble(&straddle(0x9ffe), 0x1000).unwrap();
    m.load_image(0x1000, &program.bytes).unwrap();
    m.set_eip(0x1000);
    m.run(16 * 100);
    assert_ne!(
        m.read_byte(0xa000),
        Ok(0),
        "no store reached the second page"
    );
}

#[test]
fn triples_that_must_not_fuse_match_legacy() {
    // The load's base is its destination, so the store goes to the
    // address the load read: `r1` chases a list laid out one word apart.
    // Then a store one word past the load: the triple never writes the
    // word it read.
    let chase = |m: &mut Machine| {
        secure_task(
            m,
            "main:\n movi r1, 0x9000\n\
             loop:\n ldw r1, [r1]\n addi r1, 4\n stw [r1], r1\n jmp loop\n",
        );
        m.write_word(0x9000, 0x9000).unwrap();
    };
    boundary_lockstep(chase, 1..=24, 600);
    let shifted = |m: &mut Machine| {
        secure_task(
            m,
            "main:\n movi r1, 0x9000\n\
             loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1+4], r2\n addi r1, 4\n jmp loop\n",
        );
    };
    boundary_lockstep(shifted, 1..=24, 600);
    let mut m = Machine::new(config(EngineKind::Translated));
    shifted(&mut m);
    m.run(400);
    assert_eq!(m.read_word(0x9010), Ok(4), "each word holds its index");
}

#[test]
fn a_counted_chain_stops_exactly_at_the_step_limit() {
    // The fleet task's loop charges 16 cycles a pass, and so at most 16:
    // budgets around a multiple of 16 end the chain's last budgeted pass
    // on the step limit, one cycle short of it, or mid-pass past it.
    let source = "main:\n movi r1, 0x9000\n\
                  loop:\n ldw r3, [r1]\n addi r3, 1\n stw [r1], r3\n jmp loop\n";
    for budget in 16 * 40 - 17..=16 * 40 + 17 {
        let mut machines: Vec<Machine> = ALL_ENGINES
            .into_iter()
            .map(|engine| {
                let mut m = Machine::new(config(engine));
                secure_task(&mut m, source);
                m.attach_cf_monitor(Region::new(0x1000, 0x100));
                // `movi` and three passes: the loop is compiled, and the
                // next run starts a chain on a pass boundary.
                assert_eq!(m.run(2 + 3 * 16), Event::BudgetExhausted);
                assert_eq!((m.cycles(), m.eip()), (50, 0x1008));
                m
            })
            .collect();
        let events: Vec<Event> = machines.iter_mut().map(|m| m.run(budget)).collect();
        assert_eq!(events[1], events[0], "budget {budget}");
        assert_eq!(
            machines[1].snapshot(),
            machines[0].snapshot(),
            "budget {budget}"
        );
        let [legacy, translated] = &machines[..] else {
            unreachable!("two engines")
        };
        if budget % 16 == 0 {
            assert_eq!(legacy.cycles(), 50 + budget, "budget {budget}");
        }
        assert_eq!(
            translated.cf_monitor().unwrap().runs(),
            legacy.cf_monitor().unwrap().runs(),
            "budget {budget}"
        );
    }
}
