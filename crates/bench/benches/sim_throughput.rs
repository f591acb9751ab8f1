//! Host-side throughput of the simulator itself: how many guest
//! instructions per second each execution engine retires. Not a paper
//! table — a health metric for the reproduction substrate, and the
//! before/after yardstick for the block translator (the default engine)
//! against the legacy reference loop.
//!
//! Workloads (block translator unless suffixed `_legacy`):
//! - `mpu_on` / `mpu_off` — the plain compute loop, with and without
//!   EA-MPU checking.
//! - `mpu_on_legacy` — the same loop on the legacy per-instruction
//!   reference loop; `mpu_on` vs. this is the translator speedup.
//! - `mpu_rules` — the same loop under one rule covering its code and
//!   data, the secure-task shape. `mpu_on` runs with an empty rule table,
//!   whose accesses compile to no check at all; here every load and store
//!   is a checked access.
//! - `mmio_heavy` — every iteration reads a sensor register and writes a
//!   UART register, so device routing dominates.
//! - `irq_heavy` — a ~200-cycle timer interrupt storm through the IDT.
//! - `smc_thrash` / `smc_thrash_legacy` — self-modifying code: every
//!   iteration stores into its own code, dropping and recompiling the
//!   translated block (the translator's worst case, against the
//!   uncached reference).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use eampu::{Perms, Region, Rule};
use sp32::asm::assemble;
use sp_emu::devices::{Sensor, Timer, Uart};
use sp_emu::{EngineKind, Machine, MachineConfig};

fn machine_with(engine: EngineKind, mpu_enabled: bool) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::default()
    });
    machine.set_mpu_enabled(mpu_enabled);
    machine
}

fn load(machine: &mut Machine, source: &str) {
    let program = assemble(source, 0x1000).unwrap();
    machine.load_image(0x1000, &program.bytes).unwrap();
    machine.set_eip(0x1000);
}

fn busy_machine(engine: EngineKind, mpu_enabled: bool) -> Machine {
    let mut machine = machine_with(engine, mpu_enabled);
    load(
        &mut machine,
        "main:\n movi r1, 0x9000\n movi r2, 0\n\
         loop:\n ldw r3, [r1]\n add r3, r2\n stw [r1], r3\n addi r2, 1\n jmp loop\n",
    );
    machine
}

fn secure_task_machine() -> Machine {
    let mut machine = busy_machine(EngineKind::Translated, true);
    machine.mpu_mut().set_rule(
        0,
        Rule::new(
            Region::new(0x1000, 0x100),
            0x1000,
            Region::new(0x9000, 0x100),
            Perms::RW,
        ),
    );
    machine
}

fn mmio_machine() -> Machine {
    let mut machine = machine_with(EngineKind::Translated, true);
    machine.add_device(Box::new(Sensor::new(0xf000_0110, 7)));
    machine.add_device(Box::new(Uart::new(0xf000_0200)));
    load(
        &mut machine,
        "main:\n movi r1, 0xf0000110\n movi r2, 0xf0000200\n\
         loop:\n ldw r3, [r1]\n stw [r2], r3\n jmp loop\n",
    );
    machine
}

fn irq_machine() -> Machine {
    let mut machine = machine_with(EngineKind::Translated, true);
    let program = assemble(
        "main:\n sti\nloop:\n addi r2, 1\n jmp loop\n\
         handler:\n addi r3, 1\n iret\n",
        0x1000,
    )
    .unwrap();
    let handler = program.symbol("handler").unwrap();
    machine.load_image(0x1000, &program.bytes).unwrap();
    machine.set_eip(0x1000);
    machine.set_reg(sp32::Reg::R7, 0x8000);
    machine.set_idt_base(0x40);
    machine.set_idt_entry(32, handler).unwrap();
    let timer = machine.add_device(Box::new(Timer::new(0xf000_0000, 32)));
    machine
        .device_mut::<Timer>(timer)
        .unwrap()
        .configure(200, true);
    machine
}

fn smc_machine(engine: EngineKind) -> Machine {
    let mut machine = machine_with(engine, true);
    // The store rewrites `target` with its own current encoding: semantics
    // never change, but the compiled loop block is dropped every iteration.
    load(
        &mut machine,
        "main:\n movi r1, target\n ldw r2, [r1]\n\
         loop:\ntarget:\n addi r4, 1\n stw [r1], r2\n jmp loop\n",
    );
    machine
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    const INSTRUCTIONS: u64 = 10_000;
    group.throughput(Throughput::Elements(INSTRUCTIONS));
    type Case = (&'static str, fn() -> Machine);
    let cases: Vec<Case> = vec![
        ("mpu_on", || busy_machine(EngineKind::Translated, true)),
        ("mpu_off", || busy_machine(EngineKind::Translated, false)),
        ("mpu_on_legacy", || busy_machine(EngineKind::Legacy, true)),
        ("mpu_rules", secure_task_machine),
        ("mmio_heavy", mmio_machine),
        ("irq_heavy", irq_machine),
        ("smc_thrash", || smc_machine(EngineKind::Translated)),
        ("smc_thrash_legacy", || smc_machine(EngineKind::Legacy)),
    ];
    for (label, build) in cases {
        group.bench_function(label, |b| {
            let mut machine = build();
            b.iter(|| {
                let start = machine.stats().instructions;
                while machine.stats().instructions - start < INSTRUCTIONS {
                    machine.run(50_000);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
