//! The experiments: one function per table/figure of the paper.

use crate::{Row, Table};
use eampu::{EaMpu, Perms, Region, Rule};
use rtos::{layout, Runner, RunnerConfig, StaticTask};
use sp_emu::devices::{Sensor, Timer, Uart};
use sp_emu::{EngineKind, Event, Machine, MachineConfig};
use std::sync::Arc;
use tytan::allocator::Allocator;
use tytan::footprint;
use tytan::loader::{LoadJob, LoadProgress, LoadReport};
use tytan::platform::{LoadStatus, Platform, PlatformConfig};
use tytan::rtm::{MeasureJob, MeasureProgress, Rtm};
use tytan::toolchain::{build_normal_task, SecureTaskBuilder, TaskSource};
use tytan::usecase::{engine_control_source, radar_monitor_source, CruiseControl};
use tytan_crypto::{Sha1, TaskId};
use tytan_image::TaskImage;
use tytan_lint::{LintPolicy, Linter, Severity};
use tytan_profile::{CycleProfiler, Report};
use tytan_trace::hist::Summary;
use tytan_trace::{chrome, RingRecorder, Tracer};

fn boot() -> Platform {
    boot_with(MachineConfig::default())
}

fn boot_with(machine: MachineConfig) -> Platform {
    Platform::boot(PlatformConfig {
        machine,
        ..Default::default()
    })
    .expect("platform boots")
}

/// Runs `platform` until the given firmware trap fires, returning the
/// cycle count at arrival. Kernel traps along the way are serviced.
fn run_until_trap(platform: &mut Platform, target: u32) -> u64 {
    loop {
        match platform
            .run_one_event(10_000_000)
            .expect("platform healthy")
        {
            Event::FirmwareTrap { addr } if addr == target => {
                return platform.machine().cycles();
            }
            _ => {}
        }
    }
}

/// Runs the raw machine until the kernel trap is *reached* (not yet
/// serviced) and returns the cycle count at arrival.
fn run_until_kernel_trap_arrival(platform: &mut Platform) -> u64 {
    loop {
        match platform.machine_mut().run(10_000_000) {
            Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                return platform.machine().cycles();
            }
            Event::FirmwareTrap { .. } => {
                // A leftover phase trap: step past it.
                platform.machine_mut().step().expect("step past trap");
            }
            Event::Fault(fault) => panic!("unexpected fault: {fault}"),
            _ => {}
        }
    }
}

fn spin_task(name: &str) -> TaskSource {
    SecureTaskBuilder::new(
        name,
        "main:\n movi r1, counter\n\
         loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n jmp loop\n",
    )
    .data("counter:\n .word 0\n")
    .build()
    .expect("assembles")
}

// ---------------------------------------------------------------- table 1

/// Table 1 / Figure 2: the adaptive cruise-control use case. `t0`/`t1`
/// hold their 1.5 kHz rate before, while, and after loading `t2`; the
/// blocking-load ablation shows the deadline misses TyTAN prevents.
pub fn table1_use_case() -> Table {
    let window = 960_000; // 20 ms at 48 MHz

    let measure = |interruptible: bool| {
        let config = PlatformConfig {
            interruptible_load: interruptible,
            ..Default::default()
        };
        let mut platform: Platform = Platform::boot(config).expect("boots");
        let mut scenario = CruiseControl::install(&mut platform).expect("installs");
        platform.run_for(200_000).expect("warmup");
        let before = scenario
            .measure_window(&mut platform, window)
            .expect("before");
        let (token, source) = scenario.activate_cruise_control(&mut platform);
        let during = scenario
            .measure_window(&mut platform, window)
            .expect("during");
        let (t2, _) = platform.wait_load(token, 400_000_000).expect("t2 loads");
        scenario.finish_activation(&platform, t2, &source);
        platform.run_for(200_000).expect("settle");
        let after = scenario
            .measure_window(&mut platform, window)
            .expect("after");
        (before, during, after)
    };

    let (before, during, after) = measure(true);
    let (_, abl_during, _) = measure(false);

    Table {
        id: "table1",
        title: "use-case task rates before/while/after loading t2 (kHz @48 MHz)",
        note: "paper: all tasks hold 1.5 kHz in every phase; the ablation rows show the \
               blocking (non-interruptible) loader starving t0/t1 during the load",
        rows: vec![
            Row::with_paper("before: t1", 1.5, before.t1_rate_khz_at_48mhz(), "kHz"),
            Row::with_paper("before: t0", 1.5, before.t0_rate_khz_at_48mhz(), "kHz"),
            Row::with_paper("while:  t1", 1.5, during.t1_rate_khz_at_48mhz(), "kHz"),
            Row::with_paper("while:  t0", 1.5, during.t0_rate_khz_at_48mhz(), "kHz"),
            Row::with_paper("after:  t1", 1.5, after.t1_rate_khz_at_48mhz(), "kHz"),
            Row::with_paper("after:  t2", 1.5, after.t2_rate_khz_at_48mhz(), "kHz"),
            Row::with_paper("after:  t0", 1.5, after.t0_rate_khz_at_48mhz(), "kHz"),
            Row::measured_only(
                "ablation while: t1",
                abl_during.t1_rate_khz_at_48mhz(),
                "kHz",
            ),
            Row::measured_only(
                "ablation while: t0",
                abl_during.t0_rate_khz_at_48mhz(),
                "kHz",
            ),
        ],
    }
}

// ---------------------------------------------------------------- table 2

/// Result of one secure context-save measurement.
#[derive(Debug, Clone, Copy)]
pub struct SavePhases {
    /// Register-store phase cycles.
    pub store: u64,
    /// Register-wipe phase cycles.
    pub wipe: u64,
    /// Branch-to-handler phase cycles.
    pub branch: u64,
}

impl SavePhases {
    /// Total save cost.
    pub fn overall(&self) -> u64 {
        self.store + self.wipe + self.branch
    }
}

/// Measures the TyTAN Int Mux save path phase by phase.
pub fn measure_secure_save() -> SavePhases {
    measure_secure_save_with(false)
}

/// Like [`measure_secure_save`], optionally with the hardware-assisted
/// context save (§4's latency/hardware trade-off) instead of the stub.
pub fn measure_secure_save_with(hardware_save: bool) -> SavePhases {
    let config = PlatformConfig {
        hardware_context_save: hardware_save,
        ..Default::default()
    };
    let mut platform: Platform = Platform::boot(config).expect("boots");
    let source = spin_task("interruptee");
    let token = platform.begin_load(&source, 2);
    platform.wait_load(token, 400_000_000).expect("loads");
    platform.run_for(50_000).expect("task running");

    let save = platform.stubs().save_stubs[&layout::TICK_VECTOR];
    let wipe = platform
        .stubs()
        .wipe_starts
        .get(&layout::TICK_VECTOR)
        .copied();
    let branch = platform.stubs().branch_starts[&layout::TICK_VECTOR];
    // Under the hardware-save ablation the stub has no store/wipe phases,
    // so the save and branch labels coincide.
    let branch_is_save = branch == save;
    let machine = platform.machine_mut();
    machine.add_firmware_trap(save);
    if let Some(wipe) = wipe {
        machine.add_firmware_trap(wipe);
    }
    if !branch_is_save {
        machine.add_firmware_trap(branch);
    }

    let t_save = run_until_trap(&mut platform, save);
    platform.machine_mut().remove_firmware_trap(save);
    let t_wipe = match wipe {
        Some(wipe) => {
            let t = run_until_trap(&mut platform, wipe);
            platform.machine_mut().remove_firmware_trap(wipe);
            t
        }
        None => t_save,
    };
    let t_branch = if branch_is_save {
        t_save
    } else {
        let t = run_until_trap(&mut platform, branch);
        platform.machine_mut().remove_firmware_trap(branch);
        t
    };
    let t_end = run_until_kernel_trap_arrival(&mut platform);
    platform.run_one_event(0).expect("service trap");

    SavePhases {
        store: t_wipe - t_save,
        wipe: t_branch - t_wipe,
        branch: t_end - t_branch,
    }
}

/// Ablation (§4): software Int Mux save vs. hardware-assisted save.
pub fn ablation_hw_save() -> Table {
    let software = measure_secure_save_with(false);
    let hardware = measure_secure_save_with(true);
    Table {
        id: "ablation-hw-save",
        title: "context save: Int Mux software stub vs. hardware-assisted (cycles)",
        note: "the paper notes the context save \"can be implemented in hardware, reducing \
               latency at the cost of additional hardware\"; the hardware path folds \
               store+wipe into the exception engine",
        rows: vec![
            Row::measured_only(
                "software: store+wipe+branch",
                software.overall() as f64,
                "cycles",
            ),
            Row::measured_only(
                "hardware: store+wipe+branch",
                hardware.overall() as f64,
                "cycles",
            ),
            Row::measured_only(
                "latency saved",
                software.overall().saturating_sub(hardware.overall()) as f64,
                "cycles",
            ),
        ],
    }
}

/// Measures the baseline (unmodified FreeRTOS) save path.
pub fn measure_baseline_save() -> u64 {
    let mut runner = Runner::new(RunnerConfig::default()).expect("runner boots");
    runner
        .add_task(StaticTask {
            name: "interruptee".into(),
            priority: 1,
            source: "main:\n movi r1, counter\n\
                     loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n jmp loop\n\
                     counter:\n .word 0\n"
                .into(), // baseline platform: no EA-MPU, inline data is fine
            stack_len: 256,
        })
        .expect("task added");
    runner.start().expect("starts");
    runner.run_for(50_000).expect("running");

    let save = runner.stubs().save_stubs[&layout::TICK_VECTOR];
    runner.machine_mut().add_firmware_trap(save);
    let t_save = loop {
        match runner.run_one_event(10_000_000).expect("healthy") {
            Event::FirmwareTrap { addr } if addr == save => break runner.machine().cycles(),
            _ => {}
        }
    };
    runner.machine_mut().remove_firmware_trap(save);
    let t_end = loop {
        match runner.machine_mut().run(10_000_000) {
            Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                break runner.machine().cycles();
            }
            Event::Fault(fault) => panic!("fault: {fault}"),
            _ => {}
        }
    };
    runner.run_one_event(0).expect("service");
    t_end - t_save
}

/// Table 2: cost of saving the context of a secure task.
pub fn table2_interrupt_save() -> Table {
    let phases = measure_secure_save();
    let baseline = measure_baseline_save();
    let overall = phases.overall();
    Table {
        id: "table2",
        title: "saving the context of a secure task (cycles)",
        note: "store/wipe/branch are real guest instructions of the Int Mux stub; \
               overhead = TyTAN overall − unmodified-FreeRTOS save",
        rows: vec![
            Row::with_paper("store context", 38.0, phases.store as f64, "cycles"),
            Row::with_paper("wipe registers", 16.0, phases.wipe as f64, "cycles"),
            Row::with_paper("branch", 41.0, phases.branch as f64, "cycles"),
            Row::with_paper("overall", 95.0, overall as f64, "cycles"),
            Row::with_paper(
                "overhead",
                57.0,
                overall.saturating_sub(baseline) as f64,
                "cycles",
            ),
            Row::measured_only("baseline (FreeRTOS) save", baseline as f64, "cycles"),
        ],
    }
}

// ---------------------------------------------------------------- table 3

/// Result of one context-restore measurement.
#[derive(Debug, Clone, Copy)]
pub struct RestorePhases {
    /// Branch-to-task (scheduler dispatch) cycles.
    pub branch: u64,
    /// Entry-routine context-restore cycles.
    pub restore: u64,
}

impl RestorePhases {
    /// Total restore cost.
    pub fn overall(&self) -> u64 {
        self.branch + self.restore
    }
}

fn yield_body() -> &'static str {
    "main:\n\
     loop:\n movi r1, 0\n int SYS_VECTOR\n\
     after_int:\n jmp loop\n"
}

/// Measures the secure-task restore path: the task yields; the kernel
/// branches to its entry routine (branch phase), which restores the saved
/// context and IRETs (restore phase).
pub fn measure_secure_restore() -> RestorePhases {
    let mut platform = boot();
    let source = SecureTaskBuilder::new("yielder", yield_body())
        .build()
        .expect("assembles");
    let after_int_off = source.symbol_offset("after_int").expect("label");
    let token = platform.begin_load(&source, 2);
    let (handle, _) = platform.wait_load(token, 400_000_000).expect("loads");
    let base = platform.task_base(handle).expect("loaded");

    // Let the first yield round-trip complete so the task has a saved
    // context (resume path, not start path).
    platform.run_for(20_000).expect("warm");

    let t_arrive = run_until_kernel_trap_arrival(&mut platform);
    platform
        .machine_mut()
        .add_firmware_trap(base + after_int_off);
    platform.run_one_event(0).expect("service trap");
    let t_dispatched = platform.machine().cycles();
    let t_done = run_until_trap(&mut platform, base + after_int_off);
    platform
        .machine_mut()
        .remove_firmware_trap(base + after_int_off);

    RestorePhases {
        branch: t_dispatched - t_arrive,
        restore: t_done - t_dispatched,
    }
}

/// Measures the baseline restore: the OS pops the context itself.
pub fn measure_baseline_restore() -> RestorePhases {
    let mut runner = Runner::new(RunnerConfig::default()).expect("boots");
    let handle = runner
        .add_task(StaticTask {
            name: "yielder".into(),
            priority: 1,
            source: format!(
                "main:\nloop:\n movi r1, 0\n int {vec:#x}\nafter_int:\n jmp loop\n",
                vec = layout::SYSCALL_VECTOR
            ),
            stack_len: 256,
        })
        .expect("added");
    runner.start().expect("starts");
    runner.run_for(20_000).expect("warm");
    let after_int = runner.task_symbol(handle, "after_int").expect("label");

    let t_arrive = loop {
        match runner.machine_mut().run(10_000_000) {
            Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                break runner.machine().cycles();
            }
            Event::Fault(fault) => panic!("fault: {fault}"),
            _ => {}
        }
    };
    runner.machine_mut().add_firmware_trap(after_int);
    runner.run_one_event(0).expect("service");
    let t_dispatched = runner.machine().cycles();
    let t_done = loop {
        match runner.run_one_event(10_000_000).expect("healthy") {
            Event::FirmwareTrap { addr } if addr == after_int => {
                break runner.machine().cycles();
            }
            _ => {}
        }
    };
    runner.machine_mut().remove_firmware_trap(after_int);
    RestorePhases {
        branch: t_dispatched - t_arrive,
        restore: t_done - t_dispatched,
    }
}

/// Table 3: cost of restoring the context of a secure task.
pub fn table3_interrupt_restore() -> Table {
    let secure = measure_secure_restore();
    let baseline = measure_baseline_restore();
    Table {
        id: "table3",
        title: "restoring the context of a secure task (cycles)",
        note: "branch = scheduler dispatch to the entry routine; restore = entry routine \
               reason check + context pops + IRET (real guest instructions)",
        rows: vec![
            Row::with_paper("branch", 106.0, secure.branch as f64, "cycles"),
            Row::with_paper("restore", 254.0, secure.restore as f64, "cycles"),
            Row::with_paper("overall", 384.0, secure.overall() as f64, "cycles"),
            Row::with_paper(
                "overhead",
                130.0,
                secure.overall().saturating_sub(baseline.overall()) as f64,
                "cycles",
            ),
            Row::measured_only(
                "baseline (FreeRTOS) overall",
                baseline.overall() as f64,
                "cycles",
            ),
        ],
    }
}

// ---------------------------------------------------------------- table 4

/// Loads the paper's reference task (≈3,962 bytes, 9 relocations) as a
/// secure or normal task on a fresh platform and returns the load report.
pub fn measure_task_create(secure: bool) -> LoadReport {
    measure_task_create_with(secure, MachineConfig::default())
}

/// Like [`measure_task_create`], on a machine built from `machine` (the
/// cycle-identity tests thread each `EngineKind` through here).
pub fn measure_task_create_with(secure: bool, machine: MachineConfig) -> LoadReport {
    let mut platform = boot_with(machine);
    let source = if secure {
        radar_monitor_source(TaskId::from_u64(1))
    } else {
        let inner = radar_monitor_source(TaskId::from_u64(1));
        // Same body scale, normal task wrapper.
        let _ = inner;
        build_normal_task(
            "normal-ref",
            "main:\nloop:\n movi r1, 1\n jmp loop\ntable:\n .word main, loop, main, loop, main, loop, main, loop\n .space 3200\n",
            "",
            512,
        )
        .expect("assembles")
    };
    let token = platform.begin_load(&source, 2);
    platform.wait_load(token, 400_000_000).expect("loads");
    match platform.load_status(token).expect("token valid") {
        LoadStatus::Done { report, .. } => report,
        other => panic!("load not done: {other:?}"),
    }
}

/// Table 4: cost of creating a secure vs a normal task.
pub fn table4_task_create() -> Table {
    let secure = measure_task_create(true);
    let normal = measure_task_create(false);
    let secure_overhead = secure.reloc_cycles + secure.mpu_cycles + secure.rtm_cycles;
    let normal_overhead = normal.reloc_cycles + normal.mpu_cycles;
    Table {
        id: "table4",
        title: "creating a task, ~3,962-byte image with 9 relocations (cycles)",
        note: "EA-MPU row is the policy-checked task rule (the paper charges only the \
               rule write, 225); overhead = relocation + EA-MPU + RTM vs static creation",
        rows: vec![
            Row::with_paper(
                "secure: relocation",
                3_692.0,
                secure.reloc_cycles as f64,
                "cycles",
            ),
            Row::with_paper(
                "secure: EA-MPU",
                225.0,
                secure.mpu_primary_cycles as f64,
                "cycles",
            ),
            Row::with_paper("secure: RTM", 433_433.0, secure.rtm_cycles as f64, "cycles"),
            Row::with_paper(
                "secure: overall",
                642_241.0,
                secure.total_cycles() as f64,
                "cycles",
            ),
            Row::with_paper(
                "secure: overhead",
                437_380.0,
                secure_overhead as f64,
                "cycles",
            ),
            Row::with_paper(
                "normal: relocation",
                3_692.0,
                normal.reloc_cycles as f64,
                "cycles",
            ),
            Row::with_paper(
                "normal: EA-MPU",
                225.0,
                normal.mpu_primary_cycles as f64,
                "cycles",
            ),
            Row::with_paper("normal: RTM", 0.0, normal.rtm_cycles as f64, "cycles"),
            Row::with_paper(
                "normal: overall",
                208_808.0,
                normal.total_cycles() as f64,
                "cycles",
            ),
            Row::with_paper(
                "normal: overhead",
                3_917.0,
                normal_overhead as f64,
                "cycles",
            ),
        ],
    }
}

// ---------------------------------------------------------------- table 5

/// Measures the loader's relocation cost for an image with `n` sites.
pub fn measure_relocation(n: u32) -> u64 {
    measure_relocation_with(n, MachineConfig::default())
}

/// Like [`measure_relocation`], on a machine built from `config`.
pub fn measure_relocation_with(n: u32, config: MachineConfig) -> u64 {
    let mut machine = Machine::new(config);
    let mut kernel = rtos::Kernel::new(rtos::KernelConfig::default());
    let mut rtm = Rtm::new();
    let mut allocator = Allocator::new(layout::HEAP_BASE, 0x4_0000);
    let actors = tytan::driver::TrustedActors {
        trusted: Region::new(layout::TRUSTED_BASE, layout::TRUSTED_CODE_LEN),
        kernel: Region::new(layout::KERNEL_BASE, layout::KERNEL_CODE_LEN),
        kernel_entry: layout::KERNEL_TRAP,
    };
    let sites: Vec<u32> = (0..n).map(|i| i * 4).collect();
    let image = TaskImage::new(
        "reloc-probe",
        false,
        0,
        vec![0u8; 256],
        vec![],
        0,
        128,
        sites,
    )
    .expect("valid image");
    let mut job: LoadJob<Sha1> = LoadJob::new(image, 0, 1);
    loop {
        match job
            .step(
                &mut machine,
                &mut kernel,
                &mut rtm,
                &mut allocator,
                actors,
                4,
            )
            .expect("load steps")
        {
            LoadProgress::Done { .. } => break,
            LoadProgress::InProgress(_) => {}
        }
    }
    job.report().reloc_cycles
}

/// Table 5: relocation runtime vs. number of patched addresses.
pub fn table5_relocation() -> Table {
    let rows = [(0u32, 37.0), (1, 673.0), (2, 1_346.0), (4, 2_634.0)]
        .iter()
        .map(|&(n, paper_min)| {
            Row::with_paper(
                format!("{n} addresses"),
                paper_min,
                measure_relocation(n) as f64,
                "cycles",
            )
        })
        .collect();
    Table {
        id: "table5",
        title: "relocation runtime vs. relocated addresses (cycles; paper column = min)",
        note: "linear in n, matching the paper; our deterministic model makes min == avg",
        rows,
    }
}

// ---------------------------------------------------------------- table 6

/// Measures EA-MPU configuration with the first free slot at `position`
/// (1-based) in a table of 18 slots.
pub fn measure_eampu_config(position: usize) -> eampu::ConfigureCost {
    let mut mpu = EaMpu::new(18);
    for i in 0..position - 1 {
        let base = 0x1_0000 + i as u32 * 0x400;
        mpu.set_rule(
            i,
            Rule::new(
                Region::new(base, 0x100),
                base,
                Region::new(base + 0x200, 0x100),
                Perms::RW,
            ),
        );
    }
    let new_base = 0x8_0000;
    let outcome = mpu
        .configure(Rule::new(
            Region::new(new_base, 0x100),
            new_base,
            Region::new(new_base + 0x200, 0x100),
            Perms::RW,
        ))
        .expect("configures");
    assert_eq!(outcome.slot, position - 1);
    outcome.cost
}

/// Table 6: EA-MPU configuration cost vs. position of the first free slot.
pub fn table6_eampu_config() -> Table {
    let mut rows = Vec::new();
    for (position, paper_find, paper_overall) in [
        (1usize, 76.0, 1_125.0),
        (2, 95.0, 1_144.0),
        (18, 399.0, 1_448.0),
    ] {
        let cost = measure_eampu_config(position);
        rows.push(Row::with_paper(
            format!("slot {position}: find free slot"),
            paper_find,
            cost.find_slot as f64,
            "cycles",
        ));
        rows.push(Row::with_paper(
            format!("slot {position}: policy check"),
            824.0,
            cost.policy_check as f64,
            "cycles",
        ));
        rows.push(Row::with_paper(
            format!("slot {position}: write rule"),
            225.0,
            cost.write_rule as f64,
            "cycles",
        ));
        rows.push(Row::with_paper(
            format!("slot {position}: overall"),
            paper_overall,
            cost.total() as f64,
            "cycles",
        ));
    }
    Table {
        id: "table6",
        title: "EA-MPU configuration vs. first-free-slot position (18 slots, cycles)",
        note: "find-slot scales linearly with the slot position; check and write constant",
        rows,
    }
}

// ---------------------------------------------------------------- table 7

/// Measures a full RTM measurement of a `blocks`-block image with
/// `reloc_sites` relocated addresses.
pub fn measure_measurement(blocks: u32, reloc_sites: u32) -> u64 {
    measure_measurement_with(blocks, reloc_sites, MachineConfig::default())
}

/// Like [`measure_measurement`], on a machine built from `config`.
pub fn measure_measurement_with(blocks: u32, reloc_sites: u32, config: MachineConfig) -> u64 {
    let text_len = blocks * 64 - 24; // header is 24 bytes
    let sites: Vec<u32> = (0..reloc_sites).map(|i| i * 4).collect();
    let image = TaskImage::new(
        "measure-probe",
        true,
        0,
        vec![0u8; text_len as usize],
        vec![],
        0,
        64,
        sites,
    )
    .expect("valid image");
    let mut machine = Machine::new(config);
    machine
        .load_image(0x8000, &image.loadable_bytes())
        .expect("fits in RAM");
    let start = machine.cycles();
    let mut job: MeasureJob<Sha1> = MeasureJob::new(&image, 0x8000);
    loop {
        match job.step(&mut machine, 0, 8).expect("measures") {
            MeasureProgress::Done => break,
            MeasureProgress::InProgress { .. } => {}
        }
    }
    let _ = job.finish();
    machine.cycles() - start
}

/// Table 7: measurement runtime vs. memory size and relocated addresses.
pub fn table7_measurement() -> Table {
    let mut rows = Vec::new();
    for (blocks, paper) in [(1u32, 8_261.0), (2, 12_200.0), (4, 20_078.0), (8, 35_790.0)] {
        rows.push(Row::with_paper(
            format!("{blocks} block(s)"),
            paper,
            measure_measurement(blocks, 0) as f64,
            "cycles",
        ));
    }
    let base = measure_measurement(4, 0);
    for (sites, paper) in [(0u32, 114.0), (1, 680.0), (2, 1_188.0), (4, 2_187.0)] {
        let with_sites = measure_measurement(4, sites);
        // The paper's second sub-table reports the revert-handling cost;
        // a=0 still pays the constant setup (~100 cycles), which our model
        // charges inside the base measurement, so add it back for
        // comparability.
        let revert_cost = (with_sites - base) + 100;
        rows.push(Row::with_paper(
            format!("{sites} relocated address(es)"),
            paper,
            revert_cost as f64,
            "cycles",
        ));
    }
    Table {
        id: "table7",
        title: "RTM measurement vs. memory size (blocks) and relocated addresses (cycles)",
        note: "fits the paper's model T ≈ 4,300 + b·3,900 + 100 + a·500",
        rows,
    }
}

// ---------------------------------------------------------------- table 8

/// Table 8: OS memory consumption, FreeRTOS vs. TyTAN.
pub fn table8_memory() -> Table {
    let fp = footprint::footprint();
    let mut rows = vec![
        Row::with_paper("FreeRTOS image", 215_617.0, fp.freertos as f64, "bytes"),
        Row::with_paper("TyTAN image", 249_943.0, fp.tytan as f64, "bytes"),
        Row::with_paper("overhead", 15.92, fp.overhead_percent(), "%"),
    ];
    for c in footprint::components().iter().filter(|c| c.tytan_only) {
        rows.push(Row::measured_only(
            format!("  + {}", c.name),
            c.total() as f64,
            "bytes",
        ));
    }
    Table {
        id: "table8",
        title: "memory consumption of the OS image (no tasks loaded)",
        note: "component-level size model calibrated to the paper's totals; \
               per-component breakdown shown for auditability",
        rows,
    }
}

// ------------------------------------------------------------- secure IPC

/// Measured phases of one synchronous secure IPC send.
#[derive(Debug, Clone, Copy)]
pub struct IpcPhases {
    /// IPC proxy cycles (sender lookup, receiver lookup, mailbox write).
    pub proxy: u64,
    /// Receiver entry-routine cycles up to message-payload consumption.
    pub entry: u64,
}

/// The secure IPC receiver of the bench workloads: waits, consumes the
/// payload in its message entry routine.
fn ipc_receiver_source() -> TaskSource {
    SecureTaskBuilder::new(
        "receiver",
        "main:\nwait:\n jmp wait\n\
         on_message:\n movi r1, __mailbox\n ldw r2, [r1+16]\n\
         handled:\n jmp wait\n",
    )
    .handles_messages(true)
    .build()
    .expect("assembles")
}

/// The matching sender: sleeps three ticks (so measurement loops are
/// armed before the send), fires one synchronous `INT 0x30`, then parks
/// in a long delay loop so it never starves lower-priority tasks.
fn ipc_sender_source(receiver_id: TaskId) -> TaskSource {
    let (hi, lo) = receiver_id.to_register_words();
    SecureTaskBuilder::new(
        "sender",
        format!(
            "main:\n movi r1, SYS_DELAY\n movi r2, 3\n int SYS_VECTOR\n\
             movi r1, {hi:#010x}\n movi r2, {lo:#010x}\n\
             movi r3, 77\n movi r4, 0\n movi r5, 0\n movi r6, 1\n\
             int IPC_VECTOR\n\
             park:\n movi r1, SYS_DELAY\n movi r2, 100000\n int SYS_VECTOR\n jmp park\n"
        ),
    )
    .build()
    .expect("assembles")
}

fn task_identity(source: &TaskSource) -> TaskId {
    TaskId::from_digest(&<Sha1 as tytan_crypto::Digest>::digest(
        &source.image.measurement_bytes(),
    ))
}

/// Measures one synchronous guest-to-guest IPC send.
pub fn measure_ipc() -> IpcPhases {
    measure_ipc_with(MachineConfig::default())
}

/// Like [`measure_ipc`], on a machine built from `machine`.
pub fn measure_ipc_with(machine: MachineConfig) -> IpcPhases {
    let mut platform = boot_with(machine);
    let receiver = ipc_receiver_source();
    let receiver_id = task_identity(&receiver);
    let handled_off = receiver.symbol_offset("handled").expect("label");
    let sender = ipc_sender_source(receiver_id);

    let token = platform.begin_load(&receiver, 2);
    let (rh, _) = platform
        .wait_load(token, 400_000_000)
        .expect("receiver loads");
    let rbase = platform.task_base(rh).expect("loaded");
    let token = platform.begin_load(&sender, 3);
    platform
        .wait_load(token, 400_000_000)
        .expect("sender loads");

    // Run until the IPC trap arrives (the sender's INT 0x30 goes through
    // the Int Mux stub to the kernel trap with r0 = IPC vector).
    let t_arrive = loop {
        let arrived = run_until_kernel_trap_arrival(&mut platform);
        if platform.machine().reg(sp32::Reg::R0) as u8 == layout::IPC_VECTOR {
            break arrived;
        }
        platform.run_one_event(0).expect("service non-IPC trap");
    };
    platform.machine_mut().add_firmware_trap(rbase); // receiver entry
    platform
        .machine_mut()
        .add_firmware_trap(rbase + handled_off);
    platform.run_one_event(0).expect("service IPC trap");
    let t_at_entry = platform.machine().cycles();
    assert_eq!(
        platform.machine().eip(),
        rbase,
        "sync dispatch branched to entry"
    );
    platform.machine_mut().remove_firmware_trap(rbase);
    let t_handled = run_until_trap(&mut platform, rbase + handled_off);
    platform
        .machine_mut()
        .remove_firmware_trap(rbase + handled_off);

    IpcPhases {
        proxy: t_at_entry - t_arrive,
        entry: t_handled - t_at_entry,
    }
}

/// §6 "Secure IPC": proxy + receiver entry routine.
pub fn ipc_latency() -> Table {
    let phases = measure_ipc();
    Table {
        id: "ipc",
        title: "secure IPC latency (cycles)",
        note: "proxy = sender authentication, receiver lookup, mailbox write; \
               entry = receiver entry routine up to payload consumption",
        rows: vec![
            Row::with_paper("IPC proxy", 1_208.0, phases.proxy as f64, "cycles"),
            Row::with_paper(
                "receiver entry routine",
                116.0,
                phases.entry as f64,
                "cycles",
            ),
            Row::with_paper(
                "overall",
                1_324.0,
                (phases.proxy + phases.entry) as f64,
                "cycles",
            ),
        ],
    }
}

// --------------------------------------------------------- host throughput

fn engine_machine(engine: EngineKind, mpu_enabled: bool) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        engine,
        ..MachineConfig::default()
    });
    machine.set_mpu_enabled(mpu_enabled);
    machine
}

fn load_at_0x1000(machine: &mut Machine, source: &str) -> sp32::asm::Program {
    let program = sp32::asm::assemble(source, 0x1000).expect("assembles");
    machine
        .load_image(0x1000, &program.bytes)
        .expect("fits in RAM");
    machine.set_eip(0x1000);
    program
}

/// The plain compute loop: load, add, store and count over one RAM word.
fn busy_machine(engine: EngineKind, mpu_enabled: bool) -> Machine {
    let mut machine = engine_machine(engine, mpu_enabled);
    load_at_0x1000(
        &mut machine,
        "main:\n movi r1, 0x9000\n movi r2, 0\n\
         loop:\n ldw r3, [r1]\n add r3, r2\n stw [r1], r3\n addi r2, 1\n jmp loop\n",
    );
    machine
}

/// The busy loop under one rule covering its code and data, the
/// secure-task shape: every load and store is a checked access, where
/// the empty rule table of `mpu_on` compiles them to no check at all.
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

/// Every pass reads a sensor register and writes a UART register, so
/// device routing dominates.
fn mmio_machine() -> Machine {
    let mut machine = engine_machine(EngineKind::Translated, true);
    machine.add_device(Box::new(Sensor::new(0xf000_0110, 7)));
    machine.add_device(Box::new(Uart::new(0xf000_0200)));
    load_at_0x1000(
        &mut machine,
        "main:\n movi r1, 0xf0000110\n movi r2, 0xf0000200\n\
         loop:\n ldw r3, [r1]\n stw [r2], r3\n jmp loop\n",
    );
    machine
}

/// A counting loop under a timer interrupt every 200 cycles, taken
/// through the IDT.
fn irq_machine() -> Machine {
    let mut machine = engine_machine(EngineKind::Translated, true);
    let program = load_at_0x1000(
        &mut machine,
        "main:\n sti\nloop:\n addi r2, 1\n jmp loop\n\
         handler:\n addi r3, 1\n iret\n",
    );
    machine.set_reg(sp32::Reg::R7, 0x8000);
    machine.set_idt_base(0x40);
    machine
        .set_idt_entry(32, program.symbol("handler").expect("handler label"))
        .expect("IDT entry in RAM");
    let timer = machine.add_device(Box::new(Timer::new(0xf000_0000, 32)));
    machine
        .device_mut::<Timer>(timer)
        .expect("timer attached")
        .configure(200, true);
    machine
}

/// Self-modifying code: every pass stores the loop's first word back over
/// itself. Semantics never change, but the translator drops and
/// recompiles the loop block on every pass, its worst case.
fn smc_machine(engine: EngineKind) -> Machine {
    let mut machine = engine_machine(engine, true);
    load_at_0x1000(
        &mut machine,
        "main:\n movi r1, target\n ldw r2, [r1]\n\
         loop:\ntarget:\n addi r4, 1\n stw [r1], r2\n jmp loop\n",
    );
    machine
}

/// A workload label and the builder of its machine.
type EngineCase = (&'static str, fn() -> Machine);

/// The `engine_throughput` workloads, the block translator unless the
/// label ends in `_legacy`. `mpu_on` against `mpu_on_legacy` is the
/// translator speedup, so the two stay neighbours in every round.
const ENGINE_CASES: [EngineCase; 8] = [
    ("mpu_on", || busy_machine(EngineKind::Translated, true)),
    ("mpu_on_legacy", || busy_machine(EngineKind::Legacy, true)),
    ("mpu_off", || busy_machine(EngineKind::Translated, false)),
    ("mpu_rules", secure_task_machine),
    ("mmio_heavy", mmio_machine),
    ("irq_heavy", irq_machine),
    ("smc_thrash", || smc_machine(EngineKind::Translated)),
    ("smc_thrash_legacy", || smc_machine(EngineKind::Legacy)),
];

/// Measures the host-side simulation rate of one workload: guest
/// instructions retired per host wall-clock second on the machine `build`
/// returns, after a warm-up.
pub fn host_guest_ips(build: fn() -> Machine) -> f64 {
    let mut machine = build();
    let warmed = 100_000;
    while machine.stats().instructions < warmed {
        machine.run(50_000);
    }
    const INSTRUCTIONS: u64 = 2_000_000;
    let start_instr = machine.stats().instructions;
    let start = std::time::Instant::now();
    while machine.stats().instructions - start_instr < INSTRUCTIONS {
        machine.run(50_000);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (machine.stats().instructions - start_instr) as f64 / elapsed.max(1e-9)
}

/// Rounds behind each `engine_throughput` row; every row reports the
/// median over the rounds.
const ENGINE_PAIRS: usize = 5;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Compares execution-engine throughput over `ENGINE_CASES`: every case
/// is timed once per round, in `ENGINE_PAIRS` (5) rounds whose order
/// alternates, and reports its median. The derived `translator speedup`
/// (median of the per-round `mpu_on` over `mpu_on_legacy` ratios) is the
/// row the `--engine-floor` gate in `tables` asserts stays above a floor.
pub fn engine_throughput() -> Table {
    let mut samples = vec![Vec::with_capacity(ENGINE_PAIRS); ENGINE_CASES.len()];
    for round in 0..ENGINE_PAIRS {
        let mut order: Vec<usize> = (0..ENGINE_CASES.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for case in order {
            samples[case].push(host_guest_ips(ENGINE_CASES[case].1));
        }
    }
    let speedup = median(
        samples[0]
            .iter()
            .zip(&samples[1])
            .map(|(translated, legacy)| translated / legacy.max(1e-9))
            .collect(),
    );
    let mut rows: Vec<Row> = ENGINE_CASES
        .iter()
        .zip(samples)
        .map(|((label, _), samples)| Row::measured_only(*label, median(samples), "instr/s"))
        .collect();
    rows.push(Row::measured_only("translator speedup", speedup, "speedup"));
    Table {
        id: "engine_throughput",
        title: "execution-engine throughput (guest instructions per host second)",
        note: "host-side wall-clock metric, median of 5 rounds in alternating order; \
               block translator unless `_legacy`; speedup = median per-round ratio of \
               mpu_on over mpu_on_legacy, the same busy loop on the legacy reference",
        rows,
    }
}

// --------------------------------------------------------- lint throughput

/// The policy the shipped use-case images are verified against: one RW
/// window over the platform MMIO page (sensors + actuator at
/// `0xf000_0000..0xf000_0400`), no peers, default budgets.
pub fn usecase_lint_policy() -> LintPolicy {
    LintPolicy {
        windows: vec![(Region::new(0xf000_0000, 0x400), Perms::RW)],
        ..LintPolicy::default()
    }
}

/// The shipped use-case images the lint workload runs over.
fn lint_workload_images() -> Vec<TaskImage> {
    vec![
        spin_task("lint-spin").image,
        engine_control_source().image,
        radar_monitor_source(TaskId::from_u64(1)).image,
    ]
}

/// Measures the static verifier's throughput: full lint passes (CFG
/// recovery, EA-MPU conformance, stack and cycle bounds) per host second
/// over the shipped use-case images. Analysis is host-side, so the unit
/// is wall-clock, not guest cycles. Also asserts the shipped images lint
/// clean — the linter's own regression guard.
pub fn lint_throughput() -> Table {
    let images = lint_workload_images();
    let linter = Linter::new(usecase_lint_policy());

    let mut instructions = 0usize;
    for image in &images {
        let report = linter.lint(image);
        assert_eq!(
            report.count(Severity::Error),
            0,
            "shipped image `{}` must lint clean: {report}",
            report.image_name
        );
        instructions += report.stats.instructions;
    }

    // Warm, then time a fixed number of full passes over the image set.
    const PASSES: u32 = 200;
    for _ in 0..20 {
        for image in &images {
            let _ = linter.lint(image);
        }
    }
    let start = std::time::Instant::now();
    for _ in 0..PASSES {
        for image in &images {
            let _ = linter.lint(image);
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let images_per_sec = f64::from(PASSES) * images.len() as f64 / elapsed;

    Table {
        id: "lint_throughput",
        title: "static verifier throughput over the shipped use-case images",
        note: "host-side wall-clock metric (the verifier consumes zero guest cycles); \
               instructions = distinct reachable instructions across the image set",
        rows: vec![
            Row::measured_only("images linted", images_per_sec, "images/s"),
            Row::measured_only(
                "instructions analyzed",
                images_per_sec / images.len() as f64 * instructions as f64,
                "instr/s",
            ),
            Row::measured_only("image set size", images.len() as f64, "images"),
        ],
    }
}

// ------------------------------------------------------- trace + counters

/// The observed paper workload, shared by the trace export, the counter
/// snapshot, the latency tables, and the profiler: a spinning secure
/// worker, a secure IPC pair (one synchronous send through the proxy),
/// half a million cycles of scheduled execution under tick interrupts,
/// and a remote attestation. Runs the same guest sequence whether or not
/// a tracer/profiler is attached — the cycle-identity suite relies on it.
pub fn observed_workload_body(platform: &mut Platform) {
    let source = spin_task("traced");
    let token = platform.begin_load(&source, 2);
    let (_, id) = platform.wait_load(token, 400_000_000).expect("loads");
    let receiver = ipc_receiver_source();
    let receiver_id = task_identity(&receiver);
    let token = platform.begin_load(&receiver, 2);
    platform
        .wait_load(token, 400_000_000)
        .expect("receiver loads");
    let token = platform.begin_load(&ipc_sender_source(receiver_id), 3);
    platform
        .wait_load(token, 400_000_000)
        .expect("sender loads");
    platform.run_for(500_000).expect("runs");
    let _ = platform.remote_attest(id, b"bench-nonce").expect("attests");
    platform.flush_trace();
}

/// Runs the observed workload with `tracer` attached and returns the
/// platform.
fn traced_workload(tracer: Tracer) -> Platform {
    let mut platform = boot();
    platform.attach_tracer(tracer);
    observed_workload_body(&mut platform);
    platform
}

/// Latency distributions of the observed workload: interrupt-entry path,
/// context save/restore, IPC round-trip, attestation, and secure-load
/// phases, each as a log-linear histogram summary. `tables --json`
/// exports this as the `latency` object; the baseline gate diffs it.
pub fn latency_snapshot() -> Vec<(String, Summary)> {
    let tracer = Tracer::null();
    let _platform = traced_workload(tracer.clone());
    tracer.histograms().snapshot()
}

/// Runs the observed workload with the exact guest-cycle profiler
/// attached and returns the symbolized report: folded stacks for
/// flamegraph tooling (`tables --profile` writes `BENCH_profile.folded`),
/// hot-spot table, and named-coverage fraction.
pub fn profile_use_case() -> Report {
    let mut platform = boot();
    platform.attach_tracer(Tracer::null());
    let profiler = CycleProfiler::new(platform.machine().ram_size());
    platform.attach_profiler(profiler);
    observed_workload_body(&mut platform);
    platform.profile_report().expect("profiler attached")
}

/// The flat counter snapshot of the traced workload above, plus the
/// derived hit rates of the host-side caches: `block_hit_rate` (block
/// entries served from the translation cache rather than compiled) and
/// `eampu_cache_hit_rate`. `tables --json` merges this into
/// `BENCH_tables.json` as the `counters` object.
///
/// Under `TYTAN_EXEC_ENGINE=legacy` the block counters stay zero and both
/// rates report 0 — the legacy loop has no cache to measure.
pub fn fast_path_counters() -> Vec<(String, f64)> {
    // A deliberately small ring so the workload overflows it: the
    // drop-oldest shed count is itself a surfaced counter
    // (`trace_ring_dropped`), proving silent trace loss is visible.
    let ring = Arc::new(RingRecorder::new(1 << 8));
    let tracer = Tracer::new(ring.clone());
    let _platform = traced_workload(tracer.clone());

    // The lint counter group (images checked, findings by severity,
    // unproven sites) rides on the same registry: verify the shipped
    // use-case images so `tables --json` reports the group populated.
    let linter = Linter::with_tracer(usecase_lint_policy(), tracer.clone());
    for image in &lint_workload_images() {
        let _ = linter.lint(image);
    }

    let mut out: Vec<(String, f64)> = tracer
        .counters()
        .snapshot()
        .into_iter()
        .map(|(name, value)| (name, value as f64))
        .collect();
    let get = |name: &str| tracer.counters().get(name).unwrap_or(0) as f64;
    let rate = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    out.push((
        "block_hit_rate".to_string(),
        rate(get("emu_block_hit"), get("emu_block_compile")),
    ));
    out.push((
        "eampu_cache_hit_rate".to_string(),
        rate(
            get("eampu_access_cache_hit") + get("eampu_transfer_cache_hit"),
            get("eampu_access_cache_miss") + get("eampu_transfer_cache_miss"),
        ),
    ));
    out.push(("trace_ring_dropped".to_string(), ring.dropped() as f64));
    out
}

/// Runs the traced workload with an event recorder and exports the event
/// stream as Chrome `trace_event` JSON (one pid per layer, spans for IRQ
/// entry/exit, loader, IPC, and attestation phases) — loadable in
/// `chrome://tracing` or Perfetto. `tables --trace` writes this to
/// `BENCH_trace.json`.
pub fn chrome_trace_use_case() -> String {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let _platform = traced_workload(Tracer::new(ring.clone()));
    chrome::chrome_trace_json(&ring.events())
}

/// All experiments in paper order.
pub fn all() -> Vec<Table> {
    vec![
        table1_use_case(),
        table2_interrupt_save(),
        table3_interrupt_restore(),
        table4_task_create(),
        table5_relocation(),
        table6_eampu_config(),
        table7_measurement(),
        table8_memory(),
        ipc_latency(),
        ablation_hw_save(),
        lint_throughput(),
        engine_throughput(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let phases = measure_secure_save();
        let baseline = measure_baseline_save();
        // Store dominates wipe; wipe is nonzero only on TyTAN; overhead
        // positive — the paper's qualitative claims.
        assert!(phases.store > phases.wipe);
        assert!(phases.wipe > 0);
        assert!(phases.overall() > baseline);
        // Magnitudes near the paper's.
        assert!((20..=80).contains(&phases.store), "store {}", phases.store);
        assert!((8..=30).contains(&phases.wipe), "wipe {}", phases.wipe);
    }

    #[test]
    fn table3_shape_holds() {
        let secure = measure_secure_restore();
        let baseline = measure_baseline_restore();
        assert!(secure.restore > 0);
        assert!(
            secure.overall() > baseline.overall(),
            "secure restore {} > baseline {}",
            secure.overall(),
            baseline.overall()
        );
    }

    #[test]
    fn table4_shape_holds() {
        let secure = measure_task_create(true);
        let normal = measure_task_create(false);
        assert_eq!(normal.rtm_cycles, 0);
        assert!(secure.rtm_cycles > secure.reloc_cycles);
        assert!(secure.total_cycles() > normal.total_cycles());
        // Same order of magnitude as the paper's 642k / 209k.
        assert!((200_000..=2_000_000).contains(&secure.total_cycles()));
    }

    #[test]
    fn table5_is_linear() {
        let r0 = measure_relocation(0);
        let r1 = measure_relocation(1);
        let r2 = measure_relocation(2);
        let r4 = measure_relocation(4);
        let d1 = r1 - r0;
        assert_eq!(r2 - r1, d1, "constant per-site increment");
        assert_eq!(r4 - r2, 2 * d1);
        assert_eq!(r0, 37, "paper's n=0 fixed cost");
    }

    #[test]
    fn table6_matches_paper_exactly() {
        // The EA-MPU cost model is calibrated to Table 6.
        assert_eq!(measure_eampu_config(1).total(), 1_125);
        assert_eq!(measure_eampu_config(2).total(), 1_144);
        assert_eq!(measure_eampu_config(18).total(), 1_448);
    }

    #[test]
    fn table7_block_scaling() {
        let t1 = measure_measurement(1, 0);
        let t2 = measure_measurement(2, 0);
        let t4 = measure_measurement(4, 0);
        assert_eq!(t2 - t1, 3_900, "per-block cost");
        assert_eq!(t4 - t2, 2 * 3_900);
        let with_reloc = measure_measurement(4, 2);
        assert_eq!(with_reloc - t4, 2 * 500, "per-revert cost");
    }

    #[test]
    fn ipc_phases_positive_and_proxy_dominates() {
        let phases = measure_ipc();
        assert!(phases.proxy >= 1_208, "proxy includes the modelled body");
        assert!(phases.entry > 0);
        assert!(phases.proxy > phases.entry);
    }

    #[test]
    fn table8_round_trips() {
        let table = table8_memory();
        assert!(table.rows.iter().any(|r| r.label.contains("overhead")));
    }

    #[test]
    fn fast_path_counters_report_hit_rates() {
        let counters = fast_path_counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("counter {name} missing"))
        };
        for rate in ["block_hit_rate", "eampu_cache_hit_rate"] {
            let v = get(rate);
            assert!((0.0..=1.0).contains(&v), "{rate} out of range: {v}");
        }
        // The workload runs a spinning task for half a million cycles, so
        // the block translator serves nearly every block entry from its
        // cache. With the legacy loop (TYTAN_EXEC_ENGINE=legacy) there is
        // no cache and the rate legitimately reads 0.
        if sp_emu::MachineConfig::default().engine == sp_emu::EngineKind::Translated {
            assert!(get("emu_block_compile") > 0.0);
            assert!(get("block_hit_rate") > 0.9);
        }
        assert!(get("emu_instr_alu") > 0.0);
        assert!(get("emu_irq_entry") > 0.0, "tick interrupts fired");
        // The lint counter group rides on the same registry: the shipped
        // images were all checked and none produced an error finding.
        assert_eq!(get("lint_images_checked"), 3.0);
        assert_eq!(get("lint_findings_error"), 0.0);
    }

    #[test]
    fn latency_snapshot_covers_the_required_distributions() {
        let snapshot = latency_snapshot();
        let get = |name: &str| {
            snapshot
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("distribution {name} missing"))
        };
        // The acceptance floor: interrupt entry, context save/restore,
        // IPC round-trip, and load phases all measured on the workload.
        for name in [
            "lat_irq_entry",
            "lat_ctx_save",
            "lat_ctx_restore",
            "lat_ipc_rtt",
            "lat_attest",
            "lat_load_total",
        ] {
            let s = get(name);
            assert!(s.count > 0, "{name} recorded nothing");
            assert!(s.max >= s.p99 && s.p99 >= s.p50, "{name} quantiles ordered");
        }
        // Three loads → three samples per load-phase distribution.
        assert_eq!(get("lat_load_total").count, 3);
        // One synchronous send in the workload.
        assert_eq!(get("lat_ipc_rtt").count, 1);
        assert!(
            get("lat_ipc_rtt").max >= 1_208,
            "proxy body cycles included"
        );
    }

    #[test]
    fn use_case_profile_symbolizes_at_least_95_percent() {
        let report = profile_use_case();
        assert!(report.total > 500_000, "workload attributed its cycles");
        assert!(
            report.coverage() >= 0.95,
            "coverage {:.3} below the acceptance floor\n{}",
            report.coverage(),
            report.top(15)
        );
        let folded = report.folded();
        // Folded-stack lines parse as `stack cycles`.
        for line in folded.lines() {
            let (stack, cycles) = line.rsplit_once(' ').expect("two fields");
            assert!(!stack.is_empty());
            cycles.parse::<u64>().expect("cycle count");
        }
        // The workload's own frames are present and named.
        assert!(folded.contains("traced;"), "worker frames:\n{folded}");
        assert!(folded.contains("[trusted];"), "stub frames");
        assert!(folded.contains("[irq];"), "dispatch frames");
    }

    #[test]
    fn lint_throughput_reports_a_positive_rate() {
        let table = lint_throughput();
        assert_eq!(table.id, "lint_throughput");
        assert!(table.rows[0].measured > 0.0, "images/s must be positive");
        assert!(table.rows[1].measured > table.rows[0].measured);
    }

    #[test]
    fn chrome_trace_export_parses_and_covers_the_layers() {
        use tytan_trace::json::{parse, Value};

        let trace = chrome_trace_use_case();
        let doc = parse(&trace).expect("export is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let pids: Vec<f64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Value::as_number))
            .collect();
        // The EA-MPU layer (pid 2) reports through counters, not events;
        // emu, rtos, and core all emit spans or marks in this workload.
        for layer in [tytan_trace::Layer::Emu, tytan_trace::Layer::Rtos] {
            assert!(
                pids.contains(&f64::from(layer.pid())),
                "layer {} missing from export",
                layer.name()
            );
        }
        assert!(
            pids.contains(&f64::from(tytan_trace::Layer::Core.pid())),
            "core loader/attestation markers missing"
        );
    }

    #[test]
    fn chrome_trace_carries_the_scheduler_track() {
        use tytan_trace::json::{parse, Value};

        // `tables --trace` is the only export of the kernel's scheduling
        // decisions: dispatch instants and the tick counter track.
        let doc = parse(&chrome_trace_use_case()).expect("export is valid JSON");
        let rtos = f64::from(tytan_trace::Layer::Rtos.pid());
        let scheduler: Vec<(&str, &str)> = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("pid").and_then(Value::as_number) == Some(rtos))
            .filter_map(|e| Some((e.get("name")?.as_str()?, e.get("ph")?.as_str()?)))
            .collect();
        assert!(scheduler.contains(&("dispatch", "i")), "dispatch marks");
        assert!(scheduler.contains(&("tick", "C")), "tick counter track");
    }
}
