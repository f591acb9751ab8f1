//! Cycle-identity: the acceptance harness for the host execution
//! engines.
//!
//! Each test runs a representative paper workload once per
//! [`EngineKind`] — the block translation engine (the default) and the
//! legacy per-instruction reference loop — and asserts the *modelled*
//! results are bit-identical: final clock values, instruction/interrupt
//! counts, and every measured value that feeds a paper-table row. The
//! translator is a host-side optimisation only; if these diverge, it
//! changed the model.

use sp_emu::{EngineKind, MachineConfig};
use std::sync::Arc;
use tytan::platform::{Platform, PlatformConfig};
use tytan::usecase::CruiseControl;
use tytan_bench::experiments;
use tytan_profile::CycleProfiler;
use tytan_trace::{RingRecorder, Tracer};

fn with_engine(engine: EngineKind) -> MachineConfig {
    MachineConfig {
        engine,
        ..MachineConfig::default()
    }
}

fn legacy() -> MachineConfig {
    with_engine(EngineKind::Legacy)
}

fn translated() -> MachineConfig {
    with_engine(EngineKind::Translated)
}

#[test]
fn table4_secure_load_is_cycle_identical() {
    let report = |config| {
        let r = experiments::measure_task_create_with(true, config);
        (
            r.alloc_cycles,
            r.copy_cycles,
            r.reloc_cycles,
            r.mpu_cycles,
            r.mpu_primary_cycles,
            r.rtm_cycles,
            r.register_cycles,
            r.slices,
            r.started_at,
            r.finished_at,
            r.total_cycles(),
        )
    };
    assert_eq!(report(translated()), report(legacy()), "table 4 diverged");
}

#[test]
fn table5_relocation_is_cycle_identical() {
    for n in [0u32, 1, 2, 4] {
        assert_eq!(
            experiments::measure_relocation_with(n, translated()),
            experiments::measure_relocation_with(n, legacy()),
            "table 5 row ({n} addresses) diverged"
        );
    }
}

#[test]
fn table7_measurement_is_cycle_identical() {
    for (blocks, sites) in [(1u32, 0u32), (4, 0), (4, 2), (8, 0)] {
        assert_eq!(
            experiments::measure_measurement_with(blocks, sites, translated()),
            experiments::measure_measurement_with(blocks, sites, legacy()),
            "table 7 row ({blocks} blocks, {sites} sites) diverged"
        );
    }
}

#[test]
fn ipc_round_trip_is_cycle_identical() {
    let phases = |config| {
        let p = experiments::measure_ipc_with(config);
        (p.proxy, p.entry)
    };
    assert_eq!(
        phases(translated()),
        phases(legacy()),
        "IPC phases diverged"
    );
}

#[test]
fn tracing_is_cycle_neutral_on_cruise_control_slice() {
    // Same workload as `cruise_control_slice_is_cycle_identical`, but the
    // axis under test is the instrumentation: a fully-wired recorder
    // (machine, EA-MPU, kernel trace, core markers) against no tracer at
    // all, block translator on both sides. If recording an event or
    // bumping a counter ever ticked the machine or changed a decision,
    // these would diverge.
    let run = |traced: bool| {
        let config = PlatformConfig {
            machine: translated(),
            ..Default::default()
        };
        let mut platform: Platform = Platform::boot(config).expect("boots");
        if traced {
            platform.attach_tracer(Tracer::new(Arc::new(RingRecorder::new(1 << 16))));
        }
        let mut scenario = CruiseControl::install(&mut platform).expect("installs");
        platform.run_for(200_000).expect("warmup");
        let before = scenario
            .measure_window(&mut platform, 240_000)
            .expect("before");
        let _ = scenario.activate_cruise_control(&mut platform);
        let during = scenario
            .measure_window(&mut platform, 240_000)
            .expect("during");
        (
            before,
            during,
            platform.machine().cycles(),
            platform.machine().stats(),
        )
    };
    assert_eq!(run(true), run(false), "tracing changed guest cycles");
}

#[test]
fn profiling_is_cycle_neutral_on_cruise_control_slice() {
    // Same workload again, but the axis under test is the *profiling*
    // plane: a per-EIP cycle profiler attached as a CycleObserver plus the
    // latency histograms (registered by attach_tracer, fed by the kernel
    // trap path) against a completely bare platform. Both the observer
    // callbacks and every histogram record are host-side only; any
    // divergence here means attribution ticked the guest clock.
    let run = |profiled: bool| {
        let config = PlatformConfig {
            machine: translated(),
            ..Default::default()
        };
        let mut platform: Platform = Platform::boot(config).expect("boots");
        let attached_at = platform.machine().cycles();
        if profiled {
            platform.attach_tracer(Tracer::null());
            platform.attach_profiler(CycleProfiler::new(platform.machine().ram_size()));
        }
        let mut scenario = CruiseControl::install(&mut platform).expect("installs");
        platform.run_for(200_000).expect("warmup");
        let before = scenario
            .measure_window(&mut platform, 240_000)
            .expect("before");
        let _ = scenario.activate_cruise_control(&mut platform);
        let during = scenario
            .measure_window(&mut platform, 240_000)
            .expect("during");
        if profiled {
            // Exactness, not just neutrality: every cycle since attach is
            // attributed to exactly one bucket.
            let report = platform.profile_report().expect("profiler attached");
            assert_eq!(
                report.total + attached_at,
                platform.machine().cycles(),
                "profiler lost or double-counted cycles"
            );
        }
        (
            before,
            during,
            platform.machine().cycles(),
            platform.machine().stats(),
        )
    };
    assert_eq!(run(true), run(false), "profiling changed guest cycles");
}

#[test]
fn cruise_control_slice_is_cycle_identical() {
    // A slice of the Table 1 use case: boot, install t0/t1, measure a
    // window, then measure a second window while t2 loads interruptibly —
    // ticks, sensor IRQs, the loader, and the RTM all active at once.
    let run = |machine: MachineConfig| {
        let config = PlatformConfig {
            machine,
            ..Default::default()
        };
        let mut platform: Platform = Platform::boot(config).expect("boots");
        let mut scenario = CruiseControl::install(&mut platform).expect("installs");
        platform.run_for(200_000).expect("warmup");
        let before = scenario
            .measure_window(&mut platform, 240_000)
            .expect("before");
        let _ = scenario.activate_cruise_control(&mut platform);
        let during = scenario
            .measure_window(&mut platform, 240_000)
            .expect("during");
        (
            before,
            during,
            platform.machine().cycles(),
            platform.machine().stats(),
        )
    };
    assert_eq!(
        run(translated()),
        run(legacy()),
        "cruise-control slice diverged"
    );
}
