//! Cycle-annotated functional simulator of a Siskiyou-Peak-like core.
//!
//! The TyTAN paper (DAC 2015) implements its security architecture on Intel
//! Siskiyou Peak: a low-power 32-bit core with a flat physical addressing
//! model, memory-mapped I/O, and a hardware exception engine that saves
//! `EIP`/`EFLAGS` to the interrupted task's stack and vectors through an
//! IDT. This crate rebuilds that platform in software (the repository's
//! hardware substitution, see DESIGN.md):
//!
//! - [`Machine`] — the core: registers, flat RAM, the EA-MPU (from the
//!   [`eampu`] crate) checked on every guest access and control transfer,
//!   the IDT-based exception engine, and a cycle counter driven by the
//!   [`CycleModel`].
//! - [`Device`] / [`devices`] — MMIO peripherals: the RTOS tick [`devices::Timer`],
//!   a [`devices::Uart`], and the automotive [`devices::Sensor`]s and
//!   [`devices::Actuator`] of the paper's use case.
//! - **Firmware traps** — the mechanism by which trusted software
//!   components (the RTOS kernel, TyTAN's Int Mux, IPC proxy, RTM, …) are
//!   modelled: the platform registers trap addresses, the machine pauses
//!   with [`Event::FirmwareTrap`] when guest control reaches one, and the
//!   host-side component manipulates machine state and charges cycles via
//!   [`Machine::tick`] before resuming. Short trusted routines (context
//!   save/restore, task entry) are instead real SP32 code, so their cycle
//!   counts come from the instruction stream.
//!
//! # Examples
//!
//! Run a guest program to completion:
//!
//! ```
//! use sp32::asm::assemble;
//! use sp_emu::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(MachineConfig::default());
//! let program = assemble("movi r0, 1\nmovi r1, 2\nadd r0, r1\nhlt\n", 0x1000)?;
//! machine.load_image(0x1000, &program.bytes)?;
//! machine.set_eip(0x1000);
//! machine.run(1_000);
//! assert_eq!(machine.reg(sp32::Reg::R0), 3);
//! # Ok(())
//! # }
//! ```

pub mod cfa;
mod cycles;
mod device;
pub mod devices;
mod engine;
mod machine;
mod ram;

pub use cfa::{CfMonitor, CF_LOG_CAP, OUT_OF_REGION};
pub use cycles::{CycleModel, FirmwareCosts};
pub use device::Device;
pub use engine::{core_for, CpuCore, LegacyCore, TranslatedCore};
pub use machine::{
    engine_from_env, CycleObserver, DispatchStamp, EngineKind, Event, Fault, Machine,
    MachineConfig, MachineSnapshot, MachineStats,
};
