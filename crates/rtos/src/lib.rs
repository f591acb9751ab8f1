//! A FreeRTOS-like real-time kernel for the simulated TyTAN platform.
//!
//! TyTAN builds on FreeRTOS ported to Siskiyou Peak (§4). This crate is the
//! reproduction's kernel substrate, providing the seven real-time-OS
//! properties the paper lists: (1) multi-tasking, (2) priority-based
//! pre-emptive scheduling, (3) bounded execution time for primitives,
//! (4) a high-resolution real-time clock (the cycle counter), (5) alarms
//! and time-outs ([`SoftTimer`]), (6) real-time queuing ([`MessageQueue`]),
//! and (7) delaying/suspending of tasks.
//!
//! The kernel keeps no event history of its own. Deadline analysis reads
//! scheduling decisions from the shared cross-layer tracer: with one
//! attached ([`Kernel::attach_tracer`]), every dispatch, idle entry, tick
//! and task lifecycle change is an `rtos`-layer event on the same Chrome
//! trace as the emulator's IRQ spans and the core layer's loader markers.
//!
//! The kernel is *trusted-firmware style* code: it runs host-side when the
//! machine pauses at the kernel trap address, manipulates guest state
//! through the [`sp_emu::Machine`] API, and charges its modelled cycle
//! costs to the same clock guest code runs on. Low-level context save and
//! restore execute as real SP32 stubs (see [`stubs`]), so their cycle
//! counts — the quantities Tables 2 and 3 of the paper report — come from
//! the instruction stream.
//!
//! [`Runner`] packages a machine plus kernel into the *baseline* platform
//! of the paper's comparison rows: unmodified-FreeRTOS semantics, normal
//! tasks only, no EA-MPU enforcement. The TyTAN platform in the `tytan`
//! crate extends the same kernel with secure tasks, the Int Mux, secure
//! IPC, and dynamic loading.
//!
//! # Examples
//!
//! ```
//! use rtos::{Runner, RunnerConfig, StaticTask};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut runner = Runner::new(RunnerConfig::default())?;
//! runner.add_task(StaticTask {
//!     name: "count".into(),
//!     priority: 1,
//!     source: "main:\n movi r1, counter\n\
//!              loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n jmp loop\n\
//!              counter:\n .word 0\n"
//!         .into(),
//!     stack_len: 256,
//! })?;
//! runner.start()?;
//! runner.run_for(100_000)?;
//! # Ok(())
//! # }
//! ```

pub mod kernel;
pub mod layout;
pub mod queue;
pub mod runner;
pub mod stubs;
pub mod sync;
pub mod timer;

mod tcb;

pub use kernel::{Kernel, KernelConfig, KernelError, SyscallOutcome};
pub use queue::{MessageQueue, QueueError, QueueId};
pub use runner::{Runner, RunnerConfig, RunnerError, StaticTask};
pub use sync::{SemOp, Semaphore, SemaphoreId};
pub use tcb::{TaskHandle, TaskKind, TaskState, Tcb, TcbParams};
pub use timer::{SoftTimer, TimerAction, TimerId};
