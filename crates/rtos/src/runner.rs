//! The baseline platform: unmodified-FreeRTOS semantics.
//!
//! [`Runner`] wires a [`Machine`], the [`Kernel`], the baseline interrupt
//! stubs and a tick timer into the platform the paper compares TyTAN
//! against (the "FreeRTOS" rows of Tables 2, 3, 4 and 8): static task
//! configuration at boot, normal tasks only, no EA-MPU enforcement, no
//! register wiping on interrupts.

use crate::kernel::{Kernel, KernelConfig, KernelError};
use crate::layout;
use crate::stubs::{build_stub_block, StubBlock, StubKind, StubSpec};
use crate::tcb::{TaskHandle, TaskKind, TcbParams};
use eampu::Region;
use sp32::asm::{assemble, AssembleError, Program};
use sp32::Reg;
use sp_emu::devices::{Timer, Uart};
use sp_emu::{Event, Fault, Machine, MachineConfig};
use std::collections::BTreeMap;
use std::fmt;

/// Construction parameters for the baseline platform.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Machine parameters.
    pub machine: MachineConfig,
    /// Cycles between kernel ticks (e.g. 32,000 cycles = 1.5 kHz at the
    /// paper's 48 MHz clock).
    pub tick_interval: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            machine: MachineConfig::default(),
            tick_interval: 32_000,
        }
    }
}

/// A statically-configured task, loaded at boot (the TrustLite model the
/// paper contrasts with TyTAN's dynamic loading).
#[derive(Debug, Clone)]
pub struct StaticTask {
    /// Task name.
    pub name: String,
    /// Scheduling priority.
    pub priority: u8,
    /// SP32 assembly with a `main:` label; assembled in place at the
    /// task's load address.
    pub source: String,
    /// Stack size in bytes.
    pub stack_len: u32,
}

/// Errors from the baseline platform.
#[derive(Debug)]
pub enum RunnerError {
    /// Task source failed to assemble.
    Assemble(AssembleError),
    /// A kernel operation failed.
    Kernel(KernelError),
    /// The machine faulted.
    Fault(Fault),
    /// Execution reached an unregistered firmware trap.
    UnexpectedTrap(u32),
    /// The task heap is exhausted.
    OutOfMemory,
    /// The task source does not define `main`.
    NoMain,
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Assemble(e) => write!(f, "assembly failed: {e}"),
            RunnerError::Kernel(e) => write!(f, "kernel error: {e}"),
            RunnerError::Fault(fault) => write!(f, "machine fault: {fault}"),
            RunnerError::UnexpectedTrap(addr) => write!(f, "unexpected trap at {addr:#010x}"),
            RunnerError::OutOfMemory => write!(f, "task heap exhausted"),
            RunnerError::NoMain => write!(f, "task source defines no `main` label"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<AssembleError> for RunnerError {
    fn from(e: AssembleError) -> Self {
        RunnerError::Assemble(e)
    }
}

impl From<KernelError> for RunnerError {
    fn from(e: KernelError) -> Self {
        RunnerError::Kernel(e)
    }
}

impl From<Fault> for RunnerError {
    fn from(e: Fault) -> Self {
        RunnerError::Fault(e)
    }
}

/// The baseline FreeRTOS-like platform.
///
/// # Examples
///
/// See the crate-level example; typical use is `new` → `add_task`… →
/// `start` → `run_for`.
#[derive(Debug)]
pub struct Runner {
    machine: Machine,
    kernel: Kernel,
    stubs: StubBlock,
    programs: BTreeMap<TaskHandle, Program>,
    next_base: u32,
    started: bool,
}

impl Runner {
    /// Boots the platform: loads the baseline interrupt stubs, programs
    /// the IDT, and attaches the tick timer and UART.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Fault`] if boot-time memory writes fail.
    pub fn new(config: RunnerConfig) -> Result<Self, RunnerError> {
        let mut machine = Machine::new(config.machine.clone());
        // Baseline platform: no EA-MPU (the paper's comparison rows run on
        // the unmodified platform).
        machine.set_mpu_enabled(false);

        let specs = [
            StubSpec {
                vector: layout::TICK_VECTOR,
                kind: StubKind::Baseline,
            },
            StubSpec {
                vector: layout::SYSCALL_VECTOR,
                kind: StubKind::Baseline,
            },
        ];
        let stubs = build_stub_block(layout::KERNEL_BASE, layout::KERNEL_TRAP, &specs)
            .expect("stub generation is infallible for valid specs");
        machine.load_image(layout::KERNEL_BASE, &stubs.program.bytes)?;
        machine.add_firmware_trap(layout::KERNEL_TRAP);

        machine.set_idt_base(layout::IDT_BASE);
        machine.set_idt_entry(layout::TICK_VECTOR, stubs.save_stubs[&layout::TICK_VECTOR])?;
        machine.set_idt_entry(
            layout::SYSCALL_VECTOR,
            stubs.save_stubs[&layout::SYSCALL_VECTOR],
        )?;

        let mut timer = Timer::new(layout::TIMER_BASE, layout::TICK_VECTOR);
        timer.configure(config.tick_interval, true);
        machine.add_device(Box::new(timer));
        machine.add_device(Box::new(Uart::new(layout::UART_BASE)));

        let kernel = Kernel::new(KernelConfig {
            restore_stub: stubs.restore_stub,
            idle_addr: stubs.idle,
            kernel_stack_top: layout::KERNEL_STACK_TOP,
            kernel_actor: layout::KERNEL_BASE,
            num_priorities: 8,
        });

        Ok(Runner {
            machine,
            kernel,
            stubs,
            programs: BTreeMap::new(),
            next_base: layout::HEAP_BASE,
            started: false,
        })
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (inspection, device access).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the kernel.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The assembled stub block (for phase-boundary addresses in benches).
    pub fn stubs(&self) -> &StubBlock {
        &self.stubs
    }

    /// Assembles `task.source` at the next free heap address and creates
    /// the task.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Assemble`] for bad source,
    /// [`RunnerError::NoMain`] if `main` is missing,
    /// [`RunnerError::OutOfMemory`] when the heap is exhausted.
    pub fn add_task(&mut self, task: StaticTask) -> Result<TaskHandle, RunnerError> {
        let base = self.next_base;
        let program = assemble(&task.source, base)?;
        let entry = program.symbol("main").ok_or(RunnerError::NoMain)?;
        let code_len = (program.bytes.len() as u32 + 3) & !3;
        let total = code_len + task.stack_len;
        if base + total > layout::HEAP_END {
            return Err(RunnerError::OutOfMemory);
        }
        self.machine.load_image(base, &program.bytes)?;
        let stack_top = base + total;
        let handle = self.kernel.create_task(
            &mut self.machine,
            TcbParams {
                name: task.name,
                priority: task.priority,
                entry,
                stack_top,
                code: Region::new(base, code_len),
                data: Region::new(base + code_len, task.stack_len),
                kind: TaskKind::Normal,
            },
        )?;
        self.programs.insert(handle, program);
        self.next_base = base + total;
        Ok(handle)
    }

    /// Resolves a label inside a task's program to its absolute address.
    pub fn task_symbol(&self, handle: TaskHandle, label: &str) -> Option<u32> {
        self.programs.get(&handle)?.symbol(label)
    }

    /// Dispatches the first task. Call once after all [`Runner::add_task`]
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns a kernel error from the first dispatch.
    pub fn start(&mut self) -> Result<(), RunnerError> {
        if !self.started {
            self.kernel.dispatch(&mut self.machine)?;
            self.started = true;
        }
        Ok(())
    }

    /// Runs the platform for `cycles` machine cycles, servicing kernel
    /// traps.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Fault`] if guest code faults, or
    /// [`RunnerError::UnexpectedTrap`] for a trap the runner does not own.
    pub fn run_for(&mut self, cycles: u64) -> Result<(), RunnerError> {
        assert!(self.started, "call start() before run_for()");
        let deadline = self.machine.cycles().saturating_add(cycles);
        while self.machine.cycles() < deadline {
            let budget = deadline - self.machine.cycles();
            match self.machine.run(budget) {
                Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                    self.handle_kernel_trap()?;
                }
                Event::FirmwareTrap { addr } => return Err(RunnerError::UnexpectedTrap(addr)),
                Event::Fault(fault) => return Err(RunnerError::Fault(fault)),
                Event::BudgetExhausted | Event::IdleBudgetExhausted => {}
            }
        }
        Ok(())
    }

    /// Runs until the next machine event; kernel traps are serviced,
    /// other firmware traps (benchmark phase boundaries) are returned
    /// unserviced for the caller to timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Fault`] if guest code faults.
    pub fn run_one_event(&mut self, max_cycles: u64) -> Result<Event, RunnerError> {
        if !self.started {
            self.start()?;
        }
        let event = self.machine.run(max_cycles);
        match event {
            Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                self.handle_kernel_trap()?;
            }
            Event::Fault(fault) => return Err(RunnerError::Fault(fault)),
            _ => {}
        }
        Ok(event)
    }

    fn handle_kernel_trap(&mut self) -> Result<(), RunnerError> {
        let vector = self.machine.reg(Reg::R0) as u8;
        let caller = self.kernel.current();
        self.kernel.save_current(&self.machine);
        match vector {
            layout::TICK_VECTOR => {
                let now = self.machine.cycles();
                self.kernel.on_tick(now);
            }
            layout::SYSCALL_VECTOR => {
                if let Some(caller) = caller {
                    let _ = self.kernel.handle_syscall(&mut self.machine, caller);
                }
            }
            _ => {}
        }
        self.kernel.dispatch(&mut self.machine)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::syscall;
    use std::sync::Arc;
    use tytan_trace::{EventKind, Layer, RingRecorder, Tracer};

    /// A task that increments a counter forever.
    fn counter_task(name: &str, priority: u8) -> StaticTask {
        StaticTask {
            name: name.into(),
            priority,
            source: "main:\n movi r1, counter\n\
                     loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n jmp loop\n\
                     counter:\n .word 0\n"
                .to_string(),
            stack_len: 256,
        }
    }

    #[test]
    fn single_task_runs_and_counts() {
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let h = r.add_task(counter_task("count", 1)).unwrap();
        r.start().unwrap();
        r.run_for(200_000).unwrap();
        let counter_addr = r.task_symbol(h, "counter").unwrap();
        let count = r.machine_mut().read_word(counter_addr).unwrap();
        assert!(count > 1_000, "counter advanced: {count}");
    }

    #[test]
    fn two_equal_priority_tasks_share_cpu() {
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let a = r.add_task(counter_task("a", 1)).unwrap();
        let b = r.add_task(counter_task("b", 1)).unwrap();
        r.start().unwrap();
        r.run_for(2_000_000).unwrap();
        let ca_addr = r.task_symbol(a, "counter").unwrap();
        let ca = r.machine_mut().read_word(ca_addr).unwrap();
        let cb_addr = r.task_symbol(b, "counter").unwrap();
        let cb = r.machine_mut().read_word(cb_addr).unwrap();
        assert!(ca > 0 && cb > 0, "both progressed: {ca} {cb}");
        let ratio = ca as f64 / cb as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "roughly fair split: {ca} vs {cb}"
        );
    }

    #[test]
    fn higher_priority_task_starves_lower() {
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let hi = r.add_task(counter_task("hi", 5)).unwrap();
        let lo = r.add_task(counter_task("lo", 1)).unwrap();
        r.start().unwrap();
        r.run_for(1_000_000).unwrap();
        let chi_addr = r.task_symbol(hi, "counter").unwrap();
        let chi = r.machine_mut().read_word(chi_addr).unwrap();
        let clo_addr = r.task_symbol(lo, "counter").unwrap();
        let clo = r.machine_mut().read_word(clo_addr).unwrap();
        assert!(chi > 1_000);
        assert_eq!(clo, 0, "lower priority never ran");
    }

    #[test]
    fn delay_syscall_yields_cpu_to_other_task() {
        // Task a delays every iteration; task b runs free. b should vastly
        // outpace a.
        let delaying = StaticTask {
            name: "a".into(),
            priority: 1,
            source: format!(
                "main:\n movi r1, counter\n\
                 loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n\
                 movi r1, {op}\n movi r2, 1\n int {vec:#x}\n\
                 movi r1, counter\n jmp loop\n\
                 counter:\n .word 0\n",
                op = syscall::DELAY,
                vec = layout::SYSCALL_VECTOR,
            ),
            stack_len: 256,
        };
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let a = r.add_task(delaying).unwrap();
        let b = r.add_task(counter_task("b", 1)).unwrap();
        r.start().unwrap();
        r.run_for(1_000_000).unwrap();
        let ca_addr = r.task_symbol(a, "counter").unwrap();
        let ca = r.machine_mut().read_word(ca_addr).unwrap();
        let cb_addr = r.task_symbol(b, "counter").unwrap();
        let cb = r.machine_mut().read_word(cb_addr).unwrap();
        assert!(ca >= 1, "delaying task made progress: {ca}");
        assert!(cb > ca * 10, "free-running task dominates: {ca} vs {cb}");
    }

    #[test]
    fn idle_when_all_tasks_blocked() {
        let sleeper = StaticTask {
            name: "s".into(),
            priority: 1,
            source: format!(
                "main:\n movi r1, {op}\n movi r2, 100\n int {vec:#x}\n jmp main\n",
                op = syscall::DELAY,
                vec = layout::SYSCALL_VECTOR,
            ),
            stack_len: 256,
        };
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let ring = Arc::new(RingRecorder::new(4096));
        r.kernel_mut().attach_tracer(Tracer::new(ring.clone()));
        r.add_task(sleeper).unwrap();
        r.start().unwrap();
        r.run_for(500_000).unwrap();
        let idles = ring
            .events()
            .iter()
            .filter(|e| e.layer == Layer::Rtos && e.kind == EventKind::Mark("idle"))
            .count();
        assert!(idles > 0, "platform idled while the task slept");
    }

    #[test]
    fn tick_count_advances_with_time() {
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        r.add_task(counter_task("t", 1)).unwrap();
        r.start().unwrap();
        r.run_for(10 * 32_000).unwrap();
        let ticks = r.kernel().tick_count();
        assert!((8..=12).contains(&ticks), "~10 ticks elapsed, got {ticks}");
    }

    #[test]
    fn out_of_memory_detected() {
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let huge = StaticTask {
            name: "huge".into(),
            priority: 1,
            source: "main:\n hlt\n".into(),
            stack_len: layout::HEAP_END - layout::HEAP_BASE,
        };
        assert!(matches!(r.add_task(huge), Err(RunnerError::OutOfMemory)));
    }

    #[test]
    fn missing_main_rejected() {
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        let nomain = StaticTask {
            name: "x".into(),
            priority: 1,
            source: "start:\n hlt\n".into(),
            stack_len: 64,
        };
        assert!(matches!(r.add_task(nomain), Err(RunnerError::NoMain)));
    }
}
