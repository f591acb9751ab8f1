//! The kernel: task table, scheduler, tick, syscalls, queues, timers.

use crate::layout;
use crate::queue::{MessageQueue, QueueError, QueueId, QueueOp};
use crate::sync::{SemOp, Semaphore, SemaphoreId};
use crate::tcb::{TaskHandle, TaskKind, TaskState, Tcb, TcbParams};
use crate::timer::{SoftTimer, TimerAction, TimerId};
use sp32::{Reg, EFLAGS_IF};
use sp_emu::{Fault, Machine};
use std::collections::VecDeque;
use std::fmt;
use tytan_trace::{EventKind, Layer, Tracer};

/// Invocation-reason values passed to a secure task's entry routine in
/// `r0` (§4: "TyTAN provides this information in a CPU register, which is
/// checked by the entry routine").
pub mod entry_reason {
    /// The task is being (re)started for the first time.
    pub const START: u32 = 0;
    /// The task is resumed after an interrupt; restore context from stack.
    pub const RESUME: u32 = 1;
    /// The task is invoked to receive an IPC message.
    pub const MESSAGE: u32 = 2;
}

/// Syscall opcodes, passed in `r1` with `INT` [`layout::SYSCALL_VECTOR`].
pub mod syscall {
    /// Give up the CPU for this scheduling round.
    pub const YIELD: u32 = 0;
    /// Sleep for `r2` ticks.
    pub const DELAY: u32 = 1;
    /// Suspend the calling task until another party resumes it.
    pub const SUSPEND: u32 = 2;
    /// Send `r3` to queue `r2`; blocks when full.
    pub const QUEUE_SEND: u32 = 3;
    /// Receive from queue `r2` into `r0`; blocks when empty.
    pub const QUEUE_RECV: u32 = 4;
    /// Read the kernel tick count into `r0`.
    pub const TICKS: u32 = 5;
    /// Take a permit from semaphore `r2`; blocks when none available.
    pub const SEM_TAKE: u32 = 6;
    /// Give a permit to semaphore `r2`.
    pub const SEM_GIVE: u32 = 7;
}

/// Kernel construction parameters (addresses come from the stub block).
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Address of the normal-task context-restore stub.
    pub restore_stub: u32,
    /// Address of the idle loop.
    pub idle_addr: u32,
    /// Stack used while idling (no task context live).
    pub kernel_stack_top: u32,
    /// An address inside the kernel's code region, used as the EA-MPU
    /// actor for kernel memory accesses.
    pub kernel_actor: u32,
    /// Number of priority levels.
    pub num_priorities: u8,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            restore_stub: layout::KERNEL_BASE,
            idle_addr: layout::KERNEL_BASE,
            kernel_stack_top: layout::KERNEL_STACK_TOP,
            kernel_actor: layout::KERNEL_BASE,
            num_priorities: 8,
        }
    }
}

/// Errors from kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The handle does not name a live task.
    NoSuchTask,
    /// The priority exceeds the configured range.
    BadPriority(u8),
    /// A machine access failed while manipulating task state.
    Machine(Fault),
    /// The queue id does not name a queue.
    Queue(QueueError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchTask => write!(f, "no such task"),
            KernelError::BadPriority(p) => write!(f, "priority {p} out of range"),
            KernelError::Machine(fault) => write!(f, "machine fault: {fault}"),
            KernelError::Queue(e) => write!(f, "queue error: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<Fault> for KernelError {
    fn from(fault: Fault) -> Self {
        KernelError::Machine(fault)
    }
}

impl From<QueueError> for KernelError {
    fn from(e: QueueError) -> Self {
        KernelError::Queue(e)
    }
}

/// What the syscall handler decided (the platform uses this for tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// The caller stays ready (yield, ticks, completed queue op).
    Continue,
    /// The caller blocked.
    Blocked,
    /// The opcode was unknown; the caller stays ready.
    Unknown(u32),
}

/// The RTOS kernel.
///
/// Owns the task table, per-priority ready queues, the tick counter,
/// message queues and software timers. Scheduling decisions are reported
/// as `rtos`-layer events to the tracer attached with
/// [`Kernel::attach_tracer`]; without one nothing is recorded. All
/// operations are bounded-time in the number of tasks/timers (paper §4,
/// requirement 3).
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    tasks: Vec<Option<Tcb>>,
    ready: Vec<VecDeque<TaskHandle>>,
    current: Option<TaskHandle>,
    tick: u64,
    queues: Vec<MessageQueue>,
    semaphores: Vec<Semaphore>,
    timers: Vec<SoftTimer>,
    tracer: Option<Tracer>,
}

impl Kernel {
    /// Creates an empty kernel.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_priorities` is zero.
    pub fn new(config: KernelConfig) -> Self {
        assert!(
            config.num_priorities > 0,
            "need at least one priority level"
        );
        let ready = (0..config.num_priorities)
            .map(|_| VecDeque::new())
            .collect();
        Kernel {
            config,
            tasks: Vec::new(),
            ready,
            current: None,
            tick: 0,
            queues: Vec::new(),
            semaphores: Vec::new(),
            timers: Vec::new(),
            tracer: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The kernel tick counter.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// The currently running task, if any.
    pub fn current(&self) -> Option<TaskHandle> {
        self.current
    }

    /// Borrows a task control block.
    pub fn task(&self, handle: TaskHandle) -> Option<&Tcb> {
        self.tasks.get(handle.0).and_then(|t| t.as_ref())
    }

    /// Mutably borrows a task control block.
    pub fn task_mut(&mut self, handle: TaskHandle) -> Option<&mut Tcb> {
        self.tasks.get_mut(handle.0).and_then(|t| t.as_mut())
    }

    /// Handles of all live tasks.
    pub fn handles(&self) -> Vec<TaskHandle> {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|_| TaskHandle(i)))
            .collect()
    }

    /// Finds the task whose code region contains `addr` (sender
    /// identification for the IPC proxy: the hardware reports the
    /// interrupt origin, the proxy maps it to a task).
    pub fn find_by_code_addr(&self, addr: u32) -> Option<TaskHandle> {
        self.tasks.iter().enumerate().find_map(|(i, t)| {
            t.as_ref()
                .filter(|tcb| tcb.params.code.contains(addr))
                .map(|_| TaskHandle(i))
        })
    }

    /// Reports every subsequent scheduling decision to `tracer` as an
    /// `rtos`-layer event: dispatches and task lifecycle marks
    /// (`dispatch`, `task_created`, `task_deleted`, `task_blocked`,
    /// `task_suspended`, `task_resumed`) on the task's track, `tick`
    /// values and `idle` marks on track 0.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    fn emit(&self, tid: u32, cycle: u64, kind: EventKind) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(Layer::Rtos, tid, cycle, kind);
        }
    }

    fn mark_task(&self, handle: TaskHandle, cycle: u64, name: &'static str) {
        self.emit(handle.index() as u32, cycle, EventKind::Mark(name));
    }

    // ----- task lifecycle -----

    /// Creates a task and makes it ready.
    ///
    /// For a normal task the kernel prepares the initial interrupt frame
    /// on the task's stack "as if it had been executed before and was
    /// interrupted" (§4), so the ordinary restore path starts it. Secure
    /// task stacks are untouchable; they start through their entry routine
    /// with [`entry_reason::START`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadPriority`] or a machine fault from the
    /// stack preparation.
    pub fn create_task(
        &mut self,
        machine: &mut Machine,
        params: TcbParams,
    ) -> Result<TaskHandle, KernelError> {
        if params.priority >= self.config.num_priorities {
            return Err(KernelError::BadPriority(params.priority));
        }
        let mut tcb = Tcb::new(params);
        if tcb.params.kind == TaskKind::Normal {
            let sp = self.prepare_initial_frame(machine, &tcb)?;
            tcb.saved_sp = sp;
            tcb.started = true;
        }
        machine.tick(machine.firmware_costs().stack_prepare);

        let slot = self.tasks.iter().position(|t| t.is_none());
        let handle = match slot {
            Some(i) => {
                self.tasks[i] = Some(tcb);
                TaskHandle(i)
            }
            None => {
                self.tasks.push(Some(tcb));
                TaskHandle(self.tasks.len() - 1)
            }
        };
        self.make_ready(handle)?;
        self.mark_task(handle, machine.cycles(), "task_created");
        Ok(handle)
    }

    fn prepare_initial_frame(&self, machine: &mut Machine, tcb: &Tcb) -> Result<u32, KernelError> {
        let actor = self.config.kernel_actor;
        let sp = tcb.params.stack_top - layout::FRAME_WORDS * 4;
        for r in 0..=6u32 {
            machine.checked_write_word(actor, sp + layout::frame_reg_offset(r), 0)?;
        }
        machine.checked_write_word(actor, sp + layout::FRAME_EIP_OFFSET, tcb.params.entry)?;
        machine.checked_write_word(actor, sp + layout::FRAME_EFLAGS_OFFSET, EFLAGS_IF)?;
        Ok(sp)
    }

    /// Deletes a task: removes it from the scheduler and all wait lists.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] for a dead handle.
    pub fn delete_task(&mut self, handle: TaskHandle, now: u64) -> Result<Tcb, KernelError> {
        let tcb = self
            .tasks
            .get_mut(handle.0)
            .and_then(Option::take)
            .ok_or(KernelError::NoSuchTask)?;
        self.remove_from_ready(handle);
        if self.current == Some(handle) {
            self.current = None;
        }
        for queue in &mut self.queues {
            queue.forget_task(handle);
        }
        for semaphore in &mut self.semaphores {
            semaphore.forget_task(handle);
        }
        self.mark_task(handle, now, "task_deleted");
        Ok(tcb)
    }

    /// Suspends a task (loaded but not executing, §4).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] for a dead handle.
    pub fn suspend_task(&mut self, handle: TaskHandle, now: u64) -> Result<(), KernelError> {
        if self.task(handle).is_none() {
            return Err(KernelError::NoSuchTask);
        }
        self.remove_from_ready(handle);
        if self.current == Some(handle) {
            self.current = None;
        }
        self.task_mut(handle).expect("checked above").state = TaskState::Suspended;
        self.mark_task(handle, now, "task_suspended");
        Ok(())
    }

    /// Resumes a suspended task.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] for a dead handle.
    pub fn resume_task(&mut self, handle: TaskHandle, now: u64) -> Result<(), KernelError> {
        match self.task(handle) {
            Some(tcb) if tcb.state == TaskState::Suspended => {
                self.make_ready(handle)?;
                self.mark_task(handle, now, "task_resumed");
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(KernelError::NoSuchTask),
        }
    }

    /// Changes a task's scheduling priority (FreeRTOS's
    /// `vTaskPrioritySet`); a ready task is re-queued at the new level.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] or [`KernelError::BadPriority`].
    pub fn set_priority(&mut self, handle: TaskHandle, priority: u8) -> Result<(), KernelError> {
        if priority >= self.config.num_priorities {
            return Err(KernelError::BadPriority(priority));
        }
        let state = self.task(handle).ok_or(KernelError::NoSuchTask)?.state;
        self.task_mut(handle).expect("checked").params.priority = priority;
        if state == TaskState::Ready {
            self.remove_from_ready(handle);
            self.make_ready(handle)?;
        }
        Ok(())
    }

    /// Marks a task ready and enqueues it at its priority.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] for a dead handle.
    pub fn make_ready(&mut self, handle: TaskHandle) -> Result<(), KernelError> {
        let priority = {
            let tcb = self.task_mut(handle).ok_or(KernelError::NoSuchTask)?;
            tcb.state = TaskState::Ready;
            tcb.params.priority as usize
        };
        if !self.ready[priority].contains(&handle) {
            self.ready[priority].push_back(handle);
        }
        Ok(())
    }

    fn remove_from_ready(&mut self, handle: TaskHandle) {
        for queue in &mut self.ready {
            queue.retain(|&h| h != handle);
        }
    }

    // ----- trap-time operations -----

    /// Records the interrupted task's stack pointer and requeues it as
    /// ready. Call once per kernel trap, before any syscall processing.
    pub fn save_current(&mut self, machine: &Machine) {
        if let Some(handle) = self.current.take() {
            if let Some(tcb) = self.task_mut(handle) {
                tcb.saved_sp = machine.reg(Reg::SP);
                tcb.started = true;
            }
            let _ = self.make_ready(handle);
        }
    }

    /// Processes a kernel tick: advances the tick counter, wakes expired
    /// delays, fires software timers. Bounded by the number of tasks plus
    /// timers.
    pub fn on_tick(&mut self, now: u64) {
        self.tick += 1;
        self.emit(0, now, EventKind::Value("tick", self.tick));

        let tick = self.tick;
        let woken: Vec<TaskHandle> = self
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Some(tcb) => match tcb.state {
                    TaskState::Delayed { until_tick } if until_tick <= tick => Some(TaskHandle(i)),
                    _ => None,
                },
                None => None,
            })
            .collect();
        for handle in woken {
            let _ = self.make_ready(handle);
        }

        let mut actions = Vec::new();
        for timer in &mut self.timers {
            if let Some(action) = timer.advance(tick) {
                actions.push(action);
            }
        }
        for action in actions {
            match action {
                TimerAction::ResumeTask(handle) => {
                    let _ = self.resume_task(handle, now);
                }
                TimerAction::QueueSend { queue, value } => {
                    if let Some(q) = self.queues.get_mut(queue.0) {
                        // Timers never block: dropped on a full queue.
                        let (_, handoff) = q.send(TaskHandle(usize::MAX), value);
                        if let Some((receiver, v)) = handoff {
                            self.complete_recv(receiver, v);
                        }
                    }
                }
                TimerAction::Noop => {}
            }
        }
    }

    fn complete_recv(&mut self, receiver: TaskHandle, value: u32) {
        if let Some(tcb) = self.task_mut(receiver) {
            tcb.pending_result = Some(value);
        }
        let _ = self.make_ready(receiver);
    }

    /// Blocks the task that just trapped (removes it from ready).
    fn block_trapped(&mut self, handle: TaskHandle, state: TaskState, now: u64) {
        self.remove_from_ready(handle);
        if let Some(tcb) = self.task_mut(handle) {
            tcb.state = state;
        }
        self.mark_task(handle, now, "task_blocked");
    }

    /// Handles a syscall trap from `caller`. Arguments arrive in the live
    /// registers `r1..r3` (the syscall stub deliberately preserves them).
    ///
    /// Results for normal tasks are patched into the saved frame's `r0`
    /// when the task next resumes; secure tasks cannot receive kernel
    /// results (their frames are unreadable to the OS) and should use the
    /// secure IPC facilities instead.
    pub fn handle_syscall(&mut self, machine: &mut Machine, caller: TaskHandle) -> SyscallOutcome {
        // Arguments normally arrive in the live registers the syscall stub
        // deliberately preserved. Under the hardware-context-save ablation
        // the exception engine wiped them, so the kernel reads the saved
        // frame instead (possible for normal tasks; secure tasks cannot
        // receive kernel syscall results in that mode).
        let saved_sp = self.task(caller).map(|t| t.saved_sp);
        let actor = self.config.kernel_actor;
        let hw_save = machine.hw_context_save();
        let mut arg = |index: u32, live: Reg| -> u32 {
            if hw_save {
                if let Some(sp) = saved_sp {
                    if let Ok(value) =
                        machine.checked_read_word(actor, sp + layout::frame_reg_offset(index))
                    {
                        return value;
                    }
                }
            }
            machine.reg(live)
        };
        let op = arg(1, Reg::R1);
        let arg1 = arg(2, Reg::R2);
        let arg2 = arg(3, Reg::R3);
        let now = machine.cycles();
        match op {
            syscall::YIELD => SyscallOutcome::Continue,
            syscall::DELAY => {
                let until = self.tick + u64::from(arg1.max(1));
                self.block_trapped(caller, TaskState::Delayed { until_tick: until }, now);
                SyscallOutcome::Blocked
            }
            syscall::SUSPEND => {
                let _ = self.suspend_task(caller, now);
                SyscallOutcome::Blocked
            }
            syscall::QUEUE_SEND => match self.queues.get_mut(arg1 as usize) {
                Some(q) => {
                    let (op, handoff) = q.send(caller, arg2);
                    if let Some((receiver, v)) = handoff {
                        self.complete_recv(receiver, v);
                    }
                    match op {
                        QueueOp::Done(_) => SyscallOutcome::Continue,
                        QueueOp::Block => {
                            self.block_trapped(caller, TaskState::BlockedOnQueue, now);
                            SyscallOutcome::Blocked
                        }
                    }
                }
                None => SyscallOutcome::Unknown(op),
            },
            syscall::QUEUE_RECV => match self.queues.get_mut(arg1 as usize) {
                Some(q) => {
                    let (op, woken_sender) = q.recv(caller);
                    if let Some(sender) = woken_sender {
                        let _ = self.make_ready(sender);
                    }
                    match op {
                        QueueOp::Done(value) => {
                            if let Some(tcb) = self.task_mut(caller) {
                                tcb.pending_result = Some(value);
                            }
                            SyscallOutcome::Continue
                        }
                        QueueOp::Block => {
                            self.block_trapped(caller, TaskState::BlockedOnQueue, now);
                            SyscallOutcome::Blocked
                        }
                    }
                }
                None => SyscallOutcome::Unknown(op),
            },
            syscall::SEM_TAKE => match self.semaphores.get_mut(arg1 as usize) {
                Some(semaphore) => match semaphore.take(caller) {
                    SemOp::Done => SyscallOutcome::Continue,
                    SemOp::Block => {
                        self.block_trapped(caller, TaskState::BlockedOnQueue, now);
                        SyscallOutcome::Blocked
                    }
                },
                None => SyscallOutcome::Unknown(op),
            },
            syscall::SEM_GIVE => match self.semaphores.get_mut(arg1 as usize) {
                Some(semaphore) => {
                    if let Some(woken) = semaphore.give() {
                        let _ = self.make_ready(woken);
                    }
                    SyscallOutcome::Continue
                }
                None => SyscallOutcome::Unknown(op),
            },
            syscall::TICKS => {
                let tick = self.tick as u32;
                if let Some(tcb) = self.task_mut(caller) {
                    tcb.pending_result = Some(tick);
                }
                SyscallOutcome::Continue
            }
            other => SyscallOutcome::Unknown(other),
        }
    }

    /// Picks the highest-priority ready task (round-robin within a
    /// priority) and programs the machine to resume it; idles otherwise.
    ///
    /// # Errors
    ///
    /// Returns a machine fault from frame patching.
    pub fn dispatch(&mut self, machine: &mut Machine) -> Result<(), KernelError> {
        machine.tick(machine.firmware_costs().scheduler_pick);
        let next = self
            .ready
            .iter_mut()
            .rev()
            .find_map(|queue| queue.pop_front());

        let Some(handle) = next else {
            // No ready task: run the idle loop on the kernel stack.
            machine.set_reg(Reg::SP, self.config.kernel_stack_top);
            machine.set_eflags(EFLAGS_IF);
            machine.set_eip(self.config.idle_addr);
            self.emit(0, machine.cycles(), EventKind::Mark("idle"));
            return Ok(());
        };

        let (kind, started, saved_sp, stack_top, entry, pending) = {
            let tcb = self.task_mut(handle).expect("ready task is live");
            tcb.state = TaskState::Running;
            tcb.dispatches += 1;
            (
                tcb.params.kind,
                tcb.started,
                tcb.saved_sp,
                tcb.params.stack_top,
                tcb.params.entry,
                tcb.pending_result.take(),
            )
        };
        self.current = Some(handle);
        self.mark_task(handle, machine.cycles(), "dispatch");
        match kind {
            TaskKind::Normal => {
                if let Some(value) = pending {
                    let addr = saved_sp + layout::frame_reg_offset(0);
                    machine.checked_write_word(self.config.kernel_actor, addr, value)?;
                }
                machine.set_reg(Reg::SP, saved_sp);
                // IF stays clear until the frame's EFLAGS is restored by
                // IRET, so the restore stub cannot be preempted.
                machine.set_eflags(0);
                machine.set_eip(self.config.restore_stub);
            }
            TaskKind::Secure => {
                // Never leak kernel register contents into the task.
                machine.set_regs([0; 8]);
                if started {
                    machine.set_reg(Reg::R0, entry_reason::RESUME);
                    machine.set_reg(Reg::SP, saved_sp);
                } else {
                    machine.set_reg(Reg::R0, entry_reason::START);
                    machine.set_reg(Reg::SP, stack_top);
                    self.task_mut(handle).expect("live").started = true;
                }
                machine.set_eflags(0);
                machine.set_eip(entry);
            }
        }
        Ok(())
    }

    /// Invokes a secure task to receive an IPC message: the task is
    /// dispatched through its entry routine with
    /// [`entry_reason::MESSAGE`] in `r0` (the synchronous IPC path, §4:
    /// "the IPC proxy branches to R, whose entry routine processes m").
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchTask`] for a dead handle.
    pub fn dispatch_message(
        &mut self,
        machine: &mut Machine,
        handle: TaskHandle,
    ) -> Result<(), KernelError> {
        let (entry, started, saved_sp, stack_top) = {
            let tcb = self.task(handle).ok_or(KernelError::NoSuchTask)?;
            (
                tcb.params.entry,
                tcb.started,
                tcb.saved_sp,
                tcb.params.stack_top,
            )
        };
        self.remove_from_ready(handle);
        {
            let tcb = self.task_mut(handle).expect("checked above");
            tcb.state = TaskState::Running;
            tcb.dispatches += 1;
            tcb.started = true;
        }
        self.current = Some(handle);
        self.mark_task(handle, machine.cycles(), "dispatch");
        machine.set_regs([0; 8]);
        machine.set_reg(Reg::R0, entry_reason::MESSAGE);
        machine.set_reg(Reg::SP, if started { saved_sp } else { stack_top });
        machine.set_eflags(0);
        machine.set_eip(entry);
        Ok(())
    }

    // ----- queues and timers -----

    /// Creates a message queue.
    pub fn create_queue(&mut self, capacity: usize) -> QueueId {
        self.queues.push(MessageQueue::new(capacity));
        QueueId(self.queues.len() - 1)
    }

    /// Borrows a queue.
    pub fn queue(&self, id: QueueId) -> Option<&MessageQueue> {
        self.queues.get(id.0)
    }

    /// Creates a counting semaphore.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero or `initial > max`.
    pub fn create_semaphore(&mut self, initial: u32, max: u32) -> SemaphoreId {
        self.semaphores.push(Semaphore::new(initial, max));
        SemaphoreId(self.semaphores.len() - 1)
    }

    /// Borrows a semaphore.
    pub fn semaphore(&self, id: SemaphoreId) -> Option<&Semaphore> {
        self.semaphores.get(id.0)
    }

    /// Gives a permit from host context (e.g. a device driver signalling
    /// a waiting task), waking one blocked waiter.
    pub fn semaphore_give(&mut self, id: SemaphoreId) -> Result<(), KernelError> {
        let semaphore = self
            .semaphores
            .get_mut(id.0)
            .ok_or(KernelError::NoSuchTask)?;
        if let Some(woken) = semaphore.give() {
            let _ = self.make_ready(woken);
        }
        Ok(())
    }

    /// Creates a software timer firing `period_ticks` from now.
    pub fn create_timer(
        &mut self,
        period_ticks: u64,
        periodic: bool,
        action: TimerAction,
    ) -> TimerId {
        self.timers
            .push(SoftTimer::new(self.tick, period_ticks, periodic, action));
        TimerId(self.timers.len() - 1)
    }

    /// Borrows a timer.
    pub fn timer(&self, id: TimerId) -> Option<&SoftTimer> {
        self.timers.get(id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eampu::Region;
    use sp_emu::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn params(name: &str, priority: u8, kind: TaskKind) -> TcbParams {
        TcbParams {
            name: name.into(),
            priority,
            entry: 0x4000,
            stack_top: 0x6000,
            code: Region::new(0x4000, 0x400),
            data: Region::new(0x5000, 0x1000),
            kind,
        }
    }

    #[test]
    fn create_normal_task_prepares_frame() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        let tcb = k.task(h).unwrap();
        assert!(tcb.started);
        let sp = tcb.saved_sp;
        assert_eq!(sp, 0x6000 - 36);
        assert_eq!(m.read_word(sp + layout::FRAME_EIP_OFFSET).unwrap(), 0x4000);
        assert_eq!(
            m.read_word(sp + layout::FRAME_EFLAGS_OFFSET).unwrap(),
            EFLAGS_IF
        );
    }

    #[test]
    fn create_secure_task_touches_no_memory() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("s", 1, TaskKind::Secure))
            .unwrap();
        let tcb = k.task(h).unwrap();
        assert!(!tcb.started);
        // Stack memory stays zero.
        assert_eq!(m.read_word(0x6000 - 36).unwrap(), 0);
    }

    #[test]
    fn bad_priority_rejected() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let err = k
            .create_task(&mut m, params("a", 99, TaskKind::Normal))
            .unwrap_err();
        assert_eq!(err, KernelError::BadPriority(99));
    }

    #[test]
    fn dispatch_prefers_higher_priority() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let low = k
            .create_task(&mut m, params("low", 1, TaskKind::Normal))
            .unwrap();
        let mut hi_params = params("hi", 5, TaskKind::Normal);
        hi_params.stack_top = 0x7000;
        let hi = k.create_task(&mut m, hi_params).unwrap();
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(hi));
        let _ = low;
    }

    #[test]
    fn round_robin_within_priority() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let a = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        let mut b_params = params("b", 1, TaskKind::Normal);
        b_params.stack_top = 0x7000;
        let b = k.create_task(&mut m, b_params).unwrap();

        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(a));
        k.save_current(&m); // a back to ready (tail)
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(b));
        k.save_current(&m);
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(a));
    }

    #[test]
    fn dispatch_idles_when_nothing_ready() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), None);
        assert_eq!(m.eip(), k.config().idle_addr);
        assert_eq!(m.reg(Reg::SP), k.config().kernel_stack_top);
        assert!(m.interrupts_enabled());
    }

    #[test]
    fn secure_dispatch_wipes_registers_and_sets_reason() {
        let mut m = machine();
        m.set_reg(Reg::R3, 0xdead_beef);
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("s", 1, TaskKind::Secure))
            .unwrap();
        k.dispatch(&mut m).unwrap();
        assert_eq!(m.reg(Reg::R0), entry_reason::START);
        assert_eq!(m.reg(Reg::R3), 0, "kernel registers wiped");
        assert_eq!(m.reg(Reg::SP), 0x6000);
        assert_eq!(m.eip(), 0x4000);
        assert!(k.task(h).unwrap().started);

        // Preempt: context save handled by stub; kernel records sp.
        m.set_reg(Reg::SP, 0x5f00);
        k.save_current(&m);
        k.dispatch(&mut m).unwrap();
        assert_eq!(m.reg(Reg::R0), entry_reason::RESUME);
        assert_eq!(m.reg(Reg::SP), 0x5f00);
    }

    #[test]
    fn delay_syscall_blocks_until_tick() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        k.dispatch(&mut m).unwrap();
        k.save_current(&m);
        m.set_reg(Reg::R1, syscall::DELAY);
        m.set_reg(Reg::R2, 3);
        assert_eq!(k.handle_syscall(&mut m, h), SyscallOutcome::Blocked);
        assert_eq!(
            k.task(h).unwrap().state,
            TaskState::Delayed { until_tick: 3 }
        );

        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), None, "nothing ready while delayed");

        for _ in 0..3 {
            k.on_tick(m.cycles());
        }
        assert_eq!(k.task(h).unwrap().state, TaskState::Ready);
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(h));
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        k.suspend_task(h, 0).unwrap();
        assert_eq!(k.task(h).unwrap().state, TaskState::Suspended);
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), None);
        k.resume_task(h, 0).unwrap();
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(h));
    }

    #[test]
    fn queue_send_recv_between_tasks() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let a = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        let mut b_params = params("b", 1, TaskKind::Normal);
        b_params.stack_top = 0x7000;
        let b = k.create_task(&mut m, b_params).unwrap();
        let q = k.create_queue(2);

        // b receives first: blocks.
        m.set_reg(Reg::R1, syscall::QUEUE_RECV);
        m.set_reg(Reg::R2, q.index() as u32);
        assert_eq!(k.handle_syscall(&mut m, b), SyscallOutcome::Blocked);

        // a sends: direct handoff wakes b with the value pending.
        m.set_reg(Reg::R1, syscall::QUEUE_SEND);
        m.set_reg(Reg::R2, q.index() as u32);
        m.set_reg(Reg::R3, 99);
        assert_eq!(k.handle_syscall(&mut m, a), SyscallOutcome::Continue);
        assert_eq!(k.task(b).unwrap().state, TaskState::Ready);
        assert_eq!(k.task(b).unwrap().pending_result, Some(99));
    }

    #[test]
    fn pending_result_patched_into_frame_on_dispatch() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        k.task_mut(h).unwrap().pending_result = Some(0xabcd);
        k.dispatch(&mut m).unwrap();
        let sp = m.reg(Reg::SP);
        let r0 = m.read_word(sp + layout::frame_reg_offset(0)).unwrap();
        assert_eq!(r0, 0xabcd);
    }

    #[test]
    fn ticks_syscall_reports_tick_count() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        k.on_tick(0);
        k.on_tick(0);
        m.set_reg(Reg::R1, syscall::TICKS);
        assert_eq!(k.handle_syscall(&mut m, h), SyscallOutcome::Continue);
        assert_eq!(k.task(h).unwrap().pending_result, Some(2));
    }

    #[test]
    fn unknown_syscall_reported() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        m.set_reg(Reg::R1, 999);
        assert_eq!(k.handle_syscall(&mut m, h), SyscallOutcome::Unknown(999));
    }

    #[test]
    fn delete_task_purges_everywhere() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        let q = k.create_queue(1);
        m.set_reg(Reg::R1, syscall::QUEUE_RECV);
        m.set_reg(Reg::R2, q.index() as u32);
        k.handle_syscall(&mut m, h);
        k.delete_task(h, 0).unwrap();
        assert!(k.task(h).is_none());
        assert_eq!(k.delete_task(h, 0).unwrap_err(), KernelError::NoSuchTask);
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), None);
        // Slot is reused by the next creation.
        let h2 = k
            .create_task(&mut m, params("b", 1, TaskKind::Normal))
            .unwrap();
        assert_eq!(h2.index(), h.index());
    }

    #[test]
    fn software_timer_resumes_task() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        k.suspend_task(h, 0).unwrap();
        k.create_timer(2, false, TimerAction::ResumeTask(h));
        k.on_tick(0);
        assert_eq!(k.task(h).unwrap().state, TaskState::Suspended);
        k.on_tick(0);
        assert_eq!(k.task(h).unwrap().state, TaskState::Ready);
    }

    #[test]
    fn set_priority_requeues_and_validates() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let low = k
            .create_task(&mut m, params("low", 1, TaskKind::Normal))
            .unwrap();
        let mut other = params("other", 3, TaskKind::Normal);
        other.stack_top = 0x7000;
        let hi = k.create_task(&mut m, other).unwrap();
        // Raise `low` above `hi`: it must now be picked first.
        k.set_priority(low, 5).unwrap();
        k.dispatch(&mut m).unwrap();
        assert_eq!(k.current(), Some(low));
        assert_eq!(
            k.set_priority(hi, 99).unwrap_err(),
            KernelError::BadPriority(99)
        );
        assert_eq!(
            k.set_priority(TaskHandle::from_index(42), 1).unwrap_err(),
            KernelError::NoSuchTask
        );
    }

    #[test]
    fn find_by_code_addr_identifies_tasks() {
        let mut m = machine();
        let mut k = Kernel::new(KernelConfig::default());
        let h = k
            .create_task(&mut m, params("a", 1, TaskKind::Normal))
            .unwrap();
        assert_eq!(k.find_by_code_addr(0x4080), Some(h));
        assert_eq!(k.find_by_code_addr(0x9000), None);
    }

    #[test]
    fn tracer_receives_rtos_layer_events() {
        use crate::runner::{Runner, RunnerConfig, StaticTask};
        use std::sync::Arc;
        use tytan_trace::RingRecorder;

        let sleeper = |name: &str| StaticTask {
            name: name.into(),
            priority: 1,
            source: format!(
                "main:\n movi r1, {op}\n movi r2, 2\n int {vec:#x}\n jmp main\n",
                op = syscall::DELAY,
                vec = layout::SYSCALL_VECTOR,
            ),
            stack_len: 256,
        };
        let ring = Arc::new(RingRecorder::new(4096));
        let mut r = Runner::new(RunnerConfig::default()).unwrap();
        r.kernel_mut().attach_tracer(Tracer::new(ring.clone()));
        let a = r.add_task(sleeper("a")).unwrap();
        let b = r.add_task(sleeper("b")).unwrap();
        r.start().unwrap();
        r.run_for(20 * 32_000).unwrap();

        let events = ring.events();
        assert_eq!(ring.dropped(), 0);
        assert!(events.iter().all(|e| e.layer == Layer::Rtos));
        let marks = |name: &'static str| -> Vec<u32> {
            events
                .iter()
                .filter(|e| e.kind == EventKind::Mark(name))
                .map(|e| e.tid)
                .collect()
        };
        let tracks = [a.index() as u32, b.index() as u32];

        let dispatched = marks("dispatch");
        assert!(dispatched.iter().all(|tid| tracks.contains(tid)));
        assert!(tracks.iter().all(|tid| dispatched.contains(tid)));
        let idles = marks("idle");
        assert!(!idles.is_empty() && idles.iter().all(|&tid| tid == 0));
        assert_eq!(marks("task_created"), tracks);
        let blocked = marks("task_blocked");
        assert!(tracks.iter().all(|tid| blocked.contains(tid)));

        // One `tick` value per kernel tick, none lost or repeated.
        let ticks: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Value("tick", n) if e.tid == 0 => Some(n),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (1..=r.kernel().tick_count()).collect();
        assert!(expected.len() >= 10);
        assert_eq!(ticks, expected);
    }
}
