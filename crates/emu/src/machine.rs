//! The simulated core: registers, memory, exception engine, execution loop.

use crate::cycles::{CycleModel, FirmwareCosts};
use crate::device::Device;
use crate::ram::Ram;
use eampu::{AccessKind, EaMpu, TransferDecision};
use sp32::{decode, Instr, Reg, EFLAGS_CF, EFLAGS_IF, EFLAGS_SF, EFLAGS_ZF};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use tytan_trace::{CounterId, EventKind, Layer, Tracer};

// The block translation engine. A child of this module (not a sibling)
// because it is the machine's default run loop and needs the same
// private state the legacy loop uses.
#[path = "translate.rs"]
pub(crate) mod translate;

/// Host-side observer of exact guest-cycle attribution.
///
/// The machine reports every clock advance to the attached observer,
/// partitioned by what consumed the cycles: a retired guest instruction,
/// the exception engine dispatching an interrupt, functionally-modelled
/// firmware charging its cost through [`Machine::tick`], or the idle
/// loop of a halted core. The contract is *exactness*: between any two
/// reads of [`Machine::cycles`], the sum of cycles reported through
/// these callbacks equals the clock delta (faults charge nothing, so
/// nothing is reported for them).
///
/// Observers are observation only — implementations must not (and
/// cannot, through this API) advance the clock or change an execution
/// outcome. The cycle-identity differential tests run with an observer
/// attached and assert guest state stays bit-identical.
pub trait CycleObserver: Send + Sync {
    /// `cycles` were charged retiring the guest instruction at `eip`.
    fn instruction(&self, eip: u32, cycles: u64);
    /// `cycles` were charged by the exception engine dispatching
    /// `vector` (hardware context save, if enabled, plus the dispatch
    /// cost).
    fn dispatch(&self, vector: u8, cycles: u64);
    /// `cycles` were charged by host-modelled firmware via
    /// [`Machine::tick`] while `EIP` sat at `eip` (a trap address or
    /// trusted-region entry point).
    fn firmware(&self, eip: u32, cycles: u64);
    /// `cycles` elapsed with the core halted, waiting for an interrupt.
    fn idle(&self, cycles: u64);
}

/// Host-side stamp of one interrupt dispatch, kept for latency
/// measurement (see [`Machine::take_last_dispatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStamp {
    /// Clock when the exception engine started the dispatch (before its
    /// cost was charged) — i.e. when the interrupt left the pending set.
    pub begin: u64,
    /// Clock when the handler received control (after the dispatch and
    /// any hardware context-save cost).
    pub end: u64,
    /// The dispatched vector.
    pub vector: u8,
}

/// Construction parameters for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Size of flat RAM starting at address 0. RAM is held as 4 KiB
    /// pages allocated on first write, so untouched pages cost no host
    /// memory: a large `ram_size` is cheap until the guest fills it.
    pub ram_size: u32,
    /// Number of EA-MPU rule slots (the paper's platform has 18).
    pub mpu_slots: usize,
    /// Per-instruction cycle costs.
    pub cycle_model: CycleModel,
    /// Cycle costs of functionally-modelled firmware services.
    pub firmware_costs: FirmwareCosts,
    /// Hardware-assisted context save: the exception engine itself pushes
    /// and wipes the scratch registers at dispatch (the latency/hardware
    /// trade-off §4 of the paper mentions), at `hw_save_cost` cycles.
    pub hw_context_save: bool,
    /// Cycles the hardware context save costs when enabled.
    pub hw_save_cost: u64,
    /// Which execution engine drives [`Machine::run`]. Engine choice is
    /// model-invariant — every charged cycle and every observable machine
    /// state is bit-identical across engines (the cycle-identity and
    /// lockstep differential tests assert this); the legacy engine exists
    /// as the reference those tests compare against.
    pub engine: EngineKind,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            ram_size: 1 << 20,
            mpu_slots: 18,
            cycle_model: CycleModel::default(),
            firmware_costs: FirmwareCosts::default(),
            hw_context_save: false,
            hw_save_cost: 8,
            engine: engine_default(),
        }
    }
}

/// Which run loop [`Machine::run`] uses. Both are cycle- and
/// state-identical; see [`MachineConfig::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The original per-instruction reference loop: poll every device and
    /// re-check every boundary condition between each instruction, with
    /// the host-side EA-MPU decision cache off.
    Legacy,
    /// The block translation engine, the default: basic blocks discovered
    /// at execution time are compiled to threaded code with pre-decoded
    /// operands, pre-summed cycle costs and pre-resolved EA-MPU
    /// decisions, cached by entry address, invalidated on self-modifying
    /// writes and any MPU/platform reconfiguration. Falls back to
    /// [`Machine::step`] wherever a block cannot be (or is not worth)
    /// compiling.
    Translated,
}

/// Resolves the engine choice from the value of `TYTAN_EXEC_ENGINE`:
/// `legacy` selects [`EngineKind::Legacy`]; anything else, including
/// unset, selects the default, [`EngineKind::Translated`].
pub fn engine_from_env(exec_engine: Option<&str>) -> EngineKind {
    match exec_engine.map(str::trim) {
        Some("legacy") => EngineKind::Legacy,
        _ => EngineKind::Translated,
    }
}

/// Default for [`MachineConfig::engine`], resolved once per process from
/// `TYTAN_EXEC_ENGINE` (see [`engine_from_env`]). CI runs the whole
/// workspace test suite once per engine so both loops stay exercised
/// end-to-end; the result is cached for the process because a test
/// binary must not see the default flip mid-run.
fn engine_default() -> EngineKind {
    static ENGINE: OnceLock<EngineKind> = OnceLock::new();
    *ENGINE.get_or_init(|| engine_from_env(std::env::var("TYTAN_EXEC_ENGINE").ok().as_deref()))
}

/// A hardware fault raised during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The EA-MPU denied a data access.
    MpuAccess {
        /// Instruction pointer of the offending access.
        eip: u32,
        /// The address that was accessed.
        addr: u32,
        /// Whether it was a read or a write.
        kind: AccessKind,
    },
    /// The EA-MPU denied a control transfer into a protected region.
    MpuTransfer {
        /// Where control came from.
        from: u32,
        /// The denied target.
        to: u32,
        /// The region's dedicated entry point.
        expected_entry: u32,
    },
    /// The word at `eip` does not decode to an instruction.
    Decode {
        /// The faulting instruction pointer.
        eip: u32,
    },
    /// An access touched an address outside RAM and all devices.
    Bus {
        /// The faulting address.
        addr: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::MpuAccess { eip, addr, kind } => {
                write!(f, "EA-MPU denied {kind:?} of {addr:#010x} by code at {eip:#010x}")
            }
            Fault::MpuTransfer { from, to, expected_entry } => write!(
                f,
                "EA-MPU denied transfer {from:#010x} -> {to:#010x} (entry is {expected_entry:#010x})"
            ),
            Fault::Decode { eip } => write!(f, "undecodable instruction at {eip:#010x}"),
            Fault::Bus { addr } => write!(f, "bus error at {addr:#010x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The instruction pointer reached a registered firmware trap address;
    /// the platform services the trap and resumes.
    FirmwareTrap {
        /// The trap address (== current `EIP`).
        addr: u32,
    },
    /// The core is halted (`HLT` with no deliverable interrupt) and the
    /// cycle budget ran out while waiting.
    IdleBudgetExhausted,
    /// The cycle budget ran out mid-execution.
    BudgetExhausted,
    /// A hardware fault stopped execution; `EIP` still points at the
    /// faulting instruction.
    Fault(Fault),
}

/// Execution statistics, cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Guest instructions retired.
    pub instructions: u64,
    /// Interrupts delivered (hardware and software).
    pub interrupts: u64,
    /// Faults raised.
    pub faults: u64,
}

/// Everything architecturally observable about a machine at an
/// instruction boundary, captured by [`Machine::snapshot`].
///
/// Two machines configured identically and driven through the same
/// inputs must produce equal snapshots at every boundary regardless of
/// which run loop (block translator or legacy) drives them — this is the state
/// half of the differential-testing oracle (RAM is compared separately
/// via [`Machine::ram_digest`], which is too expensive to hash per
/// step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    /// General-purpose registers `R0..R7`.
    pub regs: [u32; 8],
    /// The instruction pointer.
    pub eip: u32,
    /// The flags register.
    pub eflags: u32,
    /// Whether the core is halted waiting for an interrupt.
    pub halted: bool,
    /// The cycle counter.
    pub cycles: u64,
    /// Cumulative execution statistics.
    pub stats: MachineStats,
    /// Pending (raised, undelivered) IRQ vectors, ascending.
    pub pending_irqs: Vec<u8>,
    /// Whether the EA-MPU is enforcing.
    pub mpu_enabled: bool,
    /// The IDT base register.
    pub idt_base: u32,
}

/// The simulated Siskiyou-Peak-like core.
///
/// A `Machine` owns flat RAM, the MMIO device list, the EA-MPU, the IDT
/// base register, and the cycle counter. Guest code executes through
/// [`Machine::run`]; trusted firmware (the RTOS kernel and TyTAN's trusted
/// components) runs as host code between [`Event::FirmwareTrap`]s, touching
/// machine state through the accessor API and charging cycles with
/// [`Machine::tick`].
///
/// # Examples
///
/// ```
/// use sp32::asm::assemble;
/// use sp_emu::{Event, Machine, MachineConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::new(MachineConfig::default());
/// let program = assemble("movi r0, 6\nmovi r1, 7\nmul r0, r1\nhlt\n", 0x1000)?;
/// machine.load_image(0x1000, &program.bytes)?;
/// machine.set_eip(0x1000);
/// let event = machine.run(1_000);
/// assert_eq!(event, Event::IdleBudgetExhausted);
/// assert_eq!(machine.reg(sp32::Reg::R0), 42);
/// # Ok(())
/// # }
/// ```
pub struct Machine {
    regs: [u32; 8],
    eip: u32,
    eflags: u32,
    halted: bool,
    ram: Ram,
    devices: Vec<Box<dyn Device>>,
    mpu: EaMpu,
    mpu_enabled: bool,
    idt_base: u32,
    pending_irqs: BTreeSet<u8>,
    /// Sorted firmware-trap addresses; `trap_filter` is a 64-bit Bloom-style
    /// guard over `(addr >> 2) & 63` so the hot no-trap case is one AND.
    firmware_traps: Vec<u32>,
    trap_filter: u64,
    int_origin: Option<u32>,
    resume_latches: BTreeSet<u32>,
    hw_context_save: bool,
    hw_save_cost: u64,
    clock: u64,
    cycle_model: CycleModel,
    firmware_costs: FirmwareCosts,
    stats: MachineStats,
    engine: EngineKind,
    /// Monotonic epoch of the firmware-trap set; part of the translation
    /// engine's revalidation snapshot (compiled blocks stop before trap
    /// addresses, so the set's shape is baked into them).
    trap_gen: u64,
    /// Translation-engine state: the block cache, the code-word bitmap
    /// and the dirty-range queue (see `translate`). Empty unless the
    /// engine is [`EngineKind::Translated`].
    tcache: translate::TransState,
    /// Earliest cycle at which any device needs polling (`u64::MAX` =
    /// never); recomputed when `device_deadline_dirty` is set.
    device_deadline: u64,
    device_deadline_dirty: bool,
    /// Host-side observability, attached by [`Machine::attach_tracer`].
    /// `None` keeps the hot paths behind a single branch; attached tracing
    /// never calls [`Machine::tick`] and never changes an outcome, so guest
    /// cycles are bit-identical with or without it.
    trace: Option<EmuTrace>,
    /// Exact cycle-attribution observer, attached by
    /// [`Machine::attach_cycle_observer`]. Same neutrality contract as
    /// `trace`: observation only, never a cycle or a decision.
    observer: Option<Arc<dyn CycleObserver>>,
    /// Host-only latency bookkeeping: the last interrupt dispatch and
    /// the clock at the last retired `IRET`. Maintained unconditionally
    /// (it is a handful of host stores) and never read by execution.
    last_dispatch: Option<DispatchStamp>,
    last_iret: Option<u64>,
    /// Control-flow monitor for attestation, attached by
    /// [`Machine::attach_cf_monitor`]. Same neutrality contract as
    /// `trace` and `observer`: records taken edges, never a cycle.
    cf_monitor: Option<crate::cfa::CfMonitor>,
}

/// Counter handles for the emulator layer, resolved once at attach time.
struct EmuTrace {
    tracer: Tracer,
    /// Instruction-class counters, indexed by [`instr_class`]:
    /// alu / mem / branch / system.
    class: [CounterId; 4],
    block_compile: CounterId,
    /// Load-op-store triples fused in the blocks compiled.
    block_fused: CounterId,
    block_hit: CounterId,
    block_invalidate_smc: CounterId,
    block_invalidate_mpu: CounterId,
    mmio_read: CounterId,
    mmio_write: CounterId,
    faults: CounterId,
    irq_entry: CounterId,
    irq_exit: CounterId,
    irq_truncated: CounterId,
    /// Vectors of in-flight interrupts, so the `Exit` event of a nested IRQ
    /// lands on the same Chrome track as its `Enter`.
    irq_stack: Vec<u8>,
}

/// Classifies an instruction for the per-class retirement counters.
fn instr_class(instr: &Instr) -> usize {
    match instr {
        Instr::Ldw { .. }
        | Instr::Ldb { .. }
        | Instr::Stw { .. }
        | Instr::Stb { .. }
        | Instr::Push { .. }
        | Instr::Pop { .. } => 1,
        Instr::Jmp { .. }
        | Instr::Jcc { .. }
        | Instr::JmpReg { .. }
        | Instr::Call { .. }
        | Instr::Ret
        | Instr::Iret => 2,
        Instr::Nop | Instr::Hlt | Instr::Int { .. } | Instr::Sti | Instr::Cli => 3,
        _ => 0,
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("eip", &format_args!("{:#010x}", self.eip))
            .field("regs", &self.regs)
            .field("cycles", &self.clock)
            .field("halted", &self.halted)
            .field("devices", &self.devices.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from `config` with zeroed RAM and registers.
    pub fn new(config: MachineConfig) -> Self {
        let mut mpu = EaMpu::new(config.mpu_slots);
        // On the legacy engine the MPU must take its pure scan path too,
        // so differential tests compare against the fully-legacy pipeline.
        mpu.set_decision_cache_enabled(config.engine != EngineKind::Legacy);
        Machine {
            regs: [0; 8],
            eip: 0,
            eflags: 0,
            halted: false,
            ram: Ram::new(config.ram_size),
            devices: Vec::new(),
            mpu,
            mpu_enabled: true,
            idt_base: 0,
            pending_irqs: BTreeSet::new(),
            firmware_traps: Vec::new(),
            trap_filter: 0,
            int_origin: None,
            resume_latches: BTreeSet::new(),
            hw_context_save: config.hw_context_save,
            hw_save_cost: config.hw_save_cost,
            clock: 0,
            cycle_model: config.cycle_model,
            firmware_costs: config.firmware_costs,
            stats: MachineStats::default(),
            engine: config.engine,
            trap_gen: 0,
            tcache: translate::TransState::new(config.ram_size),
            device_deadline: 0,
            device_deadline_dirty: true,
            trace: None,
            observer: None,
            last_dispatch: None,
            last_iret: None,
            cf_monitor: None,
        }
    }

    /// Attaches host-side observability to this machine and its EA-MPU:
    /// instruction-class, block-cache, MMIO, fault and IRQ counters are
    /// registered in `tracer`'s registry, and IRQ entry/exit plus faults are
    /// emitted as cycle-stamped events.
    ///
    /// Tracing is an observer only — it never advances the clock and never
    /// changes an execution outcome. The differential identity suites run
    /// with a recorder attached to prove it.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.mpu.attach_tracer(&tracer);
        // Compiled blocks specialise on whether checks are observed
        // (tracer attached / decision log on); a tracer attach is a
        // host-side reconfiguration, so drop them.
        self.tcache.flush();
        let c = tracer.counters().clone();
        self.trace = Some(EmuTrace {
            class: [
                c.register("emu_instr_alu"),
                c.register("emu_instr_mem"),
                c.register("emu_instr_branch"),
                c.register("emu_instr_system"),
            ],
            block_compile: c.register("emu_block_compile"),
            block_fused: c.register("emu_block_fused"),
            block_hit: c.register("emu_block_hit"),
            block_invalidate_smc: c.register("emu_block_invalidate_smc"),
            block_invalidate_mpu: c.register("emu_block_invalidate_mpu"),
            mmio_read: c.register("emu_mmio_read"),
            mmio_write: c.register("emu_mmio_write"),
            faults: c.register("emu_fault"),
            irq_entry: c.register("emu_irq_entry"),
            irq_exit: c.register("emu_irq_exit"),
            irq_truncated: c.register("emu_irq_truncated"),
            irq_stack: Vec::new(),
            tracer,
        });
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.trace.as_ref().map(|t| &t.tracer)
    }

    /// Attaches an exact cycle-attribution observer (see
    /// [`CycleObserver`]). Like the tracer, the observer is host-side
    /// only: it never advances the clock and never changes an outcome.
    pub fn attach_cycle_observer(&mut self, observer: Arc<dyn CycleObserver>) {
        self.observer = Some(observer);
    }

    /// Attaches a control-flow monitor over the absolute code region
    /// `region`, replacing any previous monitor. From here on, every
    /// taken intra-region edge is folded into the monitor's hash chain
    /// (see [`crate::cfa`]).
    ///
    /// Monitoring is an observer only: it never advances the clock and
    /// never changes an outcome, so the monitored run's cycles and
    /// architectural state are bit-identical with or without it. Compiled
    /// blocks stay in use: a block ends at every control transfer, so its
    /// terminator is its only taken edge, and the block loop records it
    /// at the same point [`Machine::step`] does.
    pub fn attach_cf_monitor(&mut self, region: eampu::Region) {
        self.cf_monitor = Some(crate::cfa::CfMonitor::new(region));
    }

    /// The attached control-flow monitor, if any.
    pub fn cf_monitor(&self) -> Option<&crate::cfa::CfMonitor> {
        self.cf_monitor.as_ref()
    }

    /// Detaches and returns the control-flow monitor, if any.
    pub fn take_cf_monitor(&mut self) -> Option<crate::cfa::CfMonitor> {
        self.cf_monitor.take()
    }

    /// Closes IRQ spans still open at shutdown. A machine that halts
    /// mid-handler has emitted `Enter("irq")` events with no matching
    /// exits, which both unbalances the `emu_irq_entry`/`emu_irq_exit`
    /// counters and leaves unbounded spans in the Chrome export. Flushing
    /// emits, per open vector (innermost first), a `Mark("irq_truncated")`
    /// plus the matching `Exit("irq")` at the current cycle, and counts
    /// each into `emu_irq_truncated` — so at shutdown
    /// `emu_irq_entry == emu_irq_exit + emu_irq_truncated` always holds.
    /// Host-side only: no clock or machine-state change. Idempotent.
    pub fn flush_trace(&mut self) {
        let clock = self.clock;
        if let Some(t) = &mut self.trace {
            while let Some(vector) = t.irq_stack.pop() {
                t.tracer.counters().incr(t.irq_truncated);
                t.tracer.emit(
                    Layer::Emu,
                    vector as u32,
                    clock,
                    EventKind::Mark("irq_truncated"),
                );
                t.tracer
                    .emit(Layer::Emu, vector as u32, clock, EventKind::Exit("irq"));
            }
        }
    }

    /// Takes the stamp of the most recent interrupt dispatch (clock
    /// before and after the exception engine's charge, plus the vector).
    /// Latency measurement uses this to anchor IRQ-entry and
    /// context-save durations; taking it clears it, so each dispatch is
    /// measured at most once.
    pub fn take_last_dispatch(&mut self) -> Option<DispatchStamp> {
        self.last_dispatch.take()
    }

    /// Takes the clock at the most recent retired `IRET` (after its
    /// cost); the context-restore anchor, cleared on read like
    /// [`Machine::take_last_dispatch`].
    pub fn take_last_iret(&mut self) -> Option<u64> {
        self.last_iret.take()
    }

    fn note_fault(&self) {
        if let Some(t) = &self.trace {
            t.tracer.counters().incr(t.faults);
            t.tracer
                .emit(Layer::Emu, 0, self.clock, EventKind::Mark("fault"));
        }
    }

    // ----- clock -----

    /// The cycle counter.
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Advances the clock by `cycles`; used by firmware services to charge
    /// their modelled cost. Attribution: the cycles belong to the firmware
    /// servicing the trap `EIP` currently points at.
    pub fn tick(&mut self, cycles: u64) {
        self.clock += cycles;
        if let Some(o) = &self.observer {
            o.firmware(self.eip, cycles);
        }
    }

    /// The firmware cost model configured for this machine.
    pub fn firmware_costs(&self) -> FirmwareCosts {
        self.firmware_costs
    }

    /// The per-instruction cycle model.
    pub fn cycle_model(&self) -> CycleModel {
        self.cycle_model
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Captures every architecturally observable register and counter at
    /// the current instruction boundary (see [`MachineSnapshot`]).
    ///
    /// Used by differential harnesses to compare two machines in
    /// lockstep; deliberately excludes host-side caches (translated
    /// blocks, EA-MPU decision cache) because those must never be
    /// observable.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            regs: self.regs,
            eip: self.eip,
            eflags: self.eflags,
            halted: self.halted,
            cycles: self.clock,
            stats: self.stats,
            pending_irqs: self.pending_irqs.iter().copied().collect(),
            mpu_enabled: self.mpu_enabled,
            idt_base: self.idt_base,
        }
    }

    /// FNV-1a digest of all of RAM.
    ///
    /// The cheap whole-memory oracle for differential runs: equal RAM
    /// contents produce equal digests, and a single flipped bit changes
    /// the digest with overwhelming probability. Not cryptographic.
    pub fn ram_digest(&self) -> u64 {
        self.ram.digest()
    }

    // ----- registers -----

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// Snapshot of all general-purpose registers.
    pub fn regs(&self) -> [u32; 8] {
        self.regs
    }

    /// Replaces all general-purpose registers.
    pub fn set_regs(&mut self, regs: [u32; 8]) {
        self.regs = regs;
    }

    /// The instruction pointer.
    pub fn eip(&self) -> u32 {
        self.eip
    }

    /// Sets the instruction pointer (used by firmware when redirecting
    /// control, e.g. an Int Mux branching to a handler). Clears the halted
    /// state.
    pub fn set_eip(&mut self, eip: u32) {
        self.eip = eip;
        self.halted = false;
    }

    /// The flags register.
    pub fn eflags(&self) -> u32 {
        self.eflags
    }

    /// Replaces the flags register.
    pub fn set_eflags(&mut self, eflags: u32) {
        self.eflags = eflags;
    }

    /// Whether interrupts are enabled (`IF` set).
    pub fn interrupts_enabled(&self) -> bool {
        self.eflags & EFLAGS_IF != 0
    }

    /// Whether the core is halted waiting for an interrupt.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the hardware-assisted context save is enabled.
    pub fn hw_context_save(&self) -> bool {
        self.hw_context_save
    }

    // ----- physical memory and MMIO (hardware-level, no MPU) -----

    fn device_index_at(&self, addr: u32) -> Option<usize> {
        self.devices.iter().position(|d| d.range().contains(addr))
    }

    /// Reads a 32-bit little-endian word, bypassing the EA-MPU (hardware
    /// path, loaders, debuggers).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] outside RAM and devices.
    #[inline]
    pub fn read_word(&mut self, addr: u32) -> Result<u32, Fault> {
        match self.ram.read_word(addr) {
            Some(word) => Ok(word),
            None => self.read_word_off_ram(addr),
        }
    }

    /// The device and bus-fault side of [`Machine::read_word`], kept out
    /// of line so the RAM path inlines into the compiled memory ops.
    #[cold]
    #[inline(never)]
    fn read_word_off_ram(&mut self, addr: u32) -> Result<u32, Fault> {
        if let Some(dev) = self.device_index_at(addr) {
            let base = self.devices[dev].range().start();
            let now = self.clock;
            // Any device access may change its poll schedule.
            self.device_deadline_dirty = true;
            if let Some(t) = &self.trace {
                t.tracer.counters().incr(t.mmio_read);
            }
            return Ok(self.devices[dev].read(addr - base, now));
        }
        Err(Fault::Bus { addr })
    }

    /// Writes a 32-bit little-endian word, bypassing the EA-MPU.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] outside RAM and devices.
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), Fault> {
        if self.ram.write_word(addr, value) {
            self.tcache.note_code_write(addr, 4);
            return Ok(());
        }
        self.write_word_off_ram(addr, value)
    }

    /// The device and bus-fault side of [`Machine::write_word`].
    #[cold]
    #[inline(never)]
    fn write_word_off_ram(&mut self, addr: u32, value: u32) -> Result<(), Fault> {
        if let Some(dev) = self.device_index_at(addr) {
            let base = self.devices[dev].range().start();
            let now = self.clock;
            self.device_deadline_dirty = true;
            if let Some(t) = &self.trace {
                t.tracer.counters().incr(t.mmio_write);
            }
            self.devices[dev].write(addr - base, value, now);
            return Ok(());
        }
        Err(Fault::Bus { addr })
    }

    /// Reads one byte, bypassing the EA-MPU.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] outside RAM (byte access to MMIO is not
    /// supported by the bus).
    pub fn read_byte(&mut self, addr: u32) -> Result<u8, Fault> {
        self.ram.read_byte(addr).ok_or(Fault::Bus { addr })
    }

    /// Writes one byte, bypassing the EA-MPU.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] outside RAM.
    pub fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), Fault> {
        if !self.ram.write_byte(addr, value) {
            return Err(Fault::Bus { addr });
        }
        self.tcache.note_code_write(addr, 1);
        Ok(())
    }

    /// Copies `len` bytes out of RAM.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the range leaves RAM.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Fault> {
        self.ram
            .read_bytes(addr, len as usize)
            .ok_or(Fault::Bus { addr })
    }

    /// Copies bytes into RAM (loader path).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the range leaves RAM.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        if !self.ram.write_bytes(addr, bytes) {
            return Err(Fault::Bus { addr });
        }
        self.tcache.note_code_write(addr, bytes.len());
        Ok(())
    }

    /// Alias of [`Machine::write_bytes`] conveying loader intent.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the range leaves RAM.
    pub fn load_image(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        self.write_bytes(addr, bytes)
    }

    /// RAM size in bytes.
    pub fn ram_size(&self) -> u32 {
        self.ram.len() as u32
    }

    /// Number of 4 KiB RAM pages the host holds: those written at least
    /// once. Untouched pages read as zero and cost no host memory.
    pub fn resident_pages(&self) -> usize {
        self.ram.resident_pages()
    }

    /// Number of self-modifying-code bitmap pages the host holds: one per
    /// 4 KiB RAM page in which the translator compiled code or saw it
    /// rewritten, until the next flush. A machine that compiles nothing
    /// holds none.
    pub fn smc_bitmap_pages(&self) -> usize {
        self.tcache.bitmap_pages()
    }

    // ----- MPU-checked access on behalf of a software component -----

    fn check(&self, actor_eip: u32, addr: u32, kind: AccessKind) -> Result<(), Fault> {
        if self.mpu_enabled && !self.mpu.check_access(actor_eip, addr, kind).is_allowed() {
            return Err(Fault::MpuAccess {
                eip: actor_eip,
                addr,
                kind,
            });
        }
        Ok(())
    }

    /// Reads a word as if executed by code at `actor_eip`, enforcing the
    /// EA-MPU. Firmware components use this so their accesses obey the same
    /// rules as guest code.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::MpuAccess`] on denial or [`Fault::Bus`] off-bus.
    pub fn checked_read_word(&mut self, actor_eip: u32, addr: u32) -> Result<u32, Fault> {
        self.check(actor_eip, addr, AccessKind::Read)?;
        self.read_word(addr)
    }

    /// Writes a word as if executed by code at `actor_eip`, enforcing the
    /// EA-MPU.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::MpuAccess`] on denial or [`Fault::Bus`] off-bus.
    pub fn checked_write_word(
        &mut self,
        actor_eip: u32,
        addr: u32,
        value: u32,
    ) -> Result<(), Fault> {
        self.check(actor_eip, addr, AccessKind::Write)?;
        self.write_word(addr, value)
    }

    // ----- EA-MPU -----

    /// The EA-MPU.
    pub fn mpu(&self) -> &EaMpu {
        &self.mpu
    }

    /// Mutable access to the EA-MPU (the EA-MPU driver's privilege).
    pub fn mpu_mut(&mut self) -> &mut EaMpu {
        &mut self.mpu
    }

    /// Enables or disables EA-MPU enforcement (disabled models the baseline
    /// unmodified-FreeRTOS platform of the paper's comparison rows).
    pub fn set_mpu_enabled(&mut self, enabled: bool) {
        self.mpu_enabled = enabled;
        self.mpu.invalidate_decision_cache();
    }

    /// Whether EA-MPU enforcement is active.
    pub fn mpu_enabled(&self) -> bool {
        self.mpu_enabled
    }

    // ----- interrupts -----

    /// Sets the IDT base register. The register is write-once in hardware
    /// (§4: "the register pointing to the IDT is static"); subsequent calls
    /// are ignored once a nonzero base is set.
    pub fn set_idt_base(&mut self, base: u32) {
        if self.idt_base == 0 {
            self.idt_base = base;
        }
    }

    /// The IDT base register.
    pub fn idt_base(&self) -> u32 {
        self.idt_base
    }

    /// Writes IDT entry `vector` (a handler address) into memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the IDT slot is off-bus.
    pub fn set_idt_entry(&mut self, vector: u8, handler: u32) -> Result<(), Fault> {
        let addr = self.idt_slot_addr(vector)?;
        self.write_word(addr, handler)
    }

    /// Reads IDT entry `vector`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the IDT slot is off-bus.
    pub fn idt_entry(&mut self, vector: u8) -> Result<u32, Fault> {
        let addr = self.idt_slot_addr(vector)?;
        self.read_word(addr)
    }

    /// The address of IDT slot `vector`; [`Fault::Bus`] if the sum wraps
    /// the address space (an IDT base near the top would otherwise alias
    /// low memory).
    fn idt_slot_addr(&self, vector: u8) -> Result<u32, Fault> {
        self.idt_base
            .checked_add(4 * vector as u32)
            .ok_or(Fault::Bus {
                addr: self.idt_base,
            })
    }

    /// Latches an external interrupt request.
    pub fn raise_irq(&mut self, vector: u8) {
        self.pending_irqs.insert(vector);
    }

    /// The `EIP` captured by the exception engine at the last dispatch: for
    /// `INT` the address of the `INT` instruction itself (the "origin of
    /// the interrupt" the IPC proxy reads, §4), for hardware interrupts the
    /// preempted instruction pointer.
    pub fn int_origin(&self) -> Option<u32> {
        self.int_origin
    }

    /// Arms a resume latch for `addr`, authorising one IRET to that
    /// address as if the exception engine had interrupted there (used by
    /// trusted firmware that synthesises an interrupt frame, e.g. the
    /// suspend path).
    pub fn arm_resume_latch(&mut self, addr: u32) {
        self.resume_latches.insert(addr);
    }

    /// Drops any armed resume latches whose target lies in `region`
    /// (called when a task is unloaded so stale latches cannot authorise
    /// returns into reused memory).
    pub fn clear_resume_latches_in(&mut self, region: eampu::Region) {
        self.resume_latches.retain(|&addr| !region.contains(addr));
    }

    /// Registers `addr` as a firmware trap: when `EIP` reaches it,
    /// [`Machine::run`] returns [`Event::FirmwareTrap`].
    pub fn add_firmware_trap(&mut self, addr: u32) {
        if let Err(pos) = self.firmware_traps.binary_search(&addr) {
            self.firmware_traps.insert(pos, addr);
        }
        self.trap_filter |= Self::trap_filter_bit(addr);
        // Compiled blocks stop before trap addresses, so the trap set's
        // shape is compile-time state for the translation engine.
        self.trap_gen += 1;
    }

    /// Unregisters a firmware trap address.
    pub fn remove_firmware_trap(&mut self, addr: u32) {
        self.trap_gen += 1;
        if let Ok(pos) = self.firmware_traps.binary_search(&addr) {
            self.firmware_traps.remove(pos);
            // Rebuild the filter; removals are rare (debugger, unload).
            self.trap_filter = self
                .firmware_traps
                .iter()
                .fold(0, |acc, &a| acc | Self::trap_filter_bit(a));
        }
    }

    fn trap_filter_bit(addr: u32) -> u64 {
        1u64 << ((addr >> 2) & 63)
    }

    /// Exact membership test for the trap set, guarded so the common
    /// no-trap case costs one AND plus a branch.
    fn trap_hit(&self, addr: u32) -> bool {
        self.trap_filter & Self::trap_filter_bit(addr) != 0
            && self.firmware_traps.binary_search(&addr).is_ok()
    }

    /// Pushes a word on the current stack (hardware exception-engine path,
    /// not MPU-checked).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] on stack underflow past the bus.
    pub fn push_word(&mut self, value: u32) -> Result<(), Fault> {
        let sp = self.regs[Reg::SP.index()].wrapping_sub(4);
        self.write_word(sp, value)?;
        self.regs[Reg::SP.index()] = sp;
        Ok(())
    }

    /// Pops a word from the current stack (hardware path, not MPU-checked).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the stack slot is off-bus.
    pub fn pop_word(&mut self) -> Result<u32, Fault> {
        let sp = self.regs[Reg::SP.index()];
        let value = self.read_word(sp)?;
        self.regs[Reg::SP.index()] = sp.wrapping_add(4);
        Ok(value)
    }

    /// Dispatches an interrupt through the IDT: the exception engine pushes
    /// `EFLAGS` and `EIP` onto the interrupted task's stack, clears `IF`,
    /// and vectors to the handler (§4). `origin` is recorded as the
    /// interrupt origin.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Bus`] if the stack or IDT access fails.
    pub fn dispatch_interrupt(&mut self, vector: u8, origin: u32) -> Result<(), Fault> {
        let begin = self.clock;
        let handler = self.idt_entry(vector)?;
        self.push_word(self.eflags)?;
        self.push_word(self.eip)?;
        self.resume_latches.insert(self.eip);
        if self.hw_context_save {
            // Hardware-assisted save (§4's alternative): the exception
            // engine stores and wipes the scratch registers in parallel,
            // producing the same frame layout as the Int Mux stub.
            for i in 0..=6usize {
                let value = self.regs[i];
                self.push_word(value)?;
                if i > 0 {
                    self.regs[i] = 0;
                }
            }
            self.clock += self.hw_save_cost;
        }
        self.eflags &= !EFLAGS_IF;
        self.eip = handler;
        self.int_origin = Some(origin);
        self.halted = false;
        self.clock += self.cycle_model.int_dispatch;
        self.stats.interrupts += 1;
        let clock = self.clock;
        self.last_dispatch = Some(DispatchStamp {
            begin,
            end: clock,
            vector,
        });
        if let Some(o) = &self.observer {
            o.dispatch(vector, clock - begin);
        }
        if let Some(t) = &mut self.trace {
            t.tracer.counters().incr(t.irq_entry);
            t.irq_stack.push(vector);
            t.tracer
                .emit(Layer::Emu, vector as u32, clock, EventKind::Enter("irq"));
        }
        Ok(())
    }

    // ----- devices -----

    /// Attaches a device, returning its handle (index).
    pub fn add_device(&mut self, device: Box<dyn Device>) -> usize {
        self.device_deadline_dirty = true;
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// Borrows an attached device downcast to its concrete type.
    pub fn device<T: Device + 'static>(&self, handle: usize) -> Option<&T> {
        self.devices.get(handle)?.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows an attached device downcast to its concrete type.
    pub fn device_mut<T: Device + 'static>(&mut self, handle: usize) -> Option<&mut T> {
        // The caller may reconfigure the device (e.g. re-program a timer).
        self.device_deadline_dirty = true;
        self.devices
            .get_mut(handle)?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    fn poll_devices(&mut self) {
        let now = self.clock;
        for dev in &mut self.devices {
            if let Some(vector) = dev.poll_irq(now) {
                self.pending_irqs.insert(vector);
            }
        }
        // Polling consumes events (a fired timer re-arms itself), so the
        // cached deadline must be derived anew.
        self.device_deadline_dirty = true;
    }

    /// Refreshes the cached earliest cycle at which any device could need
    /// polling. Events already due are clamped to `now`.
    fn recompute_device_deadline(&mut self) {
        let now = self.clock;
        let mut deadline = u64::MAX;
        for dev in &self.devices {
            if let Some(at) = dev.next_event(now) {
                deadline = deadline.min(at.max(now));
            }
        }
        self.device_deadline = deadline;
        self.device_deadline_dirty = false;
    }

    // ----- execution -----

    fn set_zs_flags(&mut self, value: u32) {
        self.eflags &= !(EFLAGS_ZF | EFLAGS_SF);
        if value == 0 {
            self.eflags |= EFLAGS_ZF;
        }
        if (value as i32) < 0 {
            self.eflags |= EFLAGS_SF;
        }
    }

    fn set_arith_flags(&mut self, result: u32, carry: bool) {
        self.set_zs_flags(result);
        self.eflags &= !EFLAGS_CF;
        if carry {
            self.eflags |= EFLAGS_CF;
        }
    }

    fn guest_read(&mut self, addr: u32, width: u8) -> Result<u32, Fault> {
        self.check(self.eip, addr, AccessKind::Read)?;
        match width {
            1 => self.read_byte(addr).map(u32::from),
            _ => self.read_word(addr),
        }
    }

    fn guest_write(&mut self, addr: u32, value: u32, width: u8) -> Result<(), Fault> {
        self.check(self.eip, addr, AccessKind::Write)?;
        match width {
            1 => self.write_byte(addr, value as u8),
            _ => self.write_word(addr, value),
        }
    }

    fn check_transfer(&self, from: u32, to: u32) -> Result<(), Fault> {
        if !self.mpu_enabled {
            return Ok(());
        }
        match self.mpu.check_transfer(from, to) {
            TransferDecision::DeniedMidRegion { expected_entry } => Err(Fault::MpuTransfer {
                from,
                to,
                expected_entry,
            }),
            _ => Ok(()),
        }
    }

    /// Executes exactly one instruction.
    ///
    /// Returns `Ok(())` on normal retirement (including `HLT`, which sets
    /// the halted state).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] that stopped the instruction; `EIP` is left at
    /// the faulting instruction.
    pub fn step(&mut self) -> Result<(), Fault> {
        self.step_retired().map(|_| ())
    }

    /// [`Machine::step`], returning the instruction it retired.
    pub(crate) fn step_retired(&mut self) -> Result<Instr, Fault> {
        let eip = self.eip;
        let first = self.read_word(eip).map_err(|_| Fault::Decode { eip })?;
        let needs_ext = sp32::encoded_len_words(first) == 2;
        // An instruction must fit strictly below the top of the address
        // space: both its own words and the fall-through EIP after it.
        // Code fetched from a device mapped at the very edge (e.g. a
        // boot ROM at 0xFFFF_FFFC) would otherwise wrap the `eip + 4`
        // ext-word fetch and the fall-through computation below.
        let size = if needs_ext { 8u32 } else { 4u32 };
        if eip.checked_add(size).is_none() {
            return Err(Fault::Decode { eip });
        }
        let ext = if needs_ext {
            Some(self.read_word(eip + 4).map_err(|_| Fault::Decode { eip })?)
        } else {
            None
        };
        let instr = decode(first, ext).map_err(|_| Fault::Decode { eip })?;
        let fallthrough = eip + instr.size_bytes();
        let mut next = fallthrough;
        let mut taken = false;
        let mut transfer_checked = false;

        match instr {
            Instr::Nop => {}
            Instr::Hlt => {
                self.halted = true;
            }
            Instr::MovReg { rd, rs } => self.regs[rd.index()] = self.regs[rs.index()],
            Instr::MovImm { rd, imm } => self.regs[rd.index()] = imm,
            Instr::Add { rd, rs } => {
                let (v, c) = self.regs[rd.index()].overflowing_add(self.regs[rs.index()]);
                self.regs[rd.index()] = v;
                self.set_arith_flags(v, c);
            }
            Instr::AddImm { rd, imm } => {
                let (v, c) = self.regs[rd.index()].overflowing_add(imm as i32 as u32);
                self.regs[rd.index()] = v;
                self.set_arith_flags(v, c);
            }
            Instr::Sub { rd, rs } => {
                let (v, borrow) = self.regs[rd.index()].overflowing_sub(self.regs[rs.index()]);
                self.regs[rd.index()] = v;
                self.set_arith_flags(v, borrow);
            }
            Instr::Mul { rd, rs } => {
                let v = self.regs[rd.index()].wrapping_mul(self.regs[rs.index()]);
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::And { rd, rs } => {
                let v = self.regs[rd.index()] & self.regs[rs.index()];
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::Or { rd, rs } => {
                let v = self.regs[rd.index()] | self.regs[rs.index()];
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::Xor { rd, rs } => {
                let v = self.regs[rd.index()] ^ self.regs[rs.index()];
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::Not { rd } => {
                let v = !self.regs[rd.index()];
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::Shl { rd, rs } => {
                let v = self.regs[rd.index()] << (self.regs[rs.index()] & 31);
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::Shr { rd, rs } => {
                let v = self.regs[rd.index()] >> (self.regs[rs.index()] & 31);
                self.regs[rd.index()] = v;
                self.set_zs_flags(v);
            }
            Instr::Cmp { rd, rs } => {
                let (v, borrow) = self.regs[rd.index()].overflowing_sub(self.regs[rs.index()]);
                self.set_arith_flags(v, borrow);
            }
            Instr::CmpImm { rd, imm } => {
                let (v, borrow) = self.regs[rd.index()].overflowing_sub(imm as i32 as u32);
                self.set_arith_flags(v, borrow);
            }
            Instr::Ldw { rd, rs, disp } => {
                let addr = self.regs[rs.index()].wrapping_add(disp as i32 as u32);
                self.regs[rd.index()] = self.guest_read(addr, 4)?;
            }
            Instr::Ldb { rd, rs, disp } => {
                let addr = self.regs[rs.index()].wrapping_add(disp as i32 as u32);
                self.regs[rd.index()] = self.guest_read(addr, 1)?;
            }
            Instr::Stw { rd, rs, disp } => {
                let addr = self.regs[rd.index()].wrapping_add(disp as i32 as u32);
                self.guest_write(addr, self.regs[rs.index()], 4)?;
            }
            Instr::Stb { rd, rs, disp } => {
                let addr = self.regs[rd.index()].wrapping_add(disp as i32 as u32);
                self.guest_write(addr, self.regs[rs.index()], 1)?;
            }
            Instr::Jmp { target } => {
                next = target;
                taken = true;
            }
            Instr::Jcc { cond, target } => {
                if cond.holds(self.eflags) {
                    next = target;
                    taken = true;
                }
            }
            Instr::JmpReg { rs } => {
                next = self.regs[rs.index()];
                taken = true;
            }
            Instr::Call { target } => {
                self.check(
                    self.eip,
                    self.regs[Reg::SP.index()].wrapping_sub(4),
                    AccessKind::Write,
                )?;
                self.push_word(fallthrough)?;
                next = target;
                taken = true;
            }
            Instr::Ret => {
                self.check(self.eip, self.regs[Reg::SP.index()], AccessKind::Read)?;
                next = self.pop_word()?;
                taken = true;
            }
            Instr::Push { rs } => {
                self.check(
                    self.eip,
                    self.regs[Reg::SP.index()].wrapping_sub(4),
                    AccessKind::Write,
                )?;
                let value = self.regs[rs.index()];
                self.push_word(value)?;
            }
            Instr::Pop { rd } => {
                self.check(self.eip, self.regs[Reg::SP.index()], AccessKind::Read)?;
                let value = self.pop_word()?;
                self.regs[rd.index()] = value;
            }
            Instr::Int { vector } => {
                // The exception engine pushes the *return* address; origin
                // records the INT site for the IPC proxy.
                let cost = self.cycle_model.cost(&instr, false);
                self.clock += cost;
                self.stats.instructions += 1;
                if let Some(t) = &self.trace {
                    t.tracer.counters().incr(t.class[instr_class(&instr)]);
                }
                if let Some(o) = &self.observer {
                    // The INT instruction's own cost belongs to the guest
                    // code at `eip`; the dispatch reports its cost itself.
                    o.instruction(eip, cost);
                }
                self.eip = fallthrough;
                self.dispatch_interrupt(vector, eip)?;
                return Ok(instr);
            }
            Instr::Iret => {
                let new_eip = self.pop_word()?;
                let new_eflags = self.pop_word()?;
                // A resume latch (armed by the exception engine at dispatch)
                // authorises returning into the middle of a protected
                // region: this is the hardware half of TyTAN's secure,
                // interruptible tasks. Without a latch the normal transfer
                // rules apply.
                if !self.resume_latches.remove(&new_eip) {
                    self.check_transfer(eip, new_eip).inspect_err(|_| {
                        // Roll back the pops so the fault is observable.
                        self.regs[Reg::SP.index()] = self.regs[Reg::SP.index()].wrapping_sub(8);
                    })?;
                }
                transfer_checked = true;
                self.eflags = new_eflags;
                next = new_eip;
                taken = true;
                let clock = self.clock;
                if let Some(t) = &mut self.trace {
                    t.tracer.counters().incr(t.irq_exit);
                    // Pop the matching dispatch so the Exit lands on the
                    // same Chrome track; a bare IRET (kernel-fabricated
                    // frame) falls back to the layer's main track.
                    let vector = t.irq_stack.pop().unwrap_or(0);
                    t.tracer
                        .emit(Layer::Emu, vector as u32, clock, EventKind::Exit("irq"));
                }
            }
            Instr::Sti => self.eflags |= EFLAGS_IF,
            Instr::Cli => self.eflags &= !EFLAGS_IF,
        }

        if !transfer_checked {
            self.check_transfer(eip, next)?;
        }
        let cost = self.cycle_model.cost(&instr, taken);
        self.clock += cost;
        self.stats.instructions += 1;
        if let Some(t) = &self.trace {
            t.tracer.counters().incr(t.class[instr_class(&instr)]);
        }
        if let Some(o) = &self.observer {
            o.instruction(eip, cost);
        }
        if matches!(instr, Instr::Iret) {
            // Post-cost clock of the retired IRET: the anchor the
            // context-restore latency measurement resumes from.
            self.last_iret = Some(self.clock);
        }
        // Taken edges feed the control-flow monitor. `Iret` is excluded:
        // interrupt exits belong to the kernel, not the task's own
        // control flow (`Int` returned early above for the same reason),
        // so the chain is preemption- and engine-independent.
        if taken && !matches!(instr, Instr::Iret) {
            if let Some(m) = &mut self.cf_monitor {
                m.record(eip, next);
            }
        }
        self.eip = next;
        Ok(instr)
    }

    /// Runs guest code until an [`Event`] occurs or `max_cycles` elapse.
    ///
    /// Pending interrupts are delivered between instructions when `IF` is
    /// set. A registered firmware trap address takes priority: reaching one
    /// pauses execution *before* the (virtual) instruction there runs.
    pub fn run(&mut self, max_cycles: u64) -> Event {
        match self.engine {
            EngineKind::Legacy => self.run_legacy(max_cycles),
            EngineKind::Translated => self.run_translated(max_cycles),
        }
    }

    /// The engine driving [`Machine::run`].
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The original per-instruction loop: poll every device and re-check
    /// every boundary condition between each instruction. Kept verbatim as
    /// the reference the cycle-identity tests compare the block translator
    /// against.
    pub(crate) fn run_legacy(&mut self, max_cycles: u64) -> Event {
        let deadline = self.clock.saturating_add(max_cycles);
        loop {
            self.poll_devices();

            // Deliver an interrupt if possible (also wakes a halted core).
            if self.interrupts_enabled() {
                if let Some(&vector) = self.pending_irqs.iter().next() {
                    self.pending_irqs.remove(&vector);
                    let origin = self.eip;
                    if let Err(fault) = self.dispatch_interrupt(vector, origin) {
                        self.stats.faults += 1;
                        self.note_fault();
                        return Event::Fault(fault);
                    }
                }
            }

            if self.trap_hit(self.eip) && !self.halted {
                return Event::FirmwareTrap { addr: self.eip };
            }

            if self.halted {
                // Idle: advance time so timer devices keep firing.
                self.clock += 8;
                if let Some(o) = &self.observer {
                    o.idle(8);
                }
                if self.clock >= deadline {
                    return Event::IdleBudgetExhausted;
                }
                continue;
            }

            if self.clock >= deadline {
                return Event::BudgetExhausted;
            }

            if let Err(fault) = self.step() {
                self.stats.faults += 1;
                self.note_fault();
                return Event::Fault(fault);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp32::asm::assemble;

    fn machine_with(src: &str, origin: u32) -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        let p = assemble(src, origin).expect("assemble");
        m.load_image(origin, &p.bytes).expect("load");
        m.set_eip(origin);
        m
    }

    #[test]
    fn exec_engine_selector_defaults_to_the_translator() {
        assert_eq!(engine_from_env(Some(" legacy ")), EngineKind::Legacy);
        // Anything else, including unset and retired engine names,
        // selects the default.
        for other in [Some("translated"), Some("fast"), Some(""), None] {
            assert_eq!(engine_from_env(other), EngineKind::Translated);
        }
    }

    #[test]
    fn tracer_counts_classes_and_blocks_without_touching_cycles() {
        use std::sync::Arc;
        use tytan_trace::RingRecorder;

        // Pin the translator on: the block-cache assertions below are
        // about its cache, which the legacy loop
        // (TYTAN_EXEC_ENGINE=legacy in the CI matrix) never consults.
        let build = |src: &str| {
            let mut m = Machine::new(MachineConfig {
                engine: EngineKind::Translated,
                ..MachineConfig::default()
            });
            let p = assemble(src, 0x100).expect("assemble");
            m.load_image(0x100, &p.bytes).expect("load");
            m.set_eip(0x100);
            m
        };
        let src = "main:\n movi r0, 0\nloop:\n addi r0, 1\n cmpi r0, 50\n jnz loop\n hlt\n";
        let mut traced = build(src);
        let ring = Arc::new(RingRecorder::new(256));
        traced.attach_tracer(Tracer::new(ring.clone()));
        let mut plain = build(src);

        traced.run(10_000);
        plain.run(10_000);
        assert_eq!(traced.cycles(), plain.cycles(), "tracing charged cycles");
        assert_eq!(traced.stats(), plain.stats());

        let c = traced.tracer().unwrap().counters().clone();
        // 1 movi + 50 * (addi + cmpi) = 101 ALU retirements, 50 jnz + hlt.
        assert_eq!(c.get("emu_instr_alu"), Some(101));
        assert_eq!(c.get("emu_instr_branch"), Some(50));
        assert_eq!(c.get("emu_instr_system"), Some(1));
        // The loop body re-executes from the block cache.
        let hits = c.get("emu_block_hit").unwrap();
        let compiles = c.get("emu_block_compile").unwrap();
        assert!(hits > compiles, "loop should be block-cache resident");
    }

    #[test]
    fn tracer_records_irq_spans() {
        use std::sync::Arc;
        use tytan_trace::RingRecorder;

        let src = "main:\n sti\n int 5\n addi r2, 1\n hlt\n\
                   handler:\n addi r3, 1\n iret\n";
        let mut m = machine_with(src, 0x1000);
        let p = assemble(src, 0x1000).unwrap();
        let handler = p.symbol("handler").unwrap();
        m.set_reg(Reg::R7, 0x8000);
        m.set_idt_base(0x40);
        m.set_idt_entry(5, handler).unwrap();
        let ring = Arc::new(RingRecorder::new(64));
        m.attach_tracer(Tracer::new(ring.clone()));

        m.run(10_000);
        assert!(m.is_halted());
        let events = ring.events();
        let enters: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Enter("irq"))
            .collect();
        let exits: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Exit("irq"))
            .collect();
        assert_eq!(enters.len(), 1);
        assert_eq!(exits.len(), 1);
        assert_eq!(enters[0].tid, 5, "track is the vector");
        assert_eq!(exits[0].tid, 5);
        assert!(enters[0].cycle < exits[0].cycle);
        let c = m.tracer().unwrap().counters();
        assert_eq!(c.get("emu_irq_entry"), Some(1));
        assert_eq!(c.get("emu_irq_exit"), Some(1));
        assert_eq!(c.get("emu_irq_truncated"), Some(0));
    }

    #[test]
    fn flush_closes_open_irq_spans_with_truncation_marker() {
        use std::sync::Arc;
        use tytan_trace::RingRecorder;

        // The handler halts without IRET, so the machine stops mid-handler
        // with the IRQ span open.
        let src = "main:\n sti\n int 5\n hlt\nhandler:\n hlt\n";
        let mut m = machine_with(src, 0x1000);
        let p = assemble(src, 0x1000).unwrap();
        m.set_reg(Reg::R7, 0x8000);
        m.set_idt_base(0x40);
        m.set_idt_entry(5, p.symbol("handler").unwrap()).unwrap();
        let ring = Arc::new(RingRecorder::new(64));
        m.attach_tracer(Tracer::new(ring.clone()));

        m.run(2_000);
        assert!(m.is_halted());
        let c = m.tracer().unwrap().counters().clone();
        assert_eq!(c.get("emu_irq_entry"), Some(1));
        assert_eq!(c.get("emu_irq_exit"), Some(0), "halted mid-handler");

        let cycles_before = m.cycles();
        m.flush_trace();
        assert_eq!(m.cycles(), cycles_before, "flush is host-side only");
        // The shutdown invariant: entry == exit + truncated.
        assert_eq!(
            c.get("emu_irq_entry"),
            Some(c.get("emu_irq_exit").unwrap() + c.get("emu_irq_truncated").unwrap())
        );
        assert_eq!(c.get("emu_irq_truncated"), Some(1));
        let events = ring.events();
        let enters = events
            .iter()
            .filter(|e| e.kind == EventKind::Enter("irq"))
            .count();
        let exits = events
            .iter()
            .filter(|e| e.kind == EventKind::Exit("irq"))
            .count();
        assert_eq!(enters, exits, "flush balanced the Chrome spans");
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Mark("irq_truncated") && e.tid == 5));
        // Idempotent: a second flush does nothing.
        m.flush_trace();
        assert_eq!(c.get("emu_irq_truncated"), Some(1));
    }

    /// Records every attribution callback into atomic tallies.
    #[derive(Default)]
    struct TallyObserver {
        instr: std::sync::atomic::AtomicU64,
        dispatch: std::sync::atomic::AtomicU64,
        firmware: std::sync::atomic::AtomicU64,
        idle: std::sync::atomic::AtomicU64,
    }

    impl TallyObserver {
        fn total(&self) -> u64 {
            use std::sync::atomic::Ordering::Relaxed;
            self.instr.load(Relaxed)
                + self.dispatch.load(Relaxed)
                + self.firmware.load(Relaxed)
                + self.idle.load(Relaxed)
        }
    }

    impl CycleObserver for TallyObserver {
        fn instruction(&self, _eip: u32, cycles: u64) {
            self.instr
                .fetch_add(cycles, std::sync::atomic::Ordering::Relaxed);
        }
        fn dispatch(&self, _vector: u8, cycles: u64) {
            self.dispatch
                .fetch_add(cycles, std::sync::atomic::Ordering::Relaxed);
        }
        fn firmware(&self, _eip: u32, cycles: u64) {
            self.firmware
                .fetch_add(cycles, std::sync::atomic::Ordering::Relaxed);
        }
        fn idle(&self, cycles: u64) {
            self.idle
                .fetch_add(cycles, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn cycle_observer_attribution_is_exact_and_neutral() {
        use std::sync::atomic::Ordering::Relaxed;
        use std::sync::Arc;

        // Exercise every attribution class: instructions, a software
        // interrupt (INT cost + dispatch cost), IRET, idle after HLT, and
        // a firmware tick charged mid-run.
        let src = "main:\n sti\n movi r0, 3\nloop:\n addi r0, -1\n cmpi r0, 0\n jnz loop\n \
                   int 5\n hlt\nhandler:\n addi r3, 1\n iret\n";
        let build = |src: &str| {
            let mut m = machine_with(src, 0x1000);
            let p = assemble(src, 0x1000).unwrap();
            m.set_reg(Reg::R7, 0x8000);
            m.set_idt_base(0x40);
            m.set_idt_entry(5, p.symbol("handler").unwrap()).unwrap();
            m
        };
        let mut observed = build(src);
        let tally = Arc::new(TallyObserver::default());
        observed.attach_cycle_observer(tally.clone());
        let mut bare = build(src);

        observed.run(5_000);
        bare.run(5_000);
        // Neutrality: attaching the observer changed nothing guest-visible.
        assert_eq!(observed.cycles(), bare.cycles());
        assert_eq!(observed.stats(), bare.stats());
        assert_eq!(observed.regs(), bare.regs());
        assert_eq!(observed.eip(), bare.eip());
        // Exactness: every charged cycle was attributed exactly once.
        assert_eq!(tally.total(), observed.cycles());
        assert!(tally.instr.load(Relaxed) > 0);
        assert!(tally.dispatch.load(Relaxed) > 0);
        assert!(tally.idle.load(Relaxed) > 0);
        assert_eq!(tally.firmware.load(Relaxed), 0);

        // Firmware charges report through the firmware callback.
        observed.tick(37);
        assert_eq!(tally.firmware.load(Relaxed), 37);
        assert_eq!(tally.total(), observed.cycles());
    }

    #[test]
    fn dispatch_and_iret_stamps_bracket_the_handler() {
        let src = "main:\n sti\n int 5\n hlt\nhandler:\n addi r3, 1\n iret\n";
        let mut m = machine_with(src, 0x1000);
        let p = assemble(src, 0x1000).unwrap();
        m.set_reg(Reg::R7, 0x8000);
        m.set_idt_base(0x40);
        m.set_idt_entry(5, p.symbol("handler").unwrap()).unwrap();

        m.run(2_000);
        let stamp = m.take_last_dispatch().expect("one dispatch happened");
        assert_eq!(stamp.vector, 5);
        assert!(stamp.begin < stamp.end, "dispatch charged cycles");
        let iret_at = m.take_last_iret().expect("handler returned");
        assert!(iret_at > stamp.end, "IRET retired after the dispatch");
        // Take-semantics: each stamp is consumed exactly once.
        assert_eq!(m.take_last_dispatch(), None);
        assert_eq!(m.take_last_iret(), None);
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut m = machine_with("movi r0, 5\nmovi r1, 5\nsub r0, r1\nhlt\n", 0x100);
        m.run(1_000);
        assert_eq!(m.reg(Reg::R0), 0);
        assert!(m.eflags() & EFLAGS_ZF != 0);
        assert!(m.is_halted());
    }

    #[test]
    fn memory_roundtrip_through_guest() {
        let mut m = machine_with(
            "movi r0, 0x9000\nmovi r1, 0xabcd1234\nstw [r0], r1\nldw r2, [r0]\nhlt\n",
            0x100,
        );
        m.run(1_000);
        assert_eq!(m.reg(Reg::R2), 0xabcd_1234);
        assert_eq!(m.read_word(0x9000).unwrap(), 0xabcd_1234);
    }

    #[test]
    fn byte_access() {
        let mut m = machine_with(
            "movi r0, 0x9000\nmovi r1, 0x1ff\nstb [r0], r1\nldb r2, [r0]\nhlt\n",
            0x100,
        );
        m.run(1_000);
        assert_eq!(m.reg(Reg::R2), 0xff);
    }

    #[test]
    fn call_and_ret() {
        let src = "movi sp, 0x10000\ncall f\nmovi r1, 2\nhlt\nf:\nmovi r0, 1\nret\n";
        let mut m = machine_with(src, 0x100);
        m.run(1_000);
        assert_eq!(m.reg(Reg::R0), 1);
        assert_eq!(m.reg(Reg::R1), 2);
        assert_eq!(m.reg(Reg::SP), 0x10000);
    }

    #[test]
    fn loop_counts() {
        let src = "movi r0, 0\nmovi r1, 10\nloop:\naddi r0, 1\ncmp r0, r1\njnz loop\nhlt\n";
        let mut m = machine_with(src, 0x100);
        m.run(10_000);
        assert_eq!(m.reg(Reg::R0), 10);
    }

    #[test]
    fn software_interrupt_and_iret() {
        // Handler at 0x500 writes a marker then IRETs back.
        let main = "movi sp, 0x10000\nsti\nint 0x21\nmovi r2, 7\nhlt\n";
        let handler = "movi r1, 0x55\niret\n";
        let mut m = Machine::new(MachineConfig::default());
        let pm = assemble(main, 0x100).unwrap();
        let ph = assemble(handler, 0x500).unwrap();
        m.load_image(0x100, &pm.bytes).unwrap();
        m.load_image(0x500, &ph.bytes).unwrap();
        m.set_idt_base(0x40);
        m.set_idt_entry(0x21, 0x500).unwrap();
        m.set_eip(0x100);
        m.run(10_000);
        assert_eq!(m.reg(Reg::R1), 0x55);
        assert_eq!(m.reg(Reg::R2), 7);
        assert!(m.is_halted());
        // int origin points at the INT instruction.
        assert_eq!(m.int_origin(), Some(0x100 + 8 + 4));
    }

    #[test]
    fn interrupt_clears_if_and_iret_restores() {
        let main = "movi sp, 0x10000\nsti\nint 0x21\nhlt\n";
        let handler = "iret\n";
        let mut m = Machine::new(MachineConfig::default());
        let pm = assemble(main, 0x100).unwrap();
        let ph = assemble(handler, 0x500).unwrap();
        m.load_image(0x100, &pm.bytes).unwrap();
        m.load_image(0x500, &ph.bytes).unwrap();
        m.set_idt_base(0x40);
        m.set_idt_entry(0x21, 0x500).unwrap();
        m.set_eip(0x100);
        // Stop exactly inside the handler via firmware trap.
        m.add_firmware_trap(0x500);
        let ev = m.run(10_000);
        assert_eq!(ev, Event::FirmwareTrap { addr: 0x500 });
        assert!(!m.interrupts_enabled(), "IF cleared during handler");
        m.remove_firmware_trap(0x500);
        m.run(10_000);
        assert!(m.interrupts_enabled(), "IRET restored IF");
    }

    #[test]
    fn firmware_trap_pauses_before_execution() {
        let mut m = machine_with("movi r0, 1\nmovi r0, 2\nhlt\n", 0x100);
        m.add_firmware_trap(0x108);
        let ev = m.run(1_000);
        assert_eq!(ev, Event::FirmwareTrap { addr: 0x108 });
        assert_eq!(m.reg(Reg::R0), 1, "second movi not yet executed");
    }

    #[test]
    fn mpu_blocks_foreign_data_access() {
        use eampu::{Perms, Region, Rule};
        let src = "movi r0, 0x8000\nldw r1, [r0]\nhlt\n";
        let mut m = machine_with(src, 0x100);
        m.mpu_mut()
            .configure(Rule::new(
                Region::new(0x4000, 0x100),
                0x4000,
                Region::new(0x8000, 0x100),
                Perms::RW,
            ))
            .unwrap();
        let ev = m.run(1_000);
        assert_eq!(
            ev,
            Event::Fault(Fault::MpuAccess {
                eip: 0x108,
                addr: 0x8000,
                kind: AccessKind::Read
            })
        );
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn mpu_entry_point_enforced_on_jump() {
        use eampu::{Perms, Region, Rule};
        // Protected region at 0x4000 with entry 0x4000; jumping to 0x4008
        // from outside faults.
        let src = "jmp 0x4008\n";
        let mut m = machine_with(src, 0x100);
        m.mpu_mut()
            .configure(Rule::new(
                Region::new(0x4000, 0x100),
                0x4000,
                Region::new(0x8000, 0x100),
                Perms::RW,
            ))
            .unwrap();
        let ev = m.run(1_000);
        assert_eq!(
            ev,
            Event::Fault(Fault::MpuTransfer {
                from: 0x100,
                to: 0x4008,
                expected_entry: 0x4000
            })
        );
    }

    #[test]
    fn mpu_disabled_is_baseline_platform() {
        use eampu::{Perms, Region, Rule};
        let src = "movi r0, 0x8000\nldw r1, [r0]\nhlt\n";
        let mut m = machine_with(src, 0x100);
        m.mpu_mut()
            .configure(Rule::new(
                Region::new(0x4000, 0x100),
                0x4000,
                Region::new(0x8000, 0x100),
                Perms::RW,
            ))
            .unwrap();
        m.set_mpu_enabled(false);
        let ev = m.run(1_000);
        assert_eq!(ev, Event::IdleBudgetExhausted);
    }

    #[test]
    fn idt_base_register_is_write_once() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_idt_base(0x40);
        m.set_idt_base(0x8000); // ignored: a malicious IDT cannot be installed
        assert_eq!(m.idt_base(), 0x40);
    }

    #[test]
    fn cycles_advance_and_tick_charges() {
        let mut m = machine_with("nop\nhlt\n", 0x100);
        let start = m.cycles();
        m.run(100);
        assert!(m.cycles() > start);
        let before = m.cycles();
        m.tick(1_000);
        assert_eq!(m.cycles(), before + 1_000);
    }

    #[test]
    fn bus_fault_on_out_of_range() {
        let mut m = machine_with("movi r0, 0x7fffff00\nldw r1, [r0]\nhlt\n", 0x100);
        let ev = m.run(1_000);
        assert!(matches!(ev, Event::Fault(Fault::Bus { .. })));
    }

    #[test]
    fn decode_fault_on_garbage() {
        let mut m = Machine::new(MachineConfig::default());
        m.write_word(0x100, 0xff00_0000).unwrap();
        m.set_eip(0x100);
        let ev = m.run(1_000);
        assert_eq!(ev, Event::Fault(Fault::Decode { eip: 0x100 }));
    }

    #[test]
    fn stats_count_instructions() {
        let mut m = machine_with("nop\nnop\nnop\nhlt\n", 0x100);
        m.run(1_000);
        assert_eq!(m.stats().instructions, 4);
    }

    #[test]
    fn resume_latch_authorises_one_return_into_protected_region() {
        use eampu::{Perms, Region, Rule};
        // A protected region interrupted mid-execution can be resumed via
        // IRET exactly once; a forged second IRET to the same address is
        // denied.
        let task = "main:\n movi r1, 1\nloop:\n addi r1, 1\n jmp loop\n";
        let handler = "iret\n";
        let mut m = Machine::new(MachineConfig::default());
        let pt = assemble(task, 0x4000).unwrap();
        let ph = assemble(handler, 0x500).unwrap();
        m.load_image(0x4000, &pt.bytes).unwrap();
        m.load_image(0x500, &ph.bytes).unwrap();
        m.set_idt_base(0x40);
        m.set_idt_entry(33, 0x500).unwrap();
        m.mpu_mut()
            .configure(Rule::new(
                Region::new(0x4000, 0x100),
                0x4000,
                Region::new(0x9000, 0x100),
                Perms::RW,
            ))
            .unwrap();
        m.set_reg(Reg::SP, 0x8000);
        m.set_eflags(EFLAGS_IF);
        m.set_eip(0x4000);
        m.run(100);
        let interrupted_at = m.eip();
        assert!(interrupted_at > 0x4000, "task is mid-region");
        m.raise_irq(33);
        m.run(100); // deliver + handler IRET resumes mid-region: allowed
        assert!(m.eip() >= 0x4000 && m.eip() < 0x4100, "resumed in region");

        // Forge a frame for the same address from unprotected code: the
        // latch was consumed, so the IRET faults.
        let forge = format!(
            "main:\n movi sp, 0x8000\n movi r1, 0\n push r1\n movi r1, {interrupted_at:#x}\n push r1\n iret\n"
        );
        let pf = assemble(&forge, 0x600).unwrap();
        m.load_image(0x600, &pf.bytes).unwrap();
        m.set_eflags(0);
        m.set_eip(0x600 + pf.symbol("main").unwrap() - 0x600);
        let ev = m.run(1_000);
        assert!(
            matches!(ev, Event::Fault(Fault::MpuTransfer { .. })),
            "forged IRET denied: {ev:?}"
        );
    }

    #[test]
    fn hw_context_save_builds_the_same_frame_as_the_stub() {
        let config = MachineConfig {
            hw_context_save: true,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(config);
        let main = "movi sp, 0x8000\nmovi r1, 0x11\nmovi r2, 0x22\nsti\nint 0x21\nhlt\n";
        // The handler restores the hardware-built frame like the platform's
        // restore stub: pop r6..r0, then IRET.
        let handler = "pop r6\npop r5\npop r4\npop r3\npop r2\npop r1\npop r0\niret\n";
        let pm = assemble(main, 0x100).unwrap();
        let ph = assemble(handler, 0x500).unwrap();
        m.load_image(0x100, &pm.bytes).unwrap();
        m.load_image(0x500, &ph.bytes).unwrap();
        m.set_idt_base(0x40);
        m.set_idt_entry(0x21, 0x500).unwrap();
        m.set_eip(0x100);
        m.add_firmware_trap(0x500);
        let ev = m.run(10_000);
        assert_eq!(ev, Event::FirmwareTrap { addr: 0x500 });
        // Frame: [r6..r0][eip][eflags] from the stack pointer, exactly the
        // software stub's layout; registers r1..r6 wiped.
        let sp = m.reg(Reg::SP);
        assert_eq!(m.read_word(sp + 4 * 5).unwrap(), 0x11, "saved r1");
        assert_eq!(m.read_word(sp + 4 * 4).unwrap(), 0x22, "saved r2");
        assert_eq!(m.reg(Reg::R1), 0, "live r1 wiped");
        assert_eq!(m.reg(Reg::R2), 0, "live r2 wiped");
        // Resume restores everything.
        m.remove_firmware_trap(0x500);
        m.run(10_000);
        assert_eq!(m.reg(Reg::R1), 0x11);
        assert_eq!(m.reg(Reg::R2), 0x22);
        assert!(m.is_halted());
    }

    #[test]
    fn halted_machine_wakes_on_timer_interrupt() {
        use crate::devices::Timer;
        let main = "movi sp, 0x10000\nsti\nhlt\nmovi r3, 9\nhlt\n";
        let handler = "movi r1, 1\niret\n";
        let mut m = Machine::new(MachineConfig::default());
        let pm = assemble(main, 0x100).unwrap();
        let ph = assemble(handler, 0x500).unwrap();
        m.load_image(0x100, &pm.bytes).unwrap();
        m.load_image(0x500, &ph.bytes).unwrap();
        m.set_idt_base(0x40);
        m.set_idt_entry(32, 0x500).unwrap();
        let timer = Timer::new(0xf000_0000, 32);
        let h = m.add_device(Box::new(timer));
        m.device_mut::<Timer>(h).unwrap().configure(500, true);
        m.set_eip(0x100);
        m.run(5_000);
        assert_eq!(m.reg(Reg::R1), 1, "handler ran");
        assert_eq!(m.reg(Reg::R3), 9, "execution resumed after hlt");
    }

    // ----- adversarial-plane regressions: address-space-edge and
    // zero-length span arithmetic (found/pinned by the fuzz plane) -----

    /// A device serving one constant instruction word at every offset,
    /// mappable where RAM can never reach — lets tests execute code at
    /// EIPs like `0xFFFF_FFFC`, right at the top of the address space.
    struct CodeRom {
        base: u32,
        word: u32,
    }

    impl Device for CodeRom {
        fn range(&self) -> eampu::Region {
            eampu::Region::new(self.base, 0x100)
        }

        fn read(&mut self, _offset: u32, _now: u64) -> u32 {
            self.word
        }

        fn write(&mut self, _offset: u32, _value: u32, _now: u64) {}

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    const ALL_ENGINES: [EngineKind; 2] = [EngineKind::Legacy, EngineKind::Translated];

    fn edge_machine(engine: EngineKind, word: u32) -> Machine {
        let mut m = Machine::new(MachineConfig {
            engine,
            ..MachineConfig::default()
        });
        m.add_device(Box::new(CodeRom {
            base: 0xFFFF_FF00,
            word,
        }));
        m
    }

    #[test]
    fn ext_word_fetch_at_address_space_edge_faults_instead_of_wrapping() {
        // The first word of a two-word instruction at 0xFFFF_FFFC puts its
        // ext word at eip + 4 == 0x1_0000_0000, which does not exist; the
        // fetch used to wrap (a debug-build panic) instead of faulting.
        let mut words = Vec::new();
        sp32::encode(
            &Instr::MovImm {
                rd: Reg::R0,
                imm: 7,
            },
            &mut words,
        );
        for engine in ALL_ENGINES {
            let mut m = edge_machine(engine, words[0]);
            m.set_eip(0xFFFF_FFFC);
            assert_eq!(m.step(), Err(Fault::Decode { eip: 0xFFFF_FFFC }));
        }
    }

    #[test]
    fn single_word_instruction_at_edge_faults_on_fallthrough() {
        let mut words = Vec::new();
        sp32::encode(&Instr::Nop, &mut words);
        for engine in ALL_ENGINES {
            let mut m = edge_machine(engine, words[0]);
            // One word below the edge both the instruction and its
            // fall-through EIP exist, so execution proceeds...
            m.set_eip(0xFFFF_FFF8);
            assert_eq!(m.step(), Ok(()));
            assert_eq!(m.eip(), 0xFFFF_FFFC);
            // ...but at the edge itself the fall-through EIP would be
            // 0x1_0000_0000, so the instruction cannot complete.
            assert_eq!(m.step(), Err(Fault::Decode { eip: 0xFFFF_FFFC }));
        }
    }

    #[test]
    fn jump_to_the_predecode_sentinel_address_faults_on_both_paths() {
        // Found by tytan-fuzz: `jmp 0xFFFF_FFFF` lands the EIP on the
        // all-ones address, the empty-slot tag of a since-removed
        // per-instruction decode cache, which once made a cached engine
        // execute a zero-cost Nop forever while the legacy path faulted.
        // Kept as a legacy-vs-translated regression for the unaligned
        // top-of-address-space fetch.
        let mut words = Vec::new();
        sp32::encode(
            &Instr::Jmp {
                target: 0xFFFF_FFFF,
            },
            &mut words,
        );
        for engine in ALL_ENGINES {
            let mut m = Machine::new(MachineConfig {
                engine,
                ..MachineConfig::default()
            });
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            m.load_image(0x100, &bytes).expect("load");
            m.set_eip(0x100);
            assert_eq!(m.step(), Ok(()), "the jump itself executes");
            assert_eq!(m.eip(), 0xFFFF_FFFF);
            assert_eq!(
                m.step(),
                Err(Fault::Decode { eip: 0xFFFF_FFFF }),
                "{engine:?}: fetch at the sentinel address must fault"
            );
        }
    }

    #[test]
    fn stack_wrap_at_address_space_edge_is_a_typed_bus_fault() {
        let mut m = Machine::new(MachineConfig::default());
        // Push with SP == 0 decrements to 0xFFFF_FFFC, which is off-bus.
        m.set_reg(Reg::SP, 0);
        assert_eq!(m.push_word(0x1234), Err(Fault::Bus { addr: 0xFFFF_FFFC }));
        assert_eq!(m.reg(Reg::SP), 0, "failed push must not move SP");
        m.set_reg(Reg::SP, 0xFFFF_FFFC);
        assert_eq!(m.pop_word(), Err(Fault::Bus { addr: 0xFFFF_FFFC }));
        assert_eq!(m.reg(Reg::SP), 0xFFFF_FFFC, "failed pop must not move SP");
        // The guest-visible path agrees, on every run loop.
        for engine in ALL_ENGINES {
            let mut m = Machine::new(MachineConfig {
                engine,
                ..MachineConfig::default()
            });
            let p = assemble("movi sp, 0\npush r0\nhlt\n", 0x100).expect("assemble");
            m.load_image(0x100, &p.bytes).expect("load");
            m.set_eip(0x100);
            assert_eq!(m.run(1_000), Event::Fault(Fault::Bus { addr: 0xFFFF_FFFC }));
        }
    }

    #[test]
    fn idt_slot_arithmetic_at_the_edge_is_a_typed_bus_fault() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_idt_base(0xFFFF_FFF0);
        // Vector 3's slot sits exactly at 0xFFFF_FFFC: representable but
        // off-bus (no RAM or device up there).
        assert_eq!(
            m.set_idt_entry(3, 0x500),
            Err(Fault::Bus { addr: 0xFFFF_FFFC })
        );
        // Vector 4's slot address overflows u32 entirely.
        assert_eq!(
            m.set_idt_entry(4, 0x500),
            Err(Fault::Bus { addr: 0xFFFF_FFF0 })
        );
        assert!(matches!(m.idt_entry(200), Err(Fault::Bus { .. })));
        // A software INT dispatched through the same IDT degrades to the
        // same typed fault on every run loop.
        for engine in ALL_ENGINES {
            let mut m = Machine::new(MachineConfig {
                engine,
                ..MachineConfig::default()
            });
            let p = assemble("movi sp, 0x8000\nint 100\nhlt\n", 0x100).expect("assemble");
            m.load_image(0x100, &p.bytes).expect("load");
            m.set_idt_base(0xFFFF_FFF0);
            m.set_eip(0x100);
            assert!(matches!(m.run(1_000), Event::Fault(Fault::Bus { .. })));
        }
    }

    #[test]
    fn snapshot_and_ram_digest_capture_observable_state() {
        let src = "movi r0, 5\nmovi sp, 0x8000\npush r0\nhlt\n";
        let mut a = machine_with(src, 0x100);
        let mut b = machine_with(src, 0x100);
        a.run(1_000);
        b.run(1_000);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.ram_digest(), b.ram_digest());
        // A single flipped byte shows up in the digest but not the
        // register snapshot; a raised IRQ shows up in the snapshot.
        b.write_byte(0x9000, 1).expect("write");
        assert_ne!(a.ram_digest(), b.ram_digest());
        a.raise_irq(9);
        assert_eq!(a.snapshot().pending_irqs, vec![9]);
        assert_ne!(a.snapshot(), b.snapshot());
    }

    /// FNV-1a byte by byte: the reference [`Machine::ram_digest`] must match.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn ram_digest_of_untouched_pages_matches_a_byte_by_byte_hash() {
        let fresh = Machine::new(MachineConfig::default());
        assert_eq!(fresh.ram_digest(), 0xa967_7706_9d62_2325);
        assert_eq!(fresh.ram_digest(), fnv1a(&vec![0; 1 << 20]));
        // A partial last page and a mix of resident and untouched pages.
        let size = 3 * 4096 + 100;
        let mut m = Machine::new(MachineConfig {
            ram_size: size,
            ..MachineConfig::default()
        });
        m.write_word(0x1FFE, 0xDEAD_BEEF).expect("write");
        m.write_byte(size - 1, 7).expect("write");
        let all = m.read_bytes(0, size).expect("read");
        assert_eq!(m.ram_digest(), fnv1a(&all));
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn never_written_memory_reads_as_zero_and_stays_unallocated() {
        let mut m = Machine::new(MachineConfig::default());
        let top = m.ram_size();
        assert_eq!(m.read_word(0x8_0000), Ok(0));
        assert_eq!(m.read_word(0x0FFE), Ok(0));
        assert_eq!(m.read_byte(top - 1), Ok(0));
        assert_eq!(m.read_bytes(0x1_0FF0, 0x3000), Ok(vec![0; 0x3000]));
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn unaligned_word_straddles_a_page_boundary() {
        let mut m = Machine::new(MachineConfig::default());
        m.write_word(0x0FFE, 0xAABB_CCDD).expect("write");
        assert_eq!(m.read_word(0x0FFE), Ok(0xAABB_CCDD));
        assert_eq!(m.read_bytes(0x0FFE, 4), Ok(vec![0xDD, 0xCC, 0xBB, 0xAA]));
        assert_eq!(m.read_word(0x0FFC), Ok(0xCCDD_0000));
        assert_eq!(m.read_word(0x1000), Ok(0x0000_AABB));
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn byte_ranges_span_three_pages() {
        let mut m = Machine::new(MachineConfig::default());
        let bytes: Vec<u8> = (0..0x1020u32).map(|i| (i * 7 + 1) as u8).collect();
        m.write_bytes(0x0FF0, &bytes).expect("write");
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read_bytes(0x0FF0, 0x1020), Ok(bytes.clone()));
        assert_eq!(m.read_byte(0x0FEF), Ok(0));
        assert_eq!(m.read_byte(0x0FF0), Ok(bytes[0]));
        assert_eq!(m.read_byte(0x200F), Ok(bytes[0x101F]));
        assert_eq!(m.read_byte(0x2010), Ok(0));
        let mid = 0x1800 - 0x0FF0;
        let word = u32::from_le_bytes(bytes[mid..mid + 4].try_into().unwrap());
        assert_eq!(m.read_word(0x1800), Ok(word));
    }

    #[test]
    fn accesses_past_the_end_of_ram_fault_at_their_own_address() {
        let mut m = Machine::new(MachineConfig::default());
        let top = m.ram_size();
        assert_eq!(m.read_word(top - 4), Ok(0));
        assert_eq!(m.read_word(top - 3), Err(Fault::Bus { addr: top - 3 }));
        assert_eq!(m.write_word(top - 3, 1), Err(Fault::Bus { addr: top - 3 }));
        assert_eq!(m.read_byte(top), Err(Fault::Bus { addr: top }));
        assert_eq!(m.write_byte(top, 1), Err(Fault::Bus { addr: top }));
        assert_eq!(
            m.write_bytes(top - 2, &[1, 2, 3]),
            Err(Fault::Bus { addr: top - 2 })
        );
        assert_eq!(m.read_bytes(top - 2, 3), Err(Fault::Bus { addr: top - 2 }));
        assert_eq!(
            m.read_bytes(u32::MAX, 2),
            Err(Fault::Bus { addr: u32::MAX })
        );
        // A faulting write leaves RAM as it was.
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn two_word_instruction_straddling_a_page_retires_identically_on_both_engines() {
        use std::sync::Arc;
        use tytan_trace::RingRecorder;

        // The `movi` at 0x1FFC has its immediate word at 0x2000, on the
        // next page; the loop makes the translator reuse its block.
        let src = "main:
 movi r1, 0x12345678
 addi r2, 1
 cmpi r2, 10
 jnz main
 hlt
";
        let program = assemble(src, 0x1FFC).expect("assemble");
        assert_eq!(program.bytes.len() % 4, 0);
        let outcomes = ALL_ENGINES.map(|engine| {
            let mut m = Machine::new(MachineConfig {
                engine,
                ..MachineConfig::default()
            });
            let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
            m.attach_tracer(tracer.clone());
            m.load_image(0x1FFC, &program.bytes).expect("load");
            m.set_eip(0x1FFC);
            m.run(10_000);
            assert!(m.is_halted());
            assert_eq!(m.reg(Reg::R1), 0x1234_5678);
            assert_eq!(m.reg(Reg::R2), 10);
            let hits = tracer.counters().get("emu_block_hit").unwrap_or(0);
            assert_eq!(hits > 0, engine == EngineKind::Translated);
            (m.snapshot(), m.ram_digest())
        });
        assert_eq!(outcomes[0], outcomes[1]);
    }
}
