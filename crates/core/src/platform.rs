//! The TyTAN platform: secure boot, trusted components, and the run loop.
//!
//! [`Platform`] assembles every piece of Figure 1 of the paper on top of
//! the simulated core:
//!
//! - **Secure boot**: the trusted software components (interrupt
//!   multiplexer stubs, entry thunks) are loaded, measured against the
//!   manufacturer's reference value, and protected by static EA-MPU rules
//!   before anything untrusted runs; the platform key is installed in a
//!   region only trusted code can read.
//! - **Int Mux**: all interrupt vectors route through trusted save stubs
//!   that store the interrupted context to the task's own stack and wipe
//!   the registers (Table 2) before the untrusted OS sees control.
//! - **Dynamic loading**: [`Platform::begin_load`] starts an interruptible
//!   [`LoadJob`]; slices run whenever the kernel idles, so concurrently
//!   scheduled tasks keep their deadlines while a task loads (Table 1).
//! - **Secure IPC**: the `INT 0x30` proxy authenticates the sender from
//!   the hardware interrupt origin, resolves the receiver through the
//!   RTM's task list, and writes message + sender identity into the
//!   receiver's mailbox (§4).
//! - **Attestation and storage**: local attestation reads the RTM list;
//!   remote attestation MACs it under `K_a`; the secure-storage task seals
//!   blobs under per-task keys `K_t`.
//!
//! # Examples
//!
//! ```
//! use tytan::platform::{Platform, PlatformConfig};
//! use tytan::toolchain::SecureTaskBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut platform: Platform = Platform::boot(PlatformConfig::default())?;
//! let task = SecureTaskBuilder::new("hello", "main:\nspin:\n jmp spin\n").build()?;
//! let token = platform.begin_load(&task, 2);
//! let (handle, id) = platform.wait_load(token, 10_000_000)?;
//! assert!(platform.local_attest(id).is_some());
//! # let _ = handle;
//! # Ok(())
//! # }
//! ```

use crate::allocator::Allocator;
use crate::attest::{AttestationReport, CfaReport, RemoteAttestor, ATTEST_PURPOSE};
use crate::driver::{self, TrustedActors};
use crate::loader::{LoadError, LoadJob, LoadPhase, LoadProgress, LoadReport};
use crate::rtm::Rtm;
use crate::storage::{SecureStorage, StorageError};
use crate::toolchain::{mailbox, TaskSource};
use eampu::{Perms, Region, Rule};
use rtos::kernel::SyscallOutcome;
use rtos::stubs::{shared_stub_block, StubBlock, StubKind, StubSpec};
use rtos::{layout, Kernel, KernelConfig, KernelError, TaskHandle};
use sp32::Reg;
use sp_emu::devices::{Actuator, Sensor, Timer, Uart};
use sp_emu::{Event, Fault, Machine, MachineConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tytan_crypto::{Digest, PlatformKey, Sha1, SymmetricKey, TaskId};
use tytan_profile::{CycleProfiler, Report, SymbolMap};
use tytan_trace::hist::HistId;
use tytan_trace::{EventKind, Layer, Tracer};

/// Where the hardware platform key `K_p` lives (readable by trusted
/// components only, enforced by a static EA-MPU rule).
pub const PLATFORM_KEY_BASE: u32 = 0x0000_3f00;

/// The reserved sender identity for hardware-originated mailbox messages
/// (device IRQs routed by the Int Mux).
pub const HARDWARE_ID: TaskId = TaskId::from_u64(u64::MAX);

/// IPC proxy status codes written into the sender's saved `r0`.
pub mod ipc_status {
    /// Message delivered.
    pub const OK: u32 = 0;
    /// The sender is not a measured (secure) task.
    pub const UNKNOWN_SENDER: u32 = 1;
    /// No loaded task has the requested identity.
    pub const NO_RECEIVER: u32 = 2;
}

/// Construction parameters for [`Platform::boot`].
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Machine parameters.
    pub machine: MachineConfig,
    /// Cycles between kernel ticks (32,000 ≈ 1.5 kHz at 48 MHz).
    pub tick_interval: u64,
    /// The hardware platform key `K_p`.
    pub platform_key: [u8; 20],
    /// Hash blocks the RTM processes per scheduling slice.
    pub rtm_blocks_per_slice: u32,
    /// Whether loading yields to interrupts between slices (TyTAN) or
    /// runs to completion uninterruptibly (the Table 1 ablation).
    pub interruptible_load: bool,
    /// Kill a faulting task and continue, instead of stopping the
    /// platform (the production behaviour for EA-MPU violations).
    pub kill_on_fault: bool,
    /// Fault-injection hook: flip this byte offset of the trusted-stub
    /// image after loading (secure boot must then fail).
    pub corrupt_trusted_byte: Option<u32>,
    /// Use the hardware-assisted context save instead of the Int Mux
    /// software stub (§4's latency/hardware trade-off; ablation bench).
    pub hardware_context_save: bool,
    /// Extra device IRQ vectors to route through the Int Mux (bind them
    /// to tasks with [`Platform::bind_irq`]).
    pub device_irq_vectors: Vec<u8>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            machine: MachineConfig::default(),
            tick_interval: 32_000,
            platform_key: [0x42; 20],
            rtm_blocks_per_slice: 2,
            interruptible_load: true,
            kill_on_fault: true,
            corrupt_trusted_byte: None,
            hardware_context_save: false,
            device_irq_vectors: Vec::new(),
        }
    }
}

/// Errors from platform operations.
#[derive(Debug)]
pub enum PlatformError {
    /// Secure boot measured an unexpected trusted-component image.
    SecureBootMeasurementMismatch,
    /// A machine fault outside any killable task context.
    Fault(Fault),
    /// A kernel operation failed.
    Kernel(KernelError),
    /// A load failed.
    Load(LoadError),
    /// The handle or id does not name a loaded task.
    NoSuchTask,
    /// The task is not a measured secure task (no identity).
    NotSecure,
    /// Secure storage refused the operation.
    Storage(StorageError),
    /// Execution reached an unexpected firmware trap.
    UnexpectedTrap(u32),
    /// The load token does not name a load job.
    BadToken,
    /// Control-flow attestation was requested but no usable evidence
    /// exists: no monitor armed, the monitor watches a different task,
    /// or the edge log overflowed and was truncated (an honest device
    /// refuses to attest a partial run).
    NoCfEvidence,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::SecureBootMeasurementMismatch => {
                write!(f, "secure boot: trusted components failed verification")
            }
            PlatformError::Fault(fault) => write!(f, "machine fault: {fault}"),
            PlatformError::Kernel(e) => write!(f, "kernel error: {e}"),
            PlatformError::Load(e) => write!(f, "load error: {e}"),
            PlatformError::NoSuchTask => write!(f, "no such task"),
            PlatformError::NotSecure => write!(f, "task is not a measured secure task"),
            PlatformError::Storage(e) => write!(f, "storage error: {e}"),
            PlatformError::UnexpectedTrap(addr) => {
                write!(f, "unexpected firmware trap at {addr:#010x}")
            }
            PlatformError::BadToken => write!(f, "invalid load token"),
            PlatformError::NoCfEvidence => {
                write!(f, "no usable control-flow evidence for this task")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<Fault> for PlatformError {
    fn from(e: Fault) -> Self {
        PlatformError::Fault(e)
    }
}

impl From<KernelError> for PlatformError {
    fn from(e: KernelError) -> Self {
        PlatformError::Kernel(e)
    }
}

impl From<LoadError> for PlatformError {
    fn from(e: LoadError) -> Self {
        PlatformError::Load(e)
    }
}

impl From<StorageError> for PlatformError {
    fn from(e: StorageError) -> Self {
        PlatformError::Storage(e)
    }
}

/// Handle of a load started with [`Platform::begin_load`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadToken(usize);

/// Status of a load job.
#[derive(Debug, Clone)]
pub enum LoadStatus {
    /// The job is waiting for idle CPU time or mid-phase.
    InProgress(LoadPhase),
    /// The task is loaded and scheduled.
    Done {
        /// Scheduler handle.
        handle: TaskHandle,
        /// Measured identity (zero for normal tasks).
        id: TaskId,
        /// Per-phase cycle report.
        report: LoadReport,
    },
    /// The load failed; resources were released.
    Failed(LoadError),
}

enum JobSlot<D: Digest> {
    Running(Box<LoadJob<D>>),
    Done {
        handle: TaskHandle,
        id: TaskId,
        report: LoadReport,
    },
    Failed(LoadError),
}

/// A fault recorded (and survived) during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Cycle at which the fault occurred.
    pub cycle: u64,
    /// The task that was killed, if the fault occurred in task context.
    pub task: Option<TaskHandle>,
    /// The fault.
    pub fault: Fault,
}

/// The booted TyTAN platform. Generic over the measurement hash `D`
/// (SHA-1 by default, per the paper; pluggable per its footnote 8).
pub struct Platform<D: Digest = Sha1> {
    machine: Machine,
    kernel: Kernel,
    stubs: Arc<StubBlock>,
    actors: TrustedActors,
    allocator: Allocator,
    rtm: Rtm,
    storage: SecureStorage,
    attestor: RemoteAttestor,
    attestation_key: SymmetricKey,
    jobs: Vec<JobSlot<D>>,
    irq_bindings: BTreeMap<u8, (TaskId, u32)>,
    rtm_blocks_per_slice: u32,
    interruptible_load: bool,
    kill_on_fault: bool,
    boot_measurement: Vec<u8>,
    faults: Vec<FaultRecord>,
    last_steal_tick: u64,
    started: bool,
    device_handles: BTreeMap<&'static str, usize>,
    tracer: Option<Tracer>,
    lat: Option<LatencyIds>,
    profiler: Option<CycleProfiler>,
    symbols: SymbolMap,
    restore_stamp: Option<u64>,
}

/// Histogram ids for the platform's latency distributions, registered
/// once in [`Platform::attach_tracer`]. Names are the `lat_` family the
/// bench baseline gate keys on.
struct LatencyIds {
    irq_entry: HistId,
    ctx_save: HistId,
    ctx_restore: HistId,
    ipc_rtt: HistId,
    attest: HistId,
    load_total: HistId,
    load_alloc: HistId,
    load_copy: HistId,
    load_reloc: HistId,
    load_mpu: HistId,
    load_rtm: HistId,
    load_register: HistId,
}

/// Chrome-trace thread ids for `core`-layer platform phases. The loader
/// gets one track per load job (concurrent loads must not nest their
/// spans into each other), IPC and attestation each get a fixed track.
const TRACE_TID_IPC: u32 = 1;
const TRACE_TID_ATTEST: u32 = 2;
const TRACE_TID_LOADER_BASE: u32 = 16;

fn loader_tid(job_index: usize) -> u32 {
    TRACE_TID_LOADER_BASE.saturating_add(job_index as u32)
}

impl<D: Digest> fmt::Debug for Platform<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("cycles", &self.machine.cycles())
            .field("tasks", &self.kernel.handles().len())
            .field("measured", &self.rtm.len())
            .finish_non_exhaustive()
    }
}

impl<D: Digest> Platform<D> {
    /// Performs secure boot and returns the running platform.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::SecureBootMeasurementMismatch`] if the
    /// trusted components fail verification, or a fault from boot-time
    /// memory writes.
    pub fn boot(config: PlatformConfig) -> Result<Self, PlatformError> {
        let mut machine_config = config.machine.clone();
        machine_config.hw_context_save = config.hardware_context_save;
        let mut machine = Machine::new(machine_config);

        // Devices: tick timer, UART, and the automotive sensors/actuator
        // of the paper's use case.
        let mut timer = Timer::new(layout::TIMER_BASE, layout::TICK_VECTOR);
        timer.configure(config.tick_interval, true);
        let mut device_handles = BTreeMap::new();
        device_handles.insert("timer", machine.add_device(Box::new(timer)));
        device_handles.insert(
            "uart",
            machine.add_device(Box::new(Uart::new(layout::UART_BASE))),
        );
        device_handles.insert(
            "pedal",
            machine.add_device(Box::new(Sensor::new(layout::PEDAL_BASE, 0))),
        );
        device_handles.insert(
            "radar",
            machine.add_device(Box::new(Sensor::new(layout::RADAR_BASE, 0))),
        );
        device_handles.insert(
            "actuator",
            machine.add_device(Box::new(Actuator::new(layout::ACTUATOR_BASE))),
        );

        // Trusted components: Int Mux save stubs (wiping), the syscall
        // stub (argument-preserving), the restore stub and the idle loop.
        let (tick_kind, syscall_kind) = if config.hardware_context_save {
            // The exception engine saves and wipes in hardware; stubs
            // reduce to vector identification. Syscall arguments are
            // restored from the frame by the kernel in this mode.
            (StubKind::HwAssisted, StubKind::Syscall)
        } else {
            (StubKind::IntMux, StubKind::Syscall)
        };
        let mut specs = vec![
            StubSpec {
                vector: layout::TICK_VECTOR,
                kind: tick_kind,
            },
            StubSpec {
                vector: layout::SYSCALL_VECTOR,
                kind: syscall_kind,
            },
            StubSpec {
                vector: layout::IPC_VECTOR,
                kind: tick_kind,
            },
        ];
        for &vector in &config.device_irq_vectors {
            specs.push(StubSpec {
                vector,
                kind: tick_kind,
            });
        }
        // The stub image is fixed firmware: assembled once per process,
        // then copied into this machine's RAM and measured below.
        let stubs = shared_stub_block(
            layout::TRUSTED_BASE,
            layout::KERNEL_TRAP,
            &specs,
            Some(layout::INT_DISPATCH_TABLE),
        )
        .expect("stub generation is infallible for valid specs");
        machine.load_image(layout::TRUSTED_BASE, &stubs.program.bytes)?;

        // Initialise the Int Mux dispatch table: every serviced vector
        // routes to the OS kernel trap; unassigned vectors stay 0 and the
        // stub's validity check falls back to the trap directly.
        let mut routed = vec![
            layout::TICK_VECTOR,
            layout::SYSCALL_VECTOR,
            layout::IPC_VECTOR,
        ];
        routed.extend_from_slice(&config.device_irq_vectors);
        for vector in routed {
            machine.write_word(
                layout::INT_DISPATCH_TABLE + 4 * u32::from(vector),
                layout::KERNEL_TRAP,
            )?;
        }
        machine.write_word(layout::INTMUX_BUSY_FLAG, 0)?;

        // Fault-injection hook for the tampered-boot experiment.
        if let Some(offset) = config.corrupt_trusted_byte {
            let addr = layout::TRUSTED_BASE + (offset % stubs.program.bytes.len() as u32);
            let byte = machine.read_byte(addr)?;
            machine.write_byte(addr, byte ^ 0xff)?;
        }

        // Secure boot: measure the trusted components and verify against
        // the manufacturer's reference (the pristine image digest).
        let loaded = machine.read_bytes(layout::TRUSTED_BASE, stubs.program.bytes.len() as u32)?;
        let boot_measurement = D::digest(&loaded);
        let reference = D::digest(&stubs.program.bytes);
        if boot_measurement != reference {
            return Err(PlatformError::SecureBootMeasurementMismatch);
        }

        // The IDT: static base register, entries to the trusted stubs.
        machine.set_idt_base(layout::IDT_BASE);
        machine.set_idt_entry(layout::TICK_VECTOR, stubs.save_stubs[&layout::TICK_VECTOR])?;
        machine.set_idt_entry(
            layout::SYSCALL_VECTOR,
            stubs.save_stubs[&layout::SYSCALL_VECTOR],
        )?;
        machine.set_idt_entry(layout::IPC_VECTOR, stubs.save_stubs[&layout::IPC_VECTOR])?;
        for &vector in &config.device_irq_vectors {
            machine.set_idt_entry(vector, stubs.save_stubs[&vector])?;
        }
        machine.add_firmware_trap(layout::KERNEL_TRAP);

        // Install the platform key in its protected region.
        for (i, chunk) in config.platform_key.chunks(4).enumerate() {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            machine.write_word(PLATFORM_KEY_BASE + 4 * i as u32, u32::from_le_bytes(word))?;
        }

        // Static EA-MPU rules (secure boot privilege, slots 0..):
        // protect the IDT and the platform key; both rules' code region is
        // the trusted region, which simultaneously makes the trusted code
        // itself a protected, entry-point-enforced region.
        let trusted_region = Region::new(layout::TRUSTED_BASE, layout::TRUSTED_CODE_LEN);
        let trusted_entry = stubs.save_stubs[&layout::TICK_VECTOR];
        let idt_region = Region::new(layout::IDT_BASE, layout::IDT_VECTORS * 4);
        let key_region = Region::new(PLATFORM_KEY_BASE, 20);
        let trusted_data = Region::new(layout::TRUSTED_DATA_BASE, layout::TRUSTED_DATA_LEN);
        machine.mpu_mut().set_rule(
            0,
            Rule::new(trusted_region, trusted_entry, idt_region, Perms::R),
        );
        machine.mpu_mut().set_rule(
            1,
            Rule::new(trusted_region, trusted_entry, key_region, Perms::R),
        );
        machine.mpu_mut().set_rule(
            2,
            Rule::new(trusted_region, trusted_entry, trusted_data, Perms::RW),
        );

        let actors = TrustedActors {
            trusted: trusted_region,
            kernel: Region::new(layout::KERNEL_BASE, layout::KERNEL_CODE_LEN),
            kernel_entry: layout::KERNEL_TRAP,
        };

        // Derive K_a by reading K_p through the EA-MPU as trusted code
        // (exercising the key-protection rule).
        let mut kp_bytes = [0u8; 20];
        for i in 0..5u32 {
            let word =
                machine.checked_read_word(actors.trusted_actor(), PLATFORM_KEY_BASE + 4 * i)?;
            kp_bytes[4 * i as usize..4 * i as usize + 4].copy_from_slice(&word.to_le_bytes());
        }
        let platform_key = PlatformKey::from_bytes(kp_bytes);
        let attestation_key = platform_key.derive(ATTEST_PURPOSE);
        let attestor = RemoteAttestor::new(attestation_key.clone());
        let storage = SecureStorage::new(platform_key);

        let kernel = Kernel::new(KernelConfig {
            restore_stub: stubs.restore_stub,
            idle_addr: stubs.idle,
            kernel_stack_top: layout::KERNEL_STACK_TOP,
            kernel_actor: layout::KERNEL_BASE,
            num_priorities: 8,
        });

        Ok(Platform {
            machine,
            kernel,
            stubs,
            actors,
            allocator: Allocator::new(layout::HEAP_BASE, layout::HEAP_END - layout::HEAP_BASE),
            rtm: Rtm::new(),
            storage,
            attestor,
            attestation_key,
            jobs: Vec::new(),
            irq_bindings: BTreeMap::new(),
            rtm_blocks_per_slice: config.rtm_blocks_per_slice.max(1),
            interruptible_load: config.interruptible_load,
            kill_on_fault: config.kill_on_fault,
            boot_measurement,
            faults: Vec::new(),
            last_steal_tick: 0,
            started: false,
            device_handles,
            tracer: None,
            lat: None,
            profiler: None,
            symbols: SymbolMap::new(),
            restore_stamp: None,
        })
    }

    // ----- accessors -----

    /// Attaches the shared cross-layer tracer to every layer at once:
    /// the machine (instruction classes, block cache, MMIO, IRQ spans)
    /// and through it the EA-MPU (decision-cache hits, denials), the
    /// kernel (scheduling decisions as `rtos`-layer events), and
    /// the platform itself (`core`-layer loader spans, IPC-proxy spans,
    /// and attestation phase markers).
    ///
    /// All instrumentation is host-side: it never ticks the machine or
    /// changes a decision, so traced and untraced runs are cycle-identical
    /// (the differential suites assert this).
    /// Attaching also registers the platform's latency histograms
    /// (`lat_irq_entry`, `lat_ctx_save`, `lat_ctx_restore`, `lat_ipc_rtt`,
    /// `lat_attest`, and the `lat_load_*` phase family) in the tracer's
    /// shared registry; they record even when the tracer records no
    /// events ([`Tracer::null`]).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        let h = tracer.histograms();
        self.lat = Some(LatencyIds {
            irq_entry: h.register("lat_irq_entry"),
            ctx_save: h.register("lat_ctx_save"),
            ctx_restore: h.register("lat_ctx_restore"),
            ipc_rtt: h.register("lat_ipc_rtt"),
            attest: h.register("lat_attest"),
            load_total: h.register("lat_load_total"),
            load_alloc: h.register("lat_load_alloc"),
            load_copy: h.register("lat_load_copy"),
            load_reloc: h.register("lat_load_reloc"),
            load_mpu: h.register("lat_load_mpu"),
            load_rtm: h.register("lat_load_rtm"),
            load_register: h.register("lat_load_register"),
        });
        self.machine.attach_tracer(tracer.clone());
        self.kernel.attach_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Records one latency sample (no-op until a tracer is attached).
    fn record_lat(&self, pick: impl Fn(&LatencyIds) -> HistId, value: u64) {
        if let (Some(tracer), Some(lat)) = (&self.tracer, &self.lat) {
            tracer.histograms().record(pick(lat), value);
        }
    }

    /// Attaches the exact guest-cycle profiler to the machine's step path
    /// and seeds the platform's [`SymbolMap`] with the trusted-component
    /// layout: one symbol per Int Mux stub phase (`v{N}_save`,
    /// `v{N}_wipe`, `v{N}_branch`), the shared `restore` and `idle`
    /// routines, a whole-region `[trusted]` fallback, and the kernel
    /// firmware-trap address (all host-modelled kernel service time is
    /// charged there). Tasks loaded *after* this call are symbolized
    /// automatically through their image's recovered function table —
    /// attach before loading anything you want named in the flamegraph.
    ///
    /// Like the tracer, the profiler is host-side only: attached and
    /// detached runs are cycle-identical.
    pub fn attach_profiler(&mut self, profiler: CycleProfiler) {
        self.machine
            .attach_cycle_observer(Arc::new(profiler.clone()));
        self.register_trusted_symbols();
        self.profiler = Some(profiler);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&CycleProfiler> {
        self.profiler.as_ref()
    }

    /// The platform-maintained symbol map (trusted stubs, kernel trap,
    /// and every task loaded while the profiler was attached).
    pub fn symbols(&self) -> &SymbolMap {
        &self.symbols
    }

    /// Folds the attached profiler's buckets through the platform symbol
    /// map into a flamegraph-ready [`Report`].
    pub fn profile_report(&self) -> Option<Report> {
        self.profiler.as_ref().map(|p| p.report(&self.symbols))
    }

    /// Closes any still-open IRQ trace spans (see
    /// [`Machine::flush_trace`]); call once after the last `run_for` when
    /// exporting a trace.
    pub fn flush_trace(&mut self) {
        self.machine.flush_trace();
    }

    fn register_trusted_symbols(&mut self) {
        const TRUSTED: &str = "[trusted]";
        let mut starts: Vec<(u32, String)> = Vec::new();
        for (&vector, &addr) in &self.stubs.save_stubs {
            starts.push((addr, format!("v{vector}_save")));
        }
        for (&vector, &addr) in &self.stubs.wipe_starts {
            starts.push((addr, format!("v{vector}_wipe")));
        }
        for (&vector, &addr) in &self.stubs.branch_starts {
            starts.push((addr, format!("v{vector}_branch")));
        }
        starts.push((self.stubs.restore_stub, "restore".to_string()));
        starts.push((self.stubs.idle, "idle".to_string()));
        starts.sort();
        let region_end = layout::TRUSTED_BASE + self.stubs.program.bytes.len() as u32;
        self.symbols
            .add_function(layout::TRUSTED_BASE, region_end, TRUSTED, "[text]");
        for (i, (start, name)) in starts.iter().enumerate() {
            let end = starts
                .get(i + 1)
                .map(|(next, _)| *next)
                .unwrap_or(region_end);
            self.symbols.add_function(*start, end, TRUSTED, name);
        }
        // Host-modelled kernel/firmware service time is charged at the
        // trap address the machine stopped on.
        self.symbols.add_function(
            layout::KERNEL_TRAP,
            layout::KERNEL_TRAP + 4,
            "[kernel]",
            "trap",
        );
    }

    /// Emits a `core`-layer event at the current cycle (no-op untraced).
    fn trace_core(&self, tid: u32, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.emit(Layer::Core, tid, self.machine.cycles(), kind);
        }
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine.
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

    /// The RTM's measurement list.
    pub fn rtm(&self) -> &Rtm {
        &self.rtm
    }

    /// The trusted stub block (phase-boundary addresses for benches).
    pub fn stubs(&self) -> &StubBlock {
        &self.stubs
    }

    /// The trusted/kernel actor regions.
    pub fn actors(&self) -> TrustedActors {
        self.actors
    }

    /// The secure-boot measurement of the trusted components.
    pub fn boot_measurement(&self) -> &[u8] {
        &self.boot_measurement
    }

    /// The attestation key `K_a` — exported once to the verifier by the
    /// device manufacturer in the paper's model.
    pub fn attestation_key(&self) -> SymmetricKey {
        self.attestation_key.clone()
    }

    /// Faults that were recorded (and survived via task kill).
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// A device, downcast to its concrete type (`"timer"`, `"uart"`,
    /// `"pedal"`, `"radar"`, `"actuator"`).
    pub fn device<T: sp_emu::Device + 'static>(&self, name: &str) -> Option<&T> {
        self.machine.device::<T>(*self.device_handles.get(name)?)
    }

    /// Mutable device access by name.
    pub fn device_mut<T: sp_emu::Device + 'static>(&mut self, name: &str) -> Option<&mut T> {
        self.machine
            .device_mut::<T>(*self.device_handles.get(name)?)
    }

    /// The load base of a task.
    pub fn task_base(&self, handle: TaskHandle) -> Option<u32> {
        self.kernel.task(handle).map(|t| t.params.code.start())
    }

    /// The measured identity of a secure task.
    pub fn task_id(&self, handle: TaskHandle) -> Option<TaskId> {
        self.rtm.lookup_by_handle(handle).map(|r| r.id)
    }

    /// Reads a word of task memory through the debug port (bypasses the
    /// EA-MPU; test/benchmark harness only).
    ///
    /// # Errors
    ///
    /// Returns a bus fault for an unmapped address.
    pub fn debug_read_word(&mut self, addr: u32) -> Result<u32, PlatformError> {
        Ok(self.machine.read_word(addr)?)
    }

    // ----- task lifecycle -----

    /// Queues a task load; work happens during idle CPU time as the
    /// platform runs (call [`Platform::run_for`] or
    /// [`Platform::wait_load`]).
    pub fn begin_load(&mut self, source: &TaskSource, priority: u8) -> LoadToken {
        let job = LoadJob::new(source.image.clone(), source.mailbox_offset, priority);
        self.jobs.push(JobSlot::Running(Box::new(job)));
        let token = LoadToken(self.jobs.len() - 1);
        self.trace_core(loader_tid(token.0), EventKind::Enter("load"));
        token
    }

    /// The status of a load job.
    pub fn load_status(&self, token: LoadToken) -> Result<LoadStatus, PlatformError> {
        match self.jobs.get(token.0) {
            Some(JobSlot::Running(job)) => Ok(LoadStatus::InProgress(job.phase())),
            Some(JobSlot::Done { handle, id, report }) => Ok(LoadStatus::Done {
                handle: *handle,
                id: *id,
                report: *report,
            }),
            Some(JobSlot::Failed(e)) => Ok(LoadStatus::Failed(e.clone())),
            None => Err(PlatformError::BadToken),
        }
    }

    /// Runs the platform until the load completes (or `max_cycles` pass).
    ///
    /// # Errors
    ///
    /// Returns the load failure, or [`PlatformError::Load`] with the
    /// last in-progress state if the budget ran out.
    pub fn wait_load(
        &mut self,
        token: LoadToken,
        max_cycles: u64,
    ) -> Result<(TaskHandle, TaskId), PlatformError> {
        let deadline = self.machine.cycles().saturating_add(max_cycles);
        loop {
            match self.load_status(token)? {
                LoadStatus::Done { handle, id, .. } => return Ok((handle, id)),
                LoadStatus::Failed(e) => return Err(PlatformError::Load(e)),
                LoadStatus::InProgress(_) => {
                    if self.machine.cycles() >= deadline {
                        return Err(PlatformError::Load(LoadError::Kernel(
                            KernelError::NoSuchTask,
                        )));
                    }
                    self.run_for(20_000)?;
                }
            }
        }
    }

    /// Unloads a task: scheduler removal, EA-MPU rule teardown, memory
    /// reclamation, RTM de-registration (§4 "unloading a task").
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] for a dead handle.
    pub fn unload_task(&mut self, handle: TaskHandle) -> Result<(), PlatformError> {
        let now = self.machine.cycles();
        let tcb = self
            .kernel
            .delete_task(handle, now)
            .map_err(|_| PlatformError::NoSuchTask)?;
        driver::remove_task_rules(self.machine.mpu_mut(), tcb.params.code, tcb.params.data);
        self.machine.clear_resume_latches_in(tcb.params.code);
        let _ = self.allocator.free(tcb.params.code.start());
        self.rtm.remove_by_handle(handle);
        Ok(())
    }

    /// Suspends a task (loaded but not executing).
    ///
    /// Suspending the *currently running* task synthesises the interrupt
    /// frame the Int Mux would have saved (the host-side equivalent of
    /// preempting it first) and reschedules.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] for a dead handle.
    pub fn suspend_task(&mut self, handle: TaskHandle) -> Result<(), PlatformError> {
        if self.kernel.current() == Some(handle) {
            // Save the live context exactly as the exception engine and
            // the Int Mux stub would: EFLAGS, EIP, then r0..r6.
            self.machine.push_word(self.machine.eflags())?;
            self.machine.push_word(self.machine.eip())?;
            self.machine.arm_resume_latch(self.machine.eip());
            for i in 0..=6u32 {
                let value = self.machine.reg(sp32::Reg::from_index(i).expect("r0..r6"));
                self.machine.push_word(value)?;
            }
            self.kernel.save_current(&self.machine);
        }
        let now = self.machine.cycles();
        self.kernel
            .suspend_task(handle, now)
            .map_err(|_| PlatformError::NoSuchTask)?;
        if self.kernel.current().is_none() {
            self.kernel.dispatch(&mut self.machine)?;
        }
        Ok(())
    }

    /// Resumes a suspended task.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] for a dead handle.
    pub fn resume_task(&mut self, handle: TaskHandle) -> Result<(), PlatformError> {
        let now = self.machine.cycles();
        self.kernel
            .resume_task(handle, now)
            .map_err(|_| PlatformError::NoSuchTask)
    }

    /// Updates a task at runtime (the paper's §8 future work): loads the
    /// new version *while the old one keeps running* — no service gap
    /// beyond one scheduling decision — then migrates the listed
    /// secure-storage blobs to the new identity and unloads the old
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] for a dead handle, load
    /// failures, or storage migration errors; on failure the old version
    /// keeps running.
    pub fn update_task(
        &mut self,
        old: TaskHandle,
        source: &TaskSource,
        priority: u8,
        max_cycles: u64,
        migrate_storage: &[&str],
    ) -> Result<(TaskHandle, TaskId), PlatformError> {
        let old_id = self.task_id(old);
        if self.kernel.task(old).is_none() {
            return Err(PlatformError::NoSuchTask);
        }
        // Phase 1: bring the new version up alongside the old one (high
        // availability: the old version services requests throughout).
        let token = self.begin_load(source, priority);
        let (new_handle, new_id) = self.wait_load(token, max_cycles)?;

        // Phase 2: migrate sealed state to the new identity.
        if let Some(old_id) = old_id {
            for name in migrate_storage {
                self.storage.reseal(name, old_id, new_id)?;
            }
        }

        // Phase 3: retire the old version.
        self.unload_task(old)?;
        Ok((new_handle, new_id))
    }

    // ----- attestation and storage -----

    /// Local attestation: the task's measurement digest from the RTM list
    /// (trustworthy because only the RTM can write the list, §3).
    pub fn local_attest(&self, id: TaskId) -> Option<Vec<u8>> {
        self.trace_core(TRACE_TID_ATTEST, EventKind::Mark("local_attest"));
        self.rtm.lookup(id).map(|r| r.digest.clone())
    }

    /// Remote attestation: a MAC-authenticated report over `id`'s
    /// measurement for the verifier's `nonce`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] if no task has that identity.
    pub fn remote_attest(
        &mut self,
        id: TaskId,
        nonce: &[u8],
    ) -> Result<AttestationReport, PlatformError> {
        let record = self.rtm.lookup(id).ok_or(PlatformError::NoSuchTask)?;
        self.trace_core(TRACE_TID_ATTEST, EventKind::Enter("remote_attest"));
        let begin = self.machine.cycles();
        let report = self.attestor.attest(record, nonce);
        // Two HMAC passes over a short message.
        let per_block = self.machine.firmware_costs().measure_per_block;
        self.machine.tick(4 * per_block);
        self.record_lat(|l| l.attest, self.machine.cycles().saturating_sub(begin));
        self.trace_core(TRACE_TID_ATTEST, EventKind::Exit("remote_attest"));
        Ok(report)
    }

    /// Device-level remote attestation: a MAC-authenticated report over
    /// the *entire* RTM task list for the verifier's `nonce`.
    pub fn remote_attest_device(&mut self, nonce: &[u8]) -> crate::attest::DeviceReport {
        self.trace_core(TRACE_TID_ATTEST, EventKind::Enter("remote_attest_device"));
        let report = self.attestor.attest_device(self.rtm.records(), nonce);
        let per_block = self.machine.firmware_costs().measure_per_block;
        self.machine
            .tick((2 + 2 * report.tasks.len() as u64) * per_block);
        self.trace_core(TRACE_TID_ATTEST, EventKind::Exit("remote_attest_device"));
        report
    }

    /// Arms the control-flow monitor over `id`'s code region, starting a
    /// fresh edge log and chain. Subsequent [`Platform::remote_attest_cfa`]
    /// calls seal everything recorded since this arm.
    ///
    /// The monitor is a host-side observer: it never ticks the machine
    /// and never changes a guest-visible outcome. Monitored runs still
    /// execute compiled blocks: each block's terminator is its only
    /// taken edge, recorded as it retires.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] if no task has that identity.
    pub fn arm_cf_monitor(&mut self, id: TaskId) -> Result<(), PlatformError> {
        let region = self.rtm.lookup(id).ok_or(PlatformError::NoSuchTask)?.code;
        self.machine.attach_cf_monitor(region);
        self.trace_core(TRACE_TID_ATTEST, EventKind::Mark("arm_cf_monitor"));
        Ok(())
    }

    /// The attached control-flow monitor, if any.
    pub fn cf_monitor(&self) -> Option<&sp_emu::CfMonitor> {
        self.machine.cf_monitor()
    }

    /// Control-flow remote attestation: a MAC-authenticated report over
    /// `id`'s measurement *and* the monitored run's edge log and chain
    /// head, for the verifier's `nonce`.
    ///
    /// The monitor stays armed: the log keeps accumulating and a later
    /// call seals the longer run (each report binds its own length and
    /// chain head, so prefixes and extensions are distinguishable).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] if no task has that
    /// identity, or [`PlatformError::NoCfEvidence`] if no monitor is
    /// armed, the armed monitor watches a different task's code region,
    /// or the edge log overflowed ([`sp_emu::CF_LOG_CAP`]) — an honest
    /// device refuses to attest a truncated run.
    pub fn remote_attest_cfa(
        &mut self,
        id: TaskId,
        nonce: &[u8],
    ) -> Result<CfaReport, PlatformError> {
        let record = self.rtm.lookup(id).ok_or(PlatformError::NoSuchTask)?;
        let monitor = self
            .machine
            .cf_monitor()
            .ok_or(PlatformError::NoCfEvidence)?;
        if monitor.truncated() || monitor.region() != record.code {
            return Err(PlatformError::NoCfEvidence);
        }
        self.trace_core(TRACE_TID_ATTEST, EventKind::Enter("remote_attest_cfa"));
        let begin = self.machine.cycles();
        let runs = monitor.runs().len() as u64;
        let report = self
            .attestor
            .attest_cfa(record, nonce, monitor.runs(), monitor.chain_head());
        // Cost model: the chain fold is one SHA-1 compression per
        // *run* — the log is run-length encoded at record time, so
        // sealing cost scales with runs, not raw edges — (charged here,
        // where the trusted attest task seals the run), plus the same
        // two HMAC passes as a plain report.
        let per_block = self.machine.firmware_costs().measure_per_block;
        self.machine.tick((4 + runs) * per_block);
        self.record_lat(|l| l.attest, self.machine.cycles().saturating_sub(begin));
        self.trace_core(TRACE_TID_ATTEST, EventKind::Exit("remote_attest_cfa"));
        Ok(report)
    }

    /// Stores `data` in secure storage on behalf of `handle` (the request
    /// arrives over secure IPC in the paper, which authenticates the
    /// caller; here the caller is resolved through the RTM list).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotSecure`] if the task has no measured
    /// identity.
    pub fn storage_store(
        &mut self,
        handle: TaskHandle,
        name: &str,
        data: &[u8],
    ) -> Result<(), PlatformError> {
        let id = self.task_id(handle).ok_or(PlatformError::NotSecure)?;
        let costs = self.machine.firmware_costs();
        self.machine
            .tick(costs.ipc_proxy + costs.measure_per_block * (2 + data.len() as u64 / 20));
        self.storage.store(id, name, data);
        Ok(())
    }

    /// Retrieves a sealed blob on behalf of `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NotSecure`], or the storage error
    /// (not-found / cryptographic access denial).
    pub fn storage_retrieve(
        &mut self,
        handle: TaskHandle,
        name: &str,
    ) -> Result<Vec<u8>, PlatformError> {
        let id = self.task_id(handle).ok_or(PlatformError::NotSecure)?;
        let costs = self.machine.firmware_costs();
        self.machine
            .tick(costs.ipc_proxy + 2 * costs.measure_per_block);
        Ok(self.storage.retrieve(id, name)?)
    }

    // ----- IPC -----

    /// Sets up an EA-MPU-protected shared-memory window between two
    /// loaded tasks ("to efficiently transfer large amounts of data
    /// between tasks, the IPC proxy sets up shared memory that is
    /// accessible only to the communicating tasks", §3).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`], allocation failures, or
    /// EA-MPU policy errors.
    pub fn setup_shared_memory(
        &mut self,
        a: TaskHandle,
        b: TaskHandle,
        len: u32,
    ) -> Result<Region, PlatformError> {
        let (code_a, entry_a) = {
            let t = self.kernel.task(a).ok_or(PlatformError::NoSuchTask)?;
            (t.params.code, t.params.entry)
        };
        let (code_b, entry_b) = {
            let t = self.kernel.task(b).ok_or(PlatformError::NoSuchTask)?;
            (t.params.code, t.params.entry)
        };
        let region = self
            .allocator
            .alloc(len)
            .map_err(|e| PlatformError::Load(LoadError::Alloc(e)))?;
        let result = (|| {
            let first = self
                .machine
                .mpu_mut()
                .configure(Rule::new(code_a, entry_a, region, Perms::RW))
                .map_err(LoadError::Mpu)?;
            let second = match self.machine.mpu_mut().configure(Rule::new(
                code_b,
                entry_b,
                region,
                Perms::RW,
            )) {
                Ok(outcome) => outcome,
                Err(e) => {
                    self.machine.mpu_mut().clear_slot(first.slot);
                    return Err(LoadError::Mpu(e));
                }
            };
            self.machine.tick(first.cost.total() + second.cost.total());
            Ok(())
        })();
        match result {
            Ok(()) => Ok(region),
            Err(e) => {
                let _ = self.allocator.free(region.start());
                Err(PlatformError::Load(e))
            }
        }
    }

    /// Grants `handle` exclusive access to a device's MMIO registers by
    /// configuring an EA-MPU rule over them — afterwards no other task
    /// (and not the OS) can touch the device. This is how the use case
    /// gives the pedal-monitor task its sensor.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] or an EA-MPU policy error.
    pub fn grant_exclusive_device(
        &mut self,
        handle: TaskHandle,
        mmio_base: u32,
        len: u32,
    ) -> Result<(), PlatformError> {
        let (code, entry) = {
            let t = self.kernel.task(handle).ok_or(PlatformError::NoSuchTask)?;
            (t.params.code, t.params.entry)
        };
        let outcome = self
            .machine
            .mpu_mut()
            .configure(Rule::new(
                code,
                entry,
                Region::new(mmio_base, len),
                Perms::RW,
            ))
            .map_err(|e| PlatformError::Load(LoadError::Mpu(e)))?;
        self.machine.tick(outcome.cost.total());
        Ok(())
    }

    /// Binds a device IRQ vector (listed in
    /// [`PlatformConfig::device_irq_vectors`]) to a secure task: each
    /// firing deposits `[tag, vector, 0]` in the task's mailbox with the
    /// reserved hardware identity as the sender, and resumes the task if
    /// it suspended itself waiting. This is how a secure driver task
    /// receives its device's interrupts without the OS seeing the data.
    pub fn bind_irq(&mut self, vector: u8, task: TaskId, tag: u32) {
        self.irq_bindings.insert(vector, (task, tag));
    }

    fn handle_device_irq(&mut self, vector: u8) -> Result<(), PlatformError> {
        let Some(&(task, tag)) = self.irq_bindings.get(&vector) else {
            return Ok(());
        };
        let Some(record) = self.rtm.lookup(task) else {
            return Ok(());
        };
        let (handle, mailbox) = (record.handle, record.mailbox);
        self.write_mailbox(mailbox, HARDWARE_ID, [tag, u32::from(vector), 0])?;
        if let Some(tcb) = self.kernel.task(handle) {
            if tcb.state == rtos::TaskState::Suspended {
                let now = self.machine.cycles();
                let _ = self.kernel.resume_task(handle, now);
            }
        }
        Ok(())
    }

    /// Tears a shared-memory window down again: removes both aliasing
    /// rules and returns the memory to the heap.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] if `region` is not a live
    /// shared window.
    pub fn teardown_shared_memory(&mut self, region: Region) -> Result<(), PlatformError> {
        let slots: Vec<usize> = self
            .machine
            .mpu()
            .rules()
            .filter(|(_, rule)| rule.data == region)
            .map(|(slot, _)| slot)
            .collect();
        if slots.is_empty() {
            return Err(PlatformError::NoSuchTask);
        }
        for slot in slots {
            self.machine.mpu_mut().clear_slot(slot);
        }
        self.allocator
            .free(region.start())
            .map_err(|e| PlatformError::Load(LoadError::Alloc(e)))?;
        Ok(())
    }

    /// Injects a message into `to`'s mailbox as the IPC proxy would,
    /// with `sender` as the authenticated origin. Host-side counterpart
    /// of guest `INT 0x30` for tests and examples.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoSuchTask`] if `to` is not loaded.
    pub fn inject_message(
        &mut self,
        to: TaskId,
        sender: TaskId,
        payload: [u32; 3],
    ) -> Result<(), PlatformError> {
        let mailbox = self
            .rtm
            .lookup(to)
            .ok_or(PlatformError::NoSuchTask)?
            .mailbox;
        self.write_mailbox(mailbox, sender, payload)?;
        Ok(())
    }

    fn write_mailbox(
        &mut self,
        mailbox_addr: u32,
        sender: TaskId,
        payload: [u32; 3],
    ) -> Result<(), Fault> {
        let actor = self.actors.trusted_actor();
        let (hi, lo) = sender.to_register_words();
        self.machine
            .checked_write_word(actor, mailbox_addr + mailbox::SENDER_HI, hi)?;
        self.machine
            .checked_write_word(actor, mailbox_addr + mailbox::SENDER_LO, lo)?;
        self.machine
            .checked_write_word(actor, mailbox_addr + mailbox::LEN, 12)?;
        for (i, word) in payload.iter().enumerate() {
            self.machine.checked_write_word(
                actor,
                mailbox_addr + mailbox::PAYLOAD + 4 * i as u32,
                *word,
            )?;
        }
        self.machine
            .checked_write_word(actor, mailbox_addr + mailbox::FLAG, 1)?;
        Ok(())
    }

    /// The secure IPC proxy (§4): authenticates the sender from the
    /// interrupt origin, resolves the receiver via the RTM list, writes
    /// message and sender identity to the receiver's mailbox, and for
    /// synchronous sends branches directly to the receiver.
    fn handle_ipc(&mut self, sender: Option<TaskHandle>) -> Result<(), PlatformError> {
        self.trace_core(TRACE_TID_IPC, EventKind::Enter("ipc_proxy"));
        let begin = self.machine.cycles();
        let result = self.ipc_proxy(sender);
        self.record_lat(|l| l.ipc_rtt, self.machine.cycles().saturating_sub(begin));
        self.trace_core(TRACE_TID_IPC, EventKind::Exit("ipc_proxy"));
        result
    }

    fn ipc_proxy(&mut self, sender: Option<TaskHandle>) -> Result<(), PlatformError> {
        self.machine.tick(self.machine.firmware_costs().ipc_proxy);
        let Some(sender_handle) = sender else {
            return Ok(());
        };
        let saved_sp = self
            .kernel
            .task(sender_handle)
            .ok_or(PlatformError::NoSuchTask)?
            .saved_sp;
        let actor = self.actors.trusted_actor();
        let frame_reg = |machine: &mut Machine, i: u32| -> Result<u32, Fault> {
            machine.checked_read_word(actor, saved_sp + layout::frame_reg_offset(i))
        };
        let r1 = frame_reg(&mut self.machine, 1)?;
        let r2 = frame_reg(&mut self.machine, 2)?;
        let r3 = frame_reg(&mut self.machine, 3)?;
        let r4 = frame_reg(&mut self.machine, 4)?;
        let r5 = frame_reg(&mut self.machine, 5)?;
        let r6 = frame_reg(&mut self.machine, 6)?;

        let status_addr = saved_sp + layout::frame_reg_offset(0);
        // The proxy authenticates the sender implicitly: the hardware
        // reports the INT origin, the kernel maps it to a task, the RTM
        // list maps the task to its measured identity.
        let origin = self.machine.int_origin().unwrap_or(0);
        let by_origin = self.kernel.find_by_code_addr(origin);
        let sender_record = by_origin
            .filter(|&h| h == sender_handle)
            .and_then(|h| self.rtm.lookup_by_handle(h));
        let Some(sender_record) = sender_record else {
            self.machine
                .checked_write_word(actor, status_addr, ipc_status::UNKNOWN_SENDER)?;
            return Ok(());
        };
        let sender_id = sender_record.id;

        let receiver_id = TaskId::from_register_words(r1, r2);
        let Some(receiver) = self.rtm.lookup(receiver_id) else {
            self.machine
                .checked_write_word(actor, status_addr, ipc_status::NO_RECEIVER)?;
            return Ok(());
        };
        let (receiver_handle, receiver_mailbox) = (receiver.handle, receiver.mailbox);

        self.write_mailbox(receiver_mailbox, sender_id, [r3, r4, r5])?;
        self.machine
            .checked_write_word(actor, status_addr, ipc_status::OK)?;

        if r6 == 1 {
            // Synchronous: branch to the receiver's entry routine now.
            self.kernel
                .dispatch_message(&mut self.machine, receiver_handle)?;
        }
        Ok(())
    }

    // ----- run loop -----

    fn machine_is_idling(&self) -> bool {
        let idle = self.kernel.config().idle_addr;
        self.machine.is_halted() || (self.machine.eip() >= idle && self.machine.eip() < idle + 12)
    }

    fn has_pending_job(&self) -> bool {
        self.jobs.iter().any(|j| matches!(j, JobSlot::Running(_)))
    }

    fn load_slice(&mut self) -> Result<(), PlatformError> {
        let index = self
            .jobs
            .iter()
            .position(|j| matches!(j, JobSlot::Running(_)));
        let Some(index) = index else {
            return Ok(());
        };
        let JobSlot::Running(job) = &mut self.jobs[index] else {
            unreachable!("position() matched Running");
        };
        match job.step(
            &mut self.machine,
            &mut self.kernel,
            &mut self.rtm,
            &mut self.allocator,
            self.actors,
            self.rtm_blocks_per_slice,
        ) {
            Ok(LoadProgress::Done { handle, id }) => {
                let report = job.report();
                if self.profiler.is_some() {
                    let name = job.image().name().to_string();
                    let base = job.base();
                    self.symbols.add_task_image(&name, base, job.image());
                }
                self.jobs[index] = JobSlot::Done { handle, id, report };
                self.trace_core(loader_tid(index), EventKind::Exit("load"));
                self.record_lat(|l| l.load_total, report.total_cycles());
                self.record_lat(|l| l.load_alloc, report.alloc_cycles);
                self.record_lat(|l| l.load_copy, report.copy_cycles);
                self.record_lat(|l| l.load_reloc, report.reloc_cycles);
                self.record_lat(|l| l.load_mpu, report.mpu_cycles);
                self.record_lat(|l| l.load_rtm, report.rtm_cycles);
                self.record_lat(|l| l.load_register, report.register_cycles);
            }
            Ok(LoadProgress::InProgress(_)) => {}
            Err(e) => {
                job.abort(&mut self.machine, &mut self.allocator);
                self.jobs[index] = JobSlot::Failed(e);
                self.trace_core(loader_tid(index), EventKind::Mark("load_failed"));
                self.trace_core(loader_tid(index), EventKind::Exit("load"));
            }
        }
        Ok(())
    }

    /// Runs the platform for `cycles` machine cycles: guest tasks execute,
    /// interrupts fire, kernel traps are serviced, and pending load jobs
    /// consume idle CPU time.
    ///
    /// # Errors
    ///
    /// Returns a fault only when `kill_on_fault` is off or the fault
    /// occurred outside any task context.
    pub fn run_for(&mut self, cycles: u64) -> Result<(), PlatformError> {
        if !self.started {
            self.kernel.dispatch(&mut self.machine)?;
            self.started = true;
        }
        let deadline = self.machine.cycles().saturating_add(cycles);
        while self.machine.cycles() < deadline {
            if self.has_pending_job() && self.kernel.current().is_none() && self.machine_is_idling()
            {
                if self.interruptible_load {
                    self.load_slice()?;
                    let event = self.machine.run(1);
                    self.handle_event(event)?;
                } else {
                    // Ablation: the whole load runs as one uninterruptible
                    // critical section.
                    while self.has_pending_job() {
                        self.load_slice()?;
                    }
                }
                continue;
            }
            let budget = deadline - self.machine.cycles();
            let event = self.machine.run(budget);
            self.handle_event(event)?;
        }
        Ok(())
    }

    /// Runs until the next machine event and services kernel traps and
    /// faults; phase-boundary firmware traps registered by a benchmark
    /// harness are returned unserviced so the caller can timestamp them
    /// (step past them with [`Machine::step`]).
    ///
    /// # Errors
    ///
    /// Propagates trap-service and fault-handling errors.
    pub fn run_one_event(&mut self, max_cycles: u64) -> Result<Event, PlatformError> {
        if !self.started {
            self.kernel.dispatch(&mut self.machine)?;
            self.started = true;
        }
        let event = self.machine.run(max_cycles);
        match event {
            Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                self.handle_kernel_trap()?;
            }
            Event::Fault(fault) => {
                self.handle_fault(fault)?;
            }
            _ => {}
        }
        Ok(event)
    }

    fn handle_event(&mut self, event: Event) -> Result<(), PlatformError> {
        match event {
            Event::FirmwareTrap { addr } if addr == layout::KERNEL_TRAP => {
                self.handle_kernel_trap()
            }
            Event::FirmwareTrap { addr } => Err(PlatformError::UnexpectedTrap(addr)),
            Event::Fault(fault) => self.handle_fault(fault),
            Event::BudgetExhausted | Event::IdleBudgetExhausted => Ok(()),
        }
    }

    fn handle_fault(&mut self, fault: Fault) -> Result<(), PlatformError> {
        let task = self.kernel.current();
        self.faults.push(FaultRecord {
            cycle: self.machine.cycles(),
            task,
            fault,
        });
        self.trace_core(0, EventKind::Mark("fault_handled"));
        match task {
            Some(handle) if self.kill_on_fault => {
                // The EA-MPU caught a violation: terminate the offending
                // task and keep the platform available (§5).
                self.unload_task(handle)?;
                self.kernel.dispatch(&mut self.machine)?;
                Ok(())
            }
            _ => Err(PlatformError::Fault(fault)),
        }
    }

    fn handle_kernel_trap(&mut self) -> Result<(), PlatformError> {
        // Latency bookkeeping (host-side, cycle-neutral): the machine
        // stamped the exception-engine dispatch that led here, so the
        // window [dispatch begin, now] is the full interrupt-entry path
        // and [dispatch end, now] is the Int Mux save stub alone. A
        // completed restore (previous trap's dispatch target up to its
        // `IRET` retirement) is measured against the stamp set on the way
        // out of the previous trap.
        let now = self.machine.cycles();
        if let Some(stamp) = self.machine.take_last_dispatch() {
            self.record_lat(|l| l.irq_entry, now.saturating_sub(stamp.begin));
            self.record_lat(|l| l.ctx_save, now.saturating_sub(stamp.end));
        }
        if let (Some(begin), Some(iret)) =
            (self.restore_stamp.take(), self.machine.take_last_iret())
        {
            if iret >= begin {
                self.record_lat(|l| l.ctx_restore, iret - begin);
            }
        }
        let vector = self.machine.reg(Reg::R0) as u8;
        // The Int Mux marked itself busy on the way in; the handler hand-off
        // clears it.
        self.machine.write_word(layout::INTMUX_BUSY_FLAG, 0)?;
        let previous = self.kernel.current();
        self.kernel.save_current(&self.machine);
        match vector {
            layout::TICK_VECTOR => {
                let now = self.machine.cycles();
                self.kernel.on_tick(now);
                // Loader aging: the loader normally consumes only idle
                // time, but under a fully CPU-bound task set it would
                // starve. Every few ticks the OS lends it one bounded
                // slice, keeping loads live at a few percent CPU cost.
                let tick = self.kernel.tick_count();
                if self.has_pending_job() && tick.saturating_sub(self.last_steal_tick) >= 4 {
                    self.last_steal_tick = tick;
                    if self.interruptible_load {
                        // Lend the loader one bounded slice.
                        self.load_slice()?;
                    } else {
                        // Blocking semantics: the whole load runs as one
                        // uninterruptible critical section inside the
                        // tick handler.
                        while self.has_pending_job() {
                            self.load_slice()?;
                        }
                    }
                }
            }
            layout::SYSCALL_VECTOR => {
                if let Some(caller) = previous {
                    let _: SyscallOutcome = self.kernel.handle_syscall(&mut self.machine, caller);
                }
            }
            layout::IPC_VECTOR => {
                self.handle_ipc(previous)?;
            }
            other => {
                self.handle_device_irq(other)?;
            }
        }
        if self.kernel.current().is_none() {
            self.kernel.dispatch(&mut self.machine)?;
        }
        // The context restore (stub or hardware) runs from here until its
        // `IRET` retires; the next trap closes the measurement.
        self.restore_stamp = Some(self.machine.cycles());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolchain::SecureTaskBuilder;

    fn boot() -> Platform {
        Platform::boot(PlatformConfig::default()).expect("boot")
    }

    fn counter_body() -> &'static str {
        "main:\n movi r1, counter\n\
         loop:\n ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n jmp loop\n"
    }

    fn load_counter(platform: &mut Platform, name: &str) -> (TaskHandle, TaskId, u32) {
        let source = SecureTaskBuilder::new(name, counter_body())
            .data("counter:\n .word 0\n")
            .build()
            .unwrap();
        let counter_off = source.symbol_offset("counter").unwrap();
        let token = platform.begin_load(&source, 2);
        let (handle, id) = platform.wait_load(token, 50_000_000).unwrap();
        let base = platform.task_base(handle).unwrap();
        (handle, id, base + counter_off)
    }

    #[test]
    fn boot_measures_trusted_components() {
        let platform = boot();
        assert_eq!(platform.boot_measurement().len(), 20);
    }

    #[test]
    fn tampered_trusted_components_fail_secure_boot() {
        let config = PlatformConfig {
            corrupt_trusted_byte: Some(17),
            ..Default::default()
        };
        match Platform::<Sha1>::boot(config) {
            Err(PlatformError::SecureBootMeasurementMismatch) => {}
            other => panic!("expected secure-boot failure, got {other:?}"),
        }
    }

    #[test]
    fn tampered_boot_leaves_the_shared_stub_block_pristine() {
        let before = boot();
        let tampered = PlatformConfig {
            corrupt_trusted_byte: Some(17),
            ..Default::default()
        };
        assert!(matches!(
            Platform::<Sha1>::boot(tampered),
            Err(PlatformError::SecureBootMeasurementMismatch)
        ));
        let after = boot();
        assert_eq!(after.boot_measurement(), before.boot_measurement());
    }

    #[test]
    fn default_boots_share_one_stub_block() {
        let a = boot();
        let b = boot();
        assert!(Arc::ptr_eq(&a.stubs, &b.stubs));
    }

    #[test]
    fn each_stub_configuration_gets_its_own_block() {
        let spec = |vector, kind| StubSpec { vector, kind };
        let direct = |specs: &[StubSpec]| {
            rtos::stubs::build_stub_block_with_table(
                layout::TRUSTED_BASE,
                layout::KERNEL_TRAP,
                specs,
                Some(layout::INT_DISPATCH_TABLE),
            )
            .unwrap()
        };
        let default = boot();
        let hw = Platform::<Sha1>::boot(PlatformConfig {
            hardware_context_save: true,
            ..Default::default()
        })
        .unwrap();
        let irq = Platform::<Sha1>::boot(PlatformConfig {
            device_irq_vectors: vec![40],
            ..Default::default()
        })
        .unwrap();
        assert!(!Arc::ptr_eq(&default.stubs, &hw.stubs));
        assert!(!Arc::ptr_eq(&default.stubs, &irq.stubs));
        assert!(!Arc::ptr_eq(&hw.stubs, &irq.stubs));

        let hw_specs = [
            spec(layout::TICK_VECTOR, StubKind::HwAssisted),
            spec(layout::SYSCALL_VECTOR, StubKind::Syscall),
            spec(layout::IPC_VECTOR, StubKind::HwAssisted),
        ];
        assert_eq!(hw.stubs.program.bytes, direct(&hw_specs).program.bytes);
        let irq_specs = [
            spec(layout::TICK_VECTOR, StubKind::IntMux),
            spec(layout::SYSCALL_VECTOR, StubKind::Syscall),
            spec(layout::IPC_VECTOR, StubKind::IntMux),
            spec(40, StubKind::IntMux),
        ];
        assert_eq!(irq.stubs.program.bytes, direct(&irq_specs).program.bytes);
    }

    #[test]
    fn secure_task_loads_and_runs() {
        let mut platform = boot();
        let (_, id, counter_addr) = load_counter(&mut platform, "worker");
        platform.run_for(500_000).unwrap();
        let count = platform.debug_read_word(counter_addr).unwrap();
        assert!(count > 100, "secure task progressed: {count}");
        assert!(platform.local_attest(id).is_some());
    }

    #[test]
    fn tracer_records_every_layer_through_one_sink() {
        use std::sync::Arc;
        use tytan_trace::RingRecorder;

        let mut platform = boot();
        let ring = Arc::new(RingRecorder::new(65_536));
        platform.attach_tracer(Tracer::new(ring.clone()));

        let (_, id, _) = load_counter(&mut platform, "traced");
        platform.run_for(500_000).unwrap();
        let _ = platform.remote_attest(id, b"nonce").unwrap();
        let _ = platform.remote_attest_device(b"nonce");
        assert!(platform.local_attest(id).is_some());

        let events = ring.events();
        let core = |kind: EventKind| {
            events
                .iter()
                .filter(|e| e.layer == Layer::Core && e.kind == kind)
                .count()
        };
        // Loader span: one Enter at begin_load, one Exit at completion.
        assert_eq!(core(EventKind::Enter("load")), 1);
        assert_eq!(core(EventKind::Exit("load")), 1);
        // Attestation markers.
        assert_eq!(core(EventKind::Enter("remote_attest")), 1);
        assert_eq!(core(EventKind::Exit("remote_attest")), 1);
        assert_eq!(core(EventKind::Enter("remote_attest_device")), 1);
        assert_eq!(core(EventKind::Mark("local_attest")), 1);

        // The kernel reports its scheduling decisions to the same recorder...
        assert!(events.iter().any(|e| e.layer == Layer::Rtos));
        // ...and the machine + EA-MPU counters are registered and counting.
        // (The block counters move only on the default engine; the CI
        // matrix's TYTAN_EXEC_ENGINE=legacy leg has no cache at all.)
        let counters = platform.tracer().unwrap().counters();
        if sp_emu::MachineConfig::default().engine == sp_emu::EngineKind::Translated {
            assert!(counters.get("emu_block_compile").unwrap() > 0);
            assert!(counters.get("emu_block_hit").unwrap() > 0);
        }
        assert!(counters.get("emu_instr_alu").unwrap() > 0);
        assert!(counters.get("emu_irq_entry").unwrap() > 0);
        assert!(counters.get("eampu_access_cache_hit").is_some());
    }

    #[test]
    fn profiler_and_latency_plane_cover_the_workload() {
        let mut platform = boot();
        platform.attach_tracer(Tracer::null());
        let before = platform.machine().cycles();
        let profiler = CycleProfiler::new(platform.machine().ram_size());
        platform.attach_profiler(profiler);

        let (_, id, _) = load_counter(&mut platform, "hot");
        platform.run_for(500_000).unwrap();
        let _ = platform.remote_attest(id, b"nonce").unwrap();

        // Exact attribution: every cycle since attach landed in a bucket.
        let report = platform.profile_report().unwrap();
        assert_eq!(report.total + before, platform.machine().cycles());
        // The workload symbolizes almost entirely: the task via its
        // recovered function table, stubs and idle via the trusted map,
        // kernel service via the trap symbol, dispatch via `[irq]`.
        assert!(
            report.coverage() >= 0.95,
            "coverage {:.3}\n{}",
            report.coverage(),
            report.top(10)
        );
        let folded = report.folded();
        assert!(folded.contains("hot;"), "task frames present:\n{folded}");
        assert!(folded.contains("[trusted];"), "stub frames present");

        // The latency histograms fill through the same attach call.
        let hists = platform.tracer().unwrap().histograms().clone();
        for name in [
            "lat_irq_entry",
            "lat_ctx_save",
            "lat_ctx_restore",
            "lat_attest",
            "lat_load_total",
            "lat_load_rtm",
        ] {
            let recorded = hists.get(name).is_some_and(|h| !h.is_empty());
            assert!(recorded, "{name} recorded nothing");
        }
        let entry = hists.get("lat_irq_entry").unwrap().summary();
        assert!(entry.p50 > 0 && entry.max >= entry.p99);
    }

    #[test]
    fn two_secure_tasks_share_cpu_and_stay_isolated() {
        let mut platform = boot();
        let (_, id_a, counter_a) = load_counter(&mut platform, "a");
        let (_, _, counter_b) = load_counter(&mut platform, "b");
        platform.run_for(2_000_000).unwrap();
        let ca = platform.debug_read_word(counter_a).unwrap();
        let cb = platform.debug_read_word(counter_b).unwrap();
        assert!(ca > 0 && cb > 0, "both ran: {ca} {cb}");
        assert!(platform.faults().is_empty(), "no isolation faults");
        let _ = id_a;
    }

    #[test]
    fn malicious_task_is_killed_on_isolation_violation() {
        let mut platform = boot();
        let (victim, _, victim_counter) = load_counter(&mut platform, "victim");
        // The attacker reads the victim's memory directly.
        let attacker_body = format!(
            "main:\n movi r1, {victim_counter:#x}\n ldw r2, [r1]\n\
             spin:\n jmp spin\n"
        );
        let source = SecureTaskBuilder::new("attacker", attacker_body)
            .build()
            .unwrap();
        let token = platform.begin_load(&source, 3);
        let (attacker, _) = platform.wait_load(token, 50_000_000).unwrap();
        platform.run_for(500_000).unwrap();

        assert_eq!(platform.faults().len(), 1, "exactly one violation recorded");
        assert_eq!(platform.faults()[0].task, Some(attacker));
        // Attacker is gone; victim unaffected.
        assert!(platform.kernel().task(attacker).is_none());
        assert!(platform.kernel().task(victim).is_some());
        let count = platform.debug_read_word(victim_counter).unwrap();
        assert!(count > 0);
    }

    #[test]
    fn unload_releases_everything() {
        let mut platform = boot();
        let slots_before = platform.machine().mpu().used_slots();
        let free_before = platform.allocator.free_bytes();
        let (handle, id, _) = load_counter(&mut platform, "ephemeral");
        platform.run_for(100_000).unwrap();
        platform.unload_task(handle).unwrap();
        assert_eq!(platform.machine().mpu().used_slots(), slots_before);
        assert_eq!(platform.allocator.free_bytes(), free_before);
        assert!(platform.rtm().lookup(id).is_none());
        platform.run_for(100_000).unwrap(); // platform stays healthy
    }

    #[test]
    fn suspend_stops_progress_resume_restores_it() {
        let mut platform = boot();
        let (handle, _, counter) = load_counter(&mut platform, "s");
        platform.run_for(300_000).unwrap();
        platform.suspend_task(handle).unwrap();
        let at_suspend = platform.debug_read_word(counter).unwrap();
        platform.run_for(300_000).unwrap();
        let while_suspended = platform.debug_read_word(counter).unwrap();
        assert_eq!(at_suspend, while_suspended, "no progress while suspended");
        platform.resume_task(handle).unwrap();
        platform.run_for(300_000).unwrap();
        assert!(platform.debug_read_word(counter).unwrap() > while_suspended);
    }

    #[test]
    fn identical_binaries_have_identical_ids() {
        let mut platform = boot();
        let (_, id_a, _) = load_counter(&mut platform, "x");
        let (_, id_b, _) = load_counter(&mut platform, "y");
        assert_eq!(id_a, id_b, "identity is the binary measurement");
    }

    #[test]
    fn remote_attestation_roundtrip() {
        use crate::attest::RemoteVerifier;
        let mut platform = boot();
        let (_, id, _) = load_counter(&mut platform, "attested");
        let verifier = RemoteVerifier::new(platform.attestation_key());
        let expected = platform.local_attest(id).unwrap();
        let report = platform.remote_attest(id, b"challenge-1").unwrap();
        assert_eq!(verifier.verify(&report, b"challenge-1", &expected), Ok(()));
    }

    #[test]
    fn storage_isolation_between_tasks() {
        let mut platform = boot();
        let (a, _, _) = load_counter(&mut platform, "alpha");
        // A task with different code => different identity.
        let other = SecureTaskBuilder::new("beta", "main:\n movi r3, 7\nspin:\n jmp spin\n")
            .build()
            .unwrap();
        let token = platform.begin_load(&other, 2);
        let (b, _) = platform.wait_load(token, 50_000_000).unwrap();

        platform.storage_store(a, "cal", b"alpha-data").unwrap();
        assert_eq!(platform.storage_retrieve(a, "cal").unwrap(), b"alpha-data");
        assert!(matches!(
            platform.storage_retrieve(b, "cal"),
            Err(PlatformError::Storage(StorageError::AccessDenied))
        ));
    }

    #[test]
    fn guest_ipc_between_secure_tasks() {
        let mut platform = boot();
        // Receiver: waits; on_message copies payload word 0 to `result`.
        let receiver_body = "main:\nwait:\n jmp wait\n\
             on_message:\n movi r1, __mailbox\n ldw r2, [r1+16]\n\
             movi r3, result\n stw [r3], r2\n\
             done:\n jmp done\n";
        let receiver = SecureTaskBuilder::new("receiver", receiver_body)
            .data("result:\n .word 0\n")
            .handles_messages(true)
            .build()
            .unwrap();
        let receiver_id = TaskId::from_digest(&Sha1::digest(&receiver.image.measurement_bytes()));

        // Sender: r1/r2 = receiver id, r3 payload, r6=1 (sync).
        let (hi, lo) = receiver_id.to_register_words();
        let sender_body = format!(
            "main:\n movi r1, {hi:#010x}\n movi r2, {lo:#010x}\n\
             movi r3, 0xca11ab1e\n movi r4, 0\n movi r5, 0\n movi r6, 1\n\
             int IPC_VECTOR\n\
             spin:\n jmp spin\n"
        );
        let sender = SecureTaskBuilder::new("sender", sender_body)
            .build()
            .unwrap();

        let rt = platform.begin_load(&receiver, 2);
        let (rh, rid) = platform.wait_load(rt, 50_000_000).unwrap();
        assert_eq!(rid, receiver_id, "precomputed id matches measured id");
        let st = platform.begin_load(&sender, 3);
        let (sh, sid) = platform.wait_load(st, 50_000_000).unwrap();

        platform.run_for(2_000_000).unwrap();

        let base = platform.task_base(rh).unwrap();
        let result_addr = base + receiver.symbol_offset("result").unwrap();
        assert_eq!(platform.debug_read_word(result_addr).unwrap(), 0xca11_ab1e);

        // The mailbox carries the authenticated sender identity.
        let mailbox = platform.rtm().lookup(rid).unwrap().mailbox;
        let hi = platform
            .debug_read_word(mailbox + mailbox::SENDER_HI)
            .unwrap();
        let lo = platform
            .debug_read_word(mailbox + mailbox::SENDER_LO)
            .unwrap();
        assert_eq!(TaskId::from_register_words(hi, lo), sid);
        let _ = sh;
    }

    #[test]
    fn ipc_to_unknown_receiver_reports_error() {
        let mut platform = boot();
        // Sender targets a nonexistent id; expects status NO_RECEIVER in
        // r0 after the INT returns, then stores it.
        let sender_body = "main:\n movi r1, 0x11111111\n movi r2, 0x22222222\n\
             movi r3, 1\n movi r6, 0\n\
             int IPC_VECTOR\n\
             movi r1, status\n stw [r1], r0\n\
             spin:\n jmp spin\n";
        let sender = SecureTaskBuilder::new("sender", sender_body)
            .data("status:\n .word 0xffffffff\n")
            .build()
            .unwrap();
        let token = platform.begin_load(&sender, 2);
        let (handle, _) = platform.wait_load(token, 50_000_000).unwrap();
        platform.run_for(1_000_000).unwrap();
        let base = platform.task_base(handle).unwrap();
        let status_addr = base + sender.symbol_offset("status").unwrap();
        assert_eq!(
            platform.debug_read_word(status_addr).unwrap(),
            ipc_status::NO_RECEIVER
        );
    }

    #[test]
    fn shared_memory_accessible_to_both_parties_only() {
        use eampu::AccessKind;
        let mut platform = boot();
        let (a, _, _) = load_counter(&mut platform, "a");
        let (b, _, _) = load_counter(&mut platform, "b");
        let (c, _, _) = load_counter(&mut platform, "c");
        let region = platform.setup_shared_memory(a, b, 0x100).unwrap();
        let code_a = platform.kernel().task(a).unwrap().params.code;
        let code_b = platform.kernel().task(b).unwrap().params.code;
        let code_c = platform.kernel().task(c).unwrap().params.code;
        let mpu = platform.machine().mpu();
        assert!(mpu
            .check_access(code_a.start(), region.start(), AccessKind::Write)
            .is_allowed());
        assert!(mpu
            .check_access(code_b.start(), region.start(), AccessKind::Read)
            .is_allowed());
        assert!(!mpu
            .check_access(code_c.start(), region.start(), AccessKind::Read)
            .is_allowed());
    }

    #[test]
    fn shared_memory_teardown_restores_state() {
        use eampu::AccessKind;
        let mut platform = boot();
        let (a, _, _) = load_counter(&mut platform, "a");
        let (b, _, _) = load_counter(&mut platform, "b");
        let slots_before = platform.machine().mpu().used_slots();
        let free_before = platform.allocator.free_bytes();
        let region = platform.setup_shared_memory(a, b, 0x100).unwrap();
        platform.teardown_shared_memory(region).unwrap();
        assert_eq!(platform.machine().mpu().used_slots(), slots_before);
        assert_eq!(platform.allocator.free_bytes(), free_before);
        // The window is ordinary memory again.
        let code_a = platform.kernel().task(a).unwrap().params.code.start();
        assert!(platform
            .machine()
            .mpu()
            .check_access(code_a, region.start(), AccessKind::Read)
            .is_allowed());
        // Double teardown is rejected.
        assert!(matches!(
            platform.teardown_shared_memory(region),
            Err(PlatformError::NoSuchTask)
        ));
    }

    #[test]
    fn normal_task_loads_without_measurement() {
        use crate::toolchain::build_normal_task;
        let mut platform = boot();
        let source =
            build_normal_task("plain", counter_body(), "counter:\n .word 0\n", 256).unwrap();
        let counter_off = source.symbol_offset("counter").unwrap();
        let token = platform.begin_load(&source, 2);
        let (handle, id) = platform.wait_load(token, 50_000_000).unwrap();
        assert_eq!(id, TaskId::from_u64(0));
        assert!(platform.rtm().is_empty());
        platform.run_for(500_000).unwrap();
        let base = platform.task_base(handle).unwrap();
        assert!(platform.debug_read_word(base + counter_off).unwrap() > 0);
    }

    #[test]
    fn exclusive_device_grant_enforced() {
        use eampu::AccessKind;
        let mut platform = boot();
        let (owner, _, _) = load_counter(&mut platform, "sensor-owner");
        let (other, _, _) = load_counter(&mut platform, "bystander");
        platform
            .grant_exclusive_device(owner, layout::PEDAL_BASE, 4)
            .unwrap();
        let owner_code = platform.kernel().task(owner).unwrap().params.code.start();
        let other_code = platform.kernel().task(other).unwrap().params.code.start();
        let mpu = platform.machine().mpu();
        assert!(mpu
            .check_access(owner_code, layout::PEDAL_BASE, AccessKind::Read)
            .is_allowed());
        assert!(!mpu
            .check_access(other_code, layout::PEDAL_BASE, AccessKind::Read)
            .is_allowed());
        // Even the OS loses access to the claimed device.
        let kernel_actor = platform.kernel().config().kernel_actor;
        assert!(!mpu
            .check_access(kernel_actor, layout::PEDAL_BASE, AccessKind::Read)
            .is_allowed());
    }

    #[test]
    fn device_level_attestation_tracks_the_task_set() {
        use crate::attest::{RemoteVerifier, VerifyError};
        let mut platform = boot();
        let (h1, id1, _) = load_counter(&mut platform, "one");
        let other = SecureTaskBuilder::new("two", "main:\nspin:\n jmp spin\n")
            .build()
            .unwrap();
        let token = platform.begin_load(&other, 2);
        let (_, id2) = platform.wait_load(token, 200_000_000).unwrap();

        let verifier = RemoteVerifier::new(platform.attestation_key());
        let expected = vec![
            (id1, platform.local_attest(id1).unwrap()),
            (id2, platform.local_attest(id2).unwrap()),
        ];
        let report = platform.remote_attest_device(b"device-nonce");
        assert_eq!(
            verifier.verify_device(&report, b"device-nonce", &expected),
            Ok(())
        );

        // Unloading a task changes the device state: the old expectation
        // no longer verifies against a fresh report.
        platform.unload_task(h1).unwrap();
        let report = platform.remote_attest_device(b"nonce-2");
        assert!(matches!(
            verifier.verify_device(&report, b"nonce-2", &expected),
            Err(VerifyError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn hardware_context_save_platform_runs_end_to_end() {
        let config = PlatformConfig {
            hardware_context_save: true,
            ..Default::default()
        };
        let mut platform: Platform = Platform::boot(config).unwrap();
        let source = SecureTaskBuilder::new("hw-task", counter_body())
            .data("counter:\n .word 0\n")
            .build()
            .unwrap();
        let token = platform.begin_load(&source, 2);
        let (handle, _) = platform.wait_load(token, 200_000_000).unwrap();
        platform.run_for(500_000).unwrap();
        let base = platform.task_base(handle).unwrap();
        let counter = platform
            .debug_read_word(base + source.symbol_offset("counter").unwrap())
            .unwrap();
        assert!(
            counter > 100,
            "task progresses under hardware save: {counter}"
        );
        assert!(platform.faults().is_empty());
    }

    #[test]
    fn load_progress_is_observable() {
        let mut platform = boot();
        let source = SecureTaskBuilder::new("slow", counter_body())
            .data("counter:\n .word 0\n")
            .build()
            .unwrap();
        let token = platform.begin_load(&source, 2);
        assert!(matches!(
            platform.load_status(token).unwrap(),
            LoadStatus::InProgress(LoadPhase::Alloc)
        ));
        platform.wait_load(token, 50_000_000).unwrap();
        match platform.load_status(token).unwrap() {
            LoadStatus::Done { report, .. } => {
                assert!(report.rtm_cycles > 0);
                assert!(report.slices > 1, "interruptible load ran in slices");
            }
            other => panic!("expected done, got {other:?}"),
        }
    }
}
