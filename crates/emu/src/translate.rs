//! The block translation engine ([`EngineKind::Translated`]), the
//! default run loop.
//!
//! Basic blocks are discovered at execution time with the same boundary
//! rules the static linter uses ([`sp32::cfg`]) and "compiled" into
//! threaded code: one [`TOp`] per instruction, holding a one-byte op
//! kind, pre-decoded operands, the memoised taken / not-taken cycle
//! costs, the cycles its block charges before it, and the EA-MPU work
//! pre-resolved under the current configuration. Compiled blocks live in
//! a translation cache keyed by entry address.
//!
//! Cold entries run through [`Machine::step`]: the first arrival at an
//! entry only marks it in the cache and interprets one instruction, and
//! the second arrival compiles the block. Code a device runs once —
//! boot, task load, straight-line setup — so never pays for a compile.
//! Only arrivals that could start a block leave a mark: a run entry, a
//! taken transfer, a block end, an interrupt dispatch or return. Falling
//! through a stepped instruction that does not end a block leaves none,
//! so a long straight line costs one mark, not one per instruction.
//!
//! # Identity contract
//!
//! The engine is bit-identical to [`Machine::run_legacy`] — every
//! charged cycle, every architectural state transition, every EA-MPU
//! decision-log record, every trace span. Five mechanisms keep it so:
//!
//! - **Boundary preservation.** The outer loop of
//!   [`Machine::run_translated`] performs the legacy loop's poll →
//!   deliver → trap → halt → budget sequence, but polls devices only
//!   at the cached device deadline, which [`Device::next_event`]
//!   guarantees is the first boundary where a poll could matter. Between
//!   boundaries it executes blocks, breaking the batch as soon as a
//!   retired op reaches the step limit or moves a device deadline or
//!   queues an SMC range. Blocks end at every control transfer and
//!   stop before firmware-trap addresses, so a boundary can never be
//!   crossed mid-block. A halted core crosses its idle stretch in one
//!   move, to the first 8-cycle idle step at or past the earlier of the
//!   device deadline and the budget: the clock value, poll and return
//!   the legacy loop's one-step-per-turn idle reaches, with the same
//!   [`CycleObserver::idle`] total.
//! - **Block-entry budget.** Only a block's terminator can be taken, so
//!   the cycles a block charges before each op are fixed at compile time
//!   ([`TOp::prefix`]), and so is its worst-case charge
//!   ([`TBlock::max_cost`]). A pass that starts more than `max_cost`
//!   cycles short of the step limit cannot reach it on any op, so it
//!   runs without per-op clock, retirement or `EIP` bookkeeping and
//!   rebuilds all three from the prefix wherever it stops. A pass that
//!   loops back always charges the same, so a chain of such passes is
//!   counted on entry and counted down. Everything else runs the exact
//!   per-op loop, which stops on the very op the legacy loop stops
//!   after.
//! - **Fused triples.** A body `ldw rX, [rB+d]; <op> rX; stw [rB+d], rX`
//!   with `rB != rX` is marked at compile time ([`TOp::fused`]) and its
//!   three ops are kept. In a budgeted pass it runs in one step when
//!   neither access needs a check call (its mode is quiet, or its window
//!   holds the address) and the word is in RAM: the load, the op, the
//!   store and the SMC note, minus the machine-clock store only a device
//!   would observe. Every other case — a window miss, a device, a bus
//!   fault, the exact loop — runs the three ops as they are, so it faults
//!   and breaks the batch where they do.
//! - **Pre-resolution soundness.** EA-MPU work is specialised at
//!   compile time: a statically-resolvable check compiles to either
//!   nothing (allowed and unobserved) or a [`EaMpu::replay_transfer`] /
//!   [`EaMpu::replay_access`] of the pre-resolved decision (observed,
//!   i.e. a tracer is attached or the decision log is on), and
//!   everything else stays a live check. Every input of that
//!   specialisation — rule table, cache mode, log mode, tracer,
//!   MPU enable, firmware-trap set — is covered by a generation
//!   snapshot revalidated on entry to `run_translated`; any mismatch
//!   drops all blocks (counted as `emu_block_invalidate_mpu`).
//!   A memory op under a non-empty rule table, compiled unobserved,
//!   memoises an allowed window ([`AccessMode::Memo`]): after a live
//!   check allows it, the op keeps the address range of the EA-MPU's
//!   latched rectangle for its own `pc` and kind, over which the rule
//!   scan provably allows, and skips the check for any address inside
//!   it. Any other address runs the live check, which faults exactly as
//!   the legacy loop does, then refreshes the window. A window lives in
//!   its block, so the snapshot drops it with every rule-table change
//!   between runs; and the rule table cannot change inside one
//!   `run_translated`: it is reachable only through `&mut Machine`, no
//!   handler or device touches it, and firmware reconfigures it at a
//!   trap, after the run has returned. A skipped check does not refresh
//!   the decision cache. Decisions never depend on the cache, only its
//!   hit and miss counters do, and those are counted only in observed
//!   compiles; quiet transfer edges skip the cache the same way.
//! - **Self-modifying-code tracking.** RAM words covered by compiled
//!   blocks are marked in a bitmap, held in 128-byte pages allocated per
//!   4 KiB RAM page on first use; every RAM write into a marked word
//!   queues a dirty range ([`TransState::note_code_write`], hooked into
//!   the machine's write paths). Dirty ranges break the block batch and
//!   drop overlapping blocks (counted as `emu_block_invalidate_smc`)
//!   before the next block executes; the rewritten words then run
//!   through [`Machine::step`] until the next full flush, so code that
//!   keeps rewriting itself is interpreted rather than recompiled per
//!   rewrite. Word granularity matters: tasks keep data and stack next
//!   to their code, and a coarser granule would flag their every store
//!   as a code write.
//!
//! The control-flow monitor needs no interpreter of its own: a block
//! ends at every control transfer, so its only taken edge is its
//! terminator. The exact loop and every checked terminator record it
//! where [`Machine::step`] does, after the transfer check succeeds. A
//! budgeted chain counts the back edges its inline `jmp`/`jcc` takes
//! and records them at once, with [`CfMonitor::record_repeat`], wherever
//! the chain stops: nothing outside the chain reads the monitor before
//! then, and the log is the one the per-pass records would build.
//!
//! [`CfMonitor::record_repeat`]: crate::cfa::CfMonitor::record_repeat
//!
//! Anything a block cannot express — `Int`/`Iret` (interrupt frames,
//! resume latches, IRQ trace spans), undecodable or unfetchable code,
//! MMIO-resident code — falls back to [`Machine::step`], which is the
//! shared semantic core of both engines.
//!
//! [`Device::next_event`]: crate::Device::next_event
//! [`CycleObserver::idle`]: crate::CycleObserver::idle

use super::{instr_class, EngineKind, Event, Fault, Machine};
use eampu::{AccessDecision, AccessKind, TransferDecision};
use sp32::cfg::ends_block;
use sp32::{Cond, Instr, Reg};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for the block map. Keys are guest entry
/// addresses — word-aligned, low-entropy `u32`s — where SipHash's
/// collision resistance buys nothing and its latency sits on the
/// block-dispatch hot path. A fixed odd multiplier mixes the address
/// bits well enough for a power-of-two table.
#[derive(Default)]
pub(crate) struct EntryHasher(u64);

impl Hasher for EntryHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // HashMap keeps the high bits; the multiply pushed the entropy
        // there already.
        self.0
    }
}

/// The translation cache, keyed by entry address: `Some` holds the
/// compiled block, `None` marks an entry reached once and interpreted
/// (it compiles on its next arrival). Marks live in the same map as the
/// blocks, so [`MAX_BLOCKS`] bounds them and every flush clears them.
pub(crate) type BlockMap = HashMap<u32, Option<TBlock>, BuildHasherDefault<EntryHasher>>;

/// log2 of the SMC-tracking granule: one bitmap bit per RAM word.
const GRANULE_SHIFT: u32 = 2;

/// Longest straight-line run compiled into one block.
const MAX_OPS: usize = 64;

/// Translation-cache capacity, marks included; overflowing flushes
/// everything (simple, and unreachable outside adversarial workloads).
const MAX_BLOCKS: usize = 4096;

/// The epilogue transfer check of one op, pre-resolved where possible.
///
/// [`Machine::step`] ends every retired instruction (except `Iret`,
/// which is step-fallback here) with `check_transfer(pc, next)`; this is
/// that check's compiled form.
#[derive(Clone, Copy)]
enum PreCheck {
    /// Nothing to do: MPU disabled at compile time, or the edge is
    /// statically allowed and nobody is observing decisions.
    Quiet,
    /// Statically resolved and observed: replay the record (and fault
    /// if the resolution was a denial).
    Replay(TransferDecision),
    /// Not statically resolvable (dynamic target under a non-empty rule
    /// table): perform the live check.
    Dynamic,
}

/// The data-access check of a memory op, pre-resolved where possible.
enum AccessMode {
    /// No check and no record: MPU disabled, or no rules and unobserved.
    Quiet,
    /// No rules but observed: replay the record, always
    /// [`AccessDecision::AllowedUnprotected`], with the runtime address.
    Replay,
    /// Rules exist and decisions are observed: live check every access,
    /// so every trace counter and decision-log record is the legacy
    /// loop's.
    Checked,
    /// Rules exist and nobody observes decisions: live check only for
    /// addresses outside the window, which holds the addresses the
    /// EA-MPU last proved this op may access ([`EaMpu::latched_allow`]
    /// for the op's own `pc` and kind). A miss runs the full check,
    /// faulting exactly as [`AccessMode::Checked`] would, then refreshes
    /// the window.
    ///
    /// [`EaMpu::latched_allow`]: eampu::EaMpu::latched_allow
    Memo(Cell<Window>),
}

/// An inclusive address range `(lo, hi)`; [`EMPTY_WINDOW`] holds none.
type Window = (u32, u32);

const EMPTY_WINDOW: Window = (1, 0);

/// What an op does: the one-byte dispatch key of [`exec_op`] and
/// [`run_op`]. The kinds that reach memory come last, so testing for
/// one is a single compare.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpKind {
    Nop,
    Hlt,
    Sti,
    Cli,
    MovReg,
    MovImm,
    Add,
    AddImm,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Not,
    Shl,
    Shr,
    Cmp,
    CmpImm,
    Jmp,
    Jcc,
    JmpReg,
    Ldw,
    Ldb,
    Stw,
    Stb,
    Push,
    Pop,
    Call,
    Ret,
    /// Runs through [`Machine::step`], which does its own accounting:
    /// `Int`/`Iret`, and any instruction whose cost does not fit
    /// [`MAX_OP_COST`]. Always the last op of its block.
    Step,
}

impl OpKind {
    /// Whether the op reaches memory or devices, and so can fault on an
    /// access, let a device observe the clock, queue an SMC dirty range
    /// or move a device deadline.
    #[inline(always)]
    fn touches_memory(self) -> bool {
        self as u8 >= OpKind::Ldw as u8
    }

    /// Whether the op's only effects are on its first register operand
    /// and the flags: the middle op a load-op-store triple may fuse.
    fn writes_only_rd(self) -> bool {
        (OpKind::MovReg as u8..=OpKind::Shr as u8).contains(&(self as u8))
    }
}

/// Largest per-instruction cost a [`TOp`] holds; a costlier instruction
/// compiles to [`OpKind::Step`]. [`MAX_OPS`] ops at this cost keep a
/// block's [`TOp::prefix`] and [`TBlock::max_cost`] within `u32`.
const MAX_OP_COST: u64 = (u32::MAX / MAX_OPS as u32) as u64;

/// One threaded-code op: an op kind plus everything it needs, flattened.
pub(crate) struct TOp {
    kind: OpKind,
    /// First register operand (`rd`).
    a: u8,
    /// Second register operand (`rs`).
    b: u8,
    /// Condition for `Jcc` (placeholder elsewhere).
    cond: Cond,
    /// [`instr_class`] index for the per-class retirement counters.
    class: u8,
    pc: u32,
    fallthrough: u32,
    /// Static branch target (`Jmp`/`Jcc`/`Call`); 0 otherwise.
    target: u32,
    /// Pre-sign-extended immediate / displacement.
    imm: u32,
    cost_not_taken: u32,
    cost_taken: u32,
    /// Cycles the block charges before this op: the not-taken costs of
    /// the ops ahead of it, since only a block's last op can be taken.
    prefix: u32,
    /// Epilogue check on the not-taken / fall-through edge.
    pre_ft: PreCheck,
    /// Epilogue check on the taken edge.
    pre_br: PreCheck,
    /// Data-access check mode (memory ops).
    access: AccessMode,
    /// Whether this `ldw` heads a load-op-store triple the budgeted loop
    /// may run in one step ([`fuses`], [`run_fused`]). The triple's three
    /// ops stay as they are for every other path.
    fused: bool,
}

impl TOp {
    /// An op that runs the instruction at `pc` through [`Machine::step`].
    fn step_fallback(pc: u32, instr: &Instr) -> TOp {
        TOp {
            kind: OpKind::Step,
            a: 0,
            b: 0,
            cond: Cond::Z,
            class: instr_class(instr) as u8,
            pc,
            fallthrough: 0,
            target: 0,
            imm: 0,
            cost_not_taken: 0,
            cost_taken: 0,
            prefix: 0,
            pre_ft: PreCheck::Quiet,
            pre_br: PreCheck::Quiet,
            access: AccessMode::Quiet,
            fused: false,
        }
    }
}

/// One compiled basic block.
pub(crate) struct TBlock {
    entry: u32,
    /// Exclusive end of the code bytes the block was compiled from.
    end: u32,
    /// The most cycles one pass can charge: the last op's prefix plus
    /// its dearer edge.
    max_cost: u64,
    /// Whether every pass must take the exact loop: the block ends in a
    /// step op, or an op before its last has a fall-through check to
    /// perform (an observed decision log, or a fall-through into the
    /// middle of a protected region).
    exact_only: bool,
    ops: Vec<TOp>,
}

/// Configuration snapshot compiled blocks are valid under.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Snap {
    mpu_gen: u64,
    mpu_enabled: bool,
    trap_gen: u64,
}

/// log2 of the RAM page one bitmap page covers: 4 KiB, as in `Ram`.
const PAGE_SHIFT: u32 = 12;

/// Bitmap words per page: one bit per granule of a 4 KiB RAM page.
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - GRANULE_SHIFT) >> 6;

/// One page of a [`GranuleMap`]: 128 bytes.
type BitPage = [u64; PAGE_WORDS];

/// A set of RAM granules ([`GRANULE_SHIFT`]), one bit each, held as one
/// [`BitPage`] per 4 KiB RAM page and allocated when a granule in that
/// page is first set. A fresh or cleared map holds no page, so a machine
/// that compiles nothing allocates nothing here, and probing a granule
/// is one page-table load and one bit test.
struct GranuleMap {
    /// Slots for RAM pages up to the highest one ever set; `None` until a
    /// granule in that page is set.
    pages: Vec<Option<Box<BitPage>>>,
    /// RAM pages the map covers.
    limit: usize,
}

impl GranuleMap {
    fn new(ram_size: u32) -> Self {
        GranuleMap {
            pages: Vec::new(),
            limit: (ram_size as usize).div_ceil(1 << PAGE_SHIFT),
        }
    }

    /// Whether no page was set since the last clear (a page whose bits
    /// were all cleared again still counts as set).
    fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    fn clear(&mut self) {
        self.pages.clear();
    }

    /// Bitmap pages the host holds.
    fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Bitmap word `index` (granules `64 * index ..`); 0 on a page that
    /// was never set.
    #[inline(always)]
    fn word(&self, index: usize) -> u64 {
        match self.pages.get(index / PAGE_WORDS) {
            Some(Some(page)) => page[index % PAGE_WORDS],
            _ => 0,
        }
    }

    /// Sets (`on`) or clears the granules covering bytes `first..=last`.
    fn set(&mut self, first: u32, last: u32, on: bool) {
        for granule in (first >> GRANULE_SHIFT) as usize..=(last >> GRANULE_SHIFT) as usize {
            let (word, bit) = (granule / 64, 1u64 << (granule % 64));
            let page = word / PAGE_WORDS;
            if page >= self.limit {
                break;
            }
            if on {
                if self.pages.len() <= page {
                    self.pages.resize_with(page + 1, || None);
                }
                let bits = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
                bits[word % PAGE_WORDS] |= bit;
            } else if let Some(Some(bits)) = self.pages.get_mut(page) {
                bits[word % PAGE_WORDS] &= !bit;
            }
        }
    }

    /// Whether the granule holding byte `addr` is set.
    #[inline(always)]
    fn contains(&self, addr: u32) -> bool {
        let granule = (addr >> GRANULE_SHIFT) as usize;
        self.word(granule / 64) >> (granule % 64) & 1 != 0
    }

    /// Whether any granule covering bytes `first..=last` is set.
    fn any(&self, first: u32, last: u32) -> bool {
        let first = (first >> GRANULE_SHIFT) as usize;
        let last = (last >> GRANULE_SHIFT) as usize;
        let hi = (last / 64 + 1).min(self.pages.len() * PAGE_WORDS);
        (first / 64..hi).any(|word| {
            let mut mask = !0u64;
            if word == first / 64 {
                mask &= !0u64 << (first % 64);
            }
            if word == last / 64 {
                mask &= !0u64 >> (63 - last % 64);
            }
            self.word(word) & mask != 0
        })
    }
}

/// Translation-engine state owned by the [`Machine`].
pub(crate) struct TransState {
    /// Compiled blocks and once-entered marks by entry address. Taken
    /// out of the machine (via `mem::take`) for the duration of
    /// `run_translated` so handlers can borrow the machine mutably while
    /// a block is executing.
    pub(crate) blocks: BlockMap,
    /// Granules covered by some compiled block's code.
    code: GranuleMap,
    /// Granules of compiled code that the guest or host rewrote. They
    /// are left to [`Machine::step`] until the next flush: code that
    /// rewrites itself would otherwise pay a block compile per rewrite.
    rewritten: GranuleMap,
    /// Write ranges `[start, end)` that hit compiled code; drained (and
    /// overlapping blocks dropped) at batch boundaries.
    dirty: Vec<(u32, u32)>,
    /// The snapshot current blocks were compiled under.
    snap: Option<Snap>,
}

impl TransState {
    pub(crate) fn new(ram_size: u32) -> Self {
        TransState {
            blocks: BlockMap::default(),
            code: GranuleMap::new(ram_size),
            rewritten: GranuleMap::new(ram_size),
            dirty: Vec::new(),
            snap: None,
        }
    }

    /// Drops every block and mark and clears both granule maps and the
    /// dirty queue.
    pub(crate) fn flush(&mut self) {
        self.blocks.clear();
        self.code.clear();
        self.rewritten.clear();
        self.dirty.clear();
        self.snap = None;
    }

    /// Bitmap pages the two granule maps hold.
    pub(crate) fn bitmap_pages(&self) -> usize {
        self.code.resident_pages() + self.rewritten.resident_pages()
    }

    /// Notes a RAM write of `len` bytes at `addr` (called from the
    /// machine's write paths). Queues a dirty range when the write
    /// touches a granule covered by compiled code.
    #[inline(always)]
    pub(crate) fn note_code_write(&mut self, addr: u32, len: usize) {
        if len == 4 && addr.is_multiple_of(4) {
            // An aligned word is exactly one granule: one bit test.
            if self.code.contains(addr) {
                self.dirty.push((addr, addr.saturating_add(4)));
            }
            return;
        }
        self.note_range_write(addr, len);
    }

    /// [`TransState::note_code_write`] for any other size or alignment:
    /// walks every granule the write covers.
    #[cold]
    #[inline(never)]
    fn note_range_write(&mut self, addr: u32, len: usize) {
        // A zero-length write touches no bytes; `len - 1` below would
        // underflow into a whole-address-space range.
        if len == 0 || self.code.is_empty() {
            return;
        }
        let last = addr.saturating_add(len as u32 - 1);
        if self.code.any(addr, last) {
            self.dirty.push((addr, last.saturating_add(1)));
        }
    }
}

impl Machine {
    /// Drops all compiled blocks if anything they were specialised
    /// against has changed since they were compiled: EA-MPU epoch (rule
    /// table, cache mode, decision-log mode, tracer), MPU enforcement
    /// flag, or the firmware-trap set. Task load/unload and any EA-MPU
    /// window reconfiguration land here via the rule-table epoch.
    fn revalidate_translations(&mut self) {
        let snap = Snap {
            mpu_gen: self.mpu.generation(),
            mpu_enabled: self.mpu_enabled,
            trap_gen: self.trap_gen,
        };
        if self.tcache.snap != Some(snap) {
            let dropped = self.tcache.blocks.values().flatten().count();
            self.tcache.flush();
            self.tcache.snap = Some(snap);
            if dropped > 0 {
                if let Some(t) = &self.trace {
                    t.tracer
                        .counters()
                        .add(t.block_invalidate_mpu, dropped as u64);
                }
            }
        }
    }

    /// Drains queued SMC dirty ranges, dropping every block whose code
    /// overlaps one and marking the rewritten code words. Only the
    /// dropped blocks' granules leave the code map, and survivors sharing
    /// a granule with them are marked again, so a drop never rebuilds the
    /// whole map.
    fn drain_dirty(&mut self, blocks: &mut BlockMap) {
        if self.tcache.dirty.is_empty() {
            return;
        }
        let written = std::mem::take(&mut self.tcache.dirty);
        let mut dropped = Vec::new();
        blocks.retain(|_, b| {
            // A mark covers no code: nothing compiled from it can go stale.
            let Some(b) = b else {
                return true;
            };
            let hit = written.iter().any(|&(s, e)| s < b.end && e > b.entry);
            if hit {
                dropped.push((b.entry, b.end));
            }
            !hit
        });
        if dropped.is_empty() {
            return;
        }
        let state = &mut self.tcache;
        for &(entry, end) in &dropped {
            state.code.set(entry, end - 1, false);
            for &(s, e) in &written {
                let (first, last) = (s.max(entry), e.min(end) - 1);
                if first <= last {
                    state.rewritten.set(first, last, true);
                }
            }
        }
        let granule = |a: u32| a >> GRANULE_SHIFT;
        for b in blocks.values().flatten() {
            if dropped.iter().any(|&(entry, end)| {
                granule(entry) <= granule(b.end - 1) && granule(b.entry) <= granule(end - 1)
            }) {
                state.code.set(b.entry, b.end - 1, true);
            }
        }
        if let Some(t) = &self.trace {
            t.tracer
                .counters()
                .add(t.block_invalidate_smc, dropped.len() as u64);
        }
    }

    /// Resolves the epilogue transfer check for the edge `from -> to`
    /// at compile time. `to == None` means the target is dynamic
    /// (`Ret`, `JmpReg`), resolvable only under an empty rule table.
    fn resolve_edge(&self, from: u32, to: Option<u32>, observed: bool) -> PreCheck {
        if !self.mpu_enabled {
            // `Machine::check_transfer` returns without consulting the
            // MPU (so without logging) when enforcement is off.
            return PreCheck::Quiet;
        }
        match to {
            Some(to) => {
                let decision = self.mpu.preview_transfer(from, to);
                if observed || matches!(decision, TransferDecision::DeniedMidRegion { .. }) {
                    PreCheck::Replay(decision)
                } else {
                    PreCheck::Quiet
                }
            }
            None if !self.mpu.has_rules() => {
                // With no rules, every transfer is `Allowed` regardless
                // of the runtime target.
                if observed {
                    PreCheck::Replay(TransferDecision::Allowed)
                } else {
                    PreCheck::Quiet
                }
            }
            None => PreCheck::Dynamic,
        }
    }

    /// Resolves the data-access check of a memory op at compile time.
    /// Addresses are always dynamic, so static resolution only exists
    /// under an empty rule table (every access `AllowedUnprotected`);
    /// under rules an unobserved op memoises its allowed window instead.
    fn resolve_access(&self, observed: bool) -> AccessMode {
        match (self.mpu_enabled, self.mpu.has_rules(), observed) {
            (false, _, _) | (true, false, false) => AccessMode::Quiet,
            (true, false, true) => AccessMode::Replay,
            (true, true, true) => AccessMode::Checked,
            (true, true, false) => AccessMode::Memo(Cell::new(EMPTY_WINDOW)),
        }
    }

    /// Compiles the basic block starting at `entry`, or `None` when the
    /// first instruction is unfetchable/undecodable (the caller falls
    /// back to [`Machine::step`], which faults identically), lives in
    /// MMIO space, or was rewritten while compiled.
    fn compile_block(&self, entry: u32) -> Option<TBlock> {
        let observed = self.mpu.traced() || self.mpu.log_enabled();
        let mut ops: Vec<TOp> = Vec::new();
        let mut pc = entry;
        let mut prefix = 0;
        loop {
            if ops.len() >= MAX_OPS {
                break;
            }
            // Stop before firmware-trap addresses: reaching one must
            // re-enter the run loop, which returns `FirmwareTrap`
            // before executing the (virtual) instruction there.
            if pc != entry && self.trap_hit(pc) {
                break;
            }
            let Ok(fetched) = self.ram.fetch(pc) else {
                // Unfetchable or undecodable: end the block here; if
                // execution actually reaches this pc the step fallback
                // raises the identical fault.
                break;
            };
            let fallthrough = pc + fetched.size;
            if self.tcache.rewritten.any(pc, fallthrough - 1) {
                // Rewritten code runs through the step fallback of the
                // run loop (see `TransState::rewritten`).
                break;
            }
            let instr = &fetched.instr;
            let (cost_not_taken, cost_taken) = (
                self.cycle_model.cost(instr, false),
                self.cycle_model.cost(instr, true),
            );
            if matches!(instr, Instr::Int { .. } | Instr::Iret)
                || cost_not_taken.max(cost_taken) > MAX_OP_COST
            {
                // Interrupt machinery (frames, resume latches, IRQ
                // trace spans) runs through the shared step path, as
                // does a cost too large to hold.
                ops.push(TOp::step_fallback(pc, instr));
                pc = fallthrough;
                break;
            }
            let mut op = self.compile_op(pc, fallthrough, instr, observed);
            // Both costs are at most `MAX_OP_COST`.
            op.cost_not_taken = cost_not_taken as u32;
            op.cost_taken = cost_taken as u32;
            op.prefix = prefix;
            prefix += op.cost_not_taken;
            ops.push(op);
            pc = fallthrough;
            if ends_block(instr) {
                break;
            }
        }
        // Triples fuse only in the body: the last op runs on its own.
        for i in 3..ops.len() {
            ops[i - 3].fused = fuses(&ops[i - 3], &ops[i - 2], &ops[i - 1]);
        }
        let (last, body) = ops.split_last()?;
        let max_cost = u64::from(last.prefix + last.cost_taken.max(last.cost_not_taken));
        let exact_only = last.kind == OpKind::Step
            || body.iter().any(|op| !matches!(op.pre_ft, PreCheck::Quiet));
        Some(TBlock {
            entry,
            end: pc,
            max_cost,
            exact_only,
            ops,
        })
    }

    /// Compiles one instruction; `compile_block` fills in its costs and
    /// prefix.
    fn compile_op(&self, pc: u32, fallthrough: u32, instr: &Instr, observed: bool) -> TOp {
        let mut op = TOp {
            kind: OpKind::Nop,
            a: 0,
            b: 0,
            cond: Cond::Z,
            class: instr_class(instr) as u8,
            pc,
            fallthrough,
            target: 0,
            imm: 0,
            cost_not_taken: 0,
            cost_taken: 0,
            prefix: 0,
            pre_ft: self.resolve_edge(pc, Some(fallthrough), observed),
            pre_br: PreCheck::Quiet,
            access: AccessMode::Quiet,
            fused: false,
        };
        let reg = |r: Reg| r.index() as u8;
        op.kind = match *instr {
            Instr::Nop => OpKind::Nop,
            Instr::Hlt => OpKind::Hlt,
            Instr::MovReg { rd, rs } => {
                (op.a, op.b) = (reg(rd), reg(rs));
                OpKind::MovReg
            }
            Instr::MovImm { rd, imm } => {
                (op.a, op.imm) = (reg(rd), imm);
                OpKind::MovImm
            }
            Instr::AddImm { rd, imm } => {
                (op.a, op.imm) = (reg(rd), imm as i32 as u32);
                OpKind::AddImm
            }
            Instr::CmpImm { rd, imm } => {
                (op.a, op.imm) = (reg(rd), imm as i32 as u32);
                OpKind::CmpImm
            }
            Instr::Add { rd, rs }
            | Instr::Sub { rd, rs }
            | Instr::Mul { rd, rs }
            | Instr::And { rd, rs }
            | Instr::Or { rd, rs }
            | Instr::Xor { rd, rs }
            | Instr::Shl { rd, rs }
            | Instr::Shr { rd, rs }
            | Instr::Cmp { rd, rs } => {
                (op.a, op.b) = (reg(rd), reg(rs));
                match *instr {
                    Instr::Add { .. } => OpKind::Add,
                    Instr::Sub { .. } => OpKind::Sub,
                    Instr::Mul { .. } => OpKind::Mul,
                    Instr::And { .. } => OpKind::And,
                    Instr::Or { .. } => OpKind::Or,
                    Instr::Xor { .. } => OpKind::Xor,
                    Instr::Shl { .. } => OpKind::Shl,
                    Instr::Shr { .. } => OpKind::Shr,
                    _ => OpKind::Cmp,
                }
            }
            Instr::Not { rd } => {
                op.a = reg(rd);
                OpKind::Not
            }
            Instr::Ldw { rd, rs, disp }
            | Instr::Ldb { rd, rs, disp }
            | Instr::Stw { rd, rs, disp }
            | Instr::Stb { rd, rs, disp } => {
                (op.a, op.b, op.imm) = (reg(rd), reg(rs), disp as i32 as u32);
                match *instr {
                    Instr::Ldw { .. } => OpKind::Ldw,
                    Instr::Ldb { .. } => OpKind::Ldb,
                    Instr::Stw { .. } => OpKind::Stw,
                    _ => OpKind::Stb,
                }
            }
            Instr::Push { rs } => {
                op.b = reg(rs);
                OpKind::Push
            }
            Instr::Pop { rd } => {
                op.a = reg(rd);
                OpKind::Pop
            }
            Instr::Sti => OpKind::Sti,
            Instr::Cli => OpKind::Cli,
            Instr::Jmp { target } => {
                op.target = target;
                OpKind::Jmp
            }
            Instr::Jcc { cond, target } => {
                (op.cond, op.target) = (cond, target);
                OpKind::Jcc
            }
            Instr::JmpReg { rs } => {
                op.b = reg(rs);
                OpKind::JmpReg
            }
            Instr::Call { target } => {
                op.target = target;
                OpKind::Call
            }
            Instr::Ret => OpKind::Ret,
            // Compiled via the step fallback, never through here.
            Instr::Int { .. } | Instr::Iret => unreachable!("step-fallback instruction"),
        };
        let to = match op.kind {
            OpKind::Jmp | OpKind::Jcc | OpKind::Call => Some(Some(op.target)),
            // Dynamic target.
            OpKind::JmpReg | OpKind::Ret => Some(None),
            _ => None,
        };
        if let Some(to) = to {
            op.pre_br = self.resolve_edge(pc, to, observed);
        }
        if op.kind.touches_memory() {
            op.access = self.resolve_access(observed);
        }
        op
    }

    /// Executes at `self.eip`: a cached block, or a block compiled now
    /// on the entry's second arrival. A first arrival only runs one
    /// [`Machine::step`], so code that runs once (boot and load paths,
    /// straight-line setup) never pays for a compile; a single step also
    /// runs wherever no block can start.
    ///
    /// A first arrival leaves a mark unless `fell_in`: control came by
    /// falling through the non-terminator `step` ran last, so `EIP` is
    /// the middle of a straight line, and a mark per stepped instruction
    /// would flood the map. Returns whether the next arrival falls in so.
    fn exec_at(
        &mut self,
        blocks: &mut BlockMap,
        step_limit: u64,
        fell_in: bool,
    ) -> Result<bool, Fault> {
        let eip = self.eip;
        match blocks.get_mut(&eip) {
            Some(Some(block)) => {
                if let Some(t) = &self.trace {
                    t.tracer.counters().incr(t.block_hit);
                }
                exec_block(self, block, step_limit)?;
                return Ok(false);
            }
            Some(slot) => {
                if let Some(block) = self.compile_block(eip) {
                    if let Some(t) = &self.trace {
                        let fused = block.ops.iter().filter(|op| op.fused).count();
                        t.tracer.counters().incr(t.block_compile);
                        t.tracer.counters().add(t.block_fused, fused as u64);
                    }
                    self.tcache.code.set(block.entry, block.end - 1, true);
                    exec_block(self, slot.insert(block), step_limit)?;
                    return Ok(false);
                }
            }
            None if !fell_in => {
                if blocks.len() >= MAX_BLOCKS {
                    blocks.clear();
                    self.tcache.code.clear();
                }
                blocks.insert(eip, None);
            }
            None => {}
        }
        let instr = self.step_retired()?;
        Ok(!ends_block(&instr) && !matches!(instr, Instr::Int { .. }))
    }

    /// The translated run loop: boundary-identical to
    /// [`Machine::run_legacy`], batching between boundaries where nothing
    /// external can intervene — no device due, no deliverable IRQ, no
    /// trap, budget remaining — so skipping the legacy loop's checks
    /// there is unobservable. Batches execute blocks whenever no IRQ is
    /// pending, and single steps otherwise.
    pub(crate) fn run_translated(&mut self, max_cycles: u64) -> Event {
        self.revalidate_translations();
        // Move the block map out of `self` for the duration of the run:
        // a block must stay borrowed while its handlers mutate the
        // machine, so it cannot live inside the machine meanwhile. The
        // code bitmap and dirty queue stay behind for the write hooks.
        let mut blocks = std::mem::take(&mut self.tcache.blocks);
        let event = self.run_translated_inner(max_cycles, &mut blocks);
        self.tcache.blocks = blocks;
        event
    }

    fn run_translated_inner(&mut self, max_cycles: u64, blocks: &mut BlockMap) -> Event {
        debug_assert_eq!(self.engine, EngineKind::Translated);
        let deadline = self.clock.saturating_add(max_cycles);
        // Whether control reaches `EIP` by falling through a stepped
        // instruction (see `exec_at`); run entry and interrupt dispatch
        // arrive otherwise.
        let mut fell_in = false;
        loop {
            if self.device_deadline_dirty {
                self.recompute_device_deadline();
            }
            if self.clock >= self.device_deadline {
                self.poll_devices();
                self.recompute_device_deadline();
            }

            if self.interrupts_enabled() {
                if let Some(&vector) = self.pending_irqs.iter().next() {
                    self.pending_irqs.remove(&vector);
                    let origin = self.eip;
                    fell_in = false;
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
                // Only a device poll or the budget can end a halt (the
                // delivery check above already failed), so cross the
                // idle stretch in one move: to the first 8-cycle step at
                // or past the earlier of the two, and always at least one
                // step — the clock value the legacy loop's `+= 8` turns
                // reach first. Saturating only matters for a core that
                // can never wake under an unbounded budget.
                let target = deadline.min(self.device_deadline);
                let steps = target.saturating_sub(self.clock).div_ceil(8).max(1);
                let idle = steps.saturating_mul(8).min(u64::MAX - self.clock);
                self.clock += idle;
                if let Some(o) = &self.observer {
                    o.idle(idle);
                }
                if self.clock >= deadline {
                    return Event::IdleBudgetExhausted;
                }
                continue;
            }

            if self.clock >= deadline {
                return Event::BudgetExhausted;
            }

            let step_limit = deadline.min(self.device_deadline);
            if !self.pending_irqs.is_empty() {
                // An IRQ is latched but masked: `Sti` anywhere makes it
                // deliverable at the very next boundary, which a block
                // cannot honour mid-run. Step one instruction at a time
                // until the set drains.
                fell_in = false;
                loop {
                    if let Err(fault) = self.step() {
                        self.stats.faults += 1;
                        self.note_fault();
                        return Event::Fault(fault);
                    }
                    if self.halted
                        || self.device_deadline_dirty
                        || self.clock >= step_limit
                        || self.interrupts_enabled()
                        || self.trap_hit(self.eip)
                    {
                        break;
                    }
                }
            } else {
                // No pending IRQ, and none can appear before the next
                // poll boundary (devices raise IRQs only when polled),
                // so `Sti`/`Cli` inside a block are unobservable and
                // only the remaining batch-break conditions matter.
                loop {
                    self.drain_dirty(blocks);
                    match self.exec_at(blocks, step_limit, fell_in) {
                        Ok(next_fell_in) => fell_in = next_fell_in,
                        Err(fault) => {
                            self.stats.faults += 1;
                            self.note_fault();
                            return Event::Fault(fault);
                        }
                    }
                    if self.halted
                        || self.device_deadline_dirty
                        || !self.tcache.dirty.is_empty()
                        || self.clock >= step_limit
                        || self.trap_hit(self.eip)
                    {
                        break;
                    }
                }
            }
        }
    }
}

/// Records a taken edge in the control-flow monitor, if one is attached.
#[inline]
fn record_edge(m: &mut Machine, from: u32, to: u32) {
    if let Some(monitor) = &mut m.cf_monitor {
        monitor.record(from, to);
    }
}

/// The epilogue transfer check of one retired op.
#[inline]
fn apply_pre(m: &mut Machine, op: &TOp, pre: PreCheck, next: u32) -> Result<(), Fault> {
    match pre {
        PreCheck::Quiet => Ok(()),
        PreCheck::Replay(decision) => {
            m.mpu.replay_transfer(op.pc, next, decision);
            if let TransferDecision::DeniedMidRegion { expected_entry } = decision {
                return Err(Fault::MpuTransfer {
                    from: op.pc,
                    to: next,
                    expected_entry,
                });
            }
            Ok(())
        }
        PreCheck::Dynamic => m.check_transfer(op.pc, next),
    }
}

/// Whether `load`, `alu`, `store` form a load-op-store triple:
/// `ldw rX, [rB+d]`, an op whose only effects are on `rX` and the flags,
/// then `stw [rB+d], rX`, with `rB != rX`, so the store writes the word
/// the load read.
fn fuses(load: &TOp, alu: &TOp, store: &TOp) -> bool {
    let (x, base) = (load.a, load.b);
    load.kind == OpKind::Ldw
        && x != base
        && alu.kind.writes_only_rd()
        && alu.a == x
        && store.kind == OpKind::Stw
        && (store.a, store.b, store.imm) == (base, x, load.imm)
}

/// Whether the batch must end before the next block: a device deadline
/// moved or an SMC range is queued. Only memory ops can cause either.
#[inline(always)]
fn batch_broken(m: &Machine) -> bool {
    m.device_deadline_dirty || !m.tcache.dirty.is_empty()
}

/// Runs `block` until it ends, faults, or hits a batch-break condition,
/// re-entering it while its terminator lands back on its own entry. On
/// `Err` the machine's `EIP` is exactly where [`Machine::step`] would
/// leave it: at the faulting op's `pc` for compiled ops, and wherever
/// `step` itself leaves it for the step fallback — which *does* advance
/// `EIP` before a faulting `Int` dispatch.
///
/// Each pass takes one of two loops:
///
/// - **Budgeted** ([`run_budgeted`]): with no tracer and no observer
///   attached, in a block that needs no exact pass, and when the pass's
///   worst-case charge stays below `step_limit`. No op can reach the
///   step limit, so the body runs without per-op clock, retirement or
///   `EIP` bookkeeping, fused triples run in one step, and a chain's
///   back edges are recorded once.
/// - **Exact** ([`run_exact`]): everything else — observation, a pass
///   that could reach `step_limit`, a step-fallback op, a fall-through
///   check to perform.
///
/// **Self-loop chaining.** When the block's terminator lands back on
/// its own entry and no batch-break condition fired, the block is
/// re-entered directly; unobserved only, since a tracer counts every
/// block hit. Sound because every condition the batch loop would
/// re-check is already known clear: not halted (`Hlt` exits via
/// `next != entry`), no dirty ranges and no device-deadline movement
/// (both loops break on them after every memory op), budget remaining
/// (the budgeted loop cannot reach it, the exact one checks per op), no
/// firmware trap at the entry (the trap set cannot change mid-run, and
/// the entry was vetted when the block was first entered), and no
/// deliverable IRQ (none was pending, and devices only raise at poll
/// boundaries, which sit past `step_limit`).
fn exec_block(m: &mut Machine, block: &TBlock, step_limit: u64) -> Result<(), Fault> {
    let unobserved = m.trace.is_none() && m.observer.is_none();
    let budgeted = unobserved && !block.exact_only;
    loop {
        let again = if budgeted && m.clock.saturating_add(block.max_cost) < step_limit {
            run_budgeted(m, block, step_limit)?
        } else {
            run_exact(m, block, step_limit)?
        };
        if !(again && unobserved) {
            return Ok(());
        }
    }
}

/// Passes of `block` whose every charge stays below `step_limit`,
/// chained while the block loops back to its entry with budget for
/// another. The clock and the retirement count live in locals across
/// the passes. Memory ops set the machine clock to the pass's entry
/// clock plus their prefix first, because a device access observes it;
/// a fused triple that stays in RAM skips that store, since RAM observes
/// no clock. Wherever the passes stop — a fault, a batch break, the
/// block's exit or the budget — the clock, the retirement count and
/// `EIP` are rebuilt from the stopping op's prefix and index, and the
/// chain's inline back edges are recorded, all at once. The last op,
/// the only one that can be taken, runs with its epilogue through
/// [`run_last`]. Returns whether the block may chain on: it ended on its
/// entry with no batch break.
///
/// A pass that loops back took its last op, so it charges `last.prefix
/// + last.cost_taken`: how many passes start more than `max_cost` short
/// of `step_limit` is known on entry, and the passes count down from it.
#[inline(always)]
fn run_budgeted(m: &mut Machine, block: &TBlock, step_limit: u64) -> Result<bool, Fault> {
    let (last, body) = block.ops.split_last().expect("a block holds an op");
    let mut entry = m.clock;
    let mut retired = 0;
    // Pass `k` starts at `entry + k * lap`; the caller checked pass 0.
    let lap = u64::from(last.prefix + last.cost_taken);
    let slack = step_limit - entry - block.max_cost - 1;
    let mut passes = slack.checked_div(lap).map_or(u64::MAX, |k| k + 1);
    // Back edges `last` took inline and the monitor has yet to record.
    let mut edges = 0;
    let settle = |m: &mut Machine, clock: u64, retired: u64, eip: u32, edges: u64| {
        m.clock = clock;
        m.stats.instructions += retired;
        m.eip = eip;
        if edges > 0 {
            if let Some(monitor) = &mut m.cf_monitor {
                monitor.record_repeat(last.pc, last.target, edges);
            }
        }
    };
    loop {
        let mut ops = body.iter().enumerate();
        while let Some((i, op)) = ops.next() {
            if !op.kind.touches_memory() {
                // Register-only ops cannot fault.
                let _ = exec_op(m, op);
                continue;
            }
            if op.fused && run_fused(m, op, &body[i + 1], &body[i + 2]) {
                let store = &body[i + 2];
                if batch_broken(m) {
                    let clock = entry + u64::from(store.prefix + store.cost_not_taken);
                    settle(m, clock, retired + i as u64 + 3, store.fallthrough, edges);
                    return Ok(false);
                }
                ops.nth(1);
                continue;
            }
            let clock = entry + u64::from(op.prefix);
            m.clock = clock;
            if let Err(fault) = exec_op(m, op) {
                settle(m, clock, retired + i as u64, op.pc, edges);
                return Err(fault);
            }
            if batch_broken(m) {
                let clock = clock + u64::from(op.cost_not_taken);
                settle(m, clock, retired + i as u64 + 1, op.fallthrough, edges);
                return Ok(false);
            }
        }
        let clock = entry + u64::from(last.prefix);
        if last.kind.touches_memory() {
            m.clock = clock;
        }
        let (next, cost) = match run_last(m, last, &mut edges) {
            Ok(exit) => exit,
            Err(fault) => {
                settle(m, clock, retired + body.len() as u64, last.pc, edges);
                return Err(fault);
            }
        };
        entry = clock + u64::from(cost);
        retired += block.ops.len() as u64;
        passes -= 1;
        let again = next == block.entry && !(last.kind.touches_memory() && batch_broken(m));
        debug_assert!(next != block.entry || u64::from(cost) + u64::from(last.prefix) == lap);
        if !again || passes == 0 {
            settle(m, entry, retired, next, edges);
            return Ok(again);
        }
    }
}

/// Runs the load-op-store triple `load`, `alu`, `store` in one step, or
/// returns `false` having done nothing: when either access needs a check
/// call, or the word is not in RAM. The ops are those of
/// [`exec_op`] in order, minus the machine-clock store, which only a
/// device would observe. The caller checks for a batch break, as after
/// the store it replaces.
#[inline(always)]
fn run_fused(m: &mut Machine, load: &TOp, alu: &TOp, store: &TOp) -> bool {
    let addr = m.regs[usize::from(load.b & 7)].wrapping_add(load.imm);
    if !(allowed_inline(load, addr) && allowed_inline(store, addr)) {
        return false;
    }
    let Some(word) = m.ram.read_word(addr) else {
        return false;
    };
    let x = usize::from(load.a & 7);
    m.regs[x] = word;
    // Register-only: cannot fault.
    let _ = exec_op(m, alu);
    let stored = m.ram.write_word(addr, m.regs[x]);
    debug_assert!(stored, "a word read from RAM is writable");
    m.tcache.note_code_write(addr, 4);
    true
}

/// [`run_op`] for the last op of a budgeted pass: a `jmp` or `jcc` with
/// no edge to check, what ends most loops, runs inline and counts its
/// taken edge in `edges` for the caller to record; everything else
/// calls out, which keeps the budgeted loop's hot code small.
#[inline(always)]
fn run_last(m: &mut Machine, op: &TOp, edges: &mut u64) -> Result<(u32, u32), Fault> {
    let quiet = matches!(op.pre_br, PreCheck::Quiet);
    match op.kind {
        OpKind::Jmp if quiet => {}
        OpKind::Jcc if quiet && matches!(op.pre_ft, PreCheck::Quiet) => {
            if !op.cond.holds(m.eflags) {
                return Ok((op.fallthrough, op.cost_not_taken));
            }
        }
        _ => return run_op_call(m, op),
    }
    *edges += 1;
    Ok((op.target, op.cost_taken))
}

/// [`run_op`], out of line.
#[inline(never)]
fn run_op_call(m: &mut Machine, op: &TOp) -> Result<(u32, u32), Fault> {
    run_op(m, op)
}

/// One pass of `block` that retires op by op, with per-op clock/stat
/// updates, class counters and observer callbacks, exactly as
/// [`Machine::step`] does them, stopping after the op that reaches
/// `step_limit`. Returns whether the pass may chain, as
/// [`run_budgeted`] does. Kept out of line, so the budgeted loop
/// compiles on its own.
#[inline(never)]
fn run_exact(m: &mut Machine, block: &TBlock, step_limit: u64) -> Result<bool, Fault> {
    for op in &block.ops {
        debug_assert_eq!(m.eip, op.pc);
        if op.kind == OpKind::Step {
            m.step()?;
            return Ok(false);
        }
        let (next, cost) = run_op(m, op)?;
        let cost = u64::from(cost);
        m.clock += cost;
        m.stats.instructions += 1;
        if let Some(t) = &m.trace {
            t.tracer.counters().incr(t.class[op.class as usize]);
        }
        if let Some(o) = &m.observer {
            o.instruction(op.pc, cost);
        }
        m.eip = next;
        if m.clock >= step_limit || (op.kind.touches_memory() && batch_broken(m)) {
            return Ok(false);
        }
    }
    Ok(m.eip == block.entry)
}

/// Executes one op up to its accounting, as [`Machine::step`] does:
/// the op, its epilogue transfer check, and the record of a taken edge.
/// Returns the next `EIP` and the cycles the op charges. On `Err` the
/// clock, the counters and `EIP` are as they were.
#[inline(always)]
fn run_op(m: &mut Machine, op: &TOp) -> Result<(u32, u32), Fault> {
    let (next, taken) = match op.kind {
        OpKind::Jmp => (op.target, true),
        OpKind::Jcc if op.cond.holds(m.eflags) => (op.target, true),
        OpKind::Jcc => (op.fallthrough, false),
        OpKind::JmpReg => (m.regs[usize::from(op.b & 7)], true),
        OpKind::Call => {
            let sp = m.regs[Reg::SP.index()].wrapping_sub(4);
            access_check(m, op, sp, AccessKind::Write)?;
            m.push_word(op.fallthrough)?;
            (op.target, true)
        }
        OpKind::Ret => {
            access_check(m, op, m.regs[Reg::SP.index()], AccessKind::Read)?;
            (m.pop_word()?, true)
        }
        _ => {
            exec_op(m, op)?;
            (op.fallthrough, false)
        }
    };
    let (pre, cost) = if taken {
        (op.pre_br, op.cost_taken)
    } else {
        (op.pre_ft, op.cost_not_taken)
    };
    apply_pre(m, op, pre, next)?;
    if taken {
        record_edge(m, op.pc, next);
    }
    Ok((next, cost))
}

/// Executes an op that falls through: every kind but the transfers and
/// the step fallback. Each arm reproduces the matching arm of
/// [`Machine::step`]; the caller does the epilogue. Word loads and
/// stores and every register-only kind, what guest loops retire, are
/// dispatched here; byte and stack accesses go through the out-of-line
/// [`exec_other`], so the block loops' hot code stays small.
#[inline(always)]
fn exec_op(m: &mut Machine, op: &TOp) -> Result<(), Fault> {
    // Register indices are below 8; the mask drops the bounds checks.
    let (a, b) = (usize::from(op.a & 7), usize::from(op.b & 7));
    match op.kind {
        OpKind::Ldw => {
            let addr = m.regs[b].wrapping_add(op.imm);
            access_check(m, op, addr, AccessKind::Read)?;
            m.regs[a] = m.read_word(addr)?;
        }
        OpKind::Stw => {
            let addr = m.regs[a].wrapping_add(op.imm);
            access_check(m, op, addr, AccessKind::Write)?;
            m.write_word(addr, m.regs[b])?;
        }
        OpKind::AddImm => {
            let (v, c) = m.regs[a].overflowing_add(op.imm);
            m.regs[a] = v;
            m.set_arith_flags(v, c);
        }
        OpKind::Nop => {}
        OpKind::Hlt => m.halted = true,
        OpKind::MovReg => m.regs[a] = m.regs[b],
        OpKind::MovImm => m.regs[a] = op.imm,
        OpKind::Add => {
            let (v, c) = m.regs[a].overflowing_add(m.regs[b]);
            m.regs[a] = v;
            m.set_arith_flags(v, c);
        }
        OpKind::Sub => {
            let (v, borrow) = m.regs[a].overflowing_sub(m.regs[b]);
            m.regs[a] = v;
            m.set_arith_flags(v, borrow);
        }
        OpKind::Mul => {
            let v = m.regs[a].wrapping_mul(m.regs[b]);
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::And => {
            let v = m.regs[a] & m.regs[b];
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::Or => {
            let v = m.regs[a] | m.regs[b];
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::Xor => {
            let v = m.regs[a] ^ m.regs[b];
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::Not => {
            let v = !m.regs[a];
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::Shl => {
            let v = m.regs[a] << (m.regs[b] & 31);
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::Shr => {
            let v = m.regs[a] >> (m.regs[b] & 31);
            m.regs[a] = v;
            m.set_zs_flags(v);
        }
        OpKind::Cmp => {
            let (v, borrow) = m.regs[a].overflowing_sub(m.regs[b]);
            m.set_arith_flags(v, borrow);
        }
        OpKind::CmpImm => {
            let (v, borrow) = m.regs[a].overflowing_sub(op.imm);
            m.set_arith_flags(v, borrow);
        }
        OpKind::Sti => m.eflags |= sp32::EFLAGS_IF,
        OpKind::Cli => m.eflags &= !sp32::EFLAGS_IF,
        _ => return exec_other(m, op),
    }
    Ok(())
}

/// [`exec_op`] for byte and stack accesses.
#[inline(never)]
fn exec_other(m: &mut Machine, op: &TOp) -> Result<(), Fault> {
    // Register indices are below 8; the mask drops the bounds checks.
    let (a, b) = (usize::from(op.a & 7), usize::from(op.b & 7));
    match op.kind {
        OpKind::Ldb => {
            let addr = m.regs[b].wrapping_add(op.imm);
            access_check(m, op, addr, AccessKind::Read)?;
            m.regs[a] = u32::from(m.read_byte(addr)?);
        }
        OpKind::Stb => {
            let addr = m.regs[a].wrapping_add(op.imm);
            access_check(m, op, addr, AccessKind::Write)?;
            m.write_byte(addr, m.regs[b] as u8)?;
        }
        OpKind::Push => {
            let sp = m.regs[Reg::SP.index()].wrapping_sub(4);
            access_check(m, op, sp, AccessKind::Write)?;
            m.push_word(m.regs[b])?;
        }
        OpKind::Pop => {
            access_check(m, op, m.regs[Reg::SP.index()], AccessKind::Read)?;
            m.regs[a] = m.pop_word()?;
        }
        _ => unreachable!("inline, transfer and step kinds run elsewhere"),
    }
    Ok(())
}

/// The data-access check of a memory op: inline where
/// [`allowed_inline`] holds, out of line for the rest.
#[inline(always)]
fn access_check(m: &mut Machine, op: &TOp, addr: u32, kind: AccessKind) -> Result<(), Fault> {
    if allowed_inline(op, addr) {
        return Ok(());
    }
    access_check_call(m, op, addr, kind)
}

/// Whether `op` may access `addr` with no check call: its mode checks
/// nothing, or its memoised window holds the address.
#[inline(always)]
fn allowed_inline(op: &TOp, addr: u32) -> bool {
    match &op.access {
        AccessMode::Quiet => true,
        AccessMode::Memo(window) => {
            let (lo, hi) = window.get();
            lo <= addr && addr <= hi
        }
        _ => false,
    }
}

/// [`access_check`] for an access that needs a call.
#[inline(never)]
fn access_check_call(m: &mut Machine, op: &TOp, addr: u32, kind: AccessKind) -> Result<(), Fault> {
    match &op.access {
        AccessMode::Quiet => Ok(()),
        AccessMode::Replay => {
            m.mpu
                .replay_access(op.pc, addr, kind, AccessDecision::AllowedUnprotected);
            Ok(())
        }
        AccessMode::Checked => m.check(op.pc, addr, kind),
        AccessMode::Memo(window) => check_and_memoise(m, op.pc, window, addr, kind),
    }
}

/// The miss side of [`AccessMode::Memo`]: the live check, then the
/// window the EA-MPU latched for it. A denial faults and leaves the
/// window as it was; with the decision cache off the window stays empty
/// and every access is checked.
#[inline(never)]
fn check_and_memoise(
    m: &Machine,
    pc: u32,
    window: &Cell<Window>,
    addr: u32,
    kind: AccessKind,
) -> Result<(), Fault> {
    m.check(pc, addr, kind)?;
    window.set(m.mpu.latched_allow(pc, kind).unwrap_or(EMPTY_WINDOW));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use sp32::asm::assemble;
    use std::sync::Arc;
    use tytan_trace::{RingRecorder, Tracer};

    fn bare(source: &str) -> Machine {
        let mut m = Machine::new(MachineConfig {
            engine: EngineKind::Translated,
            ..MachineConfig::default()
        });
        let program = assemble(source, 0x1000).expect("assemble");
        m.load_image(0x1000, &program.bytes).expect("load");
        m.set_eip(0x1000);
        m
    }

    fn translated(source: &str) -> (Machine, Tracer) {
        let mut m = bare(source);
        let tracer = Tracer::new(Arc::new(RingRecorder::new(64)));
        m.attach_tracer(tracer.clone());
        (m, tracer)
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_threaded_op_stays_80_bytes() {
        // The memoised window lives inside `AccessMode`, not beside it,
        // and `Jcc`'s condition inside the one-byte op kind.
        assert_eq!(std::mem::size_of::<AccessMode>(), 12);
        assert_eq!(std::mem::size_of::<OpKind>(), 1);
        assert_eq!(std::mem::size_of::<TOp>(), 80);
    }

    /// The distinct access windows of memoising ops, by pc (blocks that
    /// overlap hold a copy of their shared ops each).
    fn windows(m: &Machine) -> Vec<(u32, Window)> {
        let mut windows: Vec<_> = m
            .tcache
            .blocks
            .values()
            .flatten()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match &op.access {
                AccessMode::Memo(window) => Some((op.pc, window.get())),
                _ => None,
            })
            .collect();
        windows.sort_unstable();
        windows.dedup();
        windows
    }

    #[test]
    fn unobserved_ops_under_rules_memoise_their_allowed_window() {
        let secure_task = |traced: bool, cache: bool| {
            let source = "main:\n movi r1, 0x9000\n\
                          loop:\n ldw r3, [r1]\n addi r3, 1\n stw [r1], r3\n jmp loop\n";
            let mut m = if traced {
                translated(source).0
            } else {
                bare(source)
            };
            m.set_mpu_enabled(true);
            m.mpu_mut().set_decision_cache_enabled(cache);
            m.mpu_mut().set_rule(
                0,
                eampu::Rule::new(
                    eampu::Region::new(0x1000, 0x100),
                    0x1000,
                    eampu::Region::new(0x9000, 0x100),
                    eampu::Perms::RW,
                ),
            );
            m.run(1_000);
            m
        };
        // Bare: the load and the store each hold the rule's data region.
        let mut m = secure_task(false, true);
        assert_eq!(
            windows(&m),
            vec![(0x1008, (0x9000, 0x90ff)), (0x1010, (0x9000, 0x90ff))]
        );
        assert!(m.read_word(0x9000).unwrap() > 10, "loop did not run");
        // Cache off: the same ops memoise nothing, so every access is
        // checked.
        let m = secure_task(false, false);
        assert_eq!(
            windows(&m),
            vec![(0x1008, EMPTY_WINDOW), (0x1010, EMPTY_WINDOW)]
        );
        // Traced: checked, never memoised.
        assert_eq!(windows(&secure_task(true, true)), vec![]);
    }

    #[test]
    fn only_load_op_store_triples_before_the_terminator_fuse() {
        // Each loop compiles one block; `fused` lists the indices of the
        // ops marked as triple heads.
        let cases = [
            ("ldw r2, [r1]\n addi r2, 1\n stw [r1], r2", vec![0]),
            ("ldw r3, [r1+8]\n add r3, r2\n stw [r1+8], r3\n addi r2, 1", vec![0]),
            ("nop\n ldw r3, [r1]\n not r3\n stw [r1], r3\n ldw r3, [r1]\n shl r3, r2\n stw [r1], r3", vec![1, 4]),
            // The base is the destination; the store is one word off;
            // the middle op writes another register or none.
            ("ldw r1, [r1]\n addi r1, 4\n stw [r1], r1", vec![]),
            ("ldw r2, [r1]\n addi r2, 1\n stw [r1+4], r2", vec![]),
            ("ldw r2, [r1]\n addi r3, 1\n stw [r1], r2", vec![]),
            ("ldw r2, [r1]\n cmpi r2, 1\n stw [r1], r2", vec![]),
            ("ldw r2, [r1]\n addi r2, 1\n stw [r2], r1", vec![]),
        ];
        let looped = |body: &str| {
            let source = format!("main:\n movi r1, 0x9000\n jmp loop\nloop:\n{body} jmp loop\n");
            let entry = assemble(&source, 0x1000).expect("assemble").symbols["loop"];
            let (mut m, tracer) = translated(&source);
            m.run(2_000);
            (m, tracer, entry)
        };
        for (body, fused) in cases {
            let (m, tracer, entry) = looped(&format!(" {body}\n"));
            let block = m.tcache.blocks[&entry].as_ref().expect("compiled");
            let heads: Vec<usize> = (0..block.ops.len())
                .filter(|&i| block.ops[i].fused)
                .collect();
            assert_eq!(heads, fused, "{body}");
            let counted = tracer.counters().get("emu_block_fused");
            assert_eq!(counted, Some(fused.len() as u64), "{body}");
        }
        // A triple that ends the block, here at `MAX_OPS`, is its last op,
        // which runs on its own.
        let (m, _, entry) = looped(&format!(
            "{} ldw r2, [r1]\n addi r2, 1\n stw [r1], r2\n",
            " nop\n".repeat(MAX_OPS - 3)
        ));
        let block = m.tcache.blocks[&entry].as_ref().expect("compiled");
        assert_eq!(block.ops.len(), MAX_OPS);
        assert!(block.ops.iter().all(|op| !op.fused));
    }

    #[test]
    fn data_stores_beside_code_queue_no_invalidation() {
        // The loop stores to a data word 0x40 bytes past its own code,
        // inside the same 512-byte page, as task data and stacks do.
        let (mut m, tracer) = translated(
            "main:\n movi r1, 0x1040\n movi r2, 0\n\
             loop:\n addi r2, 1\n stw [r1], r2\n cmpi r2, 1000\n jnz loop\n hlt\n",
        );
        m.run(100_000);
        assert!(m.is_halted());
        assert_eq!(m.read_word(0x1040), Ok(1000));
        m.write_word(0x1040, 0).expect("host write");
        assert!(m.tcache.dirty.is_empty(), "a data write was queued as SMC");
        // Only `loop` is entered twice, so it is the one block compiled
        // (`main` and the `hlt` run once, through `step`), and compiled
        // once: no store split it or dropped it.
        let c = tracer.counters();
        assert_eq!(c.get("emu_block_compile"), Some(1));
        assert_eq!(c.get("emu_block_invalidate_smc"), Some(0));
    }

    #[test]
    fn rewritten_code_is_interpreted_not_recompiled() {
        // Every iteration stores `target`'s own encoding back over it.
        let (mut m, tracer) = translated(
            "main:\n movi r1, target\n ldw r2, [r1]\n movi r3, 0\n\
             loop:\ntarget:\n addi r4, 1\n stw [r1], r2\n addi r3, 1\n cmpi r3, 1000\n jnz loop\n hlt\n",
        );
        m.run(1_000_000);
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::R4), 1000);
        // The first store drops the block holding `target`; from then on
        // the rewritten word runs through `step` and no block covers it.
        let c = tracer.counters();
        assert_eq!(c.get("emu_block_invalidate_smc"), Some(1));
        assert!(
            c.get("emu_block_compile").unwrap() < 10,
            "recompiled per rewrite"
        );
    }

    #[test]
    fn zero_length_writes_queue_no_smc_range() {
        let (mut m, _) = translated("main:\n movi r0, 1\n jmp main\n");
        m.run(1_000);
        // `len - 1` of an empty write used to underflow into a
        // whole-address-space range.
        m.write_bytes(0x1000, &[]).expect("empty write");
        m.tcache.note_code_write(u32::MAX, 0);
        assert!(m.tcache.dirty.is_empty());
        // The code really is tracked: a one-byte write into it queues.
        m.write_byte(0x1000, 0).expect("write");
        assert_eq!(m.tcache.dirty, vec![(0x1000, 0x1001)]);
    }

    #[test]
    fn word_writes_probe_exactly_the_words_they_cover() {
        let (mut m, _) = translated("main:\n movi r0, 1\n jmp main\n");
        m.run(1_000);
        let end = m.tcache.blocks[&0x1000].as_ref().expect("compiled").end;
        // Rewrite each word with its own value: only the code words count.
        let mut rewrite = |addr: u32| {
            let word = m.read_word(addr).expect("read");
            m.write_word(addr, word).expect("write");
            std::mem::take(&mut m.tcache.dirty)
        };
        assert_eq!(rewrite(0x0ffc), vec![], "word before the code");
        assert_eq!(rewrite(end), vec![], "word after the code");
        assert_eq!(rewrite(0x1000), vec![(0x1000, 0x1004)]);
        assert_eq!(rewrite(end - 4), vec![(end - 4, end)]);
        // Unaligned words take the range walk.
        assert_eq!(rewrite(end - 2), vec![(end - 2, end + 2)]);
        assert_eq!(rewrite(0x0ffe), vec![(0x0ffe, 0x1002)]);
    }

    #[test]
    fn dropping_a_block_keeps_overlapping_survivors_tracked() {
        // The block at `main` spans the block at `loop`; dropping the
        // first unmarks their shared words, which must be marked again
        // for the survivor. `loop` compiles on its second pass and `main`
        // on its second entry, through the `jmp`.
        let (mut m, _) = translated(
            "main:\n movi r0, 1\nloop:\n addi r2, 1\n cmpi r2, 3\n jnz loop\n jmp main\n",
        );
        m.run(1_000);
        assert!(matches!(m.tcache.blocks.get(&0x1000), Some(Some(_))));
        let word = m.read_word(0x1000).expect("read");
        m.write_word(0x1000, word).expect("rewrite main");
        let mut blocks = std::mem::take(&mut m.tcache.blocks);
        m.drain_dirty(&mut blocks);
        assert!(!blocks.contains_key(&0x1000), "overwritten block survived");
        let loop_entry = 0x1008;
        assert!(matches!(blocks.get(&loop_entry), Some(Some(_))));
        m.tcache.blocks = blocks;
        let word = m.read_word(loop_entry).expect("read");
        m.write_word(loop_entry, word).expect("rewrite loop");
        assert_eq!(m.tcache.dirty, vec![(loop_entry, loop_entry + 4)]);
    }

    #[test]
    fn a_block_compiles_on_its_second_entry_not_its_first() {
        // `main` and the `hlt` run once; `loop` runs twice. Entered by the
        // `jmp`, it compiles on its second entry. Entered by falling
        // through the stepped `movi`, which leaves no mark, it is first
        // marked by the `jnz` back, and two laps compile nothing.
        for (into_loop, compiles) in [(" jmp loop\n", 1), ("", 0)] {
            let source = format!(
                "main:\n movi r1, 0\n{into_loop}loop:\n addi r1, 1\n cmpi r1, 2\n jnz loop\nend:\n hlt\n"
            );
            let (mut m, tracer) = translated(&source);
            m.run(10_000);
            assert!(m.is_halted());
            let program = assemble(&source, 0x1000).expect("assemble");
            let (main, end) = (0x1000, program.symbols["end"]);
            let looped = program.symbols["loop"];
            assert!(
                matches!(m.tcache.blocks.get(&main), Some(None)),
                "main compiled"
            );
            assert!(
                matches!(m.tcache.blocks.get(&end), Some(None)),
                "hlt compiled"
            );
            assert_eq!(
                matches!(m.tcache.blocks.get(&looped), Some(Some(_))),
                compiles == 1
            );
            let c = tracer.counters();
            assert_eq!(c.get("emu_block_compile"), Some(compiles));
            assert_eq!(c.get("emu_block_hit"), Some(0));
            // The interpreted first pass and the compiled second one end
            // in the legacy engine's state.
            let mut legacy = Machine::new(MachineConfig {
                engine: EngineKind::Legacy,
                ..MachineConfig::default()
            });
            legacy.load_image(0x1000, &program.bytes).expect("load");
            legacy.set_eip(0x1000);
            legacy.run(10_000);
            assert_eq!(m.snapshot(), legacy.snapshot());
            assert_eq!(m.ram_digest(), legacy.ram_digest());
        }
    }

    #[test]
    fn once_entered_code_keeps_the_map_within_max_blocks() {
        // The straight line is entered once, at `main`: every later `nop`
        // is reached by falling through a stepped `nop`, so only `main`
        // is marked.
        let source = format!("main:\n{}hlt\n", " nop\n".repeat(MAX_BLOCKS + 100));
        let (mut m, tracer) = translated(&source);
        m.run(1_000_000);
        assert!(m.is_halted());
        assert_eq!(m.stats().instructions, MAX_BLOCKS as u64 + 101);
        assert!(m.tcache.blocks.len() <= MAX_BLOCKS);
        assert_eq!(m.tcache.blocks.len(), 1, "only the run entry is marked");
        assert_eq!(tracer.counters().get("emu_block_compile"), Some(0));
    }

    #[test]
    fn a_loop_longer_than_the_map_compiles() {
        // A marked entry per stepped `nop` would flood the map with more
        // marks than it holds, flush it on every pass, and compile
        // nothing. Marked only at block starts, the body compiles one
        // `MAX_OPS` chunk further each pass, from its entry on.
        let nops = MAX_BLOCKS + 100;
        let source = format!(
            "main:\n movi r1, 0\nloop:\n{} addi r1, 1\n cmpi r1, 80\n jnz loop\n hlt\n",
            " nop\n".repeat(nops)
        );
        let (mut m, tracer) = translated(&source);
        m.run(100_000_000);
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::R1), 80);
        let chunks = (nops + 3).div_ceil(MAX_OPS) as u64;
        assert_eq!(tracer.counters().get("emu_block_compile"), Some(chunks));
        assert!(m.tcache.blocks.len() <= MAX_BLOCKS);
        let program = assemble(&source, 0x1000).expect("assemble");
        let mut legacy = Machine::new(MachineConfig {
            engine: EngineKind::Legacy,
            ..MachineConfig::default()
        });
        legacy.load_image(0x1000, &program.bytes).expect("load");
        legacy.set_eip(0x1000);
        legacy.run(100_000_000);
        assert_eq!(m.snapshot(), legacy.snapshot());
    }

    #[test]
    fn a_block_compiled_after_a_map_flush_sees_stores_over_its_code() {
        // `main` and the hops fill the map with marks, so the mark for
        // `loop` flushes it. `loop` and `patch` then compile, and the
        // store of `hlt` over `patch` must drop its block, as at any
        // other time, for the core to halt when the legacy engine does.
        let hlt = assemble("hlt\n", 0).expect("assemble");
        let hlt_word = u32::from_le_bytes(hlt.bytes[0..4].try_into().expect("a word"));
        let hops: String = (0..MAX_BLOCKS - 1)
            .map(|i| format!("hop{i}:\n jmp hop{}\n", i + 1))
            .collect();
        let source = format!(
            "main:\n movi r1, patch\n movi r2, {hlt_word:#010x}\n movi r3, 0\n jmp hop0\n\
             {hops}hop{}:\n jmp loop\n\
             loop:\n addi r3, 1\n cmpi r3, 40\n jz store\n\
             patch:\n jmp loop\n\
             store:\n stw [r1], r2\n jmp loop\n",
            MAX_BLOCKS - 1
        );
        let (mut m, tracer) = translated(&source);
        m.run(1_000_000);
        assert!(m.is_halted(), "the stale `jmp` kept running");
        assert_eq!(m.reg(Reg::R3), 41);
        let c = tracer.counters();
        assert_eq!(c.get("emu_block_invalidate_smc"), Some(1));
        assert!(m.tcache.blocks.len() < 8, "the map was not flushed");
        let program = assemble(&source, 0x1000).expect("assemble");
        let mut legacy = Machine::new(MachineConfig {
            engine: EngineKind::Legacy,
            ..MachineConfig::default()
        });
        legacy.load_image(0x1000, &program.bytes).expect("load");
        legacy.set_eip(0x1000);
        legacy.run(1_000_000);
        assert_eq!(m.snapshot(), legacy.snapshot());
        assert_eq!(m.ram_digest(), legacy.ram_digest());
    }

    #[test]
    fn a_cost_too_large_for_a_block_runs_through_step() {
        // A load costing more than `MAX_OP_COST` compiles to a step op
        // that ends its block; the legacy engine charges it the same.
        let source = "main:\n movi r1, 0x9000\nloop:\n addi r2, 1\n ldw r3, [r1]\n jmp loop\n";
        let program = assemble(source, 0x1000).expect("assemble");
        let costly = |engine| {
            let mut m = Machine::new(MachineConfig {
                engine,
                cycle_model: crate::CycleModel {
                    mem: MAX_OP_COST + 1,
                    ..crate::CycleModel::default()
                },
                ..MachineConfig::default()
            });
            m.load_image(0x1000, &program.bytes).expect("load");
            m.set_eip(0x1000);
            m
        };
        let (mut m, mut legacy) = (costly(EngineKind::Translated), costly(EngineKind::Legacy));
        for _ in 0..8 {
            assert_eq!(m.run(3 * MAX_OP_COST), legacy.run(3 * MAX_OP_COST));
            assert_eq!(m.snapshot(), legacy.snapshot());
        }
        let block = m.tcache.blocks[&0x1008].as_ref().expect("compiled");
        assert!(block.exact_only);
        assert!(matches!(
            block.ops.iter().map(|op| op.kind).collect::<Vec<_>>()[..],
            [OpKind::AddImm, OpKind::Step]
        ));
    }

    #[test]
    fn bitmap_pages_exist_only_where_code_compiled() {
        let fresh = Machine::new(MachineConfig::default());
        assert_eq!(fresh.smc_bitmap_pages(), 0);
        // Code run once compiles nothing and so marks no page.
        let (mut once, _) = translated("main:\n movi r0, 1\n hlt\n");
        once.run(1_000);
        assert!(once.is_halted());
        assert_eq!(once.smc_bitmap_pages(), 0);
        // A loop compiles into one code page; rewriting it adds the
        // rewritten map's page; a flush drops both.
        let (mut looping, _) = translated("main:\n movi r0, 1\n jmp main\n");
        looping.run(1_000);
        assert_eq!(looping.smc_bitmap_pages(), 1);
        let word = looping.read_word(0x1000).expect("read");
        looping.write_word(0x1000, word).expect("rewrite");
        looping.run(1_000);
        assert_eq!(looping.smc_bitmap_pages(), 2);
        looping.tcache.flush();
        assert_eq!(looping.smc_bitmap_pages(), 0);
    }
}
