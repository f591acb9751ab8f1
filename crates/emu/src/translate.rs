//! The block translation engine ([`EngineKind::Translated`]), the
//! default run loop.
//!
//! Basic blocks are discovered at execution time with the same boundary
//! rules the static linter uses ([`sp32::cfg`]) and "compiled" into
//! threaded code: one [`TOp`] per instruction, holding a handler
//! function pointer, pre-decoded operands, the memoised taken /
//! not-taken cycle costs, and the EA-MPU work pre-resolved under the
//! current configuration. Compiled blocks live in a translation cache
//! keyed by entry address.
//!
//! Cold entries run through [`Machine::step`]: the first arrival at an
//! entry only marks it in the cache and interprets one instruction, and
//! the second arrival compiles the block. Code a device runs once —
//! boot, task load, straight-line setup — so never pays for a compile.
//!
//! # Identity contract
//!
//! The engine is bit-identical to [`Machine::run_legacy`] — every
//! charged cycle, every architectural state transition, every EA-MPU
//! decision-log record, every trace span. Three mechanisms keep it so:
//!
//! - **Boundary preservation.** The outer loop of
//!   [`Machine::run_translated`] performs the legacy loop's poll →
//!   deliver → trap → halt → budget sequence, but polls devices only
//!   at the cached device deadline, which [`Device::next_event`]
//!   guarantees is the first boundary where a poll could matter. Between
//!   boundaries it executes blocks, checking the batch-break conditions
//!   after every retired op. Blocks end at every control transfer and
//!   stop before firmware-trap addresses, so a boundary can never be
//!   crossed mid-block. A halted core crosses its idle stretch in one
//!   move, to the first 8-cycle idle step at or past the earlier of the
//!   device deadline and the budget: the clock value, poll and return
//!   the legacy loop's one-step-per-turn idle reaches, with the same
//!   [`CycleObserver::idle`] total.
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
//! terminator, which the block loop records where [`Machine::step`]
//! does — after the transfer check succeeds.
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
    /// No rules but observed: replay the (always-allowed) record with
    /// the runtime address.
    Replay(AccessDecision),
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

/// How an op hands control back to the block loop.
enum OpExit {
    /// Retired normally: `(next_eip, branch_taken)`. The block loop
    /// runs the shared epilogue (transfer check, cost, counters).
    Cont(u32, bool),
    /// The op ran via [`Machine::step`], which already did its own
    /// epilogue; control may have transferred anywhere, end the block.
    Done,
}

type Handler = fn(&mut Machine, &TOp) -> Result<OpExit, Fault>;

/// One threaded-code op: a handler plus everything it needs, flattened.
pub(crate) struct TOp {
    run: Handler,
    pc: u32,
    fallthrough: u32,
    /// Static branch target (`Jmp`/`Jcc`/`Call`); 0 otherwise.
    target: u32,
    /// First register operand (`rd`).
    a: u8,
    /// Second register operand (`rs`).
    b: u8,
    /// Pre-sign-extended immediate / displacement.
    imm: u32,
    /// Condition for `Jcc` (placeholder elsewhere).
    cond: Cond,
    cost_not_taken: u64,
    cost_taken: u64,
    /// [`instr_class`] index for the per-class retirement counters.
    class: u8,
    /// Whether this op can queue an SMC dirty range or move a device
    /// deadline (memory ops); checked after the op retires.
    may_dirty: bool,
    /// Epilogue check on the not-taken / fall-through edge.
    pre_ft: PreCheck,
    /// Epilogue check on the taken edge.
    pre_br: PreCheck,
    /// Data-access check mode (memory ops).
    access: AccessMode,
    /// True when the op cannot fault, cannot touch memory/devices, and
    /// both edges are [`PreCheck::Quiet`] — eligible for the lean loop,
    /// whose cycle/instruction accounting stays in host registers.
    lean: bool,
}

/// One compiled basic block.
pub(crate) struct TBlock {
    entry: u32,
    /// Exclusive end of the code bytes the block was compiled from.
    end: u32,
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
    #[inline]
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
    #[inline]
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
    #[inline]
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
            (true, false, true) => AccessMode::Replay(AccessDecision::AllowedUnprotected),
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
            if matches!(fetched.instr, Instr::Int { .. } | Instr::Iret) {
                // Interrupt machinery (frames, resume latches, IRQ
                // trace spans) runs through the shared step path.
                ops.push(self.step_fallback_op(pc, &fetched.instr));
                pc = fallthrough;
                break;
            }
            ops.push(self.compile_op(pc, fallthrough, &fetched.instr, observed));
            pc = fallthrough;
            if ends_block(&fetched.instr) {
                break;
            }
        }
        if ops.is_empty() {
            return None;
        }
        Some(TBlock {
            entry,
            end: pc,
            ops,
        })
    }

    fn step_fallback_op(&self, pc: u32, instr: &Instr) -> TOp {
        TOp {
            run: op_step_fallback,
            pc,
            fallthrough: 0,
            target: 0,
            a: 0,
            b: 0,
            imm: 0,
            cond: Cond::Z,
            cost_not_taken: 0,
            cost_taken: 0,
            class: instr_class(instr) as u8,
            may_dirty: true,
            pre_ft: PreCheck::Quiet,
            pre_br: PreCheck::Quiet,
            access: AccessMode::Quiet,
            lean: false,
        }
    }

    fn compile_op(&self, pc: u32, fallthrough: u32, instr: &Instr, observed: bool) -> TOp {
        let ft_edge = self.resolve_edge(pc, Some(fallthrough), observed);
        let mut op = TOp {
            run: op_nop,
            pc,
            fallthrough,
            target: 0,
            a: 0,
            b: 0,
            imm: 0,
            cond: Cond::Z,
            cost_not_taken: self.cycle_model.cost(instr, false),
            cost_taken: self.cycle_model.cost(instr, true),
            class: instr_class(instr) as u8,
            may_dirty: false,
            pre_ft: ft_edge,
            pre_br: PreCheck::Quiet,
            access: AccessMode::Quiet,
            lean: false,
        };
        let mem = |op: &mut TOp| {
            op.may_dirty = true;
            op.access = self.resolve_access(observed);
        };
        match *instr {
            Instr::Nop => op.run = op_nop,
            Instr::Hlt => op.run = op_hlt,
            Instr::MovReg { rd, rs } => {
                op.run = op_mov_reg;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::MovImm { rd, imm } => {
                op.run = op_mov_imm;
                op.a = rd.index() as u8;
                op.imm = imm;
            }
            Instr::Add { rd, rs } => {
                op.run = op_add;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::AddImm { rd, imm } => {
                op.run = op_add_imm;
                op.a = rd.index() as u8;
                op.imm = imm as i32 as u32;
            }
            Instr::Sub { rd, rs } => {
                op.run = op_sub;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::Mul { rd, rs } => {
                op.run = op_mul;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::And { rd, rs } => {
                op.run = op_and;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::Or { rd, rs } => {
                op.run = op_or;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::Xor { rd, rs } => {
                op.run = op_xor;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::Not { rd } => {
                op.run = op_not;
                op.a = rd.index() as u8;
            }
            Instr::Shl { rd, rs } => {
                op.run = op_shl;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::Shr { rd, rs } => {
                op.run = op_shr;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::Cmp { rd, rs } => {
                op.run = op_cmp;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
            }
            Instr::CmpImm { rd, imm } => {
                op.run = op_cmp_imm;
                op.a = rd.index() as u8;
                op.imm = imm as i32 as u32;
            }
            Instr::Ldw { rd, rs, disp } => {
                op.run = op_ldw;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
                op.imm = disp as i32 as u32;
                mem(&mut op);
            }
            Instr::Ldb { rd, rs, disp } => {
                op.run = op_ldb;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
                op.imm = disp as i32 as u32;
                mem(&mut op);
            }
            Instr::Stw { rd, rs, disp } => {
                op.run = op_stw;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
                op.imm = disp as i32 as u32;
                mem(&mut op);
            }
            Instr::Stb { rd, rs, disp } => {
                op.run = op_stb;
                op.a = rd.index() as u8;
                op.b = rs.index() as u8;
                op.imm = disp as i32 as u32;
                mem(&mut op);
            }
            Instr::Jmp { target } => {
                op.run = op_jmp;
                op.target = target;
                op.pre_br = self.resolve_edge(pc, Some(target), observed);
            }
            Instr::Jcc { cond, target } => {
                op.run = op_jcc;
                op.cond = cond;
                op.target = target;
                op.pre_br = self.resolve_edge(pc, Some(target), observed);
            }
            Instr::JmpReg { rs } => {
                op.run = op_jmp_reg;
                op.b = rs.index() as u8;
                op.pre_br = self.resolve_edge(pc, None, observed);
            }
            Instr::Call { target } => {
                op.run = op_call;
                op.target = target;
                op.pre_br = self.resolve_edge(pc, Some(target), observed);
                mem(&mut op);
            }
            Instr::Ret => {
                op.run = op_ret;
                op.pre_br = self.resolve_edge(pc, None, observed);
                mem(&mut op);
            }
            Instr::Push { rs } => {
                op.run = op_push;
                op.b = rs.index() as u8;
                mem(&mut op);
            }
            Instr::Pop { rd } => {
                op.run = op_pop;
                op.a = rd.index() as u8;
                mem(&mut op);
            }
            Instr::Sti => op.run = op_sti,
            Instr::Cli => op.run = op_cli,
            // Compiled via the step fallback, never through here.
            Instr::Int { .. } | Instr::Iret => unreachable!("step-fallback instruction"),
        }
        op.lean = !op.may_dirty
            && matches!(op.pre_ft, PreCheck::Quiet)
            && matches!(op.pre_br, PreCheck::Quiet);
        op
    }

    /// Executes at `self.eip`: a cached block, or a block compiled now
    /// on the entry's second arrival. A first arrival only marks the
    /// entry and runs one [`Machine::step`], so code that runs once (boot
    /// and load paths, straight-line setup) never pays for a compile; a
    /// single step also runs wherever no block can start.
    fn exec_at(&mut self, blocks: &mut BlockMap, step_limit: u64) -> Result<(), Fault> {
        let eip = self.eip;
        match blocks.get_mut(&eip) {
            Some(Some(block)) => {
                if let Some(t) = &self.trace {
                    t.tracer.counters().incr(t.block_hit);
                }
                exec_block(self, block, step_limit)
            }
            Some(slot) => match self.compile_block(eip) {
                Some(block) => {
                    if let Some(t) = &self.trace {
                        t.tracer.counters().incr(t.block_compile);
                    }
                    self.tcache.code.set(block.entry, block.end - 1, true);
                    exec_block(self, slot.insert(block), step_limit)
                }
                None => self.step(),
            },
            None => {
                if blocks.len() >= MAX_BLOCKS {
                    blocks.clear();
                    self.tcache.code.clear();
                }
                blocks.insert(eip, None);
                self.step()
            }
        }
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
                    if let Err(fault) = self.exec_at(blocks, step_limit) {
                        self.stats.faults += 1;
                        self.note_fault();
                        return Event::Fault(fault);
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

/// Runs `block` until it ends, faults, or hits a batch-break condition.
/// On `Err` the machine's `EIP` is exactly where [`Machine::step`] would
/// leave it: compiled handlers never move `EIP` (the epilogue maintains
/// the invariant `EIP == op.pc` while a handler runs, matching `step`'s
/// convention of updating `EIP` only after success), and the step
/// fallback defers to `step` itself — which *does* advance `EIP` before
/// a faulting `Int` dispatch, so the fault path must not roll it back.
///
/// Two refinements keep the hot path hot, neither observable:
///
/// - **Local accounting.** With no tracer and no observer attached, the
///   clock and retirement count accumulate in host registers and are
///   flushed to the machine before any op that could read them (memory
///   ops reach devices, which poll the clock; the step fallback is
///   `step` itself) and at every exit. Lean ops cannot fault, so the
///   flushed state is exact wherever it is observable.
/// - **Self-loop chaining.** When the block's terminator lands back on
///   its own entry and no batch-break condition fired, the block is
///   re-entered directly. Sound because every condition the batch loop
///   would re-check is already known clear: not halted (`Hlt` exits via
///   `next != entry`), no dirty ranges and no device-deadline movement
///   (memory ops break out via `may_dirty`), budget remaining (checked
///   per op), no firmware trap at the entry (the trap set cannot change
///   mid-run, and the entry was vetted when the block was first
///   entered), and no deliverable IRQ (none was pending, and devices
///   only raise at poll boundaries, which sit past `step_limit`).
fn exec_block(m: &mut Machine, block: &TBlock, step_limit: u64) -> Result<(), Fault> {
    if m.trace.is_some() || m.observer.is_some() {
        return exec_block_observed(m, block, step_limit);
    }
    let mut clock = m.clock;
    let mut retired = 0u64;
    let mut eip = m.eip;
    let result = 'run: loop {
        for op in &block.ops {
            // Step-fallback ops (the only ones with `fallthrough == 0`)
            // manage EIP through `Machine::step`; all others rely on it.
            debug_assert!(op.fallthrough == 0 || eip == op.pc);
            if op.lean {
                let Ok(OpExit::Cont(next, taken)) = (op.run)(m, op) else {
                    unreachable!("lean ops retire normally");
                };
                if taken {
                    record_edge(m, op.pc, next);
                }
                clock += if taken {
                    op.cost_taken
                } else {
                    op.cost_not_taken
                };
                retired += 1;
                eip = next;
                if clock >= step_limit {
                    break 'run Ok(());
                }
            } else {
                // Devices read the clock; the step fallback (the sole op
                // with `fallthrough == 0`) reads EIP and the stats. Lean
                // handlers read none of those, so inside a lean streak
                // all three live in host registers only.
                m.clock = clock;
                if op.fallthrough == 0 {
                    m.eip = eip;
                    m.stats.instructions += retired;
                    retired = 0;
                }
                match (op.run)(m, op) {
                    Err(fault) => {
                        // The step fallback does its own accounting even
                        // on the fault path (e.g. a faulting `Int`
                        // dispatch still charges cycles and may move
                        // EIP); pick both up. For compiled ops the
                        // syncs are no-ops: the machine state was just
                        // flushed and the handler failed without moving
                        // it, leaving EIP at the faulting `op.pc` as the
                        // step convention requires.
                        clock = m.clock;
                        if op.fallthrough == 0 {
                            eip = m.eip;
                        }
                        break 'run Err(fault);
                    }
                    Ok(OpExit::Done) => {
                        clock = m.clock;
                        eip = m.eip;
                        break 'run Ok(());
                    }
                    Ok(OpExit::Cont(next, taken)) => {
                        let (pre, cost) = if taken {
                            (op.pre_br, op.cost_taken)
                        } else {
                            (op.pre_ft, op.cost_not_taken)
                        };
                        if let Err(fault) = apply_pre(m, op, pre, next) {
                            break 'run Err(fault);
                        }
                        if taken {
                            record_edge(m, op.pc, next);
                        }
                        clock += cost;
                        retired += 1;
                        eip = next;
                        if clock >= step_limit {
                            break 'run Ok(());
                        }
                        if op.may_dirty && (m.device_deadline_dirty || !m.tcache.dirty.is_empty()) {
                            break 'run Ok(());
                        }
                    }
                }
            }
        }
        if eip != block.entry {
            break Ok(());
        }
    };
    m.eip = eip;
    m.clock = clock;
    m.stats.instructions += retired;
    result
}

/// The fully instrumented block loop: per-op clock/stat updates, class
/// counters, and observer callbacks, exactly as [`Machine::step`] does
/// them. Chosen whenever a tracer or cycle observer is attached.
fn exec_block_observed(m: &mut Machine, block: &TBlock, step_limit: u64) -> Result<(), Fault> {
    for op in &block.ops {
        debug_assert!(op.fallthrough == 0 || m.eip == op.pc);
        match (op.run)(m, op) {
            Err(fault) => return Err(fault),
            Ok(OpExit::Done) => return Ok(()),
            Ok(OpExit::Cont(next, taken)) => {
                let (pre, cost) = if taken {
                    (op.pre_br, op.cost_taken)
                } else {
                    (op.pre_ft, op.cost_not_taken)
                };
                apply_pre(m, op, pre, next)?;
                if taken {
                    record_edge(m, op.pc, next);
                }
                m.clock += cost;
                m.stats.instructions += 1;
                if let Some(t) = &m.trace {
                    t.tracer.counters().incr(t.class[op.class as usize]);
                }
                if let Some(o) = &m.observer {
                    o.instruction(op.pc, cost);
                }
                m.eip = next;
                if m.clock >= step_limit {
                    return Ok(());
                }
                if op.may_dirty && (m.device_deadline_dirty || !m.tcache.dirty.is_empty()) {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

#[inline]
fn access_check(m: &mut Machine, op: &TOp, addr: u32, kind: AccessKind) -> Result<(), Fault> {
    match &op.access {
        AccessMode::Quiet => Ok(()),
        AccessMode::Replay(decision) => {
            m.mpu.replay_access(op.pc, addr, kind, *decision);
            Ok(())
        }
        AccessMode::Checked => m.check(op.pc, addr, kind),
        AccessMode::Memo(window) => {
            let (lo, hi) = window.get();
            if lo <= addr && addr <= hi {
                return Ok(());
            }
            check_and_memoise(m, op.pc, window, addr, kind)
        }
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

// ---------------------------------------------------------- op handlers
//
// Each handler reproduces the matching arm of `Machine::step` exactly;
// the shared epilogue (transfer check, cost, counters, EIP update) runs
// in `exec_block`.

fn op_step_fallback(m: &mut Machine, _op: &TOp) -> Result<OpExit, Fault> {
    m.step()?;
    Ok(OpExit::Done)
}

fn op_nop(_m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let _ = op;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_hlt(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    m.halted = true;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_mov_reg(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    m.regs[op.a as usize] = m.regs[op.b as usize];
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_mov_imm(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    m.regs[op.a as usize] = op.imm;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_add(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let (v, c) = m.regs[op.a as usize].overflowing_add(m.regs[op.b as usize]);
    m.regs[op.a as usize] = v;
    m.set_arith_flags(v, c);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_add_imm(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let (v, c) = m.regs[op.a as usize].overflowing_add(op.imm);
    m.regs[op.a as usize] = v;
    m.set_arith_flags(v, c);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_sub(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let (v, borrow) = m.regs[op.a as usize].overflowing_sub(m.regs[op.b as usize]);
    m.regs[op.a as usize] = v;
    m.set_arith_flags(v, borrow);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_mul(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = m.regs[op.a as usize].wrapping_mul(m.regs[op.b as usize]);
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_and(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = m.regs[op.a as usize] & m.regs[op.b as usize];
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_or(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = m.regs[op.a as usize] | m.regs[op.b as usize];
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_xor(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = m.regs[op.a as usize] ^ m.regs[op.b as usize];
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_not(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = !m.regs[op.a as usize];
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_shl(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = m.regs[op.a as usize] << (m.regs[op.b as usize] & 31);
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_shr(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let v = m.regs[op.a as usize] >> (m.regs[op.b as usize] & 31);
    m.regs[op.a as usize] = v;
    m.set_zs_flags(v);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_cmp(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let (v, borrow) = m.regs[op.a as usize].overflowing_sub(m.regs[op.b as usize]);
    m.set_arith_flags(v, borrow);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_cmp_imm(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let (v, borrow) = m.regs[op.a as usize].overflowing_sub(op.imm);
    m.set_arith_flags(v, borrow);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_ldw(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let addr = m.regs[op.b as usize].wrapping_add(op.imm);
    access_check(m, op, addr, AccessKind::Read)?;
    m.regs[op.a as usize] = m.read_word(addr)?;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_ldb(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let addr = m.regs[op.b as usize].wrapping_add(op.imm);
    access_check(m, op, addr, AccessKind::Read)?;
    m.regs[op.a as usize] = u32::from(m.read_byte(addr)?);
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_stw(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let addr = m.regs[op.a as usize].wrapping_add(op.imm);
    access_check(m, op, addr, AccessKind::Write)?;
    m.write_word(addr, m.regs[op.b as usize])?;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_stb(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let addr = m.regs[op.a as usize].wrapping_add(op.imm);
    access_check(m, op, addr, AccessKind::Write)?;
    m.write_byte(addr, m.regs[op.b as usize] as u8)?;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_jmp(_m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    Ok(OpExit::Cont(op.target, true))
}

fn op_jcc(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    if op.cond.holds(m.eflags) {
        Ok(OpExit::Cont(op.target, true))
    } else {
        Ok(OpExit::Cont(op.fallthrough, false))
    }
}

fn op_jmp_reg(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    Ok(OpExit::Cont(m.regs[op.b as usize], true))
}

fn op_call(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let sp = m.regs[Reg::SP.index()].wrapping_sub(4);
    access_check(m, op, sp, AccessKind::Write)?;
    m.push_word(op.fallthrough)?;
    Ok(OpExit::Cont(op.target, true))
}

fn op_ret(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    access_check(m, op, m.regs[Reg::SP.index()], AccessKind::Read)?;
    let next = m.pop_word()?;
    Ok(OpExit::Cont(next, true))
}

fn op_push(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    let sp = m.regs[Reg::SP.index()].wrapping_sub(4);
    access_check(m, op, sp, AccessKind::Write)?;
    let value = m.regs[op.b as usize];
    m.push_word(value)?;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_pop(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    access_check(m, op, m.regs[Reg::SP.index()], AccessKind::Read)?;
    let value = m.pop_word()?;
    m.regs[op.a as usize] = value;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_sti(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    m.eflags |= sp32::EFLAGS_IF;
    Ok(OpExit::Cont(op.fallthrough, false))
}

fn op_cli(m: &mut Machine, op: &TOp) -> Result<OpExit, Fault> {
    m.eflags &= !sp32::EFLAGS_IF;
    Ok(OpExit::Cont(op.fallthrough, false))
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
    fn a_threaded_op_stays_96_bytes() {
        // The memoised window lives inside `AccessMode`, not beside it.
        assert_eq!(std::mem::size_of::<AccessMode>(), 16);
        assert_eq!(std::mem::size_of::<TOp>(), 96);
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
        // `main` and the `hlt` run once; `loop` runs twice.
        let source = "main:\n movi r1, 0\nloop:\n addi r1, 1\n cmpi r1, 2\n jnz loop\nend:\n hlt\n";
        let (mut m, tracer) = translated(source);
        m.run(10_000);
        assert!(m.is_halted());
        let program = assemble(source, 0x1000).expect("assemble");
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
        assert!(matches!(m.tcache.blocks.get(&looped), Some(Some(_))));
        let c = tracer.counters();
        assert_eq!(c.get("emu_block_compile"), Some(1));
        assert_eq!(c.get("emu_block_hit"), Some(0));
        // The interpreted first pass and the compiled second one end in
        // the legacy engine's state.
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

    #[test]
    fn once_entered_code_keeps_the_map_within_max_blocks() {
        // Every `nop` of the straight line is a first entry, so each one
        // leaves a mark; the marks overflow the map and flush it.
        let source = format!("main:\n{}hlt\n", " nop\n".repeat(MAX_BLOCKS + 100));
        let (mut m, tracer) = translated(&source);
        m.run(1_000_000);
        assert!(m.is_halted());
        assert_eq!(m.stats().instructions, MAX_BLOCKS as u64 + 101);
        assert!(m.tcache.blocks.len() <= MAX_BLOCKS);
        assert_eq!(m.tcache.blocks.len(), 101, "the overflow flushed the map");
        assert_eq!(tracer.counters().get("emu_block_compile"), Some(0));
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
