//! Execution-aware memory protection unit (EA-MPU) model.
//!
//! The EA-MPU is the hardware trust anchor of TrustLite (EuroSys'14) and
//! TyTAN (DAC 2015). Unlike a conventional MPU, its access-control rules are
//! keyed on *which code* performs an access: a rule grants the code executing
//! inside a code [`Region`] a set of [`Perms`] on a data [`Region`]. The unit
//! additionally enforces that protected code regions are only entered at
//! their dedicated entry point, which is the hardware half of TyTAN's
//! defence against code-reuse attacks.
//!
//! TyTAN extends TrustLite's boot-time-static EA-MPU with *dynamic*
//! configuration; [`EaMpu::configure`] reproduces the three phases the paper
//! decomposes in Table 6 (find a free slot, policy-check the new rule
//! against existing ones, write the rule) and reports the cycle cost of
//! each phase so the EA-MPU driver can charge the platform clock.
//!
//! Access checks themselves are combinational logic in hardware and cost no
//! cycles; [`EaMpu::check_access`] and [`EaMpu::check_transfer`] model only
//! the decision.
//!
//! # Examples
//!
//! ```
//! use eampu::{AccessKind, EaMpu, Perms, Region, Rule};
//!
//! # fn main() -> Result<(), eampu::ConfigureError> {
//! let mut mpu = EaMpu::new(18);
//! let task_code = Region::new(0x1000, 0x100);
//! let task_data = Region::new(0x8000, 0x200);
//! let rule = Rule::new(task_code, 0x1000, task_data, Perms::RW);
//! let outcome = mpu.configure(rule)?;
//! assert_eq!(outcome.slot, 0);
//!
//! // The task may access its own data...
//! assert!(mpu.check_access(0x1010, 0x8004, AccessKind::Write).is_allowed());
//! // ...but code outside the task's region may not.
//! assert!(!mpu.check_access(0x4000, 0x8004, AccessKind::Read).is_allowed());
//! # Ok(())
//! # }
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tytan_trace::{CounterId, Counters, Tracer};

mod perms;
mod region;
mod rule;

pub use perms::{AccessKind, Perms};
pub use region::Region;
pub use rule::Rule;

/// Cycle-cost constants for dynamic EA-MPU configuration.
///
/// Defaults are calibrated against Table 6 of the paper: finding the first
/// free slot costs a constant plus a per-slot scan increment (76 cycles for
/// slot 1, 95 for slot 2, 399 for slot 18 — i.e. `57 + 19·position`), the
/// policy check against all existing rules costs a constant 824 cycles, and
/// writing the rule costs 225 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpuCosts {
    /// Fixed part of the free-slot scan.
    pub find_base: u64,
    /// Per-examined-slot increment of the free-slot scan.
    pub find_per_slot: u64,
    /// Cost of checking the candidate rule against every configured rule.
    pub policy_check: u64,
    /// Cost of writing the rule into the slot registers.
    pub write_rule: u64,
}

impl Default for MpuCosts {
    fn default() -> Self {
        MpuCosts {
            find_base: 57,
            find_per_slot: 19,
            policy_check: 824,
            write_rule: 225,
        }
    }
}

/// The result of an access check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// The address is not inside any protected region; flat memory is open.
    AllowedUnprotected,
    /// A rule for the executing code region grants the access.
    AllowedByRule {
        /// Slot index of the granting rule.
        slot: usize,
    },
    /// The address is protected and no rule grants the executing code access.
    Denied,
}

impl AccessDecision {
    /// Whether the access may proceed.
    pub fn is_allowed(self) -> bool {
        !matches!(self, AccessDecision::Denied)
    }
}

/// The result of a control-transfer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDecision {
    /// Target is not in a protected code region, or stays within one.
    Allowed,
    /// Target enters a protected code region at its dedicated entry point.
    AllowedAtEntry {
        /// Slot index of the rule describing the entered region.
        slot: usize,
    },
    /// Target enters a protected code region somewhere other than its entry.
    DeniedMidRegion {
        /// The region's dedicated entry point that should have been used.
        expected_entry: u32,
    },
}

impl TransferDecision {
    /// Whether the transfer may proceed.
    pub fn is_allowed(self) -> bool {
        !matches!(self, TransferDecision::DeniedMidRegion { .. })
    }
}

/// One recorded check, captured while decision logging is enabled (see
/// [`EaMpu::set_decision_log_enabled`]).
///
/// Records carry the full query *and* the full decision (including rule
/// slots), so two rule-identical MPUs driven through the same guest
/// execution must produce byte-identical logs — regardless of whether
/// the decision cache answered or a fresh scan did. Differential
/// harnesses compare logs across the translated and legacy engines
/// to prove the cache layers never change an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionRecord {
    /// A data-access check ([`EaMpu::check_access`]).
    Access {
        /// The executing instruction pointer.
        eip: u32,
        /// The accessed address.
        addr: u32,
        /// Whether it was a read or a write.
        kind: AccessKind,
        /// What the MPU decided.
        decision: AccessDecision,
    },
    /// A control-transfer check ([`EaMpu::check_transfer`]).
    Transfer {
        /// Where control came from.
        from: u32,
        /// Where control goes.
        to: u32,
        /// What the MPU decided.
        decision: TransferDecision,
    },
}

/// Why [`EaMpu::configure`] rejected a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigureError {
    /// Every slot is occupied.
    NoFreeSlot,
    /// The new rule's data region partially overlaps the data region in
    /// `conflicting_slot`. Exact aliases (identical regions, as used for IPC
    /// shared memory) are permitted; partial overlaps never are.
    DataOverlap {
        /// The slot holding the conflicting rule.
        conflicting_slot: usize,
    },
    /// The new rule's data region overlaps a protected code region: data
    /// rules may never alias executable trusted code.
    CodeOverlap {
        /// The slot holding the conflicting rule.
        conflicting_slot: usize,
    },
    /// The rule is malformed (empty code or data region).
    EmptyRegion,
}

impl fmt::Display for ConfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigureError::NoFreeSlot => write!(f, "no free EA-MPU slot"),
            ConfigureError::DataOverlap { conflicting_slot } => {
                write!(
                    f,
                    "data region partially overlaps rule in slot {conflicting_slot}"
                )
            }
            ConfigureError::CodeOverlap { conflicting_slot } => {
                write!(
                    f,
                    "data region overlaps protected code of rule in slot {conflicting_slot}"
                )
            }
            ConfigureError::EmptyRegion => write!(f, "rule contains an empty region"),
        }
    }
}

impl std::error::Error for ConfigureError {}

/// Per-phase cycle cost of one dynamic configuration, per Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigureCost {
    /// Cycles spent scanning for a free slot.
    pub find_slot: u64,
    /// Cycles spent policy-checking the rule.
    pub policy_check: u64,
    /// Cycles spent writing the rule registers.
    pub write_rule: u64,
}

impl ConfigureCost {
    /// Total configuration cost in cycles.
    pub fn total(self) -> u64 {
        self.find_slot + self.policy_check + self.write_rule
    }
}

/// Result of a successful [`EaMpu::configure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigureOutcome {
    /// The slot the rule was written to.
    pub slot: usize,
    /// The cycle cost, decomposed per phase.
    pub cost: ConfigureCost,
}

/// The execution-aware MPU: a fixed-size table of [`Rule`] slots.
///
/// The paper's platform instantiates 18 slots (Table 6); [`EaMpu::new`]
/// takes the count so experiments can vary it.
#[derive(Debug, Clone)]
pub struct EaMpu {
    slots: Vec<Option<Rule>>,
    costs: MpuCosts,
    cache: RefCell<DecisionCache>,
    cache_enabled: bool,
    /// Configuration epoch: replaced by a fresh value whenever anything
    /// that could change a decision (or its observability) changes —
    /// rule-table mutations, cache-mode switches, decision-log toggles.
    /// Consumers that pre-resolve decisions (the block translation
    /// engine) snapshot this and revalidate with a single compare. Values
    /// come from one process-wide counter ([`fresh_generation`]), so an
    /// EA-MPU swapped in whole never matches a snapshot of the one it
    /// replaced; only a clone shares its original's epoch, and its rules.
    generation: Cell<u64>,
    /// L0 in front of the MRU cache: the most recent access entry per
    /// [`AccessKind`] (indexed `Read = 0`, `Write = 1`) and the most recent
    /// transfer entry, checked without touching the `RefCell`. The run loop
    /// performs a transfer check on *every* instruction, so this path must
    /// be a handful of compares. Latches hold the same provably-constant
    /// rectangles as the cache and are cleared with it.
    access_latch: [Cell<AccessCacheEntry>; 2],
    transfer_latch: Cell<TransferCacheEntry>,
    /// Host-side observability, attached by [`EaMpu::attach_tracer`].
    /// `None` (the default) keeps every check on its untraced path behind a
    /// single branch. Tracing never changes a decision and never costs
    /// guest cycles.
    trace: Option<MpuTrace>,
    /// Decision recording for differential harnesses. Off by default:
    /// the check paths pay one predictable branch when disabled.
    log_enabled: bool,
    decision_log: RefCell<Vec<DecisionRecord>>,
}

/// Per-slot rule usage, collected only while a tracer is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Accesses or transfers a rule in this slot allowed.
    pub hits: u64,
    /// Denials attributed to this slot (its region protected the target).
    pub denials: u64,
}

/// Counter handles for the EA-MPU layer, resolved once at attach time so
/// the check paths never do a name lookup.
#[derive(Debug, Clone)]
struct MpuTrace {
    counters: Arc<Counters>,
    access_hit: CounterId,
    access_miss: CounterId,
    transfer_hit: CounterId,
    transfer_miss: CounterId,
    flush: CounterId,
    denied: CounterId,
    slots: RefCell<Vec<SlotStats>>,
}

impl MpuTrace {
    fn new(counters: Arc<Counters>, slot_count: usize) -> Self {
        MpuTrace {
            access_hit: counters.register("eampu_access_cache_hit"),
            access_miss: counters.register("eampu_access_cache_miss"),
            transfer_hit: counters.register("eampu_transfer_cache_hit"),
            transfer_miss: counters.register("eampu_transfer_cache_miss"),
            flush: counters.register("eampu_cache_flush"),
            denied: counters.register("eampu_denied"),
            slots: RefCell::new(vec![SlotStats::default(); slot_count]),
            counters,
        }
    }

    fn bump_slot(&self, slot: usize, denial: bool) {
        let mut slots = self.slots.borrow_mut();
        if let Some(s) = slots.get_mut(slot) {
            if denial {
                s.denials += 1;
            } else {
                s.hits += 1;
            }
        }
    }
}

/// An empty (never-matching) access latch: `lo > hi` ranges match nothing.
const EMPTY_ACCESS_LATCH: AccessCacheEntry = AccessCacheEntry {
    eip_lo: 1,
    eip_hi: 0,
    addr_lo: 1,
    addr_hi: 0,
    kind: AccessKind::Read,
    decision: AccessDecision::Denied,
};

/// An empty (never-matching) transfer latch.
const EMPTY_TRANSFER_LATCH: TransferCacheEntry = TransferCacheEntry {
    from_lo: 1,
    from_hi: 0,
    to_lo: 1,
    to_hi: 0,
    decision: TransferDecision::Allowed,
};

/// A configuration epoch no EA-MPU in this process has held before.
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn latch_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// MRU cache of recent check decisions, modelling the hardware match latch.
///
/// Each entry stores the decision together with the rectangle of
/// `(actor, target)` address pairs over which the rule scan provably
/// produces that same decision: while scanning on a miss, both query
/// coordinates are narrowed against every examined region so that all
/// membership predicates are constant across the rectangle. Hits are
/// therefore bit-identical to a fresh scan. The cache holds derived state
/// only — any slot mutation clears it — so interior mutability behind the
/// unchanged `&self` check methods is sound.
#[derive(Debug, Clone, Default)]
struct DecisionCache {
    access: Vec<AccessCacheEntry>,
    transfer: Vec<TransferCacheEntry>,
}

/// Keep the MRU vectors small enough that a scan is a few compares.
const DECISION_CACHE_WAYS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct AccessCacheEntry {
    eip_lo: u32,
    eip_hi: u32,
    addr_lo: u32,
    addr_hi: u32,
    kind: AccessKind,
    decision: AccessDecision,
}

#[derive(Debug, Clone, Copy)]
struct TransferCacheEntry {
    from_lo: u32,
    from_hi: u32,
    to_lo: u32,
    to_hi: u32,
    decision: TransferDecision,
}

impl DecisionCache {
    fn lookup_access(&mut self, eip: u32, addr: u32, kind: AccessKind) -> Option<AccessCacheEntry> {
        let pos = self.access.iter().position(|e| {
            e.kind == kind
                && (e.eip_lo..=e.eip_hi).contains(&eip)
                && (e.addr_lo..=e.addr_hi).contains(&addr)
        })?;
        let entry = self.access[pos];
        // MRU promotion; a position-0 hit must stay free of data movement.
        if pos != 0 {
            self.access[..=pos].rotate_right(1);
        }
        Some(entry)
    }

    fn lookup_transfer(&mut self, from: u32, to: u32) -> Option<TransferCacheEntry> {
        let pos = self.transfer.iter().position(|e| {
            (e.from_lo..=e.from_hi).contains(&from) && (e.to_lo..=e.to_hi).contains(&to)
        })?;
        let entry = self.transfer[pos];
        if pos != 0 {
            self.transfer[..=pos].rotate_right(1);
        }
        Some(entry)
    }

    fn insert_access(&mut self, entry: AccessCacheEntry) {
        self.access.truncate(DECISION_CACHE_WAYS - 1);
        self.access.insert(0, entry);
    }

    fn insert_transfer(&mut self, entry: TransferCacheEntry) {
        self.transfer.truncate(DECISION_CACHE_WAYS - 1);
        self.transfer.insert(0, entry);
    }

    fn clear(&mut self) {
        self.access.clear();
        self.transfer.clear();
    }
}

/// Shrinks `[lo, hi]` so that `region.contains(x)` is constant (and equal
/// to `region.contains(point)`) for every `x` in the interval. `point`
/// must lie inside `[lo, hi]`.
fn narrow_to_membership(lo: &mut u32, hi: &mut u32, region: Region, point: u32) {
    let Some(last) = region.last() else { return };
    if region.contains(point) {
        *lo = (*lo).max(region.start());
        *hi = (*hi).min(last);
    } else if point < region.start() {
        *hi = (*hi).min(region.start() - 1);
    } else {
        *lo = (*lo).max(last + 1);
    }
}

impl EaMpu {
    /// Creates an EA-MPU with `slots` empty rule slots and default costs.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        Self::with_costs(slots, MpuCosts::default())
    }

    /// Creates an EA-MPU with an explicit cycle-cost model.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_costs(slots: usize, costs: MpuCosts) -> Self {
        assert!(slots > 0, "EA-MPU needs at least one slot");
        EaMpu {
            slots: vec![None; slots],
            costs,
            cache: RefCell::new(DecisionCache::default()),
            cache_enabled: true,
            generation: Cell::new(fresh_generation()),
            access_latch: [Cell::new(EMPTY_ACCESS_LATCH), Cell::new(EMPTY_ACCESS_LATCH)],
            transfer_latch: Cell::new(EMPTY_TRANSFER_LATCH),
            trace: None,
            log_enabled: false,
            decision_log: RefCell::new(Vec::new()),
        }
    }

    /// Starts (or stops) recording every check into the decision log.
    ///
    /// Recording is observation only: it never changes a decision and
    /// never charges guest cycles. Enabling it clears any previous log.
    pub fn set_decision_log_enabled(&mut self, enabled: bool) {
        self.log_enabled = enabled;
        self.decision_log.borrow_mut().clear();
        // Pre-resolved decisions bake in whether a check is logged, so a
        // log toggle is a configuration change for them. Bump directly
        // (rather than via invalidate_decision_cache) so the toggle stays
        // invisible to the flush counter.
        self.generation.set(fresh_generation());
    }

    /// Whether decision recording is currently enabled.
    pub fn log_enabled(&self) -> bool {
        self.log_enabled
    }

    /// Takes (and clears) the recorded decisions since the last take.
    pub fn take_decision_log(&self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decision_log.borrow_mut())
    }

    /// Attaches host-side observability: decision-cache hit/miss/flush and
    /// denial counters are registered in `tracer`'s registry, and per-slot
    /// rule usage starts accumulating (see [`EaMpu::slot_stats`]).
    ///
    /// Tracing is an observer only — it never changes a decision and never
    /// charges guest cycles.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.trace = Some(MpuTrace::new(tracer.counters().clone(), self.slots.len()));
        // Pre-resolved decisions bake in whether a check is traced, so
        // attaching observability is a configuration change for them.
        self.generation.set(fresh_generation());
    }

    /// Whether host-side observability is attached.
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Per-slot rule usage since the tracer was attached (empty when no
    /// tracer is attached). Index is the slot number.
    pub fn slot_stats(&self) -> Vec<SlotStats> {
        self.trace
            .as_ref()
            .map(|t| t.slots.borrow().clone())
            .unwrap_or_default()
    }

    fn trace_access(&self, decision: AccessDecision, cached: bool, addr: u32) {
        let Some(t) = &self.trace else { return };
        t.counters
            .incr(if cached { t.access_hit } else { t.access_miss });
        match decision {
            AccessDecision::AllowedByRule { slot } => t.bump_slot(slot, false),
            AccessDecision::Denied => {
                t.counters.incr(t.denied);
                // Attribute the denial to the slot whose region protects the
                // target. Denials are a cold path (they fault the machine),
                // so the extra scan is acceptable — and traced-only anyway.
                if let Some((slot, _)) = self
                    .rules()
                    .find(|(_, r)| r.data.contains(addr) || r.code.contains(addr))
                {
                    t.bump_slot(slot, true);
                }
            }
            AccessDecision::AllowedUnprotected => {}
        }
    }

    fn trace_transfer(&self, decision: TransferDecision, cached: bool, to_addr: u32) {
        let Some(t) = &self.trace else { return };
        t.counters.incr(if cached {
            t.transfer_hit
        } else {
            t.transfer_miss
        });
        match decision {
            TransferDecision::AllowedAtEntry { slot } => t.bump_slot(slot, false),
            TransferDecision::DeniedMidRegion { .. } => {
                t.counters.incr(t.denied);
                if let Some((slot, _)) = self.rules().find(|(_, r)| r.code.contains(to_addr)) {
                    t.bump_slot(slot, true);
                }
            }
            TransferDecision::Allowed => {}
        }
    }

    /// Enables or disables the decision cache (enabled by default). The
    /// cache never changes decisions; disabling it exists so differential
    /// tests can compare against the pure scan path.
    pub fn set_decision_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        self.invalidate_decision_cache();
    }

    /// Drops every cached decision. Called automatically on any rule-table
    /// mutation; exposed so owners can also invalidate on external state
    /// changes (the machine does this when MPU enforcement is toggled).
    pub fn invalidate_decision_cache(&self) {
        self.generation.set(fresh_generation());
        self.cache.borrow_mut().clear();
        self.access_latch[0].set(EMPTY_ACCESS_LATCH);
        self.access_latch[1].set(EMPTY_ACCESS_LATCH);
        self.transfer_latch.set(EMPTY_TRANSFER_LATCH);
        if let Some(t) = &self.trace {
            t.counters.incr(t.flush);
        }
    }

    /// Total number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn used_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The rule in `slot`, if configured.
    pub fn rule(&self, slot: usize) -> Option<&Rule> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Iterates over `(slot, rule)` pairs of configured rules.
    pub fn rules(&self) -> impl Iterator<Item = (usize, &Rule)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i, r)))
    }

    /// The cost model in effect.
    pub fn costs(&self) -> MpuCosts {
        self.costs
    }

    /// Scans for the first free slot, returning its index and the scan cost.
    ///
    /// This is phase 1 of Table 6; cost grows linearly with the position of
    /// the first free slot.
    pub fn find_free_slot(&self) -> (Option<usize>, u64) {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.is_none() {
                let cost = self.costs.find_base + self.costs.find_per_slot * (i as u64 + 1);
                return (Some(i), cost);
            }
        }
        let cost = self.costs.find_base + self.costs.find_per_slot * self.slots.len() as u64;
        (None, cost)
    }

    /// Policy-checks `rule` against every configured rule.
    ///
    /// The policy (phase 2 of Table 6): the new data region must not
    /// *partially* overlap any existing protected data region — an exact
    /// alias is permitted, because the IPC proxy deliberately aliases a
    /// shared-memory region into both communicating tasks — and must not
    /// touch any protected code region at all.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigureError::EmptyRegion`], [`ConfigureError::DataOverlap`]
    /// or [`ConfigureError::CodeOverlap`] naming the conflicting slot.
    pub fn policy_check(&self, rule: &Rule) -> Result<(), ConfigureError> {
        if rule.code.is_empty() || rule.data.is_empty() {
            return Err(ConfigureError::EmptyRegion);
        }
        for (slot, existing) in self.rules() {
            if rule.data.overlaps(existing.data) && rule.data != existing.data {
                return Err(ConfigureError::DataOverlap {
                    conflicting_slot: slot,
                });
            }
            if rule.data.overlaps(existing.code) {
                return Err(ConfigureError::CodeOverlap {
                    conflicting_slot: slot,
                });
            }
        }
        Ok(())
    }

    /// Dynamically configures a new rule: find slot, policy check, write.
    ///
    /// Reproduces the paper's Table 6 decomposition and returns the
    /// per-phase cycle cost alongside the chosen slot.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigureError::NoFreeSlot`] when the table is full, or the
    /// policy-check errors of [`EaMpu::policy_check`]. On error no slot is
    /// modified.
    pub fn configure(&mut self, rule: Rule) -> Result<ConfigureOutcome, ConfigureError> {
        let (slot, find_cost) = self.find_free_slot();
        let slot = slot.ok_or(ConfigureError::NoFreeSlot)?;
        self.policy_check(&rule)?;
        self.invalidate_decision_cache();
        self.slots[slot] = Some(rule);
        Ok(ConfigureOutcome {
            slot,
            cost: ConfigureCost {
                find_slot: find_cost,
                policy_check: self.costs.policy_check,
                write_rule: self.costs.write_rule,
            },
        })
    }

    /// Writes `rule` into `slot` without a policy check.
    ///
    /// Used by secure boot to install the static rules protecting the
    /// trusted software components before the dynamic driver takes over.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn set_rule(&mut self, slot: usize, rule: Rule) {
        self.invalidate_decision_cache();
        self.slots[slot] = Some(rule);
    }

    /// Clears `slot`, returning the rule it held.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn clear_slot(&mut self, slot: usize) -> Option<Rule> {
        self.invalidate_decision_cache();
        self.slots[slot].take()
    }

    /// Removes every rule whose code region equals `code`, returning how
    /// many were removed. Used when unloading a task.
    pub fn remove_rules_for_code(&mut self, code: Region) -> usize {
        self.invalidate_decision_cache();
        let mut removed = 0;
        for slot in &mut self.slots {
            if matches!(slot, Some(rule) if rule.code == code) {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }

    #[inline]
    fn log_access_record(&self, eip: u32, addr: u32, kind: AccessKind, decision: AccessDecision) {
        if self.log_enabled {
            self.decision_log.borrow_mut().push(DecisionRecord::Access {
                eip,
                addr,
                kind,
                decision,
            });
        }
    }

    #[inline]
    fn log_transfer_record(&self, from: u32, to: u32, decision: TransferDecision) {
        if self.log_enabled {
            self.decision_log
                .borrow_mut()
                .push(DecisionRecord::Transfer { from, to, decision });
        }
    }

    /// Checks a data access: may the instruction at `eip` access `addr`?
    ///
    /// An address inside any configured rule's data region is *protected*
    /// and requires a rule whose code region contains `eip` and whose
    /// permissions include `kind`. Reading a protected *code* region from
    /// outside it is likewise denied (code secrecy). Unprotected addresses
    /// are open, matching the flat physical memory model.
    #[inline]
    pub fn check_access(&self, eip: u32, addr: u32, kind: AccessKind) -> AccessDecision {
        // The latch hit is the per-instruction hot path: keep it small
        // enough to inline into the emulator's step loop.
        if self.cache_enabled {
            let l = self.access_latch[latch_index(kind)].get();
            if l.eip_lo <= eip && eip <= l.eip_hi && l.addr_lo <= addr && addr <= l.addr_hi {
                if self.trace.is_some() {
                    self.trace_access(l.decision, true, addr);
                }
                self.log_access_record(eip, addr, kind, l.decision);
                return l.decision;
            }
        }
        self.check_access_unlatched(eip, addr, kind)
    }

    fn check_access_unlatched(&self, eip: u32, addr: u32, kind: AccessKind) -> AccessDecision {
        if self.cache_enabled {
            if let Some(entry) = self.cache.borrow_mut().lookup_access(eip, addr, kind) {
                self.access_latch[latch_index(kind)].set(entry);
                if self.trace.is_some() {
                    self.trace_access(entry.decision, true, addr);
                }
                self.log_access_record(eip, addr, kind, entry.decision);
                return entry.decision;
            }
        }
        // While scanning, narrow the (eip, addr) rectangle over which every
        // membership test below stays constant; the scan — including its
        // early return — then provably yields this same decision for every
        // pair in the rectangle, which is what makes caching it sound.
        let (mut eip_lo, mut eip_hi) = (0u32, u32::MAX);
        let (mut addr_lo, mut addr_hi) = (0u32, u32::MAX);
        let mut protected = false;
        let mut hit = None;
        for (slot, rule) in self.rules() {
            narrow_to_membership(&mut eip_lo, &mut eip_hi, rule.code, eip);
            narrow_to_membership(&mut addr_lo, &mut addr_hi, rule.data, addr);
            narrow_to_membership(&mut addr_lo, &mut addr_hi, rule.code, addr);
            if rule.data.contains(addr) {
                protected = true;
                if rule.code.contains(eip) && rule.perms.allows(kind) {
                    hit = Some(AccessDecision::AllowedByRule { slot });
                    break;
                }
            }
            // Protected code regions are only accessible as data from within.
            if rule.code.contains(addr) {
                protected = true;
                if rule.code.contains(eip) && kind == AccessKind::Read {
                    hit = Some(AccessDecision::AllowedByRule { slot });
                    break;
                }
            }
        }
        let decision = hit.unwrap_or(if protected {
            AccessDecision::Denied
        } else {
            AccessDecision::AllowedUnprotected
        });
        if self.cache_enabled {
            let entry = AccessCacheEntry {
                eip_lo,
                eip_hi,
                addr_lo,
                addr_hi,
                kind,
                decision,
            };
            self.cache.borrow_mut().insert_access(entry);
            self.access_latch[latch_index(kind)].set(entry);
        }
        if self.trace.is_some() {
            self.trace_access(decision, false, addr);
        }
        self.log_access_record(eip, addr, kind, decision);
        decision
    }

    /// Checks a control transfer from `from_eip` to `to_addr`.
    ///
    /// Entering a protected code region from outside is only allowed at the
    /// region's dedicated entry point; transfers within a region, or to
    /// unprotected addresses, are unrestricted. This is the EA-MPU property
    /// TyTAN relies on to prevent code-reuse attacks on secure tasks.
    #[inline]
    pub fn check_transfer(&self, from_eip: u32, to_addr: u32) -> TransferDecision {
        // Checked on every instruction (fallthrough included): the latch
        // hit must inline into the emulator's step loop.
        if self.cache_enabled {
            let l = self.transfer_latch.get();
            if l.from_lo <= from_eip
                && from_eip <= l.from_hi
                && l.to_lo <= to_addr
                && to_addr <= l.to_hi
            {
                if self.trace.is_some() {
                    self.trace_transfer(l.decision, true, to_addr);
                }
                self.log_transfer_record(from_eip, to_addr, l.decision);
                return l.decision;
            }
        }
        self.check_transfer_unlatched(from_eip, to_addr)
    }

    fn check_transfer_unlatched(&self, from_eip: u32, to_addr: u32) -> TransferDecision {
        if self.cache_enabled {
            if let Some(entry) = self.cache.borrow_mut().lookup_transfer(from_eip, to_addr) {
                self.transfer_latch.set(entry);
                if self.trace.is_some() {
                    self.trace_transfer(entry.decision, true, to_addr);
                }
                self.log_transfer_record(from_eip, to_addr, entry.decision);
                return entry.decision;
            }
        }
        let (mut from_lo, mut from_hi) = (0u32, u32::MAX);
        let (mut to_lo, mut to_hi) = (0u32, u32::MAX);
        let mut hit = None;
        for (slot, rule) in self.rules() {
            narrow_to_membership(&mut from_lo, &mut from_hi, rule.code, from_eip);
            narrow_to_membership(&mut to_lo, &mut to_hi, rule.code, to_addr);
            if rule.code.contains(to_addr) && !rule.code.contains(from_eip) {
                // The decision also depends on `to_addr == entry`, so pin
                // the target interval to the side of the entry point the
                // query fell on (or to the entry point itself).
                if to_addr == rule.entry {
                    to_lo = rule.entry;
                    to_hi = rule.entry;
                    hit = Some(TransferDecision::AllowedAtEntry { slot });
                } else {
                    if to_addr < rule.entry {
                        to_hi = to_hi.min(rule.entry - 1);
                    } else {
                        to_lo = to_lo.max(rule.entry + 1);
                    }
                    hit = Some(TransferDecision::DeniedMidRegion {
                        expected_entry: rule.entry,
                    });
                }
                break;
            }
        }
        let decision = hit.unwrap_or(TransferDecision::Allowed);
        if self.cache_enabled {
            let entry = TransferCacheEntry {
                from_lo,
                from_hi,
                to_lo,
                to_hi,
                decision,
            };
            self.cache.borrow_mut().insert_transfer(entry);
            self.transfer_latch.set(entry);
        }
        if self.trace.is_some() {
            self.trace_transfer(decision, false, to_addr);
        }
        self.log_transfer_record(from_eip, to_addr, decision);
        decision
    }

    /// Whether `addr` lies inside any protected (data or code) region.
    pub fn is_protected(&self, addr: u32) -> bool {
        self.rules()
            .any(|(_, r)| r.data.contains(addr) || r.code.contains(addr))
    }

    /// The current configuration epoch (see the `generation` field).
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }

    /// The target addresses `[lo, hi]` over which the access latch for
    /// `kind` holds an allow for code at `eip`, or `None` when it does
    /// not (latch empty or covering other code, a denial, or the
    /// decision cache off). Read-only: no latch, cache, trace or log
    /// side effect.
    ///
    /// A latch holds a rectangle the rule scan provably decides
    /// uniformly, so until the rule table next changes (see
    /// [`EaMpu::generation`]) [`EaMpu::check_access`] allows every
    /// `(eip, addr, kind)` with `addr` in the window. Right after a
    /// check of `(eip, addr, kind)` returns an allow, the window
    /// contains `addr`.
    #[inline]
    pub fn latched_allow(&self, eip: u32, kind: AccessKind) -> Option<(u32, u32)> {
        let l = self.access_latch[latch_index(kind)].get();
        (self.cache_enabled && l.eip_lo <= eip && eip <= l.eip_hi && l.decision.is_allowed())
            .then_some((l.addr_lo, l.addr_hi))
    }

    /// Whether any rule slot is occupied.
    pub fn has_rules(&self) -> bool {
        self.slots.iter().any(|s| s.is_some())
    }

    /// Resolves a transfer decision *without* observable side effects: no
    /// cache or latch update, no trace counters, no decision-log record.
    ///
    /// The scan mirrors [`EaMpu::check_transfer`] exactly (first matching
    /// slot wins), so for a fixed rule table the preview equals what a
    /// live check would decide. The block translation engine uses this at
    /// compile time and [`EaMpu::replay_transfer`] at run time.
    pub fn preview_transfer(&self, from_eip: u32, to_addr: u32) -> TransferDecision {
        for (slot, rule) in self.rules() {
            if rule.code.contains(to_addr) && !rule.code.contains(from_eip) {
                return if to_addr == rule.entry {
                    TransferDecision::AllowedAtEntry { slot }
                } else {
                    TransferDecision::DeniedMidRegion {
                        expected_entry: rule.entry,
                    }
                };
            }
        }
        TransferDecision::Allowed
    }

    /// Replays a pre-resolved transfer decision's observable effects —
    /// trace counters and the decision-log record — as if a (latched)
    /// [`EaMpu::check_transfer`] had just returned `decision`.
    ///
    /// The caller promises `decision == self.preview_transfer(from, to)`
    /// under the configuration epoch it was resolved in.
    pub fn replay_transfer(&self, from_eip: u32, to_addr: u32, decision: TransferDecision) {
        if self.trace.is_some() {
            self.trace_transfer(decision, true, to_addr);
        }
        self.log_transfer_record(from_eip, to_addr, decision);
    }

    /// Replays a pre-resolved access decision's observable effects; the
    /// access counterpart of [`EaMpu::replay_transfer`].
    pub fn replay_access(&self, eip: u32, addr: u32, kind: AccessKind, decision: AccessDecision) {
        if self.trace.is_some() {
            self.trace_access(decision, true, addr);
        }
        self.log_access_record(eip, addr, kind, decision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(code_start: u32, data_start: u32) -> Rule {
        Rule::new(
            Region::new(code_start, 0x100),
            code_start,
            Region::new(data_start, 0x100),
            Perms::RW,
        )
    }

    #[test]
    fn table6_find_slot_costs_match_paper() {
        // Paper, Table 6: slot 1 -> 76, slot 2 -> 95, slot 18 -> 399.
        let mut mpu = EaMpu::new(18);
        let (slot, cost) = mpu.find_free_slot();
        assert_eq!((slot, cost), (Some(0), 76));

        mpu.set_rule(0, rule(0x1000, 0x8000));
        let (slot, cost) = mpu.find_free_slot();
        assert_eq!((slot, cost), (Some(1), 95));

        for i in 1..17 {
            mpu.set_rule(
                i,
                rule(0x1000 + i as u32 * 0x200, 0x8000 + i as u32 * 0x200),
            );
        }
        let (slot, cost) = mpu.find_free_slot();
        assert_eq!((slot, cost), (Some(17), 399));
    }

    #[test]
    fn configure_cost_decomposition() {
        let mut mpu = EaMpu::new(18);
        let outcome = mpu.configure(rule(0x1000, 0x8000)).unwrap();
        assert_eq!(outcome.slot, 0);
        assert_eq!(outcome.cost.find_slot, 76);
        assert_eq!(outcome.cost.policy_check, 824);
        assert_eq!(outcome.cost.write_rule, 225);
        assert_eq!(outcome.cost.total(), 1125); // Table 6, slot 1 overall.
    }

    #[test]
    fn full_table_rejects_configuration() {
        let mut mpu = EaMpu::new(2);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        mpu.configure(rule(0x2000, 0x9000)).unwrap();
        assert_eq!(
            mpu.configure(rule(0x3000, 0xa000)).unwrap_err(),
            ConfigureError::NoFreeSlot
        );
    }

    #[test]
    fn partial_data_overlap_rejected_exact_alias_allowed() {
        let mut mpu = EaMpu::new(4);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        // Partial overlap with [0x8000, 0x8100).
        let overlapping = Rule::new(
            Region::new(0x2000, 0x100),
            0x2000,
            Region::new(0x8080, 0x100),
            Perms::RW,
        );
        assert_eq!(
            mpu.configure(overlapping).unwrap_err(),
            ConfigureError::DataOverlap {
                conflicting_slot: 0
            }
        );
        // Exact alias (IPC shared memory) is fine.
        let alias = Rule::new(
            Region::new(0x2000, 0x100),
            0x2000,
            Region::new(0x8000, 0x100),
            Perms::RW,
        );
        assert!(mpu.configure(alias).is_ok());
    }

    #[test]
    fn data_rule_may_not_cover_trusted_code() {
        let mut mpu = EaMpu::new(4);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        let snooping = Rule::new(
            Region::new(0x3000, 0x100),
            0x3000,
            Region::new(0x1000, 0x40),
            Perms::R,
        );
        assert_eq!(
            mpu.configure(snooping).unwrap_err(),
            ConfigureError::CodeOverlap {
                conflicting_slot: 0
            }
        );
    }

    #[test]
    fn empty_region_rejected() {
        let mut mpu = EaMpu::new(4);
        let bad = Rule::new(
            Region::new(0x1000, 0),
            0x1000,
            Region::new(0x8000, 4),
            Perms::R,
        );
        assert_eq!(mpu.configure(bad).unwrap_err(), ConfigureError::EmptyRegion);
    }

    #[test]
    fn execution_aware_access_control() {
        let mut mpu = EaMpu::new(4);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        // Owner code can read and write its data.
        assert!(mpu
            .check_access(0x1004, 0x8000, AccessKind::Read)
            .is_allowed());
        assert!(mpu
            .check_access(0x10ff, 0x80ff, AccessKind::Write)
            .is_allowed());
        // Foreign code (the OS, another task) cannot.
        assert_eq!(
            mpu.check_access(0x5000, 0x8000, AccessKind::Read),
            AccessDecision::Denied
        );
        assert_eq!(
            mpu.check_access(0x5000, 0x8000, AccessKind::Write),
            AccessDecision::Denied
        );
        // Unprotected memory stays open to everyone.
        assert_eq!(
            mpu.check_access(0x5000, 0xf000, AccessKind::Write),
            AccessDecision::AllowedUnprotected
        );
    }

    #[test]
    fn read_only_rule_denies_writes() {
        let mut mpu = EaMpu::new(4);
        let ro = Rule::new(
            Region::new(0x1000, 0x100),
            0x1000,
            Region::new(0x8000, 0x100),
            Perms::R,
        );
        mpu.configure(ro).unwrap();
        assert!(mpu
            .check_access(0x1000, 0x8000, AccessKind::Read)
            .is_allowed());
        assert!(!mpu
            .check_access(0x1000, 0x8000, AccessKind::Write)
            .is_allowed());
    }

    #[test]
    fn code_secrecy() {
        let mut mpu = EaMpu::new(4);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        // The task may read its own code (e.g. constants in .text)...
        assert!(mpu
            .check_access(0x1004, 0x1008, AccessKind::Read)
            .is_allowed());
        // ...but others may not read it, and nobody may write it.
        assert!(!mpu
            .check_access(0x5000, 0x1008, AccessKind::Read)
            .is_allowed());
        assert!(!mpu
            .check_access(0x1004, 0x1008, AccessKind::Write)
            .is_allowed());
    }

    #[test]
    fn entry_point_enforcement() {
        let mut mpu = EaMpu::new(4);
        let r = Rule::new(
            Region::new(0x1000, 0x100),
            0x1010,
            Region::new(0x8000, 0x100),
            Perms::RW,
        );
        mpu.configure(r).unwrap();
        // Entering at the entry point is allowed.
        assert_eq!(
            mpu.check_transfer(0x5000, 0x1010),
            TransferDecision::AllowedAtEntry { slot: 0 }
        );
        // Jumping into the middle from outside is denied.
        assert_eq!(
            mpu.check_transfer(0x5000, 0x1050),
            TransferDecision::DeniedMidRegion {
                expected_entry: 0x1010
            }
        );
        // Branches within the region are unrestricted.
        assert_eq!(
            mpu.check_transfer(0x1004, 0x1050),
            TransferDecision::Allowed
        );
        // Transfers in open memory are unrestricted.
        assert_eq!(
            mpu.check_transfer(0x5000, 0x6000),
            TransferDecision::Allowed
        );
    }

    #[test]
    fn remove_rules_for_code_unloads_task() {
        let mut mpu = EaMpu::new(4);
        let code = Region::new(0x1000, 0x100);
        mpu.configure(Rule::new(
            code,
            0x1000,
            Region::new(0x8000, 0x100),
            Perms::RW,
        ))
        .unwrap();
        mpu.configure(Rule::new(
            code,
            0x1000,
            Region::new(0x9000, 0x100),
            Perms::RW,
        ))
        .unwrap();
        mpu.configure(rule(0x2000, 0xa000)).unwrap();
        assert_eq!(mpu.remove_rules_for_code(code), 2);
        assert_eq!(mpu.used_slots(), 1);
        // Freed slots are reused first.
        let (slot, _) = mpu.find_free_slot();
        assert_eq!(slot, Some(0));
    }

    #[test]
    fn tracer_counts_cache_behaviour_and_slot_usage() {
        let mut mpu = EaMpu::new(4);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        let tracer = Tracer::null();
        mpu.attach_tracer(&tracer);
        let c = tracer.counters();

        // First check scans (miss), repeats hit the latch.
        for _ in 0..3 {
            assert!(mpu
                .check_access(0x1004, 0x8004, AccessKind::Read)
                .is_allowed());
        }
        assert_eq!(c.get("eampu_access_cache_miss"), Some(1));
        assert_eq!(c.get("eampu_access_cache_hit"), Some(2));

        // A denial is counted and attributed to the protecting slot.
        assert!(!mpu
            .check_access(0x5000, 0x8004, AccessKind::Read)
            .is_allowed());
        assert_eq!(c.get("eampu_denied"), Some(1));
        let slots = mpu.slot_stats();
        assert_eq!(slots[0].hits, 3);
        assert_eq!(slots[0].denials, 1);

        // Transfers count on their own pair of counters.
        mpu.check_transfer(0x5000, 0x6000);
        mpu.check_transfer(0x5000, 0x6000);
        assert_eq!(c.get("eampu_transfer_cache_miss"), Some(1));
        assert_eq!(c.get("eampu_transfer_cache_hit"), Some(1));

        // Rule mutation flushes the decision cache, visibly.
        let before = c.get("eampu_cache_flush").unwrap();
        mpu.set_rule(1, rule(0x2000, 0x9000));
        assert_eq!(c.get("eampu_cache_flush"), Some(before + 1));
    }

    #[test]
    fn no_two_configurations_share_a_generation() {
        let a = EaMpu::new(4);
        let b = EaMpu::new(4);
        assert_ne!(a.generation(), b.generation());
        let mut c = a.clone();
        assert_eq!(c.generation(), a.generation(), "same rules, same epoch");
        c.set_rule(0, rule(0x1000, 0x8000));
        for other in [&a, &b] {
            assert_ne!(c.generation(), other.generation());
        }
    }

    #[test]
    fn latched_allow_is_the_window_of_the_last_allowed_check() {
        let mut mpu = EaMpu::new(4);
        mpu.set_rule(0, rule(0x1000, 0x8000));
        mpu.set_rule(1, rule(0x2000, 0x8200));
        assert_eq!(mpu.latched_allow(0x1004, AccessKind::Read), None);

        // Own data: the window is the rule's data region, for this code
        // and this kind only.
        assert!(mpu
            .check_access(0x1004, 0x8010, AccessKind::Read)
            .is_allowed());
        assert_eq!(
            mpu.latched_allow(0x1080, AccessKind::Read),
            Some((0x8000, 0x80ff))
        );
        assert_eq!(mpu.latched_allow(0x2004, AccessKind::Read), None);
        assert_eq!(mpu.latched_allow(0x1004, AccessKind::Write), None);

        // Open memory between the two data regions.
        assert!(mpu
            .check_access(0x1004, 0x8180, AccessKind::Read)
            .is_allowed());
        assert_eq!(
            mpu.latched_allow(0x1004, AccessKind::Read),
            Some((0x8100, 0x81ff))
        );

        // A denial latches no window.
        assert!(!mpu
            .check_access(0x1004, 0x8200, AccessKind::Read)
            .is_allowed());
        assert_eq!(mpu.latched_allow(0x1004, AccessKind::Read), None);

        // A rule change or a disabled cache drops the window.
        assert!(mpu
            .check_access(0x1004, 0x8010, AccessKind::Write)
            .is_allowed());
        mpu.clear_slot(1);
        assert_eq!(mpu.latched_allow(0x1004, AccessKind::Write), None);
        mpu.set_decision_cache_enabled(false);
        assert!(mpu
            .check_access(0x1004, 0x8010, AccessKind::Write)
            .is_allowed());
        assert_eq!(mpu.latched_allow(0x1004, AccessKind::Write), None);
    }

    #[test]
    fn tracer_counts_pure_scans_as_misses_when_cache_disabled() {
        let mut mpu = EaMpu::new(4);
        mpu.set_decision_cache_enabled(false);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        let tracer = Tracer::null();
        mpu.attach_tracer(&tracer);
        for _ in 0..5 {
            mpu.check_access(0x1004, 0x8004, AccessKind::Read);
        }
        assert_eq!(tracer.counters().get("eampu_access_cache_miss"), Some(5));
        assert_eq!(tracer.counters().get("eampu_access_cache_hit"), Some(0));
    }

    #[test]
    fn is_protected_covers_code_and_data() {
        let mut mpu = EaMpu::new(4);
        mpu.configure(rule(0x1000, 0x8000)).unwrap();
        assert!(mpu.is_protected(0x1000));
        assert!(mpu.is_protected(0x80ff));
        assert!(!mpu.is_protected(0x8100));
        assert!(!mpu.is_protected(0x0));
    }

    #[test]
    fn decision_log_is_identical_with_and_without_the_cache() {
        let mut cached = EaMpu::new(4);
        cached.configure(rule(0x1000, 0x8000)).unwrap();
        cached.configure(rule(0x2000, 0x9000)).unwrap();
        let mut scans = cached.clone();
        scans.set_decision_cache_enabled(false);
        cached.set_decision_log_enabled(true);
        scans.set_decision_log_enabled(true);

        // A query mix that exercises the scan, MRU-cache, and latch paths
        // on the cached side (repeats hit the latch, alternations the MRU
        // cache) while the uncached side scans every time.
        let accesses = [
            (0x1004u32, 0x8004u32, AccessKind::Read),
            (0x1004, 0x8004, AccessKind::Read), // latch hit
            (0x1004, 0x8004, AccessKind::Write),
            (0x2004, 0x9004, AccessKind::Write), // protected by other rule
            (0x1004, 0x8004, AccessKind::Read),  // MRU-cache hit
            (0x0400, 0x8004, AccessKind::Write), // denied
            (0x0400, 0x0500, AccessKind::Read),  // unprotected
        ];
        for &(eip, addr, kind) in &accesses {
            assert_eq!(
                cached.check_access(eip, addr, kind),
                scans.check_access(eip, addr, kind)
            );
        }
        let transfers = [
            (0x0400u32, 0x1000u32), // entry
            (0x0400, 0x1000),       // latch hit
            (0x0400, 0x1004),       // mid-region
            (0x1004, 0x1008),       // internal
            (0x0400, 0x0500),       // unprotected
        ];
        for &(from, to) in &transfers {
            assert_eq!(
                cached.check_transfer(from, to),
                scans.check_transfer(from, to)
            );
        }

        let log = cached.take_decision_log();
        assert_eq!(log, scans.take_decision_log());
        assert_eq!(log.len(), accesses.len() + transfers.len());
        assert_eq!(
            log[0],
            DecisionRecord::Access {
                eip: 0x1004,
                addr: 0x8004,
                kind: AccessKind::Read,
                decision: AccessDecision::AllowedByRule { slot: 0 },
            }
        );
        // Taking drains; with logging off nothing accumulates.
        assert!(cached.take_decision_log().is_empty());
        cached.set_decision_log_enabled(false);
        cached.check_access(0x1004, 0x8004, AccessKind::Read);
        assert!(cached.take_decision_log().is_empty());
    }
}
