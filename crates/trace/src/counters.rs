//! The monotonic counter registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum number of registered counters. Registration past this point
/// returns [`CounterId::DISCARD`], a sink slot whose value is never
/// reported — observability must degrade, never abort the platform.
pub const MAX_COUNTERS: usize = 128;

/// Handle to one registered counter. Copy it into hot paths so increments
/// are a single relaxed atomic add with no name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

impl CounterId {
    /// The overflow slot: increments land in a counter that is counted
    /// (as `counters_discarded` pressure) but never snapshotted by name.
    pub const DISCARD: CounterId = CounterId(MAX_COUNTERS);
}

/// A registry of named, monotonic, saturating `u64` counters.
///
/// Increments are relaxed atomics — safe to share across layers and
/// threads, never blocking the hot path. Values saturate at `u64::MAX`
/// instead of wrapping, so a rate computed from a snapshot can never go
/// negative over any observation interval.
///
/// # Examples
///
/// ```
/// use tytan_trace::Counters;
///
/// let counters = Counters::new();
/// let hits = counters.register("cache_hits");
/// counters.add(hits, 2);
/// counters.add(hits, 1);
/// assert_eq!(counters.get("cache_hits"), Some(3));
/// assert_eq!(counters.snapshot(), vec![("cache_hits".to_string(), 3)]);
/// ```
#[derive(Debug)]
pub struct Counters {
    names: Mutex<Vec<String>>,
    // One extra slot receives increments of `CounterId::DISCARD`.
    values: [AtomicU64; MAX_COUNTERS + 1],
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

impl Counters {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Counters {
            names: Mutex::new(Vec::new()),
            values: [const { AtomicU64::new(0) }; MAX_COUNTERS + 1],
        }
    }

    /// Registers (or finds) the counter named `name`. Registering a
    /// duplicate name returns the *existing* id — never a second slot —
    /// so layers can share counters by name without coordination, and a
    /// re-attach cannot split one metric across two cells. The duplicate
    /// lookup succeeds even when the registry is full.
    pub fn register(&self, name: &str) -> CounterId {
        let mut names = self.names.lock().expect("counter registry lock");
        if let Some(i) = names.iter().position(|n| n == name) {
            return CounterId(i);
        }
        if names.len() >= MAX_COUNTERS {
            return CounterId::DISCARD;
        }
        names.push(name.to_string());
        CounterId(names.len() - 1)
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.names.lock().expect("counter registry lock").len()
    }

    /// Whether no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to the counter, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, id: CounterId, delta: u64) {
        let cell = &self.values[id.0];
        // A compare-exchange loop implements *saturating* add; the common
        // far-from-saturation case is one load + one CAS.
        let mut current = cell.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(delta);
            match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Convenience: adds one.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Reads a counter's value by id.
    pub fn value(&self, id: CounterId) -> u64 {
        self.values[id.0].load(Ordering::Relaxed)
    }

    /// Reads a counter's value by name, if registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        let names = self.names.lock().expect("counter registry lock");
        let i = names.iter().position(|n| n == name)?;
        Some(self.values[i].load(Ordering::Relaxed))
    }

    /// Snapshot of all registered counters in registration order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let names = self.names.lock().expect("counter registry lock");
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), self.values[i].load(Ordering::Relaxed)))
            .collect()
    }

    /// Resets every counter to zero (names stay registered).
    pub fn reset(&self) {
        for v in &self.values {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// Folds `other`'s counts into this registry: every name `other`
    /// registered is registered here too, in `other`'s order and even
    /// at zero, and each non-zero value is added (saturating).
    pub fn absorb(&self, other: &Counters) {
        for (name, value) in other.snapshot() {
            let id = self.register(&name);
            if value != 0 {
                self.add(id, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let c = Counters::new();
        let a = c.register("a");
        let b = c.register("b");
        assert_ne!(a, b);
        assert_eq!(c.register("a"), a);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn duplicate_register_shares_one_cell_and_get_unknown_is_none() {
        let c = Counters::new();
        // `get` on a name nobody registered is None, not zero — callers
        // can distinguish "never existed" from "never incremented".
        assert_eq!(c.get("ghost"), None);
        let first = c.register("shared");
        let second = c.register("shared");
        assert_eq!(first, second);
        c.add(first, 2);
        c.add(second, 3);
        assert_eq!(c.get("shared"), Some(5), "one cell, not two");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("ghost"), None);
    }

    #[test]
    fn duplicate_register_resolves_even_when_full() {
        let c = Counters::new();
        let early = c.register("early");
        for i in 0..MAX_COUNTERS - 1 {
            c.register(&format!("c{i}"));
        }
        assert_eq!(c.len(), MAX_COUNTERS);
        // A full registry still finds existing names by lookup...
        assert_eq!(c.register("early"), early);
        // ...and only truly new names degrade to the discard slot.
        assert_eq!(c.register("late"), CounterId::DISCARD);
    }

    #[test]
    fn add_saturates_at_max() {
        let c = Counters::new();
        let id = c.register("near_max");
        c.add(id, u64::MAX - 5);
        c.add(id, 3);
        assert_eq!(c.value(id), u64::MAX - 2);
        // Crossing the ceiling pins at MAX instead of wrapping...
        c.add(id, 100);
        assert_eq!(c.value(id), u64::MAX);
        // ...and stays there.
        c.incr(id);
        assert_eq!(c.get("near_max"), Some(u64::MAX));
    }

    #[test]
    fn registry_overflow_degrades_to_discard() {
        let c = Counters::new();
        for i in 0..MAX_COUNTERS {
            assert_ne!(c.register(&format!("c{i}")), CounterId::DISCARD);
        }
        let spill = c.register("one_too_many");
        assert_eq!(spill, CounterId::DISCARD);
        // Adding through the discard id must not panic or alias slot 0.
        c.add(spill, 7);
        assert_eq!(c.get("c0"), Some(0));
        assert_eq!(c.get("one_too_many"), None);
        assert_eq!(c.len(), MAX_COUNTERS);
    }

    #[test]
    fn snapshot_and_reset() {
        let c = Counters::new();
        let x = c.register("x");
        let y = c.register("y");
        c.add(x, 5);
        c.add(y, 9);
        assert_eq!(
            c.snapshot(),
            vec![("x".to_string(), 5), ("y".to_string(), 9)]
        );
        c.reset();
        assert_eq!(c.value(x), 0);
        assert_eq!(c.value(y), 0);
        assert_eq!(c.len(), 2, "names survive a reset");
    }

    #[test]
    fn absorb_adds_values_saturating_and_registers_zero_names() {
        let (into, from) = (Counters::new(), Counters::new());
        let mine = into.register("shared");
        into.add(mine, u64::MAX - 1);
        let theirs = from.register("shared");
        from.add(theirs, 5);
        from.register("zero");
        let only = from.register("only_there");
        from.add(only, 3);
        into.absorb(&from);
        assert_eq!(
            into.snapshot(),
            vec![
                ("shared".to_string(), u64::MAX),
                ("zero".to_string(), 0),
                ("only_there".to_string(), 3),
            ]
        );
        assert_eq!(from.get("shared"), Some(5), "the source is unchanged");
    }
}
