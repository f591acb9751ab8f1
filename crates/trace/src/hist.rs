//! Log-linear (HDR-style) fixed-bin latency histograms.
//!
//! The bench trajectory needs *distributions*, not just totals: the paper's
//! real-time claims (§6, Tables 4–6) are about worst-case interrupt latency
//! and context-switch jitter, which a mean hides. A [`Histogram`] records
//! `u64` cycle durations into a fixed set of bins — exact below 16, then 16
//! sub-buckets per power of two — so the relative quantile error is bounded
//! by 1/16 (6.25%) at any magnitude while the whole structure stays a flat
//! array of relaxed atomics: recording is lock-free, allocation-free, and
//! guest-cycle-neutral like the rest of the observation plane.
//!
//! [`Histograms`] is the registry mirroring [`crate::Counters`]: register
//! a name once, copy the [`HistId`] into the recording path, and degrade
//! to a discard id past capacity instead of aborting. A histogram's bins
//! are allocated when its name is registered, so an empty registry costs
//! a few KiB, not one 8 KiB bin array per possible slot. Registries
//! kept apart (one per thread, say) fold into one with
//! [`Histograms::absorb`].
//!
//! # Examples
//!
//! ```
//! use tytan_trace::hist::Histograms;
//!
//! let hists = Histograms::new();
//! let irq = hists.register("irq_entry");
//! for v in [10, 12, 300, 40_000] {
//!     hists.record(irq, v);
//! }
//! let s = hists.get("irq_entry").unwrap().summary();
//! assert_eq!(s.count, 4);
//! assert_eq!(s.max, 40_000);
//! assert!(s.p50 >= 10 && s.p50 <= 12);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Values below this record exactly (one bin per value).
const LINEAR_LIMIT: u64 = 16;
/// Sub-buckets per power of two above the linear range.
const SUB_BUCKETS: usize = 16;
/// Total bins: 16 exact + 16 per power of two for exponents 4..=63.
pub const NUM_BUCKETS: usize = LINEAR_LIMIT as usize + (64 - 4) * SUB_BUCKETS;

/// Maximum number of registered histograms. Registration past this point
/// returns [`HistId::DISCARD`], whose recordings are dropped and never
/// reported — observability degrades, it never aborts the platform.
pub const MAX_HISTOGRAMS: usize = 64;

/// Bin index for a value: identity below 16, then log-linear.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        v as usize
    } else {
        // msb >= 4; the top 5 significant bits select the bin, so every
        // bin spans at most 1/16 of its value range.
        let msb = 63 - v.leading_zeros() as usize;
        LINEAR_LIMIT as usize + (msb - 4) * SUB_BUCKETS + (((v >> (msb - 4)) as usize) & 15)
    }
}

/// Smallest value mapping to bin `i` (the reported quantile value).
fn bucket_low(i: usize) -> u64 {
    if i < LINEAR_LIMIT as usize {
        i as u64
    } else {
        let rel = i - LINEAR_LIMIT as usize;
        let msb = 4 + rel / SUB_BUCKETS;
        let sub = (rel % SUB_BUCKETS) as u64;
        (16 + sub) << (msb - 4)
    }
}

/// Point-in-time summary of one distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// 50th percentile (bin lower bound; exact below 16).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest recorded value (exact, not binned).
    pub max: u64,
}

/// One log-linear histogram of `u64` durations.
///
/// All operations are relaxed atomics; `record` is safe to call from any
/// layer at any time and never blocks or allocates.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(v);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Saturating sum: a wrapped total would corrupt every derived mean.
    fn add_sum(&self, v: u64) {
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Adds `other`'s recordings to this histogram, as if every value
    /// `other` recorded had been recorded here too. Empty bins are
    /// skipped: most of the bin array of a latency histogram is empty,
    /// and an atomic add per bin would cost more than the merge needs.
    fn absorb(&self, other: &Histogram) {
        if other.is_empty() {
            return;
        }
        for (dst, src) in self.counts.iter().zip(&other.counts) {
            let n = src.load(Ordering::Relaxed);
            if n != 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.add_sum(other.sum());
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the first bin
    /// whose cumulative count reaches `ceil(q * count)`. Exact below 16,
    /// within 1/16 relative error above. Returns 0 for an empty histogram;
    /// `q >= 1` reports the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_low(i);
            }
        }
        self.max()
    }

    /// Count/sum/p50/p90/p99/max in one pass-friendly struct.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Clears all bins and stats (for registry reuse across runs).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Handle to one registered histogram. Copy it into recording paths so
/// each `record` is an index plus three relaxed atomic ops, no lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

impl HistId {
    /// The overflow id: recordings through it are dropped, and nothing is
    /// ever snapshotted under it.
    pub const DISCARD: HistId = HistId(MAX_HISTOGRAMS);
}

/// A registry of named histograms, mirroring [`crate::Counters`]:
/// registration is idempotent by name, capacity overflow degrades to
/// [`HistId::DISCARD`], recording is lock-free and allocation-free.
///
/// A histogram's bins (about 8 KiB) are allocated when its name is
/// registered; an empty registry holds none, so a tracer made for a
/// short run costs only what that run registers.
#[derive(Debug)]
pub struct Histograms {
    names: Mutex<Vec<String>>,
    // Slot `i` is filled, under the `names` lock, when the `i`th name
    // registers; `HistId::DISCARD` indexes past the end.
    hists: [OnceLock<Histogram>; MAX_HISTOGRAMS],
}

impl Default for Histograms {
    fn default() -> Self {
        Histograms::new()
    }
}

impl Histograms {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Histograms {
            names: Mutex::new(Vec::new()),
            hists: [const { OnceLock::new() }; MAX_HISTOGRAMS],
        }
    }

    /// Registers (or finds) the histogram named `name`. Registering the
    /// same name twice returns the same id.
    pub fn register(&self, name: &str) -> HistId {
        let mut names = self.names.lock().expect("histogram registry lock");
        if let Some(i) = names.iter().position(|n| n == name) {
            return HistId(i);
        }
        if names.len() >= MAX_HISTOGRAMS {
            return HistId::DISCARD;
        }
        names.push(name.to_string());
        let i = names.len() - 1;
        self.hists[i].get_or_init(Histogram::new);
        HistId(i)
    }

    /// Number of registered histograms.
    pub fn len(&self) -> usize {
        self.names.lock().expect("histogram registry lock").len()
    }

    /// Whether no histograms are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The histogram behind `id`; `None` only for [`HistId::DISCARD`].
    fn slot(&self, id: HistId) -> Option<&Histogram> {
        self.hists.get(id.0).and_then(OnceLock::get)
    }

    /// Records one value into the histogram behind `id` (dropped for
    /// [`HistId::DISCARD`]).
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        if let Some(h) = self.slot(id) {
            h.record(v);
        }
    }

    /// Looks a histogram up by name, if registered.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        let names = self.names.lock().expect("histogram registry lock");
        let i = names.iter().position(|n| n == name)?;
        self.hists[i].get()
    }

    /// Summaries of every *non-empty* registered histogram, in
    /// registration order. Empty distributions are skipped: a latency
    /// table full of zero rows only hides the ones that measured.
    pub fn snapshot(&self) -> Vec<(String, Summary)> {
        let names = self.names.lock().expect("histogram registry lock");
        names
            .iter()
            .zip(&self.hists)
            .filter_map(|(n, slot)| {
                let h = slot.get().filter(|h| !h.is_empty())?;
                Some((n.clone(), h.summary()))
            })
            .collect()
    }

    /// Resets every histogram (names stay registered).
    pub fn reset(&self) {
        for h in self.hists.iter().filter_map(OnceLock::get) {
            h.reset();
        }
    }

    /// Folds `other`'s recordings into this registry. Every name `other`
    /// registered is registered here too, in `other`'s order and whether
    /// or not it recorded anything; each histogram's bins and count add,
    /// its sum adds saturating, and the larger max is kept. Quantiles of
    /// the result are those of one histogram that recorded both streams.
    pub fn absorb(&self, other: &Histograms) {
        // A copy of the names, so absorbing never holds both locks.
        let names = other.names.lock().expect("histogram registry lock").clone();
        for (name, src) in names.iter().zip(&other.hists) {
            let id = self.register(name);
            if let (Some(dst), Some(src)) = (self.slot(id), src.get()) {
                dst.absorb(src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), (0..16).sum::<u64>());
        assert_eq!(h.quantile(0.0), 0);
        // rank ceil(0.5*16)=8 → 8th smallest (1-based) is value 7.
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        // Every bin's lower bound maps back into that bin, bounds strictly
        // increase, and the relative width never exceeds 1/16.
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "bin {i} low {low}");
            if let Some(p) = prev {
                assert!(low > p, "bin {i} not monotone");
            }
            prev = Some(low);
        }
        for v in [16u64, 17, 255, 256, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            let low = bucket_low(i);
            assert!(low <= v);
            // Width of the bin is low/16 for log-linear bins.
            if v >= 16 {
                assert!(
                    (v - low) as f64 <= low as f64 / 16.0 + 1.0,
                    "v={v} low={low}"
                );
            }
        }
    }

    #[test]
    fn quantiles_are_within_one_sixteenth() {
        let h = Histogram::new();
        // A spread of magnitudes: 1000 values from 100 to 100_000.
        for i in 0..1000u64 {
            h.record(100 + i * 100);
        }
        let p50 = h.quantile(0.5);
        let exact = 100 + 499 * 100; // 500th smallest
        assert!(
            (p50 as f64 - exact as f64).abs() / exact as f64 <= 1.0 / 16.0,
            "p50={p50} exact={exact}"
        );
        assert_eq!(h.quantile(1.0), 100 + 999 * 100);
        assert_eq!(h.max(), 100 + 999 * 100);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(
            s,
            Summary {
                count: 0,
                sum: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0
            }
        );
    }

    #[test]
    fn sum_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX - 1);
        h.record(u64::MAX - 1);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn registry_is_idempotent_and_degrades() {
        let r = Histograms::new();
        let a = r.register("a");
        assert_eq!(r.register("a"), a);
        for i in 0..MAX_HISTOGRAMS - 1 {
            r.register(&format!("h{i}"));
        }
        assert_eq!(r.len(), MAX_HISTOGRAMS);
        let spill = r.register("one_too_many");
        assert_eq!(spill, HistId::DISCARD);
        r.record(spill, 42);
        assert!(r.get("one_too_many").is_none());
        assert!(
            r.get("a").unwrap().is_empty(),
            "discard must not alias slot 0"
        );
    }

    #[test]
    fn snapshot_skips_empty_distributions() {
        let r = Histograms::new();
        let a = r.register("recorded");
        r.register("silent");
        r.record(a, 5);
        r.record(a, 500);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "recorded");
        assert_eq!(snap[0].1.count, 2);
        assert_eq!(snap[0].1.max, 500);
        r.reset();
        assert!(r.snapshot().is_empty());
        assert_eq!(r.len(), 2, "names survive a reset");
    }

    #[test]
    fn bins_are_allocated_on_registration() {
        let r = Histograms::new();
        assert!(r.hists.iter().all(|slot| slot.get().is_none()));
        let a = r.register("a");
        r.register("b");
        r.register("a");
        let filled = r.hists.iter().filter(|slot| slot.get().is_some()).count();
        assert_eq!(filled, 2, "one histogram per registered name");
        r.record(a, 3);
        assert_eq!(r.get("a").unwrap().count(), 1);
    }

    #[test]
    fn discard_recordings_are_dropped_and_never_snapshotted() {
        let r = Histograms::new();
        r.record(HistId::DISCARD, 1);
        assert!(r.snapshot().is_empty() && r.is_empty());
        for i in 0..MAX_HISTOGRAMS {
            r.register(&format!("h{i}"));
        }
        let spill = r.register("spill");
        assert_eq!(spill, HistId::DISCARD);
        for v in [5, 77, u64::MAX] {
            r.record(spill, v);
        }
        assert!(r.snapshot().is_empty(), "nothing recorded under a name");
        assert!(r.get("spill").is_none());
        assert!(r.hists.iter().all(|slot| slot.get().unwrap().is_empty()));
    }

    #[test]
    fn absorb_sums_counts_and_sums_and_keeps_the_larger_max() {
        let (a, b) = (Histograms::new(), Histograms::new());
        let (ia, ib) = (a.register("lat"), b.register("lat"));
        for v in [3, 40, 1_000] {
            a.record(ia, v);
        }
        for v in [7, 90_000] {
            b.record(ib, v);
        }
        a.absorb(&b);
        let s = a.get("lat").unwrap().summary();
        assert_eq!(
            (s.count, s.sum, s.max),
            (5, 3 + 40 + 1_000 + 7 + 90_000, 90_000)
        );
        assert_eq!(b.get("lat").unwrap().count(), 2, "the source is unchanged");

        // The sum saturates instead of wrapping; the max stays the larger.
        let big = Histograms::new();
        big.record(big.register("lat"), u64::MAX - 1);
        a.absorb(&big);
        let s = a.get("lat").unwrap().summary();
        assert_eq!((s.count, s.sum, s.max), (6, u64::MAX, u64::MAX - 1));
    }

    #[test]
    fn merged_quantiles_equal_one_histogram_of_both_streams() {
        let (left, right, both) = (Histograms::new(), Histograms::new(), Histograms::new());
        let (l, r, b) = (left.register("x"), right.register("x"), both.register("x"));
        for i in 0..5_000u64 {
            // Two differently shaped streams: small linear, wide geometric.
            let (u, v) = (i % 37, 100 + (i * i) % 1_000_003);
            left.record(l, u);
            right.record(r, v);
            both.record(b, u);
            both.record(b, v);
        }
        left.absorb(&right);
        let merged = left.get("x").unwrap();
        let single = both.get("x").unwrap();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), single.quantile(q), "q={q}");
        }
        assert_eq!(merged.summary(), single.summary());
    }

    #[test]
    fn absorb_registers_names_that_recorded_nothing() {
        let (into, from) = (Histograms::new(), Histograms::new());
        into.register("mine");
        from.register("quiet");
        let loud = from.register("loud");
        from.record(loud, 9);
        into.absorb(&from);
        assert_eq!(into.len(), 3);
        assert!(into.get("quiet").unwrap().is_empty());
        assert_eq!(into.get("loud").unwrap().count(), 1);
        let names: Vec<String> = into.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["loud".to_string()],
            "empty ones stay unreported"
        );
    }
}
