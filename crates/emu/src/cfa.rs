//! The control-flow monitor: the prover half of the CFA plane.
//!
//! When attached to a [`Machine`](crate::Machine), the monitor observes
//! every *taken* intra-task control-flow edge — jumps, taken
//! conditional branches, register-indirect jumps, calls and returns —
//! and folds each into a [`CfChain`] while keeping the edge log for
//! the verifier to replay. Interrupt entries and exits are deliberately
//! invisible: preemption is the kernel's business, not the task's
//! control flow, so the chain is identical whether or not the task was
//! interrupted (and therefore identical across execution engines,
//! whose IRQ delivery boundaries differ only in batching).
//!
//! The log is **run-length encoded at record time**: real task logs are
//! loop-dominated, so a repeated edge is held as one `(from, to,
//! count)` run instead of `count` raw entries, and each maximal run
//! folds into the chain in a single compression
//! ([`CfChain::fold_run`]). The raw edge-stream semantics stay
//! observable through [`CfMonitor::expanded`], which the engine-identity
//! and fuzz oracles use to compare exact edge streams.
//!
//! Edges that cross the monitored-region boundary are **not** dropped:
//! a transfer that leaves the region records the sentinel edge
//! `(from, OUT_OF_REGION)` and the transfer that re-enters records
//! `(OUT_OF_REGION, to)`. A detour that jumps to unmonitored code and
//! back therefore leaves evidence in the log and moves the chain head —
//! the verifier types such sentinels as inadmissible unless the exit
//! site is a declared external call. Only edges with *both* endpoints
//! outside the region (foreign tasks, kernel internals) stay invisible.
//!
//! The monitor obeys the same neutrality contract as the tracer and the
//! cycle observer: it never advances the clock and never changes an
//! execution outcome. It filters to a single monitored code region and
//! records addresses *task-relative* (rebased against the region
//! start), so the log compares directly against the base-0 static CFG
//! that `tytan-lint` recovers from the image.

use eampu::Region;
use tytan_crypto::chain::{expand_runs, CfChain, CHAIN_LEN};

/// Hard cap on logged edges (raw, i.e. sum of run counts), bounding
/// prover memory and verifier replay work. A monitor that hits the cap
/// marks itself truncated and freezes both log and chain; an honest
/// device refuses to attest a truncated run.
pub const CF_LOG_CAP: usize = 1 << 16;

/// Task-relative sentinel endpoint marking the unmonitored outside
/// world in a recorded edge: `(from, OUT_OF_REGION)` is a region exit,
/// `(OUT_OF_REGION, to)` a re-entry. Cannot collide with a genuine
/// rebased address — a monitored region is far smaller than 4 GiB.
/// Must match `tytan_lint::OUT_OF_REGION`, which types these edges
/// verifier-side (pinned by test where both crates are visible).
pub const OUT_OF_REGION: u32 = u32::MAX;

/// An attached control-flow monitor (see the module docs).
#[derive(Debug, Clone)]
pub struct CfMonitor {
    region: Region,
    /// Chain folded through every *completed* run in `runs[..len-1]`;
    /// the last run may still be extending and folds lazily in
    /// [`CfMonitor::chain_head`].
    chain: CfChain,
    runs: Vec<(u32, u32, u32)>,
    /// Raw edges recorded (sum of run counts).
    edges: u64,
    truncated: bool,
}

impl CfMonitor {
    /// A fresh monitor over the absolute code region `region`.
    pub fn new(region: Region) -> CfMonitor {
        CfMonitor {
            region,
            chain: CfChain::new(),
            runs: Vec::new(),
            edges: 0,
            truncated: false,
        }
    }

    /// The monitored absolute code region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Records one taken edge. Both endpoints in the region record the
    /// rebased pair; boundary-crossing edges record an
    /// [`OUT_OF_REGION`] sentinel endpoint; edges entirely outside are
    /// ignored. Called from the interpreter's retire path; must stay
    /// cycle-free. The translator's budgeted loop records the back edge
    /// of a self-loop chain once per chain, through
    /// [`CfMonitor::record_repeat`].
    #[inline]
    pub(crate) fn record(&mut self, from: u32, to: u32) {
        let Some((from, to)) = self.rebase(from, to) else {
            return;
        };
        if self.edges as usize >= CF_LOG_CAP {
            self.truncated = true;
            return;
        }
        match self.runs.last_mut() {
            Some((f, t, n)) if *f == from && *t == to && *n < u32::MAX => *n += 1,
            _ => {
                // The previous run can no longer extend: fold it.
                if let Some(&(f, t, n)) = self.runs.last() {
                    self.chain.fold_run(f, t, n);
                }
                self.runs.push((from, to, 1));
            }
        }
        self.edges += 1;
    }

    /// Records the taken edge `from -> to` `n` times in a row: the same
    /// log, chain and truncation as `n` calls of [`CfMonitor::record`],
    /// so a cap reached partway keeps the edges that fit and marks the
    /// log truncated.
    pub(crate) fn record_repeat(&mut self, from: u32, to: u32, n: u64) {
        let Some((from, to)) = self.rebase(from, to) else {
            return;
        };
        let room = (CF_LOG_CAP as u64).saturating_sub(self.edges);
        if n > room {
            self.truncated = true;
        }
        let mut n = n.min(room);
        self.edges += n;
        while n > 0 {
            match self.runs.last_mut() {
                Some((f, t, count)) if *f == from && *t == to && *count < u32::MAX => {
                    let more = n.min(u64::from(u32::MAX - *count));
                    *count += more as u32;
                    n -= more;
                }
                _ => {
                    if let Some(&(f, t, count)) = self.runs.last() {
                        self.chain.fold_run(f, t, count);
                    }
                    self.runs.push((from, to, 0));
                }
            }
        }
    }

    /// The edge as the log holds it: rebased, with a sentinel for an
    /// endpoint outside the region; `None` when both are outside.
    #[inline]
    fn rebase(&self, from: u32, to: u32) -> Option<(u32, u32)> {
        let base = self.region.start();
        match (self.region.contains(from), self.region.contains(to)) {
            (true, true) => Some((from - base, to - base)),
            (true, false) => Some((from - base, OUT_OF_REGION)),
            (false, true) => Some((OUT_OF_REGION, to - base)),
            (false, false) => None,
        }
    }

    /// The task-relative edge log recorded so far, as canonical maximal
    /// `(from, to, count)` runs in execution order.
    pub fn runs(&self) -> &[(u32, u32, u32)] {
        &self.runs
    }

    /// The raw edge stream the runs encode, in execution order — what
    /// pre-compression monitors logged, reconstructed lazily for the
    /// oracles that compare exact streams.
    pub fn expanded(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        expand_runs(&self.runs)
    }

    /// Raw edges recorded so far (sum of run counts).
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// The current chain head over the recorded log: the folded
    /// completed runs plus the still-open final run.
    pub fn chain_head(&self) -> [u8; CHAIN_LEN] {
        let mut chain = self.chain.clone();
        if let Some(&(f, t, n)) = self.runs.last() {
            chain.fold_run(f, t, n);
        }
        chain.head()
    }

    /// Whether the log hit [`CF_LOG_CAP`] and edges were dropped.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn records_rebased_edges_and_boundary_sentinels() {
        let mut m = CfMonitor::new(Region::new(0x1000, 0x100));
        m.record(0x1000, 0x1040); // in, in
        m.record(0x1040, 0x2000); // leaves the region: exit sentinel
        m.record(0x2000, 0x2004); // entirely outside: invisible
        m.record(0x2004, 0x1000); // re-enters: entry sentinel
        m.record(0x1044, 0x1000); // in, in
        let expected = [
            (0x0, 0x40, 1),
            (0x40, OUT_OF_REGION, 1),
            (OUT_OF_REGION, 0x0, 1),
            (0x44, 0x0, 1),
        ];
        assert_eq!(m.runs(), &expected);
        assert_eq!(m.edges(), 4);
        assert_eq!(m.chain_head(), CfChain::fold_runs(expected));
        assert!(!m.truncated());
    }

    #[test]
    fn repeated_edges_coalesce_into_one_run() {
        let mut m = CfMonitor::new(Region::new(0, 0x100));
        m.record(0, 8);
        for _ in 0..1000 {
            m.record(8, 4);
        }
        m.record(0, 8);
        assert_eq!(m.runs(), &[(0, 8, 1), (8, 4, 1000), (0, 8, 1)]);
        assert_eq!(m.edges(), 1002);
        let raw: Vec<(u32, u32)> = m.expanded().collect();
        assert_eq!(raw.len(), 1002);
        assert_eq!(raw[0], (0, 8));
        assert!(raw[1..1001].iter().all(|&e| e == (8, 4)));
        assert_eq!(m.chain_head(), CfChain::fold_all(raw));
    }

    #[test]
    fn chain_head_is_stable_under_observation() {
        // chain_head folds the open run on a clone; observing it must
        // not disturb subsequent recording.
        let mut m = CfMonitor::new(Region::new(0, 0x100));
        m.record(0, 4);
        let _ = m.chain_head();
        m.record(0, 4);
        assert_eq!(m.runs(), &[(0, 4, 2)]);
        assert_eq!(m.chain_head(), CfChain::fold_runs([(0, 4, 2)]));
    }

    /// A first batch of up to 70,000 repeats, then short `(from, to,
    /// n)` batches over a small region: in-region edges, a crossing edge
    /// and an outside one, so most cases cross `CF_LOG_CAP` partway
    /// through a batch.
    fn batches() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
        let end = || prop_oneof![Just(0u32), Just(4u32), Just(8u32), Just(0x200u32)];
        let first = (end(), end(), 0u64..70_000);
        let rest = collection::vec((end(), end(), 0u64..5_000), 0..10);
        (first, rest).prop_map(|(first, rest)| std::iter::once(first).chain(rest).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn record_repeat_equals_n_records(batches in batches()) {
            let mut once = CfMonitor::new(Region::new(0, 0x100));
            let mut each = once.clone();
            for &(from, to, n) in &batches {
                once.record_repeat(from, to, n);
                for _ in 0..n {
                    each.record(from, to);
                }
                prop_assert_eq!(once.runs(), each.runs());
                prop_assert_eq!(once.edges(), each.edges());
                prop_assert_eq!(once.truncated(), each.truncated());
                prop_assert_eq!(once.chain_head(), each.chain_head());
            }
        }
    }

    #[test]
    fn record_repeat_stops_at_the_cap() {
        let mut m = CfMonitor::new(Region::new(0, 0x100));
        m.record(8, 0);
        m.record_repeat(0, 4, CF_LOG_CAP as u64);
        assert!(m.truncated());
        assert_eq!(m.edges(), CF_LOG_CAP as u64);
        assert_eq!(m.runs(), &[(8, 0, 1), (0, 4, CF_LOG_CAP as u32 - 1)]);
        // Zero repeats record nothing, even at the cap.
        let mut fresh = CfMonitor::new(Region::new(0, 0x100));
        fresh.record_repeat(0, 4, 0);
        assert!(fresh.runs().is_empty() && !fresh.truncated());
    }

    #[test]
    fn cap_freezes_log_and_chain() {
        let mut m = CfMonitor::new(Region::new(0, 0x100));
        for _ in 0..CF_LOG_CAP {
            m.record(0, 4);
        }
        assert!(!m.truncated());
        // The whole capped log is one run.
        assert_eq!(m.runs(), &[(0, 4, CF_LOG_CAP as u32)]);
        let head = m.chain_head();
        m.record(4, 0);
        assert!(m.truncated());
        assert_eq!(m.edges(), CF_LOG_CAP as u64);
        assert_eq!(m.chain_head(), head);
    }
}
