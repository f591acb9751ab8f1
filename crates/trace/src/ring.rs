//! The bounded drop-oldest ring and the event recorder built on it.

use crate::{TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::Mutex;

/// A bounded drop-oldest ring: the newest `capacity` items are kept,
/// older ones are dropped and counted. Long-running workloads can
/// therefore record forever in constant memory; consumers that care
/// about loss read [`Ring::dropped`]. Every bounded trace in the
/// workspace (trace events, structured log events, scheduling events)
/// is one of these.
///
/// # Examples
///
/// ```
/// use tytan_trace::ring::Ring;
///
/// let mut ring = Ring::new(2);
/// for n in 0..5 {
///     ring.push(n);
/// }
/// assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![3, 4]);
/// assert_eq!(ring.dropped(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring keeping at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be nonzero");
        Ring {
            items: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends `item`, dropping (and counting) the oldest if full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of currently retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items are retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items dropped to make room (saturating).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets all retained items and resets the dropped count.
    pub fn clear(&mut self) {
        self.items.clear();
        self.dropped = 0;
    }
}

/// A shared [`Ring`] of [`TraceEvent`]s: the [`TraceSink`] that keeps
/// the newest events. Recording is a few stores under a lock that is
/// never held across user code.
///
/// # Examples
///
/// ```
/// use tytan_trace::{EventKind, Layer, RingRecorder, TraceEvent, TraceSink};
///
/// let ring = RingRecorder::new(2);
/// for cycle in 0..5 {
///     ring.record(TraceEvent {
///         cycle,
///         layer: Layer::Emu,
///         tid: 0,
///         kind: EventKind::Mark("m"),
///     });
/// }
/// let kept: Vec<u64> = ring.events().iter().map(|e| e.cycle).collect();
/// assert_eq!(kept, vec![3, 4]);
/// assert_eq!(ring.dropped(), 3);
/// ```
#[derive(Debug)]
pub struct RingRecorder(Mutex<Ring<TraceEvent>>);

impl RingRecorder {
    /// Creates a recorder keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        RingRecorder(Mutex::new(Ring::new(capacity)))
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring<TraceEvent>> {
        self.0.lock().expect("ring lock")
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.ring().capacity()
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped to make room (monotonic, saturating).
    pub fn dropped(&self) -> u64 {
        self.ring().dropped()
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring().iter().copied().collect()
    }

    /// Forgets all retained events and resets the dropped count.
    pub fn clear(&self) {
        self.ring().clear();
    }
}

impl TraceSink for RingRecorder {
    fn record(&self, event: TraceEvent) {
        self.ring().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Layer};

    fn kept(ring: &Ring<u64>) -> Vec<u64> {
        ring.iter().copied().collect()
    }

    #[test]
    fn fills_then_wraps_in_order() {
        let mut ring = Ring::new(3);
        assert!(ring.is_empty());
        for n in 0..3 {
            ring.push(n);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.len(), 3);

        // Two more: 0 and 1 fall off, order stays oldest-first.
        ring.push(3);
        ring.push(4);
        assert_eq!(kept(&ring), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn wraps_many_times_with_exact_accounting() {
        let mut ring = Ring::new(4);
        for n in 0..100 {
            ring.push(n);
        }
        assert_eq!(kept(&ring), vec![96, 97, 98, 99]);
        assert_eq!(ring.dropped(), 96);
    }

    #[test]
    fn clear_resets_events_and_dropped() {
        let mut ring = Ring::new(2);
        for n in 0..5 {
            ring.push(n);
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.push(9);
        assert_eq!(kept(&ring), vec![9]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = Ring::<u64>::new(0);
    }

    #[test]
    fn recorder_is_a_ring_behind_the_sink() {
        let ring = RingRecorder::new(2);
        for cycle in 0..5 {
            ring.record(TraceEvent {
                cycle,
                layer: Layer::Emu,
                tid: 0,
                kind: EventKind::Mark("m"),
            });
        }
        let cycles: Vec<u64> = ring.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4]);
        assert_eq!((ring.len(), ring.capacity(), ring.dropped()), (2, 2, 3));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }
}
