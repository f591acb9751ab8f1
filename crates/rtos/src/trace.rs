//! Scheduling trace for real-time analysis.
//!
//! Table 1 of the paper verifies that tasks keep their deadlines while a
//! new task loads; the trace records every scheduling decision with its
//! cycle timestamp so experiments can compute achieved task frequencies
//! and check deadlines offline.
//!
//! The trace is a *bounded* drop-oldest ring: long-running platforms trace
//! forever in constant memory, keeping the newest
//! [`SchedTrace::capacity`] events and counting what they shed in
//! [`SchedTrace::dropped`]. Every consumer in this workspace analyses a
//! recent bounded window (or clears the trace first), so drop-oldest is
//! the correct policy.
//!
//! A [`SchedTrace`] can additionally forward every event onto the shared
//! cross-layer sink (see [`SchedTrace::set_sink`]), where it appears on the
//! `rtos` track of the Chrome trace export next to the emulator's IRQ spans
//! and the core layer's loader/IPC/attestation markers.

use crate::tcb::TaskHandle;
use tytan_trace::{EventKind, Layer, Ring, Tracer};

/// What happened at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEventKind {
    /// A task was given the CPU.
    Dispatched(TaskHandle),
    /// The idle loop was entered (no ready task).
    Idle,
    /// A kernel tick was processed.
    Tick(u64),
    /// A task was created.
    Created(TaskHandle),
    /// A task was deleted.
    Deleted(TaskHandle),
    /// A task blocked (delay or queue).
    Blocked(TaskHandle),
    /// A task was suspended.
    Suspended(TaskHandle),
    /// A task was resumed from suspension.
    Resumed(TaskHandle),
}

/// A timestamped scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// Cycle counter at the event.
    pub cycle: u64,
    /// The event.
    pub kind: SchedEventKind,
}

/// Default ring capacity: comfortably covers the longest analysis window
/// any experiment uses (a few million cycles of scheduling activity) while
/// bounding a day-long run to the same memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A bounded scheduling trace (drop-oldest ring).
///
/// # Examples
///
/// ```
/// use rtos::{SchedEvent, SchedEventKind, SchedTrace, TaskHandle};
///
/// let mut trace = SchedTrace::new();
/// trace.record(100, SchedEventKind::Idle);
/// assert_eq!(trace.events().len(), 1);
/// assert_eq!(trace.dropped(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SchedTrace {
    events: Ring<SchedEvent>,
    sink: Option<Tracer>,
}

impl Default for SchedTrace {
    fn default() -> Self {
        SchedTrace::new()
    }
}

impl SchedTrace {
    /// Creates an empty trace with the default capacity.
    pub fn new() -> Self {
        SchedTrace::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an empty trace keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        SchedTrace {
            events: Ring::new(capacity),
            sink: None,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Number of events dropped to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Forwards every subsequently recorded event onto the shared
    /// cross-layer sink as `rtos`-layer events: dispatches land on the
    /// dispatched task's track, ticks and idle entries on the kernel's main
    /// track. The local ring keeps recording independently.
    pub fn set_sink(&mut self, tracer: Tracer) {
        self.sink = Some(tracer);
    }

    /// Records an event, dropping the oldest retained event when the ring
    /// is full.
    pub fn record(&mut self, cycle: u64, kind: SchedEventKind) {
        if let Some(tracer) = &self.sink {
            forward(tracer, cycle, kind);
        }
        self.events.push(SchedEvent { cycle, kind });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<SchedEvent> {
        self.events.iter().copied().collect()
    }

    /// Clears the trace and resets the dropped count.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

/// Maps a scheduling event onto the shared sink's event vocabulary.
fn forward(tracer: &Tracer, cycle: u64, kind: SchedEventKind) {
    let (tid, event) = match kind {
        SchedEventKind::Dispatched(h) => (h.index() as u32, EventKind::Mark("dispatch")),
        SchedEventKind::Idle => (0, EventKind::Mark("idle")),
        SchedEventKind::Tick(n) => (0, EventKind::Value("tick", n)),
        SchedEventKind::Created(h) => (h.index() as u32, EventKind::Mark("task_created")),
        SchedEventKind::Deleted(h) => (h.index() as u32, EventKind::Mark("task_deleted")),
        SchedEventKind::Blocked(h) => (h.index() as u32, EventKind::Mark("task_blocked")),
        SchedEventKind::Suspended(h) => (h.index() as u32, EventKind::Mark("task_suspended")),
        SchedEventKind::Resumed(h) => (h.index() as u32, EventKind::Mark("task_resumed")),
    };
    tracer.emit(Layer::Rtos, tid, cycle, event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tytan_trace::RingRecorder;

    #[test]
    fn clear_empties() {
        let mut t = SchedTrace::new();
        t.record(1, SchedEventKind::Idle);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_with_accounting() {
        let mut t = SchedTrace::with_capacity(3);
        for i in 0..10u64 {
            t.record(i, SchedEventKind::Tick(i));
        }
        let cycles: Vec<u64> = t.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.capacity(), 3);
    }

    #[test]
    fn clear_after_wrap_restarts_accounting() {
        let mut t = SchedTrace::with_capacity(2);
        for i in 0..5u64 {
            t.record(i, SchedEventKind::Idle);
        }
        assert_eq!(t.dropped(), 3);
        t.clear();
        assert_eq!(t.dropped(), 0);
        t.record(9, SchedEventKind::Idle);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = SchedTrace::with_capacity(0);
    }

    #[test]
    fn sink_receives_rtos_layer_events() {
        let ring = Arc::new(RingRecorder::new(16));
        let mut t = SchedTrace::new();
        t.set_sink(Tracer::new(ring.clone()));
        t.record(100, SchedEventKind::Dispatched(TaskHandle(3)));
        t.record(200, SchedEventKind::Tick(7));
        t.record(300, SchedEventKind::Idle);

        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.layer == Layer::Rtos));
        assert_eq!(events[0].tid, 3, "dispatch lands on the task's track");
        assert_eq!(events[0].kind, EventKind::Mark("dispatch"));
        assert_eq!(events[1].kind, EventKind::Value("tick", 7));
        assert_eq!(events[2].kind, EventKind::Mark("idle"));
    }
}
