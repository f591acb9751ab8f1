//! Cross-layer observability for the TyTAN reproduction.
//!
//! The paper's evaluation (Tables 1, 4, 7) is an exercise in knowing where
//! guest cycles go — interrupt entry, EA-MPU checks, IPC traps, attestation
//! — and the host-side caches (translated blocks, EA-MPU decision cache)
//! hold state whose effectiveness would otherwise be invisible.
//! This crate is the shared observation plane all layers report into:
//!
//! - [`TraceEvent`]: a cycle-stamped event tagged with the [`Layer`] that
//!   emitted it and a logical track id (task, vector, or concern).
//! - [`Tracer`]: the handle every layer reports through. Events go to an
//!   attached [`RingRecorder`], which keeps the newest events in a
//!   [`Ring`], the one bounded drop-oldest ring every trace in the
//!   workspace uses. [`Tracer::null`] has no recorder: an unattached
//!   layer pays one `Option` branch, nothing more.
//! - [`Counters`]: a monotonic, saturating counter registry shared across
//!   layers via relaxed atomics (lock-free on the increment path).
//! - [`chrome`]: Chrome `trace_event` JSON export (one pid per layer, one
//!   tid per task/track, spans from [`EventKind::Enter`]/[`EventKind::Exit`]
//!   pairs) loadable in `chrome://tracing` or Perfetto.
//! - [`json`]: a minimal JSON reader used to verify exports and validate
//!   `BENCH_tables.json` against its schema without external dependencies.
//! - [`events`]: a bounded structured event log (severity, device,
//!   session, correlation id, monotonic sequence) with a canonical,
//!   byte-round-trippable JSONL encoding — the narrative complement to
//!   the numeric registries.
//! - [`metrics`]: Prometheus text-format exposition of the counter and
//!   histogram registries, plus windowed delta snapshots (rates, not
//!   totals) for periodic emission.
//!
//! # Cycle neutrality
//!
//! Instrumentation observes the platform from the host side only: recording
//! an event or bumping a counter never calls `Machine::tick` and never
//! changes a decision. The differential identity suites
//! (`crates/emu/tests/engine_identity.rs`,
//! `crates/bench/tests/cycle_identity.rs`) run with a recorder attached and
//! assert guest cycle counts stay bit-identical.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use tytan_trace::{EventKind, Layer, RingRecorder, Tracer};
//!
//! let ring = Arc::new(RingRecorder::new(1024));
//! let tracer = Tracer::new(ring.clone());
//! let requests = tracer.counters().register("requests");
//!
//! tracer.emit(Layer::Core, 0, 100, EventKind::Enter("boot"));
//! tracer.emit(Layer::Core, 0, 250, EventKind::Exit("boot"));
//! tracer.counters().add(requests, 1);
//!
//! assert_eq!(ring.events().len(), 2);
//! assert_eq!(tracer.counters().get("requests"), Some(1));
//! let json = tytan_trace::chrome::chrome_trace_json(&ring.events());
//! assert!(tytan_trace::json::parse(&json).is_ok());
//! ```

use std::sync::Arc;

pub mod chrome;
pub mod counters;
pub mod events;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod ring;

pub use counters::{CounterId, Counters};
pub use hist::{HistId, Histograms};
pub use ring::{Ring, RingRecorder};

/// The layer of the stack an event originated from. Maps to one Chrome
/// trace pid per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The simulated core: instructions, faults, IRQs, MMIO.
    Emu,
    /// The execution-aware MPU: rule decisions and cache behaviour.
    EaMpu,
    /// The kernel: scheduling, ticks, task lifecycle.
    Rtos,
    /// TyTAN trusted components: loader, IPC proxy, attestation.
    Core,
    /// The host-side fleet verifier service: codec, sessions, batches.
    Fleet,
}

impl Layer {
    /// Stable display name (also the Chrome trace process name).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Emu => "emu",
            Layer::EaMpu => "eampu",
            Layer::Rtos => "rtos",
            Layer::Core => "core",
            Layer::Fleet => "fleet",
        }
    }

    /// Chrome trace pid for the layer (1-based, stable).
    pub fn pid(self) -> u32 {
        match self {
            Layer::Emu => 1,
            Layer::EaMpu => 2,
            Layer::Rtos => 3,
            Layer::Core => 4,
            Layer::Fleet => 5,
        }
    }
}

/// What happened. Names are `&'static str` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Begin of a named span (Chrome phase `B`). Must be balanced by an
    /// [`EventKind::Exit`] with the same name on the same `(layer, tid)`.
    Enter(&'static str),
    /// End of the matching span (Chrome phase `E`).
    Exit(&'static str),
    /// A point event (Chrome instant, phase `i`).
    Mark(&'static str),
    /// A point event carrying a value (exported as a Chrome counter, `C`).
    Value(&'static str, u64),
}

impl EventKind {
    /// The event's name irrespective of kind.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enter(n) | EventKind::Exit(n) | EventKind::Mark(n) => n,
            EventKind::Value(n, _) => n,
        }
    }
}

/// A cycle-stamped trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Guest cycle counter at the event.
    pub cycle: u64,
    /// Emitting layer (Chrome pid).
    pub layer: Layer,
    /// Logical track within the layer — task index, IRQ vector, or a
    /// per-concern lane (Chrome tid). `0` is the layer's main track.
    pub tid: u32,
    /// The event.
    pub kind: EventKind,
}

/// A cheaply-cloneable handle pairing an optional shared event recorder
/// with shared counter and histogram registries. Layers hold a `Tracer`
/// (or none at all) and report through it.
#[derive(Clone)]
pub struct Tracer {
    ring: Option<Arc<RingRecorder>>,
    counters: Arc<Counters>,
    hists: Arc<Histograms>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("counters", &self.counters.len())
            .field("histograms", &self.hists.len())
            .finish()
    }
}

impl Tracer {
    /// Builds a tracer recording events into `ring`, with fresh counter
    /// and histogram registries.
    pub fn new(ring: Arc<RingRecorder>) -> Self {
        Tracer::with_ring(Some(ring))
    }

    /// A tracer that records no events, with empty registries. Counters
    /// and histograms still record — they are cheap. Making one allocates
    /// no histogram bins: those come with each [`Histograms::register`],
    /// so a tracer per thread or per run costs what it registers.
    pub fn null() -> Self {
        Tracer::with_ring(None)
    }

    fn with_ring(ring: Option<Arc<RingRecorder>>) -> Self {
        Tracer {
            ring,
            counters: Arc::new(Counters::new()),
            hists: Arc::new(Histograms::new()),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The shared counter registry.
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The shared latency histogram registry. Like counters, histograms
    /// record even when no events are recorded — they are cheap, and the
    /// latency tables should not depend on event recording being on.
    pub fn histograms(&self) -> &Arc<Histograms> {
        &self.hists
    }

    /// Records one event if a recorder is attached.
    #[inline]
    pub fn emit(&self, layer: Layer, tid: u32, cycle: u64, kind: EventKind) {
        if let Some(ring) = &self.ring {
            ring.record(TraceEvent {
                cycle,
                layer,
                tid,
                kind,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_records_nothing_but_counts() {
        let t = Tracer::null();
        assert!(!t.enabled());
        let id = t.counters().register("x");
        t.counters().add(id, 3);
        t.emit(Layer::Emu, 0, 1, EventKind::Mark("m"));
        assert_eq!(t.counters().get("x"), Some(3));
    }

    #[test]
    fn null_tracer_still_records_histograms() {
        let t = Tracer::null();
        let id = t.histograms().register("lat");
        t.histograms().record(id, 12);
        t.histograms().record(id, 48);
        let s = t.histograms().get("lat").unwrap().summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 48);
    }

    #[test]
    fn emit_reaches_ring() {
        let ring = Arc::new(RingRecorder::new(4));
        let t = Tracer::new(ring.clone());
        assert!(t.enabled());
        t.emit(Layer::Rtos, 7, 42, EventKind::Value("tick", 9));
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cycle, 42);
        assert_eq!(events[0].tid, 7);
        assert_eq!(events[0].kind, EventKind::Value("tick", 9));
    }

    #[test]
    fn layer_pids_are_distinct() {
        let pids = [
            Layer::Emu,
            Layer::EaMpu,
            Layer::Rtos,
            Layer::Core,
            Layer::Fleet,
        ]
        .map(Layer::pid);
        for (i, a) in pids.iter().enumerate() {
            for b in &pids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
