//! The sink abstraction and the in-memory recording sink.

use std::sync::{Arc, Mutex};

/// One observability event, as delivered to a [`Sink`].
///
/// Timestamps are microseconds on the emitter's timeline: wall-clock spans
/// use microseconds since the process trace epoch, the simulator uses
/// simulated seconds × 10⁶. The two never share a file in practice (one
/// trace per CLI run), so the unit — not the origin — is what sinks rely on.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A closed duration on a named lane.
    Slice {
        /// Track the slice renders on (Chrome: thread).
        lane: String,
        /// Display name.
        name: String,
        /// Start, µs.
        ts_us: f64,
        /// Duration, µs.
        dur_us: f64,
        /// Key/value detail shown by trace viewers.
        args: Vec<(String, String)>,
    },
    /// A sampled value of a named monotonic counter.
    Counter {
        /// Counter (track) name.
        name: String,
        /// Sample instant, µs.
        ts_us: f64,
        /// Value at that instant.
        value: u64,
    },
}

/// Destination for [`TraceEvent`]s. Implementations must be thread-safe:
/// the simulator's kernel threads and the main thread may emit concurrently.
pub trait Sink: Send + Sync {
    /// Deliver one event.
    fn event(&self, ev: TraceEvent);
}

/// Buffers every event in memory; the test/programmatic sink.
#[derive(Default)]
pub struct RecordingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl RecordingSink {
    /// Empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all events delivered so far, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("recording sink lock poisoned").clone()
    }

    /// Drop all buffered events.
    pub fn clear(&self) {
        self.events.lock().expect("recording sink lock poisoned").clear();
    }
}

impl Sink for RecordingSink {
    fn event(&self, ev: TraceEvent) {
        self.events.lock().expect("recording sink lock poisoned").push(ev);
    }
}

/// Fan-out: every event goes to each sink in order, so one installed sink
/// can feed a trace file and the progress stream at once.
impl Sink for Vec<Arc<dyn Sink>> {
    fn event(&self, ev: TraceEvent) {
        for sink in self {
            sink.event(ev.clone());
        }
    }
}
