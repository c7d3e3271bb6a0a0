//! Streaming progress: the JSONL progress stream, as a trace [`Sink`].
//!
//! Long searches (enlarged spaces, big grids) look hung from the outside;
//! this sink gives them a pulse. Installed through [`crate::install`]
//! (alone, or fanned out next to a trace sink), it renders the events the
//! DP search already emits on its `dp` lane as one JSON object per line:
//!
//! * the start marker (args `nodes_total`, `threads`) → a `start` record;
//! * each node span (args `done`, `total`) → a `node` record, then a
//!   rate-limited `heartbeat` built from the counter samples the search
//!   takes just before the span closes;
//! * the run span (args `nodes`, `candidates`, `comm_cost`) → `done`.
//!
//! Every other event is ignored. The search emits all of these on its
//! coordinator thread between nodes and never reads a sink, so the stream
//! cannot perturb the bit-identity contract at any `--threads` count
//! (DESIGN.md §10 makes the full argument).

use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::jsonfmt::{json_number, json_string};
use crate::names;
use crate::sink::{Sink, TraceEvent};

/// A JSONL progress sink: thread-safe, rate-limited for heartbeats.
///
/// `start`/`node`/`done` records always flush through; a `heartbeat` is
/// dropped unless at least `every_ms` milliseconds elapsed since the last
/// one (so a tight DP loop cannot flood a terminal or a log file).
pub struct ProgressSink {
    state: Mutex<State>,
    every_ms: u64,
}

struct State {
    writer: Box<dyn Write + Send>,
    last_heartbeat: Option<Instant>,
    /// Latest sample of each counter, by name.
    counters: HashMap<String, u64>,
    /// Trace time of the current run's start marker, µs.
    start_us: f64,
}

impl State {
    /// Write one record (`fields` are rendered JSON numbers), flushed so a
    /// crashed run still leaves complete lines behind.
    fn record(&mut self, event: &str, node: Option<&str>, fields: &[(&str, String)]) {
        let mut line = format!("{{\"event\":{}", json_string(event));
        if let Some(node) = node {
            line.push_str(&format!(",\"node\":{}", json_string(node)));
        }
        for (name, value) in fields {
            line.push_str(&format!(",{}:{value}", json_string(name)));
        }
        line.push_str("}\n");
        let _ = self.writer.write_all(line.as_bytes());
        let _ = self.writer.flush();
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl ProgressSink {
    /// A sink writing JSONL records to `writer`, emitting heartbeats at
    /// most every `every_ms` milliseconds (0 = every heartbeat).
    pub fn new(writer: Box<dyn Write + Send>, every_ms: u64) -> Self {
        let state = State { writer, last_heartbeat: None, counters: HashMap::new(), start_us: 0.0 };
        Self { state: Mutex::new(state), every_ms }
    }
}

/// `part / whole`, or 0 when `whole` is 0, as a JSON number.
fn rate(part: u64, whole: u64) -> String {
    json_number(if whole > 0 { part as f64 / whole as f64 } else { 0.0 })
}

impl Sink for ProgressSink {
    fn event(&self, ev: TraceEvent) {
        let Ok(mut st) = self.state.lock() else { return }; // poisoned mid-write
        let (name, ts_us, dur_us, args) = match ev {
            TraceEvent::Counter { name, value, .. } => {
                st.counters.insert(name, value);
                return;
            }
            TraceEvent::Slice { lane, name, ts_us, dur_us, args } if lane == "dp" => {
                (name, ts_us, dur_us, args)
            }
            TraceEvent::Slice { .. } => return,
        };
        let arg = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        if let (Some(nodes_total), Some(threads)) = (arg("nodes_total"), arg("threads")) {
            st.start_us = ts_us;
            st.record("start", None, &[("nodes_total", nodes_total), ("threads", threads)]);
        } else if let (Some(done), Some(total)) = (arg("done"), arg("total")) {
            st.record("node", Some(&name), &[("done", done.clone()), ("total", total.clone())]);
            let now = Instant::now();
            if st.last_heartbeat.is_some_and(|last| {
                now.duration_since(last).as_millis() < u128::from(self.every_ms)
            }) {
                return;
            }
            st.last_heartbeat = Some(now);
            let elapsed_s = (ts_us + dur_us - st.start_us).max(0.0) / 1e6;
            let candidates = st.counter(names::CANDIDATES);
            let cps = if elapsed_s > 0.0 { candidates as f64 / elapsed_s } else { 0.0 };
            let fields = [
                ("done", done),
                ("total", total),
                ("candidates", candidates.to_string()),
                ("candidates_per_sec", json_number(cps)),
                ("frontier", st.counter(names::FRONTIER).to_string()),
                ("bnb_skip_rate", rate(st.counter(names::BNB_SKIP), candidates)),
                ("arena_hw_bytes", st.counter(names::ARENA_HW_BYTES).to_string()),
                ("t_ms", ((elapsed_s * 1e3) as u64).to_string()),
            ];
            st.record("heartbeat", None, &fields);
        } else if let (Some(nodes), Some(candidates), Some(cost)) =
            (arg("nodes"), arg("candidates"), arg("comm_cost"))
        {
            let cost = json_number(cost.parse().unwrap_or(f64::NAN));
            let fields = [
                ("nodes_total", nodes),
                ("candidates", candidates),
                ("comm_cost", cost),
                ("arena_hw_bytes", st.counter(names::ARENA_HW_BYTES).to_string()),
                ("t_ms", ((dur_us / 1e3) as u64).to_string()),
            ];
            st.record("done", None, &fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Write that appends into a shared buffer.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn slice(name: &str, ts_us: f64, dur_us: f64, args: &[(&str, &str)]) -> TraceEvent {
        TraceEvent::Slice {
            lane: "dp".into(),
            name: name.into(),
            ts_us,
            dur_us,
            args: args.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
        }
    }

    fn counter(name: &str, value: u64) -> TraceEvent {
        TraceEvent::Counter { name: name.into(), ts_us: 0.0, value }
    }

    #[test]
    fn search_events_render_as_one_json_object_per_line() {
        let buf = Shared::default();
        let sink = ProgressSink::new(Box::new(buf.clone()), 0);
        sink.event(slice("start", 1e6, 0.0, &[("nodes_total", "1"), ("threads", "4")]));
        for (name, value) in [
            (names::CANDIDATES, 12),
            (names::FRONTIER, 3),
            (names::BNB_SKIP, 6),
            (names::ARENA_HW_BYTES, 640),
        ] {
            sink.event(counter(name, value));
        }
        sink.event(slice("t_1", 1e6, 2e6, &[("live", "3"), ("done", "1"), ("total", "1")]));
        // Slices on other lanes are not the search's.
        sink.event(TraceEvent::Slice {
            lane: "step0".into(),
            name: "Shift".into(),
            ts_us: 0.0,
            dur_us: 1.0,
            args: vec![("done".into(), "9".into()), ("total".into(), "9".into())],
        });
        sink.event(slice(
            "optimize",
            1e6,
            2.5e6,
            &[("threads", "4"), ("nodes", "1"), ("candidates", "12"), ("comm_cost", "2")],
        ));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"event\":\"start\",\"nodes_total\":1,\"threads\":4}\n\
             {\"event\":\"node\",\"node\":\"t_1\",\"done\":1,\"total\":1}\n\
             {\"event\":\"heartbeat\",\"done\":1,\"total\":1,\"candidates\":12,\
             \"candidates_per_sec\":6.0,\"frontier\":3,\"bnb_skip_rate\":0.5,\
             \"arena_hw_bytes\":640,\"t_ms\":2000}\n\
             {\"event\":\"done\",\"nodes_total\":1,\"candidates\":12,\"comm_cost\":2.0,\
             \"arena_hw_bytes\":640,\"t_ms\":2500}\n"
        );
    }

    #[test]
    fn heartbeats_are_rate_limited_but_nodes_are_not() {
        let buf = Shared::default();
        // An hour-long interval: only the first heartbeat gets through.
        let sink = ProgressSink::new(Box::new(buf.clone()), 3_600_000);
        for _ in 0..5 {
            sink.event(slice("n", 0.0, 1.0, &[("done", "1"), ("total", "5")]));
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let heartbeats = text.lines().filter(|l| l.contains("heartbeat")).count();
        let nodes = text.lines().filter(|l| l.contains("\"node\"")).count();
        assert_eq!(heartbeats, 1, "rate limiter should drop repeat heartbeats");
        assert_eq!(nodes, 5, "node events must never be dropped");
    }
}
