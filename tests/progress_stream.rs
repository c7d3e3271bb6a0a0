//! The progress stream and the metrics snapshot of a real search, pinned
//! record by record: a `ProgressSink` installed as the one `tce_obs` sink
//! must turn the search's own trace events into the DESIGN.md §10 JSONL
//! records, and the snapshot rendered from the returned run must agree
//! with the run's counters. One test per binary: the installed sink is
//! process-wide, so a concurrent search would interleave its records.

use std::sync::{Arc, Mutex};

use serde_json::Value;
use tensor_contraction_opt::core::{metrics_snapshot, optimize, OptimizerConfig};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::parse;
use tensor_contraction_opt::obs::{self, names, stream::ProgressSink};
use tensor_contraction_opt::opmin::lower_program;

/// A Write that appends into a shared buffer.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object().expect("record is an object").iter().map(|(k, _)| k.as_str()).collect()
}

fn uint(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("no integer `{key}` in {v:?}"))
}

#[test]
fn progress_and_metrics_of_ccsd_tiny_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/ccsd_tiny.tce");
    let src = std::fs::read_to_string(path).expect("ccsd_tiny.tce shipped");
    let tree = lower_program(&parse(&src).unwrap()).unwrap().to_tree().unwrap();
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();

    let buf = Shared::default();
    obs::install(Arc::new(ProgressSink::new(Box::new(buf.clone()), 0)));
    let opt = optimize(&tree, &cm, &OptimizerConfig { threads: 1, ..Default::default() });
    obs::uninstall().expect("progress sink was installed");
    let opt = opt.expect("ccsd_tiny optimizes");
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let records: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad line {l}: {e:?}")))
        .collect();
    let event = |v: &Value| v.get("event").and_then(Value::as_str).unwrap_or("").to_string();
    let candidates = opt.counters.get(names::CANDIDATES);
    let n = opt.stats.len();

    // One `start`, then a `node` and (every_ms 0) a `heartbeat` per node,
    // then one `done`.
    assert_eq!(records.len(), 2 * n + 2, "{text}");
    let start = &records[0];
    assert_eq!(keys(start), ["event", "nodes_total", "threads"]);
    assert_eq!(event(start), "start");
    assert_eq!(uint(start, "nodes_total"), n as u64);
    assert_eq!(uint(start, "threads"), 1);
    for (i, pair) in records[1..=2 * n].chunks(2).enumerate() {
        let (node, beat) = (&pair[0], &pair[1]);
        assert_eq!(keys(node), ["event", "node", "done", "total"]);
        assert_eq!(event(node), "node");
        assert_eq!(node.get("node").and_then(Value::as_str), Some(opt.stats[i].name.as_str()));
        assert_eq!((uint(node, "done"), uint(node, "total")), (i as u64 + 1, n as u64));
        assert_eq!(
            keys(beat),
            [
                "event",
                "done",
                "total",
                "candidates",
                "candidates_per_sec",
                "frontier",
                "bnb_skip_rate",
                "arena_hw_bytes",
                "t_ms"
            ]
        );
        assert_eq!(event(beat), "heartbeat");
        assert_eq!(uint(beat, "done"), i as u64 + 1);
        let so_far: u64 = opt.stats[..=i].iter().map(|s| s.candidates).sum();
        assert_eq!(uint(beat, "candidates"), so_far, "heartbeat {i} candidates");
        assert_eq!(uint(beat, "arena_hw_bytes"), opt.stats[i].arena_hw_bytes);
    }
    let done = records.last().unwrap();
    assert_eq!(
        keys(done),
        ["event", "nodes_total", "candidates", "comm_cost", "arena_hw_bytes", "t_ms"]
    );
    assert_eq!(event(done), "done");
    assert_eq!(uint(done, "nodes_total"), n as u64);
    assert_eq!(uint(done, "candidates"), candidates);
    assert_eq!(uint(done, "arena_hw_bytes"), opt.arena_hw_bytes);
    let cost = done.get("comm_cost").and_then(Value::as_f64).expect("comm_cost");
    assert_eq!(cost.to_bits(), opt.comm_cost.to_bits());

    // The snapshot rendered from the run agrees with its counters.
    let snap = metrics_snapshot(&opt);
    let hist = |name: &str| {
        let (_, h) = snap.histograms.iter().find(|(n, _)| *n == name).expect(name);
        (h.count, h.sum)
    };
    assert_eq!(hist(names::NODE_CANDIDATES), (n as u64, u128::from(candidates)));
    let frontier = opt.counters.get(names::FRONTIER);
    assert_eq!(hist(names::NODE_LIVE), (n as u64, u128::from(frontier)));
    assert_eq!(snap.gauges, [(names::ARENA_HW_BYTES, opt.arena_hw_bytes)]);
    assert!(snap.counters.contains(&(names::CANDIDATES, candidates)));
    let json: Value = serde_json::from_str(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(json.get("schema").and_then(Value::as_str), Some("tce-metrics/v1"));
}
