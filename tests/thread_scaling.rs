//! Multi-thread search must not regress below serial.
//!
//! The bug this guards against: the old contiguous equal-count partition
//! spawned workers unconditionally once a node's stream crossed a static
//! item threshold, so on small workloads (and small machines) every
//! multi-thread run paid thread spawn + merge overhead for no win —
//! threads=2 ran *slower* than serial on every measured scenario
//! (default ccsd_tiny: 26.8 ms against 19.6 ms serial; EXPERIMENTS.md X9).
//! The adaptive spawn model now sizes the worker count from the measured
//! per-block cost, keeping cheap nodes inline, and splits a node only when
//! the measured (or, before any split, the assumed) parallel efficiency
//! and ordered-merge share predict a saving, so threads=2 must track the
//! serial wall time. Two inputs: the default ccsd_tiny space at 16
//! processors, whose nodes stay inline under the spawn floor, and the
//! enlarged space (64 processors, replication + unrelated rotation), whose
//! larger nodes can split but whose merges cost about a quarter of the
//! serial time (EXPERIMENTS.md X18), so a split that does not pay must
//! stop the model from splitting again.
//!
//! Budget: best-of-3 wall at threads=2 must be within 1.10× the serial
//! best-of-3, plus a 10 ms absolute slack so sub-millisecond jitter on
//! fast machines (or a noisy CI neighbour) can't flake the suite.

use std::time::{Duration, Instant};

use tensor_contraction_opt::core::{optimize, OptimizerConfig};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::opmin::lower_program;

fn ccsd_tiny() -> ExprTree {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/ccsd_tiny.tce");
    let src = std::fs::read_to_string(src).expect("ccsd_tiny.tce shipped");
    lower_program(&parse(&src).expect("parses")).expect("lowers").to_tree().expect("tree")
}

fn best_of(n: usize, mut f: impl FnMut()) -> Duration {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("n >= 1")
}

#[test]
fn two_threads_do_not_regress_serial_wall_time() {
    let tree = ccsd_tiny();
    for (name, procs, enlarged) in [("default", 16, false), ("enlarged", 64, true)] {
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs).unwrap();
        let run = |threads: usize| {
            let cfg = OptimizerConfig {
                threads,
                allow_replication: enlarged,
                allow_unrelated_rotation: enlarged,
                ..Default::default()
            };
            optimize(&tree, &cm, &cfg).expect("ccsd_tiny optimizes");
        };
        // Warm up allocator + pricing code paths before timing anything.
        if !enlarged {
            run(1);
        }
        let serial = best_of(3, || run(1));
        let dual = best_of(3, || run(2));
        let budget = serial.mul_f64(1.10) + Duration::from_millis(10);
        assert!(
            dual <= budget,
            "{name}: threads=2 regressed: {dual:?} vs serial {serial:?} (budget {budget:?})"
        );
    }
}
