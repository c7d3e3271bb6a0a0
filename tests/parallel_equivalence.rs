//! Serial vs. parallel search equivalence.
//!
//! The work-stealing candidate enumeration promises *bit-identical*
//! results at any thread count: every claimed run is a contiguous span of
//! the serial block stream, worker-local frontiers are tagged with their
//! span's start position, and the merge absorbs them in ascending start
//! order — which (dominance being transitive, see DESIGN.md §11) replays
//! the serial search exactly, no matter how the runs were interleaved or
//! stolen at runtime. This suite holds the optimizer to that promise over
//! every shipped workload: same costs (to the bit), same memory numbers,
//! same winning index, same extracted plan, same per-node statistics, and
//! same search counters.
//!
//! Every config here pins `spawn_amort_ns: Some(0)`, which forces the
//! adaptive spawn model to use every available worker on every node — the
//! small nodes these fast workloads produce would otherwise be run inline
//! and the tests would never exercise the parallel merge at all.
//!
//! The only permitted divergences are interleaving-dependent counters
//! (flagged in `obs::names::ALL`): the branch-and-bound skip/block totals, and `dp.steal` (how many runs were
//! claimed outside a worker's home region). The *values* computed never
//! depend on any of them.

use tensor_contraction_opt::core::{extract_plan, optimize, Optimized, OptimizerConfig};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::opmin::lower_program;

fn workload_trees() -> Vec<(String, ExprTree)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("workloads dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("tce") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("readable workload");
            let tree = lower_program(&parse(&src).unwrap_or_else(|e| panic!("{name}: {e}")))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .to_tree()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            out.push((name, tree));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!out.is_empty(), "no workloads found in {dir}");
    out
}

/// Assert two runs of the same search are indistinguishable, except for
/// the interleaving-dependent counters.
fn assert_identical(name: &str, tree: &ExprTree, serial: &Optimized, parallel: &Optimized) {
    assert_eq!(
        serial.comm_cost.to_bits(),
        parallel.comm_cost.to_bits(),
        "{name}: comm_cost {} vs {}",
        serial.comm_cost,
        parallel.comm_cost
    );
    assert_eq!(serial.mem_words, parallel.mem_words, "{name}: mem_words");
    assert_eq!(serial.max_msg_words, parallel.max_msg_words, "{name}: max_msg_words");
    assert_eq!(serial.best_index, parallel.best_index, "{name}: best_index");
    assert_eq!(
        serial.output_redist_cost.to_bits(),
        parallel.output_redist_cost.to_bits(),
        "{name}: output_redist_cost"
    );
    assert_eq!(serial.stats, parallel.stats, "{name}: per-node statistics");
    for (counter, v) in serial.counters.iter() {
        if !tensor_contraction_opt::obs::names::is_deterministic(counter) {
            continue; // interleaving-dependent by design
        }
        assert_eq!(v, parallel.counters.get(counter), "{name}: counter {counter}");
    }
    // The full decision record round-trips identically: every node's
    // pattern, fusion, child back-pointer, and cost line.
    let sp = extract_plan(tree, serial);
    let pp = extract_plan(tree, parallel);
    assert_eq!(sp.to_json(), pp.to_json(), "{name}: extracted plans differ");
}

/// Every shipped workload, full paper extents, at 1/2/4 worker threads.
#[test]
fn all_workloads_identical_across_thread_counts() {
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    for (name, tree) in workload_trees() {
        let run = |threads: usize| {
            let cfg = OptimizerConfig { threads, spawn_amort_ns: Some(0), ..Default::default() };
            optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("{name} @{threads}: {e}"))
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_identical(&format!("{name} @{threads}"), &tree, &serial, &parallel);
        }
    }
}

/// The enlarged search space (replication + unrelated rotation — the
/// configurations with the biggest candidate streams, where chunking and
/// merge order are stressed hardest), on the workload whose optimal plan
/// exercises every communication kind. `max_prefix_len` is capped to keep
/// the suite fast in CI.
#[test]
fn enlarged_space_identical_across_thread_counts() {
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let (name, tree) = workload_trees()
        .into_iter()
        .find(|(n, _)| n == "ccsd_tiny.tce")
        .expect("ccsd_tiny.tce shipped");
    let run = |threads: usize| {
        let cfg = OptimizerConfig {
            threads,
            allow_replication: true,
            allow_unrelated_rotation: true,
            max_prefix_len: 2,
            spawn_amort_ns: Some(0),
            ..Default::default()
        };
        optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("{name} @{threads}: {e}"))
    };
    let serial = run(1);
    // The enlarged space is where branch-and-bound earns its keep: the
    // serial search must actually skip candidate tails.
    let skipped = serial.counters.get(tensor_contraction_opt::obs::names::BNB_SKIP);
    assert!(skipped > 0, "{name} enlarged: no branch-and-bound tail skips");
    for threads in [2, 4] {
        let parallel = run(threads);
        assert_identical(&format!("{name} enlarged @{threads}"), &tree, &serial, &parallel);
    }
}

/// The bit-identity contract must survive the observability surface being
/// switched on: the progress stream installed as the one `tce_obs` sink
/// (heartbeats at every node). It is a pure output of the coordinator
/// thread — nothing in the search reads it — so results at 1/2/4 threads
/// must stay byte-for-byte what they are with no sink installed.
#[test]
fn observability_enabled_runs_stay_identical() {
    use std::sync::{Arc, Mutex};
    use tensor_contraction_opt::obs::{self, names, stream::ProgressSink};
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
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let (name, tree) = workload_trees()
        .into_iter()
        .find(|(n, _)| n == "ccsd_tiny.tce")
        .expect("ccsd_tiny.tce shipped");
    let run = |threads: usize| {
        let cfg = OptimizerConfig { threads, spawn_amort_ns: Some(0), ..Default::default() };
        optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("{name} @{threads}: {e}"))
    };
    // Baseline with every sink off.
    let baseline = run(1);
    // Same searches with the progress stream installed.
    let buf = Shared::default();
    obs::install(Arc::new(ProgressSink::new(Box::new(buf.clone()), 0)));
    let serial = run(1);
    let parallels: Vec<_> = [2, 4].into_iter().map(run).collect();
    obs::uninstall().expect("progress sink was installed");
    assert_identical(&format!("{name} obs-on serial"), &tree, &baseline, &serial);
    for (threads, parallel) in [2usize, 4].into_iter().zip(&parallels) {
        assert_identical(&format!("{name} obs-on @{threads}"), &tree, &baseline, parallel);
    }
    // The sink actually streamed: each of the three runs ends with a
    // `done` record carrying the run's candidate total. (Other tests of
    // this binary may search concurrently, so their records can interleave.)
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let done = format!(
        "\"event\":\"done\",\"nodes_total\":{},\"candidates\":{},",
        baseline.stats.len(),
        baseline.counters.get(names::CANDIDATES)
    );
    assert!(text.lines().filter(|l| l.contains(&done)).count() >= 3, "no done records:\n{text}");
}

/// Pruning disabled (the §3.3 ablation) must also be thread-invariant:
/// with dominance off, absorb degenerates to ordered concatenation.
#[test]
fn pruning_ablation_identical_across_thread_counts() {
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let (name, tree) =
        workload_trees().into_iter().find(|(n, _)| n == "fig1.tce").expect("fig1.tce shipped");
    let run = |threads: usize| {
        let cfg = OptimizerConfig {
            threads,
            disable_pruning: true,
            spawn_amort_ns: Some(0),
            ..Default::default()
        };
        optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("{name} @{threads}: {e}"))
    };
    let serial = run(1);
    for threads in [2, 4] {
        let parallel = run(threads);
        assert_identical(&format!("{name} no-pruning @{threads}"), &tree, &serial, &parallel);
    }
}

/// Adversarially *skewed* trees — one heavy contraction whose combine
/// stream dwarfs every other node, surrounded by near-free reduce /
/// element-wise nodes (`tce_bench::skewed_tree`). Under the old contiguous
/// equal-count partition these trees concentrated all the work in one
/// worker's chunk; under work stealing the idle workers raid that chunk,
/// maximizing cross-region claims — exactly the interleavings where a
/// merge-order bug would surface. Enlarged space, 1/2/4/8 threads.
#[test]
fn skewed_trees_identical_across_thread_counts() {
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    for seed in 0..6u64 {
        let tree = tensor_contraction_opt::bench::skewed_tree(seed);
        let run = |threads: usize| {
            let cfg = OptimizerConfig {
                threads,
                allow_replication: true,
                allow_unrelated_rotation: true,
                max_prefix_len: 2,
                spawn_amort_ns: Some(0),
                ..Default::default()
            };
            optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("skewed {seed} @{threads}: {e}"))
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            let parallel = run(threads);
            assert_identical(&format!("skewed {seed} @{threads}"), &tree, &serial, &parallel);
        }
    }
}

/// The request path: `portfolio::plan` (the key pass, then the exact
/// search under its bound) with spawning forced at 2 and 4 threads, on
/// every workload at 16 procs and on the benchmark's enlarged cell. Both
/// searches merge worker-local sets through `SolutionSet::absorb`, the
/// key pass in its one-entry-per-key mode, so the key pass's and the
/// request's plan, cost bits, `dp.candidates` and per-node live counts
/// must equal the serial run's.
#[test]
fn request_path_identical_across_thread_counts() {
    use tensor_contraction_opt::core::portfolio::{key_pass, plan};
    use tensor_contraction_opt::cost::units::PAPER_MB;
    let trees = workload_trees();
    let mut cells: Vec<(String, &ExprTree, CostModel, bool)> = trees
        .iter()
        .map(|(name, tree)| {
            let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
            (format!("{name} @16"), tree, cm, false)
        })
        .collect();
    let tiny = &trees.iter().find(|(n, _)| n == "ccsd_tiny.tce").expect("ccsd_tiny.tce shipped").1;
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    cells.push((
        "ccsd_tiny.tce enlarged".into(),
        tiny,
        CostModel::for_square(machine, 64).unwrap(),
        true,
    ));
    for (label, tree, cm, enlarged) in &cells {
        let cfg = |threads: usize| OptimizerConfig {
            threads,
            allow_replication: *enlarged,
            allow_unrelated_rotation: *enlarged,
            spawn_amort_ns: Some(0),
            ..Default::default()
        };
        let serial_key = key_pass(tree, cm, &cfg(1)).unwrap_or_else(|e| panic!("{label}: {e}"));
        let serial = plan(tree, cm, &cfg(1)).unwrap_or_else(|e| panic!("{label}: {e}")).opt;
        for threads in [2, 4] {
            let key = key_pass(tree, cm, &cfg(threads))
                .unwrap_or_else(|e| panic!("{label} @{threads}: {e}"));
            assert_identical(&format!("{label} key pass @{threads}"), tree, &serial_key, &key);
            let parallel = plan(tree, cm, &cfg(threads))
                .unwrap_or_else(|e| panic!("{label} @{threads}: {e}"))
                .opt;
            assert_identical(&format!("{label} request @{threads}"), tree, &serial, &parallel);
        }
    }
}
