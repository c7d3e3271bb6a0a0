//! The greedy warm start of the exact search (`portfolio::plan`, which
//! serves every request) against the paper's cold §3.3 DP (`optimize`):
//! on every shipped workload it returns the cold run's plan and cost bits,
//! on the enlarged `ccsd_tiny` cell it prices about half the candidates,
//! and it never changes an infeasibility verdict.

use std::collections::HashMap;

use tensor_contraction_opt::core::portfolio::plan;
use tensor_contraction_opt::core::{extract_plan, optimize, OptimizerConfig};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::dist::Distribution;
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::obs::names;
use tensor_contraction_opt::opmin::lower_program;

fn workload_trees() -> Vec<(String, ExprTree)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("workloads dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("tce") {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
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

fn ccsd_tiny() -> ExprTree {
    workload_trees()
        .into_iter()
        .find(|(n, _)| n == "ccsd_tiny.tce")
        .expect("ccsd_tiny workload present")
        .1
}

fn cm16() -> CostModel {
    CostModel::for_square(MachineModel::itanium_cluster(), 16).expect("16 is square")
}

fn serial() -> OptimizerConfig {
    OptimizerConfig { threads: 1, ..Default::default() }
}

#[test]
fn every_workload_warm_plan_matches_the_cold_run() {
    let cm = cm16();
    for (name, tree) in workload_trees() {
        let cold = optimize(&tree, &cm, &serial()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let warm = plan(&tree, &cm, &serial()).unwrap_or_else(|e| panic!("{name}: {e}")).opt;
        assert_eq!(warm.comm_cost.to_bits(), cold.comm_cost.to_bits(), "{name}: cost moved");
        assert_eq!(warm.mem_words, cold.mem_words, "{name}: footprint moved");
        assert_eq!(warm.max_msg_words, cold.max_msg_words, "{name}: message size moved");
        assert_eq!(
            warm.comm_lower_bound.to_bits(),
            cold.comm_lower_bound.to_bits(),
            "{name}: certified floor moved"
        );
        assert_eq!(
            extract_plan(&tree, &warm).to_json(),
            extract_plan(&tree, &cold).to_json(),
            "{name}: warm plan differs from cold"
        );
    }
}

/// The benchmark's `search-enlarged` request (`tce optimize
/// workloads/ccsd_tiny.tce --procs 64 --replication --unrelated-rotation
/// --mem-gb 0.0001 --threads 1`): the warm start prices 1,232,105 of the
/// cold search's 2,468,418 candidates. Both counts are deterministic at
/// one thread, so they are pinned exactly.
#[test]
fn warm_start_halves_the_enlarged_search() {
    let tree = ccsd_tiny();
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    let cm = CostModel::for_square(machine, 64).expect("64 is square");
    let cfg =
        OptimizerConfig { allow_replication: true, allow_unrelated_rotation: true, ..serial() };
    let cold = optimize(&tree, &cm, &cfg).expect("cold run").counters;
    let warm = plan(&tree, &cm, &cfg).expect("warm run").opt.counters;
    assert_eq!(cold.get(names::BNB_WARM), 0, "no warm cut in the cold search");
    assert!(warm.get(names::BNB_WARM) > 0, "the warm cut never fired");
    let (warm, cold) = (warm.get(names::CANDIDATES), cold.get(names::CANDIDATES));
    assert_eq!((warm, cold), (1_232_105, 2_468_418), "priced candidates (warm, cold)");
    assert!(
        warm as f64 <= 0.55 * cold as f64,
        "warm start priced {warm} of the cold search's {cold} candidates (want ≤ 55%)"
    );
}

/// Pricing only undominated child options (DESIGN.md §9) changes how
/// many candidates the enlarged cell's request prices, never what it
/// keeps: every node keeps as many entries as when every option was
/// priced.
#[test]
fn enlarged_cell_keeps_the_same_entries_at_every_node() {
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    let cm = CostModel::for_square(machine, 64).expect("64 is square");
    let cfg =
        OptimizerConfig { allow_replication: true, allow_unrelated_rotation: true, ..serial() };
    let opt = plan(&ccsd_tiny(), &cm, &cfg).expect("enlarged cell").opt;
    let kept: Vec<(&str, usize)> = opt.stats.iter().map(|s| (s.name.as_str(), s.live)).collect();
    assert_eq!(
        kept,
        [
            ("S_t1", 1157),
            ("S_t2", 8636),
            ("S", 22877),
            ("U", 9983),
            ("T", 2830),
            ("Z", 708),
            ("N", 651),
            ("G", 69),
            ("H", 306),
            ("F", 712),
        ],
        "entries kept per node"
    );
}

/// `dp.blocks` counts the admissible `(layout, fusion triple)` blocks the
/// search schedules: a Cannon layout never becomes a block with a triple
/// that fuses its rotation index, nor (paper-faithful) with one whose
/// fused loops a rotated array does not carry. At one thread the counts
/// of `tce optimize` are deterministic, so they are pinned exactly:
/// `ccsd` @ 16 schedules 360 blocks and the enlarged cell 94,849, where
/// building every pair made 28,032 and 152,073.
#[test]
fn block_counts_are_the_admissible_blocks() {
    let ccsd = workload_trees()
        .into_iter()
        .find(|(n, _)| n == "ccsd.tce")
        .expect("ccsd workload present")
        .1;
    let paper = plan(&ccsd, &cm16(), &serial()).expect("ccsd @ 16").opt.counters;
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    let cm = CostModel::for_square(machine, 64).expect("64 is square");
    let cfg =
        OptimizerConfig { allow_replication: true, allow_unrelated_rotation: true, ..serial() };
    let enlarged = plan(&ccsd_tiny(), &cm, &cfg).expect("enlarged cell").opt.counters;
    assert_eq!(
        (paper.get(names::BLOCKS), enlarged.get(names::BLOCKS)),
        (360, 94_849),
        "scheduled blocks (ccsd @ 16, enlarged cell)"
    );
}

/// A pinned input plus a memory limit nothing fits in fails with the same
/// `NoFeasibleSolution` verdict warm and cold: the greedy configuration is
/// infeasible too, so the exact search runs cold and decides feasibility
/// alone.
#[test]
fn infeasibility_verdict_is_the_same_with_the_warm_start() {
    let (tree, cm) = (ccsd_tiny(), cm16());
    let ix = |s: &str| tree.space.lookup(s).expect("index declared");
    let mut input_dists = HashMap::new();
    input_dists.insert("A".to_string(), Distribution::pair(ix("a"), ix("c")));
    let cfg = OptimizerConfig { input_dists, mem_limit_words: Some(8), ..Default::default() };
    let cold_err = optimize(&tree, &cm, &cfg).expect_err("8 words cannot fit anything");
    let warm_err = plan(&tree, &cm, &cfg).expect_err("8 words cannot fit anything");
    assert_eq!(warm_err, cold_err);
}
