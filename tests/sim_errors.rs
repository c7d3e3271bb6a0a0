//! The simulator's structured errors (`SimError`) must surface as clear,
//! actionable diagnostics — both at the API level and through the `tce`
//! CLI (exit code 1 plus a hint on stderr). Regression tests for issue
//! satellite "simulate must not panic on unsimulable plans".

use std::process::Command;

use tensor_contraction_opt::core::{extract_plan, optimize, OptimizerConfig};
use tensor_contraction_opt::cost::{characterize, CostModel, MachineModel};
use tensor_contraction_opt::dist::ProcGrid;
use tensor_contraction_opt::expr::{ExprTree, IndexSpace, Tensor};
use tensor_contraction_opt::sim::{simulate, SimError};

/// The two-statement workload from fuzz seed 45 (minimized): an
/// elementwise product feeding a reduction. Under a tight memory limit the
/// optimizer fuses the edge, so the reduction's surrounding loop runs over
/// a distributed index — the only code path that demands exact blocking.
fn fused_workload(x0_extent: u64, x1_extent: u64) -> ExprTree {
    let mut sp = IndexSpace::new();
    let x0 = sp.declare("x0", x0_extent);
    let x1 = sp.declare("x1", x1_extent);
    let mut t = ExprTree::new(sp);
    let a0 = t.add_leaf(Tensor::new("A0", vec![x0]));
    let a1 = t.add_leaf(Tensor::new("A1", vec![x0, x1]));
    let t0 = t
        .add_contract(Tensor::new("T0", vec![x0, x1]), Default::default(), a0, a1)
        .expect("valid contraction");
    let t1 = t.add_reduce(Tensor::new("T1", vec![x1]), x0, t0).expect("valid reduction");
    t.set_root(t1);
    t
}

/// Optimize `tree` under a memory limit tight enough to force fusion.
fn tight_plan(tree: &ExprTree, cm: &CostModel) -> tensor_contraction_opt::core::ExecutionPlan {
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..OptimizerConfig::default() };
    let free = optimize(tree, cm, &cfg).expect("free optimization succeeds");
    let tight = (free.mem_words + free.max_msg_words) * 3 / 4;
    let cfg = OptimizerConfig { mem_limit_words: Some(tight), ..cfg };
    let opt = optimize(tree, cm, &cfg).expect("tight optimization succeeds");
    extract_plan(tree, &opt)
}

#[test]
fn non_square_grid_is_a_structured_error() {
    let tree = fused_workload(4, 8);
    let square = tce_bench::paper_cost_model(4);
    let plan = tight_plan(&tree, &square);
    // Same machine, same processor count, but arranged 4×1: the planner's
    // Cannon patterns are meaningless there and the simulator must refuse.
    let machine = MachineModel::itanium_cluster();
    let grid = ProcGrid { dim1: 4, dim2: 1 };
    let chr = characterize(&machine, &[grid.dim1, grid.dim2]);
    let rect = CostModel::with_characterization(machine, chr, grid);
    match simulate(&tree, &plan, &rect, 42) {
        Err(SimError::NonSquareGrid) => {
            let msg = SimError::NonSquareGrid.to_string();
            assert!(msg.contains("square grid"), "unhelpful message: {msg}");
        }
        other => panic!("expected NonSquareGrid, got {other:?}"),
    }
}

#[test]
fn indivisible_fused_extent_names_the_offending_index() {
    // Grid extent is 2 on 4 processors; an odd extent splits unevenly. Plain
    // block distributions tolerate uneven tails, but a fused surrounding
    // loop over a distributed index requires exact blocking.
    let tree = fused_workload(4, 9);
    let cm = tce_bench::paper_cost_model(4);
    let plan = tight_plan(&tree, &cm);
    match simulate(&tree, &plan, &cm, 42) {
        Err(SimError::Indivisible { index, extent, parts }) => {
            assert_eq!(extent, 9);
            assert_eq!(parts, 2);
            assert!(index.starts_with('x'), "index name lost: {index}");
        }
        Ok(_) => panic!("expected Indivisible, but simulation succeeded"),
        Err(other) => panic!("expected Indivisible, got {other}"),
    }
}

#[test]
fn cli_simulate_reports_indivisible_plans_and_exits_nonzero() {
    let tree = fused_workload(4, 9);
    let cm = tce_bench::paper_cost_model(4);
    let plan = tight_plan(&tree, &cm);

    let dir = std::env::temp_dir().join(format!("tce-sim-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let src_path = dir.join("indivisible.tce");
    let plan_path = dir.join("indivisible.plan.json");
    std::fs::write(&src_path, tensor_contraction_opt::expr::printer::render_tce_source(&tree))
        .expect("write source");
    std::fs::write(&plan_path, plan.to_json()).expect("write plan");

    let out = Command::new(env!("CARGO_BIN_EXE_tce"))
        .args([
            "simulate",
            src_path.to_str().expect("utf-8 path"),
            "--procs",
            "4",
            "--plan",
            plan_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run tce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got: {stderr}");
    assert!(stderr.contains("not divisible"), "missing diagnostic: {stderr}");
    assert!(stderr.contains("hint:"), "missing hint: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_simulate_rejects_non_square_processor_counts() {
    let tree = fused_workload(4, 8);
    let dir = std::env::temp_dir().join(format!("tce-sim-errors-sq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let src_path = dir.join("square.tce");
    std::fs::write(&src_path, tensor_contraction_opt::expr::printer::render_tce_source(&tree))
        .expect("write source");

    let out = Command::new(env!("CARGO_BIN_EXE_tce"))
        .args(["simulate", src_path.to_str().expect("utf-8 path"), "--procs", "12"])
        .output()
        .expect("run tce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got: {stderr}");
    assert!(stderr.contains("square"), "missing diagnostic: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_reference_is_a_structured_error_not_an_abort() {
    // Two 2^62-word arrays: the volumes fit in u128 and the word count in
    // usize, but the bytes exceed isize::MAX, so the reservation fails
    // deterministically without touching memory.
    let tree = fused_workload(1 << 31, 1 << 31);
    let cm = tce_bench::paper_cost_model(4);
    let cfg =
        OptimizerConfig { mem_limit_words: Some(u128::MAX), threads: 1, ..Default::default() };
    let plan = extract_plan(&tree, &optimize(&tree, &cm, &cfg).expect("unlimited memory"));
    match simulate(&tree, &plan, &cm, 42) {
        Err(SimError::ReferenceTooLarge { bytes }) => {
            // A0 (2^31) + A1, T0 (2^62 each) + T1 (2^31) words, 8 bytes each.
            assert_eq!(bytes, 8 * ((2u128 << 62) + (2u128 << 31)));
        }
        other => panic!("expected ReferenceTooLarge, got {other:?}"),
    }

    let dir = std::env::temp_dir().join(format!("tce-sim-errors-big-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let src_path = dir.join("big.tce");
    let plan_path = dir.join("big.plan.json");
    std::fs::write(&src_path, tensor_contraction_opt::expr::printer::render_tce_source(&tree))
        .expect("write source");
    std::fs::write(&plan_path, plan.to_json()).expect("write plan");
    let out = Command::new(env!("CARGO_BIN_EXE_tce"))
        .args([
            "simulate",
            src_path.to_str().expect("utf-8 path"),
            "--procs",
            "4",
            "--plan",
            plan_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run tce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "expected a clean failure: {stderr}");
    assert!(stderr.contains("bytes of memory"), "missing diagnostic: {stderr}");
    assert!(stderr.contains("hint:") && stderr.contains("ccsd_tiny"), "missing hint: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
