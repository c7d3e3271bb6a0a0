//! `tce report` JSON and the explain breakdown are deterministic
//! functions of the search result: byte-identical at any thread count
//! (wall clock and interleaving-dependent counters are excluded from the
//! schema), and the per-kind cost attribution sums back to the plan's
//! headline communication cost.

use tensor_contraction_opt::core::{
    build_provenance, optimize, render_provenance, report_json, OptimizerConfig,
};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::ExprTree;
use tensor_contraction_opt::opmin::lower_program;

fn ccsd_tiny() -> ExprTree {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/ccsd_tiny.tce");
    let src = std::fs::read_to_string(path).expect("ccsd_tiny.tce shipped");
    lower_program(&tensor_contraction_opt::expr::parse(&src).unwrap()).unwrap().to_tree().unwrap()
}

#[test]
fn report_json_is_bit_identical_across_thread_counts() {
    let tree = ccsd_tiny();
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let render = |threads: usize| {
        let cfg = OptimizerConfig { threads, ..Default::default() };
        let opt = optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("@{threads}: {e}"));
        serde_json::to_string_pretty(&report_json(&tree, &opt, &cm, 3)).unwrap()
    };
    let serial = render(1);
    for threads in [2, 4] {
        assert_eq!(serial, render(threads), "report JSON diverged at {threads} threads");
    }
    assert!(serial.contains("tce-report/v5"));
}

#[test]
fn explain_breakdown_sums_to_plan_total_on_ccsd_tiny() {
    let tree = ccsd_tiny();
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
    let prov = build_provenance(&tree, &opt, &cm, 3);
    let total = prov.total.total();
    assert!(
        (total - opt.comm_cost).abs() <= 1e-9 * opt.comm_cost.abs().max(1.0),
        "per-kind breakdown {total} vs plan total {}",
        opt.comm_cost
    );
    // The rendering carries the acceptance surface: winning (dist,fusion)
    // per node and the per-kind table, then the runner-ups and frontiers
    // in one search-effort section after every plan-class line.
    let text = render_provenance(&tree, &prov);
    assert!(text.contains("winner"), "{text}");
    assert!(text.contains("step comm by kind:"), "{text}");
    assert!(text.contains("total comm by kind:"), "{text}");
    let (plan_part, effort_part) =
        text.split_once("\nsearch effort (").expect("one labelled search-effort section");
    assert!(plan_part.contains("certified lower bound:"), "{text}");
    for effort_line in ["runner-up", "frontier:"] {
        assert!(!plan_part.contains(effort_line), "{effort_line} before the section: {text}");
        assert!(effort_part.contains(effort_line), "{effort_line} missing: {text}");
    }
}
