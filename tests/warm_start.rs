//! The greedy warm start of the exact search (`portfolio::plan` with a
//! time budget): on every shipped workload it returns the cold run's plan
//! and cost bits, on default `ccsd_tiny` it measurably cuts the search,
//! and it never changes an infeasibility verdict.

use std::collections::HashMap;

use tensor_contraction_opt::core::portfolio::plan;
use tensor_contraction_opt::core::{extract_plan, optimize, OptimizerConfig};
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

fn warm_cfg() -> OptimizerConfig {
    OptimizerConfig { time_budget_ms: Some(100), threads: 1, ..Default::default() }
}

#[test]
fn every_workload_warm_plan_matches_the_cold_run() {
    let cm = cm16();
    for (name, tree) in workload_trees() {
        let cold = optimize(&tree, &cm, &OptimizerConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let warm = plan(&tree, &cm, &warm_cfg()).unwrap_or_else(|e| panic!("{name}: {e}")).opt;
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

#[test]
fn warm_start_cuts_the_search_on_default_ccsd_tiny() {
    let (tree, cm) = (ccsd_tiny(), cm16());
    let cold_cfg = OptimizerConfig { threads: 1, ..Default::default() };
    let cold = plan(&tree, &cm, &cold_cfg).expect("cold run").opt;
    let warm = plan(&tree, &cm, &warm_cfg()).expect("warm run").opt;
    assert_eq!(cold.counters.get(names::BNB_WARM), 0, "no warm cut without a budget");
    assert!(warm.counters.get(names::BNB_WARM) > 0, "the warm cut never fired");
    assert!(
        warm.counters.get(names::CANDIDATES) < cold.counters.get(names::CANDIDATES),
        "warm start did not cut the priced candidates: {} vs cold {}",
        warm.counters.get(names::CANDIDATES),
        cold.counters.get(names::CANDIDATES)
    );
}

/// A pinned input plus a memory limit nothing fits in fails with the same
/// `NoFeasibleSolution` verdict with and without the warm start: the
/// greedy configuration is infeasible too, so the exact search runs cold
/// and decides feasibility alone.
#[test]
fn infeasibility_verdict_is_the_same_with_the_warm_start() {
    let (tree, cm) = (ccsd_tiny(), cm16());
    let ix = |s: &str| tree.space.lookup(s).expect("index declared");
    let mut input_dists = HashMap::new();
    input_dists.insert("A".to_string(), Distribution::pair(ix("a"), ix("c")));
    let cold = OptimizerConfig { input_dists, mem_limit_words: Some(8), ..Default::default() };
    let cold_err = plan(&tree, &cm, &cold).expect_err("8 words cannot fit anything");
    let warm = OptimizerConfig { time_budget_ms: Some(100), ..cold };
    let warm_err = plan(&tree, &cm, &warm).expect_err("8 words cannot fit anything");
    assert_eq!(warm_err, cold_err);
}
