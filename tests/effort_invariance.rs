//! Plan-class output does not depend on search effort (DESIGN.md §13).
//!
//! On every shipped workload at 4, 16 and 64 processors, the plan JSON,
//! the cost bits, `mem_words`/`max_msg_words`, the certified floor, the
//! `Explanation` text and `report_json` without its `search` object are
//! byte-identical whatever effort the search spends:
//!
//! - 1, 2 or 4 worker threads;
//! - the key-pass warm start of `portfolio::plan` or the cold `optimize`;
//! - in-run subtree reuse on or off;
//! - the search's use of the lower bounds on or off;
//! - a fresh search or a plan-cache warm hit (a cached run has no solution
//!   sets, so the report is not rendered from it).
//!
//! Infeasible cells must fail with the same verdict under every knob. The
//! enlarged `ccsd_tiny` cell runs only warm against cold at one thread,
//! which keeps the suite fast.

use tensor_contraction_opt::core::portfolio::plan;
use tensor_contraction_opt::core::{
    cache_key, extract_plan, optimize, report_json, ExecutionPlan, Explanation, Optimized,
    OptimizerConfig, PlanCache,
};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::opmin::lower_program;

fn load(file: &str) -> ExprTree {
    let path = format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("readable workload");
    lower_program(&parse(&src).unwrap_or_else(|e| panic!("{file}: {e}")))
        .unwrap_or_else(|e| panic!("{file}: {e}"))
        .to_tree()
        .unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn workloads() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .expect("workloads dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tce"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no workloads found in {dir}");
    out
}

/// Everything in the plan class of one run, rendered to comparable bytes.
#[derive(Debug, PartialEq)]
struct PlanClass {
    plan_json: String,
    cost_bits: u64,
    mem_words: u128,
    max_msg_words: u128,
    floor_bits: u64,
    explanation: String,
    /// `report_json` without `search`; `None` for a cached run.
    report: Option<String>,
}

fn plan_class(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    opt: &Optimized,
    plan: &ExecutionPlan,
    with_report: bool,
) -> PlanClass {
    let explanation = Explanation::from_run(tree, cm, cfg, opt, plan).expect("explains").text;
    let report = with_report.then(|| {
        let serde_json::Value::Object(fields) = report_json(tree, opt, cm, 3) else {
            panic!("report is an object")
        };
        assert!(fields.iter().any(|(k, _)| k == "search"), "report has a `search` object");
        let plan_only = fields.into_iter().filter(|(k, _)| k != "search").collect();
        serde_json::to_string_pretty(&serde_json::Value::Object(plan_only)).expect("renders")
    });
    PlanClass {
        plan_json: plan.to_json(),
        cost_bits: opt.comm_cost.to_bits(),
        mem_words: opt.mem_words,
        max_msg_words: opt.max_msg_words,
        floor_bits: opt.comm_lower_bound.to_bits(),
        explanation,
        report,
    }
}

/// The plan class of a fresh search.
fn fresh(tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig, opt: &Optimized) -> PlanClass {
    plan_class(tree, cm, cfg, opt, &extract_plan(tree, opt), true)
}

/// Assert that every effort knob leaves the cell's plan class unchanged.
fn check_cell(label: &str, tree: &ExprTree, cm: &CostModel) {
    let base_cfg = OptimizerConfig { threads: 1, ..Default::default() };
    let warm = |cfg: &OptimizerConfig| plan(tree, cm, cfg).map(|p| fresh(tree, cm, cfg, &p.opt));
    let base_run = plan(tree, cm, &base_cfg).map(|p| p.opt);
    let base = base_run.as_ref().map(|opt| fresh(tree, cm, &base_cfg, opt)).map_err(Clone::clone);
    let variants = [
        ("2 threads", OptimizerConfig { threads: 2, ..base_cfg.clone() }),
        ("4 threads", OptimizerConfig { threads: 4, ..base_cfg.clone() }),
        ("subtree reuse off", OptimizerConfig { disable_subtree_reuse: true, ..base_cfg.clone() }),
        ("bounds off", OptimizerConfig { disable_lower_bounds: true, ..base_cfg.clone() }),
    ];
    for (knob, cfg) in &variants {
        assert_eq!(warm(cfg), base, "{label}: {knob} moved the plan class");
    }
    let cold = optimize(tree, cm, &base_cfg).map(|opt| fresh(tree, cm, &base_cfg, &opt));
    assert_eq!(cold, base, "{label}: the cold search moved the plan class");

    // Plan cache: store the warm run, serve it back, and explain from it.
    let (Ok(opt), Ok(base)) = (&base_run, base) else { return };
    let key = cache_key(tree, cm, &base_cfg).expect("default request is cacheable");
    let dir = std::env::temp_dir().join(format!(
        "tce-effort-{}-{}",
        std::process::id(),
        label.replace([' ', '@'], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = PlanCache::at(&dir);
    cache.store(tree, &key, &extract_plan(tree, opt), opt).expect("store");
    let hit = cache.lookup(tree, cm, &key).run.expect("warm hit");
    let _ = std::fs::remove_dir_all(&dir);
    let cached = plan_class(tree, cm, &base_cfg, &hit.opt, &hit.plan, false);
    assert_eq!(cached, PlanClass { report: None, ..base }, "{label}: a cache hit moved the plan");
}

#[test]
fn plan_class_is_independent_of_search_effort() {
    for file in workloads() {
        let tree = load(&file);
        for procs in [4, 16, 64] {
            let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs)
                .expect("square processor count");
            check_cell(&format!("{file} @ {procs}"), &tree, &cm);
        }
    }
}

#[test]
fn enlarged_cell_plan_class_is_the_same_warm_and_cold() {
    let tree = load("ccsd_tiny.tce");
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    let cm = CostModel::for_square(machine, 64).expect("64 is square");
    let cfg = OptimizerConfig {
        allow_replication: true,
        allow_unrelated_rotation: true,
        threads: 1,
        ..Default::default()
    };
    let warm = fresh(&tree, &cm, &cfg, &plan(&tree, &cm, &cfg).expect("feasible").opt);
    let cold = fresh(&tree, &cm, &cfg, &optimize(&tree, &cm, &cfg).expect("feasible"));
    assert_eq!(warm, cold, "enlarged ccsd_tiny: the warm start moved the plan class");
}
