//! The key-pass warm start of the exact search (`portfolio::plan`, which
//! serves every request) against the paper's cold §3.3 DP (`optimize`):
//! on every shipped workload it returns the cold run's plan and cost bits,
//! on the enlarged `ccsd_tiny` cell it prices a tenth of the candidates,
//! it never changes an infeasibility verdict, and the key pass's own plan
//! is a real plan that passes every static check and never undercuts the
//! optimum.

use std::collections::HashMap;

use tensor_contraction_opt::bench::randtree::{random_tree, TreeParams};
use tensor_contraction_opt::core::check::check_plan;
use tensor_contraction_opt::core::portfolio::{key_pass, plan, plan_explained};
use tensor_contraction_opt::core::{
    extract_plan, optimize, OptimizeError, Optimized, OptimizerConfig,
};
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
/// --mem-gb 0.0001 --threads 1`): under the key pass's bound (1.567 s
/// against an optimum of 1.0448 s) the exact search prices 236,487 of the
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
    assert_eq!((warm, cold), (236_487, 2_468_418), "priced candidates (warm, cold)");
    assert!(
        warm as f64 <= 0.15 * cold as f64,
        "warm start priced {warm} of the cold search's {cold} candidates (want ≤ 15%)"
    );
}

/// The entries the enlarged cell's request keeps per node under the key
/// pass's bound: an effort-class count (DESIGN.md §13), deterministic at
/// one thread, pinned so a change to what the warm cut or the dominance
/// filter keeps shows here.
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
            ("S_t1", 1056),
            ("S_t2", 1422),
            ("S", 4881),
            ("U", 2168),
            ("T", 482),
            ("Z", 124),
            ("N", 30),
            ("G", 34),
            ("H", 110),
            ("F", 17),
        ],
        "entries kept per node"
    );
}

/// `dp.blocks` counts the admissible `(layout, fusion triple)` blocks the
/// search schedules: a Cannon layout never becomes a block with a triple
/// that fuses its rotation index, nor (paper-faithful) with one whose
/// fused loops a rotated array does not carry. At one thread the counts
/// of `tce optimize` are deterministic, so they are pinned exactly:
/// `ccsd` @ 16 schedules 336 blocks (its key pass finds the optimum, and
/// the warm cut leaves fewer fusions at its children) and the enlarged
/// cell 94,849, where building every pair made 28,032 and 152,073.
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
        (336, 94_849),
        "scheduled blocks (ccsd @ 16, enlarged cell)"
    );
}

/// The priced candidates of the plan search and of the explained search
/// at one thread on two cells where the warm start helps least: the
/// enlarged `ccsd_tiny` cell @ 16 with a 0.00002 GB limit, whose key-pass
/// bound (19.33 s against an optimum of 8.62 s) is loose, and `ladder` @ 4,
/// where the key pass finds no plan. Effort-class counts (DESIGN.md §13),
/// pinned exactly so a change to how the combine prices, skips or accounts
/// candidates shows here.
#[test]
fn loose_and_missing_bounds_price_the_same_candidates() {
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.00002 * 1024.0 * PAPER_MB) as u64;
    let cm = CostModel::for_square(machine, 16).expect("16 is square");
    let cfg =
        OptimizerConfig { allow_replication: true, allow_unrelated_rotation: true, ..serial() };
    let tiny = ccsd_tiny();
    let loose = [plan, plan_explained].map(|serve| {
        serve(&tiny, &cm, &cfg).expect("loose cell").opt.counters.get(names::CANDIDATES)
    });
    let ladder = workload_trees()
        .into_iter()
        .find(|(n, _)| n == "ladder.tce")
        .expect("ladder workload present")
        .1;
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).expect("4 is square");
    assert!(key_pass(&ladder, &cm4, &serial()).is_err(), "ladder @ 4: the key pass found a plan");
    let missing = [plan, plan_explained].map(|serve| {
        serve(&ladder, &cm4, &serial()).expect("ladder @ 4").opt.counters.get(names::CANDIDATES)
    });
    assert_eq!(loose, [430_702, 1_966_064], "loose cell (plan, explained)");
    assert_eq!(missing, [1_798, 1_326], "ladder @ 4 (plan, explained)");
}

/// A pinned input plus a memory limit nothing fits in fails with the same
/// `NoFeasibleSolution` verdict warm and cold: the key pass finds no plan
/// either, so the exact search runs cold and decides feasibility alone.
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

/// Check the key pass against the cold search on one cell: the cold
/// optimum, and whether the key pass found no plan where it found one.
fn check_key_pass(
    label: &str,
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> (Option<Optimized>, bool) {
    let cold = optimize(tree, cm, cfg);
    let key = key_pass(tree, cm, cfg);
    let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
    let missed = match (&cold, &key) {
        (_, Ok(k)) => {
            let c =
                cold.as_ref().unwrap_or_else(|e| panic!("{label}: only the key pass fits: {e}"));
            assert!(
                k.comm_cost >= c.comm_cost,
                "{label}: key pass {} < {}",
                k.comm_cost,
                c.comm_cost
            );
            let report = check_plan(tree, &extract_plan(tree, k), Some(cm), Some(limit));
            report.to_result().unwrap_or_else(|e| panic!("{label}: key-pass plan fails: {e}"));
            false
        }
        (Ok(_), Err(OptimizeError::NoFeasibleSolution { .. })) => true,
        (Err(c), Err(k)) => {
            assert_eq!(c, k, "{label}: verdicts");
            false
        }
        (Ok(_), Err(e)) => panic!("{label}: key pass failed: {e}"),
    };
    (cold.ok(), missed)
}

/// The key pass's plan, where it finds one, passes every static check at
/// its memory limit and costs at least the cold optimum (its cost is the
/// warm bound, so a cheaper one would cut the optimum). Checked on every
/// workload at 4, 16 and 64 procs, the enlarged cell, and 200 random trees
/// at 4 and 16 procs at the machine limit and at three quarters of the
/// optimum's footprint. A key pass that finds nothing where the exact
/// search finds a plan only leaves that search cold; those cells are
/// counted, and `ladder` @ 4 is the one shipped cell among them.
#[test]
fn key_pass_plans_are_real_and_never_undercut_the_optimum() {
    let mut shipped_misses: Vec<String> = Vec::new();
    for (name, tree) in workload_trees() {
        for procs in [4, 16, 64] {
            let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs).expect("square");
            let label = format!("{name} @ {procs}");
            if check_key_pass(&label, &tree, &cm, &serial()).1 {
                shipped_misses.push(label);
            }
        }
    }
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    let cm = CostModel::for_square(machine, 64).expect("64 is square");
    let cfg =
        OptimizerConfig { allow_replication: true, allow_unrelated_rotation: true, ..serial() };
    assert!(!check_key_pass("enlarged", &ccsd_tiny(), &cm, &cfg).1, "enlarged: key pass missed");
    assert_eq!(
        shipped_misses,
        ["ladder.tce @ 4"],
        "shipped cells where the key pass finds no plan"
    );
    let (mut feasible, mut misses) = (0, 0);
    for seed in 0..200 {
        let tree = random_tree(seed, &TreeParams::default());
        for procs in [4, 16] {
            let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs).expect("square");
            let cfg = OptimizerConfig { max_prefix_len: 2, ..serial() };
            let label = format!("seed {seed} @ {procs}");
            let (Some(free), missed) = check_key_pass(&label, &tree, &cm, &cfg) else { continue };
            (feasible, misses) = (feasible + 1, misses + usize::from(missed));
            let tight = (free.mem_words + free.max_msg_words) * 3 / 4;
            let tight_cfg = OptimizerConfig { mem_limit_words: Some(tight), ..cfg };
            if let (Some(_), missed) =
                check_key_pass(&format!("{label} tight"), &tree, &cm, &tight_cfg)
            {
                (feasible, misses) = (feasible + 1, misses + usize::from(missed));
            }
        }
    }
    eprintln!("key pass found no plan on {misses} of {feasible} feasible random-tree runs");
}
