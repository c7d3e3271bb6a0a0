//! Whole-stack integration: text notation → operation minimization →
//! joint fusion/distribution optimization → virtual-cluster execution →
//! element-wise verification. Every crate of the workspace participates.

use tensor_contraction_opt::core::{extract_plan, optimize, validate_plan, OptimizerConfig};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::parse;
use tensor_contraction_opt::opmin::lower_program;
use tensor_contraction_opt::sim::simulate;

/// A four-factor term at small, grid-divisible extents: the full pipeline
/// must parse it, decompose it, plan it, and compute it correctly.
#[test]
fn text_to_verified_parallel_execution() {
    let source = "
        range a, b, c, d = 8;
        range e, f = 4;
        range i, j, k, l = 2;
        input A[a,c,i,k];  input B[b,e,f,l];
        input C[d,f,j,k];  input D[c,d,e,l];
        S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l];
    ";
    let prog = parse(source).unwrap();
    // Operation minimization decomposes the 10-index term.
    let seq = lower_program(&prog).unwrap();
    let tree = seq.to_tree().unwrap();
    assert!(tree.is_contraction_tree());
    let direct = prog.big_terms()[0].direct_op_count(&prog.space);
    assert!(tree.total_op_count() * 100 < direct, "op-minimization must pay off");

    // Optimize and execute on a 2×2 virtual cluster.
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    validate_plan(&tree, &plan).unwrap();
    let report = simulate(&tree, &plan, &cm, 99).unwrap();
    assert!(report.max_abs_err < 1e-10, "err {}", report.max_abs_err);
    assert_eq!(report.metrics.total_flops, tree.total_op_count());
}

/// The same pipeline under memory pressure: the plan changes (fusion or
/// redistribution), the answer does not.
#[test]
fn memory_pressure_preserves_semantics() {
    let source = "
        range p, q, r = 8;
        range s, t = 4;
        input X[p,q,s];  input Y[q,r];  input Z[r,p,t];
        U[p,r,s] = sum[q] X[p,q,s] * Y[q,r];
        V[s,t] = sum[p,r] U[p,r,s] * Z[r,p,t];
    ";
    let tree = parse(source).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let free = optimize(
        &tree,
        &cm,
        &OptimizerConfig { mem_limit_words: Some(u128::MAX), ..Default::default() },
    )
    .unwrap();
    let free_plan = extract_plan(&tree, &free);
    let free_sim = simulate(&tree, &free_plan, &cm, 5).unwrap();
    assert!(free_sim.max_abs_err < 1e-10);

    // Shrink the limit step by step until infeasible; every feasible plan
    // must verify.
    let mut limit = free.mem_words + free.max_msg_words;
    let mut plans_seen = 0;
    loop {
        limit = limit * 9 / 10;
        let cfg = OptimizerConfig { mem_limit_words: Some(limit), ..Default::default() };
        match optimize(&tree, &cm, &cfg) {
            Err(_) => break,
            Ok(opt) => {
                let plan = extract_plan(&tree, &opt);
                validate_plan(&tree, &plan).unwrap();
                let sim = simulate(&tree, &plan, &cm, 5).unwrap();
                assert!(sim.max_abs_err < 1e-10, "limit {limit}: err {}", sim.max_abs_err);
                assert!(opt.mem_words + opt.max_msg_words <= limit);
                plans_seen += 1;
            }
        }
    }
    assert!(plans_seen >= 2, "the sweep must exercise several distinct plans");
}

/// Reduce + element-wise nodes (the Fig. 1 shape) through the whole stack.
#[test]
fn fig1_shape_full_stack() {
    let source = "
        range i = 4; range j = 8; range k = 4; range t = 8;
        input A[i,j,t]; input B[j,k,t];
        T1[j,t] = sum[i] A[i,j,t];
        T2[j,t] = sum[k] B[j,k,t];
        T3[j,t] = T1[j,t] * T2[j,t];
        S[t] = sum[j] T3[j,t];
    ";
    let tree = parse(source).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    let report = simulate(&tree, &plan, &cm, 17).unwrap();
    assert!(report.max_abs_err < 1e-10, "err {}", report.max_abs_err);
}

/// The umbrella crate re-exports compose (compile-time check, exercised by
/// the uses above; here we just pin the module paths).
#[test]
fn umbrella_reexports() {
    use tensor_contraction_opt as t;
    let _ = t::cost::MachineModel::itanium_cluster();
    let _ = t::dist::ProcGrid::square(16).unwrap();
    let mut sp = t::expr::IndexSpace::new();
    let i = sp.declare("i", 4);
    assert_eq!(sp.extent(i), 4);
}

/// Every point of the Pareto frontier is a complete, executable plan:
/// simulate each at tiny extents and verify numerics.
#[test]
fn every_frontier_point_executes_correctly() {
    use tensor_contraction_opt::core::{extract_plan_for, root_frontier};
    use tensor_contraction_opt::expr::examples::{ccsd_tree, PaperExtents};
    let tree = ccsd_tree(PaperExtents::tiny());
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let frontier = root_frontier(&tree, &opt);
    assert!(frontier.len() >= 2);
    let mut last_cost = f64::INFINITY;
    for point in &frontier {
        let plan = extract_plan_for(&tree, &opt, point.solution_index);
        validate_plan(&tree, &plan).unwrap();
        let report = simulate(&tree, &plan, &cm, 23).unwrap();
        assert!(report.max_abs_err < 1e-10, "err {}", report.max_abs_err);
        assert!(point.comm_cost < last_cost);
        last_cost = point.comm_cost;
    }
}

/// The four-index integral transformation (the other canonical quantum
/// chemistry workload) through the whole stack at small extents.
#[test]
fn four_index_transform_full_stack() {
    use tensor_contraction_opt::expr::examples::four_index_transform;
    let tree = four_index_transform(8, 4).to_tree().unwrap();
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let free = optimize(
        &tree,
        &cm,
        &OptimizerConfig { mem_limit_words: Some(u128::MAX), ..Default::default() },
    )
    .unwrap();
    let plan = extract_plan(&tree, &free);
    validate_plan(&tree, &plan).unwrap();
    let report = simulate(&tree, &plan, &cm, 31).unwrap();
    assert!(report.max_abs_err < 1e-10, "err {}", report.max_abs_err);
    assert_eq!(report.metrics.total_flops, tree.total_op_count());

    // Under pressure, the transform's N^4 intermediates force fusion;
    // the result stays correct.
    let limit = free.mem_words + free.max_msg_words - 1;
    if let Ok(tight) = optimize(
        &tree,
        &cm,
        &OptimizerConfig { mem_limit_words: Some(limit), ..Default::default() },
    ) {
        let plan = extract_plan(&tree, &tight);
        let report = simulate(&tree, &plan, &cm, 31).unwrap();
        assert!(report.max_abs_err < 1e-10);
    }
}

/// `tce compile`'s memory-minimal fusion breaks ties the same way on every
/// run: on `ladder` several configurations reach the minimum, and which
/// one is printed must not depend on hash-map iteration order.
#[test]
fn memory_minimal_fusion_is_deterministic() {
    use tensor_contraction_opt::fusion::{code::render_fused, minimize_memory};
    let path = format!("{}/workloads/ladder.tce", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(path).expect("readable workload");
    let tree = lower_program(&parse(&src).unwrap()).unwrap().to_tree().unwrap();
    let render = || render_fused(&tree, &minimize_memory(&tree, usize::MAX).config);
    let first = render();
    for _ in 0..8 {
        assert_eq!(render(), first);
    }
}
