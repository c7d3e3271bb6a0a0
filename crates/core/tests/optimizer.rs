//! End-to-end tests of the memory-constrained communication minimization
//! DP against the paper's published solutions (Tables 1 and 2) and against
//! independent brute force.

use tce_core::{
    baselines, build_report, exhaustive::exhaustive_min, extract_plan, optimize, validate_plan,
    OptimizeError, OptimizerConfig,
};
use tce_cost::{CostModel, MachineModel};
use tce_expr::examples::{ccsd_tree, fig1_sequence, PAPER_EXTENTS};
use tce_expr::parse;

fn cm(procs: u32) -> CostModel {
    CostModel::for_square(MachineModel::itanium_cluster(), procs).unwrap()
}

/// Table 1: on 64 processors the memory is plentiful — the optimum is
/// completely unfused, never communicates T1, and needs ~98 s of
/// communication (7 % of the total runtime).
#[test]
fn table1_64_procs() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm = cm(64);
    let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    validate_plan(&tree, &plan).unwrap();

    // No fusion anywhere.
    for step in &plan.steps {
        assert!(step.result_fusion.is_empty(), "step {} fused", step.result_name);
        assert!(step.surrounding.is_empty());
    }
    // T1 (the 55.3 GB monster) is never rotated: zero init and final comm.
    let t1_step = plan.step_for("T1").unwrap();
    assert_eq!(t1_step.result_rotate_cost, 0.0);
    let (_, t1_use) = plan.consumer_of("T1").unwrap();
    assert_eq!(t1_use.rotate_cost, 0.0);
    assert_eq!(t1_use.redist_cost, 0.0, "no redistribution of T1");
    // No redistribution at all in the optimum (init = final dists).
    for step in &plan.steps {
        for op in &step.operands {
            assert_eq!(op.redist_cost, 0.0, "unexpected redistribution of {}", op.name);
        }
    }
    // Total communication close to the paper's 98.0 s.
    assert!(
        (plan.comm_cost - 98.0).abs() / 98.0 < 0.25,
        "comm {:.1}s vs paper 98.0s",
        plan.comm_cost
    );
    // Memory: paper reports ≈2.04 GB/node of the 4 GB limit.
    let per_node_bytes = plan.mem_words * 8 * u128::from(cm.machine.procs_per_node);
    let gb = per_node_bytes as f64 / (1000.0 * 1_024_000.0);
    assert!((gb - 2.04).abs() < 0.1, "mem/node {gb:.2} GB vs paper 2.04 GB");
    // Headline: ~7 % of total runtime.
    let report = build_report(&tree, &plan, &cm);
    let pct = report.summary.comm_percent();
    assert!((pct - 7.0).abs() < 2.0, "comm share {pct:.1}% vs paper 7.0%");
}

/// Table 2: on 16 processors the unfused form does not fit (65.3 GB total
/// vs 32 GB). The optimum fuses the f loop, reducing T1(b,c,d,f) to
/// T1(b,c,d), keeps D fixed, and pays ~1900 s of communication (27 % of
/// the total).
#[test]
fn table2_16_procs() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm = cm(16);
    let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    validate_plan(&tree, &plan).unwrap();

    // T1 is fused on exactly {f}.
    let t1_step = plan.step_for("T1").unwrap();
    let fused: Vec<String> =
        t1_step.result_fusion.iter().map(|i| tree.space.name(i).to_owned()).collect();
    assert_eq!(fused, vec!["f"], "T1 fused on {fused:?}");
    // The stored T1 is three-dimensional.
    let cfg = plan.fusion_config();
    assert_eq!(cfg.reduced_tensor(&tree, tree.find("T1").unwrap()).arity(), 3);
    // D is not communicated in step 1 (it lacks the fused f index; rotating
    // it would re-send the full block per f iteration).
    let (s1, d_op) = plan.consumer_of("D").unwrap();
    assert_eq!(s1.result_name, "T1");
    assert_eq!(d_op.rotate_cost, 0.0, "D must stay fixed");
    // T1 rotates in both its producing and consuming steps (the dominant
    // costs: paper 902.0 + 888.5 s).
    assert!(t1_step.result_rotate_cost > 500.0);
    let (_, t1_use) = plan.consumer_of("T1").unwrap();
    assert!(t1_use.rotate_cost > 500.0);
    // Total communication close to the paper's 1907.8 s.
    assert!(
        (plan.comm_cost - 1907.8).abs() / 1907.8 < 0.25,
        "comm {:.1}s vs paper 1907.8s",
        plan.comm_cost
    );
    // Memory fits in 2 GB/processor including the staging buffer.
    assert!(plan.mem_words + plan.max_msg_words <= cm.mem_limit_words());
    // Paper: ≈1.35 GB/node stored.
    let per_node_bytes = plan.mem_words * 8 * u128::from(cm.machine.procs_per_node);
    let gb = per_node_bytes as f64 / (1000.0 * 1_024_000.0);
    assert!((gb - 1.35).abs() < 0.15, "mem/node {gb:.2} GB vs paper 1.35 GB");
    // Headline: ~27 % of total runtime.
    let report = build_report(&tree, &plan, &cm);
    let pct = report.summary.comm_percent();
    assert!((pct - 27.3).abs() < 5.0, "comm share {pct:.1}% vs paper 27.3%");
}

/// The paper's counter-intuitive §4 observation: fewer processors ⇒ more
/// fusion needed ⇒ *higher* absolute communication cost.
#[test]
fn fewer_processors_cost_more_communication() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let c64 = optimize(&tree, &cm(64), &OptimizerConfig::default()).unwrap();
    let c16 = optimize(&tree, &cm(16), &OptimizerConfig::default()).unwrap();
    assert!(c16.comm_cost > 10.0 * c64.comm_cost);
}

/// Without a memory limit, 16 processors would communicate *less* than the
/// constrained solution — the gap is entirely the price of memory.
#[test]
fn memory_constraint_is_the_price() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let constrained = optimize(&tree, &cm16, &OptimizerConfig::default()).unwrap();
    let unconstrained =
        baselines::optimize_unconstrained(&tree, &cm16, &OptimizerConfig::default()).unwrap();
    assert!(unconstrained.comm_cost < constrained.comm_cost);
    // And the unconstrained plan would not fit.
    assert!(unconstrained.mem_words + unconstrained.max_msg_words > cm16.mem_limit_words());
}

/// An impossible limit reports infeasibility instead of a wrong plan.
#[test]
fn infeasible_limit_is_reported() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let cfg = OptimizerConfig { mem_limit_words: Some(1000), ..Default::default() };
    match optimize(&tree, &cm16, &cfg) {
        Err(OptimizeError::NoFeasibleSolution { limit_words }) => {
            assert_eq!(limit_words, 1000)
        }
        other => panic!("expected infeasibility, got {other:?}"),
    }
}

/// DP result equals independent brute force on a two-contraction chain.
#[test]
fn dp_matches_exhaustive() {
    let src = "\
range a = 24; range b = 16; range c = 12; range d = 8;
input A[a,b]; input B[b,c]; input C[c,d];
T[a,c] = sum[b] A[a,b] * B[b,c];
S[a,d] = sum[c] T[a,c] * C[c,d];
";
    let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    for limit in [u128::MAX, 2000, 700] {
        let cfg = OptimizerConfig {
            mem_limit_words: Some(limit),
            max_prefix_len: 2,
            ..Default::default()
        };
        let dp = optimize(&tree, &cm4, &cfg);
        let ex = exhaustive_min(&tree, &cm4, limit, 2, false, false);
        match (dp, ex) {
            (Ok(dp), Some(ex)) => {
                assert!(
                    (dp.comm_cost - ex.comm_cost).abs() <= 1e-9 * ex.comm_cost.max(1.0),
                    "limit {limit}: dp {} vs exhaustive {}",
                    dp.comm_cost,
                    ex.comm_cost
                );
            }
            (Err(OptimizeError::NoFeasibleSolution { .. }), None) => {}
            (dp, ex) => panic!("limit {limit}: dp {dp:?} vs exhaustive {ex:?}"),
        }
    }
}

/// Disabling dominance pruning changes the work, never the answer.
#[test]
fn pruning_preserves_optimum() {
    let src = "\
range a = 24; range b = 16; range c = 12; range d = 8;
input A[a,b]; input B[b,c]; input C[c,d];
T[a,c] = sum[b] A[a,b] * B[b,c];
S[a,d] = sum[c] T[a,c] * C[c,d];
";
    let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let base = OptimizerConfig { max_prefix_len: 2, ..Default::default() };
    let pruned = optimize(&tree, &cm4, &base).unwrap();
    let unpruned =
        optimize(&tree, &cm4, &OptimizerConfig { disable_pruning: true, ..base }).unwrap();
    assert!((pruned.comm_cost - unpruned.comm_cost).abs() < 1e-9);
    // And pruning actually did something.
    let kept: usize = pruned.stats.iter().map(|s| s.live).sum();
    let kept_unpruned: usize = unpruned.stats.iter().map(|s| s.live).sum();
    assert!(kept < kept_unpruned);
}

/// Baseline comparisons: the joint optimizer never loses.
#[test]
fn baselines_never_beat_joint_optimizer() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let base = OptimizerConfig::default();
    let joint = optimize(&tree, &cm16, &base).unwrap();

    let ff = baselines::fusion_first(&tree, &cm16, &base);
    if let Some(plan) = &ff.plan {
        assert!(plan.comm_cost >= joint.comm_cost * 0.999);
        // The sequential memory-minimal fusion over-fuses: strictly worse.
        assert!(
            plan.comm_cost > joint.comm_cost * 1.05,
            "fusion-first {:.0}s vs joint {:.0}s",
            plan.comm_cost,
            joint.comm_cost
        );
    }

    let df = baselines::distribution_first(&tree, &cm16, &base);
    match (&df.plan, &df.error) {
        (Some(plan), _) => assert!(plan.comm_cost >= joint.comm_cost * 0.999),
        (None, Some(e)) => {
            // Paper §2 argument (2): the frozen distribution can make every
            // memory-fitting fusion illegal.
            assert!(matches!(e, OptimizeError::NoFeasibleSolution { .. }));
        }
        _ => panic!("distribution_first returned neither plan nor error"),
    }
}

/// The Fig. 1 tree (pure summations + an element-wise product) goes
/// through the reduce/elementwise paths.
#[test]
fn fig1_tree_optimizes() {
    let tree = fig1_sequence(64, 64, 64, 64).to_tree().unwrap();
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let opt = optimize(&tree, &cm4, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    validate_plan(&tree, &plan).unwrap();
    assert!(opt.comm_cost >= 0.0);
    assert!(opt.mem_words > 0);
    assert_eq!(plan.steps.len(), 4);
}

/// Report rendering contains the paper's landmark numbers.
#[test]
fn report_contains_landmarks() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let opt = optimize(&tree, &cm16, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    let report = build_report(&tree, &plan, &cm16);
    let text = tce_core::render_report(&report);
    // T1 reduced to (b,c,d) at 108 MB/node; A and T2 at 230.4 MB/node.
    assert!(text.contains("T1(b,c,d)"), "{text}");
    assert!(text.contains("108.0MB"), "{text}");
    assert!(text.contains("230.4MB"), "{text}");
    assert!(text.contains("Total communication"), "{text}");
}

/// Per-dimension RCost characterization (the paper measures per rotation-
/// index *position*): on the 16-processor fused solution, T1's two forced
/// rotations structurally travel *opposite* grid dimensions (production
/// rotates over `b`, consumption over `d`, and the shared layout pins them
/// to different dims), so exactly one T1 rotation rides each link speed —
/// the totals must reflect the asymmetry, and the optimizer must put the
/// remaining (sliced) rotations on the fast links.
#[test]
fn asymmetric_links_are_exploited() {
    use tce_dist::Operand;
    let tree = ccsd_tree(PAPER_EXTENTS);
    let sym = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let base = optimize(&tree, &sym, &OptimizerConfig::default()).unwrap();

    // dim2 4x faster: strictly cheaper than the symmetric machine.
    let fast = CostModel::for_square(MachineModel::itanium_asymmetric(4.0), 16).unwrap();
    let fast_opt = optimize(&tree, &fast, &OptimizerConfig::default()).unwrap();
    assert!(fast_opt.comm_cost < base.comm_cost * 0.75, "{}", fast_opt.comm_cost);

    // dim2 4x slower: strictly more expensive, but the optimizer limits
    // the damage — one T1 rotation is forced onto the slow dimension, the
    // other must stay on the base-speed one (never both slow).
    let slow = CostModel::for_square(MachineModel::itanium_asymmetric(0.25), 16).unwrap();
    let slow_opt = optimize(&tree, &slow, &OptimizerConfig::default()).unwrap();
    assert!(slow_opt.comm_cost > base.comm_cost);
    let plan = extract_plan(&tree, &slow_opt);
    let t1_step = plan.step_for("T1").unwrap();
    let (_, t1_use) = plan.consumer_of("T1").unwrap();
    let both = [t1_step.result_rotate_cost, t1_use.rotate_cost];
    let slow_rotations = both.iter().filter(|&&c| c > 2000.0).count();
    assert_eq!(slow_rotations, 1, "exactly one T1 rotation on the slow dim: {both:?}");
    // The producing step's rotated pair travels opposite dims by construction.
    let pat = t1_step.pattern.unwrap();
    assert_ne!(pat.travel_dim(Operand::Result), pat.travel_dim(Operand::Left));
}

/// Plans serialize to JSON and back without losing the cost ledger.
#[test]
fn plan_json_round_trip() {
    use tce_core::ExecutionPlan;
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let opt = optimize(&tree, &cm16, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    let json = plan.to_json();
    assert!(json.contains("\"result_name\": \"T1\""), "{json}");
    let back = ExecutionPlan::from_json(&json).unwrap();
    assert_eq!(back.steps.len(), plan.steps.len());
    assert!((back.comm_cost - plan.comm_cost).abs() < 1e-9);
    assert_eq!(back.mem_words, plan.mem_words);
    validate_plan(&tree, &back).unwrap();
    // The deserialized plan still simulates (structural fidelity).
    let tiny = ccsd_tree(tce_expr::examples::PaperExtents::tiny());
    let cm4 = cm(4);
    let opt4 = optimize(&tiny, &cm4, &OptimizerConfig::default()).unwrap();
    let plan4 = extract_plan(&tiny, &opt4);
    let back4 = ExecutionPlan::from_json(&plan4.to_json()).unwrap();
    let report = tce_sim::simulate(&tiny, &back4, &cm4, 13).unwrap();
    assert!(report.max_abs_err < 1e-10);
}

/// §3.3: "our approach works regardless of whether any initial or final
/// data distribution is given" — pinned layouts are honored and priced.
#[test]
fn pinned_input_and_output_distributions() {
    use std::collections::HashMap;
    use tce_dist::Distribution;
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let free = optimize(&tree, &cm16, &OptimizerConfig::default()).unwrap();
    let free_plan = extract_plan(&tree, &free);

    // Pin D to a deliberately awkward layout: the optimizer must now pay a
    // redistribution for D (or reshape the plan), never beating the free
    // optimum.
    let ix = |s: &str| tree.space.lookup(s).unwrap();
    let mut input_dists = HashMap::new();
    input_dists.insert("D".to_string(), Distribution::pair(ix("l"), ix("c")));
    let pinned =
        optimize(&tree, &cm16, &OptimizerConfig { input_dists, ..Default::default() }).unwrap();
    assert!(pinned.comm_cost >= free.comm_cost);
    let plan = extract_plan(&tree, &pinned);
    validate_plan(&tree, &plan).unwrap();
    let (_, d_op) = plan.consumer_of("D").unwrap();
    // Either D was redistributed from the pinned layout, or the pinned
    // layout happened to be usable directly.
    assert_eq!(d_op.produced_dist.render(&tree.space), "<l,c>");
    assert!(d_op.redist_cost > 0.0, "the awkward pin must cost something");

    // Pinning the *output* to a layout the free optimum already produces
    // is free; pinning to a different one costs a final redistribution.
    let same = free_plan.step_for("S").unwrap().result_dist;
    let out_same =
        optimize(&tree, &cm16, &OptimizerConfig { output_dist: Some(same), ..Default::default() })
            .unwrap();
    assert!((out_same.comm_cost - free.comm_cost).abs() < 1e-9);
    assert_eq!(out_same.output_redist_cost, 0.0);

    let weird = Distribution::pair(ix("i"), ix("j"));
    let out_weird =
        optimize(&tree, &cm16, &OptimizerConfig { output_dist: Some(weird), ..Default::default() })
            .unwrap();
    assert!(out_weird.output_redist_cost > 0.0);
    assert!(out_weird.comm_cost > free.comm_cost);
    assert!(
        (out_weird.comm_cost
            - (extract_plan(&tree, &out_weird).comm_cost + out_weird.output_redist_cost))
            .abs()
            < 1e-9
    );
}

/// Closed-form sanity on a single square matmul: the optimum rotates two
/// of the three equal-size arrays once each, so the total cost is exactly
/// two characterized rotations, and memory is three blocks plus the
/// staging buffer.
#[test]
fn single_matmul_closed_form() {
    use tce_dist::GridDim;
    let src = "\
range i = 256; range j = 256; range k = 256;
input A[i,k]; input B[k,j];
C[i,j] = sum[k] A[i,k] * B[k,j];
";
    let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let opt = optimize(&tree, &cm4, &OptimizerConfig::default()).unwrap();
    let block_words: u128 = 128 * 128;
    let bytes = (block_words * 8) as f64;
    let expected = cm4.chr.rcost(2, GridDim::Dim1, bytes) + cm4.chr.rcost(2, GridDim::Dim2, bytes);
    assert!(
        (opt.comm_cost - expected).abs() < 1e-9,
        "comm {} vs closed form {expected}",
        opt.comm_cost
    );
    assert_eq!(opt.mem_words, 3 * block_words);
    assert_eq!(opt.max_msg_words, block_words);
    // The plan rotates exactly two operands, one per grid dimension.
    let plan = extract_plan(&tree, &opt);
    let step = &plan.steps[0];
    let pat = step.pattern.unwrap();
    assert_eq!(pat.rotated_operands().len(), 2);
}

/// The exhaustive checker enumerates the whole assignment space: its
/// reported count matches the combinatorics.
#[test]
fn exhaustive_counts_assignments() {
    let src = "\
range i = 8; range j = 8; range k = 8;
input A[i,k]; input B[k,j];
C[i,j] = sum[k] A[i,k] * B[k,j];
";
    let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let ex = exhaustive_min(&tree, &cm4, u128::MAX, 2, false, false).unwrap();
    // One contraction node: 1·1·1 triplets × 6 assignments = 6 patterns;
    // leaf edges A and B: prefixes over their 2 candidate dims capped at
    // 2 → 5 each; the root has no parent edge.
    assert_eq!(ex.assignments, 6 * 5 * 5);
    // And the optimum matches the DP.
    let dp = optimize(&tree, &cm4, &OptimizerConfig { max_prefix_len: 2, ..Default::default() })
        .unwrap();
    assert!((dp.comm_cost - ex.comm_cost).abs() < 1e-9);
}

/// Distribution-first succeeds where memory is plentiful (64 procs) and
/// matches the joint optimizer there.
#[test]
fn distribution_first_matches_joint_when_memory_is_plentiful() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm64 = cm(64);
    let base = OptimizerConfig::default();
    let joint = optimize(&tree, &cm64, &base).unwrap();
    let df = baselines::distribution_first(&tree, &cm64, &base);
    let plan = df.plan.expect("feasible at 64 procs");
    assert!((plan.comm_cost - joint.comm_cost).abs() <= 1e-6 * joint.comm_cost);
}

/// A tree whose root is an input array computes nothing: a typed error,
/// not a panic.
#[test]
fn leaf_rooted_tree_is_unsupported() {
    use tce_expr::{ExprTree, IndexSpace, Tensor};
    let mut sp = IndexSpace::new();
    let i = sp.declare("i", 4);
    let mut tree = ExprTree::new(sp);
    let leaf = tree.add_leaf(Tensor::new("A", vec![i]));
    tree.set_root(leaf);
    let cm4 = cm(4);
    match optimize(&tree, &cm4, &OptimizerConfig::default()) {
        Err(OptimizeError::Unsupported(msg)) => assert!(msg.contains("root")),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

/// Two optimizer runs in fresh hash-map states produce identical plans —
/// tie-breaking must not depend on hash iteration order.
#[test]
fn optimization_is_deterministic() {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm16 = cm(16);
    let p1 = extract_plan(&tree, &optimize(&tree, &cm16, &OptimizerConfig::default()).unwrap());
    let p2 = extract_plan(&tree, &optimize(&tree, &cm16, &OptimizerConfig::default()).unwrap());
    assert_eq!(p1.to_json(), p2.to_json());
}

/// Two isomorphic matrix-product subtrees under one root: level-1 subtree
/// reuse replays the second from the first through a monotone index
/// rename, bit-identically — same plan bytes, same cost bits, same
/// per-node statistics, same counters outside the documented
/// nondeterministic set — with the `dp.subtree_hit` counter proving the
/// replay actually happened.
#[test]
fn subtree_reuse_is_bit_identical() {
    let src = "\
range a, b, c = 16; range p, q, r = 16;
input A[a,b]; input B[b,c]; input C[p,q]; input D[q,r];
T1[a,c] = sum[b] A[a,b] * B[b,c];
T2[p,r] = sum[q] C[p,q] * D[q,r];
S[a,p] = sum[c,r] T1[a,c] * T2[p,r];
";
    let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
    let cm4 = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let base = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let with = optimize(&tree, &cm4, &base).unwrap();
    let without =
        optimize(&tree, &cm4, &OptimizerConfig { disable_subtree_reuse: true, ..base.clone() })
            .unwrap();

    // The reuse actually fired: T2 replayed T1's frontier.
    assert!(with.counters.get(tce_obs::names::SUBTREE_HIT) >= 1, "no subtree hit recorded");
    assert_eq!(without.counters.get(tce_obs::names::SUBTREE_HIT), 0);

    // Bit-identical results and statistics.
    assert_eq!(with.comm_cost.to_bits(), without.comm_cost.to_bits());
    assert_eq!(with.mem_words, without.mem_words);
    assert_eq!(with.max_msg_words, without.max_msg_words);
    assert_eq!(with.arena_hw_bytes, without.arena_hw_bytes);
    assert_eq!(with.comm_lower_bound.to_bits(), without.comm_lower_bound.to_bits());
    assert_eq!(format!("{:?}", with.stats), format!("{:?}", without.stats));
    let p1 = extract_plan(&tree, &with);
    let p2 = extract_plan(&tree, &without);
    assert_eq!(p1.to_json(), p2.to_json());
    validate_plan(&tree, &p1).unwrap();

    // Every counter outside the documented nondeterministic set agrees.
    for (name, value) in with.counters.iter() {
        if !tce_obs::names::is_deterministic(name) {
            continue;
        }
        assert_eq!(value, without.counters.get(name), "counter {name} diverged");
    }
    for (name, value) in without.counters.iter() {
        if !tce_obs::names::is_deterministic(name) {
            continue;
        }
        assert_eq!(value, with.counters.get(name), "counter {name} diverged");
    }
}
