//! Integration tests for the pass registry: the clean path, the gate, the
//! cost-model skip, warning semantics, and `validate_plan`'s result
//! contract over the full registry.

use tce_core::check::{check_plan, codes};
use tce_core::{extract_plan, optimize, validate_plan, ExecutionPlan, OptimizerConfig};
use tce_cost::{CostModel, MachineModel};
use tce_expr::examples::{ccsd_tree, PaperExtents};
use tce_expr::ExprTree;

fn optimized_pair() -> (ExprTree, CostModel, ExecutionPlan) {
    let tree = ccsd_tree(PaperExtents::tiny());
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).expect("16 is square");
    let opt = optimize(&tree, &cm, &OptimizerConfig::default()).expect("tiny ccsd optimizes");
    let plan = extract_plan(&tree, &opt);
    (tree, cm, plan)
}

#[test]
fn clean_plan_passes_the_full_registry() {
    let (tree, cm, plan) = optimized_pair();
    let report = check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()));
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(report.skipped.is_empty());
    assert_eq!(
        report.passes_run,
        vec!["structure", "shape", "distribution", "cannon", "fusion", "memory", "cost"]
    );
    let json = report.render_json();
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(report.render_human().contains("0 error(s)"));
}

#[test]
fn memory_pass_is_skipped_without_a_cost_model() {
    let (tree, _cm, plan) = optimized_pair();
    let report = check_plan(&tree, &plan, None, None);
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(!report.passes_run.contains(&"memory"));
    assert!(report.skipped.iter().any(|(name, why)| *name == "memory" && why.contains("cost")));
    // The ledger half of the cost pass still runs model-free.
    assert!(report.passes_run.contains(&"cost"));
}

#[test]
fn structural_errors_gate_the_analysis_passes() {
    let (tree, cm, mut plan) = optimized_pair();
    plan.steps.pop();
    let report = check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()));
    assert!(report.has_code(codes::STEP_COUNT), "{}", report.render_human());
    assert_eq!(report.passes_run, vec!["structure"]);
    assert_eq!(report.skipped.len(), 6);
    assert!(report.skipped.iter().all(|(_, why)| why.contains("structural errors")));
}

#[test]
fn silent_layout_change_is_a_warning_without_a_model_and_an_error_with_one() {
    let (tree, cm, mut plan) = optimized_pair();
    // Flip one produced layout (still a valid placement for the array) and
    // leave the redistribution cost at zero — the "silent redistribution".
    let op = plan
        .steps
        .iter_mut()
        .flat_map(|s| s.operands.iter_mut())
        .find(|o| {
            o.redist_cost == 0.0 && o.produced_dist.d1.is_some() && o.produced_dist.d2.is_some()
        })
        .expect("an unredistributed two-index operand exists");
    std::mem::swap(&mut op.produced_dist.d1, &mut op.produced_dist.d2);

    // Model-free, intent can't be priced: a warning, and warnings don't fail.
    let free = check_plan(&tree, &plan, None, None);
    assert!(free.has_code(codes::SILENT_REDIST), "{}", free.render_human());
    assert!(free.is_clean(), "warnings must not fail the check");
    assert!(free.error_count() == 0 && free.warning_count() > 0);

    // With a model that prices the move, it hardens into an error.
    let priced = check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()));
    assert!(priced.has_code(codes::SILENT_REDIST));
    assert!(!priced.is_clean());
    assert!(priced.has_code(codes::REDIST_COST_DIVERGES), "{}", priced.render_human());
}

#[test]
fn validate_plan_keeps_the_result_contract() {
    let (tree, _cm, mut plan) = optimized_pair();
    assert!(validate_plan(&tree, &plan).is_ok());
    plan.steps.swap(0, 1);
    let err = validate_plan(&tree, &plan).expect_err("reordered plan must fail");
    assert!(err.contains("TCE004"), "{err}");
}

#[test]
fn validate_plan_rejects_a_corrupted_cannon_selection_with_tce031() {
    let (tree, _cm, mut plan) = optimized_pair();
    // Corrupt a Cannon selection: pick the K-group index for role I. The
    // structure, fusion and ledger checks are all blind to this; only the
    // cannon pass catches it, and `validate_plan` runs it with no setup.
    let pat = plan
        .steps
        .iter_mut()
        .find_map(|s| s.pattern.as_mut().filter(|p| p.i.is_some() && p.k.is_some()))
        .expect("a contraction step with i and k selections exists");
    pat.i = pat.k;
    let err = validate_plan(&tree, &plan).expect_err("the full checker must reject");
    assert!(err.contains("TCE031"), "{err}");
}

#[test]
fn rotating_result_without_distributed_k_is_rejected() {
    use tce_dist::{Role, RoleAssignment};
    let (tree, cm, mut plan) = optimized_pair();
    // Rebuild one pattern so the result itself travels (rotating role I)
    // while the summation group contributes no index: every ring position
    // then adds an identical contribution and the result is overcounted.
    let pat = plan
        .steps
        .iter_mut()
        .find_map(|s| s.pattern.as_mut().filter(|p| p.i.is_some()))
        .expect("a contraction step selecting an I-group index exists");
    pat.assign = RoleAssignment { dim1: Role::J, dim2: Role::K };
    pat.k = None;
    let report = check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()));
    assert!(report.has_code(codes::ROTATING_RESULT_UNPARTITIONED), "{}", report.render_human());
    assert!(!report.is_clean());
}
