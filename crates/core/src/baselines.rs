//! Baseline strategies the paper argues against (§2, last paragraph).
//!
//! 1. **Distribution first**: find the communication-minimizing
//!    distributions for the *unfused* form, then try to fuse for memory
//!    with those distributions frozen. Fails outright or pays more — the
//!    paper's argument (1) "fusion changes the communication cost" and
//!    (2) "it may be impossible to find a fused form that fits".
//! 2. **Fusion first**: minimize memory sequentially (the prior work of
//!    refs [14–16]), then distribute with the fusion frozen. Over-fuses and
//!    pays communication it didn't need to.
//!
//! Both reuse the same DP engine with parts of the search space pinned, so
//! cost comparisons are apples-to-apples.

use std::collections::HashMap;

use tce_cost::CostModel;
use tce_expr::{ExprTree, NodeId};
use tce_fusion::{minimize_memory, FusionConfig};

use crate::dp::{optimize, OptimizeError, OptimizerConfig};
use crate::plan::{extract_plan, ExecutionPlan};

/// Outcome of a baseline strategy.
#[derive(Debug)]
pub struct BaselineResult {
    /// The plan, when the strategy produced a feasible one.
    pub plan: Option<ExecutionPlan>,
    /// Why it failed, otherwise.
    pub error: Option<OptimizeError>,
    /// The fusion configuration the strategy committed to (if any).
    pub fixed_fusion: Option<FusionConfig>,
}

/// Baseline 1 — distribution first: pin every node to the pattern the
/// unfused, unconstrained optimizer picks, then search fusions under the
/// real memory limit.
pub fn distribution_first(
    tree: &ExprTree,
    cm: &CostModel,
    base: &OptimizerConfig,
) -> BaselineResult {
    // Phase 1: unfused, memory-unconstrained.
    let phase1_cfg =
        OptimizerConfig { max_prefix_len: 0, mem_limit_words: Some(u128::MAX), ..base.clone() };
    let phase1 = match optimize(tree, cm, &phase1_cfg) {
        Ok(o) => o,
        Err(e) => return BaselineResult { plan: None, error: Some(e), fixed_fusion: None },
    };
    let plan1 = extract_plan(tree, &phase1);
    let mut patterns: HashMap<NodeId, tce_dist::CannonPattern> = HashMap::new();
    for step in &plan1.steps {
        if let Some(p) = step.pattern {
            patterns.insert(step.node, p);
        }
    }
    // Phase 2: fusions free, patterns frozen, memory limited.
    let phase2_cfg = OptimizerConfig { fixed_patterns: Some(patterns), ..base.clone() };
    match optimize(tree, cm, &phase2_cfg) {
        Ok(o) => {
            BaselineResult { plan: Some(extract_plan(tree, &o)), error: None, fixed_fusion: None }
        }
        Err(e) => BaselineResult { plan: None, error: Some(e), fixed_fusion: None },
    }
}

/// Baseline 2 — fusion first: freeze the sequential memory-minimal fusion,
/// then optimize distributions under the memory limit.
///
/// The sequential optimum frequently over-fuses so far that *no* rotation
/// pattern of the paper's framework remains legal (every rotated array
/// would have to carry every fused loop). In that case the baseline
/// retries with `allow_unrelated_rotation`, pricing the full-block
/// re-rotations the fusion forces — usually a catastrophic number, which
/// is exactly the paper's point.
pub fn fusion_first(tree: &ExprTree, cm: &CostModel, base: &OptimizerConfig) -> BaselineResult {
    let mm = minimize_memory(tree, base.max_prefix_len);
    let cfg = OptimizerConfig { fixed_fusion: Some(mm.config.clone()), ..base.clone() };
    match optimize(tree, cm, &cfg) {
        Ok(o) => BaselineResult {
            plan: Some(extract_plan(tree, &o)),
            error: None,
            fixed_fusion: Some(mm.config),
        },
        Err(first_err) => {
            let retry = OptimizerConfig { allow_unrelated_rotation: true, ..cfg };
            match optimize(tree, cm, &retry) {
                Ok(o) => BaselineResult {
                    plan: Some(extract_plan(tree, &o)),
                    error: None,
                    fixed_fusion: Some(mm.config),
                },
                Err(_) => BaselineResult {
                    plan: None,
                    error: Some(first_err),
                    fixed_fusion: Some(mm.config),
                },
            }
        }
    }
}
