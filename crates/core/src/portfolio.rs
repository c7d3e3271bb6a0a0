//! The request-serving planner entry point: the exact §3.3 search,
//! warm-started from a greedy incumbent.
//!
//! [`plan`] first prices one greedy configuration — at every contraction
//! node the pattern with the cheapest node-local rotation, fusion left to
//! the DP — by running the DP with that pattern pinned. The pinned space
//! is a subset of the full one, so the greedy cost is the cost of a real
//! plan and never below the optimum: a sound
//! [`OptimizerConfig::warm_upper_bound`] for the exact branch-and-bound.
//! The winning plan, its cost bits and the certified floor are
//! bit-identical to a cold [`optimize`]; only search-effort output moves
//! (the `dp.*` counters, live counts, frontier composition and
//! runner-ups; DESIGN.md §13). A greedy configuration that does not fit
//! the memory limit simply leaves the exact search cold, so feasibility is
//! always decided by the exact search alone. [`optimize`] itself stays the
//! paper's cold search.

use std::collections::HashMap;

use tce_cost::CostModel;
use tce_dist::{enumerate_patterns, CannonPattern};
use tce_expr::{ExprTree, IndexSet, NodeId, NodeKind};

use crate::dp::{optimize, optimize_uncertified, OptimizeError, Optimized, OptimizerConfig};

/// A [`plan`] result.
#[derive(Debug)]
pub struct Planned {
    /// The exact search's solution.
    pub opt: Optimized,
}

/// The greedy configuration: at every contraction node, the pattern whose
/// node-local rotation cost (unfused, the paper's `RotateCost` with
/// `f = ∅`) is smallest. Ties keep the first (enumeration-order) pattern,
/// so the choice is deterministic.
fn greedy_patterns(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> HashMap<NodeId, CannonPattern> {
    let mut pins = HashMap::new();
    for id in tree.postorder() {
        let NodeKind::Contract { left, right, .. } = tree.node(id).kind else { continue };
        let Ok(groups) = tree.contraction_groups(id) else { continue };
        let menu = enumerate_patterns(&groups, cfg.allow_replication);
        let Some(&first) = menu.first() else { continue };
        let mut best = (f64::INFINITY, first);
        for pat in &menu {
            let score = local_rotation_score(tree, cm, id, left, right, pat);
            if score < best.0 {
                best = (score, *pat);
            }
        }
        pins.insert(id, best.1);
    }
    pins
}

/// Sum of the paper's `RotateCost` over the pattern's rotated operands,
/// unfused — a node-local estimate of what this pattern pays per step,
/// sharing the exact kernels in [`tce_cost::rotate`].
fn local_rotation_score(
    tree: &ExprTree,
    cm: &CostModel,
    node: NodeId,
    left: NodeId,
    right: NodeId,
    pat: &CannonPattern,
) -> f64 {
    let mut total = 0.0;
    for op in pat.rotated_operands() {
        let tensor = match op {
            tce_dist::Operand::Left => &tree.node(left).tensor,
            tce_dist::Operand::Right => &tree.node(right).tensor,
            tce_dist::Operand::Result => &tree.node(node).tensor,
        };
        if let Some(travel) = pat.travel_dim(op) {
            total += tce_cost::rotate::rotate_cost(
                tensor,
                &tree.space,
                cm.grid,
                pat.operand_dist(op),
                travel,
                &IndexSet::new(),
                &cm.chr,
            );
        }
    }
    total
}

/// The greedy configuration's cost through the restricted DP, or `None`
/// when it does not fit the memory limit. Lower bounds, the certificate
/// and verification are off: only the cost is read.
fn greedy_cost(tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) -> Option<f64> {
    let _span = tce_obs::span("dp", "warm_start");
    let restricted = OptimizerConfig {
        fixed_patterns: Some(greedy_patterns(tree, cm, cfg)),
        fixed_fusion: None,
        disable_lower_bounds: true,
        verify: false,
        warm_upper_bound: None,
        ..cfg.clone()
    };
    optimize_uncertified(tree, cm, &restricted).ok().map(|o| o.comm_cost)
}

/// Serve an optimization request: the exact DP, warm-started from the
/// greedy incumbent whenever the warm cut can apply (no pins, lower
/// bounds and pruning on).
pub fn plan(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    let warm_eligible = cfg.fixed_patterns.is_none()
        && cfg.fixed_fusion.is_none()
        && !cfg.disable_lower_bounds
        && !cfg.disable_pruning;
    let incumbent = if warm_eligible { greedy_cost(tree, cm, cfg) } else { None };
    let opt = match incumbent {
        Some(cost) => {
            let ub = cfg.warm_upper_bound.map_or(cost, |ub| ub.min(cost));
            optimize(tree, cm, &OptimizerConfig { warm_upper_bound: Some(ub), ..cfg.clone() })?
        }
        None => optimize(tree, cm, cfg)?,
    };
    Ok(Planned { opt })
}
