//! The request-serving planner entry point: the exact §3.3 search,
//! warm-started from the key pass.
//!
//! [`plan`] first runs the key pass: the same DP keeping one entry per
//! `(dist, fusion)` key, its lexicographically least `(cost, mem, msg)`
//! candidate. That is a restriction of the full search, so the plan it
//! finds is a real plan of the same configuration, priced by the same
//! kernels, and its cost is never below the optimum: a sound
//! [`OptimizerConfig::warm_upper_bound`] for the exact branch-and-bound.
//! The winning plan, its cost bits and the certified floor are
//! bit-identical to a cold [`optimize`]; only search-effort output moves
//! (the `dp.*` counters, live counts, frontier composition and
//! runner-ups; DESIGN.md §13). A key pass that finds no plan fitting the
//! memory limit simply leaves the exact search cold, so feasibility is
//! always decided by the exact search alone. [`optimize`] itself stays the
//! paper's cold search.

use tce_cost::CostModel;
use tce_expr::ExprTree;

pub use crate::dp::key_pass;
use crate::dp::{optimize, OptimizeError, Optimized, OptimizerConfig};

/// A [`plan`] result.
#[derive(Debug)]
pub struct Planned {
    /// The exact search's solution.
    pub opt: Optimized,
}

/// Serve an optimization request: the exact DP, warm-started from the
/// key pass whenever the warm cut can apply (no pins, lower bounds and
/// pruning on).
pub fn plan(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    let warm_eligible = cfg.fixed_patterns.is_none()
        && cfg.fixed_fusion.is_none()
        && !cfg.disable_lower_bounds
        && !cfg.disable_pruning;
    let incumbent =
        if warm_eligible { key_pass(tree, cm, cfg).ok().map(|o| o.comm_cost) } else { None };
    let opt = match incumbent {
        Some(cost) => {
            let ub = cfg.warm_upper_bound.map_or(cost, |ub| ub.min(cost));
            optimize(tree, cm, &OptimizerConfig { warm_upper_bound: Some(ub), ..cfg.clone() })?
        }
        None => optimize(tree, cm, cfg)?,
    };
    Ok(Planned { opt })
}
