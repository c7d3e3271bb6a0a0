//! The request-serving planner entry point: the exact §3.3 search,
//! warm-started from the key pass.
//!
//! Each request prepares one [`Search`] (validation, limit, prover, floors
//! and subtree forms) and runs its passes on it; a pass and its warm bound
//! are the only inputs that vary (DESIGN.md §13).
//!
//! [`plan`] first runs [`Pass::Key`]: the same DP keeping one entry per
//! `(dist, fusion)` key, its lexicographically least `(cost, mem, msg)`
//! candidate. That is a restriction of the full search, so the plan it
//! finds is a real plan of the same configuration, priced by the same
//! kernels, and its cost is never below the optimum: a sound warm bound
//! for the exact branch-and-bound. The winning plan, its cost bits and the
//! certified floor are bit-identical to a cold [`optimize`]; only
//! search-effort output moves (the `dp.*` counters, live counts, frontier
//! composition and runner-ups; DESIGN.md §13). A key pass that finds no
//! plan fitting the memory limit simply leaves the exact search cold, so
//! feasibility is always decided by the exact search alone. [`optimize`]
//! itself stays the paper's cold search.
//!
//! [`plan_explained`] serves a request that also narrates what the memory
//! limit cost (text `tce optimize`, [`crate::explain`]): the same key pass
//! and warm bound, then [`Pass::Explained`], the exact search with the
//! limit checked only at root selection, whose one root set gives both
//! the plan under the limit and the optimum with it lifted
//! ([`Optimized::lifted`], DESIGN.md §13). When the key pass finds no plan
//! that fits, the plan-only search runs first and its optimum is the
//! bound.
//!
//! [`optimize`]: crate::optimize

use tce_cost::CostModel;
use tce_expr::ExprTree;

pub use crate::dp::{key_pass, Pass, Search};
use crate::dp::{OptimizeError, Optimized, OptimizerConfig};

/// A [`plan`] result.
#[derive(Debug)]
pub struct Planned {
    /// The exact search's solution.
    pub opt: Optimized,
}

/// Serve an optimization request: the exact DP, warm-started from the
/// key pass whenever the warm cut can apply (no pattern or fusion pins,
/// and lower bounds and pruning on).
pub fn plan(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    let search = Search::new(tree, cm, cfg)?;
    let opt = search.run(Pass::Exact, key_pass_bound(&search))?;
    Ok(Planned { opt })
}

/// Serve an explained request: [`plan`], with the exact search checking
/// the memory limit only at root selection. The plan and every
/// plan-class value are [`plan`]'s; the run also carries
/// [`Optimized::lifted`], and its effort counters are those of the wider
/// search (nothing is pruned for memory below the root). The bound must
/// cover both answers, so it comes from a plan that fits: the key pass's,
/// or, when the key pass finds none, the plan-only search's. That search
/// prunes by memory, so it also refuses an infeasible request as fast as
/// [`plan`] does; without a bound the explained search would price every
/// candidate over the limit first.
pub fn plan_explained(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    let search = Search::new(tree, cm, cfg)?;
    let bound = match key_pass_bound(&search) {
        None if search.cuts_active() => Some(search.run(Pass::Exact, None)?.comm_cost),
        bound => bound,
    };
    let opt = search.run(Pass::Explained, bound)?;
    Ok(Planned { opt })
}

/// The key pass's cost, run under the real limit, when the warm cut can
/// apply and the pass finds a plan that fits.
fn key_pass_bound(search: &Search) -> Option<f64> {
    search.cuts_active().then(|| search.run(Pass::Key, None).ok().map(|o| o.comm_cost)).flatten()
}
