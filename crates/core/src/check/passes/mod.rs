//! The registry of independent analysis passes.
//!
//! Each pass re-derives one family of invariants from scratch — it never
//! trusts a number in the plan that it can recompute from the expression
//! tree, the cost model, and the paper's formulas. The passes are
//! independent of the optimizer's internals on purpose: they consume only
//! the public `(ExprTree, ExecutionPlan)` pair, so a bug in the search
//! cannot hide itself in the checker.

use crate::plan::ExecutionPlan;
use tce_cost::CostModel;
use tce_expr::ExprTree;

use crate::check::diag::Diagnostics;

mod cannon;
mod cost;
mod distribution;
mod fusion;
mod memory;
mod shape;
mod structure;

/// Everything a pass may look at.
pub struct CheckContext<'a> {
    /// The expression tree the plan claims to execute.
    pub tree: &'a ExprTree,
    /// The plan under scrutiny.
    pub plan: &'a ExecutionPlan,
    /// The cost model (grid + machine) the plan was priced against; absent
    /// when only structural checks are wanted.
    pub cm: Option<&'a CostModel>,
    /// The per-processor memory limit (words) the plan must respect;
    /// absent when no limit applies.
    pub mem_limit_words: Option<u128>,
}

/// One analysis pass.
pub trait Pass {
    /// Stable pass name (shown in reports and `passes_run`).
    fn name(&self) -> &'static str;
    /// The paper invariant the pass enforces (documentation string).
    fn paper_ref(&self) -> &'static str;
    /// Whether the pass needs the cost model (grid/machine) to run.
    fn needs_cost_model(&self) -> bool {
        false
    }
    /// Run over the plan, appending findings.
    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics);
}

/// The structural gate pass: it must find nothing before the deeper passes
/// may dereference node and index ids from the (possibly hostile) plan.
pub fn gate_pass() -> Box<dyn Pass> {
    Box::new(structure::StructurePass)
}

/// The deeper passes, in registry order.
pub fn analysis_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(shape::ShapePass),
        Box::new(distribution::DistributionPass),
        Box::new(cannon::CannonPass),
        Box::new(fusion::FusionPass),
        Box::new(memory::MemoryPass),
        Box::new(cost::CostPass),
    ]
}
