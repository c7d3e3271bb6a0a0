//! # tce-core — memory-constrained communication minimization
//!
//! The paper's contribution (§3.3): a bottom-up dynamic programming over a
//! tensor contraction expression tree that **jointly** chooses, per node,
//!
//! * the generalized-Cannon communication pattern (and thus the
//!   distributions of all three participating arrays), and
//! * the loop fusion with the parent (and thus the reduced array shape and
//!   the message slicing/multiplication of every rotation),
//!
//! minimizing total inter-processor communication subject to a
//! per-processor memory limit. Partial solutions are pruned when dominated
//! or memory-infeasible; the search is otherwise exhaustive, so the result
//! is optimal over the modeled space (validated against
//! [`exhaustive`] brute force on small instances).
//!
//! Every plan the crate emits or serves from its cache passes the static
//! checker in [`check`], which [`validate_plan`], the optimizer's
//! self-check and the [`PlanCache`] load gate call directly. The checker
//! sees only the plan types, never the search's internals.
//!
//! ```
//! use tce_core::{optimize, OptimizerConfig};
//! use tce_cost::{CostModel, MachineModel};
//! use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};
//!
//! let tree = ccsd_tree(PAPER_EXTENTS);
//! let cm = CostModel::for_square(MachineModel::itanium_cluster(), 64).unwrap();
//! let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
//! let plan = tce_core::extract_plan(&tree, &opt);
//! println!("{}", tce_core::render_report(&tce_core::build_report(&tree, &plan, &cm)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod baselines;
pub mod cache;
pub mod check;
mod codegen;
mod dp;
pub mod exhaustive;
mod explain;
mod frontier;
mod fx;
mod plan;
pub mod portfolio;
mod provenance;
mod report;
mod sched;
mod solution;
mod stats;

pub use cache::{cache_key, CacheKey, CachedRun, LookupOutcome, PlanCache, PLAN_CACHE_SCHEMA};
pub use codegen::render_spmd;
pub use dp::{optimize, Lifted, NodeStats, OptimizeError, Optimized, OptimizerConfig};
pub use explain::{explain, Explanation};
pub use frontier::{root_frontier, FrontierPoint};
pub use plan::{
    extract_plan, extract_plan_for, validate_plan, ExecutionPlan, PlanOperand, PlanStep,
};
pub use provenance::{
    build_provenance, invocations, render_provenance, report_json, step_ledger, KindProfile,
    NodeProvenance, Provenance, RunnerUp, KIND_NAMES,
};
pub use report::{build_report, render_plan_dot, render_report, ArrayRow, Report};
pub use solution::{ChildBinding, Choice, KeySummary, SolutionSet};
pub use stats::{metrics_snapshot, render_search_stats};
