//! Static verification of execution plans.
//!
//! The §3.3 optimizer emits [`ExecutionPlan`]s whose legality rests on
//! invariants the search never re-checks: Cannon pattern legality (§3.2),
//! fusion-prefix consistency between producer and consumer, the
//! per-processor memory bound, and a cost ledger that must be reproducible
//! from the cost model. This module verifies all of it *independently* — a
//! diagnostics engine with stable `TCE0xx` codes ([`diag`]) plus a registry
//! of analysis passes ([`passes`]) that trust nothing in the plan they can
//! re-derive from the expression tree and the paper's formulas.
//!
//! [`check_plan`] is the one validator: `tce_core::validate_plan`, the
//! optimizer's self-check and both plan-cache load gates call it directly.
//! To keep it independent of the search, nothing under `check/` may use
//! this crate's items other than `crate::plan::{ExecutionPlan, PlanStep,
//! PlanOperand}` (CI enforces it), so a bug in the DP cannot hide in the
//! checker.

pub mod diag;
pub mod passes;

pub use diag::{codes, CheckReport, Diagnostic, Diagnostics, Severity};
pub use passes::{CheckContext, Pass};

use tce_cost::CostModel;
use tce_expr::ExprTree;

use crate::plan::ExecutionPlan;

/// Run the full pass registry over a `(tree, plan)` pair.
///
/// The structural gate pass runs first; if it finds errors, the deeper
/// passes are skipped (they would dereference node and index ids the gate
/// just proved invalid) and recorded in [`CheckReport::skipped`]. Passes
/// that need a cost model are skipped with a reason when `cm` is `None`.
pub fn check_plan(
    tree: &ExprTree,
    plan: &ExecutionPlan,
    cm: Option<&CostModel>,
    mem_limit_words: Option<u128>,
) -> CheckReport {
    let ctx = CheckContext { tree, plan, cm, mem_limit_words };
    let mut report = CheckReport::default();

    let gate = passes::gate_pass();
    let mut found = Diagnostics::new();
    gate.run(&ctx, &mut found);
    report.passes_run.push(gate.name());
    let gate_errors = found.error_count();
    report.diagnostics.extend(found.into_vec());
    if gate_errors > 0 {
        for p in passes::analysis_passes() {
            report.skipped.push((p.name(), "structural errors gate the deeper passes".into()));
        }
        return report;
    }

    for p in passes::analysis_passes() {
        if p.needs_cost_model() && cm.is_none() {
            report.skipped.push((p.name(), "no cost model available".into()));
            continue;
        }
        let mut found = Diagnostics::new();
        p.run(&ctx, &mut found);
        report.passes_run.push(p.name());
        report.diagnostics.extend(found.into_vec());
    }
    report
}
