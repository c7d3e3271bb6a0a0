//! Pass 3 — distribution legality (§3.2(i)).
//!
//! Every `Distribution` in the plan must be valid for its array on the
//! `√P×√P` grid (each distributed index is a dimension of the array, and
//! one index never occupies both grid dimensions), and the
//! `required_dist`/`produced_dist` pair of every operand must mismatch
//! *iff* a redistribution cost is charged. Fused edges cannot
//! redistribute mid-stream at all (§3.2(iii)).

use tce_dist::Distribution;
use tce_expr::{IndexSet, Tensor};

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Layout validity and redistribution bookkeeping.
pub struct DistributionPass;

impl Pass for DistributionPass {
    fn name(&self) -> &'static str {
        "distribution"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.2(i) — ⟨i,j⟩ layouts on the two-dimensional grid; redistribution \
         is paid exactly when the produced and required layouts differ"
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let tree = ctx.tree;
        let space = &tree.space;
        let check_valid =
            |dist: Distribution, tensor: &Tensor, what: &str, step: &str, out: &mut Diagnostics| {
                if !dist.is_valid_for(tensor) {
                    out.push(
                        Diagnostic::error(
                            codes::DIST_INVALID,
                            format!(
                                "{what} layout {} is not valid for `{}` {}",
                                dist.render(space),
                                tensor.name,
                                tensor.render(space)
                            ),
                        )
                        .at_step(step),
                    );
                }
            };
        for step in &ctx.plan.steps {
            let result_tensor = &tree.node(step.node).tensor;
            check_valid(step.result_dist, result_tensor, "result", &step.result_name, out);
            for op in &step.operands {
                let tensor = &tree.node(op.node).tensor;
                check_valid(op.required_dist, tensor, "required operand", &step.result_name, out);
                check_valid(op.produced_dist, tensor, "produced operand", &step.result_name, out);

                let moved = op.produced_dist != op.required_dist;
                if !moved && op.redist_cost != 0.0 {
                    out.push(
                        Diagnostic::error(
                            codes::PHANTOM_REDIST,
                            format!(
                                "operand `{}` is charged redistribution cost {} although it is \
                                 produced in the required layout {}",
                                op.name,
                                op.redist_cost,
                                op.required_dist.render(space)
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(op.node),
                    );
                }
                if moved && op.redist_cost == 0.0 {
                    // On degenerate grids a layout change can genuinely cost
                    // nothing; only flag an error when the cost model prices
                    // the move above zero (or warn when we cannot price it).
                    let msg = format!(
                        "operand `{}` changes layout {} -> {} with no redistribution cost",
                        op.name,
                        op.produced_dist.render(space),
                        op.required_dist.render(space)
                    );
                    match ctx.cm {
                        Some(cm) => {
                            let priced = cm.redistribution_cost(
                                tensor,
                                space,
                                op.produced_dist,
                                op.required_dist,
                                &IndexSet::new(),
                            );
                            if priced > 0.0 {
                                out.push(
                                    Diagnostic::error(codes::SILENT_REDIST, msg)
                                        .at_step(&step.result_name)
                                        .at_node(op.node)
                                        .note(format!(
                                            "the cost model prices this move at {priced}"
                                        )),
                                );
                            }
                        }
                        None => out.push(
                            Diagnostic::warning(codes::SILENT_REDIST, msg)
                                .at_step(&step.result_name)
                                .at_node(op.node)
                                .note("no cost model available to confirm the move is free"),
                        ),
                    }
                }
                if !op.fusion.is_empty() && moved {
                    out.push(
                        Diagnostic::error(
                            codes::FUSED_LAYOUT_CHANGE,
                            format!(
                                "fused operand `{}` changes layout {} -> {} mid-fusion",
                                op.name,
                                op.produced_dist.render(space),
                                op.required_dist.render(space)
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(op.node)
                        .note(
                            "a slice-by-slice producer has no chance to redistribute (§3.2(iii))",
                        ),
                    );
                }
            }
        }
    }
}
