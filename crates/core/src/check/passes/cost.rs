//! Pass 7 — cost cross-check against `tce-cost`'s direct kernels.
//!
//! The optimizer prices redistributions straight from the [`CostModel`]
//! and rotations from per-node tables documented to be bit-identical to
//! the model's entry points. This pass therefore re-derives every
//! redistribution and rotation cost straight from the model and insists
//! on **exact** equality — any divergence means either a corrupted plan
//! or a table bug, both worth an error. Only the headline ledger uses a
//! tolerance: its sum runs in a different order than the search
//! accumulated it.

use tce_dist::{block_len, Operand};
use tce_expr::{IndexId, IndexSet, NodeKind};

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Redistribution/rotation cost recomputation and the cost ledger.
pub struct CostPass;

impl Pass for CostPass {
    fn name(&self) -> &'static str {
        "cost"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.2 — RotateCost/redistribution formulas; every recorded cost is \
         reproducible from the model"
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let plan = ctx.plan;
        let ledger = plan.sum_step_comm();
        if (ledger - plan.comm_cost).abs() > 1e-6 * plan.comm_cost.abs().max(1.0) {
            out.push(
                Diagnostic::error(
                    codes::LEDGER_MISMATCH,
                    format!(
                        "step costs sum to {ledger} but the plan's headline comm_cost is {}",
                        plan.comm_cost
                    ),
                )
                .note("the headline excludes any final output redistribution by construction"),
            );
        }
        let Some(cm) = ctx.cm else { return };
        let tree = ctx.tree;
        let space = &tree.space;
        for step in &plan.steps {
            for op in &step.operands {
                let want = cm.redistribution_cost(
                    &tree.node(op.node).tensor,
                    space,
                    op.produced_dist,
                    op.required_dist,
                    &IndexSet::new(),
                );
                if want != op.redist_cost {
                    out.push(
                        Diagnostic::error(
                            codes::REDIST_COST_DIVERGES,
                            format!(
                                "operand `{}` records redistribution cost {} but the model \
                                 derives {want}",
                                op.name, op.redist_cost
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(op.node),
                    );
                }
            }
            match &tree.node(step.node).kind {
                NodeKind::Contract { .. } => {
                    let Some(pat) = step.pattern.as_ref().filter(|_| step.operands.len() == 2)
                    else {
                        continue; // elementwise (or TCE011); nothing rotates
                    };
                    if pat.assign.dim1 == pat.assign.dim2 {
                        continue; // TCE030: the rotating role is undefined
                    }
                    let ldist = pat.operand_dist(Operand::Left);
                    let rdist = pat.operand_dist(Operand::Right);
                    let odist = pat.operand_dist(Operand::Result);
                    let surround = step.surrounding.as_set();
                    // Per-processor trip count of a surrounding fused loop,
                    // exactly as the search priced it.
                    let trip = |j: IndexId| -> u64 {
                        let dim = odist
                            .position_of(j)
                            .or_else(|| ldist.position_of(j))
                            .or_else(|| rdist.position_of(j));
                        match dim {
                            Some(d) => block_len(space.extent(j), cm.grid.extent(d)),
                            None => space.extent(j),
                        }
                    };
                    let slots = [
                        (
                            Operand::Left,
                            &tree.node(step.operands[0].node).tensor,
                            ldist,
                            step.operands[0].rotate_cost,
                            step.operands[0].name.as_str(),
                        ),
                        (
                            Operand::Right,
                            &tree.node(step.operands[1].node).tensor,
                            rdist,
                            step.operands[1].rotate_cost,
                            step.operands[1].name.as_str(),
                        ),
                        (
                            Operand::Result,
                            &tree.node(step.node).tensor,
                            odist,
                            step.result_rotate_cost,
                            step.result_name.as_str(),
                        ),
                    ];
                    for (op, tensor, dist, recorded, name) in slots {
                        let Some(travel) = pat.travel_dim(op) else { continue };
                        let want =
                            cm.rotate_cost_surrounded(tensor, space, dist, travel, &surround, trip);
                        if want != recorded {
                            out.push(
                                Diagnostic::error(
                                    codes::ROTATE_COST_DIVERGES,
                                    format!(
                                        "{op:?} array `{name}` records rotation cost {recorded} \
                                         but the model derives {want}"
                                    ),
                                )
                                .at_step(&step.result_name)
                                .at_node(step.node),
                            );
                        }
                    }
                }
                NodeKind::Reduce { sum, .. } => {
                    let Some(op) = step.operands.first() else { continue };
                    let Some(rd) = op.required_dist.position_of(*sum) else { continue };
                    let odist = step.result_dist;
                    let result_tensor = &tree.node(step.node).tensor;
                    let want = cm.rotate_cost_surrounded(
                        result_tensor,
                        space,
                        odist,
                        rd,
                        &step.surrounding.as_set(),
                        |j: IndexId| -> u64 {
                            odist
                                .position_of(j)
                                .map(|d| block_len(space.extent(j), cm.grid.extent(d)))
                                .unwrap_or_else(|| space.extent(j))
                        },
                    );
                    if want != step.result_rotate_cost {
                        out.push(
                            Diagnostic::error(
                                codes::ROTATE_COST_DIVERGES,
                                format!(
                                    "reduction `{}` records combine cost {} but the model \
                                     derives {want}",
                                    step.result_name, step.result_rotate_cost
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                    }
                }
                NodeKind::Leaf => {}
            }
        }
    }
}
