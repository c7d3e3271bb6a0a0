//! Pass 4 — Cannon pattern legality (§3.2(ii)).
//!
//! A generalized Cannon pattern picks one index per contraction group
//! `{I, J, K}` and places two of the three roles on the grid dimensions;
//! the third role rotates. The pass re-derives all of that from the tree
//! and confirms the plan agrees: selections drawn from the right groups, a
//! rotation whenever the summation index is distributed, the three array
//! layouts exactly as the pattern dictates, and rotation costs charged to
//! exactly the arrays that rotate.

use tce_dist::{CannonPattern, Operand};
use tce_expr::{ContractionGroups, NodeKind};

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Pattern legality and rotation/cost role agreement.
pub struct CannonPass;

/// Selections must come from their own groups (`None` = replicated, legal).
fn check_selections(
    pat: &CannonPattern,
    groups: &ContractionGroups,
    step_name: &str,
    ctx: &CheckContext<'_>,
    out: &mut Diagnostics,
) {
    let space = &ctx.tree.space;
    for (sel, group, label) in
        [(pat.i, &groups.i, "I"), (pat.j, &groups.j, "J"), (pat.k, &groups.k, "K")]
    {
        if let Some(id) = sel {
            if !group.contains(id) {
                out.push(
                    Diagnostic::error(
                        codes::SELECTION_OUTSIDE_GROUP,
                        format!(
                            "pattern selects `{}` for group {label}, but the contraction's \
                             {label} group is {{{}}}",
                            space.name(id),
                            space.render(group.as_slice())
                        ),
                    )
                    .at_step(step_name),
                );
            }
        }
    }
}

/// Rotation costs must be charged to exactly the arrays the pattern
/// rotates. `costs` are (operand, recorded cost) triples.
fn check_rotation_roles(
    pat: &CannonPattern,
    costs: &[(Operand, f64)],
    step_name: &str,
    ctx: &CheckContext<'_>,
    out: &mut Diagnostics,
) {
    for &(op, cost) in costs {
        let rotates = pat.rotates(op);
        if !rotates && cost != 0.0 {
            out.push(
                Diagnostic::error(
                    codes::FIXED_OPERAND_ROTATES,
                    format!(
                        "{op:?} array is fixed under this pattern but is charged \
                         rotation cost {cost}"
                    ),
                )
                .at_step(step_name),
            );
        }
        if rotates && cost == 0.0 {
            // Rotation over a one-processor grid dimension is genuinely
            // free; only flag when the travelled dimension has real extent.
            let travelled = pat
                .travel_dim(op)
                .zip(ctx.cm)
                .is_some_and(|(travel, cm)| cm.grid.extent(travel) > 1);
            if travelled {
                out.push(
                    Diagnostic::error(
                        codes::ROTATING_OPERAND_FREE,
                        format!("{op:?} array rotates under this pattern but is charged no cost"),
                    )
                    .at_step(step_name),
                );
            }
        }
    }
}

impl Pass for CannonPass {
    fn name(&self) -> &'static str {
        "cannon"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.2(ii) — generalized Cannon: one index per group, two roles on the \
         grid, the third rotates"
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let tree = ctx.tree;
        let space = &tree.space;
        for step in &ctx.plan.steps {
            match &tree.node(step.node).kind {
                NodeKind::Contract { .. } => {}
                NodeKind::Reduce { sum, .. } => {
                    // The reduction's ring combine plays the rotation role:
                    // it exists iff the summed index was distributed.
                    let Some(op) = step.operands.first() else { continue };
                    let combines = op.required_dist.contains(*sum);
                    if !combines && step.result_rotate_cost != 0.0 {
                        out.push(
                            Diagnostic::error(
                                codes::FIXED_OPERAND_ROTATES,
                                format!(
                                    "reduction over undistributed `{}` needs no combine but is \
                                     charged cost {}",
                                    space.name(*sum),
                                    step.result_rotate_cost
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                    }
                    if combines && step.result_rotate_cost == 0.0 {
                        let real = op
                            .required_dist
                            .position_of(*sum)
                            .zip(ctx.cm)
                            .is_some_and(|(d, cm)| cm.grid.extent(d) > 1);
                        if real {
                            out.push(
                                Diagnostic::error(
                                    codes::ROTATING_OPERAND_FREE,
                                    format!(
                                        "reduction over distributed `{}` must combine partial \
                                         sums but is charged no cost",
                                        space.name(*sum)
                                    ),
                                )
                                .at_step(&step.result_name)
                                .at_node(step.node),
                            );
                        }
                    }
                    continue;
                }
                NodeKind::Leaf => continue,
            }
            let Ok(groups) = tree.contraction_groups(step.node) else {
                // Element-wise multiplication: nothing rotates.
                for (what, cost) in step
                    .operands
                    .iter()
                    .map(|o| (o.name.as_str(), o.rotate_cost))
                    .chain([(step.result_name.as_str(), step.result_rotate_cost)])
                {
                    if cost != 0.0 {
                        out.push(
                            Diagnostic::error(
                                codes::FIXED_OPERAND_ROTATES,
                                format!(
                                    "element-wise step rotates nothing but `{what}` is charged \
                                     cost {cost}"
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                    }
                }
                continue;
            };
            let Some(pat) = &step.pattern else { continue }; // TCE011 already fired
            if pat.assign.dim1 == pat.assign.dim2 {
                // Everything below derives the rotating role, which does not
                // exist when a role occupies both grid dimensions.
                out.push(
                    Diagnostic::error(
                        codes::ROLE_REPEATED,
                        format!(
                            "role assignment places {:?} on both grid dimensions",
                            pat.assign.dim1
                        ),
                    )
                    .at_step(&step.result_name)
                    .at_node(step.node),
                );
                continue;
            }
            check_selections(pat, &groups, &step.result_name, ctx, out);
            if pat.k.is_some() && pat.rotation_index().is_none() {
                out.push(
                    Diagnostic::error(
                        codes::MISSING_ROTATION,
                        "the summation index is distributed but the rotating role has no index \
                         — partial sums are never combined",
                    )
                    .at_step(&step.result_name)
                    .at_node(step.node),
                );
            }
            if pat.rotates(Operand::Result) && pat.k.is_none() {
                out.push(
                    Diagnostic::error(
                        codes::ROTATING_RESULT_UNPARTITIONED,
                        "the result rotates but the summation group has no distributed index — \
                         every processor along the travel ring adds an identical contribution, \
                         overcounting the result by the ring length",
                    )
                    .at_step(&step.result_name)
                    .at_node(step.node),
                );
            }
            // The pattern fixes all three layouts.
            let dictated = [
                (Operand::Result, step.result_dist, step.result_name.as_str()),
                (Operand::Left, step.operands[0].required_dist, step.operands[0].name.as_str()),
                (Operand::Right, step.operands[1].required_dist, step.operands[1].name.as_str()),
            ];
            for (op, actual, name) in dictated {
                let want = pat.operand_dist(op);
                if actual != want {
                    out.push(
                        Diagnostic::error(
                            codes::PATTERN_DIST_MISMATCH,
                            format!(
                                "{op:?} array `{name}` is laid out {} but pattern [{}] \
                                 dictates {}",
                                actual.render(space),
                                pat.render(space),
                                want.render(space)
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(step.node),
                    );
                }
            }
            check_rotation_roles(
                pat,
                &[
                    (Operand::Left, step.operands[0].rotate_cost),
                    (Operand::Right, step.operands[1].rotate_cost),
                    (Operand::Result, step.result_rotate_cost),
                ],
                &step.result_name,
                ctx,
                out,
            );
        }
    }
}
