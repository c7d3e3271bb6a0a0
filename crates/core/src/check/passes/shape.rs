//! Pass 2 — index & shape consistency of each step against the formula.
//!
//! Each step must compute what its tree node says it computes: the result
//! and operand names agree with the node's arrays, a Cannon pattern is
//! present exactly when the node is a generalized matrix multiplication
//! (§3.1), element-wise operands align with the result layout, and a
//! reduction's result layout is the child layout with the summed index
//! freed.

use tce_dist::Distribution;
use tce_expr::{NodeKind, Tensor};

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Step-vs-formula agreement.
pub struct ShapePass;

/// Restriction of a result distribution to a child array's dimensions —
/// the alignment an element-wise multiplication requires.
fn restrict(d: Distribution, t: &Tensor) -> Distribution {
    Distribution { d1: d.d1.filter(|&i| t.has_dim(i)), d2: d.d2.filter(|&i| t.has_dim(i)) }
}

impl Pass for ShapePass {
    fn name(&self) -> &'static str {
        "shape"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1 — every step is a generalized matrix multiplication, an aligned \
         element-wise product, or a reduction"
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let tree = ctx.tree;
        let space = &tree.space;
        for step in &ctx.plan.steps {
            let node = tree.node(step.node);
            if step.result_name != node.tensor.name {
                out.push(
                    Diagnostic::error(
                        codes::NAME_MISMATCH,
                        format!(
                            "step produces `{}` but node {:?} is named `{}`",
                            step.result_name, step.node, node.tensor.name
                        ),
                    )
                    .at_step(&step.result_name)
                    .at_node(step.node),
                );
            }
            for op in &step.operands {
                let expect = &tree.node(op.node).tensor.name;
                if &op.name != expect {
                    out.push(
                        Diagnostic::error(
                            codes::NAME_MISMATCH,
                            format!(
                                "operand named `{}` but node {:?} is named `{expect}`",
                                op.name, op.node
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(op.node),
                    );
                }
            }
            match &node.kind {
                NodeKind::Leaf => {} // structure pass already rejected this
                NodeKind::Contract { .. } if tree.contraction_groups(step.node).is_ok() => {
                    if step.pattern.is_none() {
                        out.push(
                            Diagnostic::error(
                                codes::PATTERN_PRESENCE,
                                format!(
                                    "contraction `{}` is a generalized matrix multiplication \
                                     but the step has no Cannon pattern",
                                    step.result_name
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                    }
                }
                NodeKind::Contract { .. } => {
                    // Element-wise multiplication: no pattern, aligned layouts.
                    if let Some(p) = &step.pattern {
                        out.push(
                            Diagnostic::error(
                                codes::PATTERN_PRESENCE,
                                format!(
                                    "element-wise step `{}` carries a Cannon pattern ({})",
                                    step.result_name,
                                    p.render(space)
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                    }
                    for op in &step.operands {
                        let want = restrict(step.result_dist, &tree.node(op.node).tensor);
                        if op.required_dist != want {
                            out.push(
                                Diagnostic::error(
                                    codes::ELEMENTWISE_MISALIGNED,
                                    format!(
                                        "element-wise operand `{}` requires {} but alignment \
                                         with the result layout {} dictates {}",
                                        op.name,
                                        op.required_dist.render(space),
                                        step.result_dist.render(space),
                                        want.render(space)
                                    ),
                                )
                                .at_step(&step.result_name)
                                .at_node(op.node),
                            );
                        }
                    }
                }
                NodeKind::Reduce { sum, .. } => {
                    if step.pattern.is_some() {
                        out.push(
                            Diagnostic::error(
                                codes::PATTERN_PRESENCE,
                                format!(
                                    "reduction step `{}` carries a Cannon pattern",
                                    step.result_name
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                    }
                    // The summed dimension disappears: its grid slot frees up.
                    if let Some(op) = step.operands.first() {
                        let cdist = op.required_dist;
                        let want = Distribution {
                            d1: cdist.d1.filter(|&i| i != *sum),
                            d2: cdist.d2.filter(|&i| i != *sum),
                        };
                        if step.result_dist != want {
                            out.push(
                                Diagnostic::error(
                                    codes::REDUCE_DIST_MISMATCH,
                                    format!(
                                        "reduction over `{}` of a child in {} must produce {} \
                                         but the step claims {}",
                                        space.name(*sum),
                                        cdist.render(space),
                                        want.render(space),
                                        step.result_dist.render(space)
                                    ),
                                )
                                .at_step(&step.result_name)
                                .at_node(step.node),
                            );
                        }
                    }
                }
            }
        }
    }
}
