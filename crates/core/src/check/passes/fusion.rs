//! Pass 5 — fusion legality (§3.2(iii)).
//!
//! A fusion prefix lives on a tree edge; the producer's `result_fusion`
//! and the consumer's operand `fusion` describe the *same* edge and must
//! agree. At every step the incident prefixes must form a chain (one loop
//! order realizes them all), their join must equal the recorded
//! `surrounding` loops, and the rotation step loop can never be one of
//! the fused loops around its own contraction.

use std::collections::HashMap;

use tce_expr::{NodeId, NodeKind};
use tce_fusion::{edge_candidates, FusionPrefix};

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Fusion prefixes: candidates, chaining, edge agreement, surroundings.
pub struct FusionPass;

/// Every fused index on the edge above `child` must be a candidate there:
/// a dimension of the child's array and a loop of the parent's nest.
fn check_candidates(
    ctx: &CheckContext<'_>,
    child: NodeId,
    prefix: &FusionPrefix,
    step_name: &str,
    out: &mut Diagnostics,
) {
    let cands = edge_candidates(ctx.tree, child);
    for id in prefix.iter() {
        if !cands.contains(id) {
            out.push(
                Diagnostic::error(
                    codes::FUSION_NOT_CANDIDATE,
                    format!(
                        "index `{}` cannot be fused on the edge above `{}`",
                        ctx.tree.space.name(id),
                        ctx.tree.node(child).tensor.name
                    ),
                )
                .at_step(step_name)
                .at_node(child),
            );
        }
    }
}

impl Pass for FusionPass {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.2(iii) — fusions are chain-compatible loop prefixes shared across \
         an edge; the rotation loop stays outside them"
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let tree = ctx.tree;
        let space = &tree.space;
        let producer: HashMap<NodeId, &FusionPrefix> =
            ctx.plan.steps.iter().map(|s| (s.node, &s.result_fusion)).collect();
        for step in &ctx.plan.steps {
            check_candidates(ctx, step.node, &step.result_fusion, &step.result_name, out);
            for op in &step.operands {
                if op.is_leaf {
                    check_candidates(ctx, op.node, &op.fusion, &step.result_name, out);
                } else if let Some(produced) = producer.get(&op.node) {
                    // Both ends describe the same edge.
                    if **produced != op.fusion {
                        out.push(
                            Diagnostic::error(
                                codes::FUSION_EDGE_DISAGREES,
                                format!(
                                    "producer of `{}` fuses [{}] but this consumer expects [{}]",
                                    op.name,
                                    produced.render(space),
                                    op.fusion.render(space)
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(op.node),
                        );
                    }
                }
            }

            // Incident prefixes must form a chain, and their join is the
            // fused loop nest surrounding this step.
            let incident: Vec<&FusionPrefix> = std::iter::once(&step.result_fusion)
                .chain(step.operands.iter().map(|o| &o.fusion))
                .collect();
            let mut chained = true;
            for a in 0..incident.len() {
                for b in a + 1..incident.len() {
                    if !incident[a].chain_compatible(incident[b]) {
                        out.push(
                            Diagnostic::error(
                                codes::FUSION_INCOMPATIBLE,
                                format!(
                                    "prefixes [{}] and [{}] at `{}` are not chain compatible",
                                    incident[a].render(space),
                                    incident[b].render(space),
                                    step.result_name
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(step.node),
                        );
                        chained = false;
                    }
                }
            }
            if chained {
                let mut joined = &step.result_fusion;
                for &p in &incident {
                    joined = joined.join(p);
                }
                if *joined != step.surrounding {
                    out.push(
                        Diagnostic::error(
                            codes::SURROUNDING_MISMATCH,
                            format!(
                                "step records surrounding loops [{}] but its incident prefixes \
                                 join to [{}]",
                                step.surrounding.render(space),
                                joined.render(space)
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(step.node),
                    );
                }
            }

            // The rotation step loop cannot be fused around the contraction
            // it drives: each fused iteration would re-run the whole ring.
            if let Some(pat) = &step.pattern {
                if pat.assign.dim1 != pat.assign.dim2 {
                    if let Some(rot) = pat.rotation_index() {
                        if step.surrounding.contains(rot) {
                            out.push(
                                Diagnostic::error(
                                    codes::ROTATION_INDEX_FUSED,
                                    format!(
                                        "rotation index `{}` is fused around its own contraction",
                                        space.name(rot)
                                    ),
                                )
                                .at_step(&step.result_name)
                                .at_node(step.node),
                            );
                        }
                    }
                }
            }
            if let NodeKind::Reduce { sum, .. } = &tree.node(step.node).kind {
                if let Some(op) = step.operands.first() {
                    if op.fusion.contains(*sum) {
                        out.push(
                            Diagnostic::error(
                                codes::ROTATION_INDEX_FUSED,
                                format!(
                                    "summation loop `{}` is fused on the edge below the \
                                     reduction that owns it",
                                    space.name(*sum)
                                ),
                            )
                            .at_step(&step.result_name)
                            .at_node(op.node),
                        );
                    }
                }
            }
        }
    }
}
