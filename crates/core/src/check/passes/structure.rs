//! Pass 1 — tree/plan structural agreement.
//!
//! The gate pass: every node id must land inside the tree's arena and
//! every index id inside the index space *before* any other pass may
//! dereference them (a corrupted plan JSON must produce diagnostics, not
//! panics). On top of the bounds checks it verifies postorder coverage —
//! one step per internal node, producers before consumers — and that each
//! step's operand list mirrors its node's children.

use std::collections::HashMap;

use crate::plan::{ExecutionPlan, PlanStep};
use tce_expr::{ExprTree, IndexId, NodeId};

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Structural agreement between the plan and its tree.
pub struct StructurePass;

/// Every index id a step mentions (distributions, fusions, surrounding,
/// pattern selections), for bounds checking.
fn step_index_ids(step: &PlanStep) -> Vec<IndexId> {
    let mut ids = Vec::new();
    let mut dist = |d: tce_dist::Distribution| ids.extend([d.d1, d.d2].into_iter().flatten());
    dist(step.result_dist);
    for op in &step.operands {
        dist(op.required_dist);
        dist(op.produced_dist);
    }
    for op in &step.operands {
        ids.extend(op.fusion.iter());
    }
    ids.extend(step.result_fusion.iter());
    ids.extend(step.surrounding.iter());
    if let Some(p) = &step.pattern {
        ids.extend([p.i, p.j, p.k].into_iter().flatten());
    }
    ids
}

/// Bounds-check one step's node and index ids. Returns `false` when the
/// step is too broken for the remaining structural checks.
fn check_bounds(tree: &ExprTree, step: &PlanStep, out: &mut Diagnostics) -> bool {
    let mut ok = true;
    let mut node_ok = |node: NodeId, what: &str| {
        if node.as_usize() >= tree.len() {
            out.push(
                Diagnostic::error(
                    codes::BAD_NODE_ID,
                    format!(
                        "{what} references node {node:?} but the tree has only {} nodes",
                        tree.len()
                    ),
                )
                .at_step(&step.result_name),
            );
            false
        } else {
            true
        }
    };
    ok &= node_ok(step.node, "step");
    for op in &step.operands {
        ok &= node_ok(op.node, "operand");
    }
    for id in step_index_ids(step) {
        if id.as_usize() >= tree.space.len() {
            out.push(
                Diagnostic::error(
                    codes::BAD_INDEX_ID,
                    format!(
                        "step references index #{} but the expression declares only {} indices",
                        id.0,
                        tree.space.len()
                    ),
                )
                .at_step(&step.result_name),
            );
            ok = false;
        }
    }
    ok
}

/// Coverage: one step per internal node, none left out, none duplicated.
fn check_coverage(tree: &ExprTree, plan: &ExecutionPlan, out: &mut Diagnostics) {
    let internal: Vec<NodeId> =
        tree.postorder().into_iter().filter(|&n| !tree.node(n).is_leaf()).collect();
    if internal.len() != plan.steps.len() {
        out.push(Diagnostic::error(
            codes::STEP_COUNT,
            format!(
                "plan has {} step(s) for {} internal node(s)",
                plan.steps.len(),
                internal.len()
            ),
        ));
    }
    let mut seen: HashMap<NodeId, &str> = HashMap::new();
    for step in &plan.steps {
        if let Some(first) = seen.insert(step.node, &step.result_name) {
            out.push(
                Diagnostic::error(
                    codes::DUPLICATE_STEP,
                    format!(
                        "node {:?} has two steps (`{}` and `{}`)",
                        step.node, first, step.result_name
                    ),
                )
                .at_step(&step.result_name)
                .at_node(step.node),
            );
        }
    }
    for &n in &internal {
        if !seen.contains_key(&n) {
            out.push(
                Diagnostic::error(
                    codes::NODE_UNCOVERED,
                    format!("internal node `{}` has no plan step", tree.node(n).tensor.name),
                )
                .at_node(n),
            );
        }
    }
}

/// Operand lists must mirror the node's children, and non-leaf operands
/// must be produced by an *earlier* step (execution order is postorder).
fn check_operands_and_order(tree: &ExprTree, plan: &ExecutionPlan, out: &mut Diagnostics) {
    let position: HashMap<NodeId, usize> =
        plan.steps.iter().enumerate().map(|(i, s)| (s.node, i)).collect();
    for (pos, step) in plan.steps.iter().enumerate() {
        let node = tree.node(step.node);
        if node.is_leaf() {
            out.push(
                Diagnostic::error(
                    codes::OPERAND_MISMATCH,
                    format!("step claims node {:?}, which is an input leaf", step.node),
                )
                .at_step(&step.result_name)
                .at_node(step.node),
            );
            continue;
        }
        let children = tree.children(step.node);
        if step.operands.len() != children.len() {
            out.push(
                Diagnostic::error(
                    codes::OPERAND_MISMATCH,
                    format!(
                        "step has {} operand(s) but node `{}` has {} child(ren)",
                        step.operands.len(),
                        node.tensor.name,
                        children.len()
                    ),
                )
                .at_step(&step.result_name)
                .at_node(step.node),
            );
            continue;
        }
        for (op, &child) in step.operands.iter().zip(&children) {
            if op.node != child {
                out.push(
                    Diagnostic::error(
                        codes::OPERAND_MISMATCH,
                        format!(
                            "operand `{}` references node {:?} but the tree's child here is {:?}",
                            op.name, op.node, child
                        ),
                    )
                    .at_step(&step.result_name)
                    .at_node(op.node),
                );
                continue;
            }
            let child_is_leaf = tree.node(child).is_leaf();
            if op.is_leaf != child_is_leaf {
                out.push(
                    Diagnostic::error(
                        codes::OPERAND_MISMATCH,
                        format!(
                            "operand `{}` marked is_leaf={} but the tree says {}",
                            op.name, op.is_leaf, child_is_leaf
                        ),
                    )
                    .at_step(&step.result_name)
                    .at_node(op.node),
                );
            }
            if !child_is_leaf {
                match position.get(&child) {
                    Some(&p) if p < pos => {}
                    Some(_) => out.push(
                        Diagnostic::error(
                            codes::ORDER,
                            format!(
                                "step `{}` consumes `{}` before the step producing it",
                                step.result_name, op.name
                            ),
                        )
                        .at_step(&step.result_name)
                        .at_node(op.node),
                    ),
                    None => {} // uncovered node: already a TCE002
                }
            }
        }
    }
}

impl Pass for StructurePass {
    fn name(&self) -> &'static str {
        "structure"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.3 — one (distribution, fusion) decision per internal node, evaluated bottom-up"
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let mut bounds_ok = true;
        for step in &ctx.plan.steps {
            bounds_ok &= check_bounds(ctx.tree, step, out);
        }
        if !bounds_ok {
            // Ids outside the arena/space: the remaining structural checks
            // would dereference them.
            return;
        }
        check_coverage(ctx.tree, ctx.plan, out);
        check_operands_and_order(ctx.tree, ctx.plan, out);
    }
}
