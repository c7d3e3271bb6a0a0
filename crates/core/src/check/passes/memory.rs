//! Pass 6 — memory accounting (§3.3's per-processor limit).
//!
//! Re-derives the plan's two headline memory numbers from scratch and
//! compares:
//!
//! * `mem_words` — one stored block per step result (`DistSize` of its
//!   layout with the parent-edge fused dimensions eliminated) plus one
//!   full block per input-leaf binding (inputs are stored whole; message
//!   slicing has no memory effect);
//! * `max_msg_words` — the largest rotation message over all contraction
//!   steps (reduction ring-combines reuse the stored block and stage no
//!   extra message, mirroring the optimizer's accounting).
//!
//! Their sum — the footprint including the staging buffer — must respect
//! the configured per-processor limit.

use tce_dist::dist_size;
use tce_expr::IndexSet;

use crate::check::diag::{codes, Diagnostic, Diagnostics};
use crate::check::passes::{CheckContext, Pass};

/// Recomputation of `mem_words`, `max_msg_words`, and the limit.
pub struct MemoryPass;

impl Pass for MemoryPass {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.3 — DistSize of every stored array plus the largest message must \
         fit the per-processor memory limit"
    }

    fn needs_cost_model(&self) -> bool {
        true
    }

    fn run(&self, ctx: &CheckContext<'_>, out: &mut Diagnostics) {
        let Some(cm) = ctx.cm else { return };
        let tree = ctx.tree;
        let space = &tree.space;
        let mut mem: u128 = 0;
        let mut max_msg: u128 = 0;
        for step in &ctx.plan.steps {
            let result_tensor = &tree.node(step.node).tensor;
            mem += dist_size(
                result_tensor,
                space,
                cm.grid,
                step.result_dist,
                &step.result_fusion.as_set(),
            );
            for op in &step.operands {
                if op.is_leaf {
                    // Inputs are stored in full regardless of edge fusion.
                    mem += dist_size(
                        &tree.node(op.node).tensor,
                        space,
                        cm.grid,
                        op.required_dist,
                        &IndexSet::new(),
                    );
                }
            }
            // A pattern on a step without two operands is a TCE011/TCE005
            // finding; don't index past the operand list here.
            if let Some(pat) = step.pattern.as_ref().filter(|_| step.operands.len() == 2) {
                if pat.assign.dim1 == pat.assign.dim2 {
                    continue; // TCE030: the rotating role is undefined
                }
                let surround = step.surrounding.as_set();
                for (op, tensor, dist) in [
                    (
                        tce_dist::Operand::Left,
                        &tree.node(step.operands[0].node).tensor,
                        step.operands[0].required_dist,
                    ),
                    (
                        tce_dist::Operand::Right,
                        &tree.node(step.operands[1].node).tensor,
                        step.operands[1].required_dist,
                    ),
                    (tce_dist::Operand::Result, result_tensor, step.result_dist),
                ] {
                    if pat.travel_dim(op).is_some() {
                        max_msg = max_msg.max(tce_cost::rotate::message_words(
                            tensor, space, cm.grid, dist, &surround,
                        ));
                    }
                }
            }
        }
        if mem != ctx.plan.mem_words {
            out.push(
                Diagnostic::error(
                    codes::MEM_WORDS_MISMATCH,
                    format!(
                        "plan claims {} words per processor but its stored arrays total {mem}",
                        ctx.plan.mem_words
                    ),
                )
                .note("recomputed as DistSize of every step result plus every input-leaf binding"),
            );
        }
        if max_msg != ctx.plan.max_msg_words {
            out.push(
                Diagnostic::error(
                    codes::MAX_MSG_MISMATCH,
                    format!(
                        "plan claims a largest message of {} words but its rotations stage \
                         {max_msg}",
                        ctx.plan.max_msg_words
                    ),
                )
                .note("recomputed over the rotated arrays of every contraction step"),
            );
        }
        if let Some(limit) = ctx.mem_limit_words {
            let footprint = mem + max_msg;
            if footprint > limit {
                out.push(Diagnostic::error(
                    codes::MEM_LIMIT_EXCEEDED,
                    format!(
                        "footprint {footprint} words (stored {mem} + staging {max_msg}) \
                             exceeds the limit of {limit} words per processor"
                    ),
                ));
            }
        }
    }
}
