//! Reconciliation of the plan's cost ledger against the simulator's
//! measured communication trace.
//!
//! The optimizer prices every step when it builds the plan; the simulator
//! independently re-derives the communication while executing it. If the
//! two ever disagree beyond interpolation error, one of them is wrong.
//! The expected per-kind event and message counts of each step come from
//! [`tce_core::step_ledger`], the one statement of the correspondence
//! rules; this module holds the simulator's trace against them:
//!
//! * **Counts** — events and messages of every kind are exact.
//! * **Redistribute / Reduce seconds** — must equal the plan's
//!   `redist_cost` / `result_rotate_cost` exactly.
//! * **Align / Shift / Home seconds** — compared within a relative
//!   tolerance, because the optimizer prices rotations through the
//!   interpolated `RCost` characterization while the simulator charges
//!   the raw machine model.

use std::collections::HashMap;

use tce_core::ExecutionPlan;
use tce_cost::CostModel;
use tce_expr::ExprTree;
use tce_sim::{CommEvent, CommKind, Metrics};

use crate::{approx_eq, Failure};

fn fail(detail: String) -> Failure {
    Failure { oracle: "ledger", detail }
}

/// Per-kind aggregation of one step's trace.
#[derive(Default)]
struct KindTotals {
    count: u64,
    messages: u64,
    seconds: f64,
    max_bytes: u128,
}

/// Check the measured trace against the plan's ledger. Returns the first
/// violation found.
pub fn reconcile(
    tree: &ExprTree,
    plan: &ExecutionPlan,
    cm: &CostModel,
    metrics: &Metrics,
    events: &[CommEvent],
    tol_rel: f64,
) -> Result<(), Failure> {
    let grid = cm.grid;

    // The trace must be complete: every charged second and message has an
    // event, nothing is double-counted.
    let traced_seconds: f64 = events.iter().map(|e| e.seconds).sum();
    if !approx_eq(traced_seconds, metrics.comm_seconds, 1e-9) {
        return Err(fail(format!(
            "trace covers {traced_seconds}s of {}s charged comm",
            metrics.comm_seconds
        )));
    }
    let traced_messages: u64 = events.iter().map(|e| e.messages).sum();
    if traced_messages != metrics.messages {
        return Err(fail(format!(
            "trace carries {traced_messages} messages, metrics counted {}",
            metrics.messages
        )));
    }

    // Group events by (step, kind).
    let mut by_step: HashMap<&str, [KindTotals; 5]> = HashMap::new();
    for e in events {
        let slot =
            CommKind::ALL.iter().position(|&k| k == e.kind).expect("CommKind::ALL is exhaustive");
        let totals = &mut by_step.entry(e.step.as_str()).or_default()[slot];
        totals.count += 1;
        totals.messages += e.messages;
        totals.seconds += e.seconds;
        totals.max_bytes = totals.max_bytes.max(e.bytes);
    }
    let known: std::collections::HashSet<&str> =
        plan.steps.iter().map(|s| s.result_name.as_str()).collect();
    if let Some(orphan) = by_step.keys().find(|s| !known.contains(*s)) {
        return Err(fail(format!("trace mentions step `{orphan}` absent from the plan")));
    }

    let empty: [KindTotals; 5] = Default::default();
    for step in &plan.steps {
        let measured = by_step.get(step.result_name.as_str()).unwrap_or(&empty);
        let (_, expected) = tce_core::step_ledger(tree, step, grid);
        let name = &step.result_name;

        for ((kind, m), want) in CommKind::ALL.iter().zip(measured).zip(&expected) {
            if m.count != want.events || m.messages != want.messages {
                return Err(fail(format!(
                    "step {name}: {} {kind} events carrying {} messages, expected {} carrying \
                     {} ({} invocations)",
                    m.count,
                    m.messages,
                    want.events,
                    want.messages,
                    tce_core::invocations(tree, step, grid)
                )));
            }
        }
        let [align, shift, home, redist, reduce] = measured;
        for (kind, m, want) in [
            (CommKind::Redistribute, redist, &expected[3]),
            (CommKind::Reduce, reduce, &expected[4]),
        ] {
            if !approx_eq(m.seconds, want.seconds, 1e-9) {
                return Err(fail(format!(
                    "step {name}: measured {kind} {}s, plan charges {}s",
                    m.seconds, want.seconds
                )));
            }
        }
        // Every rotation round moves at most the staging buffer.
        for (kind, m) in
            [(CommKind::Align, align), (CommKind::Shift, shift), (CommKind::Home, home)]
        {
            if m.max_bytes > plan.max_msg_words * 8 {
                return Err(fail(format!(
                    "step {name}: {kind} round of {} bytes exceeds the plan's staging buffer \
                     of {} words",
                    m.max_bytes, plan.max_msg_words
                )));
            }
        }
        // A patternless step's result cost is its reduction, not rotation.
        let result_rotation = if step.pattern.is_some() { step.result_rotate_cost } else { 0.0 };
        let planned_rotation =
            result_rotation + step.operands.iter().map(|o| o.rotate_cost).sum::<f64>();
        let rotation_seconds = align.seconds + shift.seconds + home.seconds;
        if !approx_eq(rotation_seconds, planned_rotation, tol_rel) {
            return Err(fail(format!(
                "step {name}: measured rotation {rotation_seconds}s vs planned \
                 {planned_rotation}s (beyond {tol_rel} relative)"
            )));
        }
    }

    // Headline total: measured comm vs the plan's ledger, within the
    // rotation tolerance.
    if !approx_eq(metrics.comm_seconds, plan.comm_cost, tol_rel) {
        return Err(fail(format!(
            "simulator measured {}s of communication, plan predicts {}s",
            metrics.comm_seconds, plan.comm_cost
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use tce_sim::CommKind;

    /// `step_ledger`'s kind slots line up with the simulator's kinds.
    #[test]
    fn kind_names_follow_the_simulator_order() {
        assert_eq!(CommKind::ALL.map(|k| k.name()), tce_core::KIND_NAMES);
    }
}
