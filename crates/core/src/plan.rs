//! Execution plans: the optimizer's decisions in executable, reportable
//! form.

use serde::{Deserialize, Serialize};
use tce_dist::{CannonPattern, Distribution};
use tce_expr::{ExprTree, NodeId};
use tce_fusion::{FusionConfig, FusionPrefix};

use crate::dp::Optimized;

/// One operand of a plan step.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlanOperand {
    /// The operand's tree node.
    pub node: NodeId,
    /// Array name.
    pub name: String,
    /// Layout the contraction requires.
    pub required_dist: Distribution,
    /// Layout the array was produced in (differs only when redistributed).
    pub produced_dist: Distribution,
    /// Fusion prefix on this edge.
    pub fusion: FusionPrefix,
    /// Redistribution cost paid before the step (seconds).
    pub redist_cost: f64,
    /// Rotation cost of this array during the step (its "final"
    /// communication; zero when fixed).
    pub rotate_cost: f64,
    /// Whether the operand is an input leaf.
    pub is_leaf: bool,
}

/// One contraction/reduction step of the plan, in execution (post) order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlanStep {
    /// The producing tree node.
    pub node: NodeId,
    /// Name of the produced array.
    pub result_name: String,
    /// The chosen communication pattern (`None` for reduce/elementwise
    /// steps outside the Cannon framework).
    pub pattern: Option<CannonPattern>,
    /// Distribution the result is produced in (its "initial" distribution).
    pub result_dist: Distribution,
    /// Fusion prefix between this node and its parent.
    pub result_fusion: FusionPrefix,
    /// Rotation (or reduction) cost of the result during this step (its
    /// "initial" communication; zero when fixed).
    pub result_rotate_cost: f64,
    /// The fused loops surrounding this step.
    pub surrounding: FusionPrefix,
    /// The operands.
    pub operands: Vec<PlanOperand>,
}

impl PlanStep {
    /// Communication paid at this step (operand redistributions + all
    /// rotations).
    pub fn step_comm(&self) -> f64 {
        self.result_rotate_cost
            + self.operands.iter().map(|o| o.redist_cost + o.rotate_cost).sum::<f64>()
    }
}

/// A full plan: steps in execution order plus the headline totals.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Steps, postorder (producers before consumers).
    pub steps: Vec<PlanStep>,
    /// Total communication cost (seconds).
    pub comm_cost: f64,
    /// Per-processor memory (words) of all stored arrays.
    pub mem_words: u128,
    /// Largest per-step message (words).
    pub max_msg_words: u128,
}

impl ExecutionPlan {
    /// The per-edge fusion configuration the plan realizes.
    pub fn fusion_config(&self) -> FusionConfig {
        let mut cfg = FusionConfig::unfused();
        for step in &self.steps {
            cfg.set(step.node, step.result_fusion.clone());
            for op in &step.operands {
                if !op.is_leaf {
                    cfg.set(op.node, op.fusion.clone());
                }
            }
        }
        cfg
    }

    /// The step producing `name`, or `None` when no step produces it.
    ///
    /// Array names are not guaranteed unique: a hand-written or corrupted
    /// plan may *shadow* a name with two producing steps. In that case the
    /// **last** producer in execution order wins — that is the binding any
    /// later consumer would observe. (A well-formed plan never shadows;
    /// `tce-check`'s structure pass reports duplicates as `TCE003`.)
    pub fn step_for(&self, name: &str) -> Option<&PlanStep> {
        self.steps.iter().rev().find(|s| s.result_name == name)
    }

    /// The step consuming `name` as an operand, or `None` when nothing
    /// consumes it (the root result, or an absent name).
    ///
    /// When several steps consume the same array, the **first** consumer in
    /// execution order is returned — the earliest step whose operand list
    /// mentions the name. Callers needing every consumer should scan
    /// `steps` directly.
    pub fn consumer_of(&self, name: &str) -> Option<(&PlanStep, &PlanOperand)> {
        self.steps.iter().find_map(|s| s.operands.iter().find(|o| o.name == name).map(|o| (s, o)))
    }

    /// Sum of step communications — must equal `comm_cost` (consistency
    /// invariant, checked in tests).
    pub fn sum_step_comm(&self) -> f64 {
        self.steps.iter().map(|s| s.step_comm()).sum()
    }
}

/// Reconstruct the winning plan from the DP's solution sets.
pub fn extract_plan(tree: &ExprTree, opt: &Optimized) -> ExecutionPlan {
    extract_plan_for(tree, opt, opt.best_index)
}

/// Reconstruct the plan of any root solution (e.g. a point of the
/// memory/communication frontier).
pub fn extract_plan_for(tree: &ExprTree, opt: &Optimized, index: usize) -> ExecutionPlan {
    let mut steps = Vec::new();
    let root_set = &opt.sets[&tree.root()];
    walk(tree, opt, tree.root(), index, &mut steps);
    steps.reverse(); // walk emits consumers first; execution wants postorder
    ExecutionPlan {
        comm_cost: root_set.cost(index),
        mem_words: root_set.mem(index),
        max_msg_words: root_set.msg(index),
        steps,
    }
}

fn walk(tree: &ExprTree, opt: &Optimized, node: NodeId, index: usize, out: &mut Vec<PlanStep>) {
    let set = &opt.sets[&node];
    let Some(choice) = set.choice(index) else { return };
    let mut operands = Vec::new();
    let mut recurse: Vec<(NodeId, usize)> = Vec::new();
    for b in &choice.children {
        let is_leaf = tree.node(b.node).is_leaf();
        operands.push(PlanOperand {
            node: b.node,
            name: tree.node(b.node).tensor.name.clone(),
            required_dist: b.required_dist,
            produced_dist: b.produced_dist,
            fusion: b.fusion.clone(),
            redist_cost: b.redist_cost,
            rotate_cost: b.rotate_cost,
            is_leaf,
        });
        if !is_leaf {
            recurse.push((b.node, b.sol_index));
        }
    }
    out.push(PlanStep {
        node,
        result_name: tree.node(node).tensor.name.clone(),
        pattern: choice.pattern,
        result_dist: set.dist(index),
        result_fusion: set.fusion(index).clone(),
        result_rotate_cost: choice.result_rotate_cost,
        surrounding: choice.surrounding.clone(),
        operands,
    });
    for (n, i) in recurse {
        walk(tree, opt, n, i, out);
    }
}

impl ExecutionPlan {
    /// Serialize to JSON (the `tce optimize --json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plans serialize")
    }

    /// Load a plan back from its JSON artifact.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Check a plan against its tree with the full static checker
/// ([`crate::check::check_plan`]) minus the passes that need a cost model.
/// Returns the rendered diagnostics when any error is found.
pub fn validate_plan(tree: &ExprTree, plan: &ExecutionPlan) -> Result<(), String> {
    crate::check::check_plan(tree, plan, None, None).to_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(node: u32, result: &str, operands: &[&str]) -> PlanStep {
        PlanStep {
            node: NodeId(node),
            result_name: result.into(),
            pattern: None,
            result_dist: Distribution::REPLICATED,
            result_fusion: FusionPrefix::default(),
            result_rotate_cost: 0.0,
            surrounding: FusionPrefix::default(),
            operands: operands
                .iter()
                .map(|&n| PlanOperand {
                    node: NodeId(0),
                    name: n.into(),
                    required_dist: Distribution::REPLICATED,
                    produced_dist: Distribution::REPLICATED,
                    fusion: FusionPrefix::default(),
                    redist_cost: 0.0,
                    rotate_cost: 0.0,
                    is_leaf: true,
                })
                .collect(),
        }
    }

    fn plan(steps: Vec<PlanStep>) -> ExecutionPlan {
        ExecutionPlan { steps, comm_cost: 0.0, mem_words: 0, max_msg_words: 0 }
    }

    #[test]
    fn step_for_last_producer_wins_under_shadowing() {
        let p = plan(vec![step(1, "T", &["A"]), step(2, "T", &["B"]), step(3, "S", &["T"])]);
        assert_eq!(p.step_for("T").expect("T produced").node, NodeId(2));
        assert_eq!(p.step_for("S").expect("S produced").node, NodeId(3));
        assert!(p.step_for("missing").is_none());
    }

    #[test]
    fn consumer_of_returns_first_consumer_in_execution_order() {
        let p = plan(vec![
            step(1, "T1", &["A", "B"]),
            step(2, "T2", &["T1", "C"]),
            step(3, "S", &["T1", "T2"]),
        ]);
        let (s, op) = p.consumer_of("T1").expect("T1 consumed");
        assert_eq!(s.node, NodeId(2));
        assert_eq!(op.name, "T1");
        // The root result has no consumer; absent names return None.
        assert!(p.consumer_of("S").is_none());
        assert!(p.consumer_of("missing").is_none());
    }
}
