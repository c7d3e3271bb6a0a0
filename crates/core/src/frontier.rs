//! The memory ↔ communication trade-off frontier.
//!
//! The §3.3 solution sets don't just contain the single optimum — after the
//! bottom-up pass, the root's surviving solutions form the *Pareto
//! frontier* of the whole design space: every non-dominated (memory,
//! communication) pair, each with a complete plan. This is free to extract
//! and turns the optimizer into a capacity-planning tool ("how much would
//! 2 GB more per node save us?").

use tce_expr::ExprTree;

use crate::dp::Optimized;

/// One point of the trade-off frontier.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Per-processor words of all stored arrays plus the staging buffer.
    pub footprint_words: u128,
    /// Total communication seconds.
    pub comm_cost: f64,
    /// Index of the solution in the root's solution set.
    pub solution_index: usize,
}

/// Extract the root's Pareto frontier, sorted by increasing footprint
/// (and thus decreasing communication). The first point is the most
/// memory-frugal feasible plan; the last is the communication optimum.
pub fn root_frontier(tree: &ExprTree, opt: &Optimized) -> Vec<FrontierPoint> {
    let set = &opt.sets[&tree.root()];
    // Only live solutions: the arena also keeps entries evicted by later
    // dominators as dead storage for back-pointers. (The monotone filter
    // below would drop a dead point anyway — its evictor sorts first — but
    // scanning them is wasted work and a trap for future edits.)
    let mut points: Vec<FrontierPoint> = set
        .live_indices()
        .filter(|&i| set.fusion(i).is_empty())
        .map(|i| FrontierPoint {
            footprint_words: set.footprint(i),
            comm_cost: set.cost(i),
            solution_index: i,
        })
        .collect();
    points.sort_by(|a, b| {
        a.footprint_words.cmp(&b.footprint_words).then(a.comm_cost.total_cmp(&b.comm_cost))
    });
    // Keep only non-dominated points (strictly decreasing cost).
    let mut frontier: Vec<FrontierPoint> = Vec::new();
    for p in points {
        match frontier.last() {
            Some(last) if p.comm_cost >= last.comm_cost => {}
            _ => frontier.push(p),
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{optimize, OptimizerConfig};
    use tce_cost::{CostModel, MachineModel};
    use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};

    #[test]
    fn frontier_is_monotone_and_contains_the_optimum() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        // Search with the limit lifted so the frontier spans the space.
        let cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..Default::default() };
        let opt = optimize(&tree, &cm, &cfg).unwrap();
        let frontier = root_frontier(&tree, &opt);
        assert!(frontier.len() >= 2, "CCSD has a real trade-off: {frontier:?}");
        for w in frontier.windows(2) {
            assert!(w[0].footprint_words < w[1].footprint_words);
            assert!(w[0].comm_cost > w[1].comm_cost);
        }
        // The last point is the unconstrained optimum.
        assert!((frontier.last().unwrap().comm_cost - opt.comm_cost).abs() < 1e-9);
        // The frugal end fits the real machine; its plan extracts cleanly.
        let frugal = &frontier[0];
        assert!(frugal.footprint_words <= cm.mem_limit_words());
        let plan = crate::plan::extract_plan_for(&tree, &opt, frugal.solution_index);
        crate::plan::validate_plan(&tree, &plan).unwrap();
        assert!((plan.comm_cost - frugal.comm_cost).abs() < 1e-9);
    }

    #[test]
    fn constrained_optimum_lies_on_the_frontier() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let free_cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..Default::default() };
        let free = optimize(&tree, &cm, &free_cfg).unwrap();
        let frontier = root_frontier(&tree, &free);
        // The default (memory-limited) optimum equals the cheapest frontier
        // point that fits the limit.
        let constrained = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let best_fitting = frontier
            .iter()
            .filter(|p| p.footprint_words <= cm.mem_limit_words())
            .map(|p| p.comm_cost)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (constrained.comm_cost - best_fitting).abs() <= 1e-9 * best_fitting,
            "constrained {} vs frontier {}",
            constrained.comm_cost,
            best_fitting
        );
    }
}
