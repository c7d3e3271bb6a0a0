//! Computation time model.
//!
//! Loop fusion never changes the arithmetic operation count (§2), so the
//! compute side of a plan is simply the tree's flops divided evenly over
//! the processors at the machine's sustained rate. This is what turns the
//! optimizer's communication costs into the paper's headline percentages
//! (98.0 s = 7.0 % of 1403.4 s, etc.).

use tce_expr::ExprTree;

use crate::machine::MachineModel;

/// Seconds of computation for the whole tree on `procs` processors.
pub fn tree_compute_time(tree: &ExprTree, procs: u32, machine: &MachineModel) -> f64 {
    machine.compute_time(tree.total_op_count() as f64 / procs as f64)
}

/// A total-runtime summary in the style of §4's headline numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeSummary {
    /// Total communication seconds.
    pub comm_s: f64,
    /// Total computation seconds.
    pub compute_s: f64,
}

impl RuntimeSummary {
    /// Total running time.
    pub fn total_s(&self) -> f64 {
        self.comm_s + self.compute_s
    }

    /// Fraction of the running time spent communicating, in percent.
    pub fn comm_percent(&self) -> f64 {
        100.0 * self.comm_s / self.total_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};

    #[test]
    fn paper_compute_times_within_5_percent() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let m = MachineModel::itanium_cluster();
        // 64 procs: 1403.4 − 98.0 = 1305.4 s of compute.
        let t64 = tree_compute_time(&tree, 64, &m);
        assert!((t64 - 1305.4).abs() / 1305.4 < 0.05, "{t64:.0}");
        // 16 procs: 6983.8 − 1907.8 = 5076.0 s.
        let t16 = tree_compute_time(&tree, 16, &m);
        assert!((t16 - 5076.0).abs() / 5076.0 < 0.05, "{t16:.0}");
    }

    #[test]
    fn summary_percentages() {
        let s = RuntimeSummary { comm_s: 98.0, compute_s: 1305.4 };
        assert!((s.total_s() - 1403.4).abs() < 1e-9);
        assert!((s.comm_percent() - 7.0).abs() < 0.02);
        let s2 = RuntimeSummary { comm_s: 1907.8, compute_s: 5076.0 };
        assert!((s2.comm_percent() - 27.3).abs() < 0.05);
    }
}
