//! # tce-bench — the experiment harness
//!
//! [`repro`] regenerates every table and figure of the paper, one id of
//! [`repro::IDS`] per experiment (`cargo run --release -p tce-bench --bin
//! repro -- <id>`; EXPERIMENTS.md has paper-vs-measured numbers for each).
//! The crate also holds the scenario builders and random-tree generators
//! that the fuzzer and the tests share.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::panic))]

use tce_cost::{CostModel, MachineModel};
use tce_expr::examples::{ccsd_tree, PaperExtents, PAPER_EXTENTS};
use tce_expr::ExprTree;

pub mod randtree;
pub mod repro;

pub use randtree::skewed_tree;

/// The paper's cluster model with `procs` processors (square grid).
pub fn paper_cost_model(procs: u32) -> CostModel {
    CostModel::for_square(MachineModel::itanium_cluster(), procs)
        .expect("processor count must be a perfect square")
}

/// The §4 workload at paper extents.
pub fn paper_tree() -> ExprTree {
    ccsd_tree(PAPER_EXTENTS)
}

/// The §4 workload scaled down for actual execution.
pub fn tiny_tree() -> ExprTree {
    ccsd_tree(PaperExtents::tiny())
}

/// Parse a `.tce` workload file into a contraction tree, the same
/// lowering the `tce` CLI applies (parse → operation minimization →
/// formula sequence → tree), so terms with three or more factors are
/// decomposed rather than rejected.
pub fn workload_tree(path: &str) -> Result<ExprTree, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = tce_expr::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    tce_opmin::lower_program(&prog)
        .map_err(|e| format!("{path}: {e}"))?
        .to_tree()
        .map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_chain_is_well_formed() {
        for seed in 0..20 {
            let tree = randtree::random_chain(seed, 3, 6);
            assert!(tree.is_contraction_tree(), "seed {seed}");
            assert!(tree.total_op_count() > 0);
        }
    }

    #[test]
    fn random_chain_depth_controls_nodes() {
        let t1 = randtree::random_chain(1, 1, 4);
        let t3 = randtree::random_chain(1, 3, 4);
        let internal = |t: &ExprTree| t.ids().filter(|&i| !t.node(i).is_leaf()).count();
        assert_eq!(internal(&t1), 1);
        assert_eq!(internal(&t3), 3);
    }
}
