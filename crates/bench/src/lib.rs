//! # tce-bench — the experiment harness
//!
//! Shared scenario builders for the binaries that regenerate every table
//! and figure of the paper (see DESIGN.md's experiment index):
//!
//! | id | artifact | binary |
//! |----|----------|--------|
//! | T1 | Table 1 (64 procs) | `table1` |
//! | T2 | Table 2 (16 procs) | `table2` |
//! | F1 | Fig. 1 op counts | `fig1` |
//! | F2 | Fig. 2 rewriting + fusion | `fig2` |
//! | S1 | comm vs processor count | `sweep_procs` |
//! | S2 | pruning effectiveness | `pruning_stats` |
//! | S3 | DP vs exhaustive | `exhaustive_check` |
//! | S4 | comm vs memory limit | `sweep_memory` |
//! | X1 | beyond-paper search extensions | `extensions` |
//! | —  | simulator cross-validation | `simulate_check` |
//! | X8 | tracked search benchmark | retired; end-to-end successor in `examples/benchmark` |

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::panic))]

use tce_core::{build_report, extract_plan, optimize, OptimizerConfig};
use tce_cost::{CostModel, MachineModel};
use tce_expr::examples::{ccsd_tree, PaperExtents, PAPER_EXTENTS};
use tce_expr::ExprTree;

pub mod randtree;

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

/// Optimize the paper workload on `procs` processors and render the
/// Table 1/2-style report.
pub fn paper_table(procs: u32, cfg: &OptimizerConfig) -> String {
    let tree = paper_tree();
    let cm = paper_cost_model(procs);
    match optimize(&tree, &cm, cfg) {
        Err(e) => format!("optimization failed: {e}\n"),
        Ok(opt) => {
            let plan = extract_plan(&tree, &opt);
            tce_core::render_report(&build_report(&tree, &plan, &cm))
        }
    }
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

    #[test]
    fn paper_table_renders() {
        let text = paper_table(64, &OptimizerConfig::default());
        assert!(text.contains("T1(b,c,d,f)"));
    }
}
