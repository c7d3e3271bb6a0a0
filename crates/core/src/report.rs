//! Table rendering in the style of the paper's Tables 1 and 2.
//!
//! For every array: its full and reduced (fused) shapes, initial and final
//! distributions, per-node memory in the paper's units, and the
//! communication costs of its rotations at the producing ("init.") and
//! consuming ("final") contractions.

use tce_cost::compute::RuntimeSummary;
use tce_cost::units::{fmt_paper_bytes_legible, words_to_bytes};
use tce_cost::CostModel;
use tce_dist::dist_size;
use tce_expr::{ExprTree, IndexSet, NodeId};

use crate::plan::ExecutionPlan;

/// One row of the table.
#[derive(Clone, Debug)]
pub struct ArrayRow {
    /// Tree node of the array.
    pub node: NodeId,
    /// `D(c,d,e,l)` — the full array.
    pub full: String,
    /// The reduced (fused) array actually stored.
    pub reduced: String,
    /// Initial distribution (production), `N/A` for inputs.
    pub init_dist: String,
    /// Final distribution (consumption), `N/A` for the output.
    pub final_dist: String,
    /// Stored bytes per *node* (the paper reports per-node numbers).
    pub mem_per_node_bytes: u128,
    /// Rotation cost at production (`None` = not applicable for inputs).
    pub comm_init: Option<f64>,
    /// Rotation cost at consumption (`None` for the output).
    pub comm_final: Option<f64>,
    /// Redistribution cost between production and consumption.
    pub redist: f64,
}

/// A rendered table plus headline totals.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-array rows, inputs first (consumption order), then intermediates.
    pub rows: Vec<ArrayRow>,
    /// Total communication seconds.
    pub total_comm: f64,
    /// Communication + computation summary (the §4 headline numbers).
    pub summary: RuntimeSummary,
    /// Total per-processor memory (words) including the staging buffer.
    pub footprint_words: u128,
    /// Per-processor memory limit (words).
    pub limit_words: u128,
}

/// Build the report for an optimized plan.
pub fn build_report(tree: &ExprTree, plan: &ExecutionPlan, cm: &CostModel) -> Report {
    let space = &tree.space;
    let mut rows: Vec<ArrayRow> = Vec::new();

    // Inputs, in consumption order.
    for step in &plan.steps {
        for op in &step.operands {
            if !op.is_leaf {
                continue;
            }
            let t = &tree.node(op.node).tensor;
            let mem = dist_size(t, space, cm.grid, op.required_dist, &IndexSet::new());
            rows.push(ArrayRow {
                node: op.node,
                full: t.render(space),
                reduced: t.render(space),
                init_dist: "N/A".into(),
                final_dist: op.required_dist.render(space),
                mem_per_node_bytes: words_to_bytes(mem) * u128::from(cm.machine.procs_per_node),
                comm_init: None,
                comm_final: Some(op.rotate_cost),
                redist: op.redist_cost,
            });
        }
    }
    // Intermediates and the output, in production order.
    let cfg = plan.fusion_config();
    for step in &plan.steps {
        let t = &tree.node(step.node).tensor;
        let reduced = cfg.reduced_tensor(tree, step.node);
        let consumer = plan.consumer_of(&step.result_name);
        let mem = dist_size(t, space, cm.grid, step.result_dist, &step.result_fusion.as_set());
        rows.push(ArrayRow {
            node: step.node,
            full: t.render(space),
            reduced: reduced.render(space),
            init_dist: step.result_dist.render(space),
            final_dist: consumer
                .map(|(_, o)| o.required_dist.render(space))
                .unwrap_or_else(|| "N/A".into()),
            mem_per_node_bytes: words_to_bytes(mem) * u128::from(cm.machine.procs_per_node),
            comm_init: Some(step.result_rotate_cost),
            comm_final: consumer.map(|(_, o)| o.rotate_cost),
            redist: consumer.map(|(_, o)| o.redist_cost).unwrap_or(0.0),
        });
    }

    let compute = tce_cost::compute::tree_compute_time(tree, cm.grid.num_procs(), &cm.machine);
    Report {
        total_comm: plan.comm_cost,
        summary: RuntimeSummary { comm_s: plan.comm_cost, compute_s: compute },
        footprint_words: plan.mem_words + plan.max_msg_words,
        limit_words: cm.mem_limit_words(),
        rows,
    }
}

/// Render a report as an aligned text table.
pub fn render_report(report: &Report) -> String {
    let mut out = String::new();
    let headers = [
        "Full array",
        "Reduced array",
        "Init. dist.",
        "Final dist.",
        "Mem./node",
        "Comm. (init.)",
        "Comm. (final)",
    ];
    let fmt_cost = |c: Option<f64>| match c {
        None => "N/A".to_string(),
        Some(0.0) => "0".to_string(),
        Some(c) => format!("{c:.1} sec."),
    };
    let mut table: Vec<[String; 7]> = vec![headers.map(str::to_owned)];
    for r in &report.rows {
        table.push([
            r.full.clone(),
            r.reduced.clone(),
            r.init_dist.clone(),
            r.final_dist.clone(),
            fmt_paper_bytes_legible(r.mem_per_node_bytes),
            fmt_cost(r.comm_init),
            fmt_cost(r.comm_final),
        ]);
    }
    let mut widths = [0usize; 7];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    for row in &table {
        for (w, cell) in widths.iter().zip(row) {
            out.push_str(&format!("{cell:<width$}  ", width = w));
        }
        out.pop();
        out.pop();
        out.push('\n');
    }
    let redist_total: f64 = report.rows.iter().map(|r| r.redist).sum();
    if redist_total > 0.0 {
        out.push_str(&format!("Redistribution total: {redist_total:.1} sec.\n"));
    }
    out.push_str(&format!(
        "\nTotal communication: {:.1} sec. ({:.1}% of {:.1} sec. total running time)\n",
        report.summary.comm_s,
        report.summary.comm_percent(),
        report.summary.total_s()
    ));
    out.push_str(&format!(
        "Memory: {} of {} per processor (incl. send/recv buffer)\n",
        fmt_paper_bytes_legible(words_to_bytes(report.footprint_words)),
        fmt_paper_bytes_legible(words_to_bytes(report.limit_words)),
    ));
    out
}

/// Render an execution plan in Graphviz dot format: the expression tree
/// annotated with each array's distribution, fusion, and rotation costs.
pub fn render_plan_dot(tree: &ExprTree, plan: &ExecutionPlan) -> String {
    let sp = &tree.space;
    let mut out = String::from("digraph plan {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n");
    let cfg = plan.fusion_config();
    // Leaves, annotated with their required layout.
    for step in &plan.steps {
        for op in &step.operands {
            if op.is_leaf {
                out.push_str(&format!(
                    "  n{} [shape=box, label=\"{}\\n{}\"];\n",
                    op.node.0,
                    tree.node(op.node).tensor.render(sp),
                    op.required_dist.render(sp)
                ));
            }
        }
    }
    for step in &plan.steps {
        let reduced = cfg.reduced_tensor(tree, step.node);
        let fusion = if step.result_fusion.is_empty() {
            String::new()
        } else {
            format!("\\nfused ({})", sp.render(step.result_fusion.as_slice()))
        };
        out.push_str(&format!(
            "  n{} [shape=ellipse, label=\"{}\\n{}{}\\n{:.1}s\"];\n",
            step.node.0,
            reduced.render(sp),
            step.result_dist.render(sp),
            fusion,
            step.step_comm()
        ));
        for op in &step.operands {
            let style = if op.fusion.is_empty() { "solid" } else { "bold" };
            let label = if op.rotate_cost > 0.0 {
                format!("rot {:.1}s", op.rotate_cost)
            } else if op.redist_cost > 0.0 {
                format!("redist {:.1}s", op.redist_cost)
            } else {
                "fixed".into()
            };
            out.push_str(&format!(
                "  n{} -> n{} [style={style}, label=\"{label}\"];\n",
                op.node.0, step.node.0
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{optimize, OptimizerConfig};
    use crate::plan::extract_plan;
    use tce_cost::{CostModel, MachineModel};
    use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};

    #[test]
    fn plan_dot_is_complete() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let plan = extract_plan(&tree, &opt);
        let dot = render_plan_dot(&tree, &plan);
        assert!(dot.starts_with("digraph plan {"));
        assert_eq!(dot.matches(" -> ").count(), 6);
        assert!(dot.contains("T1(b,c,d)"), "reduced T1 in the label: {dot}");
        assert!(dot.contains("fused (f)"));
        assert!(dot.contains("fixed"));
    }

    #[test]
    fn report_rows_cover_every_array() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 64).unwrap();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let plan = extract_plan(&tree, &opt);
        let report = build_report(&tree, &plan, &cm);
        assert_eq!(report.rows.len(), 7, "4 inputs + 2 intermediates + output");
        assert_eq!(report.limit_words, cm.mem_limit_words());
        assert!(report.footprint_words <= report.limit_words);
        // Inputs first, then intermediates in production order.
        assert!(report.rows[4].full.contains("T1"));
        assert!((report.total_comm - report.summary.comm_s).abs() < 1e-12);
    }
}
