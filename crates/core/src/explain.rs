//! Explain an optimization outcome in prose: what the memory constraint
//! forced, and what it cost — the §4 narrative ("memory constraints can
//! lead to counter-intuitive trends in communication costs") generated for
//! any workload.

use tce_cost::units::{fmt_paper_bytes_apart, fmt_paper_bytes_legible, words_to_bytes};
use tce_cost::CostModel;
use tce_expr::ExprTree;

use crate::dp::{OptimizeError, Optimized, OptimizerConfig};
use crate::plan::{extract_plan, ExecutionPlan};
use crate::portfolio::plan_explained;

/// The comparison behind an explanation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Communication cost under the real memory limit.
    pub constrained_comm: f64,
    /// Communication cost with the limit lifted.
    pub unconstrained_comm: f64,
    /// Footprint the unconstrained optimum would need (words/processor).
    pub unconstrained_footprint: u128,
    /// The per-processor limit (words).
    pub limit_words: u128,
    /// Fusions the constrained plan uses, rendered (`T1→(f)`).
    pub fusions: Vec<String>,
    /// The rendered narrative.
    pub text: String,
}

/// Serve the request the explained way ([`plan_explained`]: one search
/// gives the plan under the limit and the optimum with it lifted) and
/// narrate what the limit cost (see [`Explanation::from_run`]).
pub fn explain(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Explanation, OptimizeError> {
    let run = plan_explained(tree, cm, cfg)?.opt;
    Explanation::from_run(tree, cm, cfg, &run, &extract_plan(tree, &run))
}

impl Explanation {
    /// Explain a finished constrained run (`constrained`, searched under
    /// `cfg`, and its extracted `plan`) by comparing it with the optimum
    /// with the limit lifted. A run of the explained search carries that
    /// optimum ([`Optimized::lifted`]), so nothing is searched. Any other
    /// run (a plan-only search or a plan-cache hit) does not, and then the
    /// request is served once more the explained way for it; its plan
    /// class is the same as the given run's (DESIGN.md §13).
    pub fn from_run(
        tree: &ExprTree,
        cm: &CostModel,
        cfg: &OptimizerConfig,
        constrained: &Optimized,
        plan: &ExecutionPlan,
    ) -> Result<Explanation, OptimizeError> {
        let Some(lifted) = constrained.lifted else {
            // Every explained run carries `lifted`, so this recurses once.
            return Self::from_run(tree, cm, cfg, &plan_explained(tree, cm, cfg)?.opt, plan);
        };
        let (free_comm, free_fp) = (lifted.comm_cost, lifted.footprint_words);
        let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
        let fusions: Vec<String> = plan
            .steps
            .iter()
            .filter(|s| !s.result_fusion.is_empty())
            .map(|s| {
                format!("{}→({})", s.result_name, tree.space.render(s.result_fusion.as_slice()))
            })
            .collect();

        let mut text = String::new();
        if free_fp <= limit {
            text.push_str(&format!(
                "The communication-optimal plan fits in memory ({} of {} per \
                 processor), so the limit costs nothing: {:.1} s of communication.",
                fmt_paper_bytes_legible(words_to_bytes(free_fp)),
                fmt_paper_bytes_legible(words_to_bytes(limit)),
                free_comm,
            ));
        } else {
            let (need, have) =
                fmt_paper_bytes_apart(words_to_bytes(free_fp), words_to_bytes(limit));
            text.push_str(&format!(
                "The communication-optimal plan would need {need} per processor but \
                 only {have} is available, so the optimizer trades memory for \
                 messages",
            ));
            if fusions.is_empty() {
                text.push_str(" by re-distributing arrays");
            } else {
                text.push_str(&format!(" by fusing {}", fusions.join(", ")));
            }
            text.push_str(&format!(
                ": communication rises from {:.1} s to {:.1} s",
                free_comm, constrained.comm_cost
            ));
            if free_comm > 0.0 {
                text.push_str(&format!(" ({:.1}×)", constrained.comm_cost / free_comm));
            }
            text.push_str(". The entire difference is the price of the memory constraint.");
        }
        Ok(Explanation {
            constrained_comm: constrained.comm_cost,
            unconstrained_comm: free_comm,
            unconstrained_footprint: free_fp,
            limit_words: limit,
            fusions,
            text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_cost::MachineModel;
    use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};

    #[test]
    fn explains_the_16_processor_squeeze() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let e = explain(&tree, &cm, &OptimizerConfig::default()).unwrap();
        assert!(e.unconstrained_footprint > e.limit_words);
        assert!(e.constrained_comm > e.unconstrained_comm);
        assert_eq!(e.fusions, vec!["T1→(f)"]);
        assert!(e.text.contains("price of the memory constraint"), "{}", e.text);
        assert!(e.text.contains("fusing T1→(f)"), "{}", e.text);
    }

    #[test]
    fn explains_the_64_processor_free_ride() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 64).unwrap();
        let e = explain(&tree, &cm, &OptimizerConfig::default()).unwrap();
        assert!(e.unconstrained_footprint <= e.limit_words);
        assert!((e.constrained_comm - e.unconstrained_comm).abs() < 1e-9);
        assert!(e.fusions.is_empty());
        assert!(e.text.contains("costs nothing"), "{}", e.text);
    }
}
