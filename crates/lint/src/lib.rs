//! `tce-lint`: whole-program static analysis of `.tce` sources.
//!
//! PR 3's `tce-check` verifies a *finished* `(ExprTree, ExecutionPlan)`
//! pair; this crate analyzes the **source program** before the
//! exponential search runs, so malformed-but-parseable programs fail in
//! milliseconds with an anchored diagnostic instead of deep inside
//! `optimize()` or `tce simulate`. It reuses the `tce-check` diagnostics
//! engine ([`tce_check::diag`]) — same severities, renderers, and JSON
//! shape — with its own stable `TCE1xx` code block (see [`codes`]):
//!
//! | code   | finding |
//! |--------|---------|
//! | TCE101 | declared array never used |
//! | TCE102 | duplicate declaration shadows an earlier one |
//! | TCE103 | dangling index (sum index in no factor, or result dim computed from nothing) |
//! | TCE104 | inconsistent reference (unknown array, or shape disagrees with its declaration) |
//! | TCE105 | index extent not divisible by the processor grid (predicts `SimError::Indivisible`) |
//! | TCE106 | processor grid not covered by the `RCost` characterization (silent nearest-grid fallback) |
//! | TCE107 | memory limit provably infeasible (`tce_cost::lower_bound` footprint floor) |
//! | TCE108 | an array's full volume, or the sum of all of them, overflows `u128` (lowering rejects the program) |
//!
//! TCE101–TCE104 and TCE108 are pure source analyses; TCE105–TCE107 additionally
//! need a cost model and are skipped (with a recorded reason) when none
//! is supplied. TCE107 is the *memory-feasibility prover*: it computes
//! the footprint floor every valid plan must pay
//! ([`tce_cost::lower_bound::mem_floor_words`], DESIGN.md §12) and
//! rejects `(expression, memory limit)` pairs no search could ever
//! satisfy.
//!
//! The CLI surfaces everything as `tce lint <file.tce> [--json]
//! [--deny-warnings]`, and `tce optimize` runs the same passes as a
//! cheap pre-pass (errors abort, warnings are forwarded to stderr).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

use tce_check::diag::{CheckReport, Diagnostics};
use tce_cost::CostModel;
use tce_expr::parser::Program;
use tce_expr::{parse, ExprError, FormulaSequence};

pub mod codes;
mod passes;

/// Everything a lint pass may look at.
pub struct LintContext<'a> {
    /// The parsed program under analysis.
    pub program: &'a Program,
    /// Source file name, used to anchor `file:line:col` notes.
    pub file: &'a str,
    /// Cost model (grid + characterization); absent when only
    /// source-level lints are wanted.
    pub cm: Option<&'a CostModel>,
    /// Per-processor memory limit (words) for the feasibility prover;
    /// defaults to the cost model's machine limit when absent.
    pub mem_limit_words: Option<u128>,
    /// Fusion-prefix length cap the search would run under (tightens the
    /// TCE107 footprint floor); `usize::MAX` mirrors the optimizer
    /// default.
    pub max_prefix_len: usize,
    /// The program lowered to a validated formula sequence
    /// ([`tce_opmin::lower_program`]) by the caller, which searches the
    /// same sequence.
    pub lowered: &'a Result<FormulaSequence, ExprError>,
}

/// Options for [`lint_program`] / [`lint_source`].
#[derive(Clone, Copy, Default)]
pub struct LintOptions<'a> {
    /// Source file name for `file:line:col` notes (defaults to
    /// `<source>`).
    pub file: Option<&'a str>,
    /// Cost model enabling the grid/memory passes (TCE105–TCE107).
    pub cm: Option<&'a CostModel>,
    /// Memory limit override (words) for the feasibility prover.
    pub mem_limit_words: Option<u128>,
    /// Fusion-prefix cap the search would run under (`None` =
    /// optimizer default, unlimited).
    pub max_prefix_len: Option<usize>,
}

/// Run every lint pass over a parsed program and its lowering
/// ([`tce_opmin::lower_program`] of the same program).
pub fn lint_program(
    program: &Program,
    lowered: &Result<FormulaSequence, ExprError>,
    opts: &LintOptions<'_>,
) -> CheckReport {
    let ctx = LintContext {
        program,
        file: opts.file.unwrap_or("<source>"),
        cm: opts.cm,
        mem_limit_words: opts.mem_limit_words,
        max_prefix_len: opts.max_prefix_len.unwrap_or(usize::MAX),
        lowered,
    };
    let mut report = CheckReport::default();
    for pass in passes::registry() {
        if pass.needs_cost_model && ctx.cm.is_none() {
            report
                .skipped
                .push((pass.name, "needs a cost model (grid/characterization)".to_string()));
            continue;
        }
        let mut out = Diagnostics::new();
        (pass.run)(&ctx, &mut out);
        report.diagnostics.extend(out.into_vec());
        report.passes_run.push(pass.name);
    }
    report
}

/// Parse a `.tce` source and lint it. A parse failure is returned as
/// `Err` (there is no program to analyze), already prefixed with the
/// file name.
pub fn lint_source(src: &str, opts: &LintOptions<'_>) -> Result<CheckReport, String> {
    let file = opts.file.unwrap_or("<source>");
    let program = parse(src).map_err(|e| format!("{file}: {e}"))?;
    Ok(lint_program(&program, &tce_opmin::lower_program(&program), opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_cost::MachineModel;

    fn cm4() -> CostModel {
        CostModel::for_square(MachineModel::itanium_cluster(), 4).expect("square grid")
    }

    fn lint(src: &str) -> CheckReport {
        let cm = cm4();
        lint_source(src, &LintOptions { cm: Some(&cm), ..LintOptions::default() }).expect("parses")
    }

    #[test]
    fn clean_matmul_has_no_findings() {
        let r = lint(
            "range i = 16; range j = 16; range k = 16;\n\
             input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n",
        );
        assert!(r.diagnostics.is_empty(), "{}", r.render_human());
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn unused_input_is_tce101() {
        let r = lint(
            "range i = 16; range k = 16;\n\
             input A[i,k]; input B[i,k];\nC[i] = sum[k] A[i,k];\n",
        );
        assert!(r.has_code(codes::UNUSED_DECLARATION), "{}", r.render_human());
        assert!(r.is_clean(), "unused is a warning, not an error");
    }

    #[test]
    fn duplicate_declaration_is_tce102_with_both_spans() {
        let r = lint(
            "range i = 16; range k = 16;\n\
             input A[i,k];\ninput A[i,k];\nC[i] = sum[k] A[i,k];\n",
        );
        assert!(r.has_code(codes::DUPLICATE_DECLARATION), "{}", r.render_human());
        let d =
            r.diagnostics.iter().find(|d| d.code == codes::DUPLICATE_DECLARATION).expect("finding");
        let text = format!("{} {}", d.message, d.notes.join(" "));
        assert!(text.contains("2:7") && text.contains("3:7"), "both spans: {text}");
    }

    #[test]
    fn dangling_sum_index_is_tce103() {
        let r = lint(
            "range i = 16; range k = 16; range z = 16;\n\
             input A[i,k];\nC[i] = sum[k,z] A[i,k];\n",
        );
        assert!(r.has_code(codes::DANGLING_INDEX), "{}", r.render_human());
    }

    #[test]
    fn unknown_reference_is_tce104() {
        let r = lint(
            "range i = 16; range k = 16;\n\
             input A[i,k];\nC[i] = sum[k] A[i,k]*Bogus[k,i];\nD[i] = sum[k] C[i]*A[i,k];\n",
        );
        assert!(r.has_code(codes::INCONSISTENT_REFERENCE), "{}", r.render_human());
        assert!(!r.is_clean());
    }

    #[test]
    fn indivisible_extent_is_tce105() {
        let r = lint(
            "range i = 15; range j = 16; range k = 16;\n\
             input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n",
        );
        assert!(r.has_code(codes::INDIVISIBLE_EXTENT), "{}", r.render_human());
    }

    #[test]
    fn uncharacterized_grid_is_tce106() {
        use tce_cost::characterize;
        let machine = MachineModel::itanium_cluster();
        // Characterize only an 8-step grid, then run on 2×2.
        let chr = characterize(&machine, &[8]);
        let grid = tce_dist::ProcGrid::square(4).expect("square grid");
        let cm = CostModel::with_characterization(machine, chr, grid);
        let src = "range i = 16; range j = 16; range k = 16;\n\
                   input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let r = lint_source(src, &LintOptions { cm: Some(&cm), ..LintOptions::default() })
            .expect("parses");
        assert!(r.has_code(codes::UNCHARACTERIZED_GRID), "{}", r.render_human());
    }

    #[test]
    fn infeasible_memory_limit_is_tce107() {
        let cm = cm4();
        let src = "range i = 64; range j = 64; range k = 64;\n\
                   input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let r = lint_source(
            src,
            &LintOptions { cm: Some(&cm), mem_limit_words: Some(1), ..LintOptions::default() },
        )
        .expect("parses");
        assert!(r.has_code(codes::MEMORY_INFEASIBLE), "{}", r.render_human());
        assert!(!r.is_clean());
        // A loose limit is not flagged.
        let ok = lint_source(src, &LintOptions { cm: Some(&cm), ..LintOptions::default() })
            .expect("parses");
        assert!(!ok.has_code(codes::MEMORY_INFEASIBLE), "{}", ok.render_human());
    }

    #[test]
    fn passes_needing_a_cost_model_are_skipped_without_one() {
        let src = "range i = 16; range k = 16;\ninput A[i,k];\nC[i] = sum[k] A[i,k];\n";
        let r = lint_source(src, &LintOptions::default()).expect("parses");
        assert!(!r.skipped.is_empty());
        assert!(r.is_clean());
    }
}
