//! Golden corpus: every hand-broken source in `golden/bad_programs/` must
//! be flagged by `tce-lint` with its specific diagnostic code.
//!
//! Each corpus file is a small program with one deliberate source-level
//! defect — see `golden/bad_programs/README.md`. This test pins both the
//! *code* (the stable contract) and a *message snippet* (a snapshot of the
//! human rendering), mirroring `tests/bad_plans.rs` for the plan checker.
//! A third test keeps the shipped workloads lint-clean, so the `tce
//! optimize` pre-pass can never reject them, and a fourth drives the
//! (debug-build) CLI over the overflowing-volume program.

use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::lint::{codes, lint_source, LintOptions};

fn cm16() -> CostModel {
    CostModel::for_square(MachineModel::itanium_cluster(), 16).expect("16 is square")
}

/// (corpus file, expected diagnostic code, whether it is an error,
/// expected message snippet).
const EXPECTED: &[(&str, &str, bool, &str)] = &[
    ("unused_input.tce", codes::UNUSED_DECLARATION, false, "input `E` is never used"),
    ("unused_intermediate.tce", codes::UNUSED_DECLARATION, false, "intermediate `T` is never used"),
    ("duplicate_input.tce", codes::DUPLICATE_DECLARATION, false, "shadowing the declaration at"),
    ("shadowed_result.tce", codes::DUPLICATE_DECLARATION, false, "`C` declared again at"),
    ("dangling_sum_index.tce", codes::DANGLING_INDEX, false, "appears in no factor of `C`"),
    ("sum_index_kept.tce", codes::DANGLING_INDEX, true, "summed over but kept as a dimension"),
    ("uncomputable_result_dim.tce", codes::DANGLING_INDEX, true, "nothing computes it"),
    ("unknown_array.tce", codes::INCONSISTENT_REFERENCE, true, "`Bogus` is referenced but never"),
    ("mismatched_redeclaration.tce", codes::INCONSISTENT_REFERENCE, true, "used as `A(i,m)`"),
    ("indivisible_extent.tce", codes::INDIVISIBLE_EXTENT, false, "not divisible by the 4-wide"),
    ("infeasible_memory.tce", codes::MEMORY_INFEASIBLE, true, "provably infeasible"),
    ("volume_overflow.tce", codes::VOLUME_OVERFLOW, true, "`A(i,j,k,t)` has 2^128 or more"),
    ("footprint_overflow.tce", codes::VOLUME_OVERFLOW, true, "the sum of their volumes reaches"),
    ("loop_nest_overflow.tce", codes::VOLUME_OVERFLOW, true, "loop nest of `S_t1` over (a,b,c,d)"),
];

fn lint_file(dir: &str, file: &str) -> tensor_contraction_opt::check::diag::CheckReport {
    let cm = cm16();
    let path = format!("{dir}/{file}");
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    lint_source(&src, &LintOptions { file: Some(&path), cm: Some(&cm), ..LintOptions::default() })
        .unwrap_or_else(|e| panic!("{file}: parse failed: {e}"))
}

#[test]
fn every_bad_program_is_flagged_with_its_code() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/bad_programs");
    for &(file, code, is_error, snippet) in EXPECTED {
        let report = lint_file(dir, file);
        assert!(!report.diagnostics.is_empty(), "{file}: defect went undetected");
        assert!(report.has_code(code), "{file}: expected {code}, got:\n{}", report.render_human());
        assert_eq!(
            !report.is_clean(),
            is_error,
            "{file}: wrong severity:\n{}",
            report.render_human()
        );
        let rendered = report.render_human();
        assert!(
            rendered.contains(snippet),
            "{file}: rendering lost the snippet {snippet:?}:\n{rendered}"
        );
        // Single-defect discipline: exactly one code family per file
        // (mismatched_redeclaration also shadows, by construction).
        let codes_hit: std::collections::BTreeSet<&str> =
            report.diagnostics.iter().map(|d| d.code).collect();
        let allowed = if file == "mismatched_redeclaration.tce" { 2 } else { 1 };
        assert!(
            codes_hit.len() <= allowed,
            "{file}: expected a single defect, hit {codes_hit:?}:\n{rendered}"
        );
    }
}

#[test]
fn corpus_and_expectations_stay_in_sync() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/bad_programs");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tce"))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = EXPECTED.iter().map(|&(f, _, _, _)| f.to_owned()).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "corpus files and EXPECTED table diverge");
}

#[test]
fn shipped_workloads_are_lint_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let cm = cm16();
    for entry in std::fs::read_dir(dir).expect("workloads dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("tce") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("workload readable");
        let report = lint_source(
            &src,
            &LintOptions { file: path.to_str(), cm: Some(&cm), ..LintOptions::default() },
        )
        .expect("workload parses");
        assert!(
            report.diagnostics.is_empty(),
            "{}: shipped workload must lint clean:\n{}",
            path.display(),
            report.render_human()
        );
    }
}

/// Run every command that lowers the program on one corpus file: each
/// must exit 1 with `snippet` in its output. Integration tests run the
/// debug binary, where an unchecked product or sum would trip the
/// overflow check (exit 101) instead of wrapping silently.
fn exits_1_from_every_command(file: &str, snippet: &str) {
    let path = format!("{}/golden/bad_programs/{file}", env!("CARGO_MANIFEST_DIR"));
    for cmd in ["lint", "optimize", "compile", "simulate", "frontier", "check", "report"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tce"))
            .args([cmd, &path, "--procs", "16"])
            .output()
            .expect("run tce");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(1), "tce {cmd} {file}: {text}");
        assert!(text.contains(snippet), "tce {cmd} {file} lacks {snippet:?}: {text}");
    }
}

/// An array whose volume overflows `u128` is a diagnostic naming it,
/// never a panic or a silently wrapped size.
#[test]
fn volume_overflow_exits_1_from_every_command() {
    exits_1_from_every_command("volume_overflow.tce", "A(i,j,k,t)");
}

/// Arrays that each fit a `u128` word count but not together: lowering
/// rejects the program, so no footprint sum of the search can wrap.
#[test]
fn footprint_overflow_exits_1_from_every_command() {
    exits_1_from_every_command("footprint_overflow.tce", "the sum of their volumes");
}

/// A term whose every contraction order runs a loop nest of 2^128 or more
/// points: operation minimization prices it without wrapping, and
/// lowering rejects the program by the loop nest it names.
#[test]
fn loop_nest_overflow_exits_1_from_every_command() {
    exits_1_from_every_command("loop_nest_overflow.tce", "loop nest of `S_t1` over (a,b,c,d)");
}
