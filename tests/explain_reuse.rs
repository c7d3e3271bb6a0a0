//! The memory-constraint explanation of `tce optimize` is derived from the
//! constrained run the command already has, and its unconstrained
//! comparison search is warm-started from that run's optimum
//! (`Explanation::from_run`). This must change nothing a user sees:
//!
//! - on every shipped workload at 4, 16 and 64 processors, and on the
//!   enlarged `ccsd_tiny` cell, every `Explanation` field (floats by bits)
//!   and the text equal a reference that runs the two cold searches the
//!   explanation used to run (limit lifted, limit kept) and narrates them
//!   by the same rules;
//! - the explanation searches again only when the memory limit rejected
//!   some candidate of the run (`dp.pruned_memory > 0`): a collecting
//!   `tce_obs` sink sees no `dp`/`optimize` span from
//!   `Explanation::from_run` on any other cell;
//! - the bounded search never prices more candidates than the cold one,
//!   and on the enlarged cell it prices under a fifth of them;
//! - `tce optimize` text stdout is the report, the explanation and the
//!   plan section, byte for byte, as computed in-process.
//! - a reader that closes stdout early (`tce optimize ... | head -1`)
//!   ends `tce optimize` and `tce explain` quietly: status 0, no panic.

use std::process::Command;
use std::sync::{Arc, Mutex, MutexGuard};

use tensor_contraction_opt::core::{
    build_report, explain, extract_plan, optimize, render_report, ExecutionPlan, Explanation,
    OptimizeError, Optimized, OptimizerConfig,
};
use tensor_contraction_opt::cost::units::{
    fmt_paper_bytes, fmt_paper_bytes_apart, words_to_bytes, PAPER_MB,
};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::obs::{self, names, RecordingSink, TraceEvent};
use tensor_contraction_opt::opmin::lower_program;

/// `--mem-gb` of the enlarged cell: tight enough that the limit binds
/// (without it replication stores every array whole at zero cost).
const ENLARGED_MEM_GB: f64 = 0.0001;

fn workload_path(file: &str) -> String {
    format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn load(file: &str) -> ExprTree {
    let src = std::fs::read_to_string(workload_path(file)).expect("readable workload");
    lower_program(&parse(&src).unwrap_or_else(|e| panic!("{file}: {e}")))
        .unwrap_or_else(|e| panic!("{file}: {e}"))
        .to_tree()
        .unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn workloads() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .expect("workloads dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tce"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no workloads found in {dir}");
    out
}

/// The cost model `tce` builds for `--procs procs [--mem-gb gb]`.
fn cost_model(procs: u32, mem_gb: Option<f64>) -> CostModel {
    let mut machine = MachineModel::itanium_cluster();
    if let Some(gb) = mem_gb {
        machine.mem_per_node_bytes = (gb * 1024.0 * PAPER_MB) as u64;
    }
    CostModel::for_square(machine, procs).expect("square processor count")
}

/// The configuration `tce optimize --threads 1 [--replication
/// --unrelated-rotation]` searches with.
fn config(enlarged: bool) -> OptimizerConfig {
    OptimizerConfig {
        allow_replication: enlarged,
        allow_unrelated_rotation: enlarged,
        threads: 1,
        ..Default::default()
    }
}

/// The explanation as it was computed before it reused the constrained
/// run: `constrained` and `free` are the two cold searches (limit kept,
/// limit lifted), narrated by the original code.
fn reference(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    constrained: &Optimized,
    free: &Optimized,
) -> Explanation {
    let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
    let plan = extract_plan(tree, constrained);
    let fusions: Vec<String> = plan
        .steps
        .iter()
        .filter(|s| !s.result_fusion.is_empty())
        .map(|s| format!("{}→({})", s.result_name, tree.space.render(s.result_fusion.as_slice())))
        .collect();
    let free_fp = free.mem_words + free.max_msg_words;
    let mut text = String::new();
    if free_fp <= limit {
        text.push_str(&format!(
            "The communication-optimal plan fits in memory ({} of {} per \
             processor), so the limit costs nothing: {:.1} s of communication.",
            fmt_paper_bytes(words_to_bytes(free_fp)),
            fmt_paper_bytes(words_to_bytes(limit)),
            free.comm_cost,
        ));
    } else {
        let (need, have) = fmt_paper_bytes_apart(words_to_bytes(free_fp), words_to_bytes(limit));
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
            free.comm_cost, constrained.comm_cost
        ));
        if free.comm_cost > 0.0 {
            text.push_str(&format!(" ({:.1}×)", constrained.comm_cost / free.comm_cost));
        }
        text.push_str(". The entire difference is the price of the memory constraint.");
    }
    Explanation {
        constrained_comm: constrained.comm_cost,
        unconstrained_comm: free.comm_cost,
        unconstrained_footprint: free_fp,
        limit_words: limit,
        fusions,
        text,
    }
}

/// The trace sink is process-wide: tests of this file that search
/// in-process hold this lock, so a sink installed by one of them records
/// only its own searches.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Explanation::from_run` under a collecting sink, with the number of
/// searches (`dp`/`optimize` spans) it ran.
fn from_run_counting_searches(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    constrained: &Optimized,
) -> (Result<Explanation, OptimizeError>, usize) {
    let plan = extract_plan(tree, constrained);
    let sink = Arc::new(RecordingSink::new());
    obs::install(sink.clone());
    let got = Explanation::from_run(tree, cm, cfg, constrained, &plan);
    obs::uninstall();
    let is_search = |e: &TraceEvent| matches!(e, TraceEvent::Slice { lane, name, .. } if lane == "dp" && name == "optimize");
    let searches = sink.events().iter().filter(|e| is_search(e)).count();
    (got, searches)
}

/// What [`check_cell`] measured on a feasible cell.
struct Cell {
    /// Candidates priced by the bounded and the cold unconstrained search.
    warm: u64,
    cold: u64,
    /// Whether `Explanation::from_run` searched again.
    searched: bool,
}

/// Check one cell, or return `None` when nothing fits the limit (then
/// `tce optimize` fails before it explains, and `explain` fails alike).
fn check_cell(label: &str, tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) -> Option<Cell> {
    let constrained = match optimize(tree, cm, cfg) {
        Ok(c) => c,
        Err(e) => {
            assert_eq!(explain(tree, cm, cfg).expect_err(label), e, "{label}");
            return None;
        }
    };
    let free_cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..cfg.clone() };
    let free = optimize(tree, cm, &free_cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = reference(tree, cm, cfg, &constrained, &free);
    let (got, searches) = from_run_counting_searches(tree, cm, cfg, &constrained);
    let got = got.unwrap_or_else(|e| panic!("{label}: {e}"));
    let bound = constrained.counters.get(names::PRUNED_MEMORY) > 0;
    assert_eq!(searches, usize::from(bound), "{label}: searches run by the explanation");

    assert_eq!(got.constrained_comm.to_bits(), want.constrained_comm.to_bits(), "{label}");
    assert_eq!(got.unconstrained_comm.to_bits(), want.unconstrained_comm.to_bits(), "{label}");
    assert_eq!(got.unconstrained_footprint, want.unconstrained_footprint, "{label}");
    assert_eq!(got.limit_words, want.limit_words, "{label}");
    assert_eq!(got.fusions, want.fusions, "{label}");
    assert_eq!(got.text, want.text, "{label}");

    let bounded_cfg = Explanation::unconstrained_config(cfg, constrained.comm_cost);
    assert!(!bounded_cfg.verify, "{label}: the comparison search skips the release self-check");
    let bounded = optimize(tree, cm, &bounded_cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (warm, cold) =
        (bounded.counters.get(names::CANDIDATES), free.counters.get(names::CANDIDATES));
    assert!(warm <= cold, "{label}: bounded search priced {warm} candidates, cold {cold}");
    println!("{label}: bounded search priced {warm} of the cold search's {cold} candidates");
    Some(Cell { warm, cold, searched: bound })
}

#[test]
fn explanation_from_the_run_matches_two_cold_searches() {
    let _serial = serial();
    let (mut infeasible, mut searched) = (Vec::new(), Vec::new());
    for file in workloads() {
        let tree = load(&file);
        for procs in [4, 16, 64] {
            let label = format!("{file} @ {procs}");
            match check_cell(&label, &tree, &cost_model(procs, None), &config(false)) {
                None => infeasible.push(label),
                Some(cell) if cell.searched => searched.push(label),
                Some(_) => {}
            }
        }
    }
    // Paper-scale ccsd does not fit 4 processors' memory (§4).
    assert_eq!(infeasible, ["ccsd.tce @ 4"]);
    // The limit binds only where it forces fusion or a costlier layout.
    assert_eq!(searched, ["ccsd.tce @ 16", "ladder.tce @ 4"]);
}

#[test]
fn enlarged_cell_explanation_matches_and_prices_under_a_fifth() {
    let _serial = serial();
    let tree = load("ccsd_tiny.tce");
    let cm = cost_model(64, Some(ENLARGED_MEM_GB));
    let Cell { warm, cold, searched } =
        check_cell("enlarged ccsd_tiny", &tree, &cm, &config(true)).expect("the limit is feasible");
    assert!(searched, "the enlarged cell's limit binds, so the explanation searches again");
    assert!(
        warm * 5 < cold,
        "bounded search priced {warm} of the cold search's {cold} candidates (want < 20%)"
    );
}

/// The `plan:` section `tce optimize` prints after the explanation.
fn plan_section(tree: &ExprTree, plan: &ExecutionPlan) -> String {
    let mut out = String::from("\nplan:\n");
    for step in &plan.steps {
        let fusion = if step.result_fusion.is_empty() {
            String::new()
        } else {
            format!(" fused ({})", tree.space.render(step.result_fusion.as_slice()))
        };
        out.push_str(&format!(
            "  {} in {}{} — step comm {:.3} s\n",
            step.result_name,
            step.result_dist.render(&tree.space),
            fusion,
            step.step_comm()
        ));
    }
    out
}

#[test]
fn optimize_text_stdout_is_report_explanation_and_plan() {
    let _serial = serial();
    for (file, procs, enlarged) in [("ccsd.tce", 16, false), ("ccsd_tiny.tce", 64, true)] {
        let path = workload_path(file);
        let procs_arg = procs.to_string();
        let mut args =
            vec!["optimize", &path, "--procs", &procs_arg, "--threads", "1", "--no-plan-cache"];
        let mem_gb = enlarged.then_some(ENLARGED_MEM_GB);
        let mem_arg = ENLARGED_MEM_GB.to_string();
        if enlarged {
            args.extend(["--replication", "--unrelated-rotation", "--mem-gb", &mem_arg]);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_tce")).args(&args).output().expect("run tce");
        assert!(out.status.success(), "{file}: {}", String::from_utf8_lossy(&out.stderr));

        let tree = load(file);
        let (cm, cfg) = (cost_model(procs, mem_gb), config(enlarged));
        let opt = optimize(&tree, &cm, &cfg).expect("optimizes");
        let plan = extract_plan(&tree, &opt);
        let e = explain(&tree, &cm, &cfg).expect("explains");
        let want = format!(
            "{}\n{}\n{}",
            render_report(&build_report(&tree, &plan, &cm)),
            e.text,
            plan_section(&tree, &plan)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{file} @ {procs}");
    }
}

#[test]
fn closed_stdout_ends_optimize_and_explain_quietly() {
    for command in ["optimize", "explain"] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let run = Command::new(env!("CARGO_BIN_EXE_tce"))
            .args([command, &workload_path("ccsd.tce"), "--procs", "16", "--no-plan-cache"])
            .stdout(writer)
            .output()
            .expect("run tce");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert_eq!(run.status.code(), Some(0), "{command}: {stderr}");
        assert!(stderr.is_empty(), "{command} wrote to stderr: {stderr}");
    }
}
