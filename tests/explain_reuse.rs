//! The memory-constraint explanation of `tce optimize` comes from the one
//! search the request runs: the explained search
//! (`portfolio::plan_explained`) checks the memory limit only at root
//! selection, so its root set gives both the plan under the limit and the
//! optimum with the limit lifted, and `Explanation::from_run` narrates
//! from that run (DESIGN.md §13). This must change nothing a user sees:
//!
//! - on every shipped workload at 4, 16 and 64 processors, and on the
//!   enlarged `ccsd_tiny` cell, the explained run's plan, cost bits and
//!   footprint equal the cold constrained search's, and every
//!   `Explanation` field (floats by bits) and the text equal a reference
//!   that runs the two cold searches the explanation used to run (limit
//!   lifted, limit kept) and narrates them by the same rules;
//! - `Explanation::from_run` searches nothing on an explained run: a
//!   collecting `tce_obs` sink sees no `dp` run span from it on any cell,
//!   and serving the enlarged text request shows exactly two (`key_pass`
//!   and `optimize`);
//! - on the enlarged cell the one explained search prices fewer
//!   candidates than the plan-only search and the bounded lifted-limit
//!   search it replaces together, and `tce optimize --stats` shows that
//!   text output runs it while `--json` runs the plan-only search;
//! - `tce optimize` text stdout is the report, the explanation and the
//!   plan section, byte for byte, as computed in-process.
//! - a reader that closes stdout early (`tce optimize ... | head -1`)
//!   ends `tce optimize` and `tce explain` quietly: status 0, no panic.

use std::process::Command;
use std::sync::{Arc, Mutex, MutexGuard};

use tensor_contraction_opt::core::portfolio;
use tensor_contraction_opt::core::{
    build_report, explain, extract_plan, optimize, render_report, ExecutionPlan, Explanation,
    Optimized, OptimizerConfig,
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

/// Run `f` under a collecting sink and return its result with the names
/// of the `dp` run spans (`key_pass`, `optimize`) it emitted.
fn dp_runs<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let sink = Arc::new(RecordingSink::new());
    obs::install(sink.clone());
    let out = f();
    obs::uninstall();
    let runs = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Slice { lane, name, .. }
                if lane == "dp" && (name == "key_pass" || name == "optimize") =>
            {
                Some(name)
            }
            _ => None,
        })
        .collect();
    (out, runs)
}

/// What [`check_cell`] measured on a feasible cell.
struct Cell {
    /// The run `tce optimize` explains from.
    explained: Optimized,
    /// The `dp` run spans serving it emitted.
    runs: Vec<String>,
    /// The explanation.
    explanation: Explanation,
}

/// Check one cell, or return `None` when nothing fits the limit (then
/// `tce optimize` fails before it explains, and `explain` fails alike).
fn check_cell(label: &str, tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) -> Option<Cell> {
    let (served, runs) = dp_runs(|| portfolio::plan_explained(tree, cm, cfg));
    let constrained = match optimize(tree, cm, cfg) {
        Ok(c) => c,
        Err(e) => {
            assert_eq!(served.expect_err(label), e, "{label}");
            assert_eq!(explain(tree, cm, cfg).expect_err(label), e, "{label}");
            return None;
        }
    };
    let explained = served.unwrap_or_else(|e| panic!("{label}: {e}")).opt;
    assert_eq!(explained.comm_cost.to_bits(), constrained.comm_cost.to_bits(), "{label}");
    assert_eq!(explained.mem_words, constrained.mem_words, "{label}");
    assert_eq!(explained.max_msg_words, constrained.max_msg_words, "{label}");
    let plan = extract_plan(tree, &explained);
    assert_eq!(plan.to_json(), extract_plan(tree, &constrained).to_json(), "{label}");

    let free_cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..cfg.clone() };
    let free = optimize(tree, cm, &free_cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = reference(tree, cm, cfg, &constrained, &free);
    let (got, searches) = dp_runs(|| Explanation::from_run(tree, cm, cfg, &explained, &plan));
    assert_eq!(searches, Vec::<String>::new(), "{label}: the explanation searched again");
    let got = got.unwrap_or_else(|e| panic!("{label}: {e}"));

    assert_eq!(got.constrained_comm.to_bits(), want.constrained_comm.to_bits(), "{label}");
    assert_eq!(got.unconstrained_comm.to_bits(), want.unconstrained_comm.to_bits(), "{label}");
    assert_eq!(got.unconstrained_footprint, want.unconstrained_footprint, "{label}");
    assert_eq!(got.limit_words, want.limit_words, "{label}");
    assert_eq!(got.fusions, want.fusions, "{label}");
    assert_eq!(got.text, want.text, "{label}");
    Some(Cell { explained, runs, explanation: got })
}

#[test]
fn explanation_from_the_run_matches_two_cold_searches() {
    let _serial = serial();
    let (mut infeasible, mut binding) = (Vec::new(), Vec::new());
    for file in workloads() {
        let tree = load(&file);
        for procs in [4, 16, 64] {
            let label = format!("{file} @ {procs}");
            match check_cell(&label, &tree, &cost_model(procs, None), &config(false)) {
                None => infeasible.push(label),
                Some(cell) => {
                    let e = &cell.explanation;
                    if e.unconstrained_footprint > e.limit_words {
                        binding.push(label);
                    }
                }
            }
        }
    }
    // Paper-scale ccsd does not fit 4 processors' memory (§4).
    assert_eq!(infeasible, ["ccsd.tce @ 4"]);
    // The limit binds only where it forces fusion or a costlier layout.
    assert_eq!(binding, ["ccsd.tce @ 16", "ladder.tce @ 4"]);
}

#[test]
fn enlarged_cell_explanation_comes_from_one_search() {
    let _serial = serial();
    let tree = load("ccsd_tiny.tce");
    let cm = cost_model(64, Some(ENLARGED_MEM_GB));
    let cfg = config(true);
    let Cell { explained, runs, explanation } =
        check_cell("enlarged ccsd_tiny", &tree, &cm, &cfg).expect("the limit is feasible");
    assert!(explanation.unconstrained_footprint > explanation.limit_words, "the limit binds");
    assert_eq!(runs, ["key_pass", "optimize"], "serving the text request");

    // The two searches it replaces: the plan-only request, and the
    // lifted-limit search bounded by its optimum.
    let plan_only = portfolio::plan(&tree, &cm, &cfg).expect("feasible").opt;
    let bounded = OptimizerConfig {
        mem_limit_words: Some(u128::MAX),
        warm_upper_bound: Some(plan_only.comm_cost),
        ..cfg.clone()
    };
    let lifted = optimize(&tree, &cm, &bounded).expect("feasible");
    let [one, two] = [&plan_only, &lifted].map(|o| o.counters.get(names::CANDIDATES));
    let merged = explained.counters.get(names::CANDIDATES);
    println!("explained search priced {merged} candidates; the two it replaces {one} + {two}");
    assert!(merged < one + two, "{merged} candidates, the two searches {one} + {two}");
    assert_eq!(explained.counters.get(names::PRUNED_MEMORY), 0, "no node prunes for memory");

    // `tce optimize` runs this search for text output and the plan-only
    // one for `--json`: the `--stats` totals tell them apart.
    let total = |json: bool| {
        let mem_arg = ENLARGED_MEM_GB.to_string();
        let path = workload_path("ccsd_tiny.tce");
        let mut args = vec!["optimize", &path, "--procs", "64", "--threads", "1"];
        args.extend(["--replication", "--unrelated-rotation", "--mem-gb", &mem_arg]);
        args.extend(["--no-plan-cache", "--stats"]);
        if json {
            args.push("--json");
        }
        let out = Command::new(env!("CARGO_BIN_EXE_tce")).args(&args).output().expect("run tce");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.starts_with("total: ")).expect("a total line");
        line["total: ".len()..]
            .split(' ')
            .next()
            .and_then(|n| n.parse::<u64>().ok())
            .expect("count")
    };
    assert_eq!(total(false), merged, "text output runs the explained search");
    assert_eq!(total(true), one, "--json runs the plan-only search");
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
