//! Golden-output regression tests: the regenerated paper experiments are
//! pinned byte-for-byte. Any change to the cost model, the search, or the
//! rendering that shifts the reproduced numbers fails here first, with a
//! readable diff — update `golden/` only after re-validating against the
//! paper (EXPERIMENTS.md).

use tensor_contraction_opt::bench::repro;
use tensor_contraction_opt::core::{optimize, render_search_stats, OptimizerConfig};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::parse;
use tensor_contraction_opt::opmin::lower_program;

/// Runs `repro <id>` in-process and compares its full output with its golden
/// file: `golden/table1.txt`, `table2.txt` and `fig1.txt` for T1, T2 and F1,
/// `golden/repro/<id>.txt` for the rest. S2 leaves out its `cost memo:` and
/// `bound skips:` lines, as `search_statistics_are_pinned` does. Returns the
/// diff message when the output diverged.
fn repro_divergence(id: &str) -> Option<String> {
    let mut out = Vec::new();
    repro::run(id, &mut out).unwrap_or_else(|e| panic!("repro {id}: {e}"));
    let mut rendered = String::from_utf8(out).expect("utf-8 output");
    if id == "S2" {
        rendered = rendered
            .lines()
            .filter(|l| !l.starts_with("cost memo:") && !l.starts_with("bound skips:"))
            .map(|l| format!("{l}\n"))
            .collect();
    }
    let path = match id {
        "T1" => "golden/table1.txt".to_string(),
        "T2" => "golden/table2.txt".to_string(),
        "F1" => "golden/fig1.txt".to_string(),
        _ => format!("golden/repro/{id}.txt"),
    };
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    (rendered != golden).then(|| {
        format!("repro {id} diverged from {path}.\n--- regenerated ---\n{rendered}\n--- golden ---\n{golden}")
    })
}

#[test]
fn table1_report_is_pinned() {
    if let Some(diff) = repro_divergence("T1") {
        panic!("{diff}");
    }
}

#[test]
fn table2_report_is_pinned() {
    if let Some(diff) = repro_divergence("T2") {
        panic!("{diff}");
    }
}

/// Every other `repro` id; T1 and T2 have their own tests above.
#[test]
fn every_experiment_output_is_pinned() {
    let diverged: Vec<String> = repro::IDS
        .iter()
        .filter(|(id, _)| !matches!(*id, "T1" | "T2"))
        .filter_map(|(id, _)| repro_divergence(id))
        .collect();
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

#[test]
fn golden_files_contain_the_paper_landmarks() {
    let t1 = std::fs::read_to_string("golden/table1.txt").unwrap();
    assert!(t1.contains("1.728GB"), "T1's per-node size");
    assert!(t1.contains("Fusions chosen:   0 (paper: 0)"));
    let t2 = std::fs::read_to_string("golden/table2.txt").unwrap();
    assert!(t2.contains("T1(b,c,d)"), "the fused T1");
    assert!(t2.contains("108.0MB"));
    let f1 = std::fs::read_to_string("golden/fig1.txt").unwrap();
    assert!(f1.contains("99.0x"), "Fig. 1 speedup at N=100");
}

/// The per-node search statistics (candidates, kept, pruned, redistribution
/// fallbacks, keys, widest staircase, arena high-water) and the `total:`
/// line of `tce optimize --stats --threads 1`, on every shipped workload at
/// 16 processors and on the enlarged `ccsd_tiny` cell. These numbers are a
/// pure function of the search space, so a refactor of the combine loops
/// must leave them unchanged. The memo and bound-skip lines are left out:
/// they measure how the work was avoided, which pruning changes may move.
#[test]
fn search_statistics_are_pinned() {
    let cells: [(&str, u32, bool, Option<f64>); 7] = [
        ("ccsd.tce", 16, false, None),
        ("ccsd_tiny.tce", 16, false, None),
        ("fig1.tce", 16, false, None),
        ("ladder.tce", 16, false, None),
        ("repeated.tce", 16, false, None),
        ("transform.tce", 16, false, None),
        ("ccsd_tiny.tce", 64, true, Some(0.0001)),
    ];
    let mut rendered = String::new();
    for (file, procs, enlarged, mem_gb) in cells {
        let path = format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("readable workload");
        let tree =
            lower_program(&parse(&src).expect("parses")).expect("lowers").to_tree().expect("tree");
        let mut machine = MachineModel::itanium_cluster();
        let mut header = format!("== {file} --procs {procs}");
        if enlarged {
            header.push_str(" --replication --unrelated-rotation");
        }
        if let Some(gb) = mem_gb {
            machine.mem_per_node_bytes = (gb * 1024.0 * PAPER_MB) as u64;
            header.push_str(&format!(" --mem-gb {gb}"));
        }
        let cm = CostModel::for_square(machine, procs).unwrap();
        let cfg = OptimizerConfig {
            allow_replication: enlarged,
            allow_unrelated_rotation: enlarged,
            threads: 1,
            ..Default::default()
        };
        let opt = optimize(&tree, &cm, &cfg).unwrap_or_else(|e| panic!("{header}: {e}"));
        rendered.push_str(&header);
        rendered.push('\n');
        for line in render_search_stats(&opt).lines() {
            rendered.push_str(line);
            rendered.push('\n');
            if line.starts_with("total:") {
                break;
            }
        }
    }
    let golden =
        std::fs::read_to_string("golden/search_stats.txt").expect("golden/search_stats.txt");
    assert!(
        rendered == golden,
        "search statistics diverged from golden/search_stats.txt.\n--- regenerated ---\n{rendered}\n--- golden ---\n{golden}"
    );
}

/// The text stdout of `tce optimize <w> --threads 1 --no-plan-cache` —
/// report, explanation and plan — on every shipped workload at 4, 16 and
/// 64 processors, on the enlarged `ccsd_tiny` cell and on `ccsd` at 64
/// processors under a 0.5 GB limit. A cell that fails (paper-scale `ccsd`
/// does not fit 4 processors) pins its exit code and stderr instead. The
/// search may skip work only where it cannot change a printed byte.
#[test]
fn optimize_text_stdout_is_pinned() {
    let mut cells: Vec<(&str, Vec<&str>)> = Vec::new();
    for file in
        ["ccsd.tce", "ccsd_tiny.tce", "fig1.tce", "ladder.tce", "repeated.tce", "transform.tce"]
    {
        for procs in ["4", "16", "64"] {
            cells.push((file, vec!["--procs", procs]));
        }
    }
    cells.push((
        "ccsd_tiny.tce",
        vec!["--procs", "64", "--replication", "--unrelated-rotation", "--mem-gb", "0.0001"],
    ));
    cells.push(("ccsd.tce", vec!["--procs", "64", "--mem-gb", "0.5"]));
    let mut rendered = String::new();
    for (file, flags) in cells {
        let path = format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tce"))
            .arg("optimize")
            .arg(&path)
            .args(&flags)
            .args(["--threads", "1", "--no-plan-cache"])
            .output()
            .expect("run tce");
        rendered.push_str(&format!("== {file} {}\n", flags.join(" ")));
        rendered.push_str(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
        if !out.status.success() {
            let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
            let code = out.status.code().unwrap_or(-1);
            rendered.push_str(&format!("exit {code}: {}\n", stderr.trim_end()));
        }
    }
    let golden =
        std::fs::read_to_string("golden/optimize_text.txt").expect("golden/optimize_text.txt");
    assert!(
        rendered == golden,
        "optimize text output diverged from golden/optimize_text.txt.\n--- regenerated ---\n{rendered}\n--- golden ---\n{golden}"
    );
}

/// The stdout of `tce simulate <w> --procs P --threads 1 --stats` on
/// `ccsd_tiny` at 4 and 16 processors and on `repeated` at 4. The printed
/// max |error| depends on the per-element summation order of the block
/// kernels; `repeated` has the largest error (6.985e-9) and so pins that
/// order where it is most fragile. Its result is large (the error is
/// ~1e-15 relative), so it passes the magnitude-scaled verdict and exits 0.
#[test]
fn simulator_output_is_pinned() {
    let cells: [(&str, u32, i32); 3] =
        [("ccsd_tiny.tce", 4, 0), ("ccsd_tiny.tce", 16, 0), ("repeated.tce", 4, 0)];
    let mut rendered = String::new();
    for (file, procs, code) in cells {
        let path = format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tce"))
            .args(["simulate", &path, "--procs", &procs.to_string(), "--threads", "1", "--stats"])
            .output()
            .expect("run tce");
        assert_eq!(out.status.code(), Some(code), "{file} --procs {procs}");
        rendered.push_str(&format!("== {file} --procs {procs}\n"));
        rendered.push_str(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
    }
    let golden =
        std::fs::read_to_string("golden/simulate_stats.txt").expect("golden/simulate_stats.txt");
    assert!(
        rendered == golden,
        "simulator output diverged from golden/simulate_stats.txt.\n--- regenerated ---\n{rendered}\n--- golden ---\n{golden}"
    );
}
