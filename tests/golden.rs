//! Golden-output regression tests: the regenerated paper tables are pinned
//! byte-for-byte. Any change to the cost model, the search, or the
//! rendering that shifts the reproduced numbers fails here first, with a
//! readable diff — update `golden/` only after re-validating against the
//! paper (EXPERIMENTS.md).

use tensor_contraction_opt::core::{
    build_report, extract_plan, optimize, render_report, render_search_stats, OptimizerConfig,
};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::examples::{ccsd_tree, PAPER_EXTENTS};
use tensor_contraction_opt::expr::parse;
use tensor_contraction_opt::opmin::lower_program;

fn report_for(procs: u32) -> String {
    let tree = ccsd_tree(PAPER_EXTENTS);
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs).unwrap();
    let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
    let plan = extract_plan(&tree, &opt);
    render_report(&build_report(&tree, &plan, &cm))
}

fn assert_matches_golden(rendered: &str, golden_path: &str) {
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("reading {golden_path}: {e}"));
    // The golden files are full binary outputs; the report must appear
    // verbatim inside them.
    assert!(
        golden.contains(rendered),
        "regenerated report diverged from {golden_path}.\n--- regenerated ---\n{rendered}\n--- golden ---\n{golden}"
    );
}

#[test]
fn table1_report_is_pinned() {
    assert_matches_golden(&report_for(64), "golden/table1.txt");
}

#[test]
fn table2_report_is_pinned() {
    assert_matches_golden(&report_for(16), "golden/table2.txt");
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

/// The stdout of `tce simulate <w> --procs P --threads 1 --stats` on
/// `ccsd_tiny` at 4 and 16 processors and on `repeated` at 4. The printed
/// max |error| depends on the per-element summation order of the block
/// kernels; `repeated` has the largest error (6.985e-9) and so pins that
/// order where it is most fragile. It also fails the absolute verification
/// bound, so it exits 1 while still printing its statistics.
#[test]
fn simulator_output_is_pinned() {
    let cells: [(&str, u32, i32); 3] =
        [("ccsd_tiny.tce", 4, 0), ("ccsd_tiny.tce", 16, 0), ("repeated.tce", 4, 1)];
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
