//! One prepared search serves every pass of a request
//! (`portfolio::Search`, DESIGN.md §13): `Search::new` does the work that
//! depends only on the tree and the configuration, and `Search::run`
//! takes the pass and the warm bound. A pass must not see which passes ran
//! on the same search before it: on every shipped workload at 16
//! processors and on the enlarged `ccsd_tiny` cell, the key, exact and
//! explained passes, run on one search in either order, each equal a fresh
//! single-pass run with the same bound — plan JSON, cost bits, footprint,
//! certificate, lifted optimum, per-node statistics and every
//! deterministic counter. Level-1 subtree reuse (DESIGN.md §14) replays
//! the same frontiers under every pass: on `repeated`, each pass with it
//! on equals the pass with it off.

use tensor_contraction_opt::core::portfolio::{Pass, Search};
use tensor_contraction_opt::core::{extract_plan, OptimizeError, Optimized, OptimizerConfig};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::obs::names;
use tensor_contraction_opt::opmin::lower_program;

fn load(file: &str) -> ExprTree {
    let path = format!("{}/workloads/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("readable workload");
    lower_program(&parse(&src).unwrap_or_else(|e| panic!("{file}: {e}")))
        .unwrap_or_else(|e| panic!("{file}: {e}"))
        .to_tree()
        .unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// Every plan-class and effort-class value of a pass's outcome, rendered
/// so two outcomes compare with one `assert_eq!`.
fn fingerprint(tree: &ExprTree, run: &Result<Optimized, OptimizeError>) -> String {
    let opt = match run {
        Ok(opt) => opt,
        Err(e) => return format!("error: {e}"),
    };
    let counters: Vec<(&str, u64)> =
        opt.counters.iter().filter(|&(name, _)| names::is_deterministic(name)).collect();
    format!(
        "cost {:x} mem {} msg {} floor {:x} exact {} lifted {:?} arena {}\n\
         counters {counters:?}\nstats {:?}\nplan {}",
        opt.comm_cost.to_bits(),
        opt.mem_words,
        opt.max_msg_words,
        opt.comm_lower_bound.to_bits(),
        opt.comm_floor_exact,
        opt.lifted.map(|l| (l.comm_cost.to_bits(), l.footprint_words)),
        opt.arena_hw_bytes,
        opt.stats,
        extract_plan(tree, opt).to_json(),
    )
}

fn check_cell(label: &str, tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) {
    // The bounds a request uses: the key pass runs cold, the other two
    // passes under the key pass's cost.
    let fresh = |pass: Pass, bound: Option<f64>| {
        Search::new(tree, cm, cfg).and_then(|s| s.run(pass, bound))
    };
    let bound = fresh(Pass::Key, None).ok().map(|o| o.comm_cost);
    let passes = [(Pass::Key, None), (Pass::Exact, bound), (Pass::Explained, bound)];
    let want: Vec<String> =
        passes.iter().map(|&(pass, bound)| fingerprint(tree, &fresh(pass, bound))).collect();

    for order in [[0, 1, 2], [2, 1, 0]] {
        let search = Search::new(tree, cm, cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        for i in order {
            let (pass, bound) = passes[i];
            let got = fingerprint(tree, &search.run(pass, bound));
            assert_eq!(got, want[i], "{label}: {pass:?} after order {order:?}");
        }
    }
}

#[test]
fn passes_on_one_search_equal_fresh_single_pass_runs() {
    let cfg = OptimizerConfig { threads: 1, ..Default::default() };
    let cm16 = CostModel::for_square(MachineModel::itanium_cluster(), 16).expect("16 is square");
    for file in
        ["ccsd.tce", "ccsd_tiny.tce", "fig1.tce", "ladder.tce", "repeated.tce", "transform.tce"]
    {
        check_cell(&format!("{file} @ 16"), &load(file), &cm16, &cfg);
    }

    // The enlarged cell: replication, unrelated rotation, `--mem-gb 0.0001`.
    let mut machine = MachineModel::itanium_cluster();
    machine.mem_per_node_bytes = (0.0001 * 1024.0 * PAPER_MB) as u64;
    let cm64 = CostModel::for_square(machine, 64).expect("64 is square");
    let enlarged = OptimizerConfig {
        allow_replication: true,
        allow_unrelated_rotation: true,
        threads: 1,
        ..Default::default()
    };
    check_cell("enlarged ccsd_tiny @ 64", &load("ccsd_tiny.tce"), &cm64, &enlarged);
}

/// Every pass replays `repeated`'s isomorphic subtrees (the key pass cold,
/// the exact and explained passes under the key pass's bound, so with
/// warm cuts) and equals the same pass with reuse off, in the default and
/// the enlarged space.
#[test]
fn subtree_reuse_replays_under_every_pass() {
    let tree = load("repeated.tce");
    let cell = |procs: u32, enlarged: bool| {
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs).expect("square");
        let cfg = OptimizerConfig {
            allow_replication: enlarged,
            allow_unrelated_rotation: enlarged,
            threads: 1,
            ..Default::default()
        };
        (cm, cfg)
    };
    for (procs, enlarged) in [(4, false), (16, false), (64, false), (64, true)] {
        let (cm, on) = cell(procs, enlarged);
        let off = OptimizerConfig { disable_subtree_reuse: true, ..on.clone() };
        let label = format!("repeated @ {procs}{}", if enlarged { " enlarged" } else { "" });
        let (with, without) = (Search::new(&tree, &cm, &on), Search::new(&tree, &cm, &off));
        let (with, without) = (with.expect("prepares"), without.expect("prepares"));
        let bound = with.run(Pass::Key, None).ok().map(|o| o.comm_cost);
        for (pass, bound) in [(Pass::Key, None), (Pass::Exact, bound), (Pass::Explained, bound)] {
            let run = with.run(pass, bound);
            let opt = run.as_ref().unwrap_or_else(|e| panic!("{label}: {pass:?}: {e}"));
            let hits =
                (opt.counters.get(names::SUBTREE_HIT), opt.counters.get(names::SUBTREE_MISS));
            assert_eq!(hits, (6, 5), "{label}: {pass:?} hits and misses");
            let reference = fingerprint(&tree, &without.run(pass, bound));
            assert_eq!(fingerprint(&tree, &run), reference, "{label}: {pass:?}");
        }
    }
}
