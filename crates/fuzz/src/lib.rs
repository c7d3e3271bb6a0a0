//! `tce-fuzz`: differential fuzzing of the whole pipeline.
//!
//! Each seed generates a random general expression tree
//! ([`tce_bench::randtree::random_tree`]) and runs the full
//! cross-validation loop over it:
//!
//! 1. **Pruning equivalence** — dominance pruning on/off must agree on
//!    the optimal communication cost to the bit.
//! 2. **Static checks** — every `tce-check` pass must hold on the winning
//!    plan, at the machine memory limit and under a tightened limit.
//! 3. **Numeric execution** — `tce-sim` executes the plan on the virtual
//!    cluster and the result must match the sequential einsum reference
//!    element-wise.
//! 4. **Ledger reconciliation** — the simulator's measured communication
//!    events (bytes, messages, seconds, per kind) must reproduce the
//!    plan's cost ledger: exact for redistribution and reduction (the
//!    simulator charges the plan's own numbers), within the
//!    characterization interpolation tolerance for rotations. Plus an
//!    **exhaustive cross-check**: on small proper contraction trees, the
//!    DP optimum must equal `exhaustive_min`, and both must agree on
//!    feasibility under tight limits.
//! 5. **Frontier equivalence** — the Pareto-staircase search with its
//!    branch-and-bound corner skips against the same search under
//!    `disable_lower_bounds: true`: optimum, winner index, plan JSON,
//!    every per-node live set entry by entry (cost bits included), and
//!    every deterministic counter ([`tce_obs::names::is_deterministic`])
//!    must agree.
//! 6. **Scheduler equivalence** — the work-stealing enumeration (spawning
//!    forced via `spawn_amort_ns: Some(0)` so every node actually splits)
//!    at every configured thread count above 1 against the serial run:
//!    the same fields as the frontier oracle, every deterministic counter
//!    included. This is the thread-count determinism contract: without
//!    forced spawning the fuzzer's small trees keep every node inline.
//! 7. **Lower-bound admissibility** — the certified communication floor
//!    (`tce_cost::lower_bound`, DESIGN.md §12) never exceeds the DP
//!    optimum, and the memory-footprint floor never exceeds the winning
//!    plan's actual per-processor footprint.
//! 8. **Warm start** — warm-starting the exact branch-and-bound from the
//!    key pass (`tce_core::portfolio::plan`) leaves the plan, cost bits,
//!    footprint and certified floor of the cold `optimize` run
//!    bit-identical, at the machine limit and at the tightened
//!    `(mem+msg)·3/4` limit, where both must also agree on feasibility
//!    (only effort output — counters, frontier shape — may move). The key
//!    pass's own plan must pass every static check and cost at least the
//!    cold optimum; runs where it finds no plan but the exact search does
//!    are counted (they only leave the exact search cold).
//! 9. **Canonicalization & plan cache** — turning level-1 subtree reuse
//!    off must leave the search bit-identical (the frontier oracle's
//!    fields); re-rendering the tree with reversed declarations
//!    (renumbering every index and node id) and hash-seeded commutative
//!    operand swaps must hash to the same canonical key and optimize to
//!    the same optimal cost; and a store/lookup round-trip through an
//!    on-disk plan cache must return the identical plan, cost scalars,
//!    deterministic counters ([`tce_obs::names::is_deterministic`]), and
//!    per-node statistics — including when looked up through the renamed
//!    isomorph.
//! 10. **Explained search** — the search behind text `tce optimize`
//!     (`tce_core::portfolio::plan_explained`), which checks the memory
//!     limit only at root selection, must return the cold `optimize`
//!     run's plan JSON and cost bits and, as its lifted optimum, the cost
//!     bits and footprint of a cold run with the limit lifted, at the
//!     machine limit and at `(mem+msg)·3/4`, where both must also agree on
//!     feasibility.
//!
//! On failure, [`shrink::shrink_tree`] minimizes the tree (drop subtrees,
//! re-root, shrink extents) while the failure reproduces, and the
//! minimized case is pinned as a plain `.tce` workload under
//! `golden/fuzz_corpus/` for regression testing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod ledger;
pub mod shrink;

use std::collections::HashMap;

use tce_bench::randtree::{random_tree, TreeParams};
use tce_core::exhaustive::exhaustive_min;
use tce_core::{extract_plan, optimize, OptimizeError, OptimizerConfig};
use tce_cost::CostModel;
use tce_expr::ExprTree;
use tce_sim::simulate_traced;

/// Configuration of the differential loop.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Square processor counts to optimize and simulate at.
    pub procs: Vec<u32>,
    /// Worker-thread counts: the `scheduler` oracle runs every one above
    /// 1 (at least 2) against the serial run.
    pub threads: Vec<usize>,
    /// Fusion-prefix cap for the search (kept small so the exhaustive
    /// oracle stays tractable and configurations match).
    pub max_prefix_len: usize,
    /// RNG seed for the simulator's input data.
    pub data_seed: u64,
    /// Run the exhaustive oracle on proper contraction trees with at most
    /// this many internal nodes.
    pub exhaustive_max_internal: usize,
    /// Run the pruning on/off oracle only on trees with at most this many
    /// internal nodes (the unpruned search is exponential).
    pub pruning_max_internal: usize,
    /// Random-tree generation parameters.
    pub tree_params: TreeParams,
    /// Relative tolerance for rotation-cost reconciliation (the optimizer
    /// prices rotations through the interpolated characterization; the
    /// simulator charges the raw machine model).
    pub tol_rel: f64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            procs: vec![4, 16],
            threads: vec![1, 2, 4],
            max_prefix_len: 2,
            data_seed: 42,
            exhaustive_max_internal: 3,
            pruning_max_internal: 5,
            tree_params: TreeParams::default(),
            tol_rel: 0.02,
        }
    }
}

/// One oracle violation.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which oracle tripped (`pruning`, `frontier`, `scheduler`,
    /// `lower_bound`, `warm_start`, `explained`, `check`, `numeric`,
    /// `ledger`, `exhaustive`, `optimize`, `simulate`, `cache`).
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn fail(oracle: &'static str, detail: impl Into<String>) -> Failure {
    Failure { oracle, detail: detail.into() }
}

/// Per-tree statistics of what the loop exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeStats {
    /// Optimizer configurations run.
    pub optimizations: usize,
    /// Plans executed on the virtual cluster.
    pub simulations: usize,
    /// Whether the exhaustive oracle applied.
    pub exhaustive: bool,
    /// Feasible runs the warm-start oracle checked.
    pub key_pass_runs: usize,
    /// Of those, runs where the key pass found no plan that fits (they
    /// only leave the exact search cold).
    pub key_pass_misses: usize,
}

fn base_config(cfg: &FuzzConfig) -> OptimizerConfig {
    OptimizerConfig { max_prefix_len: cfg.max_prefix_len, threads: 1, ..OptimizerConfig::default() }
}

/// Run one optimizer configuration and cross-validate the winning plan:
/// static checks, numeric execution, ledger reconciliation.
fn validate_plan_deeply(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &FuzzConfig,
    opt: &tce_core::Optimized,
    limit_words: u128,
    label: &str,
    stats: &mut TreeStats,
) -> Result<(), Failure> {
    validate_plan_inner(tree, cm, cfg, opt, limit_words, stats)
        .map_err(|f| fail(f.oracle, format!("[{label}] {}", f.detail)))
}

fn validate_plan_inner(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &FuzzConfig,
    opt: &tce_core::Optimized,
    limit_words: u128,
    stats: &mut TreeStats,
) -> Result<(), Failure> {
    let plan = extract_plan(tree, opt);

    // Plan totals must be self-consistent: the step ledger is the plan
    // total, and the optimizer's headline adds only the output
    // redistribution on top.
    let ledger_sum = plan.sum_step_comm();
    if !approx_eq(ledger_sum, plan.comm_cost, 1e-9) {
        return Err(fail(
            "ledger",
            format!(
                "plan step ledger sums to {ledger_sum} but plan.comm_cost is {}",
                plan.comm_cost
            ),
        ));
    }
    if !approx_eq(plan.comm_cost + opt.output_redist_cost, opt.comm_cost, 1e-9) {
        return Err(fail(
            "ledger",
            format!(
                "plan.comm_cost {} + output redistribution {} != optimizer total {}",
                plan.comm_cost, opt.output_redist_cost, opt.comm_cost
            ),
        ));
    }

    // Footprint must respect the limit the optimizer was given.
    if opt.mem_words + opt.max_msg_words > limit_words {
        return Err(fail(
            "check",
            format!(
                "optimizer accepted footprint {} + {} words over the limit {limit_words}",
                opt.mem_words, opt.max_msg_words
            ),
        ));
    }

    // All seven static passes.
    let report = tce_check::check_plan(tree, &plan, Some(cm), Some(limit_words));
    if !report.is_clean() {
        return Err(fail("check", report.render_human()));
    }

    // Execute on the virtual cluster and verify numerically.
    let (sim, events) = simulate_traced(tree, &plan, cm, cfg.data_seed, true)
        .map_err(|e| fail("simulate", e.to_string()))?;
    stats.simulations += 1;
    if sim.max_abs_err > tce_sim::VERIFY_ABS_TOL {
        return Err(fail(
            "numeric",
            format!("max |simulated − reference| = {:.3e}", sim.max_abs_err),
        ));
    }

    // Reconcile the measured communication against the plan's ledger.
    ledger::reconcile(tree, &plan, cm, &sim.metrics, &events, cfg.tol_rel)
}

/// Whether two runs of the search on `tree` agree bit for bit: optimum,
/// certificate, winner index, plan JSON, every per-node frontier (storage
/// size, live indices, and the cost/mem/msg bits of each live entry), and
/// every deterministic counter ([`tce_obs::names::is_deterministic`]).
/// `Err` describes the first difference, `alt` on the right.
fn same_search(
    tree: &ExprTree,
    base: &tce_core::Optimized,
    alt: &tce_core::Optimized,
) -> Result<(), String> {
    if alt.comm_cost.to_bits() != base.comm_cost.to_bits()
        || alt.comm_lower_bound.to_bits() != base.comm_lower_bound.to_bits()
        || alt.mem_words != base.mem_words
        || alt.max_msg_words != base.max_msg_words
        || alt.best_index != base.best_index
    {
        return Err(format!(
            "cost {} vs {}, floor {} vs {}, mem {} vs {}, best {} vs {}",
            base.comm_cost,
            alt.comm_cost,
            base.comm_lower_bound,
            alt.comm_lower_bound,
            base.mem_words,
            alt.mem_words,
            base.best_index,
            alt.best_index
        ));
    }
    if extract_plan(tree, base).to_json() != extract_plan(tree, alt).to_json() {
        return Err("plans differ".into());
    }
    for (node, set) in &base.sets {
        let other = alt.sets.get(node).ok_or_else(|| format!("node {node:?} missing"))?;
        let a: Vec<usize> = set.live_indices().collect();
        let b: Vec<usize> = other.live_indices().collect();
        if a != b || set.len() != other.len() {
            return Err(format!(
                "node {node:?}: live frontier differs ({} vs {} live, {} vs {} stored)",
                a.len(),
                b.len(),
                set.len(),
                other.len()
            ));
        }
        for i in a {
            if set.cost(i).to_bits() != other.cost(i).to_bits()
                || set.mem(i) != other.mem(i)
                || set.msg(i) != other.msg(i)
            {
                return Err(format!("node {node:?} sol {i}: entries differ"));
            }
        }
    }
    for (counter, v) in base.counters.iter() {
        if !tce_obs::names::is_deterministic(counter) {
            continue;
        }
        if v != alt.counters.get(counter) {
            return Err(format!("counter {counter} {v} vs {}", alt.counters.get(counter)));
        }
    }
    Ok(())
}

/// The `warm_start` oracle: the key-pass warm start of [`tce_core::portfolio::plan`]
/// against the cold [`optimize`] run `cold` of the same configuration. The
/// warm cut only removes candidates that cannot beat a real plan's cost,
/// so both must reach the same verdict and, on success, the same plan
/// JSON, cost bits, footprint and certified floor. The key pass's plan is
/// that real plan: it must pass every static check at the run's limit and
/// cost at least the optimum. A key pass that finds nothing on a feasible
/// run is counted in `stats`.
fn warm_matches_cold(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    cold: Result<&tce_core::Optimized, &OptimizeError>,
    stats: &mut TreeStats,
) -> Result<(), String> {
    let warm = tce_core::portfolio::plan(tree, cm, cfg).map(|p| p.opt);
    let (cold, warm) = match (cold, &warm) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(c), Err(w)) if c == w => return Ok(()),
        (c, w) => {
            return Err(format!("verdicts differ: cold {:?}, warm {:?}", c.err(), w.as_ref().err()))
        }
    };
    if warm.comm_cost.to_bits() != cold.comm_cost.to_bits()
        || warm.mem_words != cold.mem_words
        || warm.max_msg_words != cold.max_msg_words
        || warm.comm_lower_bound.to_bits() != cold.comm_lower_bound.to_bits()
    {
        return Err(format!(
            "warm-started run moved: cost {} vs {}, mem {} vs {}, msg {} vs {}, floor {} vs {}",
            warm.comm_cost,
            cold.comm_cost,
            warm.mem_words,
            cold.mem_words,
            warm.max_msg_words,
            cold.max_msg_words,
            warm.comm_lower_bound,
            cold.comm_lower_bound
        ));
    }
    if extract_plan(tree, warm).to_json() != extract_plan(tree, cold).to_json() {
        return Err("warm-started plan differs from cold".into());
    }
    stats.key_pass_runs += 1;
    stats.optimizations += 1;
    match tce_core::portfolio::key_pass(tree, cm, cfg) {
        Ok(key) => {
            if key.comm_cost < cold.comm_cost {
                return Err(format!(
                    "key pass {} undercuts the optimum {}",
                    key.comm_cost, cold.comm_cost
                ));
            }
            let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
            tce_check::check_plan(tree, &extract_plan(tree, &key), Some(cm), Some(limit))
                .to_result()
                .map_err(|e| format!("key-pass plan fails checks: {e}"))?;
        }
        Err(OptimizeError::NoFeasibleSolution { .. }) => stats.key_pass_misses += 1,
        Err(e) => return Err(format!("key pass failed on a feasible run: {e}")),
    }
    Ok(())
}

/// The `explained` oracle: the explained search of
/// [`tce_core::portfolio::plan_explained`] against the cold [`optimize`]
/// run `cold` of the same configuration and the cold run `lifted` with
/// the memory limit lifted. Its nodes also keep the candidates over the
/// limit, but a dominator of a fitting entry fits too, so the verdict, the
/// plan JSON, the cost bits and the footprint must be `cold`'s, and the
/// lifted optimum's cost bits and footprint `lifted`'s.
fn explained_matches_cold(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    cold: Result<&tce_core::Optimized, &OptimizeError>,
    lifted: &tce_core::Optimized,
) -> Result<(), String> {
    let run = tce_core::portfolio::plan_explained(tree, cm, cfg).map(|p| p.opt);
    let (cold, run) = match (cold, &run) {
        (Ok(c), Ok(r)) => (c, r),
        (Err(c), Err(r)) if c == r => return Ok(()),
        (c, r) => {
            return Err(format!(
                "verdicts differ: cold {:?}, explained {:?}",
                c.err(),
                r.as_ref().err()
            ))
        }
    };
    if run.comm_cost.to_bits() != cold.comm_cost.to_bits()
        || run.mem_words != cold.mem_words
        || run.max_msg_words != cold.max_msg_words
    {
        return Err(format!(
            "constrained answer moved: cost {} vs {}, mem {} vs {}, msg {} vs {}",
            run.comm_cost,
            cold.comm_cost,
            run.mem_words,
            cold.mem_words,
            run.max_msg_words,
            cold.max_msg_words
        ));
    }
    if extract_plan(tree, run).to_json() != extract_plan(tree, cold).to_json() {
        return Err("explained plan differs from cold".into());
    }
    let want = (lifted.comm_cost, lifted.mem_words + lifted.max_msg_words);
    match run.lifted {
        Some(got)
            if (got.comm_cost.to_bits(), got.footprint_words) == (want.0.to_bits(), want.1) =>
        {
            Ok(())
        }
        got => Err(format!("lifted optimum {got:?}, cold lifted-limit run {want:?}")),
    }
}

/// Run the full differential loop on one tree. `Ok` carries coverage
/// statistics; `Err` is the first oracle violation found.
pub fn check_tree(tree: &ExprTree, cfg: &FuzzConfig) -> Result<TreeStats, Failure> {
    let mut stats = TreeStats::default();
    let internal = tree.postorder().into_iter().filter(|&n| !tree.node(n).is_leaf()).count();
    for &procs in &cfg.procs {
        let cm = tce_bench::paper_cost_model(procs);
        let machine_limit = cm.mem_limit_words();

        // Reference run (1 thread, pruning on, machine memory limit).
        let base_cfg = base_config(cfg);
        let base = optimize(tree, &cm, &base_cfg)
            .map_err(|e| fail("optimize", format!("p={procs}: {e:?}")))?;
        stats.optimizations += 1;
        let base_plan = extract_plan(tree, &base);
        let base_json = base_plan.to_json();

        // The `lower_bound` oracle: the static lower bounds are admissible. The certified
        // communication floor never exceeds the DP optimum (it lower-bounds
        // every plan the search can emit), and the memory-footprint floor
        // never exceeds the winner's actual footprint.
        {
            let lb = base.comm_lower_bound;
            if lb > base.comm_cost && !approx_eq(lb, base.comm_cost, 1e-9) {
                return Err(fail(
                    "lower_bound",
                    format!("p={procs}: certified floor {lb} > DP optimum {}", base.comm_cost),
                ));
            }
            let mem_floor =
                tce_cost::lower_bound::mem_floor_words(tree, &cm, base_cfg.max_prefix_len);
            if mem_floor > base.mem_words {
                return Err(fail(
                    "lower_bound",
                    format!(
                        "p={procs}: memory floor {mem_floor} > winner footprint {}",
                        base.mem_words
                    ),
                ));
            }
        }

        // The `pruning` oracle: pruning on/off agree on the optimal cost to the bit.
        // Size-gated — the unpruned search keeps every candidate and goes
        // exponential on larger trees.
        if internal <= cfg.pruning_max_internal {
            let unpruned =
                optimize(tree, &cm, &OptimizerConfig { disable_pruning: true, ..base_config(cfg) })
                    .map_err(|e| fail("pruning", format!("p={procs}: {e:?}")))?;
            stats.optimizations += 1;
            if unpruned.comm_cost.to_bits() != base.comm_cost.to_bits() {
                return Err(fail(
                    "pruning",
                    format!(
                        "p={procs}: pruned cost {} != unpruned cost {}",
                        base.comm_cost, unpruned.comm_cost
                    ),
                ));
            }
        }

        // The `frontier` oracle: the Pareto-staircase search with its branch-and-bound
        // corner skips against the same search with lower bounds off. The
        // skips may only avoid work, never change an outcome: plans,
        // costs, the certificate, per-node live frontiers, and every
        // deterministic counter must be bit-identical.
        {
            let unbounded = optimize(
                tree,
                &cm,
                &OptimizerConfig { disable_lower_bounds: true, ..base_config(cfg) },
            )
            .map_err(|e| fail("frontier", format!("p={procs}: {e:?}")))?;
            stats.optimizations += 1;
            same_search(tree, &base, &unbounded)
                .map_err(|d| fail("frontier", format!("p={procs}: bounds off: {d}")))?;
        }

        // The `scheduler` oracle: the work-stealing merge against the
        // serial run it must reproduce, at every configured thread count
        // above 1 (at least 2). Spawning is forced (`spawn_amort_ns:
        // Some(0)` defeats the adaptive threshold, which would otherwise
        // keep these small nodes inline and compare serial runs with serial
        // runs), so claim interleaving and steal traffic are real.
        let mut thread_counts: Vec<usize> =
            cfg.threads.iter().copied().filter(|&t| t > 1).collect();
        if thread_counts.is_empty() {
            thread_counts.push(2);
        }
        for t in thread_counts {
            let steal = optimize(
                tree,
                &cm,
                &OptimizerConfig { threads: t, spawn_amort_ns: Some(0), ..base_config(cfg) },
            )
            .map_err(|e| fail("scheduler", format!("p={procs} t={t}: {e:?}")))?;
            stats.optimizations += 1;
            same_search(tree, &base, &steal)
                .map_err(|d| fail("scheduler", format!("p={procs} t={t}: stealing: {d}")))?;
        }

        // The `warm_start` oracle: the key-pass warm start of `portfolio::plan` against
        // the cold reference run (again at the tight limit below).
        warm_matches_cold(tree, &cm, &base_cfg, Ok(&base), &mut stats)
            .map_err(|d| fail("warm_start", format!("p={procs}: {d}")))?;
        stats.optimizations += 2;

        // The `explained` oracle: the explained search against the cold reference run
        // and the cold lifted-limit run (again at the tight limit below).
        let lifted = optimize(
            tree,
            &cm,
            &OptimizerConfig { mem_limit_words: Some(u128::MAX), ..base_config(cfg) },
        )
        .map_err(|e| fail("explained", format!("p={procs} lifted: {e:?}")))?;
        explained_matches_cold(tree, &cm, &base_cfg, Ok(&base), &lifted)
            .map_err(|d| fail("explained", format!("p={procs}: {d}")))?;
        stats.optimizations += 3;

        // The `cache` oracle: canonicalization and the two-level plan cache.
        //
        // (a) L1 differential: turning in-run isomorphic-subtree reuse off
        //     must leave the exact search bit-identical ([`same_search`]:
        //     every per-node frontier and deterministic counter included) —
        //     reuse may only splice in frontiers that the disabled run
        //     recomputes from scratch, never change them.
        // (b) Disk round-trip: store the reference run, look it up again,
        //     and require the identical plan, cost scalars, deterministic
        //     counters ([`tce_obs::names::is_deterministic`]), and
        //     per-node statistics back.
        // (c) Rename/commute invariance: re-render the tree with reversed
        //     declarations (renumbering every index and node id on
        //     re-parse) and hash-seeded commutative operand swaps; the
        //     variant must produce the same canonical hash, the same cache
        //     file name, the same optimal cost (to tolerance — swapped
        //     operands reorder the float accumulation), and a warm hit
        //     against the entry the original stored. The *plan* of a fresh
        //     search on a commuted variant may legitimately be the
        //     mirror image (equal cost, operands enumerated in declared
        //     order), so plan equality is only asserted for the cache hit,
        //     whose scalars are stored verbatim.
        {
            let noreuse = optimize(
                tree,
                &cm,
                &OptimizerConfig { disable_subtree_reuse: true, ..base_config(cfg) },
            )
            .map_err(|e| fail("cache", format!("p={procs} noreuse: {e:?}")))?;
            stats.optimizations += 1;
            same_search(tree, &noreuse, &base).map_err(|d| {
                fail("cache", format!("p={procs}: subtree reuse changed the search: {d}"))
            })?;

            let form = tce_expr::canonical_form(tree);
            if let Some(key) = tce_core::cache_key(tree, &cm, &base_cfg) {
                let dir = std::env::temp_dir().join(format!(
                    "tce-fuzz-cache-{}-{procs}-{:032x}",
                    std::process::id(),
                    form.hash
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let cache = tce_core::PlanCache::at(&dir);
                let outcome = (|| {
                    cache
                        .store(tree, &key, &base_plan, &base)
                        .map_err(|e| fail("cache", format!("p={procs} store: {e}")))?;
                    let hit = cache.lookup(tree, &cm, &key);
                    let Some(run) = hit.run else {
                        return Err(fail(
                            "cache",
                            format!(
                                "p={procs}: lookup missed its own store (evicted: {:?})",
                                hit.evicted
                            ),
                        ));
                    };
                    if run.plan.to_json() != base_json {
                        return Err(fail("cache", format!("p={procs}: round-trip plan differs")));
                    }
                    if run.opt.comm_cost.to_bits() != base.comm_cost.to_bits()
                        || run.opt.mem_words != base.mem_words
                        || run.opt.max_msg_words != base.max_msg_words
                        || run.opt.output_redist_cost.to_bits() != base.output_redist_cost.to_bits()
                        || run.opt.comm_lower_bound.to_bits() != base.comm_lower_bound.to_bits()
                    {
                        return Err(fail("cache", format!("p={procs}: round-trip scalars differ")));
                    }
                    for (counter, v) in base.counters.iter() {
                        if !tce_obs::names::is_deterministic(counter) {
                            continue; // cache-state-dependent by design
                        }
                        if v != run.opt.counters.get(counter) {
                            return Err(fail(
                                "cache",
                                format!(
                                    "p={procs}: round-trip counter {counter} {} vs {v}",
                                    run.opt.counters.get(counter)
                                ),
                            ));
                        }
                    }
                    if format!("{:?}", run.opt.stats) != format!("{:?}", base.stats) {
                        return Err(fail(
                            "cache",
                            format!("p={procs}: round-trip per-node statistics differ"),
                        ));
                    }

                    // (c) The renamed/commuted isomorph.
                    if let Some(src) = render_renamed_variant(tree, form.hash) {
                        let tree2 = tce_expr::parse(&src)
                            .map_err(|e| fail("cache", format!("p={procs}: variant parse: {e}")))?
                            .to_sequence()
                            .map_err(|e| {
                                fail("cache", format!("p={procs}: variant sequence: {e}"))
                            })?
                            .to_tree()
                            .map_err(|e| fail("cache", format!("p={procs}: variant tree: {e}")))?;
                        let form2 = tce_expr::canonical_form(&tree2);
                        if form2.hash != form.hash {
                            return Err(fail(
                                "cache",
                                format!(
                                    "p={procs}: canonical hash not rename-invariant: {:032x} vs {:032x}",
                                    form.hash, form2.hash
                                ),
                            ));
                        }
                        let alt = optimize(&tree2, &cm, &base_cfg)
                            .map_err(|e| fail("cache", format!("p={procs} variant: {e:?}")))?;
                        stats.optimizations += 1;
                        // Operand swaps reorder the sequential cost
                        // accumulation, so the fresh optimum can move by an
                        // ulp — equal to tolerance, not to the bit (the
                        // *cache hit* below is still bit-exact: its scalars
                        // are stored verbatim).
                        if !approx_eq(alt.comm_cost, base.comm_cost, 1e-9) {
                            return Err(fail(
                                "cache",
                                format!(
                                    "p={procs}: variant optimum {} != original {}",
                                    alt.comm_cost, base.comm_cost
                                ),
                            ));
                        }
                        let key2 =
                            tce_core::cache_key(&tree2, &cm, &base_cfg).ok_or_else(|| {
                                fail("cache", format!("p={procs}: variant key missing"))
                            })?;
                        if key2.file_name() != key.file_name() {
                            return Err(fail(
                                "cache",
                                format!("p={procs}: variant maps to a different cache file"),
                            ));
                        }
                        let hit2 = cache.lookup(&tree2, &cm, &key2);
                        let Some(run2) = hit2.run else {
                            return Err(fail(
                                "cache",
                                format!(
                                    "p={procs}: variant lookup missed (evicted: {:?})",
                                    hit2.evicted
                                ),
                            ));
                        };
                        if run2.opt.comm_cost.to_bits() != base.comm_cost.to_bits()
                            || run2.opt.mem_words != base.mem_words
                            || run2.plan.comm_cost.to_bits() != base_plan.comm_cost.to_bits()
                        {
                            return Err(fail(
                                "cache",
                                format!("p={procs}: variant hit scalars differ"),
                            ));
                        }
                        tce_check::check_plan(&tree2, &run2.plan, Some(&cm), Some(machine_limit))
                            .to_result()
                            .map_err(|e| {
                                fail("cache", format!("p={procs}: remapped plan fails checks: {e}"))
                            })?;
                    }
                    Ok(())
                })();
                let _ = std::fs::remove_dir_all(&dir);
                outcome?;
            }
        }

        // The `check`, `numeric` and `ledger` oracles on the reference plan.
        validate_plan_deeply(
            tree,
            &cm,
            cfg,
            &base,
            machine_limit,
            &format!("p={procs} base"),
            &mut stats,
        )?;

        // Tight memory limit: three quarters of the free-run footprint.
        let free_footprint = base.mem_words + base.max_msg_words;
        let tight = free_footprint * 3 / 4;
        let tight_result = if tight > 0 {
            let tight_cfg = OptimizerConfig { mem_limit_words: Some(tight), ..base_config(cfg) };
            let r = optimize(tree, &cm, &tight_cfg);
            stats.optimizations += 1;
            warm_matches_cold(tree, &cm, &tight_cfg, r.as_ref(), &mut stats)
                .map_err(|d| fail("warm_start", format!("p={procs} tight={tight}: {d}")))?;
            explained_matches_cold(tree, &cm, &tight_cfg, r.as_ref(), &lifted)
                .map_err(|d| fail("explained", format!("p={procs} tight={tight}: {d}")))?;
            stats.optimizations += 4;
            match r {
                Ok(opt) => {
                    validate_plan_deeply(
                        tree,
                        &cm,
                        cfg,
                        &opt,
                        tight,
                        &format!("p={procs} tight"),
                        &mut stats,
                    )?;
                    Some(opt.comm_cost)
                }
                Err(OptimizeError::NoFeasibleSolution { .. }) => None,
                Err(e) => return Err(fail("optimize", format!("p={procs} tight={tight}: {e:?}"))),
            }
        } else {
            None
        };

        // Pinned-input run: fix the first input array's initial layout to a
        // deterministic non-trivial distribution, forcing leaf
        // redistributions into the plan (inputs normally start wherever the
        // optimizer likes, which hides that code path entirely).
        if let Some(pin) = leaf_pin(tree) {
            let r = optimize(
                tree,
                &cm,
                &OptimizerConfig { input_dists: pin.clone(), ..base_config(cfg) },
            );
            stats.optimizations += 1;
            match r {
                Ok(opt) => validate_plan_deeply(
                    tree,
                    &cm,
                    cfg,
                    &opt,
                    machine_limit,
                    &format!("p={procs} pinned"),
                    &mut stats,
                )?,
                Err(OptimizeError::NoFeasibleSolution { .. }) => {}
                Err(e) => return Err(fail("optimize", format!("p={procs} pinned: {e:?}"))),
            }
        }

        // The `exhaustive` oracle: agreement on small proper contraction
        // trees.
        if tree.is_contraction_tree() && internal <= cfg.exhaustive_max_internal {
            stats.exhaustive = true;
            let ex = exhaustive_min(tree, &cm, machine_limit, cfg.max_prefix_len, false, false);
            match ex {
                None => {
                    return Err(fail(
                        "exhaustive",
                        format!(
                            "p={procs}: DP found cost {} but exhaustive says infeasible",
                            base.comm_cost
                        ),
                    ))
                }
                Some(ex) => {
                    if !approx_eq(ex.comm_cost, base.comm_cost, 1e-9) {
                        return Err(fail(
                            "exhaustive",
                            format!(
                                "p={procs}: DP cost {} != exhaustive minimum {}",
                                base.comm_cost, ex.comm_cost
                            ),
                        ));
                    }
                }
            }
            if tight > 0 {
                let ex_tight = exhaustive_min(tree, &cm, tight, cfg.max_prefix_len, false, false);
                match (tight_result, ex_tight) {
                    (None, Some(ex)) => {
                        return Err(fail(
                            "exhaustive",
                            format!(
                                "p={procs} limit={tight}: DP infeasible, exhaustive finds {}",
                                ex.comm_cost
                            ),
                        ))
                    }
                    (Some(c), None) => {
                        return Err(fail(
                            "exhaustive",
                            format!("p={procs} limit={tight}: DP finds {c}, exhaustive infeasible"),
                        ))
                    }
                    (Some(c), Some(ex)) if !approx_eq(c, ex.comm_cost, 1e-9) => {
                        return Err(fail(
                            "exhaustive",
                            format!(
                                "p={procs} limit={tight}: DP cost {c} != exhaustive {}",
                                ex.comm_cost
                            ),
                        ))
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(stats)
}

/// Re-render `tree` as `.tce` source with every declaration order reversed
/// — re-parsing renumbers all index and node ids — and the operands of the
/// `i`-th contraction (postorder) swapped when bit `i mod 128` of
/// `swap_mask` is set. The result is a syntactically different program for
/// the same expression, exercising the canonicalizer's rename-bijection
/// and commutativity claims. Returns `None` for trees the surface grammar
/// cannot spell (scalar tensors).
fn render_renamed_variant(tree: &ExprTree, swap_mask: u128) -> Option<String> {
    use tce_expr::{IndexId, NodeId, NodeKind};
    let post = tree.postorder();
    if post.iter().any(|&n| tree.node(n).tensor.dims.is_empty()) {
        return None;
    }
    let ranges: Vec<IndexId> = (0..tree.space.len() as u32).rev().map(IndexId).collect();
    let inputs: Vec<NodeId> =
        post.iter().rev().copied().filter(|&n| tree.node(n).is_leaf()).collect();
    let statements: Vec<NodeId> = post.into_iter().filter(|&n| !tree.node(n).is_leaf()).collect();
    let swapped: Vec<NodeId> = statements
        .iter()
        .copied()
        .filter(|&n| matches!(tree.node(n).kind, NodeKind::Contract { .. }))
        .enumerate()
        .filter(|&(i, _)| swap_mask >> (i % 128) & 1 == 1)
        .map(|(_, n)| n)
        .collect();
    Some(tce_expr::printer::render_tce(
        tree,
        &tce_expr::printer::TceLayout {
            ranges: &ranges,
            inputs: &inputs,
            statements: &statements,
            index_name: &|ix| format!("v{}", ix.as_usize()),
            array_name: &|n| format!("t{}", n.as_usize()),
            swapped: &|n| swapped.contains(&n),
        },
    ))
}

/// A deterministic initial-layout pin for the first input array (postorder)
/// with at least one dimension: both grid dimensions when the array has
/// two, one otherwise.
fn leaf_pin(tree: &ExprTree) -> Option<HashMap<String, tce_dist::Distribution>> {
    let leaf = tree
        .postorder()
        .into_iter()
        .find(|&n| tree.node(n).is_leaf() && !tree.node(n).tensor.dims.is_empty())?;
    let t = &tree.node(leaf).tensor;
    let dist = if t.dims.len() >= 2 {
        tce_dist::Distribution::pair(t.dims[0], t.dims[1])
    } else {
        tce_dist::Distribution::along_dim1(t.dims[0])
    };
    Some(HashMap::from([(t.name.clone(), dist)]))
}

/// Relative/absolute float agreement used by the exact oracles.
pub fn approx_eq(a: f64, b: f64, rel: f64) -> bool {
    let diff = (a - b).abs();
    diff <= 1e-12 || diff <= rel * a.abs().max(b.abs())
}

/// Result of a fuzzing campaign.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Seeds exercised.
    pub seeds_run: u64,
    /// Optimizer configurations run in total.
    pub optimizations: usize,
    /// Plans executed on the virtual cluster in total.
    pub simulations: usize,
    /// Trees covered by the exhaustive oracle.
    pub exhaustive_trees: usize,
    /// Feasible runs the warm-start oracle checked.
    pub key_pass_runs: usize,
    /// Of those, runs where the key pass found no plan that fits (they
    /// only leave the exact search cold).
    pub key_pass_misses: usize,
    /// Failures, with the seed, the minimized tree's `.tce` source, and
    /// the corpus path when one was written.
    pub failures: Vec<SeedFailure>,
}

/// A failing seed with its minimized reproducer.
#[derive(Debug)]
pub struct SeedFailure {
    /// The generator seed.
    pub seed: u64,
    /// The oracle violation (re-checked on the minimized tree).
    pub failure: Failure,
    /// Minimized reproducer as `.tce` source.
    pub source: String,
    /// Where the reproducer was pinned, when a corpus dir was given.
    pub path: Option<std::path::PathBuf>,
}

/// Fuzz a seed range. On failure, shrink the tree, pin a reproducer under
/// `corpus_dir` (when given), and continue with the next seed. `log` is
/// called with progress lines.
pub fn run_seeds(
    start: u64,
    count: u64,
    cfg: &FuzzConfig,
    corpus_dir: Option<&std::path::Path>,
    log: &mut dyn FnMut(&str),
) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for seed in start..start.saturating_add(count) {
        let tree = random_tree(seed, &cfg.tree_params);
        summary.seeds_run += 1;
        match check_tree(&tree, cfg) {
            Ok(stats) => {
                summary.optimizations += stats.optimizations;
                summary.simulations += stats.simulations;
                summary.exhaustive_trees += usize::from(stats.exhaustive);
                summary.key_pass_runs += stats.key_pass_runs;
                summary.key_pass_misses += stats.key_pass_misses;
                if seed.wrapping_sub(start) % 25 == 24 {
                    log(&format!(
                        "  … seed {seed}: {} seeds clean so far",
                        summary.seeds_run - summary.failures.len() as u64
                    ));
                }
            }
            Err(first) => {
                log(&format!("seed {seed}: FAILED {first}"));
                let (small, failure) = shrink::shrink_tree(&tree, cfg, &first);
                let source = tce_expr::printer::render_tce_source(&small);
                log(&format!("  minimized to {} nodes: {failure}", small.postorder().len()));
                let path = corpus_dir.map(|dir| {
                    let path = dir.join(format!("seed{seed}_{}.tce", failure.oracle));
                    let header = format!(
                        "# tce-fuzz reproducer — seed {seed}, oracle `{}`\n# {}\n",
                        failure.oracle,
                        failure.detail.replace('\n', " / ")
                    );
                    if let Err(e) = std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, format!("{header}{source}")))
                    {
                        log(&format!("  could not pin reproducer {}: {e}", path.display()));
                    } else {
                        log(&format!("  pinned {}", path.display()));
                    }
                    path
                });
                summary.failures.push(SeedFailure { seed, failure, source, path });
            }
        }
    }
    summary
}

/// Replay one `.tce` workload file (e.g. a pinned corpus entry) through
/// the full differential loop.
pub fn replay_file(path: &str, cfg: &FuzzConfig) -> Result<TreeStats, Failure> {
    let tree = tce_bench::workload_tree(path).map_err(|e| fail("optimize", e))?;
    check_tree(&tree, cfg)
}
