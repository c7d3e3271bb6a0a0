//! `tce-fuzz`: differential fuzzing of the whole pipeline.
//!
//! Each seed generates a random general expression tree
//! ([`tce_bench::randtree::random_tree`]) and runs the full
//! cross-validation loop over it:
//!
//! 1. **Thread equivalence** — the §3.3 DP at 1/2/4 worker threads must
//!    return bit-identical costs and plans (the PR 2 determinism
//!    contract).
//! 2. **Pruning equivalence** — dominance pruning on/off must agree on
//!    the optimal communication cost to the bit.
//! 3. **Static checks** — every `tce-check` pass must hold on the winning
//!    plan, at the machine memory limit and under a tightened limit.
//! 4. **Numeric execution** — `tce-sim` executes the plan on the virtual
//!    cluster and the result must match the sequential einsum reference
//!    element-wise.
//! 5. **Ledger reconciliation** — the simulator's measured communication
//!    events (bytes, messages, seconds, per kind) must reproduce the
//!    plan's cost ledger: exact for redistribution and reduction (the
//!    simulator charges the plan's own numbers), within the
//!    characterization interpolation tolerance for rotations. Plus an
//!    **exhaustive cross-check**: on small proper contraction trees, the
//!    DP optimum must equal `exhaustive_min`, and both must agree on
//!    feasibility under tight limits.
//! 6. **Frontier equivalence** — the Pareto-staircase search with its
//!    branch-and-bound corner skips against the same search under
//!    `disable_lower_bounds: true`: optimum, winner index, plan JSON,
//!    every per-node live set entry by entry (cost bits included), and
//!    every deterministic counter ([`tce_obs::names::is_deterministic`])
//!    except `lb.floor_fallback` must agree.
//! 7. **Scheduler equivalence** — the work-stealing enumeration (spawning
//!    forced via `spawn_amort_ns: Some(0)` so every node actually splits)
//!    at the highest configured thread count against the serial run: the
//!    same fields as the frontier oracle, every deterministic counter
//!    included.
//! 8. **Lower-bound admissibility** — the certified communication floor
//!    (`tce_cost::lower_bound`, DESIGN.md §12) never exceeds the DP
//!    optimum, and the memory-footprint floor never exceeds the winning
//!    plan's actual per-processor footprint.
//! 9. **Warm start** — warm-starting the exact branch-and-bound with the
//!    greedy incumbent (`tce_core::portfolio::plan` under a time budget)
//!    leaves the exact plan, cost, and footprint bit-identical (only
//!    `dp.bnb_*` effort counters and the frontier shape may move).
//! 10. **Canonicalization & plan cache** — re-rendering the tree with
//!     reversed declarations (renumbering every index and node id) and
//!     hash-seeded commutative operand swaps must hash to the same
//!     canonical key and optimize to the same optimal cost; and a
//!     store/lookup round-trip through an on-disk plan cache must return
//!     the identical plan, cost scalars, deterministic counters
//!     ([`tce_obs::names::is_deterministic`]), and per-node statistics —
//!     including when looked up through the renamed isomorph.
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
    /// Worker-thread counts that must all produce identical plans.
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
    /// Which oracle tripped (`threads`, `pruning`, `frontier`,
    /// `scheduler`, `lower_bound`, `warm_start`, `check`, `numeric`,
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
    if sim.max_abs_err > 1e-9 {
        return Err(fail(
            "numeric",
            format!("max |simulated − reference| = {:.3e}", sim.max_abs_err),
        ));
    }

    // Reconcile the measured communication against the plan's ledger.
    ledger::reconcile(tree, &plan, cm, &sim.metrics, &events, cfg.tol_rel)
}

/// Whether two runs of the search on `tree` agree bit for bit: optimum,
/// winner index, plan JSON, every per-node frontier (storage size, live
/// indices, and the cost/mem/msg bits of each live entry), and every
/// deterministic counter ([`tce_obs::names::is_deterministic`]) outside
/// `skip`.
/// `Err` describes the first difference, `alt` on the right.
fn same_search(
    tree: &ExprTree,
    base: &tce_core::Optimized,
    alt: &tce_core::Optimized,
    skip: &[&str],
) -> Result<(), String> {
    if alt.comm_cost.to_bits() != base.comm_cost.to_bits()
        || alt.mem_words != base.mem_words
        || alt.max_msg_words != base.max_msg_words
        || alt.best_index != base.best_index
    {
        return Err(format!(
            "cost {} vs {}, mem {} vs {}, best {} vs {}",
            base.comm_cost,
            alt.comm_cost,
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
        if !tce_obs::names::is_deterministic(counter) || skip.contains(&counter) {
            continue;
        }
        if v != alt.counters.get(counter) {
            return Err(format!("counter {counter} {v} vs {}", alt.counters.get(counter)));
        }
    }
    Ok(())
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

        // Oracle 8: the static lower bounds are admissible. The certified
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

        // Oracle 1: bit-identical results at every thread count.
        for &t in cfg.threads.iter().filter(|&&t| t != 1) {
            let alt = optimize(tree, &cm, &OptimizerConfig { threads: t, ..base_config(cfg) })
                .map_err(|e| fail("threads", format!("p={procs} t={t}: {e:?}")))?;
            stats.optimizations += 1;
            if alt.comm_cost.to_bits() != base.comm_cost.to_bits()
                || alt.mem_words != base.mem_words
                || alt.max_msg_words != base.max_msg_words
                || alt.best_index != base.best_index
            {
                return Err(fail(
                    "threads",
                    format!(
                        "p={procs} t={t}: cost {} vs {}, mem {} vs {}, best {} vs {}",
                        alt.comm_cost,
                        base.comm_cost,
                        alt.mem_words,
                        base.mem_words,
                        alt.best_index,
                        base.best_index
                    ),
                ));
            }
            let alt_json = extract_plan(tree, &alt).to_json();
            if alt_json != base_json {
                return Err(fail("threads", format!("p={procs} t={t}: plans differ")));
            }
        }

        // Oracle 2: pruning on/off agree on the optimal cost to the bit.
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

        // Oracle 6: the Pareto-staircase search with its branch-and-bound
        // corner skips against the same search with lower bounds off. The
        // skips may only avoid work, never change an outcome: plans,
        // costs, per-node live frontiers, and every deterministic counter
        // must be bit-identical. The floor-fallback count is excluded
        // because the bounds-off run never computes the floors it counts.
        {
            let unbounded = optimize(
                tree,
                &cm,
                &OptimizerConfig { disable_lower_bounds: true, ..base_config(cfg) },
            )
            .map_err(|e| fail("frontier", format!("p={procs}: {e:?}")))?;
            stats.optimizations += 1;
            same_search(tree, &base, &unbounded, &[tce_obs::names::LB_FLOOR_FALLBACK])
                .map_err(|d| fail("frontier", format!("p={procs}: bounds off: {d}")))?;
        }

        // Oracle 7: the work-stealing merge against the serial run it must
        // reproduce. Spawning is forced (`spawn_amort_ns: Some(0)` defeats
        // the adaptive threshold, which would otherwise keep these small
        // nodes inline) at the highest configured thread count, where claim
        // interleaving and steal traffic are maximal.
        {
            let t = cfg.threads.iter().copied().max().unwrap_or(1).max(2);
            let steal = optimize(
                tree,
                &cm,
                &OptimizerConfig { threads: t, spawn_amort_ns: Some(0), ..base_config(cfg) },
            )
            .map_err(|e| fail("scheduler", format!("p={procs} t={t}: {e:?}")))?;
            stats.optimizations += 1;
            same_search(tree, &base, &steal, &[])
                .map_err(|d| fail("scheduler", format!("p={procs} t={t}: stealing: {d}")))?;
        }

        // Oracle 9: the greedy warm start. A time budget makes `plan` price
        // one greedy configuration first and hand its cost to the exact
        // branch-and-bound as a warm upper bound; warm skips only remove
        // candidates that cannot beat a real plan's cost, so the plan,
        // cost bits, and footprint must match the cold run exactly.
        {
            let warm = tce_core::portfolio::plan(
                tree,
                &cm,
                &OptimizerConfig { time_budget_ms: Some(100), ..base_config(cfg) },
            )
            .map_err(|e| fail("warm_start", format!("p={procs}: {e:?}")))?
            .opt;
            stats.optimizations += 2;
            if warm.comm_cost.to_bits() != base.comm_cost.to_bits()
                || warm.mem_words != base.mem_words
                || warm.max_msg_words != base.max_msg_words
            {
                return Err(fail(
                    "warm_start",
                    format!(
                        "p={procs}: warm-started exact run moved: cost {} vs {}, mem {} vs {}",
                        warm.comm_cost, base.comm_cost, warm.mem_words, base.mem_words
                    ),
                ));
            }
            if extract_plan(tree, &warm).to_json() != base_json {
                return Err(fail(
                    "warm_start",
                    format!("p={procs}: warm-started exact plan differs from cold"),
                ));
            }
        }

        // Oracle 10: canonicalization and the two-level plan cache.
        //
        // (a) L1 differential: turning in-run isomorphic-subtree reuse off
        //     must leave the exact search bit-identical — reuse may only
        //     splice in frontiers that the disabled run recomputes from
        //     scratch, never change them.
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
            if noreuse.comm_cost.to_bits() != base.comm_cost.to_bits()
                || noreuse.mem_words != base.mem_words
                || noreuse.max_msg_words != base.max_msg_words
                || noreuse.best_index != base.best_index
            {
                return Err(fail(
                    "cache",
                    format!(
                        "p={procs}: subtree reuse changed the result: cost {} vs {}, mem {} vs {}",
                        base.comm_cost, noreuse.comm_cost, base.mem_words, noreuse.mem_words
                    ),
                ));
            }
            if extract_plan(tree, &noreuse).to_json() != base_json {
                return Err(fail(
                    "cache",
                    format!("p={procs}: plan differs with subtree reuse disabled"),
                ));
            }

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

        // Oracles 3–5 on the reference plan.
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
            let r = optimize(
                tree,
                &cm,
                &OptimizerConfig { mem_limit_words: Some(tight), ..base_config(cfg) },
            );
            stats.optimizations += 1;
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

        // Oracle 5 (cont.): exhaustive agreement on small proper contraction
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
    use std::fmt::Write as _;
    use tce_expr::NodeKind;
    let post = tree.postorder();
    if post.iter().any(|&n| tree.node(n).tensor.dims.is_empty()) {
        return None;
    }
    let term = |n: tce_expr::NodeId| -> String {
        let dims: Vec<String> =
            tree.node(n).tensor.dims.iter().map(|d| format!("v{}", d.as_usize())).collect();
        format!("t{}[{}]", n.as_usize(), dims.join(","))
    };
    let mut src = String::new();
    for n in (0..tree.space.len()).rev() {
        let _ = writeln!(src, "range v{n} = {};", tree.space.extent(tce_expr::IndexId(n as u32)));
    }
    for &node in post.iter().rev() {
        if tree.node(node).is_leaf() {
            let _ = writeln!(src, "input {};", term(node));
        }
    }
    let mut contract_pos = 0u32;
    for &node in &post {
        match &tree.node(node).kind {
            NodeKind::Leaf => {}
            NodeKind::Contract { sum, left, right } => {
                let (a, b) = if swap_mask >> (contract_pos % 128) & 1 == 1 {
                    (*right, *left)
                } else {
                    (*left, *right)
                };
                contract_pos += 1;
                if sum.is_empty() {
                    let _ = writeln!(src, "{} = {} * {};", term(node), term(a), term(b));
                } else {
                    let sums: Vec<String> =
                        sum.iter().map(|s| format!("v{}", s.as_usize())).collect();
                    let _ = writeln!(
                        src,
                        "{} = sum[{}] {} * {};",
                        term(node),
                        sums.join(","),
                        term(a),
                        term(b)
                    );
                }
            }
            NodeKind::Reduce { sum, child } => {
                let _ =
                    writeln!(src, "{} = sum[v{}] {};", term(node), sum.as_usize(), term(*child));
            }
        }
    }
    Some(src)
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
