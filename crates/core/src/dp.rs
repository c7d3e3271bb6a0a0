//! The memory-constrained communication minimization algorithm (§3.3).
//!
//! Bottom-up over the expression tree: at each node, every combination of
//! * layout: a generalized-Cannon communication pattern (triplet `{i,j,k}`
//!   × role assignment, §3.1), an element-wise alignment, or a
//!   reduction's child distribution,
//! * fusion prefix with the parent,
//! * children's `(distribution, fusion)` solutions (with redistribution
//!   when an unfused child arrives in a different layout),
//!
//! is evaluated; candidates exceeding the per-processor memory limit are
//! dropped and dominated candidates pruned, exactly as the paper describes.
//! Every node goes through one combine loop, `combine`: a reduction is a
//! node whose left (row) operand is absent — one zero option on the empty
//! prefix, bound to no child — and whose result travels the grid dimension
//! the summed index frees.
//! The root's cheapest surviving solution is optimal over the searched
//! space (the search is exhaustive; pruning only removes candidates that
//! cannot be extended into a better complete solution).

use std::collections::HashMap;

use tce_cost::rotate::trip_count;
use tce_cost::units::WORD_BYTES;
use tce_cost::CostModel;
use tce_dist::{dist_size, enumerate_patterns, CannonPattern, Distribution, GridDim, Operand};
use tce_expr::{ExprTree, IndexId, IndexSet, IndexSpace, NodeId, NodeKind, Tensor};
use tce_fusion::{edge_candidates, enumerate_prefixes, FusionPrefix};

use crate::fx::FxHashMap;
use crate::solution::{ChildBinding, Choice, Keep, KeyHandle, SolutionSet};

/// Search-space knobs.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Cap on fused loops per edge (`usize::MAX` = unlimited).
    pub max_prefix_len: usize,
    /// Also consider leaving a grid dimension undistributed (replication) —
    /// an extension beyond the paper's always-fully-distributed search.
    pub allow_replication: bool,
    /// Also consider rotating an array that does not carry every fused
    /// loop surrounding the contraction (its full block is then re-sent per
    /// iteration). The paper's `MsgFactor` formula prices only fused
    /// indices of the rotated array's own dimensions, so its search
    /// excludes these configurations; enabling this explores the larger
    /// space, which can genuinely beat the paper's optimum (see
    /// EXPERIMENTS.md, experiment X1).
    pub allow_unrelated_rotation: bool,
    /// Override the per-processor memory limit in words (`None` = take it
    /// from the machine model).
    pub mem_limit_words: Option<u128>,
    /// Disable dominance pruning (for the §3.3 pruning-effectiveness
    /// ablation; the result is unchanged, only the work done).
    pub disable_pruning: bool,
    /// Stop the search from using the certified floors and bounds: the
    /// memory-feasibility prover, the branch-and-bound corner skips and
    /// the warm cut. The floors are still computed for the optimality
    /// certificate, so the plan, the certificate and every counter except
    /// `dp.bnb_*` are unchanged either way — only the work done differs —
    /// and this exists for ablations.
    pub disable_lower_bounds: bool,
    /// Restrict the search to one fixed fusion configuration (the
    /// "fusion first" baseline).
    pub fixed_fusion: Option<tce_fusion::FusionConfig>,
    /// Restrict each node to one fixed communication pattern (the
    /// "distribution first" baseline).
    pub fixed_patterns: Option<HashMap<NodeId, CannonPattern>>,
    /// Given initial distributions of input arrays, by name (§3.3: "we
    /// assume the input arrays can be distributed initially among the
    /// processors in any way at zero cost … our approach works regardless
    /// of whether any initial or final data distribution is given").
    /// Inputs listed here start in the given layout and pay redistribution
    /// when a contraction needs another; absent inputs remain free.
    pub input_dists: HashMap<String, Distribution>,
    /// Required final distribution of the root output; the plan pays a
    /// final redistribution when the best production layout differs.
    pub output_dist: Option<Distribution>,
    /// Worker threads for the per-node candidate enumeration (`0` = use
    /// [`std::thread::available_parallelism`]). Any thread count produces
    /// bit-identical plans, costs, and search counters: workers claim
    /// contiguous runs of the serial combine-block stream through the
    /// work-stealing scheduler and their frontiers are merged back in
    /// serial-stream order (see DESIGN.md §11 and
    /// [`SolutionSet::absorb`]).
    pub threads: usize,
    /// Adaptive spawn threshold override: nanoseconds of predicted serial
    /// enumeration per extra worker. `None` = default (10 ms — nodes
    /// predicted cheaper than the floor run inline so spawn + merge can
    /// never lose to serial); `Some(0)` forces maximal spawning, which the
    /// equivalence tests and fuzz oracles use to exercise the parallel
    /// merge even on nodes the model would keep serial.
    pub spawn_amort_ns: Option<u64>,
    /// Statically verify the winning plan before returning it (the CLI's
    /// `--verify`). Under `cfg(debug_assertions)` the self-check always
    /// runs; this flag extends it to release builds. Failures surface as
    /// [`OptimizeError::SelfCheck`].
    pub verify: bool,
    /// Disable the in-run level-1 subtree reuse: with reuse on (the
    /// default), completed node frontiers are keyed by their strict
    /// canonical subtree form (`tce_expr::canon`) plus everything else
    /// that can influence the frontier (edge candidates, leaf pins, warm
    /// cut), and an isomorphic subtree replays the stored Pareto
    /// staircase under the rename bijection instead of re-enumerating. Replay is bit-identical to a fresh enumeration —
    /// only the `dp.subtree_hit`/`dp.subtree_miss` counters and the work
    /// done differ — which the fuzz `cache` oracle verifies
    /// differentially. Reuse is gated off automatically under
    /// `fixed_fusion`/`fixed_patterns` (their pins are keyed by raw node
    /// ids, not subtree structure).
    pub disable_subtree_reuse: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            max_prefix_len: usize::MAX,
            allow_replication: false,
            allow_unrelated_rotation: false,
            mem_limit_words: None,
            disable_pruning: false,
            disable_lower_bounds: false,
            fixed_fusion: None,
            fixed_patterns: None,
            input_dists: HashMap::new(),
            output_dist: None,
            threads: 0,
            spawn_amort_ns: None,
            verify: false,
            disable_subtree_reuse: false,
        }
    }
}

/// Why optimization failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptimizeError {
    /// No fusion/distribution combination fits the memory limit.
    NoFeasibleSolution {
        /// The limit that could not be met (words per processor).
        limit_words: u128,
    },
    /// The tree contains a node the parallel model cannot place.
    Unsupported(String),
    /// The winning plan failed its static self-check — an optimizer bug,
    /// never a user error. The payload is the checker's rendered report.
    SelfCheck(String),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::NoFeasibleSolution { limit_words } => write!(
                f,
                "no fusion/distribution combination fits within {limit_words} words per processor"
            ),
            OptimizeError::Unsupported(m) => write!(f, "unsupported computation: {m}"),
            OptimizeError::SelfCheck(report) => {
                write!(f, "optimizer produced a plan that fails its static checks:\n{report}")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

/// Per-node search statistics (for the pruning ablation, experiment S2).
///
/// A per-node view over the run's [`tce_obs::Counters`]: each field is the
/// node's contribution to the correspondingly named counter in
/// [`Optimized::counters`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Array name of the node.
    pub name: String,
    /// Candidates generated.
    pub candidates: u64,
    /// Candidates pruned as dominated.
    pub pruned_inferior: u64,
    /// Candidates pruned by the memory limit.
    pub pruned_memory: u64,
    /// Candidates priced with a child redistribution fallback.
    pub redist_fallbacks: u64,
    /// Live solutions kept.
    pub live: usize,
    /// Distinct `(dist, fusion)` keys with live solutions — the number of
    /// Pareto staircases at this node.
    pub keys: usize,
    /// Largest per-key live frontier (staircase occupancy). `live / keys`
    /// average and this maximum bound the per-candidate dominance work.
    pub widest_front: usize,
    /// Run-wide solution-arena high-water (bytes) at the moment this node
    /// finished: every already-compacted frontier plus this node's
    /// pre-compaction working set. A deterministic function of arena
    /// contents, so equivalence checks compare it like any other field.
    pub arena_hw_bytes: u64,
    /// Whether this node's own communication floor was computed exactly
    /// (`false` when the combo-budget fallback collapsed it to zero).
    /// Deterministic.
    pub floor_exact: bool,
}

/// The optimization outcome: the per-node solution sets plus the winning
/// root solution.
#[derive(Debug)]
pub struct Optimized {
    /// Total communication cost (seconds).
    pub comm_cost: f64,
    /// Per-processor memory (words) of all stored arrays.
    pub mem_words: u128,
    /// Largest per-step message (words) — the staging buffer.
    pub max_msg_words: u128,
    /// Solution sets for every internal node (for plan reconstruction).
    pub sets: HashMap<NodeId, SolutionSet>,
    /// Winning solution index at the root.
    pub best_index: usize,
    /// Redistribution cost into the required final output layout (zero
    /// when none was requested or the layouts already match); included in
    /// `comm_cost`.
    pub output_redist_cost: f64,
    /// Search statistics, postorder.
    pub stats: Vec<NodeStats>,
    /// Solution-arena high-water over the whole run (bytes): the peak of
    /// committed frontiers plus the enumerating node's pre-compaction
    /// working set. Also exported as the `dp.arena_hw_bytes` gauge.
    pub arena_hw_bytes: u64,
    /// Aggregate search counters for this run (see [`tce_obs::names`]);
    /// `stats` is the per-node breakdown of the same numbers.
    pub counters: tce_obs::Counters,
    /// Busy time of every spawned worker on every node, microseconds:
    /// wall clock, so it varies run to run and stays out of `counters`
    /// (the `dp.worker_busy_us` histogram of the metrics snapshot). Empty
    /// for nodes run inline and for cached runs.
    pub worker_busy_us: tce_obs::metrics::Histogram,
    /// Certified communication lower bound for this expression under this
    /// cost model (`tce_cost::lower_bound`, DESIGN.md §12): every plan any
    /// configuration of this search can emit costs at least this many
    /// model seconds. `comm_cost − comm_lower_bound` is the certified
    /// optimality gap reported by `tce explain` / `tce report`.
    pub comm_lower_bound: f64,
    /// Whether `comm_lower_bound` is the exact kernel minimum at every
    /// node. `false` when any node's floor enumeration fell back to the
    /// degenerate zero (`MAX_COMBOS_PER_NODE` in `tce_cost::lower_bound`):
    /// the certificate is still admissible, but the reported gap is an
    /// over-estimate and must not be read as tight. Surfaced in
    /// `tce explain` / `tce report`; the per-node breakdown is
    /// [`NodeStats::floor_exact`] and the fallback count is the
    /// `lb.floor_fallback` counter.
    pub comm_floor_exact: bool,
    /// The optimum with the memory limit lifted: `Some` for every run of
    /// the explained search ([`crate::portfolio::plan_explained`]), which
    /// checks the limit at root selection alone, so its root set holds
    /// both answers (DESIGN.md §13); `None` for any other run.
    pub lifted: Option<Lifted>,
}

/// The optimum of a search with the memory limit lifted, as the explained
/// search reads it off its root set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lifted {
    /// Total communication cost (seconds), final redistribution included.
    pub comm_cost: f64,
    /// Per-processor footprint (memory plus message buffer, words) of the
    /// first root entry with that cost.
    pub footprint_words: u128,
}

/// Reject `input_dists` entries that could never take effect: a name that
/// matches no input array, or a layout that is invalid for the named
/// array's dimensions. Both used to be ignored silently, leaving the array
/// freely distributable — a pin that silently does nothing is a lie in the
/// cost report.
fn validate_input_dists(tree: &ExprTree, cfg: &OptimizerConfig) -> Result<(), OptimizeError> {
    if cfg.input_dists.is_empty() {
        return Ok(());
    }
    // Sort so the reported name does not depend on hash-map order.
    let mut names: Vec<&String> = cfg.input_dists.keys().collect();
    names.sort();
    for name in names {
        let dist = cfg.input_dists[name];
        let leaf = tree
            .postorder()
            .into_iter()
            .map(|id| tree.node(id))
            .find(|n| n.is_leaf() && n.tensor.name == **name);
        match leaf {
            None => {
                return Err(OptimizeError::Unsupported(format!(
                    "initial distribution given for `{name}`, which is not an input array"
                )))
            }
            Some(n) if !dist.is_valid_for(&n.tensor) => {
                return Err(OptimizeError::Unsupported(format!(
                    "initial distribution {} is not valid for input `{name}`",
                    dist.render(&tree.space)
                )))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Choose the winning root solution: the cheapest **live** solution with an
/// empty fusion that fits the limit (final redistribution included in the
/// comparison). The scan must not touch the rest of the set's storage: it
/// also holds entries evicted by later dominators (kept only so
/// back-pointers stay valid until compaction), and on a cost tie an evicted
/// entry earlier in storage order would win — selecting a dead solution
/// that wastes memory.
fn select_root_index(
    set: &SolutionSet,
    limit: u128,
    final_redist: impl Fn(Distribution) -> f64,
) -> Option<usize> {
    set.live_indices().filter(|&i| set.fusion(i).is_empty() && set.footprint(i) <= limit).min_by(
        |&a, &b| {
            let ca = set.cost(a) + final_redist(set.dist(a));
            let cb = set.cost(b) + final_redist(set.dist(b));
            ca.total_cmp(&cb)
        },
    )
}

/// Run the §3.3 dynamic programming.
pub fn optimize(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Optimized, OptimizeError> {
    Search::new(tree, cm, cfg)?.run(Pass::Exact, None)
}

/// The key pass alone ([`Pass::Key`], cold). Exported through
/// [`crate::portfolio`] so oracles can check the plan it finds.
pub fn key_pass(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Optimized, OptimizeError> {
    Search::new(tree, cm, cfg)?.run(Pass::Key, None)
}

/// Which search [`Search::run`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The exact §3.3 search, certified by the floors.
    Exact,
    /// The explained search (DESIGN.md §13): [`Pass::Exact`] with the
    /// memory limit checked only where the root is selected. Footprints
    /// only grow up the tree and a dominator of a fitting entry fits too,
    /// so the winner under the limit, its back-pointers and the plan are
    /// the exact search's, while the same root scan without the limit
    /// gives [`Optimized::lifted`].
    Explained,
    /// The key pass (DESIGN.md §13): the same DP, keeping at every node
    /// one entry per `(dist, fusion)` key, its lexicographically least
    /// `(cost, mem, msg)` candidate (the `LeastPerKey` mode). Every entry
    /// it keeps is a real candidate of the configuration's search space
    /// priced by the same combine, so the plan it returns is a real plan
    /// and its cost is never below the optimum. It reads no floors
    /// (`comm_lower_bound` is zero and not exact) and skips the
    /// self-check: [`crate::portfolio::plan`] reads only its cost, as the
    /// exact search's warm bound.
    Key,
}

/// One request's prepared search (DESIGN.md §13): the part of the §3.3
/// DP that depends only on the tree and the configuration, done once by
/// [`Search::new`], so that every pass of the request ([`Search::run`])
/// differs from a fresh single-pass run only in the work it skips.
pub struct Search<'a> {
    tree: &'a ExprTree,
    cm: &'a CostModel,
    cfg: &'a OptimizerConfig,
    /// The resolved per-processor memory limit (words).
    limit: u128,
    /// The resolved worker-thread count.
    threads: usize,
    /// Per-node subtree communication floors (DESIGN.md §12).
    floors: tce_cost::lower_bound::SubtreeFloors,
    /// Nearest-grid rcost extrapolations the floors made, charged to every
    /// certified pass as if it had computed them.
    floor_rcost_fallbacks: u64,
    /// Level-1 subtree reuse (DESIGN.md §14): the nodes every pass replays
    /// instead of enumerating (empty with subtree reuse off).
    replays: HashMap<NodeId, Replay>,
}

impl<'a> Search<'a> {
    /// Validate the request and prepare its search: the resolved limit
    /// and thread count, the memory-feasibility prover, the floors and
    /// the replay table. Fails as every pass of the request would.
    pub fn new(
        tree: &'a ExprTree,
        cm: &'a CostModel,
        cfg: &'a OptimizerConfig,
    ) -> Result<Self, OptimizeError> {
        if tree.node(tree.root()).is_leaf() {
            return Err(OptimizeError::Unsupported(
                "the expression tree computes nothing (its root is an input array)".into(),
            ));
        }
        validate_input_dists(tree, cfg)?;
        let _span = tce_obs::span("dp", "prepare");
        let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
        // Memory-feasibility prover (DESIGN.md §12): every plan must store,
        // at every node, at least the smallest block any layout/fusion
        // allows; if those per-node floors already exceed the limit, the
        // exponential search can only end in `NoFeasibleSolution` — fail
        // now instead.
        if !cfg.disable_lower_bounds
            && tce_cost::lower_bound::prove_memory_infeasible(tree, cm, limit, cfg.max_prefix_len)
                .is_some()
        {
            return Err(OptimizeError::NoFeasibleSolution { limit_words: limit });
        }
        // Per-node subtree communication floors (DESIGN.md §12), used two
        // ways: the root floor becomes the plan's optimality certificate
        // (`Optimized::comm_lower_bound`), and with a warm incumbent the
        // per-node floors set each node's warm cut. Each node's floor
        // minimizes the exact rotation kernel over every pattern/surrounding
        // the DP may enumerate and floors every other cost term at its true
        // minimum of zero. Pinned patterns may predate the current
        // `allow_replication` setting, so the certificate widens its pattern
        // universe to the replication superset then.
        let lb_replication = cfg.allow_replication || cfg.fixed_patterns.is_some();
        let rcost_fallbacks_before = tce_cost::rcost_fallback_count();
        let floors = tce_cost::lower_bound::subtree_comm_floors(tree, cm, lb_replication);
        let floor_rcost_fallbacks =
            tce_cost::rcost_fallback_count().saturating_sub(rcost_fallbacks_before);
        let threads = match cfg.threads {
            0 => crate::sched::available_parallelism().unwrap_or(1),
            n => n,
        };
        let replays = replays(tree, cfg, &floors);
        Ok(Self { tree, cm, cfg, limit, threads, floors, floor_rcost_fallbacks, replays })
    }

    /// Whether a warm bound can cut anything: pruning and lower bounds on
    /// and no pattern or fusion pins. [`Search::run`] ignores the bound
    /// otherwise.
    pub(crate) fn cuts_active(&self) -> bool {
        let cfg = self.cfg;
        !cfg.disable_lower_bounds
            && !cfg.disable_pruning
            && cfg.fixed_patterns.is_none()
            && cfg.fixed_fusion.is_none()
    }

    /// Run one pass. `bound` is a warm incumbent (model seconds): the cost
    /// of a real plan of this configuration that fits the limit, so the
    /// optimum is at most it. Candidates whose certified subtree floor plus
    /// rest-of-tree floor exceeds it are skipped before the dominance
    /// corner query; the winning plan and cost are bit-identical to a cold
    /// run and only search-effort counters move. The key pass reads no
    /// floors, so it ignores the bound.
    pub fn run(&self, pass: Pass, bound: Option<f64>) -> Result<Optimized, OptimizeError> {
        let (tree, cm, cfg, limit, threads) =
            (self.tree, self.cm, self.cfg, self.limit, self.threads);
        let certify = pass != Pass::Key;
        let keep = match pass {
            Pass::Key => Keep::LeastPerKey,
            _ if cfg.disable_pruning => Keep::All,
            _ => Keep::Pareto,
        };
        // The limit the nodes prune by: none in the explained search, whose
        // root scan applies the real one.
        let node_limit = if pass == Pass::Explained { u128::MAX } else { limit };
        // Nearest-grid rcost extrapolations are surfaced per run as a
        // counter delta (the process-wide total minus this snapshot).
        // Concurrent runs can interleave into the delta, which is one more
        // reason the counter is flagged nondeterministic in
        // `tce_obs::names::ALL`.
        let rcost_fallbacks_before = tce_cost::rcost_fallback_count();
        let floors = certify.then_some(&self.floors);
        // Warm-start cut per node: a candidate whose certified subtree floor
        // exceeds `incumbent − rest_floor(node)` can only complete to plans
        // strictly costlier than the incumbent — and the incumbent is the
        // cost of a real plan of this configuration, so the optimum (and
        // every tie with it) survives. `certify` shrinks the rest floor so
        // float re-association cannot make the cut inadmissible. The skip
        // never changes which plan wins, only the work done.
        let warm_cuts: HashMap<NodeId, f64> = match (floors, bound) {
            (Some(detail), Some(ub)) if self.cuts_active() => {
                let raw_root = detail.floors[&tree.root()];
                detail
                    .floors
                    .iter()
                    .map(|(&n, &f)| {
                        let rest = tce_cost::bound::certify((raw_root - f).max(0.0));
                        (n, ub - rest)
                    })
                    .collect()
            }
            _ => HashMap::new(),
        };
        let mut sched = crate::sched::Scheduler::new(threads, cfg.spawn_amort_ns);
        let mut sets: HashMap<NodeId, SolutionSet> = HashMap::new();
        let mut stats = Vec::new();
        let mut counters = tce_obs::Counters::new();
        let mut worker_busy_us = tce_obs::metrics::Histogram::default();
        let mut run_span = tce_obs::span("dp", if certify { "optimize" } else { "key_pass" });
        run_span.arg("threads", threads);

        // Trace events for stream sinks (the progress stream's `start`,
        // `node` and `done` records), all coordinator-side: they are
        // emitted only between nodes on this thread and nothing in the
        // search reads a sink, so installing one cannot perturb results
        // (DESIGN.md §10).
        let nodes_total = tree.postorder().iter().filter(|&&id| !tree.node(id).is_leaf()).count();
        let mut nodes_done = 0usize;
        let mut start_marker = tce_obs::span("dp", "start");
        start_marker.arg("nodes_total", nodes_total);
        start_marker.arg("threads", threads);
        drop(start_marker);
        // Arena accounting: bytes already committed by compacted frontiers,
        // and the run-wide high-water (committed + the enumerating node's
        // pre-compaction working set). Both are deterministic functions of
        // arena contents, hence thread-count-invariant.
        let mut committed_bytes = 0u64;
        let mut arena_hw = 0u64;

        // Level-1 subtree reuse (DESIGN.md §14): each enumerated node's
        // pre-compaction arena bytes and combine blocks, charged again by
        // every node that replays it, so the statistics are invariant to
        // reuse.
        let reuse_on = reuse_on(cfg);
        let mut fresh: HashMap<NodeId, (u64, u64)> = HashMap::new();

        for node in tree.postorder() {
            let n = tree.node(node);
            if n.is_leaf() {
                continue; // leaves are bound inline at their parent
            }
            let mut node_span = tce_obs::span("dp", n.tensor.name.as_str());
            let (mut set, enum_stats, pre_compact_bytes) = if let Some(r) = self.replays.get(&node)
            {
                // Replay the source's committed (compacted) frontier.
                let mut set = sets[&r.source].clone();
                set.remap(&r.index_map, &r.node_map);
                counters.add(tce_obs::names::SUBTREE_HIT, 1);
                let (pre_compact_bytes, blocks) = fresh[&r.source];
                let synth = crate::sched::EnumStats {
                    workers: 1,
                    merge_us: 0,
                    blocks,
                    steals: 0,
                    busy_us: Vec::new(),
                };
                (set, synth, pre_compact_bytes)
            } else {
                if reuse_on {
                    counters.add(tce_obs::names::SUBTREE_MISS, 1);
                }
                let mut set = SolutionSet::with_mode(keep, !cfg.disable_lower_bounds);
                let warm_cut = warm_cuts.get(&node).copied().unwrap_or(f64::INFINITY);
                let my_prefixes = match &cfg.fixed_fusion {
                    Some(fc) => vec![fc.prefix(node)],
                    None => enumerate_prefixes(&edge_candidates(tree, node), cfg.max_prefix_len),
                };
                let stats = combine(
                    tree,
                    cm,
                    cfg,
                    &mut sched,
                    node,
                    &layouts(tree, cfg, node),
                    &my_prefixes,
                    &sets,
                    node_limit,
                    warm_cut,
                    &mut set,
                );
                let pre_compact_bytes = set.arena_bytes();
                fresh.insert(node, (pre_compact_bytes, stats.blocks));
                (set, stats, pre_compact_bytes)
            };
            counters.add(tce_obs::names::NODES, 1);
            counters.add(tce_obs::names::CANDIDATES, set.candidates_seen);
            counters.add(tce_obs::names::PRUNED_INFERIOR, set.pruned_inferior);
            counters.add(tce_obs::names::PRUNED_MEMORY, set.pruned_memory);
            counters.add(tce_obs::names::REDIST_FALLBACKS, set.redist_fallbacks);
            counters.add(tce_obs::names::FRONTIER, set.total_live());
            // The corner-skip totals depend on worker interleaving
            // (worker-local frontiers differ), so equivalence checks skip
            // them; every other counter is interleaving-invariant.
            counters.add(tce_obs::names::BNB_SKIP, set.bnb_skip);
            counters.add(tce_obs::names::BNB_BLOCK, set.bnb_block);
            counters.add(tce_obs::names::BNB_WARM, set.bnb_warm);
            // Scheduler counters: block count is the serial item count (a pure
            // function of the search space, identical at every thread count);
            // the steal total is a race outcome and is flagged nondeterministic
            // with the bnb family.
            counters.add(tce_obs::names::BLOCKS, enum_stats.blocks);
            counters.add(tce_obs::names::STEAL, enum_stats.steals);
            // Arena high-water: this node's full (pre-compaction) arena on top
            // of everything already committed. A replayed node charges the
            // fresh run's recorded pre-compaction size so the statistic is
            // invariant to reuse.
            arena_hw = arena_hw.max(committed_bytes + pre_compact_bytes);
            counters.set(tce_obs::names::ARENA_HW_BYTES, arena_hw);
            node_span.arg("candidates", set.candidates_seen);
            node_span.arg("pruned_inferior", set.pruned_inferior);
            node_span.arg("pruned_memory", set.pruned_memory);
            node_span.arg("live", set.live_len());
            node_span.arg("workers", enum_stats.workers);
            node_span.arg("merge_us", enum_stats.merge_us);
            node_span.arg("blocks", enum_stats.blocks);
            node_span.arg("steals", enum_stats.steals);
            nodes_done += 1;
            node_span.arg("done", nodes_done);
            node_span.arg("total", nodes_total);
            // Sample the cumulative counters so the trace shows them growing
            // node by node; before the span closes, so a stream sink has this
            // node's totals when the span arrives.
            counters.sample_all();
            drop(node_span);
            // Per-worker busy times, observed coordinator-side after the join
            // (wall clock, so outside the deterministic counter bag).
            for &busy in &enum_stats.busy_us {
                worker_busy_us.observe(busy);
            }
            stats.push(NodeStats {
                name: n.tensor.name.clone(),
                candidates: set.candidates_seen,
                pruned_inferior: set.pruned_inferior,
                pruned_memory: set.pruned_memory,
                redist_fallbacks: set.redist_fallbacks,
                live: set.live_len(),
                keys: set.key_count(),
                widest_front: set.max_key_live(),
                arena_hw_bytes: arena_hw,
                floor_exact: floors.is_some_and(|f| f.node_exact.get(&node) == Some(&true)),
            });
            // The node is finished: nothing can reference its dead (evicted)
            // entries anymore — parents bind only live indices and run strictly
            // later — so drop them and free their decision records.
            set.compact();
            committed_bytes += set.arena_bytes();
            sets.insert(node, set);
        }

        let root = tree.root();
        let root_set = &sets[&root];
        let root_tensor = &tree.node(root).tensor;
        // A required final layout charges each candidate the redistribution
        // from its production layout (§3.3: "we do not require the final
        // results to be distributed in any particular way" — unless asked).
        let final_redist = |dist: Distribution| -> f64 {
            match cfg.output_dist {
                None => 0.0,
                Some(target) => {
                    cm.redistribution_cost(root_tensor, &tree.space, dist, target, &IndexSet::new())
                }
            }
        };
        let best_index = select_root_index(root_set, limit, final_redist)
            .ok_or(OptimizeError::NoFeasibleSolution { limit_words: limit })?;
        let lifted = (pass == Pass::Explained).then(|| {
            let i = select_root_index(root_set, u128::MAX, final_redist).unwrap_or(best_index);
            Lifted {
                comm_cost: root_set.cost(i) + final_redist(root_set.dist(i)),
                footprint_words: root_set.footprint(i),
            }
        });
        let output_redist_cost = final_redist(root_set.dist(best_index));
        let best_cost = root_set.cost(best_index);
        run_span.arg("nodes", counters.get(tce_obs::names::NODES));
        run_span.arg("candidates", counters.get(tce_obs::names::CANDIDATES));
        run_span.arg("comm_cost", best_cost + output_redist_cost);
        drop(run_span);
        // Fallback accounting: the floor-fallback count is a deterministic
        // function of the tree (computed once coordinator-side), so it joins
        // the report counters; the rcost delta is interleaving-dependent.
        counters.add(tce_obs::names::LB_FLOOR_FALLBACK, floors.map_or(0, |f| f.fallback_nodes));
        counters.add(
            tce_obs::names::RCOST_FALLBACK,
            tce_cost::rcost_fallback_count().saturating_sub(rcost_fallbacks_before)
                + if certify { self.floor_rcost_fallbacks } else { 0 },
        );
        let result = Optimized {
            comm_cost: best_cost + output_redist_cost,
            mem_words: root_set.mem(best_index),
            max_msg_words: root_set.msg(best_index),
            best_index,
            output_redist_cost,
            stats,
            arena_hw_bytes: arena_hw,
            counters,
            worker_busy_us,
            sets,
            comm_lower_bound: floors
                .map_or(0.0, |f| tce_cost::bound::certify(f.floors[&tree.root()])),
            comm_floor_exact: floors.is_some_and(|f| f.root_exact()),
            lifted,
        };
        // Self-check: statically verify the winning plan before handing it
        // out. Always on in debug builds; `cfg.verify` extends it to release.
        if certify && (cfg.verify || cfg!(debug_assertions)) {
            let plan = crate::plan::extract_plan(tree, &result);
            crate::check::check_plan(tree, &plan, Some(cm), Some(limit))
                .to_result()
                .map_err(OptimizeError::SelfCheck)?;
        }
        Ok(result)
    }
}

/// Level-1 subtree reuse is on (DESIGN.md §14). Pinned fusions/patterns
/// key by raw node id, not subtree structure, so reuse is gated off under
/// them.
fn reuse_on(cfg: &OptimizerConfig) -> bool {
    !cfg.disable_subtree_reuse && cfg.fixed_fusion.is_none() && cfg.fixed_patterns.is_none()
}

/// A node whose frontier is replayed from an earlier isomorphic node
/// through the rename bijection ([`SolutionSet::remap`]).
struct Replay {
    /// The earlier node whose committed frontier is replayed.
    source: NodeId,
    index_map: HashMap<IndexId, IndexId>,
    node_map: HashMap<NodeId, NodeId>,
}

/// The replay table of one request (DESIGN.md §14): each internal node
/// maps to the first earlier node in postorder with the same enumeration
/// inputs, all in canonical index numbering so the match is
/// rename-invariant — the strict canonical subtree hash, the fusion-edge
/// candidates (node dims ∩ parent loop indices, a property of the
/// *parent*, so not derivable from the hash) and the leaf pins. It
/// replays only if the rename bijection is *monotone* in `IndexId` order,
/// so every order-sensitive enumeration maps 1:1, and if the two
/// subtrees' floors agree bit for bit at every node, so every pass gives
/// both the same warm cuts under any bound. The match then holds for
/// every descendant too, so the replayed `sol_index` back-pointers land
/// on identically laid-out child arenas: plans, costs and per-node
/// statistics are bit-identical to enumerating the node.
fn replays(
    tree: &ExprTree,
    cfg: &OptimizerConfig,
    floors: &tce_cost::lower_bound::SubtreeFloors,
) -> HashMap<NodeId, Replay> {
    type Key = (u128, Vec<u32>, Vec<Option<(Option<u32>, Option<u32>)>>);
    let mut table = HashMap::new();
    if !reuse_on(cfg) {
        return table;
    }
    let mut first: HashMap<Key, (NodeId, tce_expr::canon::SubtreeForm)> = HashMap::new();
    for node in tree.postorder() {
        if tree.node(node).is_leaf() {
            continue;
        }
        let form = tce_expr::subtree_form(tree, node);
        // `None` when any index fails to map (defensive: every pin/edge
        // index is a dim of some subtree tensor, so mapping cannot actually
        // fail — but a silent partial key would be unsound, a skipped node
        // merely slow).
        let key = (|| -> Option<Key> {
            let number: HashMap<IndexId, u32> =
                form.index_order.iter().enumerate().map(|(i, &ix)| (ix, i as u32)).collect();
            let map_ix = |o: Option<IndexId>| match o {
                None => Some(None),
                Some(ix) => number.get(&ix).map(|&n| Some(n)),
            };
            let mut edges = Vec::new();
            for ix in edge_candidates(tree, node).iter() {
                edges.push(number.get(&ix).copied()?);
            }
            edges.sort_unstable();
            let mut pins = Vec::new();
            for &m in form.nodes.iter().filter(|&&m| tree.node(m).is_leaf()) {
                pins.push(match cfg.input_dists.get(&tree.node(m).tensor.name) {
                    None => None,
                    Some(d) => Some((map_ix(d.d1)?, map_ix(d.d2)?)),
                });
            }
            Some((form.hash, edges, pins))
        })();
        let Some(key) = key else { continue };
        let Some((source, source_form)) = first.get(&key) else {
            first.insert(key, (node, form));
            continue;
        };
        let floor_bits = |f: &tce_expr::canon::SubtreeForm| -> Vec<u64> {
            f.nodes.iter().map(|m| floors.floors[m].to_bits()).collect()
        };
        if source_form.monotone_bijection_to(&form) && floor_bits(source_form) == floor_bits(&form)
        {
            let index_map =
                source_form.index_order.iter().copied().zip(form.index_order.iter().copied());
            let node_map = source_form.nodes.iter().copied().zip(form.nodes.iter().copied());
            table.insert(
                node,
                Replay {
                    source: *source,
                    index_map: index_map.collect(),
                    node_map: node_map.collect(),
                },
            );
        }
    }
    table
}

/// A way to obtain one child array in a required layout.
struct ChildOpt {
    sol_index: usize,
    produced: Distribution,
    comm_cost: f64,
    mem_words: u128,
    max_msg_words: u128,
    redist_cost: f64,
}

impl ChildOpt {
    /// This option bound as child `node` of a choice.
    fn bind(
        &self,
        node: NodeId,
        required_dist: Distribution,
        fusion: &FusionPrefix,
        rotate_cost: f64,
    ) -> ChildBinding {
        ChildBinding {
            node,
            sol_index: self.sol_index,
            produced_dist: self.produced,
            required_dist,
            fusion: fusion.clone(),
            redist_cost: self.redist_cost,
            rotate_cost,
        }
    }
}

/// A child's option list plus its suffix floors, both in the **original**
/// option order (the enumeration order is part of the bit-identity
/// contract, so options are never re-sorted — the suffix table makes the
/// admissible tail bound cheap anyway): `floors[i]` is the per-axis
/// minimum of `(comm_cost + redist_cost, mem_words, max_msg_words)` over
/// `opts[i..]` (the lower-bound corner).
struct OptSlate {
    opts: Vec<ChildOpt>,
    floors: Vec<(f64, u128, u128)>,
}

impl OptSlate {
    fn new(opts: Vec<ChildOpt>) -> Self {
        let floors = tce_cost::bound::suffix_floors(
            opts.iter().map(|o| (o.comm_cost + o.redist_cost, o.mem_words, o.max_msg_words)),
        );
        Self { opts, floors }
    }
}

/// Account a skipped block `rows × rslate.opts` (every pair proven
/// dominated by a corner query or cut by the warm start) pair by pair,
/// with the exact per-candidate classification [`SolutionSet::try_insert`]
/// would have applied.
fn account_block(
    local: &mut SolutionSet,
    rows: &[ChildOpt],
    rslate: &OptSlate,
    my_mem: u128,
    block_msg: u128,
    limit: u128,
) {
    for l2 in rows {
        for r2 in &rslate.opts {
            local.account_skipped(
                l2.redist_cost > 0.0 || r2.redist_cost > 0.0,
                l2.mem_words
                    + r2.mem_words
                    + my_mem
                    + block_msg.max(l2.max_msg_words).max(r2.max_msg_words),
                limit,
            );
        }
    }
}

/// Enumerate the ways child `c` can supply its array in `required` layout
/// with fusion `f` on the edge. An unfused edge's list comes back without
/// the options [`drop_dominated`] proves redundant. An absent operand (a
/// reduction's row) supplies one zero option: no array, no cost.
#[allow(clippy::too_many_arguments)]
fn child_options(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    c: Option<NodeId>,
    f: &FusionPrefix,
    required: Distribution,
    sets: &HashMap<NodeId, SolutionSet>,
) -> Vec<ChildOpt> {
    let Some(c) = c else {
        return vec![ChildOpt {
            sol_index: usize::MAX,
            produced: required,
            comm_cost: 0.0,
            mem_words: 0,
            max_msg_words: 0,
            redist_cost: 0.0,
        }];
    };
    let n = tree.node(c);
    if n.is_leaf() {
        // Inputs may be distributed initially in any way at zero cost
        // (§3.3) — unless a starting layout was given, in which case the
        // array pays redistribution into the required one. Inputs are
        // stored in full regardless of edge fusion.
        if !required.is_valid_for(&n.tensor) {
            return vec![];
        }
        let mem = dist_size(&n.tensor, &tree.space, cm.grid, required, &IndexSet::new());
        let (produced, redist) = match cfg.input_dists.get(&n.tensor.name) {
            // `optimize` validated every pinned layout up front, so a hit
            // here is known to be valid for the array.
            Some(&given) => {
                // A fused edge cannot redistribute mid-stream; the given
                // layout must already match.
                if !f.is_empty() && given != required {
                    return vec![];
                }
                let cost = cm.redistribution_cost(
                    &n.tensor,
                    &tree.space,
                    given,
                    required,
                    &IndexSet::new(),
                );
                (given, cost)
            }
            None => (required, 0.0),
        };
        return vec![ChildOpt {
            sol_index: usize::MAX,
            produced,
            comm_cost: 0.0,
            mem_words: mem,
            max_msg_words: 0,
            redist_cost: redist,
        }];
    }
    let set = &sets[&c];
    if f.is_empty() {
        // Unfused: the array is fully materialized; any production layout
        // works, paying redistribution when it differs.
        let opts = set
            .with_fusion(f)
            .into_iter()
            .map(|i| {
                let redist = cm.redistribution_cost(
                    &n.tensor,
                    &tree.space,
                    set.dist(i),
                    required,
                    &IndexSet::new(),
                );
                ChildOpt {
                    sol_index: i,
                    produced: set.dist(i),
                    comm_cost: set.cost(i),
                    mem_words: set.mem(i),
                    max_msg_words: set.msg(i),
                    redist_cost: redist,
                }
            })
            .collect();
        drop_dominated(opts, !cfg.disable_pruning)
    } else {
        // Fused: produced slice-by-slice inside shared loops — no chance to
        // redistribute, so the production layout must match exactly. This
        // also enforces §3.2(iii): every fused index is distributed
        // identically (or not at all) at both ends.
        set.lookup(required, f)
            .into_iter()
            .map(|i| ChildOpt {
                sol_index: i,
                produced: set.dist(i),
                comm_cost: set.cost(i),
                mem_words: set.mem(i),
                max_msg_words: set.msg(i),
                redist_cost: 0.0,
            })
            .collect()
    }
}

/// Drop every option of an unfused child's list that another option of
/// the same list makes redundant (DESIGN.md §9): `a` drops `b` when `a`'s
/// `comm_cost`, `redist_cost`, `mem_words` and `max_msg_words` are each
/// at most `b`'s, and `a` comes first or uses strictly less memory. Every
/// candidate built from `b` is then weakly dominated by the matching one
/// built from `a`, which reaches the solution set first or evicts it, so
/// no live set changes. Survivors keep their order; with `pruning` off
/// the list is returned whole.
fn drop_dominated(opts: Vec<ChildOpt>, pruning: bool) -> Vec<ChildOpt> {
    if !pruning || opts.len() < 2 {
        return opts;
    }
    // In `(mem_words, position)` order every possible dominator of an
    // option precedes it, and the relation is transitive, so comparing
    // against the survivors so far suffices.
    let mut order: Vec<usize> = (0..opts.len()).collect();
    order.sort_by_key(|&i| (opts[i].mem_words, i));
    let mut keep = vec![false; opts.len()];
    let mut kept: Vec<(f64, f64, u128)> = Vec::new();
    for i in order {
        let b = &opts[i];
        let dominated = kept.iter().any(|&(comm, redist, msg)| {
            comm <= b.comm_cost && redist <= b.redist_cost && msg <= b.max_msg_words
        });
        if !dominated {
            keep[i] = true;
            kept.push((b.comm_cost, b.redist_cost, b.max_msg_words));
        }
    }
    opts.into_iter().zip(keep).filter_map(|(o, k)| k.then_some(o)).collect()
}

/// Fusion prefixes available on the edge above child `c`: the empty
/// prefix alone for an absent operand.
fn child_fusions(
    tree: &ExprTree,
    cfg: &OptimizerConfig,
    c: Option<NodeId>,
    sets: &HashMap<NodeId, SolutionSet>,
) -> Vec<FusionPrefix> {
    let Some(c) = c else { return vec![FusionPrefix::empty()] };
    if tree.node(c).is_leaf() {
        // Leaf message slicing has no memory consequences, so leaf edges
        // keep their full prefix menu even under a fixed fusion
        // configuration (`cfg.fixed_fusion` pins only the internal edges).
        enumerate_prefixes(&edge_candidates(tree, c), cfg.max_prefix_len)
    } else {
        sets[&c].fusions()
    }
}

/// A node's row and column operands: a binary node's left and right
/// child; a reduction's child is the column and its row is absent.
fn operands(tree: &ExprTree, node: NodeId) -> (Option<NodeId>, NodeId) {
    match tree.node(node).kind {
        NodeKind::Contract { left, right, .. } => (Some(left), right),
        NodeKind::Reduce { child, .. } => (None, child),
        NodeKind::Leaf => unreachable!("leaves are bound inline at their parent"),
    }
}

/// One layout a node can be computed in, with what its blocks are
/// admitted and priced by.
#[derive(Clone, Copy)]
struct Layout {
    /// The generalized-Cannon pattern: `None` for an element-wise
    /// multiply, which aligns both operands, and for a reduction.
    pattern: Option<CannonPattern>,
    /// The left, right and result distributions (a reduction's absent
    /// left operand is undistributed).
    dists: [Distribution; 3],
    /// Per slot, the grid dimension the array travels along: a Cannon
    /// layout's rotated arrays, or a reduction's result along the grid
    /// dimension the summed index frees. Only a Cannon rotation stages a
    /// message; a reduction's ring combine reuses the stored block.
    travel: [Option<GridDim>; 3],
    /// The admission class: the index no surrounding loop may contain (a
    /// Cannon layout's rotation index, a reduction's summed index) and the
    /// slots that must carry every surrounding loop.
    class: (Option<IndexId>, [bool; 3]),
}

/// The layouts a node is searched over, in the serial enumeration order:
/// one per Cannon pattern for a contraction; for an element-wise multiply
/// (shared non-summed indices, e.g. Fig. 1's T3 = T1 × T2) one per result
/// distribution, restricted to each child's dimensions; for a reduction
/// one per distribution valid for the child.
fn layouts(tree: &ExprTree, cfg: &OptimizerConfig, node: NodeId) -> Vec<Layout> {
    let (left, right) = match tree.node(node).kind {
        NodeKind::Contract { left, right, .. } => (left, right),
        NodeKind::Reduce { sum, child } => {
            // The summed dimension disappears; if it was distributed along
            // `d`, a reduction across grid dimension `d` combines the
            // partial sums and the result is no longer distributed along `d`.
            let child = &tree.node(child).tensor;
            let drop_sum = |d: Option<IndexId>| d.filter(|&i| i != sum);
            let partial = cfg.allow_replication || child.arity() < 2;
            return Distribution::enumerate(&child.dim_set(), partial)
                .into_iter()
                .map(|c| Layout {
                    pattern: None,
                    dists: [
                        Distribution::REPLICATED,
                        c,
                        Distribution { d1: drop_sum(c.d1), d2: drop_sum(c.d2) },
                    ],
                    travel: [None, None, c.position_of(sum)],
                    class: (Some(sum), [false; 3]),
                })
                .collect();
        }
        NodeKind::Leaf => unreachable!("leaves are bound inline at their parent"),
    };
    let Ok(groups) = tree.contraction_groups(node) else {
        let dims = tree.node(node).tensor.dim_set();
        let restrict = |d: Distribution, c: NodeId| {
            let t = &tree.node(c).tensor;
            Distribution { d1: d.d1.filter(|&i| t.has_dim(i)), d2: d.d2.filter(|&i| t.has_dim(i)) }
        };
        return Distribution::enumerate(&dims, cfg.allow_replication || dims.len() < 2)
            .into_iter()
            .map(|o| Layout {
                pattern: None,
                dists: [restrict(o, left), restrict(o, right), o],
                travel: [None; 3],
                class: (None, [false; 3]),
            })
            .collect();
    };
    let patterns = match cfg.fixed_patterns.as_ref().and_then(|m| m.get(&node)) {
        Some(p) => vec![*p],
        None => enumerate_patterns(&groups, cfg.allow_replication),
    };
    // Paper-faithful, unless `allow_unrelated_rotation` lifts it, every
    // rotated array must carry all surrounding fused loops (the `MsgFactor`
    // formula's domain).
    let carried = |p: CannonPattern| {
        if cfg.allow_unrelated_rotation {
            [false; 3]
        } else {
            SLOTS.map(|op| p.rotates(op))
        }
    };
    patterns
        .into_iter()
        .map(|p| Layout {
            pattern: Some(p),
            dists: SLOTS.map(|op| p.operand_dist(op)),
            travel: SLOTS.map(|op| p.travel_dim(op)),
            class: (p.rotation_index(), carried(p)),
        })
        .collect()
}

/// The one branch-and-bound skip decision (DESIGN.md §9) for a block of
/// `pairs` candidates of key `kh` whose costs are all at least `raw` and
/// whose memory and message sizes are at least `mem` and `msg`, bounded
/// below by `certify(raw)`. In order:
///
/// 1. *warm*: the bound exceeds the warm-start cut — a static test against
///    the incumbent, checked before the frontier-dependent corner query so
///    it fires identically no matter how the block stream is partitioned
///    across workers;
/// 2. *dominated*: a live entry dominates the corner;
/// 3. otherwise the block is kept and priced.
///
/// A skipped block bumps `bnb_block` (and `bnb_warm` by `pairs` when
/// warm); the caller accounts its candidates and moves on.
#[allow(clippy::too_many_arguments)]
#[inline]
fn bnb_skip(
    local: &mut SolutionSet,
    kh: &KeyHandle,
    raw: f64,
    mem: u128,
    msg: u128,
    warm_cut: f64,
    pairs: u64,
) -> bool {
    let b = tce_cost::bound::certify(raw);
    if b > warm_cut {
        local.bnb_warm += pairs;
    } else if !local.dominates_corner(kh, b, mem, msg) {
        return false;
    }
    local.bnb_block += 1;
    true
}

/// A per-worker table filled lazily on first use: `rows × cols` cells, a
/// cell still holding its type's default value being unfilled. A cell
/// whose true value is the default is recomputed on every use, which is
/// still exact, only slower. Cells are allocated zeroed per node and
/// worker, never computed up front: most (layout, column) cells of a node
/// are never asked for (DESIGN.md §9).
struct LazyTable<T> {
    cols: usize,
    cells: Vec<T>,
}

impl<T: Copy + Default + PartialEq> LazyTable<T> {
    fn new(rows: usize, cols: usize) -> Self {
        Self { cols, cells: vec![T::default(); rows * cols] }
    }

    #[inline]
    fn get(&mut self, row: usize, col: usize, fill: impl FnOnce() -> T) -> T {
        let cell = &mut self.cells[row * self.cols + col];
        if *cell == T::default() {
            *cell = fill();
        }
        *cell
    }
}

/// Number `values` densely in first-seen order: the id of each value, in
/// order, and the distinct values by id.
fn intern<K: std::hash::Hash + Eq + Clone>(values: impl Iterator<Item = K>) -> (Vec<u32>, Vec<K>) {
    let mut ids: FxHashMap<K, u32> = FxHashMap::default();
    let mut distinct = Vec::new();
    let per = values
        .map(|v| {
            *ids.entry(v).or_insert_with_key(|k| {
                distinct.push(k.clone());
                (distinct.len() - 1) as u32
            })
        })
        .collect();
    (per, distinct)
}

/// A per-worker cache of child option slates by (child fusion, required
/// distribution), both numbered per node, built on first use: a dense
/// index table in front of the slates, so a lookup is one array read.
struct SlateCache {
    /// Slate index + 1 per cell (0 = not built yet).
    index: LazyTable<u32>,
    slates: Vec<OptSlate>,
}

impl SlateCache {
    fn new(fusions: usize, dists: usize) -> Self {
        Self { index: LazyTable::new(fusions, dists), slates: Vec::new() }
    }

    #[inline]
    fn get(&mut self, fusion: usize, dist: u32, build: impl FnOnce() -> OptSlate) -> &OptSlate {
        let slates = &mut self.slates;
        let ix = self.index.get(fusion, dist as usize, || {
            slates.push(build());
            slates.len() as u32
        });
        &self.slates[ix as usize - 1]
    }
}

/// `(message words, rotation base)` of one rotated array: the per-step
/// message `DistSize(v, α, sliced)` and `RCost` of that message along
/// `travel` — the factor-independent part of
/// [`tce_cost::rotate::rotate_cost_surrounded`], by the same formula.
fn rotation_cell(
    cm: &CostModel,
    space: &IndexSpace,
    tensor: &Tensor,
    alpha: Distribution,
    travel: GridDim,
    sliced: &IndexSet,
) -> (u128, f64) {
    let words = dist_size(tensor, space, cm.grid, alpha, sliced);
    (words, cm.chr.rcost(cm.grid.extent(travel), travel, (words * WORD_BYTES) as f64))
}

/// The per-block trip-count factor of
/// [`tce_cost::rotate::rotate_cost_surrounded`], as the `f64` it is
/// multiplied in as: the product of every surrounding loop's
/// per-processor trip count. A block's rotation cost is `factor * base`,
/// exactly as that function forms it.
fn trip_factor(
    surrounding: &IndexSet,
    space: &IndexSpace,
    cm: &CostModel,
    layouts: &[Distribution],
) -> f64 {
    let factor: u128 =
        surrounding.iter().map(|j| trip_count(j, space, cm.grid, layouts) as u128).product();
    factor as f64
}

/// A chain-compatible `(f_left, f_right, f_up)` fusion triple of a node,
/// with the fused loops surrounding the node (the longest of the three
/// prefixes), the id of their set among [`Blocks::sets`] and, per operand
/// slot (left, right, result), the id of `surrounding ∩ dims(operand)`
/// among [`Blocks::sliced`].
struct Triple<'a> {
    li: usize,
    ri: usize,
    ui: usize,
    surrounding: &'a FusionPrefix,
    surround: u32,
    sliced: [u32; 3],
}

/// The operands of a node in pricing-slot order.
const SLOTS: [Operand; 3] = [Operand::Left, Operand::Right, Operand::Result];

/// Everything a node's combine blocks are priced from, built once per
/// node: the layouts, the fusion triples with their interned sliced sets,
/// and the admissible `(layout, triple)` blocks in serial order.
struct Blocks<'a> {
    /// Left, right and result array; `None` for an absent left operand.
    tensors: [Option<&'a Tensor>; 3],
    result: &'a Tensor,
    layouts: &'a [Layout],
    /// Per layout, the ids of its left and right distributions among the
    /// node's distinct ones, and how many there are (the slate caches'
    /// columns).
    child_dists: [(Vec<u32>, usize); 2],
    /// Per operand slot and layout, the id of the operand's (distribution,
    /// travel dimension) among the node's distinct ones, and how many
    /// there are (the rotation tables' rows).
    rot_rows: [(Vec<u32>, usize); 3],
    /// Per up-prefix, the id of its set among `sets`.
    up_ids: Vec<u32>,
    /// The distinct loop sets of the left, right and up prefixes (the
    /// trip-count and footprint tables' columns) — a few dozen, where a
    /// node has hundreds of triples.
    sets: Vec<IndexSet>,
    triples: Vec<Triple<'a>>,
    /// Per operand slot, the distinct `surrounding ∩ dims(operand)` sets
    /// (the rotation tables' columns).
    sliced: [Vec<IndexSet>; 3],
    /// One item per admissible (layout, triple), layout-major and
    /// triple-ascending — the serial nesting order, so every claimed run
    /// is a contiguous slice of the serial candidate stream (the
    /// precondition of [`SolutionSet::absorb`]).
    items: Vec<(usize, usize)>,
}

impl<'a> Blocks<'a> {
    fn new(
        tree: &'a ExprTree,
        node: NodeId,
        layouts: &'a [Layout],
        lf_all: &'a [FusionPrefix],
        rf_all: &'a [FusionPrefix],
        my_prefixes: &'a [FusionPrefix],
    ) -> Self {
        let (left, right) = operands(tree, node);
        let result = &tree.node(node).tensor;
        let tensors =
            [left.map(|l| &tree.node(l).tensor), Some(&tree.node(right).tensor), Some(result)];
        let dims = tensors.map(|t| t.map_or_else(IndexSet::new, Tensor::dim_set));
        // Every prefix of the three menus (children's edge prefixes, then
        // the node's own up prefixes) as one list of rows, its loop set
        // numbered once: a triple's surrounding loops are its longest
        // prefix, so the triple's set is a lookup, never a set operation.
        let rows: Vec<&FusionPrefix> = lf_all.iter().chain(rf_all).chain(my_prefixes).collect();
        let (set_ids, sets) = intern(rows.iter().map(|f| f.as_set()));
        // The longer of rows `a` and `b` (`a` on a tie), as
        // [`FusionPrefix::join`] picks it.
        let join = |a: usize, b: usize| if rows[a].len() >= rows[b].len() { a } else { b };
        let (nl, up0) = (lf_all.len(), lf_all.len() + rf_all.len());
        // Per left or right row, the up rows chain compatible with it,
        // ascending (`ups[starts[row]..starts[row + 1]]`).
        let (mut starts, mut ups) = (Vec::with_capacity(up0 + 1), Vec::new());
        for row in 0..up0 {
            starts.push(ups.len());
            ups.extend((up0..rows.len()).filter(|&u| rows[row].chain_compatible(rows[u])));
        }
        starts.push(ups.len());
        let mut triples: Vec<Triple> = Vec::new();
        for li in 0..nl {
            for ri in 0..rf_all.len() {
                if !rows[li].chain_compatible(rows[nl + ri]) {
                    continue;
                }
                // `fu` is chain compatible with both `fl` and `fr` exactly
                // when it is with the longer of them, which the shorter is
                // a prefix of; the surrounding loops are
                // `fl.join(fr).join(fu)`.
                let longer = join(li, nl + ri);
                for &u in &ups[starts[longer]..starts[longer + 1]] {
                    let top = join(longer, u);
                    let (surrounding, surround) = (rows[top], set_ids[top]);
                    let ui = u - up0;
                    triples.push(Triple { li, ri, ui, surrounding, surround, sliced: [0; 3] });
                }
            }
        }
        let sliced = std::array::from_fn(|slot| {
            let (of_set, distinct) = intern(sets.iter().map(|s| s.intersection(&dims[slot])));
            for t in triples.iter_mut() {
                t.sliced[slot] = of_set[t.surround as usize];
            }
            distinct
        });
        let child_dists = [0, 1].map(|slot| {
            let (ids, distinct) = intern(layouts.iter().map(|l| l.dists[slot]));
            (ids, distinct.len())
        });
        let rot_rows = std::array::from_fn(|slot| {
            let (ids, distinct) = intern(layouts.iter().map(|l| (l.dists[slot], l.travel[slot])));
            (ids, distinct.len())
        });

        // A layout admits a triple only when its class's excluded index (a
        // Cannon rotation step loop, a reduction's summed loop) is not
        // fused around the node and every slot the class names carries all
        // surrounding fused loops. Both tests read only the class and the
        // triple's loop set, so they run once per (class, set).
        let (classes, class_list) = intern(layouts.iter().map(|l| l.class));
        let admitted: Vec<Vec<usize>> = class_list
            .iter()
            .map(|&(excluded, carried)| {
                let admits: Vec<bool> = sets
                    .iter()
                    .map(|s| {
                        !excluded.is_some_and(|k| s.contains(k))
                            && (0..3).all(|slot| !carried[slot] || s.is_subset(&dims[slot]))
                    })
                    .collect();
                (0..triples.len()).filter(|&t| admits[triples[t].surround as usize]).collect()
            })
            .collect();
        let items = classes
            .iter()
            .enumerate()
            .flat_map(|(p, &class)| admitted[class as usize].iter().map(move |&t| (p, t)))
            .collect();
        Self {
            tensors,
            result,
            layouts,
            child_dists,
            rot_rows,
            up_ids: set_ids[up0..].to_vec(),
            sets,
            triples,
            sliced,
            items,
        }
    }
}

/// A block's node-local prices: per operand slot (left, right, result) the
/// rotation cost and the per-step message words, and the words the result
/// stores.
struct BlockPrice {
    rotate: [f64; 3],
    msg: [u128; 3],
    my_mem: u128,
}

/// Per-worker pricing tables of one node (DESIGN.md §9): the trip-count
/// factor by (layout, surrounding set), per operand slot `(message words,
/// rotation base)` by (the operand's distribution and travel dimension,
/// sliced set), and the result footprint by (layout, up-prefix set). They
/// replace the per-block set intersections, trip-count divisions, hashed
/// lookups and size formulas.
struct Tables {
    trip: LazyTable<f64>,
    rot: [LazyTable<(u128, f64)>; 3],
    foot: LazyTable<u128>,
}

impl Tables {
    fn new(b: &Blocks) -> Self {
        let rows = b.layouts.len();
        Self {
            trip: LazyTable::new(rows, b.sets.len()),
            rot: std::array::from_fn(|slot| {
                LazyTable::new(b.rot_rows[slot].1, b.sliced[slot].len())
            }),
            foot: LazyTable::new(rows, b.sets.len()),
        }
    }

    /// The prices of block `(p, t)`, bit-identical to
    /// [`CostModel::rotate_cost_surrounded`], [`tce_cost::rotate::message_words`]
    /// and [`dist_size`] on the block's arguments. Every travelling slot
    /// is priced; a slot that stays put prices zero rotation and zero
    /// message, which is bit-identical to leaving those terms out
    /// (`x + 0.0 == x` for every non-negative cost). The trip counts read
    /// the result, left and right layouts in that order; for a reduction
    /// that equals the result layout alone, since no admitted loop is the
    /// summed index and the result places every other index where the
    /// child does.
    #[inline]
    fn price(
        &mut self,
        b: &Blocks,
        cm: &CostModel,
        space: &IndexSpace,
        (p, t): (usize, usize),
    ) -> BlockPrice {
        let Layout { pattern, dists: [ldist, rdist, odist], travel, .. } = b.layouts[p];
        let tr = &b.triples[t];
        let mut rotate = [0.0f64; 3];
        let mut msg = [0u128; 3];
        if travel.iter().any(Option::is_some) {
            let set = tr.surround as usize;
            let factor = self
                .trip
                .get(p, set, || trip_factor(&b.sets[set], space, cm, &[odist, ldist, rdist]));
            for (slot, dist) in [ldist, rdist, odist].into_iter().enumerate() {
                let (Some(travel), Some(tensor)) = (travel[slot], b.tensors[slot]) else {
                    continue;
                };
                let (row, sid) = (b.rot_rows[slot].0[p] as usize, tr.sliced[slot] as usize);
                let (words, base) = self.rot[slot].get(row, sid, || {
                    rotation_cell(cm, space, tensor, dist, travel, &b.sliced[slot][sid])
                });
                if pattern.is_some() {
                    msg[slot] = words;
                }
                rotate[slot] = factor * base;
            }
        }
        let up = b.up_ids[tr.ui] as usize;
        let my_mem =
            self.foot.get(p, up, || dist_size(b.result, space, cm.grid, odist, &b.sets[up]));
        BlockPrice { rotate, msg, my_mem }
    }
}

/// The §3.3 combine of a node: every admissible `(layout, fusion triple)`
/// block prices each pair of left and right child options, row by row,
/// after the branch-and-bound tests of [`bnb_skip`] on the block's tail
/// and row. A reduction is a block whose left operand is absent: one zero
/// option on the empty prefix, bound to no child, so the loop runs over
/// the child's slate as one row. Inadmissible pairs are never built
/// as blocks, so `dp.blocks` counts admissible blocks only.
#[allow(clippy::too_many_arguments)]
fn combine(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    sched: &mut crate::sched::Scheduler,
    node: NodeId,
    layouts: &[Layout],
    my_prefixes: &[FusionPrefix],
    sets: &HashMap<NodeId, SolutionSet>,
    limit: u128,
    warm_cut: f64,
    out: &mut SolutionSet,
) -> crate::sched::EnumStats {
    let space = &tree.space;
    let (left, right) = operands(tree, node);
    let lf_all = child_fusions(tree, cfg, left, sets);
    let rf_all = child_fusions(tree, cfg, Some(right), sets);
    let blocks = Blocks::new(tree, node, layouts, &lf_all, &rf_all, my_prefixes);

    type Caches = (SlateCache, SlateCache, Tables);
    // Child options depend only on (edge fusion, required layout), not on
    // which layout/triple asked — cached in the per-worker state, which
    // persists across every run the worker claims, beside the block
    // pricing tables (pure memoization, so cache hits cannot perturb
    // results).
    let mk_state = || -> Caches {
        let [(_, ldists), (_, rdists)] = &blocks.child_dists;
        (
            SlateCache::new(lf_all.len(), *ldists),
            SlateCache::new(rf_all.len(), *rdists),
            Tables::new(&blocks),
        )
    };
    sched.run(&blocks.items, out, mk_state, |chunk, local, state| {
        let (lcache, rcache, tables) = state;
        for &(p, t) in chunk {
            let Layout { pattern, dists: [ldist, rdist, odist], .. } = layouts[p];
            let Triple { li, ri, ui, surrounding, .. } = blocks.triples[t];
            let (fl, fr, fu) = (&lf_all[li], &rf_all[ri], &my_prefixes[ui]);

            let [(lids, _), (rids, _)] = &blocks.child_dists;
            let lslate = lcache.get(li, lids[p], || {
                OptSlate::new(child_options(tree, cm, cfg, left, fl, ldist, sets))
            });
            let rslate = rcache.get(ri, rids[p], || {
                OptSlate::new(child_options(tree, cm, cfg, Some(right), fr, rdist, sets))
            });
            if rslate.opts.is_empty() {
                continue;
            }
            let BlockPrice { rotate, msg, my_mem } = tables.price(&blocks, cm, space, (p, t));
            // This block's exact node-local communication floor (children
            // contribute through the slate floors) and message size.
            let rot_total = rotate[0] + rotate[1] + rotate[2];
            let block_msg = msg[0].max(msg[1]).max(msg[2]);
            let (rc0, rm0, rg0) = rslate.floors[0];
            let ropts = rslate.opts.len() as u64;
            let bnb = local.bounds_active();
            let mut kh = local.key_handle(odist, fu);
            'rows: for (row, lopt) in lslate.opts.iter().enumerate() {
                if bnb {
                    // Tail corner over this row AND every later one: a skip
                    // disposes of every remaining candidate of the block.
                    let (lc, lm, lg) = lslate.floors[row];
                    let tail = &lslate.opts[row..];
                    if bnb_skip(
                        local,
                        &kh,
                        lc + rc0 + rot_total,
                        lm + rm0 + my_mem,
                        block_msg.max(lg).max(rg0),
                        warm_cut,
                        tail.len() as u64 * ropts,
                    ) {
                        account_block(local, tail, rslate, my_mem, block_msg, limit);
                        break 'rows;
                    }
                    // Row corner (this left option against the best of all
                    // right options) — tighter, skips just this row. On the
                    // last row it is the tail corner again, so it is not
                    // asked.
                    if tail.len() > 1
                        && bnb_skip(
                            local,
                            &kh,
                            lopt.comm_cost + lopt.redist_cost + rc0 + rot_total,
                            lopt.mem_words + rm0 + my_mem,
                            block_msg.max(lopt.max_msg_words).max(rg0),
                            warm_cut,
                            ropts,
                        )
                    {
                        let row = std::slice::from_ref(lopt);
                        account_block(local, row, rslate, my_mem, block_msg, limit);
                        continue 'rows;
                    }
                }
                for ropt in &rslate.opts {
                    // An element-wise multiply rotates nothing and a
                    // reduction has no row operand; their zero terms leave
                    // every sum of costs that are not `-0.0` bit-identical
                    // to the shorter one (`x + 0.0 == x`).
                    let cost = lopt.comm_cost
                        + ropt.comm_cost
                        + lopt.redist_cost
                        + ropt.redist_cost
                        + rotate[0]
                        + rotate[1]
                        + rotate[2];
                    local.try_insert(
                        &mut kh,
                        odist,
                        fu,
                        cost,
                        (lopt.mem_words + my_mem) + ropt.mem_words,
                        block_msg.max(lopt.max_msg_words).max(ropt.max_msg_words),
                        lopt.redist_cost > 0.0 || ropt.redist_cost > 0.0,
                        limit,
                        || {
                            let row = left.map(|l| lopt.bind(l, ldist, fl, rotate[0]));
                            let col = ropt.bind(right, rdist, fr, rotate[1]);
                            Some(Box::new(Choice {
                                pattern,
                                children: row.into_iter().chain([col]).collect(),
                                result_rotate_cost: rotate[2],
                                surrounding: surrounding.clone(),
                            }))
                        },
                    );
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_cost::{CostModel, MachineModel};
    use tce_expr::parse;

    fn cm4() -> CostModel {
        CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap()
    }

    /// A reduce node with its summed index distributed pays a reduction
    /// and drops the index from the distribution.
    #[test]
    fn reduce_with_distributed_sum_is_priced() {
        let src = "range i = 8; range t = 8;\ninput A[i,t];\nS[t] = sum[i] A[i,t];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let opt = optimize(&tree, &cm4(), &OptimizerConfig::default()).unwrap();
        // A 2-dim input is always fully distributed (paper style), so `i`
        // is distributed in every option and the reduction must be priced.
        assert!(opt.comm_cost > 0.0);
        // No solution may keep the summed index in its distribution, and
        // the freed grid dimension is left unoccupied (S is 1-dim).
        let i = tree.space.lookup("i").unwrap();
        let set = &opt.sets[&tree.root()];
        assert!(!set.is_empty());
        for s in set.live_indices() {
            assert!(!set.dist(s).contains(i));
            assert!(set.dist(s).d1.is_none() || set.dist(s).d2.is_none());
        }
    }

    /// A reduction over a pinned input binds the leaf through the column
    /// operand's leaf path: the plan pays exactly the redistribution from
    /// the given layout into the one the reduction requires, and passes
    /// every static check. Here keeping `A` in `<i,j>` would leave a
    /// reduction of `S`, so the plan moves `A` to `<t,j>` instead.
    #[test]
    fn reduce_over_a_pinned_input_pays_its_redistribution() {
        let src = "range i = 2; range j = 64; range t = 64;\ninput A[i,j,t];\nS[j,t] = sum[i] A[i,j,t];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let (i, j) = (tree.space.lookup("i").unwrap(), tree.space.lookup("j").unwrap());
        let given = Distribution::pair(i, j);
        let mut cfg = OptimizerConfig::default();
        cfg.input_dists.insert("A".into(), given);
        let cm = cm4();
        let opt = optimize(&tree, &cm, &cfg).unwrap();
        let plan = crate::plan::extract_plan(&tree, &opt);
        let step = plan.step_for("S").unwrap();
        let [a] = &step.operands[..] else { panic!("one operand: {:?}", step.operands) };
        assert!(a.is_leaf);
        assert_eq!(a.produced_dist, given);
        assert_ne!(a.required_dist, given, "the pin is redistributed");
        let want = cm.redistribution_cost(
            &tree.node(a.node).tensor,
            &tree.space,
            given,
            a.required_dist,
            &IndexSet::new(),
        );
        assert!(want > 0.0);
        assert_eq!(a.redist_cost.to_bits(), want.to_bits());
        assert_eq!(opt.comm_cost.to_bits(), (want + step.result_rotate_cost).to_bits());
        crate::check::check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()))
            .to_result()
            .unwrap();
    }

    /// The replay table of two isomorphic matrix products under one
    /// root, `ranges` declaring the second product's indices: each table
    /// entry as `(replaying node, source)` names.
    fn replay_pairs(ranges: &str, cfg: &OptimizerConfig) -> Vec<(String, String)> {
        let src = format!(
            "range a, b, c = 16; {ranges}\n\
             input A[a,b]; input B[b,c]; input C[p,q]; input D[q,r];\n\
             T1[a,c] = sum[b] A[a,b] * B[b,c];\n\
             T2[p,r] = sum[q] C[p,q] * D[q,r];\n\
             S[a,p] = sum[c,r] T1[a,c] * T2[p,r];\n"
        );
        let tree = parse(&src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let floors = tce_cost::lower_bound::subtree_comm_floors(&tree, &cm4(), false);
        let name = |id: NodeId| tree.node(id).tensor.name.clone();
        let mut pairs: Vec<(String, String)> =
            replays(&tree, cfg, &floors).iter().map(|(&n, r)| (name(n), name(r.source))).collect();
        pairs.sort();
        pairs
    }

    /// One product replays the other, the first in postorder (`T2`),
    /// through a monotone rename; a rename that reverses the index order,
    /// or a pin on one side only, leaves both enumerated.
    #[test]
    fn replays_need_a_monotone_rename_and_equal_pins() {
        let cfg = OptimizerConfig::default();
        let t1_from_t2 = vec![("T1".to_string(), "T2".to_string())];
        assert_eq!(replay_pairs("range p, q, r = 16;", &cfg), t1_from_t2);
        assert!(replay_pairs("range r, q, p = 16;", &cfg).is_empty());
        let off = OptimizerConfig { disable_subtree_reuse: true, ..cfg.clone() };
        assert!(replay_pairs("range p, q, r = 16;", &off).is_empty());
        let mut pinned = cfg;
        pinned.input_dists.insert("C".into(), Distribution { d1: None, d2: None });
        assert!(replay_pairs("range p, q, r = 16;", &pinned).is_empty());
    }

    /// The skip helper tests the warm cut before the corner query.
    #[test]
    fn bnb_skip_decides_warm_then_corner() {
        let (d, f) = (Distribution { d1: None, d2: None }, FusionPrefix::empty());
        let mut set = SolutionSet::with_mode(Keep::Pareto, true);
        let mut kh = set.key_handle(d, &f);
        assert!(set.try_insert(&mut kh, d, &f, 10.0, 100, 10, false, u128::MAX, || None));
        let counts = |s: &SolutionSet| (s.bnb_block, s.bnb_warm);
        let inf = f64::INFINITY;
        // The corner undercuts the live entry: keep.
        assert!(!bnb_skip(&mut set, &kh, 5.0, 100, 10, inf, 7));
        assert_eq!(counts(&set), (0, 0));
        // Dominated on its own bound.
        assert!(bnb_skip(&mut set, &kh, 20.0, 100, 10, inf, 7));
        assert_eq!(counts(&set), (1, 0));
        // Over the warm cut: a warm skip, although the corner is dominated.
        assert!(bnb_skip(&mut set, &kh, 20.0, 100, 10, 4.0, 7));
        assert_eq!(counts(&set), (2, 7));
        // Over the warm cut and not dominated: still a warm skip.
        assert!(bnb_skip(&mut set, &kh, 5.0, 100, 10, 4.0, 3));
        assert_eq!(counts(&set), (3, 10));
    }

    /// The element-wise path prices redistribution of misaligned children.
    #[test]
    fn elementwise_requires_alignment() {
        let src = "\
range i = 8; range j = 8; range k = 8; range t = 8;
input A[i,j,t]; input B[j,k,t];
T1[j,t] = sum[i] A[i,j,t];
T2[j,t] = sum[k] B[j,k,t];
T3[j,t] = T1[j,t] * T2[j,t];
S[t] = sum[j] T3[j,t];
";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let opt = optimize(&tree, &cm4(), &OptimizerConfig::default()).unwrap();
        let plan = crate::plan::extract_plan(&tree, &opt);
        let t3 = plan.step_for("T3").unwrap();
        // Element-wise steps have no Cannon pattern and no rotations.
        assert!(t3.pattern.is_none());
        for op in &t3.operands {
            assert_eq!(op.rotate_cost, 0.0);
        }
    }

    /// On a cost tie between a live solution and one it evicted, the root
    /// scan must pick the live one. The dominated entry still sits in
    /// `all` (dead storage for back-pointers) *before* its evictor, so a
    /// scan over `all` would return it from `min_by`'s first-wins
    /// tie-break — resurrecting a solution that wastes memory.
    #[test]
    fn root_scan_skips_evicted_solutions_on_cost_ties() {
        let mut sp = tce_expr::IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 4);
        let (d, f) = (Distribution::pair(a, b), FusionPrefix::empty());
        let mut set = SolutionSet::with_mode(Keep::Pareto, true);
        let mut kh = set.key_handle(d, &f);
        let mut offer = |mem: u128| {
            set.try_insert(&mut kh, d, &f, 10.0, mem, 0, false, u128::MAX, || None);
        };
        offer(100);
        offer(50); // same cost, less memory: evicts #0
        assert_eq!(set.len(), 2, "the evicted entry must stay in storage");
        assert_eq!(set.live_indices().collect::<Vec<_>>(), vec![1]);
        let best = select_root_index(&set, u128::MAX, |_| 0.0);
        assert_eq!(best, Some(1), "the dead twin at index 0 must not win the tie");
    }

    /// An `input_dists` entry naming a non-existent input is an error, not
    /// a silent no-op.
    #[test]
    fn unknown_input_dist_name_is_rejected() {
        let src = "range i = 8; range j = 8; range k = 8;\ninput A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let i = tree.space.lookup("i").unwrap();
        let k = tree.space.lookup("k").unwrap();
        let mut cfg = OptimizerConfig::default();
        cfg.input_dists.insert("Z".into(), Distribution::pair(i, k));
        let err = optimize(&tree, &cm4(), &cfg).unwrap_err();
        match err {
            OptimizeError::Unsupported(m) => {
                assert!(m.contains("`Z`") && m.contains("not an input array"), "{m}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// An `input_dists` layout that is invalid for the named array (here:
    /// distributing A[i,k] along j) is an error, not a silent no-op.
    #[test]
    fn invalid_input_dist_layout_is_rejected() {
        let src = "range i = 8; range j = 8; range k = 8;\ninput A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let i = tree.space.lookup("i").unwrap();
        let j = tree.space.lookup("j").unwrap();
        let mut cfg = OptimizerConfig::default();
        cfg.input_dists.insert("A".into(), Distribution::pair(i, j));
        let err = optimize(&tree, &cm4(), &cfg).unwrap_err();
        match err {
            OptimizeError::Unsupported(m) => {
                assert!(m.contains("not valid for input `A`"), "{m}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // The same layout on B (which has j) is accepted.
        let mut cfg = OptimizerConfig::default();
        let kk = tree.space.lookup("k").unwrap();
        cfg.input_dists.insert("B".into(), Distribution::pair(kk, j));
        optimize(&tree, &cm4(), &cfg).unwrap();
    }

    /// Fixed-pattern restriction is honored verbatim.
    #[test]
    fn fixed_patterns_are_verbatim() {
        use tce_dist::enumerate_patterns;
        let src = "range i = 8; range j = 8; range k = 8;\ninput A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let node = tree.root();
        let pat = enumerate_patterns(&tree.contraction_groups(node).unwrap(), false)[3];
        let mut fixed = HashMap::new();
        fixed.insert(node, pat);
        let cfg = OptimizerConfig { fixed_patterns: Some(fixed), ..Default::default() };
        let opt = optimize(&tree, &cm4(), &cfg).unwrap();
        let plan = crate::plan::extract_plan(&tree, &opt);
        assert_eq!(plan.steps[0].pattern.unwrap(), pat);
    }

    /// Every admissible block of every node of the six workloads at 4, 16
    /// and 64 procs and of the enlarged `ccsd_tiny` cell, priced through a
    /// node's pricing tables, equals the independent formulas bit for bit:
    /// [`CostModel::rotate_cost_surrounded`] and
    /// [`tce_cost::rotate::message_words`] per rotated operand (zero for
    /// the others), [`dist_size`] for the result footprint, and for a
    /// reduce node, whose blocks have an absent left operand, its own
    /// reference: the result rotated along the freed grid dimension with
    /// trip counts over the result layout alone, and no message. The
    /// tables share one cell per
    /// distinct (layout, operand, sliced set) — a table keyed by triple
    /// fills more cells and fails the count.
    #[test]
    fn block_tables_price_every_block_like_the_formulas() {
        use tce_cost::rotate::message_words;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads/");
        let mut cells: Vec<(&str, u32, bool)> = Vec::new();
        for w in ["ccsd", "ccsd_tiny", "fig1", "ladder", "repeated", "transform"] {
            cells.extend([4, 16, 64].map(|procs| (w, procs, false)));
        }
        cells.push(("ccsd_tiny", 64, true));
        for (w, procs, enlarged) in cells {
            let src = std::fs::read_to_string(format!("{dir}{w}.tce")).unwrap();
            let tree = tce_opmin::lower_program(&parse(&src).unwrap()).unwrap().to_tree().unwrap();
            let mut machine = MachineModel::itanium_cluster();
            if enlarged {
                machine.mem_per_node_bytes = (0.0001 * 1024.0 * tce_cost::units::PAPER_MB) as u64;
            }
            let cm = CostModel::for_square(machine, procs).unwrap();
            let cfg = OptimizerConfig {
                allow_replication: enlarged,
                allow_unrelated_rotation: enlarged,
                threads: 1,
                ..Default::default()
            };
            let cell = format!("{w} @ {procs}{}", if enlarged { " enlarged" } else { "" });
            let sets = match crate::portfolio::plan(&tree, &cm, &cfg) {
                Ok(planned) => planned.opt.sets,
                // No plan fits: the search stops before the blocks exist.
                Err(OptimizeError::NoFeasibleSolution { .. }) => continue,
                Err(e) => panic!("{cell}: {e}"),
            };
            let space = &tree.space;
            let filled = |t: &[(u128, f64)]| t.iter().filter(|&&c| c != (0, 0.0)).count();
            for node in tree.postorder() {
                if tree.node(node).is_leaf() {
                    continue;
                }
                let prefixes = enumerate_prefixes(&edge_candidates(&tree, node), usize::MAX);
                let layouts = layouts(&tree, &cfg, node);
                let (left, right) = operands(&tree, node);
                let lf = child_fusions(&tree, &cfg, left, &sets);
                let rf = child_fusions(&tree, &cfg, Some(right), &sets);
                let b = Blocks::new(&tree, node, &layouts, &lf, &rf, &prefixes);
                let mut tables = Tables::new(&b);
                let mut want_rot = [(); 3].map(|_| std::collections::HashSet::new());
                let mut want_foot = std::collections::HashSet::new();
                for &(p, t) in &b.items {
                    let got = tables.price(&b, &cm, space, (p, t));
                    let Layout { pattern, dists: [ldist, rdist, odist], .. } = layouts[p];
                    let tr = &b.triples[t];
                    let s = &lf[tr.li].join(&rf[tr.ri]).join(&prefixes[tr.ui]).as_set();
                    let want: [(f64, u128); 3] = match tree.node(node).kind {
                        // A reduction rotates its result along the grid
                        // dimension the summed index frees, with trip counts
                        // over the result layout alone, and stages no message.
                        NodeKind::Reduce { sum, .. } => {
                            let trip = |j| trip_count(j, space, cm.grid, &[odist]);
                            let reduce = match rdist.position_of(sum) {
                                None => 0.0,
                                Some(rd) => {
                                    want_rot[2].insert((
                                        odist,
                                        rd,
                                        s.intersection(&b.result.dim_set()),
                                    ));
                                    cm.rotate_cost_surrounded(b.result, space, odist, rd, s, trip)
                                }
                            };
                            [(0.0, 0), (0.0, 0), (reduce, 0)]
                        }
                        _ => {
                            let trip = |j| trip_count(j, space, cm.grid, &[odist, ldist, rdist]);
                            let dists = [ldist, rdist, odist];
                            std::array::from_fn(|slot| {
                                let (tensor, dist) = (b.tensors[slot].unwrap(), dists[slot]);
                                match pattern.and_then(|p| p.travel_dim(SLOTS[slot])) {
                                    Some(travel) => {
                                        let sliced = s.intersection(&tensor.dim_set());
                                        want_rot[slot].insert((dist, travel, sliced));
                                        (
                                            cm.rotate_cost_surrounded(
                                                tensor, space, dist, travel, s, trip,
                                            ),
                                            message_words(tensor, space, cm.grid, dist, s),
                                        )
                                    }
                                    None => (0.0, 0),
                                }
                            })
                        }
                    };
                    for (slot, (rot, msg)) in want.into_iter().enumerate() {
                        assert_eq!(got.rotate[slot].to_bits(), rot.to_bits(), "{cell} rotate");
                        assert_eq!(got.msg[slot], msg, "{cell} msg");
                    }
                    let up = prefixes[tr.ui].as_set();
                    assert_eq!(got.my_mem, dist_size(b.result, space, cm.grid, odist, &up));
                    want_foot.insert((p, up));
                }
                for (table, want) in tables.rot.iter().zip(&want_rot) {
                    assert_eq!(filled(&table.cells), want.len(), "{cell}");
                }
                let foot = tables.foot.cells.iter().filter(|&&c| c != 0).count();
                assert_eq!(foot, want_foot.len(), "{cell}");
            }
        }
    }

    /// A tie-dense option list: a few cost levels (with `-0.0` against
    /// `0.0`, and `0.1 + 0.2` against `0.3`), small memory and message
    /// sizes, and every fifth code an exact copy of an earlier option.
    fn options(codes: &[u32]) -> Vec<ChildOpt> {
        let comm = [0.0, -0.0, 0.5, 0.1 + 0.2, 0.3, 1.0];
        let mut v: Vec<ChildOpt> = Vec::new();
        for (i, &c) in codes.iter().enumerate() {
            let (comm_cost, redist_cost, mem_words, max_msg_words) = match c % 5 {
                0 if i > 0 => {
                    let o = &v[c as usize / 5 % i];
                    (o.comm_cost, o.redist_cost, o.mem_words, o.max_msg_words)
                }
                _ => (
                    comm[c as usize % 6],
                    [0.0, 0.25, 0.5][c as usize / 6 % 3],
                    u128::from(c / 18 % 4),
                    u128::from(c / 72 % 3),
                ),
            };
            let produced = Distribution { d1: None, d2: None };
            v.push(ChildOpt {
                sol_index: i,
                produced,
                comm_cost,
                mem_words,
                max_msg_words,
                redist_cost,
            });
        }
        v
    }

    /// The filter's rule: `a` drops `b` when every term is ≤ and `a` comes
    /// first or uses strictly less memory.
    fn drops(a: &ChildOpt, b: &ChildOpt) -> bool {
        a.comm_cost <= b.comm_cost
            && a.redist_cost <= b.redist_cost
            && a.mem_words <= b.mem_words
            && a.max_msg_words <= b.max_msg_words
            && (a.sol_index < b.sol_index || a.mem_words < b.mem_words)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `drop_dominated` keeps an order-preserving subsequence, drops
        /// exactly the options some option of the list drops under the
        /// rule (each with a kept dominator), and is the identity with
        /// pruning off.
        #[test]
        fn drop_dominated_keeps_exactly_the_undominated_options(
            codes in proptest::collection::vec(0u32..216, 0..40),
        ) {
            let all = options(&codes);
            let kept: Vec<usize> =
                drop_dominated(options(&codes), true).iter().map(|o| o.sol_index).collect();
            proptest::prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "order: {:?}", kept);
            for b in &all {
                let is_kept = kept.contains(&b.sol_index);
                let dominated = all.iter().any(|a| drops(a, b));
                proptest::prop_assert_eq!(is_kept, !dominated, "option {}", b.sol_index);
                if !is_kept {
                    proptest::prop_assert!(
                        kept.iter().any(|&k| drops(&all[k], b)),
                        "option {} dropped without a kept dominator", b.sol_index
                    );
                }
            }
            let unfiltered: Vec<usize> =
                drop_dominated(options(&codes), false).iter().map(|o| o.sol_index).collect();
            proptest::prop_assert_eq!(unfiltered, (0..all.len()).collect::<Vec<_>>());
        }
    }
}
