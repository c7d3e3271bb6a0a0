//! The memory-constrained communication minimization algorithm (§3.3).
//!
//! Bottom-up over the expression tree: at each node, every combination of
//! * generalized-Cannon communication pattern (triplet `{i,j,k}` × role
//!   assignment, §3.1),
//! * fusion prefix with the parent,
//! * children's `(distribution, fusion)` solutions (with redistribution
//!   when an unfused child arrives in a different layout),
//!
//! is evaluated; candidates exceeding the per-processor memory limit are
//! dropped and dominated candidates pruned, exactly as the paper describes.
//! The root's cheapest surviving solution is optimal over the searched
//! space (the search is exhaustive; pruning only removes candidates that
//! cannot be extended into a better complete solution).

use std::collections::HashMap;

use tce_cost::{CostMemo, CostModel};
use tce_dist::{dist_size, enumerate_patterns, CannonPattern, Distribution, GridDim, Operand};
use tce_expr::{ExprTree, IndexId, IndexSet, NodeId, NodeKind};
use tce_fusion::{edge_candidates, enumerate_prefixes, FusionPrefix};

use crate::solution::{ChildBinding, Choice, KeyHandle, SolutionSet};

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
    /// Disable the admissible lower-bound (branch-and-bound) corner skips
    /// in the combine loops. The result and every pre-existing counter are
    /// unchanged either way — only `dp.bnb_*` and the work done differ —
    /// so this exists for ablations and benchmarks.
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
    /// serial-stream order (see [`crate::sched`] and
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
    /// Wall-clock budget (milliseconds) of the request. [`optimize`]
    /// ignores it; its only effect is that [`crate::portfolio::plan`]
    /// first prices one greedy configuration and warm-starts the exact
    /// branch-and-bound with its cost ([`Self::warm_upper_bound`]). The
    /// plan and cost bits are unchanged; only `dp.bnb_*` effort moves.
    pub time_budget_ms: Option<u64>,
    /// Disable the in-run level-1 subtree reuse: with reuse on (the
    /// default), completed node frontiers are keyed by their strict
    /// canonical subtree form (`tce_expr::canon`) plus everything else
    /// that can influence the frontier (edge candidates, leaf pins, corner
    /// floor, warm cut), and an isomorphic subtree replays the stored
    /// Pareto staircase under the rename bijection instead of
    /// re-enumerating. Replay is bit-identical to a fresh enumeration —
    /// only the `dp.subtree_hit`/`dp.subtree_miss` counters and the work
    /// done differ — which the fuzz `cache` oracle verifies
    /// differentially. Reuse is gated off automatically under
    /// `fixed_fusion`/`fixed_patterns` (their pins are keyed by raw node
    /// ids, not subtree structure).
    pub disable_subtree_reuse: bool,
    /// Warm incumbent upper bound (model seconds) from a restricted plan
    /// of the *same* configuration: candidates whose certified subtree
    /// floor plus rest-of-tree floor exceeds it are skipped before the
    /// dominance corner query. Admissible (the incumbent is the cost of a
    /// real plan, so the optimum is ≤ it), hence the winning plan and
    /// cost are bit-identical to a cold run — only search-effort counters
    /// move. Active only with pruning and lower bounds on and no
    /// pattern/fusion pins (the same gate as the corner floors).
    pub warm_upper_bound: Option<f64>,
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
            time_budget_ms: None,
            disable_subtree_reuse: false,
            warm_upper_bound: None,
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
    /// (`false` when the combo-budget fallback collapsed it to zero, or
    /// when lower bounds are disabled). Deterministic.
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
    /// model seconds. Zero (trivially admissible) when lower bounds are
    /// disabled. `comm_cost − comm_lower_bound` is the certified
    /// optimality gap reported by `tce explain` / `tce report`.
    pub comm_lower_bound: f64,
    /// Whether `comm_lower_bound` is the exact kernel minimum at every
    /// node. `false` when any node's floor enumeration fell back to the
    /// degenerate zero (`MAX_COMBOS_PER_NODE` in `tce_cost::lower_bound`)
    /// or when lower bounds are disabled: the certificate is still
    /// admissible, but the reported gap is an over-estimate and must not
    /// be read as tight. Surfaced in `tce explain` / `tce report`; the
    /// per-node breakdown is [`NodeStats::floor_exact`] and the fallback
    /// count is the `lb.floor_fallback` counter.
    pub comm_floor_exact: bool,
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
    if tree.node(tree.root()).is_leaf() {
        return Err(OptimizeError::Unsupported(
            "the expression tree computes nothing (its root is an input array)".into(),
        ));
    }
    validate_input_dists(tree, cfg)?;
    let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
    // Memory-feasibility prover (DESIGN.md §12): every plan must store, at
    // every node, at least the smallest block any layout/fusion allows; if
    // those per-node floors already exceed the limit, the exponential
    // search can only end in `NoFeasibleSolution` — fail now instead.
    if !cfg.disable_lower_bounds
        && tce_cost::lower_bound::prove_memory_infeasible(tree, cm, limit, cfg.max_prefix_len)
            .is_some()
    {
        return Err(OptimizeError::NoFeasibleSolution { limit_words: limit });
    }
    // Per-node subtree communication floors (DESIGN.md §12), certified
    // once here, used two ways: the root floor becomes the plan's
    // optimality certificate (`Optimized::comm_lower_bound`), and the
    // per-node floors strengthen the branch-and-bound corner queries.
    // Each node's floor minimizes the exact rotation kernel over every
    // pattern/surrounding the DP may enumerate and floors every other
    // cost term at its true minimum of zero. Pinned patterns may predate
    // the current `allow_replication` setting, so the certificate widens
    // its pattern universe to the replication superset then; the corner
    // floors simply stay off under pins (they only ever widen skips,
    // never change which plan wins).
    let lb_replication = cfg.allow_replication || cfg.fixed_patterns.is_some();
    // Nearest-grid rcost extrapolations are surfaced per run as a counter
    // delta (the process-wide total minus this snapshot). Concurrent runs
    // can interleave into the delta, which is one more reason the counter
    // is flagged nondeterministic in `tce_obs::names::ALL`.
    let rcost_fallbacks_before = tce_cost::rcost_fallback_count();
    struct Floors {
        corners: HashMap<NodeId, f64>,
        warm_cuts: HashMap<NodeId, f64>,
        root: f64,
        root_exact: bool,
        node_exact: HashMap<NodeId, bool>,
        fallback_nodes: u64,
    }
    let floors = if cfg.disable_lower_bounds {
        Floors {
            corners: HashMap::new(),
            warm_cuts: HashMap::new(),
            root: 0.0,
            root_exact: false,
            node_exact: HashMap::new(),
            fallback_nodes: 0,
        }
    } else {
        let detail = tce_cost::lower_bound::subtree_comm_floors_detailed(tree, cm, lb_replication);
        let raw_root = detail.floors[&tree.root()];
        let root_floor = tce_cost::bound::certify(raw_root);
        let root_exact = detail.root_exact(tree);
        let corners_active =
            !cfg.disable_pruning && cfg.fixed_patterns.is_none() && cfg.fixed_fusion.is_none();
        // Warm-start cut per node: a candidate whose certified subtree
        // floor exceeds `incumbent − rest_floor(node)` can only complete
        // to plans strictly costlier than the incumbent — and the
        // incumbent is the cost of a real plan of this configuration, so
        // the optimum (and every tie with it) survives. `certify` shrinks
        // the rest floor so float re-association cannot make the cut
        // inadmissible. Gated exactly like the corner floors: the skip
        // never changes which plan wins, only the work done.
        let warm_cuts = match cfg.warm_upper_bound {
            Some(ub) if corners_active => detail
                .floors
                .iter()
                .map(|(&n, &f)| {
                    let rest = tce_cost::bound::certify((raw_root - f).max(0.0));
                    (n, ub - rest)
                })
                .collect(),
            _ => HashMap::new(),
        };
        let corners = if corners_active {
            detail.floors.into_iter().map(|(k, v)| (k, tce_cost::bound::certify(v))).collect()
        } else {
            HashMap::new()
        };
        Floors {
            corners,
            warm_cuts,
            root: root_floor,
            root_exact,
            node_exact: detail.node_exact,
            fallback_nodes: detail.fallback_nodes,
        }
    };
    let (corner_floors, comm_lower_bound) = (floors.corners, floors.root);
    let threads = match cfg.threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    };
    let memo = CostMemo::with_shards((threads * 4).max(16));
    let mut sched = crate::sched::Scheduler::new(threads, cfg.spawn_amort_ns);
    let mut sets: HashMap<NodeId, SolutionSet> = HashMap::new();
    let mut stats = Vec::new();
    let mut counters = tce_obs::Counters::new();
    let mut worker_busy_us = tce_obs::metrics::Histogram::default();
    let mut run_span = tce_obs::span("dp", "optimize");
    run_span.arg("threads", threads);

    // Trace events for stream sinks (the progress stream's `start`, `node`
    // and `done` records), all coordinator-side: they are emitted only
    // between nodes on this thread and nothing in the search reads a sink,
    // so installing one cannot perturb results (DESIGN.md §10).
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

    // Level-1 in-run subtree reuse (DESIGN.md §14): each completed node's
    // frontier is memoized under its canonical subtree form plus every
    // other input the enumeration depends on — edge candidates, leaf
    // pins, certified floor and warm cut of every internal node of the
    // subtree, all expressed in canonical index numbering so the key is
    // rename-invariant. A later isomorphic subtree whose canonical index
    // bijection is *monotone* in `IndexId` order replays the stored
    // Pareto staircase through [`SolutionSet::remap`] instead of
    // re-enumerating: bit-identical plans, costs, and per-node statistics
    // (compaction preserves every live/key count the statistics read);
    // only `dp.subtree_hit`/`dp.subtree_miss` and wall clock change.
    // Pinned fusions/patterns key by raw node id, not subtree structure,
    // so reuse is gated off under them.
    let reuse_on =
        !cfg.disable_subtree_reuse && cfg.fixed_fusion.is_none() && cfg.fixed_patterns.is_none();
    let forms = if reuse_on { tce_expr::subtree_forms(tree) } else { HashMap::new() };
    #[derive(PartialEq, Eq, Hash)]
    struct ReuseKey {
        /// Strict canonical subtree hash (`tce_expr::subtree_form`).
        hash: u128,
        /// Fusion-edge candidates (node dims ∩ parent loop indices — a
        /// property of the *parent*, so not derivable from the subtree
        /// hash), as sorted canonical numbers.
        edge_sig: Vec<u32>,
        /// Per-leaf `--pin` signature in canonical node order: `None` for
        /// an unpinned leaf, otherwise the pinned distribution's indices
        /// as canonical numbers.
        pin_sig: Vec<Option<(Option<u32>, Option<u32>)>>,
        /// Certified corner floor of every internal subtree node, in
        /// canonical node order, bit-exact. Keying on *all* descendants
        /// (not just the root of the subtree) guarantees that when this
        /// key matches, every descendant's enumeration inputs matched
        /// too, so the stored `sol_index` back-pointers into child sets
        /// land on identically laid-out arenas.
        floor_bits: Vec<u64>,
        /// Warm-start cut of every internal subtree node, same encoding.
        warm_bits: Vec<u64>,
    }
    struct ReuseEntry {
        form: tce_expr::canon::SubtreeForm,
        /// Post-compaction clone of the completed frontier (counters and
        /// every live/key statistic survive compaction unchanged).
        set: SolutionSet,
        /// The fresh run's pre-compaction arena size, replayed into the
        /// `arena_hw` accounting so the reported high-water matches a
        /// reuse-off run bit-for-bit.
        pre_compact_arena_bytes: u64,
        /// Combine blocks the fresh enumeration scheduled (deterministic,
        /// so the replayed `sched.blocks` total stays bit-identical).
        blocks: u64,
    }
    let mut reuse: HashMap<ReuseKey, ReuseEntry> = HashMap::new();

    for node in tree.postorder() {
        let n = tree.node(node);
        if n.is_leaf() {
            continue; // leaves are bound inline at their parent
        }
        let mut node_span = tce_obs::span("dp", n.tensor.name.as_str());
        let my_prefixes = match &cfg.fixed_fusion {
            Some(fc) => vec![fc.prefix(node)],
            None => enumerate_prefixes(&edge_candidates(tree, node), cfg.max_prefix_len),
        };
        let mut set = SolutionSet::with_mode(!cfg.disable_pruning, !cfg.disable_lower_bounds);
        let node_floor = corner_floors.get(&node).copied().unwrap_or(0.0);
        let warm_cut = floors.warm_cuts.get(&node).copied().unwrap_or(f64::INFINITY);
        // Reuse key for this node, or `None` when reuse is off or any
        // index fails to map (defensive: every pin/edge index is a dim of
        // some subtree tensor, so mapping cannot actually fail — but a
        // silent partial key would be unsound, a skipped node merely slow).
        let reuse_key = if reuse_on {
            (|| {
                let form = forms.get(&node)?;
                let number: HashMap<IndexId, u32> =
                    form.index_order.iter().enumerate().map(|(i, &ix)| (ix, i as u32)).collect();
                let map_ix = |o: Option<IndexId>| -> Option<Option<u32>> {
                    match o {
                        None => Some(None),
                        Some(ix) => number.get(&ix).copied().map(Some),
                    }
                };
                let mut edge_sig = Vec::new();
                for ix in edge_candidates(tree, node).iter() {
                    edge_sig.push(number.get(&ix).copied()?);
                }
                edge_sig.sort_unstable();
                let mut pin_sig = Vec::new();
                let mut floor_bits = Vec::new();
                let mut warm_bits = Vec::new();
                for &m in &form.nodes {
                    let mn = tree.node(m);
                    if mn.is_leaf() {
                        match cfg.input_dists.get(&mn.tensor.name) {
                            None => pin_sig.push(None),
                            Some(d) => pin_sig.push(Some((map_ix(d.d1)?, map_ix(d.d2)?))),
                        }
                    } else {
                        floor_bits.push(corner_floors.get(&m).copied().unwrap_or(0.0).to_bits());
                        warm_bits.push(
                            floors.warm_cuts.get(&m).copied().unwrap_or(f64::INFINITY).to_bits(),
                        );
                    }
                }
                Some(ReuseKey { hash: form.hash, edge_sig, pin_sig, floor_bits, warm_bits })
            })()
        } else {
            None
        };
        let replay = reuse_key.as_ref().and_then(|k| reuse.get(k)).filter(|e| {
            forms.get(&node).is_some_and(|f| {
                e.form.nodes.len() == f.nodes.len() && e.form.monotone_bijection_to(f)
            })
        });
        let (enum_stats, pre_compact_bytes) =
            if let (Some(entry), Some(form)) = (replay, forms.get(&node)) {
                let mut replayed = entry.set.clone();
                let index_map: HashMap<IndexId, IndexId> = entry
                    .form
                    .index_order
                    .iter()
                    .copied()
                    .zip(form.index_order.iter().copied())
                    .collect();
                let node_map: HashMap<NodeId, NodeId> =
                    entry.form.nodes.iter().copied().zip(form.nodes.iter().copied()).collect();
                replayed.remap(&index_map, &node_map);
                set = replayed;
                counters.add(tce_obs::names::SUBTREE_HIT, 1);
                let synth = crate::sched::EnumStats {
                    workers: 1,
                    merge_us: 0,
                    blocks: entry.blocks,
                    steals: 0,
                    busy_us: Vec::new(),
                };
                (synth, entry.pre_compact_arena_bytes)
            } else {
                if reuse_on {
                    counters.add(tce_obs::names::SUBTREE_MISS, 1);
                }
                let fresh = match &n.kind {
                    NodeKind::Contract { left, right, .. } => combine_binary(
                        tree,
                        cm,
                        cfg,
                        &memo,
                        &mut sched,
                        node,
                        *left,
                        *right,
                        &binary_layouts(tree, cfg, node, *left, *right),
                        &my_prefixes,
                        &sets,
                        limit,
                        node_floor,
                        warm_cut,
                        &mut set,
                    ),
                    NodeKind::Reduce { sum, child } => combine_reduce(
                        tree,
                        cm,
                        cfg,
                        &memo,
                        &mut sched,
                        node,
                        *child,
                        *sum,
                        &my_prefixes,
                        &sets,
                        limit,
                        node_floor,
                        warm_cut,
                        &mut set,
                    ),
                    NodeKind::Leaf => unreachable!(),
                };
                (fresh, set.arena_bytes())
            };
        counters.add(tce_obs::names::NODES, 1);
        counters.add(tce_obs::names::CANDIDATES, set.candidates_seen);
        counters.add(tce_obs::names::PRUNED_INFERIOR, set.pruned_inferior);
        counters.add(tce_obs::names::PRUNED_MEMORY, set.pruned_memory);
        counters.add(tce_obs::names::REDIST_FALLBACKS, set.redist_fallbacks);
        counters.add(tce_obs::names::FRONTIER, set.total_live());
        // Like the memo pair, the corner-skip totals depend on worker
        // interleaving (worker-local frontiers differ), so equivalence
        // checks skip them; every other counter is interleaving-invariant.
        counters.add(tce_obs::names::BNB_SKIP, set.bnb_skip);
        counters.add(tce_obs::names::BNB_BLOCK, set.bnb_block);
        counters.add(tce_obs::names::BNB_FLOOR, set.bnb_floor);
        counters.add(tce_obs::names::BNB_WARM, set.bnb_warm);
        // Scheduler counters: block count is the serial item count (a pure
        // function of the search space, identical at every thread count);
        // the steal total is a race outcome and is flagged nondeterministic
        // with the memo/bnb families.
        counters.add(tce_obs::names::BLOCKS, enum_stats.blocks);
        counters.add(tce_obs::names::STEAL, enum_stats.steals);
        // Memo totals are cumulative over the run; `set` overwrites the
        // previous node's sample. Hit/miss counts depend on how worker
        // threads interleave, so equivalence checks must skip them.
        counters.set(tce_obs::names::MEMO_HIT, memo.hits());
        counters.set(tce_obs::names::MEMO_MISS, memo.misses());
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
            floor_exact: floors.node_exact.get(&node).copied().unwrap_or(false),
        });
        // The node is finished: nothing can reference its dead (evicted)
        // entries anymore — parents bind only live indices and run strictly
        // later — so drop them and free their decision records.
        set.compact();
        // Memoize the completed (compacted) frontier for later isomorphic
        // subtrees. First entry per key wins; a replayed set is already
        // stored under this key, so `or_insert_with` never clones it.
        if let (Some(k), Some(form)) = (reuse_key, forms.get(&node)) {
            reuse.entry(k).or_insert_with(|| ReuseEntry {
                form: form.clone(),
                set: set.clone(),
                pre_compact_arena_bytes: pre_compact_bytes,
                blocks: enum_stats.blocks,
            });
        }
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
            Some(target) => memo.redistribution_cost(
                cm,
                root.0,
                root_tensor,
                &tree.space,
                dist,
                target,
                &IndexSet::new(),
            ),
        }
    };
    let best_index = select_root_index(root_set, limit, final_redist)
        .ok_or(OptimizeError::NoFeasibleSolution { limit_words: limit })?;
    let output_redist_cost = final_redist(root_set.dist(best_index));
    let best_cost = root_set.cost(best_index);
    run_span.arg("nodes", counters.get(tce_obs::names::NODES));
    run_span.arg("candidates", counters.get(tce_obs::names::CANDIDATES));
    run_span.arg("comm_cost", best_cost + output_redist_cost);
    drop(run_span);
    // Fallback accounting: the floor-fallback count is a deterministic
    // function of the tree (computed once coordinator-side), so it joins
    // the report counters; the rcost delta is interleaving-dependent.
    counters.add(tce_obs::names::LB_FLOOR_FALLBACK, floors.fallback_nodes);
    counters.add(
        tce_obs::names::RCOST_FALLBACK,
        tce_cost::rcost_fallback_count().saturating_sub(rcost_fallbacks_before),
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
        comm_lower_bound,
        comm_floor_exact: floors.root_exact,
    };
    // Self-check: statically verify the winning plan before handing it
    // out. Always on in debug builds; `cfg.verify` extends it to release.
    if cfg.verify || cfg!(debug_assertions) {
        let plan = crate::plan::extract_plan(tree, &result);
        crate::check::check_plan(tree, &plan, Some(cm), Some(limit))
            .to_result()
            .map_err(OptimizeError::SelfCheck)?;
    }
    Ok(result)
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

/// A child's option list plus suffix aggregates over it, all in the
/// **original** option order (the enumeration order is part of the
/// bit-identity contract, so options are never re-sorted — the suffix
/// tables make the admissible tail bound cheap anyway):
///
/// * `floors[i]` — per-axis minimum of `(comm_cost + redist_cost,
///   mem_words, max_msg_words)` over `opts[i..]` (the lower-bound corner);
/// * `sfx_agg[i]` — the maximum memory and maximum message over `opts[i..]`
///   (an upper bound proving a whole skipped block fits the memory limit),
///   and the number of options in `opts[i..]` with zero redistribution
///   cost (for O(1) `redist_fallbacks` accounting of skipped blocks);
/// * `comm`/`redist`/`mem`/`msg` — structure-of-arrays columns of `opts`,
///   the inputs of the batched [`tce_cost::kernel`] combine kernels (one
///   contiguous lane stream per row of the combine loop, in place of a
///   pointer-chasing scalar chain per candidate).
struct OptSlate {
    opts: Vec<ChildOpt>,
    floors: Vec<(f64, u128, u128)>,
    sfx_agg: Vec<(u128, u128, u64)>,
    comm: Vec<f64>,
    redist: Vec<f64>,
    mem: Vec<u128>,
    msg: Vec<u128>,
}

impl OptSlate {
    fn new(opts: Vec<ChildOpt>) -> Self {
        let floors = tce_cost::bound::suffix_floors(
            opts.iter().map(|o| (o.comm_cost + o.redist_cost, o.mem_words, o.max_msg_words)),
        );
        let n = opts.len();
        let mut sfx_agg = vec![(0u128, 0u128, 0u64); n];
        let (mut mem, mut msg, mut nored) = (0u128, 0u128, 0u64);
        for i in (0..n).rev() {
            mem = mem.max(opts[i].mem_words);
            msg = msg.max(opts[i].max_msg_words);
            nored += (opts[i].redist_cost == 0.0) as u64;
            sfx_agg[i] = (mem, msg, nored);
        }
        Self {
            floors,
            sfx_agg,
            comm: opts.iter().map(|o| o.comm_cost).collect(),
            redist: opts.iter().map(|o| o.redist_cost).collect(),
            mem: opts.iter().map(|o| o.mem_words).collect(),
            msg: opts.iter().map(|o| o.max_msg_words).collect(),
            opts,
        }
    }
}

/// Per-worker scratch for the batched combine kernels: one reusable column
/// per candidate attribute, refilled row by row. Lives in the scheduler's
/// per-worker state so allocations amortize across every run the worker
/// claims.
#[derive(Default)]
struct KernelScratch {
    cost: Vec<f64>,
    mem: Vec<u128>,
    msg: Vec<u128>,
}

/// Account a skipped block `rows × rslate.opts` (every pair proven
/// dominated by a corner query or cut by the warm start) with the exact
/// per-candidate classification [`SolutionSet::try_insert`] would have
/// applied. `agg` is the `OptSlate::sfx_agg` entry of `rows`: their
/// maximum memory, maximum message and number of options without
/// redistribution. O(1) when the maxima prove every pair fits the memory
/// limit (the common case); exact per-pair fallback otherwise.
fn account_block(
    local: &mut SolutionSet,
    rows: &[ChildOpt],
    agg: (u128, u128, u64),
    rslate: &OptSlate,
    my_mem: u128,
    block_msg: u128,
    limit: u128,
) {
    let ((lmem, lmsg, lnored), (rmem, rmsg, rnored)) = (agg, rslate.sfx_agg[0]);
    let pairs = (rows.len() * rslate.opts.len()) as u64;
    if lmem + rmem + my_mem + block_msg.max(lmsg).max(rmsg) <= limit {
        let nored = lnored * rnored;
        local.account_skipped_many(pairs, pairs - nored, 0);
    } else {
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
}

/// Enumerate the ways child `c` can supply its array in `required` layout
/// with fusion `f` on the edge.
#[allow(clippy::too_many_arguments)]
fn child_options(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    memo: &CostMemo,
    c: NodeId,
    f: &FusionPrefix,
    required: Distribution,
    sets: &HashMap<NodeId, SolutionSet>,
) -> Vec<ChildOpt> {
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
                let cost = memo.redistribution_cost(
                    cm,
                    c.0,
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
        set.with_fusion(f)
            .into_iter()
            .map(|i| {
                let redist = memo.redistribution_cost(
                    cm,
                    c.0,
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
            .collect()
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

/// Fusion prefixes available on the edge above child `c`.
fn child_fusions(
    tree: &ExprTree,
    cfg: &OptimizerConfig,
    c: NodeId,
    sets: &HashMap<NodeId, SolutionSet>,
) -> Vec<FusionPrefix> {
    if tree.node(c).is_leaf() {
        // Leaf message slicing has no memory consequences, so leaf edges
        // keep their full prefix menu even under a fixed fusion
        // configuration (`cfg.fixed_fusion` pins only the internal edges).
        enumerate_prefixes(&edge_candidates(tree, c), cfg.max_prefix_len)
    } else {
        sets[&c].fusions()
    }
}

/// One layout a binary node can be computed in: the generalized-Cannon
/// pattern (`None` for an element-wise multiply, which aligns both
/// operands and rotates nothing) plus the left, right and result
/// distributions it requires.
type Layout = (Option<CannonPattern>, Distribution, Distribution, Distribution);

/// The layouts a binary node is searched over, in the serial enumeration
/// order: one per Cannon pattern for a contraction; for an element-wise
/// multiply (shared non-summed indices, e.g. Fig. 1's T3 = T1 × T2) one
/// per result distribution, restricted to each child's dimensions.
fn binary_layouts(
    tree: &ExprTree,
    cfg: &OptimizerConfig,
    node: NodeId,
    left: NodeId,
    right: NodeId,
) -> Vec<Layout> {
    let Ok(groups) = tree.contraction_groups(node) else {
        let dims = tree.node(node).tensor.dim_set();
        let restrict = |d: Distribution, c: NodeId| {
            let t = &tree.node(c).tensor;
            Distribution { d1: d.d1.filter(|&i| t.has_dim(i)), d2: d.d2.filter(|&i| t.has_dim(i)) }
        };
        return Distribution::enumerate(&dims, cfg.allow_replication || dims.len() < 2)
            .into_iter()
            .map(|o| (None, restrict(o, left), restrict(o, right), o))
            .collect();
    };
    let patterns = match cfg.fixed_patterns.as_ref().and_then(|m| m.get(&node)) {
        Some(p) => vec![*p],
        None => enumerate_patterns(&groups, cfg.allow_replication),
    };
    patterns
        .into_iter()
        .map(|p| {
            let dist = |op| p.operand_dist(op);
            (Some(p), dist(Operand::Left), dist(Operand::Right), dist(Operand::Result))
        })
        .collect()
}

/// The one branch-and-bound skip decision (DESIGN.md §9) for a block of
/// `pairs` candidates of key `kh` whose costs are all at least `raw` and
/// whose memory and message sizes are at least `mem` and `msg`. The bound
/// is `certify(raw)` raised to the static subtree floor: that floor is an
/// independent admissible lower bound on every candidate of the node, and
/// the max of two admissible floors is admissible and can only widen the
/// skip. In order:
///
/// 1. *warm*: the bound exceeds the warm-start cut — a static test against
///    the incumbent, checked before the frontier-dependent corner query so
///    it fires identically no matter how the block stream is partitioned
///    across workers;
/// 2. *dominated*: a live entry dominates the corner. When only the
///    static floor made that so, the skip is attributed to it
///    (`bnb_floor`);
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
    node_floor: f64,
    warm_cut: f64,
    pairs: u64,
) -> bool {
    let b = tce_cost::bound::certify(raw).max(node_floor);
    if b > warm_cut {
        local.bnb_warm += pairs;
    } else if local.dominates_corner(kh, b, mem, msg) {
        if b == node_floor && !local.dominates_corner(kh, tce_cost::bound::certify(raw), mem, msg) {
            local.bnb_floor += 1;
        }
    } else {
        return false;
    }
    local.bnb_block += 1;
    true
}

/// The §3.3 combine of a binary node (contraction or element-wise
/// multiply): every `(layout, fusion triple)` block prices each pair of
/// left and right child options a row at a time, after the
/// branch-and-bound tests of [`bnb_skip`] on the block's tail and row.
/// Rotation is priced only for a Cannon layout; an element-wise layout
/// prices zero rotation and zero messages, which is bit-identical to
/// leaving those terms out (`x + 0.0 == x` for every non-negative cost).
#[allow(clippy::too_many_arguments)]
fn combine_binary(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    memo: &CostMemo,
    sched: &mut crate::sched::Scheduler,
    node: NodeId,
    left: NodeId,
    right: NodeId,
    layouts: &[Layout],
    my_prefixes: &[FusionPrefix],
    sets: &HashMap<NodeId, SolutionSet>,
    limit: u128,
    node_floor: f64,
    warm_cut: f64,
    out: &mut SolutionSet,
) -> crate::sched::EnumStats {
    let space = &tree.space;
    let lf_all = child_fusions(tree, cfg, left, sets);
    let rf_all = child_fusions(tree, cfg, right, sets);

    // Pre-filter chain-compatible (f_left, f_right, f_up) triples.
    let mut triples: Vec<(usize, usize, usize)> = Vec::new();
    for (li, fl) in lf_all.iter().enumerate() {
        for (ri, fr) in rf_all.iter().enumerate() {
            if !fl.chain_compatible(fr) {
                continue;
            }
            for (ui, fu) in my_prefixes.iter().enumerate() {
                if fu.chain_compatible(fl) && fu.chain_compatible(fr) {
                    triples.push((li, ri, ui));
                }
            }
        }
    }

    let result_tensor = &tree.node(node).tensor;
    let left_tensor = &tree.node(left).tensor;
    let right_tensor = &tree.node(right).tensor;

    // One item per (layout, triple), layout-major — the serial nesting
    // order, so every claimed run is a contiguous slice of the serial
    // candidate stream (the precondition of [`SolutionSet::absorb`]).
    let items: Vec<(usize, usize)> =
        (0..layouts.len()).flat_map(|p| (0..triples.len()).map(move |t| (p, t))).collect();

    type Caches = (
        HashMap<(usize, Distribution), OptSlate>,
        HashMap<(usize, Distribution), OptSlate>,
        KernelScratch,
    );
    // Child options depend only on (edge fusion, required layout), not on
    // which layout/triple asked — cached in the per-worker state, which
    // persists across every run the worker claims (pure memoization, so
    // cache hits cannot perturb results).
    let mk_state = || -> Caches { (HashMap::new(), HashMap::new(), KernelScratch::default()) };
    sched.run(&items, out, mk_state, |chunk, local, state| {
        let (lcache, rcache, scratch) = state;
        for &(p, t) in chunk {
            let (pat, ldist, rdist, odist) = layouts[p];
            let (li, ri, ui) = triples[t];
            let (fl, fr, fu) = (&lf_all[li], &rf_all[ri], &my_prefixes[ui]);

            // The fused loops surrounding this node.
            let surrounding = fl.join(fr).join(fu).clone();
            // Rotation costs and message sizes (left, right, result).
            let mut rotate = [0.0f64; 3];
            let mut msg = [0u128; 3];
            if let Some(pat) = pat {
                // The rotation step loop cannot be fused around the
                // contraction.
                if pat.rotation_index().is_some_and(|k| surrounding.contains(k)) {
                    continue;
                }
                let surround_set = surrounding.as_set();
                // Per-processor trip count of a surrounding loop: reduced
                // when the pattern distributes that index.
                let trip = |j: IndexId| -> u64 {
                    let dim = odist
                        .position_of(j)
                        .or_else(|| ldist.position_of(j))
                        .or_else(|| rdist.position_of(j));
                    match dim {
                        Some(d) => tce_dist::block_len(space.extent(j), cm.grid.extent(d)),
                        None => space.extent(j),
                    }
                };

                // Paper-faithful restriction: every rotated array must
                // carry all surrounding fused loops (the `MsgFactor`
                // formula's domain). `allow_unrelated_rotation` lifts it.
                if !cfg.allow_unrelated_rotation
                    && pat.rotated_operands().iter().any(|&op| {
                        let dims = match op {
                            Operand::Left => left_tensor.dim_set(),
                            Operand::Right => right_tensor.dim_set(),
                            Operand::Result => result_tensor.dim_set(),
                        };
                        !surround_set.is_subset(&dims)
                    })
                {
                    continue;
                }

                for (slot, op, id, tensor, dist) in [
                    (0usize, Operand::Left, left, left_tensor, ldist),
                    (1, Operand::Right, right, right_tensor, rdist),
                    (2, Operand::Result, node, result_tensor, odist),
                ] {
                    if let Some(travel) = pat.travel_dim(op) {
                        rotate[slot] = memo.rotate_cost_surrounded(
                            cm,
                            id.0,
                            tensor,
                            space,
                            dist,
                            travel,
                            &surround_set,
                            trip,
                        );
                        msg[slot] = tce_cost::rotate::message_words(
                            tensor,
                            space,
                            cm.grid,
                            dist,
                            &surround_set,
                        );
                    }
                }
            }

            let my_mem = dist_size(result_tensor, space, cm.grid, odist, &fu.as_set());

            let lslate = lcache.entry((li, ldist)).or_insert_with(|| {
                OptSlate::new(child_options(tree, cm, cfg, memo, left, fl, ldist, sets))
            });
            let rslate = rcache.entry((ri, rdist)).or_insert_with(|| {
                OptSlate::new(child_options(tree, cm, cfg, memo, right, fr, rdist, sets))
            });
            if rslate.opts.is_empty() {
                continue;
            }
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
                        node_floor,
                        warm_cut,
                        tail.len() as u64 * ropts,
                    ) {
                        let agg = lslate.sfx_agg[row];
                        account_block(local, tail, agg, rslate, my_mem, block_msg, limit);
                        break 'rows;
                    }
                    // Row corner (this left option against the best of all
                    // right options) — tighter, skips just this row.
                    if bnb_skip(
                        local,
                        &kh,
                        lopt.comm_cost + lopt.redist_cost + rc0 + rot_total,
                        lopt.mem_words + rm0 + my_mem,
                        block_msg.max(lopt.max_msg_words).max(rg0),
                        node_floor,
                        warm_cut,
                        ropts,
                    ) {
                        let agg =
                            (lopt.mem_words, lopt.max_msg_words, (lopt.redist_cost == 0.0) as u64);
                        let row = std::slice::from_ref(lopt);
                        account_block(local, row, agg, rslate, my_mem, block_msg, limit);
                        continue 'rows;
                    }
                }
                // Batched row kernels (bit-exact per-element op order; the
                // `u128` adds and message maxima are exactly associative,
                // so the loop-invariant terms fold into the bases).
                tce_cost::kernel::combine7(
                    lopt.comm_cost,
                    lopt.redist_cost,
                    &rslate.comm,
                    &rslate.redist,
                    &rotate,
                    &mut scratch.cost,
                );
                tce_cost::kernel::add_u128(lopt.mem_words + my_mem, &rslate.mem, &mut scratch.mem);
                tce_cost::kernel::max_u128(
                    block_msg.max(lopt.max_msg_words),
                    &rslate.msg,
                    &mut scratch.msg,
                );
                let l_fallback = lopt.redist_cost > 0.0;
                for (i, ropt) in rslate.opts.iter().enumerate() {
                    local.try_insert(
                        &mut kh,
                        odist,
                        fu,
                        scratch.cost[i],
                        scratch.mem[i],
                        scratch.msg[i],
                        l_fallback || rslate.redist[i] > 0.0,
                        limit,
                        || {
                            Some(Box::new(Choice {
                                pattern: pat,
                                children: vec![
                                    ChildBinding {
                                        node: left,
                                        sol_index: lopt.sol_index,
                                        produced_dist: lopt.produced,
                                        required_dist: ldist,
                                        fusion: fl.clone(),
                                        redist_cost: lopt.redist_cost,
                                        rotate_cost: rotate[0],
                                    },
                                    ChildBinding {
                                        node: right,
                                        sol_index: ropt.sol_index,
                                        produced_dist: ropt.produced,
                                        required_dist: rdist,
                                        fusion: fr.clone(),
                                        redist_cost: ropt.redist_cost,
                                        rotate_cost: rotate[1],
                                    },
                                ],
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

#[allow(clippy::too_many_arguments)]
fn combine_reduce(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    memo: &CostMemo,
    sched: &mut crate::sched::Scheduler,
    node: NodeId,
    child: NodeId,
    sum: IndexId,
    my_prefixes: &[FusionPrefix],
    sets: &HashMap<NodeId, SolutionSet>,
    limit: u128,
    node_floor: f64,
    warm_cut: f64,
    out: &mut SolutionSet,
) -> crate::sched::EnumStats {
    let space = &tree.space;
    let result_tensor = &tree.node(node).tensor;
    let child_tensor = &tree.node(child).tensor;
    let cf_all = child_fusions(tree, cfg, child, sets);
    // Candidate child distributions: everything valid for the child array.
    let cdists = Distribution::enumerate(
        &child_tensor.dim_set(),
        cfg.allow_replication || child_tensor.arity() < 2,
    );

    // Compatible (f_child, f_up) pairs, in the serial nesting order (the
    // filters do not depend on the child distribution).
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (ci, fc) in cf_all.iter().enumerate() {
        if fc.contains(sum) {
            continue; // the summed loop belongs to this node, not the edge
        }
        for (ui, fu) in my_prefixes.iter().enumerate() {
            if fu.chain_compatible(fc) {
                pairs.push((ci, ui));
            }
        }
    }

    // Distribution-major order mirrors the serial loop nest.
    let items: Vec<(usize, usize)> =
        (0..cdists.len()).flat_map(|d| (0..pairs.len()).map(move |p| (d, p))).collect();

    type Caches = (HashMap<(usize, Distribution), OptSlate>, KernelScratch);
    let mk_state = || -> Caches { (HashMap::new(), KernelScratch::default()) };
    sched.run(&items, out, mk_state, |chunk, local, state| {
        let (ccache, scratch) = state;
        for &(d, p) in chunk {
            let cdist = cdists[d];
            // The summed dimension disappears; if it was distributed along
            // d, a reduction across grid dimension d combines the partial
            // sums and the result is no longer distributed along d.
            let (odist, reduce_dim) = match cdist.position_of(sum) {
                Some(GridDim::Dim1) => {
                    (Distribution { d1: None, d2: cdist.d2 }, Some(GridDim::Dim1))
                }
                Some(GridDim::Dim2) => {
                    (Distribution { d1: cdist.d1, d2: None }, Some(GridDim::Dim2))
                }
                None => (cdist, None),
            };
            let (ci, ui) = pairs[p];
            let (fc, fu) = (&cf_all[ci], &my_prefixes[ui]);
            let surrounding = fc.join(fu).clone();
            let my_mem = dist_size(result_tensor, space, cm.grid, odist, &fu.as_set());
            // Reduction cost: a ring combine of the (sliced) result block
            // across the reduce dimension, repeated per fused surrounding
            // iteration — exactly the memoized rotate kernel's formula with
            // the result array travelling the freed grid dimension.
            let reduce_cost = match reduce_dim {
                None => 0.0,
                Some(rd) => memo.rotate_cost_surrounded(
                    cm,
                    node.0,
                    result_tensor,
                    space,
                    odist,
                    rd,
                    &surrounding.as_set(),
                    |j: IndexId| -> u64 {
                        odist
                            .position_of(j)
                            .map(|dd| tce_dist::block_len(space.extent(j), cm.grid.extent(dd)))
                            .unwrap_or_else(|| space.extent(j))
                    },
                ),
            };
            let cslate = ccache.entry((ci, cdist)).or_insert_with(|| {
                OptSlate::new(child_options(tree, cm, cfg, memo, child, fc, cdist, sets))
            });
            if cslate.opts.is_empty() {
                continue;
            }
            let mut kh = local.key_handle(odist, fu);
            if local.bounds_active() {
                let (cc0, cm0, cg0) = cslate.floors[0];
                let n = cslate.opts.len() as u64;
                let raw = cc0 + reduce_cost;
                if bnb_skip(local, &kh, raw, cm0 + my_mem, cg0, node_floor, warm_cut, n) {
                    let (max_mem, max_msg, nored) = cslate.sfx_agg[0];
                    if max_mem + my_mem + max_msg <= limit {
                        local.account_skipped_many(n, n - nored, 0);
                    } else {
                        for c2 in &cslate.opts {
                            local.account_skipped(
                                c2.redist_cost > 0.0,
                                c2.mem_words + my_mem + c2.max_msg_words,
                                limit,
                            );
                        }
                    }
                    continue;
                }
            }
            // Batched kernels over the whole child slate (bit-exact
            // per-element op order).
            tce_cost::kernel::combine3(
                &cslate.comm,
                &cslate.redist,
                reduce_cost,
                &mut scratch.cost,
            );
            tce_cost::kernel::add_u128(my_mem, &cslate.mem, &mut scratch.mem);
            for (i, copt) in cslate.opts.iter().enumerate() {
                local.try_insert(
                    &mut kh,
                    odist,
                    fu,
                    scratch.cost[i],
                    scratch.mem[i],
                    cslate.msg[i],
                    cslate.redist[i] > 0.0,
                    limit,
                    || {
                        Some(Box::new(Choice {
                            pattern: None,
                            children: vec![ChildBinding {
                                node: child,
                                sol_index: copt.sol_index,
                                produced_dist: copt.produced,
                                required_dist: cdist,
                                fusion: fc.clone(),
                                redist_cost: copt.redist_cost,
                                rotate_cost: 0.0,
                            }],
                            result_rotate_cost: reduce_cost,
                            surrounding: surrounding.clone(),
                        }))
                    },
                );
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::Solution;
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

    /// The skip helper tests the warm cut before the corner query, and
    /// attributes a dominated skip to the static floor only when the
    /// unfloored corner would not have been dominated.
    #[test]
    fn bnb_skip_decides_warm_then_corner_then_floor() {
        let (d, f) = (Distribution { d1: None, d2: None }, FusionPrefix::empty());
        let mut set = SolutionSet::new();
        let mut kh = set.key_handle(d, &f);
        assert!(set.try_insert(&mut kh, d, &f, 10.0, 100, 10, false, u128::MAX, || None));
        let counts = |s: &SolutionSet| (s.bnb_block, s.bnb_floor, s.bnb_warm);
        let inf = f64::INFINITY;
        // The corner undercuts the live entry: keep.
        assert!(!bnb_skip(&mut set, &kh, 5.0, 100, 10, 0.0, inf, 7));
        assert_eq!(counts(&set), (0, 0, 0));
        // Dominated on its own bound.
        assert!(bnb_skip(&mut set, &kh, 20.0, 100, 10, 0.0, inf, 7));
        assert_eq!(counts(&set), (1, 0, 0));
        // Dominated only because the floor raised the bound.
        assert!(bnb_skip(&mut set, &kh, 5.0, 100, 10, 15.0, inf, 7));
        assert_eq!(counts(&set), (2, 1, 0));
        // Over the warm cut: a warm skip, although the corner is dominated.
        assert!(bnb_skip(&mut set, &kh, 20.0, 100, 10, 0.0, 4.0, 7));
        assert_eq!(counts(&set), (3, 1, 7));
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
        let d = Distribution::pair(a, b);
        let mk = |mem: u128| Solution {
            dist: d,
            fusion: FusionPrefix::empty(),
            comm_cost: 10.0,
            mem_words: mem,
            max_msg_words: 0,
            choice: None,
        };
        let mut set = SolutionSet::new();
        set.insert(mk(100), u128::MAX);
        set.insert(mk(50), u128::MAX); // same cost, less memory: evicts #0
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
}
