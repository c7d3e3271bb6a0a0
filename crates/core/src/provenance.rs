//! Search provenance: what each node kept, what won, and where the
//! seconds go.
//!
//! [`crate::explain`] tells the paper's headline story (constrained vs.
//! unconstrained optimum); this module tells the *search's* story, node by
//! node: the winning `(dist, fusion)` with its cost, the nearest live
//! runner-ups with cost deltas, the per-`(dist, fusion)` frontier
//! occupancy, and a per-communication-kind attribution of the winning
//! plan's cost built with [`CommBreakdown`] from the same uniform-round
//! decomposition the simulator charges. Everything is reconstructed
//! *post-hoc* from the [`Optimized`] solution sets — the DP hot path is
//! untouched — and every listing is sorted, so the output is a
//! deterministic function of the (thread-count-invariant) search result.
//!
//! The output falls into two classes (DESIGN.md §13). *Plan class* — the
//! winners, their costs and patterns, the per-kind breakdown, the totals
//! and the certificate — is a function of the plan alone. *Effort class*
//! — runner-ups, frontier keys, live counts and the `dp.*` counters — is
//! drawn from what the search kept, so the warm start, pruning and subtree
//! reuse move it. `tce explain` renders [`Provenance`] as a per-node table
//! with the effort class in one labelled section after the plan class;
//! `tce report` serializes it (plus simulator roll-ups) as the
//! `tce-report/v5` JSON schema, with the effort class under `search` (v2
//! added the certified `lower_bound` / `gap` pair; v3 the additive `cache`
//! section; v4 dropped the CLI's `planner` / `budget_exhausted` fields
//! with the heuristic planners; v5 moved the effort class into `search`).

use std::collections::HashMap;
use std::fmt::Write as _;

use tce_cost::{CommBreakdown, CostModel};
use tce_dist::cannon::num_steps;
use tce_dist::{CannonPattern, Distribution, Operand, ProcGrid};
use tce_expr::{ExprTree, NodeId, NodeKind};
use tce_fusion::FusionPrefix;

use crate::dp::Optimized;
use crate::plan::{extract_plan, PlanStep};
use crate::solution::KeySummary;

/// Kind names, in the simulator's `CommKind::ALL` order.
pub const KIND_NAMES: [&str; 5] = ["Align", "Shift", "Home", "Redistribute", "Reduce"];

/// Per-kind activity of one step (or a whole plan): model seconds plus the
/// analytic event/message counts the PR 4 ledger proves the simulator
/// reproduces exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindProfile {
    /// Model seconds attributed to this kind.
    pub seconds: f64,
    /// Communication events (rounds) of this kind.
    pub events: u64,
    /// Messages carried by those events.
    pub messages: u64,
}

/// A live alternative the search kept but the plan did not use.
#[derive(Clone, Debug)]
pub struct RunnerUp {
    /// Production distribution of the alternative.
    pub dist: Distribution,
    /// Fusion prefix of the alternative.
    pub fusion: FusionPrefix,
    /// Subtree communication cost (seconds).
    pub cost: f64,
    /// `cost − winner.cost`. At non-root nodes this can be *negative*: the
    /// bound solution is chosen by the parent for its global fit, and a
    /// locally cheaper alternative that costs more downstream stays a
    /// runner-up.
    pub delta: f64,
    /// Per-processor memory (words) of the alternative's subtree.
    pub mem_words: u128,
}

/// One internal node's provenance.
#[derive(Clone, Debug)]
pub struct NodeProvenance {
    /// The tree node.
    pub node: NodeId,
    /// Array name.
    pub name: String,
    /// Winning solution index in the node's final set.
    pub winner_index: usize,
    /// Winning production distribution.
    pub winner_dist: Distribution,
    /// Winning fusion prefix.
    pub winner_fusion: FusionPrefix,
    /// Subtree communication cost of the winner (seconds).
    pub winner_cost: f64,
    /// The winning communication pattern (`None` for reduce/elementwise).
    pub pattern: Option<CannonPattern>,
    /// This step's communication split by kind (this node's contraction
    /// only — child subtree costs are attributed at the child).
    pub breakdown: CommBreakdown,
    /// Per-kind seconds + analytic event/message counts for this step.
    pub kinds: [KindProfile; 5],
    /// Cheapest live alternatives ≠ winner, ascending cost (top-k),
    /// without grid-transposed mirrors (see [`build_provenance`]).
    pub runner_ups: Vec<RunnerUp>,
    /// Per-`(dist, fusion)` live frontier sizes, sorted.
    pub keys: Vec<KeySummary>,
}

/// The whole run's provenance: per-node records plus plan-level totals.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Internal nodes, postorder (execution order).
    pub nodes: Vec<NodeProvenance>,
    /// Final output redistribution (seconds; zero unless a layout was
    /// requested). Attributed to Redistribute in [`Self::total`].
    pub output_redist_cost: f64,
    /// Whole-plan communication by kind, including the output
    /// redistribution. `total.total()` equals [`Optimized::comm_cost`]
    /// up to float summation order (within 1e-9 relative in tests).
    pub total: CommBreakdown,
    /// The headline cost being attributed ([`Optimized::comm_cost`]).
    pub comm_cost: f64,
    /// Certified communication lower bound
    /// ([`Optimized::comm_lower_bound`]): no plan under this cost model
    /// can beat it, so `gap` bounds how far the emitted plan can possibly
    /// be from any (even hypothetical) improvement.
    pub lower_bound: f64,
    /// `comm_cost − lower_bound`, the certified optimality gap.
    pub gap: f64,
    /// Whether `lower_bound` is the exact kernel minimum at every node
    /// ([`Optimized::comm_floor_exact`]). `false` means some node's floor
    /// enumeration fell back to the degenerate zero, so `gap` is an
    /// over-estimate and must not be read as tight.
    pub lower_bound_exact: bool,
}

/// Number of kernel invocations of `step`: the product of the per-
/// processor trip counts of its surrounding fused loops, where a loop over
/// a distributed index covers only the local extent (floor division).
/// Mirrors the simulator's `nest`; the fuzz `ledger` oracle checks the
/// simulator's trace against these counts.
pub fn invocations(tree: &ExprTree, step: &PlanStep, grid: ProcGrid) -> u64 {
    step.surrounding
        .iter()
        .map(|idx| {
            let extent = tree.space.extent(idx);
            let placed = std::iter::once(step.result_dist)
                .chain(step.operands.iter().map(|o| o.required_dist))
                .find_map(|d| d.position_of(idx));
            match placed {
                None => extent,
                Some(d) => extent / u64::from(grid.extent(d)),
            }
        })
        .product()
}

/// Split one step's communication by kind, with analytic event/message
/// counts: the one statement of the ledger correspondence rules.
///
/// * **Redistribute** — once per step for every unfused operand whose
///   produced layout differs from the required one, one message per
///   processor; seconds are the plan's `redist_cost`.
/// * **Align / Shift / Home** — per invocation, a rotating input pays one
///   alignment fetch plus `q − 1` shifts and a rotating result `q − 1`
///   shifts plus one homing round; every round is one message.
/// * **Reduce** — on a patternless step, one allreduce per invocation
///   when the summed index is distributed, one message per processor
///   along that grid dimension; seconds are the `result_rotate_cost`.
pub fn step_ledger(
    tree: &ExprTree,
    step: &PlanStep,
    grid: ProcGrid,
) -> (CommBreakdown, [KindProfile; 5]) {
    let mut breakdown = CommBreakdown::default();
    let mut kinds = [KindProfile::default(); 5];
    let inv = invocations(tree, step, grid);

    // Redistribution: seconds from the ledger; one event per unfused
    // operand arriving in the wrong layout, one message per processor.
    let redist_seconds: f64 = step.operands.iter().map(|o| o.redist_cost).sum();
    let redist_events = step
        .operands
        .iter()
        .filter(|o| o.fusion.is_empty() && o.produced_dist != o.required_dist)
        .count() as u64;
    breakdown.add(&CommBreakdown::redistribution(redist_seconds));
    kinds[3] = KindProfile {
        seconds: redist_seconds,
        events: redist_events,
        messages: redist_events * u64::from(grid.num_procs()),
    };

    match step.pattern {
        Some(pat) => {
            let rounds =
                if pat.rotation_index().is_some() { u64::from(num_steps(grid)) } else { 1 };
            for (role, op) in [Operand::Left, Operand::Right].into_iter().zip(&step.operands) {
                if pat.travel_dim(role).is_some() {
                    let b = CommBreakdown::rotating_input(op.rotate_cost, rounds);
                    breakdown.add(&b);
                    kinds[0].seconds += b.align;
                    kinds[0].events += inv;
                    kinds[1].seconds += b.shift;
                    kinds[1].events += (rounds - 1) * inv;
                }
            }
            if pat.travel_dim(Operand::Result).is_some() {
                let b = CommBreakdown::rotating_result(step.result_rotate_cost, rounds);
                breakdown.add(&b);
                kinds[1].seconds += b.shift;
                kinds[1].events += (rounds - 1) * inv;
                kinds[2].seconds += b.home;
                kinds[2].events += inv;
            }
            // Every rotation round is one nearest-neighbour message.
            for k in &mut kinds[0..3] {
                k.messages = k.events;
            }
        }
        None => {
            // Patternless: any result cost is a distributed reduction.
            breakdown.add(&CommBreakdown::reduction(step.result_rotate_cost));
            kinds[4].seconds = step.result_rotate_cost;
            let distributed_sum = match &tree.node(step.node).kind {
                NodeKind::Reduce { sum, .. } => step.operands[0].required_dist.position_of(*sum),
                _ => None,
            };
            if let Some(d) = distributed_sum {
                kinds[4].events = inv;
                kinds[4].messages = inv * u64::from(grid.extent(d));
            }
        }
    }
    (breakdown, kinds)
}

/// Map each internal node to the solution index the winning plan bound,
/// by walking the decision records from the root winner.
fn winner_indices(tree: &ExprTree, opt: &Optimized) -> HashMap<NodeId, usize> {
    let mut winners = HashMap::new();
    let mut stack = vec![(tree.root(), opt.best_index)];
    while let Some((node, index)) = stack.pop() {
        winners.insert(node, index);
        if let Some(choice) = opt.sets[&node].choice(index) {
            for b in &choice.children {
                if !tree.node(b.node).is_leaf() {
                    stack.push((b.node, b.sol_index));
                }
            }
        }
    }
    winners
}

/// Whether `a` and `b` differ only by a grid transposition (`<x,y>` vs
/// `<y,x>`).
fn transposed(a: Distribution, b: Distribution) -> bool {
    a != b && a.d1 == b.d2 && a.d2 == b.d1
}

/// Build the full provenance of an optimization result. `top_k` bounds the
/// runner-up listing per node (the acceptance bar is 3). A live entry
/// that is only a grid-transposed mirror of the winner or of a runner-up
/// already listed — transposed distribution, same fusion, equal cost bits
/// — is skipped: on a symmetric grid it says nothing new.
pub fn build_provenance(
    tree: &ExprTree,
    opt: &Optimized,
    cm: &CostModel,
    top_k: usize,
) -> Provenance {
    let grid = cm.grid;
    let plan = extract_plan(tree, opt);
    let steps: HashMap<NodeId, &PlanStep> = plan.steps.iter().map(|s| (s.node, s)).collect();
    let winners = winner_indices(tree, opt);

    let mut nodes = Vec::new();
    let mut total = CommBreakdown::default();
    for node in tree.postorder() {
        let n = tree.node(node);
        if n.is_leaf() {
            continue;
        }
        let set = &opt.sets[&node];
        let winner_index = winners[&node];
        let winner_cost = set.cost(winner_index);

        // Cheapest live alternatives, deterministic order: cost ascending,
        // then storage index (live_indices is already ascending).
        let mut alts: Vec<usize> = set.live_indices().filter(|&i| i != winner_index).collect();
        alts.sort_by(|&a, &b| set.cost(a).total_cmp(&set.cost(b)).then(a.cmp(&b)));
        let mut shown = vec![winner_index];
        for i in alts {
            if shown.len() > top_k {
                break;
            }
            let mirror = shown.iter().any(|&j| {
                transposed(set.dist(i), set.dist(j))
                    && set.fusion(i) == set.fusion(j)
                    && set.cost(i).to_bits() == set.cost(j).to_bits()
            });
            if !mirror {
                shown.push(i);
            }
        }
        let runner_ups = shown[1..]
            .iter()
            .map(|&i| RunnerUp {
                dist: set.dist(i),
                fusion: set.fusion(i).clone(),
                cost: set.cost(i),
                delta: set.cost(i) - winner_cost,
                mem_words: set.mem(i),
            })
            .collect();

        let (breakdown, kinds) = match steps.get(&node) {
            Some(step) => step_ledger(tree, step, grid),
            // Unreachable for a well-formed plan (every internal node of
            // the winning tree has a step), but stay total.
            None => (CommBreakdown::default(), [KindProfile::default(); 5]),
        };
        total.add(&breakdown);

        nodes.push(NodeProvenance {
            node,
            name: n.tensor.name.clone(),
            winner_index,
            winner_dist: set.dist(winner_index),
            winner_fusion: set.fusion(winner_index).clone(),
            winner_cost,
            pattern: steps.get(&node).and_then(|s| s.pattern),
            breakdown,
            kinds,
            runner_ups,
            keys: set.key_summaries(),
        });
    }
    total.add(&CommBreakdown::redistribution(opt.output_redist_cost));
    Provenance {
        nodes,
        output_redist_cost: opt.output_redist_cost,
        total,
        comm_cost: opt.comm_cost,
        lower_bound: opt.comm_lower_bound,
        gap: opt.comm_cost - opt.comm_lower_bound,
        lower_bound_exact: opt.comm_floor_exact,
    }
}

/// Render a key as `dist/fusion` (fusion omitted when empty).
fn render_key(space: &tce_expr::IndexSpace, dist: Distribution, fusion: &FusionPrefix) -> String {
    if fusion.is_empty() {
        dist.render(space)
    } else {
        format!("{} fused {}", dist.render(space), fusion.render(space))
    }
}

/// The `tce explain` per-node table: the plan-class lines (winners,
/// per-kind breakdowns, totals, certificate) first, then one labelled
/// search-effort section with each node's runner-ups and frontier.
pub fn render_provenance(tree: &ExprTree, prov: &Provenance) -> String {
    let space = &tree.space;
    let mut out = String::new();
    for np in &prov.nodes {
        let pattern = match &np.pattern {
            Some(p) => p.render(space),
            None => "(no pattern)".to_string(),
        };
        let _ = writeln!(
            out,
            "{}: winner {} — {:.6} s, pattern {}",
            np.name,
            render_key(space, np.winner_dist, &np.winner_fusion),
            np.winner_cost,
            pattern,
        );
        let b = &np.breakdown;
        let _ = writeln!(
            out,
            "  step comm by kind: align {:.6}  shift {:.6}  home {:.6}  redist {:.6}  reduce {:.6}",
            b.align, b.shift, b.home, b.redistribute, b.reduce
        );
    }
    if prov.output_redist_cost > 0.0 {
        let _ = writeln!(out, "final output redistribution: {:.6} s", prov.output_redist_cost);
    }
    let t = &prov.total;
    let _ = writeln!(
        out,
        "total comm by kind: align {:.6}  shift {:.6}  home {:.6}  redist {:.6}  reduce {:.6}",
        t.align, t.shift, t.home, t.redistribute, t.reduce
    );
    let _ = writeln!(out, "total comm cost: {:.6} s (plan: {:.6} s)", t.total(), prov.comm_cost);
    let _ = writeln!(
        out,
        "certified lower bound: {:.6} s (gap {:.6} s{})",
        prov.lower_bound,
        prov.gap,
        if prov.lower_bound_exact { "" } else { "; floor inexact — gap is an over-estimate" }
    );
    let _ = writeln!(
        out,
        "search effort (drawn from the candidates this search kept; the lines above do not \
         depend on it):"
    );
    for np in &prov.nodes {
        let _ = writeln!(out, "  {}:", np.name);
        if np.runner_ups.is_empty() {
            let _ = writeln!(out, "    runner-ups: none among the kept candidates");
        }
        for (i, r) in np.runner_ups.iter().enumerate() {
            let _ = writeln!(
                out,
                "    runner-up {}: {} — {:.6} s (Δ {:+.6})",
                i + 1,
                render_key(space, r.dist, &r.fusion),
                r.cost,
                r.delta,
            );
        }
        let keys: Vec<String> = np
            .keys
            .iter()
            .map(|k| format!("{}×{}", render_key(space, k.dist, &k.fusion), k.live))
            .collect();
        let _ = writeln!(
            out,
            "    frontier: {} live over {} keys [{}]",
            np.keys.iter().map(|k| k.live).sum::<usize>(),
            np.keys.len(),
            keys.join(", ")
        );
    }
    out
}

/// The `tce-report/v5` machine-readable roll-up of the optimizer side.
/// Every field is a deterministic function of the search result: wall
/// clock and the interleaving-dependent counters
/// (flagged in [`tce_obs::names::ALL`]) are excluded, so the JSON is
/// bit-identical at any thread count.
///
/// The top level is plan class: the same bytes whatever the search
/// effort (threads, warm start, subtree reuse, bounds). The `search`
/// object depends on search effort: the deterministic counters, the arena
/// high-water, the level-1 reuse tallies and each node's candidate, prune,
/// live and frontier statistics with its runner-ups.
pub fn report_json(
    tree: &ExprTree,
    opt: &Optimized,
    cm: &CostModel,
    top_k: usize,
) -> serde_json::Value {
    use serde_json::{Number, Value};
    let uint = |v: u64| Value::Number(Number::UInt(u128::from(v)));
    let big = |v: u128| Value::Number(Number::UInt(v));
    let float = |v: f64| Value::Number(Number::Float(v));
    let string = |s: String| Value::String(s);
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let space = &tree.space;

    let prov = build_provenance(tree, opt, cm, top_k);

    let kind_obj = |kinds: &[KindProfile; 5]| {
        Value::Object(
            KIND_NAMES
                .iter()
                .zip(kinds.iter())
                .map(|(name, k)| {
                    (
                        name.to_string(),
                        obj(vec![
                            ("seconds", float(k.seconds)),
                            ("events", uint(k.events)),
                            ("messages", uint(k.messages)),
                        ]),
                    )
                })
                .collect(),
        )
    };

    let mut kind_totals = [KindProfile::default(); 5];
    let mut plan_nodes = Vec::new();
    let mut search_nodes = Vec::new();
    for (np, stats) in prov.nodes.iter().zip(opt.stats.iter()) {
        for (t, k) in kind_totals.iter_mut().zip(np.kinds.iter()) {
            t.seconds += k.seconds;
            t.events += k.events;
            t.messages += k.messages;
        }
        plan_nodes.push(obj(vec![
            ("name", string(np.name.clone())),
            ("winner_dist", string(np.winner_dist.render(space))),
            ("winner_fusion", string(np.winner_fusion.render(space))),
            ("winner_cost", float(np.winner_cost)),
            ("pattern", np.pattern.map_or(Value::Null, |p| string(p.render(space)))),
            ("comm_by_kind", kind_obj(&np.kinds)),
            ("floor_exact", Value::Bool(stats.floor_exact)),
        ]));
        let runner_ups = np
            .runner_ups
            .iter()
            .map(|r| {
                obj(vec![
                    ("dist", string(r.dist.render(space))),
                    ("fusion", string(r.fusion.render(space))),
                    ("cost", float(r.cost)),
                    ("delta", float(r.delta)),
                    ("mem_words", big(r.mem_words)),
                ])
            })
            .collect();
        let keys = np
            .keys
            .iter()
            .map(|k| {
                obj(vec![
                    ("dist", string(k.dist.render(space))),
                    ("fusion", string(k.fusion.render(space))),
                    ("live", uint(k.live as u64)),
                ])
            })
            .collect();
        search_nodes.push(obj(vec![
            ("name", string(np.name.clone())),
            ("candidates", uint(stats.candidates)),
            ("pruned_inferior", uint(stats.pruned_inferior)),
            ("pruned_memory", uint(stats.pruned_memory)),
            ("redist_fallbacks", uint(stats.redist_fallbacks)),
            ("live", uint(stats.live as u64)),
            ("keys", uint(stats.keys as u64)),
            ("widest_front", uint(stats.widest_front as u64)),
            ("arena_hw_bytes", uint(stats.arena_hw_bytes)),
            ("runner_ups", Value::Array(runner_ups)),
            ("frontier_keys", Value::Array(keys)),
        ]));
    }

    // Level-1 reuse tallies: the in-run subtree reuse, counted
    // deterministically at any thread count.
    let l1_hits = opt.counters.get(tce_obs::names::SUBTREE_HIT);
    let l1_misses = opt.counters.get(tce_obs::names::SUBTREE_MISS);
    let l1_rate =
        if l1_hits + l1_misses == 0 { 0.0 } else { l1_hits as f64 / (l1_hits + l1_misses) as f64 };
    let counters = opt
        .counters
        .iter()
        .filter(|&(name, _)| tce_obs::names::is_deterministic(name))
        .map(|(name, v)| (name.to_string(), uint(v)))
        .collect();
    let search = obj(vec![
        ("counters", Value::Object(counters)),
        ("arena_hw_bytes", uint(opt.arena_hw_bytes)),
        (
            "cache",
            obj(vec![
                ("level1_hits", uint(l1_hits)),
                ("level1_misses", uint(l1_misses)),
                ("level1_hit_rate", float(l1_rate)),
            ]),
        ),
        ("nodes", Value::Array(search_nodes)),
    ]);

    // The report path always runs the search (provenance needs the live
    // solution sets), so level 2 is reported as not hit.
    let cache = obj(vec![
        ("canonical_hash", string(format!("{:032x}", tce_expr::canonical_form(tree).hash))),
        ("level2_hit", Value::Bool(false)),
    ]);
    let t = &prov.total;
    let seconds = Value::Object(
        KIND_NAMES
            .iter()
            .zip([t.align, t.shift, t.home, t.redistribute, t.reduce])
            .map(|(n, s)| (n.to_string(), float(s)))
            .collect(),
    );
    obj(vec![
        ("schema", string("tce-report/v5".to_string())),
        ("cache", cache),
        ("comm_cost", float(opt.comm_cost)),
        ("lower_bound", float(prov.lower_bound)),
        ("lower_bound_exact", Value::Bool(prov.lower_bound_exact)),
        ("gap", float(prov.gap)),
        ("output_redist_cost", float(opt.output_redist_cost)),
        ("mem_words", big(opt.mem_words)),
        ("max_msg_words", big(opt.max_msg_words)),
        (
            "comm_by_kind",
            obj(vec![("seconds", seconds), ("step_profiles", kind_obj(&kind_totals))]),
        ),
        ("nodes", Value::Array(plan_nodes)),
        ("search", search),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{optimize, OptimizerConfig};
    use tce_cost::MachineModel;
    use tce_expr::parse;

    fn matmul() -> (ExprTree, CostModel) {
        let src = "range i = 16; range j = 16; range k = 16;\n\
                   input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
        (tree, cm)
    }

    #[test]
    fn breakdown_sums_to_the_plan_cost() {
        let (tree, cm) = matmul();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let prov = build_provenance(&tree, &opt, &cm, 3);
        let total = prov.total.total();
        assert!(
            (total - opt.comm_cost).abs() <= 1e-9 * opt.comm_cost.abs().max(1.0),
            "breakdown {total} vs plan {}",
            opt.comm_cost
        );
        // Per-node: the step breakdown equals the plan step's comm.
        let plan = extract_plan(&tree, &opt);
        for np in &prov.nodes {
            let step = plan.steps.iter().find(|s| s.node == np.node).unwrap();
            let t = np.breakdown.total();
            assert!(
                (t - step.step_comm()).abs() <= 1e-9 * step.step_comm().abs().max(1.0),
                "{}: breakdown {t} vs step {}",
                np.name,
                step.step_comm()
            );
        }
    }

    #[test]
    fn winners_match_the_extracted_plan() {
        let (tree, cm) = matmul();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let prov = build_provenance(&tree, &opt, &cm, 3);
        let plan = extract_plan(&tree, &opt);
        for np in &prov.nodes {
            let step = plan.steps.iter().find(|s| s.node == np.node).unwrap();
            assert_eq!(np.winner_dist, step.result_dist, "{}", np.name);
            assert_eq!(&np.winner_fusion, &step.result_fusion, "{}", np.name);
            // Runner-ups never repeat the winner and are cost-ascending.
            for pair in np.runner_ups.windows(2) {
                assert!(pair[0].cost <= pair[1].cost);
            }
        }
    }

    /// On `ccsd` at 16 processors most Δ 0 runner-ups used to be grid
    /// transpositions of the winner or of each other (`<b,c>` beside
    /// `<c,b>`); none may be listed now.
    #[test]
    fn runner_ups_skip_transposed_mirrors() {
        use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let prov = build_provenance(&tree, &opt, &cm, 3);
        for np in &prov.nodes {
            assert_eq!(np.runner_ups.len(), 3, "{}: enough distinct runner-ups", np.name);
            let listed = std::iter::once((np.winner_dist, &np.winner_fusion, np.winner_cost))
                .chain(np.runner_ups.iter().map(|r| (r.dist, &r.fusion, r.cost)))
                .collect::<Vec<_>>();
            for (i, a) in listed.iter().enumerate() {
                for b in &listed[..i] {
                    assert!(
                        !(transposed(a.0, b.0) && a.1 == b.1 && a.2.to_bits() == b.2.to_bits()),
                        "{}: {} mirrors {}",
                        np.name,
                        a.0.render(&tree.space),
                        b.0.render(&tree.space)
                    );
                }
            }
        }
    }

    #[test]
    fn rendering_mentions_every_node_and_the_total() {
        let (tree, cm) = matmul();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let prov = build_provenance(&tree, &opt, &cm, 3);
        let text = render_provenance(&tree, &prov);
        for np in &prov.nodes {
            assert!(text.contains(&np.name), "{text}");
        }
        assert!(text.contains("total comm by kind:"), "{text}");
        assert!(text.contains("runner-up"), "{text}");
    }

    #[test]
    fn report_json_is_schema_stable_and_deterministic() {
        let (tree, cm) = matmul();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let a = serde_json::to_string_pretty(&report_json(&tree, &opt, &cm, 3)).unwrap();
        let opt2 = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let b = serde_json::to_string_pretty(&report_json(&tree, &opt2, &cm, 3)).unwrap();
        assert_eq!(a, b, "same search, same report bytes");
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("tce-report/v5"));
        assert!(v.get("comm_by_kind").is_some());
        // The cache section records the canonical identity; the report
        // path never serves level 2. The level-1 reuse tallies are effort
        // class, under `search`.
        let cache = v.get("cache").expect("cache section");
        let hash = cache.get("canonical_hash").and_then(|h| h.as_str()).expect("hash");
        assert_eq!(hash.len(), 32, "canonical hash must be 32 hex chars: {hash}");
        assert!(matches!(cache.get("level2_hit"), Some(serde_json::Value::Bool(false))));
        let search = v.get("search").expect("search section");
        let l1 = search.get("cache").expect("search.cache");
        assert!(l1.get("level1_hit_rate").and_then(|r| r.as_f64()).is_some());
        // The certificate is admissible and carried into the report.
        let lb = v.get("lower_bound").and_then(|x| x.as_f64()).expect("lower_bound");
        let cost = v.get("comm_cost").and_then(|x| x.as_f64()).expect("comm_cost");
        let gap = v.get("gap").and_then(|x| x.as_f64()).expect("gap");
        assert!(lb > 0.0 && lb <= cost, "lb {lb} vs cost {cost}");
        assert!((gap - (cost - lb)).abs() <= 1e-12 * cost.abs().max(1.0));
        assert!(v.get("nodes").and_then(|n| n.as_array()).map(|n| !n.is_empty()).unwrap_or(false));
        // No effort-class field leaks into the plan-class nodes.
        for node in v.get("nodes").and_then(|n| n.as_array()).expect("nodes") {
            for key in ["candidates", "live", "runner_ups", "frontier_keys"] {
                assert!(node.get(key).is_none(), "{key} outside `search`: {node:?}");
            }
        }
        // The nondeterministic counters never leak into the report.
        let counters = search.get("counters").expect("counters section");
        for (name, deterministic) in tce_obs::names::ALL {
            assert!(deterministic || counters.get(name).is_none(), "{name} leaked into the report");
        }
    }
}
