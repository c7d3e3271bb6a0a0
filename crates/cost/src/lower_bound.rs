//! Communication and memory lower bounds for whole expression trees.
//!
//! Per-node floors in the spirit of the communication lower-bound
//! literature (Solomonik–Demmel–Hoefler, arXiv 1707.04618; Al Daas et
//! al., arXiv 2207.10437), specialized to the §3.2 Cannon/redistribution
//! cost model this repository prices plans with. Rather than a generic
//! `Ω(flops/√M)` volume bound — which the paper's empirical `RCost`
//! tables cannot be compared against — each floor is the *exact minimum
//! of the same kernel the optimizer charges*, taken over a **superset**
//! of the configurations the search can reach:
//!
//! * **Per-node communication floor** ([`node_comm_floor`]): for a proper
//!   contraction, the minimum over every Cannon pattern the optimizer
//!   may enumerate under the given `allow_replication` setting and every
//!   fused-surrounding subset of the node's loop indices of the summed
//!   rotation cost, computed by the very [`crate::rotate`] kernel and
//!   [`crate::rotate::trip_count`] rule the DP prices candidates with
//!   (identical `f64` for the realized combination). Redistribution,
//!   element-wise, and reduction costs are floored at their true minimum
//!   of zero, which keeps the bound admissible under every optimizer
//!   configuration.
//! * **Subtree floors** ([`subtree_comm_floors`]): postorder sums of the
//!   per-node floors — a lower bound on the communication cost of *any*
//!   solution the DP can store at that node, used for the warm-start
//!   cut and as the whole-tree certificate ([`comm_lower_bound`]).
//! * **Memory floor** ([`mem_floor_words`]): every plan stores, at every
//!   node, at least the smallest distributed block any layout/fusion
//!   combination allows (leaves and the root cannot be fused away); the
//!   per-node minima sum to a footprint every feasible plan must pay.
//!   [`prove_memory_infeasible`] turns this into a pre-search rejection
//!   of impossible `(expression, memory limit)` pairs.
//!
//! Admissibility argument: minimizing the exact kernel over a superset of
//! reachable configurations can only under-estimate; floating-point
//! re-association across subtree sums is absorbed by
//! [`crate::bound::certify`]'s relative margin (callers certify before
//! comparing against search results). See DESIGN.md §12.

use std::collections::HashMap;

use tce_dist::{dist_size, enumerate_patterns, Distribution, Operand};
use tce_expr::{ExprTree, IndexId, IndexSet, NodeId, NodeKind, Tensor};

use crate::model::CostModel;
use crate::rotate::trip_count;
use crate::units::WORD_BYTES;

/// Budget on `patterns × surrounding-subsets` enumerated per node. Nodes
/// whose combination space exceeds it fall back to the (always
/// admissible) floor of zero instead of stalling the pre-pass; realistic
/// contraction nodes are orders of magnitude below this.
pub const MAX_COMBOS_PER_NODE: usize = 1 << 20;

/// One node's communication floor plus whether it was computed exactly.
///
/// `exact == false` means the enumeration fell back to the degenerate
/// (but still admissible) floor of zero because the node's
/// `patterns × surrounding-subsets` space exceeded
/// [`MAX_COMBOS_PER_NODE`] (or was empty). A gap reported against an
/// inexact floor is still sound — the true floor is only higher — but it
/// is *not* a tight certificate, and callers must surface that.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeFloor {
    /// The admissible floor (model seconds).
    pub floor: f64,
    /// Whether the floor is the exact kernel minimum (no combo-budget
    /// fallback fired at this node).
    pub exact: bool,
}

/// The communication floor of one node: zero except for proper
/// contractions, where it is the minimum summed rotation cost over every
/// Cannon pattern (under the given `allow_replication`) and every fused
/// surrounding `S ⊆ loop_indices` not containing the pattern's rotation
/// index — priced by the same rotation kernel and trip-count rule the DP
/// charges, so the floor never exceeds any candidate's rotation total at
/// this node.
///
/// Each surrounding `S ⊆ loops` is a bitmask over `loops` (bit `b` is
/// `loops[b]`, which ascends like an [`IndexSet`]), so the `2^|loops|`
/// sweep allocates nothing: the rotation-index bit, the per-loop trip
/// counts and each operand's dimension mask are computed once per
/// pattern, and the `RCost` base of an operand is cached densely under
/// `mask & op_mask`, building an [`IndexSet`] only on a cache miss. The
/// summation order and the kernel are those of the DP, so every floor is
/// bit-identical to pricing the combination there.
pub fn node_comm_floor(
    tree: &ExprTree,
    cm: &CostModel,
    node: NodeId,
    allow_replication: bool,
) -> NodeFloor {
    let n = tree.node(node);
    let NodeKind::Contract { left, right, .. } = n.kind else {
        return NodeFloor { floor: 0.0, exact: true };
    };
    let Ok(groups) = tree.contraction_groups(node) else {
        // element-wise multiply: aligned, no rotation
        return NodeFloor { floor: 0.0, exact: true };
    };
    let patterns = enumerate_patterns(&groups, allow_replication);
    let loops: Vec<IndexId> = n.loop_indices().iter().collect();
    if patterns.is_empty()
        || loops.len() >= usize::BITS as usize
        || patterns.len().saturating_mul(1usize << loops.len()) > MAX_COMBOS_PER_NODE
    {
        return NodeFloor { floor: 0.0, exact: false };
    }
    let space = &tree.space;
    let operands: [(&Tensor, Operand); 3] = [
        (&tree.node(left).tensor, Operand::Left),
        (&tree.node(right).tensor, Operand::Right),
        (&n.tensor, Operand::Result),
    ];
    let bit = |j: IndexId| loops.iter().position(|&l| l == j).map_or(0u64, |b| 1 << b);
    let op_masks = operands.map(|(t, _)| t.dims.iter().fold(0u64, |m, &j| m | bit(j)));
    let indices = |mask: u64| -> IndexSet {
        loops.iter().enumerate().filter(|&(b, _)| mask >> b & 1 == 1).map(|(_, &j)| j).collect()
    };
    // RCost base per (operand, S ∩ dims), reset per pattern.
    let mut bases: [Vec<Option<f64>>; 3] = op_masks.map(|m| vec![None; m as usize + 1]);
    let mut trips = vec![0u64; loops.len()];

    let mut best = f64::INFINITY;
    for pat in &patterns {
        let dists = [Operand::Left, Operand::Right, Operand::Result].map(|op| pat.operand_dist(op));
        let [ldist, rdist, odist] = dists;
        let travels = operands.map(|(_, op)| pat.travel_dim(op));
        let rot_bit = pat.rotation_index().map_or(0, bit);
        for (t, &j) in trips.iter_mut().zip(&loops) {
            *t = trip_count(j, space, cm.grid, &[odist, ldist, rdist]);
        }
        for cache in &mut bases {
            cache.fill(None);
        }
        // The rotation kernel factors as (Π_{j∈S} trip(j)) × RCost(sliced
        // block): the sweep multiplies cached bases instead of
        // re-interpolating.
        for mask in 0u64..(1u64 << loops.len()) {
            if mask & rot_bit != 0 {
                continue; // the step loop cannot be fused around it
            }
            let mut factor: u128 = 1;
            let mut rest = mask;
            while rest != 0 {
                factor *= trips[rest.trailing_zeros() as usize] as u128;
                rest &= rest - 1;
            }
            // Left, right, result — the DP's summation order.
            let mut total = 0.0f64;
            for slot in 0..3 {
                let Some(travel) = travels[slot] else { continue };
                let key = mask & op_masks[slot];
                let base = *bases[slot][key as usize].get_or_insert_with(|| {
                    let words =
                        dist_size(operands[slot].0, space, cm.grid, dists[slot], &indices(key));
                    cm.chr.rcost(cm.grid.extent(travel), travel, (words * WORD_BYTES) as f64)
                });
                total += factor as f64 * base;
            }
            if total < best {
                best = total;
            }
        }
    }
    if best.is_finite() {
        NodeFloor { floor: best, exact: true }
    } else {
        // Defensive: every pattern's mask-0 combination contributes a
        // finite total when patterns are non-empty, so this is a fallback.
        NodeFloor { floor: 0.0, exact: false }
    }
}

/// The whole tree's postorder floors, with exactness accounting.
#[derive(Clone, Debug)]
pub struct SubtreeFloors {
    /// `floor[v] = node_comm_floor(v) + Σ floor[children]` — a lower
    /// bound (in exact arithmetic; certify before comparing) on the
    /// subtree communication cost of every solution the DP can store at
    /// `v`.
    pub floors: HashMap<NodeId, f64>,
    /// Whether `v`'s *own* per-node floor was computed exactly (no
    /// combo-budget fallback at `v` itself, children not considered).
    pub node_exact: HashMap<NodeId, bool>,
    /// Number of nodes whose *own* floor fell back to the degenerate
    /// zero (the `lb.floor_fallback` counter).
    pub fallback_nodes: u64,
}

impl SubtreeFloors {
    /// Whether the whole-tree certificate (the root floor) is exact: no
    /// node anywhere in the tree fell back.
    pub fn root_exact(&self) -> bool {
        self.fallback_nodes == 0
    }
}

/// Postorder communication floors with per-node exactness flags and the
/// count of combo-budget fallbacks, so callers can tell a tight
/// certificate from a degenerate one.
pub fn subtree_comm_floors(
    tree: &ExprTree,
    cm: &CostModel,
    allow_replication: bool,
) -> SubtreeFloors {
    let mut floors: HashMap<NodeId, f64> = HashMap::new();
    let mut node_exact: HashMap<NodeId, bool> = HashMap::new();
    let mut fallback_nodes = 0u64;
    for node in tree.postorder() {
        let children: f64 = tree.children(node).iter().map(|c| floors[c]).sum();
        let nf = node_comm_floor(tree, cm, node, allow_replication);
        if !nf.exact {
            fallback_nodes += 1;
        }
        floors.insert(node, nf.floor + children);
        node_exact.insert(node, nf.exact);
    }
    SubtreeFloors { floors, node_exact, fallback_nodes }
}

/// The memory-independent communication lower bound of the whole tree:
/// the root's subtree floor. Every plan the optimizer can emit (any
/// thread count, any pruning mode, any memory limit) costs at least this
/// many model seconds of communication, up to float re-association
/// (certify with [`crate::bound::certify`] before comparing).
pub fn comm_lower_bound(tree: &ExprTree, cm: &CostModel, allow_replication: bool) -> f64 {
    subtree_comm_floors(tree, cm, allow_replication).floors[&tree.root()]
}

/// The smallest per-processor storage (words) any reachable
/// layout/fusion combination leaves at `node`: minimized over every
/// distribution (replication included — a superset of both settings) and
/// every fused subset of the array's dimensions up to `prefix_cap`.
/// Leaves and the root cannot be fused away (leaves are stored in full
/// blocks; the root winner must carry an empty fusion), so their minimum
/// is over distributions alone.
pub fn node_mem_floor(tree: &ExprTree, cm: &CostModel, node: NodeId, prefix_cap: usize) -> u128 {
    let n = tree.node(node);
    let tensor = &n.tensor;
    let dims = tensor.dim_set();
    let dim_list: Vec<IndexId> = dims.iter().collect();
    let cap = if n.is_leaf() || node == tree.root() { 0 } else { prefix_cap.min(dim_list.len()) };
    let dists = Distribution::enumerate(&dims, true);
    let mut best = u128::MAX;
    for mask in 0u32..(1u32 << dim_list.len()) {
        if (mask.count_ones() as usize) > cap {
            continue;
        }
        let fused: IndexSet = dim_list
            .iter()
            .enumerate()
            .filter(|&(b, _)| mask >> b & 1 == 1)
            .map(|(_, &j)| j)
            .collect();
        for &d in &dists {
            best = best.min(dist_size(tensor, &tree.space, cm.grid, d, &fused));
        }
    }
    best
}

/// The footprint floor of the whole tree: the sum over every node of its
/// minimal per-processor storage. The DP's memory accounting telescopes a
/// candidate's `mem_words` into exactly this per-node sum (each node
/// contributes one `dist_size` term), so every emitted plan satisfies
/// `plan.mem_words ≥ mem_floor_words`.
pub fn mem_floor_words(tree: &ExprTree, cm: &CostModel, prefix_cap: usize) -> u128 {
    tree.postorder().into_iter().map(|node| node_mem_floor(tree, cm, node, prefix_cap)).sum()
}

/// Why a `(tree, limit)` pair is provably infeasible before any search.
#[derive(Clone, Debug)]
pub struct MemInfeasible {
    /// The proven footprint floor (words per processor).
    pub floor_words: u128,
    /// The limit it exceeds (words per processor).
    pub limit_words: u128,
    /// Name of the largest single contributor (for the diagnostic).
    pub largest_node: String,
    /// That node's own floor contribution (words).
    pub largest_words: u128,
}

/// The memory-feasibility prover: `Some(proof)` when **no** plan can fit
/// `limit_words` (the per-node storage floors already exceed it), `None`
/// when the floor is inconclusive. A `Some` here means the exponential
/// search is pointless — `optimize()` would end in
/// `NoFeasibleSolution` after enumerating everything.
pub fn prove_memory_infeasible(
    tree: &ExprTree,
    cm: &CostModel,
    limit_words: u128,
    prefix_cap: usize,
) -> Option<MemInfeasible> {
    let mut floor = 0u128;
    let mut largest: (u128, String) = (0, String::new());
    for node in tree.postorder() {
        let words = node_mem_floor(tree, cm, node, prefix_cap);
        floor += words;
        if words > largest.0 {
            largest = (words, tree.node(node).tensor.name.clone());
        }
    }
    (floor > limit_words).then_some(MemInfeasible {
        floor_words: floor,
        limit_words,
        largest_node: largest.1,
        largest_words: largest.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use tce_expr::parse;

    fn matmul(extent: u64) -> ExprTree {
        let src = format!(
            "range i = {extent}; range j = {extent}; range k = {extent};\n\
             input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n"
        );
        parse(&src).unwrap().to_sequence().unwrap().to_tree().unwrap()
    }

    fn cm4() -> CostModel {
        CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap()
    }

    #[test]
    fn matmul_comm_floor_is_positive_and_finite() {
        let tree = matmul(64);
        let cm = cm4();
        let lb = comm_lower_bound(&tree, &cm, false);
        assert!(lb.is_finite());
        assert!(lb > 0.0, "a contraction must move data: {lb}");
    }

    #[test]
    fn mem_floor_never_exceeds_a_real_plan_footprint() {
        // Leaves stored in full minimal blocks + root: for 64×64 arrays on
        // a 2×2 grid the floor is 3 · 64·64/4 = 3072 words.
        let tree = matmul(64);
        let cm = cm4();
        assert_eq!(mem_floor_words(&tree, &cm, 2), 3 * (64 * 64 / 4));
    }

    #[test]
    fn prover_rejects_impossible_limits_and_accepts_loose_ones() {
        let tree = matmul(64);
        let cm = cm4();
        let floor = mem_floor_words(&tree, &cm, 2);
        assert!(prove_memory_infeasible(&tree, &cm, floor, 2).is_none());
        let proof = prove_memory_infeasible(&tree, &cm, floor - 1, 2).expect("must reject");
        assert_eq!(proof.floor_words, floor);
        assert_eq!(proof.limit_words, floor - 1);
        assert!(!proof.largest_node.is_empty());
        assert!(proof.largest_words > 0);
    }

    #[test]
    fn small_trees_have_exact_floors() {
        let tree = matmul(64);
        let cm = cm4();
        let detail = subtree_comm_floors(&tree, &cm, false);
        assert_eq!(detail.fallback_nodes, 0);
        assert!(detail.root_exact());
        assert!(detail.node_exact.values().all(|&e| e));
        assert_eq!(detail.floors[&tree.root()], comm_lower_bound(&tree, &cm, false));
    }

    #[test]
    fn combo_budget_fallback_is_reported_not_silent() {
        // 21 loop indices push patterns × 2^|loops| over the per-node
        // combo budget: the floor degrades to 0 but must say so.
        let mut src = String::new();
        let mut a_dims = Vec::new();
        let mut b_dims = Vec::new();
        for d in 0..10 {
            src.push_str(&format!("range i{d} = 2; range j{d} = 2;\n"));
            a_dims.push(format!("i{d}"));
            b_dims.push(format!("j{d}"));
        }
        src.push_str("range k = 2;\n");
        src.push_str(&format!(
            "input A[{},k]; input B[k,{}];\n",
            a_dims.join(","),
            b_dims.join(",")
        ));
        src.push_str(&format!(
            "C[{},{}] = sum[k] A[{},k]*B[k,{}];\n",
            a_dims.join(","),
            b_dims.join(","),
            a_dims.join(","),
            b_dims.join(",")
        ));
        let tree = parse(&src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let cm = cm4();
        let nf = node_comm_floor(&tree, &cm, tree.root(), false);
        assert_eq!(nf.floor, 0.0);
        assert!(!nf.exact, "combo-budget fallback must be flagged");
        let detail = subtree_comm_floors(&tree, &cm, false);
        assert_eq!(detail.fallback_nodes, 1);
        assert!(!detail.root_exact());
    }

    #[test]
    fn reductions_and_elementwise_floors_are_zero() {
        let src = "range i = 8; range j = 8;\ninput A[i,j];\nS[j] = sum[i] A[i,j];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let cm = cm4();
        assert_eq!(comm_lower_bound(&tree, &cm, false), 0.0);
    }
}
