//! Property tests for `tce_cost::lower_bound`: over the same random-tree
//! distribution the fuzzer uses, the certified communication floor never
//! exceeds the DP optimum, and the storage floor never exceeds the true
//! footprint of any plan the optimizer emits.
//!
//! These are the admissibility invariants the branch-and-bound wiring in
//! `tce-core` relies on (DESIGN.md §12): an inadmissible floor would not
//! just weaken a certificate, it could cut the optimum with the warm cut.
//!
//! A third property is why the search does not raise its corner queries
//! to the per-node floors (DESIGN.md §9): every live entry of every node
//! costs strictly more than the certified subtree floor of its node (or
//! both are 0), so a corner raised to that floor is never dominated by a
//! live entry of the node.
//!
//! Last, the allocation-free bitmask sweep of `node_comm_floor` returns
//! the same floor bits and exactness flag as the `IndexSet` sweep it
//! replaced (`node_comm_floor_reference`, kept here as the oracle), on
//! every node.

use std::collections::HashMap;

use tensor_contraction_opt::bench::randtree::{random_tree, TreeParams};
use tensor_contraction_opt::core::{extract_plan, optimize, OptimizerConfig};
use tensor_contraction_opt::cost::lower_bound::{
    comm_lower_bound, mem_floor_words, node_comm_floor, prove_memory_infeasible,
    subtree_comm_floors, NodeFloor, MAX_COMBOS_PER_NODE,
};
use tensor_contraction_opt::cost::units::WORD_BYTES;
use tensor_contraction_opt::cost::{
    bound, Characterization, CostModel, GridTable, MachineModel, RCostPoint,
};
use tensor_contraction_opt::dist::{block_len, dist_size, enumerate_patterns, Operand, ProcGrid};
use tensor_contraction_opt::expr::{parse, ExprTree, IndexId, IndexSet, NodeId, NodeKind, Tensor};
use tensor_contraction_opt::opmin::lower_program;

const SEEDS: u64 = 60;

fn models() -> Vec<CostModel> {
    [4u32, 16]
        .iter()
        .map(|&p| CostModel::for_square(MachineModel::itanium_cluster(), p).expect("square"))
        .collect()
}

#[test]
fn certified_comm_floor_never_exceeds_dp_optimum() {
    let params = TreeParams::default();
    for seed in 0..SEEDS {
        let tree = random_tree(seed, &params);
        for cm in &models() {
            for replication in [false, true] {
                let cfg = OptimizerConfig { allow_replication: replication, ..Default::default() };
                let Ok(opt) = optimize(&tree, cm, &cfg) else { continue };
                let certified = bound::certify(comm_lower_bound(&tree, cm, replication));
                assert!(
                    certified <= opt.comm_cost || (certified - opt.comm_cost).abs() < 1e-9,
                    "seed {seed} procs {} replication {replication}: \
                     certified floor {certified} > optimum {}",
                    cm.grid.num_procs(),
                    opt.comm_cost
                );
                // The wired-through value agrees with a fresh computation.
                assert!(
                    (opt.comm_lower_bound - certified).abs() <= 1e-12 * certified.abs().max(1.0),
                    "seed {seed}: Optimized.comm_lower_bound {} != recomputed {certified}",
                    opt.comm_lower_bound
                );
            }
        }
    }
}

#[test]
fn memory_floor_never_exceeds_emitted_plan_footprint() {
    let params = TreeParams::default();
    for seed in 0..SEEDS {
        let tree = random_tree(seed, &params);
        for cm in &models() {
            let cfg = OptimizerConfig::default();
            let Ok(opt) = optimize(&tree, cm, &cfg) else { continue };
            let plan = extract_plan(&tree, &opt);
            let floor = mem_floor_words(&tree, cm, cfg.max_prefix_len);
            assert!(
                floor <= plan.mem_words,
                "seed {seed} procs {}: storage floor {floor} > plan footprint {}",
                cm.grid.num_procs(),
                plan.mem_words
            );
            // The prover must accept any limit a real plan satisfies.
            assert!(
                prove_memory_infeasible(&tree, cm, plan.mem_words, cfg.max_prefix_len).is_none(),
                "seed {seed}: prover rejected a limit a real plan meets"
            );
        }
    }
}

/// Every live entry of every node of `tree`'s search costs strictly more
/// than its node's certified subtree floor, or both are 0.
fn assert_live_entries_clear_their_floor(
    tree: &ExprTree,
    cm: &CostModel,
    enlarged: bool,
    ctx: &str,
) {
    let cfg = OptimizerConfig {
        allow_replication: enlarged,
        allow_unrelated_rotation: enlarged,
        ..Default::default()
    };
    let Ok(opt) = optimize(tree, cm, &cfg) else { return };
    let floors = subtree_comm_floors(tree, cm, enlarged).floors;
    for (node, set) in &opt.sets {
        let floor = bound::certify(floors[node]);
        for i in set.live_indices() {
            let cost = set.cost(i);
            assert!(
                cost > floor || (cost == 0.0 && floor == 0.0),
                "{ctx} procs {} enlarged {enlarged}: live entry #{i} of `{}` costs {cost}, \
                 not above its certified floor {floor}",
                cm.grid.num_procs(),
                tree.node(*node).tensor.name
            );
        }
    }
}

#[test]
fn live_entries_cost_more_than_their_certified_floor() {
    let params = TreeParams::default();
    for seed in 0..SEEDS {
        let tree = random_tree(seed, &params);
        for cm in &models() {
            for enlarged in [false, true] {
                assert_live_entries_clear_their_floor(&tree, cm, enlarged, &format!("seed {seed}"));
            }
        }
    }
    let cm16 = CostModel::for_square(MachineModel::itanium_cluster(), 16).expect("square");
    for (w, tree) in shipped_workloads() {
        for enlarged in [false, true] {
            assert_live_entries_clear_their_floor(&tree, &cm16, enlarged, &w);
        }
    }
}

fn shipped_workloads() -> Vec<(String, ExprTree)> {
    ["ccsd", "ccsd_tiny", "fig1", "ladder", "repeated", "transform"]
        .into_iter()
        .map(|w| {
            let path = format!("{}/workloads/{w}.tce", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).expect("readable workload");
            let tree = lower_program(&parse(&src).expect("parses"))
                .expect("lowers")
                .to_tree()
                .expect("one tree");
            (w.to_string(), tree)
        })
        .collect()
}

/// A machine whose rotation time grows with the square of the block
/// size, so slicing blocks by fused loops pays off. Under the measured
/// characterization every floor is reached at the empty surrounding; this
/// one moves the minimum onto the fused surroundings, so the sweep
/// comparison sees them too.
fn convex_model(procs: u32) -> CostModel {
    let grid = ProcGrid::square(procs).expect("square");
    let points: Vec<RCostPoint> = (0..=44)
        .map(|e| {
            let bytes = 2f64.powi(e);
            RCostPoint { bytes, seconds: 1e-15 * bytes * bytes }
        })
        .collect();
    let table = |steps| GridTable { steps, dim1: points.clone(), dim2: points.clone() };
    let mut grids = vec![table(grid.dim1)];
    if grid.dim2 != grid.dim1 {
        grids.push(table(grid.dim2));
    }
    let chr = Characterization { machine: "convex".to_string(), grids };
    CostModel::with_characterization(MachineModel::itanium_cluster(), chr, grid)
}

/// The `IndexSet` form of `node_comm_floor`'s bitmask sweep: one
/// surrounding set built per mask, `RCost` bases cached in a hash map, and
/// its own copy of the trip-count rule. It is the oracle the library's
/// sweep is compared with bit for bit.
fn node_comm_floor_reference(
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

    let mut best = f64::INFINITY;
    for pat in &patterns {
        let ldist = pat.operand_dist(Operand::Left);
        let rdist = pat.operand_dist(Operand::Right);
        let odist = pat.operand_dist(Operand::Result);
        let rot_index = pat.rotation_index();
        // Per-processor trip count of a surrounding loop — the DP's rule,
        // verbatim, so per-combination values match it bit for bit.
        let trip = |j: IndexId| -> u64 {
            let dim = odist
                .position_of(j)
                .or_else(|| ldist.position_of(j))
                .or_else(|| rdist.position_of(j));
            match dim {
                Some(d) => block_len(space.extent(j), cm.grid.extent(d)),
                None => space.extent(j),
            }
        };
        // The rotation kernel factors as (Π_{j∈S} trip(j)) × RCost(sliced
        // block): cache the RCost base per (operand, S ∩ dims) so the 2^|S|
        // sweep multiplies cached bases instead of re-interpolating.
        let mut bases: [HashMap<IndexSet, f64>; 3] = Default::default();
        for mask in 0u64..(1u64 << loops.len()) {
            let surround: IndexSet = loops
                .iter()
                .enumerate()
                .filter(|&(b, _)| mask >> b & 1 == 1)
                .map(|(_, &j)| j)
                .collect();
            if let Some(k) = rot_index {
                if surround.contains(k) {
                    continue; // the step loop cannot be fused around it
                }
            }
            let factor: u128 = surround.iter().map(|j| trip(j) as u128).product();
            // Left, right, result — the DP's summation order.
            let mut total = 0.0f64;
            for (slot, &(tensor, op)) in operands.iter().enumerate() {
                let Some(travel) = pat.travel_dim(op) else { continue };
                let dist = match op {
                    Operand::Left => ldist,
                    Operand::Right => rdist,
                    Operand::Result => odist,
                };
                let sliced: IndexSet = surround.intersection(&tensor.dim_set());
                let base = *bases[slot].entry(sliced.clone()).or_insert_with(|| {
                    let words = dist_size(tensor, space, cm.grid, dist, &sliced);
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

/// The floor (by bits) and exactness of every node of `tree` agree
/// between the bitmask sweep and the `IndexSet` reference sweep, under
/// the measured and the convex characterization.
fn assert_floor_sweeps_agree(tree: &ExprTree, ctx: &str) {
    for procs in [4u32, 16, 64] {
        let measured = CostModel::for_square(MachineModel::itanium_cluster(), procs);
        for cm in [measured.expect("square"), convex_model(procs)] {
            for replication in [false, true] {
                for node in tree.postorder() {
                    let got = node_comm_floor(tree, &cm, node, replication);
                    let want = node_comm_floor_reference(tree, &cm, node, replication);
                    assert!(
                        got.floor.to_bits() == want.floor.to_bits() && got.exact == want.exact,
                        "{ctx} procs {procs} {} replication {replication} node `{}`: \
                         sweep {got:?}, reference {want:?}",
                        cm.chr.machine,
                        tree.node(node).tensor.name
                    );
                }
            }
        }
    }
}

#[test]
fn floor_sweep_is_bit_identical_to_the_reference() {
    let params = TreeParams::default();
    for seed in 0..200 {
        assert_floor_sweeps_agree(&random_tree(seed, &params), &format!("seed {seed}"));
    }
    for (w, tree) in shipped_workloads() {
        assert_floor_sweeps_agree(&tree, &w);
    }
}
