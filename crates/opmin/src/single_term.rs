//! Operation minimization for a single multi-tensor term (paper ref [13]).
//!
//! Given `result = Σ_sum f1 × f2 × … × fn`, choose a binary order of
//! pairwise contractions (with each summation index applied as early as
//! possible) minimizing total flops. Determining the optimal order is
//! NP-complete in general; for the term sizes that occur in practice
//! (≤ ~8 factors) an exact dynamic programming over factor subsets is
//! entirely tractable and reproduces the pruning search's answers.
//!
//! The classic example from §2: evaluated directly, the four-factor
//! ten-index term costs `4N^10`; the optimal tree costs `Θ(N^6)`.

use std::collections::HashMap;

use tce_expr::{ExprError, Formula, FormulaSequence, IndexId, IndexSet, IndexSpace};
use tce_expr::{SumOfProducts, Tensor};

/// One pairwise contraction chosen by the optimizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pairing {
    /// Factor-set bitmask of the left operand.
    pub left: u32,
    /// Factor-set bitmask of the right operand.
    pub right: u32,
    /// Indices summed at this node.
    pub sum: IndexSet,
    /// The intermediate produced.
    pub tensor: Tensor,
}

/// The optimized decomposition of one term.
#[derive(Clone, Debug)]
pub struct OpMinResult {
    /// Flops of the optimal binary contraction order (saturating at
    /// `u128::MAX`).
    pub flops: u128,
    /// Flops of the direct (single loop nest) evaluation, for the paper's
    /// `4N^10` vs `6N^6` comparison.
    pub direct_flops: u128,
    /// The chosen pairwise contractions, in dependency order.
    pub pairings: Vec<Pairing>,
}

/// Which summation indices can be eliminated once the factor set `mask` has
/// been multiplied together: those appearing in no other factor and not in
/// the result.
fn eliminable(mask: u32, factors: &[Tensor], sum: &IndexSet, result_dims: &IndexSet) -> IndexSet {
    let mut outside = result_dims.clone();
    for (i, f) in factors.iter().enumerate() {
        if mask & (1 << i) == 0 {
            outside = outside.union(&f.dim_set());
        }
    }
    IndexSet::from_iter(sum.iter().filter(|&s| !outside.contains(s) && covered(mask, factors, s)))
}

/// Order in which a factor's eliminable indices are summed away:
/// decreasing extent (cheapest chain).
fn reduction_order(space: &IndexSpace, elim: &IndexSet) -> Vec<IndexId> {
    let mut order: Vec<IndexId> = elim.iter().collect();
    order.sort_by_key(|&i| std::cmp::Reverse(space.extent(i)));
    order
}

/// Flops of the unary summation chain removing `elim` from `factor`,
/// saturating at `u128::MAX` (an array that large fails validation).
fn reduction_chain_cost(space: &IndexSpace, factor: &Tensor, elim: &IndexSet) -> u128 {
    let Some(mut vol) = space.checked_volume(&factor.dims) else { return u128::MAX };
    let mut cost = 0u128;
    for id in reduction_order(space, elim) {
        cost = cost.saturating_add(vol);
        vol /= space.extent(id) as u128;
    }
    cost
}

fn covered(mask: u32, factors: &[Tensor], s: IndexId) -> bool {
    factors.iter().enumerate().any(|(i, f)| mask & (1 << i) != 0 && f.has_dim(s))
}

/// The index set of the intermediate for factor set `mask`: union of its
/// factors' dims minus the already-eliminated summation indices.
fn subset_dims(mask: u32, factors: &[Tensor], sum: &IndexSet, result_dims: &IndexSet) -> IndexSet {
    let mut dims = IndexSet::new();
    for (i, f) in factors.iter().enumerate() {
        if mask & (1 << i) != 0 {
            dims = dims.union(&f.dim_set());
        }
    }
    dims.difference(&eliminable(mask, factors, sum, result_dims))
}

/// Exact subset dynamic programming over contraction orders.
pub fn minimize_operations(space: &IndexSpace, term: &SumOfProducts) -> OpMinResult {
    let n = term.factors.len();
    assert!((1..=20).contains(&n), "term must have 1..=20 factors");
    let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
    let result_dims = term.result.dim_set();

    // best[mask] = (flops to produce the subset's intermediate, split).
    // A singleton whose factor carries eliminable indices pays for the
    // unary summation chain that removes them (Fig. 1's `T1 = Σ_i A`),
    // eliminating larger extents first (the cheapest chain order).
    let mut best: BestTable = HashMap::new();
    for i in 0..n {
        let mask = 1u32 << i;
        let elim = eliminable(mask, &term.factors, &term.sum, &result_dims);
        let cost = reduction_chain_cost(space, &term.factors[i], &elim);
        best.insert(mask, (cost, None));
    }
    // Enumerate masks in increasing popcount order.
    let mut masks: Vec<u32> = (1..=full).filter(|m| m.count_ones() >= 2).collect();
    masks.sort_by_key(|m| m.count_ones());
    for &mask in &masks {
        let dims_here = subset_dims(mask, &term.factors, &term.sum, &result_dims);
        let elim = eliminable(mask, &term.factors, &term.sum, &result_dims);
        let mut entry: Option<(u128, (u32, u32))> = None;
        // All 2-partitions of mask (canonical: left contains lowest bit).
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let mut sub = rest;
        loop {
            let left = low | sub;
            let right = mask ^ left;
            if right != 0 {
                if let (Some(&(lc, _)), Some(&(rc, _))) = (best.get(&left), best.get(&right)) {
                    // Multiply-add over the union of the operand index
                    // sets (2 flops per point when something is summed).
                    // Costs saturate: a loop nest of 2^128 or more points
                    // prices as `u128::MAX`, so any order that avoids one
                    // wins, and validation rejects a term that cannot.
                    let ldims = subset_dims(left, &term.factors, &term.sum, &result_dims);
                    let rdims = subset_dims(right, &term.factors, &term.sum, &result_dims);
                    let loop_set = ldims.union(&rdims);
                    let per_point: u128 =
                        if elim.is_empty() && dims_here == loop_set { 1 } else { 2 };
                    let volume = space.checked_volume(loop_set.as_slice()).unwrap_or(u128::MAX);
                    let cost =
                        lc.saturating_add(rc).saturating_add(per_point.saturating_mul(volume));
                    if entry.is_none_or(|(c, _)| cost < c) {
                        entry = Some((cost, (left, right)));
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        let (cost, split) = entry.expect("every mask has a partition");
        best.insert(mask, (cost, Some(split)));
    }

    // Reconstruct pairings.
    let mut pairings = Vec::new();
    let mut counter = 0usize;
    build(full, &best, term, &result_dims, &mut counter, &mut pairings);
    OpMinResult { flops: best[&full].0, direct_flops: term.direct_op_count(space), pairings }
}

/// DP table: per factor-subset mask, its optimal cost and split.
type BestTable = HashMap<u32, (u128, Option<(u32, u32)>)>;

fn build(
    mask: u32,
    best: &BestTable,
    term: &SumOfProducts,
    result_dims: &IndexSet,
    counter: &mut usize,
    out: &mut Vec<Pairing>,
) {
    let Some((left, right)) = best[&mask].1 else { return };
    build(left, best, term, result_dims, counter, out);
    build(right, best, term, result_dims, counter, out);
    let ldims = subset_dims(left, &term.factors, &term.sum, result_dims);
    let rdims = subset_dims(right, &term.factors, &term.sum, result_dims);
    let elim =
        eliminable(mask, &term.factors, &term.sum, result_dims).intersection(&ldims.union(&rdims));
    let dims = subset_dims(mask, &term.factors, &term.sum, result_dims);
    *counter += 1;
    let full_mask = (1u32 << term.factors.len()) - 1;
    let name = if mask == full_mask { term.result.name.clone() } else { format!("_t{counter}") };
    out.push(Pairing { left, right, sum: elim, tensor: Tensor::new(name, dims.iter().collect()) });
}

/// Lower an optimized term into a [`FormulaSequence`] whose contractions
/// follow the chosen order.
pub fn to_sequence(
    space: &IndexSpace,
    term: &SumOfProducts,
    res: &OpMinResult,
) -> Result<FormulaSequence, ExprError> {
    let mut seq = FormulaSequence::new(space.clone());
    seq.inputs = term.factors.clone();
    let result_dims = term.result.dim_set();
    let mut name_of: HashMap<u32, String> = HashMap::new();
    // Unary summation chains for factors with privately held summation
    // indices (Fig. 1's `T1 = Σ_i A`), largest extent first.
    for (i, f) in term.factors.iter().enumerate() {
        let mask = 1u32 << i;
        let elim = eliminable(mask, &term.factors, &term.sum, &result_dims);
        let mut current = f.name.clone();
        let mut remaining = f.dim_set();
        let order = reduction_order(space, &elim);
        for (m, id) in order.iter().copied().enumerate() {
            remaining.remove(id);
            // A single-factor term's last reduction *is* the result.
            let name = if term.factors.len() == 1 && m + 1 == order.len() {
                term.result.name.clone()
            } else {
                format!("_tr{i}_{m}")
            };
            seq.formulas.push(Formula::Sum {
                result: Tensor::new(name.clone(), remaining.iter().collect()),
                operand: current,
                sum: id,
            });
            current = name;
        }
        name_of.insert(mask, current);
    }
    for p in &res.pairings {
        let lhs = name_of[&p.left].clone();
        let rhs = name_of[&p.right].clone();
        name_of.insert(p.left | p.right, p.tensor.name.clone());
        if p.sum.is_empty() {
            seq.formulas.push(Formula::Mul { result: p.tensor.clone(), lhs, rhs });
        } else {
            seq.formulas.push(Formula::Contract {
                result: p.tensor.clone(),
                lhs,
                rhs,
                sum: p.sum.clone(),
            });
        }
    }
    seq.validate()?;
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::examples::{ccsd_sum_of_products, fig1_sum_of_products, PAPER_EXTENTS};

    #[test]
    fn ccsd_term_reaches_theta_n6() {
        let (space, term) = ccsd_sum_of_products(PAPER_EXTENTS);
        let res = minimize_operations(&space, &term);
        // Direct: 4·N_aN_bN_cN_d·N_eN_f·N_iN_jN_kN_l ≈ 9.1e20.
        assert_eq!(res.direct_flops, 4 * 480u128.pow(4) * 64u128.pow(2) * 32u128.pow(4));
        // The paper's tree costs 2·480³(64²·32 + 64·32² + 32³) ≈ 5.07e13;
        // the optimizer must do at least as well.
        let paper_tree = 2 * 480u128.pow(3) * (64 * 64 * 32 + 64 * 32 * 32 + 32u128.pow(3));
        assert!(res.flops <= paper_tree, "{} > {}", res.flops, paper_tree);
        // And improve on direct by ~7 orders of magnitude.
        assert!(res.direct_flops / res.flops > 10u128.pow(6));
        assert_eq!(res.pairings.len(), 3);
    }

    #[test]
    fn ccsd_sequence_round_trips_to_contraction_tree() {
        let (space, term) = ccsd_sum_of_products(PAPER_EXTENTS);
        let res = minimize_operations(&space, &term);
        let seq = to_sequence(&space, &term, &res).unwrap();
        let tree = seq.to_tree().unwrap();
        assert!(tree.is_contraction_tree());
        assert_eq!(tree.total_op_count(), res.flops);
        assert_eq!(tree.node(tree.root()).tensor.name, "S");
    }

    #[test]
    fn fig1_term_reaches_paper_formula() {
        // §2: the factored form costs N_iN_jN_t + N_jN_kN_t + 2N_jN_t.
        let (space, term) = fig1_sum_of_products(10, 20, 30, 40);
        let res = minimize_operations(&space, &term);
        assert_eq!(res.flops, 10 * 20 * 40 + 20 * 30 * 40 + 2 * 20 * 40);
        assert!(res.flops < res.direct_flops);
        assert_eq!(res.pairings.len(), 1);
        let seq = to_sequence(&space, &term, &res).unwrap();
        assert_eq!(seq.validate().unwrap(), "S");
        // 2 unary summations + 1 contraction; tree op count agrees with
        // the optimizer's ledger.
        assert_eq!(seq.formulas.len(), 3);
        let tree = seq.to_tree().unwrap();
        assert_eq!(tree.total_op_count(), res.flops);
    }

    #[test]
    fn matrix_chain_matches_classic_dp() {
        // (A·B)·C vs A·(B·C) with shapes 2×100, 100×3, 3×50:
        // classic matrix-chain says (A·B)·C first: 2·100·3 + 2·3·50 muls.
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 2);
        let j = sp.declare("j", 100);
        let k = sp.declare("k", 3);
        let l = sp.declare("l", 50);
        let term = SumOfProducts {
            result: Tensor::new("S", vec![i, l]),
            sum: IndexSet::from_iter([j, k]),
            factors: vec![
                Tensor::new("A", vec![i, j]),
                Tensor::new("B", vec![j, k]),
                Tensor::new("C", vec![k, l]),
            ],
        };
        let res = minimize_operations(&sp, &term);
        assert_eq!(res.flops, 2 * (2 * 100 * 3) + 2 * (2 * 3 * 50));
        // First pairing must combine A and B (masks 0b001 and 0b010).
        assert_eq!(res.pairings[0].left | res.pairings[0].right, 0b011);
    }

    #[test]
    fn single_factor_term() {
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 4);
        let j = sp.declare("j", 5);
        let term = SumOfProducts {
            result: Tensor::new("S", vec![j]),
            sum: IndexSet::from_iter([i]),
            factors: vec![Tensor::new("A", vec![i, j])],
        };
        let res = minimize_operations(&sp, &term);
        // The unary summation itself costs N_i·N_j flops.
        assert_eq!(res.flops, 20);
        assert!(res.pairings.is_empty());
        let seq = to_sequence(&sp, &term, &res).unwrap();
        assert_eq!(seq.validate().unwrap(), "S");
        assert_eq!(seq.to_tree().unwrap().total_op_count(), res.flops);
    }

    #[test]
    fn eliminable_respects_result_and_other_factors() {
        let (space, term) = ccsd_sum_of_products(PAPER_EXTENTS);
        let rd = term.result.dim_set();
        // Factor set {B, D} (B=mask for B's position). Find positions.
        let pos = |name: &str| term.factors.iter().position(|f| f.name == name).unwrap() as u32;
        let mask = (1 << pos("B")) | (1 << pos("D"));
        let elim = eliminable(mask, &term.factors, &term.sum, &rd);
        // B(b,e,f,l)·D(c,d,e,l): e and l appear nowhere else -> eliminated.
        let names: Vec<&str> = elim.iter().map(|i| space.name(i)).collect();
        assert_eq!(names, vec!["e", "l"]);
    }
}
