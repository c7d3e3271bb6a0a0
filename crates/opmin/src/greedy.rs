//! A greedy contraction-order heuristic, for comparison against the exact
//! subset dynamic programming.
//!
//! Repeatedly merges the pair of remaining factors whose contraction is
//! cheapest. This is the classic einsum-style heuristic: fast (O(n³)
//! pair evaluations) and usually good, but not optimal — the ablation
//! (`opmin` bench, `greedy_vs_exact` tests) quantifies the gap that
//! justifies the paper's investment in exact search.

use tce_expr::{ExprError, Formula, FormulaSequence, IndexSet, IndexSpace, SumOfProducts, Tensor};

/// Result of the greedy heuristic.
#[derive(Clone, Debug)]
pub struct GreedyResult {
    /// Total flops of the greedy order (including unary pre-summations),
    /// saturating at `u128::MAX`.
    pub flops: u128,
    /// Number of pairwise contractions performed.
    pub contractions: usize,
}

/// Dimensions of the intermediate for a working factor, after removing
/// indices that occur nowhere else and not in the result.
fn reduce_dims(
    dims: &IndexSet,
    others: &[IndexSet],
    sum: &IndexSet,
    result: &IndexSet,
) -> IndexSet {
    IndexSet::from_iter(dims.iter().filter(|&d| {
        !sum.contains(d) || result.contains(d) || others.iter().any(|o| o.contains(d))
    }))
}

/// The volume of `dims`, saturating at `u128::MAX`: an order through a
/// loop nest that large prices last, and validation rejects a term that
/// cannot avoid one.
fn saturating_volume(space: &IndexSpace, dims: &IndexSet) -> u128 {
    space.checked_volume(dims.as_slice()).unwrap_or(u128::MAX)
}

/// Run the greedy heuristic.
pub fn minimize_operations_greedy(space: &IndexSpace, term: &SumOfProducts) -> GreedyResult {
    let result = term.result.dim_set();
    let mut flops: u128 = 0;
    let mut working: Vec<IndexSet> = term.factors.iter().map(Tensor::dim_set).collect();

    // Unary pre-summations (same treatment as the exact search).
    for i in 0..working.len() {
        let others: Vec<IndexSet> =
            working.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, d)| d.clone()).collect();
        let reduced = reduce_dims(&working[i], &others, &term.sum, &result);
        if reduced != working[i] {
            // One pass per eliminated index, largest extent first.
            let mut dims = working[i].clone();
            let mut elim: Vec<_> = working[i].difference(&reduced).iter().collect();
            elim.sort_by_key(|&d| std::cmp::Reverse(space.extent(d)));
            for d in elim {
                flops = flops.saturating_add(saturating_volume(space, &dims));
                dims.remove(d);
            }
            working[i] = reduced;
        }
    }

    let mut contractions = 0;
    while working.len() > 1 {
        // Pick the cheapest pair.
        let mut best: Option<(u128, usize, usize)> = None;
        for i in 0..working.len() {
            for j in i + 1..working.len() {
                let union = working[i].union(&working[j]);
                let cost = 2u128.saturating_mul(saturating_volume(space, &union));
                if best.is_none_or(|(c, _, _)| cost < c) {
                    best = Some((cost, i, j));
                }
            }
        }
        let (cost, i, j) = best.expect("at least one pair remains");
        flops = flops.saturating_add(cost);
        contractions += 1;
        let merged_raw = working[i].union(&working[j]);
        let b = working.remove(j);
        let a = working.remove(i);
        let _ = (a, b);
        let others: Vec<IndexSet> = working.clone();
        let merged = reduce_dims(&merged_raw, &others, &term.sum, &result);
        working.push(merged);
    }
    GreedyResult { flops, contractions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_term::minimize_operations;
    use tce_expr::examples::{ccsd_sum_of_products, fig1_sum_of_products, PAPER_EXTENTS};

    #[test]
    fn greedy_never_beats_exact() {
        let (space, term) = ccsd_sum_of_products(PAPER_EXTENTS);
        let exact = minimize_operations(&space, &term);
        let greedy = minimize_operations_greedy(&space, &term);
        assert!(greedy.flops >= exact.flops);
        assert_eq!(greedy.contractions, 3);
    }

    #[test]
    fn greedy_matches_exact_on_fig1() {
        let (space, term) = fig1_sum_of_products(10, 20, 30, 40);
        let exact = minimize_operations(&space, &term);
        let greedy = minimize_operations_greedy(&space, &term);
        assert_eq!(greedy.flops, exact.flops);
    }

    #[test]
    fn greedy_is_suboptimal_on_an_adversarial_chain() {
        // A(i,j) B(j,k) C(k,l) with the *cheapest first pair* being the
        // wrong global choice: make B·C locally cheapest but globally bad.
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 100);
        let j = sp.declare("j", 2);
        let k = sp.declare("k", 3);
        let l = sp.declare("l", 100);
        let m = sp.declare("m", 2);
        let term = SumOfProducts {
            result: Tensor::new("S", vec![i, m]),
            sum: IndexSet::from_iter([j, k, l]),
            factors: vec![
                Tensor::new("A", vec![i, j]),
                Tensor::new("B", vec![j, k]),
                Tensor::new("C", vec![k, l]),
                Tensor::new("D", vec![l, m]),
            ],
        };
        let exact = minimize_operations(&sp, &term);
        let greedy = minimize_operations_greedy(&sp, &term);
        // Greedy merges B·C first (2·2·3·... cheapest), then faces two
        // 100-extent products; exact pairs (A·B) and (C·D) first.
        assert!(greedy.flops >= exact.flops);
    }
}

/// Lower a term with the greedy order into a [`FormulaSequence`] — the
/// fallback for terms with more factors than the exact subset DP can
/// enumerate. Intermediates are named `_tg0, _tg1, …` (renamed per term by
/// `lower_program`).
pub fn greedy_sequence(
    space: &IndexSpace,
    term: &SumOfProducts,
) -> Result<FormulaSequence, ExprError> {
    let result_dims = term.result.dim_set();
    let mut seq = FormulaSequence::new(space.clone());
    seq.inputs = term.factors.clone();
    let mut counter = 0usize;

    // Working factors: (name, reduced dim set).
    let mut working: Vec<(String, IndexSet)> = Vec::new();
    for (i, f) in term.factors.iter().enumerate() {
        let others: Vec<IndexSet> = term
            .factors
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, o)| o.dim_set())
            .collect();
        let reduced = reduce_dims(&f.dim_set(), &others, &term.sum, &result_dims);
        let mut name = f.name.clone();
        if reduced != f.dim_set() {
            // Emit the unary summation chain, largest extent first.
            let mut dims = f.dim_set();
            let mut elim: Vec<_> = f.dim_set().difference(&reduced).iter().collect();
            elim.sort_by_key(|&d| std::cmp::Reverse(space.extent(d)));
            for d in elim {
                dims.remove(d);
                let out = format!("_tg{counter}");
                counter += 1;
                seq.formulas.push(Formula::Sum {
                    result: Tensor::new(out.clone(), dims.iter().collect()),
                    operand: name.clone(),
                    sum: d,
                });
                name = out;
            }
        }
        working.push((name, reduced));
    }

    while working.len() > 1 {
        // Cheapest pair first.
        let mut best: Option<(u128, usize, usize)> = None;
        for i in 0..working.len() {
            for j in i + 1..working.len() {
                let union = working[i].1.union(&working[j].1);
                let cost = 2u128.saturating_mul(saturating_volume(space, &union));
                if best.is_none_or(|(c, _, _)| cost < c) {
                    best = Some((cost, i, j));
                }
            }
        }
        let (_, i, j) = best.expect("at least one pair remains");
        let (bname, bdims) = working.remove(j);
        let (aname, adims) = working.remove(i);
        let raw = adims.union(&bdims);
        let others: Vec<IndexSet> = working.iter().map(|(_, d)| d.clone()).collect();
        let merged = reduce_dims(&raw, &others, &term.sum, &result_dims);
        let sum_here = raw.difference(&merged);
        let out = if working.is_empty() {
            term.result.name.clone()
        } else {
            let n = format!("_tg{counter}");
            counter += 1;
            n
        };
        let result = Tensor::new(out.clone(), merged.iter().collect());
        if sum_here.is_empty() {
            seq.formulas.push(Formula::Mul { result, lhs: aname, rhs: bname });
        } else {
            seq.formulas.push(Formula::Contract { result, lhs: aname, rhs: bname, sum: sum_here });
        }
        working.push((out, merged));
    }
    seq.validate()?;
    Ok(seq)
}

#[cfg(test)]
mod sequence_tests {
    use super::*;
    use tce_expr::examples::{ccsd_sum_of_products, PAPER_EXTENTS};

    #[test]
    fn greedy_sequence_matches_greedy_flops() {
        let (space, term) = ccsd_sum_of_products(PAPER_EXTENTS);
        let seq = greedy_sequence(&space, &term).unwrap();
        let tree = seq.to_tree().unwrap();
        let greedy = minimize_operations_greedy(&space, &term);
        assert_eq!(tree.total_op_count(), greedy.flops);
        assert_eq!(tree.node(tree.root()).tensor.name, "S");
    }

    #[test]
    fn greedy_sequence_handles_many_factors() {
        // A 24-factor matrix chain: beyond the exact DP's mask width.
        let mut sp = IndexSpace::new();
        let ids: Vec<_> =
            (0..=24).map(|i| sp.declare(&format!("i{i}"), 2 + (i as u64 % 5))).collect();
        let factors: Vec<Tensor> =
            (0..24).map(|i| Tensor::new(format!("A{i}"), vec![ids[i], ids[i + 1]])).collect();
        let term = SumOfProducts {
            result: Tensor::new("S", vec![ids[0], ids[24]]),
            sum: IndexSet::from_iter(ids[1..24].iter().copied()),
            factors,
        };
        let seq = greedy_sequence(&sp, &term).unwrap();
        assert_eq!(seq.formulas.len(), 23);
        assert!(seq.to_tree().unwrap().is_contraction_tree());
    }
}
