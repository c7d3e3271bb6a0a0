//! Formula sequences (Fig. 1a / Fig. 2a of the paper).
//!
//! A *formula sequence* lists input arrays followed by formulae, each
//! producing an intermediate array; the last formula gives the final result.
//! A formula is a multiplication `Tr = X × Y`, a summation `Tr = Σ_i X`, or
//! the combined contraction `Tr = Σ_K X × Y` that the parallel algorithm
//! operates on. [`FormulaSequence::to_tree`] converts a validated sequence
//! into the binary-tree representation.

use std::collections::{HashMap, HashSet};

use crate::error::ExprError;
use crate::index::{IndexId, IndexSet, IndexSpace};
use crate::tensor::Tensor;
use crate::tree::{ExprTree, NodeId};

/// One formula of a sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// `result = lhs × rhs` (element-wise over the union of indices).
    Mul {
        /// Produced array.
        result: Tensor,
        /// Name of the left operand array.
        lhs: String,
        /// Name of the right operand array.
        rhs: String,
    },
    /// `result = Σ_sum operand`.
    Sum {
        /// Produced array.
        result: Tensor,
        /// Name of the operand array.
        operand: String,
        /// The summed index.
        sum: IndexId,
    },
    /// `result = Σ_sum lhs × rhs` — a multiplication node and the summation
    /// nodes directly above it, collapsed (the form used throughout §3).
    Contract {
        /// Produced array.
        result: Tensor,
        /// Name of the left operand array.
        lhs: String,
        /// Name of the right operand array.
        rhs: String,
        /// Summation indices.
        sum: IndexSet,
    },
}

impl Formula {
    /// The array this formula produces.
    pub fn result(&self) -> &Tensor {
        match self {
            Formula::Mul { result, .. }
            | Formula::Sum { result, .. }
            | Formula::Contract { result, .. } => result,
        }
    }

    /// Names of the arrays this formula consumes.
    pub fn operands(&self) -> Vec<&str> {
        match self {
            Formula::Mul { lhs, rhs, .. } | Formula::Contract { lhs, rhs, .. } => {
                vec![lhs, rhs]
            }
            Formula::Sum { operand, .. } => vec![operand],
        }
    }
}

/// A full sequence: declared inputs plus formulae in dependency order.
#[derive(Clone, Debug, Default)]
pub struct FormulaSequence {
    /// The index space.
    pub space: IndexSpace,
    /// Input arrays.
    pub inputs: Vec<Tensor>,
    /// Formulae; the last one produces the final result.
    pub formulas: Vec<Formula>,
}

impl FormulaSequence {
    /// New empty sequence over `space`.
    pub fn new(space: IndexSpace) -> Self {
        Self { space, inputs: Vec::new(), formulas: Vec::new() }
    }

    /// Validate the whole sequence: unique names, operands defined before
    /// use, per-formula well-formedness (`IX ∪ IY ⊆ ITr ∪ sum`, summation
    /// index removed, …), every array's full volume fits a `u128` — so no
    /// per-array size derived from it (distributed block, fused slice) can
    /// overflow either — and so does the tree's footprint bound. Returns
    /// the name of the final result on success.
    ///
    /// A plan's memory footprint sums per-processor blocks of the tree's
    /// arrays (an input once per use, as [`Self::to_tree`] builds it) plus
    /// one message buffer, so it is at most Σ(array volumes) + max(array
    /// volume). A sequence whose bound overflows is rejected, which keeps
    /// every footprint sum of the search exact. So is one with a loop nest
    /// (every index of a formula's operands) of 2^128 or more points,
    /// whose operation count no `u128` can hold.
    pub fn validate(&self) -> Result<&str, ExprError> {
        let mut defined: HashMap<&str, &Tensor> = HashMap::new();
        for t in &self.inputs {
            self.check_volume(t)?;
            if defined.insert(&t.name, t).is_some() {
                return Err(ExprError::Redefined(t.name.clone()));
            }
        }
        let inputs: HashSet<&str> = self.inputs.iter().map(|t| t.name.as_str()).collect();
        let (mut total, mut largest) = (Some(0u128), 0u128);
        let mut count = |t: &Tensor| {
            let v = self.space.volume(&t.dims);
            largest = largest.max(v);
            total = total.and_then(|s| s.checked_add(v));
        };
        for f in &self.formulas {
            for op in f.operands() {
                match defined.get(op) {
                    None => return Err(ExprError::Undefined(op.to_owned())),
                    // An input becomes a fresh leaf at each use.
                    Some(t) if inputs.contains(op) => count(t),
                    Some(_) => {}
                }
            }
            let res = f.result();
            let loops =
                f.operands().iter().fold(IndexSet::new(), |s, op| s.union(&defined[op].dim_set()));
            if self.space.checked_volume(loops.as_slice()).is_none() {
                let rendered = format!("({})", self.space.render(loops.as_slice()));
                return Err(ExprError::LoopNestTooLarge(res.name.clone(), rendered));
            }
            self.check_volume(res)?;
            count(res);
            match f {
                Formula::Mul { lhs, rhs, .. } => {
                    let ix = defined[lhs.as_str()].dim_set();
                    let iy = defined[rhs.as_str()].dim_set();
                    if ix.union(&iy) != res.dim_set() {
                        return Err(ExprError::Malformed(format!(
                            "`{}`: multiplication result must carry IX ∪ IY",
                            res.name
                        )));
                    }
                }
                Formula::Sum { operand, sum, .. } => {
                    let mut ix = defined[operand.as_str()].dim_set();
                    if !ix.contains(*sum) {
                        return Err(ExprError::Malformed(format!(
                            "`{}`: summation index not in operand",
                            res.name
                        )));
                    }
                    ix.remove(*sum);
                    if ix != res.dim_set() {
                        return Err(ExprError::Malformed(format!(
                            "`{}`: result must carry IX − {{i}}",
                            res.name
                        )));
                    }
                }
                Formula::Contract { lhs, rhs, sum, .. } => {
                    let ix = defined[lhs.as_str()].dim_set();
                    let iy = defined[rhs.as_str()].dim_set();
                    let rhs_all = ix.union(&iy);
                    if !sum.is_subset(&rhs_all)
                        || !sum.is_disjoint(&res.dim_set())
                        || rhs_all.difference(sum) != res.dim_set()
                    {
                        return Err(ExprError::Malformed(format!(
                            "`{}`: contraction result must carry (IX ∪ IY) − K",
                            res.name
                        )));
                    }
                }
            }
            if defined.insert(&res.name, res).is_some() {
                return Err(ExprError::Redefined(res.name.clone()));
            }
        }
        if total.and_then(|s| s.checked_add(largest)).is_none() {
            return Err(ExprError::FootprintTooLarge);
        }
        self.formulas
            .last()
            .map(|f| f.result().name.as_str())
            .ok_or_else(|| ExprError::Malformed("empty formula sequence".into()))
    }

    fn check_volume(&self, t: &Tensor) -> Result<(), ExprError> {
        match self.space.checked_volume(&t.dims) {
            Some(_) => Ok(()),
            None => Err(ExprError::TooLarge(t.render(&self.space))),
        }
    }

    /// Convert the validated sequence into a binary expression tree. Each
    /// `Mul`/`Contract` becomes a two-child node, each `Sum` a one-child
    /// node; the last formula becomes the root. An input used by more than
    /// one formula is materialized as a fresh leaf at each use (trees do not
    /// share sub-expressions).
    pub fn to_tree(&self) -> Result<ExprTree, ExprError> {
        self.validate()?;
        let mut tree = ExprTree::new(self.space.clone());
        // Map from array name to the (unconsumed) node producing it.
        let mut producer: HashMap<String, NodeId> = HashMap::new();
        let inputs: HashMap<&str, &Tensor> =
            self.inputs.iter().map(|t| (t.name.as_str(), t)).collect();

        let take = |tree: &mut ExprTree,
                    producer: &mut HashMap<String, NodeId>,
                    name: &str|
         -> Result<NodeId, ExprError> {
            if let Some(id) = producer.remove(name) {
                return Ok(id);
            }
            // Fresh leaf per use of an input array.
            let t = inputs.get(name).ok_or_else(|| ExprError::Undefined(name.to_owned()))?;
            Ok(tree.add_leaf((*t).clone()))
        };

        for f in &self.formulas {
            let id = match f {
                Formula::Mul { result, lhs, rhs } => {
                    let l = take(&mut tree, &mut producer, lhs)?;
                    let r = take(&mut tree, &mut producer, rhs)?;
                    tree.add_contract(result.clone(), IndexSet::new(), l, r)?
                }
                Formula::Contract { result, lhs, rhs, sum } => {
                    let l = take(&mut tree, &mut producer, lhs)?;
                    let r = take(&mut tree, &mut producer, rhs)?;
                    tree.add_contract(result.clone(), sum.clone(), l, r)?
                }
                Formula::Sum { result, operand, sum } => {
                    let c = take(&mut tree, &mut producer, operand)?;
                    tree.add_reduce(result.clone(), *sum, c)?
                }
            };
            producer.insert(f.result().name.clone(), id);
        }
        let root_name = &self.formulas.last().expect("validated: non-empty").result().name;
        let root = producer[root_name.as_str()];
        tree.set_root(root);
        Ok(tree)
    }

    /// Total flop count of the sequence (via the tree representation).
    pub fn total_op_count(&self) -> Result<u128, ExprError> {
        Ok(self.to_tree()?.total_op_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1(a): T1(j,t)=Σ_i A(i,j,t); T2(j,t)=Σ_k B(j,k,t);
    /// T3(j,t)=T1×T2; S(t)=Σ_j T3.
    fn fig1(ni: u64, nj: u64, nk: u64, nt: u64) -> FormulaSequence {
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", ni);
        let j = sp.declare("j", nj);
        let k = sp.declare("k", nk);
        let t = sp.declare("t", nt);
        let mut seq = FormulaSequence::new(sp);
        seq.inputs.push(Tensor::new("A", vec![i, j, t]));
        seq.inputs.push(Tensor::new("B", vec![j, k, t]));
        seq.formulas.push(Formula::Sum {
            result: Tensor::new("T1", vec![j, t]),
            operand: "A".into(),
            sum: i,
        });
        seq.formulas.push(Formula::Sum {
            result: Tensor::new("T2", vec![j, t]),
            operand: "B".into(),
            sum: k,
        });
        seq.formulas.push(Formula::Mul {
            result: Tensor::new("T3", vec![j, t]),
            lhs: "T1".into(),
            rhs: "T2".into(),
        });
        seq.formulas.push(Formula::Sum {
            result: Tensor::new("S", vec![t]),
            operand: "T3".into(),
            sum: j,
        });
        seq
    }

    #[test]
    fn fig1_validates_and_builds_tree() {
        let seq = fig1(10, 11, 12, 13);
        assert_eq!(seq.validate().unwrap(), "S");
        let tree = seq.to_tree().unwrap();
        // 2 leaves + 4 formula nodes.
        assert_eq!(tree.len(), 6);
        assert_eq!(tree.node(tree.root()).tensor.name, "S");
    }

    #[test]
    fn fig1_op_count_matches_paper_formula() {
        // Paper §2: the factored form needs N_iN_jN_t + N_jN_kN_t + 2N_jN_t.
        let (ni, nj, nk, nt) = (10u128, 11, 12, 13);
        let seq = fig1(10, 11, 12, 13);
        let got = seq.total_op_count().unwrap();
        assert_eq!(got, ni * nj * nt + nj * nk * nt + 2 * nj * nt);
    }

    #[test]
    fn undefined_operand_rejected() {
        let mut seq = fig1(4, 4, 4, 4);
        if let Formula::Sum { operand, .. } = &mut seq.formulas[0] {
            *operand = "Qx".into();
        }
        assert!(matches!(seq.validate(), Err(ExprError::Undefined(_))));
    }

    #[test]
    fn redefinition_rejected() {
        let mut seq = fig1(4, 4, 4, 4);
        let dup = seq.inputs[0].clone();
        seq.inputs.push(dup);
        assert!(matches!(seq.validate(), Err(ExprError::Redefined(_))));
    }

    #[test]
    fn malformed_mul_rejected() {
        let mut seq = fig1(4, 4, 4, 4);
        // Break T3: drop dimension t from its result.
        if let Formula::Mul { result, .. } = &mut seq.formulas[2] {
            result.dims.pop();
        }
        assert!(matches!(seq.validate(), Err(ExprError::Malformed(_))));
    }

    #[test]
    fn empty_sequence_rejected() {
        let seq = FormulaSequence::new(IndexSpace::new());
        assert!(seq.validate().is_err());
    }

    #[test]
    fn input_used_twice_gets_two_leaves() {
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 3);
        let j = sp.declare("j", 3);
        let k = sp.declare("k", 3);
        let mut seq = FormulaSequence::new(sp);
        seq.inputs.push(Tensor::new("A", vec![i, j]));
        seq.inputs.push(Tensor::new("B", vec![j, k]));
        seq.formulas.push(Formula::Contract {
            result: Tensor::new("T", vec![i, k]),
            lhs: "A".into(),
            rhs: "B".into(),
            sum: IndexSet::from_iter([j]),
        });
        seq.formulas.push(Formula::Contract {
            result: Tensor::new("S", vec![j, k]),
            lhs: "A".into(),
            rhs: "T".into(),
            sum: IndexSet::from_iter([i]),
        });
        let tree = seq.to_tree().unwrap();
        // A appears twice as a leaf: 3 distinct leaves + 2 contractions.
        assert_eq!(tree.len(), 5);
        assert!(tree.is_contraction_tree());
    }

    /// Each array fits a `u128` word count, but the footprint bound
    /// (every array, an input once per use, plus the largest) does not.
    #[test]
    fn footprint_bound_overflow_is_rejected() {
        let mut sp = IndexSpace::new();
        let dims: Vec<IndexId> = ["i", "j", "k"].iter().map(|n| sp.declare(n, 1 << 32)).collect();
        let t = sp.declare("t", 1 << 30);
        let big = [dims.clone(), vec![t]].concat(); // 2^126 elements
        let seq = |lhs: &str, rhs: &str| {
            let mut s = FormulaSequence::new(sp.clone());
            s.inputs.push(Tensor::new("A", big.clone()));
            s.inputs.push(Tensor::new("B", vec![t]));
            s.formulas.push(Formula::Mul {
                result: Tensor::new("C", big.clone()),
                lhs: lhs.into(),
                rhs: rhs.into(),
            });
            s
        };
        // A, B, C and the largest: 3·2^126 + 2^30 fits.
        assert_eq!(seq("A", "B").validate(), Ok("C"));
        // A read twice is two leaves: 4·2^126 = 2^128 overflows.
        assert_eq!(seq("A", "A").validate(), Err(ExprError::FootprintTooLarge));
        assert_eq!(seq("A", "A").to_tree().unwrap_err(), ExprError::FootprintTooLarge);
    }
}
