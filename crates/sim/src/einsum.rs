//! Sequential reference evaluation of an expression tree — the oracle the
//! distributed execution is verified against.

use std::collections::HashMap;

use tce_expr::{ExprTree, NodeId};

use crate::tensor::Block;

/// Reproducible random inputs for a tree: one full block per *leaf node*
/// keyed by node id; two leaves referring to the same input name get the
/// same data (seeded by name), as a real computation would.
pub fn random_inputs(tree: &ExprTree, seed: u64) -> HashMap<NodeId, Block> {
    tree.ids()
        .filter(|&id| tree.node(id).is_leaf())
        .map(|id| {
            let t = &tree.node(id).tensor;
            let name_seed =
                t.name.bytes().fold(seed, |acc, b| acc.wrapping_mul(31).wrapping_add(u64::from(b)));
            (id, Block::random(t, &tree.space, name_seed))
        })
        .collect()
}

/// Evaluate the whole tree sequentially; returns the full block of every
/// internal node (so intermediate results can be checked too).
pub fn evaluate(tree: &ExprTree, inputs: &HashMap<NodeId, Block>) -> HashMap<NodeId, Block> {
    let mut values: HashMap<NodeId, Block> = HashMap::new();
    for id in tree.postorder() {
        if tree.node(id).is_leaf() {
            continue;
        }
        let children = tree.children(id);
        let srcs: Vec<&Block> =
            children.iter().map(|&c| block_of(tree, c, inputs, &values)).collect();
        let mut out = Block::full(&tree.node(id).tensor, &tree.space);
        out.combine(&srcs, |a, v| a + v);
        values.insert(id, out);
    }
    values
}

fn block_of<'a>(
    tree: &ExprTree,
    id: NodeId,
    inputs: &'a HashMap<NodeId, Block>,
    values: &'a HashMap<NodeId, Block>,
) -> &'a Block {
    if tree.node(id).is_leaf() {
        &inputs[&id]
    } else {
        &values[&id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::examples::{ccsd_tree, fig1_sequence, PaperExtents};
    use tce_expr::parse;

    #[test]
    fn matmul_chain_matches_direct() {
        let src = "\
range a = 3; range b = 4; range c = 5; range d = 2;
input A[a,b]; input B[b,c]; input C[c,d];
T[a,c] = sum[b] A[a,b] * B[b,c];
S[a,d] = sum[c] T[a,c] * C[c,d];
";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let inputs = random_inputs(&tree, 42);
        let vals = evaluate(&tree, &inputs);
        let s = &vals[&tree.root()];
        // Direct triple loop.
        let a = &inputs[&tree.find("A").unwrap()];
        let b = &inputs[&tree.find("B").unwrap()];
        let c = &inputs[&tree.find("C").unwrap()];
        for ai in 0..3u64 {
            for di in 0..2u64 {
                let mut want = 0.0;
                for bi in 0..4u64 {
                    for ci in 0..5u64 {
                        want += a.get(&[ai, bi]) * b.get(&[bi, ci]) * c.get(&[ci, di]);
                    }
                }
                assert!((s.get(&[ai, di]) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn fig1_factored_equals_direct_sum_of_products() {
        // The factored Fig. 1 evaluation must equal Σ_{i,j,k} A·B directly.
        let seq = fig1_sequence(3, 4, 5, 6);
        let tree = seq.to_tree().unwrap();
        let inputs = random_inputs(&tree, 7);
        let vals = evaluate(&tree, &inputs);
        let s = &vals[&tree.root()];
        let a = &inputs[&tree.find("A").unwrap()];
        let b = &inputs[&tree.find("B").unwrap()];
        for t in 0..6u64 {
            let mut want = 0.0;
            for i in 0..3u64 {
                for j in 0..4u64 {
                    for k in 0..5u64 {
                        want += a.get(&[i, j, t]) * b.get(&[j, k, t]);
                    }
                }
            }
            assert!((s.get(&[t]) - want).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn ccsd_tiny_evaluates() {
        let tree = ccsd_tree(PaperExtents::tiny());
        let inputs = random_inputs(&tree, 1);
        let vals = evaluate(&tree, &inputs);
        let s = &vals[&tree.root()];
        assert_eq!(s.words(), 12 * 12 * 4 * 4);
        // Values are generically nonzero.
        assert!(s.data.iter().any(|&v| v.abs() > 1e-9));
    }

    #[test]
    fn shared_input_names_share_data() {
        let src = "\
range i = 3; range j = 3; range k = 3;
input A[i,j]; input B[j,k];
T[i,k] = sum[j] A[i,j] * B[j,k];
S[j,k] = sum[i] A[i,j] * T[i,k];
";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let inputs = random_inputs(&tree, 3);
        let a_nodes: Vec<_> = tree
            .ids()
            .filter(|&id| tree.node(id).is_leaf() && tree.node(id).tensor.name == "A")
            .collect();
        assert_eq!(a_nodes.len(), 2);
        assert_eq!(inputs[&a_nodes[0]], inputs[&a_nodes[1]]);
    }
}

#[cfg(test)]
mod associativity_tests {
    use super::*;
    use tce_expr::parse;

    /// Two different parenthesizations of A·B·C agree numerically —
    /// the algebraic identity the whole operation-minimization story
    /// depends on.
    #[test]
    fn contraction_order_does_not_change_the_value() {
        let left = "\
range a = 4; range b = 5; range c = 6; range d = 3;
input A[a,b]; input B[b,c]; input C[c,d];
T[a,c] = sum[b] A[a,b] * B[b,c];
S[a,d] = sum[c] T[a,c] * C[c,d];
";
        let right = "\
range a = 4; range b = 5; range c = 6; range d = 3;
input A[a,b]; input B[b,c]; input C[c,d];
T[b,d] = sum[c] B[b,c] * C[c,d];
S[a,d] = sum[b] A[a,b] * T[b,d];
";
        let tl = parse(left).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let tr = parse(right).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let il = random_inputs(&tl, 99);
        let ir = random_inputs(&tr, 99);
        let vl = evaluate(&tl, &il);
        let vr = evaluate(&tr, &ir);
        let sl = &vl[&tl.root()];
        let sr = &vr[&tr.root()];
        assert!(sl.max_abs_diff(sr) < 1e-10);
    }
}
