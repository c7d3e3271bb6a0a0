//! Sequential memory-minimal fusion (the prior work of refs [14–16]).
//!
//! Given an operator tree, choose the fusion prefix on every edge to
//! minimize the total space of all intermediate arrays after array
//! contraction — ignoring parallelism. The paper uses this earlier result
//! as its starting point; we use it (a) as the "fusion first, distribute
//! later" baseline the paper argues against in §2, and (b) as a structural
//! cross-check for the parallel dynamic programming in `tce-core`, which
//! must reduce to this when communication is free.
//!
//! The algorithm is the same shape as §3.3's: bottom-up over the tree,
//! keeping at each node a set of (parent-edge prefix → best memory)
//! solutions, combining children under the chain-compatibility constraint.

use std::collections::HashMap;

use tce_expr::{ExprTree, NodeId};

use crate::config::{edge_candidates, FusionConfig};
use crate::prefix::{enumerate_prefixes, FusionPrefix};

/// Result of the sequential memory minimization.
#[derive(Clone, Debug)]
pub struct MemMinResult {
    /// The chosen per-edge fusion prefixes.
    pub config: FusionConfig,
    /// Total words of all intermediate arrays after reduction.
    pub words: u128,
}

#[derive(Clone)]
struct Partial {
    prefix: FusionPrefix,
    words: u128,
    config: FusionConfig,
}

/// Minimize total intermediate memory over all legal fusion configurations.
///
/// `max_prefix_len` caps the fusion depth per edge (use `usize::MAX` for
/// the full space; the paper's examples have ≤ 4 candidates per edge).
pub fn minimize_memory(tree: &ExprTree, max_prefix_len: usize) -> MemMinResult {
    let mut best_at: HashMap<NodeId, Vec<Partial>> = HashMap::new();

    for node in tree.postorder() {
        let n = tree.node(node);
        let sols = if n.is_leaf() {
            // Inputs are stored in full; fusing a leaf edge cannot reduce
            // memory, so only the unfused option is ever useful here.
            vec![Partial {
                prefix: FusionPrefix::empty(),
                words: 0,
                config: FusionConfig::unfused(),
            }]
        } else {
            let children = tree.children(node);
            let child_sols: Vec<&Vec<Partial>> = children.iter().map(|c| &best_at[c]).collect();
            let my_prefixes = enumerate_prefixes(&edge_candidates(tree, node), max_prefix_len);
            let mut out: Vec<Partial> = Vec::new();
            // Iterate over the cartesian product of child solutions
            // (1 or 2 children).
            let combos: Vec<Vec<&Partial>> = match child_sols.len() {
                1 => child_sols[0].iter().map(|a| vec![a]).collect(),
                2 => child_sols[0]
                    .iter()
                    .flat_map(|a| child_sols[1].iter().map(move |b| vec![a, b]))
                    .collect(),
                n => unreachable!("internal node with {n} children"),
            };
            for combo in &combos {
                if combo.len() == 2 && !combo[0].prefix.chain_compatible(&combo[1].prefix) {
                    continue;
                }
                for up in &my_prefixes {
                    if !combo.iter().all(|p| p.prefix.chain_compatible(up)) {
                        continue;
                    }
                    let mut config = FusionConfig::unfused();
                    let mut words: u128 = 0;
                    for (child, part) in children.iter().zip(combo) {
                        config.set(*child, part.prefix.clone());
                        // Merge the child's subtree decisions.
                        for sub in tree_subnodes(tree, *child) {
                            let p = part.config.prefix(sub);
                            if !p.is_empty() {
                                config.set(sub, p);
                            }
                        }
                        words += part.words;
                    }
                    // This node's reduced array.
                    let mut me = FusionConfig::unfused();
                    me.set(node, up.clone());
                    words += me.reduced_tensor(tree, node).num_elements(&tree.space);
                    out.push(Partial { prefix: up.clone(), words, config });
                }
            }
            // Keep the cheapest solution per distinct prefix, in order of
            // first appearance, so ties at the root break the same way on
            // every run.
            let mut best: Vec<Partial> = Vec::new();
            for p in out {
                match best.iter_mut().find(|b| b.prefix == p.prefix) {
                    Some(b) if b.words <= p.words => {}
                    Some(b) => *b = p,
                    None => best.push(p),
                }
            }
            best
        };
        best_at.insert(node, sols);
    }

    let root = tree.root();
    let winner = best_at[&root]
        .iter()
        .min_by_key(|p| p.words)
        .expect("root always has at least the unfused solution");
    let mut config = winner.config.clone();
    // Attach the root's own (empty) parent prefix for completeness.
    config.set(root, FusionPrefix::empty());
    debug_assert!(config.validate(tree).is_ok());
    MemMinResult { words: winner.words, config }
}

/// All nodes strictly below `node` plus `node` itself, excluding the root's
/// nonexistent parent edge concerns.
fn tree_subnodes(tree: &ExprTree, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        out.push(id);
        stack.extend(tree.children(id));
    }
    // `node` itself is set separately by the caller with the combo prefix;
    // keep it out of the merge.
    out.retain(|&id| id != node);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::examples::{ccsd_tree, PaperExtents, PAPER_EXTENTS};

    #[test]
    fn fig2c_memory_is_found() {
        // §2: with fusion, T1 reduces to a scalar and T2 to 2-D; the
        // minimal intermediate memory is 1 + N_j·N_k + |S|.
        let tree = ccsd_tree(PAPER_EXTENTS);
        let res = minimize_memory(&tree, usize::MAX);
        let s_words = 480u128 * 480 * 32 * 32;
        assert_eq!(res.words, 1 + 32 * 32 + s_words);
        res.config.validate(&tree).unwrap();
        let t1 = tree.find("T1").unwrap();
        assert_eq!(res.config.reduced_tensor(&tree, t1).arity(), 0);
        let t2 = tree.find("T2").unwrap();
        assert_eq!(res.config.reduced_tensor(&tree, t2).arity(), 2);
    }

    #[test]
    fn fused_never_worse_than_unfused() {
        let tree = ccsd_tree(PaperExtents::tiny());
        let res = minimize_memory(&tree, usize::MAX);
        let unfused = FusionConfig::unfused().intermediate_words(&tree);
        assert!(res.words <= unfused);
    }

    #[test]
    fn prefix_cap_degrades_gracefully() {
        let tree = ccsd_tree(PaperExtents::tiny());
        let full = minimize_memory(&tree, usize::MAX).words;
        let capped1 = minimize_memory(&tree, 1).words;
        let capped0 = minimize_memory(&tree, 0).words;
        assert!(full <= capped1);
        assert!(capped1 <= capped0);
        assert_eq!(capped0, FusionConfig::unfused().intermediate_words(&tree));
    }

    #[test]
    fn single_contraction_tree() {
        // One contraction: nothing to fuse (root has no parent edge).
        let src = "range i = 8; range j = 8; range k = 8;\ninput A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let tree = tce_expr::parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let res = minimize_memory(&tree, usize::MAX);
        assert_eq!(res.words, 64);
    }
}
