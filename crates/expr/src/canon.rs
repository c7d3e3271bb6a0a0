//! Canonical forms and stable content hashing for expression trees.
//!
//! Two trees that differ only by a renaming of their index variables — or,
//! for the commutative form, also by swapping the operands of contraction
//! nodes — describe the same optimization problem: every cost in the model
//! is a function of index *extents* and tree *structure*, never of names.
//! This module computes a canonical encoding that is invariant under
//! exactly those transformations, plus the rename bijection needed to map
//! cached results back to source names:
//!
//! * [`subtree_form`] — the **strict** per-subtree form
//!   (rename-invariant, operand order preserved), keyed on by the in-run
//!   level-1 frontier reuse in `tce-core`;
//! * [`canonical_form`] — the **commutative** whole-tree normal form
//!   (rename- and swap-invariant), keyed on by the on-disk level-2 plan
//!   cache;
//! * [`Fnv128`] — the 128-bit FNV-1a hasher both forms (and the cache
//!   layer's key digests) share.
//!
//! # Encoding
//!
//! A form is a token stream over a postorder walk of the (sub)tree. Index
//! variables are renamed De Bruijn-style to their *first-occurrence number*
//! in the walk: every index of a well-formed tree first occurs in some
//! leaf's declared dimension list, and leaves are visited in a structurally
//! determined order, so the numbering is independent of source `IndexId`s.
//! Extents are emitted with each leaf dimension, so two isomorphic trees
//! with different extents never collide. Internal nodes emit their
//! summation and result-dimension sets as *sorted canonical numbers*,
//! which removes the residual source-id ordering inside `IndexSet`s.
//!
//! For the commutative form, the operand order of every contraction node is
//! itself part of the search space: the canonical stream is the
//! lexicographically smallest stream over all child-order assignments.
//! Child orders cannot be fixed locally — two operand subtrees can be
//! structurally identical yet share summation indices with the rest of the
//! tree, so the choice leaks into the global numbering — hence the exact
//! definition enumerates assignments (trees have a handful of contraction
//! nodes; see [`MAX_COMMUTATIVE_NODES`]).

use std::collections::HashMap;

use crate::index::IndexId;
use crate::tree::{ExprTree, NodeId, NodeKind};

/// 128-bit FNV-1a. Not cryptographic — collisions are theoretically
/// possible — which is why every consumer of these hashes re-validates
/// what it loads (the level-1 reuse replays only after a structural
/// bijection check; the level-2 cache re-runs the full static checker).
#[derive(Clone, Copy, Debug)]
pub struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: Self::OFFSET }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `u128` (little-endian).
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a length-prefixed string (so `("ab","c")` and `("a","bc")`
    /// hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Hash a byte slice in one call.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

// Token tags, placed at the top of the `u64` range where no extent or
// canonical index number can reach them (a 2^63 extent would overflow
// every volume computation long before it got here).
const TAG_LEAF: u64 = u64::MAX;
const TAG_CONTRACT: u64 = u64::MAX - 1;
const TAG_REDUCE: u64 = u64::MAX - 2;

/// Above this many contraction nodes the commutative form stops
/// enumerating child-order assignments (2^n streams) and falls back to the
/// declared operand order: the hash is then still rename-invariant but no
/// longer swap-invariant, which only costs cache hit rate, never
/// correctness — every cache layer re-validates what it loads.
pub const MAX_COMMUTATIVE_NODES: usize = 12;

/// The strict (operand-order-preserving) canonical form of one subtree.
#[derive(Clone, Debug)]
pub struct SubtreeForm {
    /// Rename-invariant structural hash of the subtree, extents included.
    pub hash: u128,
    /// The rename bijection: `index_order[n]` is the source [`IndexId`]
    /// that canonical number `n` stands for.
    pub index_order: Vec<IndexId>,
    /// The node bijection: subtree nodes in walk (postorder) order. Two
    /// subtrees with equal `hash` have the same shape, so position `p` in
    /// one corresponds to position `p` in the other.
    pub nodes: Vec<NodeId>,
}

impl SubtreeForm {
    /// Whether the rename bijection from `self` onto `other` preserves the
    /// relative [`IndexId`] order (`argsort` equality). Monotone bijections
    /// are the ones under which every order-sensitive enumeration in the
    /// optimizer (sorted index sets, prefix candidate order, distribution
    /// enumeration) maps 1:1, making frontier replay bit-exact.
    pub fn monotone_bijection_to(&self, other: &SubtreeForm) -> bool {
        let n = self.index_order.len();
        if other.index_order.len() != n {
            return false;
        }
        let rank = |order: &[IndexId]| -> Vec<u32> {
            let mut sorted: Vec<usize> = (0..order.len()).collect();
            sorted.sort_by_key(|&i| order[i]);
            let mut r = vec![0u32; order.len()];
            for (rk, &i) in sorted.iter().enumerate() {
                r[i] = rk as u32;
            }
            r
        };
        rank(&self.index_order) == rank(&other.index_order)
    }
}

/// Token-stream emitter shared by both forms.
struct Emitter<'a> {
    tree: &'a ExprTree,
    /// Contraction nodes whose children are emitted right-then-left.
    swapped: &'a HashMap<NodeId, bool>,
    toks: Vec<u64>,
    num: HashMap<IndexId, u32>,
    index_order: Vec<IndexId>,
    node_order: Vec<NodeId>,
}

impl<'a> Emitter<'a> {
    fn new(tree: &'a ExprTree, swapped: &'a HashMap<NodeId, bool>) -> Self {
        Self {
            tree,
            swapped,
            toks: Vec::new(),
            num: HashMap::new(),
            index_order: Vec::new(),
            node_order: Vec::new(),
        }
    }

    fn canon(&mut self, id: IndexId) -> u64 {
        match self.num.get(&id) {
            Some(&n) => n as u64,
            None => {
                let n = self.index_order.len() as u32;
                self.num.insert(id, n);
                self.index_order.push(id);
                n as u64
            }
        }
    }

    /// Emit an index set as its sorted canonical numbers. Every member has
    /// already been numbered (indices first occur at leaves, and leaves
    /// are emitted before their ancestors).
    fn emit_set(&mut self, ids: impl Iterator<Item = IndexId>) {
        let mut nums: Vec<u64> = ids.map(|i| self.canon(i)).collect();
        nums.sort_unstable();
        self.toks.push(nums.len() as u64);
        self.toks.extend(nums);
    }

    fn walk(&mut self, v: NodeId) {
        let node = self.tree.node(v);
        match &node.kind {
            NodeKind::Leaf => {
                self.node_order.push(v);
                self.toks.push(TAG_LEAF);
                self.toks.push(node.tensor.dims.len() as u64);
                for &d in &node.tensor.dims {
                    let n = self.canon(d);
                    self.toks.push(n);
                    self.toks.push(self.tree.space.extent(d));
                }
            }
            NodeKind::Contract { sum, left, right } => {
                let (sum, left, right) = (sum.clone(), *left, *right);
                let (a, b) = if self.swapped.get(&v).copied().unwrap_or(false) {
                    (right, left)
                } else {
                    (left, right)
                };
                self.walk(a);
                self.walk(b);
                self.node_order.push(v);
                self.toks.push(TAG_CONTRACT);
                self.emit_set(sum.iter());
                self.emit_set(node.tensor.dim_set().iter());
            }
            NodeKind::Reduce { sum, child } => {
                let (sum, child) = (*sum, *child);
                self.walk(child);
                self.node_order.push(v);
                self.toks.push(TAG_REDUCE);
                let n = self.canon(sum);
                self.toks.push(n);
                self.emit_set(self.tree.node(v).tensor.dim_set().iter());
            }
        }
    }
}

fn hash_tokens(toks: &[u64]) -> u128 {
    let mut h = Fnv128::new();
    for &t in toks {
        h.write_u64(t);
    }
    h.finish()
}

/// The strict canonical form of the subtree rooted at `v`: invariant under
/// index renaming, *not* under operand swaps (the level-1 reuse wants the
/// exact enumeration order preserved).
pub fn subtree_form(tree: &ExprTree, v: NodeId) -> SubtreeForm {
    let no_swaps = HashMap::new();
    let mut em = Emitter::new(tree, &no_swaps);
    em.walk(v);
    SubtreeForm { hash: hash_tokens(&em.toks), index_order: em.index_order, nodes: em.node_order }
}

/// The commutative whole-tree normal form: invariant under index renaming
/// and under swapping the operands of any contraction node.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// The canonical content hash — the level-2 plan-cache key component.
    pub hash: u128,
    /// `index_order[n]` = source [`IndexId`] of canonical index number `n`.
    pub index_order: Vec<IndexId>,
    /// `node_order[p]` = source [`NodeId`] at canonical node position `p`
    /// (the chosen walk's postorder).
    pub node_order: Vec<NodeId>,
}

impl CanonicalForm {
    /// Canonical position of a source node (`None` for nodes outside the
    /// walk, which cannot happen for nodes reachable from the root).
    pub fn position_of(&self, id: NodeId) -> Option<u32> {
        self.node_order.iter().position(|&n| n == id).map(|p| p as u32)
    }
}

/// Compute the commutative canonical form of the whole tree.
pub fn canonical_form(tree: &ExprTree) -> CanonicalForm {
    let contracts: Vec<NodeId> = tree
        .postorder()
        .into_iter()
        .filter(|&id| matches!(tree.node(id).kind, NodeKind::Contract { .. }))
        .collect();
    let root = tree.root();
    if contracts.len() > MAX_COMMUTATIVE_NODES {
        // Degenerate guard: keep declared operand order (rename-invariant
        // only). See `MAX_COMMUTATIVE_NODES`.
        let no_swaps = HashMap::new();
        let mut em = Emitter::new(tree, &no_swaps);
        em.walk(root);
        return CanonicalForm {
            hash: hash_tokens(&em.toks),
            index_order: em.index_order,
            node_order: em.node_order,
        };
    }
    let mut best: Option<(Vec<u64>, Vec<IndexId>, Vec<NodeId>)> = None;
    for mask in 0u32..(1u32 << contracts.len()) {
        let swapped: HashMap<NodeId, bool> =
            contracts.iter().enumerate().map(|(i, &n)| (n, mask & (1 << i) != 0)).collect();
        let mut em = Emitter::new(tree, &swapped);
        em.walk(root);
        let better = match &best {
            None => true,
            Some((toks, _, _)) => em.toks < *toks,
        };
        if better {
            best = Some((em.toks, em.index_order, em.node_order));
        }
    }
    // `best` is always set: the loop runs at least once (mask 0).
    let Some((toks, index_order, node_order)) = best else {
        // Unreachable; kept as a graceful degenerate instead of a panic.
        return CanonicalForm { hash: 0, index_order: Vec::new(), node_order: Vec::new() };
    };
    CanonicalForm { hash: hash_tokens(&toks), index_order, node_order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexSet, IndexSpace};
    use crate::tensor::Tensor;

    /// `S(a,i) = Σ_c ( Σ_b A(a,b) B(b,c) ) C(c,i)` with renamable names.
    fn chain(names: [&str; 5], extents: [u64; 4], swap_top: bool) -> ExprTree {
        let mut sp = IndexSpace::new();
        let ids: Vec<_> = names[..4].iter().zip(extents).map(|(n, e)| sp.declare(n, e)).collect();
        let (a, b, c, i) = (ids[0], ids[1], ids[2], ids[3]);
        let mut t = ExprTree::new(sp);
        let na = t.add_leaf(Tensor::new("A", vec![a, b]));
        let nb = t.add_leaf(Tensor::new("B", vec![b, c]));
        let nc = t.add_leaf(Tensor::new("C", vec![c, i]));
        let t1 = t
            .add_contract(Tensor::new("T1", vec![a, c]), IndexSet::from_iter([b]), na, nb)
            .unwrap();
        let s = if swap_top {
            t.add_contract(Tensor::new(names[4], vec![a, i]), IndexSet::from_iter([c]), nc, t1)
                .unwrap()
        } else {
            t.add_contract(Tensor::new(names[4], vec![a, i]), IndexSet::from_iter([c]), t1, nc)
                .unwrap()
        };
        t.set_root(s);
        t
    }

    #[test]
    fn fnv128_matches_reference_vector() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        // One byte must both xor and multiply.
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        assert_ne!(fnv128(b"ab"), fnv128(b"ba"));
    }

    #[test]
    fn rename_invariance_of_both_forms() {
        let t1 = chain(["a", "b", "c", "i", "S"], [8, 6, 4, 2], false);
        let t2 = chain(["w", "x", "y", "z", "R"], [8, 6, 4, 2], false);
        assert_eq!(subtree_form(&t1, t1.root()).hash, subtree_form(&t2, t2.root()).hash);
        assert_eq!(canonical_form(&t1).hash, canonical_form(&t2).hash);
    }

    #[test]
    fn extents_are_part_of_the_hash() {
        let t1 = chain(["a", "b", "c", "i", "S"], [8, 6, 4, 2], false);
        let t2 = chain(["a", "b", "c", "i", "S"], [8, 6, 4, 3], false);
        assert_ne!(subtree_form(&t1, t1.root()).hash, subtree_form(&t2, t2.root()).hash);
        assert_ne!(canonical_form(&t1).hash, canonical_form(&t2).hash);
    }

    #[test]
    fn commutative_swap_changes_strict_but_not_canonical() {
        let t1 = chain(["a", "b", "c", "i", "S"], [8, 6, 4, 2], false);
        let t2 = chain(["a", "b", "c", "i", "S"], [8, 6, 4, 2], true);
        assert_ne!(subtree_form(&t1, t1.root()).hash, subtree_form(&t2, t2.root()).hash);
        assert_eq!(canonical_form(&t1).hash, canonical_form(&t2).hash);
    }

    #[test]
    fn bijections_cover_every_index_and_node() {
        let t = chain(["a", "b", "c", "i", "S"], [8, 6, 4, 2], false);
        let f = canonical_form(&t);
        assert_eq!(f.index_order.len(), 4);
        assert_eq!(f.node_order.len(), t.len());
        for id in t.ids() {
            assert!(f.position_of(id).is_some());
        }
    }

    #[test]
    fn monotone_bijection_detects_order_flip() {
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 4);
        let sf1 = SubtreeForm { hash: 0, index_order: vec![a, b], nodes: vec![] };
        let sf2 = SubtreeForm { hash: 0, index_order: vec![b, a], nodes: vec![] };
        assert!(sf1.monotone_bijection_to(&sf1));
        assert!(!sf1.monotone_bijection_to(&sf2));
        assert!(sf2.monotone_bijection_to(&sf2));
    }

    #[test]
    fn tied_operands_hash_equal_under_swap() {
        // Both operands of the root are structurally identical leaves with
        // distinct indices — the tie case where a local decision is
        // ambiguous and only full-stream enumeration is exact.
        let build = |swap: bool| {
            let mut sp = IndexSpace::new();
            let i = sp.declare("i", 4);
            let j = sp.declare("j", 4);
            let mut t = ExprTree::new(sp);
            let x = t.add_leaf(Tensor::new("X", vec![i]));
            let y = t.add_leaf(Tensor::new("Y", vec![j]));
            let (l, r) = if swap { (y, x) } else { (x, y) };
            let root = t.add_contract(Tensor::new("S", vec![i, j]), IndexSet::new(), l, r).unwrap();
            t.set_root(root);
            t
        };
        assert_eq!(canonical_form(&build(false)).hash, canonical_form(&build(true)).hash);
    }
}
