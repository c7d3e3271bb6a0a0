//! Expression trees of tensor contractions.
//!
//! The paper's binary-tree representation (Fig. 1b): leaves are input
//! arrays; internal nodes are either *contraction* nodes
//! `Tr = Σ_K  X × Y` (a multiplication node together with the summations
//! immediately above it — the form every step of Fig. 2a takes) or pure
//! *reduction* nodes `Tr = Σ_i X`.
//!
//! A contraction node with the property of §3.1 — every result index occurs
//! in exactly one operand, every summation index in both — is a *generalized
//! matrix multiplication* `C(I,J) += A(I,K)·B(K,J)` and can be carried out by
//! the generalized Cannon algorithm; [`ExprTree::contraction_groups`] exposes
//! the `(I, J, K)` decomposition.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ExprError;
use crate::index::{IndexId, IndexSet, IndexSpace};
use crate::tensor::Tensor;

/// Handle to a node of an [`ExprTree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena position.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a tree node computes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An input array.
    Leaf,
    /// `result = Σ_sum left × right`; `sum` may be empty (a pure
    /// multiplication node, as in Fig. 1b's `T3 = T1 × T2`).
    Contract {
        /// Summation indices (the paper's index set `K` when the node is a
        /// proper generalized matrix multiplication).
        sum: IndexSet,
        /// Left operand node.
        left: NodeId,
        /// Right operand node.
        right: NodeId,
    },
    /// `result = Σ_sum child` — a pure summation node (Fig. 1b's `Σi`, `Σk`,
    /// `Σj`).
    Reduce {
        /// The single summation index.
        sum: IndexId,
        /// Operand node.
        child: NodeId,
    },
}

/// One node: the array it produces plus how it is produced.
#[derive(Clone, Debug)]
pub struct Node {
    /// The array produced at (or input by) this node.
    pub tensor: Tensor,
    /// Producer description.
    pub kind: NodeKind,
    /// Parent link (`None` for the root), maintained by the arena.
    pub parent: Option<NodeId>,
}

impl Node {
    /// The loop indices of the node's producing loop nest: its array
    /// dimensions plus its summation indices (the paper's `v.indices`).
    pub fn loop_indices(&self) -> IndexSet {
        let dims = self.tensor.dim_set();
        match &self.kind {
            NodeKind::Leaf => dims,
            NodeKind::Contract { sum, .. } => dims.union(sum),
            NodeKind::Reduce { sum, .. } => {
                let mut s = dims;
                s.insert(*sum);
                s
            }
        }
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf)
    }
}

/// The `(I, J, K)` index groups of a generalized matrix multiplication
/// `C(I,J) += A(I,K)·B(K,J)` (paper §3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContractionGroups {
    /// Result indices coming from the left operand.
    pub i: IndexSet,
    /// Result indices coming from the right operand.
    pub j: IndexSet,
    /// Summation indices (appear in both operands, not in the result).
    pub k: IndexSet,
}

/// An arena-allocated binary expression tree.
#[derive(Clone, Debug)]
pub struct ExprTree {
    /// The index space the tree's tensors live in.
    pub space: IndexSpace,
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl ExprTree {
    /// An empty tree over `space`.
    pub fn new(space: IndexSpace) -> Self {
        Self { space, nodes: Vec::new(), root: None }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(node);
        id
    }

    /// Add an input-array leaf.
    pub fn add_leaf(&mut self, tensor: Tensor) -> NodeId {
        self.push(Node { tensor, kind: NodeKind::Leaf, parent: None })
    }

    /// Add `result = Σ_sum left × right`, validating well-formedness:
    /// `(IX ∪ IY) ∖ sum = ITr` and `sum ⊆ IX ∪ IY` and `sum ∩ ITr = ∅`.
    pub fn add_contract(
        &mut self,
        result: Tensor,
        sum: IndexSet,
        left: NodeId,
        right: NodeId,
    ) -> Result<NodeId, ExprError> {
        let ix = self.node(left).tensor.dim_set();
        let iy = self.node(right).tensor.dim_set();
        let itr = result.dim_set();
        let rhs = ix.union(&iy);
        if !sum.is_subset(&rhs) {
            return Err(ExprError::Malformed(format!(
                "summation indices {{{}}} of `{}` do not all appear on the right-hand side",
                self.space.render(sum.as_slice()),
                result.name
            )));
        }
        if !sum.is_disjoint(&itr) {
            return Err(ExprError::Malformed(format!(
                "summation index of `{}` also appears in its result dimensions",
                result.name
            )));
        }
        if rhs.difference(&sum) != itr {
            return Err(ExprError::Malformed(format!(
                "`{}({})`: result dimensions must equal the non-summed \
                 right-hand-side indices {{{}}}",
                result.name,
                self.space.render(&result.dims),
                self.space.render(rhs.difference(&sum).as_slice()),
            )));
        }
        for &c in &[left, right] {
            if self.node(c).parent.is_some() {
                return Err(ExprError::Malformed(format!(
                    "node `{}` already has a parent; trees may not share sub-expressions",
                    self.node(c).tensor.name
                )));
            }
        }
        let id = self.push(Node {
            tensor: result,
            kind: NodeKind::Contract { sum, left, right },
            parent: None,
        });
        self.nodes[left.as_usize()].parent = Some(id);
        self.nodes[right.as_usize()].parent = Some(id);
        Ok(id)
    }

    /// Add a pure summation node `result = Σ_sum child`.
    pub fn add_reduce(
        &mut self,
        result: Tensor,
        sum: IndexId,
        child: NodeId,
    ) -> Result<NodeId, ExprError> {
        let ix = self.node(child).tensor.dim_set();
        let itr = result.dim_set();
        if !ix.contains(sum) {
            return Err(ExprError::Malformed(format!(
                "summation index `{}` of `{}` is not a dimension of the operand",
                self.space.name(sum),
                result.name
            )));
        }
        let mut expect = ix;
        expect.remove(sum);
        if expect != itr {
            return Err(ExprError::Malformed(format!(
                "`{}`: result dimensions must be the operand dimensions minus `{}`",
                result.name,
                self.space.name(sum)
            )));
        }
        if self.node(child).parent.is_some() {
            return Err(ExprError::Malformed(format!(
                "node `{}` already has a parent",
                self.node(child).tensor.name
            )));
        }
        let id =
            self.push(Node { tensor: result, kind: NodeKind::Reduce { sum, child }, parent: None });
        self.nodes[child.as_usize()].parent = Some(id);
        Ok(id)
    }

    /// Declare which node is the final result. Must be parentless.
    pub fn set_root(&mut self, id: NodeId) {
        assert!(self.node(id).parent.is_none(), "root must not have a parent");
        self.root = Some(id);
    }

    /// The final-result node.
    ///
    /// # Panics
    /// Panics if no root was set.
    pub fn root(&self) -> NodeId {
        self.root.expect("expression tree has no root")
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.as_usize()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids in arena order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Children of a node (0, 1, or 2 of them).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        match &self.node(id).kind {
            NodeKind::Leaf => vec![],
            NodeKind::Contract { left, right, .. } => vec![*left, *right],
            NodeKind::Reduce { child, .. } => vec![*child],
        }
    }

    /// Post-order traversal of the subtree under the root (children before
    /// parents) — the order the bottom-up dynamic programming wants.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root(), false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
            } else {
                stack.push((id, true));
                for c in self.children(id) {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// Find a node producing the array named `name`.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.ids().find(|&id| self.node(id).tensor.name == name)
    }

    /// Decompose a contraction node into the `(I, J, K)` groups of §3.1,
    /// checking the *tensor contraction property*: every result index
    /// appears in exactly one operand, every summation index in both.
    /// Returns an error for non-contraction nodes (leaves, reductions) and
    /// for multiplication nodes that violate the property (e.g. the
    /// element-wise `T3 = T1 × T2` of Fig. 1).
    pub fn contraction_groups(&self, id: NodeId) -> Result<ContractionGroups, ExprError> {
        let node = self.node(id);
        let NodeKind::Contract { sum, left, right } = &node.kind else {
            return Err(ExprError::NotAContraction(node.tensor.name.clone()));
        };
        let ix = self.node(*left).tensor.dim_set();
        let iy = self.node(*right).tensor.dim_set();
        let shared = ix.intersection(&iy);
        if &shared != sum {
            return Err(ExprError::NotAContraction(format!(
                "`{}`: operands share {{{}}} but the summation set is {{{}}}",
                node.tensor.name,
                self.space.render(shared.as_slice()),
                self.space.render(sum.as_slice()),
            )));
        }
        Ok(ContractionGroups { i: ix.difference(sum), j: iy.difference(sum), k: sum.clone() })
    }

    /// True if every internal node is a proper generalized matrix
    /// multiplication (so the whole tree is Cannon-executable).
    pub fn is_contraction_tree(&self) -> bool {
        self.postorder().iter().all(|&id| match self.node(id).kind {
            NodeKind::Leaf => true,
            NodeKind::Reduce { .. } => false,
            NodeKind::Contract { .. } => self.contraction_groups(id).is_ok(),
        })
    }

    /// Floating point operations to evaluate node `id` (2 flops per
    /// multiply-add of a contraction with a non-empty summation set; 1 flop
    /// per point otherwise). Saturates at `u128::MAX` instead of wrapping.
    pub fn node_op_count(&self, id: NodeId) -> u128 {
        let node = self.node(id);
        let volume = |ids: &[IndexId]| self.space.checked_volume(ids).unwrap_or(u128::MAX);
        match &node.kind {
            NodeKind::Leaf => 0,
            NodeKind::Contract { sum, left, right } => {
                let ix = self.node(*left).tensor.dim_set();
                let iy = self.node(*right).tensor.dim_set();
                let vol = volume(ix.union(&iy).as_slice());
                if sum.is_empty() {
                    vol
                } else {
                    vol.saturating_mul(2)
                }
            }
            NodeKind::Reduce { child, .. } => volume(self.node(*child).tensor.dims.as_slice()),
        }
    }

    /// Total flops for the subtree under the root. Saturates at
    /// `u128::MAX` instead of wrapping.
    pub fn total_op_count(&self) -> u128 {
        self.postorder().iter().fold(0, |total, &id| total.saturating_add(self.node_op_count(id)))
    }

    /// Sum of intermediate + result array sizes (words), ignoring inputs —
    /// the unfused memory requirement for temporaries.
    pub fn intermediate_words(&self) -> u128 {
        self.postorder()
            .iter()
            .filter(|&&id| !self.node(id).is_leaf())
            .map(|&id| self.node(id).tensor.num_elements(&self.space))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Fig. 2(a) tree:
    /// T1(b,c,d,f) = Σ_el B(b,e,f,l) D(c,d,e,l);
    /// T2(b,c,j,k) = Σ_df T1 C(d,f,j,k);
    /// S(a,b,i,j)  = Σ_ck T2 A(a,c,i,k)
    fn fig2_tree() -> ExprTree {
        let mut sp = IndexSpace::new();
        let n480 = ["a", "b", "c", "d"].map(|n| sp.declare(n, 480));
        let n64 = ["e", "f"].map(|n| sp.declare(n, 64));
        let n32 = ["i", "j", "k", "l"].map(|n| sp.declare(n, 32));
        let [a, b, c, d] = n480;
        let [e, f] = n64;
        let [i, j, k, l] = n32;

        let mut t = ExprTree::new(sp);
        let nb = t.add_leaf(Tensor::new("B", vec![b, e, f, l]));
        let nd = t.add_leaf(Tensor::new("D", vec![c, d, e, l]));
        let nc = t.add_leaf(Tensor::new("C", vec![d, f, j, k]));
        let na = t.add_leaf(Tensor::new("A", vec![a, c, i, k]));
        let t1 = t
            .add_contract(Tensor::new("T1", vec![b, c, d, f]), IndexSet::from_iter([e, l]), nb, nd)
            .unwrap();
        let t2 = t
            .add_contract(Tensor::new("T2", vec![b, c, j, k]), IndexSet::from_iter([d, f]), t1, nc)
            .unwrap();
        let s = t
            .add_contract(Tensor::new("S", vec![a, b, i, j]), IndexSet::from_iter([c, k]), t2, na)
            .unwrap();
        t.set_root(s);
        t
    }

    #[test]
    fn fig2_tree_is_well_formed_contraction_tree() {
        let t = fig2_tree();
        assert!(t.is_contraction_tree());
        assert_eq!(t.len(), 7);
        assert_eq!(t.postorder().len(), 7);
        // Post-order puts the root last.
        assert_eq!(*t.postorder().last().unwrap(), t.root());
    }

    #[test]
    fn fig2_groups() {
        let t = fig2_tree();
        let t1 = t.find("T1").unwrap();
        let g = t.contraction_groups(t1).unwrap();
        let sp = &t.space;
        assert_eq!(sp.render(g.i.as_slice()), "b,f");
        assert_eq!(sp.render(g.j.as_slice()), "c,d");
        assert_eq!(sp.render(g.k.as_slice()), "e,l");
    }

    #[test]
    fn fig2_total_ops_is_6n6_scale() {
        let t = fig2_tree();
        // Step flop counts from §2: 2·Nb·Nc·Nd·Nf·Ne·Nl + 2·Nb·Nc·Nj·Nk·Nd·Nf
        // + 2·Na·Nb·Ni·Nj·Nc·Nk.
        let n480 = 480u128;
        let n64 = 64u128;
        let n32 = 32u128;
        let expect = 2 * n480.pow(3) * n64 * n64 * n32
            + 2 * n480.pow(3) * n64 * n32 * n32
            + 2 * n480.pow(3) * n32.pow(3);
        assert_eq!(t.total_op_count(), expect);
    }

    #[test]
    fn intermediates_dominated_by_t1() {
        let t = fig2_tree();
        let t1_words = 480u128 * 480 * 480 * 64;
        assert!(t.intermediate_words() > t1_words);
        assert!(t.intermediate_words() < 2 * t1_words);
    }

    #[test]
    fn malformed_contract_rejected() {
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 4);
        let c = sp.declare("c", 4);
        let mut t = ExprTree::new(sp);
        let x = t.add_leaf(Tensor::new("X", vec![a, b]));
        let y = t.add_leaf(Tensor::new("Y", vec![b, c]));
        // Result keeps the summation index b -> malformed.
        let r = t.add_contract(Tensor::new("R", vec![a, b, c]), IndexSet::from_iter([b]), x, y);
        assert!(r.is_err());
        // Result missing index c -> malformed.
        let r2 = t.add_contract(Tensor::new("R", vec![a]), IndexSet::from_iter([b]), x, y);
        assert!(r2.is_err());
    }

    #[test]
    fn sharing_rejected() {
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 4);
        let c = sp.declare("c", 4);
        let d = sp.declare("d", 4);
        let mut t = ExprTree::new(sp);
        let x = t.add_leaf(Tensor::new("X", vec![a, b]));
        let y = t.add_leaf(Tensor::new("Y", vec![b, c]));
        let z = t.add_leaf(Tensor::new("Z", vec![b, d]));
        t.add_contract(Tensor::new("R", vec![a, c]), IndexSet::from_iter([b]), x, y).unwrap();
        // X is already consumed.
        assert!(t
            .add_contract(Tensor::new("R2", vec![a, d]), IndexSet::from_iter([b]), x, z)
            .is_err());
    }

    #[test]
    fn reduce_node_round_trip() {
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 10);
        let j = sp.declare("j", 20);
        let mut t = ExprTree::new(sp);
        let a = t.add_leaf(Tensor::new("A", vec![i, j]));
        let r = t.add_reduce(Tensor::new("T", vec![j]), i, a).unwrap();
        t.set_root(r);
        assert!(!t.is_contraction_tree());
        assert_eq!(t.node_op_count(r), 200);
        match &t.node(r).kind {
            NodeKind::Reduce { sum, .. } => assert_eq!(*sum, i),
            _ => panic!("expected reduce"),
        }
    }

    #[test]
    fn reduce_validation() {
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 10);
        let j = sp.declare("j", 20);
        let mut t = ExprTree::new(sp);
        let a = t.add_leaf(Tensor::new("A", vec![j]));
        // i is not a dimension of A.
        assert!(t.add_reduce(Tensor::new("T", vec![j]), i, a).is_err());
    }

    #[test]
    fn op_counts_saturate_near_2_pow_128() {
        // T1(i,j) = Σ_k A(i,k) B(k,j) and T2(i,l) = Σ_j T1(i,j) C(j,l),
        // each over a 2^126-point loop nest: 2^127 flops apiece, 2^128 in
        // all.
        let mut sp = IndexSpace::new();
        let i = sp.declare("i", 1 << 63);
        let j = sp.declare("j", 1 << 62);
        let k = sp.declare("k", 2);
        let l = sp.declare("l", 2);
        let mut t = ExprTree::new(sp);
        let a = t.add_leaf(Tensor::new("A", vec![i, k]));
        let b = t.add_leaf(Tensor::new("B", vec![k, j]));
        let c = t.add_leaf(Tensor::new("C", vec![j, l]));
        let t1 =
            t.add_contract(Tensor::new("T1", vec![i, j]), IndexSet::from_iter([k]), a, b).unwrap();
        let t2 =
            t.add_contract(Tensor::new("T2", vec![i, l]), IndexSet::from_iter([j]), t1, c).unwrap();
        t.set_root(t2);
        assert_eq!(t.node_op_count(t1), 1 << 127);
        assert_eq!(t.node_op_count(t2), 1 << 127);
        assert_eq!(t.total_op_count(), u128::MAX, "the sum saturates");

        // One more doubling of the nest: 2·2^127 saturates at the node,
        // and a 2^128-point nest saturates in the volume itself.
        for (j_extent, k_extent, what) in [(1 << 62, 4, "2·volume"), (1 << 63, 8, "the volume")] {
            let mut sp = IndexSpace::new();
            let i = sp.declare("i", 1 << 63);
            let j = sp.declare("j", j_extent);
            let k = sp.declare("k", k_extent);
            let mut t = ExprTree::new(sp);
            let a = t.add_leaf(Tensor::new("A", vec![i, k]));
            let b = t.add_leaf(Tensor::new("B", vec![k, j]));
            let t1 = t
                .add_contract(Tensor::new("T1", vec![i, j]), IndexSet::from_iter([k]), a, b)
                .unwrap();
            t.set_root(t1);
            assert_eq!(t.node_op_count(t1), u128::MAX, "{what}");
            assert_eq!(t.total_op_count(), u128::MAX, "{what}");
        }
    }

    #[test]
    fn loop_indices_include_sum() {
        let t = fig2_tree();
        let t1 = t.find("T1").unwrap();
        let li = t.node(t1).loop_indices();
        assert_eq!(li.len(), 6); // b,c,d,f + e,l
    }
}
