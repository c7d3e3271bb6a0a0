//! Tensors: named multi-dimensional arrays over index variables.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::index::{IndexId, IndexSet, IndexSpace};

/// A named dense array whose dimensions are index variables.
///
/// The dimension *order* matters for printing and for the block layout used
/// by the simulator, but most of the optimization machinery works on the
/// dimension *set* ([`Tensor::dim_set`]).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tensor {
    /// Array name, e.g. `T1`.
    pub name: String,
    /// Ordered dimension indices, e.g. `[b, c, d, f]`.
    pub dims: Vec<IndexId>,
}

impl Tensor {
    /// Create a tensor; panics on a repeated dimension index (the class of
    /// computations in the paper never subscripts an array twice with the
    /// same index — `A(i,i)` diagonals are outside the model).
    pub fn new(name: impl Into<String>, dims: Vec<IndexId>) -> Self {
        let name = name.into();
        let set = IndexSet::from_iter(dims.iter().copied());
        assert_eq!(set.len(), dims.len(), "tensor `{name}` has a repeated dimension index");
        Self { name, dims }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// The dimensions as a canonical set.
    pub fn dim_set(&self) -> IndexSet {
        IndexSet::from_iter(self.dims.iter().copied())
    }

    /// Whether `id` is a dimension of this tensor.
    pub fn has_dim(&self, id: IndexId) -> bool {
        self.dims.contains(&id)
    }

    /// Total number of elements (words), e.g. `N_b·N_c·N_d·N_f` for
    /// `T1(b,c,d,f)`.
    pub fn num_elements(&self, space: &IndexSpace) -> u128 {
        space.volume(&self.dims)
    }

    /// Render as `T1(b,c,d,f)` (paper notation).
    pub fn render(&self, space: &IndexSpace) -> String {
        format!("{}({})", self.name, space.render(&self.dims))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.name, self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (IndexSpace, Vec<IndexId>) {
        let mut sp = IndexSpace::new();
        let ids = ["b", "c", "d", "f"]
            .iter()
            .zip([480u64, 480, 480, 64])
            .map(|(n, e)| sp.declare(n, e))
            .collect();
        (sp, ids)
    }

    #[test]
    fn basics() {
        let (sp, ids) = space();
        let t1 = Tensor::new("T1", ids.clone());
        assert_eq!(t1.arity(), 4);
        assert_eq!(t1.num_elements(&sp), 480u128 * 480 * 480 * 64);
        assert_eq!(t1.render(&sp), "T1(b,c,d,f)");
        assert!(t1.has_dim(ids[0]));
    }

    #[test]
    fn scalar_tensor() {
        let sp = IndexSpace::new();
        let s = Tensor::new("s", vec![]);
        assert_eq!(s.arity(), 0);
        assert_eq!(s.num_elements(&sp), 1);
        assert_eq!(s.render(&sp), "s()");
    }

    #[test]
    #[should_panic(expected = "repeated dimension")]
    fn repeated_dim_panics() {
        let (_, ids) = space();
        Tensor::new("bad", vec![ids[0], ids[0]]);
    }

    #[test]
    fn dim_set_is_order_independent() {
        let (_, ids) = space();
        let t1 = Tensor::new("X", vec![ids[2], ids[0]]);
        let t2 = Tensor::new("Y", vec![ids[0], ids[2]]);
        assert_eq!(t1.dim_set(), t2.dim_set());
    }
}
