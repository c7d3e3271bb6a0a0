//! Index variables and index spaces.
//!
//! Every loop/array dimension in a tensor contraction expression is named by
//! an *index variable* (the paper's `a`–`l`). An [`IndexSpace`] interns the
//! variable names of one expression and records the *extent* (range `N_i`)
//! of each. All other layers refer to indices through the copyable
//! [`IndexId`] handle, which keeps index sets cheap (bitsets / small vecs of
//! `u32`) in the inner loops of the optimizer.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Handle to an index variable interned in an [`IndexSpace`].
///
/// Ordering follows declaration order, which gives every algorithm in the
/// workspace a deterministic canonical order of indices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IndexId(pub u32);

impl IndexId {
    /// Position of this index in its space's declaration order.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ix{}", self.0)
    }
}

/// The set of index variables of one expression, with their extents.
///
/// ```
/// use tce_expr::IndexSpace;
/// let mut sp = IndexSpace::new();
/// let a = sp.declare("a", 480);
/// let e = sp.declare("e", 64);
/// assert_eq!(sp.extent(a), 480);
/// assert_eq!(sp.name(e), "e");
/// assert_eq!(sp.lookup("a"), Some(a));
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IndexSpace {
    names: Vec<String>,
    extents: Vec<u64>,
    #[serde(skip)]
    by_name: HashMap<String, IndexId>,
}

impl IndexSpace {
    /// An empty index space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a new index variable with the given extent, or return the
    /// existing handle if `name` was already declared *with the same extent*.
    ///
    /// # Panics
    /// Panics if `name` was declared before with a different extent, or if
    /// `extent == 0` — both are programming errors in expression
    /// construction that would silently corrupt every cost model downstream.
    pub fn declare(&mut self, name: &str, extent: u64) -> IndexId {
        assert!(extent > 0, "index `{name}` declared with zero extent");
        if let Some(&id) = self.by_name.get(name) {
            assert_eq!(
                self.extents[id.as_usize()],
                extent,
                "index `{name}` re-declared with a different extent"
            );
            return id;
        }
        let id = IndexId(u32::try_from(self.names.len()).expect("too many indices"));
        self.names.push(name.to_owned());
        self.extents.push(extent);
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Find a declared index by name.
    pub fn lookup(&self, name: &str) -> Option<IndexId> {
        if self.by_name.len() != self.names.len() {
            // Deserialized spaces arrive without the lookup map; fall back to
            // a scan (spaces are tiny — a dozen indices at most in practice).
            return self.names.iter().position(|n| n == name).map(|i| IndexId(i as u32));
        }
        self.by_name.get(name).copied()
    }

    /// Extent (`N_i`) of an index.
    #[inline]
    pub fn extent(&self, id: IndexId) -> u64 {
        self.extents[id.as_usize()]
    }

    /// Name of an index.
    #[inline]
    pub fn name(&self, id: IndexId) -> &str {
        &self.names[id.as_usize()]
    }

    /// Number of declared indices.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no indices are declared.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All declared indices in declaration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = IndexId> + '_ {
        (0..self.names.len() as u32).map(IndexId)
    }

    /// Product of extents over a set of indices, as a `u128` so that the
    /// 10-index `4N^10` examples of the paper cannot overflow.
    pub fn volume(&self, ids: &[IndexId]) -> u128 {
        ids.iter().map(|&i| self.extent(i) as u128).product()
    }

    /// [`Self::volume`], or `None` when the product overflows `u128`.
    pub fn checked_volume(&self, ids: &[IndexId]) -> Option<u128> {
        ids.iter().try_fold(1u128, |v, &i| v.checked_mul(u128::from(self.extent(i))))
    }

    /// Render a set of indices as `a,b,c` for diagnostics and tables.
    pub fn render(&self, ids: &[IndexId]) -> String {
        let mut s = String::new();
        for (n, &i) in ids.iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            s.push_str(self.name(i));
        }
        s
    }
}

/// A sorted, deduplicated set of indices. Thin wrapper over `Vec<IndexId>`
/// kept sorted; the sets involved are tiny (≤ ~12 indices) so a sorted vec
/// beats hash sets both in speed and in determinism.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IndexSet(Vec<IndexId>);

impl IndexSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator, sorting and deduplicating (also available
    /// through the `FromIterator` impl; kept as an inherent method for
    /// call-site clarity).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = IndexId>>(it: I) -> Self {
        let mut v: Vec<IndexId> = it.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self(v)
    }

    /// Membership test (binary search; sets are tiny).
    #[inline]
    pub fn contains(&self, id: IndexId) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// Insert one index, keeping order.
    pub fn insert(&mut self, id: IndexId) {
        if let Err(pos) = self.0.binary_search(&id) {
            self.0.insert(pos, id);
        }
    }

    /// Remove one index if present.
    pub fn remove(&mut self, id: IndexId) {
        if let Ok(pos) = self.0.binary_search(&id) {
            self.0.remove(pos);
        }
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        Self::from_iter(self.0.iter().chain(other.0.iter()).copied())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        Self(self.0.iter().copied().filter(|&i| other.contains(i)).collect())
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Self) -> Self {
        Self(self.0.iter().copied().filter(|&i| !other.contains(i)).collect())
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.0.iter().all(|&i| other.contains(i))
    }

    /// True if the sets share no element.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.0.iter().all(|&i| !other.contains(i))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate in canonical (declaration) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = IndexId> + '_ {
        self.0.iter().copied()
    }

    /// Borrow the sorted contents.
    pub fn as_slice(&self) -> &[IndexId] {
        &self.0
    }
}

impl fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

impl FromIterator<IndexId> for IndexSet {
    fn from_iter<T: IntoIterator<Item = IndexId>>(iter: T) -> Self {
        Self::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a IndexSet {
    type Item = IndexId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, IndexId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (IndexSpace, IndexId, IndexId, IndexId) {
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 5);
        let c = sp.declare("c", 6);
        (sp, a, b, c)
    }

    #[test]
    fn declare_and_lookup() {
        let (sp, a, b, _) = abc();
        assert_eq!(sp.lookup("a"), Some(a));
        assert_eq!(sp.lookup("b"), Some(b));
        assert_eq!(sp.lookup("zzz"), None);
        assert_eq!(sp.extent(a), 4);
        assert_eq!(sp.name(b), "b");
        assert_eq!(sp.len(), 3);
    }

    #[test]
    fn redeclare_same_extent_is_idempotent() {
        let mut sp = IndexSpace::new();
        let a1 = sp.declare("a", 7);
        let a2 = sp.declare("a", 7);
        assert_eq!(a1, a2);
        assert_eq!(sp.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different extent")]
    fn redeclare_different_extent_panics() {
        let mut sp = IndexSpace::new();
        sp.declare("a", 7);
        sp.declare("a", 8);
    }

    #[test]
    #[should_panic(expected = "zero extent")]
    fn zero_extent_panics() {
        let mut sp = IndexSpace::new();
        sp.declare("a", 0);
    }

    #[test]
    fn volume_is_product_of_extents() {
        let (sp, a, b, c) = abc();
        assert_eq!(sp.volume(&[a, b, c]), 4 * 5 * 6);
        assert_eq!(sp.volume(&[]), 1);
    }

    #[test]
    fn volume_handles_ten_large_indices() {
        let mut sp = IndexSpace::new();
        let ids: Vec<_> = (0..10).map(|i| sp.declare(&format!("i{i}"), 1000)).collect();
        assert_eq!(sp.volume(&ids), 10u128.pow(30));
    }

    #[test]
    fn index_set_ops() {
        let (_, a, b, c) = abc();
        let s1 = IndexSet::from_iter([b, a, b]);
        assert_eq!(s1.len(), 2);
        assert!(s1.contains(a) && s1.contains(b) && !s1.contains(c));
        let s2 = IndexSet::from_iter([b, c]);
        assert_eq!(s1.union(&s2).len(), 3);
        assert_eq!(s1.intersection(&s2).as_slice(), &[b]);
        assert_eq!(s1.difference(&s2).as_slice(), &[a]);
        assert!(s1.intersection(&s2).is_subset(&s1));
        assert!(!s1.is_disjoint(&s2));
        assert!(IndexSet::new().is_disjoint(&s1));
        assert!(IndexSet::new().is_subset(&s2));
    }

    #[test]
    fn index_set_insert_remove_keep_order() {
        let (_, a, b, c) = abc();
        let mut s = IndexSet::new();
        s.insert(c);
        s.insert(a);
        s.insert(b);
        s.insert(a);
        assert_eq!(s.as_slice(), &[a, b, c]);
        s.remove(b);
        assert_eq!(s.as_slice(), &[a, c]);
        s.remove(b); // removing absent element is a no-op
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn render_names() {
        let (sp, a, b, c) = abc();
        assert_eq!(sp.render(&[a, b, c]), "a,b,c");
        assert_eq!(sp.render(&[]), "");
    }
}
