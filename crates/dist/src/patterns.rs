//! Generalized Cannon communication patterns (§3.1).
//!
//! A tensor contraction is a generalized matrix multiplication
//! `C(I,J) += A(I,K)·B(K,J)` over index *groups*. Picking one index from
//! each group gives a triplet `{i, j, k}`; assigning two of the three
//! *roles* to the two grid dimensions (the third becomes the *rotation
//! role*) fixes the distribution of all three arrays and which two of them
//! rotate. The paper counts `3·NI·NJ·NK` distinct patterns (the choice of
//! rotation role × the triplet); we additionally enumerate the two grid
//! orientations, a symmetry the paper folds away.

use serde::{Deserialize, Serialize};
use tce_expr::{ContractionGroups, IndexId, IndexSpace};

use crate::distribution::Distribution;
use crate::grid::GridDim;

/// One of the three index groups of a generalized matrix multiplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Result indices from the left operand.
    I,
    /// Result indices from the right operand.
    J,
    /// Summation indices.
    K,
}

impl Role {
    /// All roles.
    pub const ALL: [Role; 3] = [Role::I, Role::J, Role::K];

    /// The two roles carried by each participant array.
    pub fn roles_of(op: Operand) -> [Role; 2] {
        match op {
            Operand::Left => [Role::I, Role::K],
            Operand::Right => [Role::K, Role::J],
            Operand::Result => [Role::I, Role::J],
        }
    }
}

/// The three arrays participating in a contraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// The left input `A(I,K)`.
    Left,
    /// The right input `B(K,J)`.
    Right,
    /// The result `C(I,J)`.
    Result,
}

impl Operand {
    /// All operands.
    pub const ALL: [Operand; 3] = [Operand::Left, Operand::Right, Operand::Result];

    /// Whether this operand's index set contains the given role.
    pub fn has_role(self, r: Role) -> bool {
        Role::roles_of(self).contains(&r)
    }
}

/// Which role sits on each grid dimension; the remaining role rotates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RoleAssignment {
    /// Role carried by grid dimension 1.
    pub dim1: Role,
    /// Role carried by grid dimension 2.
    pub dim2: Role,
}

impl RoleAssignment {
    /// The six permutations of roles onto (dim1, dim2, rotating).
    pub const ALL: [RoleAssignment; 6] = [
        RoleAssignment { dim1: Role::I, dim2: Role::J }, // k rotates (classical)
        RoleAssignment { dim1: Role::J, dim2: Role::I }, // k rotates, flipped
        RoleAssignment { dim1: Role::I, dim2: Role::K }, // j rotates
        RoleAssignment { dim1: Role::K, dim2: Role::I }, // j rotates, flipped
        RoleAssignment { dim1: Role::J, dim2: Role::K }, // i rotates
        RoleAssignment { dim1: Role::K, dim2: Role::J }, // i rotates, flipped
    ];

    /// Role on a given grid dimension.
    pub fn at(&self, d: GridDim) -> Role {
        match d {
            GridDim::Dim1 => self.dim1,
            GridDim::Dim2 => self.dim2,
        }
    }

    /// The rotating role (the one on neither grid dimension).
    pub fn rotating(&self) -> Role {
        *Role::ALL
            .iter()
            .find(|&&r| r != self.dim1 && r != self.dim2)
            .expect("three distinct roles")
    }
}

/// A fully chosen communication pattern: one index per group (possibly
/// `None` for an empty group, or for deliberate replication) plus the role
/// assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CannonPattern {
    /// Chosen index of group `I`.
    pub i: Option<IndexId>,
    /// Chosen index of group `J`.
    pub j: Option<IndexId>,
    /// Chosen index of group `K`.
    pub k: Option<IndexId>,
    /// Placement of roles on the grid.
    pub assign: RoleAssignment,
}

impl CannonPattern {
    /// The chosen index for a role.
    pub fn sel(&self, r: Role) -> Option<IndexId> {
        match r {
            Role::I => self.i,
            Role::J => self.j,
            Role::K => self.k,
        }
    }

    /// The distribution of one participant array under this pattern.
    ///
    /// For each grid dimension: if the array carries the dimension's
    /// spatial role, that role's index is distributed there; otherwise the
    /// array carries the rotating role, whose index occupies the position
    /// (the "skewed" dimension along which the array's blocks cycle).
    pub fn operand_dist(&self, op: Operand) -> Distribution {
        let get = |d: GridDim| {
            let rd = self.assign.at(d);
            if op.has_role(rd) {
                self.sel(rd)
            } else {
                // `rd` is the spatial role the array is missing; the
                // rotating role sits on this grid dimension instead.
                self.sel(self.assign.rotating())
            }
        };
        Distribution { d1: get(GridDim::Dim1), d2: get(GridDim::Dim2) }
    }

    /// Whether this operand rotates (it carries the rotating role and that
    /// role has a chosen index).
    pub fn rotates(&self, op: Operand) -> bool {
        let rot = self.assign.rotating();
        op.has_role(rot) && self.sel(rot).is_some()
    }

    /// The grid dimension along which a rotating operand travels: the one
    /// whose spatial role the operand is missing.
    pub fn travel_dim(&self, op: Operand) -> Option<GridDim> {
        if !self.rotates(op) {
            return None;
        }
        GridDim::BOTH.into_iter().find(|&d| !op.has_role(self.assign.at(d)))
    }

    /// The rotation index (the index of the rotating role), if any.
    pub fn rotation_index(&self) -> Option<IndexId> {
        self.sel(self.assign.rotating())
    }

    /// The two operands that rotate under this pattern (empty when the
    /// rotating role has no index).
    pub fn rotated_operands(&self) -> Vec<Operand> {
        Operand::ALL.into_iter().filter(|&op| self.rotates(op)).collect()
    }

    /// Human-readable rendering for reports.
    pub fn render(&self, space: &IndexSpace) -> String {
        let nm = |o: Option<IndexId>| o.map(|i| space.name(i).to_owned()).unwrap_or("·".into());
        format!(
            "i={} j={} k={} rot={:?}",
            nm(self.i),
            nm(self.j),
            nm(self.k),
            self.assign.rotating()
        )
    }
}

/// Enumerate every pattern for the contraction groups. When a group is
/// empty its selection is `None`. With `allow_replication`, `None`
/// selections are also offered for non-empty groups (trading replicated
/// memory for reduced communication — an extension beyond the paper's
/// always-fully-distributed search).
pub fn enumerate_patterns(
    groups: &ContractionGroups,
    allow_replication: bool,
) -> Vec<CannonPattern> {
    let opts = |g: &tce_expr::IndexSet| -> Vec<Option<IndexId>> {
        let mut v: Vec<Option<IndexId>> = g.iter().map(Some).collect();
        if v.is_empty() || allow_replication {
            v.push(None);
        }
        v
    };
    let is_opt = opts(&groups.i);
    let js_opt = opts(&groups.j);
    let ks_opt = opts(&groups.k);
    let mut out = Vec::with_capacity(is_opt.len() * js_opt.len() * ks_opt.len() * 6);
    for &i in &is_opt {
        for &j in &js_opt {
            for &k in &ks_opt {
                for assign in RoleAssignment::ALL {
                    let pat = CannonPattern { i, j, k, assign };
                    // Executability: a *distributed* summation index needs an
                    // actual rotation to combine the partial sums — either
                    // the inputs rotate over K, or the result travels across
                    // K's grid dimension. A pattern whose rotating role has
                    // no index while k is distributed computes garbage.
                    if pat.k.is_some() && pat.rotation_index().is_none() {
                        continue;
                    }
                    // The dual: a rotating result travels across K's grid
                    // dimension accumulating per-k-block partial sums. With
                    // no index on K that dimension partitions nothing, so
                    // every processor along the ring adds an *identical*
                    // contribution and the result is overcounted q times.
                    if pat.rotates(Operand::Result) && pat.k.is_none() {
                        continue;
                    }
                    out.push(pat);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::{IndexSet, IndexSpace};

    /// Build the step-1 groups of the paper's example:
    /// T1(b,c,d,f) = Σ_el B(b,e,f,l)·D(c,d,e,l):
    /// I = {b,f}, J = {c,d}, K = {e,l}.
    fn step1() -> (IndexSpace, ContractionGroups) {
        let mut sp = IndexSpace::new();
        let b = sp.declare("b", 480);
        let c = sp.declare("c", 480);
        let d = sp.declare("d", 480);
        let e = sp.declare("e", 64);
        let f = sp.declare("f", 64);
        let l = sp.declare("l", 32);
        let g = ContractionGroups {
            i: IndexSet::from_iter([b, f]),
            j: IndexSet::from_iter([c, d]),
            k: IndexSet::from_iter([e, l]),
        };
        (sp, g)
    }

    #[test]
    fn pattern_count_is_six_per_triplet() {
        let (_, g) = step1();
        let pats = enumerate_patterns(&g, false);
        // 2·2·2 triplets × 6 assignments (the paper's 3·NI·NJ·NK patterns
        // × 2 grid orientations).
        assert_eq!(pats.len(), 48);
        // With replication options: 3·3·3·6 minus the 24 non-executable
        // combinations (distributed k with a selection-less rotating role)
        // minus the 24 overcounting ones (rotating result with k = None).
        assert_eq!(enumerate_patterns(&g, true).len(), 114);
    }

    #[test]
    fn table1_step1_pattern_reproduced() {
        // Table 1: T1 at <d,b>, B at <e,b>, D at <d,e>; B and D rotate,
        // T1 fixed. That is: i=b, j=d, k=e; dim1 ← J, dim2 ← I, K rotates.
        let (sp, _g) = step1();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let pat = CannonPattern {
            i: Some(ix("b")),
            j: Some(ix("d")),
            k: Some(ix("e")),
            assign: RoleAssignment { dim1: Role::J, dim2: Role::I },
        };
        assert_eq!(pat.operand_dist(Operand::Result).render(&sp), "<d,b>");
        assert_eq!(pat.operand_dist(Operand::Left).render(&sp), "<e,b>"); // B
        assert_eq!(pat.operand_dist(Operand::Right).render(&sp), "<d,e>"); // D
        assert!(pat.rotates(Operand::Left));
        assert!(pat.rotates(Operand::Right));
        assert!(!pat.rotates(Operand::Result));
        assert_eq!(pat.rotation_index(), Some(ix("e")));
        // B misses role J (on dim1) -> travels along dim1; D misses I (dim2).
        assert_eq!(pat.travel_dim(Operand::Left), Some(GridDim::Dim1));
        assert_eq!(pat.travel_dim(Operand::Right), Some(GridDim::Dim2));
        assert_eq!(pat.travel_dim(Operand::Result), None);
    }

    #[test]
    fn table2_step1_rotates_result() {
        // Table 2: rotation index i = b; D stays fixed; B and T1 rotate.
        let (sp, g) = step1();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let pat = CannonPattern {
            i: Some(ix("b")),
            j: Some(ix("d")),
            k: Some(ix("e")),
            assign: RoleAssignment { dim1: Role::J, dim2: Role::K },
        };
        assert_eq!(pat.assign.rotating(), Role::I);
        assert_eq!(pat.rotated_operands(), vec![Operand::Left, Operand::Result]);
        assert_eq!(pat.operand_dist(Operand::Right).render(&sp), "<d,e>"); // D fixed
        assert_eq!(pat.operand_dist(Operand::Result).render(&sp), "<d,b>");
        // Table 2 lists B as <e,b> (reusing Table 1's row); with b as the
        // rotation index, block conformance puts b on dim1: <b,e>. The two
        // placements are grid-transposes of each other with identical cost.
        assert_eq!(pat.operand_dist(Operand::Left).render(&sp), "<b,e>");
        let _ = g;
    }

    #[test]
    fn outer_product_pattern_has_no_rotation() {
        // K empty: pure multiplication node.
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 8);
        let b = sp.declare("b", 8);
        let g = ContractionGroups {
            i: IndexSet::from_iter([a]),
            j: IndexSet::from_iter([b]),
            k: IndexSet::new(),
        };
        let pats = enumerate_patterns(&g, false);
        // Only the two K-rotating assignments survive: with K empty, a
        // rotating I or J would make the result travel across an
        // unpartitioned grid dimension and overcount q-fold.
        assert_eq!(pats.len(), 2);
        assert!(pats.iter().all(|p| p.assign.rotating() == Role::K));
        let classical = pats
            .iter()
            .find(|p| p.assign == RoleAssignment { dim1: Role::I, dim2: Role::J })
            .unwrap();
        assert!(classical.rotated_operands().is_empty());
        assert_eq!(classical.rotation_index(), None);
        // A = <a, None>: replicated along dim2.
        let da = classical.operand_dist(Operand::Left);
        assert_eq!(da.d1, Some(a));
        assert_eq!(da.d2, None);
    }

    #[test]
    fn every_pattern_is_internally_consistent() {
        let (_, g) = step1();
        for pat in enumerate_patterns(&g, true) {
            // Executability: a rotating result implies a distributed
            // summation index to accumulate across the travel ring.
            if pat.rotates(Operand::Result) {
                assert!(pat.k.is_some(), "rotating result with k = None enumerated");
            }
            // Exactly the operands carrying the rotating role rotate.
            let rot = pat.assign.rotating();
            for op in Operand::ALL {
                assert_eq!(pat.rotates(op), op.has_role(rot) && pat.sel(rot).is_some());
                if pat.rotates(op) {
                    // A rotating operand's travel dim holds the rotation index.
                    let d = pat.travel_dim(op).unwrap();
                    assert_eq!(pat.operand_dist(op).at(d), pat.rotation_index());
                }
                // Distribution indices must come from the operand's roles.
                let dist = pat.operand_dist(op);
                for id in [dist.d1, dist.d2].into_iter().flatten() {
                    let from_roles = Role::roles_of(op).iter().any(|&r| pat.sel(r) == Some(id));
                    assert!(from_roles);
                }
            }
            // The two rotated arrays (if any) travel along different dims.
            let rotated = pat.rotated_operands();
            if rotated.len() == 2 {
                assert_ne!(pat.travel_dim(rotated[0]), pat.travel_dim(rotated[1]));
            }
        }
    }
}
