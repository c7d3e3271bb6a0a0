//! Canned expressions from the paper, used across examples, tests, and
//! the table-regeneration harness.

use crate::formula::FormulaSequence;
use crate::index::IndexSpace;
use crate::parser::{self, SumOfProducts};
use crate::tensor::Tensor;
use crate::tree::ExprTree;

/// Array extents of the §4 application example: `N_a..N_d = 480`,
/// `N_e,N_f = 64`, `N_i..N_l = 32`.
pub const PAPER_EXTENTS: PaperExtents =
    PaperExtents { occupied: 32, virtual_small: 64, virtual_large: 480 };

/// Parameterized extents for the CCSD-like example, so tests and the
/// simulator can run scaled-down instances with identical structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaperExtents {
    /// Extent of `i, j, k, l` (occupied orbitals; 32 in the paper).
    pub occupied: u64,
    /// Extent of `e, f` (64 in the paper).
    pub virtual_small: u64,
    /// Extent of `a, b, c, d` (480 in the paper).
    pub virtual_large: u64,
}

impl PaperExtents {
    /// A small instance with the same index structure, suitable for actual
    /// execution in the simulator (`480/64/32` scaled to `ratio`-preserving
    /// small numbers).
    pub fn tiny() -> Self {
        PaperExtents { occupied: 4, virtual_small: 8, virtual_large: 12 }
    }

    fn source(&self) -> String {
        format!(
            "range a, b, c, d = {};\nrange e, f = {};\nrange i, j, k, l = {};\n\
             input A[a,c,i,k];\ninput B[b,e,f,l];\ninput C[d,f,j,k];\ninput D[c,d,e,l];\n\
             T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l];\n\
             T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k];\n\
             S[a,b,i,j] = sum[c,k] T2[b,c,j,k] * A[a,c,i,k];\n",
            self.virtual_large, self.virtual_small, self.occupied
        )
    }
}

/// The Fig. 2(a) formula sequence (the operation-minimal form of
/// `S_abij = Σ_cdefkl A·B·C·D`) at the given extents.
pub fn ccsd_sequence(extents: PaperExtents) -> FormulaSequence {
    parser::parse(&extents.source())
        .expect("builtin source parses")
        .to_sequence()
        .expect("builtin sequence is well-formed")
}

/// The Fig. 2(a) expression tree at the given extents.
pub fn ccsd_tree(extents: PaperExtents) -> ExprTree {
    ccsd_sequence(extents).to_tree().expect("builtin tree builds")
}

/// The raw four-factor term of §2, `S_abij = Σ_cdefkl A·B·C·D`, for
/// operation minimization (`4N^10` if evaluated directly).
pub fn ccsd_sum_of_products(extents: PaperExtents) -> (IndexSpace, SumOfProducts) {
    let src = format!(
        "range a, b, c, d = {};\nrange e, f = {};\nrange i, j, k, l = {};\n\
         input A[a,c,i,k];\ninput B[b,e,f,l];\ninput C[d,f,j,k];\ninput D[c,d,e,l];\n\
         S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k]*B[b,e,f,l]*C[d,f,j,k]*D[c,d,e,l];\n",
        extents.virtual_large, extents.virtual_small, extents.occupied
    );
    let prog = parser::parse(&src).expect("builtin source parses");
    let term = prog.big_terms()[0].clone();
    (prog.space, term)
}

/// The Fig. 1(a) sequence `S(t) = Σ_{i,j,k} A(i,j,t)·B(j,k,t)` in its
/// factored form (`T1 = Σ_i A; T2 = Σ_k B; T3 = T1×T2; S = Σ_j T3`).
pub fn fig1_sequence(ni: u64, nj: u64, nk: u64, nt: u64) -> FormulaSequence {
    let src = format!(
        "range i = {ni};\nrange j = {nj};\nrange k = {nk};\nrange t = {nt};\n\
         input A[i,j,t];\ninput B[j,k,t];\n\
         T1[j,t] = sum[i] A[i,j,t];\n\
         T2[j,t] = sum[k] B[j,k,t];\n\
         T3[j,t] = T1[j,t] * T2[j,t];\n\
         S[t] = sum[j] T3[j,t];\n"
    );
    parser::parse(&src).expect("example parses").to_sequence().expect("example lowers")
}

/// The Fig. 1 term in raw form (`S(t) = Σ_{i,j,k} A·B`), direct cost
/// `2·N_i·N_j·N_k·N_t`.
pub fn fig1_sum_of_products(ni: u64, nj: u64, nk: u64, nt: u64) -> (IndexSpace, SumOfProducts) {
    let mut sp = IndexSpace::new();
    let i = sp.declare("i", ni);
    let j = sp.declare("j", nj);
    let k = sp.declare("k", nk);
    let t = sp.declare("t", nt);
    let term = SumOfProducts {
        result: Tensor::new("S", vec![t]),
        sum: [i, j, k].into_iter().collect(),
        factors: vec![Tensor::new("A", vec![i, j, t]), Tensor::new("B", vec![j, k, t])],
    };
    (sp, term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_extents_tree() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        assert!(tree.is_contraction_tree());
        // §2: the factored form needs ~6N^6 flops; with mixed extents:
        assert_eq!(
            tree.total_op_count(),
            2 * 480u128.pow(3) * 64 * 64 * 32
                + 2 * 480u128.pow(3) * 64 * 32 * 32
                + 2 * 480u128.pow(3) * 32u128.pow(3)
        );
    }

    #[test]
    fn sum_of_products_direct_cost() {
        let (sp, term) = ccsd_sum_of_products(PAPER_EXTENTS);
        // 4·(N_a N_b N_c N_d)(N_e N_f)(N_i N_j N_k N_l)
        assert_eq!(term.direct_op_count(&sp), 4 * 480u128.pow(4) * 64u128.pow(2) * 32u128.pow(4));
    }

    #[test]
    fn fig1_roundtrip() {
        let seq = fig1_sequence(10, 20, 30, 40);
        assert_eq!(seq.validate().unwrap(), "S");
        let (sp, term) = fig1_sum_of_products(10, 20, 30, 40);
        assert_eq!(term.direct_op_count(&sp), 2 * 10 * 20 * 30 * 40);
    }

    #[test]
    fn tiny_extents_build() {
        let tree = ccsd_tree(PaperExtents::tiny());
        assert!(tree.is_contraction_tree());
        assert!(tree.total_op_count() < 1u128 << 40);
    }
}

/// A larger CCSD-like workload: a four-contraction ladder over five input
/// tensors,
///
/// ```text
/// X1(c,d,k,l) = Σ_{e,f} V(c,e,k,f) · W(e,d,f,l)
/// X2(c,d,i,j) = Σ_{k,l} X1(c,d,k,l) · U(k,l,i,j)
/// X3(b,c,i,j) = Σ_{d}   X2(c,d,i,j) · Y(d,b)
/// S(a,b,i,j)  = Σ_{c}   X3(b,c,i,j) · Z(c,a)
/// ```
///
/// exercising deeper trees than the paper's three-step example.
pub fn ladder_sequence(extents: PaperExtents) -> FormulaSequence {
    let src = format!(
        "range a, b, c, d = {v};\nrange e, f = {w};\nrange i, j, k, l = {o};\n\
         input V[c,e,k,f];\ninput W[e,d,f,l];\ninput U[k,l,i,j];\n\
         input Y[d,b];\ninput Z[c,a];\n\
         X1[c,d,k,l] = sum[e,f] V[c,e,k,f] * W[e,d,f,l];\n\
         X2[c,d,i,j] = sum[k,l] X1[c,d,k,l] * U[k,l,i,j];\n\
         X3[b,c,i,j] = sum[d] X2[c,d,i,j] * Y[d,b];\n\
         S[a,b,i,j] = sum[c] X3[b,c,i,j] * Z[c,a];\n",
        v = extents.virtual_large,
        w = extents.virtual_small,
        o = extents.occupied
    );
    parser::parse(&src).expect("ladder parses").to_sequence().expect("ladder is well-formed")
}

/// The ladder workload as a tree.
pub fn ladder_tree(extents: PaperExtents) -> ExprTree {
    ladder_sequence(extents).to_tree().expect("ladder tree builds")
}

#[cfg(test)]
mod ladder_tests {
    use super::*;

    #[test]
    fn ladder_is_a_contraction_tree() {
        let t = ladder_tree(PAPER_EXTENTS);
        assert!(t.is_contraction_tree());
        assert_eq!(t.postorder().iter().filter(|&&n| !t.node(n).is_leaf()).count(), 4);
    }

    #[test]
    fn ladder_tiny_builds() {
        let t = ladder_tree(PaperExtents::tiny());
        assert!(t.total_op_count() > 0);
    }
}

/// The canonical quantum-chemistry pipeline: the four-index integral
/// transformation `B(p,q,r,s) = Σ_{μνλσ} C1(μ,p)C2(ν,q)C3(λ,r)C4(σ,s)
/// A(μ,ν,λ,σ)`, factored into four `O(N^5)` quarter transforms (the
/// textbook rewriting that the operation-minimization line of work
/// generalizes):
///
/// ```text
/// Q1(p,v,l,s) = Σ_u C1(u,p) · A(u,v,l,s)
/// Q2(p,q,l,s) = Σ_v C2(v,q) · Q1(p,v,l,s)
/// Q3(p,q,r,s) = Σ_l C3(l,r) · Q2(p,q,l,s)
/// B(p,q,r,m)  = Σ_s C4(s,m) · Q3(p,q,r,s)
/// ```
pub fn four_index_transform(n_ao: u64, n_mo: u64) -> FormulaSequence {
    let src = format!(
        "range u, v, l, s = {n_ao};\nrange p, q, r, m = {n_mo};\n\
         input A[u,v,l,s];\n\
         input C1[u,p];\ninput C2[v,q];\ninput C3[l,r];\ninput C4[s,m];\n\
         Q1[p,v,l,s] = sum[u] C1[u,p] * A[u,v,l,s];\n\
         Q2[p,q,l,s] = sum[v] C2[v,q] * Q1[p,v,l,s];\n\
         Q3[p,q,r,s] = sum[l] C3[l,r] * Q2[p,q,l,s];\n\
         B[p,q,r,m] = sum[s] C4[s,m] * Q3[p,q,r,s];\n"
    );
    parser::parse(&src).expect("transform parses").to_sequence().expect("transform is well-formed")
}

#[cfg(test)]
mod transform_tests {
    use super::*;

    #[test]
    fn four_index_transform_is_a_contraction_tree() {
        let t = four_index_transform(64, 32).to_tree().unwrap();
        assert!(t.is_contraction_tree());
        // Four quarter transforms at 2·N_ao^4·N_mo, 2·N_ao^3·N_mo^2, … flops.
        let n: u128 = 64;
        let m: u128 = 32;
        let expect =
            2 * (n * n * n * n * m + n * n * n * m * m + n * n * m * m * m + n * m * m * m * m);
        assert_eq!(t.total_op_count(), expect);
    }

    #[test]
    fn transform_tiny_builds() {
        let t = four_index_transform(8, 4).to_tree().unwrap();
        assert_eq!(t.postorder().iter().filter(|&&x| !t.node(x).is_leaf()).count(), 4);
    }
}
