//! Batched combine-cost kernels for the optimizer's inner loops.
//!
//! The §3.3 combine loops price every `(left-option, right-option)` pair
//! with a short sum of non-negative terms. Evaluated one pair at a time
//! the sums are latency-bound scalar chains interleaved with branchy
//! frontier bookkeeping; evaluated a *row* at a time over the option
//! slates' structure-of-arrays columns they become straight-line loops
//! over independent lanes that the compiler auto-vectorizes.
//!
//! **Bit-exactness contract.** Every kernel applies, per element, the
//! *exact* floating-point operation sequence of the scalar expression it
//! replaces (spelled out in each function's docs). Lanes are independent —
//! vectorizing across `i` never re-associates the per-element sum — so the
//! outputs are bitwise identical to the scalar loops, which keeps the
//! pinned paper tables (`golden/table*.txt`) and the serial-vs-parallel
//! equivalence contract intact. The `u128` memory adds and message maxima
//! are exactly associative, so those kernels may hoist the loop-invariant
//! part into `base` without changing any bit.

/// Row combine of every DP node: per element,
/// `out[i] = ((((((lc + rc[i]) + lr) + rr[i]) + rot0) + rot1) + rot2)` —
/// the scalar order of
/// `lopt.comm + ropt.comm + lopt.redist + ropt.redist + rot[0] + rot[1] + rot[2]`.
/// An element-wise multiply rotates nothing and passes `rot = [0.0; 3]`,
/// and a reduction, whose row operand is absent, passes `lc = lr = 0.0`
/// and only the result's `rot[2]`: both leave every sum of costs that are
/// not `-0.0` bit-identical to the shorter one (`x + 0.0 == x`).
pub fn combine7(lc: f64, lr: f64, rc: &[f64], rr: &[f64], rot: &[f64; 3], out: &mut Vec<f64>) {
    debug_assert_eq!(rc.len(), rr.len());
    out.clear();
    out.extend(
        rc.iter()
            .zip(rr)
            .map(|(&rci, &rri)| (((((lc + rci) + lr) + rri) + rot[0]) + rot[1]) + rot[2]),
    );
}

/// Per-element `out[i] = base + xs[i]`. Unsigned addition is exactly
/// associative (all terms non-negative, the full sum fits), so the caller
/// may fold any loop-invariant memory terms into `base`.
pub fn add_u128(base: u128, xs: &[u128], out: &mut Vec<u128>) {
    out.clear();
    out.extend(xs.iter().map(|&x| base + x));
}

/// Per-element `out[i] = base.max(xs[i])`. Max is associative and
/// commutative, so the caller may fold any loop-invariant message terms
/// into `base`.
pub fn max_u128(base: u128, xs: &[u128], out: &mut Vec<u128>) {
    out.clear();
    out.extend(xs.iter().map(|&x| base.max(x)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        // Deterministic awkward values: sums in these magnitudes round, so
        // bit-equality against the scalar reference is a real check.
        let f = |i: usize, s: u64| ((i as u64 * 2654435761 + s) % 1_000_003) as f64 * 1e-4 + 0.1;
        ((0..n).map(|i| f(i, seed)).collect(), (0..n).map(|i| f(i, seed ^ 0xabcd)).collect())
    }

    #[test]
    fn combine7_matches_scalar_order_bit_for_bit() {
        let (rc, rr) = cols(37, 7);
        let (lc, lr) = (0.123456789, 0.000987654321);
        let rot = [1.5e-3, 2.25e-4, 7.75e-5];
        let mut out = Vec::new();
        combine7(lc, lr, &rc, &rr, &rot, &mut out);
        for i in 0..rc.len() {
            let scalar = lc + rc[i] + lr + rr[i] + rot[0] + rot[1] + rot[2];
            assert_eq!(out[i].to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn combine7_without_rotation_matches_elementwise_order_bit_for_bit() {
        let (rc, rr) = cols(41, 11);
        let (lc, lr) = (3.0e-2, 1.0e-7);
        let mut out = Vec::new();
        combine7(lc, lr, &rc, &rr, &[0.0; 3], &mut out);
        for i in 0..rc.len() {
            let scalar = ((lc + rc[i]) + lr) + rr[i];
            assert_eq!(out[i].to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn combine7_without_row_matches_reduction_order_bit_for_bit() {
        let (cc, cr) = cols(29, 13);
        let reduce = 4.25e-3;
        let mut out = Vec::new();
        combine7(0.0, 0.0, &cc, &cr, &[0.0, 0.0, reduce], &mut out);
        for i in 0..cc.len() {
            let scalar = (cc[i] + cr[i]) + reduce;
            assert_eq!(out[i].to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn unsigned_kernels_match_any_association() {
        let xs: Vec<u128> = (0..23).map(|i| (i * i * 977 + 13) as u128).collect();
        let (mut mem, mut msg) = (Vec::new(), Vec::new());
        add_u128(1_000, &xs, &mut mem);
        max_u128(500, &xs, &mut msg);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(mem[i], x + 1_000);
            assert_eq!(msg[i], x.max(500));
        }
    }

    #[test]
    fn kernels_reuse_buffers_without_stale_tail() {
        let (rc, rr) = cols(16, 3);
        let mut out = Vec::new();
        combine7(1.0, 2.0, &rc, &rr, &[0.0; 3], &mut out);
        assert_eq!(out.len(), 16);
        combine7(1.0, 2.0, &rc[..4], &rr[..4], &[0.0; 3], &mut out);
        assert_eq!(out.len(), 4);
    }
}
