//! Rotation communication cost: the paper's `LoopRange`, `MsgFactor`, and
//! `RotateCost` (§3.3), plus the generalization used when the loops
//! surrounding a contraction exceed the rotated array's own fusion.

use tce_dist::{dist_size, Distribution, GridDim, ProcGrid};
use tce_expr::{IndexId, IndexSet, IndexSpace, Tensor};

use crate::rcost::Characterization;
use crate::units::WORD_BYTES;

/// Per-processor trip count of a loop over `j` fused around a contraction:
/// the block length along the grid dimension of the first of `layouts`
/// that distributes `j`, else the full extent. The search, the floor
/// sweep and [`loop_range`] all price fused loops through this one rule
/// (the DP passes the result, left and right layouts in that order; for a
/// reduction, whose left operand is absent and undistributed, that counts
/// like the result layout alone, since no loop fused around it is the
/// summed index), which keeps the certified floors bit-identical to the
/// DP's rotation totals. `#[inline]` because the
/// release profile has no LTO, so the DP's calls from `tce-core` would
/// otherwise not inline.
#[inline]
pub fn trip_count(j: IndexId, space: &IndexSpace, grid: ProcGrid, layouts: &[Distribution]) -> u64 {
    match layouts.iter().find_map(|d| d.position_of(j)) {
        Some(d) => tce_dist::block_len(space.extent(j), grid.extent(d)),
        None => space.extent(j),
    }
}

/// The paper's `LoopRange(j, v, α, f)`: the factor the fused loop `j`
/// contributes to the message count — `1` if not fused, `N_j/√P` if fused
/// and distributed, `N_j` if fused and undistributed.
pub fn loop_range(
    j: IndexId,
    space: &IndexSpace,
    grid: ProcGrid,
    alpha: Distribution,
    fused: &IndexSet,
) -> u64 {
    if fused.contains(j) {
        trip_count(j, space, grid, &[alpha])
    } else {
        1
    }
}

/// The paper's `MsgFactor(v, α, f)`: how many times the (sliced) block of
/// `v` is communicated — the product of `LoopRange` over `v`'s dimensions.
pub fn msg_factor(
    tensor: &Tensor,
    space: &IndexSpace,
    grid: ProcGrid,
    alpha: Distribution,
    fused: &IndexSet,
) -> u128 {
    tensor.dims.iter().map(|&j| loop_range(j, space, grid, alpha, fused) as u128).product()
}

/// The paper's `RotateCost(v, α, i, f)`: `MsgFactor × RCost(DistSize, α, i)`
/// — the communication cost of rotating array `v` (fused `f` with its
/// parent, distributed `α`) along the rotation index, whose grid dimension
/// is `travel`.
pub fn rotate_cost(
    tensor: &Tensor,
    space: &IndexSpace,
    grid: ProcGrid,
    alpha: Distribution,
    travel: GridDim,
    fused: &IndexSet,
    chr: &Characterization,
) -> f64 {
    let words = dist_size(tensor, space, grid, alpha, fused);
    let factor = msg_factor(tensor, space, grid, alpha, fused) as f64;
    let steps = grid.extent(travel);
    factor * chr.rcost(steps, travel, (words * WORD_BYTES) as f64)
}

/// Generalized rotation cost when the contraction sits inside fused loops
/// `surrounding` that may include indices *not* among `v`'s dimensions
/// (fused via another edge of the same node). Loops over `v`'s own
/// dimensions slice the message exactly as in the paper; loops the array
/// does not carry force a full re-rotation per iteration. `trip(j)` must
/// give the per-processor trip count of surrounding loop `j` (reduced when
/// `j` is distributed — by legality, consistently across the node).
///
/// When `surrounding ⊆ v.dims` this coincides with [`rotate_cost`] with
/// `f = surrounding`.
#[allow(clippy::too_many_arguments)]
pub fn rotate_cost_surrounded(
    tensor: &Tensor,
    space: &IndexSpace,
    grid: ProcGrid,
    alpha: Distribution,
    travel: GridDim,
    surrounding: &IndexSet,
    trip: impl Fn(IndexId) -> u64,
    chr: &Characterization,
) -> f64 {
    let dims = tensor.dim_set();
    let sliced: IndexSet = surrounding.intersection(&dims);
    let words = dist_size(tensor, space, grid, alpha, &sliced);
    let factor: u128 = surrounding.iter().map(|j| trip(j) as u128).product();
    let steps = grid.extent(travel);
    factor as f64 * chr.rcost(steps, travel, (words * WORD_BYTES) as f64)
}

/// Per-step message size in words for a rotated array (the send/receive
/// buffer the paper adds to the memory requirement).
pub fn message_words(
    tensor: &Tensor,
    space: &IndexSpace,
    grid: ProcGrid,
    alpha: Distribution,
    surrounding: &IndexSet,
) -> u128 {
    let sliced: IndexSet = surrounding.intersection(&tensor.dim_set());
    dist_size(tensor, space, grid, alpha, &sliced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use crate::rcost::characterize;

    fn setup() -> (IndexSpace, ProcGrid, Characterization) {
        let mut sp = IndexSpace::new();
        for n in ["a", "b", "c", "d"] {
            sp.declare(n, 480);
        }
        for n in ["e", "f"] {
            sp.declare(n, 64);
        }
        for n in ["i", "j", "k", "l"] {
            sp.declare(n, 32);
        }
        let chr = characterize(&MachineModel::itanium_cluster(), &[4, 8]);
        (sp, ProcGrid::square(16).unwrap(), chr)
    }

    #[test]
    fn loop_range_three_cases() {
        let (sp, g, _) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let alpha = Distribution::pair(ix("d"), ix("b"));
        let fused = IndexSet::from_iter([ix("b"), ix("f")]);
        // Not fused → 1.
        assert_eq!(loop_range(ix("d"), &sp, g, alpha, &fused), 1);
        // Fused and distributed → N/√P.
        assert_eq!(loop_range(ix("b"), &sp, g, alpha, &fused), 120);
        // Fused, undistributed → N.
        assert_eq!(loop_range(ix("f"), &sp, g, alpha, &fused), 64);
    }

    #[test]
    fn msg_factor_is_product_over_fused_dims() {
        let (sp, g, _) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let t1 = Tensor::new("T1", vec![ix("b"), ix("c"), ix("d"), ix("f")]);
        let alpha = Distribution::pair(ix("d"), ix("b"));
        // Table 2: T1 fused {f} with its parent → 64 messages per step
        // sequence.
        assert_eq!(msg_factor(&t1, &sp, g, alpha, &IndexSet::from_iter([ix("f")])), 64);
        assert_eq!(msg_factor(&t1, &sp, g, alpha, &IndexSet::new()), 1);
    }

    #[test]
    fn table2_t1_rotate_cost_near_paper() {
        let (sp, g, chr) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let t1 = Tensor::new("T1", vec![ix("b"), ix("c"), ix("d"), ix("f")]);
        let alpha = Distribution::pair(ix("d"), ix("b"));
        let fused = IndexSet::from_iter([ix("f")]);
        let t = rotate_cost(&t1, &sp, g, alpha, GridDim::Dim2, &fused, &chr);
        // Paper: 902.0 s (init) / 888.5 s (final); model ≈ 1030 s.
        assert!((t - 902.0).abs() / 902.0 < 0.16, "got {t:.0}s");
    }

    #[test]
    fn table2_b_rotate_cost_near_paper() {
        let (sp, g, chr) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let b = Tensor::new("B", vec![ix("b"), ix("e"), ix("f"), ix("l")]);
        // Conformant placement: b (rotation index) on dim1, e on dim2.
        let alpha = Distribution::pair(ix("b"), ix("e"));
        let fused = IndexSet::from_iter([ix("f")]);
        let t = rotate_cost(&b, &sp, g, alpha, GridDim::Dim1, &fused, &chr);
        assert!((t - 25.7).abs() / 25.7 < 0.15, "got {t:.1}s");
    }

    #[test]
    fn surrounded_matches_paper_form_when_subset() {
        let (sp, g, chr) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let t1 = Tensor::new("T1", vec![ix("b"), ix("c"), ix("d"), ix("f")]);
        let alpha = Distribution::pair(ix("d"), ix("b"));
        let fused = IndexSet::from_iter([ix("f")]);
        let a = rotate_cost(&t1, &sp, g, alpha, GridDim::Dim2, &fused, &chr);
        let b = rotate_cost_surrounded(
            &t1,
            &sp,
            g,
            alpha,
            GridDim::Dim2,
            &fused,
            |j| loop_range(j, &sp, g, alpha, &fused),
            &chr,
        );
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn surrounding_loop_not_in_dims_rerotates_full_block() {
        // D(c,d,e,l) rotated inside a fused f loop (f ∉ D.dims): the full
        // block moves N_f times — the cost the optimizer avoids by keeping
        // D fixed in Table 2.
        let (sp, g, chr) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let dd = Tensor::new("D", vec![ix("c"), ix("d"), ix("e"), ix("l")]);
        let alpha = Distribution::pair(ix("d"), ix("e"));
        let f_loop = IndexSet::from_iter([ix("f")]);
        let once = rotate_cost(&dd, &sp, g, alpha, GridDim::Dim2, &IndexSet::new(), &chr);
        let inside =
            rotate_cost_surrounded(&dd, &sp, g, alpha, GridDim::Dim2, &f_loop, |_| 64, &chr);
        assert!((inside - 64.0 * once).abs() / inside < 1e-9);
    }

    #[test]
    fn message_words_slices_by_fused_dims_only() {
        let (sp, g, _) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let dd = Tensor::new("D", vec![ix("c"), ix("d"), ix("e"), ix("l")]);
        let alpha = Distribution::pair(ix("d"), ix("e"));
        let f_loop = IndexSet::from_iter([ix("f")]); // not a dim of D
        assert_eq!(message_words(&dd, &sp, g, alpha, &f_loop), 480 * 120 * 16 * 32);
        let d_loop = IndexSet::from_iter([ix("d")]);
        assert_eq!(message_words(&dd, &sp, g, alpha, &d_loop), 480 * 16 * 32);
    }
}
