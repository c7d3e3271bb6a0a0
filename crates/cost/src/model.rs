//! The consolidated cost model handed to the optimizer.
//!
//! Bundles the machine description, its `RCost` characterization for the
//! grids under consideration, and the memory limit, exposing exactly the
//! quantities the §3.3 dynamic programming needs.

use tce_dist::{Distribution, GridDim, ProcGrid, Redistribution};
use tce_expr::{IndexId, IndexSet, IndexSpace, Tensor};

use crate::machine::MachineModel;
use crate::rcost::{characterize, Characterization};
use crate::redist::maybe_redistribution_cost;
use crate::rotate;

/// Machine + characterization + grid: everything cost-related the search
/// needs for one target configuration.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The machine description (redistribution, compute, memory limit).
    pub machine: MachineModel,
    /// The rotation-cost characterization table.
    pub chr: Characterization,
    /// The processor grid.
    pub grid: ProcGrid,
}

impl CostModel {
    /// Build a model for `procs` processors of `machine` (square grid),
    /// characterizing rotation costs on the fly.
    ///
    /// Returns `None` when `procs` is not a perfect square.
    pub fn for_square(machine: MachineModel, procs: u32) -> Option<Self> {
        let grid = ProcGrid::square(procs)?;
        let chr = characterize(&machine, &[grid.dim1, grid.dim2]);
        Some(Self { machine, chr, grid })
    }

    /// Build from a pre-measured characterization file.
    pub fn with_characterization(
        machine: MachineModel,
        chr: Characterization,
        grid: ProcGrid,
    ) -> Self {
        Self { machine, chr, grid }
    }

    /// Per-processor memory limit in words.
    pub fn mem_limit_words(&self) -> u128 {
        self.machine.mem_per_proc_words()
    }

    /// Stable 128-bit digest of everything cost-relevant in this model:
    /// the machine parameters (bit-exact), the grid shape, and the
    /// [`Characterization::digest`]. The on-disk plan cache keys entries
    /// by this value so a plan memoized for one machine profile can never
    /// be served for another.
    pub fn digest(&self) -> u128 {
        let m = &self.machine;
        let mut h = tce_expr::Fnv128::new();
        h.write_str(&m.name);
        for bits in [
            m.latency_s.to_bits(),
            m.peak_bandwidth.to_bits(),
            m.half_saturation_bytes.to_bits(),
            m.flops_per_proc.to_bits(),
            m.rendezvous_cutover_bytes.to_bits(),
            m.rendezvous_extra_latency_s.to_bits(),
            m.dim2_bandwidth_factor.to_bits(),
            m.mem_per_node_bytes,
        ] {
            h.write_u64(bits);
        }
        h.write_u32(m.procs_per_node);
        h.write_u32(self.grid.dim1);
        h.write_u32(self.grid.dim2);
        h.write_u128(self.chr.digest());
        h.finish()
    }

    /// Generalized rotation cost under a surrounding fused-loop set (see
    /// [`rotate::rotate_cost_surrounded`]).
    #[allow(clippy::too_many_arguments)]
    pub fn rotate_cost_surrounded(
        &self,
        tensor: &Tensor,
        space: &IndexSpace,
        alpha: Distribution,
        travel: GridDim,
        surrounding: &IndexSet,
        trip: impl Fn(IndexId) -> u64,
    ) -> f64 {
        rotate::rotate_cost_surrounded(
            tensor,
            space,
            self.grid,
            alpha,
            travel,
            surrounding,
            trip,
            &self.chr,
        )
    }

    /// Redistribution cost (zero when the layouts already agree).
    pub fn redistribution_cost(
        &self,
        tensor: &Tensor,
        space: &IndexSpace,
        from: Distribution,
        to: Distribution,
        fused: &IndexSet,
    ) -> f64 {
        maybe_redistribution_cost(tensor, space, self.grid, from, to, fused, &self.machine)
    }

    /// Describe a redistribution (for plan reporting).
    pub fn redistribution(&self, from: Distribution, to: Distribution) -> Option<Redistribution> {
        Redistribution::needed(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_square_builds_and_characterizes() {
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        assert_eq!(cm.grid.num_procs(), 16);
        // The characterization covers the grid's step counts.
        assert!(cm.chr.rcost(4, GridDim::Dim1, 1e6) > 0.0);
        assert!(CostModel::for_square(MachineModel::itanium_cluster(), 12).is_none());
    }

    #[test]
    fn mem_limit_matches_paper() {
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 64).unwrap();
        // 4 GB/node ÷ 2 procs ÷ 8 B = 256 Mi-ish words in paper units.
        assert_eq!(cm.mem_limit_words(), (2.0 * 1024.0 * 1_024_000.0) as u128 / 8);
    }
}

#[cfg(test)]
mod wrapper_tests {
    use super::*;
    use tce_expr::Tensor;

    #[test]
    fn cost_model_wrappers_match_free_functions() {
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let mut sp = IndexSpace::new();
        let b = sp.declare("b", 480);
        let f = sp.declare("f", 64);
        let t = Tensor::new("X", vec![b, f]);
        let alpha = Distribution::pair(b, f);
        let fused = IndexSet::new();
        // Redistribution is symmetric in moved fraction for full pairs.
        let to = Distribution::pair(f, b);
        let fwd = cm.redistribution_cost(&t, &sp, alpha, to, &fused);
        let back = cm.redistribution_cost(&t, &sp, to, alpha, &fused);
        assert!((fwd - back).abs() < 1e-12);
        assert!(cm.redistribution(alpha, to).is_some());
        assert!(cm.redistribution(alpha, alpha).is_none());
    }
}
