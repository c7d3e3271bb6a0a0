//! Machine models.
//!
//! The paper evaluates on an Intel Itanium cluster (2 processors/node,
//! 4 GB/node) whose communication behaviour it captures *empirically* in a
//! characterization file. Lacking that cluster, we model a processor's
//! effective point-to-point bandwidth with a saturating curve
//!
//! ```text
//! eff_bw(s) = B_max · s / (s + s_half)
//! ```
//!
//! (small messages see poor bandwidth, large messages approach `B_max`)
//! plus a per-message latency. The three model parameters and the sustained
//! flop rate are **calibrated against the paper's own Tables 1–2**: with
//! `B_max = 14 MB/s`, `s_half = 0.9 MB`, `latency = 1 ms`, and
//! `616 Mflop/s` per processor, every per-array rotation cost in both
//! tables is reproduced within ~15 % and most within 5 % (see
//! EXPERIMENTS.md for the full comparison).

use serde::{Deserialize, Serialize};

use crate::units::PAPER_MB;

/// A homogeneous cluster model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable name, recorded in characterization files.
    pub name: String,
    /// Per-message start-up cost in seconds.
    pub latency_s: f64,
    /// Asymptotic per-processor bandwidth in bytes/second.
    pub peak_bandwidth: f64,
    /// Message size (bytes) at which effective bandwidth is half of peak.
    pub half_saturation_bytes: f64,
    /// Sustained double-precision flop rate per processor.
    pub flops_per_proc: f64,
    /// Physical memory per *node* in bytes.
    pub mem_per_node_bytes: u64,
    /// Processors per node (2 on the paper's Itanium cluster).
    pub procs_per_node: u32,
    /// Message size (bytes) at which the transport switches from the eager
    /// to the rendezvous protocol, adding a handshake round-trip — the
    /// classic MPI knee that makes measured message time *non-affine* in
    /// size (and the reason empirical characterization with interpolation,
    /// rather than a two-parameter fit, is worth the trouble). `f64::MAX`
    /// disables it.
    pub rendezvous_cutover_bytes: f64,
    /// Extra latency paid per message at and above the cutover.
    pub rendezvous_extra_latency_s: f64,
    /// Bandwidth multiplier for links along grid dimension 2 relative to
    /// dimension 1 (1.0 = symmetric torus). Clusters whose logical grid
    /// maps rows to intra-node/intra-switch links are faster along one
    /// dimension; this is why the paper characterizes `RCost` per
    /// *position* of the rotation index, not just per message size.
    pub dim2_bandwidth_factor: f64,
}

impl MachineModel {
    /// The calibrated stand-in for the paper's Itanium cluster.
    pub fn itanium_cluster() -> Self {
        MachineModel {
            name: "itanium-cluster-2003 (calibrated)".into(),
            latency_s: 1.0e-3,
            peak_bandwidth: 14.0 * 1e6,
            half_saturation_bytes: 0.9 * 1e6,
            flops_per_proc: 616.0e6,
            // "4GB of memory available at each node" (§4).
            mem_per_node_bytes: (4.0 * 1024.0 * PAPER_MB) as u64,
            procs_per_node: 2,
            rendezvous_cutover_bytes: 64.0 * 1024.0,
            rendezvous_extra_latency_s: 2.0e-3,
            dim2_bandwidth_factor: 1.0,
        }
    }

    /// An asymmetric variant of the Itanium stand-in whose grid dimension 2
    /// maps to links `factor`× faster than dimension 1 (e.g. intra-switch
    /// vs inter-switch). Exercises the per-dimension `RCost`
    /// characterization of §3.3.
    pub fn itanium_asymmetric(factor: f64) -> Self {
        assert!(factor > 0.0);
        MachineModel {
            name: format!("itanium-cluster-2003 (dim2 x{factor})"),
            dim2_bandwidth_factor: factor,
            ..Self::itanium_cluster()
        }
    }

    /// Effective bandwidth for a message traveling along grid dimension 2.
    pub fn eff_bandwidth_dim2(&self, bytes: f64) -> f64 {
        self.eff_bandwidth(bytes) * self.dim2_bandwidth_factor
    }

    /// Message time along grid dimension 2.
    pub fn msg_time_dim2(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let rendezvous = if bytes >= self.rendezvous_cutover_bytes {
            self.rendezvous_extra_latency_s
        } else {
            0.0
        };
        self.latency_s + rendezvous + bytes / self.eff_bandwidth_dim2(bytes)
    }

    /// Effective bandwidth (bytes/s) for a message of `bytes`.
    pub fn eff_bandwidth(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return f64::MIN_POSITIVE;
        }
        self.peak_bandwidth * bytes / (bytes + self.half_saturation_bytes)
    }

    /// Time to transfer one message of `bytes` between neighbors.
    pub fn msg_time(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let rendezvous = if bytes >= self.rendezvous_cutover_bytes {
            self.rendezvous_extra_latency_s
        } else {
            0.0
        };
        self.latency_s + rendezvous + bytes / self.eff_bandwidth(bytes)
    }

    /// Memory available per processor, in bytes.
    pub fn mem_per_proc_bytes(&self) -> u64 {
        self.mem_per_node_bytes / u64::from(self.procs_per_node)
    }

    /// Memory available per processor, in 8-byte words.
    pub fn mem_per_proc_words(&self) -> u128 {
        u128::from(self.mem_per_proc_bytes()) / crate::units::WORD_BYTES
    }

    /// Time for `flops` floating-point operations on one processor.
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.flops_per_proc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eff_bandwidth_saturates() {
        let m = MachineModel::itanium_cluster();
        let small = m.eff_bandwidth(1e3);
        let mid = m.eff_bandwidth(0.9e6);
        let big = m.eff_bandwidth(1e9);
        assert!(small < mid && mid < big);
        assert!((mid - 7.0e6).abs() < 1e4, "half saturation at s_half");
        assert!(big > 13.9e6 && big < 14.0e6);
    }

    #[test]
    fn msg_time_monotone_in_size() {
        let m = MachineModel::itanium_cluster();
        let mut prev = 0.0;
        for bytes in [0.0, 1e3, 1e5, 1e6, 1e7, 1e8] {
            let t = m.msg_time(bytes);
            assert!(t >= prev);
            prev = t;
        }
        assert_eq!(m.msg_time(0.0), 0.0);
    }

    #[test]
    fn table1_rotation_costs_reproduced_within_15_percent() {
        // Full rotation of a block = √P messages of the whole local block.
        // (localsize words, paper's measured seconds), 8 steps.
        let m = MachineModel::itanium_cluster();
        let cases = [
            (7_372_800u64, 35.7), // D
            (983_040, 4.9),       // B
            (491_520, 2.8),       // C
            (3_686_400, 18.3),    // A
            (3_686_400, 18.5),    // T2 (final)
        ];
        for (words, paper) in cases {
            let t = 8.0 * m.msg_time(words as f64 * 8.0);
            let rel = (t - paper).abs() / paper;
            assert!(rel < 0.15, "{words} words: model {t:.1}s vs paper {paper}s");
        }
    }

    #[test]
    fn table2_fused_rotation_costs_reproduced_within_15_percent() {
        // 4 steps per rotation, repeated Nf = 64 times for fused arrays.
        let m = MachineModel::itanium_cluster();
        let cases = [
            (61_440u64, 64.0, 25.7),  // B sliced by f
            (30_720, 64.0, 20.8),     // C sliced by f
            (6_912_000, 64.0, 902.0), // T1(b,c,d), re-rotated per f
            (14_745_600, 1.0, 34.6),  // A, unfused
            (14_745_600, 1.0, 36.2),  // T2, unfused
        ];
        for (words, factor, paper) in cases {
            let t = factor * 4.0 * m.msg_time(words as f64 * 8.0);
            let rel = (t - paper).abs() / paper;
            assert!(rel < 0.15, "{words} words ×{factor}: model {t:.1}s vs paper {paper}s");
        }
    }

    #[test]
    fn compute_rate_reproduces_paper_totals() {
        // §4 headline totals: 64 procs → 1403.4 s (7.0 % comm);
        // 16 procs → 6983.8 s (27.3 % comm). The implied sustained rates
        // are 607 and 625 Mflop/s; our 616 Mflop/s sits between.
        let m = MachineModel::itanium_cluster();
        let flops =
            2.0 * 480.0_f64.powi(3) * (64.0 * 64.0 * 32.0 + 64.0 * 32.0 * 32.0 + 32.0f64.powi(3));
        let t64 = m.compute_time(flops / 64.0) + 98.0;
        let t16 = m.compute_time(flops / 16.0) + 1907.8;
        assert!((t64 - 1403.4).abs() / 1403.4 < 0.05, "64-proc total {t64:.0}");
        assert!((t16 - 6983.8).abs() / 6983.8 < 0.08, "16-proc total {t16:.0}");
    }

    #[test]
    fn memory_limits() {
        let m = MachineModel::itanium_cluster();
        assert_eq!(m.mem_per_proc_bytes(), (2.0 * 1024.0 * PAPER_MB) as u64);
        assert_eq!(m.mem_per_proc_words(), (2.0 * 1024.0 * PAPER_MB) as u128 / 8);
    }
}
