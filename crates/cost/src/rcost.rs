//! Empirical `RCost` characterization (§3.3).
//!
//! > "We empirically measure RCost for each distribution α and each
//! > position of the index i, and for several different localsizes on the
//! > target parallel computer. … once a characterization file is completed,
//! > it can be used to predict, by interpolation or extrapolation, the
//! > communication times for arbitrary array distributions and sizes."
//!
//! We implement the same mechanism: [`characterize`] "measures" full
//! rotations at a ladder of block sizes against the machine model standing
//! in for the real cluster (`tce-sim` charges time from the raw model, so
//! any interpolation error in the optimizer's view is real and
//! observable), the table serializes to JSON, and [`Characterization::rcost`]
//! answers arbitrary sizes by piecewise-linear interpolation with linear
//! extrapolation beyond the last point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use tce_dist::GridDim;

use crate::machine::MachineModel;

/// Process-wide count of nearest-grid scaled fallbacks served by
/// [`Characterization::rcost`] (the `cost.rcost_fallback` counter —
/// interleaving-dependent because the search's per-worker pricing tables
/// make query counts depend on thread scheduling; see
/// `tce_obs::names::ALL`).
static RCOST_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Grid step counts already warned about on stderr (once per grid per
/// process, so optimize/simulate runs over extrapolated tables are loud
/// exactly once instead of silent or spamming).
static WARNED_GRIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Total nearest-grid scaled fallbacks served so far by this process.
/// Callers snapshot before/after a run to attribute a delta.
pub fn rcost_fallback_count() -> u64 {
    RCOST_FALLBACKS.load(Ordering::Relaxed)
}

fn note_fallback(steps: u32, nearest: u32) {
    RCOST_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    let mut warned = WARNED_GRIDS.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.contains(&steps) {
        warned.push(steps);
        eprintln!(
            "tce-cost: warning: grid with {steps} rotation steps was never characterized; \
             scaling the nearest table ({nearest} steps) — costs for this grid are \
             extrapolated, not measured"
        );
    }
}

/// One measured point: a full rotation (all steps) of a local block.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RCostPoint {
    /// Local block size in bytes.
    pub bytes: f64,
    /// Measured seconds for the complete rotation.
    pub seconds: f64,
}

/// Measurements for one grid size, per rotation dimension. The paper keys
/// the table by distribution and rotation-index position; on a symmetric
/// torus the two dimensions coincide, but the file format keeps both so an
/// asymmetric machine (e.g. faster intra-node links along one dimension)
/// characterizes without format changes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridTable {
    /// Rotation steps (`√P`, the grid extent along the travel dimension).
    pub steps: u32,
    /// Points for travel along grid dimension 1, ascending in size.
    pub dim1: Vec<RCostPoint>,
    /// Points for travel along grid dimension 2, ascending in size.
    pub dim2: Vec<RCostPoint>,
}

/// A characterization file: the machine it was measured on plus one table
/// per grid size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Name of the characterized machine.
    pub machine: String,
    /// Tables, one per measured grid size.
    pub grids: Vec<GridTable>,
}

impl Characterization {
    /// Stable 128-bit content digest of the characterization: machine name
    /// plus every measured point, bit-exact (`f64::to_bits`). Two cost
    /// models predicting even slightly different rotation times digest
    /// differently, which is what lets the on-disk plan cache key entries
    /// per machine profile — the same expression legitimately has
    /// different optimal plans on different machines.
    pub fn digest(&self) -> u128 {
        let mut h = tce_expr::Fnv128::new();
        h.write_str(&self.machine);
        h.write_u64(self.grids.len() as u64);
        for g in &self.grids {
            h.write_u32(g.steps);
            for points in [&g.dim1, &g.dim2] {
                h.write_u64(points.len() as u64);
                for p in points {
                    h.write_u64(p.bytes.to_bits());
                    h.write_u64(p.seconds.to_bits());
                }
            }
        }
        h.finish()
    }
}

/// The ladder of block sizes measured per grid: 1 kB … 4 GB, ~4 points per
/// decade. Dense enough that piecewise-linear interpolation of the
/// (convex, nearly affine) rotation time is accurate to well under 1 %.
fn size_ladder() -> Vec<f64> {
    let mut sizes = Vec::new();
    let mut s = 1024.0;
    while s <= 4.0 * 1024.0 * 1024.0 * 1024.0 {
        sizes.push(s);
        s *= 1.7782794; // 10^(1/4)
    }
    sizes
}

/// "Measure" full-rotation times on `machine` for the given grid step
/// counts (one table per entry). In the paper this is an MPI
/// micro-benchmark run once per target cluster.
pub fn characterize(machine: &MachineModel, step_counts: &[u32]) -> Characterization {
    let grids = step_counts
        .iter()
        .map(|&q| {
            let measure = |dim: GridDim| {
                size_ladder()
                    .into_iter()
                    .map(|bytes| RCostPoint {
                        bytes,
                        seconds: q as f64
                            * match dim {
                                GridDim::Dim1 => machine.msg_time(bytes),
                                GridDim::Dim2 => machine.msg_time_dim2(bytes),
                            },
                    })
                    .collect::<Vec<_>>()
            };
            GridTable { steps: q, dim1: measure(GridDim::Dim1), dim2: measure(GridDim::Dim2) }
        })
        .collect();
    Characterization { machine: machine.name.clone(), grids }
}

fn interpolate(points: &[RCostPoint], bytes: f64) -> f64 {
    if points.is_empty() {
        // Degenerate table: no information. Callers that must distinguish
        // this from a genuinely free rotation use `try_rcost`.
        return 0.0;
    }
    if bytes <= 0.0 {
        return 0.0;
    }
    if points.len() == 1 {
        // Degenerate table: scale proportionally.
        if points[0].bytes <= 0.0 {
            return points[0].seconds.max(0.0);
        }
        return points[0].seconds * bytes / points[0].bytes;
    }
    // Find the surrounding segment; clamp to the outermost segments for
    // extrapolation.
    let seg = match points.iter().position(|p| p.bytes >= bytes) {
        Some(0) | None if bytes < points[0].bytes => 0,
        Some(0) => 0,
        Some(i) => i - 1,
        None => points.len() - 2,
    };
    let (a, b) = (points[seg], points[seg + 1]);
    if b.bytes - a.bytes <= 0.0 {
        // Duplicate (or descending) byte sizes in a user-supplied table:
        // a zero-width segment has no slope, so answer with the segment's
        // larger measurement instead of dividing by zero (NaN).
        return a.seconds.max(b.seconds).max(0.0);
    }
    let t = (bytes - a.bytes) / (b.bytes - a.bytes);
    (a.seconds + t * (b.seconds - a.seconds)).max(0.0)
}

/// Why a characterization could not answer a cost query exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostError {
    /// No table was measured for the requested grid size.
    UncharacterizedGrid {
        /// The requested rotation step count (grid extent).
        steps: u32,
    },
    /// A table exists for the grid but holds no measured points for the
    /// requested travel dimension.
    EmptyTable {
        /// The requested rotation step count (grid extent).
        steps: u32,
        /// The travel dimension whose point list is empty.
        travel: GridDim,
    },
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::UncharacterizedGrid { steps } => {
                write!(f, "grid with {steps} steps was not characterized")
            }
            CostError::EmptyTable { steps, travel } => {
                write!(f, "characterization table for {steps} steps has no points along {travel:?}")
            }
        }
    }
}

impl std::error::Error for CostError {}

impl Characterization {
    /// Predicted seconds to fully rotate a local block of `bytes` along
    /// `travel` on a grid with `steps` processors in that dimension,
    /// failing with a structured [`CostError`] when the characterization
    /// cannot answer exactly (uncharacterized grid size or an empty point
    /// table — e.g. a hand-edited characterization file).
    pub fn try_rcost(&self, steps: u32, travel: GridDim, bytes: f64) -> Result<f64, CostError> {
        let table = self
            .grids
            .iter()
            .find(|g| g.steps == steps)
            .ok_or(CostError::UncharacterizedGrid { steps })?;
        let points = match travel {
            GridDim::Dim1 => &table.dim1,
            GridDim::Dim2 => &table.dim2,
        };
        if points.is_empty() {
            return Err(CostError::EmptyTable { steps, travel });
        }
        Ok(interpolate(points, bytes))
    }

    /// Predicted seconds to fully rotate a local block of `bytes` along
    /// `travel` on a grid with `steps` processors in that dimension.
    ///
    /// Total: when `steps` was not characterized, the answer is a
    /// documented clamped extrapolation — the nearest characterized grid's
    /// table scaled by the step-count ratio (rotation time is linear in
    /// the number of lockstep rounds for a fixed block size). An entirely
    /// empty characterization (or an empty point table) predicts 0.0; use
    /// [`Characterization::try_rcost`] to detect those cases explicitly.
    pub fn rcost(&self, steps: u32, travel: GridDim, bytes: f64) -> f64 {
        match self.try_rcost(steps, travel, bytes) {
            Ok(t) => t,
            Err(CostError::EmptyTable { .. }) => 0.0,
            Err(CostError::UncharacterizedGrid { .. }) => {
                // Nearest characterized grid (ties broken toward fewer
                // steps), scaled by the ratio of step counts.
                let Some(nearest) = self
                    .grids
                    .iter()
                    .min_by_key(|g| (u64::from(g.steps.abs_diff(steps)), u64::from(g.steps)))
                else {
                    return 0.0;
                };
                let points = match travel {
                    GridDim::Dim1 => &nearest.dim1,
                    GridDim::Dim2 => &nearest.dim2,
                };
                note_fallback(steps, nearest.steps);
                let base = interpolate(points, bytes);
                if nearest.steps == 0 {
                    return base;
                }
                base * f64::from(steps) / f64::from(nearest.steps)
            }
        }
    }

    /// Serialize to the JSON characterization-file format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("characterization serializes")
    }

    /// Load from the JSON characterization-file format.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chr() -> (MachineModel, Characterization) {
        let m = MachineModel::itanium_cluster();
        let c = characterize(&m, &[4, 8]);
        (m, c)
    }

    #[test]
    fn interpolation_matches_model_closely() {
        let (m, c) = chr();
        // Sizes off the ladder: interpolation error must stay tiny.
        for bytes in [1500.0, 3.3e5, 7.7e6, 5.9e7, 4.7e8] {
            for q in [4u32, 8] {
                let exact = q as f64 * m.msg_time(bytes);
                let est = c.rcost(q, GridDim::Dim1, bytes);
                assert!(
                    (est - exact).abs() / exact < 0.01,
                    "q={q} bytes={bytes}: est {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn extrapolation_is_sane() {
        let (m, c) = chr();
        // Above the ladder: linear extension of the last segment.
        let bytes = 16.0e9;
        let exact = 8.0 * m.msg_time(bytes);
        let est = c.rcost(8, GridDim::Dim2, bytes);
        assert!((est - exact).abs() / exact < 0.02);
        // Below the ladder.
        let small = c.rcost(8, GridDim::Dim1, 100.0);
        assert!(small > 0.0 && small < c.rcost(8, GridDim::Dim1, 2048.0));
        // Zero size costs nothing.
        assert_eq!(c.rcost(8, GridDim::Dim1, 0.0), 0.0);
    }

    #[test]
    fn monotone_in_size() {
        let (_, c) = chr();
        let mut prev = 0.0;
        let mut bytes = 512.0;
        while bytes < 1e10 {
            let t = c.rcost(4, GridDim::Dim1, bytes);
            assert!(t >= prev);
            prev = t;
            bytes *= 1.37;
        }
    }

    #[test]
    fn json_round_trip() {
        let (_, c) = chr();
        let json = c.to_json();
        let back = Characterization::from_json(&json).unwrap();
        assert_eq!(c.machine, back.machine);
        assert_eq!(c.grids.len(), back.grids.len());
        for (a, b) in c.grids.iter().zip(&back.grids) {
            assert_eq!(a.steps, b.steps);
            for (pa, pb) in a.dim1.iter().zip(&b.dim1).chain(a.dim2.iter().zip(&b.dim2)) {
                // JSON text round-trips floats to within an ULP.
                assert!((pa.bytes - pb.bytes).abs() <= pa.bytes * 1e-12);
                assert!((pa.seconds - pb.seconds).abs() <= pa.seconds * 1e-12);
            }
        }
        assert!(json.contains("itanium"));
    }

    #[test]
    fn uncharacterized_grid_errors_and_extrapolates() {
        let (_, c) = chr();
        // `try_rcost` reports the gap…
        assert_eq!(
            c.try_rcost(16, GridDim::Dim1, 1e6),
            Err(CostError::UncharacterizedGrid { steps: 16 })
        );
        // …while `rcost` answers by scaling the nearest table (8 steps):
        // twice the rounds, twice the time.
        let scaled = c.rcost(16, GridDim::Dim1, 1e6);
        let base = c.rcost(8, GridDim::Dim1, 1e6);
        assert!(scaled.is_finite() && scaled > 0.0);
        assert!((scaled - 2.0 * base).abs() / scaled < 1e-12, "{scaled} vs 2×{base}");
        // Below the smallest characterized grid, scale down.
        let down = c.rcost(2, GridDim::Dim1, 1e6);
        assert!((down - 0.5 * c.rcost(4, GridDim::Dim1, 1e6)).abs() / down < 1e-12);
    }

    #[test]
    fn degenerate_tables_never_produce_nan() {
        // Duplicate byte sizes: the zero-width segment answers with its
        // larger measurement instead of dividing by zero.
        let dup = vec![
            RCostPoint { bytes: 1024.0, seconds: 1.0 },
            RCostPoint { bytes: 1024.0, seconds: 2.0 },
            RCostPoint { bytes: 4096.0, seconds: 8.0 },
        ];
        let c = Characterization {
            machine: "test".into(),
            grids: vec![GridTable { steps: 4, dim1: dup, dim2: Vec::new() }],
        };
        for bytes in [0.0, 512.0, 1024.0, 2048.0, 4096.0, 1e7] {
            let t = c.rcost(4, GridDim::Dim1, bytes);
            assert!(t.is_finite() && !t.is_nan(), "bytes={bytes}: {t}");
            assert!(t >= 0.0);
        }
        // Exactly on the duplicated size: the larger measurement wins.
        assert_eq!(c.rcost(4, GridDim::Dim1, 1024.0), 2.0);
        // An empty point table is an error through `try_rcost`…
        assert_eq!(
            c.try_rcost(4, GridDim::Dim2, 1e6),
            Err(CostError::EmptyTable { steps: 4, travel: GridDim::Dim2 })
        );
        // …and a documented 0.0 through the total `rcost`.
        assert_eq!(c.rcost(4, GridDim::Dim2, 1e6), 0.0);
        // A wholly empty characterization predicts 0.0 everywhere.
        let empty = Characterization { machine: "test".into(), grids: Vec::new() };
        assert_eq!(empty.rcost(4, GridDim::Dim1, 1e6), 0.0);
        assert_eq!(
            empty.try_rcost(4, GridDim::Dim1, 1e6),
            Err(CostError::UncharacterizedGrid { steps: 4 })
        );
    }

    #[test]
    fn nearest_grid_fallback_counts_and_zero_step_table_does_not_scale() {
        let c = Characterization {
            machine: "test".into(),
            grids: vec![GridTable {
                steps: 0,
                dim1: vec![RCostPoint { bytes: 1000.0, seconds: 3.0 }],
                dim2: Vec::new(),
            }],
        };
        let before = rcost_fallback_count();
        // Only a 0-step table exists: the nearest-grid fallback must not
        // divide by zero — it answers with the unscaled base.
        let t = c.rcost(4, GridDim::Dim1, 2000.0);
        assert!(t.is_finite() && t == 6.0, "unscaled base expected, got {t}");
        // The fallback is surfaced, not silent.
        assert!(rcost_fallback_count() > before);
    }

    #[test]
    fn characterized_queries_never_bump_the_fallback_counter() {
        let (_, c) = chr();
        let before = rcost_fallback_count();
        let _ = c.rcost(4, GridDim::Dim1, 1e6);
        let _ = c.rcost(8, GridDim::Dim2, 1e6);
        // Other tests run concurrently and may themselves fall back, so
        // only assert through a private, freshly counted path: a second
        // uncharacterized query strictly increases the count.
        let mid = rcost_fallback_count();
        assert!(mid >= before);
        let _ = c.rcost(16, GridDim::Dim1, 1e6);
        assert!(rcost_fallback_count() > mid);
    }

    #[test]
    fn single_point_table_scales_proportionally() {
        let c = Characterization {
            machine: "test".into(),
            grids: vec![GridTable {
                steps: 2,
                dim1: vec![RCostPoint { bytes: 1000.0, seconds: 3.0 }],
                dim2: vec![RCostPoint { bytes: 0.0, seconds: 5.0 }],
            }],
        };
        assert_eq!(c.rcost(2, GridDim::Dim1, 2000.0), 6.0);
        // Zero-byte single point cannot scale; clamp to the measurement.
        let t = c.rcost(2, GridDim::Dim2, 2000.0);
        assert!(t.is_finite() && t == 5.0);
    }

    #[test]
    fn table1_d_rotation_via_characterization() {
        // D's Table-1 rotation (58.98 MB block, 8 steps) through the
        // characterization must land near the paper's 35.7 s.
        let (_, c) = chr();
        let t = c.rcost(8, GridDim::Dim2, 7_372_800.0 * 8.0);
        assert!((t - 35.7).abs() / 35.7 < 0.15, "got {t:.1}s");
    }
}
