//! The stable `TCE1xx` lint codes.
//!
//! Same contract as [`tce_check::diag::codes`]: codes are append-only, a
//! released code never changes meaning, and retired codes are not reused.
//! The 1xx block is reserved for *source-level* findings; 0xx stays with
//! the plan checker.

/// A declared array (input or intermediate) is never used by any later
/// statement and is not the program result.
pub const UNUSED_DECLARATION: &str = "TCE101";
/// An array name is declared more than once; lowering keeps the last
/// declaration (last-one-wins), silently shadowing the earlier one.
pub const DUPLICATE_DECLARATION: &str = "TCE102";
/// A dangling index: a summation index that appears in no factor of its
/// statement, or a result dimension no factor provides.
pub const DANGLING_INDEX: &str = "TCE103";
/// An inconsistent array reference: an undeclared name, or a reference
/// whose arity/extents disagree with the name's declaration.
pub const INCONSISTENT_REFERENCE: &str = "TCE104";
/// An index extent is not divisible by a processor-grid dimension that
/// could partition it — any plan distributing that index would fail in
/// the simulator with `SimError::Indivisible`.
pub const INDIVISIBLE_EXTENT: &str = "TCE105";
/// The processor grid is not covered by the `RCost` characterization;
/// rotation costs silently fall back to the nearest characterized grid
/// scaled by the step-count ratio.
pub const UNCHARACTERIZED_GRID: &str = "TCE106";
/// The memory limit is provably infeasible: the per-node storage floors
/// (`tce_cost::lower_bound::mem_floor_words`) already exceed it, so no
/// plan exists and the search would only ever return
/// `NoFeasibleSolution`.
pub const MEMORY_INFEASIBLE: &str = "TCE107";
/// An array's full volume (the product of its extents) overflows `u128`:
/// no size, footprint or memory limit involving it can be represented,
/// so lowering rejects the program.
pub const VOLUME_OVERFLOW: &str = "TCE108";
