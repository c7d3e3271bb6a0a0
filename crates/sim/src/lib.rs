//! # tce-sim — virtual cluster execution of optimizer plans
//!
//! The paper evaluates on an Intel Itanium cluster; this crate is the
//! stand-in substrate. It executes the plans produced by `tce-core` on a
//! simulated `√P × √P` processor grid holding real `f64` blocks:
//! generalized Cannon alignments and rotations move actual data, fused
//! loops are actually iterated over array slices, and the final result is
//! verified element-wise against a sequential einsum reference
//! ([`einsum`]). Time/volume/memory are charged from the
//! machine model, so the optimizer's predicted costs can be checked against
//! "measured" (simulated) ones — the same relationship the paper had
//! between its cost model and its cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod einsum;
mod exec;
mod metrics;
pub mod tensor;

pub use exec::{simulate, simulate_traced, SimError, SimReport, VERIFY_ABS_TOL};
pub use metrics::{per_kind_totals, CommEvent, CommKind, KindTotals, Metrics};
