//! # tce-cost — machine models and communication cost models
//!
//! The cost side of the IPPS 2003 reproduction:
//!
//! * [`MachineModel`] — latency / saturating-bandwidth / flop-rate model of
//!   the target cluster, **calibrated against the paper's Tables 1–2** so
//!   the stand-in reproduces the Itanium cluster's published behaviour;
//! * [`rcost`] — the empirical `RCost` characterization
//!   mechanism of §3.3 (measure once → serialize → interpolate);
//! * [`rotate`] — `LoopRange`, `MsgFactor`, `RotateCost`,
//!   and the surrounding-loop generalization;
//! * [`redist`] — redistribution cost between Cannon steps;
//! * [`compute`] — flop-time model for headline totals;
//! * [`units`] — the paper's quirky MB/GB conventions, so
//!   regenerated tables match digit for digit;
//! * [`CostModel`] — the bundle handed to the optimizer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod bound;
mod breakdown;
pub mod compute;
pub mod lower_bound;
mod machine;
mod model;
pub mod rcost;
pub mod redist;
pub mod rotate;
pub mod units;

pub use breakdown::CommBreakdown;
pub use machine::MachineModel;
pub use model::CostModel;
pub use rcost::{
    characterize, rcost_fallback_count, Characterization, CostError, GridTable, RCostPoint,
};
