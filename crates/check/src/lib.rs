//! `tce-check`: a re-export facade over [`tce_core::check`], where the
//! static plan checker (diagnostics engine and analysis passes) lives so
//! that the optimizer can call it directly.
//!
//! Kept only so existing `tce_check::` paths compile; it goes, together
//! with [`install`], in the next change to `examples/benchmark`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tce_core::check::*;

/// No-op. The full checker is always active in `tce-core`; there is
/// nothing left to register. Kept because `examples/benchmark` calls it.
pub fn install() {}
