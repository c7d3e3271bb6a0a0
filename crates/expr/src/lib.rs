//! # tce-expr — tensor contraction expression IR
//!
//! The representation layer of a reproduction of *"Global Communication
//! Optimization for Tensor Contraction Expressions under Memory
//! Constraints"* (Cociorva et al., IPPS 2003).
//!
//! The class of computations: a final multi-dimensional array computed as a
//! summation over products of input arrays, decomposed (after operation
//! minimization) into a *formula sequence* — each formula a multiplication,
//! a summation, or a combined contraction producing an intermediate — which
//! is equivalently a binary *expression tree* whose internal nodes are the
//! contractions.
//!
//! This crate provides:
//! * [`IndexSpace`] / [`IndexId`] / [`IndexSet`] — index variables & extents;
//! * [`Tensor`] — named arrays over index variables;
//! * [`FormulaSequence`] (Fig. 1a / 2a) and [`ExprTree`] (Fig. 1b), with
//!   well-formedness validation and the `(I,J,K)` contraction-group
//!   decomposition of §3.1;
//! * a [`parser`] for a small text notation, including raw
//!   sum-of-products terms destined for operation minimization;
//! * [`printer`]s reproducing the paper's Fig. 2 renderings;
//! * [`examples`] — the paper's Fig. 1 and §4 workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod canon;
mod error;
pub mod examples;
mod formula;
mod index;
pub mod parser;
pub mod printer;
mod tensor;
mod tree;

pub use canon::{canonical_form, fnv128, subtree_form, CanonicalForm, Fnv128};
pub use error::ExprError;
pub use formula::{Formula, FormulaSequence};
pub use index::{IndexId, IndexSet, IndexSpace};
pub use parser::{parse, Program, Statement, SumOfProducts};
pub use tensor::Tensor;
pub use tree::{ContractionGroups, ExprTree, Node, NodeId, NodeKind};
