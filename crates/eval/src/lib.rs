//! # pit-eval
//!
//! Shared evaluation machinery for regenerating the paper's Section-6
//! experiments:
//!
//! * [`metrics`] — precision@k against a ground-truth ranking (the paper's
//!   effectiveness measure, Figures 10–12) and rank-correlation extras;
//! * [`timing`] — repeated-run wall-clock measurement with mean/min/max;
//! * [`alloc`] — a counting global allocator for real peak-heap measurements
//!   (Figures 13–14); installed by the `repro` binary;
//! * [`sumerror`] — the Definition-1 summarization objective
//!   `Σ_v |I(t,v) − I*(t,v)|`, measured by propagating the representative
//!   weights through the same matrix engine as the ground truth;
//! * [`table`] — fixed-width text tables for paper-style output.

// This crate's only unsafe lives in `alloc`; force every unsafe operation
// inside those `unsafe fn`s into an explicit block, which clippy's
// `undocumented_unsafe_blocks` then requires to carry a `// SAFETY:` comment.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod metrics;
pub mod sumerror;
pub mod table;
pub mod timing;

pub use metrics::{jaccard, kendall_tau, ndcg_at_k, precision_at_k, recall_at_k};
pub use sumerror::summarization_error;
pub use table::Table;
pub use timing::{measure, Measurement};
