//! # pit-obs
//!
//! The serving stack's two telemetry primitives, with zero external
//! dependencies (consistent with the workspace's vendored-only policy):
//!
//! * [`Counter`] — the telemetry atomic every tally, gauge, histogram
//!   bucket and ticket source in the serving stack is made of.
//! * [`prom`] — Prometheus text-exposition rendering for counters, gauges,
//!   and the workspace's power-of-two bucket histograms.
//!
//! Per-query tracing lives in pit-server's `trace` module, beside its one
//! consumer.

#![forbid(unsafe_code)]
// Serving code does not panic (DESIGN.md §10); a site that must carries an
// `#[expect]` stating why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod counter;
pub mod prom;

pub use counter::Counter;
