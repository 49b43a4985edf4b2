//! # pit-obs
//!
//! Observability primitives for the serving stack, with zero external
//! dependencies (consistent with the workspace's vendored-only policy):
//!
//! * [`Counter`] — the telemetry atomic every tally, gauge, histogram
//!   bucket and ticket source in the serving stack is made of.
//! * [`trace`] — per-query span traces: a [`TraceId`] allocator, the
//!   [`Stage`] vocabulary (queue wait, cache probe, gather, expand rounds,
//!   ranking), a live [`SpanRecorder`], and the finished [`Trace`] record
//!   with its human-readable rendering.
//! * [`ring`] — [`TraceRing`], a fixed-size overwrite-on-wrap buffer of
//!   finished traces with a lock-free slot claim, so capture never blocks
//!   the query path on a reader.
//! * [`sample`] — [`Sampler`], the `1/N` trace-sampling knob; the unsampled
//!   path costs one branch plus one relaxed counter increment.
//! * [`prom`] — Prometheus text-exposition rendering for counters, gauges,
//!   and the workspace's power-of-two bucket histograms.
//!
//! This crate holds no clocks-forbidden engine logic and is *allowed* to
//! read wall time (`Instant`): timestamps are captured here and in the
//! server layer, never inside the deterministic engine crates (clippy's
//! `disallowed_methods` denies the clock there).

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
pub mod ring;
pub mod sample;
pub mod trace;

pub use counter::Counter;
pub use ring::TraceRing;
pub use sample::Sampler;
pub use trace::{Span, SpanRecorder, Stage, Trace, TraceId};
