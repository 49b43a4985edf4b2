//! pit-router: sharded scatter-gather serving for PIT-Search.
//!
//! The single-node engine holds every user's Γ(v) propagation index and
//! walk table in one process. Past a few hundred million table entries that
//! stops fitting, so this crate partitions *users* across N engine shards
//! (deterministic map: [`pit::shard_of`], `v mod N`) and serves the union
//! behind one front door:
//!
//! - [`ShardedEngine`] implements the server's
//!   [`ServeEngine`](pit_server::ServeEngine) surface by driving the exact
//!   single-node search state machine
//!   ([`SearchDriver`](pit_search_core::SearchDriver)) over per-shard
//!   `EXPAND` probes — rankings are bit-identical to single-node by
//!   construction, including tie-breaks.
//! - [`ShardTransport`] abstracts where a shard lives:
//!   [`LocalTransport`] (in-process slice, used by `pit route --local` and
//!   the equivalence proofs) or [`RemoteTransport`] (a `pit serve` backend
//!   over the length-prefixed wire protocol).
//!
//! Honesty guarantees, end to end:
//!
//! - **Generation coherence.** Every `EXPAND` carries the generation the
//!   query was admitted against; a backend that reloaded mid-flight refuses
//!   the probe. Mixed-generation answers are structurally impossible.
//! - **Partial provenance.** A shard that times out, sheds, or faults
//!   mid-query is reported once in the reply's `partial=` clause with the
//!   `timeout | overloaded | internal` taxonomy — except the home shard,
//!   whose Γ(v) seeds the search: losing it fails the query honestly.
//! - **Cross-shard pruning.** The driver's §5.2 upper bound stops the
//!   search globally; shards whose frontier never rose above the running
//!   k-th score are never contacted and counted in `shards_pruned`.

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

pub mod sharded;
pub mod transport;

pub use sharded::ShardedEngine;
pub use transport::{LocalTransport, RemoteTransport, ShardError, ShardTransport};
