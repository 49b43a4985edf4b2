//! # pit-search-core
//!
//! The online stage of PIT-Search (Section 5.2): given a keyword query `q`
//! issued by user `v`, return the top-k q-related topics ranked by the
//! influence of their representative nodes on `v`.
//!
//! * [`TopicRepIndex`] — the offline *topic-to-representative-user index*:
//!   one weighted [`pit_summarize::RepresentativeSet`] per topic, built with
//!   either summarizer (RCL-A or LRW-A).
//! * [`PersonalizedSearcher`] — Algorithm 10 (`PERSONALIZED_SEARCH`) with the
//!   iterative EXPAND of Algorithm 11: probe the query user's materialized
//!   `Γ(v)` table against each topic's representative set, maintain a score
//!   heap, prune topics whose upper bound `W_r·maxEP + heap[t]` cannot enter
//!   the current top-k, and expand through marked nodes only while undecided
//!   topics remain.

#![forbid(unsafe_code)]
// Deterministic engine: no wall clock or sleep (DESIGN.md §10).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
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

pub mod audience;
pub mod cancel;
pub mod driver;
pub mod repindex;
pub mod searcher;
pub mod snapshot;
pub mod trace;

pub use audience::{find_audience, AudienceHit};
pub use cancel::{CancelToken, SearchError};
pub use driver::{
    probe_gamma, probe_gamma_into, DriverStep, RepUniverse, SearchDriver, SearchScratch, StopCause,
    TableProbe,
};
pub use repindex::TopicRepIndex;
pub use searcher::{PersonalizedSearcher, SearchConfig, SearchOutcome, SearchStats, TopicScore};
pub use trace::{NoTracer, SearchPhase, SearchTracer};
