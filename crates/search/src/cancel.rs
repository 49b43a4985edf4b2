//! Cooperative cancellation for online search.
//!
//! A [`CancelToken`] carries an optional shared flag and an optional
//! deadline. The searcher polls it at cheap, bounded intervals (between
//! EXPAND rounds and every [`CancelToken::check_every`] probed propagation
//! tables), so a query whose waiter gave up stops burning its worker
//! mid-flight instead of running to completion. A token is deliberately
//! cheap to clone — the flag is an `Arc<AtomicBool>` shared between the
//! waiter (which sets it on budget expiry) and the worker (which polls it).

#![expect(
    clippy::disallowed_types,
    reason = "the cancellation flag is a one-way false-to-true latch: cancel() stores with \
              Release and is_cancelled() loads with Acquire, so whatever the canceller wrote \
              before cancelling is visible to the thread that observes the stop"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a search stopped without producing a ranking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchError {
    /// The token's flag was set or its deadline passed; the work counters
    /// record the propagation tables absorbed and EXPAND rounds entered
    /// before the search yielded, so callers (and query traces) can see how
    /// much work the cancellation saved.
    Cancelled {
        /// Tables probed before the search noticed the cancellation.
        probed_tables: usize,
        /// EXPAND rounds entered before the search noticed the cancellation.
        expand_rounds: usize,
    },
    /// The query user is outside the indexed graph (the propagation index
    /// has exactly one table per node).
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// Node count of the indexed graph.
        nodes: usize,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Cancelled {
                probed_tables,
                expand_rounds,
            } => {
                write!(
                    f,
                    "search cancelled after probing {probed_tables} tables \
                     ({expand_rounds} expand rounds)"
                )
            }
            SearchError::UserOutOfRange { user, nodes } => {
                write!(f, "user {user} out of range (graph has {nodes} users)")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// A cancellation/deadline token polled cooperatively by the searcher.
///
/// The default token ([`CancelToken::none`]) never cancels and adds one
/// branch per probed table to the hot path.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    check_every: Option<u32>,
}

impl CancelToken {
    /// Probed tables between cancellation checks when not overridden with
    /// [`CancelToken::with_check_every`]. Small enough that a worker is
    /// released within microseconds of a table probe, large enough that
    /// `Instant::now` stays off the per-table path.
    pub const DEFAULT_CHECK_EVERY: u32 = 16;

    /// A token that never cancels.
    pub fn none() -> Self {
        CancelToken::default()
    }

    /// A token with a fresh flag, shared by every clone: any clone's
    /// [`CancelToken::cancel`] stops them all.
    pub fn cancellable() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            ..CancelToken::default()
        }
    }

    /// Also cancel once `deadline` passes, even if nobody sets the flag.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Override the number of probed tables between checks (min 1).
    #[must_use]
    pub fn with_check_every(mut self, tables: u32) -> Self {
        self.check_every = Some(tables.max(1));
        self
    }

    /// The absolute deadline, when one was set. A scatter-gather caller
    /// derives per-RPC read timeouts from this so a slow shard cannot hold
    /// a reply past the query budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Probed tables between cancellation checks.
    pub fn check_every(&self) -> u32 {
        self.check_every.unwrap_or(Self::DEFAULT_CHECK_EVERY)
    }

    /// Set the shared flag (no-op for flagless tokens).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether the flag is set or the deadline has passed. Cheap when the
    /// token has no deadline; one `Instant::now` otherwise.
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Acquire) {
                return true;
            }
        }
        match self.deadline {
            #[expect(
                clippy::disallowed_methods,
                reason = "deadline checks decide only whether a search completes, never what it \
                          ranks; results of a completed search are identical with or without a \
                          deadline"
            )]
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn none_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        t.cancel(); // no flag: a no-op, not a panic
        assert!(!t.is_cancelled());
    }

    #[test]
    fn flag_is_shared_between_clones() {
        let t = CancelToken::cancellable();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn past_deadline_cancels_without_flag() {
        let t = CancelToken::none().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let live = CancelToken::none().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!live.is_cancelled());
    }

    #[test]
    fn check_every_is_clamped_positive() {
        assert_eq!(CancelToken::none().with_check_every(0).check_every(), 1);
        assert_eq!(
            CancelToken::none().check_every(),
            CancelToken::DEFAULT_CHECK_EVERY
        );
    }
}
