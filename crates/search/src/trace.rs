//! Clock-free tracing hooks for the searcher.
//!
//! The engine crates are deterministic by contract (clippy's
//! `disallowed_methods` denies `Instant::now` here), so the searcher cannot
//! timestamp its own stages.
//! Instead it emits `phase_begin`/`phase_end` callbacks through a
//! [`SearchTracer`], and the *server* layer — which owns the clock and the
//! trace ring — implements the trait and captures timestamps on its side of
//! the boundary. The default [`NoTracer`] makes every hook a no-op that the
//! optimizer deletes, so untraced searches pay nothing.

/// The searcher's traceable phases, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchPhase {
    /// Representative-set loading plus the query user's own `Γ(v)` probe
    /// (Algorithm 10 lines 1–16).
    Gather,
    /// One EXPAND round over the marked-node frontier (Algorithm 11). The
    /// `detail` on `phase_end` is the number of tables probed this round.
    ExpandRound,
    /// Final sort/truncate of the candidate scores; `detail` is the
    /// candidate count.
    Rank,
}

/// Receiver for the searcher's phase callbacks.
///
/// Implementations may read clocks and record spans; the searcher itself
/// never does. A phase that begins may not end (cancellation) —
/// implementations must tolerate an unmatched `phase_begin`.
pub trait SearchTracer {
    /// A phase is starting now.
    fn phase_begin(&mut self, phase: SearchPhase);
    /// The matching phase finished; `detail` is phase-specific (see
    /// [`SearchPhase`]).
    fn phase_end(&mut self, phase: SearchPhase, detail: u64);
}

/// The no-op tracer used by untraced searches.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTracer;

impl SearchTracer for NoTracer {
    #[inline]
    fn phase_begin(&mut self, _phase: SearchPhase) {}
    #[inline]
    fn phase_end(&mut self, _phase: SearchPhase, _detail: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tracer_is_inert() {
        let mut t = NoTracer;
        t.phase_begin(SearchPhase::Gather);
        t.phase_end(SearchPhase::Gather, 1);
    }
}
