//! Per-query trace lifecycle: sampling decision at admission, span
//! recording across threads, and capture into the trace ring / slow-query
//! log at finalization.
//!
//! A [`TraceCtx`] is created once per admitted query (after validation) and
//! travels with it — connection thread for the cache probe, worker thread
//! for queue wait and execution — then comes back to the
//! [`TraceCollector`] exactly once via [`TraceCollector::finish`]. The
//! unsampled path is deliberately near-free: the sampling decision is one
//! branch plus one relaxed counter, and every span hook on an unsampled
//! context is a single `Option` branch.
//!
//! The slow-query log is independent of sampling: any query whose total
//! service time crosses the configured threshold is captured — with full
//! spans when it happened to be sampled, as a counters-only summary
//! otherwise — so the queries an operator most needs to see are never lost
//! to the sampling rate.
//!
//! This module is also where the engine crates' clock ban is honored: the
//! deterministic searcher emits clock-free [`SearchPhase`] callbacks, and
//! the [`SearchTracer`] impl here timestamps them against the admission
//! epoch.

use crate::cache::QueryKey;
use crate::metrics::Metrics;
use crate::pool::{JobError, JobReply};
use crate::protocol::wire_enum;
use pit_obs::trace::{SpanRecorder, Stage, Trace, TraceId};
use pit_obs::{Sampler, TraceRing};
use pit_search_core::{SearchError, SearchPhase, SearchStats, SearchTracer};
use std::time::{Duration, Instant};

wire_enum! {
    /// How a query ended, as a rendered trace's `outcome=` word.
    pub enum TraceOutcome {
        /// Answered in full (fresh or cached).
        Ok => "ok",
        /// Answered, minus one or more shards.
        Partial => "partial",
        /// The budget expired: in the queue, mid-search, or while waiting.
        Timeout => "timeout",
        /// Refused or failed without a panic.
        Error => "error",
        /// The execution panicked.
        Panic => "panic",
    }
}

impl From<&JobReply> for TraceOutcome {
    fn from(reply: &JobReply) -> Self {
        match reply {
            Ok((_, _, partial)) if partial.is_empty() => TraceOutcome::Ok,
            Ok(_) => TraceOutcome::Partial,
            Err(JobError::Search(SearchError::Cancelled { .. })) => TraceOutcome::Timeout,
            Err(JobError::Panicked) => TraceOutcome::Panic,
            Err(
                JobError::Search(SearchError::UserOutOfRange { .. })
                | JobError::Shard(_)
                | JobError::Shed
                | JobError::Closed,
            ) => TraceOutcome::Error,
        }
    }
}

/// The per-server trace state: sampler, rings, and the slow threshold.
pub struct TraceCollector {
    sampler: Sampler,
    /// Sampled traces (full spans).
    ring: TraceRing,
    /// Slow queries — captured regardless of sampling.
    slow: TraceRing,
    slow_threshold: Duration,
}

/// One query's trace handle. Created at admission, finalized exactly once.
pub struct TraceCtx {
    generation: u64,
    /// Present only when this query was sampled; every hook is a single
    /// branch on this option when it is not.
    rec: Option<Box<SpanRecorder>>,
}

impl TraceCtx {
    /// Whether this query records spans.
    pub fn is_sampled(&self) -> bool {
        self.rec.is_some()
    }

    /// Open `stage` now (no-op when unsampled).
    pub fn begin(&mut self, stage: Stage) {
        if let Some(rec) = &mut self.rec {
            rec.begin(stage);
        }
    }

    /// Close `stage` now (no-op when unsampled).
    pub fn end(&mut self, stage: Stage, detail: u64) {
        if let Some(rec) = &mut self.rec {
            rec.end(stage, detail);
        }
    }

    /// Record a stage measured elsewhere, ending now (no-op when
    /// unsampled). Used for queue wait, which only the dequeuing worker
    /// can measure.
    pub fn event(&mut self, stage: Stage, dur: Duration, detail: u64) {
        if let Some(rec) = &mut self.rec {
            rec.event(stage, dur, detail);
        }
    }
}

/// The clock boundary: the clock-free searcher's phase callbacks are
/// timestamped here, on the server side of the trait object.
impl SearchTracer for TraceCtx {
    fn phase_begin(&mut self, phase: SearchPhase) {
        self.begin(stage_of(phase));
    }

    fn phase_end(&mut self, phase: SearchPhase, detail: u64) {
        self.end(stage_of(phase), detail);
    }
}

fn stage_of(phase: SearchPhase) -> Stage {
    match phase {
        SearchPhase::Gather => Stage::Gather,
        SearchPhase::ExpandRound => Stage::ExpandRound,
        SearchPhase::Rank => Stage::Rank,
    }
}

impl TraceCollector {
    /// Build from the serving knobs: sample one query in `sample_every`
    /// (0 disables sampling), log queries slower than `slow_threshold`,
    /// keep the last `ring_capacity` captures per ring.
    pub fn new(sample_every: u64, slow_threshold: Duration, ring_capacity: usize) -> Self {
        TraceCollector {
            sampler: Sampler::every(sample_every),
            ring: TraceRing::new(ring_capacity),
            slow: TraceRing::new(ring_capacity),
            slow_threshold,
        }
    }

    /// The configured sampling period (0 = off).
    pub fn sample_every(&self) -> u64 {
        self.sampler.period()
    }

    /// The slow-query threshold.
    pub fn slow_threshold(&self) -> Duration {
        self.slow_threshold
    }

    /// Decide this query's fate at admission: sampled queries get a live
    /// span recorder with `epoch` (the admission instant) as time zero.
    pub fn begin(&self, generation: u64, epoch: Instant) -> TraceCtx {
        let rec = if self.sampler.hit() {
            Some(Box::new(SpanRecorder::starting_at(epoch)))
        } else {
            None
        };
        TraceCtx { generation, rec }
    }

    /// Finalize one query: feed the per-stage histograms, and capture the
    /// trace into the sampled ring and/or the slow-query log. `stats` is
    /// present for queries that actually executed a search (fully or until
    /// cancellation); cached and shed queries pass `None`.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        ctx: TraceCtx,
        key: &QueryKey,
        outcome: TraceOutcome,
        cached: bool,
        stats: Option<SearchStats>,
        total: Duration,
        metrics: &Metrics,
    ) {
        if let Some(s) = stats {
            metrics.expand_rounds.observe_value(s.expand_rounds as u64);
            metrics.probed_tables.observe_value(s.probed_tables as u64);
        }
        let slow = total >= self.slow_threshold;
        if slow {
            metrics.slow_queries.inc();
        }
        let sampled = ctx.is_sampled();
        if !sampled && !slow {
            return; // the common path: nothing to capture
        }
        let total_us = total.as_micros().min(u64::MAX as u128) as u64;
        let s = stats.unwrap_or_default();
        let spans = match ctx.rec {
            Some(rec) => rec.into_spans(),
            None => Vec::new(),
        };
        if sampled {
            metrics.traces_sampled.inc();
            for span in &spans {
                match span.stage {
                    Stage::CacheProbe => metrics.cache_probe.observe_value(span.dur_us),
                    Stage::Gather => metrics.gather.observe_value(span.dur_us),
                    Stage::Rank => metrics.rank.observe_value(span.dur_us),
                    Stage::QueueWait | Stage::ExpandRound => {}
                }
            }
        }
        let trace = Trace {
            id: TraceId::next(),
            generation: ctx.generation,
            user: key.user,
            k: key.k,
            terms: key.terms.iter().map(|t| t.0).collect(),
            outcome: outcome.as_str(),
            cached,
            slow,
            sampled,
            total_us,
            expand_rounds: s.expand_rounds as u64,
            probed_tables: s.probed_tables as u64,
            candidate_topics: s.candidate_topics as u64,
            pruned_topics: s.pruned_topics as u64,
            loaded_reps: s.loaded_reps as u64,
            spans,
        };
        if slow {
            self.slow.push(trace.clone());
        }
        if sampled {
            self.ring.push(trace);
        }
    }

    /// Render the last `n` captures of each ring for the `TRACE` verb:
    /// slow queries first (the ones an operator is hunting), then sampled
    /// traces, both newest-first. A trace that is both slow and sampled
    /// appears in both sections under the same id.
    pub fn dump(&self, n: usize) -> String {
        let mut out = format!(
            "captured sampled={} slow={} sample_every={} slow_threshold_ms={}",
            self.ring.captured(),
            self.slow.captured(),
            self.sampler.period(),
            self.slow_threshold.as_millis(),
        );
        for (label, ring) in [("slow", &self.slow), ("sampled", &self.ring)] {
            let recent = ring.recent(n);
            out.push_str(&format!("\n[{label}] showing {} of {}", recent.len(), {
                ring.captured()
            }));
            for t in recent {
                out.push('\n');
                out.push_str(&t.render());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::TermId;

    fn key() -> QueryKey {
        QueryKey::new(7, 5, vec![TermId(0), TermId(2)])
    }

    fn stats() -> SearchStats {
        SearchStats {
            candidate_topics: 3,
            pruned_topics: 1,
            expand_rounds: 2,
            probed_tables: 9,
            loaded_reps: 12,
        }
    }

    #[test]
    fn unsampled_fast_query_captures_nothing() {
        let c = TraceCollector::new(0, Duration::from_secs(1), 8);
        let m = Metrics::default();
        let ctx = c.begin(1, Instant::now());
        assert!(!ctx.is_sampled());
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Ok,
            false,
            Some(stats()),
            Duration::from_micros(50),
            &m,
        );
        // Work histograms always observe; nothing lands in the rings.
        assert_eq!(m.expand_rounds.count(), 1);
        assert_eq!(m.probed_tables.sum_value(), 9);
        assert!(c.dump(8).contains("[slow] showing 0 of 0"));
        assert!(c.dump(8).contains("[sampled] showing 0 of 0"));
    }

    #[test]
    fn sampled_query_lands_in_the_ring_with_spans() {
        let c = TraceCollector::new(1, Duration::from_secs(1), 8);
        let m = Metrics::default();
        let mut ctx = c.begin(3, Instant::now());
        assert!(ctx.is_sampled());
        ctx.begin(Stage::CacheProbe);
        ctx.end(Stage::CacheProbe, 0);
        ctx.phase_begin(SearchPhase::Gather);
        ctx.phase_end(SearchPhase::Gather, 12);
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Ok,
            false,
            Some(stats()),
            Duration::from_micros(50),
            &m,
        );
        assert_eq!(m.traces_sampled.get(), 1);
        assert_eq!(m.cache_probe.count(), 1);
        assert_eq!(m.gather.count(), 1);
        let dump = c.dump(8);
        assert!(dump.contains("user=7"), "{dump}");
        assert!(dump.contains("gen=3"), "{dump}");
        assert!(dump.contains("cache_probe"), "{dump}");
        assert!(dump.contains("[slow] showing 0 of 0"), "fast query: {dump}");
    }

    #[test]
    fn slow_query_is_captured_even_when_unsampled() {
        let c = TraceCollector::new(0, Duration::from_millis(1), 8);
        let m = Metrics::default();
        let ctx = c.begin(1, Instant::now());
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Timeout,
            false,
            Some(stats()),
            Duration::from_millis(100),
            &m,
        );
        assert_eq!(m.slow_queries.get(), 1);
        let dump = c.dump(8);
        assert!(dump.contains("[slow] showing 1 of 1"), "{dump}");
        assert!(dump.contains("outcome=timeout"), "{dump}");
        assert!(dump.contains("sampled=no"), "summary capture: {dump}");
        assert!(dump.contains("tables=9"), "work counters survive: {dump}");
    }

    #[test]
    fn slow_and_sampled_appears_in_both_sections() {
        let c = TraceCollector::new(1, Duration::ZERO, 8);
        let m = Metrics::default();
        let ctx = c.begin(1, Instant::now());
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Ok,
            false,
            None,
            Duration::from_micros(5),
            &m,
        );
        let dump = c.dump(8);
        assert!(dump.contains("[slow] showing 1 of 1"), "{dump}");
        assert!(dump.contains("[sampled] showing 1 of 1"), "{dump}");
    }
}
