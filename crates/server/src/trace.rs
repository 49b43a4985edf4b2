//! Per-query tracing: the sampling decision at admission, span recording
//! across threads, capture into the trace ring / slow-query log at
//! finalization, and the `TRACE` rendering.
//!
//! A [`TraceCtx`] is created once per admitted query (after validation) and
//! travels with it — connection thread for the cache probe, worker thread
//! for queue wait and execution — then comes back to the
//! [`TraceCollector`] exactly once via `TraceCollector::finish`. The
//! unsampled path is deliberately near-free: the sampling decision is one
//! branch plus one relaxed counter, and every span hook on an unsampled
//! context is a single `Option` branch.
//!
//! The slow-query log is independent of sampling: any query whose total
//! service time crosses the configured threshold is captured — with full
//! spans when it happened to be sampled, as a counters-only summary
//! otherwise — so the queries an operator most needs to see are never lost
//! to the sampling rate. A capture keeps the query's own [`QueryKey`],
//! [`SearchStats`] and [`TraceOutcome`]; they are spelled out only when
//! `TRACE` renders them.
//!
//! This module is also where the engine crates' clock ban is honored: the
//! deterministic searcher emits clock-free [`SearchPhase`] callbacks, and
//! the [`SearchTracer`] impl here timestamps them against the admission
//! epoch.

use crate::cache::QueryKey;
use crate::metrics::Metrics;
use crate::pool::{JobError, JobReply};
use crate::protocol::wire_enum;
use parking_lot::Mutex;
use pit_obs::Counter;
use pit_search_core::{SearchError, SearchPhase, SearchStats, SearchTracer};
use std::fmt::Write as _;
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

/// The stages a served query passes through, in lifecycle order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Admission → dequeue by a worker.
    QueueWait,
    /// Result-cache lookup on the connection thread.
    CacheProbe,
    /// Representative-set loading plus the query user's own `Γ(v)` probe
    /// (Algorithm 10 lines 1–16).
    Gather,
    /// One EXPAND round over the marked-node frontier (Algorithm 11); a
    /// query records one span per executed round.
    ExpandRound,
    /// Final sort/truncate of the candidate scores.
    Rank,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CacheProbe => "cache_probe",
            Stage::Gather => "gather",
            Stage::ExpandRound => "expand_round",
            Stage::Rank => "rank",
        }
    }
}

impl From<SearchPhase> for Stage {
    fn from(phase: SearchPhase) -> Self {
        match phase {
            SearchPhase::Gather => Stage::Gather,
            SearchPhase::ExpandRound => Stage::ExpandRound,
            SearchPhase::Rank => Stage::Rank,
        }
    }
}

/// One timed stage of one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    stage: Stage,
    /// Offset of the stage start from the query's admission, in µs.
    start_us: u64,
    dur_us: u64,
    /// Stage-specific payload: cache hit (1/0) for [`Stage::CacheProbe`],
    /// representative entries loaded for [`Stage::Gather`], tables probed
    /// this round for [`Stage::ExpandRound`], candidate topics for
    /// [`Stage::Rank`].
    detail: u64,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A sampled query's live recording, timed against the admission instant.
/// Stages never nest, so an unmatched `begin` is superseded by the next one
/// and an unmatched `end` is dropped — a cancelled query yields a truncated
/// but well-formed trace.
#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<(Stage, Instant)>,
}

/// One query's trace handle. Created at admission, finalized exactly once.
pub struct TraceCtx {
    generation: u64,
    /// Whether the result-cache probe answered the query.
    cached: bool,
    /// Present only when this query was sampled; every hook is a single
    /// branch on this option when it is not.
    rec: Option<Box<Recorder>>,
}

impl TraceCtx {
    fn begin(&mut self, stage: Stage) {
        if let Some(rec) = &mut self.rec {
            rec.open = Some((stage, Instant::now()));
        }
    }

    fn end(&mut self, stage: Stage, detail: u64) {
        let Some(rec) = &mut self.rec else { return };
        match rec.open.take() {
            Some((open, started)) if open == stage => rec.spans.push(Span {
                stage,
                start_us: micros(started.saturating_duration_since(rec.epoch)),
                dur_us: micros(started.elapsed()),
                detail,
            }),
            other => rec.open = other,
        }
    }

    /// Run the result-cache `probe`, timing it and remembering whether it
    /// hit.
    pub(crate) fn probe_cache<T>(&mut self, probe: impl FnOnce() -> Option<T>) -> Option<T> {
        self.begin(Stage::CacheProbe);
        let found = probe();
        self.cached = found.is_some();
        self.end(Stage::CacheProbe, u64::from(self.cached));
        found
    }

    /// Record the queue wait, which only the dequeuing worker can measure,
    /// as a span ending now (no-op when unsampled).
    pub(crate) fn queue_wait(&mut self, waited: Duration) {
        if let Some(rec) = &mut self.rec {
            let end_us = micros(rec.epoch.elapsed());
            let dur_us = micros(waited);
            rec.spans.push(Span {
                stage: Stage::QueueWait,
                start_us: end_us.saturating_sub(dur_us),
                dur_us,
                detail: 0,
            });
        }
    }
}

/// The clock boundary: the clock-free searcher's phase callbacks are
/// timestamped here, on the server side of the trait object.
impl SearchTracer for TraceCtx {
    fn phase_begin(&mut self, phase: SearchPhase) {
        self.begin(phase.into());
    }

    fn phase_end(&mut self, phase: SearchPhase, detail: u64) {
        self.end(phase.into(), detail);
    }
}

/// One finished query, as the rings keep it and `TRACE` renders it.
#[derive(Clone, Debug)]
struct Trace {
    /// Unique per collector, hex-rendered.
    id: u64,
    /// Engine generation the query ran against.
    generation: u64,
    key: QueryKey,
    outcome: TraceOutcome,
    cached: bool,
    /// Total service time crossed the slow-query threshold.
    slow: bool,
    total_us: u64,
    /// Zero for a query that never reached the searcher.
    stats: SearchStats,
    /// The timed stages of a sampled query; `None` for a slow query
    /// captured outside the sample (a counters-only summary).
    spans: Option<Vec<Span>>,
}

impl Trace {
    /// One header line, then one indented line per span. The `key=value`
    /// header tokens are stable — tests and operators grep them.
    fn render_into(&self, out: &mut String) {
        let yn = |b: bool| if b { "yes" } else { "no" };
        let terms = self
            .key
            .terms
            .iter()
            .map(|t| t.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let s = &self.stats;
        let _ = write!(
            out,
            "trace {:016x} user={} k={} terms=[{terms}] gen={} outcome={} cached={} slow={} \
             sampled={} total_us={} rounds={} tables={} candidates={} pruned={} reps={}",
            self.id,
            self.key.user,
            self.key.k,
            self.generation,
            self.outcome.as_str(),
            yn(self.cached),
            yn(self.slow),
            yn(self.spans.is_some()),
            self.total_us,
            s.expand_rounds,
            s.probed_tables,
            s.candidate_topics,
            s.pruned_topics,
            s.loaded_reps,
        );
        for span in self.spans.iter().flatten() {
            let _ = write!(
                out,
                "\n  {:<12} +{}us {}us",
                span.stage.name(),
                span.start_us,
                span.dur_us
            );
            let _ = match span.stage {
                Stage::QueueWait => Ok(()),
                Stage::CacheProbe => out.write_str(if span.detail == 1 { " hit" } else { " miss" }),
                Stage::Gather => write!(out, " reps={}", span.detail),
                Stage::ExpandRound => write!(out, " tables={}", span.detail),
                Stage::Rank => write!(out, " candidates={}", span.detail),
            };
        }
    }
}

/// A fixed-size ring of finished traces, overwritten oldest-first on wrap.
/// A writer claims a slot with one ticket from `cursor`, then stores under
/// that slot's own lock, so a capture never waits on another slot.
struct Ring {
    slots: Vec<Mutex<Option<Trace>>>,
    /// Captures ever; `cursor % slots.len()` is the next slot to claim.
    cursor: Counter,
}

impl Ring {
    /// A ring holding the last `capacity` traces (min 1).
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: Counter::new(0),
        }
    }

    fn push(&self, trace: Trace) {
        let claim = self.cursor.add(1);
        *self.slots[(claim % self.slots.len() as u64) as usize].lock() = Some(trace);
    }

    /// Append a `[label]` section: the last `n` captures, newest first.
    fn dump_into(&self, label: &str, n: usize, out: &mut String) {
        let captured = self.cursor.get();
        let len = self.slots.len() as u64;
        let mut shown = 0;
        let mut body = String::new();
        for back in 1..=(n as u64).min(captured).min(len) {
            if let Some(t) = &*self.slots[((captured - back) % len) as usize].lock() {
                body.push('\n');
                t.render_into(&mut body);
                shown += 1;
            }
        }
        let _ = write!(out, "\n[{label}] showing {shown} of {captured}{body}");
    }
}

/// The per-server trace state: sampler, rings, and the slow threshold.
pub struct TraceCollector {
    /// Sample one query in this many; 0 samples none.
    sample_every: u64,
    /// Sampling decisions made so far.
    decided: Counter,
    /// Source of trace ids.
    next_id: Counter,
    /// Sampled traces (full spans).
    ring: Ring,
    /// Slow queries — captured regardless of sampling.
    slow: Ring,
    slow_threshold: Duration,
}

impl TraceCollector {
    /// Build from the serving knobs: sample one query in `sample_every`
    /// (0 disables sampling), log queries slower than `slow_threshold`,
    /// keep the last `ring_capacity` captures per ring.
    pub(crate) fn new(sample_every: u64, slow_threshold: Duration, ring_capacity: usize) -> Self {
        TraceCollector {
            sample_every,
            decided: Counter::new(0),
            next_id: Counter::new(1),
            ring: Ring::new(ring_capacity),
            slow: Ring::new(ring_capacity),
            slow_threshold,
        }
    }

    /// Deterministic 1-in-N: the first decision samples, so a period of 1
    /// traces every query, and tests can pin which queries get traced.
    fn sample(&self) -> bool {
        self.sample_every != 0 && self.decided.add(1).is_multiple_of(self.sample_every)
    }

    /// Decide this query's fate at admission: sampled queries get a live
    /// span recorder with `epoch` (the admission instant) as time zero.
    pub(crate) fn begin(&self, generation: u64, epoch: Instant) -> TraceCtx {
        let rec = self.sample().then(|| {
            Box::new(Recorder {
                epoch,
                spans: Vec::new(),
                open: None,
            })
        });
        TraceCtx {
            generation,
            cached: false,
            rec,
        }
    }

    /// Finalize one query: feed the per-stage histograms, and capture the
    /// trace into the sampled ring and/or the slow-query log. `stats` is
    /// present for queries that actually executed a search (fully or until
    /// cancellation); cached and shed queries pass `None`.
    pub(crate) fn finish(
        &self,
        ctx: TraceCtx,
        key: &QueryKey,
        outcome: TraceOutcome,
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
        let spans = ctx.rec.map(|rec| rec.spans);
        if spans.is_none() && !slow {
            return; // the common path: nothing to capture
        }
        let sampled = spans.is_some();
        if let Some(spans) = &spans {
            metrics.traces_sampled.inc();
            for span in spans {
                match span.stage {
                    Stage::CacheProbe => metrics.cache_probe.observe_value(span.dur_us),
                    Stage::Gather => metrics.gather.observe_value(span.dur_us),
                    Stage::Rank => metrics.rank.observe_value(span.dur_us),
                    Stage::QueueWait | Stage::ExpandRound => {}
                }
            }
        }
        let trace = Trace {
            id: self.next_id.add(1),
            generation: ctx.generation,
            key: key.clone(),
            outcome,
            cached: ctx.cached,
            slow,
            total_us: micros(total),
            stats: stats.unwrap_or_default(),
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
    pub(crate) fn dump(&self, n: usize) -> String {
        let mut out = format!(
            "captured sampled={} slow={} sample_every={} slow_threshold_ms={}",
            self.ring.cursor.get(),
            self.slow.cursor.get(),
            self.sample_every,
            self.slow_threshold.as_millis(),
        );
        self.slow.dump_into("slow", n, &mut out);
        self.ring.dump_into("sampled", n, &mut out);
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

    fn sampled_ctx() -> TraceCtx {
        TraceCollector::new(1, Duration::ZERO, 1).begin(1, Instant::now())
    }

    fn spans(ctx: TraceCtx) -> Vec<Span> {
        ctx.rec.expect("sampled").spans
    }

    #[test]
    fn zero_never_samples_and_n_samples_exactly_one_in_n() {
        let off = TraceCollector::new(0, Duration::ZERO, 1);
        assert!((0..100).all(|_| !off.sample()));
        let every = TraceCollector::new(1, Duration::ZERO, 1);
        assert!((0..100).all(|_| every.sample()));
        let fourth = TraceCollector::new(4, Duration::ZERO, 1);
        let hits: Vec<bool> = (0..12).map(|_| fourth.sample()).collect();
        assert_eq!(
            hits,
            vec![true, false, false, false, true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn concurrent_decisions_keep_the_rate() {
        let c = std::sync::Arc::new(TraceCollector::new(10, Duration::ZERO, 1));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || (0..1000).filter(|_| c.sample()).count())
            })
            .collect();
        let hits: usize = threads.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(hits, 800, "8000 decisions at 1/10 sample exactly 800");
    }

    #[test]
    fn recorder_matches_begin_end_pairs() {
        let mut ctx = sampled_ctx();
        ctx.phase_begin(SearchPhase::Gather);
        ctx.phase_end(SearchPhase::Gather, 12);
        ctx.phase_begin(SearchPhase::ExpandRound);
        ctx.phase_end(SearchPhase::ExpandRound, 3);
        let spans = spans(ctx);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].stage, spans[0].detail), (Stage::Gather, 12));
        assert_eq!((spans[1].stage, spans[1].detail), (Stage::ExpandRound, 3));
        assert!(spans[1].start_us >= spans[0].start_us);
    }

    #[test]
    fn unmatched_end_is_dropped_and_mismatched_open_survives() {
        let mut ctx = sampled_ctx();
        ctx.phase_end(SearchPhase::Rank, 1); // nothing open: dropped
        ctx.phase_begin(SearchPhase::Gather);
        ctx.phase_end(SearchPhase::Rank, 1); // wrong stage: Gather stays open
        ctx.phase_end(SearchPhase::Gather, 7);
        let spans = spans(ctx);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].stage, spans[0].detail), (Stage::Gather, 7));
    }

    #[test]
    fn queue_wait_backdates_its_start_and_probe_records_the_hit() {
        let mut ctx = sampled_ctx();
        ctx.queue_wait(Duration::from_micros(500));
        assert_eq!(ctx.probe_cache(|| Some(())), Some(()));
        assert!(ctx.cached);
        let spans = spans(ctx);
        assert_eq!((spans[0].stage, spans[0].dur_us), (Stage::QueueWait, 500));
        assert_eq!((spans[1].stage, spans[1].detail), (Stage::CacheProbe, 1));
    }

    #[test]
    fn unsampled_fast_query_captures_nothing() {
        let c = TraceCollector::new(0, Duration::from_secs(1), 8);
        let m = Metrics::default();
        let mut ctx = c.begin(1, Instant::now());
        assert!(ctx.rec.is_none());
        assert_eq!(ctx.probe_cache(|| None::<()>), None);
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Ok,
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
        assert!(ctx.rec.is_some());
        ctx.probe_cache(|| None::<()>);
        ctx.phase_begin(SearchPhase::Gather);
        ctx.phase_end(SearchPhase::Gather, 12);
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Ok,
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

    /// The exact bytes `TRACE` prints for one capture: the header tokens in
    /// order, then one line per span with its stage's detail word.
    #[test]
    fn rendered_trace_bytes_are_pinned() {
        let span = |stage, start_us, dur_us, detail| Span {
            stage,
            start_us,
            dur_us,
            detail,
        };
        let render = |t: Trace| {
            let mut out = String::new();
            t.render_into(&mut out);
            out
        };
        let executed = Trace {
            id: 0x2a,
            generation: 1,
            key: key(),
            outcome: TraceOutcome::Partial,
            cached: false,
            slow: true,
            total_us: 41873,
            stats: SearchStats {
                candidate_topics: 36,
                pruned_topics: 31,
                expand_rounds: 2,
                probed_tables: 16,
                loaded_reps: 288,
            },
            spans: Some(vec![
                span(Stage::CacheProbe, 21, 2, 0),
                span(Stage::QueueWait, 1, 46, 0),
                span(Stage::Gather, 56, 292, 288),
                span(Stage::ExpandRound, 368, 40168, 14),
                span(Stage::ExpandRound, 40554, 921, 1),
                span(Stage::Rank, 41601, 23, 36),
            ]),
        };
        assert_eq!(
            render(executed),
            "trace 000000000000002a user=7 k=5 terms=[0,2] gen=1 outcome=partial cached=no \
             slow=yes sampled=yes total_us=41873 rounds=2 tables=16 candidates=36 pruned=31 \
             reps=288\n\
             \x20 cache_probe  +21us 2us miss\n\
             \x20 queue_wait   +1us 46us\n\
             \x20 gather       +56us 292us reps=288\n\
             \x20 expand_round +368us 40168us tables=14\n\
             \x20 expand_round +40554us 921us tables=1\n\
             \x20 rank         +41601us 23us candidates=36"
        );
        let hit = Trace {
            id: 3,
            generation: 9,
            key: QueryKey::new(0, 1, vec![TermId(4)]),
            outcome: TraceOutcome::Ok,
            cached: true,
            slow: false,
            total_us: 12,
            stats: SearchStats::default(),
            spans: Some(vec![span(Stage::CacheProbe, 3, 4, 1)]),
        };
        assert_eq!(
            render(hit),
            "trace 0000000000000003 user=0 k=1 terms=[4] gen=9 outcome=ok cached=yes slow=no \
             sampled=yes total_us=12 rounds=0 tables=0 candidates=0 pruned=0 reps=0\n\
             \x20 cache_probe  +3us 4us hit"
        );
    }

    /// The exact bytes of a `TRACE` dump: the capture header, both section
    /// headers and an unsampled slow query's counters-only summary.
    #[test]
    fn dump_bytes_are_pinned() {
        let c = TraceCollector::new(0, Duration::from_millis(2), 8);
        let m = Metrics::default();
        c.finish(
            c.begin(4, Instant::now()),
            &key(),
            TraceOutcome::Timeout,
            Some(stats()),
            Duration::from_micros(2500),
            &m,
        );
        assert_eq!(
            c.dump(8),
            "captured sampled=0 slow=1 sample_every=0 slow_threshold_ms=2\n\
             [slow] showing 1 of 1\n\
             trace 0000000000000001 user=7 k=5 terms=[0,2] gen=4 outcome=timeout cached=no slow=yes \
             sampled=no total_us=2500 rounds=2 tables=9 candidates=3 pruned=1 reps=12\n\
             [sampled] showing 0 of 0"
        );
    }

    #[test]
    fn slow_and_sampled_appears_in_both_sections_under_one_id() {
        let c = TraceCollector::new(1, Duration::ZERO, 8);
        let m = Metrics::default();
        let ctx = c.begin(1, Instant::now());
        c.finish(
            ctx,
            &key(),
            TraceOutcome::Ok,
            None,
            Duration::from_micros(5),
            &m,
        );
        let dump = c.dump(8);
        assert!(dump.contains("[slow] showing 1 of 1"), "{dump}");
        assert!(dump.contains("[sampled] showing 1 of 1"), "{dump}");
        assert_eq!(dump.matches("trace 0000000000000001 ").count(), 2, "{dump}");
    }

    #[test]
    fn ring_keeps_the_newest_captures_newest_first() {
        let c = TraceCollector::new(1, Duration::from_secs(1), 4);
        let m = Metrics::default();
        for _ in 0..10 {
            c.finish(
                c.begin(1, Instant::now()),
                &key(),
                TraceOutcome::Ok,
                None,
                Duration::ZERO,
                &m,
            );
        }
        let ids = |n| -> Vec<u64> {
            c.dump(n)
                .lines()
                .filter_map(|l| l.strip_prefix("trace "))
                .map(|l| u64::from_str_radix(&l[..16], 16).unwrap())
                .collect()
        };
        assert!(c.dump(8).contains("[sampled] showing 4 of 10"));
        assert_eq!(ids(8), vec![10, 9, 8, 7], "only the last capacity survive");
        assert_eq!(ids(2), vec![10, 9]);
    }

    #[test]
    fn zero_capacity_ring_holds_one() {
        let ring = Ring::new(0);
        let mut out = String::new();
        ring.dump_into("r", 5, &mut out);
        assert_eq!(out, "\n[r] showing 0 of 0");
        let c = TraceCollector::new(1, Duration::ZERO, 0);
        c.finish(
            c.begin(1, Instant::now()),
            &key(),
            TraceOutcome::Ok,
            None,
            Duration::ZERO,
            &Metrics::default(),
        );
        assert!(c.dump(5).contains("[sampled] showing 1 of 1"));
    }

    #[test]
    fn concurrent_captures_lose_no_claims() {
        let c = std::sync::Arc::new(TraceCollector::new(1, Duration::from_secs(1), 64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let m = Metrics::default();
                    for _ in 0..100 {
                        c.finish(
                            c.begin(1, Instant::now()),
                            &key(),
                            TraceOutcome::Ok,
                            None,
                            Duration::ZERO,
                            &m,
                        );
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        assert!(c.dump(64).contains("[sampled] showing 64 of 800"));
    }
}
