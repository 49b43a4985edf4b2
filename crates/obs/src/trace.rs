//! Per-query span traces: stage vocabulary, live recording, and the
//! finished trace record.
//!
//! A query's trace is built in two halves. While the query runs, a
//! [`SpanRecorder`] (owned by the server layer, which is the only place
//! allowed to read the clock) turns `begin`/`end` callbacks into [`Span`]s
//! with microsecond offsets from the recorder's epoch. When the query
//! finishes, the collector folds the spans together with the query's
//! identity and work counters into an immutable [`Trace`], which is what
//! the ring buffer stores and the `TRACE` verb renders.

use crate::Counter;
use std::time::{Duration, Instant};

/// Process-wide monotonically increasing trace id.
///
/// Ids are allocated lazily — only for queries that are sampled or land in
/// the slow-query log — so the unsampled fast path never touches this
/// counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

static NEXT_TRACE_ID: Counter = Counter::new(1);

impl TraceId {
    /// Allocate the next id.
    pub fn next() -> TraceId {
        TraceId(NEXT_TRACE_ID.add(1))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The stages a served query passes through, in lifecycle order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
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
    /// Stable lowercase name used in trace renderings and tests.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CacheProbe => "cache_probe",
            Stage::Gather => "gather",
            Stage::ExpandRound => "expand_round",
            Stage::Rank => "rank",
        }
    }
}

/// One timed stage of one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which stage this span timed.
    pub stage: Stage,
    /// Offset of the stage start from the query's admission, in µs.
    pub start_us: u64,
    /// Stage duration in µs.
    pub dur_us: u64,
    /// Stage-specific payload: cache hit (1/0) for
    /// [`Stage::CacheProbe`], representative entries loaded for
    /// [`Stage::Gather`], tables probed this round for
    /// [`Stage::ExpandRound`], candidate topics for [`Stage::Rank`].
    pub detail: u64,
}

impl Span {
    fn render_into(&self, out: &mut String) {
        out.push_str(&format!(
            "  {:<12} +{}us {}us",
            self.stage.name(),
            self.start_us,
            self.dur_us
        ));
        match self.stage {
            Stage::QueueWait => {}
            Stage::CacheProbe => {
                out.push_str(if self.detail == 1 { " hit" } else { " miss" });
            }
            Stage::Gather => out.push_str(&format!(" reps={}", self.detail)),
            Stage::ExpandRound => out.push_str(&format!(" tables={}", self.detail)),
            Stage::Rank => out.push_str(&format!(" candidates={}", self.detail)),
        }
    }
}

/// Live span recording for one in-flight query.
///
/// The recorder owns the clock: stage callbacks coming out of the
/// (clock-free) searcher are timestamped here, against the epoch captured
/// at admission. Stages never nest, so an unmatched `begin` is simply
/// superseded by the next one and an unmatched `end` is dropped — a
/// cancelled query yields a truncated but well-formed trace.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<(Stage, Instant)>,
}

impl SpanRecorder {
    /// Start recording with `epoch` as time zero (the query's admission
    /// instant).
    pub fn starting_at(epoch: Instant) -> Self {
        SpanRecorder {
            epoch,
            spans: Vec::new(),
            open: None,
        }
    }

    fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64
    }

    /// Open a stage now.
    pub fn begin(&mut self, stage: Stage) {
        self.open = Some((stage, Instant::now()));
    }

    /// Close the currently open stage if it matches, recording its span.
    pub fn end(&mut self, stage: Stage, detail: u64) {
        if let Some((open_stage, started)) = self.open.take() {
            if open_stage == stage {
                let now = Instant::now();
                self.spans.push(Span {
                    stage,
                    start_us: self.offset_us(started),
                    dur_us: now
                        .saturating_duration_since(started)
                        .as_micros()
                        .min(u64::MAX as u128) as u64,
                    detail,
                });
            } else {
                self.open = Some((open_stage, started));
            }
        }
    }

    /// Record a stage that was measured elsewhere and ended now (e.g. queue
    /// wait, which only the dequeuing worker can measure).
    pub fn event(&mut self, stage: Stage, dur: Duration, detail: u64) {
        let end = self.offset_us(Instant::now());
        let dur_us = dur.as_micros().min(u64::MAX as u128) as u64;
        self.spans.push(Span {
            stage,
            start_us: end.saturating_sub(dur_us),
            dur_us,
            detail,
        });
    }

    /// Finish recording and hand back the spans, in the order they closed.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One finished query trace, as stored in the ring and rendered by `TRACE`.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Unique id, hex-rendered.
    pub id: TraceId,
    /// Engine generation the query ran against.
    pub generation: u64,
    /// Querying user's node id.
    pub user: u32,
    /// Requested result size.
    pub k: usize,
    /// Normalized query term ids (sorted, deduped — the cache-key view).
    pub terms: Vec<u32>,
    /// How the query ended: `ok`, `timeout`, `overloaded`, `malformed`,
    /// `internal`, or `shutting-down`.
    pub outcome: &'static str,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Whether total service time exceeded the slow-query threshold.
    pub slow: bool,
    /// True for sampled captures (full spans); false for slow-query
    /// summaries captured outside the sample (counters only, no spans).
    pub sampled: bool,
    /// End-to-end service time in µs.
    pub total_us: u64,
    /// EXPAND rounds executed.
    pub expand_rounds: u64,
    /// Propagation tables probed.
    pub probed_tables: u64,
    /// Query-related topics considered.
    pub candidate_topics: u64,
    /// Topics eliminated by the upper-bound rule.
    pub pruned_topics: u64,
    /// Representative entries loaded at query start.
    pub loaded_reps: u64,
    /// Timed stages, when sampled.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Render as structured text: one header line, one indented line per
    /// span. The `key=value` header tokens are stable — tests and operators
    /// grep them.
    pub fn render(&self) -> String {
        let terms = self
            .terms
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut out = format!(
            "trace {} user={} k={} terms=[{terms}] gen={} outcome={} cached={} slow={} \
             sampled={} total_us={} rounds={} tables={} candidates={} pruned={} reps={}",
            self.id,
            self.user,
            self.k,
            self.generation,
            self.outcome,
            yn(self.cached),
            yn(self.slow),
            yn(self.sampled),
            self.total_us,
            self.expand_rounds,
            self.probed_tables,
            self.candidate_topics,
            self.pruned_topics,
            self.loaded_reps,
        );
        for span in &self.spans {
            out.push('\n');
            span.render_into(&mut out);
        }
        out
    }
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert!(b.0 > a.0);
        assert_eq!(format!("{}", TraceId(0x2a)), "000000000000002a");
    }

    #[test]
    fn recorder_matches_begin_end_pairs() {
        let mut rec = SpanRecorder::starting_at(Instant::now());
        rec.begin(Stage::Gather);
        rec.end(Stage::Gather, 12);
        rec.begin(Stage::ExpandRound);
        rec.end(Stage::ExpandRound, 3);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Gather);
        assert_eq!(spans[0].detail, 12);
        assert_eq!(spans[1].stage, Stage::ExpandRound);
        assert_eq!(spans[1].detail, 3);
        assert!(spans[1].start_us >= spans[0].start_us);
    }

    #[test]
    fn unmatched_end_is_dropped_and_mismatched_open_survives() {
        let mut rec = SpanRecorder::starting_at(Instant::now());
        rec.end(Stage::Rank, 1); // nothing open: dropped
        rec.begin(Stage::Gather);
        rec.end(Stage::Rank, 1); // wrong stage: Gather stays open
        rec.end(Stage::Gather, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Gather);
        assert_eq!(spans[0].detail, 7);
    }

    #[test]
    fn event_backdates_its_start() {
        let epoch = Instant::now();
        let mut rec = SpanRecorder::starting_at(epoch);
        rec.event(Stage::QueueWait, Duration::from_micros(500), 0);
        let spans = rec.into_spans();
        assert_eq!(spans[0].stage, Stage::QueueWait);
        assert_eq!(spans[0].dur_us, 500);
    }

    #[test]
    fn render_carries_grep_stable_tokens() {
        let t = Trace {
            id: TraceId(1),
            generation: 2,
            user: 7,
            k: 5,
            terms: vec![0, 3],
            outcome: "ok",
            cached: false,
            slow: true,
            sampled: true,
            total_us: 1234,
            expand_rounds: 2,
            probed_tables: 9,
            candidate_topics: 4,
            pruned_topics: 1,
            loaded_reps: 12,
            spans: vec![
                Span {
                    stage: Stage::CacheProbe,
                    start_us: 1,
                    dur_us: 2,
                    detail: 0,
                },
                Span {
                    stage: Stage::ExpandRound,
                    start_us: 10,
                    dur_us: 100,
                    detail: 9,
                },
            ],
        };
        let text = t.render();
        for token in [
            "user=7",
            "k=5",
            "terms=[0,3]",
            "gen=2",
            "outcome=ok",
            "slow=yes",
            "total_us=1234",
            "rounds=2",
            "tables=9",
            "cache_probe",
            "miss",
            "expand_round",
            "tables=9",
        ] {
            assert!(text.contains(token), "missing {token} in:\n{text}");
        }
    }
}
