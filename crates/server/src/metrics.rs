//! Serving metrics: lock-free counters and fixed-bucket latency histograms.
//!
//! Everything here is written on the hot path, so all state is atomic —
//! `STATS` readers see a consistent-enough snapshot without stopping the
//! world. The histogram buckets are fixed at construction (powers of two in
//! microseconds), giving p50/p99 estimates with bounded error and zero
//! allocation per observation.
//!
//! Service latency is reported three ways so operators can tell admission
//! pressure from slow queries: `queue_wait` (admission → dequeue),
//! `execution` (dequeue → answer), and `latency` (their end-to-end sum).

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bucket count. Bucket 0 holds 0µs exactly; bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i)` µs, so the largest bounded bucket tops out at
/// `2^23` µs ≈ 8.4s and every estimate is within 2× of the true value.
const BUCKETS: usize = 24;

/// Map an observation to its bucket: 0µs → bucket 0, otherwise
/// `floor(log2(µs)) + 1`, saturating into the last (catch-all) bucket.
fn bucket_index(micros: u64) -> usize {
    (64 - micros.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Latency histogram with power-of-two microsecond buckets.
///
/// Despite the name the value axis is unit-agnostic: the serving stack also
/// uses it for per-query work counts (EXPAND rounds, probed tables) via
/// [`LatencyHistogram::observe_value`], with the same bucket layout.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    /// Total of all observed values, for Prometheus `_sum`.
    sum: AtomicU64,
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        self.observe_value(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one raw value (µs for latency histograms, a count for work
    /// histograms).
    pub fn observe_value(&self, value: u64) {
        // Bucket i covers [2^(i-1), 2^i); the value 0 lands in bucket 0.
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total of all observed values (the Prometheus `_sum` series).
    pub fn sum_value(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket observation counts. Bucket 0 holds 0µs exactly; bucket
    /// `i ≥ 1` covers `[2^(i-1), 2^i)` µs, the last bucket catching all.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The exclusive upper bound (µs) of the bucket containing quantile
    /// `q` ∈ [0, 1] — `2^i` for bucket `i` — or 0 when empty. Within 2× of
    /// the true quantile by construction.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in snapshot.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// All counters the `STATS` command reports.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries answered successfully (fresh or cached).
    pub queries: AtomicU64,
    /// Queries rejected because the request queue was full.
    pub shed: AtomicU64,
    /// Queries that exceeded their time budget (`ERR timeout`).
    pub timeouts: AtomicU64,
    /// Requests answered with a request-shaped `ERR` (malformed input).
    pub errors: AtomicU64,
    /// Queries that died to a server-side fault (`ERR internal`): a
    /// panicking job or a vanished worker. Disjoint from `timeouts`.
    pub internal_errors: AtomicU64,
    /// Worker panics caught (or survived via respawn). Each one is an index
    /// bug surfacing; `internal_errors` counts the client-visible fallout.
    pub panics: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Engine swaps completed (`RELOAD` or `UPDATE` verbs); each one bumps
    /// the serving generation.
    pub reloads: AtomicU64,
    /// `RELOAD`/`UPDATE` attempts that failed (`ERR reload-failed`) and left
    /// the prior generation serving.
    pub reload_failures: AtomicU64,
    /// End-to-end service latency (queue wait + execution) of successful
    /// queries.
    pub latency: LatencyHistogram,
    /// Time jobs spent queued before a worker picked them up — rises under
    /// admission pressure even when execution stays fast.
    pub queue_wait: LatencyHistogram,
    /// Pure execution time of successfully completed searches.
    pub execution: LatencyHistogram,
    /// Wall time of successful engine swaps (load/apply through the
    /// generation bump) on the updater thread.
    pub reload_latency: LatencyHistogram,
    /// Queries whose total service time exceeded the slow-query threshold
    /// (captured in the slow-query log regardless of sampling).
    pub slow_queries: AtomicU64,
    /// Queries captured with full spans by the trace sampler.
    pub traces_sampled: AtomicU64,
    /// EXPAND rounds per executed (non-cached) query — the work counter the
    /// paper's pruning argument lives on. Value histogram, not µs.
    pub expand_rounds: LatencyHistogram,
    /// Propagation tables probed per executed query. Value histogram.
    pub probed_tables: LatencyHistogram,
    /// Result-cache probe time (µs) of traced queries.
    pub cache_probe: LatencyHistogram,
    /// Representative gather + `Γ(v)` probe time (µs) of traced queries.
    pub gather: LatencyHistogram,
    /// Final ranking time (µs) of traced queries.
    pub rank: LatencyHistogram,
    /// Shards never probed because the cross-shard upper bound proved them
    /// irrelevant (§5.2 pruning generalized over the fan-out). Always 0 on
    /// a single-node server.
    pub shards_pruned: AtomicU64,
    /// Queries answered with an honest `partial=` tag because one or more
    /// shards failed or timed out mid-fan-out. Partial answers are never
    /// cached.
    pub partial_replies: AtomicU64,
    /// Cold queries that joined an already-in-flight identical execution
    /// instead of running their own search (single-flight coalescing).
    /// Leaders are not counted here; see `inflight_executions`.
    pub coalesced_queries: AtomicU64,
    /// Cold-query executions actually started (flight leaders, plus every
    /// uncoalesced miss). `queries - cache_hits - inflight_executions` is
    /// the work the cache *and* coalescing together saved.
    pub inflight_executions: AtomicU64,
    /// Accept-loop failures that cost a connection: fd exhaustion or any
    /// other non-retryable `accept(2)` error. The client saw a refused or
    /// dropped connection, not an `ERR`.
    pub accept_errors: AtomicU64,
    /// Warmup queries replayed by the updater thread after a full reload
    /// (the post-swap cold-cliff shrinker), over the server's lifetime.
    pub warmup_queries: AtomicU64,
    /// Warmup runs that ran out of `--warmup-budget-ms` before finishing
    /// their key list.
    pub warmup_budget_exhausted: AtomicU64,
    /// Gauge: keys the most recent warmup run set out to replay.
    pub warmup_target: AtomicU64,
    /// Gauge: keys the most recent warmup run actually repopulated.
    pub warmup_warmed: AtomicU64,
    /// Gauge: client connections currently registered with the I/O threads.
    /// Incremented at accept, decremented when the event loop drops the
    /// socket (close, idle cut, error, drain).
    pub open_connections: AtomicU64,
    /// Gauge: jobs currently admitted to the worker queue (queued or
    /// executing). Separates CPU backlog from connection count in STATS.
    pub queued_jobs: AtomicU64,
    /// Per-shard time spent waiting on `EXPAND` round-trips, one histogram
    /// per shard index, grown on first observation. A leaf lock (anonymous:
    /// never held together with another lock); the histograms are `Arc`ed
    /// out so observation happens outside the lock.
    shard_fanout: RwLock<Vec<Arc<LatencyHistogram>>>,
}

impl Metrics {
    /// A fresh metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increment `counter` by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment `counter` by `n` (scatter-gather counters arrive batched
    /// per query).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrement a gauge by one. Callers pair every `dec` with an earlier
    /// `bump` on the same gauge, so the value never wraps.
    pub fn dec(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrite a gauge (last-run style gauges like the warmup coverage).
    pub fn set(gauge: &AtomicU64, value: u64) {
        gauge.store(value, Ordering::Relaxed);
    }

    /// Fraction of the most recent warmup run's target keys that were
    /// actually repopulated, in `[0, 1]`; 0 when no warmup ran yet.
    pub fn warmup_coverage(&self) -> f64 {
        let target = self.warmup_target.load(Ordering::Relaxed);
        if target == 0 {
            return 0.0;
        }
        self.warmup_warmed.load(Ordering::Relaxed) as f64 / target as f64
    }

    /// Read a counter or gauge.
    pub fn value(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Record one fan-out wait for `shard`, growing the per-shard histogram
    /// vector on first sight of a new index.
    pub fn observe_shard_fanout(&self, shard: u32, micros: u64) {
        let shard = shard as usize;
        let hist = {
            let read = self.shard_fanout.read();
            read.get(shard).cloned()
        };
        let hist = match hist {
            Some(h) => h,
            None => {
                let mut write = self.shard_fanout.write();
                while write.len() <= shard {
                    write.push(Arc::new(LatencyHistogram::new()));
                }
                Arc::clone(&write[shard])
            }
        };
        hist.observe_value(micros);
    }

    /// Snapshot the per-shard fan-out histograms as
    /// `(shard label, bucket counts, sum)` for labeled rendering.
    pub fn shard_fanout_series(&self) -> Vec<(String, Vec<u64>, u64)> {
        self.shard_fanout
            .read()
            .iter()
            .enumerate()
            .map(|(i, h)| (i.to_string(), h.bucket_counts(), h.sum_value()))
            .collect()
    }

    /// Render every counter as `(name, value)` pairs for the `STATS` reply.
    /// Cache statistics are appended by the caller, which owns the cache.
    pub fn snapshot(&self) -> Vec<(String, String)> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("queries".into(), load(&self.queries).to_string()),
            ("shed".into(), load(&self.shed).to_string()),
            ("timeouts".into(), load(&self.timeouts).to_string()),
            ("errors".into(), load(&self.errors).to_string()),
            (
                "internal_errors".into(),
                load(&self.internal_errors).to_string(),
            ),
            ("panics".into(), load(&self.panics).to_string()),
            ("connections".into(), load(&self.connections).to_string()),
            ("reloads".into(), load(&self.reloads).to_string()),
            (
                "reload_failures".into(),
                load(&self.reload_failures).to_string(),
            ),
            ("slow_queries".into(), load(&self.slow_queries).to_string()),
            (
                "traces_sampled".into(),
                load(&self.traces_sampled).to_string(),
            ),
            (
                "shards_pruned".into(),
                load(&self.shards_pruned).to_string(),
            ),
            (
                "partial_replies".into(),
                load(&self.partial_replies).to_string(),
            ),
            (
                "coalesced_queries".into(),
                load(&self.coalesced_queries).to_string(),
            ),
            (
                "inflight_executions".into(),
                load(&self.inflight_executions).to_string(),
            ),
            (
                "accept_errors".into(),
                load(&self.accept_errors).to_string(),
            ),
            (
                "latency_p50_us".into(),
                self.latency.quantile_micros(0.50).to_string(),
            ),
            (
                "latency_p99_us".into(),
                self.latency.quantile_micros(0.99).to_string(),
            ),
            (
                "queue_p50_us".into(),
                self.queue_wait.quantile_micros(0.50).to_string(),
            ),
            (
                "queue_p99_us".into(),
                self.queue_wait.quantile_micros(0.99).to_string(),
            ),
            (
                "exec_p50_us".into(),
                self.execution.quantile_micros(0.50).to_string(),
            ),
            (
                "exec_p99_us".into(),
                self.execution.quantile_micros(0.99).to_string(),
            ),
            (
                "reload_p50_us".into(),
                self.reload_latency.quantile_micros(0.50).to_string(),
            ),
            (
                "reload_p99_us".into(),
                self.reload_latency.quantile_micros(0.99).to_string(),
            ),
            (
                "warmup_queries".into(),
                load(&self.warmup_queries).to_string(),
            ),
            (
                "warmup_coverage".into(),
                format!("{:.4}", self.warmup_coverage()),
            ),
            (
                "warmup_budget_exhausted".into(),
                load(&self.warmup_budget_exhausted).to_string(),
            ),
        ]
    }

    /// Append every counter and histogram to a Prometheus text exposition.
    /// Metric names are a stable registry — dashboards depend on them and a
    /// golden test pins the full set; never rename, only add.
    pub fn render_prometheus(&self, out: &mut String) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let hist = |out: &mut String, name: &str, help: &str, h: &LatencyHistogram| {
            pit_obs::prom::histogram(out, name, help, &h.bucket_counts(), h.sum_value());
        };
        pit_obs::prom::counter(
            out,
            "pit_queries_total",
            "Queries answered successfully (fresh or cached).",
            load(&self.queries),
        );
        pit_obs::prom::counter(
            out,
            "pit_shed_total",
            "Queries rejected because the request queue was full.",
            load(&self.shed),
        );
        pit_obs::prom::counter(
            out,
            "pit_timeouts_total",
            "Queries that exceeded their time budget.",
            load(&self.timeouts),
        );
        pit_obs::prom::counter(
            out,
            "pit_errors_total",
            "Requests answered with a malformed-input ERR.",
            load(&self.errors),
        );
        pit_obs::prom::counter(
            out,
            "pit_internal_errors_total",
            "Queries lost to a server-side fault.",
            load(&self.internal_errors),
        );
        pit_obs::prom::counter(
            out,
            "pit_panics_total",
            "Worker panics caught or survived via respawn.",
            load(&self.panics),
        );
        pit_obs::prom::counter(
            out,
            "pit_connections_total",
            "Connections accepted over the server's lifetime.",
            load(&self.connections),
        );
        pit_obs::prom::counter(
            out,
            "pit_reloads_total",
            "Engine swaps completed (RELOAD or UPDATE).",
            load(&self.reloads),
        );
        pit_obs::prom::counter(
            out,
            "pit_reload_failures_total",
            "RELOAD/UPDATE attempts that failed.",
            load(&self.reload_failures),
        );
        pit_obs::prom::counter(
            out,
            "pit_slow_queries_total",
            "Queries over the slow-query threshold.",
            load(&self.slow_queries),
        );
        pit_obs::prom::counter(
            out,
            "pit_traces_sampled_total",
            "Queries captured with full spans by the trace sampler.",
            load(&self.traces_sampled),
        );
        pit_obs::prom::counter(
            out,
            "pit_shards_pruned_total",
            "Shards never probed because the cross-shard bound proved them irrelevant.",
            load(&self.shards_pruned),
        );
        pit_obs::prom::counter(
            out,
            "pit_partial_replies_total",
            "Queries answered partial because a shard failed or timed out.",
            load(&self.partial_replies),
        );
        pit_obs::prom::counter(
            out,
            "pit_coalesced_queries_total",
            "Cold queries that joined an in-flight identical execution.",
            load(&self.coalesced_queries),
        );
        pit_obs::prom::counter(
            out,
            "pit_inflight_executions_total",
            "Cold-query executions started (flight leaders + uncoalesced misses).",
            load(&self.inflight_executions),
        );
        pit_obs::prom::counter(
            out,
            "pit_accept_errors_total",
            "Accept-loop failures that cost a connection (e.g. fd exhaustion).",
            load(&self.accept_errors),
        );
        pit_obs::prom::counter(
            out,
            "pit_warmup_queries_total",
            "Warmup queries replayed by the updater thread after full reloads.",
            load(&self.warmup_queries),
        );
        pit_obs::prom::counter(
            out,
            "pit_warmup_budget_exhausted_total",
            "Warmup runs that ran out of budget before finishing their key list.",
            load(&self.warmup_budget_exhausted),
        );
        hist(
            out,
            "pit_latency_us",
            "End-to-end service latency (µs) of successful queries.",
            &self.latency,
        );
        hist(
            out,
            "pit_queue_wait_us",
            "Time (µs) jobs spent queued before a worker picked them up.",
            &self.queue_wait,
        );
        hist(
            out,
            "pit_execution_us",
            "Pure execution time (µs) of completed searches.",
            &self.execution,
        );
        hist(
            out,
            "pit_reload_us",
            "Wall time (µs) of successful engine swaps.",
            &self.reload_latency,
        );
        hist(
            out,
            "pit_expand_rounds",
            "EXPAND rounds per executed query.",
            &self.expand_rounds,
        );
        hist(
            out,
            "pit_probed_tables",
            "Propagation tables probed per executed query.",
            &self.probed_tables,
        );
        hist(
            out,
            "pit_cache_probe_us",
            "Result-cache probe time (µs) of traced queries.",
            &self.cache_probe,
        );
        hist(
            out,
            "pit_gather_us",
            "Representative gather time (µs) of traced queries.",
            &self.gather,
        );
        hist(
            out,
            "pit_rank_us",
            "Final ranking time (µs) of traced queries.",
            &self.rank,
        );
        pit_obs::prom::histogram_labeled(
            out,
            "pit_shard_fanout_us",
            "Per-shard EXPAND round-trip wait (µs), labeled by shard index.",
            "shard",
            &self.shard_fanout_series(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_pinned() {
        // Bucket 0 holds only 0µs; bucket i ≥ 1 covers [2^(i-1), 2^i) µs.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Beyond the bounded range everything saturates into the catch-all.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_reports_the_bucket_upper_bound() {
        // A single observation's quantile is its bucket's exclusive upper
        // bound 2^i — never below the observed value.
        for (us, upper) in [(1u64, 2u64), (2, 4), (1024, 2048)] {
            let h = LatencyHistogram::new();
            h.observe(Duration::from_micros(us));
            assert_eq!(h.quantile_micros(1.0), upper, "{us}µs");
        }
        let h = LatencyHistogram::new();
        h.observe(Duration::ZERO);
        assert_eq!(h.quantile_micros(1.0), 1, "0µs sits in bucket 0, bound 1");
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.observe(Duration::from_micros(10));
        }
        h.observe(Duration::from_millis(100));
        assert_eq!(h.count(), 100);
        // p50 within 2× of 10µs.
        let p50 = h.quantile_micros(0.50);
        assert!((8..=16).contains(&p50), "p50 = {p50}");
        // p99 dominated by the 100ms outlier? 99th of 100 obs is the 99th
        // rank = still 10µs; p100 would be the outlier.
        let p100 = h.quantile_micros(1.0);
        assert!(p100 >= 65_536, "p100 = {p100}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_value(), 0);
    }

    #[test]
    fn sum_tracks_observed_values() {
        let h = LatencyHistogram::new();
        h.observe_value(3);
        h.observe_value(0);
        h.observe(Duration::from_micros(1024));
        assert_eq!(h.sum_value(), 1027);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn prometheus_rendering_covers_every_counter() {
        let m = Metrics::new();
        Metrics::bump(&m.queries);
        m.expand_rounds.observe_value(2);
        let mut out = String::new();
        m.render_prometheus(&mut out);
        // One # TYPE line per metric; histograms carry sum/count/+Inf.
        assert!(out.contains("# TYPE pit_queries_total counter\n"));
        assert!(out.contains("pit_queries_total 1\n"));
        assert!(out.contains("# TYPE pit_expand_rounds histogram\n"));
        assert!(out.contains("pit_expand_rounds_sum 2\n"));
        assert!(out.contains("pit_expand_rounds_count 1\n"));
        assert!(out.contains("pit_expand_rounds_bucket{le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn shard_fanout_grows_per_shard_series() {
        let m = Metrics::new();
        assert!(m.shard_fanout_series().is_empty(), "no shards observed yet");
        m.observe_shard_fanout(2, 100);
        m.observe_shard_fanout(0, 5);
        m.observe_shard_fanout(2, 200);
        let series = m.shard_fanout_series();
        assert_eq!(series.len(), 3, "grown to cover shard 2");
        assert_eq!(series[0].0, "0");
        assert_eq!(series[0].2, 5);
        assert_eq!(series[1].2, 0, "shard 1 never observed");
        assert_eq!(series[2].2, 300);
        let mut out = String::new();
        m.render_prometheus(&mut out);
        assert!(
            out.contains("pit_shard_fanout_us_sum{shard=\"2\"} 300\n"),
            "{out}"
        );
    }
}
