//! Serving metrics: one registry declaring every signal the daemon exposes.
//!
//! Each counter, gauge and histogram is one row of `signals!`: its field
//! (or the expression that computes it), kind, `STATS` key, Prometheus
//! series and help text. `STATS` and `METRICS` are each one loop over the
//! rows, run only when a reply is rendered; recording stays a direct field
//! access (`metrics.queries.inc()`), lock-free and allocation-free. The
//! histograms are fixed power-of-two microsecond buckets, giving p50/p99
//! estimates with bounded error.
//!
//! Service latency is reported three ways so operators can tell admission
//! pressure from slow queries: `queue_wait` (admission → dequeue),
//! `execution` (dequeue → answer), and `latency` (their end-to-end sum).

use crate::cache::StaleReason;
use crate::state::ServerConfig;
use parking_lot::RwLock;
use pit_obs::{prom, Counter};
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

/// The exclusive upper bound of the bucket containing quantile `q` ∈ [0, 1]
/// of `buckets` — `2^i` for bucket `i` — or 0 when empty. Within 2× of the
/// true quantile by construction.
fn quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return 1u64 << i;
        }
    }
    1u64 << (BUCKETS - 1)
}

/// Latency histogram with power-of-two microsecond buckets.
///
/// Despite the name the value axis is unit-agnostic: the serving stack also
/// uses it for per-query work counts (EXPAND rounds, probed tables) via
/// [`LatencyHistogram::observe_value`], with the same bucket layout.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [Counter; BUCKETS],
    /// Total of all observed values, for Prometheus `_sum`.
    sum: Counter,
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
        self.counts[bucket_index(value)].inc();
        self.sum.add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(Counter::get).sum()
    }

    /// Total of all observed values (the Prometheus `_sum` series).
    pub fn sum_value(&self) -> u64 {
        self.sum.get()
    }

    /// Per-bucket observation counts, in the layout of `BUCKETS`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.iter().map(Counter::get).collect()
    }

    /// The quantile-`q` estimate in µs; see `quantile`.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        quantile(&self.bucket_counts(), q)
    }
}

/// One histogram per shard index, grown on first observation. A leaf lock
/// (anonymous: never held together with another lock); the histograms are
/// `Arc`ed out so observation happens outside the lock.
type PerShard = RwLock<Vec<Arc<LatencyHistogram>>>;

impl Metrics {
    /// Record one fan-out wait for `shard`.
    pub fn observe_shard_fanout(&self, shard: u32, micros: u64) {
        let shard = shard as usize;
        let hist = self.shard_fanout.read().get(shard).cloned();
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
}

/// One signal's value at render time. The variant is the signal's kind: it
/// picks the `# TYPE` word and how each reply spells the value.
pub(crate) enum Reading {
    Counter(u64),
    Gauge(u64),
    /// A fraction, four decimals; has no Prometheus form (a dashboard
    /// divides the two counters itself).
    Ratio(f64),
    /// Text; has no Prometheus form.
    Text(&'static str),
    /// Bucket counts and sum. `STATS` reports the `<key>_p50_us` /
    /// `<key>_p99_us` pair.
    Histogram(Vec<u64>, u64),
    /// One counter per value of the named label. `STATS` reports
    /// `<key>_<value>`, `-` spelled `_`.
    CounterBy(&'static str, Vec<(&'static str, u64)>),
    /// One histogram per value of the named label; has no `STATS` form.
    HistogramBy(&'static str, Vec<(String, Vec<u64>, u64)>),
}

// The kinds a field-backed row can declare; `signals!(@ty …)` gives each
// its field type.

fn counter(c: &Counter) -> Reading {
    Reading::Counter(c.get())
}

fn gauge(c: &Counter) -> Reading {
    Reading::Gauge(c.get())
}

fn histogram(h: &LatencyHistogram) -> Reading {
    Reading::Histogram(h.bucket_counts(), h.sum_value())
}

/// Labeled by [`StaleReason`], in [`StaleReason::ALL`] order.
fn by_reason(counters: &[Counter; StaleReason::ALL.len()]) -> Reading {
    let series = StaleReason::ALL.iter().zip(counters);
    let series = series.map(|(reason, c)| (reason.as_str(), c.get()));
    Reading::CounterBy("reason", series.collect())
}

/// Labeled by shard index.
fn by_shard(per_shard: &PerShard) -> Reading {
    let per_shard = per_shard.read();
    let series = per_shard.iter().enumerate();
    let series = series.map(|(i, h)| (i.to_string(), h.bucket_counts(), h.sum_value()));
    Reading::HistogramBy("shard", series.collect())
}

/// `num / den`, or 0 before anything was counted.
fn ratio(num: u64, den: u64) -> Reading {
    let value = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    Reading::Ratio(value)
}

/// Everything a reply is rendered from, captured once per reply: the two
/// counter blocks and the configuration by reference, and the values
/// neither holds — the cache census (one lock acquisition, so `live +
/// stale` is the entry count the same reply reports) and the serving
/// engine's inventory.
pub(crate) struct View<'a> {
    pub metrics: &'a Metrics,
    pub cache: &'a CacheCounters,
    pub config: &'a ServerConfig,
    pub cache_live: u64,
    pub cache_stale: u64,
    pub generation: u64,
    pub graph_nodes: u64,
    pub topics: u64,
    pub index_bytes: u64,
    pub shards: u64,
    pub snapshot_format: &'static str,
    pub mapped_bytes: u64,
}

/// One declared signal, as the renderers see it.
struct Row {
    stats: Option<&'static str>,
    series: Option<&'static str>,
    help: &'static str,
    read: fn(&View<'_>) -> Reading,
    /// Write `n` into the signal's field, if it has one.
    #[cfg(test)]
    seed: fn(&Metrics, &CacheCounters, u64),
}

/// Declare every signal once. A row is
///
/// ```text
/// name <source>, [stats "key",] [series "pit_name",] "help";
/// ```
///
/// where `<source>` is `: kind` for a field of [`Metrics`], `in cache: kind`
/// for a field of [`CacheCounters`] (`kind` one of `counter | gauge |
/// histogram | by_reason | by_shard`), or `= |v| reading` for a value
/// computed from the [`View`]. The help text is the field's doc and the
/// series' `# HELP`. From the rows come both structs, [`Signal`] (a name
/// for each row, for [`METRICS_RUNS`]) and [`REGISTRY`].
macro_rules! signals {
    ($(
        $name:ident
        $(: $mkind:ident,)?
        $(in cache: $ckind:ident,)?
        $(= |$arg:ident| $compute:expr,)?
        $(stats $stats:literal,)?
        $(series $series:literal,)?
        $help:literal;
    )+) => {
        /// The serving counters, gauges and histograms: everything recorded
        /// outside the result cache.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[doc = $help] pub $name: signals!(@ty $mkind),)?)+
        }

        /// The result cache's counters; [`crate::QueryCache`] owns and
        /// writes them.
        #[derive(Debug, Default)]
        pub struct CacheCounters {
            $($(#[doc = $help] pub $name: signals!(@ty $ckind),)?)+
        }

        /// Every declared signal by name, in declaration order.
        #[allow(non_camel_case_types, dead_code)]
        #[derive(Clone, Copy)]
        enum Signal {
            $($name,)+
        }

        /// Every declared signal, indexed by [`Signal`].
        static REGISTRY: &[Row] = &[$(Row {
            stats: signals!(@opt $($stats)?),
            series: signals!(@opt $($series)?),
            help: $help,
            read: signals!(@read $name [$($mkind)?] [$($ckind)?] [$($arg $compute)?]),
            #[cfg(test)]
            seed: signals!(@seed $name [$($mkind)?] [$($ckind)?]),
        },)+];
    };
    (@ty counter) => { Counter };
    (@ty gauge) => { Counter };
    (@ty histogram) => { LatencyHistogram };
    (@ty by_reason) => { [Counter; StaleReason::ALL.len()] };
    (@ty by_shard) => { PerShard };
    (@opt) => { None };
    (@opt $text:literal) => { Some($text) };
    (@read $name:ident [$kind:ident] [] []) => { |v: &View<'_>| $kind(&v.metrics.$name) };
    (@read $name:ident [] [$kind:ident] []) => { |v: &View<'_>| $kind(&v.cache.$name) };
    (@read $name:ident [] [] [$arg:ident $compute:expr]) => { |$arg: &View<'_>| $compute };
    (@seed $name:ident [$kind:ident] []) => { |m, _, n| tests::Seed::seed(&m.$name, n) };
    (@seed $name:ident [] [$kind:ident]) => { |_, c, n| tests::Seed::seed(&c.$name, n) };
    (@seed $name:ident [] []) => { |_, _, _| () };
}

// Declaration order is `STATS` order; `METRICS` order is [`METRICS_RUNS`].
signals! {
    queries: counter, stats "queries", series "pit_queries_total",
        "Queries answered successfully (fresh or cached).";
    shed: counter, stats "shed", series "pit_shed_total",
        "Queries rejected because the request queue was full.";
    timeouts: counter, stats "timeouts", series "pit_timeouts_total",
        "Queries that exceeded their time budget.";
    errors: counter, stats "errors", series "pit_errors_total",
        "Requests answered with a malformed-input ERR.";
    internal_errors: counter, stats "internal_errors", series "pit_internal_errors_total",
        "Queries lost to a server-side fault.";
    panics: counter, stats "panics", series "pit_panics_total",
        "Worker panics caught or survived via respawn.";
    connections: counter, stats "connections", series "pit_connections_total",
        "Connections accepted over the server's lifetime.";
    reloads: counter, stats "reloads", series "pit_reloads_total",
        "Engine swaps completed (RELOAD or UPDATE).";
    reload_failures: counter, stats "reload_failures", series "pit_reload_failures_total",
        "RELOAD/UPDATE attempts that failed.";
    slow_queries: counter, stats "slow_queries", series "pit_slow_queries_total",
        "Queries over the slow-query threshold.";
    traces_sampled: counter, stats "traces_sampled", series "pit_traces_sampled_total",
        "Queries captured with full spans by the trace sampler.";
    shards_pruned: counter, stats "shards_pruned", series "pit_shards_pruned_total",
        "Shards never probed because the cross-shard bound proved them irrelevant.";
    partial_replies: counter, stats "partial_replies", series "pit_partial_replies_total",
        "Queries answered partial because a shard failed or timed out.";
    coalesced_queries: counter, stats "coalesced_queries", series "pit_coalesced_queries_total",
        "Cold queries that joined an in-flight identical execution.";
    inflight_executions: counter,
        stats "inflight_executions", series "pit_inflight_executions_total",
        "Cold-query executions started (flight leaders + uncoalesced misses).";
    accept_errors: counter, stats "accept_errors", series "pit_accept_errors_total",
        "Accept-loop failures that cost a connection (e.g. fd exhaustion).";

    latency: histogram, stats "latency", series "pit_latency_us",
        "End-to-end service latency (µs) of successful queries.";
    queue_wait: histogram, stats "queue", series "pit_queue_wait_us",
        "Time (µs) jobs spent queued before a worker picked them up.";
    execution: histogram, stats "exec", series "pit_execution_us",
        "Pure execution time (µs) of completed searches.";
    reload_latency: histogram, stats "reload", series "pit_reload_us",
        "Wall time (µs) of successful engine swaps.";
    expand_rounds: histogram, series "pit_expand_rounds",
        "EXPAND rounds per executed query.";
    probed_tables: histogram, series "pit_probed_tables",
        "Propagation tables probed per executed query.";
    cache_probe: histogram, series "pit_cache_probe_us",
        "Result-cache probe time (µs) of traced queries.";
    gather: histogram, series "pit_gather_us",
        "Representative gather time (µs) of traced queries.";
    rank: histogram, series "pit_rank_us",
        "Final ranking time (µs) of traced queries.";
    shard_fanout: by_shard, series "pit_shard_fanout_us",
        "Per-shard EXPAND round-trip wait (µs), labeled by shard index.";

    cache_entries = |v| Reading::Gauge(v.cache_live + v.cache_stale),
        stats "cache_entries", series "pit_cache_entries",
        "Result-cache entries resident";
    cache_capacity = |v| Reading::Gauge(v.config.cache_capacity as u64), stats "cache_capacity",
        "Result-cache capacity in entries (0 disables caching)";
    hits in cache: counter, stats "cache_hits", series "pit_cache_hits_total",
        "Result-cache hits";
    misses in cache: counter, stats "cache_misses", series "pit_cache_misses_total",
        "Result-cache misses";
    evictions in cache: counter, stats "cache_evictions", series "pit_cache_evictions_total",
        "Result-cache LRU evictions (capacity pressure)";
    stale_evictions in cache: counter,
        stats "cache_stale_evictions", series "pit_cache_stale_evictions_total",
        "Result-cache entries lazily evicted after a generation swap";
    cache_hit_rate = |v| ratio(v.cache.hits.get(), v.cache.hits.get() + v.cache.misses.get()),
        stats "cache_hit_rate",
        "Fraction of result-cache lookups that hit";
    cache_entries_live = |v| Reading::Gauge(v.cache_live),
        stats "cache_entries_live", series "pit_cache_entries_live",
        "Result-cache entries currently able to answer";
    cache_entries_stale = |v| Reading::Gauge(v.cache_stale),
        stats "cache_entries_stale", series "pit_cache_entries_stale",
        "Swap-killed result-cache entries awaiting lazy eviction";
    survivors in cache: counter, stats "cache_survivors", series "pit_cache_survivors_total",
        "Result-cache entries that outlived an UPDATE swap untouched";
    stale_by_reason in cache: by_reason,
        stats "cache_stale", series "pit_cache_stale_by_reason_total",
        "Result-cache entries marked stale by a swap, by reason";

    generation = |v| Reading::Gauge(v.generation), stats "generation", series "pit_generation",
        "Engine generation serving right now";
    workers = |v| Reading::Gauge(v.config.workers as u64), stats "workers", series "pit_workers",
        "Configured query worker threads";
    queue_depth = |v| Reading::Gauge(v.config.queue_depth as u64),
        stats "queue_depth", series "pit_queue_depth",
        "Configured request-queue capacity";
    io_threads = |v| Reading::Gauge(v.config.io_threads as u64),
        stats "io_threads", series "pit_io_threads",
        "Configured event-loop I/O threads";
    open_connections: gauge, stats "open_connections", series "pit_open_connections",
        "Client connections currently registered with the I/O threads";
    queued_jobs: gauge, stats "queued_jobs", series "pit_queued_jobs",
        "Jobs currently admitted to the worker queue (queued or executing)";
    graph_nodes = |v| Reading::Gauge(v.graph_nodes), stats "graph_nodes", series "pit_graph_nodes",
        "Social-graph nodes in the serving engine";
    topics = |v| Reading::Gauge(v.topics), stats "topics", series "pit_topics",
        "Topics in the serving engine";
    index_bytes = |v| Reading::Gauge(v.index_bytes), stats "index_bytes", series "pit_index_bytes",
        "Resident bytes of the three offline indexes";
    shards = |v| Reading::Gauge(v.shards), stats "shards", series "pit_shards",
        "Backing shards answering for this server (1 unless routing)";
    snapshot_format = |v| Reading::Text(v.snapshot_format), stats "snapshot_format",
        "Whether the index arrays are windows of the snapshot mapping (flat-mapped) or owned";
    reload_bytes_mapped = |v| Reading::Gauge(v.mapped_bytes), series "pit_reload_bytes_mapped",
        "Index bytes served zero-copy from the flat snapshot mapping";
}

/// `METRICS` order, as runs of the declaration order. The two replies grew
/// apart before either was pinned — `METRICS` lists plain counters, then
/// histograms, then the cache's counters, then gauges — and both orders
/// are wire contract now.
const METRICS_RUNS: &[(Signal, Signal)] = {
    use Signal::*;
    &[
        (queries, shard_fanout),
        (hits, stale_evictions),
        (survivors, generation),
        (cache_entries, cache_entries),
        (cache_entries_live, cache_entries_stale),
        (workers, shards),
        (reload_bytes_mapped, reload_bytes_mapped),
    ]
};

/// The `STATS` reply: every row that declares a key, in declaration order.
pub(crate) fn render_stats(view: &View<'_>) -> Vec<(String, String)> {
    let mut pairs = Vec::with_capacity(REGISTRY.len());
    for row in REGISTRY {
        let Some(key) = row.stats else { continue };
        match (row.read)(view) {
            Reading::Counter(v) | Reading::Gauge(v) => pairs.push((key.into(), v.to_string())),
            Reading::Ratio(v) => pairs.push((key.into(), format!("{v:.4}"))),
            Reading::Text(text) => pairs.push((key.into(), text.into())),
            Reading::Histogram(buckets, _) => {
                for (pct, q) in [(50, 0.50), (99, 0.99)] {
                    let bound = quantile(&buckets, q).to_string();
                    pairs.push((format!("{key}_p{pct}_us"), bound));
                }
            }
            Reading::CounterBy(_, series) => {
                for (value, n) in series {
                    pairs.push((format!("{key}_{}", value.replace('-', "_")), n.to_string()));
                }
            }
            Reading::HistogramBy(..) => {}
        }
    }
    pairs
}

/// The `METRICS` reply, as Prometheus text exposition: every row that
/// declares a series, in [`METRICS_RUNS`] order. Names are part of the wire
/// contract — a rename breaks downstream dashboards, so the whole body is
/// pinned by a golden test.
pub(crate) fn render_prometheus(view: &View<'_>) -> String {
    let mut out = String::with_capacity(8192);
    for &(first, last) in METRICS_RUNS {
        for row in &REGISTRY[first as usize..=last as usize] {
            let Some(name) = row.series else { continue };
            match (row.read)(view) {
                Reading::Counter(v) => prom::counter(&mut out, name, row.help, v),
                Reading::Gauge(v) => prom::gauge(&mut out, name, row.help, v),
                Reading::Histogram(buckets, sum) => {
                    prom::histogram(&mut out, name, row.help, &buckets, sum);
                }
                Reading::CounterBy(label, series) => {
                    prom::counter_labeled(&mut out, name, row.help, label, &series);
                }
                Reading::HistogramBy(label, series) => {
                    prom::histogram_labeled(&mut out, name, row.help, label, &series);
                }
                Reading::Ratio(_) | Reading::Text(_) => {}
            }
        }
    }
    out
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

    /// How a row's `seed` writes `n` into each (fresh, zeroed) field type.
    /// A histogram takes one observation of `2^(n mod 23)`, so its sum
    /// (`METRICS`) and its quantile bound (`STATS`, twice the sum) both tell
    /// it from the others.
    pub(super) trait Seed {
        fn seed(&self, n: u64);
    }

    impl Seed for Counter {
        fn seed(&self, n: u64) {
            self.add(n);
        }
    }

    impl Seed for LatencyHistogram {
        fn seed(&self, n: u64) {
            self.observe_value(1 << (n % 23));
        }
    }

    impl Seed for PerShard {
        fn seed(&self, n: u64) {
            let hist = LatencyHistogram::new();
            hist.observe_value(n);
            self.write().push(Arc::new(hist));
        }
    }

    impl<const N: usize> Seed for [Counter; N] {
        fn seed(&self, n: u64) {
            for (i, c) in self.iter().enumerate() {
                c.add(n * 10 + i as u64);
            }
        }
    }

    /// The registry-driven wiring check: every signal gets a value no other
    /// signal has, and each reply must report that value under the
    /// signal's own key and series — so a name wired to another signal's
    /// field, or the two replies reading different sources, fails here.
    #[test]
    fn every_signal_reports_its_own_value_in_both_replies() {
        let (metrics, cache) = (Metrics::default(), CacheCounters::default());
        for (i, row) in REGISTRY.iter().enumerate() {
            (row.seed)(&metrics, &cache, 1000 + i as u64);
        }
        // The values no field holds all sit below the smallest seed.
        let config = ServerConfig {
            cache_capacity: 13,
            workers: 15,
            queue_depth: 16,
            io_threads: 17,
            ..ServerConfig::default()
        };
        let view = View {
            metrics: &metrics,
            cache: &cache,
            config: &config,
            cache_live: 11,
            cache_stale: 12,
            generation: 14,
            graph_nodes: 18,
            topics: 19,
            index_bytes: 20,
            shards: 21,
            snapshot_format: "flat-mapped",
            mapped_bytes: 22,
        };
        let stats = render_stats(&view);
        let body = render_prometheus(&view);
        let stat = |key: String| -> String {
            let mut found = stats.iter().filter(|(k, _)| *k == key);
            let value = found.next().unwrap_or_else(|| panic!("no STATS key {key}"));
            assert!(found.next().is_none(), "STATS key {key} appears twice");
            value.1.clone()
        };
        let sample = |series: String| -> String {
            let mut found = body
                .lines()
                .filter_map(|l| l.strip_prefix(&format!("{series} ")));
            let value = found.next().unwrap_or_else(|| panic!("no sample {series}"));
            assert!(found.next().is_none(), "series {series} appears twice");
            value.to_string()
        };

        // Assert `want` under the row's key and series (with the kind's
        // suffixes), wherever the row is exposed.
        let mut wanted = Vec::new();
        let mut check = |row: &Row, key_suffix: &str, series_suffix: &str, want: String| {
            if let Some(key) = row.stats {
                assert_eq!(stat(format!("{key}{key_suffix}")), want, "STATS {key}");
            }
            if let Some(series) = row.series {
                assert_eq!(sample(format!("{series}{series_suffix}")), want, "{series}");
            }
            wanted.push(want);
        };
        for (i, row) in REGISTRY.iter().enumerate() {
            // What the row's field was seeded with, if it has one: the
            // expectation comes from the seeding rule, not from the reader.
            let n = 1000 + i as u64;
            match (row.read)(&view) {
                Reading::Counter(v) | Reading::Gauge(v) => {
                    assert!(v < 1000 || v == n, "row {i} reads {v}, was seeded {n}");
                    check(row, "", "", v.to_string());
                }
                Reading::Ratio(v) => check(row, "", "", format!("{v:.4}")),
                Reading::Text(text) => check(row, "", "", text.to_string()),
                Reading::Histogram(..) => {
                    let sum = 1u64 << (n % 23);
                    let series = row.series.expect("every histogram has a series");
                    assert_eq!(sample(format!("{series}_sum")), sum.to_string());
                    if let Some(key) = row.stats {
                        assert_eq!(stat(format!("{key}_p50_us")), (2 * sum).to_string());
                    }
                }
                Reading::CounterBy(label, series) => {
                    for (j, (value, _)) in series.iter().enumerate() {
                        let key_suffix = format!("_{}", value.replace('-', "_"));
                        let labels = format!("{{{label}=\"{value}\"}}");
                        check(row, &key_suffix, &labels, (n * 10 + j as u64).to_string());
                    }
                }
                Reading::HistogramBy(label, _) => {
                    check(row, "", &format!("_sum{{{label}=\"0\"}}"), n.to_string());
                }
            }
        }
        let distinct: std::collections::HashSet<&String> = wanted.iter().collect();
        assert_eq!(
            distinct.len(),
            wanted.len(),
            "two signals share a value: {wanted:?}"
        );
        // METRICS_RUNS reaches every declared series (`sample` has shown
        // none is rendered twice).
        let declared = REGISTRY.iter().filter(|r| r.series.is_some()).count();
        assert_eq!(prom::type_line_names(&body).len(), declared);
    }

    #[test]
    fn shard_fanout_grows_per_shard_series() {
        let m = Metrics::default();
        let series = || match by_shard(&m.shard_fanout) {
            Reading::HistogramBy("shard", series) => series,
            _ => panic!("the fan-out is a shard-labeled histogram"),
        };
        assert!(series().is_empty(), "no shards observed yet");
        m.observe_shard_fanout(2, 100);
        m.observe_shard_fanout(0, 5);
        m.observe_shard_fanout(2, 200);
        let series = series();
        assert_eq!(series.len(), 3, "grown to cover shard 2");
        assert_eq!(series[0].0, "0");
        assert_eq!(series[0].2, 5);
        assert_eq!(series[1].2, 0, "shard 1 never observed");
        assert_eq!(series[2].2, 300);
    }
}
