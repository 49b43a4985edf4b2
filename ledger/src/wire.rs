//! The client side of the wire: one framed TCP connection, and the
//! `STATS` / `METRICS` readers the traced run takes its counter deltas from.

use crate::loadgen::Exchange;
use pit_server::protocol::{read_frame, write_frame};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connection to a `pit serve` / `pit route` front door.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// # Errors
    /// The connect or socket-option failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // No healthy exchange comes near this; it turns a hung daemon into
        // a failed operation instead of a hung benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream })
    }
}

impl Exchange for Conn {
    fn send(&mut self, request: &str) -> io::Result<()> {
        write_frame(&mut self.stream, request)
    }

    fn recv(&mut self) -> io::Result<String> {
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed before replying")
        })
    }
}

/// Named numeric readings of one daemon at one instant.
pub type Counters = BTreeMap<String, f64>;

/// Parse a `STATS` reply: one `key value` pair per line after the head.
/// Non-numeric values (`snapshot_format flat-mapped`) are skipped.
pub fn parse_stats(reply: &str) -> Counters {
    reply
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (key, value) = line.split_once(' ')?;
            Some((key.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Parse a `METRICS` reply (Prometheus text exposition): every sample line
/// becomes `name` or `name{labels}` → value; `#` comment lines are skipped.
pub fn parse_metrics(reply: &str) -> Counters {
    reply
        .lines()
        .skip(1)
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// One reading; 0 when the daemon does not export it.
pub fn reading(counters: &Counters, key: &str) -> f64 {
    counters.get(key).copied().unwrap_or(0.0)
}

/// `after − before` for every reading present in both.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .filter_map(|(k, a)| before.get(k).map(|b| (k.clone(), a - b)))
        .collect()
}

/// Mean of a Prometheus histogram over an interval, from the deltas of its
/// `_sum` and `_count` series; 0 when nothing was observed.
pub fn histogram_mean(deltas: &Counters, name: &str) -> f64 {
    match reading(deltas, &format!("{name}_count")) {
        count if count > 0.0 => reading(deltas, &format!("{name}_sum")) / count,
        _ => 0.0,
    }
}

/// Sum of every labeled series of `name` (e.g. one per shard).
pub fn labeled_sum(counters: &Counters, name: &str) -> f64 {
    let prefix = format!("{name}{{");
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `pit serve` on the seed code (abridged to the series
    /// the ledger reads plus one of each other shape).
    const STATS_BEFORE: &str = "STATS\nqueries 1\nshed 0\ntimeouts 0\ncoalesced_queries 0\n\
        inflight_executions 1\nlatency_p50_us 2048\nwarmup_coverage 0.0000\ncache_entries 1\n\
        cache_hits 0\ncache_misses 1\ncache_stale_evictions 0\ncache_hit_rate 0.0000\n\
        cache_survivors 0\ngeneration 1\nshards_pruned 0\npartial_replies 0\n\
        snapshot_format flat-mapped";
    const STATS_AFTER: &str = "STATS\nqueries 41\nshed 0\ntimeouts 0\ncoalesced_queries 2\n\
        inflight_executions 17\nlatency_p50_us 512\nwarmup_coverage 0.0000\ncache_entries 16\n\
        cache_hits 24\ncache_misses 17\ncache_stale_evictions 3\ncache_hit_rate 0.5854\n\
        cache_survivors 12\ngeneration 2\nshards_pruned 0\npartial_replies 0\n\
        snapshot_format flat-mapped";
    const METRICS_BEFORE: &str = "METRICS\n\
        # HELP pit_queries_total Queries answered successfully (fresh or cached).\n\
        # TYPE pit_queries_total counter\n\
        pit_queries_total 1\n\
        # TYPE pit_queue_wait_us histogram\n\
        pit_queue_wait_us_bucket{le=\"128\"} 1\n\
        pit_queue_wait_us_bucket{le=\"+Inf\"} 1\n\
        pit_queue_wait_us_sum 71\n\
        pit_queue_wait_us_count 1\n\
        pit_execution_us_sum 1633\n\
        pit_execution_us_count 1\n\
        pit_shard_fanout_us_sum{shard=\"0\"} 100\n\
        pit_shard_fanout_us_count{shard=\"0\"} 1\n\
        pit_shard_fanout_us_sum{shard=\"1\"} 300\n\
        pit_shard_fanout_us_count{shard=\"1\"} 1\n\
        pit_cache_stale_by_reason_total{reason=\"edge-added\"} 0\n\
        pit_warmup_coverage 0.0000\n";
    const METRICS_AFTER: &str = "METRICS\n\
        # TYPE pit_queries_total counter\n\
        pit_queries_total 41\n\
        pit_queue_wait_us_bucket{le=\"128\"} 16\n\
        pit_queue_wait_us_bucket{le=\"+Inf\"} 17\n\
        pit_queue_wait_us_sum 871\n\
        pit_queue_wait_us_count 17\n\
        pit_execution_us_sum 6433\n\
        pit_execution_us_count 17\n\
        pit_shard_fanout_us_sum{shard=\"0\"} 500\n\
        pit_shard_fanout_us_count{shard=\"0\"} 5\n\
        pit_shard_fanout_us_sum{shard=\"1\"} 1300\n\
        pit_shard_fanout_us_count{shard=\"1\"} 5\n\
        pit_cache_stale_by_reason_total{reason=\"edge-added\"} 1\n\
        pit_warmup_coverage 0.0000\n";

    #[test]
    fn stats_deltas() {
        let before = parse_stats(STATS_BEFORE);
        let after = parse_stats(STATS_AFTER);
        assert_eq!(before.get("queries"), Some(&1.0));
        assert_eq!(after.get("cache_hit_rate"), Some(&0.5854));
        assert!(
            !before.contains_key("snapshot_format"),
            "text values are skipped"
        );
        assert!(!before.contains_key("STATS"));
        let d = delta(&before, &after);
        assert_eq!(d.get("queries"), Some(&40.0));
        assert_eq!(d.get("cache_hits"), Some(&24.0));
        assert_eq!(d.get("cache_survivors"), Some(&12.0));
        assert_eq!(d.get("coalesced_queries"), Some(&2.0));
        assert_eq!(d.get("generation"), Some(&1.0));
    }

    #[test]
    fn metrics_deltas() {
        let before = parse_metrics(METRICS_BEFORE);
        let after = parse_metrics(METRICS_AFTER);
        assert_eq!(before.get("pit_queries_total"), Some(&1.0));
        assert_eq!(
            after.get("pit_queue_wait_us_bucket{le=\"+Inf\"}"),
            Some(&17.0)
        );
        assert!(before.keys().all(|k| !k.starts_with('#')));
        let d = delta(&before, &after);
        assert_eq!(histogram_mean(&d, "pit_queue_wait_us"), 800.0 / 16.0);
        assert_eq!(histogram_mean(&d, "pit_execution_us"), 300.0);
        assert_eq!(
            histogram_mean(&d, "pit_gather_us"),
            0.0,
            "absent series read as idle"
        );
        assert_eq!(labeled_sum(&d, "pit_shard_fanout_us_sum"), 400.0 + 1000.0);
        assert_eq!(labeled_sum(&d, "pit_shard_fanout_us_count"), 8.0);
        assert_eq!(
            d.get("pit_cache_stale_by_reason_total{reason=\"edge-added\"}"),
            Some(&1.0)
        );
    }
}
