//! Prometheus text-exposition rendering (text format version 0.0.4).
//!
//! Only the shapes the serving stack needs: monotone counters, point-in-time
//! gauges, and the workspace's power-of-two bucket histograms (bucket 0
//! holds the value 0 exactly, bucket `i ≥ 1` covers `[2^(i-1), 2^i)`, last
//! bucket catches all). For that layout the cumulative count through bucket
//! `i` is *exactly* the count of observations `≤ 2^i − 1`, so the rendered
//! `le` bounds are exact, not approximations.

use std::fmt::Write as _;

/// Append one `counter` metric with its `# TYPE` line.
pub fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Append one `counter` metric carried by several labeled series — one
/// `# HELP`/`# TYPE` header, then one sample line per series distinguished
/// by a `{label_key="label_value"}` pair. An empty series list renders just
/// the header, which scrapes cleanly as "no data yet".
pub fn counter_labeled(
    out: &mut String,
    name: &str,
    help: &str,
    label_key: &str,
    series: &[(&str, u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (label_value, value) in series {
        let _ = writeln!(out, "{name}{{{label_key}=\"{label_value}\"}} {value}");
    }
}

/// Append one `gauge` metric with its `# TYPE` line.
pub fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Append one `histogram` metric from per-bucket counts in the workspace's
/// power-of-two layout, with cumulative `_bucket` / `le` lines, `_sum`,
/// and `_count`.
///
/// `buckets[0]` counts observations equal to 0; `buckets[i]` (for `i ≥ 1`)
/// counts observations in `[2^(i-1), 2^i)`; the last bucket is the
/// catch-all. `sum` is the total of all observed values.
pub fn histogram(out: &mut String, name: &str, help: &str, buckets: &[u64], sum: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        cumulative += count;
        if i + 1 == buckets.len() {
            // The catch-all bucket is unbounded: fold it into +Inf below.
            break;
        }
        // Everything in buckets 0..=i is ≤ 2^i − 1 (exact; see module doc).
        let le = (1u64 << i) - 1;
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let total: u64 = buckets.iter().sum();
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum {sum}");
    let _ = writeln!(out, "{name}_count {total}");
}

/// Append one `histogram` metric carried by several labeled series — one
/// `# HELP`/`# TYPE` header, then per-series `_bucket`/`_sum`/`_count`
/// lines distinguished by a `{label_key="label_value"}` pair. Bucket layout
/// and exactness are as in [`histogram`]. An empty series list renders just
/// the header, which scrapes cleanly as "no data yet".
pub fn histogram_labeled(
    out: &mut String,
    name: &str,
    help: &str,
    label_key: &str,
    series: &[(String, Vec<u64>, u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (label_value, buckets, sum) in series {
        let tag = format!("{label_key}=\"{label_value}\"");
        let mut cumulative = 0u64;
        for (i, &count) in buckets.iter().enumerate() {
            cumulative += count;
            if i + 1 == buckets.len() {
                break;
            }
            let le = (1u64 << i) - 1;
            let _ = writeln!(out, "{name}_bucket{{{tag},le=\"{le}\"}} {cumulative}");
        }
        let total: u64 = buckets.iter().sum();
        let _ = writeln!(out, "{name}_bucket{{{tag},le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{name}_sum{{{tag}}} {sum}");
        let _ = writeln!(out, "{name}_count{{{tag}}} {total}");
    }
}

/// Extract every metric name from an exposition's `# TYPE` lines, in order.
/// Used by golden tests pinning the registry.
pub fn type_line_names(exposition: &str) -> Vec<String> {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_ascii_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render_type_lines() {
        let mut out = String::new();
        counter(&mut out, "pit_queries_total", "Queries answered.", 7);
        gauge(&mut out, "pit_generation", "Serving generation.", 3);
        assert!(out.contains("# TYPE pit_queries_total counter\n"));
        assert!(out.contains("pit_queries_total 7\n"));
        assert!(out.contains("# TYPE pit_generation gauge\n"));
        assert!(out.contains("pit_generation 3\n"));
        assert_eq!(
            type_line_names(&out),
            vec!["pit_queries_total", "pit_generation"]
        );
    }

    #[test]
    fn labeled_counter_shares_one_header_across_series() {
        let mut out = String::new();
        counter_labeled(
            &mut out,
            "pit_cache_stale_by_reason_total",
            "Entries marked stale, by reason.",
            "reason",
            &[("edge-added", 3), ("full-reload", 7)],
        );
        assert_eq!(
            out.matches("# TYPE pit_cache_stale_by_reason_total counter\n")
                .count(),
            1
        );
        assert!(
            out.contains("pit_cache_stale_by_reason_total{reason=\"edge-added\"} 3\n"),
            "{out}"
        );
        assert!(
            out.contains("pit_cache_stale_by_reason_total{reason=\"full-reload\"} 7\n"),
            "{out}"
        );
        assert_eq!(
            type_line_names(&out),
            vec!["pit_cache_stale_by_reason_total"]
        );
    }

    #[test]
    fn histogram_cumulative_counts_are_monotone_and_exact() {
        // Buckets: 2 zeros, 3 in [1,2), 1 in [2,4), 4 in the catch-all.
        let buckets = [2u64, 3, 1, 4];
        let mut out = String::new();
        histogram(&mut out, "pit_x", "Test.", &buckets, 123);
        // le bounds for buckets 0..=2: 0, 1, 3; catch-all folds into +Inf.
        assert!(out.contains("pit_x_bucket{le=\"0\"} 2\n"), "{out}");
        assert!(out.contains("pit_x_bucket{le=\"1\"} 5\n"), "{out}");
        assert!(out.contains("pit_x_bucket{le=\"3\"} 6\n"), "{out}");
        assert!(out.contains("pit_x_bucket{le=\"+Inf\"} 10\n"), "{out}");
        assert!(out.contains("pit_x_sum 123\n"));
        assert!(out.contains("pit_x_count 10\n"));
        // Cumulative values never decrease down the bucket lines.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("pit_x_bucket"))
            .filter_map(|l| l.split_ascii_whitespace().last())
            .map(|v| v.parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn labeled_histogram_shares_one_header_across_series() {
        let mut out = String::new();
        histogram_labeled(
            &mut out,
            "pit_shard_fanout_us",
            "Per-shard fan-out wait.",
            "shard",
            &[
                ("0".to_string(), vec![1, 2, 0, 0], 3),
                ("1".to_string(), vec![0, 0, 1, 0], 2),
            ],
        );
        assert_eq!(
            out.matches("# TYPE pit_shard_fanout_us histogram\n")
                .count(),
            1
        );
        assert!(
            out.contains("pit_shard_fanout_us_bucket{shard=\"0\",le=\"0\"} 1\n"),
            "{out}"
        );
        assert!(
            out.contains("pit_shard_fanout_us_bucket{shard=\"1\",le=\"+Inf\"} 1\n"),
            "{out}"
        );
        assert!(out.contains("pit_shard_fanout_us_sum{shard=\"0\"} 3\n"));
        assert!(out.contains("pit_shard_fanout_us_count{shard=\"1\"} 1\n"));
        assert_eq!(type_line_names(&out), vec!["pit_shard_fanout_us"]);
    }

    #[test]
    fn empty_histogram_is_well_formed() {
        let mut out = String::new();
        histogram(&mut out, "pit_e", "Empty.", &[0; 24], 0);
        assert!(out.contains("pit_e_bucket{le=\"+Inf\"} 0\n"));
        assert!(out.contains("pit_e_count 0\n"));
        // 23 bounded buckets + the +Inf line.
        let bucket_lines = out
            .lines()
            .filter(|l| l.starts_with("pit_e_bucket"))
            .count();
        assert_eq!(bucket_lines, 24);
    }
}
