//! Golden wire-contract test: the full key set of the `STATS` reply and
//! the full metric-name set of the `METRICS` reply are pinned here,
//! exactly. Both are consumed by machines — operator scripts parse STATS,
//! dashboards and alerts reference Prometheus series by name — so a rename
//! or silent drop is a breaking change that must fail loudly in review.
//! Adding a metric is fine: add it to the golden list in the same commit.
//!
//! The whole METRICS body — every `# HELP` text, `# TYPE`, label and `le`
//! bound, in order, with only the sample values stripped — is compared
//! against `golden_metrics.txt`, so a reworded help line or a reordered
//! series fails here too.
//!
//! The METRICS body is additionally checked for Prometheus text-exposition
//! well-formedness: every series has a `# TYPE`, every sample line parses,
//! and every histogram's cumulative buckets are monotone and consistent
//! with its `_count`.

use pit::{PitEngine, SummarizerKind};
use pit_index::PropIndexConfig;
use pit_server::cache::StaleReason;
use pit_server::protocol::{read_frame, write_frame, ErrKind, Request, Response};
use pit_server::{serve, ServerConfig, ServerState};
use pit_summarize::LrwConfig;
use pit_walk::WalkConfig;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Every key the `STATS` reply carries, in reply order.
const STATS_KEYS: &[&str] = &[
    // Serving counters.
    "queries",
    "shed",
    "timeouts",
    "errors",
    "internal_errors",
    "panics",
    "connections",
    "reloads",
    "reload_failures",
    "slow_queries",
    "traces_sampled",
    "shards_pruned",
    "partial_replies",
    "coalesced_queries",
    "inflight_executions",
    "accept_errors",
    "latency_p50_us",
    "latency_p99_us",
    "queue_p50_us",
    "queue_p99_us",
    "exec_p50_us",
    "exec_p99_us",
    "reload_p50_us",
    "reload_p99_us",
    // Post-reload warmup (lifetime counters + last-run coverage).
    "warmup_queries",
    "warmup_coverage",
    "warmup_budget_exhausted",
    // Cache counters.
    "cache_entries",
    "cache_capacity",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_stale_evictions",
    "cache_hit_rate",
    // Delta-aware invalidation: live/stale split, survivors of scoped
    // UPDATE retags, and per-reason staleness counts.
    "cache_entries_live",
    "cache_entries_stale",
    "cache_survivors",
    "cache_stale_edge_added",
    "cache_stale_edge_removed",
    "cache_stale_assignment_changed",
    "cache_stale_full_reload",
    // Engine inventory.
    "generation",
    "workers",
    "queue_depth",
    "io_threads",
    "open_connections",
    "queued_jobs",
    "graph_nodes",
    "topics",
    "index_bytes",
    "shards",
    // Flat-snapshot backing: "flat-mapped" when the index arrays are
    // borrowed windows of the snapshot mapping, "owned" otherwise.
    "snapshot_format",
];

/// The `METRICS` body of a single-node server with every sample value
/// stripped (see [`strip_sample_values`]).
const GOLDEN_METRICS: &str = include_str!("golden_metrics.txt");

/// Every Prometheus series the `METRICS` reply exposes, in reply order.
const METRIC_NAMES: &[(&str, &str)] = &[
    ("pit_queries_total", "counter"),
    ("pit_shed_total", "counter"),
    ("pit_timeouts_total", "counter"),
    ("pit_errors_total", "counter"),
    ("pit_internal_errors_total", "counter"),
    ("pit_panics_total", "counter"),
    ("pit_connections_total", "counter"),
    ("pit_reloads_total", "counter"),
    ("pit_reload_failures_total", "counter"),
    ("pit_slow_queries_total", "counter"),
    ("pit_traces_sampled_total", "counter"),
    ("pit_shards_pruned_total", "counter"),
    ("pit_partial_replies_total", "counter"),
    ("pit_coalesced_queries_total", "counter"),
    ("pit_inflight_executions_total", "counter"),
    ("pit_accept_errors_total", "counter"),
    ("pit_warmup_queries_total", "counter"),
    ("pit_warmup_budget_exhausted_total", "counter"),
    ("pit_latency_us", "histogram"),
    ("pit_queue_wait_us", "histogram"),
    ("pit_execution_us", "histogram"),
    ("pit_reload_us", "histogram"),
    ("pit_expand_rounds", "histogram"),
    ("pit_probed_tables", "histogram"),
    ("pit_cache_probe_us", "histogram"),
    ("pit_gather_us", "histogram"),
    ("pit_rank_us", "histogram"),
    // Labeled per-shard fan-out histogram: header always present, one
    // series per shard that has answered an EXPAND (none on a single node).
    ("pit_shard_fanout_us", "histogram"),
    ("pit_cache_hits_total", "counter"),
    ("pit_cache_misses_total", "counter"),
    ("pit_cache_evictions_total", "counter"),
    ("pit_cache_stale_evictions_total", "counter"),
    ("pit_cache_survivors_total", "counter"),
    // Labeled by `reason`: edge-added | edge-removed | assignment-changed
    // | full-reload.
    ("pit_cache_stale_by_reason_total", "counter"),
    ("pit_generation", "gauge"),
    ("pit_cache_entries", "gauge"),
    ("pit_cache_entries_live", "gauge"),
    ("pit_cache_entries_stale", "gauge"),
    ("pit_workers", "gauge"),
    ("pit_queue_depth", "gauge"),
    ("pit_io_threads", "gauge"),
    ("pit_open_connections", "gauge"),
    ("pit_queued_jobs", "gauge"),
    ("pit_graph_nodes", "gauge"),
    ("pit_topics", "gauge"),
    ("pit_index_bytes", "gauge"),
    ("pit_shards", "gauge"),
    ("pit_warmup_coverage", "gauge"),
    ("pit_reload_bytes_mapped", "gauge"),
];

fn tiny_engine() -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: "golden-wire".to_string(),
        nodes: 250,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(250, 17),
        seed: 17,
    };
    let ds = pit_datasets::generate(&spec);
    PitEngine::builder()
        .walk(WalkConfig::new(3, 8).with_seed(2))
        .propagation(PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(LrwConfig {
            rep_count: Some(8),
            ..LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab))
}

fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.render()).expect("send");
    let text = read_frame(stream).expect("recv").expect("reply");
    Response::parse(&text).expect("parse reply")
}

#[test]
fn stats_and_metrics_wire_replies_match_the_golden_registry() {
    let state = Arc::new(ServerState::new(
        Arc::new(tiny_engine()),
        ServerConfig {
            workers: 2,
            cache_capacity: 16,
            trace_sample: 1,
            slow_threshold: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    ));
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let mut c = TcpStream::connect(handle.addr()).expect("connect");

    // Put traffic through every serving path the counters see: a fresh
    // query, its cached repeat, and a malformed request.
    let query = Request::Query {
        user: 5,
        k: 5,
        keywords: vec!["query-0".to_string()],
    };
    assert!(matches!(
        ask(&mut c, &query),
        Response::Topics { cached: false, .. }
    ));
    assert!(matches!(
        ask(&mut c, &query),
        Response::Topics { cached: true, .. }
    ));
    write_frame(&mut c, "FROBNICATE").expect("send junk");
    let _ = read_frame(&mut c).expect("junk reply");

    // STATS: the key list — names and order — is the wire contract.
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected STATS reply");
    };
    let got_keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        got_keys, STATS_KEYS,
        "STATS wire reply diverged from the golden key registry"
    );

    // METRICS: the `# TYPE` registry — names, order, and types.
    let Response::Metrics(body) = ask(&mut c, &Request::Metrics) else {
        panic!("expected METRICS reply");
    };
    let got_names = pit_obs::prom::type_line_names(&body);
    let want_names: Vec<String> = METRIC_NAMES.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(
        got_names, want_names,
        "METRICS exposition diverged from the golden name registry"
    );
    for (name, kind) in METRIC_NAMES {
        assert!(
            body.contains(&format!("# TYPE {name} {kind}")),
            "metric {name} is not declared as a {kind}"
        );
    }
    assert_valid_prometheus(&body);
    let stripped = strip_sample_values(&body);
    for (n, (got, want)) in stripped.lines().zip(GOLDEN_METRICS.lines()).enumerate() {
        assert_eq!(got, want, "METRICS line {} diverged from golden", n + 1);
    }
    assert_eq!(
        stripped.lines().count(),
        GOLDEN_METRICS.lines().count(),
        "METRICS body gained or lost lines against golden_metrics.txt"
    );

    // The traffic above must be visible: sampled traces, queries, a cache
    // hit, and a malformed-request error.
    let get = |name: &str| -> f64 { sample_value(&body, name) };
    assert_eq!(get("pit_queries_total"), 2.0);
    assert_eq!(get("pit_traces_sampled_total"), 2.0);
    assert_eq!(get("pit_cache_hits_total"), 1.0);
    assert_eq!(get("pit_errors_total"), 1.0);
    assert_eq!(get("pit_generation"), 1.0);
    assert!(get("pit_graph_nodes") == 250.0);

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

/// Operators read the docs, not the source: every name they can meet on
/// the wire — STATS keys, Prometheus series, `ERR` classes, stale reasons —
/// appears backticked in README.md or DESIGN.md (§15.1 holds the tables).
#[test]
fn every_wire_name_is_documented() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs: String = ["README.md", "DESIGN.md"]
        .iter()
        .map(|f| std::fs::read_to_string(root.join(f)).expect("read doc"))
        .collect();
    let missing: Vec<&str> = STATS_KEYS
        .iter()
        .copied()
        .chain(METRIC_NAMES.iter().map(|(name, _)| *name))
        .chain(ErrKind::ALL.iter().map(|kind| kind.as_str()))
        .chain(StaleReason::ALL.iter().map(|reason| reason.as_str()))
        .filter(|name| !docs.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "wire names documented in neither README.md nor DESIGN.md: {missing:?}"
    );
}

/// The exposition with each sample line cut back to its series (name plus
/// labels): comments, order, label syntax and `le` bounds all survive.
fn strip_sample_values(body: &str) -> String {
    body.lines()
        .map(|l| match l.rsplit_once(' ') {
            Some((series, _)) if !l.starts_with('#') => series,
            _ => l,
        })
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// The plain (unlabeled, non-histogram) sample value for `name`.
fn sample_value(body: &str, name: &str) -> f64 {
    body.lines()
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.parse().expect("sample value"))
        })
        .unwrap_or_else(|| panic!("no sample line for {name}"))
}

/// Structural well-formedness of a Prometheus text exposition: every
/// non-comment line is `name[{labels}] value`, every named series has a
/// preceding `# TYPE`, and every histogram's cumulative bucket counts are
/// monotone, ending in a `+Inf` bucket equal to `_count`.
fn assert_valid_prometheus(body: &str) {
    let mut typed: Vec<String> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split(' ');
            let name = words.next().expect("TYPE name");
            let kind = words.next().expect("TYPE kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.split_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value in {line:?}"
        );
        let base = series
            .split('{')
            .next()
            .expect("series name")
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            typed.iter().any(|t| t == base),
            "sample {series} has no # TYPE declaration"
        );
    }

    for (name, kind) in METRIC_NAMES {
        if *kind != "histogram" {
            continue;
        }
        // The per-shard fan-out histogram is labeled (one series per shard)
        // and legitimately empty on a single node: only its header is
        // pinned above, not a bucket shape.
        if *name == "pit_shard_fanout_us" {
            continue;
        }
        let buckets: Vec<(String, u64)> = body
            .lines()
            .filter_map(|l| {
                let rest = l.strip_prefix(&format!("{name}_bucket{{le=\""))?;
                let (le, tail) = rest.split_once("\"}")?;
                Some((le.to_string(), tail.trim().parse().expect("bucket count")))
            })
            .collect();
        assert!(!buckets.is_empty(), "histogram {name} has no buckets");
        assert_eq!(
            buckets.last().expect("nonempty").0,
            "+Inf",
            "histogram {name} is missing its +Inf bucket"
        );
        for pair in buckets.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "histogram {name} buckets are not cumulative: {buckets:?}"
            );
        }
        let count = sample_value(body, &format!("{name}_count"));
        assert_eq!(
            buckets.last().expect("nonempty").1 as f64,
            count,
            "histogram {name}: +Inf bucket disagrees with _count"
        );
    }
}
