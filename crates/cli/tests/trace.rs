//! End-to-end observability test: an in-process daemon with tracing on and
//! one slow user (dragged by the test-side [`common::Faulty`] engine). The
//! slow query must be findable — in the `TRACE` slow-query log with nonzero
//! expand-round and probed-table spans, and in the `METRICS` exposition's
//! slow-query counter — and the real `pit trace` and
//! `pit client --op metrics` subcommands must show it the way an operator
//! would see it.

mod common;

use common::{ask, connect, query, tiny_engine, Faults, Faulty};
use pit_server::protocol::{Request, Response};
use pit_server::{serve, ServerConfig, ServerState};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// Run a `pit` subcommand against the daemon and return its stdout.
fn pit_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pit"))
        .args(args)
        .output()
        .expect("run pit subcommand");
    assert!(
        out.status.success(),
        "pit {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// The trace lines describing slow queries: everything between `[slow]`
/// and `[sampled]` in a TRACE dump.
fn slow_section(dump: &str) -> Vec<&str> {
    dump.lines()
        .skip_while(|l| !l.starts_with("[slow]"))
        .take_while(|l| !l.starts_with("[sampled]"))
        .collect()
}

/// `key=value` fields from a rendered trace header line.
fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {line:?}"))
}

#[test]
fn slow_query_is_findable_in_trace_and_metrics() {
    // User 7's search sleeps 25ms at the start of every phase (gather, each
    // EXPAND round, rank), so it takes at least 75ms against a 50ms slow
    // threshold, which leaves an unloaded debug-build query on this engine
    // (a few ms) an order of magnitude of headroom below it; sampling every
    // query keeps the sampled ring busy too.
    let faults = Faults {
        drag_user: Some(7),
        drag: Duration::from_millis(25),
        ..Faults::default()
    };
    let state = Arc::new(ServerState::with_engine(
        Faulty::local(Arc::new(tiny_engine(400, 17)), faults),
        ServerConfig {
            workers: 2,
            trace_sample: 1,
            slow_threshold: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    ));
    let handle = serve(state, "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();
    let mut c = connect(&addr);

    // A fast control query, then the dragged one.
    assert!(matches!(
        ask(&mut c, &query(3, 5, "query-0")),
        Response::Topics { .. }
    ));
    let Response::Topics { micros, .. } = ask(&mut c, &query(7, 5, "query-0")) else {
        panic!("expected topics for the dragged user");
    };
    assert!(
        micros >= 50_000,
        "dragged query finished in {micros}us — fault injection not biting"
    );

    // TRACE over the wire: the dragged query must sit in the slow-query
    // log with real work recorded — a nonzero round/table summary and at
    // least one expand_round span naming the tables it probed.
    let Response::Traces(dump) = ask(&mut c, &Request::Trace { n: 16 }) else {
        panic!("expected TRACES reply");
    };
    let slow_lines = slow_section(&dump);
    let header = slow_lines
        .iter()
        .find(|l| l.contains("user=7") && l.contains("slow=yes"))
        .unwrap_or_else(|| panic!("dragged user missing from slow log:\n{dump}"));
    assert!(
        header.contains("outcome=ok"),
        "dragged query should finish: {header}"
    );
    assert!(
        field(header, "rounds") >= 1,
        "no expand rounds recorded: {header}"
    );
    assert!(
        field(header, "tables") >= 1,
        "no probed tables recorded: {header}"
    );
    let expand_spans: Vec<&&str> = slow_lines
        .iter()
        .filter(|l| l.trim_start().starts_with("expand_round"))
        .collect();
    assert!(
        !expand_spans.is_empty(),
        "no expand_round spans in slow log:\n{dump}"
    );
    assert!(
        expand_spans.iter().any(|l| field(l, "tables") >= 1),
        "expand_round spans recorded no probed tables:\n{dump}"
    );

    // The fast control query is in the sampled ring (sample_every=1) but
    // must not pollute the slow log.
    assert!(
        !slow_lines.iter().any(|l| l.contains("user=3")),
        "fast query leaked into the slow log:\n{dump}"
    );
    assert!(
        dump.contains("user=3"),
        "sampled ring missed the fast query:\n{dump}"
    );

    // METRICS over the wire: the slow-query counter and the work
    // histograms saw it.
    let Response::Metrics(body) = ask(&mut c, &Request::Metrics) else {
        panic!("expected METRICS reply");
    };
    let counter = |name: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no {name} in METRICS"))
            .parse()
            .expect("counter value")
    };
    assert!(counter("pit_slow_queries_total") >= 1);
    assert_eq!(counter("pit_traces_sampled_total"), 2);
    assert!(counter("pit_probed_tables_count") >= 2);
    assert!(body.contains("# TYPE pit_latency_us histogram"));

    // Operator-facing subcommands against the same daemon.
    let cli_dump = pit_stdout(&["trace", "--addr", &addr, "--n", "8"]);
    assert!(
        cli_dump.contains("user=7") && cli_dump.contains("slow=yes"),
        "pit trace did not show the slow query:\n{cli_dump}"
    );
    let cli_metrics = pit_stdout(&["client", "--addr", &addr, "--op", "metrics"]);
    assert!(
        cli_metrics.contains("# TYPE pit_slow_queries_total counter"),
        "pit client --op metrics is not a Prometheus exposition:\n{cli_metrics}"
    );

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    handle.join();
}
