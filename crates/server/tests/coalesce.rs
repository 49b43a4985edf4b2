//! Single-flight coalescing and event-loop deadline/idle semantics, proven
//! over the real wire.
//!
//! The herd test is the tentpole's acceptance criterion: N concurrent
//! identical cold queries must execute exactly one search (one
//! `inflight_executions`, N−1 `coalesced_queries`) and every client must
//! receive a bit-identical reply. The deadline and idle tests pin the two
//! bugfixes that rode along: the budget is anchored at request receipt (no
//! overshoot from validation/cache-probe time), and idle connections are
//! cut against a real clock even when `io_timeout` is shorter than any
//! internal poll period.

use pit::{PitEngine, SummarizerKind};
use pit_index::PropIndexConfig;
use pit_server::protocol::{read_frame, write_frame, Request, Response};
use pit_server::{serve, ServerConfig, ServerState};
use pit_summarize::LrwConfig;
use pit_walk::WalkConfig;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const HERD: usize = 8;

fn tiny_engine() -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: "coalesce-test".to_string(),
        nodes: 300,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(300, 9),
        seed: 9,
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

fn get_stat(pairs: &[(String, String)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("missing stat {name}"))
        .1
        .parse()
        .unwrap_or_else(|_| panic!("stat {name} not numeric"))
}

/// Fire `HERD` identical cold queries from separate connections through a
/// barrier and return every reply.
fn herd(addr: std::net::SocketAddr, query: &Request) -> Vec<Response> {
    let barrier = Arc::new(Barrier::new(HERD));
    let handles: Vec<_> = (0..HERD)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let query = query.clone();
            // Connect before the barrier so every request hits the wire
            // within the same few milliseconds.
            let mut c = TcpStream::connect(addr).expect("connect");
            std::thread::spawn(move || {
                barrier.wait();
                ask(&mut c, &query)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("herd thread"))
        .collect()
}

#[test]
fn herd_of_identical_cold_queries_executes_exactly_once() {
    // The dragged user makes the single execution slow enough (~100 ms per
    // probed table) that every joiner registers while it is in flight.
    let engine = Arc::new(tiny_engine());
    let state = Arc::new(ServerState::new(
        Arc::clone(&engine),
        ServerConfig {
            workers: 2,
            cache_capacity: 16,
            query_budget: Duration::from_secs(30),
            cancel_check_tables: 1,
            drag_user: Some(7),
            drag_per_check: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    ));
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let query = Request::Query {
        user: 7,
        k: 5,
        keywords: vec!["query-0".to_string()],
    };
    let replies = herd(handle.addr(), &query);

    // Every reply is the same bits: same ranking, same service micros (the
    // flight's one execution), same cached=false.
    let offline: Vec<(u32, f64)> = engine
        .search_keywords(pit_graph::NodeId(7), &["query-0"], 5)
        .unwrap()
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect();
    for reply in &replies {
        assert_eq!(
            reply, &replies[0],
            "coalesced replies must be bit-identical"
        );
        let Response::Topics { ranked, cached, .. } = reply else {
            panic!("expected topics, got {reply:?}");
        };
        assert!(!cached);
        assert_eq!(ranked, &offline);
    }

    let mut c = TcpStream::connect(handle.addr()).expect("connect");
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(
        get_stat(&pairs, "inflight_executions"),
        1,
        "the herd must share exactly one execution"
    );
    assert_eq!(
        get_stat(&pairs, "coalesced_queries"),
        (HERD - 1) as u64,
        "every non-leader must have joined the flight"
    );
    assert_eq!(
        get_stat(&pairs, "queries"),
        HERD as u64,
        "each client still counts as one served query"
    );
    // One execution also means one cache fill: the next identical query is
    // a plain hit.
    assert!(matches!(
        ask(&mut c, &query),
        Response::Topics { cached: true, .. }
    ));

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn total_wall_wait_honors_the_budget() {
    // Regression for the deadline overshoot: the budget used to be measured
    // from pool submission, so validation/cache-probe time was added on
    // top. The deadline is now anchored at request receipt — the client's
    // total wall wait stays within the budget (plus scheduling slack) even
    // though the dragged search would run for multiple seconds.
    let state = Arc::new(ServerState::new(
        Arc::new(tiny_engine()),
        ServerConfig {
            workers: 1,
            cache_capacity: 0,
            query_budget: Duration::from_millis(150),
            cancel_check_tables: 1,
            drag_user: Some(7),
            drag_per_check: Duration::from_secs(1),
            ..ServerConfig::default()
        },
    ));
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let mut c = TcpStream::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    let reply = ask(
        &mut c,
        &Request::Query {
            user: 7,
            k: 3,
            keywords: vec!["query-0".to_string()],
        },
    );
    let waited = started.elapsed();
    assert!(
        matches!(&reply, Response::Err(reason) if reason.to_string() == "timeout"),
        "got {reply:?}"
    );
    assert!(
        waited < Duration::from_millis(700),
        "timeout reply must arrive within the budget plus slack, took {waited:?}"
    );

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn idle_cut_tracks_a_real_deadline_even_below_the_poll_period() {
    // Regression for the idle-accounting drift: idle time used to be
    // counted in fixed 100 ms increments per poll wake, so an `io_timeout`
    // under the poll period was both reachable early (a spurious wake
    // charged a full increment) and ragged. The allowance is now a real
    // `Instant` comparison.
    let io_timeout = Duration::from_millis(80);
    let state = Arc::new(ServerState::new(
        Arc::new(tiny_engine()),
        ServerConfig {
            workers: 1,
            io_timeout,
            ..ServerConfig::default()
        },
    ));
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");

    // A silent connection is cut after io_timeout — not before (no drift
    // from spurious wakes), not minutes later.
    let mut idle = TcpStream::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    let eof = read_frame(&mut idle).expect("idle read");
    let cut_after = started.elapsed();
    assert_eq!(eof, None, "server must close an idle connection cleanly");
    assert!(
        cut_after >= Duration::from_millis(70),
        "idle connection cut early ({cut_after:?} < io_timeout {io_timeout:?})"
    );
    assert!(
        cut_after < Duration::from_secs(3),
        "idle connection lingered for {cut_after:?}"
    );

    // Activity resets the allowance: a connection chatting faster than
    // io_timeout stays alive well past it.
    let mut chatty = TcpStream::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    while started.elapsed() < io_timeout * 4 {
        assert_eq!(ask(&mut chatty, &Request::Ping), Response::Pong);
        std::thread::sleep(io_timeout / 2);
    }

    ask(&mut chatty, &Request::Shutdown);
    handle.join();
}
