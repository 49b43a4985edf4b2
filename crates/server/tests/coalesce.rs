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

mod support;

use pit_server::protocol::{read_frame, Admin, Request, Response, Successor};
use pit_server::{serve, ServerConfig, ServerState};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use support::{ask, get_stat, offline_ranking, query, scratch_dir, tiny_engine, Faults, Faulty};

const HERD: usize = 8;

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

/// Every herd reply is the same bits — same ranking, same service micros
/// (the flight's one execution), same `cached=false` — and the ranking is
/// the offline one.
fn assert_one_cold_answer(replies: &[Response], offline: &[(u32, f64)], label: &str) {
    for reply in replies {
        assert_eq!(
            reply, &replies[0],
            "{label}: coalesced replies must be bit-identical"
        );
        let Response::Topics { ranked, cached, .. } = reply else {
            panic!("{label}: expected topics, got {reply:?}");
        };
        assert!(!cached, "{label}: the herd must be cold");
        assert_eq!(ranked, offline, "{label}: ranking diverged from offline");
    }
}

#[test]
fn herd_of_identical_cold_queries_executes_exactly_once() {
    // The dragged user makes the single execution slow enough (100 ms per
    // search phase) that every joiner registers while it is in flight. The
    // drag rides through RELOAD (the wrapper wraps its successors), so the
    // post-reload herd — every cached ranking stale at once — coalesces
    // the same way.
    let engine = Arc::new(tiny_engine(300, 9));
    let next = tiny_engine(300, 10);
    let gen1 = offline_ranking(&engine, 7, 5);
    let gen2 = offline_ranking(&next, 7, 5);
    assert_ne!(gen1, gen2, "fixture engines must disagree");
    let dir = scratch_dir("coalesce-gen2");
    pit::store::save_engine(&dir, &next).expect("save gen-2 snapshot");
    let faults = Faults {
        drag_user: Some(7),
        drag: Duration::from_millis(100),
        ..Faults::default()
    };
    let state = Arc::new(ServerState::with_engine(
        Faulty::local(engine, faults),
        ServerConfig {
            workers: 2,
            cache_capacity: 16,
            query_budget: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    ));
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let query = query(7, 5, "query-0");
    assert_one_cold_answer(&herd(handle.addr(), &query), &gen1, "gen 1");

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

    // Swap generations: the moment the whole cache goes stale at once.
    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &reload), Response::Generation(2));
    assert_one_cold_answer(&herd(handle.addr(), &query), &gen2, "gen 2");

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(
        get_stat(&pairs, "inflight_executions"),
        2,
        "each generation's herd must share exactly one execution"
    );
    assert_eq!(get_stat(&pairs, "coalesced_queries"), 2 * (HERD - 1) as u64);
    assert_eq!(get_stat(&pairs, "queries"), 2 * HERD as u64 + 1);

    ask(&mut c, &Request::Shutdown);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn total_wall_wait_honors_the_budget() {
    // Regression for the deadline overshoot: the budget used to be measured
    // from pool submission, so validation/cache-probe time was added on
    // top. The deadline is now anchored at request receipt — the client's
    // total wall wait stays within the budget (plus scheduling slack) even
    // though the dragged search would run for multiple seconds.
    let faults = Faults {
        drag_user: Some(7),
        drag: Duration::from_secs(1),
        ..Faults::default()
    };
    let state = Arc::new(ServerState::with_engine(
        Faulty::local(Arc::new(tiny_engine(300, 9)), faults),
        ServerConfig {
            workers: 1,
            cache_capacity: 0,
            query_budget: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    ));
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let mut c = TcpStream::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    let reply = ask(&mut c, &query(7, 3, "query-0"));
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
        Arc::new(tiny_engine(300, 9)),
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
