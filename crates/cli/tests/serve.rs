//! End-to-end daemon test: build an engine on disk, spawn the real `pit`
//! binary with `serve`, and talk to it over TCP — including a concurrent
//! burst — then shut it down cleanly.

mod common;

use common::{ask, build_engine, connect, get_stat, query, scratch_dir, spawn_server};
use pit_server::protocol::{Request, Response};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

#[test]
fn serve_answers_queries_identical_to_offline_and_drains() {
    let dir = scratch_dir("main");
    let engine = build_engine(&dir, 17);
    let (mut child, addr) = spawn_server(&dir, &["--workers", "4", "--cache", "64"]);

    let mut c = connect(&addr);

    // Liveness.
    assert_eq!(ask(&mut c, &Request::Ping), Response::Pong);

    // Served top-k must match the offline path bit for bit.
    for user in [0u32, 7, 123] {
        let Response::Topics { ranked, .. } = ask(&mut c, &query(user, 5, "query-0")) else {
            panic!("expected topics for user {user}");
        };
        let offline = engine
            .search_keywords(pit_graph::NodeId(user), &["query-0"], 5)
            .expect("offline search");
        let offline: Vec<(u32, f64)> = offline.top_k.iter().map(|s| (s.topic.0, s.score)).collect();
        assert_eq!(ranked, offline, "user {user} diverged from offline path");
    }

    // Re-asking is a cache hit with the same ranking.
    let Response::Topics { cached, ranked, .. } = ask(&mut c, &query(7, 5, "query-0")) else {
        panic!("expected topics");
    };
    assert!(cached, "repeat query should hit the cache");
    assert!(!ranked.is_empty());

    // Concurrent burst: 8 client threads, each with its own connection.
    let mut burst = Vec::new();
    for t in 0..8u32 {
        let addr = addr.clone();
        burst.push(std::thread::spawn(move || {
            let mut c = connect(&addr);
            for i in 0..6u32 {
                // Mix repeats (cache hits) with per-thread users.
                let user = if i % 2 == 0 { 7 } else { 20 + t };
                match ask(&mut c, &query(user, 5, "query-0")) {
                    Response::Topics { ranked, .. } => {
                        assert!(!ranked.is_empty(), "thread {t} got empty top-k")
                    }
                    Response::Err(reason) => {
                        // Shedding is legal under burst; anything else is not.
                        assert_eq!(reason.to_string(), "overloaded", "thread {t}: {reason}")
                    }
                    other => panic!("thread {t}: unexpected reply {other:?}"),
                }
            }
        }));
    }
    for h in burst {
        h.join().expect("burst thread");
    }

    // STATS reflects the traffic: non-zero queries and cache hits.
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    let get = |name: &str| get_stat(&pairs, name);
    assert!(get("queries") >= 4, "queries = {}", get("queries"));
    assert!(get("cache_hits") >= 1, "cache_hits = {}", get("cache_hits"));
    assert!(get("connections") >= 9);
    assert!(get("latency_p50_us") > 0);

    // Graceful shutdown: BYE, then the process drains and exits cleanly.
    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ten_thousand_idle_connections_cost_fds_not_threads() {
    // The event-loop acceptance drill: idle clients must not grow the
    // server's thread count, and the daemon must stay responsive with
    // thousands of sockets parked.
    const TARGET: usize = 10_000;
    const FLOOR: usize = 8_000;
    let dir = scratch_dir("idle10k");
    build_engine(&dir, 17);
    let (mut child, addr) = spawn_server(
        &dir,
        &[
            "--workers",
            "2",
            "--io-threads",
            "2",
            "--io-timeout-ms",
            "120000",
        ],
    );
    let server_pid = child.id();

    // Ramp up, tolerating fd exhaustion (EMFILE) and transient backlog
    // refusals on either side — but insisting on a large floor.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(TARGET);
    let mut refusals = 0u32;
    while idle.len() < TARGET {
        match TcpStream::connect(&addr) {
            Ok(s) => idle.push(s),
            Err(_) if refusals < 50 => {
                refusals += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                assert!(
                    idle.len() >= FLOOR,
                    "only {} connections before {e} (floor {FLOOR})",
                    idle.len()
                );
                break;
            }
        }
    }
    let parked = idle.len();
    assert!(parked >= FLOOR, "parked only {parked} connections");

    // A fresh connection is still served promptly despite the parked herd.
    let mut c = connect(&addr);
    assert_eq!(ask(&mut c, &Request::Ping), Response::Pong);
    assert!(matches!(
        ask(&mut c, &query(7, 5, "query-0")),
        Response::Topics { .. }
    ));

    // STATS separates connection count from queue depth: every parked
    // socket is registered, none of them occupies the worker queue.
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert!(
        get_stat(&pairs, "open_connections") >= parked as u64,
        "open_connections = {} with {parked} parked",
        get_stat(&pairs, "open_connections")
    );
    assert_eq!(get_stat(&pairs, "queued_jobs"), 0);
    assert_eq!(get_stat(&pairs, "io_threads"), 2);

    // The thread count is fixed: main + acceptor + 2 io + 2 workers +
    // updater plus a little slack — nowhere near one-per-connection.
    let tasks = std::fs::read_dir(format!("/proc/{server_pid}/task"))
        .expect("read /proc tasks")
        .count();
    assert!(
        tasks <= 16,
        "server runs {tasks} threads with {parked} connections parked"
    );

    drop(idle);
    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_sheds_or_answers_under_tiny_queue() {
    let dir = scratch_dir("shed");
    build_engine(&dir, 17);
    // One worker, queue depth 1, no cache: a 16-way burst must shed.
    let (mut child, addr) = spawn_server(
        &dir,
        &["--workers", "1", "--queue-depth", "1", "--cache", "0"],
    );
    let mut shed = 0u32;
    let mut served = 0u32;
    let mut burst = Vec::new();
    for t in 0..16u32 {
        let addr = addr.clone();
        burst.push(std::thread::spawn(move || {
            let mut c = connect(&addr);
            match ask(&mut c, &query(t % 50, 5, "query-0")) {
                Response::Topics { .. } => (1u32, 0u32),
                Response::Err(reason) => {
                    assert_eq!(reason.to_string(), "overloaded");
                    (0, 1)
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }));
    }
    for h in burst {
        let (s, o) = h.join().expect("burst thread");
        served += s;
        shed += o;
    }
    assert_eq!(served + shed, 16);
    assert!(served >= 1, "at least one query must be served");

    let mut c = connect(&addr);
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(
        get_stat(&pairs, "shed"),
        shed as u64,
        "STATS shed must match observed sheds"
    );

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_flag_it_does_not_read() {
    // The fault-injection and warmup flags are gone from the binary. A
    // leftover script passing one must fail loudly, not serve without it.
    let dir = scratch_dir("unread-flag");
    build_engine(&dir, 17);
    for (flag, value) in [("--drag-user", "7"), ("--warmup-budget-ms", "10")] {
        let out = Command::new(env!("CARGO_BIN_EXE_pit"))
            .args(["serve", "--engine"])
            .arg(&dir)
            .args(["--addr", "127.0.0.1:0", flag, value])
            .output()
            .expect("run pit serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        assert!(stderr.contains(flag), "stderr: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "pit serve bound before refusing {flag}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
