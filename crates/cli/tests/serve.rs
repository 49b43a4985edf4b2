//! End-to-end daemon test: build an engine on disk, spawn the real `pit`
//! binary with `serve`, and talk to it over TCP — including a concurrent
//! burst — then shut it down cleanly.

use pit::{store, PitEngine, SummarizerKind};
use pit_server::protocol::{read_frame, write_frame, Admin, Request, Response, Successor};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pit-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Build a small engine and persist it where `pit serve` can load it.
fn build_engine(dir: &Path) -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: "serve-it".to_string(),
        nodes: 400,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(400, 17),
        seed: 17,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(3, 8).with_seed(4))
        .propagation(pit_index::PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            rep_count: Some(8),
            ..pit_summarize::LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    store::save_engine(dir, &engine).expect("save engine");
    engine
}

/// Spawn `pit serve` on an ephemeral port and return (child, bound address).
fn spawn_server(engine_dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pit"));
    cmd.args(["serve", "--engine"])
        .arg(engine_dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn pit serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server printed a banner")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.render()).expect("send");
    let text = read_frame(stream).expect("recv").expect("reply");
    Response::parse(&text).expect("parse reply")
}

fn query(user: u32, k: usize, kw: &str) -> Request {
    Request::Query {
        user,
        k,
        keywords: vec![kw.to_string()],
    }
}

#[test]
fn serve_answers_queries_identical_to_offline_and_drains() {
    let dir = scratch_dir("main");
    let engine = build_engine(&dir);
    let (mut child, addr) = spawn_server(&dir, &["--workers", "4", "--cache", "64"]);

    let mut c = TcpStream::connect(&addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

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
            let mut c = TcpStream::connect(&addr).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
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
    let get = |name: &str| -> u64 {
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
            .parse()
            .unwrap_or_else(|_| panic!("stat {name} not numeric"))
    };
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

fn get_stat(pairs: &[(String, String)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("missing stat {name}"))
        .1
        .parse()
        .unwrap_or_else(|_| panic!("stat {name} not numeric"))
}

#[test]
fn panicking_query_reports_internal_and_the_daemon_keeps_serving() {
    let dir = scratch_dir("poison");
    build_engine(&dir);
    // One worker and a poisoned user: the induced panic must cost exactly
    // one reply — classified `internal`, never `timeout` — while the pool
    // keeps its capacity.
    let (mut child, addr) = spawn_server(&dir, &["--workers", "1", "--poison-user", "5"]);
    let mut c = TcpStream::connect(&addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let Response::Err(reason) = ask(&mut c, &query(5, 5, "query-0")) else {
        panic!("poisoned query must error");
    };
    assert!(reason.to_string().starts_with("internal"), "got: {reason}");

    // The sole worker must still answer (caught panic or respawn).
    for user in [0u32, 7, 123] {
        let Response::Topics { ranked, .. } = ask(&mut c, &query(user, 5, "query-0")) else {
            panic!("daemon stopped serving after a panic (user {user})");
        };
        assert!(!ranked.is_empty());
    }

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert!(get_stat(&pairs, "panics") >= 1);
    assert!(get_stat(&pairs, "internal_errors") >= 1);
    assert_eq!(
        get_stat(&pairs, "timeouts"),
        0,
        "a worker crash must not masquerade as slowness"
    );

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_expiry_cancels_mid_search_and_frees_the_worker() {
    let dir = scratch_dir("drag");
    let engine = build_engine(&dir);
    // User 7's queries sleep 1s per cancellation check; with checks after
    // every probed table, an uncancelled run holds the only worker for
    // probed_tables seconds.
    let full = engine
        .search_keywords(pit_graph::NodeId(7), &["query-0"], 5)
        .expect("offline search");
    assert!(
        full.probed_tables >= 2,
        "fixture query must probe multiple tables, got {}",
        full.probed_tables
    );
    let uncancelled = Duration::from_secs(full.probed_tables as u64);

    let (mut child, addr) = spawn_server(
        &dir,
        &[
            "--workers",
            "1",
            "--cache",
            "0",
            "--budget-ms",
            "100",
            "--cancel-every",
            "1",
            "--drag-user",
            "7",
            "--drag-us",
            "1000000",
        ],
    );
    let mut c = TcpStream::connect(&addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let started = std::time::Instant::now();
    assert!(matches!(
        ask(&mut c, &query(7, 5, "query-0")),
        Response::Err(reason) if reason.to_string() == "timeout"
    ));
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(2_000),
        "timeout reply must honor the 100ms budget, took {waited:?}"
    );

    // The worker must come back long before the dragged search would have
    // finished on its own.
    loop {
        match ask(&mut c, &query(3, 5, "query-0")) {
            Response::Topics { .. } => break,
            Response::Err(reason) => {
                assert_eq!(reason.to_string(), "timeout", "unexpected: {reason}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(
            started.elapsed() < uncancelled,
            "worker still busy after {:?}; cancellation did not fire",
            started.elapsed()
        );
    }
    assert!(
        started.elapsed() < uncancelled,
        "worker freed only after {:?} — search ran to completion (full run: {uncancelled:?})",
        started.elapsed()
    );

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert!(get_stat(&pairs, "timeouts") >= 1);
    assert_eq!(get_stat(&pairs, "internal_errors"), 0);

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build a second, disagreeing engine snapshot for RELOAD drills.
fn build_variant_engine(dir: &Path) -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: "serve-it-v2".to_string(),
        nodes: 400,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(400, 23),
        seed: 23,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(3, 8).with_seed(4))
        .propagation(pit_index::PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            rep_count: Some(8),
            ..pit_summarize::LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    store::save_engine(dir, &engine).expect("save variant engine");
    engine
}

/// Fire `n` identical queries from `n` fresh connections through a barrier
/// and return every reply.
fn herd(addr: &str, n: usize, req: &Request) -> Vec<Response> {
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            let req = req.clone();
            let mut c = TcpStream::connect(addr).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            std::thread::spawn(move || {
                barrier.wait();
                ask(&mut c, &req)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("herd thread"))
        .collect()
}

#[test]
fn reload_herd_drill_coalesces_to_one_execution_per_generation() {
    // The real-binary thundering-herd drill: a RELOAD bumps the generation,
    // every cached ranking goes stale at once, and a burst of identical
    // queries lands cold. Single-flight coalescing must turn each such
    // burst into exactly one execution with bit-identical replies.
    let dir = scratch_dir("herd-gen1");
    let dir2 = scratch_dir("herd-gen2");
    let engine = build_engine(&dir);
    let engine2 = build_variant_engine(&dir2);
    // The drag makes the single execution slow enough (~100 ms per probed
    // table) that all herd members register while it is in flight; the
    // reload drag exercises queries-keep-flowing during the swap.
    let (mut child, addr) = spawn_server(
        &dir,
        &[
            "--workers",
            "2",
            "--cache",
            "64",
            "--budget-ms",
            "30000",
            "--cancel-every",
            "1",
            "--drag-user",
            "7",
            "--drag-us",
            "100000",
            "--reload-drag-ms",
            "100",
        ],
    );
    let herd_query = query(7, 5, "query-0");

    let offline = |e: &PitEngine| -> Vec<(u32, f64)> {
        e.search_keywords(pit_graph::NodeId(7), &["query-0"], 5)
            .expect("offline search")
            .top_k
            .iter()
            .map(|s| (s.topic.0, s.score))
            .collect()
    };
    let check_herd = |replies: &[Response], want: &[(u32, f64)], label: &str| {
        for reply in replies {
            assert_eq!(
                reply, &replies[0],
                "{label}: coalesced replies must be bit-identical"
            );
            let Response::Topics { ranked, cached, .. } = reply else {
                panic!("{label}: expected topics, got {reply:?}");
            };
            assert!(!cached, "{label}: herd must be cold");
            assert_eq!(ranked, want, "{label}: ranking diverged from offline");
        }
    };

    // Cold herd on generation 1.
    check_herd(&herd(&addr, 8, &herd_query), &offline(&engine), "gen1");

    let mut c = TcpStream::connect(&addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "inflight_executions"), 1);
    assert_eq!(get_stat(&pairs, "coalesced_queries"), 7);
    assert_eq!(get_stat(&pairs, "queries"), 8);

    // Swap generations — this is the moment the cache goes cold at once.
    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir2.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &reload), Response::Generation(2));

    // Post-reload herd: recomputed once on the new engine, shared by all.
    check_herd(&herd(&addr, 8, &herd_query), &offline(&engine2), "gen2");

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(
        get_stat(&pairs, "inflight_executions"),
        2,
        "each generation's herd must share exactly one execution"
    );
    assert_eq!(get_stat(&pairs, "coalesced_queries"), 14);
    assert_eq!(get_stat(&pairs, "queries"), 16);

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn ten_thousand_idle_connections_cost_fds_not_threads() {
    // The event-loop acceptance drill: idle clients must not grow the
    // server's thread count, and the daemon must stay responsive with
    // thousands of sockets parked.
    const TARGET: usize = 10_000;
    const FLOOR: usize = 8_000;
    let dir = scratch_dir("idle10k");
    build_engine(&dir);
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
    let mut c = TcpStream::connect(&addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
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
    build_engine(&dir);
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
            let mut c = TcpStream::connect(&addr).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
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

    let mut c = TcpStream::connect(&addr).expect("connect");
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    let reported: u64 = pairs
        .iter()
        .find(|(k, _)| k == "shed")
        .expect("shed stat")
        .1
        .parse()
        .expect("numeric");
    assert_eq!(
        reported, shed as u64,
        "STATS shed must match observed sheds"
    );

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}
