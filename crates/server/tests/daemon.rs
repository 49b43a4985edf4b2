//! The daemon over the real wire: queries, cache, admin verbs, framing and
//! shutdown against an in-process server on an ephemeral port — plus the
//! fault drills, whose faults come from the test-side [`support::Faulty`]
//! engine wrapper, never from the production server.

#![allow(clippy::disallowed_types)]

mod support;

use pit::{Delta, PitEngine, SummarizerKind};
use pit_index::PropIndexConfig;
use pit_server::protocol::{self, Admin, ErrKind, Request, Response, Successor, MAX_FRAME_BYTES};
use pit_server::{serve, ServerConfig, ServerState};
use pit_summarize::LrwConfig;
use pit_walk::WalkConfig;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{
    ask, connect, get_stat, offline_ranking, query, scratch_dir, tiny_engine, Faults, Faulty,
};

/// The server behind `Arc<dyn ServeEngine>` plus a raw handle to the
/// same `PitEngine`, for tests that compare served answers against the
/// offline search path.
fn tiny_pair(config: ServerConfig) -> (Arc<PitEngine>, Arc<ServerState>) {
    let engine = Arc::new(tiny_engine(300, 9));
    let state = Arc::new(ServerState::new(Arc::clone(&engine), config));
    (engine, state)
}

fn tiny_state(config: ServerConfig) -> Arc<ServerState> {
    tiny_pair(config).1
}

/// [`tiny_pair`] with the served engine wrapped in `faults`.
fn faulty_pair(faults: Faults, config: ServerConfig) -> (Arc<PitEngine>, Arc<ServerState>) {
    let engine = Arc::new(tiny_engine(300, 9));
    let served = Faulty::local(Arc::clone(&engine), faults);
    (engine, Arc::new(ServerState::with_engine(served, config)))
}

#[test]
fn serves_ping_query_stats_and_shuts_down() {
    let (engine, state) = tiny_pair(ServerConfig {
        workers: 2,
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();

    assert_eq!(ask(&mut c, &Request::Ping), Response::Pong);

    let query = query(5, 5, "query-0");
    let Response::Topics { ranked, cached, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert!(!cached);
    assert!(!ranked.is_empty());
    // Served scores bit-match the offline path.
    let offline = engine
        .search_keywords(pit_graph::NodeId(5), &["query-0"], 5)
        .unwrap();
    let offline: Vec<(u32, f64)> = offline.top_k.iter().map(|s| (s.topic.0, s.score)).collect();
    assert_eq!(ranked, offline);

    // Second identical query is a cache hit.
    let Response::Topics {
        cached,
        ranked: again,
        ..
    } = ask(&mut c, &query)
    else {
        panic!("expected topics");
    };
    assert!(cached);
    assert_eq!(again, offline);

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "queries"), 2);
    assert_eq!(get_stat(&pairs, "cache_hits"), 1);

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    handle.join();
}

#[test]
fn malformed_and_unknown_requests_get_err() {
    let state = tiny_state(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let handle = serve(state, "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    protocol::write_frame(&mut c, "FROBNICATE").unwrap();
    let text = protocol::read_frame(&mut c).unwrap().unwrap();
    assert!(text.starts_with("ERR malformed"), "{text}");
    // Unknown keyword and out-of-range user are request errors, not
    // connection errors.
    protocol::write_frame(&mut c, "QUERY 5 3 no-such-keyword").unwrap();
    let text = protocol::read_frame(&mut c).unwrap().unwrap();
    assert!(text.starts_with("ERR malformed: unknown keyword"), "{text}");
    protocol::write_frame(&mut c, "QUERY 999999 3 query-0").unwrap();
    let text = protocol::read_frame(&mut c).unwrap().unwrap();
    assert!(text.starts_with("ERR malformed: user"), "{text}");
    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn poisoned_query_is_internal_and_the_pool_self_heals() {
    // One worker + a user whose search panics: the panic must cost one
    // reply, not the pool, and must be reported as `internal`, never
    // `timeout`.
    let faults = Faults {
        panic_user: Some(5),
        ..Faults::default()
    };
    let (_, state) = faulty_pair(
        faults,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();

    let Response::Err(reason) = ask(&mut c, &query(5, 3, "query-0")) else {
        panic!("a panicking query must error");
    };
    assert_eq!(reason.kind, ErrKind::Internal, "got: {reason}");

    // The sole worker is still serving.
    for user in [6u32, 7, 8] {
        assert!(
            matches!(
                ask(&mut c, &query(user, 3, "query-0")),
                Response::Topics { .. }
            ),
            "pool must keep serving after a panic (user {user})"
        );
    }

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert!(get_stat(&pairs, "panics") >= 1);
    assert!(get_stat(&pairs, "internal_errors") >= 1);
    assert_eq!(
        get_stat(&pairs, "timeouts"),
        0,
        "a crash must not inflate the timeout counter"
    );

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn budget_expiry_cancels_the_search_and_frees_the_worker() {
    // One worker; user 7's search sleeps 1s at the start of every phase
    // (gather, each EXPAND round, rank), so an uncancelled run would hold
    // the worker for (expand_rounds + 2) × 1s. The 100ms budget must (a)
    // answer the waiter on time and (b) release the worker at the first
    // cancellation check, before the first EXPAND round.
    let drag = Duration::from_millis(1000);
    let faults = Faults {
        drag_user: Some(7),
        drag,
        ..Faults::default()
    };
    let (engine, state) = faulty_pair(
        faults,
        ServerConfig {
            workers: 1,
            cache_capacity: 0,
            query_budget: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    // How long the dragged search would run to completion.
    let full = engine
        .search_keywords(pit_graph::NodeId(7), &["query-0"], 3)
        .unwrap();
    assert!(
        full.expand_rounds >= 1,
        "fixture query must run an EXPAND round, got {}",
        full.expand_rounds
    );
    let uncancelled_runtime = drag * (full.expand_rounds as u32 + 2);

    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    let started = Instant::now();
    let reply = ask(&mut c, &query(7, 3, "query-0"));
    let waited = started.elapsed();
    assert_eq!(reply, Response::Err(ErrKind::Timeout.into()));
    assert!(
        waited < Duration::from_millis(600),
        "timeout reply must honor the budget, took {waited:?}"
    );

    // Poll until the worker answers again: it must come back long
    // before the dragged search would have completed.
    loop {
        match ask(&mut c, &query(6, 3, "query-0")) {
            Response::Topics { .. } => break,
            Response::Err(reason) => {
                assert_eq!(reason.kind, ErrKind::Timeout, "unexpected: {reason}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(
            started.elapsed() < uncancelled_runtime,
            "worker still busy after {:?}; cancellation did not fire",
            started.elapsed()
        );
    }
    assert!(
        started.elapsed() < uncancelled_runtime,
        "worker freed only after {:?} — the search ran to completion \
         (full run would take {uncancelled_runtime:?})",
        started.elapsed()
    );

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert!(get_stat(&pairs, "timeouts") >= 1);
    assert_eq!(get_stat(&pairs, "internal_errors"), 0);
    assert_eq!(get_stat(&pairs, "panics"), 0);

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn reload_swaps_generation_and_cache_never_crosses() {
    let (engine, state) = tiny_pair(ServerConfig {
        workers: 2,
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let next = tiny_engine(300, 10);
    let old_ranking = offline_ranking(&engine, 5, 5);
    let new_ranking = offline_ranking(&next, 5, 5);
    assert_ne!(old_ranking, new_ranking, "fixture engines must disagree");
    let dir = scratch_dir("reload");
    pit::store::save_engine(&dir, &next).unwrap();

    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    let query = query(5, 5, "query-0");

    // Warm the generation-1 cache.
    let Response::Topics { ranked, cached, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert!(!cached);
    assert_eq!(ranked, old_ranking);
    let Response::Topics { cached, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert!(cached);

    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &reload), Response::Generation(2));

    // The identical query after the swap must be recomputed on the new
    // engine — a pre-swap cache entry answering here would be exactly
    // the staleness bug this server exists to avoid.
    let Response::Topics { ranked, cached, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert!(!cached, "post-swap reply served from the pre-swap cache");
    assert_eq!(ranked, new_ranking);
    // …and the recomputation repopulates the cache under generation 2.
    let Response::Topics { ranked, cached, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert!(cached);
    assert_eq!(ranked, new_ranking);

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 2);
    assert_eq!(get_stat(&pairs, "reloads"), 1);
    assert_eq!(get_stat(&pairs, "reload_failures"), 0);
    assert!(get_stat(&pairs, "cache_stale_evictions") >= 1);

    ask(&mut c, &Request::Shutdown);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_reload_keeps_the_old_generation_serving() {
    let (engine, state) = tiny_pair(ServerConfig {
        workers: 1,
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let old_ranking = offline_ranking(&engine, 5, 5);
    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();

    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot("/no/such/snapshot-dir".into()),
        commit: true,
    });
    let Response::Err(reason) = ask(&mut c, &reload) else {
        panic!("reload of a missing snapshot must fail");
    };
    assert_eq!(reason.kind, ErrKind::ReloadFailed, "got: {reason}");

    // Still answering, still generation 1, still the old rankings.
    let query = query(5, 5, "query-0");
    let Response::Topics { ranked, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert_eq!(ranked, old_ranking);

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 1);
    assert_eq!(get_stat(&pairs, "reloads"), 0);
    assert_eq!(get_stat(&pairs, "reload_failures"), 1);

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn update_applies_delta_and_serves_the_successor_generation() {
    let (base, state) = tiny_pair(ServerConfig {
        workers: 2,
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    // Pick an edge the fixture graph does not have, so the delta is valid.
    let u = pit_graph::NodeId(5);
    let v = (0..base.graph().node_count() as u32)
        .map(pit_graph::NodeId)
        .find(|&v| v != u && !base.graph().has_edge(u, v))
        .expect("fixture graph is not complete");
    let delta = Delta {
        new_edges: vec![(u, v, 0.7)],
        new_assignments: vec![],
    };
    // The served post-update ranking must equal this offline apply.
    let (expected_engine, _) = base.with_delta(&delta).unwrap();
    let expected = offline_ranking(&expected_engine, 5, 5);

    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    let query = query(5, 5, "query-0");
    // Warm the generation-1 cache so the swap has something to outdate.
    assert!(matches!(
        ask(&mut c, &query),
        Response::Topics { cached: false, .. }
    ));

    let update = Request::Admin(Admin::Install {
        next: Successor::Delta(delta),
        commit: true,
    });
    assert_eq!(ask(&mut c, &update), Response::Generation(2));

    let Response::Topics { ranked, cached, .. } = ask(&mut c, &query) else {
        panic!("expected topics");
    };
    assert!(
        !cached,
        "post-update reply served from the pre-update cache"
    );
    assert_eq!(ranked, expected);

    // An invalid delta (unknown topic) must fail without a swap.
    let bad = Request::Admin(Admin::Install {
        next: Successor::Delta(Delta {
            new_edges: vec![],
            new_assignments: vec![(u, pit_graph::TopicId(1_000_000))],
        }),
        commit: true,
    });
    let Response::Err(reason) = ask(&mut c, &bad) else {
        panic!("bad delta must fail");
    };
    assert_eq!(reason.kind, ErrKind::ReloadFailed, "got: {reason}");

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 2);
    assert_eq!(get_stat(&pairs, "reloads"), 1);
    assert_eq!(get_stat(&pairs, "reload_failures"), 1);

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

/// Two disconnected five-node islands, each with its own topic and its
/// own term. An edge delta inside one island provably cannot touch the
/// other: no walk, Γ table, or term bag crosses the gap.
fn island_engine() -> PitEngine {
    use pit_graph::NodeId;
    let mut g = pit_graph::GraphBuilder::new(10);
    // Island A: 0→1→2→3→4→0 ring plus a 0→2 shortcut.
    // Island B: 5→6→7→8→9→5 ring plus a 5→7 shortcut; 6→9 is left out
    // so the delta below adds a genuinely new edge. Rings, so influence
    // is mutual and scores are nonzero — a chain's source-node rep
    // would make every answer a degenerate 0.0.
    for &(a, b) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
        g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
    }
    for &(a, b) in &[(5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (5, 7)] {
        g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
    }
    let graph = g.build().unwrap();
    let mut vocab = pit_topics::Vocabulary::new();
    let term_a = vocab.intern("island-a");
    let term_b = vocab.intern("island-b");
    let mut b = pit_topics::TopicSpaceBuilder::new(10, 2);
    let t_a = b.add_topic(vec![term_a]);
    for m in 0..5 {
        b.assign(NodeId(m), t_a);
    }
    let t_b = b.add_topic(vec![term_b]);
    for m in 5..10 {
        b.assign(NodeId(m), t_b);
    }
    PitEngine::builder()
        .walk(WalkConfig::new(4, 8).with_seed(3))
        .propagation(PropIndexConfig::with_theta(0.01))
        .summarizer(SummarizerKind::Lrw(LrwConfig::default()))
        .build_with_vocab(graph, b.build(), Some(vocab))
}

#[test]
fn update_leaves_disjoint_cache_entries_hitting() {
    let base = Arc::new(island_engine());
    let state = Arc::new(ServerState::new(
        Arc::clone(&base),
        ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        },
    ));
    // A new edge strictly inside island B.
    let delta = Delta {
        new_edges: vec![(pit_graph::NodeId(6), pit_graph::NodeId(9), 0.9)],
        new_assignments: vec![],
    };
    // Offline ground truth: the blast radius stays inside island B.
    let (next_engine, report) = base.with_delta(&delta).unwrap();
    let scope = &report.scope;
    let term_a = base.vocab().unwrap().get("island-a").unwrap();
    assert!(!scope.touches_user(pit_graph::NodeId(0)), "{scope:?}");
    assert!(!scope.touches_assignment_terms(&[term_a]));
    assert!(!scope.touches_edge_terms(&[term_a]), "{scope:?}");
    assert!(scope.touches_user(pit_graph::NodeId(9)), "{scope:?}");

    let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
    let mut c = TcpStream::connect(handle.addr()).unwrap();
    let disjoint = query(0, 3, "island-a");
    let affected = query(9, 3, "island-b");
    // Warm both under generation 1.
    assert!(matches!(
        ask(&mut c, &disjoint),
        Response::Topics { cached: false, .. }
    ));
    assert!(matches!(
        ask(&mut c, &affected),
        Response::Topics { cached: false, .. }
    ));

    let update = Request::Admin(Admin::Install {
        next: Successor::Delta(delta),
        commit: true,
    });
    assert_eq!(ask(&mut c, &update), Response::Generation(2));

    // The island-A entry crossed the generation bump alive — and its
    // cached answer bit-matches a fresh computation on the new engine.
    let Response::Topics { ranked, cached, .. } = ask(&mut c, &disjoint) else {
        panic!("expected topics");
    };
    assert!(cached, "disjoint entry must survive a scoped UPDATE");
    let recomputed: Vec<(u32, f64)> = next_engine
        .search_keywords(pit_graph::NodeId(0), &["island-a"], 3)
        .unwrap()
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect();
    assert_eq!(ranked, recomputed, "survivor must equal recompute");

    // The island-B entry did not survive.
    assert!(matches!(
        ask(&mut c, &affected),
        Response::Topics { cached: false, .. }
    ));

    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 2);
    assert!(get_stat(&pairs, "cache_survivors") >= 1);
    assert!(
        get_stat(&pairs, "cache_stale_edge_added") >= 1,
        "affected entry must carry the edge-added stale reason"
    );

    ask(&mut c, &Request::Shutdown);
    handle.join();
}

#[test]
fn oversized_length_prefix_closes_the_connection_without_a_reply() {
    // The event loop's frame reader must refuse a length prefix above
    // the cap before buffering toward it: no reply, the connection
    // closes, and the server keeps serving everyone else.
    let state = tiny_state(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let handle = serve(state, "127.0.0.1:0").unwrap();
    for len in [MAX_FRAME_BYTES as u32 + 1, u32::MAX] {
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.write_all(&len.to_le_bytes()).unwrap();
        c.write_all(b"PING").unwrap();
        let mut buf = [0u8; 64];
        match std::io::Read::read(&mut c, &mut buf) {
            Ok(0) => {}
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "prefix {len}: connection left open ({e})"
            ),
            Ok(n) => panic!("prefix {len}: got a {n}-byte reply instead of a close"),
        }
        let mut fresh = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(ask(&mut fresh, &Request::Ping), Response::Pong);
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn handle_shutdown_stops_the_server() {
    let state = tiny_state(ServerConfig::default());
    let handle = serve(state, "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut c = TcpStream::connect(addr).unwrap();
    assert_eq!(ask(&mut c, &Request::Ping), Response::Pong);
    handle.shutdown();
    handle.join();
    // The listener is gone: a fresh connection now fails (either refused
    // outright or closed before replying).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut c2) => {
            let dead = protocol::write_frame(&mut c2, "PING").is_err()
                || c2.flush().is_err()
                || matches!(protocol::read_frame(&mut c2), Ok(None) | Err(_));
            assert!(dead, "server still answering after shutdown");
        }
    }
}

/// One observed query reply from a hammer thread.
struct Observation {
    sent: Instant,
    received: Instant,
    new_generation: bool,
}

#[test]
fn reload_under_concurrent_load_flips_exactly_at_the_swap() {
    const PROBE_USER: u32 = 7;
    const K: usize = 5;
    const RELOAD_DRAG: Duration = Duration::from_millis(1500);
    let engine_a = Arc::new(tiny_engine(400, 17));
    let engine_b = tiny_engine(400, 23);
    let old_ranking = offline_ranking(&engine_a, PROBE_USER, K);
    let new_ranking = offline_ranking(&engine_b, PROBE_USER, K);
    assert_ne!(old_ranking, new_ranking, "fixture engines must disagree");
    let dir_b = scratch_dir("live-b");
    pit::store::save_engine(&dir_b, &engine_b).unwrap();

    // Every successor build is stretched by RELOAD_DRAG, so there is a wide
    // window in which queries *must* keep being answered from the old
    // generation while the reload is in flight.
    let faults = Faults {
        slow_successor: RELOAD_DRAG,
        ..Faults::default()
    };
    let state = Arc::new(ServerState::with_engine(
        Faulty::local(engine_a, faults),
        ServerConfig {
            workers: 4,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    ));
    let handle = serve(state, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Hammer threads: keep querying the probe user (plus a per-thread user
    // to vary the load) until told to stop, recording what each reply was
    // and when. Any ERR, block, or ranking that matches neither engine is
    // an immediate failure.
    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for t in 0..4u32 {
        let stop = Arc::clone(&stop);
        let old_ranking = old_ranking.clone();
        let new_ranking = new_ranking.clone();
        hammers.push(std::thread::spawn(move || {
            let mut c = connect(addr);
            let mut seen = Vec::<Observation>::new();
            let mut iteration = 0u32;
            while !stop.load(Ordering::Acquire) {
                let user = if iteration.is_multiple_of(2) {
                    PROBE_USER
                } else {
                    50 + t
                };
                iteration += 1;
                let sent = Instant::now();
                match ask(&mut c, &query(user, K, "query-0")) {
                    Response::Topics { ranked, .. } => {
                        if user == PROBE_USER {
                            let new_generation = ranked == new_ranking;
                            assert!(
                                new_generation || ranked == old_ranking,
                                "thread {t}: ranking matches neither generation"
                            );
                            seen.push(Observation {
                                sent,
                                received: Instant::now(),
                                new_generation,
                            });
                        }
                    }
                    other => panic!("thread {t}: query failed during reload: {other:?}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        }));
    }

    // Warm up, then issue the slow RELOAD on a dedicated connection. It must
    // block this client for at least the injected drag while the hammers
    // keep being served.
    let mut admin = connect(addr);
    std::thread::sleep(Duration::from_millis(300));
    let issued = Instant::now();
    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir_b.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut admin, &reload), Response::Generation(2));
    let swapped = Instant::now();
    assert!(
        swapped - issued >= RELOAD_DRAG,
        "RELOAD returned before the injected drag elapsed"
    );

    // Keep hammering briefly past the swap, then stop and collect.
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Release);
    let mut all = Vec::new();
    for h in hammers {
        let seen = h.join().expect("hammer thread");
        // Per-connection requests are sequential, so each thread's admission
        // order is its send order: the generation it observes must flip at
        // most once, old → new, never back.
        let mut flipped = false;
        for obs in &seen {
            if obs.new_generation {
                flipped = true;
            } else {
                assert!(!flipped, "ranking flipped back to the old generation");
            }
        }
        all.extend(seen);
    }

    // Queries never stalled on the in-flight reload: replies landed inside
    // the drag window, and answered fast.
    let during = all
        .iter()
        .filter(|o| o.received > issued && o.received < swapped)
        .count();
    assert!(
        during >= 10,
        "only {during} probe replies during a {RELOAD_DRAG:?} reload window — queries blocked"
    );
    // Everything completed before the RELOAD was even issued is old…
    for obs in all.iter().filter(|o| o.received < issued) {
        assert!(
            !obs.new_generation,
            "new-generation ranking served before RELOAD was issued"
        );
    }
    // …and everything sent after the swap completed is new. A pre-swap
    // cache entry answering any of these would resurrect the old ranking —
    // exactly the staleness bug — and the probe query is cache-hot by
    // construction.
    let post_swap: Vec<_> = all.iter().filter(|o| o.sent > swapped).collect();
    assert!(!post_swap.is_empty(), "no observations after the swap");
    for obs in &post_swap {
        assert!(
            obs.new_generation,
            "old-generation ranking served after the swap (stale cache?)"
        );
    }

    let Response::Stats(pairs) = ask(&mut admin, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 2);
    assert_eq!(get_stat(&pairs, "reloads"), 1);
    assert_eq!(get_stat(&pairs, "reload_failures"), 0);
    assert!(
        get_stat(&pairs, "reload_p50_us") >= RELOAD_DRAG.as_micros() as u64,
        "reload latency histogram must include the dragged swap"
    );
    assert!(
        get_stat(&pairs, "cache_stale_evictions") >= 1,
        "the cache-hot probe entry must have been lazily evicted"
    );

    assert_eq!(ask(&mut admin, &Request::Shutdown), Response::Bye);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir_b);
}
