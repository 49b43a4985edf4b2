//! Cache-invalidation integration drill against the real `pit` binary.
//!
//! The fixture is two disconnected islands, each with its own topic and
//! term, so an `UPDATE` adding an edge inside island B provably cannot
//! change any island-A answer. The drill proves the daemon exploits that:
//! the island-A entry keeps hitting across the UPDATE swap
//! (`cache_survivors` ≥ 1) while the island-B entry is invalidated with
//! the `edge-added` stale reason — and after a full `RELOAD` (blanket
//! flush), the bounded warmup job repopulates the hottest key before the
//! `GEN` reply lands.

mod common;

use common::{ask, connect, get_stat, query, scratch_dir, spawn_server, stat};
use pit::{store, PitEngine, SummarizerKind};
use pit_graph::NodeId;
use pit_server::protocol::{Admin, Request, Response, Successor};
use std::net::TcpStream;
use std::path::Path;

/// Two disconnected five-node ring islands with island-local topics and
/// terms. Rings, so influence is mutual and every node scores its island's
/// representative above zero; `weight` scales every edge, so different
/// weights give different rankings over the same shape and vocabulary.
fn build_island_engine(dir: &Path, weight: f64) -> PitEngine {
    let mut g = pit_graph::GraphBuilder::new(10);
    for &(a, b) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
        g.add_edge(NodeId(a), NodeId(b), weight).unwrap();
    }
    for &(a, b) in &[(5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (5, 7)] {
        g.add_edge(NodeId(a), NodeId(b), weight).unwrap();
    }
    let mut vocab = pit_topics::Vocabulary::new();
    let term_a = vocab.intern("island-a");
    let term_b = vocab.intern("island-b");
    let mut sb = pit_topics::TopicSpaceBuilder::new(10, 2);
    let t_a = sb.add_topic(vec![term_a]);
    for m in 0..5 {
        sb.assign(NodeId(m), t_a);
    }
    let t_b = sb.add_topic(vec![term_b]);
    for m in 5..10 {
        sb.assign(NodeId(m), t_b);
    }
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(4, 8).with_seed(3))
        .propagation(pit_index::PropIndexConfig::with_theta(0.01))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig::default()))
        .build_with_vocab(g.build().unwrap(), sb.build(), Some(vocab));
    store::save_engine(dir, &engine).expect("save engine");
    engine
}

fn topics(stream: &mut TcpStream, req: &Request) -> (Vec<(u32, f64)>, bool) {
    let Response::Topics { ranked, cached, .. } = ask(stream, req) else {
        panic!("expected topics for {req:?}");
    };
    (ranked, cached)
}

fn stats(stream: &mut TcpStream) -> Vec<(String, String)> {
    let Response::Stats(pairs) = ask(stream, &Request::Stats) else {
        panic!("expected stats");
    };
    pairs
}

fn island_ranking(engine: &PitEngine, user: u32, kw: &str) -> Vec<(u32, f64)> {
    engine
        .search_keywords(NodeId(user), &[kw], 3)
        .expect("offline search")
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect()
}

#[test]
fn update_spares_disjoint_entries_and_reload_warmup_repopulates_the_hottest() {
    let dir_a = scratch_dir("gen1");
    let dir_b = scratch_dir("gen2");
    let engine_a = build_island_engine(&dir_a, 0.5);
    let engine_b = build_island_engine(&dir_b, 0.8);
    let a_ranking = island_ranking(&engine_a, 4, "island-a");
    let b_ranking = island_ranking(&engine_b, 4, "island-a");
    assert_ne!(a_ranking, b_ranking, "fixture engines must disagree");

    let (mut child, addr) = spawn_server(
        &dir_a,
        &[
            "--workers",
            "2",
            "--cache",
            "32",
            "--warmup-budget-ms",
            "10000",
            "--warmup-top",
            "8",
        ],
    );
    let mut c = connect(&addr);

    // Warm both islands under generation 1; repeat island-A so it is the
    // hottest key in the frequency sketch.
    let disjoint = query(4, 3, "island-a");
    let affected = query(9, 3, "island-b");
    let (ranked, cached) = topics(&mut c, &disjoint);
    assert!(!cached);
    assert_eq!(ranked, a_ranking);
    for _ in 0..2 {
        let (_, cached) = topics(&mut c, &disjoint);
        assert!(cached, "repeat query must hit");
    }
    let (_, cached) = topics(&mut c, &affected);
    assert!(!cached);

    // UPDATE: a new edge strictly inside island B. The island-A entry must
    // keep hitting across the swap; the island-B entry must not.
    let update = Request::Admin(Admin::Install {
        next: Successor::Delta(pit::Delta {
            new_edges: vec![(NodeId(6), NodeId(9), 0.9)],
            new_assignments: vec![],
        }),
        commit: true,
    });
    assert_eq!(ask(&mut c, &update), Response::Generation(2));

    let (ranked, cached) = topics(&mut c, &disjoint);
    assert!(cached, "disjoint entry must survive a scoped UPDATE");
    assert_eq!(ranked, a_ranking, "survivor must keep the correct answer");
    let (_, cached) = topics(&mut c, &affected);
    assert!(!cached, "Γ-affected entry must be invalidated");

    let pairs = stats(&mut c);
    assert_eq!(get_stat(&pairs, "generation"), 2);
    assert!(get_stat(&pairs, "cache_survivors") >= 1);
    assert!(
        get_stat(&pairs, "cache_stale_edge_added") >= 1,
        "the island-B entry must carry the edge-added stale reason"
    );

    // RELOAD onto snapshot B: blanket flush, then the bounded warmup job
    // replays the hottest keys before the GEN reply is sent — so the very
    // first post-reload island-A query is a hit, with the *new* ranking.
    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir_b.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &reload), Response::Generation(3));

    let (ranked, cached) = topics(&mut c, &disjoint);
    assert!(cached, "warmup must repopulate the hottest key in budget");
    assert_eq!(ranked, b_ranking, "warm entry must carry the new ranking");

    let pairs = stats(&mut c);
    assert_eq!(get_stat(&pairs, "generation"), 3);
    assert!(get_stat(&pairs, "warmup_queries") >= 1);
    assert_eq!(
        get_stat(&pairs, "warmup_budget_exhausted"),
        0,
        "a 10s budget must cover a handful of tiny queries"
    );
    assert!(
        get_stat(&pairs, "cache_stale_full_reload") >= 1,
        "the RELOAD flush must be typed full-reload"
    );
    let coverage: f64 = stat(&pairs, "warmup_coverage")
        .parse()
        .expect("coverage is fractional");
    assert!(coverage > 0.0, "last warmup run must report coverage");

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn warmup_disabled_by_default_keeps_post_reload_queries_cold() {
    let dir = scratch_dir("cold");
    build_island_engine(&dir, 0.5);
    let (mut child, addr) = spawn_server(&dir, &["--workers", "2", "--cache", "16"]);
    let mut c = connect(&addr);

    let probe = query(0, 3, "island-a");
    let (_, cached) = topics(&mut c, &probe);
    assert!(!cached);
    let (_, cached) = topics(&mut c, &probe);
    assert!(cached);

    // Reload in place: without --warmup-budget-ms the cache stays cold.
    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &reload), Response::Generation(2));
    let (_, cached) = topics(&mut c, &probe);
    assert!(!cached, "no warmup was configured");

    let pairs = stats(&mut c);
    assert_eq!(get_stat(&pairs, "warmup_queries"), 0);

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}
