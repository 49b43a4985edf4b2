//! Bit-identity of the zero-copy loaders: for arbitrary generated graphs
//! and topic assignments, the engine served from a mapped flat snapshot
//! must answer every query exactly like the engine it was saved from and
//! like the deep-copying owned loader — same topics, same order, same
//! score *bits*, same work counters. This is the proof that borrowing the
//! index arrays straight out of the file mapping changes nothing about
//! query semantics, only about load cost.

#![allow(clippy::disallowed_types)]

use pit::engine::PitEngine;
use pit::store;
use pit_graph::{GraphBuilder, NodeId, TermId};
use pit_topics::TopicSpaceBuilder;
use pit_walk::WalkConfig;
use proptest::prelude::*;
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A random small directed graph plus a random topic assignment.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    /// topic -> member node ids.
    topics: Vec<Vec<u32>>,
    seed: u64,
}

fn instance() -> impl Strategy<Value = Instance> {
    (4usize..=12).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..0.9f64)
            .prop_filter("no self-loops", |(a, b, _)| a != b);
        let edges = proptest::collection::vec(edge, n..3 * n).prop_map(move |mut es| {
            let mut seen = FxHashSet::default();
            es.retain(|&(a, b, _)| seen.insert((a, b)));
            es
        });
        let topic = proptest::collection::vec(0..n as u32, 1..=4).prop_map(|mut t| {
            t.sort_unstable();
            t.dedup();
            t
        });
        let topics = proptest::collection::vec(topic, 2..=4);
        (edges, topics, 0u64..1024).prop_map(move |(edges, topics, seed)| Instance {
            n,
            edges,
            topics,
            seed,
        })
    })
}

fn build_engine(inst: &Instance) -> PitEngine {
    let mut b = GraphBuilder::new(inst.n);
    for &(u, v, p) in &inst.edges {
        b.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    let graph = b.build().unwrap();
    let mut tb = TopicSpaceBuilder::new(inst.n, 1);
    for members in &inst.topics {
        let t = tb.add_topic(vec![TermId(0)]);
        for &m in members {
            tb.assign(NodeId(m), t);
        }
    }
    PitEngine::builder()
        .walk(WalkConfig::new(3, 8).with_seed(inst.seed))
        .build(graph, tb.build())
}

/// Everything a query answer consists of, exact to the bit: ranked topic
/// ids, score bit patterns, and the work counters the paper reports.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    ranked: Vec<(u32, u64)>,
    candidate_topics: usize,
    pruned_topics: usize,
    expand_rounds: usize,
    probed_tables: usize,
    loaded_reps: usize,
}

fn answer(engine: &PitEngine, u: u32, k: usize) -> Answer {
    let out = engine.search_user_term(NodeId(u), TermId(0), k);
    Answer {
        ranked: out
            .top_k
            .iter()
            .map(|s| (s.topic.0, s.score.to_bits()))
            .collect(),
        candidate_topics: out.candidate_topics,
        pruned_topics: out.pruned_topics,
        expand_rounds: out.expand_rounds,
        probed_tables: out.probed_tables,
        loaded_reps: out.loaded_reps,
    }
}

fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pit-flat-identity-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mapped, fast-mapped, and owned loads of the same snapshot answer
    /// every (user, k) bit-identically to the engine that was saved.
    #[test]
    fn flat_loaders_are_bit_identical(inst in instance(), k in 1usize..=5) {
        let built = build_engine(&inst);
        let dir = scratch_dir();
        store::save_engine(&dir, &built).unwrap();
        let mapped = store::load_engine(&dir).unwrap();
        let fast = store::load_engine_fast(&dir).unwrap();
        let owned = store::load_engine_owned(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(mapped.snapshot_format(), "flat-mapped");
        prop_assert_eq!(owned.snapshot_format(), "owned");
        prop_assert!(mapped.mapped_bytes() > 0, "no arrays were mapped");

        for u in 0..inst.n as u32 {
            let want = answer(&built, u, k);
            prop_assert_eq!(
                answer(&mapped, u, k), want.clone(),
                "mapped load diverged at user {} (k={})", u, k
            );
            prop_assert_eq!(
                answer(&fast, u, k), want.clone(),
                "fast load diverged at user {} (k={})", u, k
            );
            prop_assert_eq!(
                answer(&owned, u, k), want,
                "owned load diverged at user {} (k={})", u, k
            );
        }
    }
}

/// The on-disk bytes are a contract between the offline build and every
/// later `pit serve`: the Figure-1 engine with a fixed walk seed must
/// encode to exactly these bytes, whatever the codecs look like inside.
/// A changed constant here means old snapshots and corpora stop loading —
/// that is a format version bump, not a refactor.
#[test]
fn codec_bytes_are_pinned() {
    use pit_graph::fixtures::{figure1_graph, figure1_topics};
    use pit_store::fnv64_words;

    let graph = figure1_graph();
    let mut vocab = pit_topics::Vocabulary::new();
    let phone = vocab.intern("phone");
    let mut tb = TopicSpaceBuilder::new(graph.node_count(), 1);
    for members in &figure1_topics() {
        let t = tb.add_topic(vec![phone]);
        for &m in members {
            tb.assign(m, t);
        }
    }
    let engine = PitEngine::builder()
        .walk(WalkConfig::new(4, 16).with_seed(3))
        .build_with_vocab(graph, tb.build(), Some(vocab));

    let dir = scratch_dir();
    store::save_engine(&dir, &engine).unwrap();
    let flat = std::fs::read(dir.join(store::FLAT_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let graph = pit_graph::snapshot::encode(engine.graph());
    let space = pit_topics::snapshot::encode_space(engine.space());
    let vocab = pit_topics::snapshot::encode_vocab(engine.vocab().expect("built with one"));
    let reps = pit_search_core::snapshot::encode(engine.reps());
    // Recorded from the parent of the ByteReader rewrite (commit de46591).
    for (name, bytes, want) in [
        ("graph.pitg", &*graph, 0x0665_b49a_29c1_ed82_u64),
        ("topics.pitt", &*space, 0x9b37_f66a_5fad_9db2),
        ("vocab.pitv", &*vocab, 0xb07c_420e_9c6e_b943),
        ("reps blob", &*reps, 0x3572_2b72_2257_91a5),
        ("engine.pitf", &*flat, 0x8594_7b18_9580_7ffe),
    ] {
        let got = fnv64_words(bytes);
        assert_eq!(got, want, "{name} hashes to {got:#018x}");
    }
}
