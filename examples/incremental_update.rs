//! Incremental maintenance: the social network changes, the engine keeps up.
//!
//! Section 4.4 notes that "the offline pre-processing is updated after a
//! period of time when the social network and topics have changed". This
//! example builds an engine over the Figure-1 network, then applies two
//! deltas — a new follow edge and a new topic mention — and shows how the
//! personalized results shift while only the affected artifacts were
//! refreshed. It also round-trips the updated engine through the on-disk
//! store.
//!
//! ```text
//! cargo run --release --example incremental_update
//! ```

use pit::{Delta, PitEngine, SummarizerKind};
use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
use pit_graph::TopicId;
use pit_index::PropIndexConfig;
use pit_walk::WalkConfig;

const PHONES: [&str; 3] = ["Apple Phone", "Samsung Phone", "HTC Phone"];

fn print_top(engine: &PitEngine, label: &str) {
    let phone = engine.vocab().expect("vocab kept").get("phone").unwrap();
    println!("{label}");
    for u in [3u32, 7] {
        let out = engine.search(&pit_topics::KeywordQuery::new(user(u), vec![phone]), 1);
        let s = &out.top_k[0];
        println!(
            "  user {u}: {} (influence {:.4})",
            PHONES[s.topic.index()],
            s.score
        );
    }
}

fn main() {
    // Offline build, identical to the quickstart.
    let graph = figure1_graph();
    let mut vocab = pit_topics::Vocabulary::new();
    let phone = vocab.intern("phone");
    let mut b = pit_topics::TopicSpaceBuilder::new(graph.node_count(), 1);
    for members in &figure1_topics() {
        let t = b.add_topic(vec![phone]);
        for &m in members {
            b.assign(m, t);
        }
    }
    let engine = PitEngine::builder()
        .walk(WalkConfig::new(4, 64).with_seed(42))
        .propagation(PropIndexConfig::with_theta(0.005))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            lambda: 0.2,
            mu: 1.0,
            ..Default::default()
        }))
        .build_with_vocab(graph, b.build(), Some(vocab));

    print_top(&engine, "before any change:");

    // Delta 1: user 4 (a Samsung advocate) starts influencing user 7.
    let (engine, report) = engine
        .with_delta(&Delta {
            new_edges: vec![(user(4), user(7), 0.9)],
            new_assignments: vec![],
        })
        .expect("valid delta");
    println!(
        "\ndelta 1 applied: {} Γ tables refreshed, {} topics re-summarized",
        report.refreshed_gamma_tables, report.resummarized_topics
    );
    print_top(&engine, "after user 4 → user 7 (0.9):");

    // Delta 2: user 5 — user 3's strongest influencer — starts talking
    // about HTC phones.
    let (engine, report) = engine
        .with_delta(&Delta {
            new_edges: vec![],
            new_assignments: vec![(user(5), TopicId(2))],
        })
        .expect("valid delta");
    println!(
        "\ndelta 2 applied: {} Γ tables refreshed, {} topics re-summarized",
        report.refreshed_gamma_tables, report.resummarized_topics
    );
    print_top(&engine, "after user 5 starts mentioning HTC:");

    // Persist the updated engine and reload it — results survive.
    let dir = std::env::temp_dir().join("pit-incremental-example");
    pit::store::save_engine(&dir, &engine).expect("save");
    let reloaded = pit::store::load_engine(&dir).expect("load");
    print_top(&reloaded, "\nreloaded from disk:");
    std::fs::remove_dir_all(&dir).ok();
}
