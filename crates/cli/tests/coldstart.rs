//! Cold-start drill against the real `pit` binary: a serving process must
//! go from "flat snapshot on disk" to "first query answered" inside a
//! pinned budget, and `RELOAD` onto a flat snapshot must be an order of
//! magnitude cheaper than the owned (deep-copy + deep-validate) load of
//! the same snapshot, measured in the same process profile.
//!
//! The fixture is array-dominated (large Γ at θ = 0.01, R = 32, few small
//! topics) — the shape the flat format exists for: at production scale the
//! Γ tables dwarf every other artifact, so mapping them in place instead
//! of copying is what turns a reload from seconds into milliseconds.
//! CI runs this as the `coldstart-integration` job.

mod common;

use common::{ask, connect, get_stat, query, scratch_dir, spawn_server, stat};
use pit::{store, PitEngine};
use pit_server::protocol::{Admin, Request, Response, Successor};
use pit_topics::SyntheticTopicConfig;
use std::path::Path;
use std::time::{Duration, Instant};

/// Build an array-dominated engine snapshot: 4 000 nodes, large Γ, small
/// topic space. Different seeds give different graphs so a RELOAD swap is
/// a real generation change.
fn build_snapshot(dir: &Path, seed: u64) {
    let spec = pit_datasets::DatasetSpec {
        name: format!("coldstart-it-{seed}"),
        nodes: 4_000,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: SyntheticTopicConfig {
            topic_count: 100,
            query_term_count: 8,
            tail_term_count: 100,
            terms_per_topic: 4,
            topics_per_node_mean: 2.0,
            zipf_exponent: 0.9,
            seed,
        },
        seed,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(5, 32).with_seed(4))
        .propagation(pit_index::PropIndexConfig::with_theta(0.01))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    store::save_engine(dir, &engine).expect("save engine");
}

/// The whole spawn-to-first-reply budget. Debug builds on a loaded CI core
/// are slow at everything *except* the thing under test (the mapped load),
/// so the pin is generous in absolute terms — the sharp assertion is the
/// reload-vs-owned ratio below, which is profile-independent.
const FIRST_QUERY_BUDGET: Duration = Duration::from_secs(10);
const RELOADS: u64 = 6;

#[test]
fn flat_coldstart_drill() {
    let dir_a = scratch_dir("drill-a");
    let dir_b = scratch_dir("drill-b");
    build_snapshot(&dir_a, 17);
    build_snapshot(&dir_b, 23);

    // Owned-load baseline, measured in this process: best of three, so a
    // cold page cache or a scheduler hiccup can't inflate the denominator
    // in the flat loader's favor.
    let owned_us = (0..3)
        .map(|_| {
            let t = Instant::now();
            let engine = store::load_engine_owned(&dir_a).expect("owned load");
            assert_eq!(engine.snapshot_format(), "owned");
            t.elapsed().as_micros() as u64
        })
        .min()
        .unwrap();

    // Spawn-to-first-reply: the serving process validates the snapshot
    // (checksummed mapped load), binds, and must answer a real query
    // inside the pinned budget.
    let spawn_started = Instant::now();
    let (mut child, addr) = spawn_server(&dir_a, &["--workers", "2"]);
    let mut c = connect(&addr);
    let first = ask(&mut c, &query(7, 5, "query-0"));
    let to_first_reply = spawn_started.elapsed();
    let Response::Topics { ranked, .. } = first else {
        panic!("first query failed: {first:?}");
    };
    assert!(!ranked.is_empty(), "first query returned no topics");
    assert!(
        to_first_reply <= FIRST_QUERY_BUDGET,
        "spawn to first reply took {to_first_reply:?} (budget {FIRST_QUERY_BUDGET:?})"
    );

    // The resident engine is the mapped flat load, not a copy.
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(stat(&pairs, "snapshot_format"), "flat-mapped");
    let Response::Metrics(body) = ask(&mut c, &Request::Metrics) else {
        panic!("expected metrics");
    };
    let mapped_gauge = body
        .lines()
        .find(|l| l.starts_with("pit_reload_bytes_mapped "))
        .unwrap_or_else(|| panic!("pit_reload_bytes_mapped missing from:\n{body}"));
    let mapped: u64 = mapped_gauge
        .split_whitespace()
        .nth(1)
        .expect("gauge value")
        .parse()
        .expect("gauge numeric");
    assert!(mapped > 0, "flat-mapped engine reports zero mapped bytes");

    // RELOAD drill: swap back and forth between the two snapshots. Every
    // reload is a fast mapped load; the latency histogram must sit an
    // order of magnitude under the owned baseline — tail, not median.
    for i in 0..RELOADS {
        let dir = if i % 2 == 0 { &dir_b } else { &dir_a };
        let reply = ask(
            &mut c,
            &Request::Admin(Admin::Install {
                next: Successor::Snapshot(dir.clone()),
                commit: true,
            }),
        );
        assert_eq!(reply, Response::Generation(i + 2), "reload {i} failed");
    }
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "reloads"), RELOADS);
    assert_eq!(get_stat(&pairs, "reload_failures"), 0);
    assert_eq!(stat(&pairs, "snapshot_format"), "flat-mapped");
    let reload_p99_us = get_stat(&pairs, "reload_p99_us");
    assert!(
        reload_p99_us.saturating_mul(10) <= owned_us,
        "flat reload p99 {reload_p99_us}µs not 10x under the owned baseline {owned_us}µs"
    );

    // Queries still answer after the drill, on the final generation.
    let Response::Topics { ranked, .. } = ask(&mut c, &query(7, 5, "query-0")) else {
        panic!("query after reload drill failed");
    };
    assert!(!ranked.is_empty());

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
