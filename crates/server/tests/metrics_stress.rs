//! Concurrency stress for the serving metrics: N threads hammering one
//! [`LatencyHistogram`] and the `STATS` counters must lose no sample — the
//! per-bucket totals equal the per-thread sums exactly, because every
//! observation is a single atomic `fetch_add` on its bucket — and a scrape
//! racing cache inserts must still report one consistent cache census.

#![allow(clippy::disallowed_types)]

use pit::{Delta, PitEngine, SummarizerKind};
use pit_graph::NodeId;
use pit_index::PropIndexConfig;
use pit_search_core::{CancelToken, NoTracer, SearchScratch};
use pit_server::{Admin, LatencyHistogram, ServerConfig, ServerState, Successor};
use pit_summarize::LrwConfig;
use pit_walk::WalkConfig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

/// The histogram's bucket layout, restated independently: 24 power-of-two
/// buckets, value 0 in bucket 0, value `v ≥ 1` in bucket
/// `floor(log2 v) + 1`, saturating into the catch-all.
const BUCKETS: usize = 24;

/// The exclusive upper bound of the bucket holding `value` — what
/// `quantile_micros` reports when the quantile lands in that bucket.
fn bucket_bound(value: u64) -> u64 {
    1u64 << (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Each thread writes into its own private bucket: thread `t` observes
/// `2^(2t)` µs, which lands in bucket `2t + 1` (buckets cover
/// `[2^(i-1), 2^i)` µs). Disjoint targets make the final assertion exact:
/// any lost update would show up as a short bucket.
#[test]
fn histogram_loses_no_sample_across_threads() {
    let h = Arc::new(LatencyHistogram::new());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let h = Arc::clone(&h);
        handles.push(std::thread::spawn(move || {
            let micros = 1u64 << (2 * t);
            for _ in 0..PER_THREAD {
                h.observe(Duration::from_micros(micros));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("observer thread");
    }

    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    let buckets = h.bucket_counts();
    for t in 0..THREADS {
        assert_eq!(
            buckets[2 * t + 1],
            PER_THREAD,
            "thread {t}'s bucket lost samples"
        );
    }
    let touched: Vec<usize> = (0..THREADS).map(|t| 2 * t + 1).collect();
    for (i, &count) in buckets.iter().enumerate() {
        if !touched.contains(&i) {
            assert_eq!(count, 0, "bucket {i} was never written");
        }
    }
}

/// All threads contend on the *same* bucket: the total must still be exact.
#[test]
fn histogram_survives_single_bucket_contention() {
    let h = Arc::new(LatencyHistogram::new());
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let h = Arc::clone(&h);
        handles.push(std::thread::spawn(move || {
            for _ in 0..PER_THREAD {
                h.observe(Duration::from_micros(100));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("observer thread");
    }
    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    // 100µs lands in bucket 7 ([64, 128)); everything should be there.
    assert_eq!(h.bucket_counts()[7], THREADS as u64 * PER_THREAD);
}

/// A server state over a 250-user engine, for the tests that need the
/// rendered replies rather than a bare histogram.
fn tiny_state() -> Arc<ServerState> {
    let spec = pit_datasets::DatasetSpec {
        name: "metrics-stress".to_string(),
        nodes: 250,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(250, 17),
        seed: 17,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = PitEngine::builder()
        .walk(WalkConfig::new(3, 8).with_seed(2))
        .propagation(PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(LrwConfig {
            rep_count: Some(8),
            ..LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    let config = ServerConfig {
        cache_capacity: 4096,
        ..ServerConfig::default()
    };
    Arc::new(ServerState::new(Arc::new(engine), config))
}

/// The `STATS` counters under the same hammering: per-thread bump counts
/// must sum exactly, and the rendered reply must agree with the atomics.
#[test]
fn counters_sum_exactly_across_threads() {
    let state = tiny_state();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let state = Arc::clone(&state);
        handles.push(std::thread::spawn(move || {
            let m = state.metrics();
            for i in 0..PER_THREAD {
                m.queries.inc();
                if i % 3 == 0 {
                    m.shed.inc();
                }
                if t == 0 && i % 7 == 0 {
                    m.timeouts.inc();
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("bumper thread");
    }

    let expected_queries = THREADS as u64 * PER_THREAD;
    let expected_shed = THREADS as u64 * PER_THREAD.div_ceil(3);
    let expected_timeouts = PER_THREAD.div_ceil(7);
    let m = state.metrics();
    assert_eq!(m.queries.get(), expected_queries);
    assert_eq!(m.shed.get(), expected_shed);
    assert_eq!(m.timeouts.get(), expected_timeouts);

    let stats = state.stats();
    let get = |name: &str| -> String {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing stat {name}"))
    };
    assert_eq!(get("queries"), expected_queries.to_string());
    assert_eq!(get("shed"), expected_shed.to_string());
    assert_eq!(get("timeouts"), expected_timeouts.to_string());
}

/// One scrape reads the cache once: however many inserts and swaps race
/// it, the entry count it reports is the sum of the live and stale counts
/// it reports.
#[test]
fn a_scrape_racing_inserts_reports_one_cache_census() {
    let state = tiny_state();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || {
            let mut scratch = SearchScratch::new();
            // Distinct (user, k) per iteration: every execution inserts.
            for i in (t..).step_by(4) {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let current = state.current();
                let key = state
                    .make_key(
                        &*current.engine,
                        i % 250,
                        1 + (i / 250 % 8) as usize,
                        &["query-0".to_string()],
                    )
                    .expect("valid query");
                let cancel = CancelToken::none();
                let _ = state.try_execute(&current, &key, &cancel, &mut NoTracer, &mut scratch);
            }
        }));
    }
    let mut saw_stale = false;
    for round in 0..300u32 {
        if round % 100 == 50 {
            // A scoped swap kills the entries it touches: stale > 0.
            let delta = Delta {
                new_edges: vec![(NodeId(round % 7), NodeId(100 + round % 11), 0.5)],
                new_assignments: Vec::new(),
            };
            let update = Admin::Install {
                next: Successor::Delta(delta),
                commit: true,
            };
            state.admin(&update).expect("valid delta");
        }
        let body = state.metrics_text();
        let get = |name: &str| -> u64 {
            let line = body
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
            line.unwrap_or_else(|| panic!("no sample {name}"))
                .parse()
                .expect("integer gauge")
        };
        let (live, stale) = (
            get("pit_cache_entries_live"),
            get("pit_cache_entries_stale"),
        );
        assert_eq!(get("pit_cache_entries"), live + stale, "round {round}");
        saw_stale |= stale > 0;
    }
    stop.store(true, Ordering::Release);
    for handle in handles {
        handle.join().expect("inserter thread");
    }
    assert!(saw_stale, "the swaps never left a stale entry to count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `quantile_micros` is monotone in `q`: a higher quantile can never
    /// report a lower bound. Exercised over the full value range the work
    /// histograms see (0, small counts, huge latencies past the catch-all).
    #[test]
    fn quantile_is_monotone_in_q(
        values in proptest::collection::vec(0u64..(1u64 << 40), 1..=200),
        qs in proptest::collection::vec(0.0f64..1.0, 2..=8),
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.observe_value(v);
        }
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        let bounds: Vec<u64> = qs.iter().map(|&q| h.quantile_micros(q)).collect();
        for pair in bounds.windows(2) {
            prop_assert!(
                pair[0] <= pair[1],
                "quantile not monotone: {bounds:?} for qs {qs:?}"
            );
        }
    }

    /// Every quantile is at least the observed minimum's bucket bound (and
    /// at most the maximum's): the report can be coarse, but it can never
    /// point below where any sample actually landed.
    #[test]
    fn quantile_never_undershoots_the_minimum(
        values in proptest::collection::vec(0u64..(1u64 << 40), 1..=200),
        q in 0.0f64..1.0,
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.observe_value(v);
        }
        let min = *values.iter().min().expect("nonempty");
        let max = *values.iter().max().expect("nonempty");
        let got = h.quantile_micros(q);
        prop_assert!(
            got >= bucket_bound(min),
            "quantile {q} reported {got} below the minimum {min}'s bucket bound {}",
            bucket_bound(min)
        );
        prop_assert!(
            got <= bucket_bound(max),
            "quantile {q} reported {got} above the maximum {max}'s bucket bound {}",
            bucket_bound(max)
        );
    }

    /// Conservation under concurrent `observe_value` (the path the new
    /// work/stage histograms use): per-bucket totals and `_sum` must equal
    /// the per-thread contributions exactly — no lost updates, no drift
    /// between the bucket array and the sum.
    #[test]
    fn observe_value_conserves_buckets_and_sum_concurrently(
        per_thread in proptest::collection::vec(0u64..(1u64 << 30), 4..=4),
    ) {
        const ROUNDS: u64 = 2_000;
        let h = Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for &value in &per_thread {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    h.observe_value(value);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("observer thread");
        }
        prop_assert_eq!(h.count(), per_thread.len() as u64 * ROUNDS);
        let expected_sum: u64 = per_thread.iter().map(|&v| v * ROUNDS).sum();
        prop_assert_eq!(h.sum_value(), expected_sum);
        // Recompute the bucket totals independently and compare exactly.
        let mut expected = vec![0u64; BUCKETS];
        for &v in &per_thread {
            expected[(64 - v.leading_zeros() as usize).min(BUCKETS - 1)] += ROUNDS;
        }
        prop_assert_eq!(h.bucket_counts(), expected);
    }
}
