//! Property: the delta-scoped cache retag is sound. For an arbitrary
//! delta, every entry that survives `retag_after_update` under the new
//! generation is **bit-identical** to a fresh recomputation on the
//! post-delta engine, and every entry whose answer actually changed was
//! invalidated.
//!
//! The fixture is four disconnected eight-node islands, each with its own
//! topic and term, so random deltas leave some islands untouched — the
//! survive branch and the invalidate branch are both exercised on every
//! run, not just the trivial "flush everything" corner.

use pit::{Delta, PitEngine, SummarizerKind};
use pit_graph::{GraphBuilder, NodeId, TermId, TopicId};
use pit_server::cache::QueryCache;
use pit_server::QueryKey;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const ISLANDS: u32 = 4;
const ISLAND_SIZE: u32 = 8;
const NODES: u32 = ISLANDS * ISLAND_SIZE;
const K: usize = 4;

fn base_engine() -> Arc<PitEngine> {
    static BASE: OnceLock<Arc<PitEngine>> = OnceLock::new();
    Arc::clone(BASE.get_or_init(|| {
        let mut g = GraphBuilder::new(NODES as usize);
        let mut vocab = pit_topics::Vocabulary::new();
        let mut sb = pit_topics::TopicSpaceBuilder::new(NODES as usize, ISLANDS as usize);
        for isle in 0..ISLANDS {
            let base = isle * ISLAND_SIZE;
            // A ring plus one shortcut; plenty of fresh edges remain for
            // the deltas to add. Rings make influence mutual, so answers
            // carry nonzero scores and the bit-identity check below bites —
            // a chain's source-node rep degenerates every score to 0.0.
            for i in 0..ISLAND_SIZE {
                g.add_edge(NodeId(base + i), NodeId(base + (i + 1) % ISLAND_SIZE), 0.5)
                    .unwrap();
            }
            g.add_edge(NodeId(base), NodeId(base + 2), 0.4).unwrap();
            let term = vocab.intern(&format!("isle-{isle}"));
            let t = sb.add_topic(vec![term]);
            for i in 0..ISLAND_SIZE {
                sb.assign(NodeId(base + i), t);
            }
        }
        Arc::new(
            PitEngine::builder()
                .walk(pit_walk::WalkConfig::new(4, 8).with_seed(3))
                .propagation(pit_index::PropIndexConfig::with_theta(0.01))
                .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig::default()))
                .build_with_vocab(g.build().unwrap(), sb.build(), Some(vocab)),
        )
    }))
}

/// Ranking with exact bit representation of every score — `f64` compared
/// through `to_bits`, so "identical" means identical, not approximately.
fn ranking(engine: &PitEngine, user: u32, isle: u32) -> Vec<(u32, u64)> {
    engine
        .search_keywords(NodeId(user), &[&format!("isle-{isle}")], K)
        .expect("search")
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score.to_bits()))
        .collect()
}

/// One warmed cache entry: `(user, isle, key, generation-1 answer)`.
type Entry = (u32, u32, QueryKey, Vec<(u32, u64)>);

/// Every (user, island-term) query key against the base engine with its
/// generation-1 answer. Computed once; the base engine never mutates.
fn base_entries() -> &'static Vec<Entry> {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let base = base_engine();
        let vocab = base.vocab().expect("vocab");
        let mut out = Vec::new();
        for user in 0..NODES {
            for isle in 0..ISLANDS {
                let term: TermId = vocab.get(&format!("isle-{isle}")).expect("term");
                let key = QueryKey::new(user, K, vec![term]);
                out.push((user, isle, key, ranking(&base, user, isle)));
            }
        }
        out
    })
}

/// Turn raw samples into a delta valid against the base engine: in-range
/// endpoints, no self-loops, no duplicate or pre-existing edges. Edges may
/// cross islands — the scope is computed on the post-delta graph, so the
/// property must hold there too.
fn sanitize(
    base: &PitEngine,
    raw_edges: &[(u32, u32, f64)],
    raw_assignments: &[(u32, u32)],
) -> Delta {
    let mut chosen: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for &(u, v, p) in raw_edges {
        let u = NodeId(u % NODES);
        let start = v % NODES;
        let picked = (0..NODES).find_map(|step| {
            let cand = NodeId((start + step) % NODES);
            let fresh = cand != u
                && !base.graph().has_edge(u, cand)
                && !chosen.iter().any(|&(cu, cv, _)| (cu, cv) == (u, cand));
            fresh.then_some(cand)
        });
        if let Some(cand) = picked {
            chosen.push((u, cand, p));
        }
    }
    Delta {
        new_edges: chosen,
        new_assignments: raw_assignments
            .iter()
            .map(|&(u, t)| (NodeId(u % NODES), TopicId(t % ISLANDS)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn retag_survivors_are_bit_identical_and_changed_answers_die(
        raw_edges in proptest::collection::vec(
            (0u32..10_000, 0u32..10_000, 0.1f64..0.9), 1..=3),
        raw_assignments in proptest::collection::vec(
            (0u32..10_000, 0u32..10_000), 0..=2),
    ) {
        let base = base_engine();
        let delta = sanitize(&base, &raw_edges, &raw_assignments);
        // The islands are sparse (9 edges of 56 possible each), so the
        // sanitizer always finds a fresh edge for at least one sample.
        prop_assert!(!delta.is_empty());
        let (next, report) = base.with_delta(&delta).expect("apply delta");
        let scope = report.scope;

        // A cache warmed entirely under generation 1, then retagged by the
        // delta's scope exactly as the server's swap path does.
        let cache: QueryCache<Vec<(u32, u64)>> = QueryCache::new(1024);
        for (_, _, key, old) in base_entries() {
            cache.insert(key.clone(), 1, old.clone());
        }
        cache.retag_after_update(1, 2, &scope);

        let mut survived = 0u32;
        let mut invalidated = 0u32;
        for (user, isle, key, old) in base_entries() {
            let fresh = ranking(&next, *user, *isle);
            match cache.get(key, 2) {
                Some(served) => {
                    survived += 1;
                    // The soundness core: a survivor answers under the new
                    // generation, so it must equal the new engine's answer
                    // down to the last bit.
                    prop_assert_eq!(
                        &served, &fresh,
                        "survivor (user {}, isle {}) diverged from recompute \
                         under delta {:?} (scope {:?})",
                        user, isle, &delta, &scope
                    );
                }
                None => invalidated += 1,
            }
            if &fresh != old {
                // Redundant with the branch above (a surviving changed
                // answer already failed), stated directly for the record:
                // changed answers never survive.
                prop_assert!(
                    !cache.contains(key, 2),
                    "changed answer (user {}, isle {}) survived the retag",
                    user, isle
                );
            }
        }
        prop_assert_eq!(survived, cache.counters().survivors.get() as u32);
        prop_assert_eq!(survived + invalidated, base_entries().len() as u32);
    }
}
