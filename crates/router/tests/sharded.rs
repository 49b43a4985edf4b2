//! The router's core guarantees, proven against in-process shards:
//!
//! 1. **Bit-identity.** For any shard count, the sharded top-k equals the
//!    single-node top-k bit-for-bit — same topics, same order, same `f64`
//!    score bits, same work counters — because both run the one shared
//!    search state machine.
//! 2. **Cross-shard pruning.** On the paper's Figure-3 / §5.2 fixture with
//!    two shards, the top-1 query from user 8 settles without ever probing
//!    the shard owning the marked frontier node — `shards_pruned == 1`.
//! 3. **Honest partials.** A shard failing mid-query is reported exactly
//!    once with its taxonomy word; a failing *home* shard fails the whole
//!    query rather than degrade silently.
//! 4. **Generation coherence.** After the fleet commits a new generation, a
//!    router still holding the old generation vector refuses to answer —
//!    a mixed-generation ranking is structurally impossible.

use pit::shard::{slice_engine, split_snapshot};
use pit::{shard_of, Delta, PitEngine, ShardSpec, SummarizerKind};
use pit_graph::fixtures::{self, user, FIGURE3_THETA};
use pit_graph::{TermId, TopicId};
use pit_index::{PropIndexConfig, PropagationIndex};
use pit_router::{LocalTransport, ShardError, ShardTransport, ShardedEngine};
use pit_search_core::{CancelToken, NoTracer, SearchScratch, TopicRepIndex};
use pit_server::{Admin, LocalServeEngine, ServeEngine, ServeError, ServeOutcome, Successor};
use pit_summarize::RepresentativeSet;
use pit_topics::{KeywordQuery, TopicSpaceBuilder};
use pit_walk::{WalkConfig, WalkIndex, WalkIndexParts};
use std::sync::Arc;
use std::time::Instant;
use support::scratch_dir;

#[path = "../../server/tests/support/mod.rs"]
mod support;

/// The §5.2 worked-trace engine: Figure-3 graph, the paper's given rep
/// sets (S1 = {1,3,5,12} w=0.25, S2 = {7,9,10} w=⅓, S3 = {2,4,6} w=⅓),
/// θ = 0.05.
fn fig3_engine() -> PitEngine {
    let g = fixtures::figure3_graph();
    let mut b = TopicSpaceBuilder::new(g.node_count(), 1);
    for _ in 0..3 {
        let t = b.add_topic(vec![TermId(0)]);
        b.assign(user(1), t);
    }
    let space = b.build();
    let prop = PropagationIndex::build(&g, PropIndexConfig::with_theta(FIGURE3_THETA));
    let weights = [0.25, 1.0 / 3.0, 1.0 / 3.0];
    let sets = fixtures::figure3_rep_sets()
        .iter()
        .enumerate()
        .map(|(i, nodes)| {
            RepresentativeSet::new(
                TopicId::from_index(i),
                nodes.iter().map(|&n| (n, weights[i])).collect(),
            )
        })
        .collect();
    let reps = TopicRepIndex::from_sets(sets);
    let walks = WalkIndex::build_parts(
        &g,
        WalkConfig::new(3, 8).with_seed(5),
        WalkIndexParts::FOR_LRW,
    );
    PitEngine::from_parts(
        g,
        space,
        None,
        walks,
        prop,
        reps,
        SummarizerKind::default_lrw(),
        8,
    )
}

fn search(engine: &dyn ServeEngine, query: &KeywordQuery, k: usize) -> ServeOutcome {
    engine
        .try_search(
            query,
            k,
            &CancelToken::none(),
            &mut NoTracer,
            &mut SearchScratch::new(),
        )
        .expect("search succeeds")
}

/// Topics, order, and score *bits* must all agree, as must the driver's
/// work counters — the sharded run is the same algorithm, not a lookalike.
fn assert_bit_identical(single: &ServeOutcome, sharded: &ServeOutcome, context: &str) {
    assert!(
        sharded.partial.is_empty(),
        "{context}: unexpected partial {:?}",
        sharded.partial
    );
    let bits = |o: &ServeOutcome| -> Vec<(u32, u64)> {
        o.ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
    };
    assert_eq!(bits(single), bits(sharded), "{context}: rankings diverge");
    assert_eq!(
        single.stats, sharded.stats,
        "{context}: work counters diverge"
    );
}

#[test]
fn fig3_sharded_topk_is_bit_identical_for_every_layout() {
    let engine = Arc::new(fig3_engine());
    let single = LocalServeEngine::full(Arc::clone(&engine));
    for shards in 1..=4u32 {
        let router = ShardedEngine::split(&engine, shards);
        for u in 1..=12u32 {
            for k in 1..=3usize {
                let q = KeywordQuery::new(user(u), vec![TermId(0)]);
                assert_bit_identical(
                    &search(&single, &q, k),
                    &search(&router, &q, k),
                    &format!("user {u}, k {k}, {shards} shards"),
                );
            }
        }
    }
}

#[test]
fn fig3_two_shards_top1_prunes_the_idle_shard() {
    // The §5.2 trace from user 8: the top-1 settles on t2 directly from
    // Γ(8), leaving marked node 11 unexpanded. Its owner shard differs from
    // user 8's home shard under a 2-way split, so the router never contacts
    // it — that is cross-shard upper-bound pruning, and the counter says so.
    let home = shard_of(user(8), 2);
    let idle = shard_of(user(11), 2);
    assert_ne!(
        home, idle,
        "fixture relies on the 2-way split separating them"
    );

    let engine = Arc::new(fig3_engine());
    let router = ShardedEngine::split(&engine, 2);
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    let out = search(&router, &q, 1);
    assert_eq!(out.ranked[0].0, 1, "t2 must win the §5.2 trace");
    assert_eq!(
        out.shards_pruned, 1,
        "the idle shard must be counted pruned"
    );
    assert!(out.partial.is_empty());
    // Exactly one shard was contacted: the home shard.
    let probed: Vec<u32> = out.fanout_micros.iter().map(|&(s, _)| s).collect();
    assert_eq!(probed, vec![home]);
}

/// A shard backend that is reachable (answers `SHARD`) but fails every
/// `EXPAND` with a fixed taxonomy error.
struct FailingShard {
    index: u32,
    count: u32,
    error: ShardError,
}

impl ShardTransport for FailingShard {
    fn location(&self) -> String {
        format!("failing-shard-{}", self.index)
    }

    fn shard_info(&self) -> Result<(u32, u32, u64), ShardError> {
        Ok((self.index, self.count, 1))
    }

    fn expand(
        &self,
        _gen: u64,
        _terms: &[u32],
        _probes: &[(u32, f64)],
        _deadline: Option<Instant>,
    ) -> Result<(Vec<pit_server::protocol::ProbeTable>, f64), ShardError> {
        Err(self.error.clone())
    }

    fn admin(&self, admin: &Admin) -> Result<Option<u64>, ShardError> {
        match admin {
            Admin::Abort => Ok(Some(1)),
            _ => Err(self.error.clone()),
        }
    }
}

fn local_shard(engine: &Arc<PitEngine>, spec: ShardSpec) -> Arc<dyn ShardTransport> {
    let slice = Arc::new(slice_engine(engine, spec));
    Arc::new(LocalTransport::new(Arc::new(LocalServeEngine::sharded(
        slice, spec,
    ))))
}

/// A generated engine big enough that searches expand across shards —
/// the Figure-3 fixture is too small to ever probe two shards in one query.
fn dataset_engine() -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: "router-partials".to_string(),
        nodes: 250,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(250, 23),
        seed: 23,
    };
    let ds = pit_datasets::generate(&spec);
    PitEngine::builder()
        .walk(WalkConfig::new(3, 8).with_seed(4))
        .propagation(PropIndexConfig::with_theta(0.02))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab))
}

/// Find a query whose healthy 2-shard scatter provably probes both shards,
/// returning it with the shard that is *not* the query user's home.
fn cross_shard_query(engine: &Arc<PitEngine>) -> (KeywordQuery, usize, u32) {
    let router = ShardedEngine::split(engine, 2);
    let k = 5;
    for u in 0..engine.graph().node_count() as u32 {
        let q = KeywordQuery::new(pit_graph::NodeId(u), vec![TermId(0)]);
        let out = search(&router, &q, k);
        if out.fanout_micros.len() == 2 {
            let home = shard_of(pit_graph::NodeId(u), 2);
            return (q, k, 1 - home);
        }
    }
    panic!("dataset fixture produced no cross-shard query; regenerate it");
}

#[test]
fn dead_secondary_shard_yields_an_honest_partial() {
    // A query known to expand into its non-home shard, whose owner times
    // out on every probe. The reply must carry the ranking the healthy
    // shard could prove, flagged partial exactly once.
    let engine = Arc::new(dataset_engine());
    let (q, k, dead) = cross_shard_query(&engine);
    let shards: Vec<Arc<dyn ShardTransport>> = (0..2u32)
        .map(|i| {
            if i == dead {
                Arc::new(FailingShard {
                    index: i,
                    count: 2,
                    error: ShardError::Timeout,
                }) as Arc<dyn ShardTransport>
            } else {
                local_shard(&engine, ShardSpec::new(i, 2))
            }
        })
        .collect();
    let router = ShardedEngine::assemble(Arc::clone(&engine), shards).expect("assemble");
    let out = search(&router, &q, k);
    assert_eq!(
        out.partial,
        vec![(dead, "timeout".to_string())],
        "one partial entry, taxonomy word, no duplicates"
    );
    assert!(!out.ranked.is_empty(), "the healthy shard still answers");
    assert_eq!(out.shards_pruned, 0, "a dead shard is partial, not pruned");
}

#[test]
fn dead_home_shard_fails_the_query_instead_of_degrading() {
    let engine = Arc::new(fig3_engine());
    let home = shard_of(user(8), 2);
    let shards: Vec<Arc<dyn ShardTransport>> = (0..2u32)
        .map(|i| {
            if i == home {
                Arc::new(FailingShard {
                    index: i,
                    count: 2,
                    error: ShardError::Overloaded,
                }) as Arc<dyn ShardTransport>
            } else {
                local_shard(&engine, ShardSpec::new(i, 2))
            }
        })
        .collect();
    let router = ShardedEngine::assemble(Arc::clone(&engine), shards).expect("assemble");
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    let err = router
        .try_search(
            &q,
            1,
            &CancelToken::none(),
            &mut NoTracer,
            &mut SearchScratch::new(),
        )
        .expect_err("a seedless search must fail");
    let ServeError::Shard(reason) = err else {
        panic!("expected a shard error, got a search error");
    };
    assert!(
        reason.contains(&format!("home shard {home}")),
        "reason names the home shard: {reason}"
    );
}

#[test]
fn assemble_rejects_a_miswired_fleet() {
    let engine = Arc::new(fig3_engine());
    // Backend 1 mounted in slot 0: the layout check must refuse it.
    let shards: Vec<Arc<dyn ShardTransport>> = vec![
        local_shard(&engine, ShardSpec::new(1, 2)),
        local_shard(&engine, ShardSpec::new(1, 2)),
    ];
    let Err(err) = ShardedEngine::assemble(Arc::clone(&engine), shards) else {
        panic!("a miswired fleet must be refused");
    };
    assert!(err.contains("wrong backend wiring"), "{err}");
}

#[test]
fn stale_generation_vector_refuses_to_answer() {
    // Two routers over the *same* live fleet. After the fleet commits a new
    // generation via one of them, the other still holds the old generation
    // vector; its probes must be refused, not silently answered from the
    // new tables.
    let engine = Arc::new(fig3_engine());
    let shards: Vec<Arc<dyn ShardTransport>> = (0..2u32)
        .map(|i| local_shard(&engine, ShardSpec::new(i, 2)))
        .collect();
    let stale = ShardedEngine::assemble(Arc::clone(&engine), shards.clone()).expect("assemble");
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    let before = search(&stale, &q, 1);

    let delta = Delta {
        new_edges: Vec::new(),
        new_assignments: vec![(user(2), TopicId(0))],
    };
    let (fresh, _scope) = stale
        .successor(&Successor::Delta(delta.clone()), true)
        .expect("fleet update");

    // The fresh router answers, bit-identical to a single node over the
    // updated engine (the meta engine applies the same delta).
    let (updated, _) = engine.with_delta(&delta).expect("meta delta");
    let single = LocalServeEngine::full(Arc::new(updated));
    assert_bit_identical(
        &search(&single, &q, 1),
        &search(fresh.as_ref(), &q, 1),
        "post-update",
    );

    // The stale router's home-shard probe carries generation 1 against a
    // fleet serving generation 2 — refused at the seed, so the query fails
    // instead of mixing generations.
    let err = stale
        .try_search(
            &q,
            1,
            &CancelToken::none(),
            &mut NoTracer,
            &mut SearchScratch::new(),
        )
        .expect_err("stale generation vector must not answer");
    let ServeError::Shard(reason) = err else {
        panic!("expected a shard error");
    };
    assert!(reason.contains("generation"), "{reason}");
    // The pre-update answer it gave while current is unaffected history.
    assert!(!before.ranked.is_empty());
}

#[test]
fn fleet_update_naming_an_unknown_topic_is_refused_not_a_panic() {
    // The router applies the delta to its own metadata before any shard is
    // touched; an unknown topic must come back as the typed refusal a single
    // node gives, and the fleet must keep answering afterwards.
    let engine = Arc::new(fig3_engine());
    let router = ShardedEngine::split(&engine, 2);
    let bad = Delta {
        new_edges: Vec::new(),
        new_assignments: vec![(user(2), TopicId(9999))],
    };
    let Err(err) = router.successor(&Successor::Delta(bad), true) else {
        panic!("a delta naming an unknown topic must fail");
    };
    assert_eq!(
        err.to_string(),
        "reload-failed: delta references unknown topic 9999"
    );
    // No shard moved: the generation vector the router holds still answers.
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    assert_eq!(search(&router, &q, 1).ranked[0].0, 1);
}

#[test]
fn router_refuses_to_stage_and_leaves_every_backend_untouched() {
    // Building a router's successor commits its fleet, so PREPARE must be
    // refused before any shard moves — otherwise a second PREPARE would leave
    // the shards on a generation the router's metadata does not describe.
    let engine = Arc::new(fig3_engine());
    let root = scratch_dir("stage");
    let src = root.join("full");
    pit::store::save_engine(&src, &engine).expect("save snapshot");
    split_snapshot(&src, &root.join("split"), 2).expect("split snapshot");
    let shards: Vec<Arc<dyn ShardTransport>> = (0..2u32)
        .map(|i| local_shard(&engine, ShardSpec::new(i, 2)))
        .collect();
    let router = ShardedEngine::assemble(Arc::clone(&engine), shards.clone()).expect("assemble");
    let delta = Delta {
        new_edges: Vec::new(),
        new_assignments: vec![(user(2), TopicId(0))],
    };
    for next in [
        Successor::Delta(delta),
        Successor::Snapshot(root.join("split")),
    ] {
        let Err(err) = router.successor(&next, false) else {
            panic!("a router must refuse to stage {next:?}");
        };
        assert_eq!(
            err.to_string(),
            "reload-failed: PREPARE targets a shard backend; a router installs with RELOAD or UPDATE"
        );
    }
    for t in &shards {
        assert_eq!(t.shard_info().expect("shard info").2, 1, "a backend moved");
    }
    // The generation vector still matches the fleet: the router answers.
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    assert_eq!(search(&router, &q, 1).ranked[0].0, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_reload_from_a_split_snapshot_serves_the_new_generation() {
    let engine = Arc::new(fig3_engine());
    let root = scratch_dir("reload");
    let src = root.join("full");
    pit::store::save_engine(&src, &engine).expect("save snapshot");
    let report = split_snapshot(&src, &root.join("split"), 2).expect("split snapshot");
    assert_eq!(report.shards, 2);

    let old = ShardedEngine::split(&engine, 2);
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    let (next, _scope) = old
        .successor(&Successor::Snapshot(root.join("split")), true)
        .expect("fleet reload");
    let single = LocalServeEngine::full(Arc::clone(&engine));
    assert_bit_identical(
        &search(&single, &q, 1),
        &search(next.as_ref(), &q, 1),
        "reloaded fleet",
    );

    // The old router's generation vector predates the commit: refused.
    assert!(old
        .try_search(
            &q,
            1,
            &CancelToken::none(),
            &mut NoTracer,
            &mut SearchScratch::new()
        )
        .is_err());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_reload_aborts_whole_when_one_shard_rejects() {
    // shard-1 directory missing: PREPARE fails there, the fleet must abort
    // and the old generation must keep serving.
    let engine = Arc::new(fig3_engine());
    let root = scratch_dir("abort");
    let src = root.join("full");
    pit::store::save_engine(&src, &engine).expect("save snapshot");
    split_snapshot(&src, &root.join("split"), 2).expect("split snapshot");
    std::fs::remove_dir_all(root.join("split").join("shard-1")).expect("drop shard-1");

    let router = ShardedEngine::split(&engine, 2);
    let q = KeywordQuery::new(user(8), vec![TermId(0)]);
    let Err(err) = router.successor(&Successor::Snapshot(root.join("split")), true) else {
        panic!("reload with a missing shard snapshot must fail");
    };
    let err = err.to_string();
    assert!(err.starts_with("reload-failed:"), "{err}");
    assert!(err.contains("old generation still serving"), "{err}");

    // Still serving: the fleet aborted rather than half-committed.
    let out = search(&router, &q, 1);
    assert_eq!(out.ranked[0].0, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn router_refuses_expand_and_reports_union_shape() {
    let engine = Arc::new(fig3_engine());
    let router = ShardedEngine::split(&engine, 3);
    assert_eq!(router.shard_count(), 3);
    assert_eq!(router.shard_spec(), None, "a router answers for the union");
    assert_eq!(router.forbid_direct_query(), None);
    assert_eq!(router.node_count(), 12);
    let err = router
        .expand(&[0], &[(7, 1.0)])
        .expect_err("router owns no Γ");
    assert!(err.to_string().starts_with("malformed:"), "{err}");
    assert_eq!(router.generations(), &[1, 1, 1]);
}

#[test]
fn singleton_fleet_accepts_a_full_unsharded_backend() {
    // A plain single-node backend reports shard 0-of-1; a 1-shard router in
    // front of it is a valid (if pointless) deployment and must agree with
    // the backend bit-for-bit.
    let engine = Arc::new(fig3_engine());
    let full = Arc::new(LocalTransport::new(Arc::new(LocalServeEngine::full(
        Arc::clone(&engine),
    )))) as Arc<dyn ShardTransport>;
    let router = ShardedEngine::assemble(Arc::clone(&engine), vec![full]).expect("assemble");
    let single = LocalServeEngine::full(Arc::clone(&engine));
    for u in 1..=12u32 {
        let q = KeywordQuery::new(user(u), vec![TermId(0)]);
        assert_bit_identical(
            &search(&single, &q, 2),
            &search(&router, &q, 2),
            &format!("singleton fleet, user {u}"),
        );
    }
}
