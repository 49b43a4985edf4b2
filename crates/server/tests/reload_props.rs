//! Two properties of the live admin path, both over the wire.
//!
//! **A served delta equals a from-scratch build.** The offline stage is
//! seed-deterministic end to end (walks, propagation, summaries), and
//! `PitEngine::with_delta` documents that its localized refresh lands on the
//! same artifacts a from-scratch build would produce. Random edge/assignment
//! deltas go into a live server as one `UPDATE`, and the post-swap rankings
//! are compared bit-for-bit against a from-scratch build queried offline.
//!
//! **Any sequence of admin verbs follows a five-field model.** Short random
//! sequences of every [`Admin`] shape — good and missing snapshot
//! directories, valid, empty and invalid deltas, installed at once or
//! staged, `COMMIT` and `ABORT` in any order — run against a model holding
//! the generation, the staged engine (if any), the `reloads` and
//! `reload_failures` counts and the offline engine that should be serving.
//! The model predicts every reply and counter, and after every step a
//! `QUERY` must match `PitEngine::search` on the model's engine bit for bit.

mod support;

use pit::{Delta, PitEngine, SummarizerKind};
use pit_graph::{NodeId, TopicId};
use pit_server::protocol::{Admin, ErrKind, Request, Response, Successor};
use pit_server::{serve, ServerConfig, ServerState};
use proptest::prelude::*;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use support::{ask, offline_ranking};

const NODES: usize = 250;
const DATA_SEED: u64 = 31;
const WALK_SEED: u64 = 6;

fn spec() -> pit_datasets::DatasetSpec {
    pit_datasets::DatasetSpec {
        name: "reload-props".to_string(),
        nodes: NODES,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(NODES, DATA_SEED),
        seed: DATA_SEED,
    }
}

fn build(
    graph: pit_graph::CsrGraph,
    space: pit_topics::TopicSpace,
    vocab: pit_topics::Vocabulary,
    walk_seed: u64,
) -> PitEngine {
    PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(3, 8).with_seed(walk_seed))
        .propagation(pit_index::PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            rep_count: Some(8),
            ..pit_summarize::LrwConfig::default()
        }))
        .build_with_vocab(graph, space, Some(vocab))
}

/// The base engine, built once and shared by every case (no admin verb
/// mutates the engine it starts from).
fn base_engine() -> Arc<PitEngine> {
    static BASE: OnceLock<Arc<PitEngine>> = OnceLock::new();
    Arc::clone(BASE.get_or_init(|| {
        let ds = pit_datasets::generate(&spec());
        Arc::new(build(ds.graph, ds.space, ds.vocab, WALK_SEED))
    }))
}

/// Turn raw samples into a delta that is valid against the base engine:
/// in-range endpoints, no self-loops, no duplicates of existing (or
/// already-chosen) edges, assignments onto existing topics.
fn sanitize(
    base: &PitEngine,
    raw_edges: &[(u32, u32, f64)],
    raw_assignments: &[(u32, u32)],
) -> Delta {
    let n = base.graph().node_count() as u32;
    let topics = base.space().topic_count() as u32;
    let mut chosen: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for &(u, v, p) in raw_edges {
        let u = NodeId(u % n);
        // Walk the target forward until it makes a fresh, non-self edge.
        let start = v % n;
        let picked = (0..n).find_map(|step| {
            let cand = NodeId((start + step) % n);
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
            .map(|&(u, t)| (NodeId(u % n), TopicId(t % topics)))
            .collect(),
    }
}

/// Two loadable snapshots — the base engine and the same corpus under
/// another walk seed, so they rank differently — saved once per process,
/// each with the engine `load_engine` reads back from it. The model holds
/// that loaded engine, not the one that was saved: a snapshot keeps only
/// the summarizer's *kind*, so a delta applied after a reload re-summarizes
/// under the default configuration where the built engine would use its
/// own `rep_count` — offline and served alike.
fn snapshots() -> &'static [(PathBuf, Arc<PitEngine>); 2] {
    static SNAPSHOTS: OnceLock<[(PathBuf, Arc<PitEngine>); 2]> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let ds = pit_datasets::generate(&spec());
        let other = Arc::new(build(ds.graph, ds.space, ds.vocab, WALK_SEED + 1));
        [("base", base_engine()), ("other", other)].map(|(tag, engine)| {
            let dir =
                std::env::temp_dir().join(format!("pit-reload-props-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            pit::store::save_engine(&dir, &engine).expect("save snapshot");
            let loaded = pit::store::load_engine(&dir).expect("load snapshot");
            (dir, Arc::new(loaded))
        })
    })
}

/// What the server should be, tracked without a server.
struct Model {
    generation: u64,
    staged: Option<Arc<PitEngine>>,
    reloads: u64,
    reload_failures: u64,
    engine: Arc<PitEngine>,
}

impl Model {
    /// Apply `admin` and predict its reply. `built` is the engine its
    /// `Install` should produce, or `None` when the build must be refused.
    fn step(&mut self, admin: &Admin, built: Option<Arc<PitEngine>>) -> Response {
        let refused = |model: &mut Model| {
            model.reload_failures += 1;
            Response::Err(ErrKind::ReloadFailed.into())
        };
        let swap = |model: &mut Model, engine: Arc<PitEngine>| {
            model.engine = engine;
            model.generation += 1;
            model.reloads += 1;
            Response::Generation(model.generation)
        };
        match (admin, built) {
            (
                Admin::Install {
                    next: Successor::Delta(d),
                    commit: true,
                },
                _,
            ) if d.is_empty() => Response::Generation(self.generation),
            (Admin::Install { .. }, None) => refused(self),
            (Admin::Install { commit: true, .. }, Some(engine)) => swap(self, engine),
            (Admin::Install { commit: false, .. }, Some(engine)) => {
                self.staged = Some(engine);
                Response::Staged
            }
            (Admin::Commit, _) => match self.staged.take() {
                Some(engine) => swap(self, engine),
                None => refused(self),
            },
            (Admin::Abort, _) => {
                self.staged = None;
                Response::Generation(self.generation)
            }
        }
    }
}

/// Turn one raw sample into an admin verb plus the engine its `Install`
/// should build against `current` (`None`: the build must be refused).
fn admin_step(
    current: &Arc<PitEngine>,
    (op, x, y, p): (u32, u32, u32, f64),
) -> (Admin, Option<Arc<PitEngine>>) {
    let snapshots = snapshots();
    let missing = || Successor::Snapshot("/no/such/snapshot-dir".into());
    let snapshot = |i: usize| {
        let (dir, engine) = &snapshots[i];
        (Successor::Snapshot(dir.clone()), Some(Arc::clone(engine)))
    };
    let valid_delta = || {
        let delta = sanitize(current, &[(x, y, p)], &[(y, x)]);
        let (next, _) = current.with_delta(&delta).expect("sanitized delta");
        (Successor::Delta(delta), Some(Arc::new(next)))
    };
    // An empty delta is refused by nobody: at once it is a no-op, staged it
    // parks a copy of the serving engine.
    let empty_delta = || {
        (
            Successor::Delta(Delta::default()),
            Some(Arc::clone(current)),
        )
    };
    let invalid_delta = || {
        let user = NodeId(x % NODES as u32);
        let delta = if y % 2 == 0 {
            Delta {
                new_edges: vec![(user, user, p)],
                new_assignments: vec![],
            }
        } else {
            Delta {
                new_edges: vec![],
                new_assignments: vec![(user, TopicId(1_000_000 + y))],
            }
        };
        (Successor::Delta(delta), None)
    };
    let commit = op % 2 == 0;
    let (next, built) = match op / 2 % 7 {
        0 => snapshot((x % 2) as usize),
        1 => (missing(), None),
        2 => valid_delta(),
        3 => empty_delta(),
        4 => invalid_delta(),
        5 => return (Admin::Commit, None),
        _ => return (Admin::Abort, None),
    };
    (Admin::Install { next, commit }, built)
}

fn stat(pairs: &[(String, String)], name: &str) -> u64 {
    let (_, value) = pairs.iter().find(|(k, _)| k == name).expect("stat present");
    value.parse().expect("stat is a count")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn served_update_equals_a_from_scratch_build(
        raw_edges in proptest::collection::vec((0u32..10_000, 0u32..10_000, 0.05f64..0.9), 1..=3),
        raw_assignments in proptest::collection::vec((0u32..10_000, 0u32..10_000), 0..=2),
        probe in 0u32..10_000,
    ) {
        let base = base_engine();
        let delta = sanitize(&base, &raw_edges, &raw_assignments);
        prop_assert!(!delta.is_empty());

        // From-scratch reference: regenerate the corpus (seed-deterministic),
        // apply the same delta to its builders, and run the whole offline
        // stage under the same seeds.
        let ds = pit_datasets::generate(&spec());
        let mut gb = ds.graph.to_builder();
        for &(u, v, p) in &delta.new_edges {
            gb.add_edge(u, v, p).expect("sanitized edge");
        }
        let mut sb = ds.space.to_builder();
        for &(u, t) in &delta.new_assignments {
            sb.assign(u, t);
        }
        let fresh = build(gb.build().expect("graph rebuild"), sb.build(), ds.vocab, WALK_SEED);

        // Live side: serve the base engine, push the delta over the wire.
        let state = Arc::new(ServerState::new(Arc::clone(&base), ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        }));
        let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
        let mut c = TcpStream::connect(handle.addr()).expect("connect");
        let update = Admin::Install { next: Successor::Delta(delta.clone()), commit: true };
        prop_assert_eq!(ask(&mut c, &Request::Admin(update)), Response::Generation(2));

        // Served rankings (through the wire, post-swap) must equal the
        // from-scratch build queried offline — for a sampled probe user and
        // fixed sentinels, including every delta endpoint's own view.
        let mut users: Vec<u32> = vec![5, 111, probe % NODES as u32];
        users.extend(delta.new_edges.iter().flat_map(|&(u, v, _)| [u.0, v.0]));
        users.sort_unstable();
        users.dedup();
        for user in users {
            let expected = offline_ranking(&fresh, user, 7);
            let served = ask(&mut c, &Request::Query {
                user,
                k: 7,
                keywords: vec!["query-0".to_string()],
            });
            let Response::Topics { ranked, .. } = served else {
                panic!("expected topics for user {user}");
            };
            prop_assert_eq!(
                ranked,
                expected,
                "user {} diverged from the from-scratch build", user
            );
        }

        prop_assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
        handle.join();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn admin_sequences_follow_the_model(
        raw_steps in proptest::collection::vec(
            (0u32..14, 0u32..10_000, 0u32..10_000, 0.05f64..0.9),
            1..=8,
        ),
    ) {
        let mut model = Model {
            generation: 1,
            staged: None,
            reloads: 0,
            reload_failures: 0,
            engine: base_engine(),
        };
        let state = Arc::new(ServerState::new(base_engine(), ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        }));
        let handle = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
        let mut c = TcpStream::connect(handle.addr()).expect("connect");

        for raw in raw_steps {
            let (admin, built) = admin_step(&model.engine, raw);
            let predicted = model.step(&admin, built);
            let reply = match ask(&mut c, &Request::Admin(admin.clone())) {
                // The model predicts the class of a refusal, not its prose.
                Response::Err(err) => Response::Err(err.kind.into()),
                reply => reply,
            };
            prop_assert_eq!(reply, predicted, "reply to {:?}", admin);

            let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
                panic!("expected stats");
            };
            prop_assert_eq!(stat(&pairs, "generation"), model.generation, "after {:?}", admin);
            prop_assert_eq!(stat(&pairs, "reloads"), model.reloads, "after {:?}", admin);
            prop_assert_eq!(
                stat(&pairs, "reload_failures"), model.reload_failures, "after {:?}", admin
            );

            // The same users every step, so replies come from the cache as
            // often as from a search — and must be right either way.
            for user in [5, 111, raw.1 % NODES as u32] {
                let served = ask(&mut c, &Request::Query {
                    user,
                    k: 7,
                    keywords: vec!["query-0".to_string()],
                });
                let Response::Topics { ranked, .. } = served else {
                    panic!("expected topics for user {user}");
                };
                prop_assert_eq!(
                    ranked,
                    offline_ranking(&model.engine, user, 7),
                    "user {} diverged from the model after {:?}", user, admin
                );
            }
        }

        prop_assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
        handle.join();
    }
}
