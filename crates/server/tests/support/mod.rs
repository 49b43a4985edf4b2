//! Helpers shared by the pit-server integration tests, and by pit-cli's
//! through `#[path]`: a small engine fixture, one-frame request/reply,
//! `STATS` lookup, and [`Faulty`] — the one place a test injects a fault.
//!
//! The production server carries no fault hooks. A test that needs a
//! panicking query, a slow search, a slow shard or a slow reload wraps the
//! real engine in [`Faulty`] and serves it through
//! `ServerState::with_engine`, the seam a shard slice or a router also
//! plugs into.

#![allow(dead_code)]

use pit::{DeltaScope, PitEngine, ShardSpec, SummarizerKind};
use pit_search_core::{CancelToken, SearchPhase, SearchScratch, SearchTracer};
use pit_server::protocol::{
    read_frame, write_frame, ProbeTable, Request, Response, Successor, WireError,
};
use pit_server::{LocalServeEngine, ServeEngine, ServeError, ServeOutcome};
use pit_topics::KeywordQuery;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A small power-law engine: `nodes` users from data seed `seed`, walks
/// L = 3, R = 8, θ = 0.02 and 8 LRW representatives per topic. Its
/// vocabulary has the `query-0` hub term every test queries.
pub fn tiny_engine(nodes: usize, seed: u64) -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: format!("tiny-{nodes}-{seed}"),
        nodes,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(nodes, seed),
        seed,
    };
    let ds = pit_datasets::generate(&spec);
    PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(3, 8).with_seed(2))
        .propagation(pit_index::PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            rep_count: Some(8),
            ..pit_summarize::LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab))
}

/// The offline top-`k` for `user` on `query-0`, as the wire renders it.
pub fn offline_ranking(engine: &PitEngine, user: u32, k: usize) -> Vec<(u32, f64)> {
    engine
        .search_keywords(pit_graph::NodeId(user), &["query-0"], k)
        .expect("offline search")
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect()
}

/// A fresh, empty directory for this test process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pit-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `QUERY` for one keyword.
pub fn query(user: u32, k: usize, keyword: &str) -> Request {
    Request::Query {
        user,
        k,
        keywords: vec![keyword.to_string()],
    }
}

/// A client connection with a 60 s read deadline, so a wedged server fails
/// the test instead of hanging it.
pub fn connect(addr: impl ToSocketAddrs) -> TcpStream {
    let c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    c
}

/// Send one request frame and parse the one reply frame.
pub fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.render()).expect("send");
    let text = read_frame(stream).expect("recv").expect("reply");
    Response::parse(&text).expect("parse reply")
}

/// A `STATS` value by key.
pub fn stat<'a>(pairs: &'a [(String, String)], name: &str) -> &'a str {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("missing stat {name}"))
        .1
        .as_str()
}

/// A counter or gauge `STATS` value by key.
pub fn get_stat(pairs: &[(String, String)], name: &str) -> u64 {
    stat(pairs, name)
        .parse()
        .unwrap_or_else(|_| panic!("stat {name} not numeric"))
}

/// The faults a [`Faulty`] engine injects. The default injects none.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    /// `try_search` panics for this query user.
    pub panic_user: Option<u32>,
    /// Slow this user down by [`Faults::drag`]: its searches sleep at the
    /// start of every phase (gather, each EXPAND round, rank), and an
    /// `expand` whose probes name it sleeps once.
    pub drag_user: Option<u32>,
    /// How long each drag sleeps.
    pub drag: Duration,
    /// `successor` sleeps this long before building: a slow RELOAD/UPDATE.
    pub slow_successor: Duration,
}

/// A [`ServeEngine`] that answers through `inner` and injects [`Faults`].
/// Its successors are wrapped the same way, so a fault survives RELOAD.
pub struct Faulty {
    inner: Arc<dyn ServeEngine>,
    faults: Faults,
}

impl Faulty {
    /// Wrap any serving engine.
    pub fn wrap(inner: Arc<dyn ServeEngine>, faults: Faults) -> Arc<dyn ServeEngine> {
        Arc::new(Faulty { inner, faults })
    }

    /// Wrap a full single-node engine.
    pub fn local(engine: Arc<PitEngine>, faults: Faults) -> Arc<dyn ServeEngine> {
        Self::wrap(Arc::new(LocalServeEngine::full(engine)), faults)
    }
}

/// Passes the searcher's phase callbacks on, then sleeps at the start of
/// each phase.
struct Drag<'a> {
    inner: &'a mut dyn SearchTracer,
    per_phase: Duration,
}

impl SearchTracer for Drag<'_> {
    fn phase_begin(&mut self, phase: SearchPhase) {
        self.inner.phase_begin(phase);
        std::thread::sleep(self.per_phase);
    }

    fn phase_end(&mut self, phase: SearchPhase, detail: u64) {
        self.inner.phase_end(phase, detail);
    }
}

impl ServeEngine for Faulty {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn topic_count(&self) -> usize {
        self.inner.topic_count()
    }

    fn index_bytes(&self) -> usize {
        self.inner.index_bytes()
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        self.inner.shard_spec()
    }

    fn shard_count(&self) -> u32 {
        self.inner.shard_count()
    }

    fn forbid_direct_query(&self) -> Option<WireError> {
        self.inner.forbid_direct_query()
    }

    fn resolve_terms(&self, keywords: &[String]) -> Result<Vec<pit_graph::TermId>, WireError> {
        self.inner.resolve_terms(keywords)
    }

    fn try_search(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &mut SearchScratch,
    ) -> Result<ServeOutcome, ServeError> {
        let user = query.user.0;
        if self.faults.panic_user == Some(user) {
            panic!("injected panic for user {user}");
        }
        if self.faults.drag_user == Some(user) {
            let mut drag = Drag {
                inner: tracer,
                per_phase: self.faults.drag,
            };
            return self.inner.try_search(query, k, cancel, &mut drag, scratch);
        }
        self.inner.try_search(query, k, cancel, tracer, scratch)
    }

    fn snapshot_format(&self) -> &'static str {
        self.inner.snapshot_format()
    }

    fn mapped_bytes(&self) -> u64 {
        self.inner.mapped_bytes()
    }

    fn expand(
        &self,
        terms: &[u32],
        probes: &[(u32, f64)],
    ) -> Result<(Vec<ProbeTable>, f64), WireError> {
        if let Some(user) = self.faults.drag_user {
            if probes.iter().any(|&(u, _)| u == user) {
                std::thread::sleep(self.faults.drag);
            }
        }
        self.inner.expand(terms, probes)
    }

    fn successor(
        &self,
        next: &Successor,
        commit: bool,
    ) -> Result<(Arc<dyn ServeEngine>, Option<DeltaScope>), WireError> {
        std::thread::sleep(self.faults.slow_successor);
        let (engine, scope) = self.inner.successor(next, commit)?;
        Ok((Self::wrap(engine, self.faults.clone()), scope))
    }
}
