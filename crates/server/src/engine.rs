//! The serving-engine abstraction: what the server needs from *whatever* is
//! answering queries, whether a whole single-node [`PitEngine`] or a router
//! fanning out over shards.
//!
//! [`ServerState`](crate::state::ServerState) holds an `Arc<dyn ServeEngine>`
//! per generation. The trait is deliberately narrow — resolve keywords, run
//! a search, answer Γ-table probes, build a successor for a reload/update —
//! so the scatter-gather router (crate `pit-router`) can slot in behind the
//! exact same admission, caching, worker-pool, and swap machinery as the
//! single-node path, with zero protocol- or state-layer forks.
//!
//! Sharded honesty rules enforced here:
//!
//! - A backend serving a shard *slice* refuses direct `QUERY`s (see
//!   [`ServeEngine::forbid_direct_query`]): once expansion can cross shard
//!   boundaries, a slice alone would return silently wrong rankings.
//! - [`ServeEngine::expand`] refuses probes for nodes the slice does not
//!   own: an empty table for an unowned node is indistinguishable from a
//!   genuinely empty Γ(v), and the router must never be fed the former.

use crate::protocol::{ErrKind, ProbeTable, Successor, WireError};
use pit::{shard_of, DeltaScope, PitEngine, ShardSpec};
use pit_graph::NodeId;
use pit_search_core::{
    probe_gamma, CancelToken, RepUniverse, SearchError, SearchScratch, SearchStats, SearchTracer,
};
use pit_topics::{KeywordQuery, Vocabulary};
use std::path::Path;
use std::sync::Arc;

/// What a serving search produced: the ranking plus the serving-layer
/// envelope a plain [`pit_search_core::SearchOutcome`] has no notion of —
/// partial-answer provenance and scatter-gather accounting.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    /// `(topic id, influence score)` in rank order.
    pub ranked: Vec<(u32, f64)>,
    /// The searcher's work counters (expand rounds, probed tables, …).
    pub stats: SearchStats,
    /// Shards that could not contribute, as `(shard index, reason)` with
    /// single-word taxonomy reasons (`timeout` | `overloaded` | `internal`).
    /// Empty means the answer is complete. Partial answers are never cached.
    pub partial: Vec<(u32, String)>,
    /// Shards never probed because the cross-shard upper bound proved them
    /// irrelevant (§5.2 pruning generalized over the fan-out).
    pub shards_pruned: u32,
    /// Per-shard time spent waiting on `EXPAND` round-trips, as
    /// `(shard index, microseconds)` — one entry per shard actually probed.
    pub fanout_micros: Vec<(u32, u64)>,
}

/// Why a serving search failed.
#[derive(Debug)]
pub enum ServeError {
    /// The search itself failed (cancelled, user out of range).
    Search(SearchError),
    /// The scatter-gather could not produce an honest answer: the query
    /// user's home shard — which must seed the search — was unreachable.
    /// The string is a human-readable reason; the wire maps it to
    /// `ERR internal: …` (the backend fleet is the server's fault, never
    /// the client's).
    Shard(String),
}

impl From<SearchError> for ServeError {
    fn from(e: SearchError) -> Self {
        ServeError::Search(e)
    }
}

/// The engine surface the serving stack is written against.
///
/// Implementations must be cheap to `Arc`-share across worker threads and
/// immutable per generation — a successor is always built off to the side
/// (see [`ServeEngine::successor`]) and swapped in atomically by
/// [`ServerState`](crate::state::ServerState).
pub trait ServeEngine: Send + Sync {
    /// Users in the (full) social graph — shard slices still report the
    /// full count, since node ids are global.
    fn node_count(&self) -> usize;

    /// Topics in the serving topic space.
    fn topic_count(&self) -> usize;

    /// Resident bytes of the offline indexes (router: summed over meta
    /// artifacts; remote shards report their own via `STATS`).
    fn index_bytes(&self) -> usize;

    /// The slice this engine owns, when it serves one shard of a split
    /// snapshot. `None` for a full single-node engine *and* for a router
    /// (which answers for the union).
    fn shard_spec(&self) -> Option<ShardSpec>;

    /// Backing shards answering for this engine: 1 for a single node,
    /// N for a router.
    fn shard_count(&self) -> u32 {
        1
    }

    /// Refuse direct `QUERY`s? True exactly for shard slices, whose local
    /// answer would be silently wrong once expansion crosses shards.
    fn forbid_direct_query(&self) -> Option<WireError> {
        self.shard_spec().map(|spec| {
            ErrKind::Malformed.because(format!(
                "this backend serves shard {spec} of a split snapshot; \
                 query the router (pit route) instead"
            ))
        })
    }

    /// Resolve query keywords against the vocabulary.
    ///
    /// # Errors
    /// [`ErrKind::Malformed`], naming the unknown keyword.
    fn resolve_terms(&self, keywords: &[String]) -> Result<Vec<pit_graph::TermId>, WireError>;

    /// Run one search. The expensive path — called from worker threads,
    /// which pass their own reusable [`SearchScratch`] so a warm worker's
    /// probe/feed loop allocates nothing.
    ///
    /// # Errors
    /// [`ServeError::Search`] for searcher failures, [`ServeError::Shard`]
    /// when a router's home shard was unreachable.
    fn try_search(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &mut SearchScratch,
    ) -> Result<ServeOutcome, ServeError>;

    /// The snapshot representation this generation serves from: `"owned"`
    /// for deep-copied in-memory indexes (the default), `"flat-mapped"`
    /// when the hot arrays are zero-copy views of a flat snapshot mapping.
    /// Reported verbatim under the `snapshot_format` STATS key.
    fn snapshot_format(&self) -> &'static str {
        "owned"
    }

    /// Bytes of index data served directly from a read-only file mapping
    /// (0 for fully-owned engines). Exported by the registry's
    /// `reload_bytes_mapped` row.
    fn mapped_bytes(&self) -> u64 {
        0
    }

    /// Answer a router's `EXPAND`: probe `Γ(u)` for each `(u, ep_u)`
    /// against the representative universe of a query with `terms`,
    /// returning one table per probe *in request order* plus this slice's
    /// residual upper bound (its best candidate `ep`, the §5.2 bound
    /// generalized per shard).
    ///
    /// # Errors
    /// [`ErrKind::Malformed`] for out-of-range terms/nodes or probes for
    /// nodes this slice does not own.
    fn expand(
        &self,
        terms: &[u32],
        probes: &[(u32, f64)],
    ) -> Result<(Vec<ProbeTable>, f64), WireError>;

    /// Build the next generation from `next` (slow; runs on the updater
    /// thread). The successor must be the same *kind* of engine — a shard
    /// slice validates a snapshot's shard manifest against its own spec and
    /// applies a delta to its own rows only; a router moves its whole fleet,
    /// all-or-keep-old. `commit` is the install mode: `false` when the
    /// successor will be staged rather than served at once, which a router
    /// refuses because building its successor already commits the fleet.
    /// Beside the engine comes what the builder can vouch for about cached
    /// answers: the delta's exact blast radius, or `None` when nothing
    /// computed on the predecessor can be trusted.
    ///
    /// # Errors
    /// [`ErrKind::ReloadFailed`]; the caller keeps serving the old
    /// generation.
    fn successor(
        &self,
        next: &Successor,
        commit: bool,
    ) -> Result<(Arc<dyn ServeEngine>, Option<DeltaScope>), WireError>;
}

/// Resolve query keywords against a (possibly absent) vocabulary — shared
/// by every [`ServeEngine::resolve_terms`] implementation.
///
/// # Errors
/// [`ErrKind::Malformed`], naming the unknown keyword.
pub fn resolve_terms(
    vocab: Option<&Vocabulary>,
    keywords: &[String],
) -> Result<Vec<pit_graph::TermId>, WireError> {
    let vocab = vocab.ok_or_else(|| ErrKind::Malformed.because("engine has no vocabulary"))?;
    keywords
        .iter()
        .map(|kw| {
            vocab
                .get(kw)
                .ok_or_else(|| ErrKind::Malformed.because(format!("unknown keyword {kw}")))
        })
        .collect()
}

/// A [`PitEngine`] serving directly — the single-node path, or one shard
/// slice answering a router's probes.
pub struct LocalServeEngine {
    engine: Arc<PitEngine>,
    shard: Option<ShardSpec>,
}

impl LocalServeEngine {
    /// Serve a full engine (no shard manifest).
    pub fn full(engine: Arc<PitEngine>) -> Self {
        LocalServeEngine {
            engine,
            shard: None,
        }
    }

    /// Serve one shard slice under its manifest spec.
    pub fn sharded(engine: Arc<PitEngine>, spec: ShardSpec) -> Self {
        LocalServeEngine {
            engine,
            shard: Some(spec),
        }
    }

    /// Load from a snapshot directory, picking up the shard manifest if one
    /// is present — `pit serve` pointed at a split's `shard-<i>` directory
    /// automatically comes up as that slice.
    ///
    /// # Errors
    /// Store-layer failures, rendered.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let spec = pit::store::load_shard_spec(dir).map_err(|e| e.to_string())?;
        let engine = pit::store::load_engine(dir).map_err(|e| e.to_string())?;
        Ok(LocalServeEngine {
            engine: Arc::new(engine),
            shard: spec,
        })
    }

    /// The wrapped engine (tests and the CLI's offline comparisons).
    pub fn inner(&self) -> &Arc<PitEngine> {
        &self.engine
    }
}

impl ServeEngine for LocalServeEngine {
    fn node_count(&self) -> usize {
        self.engine.graph().node_count()
    }

    fn topic_count(&self) -> usize {
        self.engine.space().topic_count()
    }

    fn index_bytes(&self) -> usize {
        self.engine.index_bytes()
    }

    fn snapshot_format(&self) -> &'static str {
        self.engine.snapshot_format()
    }

    fn mapped_bytes(&self) -> u64 {
        self.engine.mapped_bytes() as u64
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        self.shard
    }

    fn resolve_terms(&self, keywords: &[String]) -> Result<Vec<pit_graph::TermId>, WireError> {
        resolve_terms(self.engine.vocab(), keywords)
    }

    fn try_search(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &mut SearchScratch,
    ) -> Result<ServeOutcome, ServeError> {
        let outcome = self.engine.try_search(query, k, cancel, tracer, scratch)?;
        Ok(ServeOutcome {
            ranked: outcome.top_k.iter().map(|s| (s.topic.0, s.score)).collect(),
            stats: outcome.stats(),
            partial: Vec::new(),
            shards_pruned: 0,
            fanout_micros: Vec::new(),
        })
    }

    fn expand(
        &self,
        terms: &[u32],
        probes: &[(u32, f64)],
    ) -> Result<(Vec<ProbeTable>, f64), WireError> {
        let space = self.engine.space();
        let nterms = space.term_count();
        let term_ids = terms
            .iter()
            .map(|&t| {
                if (t as usize) < nterms {
                    Ok(pit_graph::TermId(t))
                } else {
                    Err(ErrKind::Malformed.because(format!(
                        "term {t} out of range (vocabulary has {nterms} terms)"
                    )))
                }
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        let query = KeywordQuery::new(NodeId(0), term_ids);
        let universe = RepUniverse::for_query(space, self.engine.reps(), &query);
        let prop = self.engine.propagation();
        let theta = prop.config().theta;
        let nodes = self.engine.graph().node_count();
        let mut tables = Vec::new();
        let mut bound = 0.0f64;
        for &(u, ep_u) in probes {
            if u as usize >= nodes {
                return Err(ErrKind::Malformed.because(format!(
                    "probe node {u} out of range (graph has {nodes} users)"
                )));
            }
            if let Some(spec) = self.shard {
                // An unowned slice row is empty storage, not an empty Γ(v);
                // answering from it would feed the router silent zeros.
                if !spec.owns(NodeId(u)) {
                    return Err(ErrKind::Malformed.because(format!(
                        "node {u} belongs to shard {}, this is shard {spec}",
                        shard_of(NodeId(u), spec.count)
                    )));
                }
            }
            let probe = probe_gamma(prop.gamma(NodeId(u)), ep_u, theta, &|x| {
                universe.contains(x)
            });
            for &(_, ep_w) in &probe.cands {
                bound = bound.max(ep_w);
            }
            tables.push(ProbeTable {
                node: u,
                hits: probe.hits.iter().map(|&(x, p)| (x.0, p)).collect(),
                cands: probe.cands.iter().map(|&(w, ep)| (w.0, ep)).collect(),
            });
        }
        Ok((tables, bound))
    }

    fn successor(
        &self,
        next: &Successor,
        _commit: bool,
    ) -> Result<(Arc<dyn ServeEngine>, Option<DeltaScope>), WireError> {
        let (engine, scope) = match next {
            Successor::Snapshot(dir) => {
                let failed =
                    |e: pit::store::StoreError| ErrKind::ReloadFailed.because(e.to_string());
                let spec = pit::store::load_shard_spec(dir).map_err(failed)?;
                if spec != self.shard {
                    let describe = |s: Option<ShardSpec>| match s {
                        Some(s) => format!("shard {s}"),
                        None => "a full (unsharded) engine".to_string(),
                    };
                    return Err(ErrKind::ReloadFailed.because(format!(
                        "snapshot is {}, this backend serves {}",
                        describe(spec),
                        describe(self.shard)
                    )));
                }
                // RELOAD targets snapshots this deployment's own pipeline
                // staged; the fast loader maps and validates the section
                // geometry in O(sections) without re-hashing every payload,
                // which is what keeps snapshot swaps at millisecond latency
                // on large engines.
                (pit::store::load_engine_fast(dir).map_err(failed)?, None)
            }
            Successor::Delta(delta) => {
                let (engine, report) = self
                    .engine
                    .with_delta_scoped(delta, self.shard.as_ref())
                    .map_err(|e| ErrKind::ReloadFailed.because(e.to_string()))?;
                (engine, Some(report.scope))
            }
        };
        let next = LocalServeEngine {
            engine: Arc::new(engine),
            shard: self.shard,
        };
        Ok((Arc::new(next), scope))
    }
}
