//! Shared serving state: the (swappable) engine, the result cache, and the
//! counters — everything a worker, connection thread, or the updater thread
//! touches.
//!
//! The offline artifacts (graph, topic space, walk/propagation/representative
//! indexes) are immutable *per generation*: queries never mutate an engine.
//! What can change is **which** engine is serving — an [`Admin`] verb builds
//! a successor off to the side and swaps it in atomically under
//! [`ServerState`]'s generation lock. Readers grab an [`EngineGen`]
//! (an `Arc` plus its generation number) once per request and keep using it
//! even if a swap lands mid-flight; the old engine is freed when the last
//! in-flight query drops its `Arc`. The only other synchronized pieces are
//! the LRU cache (mutex, generation-tagged entries) and the metrics
//! (atomics).

use crate::cache::{FlightRole, InflightMap, QueryCache, QueryKey, StaleReason};
use crate::engine::{LocalServeEngine, ServeEngine, ServeError, ServeOutcome};
use crate::metrics::{self, Metrics, View};
use crate::pool::JobReply;
use crate::protocol::{Admin, ErrKind, Successor, WireError};
use crate::trace::TraceCollector;
use crossbeam::channel::Sender;
use parking_lot::{Mutex, RwLock};
use pit::{DeltaScope, PitEngine};
use pit_graph::NodeId;
use pit_search_core::{CancelToken, SearchScratch, SearchTracer};
use pit_topics::KeywordQuery;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cached top-k result: `(topic id, influence score)` in rank order,
/// behind an `Arc` so cache hits never copy the ranking.
pub type RankedTopics = Arc<Vec<(u32, f64)>>;

/// One generation of the serving engine: the shared engine plus the
/// monotonically increasing generation number it serves under. Capture one
/// of these at admission and use it for the whole request — validation,
/// cache lookup, execution, and cache fill all agree on a single engine
/// even if a swap lands mid-flight.
#[derive(Clone)]
pub struct EngineGen {
    /// The engine; in-flight queries keep the `Arc` they captured. Behind
    /// the [`ServeEngine`] trait so a single-node engine, a shard slice,
    /// and a scatter-gather router all serve through the same machinery.
    pub engine: Arc<dyn ServeEngine>,
    /// Serving generation, starting at 1 and bumped by every swap.
    pub generation: u64,
}

/// Serving knobs. Every field maps to a `pit serve` flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue sheds with `ERR overloaded`.
    pub queue_depth: usize,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Per-query time budget (queue wait + execution); expiry yields
    /// `ERR timeout`.
    pub query_budget: Duration,
    /// Socket read/write deadline for client connections.
    pub io_timeout: Duration,
    /// I/O threads running the readiness event loop. Each owns a share of
    /// the client sockets; connections cost file descriptors, not threads,
    /// so this stays small no matter how many clients are connected.
    pub io_threads: usize,
    /// Propagation tables the searcher probes between cancellation checks.
    /// Smaller means a timed-out query releases its worker sooner, at the
    /// cost of more frequent deadline reads.
    pub cancel_check_tables: u32,
    /// Fault injection (tests / chaos drills): queries from this user panic
    /// inside the worker, exercising the catch-unwind + respawn path.
    pub poison_user: Option<u32>,
    /// Fault injection: queries from this user sleep [`Self::drag_per_check`]
    /// at every cancellation check, making them deliberately slow so the
    /// deadline/cancellation path is observable.
    pub drag_user: Option<u32>,
    /// Per-check injected delay for [`Self::drag_user`] queries.
    pub drag_per_check: Duration,
    /// Fault injection: stretch every `RELOAD`/`UPDATE` by this much
    /// *before* the swap, so tests can prove queries keep flowing on the
    /// old generation while a slow reload is in flight.
    pub reload_drag: Duration,
    /// Trace one query in this many (0 disables sampling). Sampled queries
    /// record per-stage spans into the trace ring, readable via `TRACE`.
    pub trace_sample: u64,
    /// Queries slower than this land in the slow-query log regardless of
    /// the sampling rate.
    pub slow_threshold: Duration,
    /// Capacity of the trace ring and the slow-query log (each).
    pub trace_ring: usize,
    /// Time budget for the post-`RELOAD` cache warmup job on the updater
    /// thread (zero disables warmup). After a blanket flush, the hottest
    /// cached keys are replayed through the normal worker path until the
    /// budget runs out, shrinking the cold cliff clients would otherwise
    /// absorb.
    pub warmup_budget: Duration,
    /// How many of the hottest keys the warmup job replays, at most.
    pub warmup_top: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 16);
        ServerConfig {
            workers,
            queue_depth: 128,
            cache_capacity: 1024,
            query_budget: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            io_threads: 2,
            cancel_check_tables: CancelToken::DEFAULT_CHECK_EVERY,
            poison_user: None,
            drag_user: None,
            drag_per_check: Duration::ZERO,
            reload_drag: Duration::ZERO,
            trace_sample: 0,
            slow_threshold: Duration::from_secs(1),
            trace_ring: 256,
            warmup_budget: Duration::ZERO,
            warmup_top: 16,
        }
    }
}

/// What [`ServerState::admin`] answers: the generation now serving
/// (rendered `GEN <n>`), or `None` for a successor parked but not serving
/// (rendered `STAGED`). An error is always [`ErrKind::ReloadFailed`] and
/// leaves the serving generation exactly as it was.
pub type AdminReply = Result<Option<u64>, WireError>;

/// Serving state shared by the acceptor, connection threads, the worker
/// pool, and the updater thread.
pub struct ServerState {
    engine: RwLock<EngineGen>,
    /// The two-phase staging slot: a successor engine built by `PREPARE`
    /// awaiting `COMMIT` (swap in) or `ABORT` (drop). Held only for the
    /// instant of a stage/take — never while building or serving.
    staged: Mutex<Option<Arc<dyn ServeEngine>>>,
    cache: QueryCache<RankedTopics>,
    /// Single-flight registry: one execution per `(generation, key)` at a
    /// time; concurrent identical cold queries wait on it instead of
    /// recomputing the same ranking N times (the post-reload herd).
    inflight: InflightMap<JobReply, CancelToken>,
    metrics: Metrics,
    tracing: TraceCollector,
    config: ServerConfig,
}

impl ServerState {
    /// Wrap a fully built single-node engine for serving, as generation 1.
    pub fn new(engine: Arc<PitEngine>, config: ServerConfig) -> Self {
        Self::with_engine(Arc::new(LocalServeEngine::full(engine)), config)
    }

    /// Wrap any [`ServeEngine`] (shard slice, router, …) for serving, as
    /// generation 1.
    pub fn with_engine(engine: Arc<dyn ServeEngine>, config: ServerConfig) -> Self {
        ServerState {
            cache: QueryCache::new(config.cache_capacity),
            inflight: InflightMap::new(),
            metrics: Metrics::default(),
            tracing: TraceCollector::new(
                config.trace_sample,
                config.slow_threshold,
                config.trace_ring,
            ),
            engine: RwLock::named(
                "server.state.engine",
                EngineGen {
                    engine,
                    generation: 1,
                },
            ),
            staged: Mutex::named("server.state.staged", None),
            config,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The serving counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The per-query trace collector (sampling, trace ring, slow-query log).
    pub fn tracing(&self) -> &TraceCollector {
        &self.tracing
    }

    /// The engine generation serving right now. Cheap (an `Arc` clone under
    /// a read lock); capture once per request.
    pub fn current(&self) -> EngineGen {
        self.engine.read().clone()
    }

    /// Install `engine` as the next generation and return its number. What
    /// happens to the cache is decided by what the successor's builder could
    /// vouch for: a known `scope` (a delta's exact blast radius) re-tags the
    /// entries outside it, `None` (a wholesale replacement) marks every
    /// entry stale. Queries admitted before the swap finish against the
    /// `Arc` they captured; queries admitted after see only the new engine.
    ///
    /// The cache sweep runs while the engine write lock is still held: no
    /// reader can capture the new generation until the sweep finishes, so
    /// the generation backstop in [`QueryCache::get`] can never evict a
    /// survivor in the instant before it is re-tagged. (Lock nesting is
    /// engine → cache; nothing locks in the other order.) Stale entries
    /// still die lazily — the sweep only flips flags, it frees nothing.
    fn swap_engine(&self, engine: Arc<dyn ServeEngine>, scope: Option<&DeltaScope>) -> u64 {
        let mut slot = self.engine.write();
        let from_gen = slot.generation;
        slot.engine = engine;
        slot.generation += 1;
        let to_gen = slot.generation;
        match scope {
            Some(scope) => self.cache.retag_after_update(from_gen, to_gen, scope),
            None => self.cache.mark_all_stale(StaleReason::FullReload),
        }
        self.metrics.reloads.inc();
        to_gen
    }

    /// Run one engine change — the only way the serving engine ever
    /// changes. Slow for an [`Admin::Install`] (a disk load or a delta
    /// apply): call it from the updater thread, so the worker pool keeps
    /// answering on the old generation for the whole build.
    ///
    /// `Install` builds the successor from the serving engine, then either
    /// swaps it in — a delta re-tags the cache entries outside its
    /// [`DeltaScope`] so untouched users keep hitting across the bump, a
    /// snapshot flushes — or parks it in the staging slot, replacing
    /// whatever was staged. An empty delta installed at once is a no-op
    /// reporting the current generation. `Commit` swaps the staged
    /// successor in and always flushes: the slot does not carry a scope and
    /// an arbitrary time passed since it was staged. `Abort` empties the
    /// slot and is idempotent — a router aborting its whole fleet must be
    /// able to hit backends that never staged.
    ///
    /// # Errors
    /// [`ErrKind::ReloadFailed`] when the snapshot is missing, torn or of
    /// the wrong shape, the delta is invalid, or `Commit` finds nothing
    /// staged. The serving generation and the staging slot are left as they
    /// were and `reload_failures` is bumped.
    pub fn admin(&self, admin: &Admin) -> AdminReply {
        let result = self.try_admin(admin);
        if result.is_err() {
            self.metrics.reload_failures.inc();
        }
        result
    }

    fn try_admin(&self, admin: &Admin) -> AdminReply {
        match admin {
            Admin::Install {
                next: Successor::Delta(delta),
                commit: true,
            } if delta.is_empty() => Ok(Some(self.current().generation)),
            Admin::Install { next, commit } => {
                let started = Instant::now();
                if !self.config.reload_drag.is_zero() {
                    std::thread::sleep(self.config.reload_drag);
                }
                let (engine, scope) = self.current().engine.successor(next)?;
                let generation = if *commit {
                    Some(self.swap_engine(engine, scope.as_ref()))
                } else {
                    *self.staged.lock() = Some(engine);
                    None
                };
                // The build is what takes the time; a later `Commit` is a
                // pointer swap and observes nothing.
                self.metrics.reload_latency.observe(started.elapsed());
                Ok(generation)
            }
            Admin::Commit => {
                // Taken in its own statement: the staging lock is held only
                // for the instant of the take, never across the swap.
                let staged = self.staged.lock().take();
                let engine = staged.ok_or_else(|| {
                    ErrKind::ReloadFailed.because("nothing staged; PREPARE first")
                })?;
                Ok(Some(self.swap_engine(engine, None)))
            }
            Admin::Abort => {
                *self.staged.lock() = None;
                Ok(Some(self.current().generation))
            }
        }
    }

    /// Validate a request against `engine` and resolve its keywords into a
    /// cache key. Pass the [`EngineGen`] captured at admission so the key
    /// is consistent with the engine the query will run on.
    ///
    /// # Errors
    /// [`ErrKind::Malformed`] when the user is out of range or a keyword is
    /// not in the vocabulary; sent back as the `ERR` reply.
    pub fn make_key(
        &self,
        engine: &dyn ServeEngine,
        user: u32,
        k: usize,
        keywords: &[String],
    ) -> Result<QueryKey, WireError> {
        // A shard slice refuses direct queries outright: its local answer
        // would be silently wrong once expansion crosses shard boundaries.
        if let Some(reason) = engine.forbid_direct_query() {
            return Err(reason);
        }
        let nodes = engine.node_count();
        if user as usize >= nodes {
            return Err(ErrKind::Malformed.because(format!(
                "user {user} out of range (graph has {nodes} users)"
            )));
        }
        let terms = engine.resolve_terms(keywords)?;
        // Keyword order and duplicates never change the answer — the searcher
        // unions topic postings over terms — so the normalized key is exact.
        Ok(QueryKey::new(user, k, terms))
    }

    /// Cache lookup only, as seen by `generation`; counts a hit or miss.
    /// A pre-swap entry never answers a post-swap lookup.
    pub fn lookup(&self, key: &QueryKey, generation: u64) -> Option<RankedTopics> {
        self.cache.get(key, generation)
    }

    /// The `n` most-frequently-queried cache keys (hottest first), from the
    /// cache's frequency sketch. Feeds the post-reload warmup job.
    pub fn hot_keys(&self, n: usize) -> Vec<QueryKey> {
        self.cache.hottest(n)
    }

    /// Whether a live cache entry for `key` exists under `generation`,
    /// without counting a hit or miss. The warmup job uses this to skip
    /// keys a client query already repopulated.
    pub fn cached_under(&self, key: &QueryKey, generation: u64) -> bool {
        self.cache.contains(key, generation)
    }

    /// A fresh cancellation token armed with `deadline` and the configured
    /// check cadence — the single source of truth for one query's budget.
    pub fn query_token(&self, deadline: Instant) -> CancelToken {
        CancelToken::cancellable()
            .with_deadline(deadline)
            .with_check_every(self.config.cancel_check_tables)
    }

    /// Single-flight admission for a cold query under `generation`.
    /// Returns `Some(token)` when the caller leads a fresh flight (it must
    /// submit the one execution, which resolves via
    /// [`ServerState::flight_resolve`]) and `None` when it joined an
    /// existing one — either way `tx` receives the flight's single
    /// [`JobReply`]. Counts leaders in `inflight_executions` and joiners in
    /// `coalesced_queries`.
    pub fn flight_begin(
        &self,
        generation: u64,
        key: &QueryKey,
        tx: Sender<JobReply>,
        deadline: Instant,
    ) -> Option<CancelToken> {
        let role = self
            .inflight
            .begin(generation, key, tx, deadline, || self.query_token(deadline));
        match role {
            FlightRole::Lead {
                cancel,
                stale_cancel,
            } => {
                if let Some(corpse) = stale_cancel {
                    // Leadership was taken over from a dead flight. A worker
                    // may still be wedged on the corpse's execution; firing
                    // its cancel handle is the only thing that releases it.
                    corpse.cancel();
                }
                self.metrics.inflight_executions.inc();
                Some(cancel)
            }
            FlightRole::Join => {
                self.metrics.coalesced_queries.inc();
                None
            }
        }
    }

    /// One flight waiter gave up (its deadline passed or its connection
    /// died). When the last live waiter abandons, the shared execution is
    /// cancelled — nobody is left to care about its result.
    pub fn flight_abandon(&self, generation: u64, key: &QueryKey) {
        if let Some(cancel) = self.inflight.abandon(generation, key) {
            cancel.cancel();
        }
    }

    /// Deliver one reply to every waiter of the flight over
    /// `(generation, key)` and retire it. Waiters that already gave up are
    /// skipped harmlessly (their receivers are gone).
    pub fn flight_resolve(&self, generation: u64, key: &QueryKey, reply: &JobReply) {
        for tx in self.inflight.resolve(generation, key) {
            let _ = tx.send(reply.clone());
        }
    }

    /// Run the search on the captured engine under `cancel` and populate
    /// the cache (tagged with the captured generation) on success. This is
    /// the expensive path — call it from a worker, not from a connection
    /// thread. `tracer` receives the searcher's stage callbacks (inert
    /// unless the query was sampled; see [`crate::trace::TraceCtx`]).
    ///
    /// # Errors
    /// Propagates the searcher's typed failures: cancellation (budget
    /// expiry) or an unindexed user.
    ///
    /// # Panics
    /// Panics when the key matches the configured `poison_user` fault
    /// injection — callers (the worker pool) isolate this via
    /// `catch_unwind`.
    pub fn try_execute(
        &self,
        engine: &EngineGen,
        key: &QueryKey,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &mut SearchScratch,
    ) -> Result<(RankedTopics, ServeOutcome), ServeError> {
        if self.config.poison_user == Some(key.user) {
            #[expect(
                clippy::panic,
                reason = "deliberate fault injection behind the poison-user test knob, used to \
                          exercise the worker pool's catch_unwind/respawn path; unreachable for \
                          real queries"
            )]
            {
                panic!("poisoned query for user {} (fault injection)", key.user);
            }
        }
        let dragged;
        let cancel = if self.config.drag_user == Some(key.user) {
            dragged = cancel.clone().with_check_delay(self.config.drag_per_check);
            &dragged
        } else {
            cancel
        };
        let query = KeywordQuery::new(NodeId(key.user), key.terms.clone());
        let outcome = engine
            .engine
            .try_search(&query, key.k, cancel, tracer, scratch)?;
        let ranked: RankedTopics = Arc::new(outcome.ranked.clone());
        self.metrics
            .shards_pruned
            .add(u64::from(outcome.shards_pruned));
        for &(shard, micros) in &outcome.fanout_micros {
            self.metrics.observe_shard_fanout(shard, micros);
        }
        if outcome.partial.is_empty() {
            // Tagged with the generation that computed it: if a swap landed
            // mid-search this entry is already stale and will be lazily
            // evicted on its first post-swap touch instead of ever answering.
            self.cache
                .insert(key.clone(), engine.generation, Arc::clone(&ranked));
        } else {
            // A partial ranking is an honest degraded answer for *this*
            // request only — caching it would keep serving the degradation
            // after the shard recovers.
            self.metrics.partial_replies.inc();
        }
        Ok((ranked, outcome))
    }

    /// Everything a reply is rendered from, captured once: the engine
    /// serving right now, and the cache census under one lock acquisition —
    /// so no reply can report `cache_entries ≠ live + stale` however many
    /// inserts race the scrape.
    fn view(&self) -> View<'_> {
        let current = self.current();
        let (cache_live, cache_stale) = self.cache.len_by_liveness();
        View {
            metrics: &self.metrics,
            cache: self.cache.counters(),
            config: &self.config,
            cache_live: cache_live as u64,
            cache_stale: cache_stale as u64,
            generation: current.generation,
            graph_nodes: current.engine.node_count() as u64,
            topics: current.engine.topic_count() as u64,
            index_bytes: current.engine.index_bytes() as u64,
            shards: u64::from(current.engine.shard_count()),
            snapshot_format: current.engine.snapshot_format(),
            mapped_bytes: current.engine.mapped_bytes(),
        }
    }

    /// The `STATS` reply: every registry row that declares a key.
    pub fn stats(&self) -> Vec<(String, String)> {
        metrics::render_stats(&self.view())
    }

    /// The `METRICS` reply: every registry row that declares a series, as
    /// Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        metrics::render_prometheus(&self.view())
    }
}
