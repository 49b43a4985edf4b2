//! `pit-server`: a concurrent TCP query daemon over the PIT-Search index.
//!
//! The offline artifacts (graph, topic space, walk/propagation/representative
//! indexes) are wrapped in an [`Arc`]-shared [`ServerState`] and served
//! read-only by a fixed worker pool. The wire format is length-prefixed
//! UTF-8 text ([`protocol`]); admission control is a bounded queue
//! ([`pool`]) that sheds with `ERR overloaded`, every query carries a time
//! budget that expires into `ERR timeout`, and repeated queries hit an LRU
//! result cache ([`cache`]). `SHUTDOWN` drains in-flight queries before the
//! listener exits.
//!
//! **The engine is live-swappable.** The paper's Section 4.4 requires the
//! offline artifacts to be refreshed "after a period of time when the
//! social network and topics have changed"; a daemon that loads once and
//! serves forever would go stale. Every engine change is one
//! [`protocol::Admin`] value — the six admin verbs are its wire spellings,
//! tabulated there — and takes one path: the connection hands it to a
//! dedicated **updater thread**, whose [`ServerState::admin`] builds the
//! successor from the serving engine ([`ServeEngine::successor`]) and swaps
//! it in or stages it. The worker pool keeps answering on the old
//! generation for the whole (possibly long) build; only the final pointer
//! swap takes a write lock, for nanoseconds. In-flight queries finish
//! against the engine `Arc` they captured at admission; cache entries are
//! tagged with the generation that computed them and a cross-generation hit
//! is a miss ([`cache`]), so no post-swap response is ever served from a
//! pre-swap ranking. A failed change leaves the old generation serving and
//! answers `ERR reload-failed …`.
//!
//! Failure semantics are deadline-true and typed. A query's budget travels
//! as a `CancelToken` (shared flag + deadline) checked cooperatively
//! inside the search, so expiry frees the worker mid-flight instead of
//! merely abandoning the waiter. Every `ERR` reason names what actually
//! happened:
//!
//! | reason           | meaning                                            |
//! |------------------|----------------------------------------------------|
//! | `timeout`        | the budget expired; the search was cancelled       |
//! | `overloaded`     | the bounded queue was full; query shed at admission|
//! | `malformed …`    | the request itself was invalid                     |
//! | `internal …`     | a server fault (panicking job, vanished worker)    |
//! | `reload-failed …`| an admin verb failed; old generation still serves  |
//! | `shutting-down`  | the server is draining                             |
//!
//! Worker panics are caught per job ([`pool`]) and, should one ever escape,
//! the dying worker is respawned — an index bug costs one reply
//! (`ERR internal`), never a worker, and is counted in `STATS` (`panics`,
//! `internal_errors`) instead of masquerading as a timeout.
//!
//! Threading model — connections cost file descriptors, not threads:
//!
//! ```text
//! acceptor ──round-robin──► io threads (event loop) ──try_send──► bounded queue
//!    │                        ▲   ▲ │  [conn state machines]           │
//!    │ (shutdown flag)        │   └─┴──reply channels────◄──────── worker pool
//!    │                        └─reply── updater thread (every `Admin`
//!    │                                   value: build, then swap or stage)
//!    └── on shutdown: stop accepting, drop the io channels, io threads
//!        drain their connections, then join updater, drain pool (the
//!        updater holds a pool sender for warmup, so it retires first)
//! ```
//!
//! A fixed set of I/O threads (`event`) own every client socket as a
//! nonblocking state machine (`conn`); CPU work is handed to the worker
//! pool and admin mutations to the updater, so tens of thousands of idle or
//! slow clients never exhaust threads — the failure mode that used to drop
//! connections silently at accept. Concurrent identical cold queries are
//! **coalesced** into a single flight ([`cache::InflightMap`]): one
//! execution, one cache fill, every waiter gets the same reply — which is
//! what keeps a post-`RELOAD` thundering herd from recomputing the same
//! ranking N times.

#![forbid(unsafe_code)]
// Serving code does not panic (DESIGN.md §10); a site that must carries an
// `#[expect]` stating why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod cache;
mod conn;
pub mod engine;
mod event;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod state;
pub mod trace;

pub use cache::{QueryCache, QueryKey};
pub use engine::{LocalServeEngine, ServeEngine, ServeError, ServeOutcome};
pub use metrics::{LatencyHistogram, Metrics};
pub use protocol::{
    read_frame, write_frame, Admin, ErrKind, ProbeTable, Request, Response, Successor, WireError,
    MAX_FRAME_BYTES,
};
pub use state::{AdminReply, EngineGen, RankedTopics, ServerConfig, ServerState};
pub use trace::{TraceCollector, TraceCtx, TraceOutcome};

use crossbeam::channel::{self, Receiver, Sender};
use pit_search_core::CancelToken;
use pool::{Admission, Job, PoolClient, QueryJob, ReplyTo, WorkerPool};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor sleeps when the listener has nothing for it; also
/// bounds how fast it notices the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or send the `SHUTDOWN` verb) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: CancelToken,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address — useful when the server was started on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful stop: stop accepting, let in-flight queries
    /// finish, then exit. Idempotent.
    pub fn shutdown(&self) {
        self.stop.cancel();
    }

    /// Block until the acceptor, every connection, and the worker pool have
    /// exited.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Bind `addr` and serve `state` until `SHUTDOWN` (wire or handle).
///
/// # Errors
/// Propagates the bind failure.
pub fn serve<A: ToSocketAddrs>(state: Arc<ServerState>, addr: A) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = CancelToken::cancellable();
    let pool = WorkerPool::start(Arc::clone(&state));
    let (admin_tx, admin_rx) = channel::unbounded::<AdminJob>();
    let updater = {
        let state = Arc::clone(&state);
        let jobs = pool.client();
        std::thread::Builder::new()
            .name("pit-updater".to_string())
            .spawn(move || updater_loop(&admin_rx, &state, &jobs))?
    };
    let shared = Arc::new(event::EventShared {
        state,
        pool,
        admin: admin_tx,
        stop: stop.clone(),
    });
    // A fixed, small I/O thread count — connection count never grows it.
    let io_threads = shared.state.config().io_threads.max(1);
    let mut senders = Vec::with_capacity(io_threads);
    let mut io_handles = Vec::with_capacity(io_threads);
    for i in 0..io_threads {
        let (tx, rx) = channel::unbounded::<TcpStream>();
        let shared = Arc::clone(&shared);
        io_handles.push(
            std::thread::Builder::new()
                .name(format!("pit-io-{i}"))
                .spawn(move || event::io_loop(&shared, &rx))?,
        );
        senders.push(tx);
    }
    let acceptor = {
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("pit-acceptor".to_string())
            .spawn(move || accept_loop(&listener, shared, senders, io_handles, updater, &stop))?
    };
    Ok(ServerHandle {
        addr,
        stop,
        acceptor: Some(acceptor),
    })
}

/// One engine change bound for the updater thread, with where to answer.
pub(crate) type AdminJob = (Admin, Sender<AdminReply>);

/// The updater thread: the one caller of [`ServerState::admin`], so
/// concurrent admin verbs apply one at a time and the worker pool never
/// blocks on a rebuild. Exits when the last admin sender drops (drain),
/// after finishing whatever was already queued.
///
/// After a successful blanket-flush swap the thread runs the bounded cache
/// warmup ([`warm_cache`]) before replying, so a `GEN <n>` answer means the
/// new generation's cache is as warm as the budget allowed.
fn updater_loop(rx: &Receiver<AdminJob>, state: &ServerState, jobs: &PoolClient) {
    while let Ok((admin, reply)) = rx.recv() {
        let result = state.admin(&admin);
        if result.is_ok() && admin.flushes_cache() {
            warm_cache(state, jobs);
        }
        let _ = reply.send(result);
    }
}

/// Replay the hottest query keys through the normal worker path so the
/// first clients after a blanket flush hit a warm cache instead of forming
/// a thundering herd of cold misses. Runs on the updater thread, strictly
/// bounded by `warmup_budget` (zero disables warmup entirely, the
/// default); each replayed query also carries the regular per-query budget
/// so one dragged search cannot eat the whole window.
///
/// Replays go through the pool's bounded queue like any client query —
/// `Overloaded` means real traffic is already warming the cache the honest
/// way, so that key is simply skipped. Keys whose user fell out of the new
/// engine (a shrinking reload) are dropped; keys a live client already
/// repopulated count as warmed without a replay.
fn warm_cache(state: &ServerState, jobs: &PoolClient) {
    let budget = state.config().warmup_budget;
    if budget.is_zero() || state.config().cache_capacity == 0 {
        return;
    }
    let metrics = state.metrics();
    let current = state.current();
    let keys = state.hot_keys(state.config().warmup_top);
    metrics.warmup_target.set(keys.len() as u64);
    metrics.warmup_warmed.set(0);
    let deadline = Instant::now() + budget;
    let mut warmed = 0u64;
    for key in keys {
        let now = Instant::now();
        let remaining = deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            metrics.warmup_budget_exhausted.inc();
            break;
        }
        if key.user as usize >= current.engine.node_count() {
            continue;
        }
        if state.cached_under(&key, current.generation) {
            warmed += 1;
            continue;
        }
        let (tx, rx) = channel::bounded::<pool::JobReply>(1);
        let job = Job::Query(QueryJob {
            engine: current.clone(),
            key,
            enqueued: now,
            cancel: state.query_token(now + state.config().query_budget.min(remaining)),
            reply: ReplyTo::Direct(tx),
            trace: state.tracing().begin(current.generation, now),
        });
        match jobs.submit(job) {
            Admission::Queued => {
                metrics.warmup_queries.inc();
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    // try_execute filled the cache under the new generation.
                    Ok(Ok(_)) => warmed += 1,
                    // Timeout/panic/unindexed user: the key stays cold.
                    Ok(Err(_)) => {}
                    Err(_) => {
                        // Budget elapsed mid-flight; the worker's eventual
                        // cache fill still lands, but the run is over.
                        metrics.warmup_budget_exhausted.inc();
                        break;
                    }
                }
            }
            Admission::Overloaded => continue,
            Admission::Closed => break,
        }
    }
    metrics.warmup_warmed.set(warmed);
}

fn accept_loop(
    listener: &TcpListener,
    shared: Arc<event::EventShared>,
    senders: Vec<Sender<TcpStream>>,
    io_handles: Vec<JoinHandle<()>>,
    updater: JoinHandle<()>,
    stop: &CancelToken,
) {
    let mut next = 0usize;
    while !stop.is_cancelled() {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let metrics = shared.state.metrics();
                metrics.connections.inc();
                if stream.set_nonblocking(true).is_err() {
                    // The fd is unusable for the event loop (exhaustion or a
                    // socket already dying): count it and tell the client,
                    // best effort, instead of dropping silently.
                    metrics.accept_errors.inc();
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = protocol::write_frame(
                        &mut stream,
                        &Response::Err(ErrKind::Overloaded.into()).render(),
                    );
                    continue;
                }
                let _ = stream.set_nodelay(true);
                metrics.open_connections.inc();
                // Unbounded + round-robin: the send cannot fail while the
                // I/O threads are alive, and they outlive this loop.
                let _ = senders[next % senders.len()].send(stream);
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => {
                shared.state.metrics().accept_errors.inc();
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    // Drain: dropping the senders tells every I/O thread to exit once its
    // connections finish their in-flight request; then the pool empties its
    // queue, and the updater finishes any queued admin work before exiting.
    drop(senders);
    for h in io_handles {
        let _ = h.join();
    }
    match Arc::try_unwrap(shared) {
        Ok(sh) => {
            // The updater holds a pool submit handle (post-reload warmup),
            // and workers only exit once *every* job sender is gone — so
            // the updater must be retired before the pool can drain. Drop
            // the last admin sender, join the updater (which drops its
            // handle), then shut the pool down. The reverse order
            // deadlocks.
            drop(sh.admin);
            let _ = updater.join();
            sh.pool.shutdown();
        }
        #[expect(
            clippy::unreachable,
            reason = "every Arc clone of the shared event state is owned by an I/O thread and all \
                      of them were joined above, so Arc::try_unwrap cannot find another holder"
        )]
        Err(_) => unreachable!("all I/O threads joined"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit::{Delta, PitEngine, SummarizerKind};
    use pit_index::PropIndexConfig;
    use pit_summarize::LrwConfig;
    use pit_walk::WalkConfig;
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::time::Instant;

    fn tiny_engine(seed: u64) -> PitEngine {
        let spec = pit_datasets::DatasetSpec {
            name: format!("server-test-{seed}"),
            nodes: 300,
            kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
            topics: pit_datasets::spec::scaled_topic_config(300, seed),
            seed,
        };
        let ds = pit_datasets::generate(&spec);
        PitEngine::builder()
            .walk(WalkConfig::new(3, 8).with_seed(2))
            .propagation(PropIndexConfig::with_theta(0.02))
            .summarizer(SummarizerKind::Lrw(LrwConfig {
                rep_count: Some(8),
                ..LrwConfig::default()
            }))
            .build_with_vocab(ds.graph, ds.space, Some(ds.vocab))
    }

    /// The server behind `Arc<dyn ServeEngine>` plus a raw handle to the
    /// same `PitEngine`, for tests that compare served answers against the
    /// offline search path.
    fn tiny_pair(config: ServerConfig) -> (Arc<PitEngine>, Arc<ServerState>) {
        let engine = Arc::new(tiny_engine(9));
        let state = Arc::new(ServerState::new(Arc::clone(&engine), config));
        (engine, state)
    }

    fn tiny_state(config: ServerConfig) -> Arc<ServerState> {
        tiny_pair(config).1
    }

    fn offline_ranking(engine: &PitEngine, user: u32, k: usize) -> Vec<(u32, f64)> {
        engine
            .search_keywords(pit_graph::NodeId(user), &["query-0"], k)
            .unwrap()
            .top_k
            .iter()
            .map(|s| (s.topic.0, s.score))
            .collect()
    }

    /// A scratch dir under the target-adjacent temp root, unique per test.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pit-server-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        protocol::write_frame(stream, &req.render()).unwrap();
        let text = protocol::read_frame(stream).unwrap().expect("reply");
        Response::parse(&text).unwrap()
    }

    #[test]
    fn serves_ping_query_stats_and_shuts_down() {
        let (engine, state) = tiny_pair(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        });
        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();

        assert_eq!(roundtrip(&mut c, &Request::Ping), Response::Pong);

        let query = Request::Query {
            user: 5,
            k: 5,
            keywords: vec!["query-0".to_string()],
        };
        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert!(!cached);
        assert!(!ranked.is_empty());
        // Served scores bit-match the offline path.
        let offline = engine
            .search_keywords(pit_graph::NodeId(5), &["query-0"], 5)
            .unwrap();
        let offline: Vec<(u32, f64)> = offline.top_k.iter().map(|s| (s.topic.0, s.score)).collect();
        assert_eq!(ranked, offline);

        // Second identical query is a cache hit.
        let Response::Topics {
            cached,
            ranked: again,
            ..
        } = roundtrip(&mut c, &query)
        else {
            panic!("expected topics");
        };
        assert!(cached);
        assert_eq!(again, offline);

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing stat {name}"))
        };
        assert_eq!(get("queries"), "2");
        assert_eq!(get("cache_hits"), "1");

        assert_eq!(roundtrip(&mut c, &Request::Shutdown), Response::Bye);
        handle.join();
    }

    #[test]
    fn malformed_and_unknown_requests_get_err() {
        let state = tiny_state(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let handle = serve(state, "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        protocol::write_frame(&mut c, "FROBNICATE").unwrap();
        let text = protocol::read_frame(&mut c).unwrap().unwrap();
        assert!(text.starts_with("ERR malformed"), "{text}");
        // Unknown keyword and out-of-range user are request errors, not
        // connection errors.
        protocol::write_frame(&mut c, "QUERY 5 3 no-such-keyword").unwrap();
        let text = protocol::read_frame(&mut c).unwrap().unwrap();
        assert!(text.starts_with("ERR malformed: unknown keyword"), "{text}");
        protocol::write_frame(&mut c, "QUERY 999999 3 query-0").unwrap();
        let text = protocol::read_frame(&mut c).unwrap().unwrap();
        assert!(text.starts_with("ERR malformed: user"), "{text}");
        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
    }

    fn get_stat(pairs: &[(String, String)], name: &str) -> u64 {
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
            .parse()
            .unwrap_or_else(|_| panic!("stat {name} not numeric"))
    }

    #[test]
    fn poisoned_query_is_internal_and_the_pool_self_heals() {
        // One worker + a poisoned user: the panic must cost one reply, not
        // the pool, and must be reported as `internal`, never `timeout`.
        let state = tiny_state(ServerConfig {
            workers: 1,
            poison_user: Some(5),
            ..ServerConfig::default()
        });
        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();

        let poisoned = Request::Query {
            user: 5,
            k: 3,
            keywords: vec!["query-0".to_string()],
        };
        let Response::Err(reason) = roundtrip(&mut c, &poisoned) else {
            panic!("poisoned query must error");
        };
        assert_eq!(reason.kind, ErrKind::Internal, "got: {reason}");

        // The sole worker is still serving.
        for user in [6u32, 7, 8] {
            let healthy = Request::Query {
                user,
                k: 3,
                keywords: vec!["query-0".to_string()],
            };
            assert!(
                matches!(roundtrip(&mut c, &healthy), Response::Topics { .. }),
                "pool must keep serving after a panic (user {user})"
            );
        }

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert!(get_stat(&pairs, "panics") >= 1);
        assert!(get_stat(&pairs, "internal_errors") >= 1);
        assert_eq!(
            get_stat(&pairs, "timeouts"),
            0,
            "a crash must not inflate the timeout counter"
        );

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
    }

    #[test]
    fn budget_expiry_cancels_the_search_and_frees_the_worker() {
        // One worker; user 7's queries sleep 1s at every cancellation check
        // (fault injection), so an uncancelled run would hold the worker
        // for probed_tables × 1s. The 100ms budget must (a) answer the
        // waiter on time and (b) release the worker at the first check.
        let drag = Duration::from_millis(1000);
        let (engine, state) = tiny_pair(ServerConfig {
            workers: 1,
            cache_capacity: 0,
            query_budget: Duration::from_millis(100),
            cancel_check_tables: 1,
            drag_user: Some(7),
            drag_per_check: drag,
            ..ServerConfig::default()
        });
        // How long the dragged search would run to completion.
        let full = engine
            .search_keywords(pit_graph::NodeId(7), &["query-0"], 3)
            .unwrap();
        assert!(
            full.probed_tables >= 2,
            "fixture query must probe multiple tables, got {}",
            full.probed_tables
        );
        let uncancelled_runtime = drag * full.probed_tables as u32;

        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        let started = Instant::now();
        let slow = Request::Query {
            user: 7,
            k: 3,
            keywords: vec!["query-0".to_string()],
        };
        let reply = roundtrip(&mut c, &slow);
        let waited = started.elapsed();
        assert_eq!(reply, Response::Err(ErrKind::Timeout.into()));
        assert!(
            waited < Duration::from_millis(600),
            "timeout reply must honor the budget, took {waited:?}"
        );

        // Poll until the worker answers again: it must come back long
        // before the dragged search would have completed.
        let healthy = Request::Query {
            user: 6,
            k: 3,
            keywords: vec!["query-0".to_string()],
        };
        loop {
            match roundtrip(&mut c, &healthy) {
                Response::Topics { .. } => break,
                Response::Err(reason) => {
                    assert_eq!(reason.kind, ErrKind::Timeout, "unexpected: {reason}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
            assert!(
                started.elapsed() < uncancelled_runtime,
                "worker still busy after {:?}; cancellation did not fire",
                started.elapsed()
            );
        }
        assert!(
            started.elapsed() < uncancelled_runtime,
            "worker freed only after {:?} — the search ran to completion \
             (full run would take {uncancelled_runtime:?})",
            started.elapsed()
        );

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert!(get_stat(&pairs, "timeouts") >= 1);
        assert_eq!(get_stat(&pairs, "internal_errors"), 0);
        assert_eq!(get_stat(&pairs, "panics"), 0);

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
    }

    #[test]
    fn reload_swaps_generation_and_cache_never_crosses() {
        let (engine, state) = tiny_pair(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        });
        let next = tiny_engine(10);
        let old_ranking = offline_ranking(&engine, 5, 5);
        let new_ranking = offline_ranking(&next, 5, 5);
        assert_ne!(old_ranking, new_ranking, "fixture engines must disagree");
        let dir = scratch_dir("reload");
        pit::store::save_engine(&dir, &next).unwrap();

        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        let query = Request::Query {
            user: 5,
            k: 5,
            keywords: vec!["query-0".to_string()],
        };

        // Warm the generation-1 cache.
        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert!(!cached);
        assert_eq!(ranked, old_ranking);
        let Response::Topics { cached, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert!(cached);

        let reload = Request::Admin(Admin::Install {
            next: Successor::Snapshot(dir.clone()),
            commit: true,
        });
        assert_eq!(roundtrip(&mut c, &reload), Response::Generation(2));

        // The identical query after the swap must be recomputed on the new
        // engine — a pre-swap cache entry answering here would be exactly
        // the staleness bug this server exists to avoid.
        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert!(!cached, "post-swap reply served from the pre-swap cache");
        assert_eq!(ranked, new_ranking);
        // …and the recomputation repopulates the cache under generation 2.
        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert!(cached);
        assert_eq!(ranked, new_ranking);

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(get_stat(&pairs, "generation"), 2);
        assert_eq!(get_stat(&pairs, "reloads"), 1);
        assert_eq!(get_stat(&pairs, "reload_failures"), 0);
        assert!(get_stat(&pairs, "cache_stale_evictions") >= 1);

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_reload_keeps_the_old_generation_serving() {
        let (engine, state) = tiny_pair(ServerConfig {
            workers: 1,
            cache_capacity: 16,
            ..ServerConfig::default()
        });
        let old_ranking = offline_ranking(&engine, 5, 5);
        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();

        let reload = Request::Admin(Admin::Install {
            next: Successor::Snapshot("/no/such/snapshot-dir".into()),
            commit: true,
        });
        let Response::Err(reason) = roundtrip(&mut c, &reload) else {
            panic!("reload of a missing snapshot must fail");
        };
        assert_eq!(reason.kind, ErrKind::ReloadFailed, "got: {reason}");

        // Still answering, still generation 1, still the old rankings.
        let query = Request::Query {
            user: 5,
            k: 5,
            keywords: vec!["query-0".to_string()],
        };
        let Response::Topics { ranked, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert_eq!(ranked, old_ranking);

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(get_stat(&pairs, "generation"), 1);
        assert_eq!(get_stat(&pairs, "reloads"), 0);
        assert_eq!(get_stat(&pairs, "reload_failures"), 1);

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
    }

    #[test]
    fn update_applies_delta_and_serves_the_successor_generation() {
        let (base, state) = tiny_pair(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        });
        // Pick an edge the fixture graph does not have, so the delta is valid.
        let u = pit_graph::NodeId(5);
        let v = (0..base.graph().node_count() as u32)
            .map(pit_graph::NodeId)
            .find(|&v| v != u && !base.graph().has_edge(u, v))
            .expect("fixture graph is not complete");
        let delta = Delta {
            new_edges: vec![(u, v, 0.7)],
            new_assignments: vec![],
        };
        // The served post-update ranking must equal this offline apply.
        let (expected_engine, _) = base.with_delta(&delta).unwrap();
        let expected = offline_ranking(&expected_engine, 5, 5);

        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        let query = Request::Query {
            user: 5,
            k: 5,
            keywords: vec!["query-0".to_string()],
        };
        // Warm the generation-1 cache so the swap has something to outdate.
        assert!(matches!(
            roundtrip(&mut c, &query),
            Response::Topics { cached: false, .. }
        ));

        let update = Request::Admin(Admin::Install {
            next: Successor::Delta(delta),
            commit: true,
        });
        assert_eq!(roundtrip(&mut c, &update), Response::Generation(2));

        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &query) else {
            panic!("expected topics");
        };
        assert!(
            !cached,
            "post-update reply served from the pre-update cache"
        );
        assert_eq!(ranked, expected);

        // An invalid delta (unknown topic) must fail without a swap.
        let bad = Request::Admin(Admin::Install {
            next: Successor::Delta(Delta {
                new_edges: vec![],
                new_assignments: vec![(u, pit_graph::TopicId(1_000_000))],
            }),
            commit: true,
        });
        let Response::Err(reason) = roundtrip(&mut c, &bad) else {
            panic!("bad delta must fail");
        };
        assert_eq!(reason.kind, ErrKind::ReloadFailed, "got: {reason}");

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(get_stat(&pairs, "generation"), 2);
        assert_eq!(get_stat(&pairs, "reloads"), 1);
        assert_eq!(get_stat(&pairs, "reload_failures"), 1);

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
    }

    /// Two disconnected five-node islands, each with its own topic and its
    /// own term. An edge delta inside one island provably cannot touch the
    /// other: no walk, Γ table, or term bag crosses the gap.
    fn island_engine() -> PitEngine {
        use pit_graph::NodeId;
        let mut g = pit_graph::GraphBuilder::new(10);
        // Island A: 0→1→2→3→4→0 ring plus a 0→2 shortcut.
        // Island B: 5→6→7→8→9→5 ring plus a 5→7 shortcut; 6→9 is left out
        // so the delta below adds a genuinely new edge. Rings, so influence
        // is mutual and scores are nonzero — a chain's source-node rep
        // would make every answer a degenerate 0.0.
        for &(a, b) in &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        for &(a, b) in &[(5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (5, 7)] {
            g.add_edge(NodeId(a), NodeId(b), 0.5).unwrap();
        }
        let graph = g.build().unwrap();
        let mut vocab = pit_topics::Vocabulary::new();
        let term_a = vocab.intern("island-a");
        let term_b = vocab.intern("island-b");
        let mut b = pit_topics::TopicSpaceBuilder::new(10, 2);
        let t_a = b.add_topic(vec![term_a]);
        for m in 0..5 {
            b.assign(NodeId(m), t_a);
        }
        let t_b = b.add_topic(vec![term_b]);
        for m in 5..10 {
            b.assign(NodeId(m), t_b);
        }
        PitEngine::builder()
            .walk(WalkConfig::new(4, 8).with_seed(3))
            .propagation(PropIndexConfig::with_theta(0.01))
            .summarizer(SummarizerKind::Lrw(LrwConfig::default()))
            .build_with_vocab(graph, b.build(), Some(vocab))
    }

    #[test]
    fn update_leaves_disjoint_cache_entries_hitting() {
        let base = Arc::new(island_engine());
        let state = Arc::new(ServerState::new(
            Arc::clone(&base),
            ServerConfig {
                workers: 2,
                cache_capacity: 16,
                ..ServerConfig::default()
            },
        ));
        // A new edge strictly inside island B.
        let delta = Delta {
            new_edges: vec![(pit_graph::NodeId(6), pit_graph::NodeId(9), 0.9)],
            new_assignments: vec![],
        };
        // Offline ground truth: the blast radius stays inside island B.
        let (next_engine, report) = base.with_delta(&delta).unwrap();
        let scope = &report.scope;
        let term_a = base.vocab().unwrap().get("island-a").unwrap();
        assert!(!scope.touches_user(pit_graph::NodeId(0)), "{scope:?}");
        assert!(!scope.touches_assignment_terms(&[term_a]));
        assert!(!scope.touches_edge_terms(&[term_a]), "{scope:?}");
        assert!(scope.touches_user(pit_graph::NodeId(9)), "{scope:?}");

        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        let disjoint = Request::Query {
            user: 0,
            k: 3,
            keywords: vec!["island-a".to_string()],
        };
        let affected = Request::Query {
            user: 9,
            k: 3,
            keywords: vec!["island-b".to_string()],
        };
        // Warm both under generation 1.
        assert!(matches!(
            roundtrip(&mut c, &disjoint),
            Response::Topics { cached: false, .. }
        ));
        assert!(matches!(
            roundtrip(&mut c, &affected),
            Response::Topics { cached: false, .. }
        ));

        let update = Request::Admin(Admin::Install {
            next: Successor::Delta(delta),
            commit: true,
        });
        assert_eq!(roundtrip(&mut c, &update), Response::Generation(2));

        // The island-A entry crossed the generation bump alive — and its
        // cached answer bit-matches a fresh computation on the new engine.
        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &disjoint) else {
            panic!("expected topics");
        };
        assert!(cached, "disjoint entry must survive a scoped UPDATE");
        let recomputed: Vec<(u32, f64)> = next_engine
            .search_keywords(pit_graph::NodeId(0), &["island-a"], 3)
            .unwrap()
            .top_k
            .iter()
            .map(|s| (s.topic.0, s.score))
            .collect();
        assert_eq!(ranked, recomputed, "survivor must equal recompute");

        // The island-B entry did not survive.
        assert!(matches!(
            roundtrip(&mut c, &affected),
            Response::Topics { cached: false, .. }
        ));

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(get_stat(&pairs, "generation"), 2);
        assert!(get_stat(&pairs, "cache_survivors") >= 1);
        assert!(
            get_stat(&pairs, "cache_stale_edge_added") >= 1,
            "affected entry must carry the edge-added stale reason"
        );

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
    }

    #[test]
    fn reload_warmup_repopulates_the_hottest_keys() {
        let state = tiny_state(ServerConfig {
            workers: 2,
            cache_capacity: 16,
            warmup_budget: Duration::from_secs(10),
            warmup_top: 4,
            ..ServerConfig::default()
        });
        let next = tiny_engine(10);
        let new_ranking = offline_ranking(&next, 5, 5);
        let dir = scratch_dir("warmup");
        pit::store::save_engine(&dir, &next).unwrap();

        let handle = serve(Arc::clone(&state), "127.0.0.1:0").unwrap();
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        let hot = Request::Query {
            user: 5,
            k: 5,
            keywords: vec!["query-0".to_string()],
        };
        // Make user 5 the hottest key in the frequency sketch.
        for _ in 0..3 {
            assert!(matches!(roundtrip(&mut c, &hot), Response::Topics { .. }));
        }

        let reload = Request::Admin(Admin::Install {
            next: Successor::Snapshot(dir.clone()),
            commit: true,
        });
        // The GEN reply arrives only after the warmup run finished.
        assert_eq!(roundtrip(&mut c, &reload), Response::Generation(2));

        // First post-reload query: already warm, and warm with the *new*
        // engine's ranking — warmup replayed it through the worker path.
        let Response::Topics { ranked, cached, .. } = roundtrip(&mut c, &hot) else {
            panic!("expected topics");
        };
        assert!(cached, "warmup must repopulate the hottest key");
        assert_eq!(ranked, new_ranking);

        let Response::Stats(pairs) = roundtrip(&mut c, &Request::Stats) else {
            panic!("expected stats");
        };
        assert!(get_stat(&pairs, "warmup_queries") >= 1);
        let coverage: f64 = pairs
            .iter()
            .find(|(k, _)| k == "warmup_coverage")
            .expect("missing stat warmup_coverage")
            .1
            .parse()
            .unwrap();
        assert!(coverage > 0.0, "last warmup run must report coverage");

        roundtrip(&mut c, &Request::Shutdown);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_prefix_closes_the_connection_without_a_reply() {
        // The event loop's frame reader must refuse a length prefix above
        // the cap before buffering toward it: no reply, the connection
        // closes, and the server keeps serving everyone else.
        let state = tiny_state(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let handle = serve(state, "127.0.0.1:0").unwrap();
        for len in [MAX_FRAME_BYTES as u32 + 1, u32::MAX] {
            let mut c = TcpStream::connect(handle.addr()).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            c.write_all(&len.to_le_bytes()).unwrap();
            c.write_all(b"PING").unwrap();
            let mut buf = [0u8; 64];
            match std::io::Read::read(&mut c, &mut buf) {
                Ok(0) => {}
                Err(e) => assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "prefix {len}: connection left open ({e})"
                ),
                Ok(n) => panic!("prefix {len}: got a {n}-byte reply instead of a close"),
            }
            let mut fresh = TcpStream::connect(handle.addr()).unwrap();
            assert_eq!(roundtrip(&mut fresh, &Request::Ping), Response::Pong);
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn handle_shutdown_stops_the_server() {
        let state = tiny_state(ServerConfig::default());
        let handle = serve(state, "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let mut c = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip(&mut c, &Request::Ping), Response::Pong);
        handle.shutdown();
        handle.join();
        // The listener is gone: a fresh connection now fails (either refused
        // outright or closed before replying).
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut c2) => {
                let dead = protocol::write_frame(&mut c2, "PING").is_err()
                    || c2.flush().is_err()
                    || matches!(protocol::read_frame(&mut c2), Ok(None) | Err(_));
                assert!(dead, "server still answering after shutdown");
            }
        }
    }
}
