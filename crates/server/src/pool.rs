//! Worker pool: a fixed set of threads draining a bounded request queue,
//! isolated from query panics and self-healing when one slips through.
//!
//! The bounded `crossbeam` channel is the server's admission controller —
//! connection threads `try_send`, and a full queue becomes an immediate
//! `ERR overloaded` instead of unbounded queueing. Workers exit when every
//! sender is dropped, which is exactly the graceful-shutdown drain: the
//! queue empties, then the pool joins.
//!
//! Failure isolation is layered. Each job runs under `catch_unwind`, so a
//! panic inside the engine answers that one waiter with
//! [`JobError::Panicked`] and the worker lives on. Should a panic ever
//! escape the guarded region (e.g. while reporting the result), a sentinel
//! respawns a replacement thread before the dying one unwinds away — the
//! pool never silently bleeds capacity.

use crate::cache::QueryKey;
use crate::engine::ServeError;
use crate::event::Wake;
use crate::protocol::{ErrKind, Response};
use crate::state::{EngineGen, RankedTopics, ServerState};
use crate::trace::{TraceCtx, TraceOutcome};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use pit_obs::Counter;
use pit_search_core::{CancelToken, SearchError, SearchScratch, SearchStats};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Why a worker could not produce a ranking for an admitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The query execution panicked; the pool survived, the result did not.
    Panicked,
    /// A typed search failure (cancelled mid-flight or unindexed user).
    Search(SearchError),
    /// A router could not seed the search: the query user's home shard was
    /// unreachable. Maps to `ERR internal: …` — backend health is the
    /// server's fault, never the client's.
    Shard(String),
    /// The flight leader could not admit the shared execution: the bounded
    /// queue was full. Every waiter of that flight maps this to
    /// `ERR overloaded` (and one `shed` bump each), exactly as if it had
    /// been shed at its own admission.
    Shed,
    /// The flight leader found the pool gone — the server is draining.
    /// Maps to `ERR shutting-down`.
    Closed,
}

/// What a worker sends back for an admitted job: the ranking, the service
/// time in µs, and the (usually empty) partial-answer provenance —
/// `(shard index, reason)` for every shard that could not contribute.
pub type JobReply = Result<(RankedTopics, u64, Vec<(u32, String)>), JobError>;

/// One unit of work admitted to the bounded queue.
pub enum Job {
    /// A client `QUERY` (the expensive path).
    Query(QueryJob),
    /// One router `EXPAND` probe round — a pure read against the captured
    /// generation. Runs on the pool so a slow round blocks a worker,
    /// never an I/O thread.
    Expand(ExpandJob),
}

/// One `EXPAND` probe round bound for a worker.
pub struct ExpandJob {
    /// Engine generation captured (and verified against the request) at
    /// dispatch; the round answers under exactly this generation.
    pub engine: EngineGen,
    /// Resolved query term ids.
    pub terms: Vec<u32>,
    /// `(user, mass)` probes to expand.
    pub probes: Vec<(u32, f64)>,
    /// Buffered (capacity 1) reply slot; the send never blocks a worker.
    pub reply: Reply<Response>,
}

/// A buffered (capacity 1) reply slot bound for one connection. Filling it
/// — or dropping it unfilled, which the connection reads as a vanished
/// replier — wakes the connection's I/O thread, so the reply is picked up
/// the moment it exists instead of at some later poll.
pub struct Reply<T> {
    tx: Sender<T>,
    wake: Wake,
}

impl<T> Reply<T> {
    /// A slot whose filling wakes through `wake`, and its receiving end.
    pub(crate) fn slot(wake: Wake) -> (Reply<T>, Receiver<T>) {
        let (tx, rx) = channel::bounded(1);
        (Reply { tx, wake }, rx)
    }

    /// Deliver the reply. Never blocks; a receiver that already gave up
    /// is skipped harmlessly.
    pub fn send(self, value: T) {
        let _ = self.tx.send(value);
        // `self` drops here: the wake follows the value.
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        self.wake.wake();
    }
}

/// One admitted query, owned by a worker until answered. The answer goes to
/// the single-flight registry: the worker resolves the flight keyed by the
/// job's `(generation, key)`, delivering one clone per waiter and skipping
/// dead receivers, so its send never blocks even when every waiter already
/// gave up.
pub struct QueryJob {
    /// Engine generation captured at admission. The worker executes against
    /// exactly this engine even if a `RELOAD` swap lands while the job is
    /// queued or running — in-flight queries finish on the `Arc` they
    /// captured, and their cache fill is tagged with this generation.
    pub engine: EngineGen,
    /// Validated, normalized query identity.
    pub key: QueryKey,
    /// When the connection thread admitted the job; service latency is
    /// measured from here so queue wait counts against the budget.
    pub enqueued: Instant,
    /// Shared cancellation/deadline token: the waiter sets its flag when
    /// the budget expires, and the token's own deadline stops the search
    /// even if the waiter is gone.
    pub cancel: CancelToken,
    /// Per-query trace handle, created at admission; the worker that
    /// answers the job finalizes it (inert single branch when unsampled).
    pub trace: TraceCtx,
}

/// Outcome of offering a job to the pool.
pub enum Admission {
    /// Job accepted; await the reply channel.
    Queued,
    /// Queue full — shed.
    Overloaded,
    /// Pool is gone (server shutting down).
    Closed,
}

/// Everything a worker thread (and its respawn sentinel) needs.
struct PoolShared {
    rx: Receiver<Job>,
    state: Arc<ServerState>,
    /// Live worker handles; respawned replacements are recorded here so
    /// shutdown joins them too.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Ticket source for worker thread names.
    next_id: Counter,
    /// Cancelled once shutdown begins; sentinels stop respawning past this
    /// point.
    draining: CancelToken,
}

/// The worker pool plus the sending side of its queue.
pub struct WorkerPool {
    jobs: Sender<Job>,
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawn `state.config().workers` threads over a queue of depth
    /// `state.config().queue_depth`.
    pub fn start(state: Arc<ServerState>) -> WorkerPool {
        let workers = state.config().workers.max(1);
        let (jobs, rx) = channel::bounded::<Job>(state.config().queue_depth);
        let shared = Arc::new(PoolShared {
            rx,
            state,
            handles: Mutex::named("server.pool.handles", Vec::with_capacity(workers)),
            next_id: Counter::new(0),
            draining: CancelToken::cancellable(),
        });
        for _ in 0..workers {
            #[expect(
                clippy::expect_used,
                reason = "startup-only: runs before the listener accepts any connection, so \
                          failing fast is the correct behaviour; there is no request to degrade"
            )]
            spawn_worker(&shared).expect("spawn worker thread");
        }
        WorkerPool { jobs, shared }
    }

    /// Offer a job without blocking; a full queue is the load-shed signal.
    /// Maintains the `queued_jobs` gauge — incremented before the offer so a
    /// worker's decrement can never precede it, decremented right back when
    /// the offer is refused.
    pub fn submit(&self, job: Job) -> Admission {
        let gauge = &self.shared.state.metrics().queued_jobs;
        gauge.inc();
        match self.jobs.try_send(job) {
            Ok(()) => Admission::Queued,
            Err(TrySendError::Full(_)) => {
                gauge.dec();
                Admission::Overloaded
            }
            Err(TrySendError::Disconnected(_)) => {
                gauge.dec();
                Admission::Closed
            }
        }
    }

    /// Stop accepting new jobs, drain the queue, and join every worker —
    /// including any respawned replacements.
    pub fn shutdown(self) {
        self.shared.draining.cancel();
        drop(self.jobs); // workers drain the queue, then see Disconnected
        loop {
            // Pop one handle at a time: a dying worker's sentinel may still
            // push a replacement while we join, and it must be joined too.
            let handle = self.shared.handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// Spawn one worker thread and record its handle for shutdown.
///
/// # Errors
/// Propagates the OS thread-spawn failure; the caller decides whether that
/// is fatal (pool startup) or lost capacity to absorb (sentinel respawn,
/// which runs during unwinding where a second panic would abort).
fn spawn_worker(shared: &Arc<PoolShared>) -> std::io::Result<()> {
    let id = shared.next_id.add(1);
    let cloned = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("pit-worker-{id}"))
        .spawn(move || {
            let sentinel = Sentinel {
                shared: Arc::clone(&cloned),
            };
            worker_loop(&cloned.rx, &cloned.state);
            // Clean exit (queue drained): the sentinel must not respawn.
            std::mem::forget(sentinel);
        })?;
    shared.handles.lock().push(handle);
    Ok(())
}

/// Respawn guard: dropped during unwinding only when a panic escaped the
/// per-job `catch_unwind`, in which case the dying worker is replaced so
/// the pool keeps its configured capacity.
struct Sentinel {
    shared: Arc<PoolShared>,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.shared.draining.is_cancelled() {
            self.shared.state.metrics().panics.inc();
            // Already unwinding: a panic here would abort the process, so a
            // failed respawn is absorbed as reduced capacity, not escalated.
            if spawn_worker(&self.shared).is_err() {
                eprintln!(
                    "pit-server: could not respawn worker after a panic; pool capacity reduced"
                );
            }
        }
    }
}

fn worker_loop(rx: &Receiver<Job>, state: &ServerState) {
    // One scratch arena per worker, reused across every query this thread
    // ever runs: after the first few queries warm its buffers, the search's
    // probe/feed loop performs no heap allocation at all. `begin` resets the
    // contents each query, so a scratch abandoned mid-search by a panic
    // (caught below) is safe to reuse.
    let mut scratch = SearchScratch::new();
    while let Ok(job) = rx.recv() {
        state.metrics().queued_jobs.dec();
        match job {
            Job::Query(job) => run_query(job, state, &mut scratch),
            Job::Expand(job) => run_expand(job, state),
        }
    }
}

/// One `EXPAND` round on a worker. The generation was verified at dispatch;
/// the captured engine is immutable, so the reply's generation tag is
/// correct even if a swap lands mid-round.
fn run_expand(job: ExpandJob, state: &ServerState) {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        job.engine.engine.expand(&job.terms, &job.probes)
    }));
    let response = match result {
        Ok(Ok((tables, bound))) => Response::Expanded {
            gen: job.engine.generation,
            bound,
            tables,
        },
        Ok(Err(err)) => Response::refusal(err, state.metrics()),
        Err(_) => {
            state.metrics().panics.inc();
            Response::refusal(
                ErrKind::Internal.because("expand panicked"),
                state.metrics(),
            )
        }
    };
    job.reply.send(response);
}

fn run_query(mut job: QueryJob, state: &ServerState, scratch: &mut SearchScratch) {
    {
        let waited = job.enqueued.elapsed();
        state.metrics().queue_wait.observe(waited);
        job.trace.queue_wait(waited);
        if job.cancel.is_cancelled() {
            // Every waiter already timed out (or the deadline expired
            // in-queue): don't burn CPU on an abandoned job.
            state.tracing().finish(
                job.trace,
                &job.key,
                TraceOutcome::Timeout,
                None,
                job.enqueued.elapsed(),
                state.metrics(),
            );
            state.flight_resolve(
                job.engine.generation,
                &job.key,
                &Err(JobError::Search(SearchError::Cancelled {
                    probed_tables: 0,
                    expand_rounds: 0,
                })),
            );
            return;
        }
        let exec_started = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            state.try_execute(&job.engine, &job.key, &job.cancel, &mut job.trace, scratch)
        }));
        let (reply, stats): (JobReply, Option<SearchStats>) = match result {
            Ok(Ok((ranked, serve))) => {
                state.metrics().execution.observe(exec_started.elapsed());
                let elapsed = job.enqueued.elapsed();
                let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
                if !job.cancel.is_cancelled() {
                    state.metrics().latency.observe(elapsed);
                }
                (Ok((ranked, micros, serve.partial)), Some(serve.stats))
            }
            Ok(Err(ServeError::Search(e))) => {
                // A cancelled search still reports the work it did before
                // the token fired — the trace and histograms see real work,
                // not zeros.
                let stats = match &e {
                    SearchError::Cancelled {
                        probed_tables,
                        expand_rounds,
                    } => Some(SearchStats {
                        probed_tables: *probed_tables,
                        expand_rounds: *expand_rounds,
                        ..SearchStats::default()
                    }),
                    SearchError::UserOutOfRange { .. } => None,
                };
                (Err(JobError::Search(e)), stats)
            }
            Ok(Err(ServeError::Shard(reason))) => (Err(JobError::Shard(reason)), None),
            Err(_) => {
                // The panic payload already went to the panic hook (stderr);
                // count it and keep serving.
                state.metrics().panics.inc();
                (Err(JobError::Panicked), None)
            }
        };
        // Finalize the trace before releasing the waiter: a client that has
        // its answer is guaranteed to find the query in METRICS and TRACE.
        state.tracing().finish(
            job.trace,
            &job.key,
            TraceOutcome::from(&reply),
            stats,
            job.enqueued.elapsed(),
            state.metrics(),
        );
        state.flight_resolve(job.engine.generation, &job.key, &reply);
    }
}
