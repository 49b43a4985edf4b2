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
//!        drain their connections, then drain the pool and join the updater
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
use pool::WorkerPool;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
        std::thread::Builder::new()
            .name("pit-updater".to_string())
            .spawn(move || updater_loop(&admin_rx, &state))?
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
fn updater_loop(rx: &Receiver<AdminJob>, state: &ServerState) {
    while let Ok((admin, reply)) = rx.recv() {
        let _ = reply.send(state.admin(&admin));
    }
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
            sh.pool.shutdown();
            drop(sh.admin);
            let _ = updater.join();
        }
        #[expect(
            clippy::unreachable,
            reason = "every Arc clone of the shared event state is owned by an I/O thread and all \
                      of them were joined above, so Arc::try_unwrap cannot find another holder"
        )]
        Err(_) => unreachable!("all I/O threads joined"),
    }
}
