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
//! listener ─► io thread 0 ─round-robin hand-over─► io threads 1.. ─try_send─► bounded queue
//!             [each: one readiness wait over its sockets + waker + deadlines]      │
//!                  ▲   ▲                                                            │
//!                  │   └──── reply slot: inbox note + wake ◄──────────────── worker pool
//!                  └──────── reply slot ◄── updater thread (every `Admin` value:
//!                                            build, then swap or stage)
//! on shutdown: the stop wakes every io thread; thread 0 closes the listener,
//! each thread drains its connections, then thread 0 drains the pool and
//! joins the updater
//! ```
//!
//! A fixed set of I/O threads (`event`) own every client socket as a
//! nonblocking state machine (`conn`) and block in a readiness wait
//! (`pit_sys::Poller`) between events; CPU work is handed to the worker
//! pool and admin mutations to the updater, whose reply slots wake the
//! waiting connection's thread. Tens of thousands of idle or slow clients
//! therefore cost neither threads nor CPU — running out of threads is the
//! failure mode that used to drop connections silently at accept.
//! Concurrent identical cold queries are **coalesced** into a single flight
//! ([`cache::InflightMap`]): one execution, one cache fill, every waiter
//! gets the same reply — which is what keeps a post-`RELOAD` thundering
//! herd from recomputing the same ranking N times.

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

use crossbeam::channel::{self, Receiver};
use event::{Acceptor, EventShared, Mailbox, Stop};
use pit_sys::Poller;
use pool::{Reply, WorkerPool};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or send the `SHUTDOWN` verb) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Stop,
    /// I/O thread 0, which owns the listener and runs the drain.
    io0: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address — useful when the server was started on port 0.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful stop: stop accepting, let in-flight queries
    /// finish, then exit. Idempotent.
    pub fn shutdown(&self) {
        self.stop.trigger();
    }

    /// Block until the listener, every connection, and the worker pool have
    /// exited.
    pub fn join(mut self) {
        if let Some(h) = self.io0.take() {
            let _ = h.join();
        }
    }
}

/// Bind `addr` and serve `state` until `SHUTDOWN` (wire or handle).
///
/// # Errors
/// Propagates the bind failure, or the readiness poller's (fd exhaustion).
pub fn serve<A: ToSocketAddrs>(state: Arc<ServerState>, addr: A) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // A fixed, small I/O thread count — connection count never grows it.
    let io_threads = state.config().io_threads.max(1);
    let mut threads = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let poller = Poller::new()?;
        let (tx, inbox) = channel::unbounded();
        let mailbox = Mailbox::new(tx, poller.waker());
        threads.push((poller, inbox, mailbox));
    }
    let stop = Stop::new(threads.iter().map(|(poller, ..)| poller.waker()).collect());
    let pool = WorkerPool::start(Arc::clone(&state));
    let (admin_tx, admin_rx) = channel::unbounded::<AdminJob>();
    let updater = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("pit-updater".to_string())
            .spawn(move || updater_loop(&admin_rx, &state))?
    };
    let shared = Arc::new(EventShared {
        state,
        pool,
        admin: admin_tx,
        stop: stop.clone(),
    });
    // Thread 0 owns the listener and, once stopped, runs the drain.
    let (poller0, inbox0, mailbox0) = threads.remove(0);
    let mut peers = Vec::with_capacity(io_threads);
    let mut io_handles = Vec::with_capacity(io_threads);
    for (i, (poller, inbox, mailbox)) in threads.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        peers.push(mailbox.clone());
        io_handles.push(
            std::thread::Builder::new()
                .name(format!("pit-io-{}", i + 1))
                .spawn(move || event::io_loop(&shared, poller, &inbox, mailbox, None))?,
        );
    }
    let acceptor = Acceptor::new(listener, peers);
    let io0 = std::thread::Builder::new()
        .name("pit-io-0".to_string())
        .spawn(move || {
            event::io_loop(&shared, poller0, &inbox0, mailbox0, Some(acceptor));
            drain(shared, io_handles, updater);
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        io0: Some(io0),
    })
}

/// One engine change bound for the updater thread, with where to answer.
pub(crate) type AdminJob = (Admin, Reply<AdminReply>);

/// The updater thread: the one caller of [`ServerState::admin`], so
/// concurrent admin verbs apply one at a time and the worker pool never
/// blocks on a rebuild. Exits when the last admin sender drops (drain),
/// after finishing whatever was already queued.
fn updater_loop(rx: &Receiver<AdminJob>, state: &ServerState) {
    while let Ok((admin, reply)) = rx.recv() {
        reply.send(state.admin(&admin));
    }
}

/// The drain's tail, run by I/O thread 0 once its own connections are gone
/// and the listener is closed: wait for the other I/O threads to finish
/// theirs, then the pool empties its queue, and the updater finishes any
/// queued admin work before exiting.
fn drain(shared: Arc<EventShared>, io_handles: Vec<JoinHandle<()>>, updater: JoinHandle<()>) {
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
