//! The readiness-driven I/O loop: a small fixed set of threads owning all
//! client sockets.
//!
//! Each I/O thread runs [`io_loop`] over its own registry of [`Conn`]s,
//! sweeping every connection with nonblocking reads/writes and an adaptive
//! backoff sleep between sweeps: any observable progress (bytes moved, a
//! frame dispatched, a worker reply delivered) resets the backoff to
//! [`BACKOFF_MIN`], and a fully idle sweep doubles it up to [`BACKOFF_MAX`].
//! That keeps a busy loop hot (sub-millisecond reaction) while ten thousand
//! idle connections cost a 10 ms-period scan and zero threads — the whole
//! point of the refactor. The std library exposes no portable readiness
//! API, so this is a polling loop by construction; an epoll/kqueue poller
//! could replace the sleep without touching [`Conn`] (the per-connection
//! state machine is readiness-agnostic).
//!
//! The acceptor hands fresh sockets over a channel (round-robin across
//! threads); a disconnected channel is the drain signal, after which the
//! loop exits as soon as its last connection finishes.

use crate::conn::Conn;
use crate::pool::WorkerPool;
use crate::state::ServerState;
use crate::AdminJob;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use pit_search_core::CancelToken;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sleep after a sweep that made progress (and the backoff floor).
const BACKOFF_MIN: Duration = Duration::from_micros(200);
/// Backoff ceiling: the worst-case reaction latency of a fully idle loop.
const BACKOFF_MAX: Duration = Duration::from_millis(10);

/// Everything a connection needs to serve a request, shared by every I/O
/// thread and the acceptor.
pub(crate) struct EventShared {
    pub(crate) state: Arc<ServerState>,
    pub(crate) pool: WorkerPool,
    /// Sending side of the updater thread's queue.
    pub(crate) admin: Sender<AdminJob>,
    /// The graceful-stop flag (`SHUTDOWN` verb or [`crate::ServerHandle`]).
    pub(crate) stop: CancelToken,
}

/// One I/O thread: own a share of the client sockets, sweep them until the
/// acceptor hangs up and the last connection drains.
pub(crate) fn io_loop(shared: &EventShared, incoming: &Receiver<TcpStream>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = BACKOFF_MIN;
    let mut disconnected = false;
    loop {
        let stopping = shared.stop.is_cancelled();
        let mut progress = false;
        loop {
            match incoming.try_recv() {
                Ok(stream) => {
                    progress = true;
                    if stopping {
                        // Accepted just as the drain began: closing the
                        // socket unanswered is exactly what the listener
                        // going away looks like to the client.
                        shared.state.metrics().open_connections.dec();
                        drop(stream);
                    } else {
                        conns.push(Conn::new(stream, Instant::now()));
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let now = Instant::now();
        conns.retain_mut(|conn| {
            let stepped = conn.step(shared, stopping, now);
            if stepped.progress {
                progress = true;
            }
            if !stepped.alive {
                shared.state.metrics().open_connections.dec();
            }
            stepped.alive
        });
        if disconnected && conns.is_empty() {
            return;
        }
        if progress {
            backoff = BACKOFF_MIN;
        } else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }
}
