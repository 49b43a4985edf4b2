//! The readiness-driven I/O loop: a small fixed set of threads owning all
//! client sockets.
//!
//! Each I/O thread runs [`io_loop`] over its own slab of [`Conn`]s and
//! blocks in one readiness wait ([`pit_sys::Poller`]: `epoll` on Linux,
//! `poll(2)` elsewhere) until something needs it:
//!
//! - one of its sockets is readable or writable;
//! - the listener has a connection (I/O thread 0 owns the listener);
//! - its [`Waker`] fires: a worker, `EXPAND` or updater reply landed for
//!   one of its connections, another thread handed it a socket, or the
//!   server is stopping;
//! - the nearest per-connection deadline (query budget, idle cut) passes —
//!   it is the wait's timeout.
//!
//! A wake steps only the connections it names, never all of them, so ten
//! thousand idle connections cost file descriptors, slab slots and timer
//! entries, and no CPU. The [`Conn`] state machine is readiness-agnostic:
//! the loop asks it which readiness it can act on ([`Conn::interest`]) and
//! when it next expires ([`Conn::deadline`]), and keeps the wait set and
//! the timer heap in step with the answers.
//!
//! Cross-thread wakes go through [`Mail`]: the sender leaves a note in the
//! thread's inbox, then signals its waker. A reply slot ([`crate::pool::Reply`])
//! does that when it is filled or dropped, so a connection awaiting a reply
//! is stepped the moment the reply exists. The stop signal ([`Stop`])
//! wakes every I/O thread; each then steps all its connections once (an
//! idle one closes, an in-flight one finishes), and exits when its last
//! connection is gone.

use crate::conn::Conn;
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::state::ServerState;
use crate::AdminJob;
use crossbeam::channel::{Receiver, Sender};
use pit_search_core::CancelToken;
use pit_sys::{Event, Interest, Poller, Waker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long the listener stays out of the wait set after an accept error
/// (fd exhaustion), unless a connection of its thread closes first.
/// Level-triggered, an `EMFILE` listener reports ready forever; retrying at
/// once would spin the loop.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// The listener's token in I/O thread 0's wait set. Connection tokens are
/// slab indices, far below it; `usize::MAX` is the poller's own.
const LISTENER: usize = usize::MAX - 1;

/// Everything a connection needs to serve a request, shared by every I/O
/// thread.
pub(crate) struct EventShared {
    pub(crate) state: std::sync::Arc<ServerState>,
    pub(crate) pool: WorkerPool,
    /// Sending side of the updater thread's queue.
    pub(crate) admin: Sender<AdminJob>,
    /// The graceful-stop signal (`SHUTDOWN` verb or [`crate::ServerHandle`]).
    pub(crate) stop: Stop,
}

/// The graceful-stop signal: a flag, plus every I/O thread's waker so a
/// thread blocked in its wait notices at once.
#[derive(Clone)]
pub(crate) struct Stop {
    flag: CancelToken,
    wakers: Vec<Waker>,
}

impl Stop {
    pub(crate) fn new(wakers: Vec<Waker>) -> Stop {
        Stop {
            flag: CancelToken::cancellable(),
            wakers,
        }
    }

    /// Begin the drain. Idempotent.
    pub(crate) fn trigger(&self) {
        self.flag.cancel();
        for waker in &self.wakers {
            waker.wake();
        }
    }

    pub(crate) fn is_triggered(&self) -> bool {
        self.flag.is_cancelled()
    }
}

/// A note left in an I/O thread's inbox before its waker fires.
pub(crate) enum Mail {
    /// A freshly accepted socket this thread now owns.
    Handover(TcpStream),
    /// The connection under this token has a reply waiting (or lost its
    /// replier): step it.
    Ready(usize),
}

/// The way into one I/O thread from any other: its inbox and its waker.
#[derive(Clone)]
pub(crate) struct Mailbox {
    inbox: Sender<Mail>,
    waker: Waker,
}

impl Mailbox {
    pub(crate) fn new(inbox: Sender<Mail>, waker: Waker) -> Mailbox {
        Mailbox { inbox, waker }
    }

    /// Leave `mail` and wake the thread. Hands the mail back when the
    /// thread has already exited.
    fn post(&self, mail: Mail) -> Result<(), Mail> {
        self.inbox.send(mail).map_err(|e| e.0)?;
        self.waker.wake();
        Ok(())
    }
}

/// Wakes the I/O thread owning one connection and names the connection.
#[derive(Clone)]
pub(crate) struct Wake {
    mailbox: Mailbox,
    token: usize,
}

impl Wake {
    pub(crate) fn wake(&self) {
        // An exited thread has no connection left to step.
        let _ = self.mailbox.post(Mail::Ready(self.token));
    }
}

/// One registered connection.
struct Slot {
    conn: Conn,
    /// The interest the poller holds for the socket; `NONE` means the
    /// socket is not in the wait set.
    registered: Interest,
    /// The deadline this slot has a live timer-heap entry for. Entries that
    /// no longer match are stale and skipped when they surface.
    scheduled: Option<Instant>,
}

/// One I/O thread's connections, wait set and timers.
struct IoThread<'a> {
    shared: &'a EventShared,
    poller: Poller,
    /// Cloned into every connection's [`Wake`].
    mailbox: Mailbox,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    live: usize,
    timers: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Tokens to step this turn.
    ready: Vec<usize>,
    stopping: bool,
}

/// One I/O thread: wait for readiness, step what it names, until the
/// server stops and the last connection drains. `acceptor` is present on
/// thread 0 only.
pub(crate) fn io_loop(
    shared: &EventShared,
    poller: Poller,
    inbox: &Receiver<Mail>,
    mailbox: Mailbox,
    mut acceptor: Option<Acceptor>,
) {
    let mut io = IoThread {
        shared,
        poller,
        mailbox,
        slots: Vec::new(),
        free: Vec::new(),
        live: 0,
        timers: BinaryHeap::new(),
        ready: Vec::new(),
        stopping: false,
    };
    let metrics = shared.state.metrics();
    if let Some(acceptor) = &mut acceptor {
        acceptor.arm(&mut io.poller, Instant::now());
    }
    let mut events: Vec<Event> = Vec::new();
    loop {
        let timeout = io.timeout(acceptor.as_ref(), Instant::now());
        let woken = match io.poller.wait(&mut events, timeout) {
            Ok(woken) => woken,
            Err(err) => {
                // Not a condition the loop can wait out: stop the server
                // rather than spin on it.
                eprintln!("pit-server: readiness wait failed ({err}); stopping the server");
                shared.stop.trigger();
                let tokens: Vec<usize> = io.tokens().collect();
                for token in tokens {
                    io.close(token);
                }
                break;
            }
        };
        let now = Instant::now();
        if !io.stopping && shared.stop.is_triggered() {
            io.stopping = true;
            if let Some(acceptor) = acceptor.take() {
                acceptor.close(&mut io.poller);
            }
            let tokens: Vec<usize> = io.tokens().collect();
            io.ready.extend(tokens);
        }
        for event in &events {
            if event.token != LISTENER {
                io.ready.push(event.token);
                continue;
            }
            if let Some(acceptor) = &mut acceptor {
                while let Some(stream) =
                    acceptor.accept_one(&mut io.poller, now, metrics, TcpListener::accept)
                {
                    if let Some(stream) = acceptor.route(stream, metrics) {
                        io.adopt(stream, now);
                    }
                }
            }
        }
        // Mail is always posted before its wake, and this wait consumed the
        // wake: whatever a woken wait has to read is already in the inbox.
        if woken {
            while let Ok(mail) = inbox.try_recv() {
                match mail {
                    Mail::Handover(stream) => io.adopt(stream, now),
                    Mail::Ready(token) => io.ready.push(token),
                }
            }
        }
        io.expire(now);
        let closed = io.step_ready(now);
        if let Some(acceptor) = &mut acceptor {
            acceptor.rearm(&mut io.poller, now, closed > 0);
        }
        if io.stopping && io.live == 0 {
            break;
        }
    }
    // Sockets handed over after the last connection left: the server is
    // going away, and closing them unanswered is what that looks like.
    while let Ok(mail) = inbox.try_recv() {
        if let Mail::Handover(stream) = mail {
            metrics.open_connections.dec();
            drop(stream);
        }
    }
}

impl IoThread<'_> {
    /// Tokens of every live connection.
    fn tokens(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_ref().map(|_| token))
    }

    /// How long the next wait may block: until the nearest timer, or the
    /// listener's re-arm; forever when neither exists.
    fn timeout(&self, acceptor: Option<&Acceptor>, now: Instant) -> Option<Duration> {
        let timer = self.timers.peek().map(|Reverse((due, _))| *due);
        let retry = acceptor.and_then(|a| a.retry_at);
        let due = match (timer, retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        due.map(|due| due.saturating_duration_since(now))
    }

    /// Take ownership of a freshly accepted socket and step it once.
    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        if self.stopping {
            // Accepted just as the drain began: closing the socket
            // unanswered is exactly what the listener going away looks like
            // to the client.
            self.shared.state.metrics().open_connections.dec();
            return;
        }
        let token = self.free.pop().unwrap_or(self.slots.len());
        let wake = Wake {
            mailbox: self.mailbox.clone(),
            token,
        };
        let slot = Some(Slot {
            conn: Conn::new(stream, now, wake),
            registered: Interest::NONE,
            scheduled: None,
        });
        if token == self.slots.len() {
            self.slots.push(slot);
        } else {
            self.slots[token] = slot;
        }
        self.live += 1;
        self.ready.push(token);
    }

    /// Queue every connection whose timer is due.
    fn expire(&mut self, now: Instant) {
        while let Some(&Reverse((due, token))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            if let Some(Some(slot)) = self.slots.get_mut(token) {
                if slot.scheduled == Some(due) {
                    slot.scheduled = None;
                    self.ready.push(token);
                }
            }
        }
    }

    /// Step every queued connection once. Returns how many closed.
    fn step_ready(&mut self, now: Instant) -> usize {
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable();
        ready.dedup();
        let mut closed = 0;
        for &token in &ready {
            if !self.step(token, now) {
                closed += 1;
            }
        }
        ready.clear();
        self.ready = ready;
        // Stale timer entries pile up when deadlines move earlier or
        // connections close; rebuild once they outnumber the live ones.
        if self.timers.len() > 2 * self.live + 64 {
            self.timers = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(token, slot)| Some(Reverse((slot.as_ref()?.scheduled?, token))))
                .collect();
        }
        closed
    }

    /// Step one connection, then bring its wait-set interest and timer in
    /// line with what it now waits for. Returns false when it closed. A
    /// token whose connection is gone (a late wake) is a no-op.
    fn step(&mut self, token: usize, now: Instant) -> bool {
        let Some(Some(slot)) = self.slots.get_mut(token) else {
            return true;
        };
        let mut alive = slot.conn.step(self.shared, self.stopping, now);
        if alive {
            let want = slot.conn.interest();
            if want != slot.registered {
                let fd = slot.conn.as_raw_fd();
                let synced = if slot.registered.is_empty() {
                    self.poller.register(fd, token, want)
                } else if want.is_empty() {
                    self.poller.deregister(fd)
                } else {
                    self.poller.reregister(fd, token, want)
                };
                match synced {
                    Ok(()) => slot.registered = want,
                    // Unwatchable (the kernel's watch limit): a connection
                    // nobody can wake is better closed than stranded.
                    Err(_) => alive = false,
                }
            }
        }
        if !alive {
            self.close(token);
            return false;
        }
        if let Some(due) = slot.conn.deadline(self.shared.state.config().io_timeout) {
            if !matches!(slot.scheduled, Some(scheduled) if scheduled <= due) {
                slot.scheduled = Some(due);
                self.timers.push(Reverse((due, token)));
            }
        }
        true
    }

    /// Deregister and drop one connection, abandoning whatever it awaited.
    fn close(&mut self, token: usize) {
        let Some(mut slot) = self.slots.get_mut(token).and_then(Option::take) else {
            return;
        };
        if !slot.registered.is_empty() {
            let _ = self.poller.deregister(slot.conn.as_raw_fd());
        }
        slot.conn.abandon_wait(self.shared);
        self.free.push(token);
        self.live -= 1;
        self.shared.state.metrics().open_connections.dec();
    }
}

/// The listener, owned by I/O thread 0, and the round-robin that spreads
/// accepted sockets over every I/O thread.
pub(crate) struct Acceptor {
    listener: TcpListener,
    /// I/O threads 1.., in round-robin order after thread 0.
    peers: Vec<Mailbox>,
    next: usize,
    /// Set while an accept error keeps the listener out of the wait set:
    /// when it is due back.
    retry_at: Option<Instant>,
}

impl Acceptor {
    pub(crate) fn new(listener: TcpListener, peers: Vec<Mailbox>) -> Acceptor {
        Acceptor {
            listener,
            peers,
            next: 0,
            retry_at: None,
        }
    }

    /// Put the listener in the wait set; on failure, try again after
    /// [`ACCEPT_RETRY`].
    fn arm(&mut self, poller: &mut Poller, now: Instant) {
        self.retry_at = match poller.register(self.listener.as_raw_fd(), LISTENER, Interest::READ) {
            Ok(()) => None,
            Err(_) => Some(now + ACCEPT_RETRY),
        };
    }

    /// Re-arm a disarmed listener once its retry is due, or at once when a
    /// connection just closed (an fd came free).
    fn rearm(&mut self, poller: &mut Poller, now: Instant, fd_freed: bool) {
        if let Some(at) = self.retry_at {
            if fd_freed || now >= at {
                self.arm(poller, now);
            }
        }
    }

    /// Take the next usable connection off the listener; `None` once the
    /// backlog is empty or an accept failed. A failure is counted and
    /// disarms the listener until [`Acceptor::rearm`]: it is never retried
    /// within this wake.
    fn accept_one(
        &mut self,
        poller: &mut Poller,
        now: Instant,
        metrics: &Metrics,
        mut accept: impl FnMut(&TcpListener) -> io::Result<(TcpStream, SocketAddr)>,
    ) -> Option<TcpStream> {
        loop {
            match accept(&self.listener) {
                Ok((mut stream, _)) => {
                    metrics.connections.inc();
                    if stream.set_nonblocking(true).is_err() {
                        // The fd is unusable for the event loop (a socket
                        // already dying): count it and tell the client, best
                        // effort, instead of dropping silently.
                        metrics.accept_errors.inc();
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                        let _ = crate::protocol::write_frame(
                            &mut stream,
                            &crate::Response::Err(crate::ErrKind::Overloaded.into()).render(),
                        );
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    metrics.open_connections.inc();
                    return Some(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    metrics.accept_errors.inc();
                    let _ = poller.deregister(self.listener.as_raw_fd());
                    self.retry_at = Some(now + ACCEPT_RETRY);
                    return None;
                }
            }
        }
    }

    /// Pick the socket's I/O thread: `Some` hands it back for this one,
    /// otherwise it was posted to a peer.
    fn route(&mut self, stream: TcpStream, metrics: &Metrics) -> Option<TcpStream> {
        let target = self.next % (self.peers.len() + 1);
        self.next = self.next.wrapping_add(1);
        let Some(peer) = target.checked_sub(1).and_then(|i| self.peers.get(i)) else {
            return Some(stream);
        };
        if peer.post(Mail::Handover(stream)).is_err() {
            // That thread already drained and exited: the server is
            // stopping, and the socket closes unanswered.
            metrics.open_connections.dec();
        }
        None
    }

    /// Leave the wait set and drop the listener: new connections are
    /// refused from here on.
    fn close(self, poller: &mut Poller) {
        if self.retry_at.is_none() {
            let _ = poller.deregister(self.listener.as_raw_fd());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `EMFILE` listener stays readable forever. Driven through the
    /// loop's own order (wait, accept, re-arm), it must cost one failed
    /// accept per retry period — not a hot loop — and each failure must be
    /// counted.
    #[test]
    fn accept_errors_disarm_the_listener_until_the_retry_is_due() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        // Never accepted, so the listener reports readable at every wait.
        let _pending = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut acceptor = Acceptor::new(listener, Vec::new());
        acceptor.arm(&mut poller, Instant::now());
        let metrics = Metrics::default();
        let mut attempts = 0u64;
        let mut emfile = |_: &TcpListener| -> io::Result<(TcpStream, SocketAddr)> {
            attempts += 1;
            Err(io::Error::from_raw_os_error(24))
        };
        let mut events = Vec::new();
        let mut turns = 0u64;
        let started = Instant::now();
        let window = Duration::from_millis(200);
        while started.elapsed() < window {
            let now = Instant::now();
            let cap = window.saturating_sub(started.elapsed());
            let timeout = acceptor
                .retry_at
                .map_or(cap, |at| at.saturating_duration_since(now).min(cap));
            poller.wait(&mut events, Some(timeout)).unwrap();
            let now = Instant::now();
            if events.iter().any(|e| e.token == LISTENER) {
                assert!(acceptor
                    .accept_one(&mut poller, now, &metrics, &mut emfile)
                    .is_none());
                assert!(acceptor.retry_at.is_some(), "an error disarms");
            }
            acceptor.rearm(&mut poller, now, false);
            turns += 1;
        }
        let bound = (window.as_millis() / ACCEPT_RETRY.as_millis()) as u64 + 2;
        assert!(attempts >= 2, "the listener was re-armed and retried");
        assert!(
            attempts <= bound,
            "{attempts} accepts in {window:?}: the error spun (bound {bound})"
        );
        assert!(turns <= 2 * bound, "{turns} wakes in {window:?}");
        assert_eq!(metrics.accept_errors.get(), attempts);
    }

    /// A closing connection frees an fd: the listener is re-armed at once,
    /// without waiting for the retry.
    #[test]
    fn a_closed_connection_rearms_the_listener_early() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut acceptor = Acceptor::new(listener, Vec::new());
        acceptor.arm(&mut poller, Instant::now());
        let metrics = Metrics::default();
        let now = Instant::now();
        let failed = acceptor.accept_one(&mut poller, now, &metrics, |_| {
            Err(io::Error::from_raw_os_error(23))
        });
        assert!(failed.is_none());
        assert!(acceptor.retry_at.is_some());
        acceptor.rearm(&mut poller, now, false);
        assert!(acceptor.retry_at.is_some(), "not yet due");
        acceptor.rearm(&mut poller, now, true);
        assert!(acceptor.retry_at.is_none(), "an fd came free");
        // Re-armed for real: a connection is reported and accepted.
        let _c = TcpStream::connect(acceptor.listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, LISTENER);
        let stream =
            acceptor.accept_one(&mut poller, Instant::now(), &metrics, TcpListener::accept);
        assert!(stream.is_some());
        assert_eq!(metrics.accept_errors.get(), 1);
        assert_eq!(metrics.open_connections.get(), 1);
    }
}
