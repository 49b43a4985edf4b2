//! One client connection as a state machine driven by the I/O threads.
//!
//! A [`Conn`] owns a nonblocking socket plus its read/write buffers and is
//! stepped by [`crate::event::io_loop`] whenever the loop sweeps. Each step
//! flushes pending output, polls whatever the connection is waiting on
//! (worker reply, admin reply), and parses/dispatches newly arrived frames.
//! Nothing here blocks: CPU work goes to the worker pool, admin mutations
//! go to the updater thread, and the connection just remembers which reply
//! channel it is awaiting. An idle or slow client therefore costs one file
//! descriptor and a few KiB of buffer — never a thread.
//!
//! Dispatch semantics (verb set, error taxonomy, counter bumps, trace
//! finalization) are identical to the retired thread-per-connection
//! `serve_connection`: served rankings are bit-for-bit the same.

use crate::cache::QueryKey;
use crate::event::EventShared;
use crate::pool::{Admission, ExpandJob, Job, JobError, JobReply, QueryJob};
use crate::protocol::{self, Admin, ErrKind, Request, Response, MAX_FRAME_BYTES};
use crate::state::AdminReply;
use crate::trace::{TraceCtx, TraceOutcome};
use crossbeam::channel::{self, Receiver, TryRecvError};
use pit_search_core::SearchError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Read chunk size per sweep; frames larger than this just take more sweeps.
const READ_CHUNK: usize = 4096;

/// What a connection is currently waiting on (if anything).
enum Mode {
    /// Parsing and dispatching inbound frames.
    Reading,
    /// A `QUERY` is with the worker pool, via its flight.
    AwaitQuery {
        rx: Receiver<JobReply>,
        key: QueryKey,
        generation: u64,
        /// When the request was dispatched; the reply's latency and the
        /// budget both measure from here, so validation and cache-probe
        /// time count *against* the budget, never on top of it.
        started: Instant,
        deadline: Instant,
        wait: Waiting,
    },
    /// An `EXPAND` round is with the worker pool.
    AwaitExpand { rx: Receiver<Response> },
    /// An admin verb is with the updater thread.
    AwaitAdmin { rx: Receiver<AdminReply> },
    /// Flush whatever is buffered, then close.
    Closing,
}

/// This connection's role in the flight its `QUERY` reply arrives through.
enum Waiting {
    /// Flight leader: the worker resolves the flight and finalizes the
    /// trace; this waiter abandons through the flight on timeout.
    Lead,
    /// Flight joiner: shares the leader's execution; owns (and must
    /// finalize) its own trace.
    Join { trace: TraceCtx },
}

/// One client connection owned by an I/O thread.
pub(crate) struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    sent: usize,
    last_activity: Instant,
    mode: Mode,
}

/// Outcome of one [`Conn::step`]: does the connection stay registered, and
/// did it make observable progress (used for the event loop's backoff)?
pub(crate) struct Stepped {
    pub alive: bool,
    pub progress: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            sent: 0,
            last_activity: now,
            mode: Mode::Reading,
        }
    }

    /// Queue one rendered response frame for writing.
    fn queue(&mut self, response: &Response) {
        // Writing into a Vec cannot fail.
        let _ = protocol::write_frame(&mut self.outbuf, &response.render());
        // Serving a reply is activity: the idle allowance measures silence
        // *between* exchanges, so a query that legitimately ran for longer
        // than `io_timeout` must not get its connection cut (reply still
        // queued!) the moment it is answered.
        self.last_activity = Instant::now();
    }

    /// Abandon whatever this connection is awaiting (it is going away):
    /// deregister from the shared flight — the last waiter to leave cancels
    /// the flight's execution.
    fn abandon_wait(&mut self, shared: &EventShared) {
        if let Mode::AwaitQuery {
            key, generation, ..
        } = &self.mode
        {
            shared.state.flight_abandon(*generation, key);
        }
        self.mode = Mode::Closing;
    }

    /// Drive the connection one sweep. `stopping` is the drain flag: an
    /// in-flight request still finishes and gets its reply, but at most one
    /// buffered frame is served before the connection closes.
    pub(crate) fn step(&mut self, shared: &EventShared, stopping: bool, now: Instant) -> Stepped {
        let mut progress = false;
        if !self.flush(&mut progress) {
            self.abandon_wait(shared);
            return Stepped {
                alive: false,
                progress: true,
            };
        }
        self.poll_waits(shared, stopping, now, &mut progress);
        let alive = match self.mode {
            Mode::Reading => self.pump_reads(shared, stopping, now, &mut progress),
            // Keep the fd until the farewell frame is fully flushed.
            Mode::Closing if self.outbuf.is_empty() => {
                progress = true;
                false
            }
            _ => true,
        };
        if !alive {
            self.abandon_wait(shared);
        }
        Stepped { alive, progress }
    }

    /// Nonblocking write of whatever is queued. Returns false when the
    /// socket is dead.
    fn flush(&mut self, progress: &mut bool) -> bool {
        while self.sent < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.sent..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.sent += n;
                    self.last_activity = Instant::now();
                    *progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.sent == self.outbuf.len() && !self.outbuf.is_empty() {
            self.outbuf.clear();
            self.sent = 0;
        }
        true
    }

    /// Poll the awaited reply channel, if any, and turn its answer (or the
    /// deadline) into a queued response.
    fn poll_waits(
        &mut self,
        shared: &EventShared,
        stopping: bool,
        now: Instant,
        progress: &mut bool,
    ) {
        let after_reply = |stopping: bool| {
            if stopping {
                Mode::Closing
            } else {
                Mode::Reading
            }
        };
        match std::mem::replace(&mut self.mode, Mode::Reading) {
            Mode::AwaitQuery {
                rx,
                key,
                generation,
                started,
                deadline,
                wait,
            } => match rx.try_recv() {
                Ok(reply) => {
                    let response = reply_response(shared, &reply);
                    if let Waiting::Join { trace } = wait {
                        // The worker finalized only the leader's trace; a
                        // joiner observes its own wait and closes its own
                        // trace before the reply is released.
                        let elapsed = started.elapsed();
                        if reply.is_ok() {
                            shared.state.metrics().latency.observe(elapsed);
                        }
                        shared.state.tracing().finish(
                            trace,
                            &key,
                            TraceOutcome::from(&reply),
                            false,
                            None,
                            elapsed,
                            shared.state.metrics(),
                        );
                    }
                    self.queue(&response);
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
                Err(TryRecvError::Empty) if now >= deadline => {
                    shared.state.flight_abandon(generation, &key);
                    if let Waiting::Join { trace } = wait {
                        shared.state.tracing().finish(
                            trace,
                            &key,
                            TraceOutcome::Timeout,
                            false,
                            None,
                            started.elapsed(),
                            shared.state.metrics(),
                        );
                    }
                    self.queue(&Response::refusal(ErrKind::Timeout, shared.state.metrics()));
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
                Err(TryRecvError::Empty) => {
                    self.mode = Mode::AwaitQuery {
                        rx,
                        key,
                        generation,
                        started,
                        deadline,
                        wait,
                    };
                }
                // A dropped reply sender means the worker died without even
                // a caught panic — a server fault, never a slow query.
                Err(TryRecvError::Disconnected) => {
                    if let Waiting::Join { trace } = wait {
                        shared.state.tracing().finish(
                            trace,
                            &key,
                            TraceOutcome::Error,
                            false,
                            None,
                            started.elapsed(),
                            shared.state.metrics(),
                        );
                    }
                    self.queue(&worker_vanished(shared));
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
            },
            Mode::AwaitExpand { rx } => match rx.try_recv() {
                Ok(response) => {
                    self.queue(&response);
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
                Err(TryRecvError::Empty) => self.mode = Mode::AwaitExpand { rx },
                Err(TryRecvError::Disconnected) => {
                    self.queue(&worker_vanished(shared));
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
            },
            Mode::AwaitAdmin { rx } => match rx.try_recv() {
                Ok(reply) => {
                    let response = match reply {
                        Ok(Some(generation)) => Response::Generation(generation),
                        Ok(None) => Response::Staged,
                        // Already counted where it failed (`reload_failures`).
                        Err(err) => Response::Err(err),
                    };
                    self.queue(&response);
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
                Err(TryRecvError::Empty) => self.mode = Mode::AwaitAdmin { rx },
                Err(TryRecvError::Disconnected) => {
                    self.queue(&Response::Err(ErrKind::ShuttingDown.into()));
                    self.mode = after_reply(stopping);
                    *progress = true;
                }
            },
            other => self.mode = other,
        }
    }

    /// Read whatever the socket has, then parse and dispatch frames until
    /// the connection starts waiting on something (or runs out of input).
    /// Returns false when the connection should close.
    fn pump_reads(
        &mut self,
        shared: &EventShared,
        stopping: bool,
        now: Instant,
        progress: &mut bool,
    ) -> bool {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return false, // clean EOF
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    self.last_activity = now;
                    *progress = true;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        loop {
            if !matches!(self.mode, Mode::Reading) {
                return true;
            }
            match self.take_frame() {
                Ok(Some(text)) => {
                    *progress = true;
                    self.dispatch(&text, shared, stopping);
                    if stopping && matches!(self.mode, Mode::Reading) {
                        // Drain: one buffered request gets its answer, the
                        // rest of the pipeline does not outlive the server.
                        self.mode = Mode::Closing;
                        return true;
                    }
                }
                Ok(None) => break,
                // Oversized frame or invalid UTF-8: the stream is not
                // trustworthy past this point, mirroring the blocking
                // reader's hard error.
                Err(()) => return false,
            }
        }
        if stopping {
            // Nothing buffered to serve; drain means go away now.
            return false;
        }
        // Idle accounting against a real clock: `last_activity` moves on
        // every byte in or out, so a spurious wake can neither stretch nor
        // shrink the allowance.
        now.duration_since(self.last_activity) < shared.state.config().io_timeout
    }

    /// Pop one complete frame off `inbuf`, if present.
    fn take_frame(&mut self) -> Result<Option<String>, ()> {
        if self.inbuf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.inbuf[0], self.inbuf[1], self.inbuf[2], self.inbuf[3]])
            as usize;
        if len > MAX_FRAME_BYTES {
            return Err(());
        }
        if self.inbuf.len() < 4 + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.inbuf.drain(..4 + len).skip(4).collect();
        match String::from_utf8(payload) {
            Ok(text) => Ok(Some(text)),
            Err(_) => Err(()),
        }
    }

    /// Dispatch one parsed frame: answer inline, or switch to an `Await*`
    /// mode with the reply channel. Mirrors the retired `serve_connection`
    /// verb-for-verb.
    fn dispatch(&mut self, text: &str, shared: &EventShared, stopping: bool) {
        let state = &*shared.state;
        match Request::parse(text) {
            Err(err) => self.queue(&Response::refusal(err, state.metrics())),
            Ok(Request::Ping) => self.queue(&Response::Pong),
            Ok(Request::Stats) => self.queue(&Response::Stats(state.stats())),
            Ok(Request::Metrics) => self.queue(&Response::Metrics(state.metrics_text())),
            Ok(Request::Trace { n }) => self.queue(&Response::Traces(state.tracing().dump(n))),
            Ok(Request::Shutdown) => {
                shared.stop.cancel();
                self.queue(&Response::Bye);
                self.mode = Mode::Closing;
            }
            Ok(Request::Admin(admin)) => self.submit_admin(shared, admin),
            Ok(Request::Shard) => {
                let current = state.current();
                let (index, count) = match current.engine.shard_spec() {
                    Some(spec) => (spec.index, spec.count),
                    None => (0, current.engine.shard_count()),
                };
                self.queue(&Response::ShardInfo {
                    index,
                    count,
                    gen: current.generation,
                });
            }
            Ok(Request::Expand { gen, terms, probes }) => {
                self.begin_expand(shared, gen, terms, probes);
            }
            Ok(Request::Query { user, k, keywords }) => {
                self.begin_query(shared, stopping, user, k, &keywords);
            }
        }
    }

    /// Hand one admin mutation to the updater thread and await its reply.
    /// Queries on other connections keep flowing the whole time — that is
    /// the point of the dedicated updater.
    fn submit_admin(&mut self, shared: &EventShared, admin: Admin) {
        let (reply_tx, reply_rx) = channel::bounded(1);
        if shared.admin.send((admin, reply_tx)).is_err() {
            self.queue(&Response::Err(ErrKind::ShuttingDown.into()));
            return;
        }
        self.mode = Mode::AwaitAdmin { rx: reply_rx };
    }

    /// Dispatch one `EXPAND` probe round to the worker pool. The round is a
    /// pure read with no budget of its own; the *router's* query budget
    /// bounds the wait, and a shard that answers late is reported `partial`
    /// there.
    fn begin_expand(
        &mut self,
        shared: &EventShared,
        gen: u64,
        terms: Vec<u32>,
        probes: Vec<(u32, f64)>,
    ) {
        let state = &*shared.state;
        let current = state.current();
        if current.generation != gen {
            // A reload landed between the router's admission and this round.
            // Refusing is what makes mixed-generation answers structurally
            // impossible: the router sees the error and reports the shard.
            self.queue(&Response::refusal(
                ErrKind::Internal.because(format!(
                    "shard generation changed (serving {}, request {gen})",
                    current.generation
                )),
                state.metrics(),
            ));
            return;
        }
        let (reply_tx, reply_rx) = channel::bounded(1);
        match shared.pool.submit(Job::Expand(ExpandJob {
            engine: current,
            terms,
            probes,
            reply: reply_tx,
        })) {
            Admission::Queued => self.mode = Mode::AwaitExpand { rx: reply_rx },
            Admission::Overloaded => {
                self.queue(&Response::refusal(ErrKind::Overloaded, state.metrics()));
            }
            Admission::Closed => self.queue(&Response::Err(ErrKind::ShuttingDown.into())),
        }
    }

    /// Admit one `QUERY`: validate, probe the cache, then lead or join the
    /// single flight for its `(generation, key)`.
    fn begin_query(
        &mut self,
        shared: &EventShared,
        stopping: bool,
        user: u32,
        k: usize,
        keywords: &[String],
    ) {
        let state = &*shared.state;
        let started = Instant::now();
        // Capture the serving generation once: validation, cache lookup,
        // execution, and cache fill all use this engine, even if a RELOAD
        // swap lands mid-request.
        let current = state.current();
        let key = match state.make_key(current.engine.as_ref(), user, k, keywords) {
            Ok(key) => key,
            Err(err) => {
                self.queue(&Response::refusal(err, state.metrics()));
                return;
            }
        };
        if stopping {
            self.queue(&Response::Err(ErrKind::ShuttingDown.into()));
            return;
        }
        // The sampling decision for this query, made once; every later hook
        // is a single branch when it said no.
        let mut trace = state.tracing().begin(current.generation, started);
        trace.begin(pit_obs::trace::Stage::CacheProbe);
        let looked_up = state.lookup(&key, current.generation);
        trace.end(
            pit_obs::trace::Stage::CacheProbe,
            u64::from(looked_up.is_some()),
        );
        if let Some(ranked) = looked_up {
            state.metrics().queries.inc();
            let elapsed = started.elapsed();
            state.metrics().latency.observe(elapsed);
            state.tracing().finish(
                trace,
                &key,
                TraceOutcome::Ok,
                true,
                None,
                elapsed,
                state.metrics(),
            );
            self.queue(&Response::Topics {
                ranked: (*ranked).clone(),
                cached: true,
                micros: elapsed.as_micros().min(u64::MAX as u128) as u64,
                // Partial answers are never cached, so a hit is complete.
                partial: Vec::new(),
            });
            return;
        }
        // The deadline is anchored at `started`, so validation and the
        // cache probe spend *from* the budget instead of extending it.
        let deadline = started + state.config().query_budget;
        let generation = current.generation;
        let (reply_tx, reply_rx) = channel::bounded(1);
        match state.flight_begin(generation, &key, reply_tx, deadline) {
            Some(cancel) => {
                // Leader: submit the one shared execution. An admission
                // refusal must answer *every* waiter of the flight —
                // joiners raced in between flight_begin and here.
                let job = Job::Query(QueryJob {
                    engine: current,
                    key: key.clone(),
                    enqueued: started,
                    cancel,
                    trace,
                });
                match shared.pool.submit(job) {
                    Admission::Queued => {
                        self.mode = Mode::AwaitQuery {
                            rx: reply_rx,
                            key,
                            generation,
                            started,
                            deadline,
                            wait: Waiting::Lead,
                        };
                    }
                    Admission::Overloaded => {
                        state.flight_resolve(generation, &key, &Err(JobError::Shed));
                        self.drain_refusal(shared, reply_rx);
                    }
                    Admission::Closed => {
                        state.flight_resolve(generation, &key, &Err(JobError::Closed));
                        self.drain_refusal(shared, reply_rx);
                    }
                }
            }
            None => {
                // Joiner: the flight's single execution answers us too.
                self.mode = Mode::AwaitQuery {
                    rx: reply_rx,
                    key,
                    generation,
                    started,
                    deadline,
                    wait: Waiting::Join { trace },
                };
            }
        }
    }

    /// A flight the leader could not admit was just resolved with the
    /// refusal; our own copy is sitting in `rx`. Deliver it like any other
    /// reply so the leader and every joiner answer identically.
    fn drain_refusal(&mut self, shared: &EventShared, rx: Receiver<JobReply>) {
        if let Ok(reply) = rx.try_recv() {
            let response = reply_response(shared, &reply);
            self.queue(&response);
        } else {
            self.queue(&Response::Err(ErrKind::ShuttingDown.into()));
        }
    }
}

/// A dropped reply sender: the worker died without even a caught panic.
fn worker_vanished(shared: &EventShared) -> Response {
    Response::refusal(
        ErrKind::Internal.because("worker vanished"),
        shared.state.metrics(),
    )
}

/// Map one worker reply onto the wire, counting it once per *client* reply
/// — so N coalesced waiters still count as N queries (or N refusals).
fn reply_response(shared: &EventShared, reply: &JobReply) -> Response {
    let metrics = shared.state.metrics();
    let err = match reply {
        Ok((ranked, micros, partial)) => {
            metrics.queries.inc();
            return Response::Topics {
                ranked: (**ranked).clone(),
                cached: false,
                micros: *micros,
                partial: partial.clone(),
            };
        }
        // The worker noticed the deadline before our sweep did (it checks
        // the token's own clock): still a timeout.
        Err(JobError::Search(SearchError::Cancelled { .. })) => ErrKind::Timeout.into(),
        // Unreachable through make_key, but surfaced honestly if a key is
        // ever built around validation.
        Err(JobError::Search(e @ SearchError::UserOutOfRange { .. })) => {
            ErrKind::Malformed.because(e.to_string())
        }
        Err(JobError::Panicked) => ErrKind::Internal.because("query execution panicked"),
        // The query user's own home shard was unreachable: there is no
        // honest ranking to degrade from, so the whole query fails as a
        // server fault.
        Err(JobError::Shard(reason)) => ErrKind::Internal.because(reason.as_str()),
        Err(JobError::Shed) => ErrKind::Overloaded.into(),
        Err(JobError::Closed) => ErrKind::ShuttingDown.into(),
    };
    Response::refusal(err, metrics)
}
