//! How the router reaches one shard: in-process (a slice engine behind the
//! same [`ServeEngine`] trait the daemon serves) or over TCP (a framed
//! client speaking the existing `pit-server` protocol).
//!
//! Failures map onto three classes of the serving taxonomy
//! ([`ErrKind::Timeout`], [`ErrKind::Overloaded`], [`ErrKind::Internal`])
//! because that is what a partial reply reports per missing shard; a
//! transport never invents a fourth word.

use parking_lot::Mutex;
use pit_server::protocol::{
    read_frame, write_frame, Admin, ErrKind, ProbeTable, Request, Response, WireError,
};
use pit_server::{ServeEngine, ServerConfig, ServerState};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why one shard could not answer, in the wire taxonomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The shard did not answer within the query's remaining budget.
    Timeout,
    /// The shard shed the request at admission.
    Overloaded,
    /// Anything else: transport failure, generation mismatch, malformed
    /// reply — a fault, with the reason preserved for logs.
    Internal(String),
}

impl ShardError {
    /// The single-word taxonomy class carried in `partial=` annotations.
    pub fn word(&self) -> &'static str {
        match self {
            ShardError::Timeout => ErrKind::Timeout,
            ShardError::Overloaded => ErrKind::Overloaded,
            ShardError::Internal(_) => ErrKind::Internal,
        }
        .as_str()
    }

    /// Full human-readable reason (logs and `ServeError::Shard`).
    pub fn describe(&self) -> String {
        match self {
            ShardError::Timeout | ShardError::Overloaded => self.word().to_string(),
            ShardError::Internal(reason) => reason.clone(),
        }
    }
}

/// Classify a backend's `ERR` by its class: a slow or shedding shard keeps
/// its word, every other refusal is a fault of that shard with the rendered
/// reply preserved as the reason.
fn classify_err_reply(err: WireError) -> ShardError {
    match err.kind {
        ErrKind::Timeout => ShardError::Timeout,
        ErrKind::Overloaded => ShardError::Overloaded,
        ErrKind::Malformed | ErrKind::Internal | ErrKind::ShuttingDown | ErrKind::ReloadFailed => {
            ShardError::Internal(err.to_string())
        }
    }
}

/// One shard as the router sees it. Implementations are `Sync`: the router
/// probes different shards from different scatter threads, but issues at
/// most one in-flight call per shard at a time.
pub trait ShardTransport: Send + Sync {
    /// Where this shard lives, for error messages.
    fn location(&self) -> String;

    /// `SHARD` — the shard's position, fleet size, and serving generation.
    ///
    /// # Errors
    /// Transport or protocol failure, classified.
    fn shard_info(&self) -> Result<(u32, u32, u64), ShardError>;

    /// `EXPAND` — probe Γ-tables for `probes` under generation `gen`,
    /// returning one table per probe in request order plus the shard's
    /// residual §5.2 upper bound. `deadline` caps the wait.
    ///
    /// # Errors
    /// Transport failure, generation mismatch, or a backend `ERR`.
    fn expand(
        &self,
        gen: u64,
        terms: &[u32],
        probes: &[(u32, f64)],
        deadline: Option<Instant>,
    ) -> Result<(Vec<ProbeTable>, f64), ShardError>;

    /// Run one engine change on the shard — the backend's
    /// [`ServerState::admin`], in-process or over the wire. `Ok(None)` is a
    /// staged successor, `Ok(Some(gen))` the generation now serving.
    /// [`Admin::Abort`] is idempotent by design, so a fleet-wide abort sweep
    /// can hit shards that never staged.
    ///
    /// # Errors
    /// The backend's refusal (reported verbatim) or transport failure.
    fn admin(&self, admin: &Admin) -> Result<Option<u64>, ShardError>;
}

/// An in-process shard: a slice engine behind a private [`ServerState`], so
/// generations, two-phase staging, and reload accounting behave exactly as
/// they would in a remote `pit serve` — one code path, two deployments.
pub struct LocalTransport {
    state: ServerState,
}

impl LocalTransport {
    /// Wrap one slice engine (generation starts at 1, like a fresh daemon).
    pub fn new(engine: Arc<dyn ServeEngine>) -> Self {
        LocalTransport {
            state: ServerState::with_engine(engine, ServerConfig::default()),
        }
    }
}

impl ShardTransport for LocalTransport {
    fn location(&self) -> String {
        "in-process".to_string()
    }

    fn shard_info(&self) -> Result<(u32, u32, u64), ShardError> {
        let current = self.state.current();
        let (index, count) = match current.engine.shard_spec() {
            Some(spec) => (spec.index, spec.count),
            None => (0, 1),
        };
        Ok((index, count, current.generation))
    }

    fn expand(
        &self,
        gen: u64,
        terms: &[u32],
        probes: &[(u32, f64)],
        _deadline: Option<Instant>,
    ) -> Result<(Vec<ProbeTable>, f64), ShardError> {
        // In-process probes cannot be abandoned mid-call; the driver's own
        // cancellation checkpoints bound the query instead.
        let current = self.state.current();
        if current.generation != gen {
            return Err(ShardError::Internal(format!(
                "shard generation changed (serving {}, request {gen})",
                current.generation
            )));
        }
        current
            .engine
            .expand(terms, probes)
            .map_err(classify_err_reply)
    }

    fn admin(&self, admin: &Admin) -> Result<Option<u64>, ShardError> {
        self.state.admin(admin).map_err(classify_err_reply)
    }
}

/// A transport-level failure, plus whether it has the shape a server-side
/// idle cut leaves on a pooled connection — the one shape that proves the
/// request was never served and is therefore safe to retry.
struct CallFailure {
    error: ShardError,
    stale: bool,
}

impl CallFailure {
    /// A failure that must never trigger a retry.
    fn hard(error: ShardError) -> Self {
        CallFailure {
            error,
            stale: false,
        }
    }
}

/// `min(deadline − now, io_timeout)` — or `Timeout` if the deadline passed.
fn remaining_budget(
    deadline: Option<Instant>,
    io_timeout: Duration,
) -> Result<Duration, ShardError> {
    match deadline {
        Some(d) => {
            let now = Instant::now();
            if d <= now {
                Err(ShardError::Timeout)
            } else {
                Ok((d - now).min(io_timeout))
            }
        }
        None => Ok(io_timeout),
    }
}

/// A remote shard behind a `pit serve` daemon, over the length-prefixed
/// text protocol. One pooled connection, re-dialed on demand; any I/O error
/// drops the connection (the stream position is unknowable mid-frame). The
/// single failure shape an idle-cut pooled connection produces is retried
/// once on a fresh dial — see `call` for the exact conditions.
pub struct RemoteTransport {
    addr: String,
    conn: Mutex<Option<TcpStream>>,
    /// Per-call I/O cap. A query deadline can only *shorten* a call's wait,
    /// never extend it past this — so one dragged shard costs the query at
    /// most `io_timeout`, and the round degrades to an honest `partial`
    /// instead of the whole query dying at its budget.
    io_timeout: Duration,
}

impl RemoteTransport {
    /// A transport for the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>, io_timeout: Duration) -> Self {
        RemoteTransport {
            addr: addr.into(),
            conn: Mutex::named("router.transport.conn", None),
            io_timeout,
        }
    }

    /// One request/response exchange under `min(deadline, io_timeout)`.
    /// Classifies every failure into the taxonomy.
    ///
    /// A *pooled* connection that the server idled out between calls fails
    /// with a distinctive signature — the write is refused, or EOF arrives
    /// before a single reply byte — meaning the request was never served.
    /// That one case is retried once on a fresh dial (within whatever
    /// remains of the deadline), so routine server-side idle cuts never
    /// surface as shard faults. A failure on a fresh connection, or one
    /// after reply bytes started flowing, is reported as-is.
    fn call(&self, request: &Request, deadline: Option<Instant>) -> Result<Response, ShardError> {
        let budget = remaining_budget(deadline, self.io_timeout)?;
        let mut guard = self.conn.lock();
        let reused = guard.is_some();
        if guard.is_none() {
            *guard = Some(self.dial(budget)?);
        }
        // The guard stays held for the exchange: the protocol is strictly
        // request/reply per connection, and the router issues one call per
        // shard at a time anyway.
        let Some(stream) = guard.as_mut() else {
            // Unreachable — the dial above just filled the slot — but the
            // serving stack returns errors rather than panicking.
            return Err(ShardError::Internal(format!(
                "{}: connection pool invariant broken",
                self.addr
            )));
        };
        let failure = match self.exchange(stream, budget, request) {
            Ok(Response::Err(err)) => {
                // Server-side errors leave the connection usable.
                return Err(classify_err_reply(err));
            }
            Ok(resp) => return Ok(resp),
            Err(f) => f,
        };
        // Transport-level failure: the stream may hold a half frame.
        *guard = None;
        if reused && failure.stale {
            let budget = remaining_budget(deadline, self.io_timeout)?;
            let mut fresh = self.dial(budget)?;
            return match self.exchange(&mut fresh, budget, request) {
                Ok(Response::Err(err)) => {
                    *guard = Some(fresh);
                    Err(classify_err_reply(err))
                }
                Ok(resp) => {
                    *guard = Some(fresh);
                    Ok(resp)
                }
                Err(retry_failure) => Err(retry_failure.error),
            };
        }
        Err(failure.error)
    }

    /// Write one request and read its reply on `stream`, flagging the
    /// failure shapes an idle-cut pooled connection produces.
    fn exchange(
        &self,
        stream: &mut TcpStream,
        budget: Duration,
        request: &Request,
    ) -> Result<Response, CallFailure> {
        stream
            .set_write_timeout(Some(budget))
            .and_then(|()| stream.set_read_timeout(Some(budget)))
            .map_err(|e| CallFailure::hard(ShardError::Internal(format!("{}: {e}", self.addr))))?;
        write_frame(stream, &request.render()).map_err(|e| CallFailure {
            // A peer that already closed refuses the write outright — the
            // request never left this process.
            stale: matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
            ),
            error: self.classify_io(&e),
        })?;
        let text = read_frame(stream)
            .map_err(|e| CallFailure {
                // A reset before any reply byte means the peer discarded the
                // request; a timeout or a torn frame does not, so those are
                // never retried.
                stale: matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ),
                error: self.classify_io(&e),
            })?
            .ok_or_else(|| CallFailure {
                // Clean EOF at the frame boundary with zero reply bytes:
                // the server closed (idle cut) without serving the request.
                stale: true,
                error: ShardError::Internal(format!("{}: connection closed mid-call", self.addr)),
            })?;
        Response::parse(&text).map_err(|e| {
            CallFailure::hard(ShardError::Internal(format!(
                "{}: bad reply: {e}",
                self.addr
            )))
        })
    }

    fn dial(&self, budget: Duration) -> Result<TcpStream, ShardError> {
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ShardError::Internal(format!("resolve {}: {e}", self.addr)))?;
        let mut last = ShardError::Internal(format!("resolve {}: no addresses", self.addr));
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, budget) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = self.classify_io(&e),
            }
        }
        Err(last)
    }

    fn classify_io(&self, e: &std::io::Error) -> ShardError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ShardError::Timeout,
            _ => ShardError::Internal(format!("{}: {e}", self.addr)),
        }
    }
}

impl ShardTransport for RemoteTransport {
    fn location(&self) -> String {
        self.addr.clone()
    }

    fn shard_info(&self) -> Result<(u32, u32, u64), ShardError> {
        match self.call(&Request::Shard, None)? {
            Response::ShardInfo { index, count, gen } => Ok((index, count, gen)),
            other => Err(ShardError::Internal(format!(
                "{}: unexpected SHARD reply {other:?}",
                self.addr
            ))),
        }
    }

    fn expand(
        &self,
        gen: u64,
        terms: &[u32],
        probes: &[(u32, f64)],
        deadline: Option<Instant>,
    ) -> Result<(Vec<ProbeTable>, f64), ShardError> {
        let request = Request::Expand {
            gen,
            terms: terms.to_vec(),
            probes: probes.to_vec(),
        };
        match self.call(&request, deadline)? {
            Response::Expanded {
                gen: reply_gen,
                bound,
                tables,
            } => {
                // Belt and braces: the backend already refuses mismatched
                // generations, but a reply from a different generation than
                // requested must never be fed into the driver.
                if reply_gen != gen {
                    return Err(ShardError::Internal(format!(
                        "{}: shard generation changed (serving {reply_gen}, request {gen})",
                        self.addr
                    )));
                }
                if tables.len() != probes.len() {
                    return Err(ShardError::Internal(format!(
                        "{}: EXPAND answered {} tables for {} probes",
                        self.addr,
                        tables.len(),
                        probes.len()
                    )));
                }
                Ok((tables, bound))
            }
            other => Err(ShardError::Internal(format!(
                "{}: unexpected EXPAND reply {other:?}",
                self.addr
            ))),
        }
    }

    fn admin(&self, admin: &Admin) -> Result<Option<u64>, ShardError> {
        match self.call(&Request::Admin(admin.clone()), None)? {
            Response::Staged => Ok(None),
            Response::Generation(gen) => Ok(Some(gen)),
            other => Err(ShardError::Internal(format!(
                "{}: unexpected admin reply {other:?}",
                self.addr
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn shard_reply(gen: u64) -> String {
        Response::ShardInfo {
            index: 0,
            count: 1,
            gen,
        }
        .render()
    }

    /// A pooled connection the server closed between calls (an idle cut)
    /// must not surface as a shard fault: the transport re-dials once and
    /// the caller sees only the answer from the fresh connection.
    #[test]
    fn stale_pooled_connection_is_redialed_once() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let server = thread::spawn(move || {
            // Connection 1: answer one SHARD, then close — exactly what a
            // server-side idle cut does to a parked router connection.
            {
                let (mut s, _) = listener.accept().expect("accept #1");
                let req = read_frame(&mut s).expect("read #1").expect("frame #1");
                assert_eq!(req, Request::Shard.render());
                write_frame(&mut s, &shard_reply(1)).expect("reply #1");
            }
            // Connection 2: the transparent retry lands here.
            let (mut s, _) = listener.accept().expect("accept #2");
            let req = read_frame(&mut s).expect("read #2").expect("frame #2");
            assert_eq!(req, Request::Shard.render());
            write_frame(&mut s, &shard_reply(2)).expect("reply #2");
            // Keep the socket open until the client has read the reply.
            thread::sleep(Duration::from_millis(200));
        });

        let transport = RemoteTransport::new(addr.to_string(), Duration::from_secs(5));
        assert_eq!(transport.shard_info().expect("call #1"), (0, 1, 1));
        // Let the server's FIN land so the pooled socket is visibly dead.
        thread::sleep(Duration::from_millis(100));
        assert_eq!(
            transport
                .shard_info()
                .expect("call #2 should retry on a fresh dial"),
            (0, 1, 2)
        );
        server.join().expect("server thread");
    }

    /// A connection that dies on its *first* use proves nothing about idle
    /// cuts — the shard itself is misbehaving, and retrying would only mask
    /// that. The failure must be reported without a second dial.
    #[test]
    fn fresh_connection_failure_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let server = thread::spawn(move || {
            {
                let (mut s, _) = listener.accept().expect("accept #1");
                let _ = read_frame(&mut s); // swallow the request,
            } // answer nothing, close.
              // Any re-dial would land here within the transport's 5s budget;
              // watch long enough to catch it.
            listener.set_nonblocking(true).expect("nonblocking");
            let patience = Instant::now() + Duration::from_millis(400);
            while Instant::now() < patience {
                assert!(
                    listener.accept().is_err(),
                    "a first-use failure must not be retried"
                );
                thread::sleep(Duration::from_millis(10));
            }
        });

        let transport = RemoteTransport::new(addr.to_string(), Duration::from_secs(5));
        let err = transport
            .shard_info()
            .expect_err("first use died unanswered");
        assert!(matches!(err, ShardError::Internal(_)), "got {err:?}");
        server.join().expect("server thread");
    }

    /// What a `partial=` annotation says about a shard that answered
    /// `ERR`: slow and shedding shards keep their word, every other class
    /// is that shard's fault.
    #[test]
    fn backend_err_kind_maps_to_the_partial_word() {
        for kind in ErrKind::ALL {
            let want = match kind {
                ErrKind::Timeout => "timeout",
                ErrKind::Overloaded => "overloaded",
                ErrKind::Malformed
                | ErrKind::Internal
                | ErrKind::ShuttingDown
                | ErrKind::ReloadFailed => "internal",
            };
            assert_eq!(classify_err_reply(kind.because("detail")).word(), want);
        }
        // A fault keeps the backend's full rendered reply for the logs.
        assert_eq!(
            classify_err_reply(ErrKind::ReloadFailed.because("corrupt store")).describe(),
            "reload-failed: corrupt store"
        );
    }

    #[test]
    fn remaining_budget_caps_and_times_out() {
        let io = Duration::from_secs(3);
        // No deadline: the per-call cap alone.
        assert_eq!(remaining_budget(None, io).expect("uncapped"), io);
        // Distant deadline: still capped by io_timeout.
        let far = Instant::now() + Duration::from_secs(60);
        assert_eq!(remaining_budget(Some(far), io).expect("capped"), io);
        // Near deadline: the remaining slice wins.
        let near = Instant::now() + Duration::from_millis(50);
        assert!(remaining_budget(Some(near), io).expect("sliced") <= Duration::from_millis(50));
        // Expired deadline: an honest Timeout before any I/O happens.
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            remaining_budget(Some(past), io).expect_err("expired"),
            ShardError::Timeout
        );
    }
}
