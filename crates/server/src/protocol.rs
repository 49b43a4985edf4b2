//! Wire protocol: length-prefixed UTF-8 text frames.
//!
//! Every message — request or response — is one frame: a little-endian
//! `u32` byte length followed by that many bytes of UTF-8 text. Most
//! requests are single lines (`UPDATE` carries its delta on continuation
//! lines); responses may span multiple lines but always travel in one
//! frame, so a client never has to guess where a reply ends.
//!
//! Request grammar (ASCII, space-separated):
//!
//! ```text
//! PING
//! QUERY <user-id> <k> <keyword> [<keyword>...]      k ≤ 1024, ≤ 32 keywords
//! STATS
//! METRICS                                           Prometheus exposition
//! TRACE [<n>]                                       last n traces (default 16)
//! RELOAD <engine-dir>                               admin: swap in a snapshot
//! UPDATE\nEDGE <u> <v> <p>\nASSIGN <u> <t>\n...     admin: apply a delta
//! SHARD                                             which slice is serving?
//! EXPAND <gen> <nterms> <term>...\nF <node> <ep>\n...   router: probe Γ tables
//! PREPARE DIR <engine-dir>                          two-phase reload: stage
//! PREPARE UPDATE\nEDGE...\nASSIGN...                two-phase delta: stage
//! COMMIT                                            swap the staged engine in
//! ABORT                                             drop the staged engine
//! SHUTDOWN
//! ```
//!
//! Responses:
//!
//! ```text
//! PONG
//! TOPICS <n> <cached|fresh> <micros> [partial=<shard>:<reason>,...]\n
//!        <topic-id> <score>\n...
//! STATS\n<key> <value>\n...
//! METRICS\n<prometheus text exposition...>
//! TRACES\n<rendered traces...>
//! GEN <generation>       reply to RELOAD/UPDATE/COMMIT/ABORT
//! SHARD <index> <count> <generation>                reply to SHARD
//! EXPANDED <gen> <ntables> <bound>\nT <node> <nhits> <ncands>\n
//!          H <node> <ep>\n... C <node> <ep>\n...    reply to EXPAND
//! STAGED                 reply to PREPARE: successor built, awaiting COMMIT
//! BYE
//! ERR <reason...>        reasons: timeout | overloaded | shutting-down |
//!                        malformed ... | internal ... | reload-failed ...
//! ```
//!
//! The router verbs keep the search's numeric path bit-exact on the wire:
//! every probability travels as 17-significant-digit scientific notation,
//! which round-trips `f64` exactly. An `EXPAND` carries the query's resolved
//! term ids plus frontier entries `(node, ep)`; the matching `EXPANDED`
//! returns, per probed node *in request order*, the Γ-table hits against the
//! query's representative universe (pre-scaled by `ep`) and the θ-surviving
//! marked candidates, plus the shard's residual upper bound (its best
//! unexpanded candidate — the Section 5.2 bound generalized per shard).
//!
//! The first word of an `ERR` reason is machine-readable and exhaustive —
//! it is an [`ErrKind`], spelled exactly once (in that enum's declaration)
//! and rendered only by [`Response::render`]: `timeout` (budget expired,
//! search cancelled), `overloaded` (shed at admission), `shutting-down`
//! (drain in progress), `malformed` (bad request — the client's fault),
//! `internal` (server fault — a panicking job or vanished worker; never
//! reported as a timeout), and `reload-failed` (a `RELOAD`/`UPDATE` could
//! not produce a servable engine; the prior generation keeps serving).

// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]

use crate::metrics::Metrics;
use pit::Delta;
use pit_graph::{NodeId, TopicId};
use pit_obs::Counter;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;

/// Declare a fieldless enum whose variants have a wire spelling, from one
/// `Variant => "spelling"` list. `ALL`, `as_str`, `from_str` and the dense
/// `index` are all derived from that list, so a new variant cannot be left
/// out of any of them and no spelling is typed twice.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $text:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= [`Self::index`]) order.
            pub const ALL: [$name; [$($text),+].len()] = [$($name::$variant),+];

            /// The wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)+
                }
            }

            /// Parse a wire spelling back — the inverse of [`Self::as_str`];
            /// an unknown spelling is `None`. An inherent method rather than
            /// the `FromStr` trait: a mismatch needs no error type.
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<$name> {
                Self::ALL.into_iter().find(|v| v.as_str() == s)
            }

            /// Dense index into per-variant arrays sized by [`Self::ALL`].
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}
pub(crate) use wire_enum;

wire_enum! {
    /// The class of an `ERR` reply: its machine-readable first word.
    pub enum ErrKind {
        /// The query budget expired; the search was cancelled.
        Timeout => "timeout",
        /// The bounded queue was full; the request was shed at admission.
        Overloaded => "overloaded",
        /// The request itself was invalid — the client's fault.
        Malformed => "malformed",
        /// A server fault: a panicking job, a vanished worker, a lost shard.
        Internal => "internal",
        /// The server is draining.
        ShuttingDown => "shutting-down",
        /// A `RELOAD`/`UPDATE` could not produce a servable engine; the
        /// prior generation keeps serving.
        ReloadFailed => "reload-failed",
    }
}

impl ErrKind {
    /// The counter that makes this class visible in `STATS`/`METRICS`.
    /// `shutting-down` is deliberately uncounted: it is the server's own
    /// lifecycle, not an anomaly.
    pub fn counter(self, metrics: &Metrics) -> Option<&Counter> {
        match self {
            ErrKind::Timeout => Some(&metrics.timeouts),
            ErrKind::Overloaded => Some(&metrics.shed),
            ErrKind::Malformed => Some(&metrics.errors),
            ErrKind::Internal => Some(&metrics.internal_errors),
            ErrKind::ShuttingDown => None,
            ErrKind::ReloadFailed => Some(&metrics.reload_failures),
        }
    }

    /// This class with a human-readable detail.
    pub fn because(self, detail: impl Into<String>) -> WireError {
        WireError {
            kind: self,
            detail: detail.into(),
        }
    }
}

/// One `ERR` reply: the class plus an optional human-readable detail,
/// rendered `<kind>` or `<kind>: <detail>`. Also the error type of every
/// serving-stack call whose failure is answered on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The machine-readable class.
    pub kind: ErrKind,
    /// Free-form detail; empty for the bare classes (`timeout`, …).
    pub detail: String,
}

impl From<ErrKind> for WireError {
    fn from(kind: ErrKind) -> Self {
        WireError {
            kind,
            detail: String::new(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind.as_str())?;
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// A `malformed` refusal — what every request-parse failure is.
fn malformed(detail: impl Into<String>) -> WireError {
    ErrKind::Malformed.because(detail)
}

/// Frames larger than this are rejected rather than buffered — no legitimate
/// request or reply comes close (a 1000-topic reply is ~30 KB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Largest accepted `k`. Anything above caches (and serializes) what is
/// effectively a full-corpus ranking, and every distinct huge `k` fragments
/// the LRU into single-use entries.
pub const MAX_K: usize = 1024;

/// Most keywords accepted in one `QUERY`. The searcher unions topic
/// postings over terms, so beyond a handful of keywords extra terms only
/// burn worker time.
pub const MAX_KEYWORDS: usize = 32;

/// Most `EDGE` plus `ASSIGN` lines accepted in one `UPDATE`. Larger deltas
/// should go through an offline rebuild and a `RELOAD`.
pub const MAX_DELTA_LINES: usize = 65_536;

/// Most traces one `TRACE` request may ask for — matches the largest
/// sensible ring, and keeps the reply comfortably inside one frame.
pub const MAX_TRACE_DUMP: usize = 1024;

/// Traces returned by a bare `TRACE` (no count).
pub const DEFAULT_TRACE_DUMP: usize = 16;

/// Most frontier probes (`F` lines) accepted in one `EXPAND`. Routers chunk
/// far below this (see [`ROUTER_EXPAND_CHUNK`]); the cap is the parser's
/// totality bound on hostile input.
pub const MAX_EXPAND_PROBES: usize = 4096;

/// Frontier probes a router sends per `EXPAND` call. Small enough that a
/// worst-case `EXPANDED` reply (every probe a dense Γ table) stays far
/// inside [`MAX_FRAME_BYTES`]; the router loops over chunks within a round.
pub const ROUTER_EXPAND_CHUNK: usize = 128;

/// One probed Γ table as carried by an `EXPANDED` reply: the frontier node
/// it answers for, its representative-universe hits with probabilities
/// pre-scaled by the probe's `ep` (ready to credit), and its θ-surviving
/// marked candidates `(node, ep)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbeTable {
    /// The frontier node this table answers for.
    pub node: u32,
    /// `(representative node, ep · Γ(node)[rep])`, ascending node id.
    pub hits: Vec<(u32, f64)>,
    /// `(marked node, ep · Γ(node)[marked])` with ep ≥ θ.
    pub cands: Vec<(u32, f64)>,
}

/// What the next engine generation is built from.
#[derive(Clone, Debug, PartialEq)]
pub enum Successor {
    /// A `pit::store::save_engine` directory on the **server's** filesystem
    /// (for a router: the root of a split, one `shard-<i>` per backend).
    Snapshot(PathBuf),
    /// An edge/assignment delta applied to the serving engine (incremental
    /// maintenance, paper Section 4.4).
    Delta(Delta),
}

/// One engine change. The six admin verbs are the spellings of these
/// values — source (directory | delta) × install (at once | staged) plus
/// the two that settle a staged successor — and every layer below the wire
/// grammar takes the value, not a verb:
///
/// | verb                 | value                                     | cache | reply     |
/// |----------------------|-------------------------------------------|-------|-----------|
/// | `RELOAD <dir>`       | `Install { Snapshot(dir), commit: true }` | flush | `GEN n+1` |
/// | `UPDATE` + delta     | `Install { Delta(d), commit: true }`      | retag | `GEN n+1` |
/// | `PREPARE DIR <dir>`  | `Install { Snapshot(dir), commit: false }`| —     | `STAGED`  |
/// | `PREPARE UPDATE` + d | `Install { Delta(d), commit: false }`     | —     | `STAGED`  |
/// | `COMMIT`             | `Commit`                                  | flush | `GEN n+1` |
/// | `ABORT`              | `Abort`                                   | —     | `GEN n`   |
///
/// Any of them can answer `ERR reload-failed …`; the serving generation is
/// then exactly what it was.
#[derive(Clone, Debug, PartialEq)]
pub enum Admin {
    /// Build a successor engine from `next`, then swap it in (`commit`) or
    /// park it in the staging slot for a later [`Admin::Commit`].
    Install {
        /// What to build the successor from.
        next: Successor,
        /// Serve it at once, or stage it.
        commit: bool,
    },
    /// Swap the staged successor in.
    Commit,
    /// Drop the staged successor, if any.
    Abort,
}

impl Admin {
    /// Whether this change, when it succeeds, swaps with a blanket cache
    /// flush (the table's `flush` rows) — after which the updater thread
    /// re-warms the hottest keys. A delta installed at once never does: its
    /// scoped retag keeps the unaffected entries alive, which is the point.
    pub fn flushes_cache(&self) -> bool {
        matches!(
            self,
            Admin::Commit
                | Admin::Install {
                    next: Successor::Snapshot(_),
                    commit: true,
                }
        )
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Top-`k` personalized influential topics for `user` and `keywords`.
    Query {
        /// Querying user's node id.
        user: u32,
        /// Result size.
        k: usize,
        /// Query keywords (at least one).
        keywords: Vec<String>,
    },
    /// Server counters snapshot.
    Stats,
    /// Full metrics in Prometheus text exposition format.
    Metrics,
    /// The last `n` captured traces (slow-query log first, then sampled).
    Trace {
        /// How many traces of each kind to return (1..=[`MAX_TRACE_DUMP`]).
        n: usize,
    },
    /// Admin: one of the six engine-changing verbs; see [`Admin`].
    Admin(Admin),
    /// Which shard slice (and generation) is this backend serving?
    Shard,
    /// Router: probe the Γ tables of `probes` frontier nodes against the
    /// query whose resolved term ids are `terms`. `gen` pins the engine
    /// generation the query was admitted against — a backend serving a
    /// different generation must refuse rather than contribute
    /// mixed-generation scores.
    Expand {
        /// Engine generation the router admitted the query against.
        gen: u64,
        /// Resolved term ids of the query (replicated vocabulary).
        terms: Vec<u32>,
        /// Frontier entries `(node, ep)` to probe, in driver order.
        probes: Vec<(u32, f64)>,
    },
    /// Graceful stop: drain in-flight queries, then exit.
    Shutdown,
}

impl Request {
    /// Parse one request frame (a single line, except `UPDATE`, whose delta
    /// rides on continuation lines).
    ///
    /// # Errors
    /// A [`ErrKind::Malformed`] refusal, sent back as the `ERR` reply.
    pub fn parse(text: &str) -> Result<Request, WireError> {
        let mut lines = text.lines();
        let line = lines.next().unwrap_or("");
        let mut words = line.split_ascii_whitespace();
        let verb = words.next().ok_or_else(|| malformed("empty request"))?;
        let single_line = |verb: &str| -> Result<(), WireError> {
            if text.lines().nth(1).is_some() {
                Err(malformed(format!("{verb} takes a single line")))
            } else {
                Ok(())
            }
        };
        match verb {
            "PING" => single_line(verb).map(|()| Request::Ping),
            "STATS" => single_line(verb).map(|()| Request::Stats),
            "METRICS" => single_line(verb).map(|()| Request::Metrics),
            "SHUTDOWN" => single_line(verb).map(|()| Request::Shutdown),
            "TRACE" => {
                single_line(verb)?;
                let n = match words.next() {
                    None => DEFAULT_TRACE_DUMP,
                    Some(w) => w
                        .parse::<usize>()
                        .map_err(|_| malformed("TRACE count is not a usize"))?,
                };
                if words.next().is_some() {
                    return Err(malformed("TRACE takes at most one argument"));
                }
                if n == 0 {
                    return Err(malformed("TRACE count must be positive"));
                }
                if n > MAX_TRACE_DUMP {
                    return Err(malformed(format!(
                        "TRACE count {n} exceeds the cap of {MAX_TRACE_DUMP}"
                    )));
                }
                Ok(Request::Trace { n })
            }
            "QUERY" => {
                single_line(verb)?;
                let user = words
                    .next()
                    .ok_or_else(|| malformed("QUERY missing user id"))?
                    .parse::<u32>()
                    .map_err(|_| malformed("QUERY user id is not a u32"))?;
                let k = words
                    .next()
                    .ok_or_else(|| malformed("QUERY missing k"))?
                    .parse::<usize>()
                    .map_err(|_| malformed("QUERY k is not a usize"))?;
                if k == 0 {
                    return Err(malformed("QUERY k must be positive"));
                }
                if k > MAX_K {
                    return Err(malformed(format!("QUERY k {k} exceeds the cap of {MAX_K}")));
                }
                let keywords: Vec<String> = words.map(str::to_string).collect();
                if keywords.is_empty() {
                    return Err(malformed("QUERY needs at least one keyword"));
                }
                if keywords.len() > MAX_KEYWORDS {
                    return Err(malformed(format!(
                        "QUERY has {} keywords, cap is {MAX_KEYWORDS}",
                        keywords.len()
                    )));
                }
                Ok(Request::Query { user, k, keywords })
            }
            "RELOAD" => {
                single_line(verb)?;
                let next = snapshot_dir(line, "RELOAD")?;
                Ok(Request::Admin(Admin::Install { next, commit: true }))
            }
            "UPDATE" => {
                if words.next().is_some() {
                    return Err(malformed("UPDATE takes no arguments on its head line"));
                }
                let next = Successor::Delta(parse_delta_lines(lines)?);
                Ok(Request::Admin(Admin::Install { next, commit: true }))
            }
            "PREPARE" => {
                let next = match words.next() {
                    Some("DIR") => {
                        single_line(verb)?;
                        snapshot_dir(line, "PREPARE DIR")?
                    }
                    Some("UPDATE") => {
                        if words.next().is_some() {
                            return Err(malformed(
                                "PREPARE UPDATE takes no further head arguments",
                            ));
                        }
                        Successor::Delta(parse_delta_lines(lines)?)
                    }
                    _ => return Err(malformed("PREPARE needs DIR <path> or UPDATE")),
                };
                Ok(Request::Admin(Admin::Install {
                    next,
                    commit: false,
                }))
            }
            // The router verbs are machine-to-machine: stricter than the
            // operator verbs, trailing words are rejected too.
            "SHARD" | "COMMIT" | "ABORT" => {
                single_line(verb)?;
                if words.next().is_some() {
                    return Err(malformed(format!("{verb} takes no arguments")));
                }
                Ok(match verb {
                    "SHARD" => Request::Shard,
                    "COMMIT" => Request::Admin(Admin::Commit),
                    _ => Request::Admin(Admin::Abort),
                })
            }
            "EXPAND" => {
                let gen = words
                    .next()
                    .ok_or_else(|| malformed("EXPAND missing generation"))?
                    .parse::<u64>()
                    .map_err(|_| malformed("EXPAND generation is not a u64"))?;
                let nterms = words
                    .next()
                    .ok_or_else(|| malformed("EXPAND missing term count"))?
                    .parse::<usize>()
                    .map_err(|_| malformed("EXPAND term count is not a usize"))?;
                if nterms == 0 {
                    return Err(malformed("EXPAND needs at least one term"));
                }
                if nterms > MAX_KEYWORDS {
                    return Err(malformed(format!(
                        "EXPAND has {nterms} terms, cap is {MAX_KEYWORDS}"
                    )));
                }
                // Collect what is actually present; never allocate from the
                // claimed count.
                let mut terms = Vec::new();
                for w in words {
                    terms.push(
                        w.parse::<u32>()
                            .map_err(|_| malformed("EXPAND term is not a u32"))?,
                    );
                }
                if terms.len() != nterms {
                    return Err(malformed(format!(
                        "EXPAND claims {nterms} terms but carries {}",
                        terms.len()
                    )));
                }
                let mut probes = Vec::new();
                for (i, l) in lines.enumerate() {
                    if i >= MAX_EXPAND_PROBES {
                        return Err(malformed(format!(
                            "EXPAND exceeds {MAX_EXPAND_PROBES} probes"
                        )));
                    }
                    let mut w = l.split_ascii_whitespace();
                    let (Some("F"), Some(node), Some(ep), None) =
                        (w.next(), w.next(), w.next(), w.next())
                    else {
                        return Err(malformed(format!("bad EXPAND probe line {l:?}")));
                    };
                    let node = node
                        .parse::<u32>()
                        .map_err(|_| malformed("EXPAND probe node is not a u32"))?;
                    let ep = ep
                        .parse::<f64>()
                        .map_err(|_| malformed("EXPAND probe ep is not a number"))?;
                    if !ep.is_finite() {
                        return Err(malformed("EXPAND probe ep is not finite"));
                    }
                    probes.push((node, ep));
                }
                if probes.is_empty() {
                    return Err(malformed("EXPAND needs at least one probe"));
                }
                Ok(Request::Expand { gen, terms, probes })
            }
            other => Err(malformed(format!("unknown verb {other}"))),
        }
    }

    /// Render the request as its wire text (inverse of [`Request::parse`]).
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "PING".to_string(),
            Request::Stats => "STATS".to_string(),
            Request::Metrics => "METRICS".to_string(),
            Request::Trace { n } => format!("TRACE {n}"),
            Request::Shutdown => "SHUTDOWN".to_string(),
            Request::Shard => "SHARD".to_string(),
            Request::Query { user, k, keywords } => {
                format!("QUERY {user} {k} {}", keywords.join(" "))
            }
            Request::Admin(Admin::Commit) => "COMMIT".to_string(),
            Request::Admin(Admin::Abort) => "ABORT".to_string(),
            Request::Admin(Admin::Install { next, commit }) => {
                let mut out = match (next, commit) {
                    (Successor::Snapshot(_), true) => "RELOAD",
                    (Successor::Delta(_), true) => "UPDATE",
                    (Successor::Snapshot(_), false) => "PREPARE DIR",
                    (Successor::Delta(_), false) => "PREPARE UPDATE",
                }
                .to_string();
                match next {
                    Successor::Snapshot(dir) => out.push_str(&format!(" {}", dir.display())),
                    Successor::Delta(delta) => {
                        for (u, v, p) in &delta.new_edges {
                            // 17 significant digits round-trip f64 exactly.
                            out.push_str(&format!("\nEDGE {u} {v} {p:.17e}"));
                        }
                        for (u, t) in &delta.new_assignments {
                            out.push_str(&format!("\nASSIGN {u} {t}"));
                        }
                    }
                }
                out
            }
            Request::Expand { gen, terms, probes } => {
                let mut out = format!("EXPAND {gen} {}", terms.len());
                for t in terms {
                    out.push_str(&format!(" {t}"));
                }
                for (node, ep) in probes {
                    // 17 significant digits round-trip f64 exactly.
                    out.push_str(&format!("\nF {node} {ep:.17e}"));
                }
                out
            }
        }
    }
}

/// The snapshot directory of `RELOAD <dir>` / `PREPARE DIR <dir>`: the rest
/// of the line after the `head` words, so directories with spaces survive
/// the trip.
fn snapshot_dir(line: &str, head: &str) -> Result<Successor, WireError> {
    let mut dir = line;
    for word in head.split(' ') {
        dir = dir.trim_start().strip_prefix(word).unwrap_or_default();
    }
    if dir.trim().is_empty() {
        return Err(malformed(format!("{head} missing engine directory")));
    }
    Ok(Successor::Snapshot(PathBuf::from(dir.trim())))
}

/// Parse `EDGE u v p` / `ASSIGN u t` continuation lines (shared by `UPDATE`
/// and `PREPARE UPDATE`) into the delta they spell.
fn parse_delta_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Delta, WireError> {
    let mut delta = Delta::default();
    for (i, l) in lines.enumerate() {
        if i >= MAX_DELTA_LINES {
            return Err(malformed(format!(
                "UPDATE delta exceeds {MAX_DELTA_LINES} lines"
            )));
        }
        let mut w = l.split_ascii_whitespace();
        match w.next() {
            Some("EDGE") => {
                let (u, v, p) = (w.next(), w.next(), w.next());
                let (Some(u), Some(v), Some(p), None) = (u, v, p, w.next()) else {
                    return Err(malformed(format!("bad EDGE line {l:?}")));
                };
                let parse = |s: &str, what: &str| -> Result<u32, WireError> {
                    s.parse()
                        .map_err(|_| malformed(format!("EDGE {what} is not a u32")))
                };
                let prob: f64 = p
                    .parse()
                    .map_err(|_| malformed("EDGE probability is not a number"))?;
                if !prob.is_finite() {
                    return Err(malformed("EDGE probability is not finite"));
                }
                let (u, v) = (parse(u, "source")?, parse(v, "target")?);
                delta.new_edges.push((NodeId(u), NodeId(v), prob));
            }
            Some("ASSIGN") => {
                let (u, t) = (w.next(), w.next());
                let (Some(u), Some(t), None) = (u, t, w.next()) else {
                    return Err(malformed(format!("bad ASSIGN line {l:?}")));
                };
                let parse = |s: &str, what: &str| -> Result<u32, WireError> {
                    s.parse()
                        .map_err(|_| malformed(format!("ASSIGN {what} is not a u32")))
                };
                let (u, t) = (parse(u, "user")?, parse(t, "topic")?);
                delta.new_assignments.push((NodeId(u), TopicId(t)));
            }
            Some(other) => return Err(malformed(format!("unknown UPDATE line kind {other}"))),
            None => return Err(malformed("empty UPDATE line")),
        }
    }
    Ok(delta)
}

/// A server reply, rendered to one frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Successful query result.
    Topics {
        /// `(topic id, influence score)` in rank order.
        ranked: Vec<(u32, f64)>,
        /// Whether the result came from the cache.
        cached: bool,
        /// Service time in microseconds (queue wait + execution).
        micros: u64,
        /// Shards whose contribution is missing, as `(shard, reason)` with
        /// the reason a single taxonomy word (`timeout` | `overloaded` |
        /// `internal`). Empty for a complete answer — the only kind a
        /// single-node server produces, and the only kind ever cached.
        partial: Vec<(u32, String)>,
    },
    /// Counter snapshot: `(name, value)` pairs.
    Stats(Vec<(String, String)>),
    /// Prometheus text exposition (reply to [`Request::Metrics`]), carried
    /// verbatim after a `METRICS` head line.
    Metrics(String),
    /// Rendered traces (reply to [`Request::Trace`]), carried verbatim
    /// after a `TRACES` head line.
    Traces(String),
    /// Reply to every [`Admin`] value that does not stage: the generation
    /// now serving (monotonically increasing across swaps).
    Generation(u64),
    /// Reply to [`Request::Shard`]: which slice this backend serves, under
    /// which generation. An unsharded server reports `0` of `1`.
    ShardInfo {
        /// Shard index in `0..count`.
        index: u32,
        /// Total shards in the partition.
        count: u32,
        /// Serving generation.
        gen: u64,
    },
    /// Reply to [`Request::Expand`]: the probed tables in request order,
    /// plus this shard's residual upper bound (best θ-surviving candidate
    /// across the returned tables; `0` when none survive).
    Expanded {
        /// Generation the probes executed against.
        gen: u64,
        /// The shard's residual upper bound (Section 5.2, per shard).
        bound: f64,
        /// One table per probe, in request order.
        tables: Vec<ProbeTable>,
    },
    /// Reply to a staging [`Admin::Install`]: the successor engine is built
    /// and parked, awaiting `COMMIT` or `ABORT`.
    Staged,
    /// Reply to [`Request::Shutdown`].
    Bye,
    /// Failure: the machine-readable class plus detail.
    Err(WireError),
}

impl Response {
    /// The `ERR` reply for `err`, counted under its class's counter
    /// ([`ErrKind::counter`] — the one word→counter map).
    pub fn refusal(err: impl Into<WireError>, metrics: &Metrics) -> Response {
        let err = err.into();
        if let Some(counter) = err.kind.counter(metrics) {
            counter.inc();
        }
        Response::Err(err)
    }

    /// Render to the text carried by one frame.
    pub fn render(&self) -> String {
        match self {
            Response::Pong => "PONG".to_string(),
            Response::Bye => "BYE".to_string(),
            Response::Staged => "STAGED".to_string(),
            Response::Generation(generation) => format!("GEN {generation}"),
            Response::ShardInfo { index, count, gen } => format!("SHARD {index} {count} {gen}"),
            Response::Err(err) => format!("ERR {err}"),
            Response::Expanded { gen, bound, tables } => {
                let mut out = format!("EXPANDED {gen} {} {bound:.17e}", tables.len());
                for t in tables {
                    out.push_str(&format!(
                        "\nT {} {} {}",
                        t.node,
                        t.hits.len(),
                        t.cands.len()
                    ));
                    for (x, p) in &t.hits {
                        out.push_str(&format!("\nH {x} {p:.17e}"));
                    }
                    for (w, ep) in &t.cands {
                        out.push_str(&format!("\nC {w} {ep:.17e}"));
                    }
                }
                out
            }
            Response::Topics {
                ranked,
                cached,
                micros,
                partial,
            } => {
                let mut out = format!(
                    "TOPICS {} {} {micros}",
                    ranked.len(),
                    if *cached { "cached" } else { "fresh" }
                );
                if !partial.is_empty() {
                    let missing: Vec<String> = partial
                        .iter()
                        .map(|(shard, reason)| format!("{shard}:{reason}"))
                        .collect();
                    out.push_str(&format!(" partial={}", missing.join(",")));
                }
                for (topic, score) in ranked {
                    // 17 significant digits round-trip f64 exactly, so the
                    // served scores compare bit-equal to the offline path.
                    out.push_str(&format!("\n{topic} {score:.17e}"));
                }
                out
            }
            Response::Stats(pairs) => {
                let mut out = "STATS".to_string();
                for (k, v) in pairs {
                    out.push_str(&format!("\n{k} {v}"));
                }
                out
            }
            Response::Metrics(body) => format!("METRICS\n{body}"),
            Response::Traces(body) => format!("TRACES\n{body}"),
        }
    }

    /// Parse a frame's text back into a response (used by the CLI client
    /// and the integration tests).
    ///
    /// # Errors
    /// A description of the malformation.
    pub fn parse(text: &str) -> Result<Response, String> {
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| "empty response".to_string())?;
        if head == "PONG" {
            return Ok(Response::Pong);
        }
        if head == "BYE" {
            return Ok(Response::Bye);
        }
        if head == "STAGED" {
            return Ok(Response::Staged);
        }
        if let Some(rest) = head.strip_prefix("SHARD ") {
            let mut words = rest.split_ascii_whitespace();
            let index: u32 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "SHARD missing index".to_string())?;
            let count: u32 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "SHARD missing count".to_string())?;
            let gen: u64 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "SHARD missing generation".to_string())?;
            if count == 0 || index >= count {
                return Err(format!("SHARD index {index} outside count {count}"));
            }
            return Ok(Response::ShardInfo { index, count, gen });
        }
        if let Some(rest) = head.strip_prefix("EXPANDED ") {
            return parse_expanded(rest, lines);
        }
        if let Some(reason) = head.strip_prefix("ERR ") {
            let word = reason.split([' ', ':']).next().unwrap_or_default();
            let kind = ErrKind::from_str(word)
                .ok_or_else(|| format!("ERR reply with unknown class {word:?}"))?;
            let detail = &reason[word.len()..];
            let detail = detail.strip_prefix(':').unwrap_or(detail);
            let detail = detail.strip_prefix(' ').unwrap_or(detail);
            return Ok(Response::Err(kind.because(detail)));
        }
        if let Some(generation) = head.strip_prefix("GEN ") {
            let generation = generation
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("bad generation: {e}"))?;
            return Ok(Response::Generation(generation));
        }
        if head == "METRICS" {
            return Ok(Response::Metrics(lines.collect::<Vec<_>>().join("\n")));
        }
        if head == "TRACES" {
            return Ok(Response::Traces(lines.collect::<Vec<_>>().join("\n")));
        }
        if head == "STATS" {
            let pairs = lines
                .map(|l| match l.split_once(' ') {
                    Some((k, v)) => Ok((k.to_string(), v.to_string())),
                    None => Err(format!("stats line without value: {l}")),
                })
                .collect::<Result<_, _>>()?;
            return Ok(Response::Stats(pairs));
        }
        if let Some(rest) = head.strip_prefix("TOPICS ") {
            let mut words = rest.split_ascii_whitespace();
            let n: usize = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "TOPICS missing count".to_string())?;
            let cached = match words.next() {
                Some("cached") => true,
                Some("fresh") => false,
                other => return Err(format!("TOPICS bad cache tag {other:?}")),
            };
            let micros: u64 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| "TOPICS missing service time".to_string())?;
            let mut partial = Vec::new();
            if let Some(tail) = words.next() {
                let spec = tail
                    .strip_prefix("partial=")
                    .ok_or_else(|| format!("TOPICS trailing word {tail:?}"))?;
                for entry in spec.split(',') {
                    let (shard, reason) = entry
                        .split_once(':')
                        .ok_or_else(|| format!("partial entry without reason: {entry}"))?;
                    let shard = shard
                        .parse::<u32>()
                        .map_err(|e| format!("bad partial shard id: {e}"))?;
                    if reason.is_empty() {
                        return Err(format!("partial entry with empty reason: {entry}"));
                    }
                    partial.push((shard, reason.to_string()));
                }
            }
            if words.next().is_some() {
                return Err("TOPICS head has trailing words".to_string());
            }
            let ranked = lines
                .map(|l| {
                    let (t, s) = l
                        .split_once(' ')
                        .ok_or_else(|| format!("topic line without score: {l}"))?;
                    let topic = t.parse::<u32>().map_err(|e| format!("bad topic id: {e}"))?;
                    let score = s.parse::<f64>().map_err(|e| format!("bad score: {e}"))?;
                    Ok((topic, score))
                })
                .collect::<Result<Vec<_>, String>>()?;
            if ranked.len() != n {
                return Err(format!("TOPICS count {n} but {} lines", ranked.len()));
            }
            return Ok(Response::Topics {
                ranked,
                cached,
                micros,
                partial,
            });
        }
        Err(format!("unrecognized response head: {head}"))
    }
}

/// Parse the body of an `EXPANDED` reply. Table, hit, and candidate counts
/// are claimed up front and verified against the lines actually carried, so
/// a truncated or padded frame is rejected rather than silently reshaped.
fn parse_expanded<'a, I>(rest: &str, mut lines: I) -> Result<Response, String>
where
    I: Iterator<Item = &'a str>,
{
    let mut words = rest.split_ascii_whitespace();
    let gen: u64 = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| "EXPANDED missing generation".to_string())?;
    let ntables: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| "EXPANDED missing table count".to_string())?;
    let bound: f64 = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| "EXPANDED missing bound".to_string())?;
    if !bound.is_finite() {
        return Err("EXPANDED bound is not finite".to_string());
    }
    if ntables > MAX_EXPAND_PROBES {
        return Err(format!(
            "EXPANDED claims {ntables} tables, cap is {MAX_EXPAND_PROBES}"
        ));
    }
    let mut tables = Vec::new();
    for _ in 0..ntables {
        let head = lines
            .next()
            .ok_or_else(|| "EXPANDED truncated before table head".to_string())?;
        let mut words = head.split_ascii_whitespace();
        if words.next() != Some("T") {
            return Err(format!("expected table head, got: {head}"));
        }
        let node: u32 = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| "table head missing node".to_string())?;
        let nhits: usize = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| "table head missing hit count".to_string())?;
        let ncands: usize = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| "table head missing candidate count".to_string())?;
        if nhits.saturating_add(ncands) > MAX_FRAME_BYTES {
            return Err(format!(
                "table claims {nhits}+{ncands} rows, frame cannot carry them"
            ));
        }
        let mut table = ProbeTable {
            node,
            hits: Vec::new(),
            cands: Vec::new(),
        };
        for (tag, n, dest) in [
            ("H", nhits, &mut table.hits),
            ("C", ncands, &mut table.cands),
        ] {
            for _ in 0..n {
                let line = lines
                    .next()
                    .ok_or_else(|| format!("EXPANDED truncated inside {tag} rows"))?;
                let mut words = line.split_ascii_whitespace();
                if words.next() != Some(tag) {
                    return Err(format!("expected {tag} row, got: {line}"));
                }
                let id: u32 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| format!("{tag} row missing node id"))?;
                let val: f64 = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| format!("{tag} row missing value"))?;
                if !val.is_finite() {
                    return Err(format!("{tag} row value is not finite"));
                }
                if words.next().is_some() {
                    return Err(format!("{tag} row has trailing words: {line}"));
                }
                dest.push((id, val));
            }
        }
        tables.push(table);
    }
    if lines.next().is_some() {
        return Err("EXPANDED has lines past the claimed tables".to_string());
    }
    Ok(Response::Expanded { gen, bound, tables })
}

/// Write `text` as one frame.
///
/// # Errors
/// Propagates I/O failures (including write-deadline expiry), and rejects
/// payloads over [`MAX_FRAME_BYTES`] — a `debug_assert` would let a release
/// build truncate the length prefix through the `as u32` cast and desync
/// the peer's framing.
pub fn write_frame<W: Write>(w: &mut W, text: &str) -> io::Result<()> {
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "refusing to send a {}-byte frame (cap {MAX_FRAME_BYTES})",
                bytes.len()
            ),
        ));
    }
    // One write per frame: splitting the length prefix from the payload
    // triggers Nagle/delayed-ACK stalls (~40 ms) on real sockets.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "bytes.len() <= MAX_FRAME_BYTES was checked above"
    )]
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame's text. `Ok(None)` means the peer closed the connection
/// cleanly at a frame boundary.
///
/// # Errors
/// I/O failures (including read-deadline expiry), oversized frames, and
/// invalid UTF-8.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(edges: &[(u32, u32, f64)], assignments: &[(u32, u32)]) -> Delta {
        Delta {
            new_edges: edges
                .iter()
                .map(|&(u, v, p)| (NodeId(u), NodeId(v), p))
                .collect(),
            new_assignments: assignments
                .iter()
                .map(|&(u, t)| (NodeId(u), TopicId(t)))
                .collect(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let installs = [
            Successor::Snapshot("/var/lib/pit/engine v2".into()),
            Successor::Delta(delta(&[(3, 7, 0.1 + 0.2), (0, 1, 1.0 / 3.0)], &[(5, 2)])),
            Successor::Delta(Delta::default()),
        ]
        .into_iter()
        .flat_map(|next| {
            [true, false].map(|commit| {
                let next = next.clone();
                Request::Admin(Admin::Install { next, commit })
            })
        });
        let fixed = [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Trace { n: 5 },
            Request::Trace { n: MAX_TRACE_DUMP },
            Request::Shutdown,
            Request::Query {
                user: 3,
                k: 10,
                keywords: vec!["query-0".into(), "query-1".into()],
            },
            Request::Shard,
            Request::Admin(Admin::Commit),
            Request::Admin(Admin::Abort),
            Request::Expand {
                gen: 9,
                terms: vec![0, 4],
                probes: vec![(8, 1.0), (11, 0.1 + 0.2)],
            },
        ];
        for req in fixed.into_iter().chain(installs) {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
    }

    #[test]
    fn admin_verbs_spell_the_install_square() {
        let dir = || Successor::Snapshot("/srv/e".into());
        let edge = || Successor::Delta(delta(&[(1, 2, 0.5)], &[]));
        for (text, next, commit) in [
            ("RELOAD /srv/e", dir(), true),
            ("PREPARE DIR /srv/e", dir(), false),
            ("  RELOAD   /srv/e  ", dir(), true),
            ("UPDATE\nEDGE 1 2 0.5", edge(), true),
            ("PREPARE UPDATE\nEDGE 1 2 0.5", edge(), false),
        ] {
            let want = Request::Admin(Admin::Install { next, commit });
            assert_eq!(Request::parse(text).unwrap(), want, "{text:?}");
        }
    }

    #[test]
    fn update_edge_probabilities_roundtrip_exactly() {
        let next = Successor::Delta(delta(&[(1, 2, 0.1 + 0.2), (3, 4, 1e-300)], &[]));
        let req = Request::Admin(Admin::Install { next, commit: true });
        let Request::Admin(Admin::Install {
            next: Successor::Delta(delta),
            ..
        }) = Request::parse(&req.render()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(delta.new_edges[0].2.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(delta.new_edges[1].2.to_bits(), 1e-300f64.to_bits());
    }

    #[test]
    fn request_rejects_malformed() {
        for bad in [
            "",
            "FROB",
            "QUERY",
            "QUERY notanum 3 kw",
            "QUERY 3",
            "QUERY 3 zero kw",
            "QUERY 3 0 kw",
            "QUERY 3 5",
            "QUERY 3 5 kw\nstray second line",
            "PING extra\nline",
            "RELOAD",
            "RELOAD   ",
            "RELOAD /dir\nstray",
            "UPDATE trailing",
            "UPDATE\nEDGE 1 2",
            "UPDATE\nEDGE 1 2 0.5 extra",
            "UPDATE\nEDGE 1 2 notaprob",
            "UPDATE\nEDGE 1 2 inf",
            "UPDATE\nASSIGN 1",
            "UPDATE\nASSIGN x 1",
            "UPDATE\nFROB 1 2",
            "TRACE 0",
            "TRACE notanum",
            "TRACE 3 4",
            "TRACE 1025",
            "TRACE 5\nstray",
            "METRICS\nstray",
            "SHARD extra",
            "COMMIT extra",
            "ABORT\nstray",
            "PREPARE",
            "PREPARE DIR",
            "PREPARE DIR /dir\nstray",
            "PREPARE FROB /dir",
            "PREPARE UPDATE\nEDGE 1 2",
            "EXPAND",
            "EXPAND 1",
            "EXPAND 1 1",
            "EXPAND 1 0\nF 3 0.5",
            "EXPAND 1 1 notaterm\nF 3 0.5",
            "EXPAND 1 1 0\nF 3",
            "EXPAND 1 1 0\nF 3 inf",
            "EXPAND 1 1 0\nF x 0.5",
            "EXPAND 1 1 0\nG 3 0.5",
            "EXPAND 1 1 0",
            "EXPAND 1 2 0\nF 3 0.5",
            "EXPAND notanum 1 0\nF 3 0.5",
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert_eq!(err.kind, ErrKind::Malformed, "{bad:?} -> {err}");
        }
    }

    #[test]
    fn query_caps_are_enforced_at_both_edges() {
        // k: the cap itself passes, one past it is malformed — and the
        // unbounded-k attack (u64::MAX) is rejected outright.
        let at_cap = format!("QUERY 1 {MAX_K} kw");
        assert!(matches!(
            Request::parse(&at_cap),
            Ok(Request::Query { k, .. }) if k == MAX_K
        ));
        let over = format!("QUERY 1 {} kw", MAX_K + 1);
        assert_eq!(Request::parse(&over).unwrap_err().kind, ErrKind::Malformed);
        let huge = "QUERY 1 18446744073709551615 kw";
        assert_eq!(Request::parse(huge).unwrap_err().kind, ErrKind::Malformed);

        // Keyword count: 32 passes, 33 is malformed.
        let kws = |n: usize| {
            (0..n)
                .map(|i| format!("kw{i}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let at_cap = format!("QUERY 1 5 {}", kws(MAX_KEYWORDS));
        assert!(matches!(
            Request::parse(&at_cap),
            Ok(Request::Query { keywords, .. }) if keywords.len() == MAX_KEYWORDS
        ));
        let over = format!("QUERY 1 5 {}", kws(MAX_KEYWORDS + 1));
        assert_eq!(Request::parse(&over).unwrap_err().kind, ErrKind::Malformed);
    }

    #[test]
    fn bare_trace_defaults_its_count() {
        assert_eq!(
            Request::parse("TRACE").unwrap(),
            Request::Trace {
                n: DEFAULT_TRACE_DUMP
            }
        );
    }

    #[test]
    fn oversized_update_delta_is_rejected() {
        let mut text = "UPDATE".to_string();
        for _ in 0..=MAX_DELTA_LINES {
            text.push_str("\nASSIGN 1 0");
        }
        let err = Request::parse(&text).unwrap_err();
        assert!(err.detail.contains("exceeds"), "{err}");
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Pong,
            Response::Bye,
            Response::Generation(42),
            Response::Err(ErrKind::Timeout.into()),
            Response::Err(ErrKind::ReloadFailed.because("corrupt store: walks")),
            Response::Topics {
                ranked: vec![(7, 0.137), (2, 1.0 / 3.0), (0, 0.0)],
                cached: true,
                micros: 412,
                partial: vec![],
            },
            Response::Topics {
                ranked: vec![(7, 0.137)],
                cached: false,
                micros: 9001,
                partial: vec![(1, "timeout".into()), (3, "internal".into())],
            },
            Response::Staged,
            Response::ShardInfo {
                index: 2,
                count: 4,
                gen: 17,
            },
            Response::Expanded {
                gen: 3,
                bound: 0.1 + 0.2,
                tables: vec![
                    ProbeTable {
                        node: 8,
                        hits: vec![(2, 1.0 / 3.0), (6, 1e-300)],
                        cands: vec![(11, 0.137)],
                    },
                    ProbeTable {
                        node: 11,
                        hits: vec![],
                        cands: vec![],
                    },
                ],
            },
            Response::Expanded {
                gen: 1,
                bound: 0.0,
                tables: vec![],
            },
            Response::Stats(vec![
                ("queries".into(), "12".into()),
                ("cache_hit_rate".into(), "0.25".into()),
            ]),
            Response::Metrics(
                "# HELP pit_queries_total q\n# TYPE pit_queries_total counter\npit_queries_total 3"
                    .into(),
            ),
            Response::Traces("captured sampled=1 slow=0\n[slow] showing 0 of 0".into()),
        ] {
            assert_eq!(Response::parse(&resp.render()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn scores_roundtrip_exactly() {
        let scores = [0.1 + 0.2, 1e-300, std::f64::consts::PI, 0.137];
        let resp = Response::Topics {
            ranked: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u32, s))
                .collect(),
            cached: false,
            micros: 1,
            partial: vec![],
        };
        let Response::Topics { ranked, .. } = Response::parse(&resp.render()).unwrap() else {
            panic!("wrong variant");
        };
        for ((_, got), &want) in ranked.iter().zip(scores.iter()) {
            assert_eq!(got.to_bits(), want.to_bits(), "score did not roundtrip");
        }
    }

    #[test]
    fn router_responses_reject_malformed() {
        for bad in [
            "SHARD",
            "SHARD 1",
            "SHARD 1 2",
            "SHARD 2 2 5", // index outside count
            "SHARD 0 0 5", // zero shards cannot serve
            "SHARD x 2 5",
            "EXPANDED",
            "EXPANDED 1",
            "EXPANDED 1 1",
            "EXPANDED 1 1 inf",
            "EXPANDED 1 1 0.5",                   // claims a table, carries none
            "EXPANDED 1 0 0.5\nT 3 0 0",          // carries a table, claims none
            "EXPANDED 1 1 0.5\nT 3 1 0",          // claims a hit, carries none
            "EXPANDED 1 1 0.5\nT 3 0 0\nH 2 0.5", // stray row past the claim
            "EXPANDED 1 1 0.5\nT 3 1 0\nC 2 0.5", // C row where H claimed
            "EXPANDED 1 1 0.5\nT 3 1 0\nH 2 inf",
            "EXPANDED 1 1 0.5\nT 3 1 0\nH 2 0.5 extra",
            "TOPICS 0 fresh 1 partial=",
            "TOPICS 0 fresh 1 partial=3",  // entry without reason
            "TOPICS 0 fresh 1 partial=3:", // empty reason
            "TOPICS 0 fresh 1 partial=x:timeout",
            "TOPICS 0 fresh 1 stray",
            "TOPICS 0 fresh 1 partial=3:timeout stray",
        ] {
            assert!(Response::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn expanded_probabilities_roundtrip_exactly() {
        let resp = Response::Expanded {
            gen: 1,
            bound: 1e-300,
            tables: vec![ProbeTable {
                node: 8,
                hits: vec![(2, 0.1 + 0.2)],
                cands: vec![(11, std::f64::consts::PI)],
            }],
        };
        let Response::Expanded { bound, tables, .. } = Response::parse(&resp.render()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(bound.to_bits(), 1e-300f64.to_bits());
        assert_eq!(tables[0].hits[0].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(
            tables[0].cands[0].1.to_bits(),
            std::f64::consts::PI.to_bits()
        );
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING").unwrap();
        write_frame(&mut buf, "QUERY 1 2 a b").unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "PING");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "QUERY 1 2 a b");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut r: &[u8] = &buf;
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_close() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // promised 8, delivered 3
        let mut r: &[u8] = &buf;
        assert!(read_frame(&mut r).is_err());
    }
}
