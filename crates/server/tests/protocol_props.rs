//! Property tests for the wire protocol: the parsers must be total (no
//! panic on any byte soup a client can send), and render → reparse must be
//! the identity for every request and response shape — including the
//! observability verbs `TRACE` and `METRICS`, whose replies carry verbatim
//! multi-line bodies.

use pit::Delta;
use pit_graph::{NodeId, TopicId};
use pit_server::protocol::{
    read_frame, Admin, ErrKind, ProbeTable, Request, Response, Successor, MAX_EXPAND_PROBES, MAX_K,
    MAX_KEYWORDS, MAX_TRACE_DUMP,
};
use proptest::prelude::*;

fn install(next: Successor, commit: bool) -> Request {
    Request::Admin(Admin::Install { next, commit })
}

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

/// Tokens that steer the fuzz toward the parser's deep branches: real
/// verbs, line kinds, and separators, mixed with junk.
const TOKENS: &[&str] = &[
    "PING",
    "QUERY",
    "STATS",
    "METRICS",
    "TRACE",
    "RELOAD",
    "UPDATE",
    "SHUTDOWN",
    "EDGE",
    "ASSIGN",
    "TOPICS",
    "GEN",
    "ERR",
    "PONG",
    "BYE",
    "TRACES",
    "SHARD",
    "EXPAND",
    "EXPANDED",
    "PREPARE",
    "DIR",
    "COMMIT",
    "ABORT",
    "STAGED",
    "F",
    "T",
    "H",
    "C",
    "partial=",
    "partial=1:timeout",
    "0",
    "1",
    "42",
    "-7",
    "18446744073709551615",
    "0.5",
    "inf",
    "NaN",
    "kw",
    "∞",
    "\n",
    " ",
    "\t",
    "\r\n",
    "",
];

/// Fragments an `ERR` detail is assembled from: prose, the separators the
/// parser splits the class off with, and taxonomy words in detail position.
const DETAIL_TOKENS: &[&str] = &[
    "corrupt store",
    "shard 2 (127.0.0.1:7871)",
    "timeout",
    "reload-failed:",
    "—",
    ":",
    " ",
    "  ",
    "k 0",
];

/// First words that are *not* in the taxonomy (near misses included).
const BOGUS_CLASSES: &[&str] = &["", "weird", "time", "timeouts", "Timeout", "reload_failed"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Totality on raw bytes: whatever arrives in a frame, the parsers
    /// return `Err`, never panic.
    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=160),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&text);
        let _ = Response::parse(&text);
    }

    /// Totality on verb-shaped noise: sequences of real protocol tokens in
    /// wrong orders/arities exercise every arm past the verb dispatch.
    #[test]
    fn parsers_never_panic_on_verb_shaped_noise(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..=24),
        joiner in 0usize..3,
    ) {
        let sep = [" ", "\n", ""][joiner];
        let text: String = picks
            .iter()
            .map(|&i| TOKENS[i])
            .collect::<Vec<_>>()
            .join(sep);
        let _ = Request::parse(&text);
        let _ = Response::parse(&text);
    }

    /// Totality on the frame reader: truncated prefixes, lying length
    /// headers, and invalid UTF-8 all come back as `Err`/EOF, never panic.
    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        let mut r: &[u8] = &bytes;
        let _ = read_frame(&mut r);
    }

    /// render → parse is the identity for every query shape the caps admit.
    #[test]
    fn query_requests_roundtrip(
        user in any::<u32>(),
        k in 1usize..=MAX_K,
        kw_seeds in proptest::collection::vec(0u32..10_000, 1..=MAX_KEYWORDS),
    ) {
        let req = Request::Query {
            user,
            k,
            keywords: kw_seeds.iter().map(|s| format!("kw{s}")).collect(),
        };
        prop_assert_eq!(Request::parse(&req.render()), Ok(req));
    }

    /// render → parse identity for the observability and admin verbs.
    #[test]
    fn admin_and_observability_requests_roundtrip(
        n in 1usize..=MAX_TRACE_DUMP,
        dir_seed in 0u32..10_000,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 0.0001f64..1.0), 0..=4),
        assignments in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..=4),
    ) {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Trace { n },
            install(Successor::Snapshot(format!("/srv/engine-{dir_seed}").into()), true),
            install(Successor::Delta(delta(&edges, &assignments)), true),
        ] {
            prop_assert_eq!(Request::parse(&req.render()), Ok(req));
        }
    }

    /// render → parse identity for the router-facing request verbs.
    #[test]
    fn router_requests_roundtrip(
        gen in any::<u64>(),
        dir_seed in 0u32..10_000,
        terms in proptest::collection::vec(any::<u32>(), 1..=MAX_KEYWORDS),
        probes in proptest::collection::vec((any::<u32>(), 0.0f64..1.0), 1..=16),
        edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 0.0001f64..1.0), 0..=4),
        assignments in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..=4),
    ) {
        prop_assert!(probes.len() <= MAX_EXPAND_PROBES);
        for req in [
            Request::Shard,
            Request::Admin(Admin::Commit),
            Request::Admin(Admin::Abort),
            install(Successor::Snapshot(format!("/srv/shard-{dir_seed}").into()), false),
            install(Successor::Delta(delta(&edges, &assignments)), false),
            Request::Expand { gen, terms: terms.clone(), probes: probes.clone() },
        ] {
            prop_assert_eq!(Request::parse(&req.render()), Ok(req));
        }
    }

    /// render → parse identity for the verbatim-body replies (`METRICS`,
    /// `TRACES`): any newline-joined body of plain lines must survive.
    #[test]
    fn body_carrying_responses_roundtrip(
        line_seeds in proptest::collection::vec((0u32..1000, 0u64..u64::MAX), 0..=12),
    ) {
        let body = line_seeds
            .iter()
            .map(|(name, value)| format!("pit_fuzzed_{name}_total {value}"))
            .collect::<Vec<_>>()
            .join("\n");
        for resp in [Response::Metrics(body.clone()), Response::Traces(body.clone())] {
            prop_assert_eq!(Response::parse(&resp.render()), Ok(resp));
        }
    }

    /// render → parse identity for the remaining response shapes.
    #[test]
    fn plain_responses_roundtrip(
        generation in any::<u64>(),
        micros in any::<u64>(),
        cached in any::<bool>(),
        ranked in proptest::collection::vec((any::<u32>(), 0.0f64..1.0), 0..=8),
        stats in proptest::collection::vec((0u32..1000, any::<u64>()), 0..=8),
        partial_seeds in proptest::collection::vec((any::<u32>(), 0usize..3), 0..=3),
        err_kind in 0usize..ErrKind::ALL.len(),
        detail_seeds in proptest::collection::vec(0usize..DETAIL_TOKENS.len(), 0..=5),
        bogus in 0usize..BOGUS_CLASSES.len(),
    ) {
        let detail: String = detail_seeds.iter().map(|&i| DETAIL_TOKENS[i]).collect();
        let reasons = ["timeout", "overloaded", "internal"];
        let partial: Vec<(u32, String)> = partial_seeds
            .iter()
            .map(|&(shard, r)| (shard, reasons[r].to_string()))
            .collect();
        for resp in [
            Response::Pong,
            Response::Bye,
            Response::Generation(generation),
            Response::Err(ErrKind::ALL[err_kind].because(detail.clone())),
            Response::Staged,
            Response::Topics {
                ranked: ranked.clone(),
                cached,
                micros,
                partial: partial.clone(),
            },
            Response::Stats(
                stats
                    .iter()
                    .map(|(k, v)| (format!("stat_{k}"), v.to_string()))
                    .collect(),
            ),
        ] {
            prop_assert_eq!(Response::parse(&resp.render()), Ok(resp));
        }
        // The class set is closed: any other first word is a parse error.
        let unknown = format!("ERR {}: {detail}", BOGUS_CLASSES[bogus]);
        prop_assert!(Response::parse(&unknown).is_err(), "{unknown:?} parsed");
    }

    /// Router-facing responses survive render → parse for arbitrary
    /// generations, shard layouts, and probe-table contents — including the
    /// bit-exact `f64` transport the sharded/single-node identity rests on.
    #[test]
    fn router_responses_roundtrip(
        gen in any::<u64>(),
        index in 0u32..16,
        extra in 0u32..16,
        bound in 0.0f64..1.0,
        tables in proptest::collection::vec(
            (
                any::<u32>(),
                proptest::collection::vec((any::<u32>(), 0.0f64..1.0), 0..=4),
                proptest::collection::vec((any::<u32>(), 0.0f64..1.0), 0..=4),
            ),
            0..=4,
        ),
    ) {
        let count = index + extra + 1; // index < count always holds
        let shard = Response::ShardInfo { index, count, gen };
        prop_assert_eq!(Response::parse(&shard.render()), Ok(shard));
        let expanded = Response::Expanded {
            gen,
            bound,
            tables: tables
                .iter()
                .map(|(node, hits, cands)| ProbeTable {
                    node: *node,
                    hits: hits.clone(),
                    cands: cands.clone(),
                })
                .collect(),
        };
        prop_assert_eq!(Response::parse(&expanded.render()), Ok(expanded));
    }
}
