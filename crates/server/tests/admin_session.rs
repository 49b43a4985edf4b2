//! One scripted admin session, pinned reply for reply.
//!
//! The same script — every admin verb, its failure shapes, and a cached
//! `QUERY` on either side of each swap — runs over TCP against a
//! single-node engine and against a two-shard [`ShardedEngine`] behind the
//! same [`ServerState`]. Every reply frame, and what each step did to the
//! reload counters and the cache's staleness accounting, is compared against
//! `golden_admin_session.txt`. Frames are sent as raw wire text, so nothing
//! here depends on how the server spells a request internally.

use pit::shard::split_snapshot;
use pit::{PitEngine, SummarizerKind};
use pit_graph::NodeId;
use pit_router::ShardedEngine;
use pit_server::protocol::{read_frame, write_frame};
use pit_server::{serve, ServeEngine, ServerConfig, ServerState};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden_admin_session.txt");

/// `STATS` keys whose per-step movement is part of the pinned transcript.
const WATCHED_STATS: &[&str] = &[
    "generation",
    "reloads",
    "reload_failures",
    "cache_stale_evictions",
    "cache_stale_edge_added",
    "cache_stale_edge_removed",
    "cache_stale_assignment_changed",
    "cache_stale_full_reload",
    "cache_survivors",
];

/// The one `METRICS` sample watched beside them: how many builds the reload
/// histogram has observed.
const RELOAD_SAMPLES: &str = "pit_reload_us_count";

/// Two disconnected five-node islands, two topics each, one term per
/// island: an edge delta inside island B provably cannot touch an island-A
/// query, so a scoped `UPDATE` must leave that cache entry hitting.
/// `shortcut` adds one island-A edge, so two fixtures rank differently.
fn island_engine(shortcut: Option<(u32, u32)>) -> PitEngine {
    let mut g = pit_graph::GraphBuilder::new(10);
    let ring_a = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
    let ring_b = [(5, 6), (6, 7), (7, 8), (8, 9), (9, 5), (5, 7)];
    for &(a, b) in ring_a.iter().chain(&ring_b).chain(shortcut.iter()) {
        g.add_edge(NodeId(a), NodeId(b), 0.5).expect("fixture edge");
    }
    let mut vocab = pit_topics::Vocabulary::new();
    let terms = [vocab.intern("island-a"), vocab.intern("island-b")];
    let mut b = pit_topics::TopicSpaceBuilder::new(10, 2);
    for (members, term) in [
        (vec![0, 1, 2, 3, 4], terms[0]),
        (vec![1, 3], terms[0]),
        (vec![5, 6, 7, 8, 9], terms[1]),
        (vec![6, 8], terms[1]),
    ] {
        let t = b.add_topic(vec![term]);
        for m in members {
            b.assign(NodeId(m), t);
        }
    }
    PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(4, 8).with_seed(3))
        .propagation(pit_index::PropIndexConfig::with_theta(0.01))
        // Low damping and μ = 1 keep every topic node a representative, so
        // no ranking on these ten nodes degenerates to all-zero scores.
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            lambda: 0.2,
            mu: 1.0,
            ..Default::default()
        }))
        .build_with_vocab(g.build().expect("fixture graph"), b.build(), Some(vocab))
}

/// The script. `{good}` is a loadable successor snapshot, `{missing}` a
/// path that does not exist, `{mismatch}` a snapshot of the wrong shape for
/// the target (a shard slice for the single node, a three-way split for the
/// two-shard fleet). User 0 asks island A, user 9 island B; the in-island-B
/// edge 6→9 exists in neither fixture.
const SCRIPT: &[&str] = &[
    "QUERY 0 3 island-a",
    "QUERY 0 3 island-a",
    // RELOAD: flushes, so the cached A recomputes.
    "RELOAD {good}",
    "QUERY 0 3 island-a",
    "QUERY 0 3 island-a",
    "RELOAD {missing}",
    "RELOAD {mismatch}",
    // Failed reloads swap nothing and flush nothing.
    "QUERY 0 3 island-a",
    "QUERY 9 3 island-b",
    // UPDATE: retags, so A survives the bump and B does not.
    "UPDATE\nEDGE 6 9 0.3",
    "QUERY 0 3 island-a",
    "QUERY 9 3 island-b",
    "UPDATE",
    "UPDATE\nEDGE 1 1 0.5",
    // Two-phase from a directory.
    "PREPARE DIR {good}",
    "QUERY 0 3 island-a",
    "COMMIT",
    "QUERY 0 3 island-a",
    "QUERY 9 3 island-b",
    "COMMIT",
    "ABORT",
    "ABORT",
    // Two-phase from a delta; an empty delta stages too, and a PREPARE over
    // a PREPARE replaces it — on the single node the edge below never
    // serves. The fleet differs, and the transcript pins that as today's
    // behaviour rather than endorsing it: a PREPARE sent to the *router*
    // commits its backends at once and parks only the router's own next
    // generation, so the replaced edge is live on the shards while the
    // committed metadata lacks it (the B ranking after this COMMIT).
    "PREPARE UPDATE\nEDGE 6 9 0.3",
    "PREPARE UPDATE",
    "PREPARE DIR {missing}",
    "COMMIT",
    "QUERY 0 3 island-a",
    "QUERY 9 3 island-b",
    "PREPARE UPDATE\nEDGE 6 9 0.3\nASSIGN 2 1",
    "COMMIT",
    "QUERY 9 3 island-b",
];

struct Session {
    stream: TcpStream,
    root: String,
    watched: Vec<u64>,
    transcript: String,
}

impl Session {
    fn exchange(&mut self, frame: &str) -> String {
        write_frame(&mut self.stream, frame).expect("send");
        read_frame(&mut self.stream).expect("recv").expect("reply")
    }

    /// The watched counters right now, in `WATCHED_STATS` order with the
    /// reload-histogram sample count last.
    fn watch(&mut self) -> Vec<u64> {
        let stats = self.exchange("STATS");
        let metrics = self.exchange("METRICS");
        let value = |body: &str, key: &str| -> u64 {
            body.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("no {key} line"))
                .parse()
                .unwrap_or_else(|_| panic!("{key} is not a count"))
        };
        WATCHED_STATS
            .iter()
            .map(|key| value(&stats, key))
            .chain([value(&metrics, RELOAD_SAMPLES)])
            .collect()
    }

    /// Send one script frame; record the frame, its reply, and whichever
    /// watched counters the step moved.
    fn step(&mut self, frame: &str) {
        let reply = self.exchange(frame);
        let mut reply = reply.replace(&self.root, "$ROOT");
        // The service time is the one nondeterministic word of a reply.
        if let Some(head) = reply.lines().next().filter(|h| h.starts_with("TOPICS ")) {
            let mut words: Vec<&str> = head.split(' ').collect();
            words[3] = "_";
            reply = reply.replacen(head, &words.join(" "), 1);
        }
        for (mark, text) in [("> ", frame.replace(&self.root, "$ROOT")), ("< ", reply)] {
            for line in text.lines() {
                self.transcript.push_str(&format!("{mark}{line}\n"));
            }
        }
        let now = self.watch();
        let moved: Vec<String> = WATCHED_STATS
            .iter()
            .chain([&RELOAD_SAMPLES])
            .zip(self.watched.iter().zip(&now))
            .filter(|(_, (before, after))| before != after)
            .map(|(key, (before, after))| format!("{key} +{}", after - before))
            .collect();
        if !moved.is_empty() {
            self.transcript
                .push_str(&format!("  {}\n", moved.join(", ")));
        }
        self.watched = now;
    }
}

/// Run the script against `engine` and return the transcript.
fn run(engine: Arc<dyn ServeEngine>, root: &Path, good: &str, mismatch: &str) -> String {
    let state = Arc::new(ServerState::with_engine(
        engine,
        ServerConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        },
    ));
    let handle = serve(state, "127.0.0.1:0").expect("bind");
    let mut session = Session {
        stream: TcpStream::connect(handle.addr()).expect("connect"),
        root: root.display().to_string(),
        watched: Vec::new(),
        transcript: String::new(),
    };
    session.watched = session.watch();
    for frame in SCRIPT {
        let frame = frame
            .replace("{good}", &root.join(good).display().to_string())
            .replace("{missing}", &root.join("missing").display().to_string())
            .replace("{mismatch}", &root.join(mismatch).display().to_string());
        session.step(&frame);
    }
    assert_eq!(session.exchange("SHUTDOWN"), "BYE");
    handle.join();
    session.transcript
}

#[test]
fn scripted_admin_session_matches_the_golden_transcript() {
    let root = std::env::temp_dir().join(format!("pit-admin-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let base = Arc::new(island_engine(None));
    let next = island_engine(Some((1, 3)));
    pit::store::save_engine(&root.join("next"), &next).expect("save successor");
    for shards in [2, 3] {
        let out = root.join(format!("split{shards}"));
        split_snapshot(&root.join("next"), &out, shards).expect("split successor");
    }

    let single = Arc::new(pit_server::LocalServeEngine::full(Arc::clone(&base)));
    let sharded = Arc::new(ShardedEngine::split(&base, 2));
    let transcript = format!(
        "== single node ==\n{}== two in-process shards ==\n{}",
        run(single, &root, "next", "split2/shard-0"),
        run(sharded, &root, "split2", "split3"),
    );
    let _ = std::fs::remove_dir_all(&root);

    for (n, (got, want)) in transcript.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "transcript line {} diverged from golden_admin_session.txt; full transcript:\n{transcript}",
            n + 1
        );
    }
    assert_eq!(
        transcript.lines().count(),
        GOLDEN.lines().count(),
        "transcript gained or lost lines against golden_admin_session.txt:\n{transcript}"
    );
}
