//! Live-reload integration tests against the real `pit` binary: a daemon
//! under concurrent query load is told to `RELOAD` onto a second engine
//! snapshot (with an injected slow swap), and must keep answering on the
//! old generation until the instant of the swap, flip exactly once, and
//! never serve a post-swap response from the pre-swap cache. Failed
//! reloads must leave the prior generation serving.

#![allow(clippy::disallowed_types)]

use pit::{store, PitEngine, SummarizerKind};
use pit_server::protocol::{read_frame, write_frame, Admin, Request, Response, Successor};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pit-reload-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Build a small engine from `seed` and persist it where `pit serve` /
/// `RELOAD` can load it. Different seeds give different graphs (and thus
/// different rankings) over the same stable vocabulary.
fn build_engine(dir: &Path, seed: u64) -> PitEngine {
    let spec = pit_datasets::DatasetSpec {
        name: format!("reload-it-{seed}"),
        nodes: 400,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(400, seed),
        seed,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = PitEngine::builder()
        .walk(pit_walk::WalkConfig::new(3, 8).with_seed(4))
        .propagation(pit_index::PropIndexConfig::with_theta(0.02))
        .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
            rep_count: Some(8),
            ..pit_summarize::LrwConfig::default()
        }))
        .build_with_vocab(ds.graph, ds.space, Some(ds.vocab));
    store::save_engine(dir, &engine).expect("save engine");
    engine
}

/// Spawn `pit serve` on an ephemeral port and return (child, bound address).
fn spawn_server(engine_dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pit"));
    cmd.args(["serve", "--engine"])
        .arg(engine_dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn pit serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server printed a banner")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn connect(addr: &str) -> TcpStream {
    let c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.render()).expect("send");
    let text = read_frame(stream).expect("recv").expect("reply");
    Response::parse(&text).expect("parse reply")
}

fn query(user: u32, k: usize, kw: &str) -> Request {
    Request::Query {
        user,
        k,
        keywords: vec![kw.to_string()],
    }
}

fn offline_ranking(engine: &PitEngine, user: u32, k: usize) -> Vec<(u32, f64)> {
    engine
        .search_keywords(pit_graph::NodeId(user), &["query-0"], k)
        .expect("offline search")
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect()
}

fn get_stat(pairs: &[(String, String)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("missing stat {name}"))
        .1
        .parse()
        .unwrap_or_else(|_| panic!("stat {name} not numeric"))
}

/// One observed query reply from a hammer thread.
struct Observation {
    sent: Instant,
    received: Instant,
    new_generation: bool,
}

const PROBE_USER: u32 = 7;
const K: usize = 5;
const RELOAD_DRAG: Duration = Duration::from_millis(1500);

#[test]
fn reload_under_concurrent_load_flips_exactly_at_the_swap() {
    let dir_a = scratch_dir("live-a");
    let dir_b = scratch_dir("live-b");
    let engine_a = build_engine(&dir_a, 17);
    let engine_b = build_engine(&dir_b, 23);
    let old_ranking = offline_ranking(&engine_a, PROBE_USER, K);
    let new_ranking = offline_ranking(&engine_b, PROBE_USER, K);
    assert_ne!(old_ranking, new_ranking, "fixture engines must disagree");

    // The swap is artificially stretched by RELOAD_DRAG so there is a wide
    // window in which queries *must* keep being answered from the old
    // generation while the reload is in flight.
    let (mut child, addr) = spawn_server(
        &dir_a,
        &[
            "--workers",
            "4",
            "--cache",
            "64",
            "--reload-drag-ms",
            "1500",
        ],
    );

    // Hammer threads: keep querying the probe user (plus a per-thread user
    // to vary the load) until told to stop, recording what each reply was
    // and when. Any ERR, block, or ranking that matches neither engine is
    // an immediate failure.
    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for t in 0..4u32 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let old_ranking = old_ranking.clone();
        let new_ranking = new_ranking.clone();
        hammers.push(std::thread::spawn(move || {
            let mut c = connect(&addr);
            let mut seen = Vec::<Observation>::new();
            let mut iteration = 0u32;
            while !stop.load(Ordering::Acquire) {
                let user = if iteration.is_multiple_of(2) {
                    PROBE_USER
                } else {
                    50 + t
                };
                iteration += 1;
                let sent = Instant::now();
                match ask(&mut c, &query(user, K, "query-0")) {
                    Response::Topics { ranked, .. } => {
                        if user == PROBE_USER {
                            let new_generation = ranked == new_ranking;
                            assert!(
                                new_generation || ranked == old_ranking,
                                "thread {t}: ranking matches neither generation"
                            );
                            seen.push(Observation {
                                sent,
                                received: Instant::now(),
                                new_generation,
                            });
                        }
                    }
                    other => panic!("thread {t}: query failed during reload: {other:?}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        }));
    }

    // Warm up, then issue the slow RELOAD on a dedicated connection. It must
    // block this client for at least the injected drag while the hammers
    // keep being served.
    let mut admin = connect(&addr);
    std::thread::sleep(Duration::from_millis(300));
    let issued = Instant::now();
    let reload = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir_b.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut admin, &reload), Response::Generation(2));
    let swapped = Instant::now();
    assert!(
        swapped - issued >= RELOAD_DRAG,
        "RELOAD returned before the injected drag elapsed"
    );

    // Keep hammering briefly past the swap, then stop and collect.
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Release);
    let mut all = Vec::new();
    for h in hammers {
        let seen = h.join().expect("hammer thread");
        // Per-connection requests are sequential, so each thread's admission
        // order is its send order: the generation it observes must flip at
        // most once, old → new, never back.
        let mut flipped = false;
        for obs in &seen {
            if obs.new_generation {
                flipped = true;
            } else {
                assert!(!flipped, "ranking flipped back to the old generation");
            }
        }
        all.extend(seen);
    }

    // Queries never stalled on the in-flight reload: replies landed inside
    // the drag window, and answered fast.
    let during = all
        .iter()
        .filter(|o| o.received > issued && o.received < swapped)
        .count();
    assert!(
        during >= 10,
        "only {during} probe replies during a {RELOAD_DRAG:?} reload window — queries blocked"
    );
    // Everything completed before the RELOAD was even issued is old…
    for obs in all.iter().filter(|o| o.received < issued) {
        assert!(
            !obs.new_generation,
            "new-generation ranking served before RELOAD was issued"
        );
    }
    // …and everything sent after the swap completed is new. A pre-swap
    // cache entry answering any of these would resurrect the old ranking —
    // exactly the staleness bug — and the probe query is cache-hot by
    // construction.
    let post_swap: Vec<_> = all.iter().filter(|o| o.sent > swapped).collect();
    assert!(!post_swap.is_empty(), "no observations after the swap");
    for obs in &post_swap {
        assert!(
            obs.new_generation,
            "old-generation ranking served after the swap (stale cache?)"
        );
    }

    let Response::Stats(pairs) = ask(&mut admin, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 2);
    assert_eq!(get_stat(&pairs, "reloads"), 1);
    assert_eq!(get_stat(&pairs, "reload_failures"), 0);
    assert!(
        get_stat(&pairs, "reload_p50_us") >= RELOAD_DRAG.as_micros() as u64,
        "reload latency histogram must include the dragged swap"
    );
    assert!(
        get_stat(&pairs, "cache_stale_evictions") >= 1,
        "the cache-hot probe entry must have been lazily evicted"
    );

    assert_eq!(ask(&mut admin, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn failed_reload_leaves_the_prior_generation_serving() {
    let dir_a = scratch_dir("fail-a");
    let dir_b = scratch_dir("fail-b");
    let engine_a = build_engine(&dir_a, 17);
    build_engine(&dir_b, 23);
    let old_ranking = offline_ranking(&engine_a, PROBE_USER, K);

    let (mut child, addr) = spawn_server(&dir_a, &["--workers", "2", "--cache", "16"]);
    let mut c = connect(&addr);

    // A missing snapshot directory.
    let missing = Request::Admin(Admin::Install {
        next: Successor::Snapshot("/no/such/snapshot-dir".into()),
        commit: true,
    });
    let Response::Err(reason) = ask(&mut c, &missing) else {
        panic!("reload of a missing snapshot must fail");
    };
    assert!(
        reason.to_string().starts_with("reload-failed"),
        "got: {reason}"
    );

    // A torn snapshot: directory exists, artifacts are garbage.
    let torn = scratch_dir("fail-torn");
    std::fs::write(torn.join("graph.pitg"), b"not a snapshot").unwrap();
    let corrupt = Request::Admin(Admin::Install {
        next: Successor::Snapshot(torn.clone()),
        commit: true,
    });
    let Response::Err(reason) = ask(&mut c, &corrupt) else {
        panic!("reload of a torn snapshot must fail");
    };
    assert!(
        reason.to_string().starts_with("reload-failed"),
        "got: {reason}"
    );

    // Still generation 1, still answering the old rankings.
    let Response::Topics { ranked, .. } = ask(&mut c, &query(PROBE_USER, K, "query-0")) else {
        panic!("daemon stopped serving after failed reloads");
    };
    assert_eq!(ranked, old_ranking);
    let Response::Stats(pairs) = ask(&mut c, &Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(get_stat(&pairs, "generation"), 1);
    assert_eq!(get_stat(&pairs, "reloads"), 0);
    assert_eq!(get_stat(&pairs, "reload_failures"), 2);

    // The daemon is not wedged: a good snapshot still swaps in.
    let good = Request::Admin(Admin::Install {
        next: Successor::Snapshot(dir_b.clone()),
        commit: true,
    });
    assert_eq!(ask(&mut c, &good), Response::Generation(2));

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&torn);
}

/// Run the `pit` binary with `args` and return (success, stdout, stderr).
fn run_pit(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pit"))
        .args(args)
        .output()
        .expect("run pit");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_reload_and_update_subcommands_drive_a_live_daemon() {
    let dir_a = scratch_dir("cli-a");
    let dir_b = scratch_dir("cli-b");
    build_engine(&dir_a, 17);
    let engine_b = build_engine(&dir_b, 23);

    let (mut child, addr) = spawn_server(&dir_a, &["--workers", "2"]);

    // `pit reload` swaps the daemon onto snapshot B.
    let (ok, stdout, stderr) = run_pit(&[
        "reload",
        "--addr",
        &addr,
        "--dir",
        &dir_b.display().to_string(),
    ]);
    assert!(ok, "pit reload failed: {stderr}");
    assert!(stdout.contains("generation 2"), "stdout: {stdout}");

    // `pit update` pushes an edge delta (an edge B does not already have).
    let u = pit_graph::NodeId(PROBE_USER);
    let v = (0..engine_b.graph().node_count() as u32)
        .map(pit_graph::NodeId)
        .find(|&v| v != u && !engine_b.graph().has_edge(u, v))
        .expect("fixture graph is not complete");
    let edge = format!("{}:{}:0.6", u.0, v.0);
    let (ok, stdout, stderr) = run_pit(&["update", "--addr", &addr, "--edges", &edge]);
    assert!(ok, "pit update failed: {stderr}");
    assert!(stdout.contains("generation 3"), "stdout: {stdout}");

    // Served rankings now match an offline apply of the same delta to B —
    // to B *as loaded from disk*: `load_engine` restores the summarizer
    // kind with default parameters (the sets already embody the originals),
    // and the daemon's delta apply re-summarizes under that config.
    let delta = pit::Delta {
        new_edges: vec![(u, v, 0.6)],
        new_assignments: vec![],
    };
    let loaded_b = store::load_engine(&dir_b).expect("load snapshot B");
    let (expected_engine, _) = loaded_b.with_delta(&delta).expect("offline apply");
    let expected = offline_ranking(&expected_engine, PROBE_USER, K);
    let mut c = connect(&addr);
    let Response::Topics { ranked, .. } = ask(&mut c, &query(PROBE_USER, K, "query-0")) else {
        panic!("expected topics");
    };
    assert_eq!(ranked, expected, "served delta diverged from offline apply");

    // A bad delta surfaces the reload-failed class through the CLI.
    let (ok, _, stderr) = run_pit(&["update", "--addr", &addr, "--assign", "1:999999"]);
    assert!(!ok, "update with an unknown topic must fail");
    assert!(stderr.contains("reload-failed"), "stderr: {stderr}");

    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("server exit").success());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
