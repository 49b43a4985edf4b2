//! End-to-end router drill against the real `pit` binary: split a snapshot
//! with `pit shard-split`, spawn one `pit serve` backend per shard, front
//! them with `pit route`, and verify — over the wire — that the fleet
//! answers bit-identically to the offline path, that a killed backend
//! degrades to an honest `partial` reply instead of a hang, and that a
//! dragged backend is cut off by the router's budget and reported
//! `partial=<shard>:timeout` within the deadline.

use pit::{store, PitEngine, SummarizerKind};
use pit_graph::NodeId;
use pit_router::{LocalTransport, ShardError, ShardTransport, ShardedEngine};
use pit_search_core::{CancelToken, NoTracer, SearchScratch};
use pit_server::protocol::{read_frame, write_frame, Admin, ErrKind, Request, Response};
use pit_server::{LocalServeEngine, ServeEngine};
use pit_topics::KeywordQuery;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
const KEYWORD: &str = "query-0";
const K: usize = 5;

/// Everything both drills share: the split snapshot on disk, the offline
/// engine, and a query proven (in-process) to probe both shards — with the
/// non-home shard failing to an honest partial, not a seed-round error.
struct Fixture {
    shards_dir: PathBuf,
    engine: Arc<PitEngine>,
    user: u32,
    dead: u32,
    /// A node owned by the dead shard that the query's expansion probes —
    /// the target for `--drag-user` fault injection on that backend.
    dead_probe: u32,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

fn build_fixture() -> Fixture {
    let root = std::env::temp_dir().join(format!("pit-router-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("full");
    std::fs::create_dir_all(&src).expect("create scratch dir");

    let spec = pit_datasets::DatasetSpec {
        name: "router-drill".to_string(),
        nodes: 400,
        kind: pit_datasets::DatasetKind::PowerLaw { edges_per_node: 4 },
        topics: pit_datasets::spec::scaled_topic_config(400, 17),
        seed: 17,
    };
    let ds = pit_datasets::generate(&spec);
    let engine = Arc::new(
        PitEngine::builder()
            .walk(pit_walk::WalkConfig::new(3, 8).with_seed(4))
            .propagation(pit_index::PropIndexConfig::with_theta(0.02))
            .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
                rep_count: Some(8),
                ..pit_summarize::LrwConfig::default()
            }))
            .build_with_vocab(ds.graph, ds.space, Some(ds.vocab)),
    );
    store::save_engine(&src, &engine).expect("save engine");

    // Slice with the real binary — the drill exercises `pit shard-split`
    // exactly as an operator would run it.
    let shards_dir = root.join("shards");
    let out = Command::new(env!("CARGO_BIN_EXE_pit"))
        .args(["shard-split", "--dir"])
        .arg(&src)
        .arg("--out")
        .arg(&shards_dir)
        .args(["--shards", &SHARDS.to_string()])
        .output()
        .expect("run pit shard-split");
    assert!(
        out.status.success(),
        "shard-split failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("wrote and verified 2 shards"),
        "unexpected shard-split output: {stdout}"
    );

    let (user, dead, dead_probe) = find_cross_shard_query(&engine);
    Fixture {
        shards_dir,
        engine,
        user,
        dead,
        dead_probe,
    }
}

/// Records every probe node a shard is asked to expand, delegating to a
/// real in-process transport.
struct Recording {
    inner: LocalTransport,
    probes: Mutex<Vec<u32>>,
}

impl ShardTransport for Recording {
    fn location(&self) -> String {
        self.inner.location()
    }
    fn shard_info(&self) -> Result<(u32, u32, u64), ShardError> {
        self.inner.shard_info()
    }
    fn expand(
        &self,
        gen: u64,
        terms: &[u32],
        probes: &[(u32, f64)],
        deadline: Option<Instant>,
    ) -> Result<(Vec<pit_server::protocol::ProbeTable>, f64), ShardError> {
        self.probes
            .lock()
            .expect("probe log")
            .extend(probes.iter().map(|&(u, _)| u));
        self.inner.expand(gen, terms, probes, deadline)
    }
    fn admin(&self, admin: &Admin) -> Result<Option<u64>, ShardError> {
        self.inner.admin(admin)
    }
}

/// A healthy shard that fails every expansion — the in-process stand-in for
/// the backend we will kill or drag on the wire.
struct Failing {
    inner: LocalTransport,
}

impl ShardTransport for Failing {
    fn location(&self) -> String {
        self.inner.location()
    }
    fn shard_info(&self) -> Result<(u32, u32, u64), ShardError> {
        self.inner.shard_info()
    }
    fn expand(
        &self,
        _gen: u64,
        _terms: &[u32],
        _probes: &[(u32, f64)],
        _deadline: Option<Instant>,
    ) -> Result<(Vec<pit_server::protocol::ProbeTable>, f64), ShardError> {
        Err(ShardError::Timeout)
    }
    fn admin(&self, admin: &Admin) -> Result<Option<u64>, ShardError> {
        self.inner.admin(admin)
    }
}

fn local_shard(engine: &Arc<PitEngine>, index: u32) -> LocalTransport {
    let spec = pit::ShardSpec::new(index, SHARDS);
    let slice = pit::shard::slice_engine(engine, spec);
    LocalTransport::new(Arc::new(LocalServeEngine::sharded(Arc::new(slice), spec)))
}

fn drill_query(engine: &Arc<PitEngine>, user: u32) -> KeywordQuery {
    let single = LocalServeEngine::full(Arc::clone(engine));
    let terms = single
        .resolve_terms(&[KEYWORD.to_string()])
        .expect("fixture keyword resolves");
    KeywordQuery::new(NodeId(user), terms)
}

/// Scan for a query whose expansion probes both shards AND degrades to an
/// honest partial (not a seed-round failure) when the non-home shard dies.
/// Returns `(user, dead_shard, dead_probe)`.
fn find_cross_shard_query(engine: &Arc<PitEngine>) -> (u32, u32, u32) {
    let recorders: Vec<Arc<Recording>> = (0..SHARDS)
        .map(|i| {
            Arc::new(Recording {
                inner: local_shard(engine, i),
                probes: Mutex::new(Vec::new()),
            })
        })
        .collect();
    let transports: Vec<Arc<dyn ShardTransport>> = recorders
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ShardTransport>)
        .collect();
    let router =
        ShardedEngine::assemble(Arc::clone(engine), transports).expect("assemble recorder fleet");

    for user in 0..400u32 {
        for r in &recorders {
            r.probes.lock().expect("probe log").clear();
        }
        let q = drill_query(engine, user);
        let out = router
            .try_search(
                &q,
                K,
                &CancelToken::none(),
                &mut NoTracer,
                &mut SearchScratch::new(),
            )
            .expect("healthy scan query");
        if out.fanout_micros.len() != SHARDS as usize {
            continue;
        }
        let dead = 1 - user % SHARDS;
        let dead_probe = {
            let log = recorders[dead as usize].probes.lock().expect("probe log");
            match log.first() {
                Some(&u) => u,
                None => continue,
            }
        };

        // Prove the premise in-process before trusting it on the wire: with
        // the non-home shard failing, this query must yield a partial, not
        // a seed-round error.
        let home = user % SHARDS;
        let mixed: Vec<Arc<dyn ShardTransport>> = (0..SHARDS)
            .map(|i| {
                if i == dead {
                    Arc::new(Failing {
                        inner: local_shard(engine, i),
                    }) as Arc<dyn ShardTransport>
                } else {
                    Arc::new(local_shard(engine, i)) as Arc<dyn ShardTransport>
                }
            })
            .collect();
        let degraded = ShardedEngine::assemble(Arc::clone(engine), mixed)
            .expect("assemble degraded fleet")
            .try_search(
                &q,
                K,
                &CancelToken::none(),
                &mut NoTracer,
                &mut SearchScratch::new(),
            );
        match degraded {
            Ok(out) if out.partial == vec![(dead, "timeout".to_string())] => {
                assert_ne!(home, dead);
                return (user, dead, dead_probe);
            }
            _ => continue,
        }
    }
    panic!("fixture produced no query that degrades to a partial; regenerate it");
}

/// Spawn a `pit` daemon subcommand on an ephemeral port; return the child
/// and the bound address parsed from the banner line.
fn spawn_daemon(args: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pit"));
    cmd.args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn pit daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon printed a banner")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn spawn_backend(fx: &Fixture, index: u32, extra: &[&str]) -> (Child, String) {
    let dir = fx.shards_dir.join(format!("shard-{index}"));
    let dir = dir.to_str().expect("utf-8 scratch path").to_string();
    let mut args = vec!["serve", "--engine", dir.as_str()];
    args.extend_from_slice(extra);
    spawn_daemon(&args)
}

fn spawn_router(fx: &Fixture, backends: &[String], extra: &[&str]) -> (Child, String) {
    let meta = fx.shards_dir.join("shard-0");
    let meta = meta.to_str().expect("utf-8 scratch path").to_string();
    let list = backends.join(",");
    let mut args = vec![
        "route",
        "--engine",
        meta.as_str(),
        "--shards",
        list.as_str(),
        "--cache",
        "0",
    ];
    args.extend_from_slice(extra);
    spawn_daemon(&args)
}

fn connect(addr: &str) -> TcpStream {
    let c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

fn ask(stream: &mut TcpStream, req: &Request) -> Response {
    write_frame(stream, &req.render()).expect("send");
    let text = read_frame(stream).expect("recv").expect("reply");
    Response::parse(&text).expect("parse reply")
}

fn wire_query(user: u32) -> Request {
    Request::Query {
        user,
        k: K,
        keywords: vec![KEYWORD.to_string()],
    }
}

fn shutdown(child: &mut Child, addr: &str) {
    let mut c = connect(addr);
    assert_eq!(ask(&mut c, &Request::Shutdown), Response::Bye);
    assert!(child.wait().expect("daemon exit").success());
}

#[test]
fn killed_backend_degrades_to_an_honest_partial_on_the_wire() {
    let fx = fixture();
    let mut backends: Vec<(Child, String)> = (0..SHARDS)
        .map(|i| spawn_backend(fx, i, &["--workers", "2"]))
        .collect();
    let addrs: Vec<String> = backends.iter().map(|(_, a)| a.clone()).collect();

    // A shard slice must refuse a direct QUERY — it cannot answer honestly
    // once expansion crosses shard boundaries.
    {
        let mut b = connect(&addrs[0]);
        let Response::Err(reason) = ask(&mut b, &wire_query(fx.user)) else {
            panic!("shard backend answered a direct QUERY");
        };
        assert!(reason.to_string().contains("shard"), "got: {reason}");
    }

    let (mut router, router_addr) = spawn_router(
        fx,
        &addrs,
        &["--io-timeout-ms", "2000", "--budget-ms", "5000"],
    );

    // Healthy fleet: the wire answer matches the offline path bit for bit.
    let offline: Vec<(u32, f64)> = fx
        .engine
        .search_keywords(NodeId(fx.user), &[KEYWORD], K)
        .expect("offline search")
        .top_k
        .iter()
        .map(|s| (s.topic.0, s.score))
        .collect();
    let mut c = connect(&router_addr);
    let Response::Topics {
        ranked, partial, ..
    } = ask(&mut c, &wire_query(fx.user))
    else {
        panic!("expected topics from the router");
    };
    assert!(partial.is_empty(), "healthy fleet answered {partial:?}");
    assert_eq!(ranked, offline, "routed ranking diverged from offline");

    // The real client can reach the fleet through the front door.
    let out = Command::new(env!("CARGO_BIN_EXE_pit"))
        .args(["client", "--via-router", &router_addr, "--user"])
        .arg(fx.user.to_string())
        .args(["--keywords", KEYWORD, "--k", &K.to_string()])
        .output()
        .expect("run pit client");
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("2 shards"),
        "client did not confirm the fleet: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Kill the non-home backend and re-ask: an honest partial within the
    // deadline, never a hang and never a silently-wrong full answer.
    let (ref mut victim, _) = backends[fx.dead as usize];
    victim.kill().expect("kill backend");
    let _ = victim.wait();

    let started = Instant::now();
    let Response::Topics {
        ranked, partial, ..
    } = ask(&mut c, &wire_query(fx.user))
    else {
        panic!("expected a degraded topics reply");
    };
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(10),
        "degraded reply took {waited:?}"
    );
    assert!(!ranked.is_empty(), "degraded reply lost the ranking");
    assert_eq!(partial.len(), 1, "got {partial:?}");
    assert_eq!(partial[0].0, fx.dead, "wrong shard blamed: {partial:?}");
    assert!(
        ["timeout", "overloaded", "internal"].contains(&partial[0].1.as_str()),
        "reason outside the taxonomy: {partial:?}"
    );

    shutdown(&mut router, &router_addr);
    let home = (1 - fx.dead) as usize;
    shutdown(&mut backends[home].0, &addrs[home]);
}

#[test]
fn in_process_fleet_refuses_an_unknown_topic_and_keeps_taking_updates() {
    // `pit route --in-process 2` on the unsplit snapshot. A delta naming a
    // topic the space does not have must be refused with a typed error that
    // leaves the updater thread alive: a panic there would make every later
    // admin verb answer `shutting-down` until the router is restarted.
    let fx = fixture();
    let full = fx.shards_dir.with_file_name("full");
    let full = full.to_str().expect("utf-8 scratch path");
    let (mut router, addr) = spawn_daemon(&[
        "route",
        "--engine",
        full,
        "--in-process",
        "2",
        "--cache",
        "0",
    ]);
    let mut c = connect(&addr);

    write_frame(&mut c, "UPDATE\nASSIGN 0 9999").expect("send");
    let text = read_frame(&mut c).expect("recv").expect("reply");
    let Ok(Response::Err(reason)) = Response::parse(&text) else {
        panic!("an unknown topic must be refused, got {text:?}");
    };
    assert_eq!(reason.kind, ErrKind::ReloadFailed, "got: {reason}");
    assert!(
        reason.detail.contains("unknown topic 9999"),
        "got: {reason}"
    );

    // The updater thread survived: a valid delta still moves the fleet on,
    // and the moved fleet still answers.
    write_frame(&mut c, "UPDATE\nASSIGN 0 0").expect("send");
    let text = read_frame(&mut c).expect("recv").expect("reply");
    assert_eq!(text, "GEN 2", "a valid UPDATE after the refusal");
    assert!(matches!(
        ask(&mut c, &wire_query(fx.user)),
        Response::Topics { .. }
    ));

    shutdown(&mut router, &addr);
}

#[test]
fn dragged_backend_is_cut_off_by_the_budget_and_reported_partial() {
    let fx = fixture();
    let drag_user = fx.dead_probe.to_string();
    // The dead shard's backend sleeps 5s on any expansion touching the
    // probe we know this query sends it; the router's 1s per-call I/O cap
    // must cut it off and report `partial=<dead>:timeout` — the 10s query
    // budget never fires, so the rest of the fleet still answers in full.
    let mut backends: Vec<(Child, String)> = (0..SHARDS)
        .map(|i| {
            let extra: &[&str] = if i == fx.dead {
                &["--drag-user", drag_user.as_str(), "--drag-us", "5000000"]
            } else {
                &[]
            };
            spawn_backend(fx, i, extra)
        })
        .collect();
    let addrs: Vec<String> = backends.iter().map(|(_, a)| a.clone()).collect();
    let (mut router, router_addr) = spawn_router(
        fx,
        &addrs,
        &["--io-timeout-ms", "1000", "--budget-ms", "10000"],
    );

    let mut c = connect(&router_addr);
    let started = Instant::now();
    let Response::Topics {
        ranked, partial, ..
    } = ask(&mut c, &wire_query(fx.user))
    else {
        panic!("expected a degraded topics reply");
    };
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(4),
        "I/O cap did not bound the dragged shard: took {waited:?}"
    );
    assert!(!ranked.is_empty(), "degraded reply lost the ranking");
    assert_eq!(
        partial,
        vec![(fx.dead, "timeout".to_string())],
        "dragged shard must be reported as a timeout"
    );

    shutdown(&mut router, &router_addr);
    for (i, (child, addr)) in backends.iter_mut().enumerate() {
        if i == fx.dead as usize {
            // Its expand thread may still be mid-sleep; don't wait on drain.
            child.kill().expect("kill dragged backend");
            let _ = child.wait();
        } else {
            shutdown(child, addr);
        }
    }
}
