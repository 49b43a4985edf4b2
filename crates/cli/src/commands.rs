//! Subcommand implementations for the `pit` binary.

use crate::args::Parsed;
use pit::store;
use pit::{Delta, PitEngine, SummarizerKind};
use pit_datasets::paper_specs;
use pit_graph::stats::GraphStats;
use pit_graph::{NodeId, TopicId};
use pit_index::PropIndexConfig;
use pit_server::protocol::{Admin, Request, Successor};
use pit_summarize::{LrwConfig, RclConfig};
use pit_walk::WalkConfig;
use std::fs;
use std::path::Path;

/// `pit generate` — synthesize a Figure-4 corpus and write its snapshots.
pub fn generate(p: &Parsed) -> Result<(), String> {
    let name = p.require("dataset")?;
    let out = Path::new(p.require("out")?);
    let scale: usize = p.num("scale", 30)?;
    let specs = paper_specs(scale);
    let spec = specs.iter().find(|s| s.name == name).ok_or_else(|| {
        format!(
            "unknown dataset {name}; available: {}",
            specs
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    eprintln!("generating {} ({} nodes)…", spec.name, spec.nodes);
    let ds = pit_datasets::generate(spec);
    fs::create_dir_all(out).map_err(|e| e.to_string())?;
    fs::write(
        out.join("graph.pitg"),
        pit_graph::snapshot::encode(&ds.graph),
    )
    .map_err(|e| e.to_string())?;
    fs::write(
        out.join("topics.pitt"),
        pit_topics::snapshot::encode_space(&ds.space),
    )
    .map_err(|e| e.to_string())?;
    fs::write(
        out.join("vocab.pitv"),
        pit_topics::snapshot::encode_vocab(&ds.vocab),
    )
    .map_err(|e| e.to_string())?;
    let stats = GraphStats::compute(&ds.graph);
    println!(
        "wrote {}: |V|={}, |E|={}, topics={}, terms={}",
        out.display(),
        stats.node_count,
        stats.edge_count,
        ds.space.topic_count(),
        ds.vocab.len()
    );
    Ok(())
}

/// `pit build` — run the offline stage over a saved corpus.
pub fn build(p: &Parsed) -> Result<(), String> {
    let corpus = Path::new(p.require("corpus")?);
    let out = Path::new(p.require("out")?);
    let theta: f64 = p.num("theta", 0.01)?;
    let walk_l: usize = p.num("walk-l", 5)?;
    let walk_r: usize = p.num("walk-r", 32)?;
    let reps: usize = p.num("reps", 64)?;
    let summarizer = match p.get("summarizer").unwrap_or("lrw") {
        "lrw" => SummarizerKind::Lrw(LrwConfig {
            rep_count: Some(reps),
            ..LrwConfig::default()
        }),
        "rcl" => SummarizerKind::Rcl(RclConfig {
            c_size: reps,
            ..RclConfig::default()
        }),
        other => return Err(format!("unknown summarizer {other} (lrw|rcl)")),
    };

    let graph = pit_graph::snapshot::decode(
        &fs::read(corpus.join("graph.pitg")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let space = pit_topics::snapshot::decode_space(
        &fs::read(corpus.join("topics.pitt")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let vocab_path = corpus.join("vocab.pitv");
    let vocab = if vocab_path.exists() {
        Some(
            pit_topics::snapshot::decode_vocab(&fs::read(vocab_path).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };

    eprintln!(
        "building offline stage ({}, θ={theta}, L={walk_l}, R={walk_r}, {reps} reps/topic)…",
        summarizer.name()
    );
    let t0 = std::time::Instant::now();
    let engine = PitEngine::builder()
        .walk(WalkConfig::new(walk_l, walk_r))
        .propagation(PropIndexConfig::with_theta(theta))
        .summarizer(summarizer)
        .build_with_vocab(graph, space, vocab);
    eprintln!("offline stage took {:.1}s", t0.elapsed().as_secs_f64());
    store::save_engine(out, &engine).map_err(|e| e.to_string())?;
    println!(
        "wrote engine to {} ({} of resident indexes)",
        out.display(),
        pit_eval::table::human_bytes(engine.index_bytes())
    );
    Ok(())
}

/// `pit query` — top-k personalized influential topics for one user.
pub fn query(p: &Parsed) -> Result<(), String> {
    let engine = load(p)?;
    let user: u32 = p.num("user", u32::MAX)?;
    if user == u32::MAX {
        return Err("missing required flag --user".into());
    }
    if user as usize >= engine.graph().node_count() {
        return Err(format!(
            "user {user} out of range (graph has {} users)",
            engine.graph().node_count()
        ));
    }
    let keywords: Vec<&str> = p.require("keywords")?.split(',').collect();
    let k: usize = p.num("k", 10)?;
    let t0 = std::time::Instant::now();
    let out = engine.search_keywords(NodeId(user), &keywords, k)?;
    let dt = t0.elapsed();
    println!(
        "user {user}, q={keywords:?}: {} candidate topics, {} pruned, answered in {:.2} ms",
        out.candidate_topics,
        out.pruned_topics,
        dt.as_secs_f64() * 1e3
    );
    for (rank, s) in out.top_k.iter().enumerate() {
        let members = engine.space().topic_nodes(s.topic).len();
        println!(
            "  {:>3}. topic {:<6} influence {:.6}  ({} users discuss it)",
            rank + 1,
            s.topic.to_string(),
            s.score,
            members
        );
    }
    Ok(())
}

/// `pit audience` — inverse search: who is the topic influential for?
pub fn audience(p: &Parsed) -> Result<(), String> {
    let engine = load(p)?;
    let topic: u32 = p.num("topic", u32::MAX)?;
    if topic == u32::MAX {
        return Err("missing required flag --topic".into());
    }
    if topic as usize >= engine.space().topic_count() {
        return Err(format!(
            "topic {topic} out of range (space has {} topics)",
            engine.space().topic_count()
        ));
    }
    let keyword = p.require("keyword")?;
    let k: usize = p.num("k", 3)?;
    let sample: usize = p.num("sample", 200)?;
    let vocab = engine
        .vocab()
        .ok_or_else(|| "engine was built without a vocabulary".to_string())?;
    let term = vocab
        .get(keyword)
        .ok_or_else(|| format!("unknown keyword {keyword}"))?;
    let n = engine.graph().node_count();
    let stride = (n / sample.max(1)).max(1);
    let candidates: Vec<NodeId> = (0..n).step_by(stride).map(NodeId::from_index).collect();
    let candidate_count = candidates.len();
    let hits = pit_search_core::find_audience(
        engine.space(),
        engine.propagation(),
        engine.reps(),
        pit_graph::TopicId(topic),
        &[term],
        candidates,
        k,
    );
    println!(
        "topic {topic} is in the personal top-{k} of {} / {candidate_count} sampled users",
        hits.len()
    );
    for hit in hits.iter().take(20) {
        println!(
            "  user {:<8} rank {}  influence {:.6}",
            hit.user, hit.rank, hit.score
        );
    }
    Ok(())
}

/// `pit stats` — engine inventory.
pub fn stats(p: &Parsed) -> Result<(), String> {
    let engine = load(p)?;
    let g = GraphStats::compute(engine.graph());
    println!(
        "graph:   |V|={}, |E|={}, degrees {}..{}, components {}",
        g.node_count, g.edge_count, g.min_degree, g.max_degree, g.weak_components
    );
    println!(
        "topics:  {} topics over {} terms, avg |V_t| = {:.1}",
        engine.space().topic_count(),
        engine.space().term_count(),
        engine.space().avg_topic_node_count()
    );
    println!(
        "walks:   L={}, R={}, {}",
        engine.walks().l(),
        engine.walks().r(),
        pit_eval::table::human_bytes(engine.walks().heap_size_bytes())
    );
    println!(
        "gamma:   θ={}, {} entries, {}",
        engine.propagation().config().theta,
        engine.propagation().total_entries(),
        pit_eval::table::human_bytes(engine.propagation().heap_size_bytes())
    );
    println!(
        "reps:    {} ({} total representatives, {})",
        engine.summarizer().name(),
        engine.reps().total_reps(),
        pit_eval::table::human_bytes(engine.reps().heap_size_bytes())
    );
    Ok(())
}

/// The daemon configuration flags shared by `pit serve` and `pit route`.
fn server_config(p: &Parsed) -> Result<pit_server::ServerConfig, String> {
    use std::time::Duration;

    let defaults = pit_server::ServerConfig::default();
    // Fault-injection flags (chaos drills and the integration tests): a
    // user whose queries panic, and a user whose queries are slowed at
    // every cancellation check.
    let opt_user = |name: &str| -> Result<Option<u32>, String> {
        match p.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    };
    Ok(pit_server::ServerConfig {
        workers: p.num("workers", defaults.workers)?,
        queue_depth: p.num("queue-depth", defaults.queue_depth)?,
        cache_capacity: p.num("cache", defaults.cache_capacity)?,
        query_budget: Duration::from_millis(
            p.num("budget-ms", defaults.query_budget.as_millis() as u64)?,
        ),
        io_timeout: Duration::from_millis(
            p.num("io-timeout-ms", defaults.io_timeout.as_millis() as u64)?,
        ),
        // Event-loop sizing: a handful of I/O threads own every client
        // socket, so connection count never grows the thread count.
        io_threads: p.num("io-threads", defaults.io_threads)?,
        cancel_check_tables: p.num("cancel-every", defaults.cancel_check_tables)?,
        poison_user: opt_user("poison-user")?,
        drag_user: opt_user("drag-user")?,
        drag_per_check: Duration::from_micros(p.num("drag-us", 0u64)?),
        // Fault injection for the reload integration tests: stretch every
        // RELOAD/UPDATE so queries observably keep flowing on the old
        // generation while the swap is in flight.
        reload_drag: Duration::from_millis(p.num("reload-drag-ms", 0u64)?),
        // Observability: sample one query in N into the trace ring (0 =
        // off), and log any query slower than --slow-ms regardless.
        trace_sample: p.num("trace-sample", defaults.trace_sample)?,
        slow_threshold: Duration::from_millis(
            p.num("slow-ms", defaults.slow_threshold.as_millis() as u64)?,
        ),
        trace_ring: p.num("trace-ring", defaults.trace_ring)?,
        // Post-reload cache warmup: replay the hottest keys after a
        // blanket-flush swap, for at most --warmup-budget-ms (0 = off).
        warmup_budget: Duration::from_millis(p.num(
            "warmup-budget-ms",
            defaults.warmup_budget.as_millis() as u64,
        )?),
        warmup_top: p.num("warmup-top", defaults.warmup_top)?,
    })
}

/// `pit serve` — run the query daemon over a saved engine. A snapshot
/// carrying a shard manifest (`pit shard-split` output) comes up as that
/// slice automatically: it answers the router's probes and refuses direct
/// queries.
pub fn serve(p: &Parsed) -> Result<(), String> {
    use pit_server::ServeEngine as _;
    use std::sync::Arc;

    let dir = Path::new(p.require("engine")?);
    let engine = pit_server::LocalServeEngine::load(dir)?;
    let shard = engine.shard_spec();
    let addr = p.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let config = server_config(p)?;
    let state = Arc::new(pit_server::ServerState::with_engine(
        Arc::new(engine),
        config.clone(),
    ));
    let handle = pit_server::serve(state, addr.as_str()).map_err(|e| e.to_string())?;
    // The integration tests parse this line to learn the ephemeral port, so
    // keep its shape stable and flush it before blocking.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(spec) = shard {
        eprintln!(
            "serving shard {spec} of a split snapshot; direct QUERYs are refused — \
             front the fleet with `pit route`"
        );
    }
    eprintln!(
        "{} workers, queue depth {}, cache {} entries, budget {:?}; stop with the SHUTDOWN verb",
        config.workers, config.queue_depth, config.cache_capacity, config.query_budget
    );
    handle.join();
    println!("drained; bye");
    Ok(())
}

/// `pit shard-split` — slice an engine snapshot into N shard snapshots
/// under `--out/shard-<i>`, re-loading and verifying the partition (every
/// user owned exactly once, owned Γ tables bit-identical, unowned empty).
pub fn shard_split(p: &Parsed) -> Result<(), String> {
    let dir = Path::new(p.require("dir")?);
    let out = Path::new(p.require("out")?);
    let shards: u32 = p.num("shards", 0)?;
    if shards == 0 {
        return Err("missing required flag --shards N (N >= 1)".into());
    }
    eprintln!("splitting {} into {shards} shard snapshots…", dir.display());
    let t0 = std::time::Instant::now();
    let report = pit::shard::split_snapshot(dir, out, shards).map_err(|e| e.to_string())?;
    println!(
        "wrote and verified {} shards under {} in {:.1}s ({} users, each owned exactly once)",
        report.shards,
        out.display(),
        t0.elapsed().as_secs_f64(),
        report.nodes
    );
    for (i, owned) in report.owned_per_shard.iter().enumerate() {
        println!("  shard-{i}: {owned} users");
    }
    Ok(())
}

/// `pit route` — run the scatter-gather router daemon. Two deployments:
/// `--shards host:port,…` fronts remote `pit serve` backends (with
/// `--engine` naming any shard snapshot to replicate the metadata from),
/// while `--in-process N` splits a full snapshot into N in-process shards —
/// same code path, no sockets — for drills and small fleets.
pub fn route(p: &Parsed) -> Result<(), String> {
    use pit_router::{RemoteTransport, ShardTransport, ShardedEngine};
    use std::sync::Arc;

    let addr = p.get("addr").unwrap_or("127.0.0.1:7979").to_string();
    let config = server_config(p)?;
    let engine: Arc<dyn pit_server::ServeEngine> = if let Some(list) = p.get("shards") {
        let backends: Vec<Arc<dyn ShardTransport>> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|backend| {
                Arc::new(RemoteTransport::new(backend, config.io_timeout))
                    as Arc<dyn ShardTransport>
            })
            .collect();
        if backends.is_empty() {
            return Err("--shards needs at least one host:port".into());
        }
        // The metadata engine: any shard snapshot works — the graph, topic
        // space, vocabulary, and representative sets are replicated on
        // every slice, and the router never probes its own Γ tables.
        let meta = Arc::new(load(p)?);
        Arc::new(ShardedEngine::assemble(meta, backends)?)
    } else {
        let n: u32 = p.num("in-process", 0)?;
        if n == 0 {
            return Err(
                "pass --shards host:port,… (with --engine META_DIR) for a remote fleet, \
                 or --engine DIR --in-process N to split in-process"
                    .into(),
            );
        }
        let full = Arc::new(load(p)?);
        Arc::new(ShardedEngine::split(&full, n))
    };
    let shard_count = engine.shard_count();
    let state = Arc::new(pit_server::ServerState::with_engine(engine, config.clone()));
    let handle = pit_server::serve(state, addr.as_str()).map_err(|e| e.to_string())?;
    // Same parseable first line as `pit serve`.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "scatter-gather over {shard_count} shards; {} workers, queue depth {}, cache {} \
         entries, budget {:?}; stop with the SHUTDOWN verb",
        config.workers, config.queue_depth, config.cache_capacity, config.query_budget
    );
    handle.join();
    println!("drained; bye");
    Ok(())
}

/// `pit client` — one request against a running `pit serve` (or, with
/// `--via-router ADDR` in place of `--addr`, against a `pit route` daemon,
/// confirming first that the target actually fronts a fleet).
pub fn client(p: &Parsed) -> Result<(), String> {
    use pit_server::protocol;

    let via_router = p.get("via-router");
    let addr = match via_router {
        Some(router) => router,
        None => p.require("addr")?,
    };
    if via_router.is_some() {
        // A shard slice also answers SHARD (with its own index), so probe
        // before querying: a query accidentally aimed at one slice would be
        // refused with a confusing "query the router" error.
        match exchange(addr, &protocol::Request::Shard)? {
            protocol::Response::ShardInfo { count, gen, .. } if count >= 2 => {
                eprintln!("via router at {addr}: {count} shards, generation {gen}");
            }
            protocol::Response::ShardInfo { count, gen, .. } => {
                eprintln!(
                    "note: {addr} answers for {count} shard (generation {gen}) — \
                     a single node, not a fleet"
                );
            }
            other => return Err(format!("unexpected SHARD reply {other:?}")),
        }
    }
    let op = p.get("op").unwrap_or("query");
    let request = match op {
        "ping" => protocol::Request::Ping,
        "stats" => protocol::Request::Stats,
        "metrics" => protocol::Request::Metrics,
        "trace" => protocol::Request::Trace {
            n: p.num("n", pit_server::protocol::DEFAULT_TRACE_DUMP)?,
        },
        "shutdown" => protocol::Request::Shutdown,
        "query" => {
            let user: u32 = p.num("user", u32::MAX)?;
            if user == u32::MAX {
                return Err("missing required flag --user".into());
            }
            let keywords: Vec<String> = p
                .require("keywords")?
                .split(',')
                .map(str::to_string)
                .collect();
            protocol::Request::Query {
                user,
                k: p.num("k", 10)?,
                keywords,
            }
        }
        other => {
            return Err(format!(
                "unknown op {other} (ping|stats|metrics|trace|shutdown|query)"
            ))
        }
    };
    print_response(&exchange(addr, &request)?)
}

/// `pit trace` — dump a running daemon's slow-query log and sampled traces.
/// Shorthand for `pit client --op trace`; see `pit serve --trace-sample` /
/// `--slow-ms` for what gets captured.
pub fn trace(p: &Parsed) -> Result<(), String> {
    let addr = p.require("addr")?;
    let request = pit_server::protocol::Request::Trace {
        n: p.num("n", pit_server::protocol::DEFAULT_TRACE_DUMP)?,
    };
    print_response(&exchange(addr, &request)?)
}

/// `pit reload` — ask a running daemon to swap in the snapshot at `--dir`.
/// Blocks until the swap (or failure); queries keep being served on the old
/// generation the whole time.
pub fn reload(p: &Parsed) -> Result<(), String> {
    let addr = p.require("addr")?;
    let dir = p.require("dir")?;
    install(addr, Successor::Snapshot(dir.into()))
}

/// `pit update` — push an edge/assignment delta into a running daemon.
/// Edges are `u:v:p` triples and assignments `u:t` pairs, comma-separated.
pub fn update(p: &Parsed) -> Result<(), String> {
    let addr = p.require("addr")?;
    let delta = Delta {
        new_edges: parse_edges(p.get("edges").unwrap_or(""))?,
        new_assignments: parse_assignments(p.get("assign").unwrap_or(""))?,
    };
    if delta.is_empty() {
        return Err("empty delta: pass --edges u:v:p,… and/or --assign u:t,…".into());
    }
    install(addr, Successor::Delta(delta))
}

/// Ask the daemon at `addr` to build `next` and serve it at once.
fn install(addr: &str, next: Successor) -> Result<(), String> {
    let request = Request::Admin(Admin::Install { next, commit: true });
    print_response(&exchange(addr, &request)?)
}

/// Parse `u:v:p,u:v:p,…` into new-edge triples.
fn parse_edges(spec: &str) -> Result<Vec<(NodeId, NodeId, f64)>, String> {
    spec.split(',')
        .filter(|item| !item.is_empty())
        .map(|item| {
            let bad = || format!("bad edge {item:?} (want u:v:p with p in (0,1])");
            let mut parts = item.split(':');
            let u = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let v = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let prob: f64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            if parts.next().is_some() || !prob.is_finite() {
                return Err(bad());
            }
            Ok((NodeId(u), NodeId(v), prob))
        })
        .collect()
}

/// Parse `u:t,u:t,…` into new-assignment pairs.
fn parse_assignments(spec: &str) -> Result<Vec<(NodeId, TopicId)>, String> {
    spec.split(',')
        .filter(|item| !item.is_empty())
        .map(|item| {
            let bad = || format!("bad assignment {item:?} (want u:t)");
            let mut parts = item.split(':');
            let u = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let t = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            if parts.next().is_some() {
                return Err(bad());
            }
            Ok((NodeId(u), TopicId(t)))
        })
        .collect()
}

/// One request/response exchange with a running daemon. No client-side read
/// deadline: RELOAD/UPDATE legitimately block until the swap completes.
fn exchange(
    addr: &str,
    request: &pit_server::protocol::Request,
) -> Result<pit_server::protocol::Response, String> {
    use pit_server::protocol;
    use std::net::TcpStream;

    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    protocol::write_frame(&mut stream, &request.render()).map_err(|e| e.to_string())?;
    let text = protocol::read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection without replying".to_string())?;
    protocol::Response::parse(&text).map_err(|e| format!("bad reply: {e}"))
}

/// Write a rendered reply to stdout. A consumer that closed the pipe early
/// (`pit trace | head`) is done reading, not an error — swallow the broken
/// pipe instead of panicking mid-dump.
fn emit(text: &str) -> Result<(), String> {
    use std::io::Write as _;
    match writeln!(std::io::stdout(), "{text}") {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other.map_err(|e| format!("stdout: {e}")),
    }
}

/// Render a server reply for the operator; error replies come back as `Err`
/// with a what-to-do-about-it hint.
fn print_response(response: &pit_server::protocol::Response) -> Result<(), String> {
    use pit_server::protocol;

    let text = match response {
        protocol::Response::Pong => "PONG".to_string(),
        protocol::Response::Bye => "BYE".to_string(),
        protocol::Response::Generation(generation) => format!("generation {generation}"),
        protocol::Response::Err(err) => {
            // Translate each class into what the operator should do about it.
            let hint = match err.kind {
                protocol::ErrKind::Timeout => {
                    "query exceeded its budget; retry or raise --budget-ms on the server"
                }
                protocol::ErrKind::Overloaded => "shed at admission; back off and retry",
                protocol::ErrKind::Internal => {
                    "server-side fault; check server STATS (panics/internal_errors)"
                }
                protocol::ErrKind::ShuttingDown => {
                    "server is draining; retry against a live instance"
                }
                protocol::ErrKind::Malformed => {
                    "the request was rejected; fix the query parameters"
                }
                protocol::ErrKind::ReloadFailed => {
                    "the snapshot/delta was rejected; the previous generation is still serving"
                }
            };
            return Err(format!("server error: {err} ({hint})"));
        }
        protocol::Response::Stats(pairs) => pairs
            .iter()
            .map(|(key, value)| format!("{key:<18} {value}"))
            .collect::<Vec<_>>()
            .join("\n"),
        // Both bodies are already formatted for the terminal (Prometheus
        // exposition / rendered traces): print them verbatim.
        protocol::Response::Metrics(body) | protocol::Response::Traces(body) => body.clone(),
        protocol::Response::Staged => "staged (COMMIT to serve, ABORT to discard)".to_string(),
        protocol::Response::ShardInfo { index, count, gen } => {
            format!("shard {index} of {count}, generation {gen}")
        }
        // EXPAND is router-to-backend plumbing; an operator poking it by
        // hand gets a summary, not the raw tables.
        protocol::Response::Expanded { gen, bound, tables } => format!(
            "{} probe tables (generation {gen}, residual bound {bound:.6})",
            tables.len()
        ),
        protocol::Response::Topics {
            ranked,
            cached,
            micros,
            partial,
        } => {
            let mut out = format!(
                "{} topics ({}, {:.2} ms)",
                ranked.len(),
                if *cached { "cached" } else { "fresh" },
                *micros as f64 / 1e3
            );
            if !partial.is_empty() {
                let missing: Vec<String> = partial
                    .iter()
                    .map(|(shard, reason)| format!("shard {shard}: {reason}"))
                    .collect();
                out.push_str(&format!(" — PARTIAL, missing {}", missing.join(", ")));
            }
            for (rank, (topic, score)) in ranked.iter().enumerate() {
                out.push_str(&format!(
                    "\n  {:>3}. topic {topic:<6} influence {score:.6}",
                    rank + 1
                ));
            }
            out
        }
    };
    emit(&text)
}

fn load(p: &Parsed) -> Result<PitEngine, String> {
    let dir = Path::new(p.require("engine")?);
    store::load_engine(dir).map_err(|e| e.to_string())
}
