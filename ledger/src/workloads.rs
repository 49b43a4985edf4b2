//! The four workloads and the one life cycle they all run.
//!
//! Every run takes a deployment through its whole life — offline build,
//! cold start, light and busy traffic, live updates and reloads, quality
//! check — so every workload reports every end-to-end metric. What a
//! workload chooses is the deployment (one `pit serve` with or without a
//! result cache, or a routed two-shard fleet), the key distribution, the
//! busy rate, whether writes run beside the reads, and how big the served
//! graph is. That choice decides which layers carry the run, and so which
//! optimisation each workload can see and which it must not.

use crate::fixtures::{self, Fixture, Summarizer};
use crate::json::Json;
use crate::layers::{self, PhaseLog, Traffic};
use crate::loadgen::{
    drive, exchange_once, subseed, Exchange, Key, KeySpace, Pace, Phase, Rng, Sample,
};
use crate::oracle::{self, AdminEvent, Oracle, Swap};
use crate::procs::{pit_build, Daemon, Scratch};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Trace;
use crate::wire::{self, Conn, Counters};
use pit::datasets::Dataset;
use pit::graph::{NodeId, TopicId};
use pit::{Delta, PitEngine};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// What serves the queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `pit serve`; `cache` is passed as `--cache N`, `None` leaves the
    /// default (1 024 entries).
    Single { cache: Option<usize> },
    /// Two `pit serve` shard backends behind `pit route --cache 0`.
    Fleet,
}

/// One workload: a deployment and the traffic it gets.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    /// Zipf(1) over 8 192 keys instead of uniform over all of them.
    pub zipf: bool,
    /// Offered rate of the busy phase.
    pub busy_qps: f64,
    /// Writes beside the reads: an `UPDATE` every 3 s of each traffic
    /// phase and a `RELOAD` at the busy midpoint.
    pub writes_under_load: bool,
    /// The LRW-A fixture: built by the real `pit build`, then served.
    pub serving: Fixture,
}

/// Names are final: later issues cite them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_cold",
        why: "uniform keys, --cache 0: every query pays frame I/O, event loop, queue and the whole search; the cache does nothing",
        topology: Topology::Single { cache: Some(0) },
        zipf: false,
        busy_qps: 1000.0,
        writes_under_load: false,
        serving: fixtures::BAND12K,
    },
    Workload {
        name: "serve_hot",
        why: "Zipf(1) keys over 8x the default cache, UPDATEs and a RELOAD under load: reads beside writes on the cache/state layer",
        topology: Topology::Single { cache: None },
        zipf: true,
        busy_qps: 1000.0,
        writes_under_load: true,
        serving: fixtures::BAND12K,
    },
    Workload {
        name: "route_fleet",
        why: "serve_cold's stream through pit route and two shard backends: router, transport and EXPAND codec carry the query",
        topology: Topology::Fleet,
        zipf: false,
        busy_qps: 200.0,
        writes_under_load: false,
        serving: fixtures::BAND12K,
    },
    Workload {
        name: "offline_build",
        why: "the offline half of the paper's trade: a third more graph to summarize, index, save, cold-start, reload and hold in memory",
        topology: Topology::Single { cache: None },
        zipf: false,
        busy_qps: 1000.0,
        writes_under_load: false,
        serving: fixtures::BAND16K,
    },
];

/// Distinct keys of the Zipf stream: 8× the default result cache.
const ZIPF_KEYS: usize = 8_192;
/// Offered rate of the light phase and of the traffic under the churn.
const LIGHT_QPS: f64 = 100.0;
const COLD_STARTS: usize = 5;
/// How long a cold start waits between the daemon announcing its port and
/// connecting. The acceptor polls every 25 ms; a connection made at once
/// nearly always arrives just after its first poll and waits for the
/// second, but now and then — for a whole run, when it happens — wins the
/// race and is served ~30 ms sooner. The pause makes every start the
/// usual kind.
const CONNECT_AFTER: Duration = Duration::from_millis(5);
/// Requests each closed-loop client keeps in flight. With one, the rate
/// measures a race instead of the server: whether the event loop re-sweeps
/// before or after the worker answers decides between a ~20 µs and a
/// ~300 µs round trip, and the loop stays in either mode for seconds. A
/// second queued request keeps the loop awake.
const CLOSED_WINDOW: usize = 2;
/// An `UPDATE`'s cost swings with the topics it happens to touch
/// (100–190 ms on band16k within one run): a dozen keep the median still.
const CHURN_UPDATES: usize = 12;
/// Reload latency is averaged, not medianed: the daemon notices a finished
/// reload at its next poll (… 6.2, 12.6, 22.6 ms after the last arrival),
/// so single latencies come in 10 ms steps, and only the light traffic
/// running beside the churn dithers them.
const CHURN_RELOADS: usize = 12;
/// Probe queries sent on the admin connection after a swap.
const PROBES: usize = 4;
/// What a traced run's closed-loop burst lasts, as a share of the timed
/// traffic.
const BURST_SHARE: f64 = 0.05;
/// Of the replies outside the light phase, one in this many is verified.
const VERIFY_ONE_IN: u64 = 8;

/// The end-to-end metrics, in the order `BENCHMARK.json` declares them.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "light_p50_ms",
    "light_p99_ms",
    "busy_p50_ms",
    "busy_p99_ms",
    "serve_rss_mb",
    "build_s",
    "snapshot_mb",
    "coldstart_ms",
    "reload_ms",
    "precision_at_10",
    "ok_share",
];

/// How one invocation runs its workloads.
pub struct Config {
    pub pit: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    /// Timed traffic per workload; light, busy and churn split it
    /// 10 : 6 : 4.
    pub seconds: f64,
    pub traced: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run produced.
pub struct Report {
    pub workload: &'static str,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// No reply contradicted the oracle.
    pub correct: bool,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
    pub trace: Option<Trace>,
}

/// Counts operations and keeps the first few failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Count one operation; a failure is recorded and yields `None`.
    fn op<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                if why.starts_with(oracle::MISMATCH) {
                    self.mismatches += 1;
                }
                if self.notes.len() < 8 {
                    self.notes.push(why);
                }
                None
            }
        }
    }
}

/// Where a workload's snapshots live inside its scratch directory.
struct Dirs {
    engine: PathBuf,
    shards: PathBuf,
}

/// The running daemons of one deployment. Dropping it kills them all.
struct Deployment {
    /// What clients talk to: the server, or the router.
    front: Daemon,
    backends: Vec<Daemon>,
}

impl Deployment {
    fn spawn(
        topology: Topology,
        pit: &Path,
        dirs: &Dirs,
        log: &Path,
    ) -> Result<Deployment, String> {
        let utf8 = |p: PathBuf| p.to_str().expect("scratch paths are UTF-8").to_string();
        match topology {
            Topology::Single { cache } => {
                let engine = utf8(dirs.engine.clone());
                let capacity = cache.map(|c| c.to_string());
                let mut args = vec!["serve", "--engine", &engine];
                if let Some(capacity) = &capacity {
                    args.extend(["--cache", capacity]);
                }
                Ok(Deployment {
                    front: Daemon::spawn(pit, &args, log)?,
                    backends: Vec::new(),
                })
            }
            Topology::Fleet => {
                let mut backends = Vec::new();
                for shard in 0..2 {
                    let dir = utf8(dirs.shards.join(format!("shard-{shard}")));
                    backends.push(Daemon::spawn(pit, &["serve", "--engine", &dir], log)?);
                }
                let meta = utf8(dirs.shards.join("shard-0"));
                let list: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
                let list = list.join(",");
                let args = [
                    "route", "--engine", &meta, "--shards", &list, "--cache", "0",
                ];
                Ok(Deployment {
                    front: Daemon::spawn(pit, &args, log)?,
                    backends,
                })
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Peak resident memory summed over the deployment's processes.
    fn peak_rss_mb(&self) -> Option<f64> {
        std::iter::once(&self.front)
            .chain(&self.backends)
            .map(Daemon::peak_rss_mb)
            .sum()
    }
}

/// The coordinator's side of a run: the admin connection, the swaps made
/// over it, and the seeded stream the deltas come from.
struct Admin<'a> {
    conn: Conn,
    origin: Instant,
    reload_request: String,
    base: &'a PitEngine,
    rng: Rng,
    assigned: HashSet<(u32, u32)>,
    probes: Vec<Key>,
    events: Vec<AdminEvent>,
    probe_samples: Vec<Sample>,
    /// `METRICS` around each `UPDATE`; a traced run's only hook that runs
    /// while traffic does.
    traced: bool,
    update_brackets: Vec<(Counters, Counters)>,
}

impl Admin<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn call(&mut self, request: &str) -> String {
        self.conn
            .call(request)
            .unwrap_or_else(|e| format!("ERR io: {e}"))
    }

    fn metrics(&mut self) -> Counters {
        wire::parse_metrics(&self.call("METRICS"))
    }

    fn stats(&mut self, key: &str) -> Option<f64> {
        wire::parse_stats(&self.call("STATS")).get(key).copied()
    }

    /// Two assignments that neither the base snapshot nor an earlier delta
    /// of this run holds. (A delta with edges re-summarizes every topic on
    /// these connected fixtures — a full rebuild, ~6 s on band12k — so the
    /// churn uses the kind of delta a live system can take every few
    /// seconds.)
    fn next_delta(&mut self) -> Delta {
        let space = self.base.space();
        let users = self.base.graph().node_count() as u64;
        let topics = space.topic_count() as u64;
        let mut new_assignments = Vec::new();
        while new_assignments.len() < 2 {
            let user = self.rng.below(users) as u32;
            let topic = self.rng.below(topics) as u32;
            let member = space.topic_nodes(TopicId(topic)).contains(&NodeId(user));
            if !member && self.assigned.insert((user, topic)) {
                new_assignments.push((NodeId(user), TopicId(topic)));
            }
        }
        Delta {
            new_edges: Vec::new(),
            new_assignments,
        }
    }

    /// Send one swap and wait for its `GEN`; with `probe`, then query the
    /// new generation on this connection.
    fn swap(&mut self, swap: Swap, probe: bool) {
        let request = match &swap {
            Swap::Reload => self.reload_request.clone(),
            Swap::Update(delta) => {
                let mut text = "UPDATE".to_string();
                for (user, topic) in &delta.new_assignments {
                    text.push_str(&format!("\nASSIGN {} {}", user.0, topic.0));
                }
                text
            }
        };
        let bracket = self.traced && matches!(swap, Swap::Update(_));
        let before = if bracket {
            self.metrics()
        } else {
            Counters::new()
        };
        let sent_ns = self.now_ns();
        let reply = self.call(&request);
        let recv_ns = self.now_ns();
        if bracket {
            let after = self.metrics();
            self.update_brackets.push((before, after));
        }
        self.events.push(AdminEvent {
            swap,
            sent_ns,
            recv_ns,
            reply,
        });
        if probe {
            for &key in &self.probes {
                self.probe_samples
                    .push(exchange_once(&mut self.conn, key, self.origin));
            }
        }
    }

    /// Make each swap of `schedule` when its offset from `start` comes, or
    /// at once when the previous one overran. Every `UPDATE` is probed, and
    /// of a run of `RELOAD`s the last.
    fn run_schedule(&mut self, start: Instant, schedule: &[(Duration, SwapKind)]) {
        for (i, &(offset, kind)) in schedule.iter().enumerate() {
            if let Some(wait) = (start + offset).checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            let swap = match kind {
                SwapKind::Reload => Swap::Reload,
                SwapKind::Update => Swap::Update(self.next_delta()),
            };
            let reload_follows = schedule
                .get(i + 1)
                .is_some_and(|next| next.1 == SwapKind::Reload);
            self.swap(swap, kind == SwapKind::Update || !reload_follows);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SwapKind {
    Update,
    Reload,
}

/// The writes of one read phase of a workload with writes under load: an
/// `UPDATE` every 3 s, and a `RELOAD` at the midpoint of the busy phase.
fn write_schedule(phase: &str, duration: Duration) -> Vec<(Duration, SwapKind)> {
    let mut schedule: Vec<_> = (1..)
        .map(|i| Duration::from_secs(3 * i))
        .take_while(|&at| at < duration)
        .map(|at| (at, SwapKind::Update))
        .collect();
    if phase == "busy" {
        schedule.push((duration / 2, SwapKind::Reload));
        schedule.sort();
    }
    schedule
}

/// The churn of every workload: `UPDATE`s over the first two thirds of the
/// phase, then `RELOAD`s over the rest, under light traffic.
fn churn_schedule(duration: Duration) -> Vec<(Duration, SwapKind)> {
    let updates = (0..CHURN_UPDATES).map(|i| {
        let at = 0.01 + 0.65 * i as f64 / CHURN_UPDATES as f64;
        (duration.mul_f64(at), SwapKind::Update)
    });
    let reloads = (0..CHURN_RELOADS).map(|i| {
        let at = 0.68 + 0.30 * i as f64 / CHURN_RELOADS as f64;
        (duration.mul_f64(at), SwapKind::Reload)
    });
    updates.chain(reloads).collect()
}

/// A percentile of an open-loop phase, robust to the odd stall: the phase
/// is cut into windows of `samples_per_window` scheduled requests, and the
/// median of the windows' own percentiles is reported. One 20 ms hiccup at
/// 1 000 QPS is a third of the p99 tail of a 6 s phase; it is the whole
/// tail of one window and none of the others.
fn windowed_percentile(samples: &[Sample], samples_per_window: usize, p: f64) -> f64 {
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.due_ns);
    let percentiles: Vec<f64> = by_due
        .chunks(samples_per_window)
        // A short last window would have a tail of its own kind.
        .filter(|w| w.len() * 2 >= samples_per_window || by_due.len() < samples_per_window)
        .map(|w| {
            let latencies: Vec<f64> = w.iter().map(|s| s.latency_ms()).collect();
            percentile(&sorted(&latencies), p)
        })
        .collect();
    median(&percentiles)
}

/// Run one workload through its life cycle.
///
/// # Errors
/// Only what stops the run from being measured at all: a fixture that
/// cannot be written, a build or a daemon that does not come up. Wrong or
/// failed replies do not stop the run; the report counts them.
pub fn run(workload: &Workload, config: &Config) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut trace = Trace::new(origin);
    let scratch = Scratch::create(&config.out, workload.name)?;
    let log = scratch.join("pit.log");
    let seed = config.seed;
    let share_of_run = |share: f64| Duration::from_secs_f64(config.seconds * share);

    // ---- Offline: generate, build with the real CLI, split, load the oracle.
    let started = Instant::now();
    let dataset = trace.stage("datasets.generate", || workload.serving.generate(seed));
    let generate_s = started.elapsed().as_secs_f64();
    let users = dataset.graph.node_count() as u32;
    let keywords = dataset.spec.topics.query_term_count as u16;
    let dirs = Dirs {
        engine: scratch.join("engine"),
        shards: scratch.join("shards"),
    };
    let mut cli_build = |name: &str, dataset: &Dataset, summarizer: Summarizer, engine: &Path| {
        let corpus = scratch.join(&format!("corpus-{}", summarizer.flag()));
        fixtures::write_corpus(dataset, &corpus)?;
        trace.stage(name, || {
            pit_build(&config.pit, &corpus, engine, summarizer.flag(), &log)
        })
    };
    let build = cli_build("cli.build_lrw", &dataset, Summarizer::Lrw, &dirs.engine);
    let build_s = tally
        .op(build)
        .ok_or("the LRW-A build failed")?
        .as_secs_f64();
    let rcl_dataset = fixtures::BAND1K.generate(seed);
    let build = cli_build(
        "cli.build_rcl",
        &rcl_dataset,
        Summarizer::Rcl,
        &scratch.join("engine-rcl"),
    );
    let build_rcl_s = tally
        .op(build)
        .ok_or("the RCL-A build failed")?
        .as_secs_f64();
    drop((dataset, rcl_dataset));
    let snapshot_bytes = std::fs::metadata(dirs.engine.join("engine.pitf"))
        .map_err(|e| format!("built snapshot: {e}"))?
        .len();
    if workload.topology == Topology::Fleet {
        trace
            .stage("store.split", || {
                pit::shard::split_snapshot(&dirs.engine, &dirs.shards, 2)
            })
            .map_err(|e| format!("split: {e}"))?;
    }
    let base = trace
        .stage("store.load", || pit::store::load_engine(&dirs.engine))
        .map_err(|e| format!("load the built snapshot: {e}"))?;
    oracle::check_vocabulary(&base, keywords)?;

    let keys = if workload.zipf {
        KeySpace::zipf(users, keywords, ZIPF_KEYS, subseed(seed, "zipf-table"))
    } else {
        KeySpace::Uniform { users, keywords }
    };
    let mut probe_rng = Rng::new(subseed(seed, "probes"));
    let probes: Vec<Key> = (0..PROBES).map(|_| keys.draw(&mut probe_rng)).collect();

    // ---- Cold starts: spawn → first correct reply; the last one stays up.
    let mut coldstart_ms = Vec::new();
    let mut deployment = None;
    let mut unswapped = Oracle::replay(&base, &[])?;
    for round in 0..COLD_STARTS {
        drop(deployment.take());
        let span = trace.open("proc.coldstart");
        let started = Instant::now();
        let up = Deployment::spawn(workload.topology, &config.pit, &dirs, &log)?;
        thread::sleep(CONNECT_AFTER);
        let mut conn = Conn::connect(up.addr()).map_err(|e| format!("connect: {e}"))?;
        let first = exchange_once(&mut conn, probes[round % PROBES], origin);
        let took = started.elapsed();
        trace.close(span, vec![("round", Json::Num(round as f64))]);
        if tally.op(unswapped.check(&first)).is_some() {
            coldstart_ms.push(took.as_secs_f64() * 1e3);
        }
        deployment = Some(up);
    }
    let deployment = deployment.expect("at least one cold start");

    let connect = || Conn::connect(deployment.addr()).map_err(|e| format!("connect: {e}"));
    let mut senders = [connect()?, connect()?];
    let reload_dir = match workload.topology {
        Topology::Single { .. } => &dirs.engine,
        Topology::Fleet => &dirs.shards,
    };
    let mut admin = Admin {
        conn: connect()?,
        origin,
        reload_request: format!("RELOAD {}", reload_dir.display()),
        base: &base,
        rng: Rng::new(subseed(seed, "deltas")),
        assigned: HashSet::new(),
        probes,
        events: Vec::new(),
        probe_samples: Vec::new(),
        traced: config.traced,
        update_brackets: Vec::new(),
    };

    // ---- Warm-up: 1 s of closed-loop traffic, discarded.
    let warmup = Phase {
        pace: Pace::Closed {
            window: CLOSED_WINDOW,
        },
        duration: Duration::from_secs(1),
        keys: &keys,
        seed: subseed(seed, "warmup"),
    };
    drive(&mut senders, &warmup, origin, |_| ());
    let after_warmup = admin.metrics();
    let queries_before = admin.stats("queries");
    let setup_s = origin.elapsed().as_secs_f64();

    // ---- Traffic: light, busy, churn; a traced run adds a closed-loop
    // burst after each. With two connections the event loop's sleeps
    // quantize every round trip, which turns the box's ±10 % CPU noise
    // into ±20–50 % of closed-loop rate: too unsteady to carry a bound, so
    // it is a per-layer reading only.
    let closed = Pace::Closed {
        window: CLOSED_WINDOW,
    };
    let busy = Pace::Open {
        qps: workload.busy_qps,
    };
    let light = Pace::Open { qps: LIGHT_QPS };
    let burst = config.traced.then_some(("closed", closed, BURST_SHARE));
    let plan = [
        Some(("light", light, 0.5)),
        burst,
        Some(("busy", busy, 0.3)),
        burst,
        Some(("churn", light, 0.2)),
        burst,
    ];
    let mut recorded: Vec<(&'static str, Vec<Sample>)> = Vec::new();
    let mut after_reads = Counters::new();
    let mut before_churn = 0;
    let mut serve_rss_mb = None;
    for (step, (name, pace, share)) in plan.into_iter().flatten().enumerate() {
        let duration = share_of_run(share);
        let phase = Phase {
            pace,
            duration,
            keys: &keys,
            seed: subseed(seed, &format!("{name}-{step}")),
        };
        let schedule = match name {
            "churn" => churn_schedule(duration),
            _ if workload.writes_under_load => write_schedule(name, duration),
            _ => Vec::new(),
        };
        if name == "churn" {
            // What the read path peaked at; the churn's transient engine
            // copies come and go with the timing of in-flight queries.
            serve_rss_mb = deployment.peak_rss_mb();
            before_churn = admin.events.len();
            if config.traced {
                after_reads = admin.metrics();
            }
        }
        // The router refuses a query that straddles a fleet commit (`ERR
        // internal: … shard generation changed`): traffic under a fleet
        // swap would be failed operations, so a fleet's churn runs idle.
        let idle = name == "churn" && workload.topology == Topology::Fleet;
        let conns = if idle { &mut [][..] } else { &mut senders[..] };
        let span = trace.open(format!("phase.{name}"));
        let (samples, ()) = drive(conns, &phase, origin, |start| {
            admin.run_schedule(start, &schedule);
        });
        trace.close(span, vec![("sent", Json::Num(samples.len() as f64))]);
        recorded.push((name, samples));
    }
    // A traced run adds a closed burst with no hook anywhere near it; the
    // two rates differ by what tracing cost on the timed path.
    let untraced_closed = if config.traced {
        let phase = Phase {
            pace: closed,
            duration: share_of_run(BURST_SHARE),
            keys: &keys,
            seed: subseed(seed, "closed-untraced"),
        };
        drive(&mut senders, &phase, origin, |_| ()).0
    } else {
        Vec::new()
    };

    // ---- The final readings.
    let at_end = admin.metrics();
    let queries_after = admin.stats("queries");
    let generation = admin.stats("generation");
    let Admin {
        events,
        probe_samples,
        update_brackets,
        ..
    } = admin;
    drop(senders);
    drop(deployment);

    // ---- Verification, off the timed path.
    let mut oracle = Oracle::replay(&base, &events)?;
    for event in &events {
        tally.op(if event.ok() {
            Ok(())
        } else {
            Err(format!("admin verb answered {:.80}", event.reply))
        });
    }
    let mut pick = Rng::new(subseed(seed, "verify"));
    let phases: Vec<PhaseLog> = recorded
        .into_iter()
        .map(|(name, samples)| {
            let served = samples
                .iter()
                .map(|sample| {
                    let verify = name == "light" || pick.below(VERIFY_ONE_IN) == 0;
                    tally.op(if verify {
                        oracle.check(sample)
                    } else {
                        oracle::parse_topics(&sample.reply).map(|(_, served)| served)
                    })
                })
                .collect();
            PhaseLog {
                name,
                samples,
                served,
            }
        })
        .collect();
    for sample in &probe_samples {
        tally.op(oracle.check(sample));
    }
    // The daemon must have counted exactly the queries that were sent, and
    // made exactly the swaps it acknowledged.
    let sent = phases.iter().map(|p| p.samples.len()).sum::<usize>()
        + untraced_closed.len()
        + probe_samples.len();
    tally.op(match queries_before.zip(queries_after) {
        Some((before, after)) if after - before == sent as f64 => Ok(()),
        readings => Err(format!(
            "daemon counted {readings:?} around {sent} queries sent"
        )),
    });
    let swaps = events.iter().filter(|e| e.ok()).count();
    tally.op(match generation {
        Some(g) if g == (1 + swaps) as f64 => Ok(()),
        reading => Err(format!("generation {reading:?} after {swaps} swaps")),
    });

    // ---- Quality: LRW-A against exact ground truth on small graphs.
    let quality = oracle::quality(seed, Summarizer::Lrw);

    // ---- The end-to-end metrics.
    let traffic = Traffic {
        phases,
        untraced_closed,
        events,
        before_churn,
        after_warmup,
        after_reads,
        at_end,
        update_brackets,
    };
    // Windows of 200 requests in the light phase and of half a second, but
    // no fewer than 200, in the busy one: two to five samples beyond each
    // window's p99, five to twelve windows a phase.
    let light = &traffic.phase("light").samples;
    let busy = &traffic.phase("busy").samples;
    let busy_window = ((workload.busy_qps / 2.0) as usize).max(200);
    let swap_ms = |events: &[AdminEvent], update: bool| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.ok() && matches!(e.swap, Swap::Update(_)) == update)
            .map(AdminEvent::latency_ms)
            .collect()
    };
    let reloads = swap_ms(&traffic.events[before_churn..], false);
    let metric = Metric::new;
    let end_to_end = vec![
        metric("setup_s", setup_s, "s", 1),
        metric(
            "light_p50_ms",
            windowed_percentile(light, 200, 50.0),
            "ms",
            light.len(),
        ),
        metric(
            "light_p99_ms",
            windowed_percentile(light, 200, 99.0),
            "ms",
            light.len(),
        ),
        metric(
            "busy_p50_ms",
            windowed_percentile(busy, busy_window, 50.0),
            "ms",
            busy.len(),
        ),
        metric(
            "busy_p99_ms",
            windowed_percentile(busy, busy_window, 99.0),
            "ms",
            busy.len(),
        ),
        metric(
            "serve_rss_mb",
            serve_rss_mb.ok_or("cannot read VmHWM from /proc")?,
            "MB",
            1,
        ),
        metric("build_s", build_s, "s", 1),
        metric(
            "snapshot_mb",
            snapshot_bytes as f64 / (1024.0 * 1024.0),
            "MB",
            1,
        ),
        metric(
            "coldstart_ms",
            median(&coldstart_ms),
            "ms",
            coldstart_ms.len(),
        ),
        metric("reload_ms", mean(&reloads), "ms", reloads.len()),
        metric(
            "precision_at_10",
            quality.precision,
            "share",
            quality.queries,
        ),
        metric(
            "ok_share",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "share",
            tally.attempted as usize,
        ),
    ];

    // ---- The per-layer metrics and the span log, traced runs only.
    let mut per_layer = Vec::new();
    if config.traced {
        for phase in &traffic.phases {
            for (sample, served) in phase.samples.iter().zip(&phase.served) {
                trace.request(phase.name, sample, *served);
            }
        }
        for event in &traffic.events {
            let name = match event.swap {
                Swap::Update(_) => "admin.update",
                Swap::Reload => "admin.reload",
            };
            trace.record(name, event.sent_ns, event.recv_ns);
        }
        let context = layers::Context {
            workload,
            config,
            scratch: &scratch,
            engine_dir: &dirs.engine,
            base: &base,
            keys: &keys,
            origin,
            generate_s,
            build_rcl_s,
            update_p50_ms: median(&swap_ms(&traffic.events, true)),
            quality,
            with_delta: &oracle.with_delta,
        };
        per_layer = layers::measure(&context, &traffic, &mut trace)?;
    }

    Ok(Report {
        workload: workload.name,
        end_to_end,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.mismatches == 0,
        notes: tally.notes,
        trace: config.traced.then_some(trace),
    })
}
