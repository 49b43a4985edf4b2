//! The per-layer metrics of a traced run. A layer is a module of the
//! repository; it is measured from outside — by what the wire says
//! (`TOPICS … fresh|cached <micros>`, `METRICS` deltas) and by timing calls
//! into a short list of public functions — so no file outside `ledger/`
//! changes. Layers a workload's deployment does not have read 0.

use crate::fixtures::{self, Summarizer};
use crate::loadgen::{drive, subseed, KeySpace, Pace, Phase, Sample};
use crate::oracle::{self, query_of, AdminEvent, Served, Swap};
use crate::procs::{Daemon, Scratch};
use crate::stats::{mean, percentile, sorted};
use crate::trace::Trace;
use crate::wire::{self, Conn, Counters};
use crate::workloads::{Config, Metric, Topology, Workload};
use pit::PitEngine;
use pit_server::protocol::{Request, Response};
use std::path::Path;
use std::time::{Duration, Instant};

/// The per-layer metrics, in the order `BENCHMARK.json` declares them.
pub const PER_LAYER: [&str; 53] = [
    "datasets.generate_s",
    "cli.build_rcl_s",
    "walk.build_s",
    "walk.index_mb",
    "index.gamma_build_s",
    "index.gamma_entries",
    "index.gamma_mb",
    "summarize.lrw_s",
    "summarize.lrw_topics_per_s",
    "summarize.reps_total",
    "summarize.rcl_s",
    "store.save_s",
    "store.split_s",
    "store.load_ms",
    "store.mapped_mb",
    "eval.precision_at_10_rcl",
    "topics.related_topics_us",
    "search.query_us_p50",
    "search.query_us_p99",
    "search.candidates_per_query",
    "search.pruned_share",
    "search.expand_rounds_per_query",
    "search.probed_tables_per_query",
    "search.loaded_reps_per_query",
    "protocol.parse_us",
    "protocol.render_us",
    "server.service_us_mean",
    "pool.queue_wait_us_mean",
    "pool.exec_us_mean",
    "pool.shed",
    "pool.timeouts",
    "frontend.residual_us_p50_light",
    "frontend.residual_us_p50_busy",
    "cache.hit_share",
    "cache.survivor_share",
    "cache.stale_evictions",
    "coalesce.joined_share",
    "update.with_delta_ms",
    "admin.update_p50_ms",
    "state.update_ms_mean",
    "state.reload_under_load_ms",
    "router.fanout_us_mean",
    "router.shards_pruned_per_query",
    "router.partial_share",
    "router.local2_service_us_mean",
    "router.scatter_overhead_us",
    "eval.precision_at_10_lrw",
    "baselines.propagation_query_us",
    "loadgen.late_us_p99",
    "loadgen.sent",
    "loadgen.closed_qps",
    "closure.unaccounted_share",
    "trace.overhead_share",
];

/// One traffic phase as recorded: what was sent, and what each reply's
/// head line said (`None` for a reply that was not a complete `TOPICS`).
pub struct PhaseLog {
    pub name: &'static str,
    pub samples: Vec<Sample>,
    pub served: Vec<Option<Served>>,
}

/// Everything a run recorded about its traffic and admin verbs.
pub struct Traffic {
    /// In run order; a traced run has three `closed` bursts.
    pub phases: Vec<PhaseLog>,
    /// A traced run's extra closed burst, with the tracing hooks off.
    pub untraced_closed: Vec<Sample>,
    pub events: Vec<AdminEvent>,
    /// How many of `events` came before the churn (writes under load).
    pub before_churn: usize,
    /// `METRICS` of the front door after warm-up, just before the churn
    /// and at the end, and around each `UPDATE`.
    pub after_warmup: Counters,
    pub after_reads: Counters,
    pub at_end: Counters,
    pub update_brackets: Vec<(Counters, Counters)>,
}

impl Traffic {
    /// The first phase called `name`.
    pub fn phase(&self, name: &str) -> &PhaseLog {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .expect("every phase ran")
    }

    /// Correct replies per second of each closed-loop burst.
    pub fn closed_rates(&self) -> Vec<f64> {
        self.phases
            .iter()
            .filter(|p| p.name == "closed")
            .map(|p| closed_qps(&p.samples, p.served.iter().flatten().count()))
            .collect()
    }

    /// Every answered request before the churn: light, busy and the closed
    /// bursts either side of busy.
    fn reads(&self) -> impl Iterator<Item = (&Sample, &Served)> {
        self.phases
            .iter()
            .take_while(|p| p.name != "churn")
            .flat_map(|p| p.samples.iter().zip(&p.served))
            .filter_map(|(sample, served)| Some((sample, served.as_ref()?)))
    }
}

/// Correct replies per second of a closed-loop phase.
pub fn closed_qps(samples: &[Sample], correct: usize) -> f64 {
    let start = samples.iter().map(|s| s.sent_ns).min();
    let end = samples.iter().map(|s| s.recv_ns).max();
    match start.zip(end) {
        Some((start, end)) if end > start => correct as f64 / ((end - start) as f64 / 1e9),
        _ => 0.0,
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Mean in-process cost of each step of the query path, in µs.
struct QueryPath {
    parse_us: f64,
    related_us: f64,
    search_us: f64,
    render_us: f64,
}

/// Replay `samples`' keys in-process on `engine`: request parse, related
/// topics, the search itself and the reply render, each timed alone.
fn query_path(engine: &PitEngine, samples: &[Sample]) -> (QueryPath, Vec<Metric>) {
    let n = samples.len().min(2_000);
    let (mut parse, mut related, mut render) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut search_us = Vec::with_capacity(n);
    let (mut candidates, mut pruned, mut rounds, mut tables, mut reps) = (0, 0, 0, 0, 0);
    for sample in &samples[..n] {
        let request = sample.key.request();
        let t = Instant::now();
        let parsed = Request::parse(&request);
        parse += t.elapsed();
        std::hint::black_box(parsed).expect("the ledger's own request parses");

        let query = query_of(sample.key);
        let t = Instant::now();
        let related_topics = query.related_topics(engine.space());
        related += t.elapsed();
        std::hint::black_box(related_topics);

        let t = Instant::now();
        let outcome = engine.search(&query, crate::loadgen::K);
        search_us.push(t.elapsed().as_secs_f64() * 1e6);
        candidates += outcome.candidate_topics;
        pruned += outcome.pruned_topics;
        rounds += outcome.expand_rounds;
        tables += outcome.probed_tables;
        reps += outcome.loaded_reps;

        let reply = Response::Topics {
            ranked: outcome.top_k.iter().map(|s| (s.topic.0, s.score)).collect(),
            cached: false,
            micros: 0,
            partial: Vec::new(),
        };
        let t = Instant::now();
        let text = reply.render();
        render += t.elapsed();
        std::hint::black_box(text);
    }
    let per = |total: Duration| total.as_secs_f64() * 1e6 / n.max(1) as f64;
    let each = |count: usize| count as f64 / n.max(1) as f64;
    let ordered = sorted(&search_us);
    let path = QueryPath {
        parse_us: per(parse),
        related_us: per(related),
        search_us: mean(&search_us),
        render_us: per(render),
    };
    (
        path,
        vec![
            Metric::new("topics.related_topics_us", per(related), "us", n),
            Metric::new("search.query_us_p50", percentile(&ordered, 50.0), "us", n),
            Metric::new("search.query_us_p99", percentile(&ordered, 99.0), "us", n),
            Metric::new("search.candidates_per_query", each(candidates), "count", n),
            Metric::new(
                "search.pruned_share",
                ratio(pruned as f64, candidates as f64),
                "share",
                n,
            ),
            Metric::new("search.expand_rounds_per_query", each(rounds), "count", n),
            Metric::new("search.probed_tables_per_query", each(tables), "count", n),
            Metric::new("search.loaded_reps_per_query", each(reps), "count", n),
            Metric::new("protocol.parse_us", per(parse), "us", n),
            Metric::new("protocol.render_us", per(render), "us", n),
        ],
    )
}

/// The offline layers, one timed call each: the serving fixture rebuilt
/// in-process stage by stage, saved, split and loaded; RCL-A on its own
/// fixture; and both summarizers' precision on the ground-truth graph.
fn offline_layers(
    workload: &Workload,
    seed: u64,
    scratch: &Scratch,
    trace: &mut Trace,
) -> Result<Vec<Metric>, String> {
    let dataset = workload.serving.generate(seed);
    let topics = dataset.space.topic_count();
    let handle = trace.open("offline.build_lrw");
    let (engine, stages) = fixtures::build_in_process(dataset, Summarizer::Lrw);
    trace.close(handle, Vec::new());
    let lrw_s = stages.summarize.as_secs_f64();

    let (_, rcl_stages) = trace.stage("offline.build_rcl", || {
        fixtures::build_in_process(fixtures::BAND1K.generate(seed), Summarizer::Rcl)
    });

    let dir = scratch.join("layers-engine");
    let started = Instant::now();
    trace
        .stage("store.save", || pit::store::save_engine(&dir, &engine))
        .map_err(|e| format!("save: {e}"))?;
    let save_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    trace
        .stage("store.split", || {
            pit::shard::split_snapshot(&dir, &scratch.join("layers-shards"), 2)
        })
        .map_err(|e| format!("split: {e}"))?;
    let split_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let loaded = trace
        .stage("store.load", || pit::store::load_engine(&dir))
        .map_err(|e| format!("load: {e}"))?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;

    let rcl_quality = oracle::quality(seed, Summarizer::Rcl);

    Ok(vec![
        Metric::new("walk.build_s", stages.walk.as_secs_f64(), "s", 1),
        Metric::new(
            "walk.index_mb",
            mib(engine.walks().heap_size_bytes()),
            "MB",
            1,
        ),
        Metric::new("index.gamma_build_s", stages.gamma.as_secs_f64(), "s", 1),
        Metric::new(
            "index.gamma_entries",
            engine.propagation().total_entries() as f64,
            "count",
            1,
        ),
        Metric::new(
            "index.gamma_mb",
            mib(engine.propagation().heap_size_bytes()),
            "MB",
            1,
        ),
        Metric::new("summarize.lrw_s", lrw_s, "s", 1),
        Metric::new(
            "summarize.lrw_topics_per_s",
            ratio(topics as f64, lrw_s),
            "1/s",
            topics,
        ),
        Metric::new(
            "summarize.reps_total",
            engine.reps().total_reps() as f64,
            "count",
            1,
        ),
        Metric::new(
            "summarize.rcl_s",
            rcl_stages.summarize.as_secs_f64(),
            "s",
            1,
        ),
        Metric::new("store.save_s", save_s, "s", 1),
        Metric::new("store.split_s", split_s, "s", 1),
        Metric::new("store.load_ms", load_ms, "ms", 1),
        Metric::new("store.mapped_mb", mib(loaded.mapped_bytes()), "MB", 1),
        Metric::new(
            "eval.precision_at_10_rcl",
            rcl_quality.precision,
            "share",
            rcl_quality.queries,
        ),
    ])
}

/// Mean of the server's own `micros` over one closed-loop client's replies
/// from a freshly spawned daemon — the router-in-one-process comparison.
fn local_pass(
    config: &Config,
    args: &[&str],
    keys: &KeySpace,
    log: &Path,
    origin: Instant,
) -> Result<f64, String> {
    let daemon = Daemon::spawn(&config.pit, args, log)?;
    let mut conns = [Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?];
    let phase = Phase {
        pace: Pace::Closed { window: 1 },
        duration: Duration::from_secs_f64((config.seconds * 0.1).max(0.5)),
        keys,
        seed: subseed(config.seed, "local"),
    };
    let (samples, ()) = drive(&mut conns, &phase, origin, |_| ());
    let micros: Vec<f64> = samples
        .iter()
        .filter_map(|s| oracle::parse_topics(&s.reply).ok())
        .map(|(_, served)| served.micros as f64)
        .collect();
    Ok(mean(&micros))
}

/// What the in-process layers need from the run that just finished.
pub struct Context<'a> {
    pub workload: &'a Workload,
    pub config: &'a Config,
    pub scratch: &'a Scratch,
    pub engine_dir: &'a Path,
    pub base: &'a PitEngine,
    pub keys: &'a KeySpace,
    pub origin: Instant,
    pub generate_s: f64,
    /// Wall time of the real `pit build --summarizer rcl` on band1k.
    pub build_rcl_s: f64,
    /// Median `UPDATE` → `GEN` of the run, as the admin connection saw it.
    pub update_p50_ms: f64,
    pub quality: oracle::Quality,
    pub with_delta: &'a [Duration],
}

/// Every per-layer metric, in `BENCHMARK.json` order.
///
/// # Errors
/// A fixture that cannot be written or a daemon that does not start.
pub fn measure(
    ctx: &Context<'_>,
    traffic: &Traffic,
    trace: &mut Trace,
) -> Result<Vec<Metric>, String> {
    let mut out = vec![
        Metric::new("datasets.generate_s", ctx.generate_s, "s", 1),
        Metric::new("cli.build_rcl_s", ctx.build_rcl_s, "s", 1),
    ];
    out.extend(offline_layers(
        ctx.workload,
        ctx.config.seed,
        ctx.scratch,
        trace,
    )?);

    let (path, path_metrics) = query_path(ctx.base, &traffic.phase("busy").samples);
    out.extend(path_metrics);

    // ---- What the wire says about the serving layers.
    let reads: Vec<(&Sample, &Served)> = traffic.reads().collect();
    let served_us: Vec<f64> = reads.iter().map(|(_, s)| s.micros as f64).collect();
    let during_reads = wire::delta(&traffic.after_warmup, &traffic.after_reads);
    let whole_run = wire::delta(&traffic.after_warmup, &traffic.at_end);
    let queries = wire::reading(&during_reads, "pit_queries_total");
    let queue_wait_us = wire::histogram_mean(&during_reads, "pit_queue_wait_us");
    out.extend([
        Metric::new(
            "server.service_us_mean",
            mean(&served_us),
            "us",
            served_us.len(),
        ),
        Metric::new(
            "pool.queue_wait_us_mean",
            queue_wait_us,
            "us",
            queries as usize,
        ),
        Metric::new(
            "pool.exec_us_mean",
            wire::histogram_mean(&during_reads, "pit_execution_us"),
            "us",
            queries as usize,
        ),
        Metric::new(
            "pool.shed",
            wire::reading(&whole_run, "pit_shed_total"),
            "count",
            1,
        ),
        Metric::new(
            "pool.timeouts",
            wire::reading(&whole_run, "pit_timeouts_total"),
            "count",
            1,
        ),
    ]);
    for (name, phase) in [
        ("frontend.residual_us_p50_light", "light"),
        ("frontend.residual_us_p50_busy", "busy"),
    ] {
        let log = traffic.phase(phase);
        let residual: Vec<f64> = log
            .samples
            .iter()
            .zip(&log.served)
            .filter_map(|(sample, served)| Some(sample.rtt_us() - served.as_ref()?.micros as f64))
            .collect();
        out.push(Metric::new(
            name,
            percentile(&sorted(&residual), 50.0),
            "us",
            residual.len(),
        ));
    }

    let cached = reads.iter().filter(|(_, s)| s.cached).count();
    let fresh_share = 1.0 - ratio(cached as f64, reads.len() as f64);
    let (mut survivors, mut entries, mut update_us, mut update_count) = (0.0, 0.0, 0.0, 0.0);
    for (before, after) in &traffic.update_brackets {
        let moved = wire::delta(before, after);
        survivors += wire::reading(&moved, "pit_cache_survivors_total");
        entries += wire::reading(before, "pit_cache_entries_live");
        update_us += wire::reading(&moved, "pit_reload_us_sum");
        update_count += wire::reading(&moved, "pit_reload_us_count");
    }
    let reloads_under_load: Vec<f64> = traffic.events[..traffic.before_churn]
        .iter()
        .filter(|e| matches!(e.swap, Swap::Reload))
        .map(AdminEvent::latency_ms)
        .collect();
    let with_delta_ms: Vec<f64> = ctx
        .with_delta
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    out.extend([
        Metric::new(
            "cache.hit_share",
            ratio(cached as f64, reads.len() as f64),
            "share",
            reads.len(),
        ),
        Metric::new(
            "cache.survivor_share",
            ratio(survivors, entries),
            "share",
            traffic.update_brackets.len(),
        ),
        Metric::new(
            "cache.stale_evictions",
            wire::reading(&whole_run, "pit_cache_stale_evictions_total"),
            "count",
            1,
        ),
        Metric::new(
            "coalesce.joined_share",
            ratio(
                wire::reading(&during_reads, "pit_coalesced_queries_total"),
                queries,
            ),
            "share",
            queries as usize,
        ),
        Metric::new(
            "update.with_delta_ms",
            mean(&with_delta_ms),
            "ms",
            with_delta_ms.len(),
        ),
        Metric::new(
            "admin.update_p50_ms",
            ctx.update_p50_ms,
            "ms",
            ctx.with_delta.len(),
        ),
        Metric::new(
            "state.update_ms_mean",
            ratio(update_us, update_count) / 1e3,
            "ms",
            update_count as usize,
        ),
        Metric::new(
            "state.reload_under_load_ms",
            mean(&reloads_under_load),
            "ms",
            reloads_under_load.len(),
        ),
    ]);

    // ---- The router: its wait for shards, its pruning, and (fleet only)
    // what scatter-gather costs with no wire in between.
    let fanouts = wire::labeled_sum(&during_reads, "pit_shard_fanout_us_count");
    out.extend([
        Metric::new(
            "router.fanout_us_mean",
            ratio(
                wire::labeled_sum(&during_reads, "pit_shard_fanout_us_sum"),
                fanouts,
            ),
            "us",
            fanouts as usize,
        ),
        Metric::new(
            "router.shards_pruned_per_query",
            ratio(
                wire::reading(&during_reads, "pit_shards_pruned_total"),
                queries,
            ),
            "count",
            queries as usize,
        ),
        Metric::new(
            "router.partial_share",
            ratio(
                wire::reading(&during_reads, "pit_partial_replies_total"),
                queries,
            ),
            "share",
            queries as usize,
        ),
    ]);
    let (mut local2_us, mut scatter_us) = (0.0, 0.0);
    if ctx.workload.topology == Topology::Fleet {
        let engine = ctx.engine_dir.to_str().expect("scratch paths are UTF-8");
        let log = ctx.scratch.join("pit.log");
        let single_us = trace.stage("router.local_single", || {
            local_pass(
                ctx.config,
                &["serve", "--engine", engine, "--cache", "0"],
                ctx.keys,
                &log,
                ctx.origin,
            )
        })?;
        local2_us = trace.stage("router.local2", || {
            local_pass(
                ctx.config,
                &[
                    "route",
                    "--engine",
                    engine,
                    "--in-process",
                    "2",
                    "--cache",
                    "0",
                ],
                ctx.keys,
                &log,
                ctx.origin,
            )
        })?;
        scatter_us = local2_us - single_us;
    }
    out.extend([
        Metric::new("router.local2_service_us_mean", local2_us, "us", 1),
        Metric::new("router.scatter_overhead_us", scatter_us, "us", 1),
        Metric::new(
            "eval.precision_at_10_lrw",
            ctx.quality.precision,
            "share",
            ctx.quality.queries,
        ),
        Metric::new(
            "baselines.propagation_query_us",
            ctx.quality.truth_us,
            "us",
            ctx.quality.queries,
        ),
    ]);

    // ---- The generator itself, the closure check, and tracing's own cost.
    let open: Vec<&Sample> = traffic
        .phases
        .iter()
        .filter(|p| p.name == "light" || p.name == "busy")
        .flat_map(|p| &p.samples)
        .collect();
    let late: Vec<f64> = open.iter().map(|s| s.late_us()).collect();
    let sent: usize = traffic.phases.iter().map(|p| p.samples.len()).sum();
    // The busy phase has one request in flight per connection, so its
    // round trip is one query's whole path and nothing else.
    let busy = traffic.phase("busy");
    let busy_rtt_us = mean(&busy.samples.iter().map(Sample::rtt_us).collect::<Vec<_>>());
    let accounted_us = path.parse_us
        + path.render_us
        + fresh_share * (queue_wait_us + path.related_us + path.search_us);
    let untraced_ok = traffic
        .untraced_closed
        .iter()
        .filter(|s| oracle::parse_topics(&s.reply).is_ok())
        .count();
    let untraced_qps = closed_qps(&traffic.untraced_closed, untraced_ok);
    let closed_rates = traffic.closed_rates();
    out.extend([
        Metric::new(
            "loadgen.late_us_p99",
            percentile(&sorted(&late), 99.0),
            "us",
            late.len(),
        ),
        Metric::new("loadgen.sent", sent as f64, "count", sent),
        Metric::new(
            "loadgen.closed_qps",
            mean(&closed_rates),
            "1/s",
            closed_rates.len(),
        ),
        Metric::new(
            "closure.unaccounted_share",
            ratio(busy_rtt_us - accounted_us, busy_rtt_us),
            "share",
            busy.samples.len(),
        ),
        Metric::new(
            "trace.overhead_share",
            1.0 - ratio(mean(&closed_rates), untraced_qps),
            "share",
            traffic.untraced_closed.len(),
        ),
    ]);
    Ok(out)
}
