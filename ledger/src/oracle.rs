//! The correctness oracle: every checked reply must equal, bit for bit,
//! what `PitEngine::search` answers in-process on the same snapshot — and
//! after an `UPDATE`, on the same `with_delta` chain. Runs after the
//! phases, on recorded replies, so it costs the timed path nothing.

use crate::fixtures::{self, Summarizer};
use crate::loadgen::{subseed, Key, Rng, Sample, K};
use pit::baselines::{rank_top_k, BasePropagation};
use pit::eval::metrics::precision_at_k;
use pit::graph::{NodeId, TermId, TopicId};
use pit::topics::KeywordQuery;
use pit::{Delta, PitEngine};
use pit_server::protocol::Response;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The in-process query for a wire key. Hub keyword `query-<i>` is term
/// `i` (the generator interns hub terms first; [`check_vocabulary`] holds
/// it to that).
pub fn query_of(key: Key) -> KeywordQuery {
    KeywordQuery::new(NodeId(key.user), vec![TermId(u32::from(key.keyword))])
}

/// # Errors
/// A hub keyword the snapshot's vocabulary does not map to its index.
pub fn check_vocabulary(engine: &PitEngine, keywords: u16) -> Result<(), String> {
    let vocab = engine.vocab().ok_or("snapshot carries no vocabulary")?;
    for i in 0..keywords {
        if vocab.get(&format!("query-{i}")) != Some(TermId(u32::from(i))) {
            return Err(format!("keyword query-{i} is not term {i}"));
        }
    }
    Ok(())
}

/// How every oracle-contradiction error starts; such a failure makes the
/// whole run incorrect, not just one operation failed.
pub const MISMATCH: &str = "oracle mismatch";

/// An admin operation that moved the daemon to its next engine.
#[derive(Clone, Debug)]
pub enum Swap {
    /// `UPDATE` with this delta, applied to whatever was serving.
    Update(Delta),
    /// `RELOAD` of the base snapshot.
    Reload,
}

/// One admin operation as the coordinator saw it.
#[derive(Clone, Debug)]
pub struct AdminEvent {
    pub swap: Swap,
    pub sent_ns: u64,
    pub recv_ns: u64,
    /// The raw reply; anything but `GEN <n>` is a failed operation.
    pub reply: String,
}

impl AdminEvent {
    pub fn ok(&self) -> bool {
        matches!(Response::parse(&self.reply), Ok(Response::Generation(_)))
    }

    pub fn latency_ms(&self) -> f64 {
        (self.recv_ns - self.sent_ns) as f64 / 1e6
    }
}

/// What the head line of a `TOPICS` reply says about the server's side.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    pub cached: bool,
    pub micros: u64,
}

/// The engines a daemon served over a run: the base snapshot, then one per
/// admin event, replayed in-process.
pub struct Oracle<'a> {
    /// `engines[0]` is the base; the rest come from the `with_delta` chain.
    base: &'a PitEngine,
    derived: Vec<PitEngine>,
    /// `epoch_engine[e]`: which engine served after `e` admin events
    /// (0 = base, `i + 1` = `derived[i]`).
    epoch_engine: Vec<usize>,
    /// `(sent_ns, recv_ns)` of each admin event.
    windows: Vec<(u64, u64)>,
    memo: HashMap<(usize, Key), Vec<(u32, u64)>>,
    /// Wall time of each in-process `with_delta`.
    pub with_delta: Vec<Duration>,
}

impl<'a> Oracle<'a> {
    /// Replay `events` on `base`.
    ///
    /// # Errors
    /// A delta the in-process engine rejects.
    pub fn replay(base: &'a PitEngine, events: &[AdminEvent]) -> Result<Oracle<'a>, String> {
        let mut derived: Vec<PitEngine> = Vec::new();
        let mut epoch_engine = vec![0];
        let mut with_delta = Vec::new();
        for event in events {
            let current = *epoch_engine.last().expect("epoch 0 exists");
            let next = match &event.swap {
                Swap::Reload => 0,
                Swap::Update(delta) => {
                    let from = if current == 0 {
                        base
                    } else {
                        &derived[current - 1]
                    };
                    let started = Instant::now();
                    let (engine, _) = from
                        .with_delta(delta)
                        .map_err(|e| format!("oracle rejected a delta: {e}"))?;
                    with_delta.push(started.elapsed());
                    derived.push(engine);
                    derived.len()
                }
            };
            epoch_engine.push(next);
        }
        Ok(Oracle {
            base,
            derived,
            epoch_engine,
            windows: events.iter().map(|e| (e.sent_ns, e.recv_ns)).collect(),
            memo: HashMap::new(),
            with_delta,
        })
    }

    fn expected(&mut self, engine: usize, key: Key) -> &[(u32, u64)] {
        let (base, derived) = (self.base, &self.derived);
        self.memo.entry((engine, key)).or_insert_with(|| {
            let engine = if engine == 0 {
                base
            } else {
                &derived[engine - 1]
            };
            engine
                .search(&query_of(key), K)
                .top_k
                .iter()
                .map(|s| (s.topic.0, s.score.to_bits()))
                .collect()
        })
    }

    /// Check one recorded exchange. A swap takes effect somewhere between
    /// the admin request leaving and its `GEN` arriving, so a query that
    /// overlaps that window may rightly see either side of it; a query
    /// clear of every window has exactly one right answer.
    ///
    /// # Errors
    /// Why the reply is wrong: not a complete `TOPICS`, or a ranking that
    /// differs from every engine that could have been serving.
    pub fn check(&mut self, sample: &Sample) -> Result<Served, String> {
        let (ranked, served) = parse_topics(&sample.reply)?;
        let got: Vec<(u32, u64)> = ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect();
        let epochs = self.epoch_engine.len();
        let mut tried = Vec::new();
        for epoch in 0..epochs {
            // Epoch `e` can be serving from the moment admin event `e − 1`
            // was sent until the moment event `e` was acknowledged.
            let opens = if epoch == 0 {
                0
            } else {
                self.windows[epoch - 1].0
            };
            let closes = self.windows.get(epoch).map_or(u64::MAX, |w| w.1);
            if opens > sample.recv_ns || sample.sent_ns > closes {
                continue;
            }
            let engine = self.epoch_engine[epoch];
            if tried.contains(&engine) {
                continue;
            }
            if self.expected(engine, sample.key) == got.as_slice() {
                return Ok(served);
            }
            tried.push(engine);
        }
        Err(format!(
            "{MISMATCH} for {:?}: served {:?}, none of engines {tried:?} ranks it so",
            sample.key, ranked
        ))
    }
}

/// Split a reply into its ranking and head-line facts.
///
/// # Errors
/// The reply is an `ERR`, is partial, or is not a `TOPICS` frame at all.
pub fn parse_topics(reply: &str) -> Result<(Vec<(u32, f64)>, Served), String> {
    match Response::parse(reply) {
        Ok(Response::Topics {
            ranked,
            cached,
            micros,
            partial,
        }) if partial.is_empty() => Ok((ranked, Served { cached, micros })),
        Ok(Response::Topics { partial, .. }) => Err(format!("partial reply, missing {partial:?}")),
        Ok(other) => Err(format!("unexpected reply {}", other.render())),
        Err(e) => Err(format!("unparseable reply ({e}): {reply:.80}")),
    }
}

/// Mean precision@10 of `engine`'s rankings against BasePropagation — the
/// exact sum over *all* topic nodes on the same Γ index, i.e. what the
/// summaries approximate — over `queries` seeded (user, hub keyword) pairs.
/// Also returns the mean wall time of one ground-truth ranking.
fn precision_at_10(engine: &PitEngine, keywords: u16, queries: usize, seed: u64) -> (f64, f64) {
    let truth_engine = BasePropagation::new(engine.space(), engine.propagation());
    let users = engine.graph().node_count() as u64;
    let mut rng = Rng::new(seed);
    let mut total = 0.0;
    let mut truth_time = Duration::ZERO;
    for _ in 0..queries {
        let query = query_of(Key {
            user: rng.below(users) as u32,
            keyword: rng.below(u64::from(keywords)) as u16,
        });
        let started = Instant::now();
        let truth: Vec<TopicId> = rank_top_k(&truth_engine, engine.space(), &query, K)
            .iter()
            .map(|r| r.topic)
            .collect();
        truth_time += started.elapsed();
        let got: Vec<TopicId> = engine
            .search(&query, K)
            .top_k
            .iter()
            .map(|s| s.topic)
            .collect();
        total += precision_at_k(&got, &truth, K);
    }
    (
        total / queries as f64,
        truth_time.as_secs_f64() * 1e6 / queries as f64,
    )
}

/// What [`quality`] found.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    pub precision: f64,
    /// Mean wall time of one ground-truth ranking, µs.
    pub truth_us: f64,
    pub queries: usize,
}

/// Ground-truth graphs averaged into one quality figure: a single 2 000-node
/// graph moves precision by ±3 % with the seed.
const TRUTH_GRAPHS: usize = 3;
const TRUTH_QUERIES: usize = 400;

/// Precision@10 of `summarizer` on `pl2k`, built in-process with
/// `pit build`'s parameters and averaged over [`TRUTH_GRAPHS`] seeded graphs.
pub fn quality(seed: u64, summarizer: Summarizer) -> Quality {
    let (mut precision, mut truth_us) = (0.0, 0.0);
    for graph in 0..TRUTH_GRAPHS {
        let truth = fixtures::PL2K.generate(subseed(seed, &format!("truth-{graph}")));
        let keywords = truth.spec.topics.query_term_count as u16;
        let (engine, _) = fixtures::build_in_process(truth, summarizer);
        let (p, us) = precision_at_10(&engine, keywords, TRUTH_QUERIES, subseed(seed, "precision"));
        precision += p / TRUTH_GRAPHS as f64;
        truth_us += us / TRUTH_GRAPHS as f64;
    }
    Quality {
        precision,
        truth_us,
        queries: TRUTH_GRAPHS * TRUTH_QUERIES,
    }
}
