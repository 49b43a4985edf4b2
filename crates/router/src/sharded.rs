//! The scatter-gather engine: one [`SearchDriver`] — the exact single-node
//! Algorithm 10/11 state machine — driven over N shard transports.
//!
//! The router is a *coordinator*, not a second search implementation. Every
//! score mutation, absorption, and pruning decision happens inside the
//! shared driver, in the canonical probe order; shards are pure Γ-table
//! probe servers. That is what makes a sharded ranking bit-identical to the
//! single-node one: there is no second ranking code path to diverge, and
//! the wire transports `f64`s bit-exactly (`{:.17e}`).
//!
//! Cross-shard §5.2 pruning falls out of the same structure: the driver
//! stops the moment the global upper bound proves the top-k settled, and
//! whatever frontier remains — including entire shards never probed — is
//! simply skipped. [`ServeOutcome::shards_pruned`] counts the distinct
//! shards owning that unprobed remainder.
//!
//! Generation coherence: the generation vector is captured at construction
//! and every `EXPAND` carries the expected generation; a backend that
//! reloaded mid-query refuses the probe, so a mixed-generation answer is
//! structurally impossible. Reloads fan out in two phases (`PREPARE` all →
//! `COMMIT` all, `ABORT` all on any failure), so the fleet moves
//! all-or-keep-old.

use crate::transport::{LocalTransport, ShardError, ShardTransport};
use pit::shard::slice_engine;
use pit::{shard_of, DeltaScope, PitEngine, ShardSpec};
use pit_graph::NodeId;
use pit_search_core::{
    CancelToken, DriverStep, SearchConfig, SearchDriver, SearchScratch, SearchTracer, TableProbe,
};
use pit_server::protocol::{Admin, ErrKind, ProbeTable, Successor, WireError, ROUTER_EXPAND_CHUNK};
use pit_server::{LocalServeEngine, ServeEngine, ServeError, ServeOutcome};
use pit_topics::KeywordQuery;
use std::sync::Arc;
use std::time::Instant;

/// The sharded serving engine: full search metadata (topic space,
/// vocabulary, representative index — small and replicated) plus one
/// transport per shard owning the user partition's Γ tables and walks.
pub struct ShardedEngine {
    /// Replicated metadata engine. Loaded from any shard snapshot — the
    /// space, vocabulary, representatives, and θ are identical across
    /// shards; only Γ tables and walk rows are partitioned.
    meta: Arc<PitEngine>,
    shards: Vec<Arc<dyn ShardTransport>>,
    /// Per-shard serving generations captured at construction. Queries
    /// admitted against this engine probe exactly these generations.
    gens: Vec<u64>,
}

impl ShardedEngine {
    /// Assemble a router over `shards`, interrogating each backend for its
    /// shard position and generation and validating the fleet layout:
    /// backend `i` must serve shard `i` of exactly `shards.len()`.
    ///
    /// # Errors
    /// A human-readable reason when a backend is unreachable or the fleet
    /// layout is inconsistent.
    pub fn assemble(
        meta: Arc<PitEngine>,
        shards: Vec<Arc<dyn ShardTransport>>,
    ) -> Result<Self, String> {
        let count = shards.len() as u32;
        if count == 0 {
            return Err("router needs at least one shard".to_string());
        }
        let mut gens = Vec::with_capacity(shards.len());
        for (i, t) in shards.iter().enumerate() {
            let (index, total, gen) = t
                .shard_info()
                .map_err(|e| format!("shard {i} ({}): {}", t.location(), e.describe()))?;
            // A full (unsharded) single backend reports 0/1 and is a valid
            // one-shard fleet; anything else must match its slot exactly.
            if index != i as u32 || total != count {
                return Err(format!(
                    "shard {i} ({}) serves slice {index}/{total}, expected {i}/{count} — \
                     wrong backend wiring",
                    t.location()
                ));
            }
            gens.push(gen);
        }
        Ok(ShardedEngine { meta, shards, gens })
    }

    /// Split a full engine into `count` in-process shards — slice each
    /// partition's Γ tables and walk rows, keep the full engine as the
    /// router's metadata. The property tests drive this to prove sharded
    /// rankings bit-identical to single-node ones.
    pub fn split(engine: &Arc<PitEngine>, count: u32) -> Self {
        let shards: Vec<Arc<dyn ShardTransport>> = (0..count)
            .map(|index| {
                let spec = ShardSpec::new(index, count);
                let slice = Arc::new(slice_engine(engine, spec));
                Arc::new(LocalTransport::new(Arc::new(LocalServeEngine::sharded(
                    slice, spec,
                )))) as Arc<dyn ShardTransport>
            })
            .collect();
        let gens = vec![1; count as usize];
        ShardedEngine {
            meta: Arc::clone(engine),
            shards,
            gens,
        }
    }

    /// The per-shard generation vector this engine was admitted with.
    pub fn generations(&self) -> &[u64] {
        &self.gens
    }

    /// The replicated metadata engine.
    pub fn meta(&self) -> &Arc<PitEngine> {
        &self.meta
    }
}

/// Strip a backend's own `reload-failed` class before re-wrapping, so
/// fleet errors read `reload-failed: shard 2 (…): <reason>` instead of
/// stuttering the class twice.
fn strip_class(reason: &str) -> &str {
    reason
        .strip_prefix(ErrKind::ReloadFailed.as_str())
        .and_then(|rest| rest.strip_prefix(':'))
        .map(str::trim)
        .unwrap_or(reason)
}

/// Convert one wire table into the driver's probe form. The `f64`s are
/// bit-exact off the wire.
fn to_table_probe(t: &ProbeTable) -> TableProbe {
    TableProbe {
        hits: t.hits.iter().map(|&(x, p)| (NodeId(x), p)).collect(),
        cands: t.cands.iter().map(|&(w, ep)| (NodeId(w), ep)).collect(),
    }
}

/// One shard's scatter result for a round: the tables (in request order)
/// or the classified failure, plus the round-trip wait.
type ShardReply = (Result<Vec<ProbeTable>, ShardError>, u64);

impl ServeEngine for ShardedEngine {
    fn node_count(&self) -> usize {
        self.meta.graph().node_count()
    }

    fn topic_count(&self) -> usize {
        self.meta.space().topic_count()
    }

    fn index_bytes(&self) -> usize {
        // The router's own resident footprint (replicated metadata);
        // shards report their slices via their own STATS.
        self.meta.index_bytes()
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        // The router answers for the union — it is not a slice, and
        // `forbid_direct_query` must stay None.
        None
    }

    fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    fn resolve_terms(&self, keywords: &[String]) -> Result<Vec<pit_graph::TermId>, WireError> {
        pit_server::engine::resolve_terms(self.meta.vocab(), keywords)
    }

    fn try_search(
        &self,
        query: &KeywordQuery,
        k: usize,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &mut SearchScratch,
    ) -> Result<ServeOutcome, ServeError> {
        let count = self.shards.len() as u32;
        let config = SearchConfig {
            k,
            max_expand_rounds: self.meta.max_expand_rounds(),
            prune: true,
        };
        let mut driver = SearchDriver::begin(
            self.meta.space(),
            self.meta.reps(),
            config,
            query,
            self.meta.graph().node_count(),
            self.meta.propagation().config().theta,
            cancel,
            tracer,
            scratch,
        )
        .map_err(ServeError::Search)?;

        let terms: Vec<u32> = query.terms.iter().map(|t| t.0).collect();
        let deadline = cancel.deadline();
        // A shard that failed once is dead for the rest of this query: its
        // remaining probes are skipped without another RPC, and it appears
        // exactly once in the partial provenance.
        let mut dead: Vec<Option<ShardError>> = vec![None; count as usize];
        let mut partial: Vec<(u32, String)> = Vec::new();
        let mut fanout_micros: Vec<u64> = vec![0; count as usize];
        let mut probed: Vec<bool> = vec![false; count as usize];
        let mut seed_round = true;

        loop {
            let probes = match driver
                .next_step(cancel, tracer)
                .map_err(ServeError::Search)?
            {
                DriverStep::Done(_) => break,
                DriverStep::Probe(probes) => probes,
            };

            // Partition the round by owner shard, preserving issue order
            // within each shard.
            let mut by_shard: Vec<Vec<(u32, f64)>> = vec![Vec::new(); count as usize];
            for &(u, ep_u) in &probes {
                by_shard[shard_of(u, count) as usize].push((u.0, ep_u));
            }

            // Scatter: one thread per shard with work this round. Each
            // thread issues its probes in chunks over its own transport.
            let mut replies: Vec<Option<ShardReply>> = (0..count).map(|_| None).collect();
            std::thread::scope(|scope| {
                for (i, slot) in replies.iter_mut().enumerate() {
                    if by_shard[i].is_empty() || dead[i].is_some() {
                        continue;
                    }
                    let shard_probes = &by_shard[i];
                    let transport = &self.shards[i];
                    let gen = self.gens[i];
                    let terms = &terms;
                    scope.spawn(move || {
                        let started = Instant::now();
                        let mut tables = Vec::with_capacity(shard_probes.len());
                        let mut result = Ok(());
                        for chunk in shard_probes.chunks(ROUTER_EXPAND_CHUNK) {
                            match transport.expand(gen, terms, chunk, deadline) {
                                Ok((mut t, _bound)) => tables.append(&mut t),
                                Err(e) => {
                                    result = Err(e);
                                    break;
                                }
                            }
                        }
                        let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        *slot = Some((result.map(|()| tables), micros));
                    });
                }
            });

            // Book failures once per shard, then feed every reply back in
            // the exact order the probe list was issued — the absorption
            // order bit-identity rests on.
            for (i, reply) in replies.iter().enumerate() {
                let Some((result, micros)) = reply else {
                    continue;
                };
                fanout_micros[i] += micros;
                probed[i] = true;
                if let Err(e) = result {
                    if seed_round {
                        // The query user's own Γ(v) seeds the whole search;
                        // without it there is no honest ranking to degrade.
                        return Err(ServeError::Shard(format!(
                            "home shard {i} ({}) could not seed the search: {}",
                            self.shards[i].location(),
                            e.describe()
                        )));
                    }
                    partial.push((i as u32, e.word().to_string()));
                    dead[i] = Some(e.clone());
                }
            }
            let mut cursors = vec![0usize; count as usize];
            for &(u, _ep_u) in &probes {
                let sh = shard_of(u, count) as usize;
                let table = match &replies[sh] {
                    Some((Ok(tables), _)) => {
                        let t = &tables[cursors[sh]];
                        cursors[sh] += 1;
                        if t.node != u.0 {
                            // A shard answering out of order is a protocol
                            // fault; refuse its whole round.
                            if dead[sh].is_none() {
                                let fault = ShardError::Internal(format!(
                                    "shard {sh} answered table {} for probe {}",
                                    t.node, u.0
                                ));
                                partial.push((sh as u32, fault.word().to_string()));
                                dead[sh] = Some(fault);
                            }
                            None
                        } else {
                            Some(to_table_probe(t))
                        }
                    }
                    _ => None,
                };
                match table {
                    Some(t) => driver
                        .feed(cancel, tracer, &t)
                        .map_err(ServeError::Search)?,
                    None => driver.skip_probe(tracer),
                }
            }
            seed_round = false;
        }

        // §5.2 across the fleet: the frontier the settled bound left
        // unprobed, attributed to its owner shards. A shard in that set
        // that was never contacted at all was pruned outright.
        let mut pruned_shards: Vec<bool> = vec![false; count as usize];
        for (u, _ep) in driver.unexplored() {
            let sh = shard_of(u, count) as usize;
            if !probed[sh] && dead[sh].is_none() {
                pruned_shards[sh] = true;
            }
        }
        let shards_pruned = pruned_shards.iter().filter(|&&p| p).count() as u32;

        let outcome = driver.finish(tracer);
        partial.sort_unstable();
        Ok(ServeOutcome {
            ranked: outcome.top_k.iter().map(|s| (s.topic.0, s.score)).collect(),
            stats: outcome.stats(),
            partial,
            shards_pruned,
            fanout_micros: fanout_micros
                .iter()
                .enumerate()
                .filter(|&(i, _)| probed[i])
                .map(|(i, &m)| (i as u32, m))
                .collect(),
        })
    }

    fn expand(
        &self,
        _terms: &[u32],
        _probes: &[(u32, f64)],
    ) -> Result<(Vec<ProbeTable>, f64), WireError> {
        Err(ErrKind::Malformed
            .because("EXPAND targets a shard backend; the router owns no Γ tables"))
    }

    fn successor(
        &self,
        next: &Successor,
    ) -> Result<(Arc<dyn ServeEngine>, Option<DeltaScope>), WireError> {
        // The router's own next metadata first: cheap, local, and it refuses
        // a bad snapshot or delta before any shard is touched. A split root
        // holds one snapshot per shard, `<dir>/shard-<i>`, any of which
        // carries the replicated metadata. A delta is applied in full — the
        // meta graph and walks are complete, so its summaries are exactly
        // what each shard computes before slicing.
        let (meta, scope, reissue) = match next {
            Successor::Snapshot(dir) => {
                let meta_dir = dir.join("shard-0");
                let meta = pit::store::load_engine(&meta_dir).map_err(|e| {
                    let from = meta_dir.display();
                    ErrKind::ReloadFailed.because(format!("router meta from {from}: {e}"))
                })?;
                (meta, None, format!("RELOAD {}", dir.display()))
            }
            Successor::Delta(delta) => {
                let (meta, report) = self
                    .meta
                    .with_delta(delta)
                    .map_err(|e| ErrKind::ReloadFailed.because(e.to_string()))?;
                (meta, Some(report.scope), "the UPDATE".to_string())
            }
        };
        // Phase one: every shard stages its share, or the whole fleet
        // aborts (idempotent, so shards that never staged answer cleanly).
        for (i, t) in self.shards.iter().enumerate() {
            let (share, what) = match next {
                Successor::Snapshot(dir) => {
                    let dir = dir.join(format!("shard-{i}"));
                    let what = dir.display().to_string();
                    (Successor::Snapshot(dir), what)
                }
                Successor::Delta(_) => (next.clone(), "the delta".to_string()),
            };
            let stage = Admin::Install {
                next: share,
                commit: false,
            };
            if let Err(e) = t.admin(&stage) {
                for t in &self.shards {
                    let _ = t.admin(&Admin::Abort);
                }
                let reason = e.describe();
                return Err(ErrKind::ReloadFailed.because(format!(
                    "shard {i} ({}) rejected {what}: {} — fleet aborted, old \
                     generation still serving",
                    t.location(),
                    strip_class(&reason)
                )));
            }
        }
        // Phase two: commit everywhere. A failure here may leave some shards
        // on the new generation; the old router's generation vector no
        // longer matches them, so their probes fail honestly, and re-issuing
        // the verb is the recovery.
        let mut gens = Vec::with_capacity(self.shards.len());
        for (i, t) in self.shards.iter().enumerate() {
            let committed = t.admin(&Admin::Commit).and_then(|gen| {
                gen.ok_or_else(|| ShardError::Internal("COMMIT answered STAGED".to_string()))
            });
            match committed {
                Ok(gen) => gens.push(gen),
                Err(e) => {
                    return Err(ErrKind::ReloadFailed.because(format!(
                        "shard {i} ({}) failed to commit: {} — fleet may be \
                         mixed-generation; re-issue {reissue}",
                        t.location(),
                        e.describe()
                    )));
                }
            }
        }
        let next = ShardedEngine {
            meta: Arc::new(meta),
            shards: self.shards.clone(),
            gens,
        };
        Ok((Arc::new(next), scope))
    }
}
