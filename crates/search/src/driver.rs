//! The per-query search state machine, factored out of
//! [`crate::searcher::PersonalizedSearcher`] so that table probes can come
//! from anywhere.
//!
//! Algorithm 10/11 reads exactly one kind of index data at query time: the
//! propagation tables `Γ(u)` of the query user and the expanded marked
//! nodes. Everything else — representative bookkeeping, score accumulation,
//! upper-bound pruning, round control, ranking — is pure arithmetic over
//! those probes. [`SearchDriver`] owns that arithmetic and asks its caller
//! to perform the probes. Two driving patterns exist:
//!
//! ```text
//! // Allocation-free (the single-node hot path):
//! while driver.round_begin(...)? {
//!     while let Some((u, ep_u)) = driver.round_probe(i) {
//!         driver.feed_gamma(..., Γ(u), ep_u)?; i += 1;
//!     }
//! }
//!
//! // Batched (the sharded router's scatter path):
//! loop {
//!     match driver.next_step(...)? {
//!         DriverStep::Probe(list) => for each (u, ep_u):
//!             feed back TableProbe { Γ(u) ∩ reps, marked candidates },
//!         DriverStep::Done(cause) => break,
//!     }
//! }
//! driver.finish(...)
//! ```
//!
//! The single-node searcher drives it with local [`Gamma`] views through
//! [`SearchDriver::feed_gamma`]; the sharded router (`pit-router`) drives
//! the *same* state machine with batched remote probes, one scatter per
//! round. Because every score mutation happens here, in probe order, a
//! sharded search is bit-identical to a single-node one by construction —
//! there is no second ranking code path to diverge.
//!
//! All per-query buffers live in a caller-owned [`SearchScratch`] arena, so
//! a serving worker that reuses one scratch across queries performs no
//! steady-state heap allocation inside the probe/feed loop: frontiers,
//! visited sets, probe buffers and score scratch all retain their capacity
//! between queries.
//!
//! Probe replies must be fed back **in the order the probe list was
//! issued**; that order is the absorption order of Algorithm 10/11, and
//! first-cover representative absorption makes it semantically load-bearing.
//! A caller that cannot obtain a table (failed shard) calls
//! [`SearchDriver::skip_probe`] instead, explicitly accepting a degraded
//! (non-bit-identical) answer.

use crate::cancel::{CancelToken, SearchError};
use crate::repindex::TopicRepIndex;
use crate::searcher::{SearchConfig, SearchOutcome, TopicScore};
use crate::trace::{SearchPhase, SearchTracer};
use pit_graph::{NodeId, TopicId};
use pit_index::Gamma;
use pit_topics::{KeywordQuery, TopicSpace};
use rustc_hash::{FxHashMap, FxHashSet};

/// Per-topic working state during one query.
struct TopicState {
    topic: TopicId,
    /// `W_r[t]` — total weight still outstanding (representatives of this
    /// topic not yet absorbed).
    remaining_weight: f64,
    /// `heap[t]` — influence accumulated so far.
    score: f64,
    /// False once pruned or exhausted; no further refinement.
    alive: bool,
    /// True when eliminated by the upper-bound rule specifically.
    pruned: bool,
}

/// Reusable per-query buffers: every growable structure a query touches,
/// owned by the caller (one per serving worker) so repeated queries reuse
/// capacity instead of re-allocating. [`SearchDriver::begin`] clears the
/// contents but keeps the capacity; a scratch is plain data with no query
/// state of its own, so reusing one across arbitrary queries is always
/// correct (and [`Default`] gives a fresh empty one).
///
/// The representative map lives here too, as the paper's per-query inverted
/// view: `rep_index` maps a representative node to its `(start, len)` slice
/// of `rep_entries`, a flat `(topic index, weight)` arena grouped by node. A
/// representative is *absorbed* (removed from `rep_index`) the first time a
/// probed table contains it — exactly Algorithm 10/11's `S_i ← S_i \ vInner`
/// bookkeeping, but one hash probe per table entry instead of rescanning
/// every topic's remaining list.
#[derive(Default)]
pub struct SearchScratch {
    topics: Vec<TopicState>,
    /// Gather-phase staging: `(node, topic index, weight)` triples.
    triples: Vec<(NodeId, u32, f64)>,
    /// Representative node → (start, len) into `rep_entries`.
    rep_index: FxHashMap<NodeId, (u32, u32)>,
    /// Flat `(topic index, weight)` entries grouped by node.
    rep_entries: Vec<(u32, f64)>,
    visited: FxHashSet<NodeId>,
    /// The current ring, as produced by the previous round (may contain
    /// duplicates and already-visited nodes; filtered when a round starts).
    frontier: Vec<(NodeId, f64)>,
    /// The ring being collected by the in-flight round.
    next_frontier: Vec<(NodeId, f64)>,
    /// Probe list of the in-flight round, in issue order.
    pending: Vec<(NodeId, f64)>,
    /// Round-start dedup set (first occurrence wins).
    chosen: FxHashSet<NodeId>,
    /// Probe buffer for [`SearchDriver::feed_gamma`].
    probe: TableProbe,
    /// Score buffer for the k-th-threshold selection.
    scores: Vec<f64>,
}

impl SearchScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear all buffers, retaining capacity.
    fn reset(&mut self) {
        self.topics.clear();
        self.triples.clear();
        self.rep_index.clear();
        self.rep_entries.clear();
        self.visited.clear();
        self.frontier.clear();
        self.next_frontier.clear();
        self.pending.clear();
        self.chosen.clear();
        self.probe.hits.clear();
        self.probe.cands.clear();
        self.scores.clear();
    }
}

/// Group sorted `(node, topic, weight)` triples into the flat representative
/// map (`rep_index` + `rep_entries`), reusing both containers' capacity.
fn build_rep_map(
    triples: &mut [(NodeId, u32, f64)],
    index: &mut FxHashMap<NodeId, (u32, u32)>,
    entries: &mut Vec<(u32, f64)>,
) {
    triples.sort_unstable_by_key(|&(n, _, _)| n);
    index.reserve(triples.len());
    let mut i = 0;
    while i < triples.len() {
        let node = triples[i].0;
        let start = entries.len() as u32;
        while i < triples.len() && triples[i].0 == node {
            entries.push((triples[i].1, triples[i].2));
            i += 1;
        }
        index.insert(node, (start, entries.len() as u32 - start));
    }
}

/// One probed table's contribution, ready to feed into the driver.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableProbe {
    /// `Γ(u)` restricted to (a superset of) the query's still-outstanding
    /// representative nodes, with each probability pre-chained through the
    /// probing entry point: `(x, ep_u · Γ(u)[x])`, **ascending by node id**
    /// — the canonical credit order. Entries whose representative was
    /// already absorbed are ignored at feed time, so a producer may
    /// intersect against the query's initial representative universe
    /// without tracking absorption.
    pub hits: Vec<(NodeId, f64)>,
    /// Marked nodes `w` of `Γ(u)` with their chained entry probability
    /// `ep_w = ep_u · Γ(u)[w]`, already filtered to `ep_w ≥ θ`, in the
    /// table's marked order (ascending by node id).
    pub cands: Vec<(NodeId, f64)>,
}

impl TableProbe {
    /// The residual upper bound this table adds to the frontier: the largest
    /// chained entry probability among its candidates. This is the §5.2
    /// bound a shard reports alongside its probe replies; a shard whose
    /// outstanding bound falls below the global k-th score is never probed
    /// again (see `pit-router`).
    pub fn bound(&self) -> f64 {
        self.cands.iter().map(|&(_, ep)| ep).fold(0.0, f64::max)
    }
}

/// Compute one table's [`TableProbe`] into a caller-owned buffer (cleared
/// first): intersect `Γ(u)` with the representative universe (membership via
/// `is_rep`) and chain its marked nodes through `ep_u`. Iterates `Γ(u)` in
/// storage order (ascending node id), so both output lists come out
/// canonically ordered. Allocation-free once `out`'s vectors are warm.
pub fn probe_gamma_into(
    gamma: Gamma<'_>,
    ep_u: f64,
    min_ep: f64,
    is_rep: &dyn Fn(NodeId) -> bool,
    out: &mut TableProbe,
) {
    out.hits.clear();
    out.cands.clear();
    for (x, p) in gamma.iter() {
        if is_rep(x) {
            out.hits.push((x, ep_u * p));
        }
    }
    for &w in gamma.marked() {
        let ep_w = ep_u * gamma.get(w).unwrap_or(0.0);
        if ep_w >= min_ep {
            out.cands.push((w, ep_w));
        }
    }
}

/// [`probe_gamma_into`] returning a freshly-allocated probe (the batching
/// paths, where the probe outlives the table view anyway).
pub fn probe_gamma(
    gamma: Gamma<'_>,
    ep_u: f64,
    min_ep: f64,
    is_rep: &dyn Fn(NodeId) -> bool,
) -> TableProbe {
    let mut out = TableProbe::default();
    probe_gamma_into(gamma, ep_u, min_ep, is_rep, &mut out);
    out
}

/// The set of representative nodes a query can ever credit — the union of
/// the related topics' representative sets at query start. A shard answering
/// probe requests rebuilds this from the query's terms (its topic space and
/// representative index are replicated) and intersects tables against it.
pub struct RepUniverse {
    nodes: FxHashSet<NodeId>,
}

impl RepUniverse {
    /// Collect the representative universe for `query`.
    pub fn for_query(space: &TopicSpace, reps: &TopicRepIndex, query: &KeywordQuery) -> Self {
        let mut nodes = FxHashSet::default();
        for t in query.related_topics(space) {
            for (node, _w) in reps.get(t).iter() {
                nodes.insert(node);
            }
        }
        RepUniverse { nodes }
    }

    /// Is `node` a representative of any related topic?
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Number of distinct representative nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the query relates to no representatives at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Why the driver stopped asking for probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// The top-k is decided: no alive topic outside it can still climb in
    /// (`T' \ T^k = ∅` after pruning). Frontier nodes may remain unprobed —
    /// the upper bound proved them irrelevant.
    Settled,
    /// The frontier ran dry: every reachable marked node above θ was probed.
    FrontierExhausted,
    /// The EXPAND round cap was reached with the frontier still live.
    RoundCap,
}

/// What the caller must do next.
#[derive(Clone, Debug)]
pub enum DriverStep {
    /// Probe `Γ(u)` for each `(u, ep_u)` and feed each reply back **in this
    /// order** via [`SearchDriver::feed`] (or [`SearchDriver::skip_probe`]).
    Probe(Vec<(NodeId, f64)>),
    /// The search is complete; call [`SearchDriver::finish`].
    Done(StopCause),
}

enum RoundState {
    /// Round 0 — the query user's own `Γ(v)` — has not been issued yet.
    Seed,
    /// A probe list is outstanding; `fed` of `pending` replies arrived.
    Probing,
    /// Between rounds: evaluate stop conditions, maybe start another.
    Idle,
    /// Stop conditions fired.
    Finished(StopCause),
}

/// The externally-probed Algorithm 10/11 state machine. See the module docs
/// for the driving loops; [`crate::searcher::PersonalizedSearcher`] is the
/// reference caller. Borrows its [`SearchScratch`] for the query's duration.
pub struct SearchDriver<'a> {
    scratch: &'a mut SearchScratch,
    config: SearchConfig,
    min_ep: f64,
    fed: usize,
    /// This round's `maxEP` at the time it started (the pruning bound).
    round_bound: f64,
    tables_at_round_start: usize,
    state: RoundState,
    /// False until the round-0 probe of `Γ(v)` has been fed.
    seed_done: bool,
    probed_tables: usize,
    expand_rounds: usize,
    candidate_topics: usize,
    loaded_reps: usize,
    check_every: u32,
    until_check: u32,
}

impl<'a> SearchDriver<'a> {
    /// Gather phase (Algorithm 10 lines 1–3): validate the user, load the
    /// related topics' representative sets into `scratch`, and stage the
    /// seed probe of the query user's own `Γ(v)`.
    ///
    /// `node_count` is the size of the indexed node universe (the
    /// propagation index has one table per node); `min_ep` is the expansion
    /// resolution θ — see [`crate::searcher::PersonalizedSearcher`].
    /// `scratch` is cleared (capacity kept) and owned for the driver's
    /// lifetime.
    ///
    /// # Errors
    /// [`SearchError::UserOutOfRange`] when `query.user` is not indexed.
    ///
    /// # Panics
    /// Panics if `config.k` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        space: &TopicSpace,
        reps: &TopicRepIndex,
        config: SearchConfig,
        query: &KeywordQuery,
        node_count: usize,
        min_ep: f64,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &'a mut SearchScratch,
    ) -> Result<SearchDriver<'a>, SearchError> {
        assert!(config.k >= 1, "k must be positive");
        let v = query.user;
        if v.index() >= node_count {
            return Err(SearchError::UserOutOfRange {
                user: v.0,
                nodes: node_count,
            });
        }
        let check_every = cancel.check_every();
        let topic_ids = query.related_topics(space);
        let candidate_topics = topic_ids.len();
        tracer.phase_begin(SearchPhase::Gather);

        // Load the representative sets. This copy is the transient query
        // footprint the paper's space figures measure.
        scratch.reset();
        for (ti, &t) in topic_ids.iter().enumerate() {
            let set = reps.get(t);
            for (node, w) in set.iter() {
                scratch.triples.push((node, ti as u32, w));
            }
            scratch.topics.push(TopicState {
                topic: t,
                remaining_weight: set.total_weight(),
                score: 0.0,
                alive: true,
                pruned: false,
            });
        }
        let loaded_reps = scratch.triples.len();
        build_rep_map(
            &mut scratch.triples,
            &mut scratch.rep_index,
            &mut scratch.rep_entries,
        );
        scratch.visited.insert(v);
        scratch.pending.push((v, 1.0));

        Ok(SearchDriver {
            scratch,
            config,
            min_ep,
            fed: 0,
            round_bound: 0.0,
            tables_at_round_start: 0,
            state: RoundState::Seed,
            seed_done: false,
            probed_tables: 0,
            expand_rounds: 0,
            candidate_topics,
            loaded_reps,
            check_every,
            until_check: check_every,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The expansion resolution θ this driver filters candidates with.
    pub fn min_ep(&self) -> f64 {
        self.min_ep
    }

    /// Tables fed (and counted) so far.
    pub fn probed_tables(&self) -> usize {
        self.probed_tables
    }

    /// EXPAND rounds started so far.
    pub fn expand_rounds(&self) -> usize {
        self.expand_rounds
    }

    /// Run the between-rounds state machine until either a probe list is
    /// outstanding (`Ok(None)`) or the search has stopped (`Ok(Some)`).
    fn ensure_round(
        &mut self,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
    ) -> Result<Option<StopCause>, SearchError> {
        loop {
            match self.state {
                RoundState::Seed => {
                    self.state = RoundState::Probing;
                    return Ok(None);
                }
                RoundState::Probing => return Ok(None),
                RoundState::Finished(cause) => return Ok(Some(cause)),
                RoundState::Idle => {
                    if cancel.is_cancelled() {
                        return Err(SearchError::Cancelled {
                            probed_tables: self.probed_tables,
                            expand_rounds: self.expand_rounds,
                        });
                    }
                    let max_ep = self
                        .scratch
                        .frontier
                        .iter()
                        .map(|&(_, ep)| ep)
                        .fold(0.0, f64::max);
                    if self.config.prune {
                        self.prune_hopeless(max_ep);
                    }
                    let needs = self.needs_expansion();
                    if !needs || self.scratch.frontier.is_empty() {
                        let cause = if !needs {
                            StopCause::Settled
                        } else {
                            StopCause::FrontierExhausted
                        };
                        self.state = RoundState::Finished(cause);
                        continue;
                    }
                    if self.expand_rounds >= self.config.max_expand_rounds {
                        self.state = RoundState::Finished(StopCause::RoundCap);
                        continue;
                    }
                    self.expand_rounds += 1;
                    tracer.phase_begin(SearchPhase::ExpandRound);
                    self.round_bound = max_ep;
                    self.tables_at_round_start = self.probed_tables;

                    // The round's probe list: frontier order, first
                    // occurrence only, already-visited and dead entries
                    // dropped (Algorithm 11's per-node visited check, hoisted
                    // so the whole round can be scattered at once).
                    let SearchScratch {
                        visited,
                        frontier,
                        next_frontier,
                        pending,
                        chosen,
                        ..
                    } = &mut *self.scratch;
                    next_frontier.clear();
                    chosen.clear();
                    pending.clear();
                    for &(u, ep_u) in frontier.iter() {
                        if ep_u <= 0.0 || visited.contains(&u) || !chosen.insert(u) {
                            continue;
                        }
                        pending.push((u, ep_u));
                    }
                    if pending.is_empty() {
                        // The round ran with nothing probeable — close it
                        // out exactly as a probed round would.
                        tracer.phase_end(SearchPhase::ExpandRound, 0);
                        if self.config.prune {
                            self.prune_hopeless(self.round_bound);
                        }
                        self.swap_rings();
                        continue;
                    }
                    self.fed = 0;
                    self.state = RoundState::Probing;
                    return Ok(None);
                }
            }
        }
    }

    /// Make the ring collected by the finished round the current frontier,
    /// keeping both buffers' capacity.
    fn swap_rings(&mut self) {
        std::mem::swap(&mut self.scratch.frontier, &mut self.scratch.next_frontier);
        self.scratch.next_frontier.clear();
    }

    /// Advance to the next step: either a probe list the caller must
    /// resolve, or the stop verdict. Loop-top cancellation and upper-bound
    /// pruning (Algorithm 10 lines 17–21) happen here. This is the batching
    /// API (it clones the probe list); the single-node hot path uses
    /// [`SearchDriver::round_begin`] / [`SearchDriver::round_probe`] /
    /// [`SearchDriver::feed_gamma`] instead, which allocate nothing.
    ///
    /// # Errors
    /// [`SearchError::Cancelled`] when `cancel` has fired.
    pub fn next_step(
        &mut self,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
    ) -> Result<DriverStep, SearchError> {
        match self.ensure_round(cancel, tracer)? {
            Some(cause) => Ok(DriverStep::Done(cause)),
            // Issue the outstanding tail (idempotent for callers that
            // interleave next_step with feeds; the full list right after a
            // round opens, since `fed` is 0 then).
            None => Ok(DriverStep::Probe(self.scratch.pending[self.fed..].to_vec())),
        }
    }

    /// Open the next round if the search is still live. `Ok(true)` means a
    /// probe list is outstanding: resolve it index by index with
    /// [`SearchDriver::round_probe`] + [`SearchDriver::feed_gamma`].
    /// `Ok(false)` means the search stopped; call [`SearchDriver::finish`].
    ///
    /// # Errors
    /// [`SearchError::Cancelled`] when `cancel` has fired.
    pub fn round_begin(
        &mut self,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
    ) -> Result<bool, SearchError> {
        Ok(self.ensure_round(cancel, tracer)?.is_none())
    }

    /// The `i`-th probe of the current round, or `None` once the round's
    /// list is exhausted (the feed of the last probe closes the round and
    /// clears the list, so a `0..` scan terminates by itself).
    pub fn round_probe(&self, i: usize) -> Option<(NodeId, f64)> {
        self.scratch.pending.get(i).copied()
    }

    /// Probe a local table view and feed it in one step, using the scratch
    /// probe buffer — the allocation-free equivalent of
    /// [`SearchDriver::probe_local`] + [`SearchDriver::feed`].
    ///
    /// # Errors
    /// Same as [`SearchDriver::feed`].
    pub fn feed_gamma(
        &mut self,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        gamma: Gamma<'_>,
        ep_u: f64,
    ) -> Result<(), SearchError> {
        // Take the probe buffer out of the scratch so `feed` can borrow the
        // scratch mutably alongside it; an empty TableProbe is two dangling
        // Vec headers, so the take/put-back pair never allocates.
        let mut probe = std::mem::take(&mut self.scratch.probe);
        {
            let SearchScratch { rep_index, .. } = &*self.scratch;
            probe_gamma_into(
                gamma,
                ep_u,
                self.min_ep,
                &|x| rep_index.contains_key(&x),
                &mut probe,
            );
        }
        let fed = self.feed(cancel, tracer, &probe);
        self.scratch.probe = probe;
        fed
    }

    /// Feed the reply for the next outstanding probe. Replies must arrive in
    /// the order the probe list was issued; the driver absorbs the table's
    /// representative hits (first cover wins) and extends the next ring with
    /// its candidates.
    ///
    /// # Errors
    /// [`SearchError::Cancelled`] at the per-table checkpoint cadence (same
    /// as the single-node searcher).
    pub fn feed(
        &mut self,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        probe: &TableProbe,
    ) -> Result<(), SearchError> {
        debug_assert!(
            matches!(self.state, RoundState::Probing) && self.fed < self.scratch.pending.len(),
            "feed without an outstanding probe"
        );
        let (u, _ep_u) = self.scratch.pending[self.fed];
        self.probed_tables += 1;
        {
            let SearchScratch {
                topics,
                rep_index,
                rep_entries,
                visited,
                ..
            } = &mut *self.scratch;
            visited.insert(u);
            for &(x, p) in &probe.hits {
                if let Some((start, len)) = rep_index.remove(&x) {
                    let (start, len) = (start as usize, len as usize);
                    for &(ti, w) in &rep_entries[start..start + len] {
                        let state = &mut topics[ti as usize];
                        state.score += p * w;
                        state.remaining_weight = (state.remaining_weight - w).max(0.0);
                        if state.remaining_weight <= f64::EPSILON {
                            state.alive = false; // S_i exhausted
                        }
                    }
                }
            }
        }
        let checkpoint = self.table_checkpoint(cancel);
        // Candidates extend the ring only after a clean checkpoint, matching
        // the single-node order (absorb, checkpoint, collect marked).
        if checkpoint.is_ok() {
            let SearchScratch {
                visited,
                next_frontier,
                ..
            } = &mut *self.scratch;
            for &(w, ep_w) in &probe.cands {
                if ep_w >= self.min_ep && !visited.contains(&w) {
                    next_frontier.push((w, ep_w));
                }
            }
            self.advance(tracer);
        }
        checkpoint
    }

    /// Skip the next outstanding probe: its table could not be obtained
    /// (failed or timed-out shard) and the caller accepts a degraded answer.
    /// The node is marked visited and contributes nothing; work counters do
    /// not move.
    pub fn skip_probe(&mut self, tracer: &mut dyn SearchTracer) {
        debug_assert!(
            matches!(self.state, RoundState::Probing) && self.fed < self.scratch.pending.len(),
            "skip without an outstanding probe"
        );
        let (u, _ep_u) = self.scratch.pending[self.fed];
        self.scratch.visited.insert(u);
        self.advance(tracer);
    }

    /// Book one resolved probe; when the round's list is exhausted, close
    /// the round (end-of-round pruning, ring swap).
    fn advance(&mut self, tracer: &mut dyn SearchTracer) {
        self.fed += 1;
        if self.fed < self.scratch.pending.len() {
            return;
        }
        if !self.seed_done {
            // Round 0 (the query user's own table): the ring it produced IS
            // the initial frontier; no pruning until the loop top sees it.
            self.seed_done = true;
            tracer.phase_end(SearchPhase::Gather, self.loaded_reps as u64);
        } else {
            tracer.phase_end(
                SearchPhase::ExpandRound,
                (self.probed_tables - self.tables_at_round_start) as u64,
            );
            if self.config.prune {
                // Aggregated Γ values may exceed 1 on multi-path graphs, so
                // the next ring's entry points can be *larger* than this
                // round's; the bound must cover both rings we know about.
                let next_max = self
                    .scratch
                    .next_frontier
                    .iter()
                    .map(|&(_, ep)| ep)
                    .fold(0.0, f64::max);
                self.prune_hopeless(self.round_bound.max(next_max));
            }
        }
        self.swap_rings();
        self.scratch.pending.clear();
        self.fed = 0;
        self.state = RoundState::Idle;
    }

    /// Probe a locally-available table against the driver's own outstanding
    /// representative map, into a fresh probe (the compatibility path; the
    /// hot path is [`SearchDriver::feed_gamma`]).
    pub fn probe_local(&self, gamma: Gamma<'_>, ep_u: f64) -> TableProbe {
        probe_gamma(gamma, ep_u, self.min_ep, &|x| {
            self.scratch.rep_index.contains_key(&x)
        })
    }

    /// The probes a bound-driven stop left unexplored: the remaining
    /// frontier after the same dedup/visited filtering a round would apply,
    /// in frontier order. Empty unless the driver stopped with frontier
    /// still live ([`StopCause::Settled`] or [`StopCause::RoundCap`]).
    pub fn unexplored(&self) -> Vec<(NodeId, f64)> {
        let mut chosen = FxHashSet::default();
        let mut out = Vec::new();
        for &(u, ep_u) in &self.scratch.frontier {
            if ep_u <= 0.0 || self.scratch.visited.contains(&u) || !chosen.insert(u) {
                continue;
            }
            out.push((u, ep_u));
        }
        out
    }

    /// Rank and return the outcome (Algorithm 10's final sort). Call after
    /// [`DriverStep::Done`]. Releases the scratch borrow.
    pub fn finish(self, tracer: &mut dyn SearchTracer) -> SearchOutcome {
        tracer.phase_begin(SearchPhase::Rank);
        let mut ranked: Vec<TopicScore> = self
            .scratch
            .topics
            .iter()
            .map(|t| TopicScore {
                topic: t.topic,
                score: t.score,
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.topic.cmp(&b.topic)));
        ranked.truncate(self.config.k);
        tracer.phase_end(SearchPhase::Rank, self.candidate_topics as u64);
        SearchOutcome {
            top_k: ranked,
            candidate_topics: self.candidate_topics,
            pruned_topics: self.scratch.topics.iter().filter(|t| t.pruned).count(),
            expand_rounds: self.expand_rounds,
            probed_tables: self.probed_tables,
            loaded_reps: self.loaded_reps,
        }
    }

    /// Lines 17–20 / Algorithm 11 lines 10–12: stop refining topics whose
    /// upper bound cannot reach the current top-k.
    fn prune_hopeless(&mut self, max_ep: f64) {
        let SearchScratch { topics, scores, .. } = &mut *self.scratch;
        let Some(threshold) = topk_threshold(topics, self.config.k, scores) else {
            return;
        };
        for state in topics.iter_mut() {
            if !state.alive {
                continue;
            }
            let upper = state.remaining_weight * max_ep + state.score;
            if threshold >= upper && state.score < threshold {
                state.alive = false;
                state.pruned = true;
            }
        }
    }

    /// Algorithm 10 line 21: expansion continues only while some topic
    /// outside the current top-k is still alive (`T' \ T^k ≠ ∅`).
    fn needs_expansion(&mut self) -> bool {
        let SearchScratch { topics, scores, .. } = &mut *self.scratch;
        let Some(threshold) = topk_threshold(topics, self.config.k, scores) else {
            // Everything fits in the top-k: refining cannot change the set.
            return false;
        };
        topics.iter().any(|t| t.alive && t.score < threshold)
    }

    /// One per-probed-table cancellation checkpoint: fires every
    /// `check_every` tables and stops the search with the work done so far.
    fn table_checkpoint(&mut self, cancel: &CancelToken) -> Result<(), SearchError> {
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = self.check_every;
            if cancel.is_cancelled() {
                return Err(SearchError::Cancelled {
                    probed_tables: self.probed_tables,
                    expand_rounds: self.expand_rounds,
                });
            }
        }
        Ok(())
    }
}

/// The current `min(T^k)`: the k-th largest score, or `None` when fewer
/// than `k` candidates exist (then nothing can be pruned by score). Uses a
/// caller-owned score buffer so repeated calls allocate nothing.
fn topk_threshold(topics: &[TopicState], k: usize, scores: &mut Vec<f64>) -> Option<f64> {
    if topics.len() <= k {
        return None;
    }
    scores.clear();
    scores.extend(topics.iter().map(|t| t.score));
    let idx = k - 1;
    scores.select_nth_unstable_by(idx, |a, b| b.total_cmp(a));
    scores.get(idx).copied()
}
