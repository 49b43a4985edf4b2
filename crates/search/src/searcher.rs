//! Top-k personalized influential topic search (Algorithms 10 and 11).

use crate::cancel::{CancelToken, SearchError};
use crate::driver::{SearchDriver, SearchScratch};
use crate::repindex::TopicRepIndex;
use crate::trace::{NoTracer, SearchTracer};
use pit_graph::TopicId;
use pit_index::PropagationIndex;
use pit_topics::{KeywordQuery, TopicSpace};

/// Online search parameters.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Result size `k`.
    pub k: usize,
    /// Cap on EXPAND rounds (Algorithm 11 recursion depth). Each round walks
    /// one ring of marked nodes outward; the propagation threshold `θ` makes
    /// deep rings negligible, and the paper's trace never needs more than a
    /// couple.
    pub max_expand_rounds: usize,
    /// Enable the upper-bound pruning rule. Disabled only by the pruning
    /// safety tests — with pruning off, every topic is refined to exhaustion.
    pub prune: bool,
}

impl SearchConfig {
    /// Standard configuration for a given `k`.
    pub fn top(k: usize) -> Self {
        SearchConfig {
            k,
            max_expand_rounds: 4,
            prune: true,
        }
    }
}

/// One ranked result entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopicScore {
    /// The topic.
    pub topic: TopicId,
    /// Its aggregated influence `I*(t, v)` on the query user.
    pub score: f64,
}

/// The result of one PIT-Search, with the work counters the paper's
/// efficiency experiments report.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Top-k topics, sorted by descending score (ties by topic id).
    pub top_k: Vec<TopicScore>,
    /// `|T_q|` — number of query-related topics considered.
    pub candidate_topics: usize,
    /// Topics eliminated by the upper-bound rule before exhaustion.
    pub pruned_topics: usize,
    /// EXPAND rounds actually executed.
    pub expand_rounds: usize,
    /// Propagation tables `Γ(·)` probed (1 + expanded marked nodes).
    pub probed_tables: usize,
    /// Representative entries loaded at query start (the transient space the
    /// paper measures in Figures 13/14).
    pub loaded_reps: usize,
}

/// The work counters of a [`SearchOutcome`] alone — the copyable part the
/// serving stack records into traces and per-stage histograms without
/// holding on to the ranking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// `|T_q|` — number of query-related topics considered.
    pub candidate_topics: usize,
    /// Topics eliminated by the upper-bound rule before exhaustion.
    pub pruned_topics: usize,
    /// EXPAND rounds actually executed.
    pub expand_rounds: usize,
    /// Propagation tables `Γ(·)` probed (1 + expanded marked nodes).
    pub probed_tables: usize,
    /// Representative entries loaded at query start.
    pub loaded_reps: usize,
}

impl SearchOutcome {
    /// The outcome's work counters.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            candidate_topics: self.candidate_topics,
            pruned_topics: self.pruned_topics,
            expand_rounds: self.expand_rounds,
            probed_tables: self.probed_tables,
            loaded_reps: self.loaded_reps,
        }
    }
}

/// Algorithm 10 (`PERSONALIZED_SEARCH`) with the iterative EXPAND loop of
/// Algorithm 11, driving the shared [`SearchDriver`] state machine with
/// local propagation-table probes. The sharded router (`pit-router`) drives
/// the same state machine with remote probes, which is what makes sharded
/// rankings bit-identical to this searcher's.
///
/// Two deliberate divergences from the pseudo-code as printed, both noted in
/// DESIGN.md:
/// * expansion contributions are weighted by the marked node's own
///   propagation to the query user (`Γ(v)[u] · Γ(u)[x] · S_t[x]`); the
///   printed line 5 omits the first factor, which would make a far node
///   count as if adjacent;
/// * `W_r[t]` is maintained as the *total* outstanding representative weight
///   rather than `1 − S_i[u]` of the last probed node, which is what the
///   upper bound `W_r·maxEP + heap[t]` needs to be valid.
pub struct PersonalizedSearcher<'a> {
    space: &'a TopicSpace,
    prop: &'a PropagationIndex,
    reps: &'a TopicRepIndex,
    config: SearchConfig,
}

impl<'a> PersonalizedSearcher<'a> {
    /// Assemble a searcher over the materialized indexes.
    pub fn new(
        space: &'a TopicSpace,
        prop: &'a PropagationIndex,
        reps: &'a TopicRepIndex,
        config: SearchConfig,
    ) -> Self {
        assert!(config.k >= 1, "k must be positive");
        PersonalizedSearcher {
            space,
            prop,
            reps,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Run one query (Algorithm 10).
    ///
    /// # Panics
    /// Panics if `query.user` is outside the indexed graph (the propagation
    /// index has one table per node); callers exposing user-supplied ids
    /// should validate against the graph's node count first, or use
    /// [`PersonalizedSearcher::try_search`] for a typed error instead.
    pub fn search(&self, query: &KeywordQuery) -> SearchOutcome {
        let (cancel, mut scratch) = (CancelToken::none(), SearchScratch::new());
        match self.try_search(query, &cancel, &mut NoTracer, &mut scratch) {
            Ok(outcome) => outcome,
            #[expect(
                clippy::panic,
                reason = "documented API contract: search() is the panicking convenience wrapper \
                          over try_search, its # Panics section covers the only reachable error \
                          (out-of-range user), and a none() token never cancels"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Run one query under a [`CancelToken`], without panicking — the one
    /// fallible entry point, built directly on [`SearchDriver`].
    ///
    /// The token is polled between EXPAND rounds and every
    /// [`CancelToken::check_every`] probed propagation tables, so a
    /// cancelled (or deadline-expired) query releases its thread after a
    /// bounded amount of further work instead of running to completion.
    ///
    /// The `tracer` hears each phase begin/end (gather, every EXPAND round
    /// with its probed-table count, ranking); pass `&mut NoTracer` for
    /// none. This crate stays clock-free: timestamps, if any, are captured
    /// by the tracer's implementation on the caller's side (see the server
    /// layer's trace context).
    ///
    /// `scratch` holds every per-query buffer. A serving worker that keeps
    /// one and passes it to every query makes the whole probe/feed loop
    /// allocation-free once the buffers are warm — the arena keeps its
    /// capacity across queries (pit-eval's counting allocator pins this);
    /// one-shot callers pass a fresh [`SearchScratch::new`].
    ///
    /// # Errors
    /// [`SearchError::UserOutOfRange`] for a user outside the indexed
    /// graph; [`SearchError::Cancelled`] when the token fires mid-search.
    pub fn try_search(
        &self,
        query: &KeywordQuery,
        cancel: &CancelToken,
        tracer: &mut dyn SearchTracer,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, SearchError> {
        let mut driver = SearchDriver::begin(
            self.space,
            self.reps,
            self.config,
            query,
            self.prop.len(),
            self.prop.config().theta,
            cancel,
            tracer,
            scratch,
        )?;
        while driver.round_begin(cancel, tracer)? {
            let mut i = 0;
            while let Some((u, ep_u)) = driver.round_probe(i) {
                driver.feed_gamma(cancel, tracer, self.prop.gamma(u), ep_u)?;
                i += 1;
            }
        }
        Ok(driver.finish(tracer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SearchPhase;
    use pit_graph::fixtures::{self, user, FIGURE3_THETA};
    use pit_graph::{NodeId, TermId};
    use pit_index::PropIndexConfig;
    use pit_summarize::RepresentativeSet;
    use pit_topics::TopicSpaceBuilder;

    /// `try_search` without a tracer, on a fresh scratch.
    fn try_plain(
        searcher: &PersonalizedSearcher<'_>,
        query: &KeywordQuery,
        cancel: &CancelToken,
    ) -> Result<SearchOutcome, SearchError> {
        searcher.try_search(query, cancel, &mut NoTracer, &mut SearchScratch::new())
    }

    /// Recreate the Section 5.2 worked trace: Figure-3 graph, rep sets
    /// S1 = {1,3,5,12} (w=0.25 each), S2 = {7,9,10} (w=0.33), S3 = {2,4,6}
    /// (w=0.33), query from node 8, k = 1 → t2 wins, t1 and t3 pruned.
    fn fig3_setup() -> (
        pit_graph::CsrGraph,
        pit_topics::TopicSpace,
        PropagationIndex,
        TopicRepIndex,
    ) {
        let g = fixtures::figure3_graph();
        let mut b = TopicSpaceBuilder::new(g.node_count(), 1);
        let rep_sets = fixtures::figure3_rep_sets();
        for _ in 0..3 {
            let t = b.add_topic(vec![TermId(0)]);
            // Topic nodes are irrelevant here (the rep sets are given), but
            // each topic needs at least one node; use node 1.
            b.assign(user(1), t);
        }
        let space = b.build();
        let prop = PropagationIndex::build(&g, PropIndexConfig::with_theta(FIGURE3_THETA));
        let weights = [0.25, 1.0 / 3.0, 1.0 / 3.0];
        let sets = rep_sets
            .iter()
            .enumerate()
            .map(|(i, nodes)| {
                RepresentativeSet::new(
                    TopicId::from_index(i),
                    nodes.iter().map(|&n| (n, weights[i])).collect(),
                )
            })
            .collect();
        let reps = TopicRepIndex::from_sets(sets);
        (g, space, prop, reps)
    }

    #[test]
    fn paper_section52_trace_top1_is_t2() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(1));
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let out = searcher.search(&q);
        assert_eq!(out.candidate_topics, 3);
        assert_eq!(out.top_k.len(), 1);
        assert_eq!(out.top_k[0].topic, TopicId(1), "t2 must win: {out:?}");
        // Both losers are prunable in this instance.
        assert_eq!(out.pruned_topics, 2, "{out:?}");
    }

    #[test]
    fn paper_trace_direct_influences() {
        // Check the round-0 heap values against hand computation on our
        // Figure-3 weights: t1 gets Γ(8)[1]·.25 + Γ(8)[5]·.25 + Γ(8)[12]·.25,
        // t2 gets Γ(8)[7]·⅓ + Γ(8)[9]·⅓, t3 gets Γ(8)[4]·⅓.
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 3,
                max_expand_rounds: 0,
                prune: false,
            },
        );
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let out = searcher.search(&q);
        let score = |t: u32| {
            out.top_k
                .iter()
                .find(|s| s.topic == TopicId(t))
                .unwrap()
                .score
        };
        let g8 = prop.gamma(user(8));
        let t1 = 0.25
            * (g8.get(user(1)).unwrap() + g8.get(user(5)).unwrap() + g8.get(user(12)).unwrap());
        let t2 = (g8.get(user(7)).unwrap() + g8.get(user(9)).unwrap()) / 3.0;
        let t3 = g8.get(user(4)).unwrap() / 3.0;
        assert!((score(0) - t1).abs() < 1e-12);
        assert!((score(1) - t2).abs() < 1e-12);
        assert!((score(2) - t3).abs() < 1e-12);
        assert!(score(1) > score(0), "t2 > t1");
    }

    #[test]
    fn pruning_never_changes_the_result() {
        let (_g, space, prop, reps) = fig3_setup();
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        for k in 1..=3 {
            let pruned = PersonalizedSearcher::new(
                &space,
                &prop,
                &reps,
                SearchConfig {
                    k,
                    max_expand_rounds: 8,
                    prune: true,
                },
            )
            .search(&q);
            let full = PersonalizedSearcher::new(
                &space,
                &prop,
                &reps,
                SearchConfig {
                    k,
                    max_expand_rounds: 8,
                    prune: false,
                },
            )
            .search(&q);
            let p: Vec<TopicId> = pruned.top_k.iter().map(|s| s.topic).collect();
            let f: Vec<TopicId> = full.top_k.iter().map(|s| s.topic).collect();
            assert_eq!(p, f, "k={k}: pruning changed the top-k");
        }
    }

    #[test]
    fn expansion_reaches_influence_behind_marked_nodes() {
        // Topic 0's only representative is node 10, which is NOT in Γ(8)
        // (its path arrives below θ) but IS in Γ(11) of the marked node 11.
        // Topic 1 is a low-scoring competitor — without a competitor the
        // candidate set fits inside the top-k and Algorithm 10 terminates
        // without expanding at all (`T' \ T^k = ∅`). Without expansion topic
        // 0 scores 0; with expansion it gains node 10's chained influence.
        let g = fixtures::figure3_graph();
        let mut b = TopicSpaceBuilder::new(g.node_count(), 1);
        let t = b.add_topic(vec![TermId(0)]);
        b.assign(user(10), t);
        let t2 = b.add_topic(vec![TermId(0)]);
        b.assign(user(12), t2);
        let space = b.build();
        let prop = PropagationIndex::build(&g, PropIndexConfig::with_theta(FIGURE3_THETA));
        let reps = TopicRepIndex::from_sets(vec![
            RepresentativeSet::new(TopicId(0), vec![(user(10), 1.0)]),
            RepresentativeSet::new(TopicId(1), vec![(user(12), 0.05)]),
        ]);
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);

        let without = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 1,
                max_expand_rounds: 0,
                prune: false,
            },
        )
        .search(&q);
        let score_of = |out: &SearchOutcome, t: u32| {
            out.top_k
                .iter()
                .find(|s| s.topic == TopicId(t))
                .map(|s| s.score)
        };
        assert_eq!(score_of(&without, 0).unwrap_or(0.0), 0.0);

        let with = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 1,
                max_expand_rounds: 2,
                prune: false,
            },
        )
        .search(&q);
        // Node 10 reaches 11 with 0.3; 11 reaches 8 with 0.1 → ≈ 0.03,
        // overtaking the competitor (0.05 · 0.3 = 0.015) for the top-1 slot.
        let expanded = score_of(&with, 0).expect("topic 0 in result");
        assert!(
            (expanded - 0.03).abs() < 1e-9,
            "expanded score = {expanded}"
        );
        assert!(with.expand_rounds >= 1);
        assert!(with.probed_tables > without.probed_tables);
    }

    #[test]
    fn k_larger_than_candidates_returns_all() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(10));
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let out = searcher.search(&q);
        assert_eq!(out.top_k.len(), 3);
        // Sorted by descending score.
        assert!(out.top_k.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn no_related_topics_gives_empty_result() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(3));
        // Term 99 doesn't exist in any topic's bag — craft a query with an
        // unused term id by extending the vocabulary range artificially.
        let q = KeywordQuery::new(user(8), vec![]);
        let out = searcher.search(&q);
        assert!(out.top_k.is_empty());
        assert_eq!(out.candidate_topics, 0);
    }

    #[test]
    fn loaded_reps_counts_materialized_entries() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(1));
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let out = searcher.search(&q);
        assert_eq!(out.loaded_reps, 4 + 3 + 3);
    }

    #[test]
    fn try_search_matches_search_with_inert_token() {
        // A never-firing token must leave the ranking AND every work
        // counter identical — trace numbers are only trustworthy if the
        // cancellable path does exactly the same work.
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(2));
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let plain = searcher.search(&q);
        let tried = try_plain(&searcher, &q, &CancelToken::none()).unwrap();
        let ids = |o: &SearchOutcome| {
            o.top_k
                .iter()
                .map(|s| (s.topic, s.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&plain), ids(&tried));
        assert_eq!(plain.stats(), tried.stats());
    }

    #[test]
    fn stats_are_exact_for_a_single_marked_node_expansion() {
        // Hand-counted work on the Section 5.2 trace: Γ(8) holds exactly
        // one marked node (node 11, entry probability 0.10 ≥ θ — pinned by
        // pit-index's figure3 tests), so an unpruned exhaustive search from
        // node 8 probes Γ(8), expands node 11, probes Γ(11), and stops.
        let (_g, space, prop, reps) = fig3_setup();
        let gamma8 = prop.gamma(user(8));
        assert_eq!(gamma8.marked(), &[user(11)], "fixture contract");
        assert!(gamma8.get(user(11)).unwrap() >= FIGURE3_THETA);
        // The hand count requires the expansion to terminate after node 11:
        // every marked node of Γ(11) must be already-visited or arrive
        // below θ through the 0.10 hop.
        let gamma11 = prop.gamma(user(11));
        for &w in gamma11.marked() {
            let chained = gamma8.get(user(11)).unwrap() * gamma11.get(w).unwrap_or(0.0);
            assert!(
                w == user(8) || w == user(11) || chained < FIGURE3_THETA,
                "marked node {w} of Γ(11) would extend the frontier"
            );
        }

        // Pruning off and k = 1 < 3 candidates, so `T' \ T^k ≠ ∅` forces
        // the expansion to actually run (nothing is decided early).
        let searcher = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 1,
                max_expand_rounds: 8,
                prune: false,
            },
        );
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let stats = searcher.search(&q).stats();
        assert_eq!(stats.probed_tables, 2, "Γ(8) + Γ(11), nothing else");
        assert_eq!(stats.expand_rounds, 1, "one round expands node 11");
        assert_eq!(stats.candidate_topics, 3);
        assert_eq!(stats.pruned_topics, 0, "pruning was disabled");
        assert_eq!(stats.loaded_reps, 4 + 3 + 3);
    }

    /// A tracer that records callbacks; pit-search may not read clocks
    /// (clippy's `disallowed_methods`), so only order and details are
    /// checked here.
    #[derive(Default)]
    struct EchoTracer {
        events: Vec<(bool, SearchPhase, u64)>,
    }

    impl SearchTracer for EchoTracer {
        fn phase_begin(&mut self, phase: SearchPhase) {
            self.events.push((true, phase, 0));
        }
        fn phase_end(&mut self, phase: SearchPhase, detail: u64) {
            self.events.push((false, phase, detail));
        }
    }

    #[test]
    fn traced_search_reports_phases_matching_the_outcome() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 1,
                max_expand_rounds: 8,
                prune: false,
            },
        );
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let mut tracer = EchoTracer::default();
        let outcome = searcher
            .try_search(
                &q,
                &CancelToken::none(),
                &mut tracer,
                &mut SearchScratch::new(),
            )
            .unwrap();

        let ends: Vec<(SearchPhase, u64)> = tracer
            .events
            .iter()
            .filter(|(begin, _, _)| !begin)
            .map(|&(_, p, d)| (p, d))
            .collect();
        // One gather (detail = loaded reps), one end per executed round
        // (details sum to the expanded tables), one rank.
        assert_eq!(ends[0], (SearchPhase::Gather, outcome.loaded_reps as u64));
        let round_tables: u64 = ends
            .iter()
            .filter(|(p, _)| *p == SearchPhase::ExpandRound)
            .map(|&(_, d)| d)
            .sum();
        assert_eq!(
            ends.iter()
                .filter(|(p, _)| *p == SearchPhase::ExpandRound)
                .count(),
            outcome.expand_rounds
        );
        assert_eq!(round_tables, outcome.probed_tables as u64 - 1);
        assert_eq!(
            ends.last().copied(),
            Some((SearchPhase::Rank, outcome.candidate_topics as u64))
        );

        // The traced path is the plain path: identical outcome.
        let plain = searcher.search(&q);
        assert_eq!(plain.stats(), outcome.stats());
    }

    #[test]
    fn out_of_range_user_is_a_typed_error() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(1));
        let q = KeywordQuery::new(NodeId(9_999), vec![TermId(0)]);
        let err = try_plain(&searcher, &q, &CancelToken::none()).unwrap_err();
        assert_eq!(
            err,
            SearchError::UserOutOfRange {
                user: 9_999,
                nodes: prop.len()
            }
        );
    }

    #[test]
    fn cancelled_token_stops_the_search_mid_flight() {
        let (_g, space, prop, reps) = fig3_setup();
        // Pruning disabled so the search must expand and probe many tables.
        let searcher = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 1,
                max_expand_rounds: 8,
                prune: false,
            },
        );
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let full = searcher.search(&q);
        assert!(full.probed_tables > 1, "fixture must require expansion");

        // A pre-cancelled token stops at the very first checkpoint: only
        // the query user's own table gets probed.
        let token = CancelToken::cancellable().with_check_every(1);
        token.cancel();
        let err = try_plain(&searcher, &q, &token).unwrap_err();
        let SearchError::Cancelled {
            probed_tables,
            expand_rounds,
        } = err
        else {
            panic!("expected cancellation, got {err:?}");
        };
        assert_eq!(probed_tables, 1, "must stop before any expansion");
        assert_eq!(expand_rounds, 0, "cancelled before the first round");
        assert!(probed_tables < full.probed_tables);
    }

    #[test]
    fn expired_deadline_cancels_the_search() {
        let (_g, space, prop, reps) = fig3_setup();
        let searcher = PersonalizedSearcher::new(&space, &prop, &reps, SearchConfig::top(1));
        let q = KeywordQuery::new(user(8), vec![TermId(0)]);
        let token = CancelToken::none()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1))
            .with_check_every(1);
        assert!(matches!(
            try_plain(&searcher, &q, &token),
            Err(SearchError::Cancelled { .. })
        ));
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let (_g, space, prop, reps) = fig3_setup();
        let _ = PersonalizedSearcher::new(
            &space,
            &prop,
            &reps,
            SearchConfig {
                k: 0,
                max_expand_rounds: 1,
                prune: true,
            },
        );
    }
}
