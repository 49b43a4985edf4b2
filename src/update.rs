//! Incremental maintenance of a built engine.
//!
//! Section 4.4: "the offline pre-processing is updated after a period of
//! time when the social network and topics have changed." A full rebuild is
//! always correct, but most of its cost is the per-node propagation tables;
//! [`PitEngine::with_delta`] refreshes only what a delta can actually
//! affect:
//!
//! * **graph** — rebuilt from the edge delta (CSR is immutable; `O(|V|+|E|)`);
//! * **propagation index** — only the tables of nodes *downstream* of a new
//!   edge's head (within the enumeration depth) can change; they are
//!   recomputed exactly, the rest are provably untouched;
//! * **walk index** — rebuilt in full: it is seed-deterministic and its
//!   construction is the cheap offline stage, while any walk visiting an
//!   endpoint of a changed edge may resample;
//! * **representative sets** — topics are re-summarized when the delta can
//!   move their summary: a topic gained members, or any of its topic nodes
//!   or current representatives sits in the walk-affected region (within
//!   `L` hops of a changed edge, in either direction).
//!
//! The refresh is *localized*, not byte-identical to a from-scratch build:
//! topics far from every change keep their existing summaries even though a
//! from-scratch build would resample their walks identically anyway. The
//! tests pin down the exact guarantees.

// Serving code does not panic (DESIGN.md §10); a site that must carries an
// `#[expect]` stating why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::engine::{PitEngine, SummarizerKind};
use pit_graph::{GraphError, NodeId, TermId, TopicId};
use pit_index::PropagationIndex;
use pit_search_core::TopicRepIndex;
use pit_summarize::{LrwSummarizer, RclSummarizer, SummarizeContext, Summarizer};
use pit_walk::{WalkIndex, WalkIndexParts};
use rustc_hash::FxHashSet;

/// A batch of changes to apply to a built engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    /// New influence edges `(from, to, transition probability)`.
    pub new_edges: Vec<(NodeId, NodeId, f64)>,
    /// New topic mentions `(user, topic)`. Topics must already exist.
    pub new_assignments: Vec<(NodeId, TopicId)>,
}

impl Delta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.new_edges.is_empty() && self.new_assignments.is_empty()
    }
}

/// What a [`PitEngine::with_delta`] call actually did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Γ tables recomputed (nodes downstream of new edges).
    pub refreshed_gamma_tables: usize,
    /// Topics whose representative sets were rebuilt.
    pub resummarized_topics: usize,
    /// Whether the walk index was rebuilt (false only for empty deltas).
    pub walk_index_rebuilt: bool,
    /// The query-visible blast radius of the delta (see [`DeltaScope`]).
    pub scope: DeltaScope,
}

/// The query-visible blast radius of a delta: which `(user, terms)` queries
/// can observe a different answer on the successor engine. A query reads
/// exactly three kinds of offline data — the Γ tables of the query user and
/// its upstream expansion candidates, the representative sets of its related
/// topics, and the term → topic postings (fixed at topic creation) — so a
/// query is unaffected when none of its probed tables were refreshed *and*
/// none of its related topics were re-summarized:
///
/// * Γ side: refreshed tables are downstream of a new edge's head, and a
///   query only probes tables of nodes that can reach the query user, so
///   every Γ-affected user sits in the downstream closure of the heads
///   ([`DeltaScope::edge_users`], computed on the post-delta graph).
/// * Rep side: a related topic is a topic sharing a term with the query, so
///   a re-summarized topic touches a query iff their term bags intersect
///   ([`DeltaScope::assignment_terms`] / [`DeltaScope::edge_terms`], split
///   by what caused the re-summarization).
///
/// Scope is always computed against the *full* engine (before any shard
/// slicing) so a serving tier can compare cached query keys against it
/// regardless of which shard answered them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaScope {
    /// Every node reachable from a new edge's head on the post-delta graph
    /// (heads included), sorted ascending: the users whose probed Γ tables
    /// may differ.
    pub edge_users: Vec<NodeId>,
    /// Terms of topics re-summarized because they gained a member, sorted
    /// and deduplicated.
    pub assignment_terms: Vec<TermId>,
    /// Terms of topics re-summarized because their walk region touches a
    /// new edge, sorted and deduplicated.
    pub edge_terms: Vec<TermId>,
}

impl DeltaScope {
    /// Whether the delta can change no query at all.
    pub fn is_empty(&self) -> bool {
        self.edge_users.is_empty() && self.assignment_terms.is_empty() && self.edge_terms.is_empty()
    }

    /// Whether `user`'s probed Γ region intersects the refreshed tables.
    pub fn touches_user(&self, user: NodeId) -> bool {
        self.edge_users.binary_search(&user).is_ok()
    }

    /// Whether any of `terms` belongs to an assignment-re-summarized topic.
    pub fn touches_assignment_terms(&self, terms: &[TermId]) -> bool {
        terms
            .iter()
            .any(|t| self.assignment_terms.binary_search(t).is_ok())
    }

    /// Whether any of `terms` belongs to an edge-re-summarized topic.
    pub fn touches_edge_terms(&self, terms: &[TermId]) -> bool {
        terms
            .iter()
            .any(|t| self.edge_terms.binary_search(t).is_ok())
    }
}

impl PitEngine {
    /// Build the engine `delta` leaves behind, without touching `self`,
    /// refreshing only the affected offline artifacts (see the module docs
    /// for the exact guarantees). This is the serving-side refresh
    /// primitive: a live daemon keeps answering queries from the current
    /// engine while the successor is constructed, then swaps atomically.
    ///
    /// An empty delta yields a clone of the current engine (all artifacts
    /// are shared-nothing copies) with a default report.
    ///
    /// # Errors
    /// Returns a [`GraphError`] when the delta contains an invalid edge
    /// (out-of-range endpoint, self-loop, bad probability, or a conflicting
    /// duplicate of an existing edge) or assigns to a node or topic that
    /// does not exist.
    pub fn with_delta(&self, delta: &Delta) -> Result<(PitEngine, UpdateReport), GraphError> {
        self.with_delta_scoped(delta, None)
    }

    /// Shard-aware [`PitEngine::with_delta`]: apply `delta` to a shard slice
    /// without resurrecting the artifacts the slice does not own. Γ tables
    /// are refreshed only for *owned* affected nodes (unowned tables stay
    /// empty), and the rebuilt walk index is re-sliced to the shard's users.
    /// Re-summarization runs against the *full* rebuilt walk index — walks
    /// are seed-deterministic over the replicated graph, so every shard
    /// derives bit-identical representative sets without coordination, and
    /// the shard invariant `slice(full.with_delta(d)) ==
    /// slice(full).with_delta_scoped(d, spec)` holds exactly.
    ///
    /// With `shard == None` this is exactly [`PitEngine::with_delta`].
    ///
    /// # Errors
    /// As [`PitEngine::with_delta`].
    pub fn with_delta_scoped(
        &self,
        delta: &Delta,
        shard: Option<&crate::shard::ShardSpec>,
    ) -> Result<(PitEngine, UpdateReport), GraphError> {
        if delta.is_empty() {
            let clone = PitEngine::from_parts(
                self.graph().clone(),
                self.space().clone(),
                self.vocab().cloned(),
                self.walks().clone(),
                self.propagation().clone(),
                self.reps().clone(),
                self.summarizer().clone(),
                self.max_expand_rounds(),
            );
            return Ok((clone, UpdateReport::default()));
        }
        for &(v, t) in &delta.new_assignments {
            self.graph().check_node(v)?;
            if t.index() >= self.space().topic_count() {
                return Err(GraphError::UnknownTopic { topic: t });
            }
        }

        // 1. Rebuild the graph with the new edges.
        let mut builder = self.graph().to_builder();
        for &(u, v, p) in &delta.new_edges {
            builder.add_edge(u, v, p)?;
        }
        let new_graph = builder.build()?;

        // 2. Rebuild the topic space with the new assignments.
        let new_space = if delta.new_assignments.is_empty() {
            self.space().clone()
        } else {
            let mut b = self.space().to_builder();
            for &(v, t) in &delta.new_assignments {
                b.assign(v, t);
            }
            b.build()
        };

        // 3. Localized propagation-index refresh: only nodes downstream of a
        //    new edge's head can gain or lose θ-surviving in-paths.
        let heads: Vec<NodeId> = delta.new_edges.iter().map(|&(_, v, _)| v).collect();
        // Cache-invalidation scope, always on the *full* post-delta graph
        // (before the shard retain below): a query probes the Γ tables of
        // nodes that can reach it, so every query whose probe region meets a
        // refreshed table sits in the unbounded downstream closure of the
        // heads. `downstream_within` returns its frontier sorted.
        let scope_users = if heads.is_empty() {
            Vec::new()
        } else {
            new_graph.downstream_within(&heads, usize::MAX)
        };
        let mut prop: PropagationIndex = self.propagation().clone();
        let mut affected_gamma = if heads.is_empty() {
            Vec::new()
        } else {
            new_graph.downstream_within(&heads, prop.config().max_depth)
        };
        if let Some(spec) = shard {
            // Unowned tables are empty by the shard invariant and must stay
            // so; recomputing them here would silently un-slice the engine.
            affected_gamma.retain(|&v| spec.owns(v));
        }
        prop.refresh_nodes(&new_graph, &affected_gamma);

        // 4. Walk index: deterministic full rebuild against the new graph.
        let parts = match self.summarizer() {
            SummarizerKind::Rcl(_) => WalkIndexParts::ALL,
            SummarizerKind::Lrw(_) => WalkIndexParts::FOR_LRW,
        };
        let walks = WalkIndex::build_parts(&new_graph, *self.walks().config(), parts);

        // 5. Re-summarize affected topics: those that gained members, plus
        //    those whose topic nodes or current representatives are within L
        //    hops of a changed edge in either direction (their walks, and
        //    hence their summaries, may have changed).
        let l = walks.l();
        let mut walk_region: FxHashSet<NodeId> = FxHashSet::default();
        for &(u, v, _) in &delta.new_edges {
            walk_region.extend(new_graph.downstream_within(&[u, v], l));
            // Upstream side: nodes whose walks can reach the changed edge.
            walk_region.extend(upstream_within(&new_graph, &[u, v], l));
        }
        let mut affected_topics: FxHashSet<TopicId> =
            delta.new_assignments.iter().map(|&(_, t)| t).collect();
        for t in new_space.topics() {
            if affected_topics.contains(&t) {
                continue;
            }
            let touches = new_space
                .topic_nodes(t)
                .iter()
                .any(|n| walk_region.contains(n))
                || self
                    .reps()
                    .get(t)
                    .nodes()
                    .iter()
                    .any(|n| walk_region.contains(n));
            if touches {
                affected_topics.insert(t);
            }
        }
        let mut affected_topics: Vec<TopicId> = affected_topics.into_iter().collect();
        affected_topics.sort_unstable();

        let mut reps: TopicRepIndex = self.reps().clone();
        {
            let ctx = SummarizeContext {
                graph: &new_graph,
                space: &new_space,
                walks: &walks,
            };
            let fresh = match self.summarizer() {
                SummarizerKind::Rcl(cfg) => {
                    let s = RclSummarizer::new(*cfg);
                    affected_topics
                        .iter()
                        .map(|&t| s.summarize(&ctx, t))
                        .collect::<Vec<_>>()
                }
                SummarizerKind::Lrw(cfg) => {
                    let s = LrwSummarizer::new(*cfg);
                    affected_topics
                        .iter()
                        .map(|&t| s.summarize(&ctx, t))
                        .collect::<Vec<_>>()
                }
            };
            for set in fresh {
                reps.replace(set);
            }
        }

        // Split the re-summarized topics' term bags by cause: a topic named
        // in the delta re-summarizes because it gained a member, the rest
        // because their walks sit near a changed edge.
        let assigned: FxHashSet<TopicId> = delta.new_assignments.iter().map(|&(_, t)| t).collect();
        let mut assignment_terms: Vec<TermId> = Vec::new();
        let mut edge_terms: Vec<TermId> = Vec::new();
        for &t in &affected_topics {
            let bag = if assigned.contains(&t) {
                &mut assignment_terms
            } else {
                &mut edge_terms
            };
            bag.extend_from_slice(new_space.topic_terms(t));
        }
        assignment_terms.sort_unstable();
        assignment_terms.dedup();
        edge_terms.sort_unstable();
        edge_terms.dedup();

        let report = UpdateReport {
            refreshed_gamma_tables: affected_gamma.len(),
            resummarized_topics: affected_topics.len(),
            walk_index_rebuilt: true,
            scope: DeltaScope {
                edge_users: scope_users,
                assignment_terms,
                edge_terms,
            },
        };
        // Summarization above needed the full walk index; the stored slice
        // keeps only the shard's own rows.
        let walks = match shard {
            Some(spec) => walks.sliced(&|v| spec.owns(v)),
            None => walks,
        };
        let next = PitEngine::from_parts(
            new_graph,
            new_space,
            self.vocab().cloned(),
            walks,
            prop,
            reps,
            self.summarizer().clone(),
            self.max_expand_rounds(),
        );
        Ok((next, report))
    }
}

/// Reverse BFS: every node that can reach any of `targets` within
/// `max_depth` hops (targets included).
fn upstream_within(g: &pit_graph::CsrGraph, targets: &[NodeId], max_depth: usize) -> Vec<NodeId> {
    let mut dist = vec![u32::MAX; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    for &t in targets {
        if dist[t.index()] == u32::MAX {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    let mut out = Vec::new();
    while let Some(u) = queue.pop_front() {
        out.push(u);
        let du = dist[u.index()];
        if du as usize >= max_depth {
            continue;
        }
        for &w in g.in_neighbors(u) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = du + 1;
                queue.push_back(w);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
    use pit_graph::TermId;
    use pit_index::PropIndexConfig;
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::WalkConfig;

    fn engine() -> PitEngine {
        let graph = figure1_graph();
        let mut b = TopicSpaceBuilder::new(graph.node_count(), 1);
        for members in &figure1_topics() {
            let t = b.add_topic(vec![TermId(0)]);
            for &m in members {
                b.assign(m, t);
            }
        }
        PitEngine::builder()
            .walk(WalkConfig::new(4, 32).with_seed(9))
            .propagation(PropIndexConfig::with_theta(0.01))
            // Figure-1 calibration (see examples/quickstart.rs): low damping
            // keeps representatives at the influence sources of this 15-node
            // DAG, μ = 1 keeps all of them.
            .summarizer(SummarizerKind::Lrw(pit_summarize::LrwConfig {
                lambda: 0.2,
                mu: 1.0,
                ..Default::default()
            }))
            .build(graph, b.build())
    }

    #[test]
    fn gamma_refresh_matches_fresh_build_everywhere() {
        let delta = Delta {
            // A strong new path into user 3's neighborhood.
            new_edges: vec![(user(11), user(6), 0.9)],
            new_assignments: vec![],
        };
        let (e, report) = engine().with_delta(&delta).unwrap();
        assert!(report.refreshed_gamma_tables > 0);
        assert!(report.walk_index_rebuilt);

        // Every Γ table — refreshed or not — must equal a from-scratch build
        // on the updated graph.
        let fresh = pit_index::PropagationIndex::build(e.graph(), *e.propagation().config());
        for v in e.graph().nodes() {
            assert_eq!(
                e.propagation().gamma(v),
                fresh.gamma(v),
                "Γ({v}) diverged from fresh build"
            );
        }
    }

    #[test]
    fn new_edge_changes_search_results() {
        let e = engine();
        let before = e.search_user_term(user(7), TermId(0), 1);
        // t2 currently has no influence on user 7; wire topic-2 member user 4
        // directly to 7 with a strong edge.
        let delta = Delta {
            new_edges: vec![(user(4), user(7), 0.9)],
            new_assignments: vec![],
        };
        let (e, _) = e.with_delta(&delta).unwrap();
        let after = e.search_user_term(user(7), TermId(0), 1);
        // Before: HTC (t3) wins via 11→7. After, Samsung (t2) must at least
        // gain score; with a 0.9 edge it takes the top slot.
        assert_ne!(before.top_k, after.top_k, "delta had no effect");
        assert_eq!(after.top_k[0].topic, TopicId(1), "{after:?}");
    }

    #[test]
    fn new_assignment_resummarizes_topic() {
        let e = engine();
        // User 5 (a strong influencer of user 3) starts mentioning t3.
        let delta = Delta {
            new_edges: vec![],
            new_assignments: vec![(user(5), TopicId(2))],
        };
        let before = e.search_user_term(user(3), TermId(0), 3);
        let (e, report) = e.with_delta(&delta).unwrap();
        assert!(report.resummarized_topics >= 1);
        assert!(e.space().node_has_topic(user(5), TopicId(2)));
        let after = e.search_user_term(user(3), TermId(0), 3);
        let score = |out: &pit_search_core::SearchOutcome, t: u32| {
            out.top_k
                .iter()
                .find(|s| s.topic == TopicId(t))
                .map(|s| s.score)
                .unwrap_or(0.0)
        };
        assert!(
            score(&after, 2) > score(&before, 2),
            "t3 should gain influence on user 3: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn with_delta_leaves_the_source_engine_untouched() {
        let e = engine();
        let before = e.search_user_term(user(7), TermId(0), 3);
        let delta = Delta {
            new_edges: vec![(user(4), user(7), 0.9)],
            new_assignments: vec![],
        };
        let (next, report) = e.with_delta(&delta).unwrap();
        assert!(report.walk_index_rebuilt);
        // The source still serves the pre-delta answer…
        assert_eq!(
            before.top_k,
            e.search_user_term(user(7), TermId(0), 3).top_k
        );
        // …while the successor serves the post-delta one.
        let after = next.search_user_term(user(7), TermId(0), 3);
        assert_ne!(before.top_k, after.top_k, "delta had no effect");
    }

    #[test]
    fn with_delta_on_empty_delta_is_a_deep_clone() {
        let e = engine();
        let (clone, report) = e.with_delta(&Delta::default()).unwrap();
        assert_eq!(report, UpdateReport::default());
        assert_eq!(
            e.search_user_term(user(3), TermId(0), 3).top_k,
            clone.search_user_term(user(3), TermId(0), 3).top_k
        );
    }

    #[test]
    fn rejects_invalid_delta_edges() {
        let e = engine();
        let bad = Delta {
            new_edges: vec![(user(1), user(1), 0.5)],
            new_assignments: vec![],
        };
        assert!(e.with_delta(&bad).is_err());
        let bad = Delta {
            new_edges: vec![(user(1), user(2), 1.5)],
            new_assignments: vec![],
        };
        assert!(e.with_delta(&bad).is_err());
    }

    #[test]
    fn unknown_topic_is_a_typed_error_on_full_and_sliced_engines() {
        use crate::shard::{slice_engine, ShardSpec};
        let e = engine();
        let bad = Delta {
            new_edges: vec![],
            new_assignments: vec![(user(1), TopicId(9999))],
        };
        let unknown = GraphError::UnknownTopic {
            topic: TopicId(9999),
        };
        assert_eq!(e.with_delta(&bad).err(), Some(unknown.clone()));
        let spec = ShardSpec::new(0, 2);
        let slice = slice_engine(&e, spec);
        assert_eq!(
            slice.with_delta_scoped(&bad, Some(&spec)).err(),
            Some(unknown)
        );
    }

    #[test]
    fn scoped_delta_commutes_with_slicing() {
        // The shard invariant: updating a slice in place must land exactly
        // where slicing the updated full engine would — same Γ tables, same
        // representative sets — for every shard of every partition width.
        use crate::shard::{slice_engine, ShardSpec};
        let e = engine();
        let delta = Delta {
            new_edges: vec![(user(11), user(6), 0.9)],
            new_assignments: vec![(user(5), TopicId(2))],
        };
        let (full_next, full_report) = e.with_delta(&delta).unwrap();
        for count in [2u32, 3] {
            for i in 0..count {
                let spec = ShardSpec::new(i, count);
                let slice = slice_engine(&e, spec);
                let (next, report) = slice.with_delta_scoped(&delta, Some(&spec)).unwrap();
                let expect = slice_engine(&full_next, spec);
                for v in next.graph().nodes() {
                    assert_eq!(
                        next.propagation().gamma(v),
                        expect.propagation().gamma(v),
                        "shard {spec}: Γ({v}) diverged"
                    );
                }
                for t in next.space().topics() {
                    assert_eq!(
                        next.reps().get(t),
                        expect.reps().get(t),
                        "shard {spec}: representatives of {t} diverged"
                    );
                }
                assert!(report.walk_index_rebuilt);
                assert!(
                    report.refreshed_gamma_tables <= full_report.refreshed_gamma_tables,
                    "a shard refreshes no more tables than the full engine"
                );
            }
        }
    }

    #[test]
    fn delta_scope_is_the_head_closure_plus_affected_term_bags() {
        let e = engine();
        // Edge-only delta: the user scope is exactly the downstream closure
        // of the head on the post-delta graph, and every re-summarized topic
        // files its terms under the edge cause.
        let delta = Delta {
            new_edges: vec![(user(4), user(7), 0.9)],
            new_assignments: vec![],
        };
        let (next, report) = e.with_delta(&delta).unwrap();
        let expect = next.graph().downstream_within(&[user(7)], usize::MAX);
        assert_eq!(report.scope.edge_users, expect);
        assert!(report.scope.touches_user(user(7)));
        assert!(report.scope.assignment_terms.is_empty());
        assert!(report.resummarized_topics > 0);
        // Figure 1 has a single term, so any re-summarized topic puts
        // TermId(0) in the edge bag.
        assert_eq!(report.scope.edge_terms, vec![TermId(0)]);
        assert!(report.scope.touches_edge_terms(&[TermId(0)]));

        // Assignment-only delta: no Γ table refreshes, no edge terms; the
        // assigned topic's terms land in the assignment bag.
        let delta = Delta {
            new_edges: vec![],
            new_assignments: vec![(user(5), TopicId(2))],
        };
        let (_, report) = e.with_delta(&delta).unwrap();
        assert!(report.scope.edge_users.is_empty());
        assert!(report.scope.edge_terms.is_empty());
        assert_eq!(report.scope.assignment_terms, vec![TermId(0)]);
        assert!(report.scope.touches_assignment_terms(&[TermId(0)]));
        assert!(!report.scope.is_empty());
    }

    #[test]
    fn upstream_within_is_reverse_reachability() {
        let g = figure1_graph();
        // Nodes that can reach user 3 within 1 hop: {3, 1, 5, 6}.
        let mut got = upstream_within(&g, &[user(3)], 1);
        got.sort_unstable();
        let mut expect = vec![user(3), user(1), user(5), user(6)];
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}
