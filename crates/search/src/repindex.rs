//! The topic-to-representative-user index (offline stage output).

use pit_graph::TopicId;
use pit_summarize::{RepresentativeSet, SummarizeContext, Summarizer};

/// Materialized representative sets for every topic — the paper's
/// "topic-to-representative user index", built once offline (Algorithm 5
/// line 2 / Algorithm 9 lines 2–3) and probed by every query.
#[derive(Clone, Debug)]
pub struct TopicRepIndex {
    sets: Vec<RepresentativeSet>,
}

impl TopicRepIndex {
    /// Build the index by summarizing every topic in the space, fanning the
    /// topics out over worker threads.
    pub fn build<S: Summarizer + Sync>(ctx: &SummarizeContext<'_>, summarizer: &S) -> Self {
        let topics: Vec<TopicId> = ctx.space.topics().collect();
        Self::build_for_topics(ctx, summarizer, &topics)
    }

    /// Build the index for a subset of topics only (other topics get empty
    /// sets). Useful when benchmarking a single query's topic universe.
    pub fn build_for_topics<S: Summarizer + Sync>(
        ctx: &SummarizeContext<'_>,
        summarizer: &S,
        topics: &[TopicId],
    ) -> Self {
        let n_topics = ctx.space.topic_count();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(topics.len().max(1));
        let chunk = topics.len().div_ceil(threads);

        let mut computed: Vec<(TopicId, RepresentativeSet)> = Vec::with_capacity(topics.len());
        #[expect(
            clippy::expect_used,
            reason = "crossbeam::scope errs only when a scoped thread panicked; offline index \
                      construction must abort loudly rather than emit a partial summary"
        )]
        crossbeam::scope(|s| {
            let mut handles = Vec::new();
            for part in topics.chunks(chunk.max(1)) {
                handles.push(s.spawn(move |_| {
                    part.iter()
                        .map(|&t| (t, summarizer.summarize(ctx, t)))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "join() only errs if the worker panicked; propagating that panic \
                              (rather than returning a truncated index) is the intended \
                              behaviour during offline build"
                )]
                computed.extend(h.join().expect("summarization worker panicked"));
            }
        })
        .expect("crossbeam scope failed");

        let mut sets: Vec<RepresentativeSet> = (0..n_topics)
            .map(|t| RepresentativeSet::new(TopicId::from_index(t), Vec::new()))
            .collect();
        for (t, set) in computed {
            sets[t.index()] = set;
        }
        TopicRepIndex { sets }
    }

    /// Wrap pre-computed sets (tests, or loading a persisted index).
    ///
    /// # Panics
    /// Panics if `sets[i].topic() != i` for some `i`.
    pub fn from_sets(sets: Vec<RepresentativeSet>) -> Self {
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(
                s.topic().index(),
                i,
                "set at position {i} belongs to topic {}",
                s.topic()
            );
        }
        TopicRepIndex { sets }
    }

    /// The representative set of `topic`.
    #[inline]
    pub fn get(&self, topic: TopicId) -> &RepresentativeSet {
        &self.sets[topic.index()]
    }

    /// Number of topics covered (= topic count of the space).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Replace every set with its `k` heaviest representatives — the
    /// experiment knob of Figures 7 and 12 ("vary the materialized sizes of
    /// representative nodes for each topic").
    pub fn truncated(&self, k: usize) -> TopicRepIndex {
        TopicRepIndex {
            sets: self.sets.iter().map(|s| s.truncate_to_top(k)).collect(),
        }
    }

    /// Replace one topic's representative set (used by incremental
    /// maintenance when a topic is re-summarized).
    ///
    /// # Panics
    /// Panics if the set's topic id is out of range or does not match its
    /// slot.
    pub fn replace(&mut self, set: RepresentativeSet) {
        let i = set.topic().index();
        assert!(i < self.sets.len(), "topic {} out of range", set.topic());
        self.sets[i] = set;
    }

    /// Total representatives across all topics.
    pub fn total_reps(&self) -> usize {
        self.sets.iter().map(RepresentativeSet::len).sum()
    }

    /// Estimated resident heap size in bytes.
    pub fn heap_size_bytes(&self) -> usize {
        self.sets
            .iter()
            .map(RepresentativeSet::heap_size_bytes)
            .sum::<usize>()
            + self.sets.capacity() * std::mem::size_of::<RepresentativeSet>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::{fixtures, NodeId, TermId};
    use pit_summarize::{LrwConfig, LrwSummarizer};
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::{WalkConfig, WalkIndex};

    fn setup() -> (pit_graph::CsrGraph, pit_topics::TopicSpace, WalkIndex) {
        let g = fixtures::figure1_graph();
        let mut b = TopicSpaceBuilder::new(g.node_count(), 1);
        for nodes in &fixtures::figure1_topics() {
            let t = b.add_topic(vec![TermId(0)]);
            for &n in nodes {
                b.assign(n, t);
            }
        }
        let space = b.build();
        let walks = WalkIndex::build(&g, WalkConfig::new(4, 16).with_seed(11));
        (g, space, walks)
    }

    #[test]
    fn builds_one_set_per_topic() {
        let (g, space, walks) = setup();
        let ctx = SummarizeContext {
            graph: &g,
            space: &space,
            walks: &walks,
        };
        let idx = TopicRepIndex::build(&ctx, &LrwSummarizer::new(LrwConfig::default()));
        assert_eq!(idx.len(), 3);
        for t in space.topics() {
            assert_eq!(idx.get(t).topic(), t);
            assert!(!idx.get(t).is_empty());
        }
        assert!(idx.total_reps() >= 3);
    }

    #[test]
    fn subset_build_leaves_others_empty() {
        let (g, space, walks) = setup();
        let ctx = SummarizeContext {
            graph: &g,
            space: &space,
            walks: &walks,
        };
        let idx = TopicRepIndex::build_for_topics(
            &ctx,
            &LrwSummarizer::new(LrwConfig::default()),
            &[pit_graph::TopicId(1)],
        );
        assert!(idx.get(pit_graph::TopicId(0)).is_empty());
        assert!(!idx.get(pit_graph::TopicId(1)).is_empty());
    }

    #[test]
    fn truncated_caps_every_set() {
        let (g, space, walks) = setup();
        let ctx = SummarizeContext {
            graph: &g,
            space: &space,
            walks: &walks,
        };
        let idx = TopicRepIndex::build(
            &ctx,
            &LrwSummarizer::new(LrwConfig {
                mu: 1.0,
                ..LrwConfig::default()
            }),
        );
        let cut = idx.truncated(1);
        for t in space.topics() {
            assert!(cut.get(t).len() <= 1);
        }
    }

    #[test]
    #[should_panic]
    fn from_sets_validates_alignment() {
        let s =
            pit_summarize::RepresentativeSet::new(pit_graph::TopicId(5), vec![(NodeId(0), 1.0)]);
        let _ = TopicRepIndex::from_sets(vec![s]);
    }
}
