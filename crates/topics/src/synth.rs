//! Synthetic topic-space generation.
//!
//! Substitutes the paper's LDA-over-tweets + HetRec-tag pipeline (Section
//! 6.1, "Topic Generation"). The generator reproduces the statistics the
//! PIT-Search algorithms are sensitive to:
//!
//! * **topics per keyword**: every topic carries exactly one *query term*
//!   drawn from a small hub vocabulary, so a single-keyword query matches
//!   `topic_count / query_term_count` topics on average (paper: 500+ topics
//!   per tag);
//! * **nodes per topic**: users adopt topics with Zipf-skewed popularity, so
//!   head topics have large `V_t` and the tail is sparse (paper: ~20,000
//!   topic nodes per q-related topic at 3 M users);
//! * **topics per user**: configurable mean (paper: ~200 topics per user).

use crate::space::{TopicSpace, TopicSpaceBuilder};
use crate::vocab::Vocabulary;
use crate::zipf::Zipf;
use pit_graph::{NodeId, TermId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`generate_topic_space`].
#[derive(Clone, Debug)]
pub struct SyntheticTopicConfig {
    /// Total number of topics `|T|`.
    pub topic_count: usize,
    /// Number of hub "query terms"; each topic carries exactly one, so one
    /// keyword matches `topic_count / query_term_count` topics on average.
    pub query_term_count: usize,
    /// Long-tail vocabulary size (descriptive, non-query terms).
    pub tail_term_count: usize,
    /// Terms per topic, including the query term (paper: ~16 topic seeds).
    pub terms_per_topic: usize,
    /// Mean number of topics mentioned per user.
    pub topics_per_node_mean: f64,
    /// Zipf exponent for topic popularity (0 = uniform; ~1 is web-like).
    pub zipf_exponent: f64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl SyntheticTopicConfig {
    /// A small configuration suitable for unit tests and the 2 k dataset.
    pub fn small() -> Self {
        SyntheticTopicConfig {
            topic_count: 200,
            query_term_count: 10,
            tail_term_count: 400,
            terms_per_topic: 8,
            topics_per_node_mean: 8.0,
            zipf_exponent: 1.0,
            seed: 0x9157,
        }
    }
}

/// Generate a deterministic synthetic topic space over `node_count` users.
///
/// Returns the space plus the vocabulary; term ids `0..query_term_count` are
/// the hub query terms (named `query-0`, `query-1`, …), the rest are tail
/// terms (`tag-0`, `tag-1`, …).
///
/// Every topic is guaranteed a non-empty `V_t` (a lonely topic is assigned
/// one random user), matching the paper's setting where topics are by
/// construction extracted *from* users.
pub fn generate_topic_space(
    node_count: usize,
    cfg: &SyntheticTopicConfig,
) -> (TopicSpace, Vocabulary) {
    assert!(node_count > 0, "need at least one node");
    assert!(cfg.topic_count > 0, "need at least one topic");
    assert!(cfg.query_term_count > 0, "need at least one query term");
    assert!(
        cfg.terms_per_topic >= 1,
        "topics need at least their query term"
    );

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut vocab = Vocabulary::new();
    for i in 0..cfg.query_term_count {
        vocab.intern(&format!("query-{i}"));
    }
    for i in 0..cfg.tail_term_count {
        vocab.intern(&format!("tag-{i}"));
    }

    let mut builder = TopicSpaceBuilder::new(node_count, vocab.len());

    // Topic → term bag. Query term drawn Zipf-skewed over hub terms so some
    // keywords are "hotter" than others, like real tags.
    let hub_zipf = Zipf::new(cfg.query_term_count, 0.8);
    for _ in 0..cfg.topic_count {
        let mut terms = Vec::with_capacity(cfg.terms_per_topic);
        terms.push(TermId::from_index(hub_zipf.sample(&mut rng)));
        for _ in 1..cfg.terms_per_topic {
            if cfg.tail_term_count == 0 {
                break;
            }
            let tail = rng.gen_range(0..cfg.tail_term_count);
            terms.push(TermId::from_index(cfg.query_term_count + tail));
        }
        builder.add_topic(terms);
    }

    // Node → topic sets with Zipf-skewed topic popularity.
    let topic_zipf = Zipf::new(cfg.topic_count, cfg.zipf_exponent);
    let mut assigned = vec![false; cfg.topic_count];
    for v in 0..node_count {
        // Per-user topic count: uniform in [mean/2, 3*mean/2], at least 1.
        let lo = (cfg.topics_per_node_mean * 0.5).max(1.0) as usize;
        let hi = (cfg.topics_per_node_mean * 1.5).max(2.0) as usize;
        let k = rng.gen_range(lo..=hi);
        for _ in 0..k {
            let t = topic_zipf.sample(&mut rng);
            assigned[t] = true;
            builder.assign(NodeId::from_index(v), pit_graph::TopicId::from_index(t));
        }
    }

    // Guarantee non-empty V_t for every topic.
    for (t, was_assigned) in assigned.iter().enumerate() {
        if !was_assigned {
            let v = rng.gen_range(0..node_count);
            builder.assign(NodeId::from_index(v), pit_graph::TopicId::from_index(t));
        }
    }

    (builder.build(), vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::TopicId;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = SyntheticTopicConfig::small();
        let (a, _) = generate_topic_space(100, &cfg);
        let (b, _) = generate_topic_space(100, &cfg);
        for t in a.topics() {
            assert_eq!(a.topic_nodes(t), b.topic_nodes(t));
            assert_eq!(a.topic_terms(t), b.topic_terms(t));
        }
    }

    #[test]
    fn different_seed_differs() {
        let cfg = SyntheticTopicConfig::small();
        let mut cfg2 = cfg.clone();
        cfg2.seed ^= 0xdead_beef;
        let (a, _) = generate_topic_space(200, &cfg);
        let (b, _) = generate_topic_space(200, &cfg2);
        let differs = a.topics().any(|t| a.topic_nodes(t) != b.topic_nodes(t));
        assert!(differs);
    }

    #[test]
    fn every_topic_has_nodes() {
        let cfg = SyntheticTopicConfig::small();
        let (s, _) = generate_topic_space(50, &cfg);
        for t in s.topics() {
            assert!(!s.topic_nodes(t).is_empty(), "topic {t} has empty V_t");
        }
    }

    #[test]
    fn every_topic_has_a_query_term() {
        let cfg = SyntheticTopicConfig::small();
        let (s, _) = generate_topic_space(50, &cfg);
        for t in s.topics() {
            let has_query = s
                .topic_terms(t)
                .iter()
                .any(|term| term.index() < cfg.query_term_count);
            assert!(has_query, "topic {t} lacks a query term");
        }
    }

    #[test]
    fn query_terms_match_many_topics() {
        let cfg = SyntheticTopicConfig::small();
        let (s, _) = generate_topic_space(100, &cfg);
        // The most popular query term should cover well above the uniform
        // share.
        let max_cover = (0..cfg.query_term_count)
            .map(|i| s.topics_for_term(TermId::from_index(i)).len())
            .max()
            .unwrap();
        assert!(
            max_cover * cfg.query_term_count >= cfg.topic_count,
            "hot term covers too few topics: {max_cover}"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = SyntheticTopicConfig {
            topic_count: 100,
            zipf_exponent: 1.2,
            ..SyntheticTopicConfig::small()
        };
        let (s, _) = generate_topic_space(2_000, &cfg);
        let head = s.topic_nodes(TopicId(0)).len();
        let tail = s.topic_nodes(TopicId(90)).len();
        assert!(head > 5 * tail.max(1), "head {head} vs tail {tail}");
    }

    #[test]
    fn vocab_layout() {
        let cfg = SyntheticTopicConfig::small();
        let (_, vocab) = generate_topic_space(10, &cfg);
        assert_eq!(vocab.len(), cfg.query_term_count + cfg.tail_term_count);
        assert!(vocab.get("query-0").is_some());
        assert!(vocab.get("tag-0").is_some());
    }
}
