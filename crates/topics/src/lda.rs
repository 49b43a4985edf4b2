//! A small Latent Dirichlet Allocation implementation (collapsed Gibbs
//! sampling) — the paper's topic-extraction substrate.
//!
//! Section 6.1: "Given a Twitter user, we first treat the posted messages as
//! a document, and apply a simple LDA topic model to the document to generate
//! a bag of terms (normally 16 terms) to be topic seeds of this user."
//! The tweets themselves are proprietary, but the *pipeline* is fully
//! reproducible: [`LdaModel::fit`] learns topic–term distributions from any
//! bag-of-words corpus, and [`extract_topic_space`] turns per-user documents
//! into the `TopicSpace` the rest of the system consumes — an alternative to
//! the statistics-matched generator in [`crate::synth`].
//!
//! The sampler is the standard collapsed Gibbs update
//! `P(z = t) ∝ (n_dt + α) · (n_tw + β) / (n_t + Wβ)`, fully deterministic
//! for a given seed.

use crate::space::{TopicSpace, TopicSpaceBuilder};
use pit_graph::{NodeId, TermId, TopicId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A document is a bag of term occurrences.
pub type Document = Vec<TermId>;

/// LDA hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct LdaConfig {
    /// Number of latent topics `K`.
    pub topics: usize,
    /// Dirichlet prior on per-document topic mixtures (`α`).
    pub alpha: f64,
    /// Dirichlet prior on per-topic term distributions (`β`).
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            topics: 16,
            alpha: 0.5,
            beta: 0.1,
            iterations: 60,
            seed: 0x1DA,
        }
    }
}

/// A fitted LDA model: count matrices from the final Gibbs state.
#[derive(Clone, Debug)]
pub struct LdaModel {
    config: LdaConfig,
    vocab_size: usize,
    /// `n_tw[t * W + w]` — occurrences of term `w` assigned to topic `t`.
    topic_term: Vec<u32>,
    /// `n_t[t]` — total occurrences assigned to topic `t`.
    topic_total: Vec<u32>,
    /// `n_dt[d * K + t]` — occurrences in document `d` assigned to topic `t`.
    doc_topic: Vec<u32>,
    /// Document lengths.
    doc_len: Vec<u32>,
}

impl LdaModel {
    /// Fit a model to `docs` over a vocabulary of `vocab_size` terms by
    /// collapsed Gibbs sampling.
    ///
    /// # Panics
    /// Panics on an empty corpus, zero topics, or a term id outside the
    /// vocabulary.
    pub fn fit(docs: &[Document], vocab_size: usize, config: LdaConfig) -> Self {
        assert!(!docs.is_empty(), "corpus must be non-empty");
        assert!(config.topics > 0, "need at least one topic");
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        let k = config.topics;
        let w_count = vocab_size;
        let mut rng = SmallRng::seed_from_u64(config.seed);

        let mut topic_term = vec![0u32; k * w_count];
        let mut topic_total = vec![0u32; k];
        let mut doc_topic = vec![0u32; docs.len() * k];
        let mut doc_len = vec![0u32; docs.len()];
        // Current assignment per token, flattened in corpus order.
        let mut assign: Vec<u8> = Vec::new();
        assert!(
            k <= u8::MAX as usize + 1,
            "topic count exceeds u8 assignment storage"
        );

        // Random initialization.
        for (d, doc) in docs.iter().enumerate() {
            doc_len[d] = doc.len() as u32;
            for &term in doc {
                assert!(term.index() < w_count, "term {term} outside vocabulary");
                let t = rng.gen_range(0..k);
                assign.push(t as u8);
                topic_term[t * w_count + term.index()] += 1;
                topic_total[t] += 1;
                doc_topic[d * k + t] += 1;
            }
        }

        // Collapsed Gibbs sweeps.
        let mut weights = vec![0.0f64; k];
        for _ in 0..config.iterations {
            let mut token = 0usize;
            for (d, doc) in docs.iter().enumerate() {
                for &term in doc {
                    let old = assign[token] as usize;
                    // Remove the token from the counts.
                    topic_term[old * w_count + term.index()] -= 1;
                    topic_total[old] -= 1;
                    doc_topic[d * k + old] -= 1;

                    // Sample a new topic.
                    let mut total = 0.0;
                    for (t, wslot) in weights.iter_mut().enumerate() {
                        let p = (doc_topic[d * k + t] as f64 + config.alpha)
                            * (topic_term[t * w_count + term.index()] as f64 + config.beta)
                            / (topic_total[t] as f64 + w_count as f64 * config.beta);
                        *wslot = p;
                        total += p;
                    }
                    let mut x = rng.gen::<f64>() * total;
                    let mut new = k - 1;
                    for (t, &p) in weights.iter().enumerate() {
                        x -= p;
                        if x <= 0.0 {
                            new = t;
                            break;
                        }
                    }

                    assign[token] = new as u8;
                    topic_term[new * w_count + term.index()] += 1;
                    topic_total[new] += 1;
                    doc_topic[d * k + new] += 1;
                    token += 1;
                }
            }
        }

        LdaModel {
            config,
            vocab_size,
            topic_term,
            topic_total,
            doc_topic,
            doc_len,
        }
    }

    /// Number of latent topics `K`.
    pub fn topic_count(&self) -> usize {
        self.config.topics
    }

    /// Number of documents the model was fitted on.
    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// Smoothed probability of `term` under latent topic `t` (`φ_tw`).
    pub fn term_prob(&self, t: usize, term: TermId) -> f64 {
        (self.topic_term[t * self.vocab_size + term.index()] as f64 + self.config.beta)
            / (self.topic_total[t] as f64 + self.vocab_size as f64 * self.config.beta)
    }

    /// Smoothed probability of latent topic `t` in document `d` (`θ_dt`).
    pub fn doc_topic_prob(&self, d: usize, t: usize) -> f64 {
        let k = self.config.topics;
        (self.doc_topic[d * k + t] as f64 + self.config.alpha)
            / (self.doc_len[d] as f64 + k as f64 * self.config.alpha)
    }

    /// The `n` highest-probability terms of latent topic `t` — the paper's
    /// "bag of terms (normally 16 terms)".
    pub fn top_terms(&self, t: usize, n: usize) -> Vec<TermId> {
        let mut order: Vec<u32> = (0..self.vocab_size as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let pa = self.topic_term[t * self.vocab_size + a as usize];
            let pb = self.topic_term[t * self.vocab_size + b as usize];
            pb.cmp(&pa).then(a.cmp(&b))
        });
        order.truncate(n);
        order.into_iter().map(TermId).collect()
    }

    /// Latent topics of document `d` whose share exceeds `min_share`,
    /// strongest first.
    pub fn dominant_topics(&self, d: usize, min_share: f64) -> Vec<usize> {
        let mut topics: Vec<(usize, f64)> = (0..self.config.topics)
            .map(|t| (t, self.doc_topic_prob(d, t)))
            .filter(|&(_, p)| p >= min_share)
            .collect();
        topics.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        topics.into_iter().map(|(t, _)| t).collect()
    }
}

/// Build a [`TopicSpace`] from per-user documents via a fitted model —
/// the paper's end-to-end topic-generation pipeline: user `u` mentions
/// latent topic `t` when `t`'s share of `u`'s document is at least
/// `min_share`; each topic's term bag is its `terms_per_topic` top terms.
///
/// `docs[u]` must be user `u`'s document (one per graph node).
pub fn extract_topic_space(
    model: &LdaModel,
    docs_len: usize,
    vocab_size: usize,
    terms_per_topic: usize,
    min_share: f64,
) -> TopicSpace {
    assert_eq!(
        model.doc_count(),
        docs_len,
        "one document per user required"
    );
    let mut b = TopicSpaceBuilder::new(docs_len, vocab_size);
    for t in 0..model.topic_count() {
        let id = b.add_topic(model.top_terms(t, terms_per_topic));
        debug_assert_eq!(id, TopicId::from_index(t));
    }
    for d in 0..docs_len {
        for t in model.dominant_topics(d, min_share) {
            b.assign(NodeId::from_index(d), TopicId::from_index(t));
        }
    }
    b.build()
}

/// Generate a synthetic corpus from a *known* mixture for testing: `k`
/// ground-truth topics with disjoint term blocks of size `block`, each
/// document drawing all its tokens from 1–2 topics.
pub fn synthetic_corpus(
    n_docs: usize,
    k: usize,
    block: usize,
    tokens_per_doc: usize,
    seed: u64,
) -> (Vec<Document>, usize) {
    let vocab_size = k * block;
    let mut rng = SmallRng::seed_from_u64(seed);
    let docs = (0..n_docs)
        .map(|_| {
            let primary = rng.gen_range(0..k);
            let secondary = rng.gen_range(0..k);
            (0..tokens_per_doc)
                .map(|_| {
                    let topic = if rng.gen::<f64>() < 0.8 {
                        primary
                    } else {
                        secondary
                    };
                    TermId::from_index(topic * block + rng.gen_range(0..block))
                })
                .collect()
        })
        .collect();
    (docs, vocab_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 80 tokens per document: at 40, a few sampler seeds of the vendored
    /// `rand` (the default among them) merge two blocks; at 80, all of
    /// 20 sampler seeds × 3 corpus seeds tried recover the four.
    fn fitted() -> (Vec<Document>, usize, LdaModel) {
        let (docs, vocab) = synthetic_corpus(120, 4, 12, 80, 7);
        let model = LdaModel::fit(
            &docs,
            vocab,
            LdaConfig {
                topics: 4,
                iterations: 80,
                ..LdaConfig::default()
            },
        );
        (docs, vocab, model)
    }

    /// Each learned topic's top terms should concentrate in one ground-truth
    /// term block, and the four learned topics should cover all four blocks.
    #[test]
    fn recovers_ground_truth_blocks() {
        let (_docs, _vocab, model) = fitted();
        let block = 12usize;
        let mut covered = [false; 4];
        for t in 0..4 {
            let top = model.top_terms(t, 8);
            // Majority block of the top terms.
            let mut counts = [0usize; 4];
            for term in &top {
                counts[term.index() / block] += 1;
            }
            let (best_block, &n) = counts.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap();
            assert!(
                n >= 6,
                "learned topic {t} is not concentrated: top terms {top:?}"
            );
            covered[best_block] = true;
        }
        assert!(
            covered.iter().all(|&c| c),
            "learned topics do not cover all ground-truth blocks: {covered:?}"
        );
    }

    #[test]
    fn distributions_are_normalized() {
        let (_docs, vocab, model) = fitted();
        for t in 0..model.topic_count() {
            let total: f64 = (0..vocab)
                .map(|w| model.term_prob(t, TermId::from_index(w)))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "φ_{t} sums to {total}");
        }
        for d in [0usize, 50, 119] {
            let total: f64 = (0..model.topic_count())
                .map(|t| model.doc_topic_prob(d, t))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "θ_{d} sums to {total}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (docs, vocab) = synthetic_corpus(40, 3, 8, 25, 3);
        let cfg = LdaConfig {
            topics: 3,
            iterations: 30,
            ..LdaConfig::default()
        };
        let a = LdaModel::fit(&docs, vocab, cfg);
        let b = LdaModel::fit(&docs, vocab, cfg);
        for t in 0..3 {
            assert_eq!(a.top_terms(t, 5), b.top_terms(t, 5));
        }
    }

    #[test]
    fn extract_topic_space_pipeline() {
        let (docs, vocab, model) = fitted();
        let space = extract_topic_space(&model, docs.len(), vocab, 16, 0.3);
        assert_eq!(space.topic_count(), 4);
        assert_eq!(space.node_count(), docs.len());
        // Every user mentions at least one topic (their primary has ≥ 0.3
        // share in a 2-topic mixture with 80/20 split — overwhelmingly).
        let covered = (0..docs.len())
            .filter(|&d| !space.node_topics(NodeId::from_index(d)).is_empty())
            .count();
        assert!(
            covered * 10 >= docs.len() * 9,
            "only {covered}/{} users got topics",
            docs.len()
        );
        // Term bags have the requested size.
        for t in space.topics() {
            assert_eq!(space.topic_terms(t).len(), 16);
        }
    }

    #[test]
    fn dominant_topics_ordering() {
        let (_docs, _vocab, model) = fitted();
        for d in 0..5 {
            let tops = model.dominant_topics(d, 0.0);
            assert_eq!(tops.len(), 4);
            let probs: Vec<f64> = tops.iter().map(|&t| model.doc_topic_prob(d, t)).collect();
            assert!(probs.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_empty_corpus() {
        let _ = LdaModel::fit(&[], 10, LdaConfig::default());
    }
}
