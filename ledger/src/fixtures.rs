//! Seeded fixtures. Every input the measured programs see is generated
//! here from `--seed`: the corpora `pit build` reads, and the in-process
//! engines the oracle and the per-layer timings use.

use crate::loadgen::subseed;
use pit::datasets::spec::scaled_topic_config;
use pit::datasets::{Dataset, DatasetKind, DatasetSpec};
use pit::index::{PropIndexConfig, PropagationIndex};
use pit::search::TopicRepIndex;
use pit::summarize::{LrwConfig, LrwSummarizer, RclConfig, RclSummarizer, SummarizeContext};
use pit::walk::{WalkConfig, WalkIndex, WalkIndexParts};
use pit::{PitEngine, SummarizerKind};
use std::path::Path;
use std::time::{Duration, Instant};

/// A named dataset shape; the seed picks the instance.
#[derive(Clone, Copy, Debug)]
pub struct Fixture {
    pub name: &'static str,
    pub nodes: usize,
    pub kind: DatasetKind,
}

const BAND: DatasetKind = DatasetKind::DegreeBand { lo: 4, hi: 16 };

/// The serving fixture: ~25 MB of snapshot, LRW-A build ≈ 3.5 s.
pub const BAND12K: Fixture = Fixture {
    name: "band12k",
    nodes: 12_000,
    kind: BAND,
};
/// The build workload's LRW-A fixture (≈ 5.5 s: summarization is
/// superlinear in the node count).
pub const BAND16K: Fixture = Fixture {
    name: "band16k",
    nodes: 16_000,
    kind: BAND,
};
/// The RCL-A fixture (≈ 1.2 s). RCL-A's cost is quadratic in its largest
/// topics, so on bigger graphs it swings with the seed (±12 % at 2 000
/// nodes against ±6 % here) as well as being slow.
pub const BAND1K: Fixture = Fixture {
    name: "band1k",
    nodes: 1_000,
    kind: BAND,
};
/// The ground-truth fixture: power law, small enough that BasePropagation
/// ranks every related topic exactly in about a millisecond.
pub const PL2K: Fixture = Fixture {
    name: "pl2k",
    nodes: 2_000,
    kind: DatasetKind::PowerLaw { edges_per_node: 4 },
};

impl Fixture {
    pub fn generate(&self, seed: u64) -> Dataset {
        let seed = subseed(seed, self.name);
        pit::datasets::generate(&DatasetSpec {
            name: self.name.to_string(),
            nodes: self.nodes,
            kind: self.kind,
            topics: scaled_topic_config(self.nodes, seed),
            seed,
        })
    }
}

/// Write `ds` as the corpus directory `pit build --corpus` reads.
///
/// # Errors
/// The directory or one of its three files could not be written.
pub fn write_corpus(ds: &Dataset, dir: &Path) -> Result<(), String> {
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("write {name}: {e}"))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write("graph.pitg", &pit::graph::snapshot::encode(&ds.graph))?;
    write(
        "topics.pitt",
        &pit::topics::snapshot::encode_space(&ds.space),
    )?;
    write(
        "vocab.pitv",
        &pit::topics::snapshot::encode_vocab(&ds.vocab),
    )
}

/// Which summarizer an in-process build runs, with `pit build`'s defaults
/// (64 representatives per topic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Summarizer {
    Lrw,
    Rcl,
}

impl Summarizer {
    /// The value of `pit build --summarizer`.
    pub fn flag(self) -> &'static str {
        match self {
            Summarizer::Lrw => "lrw",
            Summarizer::Rcl => "rcl",
        }
    }
}

/// Wall time of each offline stage of one in-process build.
pub struct StageTimes {
    pub walk: Duration,
    pub summarize: Duration,
    pub gamma: Duration,
}

/// The offline stage, stage by stage, with `pit build`'s default
/// parameters (L = 5, R = 32, θ = 0.01, 64 representatives, 4 EXPAND
/// rounds) — what `pit build` does in one call, split at the layer
/// boundaries so each can be timed.
pub fn build_in_process(ds: Dataset, summarizer: Summarizer) -> (PitEngine, StageTimes) {
    let parts = match summarizer {
        Summarizer::Lrw => WalkIndexParts::FOR_LRW,
        Summarizer::Rcl => WalkIndexParts::ALL,
    };
    let t = Instant::now();
    let walks = WalkIndex::build_parts(&ds.graph, WalkConfig::new(5, 32), parts);
    let walk = t.elapsed();

    let t = Instant::now();
    let ctx = SummarizeContext {
        graph: &ds.graph,
        space: &ds.space,
        walks: &walks,
    };
    let (reps, kind) = match summarizer {
        Summarizer::Lrw => {
            let config = LrwConfig {
                rep_count: Some(64),
                ..LrwConfig::default()
            };
            (
                TopicRepIndex::build(&ctx, &LrwSummarizer::new(config)),
                SummarizerKind::Lrw(config),
            )
        }
        Summarizer::Rcl => {
            let config = RclConfig {
                c_size: 64,
                ..RclConfig::default()
            };
            (
                TopicRepIndex::build(&ctx, &RclSummarizer::new(config)),
                SummarizerKind::Rcl(config),
            )
        }
    };
    let summarize = t.elapsed();

    let t = Instant::now();
    let prop = PropagationIndex::build(&ds.graph, PropIndexConfig::with_theta(0.01));
    let gamma = t.elapsed();

    let engine = PitEngine::from_parts(
        ds.graph,
        ds.space,
        Some(ds.vocab),
        walks,
        prop,
        reps,
        kind,
        4,
    );
    (
        engine,
        StageTimes {
            walk,
            summarize,
            gamma,
        },
    )
}
