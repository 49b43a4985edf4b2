//! Deterministic shard maps and shard-sliced snapshots.
//!
//! Horizontal scale partitions *users* — together with their Γ(v)
//! propagation tables and sampled-walk rows, the two per-node artifacts that
//! dominate the index footprint — across N engine shards. Everything a
//! query's *coordinator* needs globally (the graph topology, topic space,
//! vocabulary, representative sets, engine settings) is replicated on every
//! shard: those artifacts are small, and replication is what lets any shard
//! answer the ranking-independent parts of a query and lets incremental
//! updates re-summarize topics identically everywhere without coordination.
//!
//! The shard map is pure arithmetic — [`shard_of`] is `v mod N` — so routers
//! and shards never exchange an assignment table and can never disagree
//! about ownership. A shard snapshot is a normal engine directory (loadable
//! by [`crate::store::load_engine`] for tooling) whose unowned Γ tables and
//! walk rows are empty, plus a tiny `shard.pits` manifest recording
//! `(index, count)` so a serving daemon knows which slice it holds.

// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]

use crate::engine::PitEngine;
use crate::store::{self, StoreError};
use pit_graph::NodeId;
use std::path::{Path, PathBuf};

/// File name of the shard manifest inside a shard snapshot directory.
pub const MANIFEST_FILE: &str = "shard.pits";

const SHARD_MAGIC: &[u8; 4] = b"PITS";
const SHARD_VERSION: u8 = 1;

/// Which shard owns a node under an `count`-way modulo map.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "count is a validated shard count: ShardSpec::new asserts and ShardSpec::decode \
              rejects zero, and a router's count is the length of its non-empty shard list"
)]
pub fn shard_of(v: NodeId, count: u32) -> u32 {
    debug_assert!(count >= 1, "shard count must be positive");
    v.0 % count
}

/// One slice of an `count`-way user partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// This shard's position in `0..count`.
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
}

impl ShardSpec {
    /// Build a spec, validating `index < count` and `count >= 1`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(count >= 1, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardSpec { index, count }
    }

    /// Whether this shard owns node `v` under the modulo map.
    pub fn owns(&self, v: NodeId) -> bool {
        shard_of(v, self.count) == self.index
    }

    /// Serialize the manifest (`shard.pits` contents).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 4 + 4);
        out.extend_from_slice(SHARD_MAGIC);
        out.push(SHARD_VERSION);
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out
    }

    /// Parse a manifest written by [`ShardSpec::encode`].
    ///
    /// # Errors
    /// Returns a [`StoreError::Corrupt`] naming the defect for wrong length,
    /// magic, version, or an out-of-range `(index, count)` pair.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let corrupt = |what: &str| StoreError::Corrupt(format!("shard manifest: {what}"));
        if bytes.len() != 4 + 1 + 4 + 4 {
            return Err(corrupt("wrong length"));
        }
        if &bytes[..4] != SHARD_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if bytes[4] != SHARD_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let index = u32::from_le_bytes(bytes[5..9].try_into().map_err(|_| corrupt("truncated"))?);
        let count = u32::from_le_bytes(bytes[9..13].try_into().map_err(|_| corrupt("truncated"))?);
        if count == 0 {
            return Err(corrupt("zero shard count"));
        }
        if index >= count {
            return Err(corrupt("shard index out of range"));
        }
        Ok(ShardSpec { index, count })
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Slice `engine` down to the artifacts shard `spec` owns: Γ tables and walk
/// rows of unowned nodes are emptied (keeping full-length vectors so every
/// cross-artifact node-count invariant still holds), while the graph, topic
/// space, vocabulary, and representative sets are replicated verbatim.
pub fn slice_engine(engine: &PitEngine, spec: ShardSpec) -> PitEngine {
    let keep = |v: NodeId| spec.owns(v);
    PitEngine::from_parts(
        engine.graph().clone(),
        engine.space().clone(),
        engine.vocab().cloned(),
        engine.walks().sliced(&keep),
        engine.propagation().sliced(&keep),
        engine.reps().clone(),
        engine.summarizer().clone(),
        engine.max_expand_rounds(),
    )
}

/// What [`split_snapshot`] produced and verified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitReport {
    /// Number of shards written.
    pub shards: u32,
    /// Total users in the snapshot.
    pub nodes: usize,
    /// Users owned by each shard, indexed by shard.
    pub owned_per_shard: Vec<usize>,
}

/// Slice the engine snapshot at `src` into `shards` shard snapshots under
/// `out_root/shard-<i>`, then re-load every shard from disk and verify the
/// partition: each shard carries a consistent manifest, every user is owned
/// by exactly one shard, owned Γ tables are bit-identical to the source, and
/// unowned tables are empty.
///
/// # Errors
/// I/O or corruption errors from the underlying store, or a
/// [`StoreError::Corrupt`] describing the first partition violation found.
pub fn split_snapshot(src: &Path, out_root: &Path, shards: u32) -> Result<SplitReport, StoreError> {
    if shards == 0 {
        return Err(StoreError::Corrupt("cannot split into zero shards".into()));
    }
    let engine = store::load_engine(src)?;
    let mut dirs = Vec::with_capacity(shards as usize);
    for i in 0..shards {
        let spec = ShardSpec::new(i, shards);
        let dir = out_root.join(format!("shard-{i}"));
        store::save_shard(&dir, &slice_engine(&engine, spec), spec)?;
        dirs.push(dir);
    }
    verify_split(&engine, &dirs)
}

/// Verify that the shard snapshot directories `dirs` form an exact partition
/// of `source`'s users. See [`split_snapshot`] for the checks performed.
///
/// # Errors
/// A [`StoreError::Corrupt`] describing the first violation found.
pub fn verify_split(source: &PitEngine, dirs: &[PathBuf]) -> Result<SplitReport, StoreError> {
    let corrupt = |what: String| StoreError::Corrupt(what);
    let count = dirs.len() as u32;
    if count == 0 {
        return Err(corrupt("no shard directories to verify".into()));
    }
    let mut specs = Vec::with_capacity(dirs.len());
    let mut engines = Vec::with_capacity(dirs.len());
    for (i, dir) in dirs.iter().enumerate() {
        let spec = store::load_shard_spec(dir)?
            .ok_or_else(|| corrupt(format!("{}: missing shard manifest", dir.display())))?;
        if spec.count != count {
            return Err(corrupt(format!(
                "{}: manifest says {} shards, {} directories given",
                dir.display(),
                spec.count,
                count
            )));
        }
        if spec.index != i as u32 {
            return Err(corrupt(format!(
                "{}: manifest says shard {}, expected shard {i}",
                dir.display(),
                spec.index
            )));
        }
        let engine = store::load_engine(dir)?;
        if engine.graph().node_count() != source.graph().node_count() {
            return Err(corrupt(format!(
                "{}: node count {} disagrees with source {}",
                dir.display(),
                engine.graph().node_count(),
                source.graph().node_count()
            )));
        }
        specs.push(spec);
        engines.push(engine);
    }

    let nodes = source.graph().node_count();
    let mut owned_per_shard = vec![0usize; dirs.len()];
    for v in source.graph().nodes() {
        let owners: Vec<u32> = specs
            .iter()
            .filter(|s| s.owns(v))
            .map(|s| s.index)
            .collect();
        if owners.len() != 1 {
            return Err(corrupt(format!(
                "user {v} owned by {} shards ({owners:?}), expected exactly one",
                owners.len()
            )));
        }
        let owner = owners[0] as usize;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "one increment per node, so bounded by the node count"
        )]
        {
            owned_per_shard[owner] += 1;
        }
        for (i, shard) in engines.iter().enumerate() {
            let gamma = shard.propagation().gamma(v);
            if i == owner {
                if gamma != source.propagation().gamma(v) {
                    return Err(corrupt(format!(
                        "shard {i}: Γ({v}) diverges from the source snapshot"
                    )));
                }
            } else if !gamma.is_empty() {
                return Err(corrupt(format!(
                    "shard {i}: unowned user {v} has a non-empty Γ table"
                )));
            }
        }
    }
    Ok(SplitReport {
        shards: count,
        nodes,
        owned_per_shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
    use pit_graph::TermId;
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::WalkConfig;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pit-shard-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn build_engine() -> PitEngine {
        let graph = figure1_graph();
        let mut vocab = pit_topics::Vocabulary::new();
        let phone = vocab.intern("phone");
        let mut b = TopicSpaceBuilder::new(graph.node_count(), 1);
        for members in &figure1_topics() {
            let t = b.add_topic(vec![phone]);
            for &m in members {
                b.assign(m, t);
            }
        }
        PitEngine::builder()
            .walk(WalkConfig::new(4, 16).with_seed(3))
            .build_with_vocab(graph, b.build(), Some(vocab))
    }

    #[test]
    fn modulo_map_partitions_every_node_exactly_once() {
        for count in 1..=5u32 {
            let specs: Vec<ShardSpec> = (0..count).map(|i| ShardSpec::new(i, count)).collect();
            for v in 0..100u32 {
                let owners = specs.iter().filter(|s| s.owns(NodeId(v))).count();
                assert_eq!(owners, 1, "node {v} with {count} shards");
                assert!(specs[shard_of(NodeId(v), count) as usize].owns(NodeId(v)));
            }
        }
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let spec = ShardSpec::new(2, 5);
        let bytes = spec.encode();
        assert_eq!(ShardSpec::decode(&bytes).unwrap(), spec);

        assert!(ShardSpec::decode(&bytes[..8]).is_err(), "truncated");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ShardSpec::decode(&bad).is_err(), "bad magic");
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(ShardSpec::decode(&bad).is_err(), "bad version");
        // index >= count
        let mut bad = ShardSpec::new(0, 1).encode();
        bad[5..9].copy_from_slice(&7u32.to_le_bytes());
        assert!(ShardSpec::decode(&bad).is_err(), "index out of range");
        // zero count
        let mut bad = bytes;
        bad[9..13].copy_from_slice(&0u32.to_le_bytes());
        assert!(ShardSpec::decode(&bad).is_err(), "zero count");
    }

    #[test]
    fn slice_keeps_owned_tables_and_empties_the_rest() {
        let engine = build_engine();
        let spec = ShardSpec::new(1, 3);
        let slice = slice_engine(&engine, spec);
        assert_eq!(slice.graph().node_count(), engine.graph().node_count());
        for v in engine.graph().nodes() {
            if spec.owns(v) {
                assert_eq!(
                    slice.propagation().gamma(v),
                    engine.propagation().gamma(v),
                    "owned Γ({v}) must be preserved"
                );
            } else {
                assert!(
                    slice.propagation().gamma(v).is_empty(),
                    "unowned Γ({v}) must be empty"
                );
            }
        }
        // Replicated artifacts are intact.
        assert_eq!(slice.reps().len(), engine.reps().len());
        assert_eq!(slice.space().topic_count(), engine.space().topic_count());
    }

    #[test]
    fn split_snapshot_writes_loadable_verified_shards() {
        let src = temp_dir("split-src");
        let out = temp_dir("split-out");
        let engine = build_engine();
        store::save_engine(&src, &engine).unwrap();

        let report = split_snapshot(&src, &out, 3).unwrap();
        assert_eq!(report.shards, 3);
        assert_eq!(report.nodes, engine.graph().node_count());
        assert_eq!(
            report.owned_per_shard.iter().sum::<usize>(),
            engine.graph().node_count(),
            "ownership must cover every user exactly once"
        );
        // Each shard is a plain loadable engine with its manifest intact.
        for i in 0..3u32 {
            let dir = out.join(format!("shard-{i}"));
            let spec = store::load_shard_spec(&dir).unwrap().expect("manifest");
            assert_eq!(spec, ShardSpec::new(i, 3));
            assert!(store::load_engine(&dir).is_ok());
        }
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn verify_split_catches_a_tampered_manifest() {
        let src = temp_dir("tamper-src");
        let out = temp_dir("tamper-out");
        let engine = build_engine();
        store::save_engine(&src, &engine).unwrap();
        split_snapshot(&src, &out, 2).unwrap();

        // Rewrite shard-1's manifest to claim it is shard 0: user ownership
        // now overlaps and the verifier must notice.
        fs::write(
            out.join("shard-1").join(MANIFEST_FILE),
            ShardSpec::new(0, 2).encode(),
        )
        .unwrap();
        let dirs: Vec<PathBuf> = (0..2).map(|i| out.join(format!("shard-{i}"))).collect();
        assert!(matches!(
            verify_split(&engine, &dirs),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn verify_split_catches_a_swapped_slice() {
        let src = temp_dir("swap-src");
        let out = temp_dir("swap-out");
        let engine = build_engine();
        store::save_engine(&src, &engine).unwrap();
        split_snapshot(&src, &out, 2).unwrap();

        // Overwrite shard-0's snapshot with shard-1's slice (manifest still
        // says shard 0): owned tables are now empty where they must match.
        let wrong = slice_engine(&engine, ShardSpec::new(1, 2));
        store::save_shard(&out.join("shard-0"), &wrong, ShardSpec::new(0, 2)).unwrap();
        let dirs: Vec<PathBuf> = (0..2).map(|i| out.join(format!("shard-{i}"))).collect();
        assert!(matches!(
            verify_split(&engine, &dirs),
            Err(StoreError::Corrupt(_))
        ));
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn single_shard_split_is_a_full_copy() {
        let src = temp_dir("one-src");
        let out = temp_dir("one-out");
        let engine = build_engine();
        store::save_engine(&src, &engine).unwrap();
        let report = split_snapshot(&src, &out, 1).unwrap();
        assert_eq!(report.owned_per_shard, vec![engine.graph().node_count()]);

        // A 1-way shard serves exactly like the original.
        let shard = store::load_engine(&out.join("shard-0")).unwrap();
        assert_eq!(
            engine.search_user_term(user(3), TermId(0), 3).top_k,
            shard.search_user_term(user(3), TermId(0), 3).top_k
        );
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&out).unwrap();
    }
}
