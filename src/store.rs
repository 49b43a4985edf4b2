//! On-disk persistence of a fully built engine — the flat snapshot.
//!
//! The paper's offline stage (walk sampling, per-topic summarization,
//! propagation-index materialization) is re-run only "after a period of time
//! when the social network and topics have changed" (Section 4.4); between
//! refreshes, a deployment serves queries from the materialized artifacts.
//!
//! [`save_engine`] writes one sectioned, checksummed flat container,
//! `engine.pitf` (the `pit-store` format: 32-byte header, section table,
//! 16-byte-aligned little-endian payloads), staging the directory and
//! `rename`-ing it into place so a crash mid-save can never leave a torn,
//! half-written engine where a live `RELOAD` (or later [`load_engine`])
//! would find it:
//!
//! ```text
//! <dir>/engine.pitf     flat snapshot: META blob, the six CSR-graph
//!                       arrays, the five walk-index arrays, the five
//!                       propagation-index arrays, and the topic-space /
//!                       vocabulary / representative-index blobs
//! <dir>/shard.pits      shard manifest (sharded saves only)
//! ```
//!
//! Three loaders trade validation depth for speed; all of them parse the
//! META blob through the bounds-checked [`pit_store::ByteReader`] (as
//! `pit_topics::snapshot` and `pit_search_core::snapshot` do the three
//! small blobs) and run the same O(1) cross-artifact consistency checks:
//!
//! - [`load_engine`] — maps the file read-only, validates the section
//!   geometry in O(sections), verifies every payload checksum in one
//!   streaming pass, and *borrows* the big arrays straight from the
//!   mapping (no per-element copies). The default for serving.
//! - [`load_engine_fast`] — like [`load_engine`] but skips the payload
//!   checksum pass: O(sections) total, for `RELOAD` of snapshots this
//!   process (or its deploy pipeline) just wrote and checksummed.
//! - [`load_engine_owned`] — deep-copies every array into owned memory and
//!   runs the per-element `validate_deep` invariants: the reference the
//!   zero-copy loaders are proven bit-identical against.
//!
//! A directory holding the pre-flat per-artifact layout (`graph.pitg` et
//! al.) is reported as [`StoreError::UnsupportedVersion`], not garbage:
//! re-run the offline stage to produce a flat snapshot.

// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]
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
use pit_graph::{CsrGraph, NodeId};
use pit_index::{PropIndexConfig, PropagationIndex};
use pit_store::{ByteReader, FlatError, FlatFile, FlatWriter, Pod, Sect};
use pit_walk::{WalkConfig, WalkIndex, WalkIndexParts, WalkPolicy};
use std::fs;
use std::io;
use std::path::Path;

/// File name of the flat snapshot inside an engine directory.
pub const FLAT_FILE: &str = "engine.pitf";

/// Marker artifact of the legacy (pre-flat) per-file layout, used only to
/// tell "old snapshot" apart from "no snapshot" in error reporting.
const LEGACY_GRAPH_FILE: &str = "graph.pitg";

// Section kinds of the engine container. Kind 0 is reserved by the format
// for the header/table region; blobs carry their artifact's own magic-and-
// version framing, arrays are raw little-endian element runs.
/// Engine settings blob (`encode_meta` documents the byte layout).
pub const SEC_META: u16 = 1;
/// Graph out-CSR offsets (`u32`, `node_count + 1`).
pub const SEC_GRAPH_OUT_OFFSETS: u16 = 2;
/// Graph out-CSR edge targets (`NodeId`).
pub const SEC_GRAPH_OUT_TARGETS: u16 = 3;
/// Graph out-CSR edge probabilities (`f64`).
pub const SEC_GRAPH_OUT_PROBS: u16 = 4;
/// Graph in-CSR offsets (`u32`, `node_count + 1`).
pub const SEC_GRAPH_IN_OFFSETS: u16 = 5;
/// Graph in-CSR edge sources (`NodeId`).
pub const SEC_GRAPH_IN_SOURCES: u16 = 6;
/// Graph in-CSR edge probabilities (`f64`).
pub const SEC_GRAPH_IN_PROBS: u16 = 7;
/// Walk-index per-walk offsets (`u32`).
pub const SEC_WALK_OFFSETS: u16 = 8;
/// Walk-index concatenated walk nodes (`NodeId`).
pub const SEC_WALK_DATA: u16 = 9;
/// Walk-index first-visit frequency table (`f32`).
pub const SEC_WALK_FREQ: u16 = 10;
/// Walk-index reachability offsets (`u64`).
pub const SEC_WALK_REACH_OFFSETS: u16 = 11;
/// Walk-index reachability node lists (`NodeId`).
pub const SEC_WALK_REACH_DATA: u16 = 12;
/// Propagation-index (Γ) per-node offsets (`u64`).
pub const SEC_PROP_OFFSETS: u16 = 13;
/// Propagation-index entry nodes (`NodeId`).
pub const SEC_PROP_NODES: u16 = 14;
/// Propagation-index entry probabilities (`f64`).
pub const SEC_PROP_PROBS: u16 = 15;
/// Propagation-index marked offsets (`u64`).
pub const SEC_PROP_MARKED_OFFSETS: u16 = 16;
/// Propagation-index marked node lists (`NodeId`).
pub const SEC_PROP_MARKED: u16 = 17;
/// Topic-space blob (`pit_topics::snapshot` framing).
pub const SEC_TOPICS: u16 = 18;
/// Vocabulary blob, present only when the engine retains one.
pub const SEC_VOCAB: u16 = 19;
/// Topic-to-representative index blob (`pit_search_core::snapshot`).
pub const SEC_REPS: u16 = 20;

/// Errors from saving or loading an engine directory.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A snapshot failed validation; the string names the artifact.
    Corrupt(String),
    /// The directory holds a snapshot format this build does not read
    /// (legacy per-artifact layout, or a newer flat container version).
    /// Re-running the offline stage produces a loadable snapshot.
    UnsupportedVersion(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::UnsupportedVersion(what) => write!(f, "unsupported-version: {what}"),
        }
    }
}
impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FlatError> for StoreError {
    fn from(e: FlatError) -> Self {
        match e {
            FlatError::UnsupportedVersion { found, supported } => StoreError::UnsupportedVersion(
                format!("flat container v{found}, this build reads v{supported}"),
            ),
            FlatError::Io(msg) => StoreError::Io(io::Error::other(msg)),
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

/// Persist every artifact of `engine` under `dir` (created if absent),
/// crash-atomically: the flat snapshot is staged into a hidden sibling
/// directory and `rename`d into place only once fully written, so a crash
/// mid-save leaves either the previous engine or the new one — never a
/// torn snapshot that a concurrent or later [`load_engine`] could read.
pub fn save_engine(dir: &Path, engine: &PitEngine) -> Result<(), StoreError> {
    save_engine_inner(dir, engine, None)
}

/// Persist a shard slice of an engine: identical to [`save_engine`] plus a
/// `shard.pits` manifest recording the slice's `(index, count)`, written
/// inside the same staged commit so the manifest can never be torn from its
/// artifacts. The directory stays loadable by plain [`load_engine`];
/// [`load_shard_spec`] recovers the manifest.
pub fn save_shard(
    dir: &Path,
    engine: &PitEngine,
    spec: crate::shard::ShardSpec,
) -> Result<(), StoreError> {
    save_engine_inner(dir, engine, Some(spec))
}

fn save_engine_inner(
    dir: &Path,
    engine: &PitEngine,
    shard: Option<crate::shard::ShardSpec>,
) -> Result<(), StoreError> {
    let (parent, name) = split_target(dir)?;
    fs::create_dir_all(&parent)?;
    let staging = parent.join(format!(".{name}.staging.{}", std::process::id()));
    let _ = fs::remove_dir_all(&staging);
    fs::create_dir_all(&staging)?;
    let staged = write_artifacts(&staging, engine)
        .and_then(|()| match shard {
            Some(spec) => {
                fs::write(staging.join(crate::shard::MANIFEST_FILE), spec.encode())?;
                Ok(())
            }
            None => Ok(()),
        })
        .and_then(|()| commit(&staging, dir));
    if staged.is_err() {
        let _ = fs::remove_dir_all(&staging);
    }
    staged
}

/// Read the shard manifest of an engine directory, if it has one. A plain
/// (unsharded) snapshot yields `Ok(None)`.
///
/// # Errors
/// I/O failures other than the manifest being absent, or a
/// [`StoreError::Corrupt`] for a malformed manifest.
pub fn load_shard_spec(dir: &Path) -> Result<Option<crate::shard::ShardSpec>, StoreError> {
    match fs::read(dir.join(crate::shard::MANIFEST_FILE)) {
        Ok(bytes) => Ok(Some(crate::shard::ShardSpec::decode(&bytes)?)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Split `dir` into its parent directory and file name, defaulting the
/// parent to `.` for bare relative names.
fn split_target(dir: &Path) -> Result<(std::path::PathBuf, String), StoreError> {
    let name = dir
        .file_name()
        .ok_or_else(|| {
            StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("engine path {} has no file name", dir.display()),
            ))
        })?
        .to_string_lossy()
        .into_owned();
    let parent = match dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    Ok((parent, name))
}

/// Move a fully staged engine directory into place, replacing any previous
/// engine at `dir`. The previous engine is parked next to the target first
/// so a rename failure can roll it back.
fn commit(staging: &Path, dir: &Path) -> Result<(), StoreError> {
    if dir.exists() {
        let (parent, name) = split_target(dir)?;
        let parked = parent.join(format!(".{name}.old.{}", std::process::id()));
        let _ = fs::remove_dir_all(&parked);
        fs::rename(dir, &parked)?;
        if let Err(e) = fs::rename(staging, dir) {
            let _ = fs::rename(&parked, dir); // roll the old engine back
            return Err(e.into());
        }
        let _ = fs::remove_dir_all(&parked);
    } else {
        fs::rename(staging, dir)?;
    }
    Ok(())
}

/// Write the flat snapshot of `engine` into `dir`, which must exist.
fn write_artifacts(dir: &Path, engine: &PitEngine) -> Result<(), StoreError> {
    encode_flat(engine).write_to(&dir.join(FLAT_FILE))?;
    Ok(())
}

/// Lay the engine out as a flat container. Array sections are pushed from
/// the indexes' `raw_parts` views, so this is one sequential encode pass
/// with no intermediate per-artifact buffers.
fn encode_flat(engine: &PitEngine) -> FlatWriter {
    let mut w = FlatWriter::new();
    w.push_blob(SEC_META, &encode_meta(engine));

    let (oo, ot, op, io_, is_, ip) = engine.graph().raw_parts();
    w.push_array(SEC_GRAPH_OUT_OFFSETS, oo);
    w.push_array(SEC_GRAPH_OUT_TARGETS, ot);
    w.push_array(SEC_GRAPH_OUT_PROBS, op);
    w.push_array(SEC_GRAPH_IN_OFFSETS, io_);
    w.push_array(SEC_GRAPH_IN_SOURCES, is_);
    w.push_array(SEC_GRAPH_IN_PROBS, ip);

    let (wo, wd, wf, ro, rd) = engine.walks().raw_parts();
    w.push_array(SEC_WALK_OFFSETS, wo);
    w.push_array(SEC_WALK_DATA, wd);
    w.push_array(SEC_WALK_FREQ, wf);
    w.push_array(SEC_WALK_REACH_OFFSETS, ro);
    w.push_array(SEC_WALK_REACH_DATA, rd);

    let (po, pn, pp, mo, mk) = engine.propagation().raw_parts();
    w.push_array(SEC_PROP_OFFSETS, po);
    w.push_array(SEC_PROP_NODES, pn);
    w.push_array(SEC_PROP_PROBS, pp);
    w.push_array(SEC_PROP_MARKED_OFFSETS, mo);
    w.push_array(SEC_PROP_MARKED, mk);

    w.push_blob(
        SEC_TOPICS,
        &pit_topics::snapshot::encode_space(engine.space()),
    );
    if let Some(vocab) = engine.vocab() {
        w.push_blob(SEC_VOCAB, &pit_topics::snapshot::encode_vocab(vocab));
    }
    w.push_blob(SEC_REPS, &pit_search_core::snapshot::encode(engine.reps()));
    w
}

/// Decoded engine settings from the META blob.
struct Meta {
    summarizer: SummarizerKind,
    max_expand_rounds: usize,
    node_count: usize,
    walk_config: WalkConfig,
    walk_parts: WalkIndexParts,
    prop_config: PropIndexConfig,
}

/// Serialize the engine settings the array sections cannot carry:
///
/// ```text
/// summarizer kind      u8   (0 = RCL, 1 = LRW)
/// max_expand_rounds    u32
/// node_count           u64
/// walk L               u32
/// walk R               u32
/// walk policy          u8   (0 = uniform, 1 = transition-weighted)
/// walk seed            u64
/// walk parts flags     u8   (walks | freq << 1 | reach << 2)
/// propagation theta    f64
/// propagation depth    u32
/// ```
fn encode_meta(engine: &PitEngine) -> Vec<u8> {
    let wc = engine.walks().config();
    let parts = engine.walks().parts();
    let pc = engine.propagation().config();
    let mut meta = Vec::with_capacity(48);
    meta.push(match engine.summarizer() {
        SummarizerKind::Rcl(_) => 0u8,
        SummarizerKind::Lrw(_) => 1,
    });
    let rounds = u32::try_from(engine.max_expand_rounds()).unwrap_or(u32::MAX);
    meta.extend_from_slice(&rounds.to_le_bytes());
    meta.extend_from_slice(&(engine.graph().node_count() as u64).to_le_bytes());
    meta.extend_from_slice(&(wc.l.min(u32::MAX as usize) as u32).to_le_bytes());
    meta.extend_from_slice(&(wc.r.min(u32::MAX as usize) as u32).to_le_bytes());
    meta.push(match wc.policy {
        WalkPolicy::UniformNeighbor => 0,
        WalkPolicy::TransitionWeighted => 1,
    });
    meta.extend_from_slice(&wc.seed.to_le_bytes());
    meta.push(u8::from(parts.walks) | u8::from(parts.freq) << 1 | u8::from(parts.reach) << 2);
    meta.extend_from_slice(&pc.theta.to_le_bytes());
    let depth = u32::try_from(pc.max_depth).unwrap_or(u32::MAX);
    meta.extend_from_slice(&depth.to_le_bytes());
    meta
}

/// Parse the META blob through the bounds-checked reader — the one meta
/// parser both the zero-copy and the owned loaders share. Every read is
/// length-checked; trailing bytes are rejected.
fn decode_meta(bytes: &[u8]) -> Result<Meta, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("meta: {what}"));
    let mut r = ByteReader::new(bytes, "engine meta");
    let summarizer = match r.read_u8()? {
        0 => SummarizerKind::default_rcl(),
        1 => SummarizerKind::default_lrw(),
        k => return Err(corrupt(&format!("unknown summarizer kind {k}"))),
    };
    let max_expand_rounds = r.read_u32()? as usize;
    let node_count = usize::try_from(r.read_u64()?)
        .map_err(|_| corrupt("node count exceeds the address space"))?;
    let l = r.read_u32()? as usize;
    let walk_r = r.read_u32()? as usize;
    let policy = match r.read_u8()? {
        0 => WalkPolicy::UniformNeighbor,
        1 => WalkPolicy::TransitionWeighted,
        k => return Err(corrupt(&format!("unknown walk policy {k}"))),
    };
    let seed = r.read_u64()?;
    let flags = r.read_u8()?;
    if flags & !0b111 != 0 {
        return Err(corrupt("unknown walk part flags"));
    }
    let theta = r.read_f64()?;
    let max_depth = r.read_u32()? as usize;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Meta {
        summarizer,
        max_expand_rounds,
        node_count,
        walk_config: WalkConfig {
            l,
            r: walk_r,
            policy,
            seed,
        },
        walk_parts: WalkIndexParts {
            walks: flags & 0b001 != 0,
            freq: flags & 0b010 != 0,
            reach: flags & 0b100 != 0,
        },
        prop_config: PropIndexConfig { theta, max_depth },
    })
}

/// How much validation and copying a load performs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LoadMode {
    /// Borrow arrays from the mapping; verify every payload checksum.
    Verified,
    /// Borrow arrays from the mapping; structural validation only.
    Fast,
    /// Deep-copy arrays into owned memory and run per-element invariants.
    Owned,
}

/// Load an engine previously written by [`save_engine`], serving the big
/// index arrays zero-copy from a read-only mapping of the flat snapshot.
/// Section geometry is validated in O(sections) and every payload checksum
/// is verified in one streaming pass; no per-element copies are made of
/// the CSR, walk, or Γ sections.
///
/// The summarizer configuration itself is not persisted (the representative
/// sets already embody it); the loaded engine reports the summarizer *kind*
/// with default parameters.
pub fn load_engine(dir: &Path) -> Result<PitEngine, StoreError> {
    load_flat(dir, LoadMode::Verified)
}

/// [`load_engine`] without the payload-checksum pass: O(sections) total,
/// for `RELOAD` of a snapshot this process (or its deploy pipeline) just
/// wrote and verified. Structural validation — magic, version, table
/// geometry, alignment, array shapes — still runs in full.
pub fn load_engine_fast(dir: &Path) -> Result<PitEngine, StoreError> {
    load_flat(dir, LoadMode::Fast)
}

/// [`load_engine`] with every array deep-copied into owned memory and the
/// per-element `validate_deep` invariants checked (monotonic offsets,
/// in-range ids, finite probabilities) — the reference the zero-copy
/// loaders are proven bit-identical against in the test battery.
pub fn load_engine_owned(dir: &Path) -> Result<PitEngine, StoreError> {
    load_flat(dir, LoadMode::Owned)
}

/// Fetch section `kind` as a typed array: a borrowed window of the mapping
/// for the zero-copy modes, a deep copy for [`LoadMode::Owned`].
fn section<T: Pod>(flat: &FlatFile, kind: u16, mode: LoadMode) -> Result<Sect<T>, StoreError> {
    if mode == LoadMode::Owned {
        Ok(Sect::from(flat.array_owned::<T>(kind)?))
    } else {
        Ok(flat.array::<T>(kind)?)
    }
}

fn load_flat(dir: &Path, mode: LoadMode) -> Result<PitEngine, StoreError> {
    let path = dir.join(FLAT_FILE);
    if !path.exists() {
        if dir.join(LEGACY_GRAPH_FILE).exists() {
            return Err(StoreError::UnsupportedVersion(format!(
                "{} holds a legacy per-artifact snapshot; re-run the offline \
                 build to produce a flat {FLAT_FILE}",
                dir.display()
            )));
        }
        return Err(StoreError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no {FLAT_FILE} in {}", dir.display()),
        )));
    }
    let flat = FlatFile::open(&path)?;
    if mode != LoadMode::Fast {
        flat.verify_checksums()?;
    }

    let meta = decode_meta(flat.bytes_of(SEC_META)?)?;

    let graph = CsrGraph::from_raw_parts(
        section::<u32>(&flat, SEC_GRAPH_OUT_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_GRAPH_OUT_TARGETS, mode)?,
        section::<f64>(&flat, SEC_GRAPH_OUT_PROBS, mode)?,
        section::<u32>(&flat, SEC_GRAPH_IN_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_GRAPH_IN_SOURCES, mode)?,
        section::<f64>(&flat, SEC_GRAPH_IN_PROBS, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("graph: {e}")))?;

    let walks = WalkIndex::from_raw_parts(
        meta.walk_config,
        meta.node_count,
        meta.walk_parts,
        section::<u32>(&flat, SEC_WALK_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_WALK_DATA, mode)?,
        section::<f32>(&flat, SEC_WALK_FREQ, mode)?,
        section::<u64>(&flat, SEC_WALK_REACH_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_WALK_REACH_DATA, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("walks: {e}")))?;

    let prop = PropagationIndex::from_raw_parts(
        meta.prop_config,
        section::<u64>(&flat, SEC_PROP_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_PROP_NODES, mode)?,
        section::<f64>(&flat, SEC_PROP_PROBS, mode)?,
        section::<u64>(&flat, SEC_PROP_MARKED_OFFSETS, mode)?,
        section::<NodeId>(&flat, SEC_PROP_MARKED, mode)?,
    )
    .map_err(|e| StoreError::Corrupt(format!("propagation: {e}")))?;

    let space = pit_topics::snapshot::decode_space(flat.bytes_of(SEC_TOPICS)?)
        .map_err(|e| StoreError::Corrupt(format!("topics: {e}")))?;
    let vocab = if flat.has(SEC_VOCAB) {
        Some(
            pit_topics::snapshot::decode_vocab(flat.bytes_of(SEC_VOCAB)?)
                .map_err(|e| StoreError::Corrupt(format!("vocab: {e}")))?,
        )
    } else {
        None
    };
    let reps = pit_search_core::snapshot::decode(flat.bytes_of(SEC_REPS)?)
        .map_err(|e| StoreError::Corrupt(format!("representatives: {e}")))?;

    if mode == LoadMode::Owned {
        graph
            .validate_deep()
            .map_err(|e| StoreError::Corrupt(format!("graph: {e}")))?;
        walks
            .validate_deep()
            .map_err(|e| StoreError::Corrupt(format!("walks: {e}")))?;
        prop.validate_deep()
            .map_err(|e| StoreError::Corrupt(format!("propagation: {e}")))?;
    }

    // Cross-artifact consistency: O(1) against the META node count.
    let corrupt = |what: &str| StoreError::Corrupt(what.to_string());
    if graph.node_count() != meta.node_count {
        return Err(corrupt("graph node count disagrees with meta"));
    }
    if space.node_count() != graph.node_count()
        || walks.node_count() != graph.node_count()
        || prop.len() != graph.node_count()
    {
        return Err(corrupt("artifact node counts disagree"));
    }
    if reps.len() != space.topic_count() {
        return Err(corrupt("representative index topic count disagrees"));
    }

    Ok(PitEngine::from_parts(
        graph,
        space,
        vocab,
        walks,
        prop,
        reps,
        meta.summarizer,
        meta.max_expand_rounds,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
    use pit_graph::TermId;
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::WalkConfig;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pit-store-test-{tag}-{}", std::process::id()));
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
    fn save_load_roundtrip_preserves_results() {
        let dir = temp_dir("roundtrip");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let loaded = load_engine(&dir).unwrap();

        // The default loader serves the index arrays from the mapping.
        assert_eq!(loaded.snapshot_format(), "flat-mapped");
        assert!(loaded.mapped_bytes() > 0, "no sections were mapped");
        assert_eq!(engine.snapshot_format(), "owned");

        for u in [3u32, 7, 14] {
            let a = engine.search_user_term(user(u), TermId(0), 3);
            let b = loaded.search_user_term(user(u), TermId(0), 3);
            assert_eq!(a.top_k, b.top_k, "user {u} diverged after reload");
        }
        // Keyword search works through the reloaded vocabulary.
        assert!(loaded.search_keywords(user(3), &["phone"], 1).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_three_loaders_agree_bit_for_bit() {
        let dir = temp_dir("tiers");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let mapped = load_engine(&dir).unwrap();
        let fast = load_engine_fast(&dir).unwrap();
        let owned = load_engine_owned(&dir).unwrap();
        assert_eq!(owned.snapshot_format(), "owned");
        assert_eq!(owned.mapped_bytes(), 0);
        assert_eq!(fast.snapshot_format(), "flat-mapped");
        for u in 1..=engine.graph().node_count() as u32 {
            let a = mapped.search_user_term(user(u), TermId(0), 3);
            let b = owned.search_user_term(user(u), TermId(0), 3);
            let c = fast.search_user_term(user(u), TermId(0), 3);
            assert_eq!(a.top_k, b.top_k, "mapped vs owned diverged at user {u}");
            assert_eq!(a.top_k, c.top_k, "mapped vs fast diverged at user {u}");
            for (x, y) in a.top_k.iter().zip(&b.top_k) {
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score bits diverged at user {u}"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_save_never_clobbers_the_previous_engine() {
        let dir = temp_dir("atomic");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();

        // Simulate a crash mid-save: the staging directory save_engine uses
        // exists with only a prefix of the flat snapshot written.
        let staging = dir.parent().unwrap().join(format!(
            ".{}.staging.{}",
            dir.file_name().unwrap().to_string_lossy(),
            std::process::id()
        ));
        fs::create_dir_all(&staging).unwrap();
        let full = fs::read(dir.join(FLAT_FILE)).unwrap();
        fs::write(staging.join(FLAT_FILE), &full[..full.len() / 2]).unwrap();

        // The torn staging dir is not loadable, and the target still is.
        assert!(
            load_engine(&staging).is_err(),
            "partial write must not load"
        );
        let loaded = load_engine(&dir).expect("target engine survived the crash");
        assert_eq!(
            engine.search_user_term(user(3), TermId(0), 3).top_k,
            loaded.search_user_term(user(3), TermId(0), 3).top_k
        );
        drop(loaded);

        // A later save sweeps the leftover staging dir and replaces the
        // engine wholesale, leaving no hidden siblings behind.
        save_engine(&dir, &engine).unwrap();
        assert!(load_engine(&dir).is_ok());
        let hidden: Vec<_> = fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!(".{}.", dir.file_name().unwrap().to_string_lossy())))
            .collect();
        assert!(
            hidden.is_empty(),
            "stray staging dirs left behind: {hidden:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_replaces_an_existing_engine_wholesale() {
        let dir = temp_dir("replace");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        // Drop a stray file into the live dir; a re-save must not keep it
        // (the directory is replaced, not patched file-by-file).
        fs::write(dir.join("stray.bin"), b"junk").unwrap();
        save_engine(&dir, &engine).unwrap();
        assert!(!dir.join("stray.bin").exists(), "stale artifact survived");
        assert!(load_engine(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_missing_artifacts() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load_engine(&dir), Err(StoreError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reports_legacy_layout_as_version_skew() {
        let dir = temp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        // A directory with the old per-artifact layout must be reported as
        // a version problem, not decoded into garbage or a plain I/O error.
        fs::write(dir.join(LEGACY_GRAPH_FILE), b"PITGxxxx").unwrap();
        assert!(matches!(
            load_engine(&dir),
            Err(StoreError::UnsupportedVersion(_))
        ));
        let msg = match load_engine(&dir) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("legacy layout loaded"),
        };
        assert!(msg.starts_with("unsupported-version:"), "got: {msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_artifact() {
        let dir = temp_dir("corrupt");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        // Truncate the flat snapshot.
        let path = dir.join(FLAT_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(load_engine(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verified_load_catches_payload_bit_flip_that_fast_load_skips() {
        let dir = temp_dir("bitflip");
        let engine = build_engine();
        save_engine(&dir, &engine).unwrap();
        let path = dir.join(FLAT_FILE);

        // Flip one byte inside the out-probs payload: structurally valid,
        // checksum-invalid.
        let info = *FlatFile::open(&path)
            .unwrap()
            .section(SEC_GRAPH_OUT_PROBS)
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[info.offset] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        // The default loader pays the checksum pass and rejects the flip;
        // the fast loader (structural only, for trusted staging) does not.
        assert!(matches!(load_engine(&dir), Err(StoreError::Corrupt(_))));
        assert!(load_engine_fast(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_mismatched_artifacts() {
        // Topic space over a different node count than the graph.
        let dir = temp_dir("mismatch");
        let engine = build_engine();
        let mut b = TopicSpaceBuilder::new(3, 1);
        let t = b.add_topic(vec![TermId(0)]);
        b.assign(pit_graph::NodeId(0), t);
        let mismatched = PitEngine::from_parts(
            engine.graph().clone(),
            b.build(),
            None,
            engine.walks().clone(),
            engine.propagation().clone(),
            engine.reps().clone(),
            SummarizerKind::default_rcl(),
            engine.max_expand_rounds(),
        );
        save_engine(&dir, &mismatched).unwrap();
        assert!(matches!(load_engine(&dir), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
