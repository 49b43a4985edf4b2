//! Corruption fuzzing for every binary snapshot format: decoders must never
//! panic on malformed input — truncations, byte flips, random garbage — only
//! return errors (or, for benign flips such as a probability's low bits,
//! succeed).
//!
//! The `flat` module runs the same battery against the flat engine
//! container (`engine.pitf`): truncations, bit flips, misaligned section
//! offsets, overlapping and out-of-order section-table entries, and wrong
//! checksums must each yield a typed error — never a panic, and never a
//! silently-wrong engine (any corruption the checksummed loader accepts
//! must leave every ranking bit-identical to the pristine snapshot's).

#![allow(clippy::disallowed_types)]

use pit_graph::fixtures::{figure1_graph, figure1_topics};
use pit_graph::{TermId, TopicId};
use pit_search_core::TopicRepIndex;
use pit_summarize::RepresentativeSet;
use pit_topics::TopicSpaceBuilder;
use proptest::prelude::*;

fn space() -> pit_topics::TopicSpace {
    let g = figure1_graph();
    let mut b = TopicSpaceBuilder::new(g.node_count(), 2);
    for members in &figure1_topics() {
        let t = b.add_topic(vec![TermId(0), TermId(1)]);
        for &m in members {
            b.assign(m, t);
        }
    }
    b.build()
}

/// All snapshot payloads under test, with a closure that decodes them.
type Decoder = fn(&[u8]) -> bool;

fn payloads() -> Vec<(String, Vec<u8>, Decoder)> {
    let graph = figure1_graph();
    let reps = TopicRepIndex::from_sets(vec![RepresentativeSet::new(
        TopicId(0),
        vec![(pit_graph::NodeId(1), 0.5)],
    )]);
    let space = space();
    let mut vocab = pit_topics::Vocabulary::new();
    vocab.intern("phone");
    vocab.intern("tablet");

    vec![
        (
            "graph".into(),
            pit_graph::snapshot::encode(&graph).to_vec(),
            |b| pit_graph::snapshot::decode(b).is_ok(),
        ),
        (
            "reps".into(),
            pit_search_core::snapshot::encode(&reps).to_vec(),
            |b| pit_search_core::snapshot::decode(b).is_ok(),
        ),
        (
            "space".into(),
            pit_topics::snapshot::encode_space(&space).to_vec(),
            |b| pit_topics::snapshot::decode_space(b).is_ok(),
        ),
        (
            "vocab".into(),
            pit_topics::snapshot::encode_vocab(&vocab).to_vec(),
            |b| pit_topics::snapshot::decode_vocab(b).is_ok(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at any point never panics and (except trivial cases)
    /// errors out.
    #[test]
    fn truncation_never_panics(cut_pct in 0u32..100) {
        for (name, bytes, decode_ok) in payloads() {
            let cut = (bytes.len() as u64 * cut_pct as u64 / 100) as usize;
            if cut == bytes.len() {
                continue;
            }
            // Must not panic; truncated payloads must fail.
            prop_assert!(!decode_ok(&bytes[..cut]), "{name}: truncated decode succeeded");
        }
    }

    /// Random single-byte flips never panic.
    #[test]
    fn byte_flips_never_panic(pos_pct in 0u32..100, xor in 1u8..=255) {
        for (_name, mut bytes, decode_ok) in payloads() {
            let pos = (bytes.len() as u64 * pos_pct as u64 / 100) as usize;
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= xor;
            // Outcome may be Ok (benign flip in a float) or Err — the only
            // failure mode is a panic, which proptest would catch.
            let _ = decode_ok(&bytes);
        }
    }

    /// Entirely random garbage never panics and never decodes.
    #[test]
    fn garbage_never_decodes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        for (name, _, decode_ok) in payloads() {
            // Exclude the astronomically unlikely case of valid magic+layout
            // by checking the first bytes differ from any known magic.
            if bytes.len() >= 4 && (&bytes[..3] == b"PIT") {
                continue;
            }
            prop_assert!(!decode_ok(&bytes), "{name}: garbage decoded");
        }
    }
}

/// Format-fuzzing of the flat engine container through the real loaders.
mod flat {
    use pit::engine::PitEngine;
    use pit::store::{self, StoreError};
    use pit_graph::fixtures::{figure1_graph, figure1_topics, user};
    use pit_graph::TermId;
    use pit_store::{fnv64_words, FlatError, FlatFile};
    use pit_topics::TopicSpaceBuilder;
    use pit_walk::WalkConfig;
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    // Mirrors of the container geometry (crates/store/src/flat.rs): the
    // 32-byte header is followed by 32-byte section-table entries.
    const HEADER_LEN: usize = 32;
    const ENTRY_LEN: usize = 32;

    struct Baseline {
        bytes: Vec<u8>,
        rankings: Vec<Vec<(u32, u64)>>,
    }

    /// Top-k topic ids and exact score bits for every figure-1 user — the
    /// "silently wrong engine" oracle.
    fn rank(engine: &PitEngine) -> Vec<Vec<(u32, u64)>> {
        (1..=15u32)
            .map(|u| {
                engine
                    .search_user_term(user(u), TermId(0), 4)
                    .top_k
                    .iter()
                    .map(|s| (s.topic.0, s.score.to_bits()))
                    .collect()
            })
            .collect()
    }

    fn baseline() -> &'static Baseline {
        static B: OnceLock<Baseline> = OnceLock::new();
        B.get_or_init(|| {
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
            let engine = PitEngine::builder()
                .walk(WalkConfig::new(4, 16).with_seed(3))
                .build_with_vocab(graph, b.build(), Some(vocab));
            let dir = scratch_dir("baseline");
            store::save_engine(&dir, &engine).unwrap();
            let bytes = fs::read(dir.join(store::FLAT_FILE)).unwrap();
            let _ = fs::remove_dir_all(&dir);
            let rankings = rank(&engine);
            Baseline { bytes, rankings }
        })
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pit-flatfuzz-{tag}-{}", std::process::id()))
    }

    /// Write `bytes` as an engine.pitf and run the checksummed loader on
    /// it. The scratch dir is unlinked immediately — a mapped engine keeps
    /// serving from the unlinked inode.
    fn try_load(bytes: &[u8]) -> Result<PitEngine, StoreError> {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = scratch_dir(&format!("case-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(store::FLAT_FILE), bytes).unwrap();
        let out = store::load_engine(&dir);
        let _ = fs::remove_dir_all(&dir);
        out
    }

    /// Open `bytes` at the container layer, for typed-FlatError asserts.
    fn try_open(bytes: &[u8]) -> Result<FlatFile, FlatError> {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = scratch_dir(&format!("open-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(store::FLAT_FILE);
        fs::write(&path, bytes).unwrap();
        let out = FlatFile::open(&path);
        let _ = fs::remove_dir_all(&dir);
        out
    }

    fn section_count(bytes: &[u8]) -> usize {
        u16::from_le_bytes([bytes[6], bytes[7]]) as usize
    }

    /// Recompute the header's table checksum after editing table entries,
    /// so corruption tests reach the validation layer under test instead
    /// of tripping the table checksum first.
    fn resign_table(bytes: &mut [u8]) {
        let end = HEADER_LEN + section_count(bytes) * ENTRY_LEN;
        let sum = fnv64_words(&bytes[HEADER_LEN..end]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
    }

    /// Loading `bytes` either fails with a typed error or produces an
    /// engine whose every ranking is bit-identical to the pristine one.
    fn assert_rejected_or_identical(bytes: &[u8], what: &str) {
        if let Ok(engine) = try_load(bytes) {
            assert_eq!(
                rank(&engine),
                baseline().rankings,
                "{what}: corrupted snapshot loaded with different rankings"
            );
        }
    }

    #[test]
    fn version_skew_is_reported_as_unsupported() {
        let mut bytes = baseline().bytes.clone();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            try_open(&bytes),
            Err(FlatError::UnsupportedVersion { found: 2, .. })
        ));
        assert!(matches!(
            try_load(&bytes),
            Err(StoreError::UnsupportedVersion(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Truncation at any point yields a typed error, never a panic.
        #[test]
        fn flat_truncation_yields_typed_error(cut_pct in 0u32..100) {
            let b = baseline();
            let cut = ((b.bytes.len() as u64 * cut_pct as u64 / 100) as usize)
                .min(b.bytes.len() - 1);
            prop_assert!(
                try_load(&b.bytes[..cut]).is_err(),
                "truncated container loaded"
            );
        }

        /// A single flipped byte anywhere in the file is either rejected
        /// (header, table, and every payload are checksummed) or lands in
        /// reserved/padding bytes and changes nothing.
        #[test]
        fn flat_byte_flip_never_yields_a_silently_wrong_engine(
            pos_pct in 0u32..100,
            xor in 1u8..=255,
        ) {
            let mut bytes = baseline().bytes.clone();
            let pos = ((bytes.len() as u64 * pos_pct as u64 / 100) as usize)
                .min(bytes.len() - 1);
            bytes[pos] ^= xor;
            assert_rejected_or_identical(&bytes, "byte flip");
        }

        /// Breaking a section's 16-byte payload alignment is caught in the
        /// structural pass.
        #[test]
        fn flat_misaligned_section_offset_is_rejected(idx in 0usize..32, bump in 1u64..16) {
            let mut bytes = baseline().bytes.clone();
            let idx = idx % section_count(&bytes);
            let at = HEADER_LEN + idx * ENTRY_LEN + 8;
            let offset = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            bytes[at..at + 8].copy_from_slice(&(offset + bump).to_le_bytes());
            resign_table(&mut bytes);
            prop_assert!(matches!(
                try_open(&bytes),
                Err(FlatError::Misaligned { .. })
            ));
            prop_assert!(matches!(try_load(&bytes), Err(StoreError::Corrupt(_))));
        }

        /// Swapping two table entries breaks the offset-sorted invariant;
        /// zero-length neighbours can tie on offset, so the oracle is
        /// rejected-or-identical.
        #[test]
        fn flat_out_of_order_entries_are_rejected(idx in 1usize..32) {
            let mut bytes = baseline().bytes.clone();
            let n = section_count(&bytes);
            let idx = 1 + (idx - 1) % (n - 1);
            let (a, b) = (HEADER_LEN + (idx - 1) * ENTRY_LEN, HEADER_LEN + idx * ENTRY_LEN);
            for i in 0..ENTRY_LEN {
                bytes.swap(a + i, b + i);
            }
            resign_table(&mut bytes);
            assert_rejected_or_identical(&bytes, "entry swap");
        }

        /// Pointing a section at its predecessor's payload overlaps the two
        /// ranges (or, for empty predecessors, shifts the window under a
        /// now-wrong checksum).
        #[test]
        fn flat_overlapping_sections_are_rejected(idx in 1usize..32) {
            let mut bytes = baseline().bytes.clone();
            let n = section_count(&bytes);
            let idx = 1 + (idx - 1) % (n - 1);
            let (prev, at) = (
                HEADER_LEN + (idx - 1) * ENTRY_LEN + 8,
                HEADER_LEN + idx * ENTRY_LEN + 8,
            );
            let prev_offset: [u8; 8] = bytes[prev..prev + 8].try_into().unwrap();
            bytes[at..at + 8].copy_from_slice(&prev_offset);
            resign_table(&mut bytes);
            assert_rejected_or_identical(&bytes, "overlap");
        }

        /// A section count whose byte length overflows, or whose payload
        /// would end past the file, is a typed error in the structural pass.
        #[test]
        fn flat_section_extent_past_the_file_is_rejected(idx in 0usize..32, shift in 0u32..40) {
            let mut bytes = baseline().bytes.clone();
            let idx = idx % section_count(&bytes);
            let at = HEADER_LEN + idx * ENTRY_LEN + 16;
            bytes[at..at + 8].copy_from_slice(&(u64::MAX >> shift).to_le_bytes());
            resign_table(&mut bytes);
            prop_assert!(matches!(
                try_open(&bytes),
                Err(FlatError::Truncated { .. } | FlatError::LimitExceeded { .. })
            ));
            prop_assert!(matches!(try_load(&bytes), Err(StoreError::Corrupt(_))));
        }

        /// A wrong payload checksum passes the structural open (so the
        /// fast, trusted-staging loader stays O(sections)) but the default
        /// checksummed loader rejects it.
        #[test]
        fn flat_wrong_checksum_is_rejected_by_the_verified_loader(
            idx in 0usize..32,
            xor in 1u8..=255,
        ) {
            let mut bytes = baseline().bytes.clone();
            let idx = idx % section_count(&bytes);
            let at = HEADER_LEN + idx * ENTRY_LEN + 24;
            bytes[at] ^= xor;
            resign_table(&mut bytes);
            prop_assert!(try_open(&bytes).is_ok(), "structural open must pass");
            prop_assert!(matches!(try_load(&bytes), Err(StoreError::Corrupt(_))));
        }

        /// Random garbage never opens as a flat container.
        #[test]
        fn flat_garbage_never_loads(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            if !(bytes.len() >= 3 && &bytes[..3] == b"PIT") {
                prop_assert!(try_load(&bytes).is_err(), "garbage loaded as an engine");
            }
        }
    }
}
