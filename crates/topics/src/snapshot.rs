//! Binary snapshots of the topic space and vocabulary.
//!
//! Complements the graph snapshot in `pit-graph`: together they make a
//! generated corpus fully reloadable without regeneration.

// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]

use crate::space::{TopicSpace, TopicSpaceBuilder};
use crate::vocab::Vocabulary;
use pit_graph::{NodeId, TermId};
use pit_store::{ByteReader, FlatError};

const SPACE_MAGIC: &[u8; 4] = b"PITT";
const VOCAB_MAGIC: &[u8; 4] = b"PITV";
const VERSION: u8 = 1;

/// Snapshot decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt topic snapshot: {}", self.0)
    }
}
impl std::error::Error for SnapshotError {}

impl From<FlatError> for SnapshotError {
    fn from(e: FlatError) -> Self {
        SnapshotError(e.to_string())
    }
}

fn err(msg: &str) -> SnapshotError {
    SnapshotError(msg.to_string())
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Consume the magic and version that open both streams.
fn read_preamble(r: &mut ByteReader<'_>, magic: &[u8; 4]) -> Result<(), SnapshotError> {
    if r.take(magic.len())? != magic {
        return Err(err("bad magic"));
    }
    if r.read_u8()? != VERSION {
        return Err(err("unsupported version"));
    }
    Ok(())
}

/// Serialize a topic space.
pub fn encode_space(space: &TopicSpace) -> Box<[u8]> {
    let mut buf = Vec::new();
    buf.extend_from_slice(SPACE_MAGIC);
    buf.push(VERSION);
    put_u64(&mut buf, space.node_count() as u64);
    put_u64(&mut buf, space.term_count() as u64);
    put_u64(&mut buf, space.topic_count() as u64);
    for t in space.topics() {
        let terms = space.topic_terms(t);
        put_u32(&mut buf, terms.len() as u32);
        for &term in terms {
            put_u32(&mut buf, term.0);
        }
        let nodes = space.topic_nodes(t);
        put_u32(&mut buf, nodes.len() as u32);
        for &n in nodes {
            put_u32(&mut buf, n.0);
        }
    }
    buf.into_boxed_slice()
}

/// Deserialize a topic space produced by [`encode_space`].
pub fn decode_space(data: &[u8]) -> Result<TopicSpace, SnapshotError> {
    let mut r = ByteReader::new(data, "topic space");
    read_preamble(&mut r, SPACE_MAGIC)?;
    let node_count = r.read_len()?;
    let term_count = r.read_len()?;
    let topic_count = r.read_len()?;
    // Bound header counts before any count-proportional allocation: ids are
    // u32 and the builder materializes per-node/per-term vectors.
    if node_count > pit_graph::snapshot::MAX_NODES || term_count > pit_graph::snapshot::MAX_NODES {
        return Err(err("header count exceeds format limit"));
    }
    // A topic is at least its two length fields.
    r.check_count(topic_count, 8)?;
    let mut b = TopicSpaceBuilder::new(node_count, term_count);
    for _ in 0..topic_count {
        let nt = r.read_u32()? as usize;
        r.check_count(nt, 4)?;
        let mut terms = Vec::with_capacity(nt);
        for _ in 0..nt {
            let term = r.read_u32()?;
            if term as usize >= term_count {
                return Err(err("term out of range"));
            }
            terms.push(TermId(term));
        }
        let topic = b.add_topic(terms);
        let nn = r.read_u32()? as usize;
        r.check_count(nn, 4)?;
        for _ in 0..nn {
            let node = r.read_u32()?;
            if node as usize >= node_count {
                return Err(err("member out of range"));
            }
            b.assign(NodeId(node), topic);
        }
    }
    if r.remaining() != 0 {
        return Err(err("trailing bytes"));
    }
    Ok(b.build())
}

/// Serialize a vocabulary.
pub fn encode_vocab(vocab: &Vocabulary) -> Box<[u8]> {
    let mut buf = Vec::new();
    buf.extend_from_slice(VOCAB_MAGIC);
    buf.push(VERSION);
    put_u64(&mut buf, vocab.len() as u64);
    for i in 0..vocab.len() {
        let term = vocab.term(TermId::from_index(i));
        put_u32(&mut buf, term.len() as u32);
        buf.extend_from_slice(term.as_bytes());
    }
    buf.into_boxed_slice()
}

/// Deserialize a vocabulary produced by [`encode_vocab`].
pub fn decode_vocab(data: &[u8]) -> Result<Vocabulary, SnapshotError> {
    let mut r = ByteReader::new(data, "vocabulary");
    read_preamble(&mut r, VOCAB_MAGIC)?;
    let n = r.read_len()?;
    // A term is at least its length field.
    r.check_count(n, 4)?;
    let mut vocab = Vocabulary::new();
    for i in 0..n {
        let len = r.read_u32()? as usize;
        let s = std::str::from_utf8(r.take(len)?).map_err(|_| err("term is not UTF-8"))?;
        if vocab.intern(s).index() != i {
            return Err(err("duplicate term in vocabulary"));
        }
    }
    if r.remaining() != 0 {
        return Err(err("trailing bytes"));
    }
    Ok(vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_topic_space, SyntheticTopicConfig};

    #[test]
    fn space_roundtrip() {
        let (space, _) = generate_topic_space(50, &SyntheticTopicConfig::small());
        let restored = decode_space(&encode_space(&space)).unwrap();
        assert_eq!(restored.topic_count(), space.topic_count());
        assert_eq!(restored.node_count(), space.node_count());
        assert_eq!(restored.term_count(), space.term_count());
        for t in space.topics() {
            assert_eq!(restored.topic_nodes(t), space.topic_nodes(t));
            assert_eq!(restored.topic_terms(t), space.topic_terms(t));
        }
        for term in 0..space.term_count() {
            let term = TermId::from_index(term);
            assert_eq!(restored.topics_for_term(term), space.topics_for_term(term));
        }
    }

    #[test]
    fn vocab_roundtrip() {
        let (_, vocab) = generate_topic_space(20, &SyntheticTopicConfig::small());
        let restored = decode_vocab(&encode_vocab(&vocab)).unwrap();
        assert_eq!(restored.len(), vocab.len());
        for i in 0..vocab.len() {
            let id = TermId::from_index(i);
            assert_eq!(restored.term(id), vocab.term(id));
        }
        // Lookup map rebuilt through interning.
        assert_eq!(restored.get("query-0"), vocab.get("query-0"));
    }

    #[test]
    fn rejects_corruption() {
        let (space, vocab) = generate_topic_space(20, &SyntheticTopicConfig::small());
        let sb = encode_space(&space);
        let vb = encode_vocab(&vocab);
        assert!(decode_space(&sb[..8]).is_err());
        assert!(decode_vocab(&vb[..8]).is_err());
        let mut bad = sb.to_vec();
        bad[0] = b'X';
        assert!(decode_space(&bad).is_err());
        let mut bad = vb.to_vec();
        bad[0] = b'X';
        assert!(decode_vocab(&bad).is_err());
        // Swapped streams.
        assert!(decode_space(&vb).is_err());
        assert!(decode_vocab(&sb).is_err());
        // 40-byte payloads whose counts claim u32::MAX terms / members /
        // vocabulary entries / term bytes.
        let lying = |head: &[u8], fields: &[u32]| {
            let mut b = head.to_vec();
            for f in fields {
                b.extend_from_slice(&f.to_le_bytes());
            }
            b.resize(40, 0);
            b
        };
        assert!(decode_space(&lying(&sb[..21], &[1, 0, u32::MAX])).is_err());
        assert!(decode_space(&lying(&sb[..21], &[1, 0, 0, u32::MAX])).is_err());
        assert!(decode_vocab(&lying(&vb[..5], &[u32::MAX, 0])).is_err());
        assert!(decode_vocab(&lying(&vb[..5], &[1, 0, u32::MAX])).is_err());
    }

    #[test]
    fn vocab_rejects_invalid_utf8() {
        let mut buf = b"PITV\x01".to_vec();
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_vocab(&buf).is_err());
    }
}
