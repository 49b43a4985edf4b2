//! Binary snapshots of the topic space and vocabulary.
//!
//! Complements the graph snapshot in `pit-graph`: together they make a
//! generated corpus fully reloadable without regeneration.

use crate::space::{TopicSpace, TopicSpaceBuilder};
use crate::vocab::Vocabulary;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pit_graph::{NodeId, TermId};

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

fn err(msg: &str) -> SnapshotError {
    SnapshotError(msg.to_string())
}

/// Serialize a topic space.
pub fn encode_space(space: &TopicSpace) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(SPACE_MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(space.node_count() as u64);
    buf.put_u64_le(space.term_count() as u64);
    buf.put_u64_le(space.topic_count() as u64);
    for t in space.topics() {
        let terms = space.topic_terms(t);
        buf.put_u32_le(terms.len() as u32);
        for &term in terms {
            buf.put_u32_le(term.0);
        }
        let nodes = space.topic_nodes(t);
        buf.put_u32_le(nodes.len() as u32);
        for &n in nodes {
            buf.put_u32_le(n.0);
        }
    }
    buf.freeze()
}

/// Deserialize a topic space produced by [`encode_space`].
pub fn decode_space(mut data: &[u8]) -> Result<TopicSpace, SnapshotError> {
    if data.len() < 4 + 1 + 24 {
        return Err(err("truncated header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != SPACE_MAGIC {
        return Err(err("bad magic"));
    }
    if data.get_u8() != VERSION {
        return Err(err("unsupported version"));
    }
    let node_count = data.get_u64_le() as usize;
    let term_count = data.get_u64_le() as usize;
    let topic_count = data.get_u64_le() as usize;
    // Bound header counts before any count-proportional allocation: ids are
    // u32 and the builder materializes per-node/per-term vectors.
    if node_count > pit_graph::snapshot::MAX_NODES
        || term_count > pit_graph::snapshot::MAX_NODES
        || topic_count.saturating_mul(8) > data.remaining()
    {
        return Err(err("header count exceeds format limit or payload"));
    }
    let mut b = TopicSpaceBuilder::new(node_count, term_count);
    for _ in 0..topic_count {
        if data.remaining() < 4 {
            return Err(err("truncated term count"));
        }
        let nt = data.get_u32_le() as usize;
        if data.remaining() < nt * 4 + 4 {
            return Err(err("truncated terms"));
        }
        let mut terms = Vec::with_capacity(nt);
        for _ in 0..nt {
            let term = data.get_u32_le();
            if term as usize >= term_count {
                return Err(err("term out of range"));
            }
            terms.push(TermId(term));
        }
        let topic = b.add_topic(terms);
        let nn = data.get_u32_le() as usize;
        if data.remaining() < nn * 4 {
            return Err(err("truncated members"));
        }
        for _ in 0..nn {
            let node = data.get_u32_le();
            if node as usize >= node_count {
                return Err(err("member out of range"));
            }
            b.assign(NodeId(node), topic);
        }
    }
    if data.has_remaining() {
        return Err(err("trailing bytes"));
    }
    Ok(b.build())
}

/// Serialize a vocabulary.
pub fn encode_vocab(vocab: &Vocabulary) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(VOCAB_MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(vocab.len() as u64);
    for i in 0..vocab.len() {
        let term = vocab.term(TermId::from_index(i));
        buf.put_u32_le(term.len() as u32);
        buf.put_slice(term.as_bytes());
    }
    buf.freeze()
}

/// Deserialize a vocabulary produced by [`encode_vocab`].
pub fn decode_vocab(mut data: &[u8]) -> Result<Vocabulary, SnapshotError> {
    if data.len() < 4 + 1 + 8 {
        return Err(err("truncated header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != VOCAB_MAGIC {
        return Err(err("bad magic"));
    }
    if data.get_u8() != VERSION {
        return Err(err("unsupported version"));
    }
    let n = data.get_u64_le() as usize;
    let mut vocab = Vocabulary::new();
    for i in 0..n {
        if data.remaining() < 4 {
            return Err(err("truncated term length"));
        }
        let len = data.get_u32_le() as usize;
        if data.remaining() < len {
            return Err(err("truncated term bytes"));
        }
        let bytes = &data[..len];
        let s = std::str::from_utf8(bytes).map_err(|_| err("term is not UTF-8"))?;
        let id = vocab.intern(s);
        if id.index() != i {
            return Err(err("duplicate term in vocabulary"));
        }
        data.advance(len);
    }
    if data.has_remaining() {
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
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(b"PITV");
        buf.put_u8(1);
        buf.put_u64_le(1);
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(decode_vocab(&buf).is_err());
    }
}
