//! Binary snapshots of the topic-to-representative index.
//!
//! The representative sets are the third offline artifact (Algorithm 5 line
//! 2 / Algorithm 9 lines 2–3); the paper refreshes them "after a period of
//! time when the social network and topics have changed", so persistence
//! between refreshes is the expected deployment mode.

use crate::repindex::TopicRepIndex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pit_graph::{NodeId, TopicId};
use pit_summarize::RepresentativeSet;

const MAGIC: &[u8; 4] = b"PITR";
const VERSION: u8 = 1;

/// Snapshot decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt representative-index snapshot: {}", self.0)
    }
}
impl std::error::Error for SnapshotError {}

fn err(msg: &str) -> SnapshotError {
    SnapshotError(msg.to_string())
}

/// Serialize the index into a self-describing buffer.
pub fn encode(idx: &TopicRepIndex) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + idx.total_reps() * 12 + idx.len() * 4);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(idx.len() as u64);
    for t in 0..idx.len() {
        let set = idx.get(TopicId::from_index(t));
        buf.put_u32_le(set.len() as u32);
        for (node, w) in set.iter() {
            buf.put_u32_le(node.0);
            buf.put_f64_le(w);
        }
    }
    buf.freeze()
}

/// Deserialize an index previously produced by [`encode`].
pub fn decode(mut data: &[u8]) -> Result<TopicRepIndex, SnapshotError> {
    if data.len() < 4 + 1 + 8 {
        return Err(err("truncated header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(err("bad magic"));
    }
    if data.get_u8() != VERSION {
        return Err(err("unsupported version"));
    }
    let n = data.get_u64_le() as usize;
    // Each set costs at least 4 bytes (its length field); bound n before
    // allocating.
    if n.saturating_mul(4) > data.remaining() {
        return Err(err("topic count exceeds payload"));
    }
    let mut sets = Vec::with_capacity(n);
    for t in 0..n {
        if data.remaining() < 4 {
            return Err(err("truncated set length"));
        }
        let k = data.get_u32_le() as usize;
        if data.remaining() < k * 12 {
            return Err(err("truncated set payload"));
        }
        let mut pairs = Vec::with_capacity(k);
        for _ in 0..k {
            let node = NodeId(data.get_u32_le());
            let w = data.get_f64_le();
            if !(w.is_finite() && w >= 0.0) {
                return Err(err("invalid representative weight"));
            }
            pairs.push((node, w));
        }
        sets.push(RepresentativeSet::new(TopicId::from_index(t), pairs));
    }
    if data.has_remaining() {
        return Err(err("trailing bytes"));
    }
    Ok(TopicRepIndex::from_sets(sets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopicRepIndex {
        TopicRepIndex::from_sets(vec![
            RepresentativeSet::new(TopicId(0), vec![(NodeId(3), 0.5), (NodeId(1), 0.25)]),
            RepresentativeSet::new(TopicId(1), vec![]),
            RepresentativeSet::new(TopicId(2), vec![(NodeId(7), 1.0)]),
        ])
    }

    #[test]
    fn roundtrip() {
        let idx = sample();
        let restored = decode(&encode(&idx)).unwrap();
        assert_eq!(restored.len(), idx.len());
        for t in 0..idx.len() {
            let t = TopicId::from_index(t);
            assert_eq!(restored.get(t), idx.get(t));
        }
    }

    #[test]
    fn rejects_corruption() {
        let bytes = encode(&sample());
        let mut b = bytes.to_vec();
        b[0] = b'Q';
        assert!(decode(&b).is_err());
        assert!(decode(&bytes[..6]).is_err());
        let mut b = bytes.to_vec();
        b.push(1);
        assert!(decode(&b).is_err());
        // NaN weight.
        let mut b = bytes.to_vec();
        let n = b.len();
        b[n - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode(&b).is_err());
        // A 40-byte payload whose first set claims u32::MAX representatives.
        let mut b = bytes[..40].to_vec();
        b[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&b).is_err());
    }
}
