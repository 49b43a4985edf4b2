//! Binary snapshots of the topic-to-representative index.
//!
//! The representative sets are the third offline artifact (Algorithm 5 line
//! 2 / Algorithm 9 lines 2–3); the paper refreshes them "after a period of
//! time when the social network and topics have changed", so persistence
//! between refreshes is the expected deployment mode.

// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]

use crate::repindex::TopicRepIndex;
use pit_graph::{NodeId, TopicId};
use pit_store::{ByteReader, FlatError};
use pit_summarize::RepresentativeSet;

const MAGIC: &[u8; 4] = b"PITR";
const VERSION: u8 = 1;
/// A `u32` node id and its `f64` weight.
const REP_LEN: usize = 4 + 8;

/// Snapshot decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt representative-index snapshot: {}", self.0)
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

/// Serialize the index into a self-describing buffer.
pub fn encode(idx: &TopicRepIndex) -> Box<[u8]> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(idx.len() as u64).to_le_bytes());
    for t in 0..idx.len() {
        let set = idx.get(TopicId::from_index(t));
        buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for (node, w) in set.iter() {
            buf.extend_from_slice(&node.0.to_le_bytes());
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    buf.into_boxed_slice()
}

/// Deserialize an index previously produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<TopicRepIndex, SnapshotError> {
    let mut r = ByteReader::new(data, "representative index");
    if r.take(MAGIC.len())? != MAGIC {
        return Err(err("bad magic"));
    }
    if r.read_u8()? != VERSION {
        return Err(err("unsupported version"));
    }
    let n = r.read_len()?;
    // A set is at least its length field.
    r.check_count(n, 4)?;
    let mut sets = Vec::with_capacity(n);
    for t in 0..n {
        let k = r.read_u32()? as usize;
        r.check_count(k, REP_LEN)?;
        let mut pairs = Vec::with_capacity(k);
        for _ in 0..k {
            let node = NodeId(r.read_u32()?);
            let w = r.read_f64()?;
            if !(w.is_finite() && w >= 0.0) {
                return Err(err("invalid representative weight"));
            }
            pairs.push((node, w));
        }
        sets.push(RepresentativeSet::new(TopicId::from_index(t), pairs));
    }
    if r.remaining() != 0 {
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
