//! Compact binary snapshots of a graph.
//!
//! The paper's offline stage is re-run "after a period of time when the
//! social network and topics have changed" (Section 4.4); persisting the graph
//! between offline runs avoids regenerating synthetic datasets for every
//! benchmark invocation. Format: little-endian, versioned, length-prefixed
//! edge list — deliberately boring and validated on load.

// Lengths here come off the wire or the disk: arithmetic is checked, or
// carries an `#[expect]` naming its bound (DESIGN.md §10).
#![deny(clippy::arithmetic_side_effects)]

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::ids::NodeId;
use pit_store::{ByteReader, FlatError};

const MAGIC: &[u8; 4] = b"PITG";
const VERSION: u8 = 1;
/// Magic, version, `u32` node count, `u64` edge count.
const HEADER_LEN: usize = 4 + 1 + 4 + 8;
/// Two `u32` endpoints and an `f64` probability.
const EDGE_LEN: usize = 4 + 4 + 8;

/// Format limit on the node count: ids are `u32`, and bounding the header
/// field keeps a corrupt snapshot from requesting an absurd allocation
/// before validation can reject it (2^26 ≈ 67 M nodes is 20× the paper's
/// full-scale dataset).
pub const MAX_NODES: usize = 1 << 26;

impl From<FlatError> for GraphError {
    fn from(e: FlatError) -> Self {
        GraphError::CorruptSnapshot(e.to_string())
    }
}

/// Serialize `g` into a self-describing byte buffer.
pub fn encode(g: &CsrGraph) -> Box<[u8]> {
    let mut buf = Vec::with_capacity(
        g.edge_count()
            .saturating_mul(EDGE_LEN)
            .saturating_add(HEADER_LEN),
    );
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(g.node_count() as u32).to_le_bytes());
    buf.extend_from_slice(&(g.edge_count() as u64).to_le_bytes());
    for (u, v, p) in g.edges() {
        buf.extend_from_slice(&u.0.to_le_bytes());
        buf.extend_from_slice(&v.0.to_le_bytes());
        buf.extend_from_slice(&p.to_le_bytes());
    }
    buf.into_boxed_slice()
}

/// Deserialize a graph previously produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<CsrGraph> {
    let corrupt = |msg: &str| GraphError::CorruptSnapshot(msg.to_string());
    let mut r = ByteReader::new(data, "graph snapshot");
    if r.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.read_u8()?;
    if version != VERSION {
        return Err(GraphError::CorruptSnapshot(format!(
            "unsupported version {version}"
        )));
    }
    let node_count = r.read_u32()? as usize;
    let edge_count = r.read_len()?;
    if node_count > MAX_NODES {
        return Err(corrupt("node count exceeds format limit"));
    }
    // Also what bounds the builder's edge-count-sized allocation.
    if edge_count.checked_mul(EDGE_LEN) != Some(r.remaining()) {
        return Err(corrupt("edge payload length mismatch"));
    }
    let mut b = GraphBuilder::with_capacity(node_count, edge_count);
    for _ in 0..edge_count {
        let u = NodeId(r.read_u32()?);
        let v = NodeId(r.read_u32()?);
        let p = r.read_f64()?;
        b.add_edge(u, v, p)
            .map_err(|e| GraphError::CorruptSnapshot(format!("invalid edge: {e}")))?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_graph;

    #[test]
    fn roundtrip_preserves_graph() {
        let g = figure1_graph();
        let bytes = encode(&g);
        let g2 = decode(&bytes).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn rejects_bad_magic() {
        let g = figure1_graph();
        let mut bytes = encode(&g).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let g = figure1_graph();
        let bytes = encode(&g);
        assert!(matches!(
            decode(&bytes[..bytes.len() - 3]),
            Err(GraphError::CorruptSnapshot(_))
        ));
        assert!(matches!(
            decode(&bytes[..5]),
            Err(GraphError::CorruptSnapshot(_))
        ));
        // A 40-byte file whose header claims u32::MAX edges.
        let mut lying = bytes[..40].to_vec();
        lying[9..17].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode(&lying),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let g = figure1_graph();
        let mut bytes = encode(&g).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn rejects_invalid_probability_payload() {
        let g = figure1_graph();
        let mut bytes = encode(&g).to_vec();
        // Corrupt first edge probability with NaN.
        let prob_offset = 4 + 1 + 4 + 8 + 8;
        bytes[prob_offset..prob_offset + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(GraphError::CorruptSnapshot(_))
        ));
    }
}
