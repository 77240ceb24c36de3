//! The packed node-cell encoding and its zero-copy reader.
//!
//! Node cells are the hot data structure of every experiment, so their
//! layout is fixed and flat (this is what the TSL compiler emits for
//! `[CellType: NodeCell]` structs with SimpleEdge lists):
//!
//! ```text
//! +--------+-----------+--------------+------------+----------------+------------+---------------+
//! | flags  | attr_len  | attr bytes   | out_count  | out ids (i64)  | in_count   | in ids (i64)  |
//! | u8     | u32       |              | u32        |                | u32 [opt]  | [opt]         |
//! +--------+-----------+--------------+------------+----------------+------------+---------------+
//! ```
//!
//! The in-link section is present only when bit 0 of `flags` is set
//! (directed graphs that need reverse traversal). [`NodeView`] reads any
//! field straight out of a borrowed blob — typically a pinned
//! `trinity_memstore::CellGuard` — with no decoding pass. Fields follow
//! DESIGN "Byte formats"; bytes after the last list are ignored.

use crate::CellId;
use std::fmt;
use trinity_memstore::codec::{DecodeError, Reader};

/// Flag bit: the record carries an in-link list.
const HAS_IN: u8 = 1;

/// Errors from record decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The blob is too short for the declared contents.
    Truncated(usize),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated(at) => write!(f, "node record truncated at byte {at}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<DecodeError> for RecordError {
    fn from(e: DecodeError) -> Self {
        RecordError::Truncated(e.at)
    }
}

/// Builder/owner form of a node cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeRecord {
    /// Application attribute bytes (e.g. a TSL-encoded struct, a name, a
    /// rank value); opaque to the graph layer.
    pub attrs: Vec<u8>,
    /// Outgoing SimpleEdge targets (the only list for undirected graphs).
    pub outs: Vec<CellId>,
    /// Incoming SimpleEdge sources; `None` when reverse edges aren't kept.
    pub ins: Option<Vec<CellId>>,
}

impl NodeRecord {
    /// A node with outgoing edges only.
    pub fn with_outs(attrs: Vec<u8>, outs: Vec<CellId>) -> Self {
        NodeRecord {
            attrs,
            outs,
            ins: None,
        }
    }

    /// Encode to the packed cell blob.
    pub fn encode(&self) -> Vec<u8> {
        let ins_len = self.ins.as_ref().map_or(0, |v| 4 + 8 * v.len());
        let mut out =
            Vec::with_capacity(1 + 4 + self.attrs.len() + 4 + 8 * self.outs.len() + ins_len);
        out.push(if self.ins.is_some() { HAS_IN } else { 0 });
        out.extend_from_slice(&(self.attrs.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.attrs);
        out.extend_from_slice(&(self.outs.len() as u32).to_le_bytes());
        for id in &self.outs {
            out.extend_from_slice(&id.to_le_bytes());
        }
        if let Some(ins) = &self.ins {
            out.extend_from_slice(&(ins.len() as u32).to_le_bytes());
            for id in ins {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    /// Decode a packed blob into owned form.
    pub fn decode(blob: &[u8]) -> Result<Self, RecordError> {
        let v = NodeView::new(blob)?;
        Ok(NodeRecord {
            attrs: v.attrs().to_vec(),
            outs: v.outs().collect(),
            ins: if v.has_ins() {
                Some(v.ins().collect())
            } else {
                None
            },
        })
    }
}

/// Zero-copy reader over a packed node cell.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    has_ins: bool,
    attrs: &'a [u8],
    outs: &'a [[u8; 8]],
    ins: &'a [[u8; 8]],
}

impl<'a> NodeView<'a> {
    /// Validate the framing and compute section offsets (one cheap pass;
    /// no payload copying).
    pub fn new(blob: &'a [u8]) -> Result<Self, RecordError> {
        let mut r = Reader::new(blob);
        let has_ins = r.u8()? & HAS_IN != 0;
        let attr_len = r.u32()?;
        let attrs = r.take(attr_len as usize)?;
        let out_count = r.u32()?;
        let outs = r.chunks(out_count.into())?;
        let ins = if has_ins {
            let in_count = r.u32()?;
            r.chunks(in_count.into())?
        } else {
            &[]
        };
        Ok(NodeView {
            has_ins,
            attrs,
            outs,
            ins,
        })
    }

    /// Attribute bytes.
    pub fn attrs(&self) -> &'a [u8] {
        self.attrs
    }

    /// Whether an in-link list is stored.
    pub fn has_ins(&self) -> bool {
        self.has_ins
    }

    /// Out-degree.
    pub fn out_degree(&self) -> usize {
        self.outs.len()
    }

    /// Outgoing neighbor `i`; panics unless `i < out_degree()`.
    pub fn out(&self, i: usize) -> CellId {
        u64::from_le_bytes(self.outs[i])
    }

    /// Iterate outgoing neighbors — `Outlinks.Foreach(...)` (paper Fig. 2).
    pub fn outs(&self) -> impl Iterator<Item = CellId> + 'a {
        self.outs.iter().map(|w| u64::from_le_bytes(*w))
    }

    /// Iterate incoming neighbors — `GetInlinks()` (paper Fig. 2).
    pub fn ins(&self) -> impl Iterator<Item = CellId> + 'a {
        self.ins.iter().map(|w| u64::from_le_bytes(*w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_record_roundtrip_without_ins() {
        let r = NodeRecord::with_outs(b"alice".to_vec(), vec![1, 2, 3]);
        let blob = r.encode();
        let v = NodeView::new(&blob).unwrap();
        assert_eq!(v.attrs(), b"alice");
        assert_eq!(v.out_degree(), 3);
        assert!(!v.has_ins());
        assert_eq!(v.outs().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(v.out(1), 2);
        assert_eq!(NodeRecord::decode(&blob).unwrap(), r);
    }

    #[test]
    fn node_record_roundtrip_with_ins() {
        let r = NodeRecord {
            attrs: vec![],
            outs: vec![9],
            ins: Some(vec![5, 6]),
        };
        let blob = r.encode();
        let v = NodeView::new(&blob).unwrap();
        assert!(v.has_ins());
        assert_eq!(v.ins().collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(NodeRecord::decode(&blob).unwrap(), r);
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let blob = NodeRecord::with_outs(b"x".to_vec(), vec![1, 2]).encode();
        for cut in 0..blob.len() {
            assert!(
                NodeView::new(&blob[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        assert!(NodeView::new(&blob).is_ok());
    }

    /// The codec harness's laws 1 and 2. A node record ignores the flag
    /// bits it does not define and any bytes after its last list, so it
    /// has more than one encoding and law 3 does not hold.
    #[test]
    fn records_keep_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        let ids = |rng: &mut Rng| rng.vec(5, Rng::u64);
        let node = |rng: &mut Rng| NodeRecord {
            attrs: rng.bytes(8),
            outs: ids(rng),
            ins: rng.coin().then(|| ids(rng)),
        };
        check(
            0x90de,
            node,
            NodeRecord::encode,
            |b| NodeRecord::decode(b).ok(),
            false,
        );
    }

    proptest! {
        #[test]
        fn node_roundtrip_prop(
            attrs in proptest::collection::vec(any::<u8>(), 0..64),
            outs in proptest::collection::vec(any::<u64>(), 0..32),
            ins in proptest::option::of(proptest::collection::vec(any::<u64>(), 0..32)),
        ) {
            let r = NodeRecord { attrs, outs, ins };
            let blob = r.encode();
            prop_assert_eq!(NodeRecord::decode(&blob).unwrap(), r);
        }
    }
}
