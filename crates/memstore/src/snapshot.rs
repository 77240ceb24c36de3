//! Trunk serialization for TFS-backed persistence (paper §3, §6.2).
//!
//! Memory trunks are backed up in the Trinity File System so that a failed
//! machine's trunks can be reloaded onto surviving machines. A snapshot is
//! a flat, self-delimiting byte image of a trunk's live cells:
//!
//! ```text
//! magic "TKS1" | trunk id: u64 | cell count: u64 |
//!   repeat: uid: u64 | len: u32 | payload bytes (unaligned)
//! ```
//!
//! Cells appear in ascending id order, so two trunks with the same live
//! cells have byte-identical images however they were built.
//!
//! Each cell is captured atomically (its spin lock is held while copying),
//! but the snapshot as a whole is not a point-in-time cut across cells —
//! Trinity quiesces computation before checkpointing (between BSP
//! supersteps, or after termination detection for asynchronous jobs), so
//! snapshot callers are single-writer by protocol.
//!
//! Both directions stream: [`TrunkSnapshot::capture`] copies each pinned
//! cell straight into the image buffer, and
//! [`TrunkSnapshot::restore_image`] `put`s borrowed slices of the image
//! into the trunk. Neither allocates per cell, so an image costs one
//! buffer however many cells it holds.

use crate::trunk::{Trunk, TrunkConfig};
use crate::CellId;
use std::fmt;

const MAGIC: &[u8; 4] = b"TKS1";
/// magic + trunk id + cell count.
const HEADER_LEN: usize = 20;
/// uid + payload length.
const CELL_HEADER_LEN: usize = 12;

/// Errors from decoding a trunk snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte image does not start with the snapshot magic.
    BadMagic,
    /// The image ended before the declared contents.
    Truncated,
    /// A cell failed to load into the target trunk (e.g. it does not fit).
    Load(CellId, crate::StoreError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a trunk snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "trunk snapshot is truncated"),
            SnapshotError::Load(id, e) => write!(f, "failed to load cell {id:#x}: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The cells of an image, borrowed from it in stored order. Yields
/// `Err(Truncated)` once, then ends, if the image stops short of the
/// cell count its header declares.
#[derive(Clone)]
struct ImageCells<'a> {
    rest: &'a [u8],
    /// Cells the header still promises.
    left: u64,
}

impl<'a> ImageCells<'a> {
    /// Check the image header and position on the first cell. Returns the
    /// trunk id the image was captured from alongside the walk.
    fn open(image: &'a [u8]) -> Result<(u64, Self), SnapshotError> {
        let (magic, rest) = image
            .split_first_chunk::<4>()
            .ok_or(SnapshotError::Truncated)?;
        let (trunk_id, rest) = rest
            .split_first_chunk::<8>()
            .ok_or(SnapshotError::Truncated)?;
        let (count, rest) = rest
            .split_first_chunk::<8>()
            .ok_or(SnapshotError::Truncated)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let left = u64::from_le_bytes(*count);
        Ok((u64::from_le_bytes(*trunk_id), ImageCells { rest, left }))
    }

    /// Walk to the last declared cell, proving the image well formed.
    /// Returns the bytes after it.
    fn end(mut self) -> Result<&'a [u8], SnapshotError> {
        self.by_ref().try_for_each(|cell| cell.map(drop))?;
        Ok(self.rest)
    }

    fn take_cell(&mut self) -> Option<(CellId, &'a [u8])> {
        let (id, rest) = self.rest.split_first_chunk::<8>()?;
        let (len, rest) = rest.split_first_chunk::<4>()?;
        let (payload, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
        self.rest = rest;
        Some((u64::from_le_bytes(*id), payload))
    }
}

impl<'a> Iterator for ImageCells<'a> {
    type Item = Result<(CellId, &'a [u8]), SnapshotError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let cell = self.take_cell();
        if cell.is_none() {
            self.left = 0;
        }
        Some(cell.ok_or(SnapshotError::Truncated))
    }
}

/// A well-formed trunk image: construction ([`capture`](Self::capture) or
/// [`decode`](Self::decode)) is the only way in, so holders never re-check
/// the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrunkSnapshot {
    trunk_id: u64,
    cell_count: u64,
    image: Vec<u8>,
}

impl TrunkSnapshot {
    /// Capture the live cells of `trunk`, in ascending id order.
    pub fn capture(trunk: &Trunk) -> Self {
        let mut ids = trunk.cell_ids();
        // Deterministic image: TFS replicas compare byte-for-byte in tests.
        ids.sort_unstable();
        let mut image = Vec::with_capacity(
            HEADER_LEN + ids.len() * CELL_HEADER_LEN + trunk.stats().live_payload_bytes,
        );
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&trunk.id().to_le_bytes());
        image.extend_from_slice(&0u64.to_le_bytes());
        // A cell removed since `ids` was listed is skipped, so the count
        // is only known after the walk.
        let mut count = 0u64;
        for id in ids {
            if let Some(cell) = trunk.get(id) {
                image.extend_from_slice(&id.to_le_bytes());
                image.extend_from_slice(&(cell.len() as u32).to_le_bytes());
                image.extend_from_slice(&cell);
                count += 1;
            }
        }
        image[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&count.to_le_bytes());
        TrunkSnapshot {
            trunk_id: trunk.id(),
            cell_count: count,
            image,
        }
    }

    /// The image in the flat byte format, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Serialize to the flat byte format.
    pub fn encode(&self) -> Vec<u8> {
        self.image.clone()
    }

    /// Decode from the flat byte format. Bytes past the last declared
    /// cell are ignored.
    pub fn decode(data: &[u8]) -> Result<Self, SnapshotError> {
        let (trunk_id, cells) = ImageCells::open(data)?;
        let cell_count = cells.left;
        let used = data.len() - cells.end()?.len();
        Ok(TrunkSnapshot {
            trunk_id,
            cell_count,
            image: data[..used].to_vec(),
        })
    }

    /// Global id of the captured trunk.
    pub fn trunk_id(&self) -> u64 {
        self.trunk_id
    }

    /// Number of cells in the image.
    pub fn cell_count(&self) -> u64 {
        self.cell_count
    }

    /// Materialize the snapshot as a fresh trunk.
    pub fn restore(&self, cfg: TrunkConfig) -> Result<Trunk, SnapshotError> {
        let trunk = Trunk::new(self.trunk_id, cfg);
        Self::restore_image(&self.image, &trunk)?;
        Ok(trunk)
    }

    /// Load the cells of an undecoded `image` into `trunk`, `put`ting
    /// each payload straight from the image bytes. The whole image is
    /// checked before the first cell is written, so a damaged image
    /// fails without touching the trunk; a `Load` error (the trunk ran
    /// out of room) can leave the cells before it in place.
    pub fn restore_image(image: &[u8], trunk: &Trunk) -> Result<(), SnapshotError> {
        let (_, cells) = ImageCells::open(image)?;
        cells.clone().end()?;
        for cell in cells {
            let (id, payload) = cell?;
            trunk
                .put(id, payload)
                .map_err(|e| SnapshotError::Load(id, e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_encode_decode_restore_roundtrip() {
        let t = Trunk::new(7, TrunkConfig::small());
        for i in 0..50u64 {
            t.put(i * 3, &vec![i as u8; (i % 40) as usize]).unwrap();
        }
        t.remove(9).unwrap();
        let snap = TrunkSnapshot::capture(&t);
        assert_eq!(snap.trunk_id(), 7);
        assert_eq!(snap.cell_count(), 49);
        let bytes = snap.encode();
        let decoded = TrunkSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        let restored = decoded.restore(TrunkConfig::small()).unwrap();
        assert_eq!(restored.cell_count(), 49);
        for i in 0..50u64 {
            if i == 3 {
                assert!(restored.get(9).is_none());
            } else {
                assert_eq!(
                    restored.get(i * 3).unwrap().as_ref(),
                    &vec![i as u8; (i % 40) as usize][..]
                );
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            TrunkSnapshot::decode(b"oops"),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(
            TrunkSnapshot::decode(&[b'X'; 32]),
            Err(SnapshotError::BadMagic)
        );
        // Valid header claiming more cells than present.
        let mut data = Vec::new();
        data.extend_from_slice(b"TKS1");
        data.extend_from_slice(&1u64.to_le_bytes());
        data.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(TrunkSnapshot::decode(&data), Err(SnapshotError::Truncated));
    }

    /// The `TKS1` layout is what TFS holds for every trunk ever backed up
    /// or spilled: pin it byte for byte, including id order.
    #[test]
    fn image_bytes_are_pinned() {
        let t = Trunk::new(0x0102_0304_0506_0708, TrunkConfig::small());
        t.put(0x2a, b"late").unwrap();
        t.put(7, b"").unwrap();
        t.put(u64::MAX - 2, &[0xff, 0x00, 0x7f]).unwrap();
        t.put(9, b"gone").unwrap();
        t.remove(9).unwrap();
        t.append(7, b"grown").unwrap();
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'T', b'K', b'S', b'1',
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // trunk id
            3, 0, 0, 0, 0, 0, 0, 0,                         // cell count
            7, 0, 0, 0, 0, 0, 0, 0,   5, 0, 0, 0,   b'g', b'r', b'o', b'w', b'n',
            0x2a, 0, 0, 0, 0, 0, 0, 0,   4, 0, 0, 0,   b'l', b'a', b't', b'e',
            0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,   3, 0, 0, 0,   0xff, 0x00, 0x7f,
        ];
        let snap = TrunkSnapshot::capture(&t);
        assert_eq!(snap.as_bytes(), golden);
        assert_eq!(snap.encode(), golden);
        assert_eq!(TrunkSnapshot::decode(golden).unwrap(), snap);
        // And back: the golden bytes alone rebuild the same trunk.
        let back = Trunk::new(0, TrunkConfig::small());
        TrunkSnapshot::restore_image(golden, &back).unwrap();
        assert_eq!(TrunkSnapshot::capture(&back).as_bytes()[12..], golden[12..]);
    }

    #[test]
    fn damaged_image_loads_no_cell() {
        let t = Trunk::new(3, TrunkConfig::small());
        for i in 0..10u64 {
            t.put(i, &[i as u8; 9]).unwrap();
        }
        let image = TrunkSnapshot::capture(&t).encode();
        let target = Trunk::new(3, TrunkConfig::small());
        // Cut inside the last cell: the nine before it are intact, yet
        // none may land.
        assert_eq!(
            TrunkSnapshot::restore_image(&image[..image.len() - 1], &target),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(target.cell_count(), 0);
        assert_eq!(target.mutation_count(), 0);
        // A cell count far past the bytes present allocates nothing.
        let mut lying = image.clone();
        lying[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(TrunkSnapshot::decode(&lying), Err(SnapshotError::Truncated));
        // Bytes after the last declared cell are not part of the image.
        let mut padded = image.clone();
        padded.extend_from_slice(b"tail");
        assert_eq!(TrunkSnapshot::decode(&padded).unwrap().as_bytes(), &image);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let t1 = Trunk::new(1, TrunkConfig::small());
        let t2 = Trunk::new(1, TrunkConfig::small());
        // Insert in different orders; snapshots must still match.
        for i in 0..20u64 {
            t1.put(i, &[i as u8]).unwrap();
        }
        for i in (0..20u64).rev() {
            t2.put(i, &[i as u8]).unwrap();
        }
        assert_eq!(
            TrunkSnapshot::capture(&t1).encode(),
            TrunkSnapshot::capture(&t2).encode()
        );
    }
}
