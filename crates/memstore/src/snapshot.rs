//! Trunk serialization for TFS-backed persistence (paper §3, §6.2).
//!
//! Memory trunks are backed up in the Trinity File System so that a failed
//! machine's trunks can be reloaded onto surviving machines, and the
//! out-of-core path (§5.4) pages trunks through the same files. An image
//! is a compact, self-checking byte string of a trunk's live cells:
//!
//! ```text
//! magic "TKC1" | trunk id: u64 | cell count: u64 |
//!   repeat, in ascending id order:
//!     id: varint      the first cell's id, then the gap to the previous id (≥ 1);
//!                     ids stop short of u64::MAX - 1, which the trunk reserves
//!     head: varint    raw length << 1 | list bit
//!     raw bytes
//!     if list bit:    n: varint | n × zig-zag varint gap, in stored order
//! body length: u64 | checksum of the body: u64
//! ```
//!
//! Fixed-width fields, varints and zig-zag gaps follow DESIGN "Byte
//! formats" ([`crate::codec`]). A payload that ends in a length-prefixed
//! `u64` list — `u32 n | n × u64 LE`, the out-list of a node record or a
//! TSL `List<long>` tail — keeps everything before the list as its raw
//! bytes and stores the list as `n` and the gaps between consecutive ids
//! (the first from 0), so an adjacency list of small ids costs a byte or
//! two an id instead of eight. Any other payload, and any cell the list
//! form would not make smaller, is stored verbatim. Either way the codec
//! only drops bytes it rebuilds exactly, so every payload restores
//! bit-identical; the resident cell layout never changes.
//!
//! Cells appear in ascending id order, so two trunks with the same live
//! cells have byte-identical images however they were built.
//!
//! The trailer is verified before anything else is read: a flipped byte
//! anywhere, a cut, or bytes after the trailer is
//! [`SnapshotError::Checksum`]. Behind a good trailer the decoder is
//! still strict — a zero or overflowing id gap, a reserved id, any varint
//! or count the codec refuses, or a cell count that disagrees with the
//! header is [`SnapshotError::Malformed`].
//!
//! Each cell is captured atomically (its spin lock is held while copying),
//! but the snapshot as a whole is not a point-in-time cut across cells —
//! Trinity quiesces computation before checkpointing (between BSP
//! supersteps, or after termination detection for asynchronous jobs), so
//! snapshot callers are single-writer by protocol.
//!
//! Both directions stream: [`TrunkSnapshot::capture`] encodes each pinned
//! cell straight into the image buffer, and
//! [`TrunkSnapshot::restore_image`] decodes the image into one bulk load of
//! the empty trunk, a verbatim payload borrowed from the image and a list
//! payload rebuilt in one scratch buffer. The load takes the trunk's
//! allocation and index locks once, sizes the index and draws the cells'
//! version stamps once for the header's count, and lands every cell where
//! a per-cell insert would have. Neither direction allocates per cell.

use crate::codec::{put_varint, put_zigzag, varint_len, DecodeError, Reader};
use crate::hash::mix64;
use crate::trunk::{Trunk, TrunkConfig};
use crate::CellId;
use std::fmt;

const MAGIC: &[u8; 4] = b"TKC1";
/// magic + trunk id + cell count.
const HEADER_LEN: usize = 20;
/// body length + checksum.
const TRAILER_LEN: usize = 16;
/// The `head` bit of a payload stored with its list tail as gaps.
const LIST_BIT: u64 = 1;

/// Errors from decoding a trunk snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte image does not start with the snapshot magic.
    BadMagic,
    /// The trailer does not vouch for the bytes before it: the image was
    /// damaged, cut short or extended.
    Checksum,
    /// The checksum holds but the cells break the format.
    Malformed,
    /// A cell failed to load into the target trunk (e.g. it does not fit).
    Load(CellId, crate::StoreError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a trunk snapshot (bad magic)"),
            SnapshotError::Checksum => write!(f, "trunk snapshot fails its checksum"),
            SnapshotError::Malformed => write!(f, "trunk snapshot is malformed"),
            SnapshotError::Load(id, e) => write!(f, "failed to load cell {id:#x}: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(_: DecodeError) -> Self {
        SnapshotError::Malformed
    }
}

/// 64-bit checksum of `bytes`, a little-endian word at a time. Each step
/// is a bijection of the state for a fixed word and injective in the word
/// for a fixed state, so two inputs of one length that differ inside a
/// single word always sum differently.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let (words, rest) = bytes.as_chunks::<8>();
    let h = words
        .iter()
        .map(|w| u64::from_le_bytes(*w))
        .fold((bytes.len() as u64).wrapping_mul(K), step);
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    mix64(step(h, u64::from_le_bytes(tail)))
}

/// The longest `u32 n | n × u64` list `payload` ends in: where its `n`
/// starts, and `n`.
fn list_tail(payload: &[u8]) -> Option<(usize, usize)> {
    let longest = payload.len().checked_sub(4)? / 8;
    (0..=longest).rev().find_map(|n| {
        let at = payload.len() - 4 - 8 * n;
        let word = u32::from_le_bytes(*payload[at..].first_chunk()?);
        (word as usize == n).then_some((at, n))
    })
}

/// Append one cell's `head`, raw bytes and list (no id).
fn put_payload(image: &mut Vec<u8>, payload: &[u8]) {
    if let Some((at, n)) = list_tail(payload) {
        let start = image.len();
        put_varint(image, ((at as u64) << 1) | LIST_BIT);
        image.extend_from_slice(&payload[..at]);
        put_varint(image, n as u64);
        let mut prev = 0u64;
        for id in payload[at + 4..].as_chunks::<8>().0 {
            let id = u64::from_le_bytes(*id);
            put_zigzag(image, id.wrapping_sub(prev));
            prev = id;
        }
        let verbatim = varint_len((payload.len() as u64) << 1) + payload.len();
        if image.len() - start < verbatim {
            return;
        }
        image.truncate(start);
    }
    put_varint(image, (payload.len() as u64) << 1);
    image.extend_from_slice(payload);
}

/// Verify `image`'s magic and trailer and read its header: the trunk id,
/// the cell count and a reader at the first cell. A count the body could
/// not hold is refused here, before anyone reserves room for it: every
/// cell takes at least an id byte and a head byte.
fn open(image: &[u8]) -> Result<(u64, usize, Reader<'_>), SnapshotError> {
    if !image.starts_with(MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let (body, trailer) = image
        .split_at_checked(image.len().wrapping_sub(TRAILER_LEN))
        .filter(|(body, _)| body.len() >= HEADER_LEN)
        .ok_or(SnapshotError::Checksum)?;
    let mut sums = Reader::new(trailer);
    if sums.u64() != Ok(body.len() as u64) || sums.u64() != Ok(checksum(body)) {
        return Err(SnapshotError::Checksum);
    }
    let mut r = Reader::new(body);
    r.take(MAGIC.len())?;
    let (trunk_id, count) = (r.u64()?, r.u64()?);
    let count = r.count(count, 2)?;
    Ok((trunk_id, count, r))
}

/// Hand the `count` cells behind `r` to `visit` in stored order, each
/// payload borrowed from the image when stored verbatim and rebuilt in a
/// scratch buffer otherwise. A structural fault stops the walk where it
/// is found.
fn walk(
    mut r: Reader<'_>,
    count: usize,
    mut visit: impl FnMut(CellId, &[u8]) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut scratch = Vec::new();
    let mut prev: Option<CellId> = None;
    for _ in 0..count {
        let step = r.varint()?;
        let id = match prev {
            None => Some(step),
            Some(_) if step == 0 => None,
            Some(p) => p.checked_add(step),
        }
        // The trunk keeps the top two ids as markers of its own.
        .filter(|&id| id < CellId::MAX - 1)
        .ok_or(SnapshotError::Malformed)?;
        prev = Some(id);
        let head = r.varint()?;
        let raw = r.take(r.count(head >> 1, 1)?)?;
        if head & LIST_BIT == 0 {
            visit(id, raw)?;
            continue;
        }
        // Every gap takes at least one byte.
        let n = r.varint()?;
        let n = r.count(n, 1)?;
        let word = u32::try_from(n).map_err(|_| SnapshotError::Malformed)?;
        scratch.clear();
        scratch.reserve(raw.len() + 4 + 8 * n);
        scratch.extend_from_slice(raw);
        scratch.extend_from_slice(&word.to_le_bytes());
        let mut nb = 0u64;
        for _ in 0..n {
            nb = nb.wrapping_add(r.zigzag()?);
            scratch.extend_from_slice(&nb.to_le_bytes());
        }
        visit(id, &scratch)?;
    }
    r.finish()?;
    Ok(())
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
        // Never more than the cells verbatim, each behind a maximal id and
        // head.
        let mut image = Vec::with_capacity(
            HEADER_LEN + TRAILER_LEN + ids.len() * 15 + trunk.stats().live_payload_bytes,
        );
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&trunk.id().to_le_bytes());
        image.extend_from_slice(&0u64.to_le_bytes());
        // A cell removed since `ids` was listed is skipped, so the count
        // is only known after the walk.
        let mut count = 0u64;
        let mut prev = None;
        for id in ids {
            if let Some(cell) = trunk.get(id) {
                put_varint(&mut image, prev.map_or(id, |p| id - p));
                put_payload(&mut image, &cell);
                prev = Some(id);
                count += 1;
            }
        }
        image[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&count.to_le_bytes());
        let sum = checksum(&image);
        image.extend_from_slice(&(image.len() as u64).to_le_bytes());
        image.extend_from_slice(&sum.to_le_bytes());
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

    /// Decode from the flat byte format, checking every cell.
    pub fn decode(data: &[u8]) -> Result<Self, SnapshotError> {
        let (trunk_id, count, cells) = open(data)?;
        walk(cells, count, |_, _| Ok(()))?;
        Ok(TrunkSnapshot {
            trunk_id,
            cell_count: count as u64,
            image: data.to_vec(),
        })
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

    /// Load the cells of an undecoded `image` into the empty `trunk`,
    /// decoding and inserting in one pass. The magic, the trailer and the
    /// header's cell count are checked before the first cell is written,
    /// so an image damaged in storage fails without touching the trunk. An
    /// image whose checksum holds but whose cells break the format (only a
    /// faulty writer makes one), or a cell the trunk has no room for,
    /// fails where it is found and can leave the cells before it in place:
    /// discard the trunk on any error.
    ///
    /// The load is one bulk fill that holds the trunk's index for its
    /// whole length, so a concurrent reader of `trunk` sees either none
    /// of the image's cells or all of them that loaded, never a part.
    pub fn restore_image(image: &[u8], trunk: &Trunk) -> Result<(), SnapshotError> {
        let (_, count, cells) = open(image)?;
        let mut loader = trunk.loader(count);
        walk(cells, count, |id, payload| {
            loader
                .insert(id, payload)
                .map_err(|e| SnapshotError::Load(id, e))
        })
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
        assert_eq!(snap.trunk_id, 7);
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
        assert_eq!(TrunkSnapshot::decode(b"oops"), Err(SnapshotError::BadMagic));
        assert_eq!(
            TrunkSnapshot::decode(&[b'X'; 64]),
            Err(SnapshotError::BadMagic)
        );
        // The magic alone, or a header with no trailer behind it.
        assert_eq!(TrunkSnapshot::decode(b"TKC1"), Err(SnapshotError::Checksum));
        let mut data = b"TKC1".to_vec();
        data.extend_from_slice(&[0; 28]);
        assert_eq!(TrunkSnapshot::decode(&data), Err(SnapshotError::Checksum));
    }

    /// The layout is what TFS holds for every trunk ever backed up or
    /// spilled: pin it byte for byte, including id order.
    #[test]
    fn image_bytes_are_pinned() {
        let t = Trunk::new(0x0102_0304_0506_0708, TrunkConfig::small());
        t.put(0x2a, b"late").unwrap();
        t.put(7, b"").unwrap();
        t.put(u64::MAX - 2, &[0xff, 0x00, 0x7f]).unwrap();
        t.put(9, b"gone").unwrap();
        t.remove(9).unwrap();
        t.append(7, b"grown").unwrap();
        // A node record: flag, no attributes, out-list 300, 2, u64::MAX.
        let mut record = vec![0, 0, 0, 0, 0, 3, 0, 0, 0];
        for id in [300u64, 2, u64::MAX] {
            record.extend_from_slice(&id.to_le_bytes());
        }
        t.put(0x2c, &record).unwrap();
        #[rustfmt::skip]
        let body: &[u8] = &[
            b'T', b'K', b'C', b'1',
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // trunk id
            4, 0, 0, 0, 0, 0, 0, 0,                         // cell count
            7,    5 << 1,   b'g', b'r', b'o', b'w', b'n',   // id 7, verbatim
            0x23, 4 << 1,   b'l', b'a', b't', b'e',         // gap 35
            // gap 2; raw 5 bytes + list bit; n = 3; zig-zag gaps
            // +300, -298, u64::MAX - 2 (= -3)
            2,    (5 << 1) | 1,   0, 0, 0, 0, 0,   3,   0xd8, 0x04,   0xd3, 0x04,   5,
            // gap to u64::MAX - 2, a ten-byte varint
            0xd1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            3 << 1,   0xff, 0x00, 0x7f,
        ];
        let mut golden = body.to_vec();
        golden.extend_from_slice(&(body.len() as u64).to_le_bytes());
        golden.extend_from_slice(&checksum(body).to_le_bytes());
        let snap = TrunkSnapshot::capture(&t);
        assert_eq!(snap.as_bytes(), golden);
        assert_eq!(snap.encode(), golden);
        assert_eq!(TrunkSnapshot::decode(&golden).unwrap(), snap);
        // And back: the golden bytes alone rebuild the same trunk.
        let back = Trunk::new(0x0102_0304_0506_0708, TrunkConfig::small());
        TrunkSnapshot::restore_image(&golden, &back).unwrap();
        assert_eq!(back.get_owned(0x2c).unwrap(), record);
        assert_eq!(TrunkSnapshot::capture(&back).as_bytes(), golden);
    }

    /// `body` behind a trailer that vouches for it, so only the cell walk
    /// can refuse it.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut image = body.to_vec();
        image.extend_from_slice(&(body.len() as u64).to_le_bytes());
        image.extend_from_slice(&checksum(body).to_le_bytes());
        image
    }

    fn sealed(cells: &[u8], count: u64) -> Vec<u8> {
        let mut body = b"TKC1".to_vec();
        body.extend_from_slice(&5u64.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(cells);
        seal(&body)
    }

    /// Laws 1 and 2 of the codec harness over the cell walk: the damage
    /// lands behind a valid trailer. A list-tailed payload may also be
    /// stored verbatim, so a cell set has more than one image and law 3
    /// does not apply (`trunk_model.rs` pins the encoder's choice).
    #[test]
    fn cell_walk_keeps_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        use std::collections::BTreeMap;
        let payload = |rng: &mut Rng| {
            let mut p = rng.bytes(12);
            if rng.coin() {
                let ids = rng.vec(5, Rng::u64);
                p.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    p.extend_from_slice(&id.to_le_bytes());
                }
            }
            p
        };
        let body = |cells: &BTreeMap<CellId, Vec<u8>>| {
            let t = Trunk::new(5, TrunkConfig::small());
            for (&id, bytes) in cells {
                t.put(id, bytes).unwrap();
            }
            let image = TrunkSnapshot::capture(&t).encode();
            image[..image.len() - TRAILER_LEN].to_vec()
        };
        let restore = |body: &[u8]| {
            let t = Trunk::new(5, TrunkConfig::small());
            TrunkSnapshot::restore_image(&seal(body), &t).ok()?;
            let ids = t.cell_ids().into_iter();
            Some(ids.map(|id| (id, t.get_owned(id).unwrap())).collect())
        };
        let cells = |rng: &mut Rng| {
            let ids = rng.vec(6, |rng| rng.u64().min(CellId::MAX - 2));
            ids.into_iter().map(|id| (id, payload(rng))).collect()
        };
        check(0x7c1, cells, body, restore, false);
    }

    #[test]
    fn strict_decoder_refuses_every_malformed_cell_list() {
        // id 7 "a" then id 9 "b": the well-formed baseline.
        let good = sealed(&[7, 2, b'a', 2, 2, b'b'], 2);
        let t = Trunk::new(5, TrunkConfig::small());
        TrunkSnapshot::restore_image(&good, &t).unwrap();
        assert_eq!(t.get_owned(9).unwrap(), b"b");
        let varint = |v: u64| {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            out
        };
        let malformed: &[(&str, Vec<u8>)] = &[
            // The same id twice: a zero gap, whose last copy used to win.
            ("duplicate id", sealed(&[7, 2, b'a', 0, 2, b'b'], 2)),
            (
                "overflowing gap",
                sealed(
                    &[&[7, 2, b'a'], &varint(u64::MAX)[..], &[2, b'b']].concat(),
                    2,
                ),
            ),
            (
                "reserved id",
                sealed(&[&varint(u64::MAX - 1)[..], &[2, b'a']].concat(), 1),
            ),
            ("padded varint", sealed(&[0x87, 0x00, 2, b'a'], 1)),
            ("eleven-byte varint", sealed(&[0x80; 11], 1)),
            (
                "varint past u64",
                sealed(&[&[0xff; 9][..], &[2, 0, 0]].concat(), 1),
            ),
            ("length past the body", sealed(&[7, 8, b'a'], 1)),
            ("list count past the body", sealed(&[7, 1, 200, 1], 1)),
            ("count above the cells", sealed(&[7, 2, b'a'], 2)),
            (
                "count below the cells",
                sealed(&[7, 2, b'a', 2, 2, b'b'], 1),
            ),
            ("varint cut at the end", sealed(&[7, 0x80], 1)),
        ];
        for (what, image) in malformed {
            let t = Trunk::new(5, TrunkConfig::small());
            assert_eq!(
                TrunkSnapshot::decode(image),
                Err(SnapshotError::Malformed),
                "{what}"
            );
            assert_eq!(
                TrunkSnapshot::restore_image(image, &t),
                Err(SnapshotError::Malformed),
                "{what}"
            );
        }
        // A header that claims 2^40 cells behind a good trailer is refused
        // before the load reserves index room or stamps for them (a
        // reservation that size would abort the process), and the trunk
        // stays empty.
        let huge = sealed(&[7, 2, b'a', 2, 2, b'b'], 1 << 40);
        let t = Trunk::new(5, TrunkConfig::small());
        assert_eq!(TrunkSnapshot::decode(&huge), Err(SnapshotError::Malformed));
        assert_eq!(
            TrunkSnapshot::restore_image(&huge, &t),
            Err(SnapshotError::Malformed)
        );
        assert_eq!((t.cell_count(), t.mutation_count()), (0, 0));
        assert_eq!(t.stats(), Trunk::new(5, TrunkConfig::small()).stats());
    }

    /// The restore holds the trunk's index for its whole length: a reader
    /// polling the trunk meanwhile sees no cell of the image or all of
    /// them, and never the last cell before the count says all.
    #[test]
    fn a_concurrent_reader_sees_no_cell_or_every_cell() {
        const CELLS: u64 = 20_000;
        let source = Trunk::new(4, TrunkConfig::default());
        for id in 0..CELLS {
            source.put(id, &id.to_le_bytes()).unwrap();
        }
        let image = TrunkSnapshot::capture(&source).encode();
        let last = CELLS - 1;
        let target = Trunk::new(4, TrunkConfig::default());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                loop {
                    let seen = target.cell_count();
                    assert!(seen == 0 || seen == CELLS as usize, "saw {seen} cells");
                    let cell = target.get_owned(last);
                    if let Some(cell) = &cell {
                        assert_eq!(cell[..], last.to_le_bytes());
                        assert_eq!(target.cell_count(), CELLS as usize);
                    }
                    if seen != 0 {
                        assert!(cell.is_some(), "all cells counted, the last absent");
                        return;
                    }
                }
            });
            start.wait();
            TrunkSnapshot::restore_image(&image, &target).unwrap();
            reader.join().unwrap();
        });
        assert_eq!(target.cell_count(), CELLS as usize);
    }

    #[test]
    fn damaged_image_loads_no_cell() {
        let t = Trunk::new(3, TrunkConfig::small());
        for i in 0..10u64 {
            t.put(i, &[i as u8; 9]).unwrap();
        }
        let image = TrunkSnapshot::capture(&t).encode();
        let target = Trunk::new(3, TrunkConfig::small());
        // Cut inside the trailer, flip one payload byte, or extend: the
        // cells are intact or nearly so, yet none may land.
        let mut flipped = image.clone();
        flipped[HEADER_LEN + 5] ^= 1;
        let mut padded = image.clone();
        padded.extend_from_slice(b"tail");
        for bad in [&image[..image.len() - 1], &flipped, &padded] {
            assert_eq!(
                TrunkSnapshot::restore_image(bad, &target),
                Err(SnapshotError::Checksum)
            );
            assert_eq!(TrunkSnapshot::decode(bad), Err(SnapshotError::Checksum));
        }
        assert_eq!(target.cell_count(), 0);
        assert_eq!(target.mutation_count(), 0);
        // A cell count far past the bytes present allocates nothing.
        let cells = &image[HEADER_LEN..image.len() - TRAILER_LEN];
        let lying = sealed(cells, u64::MAX);
        assert_eq!(TrunkSnapshot::decode(&lying), Err(SnapshotError::Malformed));
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

    #[test]
    fn checksum_sees_a_change_in_any_byte() {
        let data: Vec<u8> = (0..37u8).collect();
        let base = checksum(&data);
        for i in 0..data.len() {
            let mut d = data.clone();
            d[i] ^= 0x01;
            assert_ne!(checksum(&d), base, "byte {i}");
        }
        assert_ne!(checksum(&data[..36]), base);
        assert_ne!(checksum(&[0]), checksum(&[]));
    }
}
