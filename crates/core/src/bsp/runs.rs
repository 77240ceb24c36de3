//! The BSP data frame: a *run* of hub records (DESIGN §14).
//!
//! ```text
//! frame:   superstep u32 LE | varint width | record…
//! record:  k << 4 | min(gap, 15) | [varint gap, when the nibble is 15]
//!          | delta[width − k]
//! delta:   msg XOR the hub's base, its k ≤ 15 trailing zero bytes cut
//! base:    the first min(width, 8) bytes of the hub's last message,
//!          zero-padded; 0 before its first
//! gap:     id − previous id of the frame (its first: − 0)
//! ```
//!
//! A record names one hub, the vertex whose broadcast it carries, and
//! ships what changed since its last broadcast (a repeated value is one
//! byte); the receiving machine fans it out through its own in-edges. A
//! frame lists its hubs strictly ascending and states its message width
//! once. `k` is as large as it can be, so every ascending id sequence and
//! every (message, base) has exactly one encoding: [`decode`] refuses a
//! frame shorter than its header, a width the rest cannot hold, a record
//! cut short, a record with a smaller `k`, a gap escaped below 15, a zero
//! gap after the first record, a gap past `u64::MAX`, an empty frame
//! stating a width, and any varint the byte codec refuses (DESIGN "Byte
//! formats").

use trinity_memcloud::CellId;
use trinity_memstore::codec::{put_varint, DecodeError, Reader};

/// A record's head nibble: the largest zero-byte cut, and the escape mark
/// of a gap that does not fit below it.
const NIBBLE: u64 = 15;

/// Open a frame of `width`-byte messages in an empty buffer.
pub fn start(frame: &mut Vec<u8>, superstep: u32, width: usize) {
    debug_assert!(frame.is_empty(), "a run frame starts in an empty buffer");
    frame.extend_from_slice(&superstep.to_le_bytes());
    put_varint(frame, width as u64);
}

/// Append hub `id`'s record of `msg`, of the frame's width, to an open
/// frame, XORed against `last`, the [`base`] of the hub's last message (0
/// before its first). `prev` is the frame's last id so far, 0 when it
/// opened, and is left at `id`, which must be above it unless the frame
/// is empty.
pub fn push_hub(frame: &mut Vec<u8>, prev: &mut CellId, last: u64, msg: &[u8], id: CellId) {
    debug_assert!(id > *prev || *prev == 0, "a frame lists its hubs ascending");
    let gap = id.wrapping_sub(std::mem::replace(prev, id));
    let (low, high) = msg.split_at(msg.len().min(8));
    let xored = (base(low) ^ last) & mask(low.len());
    // Zero bytes at the delta's end: `high`'s, then the XORed word's top.
    let mut cut = high.iter().rev().take_while(|&&b| b == 0).count();
    if cut == high.len() {
        cut += low.len() - (71 - xored.leading_zeros() as usize) / 8;
    }
    let cut = cut.min(NIBBLE as usize);
    frame.push((cut as u8) << 4 | gap.min(NIBBLE) as u8);
    if gap >= NIBBLE {
        put_varint(frame, gap);
    }
    // `high` is empty unless the word is full: the word's bytes past
    // `low` are padding, dropped with the cut.
    frame.extend_from_slice(&xored.to_le_bytes());
    frame.extend_from_slice(high);
    frame.truncate(frame.len() - (8 - low.len()) - cut);
}

/// The base `msg` leaves for its hub's next record: its first
/// `min(len, 8)` bytes, zero-padded, read little-endian.
pub fn base(msg: &[u8]) -> u64 {
    match msg.first_chunk() {
        Some(&word) => u64::from_le_bytes(word),
        None => msg.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
    }
}

/// The low `bytes` bytes of a word set, `bytes` at most 8.
fn mask(bytes: usize) -> u64 {
    u64::MAX.checked_shr(64 - 8 * bytes as u32).unwrap_or(0)
}

/// A decoded frame; deltas borrow from it.
pub struct Run<'a> {
    pub superstep: u32,
    /// The frame's message width.
    pub width: usize,
    frame: &'a [u8],
    /// Per record, in frame order: its delta, to [`Run::rebuild`], and
    /// its hub.
    pub records: Vec<(&'a [u8], CellId)>,
}

impl Run<'_> {
    /// Rebuild into `msg` the message of a record of this run that
    /// shipped `delta` against `last`; returns the base it leaves.
    pub fn rebuild(&self, delta: &[u8], last: u64, msg: &mut Vec<u8>) -> u64 {
        // The delta's first bytes as one load from the frame, which goes
        // on past them but at its very end.
        let at = (delta.as_ptr() as usize).wrapping_sub(self.frame.as_ptr() as usize);
        let low = match self.frame.get(at..).and_then(|b| b.first_chunk()) {
            Some(&word) => u64::from_le_bytes(word) & mask(delta.len().min(8)),
            None => base(delta),
        };
        let word = (low ^ last) & mask(self.width.min(8));
        msg.clear();
        msg.extend_from_slice(&word.to_le_bytes());
        if self.width > 8 {
            msg.extend_from_slice(delta.get(8..).unwrap_or_default());
        }
        msg.resize(self.width, 0);
        word
    }
}

/// Decode a whole frame, or nothing.
pub fn decode(frame: &[u8]) -> Option<Run<'_>> {
    read(frame).ok()
}

fn read(frame: &[u8]) -> Result<Run<'_>, DecodeError> {
    let mut r = Reader::new(frame);
    let superstep = r.u32()?;
    let width = r.varint()?;
    // A record ships at least `width − 15` message bytes.
    r.count(width.saturating_sub(NIBBLE), 1)?;
    let mut run = Run {
        superstep,
        width: width as usize,
        frame,
        records: Vec::new(),
    };
    let mut prev = 0u64;
    while !r.is_empty() {
        let head = r.u8()?;
        let (k, mut gap) = (usize::from(head >> 4), u64::from(head) & NIBBLE);
        if gap == NIBBLE {
            gap = r.varint()?;
            if gap < NIBBLE {
                return Err(r.error());
            }
        }
        if gap == 0 && !run.records.is_empty() {
            return Err(r.error());
        }
        prev = prev.checked_add(gap).ok_or_else(|| r.error())?;
        let len = run.width.checked_sub(k).ok_or_else(|| r.error())?;
        let delta = r.take(len)?;
        if k < NIBBLE as usize && delta.last() == Some(&0) {
            return Err(r.error());
        }
        run.records.push((delta, prev));
    }
    if run.records.is_empty() && width > 0 {
        return Err(r.error());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame's records rebuilt against `bases`, which they move.
    fn rebuilt(run: &Run<'_>, bases: &mut Vec<(CellId, u64)>) -> Vec<(Vec<u8>, CellId)> {
        let mut out = Vec::new();
        for &(delta, id) in &run.records {
            let i = match bases.iter().position(|b| b.0 == id) {
                Some(i) => i,
                None => {
                    bases.push((id, 0));
                    bases.len() - 1
                }
            };
            let mut msg = Vec::new();
            bases[i].1 = run.rebuild(delta, bases[i].1, &mut msg);
            out.push((msg, id));
        }
        out
    }

    /// A one-byte frame of `ids`' records, each hub's first message.
    fn frame_of(ids: &[CellId]) -> Vec<u8> {
        let mut frame = Vec::new();
        start(&mut frame, 0, 1);
        let mut prev = 0;
        for &id in ids {
            push_hub(&mut frame, &mut prev, 0, b"z", id);
        }
        frame
    }

    #[test]
    fn ids_at_both_ends_of_the_range_round_trip() {
        let ids = [0, 1, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let frame = frame_of(&ids);
        let run = decode(&frame).unwrap();
        let got: Vec<_> = rebuilt(&run, &mut Vec::new())
            .into_iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(got, ids);
        // A gap is the plain difference: 15 and up escapes, one byte to 127.
        assert_eq!(frame_of(&[14, 28]).len(), 4 + 1 + 2 * 2);
        assert_eq!(frame_of(&[15, 142]).len(), 4 + 1 + 2 * 3);
        assert_eq!(frame_of(&[15, 143]).len(), 4 + 1 + 3 + 4);
    }

    #[test]
    fn damaged_frames_are_refused_whole() {
        let mut frame = Vec::new();
        start(&mut frame, 1, 4);
        push_hub(&mut frame, &mut 0, 0, b"abcd", 5);
        assert!(decode(&frame).is_some());
        assert!(decode(&frame[..3]).is_none(), "shorter than the superstep");
        assert!(decode(&frame[..4]).is_none(), "no width");
        for cut in 5..frame.len() {
            assert!(decode(&frame[..cut]).is_none(), "cut at {cut}");
        }
        let mut trailing = frame.clone();
        trailing.push(0x80);
        assert!(decode(&trailing).is_none(), "half a varint after the run");
        // A width the rest cannot hold, and a padded one.
        assert!(decode(&[0, 0, 0, 0, 19, 0xF0]).is_none());
        assert!(decode(&[0, 0, 0, 0, 0x80, 0x00, 0]).is_none());
        // An empty run states width 0, and only that.
        assert!(decode(&[0, 0, 0, 0, 0]).is_some());
        assert!(decode(&[0, 0, 0, 0, 1]).is_none());
        // A record cutting fewer zero bytes than it could, cutting more
        // than the width, or escaping a gap below 15.
        assert!(decode(&[0, 0, 0, 0, 2, 0x02, 1, 0]).is_none());
        assert!(decode(&[0, 0, 0, 0, 2, 0x32]).is_none());
        assert!(decode(&[0, 0, 0, 0, 2, 0x2F, 14]).is_none());
        assert!(decode(&[0, 0, 0, 0, 2, 0x2F, 15]).is_some());
    }

    #[test]
    fn a_frame_lists_its_hubs_strictly_ascending() {
        // Zero-width records: a head byte each, its low nibble the gap.
        let frame = |heads: &[u8]| [&[0, 0, 0, 0, 0][..], heads].concat();
        assert_eq!(decode(&frame(&[0x00, 0x03])).unwrap().records.len(), 2);
        // Only the first record may name hub 0: a zero gap after it
        // repeats a hub, inline or escaped.
        assert!(decode(&frame(&[0x00, 0x00])).is_none());
        assert!(decode(&frame(&[0x03, 0x00])).is_none());
        // Nothing wraps: a gap past `u64::MAX` would descend.
        let mut max = frame(&[0x0F]);
        max.extend_from_slice(&[0xFF; 9]);
        max.push(0x01);
        assert_eq!(decode(&max).unwrap().records[0].1, u64::MAX);
        let mut past = max.clone();
        past.push(0x01);
        assert!(decode(&past).is_none());
        assert!(decode(&frame(&[
            0x01, 0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01
        ]))
        .is_none());
    }

    #[test]
    fn a_hub_record_ships_what_changed_since_its_hubs_last() {
        // 8-byte messages to ascending ids: the first below 8, each less
        // than 8 above the one before, so every gap fits the head.
        let ids: Vec<CellId> = (0..300u64).map(|i| 7 * i + 7).collect();
        let share = |i: u64| (1.0 / 15_000.0 / (i % 13 + 1) as f64).to_le_bytes();
        let mut bases = Vec::new();
        let mut sent = vec![0u64; ids.len()];
        // Superstep 0: every base is zero, so a record is the head and
        // the message itself — a share's low mantissa byte is not zero.
        // Superstep 1: every hub repeats its value, so a record is its
        // head alone, and that cuts all eight bytes.
        for (step, record) in [(0, 9), (1, 1)] {
            let mut frame = Vec::new();
            let mut prev = 0;
            start(&mut frame, step, 8);
            for (i, &id) in ids.iter().enumerate() {
                let msg = share(id);
                push_hub(&mut frame, &mut prev, sent[i], &msg, id);
                sent[i] = base(&msg);
            }
            assert_eq!(frame.len(), 4 + 1 + record * ids.len());
            if step == 1 {
                assert!(frame[5..].iter().all(|&head| head == 0x87));
            }
            let run = decode(&frame).unwrap();
            let got = rebuilt(&run, &mut bases);
            let want: Vec<_> = ids.iter().map(|&id| (share(id).to_vec(), id)).collect();
            assert_eq!(got, want, "superstep {step}");
        }
    }
}
