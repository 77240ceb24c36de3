//! The BSP data frame: a *run* of records (DESIGN §14).
//!
//! ```text
//! frame:           superstep u32 LE | varint width | record…
//! BSP_MSG record:  msg[width] | varint n | n × varint zigzag(gap)
//! BSP_HUB record:  k << 4 | min(zigzag(gap), 15) | [varint zigzag(gap),
//!                  when the nibble is 15] | delta[width − k]
//! delta:           msg XOR the hub's base, its k ≤ 15 trailing zero bytes cut
//! base:            the first min(width, 8) bytes of the hub's last
//!                  message, zero-padded; 0 before its first
//! gap:             id − previous id of the frame (its first: − 0),
//!                  mod 2^64, read as an i64
//! ```
//!
//! One record says "this message, to these `n` vertices": a broadcast
//! crosses the wire once per destination machine, its destinations
//! gap-coded in stored adjacency order. A `BSP_HUB` record names one hub
//! and ships what changed since its last broadcast (a repeated value is
//! one byte). A frame states its message width once. Gaps wrap, and `k`
//! is as large as it can be, so every id sequence and every (message,
//! base, gap) has exactly one encoding: [`decode`] refuses a frame shorter
//! than its header, a width the rest cannot hold, a record cut short, a
//! hub record with a smaller `k` or a gap escaped below 15, an empty frame
//! stating a width, and any varint or count the byte codec refuses
//! (DESIGN "Byte formats").

use trinity_memcloud::CellId;
use trinity_memstore::codec::{put_varint, put_zigzag, DecodeError, Reader};

/// A hub record's head nibble: the largest zero-byte cut, and the escape
/// mark of a zig-zag gap that does not fit below it.
const NIBBLE: u64 = 15;

/// Open a frame of `width`-byte messages in an empty buffer.
pub fn start(frame: &mut Vec<u8>, superstep: u32, width: usize) {
    debug_assert!(frame.is_empty(), "a run frame starts in an empty buffer");
    frame.extend_from_slice(&superstep.to_le_bytes());
    put_varint(frame, width as u64);
}

/// Append the `BSP_MSG` record "`msg` to `ids`", `msg` of the frame's
/// width, to an open frame. `prev` is the frame's last id so far, 0 when
/// it opened, and is left at this record's last.
pub fn push_record(frame: &mut Vec<u8>, prev: &mut CellId, msg: &[u8], ids: &[CellId]) {
    frame.extend_from_slice(msg);
    put_varint(frame, ids.len() as u64);
    for &id in ids {
        put_zigzag(frame, id.wrapping_sub(*prev));
        *prev = id;
    }
}

/// Append hub `id`'s `BSP_HUB` record of `msg` to an open frame, XORed
/// against `last`, the [`base`] of the hub's last message (0 before its
/// first); `prev` as for [`push_record`].
pub fn push_hub(frame: &mut Vec<u8>, prev: &mut CellId, last: u64, msg: &[u8], id: CellId) {
    let delta = id.wrapping_sub(std::mem::replace(prev, id));
    let gap = (delta << 1) ^ ((delta as i64 >> 63) as u64);
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

/// A decoded frame; message bytes borrow from it.
pub struct Run<'a> {
    pub superstep: u32,
    /// The frame's message width.
    pub width: usize,
    frame: &'a [u8],
    /// Message bytes (a hub record's delta) and the end of its ids.
    records: Vec<(&'a [u8], usize)>,
    ids: Vec<CellId>,
}

impl<'a> Run<'a> {
    /// The records in frame order: message bytes and destination ids; a
    /// hub record's bytes are its delta, to [`Run::rebuild`], and its one
    /// id the hub.
    pub fn records(&self) -> impl Iterator<Item = (&'a [u8], &[CellId])> + '_ {
        let mut start = 0;
        self.records.iter().map(move |&(msg, end)| {
            let ids = &self.ids[start..end];
            start = end;
            (msg, ids)
        })
    }

    /// Rebuild into `msg` the message of a hub record of this run that
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

/// Decode a whole frame of `BSP_HUB` records (`hub`) or `BSP_MSG` ones,
/// or nothing.
pub fn decode(frame: &[u8], hub: bool) -> Option<Run<'_>> {
    read(frame, hub).ok()
}

fn read(frame: &[u8], hub: bool) -> Result<Run<'_>, DecodeError> {
    let mut r = Reader::new(frame);
    let superstep = r.u32()?;
    let width = r.varint()?;
    // A hub record ships at least `width − 15` message bytes.
    let cut = if hub { NIBBLE } else { 0 };
    r.count(width.saturating_sub(cut), 1)?;
    let mut run = Run {
        superstep,
        width: width as usize,
        frame,
        records: Vec::new(),
        ids: Vec::new(),
    };
    let mut prev = 0u64;
    while !r.is_empty() {
        if hub {
            let head = r.u8()?;
            let (k, mut gap) = (usize::from(head >> 4), u64::from(head) & NIBBLE);
            if gap == NIBBLE {
                gap = r.varint()?;
                if gap < NIBBLE {
                    return Err(r.error());
                }
            }
            let len = run.width.checked_sub(k).ok_or_else(|| r.error())?;
            let delta = r.take(len)?;
            if k < NIBBLE as usize && delta.last() == Some(&0) {
                return Err(r.error());
            }
            prev = prev.wrapping_add((gap >> 1) ^ (gap & 1).wrapping_neg());
            run.ids.push(prev);
            run.records.push((delta, run.ids.len()));
            continue;
        }
        let msg = r.take(run.width)?;
        // Every gap costs at least one byte.
        let n = r.varint()?;
        let n = r.count(n, 1)?;
        run.ids.reserve(n);
        for _ in 0..n {
            prev = prev.wrapping_add(r.zigzag()?);
            run.ids.push(prev);
        }
        run.records.push((msg, run.ids.len()));
    }
    if run.records.is_empty() && width > 0 {
        return Err(r.error());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hub frame's records rebuilt against `bases`, which they move.
    fn rebuilt(run: &Run<'_>, bases: &mut Vec<(CellId, u64)>) -> Vec<(Vec<u8>, CellId)> {
        let mut out = Vec::new();
        for (delta, ids) in run.records() {
            let i = match bases.iter().position(|b| b.0 == ids[0]) {
                Some(i) => i,
                None => {
                    bases.push((ids[0], 0));
                    bases.len() - 1
                }
            };
            let mut msg = Vec::new();
            bases[i].1 = run.rebuild(delta, bases[i].1, &mut msg);
            out.push((msg, ids[0]));
        }
        out
    }

    #[test]
    fn a_broadcast_record_costs_the_value_once_and_short_gaps() {
        let mut frame = Vec::new();
        start(&mut frame, 7, 8);
        push_record(&mut frame, &mut 0, &[0xAB; 8], &[1000, 1003, 1001, 1001]);
        // 4 superstep + 1 width + 8 msg + 1 n + (2 + 1 + 1 + 1) gaps.
        assert_eq!(frame.len(), 19);
        let run = decode(&frame, false).unwrap();
        assert_eq!(run.superstep, 7);
        let records: Vec<_> = run.records().collect();
        assert_eq!(records, [(&[0xAB; 8][..], &[1000, 1003, 1001, 1001][..])]);
    }

    #[test]
    fn ids_at_both_ends_of_the_range_round_trip() {
        let ids = [u64::MAX, 0, u64::MAX - 1, 1 << 63, (1 << 63) - 1, 0, 0];
        let mut frame = Vec::new();
        start(&mut frame, u32::MAX, 1);
        let mut prev = 0;
        push_record(&mut frame, &mut prev, b"w", &ids);
        push_record(&mut frame, &mut prev, b"x", &[]);
        push_record(&mut frame, &mut prev, b"y", &[7]);
        let run = decode(&frame, false).unwrap();
        let records: Vec<_> = run.records().collect();
        let want = [
            (&b"w"[..], &ids[..]),
            (&b"x"[..], &[][..]),
            (&b"y"[..], &[7][..]),
        ];
        assert_eq!(records, want);
        // The same ids as hub records, each hub's first message.
        let mut frame = Vec::new();
        start(&mut frame, 0, 1);
        let mut prev = 0;
        for &id in &ids {
            push_hub(&mut frame, &mut prev, 0, b"z", id);
        }
        let run = decode(&frame, true).unwrap();
        let got: Vec<_> = rebuilt(&run, &mut Vec::new())
            .into_iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn damaged_frames_are_refused_whole() {
        for hub in [false, true] {
            let mut frame = Vec::new();
            start(&mut frame, 1, 4);
            if hub {
                push_hub(&mut frame, &mut 0, 0, b"abcd", 5);
            } else {
                push_record(&mut frame, &mut 0, b"abcd", &[5]);
            }
            assert!(decode(&frame, hub).is_some());
            assert!(
                decode(&frame[..3], hub).is_none(),
                "shorter than the superstep"
            );
            assert!(decode(&frame[..4], hub).is_none(), "no width");
            for cut in 5..frame.len() {
                assert!(decode(&frame[..cut], hub).is_none(), "cut at {cut}");
            }
            let mut trailing = frame.clone();
            trailing.push(0x80);
            assert!(
                decode(&trailing, hub).is_none(),
                "half a varint after the run"
            );
            // A width the rest cannot hold, a padded one, and a count
            // nothing backs.
            assert!(decode(&[0, 0, 0, 0, 3, 1, 1], false).is_none());
            assert!(decode(&[0, 0, 0, 0, 19, 0xF0], true).is_none());
            assert!(decode(&[0, 0, 0, 0, 0x80, 0x00, 0], hub).is_none());
        }
        assert!(decode(&[0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03], false).is_none());
        // An empty run states width 0, and only that.
        assert!(decode(&[0, 0, 0, 0, 0], true).is_some());
        assert!(decode(&[0, 0, 0, 0, 1], true).is_none());
        // A hub record cutting fewer zero bytes than it could, cutting more
        // than the width, or escaping a gap below 15.
        assert!(decode(&[0, 0, 0, 0, 2, 0x02, 1, 0], true).is_none());
        assert!(decode(&[0, 0, 0, 0, 2, 0x32], true).is_none());
        assert!(decode(&[0, 0, 0, 0, 2, 0x2F, 14], true).is_none());
        assert!(decode(&[0, 0, 0, 0, 2, 0x2F, 15], true).is_some());
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
                assert!(frame[5..].iter().all(|&head| head == 0x8E));
            }
            let run = decode(&frame, true).unwrap();
            let got = rebuilt(&run, &mut bases);
            let want: Vec<_> = ids.iter().map(|&id| (share(id).to_vec(), id)).collect();
            assert_eq!(got, want, "superstep {step}");
        }
    }
}
