//! The BSP data frame: a *run* of records (DESIGN §14).
//!
//! ```text
//! frame:           superstep u32 LE | varint width | record…
//! BSP_MSG record:  msg[width] | varint n | n × varint zigzag(gap)
//! BSP_HUB record:  msg[width] | varint zigzag(gap)
//! gap:             id − previous id of the frame (its first: − 0),
//!                  mod 2^64, read as an i64
//! ```
//!
//! One record says "this message, to these `n` vertices": a broadcast
//! crosses the wire once per destination machine, its destinations
//! gap-coded in stored adjacency order. A `BSP_HUB` record names one hub,
//! so it is the value and one gap. A frame states its message width once. Gaps wrap, so every id
//! sequence (any order, repeats included) has exactly one encoding.
//! [`decode`] refuses a frame shorter than its header, a width the rest
//! cannot hold, a record cut short, and any varint or count the byte
//! codec refuses (DESIGN "Byte formats").

use trinity_memcloud::CellId;
use trinity_memstore::codec::{put_varint, put_zigzag, DecodeError, Reader};

/// Open a frame of `width`-byte messages in an empty buffer.
pub fn start(frame: &mut Vec<u8>, superstep: u32, width: usize) {
    debug_assert!(frame.is_empty(), "a run frame starts in an empty buffer");
    frame.extend_from_slice(&superstep.to_le_bytes());
    put_varint(frame, width as u64);
}

/// Append one record, `msg` of the frame's width, to an open frame; a hub
/// record (`hub`) names one id and has no count. `prev` is the frame's
/// last id so far, 0 when it opened, and is left at this record's last.
pub fn push_record(frame: &mut Vec<u8>, prev: &mut CellId, hub: bool, msg: &[u8], ids: &[CellId]) {
    debug_assert!(!hub || ids.len() == 1, "a hub record names one hub");
    frame.extend_from_slice(msg);
    if !hub {
        put_varint(frame, ids.len() as u64);
    }
    for &id in ids {
        put_zigzag(frame, id.wrapping_sub(*prev));
        *prev = id;
    }
}

/// A decoded frame; message bytes borrow from it.
pub struct Run<'a> {
    pub superstep: u32,
    /// Message bytes and the end of the record's ids in `ids`.
    records: Vec<(&'a [u8], usize)>,
    ids: Vec<CellId>,
}

impl<'a> Run<'a> {
    /// The records in frame order: message bytes and destination ids.
    pub fn records(&self) -> impl Iterator<Item = (&'a [u8], &[CellId])> + '_ {
        let mut start = 0;
        self.records.iter().map(move |&(msg, end)| {
            let ids = &self.ids[start..end];
            start = end;
            (msg, ids)
        })
    }
}

/// Decode a whole frame of `BSP_HUB` records (`hub`) or `BSP_MSG` ones,
/// or nothing.
pub fn decode(frame: &[u8], hub: bool) -> Option<Run<'_>> {
    read(frame, hub).ok()
}

fn read(frame: &[u8], hub: bool) -> Result<Run<'_>, DecodeError> {
    let mut r = Reader::new(frame);
    let mut run = Run {
        superstep: r.u32()?,
        records: Vec::new(),
        ids: Vec::new(),
    };
    let width = r.varint()?;
    let width = r.count(width, 1)?;
    let mut prev = 0u64;
    while !r.is_empty() {
        let msg = r.take(width)?;
        // Every gap costs at least one byte.
        let n = if hub { 1 } else { r.varint()? };
        let n = r.count(n, 1)?;
        run.ids.reserve(n);
        for _ in 0..n {
            prev = prev.wrapping_add(r.zigzag()?);
            run.ids.push(prev);
        }
        run.records.push((msg, run.ids.len()));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broadcast_record_costs_the_value_once_and_short_gaps() {
        let mut frame = Vec::new();
        start(&mut frame, 7, 8);
        push_record(
            &mut frame,
            &mut 0,
            false,
            &[0xAB; 8],
            &[1000, 1003, 1001, 1001],
        );
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
        push_record(&mut frame, &mut prev, false, b"w", &ids);
        push_record(&mut frame, &mut prev, false, b"x", &[]);
        push_record(&mut frame, &mut prev, false, b"y", &[7]);
        let run = decode(&frame, false).unwrap();
        let records: Vec<_> = run.records().collect();
        let want = [
            (&b"w"[..], &ids[..]),
            (&b"x"[..], &[][..]),
            (&b"y"[..], &[7][..]),
        ];
        assert_eq!(records, want);
    }

    #[test]
    fn damaged_frames_are_refused_whole() {
        for hub in [false, true] {
            let mut frame = Vec::new();
            start(&mut frame, 1, 4);
            push_record(&mut frame, &mut 0, hub, b"abcd", &[5]);
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
            assert!(decode(&[0, 0, 0, 0, 3, 1, 1], hub).is_none());
            assert!(decode(&[0, 0, 0, 0, 0x80, 0x00, 0], hub).is_none());
        }
        assert!(decode(&[0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03], false).is_none());
        // An empty run states width 0, and only that.
        assert!(decode(&[0, 0, 0, 0, 0], true).is_some());
        assert!(decode(&[0, 0, 0, 0, 1], true).is_none());
    }

    #[test]
    fn a_hub_frame_costs_nine_bytes_an_id() {
        // 8-byte messages to ascending ids: the first below 64, each less
        // than 64 above the one before, so every gap is one byte.
        for k in [1u64, 5, 300] {
            let ids: Vec<CellId> = (0..k).map(|i| 63 * i + 63).collect();
            let mut frame = Vec::new();
            let mut prev = 0;
            start(&mut frame, 2, 8);
            for &id in &ids {
                push_record(&mut frame, &mut prev, true, &id.to_le_bytes(), &[id]);
            }
            assert_eq!(frame.len() as u64, 4 + 1 + 9 * k);
            let run = decode(&frame, true).unwrap();
            let got: Vec<CellId> = run.records().flat_map(|(_, ids)| ids.to_vec()).collect();
            assert_eq!(got, ids);
            assert!(run.records().all(|(msg, _)| msg.len() == 8));
        }
    }
}
