//! The BSP data frame: a *run* of records (DESIGN §14).
//!
//! ```text
//! frame:   superstep u32 LE | record…
//! record:  varint msg_len | msg | varint n | n × varint zigzag(gap)
//! gap:     id − previous id of the frame (its first: − 0), mod 2^64,
//!          read as an i64
//! ```
//!
//! One record says "this message, to these `n` vertices": a broadcast
//! crosses the wire once per destination machine, its destinations
//! gap-coded in stored adjacency order. A point send is a record with
//! `n = 1`; a `BSP_HUB` frame is the same run with hub ids in place of
//! destinations, about a byte an id. Gaps wrap, so every id sequence (any
//! order, repeats included) has exactly one encoding. [`decode`] refuses
//! a frame shorter than its superstep, a record cut short, and any varint
//! or count the byte codec refuses (DESIGN "Byte formats").

use trinity_memcloud::CellId;
use trinity_memstore::codec::{put_varint, put_zigzag, DecodeError, Reader};

/// Open a frame in an empty buffer.
pub fn start(frame: &mut Vec<u8>, superstep: u32) {
    debug_assert!(frame.is_empty(), "a run frame starts in an empty buffer");
    frame.extend_from_slice(&superstep.to_le_bytes());
}

/// Append one record to an open frame. `prev` is the frame's last id so
/// far, 0 when it opened, and is left at this record's last.
pub fn push_record(frame: &mut Vec<u8>, prev: &mut CellId, msg: &[u8], ids: &[CellId]) {
    put_varint(frame, msg.len() as u64);
    frame.extend_from_slice(msg);
    put_varint(frame, ids.len() as u64);
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

/// Decode a whole frame, or nothing.
pub fn decode(frame: &[u8]) -> Option<Run<'_>> {
    read(frame).ok()
}

fn read(frame: &[u8]) -> Result<Run<'_>, DecodeError> {
    let mut r = Reader::new(frame);
    let mut run = Run {
        superstep: r.u32()?,
        records: Vec::new(),
        ids: Vec::new(),
    };
    let mut prev = 0u64;
    while !r.is_empty() {
        let msg_len = r.varint()?;
        let msg = r.take(r.count(msg_len, 1)?)?;
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
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broadcast_record_costs_the_value_once_and_short_gaps() {
        let mut frame = Vec::new();
        start(&mut frame, 7);
        push_record(&mut frame, &mut 0, &[0xAB; 8], &[1000, 1003, 1001, 1001]);
        // 4 superstep + 1 len + 8 msg + 1 n + (2 + 1 + 1 + 1) gaps.
        assert_eq!(frame.len(), 19);
        let run = decode(&frame).unwrap();
        assert_eq!(run.superstep, 7);
        let records: Vec<_> = run.records().collect();
        assert_eq!(records, [(&[0xAB; 8][..], &[1000, 1003, 1001, 1001][..])]);
    }

    #[test]
    fn ids_at_both_ends_of_the_range_round_trip() {
        let ids = [u64::MAX, 0, u64::MAX - 1, 1 << 63, (1 << 63) - 1, 0, 0];
        let mut frame = Vec::new();
        start(&mut frame, u32::MAX);
        let mut prev = 0;
        push_record(&mut frame, &mut prev, b"", &ids);
        push_record(&mut frame, &mut prev, b"x", &[]);
        push_record(&mut frame, &mut prev, b"y", &[7]);
        let run = decode(&frame).unwrap();
        let records: Vec<_> = run.records().collect();
        let want = [
            (&b""[..], &ids[..]),
            (&b"x"[..], &[][..]),
            (&b"y"[..], &[7][..]),
        ];
        assert_eq!(records, want);
    }

    #[test]
    fn damaged_frames_are_refused_whole() {
        let mut frame = Vec::new();
        start(&mut frame, 1);
        push_record(&mut frame, &mut 0, b"abcd", &[5, 9]);
        assert!(decode(&frame).is_some());
        assert!(decode(&frame[..3]).is_none(), "shorter than the superstep");
        assert!(decode(&frame[..4]).is_some(), "an empty run is a run");
        for cut in 5..frame.len() {
            assert!(decode(&frame[..cut]).is_none(), "cut at {cut}");
        }
        let mut trailing = frame.clone();
        trailing.push(0x80);
        assert!(decode(&trailing).is_none(), "half a varint after the run");
        // A count nothing backs, and a padded varint.
        assert!(decode(&[0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03]).is_none());
        assert!(decode(&[0, 0, 0, 0, 0x80, 0x00, 0]).is_none());
    }

    #[test]
    fn a_hub_frame_costs_eleven_bytes_an_id() {
        // 8-byte messages to ascending ids: the first below 64, each less
        // than 64 above the one before, so every gap is one byte.
        for k in [1u64, 5, 300] {
            let ids: Vec<CellId> = (0..k).map(|i| 63 * i + 63).collect();
            let mut frame = Vec::new();
            let mut prev = 0;
            start(&mut frame, 2);
            for &id in &ids {
                push_record(&mut frame, &mut prev, &id.to_le_bytes(), &[id]);
            }
            assert_eq!(frame.len() as u64, 4 + 11 * k);
            let run = decode(&frame).unwrap();
            let got: Vec<CellId> = run.records().flat_map(|(_, ids)| ids.to_vec()).collect();
            assert_eq!(got, ids);
        }
    }
}
