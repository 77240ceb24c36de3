//! The BSP run frame as the tests understand it, written out here
//! independently of the engine's codec (`trinity_core::bsp::runs`) and
//! `#[path]`-included by the suites that forge or size BSP traffic:
//!
//! ```text
//! frame:   superstep u32 LE | varint width | record…
//! record:  head | [varint gap] | delta
//! width:   the length of every msg of the frame; no more than 15 bytes
//!          more than the bytes after it, and an empty run states 0
//! head:    high nibble k, low nibble the gap when below 15, else 15 and
//!          the varint follows (never below 15)
//! delta:   msg with its first min(width, 8) bytes XORed with the hub's
//!          base, its last k bytes cut: k counts its zero bytes at the
//!          end, but stops at 15
//! base:    per hub, the first min(width, 8) bytes of its last message,
//!          padded with zeros to 8; zeros before its first
//! gap:     id − the id before it in the frame (the frame's first: − 0);
//!          hubs strictly ascend, so only the first gap may be 0, and an
//!          id never passes u64::MAX
//! varint:  LEB128, minimal, at most 10 bytes, below 2^64 — the EXPAND
//!          model's (`wire_model/`), writer twists included
//! ```
//!
//! A frame ends with its last record. The bases are the two ends' to
//! keep: an accepted frame moves them, a refused one does not.
#![allow(dead_code)]

#[path = "../wire_model/mod.rs"]
mod wire_model;

use std::collections::HashMap;

pub use wire_model::Twist;
use wire_model::{take_varint, Writer};

/// One hub record: the hub's message and the hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub msg: Vec<u8>,
    pub id: u64,
}

/// Each hub's base, by id; a hub not listed has the zero base.
pub type Bases = HashMap<u64, [u8; 8]>;

pub fn varint_len(value: u64) -> usize {
    (1..=10)
        .find(|&n| n == 10 || value >> (7 * n) == 0)
        .unwrap()
}

/// Bytes a frame of `width`-byte messages occupies before its records.
pub fn header_len(width: usize) -> usize {
    4 + varint_len(width as u64)
}

/// The base `msg` leaves.
pub fn next_base(msg: &[u8]) -> [u8; 8] {
    let mut base = [0; 8];
    for (b, m) in base.iter_mut().zip(msg) {
        *b = *m;
    }
    base
}

/// `msg` XORed with `base` over its first eight bytes: the delta before
/// its zero bytes are cut, or, given the delta, the message.
fn xored(base: &[u8; 8], msg: &[u8]) -> Vec<u8> {
    let mut out = msg.to_vec();
    for (i, b) in out.iter_mut().enumerate().take(8) {
        *b ^= base[i];
    }
    out
}

/// Zero bytes a record of `msg` against `base` cuts.
fn cut(base: &[u8; 8], msg: &[u8]) -> usize {
    let delta = xored(base, msg);
    let zeros = delta
        .iter()
        .rev()
        .position(|&b| b != 0)
        .unwrap_or(delta.len());
    zeros.min(15)
}

/// Bytes hub `id`'s record of `msg` occupies after a record that ended at
/// id `prev` (0 for a frame's first), its base in `bases`; moves `prev`
/// and the base.
pub fn hub_record_len(prev: &mut u64, bases: &mut Bases, msg: &[u8], id: u64) -> usize {
    let gap = id - std::mem::replace(prev, id);
    let base = bases.insert(id, next_base(msg)).unwrap_or_default();
    let escape = if gap < 15 { 0 } else { varint_len(gap) };
    1 + escape + msg.len() - cut(&base, msg)
}

/// The frame for `records`, its width their first message's length,
/// against `bases`, which it moves; `twist = (k, how)` spoils its k-th
/// varint. Hubs out of order write the gap mod 2^64.
pub fn forge(
    twist: Option<(usize, Twist)>,
    bases: &mut Bases,
    superstep: u32,
    records: &[Record],
) -> Vec<u8> {
    let mut w = Writer::twisted(twist);
    w.out.extend_from_slice(&superstep.to_le_bytes());
    w.varint(records.first().map_or(0, |r| r.msg.len()) as u64);
    let mut prev = 0u64;
    for r in records {
        let gap = r.id.wrapping_sub(std::mem::replace(&mut prev, r.id));
        let base = bases.insert(r.id, next_base(&r.msg)).unwrap_or_default();
        let k = cut(&base, &r.msg);
        w.out.push((k as u8) << 4 | gap.min(15) as u8);
        if gap >= 15 {
            w.varint(gap);
        }
        let delta = xored(&base, &r.msg);
        w.out.extend_from_slice(&delta[..delta.len() - k]);
    }
    w.out
}

/// `records` all have one message width and strictly ascending hubs.
pub fn encode(bases: &mut Bases, superstep: u32, records: &[Record]) -> Vec<u8> {
    assert!(records.iter().all(|r| r.msg.len() == records[0].msg.len()));
    assert!(records.windows(2).all(|w| w[0].id < w[1].id));
    forge(None, bases, superstep, records)
}

/// The frame's records rebuilt from `bases`, which move only if the
/// whole frame is accepted.
pub fn decode(frame: &[u8], bases: &mut Bases) -> Option<(u32, Vec<Record>)> {
    let superstep = u32::from_le_bytes(frame.get(..4)?.try_into().unwrap());
    let mut data = &frame[4..];
    let width = take_varint(&mut data)?;
    if width > data.len() as u64 + 15 {
        return None;
    }
    let width = width as usize;
    let mut moved = bases.clone();
    let mut records: Vec<Record> = Vec::new();
    let mut prev = 0u64;
    while !data.is_empty() {
        let (&head, rest) = data.split_first()?;
        data = rest;
        let (k, mut gap) = (usize::from(head >> 4), u64::from(head & 15));
        if gap == 15 {
            gap = take_varint(&mut data)?;
            if gap < 15 {
                return None;
            }
        }
        if gap == 0 && !records.is_empty() {
            return None;
        }
        let id = u64::try_from(u128::from(prev) + u128::from(gap)).ok()?;
        prev = id;
        let kept = width.checked_sub(k)?;
        let mut delta = data.get(..kept)?.to_vec();
        data = &data[kept..];
        if k < 15 && delta.last() == Some(&0) {
            return None;
        }
        delta.resize(width, 0);
        let msg = xored(&moved.get(&id).copied().unwrap_or_default(), &delta);
        moved.insert(id, next_base(&msg));
        records.push(Record { msg, id });
    }
    if records.is_empty() && width != 0 {
        return None;
    }
    *bases = moved;
    Some((superstep, records))
}
