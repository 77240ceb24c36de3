//! The BSP run frame as the tests understand it, written out here
//! independently of the engine's codec (`trinity_core::bsp::runs`) and
//! `#[path]`-included by the suites that forge or size BSP traffic:
//!
//! ```text
//! frame:           superstep u32 LE | varint width | record…
//! BSP_MSG record:  msg | varint n | n × varint zigzag(gap)
//! BSP_HUB record:  head | [varint zigzag(gap)] | delta
//! width:           the length of every msg of the frame; no more than the
//!                  bytes after it (a hub frame: 15 more), and an empty run
//!                  states 0
//! head:            high nibble k, low nibble zigzag(gap) when below 15,
//!                  else 15 and the varint follows (never below 15)
//! delta:           msg with its first min(width, 8) bytes XORed with the
//!                  hub's base, its last k bytes cut: k counts its zero
//!                  bytes at the end, but stops at 15
//! base:            per hub, the first min(width, 8) bytes of its last
//!                  message, padded with zeros to 8; zeros before its first
//! gap:     id − the id before it in the frame, whatever record that was
//!          in (the frame's first: − 0), mod 2^64, read as a
//!          two's-complement i64
//! zigzag:  0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
//! varint:  LEB128, minimal, at most 10 bytes, below 2^64 — the EXPAND
//!          model's (`wire_model/`), writer twists included
//! ```
//!
//! A frame ends with its last record. Whether its records are hub records
//! is the protocol's to say, not the frame's; the bases are the two ends'
//! to keep: an accepted hub frame moves them, a refused one does not.
#![allow(dead_code)]

#[path = "../wire_model/mod.rs"]
mod wire_model;

use std::collections::HashMap;

pub use wire_model::Twist;
use wire_model::{take_varint, Writer};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub msg: Vec<u8>,
    pub ids: Vec<u64>,
}

/// Each hub's base, by id; a hub not listed has the zero base.
pub type Bases = HashMap<u64, [u8; 8]>;

pub fn varint_len(value: u64) -> usize {
    (1..=10)
        .find(|&n| n == 10 || value >> (7 * n) == 0)
        .unwrap()
}

/// Zig-zag of the wrapped difference, computed wide and reduced.
pub fn zigzag_gap(prev: u64, id: u64) -> u64 {
    let diff = (i128::from(id) - i128::from(prev)).rem_euclid(1 << 64);
    // Differences of 2^63 and up stand for the negative numbers.
    if diff < 1 << 63 {
        (diff as u64) * 2
    } else {
        (((1i128 << 64) - diff) as u64 - 1) * 2 + 1
    }
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

/// Zero bytes a hub record of `msg` against `base` cuts.
fn cut(base: &[u8; 8], msg: &[u8]) -> usize {
    let delta = xored(base, msg);
    let zeros = delta
        .iter()
        .rev()
        .position(|&b| b != 0)
        .unwrap_or(delta.len());
    zeros.min(15)
}

/// Bytes one `BSP_MSG` record occupies after a record that ended at id
/// `prev` (0 for a frame's first); leaves `prev` at this record's last id.
pub fn record_len(prev: &mut u64, msg_len: usize, ids: &[u64]) -> usize {
    let gaps: usize = ids
        .iter()
        .map(|&id| varint_len(zigzag_gap(std::mem::replace(prev, id), id)))
        .sum();
    msg_len + varint_len(ids.len() as u64) + gaps
}

/// Bytes hub `id`'s record of `msg` occupies after a record that ended at
/// id `prev`, its base in `bases`; moves `prev` and the base.
pub fn hub_record_len(prev: &mut u64, bases: &mut Bases, msg: &[u8], id: u64) -> usize {
    let gap = zigzag_gap(std::mem::replace(prev, id), id);
    let base = bases.insert(id, next_base(msg)).unwrap_or_default();
    let escape = if gap < 15 { 0 } else { varint_len(gap) };
    1 + escape + msg.len() - cut(&base, msg)
}

/// The frame for `records`, its width their first message's length: hub
/// records when `hub` holds the bases, which it moves; `twist = (k, how)`
/// spoils its k-th varint.
pub fn forge(
    twist: Option<(usize, Twist)>,
    mut hub: Option<&mut Bases>,
    superstep: u32,
    records: &[Record],
) -> Vec<u8> {
    let mut w = Writer::twisted(twist);
    w.out.extend_from_slice(&superstep.to_le_bytes());
    w.varint(records.first().map_or(0, |r| r.msg.len()) as u64);
    let mut prev = 0;
    for r in records {
        let Some(bases) = hub.as_deref_mut() else {
            w.out.extend_from_slice(&r.msg);
            w.varint(r.ids.len() as u64);
            for &id in &r.ids {
                w.varint(zigzag_gap(prev, id));
                prev = id;
            }
            continue;
        };
        let id = r.ids[0];
        let gap = zigzag_gap(prev, id);
        prev = id;
        let base = bases.insert(id, next_base(&r.msg)).unwrap_or_default();
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

/// `records` all have one message width, and hub records one id each.
pub fn encode(hub: Option<&mut Bases>, superstep: u32, records: &[Record]) -> Vec<u8> {
    assert!(records.iter().all(|r| r.msg.len() == records[0].msg.len()));
    assert!(hub.is_none() || records.iter().all(|r| r.ids.len() == 1));
    forge(None, hub, superstep, records)
}

/// The frame's records, hub records rebuilt from `hub`'s bases, which
/// move only if the whole frame is accepted.
pub fn decode(frame: &[u8], hub: Option<&mut Bases>) -> Option<(u32, Vec<Record>)> {
    let superstep = u32::from_le_bytes(frame.get(..4)?.try_into().unwrap());
    let mut data = &frame[4..];
    let width = take_varint(&mut data)?;
    let slack = if hub.is_some() { 15 } else { 0 };
    if width > data.len() as u64 + slack {
        return None;
    }
    let width = width as usize;
    let mut moved = hub.as_deref().cloned();
    let mut records = Vec::new();
    let mut prev = 0i128;
    let mut step = |zz: u64| {
        let gap = if zz & 1 == 0 {
            i128::from(zz / 2)
        } else {
            -i128::from(zz / 2) - 1
        };
        prev = (prev + gap).rem_euclid(1 << 64);
        prev as u64
    };
    while !data.is_empty() {
        if let Some(bases) = moved.as_mut() {
            let (&head, rest) = data.split_first()?;
            data = rest;
            let (k, mut zz) = (usize::from(head >> 4), u64::from(head & 15));
            if zz == 15 {
                zz = take_varint(&mut data)?;
                if zz < 15 {
                    return None;
                }
            }
            let kept = width.checked_sub(k)?;
            let mut delta = data.get(..kept)?.to_vec();
            data = &data[kept..];
            if k < 15 && delta.last() == Some(&0) {
                return None;
            }
            delta.resize(width, 0);
            let id = step(zz);
            let msg = xored(&bases.get(&id).copied().unwrap_or_default(), &delta);
            bases.insert(id, next_base(&msg));
            records.push(Record { msg, ids: vec![id] });
            continue;
        }
        let msg = data.get(..width)?;
        data = &data[width..];
        let n = take_varint(&mut data)?;
        let mut ids = Vec::new();
        for _ in 0..n {
            ids.push(step(take_varint(&mut data)?));
        }
        records.push(Record {
            msg: msg.to_vec(),
            ids,
        });
    }
    if records.is_empty() && width != 0 {
        return None;
    }
    if let (Some(bases), Some(moved)) = (hub, moved) {
        *bases = moved;
    }
    Some((superstep, records))
}
