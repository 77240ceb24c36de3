//! The BSP run frame as the tests understand it, written out here
//! independently of the engine's codec (`trinity_core::bsp::runs`) and
//! `#[path]`-included by the suites that forge or size BSP traffic:
//!
//! ```text
//! frame:           superstep u32 LE | varint width | record…
//! BSP_MSG record:  msg | varint n | n × varint zigzag(gap)
//! BSP_HUB record:  msg | varint zigzag(gap)
//! width:           the length of every msg of the frame; no more than the
//!                  bytes after it, so an empty run states 0
//! gap:     id − the id before it in the frame, whatever record that was
//!          in (the frame's first: − 0), mod 2^64, read as a
//!          two's-complement i64
//! zigzag:  0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
//! varint:  LEB128, minimal, at most 10 bytes, below 2^64 — the EXPAND
//!          model's (`wire_model/`), writer twists included
//! ```
//!
//! A frame ends with its last record. Whether its records are hub records
//! is the protocol's to say, not the frame's.
#![allow(dead_code)]

#[path = "../wire_model/mod.rs"]
mod wire_model;

pub use wire_model::Twist;
use wire_model::{take_varint, Writer};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub msg: Vec<u8>,
    pub ids: Vec<u64>,
}

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

/// Bytes one record occupies after a record that ended at id `prev`
/// (0 for a frame's first); leaves `prev` at this record's last id. A hub
/// record (`hub`) names one id and has no count.
pub fn record_len(prev: &mut u64, hub: bool, msg_len: usize, ids: &[u64]) -> usize {
    let gaps: usize = ids
        .iter()
        .map(|&id| varint_len(zigzag_gap(std::mem::replace(prev, id), id)))
        .sum();
    let count = if hub { 0 } else { varint_len(ids.len() as u64) };
    msg_len + count + gaps
}

/// The frame for `records`, its width their first message's length;
/// `twist = (k, how)` spoils its k-th varint.
pub fn forge(
    twist: Option<(usize, Twist)>,
    hub: bool,
    superstep: u32,
    records: &[Record],
) -> Vec<u8> {
    let mut w = Writer::twisted(twist);
    w.out.extend_from_slice(&superstep.to_le_bytes());
    w.varint(records.first().map_or(0, |r| r.msg.len()) as u64);
    let mut prev = 0;
    for r in records {
        w.out.extend_from_slice(&r.msg);
        if !hub {
            w.varint(r.ids.len() as u64);
        }
        for &id in &r.ids {
            w.varint(zigzag_gap(prev, id));
            prev = id;
        }
    }
    w.out
}

/// `records` all have one message width, and hub records one id each.
pub fn encode(hub: bool, superstep: u32, records: &[Record]) -> Vec<u8> {
    assert!(records.iter().all(|r| r.msg.len() == records[0].msg.len()));
    assert!(!hub || records.iter().all(|r| r.ids.len() == 1));
    forge(None, hub, superstep, records)
}

pub fn decode(frame: &[u8], hub: bool) -> Option<(u32, Vec<Record>)> {
    let superstep = u32::from_le_bytes(frame.get(..4)?.try_into().unwrap());
    let mut data = &frame[4..];
    let width = take_varint(&mut data)?;
    if width > data.len() as u64 {
        return None;
    }
    let mut records = Vec::new();
    let mut prev = 0i128;
    while !data.is_empty() {
        let msg = data.get(..width as usize)?;
        data = &data[width as usize..];
        let n = if hub { 1 } else { take_varint(&mut data)? };
        let mut ids = Vec::new();
        for _ in 0..n {
            let zz = take_varint(&mut data)?;
            let gap = if zz % 2 == 0 {
                i128::from(zz / 2)
            } else {
                -i128::from(zz / 2) - 1
            };
            prev = (prev + gap).rem_euclid(1 << 64);
            ids.push(prev as u64);
        }
        records.push(Record {
            msg: msg.to_vec(),
            ids,
        });
    }
    Some((superstep, records))
}
