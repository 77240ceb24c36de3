//! The traversal wire formats as the tests understand them, written out
//! here independently of the engine's own codecs (`#[path]`-included by
//! the suites that read or forge traversal traffic), with the proptest
//! strategies that forge it:
//!
//! ```text
//! EXPAND request:  flags (bit 0 = want_neighbors) | varint plen | pattern | ids
//! EXPAND reply:    flags (bit 0 = truncated) | ids matches | ids neighbors
//! EXPLORE request: flags (bit 0 = budgeted) | varint hops | varint plen
//!                  | pattern | varint start
//! EXPLORE reply:   flags (bit 0 = deadline_exceeded) | varint batches
//!                  | varint failed_batches | varint levels (≥ 1)
//!                  | levels × varint per_hop | ids matches
//! ids:     varint n | varint first | (n − 1) × varint gap, every gap ≥ 1
//! varint:  LEB128, minimal, at most 10 bytes, below 2^64
//! ```
//!
//! Nothing may follow the last field, no other flag bit may be set, and a
//! list may not run past `u64::MAX`.
#![allow(dead_code)]

use std::collections::BTreeSet;

use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub want_neighbors: bool,
    pub pattern: Vec<u8>,
    pub ids: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub truncated: bool,
    pub matches: Vec<u64>,
    pub neighbors: Vec<u64>,
}

/// An `EXPLORE` request: a whole query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub budgeted: bool,
    pub hops: u64,
    pub pattern: Vec<u8>,
    pub start: u64,
}

/// An `EXPLORE` reply: a whole result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub deadline_exceeded: bool,
    pub batches: u64,
    pub failed_batches: u64,
    pub per_hop: Vec<u64>,
    pub matches: Vec<u64>,
}

/// How one varint of a forged message is spoiled.
#[derive(Debug, Clone, Copy)]
pub enum Twist {
    /// A continuation bit and a padding zero group: same value, not minimal.
    Padded,
    /// Eleven bytes.
    TooLong,
    /// Ten bytes whose last group carries bits past the 64th.
    Overflowing,
    /// `u64::MAX − 1` in place of the value: a count nothing can back, or
    /// a gap that runs the list past `u64::MAX`.
    Huge,
}

/// Writes the format; `twist = (k, how)` spoils the k-th varint written.
#[derive(Default)]
pub struct Writer {
    pub out: Vec<u8>,
    pub twist: Option<(usize, Twist)>,
    varints: usize,
}

impl Writer {
    pub fn twisted(twist: Option<(usize, Twist)>) -> Self {
        Writer {
            twist,
            ..Writer::default()
        }
    }

    pub fn varint(&mut self, value: u64) {
        let how = match self.twist {
            Some((k, how)) if k == self.varints => Some(how),
            _ => None,
        };
        self.varints += 1;
        let mut v = if matches!(how, Some(Twist::Huge)) {
            u64::MAX - 1
        } else {
            value
        };
        match how {
            Some(Twist::TooLong) => {
                self.out.extend_from_slice(&[0x80; 10]);
                self.out.push(0);
                return;
            }
            Some(Twist::Overflowing) => {
                self.out.extend_from_slice(&[0xff; 9]);
                self.out.push(0x02);
                return;
            }
            _ => {}
        }
        loop {
            let group = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                if matches!(how, Some(Twist::Padded)) {
                    self.out.extend_from_slice(&[group | 0x80, 0]);
                } else {
                    self.out.push(group);
                }
                return;
            }
            self.out.push(group | 0x80);
        }
    }

    /// Takes any list: an unsorted or repeating one comes out as the bytes
    /// a careless encoder would produce (wrapping gaps), which the format
    /// rejects.
    fn ids(&mut self, ids: &[u64]) {
        self.varint(ids.len() as u64);
        let mut prev = 0u64;
        for &id in ids {
            self.varint(id.wrapping_sub(prev));
            prev = id;
        }
    }

    pub fn request(mut self, want_neighbors: bool, pattern: &[u8], ids: &[u64]) -> Vec<u8> {
        self.out.push(want_neighbors as u8);
        self.varint(pattern.len() as u64);
        self.out.extend_from_slice(pattern);
        self.ids(ids);
        self.out
    }

    pub fn reply(mut self, truncated: bool, matches: &[u64], neighbors: &[u64]) -> Vec<u8> {
        self.out.push(truncated as u8);
        self.ids(matches);
        self.ids(neighbors);
        self.out
    }

    pub fn query(mut self, budgeted: bool, hops: u64, pattern: &[u8], start: u64) -> Vec<u8> {
        self.out.push(budgeted as u8);
        self.varint(hops);
        self.varint(pattern.len() as u64);
        self.out.extend_from_slice(pattern);
        self.varint(start);
        self.out
    }
}

pub fn encode_request(want_neighbors: bool, pattern: &[u8], ids: &[u64]) -> Vec<u8> {
    Writer::default().request(want_neighbors, pattern, ids)
}

pub fn encode_reply(truncated: bool, matches: &[u64], neighbors: &[u64]) -> Vec<u8> {
    Writer::default().reply(truncated, matches, neighbors)
}

fn take_flag(data: &mut &[u8]) -> Option<bool> {
    let (&flags, rest) = data.split_first()?;
    *data = rest;
    match flags {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

pub fn take_varint(data: &mut &[u8]) -> Option<u64> {
    // Accumulate wide, judge at the end: length, range, minimality.
    let len = data.iter().position(|b| b & 0x80 == 0)? + 1;
    let (bytes, rest) = data.split_at(len);
    let wide = bytes
        .iter()
        .rev()
        .fold(0u128, |acc, b| (acc << 7) | u128::from(b & 0x7f));
    let minimal = len == 1 || bytes[len - 1] != 0;
    if len > 10 || wide > u128::from(u64::MAX) || !minimal {
        return None;
    }
    *data = rest;
    Some(wide as u64)
}

fn take_ids(data: &mut &[u8]) -> Option<Vec<u64>> {
    let n = take_varint(data)?;
    let mut ids: Vec<u64> = Vec::new();
    for _ in 0..n {
        let gap = take_varint(data)?;
        let id = match ids.last() {
            None => gap,
            Some(_) if gap == 0 => return None,
            Some(&prev) => prev.checked_add(gap)?,
        };
        ids.push(id);
    }
    Some(ids)
}

fn take_pattern(data: &mut &[u8]) -> Option<Vec<u8>> {
    let plen = usize::try_from(take_varint(data)?).ok()?;
    let (pattern, rest) = data.split_at_checked(plen)?;
    *data = rest;
    Some(pattern.to_vec())
}

pub fn decode_request(mut data: &[u8]) -> Option<Request> {
    let want_neighbors = take_flag(&mut data)?;
    let pattern = take_pattern(&mut data)?;
    let ids = take_ids(&mut data)?;
    data.is_empty().then_some(Request {
        want_neighbors,
        pattern,
        ids,
    })
}

pub fn decode_reply(mut data: &[u8]) -> Option<Reply> {
    let truncated = take_flag(&mut data)?;
    let matches = take_ids(&mut data)?;
    let neighbors = take_ids(&mut data)?;
    data.is_empty().then_some(Reply {
        truncated,
        matches,
        neighbors,
    })
}

pub fn decode_query(mut data: &[u8]) -> Option<Query> {
    let budgeted = take_flag(&mut data)?;
    let hops = take_varint(&mut data)?;
    let pattern = take_pattern(&mut data)?;
    let start = take_varint(&mut data)?;
    data.is_empty().then_some(Query {
        budgeted,
        hops,
        pattern,
        start,
    })
}

pub fn decode_answer(mut data: &[u8]) -> Option<Answer> {
    let deadline_exceeded = take_flag(&mut data)?;
    let batches = take_varint(&mut data)?;
    let failed_batches = take_varint(&mut data)?;
    let levels = take_varint(&mut data).filter(|&n| n > 0)?;
    let per_hop = (0..levels)
        .map(|_| take_varint(&mut data))
        .collect::<Option<Vec<u64>>>()?;
    let matches = take_ids(&mut data)?;
    data.is_empty().then_some(Answer {
        deadline_exceeded,
        batches,
        failed_batches,
        per_hop,
        matches,
    })
}

/// An optional byte flip, then an optional truncation.
pub type Damage = (Option<(u16, u8)>, Option<u16>);

fn damage() -> impl Strategy<Value = Damage> {
    (
        proptest::option::of((any::<u16>(), any::<u8>())),
        proptest::option::of(any::<u16>()),
    )
}

fn damaged(mut bytes: Vec<u8>, (flip, cut): Damage) -> Vec<u8> {
    if let (Some((at, value)), false) = (flip, bytes.is_empty()) {
        let at = at as usize % bytes.len();
        bytes[at] = value;
    }
    if let Some(cut) = cut {
        bytes.truncate(cut as usize % (bytes.len() + 1));
    }
    bytes
}

/// Arbitrary bytes, or a well-formed message that is damaged half the time.
pub fn hostile(
    well_formed: impl Strategy<Value = Vec<u8>> + 'static,
) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => proptest::collection::vec(any::<u8>(), 0..64),
        4 => (well_formed, any::<bool>(), damage())
            .prop_map(|(bytes, hurt, d)| if hurt { damaged(bytes, d) } else { bytes }),
    ]
}

/// A strictly ascending list: mostly ids below `nodes + 30`, with a tail
/// of ids nothing was ever stored under, some of them right below
/// `u64::MAX`.
pub fn some_ids(nodes: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any_id(nodes), 0..12)
        .prop_map(|ids| BTreeSet::from_iter(ids).into_iter().collect())
}

/// One id: usually below `nodes + 30`, sometimes right below `u64::MAX`.
pub fn any_id(nodes: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        8 => 0u64..(nodes + 30),
        1 => (0u64..4).prop_map(|k| u64::MAX - k),
    ]
}

/// What goes into a list slot of a forged message: usually a proper list,
/// sometimes one in arbitrary order with repeats (which the format bans).
pub fn id_list(nodes: u64) -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        6 => some_ids(nodes),
        1 => proptest::collection::vec(0u64..(nodes + 30), 2..8),
    ]
}

/// A search pattern: none, a common name fragment, or arbitrary bytes.
pub fn pattern() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => Just(Vec::new()),
        1 => Just(b"David".to_vec()),
        1 => Just(b"a".to_vec()),
        1 => proptest::collection::vec(any::<u8>(), 0..4),
    ]
}

/// Usually none; otherwise one of the message's first few varints spoiled.
pub fn twist() -> impl Strategy<Value = Option<(usize, Twist)>> {
    let how = prop_oneof![
        1 => Just(Twist::Padded),
        1 => Just(Twist::TooLong),
        1 => Just(Twist::Overflowing),
        1 => Just(Twist::Huge),
    ];
    prop_oneof![4 => Just(None), 1 => (0usize..6, how).prop_map(Some)]
}
