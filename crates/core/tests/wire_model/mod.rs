//! The EXPAND wire format as the tests understand it, written out here
//! independently of the engine's own codecs (`#[path]`-included by the
//! suites that read or forge EXPAND traffic):
//!
//! ```text
//! request: flags (bit 0 = want_neighbors) | varint plen | pattern | ids
//! reply:   flags (bit 0 = truncated) | ids matches | ids neighbors
//! ids:     varint n | varint first | (n − 1) × varint gap, every gap ≥ 1
//! varint:  LEB128, minimal, at most 10 bytes, below 2^64
//! ```
//!
//! Nothing may follow the last list, no other flag bit may be set, and a
//! list may not run past `u64::MAX`.
#![allow(dead_code)]

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

pub fn decode_request(mut data: &[u8]) -> Option<Request> {
    let want_neighbors = take_flag(&mut data)?;
    let plen = usize::try_from(take_varint(&mut data)?).ok()?;
    let (pattern, rest) = data.split_at_checked(plen)?;
    data = rest;
    let ids = take_ids(&mut data)?;
    data.is_empty().then(|| Request {
        want_neighbors,
        pattern: pattern.to_vec(),
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
