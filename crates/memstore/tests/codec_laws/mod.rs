//! The laws every byte format of the memory cloud keeps (DESIGN "Byte
//! formats"), written once and `#[path]`-included by each crate that owns
//! a decoder:
//!
//! 1. arbitrary and damaged bytes never panic the decoder;
//! 2. `decode(encode(x)) == x`;
//! 3. an input the decoder accepts re-encodes to itself, so every value
//!    has exactly one encoding.
//!
//! A format plugs in as a generator of values, its encoder, and its
//! decoder mapped to `Option` (`None` = refused). Damage is every cut of
//! an encoding, one flipped byte at every position, an inserted byte and
//! appended bytes, plus wholly random strings.
#![allow(dead_code)]

use std::fmt::Debug;

/// Values per format.
const CASES: u64 = 48;

/// Deterministic splitmix64, biased toward the edges values live on.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Small, near `u64::MAX`, or any.
    pub fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(300),
            1 => u64::MAX - self.below(4),
            _ => self.next(),
        }
    }

    /// Up to `max` bytes.
    pub fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max + 1))
            .map(|_| self.next() as u8)
            .collect()
    }

    /// Up to `max` items.
    pub fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| item(self)).collect()
    }
}

/// Every damaged copy of `bytes` the laws feed a decoder.
fn damaged(bytes: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for i in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[i] ^= 1 + rng.below(255) as u8;
        out.push(flipped);
    }
    let mut inserted = bytes.to_vec();
    inserted.insert(rng.below(bytes.len() as u64 + 1) as usize, rng.next() as u8);
    out.push(inserted);
    out.push([bytes, &rng.bytes(9)[..]].concat());
    out.push(rng.bytes(2 * bytes.len() as u64 + 16));
    out
}

/// Laws 1 and 2 for `CASES` values drawn by `gen`, and law 3 as well when
/// `canonical`.
pub fn check<T: PartialEq + Debug>(
    seed: u64,
    gen: impl Fn(&mut Rng) -> T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    canonical: bool,
) {
    let mut rng = Rng::new(seed);
    for _ in 0..CASES {
        let value = gen(&mut rng);
        let bytes = encode(&value);
        assert_eq!(decode(&bytes).as_ref(), Some(&value), "round trip");
        for bad in damaged(&bytes, &mut rng) {
            if let Some(accepted) = decode(&bad) {
                if canonical {
                    assert_eq!(encode(&accepted), bad, "{accepted:?} has a second encoding");
                }
            }
        }
    }
}
