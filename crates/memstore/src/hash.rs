//! Hash functions used across the memory cloud.
//!
//! Trinity addresses a cell in two hashing steps (paper §3, Figure 3):
//!
//! 1. the 64-bit cell id is hashed to a `p`-bit trunk index, selecting one of
//!    the `2^p` memory trunks in the cloud, and
//! 2. within a trunk, the id is hashed *again* into the trunk's own hash
//!    table to find the cell's offset and size.
//!
//! Both steps use the finalizer below. It is a `splitmix64`-style avalanche
//! mix: cheap (three shifts, two multiplies), statistically strong on
//! integer keys, and — importantly for the addressing table — deterministic
//! across machines, so every replica of the addressing table routes a given
//! id identically.
//!
//! [`IdBuildHasher`] puts the same finalizer under a `std` hash set or map
//! keyed by cell ids, in place of the default SipHash.

use std::hash::{BuildHasherDefault, Hasher};

/// Avalanche-mix a 64-bit cell id into a 64-bit hash.
///
/// This is the `splitmix64` finalizer (Steele et al.); every input bit
/// affects every output bit, which keeps both the trunk selection and the
/// in-trunk probe sequence well distributed even for sequential ids.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash a cell id to a trunk index in `[0, 2^p)`.
///
/// Uses the *high* bits of the mixed hash so that the in-trunk probe
/// sequence (which uses the low bits) stays decorrelated from trunk
/// selection.
#[inline]
pub fn trunk_of(id: u64, p: u32) -> u64 {
    debug_assert!(
        p <= 32,
        "addressing tables larger than 2^32 slots are unsupported"
    );
    if p == 0 {
        return 0;
    }
    mix64(id) >> (64 - p)
}

/// A [`Hasher`] that hashes a cell id with [`mix64`]: a `u64` key hashes to
/// `mix64(id)`. Any other input is folded in eight bytes at a time through
/// the same mix (a short tail zero-padded), so it is a correct hasher for
/// every `Hash` type, and `write(&id.to_ne_bytes())` agrees with
/// `write_u64(id)`. Not keyed: meant for ids the cloud minted, not for
/// adversarial keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of a set or map keyed by cell
/// ids: each key hashes with [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn mix_is_deterministic_and_avalanches() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Flipping one input bit should flip roughly half the output bits.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "poor avalanche: {flipped} bits"
        );
    }

    #[test]
    fn trunk_of_is_in_range() {
        for p in 0..=10 {
            for id in 0..1000u64 {
                assert!(trunk_of(id, p) < (1u64 << p).max(1));
            }
        }
    }

    #[test]
    fn trunk_of_distributes_sequential_ids() {
        // 2^4 = 16 trunks, 16k sequential ids: each trunk should get close
        // to 1k ids, certainly within 2x.
        let p = 4;
        let mut counts = [0usize; 16];
        for id in 0..16_000u64 {
            counts[trunk_of(id, p) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (500..=2000).contains(&c),
                "skewed trunk distribution: {counts:?}"
            );
        }
    }

    /// Ids with duplicates: a small range, ids under `CloudNode::alloc_id`'s
    /// machine prefix (top 16 bits), ids near `u64::MAX`, and any `u64`.
    fn ids() -> impl Strategy<Value = Vec<u64>> {
        let id = prop_oneof![
            1 => 0u64..64,
            1 => (0u64..4, 0u64..64).prop_map(|(m, n)| (m << 48) | n),
            1 => (0u64..64).prop_map(|n| u64::MAX - n),
            1 => any::<u64>(),
        ];
        proptest::collection::vec(id, 0..600)
    }

    proptest! {
        /// A set hashed by `IdHasher` answers every insert as an ordered set
        /// does, whether the id goes in as a `u64` (`write_u64`) or as its
        /// bytes (`write`), and both paths hash an id to `mix64(id)`.
        #[test]
        fn id_hasher_is_a_set_hasher_for_any_id(ids in ids()) {
            let mut want = BTreeSet::new();
            let mut words: HashSet<u64, IdBuildHasher> = HashSet::default();
            let mut bytes: HashSet<[u8; 8], IdBuildHasher> = HashSet::default();
            for id in ids {
                let fresh = want.insert(id);
                prop_assert_eq!(words.insert(id), fresh, "id {:#x}", id);
                prop_assert_eq!(bytes.insert(id.to_ne_bytes()), fresh, "bytes of {:#x}", id);
                let (mut word, mut raw) = (IdHasher::default(), IdHasher::default());
                word.write_u64(id);
                raw.write(&id.to_ne_bytes());
                prop_assert_eq!(word.finish(), mix64(id));
                prop_assert_eq!(raw.finish(), mix64(id));
            }
            prop_assert_eq!(words.len(), want.len());
            prop_assert_eq!(bytes.len(), want.len());
        }
    }
}
