//! The trunk-local hash table: cell id → metadata slot.
//!
//! Each memory trunk is associated with its own hash table (paper §3,
//! Figure 3): the 64-bit cell id is hashed *again* (after trunk selection)
//! to locate the cell inside the trunk. Keeping one table per trunk — rather
//! than one huge table per machine — is one of the paper's two reasons for
//! partitioning a machine's memory into multiple trunks: smaller tables have
//! fewer collisions and trunk-level parallelism needs no cross-trunk locks.
//!
//! This is a specialised open-addressing table (linear probing, power-of-two
//! capacity) for `u64 → u32` with a tombstone-free deletion scheme
//! (backward-shift deletion), tuned for the integer keys the memory cloud
//! uses.

use crate::hash::mix64;

const EMPTY: u64 = u64::MAX;

/// Open-addressing hash table mapping cell ids to metadata slots.
///
/// `u64::MAX` is reserved as the empty marker; the memory cloud never issues
/// it as a cell id (the id allocator in `trinity-memcloud` starts at 0 and
/// the high bits are partition tags well below the maximum).
#[derive(Debug)]
pub(crate) struct IdTable {
    keys: Box<[u64]>,
    vals: Box<[u32]>,
    mask: usize,
    len: usize,
}

impl IdTable {
    pub(crate) fn new() -> Self {
        IdTable::with_capacity(16)
    }

    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        IdTable {
            keys: vec![EMPTY; cap].into_boxed_slice(),
            vals: vec![0; cap].into_boxed_slice(),
            mask: cap - 1,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_for(&self, key: u64) -> usize {
        mix64(key) as usize & self.mask
    }

    /// Insert or replace; returns the previous value if the key was present.
    pub(crate) fn insert(&mut self, key: u64, val: u32) -> Option<u32> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        if (self.len + 1) * 4 >= (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.slot_for(key);
        loop {
            if self.keys[i] == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            if self.keys[i] == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.slot_for(key);
        loop {
            if self.keys[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove a key, returning its value. Uses backward-shift deletion so
    /// probe chains stay dense without tombstones.
    pub(crate) fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = self.slot_for(key);
        loop {
            if self.keys[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let val = self.vals[i];
        // Backward-shift: pull subsequent chain entries into the hole as
        // long as doing so shortens (or preserves) their probe distance.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        while self.keys[j] != EMPTY {
            let home = self.slot_for(self.keys[j]);
            // Move keys[j] into the hole iff its home slot does not sit in
            // the (cyclic) range (hole, j]; i.e. the hole is on its probe path.
            let on_path = if hole <= j {
                home <= hole || home > j
            } else {
                home <= hole && home > j
            };
            if on_path {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(val)
    }

    /// Iterate over `(key, value)` pairs in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
    }

    /// Make room for `additional` more keys without growing: the
    /// capacity inserting them one by one would end at.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let cap = (additional.saturating_add(self.len) * 4 / 3 + 1).next_power_of_two();
        if cap > self.mask + 1 {
            self.rehash(cap);
        }
    }

    fn grow(&mut self) {
        self.rehash((self.mask + 1) * 2);
    }

    fn rehash(&mut self, new_cap: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap].into_boxed_slice());
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap].into_boxed_slice());
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old_keys.iter().zip(old_vals.iter()) {
            if *k != EMPTY {
                self.insert(*k, *v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = IdTable::new();
        assert_eq!(t.insert(1, 100), None);
        assert_eq!(t.insert(2, 200), None);
        assert_eq!(t.get(1), Some(100));
        assert_eq!(t.get(2), Some(200));
        assert_eq!(t.get(3), None);
        assert_eq!(t.insert(1, 101), Some(100));
        assert_eq!(t.get(1), Some(101));
        assert_eq!(t.remove(1), Some(101));
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(1), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = IdTable::with_capacity(16);
        for i in 0..10_000u64 {
            t.insert(i, i as u32);
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(i), Some(i as u32), "lost key {i}");
        }
    }

    proptest! {
        /// The table must agree with std's HashMap under arbitrary
        /// interleavings of inserts and removes (exercises backward-shift
        /// deletion across chain boundaries).
        #[test]
        fn matches_std_hashmap(ops in proptest::collection::vec((0u64..512, any::<bool>(), any::<u32>()), 0..2000)) {
            let mut t = IdTable::new();
            let mut m: HashMap<u64, u32> = HashMap::new();
            for (key, is_insert, val) in ops {
                if is_insert {
                    prop_assert_eq!(t.insert(key, val), m.insert(key, val));
                } else {
                    prop_assert_eq!(t.remove(key), m.remove(&key));
                }
                prop_assert_eq!(t.len(), m.len());
            }
            for (k, v) in &m {
                prop_assert_eq!(t.get(*k), Some(*v));
            }
            let mut seen: Vec<_> = t.iter().collect();
            seen.sort_unstable();
            let mut expect: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
            expect.sort_unstable();
            prop_assert_eq!(seen, expect);
        }
    }
}
