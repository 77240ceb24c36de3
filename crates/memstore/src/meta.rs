//! Per-cell metadata: the spin lock and the cell's current offset.
//!
//! The paper associates every key-value pair with a spin lock used for two
//! purposes (§3): concurrency control between threads, and *physical memory
//! pinning* — the defragmentation daemon may move a cell, so every accessor
//! must hold the cell's lock to keep it at a fixed position while reading or
//! writing it.
//!
//! Metadata records live in a chunked slab whose entries never move once
//! allocated, so a thread may keep a raw pointer to a [`CellMeta`] while the
//! slab grows. Slots are recycled through a free list; the trunk guarantees a
//! slot is only freed while its mapping is absent from the index *and* its
//! spin lock is held by the freeing thread, so no other thread can reach a
//! recycled slot through a stale pointer.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

const UNLOCKED: u32 = 0;
const LOCKED: u32 = 1;

/// Number of metadata records per slab chunk.
const CHUNK: usize = 1024;

/// Metadata for one cell: its spin lock and its offset within the trunk.
///
/// `offset` is written by the defragmentation pass (while holding the lock)
/// and read by accessors (after acquiring the lock), so `Acquire`/`Release`
/// orderings on the lock word make the offset publication safe.
#[derive(Debug)]
pub(crate) struct CellMeta {
    lock: AtomicU32,
    offset: AtomicU32,
    /// Monotonic version stamp, bumped on every mutation of the cell.
    /// Written while holding the lock; read either under the lock (exact)
    /// or lock-free by cache bookkeeping (a consistent snapshot suffices
    /// there, since stale stamps only cause spurious refreshes).
    version: AtomicU64,
}

impl CellMeta {
    fn new() -> Self {
        CellMeta {
            lock: AtomicU32::new(UNLOCKED),
            offset: AtomicU32::new(0),
            version: AtomicU64::new(0),
        }
    }

    /// Spin until the cell lock is acquired.
    ///
    /// Cell critical sections are tiny (header reads, payload copies), so a
    /// bounded spin with `spin_loop` hints is appropriate; we yield to the OS
    /// after a burst to stay well-behaved under oversubscription.
    pub(crate) fn lock(&self) {
        let mut spins = 0u32;
        loop {
            if self
                .lock
                .compare_exchange_weak(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Try to acquire the cell lock without spinning.
    ///
    /// Used by the defragmentation pass: a held lock means the cell is
    /// *pinned* and must not be moved this pass.
    pub(crate) fn try_lock(&self) -> bool {
        self.lock
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    pub(crate) fn unlock(&self) {
        self.lock.store(UNLOCKED, Ordering::Release);
    }

    /// Current offset of the cell's header within the trunk buffer.
    /// Only meaningful while the lock is held.
    pub(crate) fn offset(&self) -> u32 {
        self.offset.load(Ordering::Acquire)
    }

    /// Record a new offset after moving the cell. Caller must hold the lock.
    pub(crate) fn set_offset(&self, off: u32) {
        self.offset.store(off, Ordering::Release);
    }

    /// The cell's current version stamp.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Record a new version stamp. Caller must hold the lock (or, for a
    /// fresh slot, be the only thread that can reach it).
    pub(crate) fn set_version(&self, v: u64) {
        self.version.store(v, Ordering::Release);
    }
}

/// Chunked slab of [`CellMeta`] records with stable addresses.
#[derive(Debug, Default)]
pub(crate) struct MetaSlab {
    chunks: Vec<Box<[CellMeta]>>,
    free: Vec<u32>,
    len: usize,
}

impl MetaSlab {
    pub(crate) fn new() -> Self {
        MetaSlab::default()
    }

    /// Allocate a slot, returning its index. The slot's lock is unlocked and
    /// its offset is set to `offset`.
    pub(crate) fn alloc(&mut self, offset: u32) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.len as u32;
                if self.len == self.chunks.len() * CHUNK {
                    self.chunks.push(Self::chunk());
                }
                self.len += 1;
                s
            }
        };
        let meta = self.get(slot);
        meta.offset.store(offset, Ordering::Release);
        slot
    }

    /// Make room for `additional` more records without adding a chunk in
    /// `alloc`.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = self.len + additional.saturating_sub(self.free.len());
        while self.chunks.len() < want.div_ceil(CHUNK) {
            self.chunks.push(Self::chunk());
        }
    }

    fn chunk() -> Box<[CellMeta]> {
        (0..CHUNK).map(|_| CellMeta::new()).collect()
    }

    /// Return a slot to the free list.
    ///
    /// # Caller contract
    /// The slot's mapping must already be removed from the trunk index and
    /// the caller must hold (and then release) the slot's spin lock, so no
    /// other thread can still be addressing it.
    pub(crate) fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Borrow the metadata record in `slot`.
    pub(crate) fn get(&self, slot: u32) -> &CellMeta {
        let slot = slot as usize;
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// Raw pointer to the record in `slot`; stable for the slab's lifetime.
    pub(crate) fn get_ptr(&self, slot: u32) -> *const CellMeta {
        self.get(slot) as *const CellMeta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_allocates_and_recycles() {
        let mut slab = MetaSlab::new();
        let a = slab.alloc(10);
        let b = slab.alloc(20);
        assert_ne!(a, b);
        assert_eq!(slab.get(a).offset(), 10);
        assert_eq!(slab.get(b).offset(), 20);
        slab.free(a);
        let c = slab.alloc(30);
        assert_eq!(c, a, "freed slot should be recycled");
        assert_eq!(slab.get(c).offset(), 30);
    }

    #[test]
    fn slab_addresses_are_stable_across_growth() {
        let mut slab = MetaSlab::new();
        let first = slab.alloc(1);
        let p = slab.get_ptr(first);
        for i in 0..10 * CHUNK as u32 {
            slab.alloc(i);
        }
        assert_eq!(p, slab.get_ptr(first));
    }

    #[test]
    fn lock_is_exclusive() {
        let slab = {
            let mut s = MetaSlab::new();
            s.alloc(0);
            s
        };
        let m = slab.get(0);
        m.lock();
        assert!(!m.try_lock());
        m.unlock();
        assert!(m.try_lock());
        m.unlock();
    }

    #[test]
    fn lock_excludes_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let slab = Arc::new({
            let mut s = MetaSlab::new();
            s.alloc(0);
            s
        });
        let counter = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let slab = Arc::clone(&slab);
            let counter = Arc::clone(&counter);
            let max_seen = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let m = slab.get(0);
                    m.lock();
                    let c = counter.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(c, Ordering::SeqCst);
                    counter.fetch_sub(1, Ordering::SeqCst);
                    m.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "lock admitted two threads"
        );
    }
}
