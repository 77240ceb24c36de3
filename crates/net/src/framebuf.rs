//! Reference-counted frame payloads and the arena-backed frame pool.
//!
//! The paper's core bet is object access over flat blobs with zero
//! serialization (§3); this module extends that bet to the network path.
//! A [`FrameBuf`] is a `bytes`-style shared slice of an immutable chunk:
//! cloning is a refcount bump, subslicing is free, and the backing memory
//! is recycled through a [`FramePool`] when the last slice drops. The
//! [`PackArena`] packs many small payloads into one contiguous pooled
//! buffer, so an envelope of N frames costs one allocation and exactly
//! one copy per payload byte — the "one-copy contract" the
//! `net.frame_copy_bytes / net.frame_payload_bytes` ratio gates on
//! (see DESIGN.md §14).
//!
//! Ownership rules:
//!
//! * a sealed chunk is immutable — every [`FrameBuf`] over it is a read
//!   view, safe to ship across "machines" (threads) and hold in caches;
//! * the chunk returns to its pool only when the **last** slice drops, so
//!   a consumer may hold a subslice of one frame indefinitely while its
//!   neighbors from the same envelope are long gone;
//! * recycling clears length but keeps capacity (bounded by
//!   [`MAX_RECYCLED_CAPACITY`]), so steady-state packing allocates
//!   nothing.

use std::ops::{Deref, Range};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::envelope::{Frame, FrameKind};
use crate::ProtoId;

/// Spare buffers a pool retains; beyond this, dropped chunks free memory.
const MAX_SPARES: usize = 32;
/// Largest buffer capacity worth recycling — oversized one-off transfers
/// should not pin their high-water mark forever.
const MAX_RECYCLED_CAPACITY: usize = 1 << 20;
/// Default capacity for a fresh arena when the pool has no spare.
const DEFAULT_ARENA_CAPACITY: usize = 4096;

/// The immutable backing store of one or more [`FrameBuf`] slices. On
/// last drop the buffer is returned to its pool (if the pool is still
/// alive), cleared but with capacity intact.
struct Chunk {
    data: Vec<u8>,
    pool: Option<Weak<PoolInner>>,
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.as_ref().and_then(Weak::upgrade) {
            pool.recycle(std::mem::take(&mut self.data));
        }
    }
}

struct PoolInner {
    spares: Mutex<Vec<Vec<u8>>>,
}

impl PoolInner {
    fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_RECYCLED_CAPACITY {
            return;
        }
        buf.clear();
        let mut spares = self.spares.lock();
        if spares.len() < MAX_SPARES {
            spares.push(buf);
        }
    }
}

/// A bounded free-list of arena buffers. Cloning shares the pool.
#[derive(Clone)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl Default for FramePool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramePool")
            .field("spares", &self.spares())
            .finish()
    }
}

impl FramePool {
    pub fn new() -> Self {
        FramePool {
            inner: Arc::new(PoolInner {
                spares: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An empty buffer to fill: a recycled spare when one is available,
    /// fresh otherwise.
    pub fn take(&self) -> Vec<u8> {
        self.inner
            .spares
            .lock()
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(DEFAULT_ARENA_CAPACITY))
    }

    /// Seal a filled buffer into a shared slice over the whole buffer.
    /// The buffer comes back to this pool when the last slice drops.
    pub fn seal(&self, data: Vec<u8>) -> FrameBuf {
        let len = data.len();
        FrameBuf {
            chunk: Arc::new(Chunk {
                data,
                pool: Some(Arc::downgrade(&self.inner)),
            }),
            start: 0,
            len,
        }
    }

    /// Spare buffers currently parked in the pool (observability for the
    /// recycling tests).
    pub fn spares(&self) -> usize {
        self.inner.spares.lock().len()
    }
}

/// A cheaply clonable, zero-cost-sliceable view of immutable payload
/// bytes — the wire path's replacement for owned `Vec<u8>` payloads.
#[derive(Clone)]
pub struct FrameBuf {
    chunk: Arc<Chunk>,
    start: usize,
    len: usize,
}

impl FrameBuf {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        FrameBuf::from_vec(Vec::new())
    }

    /// Adopt an owned vector without copying. Not pool-backed: the memory
    /// frees normally on last drop. This is the response path — a handler
    /// builds its reply once and the wire ships that exact buffer.
    pub fn from_vec(data: Vec<u8>) -> Self {
        let len = data.len();
        FrameBuf {
            chunk: Arc::new(Chunk { data, pool: None }),
            start: 0,
            len,
        }
    }

    /// Copy `bytes` into a fresh buffer. The explicit-copy constructor:
    /// call sites pair it with the `net.frame_copy_bytes` counter.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        FrameBuf::from_vec(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.chunk.data[self.start..self.start + self.len]
    }

    /// A sub-view of this buffer (refcount bump, no copy). `range` is
    /// relative to this view.
    ///
    /// # Panics
    /// Panics when `range` exceeds the view.
    pub fn slice(&self, range: Range<usize>) -> FrameBuf {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds of FrameBuf of len {}",
            self.len
        );
        FrameBuf {
            chunk: Arc::clone(&self.chunk),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Extract the bytes as an owned vector. Zero-copy when this is the
    /// only view and it spans its whole chunk (the common case for call
    /// replies); otherwise copies.
    pub fn into_vec(self) -> Vec<u8> {
        if self.start == 0 && self.len == self.chunk.data.len() {
            match Arc::try_unwrap(self.chunk) {
                // `take` empties the chunk before its Drop runs, so a
                // pooled chunk recycles nothing (capacity 0 is skipped).
                Ok(mut chunk) => return std::mem::take(&mut chunk.data),
                Err(chunk) => return chunk.data.clone(),
            }
        }
        self.as_slice().to_vec()
    }
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(data: Vec<u8>) -> Self {
        FrameBuf::from_vec(data)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf::copy_from_slice(bytes)
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameBuf({} bytes)", self.len)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<FrameBuf> for [u8] {
    fn eq(&self, other: &FrameBuf) -> bool {
        self == other.as_slice()
    }
}

// ---------------------------------------------------------------------
// PackArena: many payloads, one buffer
// ---------------------------------------------------------------------

struct FrameMeta {
    proto: ProtoId,
    kind: FrameKind,
    start: usize,
    len: usize,
}

/// Accumulates frame payloads contiguously in one pooled buffer; sealing
/// turns the buffer into a shared chunk and the recorded spans into
/// [`Frame`]s whose payloads are zero-copy slices of it. This is the pack
/// buffer behind [`crate::Endpoint::send`]'s transparent packing: one
/// allocation and one payload copy per envelope, regardless of frame
/// count.
pub struct PackArena {
    arena: Vec<u8>,
    metas: Vec<FrameMeta>,
}

impl Default for PackArena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PackArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackArena")
            .field("frames", &self.metas.len())
            .field("payload_bytes", &self.arena.len())
            .finish()
    }
}

impl PackArena {
    pub fn new() -> Self {
        PackArena {
            arena: Vec::new(),
            metas: Vec::new(),
        }
    }

    /// Append one frame, copying `payload` into the arena (the *one*
    /// copy of the one-copy contract). Returns the bytes copied.
    pub fn push(&mut self, proto: ProtoId, kind: FrameKind, payload: &[u8]) -> usize {
        let start = self.arena.len();
        self.arena.extend_from_slice(payload);
        self.metas.push(FrameMeta {
            proto,
            kind,
            start,
            len: payload.len(),
        });
        payload.len()
    }

    /// Buffered payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.arena.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Seal the buffered payloads into frames sharing one chunk, leaving
    /// the arena ready for the next batch (refilled from `pool`). The
    /// chunk recycles into `pool` when the last consumer drops its slice.
    pub fn seal(&mut self, pool: &FramePool) -> Vec<Frame> {
        let data = std::mem::replace(&mut self.arena, pool.take());
        let sealed = pool.seal(data);
        self.metas
            .drain(..)
            .map(|m| Frame {
                proto: m.proto,
                kind: m.kind,
                payload: sealed.slice(m.start..m.start + m.len),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_clone_share_the_chunk() {
        let buf = FrameBuf::from_vec(b"hello trinity".to_vec());
        let hello = buf.slice(0..5);
        let trinity = buf.slice(6..13);
        assert_eq!(hello, b"hello");
        assert_eq!(trinity, b"trinity");
        assert_eq!(Arc::strong_count(&buf.chunk), 3);
        let c = trinity.clone();
        assert_eq!(Arc::strong_count(&buf.chunk), 4);
        drop((hello, trinity, c));
        assert_eq!(Arc::strong_count(&buf.chunk), 1);
    }

    #[test]
    fn into_vec_moves_unique_whole_chunk() {
        let v = vec![7u8; 100];
        let ptr = v.as_ptr();
        let buf = FrameBuf::from_vec(v);
        let back = buf.into_vec();
        assert_eq!(
            back.as_ptr(),
            ptr,
            "unique whole-chunk into_vec must not copy"
        );
        // A subslice, by contrast, copies.
        let buf = FrameBuf::from_vec(back);
        assert_eq!(buf.slice(1..3).into_vec(), vec![7u8; 2]);
    }

    #[test]
    fn pool_recycles_on_last_drop_only() {
        let pool = FramePool::new();
        let mut arena = PackArena::new();
        arena.push(1, FrameKind::OneWay, b"aaaa");
        arena.push(1, FrameKind::OneWay, b"bbbb");
        let frames = arena.seal(&pool);
        assert_eq!(pool.spares(), 0);
        let keep = frames[1].payload.clone();
        drop(frames);
        // One slice still alive: nothing recycled.
        assert_eq!(pool.spares(), 0);
        assert_eq!(keep, b"bbbb");
        drop(keep);
        assert_eq!(pool.spares(), 1, "last drop returns the arena to the pool");
        // The next seal reuses the spare.
        arena.push(2, FrameKind::OneWay, b"cc");
        let frames = arena.seal(&pool);
        assert_eq!(frames[0].payload, b"cc");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = FramePool::new();
        let big = vec![0u8; MAX_RECYCLED_CAPACITY + 1];
        drop(pool.seal(big));
        assert_eq!(pool.spares(), 0);
    }
}
