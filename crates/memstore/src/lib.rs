//! Memory trunk storage for the Trinity memory cloud.
//!
//! This crate implements the machine-local half of Trinity's distributed
//! key-value store (SIGMOD 2013, §3 and §6.1): *memory trunks* with circular
//! memory management.
//!
//! A [`Trunk`] is a contiguous region of reserved memory into which key-value
//! pairs (*cells*) are appended sequentially. Keys are 64-bit globally unique
//! identifiers; values are blobs of arbitrary length. Each trunk carries its
//! own hash table mapping a cell id to the cell's offset and size within the
//! trunk, and each cell is protected by a spin lock used both for concurrency
//! control and for *pinning* the cell against movement by the defragmentation
//! pass.
//!
//! The allocator is the paper's circular scheme:
//!
//! * new cells are appended at the **append head**;
//! * memory is committed page-by-page as the head advances;
//! * shrinking, expanding, or removing cells leaves *gaps* (dead bytes);
//! * a **defragmentation** pass slides live cells toward the append head and
//!   releases the freed pages at the **committed tail**, so over time the
//!   heads and the tail chase each other around the trunk in an endless
//!   circular movement;
//! * cell expansion uses **short-lived memory reservations**: an expanding
//!   cell is given slack capacity so subsequent expansions are in-place, and
//!   the unused slack is reclaimed by the next defragmentation pass.
//!
//! A [`LocalStore`] groups the multiple trunks hosted by one machine
//! (the memory cloud is partitioned into `2^p` trunks with `2^p` larger than
//! the machine count, so that trunk-level parallelism needs no locking and no
//! single hash table grows too large).
//!
//! # Example
//!
//! ```
//! use trinity_memstore::{Trunk, TrunkConfig};
//!
//! let trunk = Trunk::new(0, TrunkConfig::small());
//! trunk.put(42, b"hello graph").unwrap();
//! assert_eq!(trunk.get(42).unwrap().as_ref(), b"hello graph");
//! trunk.put(42, b"hello memory cloud").unwrap();
//! assert_eq!(trunk.get(42).unwrap().len(), 18);
//! trunk.remove(42).unwrap();
//! assert!(trunk.get(42).is_none());
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod error;
mod meta;
mod snapshot;
mod stats;
mod store;
mod table;
mod trunk;

pub mod codec;
pub mod hash;

pub use error::StoreError;
pub use snapshot::{SnapshotError, TrunkSnapshot};
pub use stats::TrunkStats;
pub use store::{DefragDaemon, LocalStore, LocalStoreConfig};
pub use trunk::{CellGuard, DefragReport, Region, Trunk, TrunkConfig};

/// 64-bit globally unique cell identifier ("UID" in the paper).
pub type CellId = u64;

/// Result alias for fallible trunk operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Version stamp attached to a cell by its owning trunk. Stamps are
/// allocated from one process-wide monotone counter, so for any single
/// cell the stamp strictly increases across every mutation — including
/// across a trunk reload, which re-inserts cells and therefore restamps
/// them with fresh (higher) versions. Remote read caches compare stamps
/// to decide which of two observations of a cell is newer.
pub type CellVersion = u64;

static VERSION_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Allocate the next cell version stamp.
///
/// One counter serves every trunk in the process: cross-cell ordering is
/// incidental, but per-cell monotonicity is what the invalidation
/// protocol needs, and a global counter provides it even when a cell
/// migrates between trunks during recovery.
pub fn next_version() -> CellVersion {
    next_versions(1)
}

/// Allocate `n` consecutive stamps at once and return the first: a bulk
/// load stamps its cells in order with one counter step.
pub(crate) fn next_versions(n: u64) -> CellVersion {
    VERSION_COUNTER.fetch_add(n, std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
#[path = "../tests/codec_laws/mod.rs"]
mod codec_laws;
