//! The Trinity memory cloud (paper §3).
//!
//! The memory cloud organizes the memory of multiple machines into "a
//! globally addressable, distributed memory address space": a distributed
//! key-value store partitioned into `2^p` memory trunks, with `2^p > m` so
//! each machine hosts several trunks.
//!
//! Addressing a cell takes the paper's two hashing steps (Figure 3):
//!
//! 1. hash the 64-bit cell id to a p-bit trunk index `i`;
//! 2. look trunk `i` up in the **addressing table** — `2^p` slots, each
//!    naming the machine currently hosting that trunk — then hash again
//!    into that trunk's own hash table for the cell's offset and size.
//!
//! Every machine keeps a replica of the addressing table; the *primary*
//! replica lives on the leader and is persisted in TFS before any update
//! commits (§6.2). A machine that fails to load a data item re-syncs its
//! replica from TFS and retries — exactly the paper's staleness protocol.
//! Machines join and leave the cloud by reassigning addressing-table slots
//! and reloading the affected trunks from their TFS backups.
//!
//! # Example
//!
//! ```
//! use trinity_memcloud::{CloudConfig, MemoryCloud};
//!
//! let cloud = MemoryCloud::new(CloudConfig::small(4));
//! let node = cloud.node(0);
//! let id = node.alloc_id();
//! node.put(id, b"a cell visible from every machine").unwrap();
//! assert_eq!(
//!     cloud.node(3).get(id).unwrap().unwrap(),
//!     b"a cell visible from every machine"
//! );
//! cloud.shutdown();
//! ```

mod cache;
mod cloud;
mod error;
pub mod migration;
mod node;
mod table;
mod tiering;
mod wire;

pub use cache::CacheStats;
pub use cloud::{CloudConfig, MemoryCloud};
pub use error::CloudError;
pub use node::{trunk_backup_path, CloudNode};
pub use table::{AddressingTable, TFS_TABLE_PATH};
pub use tiering::TierStats;

pub use trinity_memstore::{CellId, CellVersion};

/// Result alias for memory-cloud operations.
pub type Result<T> = std::result::Result<T, CloudError>;

/// Memory-cloud protocol ids (range reserved by `trinity_net::proto`).
pub(crate) mod proto {
    use trinity_net::ProtoId;
    pub const GET: ProtoId = trinity_net::proto::FIRST_MEMCLOUD;
    pub const PUT: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 1;
    pub const REMOVE: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 2;
    pub const APPEND: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 3;
    pub const CONTAINS: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 4;
    /// Batched read: many cell ids in, one entry per id out.
    pub const MULTI_GET: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 5;
    /// Cache coherence: the owner tells a reader that its cached copy of
    /// a cell is stale below the carried version stamp.
    pub const INVALIDATE: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 6;
    /// Conditional write: replace a cell's payload only if its version
    /// still matches the caller's snapshot (single-cell CAS).
    pub const PUT_IF: ProtoId = trinity_net::proto::FIRST_MEMCLOUD + 7;

    // Elastic trunk-migration frames (coordinator-driven; see the
    // `migration` module). These live in the dedicated elastic range.
    /// Donor: snapshot the trunk's cell ids and arm delta capture.
    pub const MIG_BEGIN: ProtoId = trinity_net::proto::FIRST_ELASTIC;
    /// Donor: read one bounded chunk of the snapshot.
    pub const MIG_READ: ProtoId = trinity_net::proto::FIRST_ELASTIC + 1;
    /// Donor: drain captured deltas, resolved to current cell state.
    pub const MIG_DELTA: ProtoId = trinity_net::proto::FIRST_ELASTIC + 2;
    /// Donor: refuse further writes to the trunk (reads still serve).
    pub const MIG_SEAL: ProtoId = trinity_net::proto::FIRST_ELASTIC + 3;
    /// Donor: abandon the migration and resume normal service.
    pub const MIG_ABORT: ProtoId = trinity_net::proto::FIRST_ELASTIC + 4;
    /// Recipient: apply a batch of migrated entries behind a version fence.
    pub const MIG_APPLY: ProtoId = trinity_net::proto::FIRST_ELASTIC + 5;
    /// Recipient: persist the assembled trunk to TFS before the flip.
    pub const MIG_COMMIT: ProtoId = trinity_net::proto::FIRST_ELASTIC + 6;
}

#[cfg(test)]
#[path = "../../memstore/tests/codec_laws/mod.rs"]
mod codec_laws;
