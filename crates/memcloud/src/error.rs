use std::fmt;

use trinity_memstore::codec::DecodeError;
use trinity_memstore::StoreError;
use trinity_net::{MachineId, NetError};
use trinity_tfs::TfsError;

/// Errors surfaced by memory-cloud operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// Local trunk storage failed.
    Store(StoreError),
    /// The network transfer failed (destination dead, timeout, shutdown).
    Net(NetError),
    /// TFS failed while persisting or reloading a trunk.
    Tfs(TfsError),
    /// The remote machine does not own the trunk even after a table
    /// re-sync (persistent routing disagreement).
    WrongOwner { trunk: u64, asked: MachineId },
    /// The trunk migrated away from the asked machine (or its migration
    /// is in its sealed flip window). `epoch` is the table epoch the
    /// caller must reach before retrying: sync from TFS until
    /// `table.epoch >= epoch`, then re-route. The access path does this
    /// transparently within a bounded retry budget.
    Moved { trunk: u64, epoch: u64 },
    /// The query's deadline budget lapsed before the cell operation
    /// completed. Not a liveness signal — the owner is healthy — so the
    /// access path must not re-sync tables or retry.
    DeadlineExceeded { machine: MachineId },
    /// A migration peer refused a protocol frame (stale migration id,
    /// ownership mismatch, superseded attempt). The coordinator aborts
    /// the attempt; the donor keeps serving.
    Migration(String),
    /// A remote reply could not be decoded.
    BadReply,
    /// The trunk's TFS image exists but is not a well-formed trunk image.
    /// Nothing of it was loaded: the trunk stays spilled (or, on a
    /// reload, as it was) rather than serving part of its cells.
    CorruptImage { trunk: u64 },
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Store(e) => write!(f, "trunk store error: {e}"),
            CloudError::Net(e) => write!(f, "network error: {e}"),
            CloudError::Tfs(e) => write!(f, "TFS error: {e}"),
            CloudError::WrongOwner { trunk, asked } => {
                write!(
                    f,
                    "machine {asked} does not own trunk {trunk} (stale addressing tables)"
                )
            }
            CloudError::Moved { trunk, epoch } => {
                write!(
                    f,
                    "trunk {trunk} migrated away (sync tables to epoch >= {epoch} and retry)"
                )
            }
            CloudError::DeadlineExceeded { machine } => {
                write!(f, "deadline exceeded accessing machine {machine}")
            }
            CloudError::Migration(msg) => write!(f, "migration refused: {msg}"),
            CloudError::BadReply => write!(f, "malformed remote reply"),
            CloudError::CorruptImage { trunk } => {
                write!(f, "TFS image of trunk {trunk} is damaged; nothing loaded")
            }
        }
    }
}

impl std::error::Error for CloudError {}

impl From<StoreError> for CloudError {
    fn from(e: StoreError) -> Self {
        CloudError::Store(e)
    }
}

impl From<DecodeError> for CloudError {
    fn from(_: DecodeError) -> Self {
        CloudError::BadReply
    }
}

impl From<NetError> for CloudError {
    fn from(e: NetError) -> Self {
        CloudError::Net(e)
    }
}

impl From<TfsError> for CloudError {
    fn from(e: TfsError) -> Self {
        CloudError::Tfs(e)
    }
}
