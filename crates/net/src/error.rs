use crate::{MachineId, ProtoId};
use std::fmt;

/// Errors surfaced by the message passing framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination machine is known dead (or died before responding).
    /// This is the paper's detection-by-access signal: "a machine A that
    /// attempts to access a data item on machine B which is down can
    /// detect the failure of machine B" (§6.2). Only the caller sees it:
    /// nothing passes it to the recovery leader, which learns of a death
    /// from its own `PING` probes.
    Unreachable(MachineId),
    /// No response arrived within the call timeout.
    Timeout(MachineId, ProtoId),
    /// The destination has no handler registered for the protocol.
    NoHandler(ProtoId),
    /// The query's deadline budget was exhausted before (or while) the
    /// call ran: the callee refuses work the client has given up on.
    /// Unlike [`NetError::Timeout`] this is not a liveness signal — the
    /// peer is healthy — so callers must not trigger failure recovery.
    DeadlineExceeded(MachineId, ProtoId),
    /// The fabric has been shut down.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable(m) => write!(f, "machine {m} is unreachable"),
            NetError::Timeout(m, p) => write!(f, "call to {m} (protocol {p}) timed out"),
            NetError::NoHandler(p) => write!(f, "no handler registered for protocol {p}"),
            NetError::DeadlineExceeded(m, p) => {
                write!(f, "deadline exceeded calling {m} (protocol {p})")
            }
            NetError::Closed => write!(f, "fabric is shut down"),
        }
    }
}

impl std::error::Error for NetError {}
