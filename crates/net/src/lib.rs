//! The Trinity message passing framework.
//!
//! Trinity's network layer (paper §2, §4.2) provides "an efficient,
//! one-sided, machine-to-machine message passing infrastructure":
//!
//! * **one-sided communication** in the request-response paradigm — a
//!   machine sends a message to any other machine without any prior
//!   appointment (unlike MPI's two-sided bulk-synchronous model, which the
//!   paper calls out as ill-suited for fine-grained graph parallelism);
//! * **synchronous protocols**: [`Endpoint::call`] sends a request and
//!   blocks for the response — the paradigm TSL `protocol { Type: Syn; }`
//!   blocks compile to;
//! * **asynchronous protocols** with **transparent message packing**:
//!   [`Endpoint::send`] buffers small messages per destination and ships
//!   them in a single transfer, because "the total number of messages in
//!   the system is huge although each message may be small";
//! * **failure detection** is not here: every endpoint answers
//!   [`proto::PING`], and a call to a dead machine fails with
//!   [`NetError::Unreachable`] or times out, to its caller only. No caller
//!   reports that failure on; the one detector is the leader loop in
//!   `trinity-core`'s `recovery` module, which probes and counts misses.
//!
//! # The simulated interconnect
//!
//! The paper runs on a physical cluster; this reproduction runs every
//! machine in one process and connects them through a [`Fabric`] of
//! channels. Machines share *no* data structures — every byte crossing a
//! machine boundary goes through an [`Envelope`], is counted by
//! [`NetStats`], and is priced by the [`CostModel`], which converts
//! measured message/byte counts into *modeled network seconds* the way a
//! real NIC and switch would. Experiment harnesses report modeled cluster
//! time derived from these counters (see DESIGN.md, substitution table).
//!
//! # Example
//!
//! ```
//! use trinity_net::{Fabric, FabricConfig, MachineId};
//!
//! let fabric = Fabric::new(FabricConfig::with_machines(2));
//! let a = fabric.endpoint(MachineId(0));
//! let b = fabric.endpoint(MachineId(1));
//! // An "Echo" protocol, as in the paper's TSL example (Figure 5).
//! b.register(7, |_src, payload| Some(payload.to_vec()));
//! let reply = a.call(MachineId(1), 7, b"hello trinity").unwrap();
//! assert_eq!(reply, b"hello trinity");
//! fabric.shutdown();
//! ```

mod cost;
mod deadline;
mod endpoint;
mod envelope;
mod error;
mod fabric;
mod fault;
mod framebuf;
mod stats;

pub use cost::CostModel;
pub use deadline::{
    current_deadline, deadline_expired, deadline_now_us, remaining_us, CancelToken, DeadlineGuard,
    NO_DEADLINE,
};
pub use endpoint::Endpoint;
pub use envelope::{Envelope, Frame, FrameKind};
pub use error::NetError;
pub use fabric::{Fabric, FabricConfig};
pub use fault::{
    ChaosState, FaultKind, FaultLog, FaultPlan, FaultRecord, NodeEvent, Partition, Trigger,
};
pub use framebuf::{FrameBuf, FramePool, PackArena};
pub use stats::{NetStats, StatsDelta};

/// Identifier of a machine in the cluster (a Trinity slave, proxy, or
/// client endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u16);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Protocol identifier. Protocols declared in TSL are assigned ids by the
/// TSL compiler; ids below [`proto::FIRST_USER`] are reserved by the
/// framework.
pub type ProtoId = u16;

/// Reserved protocol ids.
///
/// The id space is carved into ranges so system layers and user protocols
/// never collide: `0..8` fabric, `8..16` memory cloud, `16..64`
/// computation runtime, `64..` TSL-declared user protocols.
pub mod proto {
    use super::ProtoId;
    /// Liveness probe: every endpoint answers it with an empty reply (the
    /// recovery leader's probe loop in `trinity-core` is the caller).
    pub const PING: ProtoId = 0;
    /// First protocol id available to the memory cloud layer.
    pub const FIRST_MEMCLOUD: ProtoId = 8;
    /// First protocol id available to the computation runtime.
    pub const FIRST_RUNTIME: ProtoId = 16;
    /// First protocol id of the elastic-membership range: the online
    /// trunk-migration frames (begin/chunk/delta/seal/apply/commit) that
    /// `trinity-elastic` drives through the memory cloud.
    pub const FIRST_ELASTIC: ProtoId = 32;
    /// First protocol id available to TSL-declared user protocols.
    pub const FIRST_USER: ProtoId = 64;
}

/// Result alias for fabric operations.
pub type Result<T> = std::result::Result<T, NetError>;
