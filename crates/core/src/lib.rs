//! The Trinity graph engine.
//!
//! This crate assembles the paper's system on top of the substrates:
//!
//! * [`cluster`] — the three component roles of Figure 1: *slaves* (store
//!   data, run computation), *proxies* (middle-tier aggregators that own
//!   no data), and *clients* (library handles into the cluster);
//! * [`online`] — traversal-based online query processing (§5.1): batched
//!   multi-hop exploration with per-machine fan-out, the engine under
//!   people search and subgraph matching;
//! * [`bsp`] — the vertex-centric offline runtime (§5.3) supporting both
//!   the *general* (Pregel-style, message any vertex) and *restrictive*
//!   (message a fixed set, usually neighbors) models;
//! * [`hub`] — the §5.4 coverage analysis: the share of message needs
//!   that delivering hubs' broadcasts once per machine addresses (the
//!   delivery itself is [`bsp`]'s hub records);
//! * [`residency`] — the Type A / Type B memory-residency model of
//!   Figure 10, including the paper's memory-savings formula;
//! * [`prefetch`] — the bucket-schedule trunk prefetcher that pipelines
//!   TFS fault-ins against compute when trunks are tiered out-of-core;
//! * [`checkpoint`] — BSP checkpointing to TFS and restart;
//! * [`recovery`] — leader election over the TFS flag, the cluster's one
//!   failure detector (the leader's `PING` probe loop plus reported
//!   suspicions), and addressing-table recovery.
//!
//! §6.2's buffered logging for online updates is not implemented: the
//! durable point of a cell is the last trunk image in TFS (backup or
//! spill), and a crash loses writes acknowledged after it. Neither is
//! §6.2's asynchronous (superstep-free) computation with Safra's
//! termination detection: offline work runs on [`bsp`] only.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bsp;
pub mod checkpoint;
pub mod cluster;
pub mod cputime;
pub mod hub;
pub mod minitx;
pub mod online;
pub mod prefetch;
pub mod recovery;
pub mod residency;
pub mod streaming;

pub use bsp::{
    resolve_compute_threads, BspConfig, BspResult, BspRunner, ResumePoint, SuperstepHook,
    SuperstepReport, VertexContext, VertexProgram,
};
pub use cluster::{TrinityClient, TrinityCluster, TrinityConfig, TrinityProxy};
pub use online::{explore_via, CallHook, ExplorationResult, ExploreOptions, Explorer};
pub use prefetch::BucketPrefetcher;
/// The traversal protocol ids, for tests that forge their traffic.
#[doc(hidden)]
pub use proto::{EXPAND, EXPLORE};
pub use streaming::{Mutation, MutationBatch, MutationLog, StreamingIngest, Topology};

/// Runtime protocol ids (range reserved by `trinity_net::proto`).
pub(crate) mod proto {
    use trinity_net::ProtoId;
    const BASE: ProtoId = trinity_net::proto::FIRST_RUNTIME;
    /// Online traversal: expand a batch of frontier nodes.
    pub const EXPAND: ProtoId = BASE;
    /// BSP: a run frame of vertex-message records (`bsp::runs`).
    pub const BSP_MSG: ProtoId = BASE + 1;
    /// BSP: end-of-superstep control record (run-frame counts).
    pub const BSP_FENCE: ProtoId = BASE + 2;
    /// Hub optimization: a run frame of hub broadcasts (ids name hubs).
    pub const BSP_HUB: ProtoId = BASE + 3;
    // BASE + 4 through BASE + 6 are unassigned.
    /// Recovery: leader announces a new addressing table epoch.
    pub const TABLE_BCAST: ProtoId = BASE + 7;
    /// Recovery: a machine reports a peer failure to the leader.
    pub const REPORT_FAILURE: ProtoId = BASE + 8;
    /// Online traversal: run a whole query at its start node's owner.
    pub const EXPLORE: ProtoId = BASE + 9;
    // BASE + 10 and BASE + 11 are unassigned.
    /// Mini-transactions: prepare (lock + validate + read).
    pub const MTX_PREPARE: ProtoId = BASE + 12;
    /// Mini-transactions: commit (apply writes, release locks).
    pub const MTX_COMMIT: ProtoId = BASE + 13;
    /// Mini-transactions: abort (release locks).
    pub const MTX_ABORT: ProtoId = BASE + 14;
}

#[cfg(test)]
#[path = "../../memstore/tests/codec_laws/mod.rs"]
mod codec_laws;

#[cfg(test)]
#[path = "../tests/wire_model/mod.rs"]
mod wire_model;
