//! # Trinity — a distributed graph engine on a memory cloud
//!
//! A from-scratch Rust reproduction of *Trinity: A Distributed Graph
//! Engine on a Memory Cloud* (Shao, Wang, Li — SIGMOD 2013): a
//! general-purpose graph engine over a globally addressable distributed
//! key-value store, supporting low-latency online graph queries and
//! high-throughput offline analytics on the same data.
//!
//! This facade crate re-exports the full stack:
//!
//! | module | contents | paper |
//! |---|---|---|
//! | [`memstore`] | memory trunks, circular memory management, per-cell spin locks | §3, §6.1 |
//! | [`tfs`] | the replicated Trinity File System and its leader flag | §3, §6.2 |
//! | [`net`] | one-sided message passing, transparent packing, `PING` liveness reply, cost model | §2, §4.2 |
//! | [`tsl`] | the Trinity Specification Language and zero-copy cell accessors | §4.2, §4.3 |
//! | [`memcloud`] | the 2^p-trunk memory cloud and its addressing table | §3 |
//! | [`elastic`] | online trunk migration, load-driven rebalance, machine drain | §3 |
//! | [`graph`] | SimpleEdge node cells, CSR, loader (StructEdge/HyperEdge cells are declared in [`tsl`]) | §4.1 |
//! | [`core`] | cluster roles, online traversal, BSP + hub optimization, checkpoints, recovery | §2, §5, §6.2 |
//! | [`graphgen`] | R-MAT, power-law, social, LUBM-like generators | §7 |
//! | [`algos`] | PageRank, BFS, people search, subgraph match, landmarks, SPARQL | §5, §7 |
//! | [`baselines`] | Giraph-like and PBGL-like comparator engines | §7 |
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use trinity::memcloud::{CloudConfig, MemoryCloud};
//!
//! // An 4-machine memory cloud (simulated in-process; see DESIGN.md).
//! let cloud = MemoryCloud::new(CloudConfig::small(4));
//! let id = cloud.node(0).alloc_id();
//! cloud.node(0).put(id, b"hello memory cloud").unwrap();
//! assert_eq!(cloud.node(3).get(id).unwrap().unwrap(), b"hello memory cloud");
//! cloud.shutdown();
//! ```
//!
//! See `examples/` for complete applications and `DESIGN.md` for the
//! architecture and the paper-to-module map.

pub use trinity_algos as algos;
pub use trinity_baselines as baselines;
pub use trinity_chaos as chaos;
pub use trinity_core as core;
pub use trinity_elastic as elastic;
pub use trinity_graph as graph;
pub use trinity_graphgen as graphgen;
pub use trinity_memcloud as memcloud;
pub use trinity_memstore as memstore;
pub use trinity_net as net;
pub use trinity_serve as serve;
pub use trinity_tfs as tfs;
pub use trinity_tsl as tsl;
