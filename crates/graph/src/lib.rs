//! Graph modeling on the Trinity memory cloud (paper §4.1).
//!
//! "To model graphs on top of a key-value store, we use a cell to
//! implement a node in a graph." A node cell carries the node's attribute
//! bytes and its adjacency:
//!
//! * **SimpleEdge** — neighbor cell ids stored directly in the node cell
//!   (one `List<long>` for undirected graphs; separate in/out lists for
//!   directed graphs);
//! * **StructEdge** — the node stores ids of *edge cells*, each an
//!   independent cell carrying rich edge data;
//! * **HyperEdge** — edge cells whose member list names many node cells,
//!   modeling hypergraphs.
//!
//! The crate provides:
//!
//! * [`NodeRecord`] / [`NodeView`] — the packed node-cell encoding and its
//!   zero-copy reader (the graph-layer specialization of the TSL cell
//!   accessor);
//! * [`EdgeRecord`] and [`HyperEdgeRecord`] for struct- and hyper-edges;
//! * [`Csr`] — compressed sparse row adjacency, the in-memory interchange
//!   format produced by the workload generators and consumed by the
//!   loader and the baseline engines;
//! * [`GraphHandle`] — per-machine graph operations over a
//!   [`trinity_memcloud::CloudNode`];
//! * [`DistributedGraph`] / [`load_graph`] — partition a CSR across the
//!   memory cloud.

pub mod csr;
pub mod external;
pub mod handle;
pub mod loader;
pub mod record;

pub use csr::Csr;
pub use external::{ExternalStore, HybridHandle, SimRdbms};
pub use handle::GraphHandle;
pub use loader::{load_graph, DistributedGraph, LoadOptions};
pub use record::{EdgeRecord, HyperEdgeRecord, NodeRecord, NodeView, RecordError};

pub use trinity_memcloud::CellId;

#[cfg(test)]
#[path = "../../memstore/tests/codec_laws/mod.rs"]
mod codec_laws;
