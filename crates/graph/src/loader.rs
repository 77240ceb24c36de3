//! Distributed graph loading.
//!
//! [`load_graph`] partitions a [`Csr`] across the memory cloud: every node
//! id is routed by the cloud's two-step hash (so the partition is the
//! paper's random hash partition — the property §5.5's sampling paradigm
//! relies on), encoded as a packed node cell, and stored on its owner
//! machine. Loading runs on one thread per machine, writing directly to
//! each machine's local trunks — it models the paper's bulk import, which
//! is not part of any measured experiment.

use std::sync::Arc;

use trinity_memcloud::{CloudError, MemoryCloud};

use crate::csr::Csr;
use crate::handle::GraphHandle;
use crate::record::NodeRecord;
use crate::CellId;

/// Options controlling how a CSR is materialized as cells.
#[derive(Clone, Default)]
pub struct LoadOptions {
    /// Also store in-neighbor lists (directed graphs that need reverse
    /// traversal, e.g. subgraph matching).
    pub with_in_links: bool,
    /// Attribute bytes per node, produced on demand (e.g. a person's name
    /// for people search). `None` loads empty attributes.
    #[allow(clippy::type_complexity)]
    pub attrs: Option<Arc<dyn Fn(CellId) -> Vec<u8> + Send + Sync>>,
}

/// A graph resident in a memory cloud.
pub struct DistributedGraph {
    cloud: Arc<MemoryCloud>,
    handles: Vec<GraphHandle>,
    node_count: u64,
    directed: bool,
    with_in_links: bool,
}

impl std::fmt::Debug for DistributedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedGraph")
            .field("nodes", &self.node_count)
            .field("machines", &self.handles.len())
            .finish()
    }
}

impl DistributedGraph {
    /// The graph handle bound to machine `m`.
    pub fn handle(&self, m: usize) -> &GraphHandle {
        &self.handles[m]
    }

    /// All machine handles.
    pub fn handles(&self) -> &[GraphHandle] {
        &self.handles
    }

    /// The backing memory cloud.
    pub fn cloud(&self) -> &Arc<MemoryCloud> {
        &self.cloud
    }

    /// Number of nodes loaded.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Whether the loaded graph is directed.
    pub fn directed(&self) -> bool {
        self.directed
    }

    /// Whether reverse-edge traversal is possible: the graph is
    /// undirected (out-lists are symmetric) or in-link lists were stored
    /// at load time. Gates optimizations that need to find a vertex's
    /// in-neighbors, like the BSP hub records' fan-out.
    pub fn reverse_traversable(&self) -> bool {
        !self.directed || self.with_in_links
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.handles.len()
    }
}

/// Partition `graph` across `cloud`.
pub fn load_graph(
    cloud: Arc<MemoryCloud>,
    graph: &Csr,
    opts: &LoadOptions,
) -> Result<DistributedGraph, CloudError> {
    let n = graph.node_count() as u64;
    let machines = cloud.machines();
    // Precompute in-lists once if requested.
    let reverse = if opts.with_in_links && graph.directed {
        Some(graph.transpose())
    } else {
        None
    };
    let table = cloud.node(0).table();
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(machines);
        for m in 0..machines {
            let cloud = &cloud;
            let table = &table;
            let reverse = reverse.as_ref();
            joins.push(scope.spawn(move || -> Result<(), CloudError> {
                let node = cloud.node(m);
                for v in 0..n {
                    if table.machine_of(v).0 as usize != m {
                        continue;
                    }
                    let attrs = opts.attrs.as_ref().map(|f| f(v)).unwrap_or_default();
                    let ins = match (&reverse, opts.with_in_links && !graph.directed) {
                        (Some(rev), _) => Some(rev.neighbors(v).to_vec()),
                        // Undirected graphs: the out list *is* the in list;
                        // store it once, flagged absent.
                        (None, true) => None,
                        (None, false) => None,
                    };
                    let rec = NodeRecord {
                        attrs,
                        outs: graph.neighbors(v).to_vec(),
                        ins,
                    };
                    node.put(v, &rec.encode())?;
                }
                Ok(())
            }));
        }
        for j in joins {
            j.join().expect("loader thread panicked")?;
        }
        Ok::<(), CloudError>(())
    })?;
    let handles = (0..machines)
        .map(|m| GraphHandle::new(Arc::clone(cloud.node(m))))
        .collect();
    Ok(DistributedGraph {
        cloud,
        handles,
        node_count: n,
        directed: graph.directed,
        with_in_links: opts.with_in_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_memcloud::CloudConfig;

    fn ring(n: usize) -> Csr {
        let edges: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
        Csr::undirected_from_edges(n, &edges, true)
    }

    #[test]
    fn loads_and_reads_back_from_every_machine() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        let g = ring(50);
        let dg = load_graph(Arc::clone(&cloud), &g, &LoadOptions::default()).unwrap();
        assert_eq!(dg.node_count(), 50);
        for m in 0..3 {
            for v in [0u64, 13, 49] {
                let outs = dg.handle(m).out_neighbors(v).unwrap().unwrap();
                let mut expect = g.neighbors(v).to_vec();
                expect.sort_unstable();
                let mut got = outs.clone();
                got.sort_unstable();
                assert_eq!(got, expect, "node {v} from machine {m}");
            }
        }
        assert_eq!(cloud.total_cells(), 50);
        cloud.shutdown();
    }

    #[test]
    fn directed_load_with_in_links() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let g = Csr::from_arcs(4, vec![(0, 1), (0, 2), (1, 2), (3, 2)], true, true);
        let dg = load_graph(
            Arc::clone(&cloud),
            &g,
            &LoadOptions {
                with_in_links: true,
                attrs: None,
            },
        )
        .unwrap();
        let ins = dg.handle(0).in_neighbors(2).unwrap().unwrap();
        let mut ins = ins;
        ins.sort_unstable();
        assert_eq!(ins, vec![0, 1, 3]);
        assert_eq!(
            dg.handle(1).in_neighbors(0).unwrap().unwrap(),
            Vec::<u64>::new()
        );
        cloud.shutdown();
    }

    #[test]
    fn attrs_generator_is_applied() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let g = ring(10);
        let opts = LoadOptions {
            with_in_links: false,
            attrs: Some(Arc::new(|v| format!("person-{v}").into_bytes())),
        };
        let dg = load_graph(Arc::clone(&cloud), &g, &opts).unwrap();
        assert_eq!(dg.handle(1).attrs(7).unwrap().unwrap(), b"person-7");
        cloud.shutdown();
    }

    #[test]
    fn local_iteration_covers_partition_exactly() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        let dg = load_graph(Arc::clone(&cloud), &ring(60), &LoadOptions::default()).unwrap();
        let mut seen = Vec::new();
        for m in 0..3 {
            let mut local = Vec::new();
            dg.handle(m).for_each_local_node(|id, _| local.push(id));
            // Every local id really is owned by m.
            for &id in &local {
                assert!(dg.handle(m).is_local(id));
            }
            seen.extend(local);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..60u64).collect::<Vec<_>>());
        cloud.shutdown();
    }

    #[test]
    fn add_edge_updates_both_ends() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let g = Csr::from_arcs(3, vec![(0, 1)], true, true);
        let dg = load_graph(
            Arc::clone(&cloud),
            &g,
            &LoadOptions {
                with_in_links: true,
                attrs: None,
            },
        )
        .unwrap();
        dg.handle(0).add_edge(2, 0).unwrap();
        assert_eq!(dg.handle(1).out_neighbors(2).unwrap().unwrap(), vec![0]);
        assert_eq!(dg.handle(1).in_neighbors(0).unwrap().unwrap(), vec![2]);
        cloud.shutdown();
    }

    #[test]
    fn struct_and_hyper_edges_roundtrip_through_cloud() {
        use crate::record::{EdgeRecord, HyperEdgeRecord};
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let h = GraphHandle::new(Arc::clone(cloud.node(0)));
        let eid = cloud.node(0).alloc_id();
        h.create_edge(
            eid,
            &EdgeRecord {
                src: 1,
                dst: 2,
                attrs: b"likes".to_vec(),
            },
        )
        .unwrap();
        assert_eq!(h.edge(eid).unwrap().unwrap().attrs, b"likes");
        let hid = cloud.node(1).alloc_id();
        h.create_hyperedge(
            hid,
            &HyperEdgeRecord {
                members: vec![1, 2, 3],
                attrs: vec![],
            },
        )
        .unwrap();
        assert_eq!(h.hyperedge(hid).unwrap().unwrap().members, vec![1, 2, 3]);
        assert_eq!(h.edge(999_999).unwrap(), None);
        cloud.shutdown();
    }
}
