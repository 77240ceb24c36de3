//! Per-machine graph operations.
//!
//! A [`GraphHandle`] wraps one machine's [`CloudNode`] with graph-typed
//! operations. The key performance property (paper §5.1) is that *local*
//! node access is zero-copy: the node cell is read through a pinned trunk
//! guard and a [`NodeView`] without materializing anything; only remote
//! access copies bytes over the fabric.

use std::sync::Arc;

use trinity_memcloud::{CloudError, CloudNode};
use trinity_net::MachineId;

use crate::record::{NodeRecord, NodeView};
use crate::CellId;

/// Graph-typed operations bound to one machine.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    node: Arc<CloudNode>,
}

impl GraphHandle {
    /// Wrap a cloud node.
    pub fn new(node: Arc<CloudNode>) -> Self {
        GraphHandle { node }
    }

    /// The underlying cloud node.
    pub fn cloud(&self) -> &Arc<CloudNode> {
        &self.node
    }

    /// This handle's machine.
    pub fn machine(&self) -> MachineId {
        self.node.machine()
    }

    /// Whether `id` is hosted on this machine under the current table.
    pub fn is_local(&self, id: CellId) -> bool {
        self.node.route(id).1 == self.node.machine()
    }

    /// Warm the remote-cell read cache for an upcoming batch of node
    /// visits: one batched fetch per owner machine instead of one
    /// round-trip per cell. Local ids are ignored; failures are too —
    /// the per-cell path re-fetches anything the prefetch missed.
    pub fn prefetch(&self, ids: &[CellId]) {
        self.node.prefetch(ids);
    }

    /// Visit a node cell with a zero-copy [`NodeView`] when it is local,
    /// or a fetched copy when remote. Returns `None` if the node does not
    /// exist.
    pub fn with_node<R>(
        &self,
        id: CellId,
        f: impl FnOnce(NodeView<'_>) -> R,
    ) -> Result<Option<R>, CloudError> {
        let (trunk, owner) = self.node.route(id);
        if owner == self.node.machine() {
            // Tier-aware resolution: a spilled trunk faults back in from
            // TFS here; resident trunks pay one atomic load extra.
            let trunk = self.node.resident_trunk(trunk)?;
            let guard = trunk.get(id);
            let result = match &guard {
                Some(guard) => {
                    let view = NodeView::new(guard).map_err(|_| CloudError::BadReply)?;
                    Some(f(view))
                }
                None => None,
            };
            drop(guard);
            Ok(result)
        } else {
            match self.node.get(id)? {
                Some(bytes) => {
                    let view = NodeView::new(&bytes).map_err(|_| CloudError::BadReply)?;
                    Ok(Some(f(view)))
                }
                None => Ok(None),
            }
        }
    }

    /// Out-neighbors of a node (copied out of the view).
    pub fn out_neighbors(&self, id: CellId) -> Result<Option<Vec<CellId>>, CloudError> {
        self.with_node(id, |v| v.outs().collect())
    }

    /// In-neighbors of a node (empty if the graph does not store them).
    pub fn in_neighbors(&self, id: CellId) -> Result<Option<Vec<CellId>>, CloudError> {
        self.with_node(id, |v| v.ins().collect())
    }

    /// The node's attribute bytes.
    pub fn attrs(&self, id: CellId) -> Result<Option<Vec<u8>>, CloudError> {
        self.with_node(id, |v| v.attrs().to_vec())
    }

    /// Add a directed SimpleEdge `src -> dst` (updates `src`'s out list,
    /// and `dst`'s in list when it stores one). Rewrites the affected
    /// cells through the cloud's update path.
    pub fn add_edge(&self, src: CellId, dst: CellId) -> Result<(), CloudError> {
        let mut rec = match self.node.get(src)? {
            Some(bytes) => NodeRecord::decode(&bytes).map_err(|_| CloudError::BadReply)?,
            None => NodeRecord::default(),
        };
        rec.outs.push(dst);
        self.node.put(src, &rec.encode())?;
        if let Some(bytes) = self.node.get(dst)? {
            let mut drec = NodeRecord::decode(&bytes).map_err(|_| CloudError::BadReply)?;
            if let Some(ins) = &mut drec.ins {
                ins.push(src);
                self.node.put(dst, &drec.encode())?;
            }
        }
        Ok(())
    }

    /// Visit every node cell hosted on this machine (zero-copy views).
    /// The iteration order is unspecified. Walks the trunks this machine
    /// *owns* under the current table — spilled trunks fault in on the
    /// way (best-effort: a trunk whose fault-in fails is skipped), and
    /// trunks staged by an in-flight migration are not visited twice.
    pub fn for_each_local_node(&self, mut f: impl FnMut(CellId, NodeView<'_>)) {
        for gid in self.node.table().trunks_of(self.node.machine()) {
            let Ok(trunk) = self.node.resident_trunk(gid) else {
                continue;
            };
            trunk.for_each_cell(|id, bytes| {
                if let Ok(view) = NodeView::new(bytes) {
                    f(id, view);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud, TFS_TABLE_PATH};

    #[test]
    fn a_handle_routes_by_the_live_table() {
        let n = 60u64;
        let edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let graph = load_graph(
            Arc::clone(&cloud),
            &Csr::undirected_from_edges(n as usize, &edges, true),
            &LoadOptions::default(),
        )
        .unwrap();
        cloud.backup_all().unwrap();
        let (old, new) = (graph.handle(0), graph.handle(1));
        let mut table = cloud.node(0).table();
        let id = (0..n).find(|&id| old.is_local(id)).unwrap();
        let gid = table.trunk_of(id);
        let moved: Vec<CellId> = (0..n).filter(|&v| table.trunk_of(v) == gid).collect();
        let outs: Vec<Vec<CellId>> = moved
            .iter()
            .map(|&v| old.out_neighbors(v).unwrap().unwrap())
            .collect();
        assert!(moved.iter().all(|&v| old.is_local(v) && !new.is_local(v)));
        // Move that one trunk to machine 1 on every node.
        table.reassign_one(gid, MachineId(1));
        cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
        for m in [1, 0] {
            cloud.node(m).install_table(table.clone()).unwrap();
        }
        let sent = || {
            old.cloud()
                .endpoint()
                .obs()
                .counter("net.frames.sent")
                .get()
        };
        let before = sent();
        for (&v, want) in moved.iter().zip(&outs) {
            assert!(!old.is_local(v), "{v} still local to its old owner");
            assert!(new.is_local(v), "{v} not local to its new owner");
            // The old owner reads it through the remote path now.
            assert_eq!(old.out_neighbors(v).unwrap().as_ref(), Some(want));
            assert_eq!(new.out_neighbors(v).unwrap().as_ref(), Some(want));
        }
        assert!(sent() > before, "no remote read from the old owner");
        cloud.shutdown();
    }
}
