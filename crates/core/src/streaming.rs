//! Streaming graph mutations (§2: online queries and offline analytics
//! share one continuously-changing store).
//!
//! The paper's memory cloud assumes the graph keeps changing underneath
//! both the online and the offline paths. This module is the write half
//! of that story:
//!
//! * [`Mutation`] — the four primitive graph deltas (add/remove vertex,
//!   add/remove edge) with idempotent set semantics;
//! * [`Topology`] — a single-threaded reference adjacency model: the
//!   differential oracle the store is checked against, and
//!   [`Topology::read_back`], which reads the store into one;
//! * [`StreamingIngest`] — commits batches through [`MiniTx`]
//!   mini-transactions: a consistent locked read snapshot, compare
//!   fences on every touched cell, all-or-nothing application, and the
//!   batch appended to the [`MutationLog`].
//!
//! [`MiniTx`]: crate::minitx::MiniTx

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;

use trinity_graph::NodeRecord;
use trinity_memcloud::{CellId, CloudError, MemoryCloud};
use trinity_obs::MachineScope;

use crate::minitx::{MiniTx, TxOutcome, TxService};

/// One primitive graph delta. All four are idempotent under set
/// semantics: re-applying a mutation that already took effect is a
/// no-op, which makes retries of a possibly-committed batch harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    /// Ensure the vertex exists (no edges).
    AddVertex(CellId),
    /// Remove the vertex and every edge incident to it.
    RemoveVertex(CellId),
    /// Ensure the directed edge `from → to` exists; missing endpoints
    /// are created.
    AddEdge(CellId, CellId),
    /// Remove the directed edge `from → to` if present.
    RemoveEdge(CellId, CellId),
}

/// A batch of mutations submitted for atomic commit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationBatch {
    pub mutations: Vec<Mutation>,
}

impl MutationBatch {
    pub fn new(mutations: Vec<Mutation>) -> Self {
        MutationBatch { mutations }
    }
}

/// A single-threaded adjacency model: the differential-oracle reference
/// graph. Both out- and in-lists are kept as sorted sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    nodes: BTreeMap<CellId, Links>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Links {
    outs: Vec<CellId>,
    ins: Vec<CellId>,
}

fn set_insert(list: &mut Vec<CellId>, id: CellId) {
    if let Err(at) = list.binary_search(&id) {
        list.insert(at, id);
    }
}

fn set_remove(list: &mut Vec<CellId>, id: CellId) {
    if let Ok(at) = list.binary_search(&id) {
        list.remove(at);
    }
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Vertex ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.nodes.keys().copied()
    }

    /// Sorted out-neighbors (empty for unknown vertices).
    pub fn outs(&self, id: CellId) -> &[CellId] {
        self.nodes.get(&id).map_or(&[], |l| &l.outs)
    }

    /// Insert a vertex (and its link lists) if absent.
    fn add_vertex(&mut self, id: CellId) {
        self.nodes.entry(id).or_default();
    }

    /// Remove a vertex and every incident edge.
    fn remove_vertex(&mut self, id: CellId) {
        let Some(links) = self.nodes.remove(&id) else {
            return;
        };
        for u in links.ins {
            if let Some(l) = self.nodes.get_mut(&u) {
                set_remove(&mut l.outs, id);
            }
        }
        for w in links.outs {
            if let Some(l) = self.nodes.get_mut(&w) {
                set_remove(&mut l.ins, id);
            }
        }
    }

    /// Insert the directed edge `from → to`, creating missing endpoints.
    pub fn add_edge(&mut self, from: CellId, to: CellId) {
        set_insert(&mut self.nodes.entry(from).or_default().outs, to);
        set_insert(&mut self.nodes.entry(to).or_default().ins, from);
    }

    /// Remove the directed edge `from → to` if present.
    fn remove_edge(&mut self, from: CellId, to: CellId) {
        if let Some(l) = self.nodes.get_mut(&from) {
            set_remove(&mut l.outs, to);
        }
        if let Some(l) = self.nodes.get_mut(&to) {
            set_remove(&mut l.ins, from);
        }
    }

    /// Apply one mutation (idempotent).
    pub fn apply(&mut self, m: &Mutation) {
        match *m {
            Mutation::AddVertex(v) => self.add_vertex(v),
            Mutation::RemoveVertex(v) => self.remove_vertex(v),
            Mutation::AddEdge(u, v) => self.add_edge(u, v),
            Mutation::RemoveEdge(u, v) => self.remove_edge(u, v),
        }
    }

    /// Read vertices `ids` back from the store through machine `via`,
    /// its read cache cleared first; absent cells are absent from the
    /// result. Every record must carry an in-list (the ingest keeps
    /// them), and each one must be exactly the reverse of the out-lists
    /// read: a batch half applied leaves an edge on one side only.
    pub fn read_back(
        cloud: &MemoryCloud,
        via: usize,
        ids: impl IntoIterator<Item = CellId>,
    ) -> Result<Topology, String> {
        let node = cloud.node(via);
        node.clear_cache();
        let mut store = Topology::new();
        let mut ins = BTreeMap::new();
        for v in ids {
            let bytes = match node.get(v) {
                Ok(Some(bytes)) => bytes,
                Ok(None) => continue,
                Err(e) => return Err(format!("cell {v}: read failed: {e}")),
            };
            let rec = NodeRecord::decode(&bytes)
                .map_err(|e| format!("cell {v}: undecodable record: {e}"))?;
            let mut rec_ins = rec.ins.ok_or_else(|| format!("cell {v}: no in-list"))?;
            rec_ins.sort_unstable();
            ins.insert(v, rec_ins);
            store.add_vertex(v);
            for w in rec.outs {
                store.add_edge(v, w);
            }
        }
        for (v, got) in ins {
            let reverse = &store.nodes[&v].ins;
            if &got != reverse {
                return Err(format!(
                    "vertex {v}: in-list {got:?} is not the reverse {reverse:?} of the out-lists"
                ));
            }
        }
        Ok(store)
    }
}

/// An append-only in-process log of committed batches. The differential
/// oracle replays it against a [`Topology`] to recover the graph the
/// committed batches produced.
///
/// A batch takes its place under the log's lock as it is pushed, and
/// replay applies every entry in that order. It is push order, not
/// commit order: if batch A commits, then batch B commits over a cell A
/// wrote and is pushed before A's thread pushes A, replay applies B
/// first (DESIGN §13).
#[derive(Debug, Default)]
pub struct MutationLog {
    batches: Mutex<Vec<Vec<Mutation>>>,
}

impl MutationLog {
    fn push(&self, mutations: Vec<Mutation>) {
        self.batches.lock().push(mutations);
    }

    pub fn len(&self) -> usize {
        self.batches.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.batches.lock().is_empty()
    }

    /// Replay every logged batch, in log order, onto `base` and return
    /// the resulting graph.
    pub fn replay_onto(&self, mut base: Topology) -> Topology {
        for m in self.batches.lock().iter().flatten() {
            base.apply(m);
        }
        base
    }
}

/// How a batch commit attempt ended.
#[derive(Debug)]
enum Simulated {
    /// The simulation needs a cell that was not in the read set.
    Need(CellId),
    /// Post-image of every touched cell.
    Done(BTreeMap<CellId, Option<NodeRecord>>),
}

/// The streaming write path: commits mutation batches atomically via
/// mini-transactions and logs each committed batch.
///
/// Each attempt takes a *consistent* locked read snapshot of every
/// touched cell (a read-only mini-transaction, so stale client caches
/// can never poison the fences), simulates the batch on the decoded
/// records, and then commits a second mini-transaction whose compare
/// set fences every touched cell on the exact bytes read. Any
/// interleaved writer aborts the commit and the attempt retries from a
/// fresh snapshot.
pub struct StreamingIngest {
    svc: Arc<TxService>,
    log: MutationLog,
    obs: MachineScope,
}

impl std::fmt::Debug for StreamingIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingIngest")
            .field("committed", &self.log.len())
            .finish()
    }
}

impl StreamingIngest {
    /// `home` names the machine whose metric scope accounts the stream
    /// (batches may still be committed via any machine).
    pub fn new(cloud: Arc<MemoryCloud>, svc: Arc<TxService>, home: usize) -> Self {
        let obs = cloud.node(home).endpoint().obs().clone();
        StreamingIngest {
            svc,
            log: MutationLog::default(),
            obs,
        }
    }

    /// The committed-batch log.
    pub fn log(&self) -> &MutationLog {
        &self.log
    }

    /// Commit one batch through machine `via` and log it. Returns the
    /// transport error that stopped it, if any; on `Err` the batch may
    /// or may not have committed — re-submit through another machine,
    /// the set semantics make replays no-ops and the compare fences make
    /// half-application impossible.
    pub fn commit_batch(&self, via: usize, batch: &MutationBatch) -> Result<(), CloudError> {
        let mut touched: BTreeSet<CellId> = BTreeSet::new();
        for m in &batch.mutations {
            match *m {
                Mutation::AddVertex(v) | Mutation::RemoveVertex(v) => {
                    touched.insert(v);
                }
                Mutation::AddEdge(u, v) | Mutation::RemoveEdge(u, v) => {
                    touched.insert(u);
                    touched.insert(v);
                }
            }
        }
        let max_attempts = 200;
        for attempt in 0..max_attempts {
            // Consistent snapshot of the touched set (locked reads).
            let mut read_tx = MiniTx::new();
            for &id in &touched {
                read_tx = read_tx.read(id);
            }
            let raw = match self.svc.execute(via, &read_tx)? {
                TxOutcome::Committed { reads } => reads,
                // A read-only transaction has no compare to fail: only a
                // forged or corrupt reply says otherwise.
                TxOutcome::Aborted { .. } => return Err(CloudError::BadReply),
            };
            let mut pre: BTreeMap<CellId, Option<NodeRecord>> = BTreeMap::new();
            for (&id, bytes) in &raw {
                let rec = match bytes {
                    Some(b) => Some(NodeRecord::decode(b).map_err(|_| CloudError::BadReply)?),
                    None => None,
                };
                pre.insert(id, rec);
            }
            // Simulate; grow the touched set until it is closed under
            // the batch's effects (RemoveVertex pulls in neighbors,
            // including neighbors gained earlier in the same batch).
            let post = match simulate(&pre, &batch.mutations) {
                Simulated::Need(id) => {
                    touched.insert(id);
                    continue;
                }
                Simulated::Done(post) => post,
            };
            // Commit transaction: fence every touched cell on the exact
            // bytes read; write only the cells that changed.
            let mut tx = MiniTx::new();
            for (&id, bytes) in &raw {
                tx = match bytes {
                    Some(b) => tx.compare_equals(id, b.clone()),
                    None => tx.compare_absent(id),
                };
            }
            let mut changed = false;
            for (&id, rec) in &post {
                if pre.get(&id) == Some(rec) {
                    continue;
                }
                changed = true;
                tx = match rec {
                    Some(r) => tx.write(id, r.encode()),
                    None => tx.remove(id),
                };
            }
            if changed {
                if let TxOutcome::Aborted { .. } = self.svc.execute(via, &tx)? {
                    self.obs.counter("stream.tx_aborts").inc();
                    let jitter = ((attempt as u64).wrapping_mul(0x9e3779b9) % 5) + 1;
                    std::thread::sleep(std::time::Duration::from_micros(20 * jitter));
                    continue;
                }
            }
            // Committed, or no cell changed (a lost-ack replay, or a
            // batch of no-ops): then the locked read snapshot was already
            // a linearization point, and there was nothing to commit.
            self.obs.counter("stream.batches").inc();
            self.obs
                .counter("stream.mutations")
                .add(batch.mutations.len() as u64);
            self.log.push(batch.mutations.clone());
            return Ok(());
        }
        Err(CloudError::Net(trinity_net::NetError::Timeout(
            trinity_net::MachineId(via as u16),
            crate::proto::MTX_PREPARE,
        )))
    }
}

/// Apply the batch to decoded records, with the same set semantics as
/// [`Topology::apply`]. Vertices created by the batch get an (empty)
/// in-list so streamed graphs stay reverse-traversable.
fn simulate(pre: &BTreeMap<CellId, Option<NodeRecord>>, mutations: &[Mutation]) -> Simulated {
    let mut work: BTreeMap<CellId, Option<NodeRecord>> = pre.clone();
    macro_rules! need {
        ($id:expr) => {
            match work.get_mut(&$id) {
                Some(slot) => slot,
                None => return Simulated::Need($id),
            }
        };
    }
    let fresh = || NodeRecord {
        attrs: Vec::new(),
        outs: Vec::new(),
        ins: Some(Vec::new()),
    };
    for m in mutations {
        match *m {
            Mutation::AddVertex(v) => {
                let slot = need!(v);
                if slot.is_none() {
                    *slot = Some(fresh());
                }
            }
            Mutation::RemoveVertex(v) => {
                let Some(rec) = need!(v).clone() else {
                    continue;
                };
                let ins = rec.ins.clone().unwrap_or_else(|| rec.outs.clone());
                for u in ins {
                    if u == v {
                        continue;
                    }
                    if !work.contains_key(&u) {
                        return Simulated::Need(u);
                    }
                    if let Some(Some(r)) = work.get_mut(&u) {
                        set_remove(&mut r.outs, v);
                    }
                }
                for w in rec.outs {
                    if w == v {
                        continue;
                    }
                    if !work.contains_key(&w) {
                        return Simulated::Need(w);
                    }
                    if let Some(Some(r)) = work.get_mut(&w) {
                        if let Some(ins) = r.ins.as_mut() {
                            set_remove(ins, v);
                        }
                    }
                }
                *work.get_mut(&v).unwrap() = None;
            }
            Mutation::AddEdge(u, v) => {
                {
                    let slot = need!(v);
                    if slot.is_none() {
                        *slot = Some(fresh());
                    }
                }
                {
                    let slot = need!(u);
                    if slot.is_none() {
                        *slot = Some(fresh());
                    }
                    set_insert(&mut slot.as_mut().unwrap().outs, v);
                }
                if let Some(Some(r)) = work.get_mut(&v) {
                    if let Some(ins) = r.ins.as_mut() {
                        set_insert(ins, u);
                    }
                }
            }
            Mutation::RemoveEdge(u, v) => {
                {
                    let slot = need!(u);
                    if let Some(r) = slot.as_mut() {
                        set_remove(&mut r.outs, v);
                    }
                }
                let slot = need!(v);
                if let Some(r) = slot.as_mut() {
                    if let Some(ins) = r.ins.as_mut() {
                        set_remove(ins, u);
                    }
                }
            }
        }
    }
    Simulated::Done(work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_memcloud::CloudConfig;

    fn topo_of(edges: &[(u64, u64)]) -> Topology {
        let mut t = Topology::new();
        for &(u, v) in edges {
            t.add_edge(u, v);
        }
        t
    }

    #[test]
    fn topology_set_semantics_and_vertex_removal() {
        let mut t = topo_of(&[(1, 2), (2, 3), (3, 1)]);
        t.add_edge(1, 2);
        assert_eq!(t.outs(1), &[2], "duplicate edge is a no-op");
        assert_eq!(t.nodes[&1].ins, &[3]);
        t.remove_vertex(2);
        assert!(!t.nodes.contains_key(&2));
        assert_eq!(t.outs(1), &[] as &[u64]);
        assert_eq!(t.nodes[&3].ins, &[] as &[u64]);
        let gone = t.clone();
        t.remove_vertex(2);
        assert_eq!(t, gone, "already gone");
    }

    #[test]
    fn ingest_commits_batches_and_logs_them() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        let svc = TxService::install(Arc::clone(&cloud));
        // Seed: ring of 4 with in-links.
        for v in 0u64..4 {
            let rec = NodeRecord {
                attrs: Vec::new(),
                outs: vec![(v + 1) % 4],
                ins: Some(vec![(v + 3) % 4]),
            };
            cloud.node(0).put(v, &rec.encode()).unwrap();
        }
        let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);
        ingest
            .commit_batch(1, &MutationBatch::new(vec![Mutation::AddEdge(0, 2)]))
            .unwrap();
        let rec = NodeRecord::decode(&cloud.node(2).get(0).unwrap().unwrap()).unwrap();
        assert_eq!(rec.outs, vec![1, 2]);
        let rec2 = NodeRecord::decode(&cloud.node(1).get(2).unwrap().unwrap()).unwrap();
        assert_eq!(rec2.ins, Some(vec![0, 1]));

        // RemoveVertex closes over neighbors (snapshot extension).
        ingest
            .commit_batch(2, &MutationBatch::new(vec![Mutation::RemoveVertex(2)]))
            .unwrap();
        assert_eq!(ingest.log().len(), 2);
        assert_eq!(cloud.node(0).get(2).unwrap(), None);
        let rec = NodeRecord::decode(&cloud.node(0).get(1).unwrap().unwrap()).unwrap();
        assert_eq!(rec.outs, &[] as &[u64], "1→2 stripped");
        // Replaying the log over the seed topology matches the store.
        let mut seed = Topology::new();
        for v in 0u64..4 {
            seed.add_edge(v, (v + 1) % 4);
        }
        let replayed = ingest.log().replay_onto(seed);
        assert_eq!(Topology::read_back(&cloud, 0, 0..4), Ok(replayed));
        cloud.shutdown();
    }

    #[test]
    fn idempotent_replay_of_a_batch_is_a_noop() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let svc = TxService::install(Arc::clone(&cloud));
        let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);
        let batch = MutationBatch::new(vec![
            Mutation::AddEdge(10, 11),
            Mutation::AddEdge(11, 12),
            Mutation::RemoveEdge(10, 11),
        ]);
        ingest.commit_batch(0, &batch).unwrap();
        let before: Vec<_> = (10u64..13).map(|v| cloud.node(0).get(v).unwrap()).collect();
        // A duplicate submission (lost-ack retry) commits and is logged
        // but changes nothing.
        ingest.commit_batch(1, &batch).unwrap();
        assert_eq!(ingest.log().len(), 2);
        let after: Vec<_> = (10u64..13).map(|v| cloud.node(0).get(v).unwrap()).collect();
        assert_eq!(before, after);
        cloud.shutdown();
    }

    #[test]
    fn a_batch_pushed_after_a_later_one_is_replayed() {
        // Two seals race: the batch that committed first reaches the log
        // second. Replay applies both, in log order.
        let log = MutationLog::default();
        log.push(vec![Mutation::AddEdge(3, 4)]);
        log.push(vec![Mutation::AddEdge(1, 2), Mutation::RemoveEdge(3, 4)]);
        let t = log.replay_onto(Topology::new());
        assert_eq!(t.outs(1), &[2]);
        assert_eq!(t.outs(3), &[] as &[u64]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn a_forged_compare_failure_is_an_error_not_a_panic() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let svc = TxService::install(Arc::clone(&cloud));
        let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);
        crate::minitx::forge_compare_failures(&cloud);
        let batch = MutationBatch::new(vec![Mutation::AddEdge(1, 2)]);
        assert_eq!(ingest.commit_batch(0, &batch), Err(CloudError::BadReply));
        assert!(ingest.log().is_empty());
        cloud.shutdown();
    }

    #[test]
    fn read_back_refuses_a_split_pair() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let rec = |outs: Vec<u64>, ins: Vec<u64>| {
            NodeRecord {
                attrs: Vec::new(),
                outs,
                ins: Some(ins),
            }
            .encode()
        };
        // 1 → 2 is in 1's out-list but missing from 2's in-list.
        cloud.node(0).put(1, &rec(vec![2], vec![])).unwrap();
        cloud.node(0).put(2, &rec(vec![], vec![])).unwrap();
        assert!(Topology::read_back(&cloud, 1, 0..4).is_err());
        cloud.node(0).put(2, &rec(vec![], vec![1])).unwrap();
        assert_eq!(Topology::read_back(&cloud, 1, 0..4), Ok(topo_of(&[(1, 2)])));
        cloud.shutdown();
    }
}
