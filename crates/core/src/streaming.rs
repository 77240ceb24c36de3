//! Streaming graph mutations (§2: online queries and offline analytics
//! share one continuously-changing store).
//!
//! The paper's memory cloud assumes the graph keeps changing underneath
//! both the online and the offline paths. This module is the write half
//! of that story:
//!
//! * [`Mutation`] — the four primitive graph deltas (add/remove vertex,
//!   add/remove edge) with idempotent set semantics;
//! * [`Topology`] — a single-threaded reference adjacency model used as
//!   the differential oracle and as [`IncrementalBsp`]'s private mirror;
//! * [`DirtySet`] — the per-batch set of vertices whose *inputs* changed
//!   (exactly the in-neighborhood signature rule below), grouped by
//!   trunk for scheduling;
//! * [`StreamingIngest`] — commits batches through [`MiniTx`]
//!   mini-transactions: a consistent locked read snapshot, compare
//!   fences on every touched cell, all-or-nothing application, and a
//!   [`CommittedBatch`] record appended to the [`MutationLog`].
//!
//! # The dirty rule
//!
//! A surviving vertex `w` is **dirty** after a batch iff its
//! in-neighborhood *signature* `{(u, outdeg(u)) : u ∈ ins(w)}` changed,
//! or `w` itself was created. Pull-based gather programs
//! ([`crate::incremental::GatherProgram`]) declare their value a pure
//! function of that signature (plus the vertex's own previous value and
//! the global vertex count), so this set is exactly what incremental
//! recomputation must revisit — no more, no less. The set is computable
//! from the pre/post images of the batch's touched cells alone:
//!
//! * `u`'s out-list changed → the symmetric difference of the old and
//!   new out-lists is dirty (gained or lost an in-edge);
//! * `u`'s out-degree changed → additionally all of `u`'s old and new
//!   out-neighbors are dirty (their `(u, outdeg(u))` signature entry
//!   changed even where the edge itself survived);
//! * a vertex appeared → it is dirty; a vertex disappeared → it is
//!   dropped from the set (nothing left to recompute).
//!
//! [`IncrementalBsp`]: crate::incremental::IncrementalBsp
//! [`MiniTx`]: crate::minitx::MiniTx

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// The per-batch dirty set: vertices whose inputs changed, per the
/// module-level rule, restricted to vertices that survive the batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Surviving vertices whose in-neighborhood signature changed (or
    /// which were created by the batch).
    pub vertices: BTreeSet<CellId>,
    /// Whether the vertex *set* changed (any vertex added or removed) —
    /// vertex-count-sensitive programs must fully recompute.
    pub vertex_set_changed: bool,
    /// Whether anything was removed (an edge or a vertex) — monotone
    /// fixpoint programs can absorb additions incrementally but must
    /// fully recompute after a removal.
    pub removals: bool,
}

impl DirtySet {
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && !self.vertex_set_changed && !self.removals
    }

    pub fn contains(&self, id: CellId) -> bool {
        self.vertices.contains(&id)
    }

    /// Dirty fraction of a graph with `total` vertices.
    pub fn fraction(&self, total: usize) -> f64 {
        if total == 0 {
            if self.vertices.is_empty() {
                0.0
            } else {
                1.0
            }
        } else {
            self.vertices.len() as f64 / total as f64
        }
    }

    /// In-place union. Commutative, associative, and idempotent: the
    /// merged set of any permutation of batches is identical.
    pub fn union(&mut self, other: &DirtySet) {
        self.vertices.extend(other.vertices.iter().copied());
        self.vertex_set_changed |= other.vertex_set_changed;
        self.removals |= other.removals;
    }

    /// Out-of-place union of two dirty sets.
    pub fn merge(mut a: DirtySet, b: &DirtySet) -> DirtySet {
        a.union(b);
        a
    }
}

/// Compute a batch's dirty set from the pre/post out-lists of its
/// touched vertices. `entries` yields `(vertex, pre_outs, post_outs)`
/// for every vertex whose record the batch may have changed (`None`
/// means "does not exist"); `survives` answers whether a vertex exists
/// after the batch (vertices never touched always survive).
pub fn dirty_from_outs_diff<'a>(
    entries: impl Iterator<Item = (CellId, Option<&'a [CellId]>, Option<&'a [CellId]>)>,
    survives: impl Fn(CellId) -> bool,
) -> DirtySet {
    let mut dirty = DirtySet::default();
    for (v, pre, post) in entries {
        match (pre, post) {
            (None, None) => continue,
            (None, Some(_)) => {
                dirty.vertex_set_changed = true;
                dirty.vertices.insert(v);
            }
            (Some(_), None) => {
                dirty.vertex_set_changed = true;
                dirty.removals = true;
            }
            (Some(_), Some(_)) => {}
        }
        let pre_outs = pre.unwrap_or(&[]);
        let post_outs = post.unwrap_or(&[]);
        if pre_outs == post_outs {
            continue;
        }
        let pre_set: BTreeSet<CellId> = pre_outs.iter().copied().collect();
        let post_set: BTreeSet<CellId> = post_outs.iter().copied().collect();
        for &w in pre_set.symmetric_difference(&post_set) {
            dirty.vertices.insert(w);
        }
        if pre_set.difference(&post_set).next().is_some() {
            dirty.removals = true;
        }
        if pre_outs.len() != post_outs.len() {
            // Every surviving edge's (u, outdeg(u)) signature entry
            // changed too.
            for &w in pre_set.union(&post_set) {
                dirty.vertices.insert(w);
            }
        }
    }
    dirty.vertices.retain(|&w| survives(w));
    dirty
}

/// A single-threaded adjacency model: the differential-oracle reference
/// graph and the incremental engine's private topology mirror. Both
/// out- and in-lists are kept as sorted sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    nodes: BTreeMap<CellId, Links>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Links {
    outs: Vec<CellId>,
    ins: Vec<CellId>,
}

fn set_insert(list: &mut Vec<CellId>, id: CellId) -> bool {
    match list.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            list.insert(at, id);
            true
        }
    }
}

fn set_remove(list: &mut Vec<CellId>, id: CellId) -> bool {
    match list.binary_search(&id) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
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

    pub fn contains(&self, id: CellId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Vertex ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.nodes.keys().copied()
    }

    /// Sorted out-neighbors (empty for unknown vertices).
    pub fn outs(&self, id: CellId) -> &[CellId] {
        self.nodes.get(&id).map_or(&[], |l| &l.outs)
    }

    /// Sorted in-neighbors (empty for unknown vertices).
    pub fn ins(&self, id: CellId) -> &[CellId] {
        self.nodes.get(&id).map_or(&[], |l| &l.ins)
    }

    pub fn out_degree(&self, id: CellId) -> usize {
        self.outs(id).len()
    }

    /// Insert a vertex (and its link lists) if absent.
    pub fn add_vertex(&mut self, id: CellId) -> bool {
        match self.nodes.entry(id) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Links::default());
                true
            }
        }
    }

    /// Remove a vertex and every incident edge.
    pub fn remove_vertex(&mut self, id: CellId) -> bool {
        let Some(links) = self.nodes.remove(&id) else {
            return false;
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
        true
    }

    /// Insert the directed edge `from → to`, creating missing endpoints.
    pub fn add_edge(&mut self, from: CellId, to: CellId) -> bool {
        self.add_vertex(from);
        self.add_vertex(to);
        let a = set_insert(&mut self.nodes.get_mut(&from).unwrap().outs, to);
        let b = set_insert(&mut self.nodes.get_mut(&to).unwrap().ins, from);
        a | b
    }

    /// Remove the directed edge `from → to` if present.
    pub fn remove_edge(&mut self, from: CellId, to: CellId) -> bool {
        let mut changed = false;
        if let Some(l) = self.nodes.get_mut(&from) {
            changed |= set_remove(&mut l.outs, to);
        }
        if let Some(l) = self.nodes.get_mut(&to) {
            changed |= set_remove(&mut l.ins, from);
        }
        changed
    }

    /// Apply one mutation (idempotent). Returns whether anything changed.
    pub fn apply(&mut self, m: &Mutation) -> bool {
        match *m {
            Mutation::AddVertex(v) => self.add_vertex(v),
            Mutation::RemoveVertex(v) => self.remove_vertex(v),
            Mutation::AddEdge(u, v) => self.add_edge(u, v),
            Mutation::RemoveEdge(u, v) => self.remove_edge(u, v),
        }
    }

    /// Apply a whole batch and return its dirty set (module-level rule).
    pub fn apply_batch(&mut self, mutations: &[Mutation]) -> DirtySet {
        // Lazily snapshot the pre-image out-list of every vertex a
        // mutation is about to touch, at the moment it is first touched.
        let mut pre: BTreeMap<CellId, Option<Vec<CellId>>> = BTreeMap::new();
        let snap = |pre: &mut BTreeMap<CellId, Option<Vec<CellId>>>,
                    nodes: &BTreeMap<CellId, Links>,
                    v: CellId| {
            pre.entry(v)
                .or_insert_with(|| nodes.get(&v).map(|l| l.outs.clone()));
        };
        for m in mutations {
            match *m {
                Mutation::AddVertex(v) => snap(&mut pre, &self.nodes, v),
                Mutation::RemoveVertex(v) => {
                    snap(&mut pre, &self.nodes, v);
                    if let Some(l) = self.nodes.get(&v) {
                        for &u in l.ins.iter().chain(l.outs.iter()) {
                            snap(&mut pre, &self.nodes, u);
                        }
                    }
                }
                Mutation::AddEdge(u, v) | Mutation::RemoveEdge(u, v) => {
                    snap(&mut pre, &self.nodes, u);
                    snap(&mut pre, &self.nodes, v);
                }
            }
            self.apply(m);
        }
        let nodes = &self.nodes;
        dirty_from_outs_diff(
            pre.iter().map(|(&v, pre_outs)| {
                (
                    v,
                    pre_outs.as_deref(),
                    nodes.get(&v).map(|l| l.outs.as_slice()),
                )
            }),
            |w| nodes.contains_key(&w),
        )
    }
}

/// A batch that committed: its sequence number, contents, dirty set,
/// and commit timing — the unit the incremental engine consumes and the
/// differential oracle replays.
#[derive(Debug, Clone)]
pub struct CommittedBatch {
    /// Monotone per-ingest sequence number (1-based).
    pub seq: u64,
    pub mutations: Vec<Mutation>,
    pub dirty: DirtySet,
    /// Wall-clock cost of the commit itself (read snapshot + 2PC).
    pub commit_us: u64,
    /// When the commit was acknowledged — freshness lag is measured
    /// from here to the analytics refresh that absorbs the batch.
    pub committed_at: Instant,
}

/// An append-only in-process log of committed batches. The differential
/// oracle replays it against a [`Topology`] to recover the exact graph
/// every committed batch produced.
#[derive(Debug, Default)]
pub struct MutationLog {
    entries: Mutex<Vec<CommittedBatch>>,
}

impl MutationLog {
    pub fn new() -> Self {
        MutationLog::default()
    }

    pub fn push(&self, batch: CommittedBatch) {
        self.entries.lock().push(batch);
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Snapshot of all committed batches in commit order.
    pub fn snapshot(&self) -> Vec<CommittedBatch> {
        self.entries.lock().clone()
    }

    /// Replay every logged batch (in order, deduplicated by sequence
    /// number) onto `base` and return the resulting graph.
    pub fn replay_onto(&self, mut base: Topology) -> Topology {
        let mut last = 0u64;
        for b in self.entries.lock().iter() {
            if b.seq <= last {
                continue;
            }
            last = b.seq;
            for m in &b.mutations {
                base.apply(m);
            }
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
/// mini-transactions and emits per-batch dirty sets.
///
/// Each attempt takes a *consistent* locked read snapshot of every
/// touched cell (a read-only mini-transaction, so stale client caches
/// can never poison the fences), simulates the batch on the decoded
/// records, and then commits a second mini-transaction whose compare
/// set fences every touched cell on the exact bytes read. Any
/// interleaved writer aborts the commit and the attempt retries from a
/// fresh snapshot.
pub struct StreamingIngest {
    cloud: Arc<MemoryCloud>,
    svc: Arc<TxService>,
    log: Arc<MutationLog>,
    next_seq: AtomicU64,
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
            cloud,
            svc,
            log: Arc::new(MutationLog::new()),
            next_seq: AtomicU64::new(1),
            obs,
        }
    }

    /// The committed-batch log.
    pub fn log(&self) -> &Arc<MutationLog> {
        &self.log
    }

    /// Commit one batch through machine `via`. Returns the committed
    /// batch (with its dirty set) or the transport error that stopped
    /// it; on `Err` the batch may or may not have committed — re-submit
    /// through another machine, the set semantics make replays no-ops
    /// and the compare fences make half-application impossible.
    pub fn commit_batch(
        &self,
        via: usize,
        batch: &MutationBatch,
    ) -> Result<CommittedBatch, CloudError> {
        let start = Instant::now();
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
                TxOutcome::Aborted { .. } => unreachable!("read-only tx cannot fail a compare"),
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
            if !changed {
                // No cell changed (a lost-ack replay, or a batch of
                // no-ops): the locked read snapshot was already a
                // linearization point, so there is nothing to commit.
                return Ok(self.seal(batch, &pre, &post, start));
            }
            match self.svc.execute(via, &tx)? {
                TxOutcome::Committed { .. } => {
                    return Ok(self.seal(batch, &pre, &post, start));
                }
                TxOutcome::Aborted { .. } => {
                    self.obs.counter("stream.tx_aborts").inc();
                    let jitter = ((attempt as u64).wrapping_mul(0x9e3779b9) % 5) + 1;
                    std::thread::sleep(std::time::Duration::from_micros(20 * jitter));
                }
            }
        }
        Err(CloudError::Net(trinity_net::NetError::Timeout(
            trinity_net::MachineId(via as u16),
            crate::proto::MTX_PREPARE,
        )))
    }

    fn seal(
        &self,
        batch: &MutationBatch,
        pre: &BTreeMap<CellId, Option<NodeRecord>>,
        post: &BTreeMap<CellId, Option<NodeRecord>>,
        start: Instant,
    ) -> CommittedBatch {
        let dirty = dirty_from_outs_diff(
            pre.iter().map(|(&id, rec)| {
                (
                    id,
                    rec.as_ref().map(|r| r.outs.as_slice()),
                    post.get(&id)
                        .and_then(|r| r.as_ref())
                        .map(|r| r.outs.as_slice()),
                )
            }),
            |w| post.get(&w).is_none_or(|r| r.is_some()),
        );
        let committed = CommittedBatch {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            mutations: batch.mutations.clone(),
            dirty,
            commit_us: start.elapsed().as_micros() as u64,
            committed_at: Instant::now(),
        };
        self.obs.counter("stream.batches").inc();
        self.obs
            .counter("stream.mutations")
            .add(batch.mutations.len() as u64);
        self.obs
            .counter("stream.dirty_vertices")
            .add(committed.dirty.len() as u64);
        self.log.push(committed.clone());
        committed
    }

    /// The cloud this ingest writes into.
    pub fn cloud(&self) -> &Arc<MemoryCloud> {
        &self.cloud
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
        assert!(!t.add_edge(1, 2), "duplicate edge is a no-op");
        assert_eq!(t.outs(1), &[2]);
        assert_eq!(t.ins(1), &[3]);
        assert!(t.remove_vertex(2));
        assert!(!t.contains(2));
        assert_eq!(t.outs(1), &[] as &[u64]);
        assert_eq!(t.ins(3), &[] as &[u64]);
        assert!(!t.remove_vertex(2), "already gone");
    }

    #[test]
    fn dirty_rule_exact_cases() {
        // Removing 1→2 dirties 2 (lost an in-edge) and 3 (1's outdeg
        // changed, so its surviving out-neighbor's signature changed).
        let mut t = topo_of(&[(1, 2), (1, 3), (4, 1)]);
        let d = t.apply_batch(&[Mutation::RemoveEdge(1, 2)]);
        assert_eq!(
            d.vertices.iter().copied().collect::<Vec<_>>(),
            vec![2, 3],
            "1 itself is clean: its in-neighborhood did not change"
        );
        assert!(d.removals);
        assert!(!d.vertex_set_changed);

        // Swapping an edge at constant out-degree dirties only the two
        // endpoints of the symmetric difference.
        let mut t = topo_of(&[(1, 2), (1, 3)]);
        let d = t.apply_batch(&[Mutation::RemoveEdge(1, 2), Mutation::AddEdge(1, 4)]);
        assert_eq!(d.vertices.iter().copied().collect::<Vec<_>>(), vec![2, 4]);
        assert!(
            !d.vertices.contains(&3),
            "kept edge at constant outdeg stays clean"
        );
        assert!(d.vertex_set_changed, "vertex 4 was created");
    }

    #[test]
    fn batch_dirty_matches_sequential_union() {
        let base = topo_of(&[(1, 2), (2, 3), (3, 4), (4, 1), (2, 5)]);
        let muts = [
            Mutation::AddEdge(5, 1),
            Mutation::RemoveEdge(2, 3),
            Mutation::RemoveVertex(4),
            Mutation::AddVertex(9),
        ];
        let mut whole = base.clone();
        let d_whole = whole.apply_batch(&muts);
        // Apply the same mutations one at a time and union the dirty
        // sets: the union must cover the batch set (per-step sets can
        // transiently include vertices later removed).
        let mut steps = base.clone();
        let mut acc = DirtySet::default();
        for m in &muts {
            acc.union(&steps.apply_batch(std::slice::from_ref(m)));
        }
        acc.vertices.retain(|&v| whole.contains(v));
        assert!(acc.vertices.is_superset(&d_whole.vertices));
        assert_eq!(whole, steps, "same final graph either way");
    }

    #[test]
    fn ingest_commits_batches_and_emits_dirty_sets() {
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
        let b = ingest
            .commit_batch(1, &MutationBatch::new(vec![Mutation::AddEdge(0, 2)]))
            .unwrap();
        assert_eq!(b.seq, 1);
        // 2 gained an in-edge; 1 sees 0's outdeg change.
        assert_eq!(
            b.dirty.vertices.iter().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );
        let rec = NodeRecord::decode(&cloud.node(2).get(0).unwrap().unwrap()).unwrap();
        assert_eq!(rec.outs, vec![1, 2]);
        let rec2 = NodeRecord::decode(&cloud.node(1).get(2).unwrap().unwrap()).unwrap();
        assert_eq!(rec2.ins, Some(vec![0, 1]));

        // RemoveVertex closes over neighbors (snapshot extension).
        let b = ingest
            .commit_batch(2, &MutationBatch::new(vec![Mutation::RemoveVertex(2)]))
            .unwrap();
        assert_eq!(b.seq, 2);
        assert!(b.dirty.vertex_set_changed && b.dirty.removals);
        assert_eq!(cloud.node(0).get(2).unwrap(), None);
        let rec = NodeRecord::decode(&cloud.node(0).get(1).unwrap().unwrap()).unwrap();
        assert_eq!(rec.outs, &[] as &[u64], "1→2 stripped");
        // Replaying the log over the seed topology matches the store.
        let mut seed = Topology::new();
        for v in 0u64..4 {
            seed.add_edge(v, (v + 1) % 4);
        }
        let replayed = ingest.log().replay_onto(seed);
        let mut store_topo = Topology::new();
        for v in 0u64..4 {
            if let Some(bytes) = cloud.node(0).get(v).unwrap() {
                let rec = NodeRecord::decode(&bytes).unwrap();
                store_topo.add_vertex(v);
                for w in rec.outs {
                    store_topo.add_edge(v, w);
                }
            }
        }
        assert_eq!(replayed, store_topo);
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
        let first = ingest.commit_batch(0, &batch).unwrap();
        let before: Vec<_> = (10u64..13).map(|v| cloud.node(0).get(v).unwrap()).collect();
        // A duplicate submission (lost-ack retry) commits but changes
        // nothing and dirties nothing.
        let second = ingest.commit_batch(1, &batch).unwrap();
        assert!(second.seq > first.seq);
        assert!(second.dirty.vertices.is_empty());
        assert!(!second.dirty.vertex_set_changed);
        let after: Vec<_> = (10u64..13).map(|v| cloud.node(0).get(v).unwrap()).collect();
        assert_eq!(before, after);
        cloud.shutdown();
    }
}
