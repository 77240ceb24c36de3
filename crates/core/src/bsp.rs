//! The vertex-centric BSP runtime (paper §5.3–5.4).
//!
//! A computation is expressed as iterative supersteps; in each superstep
//! every vertex acts as an independent agent: it receives the messages
//! sent to it in the previous superstep, computes, sends messages, and may
//! vote to halt (a halted vertex is reawakened by an incoming message).
//!
//! Two models are supported, mirroring the paper's comparison:
//!
//! * the **general model** (Pregel): a vertex may message *any* vertex —
//!   use [`VertexContext::send`];
//! * the **restrictive model** (Trinity): a vertex messages a fixed set,
//!   usually its neighbors — use [`VertexContext::send_to_neighbors`].
//!   The fixed, predictable communication pattern is what enables the
//!   §5.4 optimizations.
//!
//! Optimizations (all measurable, all switchable for the ablation
//! benchmarks):
//!
//! * **transparent packing** ([`MessagingMode::Packed`]): vertex messages
//!   ride the fabric's per-destination pack buffers; `Unpacked` flushes
//!   every message as its own transfer — the naive cost the paper's
//!   packing exists to avoid;
//! * **hub buffering** ([`BspConfig::hub_threshold`]): a high-degree
//!   vertex broadcasting the same value to its neighbors sends *one*
//!   frame per remote machine per iteration; the receiving machine fans
//!   it out locally through a subscriber index built at job setup. On a
//!   power-law graph with `γ = 2.16`, buffering the top few percent of
//!   vertices covers most message deliveries (paper: 2% of hubs reach 80%
//!   of vertices);
//! * **sender-side combining** ([`BspConfig::combine`]): commutative
//!   messages to the same destination vertex are merged before leaving
//!   the machine (Pregel's combiner).
//!
//! Superstep synchronization uses message fences: after computing, each
//! machine tells every peer how many data frames it sent; a machine
//! enters the barrier only once it has received every announced frame, so
//! no message of superstep `s` can leak into superstep `s + 1`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use parking_lot::{Condvar, Mutex};

use trinity_graph::{DistributedGraph, GraphHandle};
use trinity_memcloud::CellId;
use trinity_net::{
    current_deadline, deadline_expired, DeadlineGuard, Endpoint, MachineId, StatsDelta,
};
use trinity_obs::{next_trace_id, Counter, Histogram, TraceGuard};

use crate::proto;

/// How vertex messages travel between machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessagingMode {
    /// Small messages are transparently packed per destination (§4.2).
    Packed,
    /// Every message is its own transfer — the naive baseline.
    Unpacked,
}

/// Per-machine callback fired at the start of every superstep, by the
/// machine's pool leader, before any worker computes that superstep (a
/// pool barrier orders the hook against the compute phase). The bucket
/// prefetcher (`trinity-core::prefetch`) implements this to fault the
/// scheduled bucket's trunks in and kick off a background load of the
/// next bucket's — compute of bucket `i` overlaps the I/O of `i + 1`.
pub trait SuperstepHook: Send + Sync {
    /// `superstep` is absolute (resume offsets included).
    fn superstep_start(&self, machine: usize, superstep: usize);
}

/// BSP job configuration.
#[derive(Clone)]
pub struct BspConfig {
    pub messaging: MessagingMode,
    /// Out-degree at or above which a broadcasting vertex is treated as a
    /// hub (None disables hub buffering).
    pub hub_threshold: Option<usize>,
    /// Merge combinable messages sender-side.
    pub combine: bool,
    /// Hard superstep limit.
    pub max_supersteps: usize,
    /// Compute workers per simulated machine. `0` means trunk-aligned:
    /// one worker per trunk the machine hosts (the paper's §3 layout —
    /// trunks exist precisely so threads can work without contention),
    /// capped by the host's available parallelism so the simulation does
    /// not oversubscribe itself by default. Results are identical for
    /// every value; see `tests/bsp_determinism.rs`.
    pub compute_threads: usize,
    /// Start-of-superstep callback, run once per machine per superstep
    /// (None = no callback, no extra barrier). See [`SuperstepHook`].
    pub superstep_hook: Option<Arc<dyn SuperstepHook>>,
}

impl std::fmt::Debug for BspConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BspConfig")
            .field("messaging", &self.messaging)
            .field("hub_threshold", &self.hub_threshold)
            .field("combine", &self.combine)
            .field("max_supersteps", &self.max_supersteps)
            .field("compute_threads", &self.compute_threads)
            .field("superstep_hook", &self.superstep_hook.is_some())
            .finish()
    }
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            messaging: MessagingMode::Packed,
            hub_threshold: Some(128),
            combine: false,
            max_supersteps: 64,
            compute_threads: 0,
            superstep_hook: None,
        }
    }
}

/// Resolve a requested per-machine worker count: `0` means trunk-aligned
/// (one worker per hosted trunk), capped by the host's parallelism.
pub fn resolve_compute_threads(requested: usize, trunks_hosted: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        trunks_hosted.clamp(1, host)
    }
}

/// A vertex-centric program.
pub trait VertexProgram: Send + Sync + 'static {
    /// Per-vertex state carried across supersteps.
    type State: Send + 'static;
    /// The message type.
    type Msg: Send + Clone + 'static;

    /// Initialize a vertex's state before superstep 0, with zero-copy
    /// access to the vertex's cell (adjacency, attributes).
    fn init(&self, id: CellId, view: &trinity_graph::NodeView<'_>) -> Self::State;

    /// One superstep for one vertex.
    fn compute(
        &self,
        ctx: &mut VertexContext<'_, Self::Msg>,
        id: CellId,
        state: &mut Self::State,
        msgs: &[Self::Msg],
    );

    /// Serialize a message.
    fn encode_msg(msg: &Self::Msg) -> Vec<u8>;
    /// Deserialize a message.
    fn decode_msg(bytes: &[u8]) -> Option<Self::Msg>;

    /// Serialize a vertex state (checkpointing, paper §6.2).
    fn encode_state(state: &Self::State) -> Vec<u8>;
    /// Deserialize a vertex state.
    fn decode_state(bytes: &[u8]) -> Option<Self::State>;

    /// Merge `b` into `a` when messages to the same vertex are combinable
    /// (return false to keep them separate). Default: not combinable.
    fn combine(_a: &mut Self::Msg, _b: &Self::Msg) -> bool {
        false
    }

    /// Canonical ordering for messages bound to the same vertex. The
    /// driver stably sorts each vertex's inbox with this before `compute`,
    /// so the `msgs` slice a vertex sees does not depend on arrival
    /// interleaving or on how many workers produced the messages. The
    /// default keeps arrival order (fine for order-insensitive programs
    /// like max-propagation); programs that fold non-associative values
    /// (e.g. `f64` sums) should supply a total order to make results
    /// bit-identical across `compute_threads` settings and runs.
    fn msg_cmp(_a: &Self::Msg, _b: &Self::Msg) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// Per-vertex compute context. Borrows the worker's reusable scratch
/// buffers (adjacency and send list) so the per-vertex hot loop performs
/// no allocations of its own.
pub struct VertexContext<'a, M> {
    superstep: usize,
    outs: &'a [CellId],
    sends: &'a mut Vec<(CellId, M)>,
    broadcast: Option<M>,
    halt: bool,
}

impl<'a, M> VertexContext<'a, M> {
    /// Current superstep (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// The vertex's out-neighbors.
    pub fn out_neighbors(&self) -> &'a [CellId] {
        self.outs
    }

    /// General model: message any vertex.
    pub fn send(&mut self, dst: CellId, msg: M) {
        self.sends.push((dst, msg));
    }

    /// Restrictive model: send the same message to every out-neighbor.
    /// Eligible for hub buffering.
    pub fn send_to_neighbors(&mut self, msg: M) {
        self.broadcast = Some(msg);
    }

    /// Halt until reawakened by a message.
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }
}

/// Outcome of a BSP run (or one checkpointed segment of a run).
pub struct BspResult<P: VertexProgram> {
    /// Final state of every vertex.
    pub states: HashMap<CellId, P::State>,
    /// Per-superstep measurements.
    pub reports: Vec<SuperstepReport>,
    /// True if the job reached quiescence (all halted, no messages);
    /// false if it stopped at the superstep limit.
    pub terminated: bool,
    /// Messages pending for the next superstep (empty when terminated).
    pub pending: HashMap<CellId, Vec<P::Msg>>,
    /// Vertices still active (empty when terminated).
    pub active: std::collections::HashSet<CellId>,
}

impl<P: VertexProgram> BspResult<P> {
    /// Number of supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.reports.len()
    }

    /// Total modeled cluster seconds (compute + network + barriers).
    pub fn modeled_seconds(&self) -> f64 {
        self.reports.iter().map(|r| r.modeled_seconds).sum()
    }

    /// Turn this (non-terminated) result into the resume point for the
    /// next segment.
    pub fn into_resume(self) -> ResumePoint<P> {
        ResumePoint {
            states: self.states,
            pending: self.pending,
            active: self.active,
        }
    }
}

/// State needed to continue a BSP job from a superstep boundary.
pub struct ResumePoint<P: VertexProgram> {
    pub states: HashMap<CellId, P::State>,
    pub pending: HashMap<CellId, Vec<P::Msg>>,
    pub active: std::collections::HashSet<CellId>,
}

/// Measurements for one superstep.
#[derive(Debug, Clone, Default)]
pub struct SuperstepReport {
    pub superstep: usize,
    /// Vertices computed this superstep.
    pub computed: usize,
    /// Vertices still active after the superstep.
    pub active_after: usize,
    /// Remote data frames sent (vertex messages + hub broadcasts).
    pub remote_messages: u64,
    /// Machine-local message deliveries (free).
    pub local_messages: u64,
    /// Critical-path compute seconds, max over machines: per machine, the
    /// slowest pool worker's CPU time plus the driver's serial section
    /// (combine replay). This is the superstep latency a real cluster
    /// with that many cores per machine could not beat. With one compute
    /// thread it reduces to the old single-thread CPU reading.
    pub compute_seconds: f64,
    /// Aggregate compute CPU seconds across every machine and worker.
    pub compute_cpu_seconds: f64,
    /// Aggregate compute work divided by the machine count — the compute
    /// time an actual cluster (one real CPU per machine) would take,
    /// assuming even progress.
    pub compute_parallel_seconds: f64,
    /// Network traffic delta, max over machines (the bottleneck link).
    pub max_machine_net: StatsDelta,
    /// Modeled cluster seconds: parallel compute + priced bottleneck
    /// traffic + barrier.
    pub modeled_seconds: f64,
}

// ---------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------

fn encode_data_frame(superstep: u32, dst: CellId, msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + msg.len());
    out.extend_from_slice(&superstep.to_le_bytes());
    out.extend_from_slice(&dst.to_le_bytes());
    out.extend_from_slice(msg);
    out
}

/// Flat per-destination outbox: data frames laid end to end in one
/// reusable buffer, delimited by cumulative end offsets. Pool workers
/// encode messages straight into `data` (no per-message `Vec`) and flush
/// through [`trinity_net::Endpoint::send_slices`], which copies each
/// span directly into the destination's pack arena — the flat buffer and
/// the offsets are then reused, so steady-state routing allocates only
/// what the message encoder itself allocates.
#[derive(Default)]
struct FlatOutbox {
    data: Vec<u8>,
    ends: Vec<usize>,
}

impl FlatOutbox {
    /// Append one data frame (`superstep`, `dst` header + encoded msg).
    fn push_frame(&mut self, superstep: u32, dst: CellId, msg: &[u8]) {
        self.data.extend_from_slice(&superstep.to_le_bytes());
        self.data.extend_from_slice(&dst.to_le_bytes());
        self.data.extend_from_slice(msg);
        self.ends.push(self.data.len());
    }

    fn frames(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
    }
}

/// Decode a data frame into its target id (destination vertex, or the
/// broadcasting hub) and message; the superstep stamp is not checked —
/// the fence keeps supersteps apart.
fn decode_data_frame<P: VertexProgram>(data: &[u8]) -> Option<(CellId, P::Msg)> {
    let id = u64::from_le_bytes(data.get(4..12)?.try_into().unwrap());
    Some((id, P::decode_msg(&data[12..])?))
}

// ---------------------------------------------------------------------
// Per-machine runtime
// ---------------------------------------------------------------------

struct FenceState {
    /// Per-peer announced frame count for the current superstep.
    expected: Vec<Option<u64>>,
    /// Per-peer frames received so far for the current superstep.
    got: Vec<u64>,
}

/// Cached `bsp.*` metric handles for one machine's runtime (resolved once
/// per job; superstep hot paths touch only relaxed atomics).
struct BspMetrics {
    /// Supersteps this machine drove (`bsp.supersteps`).
    supersteps: Arc<Counter>,
    /// Vertices computed (`bsp.computed`).
    computed: Arc<Counter>,
    /// Remote data frames sent, messages + hub broadcasts (`bsp.frames.remote`).
    frames_remote: Arc<Counter>,
    /// Machine-local deliveries (`bsp.frames.local`).
    frames_local: Arc<Counter>,
    /// Hub broadcast frames sent, one per subscribed machine (`bsp.hub.broadcasts`).
    hub_broadcasts: Arc<Counter>,
    /// Vertices fanned out to by incoming hub broadcasts (`bsp.hub.fanout`).
    hub_fanout: Arc<Counter>,
    /// Per-superstep compute CPU time, µs (`bsp.compute.us`).
    compute_us: Arc<Histogram>,
    /// Per-worker per-superstep compute CPU time, µs (`bsp.worker.compute.us`).
    worker_us: Arc<Histogram>,
    /// Pool workers resolved per job per machine (`bsp.pool.workers`).
    pool_workers: Arc<Counter>,
    /// Per-superstep wall time including the fence, µs (`bsp.superstep.us`).
    superstep_us: Arc<Histogram>,
}

impl BspMetrics {
    fn new(endpoint: &Endpoint) -> Self {
        let obs = endpoint.obs();
        BspMetrics {
            supersteps: obs.counter("bsp.supersteps"),
            computed: obs.counter("bsp.computed"),
            frames_remote: obs.counter("bsp.frames.remote"),
            frames_local: obs.counter("bsp.frames.local"),
            hub_broadcasts: obs.counter("bsp.hub.broadcasts"),
            hub_fanout: obs.counter("bsp.hub.fanout"),
            compute_us: obs.histogram("bsp.compute.us"),
            worker_us: obs.histogram("bsp.worker.compute.us"),
            pool_workers: obs.counter("bsp.pool.workers"),
            superstep_us: obs.histogram("bsp.superstep.us"),
        }
    }
}

/// One worker's inbox: flattened `(dst, msg)` pairs under a single lock.
type ShardInbox<M> = Mutex<Vec<(CellId, M)>>;

/// Hub id → per-shard lists of the local vertices subscribed to it,
/// pre-split so fan-out stages straight into the owning shard.
type HubSubs = HashMap<CellId, Vec<Vec<CellId>>>;

struct MachineRt<P: VertexProgram> {
    endpoint: Arc<Endpoint>,
    machines: usize,
    /// Resolved pool size: sharding is `trunk_of(dst) % shard_workers`, a
    /// pure function of the id, so receive handlers can route a message
    /// to its owning worker's inbox without any setup handshake.
    shard_workers: usize,
    table: trinity_memcloud::AddressingTable,
    /// Per-worker inboxes for the *next* superstep: flattened
    /// `(dst, msg)` pairs the owning worker drains in sorted runs. The
    /// per-worker split removes the old single global
    /// `HashMap<CellId, Vec<Msg>>` consumer bottleneck.
    inboxes: Vec<ShardInbox<P::Msg>>,
    local_deliveries: AtomicU64,
    fence: Mutex<FenceState>,
    fence_cv: Condvar,
    /// Hub subscriber index under construction: `BSP_HUB_SETUP` handlers
    /// insert here until the setup barrier.
    subs_setup: Mutex<HubSubs>,
    /// The index as hub fan-out reads it — remote hub id → per-shard
    /// lists of local vertices that list it as an (in-)neighbor. Frozen
    /// from `subs_setup` by the first hub run to arrive, which a peer can
    /// only send after the setup barrier, so fan-out takes no lock on it.
    subs: OnceLock<HubSubs>,
    metrics: BspMetrics,
}

impl<P: VertexProgram> MachineRt<P> {
    fn shard_of(&self, id: CellId) -> usize {
        (self.table.trunk_of(id) as usize) % self.shard_workers
    }

    /// One empty staging buffer per shard, for [`Self::deliver_sharded`].
    fn stage(&self) -> Vec<Vec<(CellId, P::Msg)>> {
        (0..self.shard_workers).map(|_| Vec::new()).collect()
    }

    /// Hand deliveries staged by owning shard to the shard inboxes: each
    /// inbox lock is taken once per call.
    fn deliver_sharded(&self, staged: &mut [Vec<(CellId, P::Msg)>]) {
        for (shard, buf) in staged.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.deliver_batch(shard, buf);
            }
        }
    }

    /// Append buffered deliveries for one shard under a single lock
    /// acquisition.
    fn deliver_batch(&self, shard: usize, buf: &mut Vec<(CellId, P::Msg)>) {
        // Attribute each delivery to its destination trunk, batched so the
        // shared LoadMap sees one update per distinct trunk in the run.
        let load = self.endpoint.obs().load();
        let mut by_trunk: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for (dst, _) in buf.iter() {
            *by_trunk.entry(self.table.trunk_of(*dst)).or_insert(0) += 1;
        }
        for (trunk, n) in by_trunk {
            load.record_msgs(trunk, n);
        }
        self.inboxes[shard].lock().append(buf);
    }

    /// Credit `n` received data frames from `src` to the fence.
    fn count_frames(&self, src: MachineId, n: usize) {
        let mut f = self.fence.lock();
        f.got[src.0 as usize] += n as u64;
        self.fence_cv.notify_all();
    }

    /// Block until every peer's fence has arrived and every announced
    /// frame has been received.
    fn await_quiescence(&self, self_machine: usize) {
        let mut f = self.fence.lock();
        loop {
            let done = (0..self.machines)
                .all(|p| p == self_machine || matches!(f.expected[p], Some(e) if f.got[p] >= e));
            if done {
                // Reset for the next superstep.
                for p in 0..self.machines {
                    f.expected[p] = None;
                    f.got[p] = 0;
                }
                return;
            }
            self.fence_cv.wait(&mut f);
        }
    }
}

/// The distributed BSP job runner.
pub struct BspRunner<P: VertexProgram> {
    graph: Arc<DistributedGraph>,
    program: Arc<P>,
    cfg: BspConfig,
}

impl<P: VertexProgram> BspRunner<P> {
    /// Prepare a job over `graph`.
    pub fn new(graph: Arc<DistributedGraph>, program: P, cfg: BspConfig) -> Self {
        BspRunner {
            graph,
            program: Arc::new(program),
            cfg,
        }
    }

    /// The graph this job runs over.
    pub fn graph(&self) -> &Arc<DistributedGraph> {
        &self.graph
    }

    /// Execute to termination (all vertices halted and no messages in
    /// flight) or to the superstep limit. Returns final vertex states and
    /// per-superstep measurements.
    pub fn run(&self) -> BspResult<P> {
        self.run_resumed(None, 0)
    }

    /// Execute starting from a resume point (checkpoint restart), with
    /// superstep numbering offset by `superstep_offset` in the reports.
    pub fn run_resumed(
        &self,
        resume: Option<ResumePoint<P>>,
        superstep_offset: usize,
    ) -> BspResult<P> {
        let machines = self.graph.machines();
        // Split the resume point by owning machine.
        let per_machine_resume: Vec<Mutex<Option<MachineResume<P>>>> = {
            let mut split: Vec<MachineResume<P>> = (0..machines)
                .map(|_| MachineResume {
                    states: HashMap::new(),
                    pending: HashMap::new(),
                    active: Default::default(),
                })
                .collect();
            if let Some(r) = resume {
                let table = self.graph.cloud().node(0).table();
                for (id, st) in r.states {
                    split[table.machine_of(id).0 as usize].states.insert(id, st);
                }
                for (id, msgs) in r.pending {
                    split[table.machine_of(id).0 as usize]
                        .pending
                        .insert(id, msgs);
                }
                for id in r.active {
                    split[table.machine_of(id).0 as usize].active.insert(id);
                }
                split.into_iter().map(|mr| Mutex::new(Some(mr))).collect()
            } else {
                (0..machines).map(|_| Mutex::new(None)).collect()
            }
        };
        let rts: Vec<Arc<MachineRt<P>>> = (0..machines)
            .map(|m| {
                let node = self.graph.cloud().node(m);
                let endpoint = Arc::clone(node.endpoint());
                let table = node.table();
                let workers = resolve_compute_threads(
                    self.cfg.compute_threads,
                    table.trunks_of(MachineId(m as u16)).len(),
                );
                Arc::new(MachineRt {
                    metrics: BspMetrics::new(&endpoint),
                    endpoint,
                    machines,
                    shard_workers: workers,
                    table,
                    inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
                    local_deliveries: AtomicU64::new(0),
                    fence: Mutex::new(FenceState {
                        expected: vec![None; machines],
                        got: vec![0; machines],
                    }),
                    fence_cv: Condvar::new(),
                    subs_setup: Mutex::new(HashMap::new()),
                    subs: OnceLock::new(),
                })
            })
            .collect();
        // Register message handlers.
        for (m, rt) in rts.iter().enumerate() {
            let endpoint = Arc::clone(&rt.endpoint);
            // Vertex data messages: decode the run, then one lock per
            // shard inbox and one fence update for all of it.
            {
                let rt = Arc::clone(rt);
                endpoint.register_batch(proto::BSP_MSG, move |src, frames| {
                    let mut staged = rt.stage();
                    for frame in frames {
                        if let Some((dst, msg)) = decode_data_frame::<P>(&frame.payload) {
                            staged[rt.shard_of(dst)].push((dst, msg));
                        }
                    }
                    rt.deliver_sharded(&mut staged);
                    rt.count_frames(src, frames.len());
                });
            }
            // Hub broadcasts: fan out through the subscriber index.
            {
                let rt = Arc::clone(rt);
                endpoint.register_batch(proto::BSP_HUB, move |src, frames| {
                    // On a lapsed deadline the fan-out is skipped but the
                    // frames are still counted: fences must balance or the
                    // superstep would hang instead of finishing early.
                    if !deadline_expired() {
                        let subs = rt
                            .subs
                            .get_or_init(|| std::mem::take(&mut *rt.subs_setup.lock()));
                        let mut staged = rt.stage();
                        for frame in frames {
                            let Some((hub, msg)) = decode_data_frame::<P>(&frame.payload) else {
                                continue;
                            };
                            for (buf, targets) in
                                staged.iter_mut().zip(subs.get(&hub).into_iter().flatten())
                            {
                                buf.extend(targets.iter().map(|&t| (t, msg.clone())));
                            }
                        }
                        let fanned: u64 = staged.iter().map(|b| b.len() as u64).sum();
                        rt.local_deliveries.fetch_add(fanned, Ordering::Relaxed);
                        rt.metrics.hub_fanout.add(fanned);
                        rt.deliver_sharded(&mut staged);
                    }
                    rt.count_frames(src, frames.len());
                });
            }
            // Fences.
            {
                let rt = Arc::clone(rt);
                endpoint.register(proto::BSP_FENCE, move |src, data| {
                    if data.len() >= 12 {
                        let count = u64::from_le_bytes(data[4..12].try_into().unwrap());
                        let mut f = rt.fence.lock();
                        f.expected[src.0 as usize] = Some(count);
                        rt.fence_cv.notify_all();
                    }
                    None
                });
            }
            // Hub subscription discovery: given a peer's hub ids, scan the
            // local partition for vertices referencing them and remember
            // the subscriptions; reply with the subscribed subset.
            {
                let rt = Arc::clone(rt);
                let handle = self.graph.handle(m).clone();
                endpoint.register(proto::BSP_HUB_SETUP, move |_src, data| {
                    let hubs: std::collections::HashSet<CellId> = data
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    // Targets are pre-split by owning shard so hub fan-out
                    // locks each worker inbox once per broadcast.
                    let mut found: HubSubs = HashMap::new();
                    let workers = rt.shard_workers;
                    handle.for_each_local_node(|id, view| {
                        // In-neighbors when stored; otherwise the graph is
                        // undirected and out-neighbors are the same set.
                        let shard = rt.shard_of(id);
                        if view.has_ins() {
                            for src_v in view.ins() {
                                if hubs.contains(&src_v) {
                                    found
                                        .entry(src_v)
                                        .or_insert_with(|| vec![Vec::new(); workers])[shard]
                                        .push(id);
                                }
                            }
                        } else {
                            for src_v in view.outs() {
                                if hubs.contains(&src_v) {
                                    found
                                        .entry(src_v)
                                        .or_insert_with(|| vec![Vec::new(); workers])[shard]
                                        .push(id);
                                }
                            }
                        }
                    });
                    let mut reply = Vec::with_capacity(found.len() * 8);
                    let mut subs = rt.subs_setup.lock();
                    for (hub, targets) in found {
                        reply.extend_from_slice(&hub.to_le_bytes());
                        subs.insert(hub, targets);
                    }
                    Some(reply)
                });
            }
        }

        // One trace id for the whole job: every driver thread installs it,
        // so all BSP traffic (data frames, fences, hub setup calls) is
        // stamped with it and the job can be reconstructed from span rings
        // across the cluster.
        let trace = next_trace_id();
        // A serving-tier deadline installed on the submitting thread is
        // inherited by every machine driver: the job aborts between
        // supersteps once the budget lapses.
        let deadline = current_deadline();

        // Shared cross-machine coordination (control plane only).
        let barrier = Arc::new(Barrier::new(machines));
        let agg = Arc::new(Mutex::new(RoundAgg::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let terminated = Arc::new(AtomicBool::new(false));
        let reports = Arc::new(Mutex::new(Vec::<SuperstepReport>::new()));
        let finals = Arc::new(Mutex::new(FinalState::<P>::default()));

        std::thread::scope(|scope| {
            for m in 0..machines {
                let rt = Arc::clone(&rts[m]);
                let graph = Arc::clone(&self.graph);
                let program = Arc::clone(&self.program);
                let cfg = self.cfg.clone();
                let barrier = Arc::clone(&barrier);
                let agg = Arc::clone(&agg);
                let stop = Arc::clone(&stop);
                let terminated = Arc::clone(&terminated);
                let reports = Arc::clone(&reports);
                let finals = Arc::clone(&finals);
                let resume = per_machine_resume[m].lock().take();
                scope.spawn(move || {
                    machine_driver(DriverArgs {
                        m,
                        rt,
                        graph,
                        program,
                        cfg,
                        barrier,
                        agg,
                        stop,
                        terminated,
                        reports,
                        finals,
                        resume,
                        superstep_offset,
                        trace,
                        deadline,
                    })
                });
            }
        });

        let mut finals_guard = finals.lock();
        let mut reports_guard = reports.lock();
        let result = BspResult {
            states: std::mem::take(&mut finals_guard.states),
            reports: std::mem::take(&mut *reports_guard),
            terminated: terminated.load(Ordering::Acquire),
            pending: std::mem::take(&mut finals_guard.pending),
            active: std::mem::take(&mut finals_guard.active),
        };
        drop(reports_guard);
        drop(finals_guard);
        result
    }
}

/// Per-machine slice of a resume point.
struct MachineResume<P: VertexProgram> {
    states: HashMap<CellId, P::State>,
    pending: HashMap<CellId, Vec<P::Msg>>,
    active: std::collections::HashSet<CellId>,
}

/// Merged exit state of all drivers.
struct FinalState<P: VertexProgram> {
    states: HashMap<CellId, P::State>,
    pending: HashMap<CellId, Vec<P::Msg>>,
    active: std::collections::HashSet<CellId>,
}

impl<P: VertexProgram> Default for FinalState<P> {
    fn default() -> Self {
        FinalState {
            states: HashMap::new(),
            pending: HashMap::new(),
            active: Default::default(),
        }
    }
}

struct DriverArgs<P: VertexProgram> {
    m: usize,
    rt: Arc<MachineRt<P>>,
    graph: Arc<DistributedGraph>,
    program: Arc<P>,
    cfg: BspConfig,
    barrier: Arc<Barrier>,
    agg: Arc<Mutex<RoundAgg>>,
    stop: Arc<AtomicBool>,
    terminated: Arc<AtomicBool>,
    reports: Arc<Mutex<Vec<SuperstepReport>>>,
    finals: Arc<Mutex<FinalState<P>>>,
    resume: Option<MachineResume<P>>,
    superstep_offset: usize,
    trace: u64,
    deadline: u64,
}

#[derive(Default)]
struct RoundAgg {
    arrived: usize,
    active: usize,
    computed: usize,
    deliveries: u64,
    remote_frames: u64,
    local_frames: u64,
    compute_max: f64,
    compute_sum: f64,
    net_max: StatsDelta,
    decision_stop: bool,
}

/// Flush a worker's private per-destination outbox chunk into the
/// endpoint's pack buffers once this many frames accumulate. Chunking
/// keeps peak buffering bounded and amortizes the per-destination pack
/// lock across many frames.
const OUTBOX_CHUNK: usize = 64;

/// Flush a worker's buffered machine-local deliveries for one shard once
/// this many pairs accumulate.
const LOCAL_CHUNK: usize = 128;

/// One worker's owned shard of a machine's BSP state. All buffers are
/// reused across supersteps: retained capacity is what "pre-sizes
/// outboxes from the previous superstep's send counts".
struct WorkerState<P: VertexProgram> {
    w: usize,
    /// This shard's local vertices, sorted by id, with each vertex's
    /// position in the *machine-wide* sorted order (`vseq`) — the combine
    /// replay key.
    local: Vec<(CellId, usize)>,
    states: HashMap<CellId, P::State>,
    active: std::collections::HashSet<CellId>,
    /// Current-superstep inbox as parallel sorted arrays: run boundaries
    /// in `in_ids` delimit each vertex's `msgs` slice in `in_msgs`.
    in_ids: Vec<CellId>,
    in_msgs: Vec<P::Msg>,
    /// Reusable swap target for draining this worker's shared inbox.
    raw: Vec<(CellId, P::Msg)>,
    /// Reusable adjacency scratch (replaces a per-vertex `Vec` collect).
    outs_scratch: Vec<CellId>,
    /// Reusable send-list scratch lent to the `VertexContext`.
    sends: Vec<(CellId, P::Msg)>,
    /// Which machines a hub broadcast actually hit this vertex (reused).
    hub_hit: Vec<bool>,
    /// Frames sent per destination machine this superstep.
    sent_to: Vec<u64>,
    /// Private per-destination outbox chunks (Packed, non-combine path).
    outbox: Vec<FlatOutbox>,
    /// Buffered machine-local deliveries per shard.
    local_buf: Vec<Vec<(CellId, P::Msg)>>,
    /// Deferred combine-mode sends: `(vseq, dst, msg)`.
    combine: Vec<(usize, CellId, P::Msg)>,
}

impl<P: VertexProgram> WorkerState<P> {
    fn new(w: usize, machines: usize, workers: usize) -> Self {
        WorkerState {
            w,
            local: Vec::new(),
            states: HashMap::new(),
            active: Default::default(),
            in_ids: Vec::new(),
            in_msgs: Vec::new(),
            raw: Vec::new(),
            outs_scratch: Vec::new(),
            sends: Vec::new(),
            hub_hit: vec![false; machines],
            sent_to: vec![0; machines],
            outbox: (0..machines).map(|_| FlatOutbox::default()).collect(),
            local_buf: (0..workers).map(|_| Vec::new()).collect(),
            combine: Vec::new(),
        }
    }
}

/// Per-round results a worker hands to the leader (worker 0) at the
/// phase barriers. Written by its owner during a phase, read by the
/// leader strictly after the phase barrier, so the mutexes never contend.
struct WorkerRound<P: VertexProgram> {
    sent_to: Vec<u64>,
    combine: Vec<(usize, CellId, P::Msg)>,
    computed: usize,
    cpu_seconds: f64,
    active_after: usize,
    distinct_dsts: u64,
}

impl<P: VertexProgram> WorkerRound<P> {
    fn new(machines: usize) -> Self {
        WorkerRound {
            sent_to: vec![0; machines],
            combine: Vec::new(),
            computed: 0,
            cpu_seconds: 0.0,
            active_after: 0,
            distinct_dsts: 0,
        }
    }
}

/// Shared, read-only context for one machine's worker pool.
struct PoolCtx<'x, P: VertexProgram> {
    m: usize,
    machines: usize,
    rt: &'x MachineRt<P>,
    handle: &'x GraphHandle,
    program: &'x P,
    cfg: &'x BspConfig,
    table: &'x trinity_memcloud::AddressingTable,
    cost: trinity_net::CostModel,
    hub_targets: &'x HashMap<CellId, Vec<MachineId>>,
    pool_barrier: Barrier,
    rounds: Vec<Mutex<WorkerRound<P>>>,
    // Cross-machine control plane (leader-only).
    global_barrier: &'x Barrier,
    agg: &'x Mutex<RoundAgg>,
    stop: &'x AtomicBool,
    terminated: &'x AtomicBool,
    reports: &'x Mutex<Vec<SuperstepReport>>,
    finals: &'x Mutex<FinalState<P>>,
    superstep_offset: usize,
}

fn machine_driver<P: VertexProgram>(args: DriverArgs<P>) {
    let DriverArgs {
        m,
        rt,
        graph,
        program,
        cfg,
        barrier,
        agg,
        stop,
        terminated,
        reports,
        finals,
        resume,
        superstep_offset,
        trace,
        deadline,
    } = args;
    // The job's trace id covers every send/call this driver thread makes,
    // and the submitter's deadline budget bounds them.
    let _trace_guard = TraceGuard::enter(trace);
    let _deadline_guard = DeadlineGuard::enter(deadline);
    let handle: &GraphHandle = graph.handle(m);
    let machines = graph.machines();
    let table = graph.cloud().node(m).table();
    let cost = graph.cloud().fabric().cost_model();

    // --- Setup: local vertex census + state init -----------------------
    // States are initialized during the census pass, where the program
    // gets zero-copy access to each vertex's cell.
    let mut local: Vec<(CellId, usize)> = Vec::new(); // (id, out_degree)
    let mut fresh_states: HashMap<CellId, P::State> = HashMap::new();
    {
        let resume_states = resume.as_ref().map(|r| &r.states);
        handle.for_each_local_node(|id, view| {
            local.push((id, view.out_degree()));
            // On resume, checkpointed states win; anything missing from
            // the checkpoint starts fresh.
            if resume_states.is_none_or(|s| !s.contains_key(&id)) {
                fresh_states.insert(id, program.init(id, &view));
            }
        });
    }
    local.sort_unstable();
    let (mut states, resume_pending, resume_active) = match resume {
        Some(r) => {
            let mut states = r.states;
            states.extend(fresh_states);
            (states, r.pending, Some(r.active))
        }
        None => (fresh_states, HashMap::new(), None),
    };
    let mut active: std::collections::HashSet<CellId> = match resume_active {
        Some(a) => a,
        None => local.iter().map(|&(id, _)| id).collect(),
    };

    // --- Setup: hub discovery ------------------------------------------
    // Hub buffering needs the receiving machines to know which of their
    // vertices are targets of a hub's broadcast, which requires reverse
    // traversal (symmetric out-lists or stored in-links). On a directed
    // graph loaded without in-links the optimization silently disables.
    let hub_allowed = graph.reverse_traversable();
    let mut hub_targets: HashMap<CellId, Vec<MachineId>> = HashMap::new();
    if !hub_allowed && cfg.hub_threshold.is_some() {
        // Keep barrier symmetry with the enabled path (none needed: the
        // decision is identical on every machine).
    }
    if let Some(threshold) = cfg.hub_threshold.filter(|_| hub_allowed) {
        let hubs: Vec<CellId> = local
            .iter()
            .filter(|&&(_, deg)| deg >= threshold)
            .map(|&(id, _)| id)
            .collect();
        barrier.wait();
        if !hubs.is_empty() {
            let mut req = Vec::with_capacity(hubs.len() * 8);
            for h in &hubs {
                req.extend_from_slice(&h.to_le_bytes());
            }
            for peer in 0..machines {
                if peer == m {
                    continue;
                }
                if let Ok(reply) =
                    rt.endpoint
                        .call(MachineId(peer as u16), proto::BSP_HUB_SETUP, &req)
                {
                    for c in reply.chunks_exact(8) {
                        let hub = u64::from_le_bytes(c.try_into().unwrap());
                        hub_targets
                            .entry(hub)
                            .or_default()
                            .push(MachineId(peer as u16));
                    }
                }
            }
        }
        barrier.wait();
    }

    // --- Worker pool setup ---------------------------------------------
    // Shard every local vertex (and all resumed state) by
    // `trunk_of(id) % workers` — the same pure routing the receive
    // handlers use, so a message lands in exactly the inbox of the worker
    // that owns its destination. `vseq` is the vertex's position in the
    // machine-wide sorted order; the combine replay keys on it to
    // reproduce the serial enqueue sequence exactly.
    let workers = rt.inboxes.len();
    rt.metrics.pool_workers.add(workers as u64);
    let mut shards: Vec<WorkerState<P>> = (0..workers)
        .map(|w| WorkerState::new(w, machines, workers))
        .collect();
    for (vseq, &(id, _deg)) in local.iter().enumerate() {
        shards[rt.shard_of(id)].local.push((id, vseq));
    }
    for (id, st) in states.drain() {
        shards[rt.shard_of(id)].states.insert(id, st);
    }
    for id in active.drain() {
        shards[rt.shard_of(id)].active.insert(id);
    }
    // Initial pending messages, sharded and loaded like a drained inbox.
    {
        let mut raw: Vec<Vec<(CellId, P::Msg)>> = (0..workers).map(|_| Vec::new()).collect();
        for (id, msgs) in resume_pending {
            let shard = rt.shard_of(id);
            for msg in msgs {
                raw[shard].push((id, msg));
            }
        }
        for (ws, mut r) in shards.iter_mut().zip(raw) {
            r.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| P::msg_cmp(&a.1, &b.1)));
            for (id, msg) in r {
                ws.in_ids.push(id);
                ws.in_msgs.push(msg);
            }
        }
    }

    let ctx = PoolCtx {
        m,
        machines,
        rt: &rt,
        handle,
        program: &*program,
        cfg: &cfg,
        table: &table,
        cost,
        hub_targets: &hub_targets,
        pool_barrier: Barrier::new(workers),
        rounds: (0..workers)
            .map(|_| Mutex::new(WorkerRound::new(machines)))
            .collect(),
        global_barrier: &barrier,
        agg: &agg,
        stop: &stop,
        terminated: &terminated,
        reports: &reports,
        finals: &finals,
        superstep_offset,
    };
    std::thread::scope(|pool| {
        let mut shards = shards.into_iter();
        let leader_shard = shards.next().expect("at least one worker");
        for ws in shards {
            let ctx = &ctx;
            pool.spawn(move || {
                // Guards are thread-local: re-enter them on each pool worker.
                let _tg = TraceGuard::enter(trace);
                let _dg = DeadlineGuard::enter(deadline);
                worker_main(ctx, ws);
            });
        }
        // Worker 0 (the leader) runs on the driver thread and keeps all
        // serial responsibilities: combine replay, fences, global
        // barriers, aggregation, and the stop decision.
        worker_main(&ctx, leader_shard);
    });
}

/// One pool worker's superstep loop. Four pool barriers per superstep
/// separate the phases:
///
/// 1. parallel compute over this worker's shard (+ shard flush);
/// 2. leader: combine replay, fences, quiescence wait, global barrier;
/// 3. parallel inbox drain (sort runs, reactivate, count);
/// 4. leader: round aggregation, reports, stop decision.
fn worker_main<P: VertexProgram>(ctx: &PoolCtx<'_, P>, mut ws: WorkerState<P>) {
    let leader = ws.w == 0;
    let mut superstep = 0usize;
    // Leader-only round state; idle copies on the other workers.
    let mut net_before = ctx.rt.endpoint.stats().snapshot();
    let mut wall_start_us = ctx.rt.endpoint.obs().now_us();
    loop {
        // Start-of-superstep hook (bucket prefetch): the leader runs it,
        // the barrier orders it before anyone computes. Gated on the
        // option so hook-free jobs pay no extra barrier — every worker
        // evaluates the same `is_some()`, so the barrier count matches.
        if ctx.cfg.superstep_hook.is_some() {
            if leader {
                if let Some(hook) = &ctx.cfg.superstep_hook {
                    hook.superstep_start(ctx.m, ctx.superstep_offset + superstep);
                }
            }
            ctx.pool_barrier.wait();
        }
        compute_phase(ctx, &mut ws, superstep);
        ctx.pool_barrier.wait();
        let mut round_totals = None;
        if leader {
            round_totals = Some(leader_post_compute(ctx, superstep));
        }
        ctx.pool_barrier.wait();
        drain_phase(ctx, &mut ws);
        ctx.pool_barrier.wait();
        if leader {
            let (sent_to, computed, pool_times) = round_totals.expect("leader totals");
            leader_aggregate(
                ctx,
                superstep,
                &sent_to,
                computed,
                &pool_times,
                &net_before,
                wall_start_us,
            );
            // Next round's deltas start here — after the stop-decision
            // barrier, exactly where the serial driver snapshotted.
            net_before = ctx.rt.endpoint.stats().snapshot();
            wall_start_us = ctx.rt.endpoint.obs().now_us();
        }
        ctx.pool_barrier.wait();
        superstep += 1;
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
    }
    // Export this shard's slice of the job state (checkpoint material).
    let mut f = ctx.finals.lock();
    f.states.extend(ws.states);
    f.active.extend(ws.active);
    for (id, msg) in ws.in_ids.drain(..).zip(ws.in_msgs.drain(..)) {
        f.pending.entry(id).or_default().push(msg);
    }
}

/// Compute every vertex of this worker's shard for one superstep,
/// routing sends into the private outboxes/buffers and flushing them at
/// shard end.
fn compute_phase<P: VertexProgram>(
    ctx: &PoolCtx<'_, P>,
    ws: &mut WorkerState<P>,
    superstep: usize,
) {
    let timer = crate::cputime::ThreadTimer::start();
    ws.sent_to.iter_mut().for_each(|c| *c = 0);
    let mut computed = 0usize;
    let mut local_delivered = 0u64;
    // Merge-join the sorted local vertex list against the sorted inbox
    // runs: no hashing, no per-vertex lookups.
    let mut pos = 0usize;
    let n_in = ws.in_ids.len();
    for li in 0..ws.local.len() {
        let (id, vseq) = ws.local[li];
        while pos < n_in && ws.in_ids[pos] < id {
            pos += 1;
        }
        let run_start = pos;
        while pos < n_in && ws.in_ids[pos] == id {
            pos += 1;
        }
        if run_start == pos && !ws.active.contains(&id) {
            continue;
        }
        computed += 1;
        let state = ws
            .states
            .get_mut(&id)
            .expect("state exists for local vertex");
        // Read the adjacency through a zero-copy view into the reusable
        // scratch (no per-vertex allocation).
        ws.outs_scratch.clear();
        let _ = ctx.handle.with_node(id, |view| {
            ws.outs_scratch.extend(view.outs());
        });
        ws.sends.clear();
        let mut vctx = VertexContext {
            superstep: ctx.superstep_offset + superstep,
            outs: &ws.outs_scratch,
            sends: &mut ws.sends,
            broadcast: None,
            halt: false,
        };
        ctx.program
            .compute(&mut vctx, id, state, &ws.in_msgs[run_start..pos]);
        let halt = vctx.halt;
        let broadcast = vctx.broadcast.take();
        drop(vctx);
        if halt {
            ws.active.remove(&id);
        } else {
            ws.active.insert(id);
        }
        // Route the broadcast (restrictive model).
        if let Some(msg) = broadcast {
            let is_hub = ctx.hub_targets.contains_key(&id);
            if is_hub {
                ws.hub_hit.iter_mut().for_each(|b| *b = false);
            }
            for oi in 0..ws.outs_scratch.len() {
                let dst = ws.outs_scratch[oi];
                let owner = ctx.table.machine_of(dst).0 as usize;
                if owner == ctx.m {
                    local_delivered += 1;
                    push_local(ctx.rt, &mut ws.local_buf, dst, msg.clone());
                } else if is_hub {
                    ws.hub_hit[owner] = true;
                } else {
                    route_remote(
                        ctx,
                        superstep,
                        vseq,
                        owner,
                        dst,
                        msg.clone(),
                        &mut ws.sent_to,
                        &mut ws.combine,
                        &mut ws.outbox,
                    );
                }
            }
            if is_hub {
                // One frame per subscribing machine — but only machines
                // whose vertices this hub actually reaches this superstep
                // (the subscriber index may be stale after graph updates).
                let payload = P::encode_msg(&msg);
                for &peer in ctx.hub_targets.get(&id).into_iter().flatten() {
                    if !ws.hub_hit[peer.0 as usize] {
                        continue;
                    }
                    let frame = encode_data_frame(superstep as u32, id, &payload);
                    ctx.rt.endpoint.send(peer, proto::BSP_HUB, &frame);
                    ctx.rt.metrics.hub_broadcasts.inc();
                    if ctx.cfg.messaging == MessagingMode::Unpacked {
                        ctx.rt.endpoint.flush_to(peer);
                    }
                    ws.sent_to[peer.0 as usize] += 1;
                }
            }
        }
        // Route point sends (general model).
        for (dst, msg) in ws.sends.drain(..) {
            let owner = ctx.table.machine_of(dst).0 as usize;
            if owner == ctx.m {
                local_delivered += 1;
                push_local(ctx.rt, &mut ws.local_buf, dst, msg);
            } else {
                route_remote(
                    ctx,
                    superstep,
                    vseq,
                    owner,
                    dst,
                    msg,
                    &mut ws.sent_to,
                    &mut ws.combine,
                    &mut ws.outbox,
                );
            }
        }
    }
    // Shard flush: merge the private outboxes into the endpoint's pack
    // buffers and hand buffered local deliveries to their shard inboxes.
    for owner in 0..ctx.machines {
        let ob = &mut ws.outbox[owner];
        if !ob.is_empty() {
            ctx.rt.endpoint.send_slices(
                MachineId(owner as u16),
                proto::BSP_MSG,
                &ob.data,
                &ob.ends,
            );
            ob.clear();
        }
    }
    ctx.rt.deliver_sharded(&mut ws.local_buf);
    ctx.rt
        .local_deliveries
        .fetch_add(local_delivered, Ordering::Relaxed);
    let cpu_seconds = timer.elapsed_seconds();
    ctx.rt.metrics.worker_us.record((cpu_seconds * 1e6) as u64);
    let mut round = ctx.rounds[ws.w].lock();
    round.computed = computed;
    round.cpu_seconds = cpu_seconds;
    round.sent_to.copy_from_slice(&ws.sent_to);
    round.combine.clear();
    std::mem::swap(&mut round.combine, &mut ws.combine);
}

/// Buffer one machine-local delivery, flushing the shard's buffer into
/// its inbox once it fills.
fn push_local<P: VertexProgram>(
    rt: &MachineRt<P>,
    local_buf: &mut [Vec<(CellId, P::Msg)>],
    dst: CellId,
    msg: P::Msg,
) {
    let shard = rt.shard_of(dst);
    let buf = &mut local_buf[shard];
    buf.push((dst, msg));
    if buf.len() >= LOCAL_CHUNK {
        rt.deliver_batch(shard, buf);
    }
}

/// Route one remote vertex message from a pool worker. Combine-mode
/// messages are deferred for the leader's serial replay; otherwise the
/// frame goes to the private outbox (Packed) or straight out (Unpacked).
#[allow(clippy::too_many_arguments)]
fn route_remote<P: VertexProgram>(
    ctx: &PoolCtx<'_, P>,
    superstep: usize,
    vseq: usize,
    owner: usize,
    dst: CellId,
    msg: P::Msg,
    sent_to: &mut [u64],
    combine: &mut Vec<(usize, CellId, P::Msg)>,
    outbox: &mut [FlatOutbox],
) {
    if ctx.cfg.combine {
        combine.push((vseq, dst, msg));
        return;
    }
    let peer = MachineId(owner as u16);
    if ctx.cfg.messaging == MessagingMode::Unpacked {
        let frame = encode_data_frame(superstep as u32, dst, &P::encode_msg(&msg));
        ctx.rt.endpoint.send(peer, proto::BSP_MSG, &frame);
        ctx.rt.endpoint.flush_to(peer);
    } else {
        let ob = &mut outbox[owner];
        ob.push_frame(superstep as u32, dst, &P::encode_msg(&msg));
        if ob.frames() >= OUTBOX_CHUNK {
            ctx.rt
                .endpoint
                .send_slices(peer, proto::BSP_MSG, &ob.data, &ob.ends);
            ob.clear();
        }
    }
    sent_to[owner] += 1;
}

/// Leader work after the parallel compute phase: total the per-worker
/// rounds, replay deferred combine-mode sends in global vertex order
/// (byte-for-byte the serial combiner), then fence and wait for
/// quiescence. Returns the machine's frame totals and pool CPU times.
fn leader_post_compute<P: VertexProgram>(
    ctx: &PoolCtx<'_, P>,
    superstep: usize,
) -> (Vec<u64>, usize, crate::cputime::PoolTimes) {
    let timer = crate::cputime::ThreadTimer::start();
    let mut pool_times = crate::cputime::PoolTimes::default();
    let mut sent_to: Vec<u64> = vec![0; ctx.machines];
    let mut computed = 0usize;
    let mut deferred: Vec<(usize, CellId, P::Msg)> = Vec::new();
    for slot in &ctx.rounds {
        let mut r = slot.lock();
        for (total, &s) in sent_to.iter_mut().zip(&r.sent_to) {
            *total += s;
        }
        computed += r.computed;
        pool_times.record_worker(r.cpu_seconds);
        deferred.append(&mut r.combine);
    }
    if ctx.cfg.combine && !deferred.is_empty() {
        // Stable sort restores the machine-wide vertex order the serial
        // driver enqueued in; ties (sends from one vertex) keep their
        // program order because each vertex lives in exactly one worker.
        deferred.sort_by_key(|&(vseq, _, _)| vseq);
        let mut outgoing: Vec<HashMap<CellId, P::Msg>> =
            (0..ctx.machines).map(|_| HashMap::new()).collect();
        for (_, dst, msg) in deferred {
            let owner = ctx.table.machine_of(dst).0 as usize;
            match outgoing[owner].entry(dst) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if !P::combine(e.get_mut(), &msg) {
                        // Not combinable after all: ship the buffered one
                        // and keep the newcomer.
                        let prev = e.insert(msg);
                        let frame = encode_data_frame(superstep as u32, dst, &P::encode_msg(&prev));
                        ctx.rt
                            .endpoint
                            .send(MachineId(owner as u16), proto::BSP_MSG, &frame);
                        sent_to[owner] += 1;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(msg);
                }
            }
        }
        for (peer, buf) in outgoing.iter_mut().enumerate() {
            for (dst, msg) in buf.drain() {
                let frame = encode_data_frame(superstep as u32, dst, &P::encode_msg(&msg));
                ctx.rt
                    .endpoint
                    .send(MachineId(peer as u16), proto::BSP_MSG, &frame);
                if ctx.cfg.messaging == MessagingMode::Unpacked {
                    ctx.rt.endpoint.flush_to(MachineId(peer as u16));
                }
                sent_to[peer] += 1;
            }
        }
    }
    // The serial section ends where the serial driver's compute clock
    // stopped: after the combine flush, before the fence.
    pool_times.add_serial(timer.elapsed_seconds());

    // Fence: announce per-peer frame counts, flush everything, wait
    // until all announced frames (from every peer) have arrived.
    for (peer, &sent) in sent_to.iter().enumerate() {
        if peer == ctx.m {
            continue;
        }
        let mut fence = Vec::with_capacity(12);
        fence.extend_from_slice(&(superstep as u32).to_le_bytes());
        fence.extend_from_slice(&sent.to_le_bytes());
        ctx.rt
            .endpoint
            .send(MachineId(peer as u16), proto::BSP_FENCE, &fence);
        ctx.rt.endpoint.flush_to(MachineId(peer as u16));
    }
    ctx.rt.endpoint.flush();
    ctx.rt.await_quiescence(ctx.m);
    // After this barrier no machine is still computing superstep `s`, so
    // the workers' inbox drain (next phase) cannot race new deliveries:
    // anything arriving now belongs to `s + 1` and lands after the swap.
    ctx.global_barrier.wait();
    (sent_to, computed, pool_times)
}

/// Drain this worker's shared inbox for the next superstep: take the
/// flattened pairs, stably sort into `(dst, msg_cmp)` runs, count
/// distinct destinations, and reactivate local vertices that received
/// messages.
fn drain_phase<P: VertexProgram>(ctx: &PoolCtx<'_, P>, ws: &mut WorkerState<P>) {
    ws.raw.clear();
    {
        let mut slot = ctx.rt.inboxes[ws.w].lock();
        std::mem::swap(&mut ws.raw, &mut *slot);
    }
    ws.raw
        .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| P::msg_cmp(&a.1, &b.1)));
    ws.in_ids.clear();
    ws.in_msgs.clear();
    let mut distinct = 0u64;
    let mut last: Option<CellId> = None;
    for (dst, msg) in ws.raw.drain(..) {
        if last != Some(dst) {
            distinct += 1;
            last = Some(dst);
            // Message arrivals reactivate halted vertices.
            if ws.states.contains_key(&dst) {
                ws.active.insert(dst);
            }
        }
        ws.in_ids.push(dst);
        ws.in_msgs.push(msg);
    }
    let mut round = ctx.rounds[ws.w].lock();
    round.active_after = ws.active.len();
    round.distinct_dsts = distinct;
}

/// Leader work after the drain phase: publish the machine's round into
/// the cross-machine aggregate, and (as global leader) emit the report
/// and the stop decision.
#[allow(clippy::too_many_arguments)]
fn leader_aggregate<P: VertexProgram>(
    ctx: &PoolCtx<'_, P>,
    superstep: usize,
    sent_to: &[u64],
    computed: usize,
    pool_times: &crate::cputime::PoolTimes,
    net_before: &trinity_net::StatsDelta,
    wall_start_us: u64,
) {
    let rt = ctx.rt;
    let net_delta = rt.endpoint.stats().delta(net_before);
    let local_delivered = rt.local_deliveries.swap(0, Ordering::Relaxed);
    let frames_sent: u64 = sent_to.iter().sum();
    let mut active_after = 0usize;
    let mut deliveries = 0u64;
    for slot in &ctx.rounds {
        let r = slot.lock();
        active_after += r.active_after;
        deliveries += r.distinct_dsts;
    }
    rt.metrics.supersteps.inc();
    rt.metrics.computed.add(computed as u64);
    rt.metrics.frames_remote.add(frames_sent);
    rt.metrics.frames_local.add(local_delivered);
    rt.metrics
        .compute_us
        .record((pool_times.critical_path_seconds() * 1e6) as u64);
    rt.metrics
        .superstep_us
        .record(rt.endpoint.obs().now_us().saturating_sub(wall_start_us));
    rt.endpoint.obs().span(
        "bsp.superstep",
        proto::BSP_MSG,
        net_delta.remote_bytes,
        frames_sent.min(u32::MAX as u64) as u32,
        wall_start_us,
    );
    {
        let mut a = ctx.agg.lock();
        a.arrived += 1;
        a.active += active_after;
        a.computed += computed;
        a.deliveries += deliveries;
        a.remote_frames += frames_sent;
        a.local_frames += local_delivered;
        a.compute_max = a.compute_max.max(pool_times.critical_path_seconds());
        a.compute_sum += pool_times.cpu_seconds();
        if ctx.cost.transfer_seconds(&net_delta) > ctx.cost.transfer_seconds(&a.net_max) {
            a.net_max = net_delta;
        }
    }
    let leader = ctx.global_barrier.wait().is_leader();
    if leader {
        let mut a = ctx.agg.lock();
        let quiet = a.deliveries == 0 && a.active == 0;
        // Stop on quiescence, the superstep cap, or a lapsed serving
        // deadline (the job ends un-terminated with partial state).
        a.decision_stop = quiet || superstep + 1 >= ctx.cfg.max_supersteps || deadline_expired();
        let compute_parallel = a.compute_sum / ctx.machines as f64;
        let modeled = compute_parallel
            + ctx.cost.transfer_seconds(&a.net_max)
            + 2.0 * ctx.cost.envelope_latency_s * (ctx.machines as f64).log2().max(1.0);
        ctx.reports.lock().push(SuperstepReport {
            superstep: ctx.superstep_offset + superstep,
            computed: a.computed,
            active_after: a.active,
            remote_messages: a.remote_frames,
            local_messages: a.local_frames,
            compute_seconds: a.compute_max,
            compute_cpu_seconds: a.compute_sum,
            compute_parallel_seconds: compute_parallel,
            max_machine_net: a.net_max,
            modeled_seconds: modeled,
        });
        if a.decision_stop {
            if quiet {
                ctx.terminated.store(true, Ordering::Release);
            }
            ctx.stop.store(true, Ordering::Release);
        }
        *a = RoundAgg::default();
    }
    ctx.global_barrier.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// Classic Pregel example: propagate the maximum vertex id.
    struct MaxValue;

    impl VertexProgram for MaxValue {
        type State = u64;
        type Msg = u64;

        fn init(&self, id: CellId, _view: &trinity_graph::NodeView<'_>) -> u64 {
            id
        }

        fn compute(
            &self,
            ctx: &mut VertexContext<'_, u64>,
            _id: CellId,
            state: &mut u64,
            msgs: &[u64],
        ) {
            let before = *state;
            for &m in msgs {
                *state = (*state).max(m);
            }
            if ctx.superstep() == 0 || *state > before {
                ctx.send_to_neighbors(*state);
            }
            ctx.vote_to_halt();
        }

        fn encode_msg(m: &u64) -> Vec<u8> {
            m.to_le_bytes().to_vec()
        }

        fn decode_msg(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }

        fn encode_state(s: &u64) -> Vec<u8> {
            s.to_le_bytes().to_vec()
        }

        fn decode_state(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }

        fn combine(a: &mut u64, b: &u64) -> bool {
            *a = (*a).max(*b);
            true
        }
    }

    fn run_max(csr: &Csr, machines: usize, cfg: BspConfig) -> BspResult<MaxValue> {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, &LoadOptions::default()).unwrap());
        let result = BspRunner::new(graph, MaxValue, cfg).run();
        cloud.shutdown();
        result
    }

    fn ring(n: usize) -> Csr {
        let edges: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
        Csr::undirected_from_edges(n, &edges, true)
    }

    #[test]
    fn max_propagation_converges_on_a_ring() {
        let n = 40;
        let r = run_max(&ring(n), 3, BspConfig::default());
        assert_eq!(r.states.len(), n);
        assert!(
            r.states.values().all(|&v| v == (n - 1) as u64),
            "all vertices learn the max"
        );
        // A ring needs about n/2 supersteps to converge, then one quiet step.
        assert!(
            r.supersteps() >= n / 2 && r.supersteps() <= n,
            "{} supersteps",
            r.supersteps()
        );
    }

    #[test]
    fn terminates_immediately_when_everyone_halts_silently() {
        struct Silent;
        impl VertexProgram for Silent {
            type State = ();
            type Msg = u64;
            fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) {}
            fn compute(
                &self,
                ctx: &mut VertexContext<'_, u64>,
                _id: CellId,
                _s: &mut (),
                _m: &[u64],
            ) {
                ctx.vote_to_halt();
            }
            fn encode_msg(m: &u64) -> Vec<u8> {
                m.to_le_bytes().to_vec()
            }
            fn decode_msg(b: &[u8]) -> Option<u64> {
                Some(u64::from_le_bytes(b.try_into().ok()?))
            }
            fn encode_state(_s: &()) -> Vec<u8> {
                Vec::new()
            }
            fn decode_state(_b: &[u8]) -> Option<()> {
                Some(())
            }
        }
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let graph =
            Arc::new(load_graph(Arc::clone(&cloud), &ring(10), &LoadOptions::default()).unwrap());
        let r = BspRunner::new(graph, Silent, BspConfig::default()).run();
        assert_eq!(r.supersteps(), 1);
        cloud.shutdown();
    }

    #[test]
    fn all_messaging_modes_agree() {
        let csr = trinity_graphgen::social(200, 10, 3);
        let base = run_max(
            &csr,
            3,
            BspConfig {
                hub_threshold: None,
                ..BspConfig::default()
            },
        );
        for cfg in [
            BspConfig {
                messaging: MessagingMode::Unpacked,
                hub_threshold: None,
                ..BspConfig::default()
            },
            BspConfig {
                hub_threshold: Some(8),
                ..BspConfig::default()
            },
            BspConfig {
                combine: true,
                hub_threshold: None,
                ..BspConfig::default()
            },
            BspConfig {
                combine: true,
                hub_threshold: Some(4),
                ..BspConfig::default()
            },
        ] {
            let r = run_max(&csr, 3, cfg.clone());
            assert_eq!(r.states, base.states, "config {cfg:?} changed the results");
        }
    }

    #[test]
    fn hub_buffering_reduces_remote_messages_on_power_law() {
        let csr = trinity_graphgen::power_law(2_000, 2.16, 1, 400, 5);
        let plain = run_max(
            &csr,
            4,
            BspConfig {
                hub_threshold: None,
                combine: false,
                ..BspConfig::default()
            },
        );
        let hubbed = run_max(
            &csr,
            4,
            BspConfig {
                hub_threshold: Some(8),
                combine: false,
                ..BspConfig::default()
            },
        );
        assert_eq!(plain.states, hubbed.states);
        let plain_msgs: u64 = plain.reports.iter().map(|r| r.remote_messages).sum();
        let hub_msgs: u64 = hubbed.reports.iter().map(|r| r.remote_messages).sum();
        assert!(
            (hub_msgs as f64) < 0.75 * plain_msgs as f64,
            "hub buffering should cut remote frames by >25%: {hub_msgs} vs {plain_msgs}"
        );
    }

    #[test]
    fn hub_buffering_collapses_star_broadcasts() {
        // A star: node 0 connects to everyone. Broadcasting from the hub
        // should cost one frame per machine instead of one per neighbor.
        let n = 800;
        let edges: Vec<(u64, u64)> = (1..n as u64).map(|v| (0, v)).collect();
        let csr = Csr::undirected_from_edges(n, &edges, true);
        let plain = run_max(
            &csr,
            4,
            BspConfig {
                hub_threshold: None,
                combine: false,
                ..BspConfig::default()
            },
        );
        let hubbed = run_max(
            &csr,
            4,
            BspConfig {
                hub_threshold: Some(100),
                combine: false,
                ..BspConfig::default()
            },
        );
        assert_eq!(plain.states, hubbed.states);
        // Superstep 0: the hub alone sends ~600 remote frames plain,
        // but only <= 3 hub frames when buffered (leaves send to node 0
        // either way).
        let plain_msgs: u64 = plain.reports.iter().map(|r| r.remote_messages).sum();
        let hub_msgs: u64 = hubbed.reports.iter().map(|r| r.remote_messages).sum();
        assert!(
            hub_msgs * 3 < plain_msgs * 2,
            "star hub should collapse broadcasts: {hub_msgs} vs {plain_msgs}"
        );
    }

    #[test]
    fn packing_reduces_envelopes_not_frames() {
        let csr = trinity_graphgen::social(400, 16, 8);
        let packed = run_max(
            &csr,
            3,
            BspConfig {
                hub_threshold: None,
                ..BspConfig::default()
            },
        );
        let unpacked = run_max(
            &csr,
            3,
            BspConfig {
                messaging: MessagingMode::Unpacked,
                hub_threshold: None,
                ..BspConfig::default()
            },
        );
        assert_eq!(packed.states, unpacked.states);
        let env_packed: u64 = packed
            .reports
            .iter()
            .map(|r| r.max_machine_net.remote_envelopes)
            .sum();
        let env_unpacked: u64 = unpacked
            .reports
            .iter()
            .map(|r| r.max_machine_net.remote_envelopes)
            .sum();
        assert!(
            env_packed * 3 < env_unpacked,
            "packing should collapse envelopes: {env_packed} vs {env_unpacked}"
        );
        assert!(packed.modeled_seconds() < unpacked.modeled_seconds());
    }

    #[test]
    fn general_model_point_sends_reach_arbitrary_vertices() {
        /// Every vertex sends its id to vertex 0 in superstep 0; vertex 0
        /// sums what it received.
        struct SendToZero;
        impl VertexProgram for SendToZero {
            type State = u64;
            type Msg = u64;
            fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) -> u64 {
                0
            }
            fn compute(
                &self,
                ctx: &mut VertexContext<'_, u64>,
                id: CellId,
                state: &mut u64,
                msgs: &[u64],
            ) {
                if ctx.superstep() == 0 && id != 0 {
                    ctx.send(0, id);
                }
                for &m in msgs {
                    *state += m;
                }
                ctx.vote_to_halt();
            }
            fn encode_msg(m: &u64) -> Vec<u8> {
                m.to_le_bytes().to_vec()
            }
            fn decode_msg(b: &[u8]) -> Option<u64> {
                Some(u64::from_le_bytes(b.try_into().ok()?))
            }
            fn encode_state(s: &u64) -> Vec<u8> {
                s.to_le_bytes().to_vec()
            }
            fn decode_state(b: &[u8]) -> Option<u64> {
                Some(u64::from_le_bytes(b.try_into().ok()?))
            }
        }
        let n = 30u64;
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        let graph = Arc::new(
            load_graph(
                Arc::clone(&cloud),
                &ring(n as usize),
                &LoadOptions::default(),
            )
            .unwrap(),
        );
        let r = BspRunner::new(
            graph,
            SendToZero,
            BspConfig {
                hub_threshold: None,
                ..BspConfig::default()
            },
        )
        .run();
        assert_eq!(r.states[&0], (1..n).sum::<u64>());
        cloud.shutdown();
    }
}
