//! The vertex-centric BSP runtime (paper §5.3–5.4).
//!
//! A computation is expressed as iterative supersteps; in each superstep
//! every vertex acts as an independent agent: it receives the messages
//! sent to it in the previous superstep, computes, sends messages, and may
//! vote to halt (a halted vertex is reawakened by an incoming message).
//!
//! The model is the paper's restrictive one: a vertex sends one message,
//! to all its out-neighbors ([`VertexContext::send_to_neighbors`]). That
//! fixed pattern is what makes §5.4's hub buffering possible; Pregel's
//! general model and sender-side combiners are not offered (DESIGN §10).
//! Messages cross machines as *run frames* ([`runs`], DESIGN §14) in the
//! fabric's per-destination pack buffers (§4.2), by the one route the
//! graph allows: on a reverse traversable graph a broadcast is one
//! `BSP_HUB` record per other machine its out-list reaches, naming only
//! the sender and shipping its value XORed with the sender's last (both
//! ends keep that base, zeroed when a job segment starts), which that
//! machine rebuilds and fans out through an index of its own in-edges;
//! on a directed graph loaded without in-links it is one `BSP_MSG`
//! record per machine holding neighbors, naming them.
//!
//! Superstep synchronization uses message fences: after computing, each
//! machine tells every peer how many run frames it sent; a machine enters
//! the barrier only once it has received every announced frame, so no
//! message of superstep `s` can leak into superstep `s + 1`.
//!
//! This file is the *runner* (program interface, job setup, one driver
//! per machine); `pool` is a machine's worker pool, `path` the message
//! path from a worker's send to the shard inboxes.

mod path;
mod pool;
pub mod runs;

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};

use parking_lot::Mutex;

use trinity_graph::DistributedGraph;
use trinity_memcloud::CellId;
use trinity_net::{current_deadline, DeadlineGuard, MachineId, StatsDelta};
use trinity_obs::{next_trace_id, TraceGuard};

use crate::proto;
use path::{Fanout, Inbox, MachineRt, Slots};
use pool::{RoundAgg, WorkerState};

/// Per-machine callback fired at the start of every superstep, by the
/// machine's pool leader, before any worker computes that superstep (a
/// pool barrier orders the hook against the compute phase). The bucket
/// prefetcher (`trinity-core::prefetch`) implements this to fault the
/// scheduled bucket's trunks in and kick off a background load of the
/// next bucket's, for whatever reads cells while the job runs; the job's
/// own compute reads none: its census copied the out-lists.
pub trait SuperstepHook: Send + Sync {
    /// `superstep` is absolute (resume offsets included).
    fn superstep_start(&self, machine: usize, superstep: usize);
}

/// BSP job configuration.
#[derive(Clone)]
pub struct BspConfig {
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

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
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

/// Per-vertex compute context. Lends the vertex its out-list from the
/// job's census copy, so the per-vertex hot loop reads no cell.
pub struct VertexContext<'a, M> {
    superstep: usize,
    outs: &'a [CellId],
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

    /// Send `msg` to every out-neighbor (a later call in the same
    /// superstep replaces it).
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

/// State needed to continue a BSP job from a superstep boundary (also
/// the shape of one machine's slice of it, and of a job's exit state).
pub struct ResumePoint<P: VertexProgram> {
    pub states: HashMap<CellId, P::State>,
    pub pending: HashMap<CellId, Vec<P::Msg>>,
    pub active: std::collections::HashSet<CellId>,
}

impl<P: VertexProgram> Default for ResumePoint<P> {
    fn default() -> Self {
        ResumePoint {
            states: HashMap::new(),
            pending: HashMap::new(),
            active: Default::default(),
        }
    }
}

/// Measurements for one superstep.
#[derive(Debug, Clone, Default)]
pub struct SuperstepReport {
    pub superstep: usize,
    /// Vertices computed this superstep.
    pub computed: usize,
    /// Vertices still active after the superstep.
    pub active_after: usize,
    /// Remote deliveries sent: on the hub route one per broadcast and
    /// machine it reaches (which fans it out as local deliveries), on the
    /// grouped route one per remote neighbor a record names.
    pub remote_messages: u64,
    /// Machine-local message deliveries (free).
    pub local_messages: u64,
    /// Critical-path compute seconds, max over machines: per machine, the
    /// slowest pool worker's CPU time. This is the superstep latency a
    /// real cluster with that many cores per machine could not beat.
    pub compute_seconds: f64,
    /// Aggregate compute CPU seconds across every machine and worker.
    pub compute_cpu_seconds: f64,
    /// Network traffic delta, max over machines (the bottleneck link).
    pub max_machine_net: StatsDelta,
    /// Modeled cluster seconds: the aggregate compute divided by the
    /// machine count (even progress, one CPU per machine) + priced
    /// bottleneck traffic + barrier.
    pub modeled_seconds: f64,
}

/// The distributed BSP job runner.
pub struct BspRunner<P: VertexProgram> {
    graph: Arc<DistributedGraph>,
    program: P,
    cfg: BspConfig,
}

impl<P: VertexProgram> BspRunner<P> {
    /// Prepare a job over `graph`.
    pub fn new(graph: Arc<DistributedGraph>, program: P, cfg: BspConfig) -> Self {
        BspRunner {
            graph,
            program,
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
        let resumed = resume.is_some();
        let mut split: Vec<ResumePoint<P>> =
            (0..machines).map(|_| ResumePoint::default()).collect();
        if let Some(r) = resume {
            let table = self.graph.cloud().node(0).table();
            let owner = |id| table.machine_of(id).0 as usize;
            for (id, st) in r.states {
                split[owner(id)].states.insert(id, st);
            }
            for (id, msgs) in r.pending {
                split[owner(id)].pending.insert(id, msgs);
            }
            for id in r.active {
                split[owner(id)].active.insert(id);
            }
        }
        let job = Job {
            graph: &self.graph,
            program: &self.program,
            cfg: &self.cfg,
            resumed,
            superstep_offset,
            // One trace id for the whole job: every driver thread installs
            // it, so all BSP traffic (run frames and fences) is stamped
            // with it and the job can be reconstructed from span rings
            // across the cluster.
            trace: next_trace_id(),
            // A serving-tier deadline installed on the submitting thread is
            // inherited by every machine driver: the job aborts between
            // supersteps once the budget lapses.
            deadline: current_deadline(),
            barrier: Barrier::new(machines),
            agg: Mutex::default(),
            stop: AtomicBool::new(false),
            terminated: AtomicBool::new(false),
            reports: Mutex::default(),
            finals: Mutex::default(),
        };
        std::thread::scope(|scope| {
            for (m, resume) in split.into_iter().enumerate() {
                let job = &job;
                scope.spawn(move || machine_driver(job, m, resume));
            }
        });
        let finals = job.finals.into_inner();
        BspResult {
            states: finals.states,
            reports: job.reports.into_inner(),
            terminated: job.terminated.into_inner(),
            pending: finals.pending,
            active: finals.active,
        }
    }
}

/// What the machine drivers and pool workers of one job share: the
/// program and the cross-machine control plane (leaders only).
struct Job<'x, P: VertexProgram> {
    graph: &'x DistributedGraph,
    program: &'x P,
    cfg: &'x BspConfig,
    /// Continues a checkpoint (else every vertex starts active).
    resumed: bool,
    superstep_offset: usize,
    trace: u64,
    deadline: u64,
    barrier: Barrier,
    agg: Mutex<RoundAgg>,
    stop: AtomicBool,
    terminated: AtomicBool,
    reports: Mutex<Vec<SuperstepReport>>,
    /// Merged exit state of all drivers.
    finals: Mutex<ResumePoint<P>>,
}

fn machine_driver<P: VertexProgram>(job: &Job<'_, P>, m: usize, mut resume: ResumePoint<P>) {
    // The job's trace id covers every send/call this driver thread makes,
    // and the submitter's deadline budget bounds them.
    let _trace_guard = TraceGuard::enter(job.trace);
    let _deadline_guard = DeadlineGuard::enter(job.deadline);
    let handle = job.graph.handle(m);
    let machines = job.graph.machines();

    // A hub's record names only itself, so the receiving machine must
    // find the hub's neighbors among its own vertices' in-neighbors: the
    // graph must be reverse traversable (symmetric out-lists or stored
    // in-links, which agree with the out-lists). On a directed graph
    // loaded without in-links every broadcast ships as grouped records.
    let hubs = job.graph.reverse_traversable();
    let node = job.graph.cloud().node(m);
    let table = node.table();

    // --- Setup: local vertex census + state init -----------------------
    // The job's one read of its topology. States are initialized where
    // the program gets zero-copy access to each cell (on resume,
    // checkpointed states win). Each out-list is copied to `adj`, and on
    // the hub route each in-list: the out-list when none is stored
    // (undirected).
    let mut adj: Vec<CellId> = Vec::new();
    let mut local = Vec::new();
    handle.for_each_local_node(|id, view| {
        let state = resume
            .states
            .remove(&id)
            .unwrap_or_else(|| job.program.init(id, &view));
        let start = adj.len();
        adj.extend(view.outs());
        let outs = start..adj.len();
        let ins = if view.has_ins() && hubs {
            adj.extend(view.ins());
            outs.end..adj.len()
        } else {
            outs.clone()
        };
        local.push((id, state, outs, ins));
    });
    local.sort_unstable_by_key(|v| v.0);

    // --- Worker pool setup ---------------------------------------------
    // Shard every local vertex (and all resumed state) by
    // `trunk_of(id) % workers` — the same pure routing the receive
    // handlers use, so a message lands in exactly the inbox of the worker
    // that owns its destination.
    let workers = resolve_compute_threads(
        job.cfg.compute_threads,
        table.trunks_of(MachineId(m as u16)).len(),
    );
    let shard_of = |id| path::shard_of(&table, workers, id);
    let proto = if hubs { proto::BSP_HUB } else { proto::BSP_MSG };
    let mut shards: Vec<WorkerState<P>> = (0..workers)
        .map(|w| WorkerState::new(w, machines, workers, proto))
        .collect();
    let (mut ins, mut peers) = (Vec::new(), Vec::new());
    for (id, state, outs, in_range) in local {
        let (ws, outs) = (&mut shards[shard_of(id)], &adj[outs]);
        ws.ids.push(id);
        ws.states.push(state);
        ws.outs.push(outs);
        peers.clear();
        if hubs {
            peers.extend(outs.iter().map(|&v| table.machine_of(v).0));
            peers.retain(|&p| p as usize != m);
            peers.sort_unstable();
            peers.dedup();
            ins.push((id, &adj[in_range]));
        }
        ws.peers.push(&peers);
    }
    // Resumed states the census did not list take the slots after the
    // local vertices': carried through, never computed.
    for (id, state) in resume.states {
        let ws = &mut shards[shard_of(id)];
        ws.ids.push(id);
        ws.states.push(state);
    }

    // --- Runtime: slot tables, fan-out index, receive handlers ---------
    let slots: Vec<Slots> = shards.iter().map(|ws| Slots::new(&ws.ids)).collect();
    let fanout = Fanout::build(&ins, &table, &slots);
    // The shards hold their own copies: free the census's.
    drop(ins);
    drop(adj);
    let rt = Arc::new(MachineRt::<P>::new(
        Arc::clone(node.endpoint()),
        machines,
        table,
        slots,
        fanout,
    ));
    rt.register_handlers();
    rt.metrics.pool_workers.add(workers as u64);

    // Initial pending messages take the drain's path into the inboxes.
    let mut staged = rt.staging();
    for (id, msgs) in resume.pending {
        for msg in msgs {
            rt.stage_point(&mut staged, id, msg);
        }
    }
    for (ws, arrivals) in shards.iter_mut().zip(staged) {
        ws.inbox = Inbox::new(ws.ids.len());
        ws.inbox.fill(arrivals, &rt.fanout.targets, P::msg_cmp);
        ws.active = vec![!job.resumed; ws.ids.len()];
        ws.bases = vec![0; ws.outs.len()];
    }
    for id in resume.active {
        let w = rt.shard_of(id);
        match rt.slots[w].get(id) {
            Some(s) => shards[w].active[s] = true,
            None => shards[w].stray_active.push(id),
        }
    }

    // No peer may send this job anything before every machine has
    // installed its handlers and built its fan-out index.
    job.barrier.wait();
    pool::run(job, m, &rt, hubs, shards);
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// `csr` loaded into `cloud` for the hub route (`hubs`: in-links
    /// stored, so reverse traversable) or the grouped route (directed,
    /// no in-links), replacing what `cloud` held.
    fn load_for(cloud: &Arc<MemoryCloud>, csr: &Csr, hubs: bool) -> Arc<DistributedGraph> {
        let mut csr = csr.clone();
        csr.directed |= !hubs;
        let opts = LoadOptions {
            with_in_links: hubs,
            attrs: None,
        };
        Arc::new(load_graph(Arc::clone(cloud), &csr, &opts).unwrap())
    }

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
    }

    /// [`MaxValue`] on `csr` over `machines` machines, on the hub route or
    /// the grouped one.
    fn run_max(csr: &Csr, machines: usize, hubs: bool) -> BspResult<MaxValue> {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let graph = load_for(&cloud, csr, hubs);
        let result = BspRunner::new(graph, MaxValue, BspConfig::default()).run();
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
        let r = run_max(&ring(n), 3, true);
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
    fn a_finished_job_frees_its_runtime() {
        // Each machine's runtime holds its endpoint; the handlers it
        // installs there must not keep it alive once `run` returns. A
        // handler still finishing the last fence may hold it a moment
        // longer, so the count is awaited, not read once.
        let machines = 3;
        for hubs in [true, false] {
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
            let graph = load_for(&cloud, &ring(40), hubs);
            let held = || -> Vec<usize> {
                let nodes = cloud.nodes().iter();
                nodes.map(|n| Arc::strong_count(n.endpoint())).collect()
            };
            let before = held();
            let r = BspRunner::new(graph, MaxValue, BspConfig::default()).run();
            assert!(r.terminated);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while held() != before && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(held(), before, "hubs {hubs}");
            cloud.shutdown();
        }
    }

    /// Every vertex broadcasts its id in superstep 0 and keeps what it
    /// receives in superstep 1.
    struct Inbound;

    impl VertexProgram for Inbound {
        type State = Vec<u64>;
        type Msg = u64;
        fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) -> Vec<u64> {
            Vec::new()
        }
        fn compute(
            &self,
            ctx: &mut VertexContext<'_, u64>,
            id: CellId,
            state: &mut Vec<u64>,
            msgs: &[u64],
        ) {
            if ctx.superstep() == 0 {
                ctx.send_to_neighbors(id);
            }
            state.extend_from_slice(msgs);
            ctx.vote_to_halt();
        }
        fn encode_msg(m: &u64) -> Vec<u8> {
            m.to_le_bytes().to_vec()
        }
        fn decode_msg(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        fn encode_state(_s: &Vec<u64>) -> Vec<u8> {
            Vec::new()
        }
        fn decode_state(_b: &[u8]) -> Option<Vec<u64>> {
            Some(Vec::new())
        }
        fn msg_cmp(a: &u64, b: &u64) -> std::cmp::Ordering {
            a.cmp(b)
        }
    }

    #[test]
    fn casts_and_records_deliver_the_same_multisets() {
        let n = 24u64;
        for directed in [false, true] {
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
            let table = cloud.node(0).table();
            let owner = |v: u64| table.machine_of(v);
            let a = 0;
            let near = (1..n).find(|&v| owner(v) == owner(a)).unwrap();
            let far = (1..n).find(|&v| owner(v) != owner(a)).unwrap();
            // A ring, a doubled self-loop, and edges repeated to a vertex
            // on the sender's machine and from one on the other.
            let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            edges.extend([
                (a, a),
                (a, a),
                (a, near),
                (a, near),
                (a, near),
                (far, a),
                (far, a),
            ]);
            let csr = if directed {
                Csr::from_arcs(n as usize, edges, true, false)
            } else {
                Csr::undirected_from_edges(n as usize, &edges, false)
            };
            let mut want: HashMap<CellId, Vec<u64>> = (0..n).map(|v| (v, Vec::new())).collect();
            for u in 0..n {
                for &v in csr.neighbors(u) {
                    want.get_mut(&v).unwrap().push(u);
                }
            }
            want.values_mut().for_each(|m| m.sort_unstable());
            assert!(want[&a].iter().filter(|&&u| u == a).count() >= 2);
            assert!(want[&near].iter().filter(|&&u| u == a).count() >= 3);
            assert!(want[&a].iter().filter(|&&u| u == far).count() >= 2);
            for hubs in [true, false] {
                let graph = load_for(&cloud, &csr, hubs);
                for compute_threads in [1, 3] {
                    let cfg = BspConfig {
                        compute_threads,
                        ..BspConfig::default()
                    };
                    let r = BspRunner::new(Arc::clone(&graph), Inbound, cfg).run();
                    assert_eq!(
                        r.states, want,
                        "directed {directed}, hubs {hubs}, {compute_threads} threads"
                    );
                }
            }
            cloud.shutdown();
        }
    }

    /// Supersteps in which [`OutLists`] reads its out-list and broadcasts.
    const OUT_ROUNDS: usize = 4;

    /// An order-sensitive hash of `list`, folded into `h`.
    fn fold_list(h: u64, list: &[CellId]) -> u64 {
        list.iter().fold(h ^ list.len() as u64, |h, &v| {
            (h ^ v).wrapping_mul(0x0100_0000_01b3).rotate_left(23)
        })
    }

    /// Folds `out_neighbors()` into its state's first half in each of the
    /// first [`OUT_ROUNDS`] supersteps and broadcasts its id in each, then
    /// halts; the second half sums what it receives.
    struct OutLists;

    impl VertexProgram for OutLists {
        type State = (u64, u64);
        type Msg = u64;
        fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) -> (u64, u64) {
            (0, 0)
        }
        fn compute(
            &self,
            ctx: &mut VertexContext<'_, u64>,
            id: CellId,
            state: &mut (u64, u64),
            msgs: &[u64],
        ) {
            if ctx.superstep() < OUT_ROUNDS {
                state.0 = fold_list(state.0, ctx.out_neighbors());
                ctx.send_to_neighbors(id);
            }
            state.1 = msgs.iter().fold(state.1, |a, &m| a.wrapping_add(m));
            if ctx.superstep() + 1 >= OUT_ROUNDS {
                ctx.vote_to_halt();
            }
        }
        fn encode_msg(m: &u64) -> Vec<u8> {
            m.to_le_bytes().to_vec()
        }
        fn decode_msg(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        fn encode_state(_s: &(u64, u64)) -> Vec<u8> {
            Vec::new()
        }
        fn decode_state(_b: &[u8]) -> Option<(u64, u64)> {
            None
        }
    }

    #[test]
    fn a_resumed_job_lends_every_vertex_its_out_list() {
        let n = 30u64;
        // A ring, chords, a doubled self-loop and a repeated arc.
        let mut arcs: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        arcs.extend((0..n).step_by(3).map(|v| (v, (v * 7 + 2) % n)));
        arcs.extend([(4, 4), (4, 4), (9, 2), (9, 2)]);
        let csr = Csr::from_arcs(n as usize, arcs, true, false);
        let mut want: HashMap<CellId, (u64, u64)> = (0..n)
            .map(|u| {
                let folded = (0..OUT_ROUNDS).fold(0, |h, _| fold_list(h, csr.neighbors(u)));
                (u, (folded, 0))
            })
            .collect();
        for u in 0..n {
            for &v in csr.neighbors(u) {
                want.get_mut(&v).unwrap().1 += u * OUT_ROUNDS as u64;
            }
        }
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        for hubs in [true, false] {
            let graph = load_for(&cloud, &csr, hubs);
            // Stop after `split` supersteps, then resume from there.
            for split in 1..=OUT_ROUNDS {
                let cfg = |max_supersteps| BspConfig {
                    compute_threads: 2,
                    max_supersteps,
                    ..BspConfig::default()
                };
                let runner = BspRunner::new(Arc::clone(&graph), OutLists, cfg(split));
                let first = runner.run();
                assert!(!first.terminated);
                let runner = BspRunner::new(Arc::clone(&graph), OutLists, cfg(64));
                let r = runner.run_resumed(Some(first.into_resume()), split);
                assert!(r.terminated);
                assert_eq!(r.states, want, "hubs {hubs}, resumed at {split}");
            }
        }
        cloud.shutdown();
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
    fn the_two_routes_agree() {
        let csr = trinity_graphgen::social(200, 10, 3);
        let hubbed = run_max(&csr, 3, true);
        let grouped = run_max(&csr, 3, false);
        assert_eq!(hubbed.states, grouped.states);
    }

    #[test]
    fn hub_buffering_reduces_remote_messages_on_power_law() {
        let csr = trinity_graphgen::power_law(2_000, 2.16, 1, 400, 5);
        let grouped = run_max(&csr, 4, false);
        let hubbed = run_max(&csr, 4, true);
        assert_eq!(grouped.states, hubbed.states);
        let grouped_msgs: u64 = grouped.reports.iter().map(|r| r.remote_messages).sum();
        let hub_msgs: u64 = hubbed.reports.iter().map(|r| r.remote_messages).sum();
        assert!(
            (hub_msgs as f64) < 0.75 * grouped_msgs as f64,
            "hub buffering should cut remote deliveries by >25%: {hub_msgs} vs {grouped_msgs}"
        );
    }

    #[test]
    fn hub_buffering_collapses_star_broadcasts() {
        // A star: node 0 connects to everyone. Broadcasting from the hub
        // should cost one delivery per machine instead of one per neighbor.
        let n = 800;
        let edges: Vec<(u64, u64)> = (1..n as u64).map(|v| (0, v)).collect();
        let csr = Csr::undirected_from_edges(n, &edges, true);
        let grouped = run_max(&csr, 4, false);
        let hubbed = run_max(&csr, 4, true);
        assert_eq!(grouped.states, hubbed.states);
        // Superstep 0: the hub alone sends ~600 remote deliveries grouped,
        // but only <= 3 hub records (leaves send to node 0 either way).
        let grouped_msgs: u64 = grouped.reports.iter().map(|r| r.remote_messages).sum();
        let hub_msgs: u64 = hubbed.reports.iter().map(|r| r.remote_messages).sum();
        assert!(
            hub_msgs * 3 < grouped_msgs * 2,
            "star hub should collapse broadcasts: {hub_msgs} vs {grouped_msgs}"
        );
    }

    #[test]
    fn a_frame_with_an_undecodable_message_is_dropped_whole_and_counted() {
        /// Every vertex broadcasts its id in supersteps 0 and 1 and sums
        /// what each brought. The poison id goes out in superstep 0 as a
        /// message no `decode_msg` accepts, the reserved all-ones pattern,
        /// at the width of every other message: it shares their frames.
        /// On the hub route the dropped frame's bases still move, as its
        /// sender's did, so superstep 1's records, most of them repeats
        /// shipped as a head byte alone, rebuild to the right values.
        struct Poisoned(u64);
        impl VertexProgram for Poisoned {
            type State = (u64, u64);
            type Msg = (u64, bool);
            fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) -> (u64, u64) {
                (0, 0)
            }
            fn compute(
                &self,
                ctx: &mut VertexContext<'_, (u64, bool)>,
                id: CellId,
                state: &mut (u64, u64),
                msgs: &[(u64, bool)],
            ) {
                // Wrapping: a wrongly rebuilt value must fail the test's
                // assertion, not overflow the sum.
                let sum = msgs.iter().fold(0, |sum, m| m.0.wrapping_add(sum));
                match ctx.superstep() {
                    0 => ctx.send_to_neighbors((id, id == self.0)),
                    1 => {
                        ctx.send_to_neighbors((id, false));
                        state.0 = sum;
                    }
                    _ => {
                        state.1 = sum;
                        ctx.vote_to_halt();
                    }
                }
            }
            fn encode_msg(m: &(u64, bool)) -> Vec<u8> {
                let v = if m.1 { u64::MAX } else { m.0 };
                v.to_le_bytes().to_vec()
            }
            fn decode_msg(b: &[u8]) -> Option<(u64, bool)> {
                let v = u64::from_le_bytes(b.try_into().ok()?);
                (v != u64::MAX).then_some((v, false))
            }
            fn encode_state(s: &(u64, u64)) -> Vec<u8> {
                [s.0, s.1].iter().flat_map(|v| v.to_le_bytes()).collect()
            }
            fn decode_state(b: &[u8]) -> Option<(u64, u64)> {
                let (a, b) = b.split_at_checked(8)?;
                Some((
                    u64::from_le_bytes(a.try_into().ok()?),
                    u64::from_le_bytes(b.try_into().ok()?),
                ))
            }
        }
        let n = 30u64;
        let csr = ring(n as usize);
        for hubs in [true, false] {
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
            let graph = load_for(&cloud, &csr, hubs);
            let table = cloud.node(0).table();
            let owner = |v: u64| table.machine_of(v);
            let poison = 7;
            // One worker per machine ships one frame per peer: every
            // machine the poison's broadcast reaches loses everything its
            // machine sent there, and nothing else.
            let poisoned: Vec<_> = csr.neighbors(poison).iter().map(|&v| owner(v)).collect();
            let lost = |u: u64, v: u64| {
                owner(u) == owner(poison) && owner(v) != owner(u) && poisoned.contains(&owner(v))
            };
            let want: HashMap<CellId, (u64, u64)> = (0..n)
                .map(|v| {
                    let kept = csr.neighbors(v).iter().filter(|&&u| !lost(u, v));
                    (v, (kept.sum(), csr.neighbors(v).iter().sum()))
                })
                .collect();
            let mut peers: Vec<_> = poisoned.iter().filter(|&&p| p != owner(poison)).collect();
            peers.sort_unstable();
            peers.dedup();
            assert!(!peers.is_empty(), "the poison reaches another machine");
            let cfg = BspConfig {
                compute_threads: 1,
                ..BspConfig::default()
            };
            // The fence still balances: the job ends instead of hanging.
            let r = BspRunner::new(graph, Poisoned(poison), cfg).run();
            assert!(r.terminated);
            assert_eq!(r.states, want, "hubs {hubs}");
            let counters = cloud.fabric().obs().snapshot().totals().counters;
            assert_eq!(counters["bsp.frames.malformed"], peers.len() as u64);
            cloud.shutdown();
        }
    }

    #[test]
    fn a_message_of_another_width_ships_in_a_frame_of_its_own() {
        /// Three vertices of one machine broadcast 8-, 3- and 8-byte
        /// values, in id order, to one neighbor each on the other machine
        /// in superstep 0; every vertex sums what it received.
        struct Widths([CellId; 3]);
        const VALUES: [u64; 3] = [1 << 40, 5, 1 << 41];
        impl VertexProgram for Widths {
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
                let sender = self.0.iter().position(|&s| s == id);
                if let Some(i) = sender.filter(|_| ctx.superstep() == 0) {
                    ctx.send_to_neighbors(VALUES[i]);
                }
                *state += msgs.iter().sum::<u64>();
                ctx.vote_to_halt();
            }
            fn encode_msg(m: &u64) -> Vec<u8> {
                let mut bytes = m.to_le_bytes().to_vec();
                bytes.truncate(if *m < 1 << 24 { 3 } else { 8 });
                bytes
            }
            fn decode_msg(b: &[u8]) -> Option<u64> {
                if !matches!(b.len(), 3 | 8) {
                    return None;
                }
                let mut bytes = [0; 8];
                bytes[..b.len()].copy_from_slice(b);
                Some(u64::from_le_bytes(bytes))
            }
            fn encode_state(s: &u64) -> Vec<u8> {
                s.to_le_bytes().to_vec()
            }
            fn decode_state(b: &[u8]) -> Option<u64> {
                Some(u64::from_le_bytes(b.try_into().ok()?))
            }
        }
        let n = 30;
        for hubs in [true, false] {
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
            let table = cloud.node(0).table();
            let sender = table.machine_of(0);
            let (here, there): (Vec<CellId>, Vec<CellId>) =
                (0..n as u64).partition(|&v| table.machine_of(v) == sender);
            let (senders, targets) = (&here[..3], &there[..3]);
            let edges: Vec<(u64, u64)> = senders
                .iter()
                .copied()
                .zip(targets.iter().copied())
                .collect();
            let csr = Csr::undirected_from_edges(n, &edges, true);
            let graph = load_for(&cloud, &csr, hubs);
            let frames_sent = || {
                cloud
                    .fabric()
                    .obs()
                    .scope(sender.0)
                    .counter("net.frames.sent")
                    .get()
            };
            let before = frames_sent();
            let cfg = BspConfig {
                compute_threads: 1,
                ..BspConfig::default()
            };
            // The fence balances: the job ends instead of hanging.
            let r = BspRunner::new(graph, Widths([senders[0], senders[1], senders[2]]), cfg).run();
            assert!(r.terminated);
            // One fence a superstep besides the three run frames.
            assert_eq!(
                frames_sent() - before,
                3 + r.supersteps() as u64,
                "hubs {hubs}"
            );
            for (t, v) in targets.iter().zip(VALUES) {
                assert_eq!(r.states[t], v, "vertex {t}, hubs {hubs}");
            }
            assert_eq!(r.states.values().sum::<u64>(), VALUES.iter().sum::<u64>());
            let malformed =
                cloud.fabric().obs().snapshot().totals().counters["bsp.frames.malformed"];
            assert_eq!(malformed, 0);
            cloud.shutdown();
        }
    }
}
