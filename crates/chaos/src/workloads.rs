//! Chaos workloads: whole Trinity scenarios the harness runs under
//! seeded fault plans.
//!
//! Each workload builds its own cluster per run, *disarms* the injector
//! while loading data (setup traffic must not perturb the seeded fault
//! decisions), arms it for the measured phase, and captures the
//! injector's accounting with [`ChaosRun::capture`] before shutdown.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use trinity_core::checkpoint::{resume_from_checkpoint, run_with_checkpoints, CheckpointConfig};
use trinity_core::online::{explore_via, ExploreOptions};
use trinity_core::recovery::{RecoveryAgents, RecoveryConfig, RecoveryEvent};
use trinity_core::{
    BspConfig, BspRunner, Explorer, Mutation, MutationBatch, StreamingIngest, Topology,
    TrinityCluster, TrinityConfig, VertexContext, VertexProgram,
};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_net::{FaultPlan, MachineId};
use trinity_serve::{Priority, ServeConfig, ServeError, ServeRuntime};

use crate::runner::{ChaosRun, ChaosWorkload};

const CAPTURE_TIMEOUT: Duration = Duration::from_secs(10);

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Sets a scope's reader `stop` flag when dropped. Made at the top of a
/// `thread::scope` body, it stops the readers on a panic too: the scope
/// joins them before it re-raises, so a body that only stored `stop` on
/// its last line would wait on them for ever instead of failing.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Max-id propagation: the canonical deterministic BSP job. Every vertex
/// converges to the max id of its component, so the final states are a
/// pure function of the graph — any divergence under faults is a bug.
struct MaxValue;

impl VertexProgram for MaxValue {
    type State = u64;
    type Msg = u64;
    fn init(&self, id: u64, _view: &trinity_graph::NodeView<'_>) -> u64 {
        id
    }
    fn compute(&self, ctx: &mut VertexContext<'_, u64>, _id: u64, state: &mut u64, msgs: &[u64]) {
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

fn ring(n: usize) -> Csr {
    let edges: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
    Csr::undirected_from_edges(n, &edges, true)
}

fn bsp_cfg(limit: usize, compute_threads: usize) -> BspConfig {
    BspConfig {
        max_supersteps: limit,
        compute_threads,
        ..BspConfig::default()
    }
}

/// A checkpointed MaxValue BSP job on a ring, with the §6.2 recovery
/// choreography built in: the job runs `stop_at` supersteps (firing a
/// chaos mark at every checkpoint boundary, where crash schedules keyed
/// on `Trigger::Mark(superstep)` strike), recovers any machine the plan
/// crashed (reload trunks from TFS, revive, resync the addressing
/// table), then resumes from the last checkpoint to termination. The
/// final states must equal the fault-free run's exactly.
#[derive(Debug, Clone)]
pub struct BspRingMax {
    /// Cluster size.
    pub machines: usize,
    /// Ring size (the job needs ~n/2 supersteps, so keep `stop_at` well
    /// below that).
    pub n: usize,
    /// Checkpoint cadence, in supersteps.
    pub every: usize,
    /// Supersteps before the recovery barrier (a multiple of `every`).
    pub stop_at: usize,
    /// Total superstep budget for the resumed job.
    pub limit: usize,
    /// Per-machine compute threads for the BSP pool (0 = default).
    pub compute_threads: usize,
}

impl BspRingMax {
    /// A small instance for tests: 3 machines, 30-vertex ring,
    /// checkpoints every 4 supersteps, recovery barrier at 8.
    pub fn small() -> Self {
        BspRingMax {
            machines: 3,
            n: 30,
            every: 4,
            stop_at: 8,
            limit: 64,
            compute_threads: 0,
        }
    }

    /// The small instance driven by an explicitly threaded pool, for
    /// showing fault injection still replays under the parallel driver.
    pub fn small_threaded(compute_threads: usize) -> Self {
        BspRingMax {
            compute_threads,
            ..Self::small()
        }
    }
}

impl ChaosWorkload for BspRingMax {
    fn name(&self) -> &str {
        "bsp-ring-max"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            faults,
            ..CloudConfig::small(self.machines)
        }));
        let fabric = Arc::clone(cloud.fabric());
        fabric.chaos_arm(false);
        let graph = Arc::new(
            load_graph(Arc::clone(&cloud), &ring(self.n), &LoadOptions::default())
                .expect("load ring graph"),
        );
        cloud.backup_all().expect("backup trunks to TFS");
        fabric.chaos_arm(true);

        let mark_fabric = Arc::clone(&fabric);
        let ckpt = CheckpointConfig::new(self.every, "chaos-bsp")
            .with_on_segment(move |superstep| mark_fabric.chaos_mark(superstep as u64));
        let mut failures = Vec::new();
        let runner = BspRunner::new(
            Arc::clone(&graph),
            MaxValue,
            bsp_cfg(self.every, self.compute_threads),
        );
        let partial =
            run_with_checkpoints(&runner, &bsp_cfg(self.stop_at, self.compute_threads), &ckpt)
                .expect("checkpointed BSP segment");
        drop(runner);

        // Recover whatever the schedule crashed: reload the dead
        // machine's trunks onto survivors from TFS (§6.1), revive it at
        // the fabric, and let it resync the new-epoch addressing table.
        let mut recovered = Vec::new();
        for m in 0..self.machines {
            if fabric.is_dead(MachineId(m as u16)) {
                cloud.recover(m).expect("recover crashed machine");
                fabric.revive(MachineId(m as u16));
                cloud.node(m).sync_table().expect("resync table");
                recovered.push(m as u16);
            }
        }

        let result = if partial.terminated {
            partial
        } else {
            let resumed = BspRunner::new(
                Arc::clone(&graph),
                MaxValue,
                bsp_cfg(self.every, self.compute_threads),
            );
            resume_from_checkpoint(&resumed, &bsp_cfg(self.limit, self.compute_threads), &ckpt)
                .expect("resume from checkpoint")
        };
        if !result.terminated {
            failures.push("BSP job did not terminate within its budget".into());
        }
        // The default threshold makes every vertex a hub: faults must hit
        // hub records, not only the record path.
        let counters = fabric.obs().snapshot().totals().counters;
        if counters.get("bsp.hub.broadcasts").is_none_or(|&n| n == 0) {
            failures.push("no broadcast left a machine as a hub record".into());
        }
        let mut states: Vec<(u64, u64)> = result.states.iter().map(|(k, v)| (*k, *v)).collect();
        states.sort_unstable();
        let outcome = states
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect::<Vec<_>>()
            .join(",");

        let mut run = ChaosRun::capture(&fabric, outcome, CAPTURE_TIMEOUT);
        run.recovered = recovered;
        run.failures = failures;
        cloud.shutdown();
        run
    }

    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        let mut failures = Vec::new();
        if faulty.outcome != reference.outcome {
            failures.push("BSP final states diverged from the fault-free run".into());
        }
        let mut crashes = faulty.crashes();
        let mut recovered = faulty.recovered.clone();
        crashes.sort_unstable();
        recovered.sort_unstable();
        if crashes != recovered {
            failures.push(format!(
                "crashed machines {crashes:?} but recovered {recovered:?}"
            ));
        }
        failures
    }
}

/// Multi-hop neighborhood exploration from pinned start vertices on a
/// social graph. Benign faults (duplicates, delays, reordering) must not
/// change any per-hop frontier size: exploration handlers are
/// idempotent reads, and duplicate responses are discarded by
/// correlation matching.
#[derive(Debug, Clone)]
pub struct TraversalSearch {
    /// Cluster size.
    pub machines: usize,
    /// Social-graph vertex count.
    pub n: usize,
    /// Social-graph average degree.
    pub degree: usize,
    /// Hops per exploration.
    pub hops: usize,
    /// Start vertices (pinned, so runs are comparable).
    pub starts: Vec<u64>,
}

impl TraversalSearch {
    /// A small instance: 3 machines, 600 vertices, 2-hop explorations.
    pub fn small() -> Self {
        TraversalSearch {
            machines: 3,
            n: 600,
            degree: 6,
            hops: 2,
            starts: vec![1, 17, 101, 333],
        }
    }
}

impl ChaosWorkload for TraversalSearch {
    fn name(&self) -> &str {
        "traversal-search"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            faults,
            ..CloudConfig::small(self.machines)
        }));
        let fabric = Arc::clone(cloud.fabric());
        fabric.chaos_arm(false);
        let csr = trinity_graphgen::social(self.n, self.degree, 7);
        load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).expect("load social graph");
        let explorer = Explorer::install(Arc::clone(&cloud));
        fabric.chaos_arm(true);

        let mut failures = Vec::new();
        let mut pieces = Vec::new();
        for &start in &self.starts {
            let r = explorer.explore(0, start, self.hops, b"");
            if r.deadline_exceeded || r.cancelled {
                failures.push(format!("exploration from {start} was cut short"));
            }
            pieces.push(format!("{start}:{:?}", r.per_hop));
        }
        let mut run = ChaosRun::capture(&fabric, pieces.join(";"), CAPTURE_TIMEOUT);
        run.failures = failures;
        cloud.shutdown();
        run
    }

    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        if faulty.outcome != reference.outcome {
            vec![format!(
                "traversal frontiers diverged: {} != {}",
                faulty.outcome, reference.outcome
            )]
        } else {
            Vec::new()
        }
    }
}

/// A slice of the serving workload: a proxy-tier [`ServeRuntime`] fed a
/// burst of deadline-bounded exploration queries while the plan drops
/// frames and crashes slaves at submission-indexed marks. The checked
/// invariants are conservation — every submitted query is admitted or
/// shed, and every admitted query completes, cancels, or expires in
/// queue — and that no query starts running after its deadline expired.
/// Timing makes the traffic nondeterministic, so no log equality is
/// asserted (`deterministic()` is false).
#[derive(Debug, Clone)]
pub struct ServeSlice {
    /// Slave count (plus one proxy and one client endpoint).
    pub slaves: usize,
    /// Social-graph vertex count.
    pub n: usize,
    /// Social-graph average degree.
    pub degree: usize,
    /// Queries to submit.
    pub queries: usize,
    /// Per-query deadline.
    pub deadline: Duration,
    /// Submission indices at which to fire `chaos_mark(1), (2), …` —
    /// where plans schedule `Trigger::Mark(k)` crashes.
    pub marks: Vec<usize>,
}

impl ServeSlice {
    /// A smoke-sized instance: 4 slaves, 2000 vertices, 120 queries,
    /// marks at 1/3 and 2/3 of the submission stream.
    pub fn small() -> Self {
        ServeSlice {
            slaves: 4,
            n: 2_000,
            degree: 8,
            queries: 120,
            deadline: Duration::from_millis(300),
            marks: vec![40, 80],
        }
    }
}

impl ChaosWorkload for ServeSlice {
    fn name(&self) -> &str {
        "serve-slice"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        let mut cloud_cfg = CloudConfig::small(self.slaves);
        cloud_cfg.faults = faults;
        cloud_cfg.workers_per_machine = 2;
        let cluster = TrinityCluster::new(TrinityConfig {
            cloud: cloud_cfg,
            proxies: 1,
            clients: 1,
        });
        let fabric = Arc::clone(cluster.cloud().fabric());
        fabric.chaos_arm(false);
        let csr = trinity_graphgen::social(self.n, self.degree, 7);
        load_graph(Arc::clone(cluster.cloud()), &csr, &LoadOptions::default())
            .expect("load social graph");
        let _explorer = Explorer::install(Arc::clone(cluster.cloud()));
        fabric.chaos_arm(true);

        let proxy = cluster.proxy(0);
        let endpoint = Arc::clone(proxy.endpoint());
        let table = Arc::new(cluster.cloud().node(0).table());
        let slaves = cluster.slaves();
        let rt = ServeRuntime::start(
            proxy.endpoint(),
            ServeConfig {
                workers: 2,
                queue_capacity: [4, 6, 6, 8],
                default_deadline: Some(self.deadline),
            },
        );

        let started_expired = Arc::new(AtomicU64::new(0));
        let mut rng = 0x5EED_u64 | 1;
        let mut tickets = Vec::new();
        let mut shed = 0u64;
        for i in 0..self.queries {
            if let Some(k) = self.marks.iter().position(|&at| at == i) {
                fabric.chaos_mark(k as u64 + 1);
            }
            let start = xorshift(&mut rng) % self.n as u64;
            let class = if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Normal
            };
            let endpoint = Arc::clone(&endpoint);
            let table = Arc::clone(&table);
            let started_expired = Arc::clone(&started_expired);
            match rt.submit(class, Some(self.deadline), move |ctx| {
                if trinity_net::deadline_expired() {
                    started_expired.fetch_add(1, Ordering::Relaxed);
                }
                explore_via(
                    &endpoint,
                    &table,
                    slaves,
                    start,
                    2,
                    b"",
                    &ExploreOptions {
                        cancel: Some(ctx.cancel.clone()),
                        ..ExploreOptions::default()
                    },
                )
                .visited()
            }) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut completed_ok = 0u64;
        for t in tickets {
            if t.wait().is_ok() {
                completed_ok += 1;
            }
        }

        // The counters lag ticket resolution by a few instructions; poll
        // until the books balance.
        let mut failures = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let conserved = loop {
            let c = rt.counts();
            if c.submitted == c.admitted + c.shed_total() && c.admitted == c.drained() {
                break true;
            }
            if std::time::Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let counts = rt.counts();
        if !conserved {
            failures.push(format!(
                "serve counters never conserved: {counts:?} (locally observed shed={shed})"
            ));
        }
        if counts.submitted != self.queries as u64 {
            failures.push(format!(
                "submitted {} != {} offered",
                counts.submitted, self.queries
            ));
        }
        if completed_ok != counts.completed {
            failures.push(format!(
                "{completed_ok} tickets resolved Ok but {} queries completed",
                counts.completed
            ));
        }
        let late_starts = started_expired.load(Ordering::Relaxed);
        if late_starts > 0 {
            failures.push(format!(
                "{late_starts} queries started running after their deadline expired"
            ));
        }
        rt.shutdown();
        let mut run = ChaosRun::capture(&fabric, "", CAPTURE_TIMEOUT);
        run.failures = failures;
        cluster.shutdown();
        run
    }

    fn check(&self, _reference: &ChaosRun, _faulty: &ChaosRun) -> Vec<String> {
        // The invariants are intra-run (conservation, deadline safety),
        // checked during `run`; timing makes cross-run equality moot.
        Vec::new()
    }

    fn deterministic(&self) -> bool {
        false
    }
}

/// The remote-cell read cache under chaos: readers hammer cached remote
/// cells through non-owner nodes (both the single-cell and the batched
/// `multi_get` path) while a writer bumps versions, the plan drops
/// frames, and a victim machine crashes mid-storm and is recovered.
///
/// Dropped `INVALIDATE` traffic is allowed to leave *bounded* staleness
/// during the storm (the protocol degrades to version floors when an
/// invalidation times out), so in-storm checks are validity only: every
/// read must be a value the writer actually wrote to that exact cell.
/// After recovery the cluster must converge: a final write round with
/// the injector disarmed, caches cleared everywhere (a revived machine
/// has missed invalidations), and then every node must read the final
/// value of every cell. Timing makes the traffic nondeterministic, so no
/// fault-log equality is asserted.
#[derive(Debug, Clone)]
pub struct CachedRemoteReads {
    /// Cluster size.
    pub machines: usize,
    /// Cells written and read (spread across all machines).
    pub cells: u64,
    /// Write rounds per storm phase (one put per cell per round).
    pub rounds: u64,
    /// Machine the plan's `Trigger::Mark(1)` crash targets.
    pub victim: u16,
}

impl CachedRemoteReads {
    /// A small instance: 3 machines, 12 cells, machine 2 crashes between
    /// the two storm phases.
    pub fn small() -> Self {
        CachedRemoteReads {
            machines: 3,
            cells: 10,
            rounds: 5,
            victim: 2,
        }
    }

    fn value(id: u64, seq: u64) -> Vec<u8> {
        format!("c{id}s{seq}").into_bytes()
    }

    /// Validity: the bytes must be exactly one of the values ever written
    /// to `id` (seed `s0` through storm `s{max_seq}`).
    fn valid(id: u64, max_seq: u64, bytes: &[u8]) -> bool {
        let Ok(s) = std::str::from_utf8(bytes) else {
            return false;
        };
        let Some(rest) = s.strip_prefix(&format!("c{id}s")) else {
            return false;
        };
        rest.parse::<u64>().is_ok_and(|seq| seq <= max_seq)
    }
}

impl ChaosWorkload for CachedRemoteReads {
    fn name(&self) -> &str {
        "cached-remote-reads"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            faults,
            call_timeout: Duration::from_millis(100),
            ..CloudConfig::small(self.machines)
        }));
        let fabric = Arc::clone(cloud.fabric());
        fabric.chaos_arm(false);
        for i in 0..self.cells {
            cloud.node(0).put(i, &Self::value(i, 0)).expect("seed cell");
        }
        cloud.backup_all().expect("backup trunks to TFS");
        fabric.chaos_arm(true);

        let max_seq = 2 * self.rounds;
        let failures: Arc<parking_lot::Mutex<Vec<String>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let mut recovered = Vec::new();
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            // Readers on every machine: most cells are remote to each, so
            // the traffic is cache hits, misses, and invalidations under
            // drops. Errors and misses are expected mid-storm (timeouts,
            // the crashed owner); only *invalid values* are failures.
            for r in 0..self.machines {
                let cloud = Arc::clone(&cloud);
                let stop = Arc::clone(&stop);
                let failures = Arc::clone(&failures);
                let cells = self.cells;
                scope.spawn(move || {
                    let mut round = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        round += 1;
                        if round.is_multiple_of(2) {
                            let ids: Vec<u64> = (0..cells).collect();
                            if let Ok(got) = cloud.node(r).multi_get(&ids) {
                                for (i, bytes) in got.into_iter().enumerate() {
                                    if let Some(b) = bytes {
                                        if !Self::valid(i as u64, max_seq, &b) {
                                            failures.lock().push(format!(
                                                "reader {r} multi_get cell {i}: invalid {b:?}"
                                            ));
                                        }
                                    }
                                }
                            }
                        } else {
                            for i in 0..cells {
                                if let Ok(Some(b)) = cloud.node(r).get(i) {
                                    if !Self::valid(i, max_seq, &b) {
                                        failures.lock().push(format!(
                                            "reader {r} get cell {i}: invalid value {b:?}"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                });
            }
            // Storm phase 1: version churn under drops/delays.
            let writer = (self.victim as usize + 1) % self.machines;
            for round in 1..=self.rounds {
                for i in 0..self.cells {
                    // Timeouts are expected under a lossy plan; a put
                    // whose reply was dropped may still have committed —
                    // both outcomes are valid values for readers.
                    let _ = cloud.node(writer).put(i, &Self::value(i, round));
                }
            }
            // Crash the victim (plans schedule `Mark(1)`), keep the storm
            // running against the dead owner, then recover it (§6.1).
            fabric.chaos_mark(1);
            for round in self.rounds + 1..=max_seq {
                for i in 0..self.cells {
                    let _ = cloud.node(writer).put(i, &Self::value(i, round));
                }
            }
            for m in 0..self.machines {
                if fabric.is_dead(MachineId(m as u16)) {
                    cloud.recover(m).expect("recover crashed machine");
                    fabric.revive(MachineId(m as u16));
                    cloud.node(m).sync_table().expect("resync table");
                    recovered.push(m as u16);
                }
            }
        });
        let mut failures = Arc::try_unwrap(failures)
            .expect("reader threads joined")
            .into_inner();

        // Convergence: disarm, write one final round, drop every cached
        // copy (the revived machine missed invalidations; recovery
        // reloaded trunks with fresh version stamps), and require every
        // node to read the final values exactly.
        fabric.chaos_arm(false);
        let final_seq = max_seq + 1;
        for i in 0..self.cells {
            // Recovery may leave the victim's old trunks reloaded from
            // the seed backup; the final write must still land.
            if let Err(e) = cloud.node(0).put(i, &Self::value(i, final_seq)) {
                failures.push(format!("final write of cell {i} failed: {e}"));
            }
        }
        for m in 0..self.machines {
            cloud.node(m).clear_cache();
        }
        let mut digest = String::new();
        for i in 0..self.cells {
            let expect = Self::value(i, final_seq);
            let mut ok = true;
            for m in 0..self.machines {
                match cloud.node(m).get(i) {
                    Ok(Some(ref b)) if *b == expect => {}
                    other => {
                        ok = false;
                        failures.push(format!("node {m} cell {i} did not converge: {other:?}"));
                    }
                }
            }
            digest.push(if ok { '.' } else { 'X' });
        }
        let stats = cloud.cache_stats();
        if stats.hits == 0 {
            failures.push(format!("storm never exercised the cache: {stats:?}"));
        }
        let mut run = ChaosRun::capture(&fabric, digest, CAPTURE_TIMEOUT);
        run.recovered = recovered;
        run.failures = failures;
        cloud.shutdown();
        run
    }

    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        if faulty.outcome != reference.outcome {
            vec![format!(
                "converged state diverged: {} != {}",
                faulty.outcome, reference.outcome
            )]
        } else {
            Vec::new()
        }
    }

    fn deterministic(&self) -> bool {
        false
    }
}

/// Crash a machine while the recovery agents are running, with partition
/// windows swallowing protocol traffic mid-recovery, and require the §6
/// protocol to converge anyway: the victim's cells must come back
/// readable on survivors, with the exact values written before the
/// crash. Heartbeat pacing makes the traffic nondeterministic, so no log
/// equality is asserted.
#[derive(Debug, Clone)]
pub struct PartitionHeal {
    /// Cluster size.
    pub machines: usize,
    /// Cells written (and verified after recovery).
    pub cells: u64,
    /// Machine the plan's `Trigger::Mark(1)` crash targets.
    pub victim: u16,
}

impl PartitionHeal {
    /// A small instance: 4 machines, 120 cells, machine 2 crashes.
    pub fn small() -> Self {
        PartitionHeal {
            machines: 4,
            cells: 120,
            victim: 2,
        }
    }
}

impl ChaosWorkload for PartitionHeal {
    fn name(&self) -> &str {
        "partition-heal"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            faults,
            call_timeout: Duration::from_millis(200),
            ..CloudConfig::small(self.machines)
        }));
        let fabric = Arc::clone(cloud.fabric());
        fabric.chaos_arm(false);
        for i in 0..self.cells {
            cloud
                .node(0)
                .put(i, format!("v{i}").as_bytes())
                .expect("seed cell");
        }
        cloud.backup_all().expect("backup trunks to TFS");
        fabric.chaos_arm(true);

        let mut failures = Vec::new();
        let mut recovered = Vec::new();
        let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while RecoveryAgents::current_leader(&cloud).is_none() {
            if std::time::Instant::now() >= deadline {
                failures.push("no leader elected before the crash".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        // Fire the crash (plans schedule `Mark(1)` → crash the victim);
        // the partition windows in the plan swallow protocol traffic on
        // survivor links while recovery runs.
        fabric.chaos_mark(1);
        if fabric.is_dead(MachineId(self.victim)) {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                let done = agents.events().iter().any(|e| {
                    matches!(e, RecoveryEvent::MachineRecovered { failed, .. }
                             if *failed == MachineId(self.victim))
                });
                if done {
                    recovered.push(self.victim);
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    failures.push(format!(
                        "machine {} never recovered despite partitions healing",
                        self.victim
                    ));
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        agents.stop();

        // All cells must eventually be readable from a survivor with
        // exact values: partition windows are finite (they heal once
        // their sequence range passes), so reads retry through them.
        let reader = (0..self.machines)
            .find(|&m| !fabric.is_dead(MachineId(m as u16)))
            .expect("at least one survivor");
        let mut digest = String::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        for i in 0..self.cells {
            loop {
                match cloud.node(reader).get(i) {
                    Ok(Some(v)) if v == format!("v{i}").into_bytes() => break,
                    other => {
                        if std::time::Instant::now() >= deadline {
                            failures.push(format!("cell {i} wrong after recovery: {other:?}"));
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            digest.push('.');
        }
        let mut run = ChaosRun::capture(&fabric, digest, CAPTURE_TIMEOUT);
        run.recovered = recovered;
        run.failures = failures;
        cloud.shutdown();
        run
    }

    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        if faulty.outcome != reference.outcome {
            vec!["recovered data diverged from the fault-free run".into()]
        } else {
            Vec::new()
        }
    }

    fn deterministic(&self) -> bool {
        false
    }
}

/// Online trunk migration under chaos: a trunk streams from its donor to
/// a standby recipient while writers hammer its cells and readers check
/// every value they see, and the plan crashes the donor, the recipient,
/// or the coordinator at a protocol phase (the engine's phase hook fires
/// `Trigger::Mark(phase)`, codes 1–6 = Begin..Flip).
///
/// Invariants, whatever the crash schedule:
///
/// * every value a reader observes was actually written to that cell
///   (no torn, cross-cell, or fabricated bytes — validity, not
///   freshness, mid-storm);
/// * if no machine died, no acknowledged write may be lost — the value
///   of every stormed cell is at least the writer's last ack, whether
///   the migration committed or aborted;
/// * the cluster agrees on the trunk's owner afterwards: every replica
///   routes it exactly where the TFS primary does (a stale-epoch server
///   would diverge here), and that owner is the donor (clean abort) or
///   the recipient (commit) — nothing else;
/// * after recovering any scheduled crash, a final disarmed write round
///   converges exactly on every machine.
///
/// Timing makes the traffic nondeterministic, so no fault-log equality
/// is asserted.
#[derive(Debug, Clone)]
pub struct MigrationStorm {
    /// Initially live machines (a standby recipient is added on top).
    pub machines: usize,
    /// Cells seeded across the whole cloud (stormed cells come on top).
    pub cells: u64,
    /// Machine whose first trunk migrates.
    pub donor: u16,
    /// Migration target (the standby machine).
    pub recipient: u16,
    /// Machine driving the protocol (`MigrationConfig::coordinator`).
    pub coordinator: u16,
}

impl MigrationStorm {
    /// A small instance: 3 live machines plus a standby; machine 0
    /// donates a trunk to machine 3, machine 1 coordinates.
    pub fn small() -> Self {
        MigrationStorm {
            machines: 3,
            cells: 18,
            donor: 0,
            recipient: 3,
            coordinator: 1,
        }
    }

    fn value(id: u64, seq: u64) -> Vec<u8> {
        format!("c{id}s{seq}").into_bytes()
    }

    /// Validity: the bytes must be *some* value written to exactly this
    /// cell (the storm length is open-ended, so any sequence parses).
    fn valid(id: u64, bytes: &[u8]) -> bool {
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| s.strip_prefix(&format!("c{id}s")))
            .is_some_and(|rest| rest.parse::<u64>().is_ok())
    }

    fn seq_of(id: u64, bytes: &[u8]) -> Option<u64> {
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| s.strip_prefix(&format!("c{id}s")))
            .and_then(|rest| rest.parse().ok())
    }
}

impl ChaosWorkload for MigrationStorm {
    fn name(&self) -> &str {
        "migration-storm"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        use std::collections::{BTreeSet, HashMap};

        use trinity_elastic::{MigrationConfig, MigrationEngine};

        let fault_free = faults.is_none();
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            faults,
            standby_machines: 1,
            call_timeout: Duration::from_millis(100),
            ..CloudConfig::small(self.machines)
        }));
        let total = cloud.machines();
        let fabric = Arc::clone(cloud.fabric());
        fabric.chaos_arm(false);
        let table = cloud.node(0).table();
        let trunk = table.trunks_of(MachineId(self.donor))[0];
        // The stormed cells all live in the migrating trunk; the rest of
        // the seed is spread over the cloud as background state.
        let mig_ids: Vec<u64> = (0u64..)
            .filter(|&i| table.trunk_of(i) == trunk)
            .take(8)
            .collect();
        let all_ids: Vec<u64> = {
            let mut s: BTreeSet<u64> = (0..self.cells).collect();
            s.extend(&mig_ids);
            s.into_iter().collect()
        };
        for &i in &all_ids {
            cloud.node(0).put(i, &Self::value(i, 0)).expect("seed cell");
        }
        cloud.backup_all().expect("backup trunks to TFS");
        fabric.chaos_arm(true);

        let failures: Arc<parking_lot::Mutex<Vec<String>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let acked: Arc<parking_lot::Mutex<HashMap<u64, u64>>> = Arc::default();
        let mut recovered = Vec::new();
        let mut mig_ok = false;
        std::thread::scope(|scope| {
            let stop_readers = StopOnDrop(&stop);
            // Readers on every machine (standby included): errors and
            // misses are expected mid-storm; only invalid bytes fail.
            for r in 0..total {
                let cloud = Arc::clone(&cloud);
                let fabric = Arc::clone(&fabric);
                let stop = Arc::clone(&stop);
                let failures = Arc::clone(&failures);
                let all_ids = all_ids.clone();
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if fabric.is_dead(MachineId(r as u16)) {
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        }
                        for &i in &all_ids {
                            if let Ok(Some(b)) = cloud.node(r).get(i) {
                                if !Self::valid(i, &b) {
                                    failures
                                        .lock()
                                        .push(format!("reader {r} cell {i}: invalid {b:?}"));
                                }
                            }
                        }
                    }
                });
            }
            // One writer hammers the migrating trunk through whichever
            // machine is currently alive, recording the last acknowledged
            // sequence per cell. Failed puts are expected under crashes
            // and timeouts; an *acked* put must never be lost.
            let writer = {
                let cloud = Arc::clone(&cloud);
                let fabric = Arc::clone(&fabric);
                let stop = Arc::clone(&stop);
                let acked = Arc::clone(&acked);
                let mig_ids = mig_ids.clone();
                scope.spawn(move || {
                    let mut seq = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        seq += 1;
                        let Some(via) = (0..total).find(|&m| !fabric.is_dead(MachineId(m as u16)))
                        else {
                            continue;
                        };
                        for &i in &mig_ids {
                            if cloud.node(via).put(i, &Self::value(i, seq)).is_ok() {
                                acked.lock().insert(i, seq);
                            }
                        }
                    }
                    seq
                })
            };
            // The migration itself, phase-marked so plans can crash the
            // donor/recipient/coordinator at any protocol step.
            let engine = MigrationEngine::new(MigrationConfig {
                chunk_cells: 4,
                coordinator: Some(self.coordinator),
            })
            .with_phase_hook({
                let fabric = Arc::clone(&fabric);
                move |phase, _| fabric.chaos_mark(phase.mark())
            });
            let res = engine.migrate_trunk(&cloud, trunk, MachineId(self.recipient));
            // Let the storm keep running against the post-migration (or
            // post-abort) cloud for a moment before recovery.
            std::thread::sleep(Duration::from_millis(50));
            for m in 0..total {
                if fabric.is_dead(MachineId(m as u16)) {
                    cloud.recover(m).expect("recover crashed machine");
                    cloud.revive_machine(m).expect("revive crashed machine");
                    recovered.push(m as u16);
                }
            }
            drop(stop_readers);
            let _ = writer.join().expect("writer thread");
            match res {
                Ok(report) => {
                    mig_ok = true;
                    if fault_free && report.cells_moved == 0 {
                        failures
                            .lock()
                            .push("fault-free migration moved no cells".into());
                    }
                }
                Err(e) => {
                    if fault_free {
                        failures
                            .lock()
                            .push(format!("fault-free migration failed: {e}"));
                    }
                }
            }
        });
        let mut failures = Arc::try_unwrap(failures)
            .expect("storm threads joined")
            .into_inner();
        fabric.chaos_arm(false);

        // Epoch agreement: every replica must route the trunk exactly
        // where the TFS primary does, and the owner must be the donor
        // (abort) or the recipient (commit) — a stale-epoch server or a
        // half-committed flip shows up here.
        let primary = cloud
            .tfs()
            .read(trinity_memcloud::TFS_TABLE_PATH)
            .ok()
            .and_then(|b| trinity_memcloud::AddressingTable::decode(&b))
            .expect("TFS primary table");
        let owner = primary.machine_for(trunk);
        if owner != MachineId(self.donor) && owner != MachineId(self.recipient) {
            failures.push(format!("trunk {trunk} owned by third party {owner:?}"));
        }
        if mig_ok && owner != MachineId(self.recipient) && recovered.is_empty() {
            failures.push(format!(
                "migration reported success but the primary routes trunk {trunk} to {owner:?}"
            ));
        }
        for m in 0..total {
            let _ = cloud.node(m).sync_table();
            let routed = cloud.node(m).table().machine_for(trunk);
            if routed != owner {
                failures.push(format!(
                    "machine {m} routes trunk {trunk} to {routed:?}, primary says {owner:?}"
                ));
            }
        }

        // No machine died → no excuse: every stormed cell must hold at
        // least the writer's last acknowledged sequence, wherever the
        // trunk ended up.
        if recovered.is_empty() {
            for m in 0..total {
                cloud.node(m).clear_cache();
            }
            let acked = acked.lock();
            for &i in &mig_ids {
                let Some(&floor) = acked.get(&i) else {
                    continue;
                };
                match cloud.node(0).get(i) {
                    Ok(Some(ref b)) => match Self::seq_of(i, b) {
                        Some(seq) if seq >= floor => {}
                        got => failures.push(format!(
                            "cell {i}: acked s{floor} but the cloud holds {got:?} — lost write"
                        )),
                    },
                    other => failures.push(format!(
                        "cell {i}: acked s{floor} but the read came back {other:?}"
                    )),
                }
            }
        }

        // Convergence: one disarmed write round, caches dropped, every
        // node must read the final value of every cell exactly.
        let final_seq = u64::MAX;
        for &i in &all_ids {
            if let Err(e) = cloud.node(0).put(i, &Self::value(i, final_seq)) {
                failures.push(format!("final write of cell {i} failed: {e}"));
            }
        }
        for m in 0..total {
            cloud.node(m).clear_cache();
        }
        let mut digest = String::new();
        for &i in &all_ids {
            let expect = Self::value(i, final_seq);
            let mut ok = true;
            for m in 0..total {
                match cloud.node(m).get(i) {
                    Ok(Some(ref b)) if *b == expect => {}
                    other => {
                        ok = false;
                        failures.push(format!("node {m} cell {i} did not converge: {other:?}"));
                    }
                }
            }
            digest.push(if ok { '.' } else { 'X' });
        }
        let mut run = ChaosRun::capture(&fabric, digest, CAPTURE_TIMEOUT);
        run.recovered = recovered;
        run.failures = failures;
        cloud.shutdown();
        run
    }

    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        if faulty.outcome != reference.outcome {
            vec![format!(
                "converged state diverged: {} != {}",
                faulty.outcome, reference.outcome
            )]
        } else {
            Vec::new()
        }
    }

    fn deterministic(&self) -> bool {
        false
    }
}

/// A streaming writer commits a deterministic stream of mutation batches
/// through the mini-transaction ingest while the fault plan crashes and
/// revives machines mid-batch — the submitting machine, the owner of a
/// touched trunk, or the leader (machine 0, which answers table syncs)
/// at any `Trigger::Mark(batch_index)` point. The storm applies every
/// batch it saw commit to its own [`Topology`] mirror.
///
/// A crash here is a *network* death (the fabric stops routing; memory
/// is frozen, not lost), so an acked batch must never be rolled back.
/// The storm retries each batch until it commits, reviving casualties
/// itself when a dead owner would otherwise block the stream forever.
///
/// Invariants, checked after a final disarmed batch:
///
/// * the mutation log replayed over the seed graph equals the storm's
///   mirror *and* the store read back cell by cell, with every in-list
///   the reverse of the out-lists — every acked commit is durable and
///   logged, and nothing half-applied is visible;
/// * a fault-free run commits every batch without reviving anyone.
///
/// Timing makes the traffic nondeterministic, so no fault-log equality
/// is asserted.
#[derive(Debug, Clone)]
pub struct MutationStorm {
    /// Live machines in the cloud.
    pub machines: usize,
    /// Seed ring size (vertex ids `0..vertices`; batches may add ids up
    /// to `vertices + 8`).
    pub vertices: u64,
    /// Mutation batches in the storm (chaos mark `k` fires before batch
    /// `k` commits).
    pub batches: u64,
    /// Mutations per batch.
    pub batch_size: usize,
    /// Preferred submission machine (plans crash it to exercise the
    /// writer path; the storm fails over to the next live machine).
    pub writer: u16,
    /// Seed for the deterministic mutation stream (independent of the
    /// fault plan's seed).
    pub seed: u64,
}

impl MutationStorm {
    /// A small instance: 3 machines, a 12-vertex seed ring, 10 batches
    /// of 4 mutations submitted through machine 1.
    pub fn small() -> Self {
        MutationStorm {
            machines: 3,
            vertices: 12,
            batches: 10,
            batch_size: 4,
            writer: 1,
            seed: 0x5EED_CA57,
        }
    }

    fn gen_batch(&self, rng: &mut u64) -> MutationBatch {
        let n = self.vertices;
        let mut muts = Vec::with_capacity(self.batch_size);
        for _ in 0..self.batch_size {
            let kind = xorshift(rng) % 10;
            let a = xorshift(rng) % (n + 8);
            let b = xorshift(rng) % (n + 8);
            muts.push(match kind {
                0 => Mutation::AddVertex(n + xorshift(rng) % 8),
                1 => Mutation::RemoveVertex(a),
                2 | 3 => Mutation::RemoveEdge(a, b),
                _ => Mutation::AddEdge(a, b),
            });
        }
        MutationBatch::new(muts)
    }
}

impl ChaosWorkload for MutationStorm {
    fn name(&self) -> &str {
        "mutation-storm"
    }

    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
        use trinity_core::minitx::TxService;
        use trinity_graph::NodeRecord;

        let fault_free = faults.is_none();
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            faults,
            call_timeout: Duration::from_millis(100),
            ..CloudConfig::small(self.machines)
        }));
        let total = cloud.machines();
        let fabric = Arc::clone(cloud.fabric());
        fabric.chaos_arm(false);

        // Seed: a directed ring with in-links, written disarmed.
        let n = self.vertices;
        let mut seed_topo = Topology::new();
        for v in 0..n {
            let rec = NodeRecord {
                attrs: Vec::new(),
                outs: vec![(v + 1) % n],
                ins: Some(vec![(v + n - 1) % n]),
            };
            cloud.node(0).put(v, &rec.encode()).expect("seed vertex");
            seed_topo.add_edge(v, (v + 1) % n);
        }
        cloud.backup_all().expect("backup trunks to TFS");
        let svc = TxService::install(Arc::clone(&cloud));
        let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, self.writer as usize);
        let mut mirror = seed_topo.clone();

        let mut failures: Vec<String> = Vec::new();
        let mut revived: Vec<u16> = Vec::new();
        fabric.chaos_arm(true);
        let mut rng = self.seed | 1;
        'storm: for k in 0..self.batches {
            fabric.chaos_mark(k);
            let batch = self.gen_batch(&mut rng);
            let mut attempts = 0usize;
            loop {
                let via = (0..total)
                    .map(|i| (self.writer as usize + i) % total)
                    .find(|&m| !fabric.is_dead(MachineId(m as u16)));
                match via.map(|v| ingest.commit_batch(v, &batch)) {
                    Some(Ok(())) => break,
                    Some(Err(e)) if attempts >= 400 => {
                        failures.push(format!("batch {k} never committed: {e}"));
                        break 'storm;
                    }
                    _ => {}
                }
                attempts += 1;
                // A dead trunk owner blocks commits, and a stalled
                // writer can never reach the plan's later revive marks;
                // bring casualties back (network death froze their
                // memory — revival is legitimate, not a restore).
                if attempts.is_multiple_of(40) {
                    for m in 0..total {
                        if fabric.is_dead(MachineId(m as u16)) && cloud.revive_machine(m).is_ok() {
                            revived.push(m as u16);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            for m in &batch.mutations {
                mirror.apply(m);
            }
        }
        // Revive remaining casualties, then prove the pipeline is still
        // live with one disarmed batch.
        for m in 0..total {
            if fabric.is_dead(MachineId(m as u16)) {
                cloud.revive_machine(m).expect("revive casualty");
                revived.push(m as u16);
            }
        }
        fabric.chaos_arm(false);
        let fin = MutationBatch::new(vec![
            Mutation::AddEdge(0, n / 2),
            Mutation::AddVertex(n + 7),
        ]);
        match ingest.commit_batch(self.writer as usize, &fin) {
            Ok(()) => {
                for m in &fin.mutations {
                    mirror.apply(m);
                }
            }
            Err(e) => failures.push(format!("disarmed final batch failed: {e}")),
        }
        if fault_free && !revived.is_empty() {
            failures.push(format!("fault-free run revived machines {revived:?}"));
        }

        // Durability and atomicity: log replay over the seed equals the
        // mirror and the store read-back, cell by cell.
        let replayed = ingest.log().replay_onto(seed_topo);
        if replayed != mirror {
            failures.push("storm topology mirror != mutation-log replay".into());
        }
        match Topology::read_back(&cloud, 0, 0..n + 8) {
            Ok(store) if store != replayed => failures.push(format!(
                "store read-back != log replay ({} vs {} vertices) — lost or split batch",
                store.len(),
                replayed.len()
            )),
            Ok(_) => {}
            Err(e) => failures.push(format!("post-storm read-back: {e}")),
        }

        // Outcome digest: the converged topology. The batch stream is
        // deterministic and every batch must commit, so this matches the
        // fault-free run even though timing does not.
        fn fnv(h: &mut u64, x: u64) {
            *h ^= x;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in mirror.ids() {
            fnv(&mut h, v);
            for &w in mirror.outs(v) {
                fnv(&mut h, w);
            }
        }
        let digest = format!("{h:016x}");
        let mut run = ChaosRun::capture(&fabric, digest, CAPTURE_TIMEOUT);
        run.recovered = revived;
        run.failures = failures;
        cloud.shutdown();
        run
    }

    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        if faulty.outcome != reference.outcome {
            vec![format!(
                "converged values diverged: {} != {}",
                faulty.outcome, reference.outcome
            )]
        } else {
            Vec::new()
        }
    }

    fn deterministic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_scope_body_stops_its_readers_and_fails() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            let outcome = std::panic::catch_unwind(|| {
                std::thread::scope(|scope| {
                    let _stop = StopOnDrop(&stop);
                    scope.spawn(|| {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                    });
                    panic!("body fails mid-storm");
                })
            });
            let _ = done.send(outcome.is_err());
        });
        let panicked = finished.recv_timeout(Duration::from_secs(30));
        assert_eq!(panicked, Ok(true), "the scope must re-raise, not hang");
    }
}
