//! The migration coordinator.
//!
//! [`MigrationEngine`] drives the six-phase protocol implemented by
//! `trinity_memcloud::migration` (begin → stream → catch-up → seal →
//! commit → flip) from whichever machine hosts the coordinator — in the
//! full system, the recovery leader. Every frame travels over the
//! fabric, so chaos faults (crashes, duplicated or delayed frames)
//! exercise the protocol's fencing; only the final table *installs* are
//! direct in-process calls, mirroring how `MemoryCloud::recover`
//! distributes a new table.
//!
//! Failure handling is uniform: any error after `begin` sends
//! best-effort aborts to both peers (the donor unseals and keeps
//! serving; the recipient discards its staging) and surfaces the error.
//! A donor that never hears the abort — coordinator crash — unseals
//! itself through the `SEAL_TIMEOUT` path by consulting the TFS primary.

use std::fmt;
use std::time::{Duration, Instant};

use trinity_memcloud::migration;
use trinity_memcloud::{AddressingTable, CloudError, MemoryCloud, TFS_TABLE_PATH};
use trinity_net::MachineId;
use trinity_obs::{next_trace_id, TraceGuard};

use crate::planner::{cluster_trunk_scores, plan_drain, plan_join, plan_rebalance, Move};
use crate::Result;

/// Errors surfaced by the migration engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElasticError {
    /// The underlying cloud operation failed (network, store, TFS, or a
    /// migration peer refusing a frame).
    Cloud(CloudError),
    /// Ownership of the trunk changed under the coordinator (a recovery
    /// or competing migration won); the attempt was aborted.
    Raced { trunk: u64 },
    /// The recipient died before the flip; the attempt was aborted and
    /// the donor keeps serving.
    RecipientDead { trunk: u64, machine: MachineId },
    /// No live machine can act as coordinator or migration target.
    NoCandidate,
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::Cloud(e) => write!(f, "cloud error: {e}"),
            ElasticError::Raced { trunk } => {
                write!(f, "trunk {trunk} changed owner mid-migration")
            }
            ElasticError::RecipientDead { trunk, machine } => {
                write!(f, "recipient {machine} died migrating trunk {trunk}")
            }
            ElasticError::NoCandidate => write!(f, "no live candidate machine"),
        }
    }
}

impl std::error::Error for ElasticError {}

impl From<CloudError> for ElasticError {
    fn from(e: CloudError) -> Self {
        ElasticError::Cloud(e)
    }
}

/// Protocol phase, reported through the engine's phase hook. The chaos
/// harness maps these to fabric marks to crash machines at exact points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    Begin,
    Stream,
    CatchUp,
    Seal,
    Commit,
    Flip,
}

impl MigrationPhase {
    /// Stable small integer for chaos `Mark` triggers (1..=6).
    pub fn mark(self) -> u64 {
        match self {
            MigrationPhase::Begin => 1,
            MigrationPhase::Stream => 2,
            MigrationPhase::CatchUp => 3,
            MigrationPhase::Seal => 4,
            MigrationPhase::Commit => 5,
            MigrationPhase::Flip => 6,
        }
    }

    /// Human-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Begin => "begin",
            MigrationPhase::Stream => "stream",
            MigrationPhase::CatchUp => "catch-up",
            MigrationPhase::Seal => "seal",
            MigrationPhase::Commit => "commit",
            MigrationPhase::Flip => "flip",
        }
    }
}

/// Soft byte bound per streamed chunk (the chunk ends at the cell that
/// crosses it).
const CHUNK_BYTES: u32 = 256 * 1024;
/// Seal once a catch-up drain leaves at most this many dirty cells
/// (queued, or drained and not yet acknowledged) on the donor — the
/// remainder drains inside the (brief) seal window.
const CATCHUP_THRESHOLD: u64 = 16;
/// Catch-up rounds before sealing regardless of the dirty backlog (bounds
/// the chase against a write-heavy trunk).
const MAX_CATCHUP_ROUNDS: u32 = 8;
/// Imbalance (max/mean machine hotness) the rebalance planner drives the
/// cluster under.
const REBALANCE_THRESHOLD: f64 = 1.5;

/// Tuning knobs for the migration engine.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Max cells per streamed chunk.
    pub chunk_cells: u32,
    /// Machine to issue coordinator frames from; `None` picks the first
    /// live machine. The recovery leader sets this to itself.
    pub coordinator: Option<u16>,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            chunk_cells: 128,
            coordinator: None,
        }
    }
}

/// What one completed migration did.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    pub trunk: u64,
    pub from: MachineId,
    pub to: MachineId,
    /// Distinct cell states shipped (stream + delta replay).
    pub cells_moved: u64,
    /// Payload bytes streamed in the snapshot phase.
    pub bytes_streamed: u64,
    /// Delta-log entries replayed in catch-up and the seal drain.
    pub delta_replayed: u64,
    /// Table epoch after the flip (unchanged for a no-op migration).
    pub epoch: u64,
    pub duration: Duration,
}

type PhaseHook = Box<dyn Fn(MigrationPhase, u64) + Send + Sync>;

/// Coordinator for online trunk migrations.
#[derive(Default)]
pub struct MigrationEngine {
    cfg: MigrationConfig,
    on_phase: Option<PhaseHook>,
}

impl fmt::Debug for MigrationEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MigrationEngine")
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl MigrationEngine {
    pub fn new(cfg: MigrationConfig) -> Self {
        MigrationEngine {
            cfg,
            on_phase: None,
        }
    }

    /// Install a phase hook, called as each migration enters each phase
    /// with `(phase, trunk)`. The chaos harness uses this to place
    /// fabric marks; the scale-out bench uses it for timelines.
    pub fn with_phase_hook(
        mut self,
        hook: impl Fn(MigrationPhase, u64) + Send + Sync + 'static,
    ) -> Self {
        self.on_phase = Some(Box::new(hook));
        self
    }

    fn phase(&self, p: MigrationPhase, trunk: u64) {
        if let Some(h) = &self.on_phase {
            h(p, trunk);
        }
    }

    /// The machine coordinator frames are issued from.
    fn coordinator(&self, cloud: &MemoryCloud) -> Result<MachineId> {
        if let Some(c) = self.cfg.coordinator {
            let m = MachineId(c);
            if !cloud.fabric().is_dead(m) {
                return Ok(m);
            }
        }
        (0..cloud.machines() as u16)
            .map(MachineId)
            .find(|&m| !cloud.fabric().is_dead(m))
            .ok_or(ElasticError::NoCandidate)
    }

    /// Migrate one trunk to `to`, streaming while the donor serves.
    /// No-op (and no epoch bump) when the trunk already lives there.
    pub fn migrate_trunk(
        &self,
        cloud: &MemoryCloud,
        trunk: u64,
        to: MachineId,
    ) -> Result<MigrationReport> {
        let started = Instant::now();
        let coord = self.coordinator(cloud)?;
        let ep = cloud.node(coord.0 as usize).endpoint().clone();
        let obs = ep.obs().clone();
        // The whole migration is one trace: every fabric frame it issues
        // records `net.*` spans under it, so the cross-machine timeline
        // shows chunk-by-chunk progress.
        let _trace = TraceGuard::enter(next_trace_id());
        let span_start = obs.now_us();

        let table = read_primary(cloud)?;
        let from = table.machine_for(trunk);
        if from == to {
            return Ok(MigrationReport {
                trunk,
                from,
                to,
                cells_moved: 0,
                bytes_streamed: 0,
                delta_replayed: 0,
                epoch: table.epoch,
                duration: started.elapsed(),
            });
        }
        if cloud.fabric().is_dead(to) {
            return Err(ElasticError::RecipientDead { trunk, machine: to });
        }
        let mid = migration::next_migration_id();
        match self.run_migration(cloud, &ep, trunk, from, to, mid) {
            Ok((cells_moved, bytes_streamed, delta_replayed, epoch)) => {
                obs.counter("elastic.cells_moved").add(cells_moved);
                obs.counter("elastic.bytes_streamed").add(bytes_streamed);
                obs.counter("elastic.delta_replayed").add(delta_replayed);
                obs.counter("elastic.migrations").inc();
                let duration = started.elapsed();
                obs.histogram("elastic.migration_us")
                    .record(duration.as_micros() as u64);
                obs.span(
                    "elastic.migrate",
                    0,
                    bytes_streamed,
                    cells_moved.min(u32::MAX as u64) as u32,
                    span_start,
                );
                Ok(MigrationReport {
                    trunk,
                    from,
                    to,
                    cells_moved,
                    bytes_streamed,
                    delta_replayed,
                    epoch,
                    duration,
                })
            }
            Err(e) => {
                // Best-effort aborts: the donor unseals and serves on,
                // the recipient discards its staging. Unreachable peers
                // resolve themselves (seal timeout / recovery).
                let _ = migration::abort(&ep, from, mid, trunk);
                let _ = migration::abort(&ep, to, mid, trunk);
                obs.counter("elastic.aborts").inc();
                Err(e)
            }
        }
    }

    fn run_migration(
        &self,
        cloud: &MemoryCloud,
        ep: &trinity_net::Endpoint,
        trunk: u64,
        from: MachineId,
        to: MachineId,
        mid: u64,
    ) -> Result<(u64, u64, u64, u64)> {
        self.phase(MigrationPhase::Begin, trunk);
        let total = migration::begin(ep, from, mid, trunk)?;

        self.phase(MigrationPhase::Stream, trunk);
        let mut cursor = 0u64;
        let mut cells_moved = 0u64;
        let mut bytes_streamed = 0u64;
        while cursor < total {
            let (next, entries) = migration::read_chunk(
                ep,
                from,
                mid,
                trunk,
                cursor,
                self.cfg.chunk_cells,
                CHUNK_BYTES,
            )?;
            if !entries.is_empty() {
                cells_moved += entries.len() as u64;
                bytes_streamed += entries.iter().map(|e| e.payload_len() as u64).sum::<u64>();
                migration::apply(ep, to, mid, trunk, &entries)?;
            }
            if next <= cursor {
                break; // donor reports no forward progress: snapshot done
            }
            cursor = next;
        }

        self.phase(MigrationPhase::CatchUp, trunk);
        let mut delta_replayed = 0u64;
        // Highest delta sequence applied on the recipient so far.
        let mut acked = 0u64;
        for _ in 0..MAX_CATCHUP_ROUNDS {
            let (remaining, seq, entries) =
                migration::drain_delta(ep, from, mid, trunk, acked, self.cfg.chunk_cells)?;
            if !entries.is_empty() {
                delta_replayed += entries.len() as u64;
                migration::apply(ep, to, mid, trunk, &entries)?;
            }
            acked = seq;
            if remaining <= CATCHUP_THRESHOLD {
                break;
            }
        }

        // Seal: writes refuse with MOVED from here; drain the tail dry.
        self.phase(MigrationPhase::Seal, trunk);
        migration::seal(ep, from, mid, trunk)?;
        loop {
            let (remaining, seq, entries) =
                migration::drain_delta(ep, from, mid, trunk, acked, self.cfg.chunk_cells)?;
            let drained = entries.len();
            if drained > 0 {
                delta_replayed += drained as u64;
                migration::apply(ep, to, mid, trunk, &entries)?;
            }
            acked = seq;
            if remaining == 0 && drained == 0 {
                break;
            }
        }

        self.phase(MigrationPhase::Commit, trunk);
        migration::commit(ep, to, mid, trunk)?;

        self.phase(MigrationPhase::Flip, trunk);
        let (table_ver, mut cur) = read_primary_versioned(cloud)?;
        if cur.machine_for(trunk) != from {
            return Err(ElasticError::Raced { trunk });
        }
        if cloud.fabric().is_dead(to) {
            return Err(ElasticError::RecipientDead { trunk, machine: to });
        }
        cur.reassign_one(trunk, to);
        // The flip is a *conditional* write against the version read
        // above: a concurrent table writer — a recovery reassigning a
        // dead machine's trunks, a competing coordinator, or the donor
        // releasing its seal lease after deciding we died — wins the
        // race and this flip aborts instead of clobbering their update
        // (or committing a stream the donor no longer feeds).
        match cloud
            .tfs()
            .write_if_version(TFS_TABLE_PATH, &cur.encode(), table_ver)
        {
            Ok(_) => {}
            Err(trinity_tfs::TfsError::VersionMismatch { .. }) => {
                return Err(ElasticError::Raced { trunk });
            }
            Err(e) => return Err(ElasticError::Cloud(CloudError::Tfs(e))),
        }
        let epoch = cur.epoch;
        // Install order matters: the recipient first (so the moment the
        // donor starts answering MOVED, the new owner already serves),
        // the donor second (it evicts the trunk and records the flip
        // epoch), then the rest of the cluster. Stale replicas self-heal
        // through the MOVED/sync path regardless.
        cloud.node(to.0 as usize).install_table(cur.clone())?;
        if !cloud.fabric().is_dead(from) {
            cloud.node(from.0 as usize).install_table(cur.clone())?;
        }
        for m in 0..cloud.machines() {
            let machine = MachineId(m as u16);
            if machine == from || machine == to || cloud.fabric().is_dead(machine) {
                continue;
            }
            cloud.node(m).install_table(cur.clone())?;
        }
        Ok((cells_moved, bytes_streamed, delta_replayed, epoch))
    }

    /// Execute a plan one migration at a time. Stops at the first error;
    /// completed moves stay flipped (the cloud is consistent, just less
    /// rebalanced than planned).
    pub fn execute(&self, cloud: &MemoryCloud, moves: &[Move]) -> Result<Vec<MigrationReport>> {
        let mut reports = Vec::with_capacity(moves.len());
        for mv in moves {
            reports.push(self.migrate_trunk(cloud, mv.trunk, mv.to)?);
        }
        Ok(reports)
    }

    /// Online join (paper §3: "when new machines join the memory cloud,
    /// we relocate some memory trunks to those new machines and update
    /// the addressing table accordingly"): stream a fair share of trunks
    /// onto machine `m` while the donors keep serving.
    pub fn join_machine(&self, cloud: &MemoryCloud, m: usize) -> Result<Vec<MigrationReport>> {
        let table = read_primary(cloud)?;
        let moves = plan_join(&table, MachineId(m as u16));
        self.execute(cloud, &moves)
    }

    /// Graceful leave: migrate every trunk off machine `m`, leaving it
    /// owning nothing — it can then be shut down without data loss or a
    /// recovery event.
    pub fn drain_machine(&self, cloud: &MemoryCloud, m: usize) -> Result<Vec<MigrationReport>> {
        let victim = MachineId(m as u16);
        let live: Vec<MachineId> = (0..cloud.machines() as u16)
            .map(MachineId)
            .filter(|&x| x != victim && !cloud.fabric().is_dead(x))
            .collect();
        if live.is_empty() {
            return Err(ElasticError::NoCandidate);
        }
        let table = read_primary(cloud)?;
        let moves = plan_drain(&table, victim, &live);
        self.execute(cloud, &moves)
    }

    /// Load-driven rebalance: merge the cluster's per-trunk hotness,
    /// plan the fewest moves that bring imbalance at or under the
    /// configured threshold, and execute them. Returns the reports (an
    /// empty vec when the cluster is already balanced).
    pub fn rebalance(&self, cloud: &MemoryCloud) -> Result<Vec<MigrationReport>> {
        let table = read_primary(cloud)?;
        let scores = cluster_trunk_scores(cloud);
        let moves = plan_rebalance(&table, &scores, REBALANCE_THRESHOLD);
        self.execute(cloud, &moves)
    }
}

/// Read the primary addressing-table replica from TFS.
fn read_primary(cloud: &MemoryCloud) -> Result<AddressingTable> {
    read_primary_versioned(cloud).map(|(_, t)| t)
}

/// Read the primary table plus its TFS file version, for a conditional
/// flip write (`write_if_version`).
fn read_primary_versioned(cloud: &MemoryCloud) -> Result<(u64, AddressingTable)> {
    let (ver, bytes) = cloud
        .tfs()
        .read_versioned(TFS_TABLE_PATH)
        .map_err(|e| ElasticError::Cloud(CloudError::Tfs(e)))?;
    let table = AddressingTable::decode(&bytes).ok_or(ElasticError::Cloud(CloudError::BadReply))?;
    Ok((ver, table))
}
