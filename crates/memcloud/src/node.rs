//! One machine's view of the memory cloud.
//!
//! A [`CloudNode`] owns the machine-local trunks, a replica of the
//! addressing table, and the protocol handlers that serve remote cell
//! accesses. All cell operations are *location transparent*: the node
//! routes by the two-step hash and either touches its own trunks or issues
//! a one-sided call to the owner.
//!
//! Staleness protocol (paper §6.2): when an access fails — the owner is
//! unreachable, or it answers "not owner" — the node re-syncs its table
//! replica from the TFS primary and retries once. If the table hasn't
//! changed (no recovery happened yet), the error propagates to the caller.
//! Nobody informs the leader: it learns of a death only from its own
//! `PING` probes (see `trinity-core`'s recovery).
//!
//! # Remote-read cache and coherence
//!
//! Every node keeps a [`RemoteCache`] of remote cells it has read (or
//! written), keyed by cell id and stamped with the trunk-minted version.
//! Coherence is owner-driven write-invalidate:
//!
//! * the owner tracks, per trunk, which machines hold cached copies (the
//!   *sharers*: any machine whose GET/MULTI_GET/PUT passed through it);
//! * a mutation bumps the cell's version stamp, then synchronously
//!   invalidates every sharer **before acknowledging the writer** — after
//!   a write returns, no fault-free reader serves the old value;
//! * the writer itself is excluded from the broadcast: its ack carries the
//!   new stamp, which it applies to its own cache before returning.
//!
//! Sharer registration is ordered through the cell's spin lock (a reader
//! registers while the cell is pinned; a writer registers before the trunk
//! write), so any read that observed the pre-write payload is visible to
//! the write's invalidation snapshot. Invalidations to unreachable
//! machines drop the sharer; invalidations that time out degrade to the
//! bounded-staleness floor protocol (the version floor in the reader's
//! cache rejects stale inserts whenever the invalidation does land). The
//! protocol assumes a cluster-wide uniform `cache_capacity`: with the
//! cache disabled, nodes neither track sharers nor send invalidations.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use trinity_memstore::codec::Reader;
use trinity_memstore::{
    CellVersion, LocalStore, LocalStoreConfig, Region, SnapshotError, StoreError, Trunk,
    TrunkSnapshot, TrunkStats,
};
use trinity_net::{Endpoint, FrameBuf, MachineId, NetError};
use trinity_obs::MachineScope;
use trinity_tfs::{Blob, Tfs, TfsError};

use crate::cache::{CacheStats, RemoteCache};
use crate::migration::{self, BeginOutcome, MigEntry, MigrationState, SEAL_TIMEOUT};
use crate::proto;
use crate::table::{AddressingTable, TFS_TABLE_PATH};
use crate::tiering::{FaultClaim, FaultTurn, TierStats, Tiering};
use crate::wire;
use crate::{CellId, CloudError, Result};

/// TFS path of a trunk's backup image.
pub fn trunk_backup_path(gid: u64) -> String {
    format!("trunks/{gid:08}")
}

/// Why loading trunk `gid`'s image failed, as the caller should see it:
/// bytes that are not an image are the image's fault, a cell the trunk
/// had no room for is the store's.
fn image_error(gid: u64, e: SnapshotError) -> CloudError {
    match e {
        SnapshotError::BadMagic | SnapshotError::Checksum | SnapshotError::Malformed => {
            CloudError::CorruptImage { trunk: gid }
        }
        SnapshotError::Load(_, e) => CloudError::Store(e),
    }
}

/// Per-sharer budget for a synchronous invalidation. Short on purpose: a
/// healthy sharer answers in microseconds, and under network faults the
/// write must not stall behind a dropped coherence frame — it proceeds
/// after this bound and the reader's version floor catches the straggler.
const INVALIDATE_TIMEOUT: Duration = Duration::from_millis(250);

/// How long the access path keeps retrying a `MOVED` reply. The seal
/// window of a healthy migration lasts one catch-up drain plus the table
/// flip (microseconds to milliseconds); a dead coordinator resolves after
/// [`SEAL_TIMEOUT`]. The budget comfortably covers both, so callers ride
/// out migrations without ever seeing an error.
const MOVED_RETRY_BUDGET: Duration = Duration::from_secs(3);

/// Outcome of a trunk mutation run through the migration write gate.
enum Gate<R> {
    /// The mutation was applied (and logged if a migration is in flight).
    Done(R),
    /// The trunk is sealed or gone: refuse with `MOVED{epoch}`.
    Moved { epoch: u64 },
}

/// One machine of the memory cloud.
pub struct CloudNode {
    machine: MachineId,
    endpoint: Arc<Endpoint>,
    store: Arc<LocalStore>,
    table: RwLock<AddressingTable>,
    tfs: Tfs,
    id_counter: AtomicU64,
    cache: RemoteCache,
    /// Owner-side coherence directory: for each locally hosted trunk, the
    /// machines that may hold cached copies of its cells.
    sharers: Mutex<HashMap<u64, BTreeSet<u16>>>,
    /// This machine's metrics scope; cell operations attribute themselves
    /// to the owning trunk through its `LoadMap`.
    obs: MachineScope,
    /// Migration books: outbound delta logs, inbound version fences, and
    /// flip epochs of trunks this node gave away (for `MOVED` replies).
    migration: MigrationState,
    /// Trunk tiering books: per-trunk spill/fault state, pin counts, and
    /// the memory budget (DESIGN.md §15).
    tiering: Tiering,
    /// Held across `install_table`. Two installs of one table (a
    /// recovery's and a re-sync's) would otherwise both pass the epoch
    /// check and reload a newly granted trunk: the second restore lands
    /// in the first's half-filled trunk and fails, or evicts a trunk the
    /// first install already opened to writes.
    installing: Mutex<()>,
}

impl std::fmt::Debug for CloudNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudNode")
            .field("machine", &self.machine)
            .finish()
    }
}

impl CloudNode {
    /// Bring up a node: create its trunks per the initial table and
    /// register the cell-access protocol handlers. `cache_capacity` is the
    /// remote-read cache size in entries (0 disables caching and the
    /// coherence traffic that serves it).
    pub fn start(
        endpoint: Arc<Endpoint>,
        store_cfg: LocalStoreConfig,
        tfs: Tfs,
        initial_table: AddressingTable,
        cache_capacity: usize,
    ) -> Arc<Self> {
        let machine = endpoint.machine();
        // Trunk `store.*` metrics land in the same per-machine scope as the
        // endpoint's `net.*` counters, so one registry snapshot shows a
        // machine's traffic next to its memory utilization.
        let store = Arc::new(LocalStore::with_obs(store_cfg, endpoint.obs().clone()));
        for gid in initial_table.trunks_of(machine) {
            store.ensure_trunk(gid);
        }
        let cache = RemoteCache::new(cache_capacity, endpoint.obs());
        let obs = endpoint.obs().clone();
        let tiering = Tiering::new(&obs);
        let node = Arc::new(CloudNode {
            machine,
            endpoint,
            store,
            table: RwLock::new(initial_table),
            tfs,
            id_counter: AtomicU64::new(1),
            cache,
            sharers: Mutex::new(HashMap::new()),
            obs,
            migration: MigrationState::default(),
            tiering,
            installing: Mutex::new(()),
        });
        node.register_handlers();
        node
    }

    fn register_handlers(self: &Arc<Self>) {
        type CellOp = fn(&CloudNode, MachineId, CellId, &[u8]) -> Vec<u8>;
        let ops: [(u16, CellOp); 6] = [
            (proto::GET, CloudNode::handle_get),
            (proto::PUT, CloudNode::handle_put),
            (proto::REMOVE, CloudNode::handle_remove),
            (proto::APPEND, CloudNode::handle_append),
            (proto::CONTAINS, CloudNode::handle_contains),
            (proto::PUT_IF, CloudNode::handle_put_if),
        ];
        for (pid, op) in ops {
            let node = Arc::clone(self);
            self.endpoint.register(pid, move |src, data| {
                let Ok((id, body)) = wire::decode_req(data) else {
                    return Some(vec![wire::STORE_ERR]);
                };
                if !node.owns(id) {
                    return Some(node.not_owner_reply(id));
                }
                Some(op(&node, src, id, body))
            });
        }
        let node = Arc::clone(self);
        self.endpoint.register(proto::MULTI_GET, move |src, data| {
            Some(node.handle_multi_get(src, data))
        });
        let node = Arc::clone(self);
        self.endpoint
            .register(proto::INVALIDATE, move |_src, data| {
                if let Ok((id, version)) = wire::decode_invalidate(data) {
                    node.cache.invalidate(id, version);
                }
                Some(Vec::new())
            });
        type MigOp = fn(&CloudNode, u64, u64, &[u8]) -> Vec<u8>;
        let mig_ops: [(u16, MigOp); 7] = [
            (proto::MIG_BEGIN, CloudNode::handle_mig_begin),
            (proto::MIG_READ, CloudNode::handle_mig_read),
            (proto::MIG_DELTA, CloudNode::handle_mig_delta),
            (proto::MIG_SEAL, CloudNode::handle_mig_seal),
            (proto::MIG_ABORT, CloudNode::handle_mig_abort),
            (proto::MIG_APPLY, CloudNode::handle_mig_apply),
            (proto::MIG_COMMIT, CloudNode::handle_mig_commit),
        ];
        for (pid, op) in mig_ops {
            let node = Arc::clone(self);
            self.endpoint.register(pid, move |_src, data| {
                Some(match migration::decode_header(data) {
                    Ok((mid, gid, rest)) => op(&node, mid, gid, rest),
                    Err(_) => migration::err_reply("bad frame"),
                })
            });
        }
    }

    /// Reply for a cell this node does not own: `MOVED{epoch}` when the
    /// trunk was migrated away (the caller must sync to at least that
    /// epoch), otherwise the plain stale-table `NOT_OWNER`.
    fn not_owner_reply(&self, id: CellId) -> Vec<u8> {
        let gid = self.table.read().trunk_of(id);
        match self.migration.moved_epoch(gid) {
            Some(epoch) => wire::reply_moved(epoch),
            None => vec![wire::NOT_OWNER],
        }
    }

    /// This node's machine id.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The node's network endpoint.
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// The machine-local trunk store.
    pub fn store(&self) -> &Arc<LocalStore> {
        &self.store
    }

    /// A copy of the current addressing-table replica (a heap copy of every
    /// slot: take it once per query or job, and [`Self::route`] per id).
    pub fn table(&self) -> AddressingTable {
        self.table.read().clone()
    }

    /// Allocate a globally unique cell id: the machine id in the top 16
    /// bits, a local counter below. Never collides across machines and
    /// never produces the reserved `u64::MAX`.
    pub fn alloc_id(&self) -> CellId {
        ((self.machine.0 as u64) << 48) | self.id_counter.fetch_add(1, Ordering::Relaxed)
    }

    fn owns(&self, id: CellId) -> bool {
        let t = self.table.read();
        t.machine_of(id) == self.machine
    }

    /// Route `id` under the current table: its trunk and that trunk's
    /// owner. Reads under the table's read guard and copies nothing, so a
    /// per-id caller should prefer it to [`Self::table`].
    #[inline]
    pub fn route(&self, id: CellId) -> (u64, MachineId) {
        let t = self.table.read();
        let trunk = t.trunk_of(id);
        (trunk, t.machine_for(trunk))
    }

    // ------------------------------------------------------------------
    // Coherence directory (owner side)
    // ------------------------------------------------------------------

    /// Remember that `src` may now hold cached cells of `trunk`.
    ///
    /// Ordering contract: the caller must invoke this *before* the next
    /// mutation of the cell it served can complete — readers register
    /// while holding the cell guard, writers before the trunk write — so
    /// every copy handed out is visible to later invalidation snapshots.
    fn record_sharer(&self, trunk: u64, src: MachineId) {
        if src == self.machine || !self.cache.enabled() {
            return;
        }
        self.sharers.lock().entry(trunk).or_default().insert(src.0);
    }

    /// Synchronously invalidate every sharer's cached copy of `id` (new
    /// stamp `version`), except `exclude` — the writer, whose ack carries
    /// the stamp. Runs *before* the mutation is acknowledged.
    fn invalidate_sharers(&self, id: CellId, version: CellVersion, exclude: MachineId) {
        if !self.cache.enabled() {
            return;
        }
        let trunk = self.table.read().trunk_of(id);
        let targets: Vec<u16> = match self.sharers.lock().get(&trunk) {
            Some(s) => s
                .iter()
                .copied()
                .filter(|&m| m != exclude.0 && m != self.machine.0)
                .collect(),
            None => return,
        };
        if targets.is_empty() {
            return;
        }
        let frame = wire::encode_invalidate(id, version);
        for m in targets {
            // Timeouts and expired deadlines degrade to best effort: the
            // write proceeds and the reader's version floor rejects the
            // stale payload whenever the frame does land.
            if let Err(NetError::Unreachable(_)) = self.endpoint.call_with_deadline(
                MachineId(m),
                proto::INVALIDATE,
                &frame,
                INVALIDATE_TIMEOUT,
            ) {
                // Dead reader: its cache died with its memory. If it is
                // later revived or re-joins, reconfiguration clears its
                // cache and re-reading re-registers it.
                if let Some(s) = self.sharers.lock().get_mut(&trunk) {
                    s.remove(&m);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Local handler bodies
    // ------------------------------------------------------------------

    /// The trunk holding `id`, for a read handler: faulted in if tiering
    /// spilled it, never created, and `None` unless this node still owns
    /// it once it is resolved. A read descheduled across `install_table`
    /// then answers `MOVED`/`NOT_OWNER` as the write gate does — not
    /// `NOT_FOUND` out of an empty re-creation of a trunk that moved away.
    fn local_trunk(&self, id: CellId) -> Result<Option<Arc<Trunk>>> {
        // Its own statement: the table guard must be gone before the
        // resolution, which re-reads the table and may fault in.
        let gid = self.table.read().trunk_of(id);
        self.owned_trunk(gid)
    }

    /// [`local_trunk`](Self::local_trunk) by trunk id.
    fn owned_trunk(&self, gid: u64) -> Result<Option<Arc<Trunk>>> {
        loop {
            self.await_resident(gid)?;
            let trunk = self.store.trunk(gid);
            if self.table.read().machine_for(gid) != self.machine {
                return Ok(None);
            }
            // Owned and absent with a tier entry: a spill took it out
            // since the fault turn — queue for the next one. Owned and
            // absent without one: an install is evicting it right now.
            if trunk.is_some() || !self.tiering.blocks(gid) {
                return Ok(trunk);
            }
        }
    }

    // ------------------------------------------------------------------
    // Trunk tiering (out-of-core residency, DESIGN.md §15)
    // ------------------------------------------------------------------

    /// The trunk, faulted back in from TFS first if tiering spilled it.
    /// Nothing is created: a trunk this machine does not own (or is
    /// handing away right now) is [`CloudError::WrongOwner`].
    ///
    /// Fast path — tiering inactive or the trunk resident — is one
    /// relaxed atomic load on top of the store lookup. For a spilled
    /// trunk exactly one caller wins the fault-in turn; the rest block on
    /// the tier condvar until the image is restored.
    pub fn resident_trunk(&self, gid: u64) -> Result<Arc<Trunk>> {
        self.owned_trunk(gid)?.ok_or(CloudError::WrongOwner {
            trunk: gid,
            asked: self.machine,
        })
    }

    /// Return once trunk `gid` has no tier entry, restoring it from TFS
    /// when the fault turn falls to this thread.
    fn await_resident(&self, gid: u64) -> Result<()> {
        while self.tiering.is_active() {
            match self.tiering.await_fault_turn(gid) {
                FaultTurn::Resident => break,
                // Loop after the restore: a racing spill may have taken
                // the trunk out again, in which case we queue for the
                // next fault turn rather than hand out a dead Arc.
                FaultTurn::Fault(claim) => self.fault_in(gid, claim)?,
            }
        }
        Ok(())
    }

    /// Restore a spilled trunk from its TFS image: make room for it
    /// first, restore it into the region of a trunk that sweep pushed out
    /// when there is one, then sweep again as a safety net.
    fn fault_in(&self, gid: u64, claim: FaultClaim) -> Result<()> {
        let mut regions = Vec::new();
        let _ = self.sweep(claim.used_bytes, 1, &mut regions);
        let image = self.tfs.read_versioned(&trunk_backup_path(gid));
        self.restore_image(gid, claim, image, regions.pop())?;
        // The freshly faulted trunk must not be the sweep's next victim —
        // its EWMA score is stale-cold. Pin it across the enforcement.
        self.tiering.pin(gid);
        let _ = self.enforce_budget();
        self.tiering.unpin(gid);
        Ok(())
    }

    /// Fault a set of trunks in with **one bulk TFS read**
    /// ([`Tfs::read_versioned_many`]) — the pipelined-prefetch path.
    /// Trunks that are resident, mid-spill, or already faulting are
    /// skipped (the compute path's blocking fault turn resolves those).
    /// Returns how many trunks were restored. Like a blocking fault-in,
    /// it runs a budget sweep sized for every claimed trunk first, hands
    /// the victims' regions to the restores, and sweeps again at the end.
    /// The caller is expected to have pinned the trunks it wants kept, so
    /// the sweeps push out older buckets, not the prefetched ones.
    ///
    /// [`Tfs::read_versioned_many`]: trinity_tfs::Tfs::read_versioned_many
    pub fn fault_in_many(&self, gids: &[u64]) -> Result<usize> {
        let claims: Vec<(u64, FaultClaim)> = gids
            .iter()
            .filter_map(|&gid| Some((gid, self.tiering.try_begin_fault(gid)?)))
            .collect();
        if claims.is_empty() {
            return Ok(0);
        }
        let incoming = claims.iter().map(|(_, claim)| claim.used_bytes).sum();
        let mut regions = Vec::new();
        let _ = self.sweep(incoming, claims.len(), &mut regions);
        let paths: Vec<String> = claims
            .iter()
            .map(|&(gid, _)| trunk_backup_path(gid))
            .collect();
        let images = self.tfs.read_versioned_many(&paths);
        let mut restored = 0usize;
        for ((gid, claim), image) in claims.into_iter().zip(images) {
            if self.restore_image(gid, claim, image, regions.pop()).is_ok() {
                restored += 1;
            }
        }
        let _ = self.enforce_budget();
        Ok(restored)
    }

    /// The one way out of `FaultingIn`, for the turn `claim`ed: make
    /// trunk `gid` exactly what `image` (the outcome of reading its backup
    /// path) says, or put the entry back to `Spilled` so a later access
    /// retries. The trunk is created in `region` when the caller's sweep
    /// freed one (`tier.region_reuses`); a failed restore frees it.
    ///
    /// Whatever is resident under `gid` first goes: a remnant (e.g. a
    /// staging reload that raced the spill) would keep cells the image
    /// doesn't vouch for. A vanished backup (wiped TFS) restores as an
    /// empty trunk, the `reload_trunk` durability contract. A damaged
    /// image restores nothing — serving part of it would silently lose
    /// cells. The restored trunk is recorded as equal to the image
    /// *before* `finish_fault` lets waiting writers at it. Either way out
    /// leaves `tier.resident_bytes` at what the store holds, with or
    /// without a budget.
    fn restore_image(
        &self,
        gid: u64,
        claim: FaultClaim,
        image: std::result::Result<(u64, Blob), TfsError>,
        region: Option<Region>,
    ) -> Result<()> {
        let started = Instant::now();
        let image = match image {
            Ok(found) => Some(found),
            Err(TfsError::NotFound(_)) => None,
            Err(e) => {
                self.tiering.fail_fault(gid, claim);
                return Err(e.into());
            }
        };
        let reused = region.is_some();
        self.store.evict(gid);
        let trunk = self.store.ensure_trunk_in(gid, region);
        let mut bytes_in = 0u64;
        if let Some((version, bytes)) = image {
            if let Err(e) = TrunkSnapshot::restore_image(&bytes, &trunk) {
                self.store.evict(gid);
                self.tiering.fail_fault(gid, claim);
                self.update_resident_gauge();
                return Err(image_error(gid, e));
            }
            self.tiering.record_clean(gid, &trunk, version);
            bytes_in = bytes.len() as u64;
        }
        self.tiering.finish_fault(gid);
        self.update_resident_gauge();
        self.tiering.metrics.faults.inc();
        if reused {
            self.tiering.metrics.region_reuses.inc();
        }
        self.tiering.metrics.fault_bytes.add(bytes_in);
        self.tiering
            .metrics
            .fault_in_us
            .record(started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Evict one trunk to TFS: drop it from the memstore, writing its
    /// sealed cell image first unless TFS already holds exactly that
    /// image. `Ok(true)` when it left memory; `Ok(false)` when skipped
    /// (not owned, pinned, absent/already spilled, or busy migrating).
    ///
    /// Seal protocol: after claiming `Spilling`, taking and releasing the
    /// donor map's **write** lock is a barrier — every in-flight
    /// `gated_mutate` either finished its write under the read lock (the
    /// write is in the trunk, and in its mutation count) or will re-check
    /// the tier state and wait out the fault-in.
    ///
    /// Behind the seal, a trunk whose mutation count has not moved since
    /// it was restored from the image at some TFS version holds exactly
    /// that image; if a stat says TFS still holds that version, nothing
    /// needs writing. Anything else — a write since, a concurrent
    /// `backup_trunk`, a wiped or partly dead TFS — takes the full path:
    /// the image goes to the trunk's recovery backup path via a TFS
    /// compare-and-swap, so a crash mid-spill leaves either the old image
    /// or the new one — never a torn file — and recovery's `reload_trunk`
    /// reads whichever committed.
    pub fn spill_trunk(&self, gid: u64) -> Result<bool> {
        Ok(self.spill(gid)?.is_some())
    }

    /// [`spill_trunk`](Self::spill_trunk), handing back the trunk that
    /// left memory (`None` when skipped): once the caller's is its last
    /// reference, its region can take a restore.
    fn spill(&self, gid: u64) -> Result<Option<Arc<Trunk>>> {
        if self.table.read().machine_for(gid) != self.machine
            || self.tiering.pinned(gid)
            || self.store.trunk(gid).is_none()
            || !self.tiering.try_begin_spill(gid)
        {
            return Ok(None);
        }
        {
            // Write-barrier + migration check: a trunk that is donating
            // or staging must stay resident (the migration protocols
            // read it directly).
            let donors = self.migration.donors_write();
            if donors.contains_key(&gid) || self.migration.has_incoming(gid) {
                drop(donors);
                self.tiering.abort_spill(gid);
                return Ok(None);
            }
        }
        let Some(trunk) = self.store.trunk(gid) else {
            self.tiering.abort_spill(gid);
            return Ok(None);
        };
        let path = trunk_backup_path(gid);
        let held = self
            .tiering
            .clean_version(gid, &trunk)
            .filter(|&version| self.tfs.version_of(&path) == Ok(version));
        let version = match held {
            Some(version) => {
                self.tiering.metrics.clean_evictions.inc();
                version
            }
            None => {
                let image = TrunkSnapshot::capture(&trunk);
                match self.write_image(&path, image.as_bytes()) {
                    Ok(version) => {
                        self.tiering.metrics.spills.inc();
                        self.tiering
                            .metrics
                            .spill_bytes
                            .add(image.as_bytes().len() as u64);
                        version
                    }
                    Err(e) => {
                        self.tiering.abort_spill(gid);
                        return Err(e.into());
                    }
                }
            }
        };
        // Behind the seal the size is final: it is what the fault-in
        // makes room for.
        let used_bytes = trunk.stats().used_bytes as u64;
        self.store.evict(gid);
        self.tiering.commit_spill(gid, version, used_bytes);
        self.update_resident_gauge();
        Ok(Some(trunk))
    }

    /// Replace the file at `path` with `image` by compare-and-swap on
    /// its version, retrying when a concurrent writer (a backup, a
    /// migration commit) gets in between. Returns the version written.
    /// The caller holds the trunk sealed, so `image` stays current
    /// however many rounds this takes.
    fn write_image(&self, path: &str, image: &[u8]) -> std::result::Result<u64, TfsError> {
        loop {
            let expected = match self.tfs.version_of(path) {
                Ok(v) => v,
                Err(TfsError::NotFound(_)) => 0,
                Err(e) => return Err(e),
            };
            match self.tfs.write_if_version(path, image, expected) {
                Err(TfsError::VersionMismatch { .. }) => continue,
                done => return done,
            }
        }
    }

    /// Spill coldest-first (§11 LoadMap EWMA score, ascending; ties by
    /// trunk id) until resident bytes fit the budget. Pinned trunks and
    /// trunks busy migrating are never selected. Returns how many trunks
    /// were spilled.
    pub fn enforce_budget(&self) -> Result<usize> {
        self.sweep(0, 0, &mut Vec::new())
    }

    /// The budget sweep: [`enforce_budget`](Self::enforce_budget), but
    /// until resident bytes plus `incoming` fit, so a fault-in makes room
    /// for what it is about to restore. Each victim nobody else holds
    /// gives its region up to `regions` while that holds fewer than
    /// `wanted`; the rest are freed. Regions taken before an error stay
    /// in `regions`.
    fn sweep(&self, incoming: u64, wanted: usize, regions: &mut Vec<Region>) -> Result<usize> {
        let budget = self.tiering.budget();
        if budget == 0 {
            return Ok(0);
        }
        let mut resident: Vec<(u64, u64)> = self
            .store
            .trunks()
            .into_iter()
            .map(|t| (t.id(), t.stats().used_bytes as u64))
            .collect();
        let mut total: u64 = resident.iter().map(|&(_, b)| b).sum();
        self.tiering.metrics.resident_bytes.set(total as i64);
        if total + incoming <= budget {
            return Ok(0);
        }
        let scores: HashMap<u64, f64> = self
            .obs
            .load()
            .snapshot()
            .into_iter()
            .map(|t| (t.trunk, t.score()))
            .collect();
        // Missing from the load map = never touched this window = 0.0,
        // i.e. coldest; exactly the trunks an out-of-core sweep wants out
        // first.
        resident.sort_by(|a, b| {
            let sa = scores.get(&a.0).copied().unwrap_or(0.0);
            let sb = scores.get(&b.0).copied().unwrap_or(0.0);
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut spilled = 0usize;
        for (gid, bytes) in resident {
            if total + incoming <= budget {
                break;
            }
            let Some(trunk) = self.spill(gid)? else {
                continue;
            };
            total = total.saturating_sub(bytes);
            spilled += 1;
            if regions.len() < wanted {
                regions.extend(Arc::into_inner(trunk).map(Trunk::into_region));
            }
        }
        self.tiering.metrics.resident_bytes.set(total as i64);
        Ok(spilled)
    }

    /// Write-path budget trigger: every [`WRITES_PER_SWEEP`] mutations
    /// run one enforcement sweep. Must be called before any trunk or
    /// migration lock is held — the sweep takes the donor write lock.
    ///
    /// [`WRITES_PER_SWEEP`]: crate::tiering
    fn maybe_enforce_budget(&self) {
        if self.tiering.write_tick() {
            let _ = self.enforce_budget();
        }
    }

    fn update_resident_gauge(&self) {
        let total: u64 = self
            .store
            .trunks()
            .into_iter()
            .map(|t| t.stats().used_bytes as u64)
            .sum();
        self.tiering.metrics.resident_bytes.set(total as i64);
    }

    /// Set the per-machine memory budget in bytes and immediately enforce
    /// it. 0 disables budget-driven eviction (already spilled trunks stay
    /// spilled until accessed). Returns how many trunks were spilled.
    pub fn set_memory_budget(&self, bytes: u64) -> Result<usize> {
        self.tiering.set_budget(bytes);
        if bytes == 0 {
            return Ok(0);
        }
        self.enforce_budget()
    }

    /// Whether the trunk is resident (no tier entry and present in the
    /// store). The prefetcher uses this to classify hits vs. faults.
    pub fn trunk_resident(&self, gid: u64) -> bool {
        self.tiering.state(gid).is_none() && self.store.trunk(gid).is_some()
    }

    /// Pin a trunk against eviction (counted; pair with
    /// [`unpin_trunk`](Self::unpin_trunk)).
    pub fn pin_trunk(&self, gid: u64) {
        self.tiering.pin(gid);
    }

    /// Release one pin on the trunk.
    pub fn unpin_trunk(&self, gid: u64) {
        self.tiering.unpin(gid);
    }

    /// Trunk ids currently spilled to TFS.
    pub fn spilled_trunks(&self) -> Vec<u64> {
        self.tiering
            .spilled()
            .into_iter()
            .map(|(gid, _)| gid)
            .collect()
    }

    /// Snapshot of this machine's `tier.*` counters.
    pub fn tier_stats(&self) -> TierStats {
        self.tiering.stats()
    }

    /// Attribute one bucket-prefetch residency check (`hit` = the trunk
    /// was already resident when the prefetcher looked).
    pub fn note_prefetch(&self, hit: bool) {
        if hit {
            self.tiering.metrics.prefetch_hits.inc();
        } else {
            self.tiering.metrics.prefetch_misses.inc();
        }
    }

    fn handle_get(&self, src: MachineId, id: CellId, _body: &[u8]) -> Vec<u8> {
        let trunk = match self.local_trunk(id) {
            Ok(Some(t)) => t,
            Ok(None) => return self.not_owner_reply(id),
            // Fault-in failed (TFS unreachable): the caller's retry
            // budget rides out the transient.
            Err(_) => return vec![wire::STORE_ERR],
        };
        let reply = match trunk.get_versioned(id) {
            Some((version, guard)) => {
                // Register the reader while the cell is pinned: any write
                // serialized after this read will see it as a sharer.
                self.record_sharer(trunk.id(), src);
                self.obs.load().record_read(trunk.id(), guard.len() as u64);
                wire::reply_ok(version, &guard)
            }
            None => {
                self.obs.load().record_read(trunk.id(), 0);
                vec![wire::NOT_FOUND]
            }
        };
        reply
    }

    /// Run a trunk mutation through the migration write gate.
    ///
    /// * No migration in flight: apply while holding the donor map's read
    ///   lock — `MIG_BEGIN` takes the write lock, so it cannot publish an
    ///   entry and snapshot the trunk mid-mutation; the write is in the
    ///   snapshot.
    /// * Migration streaming/catching up: apply under the entry lock and
    ///   record the dirty id, so a delta drain ships the new state. An
    ///   entry whose coordinator has sent no frame for
    ///   [`DONOR_IDLE_TIMEOUT`] is garbage collected instead — the
    ///   coordinator died before sealing, and the trunk must not pay the
    ///   delta-log cost forever.
    /// * Sealed: refuse with `MOVED{epoch}` — the flip is imminent and the
    ///   caller retries against the new owner after a table sync. A seal
    ///   older than [`SEAL_TIMEOUT`] means the coordinator died (or
    ///   stalled): resolve ownership through the TFS primary and either
    ///   resume serving — after *persisting* the unseal decision, see
    ///   [`Self::resolve_stale_seal`] — or complete the flip locally.
    ///
    /// The gate is also the tiering **write seal**: the trunk Arc is
    /// re-resolved from the store and the tier state re-checked while the
    /// donor read lock is held. A spill claims `Spilling` and then takes
    /// the donor *write* lock as a barrier, so observing no tier entry
    /// here guarantees the Arc below stays wired into the store until
    /// `op` lands — the write is in any later capture, never applied to
    /// an already-evicted trunk.
    fn gated_mutate<R>(
        &self,
        gid: u64,
        id: CellId,
        mut op: impl FnMut(&Trunk) -> R,
    ) -> Result<Gate<R>> {
        loop {
            // Fault the trunk in *before* taking migration locks: the
            // fault reads TFS and its budget sweep takes the donor write
            // lock itself. Waiting creates nothing: a trunk this node has
            // handed away must not come back as an empty phantom.
            self.await_resident(gid)?;
            let donors = self.migration.donors_read();
            if self.tiering.blocks(gid) {
                // A spill (or fault) slipped in between our fault-in and
                // the lock: back off and take the fault turn again.
                drop(donors);
                continue;
            }
            // Ownership is decided here, under the donor lock, not where
            // the caller routed: a handler descheduled across the flip
            // would otherwise find no entry, write into an empty
            // re-creation of the evicted trunk, and ack. (`install_table`
            // swaps the table before it drops the entry.) Only an owned
            // trunk is created — a fresh one on its first write.
            {
                let table = self.table.read();
                if table.machine_for(gid) != self.machine {
                    return Ok(Gate::Moved { epoch: table.epoch });
                }
            }
            let trunk = self.store.ensure_trunk(gid);
            let Some(entry) = donors.get(&gid).map(Arc::clone) else {
                let out = op(&trunk);
                return Ok(Gate::Done(out));
            };
            // Map-then-entry lock order, same as `begin_donor`; holding
            // the map lock keeps `entry` current while we decide.
            let mut g = entry.lock();
            match g.sealed_at {
                None if g.last_frame.elapsed() >= migration::DONOR_IDLE_TIMEOUT => {
                    // The coordinator went silent before ever sealing:
                    // drop the abandoned entry (its next frame, if any,
                    // gets "no migration in flight") and apply the write
                    // ungated on the next loop pass. Locks released
                    // first — `abort_donor` takes the map write lock.
                    let mid = g.mid;
                    drop(g);
                    drop(donors);
                    self.migration.abort_donor(gid, Some(mid));
                }
                None => {
                    let out = op(&trunk);
                    if g.dirty_set.insert(id) {
                        g.dirty.push_back(id);
                    }
                    return Ok(Gate::Done(out));
                }
                Some(at) if at.elapsed() < SEAL_TIMEOUT => {
                    // The flip (if it lands) bumps the epoch past ours.
                    let epoch = self.table.read().epoch + 1;
                    return Ok(Gate::Moved { epoch });
                }
                Some(_) => {
                    // Coordinator presumed dead: ask the TFS primary who
                    // owns the trunk now. Never hold the migration locks
                    // across a table install (lock-order inversion).
                    let mid = g.mid;
                    drop(g);
                    drop(donors);
                    if let Some(epoch) = self.resolve_stale_seal(gid, mid) {
                        return Ok(Gate::Moved { epoch });
                    }
                }
            }
        }
    }

    /// Resolve a seal whose coordinator has been silent past
    /// [`SEAL_TIMEOUT`], honouring the seal's *lease* semantics. Returns
    /// `Some(epoch)` when the trunk must keep refusing writes with
    /// `MOVED{epoch}`, `None` when the caller should re-run the write
    /// gate (the seal was lifted, or the primary changed under us).
    ///
    /// The donor may only resume serving writes after persisting its
    /// unseal decision: it rewrites the primary table *at the file
    /// version it just read* (a TFS compare-and-swap "touch" that bumps
    /// the version without changing the contents). A coordinator that
    /// was merely slow — not dead — performs its flip as a conditional
    /// write too, so exactly one of the two wins: either the flip
    /// committed first (we observe it and answer `MOVED`), or our touch
    /// landed first and the flip aborts, and no write acknowledged after
    /// the unseal can be missing from a committed migration.
    fn resolve_stale_seal(&self, gid: u64, mid: u64) -> Option<u64> {
        match self.tfs.read_versioned(TFS_TABLE_PATH) {
            Ok((ver, bytes)) => {
                let Some(table) = AddressingTable::decode(&bytes) else {
                    // Unreadable primary: keep refusing until it heals.
                    return Some(self.table.read().epoch + 1);
                };
                if table.machine_for(gid) == self.machine {
                    // Still the owner per the primary: fence a slow
                    // coordinator out, then unseal. A lost CAS means the
                    // table changed this instant — loop and re-read.
                    if self
                        .tfs
                        .write_if_version(TFS_TABLE_PATH, &bytes, ver)
                        .is_ok()
                    {
                        self.migration.abort_donor(gid, Some(mid));
                    }
                    None
                } else {
                    // The flip (or a recovery) committed: adopt it. The
                    // install records the flip epoch for MOVED replies.
                    let _ = self.install_table(table);
                    self.migration.moved_epoch(gid)
                }
            }
            Err(TfsError::NotFound(_)) => {
                // No primary was ever persisted, so no flip can exist.
                self.migration.abort_donor(gid, Some(mid));
                None
            }
            // TFS unreachable: the lease cannot be released safely, so
            // keep refusing writes; the caller's retry budget rides it
            // out and a later attempt resolves.
            Err(_) => Some(self.table.read().epoch + 1),
        }
    }

    /// The owner's side of every write: budget, sharer registration, load
    /// accounting, the write gate, then the reply. `bytes` is the payload
    /// size the load tracker charges; `caches_value` marks a writer that
    /// caches the bytes it wrote, so it is a sharer too and registers
    /// before the write for later writes to invalidate it.
    fn mutate(
        &self,
        src: MachineId,
        id: CellId,
        bytes: usize,
        caches_value: bool,
        op: impl FnMut(&Trunk) -> trinity_memstore::Result<CellVersion>,
    ) -> Vec<u8> {
        self.maybe_enforce_budget();
        let gid = self.table.read().trunk_of(id);
        if caches_value {
            self.record_sharer(gid, src);
        }
        self.obs.load().record_write(gid, bytes as u64);
        match self.gated_mutate(gid, id, op) {
            Err(_) => vec![wire::STORE_ERR],
            Ok(Gate::Moved { epoch }) => wire::reply_moved(epoch),
            Ok(Gate::Done(Ok(version))) => {
                self.invalidate_sharers(id, version, src);
                wire::reply_ok(version, b"")
            }
            Ok(Gate::Done(Err(StoreError::NotFound(_)))) => vec![wire::NOT_FOUND],
            Ok(Gate::Done(Err(StoreError::VersionMismatch {
                id,
                expected,
                found,
            }))) => wire::reply_version_mismatch(id, expected, found),
            Ok(Gate::Done(Err(_))) => vec![wire::STORE_ERR],
        }
    }

    fn handle_put(&self, src: MachineId, id: CellId, body: &[u8]) -> Vec<u8> {
        self.mutate(src, id, body.len(), true, |trunk| trunk.put(id, body))
    }

    fn handle_put_if(&self, src: MachineId, id: CellId, body: &[u8]) -> Vec<u8> {
        let Ok((expected, payload)) = wire::decode_req(body) else {
            return vec![wire::STORE_ERR];
        };
        self.mutate(src, id, payload.len(), true, |trunk| {
            trunk.put_if_version(id, payload, expected)
        })
    }

    fn handle_remove(&self, src: MachineId, id: CellId, _body: &[u8]) -> Vec<u8> {
        self.mutate(src, id, 0, false, |trunk| trunk.remove(id))
    }

    fn handle_append(&self, src: MachineId, id: CellId, body: &[u8]) -> Vec<u8> {
        self.mutate(src, id, body.len(), false, |trunk| trunk.append(id, body))
    }

    fn handle_contains(&self, _src: MachineId, id: CellId, _body: &[u8]) -> Vec<u8> {
        let trunk = match self.local_trunk(id) {
            Ok(Some(t)) => t,
            Ok(None) => return self.not_owner_reply(id),
            Err(_) => return vec![wire::STORE_ERR],
        };
        self.obs.load().record_read(trunk.id(), 0);
        match trunk.version_of(id) {
            Some(version) => wire::reply_ok(version, b""),
            None => vec![wire::NOT_FOUND],
        }
    }

    fn handle_multi_get(&self, src: MachineId, data: &[u8]) -> Vec<u8> {
        let Ok(ids) = wire::decode_multi_req(data) else {
            // An undecodable request yields an empty reply, which fails
            // the caller's entry-count check and routes it to the
            // single-cell fallback.
            return Vec::new();
        };
        // Encode straight from the pinned trunk guards into the reply
        // buffer — no per-cell Vec, one copy per payload byte on the
        // serve path (the reply Vec itself ships zero-copy).
        let mut out = Vec::new();
        for id in ids {
            // Not (or no longer) the owner — or the fault-in failed, which
            // degrades to the same entry: the caller's single-cell
            // fallback retries (and re-syncs).
            let Ok(Some(trunk)) = self.local_trunk(id) else {
                wire::multi_push_status(&mut out, wire::NOT_OWNER);
                continue;
            };
            match trunk.get_versioned(id) {
                Some((version, guard)) => {
                    self.record_sharer(trunk.id(), src);
                    self.obs.load().record_read(trunk.id(), guard.len() as u64);
                    wire::multi_push_hit(&mut out, version, &guard);
                }
                None => {
                    self.obs.load().record_read(trunk.id(), 0);
                    wire::multi_push_status(&mut out, wire::NOT_FOUND);
                }
            };
        }
        out
    }

    // ------------------------------------------------------------------
    // Migration protocol handlers (donor and recipient sides)
    // ------------------------------------------------------------------

    /// `MIG_BEGIN` (donor): publish the migration entry, *then* snapshot
    /// the trunk's cell ids. Publication-before-snapshot is what lets the
    /// write gate guarantee every mutation is in the snapshot or the log.
    fn handle_mig_begin(&self, mid: u64, gid: u64, _rest: &[u8]) -> Vec<u8> {
        if self.table.read().machine_for(gid) != self.machine {
            return migration::err_reply("not the trunk owner");
        }
        // A spilled trunk faults in before donating — migration streams
        // straight out of the memstore. The pin holds the trunk resident
        // across the gap until `begin_donor` publishes the donor entry
        // (which a spill checks behind its own barrier); after that the
        // trunk cannot spill again mid-migration.
        let tiered = self.tiering.is_active();
        if tiered {
            self.tiering.pin(gid);
            if self.resident_trunk(gid).is_err() {
                self.tiering.unpin(gid);
                return migration::err_reply("trunk not resident");
            }
        }
        let out = match self.store.trunk(gid) {
            None => migration::err_reply("trunk not resident"),
            Some(trunk) => match self.migration.begin_donor(gid, mid) {
                BeginOutcome::Stale => migration::err_reply("superseded migration id"),
                BeginOutcome::Existing(n) => migration::ok_u64s(&[n as u64]),
                BeginOutcome::Created(entry) => {
                    let ids = trunk.cell_ids();
                    let n = ids.len() as u64;
                    entry.lock().snapshot = ids;
                    migration::ok_u64s(&[n])
                }
            },
        };
        if tiered {
            self.tiering.unpin(gid);
        }
        out
    }

    /// `MIG_READ` (donor): one bounded chunk of the snapshot, payloads
    /// read at stream time. Cells removed since the snapshot are skipped —
    /// their remove is in the delta log.
    fn handle_mig_read(&self, mid: u64, gid: u64, rest: &[u8]) -> Vec<u8> {
        let mut r = Reader::new(rest);
        let (Ok(cursor), Ok(max_cells), Ok(max_bytes), Ok(())) =
            (r.u64(), r.u32(), r.u32(), r.finish())
        else {
            return migration::err_reply("bad frame");
        };
        let Some(entry) = self.migration.donor(gid) else {
            return migration::err_reply("no migration in flight");
        };
        let Some(trunk) = self.store.trunk(gid) else {
            return migration::err_reply("trunk not resident");
        };
        let mut g = entry.lock();
        if g.mid != mid {
            return migration::err_reply("superseded migration id");
        }
        g.last_frame = Instant::now();
        let mut entries = Vec::new();
        let mut bytes = 0usize;
        let mut next = cursor;
        for &id in g
            .snapshot
            .iter()
            .skip(cursor as usize)
            .take(max_cells.max(1) as usize)
        {
            next += 1;
            if let Some((version, guard)) = trunk.get_versioned(id) {
                bytes += guard.len();
                entries.push(MigEntry::Upsert {
                    id,
                    version,
                    bytes: guard.to_vec(),
                });
                if bytes >= max_bytes as usize {
                    break;
                }
            }
        }
        migration::ok_with_entries(&[next], &entries)
    }

    /// `MIG_DELTA` (donor): one acknowledged round of the delta log (see
    /// `DonorMig::drain`), each id resolved to its current
    /// state. Removed cells ship a freshly minted fence stamp, greater
    /// than any stamp the cell ever carried.
    fn handle_mig_delta(&self, mid: u64, gid: u64, rest: &[u8]) -> Vec<u8> {
        let mut r = Reader::new(rest);
        let (Ok(max), Ok(acked), Ok(())) = (r.u32(), r.u64(), r.finish()) else {
            return migration::err_reply("bad frame");
        };
        let Some(entry) = self.migration.donor(gid) else {
            return migration::err_reply("no migration in flight");
        };
        let Some(trunk) = self.store.trunk(gid) else {
            return migration::err_reply("trunk not resident");
        };
        let mut g = entry.lock();
        if g.mid != mid {
            return migration::err_reply("superseded migration id");
        }
        g.last_frame = Instant::now();
        let (seq, ids) = g.drain(acked, (max as usize).max(1));
        let entries: Vec<MigEntry> = ids
            .into_iter()
            .map(|id| match trunk.get_versioned(id) {
                Some((version, guard)) => MigEntry::Upsert {
                    id,
                    version,
                    bytes: guard.to_vec(),
                },
                None => MigEntry::Remove {
                    id,
                    version: trinity_memstore::next_version(),
                },
            })
            .collect();
        migration::ok_with_entries(&[g.pending() as u64, seq], &entries)
    }

    /// `MIG_SEAL` (donor): refuse writes from here on (reads still serve)
    /// and report how many delta entries are still pending.
    fn handle_mig_seal(&self, mid: u64, gid: u64, _rest: &[u8]) -> Vec<u8> {
        let Some(entry) = self.migration.donor(gid) else {
            return migration::err_reply("no migration in flight");
        };
        let mut g = entry.lock();
        if g.mid != mid {
            return migration::err_reply("superseded migration id");
        }
        g.last_frame = Instant::now();
        if g.sealed_at.is_none() {
            g.sealed_at = Some(Instant::now());
        }
        migration::ok_u64s(&[g.pending() as u64])
    }

    /// `MIG_ABORT` (either side): on the donor, lift the seal and stop
    /// delta capture; on the recipient, drop the version fence and the
    /// staged trunk. The coordinator sends it to both on failure.
    fn handle_mig_abort(&self, mid: u64, gid: u64, _rest: &[u8]) -> Vec<u8> {
        self.migration.abort_donor(gid, Some(mid));
        if self.table.read().machine_for(gid) != self.machine
            && self.migration.abort_incoming(gid, mid)
        {
            self.store.evict(gid);
        }
        migration::ok_u64s(&[])
    }

    /// `MIG_APPLY` (recipient): stage a batch of migrated entries behind
    /// the per-cell version fence. The staged trunk is invisible to cell
    /// traffic — this node does not own the trunk until the flip.
    fn handle_mig_apply(&self, mid: u64, gid: u64, rest: &[u8]) -> Vec<u8> {
        let Ok(entries) = migration::decode_entries(rest) else {
            return migration::err_reply("bad frame");
        };
        if self.table.read().machine_for(gid) == self.machine {
            return migration::err_reply("already the trunk owner");
        }
        match self.migration.fence_incoming(gid, mid, entries) {
            None => migration::err_reply("superseded migration id"),
            Some((started, fresh)) => {
                if started {
                    // First frame of this attempt: discard whatever an
                    // aborted earlier attempt staged, so its leftover
                    // cells cannot resurrect after the flip.
                    self.store.evict(gid);
                }
                let trunk = self.store.ensure_trunk(gid);
                let mut applied = 0u64;
                for e in fresh {
                    let ok = match e {
                        MigEntry::Upsert { id, bytes, .. } => trunk.put(id, &bytes).is_ok(),
                        MigEntry::Remove { id, .. } => {
                            matches!(trunk.remove(id), Ok(_) | Err(StoreError::NotFound(_)))
                        }
                    };
                    if !ok {
                        return migration::err_reply("staging store error");
                    }
                    applied += 1;
                }
                migration::ok_u64s(&[applied])
            }
        }
    }

    /// `MIG_COMMIT` (recipient): persist the staged trunk to TFS so a
    /// crash after the flip recovers the migrated state, not a stale
    /// backup, and mark the staging *committed* — only from here on may
    /// a table install adopt the staged image as the trunk's contents.
    /// An empty staging still writes a (empty) backup image — otherwise
    /// the flip would reload the donor's outdated one.
    fn handle_mig_commit(&self, mid: u64, gid: u64, _rest: &[u8]) -> Vec<u8> {
        if self.table.read().machine_for(gid) != self.machine {
            // Zero-cell migrations never sent an APPLY; seed the fence so
            // a straggling frame from an older attempt is still rejected.
            match self.migration.fence_incoming(gid, mid, Vec::new()) {
                None => return migration::err_reply("superseded migration id"),
                Some((started, _)) => {
                    if started {
                        self.store.evict(gid);
                    }
                }
            }
            self.store.ensure_trunk(gid);
        }
        match self.backup_trunk(gid) {
            Ok(()) => {
                // Committed only after the TFS image landed: a staging
                // whose backup failed is still untrusted at flip time.
                self.migration.commit_incoming(gid, mid);
                migration::ok_u64s(&[])
            }
            Err(e) => migration::err_reply(&format!("backup failed: {e}")),
        }
    }

    // ------------------------------------------------------------------
    // Location-transparent cell operations
    // ------------------------------------------------------------------

    fn remote_op(
        &self,
        pid: u16,
        id: CellId,
        body: &[u8],
    ) -> Result<Option<(CellVersion, FrameBuf)>> {
        let started = Instant::now();
        let mut resynced = false;
        loop {
            let (trunk, owner) = self.route(id);
            let outcome = if owner == self.machine {
                // (Became) local — run the handler body directly. A local
                // write can still answer `MOVED` when the trunk is sealed
                // by an in-flight migration.
                let raw = match pid {
                    proto::GET => self.handle_get(self.machine, id, body),
                    proto::PUT => self.handle_put(self.machine, id, body),
                    proto::REMOVE => self.handle_remove(self.machine, id, body),
                    proto::APPEND => self.handle_append(self.machine, id, body),
                    proto::CONTAINS => self.handle_contains(self.machine, id, body),
                    proto::PUT_IF => self.handle_put_if(self.machine, id, body),
                    _ => unreachable!("unknown memcloud protocol {pid}"),
                };
                // Adopt the handler's reply Vec without copying — the
                // same zero-copy step `dispatch` performs on the wire.
                wire::parse_reply(&FrameBuf::from_vec(raw), trunk, owner)
            } else {
                self.endpoint
                    .call(owner, pid, &wire::encode_req(id, body))
                    .map_err(|e| match e {
                        // Typed so callers see "budget spent", not
                        // "network broke" — and so the retry arms below
                        // never treat an expired query as a stale table
                        // or a dead owner.
                        NetError::DeadlineExceeded(m, _) => {
                            CloudError::DeadlineExceeded { machine: m }
                        }
                        e => CloudError::Net(e),
                    })
                    .and_then(|raw| wire::parse_reply(&raw, trunk, owner))
            };
            match outcome {
                Ok(v) => return Ok(v),
                Err(e @ CloudError::Moved { .. }) => {
                    // The trunk is mid-migration (sealed flip window) or
                    // already flipped: keep syncing and retrying within
                    // the budget — the flip lands in milliseconds, so a
                    // healthy migration is invisible to the caller.
                    if started.elapsed() >= MOVED_RETRY_BUDGET {
                        return Err(e);
                    }
                    let _ = self.sync_table();
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(CloudError::WrongOwner { .. })
                | Err(CloudError::Net(NetError::Unreachable(_)))
                | Err(CloudError::Net(NetError::Timeout(..)))
                    if !resynced =>
                {
                    // Stale table or dead owner: re-sync from the TFS
                    // primary and retry once.
                    resynced = true;
                    let _ = self.sync_table();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read a cell from wherever it lives. Remote reads are served from
    /// the node's cache when a coherent copy is resident.
    ///
    /// The returned [`FrameBuf`] is a shared view of the reply frame (or
    /// of the cached copy, itself a view of the frame that filled it):
    /// reading a remote cell copies its payload exactly once — at the
    /// owner, from trunk storage into the reply.
    pub fn get(&self, id: CellId) -> Result<Option<FrameBuf>> {
        if !self.owns(id) {
            let trunk = self.table.read().trunk_of(id);
            if let Some(bytes) = self.cache.get(trunk, id) {
                return Ok(Some(bytes));
            }
        }
        match self.remote_op(proto::GET, id, b"")? {
            Some((version, bytes)) => {
                if !self.owns(id) {
                    self.cache.insert(id, version, bytes.clone());
                }
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }

    /// Insert or replace a cell. The ack carries the new version stamp,
    /// which the node applies to its own cache before returning — a
    /// machine always reads its own writes.
    pub fn put(&self, id: CellId, bytes: &[u8]) -> Result<()> {
        if let Some((version, _)) = self.remote_op(proto::PUT, id, bytes)? {
            if !self.owns(id) {
                self.cache
                    .insert(id, version, FrameBuf::copy_from_slice(bytes));
            }
        }
        Ok(())
    }

    /// Replace a cell's payload only if its version still equals
    /// `expected` — the remote single-cell compare-and-swap. Returns the
    /// new version on success; a concurrent write since the caller's
    /// versioned read surfaces as [`StoreError::VersionMismatch`], and a
    /// vanished cell as [`StoreError::NotFound`], both under
    /// [`CloudError::Store`]. Lost-ack retries are safe: a replayed CAS
    /// whose first attempt landed reads back as a mismatch, never as a
    /// double apply.
    pub fn put_if_version(
        &self,
        id: CellId,
        bytes: &[u8],
        expected: CellVersion,
    ) -> Result<CellVersion> {
        let body = wire::encode_req(expected, bytes);
        match self.remote_op(proto::PUT_IF, id, &body)? {
            Some((version, _)) => {
                if !self.owns(id) {
                    self.cache
                        .insert(id, version, FrameBuf::copy_from_slice(bytes));
                }
                Ok(version)
            }
            None => Err(CloudError::Store(StoreError::NotFound(id))),
        }
    }

    /// Remove a cell. `Ok(true)` if it existed.
    pub fn remove(&self, id: CellId) -> Result<bool> {
        match self.remote_op(proto::REMOVE, id, b"")? {
            Some((version, _)) => {
                if !self.owns(id) {
                    self.cache.invalidate(id, version);
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Append bytes to a cell's payload. `Ok(false)` if the cell is absent.
    pub fn append(&self, id: CellId, bytes: &[u8]) -> Result<bool> {
        match self.remote_op(proto::APPEND, id, bytes)? {
            Some((version, _)) => {
                // Only the delta is known here, so floor the cached copy;
                // the next read refetches the full payload.
                if !self.owns(id) {
                    self.cache.invalidate(id, version);
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The cell's current version stamp, read from its owner — the
    /// snapshot half of the [`put_if_version`](Self::put_if_version)
    /// compare-and-swap. Always consults the owner (never the local
    /// cache) so the stamp is as fresh as one network round-trip allows.
    pub fn version_of(&self, id: CellId) -> Result<Option<CellVersion>> {
        self.remote_op(proto::CONTAINS, id, b"")
            .map(|r| r.map(|(version, _)| version))
    }

    /// Whether the cell exists anywhere in the cloud. A cached copy
    /// answers without touching the fabric.
    pub fn contains(&self, id: CellId) -> Result<bool> {
        if !self.owns(id) {
            let trunk = self.table.read().trunk_of(id);
            if self.cache.get(trunk, id).is_some() {
                return Ok(true);
            }
        }
        self.remote_op(proto::CONTAINS, id, b"")
            .map(|r| r.is_some())
    }

    /// Batched read: fetch many cells with **one envelope per destination
    /// machine** instead of one call per cell, all in flight together
    /// ([`Endpoint::call_many`]). Results align with `ids`
    /// (`None` = absent). Local cells are read in place; cached remote
    /// cells are served from the cache; everything fetched on the way is
    /// cached for subsequent single-cell reads — this is the traversal
    /// frontier-prefetch primitive.
    pub fn multi_get(&self, ids: &[CellId]) -> Result<Vec<Option<FrameBuf>>> {
        let mut out: Vec<Option<FrameBuf>> = vec![None; ids.len()];
        let mut by_owner: HashMap<MachineId, Vec<(usize, CellId)>> = HashMap::new();
        let mut local: Vec<(usize, CellId)> = Vec::new();
        {
            let table = self.table.read();
            for (i, &id) in ids.iter().enumerate() {
                let owner = table.machine_of(id);
                let trunk = table.trunk_of(id);
                if owner == self.machine {
                    // Deferred below the lock scope: resolving a local
                    // trunk may fault it in from TFS, which must not run
                    // under the table read lock (the fault's budget sweep
                    // re-reads the table).
                    local.push((i, id));
                } else if let Some(bytes) = self.cache.get(trunk, id) {
                    out[i] = Some(bytes);
                } else {
                    by_owner.entry(owner).or_default().push((i, id));
                }
            }
        }
        for (i, id) in local {
            out[i] = self.local_get(id)?;
        }
        let groups: Vec<_> = by_owner
            .into_iter()
            .map(|(owner, group)| {
                let req_ids: Vec<CellId> = group.iter().map(|&(_, id)| id).collect();
                (owner, group, wire::encode_multi_req(&req_ids))
            })
            .collect();
        let requests: Vec<_> = groups
            .iter()
            .map(|(owner, _, payload)| (*owner, proto::MULTI_GET, payload.as_slice()))
            .collect();
        let replies = self.endpoint.call_many(&requests);
        for ((_, group, _), reply) in groups.into_iter().zip(replies) {
            let entries = reply
                .ok()
                .and_then(|raw| wire::decode_multi_reply(&raw, group.len()).ok());
            match entries {
                Some(entries) => {
                    for ((i, id), entry) in group.into_iter().zip(entries) {
                        match entry {
                            wire::MultiEntry::Hit(version, bytes) => {
                                // Cache and result share the reply frame:
                                // a refcount bump, not a copy.
                                self.cache.insert(id, version, bytes.clone());
                                out[i] = Some(bytes);
                            }
                            wire::MultiEntry::Missing => {}
                            // Stale table: the single-cell path re-syncs.
                            wire::MultiEntry::NotOwner => out[i] = self.get(id)?,
                        }
                    }
                }
                // Dead owner, timeout, or a malformed reply: fall back to
                // the single-cell path, which re-syncs and retries.
                None => {
                    for (i, id) in group {
                        out[i] = self.get(id)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Read a cell `multi_get` routed here. The table read that routed it
    /// is gone by now: if `install_table` handed the trunk away since, the
    /// single-cell path re-syncs and reads it from its new owner, and no
    /// empty trunk is re-created here.
    fn local_get(&self, id: CellId) -> Result<Option<FrameBuf>> {
        let Some(trunk) = self.local_trunk(id)? else {
            return self.get(id);
        };
        let got = trunk.get_owned(id);
        self.obs
            .load()
            .record_read(trunk.id(), got.as_ref().map_or(0, |b| b.len() as u64));
        Ok(got.map(FrameBuf::from_vec))
    }

    /// Warm the cache for an upcoming batch of reads (e.g. the next
    /// traversal frontier). Best-effort: a failed warm never fails the
    /// caller — the reads themselves will surface the error — but it is
    /// counted (`cloud.cache.prefetch_errors`) so a silently cold cache
    /// shows up in the metrics instead of as a latency mystery.
    pub fn prefetch(&self, ids: &[CellId]) {
        if self.multi_get(ids).is_err() {
            self.cache.record_prefetch_error();
        }
    }

    /// Counters and occupancy of this node's remote-read cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every cached remote cell (counters survive).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    // ------------------------------------------------------------------
    // Persistence & reconfiguration
    // ------------------------------------------------------------------

    /// Back one trunk up to TFS.
    pub fn backup_trunk(&self, gid: u64) -> Result<()> {
        if let Some(trunk) = self.store.trunk(gid) {
            let image = TrunkSnapshot::capture(&trunk);
            self.tfs.write(&trunk_backup_path(gid), image.as_bytes())?;
        }
        Ok(())
    }

    /// Back all locally *owned* trunks up to TFS (fault-tolerant data
    /// persistence, paper §3). Resident but unowned trunks — a migration
    /// staging in, or leftovers of an aborted one — are skipped so a
    /// partial staging never clobbers the owner's good backup.
    pub fn backup_all(&self) -> Result<()> {
        let table = self.table();
        for gid in self.store.trunk_ids() {
            if table.machine_for(gid) == self.machine {
                self.backup_trunk(gid)?;
            }
        }
        Ok(())
    }

    /// Reload a trunk from its TFS backup into the local store (used when
    /// this machine absorbs a failed machine's trunk). Missing backups
    /// yield an empty trunk — the data was never persisted, matching the
    /// paper's durability contract. A backup that exists but is damaged
    /// is [`CloudError::CorruptImage`] and loads no cell. Whatever was
    /// resident under `gid` is replaced, not merged into.
    pub fn reload_trunk(&self, gid: u64) -> Result<()> {
        self.store.evict(gid);
        let trunk = self.store.ensure_trunk(gid);
        match self.tfs.read(&trunk_backup_path(gid)) {
            Ok(bytes) => TrunkSnapshot::restore_image(&bytes, &trunk).map_err(|e| {
                self.store.evict(gid);
                image_error(gid, e)
            }),
            Err(TfsError::NotFound(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Adopt a new addressing table: reload newly owned trunks from TFS,
    /// evict trunks that moved away. No-op for stale epochs.
    ///
    /// A trunk staged by an inbound migration is already resident; when
    /// the install is the migration's own flip — the staging was marked
    /// *committed* by `MIG_COMMIT`, so its image is complete and TFS has
    /// it — it is adopted verbatim, the streamed cells surviving. Nothing
    /// else resident under a trunk the old table did not grant this node
    /// is trusted: an **uncommitted** staging is a partial stream (its
    /// coordinator died mid-migration), and a late access after the trunk
    /// moved away can leave an empty re-creation of it behind. An install
    /// that grants this node the trunk evicts either and reloads the TFS
    /// backup instead, so acked cells absent from what was resident
    /// cannot silently disappear; and an install that does not grant
    /// ownership keeps a staging only while it is actively fed (idle past
    /// the timeout it is orphaned and evicted).
    /// Coherence state is invalidated *selectively*: only the
    /// trunks whose owner actually changed drop their cached cells and
    /// sharer records; unmoved trunks kept serving (and invalidating)
    /// throughout, so their coherence state is still sound. (The revive
    /// path clears everything instead — see [`Self::refresh_after_revive`]
    /// — because a dead machine missed invalidations for unmoved trunks
    /// too.)
    pub fn install_table(&self, new: AddressingTable) -> Result<()> {
        let _installing = self.installing.lock();
        let old = {
            let cur = self.table.read();
            if new.epoch <= cur.epoch {
                return Ok(());
            }
            cur.clone()
        };
        let resident: BTreeSet<u64> = self.store.trunk_ids().into_iter().collect();
        let new_mine: BTreeSet<u64> = new.trunks_of(self.machine).into_iter().collect();
        for &gid in &new_mine {
            // A trunk this node owns but has tiered out keeps its entry
            // untouched — the spilled image is the current data and faults
            // in lazily. Forgetting the entry here would open a window
            // where a concurrent budget sweep spills an empty recreation
            // of the trunk over the good image.
            if self.tiering.state(gid).is_some() {
                continue;
            }
            // Kept: a trunk this node already owned that is resident *now*
            // (one spilled when `resident` was listed may have faulted in
            // and taken acked writes since), or the committed staging of
            // the migration whose flip this is. Anything else reloads.
            let keep = if old.machine_for(gid) == self.machine {
                self.store.trunk(gid).is_some()
            } else {
                self.migration.incoming_committed(gid)
            };
            if !keep {
                self.migration.drop_incoming(gid);
                self.store.evict(gid);
                self.reload_trunk(gid)?;
            }
        }
        for &gid in resident.difference(&new_mine) {
            // Keep an actively staging trunk: a reconfiguration unrelated
            // to the migration must not destroy its streamed cells. A
            // staging nobody has fed for STAGING_TIMEOUT is orphaned
            // (its coordinator died and the abort never arrived) — expire
            // it rather than carry the partial image indefinitely.
            if !self.migration.incoming_active(gid) {
                self.migration.drop_incoming(gid);
                self.store.evict(gid);
            }
        }
        let moved: BTreeSet<u64> = old.changed_trunks(&new).into_iter().collect();
        // Swap first, reconcile the migration books second: the write
        // gate must never see "old table, donor entry already gone".
        *self.table.write() = new.clone();
        self.migration.on_table_installed(self.machine, &old, &new);
        // Tier entries for trunks this node no longer owns are dead
        // weight (the new owner reloads from the same TFS image): drop
        // them so the write gate stops blocking on them. This runs
        // *after* the table swap — with the old table still routing
        // here, a local access racing the forget would recreate the
        // trunk empty and a sweep could spill that lie to TFS.
        for (gid, _) in self.tiering.spilled() {
            if self.table.read().machine_for(gid) != self.machine {
                self.tiering.forget(gid);
            }
        }
        self.cache.clear_trunks(&moved, old.p_bits());
        self.sharers
            .lock()
            .retain(|gid, _| new_mine.contains(gid) && !moved.contains(gid));
        Ok(())
    }

    /// Bring a machine that was dead back into service: drop every piece
    /// of possibly stale soft state (remote-read cache, sharer directory,
    /// migration books), then adopt the current TFS primary table *before*
    /// serving — a revived machine must not answer for trunks that were
    /// reassigned, or serve cached cells, while it was down.
    pub fn refresh_after_revive(&self) -> Result<()> {
        self.cache.clear();
        self.sharers.lock().clear();
        self.migration.reset();
        // Tier state died with the machine's memory: trunks the install
        // below grants come back through `reload_trunk`, which reads the
        // same TFS images spills wrote. The budget itself survives.
        self.tiering.reset();
        self.sync_table()?;
        Ok(())
    }

    /// Re-sync the table replica from the TFS primary ("a machine will
    /// always sync up with the primary addressing table replica when it
    /// fails to load a data item").
    pub fn sync_table(&self) -> Result<bool> {
        match self.tfs.read(TFS_TABLE_PATH) {
            Ok(bytes) => {
                if let Some(table) = AddressingTable::decode(&bytes) {
                    let newer = table.epoch > self.table.read().epoch;
                    if newer {
                        self.install_table(table)?;
                    }
                    Ok(newer)
                } else {
                    Err(CloudError::BadReply)
                }
            }
            Err(TfsError::NotFound(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Machine-level storage statistics.
    pub fn stats(&self) -> TrunkStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CloudConfig, MemoryCloud};

    #[test]
    fn a_mutation_reaching_the_gate_after_the_flip_is_refused() {
        // A handler checks routing, loses the CPU, and resumes after the
        // trunk was flipped away: the donor entry is gone and the trunk
        // evicted, so an ungated write would land in an empty re-creation
        // of it and be acked to nobody's benefit. Calling the handlers
        // directly is that interleaving with the sleep taken out.
        let cloud = MemoryCloud::new(CloudConfig::small(2));
        let node = cloud.node(0);
        let id = (0u64..).find(|&i| node.owns(i)).unwrap();
        node.put(id, b"before").unwrap();
        cloud.backup_all().unwrap();
        let mut table = node.table();
        let gid = table.trunk_of(id);
        table.reassign_one(gid, MachineId(1));
        cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
        for m in [1, 0] {
            cloud.node(m).install_table(table.clone()).unwrap();
        }
        let mut put_if = 0u64.to_le_bytes().to_vec();
        put_if.extend_from_slice(b"after");
        for reply in [
            node.handle_put(node.machine, id, b"after"),
            node.handle_append(node.machine, id, b"after"),
            node.handle_put_if(node.machine, id, &put_if),
            node.handle_remove(node.machine, id, b""),
        ] {
            let parsed = wire::parse_reply(&FrameBuf::from_vec(reply), gid, node.machine);
            assert!(
                matches!(parsed, Err(CloudError::Moved { epoch, .. }) if epoch == table.epoch),
                "the old owner answered {parsed:?}"
            );
        }
        assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"before");
        cloud.shutdown();
    }

    #[test]
    fn a_late_access_on_the_old_owner_leaves_no_phantom_for_a_hand_back_to_adopt() {
        // The same interleaving for reads, and what it used to cost: the
        // old owner re-created the moved trunk empty, answered NOT_FOUND
        // for a cell that exists, and kept the phantom — so a later table
        // handing the trunk back found it "already resident", skipped the
        // reload, and the cell was gone from every machine's view (and
        // from TFS at the next backup).
        let cloud = MemoryCloud::new(CloudConfig::small(2));
        let node = cloud.node(0);
        let id = (0u64..).find(|&i| node.owns(i)).unwrap();
        node.put(id, b"kept").unwrap();
        cloud.backup_all().unwrap();
        let mut table = node.table();
        let gid = table.trunk_of(id);
        let mut flip = |to: u16| {
            table.reassign_one(gid, MachineId(to));
            cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
            for m in [1, 0] {
                cloud.node(m).install_table(table.clone()).unwrap();
            }
            table.epoch
        };
        let epoch = flip(1);
        for reply in [
            node.handle_get(node.machine, id, b""),
            node.handle_contains(node.machine, id, b""),
        ] {
            let parsed = wire::parse_reply(&FrameBuf::from_vec(reply), gid, node.machine);
            assert!(
                matches!(parsed, Err(CloudError::Moved { epoch: e, .. }) if e == epoch),
                "the old owner answered {parsed:?}"
            );
        }
        let multi = node.handle_multi_get(node.machine, &wire::encode_multi_req(&[id]));
        assert!(matches!(
            wire::decode_multi_reply(&FrameBuf::from_vec(multi), 1).as_deref(),
            Ok([wire::MultiEntry::NotOwner])
        ));
        assert!(
            node.store.trunk(gid).is_none(),
            "a read re-created the trunk"
        );
        // A late write is refused too, and leaves nothing resident: the
        // gate creates a trunk only once it knows this node owns it.
        node.handle_put(node.machine, id, b"late");
        assert!(
            node.store.trunk(gid).is_none(),
            "a write re-created the trunk"
        );
        flip(0);
        for m in [0, 1] {
            assert_eq!(
                cloud.node(m).get(id).unwrap().as_deref(),
                Some(&b"kept"[..])
            );
        }
        cloud.shutdown();
    }

    #[test]
    fn a_late_multi_get_local_read_on_the_old_owner_reads_the_new_owner() {
        // `multi_get` marks an id local under the table read lock and reads
        // it after dropping the lock. If `install_table` hands the trunk
        // away in between, that read used to re-create the trunk empty,
        // answer "absent" for a cell that exists, and leave a phantom on a
        // machine that does not own it. Calling the local read after the
        // flip is that interleaving with the sleep taken out.
        let cloud = MemoryCloud::new(CloudConfig::small(2));
        let node = cloud.node(0);
        let id = (0u64..).find(|&i| node.owns(i)).unwrap();
        node.put(id, b"kept").unwrap();
        cloud.backup_all().unwrap();
        let mut table = node.table();
        let gid = table.trunk_of(id);
        table.reassign_one(gid, MachineId(1));
        cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
        for m in [1, 0] {
            cloud.node(m).install_table(table.clone()).unwrap();
        }
        assert_eq!(node.local_get(id).unwrap().as_deref(), Some(&b"kept"[..]));
        assert!(
            node.store().trunk(gid).is_none(),
            "the read re-created the trunk"
        );
        cloud.shutdown();
    }
}
