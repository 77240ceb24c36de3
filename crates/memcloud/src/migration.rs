//! Online trunk migration: the memory-cloud half of `trinity-elastic`.
//!
//! A migration streams one trunk's cells from a *donor* to a *recipient*
//! in bounded chunks **while the donor keeps serving**. The protocol is
//! coordinator-driven (the elastic engine issues every frame; donor and
//! recipient only answer), in six phases:
//!
//! 1. **Begin** — the donor snapshots its cell-id list and arms a delta
//!    log: every subsequent mutation of the trunk records the dirty cell
//!    id (reads stay untouched).
//! 2. **Stream** — the coordinator walks the snapshot cursor with
//!    `MIG_READ`, forwarding each chunk to the recipient with
//!    `MIG_APPLY`. Payloads are read at stream time, so a cell mutated
//!    after the snapshot ships its *newer* bytes (the delta record makes
//!    the final state right either way).
//! 3. **Catch-up** — `MIG_DELTA` drains the dirty set in rounds: each
//!    dirty id resolves to its *current* state (upsert with fresh bytes,
//!    or a remove), version-stamped for fencing. A round is an
//!    acknowledged cursor, not a pop: drained ids are re-sent until a
//!    later request says their batch was applied on the recipient.
//! 4. **Seal** — the donor rejects further *writes* to the trunk with
//!    `MOVED` (reads still serve); one final delta drain empties the log.
//! 5. **Commit** — the recipient persists the assembled trunk to TFS, so
//!    a post-flip crash recovers the migrated state, not a stale backup.
//! 6. **Flip** — the coordinator persists the epoch-bumped table to TFS
//!    *before* installing it anywhere, then installs on recipient, donor,
//!    and the rest of the cluster. The donor evicts the trunk and
//!    remembers its flip epoch: stale requests get `MOVED{epoch}`, which
//!    makes the client sync its table replica and retry.
//!
//! # Fencing argument
//!
//! Version stamps are minted by a process-global monotonic counter
//! (`trinity_memstore::next_version`), so any two states of a cell are
//! totally ordered by stamp. Every migrated entry carries the stamp of
//! the state it describes (removes carry a freshly minted fence stamp,
//! which is greater than every stamp the cell ever had). The recipient
//! keeps a per-cell high-water fence and drops any entry at or below it —
//! a duplicated or reordered frame can never roll a cell backwards, and
//! re-applying the same entry twice is a no-op. (The `MigrationStorm`
//! chaos seeds inject duplicates and delays; the reorder fault is armed
//! on the traversal workload only, so reordered migration frames are
//! covered by this argument and the fence unit tests, not by a seed.)
//! Control frames carry a monotonic migration id (`mid`); a frame from a
//! superseded migration attempt is rejected outright.
//!
//! The donor side is duplicate-safe because no request consumes state the
//! coordinator has not confirmed: the fabric runs every delivered copy of
//! a request and only one reply has a caller, so a `MIG_DELTA` that
//! popped what it returned would ship the copy's share to nobody.
//! `DonorMig::drain` keeps drained ids until the request's `acked`
//! sequence covers them (DESIGN §12, ordering contract clause 3).
//!
//! # Crash matrix
//!
//! * **Donor crashes** mid-migration: the coordinator's next frame fails,
//!   the migration aborts, and the ordinary §6.2 failure recovery path
//!   reassigns the trunk from its TFS backup.
//! * **Recipient crashes**: the migration aborts; the donor unseals (via
//!   `MIG_ABORT`, or the seal timeout below) and keeps serving.
//! * **Coordinator crashes**: if it died before the TFS table write, the
//!   flip never existed — the donor's seal times out, it confirms via the
//!   TFS primary that it still owns the trunk, drops the migration state
//!   and keeps serving. If it died after the TFS write, the flip *is*
//!   committed — the donor's timed-out seal check syncs the new table,
//!   completes the flip locally and answers `MOVED` from then on. Either
//!   way there is exactly one owner per the TFS primary at all times.
//! * **Coordinator is merely slow** (not dead): the seal is a lease. A
//!   donor that unseals after [`SEAL_TIMEOUT`] first *persists* that
//!   decision by rewriting the primary table at the file version it just
//!   read (a TFS compare-and-swap "touch"); the slow coordinator's flip
//!   is itself a conditional write against the version it read, so one
//!   of the two loses deterministically. A post-unseal donor write can
//!   therefore never be silently missing from a committed flip — the
//!   flip aborts instead.
//! * **Coordinator dies before sealing**: the donor entry would log
//!   dirty ids forever. An unsealed entry with no coordinator frame for
//!   [`DONOR_IDLE_TIMEOUT`] is garbage collected by the write gate; a
//!   late frame from the abandoned attempt gets "no migration in
//!   flight" and the coordinator (if alive after all) aborts cleanly.
//! * **Coordinator dies mid-stream**: the recipient's partial staging is
//!   orphaned (no abort ever arrives). It is *never* adopted as the
//!   trunk's contents: only a staging marked complete by `MIG_COMMIT`
//!   survives the table install that grants ownership — an uncommitted
//!   one is evicted and the trunk reloads from its TFS backup — and
//!   installs unrelated to the migration expire staging idle past
//!   `STAGING_TIMEOUT`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use trinity_memstore::codec::{DecodeError, Reader};
use trinity_memstore::CellVersion;
use trinity_net::{Endpoint, MachineId};

use crate::proto;
use crate::table::AddressingTable;
use crate::{CellId, CloudError, Result};

/// How long a donor honours a seal with no flip before it assumes the
/// coordinator died and resolves ownership through the TFS primary. The
/// seal is a *lease*: before resuming writes the donor must persist its
/// unseal decision by touching the primary table's file version, so a
/// merely-slow coordinator's pending flip fails its conditional write
/// instead of silently dropping the donor's post-unseal writes.
pub const SEAL_TIMEOUT: Duration = Duration::from_secs(1);

/// How long an *unsealed* donor entry survives with no coordinator
/// frame (`MIG_READ`/`MIG_DELTA`/`MIG_SEAL`) before the donor garbage
/// collects it: a coordinator that died before sealing would otherwise
/// leave the trunk paying the delta-log cost on every write forever.
/// Dropping the entry is safe pre-seal — the coordinator's next frame
/// gets "no migration in flight" and the attempt aborts cleanly.
pub const DONOR_IDLE_TIMEOUT: Duration = Duration::from_secs(3);

/// How long a recipient keeps an inbound staging with no `MIG_APPLY` /
/// `MIG_COMMIT` frame before a table install treats it as orphaned (the
/// coordinator died mid-stream and its abort never arrived) and evicts
/// it rather than carrying the partial image along.
pub(crate) const STAGING_TIMEOUT: Duration = Duration::from_secs(10);

/// Mint a migration id: globally monotonic, so a recipient can order
/// competing migration attempts for the same trunk.
pub fn next_migration_id() -> u64 {
    // Version stamps and migration ids share one monotonic source; they
    // are never compared against each other.
    trinity_memstore::next_version()
}

/// One migrated cell state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigEntry {
    /// The cell exists with these bytes, stamped `version`.
    Upsert {
        id: CellId,
        version: CellVersion,
        bytes: Vec<u8>,
    },
    /// The cell was removed; `version` is a fence stamp minted at drain
    /// time (greater than any stamp the cell ever carried).
    Remove { id: CellId, version: CellVersion },
}

impl MigEntry {
    /// The cell this entry describes.
    pub fn id(&self) -> CellId {
        match self {
            MigEntry::Upsert { id, .. } | MigEntry::Remove { id, .. } => *id,
        }
    }

    /// The fence stamp this entry carries.
    pub fn version(&self) -> CellVersion {
        match self {
            MigEntry::Upsert { version, .. } | MigEntry::Remove { version, .. } => *version,
        }
    }

    /// Payload bytes shipped by this entry (0 for removes).
    pub fn payload_len(&self) -> usize {
        match self {
            MigEntry::Upsert { bytes, .. } => bytes.len(),
            MigEntry::Remove { .. } => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Node-side state
// ---------------------------------------------------------------------

/// Donor-side record of one outbound migration.
pub(crate) struct DonorMig {
    /// Migration id this entry belongs to; stale frames are rejected.
    pub(crate) mid: u64,
    /// Cell ids resident at `MIG_BEGIN` (the stream cursor walks this).
    pub(crate) snapshot: Vec<CellId>,
    /// Dirty cells in first-touch order, awaiting a delta drain.
    pub(crate) dirty: VecDeque<CellId>,
    pub(crate) dirty_set: HashSet<CellId>,
    /// Drained, unacknowledged ids with their round's delta sequence.
    shipped: VecDeque<(u64, CellId)>,
    /// Highest delta sequence issued so far.
    delta_seq: u64,
    /// When the seal landed; `None` while streaming/catching up.
    pub(crate) sealed_at: Option<Instant>,
    /// Last coordinator frame seen; an unsealed entry idle past
    /// [`DONOR_IDLE_TIMEOUT`] is garbage collected by the write gate.
    pub(crate) last_frame: Instant,
}

impl DonorMig {
    /// One `MIG_DELTA` round: forget the rounds up to `acked` (applied on
    /// the recipient), drain up to `max` more dirty ids under the next
    /// sequence, and return it with *every* unacknowledged id. A repeated
    /// request re-reads; it cannot take ids away from the real one.
    pub(crate) fn drain(&mut self, acked: u64, max: usize) -> (u64, Vec<CellId>) {
        while self.shipped.front().is_some_and(|&(seq, _)| seq <= acked) {
            self.shipped.pop_front();
        }
        let fresh = max.min(self.dirty.len());
        if fresh > 0 {
            self.delta_seq += 1;
            for id in self.dirty.drain(..fresh) {
                self.dirty_set.remove(&id);
                self.shipped.push_back((self.delta_seq, id));
            }
        }
        let ids = self.shipped.iter().map(|&(_, id)| id).collect();
        (self.delta_seq, ids)
    }

    /// Ids not yet known to be on the recipient: unacknowledged + queued.
    pub(crate) fn pending(&self) -> usize {
        self.shipped.len() + self.dirty.len()
    }
}

/// Outcome of arming a donor-side migration (see
/// [`MigrationState::begin_donor`]).
pub(crate) enum BeginOutcome {
    /// New entry published (empty snapshot — the caller fills it).
    Created(Arc<Mutex<DonorMig>>),
    /// Same mid already armed (duplicated BEGIN); snapshot length carried.
    Existing(usize),
    /// The frame's mid is older than the armed attempt.
    Stale,
}

/// Recipient-side record of one inbound migration: the per-cell version
/// fence that makes chunk application idempotent and reorder-proof.
pub(crate) struct Incoming {
    pub(crate) mid: u64,
    pub(crate) fence: HashMap<CellId, CellVersion>,
    /// Set by `MIG_COMMIT`: the staged image is complete and persisted
    /// to TFS. Only a committed staging may be adopted as authoritative
    /// when a table install makes this node the trunk's owner — an
    /// uncommitted one is a partial stream and must be discarded.
    pub(crate) committed: bool,
    /// Last frame of this attempt; staging idle past
    /// [`STAGING_TIMEOUT`] is treated as orphaned at install time.
    pub(crate) last_frame: Instant,
}

/// A node's migration books: outbound donors, inbound fences, and the
/// trunks this node gave away (with their flip epochs, for `MOVED`).
#[derive(Default)]
pub(crate) struct MigrationState {
    donors: RwLock<HashMap<u64, Arc<Mutex<DonorMig>>>>,
    incoming: Mutex<HashMap<u64, Incoming>>,
    moved: RwLock<HashMap<u64, u64>>,
}

impl MigrationState {
    /// The donor entry for `gid`, if a migration is in flight.
    pub(crate) fn donor(&self, gid: u64) -> Option<Arc<Mutex<DonorMig>>> {
        self.donors.read().get(&gid).cloned()
    }

    /// Shared lock over the donor map. The write gate holds this across a
    /// trunk mutation so that `begin_donor` (which takes the write lock)
    /// cannot publish an entry — and snapshot the trunk — mid-mutation:
    /// every write either precedes the snapshot or is caught by the log.
    pub(crate) fn donors_read(
        &self,
    ) -> parking_lot::RwLockReadGuard<'_, HashMap<u64, Arc<Mutex<DonorMig>>>> {
        self.donors.read()
    }

    /// Exclusive lock over the donor map. The tiering spill path acquires
    /// it as a write *barrier*: every in-flight mutation holds the read
    /// lock while applying, so once this lock is granted the trunk about
    /// to be captured is quiescent, and any later mutation re-checks the
    /// tier state under the read lock and backs off.
    pub(crate) fn donors_write(
        &self,
    ) -> parking_lot::RwLockWriteGuard<'_, HashMap<u64, Arc<Mutex<DonorMig>>>> {
        self.donors.write()
    }

    /// Arm delta capture for `gid`. A newer mid supersedes a stalled
    /// older attempt; an older mid is rejected. On `Created` the caller
    /// must capture the trunk's cell ids into the (still empty) snapshot
    /// — the entry is published *first* so any write racing the snapshot
    /// is caught by the delta log (see the donor's write gate).
    pub(crate) fn begin_donor(&self, gid: u64, mid: u64) -> BeginOutcome {
        let mut donors = self.donors.write();
        if let Some(existing) = donors.get(&gid) {
            let g = existing.lock();
            match g.mid.cmp(&mid) {
                std::cmp::Ordering::Equal => return BeginOutcome::Existing(g.snapshot.len()),
                std::cmp::Ordering::Greater => return BeginOutcome::Stale,
                std::cmp::Ordering::Less => {}
            }
        }
        let entry = Arc::new(Mutex::new(DonorMig {
            mid,
            snapshot: Vec::new(),
            dirty: VecDeque::new(),
            dirty_set: HashSet::new(),
            shipped: VecDeque::new(),
            delta_seq: 0,
            sealed_at: None,
            last_frame: Instant::now(),
        }));
        donors.insert(gid, Arc::clone(&entry));
        BeginOutcome::Created(entry)
    }

    /// Drop the donor entry for `gid` if it belongs to `mid` (or to any
    /// mid, when `mid` is `None` — the local auto-unseal path).
    pub(crate) fn abort_donor(&self, gid: u64, mid: Option<u64>) {
        let mut donors = self.donors.write();
        if let Some(e) = donors.get(&gid) {
            if mid.is_none_or(|m| e.lock().mid == m) {
                donors.remove(&gid);
            }
        }
    }

    /// The flip epoch of a trunk this node gave away, if any.
    pub(crate) fn moved_epoch(&self, gid: u64) -> Option<u64> {
        self.moved.read().get(&gid).copied()
    }

    /// Run the recipient-side fence for `mid`/`gid` over `entries`,
    /// returning only the entries that survive (newer than the fence).
    /// `None` means the whole frame is from a superseded migration. The
    /// boolean is true when this frame *starts* an attempt (first frame,
    /// or a newer mid superseding a stalled one): the caller must then
    /// discard whatever a previous attempt staged before applying.
    pub(crate) fn fence_incoming(
        &self,
        gid: u64,
        mid: u64,
        entries: Vec<MigEntry>,
    ) -> Option<(bool, Vec<MigEntry>)> {
        let mut incoming = self.incoming.lock();
        let mut started = false;
        let inc = incoming.entry(gid).or_insert_with(|| {
            started = true;
            Incoming {
                mid,
                fence: HashMap::new(),
                committed: false,
                last_frame: Instant::now(),
            }
        });
        match inc.mid.cmp(&mid) {
            std::cmp::Ordering::Greater => return None,
            std::cmp::Ordering::Less => {
                // A newer attempt supersedes whatever the old one staged.
                started = true;
                *inc = Incoming {
                    mid,
                    fence: HashMap::new(),
                    committed: false,
                    last_frame: Instant::now(),
                };
            }
            std::cmp::Ordering::Equal => inc.last_frame = Instant::now(),
        }
        let mut fresh = Vec::with_capacity(entries.len());
        for e in entries {
            match inc.fence.get(&e.id()) {
                Some(&v) if v >= e.version() => continue,
                _ => {
                    inc.fence.insert(e.id(), e.version());
                    fresh.push(e);
                }
            }
        }
        Some((started, fresh))
    }

    /// Whether an inbound migration is staging into `gid` on this node.
    pub(crate) fn has_incoming(&self, gid: u64) -> bool {
        self.incoming.lock().contains_key(&gid)
    }

    /// Mark `gid`'s inbound staging complete (its image is persisted to
    /// TFS): `MIG_COMMIT` landed for `mid`. A table flip may now adopt
    /// the staged trunk as authoritative. Stale mids are ignored.
    pub(crate) fn commit_incoming(&self, gid: u64, mid: u64) {
        if let Some(inc) = self.incoming.lock().get_mut(&gid) {
            if inc.mid == mid {
                inc.committed = true;
                inc.last_frame = Instant::now();
            }
        }
    }

    /// Whether `gid`'s inbound staging, if any, is committed — i.e. the
    /// resident trunk holds a complete, TFS-persisted migrated image
    /// that a table install may trust.
    pub(crate) fn incoming_committed(&self, gid: u64) -> bool {
        self.incoming
            .lock()
            .get(&gid)
            .is_some_and(|inc| inc.committed)
    }

    /// Whether `gid`'s inbound staging is still actively fed (a frame
    /// within [`STAGING_TIMEOUT`]). An inactive one is orphaned: its
    /// coordinator died mid-stream and the abort never arrived.
    pub(crate) fn incoming_active(&self, gid: u64) -> bool {
        self.incoming
            .lock()
            .get(&gid)
            .is_some_and(|inc| inc.last_frame.elapsed() < STAGING_TIMEOUT)
    }

    /// Unconditionally drop `gid`'s inbound staging record (install-time
    /// cleanup of orphaned or untrusted staging).
    pub(crate) fn drop_incoming(&self, gid: u64) {
        self.incoming.lock().remove(&gid);
    }

    /// Drop the inbound fence for `gid` if it belongs to `mid` — the
    /// recipient half of an abort. Returns whether it was dropped; a late
    /// abort from a superseded attempt must not touch newer staging.
    pub(crate) fn abort_incoming(&self, gid: u64, mid: u64) -> bool {
        let mut incoming = self.incoming.lock();
        if incoming.get(&gid).is_some_and(|inc| inc.mid == mid) {
            incoming.remove(&gid);
            return true;
        }
        false
    }

    /// Forget everything — used when a machine revives after a crash: its
    /// in-flight migrations (either side) died with it, and the fresh
    /// table sync rebuilds the `moved` book from scratch.
    pub(crate) fn reset(&self) {
        self.donors.write().clear();
        self.incoming.lock().clear();
        self.moved.write().clear();
    }

    /// Reconcile the books with a freshly installed table: donor entries
    /// for trunks that left this machine are over (the flip completed),
    /// their flip epochs are recorded for `MOVED` replies, and inbound
    /// fences for trunks now owned here are done. Trunks that came *back*
    /// are no longer "moved".
    pub(crate) fn on_table_installed(
        &self,
        me: MachineId,
        old: &AddressingTable,
        new: &AddressingTable,
    ) {
        self.donors
            .write()
            .retain(|&gid, _| new.machine_for(gid) == me);
        let mut moved = self.moved.write();
        for gid in old.trunks_of(me) {
            if new.machine_for(gid) != me {
                moved.insert(gid, new.epoch);
            }
        }
        moved.retain(|&gid, _| new.machine_for(gid) != me);
        drop(moved);
        self.incoming
            .lock()
            .retain(|&gid, _| new.machine_for(gid) != me);
    }
}

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

pub(crate) const MIG_OK: u8 = 0;
pub(crate) const MIG_ERR: u8 = 1;

const UPSERT_TAG: u8 = 0;
const REMOVE_TAG: u8 = 1;

/// Every migration request starts `[mid u64, trunk u64]`.
pub(crate) fn encode_header(mid: u64, trunk: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&mid.to_le_bytes());
    out.extend_from_slice(&trunk.to_le_bytes());
    out
}

pub(crate) fn decode_header(data: &[u8]) -> std::result::Result<(u64, u64, &[u8]), DecodeError> {
    let mut r = Reader::new(data);
    Ok((r.u64()?, r.u64()?, r.rest()))
}

pub(crate) fn encode_entries(out: &mut Vec<u8>, entries: &[MigEntry]) {
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        let (tag, id, version, bytes) = match e {
            MigEntry::Upsert { id, version, bytes } => (UPSERT_TAG, id, version, Some(bytes)),
            MigEntry::Remove { id, version } => (REMOVE_TAG, id, version, None),
        };
        out.push(tag);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        if let Some(bytes) = bytes {
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
}

/// The entries [`encode_entries`] wrote, and nothing after them.
pub(crate) fn decode_entries(data: &[u8]) -> std::result::Result<Vec<MigEntry>, DecodeError> {
    let mut r = Reader::new(data);
    let n = r.u32()?;
    let n = r.count(n.into(), 17)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        let (id, version) = (r.u64()?, r.u64()?);
        entries.push(match tag {
            UPSERT_TAG => {
                let len = r.u32()?;
                let bytes = r.take(len as usize)?.to_vec();
                MigEntry::Upsert { id, version, bytes }
            }
            REMOVE_TAG => MigEntry::Remove { id, version },
            _ => return Err(r.error()),
        });
    }
    r.finish()?;
    Ok(entries)
}

pub(crate) fn ok_u64s(fields: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + fields.len() * 8);
    out.push(MIG_OK);
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

pub(crate) fn err_reply(msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + msg.len());
    out.push(MIG_ERR);
    out.extend_from_slice(msg.as_bytes());
    out
}

pub(crate) fn ok_with_entries(fields: &[u64], entries: &[MigEntry]) -> Vec<u8> {
    let mut out = ok_u64s(fields);
    encode_entries(&mut out, entries);
    out
}

/// Split an OK reply into its leading u64 fields and the remainder, or
/// surface the carried error.
fn parse_ok(raw: &[u8], n_fields: usize) -> Result<(Vec<u64>, &[u8])> {
    let mut r = Reader::new(raw);
    match r.u8()? {
        MIG_OK => {
            let fields = (0..n_fields)
                .map(|_| r.u64())
                .collect::<std::result::Result<_, _>>()?;
            Ok((fields, r.rest()))
        }
        MIG_ERR => Err(CloudError::Migration(
            String::from_utf8_lossy(r.rest()).into_owned(),
        )),
        _ => Err(CloudError::BadReply),
    }
}

// ---------------------------------------------------------------------
// Coordinator-side client API (used by trinity-elastic)
// ---------------------------------------------------------------------

fn call(ep: &Endpoint, dst: MachineId, pid: u16, req: &[u8]) -> Result<Vec<u8>> {
    ep.call(dst, pid, req)
        .map(|r| r.into_vec())
        .map_err(CloudError::Net)
}

/// Arm delta capture on the donor. Returns the snapshot cell count.
pub fn begin(ep: &Endpoint, donor: MachineId, mid: u64, trunk: u64) -> Result<u64> {
    let raw = call(ep, donor, proto::MIG_BEGIN, &encode_header(mid, trunk))?;
    Ok(parse_ok(&raw, 1)?.0[0])
}

/// Read one bounded chunk of the donor's snapshot from `cursor`.
/// Returns `(next_cursor, entries)`; an empty batch with
/// `next_cursor >= snapshot length` ends the stream.
pub fn read_chunk(
    ep: &Endpoint,
    donor: MachineId,
    mid: u64,
    trunk: u64,
    cursor: u64,
    max_cells: u32,
    max_bytes: u32,
) -> Result<(u64, Vec<MigEntry>)> {
    let mut req = encode_header(mid, trunk);
    req.extend_from_slice(&cursor.to_le_bytes());
    req.extend_from_slice(&max_cells.to_le_bytes());
    req.extend_from_slice(&max_bytes.to_le_bytes());
    let raw = call(ep, donor, proto::MIG_READ, &req)?;
    let (fields, rest) = parse_ok(&raw, 1)?;
    Ok((fields[0], decode_entries(rest)?))
}

/// One round of the donor's delta log. `acked` is the highest delta
/// sequence the caller has applied on the recipient (0 at first); up to
/// `max` more dirty cells are drained. Returns `(pending, seq, entries)`:
/// every cell drained after `acked` at its current state — pass `seq` as
/// `acked` once applied — and how many cells the donor still holds for
/// this migration, these included.
pub fn drain_delta(
    ep: &Endpoint,
    donor: MachineId,
    mid: u64,
    trunk: u64,
    acked: u64,
    max: u32,
) -> Result<(u64, u64, Vec<MigEntry>)> {
    let mut req = encode_header(mid, trunk);
    req.extend_from_slice(&max.to_le_bytes());
    req.extend_from_slice(&acked.to_le_bytes());
    let raw = call(ep, donor, proto::MIG_DELTA, &req)?;
    let (fields, rest) = parse_ok(&raw, 2)?;
    Ok((fields[0], fields[1], decode_entries(rest)?))
}

/// Seal the trunk on the donor: writes are refused from here on (reads
/// still serve). Returns the delta entries still pending.
pub fn seal(ep: &Endpoint, donor: MachineId, mid: u64, trunk: u64) -> Result<u64> {
    let raw = call(ep, donor, proto::MIG_SEAL, &encode_header(mid, trunk))?;
    Ok(parse_ok(&raw, 1)?.0[0])
}

/// Abandon the migration on the donor: delta capture stops, a seal is
/// lifted, and the donor keeps serving as before.
pub fn abort(ep: &Endpoint, donor: MachineId, mid: u64, trunk: u64) -> Result<()> {
    let raw = call(ep, donor, proto::MIG_ABORT, &encode_header(mid, trunk))?;
    parse_ok(&raw, 0).map(|_| ())
}

/// Apply a batch of migrated entries on the recipient. Returns how many
/// survived the version fence (duplicates and stale frames are dropped).
pub fn apply(
    ep: &Endpoint,
    recipient: MachineId,
    mid: u64,
    trunk: u64,
    entries: &[MigEntry],
) -> Result<u64> {
    let mut req = encode_header(mid, trunk);
    encode_entries(&mut req, entries);
    let raw = call(ep, recipient, proto::MIG_APPLY, &req)?;
    Ok(parse_ok(&raw, 1)?.0[0])
}

/// Persist the assembled trunk on the recipient to TFS (pre-flip, so a
/// crash after the flip recovers the migrated state).
pub fn commit(ep: &Endpoint, recipient: MachineId, mid: u64, trunk: u64) -> Result<()> {
    let raw = call(ep, recipient, proto::MIG_COMMIT, &encode_header(mid, trunk))?;
    parse_ok(&raw, 0).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_codec_roundtrip() {
        let entries = vec![
            MigEntry::Upsert {
                id: 7,
                version: 40,
                bytes: b"payload".to_vec(),
            },
            MigEntry::Remove { id: 9, version: 41 },
            MigEntry::Upsert {
                id: 1,
                version: 42,
                bytes: Vec::new(),
            },
        ];
        let mut raw = Vec::new();
        encode_entries(&mut raw, &entries);
        assert_eq!(decode_entries(&raw).unwrap(), entries);
        // Truncation does not parse, nor does a byte after the last entry.
        assert!(decode_entries(&raw[..raw.len() - 1]).is_err());
        raw.push(0);
        assert!(decode_entries(&raw).is_err());
    }

    #[test]
    fn header_roundtrip() {
        let h = encode_header(5, 12);
        assert_eq!(decode_header(&h), Ok((5, 12, &b""[..])));
        assert!(decode_header(&h[..10]).is_err());
    }

    #[test]
    fn header_and_entry_codecs_keep_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        let header = |rng: &mut Rng| (rng.u64(), rng.u64(), rng.bytes(6));
        check(
            0x419,
            header,
            |(mid, trunk, rest)| [encode_header(*mid, *trunk), rest.clone()].concat(),
            |b| {
                decode_header(b)
                    .ok()
                    .map(|(m, t, rest)| (m, t, rest.to_vec()))
            },
            true,
        );
        let entry = |rng: &mut Rng| {
            let (id, version) = (rng.u64(), rng.u64());
            if rng.coin() {
                MigEntry::Remove { id, version }
            } else {
                let bytes = rng.bytes(8);
                MigEntry::Upsert { id, version, bytes }
            }
        };
        check(
            0x41a,
            |rng| rng.vec(4, entry),
            |entries| {
                let mut out = Vec::new();
                encode_entries(&mut out, entries);
                out
            },
            |b| decode_entries(b).ok(),
            true,
        );
    }

    #[test]
    fn incoming_fence_drops_stale_and_duplicate_entries() {
        let st = MigrationState::default();
        let up = |id, version| MigEntry::Upsert {
            id,
            version,
            bytes: vec![version as u8],
        };
        let (started, first) = st.fence_incoming(3, 10, vec![up(1, 5), up(2, 6)]).unwrap();
        assert!(started);
        assert_eq!(first.len(), 2);
        // A duplicated frame re-applies nothing (and does not restart).
        let (started, dup) = st.fence_incoming(3, 10, vec![up(1, 5), up(2, 6)]).unwrap();
        assert!(!started && dup.is_empty());
        // A newer state passes; an older reordered one does not.
        let (_, next) = st
            .fence_incoming(
                3,
                10,
                vec![up(1, 9), MigEntry::Remove { id: 2, version: 4 }],
            )
            .unwrap();
        assert_eq!(next, vec![up(1, 9)]);
        // A frame from a superseded migration attempt is rejected whole.
        assert!(st.fence_incoming(3, 9, vec![up(1, 50)]).is_none());
        // A newer attempt resets the fence (and flags the restart so the
        // recipient discards the old staging).
        let (started, fresh) = st.fence_incoming(3, 11, vec![up(1, 5)]).unwrap();
        assert!(started);
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    fn delta_drain_resends_until_acknowledged() {
        let st = MigrationState::default();
        let BeginOutcome::Created(entry) = st.begin_donor(1, 10) else {
            panic!("first begin must create");
        };
        let mut g = entry.lock();
        let dirty = |g: &mut DonorMig, id| {
            if g.dirty_set.insert(id) {
                g.dirty.push_back(id);
            }
        };
        for id in [5, 6, 7] {
            dirty(&mut g, id);
        }
        assert_eq!(g.drain(0, 2), (1, vec![5, 6]));
        // The same request again re-reads round 1 and drains on.
        assert_eq!(g.drain(0, 2), (2, vec![5, 6, 7]));
        assert_eq!(g.pending(), 3);
        // A cell written after it was drained is dirty again.
        dirty(&mut g, 5);
        assert_eq!(g.drain(1, 2), (3, vec![7, 5]));
        // A late copy carrying an old acknowledgement takes nothing away.
        assert_eq!(g.drain(0, 2), (3, vec![7, 5]));
        assert_eq!(g.drain(3, 2), (3, vec![]));
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn begin_donor_orders_migration_attempts() {
        let st = MigrationState::default();
        let BeginOutcome::Created(entry) = st.begin_donor(1, 10) else {
            panic!("first begin must create");
        };
        entry.lock().snapshot = vec![1, 2, 3];
        // Same mid is idempotent (duplicated BEGIN frame).
        assert!(matches!(st.begin_donor(1, 10), BeginOutcome::Existing(3)));
        // Stale mid is rejected; newer mid supersedes.
        assert!(matches!(st.begin_donor(1, 9), BeginOutcome::Stale));
        assert!(matches!(st.begin_donor(1, 11), BeginOutcome::Created(_)));
        // Abort with the wrong mid is a no-op; right mid clears.
        st.abort_donor(1, Some(10));
        assert!(st.donor(1).is_some());
        st.abort_donor(1, Some(11));
        assert!(st.donor(1).is_none());
    }
}
