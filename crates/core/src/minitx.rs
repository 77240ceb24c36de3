//! Mini-transactions: multi-cell atomic primitives (paper §4.4).
//!
//! "Trinity guarantees the atomicity of the operation on a single cell...
//! For applications that need transaction support, we can implement
//! light-weight atomic operation primitives that span multiple cells,
//! such as MultiOp primitives \[13\] and Mini-transaction primitives \[7\],
//! on top of the atomic cell operation primitives."
//!
//! This module is that layer: Sinfonia-style mini-transactions. A
//! [`MiniTx`] names a *compare* set (cells whose current contents must
//! match), a *read* set, and a *write* set; the coordinator runs
//! two-phase commit across the owner machines:
//!
//! 1. **prepare** — each participant try-locks its cells in a logical
//!    per-machine lock table, validates the compares, and performs the
//!    reads; any busy lock or failed compare vetoes the transaction;
//! 2. **commit/abort** — on unanimous approval the writes are applied and
//!    locks released; otherwise prepared participants roll back.
//!
//! Try-locking plus coordinator-side randomized retry makes the protocol
//! deadlock-free without a global lock order. Reads *within* a
//! transaction are isolated from concurrent transactions; raw
//! [`trinity_memcloud::CloudNode::get`] reads remain merely per-cell
//! atomic, exactly the paper's consistency stance.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use trinity_memcloud::{CellId, CloudError, CloudNode, MemoryCloud};
use trinity_memstore::codec::{DecodeError, Reader};
use trinity_net::MachineId;

use crate::proto;

/// A condition on a cell's current contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compare {
    /// The cell exists and equals these bytes exactly.
    Equals(CellId, Vec<u8>),
    /// The cell exists (any contents).
    Exists(CellId),
    /// The cell does not exist.
    Absent(CellId),
}

impl Compare {
    fn cell(&self) -> CellId {
        match self {
            Compare::Equals(id, _) | Compare::Exists(id) | Compare::Absent(id) => *id,
        }
    }
}

/// A write: put new contents or remove the cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    pub cell: CellId,
    /// `Some(bytes)` puts; `None` removes.
    pub value: Option<Vec<u8>>,
}

/// A mini-transaction: compares + reads + writes, all-or-nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiniTx {
    pub compares: Vec<Compare>,
    pub reads: Vec<CellId>,
    pub writes: Vec<Write>,
}

impl MiniTx {
    pub fn new() -> Self {
        MiniTx::default()
    }

    /// Require the cell to currently equal `bytes`.
    pub fn compare_equals(mut self, cell: CellId, bytes: impl Into<Vec<u8>>) -> Self {
        self.compares.push(Compare::Equals(cell, bytes.into()));
        self
    }

    /// Require the cell to be absent.
    pub fn compare_absent(mut self, cell: CellId) -> Self {
        self.compares.push(Compare::Absent(cell));
        self
    }

    /// Read the cell's contents atomically with the rest.
    pub fn read(mut self, cell: CellId) -> Self {
        self.reads.push(cell);
        self
    }

    /// Put `bytes` into the cell on commit.
    pub fn write(mut self, cell: CellId, bytes: impl Into<Vec<u8>>) -> Self {
        self.writes.push(Write {
            cell,
            value: Some(bytes.into()),
        });
        self
    }

    /// Remove the cell on commit.
    pub fn remove(mut self, cell: CellId) -> Self {
        self.writes.push(Write { cell, value: None });
        self
    }
}

/// Outcome of an executed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// Everything validated; writes applied; reads returned.
    Committed {
        reads: HashMap<CellId, Option<Vec<u8>>>,
    },
    /// A compare failed; nothing was changed.
    Aborted { failed_compare: Compare },
}

impl TxOutcome {
    /// Whether the transaction committed.
    pub fn committed(&self) -> bool {
        matches!(self, TxOutcome::Committed { .. })
    }
}

/// Per-machine transaction participant state.
struct TxParticipant {
    /// Logical cell locks: cell → (holding transaction id, grant time).
    /// A grant is a *lease*: a lock older than [`LOCK_LEASE`] belongs to
    /// a coordinator that died mid-protocol and may be stolen by the
    /// next prepare, so dead coordinators can never wedge cells forever.
    locks: Mutex<HashMap<CellId, (u64, Instant)>>,
}

/// How long a prepared lock is honored before a competing prepare may
/// steal it. Far above any healthy prepare→commit window (microseconds
/// in-process), far below the chaos-test recovery horizon.
const LOCK_LEASE: Duration = Duration::from_millis(300);

// --- Wire formats -------------------------------------------------------

const ST_OK: u8 = 0;
const ST_BUSY: u8 = 1;
const ST_COMPARE_FAILED: u8 = 2;
/// The participant's addressing-table epoch disagrees with the
/// coordinator's: lock placement would be decided by two different
/// tables (a migration flip is in flight). Both sides re-sync and the
/// coordinator retries.
const ST_EPOCH: u8 = 3;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn take_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
    let len = r.u32()?;
    r.take(len as usize)
}

/// `n: u64 | n × u64`.
fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

fn take_u64s(r: &mut Reader) -> Result<Vec<u64>, DecodeError> {
    let n = r.u64()?;
    Ok(r.chunks::<8>(n)?
        .iter()
        .map(|w| u64::from_le_bytes(*w))
        .collect())
}

/// `tag u8 | cell u64 | [len u32 | bytes]`, the bytes for `Equals` only.
fn put_compare(out: &mut Vec<u8>, c: &Compare) {
    out.push(match c {
        Compare::Equals(..) => 0,
        Compare::Exists(_) => 1,
        Compare::Absent(_) => 2,
    });
    put_u64(out, c.cell());
    if let Compare::Equals(_, b) = c {
        put_bytes(out, b);
    }
}

fn take_compare(r: &mut Reader) -> Result<Compare, DecodeError> {
    let tag = r.u8()?;
    let id = r.u64()?;
    Ok(match tag {
        0 => Compare::Equals(id, take_bytes(r)?.to_vec()),
        1 => Compare::Exists(id),
        2 => Compare::Absent(id),
        _ => return Err(r.error()),
    })
}

/// A cell and its value or its absence, `cell u64 | 0` or
/// `cell u64 | 1 | len u32 | bytes`: a write in COMMIT, a read in
/// PREPARE's reply.
type Entry = (CellId, Option<Vec<u8>>);

fn put_entry(out: &mut Vec<u8>, cell: CellId, value: Option<&[u8]>) {
    put_u64(out, cell);
    out.push(value.is_some().into());
    if let Some(b) = value {
        put_bytes(out, b);
    }
}

fn take_entry(r: &mut Reader) -> Result<Entry, DecodeError> {
    let cell = r.u64()?;
    let value = match r.u8()? {
        0 => None,
        1 => Some(take_bytes(r)?.to_vec()),
        _ => return Err(r.error()),
    };
    Ok((cell, value))
}

/// `n: u64 | n × entry`, the count checked before anything is reserved.
fn take_entries(r: &mut Reader) -> Result<Vec<Entry>, DecodeError> {
    let n = r.u64()?;
    (0..r.count(n, 9)?).map(|_| take_entry(r)).collect()
}

/// The per-machine share of a transaction, shipped in PREPARE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TxShare {
    compares: Vec<Compare>,
    reads: Vec<CellId>,
    /// Lock-only cells (writes applied at commit, but locked at prepare).
    write_locks: Vec<CellId>,
}

fn encode_share(txid: u64, epoch: u64, share: &TxShare) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, txid);
    put_u64(&mut out, epoch);
    put_u64(&mut out, share.compares.len() as u64);
    for c in &share.compares {
        put_compare(&mut out, c);
    }
    put_u64s(&mut out, &share.reads);
    put_u64s(&mut out, &share.write_locks);
    out
}

fn decode_share(data: &[u8]) -> Result<(u64, u64, TxShare), DecodeError> {
    let mut r = Reader::new(data);
    let txid = r.u64()?;
    let epoch = r.u64()?;
    let n = r.u64()?;
    let compares = (0..r.count(n, 9)?)
        .map(|_| take_compare(&mut r))
        .collect::<Result<_, _>>()?;
    let share = TxShare {
        compares,
        reads: take_u64s(&mut r)?,
        write_locks: take_u64s(&mut r)?,
    };
    r.finish()?;
    Ok((txid, epoch, share))
}

fn encode_writes(txid: u64, writes: &[Write]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, txid);
    put_u64(&mut out, writes.len() as u64);
    for w in writes {
        put_entry(&mut out, w.cell, w.value.as_deref());
    }
    out
}

fn decode_writes(data: &[u8]) -> Result<(u64, Vec<Write>), DecodeError> {
    let mut r = Reader::new(data);
    let txid = r.u64()?;
    let writes = take_entries(&mut r)?
        .into_iter()
        .map(|(cell, value)| Write { cell, value })
        .collect();
    r.finish()?;
    Ok((txid, writes))
}

/// The transaction service: one instance installs participants on every
/// machine and coordinates from any of them.
pub struct TxService {
    cloud: Arc<MemoryCloud>,
    next_txid: AtomicU64,
}

impl std::fmt::Debug for TxService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxService").finish()
    }
}

impl TxService {
    /// Install participant handlers on every slave.
    pub fn install(cloud: Arc<MemoryCloud>) -> Arc<Self> {
        for m in 0..cloud.machines() {
            let node = Arc::clone(cloud.node(m));
            let participant = Arc::new(TxParticipant {
                locks: Mutex::new(HashMap::new()),
            });
            // PREPARE: lock, validate, read.
            {
                let node = Arc::clone(&node);
                let participant = Arc::clone(&participant);
                node.endpoint()
                    .clone()
                    .register(proto::MTX_PREPARE, move |_src, data| {
                        Some(prepare(&node, &participant, data))
                    });
            }
            // COMMIT: apply writes, release locks.
            {
                let node = Arc::clone(&node);
                let participant = Arc::clone(&participant);
                node.endpoint()
                    .clone()
                    .register(proto::MTX_COMMIT, move |_src, data| {
                        if let Ok((txid, writes)) = decode_writes(data) {
                            for w in &writes {
                                match &w.value {
                                    Some(b) => {
                                        let _ = node.put(w.cell, b);
                                    }
                                    None => {
                                        let _ = node.remove(w.cell);
                                    }
                                }
                            }
                            participant
                                .locks
                                .lock()
                                .retain(|_, &mut (holder, _)| holder != txid);
                        }
                        Some(vec![ST_OK])
                    });
            }
            // ABORT: release locks only.
            {
                let participant = Arc::clone(&participant);
                node.endpoint()
                    .clone()
                    .register(proto::MTX_ABORT, move |_src, data| {
                        if let Ok(txid) = Reader::new(data).u64() {
                            participant
                                .locks
                                .lock()
                                .retain(|_, &mut (holder, _)| holder != txid);
                        }
                        Some(vec![ST_OK])
                    });
            }
        }
        Arc::new(TxService {
            cloud,
            next_txid: AtomicU64::new(1),
        })
    }

    /// Execute a mini-transaction from machine `from`, retrying on lock
    /// contention with jittered backoff. Returns the outcome (committed
    /// or compare-aborted) or a transport/storage error.
    pub fn execute(&self, from: usize, tx: &MiniTx) -> Result<TxOutcome, CloudError> {
        let max_attempts = 200;
        for attempt in 0..max_attempts {
            match self.try_execute(from, tx)? {
                Attempt::Done(outcome) => return Ok(outcome),
                Attempt::Busy => {
                    // Jittered backoff keyed on the attempt and coordinator.
                    let jitter = ((attempt as u64 * 2654435761 + from as u64) % 7) + 1;
                    std::thread::sleep(Duration::from_micros(
                        50 * jitter * (1 + attempt as u64 / 10),
                    ));
                }
            }
        }
        Err(CloudError::Net(trinity_net::NetError::Timeout(
            MachineId(from as u16),
            proto::MTX_PREPARE,
        )))
    }

    fn try_execute(&self, from: usize, tx: &MiniTx) -> Result<Attempt, CloudError> {
        let txid = (from as u64) << 48 | self.next_txid.fetch_add(1, Ordering::Relaxed);
        let endpoint = self.cloud.node(from).endpoint();
        let table = self.cloud.node(from).table();
        // Split the transaction by owner machine.
        let mut shares: HashMap<u16, TxShare> = HashMap::new();
        let mut writes_by: HashMap<u16, Vec<Write>> = HashMap::new();
        for c in &tx.compares {
            shares
                .entry(table.machine_of(c.cell()).0)
                .or_default()
                .compares
                .push(c.clone());
        }
        for &r in &tx.reads {
            shares
                .entry(table.machine_of(r).0)
                .or_default()
                .reads
                .push(r);
        }
        for w in &tx.writes {
            let owner = table.machine_of(w.cell).0;
            shares.entry(owner).or_default().write_locks.push(w.cell);
            writes_by.entry(owner).or_default().push(w.clone());
        }
        let mut participants: Vec<u16> = shares.keys().copied().collect();
        participants.sort_unstable();
        // Best-effort abort of already-prepared participants; any that
        // cannot be reached fall back to the lock lease.
        let abort_prepared = |prepared: &[u16]| {
            let mut abort = Vec::new();
            put_u64(&mut abort, txid);
            for &p in prepared {
                let _ = endpoint.call(MachineId(p), proto::MTX_ABORT, &abort);
            }
        };
        // Phase 1: prepare. Every share carries the coordinator's table
        // epoch: a participant whose table disagrees vetoes the
        // transaction (lock placement must not be decided by two
        // different tables across a migration flip).
        let mut prepared: Vec<u16> = Vec::new();
        let mut reads: HashMap<CellId, Option<Vec<u8>>> = HashMap::new();
        let mut verdict: Option<Attempt> = None;
        for &p in &participants {
            let payload = encode_share(txid, table.epoch, &shares[&p]);
            let reply = match endpoint.call(MachineId(p), proto::MTX_PREPARE, &payload) {
                Ok(reply) => reply,
                Err(e) => {
                    // Transport failure mid-prepare: release what we
                    // already locked before surfacing the error.
                    abort_prepared(&prepared);
                    return Err(CloudError::Net(e));
                }
            };
            let mut r = Reader::new(&reply);
            match r.u8() {
                Ok(ST_OK) => {
                    prepared.push(p);
                    let Ok(entries) = take_entries(&mut r) else {
                        abort_prepared(&prepared);
                        return Err(CloudError::BadReply);
                    };
                    reads.extend(entries);
                }
                Ok(ST_BUSY) => {
                    verdict = Some(Attempt::Busy);
                    break;
                }
                Ok(ST_EPOCH) => {
                    // The participant saw a different table epoch; catch
                    // our own table up and retry as contention.
                    let _ = self.cloud.node(from).sync_table();
                    verdict = Some(Attempt::Busy);
                    break;
                }
                Ok(ST_COMPARE_FAILED) => match take_compare(&mut r) {
                    // A participant can fail only a compare its share
                    // carried; naming any other is a forged reply.
                    Ok(failed) if shares[&p].compares.contains(&failed) => {
                        verdict = Some(Attempt::Done(TxOutcome::Aborted {
                            failed_compare: failed,
                        }));
                        break;
                    }
                    _ => {
                        abort_prepared(&prepared);
                        return Err(CloudError::BadReply);
                    }
                },
                _ => {
                    abort_prepared(&prepared);
                    return Err(CloudError::BadReply);
                }
            }
        }
        // Phase 2.
        match verdict {
            None => {
                // Commit every participant even if one call fails: the
                // decision is already "commit", so stopping early would
                // strand applied prefixes behind held locks. Unreachable
                // participants release via the lock lease and the caller
                // retries the (idempotent) transaction.
                let mut first_err = None;
                for &p in &participants {
                    let payload = encode_writes(txid, writes_by.get(&p).map_or(&[][..], |v| v));
                    if let Err(e) = endpoint.call(MachineId(p), proto::MTX_COMMIT, &payload) {
                        first_err.get_or_insert(e);
                    }
                }
                match first_err {
                    None => Ok(Attempt::Done(TxOutcome::Committed { reads })),
                    Some(e) => Err(CloudError::Net(e)),
                }
            }
            Some(outcome) => {
                abort_prepared(&prepared);
                Ok(outcome)
            }
        }
    }
}

enum Attempt {
    Done(TxOutcome),
    Busy,
}

/// Participant-side prepare: try-lock every touched cell, validate the
/// compares, perform the reads.
fn prepare(node: &Arc<CloudNode>, participant: &TxParticipant, data: &[u8]) -> Vec<u8> {
    let Ok((txid, epoch, share)) = decode_share(data) else {
        return vec![ST_BUSY];
    };
    // Epoch fence: coordinator and participant must agree on the
    // addressing table, or two coordinators could place locks for the
    // same cell on different machines across a migration flip. A
    // participant behind the coordinator catches itself up before
    // vetoing so the retry can succeed.
    let own = node.table().epoch;
    if own != epoch {
        if own < epoch {
            let _ = node.sync_table();
        }
        return vec![ST_EPOCH];
    }
    // Try-lock all touched cells (sorted for determinism).
    let mut cells: Vec<CellId> = share
        .compares
        .iter()
        .map(Compare::cell)
        .chain(share.reads.iter().copied())
        .chain(share.write_locks.iter().copied())
        .collect();
    cells.sort_unstable();
    cells.dedup();
    {
        let now = Instant::now();
        let mut locks = participant.locks.lock();
        if cells.iter().any(|c| {
            locks
                .get(c)
                .is_some_and(|&(h, granted)| h != txid && now.duration_since(granted) < LOCK_LEASE)
        }) {
            return vec![ST_BUSY];
        }
        for &c in &cells {
            // Fresh grant, or a lease-expired steal from a coordinator
            // that died between prepare and commit/abort.
            locks.insert(c, (txid, now));
        }
    }
    // Validate compares (rolling the locks back on failure).
    let release = |participant: &TxParticipant| {
        participant
            .locks
            .lock()
            .retain(|_, &mut (holder, _)| holder != txid);
    };
    for c in &share.compares {
        let current = match node.get(c.cell()) {
            Ok(v) => v,
            Err(_) => {
                release(participant);
                return vec![ST_BUSY];
            }
        };
        let ok = match c {
            Compare::Equals(_, want) => current.as_deref() == Some(want.as_slice()),
            Compare::Exists(_) => current.is_some(),
            Compare::Absent(_) => current.is_none(),
        };
        if !ok {
            release(participant);
            let mut out = vec![ST_COMPARE_FAILED];
            put_compare(&mut out, c);
            return out;
        }
    }
    // Reads.
    let mut out = vec![ST_OK];
    put_u64(&mut out, share.reads.len() as u64);
    for &r in &share.reads {
        put_entry(&mut out, r, node.get(r).ok().flatten().as_deref());
    }
    out
}

/// Make every participant answer `MTX_PREPARE` with a failure of
/// `Absent(1)`, whatever its share carried.
#[cfg(test)]
pub(crate) fn forge_compare_failures(cloud: &MemoryCloud) {
    let mut reply = vec![ST_COMPARE_FAILED];
    put_compare(&mut reply, &Compare::Absent(1));
    for m in 0..cloud.machines() {
        let reply = reply.clone();
        cloud
            .node(m)
            .endpoint()
            .register(proto::MTX_PREPARE, move |_src, _data| Some(reply.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_memcloud::CloudConfig;

    fn service(machines: usize) -> (Arc<MemoryCloud>, Arc<TxService>) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let svc = TxService::install(Arc::clone(&cloud));
        (cloud, svc)
    }

    #[test]
    fn multi_cell_write_is_all_or_nothing() {
        let (cloud, svc) = service(3);
        cloud.node(0).put(1, b"old-a").unwrap();
        cloud.node(0).put(2, b"old-b").unwrap();
        // Succeeds: compares hold.
        let out = svc
            .execute(
                0,
                &MiniTx::new()
                    .compare_equals(1, &b"old-a"[..])
                    .compare_equals(2, &b"old-b"[..])
                    .write(1, &b"new-a"[..])
                    .write(2, &b"new-b"[..]),
            )
            .unwrap();
        assert!(out.committed());
        assert_eq!(cloud.node(1).get(1).unwrap().unwrap(), b"new-a");
        assert_eq!(cloud.node(2).get(2).unwrap().unwrap(), b"new-b");
        // Fails: one compare is stale; NEITHER write applies.
        let out = svc
            .execute(
                1,
                &MiniTx::new()
                    .compare_equals(1, &b"new-a"[..])
                    .compare_equals(2, &b"old-b"[..]) // stale
                    .write(1, &b"x"[..])
                    .write(2, &b"y"[..]),
            )
            .unwrap();
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                failed_compare: Compare::Equals(2, _)
            }
        ));
        assert_eq!(cloud.node(0).get(1).unwrap().unwrap(), b"new-a");
        assert_eq!(cloud.node(0).get(2).unwrap().unwrap(), b"new-b");
        cloud.shutdown();
    }

    #[test]
    fn reads_and_existence_compares() {
        let (cloud, svc) = service(2);
        cloud.node(0).put(10, b"ten").unwrap();
        let out = svc
            .execute(
                0,
                &MiniTx {
                    compares: vec![Compare::Exists(10), Compare::Absent(11)],
                    ..MiniTx::new().read(10).read(11).write(11, &b"eleven"[..])
                },
            )
            .unwrap();
        match out {
            TxOutcome::Committed { reads } => {
                assert_eq!(reads[&10].as_deref(), Some(&b"ten"[..]));
                assert_eq!(reads[&11], None);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        // Second run: 11 now exists, so compare_absent aborts.
        let out = svc
            .execute(
                1,
                &MiniTx::new().compare_absent(11).write(11, &b"twelve"[..]),
            )
            .unwrap();
        assert!(!out.committed());
        assert_eq!(cloud.node(0).get(11).unwrap().unwrap(), b"eleven");
        cloud.shutdown();
    }

    #[test]
    fn removal_is_transactional() {
        let (cloud, svc) = service(2);
        cloud.node(0).put(5, b"doomed").unwrap();
        cloud.node(0).put(6, b"witness").unwrap();
        let out = svc
            .execute(
                0,
                &MiniTx::new()
                    .compare_equals(6, &b"witness"[..])
                    .remove(5)
                    .write(6, &b"saw-it"[..]),
            )
            .unwrap();
        assert!(out.committed());
        assert_eq!(cloud.node(1).get(5).unwrap(), None);
        assert_eq!(cloud.node(1).get(6).unwrap().unwrap(), b"saw-it");
        cloud.shutdown();
    }

    #[test]
    fn concurrent_transfers_conserve_total() {
        // The classic bank-transfer invariant: N accounts, concurrent
        // compare-and-swap transfers from many coordinators; the total
        // must be conserved and no transfer may be half-applied.
        let (cloud, svc) = service(4);
        let accounts = 8u64;
        let initial = 100i64;
        for a in 0..accounts {
            cloud.node(0).put(a, &initial.to_le_bytes()).unwrap();
        }
        let transfers_per_thread = 60;
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    let mut rng_state = t as u64 + 1;
                    let mut rand = move || {
                        rng_state = rng_state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        rng_state >> 33
                    };
                    let mut done = 0;
                    while done < transfers_per_thread {
                        let from = rand() % accounts;
                        let to = rand() % accounts;
                        if from == to {
                            continue;
                        }
                        // Read both balances transactionally.
                        let read = svc.execute(t, &MiniTx::new().read(from).read(to)).unwrap();
                        let TxOutcome::Committed { reads } = read else {
                            unreachable!()
                        };
                        let bal_from = i64::from_le_bytes(
                            reads[&from].as_deref().unwrap().try_into().unwrap(),
                        );
                        let bal_to =
                            i64::from_le_bytes(reads[&to].as_deref().unwrap().try_into().unwrap());
                        let amount = 1 + (rand() % 5) as i64;
                        // Conditional transfer: both compares must still hold.
                        let tx = MiniTx::new()
                            .compare_equals(from, bal_from.to_le_bytes().to_vec())
                            .compare_equals(to, bal_to.to_le_bytes().to_vec())
                            .write(from, (bal_from - amount).to_le_bytes().to_vec())
                            .write(to, (bal_to + amount).to_le_bytes().to_vec());
                        if svc.execute(t, &tx).unwrap().committed() {
                            done += 1;
                        }
                    }
                });
            }
        });
        let total: i64 = (0..accounts)
            .map(|a| {
                let raw = cloud.node(0).get(a).unwrap().unwrap();
                i64::from_le_bytes(raw.as_slice().try_into().unwrap())
            })
            .sum();
        assert_eq!(
            total,
            initial * accounts as i64,
            "money was created or destroyed"
        );
        cloud.shutdown();
    }

    #[test]
    fn stale_epoch_prepare_is_vetoed() {
        let (cloud, _svc) = service(2);
        let share = TxShare {
            compares: vec![],
            reads: vec![1],
            write_locks: vec![],
        };
        let owner = cloud.node(0).table().machine_of(1);
        let epoch = cloud.node(0).table().epoch;
        // A coordinator claiming a future epoch is vetoed: the
        // participant must not place locks under a table it cannot see.
        let reply = cloud
            .node(0)
            .endpoint()
            .call(
                owner,
                proto::MTX_PREPARE,
                &encode_share(99, epoch + 1, &share),
            )
            .unwrap();
        assert_eq!(reply.first(), Some(&ST_EPOCH));
        // The agreeing epoch prepares fine.
        let reply = cloud
            .node(0)
            .endpoint()
            .call(owner, proto::MTX_PREPARE, &encode_share(99, epoch, &share))
            .unwrap();
        assert_eq!(reply.first(), Some(&ST_OK));
        let mut abort = Vec::new();
        put_u64(&mut abort, 99);
        cloud
            .node(0)
            .endpoint()
            .call(owner, proto::MTX_ABORT, &abort)
            .unwrap();
        cloud.shutdown();
    }

    #[test]
    fn dead_coordinator_locks_expire_via_lease() {
        let (cloud, svc) = service(2);
        cloud.node(0).put(1, b"v").unwrap();
        // Orphan a prepared lock on cell 1: prepare with no commit or
        // abort ever arriving (the coordinator "died").
        let owner = cloud.node(0).table().machine_of(1);
        let share = TxShare {
            compares: vec![],
            reads: vec![],
            write_locks: vec![1],
        };
        let epoch = cloud.node(0).table().epoch;
        let reply = cloud
            .node(0)
            .endpoint()
            .call(
                owner,
                proto::MTX_PREPARE,
                &encode_share(0xDEAD, epoch, &share),
            )
            .unwrap();
        assert_eq!(reply.first(), Some(&ST_OK));
        // Within the lease the cell is genuinely locked.
        let tx = MiniTx::new()
            .compare_equals(1, &b"v"[..])
            .write(1, &b"w"[..]);
        match svc.try_execute(0, &tx).unwrap() {
            Attempt::Busy => {}
            Attempt::Done(out) => panic!("lock must hold within its lease, got {out:?}"),
        }
        // After the lease expires the orphaned lock is stolen.
        std::thread::sleep(LOCK_LEASE + Duration::from_millis(50));
        let out = svc.execute(0, &tx).unwrap();
        assert!(out.committed(), "expired lease must be reclaimable");
        assert_eq!(cloud.node(0).get(1).unwrap().unwrap(), b"w");
        cloud.shutdown();
    }

    #[test]
    fn a_forged_compare_failure_is_a_bad_reply() {
        let (cloud, svc) = service(2);
        cloud.node(0).put(1, b"v").unwrap();
        forge_compare_failures(&cloud);
        // A read-only transaction sends no compare, so no participant can
        // fail one.
        assert_eq!(
            svc.execute(0, &MiniTx::new().read(1)),
            Err(CloudError::BadReply)
        );
        // Nor may a reply name a compare other than the ones sent.
        let tx = MiniTx {
            compares: vec![Compare::Exists(1)],
            ..MiniTx::new().write(1, &b"w"[..])
        };
        assert_eq!(svc.execute(0, &tx), Err(CloudError::BadReply));
        // The failure the share did carry is an abort.
        let tx = MiniTx::new().compare_absent(1).write(1, &b"w"[..]);
        assert_eq!(
            svc.execute(0, &tx),
            Ok(TxOutcome::Aborted {
                failed_compare: Compare::Absent(1)
            })
        );
        assert_eq!(cloud.node(0).get(1).unwrap().unwrap(), b"v");
        cloud.shutdown();
    }

    #[test]
    fn share_and_write_codecs_roundtrip() {
        let share = TxShare {
            compares: vec![
                Compare::Equals(1, b"x".to_vec()),
                Compare::Exists(2),
                Compare::Absent(3),
            ],
            reads: vec![4, 5],
            write_locks: vec![6],
        };
        let (txid, epoch, decoded) = decode_share(&encode_share(42, 7, &share)).unwrap();
        assert_eq!(txid, 42);
        assert_eq!(epoch, 7);
        assert_eq!(decoded, share);
        let writes = vec![
            Write {
                cell: 7,
                value: Some(b"v".to_vec()),
            },
            Write {
                cell: 8,
                value: None,
            },
        ];
        let (txid, decoded) = decode_writes(&encode_writes(9, &writes)).unwrap();
        assert_eq!(txid, 9);
        assert_eq!(decoded, writes);
        assert!(decode_share(b"junk").is_err());
    }

    /// A count is checked against the bytes behind it before anything is
    /// reserved: `txid | n = u64::MAX` is 16 bytes of refusal, not a
    /// capacity-overflow panic on the handler's worker.
    #[test]
    fn a_count_no_bytes_back_is_refused_before_allocating() {
        let mut frame = 9u64.to_le_bytes().to_vec();
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_writes(&frame).is_err());
        let mut share = encode_share(9, 1, &TxShare::default());
        share[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_share(&share).is_err());
    }

    /// One encoding per value: a write tag other than 0 (remove) or 1
    /// (put), and bytes after the last field, are refused.
    #[test]
    fn writes_and_shares_have_one_encoding() {
        let writes = [Write {
            cell: 7,
            value: None,
        }];
        let mut frame = encode_writes(1, &writes);
        assert!(decode_writes(&frame).is_ok());
        *frame.last_mut().unwrap() = 7;
        assert!(decode_writes(&frame).is_err(), "tag 7 is not a delete");
        let mut frame = encode_writes(1, &writes);
        frame.push(0);
        assert!(decode_writes(&frame).is_err());
        let mut share = encode_share(1, 1, &TxShare::default());
        share.push(0);
        assert!(decode_share(&share).is_err());
    }

    #[test]
    fn share_and_write_codecs_keep_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        let value = |rng: &mut Rng| rng.coin().then(|| rng.bytes(6));
        let compare = |rng: &mut Rng| match rng.below(3) {
            0 => Compare::Equals(rng.u64(), rng.bytes(6)),
            1 => Compare::Exists(rng.u64()),
            _ => Compare::Absent(rng.u64()),
        };
        check(
            0x3a1e,
            |rng| {
                let share = TxShare {
                    compares: rng.vec(3, compare),
                    reads: rng.vec(3, Rng::u64),
                    write_locks: rng.vec(3, Rng::u64),
                };
                (rng.u64(), rng.u64(), share)
            },
            |(txid, epoch, share)| encode_share(*txid, *epoch, share),
            |b| decode_share(b).ok(),
            true,
        );
        check(
            0x3a1f,
            |rng| {
                let writes = rng.vec(4, |rng| Write {
                    cell: rng.u64(),
                    value: value(rng),
                });
                (rng.u64(), writes)
            },
            |(txid, writes)| encode_writes(*txid, writes),
            |b| decode_writes(b).ok(),
            true,
        );
    }
}
