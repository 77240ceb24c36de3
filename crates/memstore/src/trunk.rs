//! Memory trunks with circular memory management (paper §3, §6.1).
//!
//! A trunk is one shard of the memory cloud hosted on one machine. It holds
//! key-value pairs ("cells") back to back in a single reserved memory region
//! and manages them with the paper's circular scheme:
//!
//! ```text
//!        reserved ............................................ reserved
//!        |            committed             |
//!   ┌────┴──────┬───────────────────────────┴──────┬───────────────┐
//!   │  (free)   │ cell │ cell │ tomb │ cell │ cell │    (free)     │
//!   └───────────┴──────┴──────┴──────┴──────┴──────┴───────────────┘
//!               ^ committed tail                   ^ append head
//! ```
//!
//! New cells are appended at the *append head*; removing or relocating a
//! cell leaves a tombstone; the defragmentation pass walks from the
//! *committed tail*, re-appends live cells at the head and reclaims the
//! space they vacate, so the whole window crawls around the trunk in an
//! endless circular movement. Cell expansion can leave *short-lived
//! reservations* (slack capacity) so that a growing cell is not copied on
//! every append; the slack is dropped the next time defragmentation moves
//! the cell.
//!
//! # In-buffer entry format
//!
//! Every entry is 8-byte aligned:
//!
//! ```text
//! +------------+------------+----------+--------------------------+
//! | uid: u64   | cap: u32   | size:u32 | payload: align8(cap)     |
//! +------------+------------+----------+--------------------------+
//! ```
//!
//! `uid == u64::MAX` marks a tombstone (skipped, reclaimable); a single
//! `u64::MAX - 1` word marks a wrap filler covering the rest of the buffer.
//!
//! # Locking protocol
//!
//! Three lock kinds exist: the trunk allocation mutex, the index `RwLock`,
//! and per-cell spin locks. Deadlock freedom relies on these rules:
//!
//! 1. A thread never *blocks* on a cell spin lock while holding an index
//!    guard — cell locks are acquired with `try_lock` under the index read
//!    guard, retrying from the lookup on failure ([`Trunk::lock_cell`]).
//! 2. A thread never waits on the allocation mutex while holding an index
//!    guard.
//! 3. The defragmentation pass (which holds the allocation mutex) only
//!    `try_lock`s cell locks; a held lock means the cell is pinned in place
//!    and the pass stops at it.
//!
//! The resulting wait-for edges are `spin lock → alloc mutex → index` with
//! no cycle.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use trinity_obs::{Counter, Gauge, Histogram, MachineScope};

use crate::error::StoreError;
use crate::meta::{CellMeta, MetaSlab};
use crate::stats::TrunkStats;
use crate::table::IdTable;
use crate::{next_version, CellId, CellVersion, Result};

/// Entry header size: uid (8) + capacity (4) + size (4).
pub(crate) const HEADER: usize = 16;
/// Tombstone marker in the uid field.
const TOMB: u64 = u64::MAX;
/// Wrap filler marker: the rest of the buffer up to the reserved end is
/// unused; scanning continues at offset 0.
const WRAP: u64 = u64::MAX - 1;

#[inline]
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

/// Configuration for a single memory trunk.
#[derive(Debug, Clone)]
pub struct TrunkConfig {
    /// Reserved address-space size of the trunk. The paper reserves 2 GB per
    /// trunk; tests and simulations use much smaller trunks. Rounded up to a
    /// multiple of `page_bytes`.
    pub reserved_bytes: usize,
    /// Commit granularity used for the committed-memory accounting.
    pub page_bytes: usize,
    /// Short-lived reservation factor for cell expansion: on relocation-
    /// requiring growth the cell gets `growth * expansion_slack` extra
    /// capacity (rounded to 8) so immediately following expansions stay
    /// in place. `0.0` disables reservations (ablation E14).
    pub expansion_slack: f64,
}

impl Default for TrunkConfig {
    fn default() -> Self {
        TrunkConfig {
            reserved_bytes: 64 << 20,
            page_bytes: 64 << 10,
            expansion_slack: 1.0,
        }
    }
}

impl TrunkConfig {
    /// A small trunk suitable for unit tests and doc examples.
    pub fn small() -> Self {
        TrunkConfig {
            reserved_bytes: 256 << 10,
            page_bytes: 4 << 10,
            expansion_slack: 1.0,
        }
    }
}

/// Allocation state protected by the trunk's allocation mutex.
#[derive(Debug)]
struct AllocState {
    /// Next append position.
    head: usize,
    /// Start of the in-use circular window.
    tail: usize,
    /// Bytes in the circular window `[tail, head)`; `used == reserved`
    /// means completely full.
    used: usize,
    /// Committed-memory accounting (page-rounded high-water of `used`,
    /// lowered when defragmentation releases pages).
    committed: usize,
    /// Number of completed defragmentation passes.
    defrag_passes: u64,
}

/// Index protected by the trunk's `RwLock`: id → metadata slot, plus the
/// slab owning the metadata records.
#[derive(Debug)]
struct Index {
    table: IdTable,
    slab: MetaSlab,
}

/// Report returned by [`Trunk::defragment`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragReport {
    /// Live cells relocated toward the append head.
    pub moved_cells: u64,
    /// Payload bytes copied while relocating.
    pub moved_bytes: u64,
    /// Bytes reclaimed at the committed tail (tombstones, fillers, slack).
    pub reclaimed_bytes: u64,
    /// False if the pass stopped early at a pinned cell or because the
    /// trunk was too full to relocate a cell.
    pub completed: bool,
}

/// Cached `store.*` metric handles for one trunk (paper §6.1 figures are
/// built on exactly these: allocation volume, relocation churn, and the
/// committed/used watermarks of the circular window).
///
/// Handles are resolved once at trunk construction; hot paths touch only
/// relaxed atomics. Gauges are updated with *deltas*, never absolute
/// values, so several trunks hosted by the same machine sum naturally in
/// the shared [`MachineScope`].
#[derive(Debug, Clone)]
struct TrunkMetrics {
    /// Successful allocations from the circular window (`store.alloc`).
    alloc: Arc<Counter>,
    /// Entry sizes of those allocations (`store.alloc.bytes`).
    alloc_bytes: Arc<Histogram>,
    /// Allocations that failed even after a defrag retry (`store.oom`).
    oom: Arc<Counter>,
    /// Cell relocations caused by growth beyond capacity (`store.realloc`).
    realloc: Arc<Counter>,
    /// Completed defragmentation passes (`store.defrag.passes`).
    defrag_passes: Arc<Counter>,
    /// Payload bytes copied by defragmentation (`store.defrag.moved_bytes`).
    defrag_moved: Arc<Counter>,
    /// Bytes reclaimed at the tail (`store.defrag.reclaimed_bytes`).
    defrag_reclaimed: Arc<Counter>,
    /// Machine-wide circular-window bytes in use (`store.used_bytes`).
    used_bytes: Arc<Gauge>,
    /// Machine-wide committed bytes (`store.committed_bytes`).
    committed_bytes: Arc<Gauge>,
}

impl TrunkMetrics {
    fn new(obs: &MachineScope) -> Self {
        TrunkMetrics {
            alloc: obs.counter("store.alloc"),
            alloc_bytes: obs.histogram("store.alloc.bytes"),
            oom: obs.counter("store.oom"),
            realloc: obs.counter("store.realloc"),
            defrag_passes: obs.counter("store.defrag.passes"),
            defrag_moved: obs.counter("store.defrag.moved_bytes"),
            defrag_reclaimed: obs.counter("store.defrag.reclaimed_bytes"),
            used_bytes: obs.gauge("store.used_bytes"),
            committed_bytes: obs.gauge("store.committed_bytes"),
        }
    }
}

/// One memory trunk: a circularly managed slab of cells plus its hash
/// table. All methods take `&self`; the trunk is internally synchronized
/// and may be shared across threads (`Arc<Trunk>`).
pub struct Trunk {
    /// Global trunk id within the memory cloud (slot in the addressing table).
    id: u64,
    cfg: TrunkConfig,
    buf: *mut u8,
    layout: Layout,
    reserved: usize,
    alloc: Mutex<AllocState>,
    index: RwLock<Index>,
    /// Sum of live payload bytes.
    live_payload: AtomicUsize,
    /// Sum of live entry bytes (header + aligned capacity, i.e. including
    /// reservation slack).
    live_entry: AtomicUsize,
    /// Sum of live entry bytes if every capacity were shrunk to its size
    /// (used to report how much slack reservations currently hold).
    live_tight: AtomicUsize,
    bytes_moved: AtomicUsize,
    /// Mutating calls so far; see [`Trunk::mutation_count`].
    mutations: AtomicU64,
    metrics: TrunkMetrics,
}

// SAFETY: the raw buffer is only accessed under the locking protocol
// described in the module docs — every byte of the buffer is reachable by at
// most one writer at a time (the allocating thread before publication, a
// cell-lock holder, or the defragmentation pass under the allocation mutex),
// and readers always hold the owning cell's spin lock.
unsafe impl Send for Trunk {}
unsafe impl Sync for Trunk {}

impl Drop for Trunk {
    fn drop(&mut self) {
        // Withdraw this trunk's contribution from the machine-level
        // watermark gauges so dropped/evicted trunks don't leave stale
        // residue in the scope shared with the machine's other trunks.
        {
            let st = self.alloc.lock();
            self.metrics.used_bytes.sub(st.used as i64);
            self.metrics.committed_bytes.sub(st.committed as i64);
        }
        // SAFETY: `buf` was allocated with exactly `layout` in `Trunk::new`.
        unsafe { dealloc(self.buf, self.layout) }
    }
}

impl std::fmt::Debug for Trunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trunk")
            .field("id", &self.id)
            .field("reserved", &self.reserved)
            .field("cells", &self.cell_count())
            .finish()
    }
}

impl Trunk {
    /// Create an empty trunk with the given global id.
    ///
    /// The full reserved region is allocated zeroed up front; like the
    /// paper's reserve/commit split, untouched pages cost no physical
    /// memory (the OS backs them lazily), while the `committed` statistic
    /// models the explicit page commits the paper performs.
    pub fn new(id: u64, cfg: TrunkConfig) -> Self {
        Self::with_obs(id, cfg, MachineScope::detached())
    }

    /// Like [`Trunk::new`], but publishing `store.*` metrics into the given
    /// machine scope instead of a detached one. All trunks hosted by a
    /// machine share its scope; gauge updates are deltas so they aggregate.
    pub fn with_obs(id: u64, cfg: TrunkConfig, obs: MachineScope) -> Self {
        let page = cfg.page_bytes.max(8).next_power_of_two();
        let reserved = align8(cfg.reserved_bytes.max(2 * page)).next_multiple_of(page);
        let layout = Layout::from_size_align(reserved, 8).expect("valid trunk layout");
        // SAFETY: layout has nonzero size.
        let buf = unsafe { alloc_zeroed(layout) };
        assert!(
            !buf.is_null(),
            "trunk allocation of {reserved} bytes failed"
        );
        Trunk {
            id,
            cfg: TrunkConfig {
                page_bytes: page,
                reserved_bytes: reserved,
                ..cfg
            },
            buf,
            layout,
            reserved,
            alloc: Mutex::new(AllocState {
                head: 0,
                tail: 0,
                used: 0,
                committed: 0,
                defrag_passes: 0,
            }),
            index: RwLock::new(Index {
                table: IdTable::new(),
                slab: MetaSlab::new(),
            }),
            live_payload: AtomicUsize::new(0),
            live_entry: AtomicUsize::new(0),
            live_tight: AtomicUsize::new(0),
            bytes_moved: AtomicUsize::new(0),
            mutations: AtomicU64::new(0),
            metrics: TrunkMetrics::new(&obs),
        }
    }

    /// Global trunk id (the addressing-table slot this trunk occupies).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of live cells.
    pub fn cell_count(&self) -> usize {
        self.index.read().table.len()
    }

    /// How many mutating calls (`put`, `insert_new`, `update`,
    /// `put_if_version`, `append`, `remove`, `get_mut`) this trunk has
    /// served. Monotone; defragmentation moves bytes without changing any
    /// cell and does not count. Two equal readings with no mutating call
    /// in flight between them mean the cell contents did not change —
    /// tiering uses that to skip re-writing an image TFS already holds.
    ///
    /// The counter is `Relaxed`: it publishes no data itself. A reader
    /// that needs the guarantee above must already be ordered after the
    /// writers it cares about (tiering reads it behind its seal barrier).
    pub fn mutation_count(&self) -> u64 {
        self.mutations.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_mutation(&self) {
        self.mutations.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> TrunkStats {
        let st = self.alloc.lock();
        let live_entry = self.live_entry.load(Ordering::Relaxed);
        TrunkStats {
            reserved_bytes: self.reserved,
            committed_bytes: st.committed,
            used_bytes: st.used,
            live_payload_bytes: self.live_payload.load(Ordering::Relaxed),
            live_entry_bytes: live_entry,
            dead_bytes: st.used.saturating_sub(live_entry),
            slack_bytes: live_entry.saturating_sub(self.live_tight.load(Ordering::Relaxed)),
            cell_count: self.index.read().table.len(),
            defrag_passes: st.defrag_passes,
            bytes_moved: self.bytes_moved.load(Ordering::Relaxed) as u64,
        }
    }

    // ------------------------------------------------------------------
    // Raw buffer helpers. All offsets are 8-aligned and in-bounds by
    // construction (produced by `allocate` / header scans).
    // ------------------------------------------------------------------

    #[inline]
    fn read_u64(&self, off: usize) -> u64 {
        debug_assert!(off + 8 <= self.reserved && off.is_multiple_of(8));
        // SAFETY: in-bounds and 8-aligned. Header words are accessed
        // atomically because the defragmentation scan reads headers that a
        // cell-lock holder may be rewriting in place (the size field).
        unsafe {
            (*(self.buf.add(off) as *const std::sync::atomic::AtomicU64)).load(Ordering::Acquire)
        }
    }

    #[inline]
    fn write_u64(&self, off: usize, v: u64) {
        debug_assert!(off + 8 <= self.reserved && off.is_multiple_of(8));
        // SAFETY: as above; see read_u64 for why this is atomic.
        unsafe {
            (*(self.buf.add(off) as *const std::sync::atomic::AtomicU64))
                .store(v, Ordering::Release)
        }
    }

    #[inline]
    fn read_header(&self, off: usize) -> (u64, u32, u32) {
        let uid = self.read_u64(off);
        let capsz = self.read_u64(off + 8);
        (uid, capsz as u32, (capsz >> 32) as u32)
    }

    #[inline]
    fn write_header(&self, off: usize, uid: u64, cap: u32, size: u32) {
        self.write_u64(off, uid);
        self.write_u64(off + 8, (cap as u64) | ((size as u64) << 32));
    }

    #[inline]
    fn payload_ptr(&self, off: usize) -> *mut u8 {
        // SAFETY: in-bounds for any entry offset produced by `allocate`.
        unsafe { self.buf.add(off + HEADER) }
    }

    #[inline]
    fn entry_len(cap: u32) -> usize {
        HEADER + align8(cap as usize)
    }

    fn write_tombstone(&self, off: usize, cap: u32) {
        self.write_header(off, TOMB, cap, 0);
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate `need` bytes (entry length, 8-aligned) from the circular
    /// window, returning the entry offset. Writes a wrap filler if the
    /// entry cannot fit contiguously before the reserved end.
    fn allocate_locked(&self, st: &mut AllocState, need: usize) -> Result<usize> {
        debug_assert_eq!(need % 8, 0);
        let r = self.reserved;
        let free = r - st.used;
        let (used0, committed0) = (st.used, st.committed);
        if need > free {
            return Err(StoreError::OutOfMemory {
                requested: need,
                reserved: r,
            });
        }
        let off;
        if st.used == 0 {
            // Empty window: restart at the current head position.
            off = if st.head + need <= r { st.head } else { 0 };
            st.tail = off;
            st.head = off + need;
            st.used = need;
        } else if st.head > st.tail || (st.head == st.tail && st.used == 0) {
            // Non-wrapped window.
            let at_end = r - st.head;
            if need <= at_end {
                off = st.head;
                st.head += need;
                st.used += need;
            } else {
                // Wrap: the remainder at the end becomes a filler.
                if at_end + need > free {
                    return Err(StoreError::OutOfMemory {
                        requested: need,
                        reserved: r,
                    });
                }
                if at_end > 0 {
                    self.write_u64(st.head, WRAP);
                }
                st.used += at_end;
                off = 0;
                st.head = need;
                st.used += need;
            }
        } else {
            // Wrapped window (head <= tail with used > 0): free gap is
            // [head, tail).
            let gap = st.tail - st.head;
            if need > gap {
                return Err(StoreError::OutOfMemory {
                    requested: need,
                    reserved: r,
                });
            }
            off = st.head;
            st.head += need;
            st.used += need;
        }
        if st.head == r {
            st.head = 0;
        }
        st.committed = st
            .committed
            .max(st.used.next_multiple_of(self.cfg.page_bytes))
            .min(r);
        self.metrics.used_bytes.add((st.used - used0) as i64);
        self.metrics
            .committed_bytes
            .add((st.committed - committed0) as i64);
        Ok(off)
    }

    /// Allocate with one defragmentation retry on exhaustion.
    fn allocate(&self, need: usize) -> Result<usize> {
        if need > self.reserved {
            self.metrics.oom.inc();
            return Err(StoreError::OutOfMemory {
                requested: need,
                reserved: self.reserved,
            });
        }
        {
            let mut st = self.alloc.lock();
            if let Ok(off) = self.allocate_locked(&mut st, need) {
                self.metrics.alloc.inc();
                self.metrics.alloc_bytes.record(need as u64);
                return Ok(off);
            }
        }
        self.defragment();
        let mut st = self.alloc.lock();
        match self.allocate_locked(&mut st, need) {
            Ok(off) => {
                self.metrics.alloc.inc();
                self.metrics.alloc_bytes.record(need as u64);
                Ok(off)
            }
            Err(e) => {
                self.metrics.oom.inc();
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Cell lock acquisition
    // ------------------------------------------------------------------

    /// Find the cell and acquire its spin lock without ever blocking on the
    /// lock while holding the index guard (see module docs, rule 1).
    ///
    /// Returns a raw pointer to the cell's metadata; the pointer stays valid
    /// while the lock is held, because slot reclamation requires the lock.
    fn lock_cell(&self, id: CellId) -> Option<*const CellMeta> {
        loop {
            {
                let idx = self.index.read();
                let slot = idx.table.get(id)?;
                let meta = idx.slab.get_ptr(slot);
                // SAFETY: `meta` points into the slab while we hold the
                // index read guard; slab entries never move.
                if unsafe { (*meta).try_lock() } {
                    return Some(meta);
                }
            }
            std::thread::yield_now();
        }
    }

    // ------------------------------------------------------------------
    // Public cell operations
    // ------------------------------------------------------------------

    /// Insert or replace the cell `id` with `payload`, returning the
    /// cell's new version stamp.
    pub fn put(&self, id: CellId, payload: &[u8]) -> Result<CellVersion> {
        if let Some(meta) = self.lock_cell(id) {
            // SAFETY: lock held; released by `update_locked`'s caller below.
            let res = self.update_locked(meta, payload, id);
            unsafe { (*meta).unlock() };
            return res;
        }
        self.insert_fresh(id, payload, false)
    }

    /// Insert a new cell, failing with [`StoreError::AlreadyExists`] if the
    /// id is taken. Returns the cell's initial version stamp.
    pub fn insert_new(&self, id: CellId, payload: &[u8]) -> Result<CellVersion> {
        self.insert_fresh(id, payload, true)
    }

    fn check_len(&self, len: usize) -> Result<u32> {
        if len > u32::MAX as usize / 2
            || Self::entry_len(len as u32) + self.cfg.page_bytes > self.reserved
        {
            return Err(StoreError::CellTooLarge(len));
        }
        Ok(len as u32)
    }

    fn insert_fresh(&self, id: CellId, payload: &[u8], must_be_new: bool) -> Result<CellVersion> {
        let size = self.check_len(payload.len())?;
        loop {
            let cap = size;
            let need = Self::entry_len(cap);
            let off = self.allocate(need)?;
            self.write_header(off, id, cap, size);
            // SAFETY: the freshly allocated region is unpublished and
            // exclusively ours.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    payload.as_ptr(),
                    self.payload_ptr(off),
                    payload.len(),
                );
            }
            let mut idx = self.index.write();
            if idx.table.get(id).is_some() {
                drop(idx);
                // Raced with a concurrent insert of the same id: release our
                // region and retry through the update path.
                self.write_tombstone(off, cap);
                if must_be_new {
                    return Err(StoreError::AlreadyExists(id));
                }
                if let Some(meta) = self.lock_cell(id) {
                    let res = self.update_locked(meta, payload, id);
                    // SAFETY: lock_cell acquired the lock.
                    unsafe { (*meta).unlock() };
                    return res;
                }
                // It vanished again; retry the fresh insert.
                continue;
            }
            let slot = idx.slab.alloc(off as u32);
            // Stamp before the mapping is published: any reader that can
            // find the cell already sees its birth version.
            let version = next_version();
            idx.slab.get(slot).set_version(version);
            idx.table.insert(id, slot);
            drop(idx);
            self.note_mutation();
            self.live_payload
                .fetch_add(size as usize, Ordering::Relaxed);
            self.live_entry.fetch_add(need, Ordering::Relaxed);
            self.live_tight
                .fetch_add(Self::entry_len(size), Ordering::Relaxed);
            return Ok(version);
        }
    }

    /// Rewrite the payload of a locked cell, in place when it fits within
    /// the cell's capacity, relocating with a short-lived reservation
    /// otherwise. Caller holds the cell lock and is responsible for
    /// releasing it.
    fn update_locked(
        &self,
        meta: *const CellMeta,
        payload: &[u8],
        id: CellId,
    ) -> Result<CellVersion> {
        let new_size = self.check_len(payload.len())?;
        self.note_mutation();
        // SAFETY: caller holds the cell lock, so `meta` is valid and the
        // cell cannot move underneath us.
        let meta = unsafe { &*meta };
        let off = meta.offset() as usize;
        let (uid, cap, old_size) = self.read_header(off);
        debug_assert_eq!(uid, id);
        if new_size <= cap {
            // In-place rewrite.
            // SAFETY: we own the entry via its lock; region is in-bounds.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    payload.as_ptr(),
                    self.payload_ptr(off),
                    payload.len(),
                );
            }
            self.write_header(off, id, cap, new_size);
            self.fixup_size_counters(cap, old_size, cap, new_size);
            let version = next_version();
            meta.set_version(version);
            return Ok(version);
        }
        // Relocation: grant reservation slack proportional to the growth so
        // steadily growing cells (graph nodes gaining edges) are not copied
        // on every append. The slack is reclaimed by the next defrag pass.
        let growth = new_size as usize - cap as usize;
        let slack = (growth as f64 * self.cfg.expansion_slack) as usize;
        let new_cap = self
            .check_len((new_size as usize + slack).min(u32::MAX as usize / 2))
            .unwrap_or(new_size);
        let need = Self::entry_len(new_cap);
        let new_off = self.allocate(need)?;
        self.metrics.realloc.inc();
        self.write_header(new_off, id, new_cap, new_size);
        // SAFETY: fresh unpublished region.
        unsafe {
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                self.payload_ptr(new_off),
                payload.len(),
            );
        }
        // Tombstone the old entry and publish the new offset.
        self.write_tombstone(off, cap);
        meta.set_offset(new_off as u32);
        self.live_entry.fetch_add(need, Ordering::Relaxed);
        self.live_entry
            .fetch_sub(Self::entry_len(cap), Ordering::Relaxed);
        self.live_tight
            .fetch_add(Self::entry_len(new_size), Ordering::Relaxed);
        self.live_tight
            .fetch_sub(Self::entry_len(old_size), Ordering::Relaxed);
        self.live_payload
            .fetch_add(new_size as usize, Ordering::Relaxed);
        self.live_payload
            .fetch_sub(old_size as usize, Ordering::Relaxed);
        let version = next_version();
        meta.set_version(version);
        Ok(version)
    }

    fn fixup_size_counters(&self, _old_cap: u32, old_size: u32, _new_cap: u32, new_size: u32) {
        if new_size >= old_size {
            self.live_payload
                .fetch_add((new_size - old_size) as usize, Ordering::Relaxed);
            self.live_tight.fetch_add(
                Self::entry_len(new_size) - Self::entry_len(old_size),
                Ordering::Relaxed,
            );
        } else {
            self.live_payload
                .fetch_sub((old_size - new_size) as usize, Ordering::Relaxed);
            self.live_tight.fetch_sub(
                Self::entry_len(old_size) - Self::entry_len(new_size),
                Ordering::Relaxed,
            );
        }
    }

    /// Replace the payload of an existing cell, returning its new version.
    pub fn update(&self, id: CellId, payload: &[u8]) -> Result<CellVersion> {
        let meta = self.lock_cell(id).ok_or(StoreError::NotFound(id))?;
        let res = self.update_locked(meta, payload, id);
        // SAFETY: lock_cell acquired the lock.
        unsafe { (*meta).unlock() };
        res
    }

    /// Replace the cell's payload only if its version still equals
    /// `expected` — the single-cell compare-and-swap under the per-cell
    /// spin lock. Streaming writers use this to apply deltas computed
    /// from a versioned snapshot read without a full transaction: a
    /// concurrent write between read and apply surfaces as
    /// [`StoreError::VersionMismatch`] instead of silently clobbering.
    /// Returns the cell's new version on success.
    pub fn put_if_version(
        &self,
        id: CellId,
        payload: &[u8],
        expected: CellVersion,
    ) -> Result<CellVersion> {
        let meta = self.lock_cell(id).ok_or(StoreError::NotFound(id))?;
        // SAFETY: lock_cell acquired the lock; held until the unlock below.
        let found = unsafe { (*meta).version() };
        let res = if found == expected {
            self.update_locked(meta, payload, id)
        } else {
            Err(StoreError::VersionMismatch {
                id,
                expected,
                found,
            })
        };
        unsafe { (*meta).unlock() };
        res
    }

    /// Append `extra` to the cell's payload (the growing-cell fast path the
    /// short-lived reservations exist for — e.g. adding edges to a node).
    /// Returns the cell's new version.
    pub fn append(&self, id: CellId, extra: &[u8]) -> Result<CellVersion> {
        let meta_ptr = self.lock_cell(id).ok_or(StoreError::NotFound(id))?;
        // SAFETY: lock held until the explicit unlock below.
        let meta = unsafe { &*meta_ptr };
        let off = meta.offset() as usize;
        let (_, cap, size) = self.read_header(off);
        let new_size = size as usize + extra.len();
        let res = if new_size <= cap as usize {
            self.note_mutation();
            // Entirely in place: copy only the appended suffix.
            // SAFETY: we own the entry via its lock.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    extra.as_ptr(),
                    self.payload_ptr(off).add(size as usize),
                    extra.len(),
                );
            }
            self.write_header(off, id, cap, new_size as u32);
            self.fixup_size_counters(cap, size, cap, new_size as u32);
            let version = next_version();
            meta.set_version(version);
            Ok(version)
        } else {
            // Build the grown payload and go through the relocating update.
            let mut grown = Vec::with_capacity(new_size);
            // SAFETY: reading our own locked entry.
            unsafe {
                grown.extend_from_slice(std::slice::from_raw_parts(
                    self.payload_ptr(off),
                    size as usize,
                ));
            }
            grown.extend_from_slice(extra);
            self.update_locked(meta_ptr, &grown, id)
        };
        meta.unlock();
        res
    }

    /// Read a cell, returning a guard that pins it in place. `None` if the
    /// id is absent.
    ///
    /// Safe under arbitrary reader concurrency: readers of *different*
    /// cells share the index read guard and proceed in parallel (this is
    /// what lets a machine's compute pool read its trunks from many
    /// workers at once); readers of the *same* cell serialize briefly on
    /// its spin lock. Hold guards only for the duration of a read — a
    /// pinned cell stalls defragmentation and any writer of that cell.
    pub fn get(&self, id: CellId) -> Option<CellGuard<'_>> {
        let meta = self.lock_cell(id)?;
        // SAFETY: lock held; guard releases it on drop.
        let off = unsafe { (*meta).offset() } as usize;
        let (_, _, size) = self.read_header(off);
        Some(CellGuard {
            trunk: self,
            meta,
            ptr: self.payload_ptr(off),
            len: size as usize,
        })
    }

    /// Read a cell into an owned buffer.
    pub fn get_owned(&self, id: CellId) -> Option<Vec<u8>> {
        self.get(id).map(|g| g.to_vec())
    }

    /// Read a cell together with its version stamp. The stamp and the
    /// payload are taken under the same cell lock, so they are mutually
    /// consistent — the pair a remote read cache stores.
    pub fn get_versioned(&self, id: CellId) -> Option<(CellVersion, CellGuard<'_>)> {
        let meta = self.lock_cell(id)?;
        // SAFETY: lock held; guard releases it on drop.
        let (off, version) = unsafe { ((*meta).offset() as usize, (*meta).version()) };
        let (_, _, size) = self.read_header(off);
        Some((
            version,
            CellGuard {
                trunk: self,
                meta,
                ptr: self.payload_ptr(off),
                len: size as usize,
            },
        ))
    }

    /// The cell's current version stamp, if it exists. Lock-free: the
    /// stamp may be concurrently advancing, which cache bookkeeping
    /// tolerates (an older stamp only causes a spurious refresh).
    pub fn version_of(&self, id: CellId) -> Option<CellVersion> {
        let idx = self.index.read();
        let slot = idx.table.get(id)?;
        Some(idx.slab.get(slot).version())
    }

    /// Mutably access a cell's current payload in place (length cannot
    /// change through the guard; use [`Trunk::update`] / [`Trunk::append`]
    /// to resize).
    pub fn get_mut(&self, id: CellId) -> Option<CellMutGuard<'_>> {
        let meta = self.lock_cell(id)?;
        // Counted when the guard is handed out: the caller may write
        // through it at any point until it drops.
        self.note_mutation();
        // SAFETY: lock held; guard releases it on drop.
        let off = unsafe { (*meta).offset() } as usize;
        let (_, _, size) = self.read_header(off);
        Some(CellMutGuard {
            trunk: self,
            meta,
            ptr: self.payload_ptr(off),
            len: size as usize,
        })
    }

    /// Whether the cell exists.
    pub fn contains(&self, id: CellId) -> bool {
        self.index.read().table.get(id).is_some()
    }

    /// Remove a cell. Returns a fresh version stamp for the removal
    /// itself — the stamp any cached copy of the cell must be invalidated
    /// at (strictly newer than every stamp the live cell ever carried).
    pub fn remove(&self, id: CellId) -> Result<CellVersion> {
        // Step 1: unpublish the mapping (keeping the slot allocated).
        let (slot, meta) = {
            let mut idx = self.index.write();
            match idx.table.remove(id) {
                Some(slot) => (slot, idx.slab.get_ptr(slot)),
                None => return Err(StoreError::NotFound(id)),
            }
        };
        // Step 2: wait for any guard holder to finish; after the mapping is
        // gone nobody new can reach the slot, so plain spin is deadlock-free
        // here (we hold no index guard).
        // SAFETY: the slot stays allocated until we free it below.
        let meta_ref = unsafe { &*meta };
        meta_ref.lock();
        self.note_mutation();
        let off = meta_ref.offset() as usize;
        let (_, cap, size) = self.read_header(off);
        self.write_tombstone(off, cap);
        self.live_payload
            .fetch_sub(size as usize, Ordering::Relaxed);
        self.live_entry
            .fetch_sub(Self::entry_len(cap), Ordering::Relaxed);
        self.live_tight
            .fetch_sub(Self::entry_len(size), Ordering::Relaxed);
        meta_ref.unlock();
        // Step 3: recycle the slot. No other thread can be addressing it.
        self.index.write().slab.free(slot);
        Ok(next_version())
    }

    /// Visit every live cell. Each visit is individually consistent (the
    /// cell's lock is held during the callback); the set of cells visited
    /// is the index contents at call time, minus cells removed concurrently.
    pub fn for_each_cell<F: FnMut(CellId, &[u8])>(&self, mut f: F) {
        let ids: Vec<CellId> = self.index.read().table.iter().map(|(k, _)| k).collect();
        for id in ids {
            if let Some(guard) = self.get(id) {
                f(id, &guard);
            }
        }
    }

    /// All live cell ids at call time.
    pub fn cell_ids(&self) -> Vec<CellId> {
        self.index.read().table.iter().map(|(k, _)| k).collect()
    }

    // ------------------------------------------------------------------
    // Defragmentation (paper §6.1)
    // ------------------------------------------------------------------

    /// Run one defragmentation pass: walk the committed window from the
    /// tail, re-append live cells at the head (dropping reservation slack),
    /// and reclaim everything walked over. Stops early at a pinned cell
    /// (one whose spin lock is held) or when the trunk is too full to
    /// relocate a cell.
    pub fn defragment(&self) -> DefragReport {
        let mut report = DefragReport {
            completed: true,
            ..DefragReport::default()
        };
        let mut st = self.alloc.lock();
        let mut remaining = st.used;
        let mut pos = st.tail;
        while remaining > 0 {
            if pos == self.reserved {
                pos = 0;
            }
            // Read the uid word alone first: a WRAP filler may be only 8
            // bytes long (when it sits 8 bytes from the reserved end), so
            // reading a full 16-byte header there would run off the end.
            let uid = self.read_u64(pos);
            if uid == WRAP {
                let len = self.reserved - pos;
                remaining -= len;
                st.used -= len;
                self.metrics.used_bytes.sub(len as i64);
                pos = 0;
                st.tail = 0;
                report.reclaimed_bytes += len as u64;
                continue;
            }
            let (uid, cap, size) = self.read_header(pos);
            let len = Self::entry_len(cap);
            if uid == TOMB {
                remaining -= len;
                st.used -= len;
                self.metrics.used_bytes.sub(len as i64);
                pos += len;
                st.tail = pos % self.reserved;
                report.reclaimed_bytes += len as u64;
                continue;
            }
            // Live cell: find its metadata and try to pin it ourselves.
            let meta = {
                let idx = self.index.read();
                match idx.table.get(uid) {
                    Some(slot) => idx.slab.get_ptr(slot),
                    None => {
                        // A concurrent `remove` has unpublished the mapping
                        // but not yet tombstoned the header; treat the cell
                        // as pinned and let the next pass reclaim it.
                        report.completed = false;
                        break;
                    }
                }
            };
            // SAFETY: slot can't be freed while the uid is still indexed,
            // and removal needs the cell lock which conflicts with ours.
            let meta_ref = unsafe { &*meta };
            if !meta_ref.try_lock() {
                // Pinned by a reader/writer: the tail cannot advance past it.
                report.completed = false;
                break;
            }
            if meta_ref.offset() as usize != pos {
                // The entry at `pos` belongs to an older generation of this
                // uid (a remove raced with a re-insert between our header
                // read and the index lookup). Its tombstone write may still
                // be in flight, so stop the pass; the next one reclaims it.
                meta_ref.unlock();
                let (uid2, cap2, _) = self.read_header(pos);
                if uid2 == TOMB {
                    let len2 = Self::entry_len(cap2);
                    remaining -= len2;
                    st.used -= len2;
                    self.metrics.used_bytes.sub(len2 as i64);
                    pos += len2;
                    st.tail = pos % self.reserved;
                    report.reclaimed_bytes += len2 as u64;
                    continue;
                }
                report.completed = false;
                break;
            }
            // Relocate: new capacity == size (reservation slack dropped).
            let new_cap = size;
            let need = Self::entry_len(new_cap);
            let new_off = match self.allocate_locked(&mut st, need) {
                Ok(o) => o,
                Err(_) => {
                    meta_ref.unlock();
                    report.completed = false;
                    break;
                }
            };
            self.write_header(new_off, uid, new_cap, size);
            // SAFETY: destination is fresh and unpublished; source is
            // pinned by the cell lock we hold; regions cannot overlap
            // because the allocator never hands out bytes inside the
            // still-used window.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.payload_ptr(pos),
                    self.payload_ptr(new_off),
                    size as usize,
                );
            }
            meta_ref.set_offset(new_off as u32);
            meta_ref.unlock();
            self.live_entry.fetch_add(need, Ordering::Relaxed);
            self.live_entry
                .fetch_sub(Self::entry_len(cap), Ordering::Relaxed);
            self.bytes_moved.fetch_add(size as usize, Ordering::Relaxed);
            report.moved_cells += 1;
            report.moved_bytes += size as u64;
            report.reclaimed_bytes += (len - need) as u64;
            remaining -= len;
            st.used -= len;
            self.metrics.used_bytes.sub(len as i64);
            pos += len;
            st.tail = pos % self.reserved;
        }
        // Release freed pages: the committed window shrinks back to the
        // page-rounded live window.
        let committed0 = st.committed;
        st.committed = st
            .used
            .next_multiple_of(self.cfg.page_bytes)
            .min(self.reserved);
        self.metrics
            .committed_bytes
            .add(st.committed as i64 - committed0 as i64);
        st.defrag_passes += 1;
        self.metrics.defrag_passes.inc();
        self.metrics.defrag_moved.add(report.moved_bytes);
        self.metrics.defrag_reclaimed.add(report.reclaimed_bytes);
        report
    }
}

/// Shared read guard over one cell's payload. Holding the guard pins the
/// cell: the defragmentation pass cannot move it and writers cannot touch it.
pub struct CellGuard<'a> {
    trunk: &'a Trunk,
    meta: *const CellMeta,
    ptr: *const u8,
    len: usize,
}

impl std::ops::Deref for CellGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: the cell lock is held for the guard's lifetime, so the
        // payload is immovable and no writer can be active.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for CellGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: we hold the lock acquired in `Trunk::get`.
        unsafe { (*self.meta).unlock() }
    }
}

impl std::fmt::Debug for CellGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CellGuard({} bytes in trunk {})",
            self.len, self.trunk.id
        )
    }
}

/// Exclusive in-place write guard over one cell's payload.
pub struct CellMutGuard<'a> {
    trunk: &'a Trunk,
    meta: *const CellMeta,
    ptr: *mut u8,
    len: usize,
}

impl std::ops::Deref for CellMutGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: see CellGuard; additionally we are the only lock holder.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::ops::DerefMut for CellMutGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: exclusive access via the held cell lock.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for CellMutGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: we hold the lock acquired in `Trunk::get_mut`.
        unsafe { (*self.meta).unlock() }
    }
}

impl std::fmt::Debug for CellMutGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CellMutGuard({} bytes in trunk {})",
            self.len, self.trunk.id
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Trunk {
        Trunk::new(
            0,
            TrunkConfig {
                reserved_bytes: 8 << 10,
                page_bytes: 1 << 10,
                expansion_slack: 1.0,
            },
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let t = tiny();
        t.put(1, b"alpha").unwrap();
        t.put(2, b"beta").unwrap();
        assert_eq!(t.get(1).unwrap().as_ref(), b"alpha");
        assert_eq!(t.get(2).unwrap().as_ref(), b"beta");
        assert!(t.get(3).is_none());
        assert_eq!(t.cell_count(), 2);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let t = tiny();
        t.put(7, b"").unwrap();
        assert_eq!(t.get(7).unwrap().len(), 0);
        t.append(7, b"xyz").unwrap();
        assert_eq!(t.get(7).unwrap().as_ref(), b"xyz");
    }

    #[test]
    fn update_in_place_and_relocating() {
        let t = tiny();
        t.put(1, b"0123456789").unwrap();
        t.update(1, b"abc").unwrap(); // shrink in place
        assert_eq!(t.get(1).unwrap().as_ref(), b"abc");
        t.update(1, b"0123456789abcdef0123").unwrap(); // grow: relocates
        assert_eq!(t.get(1).unwrap().as_ref(), b"0123456789abcdef0123");
    }

    #[test]
    fn concurrent_pool_readers_see_consistent_cells() {
        // The BSP compute pool reads a machine's trunks from several
        // workers at once, overlapping with online expansions and the
        // defragmentation pass. Hammer one trunk with parallel readers
        // over a shared id range while a writer churns versions and
        // defragments: every guard must expose a payload that was
        // actually written for that id, in full.
        use std::sync::atomic::AtomicBool;
        let t = Arc::new(Trunk::new(
            0,
            TrunkConfig {
                reserved_bytes: 256 << 10,
                page_bytes: 4 << 10,
                expansion_slack: 1.0,
            },
        ));
        let cells = 64u64;
        let value = |id: u64, round: u8| vec![(id as u8) ^ round; 16 + (id % 48) as usize];
        for id in 0..cells {
            t.put(id, &value(id, 0)).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for id in 0..cells {
                            let Some(g) = t.get(id) else { continue };
                            let bytes = g.as_ref();
                            assert_eq!(bytes.len(), 16 + (id % 48) as usize, "cell {id} length");
                            let round = bytes[0] ^ (id as u8);
                            assert!(
                                bytes.iter().all(|&b| b == (id as u8) ^ round),
                                "cell {id} mixed payloads from different writes"
                            );
                        }
                    }
                });
            }
            for round in 1..=20u8 {
                for id in 0..cells {
                    t.put(id, &value(id, round)).unwrap();
                }
                if round % 5 == 0 {
                    t.defragment();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn insert_new_rejects_duplicates() {
        let t = tiny();
        t.insert_new(9, b"x").unwrap();
        assert_eq!(t.insert_new(9, b"y"), Err(StoreError::AlreadyExists(9)));
        assert_eq!(t.get(9).unwrap().as_ref(), b"x");
    }

    #[test]
    fn remove_then_get_is_none() {
        let t = tiny();
        t.put(5, b"payload").unwrap();
        t.remove(5).unwrap();
        assert!(t.get(5).is_none());
        assert_eq!(t.remove(5), Err(StoreError::NotFound(5)));
        assert_eq!(t.cell_count(), 0);
    }

    #[test]
    fn append_uses_reservation_slack() {
        let t = tiny();
        t.put(1, b"ab").unwrap();
        // First growth relocates and leaves slack; the second should be
        // in place (no increase in live_entry beyond the first relocation).
        t.append(1, &[b'x'; 16]).unwrap();
        let entry_after_first = t.stats().live_entry_bytes;
        t.append(1, &[b'y'; 8]).unwrap();
        assert_eq!(
            t.stats().live_entry_bytes,
            entry_after_first,
            "second append should be in place"
        );
        let mut expect = b"ab".to_vec();
        expect.extend_from_slice(&[b'x'; 16]);
        expect.extend_from_slice(&[b'y'; 8]);
        assert_eq!(t.get(1).unwrap().as_ref(), &expect[..]);
    }

    #[test]
    fn defrag_reclaims_dead_space() {
        let t = tiny();
        for i in 0..40u64 {
            t.put(i, &[i as u8; 64]).unwrap();
        }
        for i in 0..40u64 {
            if i % 2 == 0 {
                t.remove(i).unwrap();
            }
        }
        let before = t.stats();
        assert!(before.dead_bytes > 0);
        let rep = t.defragment();
        assert!(rep.completed);
        assert!(rep.reclaimed_bytes > 0);
        let after = t.stats();
        assert_eq!(after.dead_bytes, 0);
        assert!(after.used_bytes < before.used_bytes);
        for i in 0..40u64 {
            if i % 2 == 1 {
                assert_eq!(
                    t.get(i).unwrap().as_ref(),
                    &[i as u8; 64][..],
                    "cell {i} corrupted by defrag"
                );
            } else {
                assert!(t.get(i).is_none());
            }
        }
    }

    #[test]
    fn defrag_skips_pinned_cells() {
        let t = tiny();
        t.put(1, b"first").unwrap();
        t.put(2, b"second").unwrap();
        let guard = t.get(1).unwrap();
        let rep = t.defragment();
        assert!(!rep.completed, "pass should stop at the pinned cell");
        assert_eq!(guard.as_ref(), b"first");
        drop(guard);
        let rep = t.defragment();
        assert!(rep.completed);
        assert_eq!(t.get(1).unwrap().as_ref(), b"first");
        assert_eq!(t.get(2).unwrap().as_ref(), b"second");
    }

    #[test]
    fn circular_reuse_survives_many_generations() {
        // Total writes far exceed the reserved size: the window must wrap
        // repeatedly and defrag must keep reclaiming.
        let t = Trunk::new(
            0,
            TrunkConfig {
                reserved_bytes: 16 << 10,
                page_bytes: 1 << 10,
                expansion_slack: 1.0,
            },
        );
        for gen in 0u64..50 {
            for i in 0..10u64 {
                t.put(i, &[(gen + i) as u8; 200]).unwrap();
            }
            t.defragment();
        }
        for i in 0..10u64 {
            assert_eq!(t.get(i).unwrap().as_ref(), &[(49 + i) as u8; 200][..]);
        }
    }

    #[test]
    fn out_of_memory_is_reported() {
        let t = Trunk::new(
            0,
            TrunkConfig {
                reserved_bytes: 4 << 10,
                page_bytes: 1 << 10,
                expansion_slack: 0.0,
            },
        );
        let big = vec![0u8; 8 << 10];
        match t.put(1, &big) {
            Err(StoreError::OutOfMemory { .. }) | Err(StoreError::CellTooLarge(_)) => {}
            other => panic!("expected allocation failure, got {other:?}"),
        }
    }

    #[test]
    fn fills_then_oom_then_recovers_after_remove() {
        let t = Trunk::new(
            0,
            TrunkConfig {
                reserved_bytes: 4 << 10,
                page_bytes: 1 << 10,
                expansion_slack: 0.0,
            },
        );
        let mut stored = 0u64;
        loop {
            match t.put(stored, &[1u8; 256]) {
                Ok(_) => stored += 1,
                Err(StoreError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(stored >= 10);
        t.remove(0).unwrap();
        t.defragment();
        t.put(1000, &[2u8; 256]).unwrap();
        assert_eq!(t.get(1000).unwrap().as_ref(), &[2u8; 256][..]);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let t = Arc::new(Trunk::new(0, TrunkConfig::small()));
        for i in 0..64u64 {
            t.put(i, &[i as u8; 32]).unwrap();
        }
        let mut handles = Vec::new();
        for tid in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for round in 0..500u64 {
                    let id = (round * 7 + tid) % 64;
                    if tid % 2 == 0 {
                        if let Some(g) = t.get(id) {
                            let b = g[0];
                            assert!(g.iter().all(|&x| x == b), "torn read on cell {id}");
                        }
                    } else {
                        let v = [(round % 251) as u8; 32];
                        t.put(id, &v).unwrap();
                    }
                    if round % 100 == 0 {
                        t.defragment();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.cell_count(), 64);
    }

    #[test]
    fn versions_are_monotone_per_cell_across_all_mutations() {
        let t = tiny();
        let v0 = t.put(1, b"a").unwrap();
        let v1 = t.update(1, b"bb").unwrap(); // in place
        let v2 = t.update(1, &[b'c'; 100]).unwrap(); // relocating
        let v3 = t.append(1, b"d").unwrap(); // in place (slack)
        let v4 = t.append(1, &[b'e'; 300]).unwrap(); // relocating
        let v5 = t.remove(1).unwrap();
        let v6 = t.put(1, b"reborn").unwrap();
        let seq = [v0, v1, v2, v3, v4, v5, v6];
        assert!(
            seq.windows(2).all(|w| w[0] < w[1]),
            "stamps must strictly increase: {seq:?}"
        );
        let (v, g) = t.get_versioned(1).unwrap();
        assert_eq!(v, v6);
        assert_eq!(g.as_ref(), b"reborn");
        drop(g);
        assert_eq!(t.version_of(1), Some(v6));
        assert_eq!(t.version_of(999), None);
    }

    #[test]
    fn mutation_count_moves_on_every_write_and_on_nothing_else() {
        let t = tiny();
        let mut last = t.mutation_count();
        let mut bumped = |t: &Trunk, what: &str| {
            let now = t.mutation_count();
            assert!(now > last, "{what} must bump the mutation count");
            last = now;
        };
        t.put(1, b"a").unwrap();
        bumped(&t, "put (fresh)");
        let v = t.put(1, b"b").unwrap();
        bumped(&t, "put (replace)");
        t.insert_new(2, b"c").unwrap();
        bumped(&t, "insert_new");
        t.update(2, &[b'd'; 100]).unwrap();
        bumped(&t, "update (relocating)");
        t.append(2, b"e").unwrap();
        bumped(&t, "append (in place)");
        t.append(2, &[b'f'; 400]).unwrap();
        bumped(&t, "append (relocating)");
        t.put_if_version(1, b"g", v).unwrap();
        bumped(&t, "put_if_version");
        drop(t.get_mut(1).unwrap());
        bumped(&t, "get_mut");
        t.remove(2).unwrap();
        bumped(&t, "remove");
        // Reads, scans, statistics and defragmentation change no cell.
        let before = t.mutation_count();
        let _ = t.get(1).map(|g| g.len());
        let _ = t.get_versioned(1).map(|(_, g)| g.len());
        t.for_each_cell(|_, _| {});
        let _ = (t.contains(1), t.version_of(1), t.cell_ids(), t.stats());
        t.defragment();
        assert_eq!(t.mutation_count(), before);
    }

    #[test]
    fn put_if_version_applies_only_at_expected_version() {
        let t = tiny();
        let v0 = t.put(7, b"base").unwrap();
        let v1 = t.put_if_version(7, b"first", v0).unwrap();
        assert!(v1 > v0);
        // Stale expectation: the cell moved on, the write must not land.
        let err = t.put_if_version(7, b"stale", v0).unwrap_err();
        assert_eq!(
            err,
            StoreError::VersionMismatch {
                id: 7,
                expected: v0,
                found: v1
            }
        );
        let (v, g) = t.get_versioned(7).unwrap();
        assert_eq!(v, v1);
        assert_eq!(g.as_ref(), b"first");
        drop(g);
        // Relocating CAS (payload outgrows capacity) still stamps fresh.
        let v2 = t.put_if_version(7, &[b'x'; 200], v1).unwrap();
        assert!(v2 > v1);
        assert_eq!(t.get(7).unwrap().as_ref(), &[b'x'; 200][..]);
        assert_eq!(
            t.put_if_version(42, b"nope", v2).unwrap_err(),
            StoreError::NotFound(42)
        );
    }

    /// Regression for the slack/wrap interaction: grow cells via appends
    /// (leaving live reservation slack) until the circular window wraps
    /// repeatedly, interleaving defrag passes, so slack-bearing entries
    /// land directly against wrap fillers. Defragmentation must walk the
    /// straddle exactly — neither mis-parsing the filler nor leaking the
    /// slack bytes — leaving zero dead bytes after a completed pass and
    /// every payload intact.
    #[test]
    fn defrag_handles_slack_adjacent_to_wrap_filler() {
        let t = Trunk::new(
            0,
            TrunkConfig {
                reserved_bytes: 8 << 10,
                page_bytes: 1 << 10,
                expansion_slack: 2.0, // oversized slack maximizes straddles
            },
        );
        let cells = 6u64;
        let mut expect: Vec<Vec<u8>> = (0..cells).map(|i| vec![i as u8; 16]).collect();
        for (i, payload) in expect.iter().enumerate() {
            t.put(i as u64, payload).unwrap();
        }
        // Each round grows every cell (relocation + live slack) and then
        // defragments; total allocation volume is many times the reserved
        // size, so the head passes the reserved end with slack live on
        // nearly every round.
        for round in 0u64..60 {
            for i in 0..cells {
                let chunk = vec![(round ^ i) as u8; 40 + (round as usize % 32)];
                t.append(i, &chunk).unwrap();
                expect[i as usize].extend_from_slice(&chunk);
                // Keep cells from outgrowing the tiny trunk: periodically
                // shrink back, which also exercises in-place rewrites over
                // slack-bearing entries.
                if expect[i as usize].len() > 600 {
                    expect[i as usize] = vec![i as u8; 16];
                    t.update(i, &expect[i as usize]).unwrap();
                }
            }
            let rep = t.defragment();
            if rep.completed {
                let s = t.stats();
                // A completed pass may leave at most one wrap filler —
                // written while re-appending cells past the reserved end —
                // which is always smaller than the largest allocation
                // (entry ≤ 16 + align8(672 payload + 2× slack) < 1024).
                // Anything larger means the straddle leaked bytes.
                assert!(
                    s.dead_bytes < 1024,
                    "round {round}: completed pass left {} dead bytes",
                    s.dead_bytes
                );
                assert_eq!(
                    s.slack_bytes, 0,
                    "round {round}: completed pass left reservation slack"
                );
            }
            for i in 0..cells {
                assert_eq!(
                    t.get(i).unwrap().as_ref(),
                    &expect[i as usize][..],
                    "round {round}: cell {i} corrupted"
                );
            }
        }
        assert!(
            t.stats().defrag_passes >= 60,
            "defrag must actually have run"
        );
    }

    #[test]
    fn stats_track_live_and_dead() {
        let t = tiny();
        t.put(1, &[0u8; 100]).unwrap();
        t.put(2, &[0u8; 100]).unwrap();
        let s = t.stats();
        assert_eq!(s.live_payload_bytes, 200);
        assert_eq!(s.cell_count, 2);
        assert_eq!(s.dead_bytes, 0);
        t.remove(1).unwrap();
        let s = t.stats();
        assert_eq!(s.live_payload_bytes, 100);
        assert!(s.dead_bytes >= 100);
        assert!(s.committed_bytes >= s.used_bytes);
        assert!(s.reserved_bytes >= s.committed_bytes);
    }
}
