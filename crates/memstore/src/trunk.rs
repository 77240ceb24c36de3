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
//! and per-cell spin locks. A held cell lock is a `Pinned` guard: while it
//! lives the cell is its holder's alone and cannot move (paper §3), and it
//! unlocks on drop, so no exit path can leak the lock. Deadlock freedom
//! relies on these rules:
//!
//! 1. A thread never *blocks* on a cell spin lock while holding an index
//!    guard — cell locks are acquired with `try_lock` under the index read
//!    guard, retrying from the lookup on failure ([`Trunk::lock_cell`]).
//! 2. A thread never waits on the allocation mutex while holding an index
//!    guard.
//! 3. The defragmentation pass (which holds the allocation mutex) only
//!    `try_lock`s cell locks; a held lock means the cell is pinned in place
//!    and the pass stops at it.
//! 4. A bulk load (`Loader`, an image restore) takes the allocation mutex
//!    and then the index write guard, the order the defragmentation pass
//!    takes them in, and holds both until it drops. It touches no cell
//!    lock: the cells it writes are unpublished until the index guard is
//!    released, and every other thread waits for the index.
//!
//! The resulting wait-for edges are `spin lock → alloc mutex → index` with
//! no cycle.
//!
//! # Raw access
//!
//! Four helpers reach the buffer and the metadata slab through raw
//! pointers, and nothing else in the trunk does. Each states its contract
//! and checks its bounds in debug builds:
//!
//! * `word(off)`: a header word, always accessed atomically;
//! * `payload(off, len)`: payload bytes of an entry the caller has pinned
//!   or owns unpublished;
//! * `write_payload(off, at, parts)`: copy into such an entry;
//! * `meta(ptr)`: a slab record, valid for the trunk's lifetime.
//!
//! # Regions
//!
//! The buffer is a [`Region`]: a zeroed, 8-aligned block the size of the
//! reservation, whose pages the OS backs only once they are written. A
//! trunk that is done with its region can give it up
//! ([`Trunk::into_region`]), zeroing the prefix it ever wrote, and a new
//! trunk can be created in it ([`Trunk::in_region`]): the pages the first
//! trunk touched are then already backed, so the second one does not
//! fault them in again. A fault-in lands in the region of the trunk its
//! budget sweep pushed out this way.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use trinity_obs::{Counter, Gauge, Histogram, MachineScope};

use crate::error::StoreError;
use crate::meta::{CellMeta, MetaSlab};
use crate::stats::TrunkStats;
use crate::table::IdTable;
use crate::{next_version, next_versions, CellId, CellVersion, Result};

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

/// Move a byte counter from `from` to `to`. The add wraps, as atomic adds
/// do, so a shrink subtracts.
#[inline]
fn shift(counter: &AtomicUsize, from: usize, to: usize) {
    counter.fetch_add(to.wrapping_sub(from), Ordering::Relaxed);
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
    /// End of the longest prefix of the region this trunk has written:
    /// everything from here on still reads zero.
    touched: usize,
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

/// A trunk's reserved memory region, zeroed throughout (module docs,
/// "Regions"). It is only ever held between the trunk that gave it up
/// and the trunk created in it; dropping it frees the memory.
pub struct Region(Box<[u64]>);

impl Region {
    /// A fresh region of `bytes` (a multiple of 8). It costs no physical
    /// memory until written.
    fn zeroed(bytes: usize) -> Self {
        Region(vec![0u64; bytes / 8].into_boxed_slice())
    }

    /// Size in bytes.
    fn bytes(&self) -> usize {
        self.0.len() * 8
    }

    /// Whether every byte reads zero, as it does in a fresh region and in
    /// one a trunk gave up. Reads the whole region.
    pub fn is_zeroed(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// One memory trunk: a circularly managed slab of cells plus its hash
/// table. All methods take `&self`; the trunk is internally synchronized
/// and may be shared across threads (`Arc<Trunk>`).
pub struct Trunk {
    /// Global trunk id within the memory cloud (slot in the addressing table).
    id: u64,
    cfg: TrunkConfig,
    /// The region's words as `Box::into_raw` left them; `take_region` is
    /// the only way back to a box.
    region: *mut [u64],
    /// The region's first byte; every buffer access derives from it.
    buf: *mut u8,
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

// SAFETY: the trunk owns its region outright (boxed in `Trunk::in_region`,
// taken back only by `take_region`), and every other field is `Send`.
unsafe impl Send for Trunk {}
// SAFETY: threads reach the buffer only through the raw-access helpers,
// under the locking protocol in the module docs. Header words are atomic.
// A payload byte has at most one writer at a time — the allocating thread
// before the entry is published, or the holder of the cell's `Pinned`
// (the defragmentation pass takes one too) — and readers hold the
// cell's `Pinned`, so no read overlaps a write.
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
        drop(self.take_region());
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

/// A held cell spin lock. While it lives, the cell is its holder's alone
/// and the defragmentation pass cannot move it; dropping it unlocks.
struct Pinned<'a> {
    meta: &'a CellMeta,
}

impl<'a> Pinned<'a> {
    /// Pin without spinning; `None` if another thread holds the lock.
    fn try_new(meta: &'a CellMeta) -> Option<Self> {
        // Lazily: a `Pinned` built for a failed try would unlock the
        // holder's lock when dropped.
        meta.try_lock().then(|| Pinned { meta })
    }

    /// Spin until pinned. Only for a cell no new thread can reach (see
    /// [`Trunk::remove`]); elsewhere use `try_new` (module docs, rule 1).
    fn wait(meta: &'a CellMeta) -> Self {
        meta.lock();
        Pinned { meta }
    }

    /// The cell's entry offset, stable while pinned.
    fn offset(&self) -> usize {
        self.meta.offset() as usize
    }
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        self.meta.unlock();
    }
}

impl Trunk {
    /// Create an empty trunk with the given global id.
    ///
    /// A fresh zeroed region of the full reserved size is taken up front;
    /// like the paper's reserve/commit split, its untouched pages cost no
    /// physical memory (the OS backs them lazily), while the `committed`
    /// statistic models the explicit page commits the paper performs.
    pub fn new(id: u64, cfg: TrunkConfig) -> Self {
        Self::with_obs(id, cfg, MachineScope::detached())
    }

    /// Like [`Trunk::new`], but publishing `store.*` metrics into the given
    /// machine scope instead of a detached one. All trunks hosted by a
    /// machine share its scope; gauge updates are deltas so they aggregate.
    pub fn with_obs(id: u64, cfg: TrunkConfig, obs: MachineScope) -> Self {
        let reserved = Self::reserved_for(&cfg);
        Self::in_region(id, cfg, obs, Region::zeroed(reserved))
    }

    /// Like [`Trunk::with_obs`], but in `region`, which another trunk gave
    /// up ([`Trunk::into_region`]), instead of a fresh one. The region must
    /// be the size `cfg` reserves, as every region of a trunk with the same
    /// configuration is; any other is freed and a fresh one taken.
    pub fn in_region(id: u64, cfg: TrunkConfig, obs: MachineScope, region: Region) -> Self {
        let reserved = Self::reserved_for(&cfg);
        let region = if region.bytes() == reserved {
            region
        } else {
            Region::zeroed(reserved)
        };
        let region = Box::into_raw(region.0);
        Trunk {
            id,
            cfg: TrunkConfig {
                page_bytes: cfg.page_bytes.max(8).next_power_of_two(),
                reserved_bytes: reserved,
                ..cfg
            },
            region,
            buf: region.cast::<u8>(),
            reserved,
            alloc: Mutex::new(AllocState {
                head: 0,
                tail: 0,
                used: 0,
                committed: 0,
                defrag_passes: 0,
                touched: 0,
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

    /// The region size `cfg` reserves: at least two pages, rounded up to
    /// whole pages.
    fn reserved_for(cfg: &TrunkConfig) -> usize {
        let page = cfg.page_bytes.max(8).next_power_of_two();
        align8(cfg.reserved_bytes.max(2 * page)).next_multiple_of(page)
    }

    /// Give up the trunk's region for another trunk to be created in
    /// ([`Trunk::in_region`]), zeroed over the prefix this trunk ever
    /// wrote, so it reads as a fresh one does. Only the pages this trunk
    /// touched are written again.
    pub fn into_region(mut self) -> Region {
        let touched = self.alloc.get_mut().touched;
        let mut region = self.take_region();
        region.0[..touched.div_ceil(8)].fill(0);
        region
    }

    /// Take the region back out of the trunk, leaving an empty one in its
    /// place, so a second call (the `Drop` after `into_region`) takes that.
    fn take_region(&mut self) -> Region {
        let empty: Box<[u64]> = Box::default();
        let region = std::mem::replace(&mut self.region, Box::into_raw(empty));
        // SAFETY: `region` came from `Box::into_raw`, in `in_region` or in
        // the swap above, and the swap means no other call rebuilds the
        // same box. The trunk is borrowed mutably, so no access through
        // `buf` is in flight, and none follows: `into_region` consumes the
        // trunk and `Drop` runs last.
        Region(unsafe { Box::from_raw(region) })
    }

    /// Global trunk id (the addressing-table slot this trunk occupies).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of live cells.
    pub fn cell_count(&self) -> usize {
        self.index.read().table.len()
    }

    /// How many mutating calls (`put`, `insert_new`, `put_if_version`,
    /// `append`, `remove`) this trunk has served. Monotone;
    /// defragmentation moves bytes without changing any cell and does not
    /// count. Two equal readings with no mutating call in flight between
    /// them mean the cell contents did not change — tiering uses that to
    /// skip re-writing an image TFS already holds.
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
    // Raw access: the only code that dereferences `buf` or a slab pointer.
    // Entry offsets are 8-aligned and in bounds by construction (produced
    // by `allocate` or by a header scan); debug builds check it.
    // ------------------------------------------------------------------

    /// The header word at `off`. Header words are shared atomically: the
    /// defragmentation scan reads headers that a cell's `Pinned` holder may
    /// be rewriting in place (the size field).
    #[inline]
    fn word(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= self.reserved && off.is_multiple_of(8));
        // SAFETY: `buf` is 8-aligned and `reserved` bytes long, and `off` is
        // 8-aligned with `off + 8 <= reserved`, so the word is in bounds and
        // aligned for an `AtomicU64` for as long as `&self` lives. Every
        // access to a header word goes through this atomic view; a range
        // that held payload bytes before becomes a header only when the
        // allocator hands it out again, under the allocation mutex, after
        // the pass that reclaimed it read its tombstone with `Acquire`.
        unsafe { &*(self.buf.add(off) as *const AtomicU64) }
    }

    #[inline]
    fn read_header(&self, off: usize) -> (u64, u32, u32) {
        let uid = self.word(off).load(Ordering::Acquire);
        let capsz = self.word(off + 8).load(Ordering::Acquire);
        (uid, capsz as u32, (capsz >> 32) as u32)
    }

    #[inline]
    fn write_header(&self, off: usize, uid: u64, cap: u32, size: u32) {
        self.word(off).store(uid, Ordering::Release);
        self.word(off + 8)
            .store((cap as u64) | ((size as u64) << 32), Ordering::Release);
    }

    /// The first `len` payload bytes of the entry at `off`.
    ///
    /// Contract: for as long as the slice lives, the caller holds the
    /// entry's `Pinned` or owns the entry unpublished, so no thread writes
    /// these bytes meanwhile.
    #[inline]
    fn payload(&self, off: usize, len: usize) -> &[u8] {
        debug_assert!(off.is_multiple_of(8) && off + HEADER + len <= self.reserved);
        debug_assert!(len <= self.read_header(off).1 as usize, "past capacity");
        // SAFETY: in bounds (checked above in debug builds), initialised
        // (a region is zeroed when it is made), and by the contract no write
        // overlaps the slice while it lives.
        unsafe { std::slice::from_raw_parts(self.buf.add(off + HEADER), len) }
    }

    /// Copy `parts` back to back into the payload of the entry at `off`,
    /// starting `at` bytes in.
    ///
    /// Contract: the caller holds the entry's `Pinned` or owns the entry
    /// unpublished, its header already carries its capacity, and no
    /// `payload` slice over the bytes written is alive. A part may be a
    /// `payload` slice of another entry.
    #[inline]
    fn write_payload(&self, off: usize, at: usize, parts: &[&[u8]]) {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        debug_assert!(off.is_multiple_of(8) && off + HEADER + at + len <= self.reserved);
        debug_assert!(
            at + len <= self.read_header(off).1 as usize,
            "past capacity"
        );
        let mut dst = off + HEADER + at;
        for part in parts {
            // SAFETY: the destination is in bounds (checked above in debug
            // builds) and, by the contract, written by this thread alone
            // and read by no one. A source is a caller's slice, either
            // outside the buffer or another entry's payload, which the
            // allocator never overlaps with this one.
            unsafe { std::ptr::copy_nonoverlapping(part.as_ptr(), self.buf.add(dst), part.len()) }
            dst += part.len();
        }
    }

    /// The slab record behind `ptr`, for as long as the trunk lives.
    #[inline]
    fn meta(&self, ptr: *const CellMeta) -> &CellMeta {
        debug_assert!(!ptr.is_null() && ptr.is_aligned());
        // SAFETY: `ptr` came from this trunk's `MetaSlab::get_ptr`. The slab
        // only ever adds boxed chunks and drops them with the trunk, so the
        // record stays valid for `&self`. A recycled slot is still a valid
        // `CellMeta`; whether it still holds the caller's cell is for the
        // caller's lock and offset checks to decide. `CellMeta` is all
        // atomics, so shared references to it may coexist freely.
        unsafe { &*ptr }
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

    /// Allocate an entry of capacity `cap` from the circular window and
    /// write its header, returning the entry offset. Writes a wrap filler
    /// if the entry cannot fit contiguously before the reserved end.
    ///
    /// The header is written before the allocation mutex is released: a
    /// defragmentation pass walks every allocated entry, and must never
    /// read the stale bytes of a reused region as a tombstone or filler.
    /// The caller [`publish`](Self::publish)es the window's growth before
    /// it releases the mutex; a failed allocation changes nothing.
    fn allocate_locked(&self, st: &mut AllocState, uid: u64, cap: u32, size: u32) -> Result<usize> {
        let need = Self::entry_len(cap);
        let r = self.reserved;
        let free = r - st.used;
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
                    self.word(st.head).store(WRAP, Ordering::Release);
                    st.touched = st.touched.max(st.head + 8);
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
        st.touched = st.touched.max(off + need);
        st.committed = st
            .committed
            .max(st.used.next_multiple_of(self.cfg.page_bytes))
            .min(r);
        self.write_header(off, uid, cap, size);
        Ok(off)
    }

    /// Move the machine's `store.used_bytes` and `store.committed_bytes`
    /// gauges by how far `st` moved since `before`, its `(used,
    /// committed)` earlier in the same hold of the allocation mutex. One
    /// hold publishes once, however many entries it allocates or
    /// reclaims.
    fn publish(&self, st: &AllocState, before: (usize, usize)) {
        let (used, committed) = before;
        self.metrics.used_bytes.add(st.used as i64 - used as i64);
        self.metrics
            .committed_bytes
            .add(st.committed as i64 - committed as i64);
    }

    /// Allocate with one defragmentation retry on exhaustion.
    fn allocate(&self, uid: u64, cap: u32, size: u32) -> Result<usize> {
        let need = Self::entry_len(cap);
        if need > self.reserved {
            self.metrics.oom.inc();
            return Err(StoreError::OutOfMemory {
                requested: need,
                reserved: self.reserved,
            });
        }
        let attempt = || {
            let mut st = self.alloc.lock();
            let before = (st.used, st.committed);
            let off = self.allocate_locked(&mut st, uid, cap, size)?;
            self.publish(&st, before);
            Ok(off)
        };
        match attempt().or_else(|_| {
            self.defragment();
            attempt()
        }) {
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

    /// Begin a bulk load of at most `count` cells into this trunk, which
    /// must be empty: the load allocates with no defragmentation retry,
    /// since an empty trunk has nothing to reclaim. The loader holds the
    /// allocation mutex and the index write guard until it drops (module
    /// docs, rule 4), so other threads see none of its cells until then
    /// and all of them after. Room in the index and one block of `count`
    /// version stamps are reserved up front; `count` must be bounded by
    /// the input it comes from.
    pub(crate) fn loader(&self, count: usize) -> Loader<'_> {
        let st = self.alloc.lock();
        let mut idx = self.index.write();
        idx.table.reserve(count);
        idx.slab.reserve(count);
        Loader {
            trunk: self,
            before: (st.used, st.committed),
            st,
            idx,
            first: next_versions(count as u64),
            count: count as u64,
            cells: 0,
            payload: 0,
            entry: 0,
        }
    }

    // ------------------------------------------------------------------
    // Cell lock acquisition
    // ------------------------------------------------------------------

    /// Find the cell and pin it, without ever blocking on its lock while
    /// holding the index guard (see module docs, rule 1). The record stays
    /// the cell's while pinned, because slot reclamation needs the lock.
    fn lock_cell(&self, id: CellId) -> Option<Pinned<'_>> {
        loop {
            {
                let idx = self.index.read();
                let slot = idx.table.get(id)?;
                if let Some(pin) = Pinned::try_new(self.meta(idx.slab.get_ptr(slot))) {
                    return Some(pin);
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
        match self.lock_cell(id) {
            Some(pin) => self.rewrite(&pin, id, 0, payload),
            None => self.insert_fresh(id, payload, false),
        }
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
        let need = Self::entry_len(size);
        loop {
            // The freshly allocated entry is unpublished and ours alone.
            let off = self.allocate(id, size, size)?;
            self.write_payload(off, 0, &[payload]);
            let mut idx = self.index.write();
            if idx.table.get(id).is_some() {
                drop(idx);
                // Raced with a concurrent insert of the same id: release our
                // region and write through the existing cell.
                self.write_tombstone(off, size);
                if must_be_new {
                    return Err(StoreError::AlreadyExists(id));
                }
                if let Some(pin) = self.lock_cell(id) {
                    return self.rewrite(&pin, id, 0, payload);
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
            self.live_tight.fetch_add(need, Ordering::Relaxed);
            return Ok(version);
        }
    }

    /// Make a pinned cell's payload its first `keep` bytes followed by
    /// `tail`, and stamp it. Writes in place when the result fits the
    /// cell's capacity. Otherwise relocates the cell with a short-lived
    /// reservation proportional to the growth, so a steadily growing cell
    /// (a graph node gaining edges) is not copied on every append; the
    /// next defrag pass reclaims the slack.
    fn rewrite(
        &self,
        pin: &Pinned<'_>,
        id: CellId,
        keep: usize,
        tail: &[u8],
    ) -> Result<CellVersion> {
        let off = pin.offset();
        let (uid, cap, size) = self.read_header(off);
        debug_assert!(uid == id && keep <= size as usize);
        let new_size = self.check_len(keep + tail.len())?;
        self.note_mutation();
        if new_size <= cap {
            self.write_payload(off, keep, &[tail]);
            self.write_header(off, id, cap, new_size);
        } else {
            let growth = new_size as usize - cap as usize;
            let slack = (growth as f64 * self.cfg.expansion_slack) as usize;
            let new_cap = self
                .check_len((new_size as usize + slack).min(u32::MAX as usize / 2))
                .unwrap_or(new_size);
            let need = Self::entry_len(new_cap);
            let new_off = self.allocate(id, new_cap, new_size)?;
            self.metrics.realloc.inc();
            self.write_payload(new_off, 0, &[self.payload(off, keep), tail]);
            // Tombstone the old entry and publish the new offset.
            self.write_tombstone(off, cap);
            pin.meta.set_offset(new_off as u32);
            shift(&self.live_entry, Self::entry_len(cap), need);
        }
        shift(&self.live_payload, size as usize, new_size as usize);
        shift(
            &self.live_tight,
            Self::entry_len(size),
            Self::entry_len(new_size),
        );
        let version = next_version();
        pin.meta.set_version(version);
        Ok(version)
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
        let pin = self.lock_cell(id).ok_or(StoreError::NotFound(id))?;
        let found = pin.meta.version();
        if found != expected {
            return Err(StoreError::VersionMismatch {
                id,
                expected,
                found,
            });
        }
        self.rewrite(&pin, id, 0, payload)
    }

    /// Append `extra` to the cell's payload (the growing-cell fast path the
    /// short-lived reservations exist for — e.g. adding edges to a node).
    /// Returns the cell's new version.
    pub fn append(&self, id: CellId, extra: &[u8]) -> Result<CellVersion> {
        let pin = self.lock_cell(id).ok_or(StoreError::NotFound(id))?;
        let (_, _, size) = self.read_header(pin.offset());
        self.rewrite(&pin, id, size as usize, extra)
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
        self.lock_cell(id).map(|pin| self.guard(pin))
    }

    /// Read a cell into an owned buffer.
    pub fn get_owned(&self, id: CellId) -> Option<Vec<u8>> {
        self.get(id).map(|g| g.to_vec())
    }

    /// Read a cell together with its version stamp. The stamp and the
    /// payload are taken under the same cell lock, so they are mutually
    /// consistent — the pair a remote read cache stores.
    pub fn get_versioned(&self, id: CellId) -> Option<(CellVersion, CellGuard<'_>)> {
        let pin = self.lock_cell(id)?;
        Some((pin.meta.version(), self.guard(pin)))
    }

    fn guard<'a>(&'a self, pin: Pinned<'a>) -> CellGuard<'a> {
        let off = pin.offset();
        let (_, _, size) = self.read_header(off);
        CellGuard {
            bytes: self.payload(off, size as usize),
            _pin: pin,
        }
    }

    /// The cell's current version stamp, if it exists. Lock-free: the
    /// stamp may be concurrently advancing, which cache bookkeeping
    /// tolerates (an older stamp only causes a spurious refresh).
    pub fn version_of(&self, id: CellId) -> Option<CellVersion> {
        let idx = self.index.read();
        let slot = idx.table.get(id)?;
        Some(idx.slab.get(slot).version())
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
            let slot = idx.table.remove(id).ok_or(StoreError::NotFound(id))?;
            (slot, self.meta(idx.slab.get_ptr(slot)))
        };
        // Step 2: wait for any guard holder to finish; after the mapping is
        // gone nobody new can reach the slot, so plain spin is deadlock-free
        // here (we hold no index guard).
        let pin = Pinned::wait(meta);
        self.note_mutation();
        let off = pin.offset();
        let (_, cap, size) = self.read_header(off);
        self.write_tombstone(off, cap);
        self.live_payload
            .fetch_sub(size as usize, Ordering::Relaxed);
        self.live_entry
            .fetch_sub(Self::entry_len(cap), Ordering::Relaxed);
        self.live_tight
            .fetch_sub(Self::entry_len(size), Ordering::Relaxed);
        drop(pin);
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
        let before = (st.used, st.committed);
        let mut remaining = st.used;
        let mut pos = st.tail;
        while remaining > 0 {
            if pos == self.reserved {
                pos = 0;
            }
            // Read the uid word alone first: a WRAP filler may be only 8
            // bytes long (when it sits 8 bytes from the reserved end), so
            // reading a full 16-byte header there would run off the end.
            if self.word(pos).load(Ordering::Acquire) == WRAP {
                let len = self.reserved - pos;
                remaining -= len;
                st.used -= len;
                pos = 0;
                st.tail = 0;
                report.reclaimed_bytes += len as u64;
                continue;
            }
            let (uid, cap, _) = self.read_header(pos);
            let len = Self::entry_len(cap);
            if uid == TOMB {
                remaining -= len;
                st.used -= len;
                pos += len;
                st.tail = pos % self.reserved;
                report.reclaimed_bytes += len as u64;
                continue;
            }
            // Live cell: find its metadata and try to pin it ourselves.
            let meta = {
                let idx = self.index.read();
                match idx.table.get(uid) {
                    Some(slot) => self.meta(idx.slab.get_ptr(slot)),
                    None => {
                        // A concurrent `remove` has unpublished the mapping
                        // but not yet tombstoned the header, or an insert
                        // has not published it yet; treat the cell as
                        // pinned and let a later pass deal with it.
                        report.completed = false;
                        break;
                    }
                }
            };
            let Some(pin) = Pinned::try_new(meta) else {
                // Pinned by a reader/writer: the tail cannot advance past it.
                report.completed = false;
                break;
            };
            // Re-read under the pin: since the scan read the header, an
            // in-place write may have resized the cell, or a remove may
            // have tombstoned it and recycled its record.
            let (now, _, size) = self.read_header(pos);
            if pin.offset() != pos || now == TOMB {
                // The entry at `pos` is not (or no longer) this record's
                // cell: a remove tombstoned it, or a remove and a re-insert
                // of the uid raced our header read and the lookup. A landed
                // tombstone is reclaimed by the loop; one still in flight
                // stops the pass, and the next one reclaims it.
                drop(pin);
                if now == TOMB {
                    continue;
                }
                report.completed = false;
                break;
            }
            // Relocate: new capacity == size (reservation slack dropped).
            // The destination is fresh and unpublished; the source is
            // pinned, and the allocator never hands out bytes inside the
            // still-used window, so the two cannot overlap.
            let need = Self::entry_len(size);
            let Ok(new_off) = self.allocate_locked(&mut st, uid, size, size) else {
                report.completed = false;
                break;
            };
            self.write_payload(new_off, 0, &[self.payload(pos, size as usize)]);
            pin.meta.set_offset(new_off as u32);
            drop(pin);
            shift(&self.live_entry, len, need);
            self.bytes_moved.fetch_add(size as usize, Ordering::Relaxed);
            report.moved_cells += 1;
            report.moved_bytes += size as u64;
            report.reclaimed_bytes += (len - need) as u64;
            remaining -= len;
            st.used -= len;
            pos += len;
            st.tail = pos % self.reserved;
        }
        // Release freed pages: the committed window shrinks back to the
        // page-rounded live window.
        st.committed = st
            .used
            .next_multiple_of(self.cfg.page_bytes)
            .min(self.reserved);
        self.publish(&st, before);
        st.defrag_passes += 1;
        self.metrics.defrag_passes.inc();
        self.metrics.defrag_moved.add(report.moved_bytes);
        self.metrics.defrag_reclaimed.add(report.reclaimed_bytes);
        report
    }
}

/// A bulk load in progress ([`Trunk::loader`]). Each [`insert`] does
/// what [`Trunk::insert_new`] does for a cell, in the same allocation
/// order, so the trunk ends byte for byte as per-cell inserts would
/// leave it. The per-trunk counters, `store.alloc` and the window gauges
/// move once, on drop, while both locks are still held.
///
/// [`insert`]: Loader::insert
pub(crate) struct Loader<'a> {
    trunk: &'a Trunk,
    st: MutexGuard<'a, AllocState>,
    /// `st`'s `(used, committed)` when the load began.
    before: (usize, usize),
    idx: RwLockWriteGuard<'a, Index>,
    /// The reserved block of stamps: `count` of them from `first`.
    first: CellVersion,
    count: u64,
    /// Cells, live payload bytes and entry bytes loaded so far.
    cells: u64,
    payload: usize,
    entry: usize,
}

impl Loader<'_> {
    /// Add the cell `id` with `payload`, as [`Trunk::insert_new`] would.
    pub(crate) fn insert(&mut self, id: CellId, payload: &[u8]) -> Result<()> {
        assert!(self.cells < self.count, "more cells than the loader took");
        let t = self.trunk;
        let size = t.check_len(payload.len())?;
        if self.idx.table.get(id).is_some() {
            return Err(StoreError::AlreadyExists(id));
        }
        let need = Trunk::entry_len(size);
        let off = t
            .allocate_locked(&mut self.st, id, size, size)
            .inspect_err(|_| {
                t.metrics.oom.inc();
            })?;
        t.metrics.alloc_bytes.record(need as u64);
        // Unpublished until the index guard drops.
        t.write_payload(off, 0, &[payload]);
        let slot = self.idx.slab.alloc(off as u32);
        self.idx.slab.get(slot).set_version(self.first + self.cells);
        self.idx.table.insert(id, slot);
        self.cells += 1;
        self.payload += size as usize;
        self.entry += need;
        Ok(())
    }
}

impl Drop for Loader<'_> {
    fn drop(&mut self) {
        let t = self.trunk;
        t.mutations.fetch_add(self.cells, Ordering::Relaxed);
        t.live_payload.fetch_add(self.payload, Ordering::Relaxed);
        t.live_entry.fetch_add(self.entry, Ordering::Relaxed);
        t.live_tight.fetch_add(self.entry, Ordering::Relaxed);
        t.metrics.alloc.add(self.cells);
        t.publish(&self.st, self.before);
    }
}

/// Shared read guard over one cell's payload. Holding the guard pins the
/// cell: the defragmentation pass cannot move it and writers cannot touch it.
pub struct CellGuard<'a> {
    bytes: &'a [u8],
    _pin: Pinned<'a>,
}

impl std::ops::Deref for CellGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

impl std::fmt::Debug for CellGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CellGuard({} bytes)", self.bytes.len())
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
        t.put(1, b"abc").unwrap(); // shrink in place
        assert_eq!(t.get(1).unwrap().as_ref(), b"abc");
        t.put(1, b"0123456789abcdef0123").unwrap(); // grow: relocates
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
        let v1 = t.put(1, b"bb").unwrap(); // in place
        let v2 = t.put(1, &[b'c'; 100]).unwrap(); // relocating
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
        t.put(2, &[b'd'; 100]).unwrap();
        bumped(&t, "put (relocating)");
        t.append(2, b"e").unwrap();
        bumped(&t, "append (in place)");
        t.append(2, &[b'f'; 400]).unwrap();
        bumped(&t, "append (relocating)");
        t.put_if_version(1, b"g", v).unwrap();
        bumped(&t, "put_if_version");
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
                    t.put(i, &expect[i as usize]).unwrap();
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
