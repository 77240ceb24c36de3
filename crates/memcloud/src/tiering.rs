//! Trunk tiering: out-of-core residency under a per-machine memory
//! budget (DESIGN.md §15).
//!
//! The §5.4 residency model observes that offline jobs only need the
//! scheduled partition fully resident. Tiering is the mechanism that acts
//! on it: a *cold* trunk spills its sealed cell image to TFS (the same
//! version-stamped backup path recovery reads) and drops out of the
//! memstore; the next access faults it back in. Per trunk, the state
//! machine is:
//!
//! ```text
//!                              ┌──clean: TFS already holds it──┐
//!                              │                               ▼
//! resident ──spill──▶ Spilling ┴──dirty: CAS write──▶ Spilled{version, used_bytes}
//!    ▲                                                     │ access
//!    └──────────── FaultingIn ◀────────────────────────────┘
//! ```
//!
//! * **resident** (no entry): the trunk lives in the memstore; accesses
//!   pay one atomic load over the untiered baseline.
//! * **Spilling**: the spiller seals the trunk first (see
//!   [`CloudNode::spill_trunk`]'s donor-lock barrier), so no mutation can
//!   land between the decision below and the evict; readers and writers
//!   arriving during the window wait on the state's condvar. A trunk that
//!   is *clean* — unchanged since it was restored from a TFS image that
//!   TFS still holds at the same version ([`Tiering::clean_version`]) —
//!   is simply dropped; any other trunk is captured and CAS-written.
//! * **Spilled{version, used_bytes}**: the image lives only in TFS, at
//!   that file version; the trunk held `used_bytes` when it left, which
//!   is what it needs back. The first accessor transitions to
//!   FaultingIn; everyone else waits.
//! * **FaultingIn**: exactly one thread makes room for the trunk (a
//!   budget sweep sized by its `used_bytes`), reads + decodes + restores
//!   the image — into the region of a trunk the sweep pushed out when
//!   there is one — then clears the entry and wakes the waiters. A failed
//!   fault (TFS unreachable) falls back to Spilled so a later access
//!   retries.
//!
//! Pinning ([`Tiering::pin`]) is how the BSP bucket prefetcher protects
//! the scheduled (and next-scheduled) trunks: eviction never selects a
//! pinned trunk, mirroring "never the trunk currently scheduled".
//!
//! [`CloudNode::spill_trunk`]: crate::CloudNode::spill_trunk

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};
use trinity_memstore::Trunk;
use trinity_obs::{Counter, Gauge, Histogram, MachineScope};

/// Per-trunk tiering state. Absence from the map means *resident*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TierState {
    /// Eviction in progress behind the write seal — the image is being
    /// captured and written unless TFS already holds it; accessors wait.
    Spilling,
    /// Image lives only in TFS, at this file version.
    Spilled {
        /// TFS file version of the spilled image (the CAS stamp).
        version: u64,
        /// The trunk's `used_bytes` when it spilled: the room its fault-in
        /// makes before it restores.
        used_bytes: u64,
    },
    /// Exactly one accessor is restoring the image; the rest wait.
    FaultingIn,
}

/// A won Spilled → FaultingIn transition: what the spill recorded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultClaim {
    /// TFS version of the image the trunk spilled at.
    pub(crate) version: u64,
    /// The trunk's `used_bytes` when it spilled.
    pub(crate) used_bytes: u64,
}

/// What a tier-aware accessor should do about trunk residency.
pub(crate) enum FaultTurn {
    /// No tier entry: the trunk is (or may be created) resident.
    Resident,
    /// This thread won the FaultingIn transition and must restore the
    /// image the claim names.
    Fault(FaultClaim),
}

/// Aggregated tiering counters for one machine. The same values are
/// published as `tier.*` metrics in the machine's registry scope.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Trunk images written to TFS by spills.
    pub spills: u64,
    /// Encoded image bytes written by spills.
    pub spill_bytes: u64,
    /// Trunks evicted without a write because TFS already held their
    /// exact image.
    pub clean_evictions: u64,
    /// Trunks faulted back in from TFS.
    pub faults: u64,
    /// Fault-ins that landed in the reserved region of a trunk their
    /// budget sweep pushed out, instead of a fresh one.
    pub region_reuses: u64,
    /// Encoded image bytes read by fault-ins.
    pub fault_bytes: u64,
    /// Bucket-prefetch checks that found the trunk already resident.
    pub prefetch_hits: u64,
    /// Bucket-prefetch checks that had to fault the trunk in.
    pub prefetch_misses: u64,
    /// Trunks currently spilled (image only in TFS).
    pub spilled_trunks: u64,
    /// Resident trunk bytes (the `tier.resident_bytes` gauge).
    pub resident_bytes: i64,
}

/// `tier.*` metric handles, created once per machine scope.
pub(crate) struct TierMetrics {
    pub(crate) spills: Arc<Counter>,
    pub(crate) spill_bytes: Arc<Counter>,
    pub(crate) clean_evictions: Arc<Counter>,
    pub(crate) faults: Arc<Counter>,
    pub(crate) fault_bytes: Arc<Counter>,
    /// Wall time of one trunk restore: from the image in hand to the
    /// trunk resident (`tier.fault_in_us`).
    pub(crate) fault_in_us: Arc<Histogram>,
    pub(crate) region_reuses: Arc<Counter>,
    pub(crate) prefetch_hits: Arc<Counter>,
    pub(crate) prefetch_misses: Arc<Counter>,
    pub(crate) resident_bytes: Arc<Gauge>,
}

impl TierMetrics {
    fn new(obs: &MachineScope) -> Self {
        TierMetrics {
            spills: obs.counter("tier.spills"),
            spill_bytes: obs.counter("tier.spill_bytes"),
            clean_evictions: obs.counter("tier.clean_evictions"),
            faults: obs.counter("tier.faults"),
            fault_bytes: obs.counter("tier.fault_bytes"),
            fault_in_us: obs.histogram("tier.fault_in_us"),
            region_reuses: obs.counter("tier.region_reuses"),
            prefetch_hits: obs.counter("tier.prefetch_hits"),
            prefetch_misses: obs.counter("tier.prefetch_misses"),
            resident_bytes: obs.gauge("tier.resident_bytes"),
        }
    }
}

/// "This resident trunk's cells are exactly the TFS image at `version`":
/// true when recorded, and still true for as long as `trunk` is the same
/// object and its mutation count has not moved.
struct CleanImage {
    /// Identity, not ownership: a trunk evicted and recreated under the
    /// same id is a different object and never matches.
    trunk: Weak<Trunk>,
    version: u64,
    mutations: u64,
}

/// One machine's tiering books: the per-trunk state map, pin counts, the
/// memory budget, and the `tier.*` metric handles. The spill/fault logic
/// itself lives on `CloudNode` (it needs the store, TFS, and migration
/// books); this struct owns only the state machine.
pub(crate) struct Tiering {
    /// Fast-path gate: true iff a budget is set or any trunk has a tier
    /// entry. When false, tier-aware accessors pay one relaxed load.
    active: AtomicBool,
    /// Per-machine resident-bytes budget; 0 means unlimited (tiering only
    /// acts through explicit `spill_trunk` calls).
    budget: AtomicU64,
    states: Mutex<HashMap<u64, TierState>>,
    cv: Condvar,
    /// Per resident trunk: the TFS image it was last restored from.
    clean: Mutex<HashMap<u64, CleanImage>>,
    /// Pin counts per trunk: pinned trunks are never chosen for eviction.
    pins: Mutex<HashMap<u64, usize>>,
    /// Mutations since the last budget sweep (write-path trigger).
    write_ticks: AtomicU64,
    pub(crate) metrics: TierMetrics,
}

/// Budget sweeps trigger every this many mutations (plus before and after
/// every fault-in), so a write-heavy phase cannot overrun the budget by more
/// than a bounded amount between sweeps.
const WRITES_PER_SWEEP: u64 = 128;

impl Tiering {
    pub(crate) fn new(obs: &MachineScope) -> Self {
        Tiering {
            active: AtomicBool::new(false),
            budget: AtomicU64::new(0),
            states: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            clean: Mutex::new(HashMap::new()),
            pins: Mutex::new(HashMap::new()),
            write_ticks: AtomicU64::new(0),
            metrics: TierMetrics::new(obs),
        }
    }

    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    pub(crate) fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    pub(crate) fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
        if bytes > 0 {
            self.active.store(true, Ordering::Relaxed);
        } else {
            self.active
                .store(!self.states.lock().is_empty(), Ordering::Relaxed);
        }
    }

    /// Whether the write-path trigger elects this mutation for a sweep.
    pub(crate) fn write_tick(&self) -> bool {
        self.budget() > 0
            && self
                .write_ticks
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(WRITES_PER_SWEEP)
    }

    pub(crate) fn pin(&self, gid: u64) {
        *self.pins.lock().entry(gid).or_insert(0) += 1;
    }

    pub(crate) fn unpin(&self, gid: u64) {
        let mut pins = self.pins.lock();
        if let Some(n) = pins.get_mut(&gid) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&gid);
            }
        }
    }

    pub(crate) fn pinned(&self, gid: u64) -> bool {
        self.pins.lock().contains_key(&gid)
    }

    /// Whether `gid` has any tier entry — the write gate's re-check under
    /// the donor read lock. Any entry blocks a mutation: Spilling must
    /// drain, Spilled must fault in, FaultingIn must finish.
    #[inline]
    pub(crate) fn blocks(&self, gid: u64) -> bool {
        self.is_active() && self.states.lock().contains_key(&gid)
    }

    /// Current tier state of `gid` (`None` = resident), without blocking.
    pub(crate) fn state(&self, gid: u64) -> Option<TierState> {
        if !self.is_active() {
            return None;
        }
        self.states.lock().get(&gid).copied()
    }

    /// Claim the Spilling slot for `gid`. Fails if any tier entry exists
    /// (already spilled, or a concurrent spill/fault is in flight).
    pub(crate) fn try_begin_spill(&self, gid: u64) -> bool {
        let mut states = self.states.lock();
        if states.contains_key(&gid) {
            return false;
        }
        states.insert(gid, TierState::Spilling);
        self.active.store(true, Ordering::Relaxed);
        true
    }

    /// Abandon an in-flight spill: the trunk stays resident.
    pub(crate) fn abort_spill(&self, gid: u64) {
        let mut states = self.states.lock();
        states.remove(&gid);
        self.recompute_active(&states);
        self.cv.notify_all();
    }

    /// Remember that `trunk`, as it stands, equals the TFS image at
    /// `version`. Only sound while no writer can reach the trunk — the
    /// fault-in calls this before [`finish_fault`](Self::finish_fault)
    /// lets the waiting writers through.
    pub(crate) fn record_clean(&self, gid: u64, trunk: &Arc<Trunk>, version: u64) {
        let rec = CleanImage {
            trunk: Arc::downgrade(trunk),
            version,
            mutations: trunk.mutation_count(),
        };
        self.clean.lock().insert(gid, rec);
    }

    /// The TFS version whose image `trunk` still equals, if it has not
    /// been written to since [`record_clean`](Self::record_clean). The
    /// caller must hold the spill seal, so no write is in flight, and
    /// must still check that TFS holds that version.
    pub(crate) fn clean_version(&self, gid: u64, trunk: &Arc<Trunk>) -> Option<u64> {
        let clean = self.clean.lock();
        let rec = clean.get(&gid)?;
        (Weak::as_ptr(&rec.trunk) == Arc::as_ptr(trunk) && rec.mutations == trunk.mutation_count())
            .then_some(rec.version)
    }

    /// Commit a spill: TFS holds the trunk's image at `version`, and the
    /// caller evicted the trunk, which held `used_bytes`. Waiters wake and
    /// fault it back in.
    pub(crate) fn commit_spill(&self, gid: u64, version: u64, used_bytes: u64) {
        self.clean.lock().remove(&gid);
        let mut states = self.states.lock();
        states.insert(
            gid,
            TierState::Spilled {
                version,
                used_bytes,
            },
        );
        drop(states);
        self.cv.notify_all();
    }

    /// Claim the Spilled → FaultingIn transition without blocking: the
    /// prefetch path's bulk variant of [`await_fault_turn`]. `None` when
    /// the trunk is resident or busy (mid-spill or already faulting) —
    /// the compute path's blocking turn resolves those.
    ///
    /// [`await_fault_turn`]: Self::await_fault_turn
    pub(crate) fn try_begin_fault(&self, gid: u64) -> Option<FaultClaim> {
        let mut states = self.states.lock();
        match states.get(&gid).copied() {
            Some(TierState::Spilled {
                version,
                used_bytes,
            }) => {
                states.insert(gid, TierState::FaultingIn);
                Some(FaultClaim {
                    version,
                    used_bytes,
                })
            }
            _ => None,
        }
    }

    /// Wait until `gid` is either resident or this thread wins the
    /// Spilled → FaultingIn transition.
    pub(crate) fn await_fault_turn(&self, gid: u64) -> FaultTurn {
        let mut states = self.states.lock();
        loop {
            match states.get(&gid).copied() {
                None => return FaultTurn::Resident,
                Some(TierState::Spilled {
                    version,
                    used_bytes,
                }) => {
                    states.insert(gid, TierState::FaultingIn);
                    return FaultTurn::Fault(FaultClaim {
                        version,
                        used_bytes,
                    });
                }
                Some(TierState::Spilling) | Some(TierState::FaultingIn) => {
                    self.cv.wait(&mut states);
                }
            }
        }
    }

    /// Fault-in finished: the trunk is resident again.
    pub(crate) fn finish_fault(&self, gid: u64) {
        let mut states = self.states.lock();
        states.remove(&gid);
        self.recompute_active(&states);
        self.cv.notify_all();
    }

    /// Fault-in failed (TFS unreachable): fall back to Spilled so a later
    /// access retries the restore.
    pub(crate) fn fail_fault(&self, gid: u64, claim: FaultClaim) {
        let mut states = self.states.lock();
        states.insert(
            gid,
            TierState::Spilled {
                version: claim.version,
                used_bytes: claim.used_bytes,
            },
        );
        drop(states);
        self.cv.notify_all();
    }

    /// Drop whatever entry `gid` has — used by table installs when trunk
    /// ownership changes hands (the new owner reloads from TFS through
    /// the recovery path, which reads the same image a spill wrote).
    pub(crate) fn forget(&self, gid: u64) {
        self.clean.lock().remove(&gid);
        let mut states = self.states.lock();
        if states.remove(&gid).is_some() {
            self.recompute_active(&states);
            self.cv.notify_all();
        }
    }

    /// Drop all tiering state (machine revival).
    pub(crate) fn reset(&self) {
        let mut states = self.states.lock();
        states.clear();
        self.clean.lock().clear();
        self.pins.lock().clear();
        self.recompute_active(&states);
        self.cv.notify_all();
    }

    /// Trunks currently spilled, with their image versions.
    pub(crate) fn spilled(&self) -> Vec<(u64, u64)> {
        self.states
            .lock()
            .iter()
            .filter_map(|(&gid, &st)| match st {
                TierState::Spilled { version, .. } => Some((gid, version)),
                _ => None,
            })
            .collect()
    }

    pub(crate) fn spilled_count(&self) -> u64 {
        self.states
            .lock()
            .values()
            .filter(|s| matches!(s, TierState::Spilled { .. }))
            .count() as u64
    }

    fn recompute_active(&self, states: &HashMap<u64, TierState>) {
        self.active
            .store(self.budget() > 0 || !states.is_empty(), Ordering::Relaxed);
    }

    /// Snapshot the machine's tier counters.
    pub(crate) fn stats(&self) -> TierStats {
        TierStats {
            spills: self.metrics.spills.get(),
            spill_bytes: self.metrics.spill_bytes.get(),
            clean_evictions: self.metrics.clean_evictions.get(),
            faults: self.metrics.faults.get(),
            region_reuses: self.metrics.region_reuses.get(),
            fault_bytes: self.metrics.fault_bytes.get(),
            prefetch_hits: self.metrics.prefetch_hits.get(),
            prefetch_misses: self.metrics.prefetch_misses.get(),
            spilled_trunks: self.spilled_count(),
            resident_bytes: self.metrics.resident_bytes.get(),
        }
    }
}
