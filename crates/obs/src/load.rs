//! Per-trunk load accounting.
//!
//! Trinity's unit of data placement — and therefore of migration and
//! tiering — is the *trunk* (§3 of the paper: 2^p trunks dealt over the
//! machines by the addressing table). Rebalancing decisions need to know
//! which trunks are hot *now*, not which were hot since process start, so
//! a [`LoadMap`] keeps two views per trunk:
//!
//! * **Lifetime totals** — relaxed atomic counters bumped on the hot path
//!   (cell reads/writes, MULTI_GET batches, BSP message deliveries,
//!   traversal hops, client-cache hits/misses). Recording costs one
//!   `RwLock` read acquisition plus one or two relaxed `fetch_add`s. BSP
//!   deliveries are attributed per trunk when a worker drains its inbox:
//!   one record per trunk per superstep, not one per message.
//! * **EWMA-decayed windowed rates** — folded from the totals at *roll*
//!   time (no background thread): `rate ← rate + α·(Δ/Δt − rate)` with
//!   `α = 1 − exp(−Δt/τ)` and `τ =` [`LOAD_DECAY_TAU_S`]. A trunk idle
//!   for a few τ decays toward zero instead of being propped up forever
//!   by its history.
//!
//! [`LoadMap::snapshot`] is the API trunk migration and tiering consume:
//! both rank trunks by [`TrunkLoad::score`].
//!
//! **Overflow behavior:** trunk ids at or above [`MAX_TRUNKS`] are
//! silently dropped — the map is a dense vector indexed by trunk id, and
//! the addressing table never mints ids that large (2^p with small p). A
//! roll observing a window shorter than [`MIN_ROLL_WINDOW_US`] is skipped
//! so snapshot storms cannot divide by (near) zero.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// EWMA time constant for the windowed rates, in seconds.
const LOAD_DECAY_TAU_S: f64 = 10.0;

/// Rolls closer together than this are ignored (window too small to
/// produce a meaningful rate).
pub const MIN_ROLL_WINDOW_US: u64 = 1_000;

/// Trunk ids `>= MAX_TRUNKS` are dropped rather than grown toward.
const MAX_TRUNKS: u64 = 1 << 20;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Hot-path totals for one trunk. All relaxed; read at roll time.
#[derive(Debug, Default)]
struct TrunkCell {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    msgs: AtomicU64,
    hops: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Totals {
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    msgs: u64,
    hops: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl TrunkCell {
    fn totals(&self) -> Totals {
        Totals {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            msgs: self.msgs.load(Ordering::Relaxed),
            hops: self.hops.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }
}

/// One trunk's load as of the last roll: lifetime totals plus EWMA rates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrunkLoad {
    pub trunk: u64,
    /// Lifetime cell reads attributed to this trunk.
    pub reads: u64,
    /// Lifetime cell writes (PUT/APPEND/REMOVE).
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// BSP messages delivered to vertices owned by this trunk.
    pub msgs: u64,
    /// Traversal hops that expanded a vertex in this trunk.
    pub hops: u64,
    /// Client-side remote-cache hits for cells in this trunk.
    pub cache_hits: u64,
    /// Client-side remote-cache misses for cells in this trunk.
    pub cache_misses: u64,
    /// EWMA-decayed windowed rates.
    pub reads_per_s: f64,
    pub writes_per_s: f64,
    pub bytes_per_s: f64,
    pub msgs_per_s: f64,
    pub hops_per_s: f64,
    /// EWMA share of remote reads that missed the client cache (0..=1);
    /// holds its last value across windows with no cache traffic.
    pub remote_miss_share: f64,
}

impl TrunkLoad {
    /// Scalar hotness, the rank trunk migration and tiering use:
    /// operation rate regardless of kind.
    pub fn score(&self) -> f64 {
        self.reads_per_s + self.writes_per_s + self.msgs_per_s + self.hops_per_s
    }

    /// Element-wise sum for cluster totals. Rates add (trunks are hosted by
    /// one machine, so cross-machine merge unions disjoint owner load with
    /// client-side cache traffic); the miss share is recomputed from the
    /// combined lifetime cache counters.
    pub fn merge(&mut self, other: &TrunkLoad) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.msgs += other.msgs;
        self.hops += other.hops;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.reads_per_s += other.reads_per_s;
        self.writes_per_s += other.writes_per_s;
        self.bytes_per_s += other.bytes_per_s;
        self.msgs_per_s += other.msgs_per_s;
        self.hops_per_s += other.hops_per_s;
        let lookups = self.cache_hits + self.cache_misses;
        self.remote_miss_share = if lookups > 0 {
            self.cache_misses as f64 / lookups as f64
        } else {
            0.0
        };
    }
}

#[derive(Debug, Default)]
struct TrunkRoll {
    last: Totals,
    load: TrunkLoad,
}

#[derive(Debug, Default)]
struct RollState {
    last_us: u64,
    trunks: BTreeMap<u64, TrunkRoll>,
}

/// Per-machine trunk load accounting. One per [`crate::MachineScope`].
#[derive(Debug)]
pub struct LoadMap {
    epoch: Instant,
    cells: RwLock<Vec<Option<Arc<TrunkCell>>>>,
    roll: Mutex<RollState>,
}

impl Default for LoadMap {
    fn default() -> Self {
        LoadMap {
            epoch: Instant::now(),
            cells: RwLock::new(Vec::new()),
            roll: Mutex::new(RollState::default()),
        }
    }
}

impl LoadMap {
    pub fn new() -> Self {
        LoadMap::default()
    }

    /// Microseconds since this map's epoch — the time base for rolls.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn cell(&self, trunk: u64) -> Option<Arc<TrunkCell>> {
        if trunk >= MAX_TRUNKS {
            return None;
        }
        let idx = trunk as usize;
        if let Ok(cells) = self.cells.read() {
            if let Some(Some(c)) = cells.get(idx) {
                return Some(Arc::clone(c));
            }
        }
        let mut cells = match self.cells.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if cells.len() <= idx {
            cells.resize(idx + 1, None);
        }
        Some(Arc::clone(
            cells[idx].get_or_insert_with(|| Arc::new(TrunkCell::default())),
        ))
    }

    /// Attribute a cell read of `bytes` to `trunk`.
    #[inline]
    pub fn record_read(&self, trunk: u64, bytes: u64) {
        if let Some(c) = self.cell(trunk) {
            c.reads.fetch_add(1, Ordering::Relaxed);
            c.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Attribute a cell write (PUT/APPEND/REMOVE) of `bytes` to `trunk`.
    #[inline]
    pub fn record_write(&self, trunk: u64, bytes: u64) {
        if let Some(c) = self.cell(trunk) {
            c.writes.fetch_add(1, Ordering::Relaxed);
            c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Attribute `n` BSP message deliveries to `trunk`.
    #[inline]
    pub fn record_msgs(&self, trunk: u64, n: u64) {
        if let Some(c) = self.cell(trunk) {
            c.msgs.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Attribute `n` traversal hop expansions to `trunk`.
    #[inline]
    pub fn record_hops(&self, trunk: u64, n: u64) {
        if let Some(c) = self.cell(trunk) {
            c.hops.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Attribute a client-side remote-cache hit for a cell in `trunk`.
    #[inline]
    pub fn record_cache_hit(&self, trunk: u64) {
        if let Some(c) = self.cell(trunk) {
            c.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Attribute a client-side remote-cache miss for a cell in `trunk`.
    #[inline]
    pub fn record_cache_miss(&self, trunk: u64) {
        if let Some(c) = self.cell(trunk) {
            c.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold totals accumulated since the previous roll into the EWMA rates,
    /// at an explicit timestamp (µs since this map's epoch). Exposed so
    /// tests can drive deterministic windows; production callers use
    /// [`LoadMap::snapshot`], which rolls at the wall clock.
    pub fn roll_at(&self, now_us: u64) {
        let mut st = lock(&self.roll);
        let dt_us = now_us.saturating_sub(st.last_us);
        if dt_us < MIN_ROLL_WINDOW_US {
            return;
        }
        let dt_s = dt_us as f64 / 1e6;
        let alpha = 1.0 - (-dt_s / LOAD_DECAY_TAU_S).exp();
        let cells: Vec<(u64, Arc<TrunkCell>)> = {
            let cells = match self.cells.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            cells
                .iter()
                .enumerate()
                .filter_map(|(t, c)| c.as_ref().map(|c| (t as u64, Arc::clone(c))))
                .collect()
        };
        for (trunk, cell) in cells {
            let now = cell.totals();
            let tr = st.trunks.entry(trunk).or_default();
            let fold = |rate: &mut f64, delta: u64| {
                *rate += alpha * (delta as f64 / dt_s - *rate);
            };
            fold(&mut tr.load.reads_per_s, now.reads - tr.last.reads);
            fold(&mut tr.load.writes_per_s, now.writes - tr.last.writes);
            fold(
                &mut tr.load.bytes_per_s,
                (now.bytes_read - tr.last.bytes_read) + (now.bytes_written - tr.last.bytes_written),
            );
            fold(&mut tr.load.msgs_per_s, now.msgs - tr.last.msgs);
            fold(&mut tr.load.hops_per_s, now.hops - tr.last.hops);
            let d_hit = now.cache_hits - tr.last.cache_hits;
            let d_miss = now.cache_misses - tr.last.cache_misses;
            if d_hit + d_miss > 0 {
                let share = d_miss as f64 / (d_hit + d_miss) as f64;
                tr.load.remote_miss_share += alpha * (share - tr.load.remote_miss_share);
            }
            tr.load.trunk = trunk;
            tr.load.reads = now.reads;
            tr.load.writes = now.writes;
            tr.load.bytes_read = now.bytes_read;
            tr.load.bytes_written = now.bytes_written;
            tr.load.msgs = now.msgs;
            tr.load.hops = now.hops;
            tr.load.cache_hits = now.cache_hits;
            tr.load.cache_misses = now.cache_misses;
            tr.last = now;
        }
        st.last_us = now_us;
    }

    /// Roll using the wall clock.
    fn roll(&self) {
        self.roll_at(self.now_us());
    }

    /// Roll, then copy out every trunk with any recorded activity, ordered
    /// by trunk id.
    pub fn snapshot(&self) -> Vec<TrunkLoad> {
        self.roll();
        self.snapshot_rolled()
    }

    /// Copy out the last-rolled state without re-rolling (deterministic
    /// companion to [`LoadMap::roll_at`]).
    pub fn snapshot_rolled(&self) -> Vec<TrunkLoad> {
        let st = lock(&self.roll);
        st.trunks
            .values()
            .filter(|tr| tr.last != Totals::default())
            .map(|tr| tr.load.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates_attribute_per_trunk() {
        let lm = LoadMap::new();
        for _ in 0..100 {
            lm.record_read(3, 64);
        }
        lm.record_write(5, 128);
        lm.record_msgs(3, 7);
        lm.record_hops(5, 2);
        lm.roll_at(1_000_000); // one second
        let snap = lm.snapshot_rolled();
        assert_eq!(snap.len(), 2);
        let t3 = &snap[0];
        assert_eq!((t3.trunk, t3.reads, t3.msgs), (3, 100, 7));
        // α = 1 − e^(−0.1) over a 1 s window folding 100 reads/s.
        let alpha = 1.0 - (-0.1f64).exp();
        assert!((t3.reads_per_s - alpha * 100.0).abs() < 1e-6);
        let t5 = &snap[1];
        assert_eq!((t5.trunk, t5.writes, t5.hops), (5, 1, 2));
        assert_eq!(t5.bytes_written, 128);
    }

    #[test]
    fn rates_decay_when_idle() {
        let lm = LoadMap::new();
        lm.record_read(0, 1);
        lm.roll_at(1_000_000);
        let hot = lm.snapshot_rolled()[0].reads_per_s;
        assert!(hot > 0.0);
        // 50 s of silence: e^(−5) ≈ 0.7% of the rate remains.
        lm.roll_at(51_000_000);
        let cold = lm.snapshot_rolled()[0].reads_per_s;
        assert!(cold < hot * 0.01, "rate must decay: {hot} -> {cold}");
    }

    #[test]
    fn miss_share_folds_only_with_traffic() {
        let lm = LoadMap::new();
        for _ in 0..3 {
            lm.record_cache_miss(7);
        }
        lm.record_cache_hit(7);
        lm.roll_at(1_000_000);
        let share = lm.snapshot_rolled()[0].remote_miss_share;
        let alpha = 1.0 - (-0.1f64).exp();
        assert!((share - alpha * 0.75).abs() < 1e-6);
        // A quiet window leaves the share untouched.
        lm.roll_at(2_000_000);
        assert_eq!(lm.snapshot_rolled()[0].remote_miss_share, share);
    }

    #[test]
    fn out_of_range_trunks_are_dropped() {
        let lm = LoadMap::new();
        lm.record_read(MAX_TRUNKS, 64);
        lm.record_read(MAX_TRUNKS + 5, 64);
        lm.roll_at(1_000_000);
        assert!(lm.snapshot_rolled().is_empty());
    }

    #[test]
    fn tiny_windows_are_skipped() {
        let lm = LoadMap::new();
        lm.record_read(0, 1);
        lm.roll_at(500); // below MIN_ROLL_WINDOW_US
        assert!(lm.snapshot_rolled().is_empty(), "roll must be skipped");
        lm.roll_at(1_000_000);
        assert_eq!(lm.snapshot_rolled().len(), 1);
    }
}
