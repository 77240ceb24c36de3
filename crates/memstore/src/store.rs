//! The machine-local collection of memory trunks.
//!
//! The memory cloud is partitioned into `2^p` trunks with `2^p` greater
//! than the machine count, so every machine hosts several trunks (paper
//! §3). A [`LocalStore`] is the set of trunks currently owned by one
//! machine, keyed by global trunk id. Trunks migrate between machines when
//! the addressing table changes (join/leave/failure), which is why the set
//! is dynamic: `adopt` and `evict` move whole trunks in and out.
//!
//! The [`DefragDaemon`] is the paper's defragmentation thread: it
//! periodically scans the machine's trunks and compacts those whose dead
//! ratio exceeds a threshold.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use trinity_obs::MachineScope;

use crate::stats::TrunkStats;
use crate::trunk::{Region, Trunk, TrunkConfig};

/// Dead-byte ratio above which the defragmentation daemon compacts a trunk.
const DEFRAG_DEAD_RATIO: f64 = 0.25;
/// Sleep between daemon scans.
const DEFRAG_INTERVAL: Duration = Duration::from_millis(50);

/// Configuration for a machine's trunk collection.
#[derive(Debug, Clone, Default)]
pub struct LocalStoreConfig {
    /// Configuration applied to every trunk this machine creates.
    pub trunk: TrunkConfig,
}

/// All memory trunks hosted by one machine.
#[derive(Debug)]
pub struct LocalStore {
    cfg: LocalStoreConfig,
    trunks: RwLock<BTreeMap<u64, Arc<Trunk>>>,
    obs: MachineScope,
}

impl LocalStore {
    pub fn new(cfg: LocalStoreConfig) -> Self {
        Self::with_obs(cfg, MachineScope::detached())
    }

    /// Like [`LocalStore::new`], but every trunk this store creates
    /// publishes `store.*` metrics into the given machine scope (the cloud
    /// node passes its endpoint's scope here so trunk utilization shows up
    /// next to the machine's network counters).
    pub fn with_obs(cfg: LocalStoreConfig, obs: MachineScope) -> Self {
        LocalStore {
            cfg,
            trunks: RwLock::new(BTreeMap::new()),
            obs,
        }
    }

    /// The metrics scope trunks of this store publish into.
    pub fn obs(&self) -> &MachineScope {
        &self.obs
    }

    /// Create (or return) the trunk with global id `gid`.
    pub fn ensure_trunk(&self, gid: u64) -> Arc<Trunk> {
        self.ensure_trunk_in(gid, None)
    }

    /// Like [`ensure_trunk`](Self::ensure_trunk), but a trunk this call
    /// creates lands in `region` when one is handed over — the region of a
    /// trunk of this store that was just given up ([`Trunk::into_region`])
    /// — and in a fresh one otherwise. A region the call does not use is
    /// freed.
    pub fn ensure_trunk_in(&self, gid: u64, region: Option<Region>) -> Arc<Trunk> {
        if let Some(t) = self.trunks.read().get(&gid) {
            return Arc::clone(t);
        }
        let mut w = self.trunks.write();
        Arc::clone(w.entry(gid).or_insert_with(|| {
            let (cfg, obs) = (self.cfg.trunk.clone(), self.obs.clone());
            Arc::new(match region {
                Some(region) => Trunk::in_region(gid, cfg, obs, region),
                None => Trunk::with_obs(gid, cfg, obs),
            })
        }))
    }

    /// The trunk with global id `gid`, if this machine hosts it.
    pub fn trunk(&self, gid: u64) -> Option<Arc<Trunk>> {
        self.trunks.read().get(&gid).cloned()
    }

    /// Release a trunk (relocation off this machine). Returns the trunk so
    /// the caller can hand it to another machine or snapshot it.
    pub fn evict(&self, gid: u64) -> Option<Arc<Trunk>> {
        self.trunks.write().remove(&gid)
    }

    /// Global ids of all hosted trunks.
    pub fn trunk_ids(&self) -> Vec<u64> {
        self.trunks.read().keys().copied().collect()
    }

    /// All hosted trunks.
    pub fn trunks(&self) -> Vec<Arc<Trunk>> {
        self.trunks.read().values().cloned().collect()
    }

    /// Number of hosted trunks.
    pub fn trunk_count(&self) -> usize {
        self.trunks.read().len()
    }

    /// Total live cells across all trunks.
    pub fn cell_count(&self) -> usize {
        self.trunks().iter().map(|t| t.cell_count()).sum()
    }

    /// Machine-level aggregate statistics.
    pub fn stats(&self) -> TrunkStats {
        let mut total = TrunkStats::default();
        for t in self.trunks() {
            total.merge(&t.stats());
        }
        total
    }

    /// One synchronous daemon sweep: defragment every trunk above the dead
    /// ratio threshold. Returns the number of trunks compacted.
    pub fn defrag_sweep(&self) -> usize {
        let mut compacted = 0;
        for t in self.trunks() {
            if t.stats().dead_ratio() > DEFRAG_DEAD_RATIO {
                t.defragment();
                compacted += 1;
            }
        }
        compacted
    }
}

/// Background defragmentation daemon for one machine (paper §6.1).
///
/// Stops when dropped or when [`DefragDaemon::stop`] is called.
#[derive(Debug)]
pub struct DefragDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DefragDaemon {
    /// Spawn the daemon over `store`.
    pub fn spawn(store: Arc<LocalStore>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("trinity-defrag".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    store.defrag_sweep();
                    std::thread::park_timeout(DEFRAG_INTERVAL);
                }
            })
            .expect("spawn defrag daemon");
        DefragDaemon {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the daemon to exit and wait for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for DefragDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> LocalStoreConfig {
        LocalStoreConfig {
            trunk: TrunkConfig::small(),
        }
    }

    #[test]
    fn ensure_trunk_is_idempotent() {
        let s = LocalStore::new(small_cfg());
        let a = s.ensure_trunk(3);
        let b = s.ensure_trunk(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(s.trunk_count(), 1);
        assert_eq!(s.trunk_ids(), vec![3]);
    }

    #[test]
    fn evict_hands_the_trunk_out() {
        let a = LocalStore::new(small_cfg());
        let t = a.ensure_trunk(5);
        t.put(1, b"migrating cell").unwrap();
        let t = a.evict(5).expect("trunk present");
        assert_eq!(a.trunk_count(), 0);
        assert_eq!(t.get(1).unwrap().as_ref(), b"migrating cell");
    }

    #[test]
    fn defrag_sweep_targets_dirty_trunks() {
        let s = LocalStore::new(small_cfg());
        let t = s.ensure_trunk(0);
        for i in 0..50u64 {
            t.put(i, &[0u8; 64]).unwrap();
        }
        for i in 0..40u64 {
            t.remove(i).unwrap();
        }
        assert!(t.stats().dead_ratio() > DEFRAG_DEAD_RATIO);
        assert_eq!(s.defrag_sweep(), 1);
        assert_eq!(t.stats().dead_bytes, 0);
        // Clean trunk: nothing to do.
        assert_eq!(s.defrag_sweep(), 0);
    }

    #[test]
    fn daemon_compacts_in_background() {
        let s = Arc::new(LocalStore::new(small_cfg()));
        let t = s.ensure_trunk(0);
        for i in 0..50u64 {
            t.put(i, &[0u8; 64]).unwrap();
        }
        for i in 0..45u64 {
            t.remove(i).unwrap();
        }
        let daemon = DefragDaemon::spawn(Arc::clone(&s));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while t.stats().dead_bytes > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.stop();
        assert_eq!(t.stats().dead_bytes, 0, "daemon never compacted the trunk");
        for i in 45..50u64 {
            assert_eq!(t.get(i).unwrap().as_ref(), &[0u8; 64][..]);
        }
    }

    #[test]
    fn aggregate_stats_cover_all_trunks() {
        let s = LocalStore::new(small_cfg());
        s.ensure_trunk(0).put(1, &[0u8; 10]).unwrap();
        s.ensure_trunk(1).put(2, &[0u8; 20]).unwrap();
        let agg = s.stats();
        assert_eq!(agg.cell_count, 2);
        assert_eq!(agg.live_payload_bytes, 30);
        assert_eq!(s.cell_count(), 2);
    }
}
