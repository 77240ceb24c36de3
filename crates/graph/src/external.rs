//! External-storage integration (paper §4.2).
//!
//! "TSL facilitates data integration... This enables us to store graph
//! topology and some critical data in Trinity's memory cloud, while
//! leaving other rich information (such as images) on disk. This further
//! enables transparent query processing over memory cloud and RDBMSs...
//! and automatic data conversion between memory cloud and external data
//! sources."
//!
//! [`ExternalStore`] is the interface to such a source; [`SimRdbms`] is
//! the simulated disk-resident DBMS (row store with configurable access
//! latency and op counters, so tests can *prove* the hot path never
//! touches it). [`HybridHandle`] overlays an external store on a
//! [`GraphHandle`]: topology and critical attributes come from the memory
//! cloud, rich columns are fetched transparently — with a small
//! memory-cloud-side cache, because the paper's architecture treats the
//! cloud as the materialized fast tier.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::handle::GraphHandle;
use crate::CellId;

/// A slow external data source addressed by (cell id, column).
pub trait ExternalStore: Send + Sync {
    /// Fetch one column of one entity.
    fn fetch(&self, id: CellId, column: &str) -> Option<Vec<u8>>;
    /// Store one column of one entity.
    fn store(&self, id: CellId, column: &str, bytes: &[u8]);
}

/// A simulated disk-backed RDBMS: correct, slow, and instrumented.
pub struct SimRdbms {
    rows: Mutex<HashMap<(CellId, String), Vec<u8>>>,
    /// Simulated per-access latency (a disk seek / SQL round trip).
    latency: Duration,
    fetches: AtomicU64,
}

impl std::fmt::Debug for SimRdbms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRdbms")
            .field("latency", &self.latency)
            .finish()
    }
}

impl SimRdbms {
    /// A DBMS with the given per-access latency.
    pub fn new(latency: Duration) -> Arc<Self> {
        Arc::new(SimRdbms {
            rows: Mutex::new(HashMap::new()),
            latency,
            fetches: AtomicU64::new(0),
        })
    }

    /// How many fetches hit the external store (cache misses).
    pub fn fetch_count(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

impl ExternalStore for SimRdbms {
    fn fetch(&self, id: CellId, column: &str) -> Option<Vec<u8>> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        self.rows.lock().get(&(id, column.to_string())).cloned()
    }

    fn store(&self, id: CellId, column: &str, bytes: &[u8]) {
        self.rows
            .lock()
            .insert((id, column.to_string()), bytes.to_vec());
    }
}

/// Cache key: (cell, column name).
type ColumnKey = (CellId, String);

/// A graph handle with a transparent rich-data tier behind it.
pub struct HybridHandle {
    handle: GraphHandle,
    external: Arc<dyn ExternalStore>,
    /// Memory-cloud-side cache of fetched rich columns (the paper's
    /// "materialized in Trinity" fast path).
    cache: Mutex<HashMap<ColumnKey, Arc<Vec<u8>>>>,
    cache_hits: AtomicU64,
}

impl std::fmt::Debug for HybridHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridHandle")
            .field("machine", &self.handle.machine())
            .finish()
    }
}

impl HybridHandle {
    /// Overlay `external` on a graph handle.
    pub fn new(handle: GraphHandle, external: Arc<dyn ExternalStore>) -> Self {
        HybridHandle {
            handle,
            external,
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// The in-memory graph handle (topology + critical attributes: always
    /// served from the memory cloud, never from the external source).
    pub fn graph(&self) -> &GraphHandle {
        &self.handle
    }

    /// Transparently read a rich column: memory-cloud cache first, then
    /// the external store.
    pub fn rich(&self, id: CellId, column: &str) -> Option<Arc<Vec<u8>>> {
        let key = (id, column.to_string());
        if let Some(hit) = self.cache.lock().get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(hit));
        }
        let bytes = Arc::new(self.external.fetch(id, column)?);
        self.cache.lock().insert(key, Arc::clone(&bytes));
        Some(bytes)
    }

    /// Write a rich column through to the external store (and refresh the
    /// cache — "automatic data conversion between memory cloud and
    /// external data sources").
    pub fn put_rich(&self, id: CellId, column: &str, bytes: &[u8]) {
        self.external.store(id, column, bytes);
        self.cache
            .lock()
            .insert((id, column.to_string()), Arc::new(bytes.to_vec()));
    }

    /// Cache hits observed (fast-tier effectiveness).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Drop the cached copies (e.g. under memory pressure; the next read
    /// transparently refetches).
    pub fn evict_cache(&self) {
        self.cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load_graph, LoadOptions};
    use crate::Csr;
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    fn setup() -> (Arc<MemoryCloud>, HybridHandle, Arc<SimRdbms>) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let edges: Vec<(u64, u64)> = (0..19u64).map(|v| (v, v + 1)).collect();
        let csr = Csr::undirected_from_edges(20, &edges, true);
        let graph = load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap();
        let rdbms = SimRdbms::new(Duration::ZERO);
        for v in 0..20u64 {
            rdbms.store(v, "bio", format!("long biography of person {v}").as_bytes());
        }
        let fetches_from_seeding = rdbms.fetch_count();
        assert_eq!(fetches_from_seeding, 0);
        let hybrid = HybridHandle::new(
            graph.handle(0).clone(),
            Arc::clone(&rdbms) as Arc<dyn ExternalStore>,
        );
        (cloud, hybrid, rdbms)
    }

    #[test]
    fn topology_traversal_never_touches_the_external_store() {
        let (cloud, hybrid, rdbms) = setup();
        // Walk the whole path graph through the memory cloud.
        let mut at = 0u64;
        let mut visited = 1;
        let mut prev = u64::MAX;
        while let Some(outs) = hybrid.graph().out_neighbors(at).unwrap() {
            match outs.iter().copied().find(|&n| n != prev) {
                Some(next) => {
                    prev = at;
                    at = next;
                    visited += 1;
                }
                None => break,
            }
        }
        assert_eq!(visited, 20);
        assert_eq!(
            rdbms.fetch_count(),
            0,
            "traversal must be pure memory-cloud"
        );
        cloud.shutdown();
    }

    #[test]
    fn rich_data_is_fetched_transparently_and_cached() {
        let (cloud, hybrid, rdbms) = setup();
        let bio = hybrid.rich(7, "bio").unwrap();
        assert_eq!(&**bio, b"long biography of person 7");
        assert_eq!(rdbms.fetch_count(), 1);
        // Second read: served from the fast tier.
        let again = hybrid.rich(7, "bio").unwrap();
        assert_eq!(bio, again);
        assert_eq!(rdbms.fetch_count(), 1, "cache must absorb the repeat");
        assert_eq!(hybrid.cache_hits(), 1);
        // Eviction forces a refetch.
        hybrid.evict_cache();
        hybrid.rich(7, "bio").unwrap();
        assert_eq!(rdbms.fetch_count(), 2);
        // Absent column: None, and counted as an external miss.
        assert!(hybrid.rich(7, "avatar").is_none());
        cloud.shutdown();
    }

    #[test]
    fn writes_go_through_and_refresh_the_cache() {
        let (cloud, hybrid, rdbms) = setup();
        hybrid.rich(3, "bio").unwrap();
        hybrid.put_rich(3, "bio", b"updated bio");
        // Cached copy reflects the write without an external fetch.
        let fetches = rdbms.fetch_count();
        assert_eq!(&**hybrid.rich(3, "bio").unwrap(), b"updated bio");
        assert_eq!(rdbms.fetch_count(), fetches);
        // And the external store holds it durably.
        assert_eq!(rdbms.fetch(3, "bio").unwrap(), b"updated bio");
        cloud.shutdown();
    }

    #[test]
    fn simulated_latency_makes_the_fast_tier_measurably_faster() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let csr = Csr::undirected_from_edges(4, &[(0, 1)], true);
        let graph = load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap();
        let rdbms = SimRdbms::new(Duration::from_millis(5));
        rdbms.store(0, "blob", b"payload");
        let hybrid = HybridHandle::new(
            graph.handle(0).clone(),
            Arc::clone(&rdbms) as Arc<dyn ExternalStore>,
        );
        let t0 = std::time::Instant::now();
        hybrid.rich(0, "blob").unwrap();
        let cold = t0.elapsed();
        let t0 = std::time::Instant::now();
        hybrid.rich(0, "blob").unwrap();
        let warm = t0.elapsed();
        assert!(cold >= Duration::from_millis(5));
        assert!(warm < cold / 2, "warm {warm:?} vs cold {cold:?}");
        cloud.shutdown();
    }
}
