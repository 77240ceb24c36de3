//! Pipelined trunk prefetch for out-of-core BSP (§5.4 + DESIGN.md §15).
//!
//! The residency model ([`crate::residency`]) observes that an offline
//! job only needs the *scheduled* bucket of the graph fully resident.
//! [`BucketPrefetcher`] is the mechanism: each machine's trunks are dealt
//! round-robin into `nbuckets` buckets (mirroring
//! [`BucketSchedule::round_robin`]), and superstep `s` computes over
//! bucket `s % nbuckets`. Hooked into the BSP runtime through
//! [`SuperstepHook`], the prefetcher:
//!
//! 1. pins the scheduled bucket **and** the next one (eviction never
//!    selects a pinned trunk — "never the trunk currently scheduled"),
//!    releasing the previous superstep's pins only after the new ones
//!    hold;
//! 2. faults the scheduled bucket's spilled trunks in with one bulk TFS
//!    read, counting `tier.prefetch_hits` (already resident — the
//!    pipeline worked) vs `tier.prefetch_misses` (compute had to wait);
//! 3. hands the *next* bucket's trunks to the machine's background
//!    fetcher thread, so bucket `i + 1`'s I/O overlaps bucket `i`'s
//!    compute. Each machine has one fetcher, started on first use and
//!    joined by [`BucketPrefetcher::release`]: once `release` returns no
//!    fetch is in flight or still to come.
//!
//! Type B state — message boxes, vertex runtime state, a BSP job's copy
//! of its out-lists — lives in the worker pool, not in cells, so it stays
//! resident throughout; only the Type A trunk images cycle through TFS.
//!
//! [`BucketSchedule::round_robin`]: crate::residency::BucketSchedule::round_robin

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use trinity_graph::DistributedGraph;
use trinity_memcloud::CloudNode;
use trinity_net::MachineId;

use crate::bsp::SuperstepHook;

/// One machine's background fetcher: a thread that faults in, in order,
/// every bucket sent to it, and exits when the sender is dropped.
struct Fetcher {
    jobs: Sender<Vec<u64>>,
    thread: JoinHandle<()>,
}

impl Fetcher {
    fn start(node: Arc<CloudNode>) -> Self {
        let (jobs, queue) = channel::<Vec<u64>>();
        let thread = std::thread::Builder::new()
            .name(format!("trinity-prefetch-{}", node.machine().0))
            .spawn(move || {
                for bucket in queue {
                    // Best effort: a trunk that fails to load here is
                    // faulted in (and its error surfaced) by the compute
                    // path's own `resident_trunk`.
                    let _ = node.fault_in_many(&bucket);
                }
            })
            .expect("spawn the prefetch thread");
        Fetcher { jobs, thread }
    }

    /// Let the fetcher finish what it was sent, then join it. False if
    /// the thread had panicked.
    fn finish(self) -> bool {
        drop(self.jobs);
        self.thread.join().is_ok()
    }
}

/// Schedule-driven trunk prefetcher; install via
/// [`BspConfig::superstep_hook`](crate::BspConfig::superstep_hook).
pub struct BucketPrefetcher {
    graph: Arc<DistributedGraph>,
    /// `buckets[m][b]` = trunks of machine `m` scheduled in bucket `b`.
    buckets: Vec<Vec<Vec<u64>>>,
    nbuckets: usize,
    /// Per machine: trunks pinned by the previous superstep's hook.
    pinned: Vec<Mutex<Vec<u64>>>,
    /// Per machine: the background fetcher, while one is running.
    fetchers: Vec<Mutex<Option<Fetcher>>>,
}

impl std::fmt::Debug for BucketPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketPrefetcher")
            .field("nbuckets", &self.nbuckets)
            .finish()
    }
}

impl BucketPrefetcher {
    /// Deal every machine's owned trunks round-robin into `nbuckets`
    /// buckets (at least 1). With `nbuckets == 1` the prefetcher
    /// degenerates to "pin everything once" — no pipelining, no spills
    /// of the working set.
    pub fn new(graph: Arc<DistributedGraph>, nbuckets: usize) -> Arc<Self> {
        let nbuckets = nbuckets.max(1);
        let machines = graph.machines();
        let table = graph.cloud().node(0).table();
        let mut buckets = vec![vec![Vec::new(); nbuckets]; machines];
        for (m, machine_buckets) in buckets.iter_mut().enumerate() {
            for (i, gid) in table.trunks_of(MachineId(m as u16)).into_iter().enumerate() {
                machine_buckets[i % nbuckets].push(gid);
            }
        }
        Arc::new(BucketPrefetcher {
            graph,
            buckets,
            nbuckets,
            pinned: (0..machines).map(|_| Mutex::new(Vec::new())).collect(),
            fetchers: (0..machines).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The trunks machine `m` computes over in superstep `s`.
    pub fn bucket(&self, m: usize, superstep: usize) -> &[u64] {
        &self.buckets[m][superstep % self.nbuckets]
    }

    /// Wait out every background fetch, then release every pin this
    /// prefetcher still holds. Call after the job finishes — otherwise the
    /// last scheduled buckets stay immune to eviction. A barrier: when it
    /// returns, this prefetcher moves no trunk until the next
    /// `superstep_start` (which starts the fetchers again). Dropping the
    /// prefetcher does the same.
    pub fn release(&self) {
        assert!(self.quiesce(), "a bucket prefetch thread panicked");
    }

    /// Join the fetchers, then drop the pins. False if a fetcher had
    /// panicked.
    fn quiesce(&self) -> bool {
        // Fetchers first: a fetch landing after its pins are gone would
        // bring trunks in that the next sweep is free to push out again.
        let mut clean = true;
        for fetcher in &self.fetchers {
            if let Some(fetcher) = fetcher.lock().take() {
                clean &= fetcher.finish();
            }
        }
        for (m, pins) in self.pinned.iter().enumerate() {
            let node = self.graph.cloud().node(m);
            for gid in pins.lock().drain(..) {
                node.unpin_trunk(gid);
            }
        }
        clean
    }
}

impl Drop for BucketPrefetcher {
    fn drop(&mut self) {
        // A fetcher's panic already printed; `drop` must not add one.
        self.quiesce();
    }
}

impl SuperstepHook for BucketPrefetcher {
    fn superstep_start(&self, machine: usize, superstep: usize) {
        let b = superstep % self.nbuckets;
        let node = Arc::clone(self.graph.cloud().node(machine));
        let cur = &self.buckets[machine][b];
        let nxt = &self.buckets[machine][(b + 1) % self.nbuckets];
        // Pin the new working set before releasing the old one, so a
        // concurrent budget sweep never catches the scheduled bucket
        // unpinned.
        let mut fresh: Vec<u64> = Vec::with_capacity(cur.len() + nxt.len());
        fresh.extend_from_slice(cur);
        if self.nbuckets > 1 {
            fresh.extend_from_slice(nxt);
        }
        for &gid in &fresh {
            node.pin_trunk(gid);
        }
        let stale = std::mem::replace(&mut *self.pinned[machine].lock(), fresh);
        for &gid in &stale {
            node.unpin_trunk(gid);
        }
        // The scheduled bucket must be resident before compute: count
        // hits vs misses, then fault the misses in with one bulk read.
        // A trunk mid-spill is left to the compute path's blocking turn.
        let mut missing = Vec::new();
        for &gid in cur {
            let hit = node.trunk_resident(gid);
            node.note_prefetch(hit);
            if !hit {
                missing.push(gid);
            }
        }
        if !missing.is_empty() {
            let _ = node.fault_in_many(&missing);
        }
        // Next bucket: load in the background while this one computes.
        if self.nbuckets > 1 && !nxt.is_empty() {
            let mut slot = self.fetchers[machine].lock();
            let fetcher = slot.get_or_insert_with(|| Fetcher::start(Arc::clone(&node)));
            // The receiver lives as long as the fetcher thread, which
            // only `release` ends — after taking it out of this slot.
            let _ = fetcher.jobs.send(nxt.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_graph::{load_graph, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// `release` is a barrier for the background fetch: the next bucket,
    /// handed to the fetcher by the hook an instant earlier, is resident
    /// by the time `release` returns — nothing is left to land later —
    /// and every pin is gone. The prefetcher keeps working afterwards.
    #[test]
    fn release_waits_for_the_background_fetch_and_drops_every_pin() {
        const MACHINES: usize = 2;
        const BUCKETS: usize = 4;
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(MACHINES)));
        let csr = trinity_graphgen::social(2_000, 6, 5);
        let graph =
            Arc::new(load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).expect("load"));
        let prefetcher = BucketPrefetcher::new(graph, BUCKETS);
        // Everything out of core: each bucket must come back through TFS.
        for node in cloud.nodes() {
            for gid in node.table().trunks_of(node.machine()) {
                assert!(node.spill_trunk(gid).expect("spill"));
            }
        }
        for round in 0..3 {
            for step in round * BUCKETS..(round + 1) * BUCKETS {
                for m in 0..MACHINES {
                    prefetcher.superstep_start(m, step);
                    prefetcher.release();
                    let node = cloud.node(m);
                    for (what, bucket) in [("scheduled", step), ("next", step + 1)] {
                        for &gid in prefetcher.bucket(m, bucket) {
                            assert!(
                                node.trunk_resident(gid),
                                "step {step}: {what} trunk {gid} not resident after release"
                            );
                        }
                    }
                    // Unpinned again: the scheduled bucket can leave.
                    for &gid in prefetcher.bucket(m, step) {
                        assert!(node.spill_trunk(gid).expect("spill"));
                    }
                }
            }
        }
        let stats = cloud.tier_stats();
        assert!(stats.faults > 0 && stats.clean_evictions > 0);
        drop(prefetcher);
        cloud.shutdown();
    }

    /// The bucket-scheduled scan of DESIGN §15, driven as the BSP runtime
    /// drives it (hook, then scan the scheduled bucket, all machines per
    /// superstep): fully resident and at budgets of 1.0x / 0.5x / 0.25x of
    /// the per-machine working set the checksum is bit-identical, and
    /// every scheduled trunk is counted exactly once as a prefetch hit or
    /// a miss.
    #[test]
    fn budget_sweep_keeps_the_checksum_and_counts_every_scheduled_trunk_once() {
        const MACHINES: usize = 4;
        const BUCKETS: usize = 4;
        const SUPERSTEPS: usize = 12;
        let csr = trinity_graphgen::social(4_000, 8, 7);
        let run = |budget_factor: Option<f64>| -> u64 {
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(MACHINES)));
            let graph = Arc::new(
                load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).expect("load"),
            );
            if let Some(factor) = budget_factor {
                let working_set = cloud
                    .nodes()
                    .iter()
                    .map(|n| {
                        let trunks = n.store().trunks();
                        trunks.iter().map(|t| t.stats().used_bytes as u64).sum()
                    })
                    .max()
                    .unwrap_or(0u64);
                cloud.set_memory_budget((working_set as f64 * factor) as u64);
            }
            let prefetcher = BucketPrefetcher::new(graph, BUCKETS);
            let mut checksum = 0u64;
            let mut scheduled = 0u64;
            for s in 0..SUPERSTEPS {
                let sums: Vec<u64> = std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..MACHINES)
                        .map(|m| {
                            let (cloud, prefetcher) = (&cloud, &prefetcher);
                            scope.spawn(move || {
                                prefetcher.superstep_start(m, s);
                                let mut sum = 0u64;
                                for &gid in prefetcher.bucket(m, s) {
                                    let trunk = cloud
                                        .node(m)
                                        .resident_trunk(gid)
                                        .expect("scheduled trunk must fault in");
                                    trunk.for_each_cell(|id, payload| {
                                        let mut h = id ^ 0xcbf2_9ce4_8422_2325;
                                        for &b in payload {
                                            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
                                        }
                                        sum = sum.wrapping_add(h);
                                    });
                                }
                                sum
                            })
                        })
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).collect()
                });
                checksum = sums.into_iter().fold(checksum, u64::wrapping_add);
                scheduled += (0..MACHINES)
                    .map(|m| prefetcher.bucket(m, s).len() as u64)
                    .sum::<u64>();
            }
            prefetcher.release();
            let stats = cloud.tier_stats();
            assert_eq!(
                stats.prefetch_hits + stats.prefetch_misses,
                scheduled,
                "budget {budget_factor:?}: a scheduled trunk was counted twice or not at all"
            );
            if budget_factor.is_some_and(|f| f < 1.0) {
                assert!(
                    stats.faults > 0,
                    "budget {budget_factor:?} never went out of core"
                );
            }
            cloud.shutdown();
            checksum
        };
        let resident = run(None);
        for factor in [1.0, 0.5, 0.25] {
            assert_eq!(
                run(Some(factor)),
                resident,
                "tiering changed the answer at budget {factor}x"
            );
        }
    }
}
