//! Cluster-level assembly of the memory cloud.
//!
//! [`MemoryCloud`] brings up the whole simulated deployment: the network
//! fabric, the TFS deployment, one [`CloudNode`] per machine, and the
//! initial addressing table (persisted to TFS as the primary replica). It
//! also exposes the mechanical halves of the paper's reconfiguration
//! protocols — kill/recover/revive — which `trinity-core` orchestrates
//! with leader election and liveness probes on top; joining a machine is
//! `trinity-elastic`'s online migration.

use std::sync::Arc;

use trinity_memstore::{LocalStoreConfig, TrunkConfig};
use trinity_net::{CostModel, Fabric, FabricConfig, FaultPlan, MachineId};
use trinity_tfs::{Tfs, TfsConfig};

use crate::node::CloudNode;
use crate::table::{AddressingTable, TFS_TABLE_PATH};
use crate::Result;

/// Deployment shape of a memory cloud.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Number of machines (Trinity slaves).
    pub machines: usize,
    /// Per-machine trunk storage configuration.
    pub store: LocalStoreConfig,
    /// TFS deployment backing the cloud.
    pub tfs: TfsConfig,
    /// Network cost model for modeled time reporting.
    pub cost: CostModel,
    /// Handler worker threads per machine.
    pub workers_per_machine: usize,
    /// Additional fabric endpoints beyond the slaves — Trinity proxies and
    /// clients (paper Figure 1) attach here. They carry no trunks and no
    /// addressing-table slots.
    pub extra_machines: usize,
    /// Synchronous-call timeout. It also bounds each of the recovery
    /// leader's `PING` probes, which is why recovery tests shorten it.
    pub call_timeout: std::time::Duration,
    /// Standby slaves: fully provisioned machines that own no trunks
    /// until a join — `trinity-elastic`'s `MigrationEngine::join_machine`
    /// — streams a fair share onto them (the paper's dynamic join, §3).
    pub standby_machines: usize,
    /// Fault-injection plan for the fabric (`None` = fault-free). The
    /// chaos harness sets this to run whole workloads under seeded
    /// network misbehaviour.
    pub faults: Option<FaultPlan>,
    /// Per-machine remote-read cache capacity in entries; 0 disables the
    /// cache (and with it the sharer tracking and invalidation traffic).
    /// Must be uniform across the cloud — the coherence protocol skips
    /// machines entirely when the cache is off.
    pub cache_capacity: usize,
}

impl CloudConfig {
    /// A production-shaped config with default trunk sizes.
    pub fn new(machines: usize) -> Self {
        CloudConfig {
            machines,
            store: LocalStoreConfig::default(),
            tfs: TfsConfig {
                nodes: machines.max(3),
                replication: 3.min(machines.max(2)),
            },
            cost: CostModel::default(),
            workers_per_machine: 4,
            extra_machines: 0,
            call_timeout: std::time::Duration::from_secs(10),
            standby_machines: 0,
            faults: None,
            cache_capacity: 4096,
        }
    }

    /// A small config for tests and doc examples (tiny trunks).
    pub fn small(machines: usize) -> Self {
        CloudConfig {
            store: LocalStoreConfig {
                trunk: TrunkConfig::small(),
            },
            ..CloudConfig::new(machines)
        }
    }
}

/// A running memory cloud: fabric + TFS + one node per machine.
pub struct MemoryCloud {
    fabric: Arc<Fabric>,
    tfs: Tfs,
    nodes: Vec<Arc<CloudNode>>,
}

impl std::fmt::Debug for MemoryCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryCloud")
            .field("machines", &self.nodes.len())
            .finish()
    }
}

impl MemoryCloud {
    /// Bring up a memory cloud.
    pub fn new(cfg: CloudConfig) -> Self {
        let slaves = cfg.machines + cfg.standby_machines;
        let fabric = Fabric::new(FabricConfig {
            machines: slaves + cfg.extra_machines,
            workers_per_machine: cfg.workers_per_machine,
            cost: cfg.cost,
            call_timeout: cfg.call_timeout,
            faults: cfg.faults,
            ..FabricConfig::with_machines(slaves + cfg.extra_machines)
        });
        let tfs = Tfs::new(cfg.tfs);
        // 2^(ceil(log2 m) + 3) trunks, so every machine hosts ~8.
        let p_bits = (cfg.machines.next_power_of_two().trailing_zeros() + 3).max(4);
        let table = AddressingTable::round_robin(p_bits, cfg.machines);
        // Persist the primary replica before the cloud serves traffic.
        tfs.write(TFS_TABLE_PATH, &table.encode())
            .expect("persist initial addressing table");
        let nodes = (0..slaves)
            .map(|m| {
                CloudNode::start(
                    fabric.endpoint(MachineId(m as u16)),
                    cfg.store.clone(),
                    tfs.clone(),
                    table.clone(),
                    cfg.cache_capacity,
                )
            })
            .collect();
        MemoryCloud { fabric, tfs, nodes }
    }

    /// Set every machine's resident-memory budget in bytes (0, the state
    /// a cloud starts in, is unlimited: no trunk tiering) and enforce it
    /// immediately. With a budget set, each node spills its coldest
    /// trunks' sealed images to TFS whenever resident bytes exceed it,
    /// and faults them back in on access — graphs larger than RAM at the
    /// cost of TFS round-trips on cold reads (DESIGN.md §15). Enforcement
    /// failures are best-effort at this level — a machine that cannot
    /// reach TFS simply stays over budget until its next sweep.
    pub fn set_memory_budget(&self, bytes: u64) {
        for n in &self.nodes {
            let _ = n.set_memory_budget(bytes);
        }
    }

    /// Cluster-wide aggregate of the per-machine `tier.*` counters.
    pub fn tier_stats(&self) -> crate::TierStats {
        let mut total = crate::TierStats::default();
        for n in &self.nodes {
            let s = n.tier_stats();
            total.spills += s.spills;
            total.spill_bytes += s.spill_bytes;
            total.clean_evictions += s.clean_evictions;
            total.faults += s.faults;
            total.region_reuses += s.region_reuses;
            total.fault_bytes += s.fault_bytes;
            total.prefetch_hits += s.prefetch_hits;
            total.prefetch_misses += s.prefetch_misses;
            total.spilled_trunks += s.spilled_trunks;
            total.resident_bytes += s.resident_bytes;
        }
        total
    }

    /// The primary table from TFS plus its file version, for a
    /// conditional (compare-and-swap) table update.
    fn primary_versioned(&self) -> Result<(u64, AddressingTable)> {
        let (ver, bytes) = self.tfs.read_versioned(TFS_TABLE_PATH)?;
        let table = AddressingTable::decode(&bytes).ok_or(crate::CloudError::BadReply)?;
        Ok((ver, table))
    }

    /// The node running on machine `m`.
    pub fn node(&self, m: usize) -> &Arc<CloudNode> {
        &self.nodes[m]
    }

    /// All nodes in machine order.
    pub fn nodes(&self) -> &[Arc<CloudNode>] {
        &self.nodes
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.nodes.len()
    }

    /// The underlying fabric (for stats, cost model, failure injection).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The backing TFS deployment.
    pub fn tfs(&self) -> &Tfs {
        &self.tfs
    }

    /// Total live cells across the cloud.
    pub fn total_cells(&self) -> usize {
        self.nodes.iter().map(|n| n.store().cell_count()).sum()
    }

    /// Cluster-wide aggregate of the per-machine remote-read caches.
    pub fn cache_stats(&self) -> crate::CacheStats {
        let mut total = crate::CacheStats::default();
        for n in &self.nodes {
            let s = n.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
            total.prefetch_errors += s.prefetch_errors;
            total.entries += s.entries;
        }
        total
    }

    /// Persist every live machine's trunks to TFS. Dead machines are
    /// skipped — their in-memory state is gone by definition, and their
    /// stale trunk objects must not overwrite survivors' snapshots.
    pub fn backup_all(&self) -> Result<()> {
        for (m, n) in self.nodes.iter().enumerate() {
            if self.fabric.is_dead(MachineId(m as u16)) {
                continue;
            }
            n.backup_all()?;
        }
        Ok(())
    }

    /// Kill a machine at the fabric level (it stops serving; its memory is
    /// gone). Recovery is a separate step — see [`MemoryCloud::recover`].
    pub fn kill_machine(&self, m: usize) {
        self.fabric.kill(MachineId(m as u16));
    }

    /// Bring a previously killed machine back as a blank standby. Its
    /// soft state (cache, sharers, migration books) is dropped and its
    /// addressing-table replica refreshed from the TFS primary *before*
    /// it serves again — a revived machine must not answer for trunks
    /// that were reassigned while it was down, nor serve cells it cached
    /// before dying.
    pub fn revive_machine(&self, m: usize) -> Result<()> {
        self.fabric.revive(MachineId(m as u16));
        self.nodes[m].refresh_after_revive()
    }

    /// Mechanically recover from the failure of machine `m`: reassign its
    /// trunks to survivors, persist the new primary table to TFS, and
    /// install it on every live node (which reloads the reassigned trunks
    /// from their TFS backups). In the full system this runs on the
    /// elected leader (`trinity-core::recovery`); tests may call it
    /// directly.
    pub fn recover(&self, failed: usize) -> Result<AddressingTable> {
        let failed = MachineId(failed as u16);
        let survivors: Vec<MachineId> = (0..self.nodes.len() as u16)
            .map(MachineId)
            .filter(|&m| m != failed && !self.fabric.is_dead(m))
            .collect();
        let table = loop {
            let (ver, mut table) = self.primary_versioned()?;
            if !table.trunks_of(failed).is_empty() {
                table.reassign_failed(failed, &survivors);
                match self
                    .tfs
                    .write_if_version(TFS_TABLE_PATH, &table.encode(), ver)
                {
                    Ok(_) => break table,
                    // An in-flight migration flip (or a second recovery)
                    // wrote the table between our read and write; redo
                    // the reassignment against the fresh primary so
                    // neither update is clobbered.
                    Err(trinity_tfs::TfsError::VersionMismatch { .. }) => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            break table;
        };
        for &m in &survivors {
            self.nodes[m.0 as usize].install_table(table.clone())?;
        }
        Ok(table)
    }

    /// Stop the fabric.
    pub fn shutdown(&self) {
        self.fabric.shutdown();
    }
}

impl Drop for MemoryCloud {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_on_one_machine_get_on_another() {
        let cloud = MemoryCloud::new(CloudConfig::small(4));
        let id = cloud.node(0).alloc_id();
        cloud.node(0).put(id, b"cross-machine cell").unwrap();
        for m in 0..4 {
            assert_eq!(
                cloud.node(m).get(id).unwrap().as_deref(),
                Some(&b"cross-machine cell"[..]),
                "machine {m} could not read the cell"
            );
            assert!(cloud.node(m).contains(id).unwrap());
        }
        cloud.shutdown();
    }

    #[test]
    fn ids_from_different_machines_never_collide() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        let mut ids = std::collections::HashSet::new();
        for m in 0..3 {
            for _ in 0..100 {
                assert!(ids.insert(cloud.node(m).alloc_id()));
            }
        }
        cloud.shutdown();
    }

    #[test]
    fn update_append_remove_across_machines() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        let id = cloud.node(1).alloc_id();
        cloud.node(1).put(id, b"base").unwrap();
        assert!(cloud.node(2).append(id, b"+more").unwrap());
        assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"base+more");
        cloud.node(0).put(id, b"replaced").unwrap();
        assert_eq!(cloud.node(1).get(id).unwrap().unwrap(), b"replaced");
        assert!(cloud.node(2).remove(id).unwrap());
        assert_eq!(cloud.node(0).get(id).unwrap(), None);
        assert!(
            !cloud.node(1).remove(id).unwrap(),
            "double remove reports absence"
        );
        cloud.shutdown();
    }

    #[test]
    fn cells_spread_over_all_machines() {
        let cloud = MemoryCloud::new(CloudConfig::small(4));
        for i in 0..400u64 {
            cloud.node(0).put(i, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(cloud.total_cells(), 400);
        for m in 0..4 {
            let local = cloud.node(m).store().cell_count();
            assert!(local > 40, "machine {m} holds only {local} of 400 cells");
        }
        cloud.shutdown();
    }

    #[test]
    fn machine_failure_recovery_restores_backed_up_data() {
        let cloud = MemoryCloud::new(CloudConfig::small(4));
        for i in 0..200u64 {
            cloud
                .node(0)
                .put(i, format!("cell-{i}").as_bytes())
                .unwrap();
        }
        cloud.backup_all().unwrap();
        cloud.kill_machine(2);
        cloud.recover(2).unwrap();
        for i in 0..200u64 {
            let v = cloud.node(0).get(i).unwrap();
            assert_eq!(
                v.as_deref(),
                Some(format!("cell-{i}").as_bytes()),
                "cell {i} lost after recovery"
            );
        }
        // The dead machine hosts nothing in the new table.
        assert!(cloud.node(0).table().trunks_of(MachineId(2)).is_empty());
        cloud.shutdown();
    }

    #[test]
    fn stale_replica_self_heals_through_tfs_sync() {
        let cloud = MemoryCloud::new(CloudConfig::small(4));
        for i in 0..100u64 {
            cloud.node(0).put(i, b"x").unwrap();
        }
        cloud.backup_all().unwrap();
        cloud.kill_machine(3);
        // Recover but only install the table on machines 0..=1; machine 2
        // keeps a stale replica and must self-heal on first failed access.
        let failed = MachineId(3);
        let survivors = vec![MachineId(0), MachineId(1), MachineId(2)];
        let mut table = cloud.node(0).table();
        table.reassign_failed(failed, &survivors);
        cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
        cloud.node(0).install_table(table.clone()).unwrap();
        cloud.node(1).install_table(table).unwrap();
        // Machine 2 still routes some ids to dead machine 3; the access
        // path must sync and retry transparently.
        for i in 0..100u64 {
            assert_eq!(
                cloud.node(2).get(i).unwrap().as_deref(),
                Some(&b"x"[..]),
                "cell {i}"
            );
        }
        cloud.shutdown();
    }

    #[test]
    fn unbacked_data_is_lost_but_cloud_stays_available() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        for i in 0..60u64 {
            cloud.node(0).put(i, b"volatile").unwrap();
        }
        // No backup_all: a failure loses the dead machine's cells.
        let lost_on_1: Vec<u64> = (0..60)
            .filter(|&i| cloud.node(0).table().machine_of(i) == MachineId(1))
            .collect();
        assert!(!lost_on_1.is_empty());
        cloud.kill_machine(1);
        cloud.recover(1).unwrap();
        for i in 0..60u64 {
            let v = cloud.node(0).get(i).unwrap();
            if lost_on_1.contains(&i) {
                assert_eq!(v, None, "cell {i} should have died with machine 1");
            } else {
                assert_eq!(v.as_deref(), Some(&b"volatile"[..]));
            }
        }
        // And the cloud accepts new writes to the reassigned trunks.
        for i in 0..60u64 {
            cloud.node(2).put(1000 + i, b"fresh").unwrap();
        }
        cloud.shutdown();
    }

    /// First id whose owner is none of the given machines.
    fn id_remote_to(cloud: &MemoryCloud, machines: &[u16]) -> u64 {
        let table = cloud.node(0).table();
        (0u64..)
            .find(|&i| {
                let m = table.machine_of(i);
                machines.iter().all(|&x| m != MachineId(x))
            })
            .unwrap()
    }

    #[test]
    fn cached_remote_reads_skip_the_fabric() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        let id = id_remote_to(&cloud, &[0]);
        cloud.node(0).put(id, b"hot cell").unwrap();
        // The write populated the writer's cache; repeated reads are local.
        let before = cloud.fabric().total_stats();
        for _ in 0..50 {
            assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"hot cell");
        }
        let delta = before.delta_to(&cloud.fabric().total_stats());
        assert_eq!(
            delta.remote_envelopes, 0,
            "cached reads must not touch the fabric"
        );
        assert!(cloud.node(0).cache_stats().hits >= 50);
        cloud.shutdown();
    }

    #[test]
    fn write_invalidates_remote_caches_before_acking() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        // A cell remote to both the reader (0) and the writer (1).
        let id = id_remote_to(&cloud, &[0, 1]);
        cloud.node(1).put(id, b"v1").unwrap();
        assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"v1");
        // The ack of this write implies node 0's copy is gone.
        cloud.node(1).put(id, b"v2").unwrap();
        assert_eq!(
            cloud.node(0).get(id).unwrap().unwrap(),
            b"v2",
            "stale read after an acknowledged write"
        );
        assert!(cloud.node(0).cache_stats().invalidations >= 1);
        // Appends and removes propagate the same way.
        assert!(cloud.node(1).append(id, b"+x").unwrap());
        assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"v2+x");
        assert!(cloud.node(1).remove(id).unwrap());
        assert_eq!(cloud.node(0).get(id).unwrap(), None);
        cloud.shutdown();
    }

    #[test]
    fn multi_get_uses_one_envelope_per_destination() {
        let cloud = MemoryCloud::new(CloudConfig::small(4));
        let ids: Vec<u64> = (0..64).collect();
        for &i in &ids {
            cloud.node(1).put(i, &i.to_le_bytes()).unwrap();
        }
        let reader = cloud.node(0);
        reader.clear_cache();
        let before = cloud.fabric().total_stats();
        let got = reader.multi_get(&ids).unwrap();
        let delta = before.delta_to(&cloud.fabric().total_stats());
        for (i, v) in ids.iter().zip(&got) {
            assert_eq!(v.as_deref(), Some(&i.to_le_bytes()[..]), "cell {i}");
        }
        // One request + one reply envelope per remote machine, not per cell.
        assert!(
            delta.remote_envelopes <= 6,
            "{} envelopes for a batched read across 3 remote machines",
            delta.remote_envelopes
        );
        // The batch warmed the cache: re-reading every cell is free.
        let before = cloud.fabric().total_stats();
        for &i in &ids {
            assert!(reader.get(i).unwrap().is_some());
        }
        let delta = before.delta_to(&cloud.fabric().total_stats());
        assert_eq!(delta.remote_envelopes, 0);
        cloud.shutdown();
    }

    #[test]
    fn multi_get_overlaps_its_owners_round_trips() {
        // Every remote envelope takes 100 ms, so one round trip is 200 ms
        // and asking three owners one after another would take 600.
        let cloud = MemoryCloud::new(CloudConfig {
            faults: Some(FaultPlan::new(3).with_delay(1.0, 100_000, 0)),
            ..CloudConfig::small(4)
        });
        cloud.fabric().chaos_arm(false);
        let table = cloud.node(0).table();
        let ids: Vec<u64> = (1..4)
            .map(|m| {
                (0u64..)
                    .find(|&i| table.machine_of(i) == MachineId(m))
                    .unwrap()
            })
            .collect();
        for &id in &ids {
            cloud.node(0).put(id, &id.to_le_bytes()).unwrap();
        }
        let reader = cloud.node(0);
        reader.clear_cache();
        cloud.fabric().chaos_arm(true);
        let started = std::time::Instant::now();
        let got = reader.multi_get(&ids).unwrap();
        let took = started.elapsed();
        for (id, v) in ids.iter().zip(&got) {
            assert_eq!(v.as_deref(), Some(&id.to_le_bytes()[..]), "cell {id}");
        }
        assert!(
            took < std::time::Duration::from_millis(400),
            "{took:?} for 3 owners"
        );
        cloud.shutdown();
    }

    #[test]
    fn multi_get_reports_missing_cells() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        cloud.node(0).put(7, b"present").unwrap();
        let got = cloud.node(1).multi_get(&[7, 1_000_007]).unwrap();
        assert_eq!(got[0].as_deref(), Some(&b"present"[..]));
        assert_eq!(got[1], None);
        cloud.shutdown();
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let cloud = MemoryCloud::new(CloudConfig {
            cache_capacity: 0,
            ..CloudConfig::small(3)
        });
        let id = id_remote_to(&cloud, &[0]);
        cloud.node(0).put(id, b"x").unwrap();
        let before = cloud.fabric().total_stats();
        for _ in 0..10 {
            assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"x");
        }
        let delta = before.delta_to(&cloud.fabric().total_stats());
        assert!(
            delta.remote_envelopes >= 10,
            "disabled cache must fetch every read"
        );
        assert_eq!(cloud.cache_stats(), crate::CacheStats::default());
        cloud.shutdown();
    }

    #[test]
    fn revived_machine_refreshes_table_before_serving() {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        for i in 0..120u64 {
            cloud.node(0).put(i, b"old").unwrap();
        }
        cloud.backup_all().unwrap();
        // Warm machine 2's cache with remote cells so a stale revival
        // would have something to answer from.
        for i in 0..120u64 {
            cloud.node(2).get(i).unwrap();
        }
        cloud.kill_machine(2);
        cloud.recover(2).unwrap();
        // The cluster moves on while 2 is dead: every cell is rewritten
        // through the post-recovery table.
        for i in 0..120u64 {
            cloud.node(0).put(i, b"new").unwrap();
        }
        cloud.revive_machine(2).unwrap();
        // The revived machine owns nothing (recovery reassigned its
        // trunks), must not answer from its pre-death trunks or cache,
        // and routes every read to the current owners.
        assert!(cloud.node(2).table().trunks_of(MachineId(2)).is_empty());
        for i in 0..120u64 {
            assert_eq!(
                cloud.node(2).get(i).unwrap().as_deref(),
                Some(&b"new"[..]),
                "cell {i} served stale after revival"
            );
        }
        // And remote writers never land on the revived husk: a write
        // through it routes to the current owner and reads back anywhere.
        cloud.node(2).put(7, b"post-revival").unwrap();
        assert_eq!(cloud.node(1).get(7).unwrap().unwrap(), b"post-revival");
        cloud.shutdown();
    }

    #[test]
    fn concurrent_mixed_workload() {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(4)));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let cloud = Arc::clone(&cloud);
            handles.push(std::thread::spawn(move || {
                let node = Arc::clone(cloud.node(t));
                for i in 0..200u64 {
                    let id = (t as u64) << 32 | i;
                    node.put(id, &id.to_le_bytes()).unwrap();
                    if i % 3 == 0 {
                        assert_eq!(node.get(id).unwrap().unwrap(), id.to_le_bytes());
                    }
                    if i % 7 == 0 {
                        node.remove(id).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        cloud.shutdown();
    }
}
