//! The benchmark's own accounting model: what the measured traffic would
//! cost on a real cluster, and how many bytes the system holds per byte
//! of user payload.

use trinity_graph::Csr;
use trinity_memcloud::{MemoryCloud, TierStats};
use trinity_net::{CostModel, StatsDelta};
use trinity_tfs::Tfs;

/// Trunk images moved between machines and TFS over some window. TFS is
/// an in-process map here; on a real cluster it is a distributed file
/// system, so every spilled image crosses the network once per replica
/// and every fault-in reads it back once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TfsTraffic {
    pub writes: u64,
    pub write_bytes: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub replication: u64,
}

impl TfsTraffic {
    /// Trunk-image traffic between two tier-counter readings.
    pub fn between(before: &TierStats, after: &TierStats, replication: usize) -> Self {
        TfsTraffic {
            writes: after.spills - before.spills,
            write_bytes: after.spill_bytes - before.spill_bytes,
            reads: after.faults - before.faults,
            read_bytes: after.fault_bytes - before.fault_bytes,
            replication: replication as u64,
        }
    }

    fn transfers(&self) -> u64 {
        self.writes * self.replication + self.reads
    }

    fn bytes(&self) -> u64 {
        self.write_bytes * self.replication + self.read_bytes
    }
}

/// Network seconds a gigabit-Ethernet cluster would add for this traffic:
/// 100 µs per remote transfer plus bytes at 125 MB/s. Wall time on the
/// simulated fabric never shows this cost.
pub fn net_model_seconds(fabric: &StatsDelta, tfs: &TfsTraffic) -> f64 {
    CostModel::gigabit_ethernet().seconds(
        fabric.remote_envelopes + tfs.transfers(),
        fabric.remote_bytes + tfs.bytes(),
    )
}

/// Bytes held by every TFS replica of every file.
pub fn tfs_bytes_stored(tfs: &Tfs) -> u64 {
    tfs.list("")
        .iter()
        .map(|name| {
            let len = tfs.read(name).map_or(0, |b| b.len() as u64);
            len * tfs.placement(name).len() as u64
        })
        .sum()
}

/// Everything the system holds: the bytes committed by every machine's
/// resident trunks plus every TFS replica.
pub fn stored_bytes(cloud: &MemoryCloud) -> u64 {
    let committed: u64 = cloud
        .nodes()
        .iter()
        .map(|n| n.store().stats().committed_bytes as u64)
        .sum();
    committed + tfs_bytes_stored(cloud.tfs())
}

/// `stored_bytes` per user payload byte, right now.
pub fn space_amp(cloud: &MemoryCloud, user_bytes: u64) -> f64 {
    stored_bytes(cloud) as f64 / user_bytes.max(1) as f64
}

/// Encoded size of a graph node cell without in-links: flag byte, two
/// length words, attribute bytes, 8 bytes per out-neighbour. The
/// benchmark counts user bytes itself rather than asking the store.
pub fn node_record_len(attr_len: usize, out_degree: usize) -> u64 {
    (1 + 4 + attr_len + 4 + 8 * out_degree) as u64
}

/// User payload bytes of a loaded graph: Σ [`node_record_len`].
pub fn graph_user_bytes(csr: &Csr, attr_len: impl Fn(u64) -> usize) -> u64 {
    (0..csr.node_count() as u64)
        .map(|v| node_record_len(attr_len(v), csr.out_degree(v)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trinity_graph::{load_graph, LoadOptions, NodeRecord};
    use trinity_memcloud::CloudConfig;

    #[test]
    fn pricing_matches_the_cost_model() {
        let fabric = StatsDelta {
            remote_envelopes: 2_712,
            remote_bytes: 172_827_216,
            ..StatsDelta::default()
        };
        let none = TfsTraffic::default();
        let got = net_model_seconds(&fabric, &none);
        assert_eq!(
            got,
            CostModel::gigabit_ethernet().seconds(2_712, 172_827_216)
        );
        // 100 µs per envelope + bytes at 125 MB/s, spelled out.
        let by_hand = 2_712.0 * 100e-6 + 172_827_216.0 / 125e6;
        assert!((got - by_hand).abs() < 1e-12);
        // Machine-local frames are free.
        let local_only = StatsDelta {
            local_frames: 1_000_000,
            ..StatsDelta::default()
        };
        assert_eq!(net_model_seconds(&local_only, &none), 0.0);
    }

    #[test]
    fn tfs_images_are_priced_once_per_replica_written_and_once_per_read() {
        let tfs = TfsTraffic {
            writes: 2,
            write_bytes: 1_000_000,
            reads: 3,
            read_bytes: 500_000,
            replication: 3,
        };
        let got = net_model_seconds(&StatsDelta::default(), &tfs);
        let want = CostModel::gigabit_ethernet().seconds(2 * 3 + 3, 3_000_000 + 500_000);
        assert_eq!(got, want);
    }

    #[test]
    fn user_bytes_match_what_the_store_reports_live() {
        let csr = trinity_graphgen::social(500, 8, 3);
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> =
            Arc::new(|v| vec![b'x'; (v % 7) as usize]);
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        load_graph(
            Arc::clone(&cloud),
            &csr,
            &LoadOptions {
                with_in_links: false,
                attrs: Some(Arc::clone(&attrs)),
            },
        )
        .expect("load");
        let model = graph_user_bytes(&csr, |v| (v % 7) as usize);
        let live: u64 = cloud
            .nodes()
            .iter()
            .map(|n| n.store().stats().live_payload_bytes as u64)
            .sum();
        assert_eq!(model, live);
        let rec = NodeRecord::with_outs(attrs(5), csr.neighbors(5).to_vec());
        assert_eq!(
            node_record_len(5, csr.out_degree(5)),
            rec.encode().len() as u64
        );
        // The only file so far is the addressing table, on every replica.
        let table_len = cloud
            .tfs()
            .read(trinity_memcloud::TFS_TABLE_PATH)
            .unwrap()
            .len() as u64;
        assert_eq!(tfs_bytes_stored(cloud.tfs()), table_len * 3);
        assert!(stored_bytes(&cloud) >= live);
        cloud.shutdown();
    }
}
