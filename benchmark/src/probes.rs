//! Layer probes and replays of the traced run.
//!
//! After the measured trials, the traced run calls lower layers directly
//! through their public APIs on the workload's loaded state — an idle
//! cluster, one caller — and reports busy time per operation. These are
//! unit costs: they say how expensive a layer's operation is, the spans
//! say how often a workload pays it.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trinity_graph::{GraphHandle, NodeView};
use trinity_memcloud::MemoryCloud;
use trinity_memstore::{Trunk, TrunkConfig, TrunkSnapshot};
use trinity_net::{proto, MachineId, ProtoId};

use crate::harness::MetricSet;
use crate::stats::{median, percentile};

const ECHO: ProtoId = proto::FIRST_USER + 900;
const SINK: ProtoId = proto::FIRST_USER + 901;

/// Times each replay pass is repeated; the median pass is reported.
const PASSES: usize = 5;
/// Most cells a memstore replay touches.
const REPLAY_CELLS: usize = 20_000;

/// Copies TFS keeps of every file in this deployment.
pub fn tfs_replication(cloud: &MemoryCloud) -> usize {
    cloud.tfs().placement("probe").len()
}

/// Median over [`PASSES`] runs of `pass`, which returns a per-unit cost.
pub fn median_pass(mut pass: impl FnMut() -> f64) -> f64 {
    median(&(0..PASSES).map(|_| pass()).collect::<Vec<_>>())
}

fn mb_per_s(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12)
}

/// Probes every workload shares: fabric round trip and one-way rate,
/// trunk get/put/scan replays, snapshot and TFS throughput on one loaded
/// trunk's image, and the stores' fragmentation counters.
pub fn shared(cloud: &Arc<MemoryCloud>, out: &mut MetricSet) {
    net(cloud, out);
    out.set(
        "tfs.bytes_stored",
        crate::model::tfs_bytes_stored(cloud.tfs()) as f64,
    );
    let mut st = trinity_memstore::TrunkStats::default();
    for n in cloud.nodes() {
        st.merge(&n.store().stats());
    }
    out.set("memstore.dead_ratio", st.dead_ratio());
    out.set("memstore.defrag_passes", st.defrag_passes as f64);
    out.set("memstore.defrag_moved_bytes", st.bytes_moved as f64);

    let Some(trunk) = loaded_trunk(cloud) else {
        return;
    };
    memstore(&trunk, out);
    let image = snapshot(&trunk, out);
    tfs(cloud, &image, out);
}

/// The fullest resident trunk of machine 0 stands for "a loaded trunk".
fn loaded_trunk(cloud: &MemoryCloud) -> Option<Arc<Trunk>> {
    cloud
        .node(0)
        .store()
        .trunks()
        .into_iter()
        .max_by_key(|t| (t.cell_count(), t.id()))
}

/// Graph-layer probes on a loaded graph: load rate (from set-up), node
/// record decode cost on one loaded trunk, and the latency of reading a
/// remote node's out-neighbours through a `GraphHandle`.
pub fn graph(cloud: &Arc<MemoryCloud>, nodes: usize, load_s: f64, out: &mut MetricSet) {
    out.set("graph.load_cells_per_s", nodes as f64 / load_s.max(1e-9));
    if let Some(trunk) = loaded_trunk(cloud) {
        let cells = trunk.cell_count().max(1);
        out.set(
            "graph.decode_ns_per_node",
            median_pass(|| {
                let t0 = Instant::now();
                let mut fold = 0u64;
                trunk.for_each_cell(|_, blob| {
                    if let Ok(view) = NodeView::new(blob) {
                        fold = view.outs().fold(fold, u64::wrapping_add);
                    }
                });
                black_box(fold);
                t0.elapsed().as_nanos() as f64 / cells as f64
            }),
        );
    }
    // Distinct remote ids, so the read cache cannot answer any of them.
    let handle = GraphHandle::new(Arc::clone(cloud.node(0)));
    let table = cloud.node(0).table();
    let mut lat: Vec<f64> = (0..nodes as u64)
        .filter(|&v| table.machine_of(v) != MachineId(0))
        .take(500)
        .filter_map(|v| {
            let t0 = Instant::now();
            let outs = handle.out_neighbors(v).ok()??;
            black_box(outs.len());
            Some(t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    if !lat.is_empty() {
        out.set("graph.out_neighbors_remote_us", percentile(&mut lat, 0.5));
    }
}

fn net(cloud: &Arc<MemoryCloud>, out: &mut MetricSet) {
    let (src, dst) = (cloud.fabric().endpoint(MachineId(0)), MachineId(1));
    let delivered = Arc::new(AtomicU64::new(0));
    {
        let sink = cloud.fabric().endpoint(dst);
        sink.register(ECHO, |_, payload| Some(payload.to_vec()));
        let delivered = Arc::clone(&delivered);
        sink.register(SINK, move |_, _| {
            // Relaxed: a statistic the sender polls; it publishes nothing.
            delivered.fetch_add(1, Ordering::Relaxed);
            None
        });
    }
    let payload = [0x5au8; 64];
    let mut rtt: Vec<f64> = (0..2_000)
        .filter_map(|_| {
            let t0 = Instant::now();
            src.call(dst, ECHO, &payload).ok()?;
            Some(t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    if !rtt.is_empty() {
        out.set("net.call_rtt_us", percentile(&mut rtt, 0.5));
    }

    // One sender pushing 64-byte frames through send_slices, 256 a call.
    const BATCH: usize = 256;
    const BATCHES: usize = 800;
    let data = vec![0x5au8; 64 * BATCH];
    let bounds: Vec<usize> = (1..=BATCH).map(|i| i * 64).collect();
    let rate = median_pass(|| {
        let before = delivered.load(Ordering::Relaxed);
        let want = before + (BATCH * BATCHES) as u64;
        let t0 = Instant::now();
        for _ in 0..BATCHES {
            src.send_slices(dst, SINK, &data, &bounds);
        }
        src.flush_to(dst);
        while delivered.load(Ordering::Relaxed) < want && t0.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
        (delivered.load(Ordering::Relaxed) - before) as f64 / t0.elapsed().as_secs_f64()
    });
    out.set("net.oneway_frames_per_s", rate);
}

fn memstore(trunk: &Trunk, out: &mut MetricSet) {
    let mut ids = trunk.cell_ids();
    ids.sort_unstable();
    ids.truncate(REPLAY_CELLS);
    if ids.is_empty() {
        return;
    }
    out.set(
        "memstore.get_ns",
        median_pass(|| {
            let t0 = Instant::now();
            let mut bytes = 0usize;
            for &id in &ids {
                bytes += trunk.get(id).map_or(0, |c| c.len());
            }
            black_box(bytes);
            t0.elapsed().as_nanos() as f64 / ids.len() as f64
        }),
    );
    let payloads: Vec<Vec<u8>> = ids.iter().filter_map(|&id| trunk.get_owned(id)).collect();
    out.set(
        "memstore.put_ns",
        median_pass(|| {
            // A fresh trunk per pass: the allocation path, not overwrite.
            let scratch = Trunk::new(u64::MAX, TrunkConfig::default());
            let t0 = Instant::now();
            for (&id, p) in ids.iter().zip(&payloads) {
                scratch.put(id, p).expect("scratch trunk has room");
            }
            t0.elapsed().as_nanos() as f64 / payloads.len().max(1) as f64
        }),
    );
    let cells = trunk.cell_count().max(1);
    out.set(
        "memstore.scan_ns_per_cell",
        median_pass(|| {
            let t0 = Instant::now();
            let mut bytes = 0usize;
            trunk.for_each_cell(|_, p| bytes += p.len());
            black_box(bytes);
            t0.elapsed().as_nanos() as f64 / cells as f64
        }),
    );
}

fn snapshot(trunk: &Trunk, out: &mut MetricSet) -> Vec<u8> {
    let mut image = Vec::new();
    out.set(
        "memstore.snapshot_encode_mb_s",
        median_pass(|| {
            let t0 = Instant::now();
            image = TrunkSnapshot::capture(trunk).encode();
            mb_per_s(image.len(), t0.elapsed())
        }),
    );
    out.set(
        "memstore.snapshot_restore_mb_s",
        median_pass(|| {
            let t0 = Instant::now();
            let restored = TrunkSnapshot::decode(&image)
                .ok()
                .and_then(|s| s.restore(TrunkConfig::default()).ok());
            let elapsed = t0.elapsed();
            black_box(restored.map(|t| t.cell_count()));
            mb_per_s(image.len(), elapsed)
        }),
    );
    image
}

fn tfs(cloud: &MemoryCloud, image: &[u8], out: &mut MetricSet) {
    const FILES: usize = 8;
    let tfs = cloud.tfs();
    let name = |i: usize| format!("bench/probe-{i}");
    out.set(
        "tfs.write_mb_s",
        median_pass(|| {
            let t0 = Instant::now();
            for i in 0..FILES {
                tfs.write(&name(i), image).expect("TFS is up");
            }
            mb_per_s(image.len() * FILES, t0.elapsed())
        }),
    );
    out.set(
        "tfs.read_mb_s",
        median_pass(|| {
            let t0 = Instant::now();
            let mut bytes = 0usize;
            for i in 0..FILES {
                bytes += tfs.read(&name(i)).map_or(0, |b| b.len());
            }
            mb_per_s(bytes, t0.elapsed())
        }),
    );
    for i in 0..FILES {
        let _ = tfs.delete(&name(i));
    }
}
