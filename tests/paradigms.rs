//! Cross-paradigm consistency: the paper's point that Trinity is "not
//! constrained by any computation model" — the same question answered by
//! online exploration, synchronous BSP, and asynchronous computation must
//! give the same answer.

use std::sync::Arc;

use trinity::algos::{bfs_async, bfs_distributed};
use trinity::core::{BspConfig, Explorer};
use trinity::graph::{load_graph, Csr, LoadOptions};
use trinity::memcloud::{CloudConfig, MemoryCloud};

#[test]
fn three_paradigms_agree_on_reachability_and_distance() {
    let csr: Csr = trinity::graphgen::social(500, 8, 21);
    let source = 3u64;
    let machines = 3;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
    let graph = Arc::new(load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap());

    // Paradigm 1: synchronous BSP BFS.
    let bsp = bfs_distributed(
        Arc::clone(&graph),
        source,
        BspConfig {
            max_supersteps: 256,
            ..BspConfig::default()
        },
    );

    // Paradigm 2: asynchronous message-driven relaxation.
    let async_result = bfs_async(Arc::clone(&graph), source);

    // Paradigm 3: online traversal, hop by hop.
    let explorer = Explorer::install(Arc::clone(&cloud));

    // BSP and async agree exactly on every distance.
    assert_eq!(bsp.states.len(), async_result.states.len());
    for (id, d) in &bsp.states {
        assert_eq!(async_result.states[id], *d, "vertex {id}: BSP vs async");
    }

    // Online exploration's per-hop counts equal the distance histogram.
    let max_d = bsp
        .states
        .values()
        .filter(|&&d| d != u64::MAX)
        .max()
        .copied()
        .unwrap() as usize;
    let result = explorer.explore(0, source, max_d, b"");
    for (hop, &count) in result.per_hop.iter().enumerate() {
        let expect = bsp.states.values().filter(|&&d| d == hop as u64).count();
        assert_eq!(count, expect, "hop {hop}: exploration vs BSP");
    }
    cloud.shutdown();
}

#[test]
fn partitioning_is_a_non_vertex_centric_job_on_the_same_data() {
    // §5.3's point: multi-level partitioning doesn't fit vertex-centric
    // computing, but Trinity runs it on the same graph data. Partition the
    // graph, then verify the partition would reduce cross-machine traffic
    // versus the default hash placement.
    use trinity::algos::{edge_cut, multilevel_partition, random_partition};
    let csr = trinity::graphgen::social(600, 10, 8);
    let k = 4;
    let smart = multilevel_partition(&csr, k, 1.15, 3);
    let random_cut = edge_cut(&csr, &random_partition(csr.node_count(), k, 3));
    assert!(
        smart.cut < random_cut,
        "multilevel cut {} must beat random {random_cut}",
        smart.cut
    );
}
