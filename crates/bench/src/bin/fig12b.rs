//! Figure 12(b): PageRank — one-iteration execution time vs graph size
//! and machine count.
//!
//! Paper setup: R-MAT, average degree 13, 64 M–1024 M nodes, on 8/10/12/14
//! machines. Paper result: one iteration on the 1 B-node graph completes
//! in under a minute on 8 machines; more machines help until the network
//! limit. This reproduction scales node counts down (see DESIGN.md) and
//! reports modeled cluster seconds per iteration (measured compute +
//! priced traffic).

use trinity_algos::pagerank_distributed;
use trinity_bench::{cloud_with_graph, header, row, scaled, secs, MetricsOut};
use trinity_core::BspConfig;
use trinity_graph::{Csr, LoadOptions};

fn main() {
    let mut metrics = MetricsOut::from_args();
    let iterations = 3;
    let machine_counts = [8usize, 10, 12, 14];
    let mut cols = vec!["nodes".to_string()];
    cols.extend(machine_counts.iter().map(|m| format!("{m} machines")));
    header(
        "Figure 12(b) — PageRank seconds per iteration (R-MAT, degree 13; modeled cluster time)",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for scale_exp in [13u32, 14, 15, 16] {
        let n = scaled(1usize << scale_exp);
        let scale_bits = (n.next_power_of_two().trailing_zeros()).max(8);
        let directed = trinity_graphgen::rmat(scale_bits, 13, 7);
        // Undirected view so hub records can fan out (paper: in-links).
        let csr = Csr::undirected_from_edges(
            directed.node_count(),
            &directed.arcs().collect::<Vec<_>>(),
            true,
        );
        let mut cells = vec![format!("2^{scale_bits}")];
        for &machines in &machine_counts {
            let (cloud, graph) = cloud_with_graph(&csr, machines, &LoadOptions::default());
            let result = pagerank_distributed(graph, iterations, BspConfig::default());
            let per_iter = result.modeled_seconds() / iterations as f64;
            cells.push(secs(per_iter));
            metrics.capture(&format!("n=2^{scale_bits} machines={machines}"), &cloud);
            cloud.shutdown();
        }
        row(&cells);
    }
    println!("\npaper shape: time grows ~linearly with nodes; more machines reduce per-iteration time at every size.");
    metrics.finish();
}
