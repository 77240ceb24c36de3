//! Figure 12(b): PageRank — one-iteration execution time vs graph size
//! and machine count.
//!
//! Paper setup: R-MAT, average degree 13, 64 M–1024 M nodes, on 8/10/12/14
//! machines. Paper result: one iteration on the 1 B-node graph completes
//! in under a minute on 8 machines; more machines help until the network
//! limit. This reproduction scales node counts down (see DESIGN.md) and
//! reports modeled cluster seconds per iteration, split into the cost
//! model's three terms: compute (measured CPU over the machine count),
//! network (the busiest machine's priced traffic) and barrier.

use trinity_algos::pagerank_distributed;
use trinity_bench::{cloud_with_graph, header, row, scale, scaled, MetricsOut};
use trinity_core::BspConfig;
use trinity_graph::{Csr, LoadOptions};

/// The R-MAT generator's seed.
const SEED: u64 = 7;

fn main() {
    let mut metrics = MetricsOut::from_args();
    let iterations = 3;
    let machine_counts = [8usize, 10, 12, 14];
    header(
        &format!(
            "Figure 12(b) — PageRank seconds per iteration (R-MAT, degree 13, seed {SEED}, scale {}; modeled cluster time)",
            scale()
        ),
        &["nodes", "machines", "compute µs", "network µs", "barrier µs", "total µs"],
    );
    for scale_exp in [13u32, 14, 15, 16] {
        let n = scaled(1usize << scale_exp);
        let scale_bits = (n.next_power_of_two().trailing_zeros()).max(8);
        let directed = trinity_graphgen::rmat(scale_bits, 13, SEED);
        // Undirected view so hub records can fan out (paper: in-links).
        let csr = Csr::undirected_from_edges(
            directed.node_count(),
            &directed.arcs().collect::<Vec<_>>(),
            true,
        );
        for &machines in &machine_counts {
            let (cloud, graph) = cloud_with_graph(&csr, machines, &LoadOptions::default());
            let cost = cloud.fabric().cost_model();
            let result = pagerank_distributed(graph, iterations, BspConfig::default());
            let reports = result.reports.iter();
            let cpu: f64 = reports.clone().map(|r| r.compute_cpu_seconds).sum();
            let net: f64 = reports
                .map(|r| cost.transfer_seconds(&r.max_machine_net))
                .sum();
            let iterations = iterations as f64;
            let (compute, network) = (cpu / machines as f64 / iterations, net / iterations);
            let total = result.modeled_seconds() / iterations;
            let us = |s: f64| format!("{:.1}", s * 1e6);
            row(&[
                format!("2^{scale_bits}"),
                machines.to_string(),
                us(compute),
                us(network),
                us(total - compute - network),
                us(total),
            ]);
            metrics.capture(&format!("n=2^{scale_bits} machines={machines}"), &cloud);
            cloud.shutdown();
        }
    }
    println!("\npaper shape: time grows ~linearly with nodes; more machines reduce per-iteration time at every size.");
    metrics.finish();
}
