//! Offline analytics: PageRank over an R-MAT web graph (paper §5.3–5.4).
//!
//! Runs the same PageRank job on both routes a broadcast can take — hub
//! records on a reverse traversable graph, grouped neighbor records on a
//! directed one loaded without in-links — and prints the per-superstep
//! message counts and modeled cluster times, showing what §5.4's hub
//! buffering saves over packing alone.
//!
//! ```text
//! cargo run --release --example pagerank_analytics [scale] [degree]
//! ```

use std::sync::Arc;

use trinity::algos::pagerank_distributed;
use trinity::core::BspConfig;
use trinity::graph::{load_graph, LoadOptions};
use trinity::memcloud::{CloudConfig, MemoryCloud};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);
    let degree: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);
    let machines = 8;
    let iterations = 5;

    println!("generating R-MAT: 2^{scale} nodes, average degree {degree}...");
    // Undirected so hub records have symmetric adjacency to fan out on
    // (the paper's directed runs store in-links; see DESIGN.md).
    let directed = trinity::graphgen::rmat(scale, degree, 7);
    let csr = trinity::graph::Csr::undirected_from_edges(
        directed.node_count(),
        &directed.arcs().collect::<Vec<_>>(),
        true,
    );
    // The same out-lists marked directed: no machine can find a sender's
    // neighbors among its in-edges, so every broadcast ships grouped.
    let mut marked = csr.clone();
    marked.directed = true;

    for (name, csr) in [
        ("hub records (reverse traversable graph)", &csr),
        ("grouped records (directed, no in-links)", &marked),
    ] {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, &LoadOptions::default()).unwrap());
        let result = pagerank_distributed(graph, iterations, BspConfig::default());
        let frames: u64 = result.reports.iter().map(|r| r.remote_messages).sum();
        let envelopes: u64 = result
            .reports
            .iter()
            .map(|r| r.max_machine_net.remote_envelopes)
            .sum();
        println!("\n== {name}");
        println!(
            "   {} supersteps, {} remote messages, {} bottleneck-link transfers",
            result.supersteps(),
            frames,
            envelopes
        );
        println!(
            "   modeled cluster time: {:.3} s total ({:.3} s / iteration)",
            result.modeled_seconds(),
            result.modeled_seconds() / iterations as f64
        );
        let top = {
            let mut ranked: Vec<(u64, f64)> =
                result.states.iter().map(|(id, s)| (*id, s.rank)).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            ranked.truncate(3);
            ranked
        };
        println!(
            "   top ranks: {:?}",
            top.iter()
                .map(|(id, r)| format!("#{id}={r:.2e}"))
                .collect::<Vec<_>>()
        );
        cloud.shutdown();
    }
}
