//! Offline analytics: PageRank over an R-MAT web graph (paper §5.3–5.4).
//!
//! Runs PageRank on both graph kinds the engine takes — the R-MAT graph
//! made undirected, and the directed R-MAT graph loaded with its in-links
//! (the paper's `GetInlinks()`, §4.1) — and prints the message counts and
//! modeled cluster times. Every broadcast ships as §5.4's hub records: one
//! per other machine its out-list reaches, fanned out there through that
//! machine's in-edges.
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
    let directed = trinity::graphgen::rmat(scale, degree, 7);
    // An undirected graph's out-lists are its in-lists too.
    let undirected = trinity::graph::Csr::undirected_from_edges(
        directed.node_count(),
        &directed.arcs().collect::<Vec<_>>(),
        true,
    );

    for (name, csr) in [
        ("undirected", &undirected),
        ("directed, in-links stored", &directed),
    ] {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let opts = LoadOptions {
            with_in_links: csr.directed,
            attrs: None,
        };
        let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, &opts).unwrap());
        let result = pagerank_distributed(graph, iterations, BspConfig::default());
        let frames: u64 = result.reports.iter().map(|r| r.remote_messages).sum();
        let envelopes: u64 = result
            .reports
            .iter()
            .map(|r| r.max_machine_net.remote_envelopes)
            .sum();
        println!("\n== {name}");
        println!(
            "   {} supersteps, {} hub records, {} bottleneck-link transfers",
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
