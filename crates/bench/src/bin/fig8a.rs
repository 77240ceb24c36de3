//! Figure 8(a): subgraph matching without any index.
//!
//! Paper setup: graph sizes 1 M–128 M nodes, average degree 16, query
//! size 10, queries generated by the DFS and RANDOM methods of \[32\],
//! 8 machines. Paper result: ~1 s average query time, roughly flat in
//! graph size — exploration cost follows the pattern's selectivity, not
//! |V|.

use std::sync::Arc;
use trinity_algos::{assign_labels, generate_pattern, subgraph_match, PatternGen};
use trinity_bench::{cloud_with_graph, header, row, scaled, secs, MetricsOut};
use trinity_graph::LoadOptions;

fn main() {
    let mut metrics = MetricsOut::from_args();
    let machines = 8;
    let query_size = 10;
    let queries = 3;
    header(
        "Figure 8(a) — subgraph match query time (degree 16, query size 10, 8 machines)",
        &[
            "nodes",
            "DFS",
            "RANDOM",
            "embeddings(dfs)",
            "embeddings(rnd)",
        ],
    );
    for n in [scaled(4_000), scaled(16_000), scaled(64_000)] {
        let csr = trinity_graphgen::social(n, 16, 11);
        let labels = assign_labels(n, 50, 2);
        let labels_arc = Arc::new(labels.clone());
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> = {
            let labels = Arc::clone(&labels_arc);
            Arc::new(move |v| vec![labels[v as usize]])
        };
        let (cloud, graph) = cloud_with_graph(
            &csr,
            machines,
            &LoadOptions {
                with_in_links: false,
                attrs: Some(attrs),
            },
        );
        let mut out = vec![n.to_string()];
        let mut embed = Vec::new();
        for gen in [PatternGen::Dfs, PatternGen::Random] {
            let mut total = 0.0;
            let mut found = 0usize;
            for q in 0..queries {
                let pattern = generate_pattern(&csr, &labels, query_size, gen, 100 + q as u64);
                let report = subgraph_match(&graph, &pattern, 10_000);
                total += report.modeled_seconds;
                found += report.embeddings;
            }
            out.push(secs(total / queries as f64));
            embed.push((found / queries).to_string());
        }
        out.extend(embed);
        row(&out);
        metrics.capture(&format!("n={n}"), &cloud);
        cloud.shutdown();
    }
    println!("\npaper shape: query time grows modestly with graph size, staying around 1 s at the paper's 1M-128M scale on 8 machines.");
    metrics.finish();
}
