//! E15 (§5.4): hub-vertex message-optimization ablation.
//!
//! Paper claims for P(k) = c·k^-γ with γ = 2.16: "20% hub vertices are
//! sending messages to 80% of vertices. Even if we buffer messages from
//! just 1% hub vertices, we have addressed 72.8% of message needs."
//! This harness prints the analytic and empirical coverage curves, then
//! measures the live effect: remote frames and wire bytes per PageRank
//! superstep with hub buffering on and off.

use trinity_algos::pagerank_distributed;
use trinity_bench::{cloud_with_graph, header, row, scaled, MetricsOut};
use trinity_core::hub::{analytic_coverage, coverage_curve};
use trinity_core::{BspConfig, MessagingMode};
use trinity_graph::LoadOptions;

fn main() {
    let mut metrics = MetricsOut::from_args();
    let n = scaled(30_000);
    let csr = trinity_graphgen::power_law(n, 2.16, 1, n / 10, 7);

    header(
        "E15.1 — hub coverage: fraction of message needs addressed by buffering top-x% hubs",
        &[
            "hub fraction",
            "analytic (γ=2.16)",
            "empirical",
            "degree cutoff",
        ],
    );
    let fractions = [0.01, 0.02, 0.05, 0.10, 0.20];
    let empirical = coverage_curve(&csr, &fractions);
    for (i, &f) in fractions.iter().enumerate() {
        row(&[
            format!("{:.0}%", f * 100.0),
            format!("{:.1}%", analytic_coverage(2.16, 100_000, f) * 100.0),
            format!("{:.1}%", empirical[i].message_coverage * 100.0),
            empirical[i].degree_cutoff.to_string(),
        ]);
    }
    println!("paper: 1% -> 72.8% of message needs, 20% -> 80% of vertices reached.");

    header(
        "E15.2 — live ablation: PageRank per superstep (8 machines; transfers and KB: the busiest machine's)",
        &[
            "config",
            "remote frames",
            "bottleneck transfers",
            "wire KB/superstep",
            "modeled s/iter",
        ],
    );
    let iterations = 3;
    let config = |messaging, hub_threshold, combine| BspConfig {
        messaging,
        hub_threshold,
        combine,
        ..BspConfig::default()
    };
    let packed = MessagingMode::Packed;
    for (name, cfg) in [
        (
            "no optimization (unpacked)",
            config(MessagingMode::Unpacked, None, false),
        ),
        ("packing only", config(packed, None, false)),
        ("packing + hubs (deg>=64)", config(packed, Some(64), false)),
        ("packing + hubs (deg>=16)", config(packed, Some(16), false)),
        (
            "packing + hubs (every vertex, default)",
            BspConfig::default(),
        ),
        ("packing + hubs + combiner", config(packed, Some(16), true)),
    ] {
        let (cloud, graph) = cloud_with_graph(&csr, 8, &LoadOptions::default());
        let result = pagerank_distributed(graph, iterations, cfg);
        let frames: u64 = result.reports.iter().map(|r| r.remote_messages).sum();
        let bottleneck = result.reports.iter().map(|r| &r.max_machine_net);
        let envs: u64 = bottleneck.clone().map(|n| n.remote_envelopes).sum();
        let bytes: u64 = bottleneck.map(|n| n.remote_bytes).sum();
        row(&[
            name.to_string(),
            format!("{}", frames / result.supersteps() as u64),
            format!("{}", envs / result.supersteps() as u64),
            format!("{:.1}", bytes as f64 / result.supersteps() as f64 / 1e3),
            format!("{:.4}", result.modeled_seconds() / iterations as f64),
        ]);
        metrics.capture(name, &cloud);
        cloud.shutdown();
    }
    println!("\npaper shape: packing collapses transfers; hub buffering removes most remaining per-edge frames; each message is delivered once.");
    metrics.finish();
}
