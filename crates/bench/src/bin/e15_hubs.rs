//! E15 (§5.4): hub-vertex message-optimization ablation.
//!
//! Paper claims for P(k) = c·k^-γ with γ = 2.16: "20% hub vertices are
//! sending messages to 80% of vertices. Even if we buffer messages from
//! just 1% hub vertices, we have addressed 72.8% of message needs."
//! This harness prints the analytic and empirical coverage curves, then
//! the wire cost of a PageRank superstep on six routes. The engine runs
//! two live (hub records on the undirected power-law graph, grouped
//! records on the same out-lists marked directed); `route_model`, an
//! exact count model of the engine that ran them, prices the other four,
//! and every live row too: the last line reads `shape: PASS` when each
//! live row equals its model run, else `shape: FAIL` and the exit is 1.

use trinity_algos::pagerank_distributed;
use trinity_bench::route_model::{pagerank_traffic, Route, Step};
use trinity_bench::{bench_cloud_config, cloud_with_graph, header, row, scaled, MetricsOut};
use trinity_core::hub::{analytic_coverage, coverage_curve};
use trinity_core::BspConfig;
use trinity_graph::LoadOptions;
use trinity_memcloud::MemoryCloud;

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
        "E15.2 — routes: PageRank per superstep (8 machines; transfers and KB: the busiest machine's)",
        &[
            "config",
            "source",
            "remote frames",
            "bottleneck transfers",
            "wire KB/superstep",
        ],
    );
    let machines = 8;
    let iterations = 3;
    // Every cloud of this shape places cells by the same table.
    let placement = MemoryCloud::new(bench_cloud_config(machines));
    let table = placement.node(0).table();
    let cost = placement.fabric().cost_model();
    placement.shutdown();
    let model = |route| pagerank_traffic(&csr, &table, 0, route, iterations, &cost);
    let mut mismatches = Vec::new();
    for (name, route) in [
        ("no optimization (unpacked)", Route::Unpacked),
        ("packing only", Route::Grouped),
        ("packing + hubs (deg>=64)", Route::Hubs(64)),
        ("packing + hubs (deg>=16)", Route::Hubs(16)),
        ("packing + hubs (every vertex, default)", Route::Hubs(1)),
        ("packing + hubs + combiner", Route::Combined(16)),
    ] {
        // The engine's two routes run live, the others only in the model.
        let live = matches!(route, Route::Grouped | Route::Hubs(1));
        let modeled = model(route);
        let steps = if live {
            // The grouped route is the engine's on a directed graph loaded
            // without in-links: the same out-lists, marked directed.
            let mut csr = csr.clone();
            csr.directed = route == Route::Grouped;
            let (cloud, graph) = cloud_with_graph(&csr, machines, &LoadOptions::default());
            let result = pagerank_distributed(graph, iterations, BspConfig::default());
            metrics.capture(name, &cloud);
            cloud.shutdown();
            let steps: Vec<Step> = result.reports.iter().map(Step::of).collect();
            if steps != modeled {
                mismatches.push(format!("{name}: live {steps:?}, model {modeled:?}"));
            }
            steps
        } else {
            modeled
        };
        let per_step = |v: u64| v / steps.len() as u64;
        let sum = |f: fn(&Step) -> u64| steps.iter().map(f).sum::<u64>();
        row(&[
            name.to_string(),
            if live { "live" } else { "model" }.to_string(),
            per_step(sum(|s| s.deliveries)).to_string(),
            per_step(sum(|s| s.envelopes)).to_string(),
            format!("{:.1}", sum(|s| s.bytes) as f64 / steps.len() as f64 / 1e3),
        ]);
    }
    println!("\nmodel rows: exact counts of routes the engine no longer runs (route_model.rs), their hub records in today's delta format; the combiner's records in ascending destination order.");
    println!("paper shape: packing collapses transfers; hub buffering removes most remaining per-edge frames; each message is delivered once.");
    metrics.finish();
    if mismatches.is_empty() {
        println!("shape: PASS (each live row equals the model run of its route)");
    } else {
        println!("shape: FAIL: {}", mismatches.join("; "));
        std::process::exit(1);
    }
}
