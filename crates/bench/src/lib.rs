//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (the mapping lives in DESIGN.md §3). Binaries print
//! aligned tables — one row per x-axis point, one column per series —
//! plus the experiment's headline claim so EXPERIMENTS.md can record
//! paper-vs-measured side by side.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_obs::Json;

/// Print a table header.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n## {title}");
    println!("{}", columns.join("\t"));
}

/// Print one row of tab-separated cells.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Format seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Format byte counts.
pub fn bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.0}KiB", b as f64 / 1024.0)
    }
}

/// Memory-cloud shape used by the figure harnesses: trunks big enough for
/// the bench graph sizes (the reservation is virtual address space;
/// untouched pages stay unbacked).
pub fn bench_cloud_config(machines: usize) -> CloudConfig {
    let mut cfg = CloudConfig::new(machines);
    cfg.store.trunk = trinity_memstore::TrunkConfig {
        reserved_bytes: 64 << 20,
        page_bytes: 64 << 10,
        expansion_slack: 1.0,
    };
    cfg
}

/// Bring up a memory cloud and load a CSR into it.
pub fn cloud_with_graph(
    csr: &Csr,
    machines: usize,
    opts: &LoadOptions,
) -> (Arc<MemoryCloud>, Arc<DistributedGraph>) {
    let cloud = Arc::new(MemoryCloud::new(bench_cloud_config(machines)));
    let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, opts).expect("load graph"));
    (cloud, graph)
}

/// Time a closure, returning (result, wall seconds).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Scale factor from the environment: `TRINITY_BENCH_SCALE=2` doubles the
/// default problem sizes (the defaults finish in a few minutes total).
pub fn scale() -> f64 {
    std::env::var("TRINITY_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a node count.
pub fn scaled(n: usize) -> usize {
    ((n as f64) * scale()) as usize
}

/// Machine-readable metrics sink for the figure binaries.
///
/// Every cloud-using binary calls [`MetricsOut::from_args`] at startup and
/// [`MetricsOut::capture`] after each labeled phase (typically once, right
/// before shutdown). With `--metrics-out <path>` on the command line,
/// [`MetricsOut::finish`] writes one JSON document containing, per
/// captured label, the full per-machine metrics registry (fabric `net.*`
/// counters, trunk `store.*` utilization, `bsp.*`/`explore.*` histograms
/// with quantiles) plus exact per-machine trunk statistics. Without the
/// flag everything is a no-op, so the text output of the figures is
/// unchanged.
///
/// The conventional path is `results/<name>.metrics.json`, next to the
/// figure's `results/<name>.txt`.
#[derive(Debug, Default)]
pub struct MetricsOut {
    path: Option<PathBuf>,
    sections: Vec<(String, Json)>,
}

impl MetricsOut {
    /// Parse `--metrics-out <path>` from the process arguments.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--metrics-out" {
                path = args.next().map(PathBuf::from);
                if path.is_none() {
                    eprintln!("--metrics-out requires a path argument");
                }
            }
        }
        MetricsOut {
            path,
            sections: Vec::new(),
        }
    }

    /// Record the cloud's current observability state under `label`: the
    /// whole metrics registry (all machines) plus per-machine trunk
    /// utilization.
    pub fn capture(&mut self, label: &str, cloud: &MemoryCloud) {
        if self.path.is_none() {
            return;
        }
        let registry = trinity_obs::snapshot_json(&cloud.fabric().obs().snapshot());
        let trunks = Json::Arr(
            (0..cloud.machines())
                .map(|m| {
                    let st = cloud.node(m).store().stats();
                    Json::obj([
                        ("machine", Json::U64(m as u64)),
                        ("reserved_bytes", Json::U64(st.reserved_bytes as u64)),
                        ("committed_bytes", Json::U64(st.committed_bytes as u64)),
                        ("used_bytes", Json::U64(st.used_bytes as u64)),
                        (
                            "live_payload_bytes",
                            Json::U64(st.live_payload_bytes as u64),
                        ),
                        ("live_entry_bytes", Json::U64(st.live_entry_bytes as u64)),
                        ("dead_bytes", Json::U64(st.dead_bytes as u64)),
                        ("slack_bytes", Json::U64(st.slack_bytes as u64)),
                        ("cell_count", Json::U64(st.cell_count as u64)),
                        ("defrag_passes", Json::U64(st.defrag_passes)),
                        ("bytes_moved", Json::U64(st.bytes_moved)),
                    ])
                })
                .collect(),
        );
        self.sections.push((
            label.to_string(),
            Json::obj([("registry", registry), ("trunks", trunks)]),
        ));
    }

    /// Write the document (if `--metrics-out` was given), returning the
    /// path written.
    pub fn finish(self) -> Option<PathBuf> {
        let path = self.path?;
        let name = std::env::args()
            .next()
            .map(|a| {
                PathBuf::from(a)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
            })
            .unwrap_or_default();
        let doc = Json::obj([
            ("bench", Json::Str(name)),
            ("sections", Json::Obj(self.sections.into_iter().collect())),
        ]);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        match std::fs::write(&path, format!("{doc}\n")) {
            Ok(()) => {
                println!("metrics written to {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("failed to write metrics to {}: {e}", path.display());
                None
            }
        }
    }
}

/// Counters every BSP job registers (DESIGN §6).
const BSP_COUNTERS: &[&str] = &[
    "bsp.frames.remote",
    "bsp.records.sent",
    "bsp.frames.malformed",
];

/// Schema-validate one exported JSON artifact: the file must exist, parse
/// (via `trinity_obs::validate_json`, the same hand-rolled grammar the
/// exporters write) and carry the top-level keys its kind promises:
///
/// - `*.metrics.json` — a [`MetricsOut`] document: `"bench"` + `"sections"`,
///   and every `BSP_COUNTERS` name if it reports a BSP job at all.
/// - `*.trace.json` — a Chrome trace-event export: `"traceEvents"`.
/// - `*.flight.json` — a flight-recorder dump: kind `"trinity.flight"`,
///   `"windows"` and `"events"`.
///
/// The one artifact schema: the `metrics_check` binary and the tests that
/// export a flight dump or a trace all call this.
pub fn check_artifact(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let values = trinity_obs::validate_json(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    if values == 0 {
        return Err("empty document".into());
    }
    let required: &[&str] = if path.ends_with(".metrics.json") {
        &["\"bench\"", "\"sections\""]
    } else if path.ends_with(".trace.json") {
        &["\"traceEvents\""]
    } else if path.ends_with(".flight.json") {
        &["\"trinity.flight\"", "\"windows\"", "\"events\""]
    } else {
        &[]
    };
    for key in required {
        if !text.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    if path.ends_with(".metrics.json") && text.contains("\"bsp.supersteps\"") {
        for name in BSP_COUNTERS {
            if !text.contains(&format!("\"{name}\"")) {
                return Err(format!("a BSP job ran but {name} is not reported"));
            }
        }
    }
    Ok(())
}
