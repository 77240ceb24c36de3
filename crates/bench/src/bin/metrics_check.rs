//! CI gate: schema-validate the JSON artifacts the figure binaries and
//! the chaos harness emit.
//!
//! Usage: `metrics_check <path>...` — each path must exist, parse as
//! JSON (via `trinity_obs::validate_json`, the same hand-rolled grammar
//! the exporters write), and carry the top-level keys its artifact kind
//! promises:
//!
//! - `*.metrics.json` — a `MetricsOut` document: `"bench"` + `"sections"`,
//!   and every [`BSP_COUNTERS`] name if it reports a BSP job at all.
//! - `*.trace.json` — a Chrome trace-event export: `"traceEvents"`.
//! - `*.flight.json` — a flight-recorder dump: kind `"trinity.flight"`,
//!   `"windows"` and `"events"`.
//!
//! Exits nonzero on the first failure so `check.sh` can gate on it.

use std::process::ExitCode;

fn required_keys(path: &str) -> &'static [&'static str] {
    if path.ends_with(".metrics.json") {
        &["\"bench\"", "\"sections\""]
    } else if path.ends_with(".trace.json") {
        &["\"traceEvents\""]
    } else if path.ends_with(".flight.json") {
        &["\"trinity.flight\"", "\"windows\"", "\"events\""]
    } else {
        &[]
    }
}

/// Counters every BSP job registers (DESIGN §6).
const BSP_COUNTERS: &[&str] = &[
    "bsp.frames.remote",
    "bsp.records.sent",
    "bsp.frames.malformed",
];

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let values = trinity_obs::validate_json(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    if values == 0 {
        return Err("empty document".into());
    }
    for key in required_keys(path) {
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

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("metrics_check: no artifact paths given");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match check(path) {
            Ok(()) => println!("metrics_check: {path} ok"),
            Err(e) => {
                eprintln!("metrics_check: FAIL — {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
