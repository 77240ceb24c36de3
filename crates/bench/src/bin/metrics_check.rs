//! CI gate: schema-validate the JSON artifacts the figure binaries and
//! the chaos harness emit.
//!
//! Usage: `metrics_check <path>...` — each path goes through
//! [`trinity_bench::check_artifact`]. Exits nonzero if any fails, so
//! `check.sh` can gate on it.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("metrics_check: no artifact paths given");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match trinity_bench::check_artifact(path) {
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
