//! The repository's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_mix|pagerank_bsp|cell_mix|scan_tiered> --seed <n> \
//!     [--seconds <n>] [--trace <0|1>] [--smoke]
//! ```
//!
//! Without `--workload` all four run. Every run prints its configuration,
//! every metric by name with its unit, and — as the last line of standard
//! output — one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is non-zero if any op failed its oracle.
//! See `benchmark/README.md` for what each workload and metric means.

mod gen;
mod harness;
mod model;
mod probes;
mod proc;
mod stats;
mod trace;
mod workloads;

use harness::{run, Params};
use workloads::cell_mix::CellMix;
use workloads::pagerank_bsp::PagerankBsp;
use workloads::scan_tiered::ScanTiered;
use workloads::serve_mix::ServeMix;

const WORKLOADS: [&str; 4] = ["serve_mix", "pagerank_bsp", "cell_mix", "scan_tiered"];
/// The seed a bare run uses; README records it beside a second seed the
/// benchmark is also known to run clean on.
const DEFAULT_SEED: u64 = 20130622;
/// Every trial is sized to take about this long on the reference host;
/// `--seconds` buys a whole number of them.
const TRIAL_SECONDS: u64 = 3;
const DEFAULT_SECONDS: u64 = 21;

fn usage() -> ! {
    eprintln!(
        "usage: trinity-benchmark [--workload <{}>] [--seed <n>] [--seconds <n>] \
         [--trace [0|1]] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    params: Params,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let (mut trace, mut smoke) = (false, false);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut number = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs a whole number");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => workload = Some(args.next().unwrap_or_else(|| usage())),
            "--seed" => seed = number("--seed"),
            "--seconds" => seconds = number("--seconds"),
            // `--trace` alone turns tracing on; `--trace 0|1` is explicit.
            "--trace" => {
                trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            eprintln!("unknown workload {w}");
            usage();
        }
    }
    Args {
        workload,
        params: Params {
            seed,
            trials: (seconds / TRIAL_SECONDS).max(1) as usize,
            trace,
            smoke,
        },
    }
}

fn main() {
    let args = parse_args();
    // Before any other thread exists, so that all of them inherit it.
    let host_cores = proc::nproc();
    let pinned = proc::pin_to_one_core();
    println!(
        "host: {host_cores} cores; process {}",
        pinned.map_or(
            "NOT pinned (sched_setaffinity refused)".into(),
            |c| format!("pinned to core {c}")
        )
    );
    let mut all_correct = true;
    for name in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        all_correct &= match name {
            "serve_mix" => run::<ServeMix>(&args.params),
            "pagerank_bsp" => run::<PagerankBsp>(&args.params),
            "cell_mix" => run::<CellMix>(&args.params),
            _ => run::<ScanTiered>(&args.params),
        };
    }
    if !all_correct {
        std::process::exit(1);
    }
}
