//! The trial loop shared by every workload.
//!
//! One process = set-up (repeated, timed) + one warm-up trial + N
//! identical measured trials of fixed work. Every timing metric is
//! computed per trial and reported as the median over trials; counts are
//! summed over the measured trials. The traced run interleaves untraced
//! and traced trials of the same work, so it can report its own overhead.

use std::sync::Arc;
use std::time::Instant;

use trinity_memcloud::{CacheStats, MemoryCloud};
use trinity_net::StatsDelta;
use trinity_obs::Json;

use crate::model::{self, TfsTraffic};
use crate::probes;
use crate::proc::{self, Usage};
use crate::stats::{self, median, percentile, samples_beyond, MIN_BEYOND};
use crate::trace::{self, Span, Tracer};

/// An untraced run repeats its set-up until it has spent this long on
/// set-ups, within [`SETUP_REPEATS`]; `setup_s` is the median repeat.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=25;

/// (name, unit, better) of every end-to-end metric, in print order. The
/// bounds live in BENCHMARK.json.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("tail_us", "us", "lower"),
    ("cpu_us_per_op", "us", "lower"),
    ("net_model_us_per_op", "us", "lower"),
    ("space_amp", "ratio", "lower"),
    ("setup_s", "s", "lower"),
];

/// (name, unit, better) of every per-layer metric. A metric of a layer
/// the workload does not reach is printed as 0: the "bypass" prediction
/// made checkable.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.queue_wait_us", "us", "lower"),
    ("serve.overhead_us", "us", "lower"),
    ("serve.noop_rtt_us", "us", "lower"),
    ("serve.shed_count", "count", "lower"),
    ("serve.expired_count", "count", "lower"),
    ("core.explore_2hop_us", "us", "lower"),
    ("core.explore_3hop_us", "us", "lower"),
    ("core.explore_visited_per_query", "count", "lower"),
    ("core.bsp_superstep_us", "us", "lower"),
    ("core.bsp_compute_cpu_share", "ratio", "higher"),
    ("core.bsp_msg_cpu_ns", "ns", "lower"),
    ("core.bsp_remote_msgs_per_superstep", "count", "lower"),
    ("core.bsp_modeled_s", "s", "lower"),
    ("core.prefetch_hit_ratio", "ratio", "higher"),
    ("memcloud.get_local_us", "us", "lower"),
    ("memcloud.get_remote_us", "us", "lower"),
    ("memcloud.put_remote_us", "us", "lower"),
    ("memcloud.append_remote_us", "us", "lower"),
    ("memcloud.multi_get16_us", "us", "lower"),
    ("memcloud.cache_hit_ratio", "ratio", "higher"),
    ("memcloud.cache_evictions", "count", "lower"),
    ("memcloud.cache_invalidations", "count", "lower"),
    ("memcloud.tier_spills", "count", "lower"),
    ("memcloud.tier_faults", "count", "lower"),
    ("memcloud.tier_spill_bytes_per_op", "bytes", "lower"),
    ("memcloud.fault_in_us", "us", "lower"),
    ("net.call_rtt_us", "us", "lower"),
    ("net.oneway_frames_per_s", "1/s", "higher"),
    ("net.envelopes_per_op", "count", "lower"),
    ("net.bytes_per_op", "bytes", "lower"),
    ("net.frames_per_envelope", "ratio", "higher"),
    ("net.frame_copy_ratio", "ratio", "lower"),
    ("memstore.get_ns", "ns", "lower"),
    ("memstore.put_ns", "ns", "lower"),
    ("memstore.scan_ns_per_cell", "ns", "lower"),
    ("memstore.dead_ratio", "ratio", "lower"),
    ("memstore.defrag_passes", "count", "lower"),
    ("memstore.defrag_moved_bytes", "bytes", "lower"),
    ("memstore.snapshot_encode_mb_s", "MB/s", "higher"),
    ("memstore.snapshot_restore_mb_s", "MB/s", "higher"),
    ("tsl.read_ns", "ns", "lower"),
    ("tsl.encode_ns", "ns", "lower"),
    ("tfs.write_mb_s", "MB/s", "higher"),
    ("tfs.read_mb_s", "MB/s", "higher"),
    ("tfs.bytes_stored", "bytes", "lower"),
    ("graph.load_cells_per_s", "1/s", "higher"),
    ("graph.decode_ns_per_node", "ns", "lower"),
    ("graph.out_neighbors_remote_us", "us", "lower"),
    ("proc.ctx_switches_per_op", "count", "lower"),
    ("proc.sys_cpu_share", "ratio", "lower"),
    ("proc.rss_peak_mb", "MB", "lower"),
    ("proc.threads_peak", "count", "lower"),
    ("bench.trial_spread_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Command-line choices for one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Measured trials (the traced run splits them into untraced/traced
    /// pairs).
    pub trials: usize,
    pub trace: bool,
    pub smoke: bool,
}

/// Which tail a workload reports (BENCHMARK.json records the same).
#[derive(Debug, Clone, Copy)]
pub enum Tail {
    /// Percentile within each trial, then the median over trials.
    PerTrial(f64),
    /// Percentile of the samples pooled over the measured trials — for a
    /// workload with too few ops per trial for a per-trial tail.
    Pooled(f64),
}

/// What one trial of fixed work produced.
#[derive(Debug, Default)]
pub struct TrialOutput {
    pub attempted: u64,
    /// Ops that errored, were shed, expired, came back partial or
    /// disagreed with the oracle. They count as missing every latency
    /// figure: `lat_us` holds correct ops only.
    pub failed: u64,
    pub lat_us: Vec<f64>,
}

impl TrialOutput {
    pub fn correct_ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// One measured trial with everything the harness read around it.
pub struct Measured {
    pub traced: bool,
    pub wall_s: f64,
    pub usage: Usage,
    pub net: StatsDelta,
    pub frame_copy_bytes: u64,
    pub frame_payload_bytes: u64,
    pub tfs: TfsTraffic,
    pub cache: CacheStats,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    pub out: TrialOutput,
}

impl Measured {
    pub fn ops_per_s(&self) -> f64 {
        self.out.correct_ops() as f64 / self.wall_s
    }
}

/// Named values in print order.
pub struct MetricSet {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl MetricSet {
    fn zeroed(table: &[(&'static str, &'static str, &'static str)]) -> Self {
        MetricSet {
            items: table.iter().map(|&(n, u, _)| (n, 0.0, u)).collect(),
        }
    }

    /// Set a metric declared in the table; an undeclared name is a bug in
    /// the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .items
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.items
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1)
    }

    fn print(&self) {
        for (name, value, unit) in &self.items {
            println!("  {name:<38} {value:>16.4} {unit}");
        }
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.items
                .iter()
                .map(|&(n, v, u)| {
                    (
                        n.to_string(),
                        Json::obj([("value", Json::F64(v)), ("unit", Json::Str(u.to_string()))]),
                    )
                })
                .collect(),
        )
    }
}

/// What the traced run hands a workload for its own layer metrics.
pub struct LayerCtx<'a> {
    pub trials: &'a [Measured],
    pub spans: &'a [Span],
}

impl LayerCtx<'_> {
    /// Median duration (µs) of the spans called `name`; 0 with none.
    pub fn span_p50_us(&self, name: &str) -> f64 {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            percentile(&mut d, 0.5)
        }
    }

    pub fn total_cpu_s(&self) -> f64 {
        self.trials.iter().map(|t| t.usage.cpu_s()).sum()
    }
}

/// One benchmark workload: generated inputs, a loaded cluster, a fixed
/// op sequence per trial and an oracle for every op.
pub trait Workload: Sized {
    const NAME: &'static str;
    const TAIL: Tail;

    /// Generate the inputs from `seed`, bring the cluster up and load it.
    /// Timed: this is `setup_s`.
    fn setup(seed: u64, smoke: bool) -> Self;

    /// Compute the oracle's reference results (the benchmark's own work,
    /// not timed as set-up).
    fn prepare(&mut self) {}

    fn cloud(&self) -> &Arc<MemoryCloud>;

    /// Run trial number `trial` (0 is the warm-up): the same amount of
    /// work every time, every op checked against the oracle.
    fn run_trial(&mut self, trial: usize, tracer: Option<&Tracer>) -> TrialOutput;

    /// Bytes the system holds (resident trunks + every TFS replica) per
    /// live user payload byte as the benchmark's own model counts them,
    /// read after the last measured trial.
    fn space_amp(&mut self) -> f64;

    /// Sizes, thread counts and policies, printed beside the results.
    fn config(&self) -> Vec<(&'static str, String)>;

    /// Workload-specific layer metrics: spans, replays and probes.
    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut MetricSet);

    fn shutdown(self);
}

fn frame_counter(cloud: &MemoryCloud, name: &'static str) -> u64 {
    cloud
        .fabric()
        .obs()
        .scopes()
        .iter()
        .map(|s| s.counter(name).get())
        .sum()
}

fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: after.invalidations - before.invalidations,
        evictions: after.evictions - before.evictions,
        prefetch_errors: after.prefetch_errors - before.prefetch_errors,
        entries: after.entries,
    }
}

fn measure<W: Workload>(w: &mut W, trial: usize, tracer: Option<&Tracer>) -> Measured {
    let cloud = Arc::clone(w.cloud());
    let replication = probes::tfs_replication(&cloud);
    let net0 = cloud.fabric().total_stats();
    let copy0 = frame_counter(&cloud, "net.frame_copy_bytes");
    let payload0 = frame_counter(&cloud, "net.frame_payload_bytes");
    let tier0 = cloud.tier_stats();
    let cache0 = cloud.cache_stats();
    let usage0 = Usage::now();
    let t0 = Instant::now();
    let out = w.run_trial(trial, tracer);
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = Usage::now().since(&usage0);
    let tier1 = cloud.tier_stats();
    Measured {
        traced: tracer.is_some(),
        wall_s,
        usage,
        net: net0.delta_to(&cloud.fabric().total_stats()),
        frame_copy_bytes: frame_counter(&cloud, "net.frame_copy_bytes") - copy0,
        frame_payload_bytes: frame_counter(&cloud, "net.frame_payload_bytes") - payload0,
        tfs: TfsTraffic::between(&tier0, &tier1, replication),
        cache: cache_delta(&cache0, &cloud.cache_stats()),
        prefetch_hits: tier1.prefetch_hits - tier0.prefetch_hits,
        prefetch_misses: tier1.prefetch_misses - tier0.prefetch_misses,
        out,
    }
}

/// `--smoke`: one short trial, oracles only, no metrics.
fn smoke<W: Workload>(seed: u64) -> bool {
    let mut w = W::setup(seed, true);
    w.prepare();
    let out = w.run_trial(1, None);
    w.shutdown();
    let ok = out.failed == 0 && out.attempted > 0;
    println!(
        "smoke {:<14} seed {seed}: {} ops, {} failed — {}",
        W::NAME,
        out.attempted,
        out.failed,
        if ok { "ok" } else { "ORACLE MISMATCH" }
    );
    ok
}

/// Median over trials of a per-trial percentile; 0 if no trial has a
/// correct op.
fn median_percentile(trials: &[&Measured], q: f64) -> f64 {
    let per_trial: Vec<f64> = trials
        .iter()
        .filter(|t| !t.out.lat_us.is_empty())
        .map(|t| percentile(&mut t.out.lat_us.clone(), q))
        .collect();
    if per_trial.is_empty() {
        0.0
    } else {
        median(&per_trial)
    }
}

fn median_over(trials: &[&Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    median(&trials.iter().map(|t| f(t)).collect::<Vec<_>>())
}

fn tail_us(trials: &[&Measured], tail: Tail) -> f64 {
    let fewest = |n: usize, q: f64| {
        assert!(
            n == 0 || samples_beyond(n, q) >= MIN_BEYOND,
            "tail p{} of {n} samples has fewer than {MIN_BEYOND} beyond it",
            q * 100.0
        );
    };
    match tail {
        Tail::PerTrial(q) => {
            for t in trials {
                fewest(t.out.lat_us.len(), q);
            }
            median_percentile(trials, q)
        }
        Tail::Pooled(q) => {
            let mut pooled: Vec<f64> = trials
                .iter()
                .flat_map(|t| t.out.lat_us.iter().copied())
                .collect();
            fewest(pooled.len(), q);
            if pooled.is_empty() {
                0.0
            } else {
                percentile(&mut pooled, q)
            }
        }
    }
}

fn total_ops(trials: &[&Measured]) -> u64 {
    trials.iter().map(|t| t.out.correct_ops()).sum()
}

fn end_to_end(trials: &[&Measured], tail: Tail, space_amp: f64, setup_s: f64) -> MetricSet {
    let ops = total_ops(trials).max(1) as f64;
    let net_s: f64 = trials
        .iter()
        .map(|t| model::net_model_seconds(&t.net, &t.tfs))
        .sum();
    let mut m = MetricSet::zeroed(END_TO_END);
    m.set("ops_per_s", median_over(trials, Measured::ops_per_s));
    m.set("p50_us", median_percentile(trials, 0.5));
    m.set("tail_us", tail_us(trials, tail));
    m.set(
        "cpu_us_per_op",
        median_over(trials, |t| {
            t.usage.cpu_s() * 1e6 / t.out.correct_ops().max(1) as f64
        }),
    );
    m.set("net_model_us_per_op", net_s * 1e6 / ops);
    m.set("space_amp", space_amp);
    m.set("setup_s", setup_s);
    m
}

/// Layer metrics every workload shares: traffic, cache, tiering, process
/// and the benchmark's own noise, all from the measured trials.
fn shared_layer_metrics(
    all: &[Measured],
    overhead_pct: f64,
    threads_peak: u64,
    out: &mut MetricSet,
) {
    let ops = all.iter().map(|t| t.out.correct_ops()).sum::<u64>().max(1) as f64;
    let sum = |f: &dyn Fn(&Measured) -> u64| -> f64 { all.iter().map(f).sum::<u64>() as f64 };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let envelopes = sum(&|t| t.net.remote_envelopes);
    out.set("net.envelopes_per_op", envelopes / ops);
    out.set("net.bytes_per_op", sum(&|t| t.net.remote_bytes) / ops);
    out.set(
        "net.frames_per_envelope",
        ratio(sum(&|t| t.net.remote_frames), envelopes),
    );
    out.set(
        "net.frame_copy_ratio",
        ratio(
            sum(&|t| t.frame_copy_bytes),
            sum(&|t| t.frame_payload_bytes),
        ),
    );

    let (hits, misses) = (sum(&|t| t.cache.hits), sum(&|t| t.cache.misses));
    out.set("memcloud.cache_hit_ratio", ratio(hits, hits + misses));
    out.set("memcloud.cache_evictions", sum(&|t| t.cache.evictions));
    out.set(
        "memcloud.cache_invalidations",
        sum(&|t| t.cache.invalidations),
    );

    out.set("memcloud.tier_spills", sum(&|t| t.tfs.writes));
    out.set("memcloud.tier_faults", sum(&|t| t.tfs.reads));
    out.set(
        "memcloud.tier_spill_bytes_per_op",
        sum(&|t| t.tfs.write_bytes) / ops,
    );
    let (pre_hit, pre_miss) = (sum(&|t| t.prefetch_hits), sum(&|t| t.prefetch_misses));
    out.set(
        "core.prefetch_hit_ratio",
        ratio(pre_hit, pre_hit + pre_miss),
    );

    let cpu: f64 = all.iter().map(|t| t.usage.cpu_s()).sum();
    out.set(
        "proc.ctx_switches_per_op",
        sum(&|t| t.usage.ctx_switches) / ops,
    );
    out.set(
        "proc.sys_cpu_share",
        ratio(all.iter().map(|t| t.usage.sys_s).sum(), cpu),
    );
    out.set("proc.rss_peak_mb", Usage::now().max_rss_kb as f64 / 1024.0);
    out.set("proc.threads_peak", threads_peak as f64);

    let untraced: Vec<f64> = all
        .iter()
        .filter(|t| !t.traced)
        .map(Measured::ops_per_s)
        .collect();
    out.set("bench.trial_spread_pct", stats::spread_pct(&untraced));
    out.set("bench.trace_overhead_pct", overhead_pct);
}

fn out_dir() -> std::path::PathBuf {
    // The driver runs from the repository root; a developer may run from
    // inside benchmark/.
    if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

fn print_config<W: Workload>(w: &W, p: &Params, measured: usize) {
    println!("## {} (seed {})", W::NAME, p.seed);
    println!(
        "  config: trials=1 warm-up + {measured} measured{} tfs_replication={} \
         defrag=explicit sweep only, no daemon",
        if p.trace {
            " (untraced/traced pairs)"
        } else {
            ""
        },
        probes::tfs_replication(w.cloud()),
    );
    for (k, v) in w.config() {
        println!("  config: {k}={v}");
    }
}

/// Run one workload end to end and print its result line. Returns
/// whether every op was correct.
pub fn run<W: Workload>(p: &Params) -> bool {
    if p.smoke {
        return smoke::<W>(p.seed);
    }
    // Set-up, repeated so `setup_s` is a median rather than one reading
    // (the traced run reports no `setup_s` and sets up once).
    let mut setups: Vec<f64> = Vec::new();
    let mut w = loop {
        let t0 = Instant::now();
        let w = W::setup(p.seed, false);
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= *SETUP_REPEATS.start()
            && (setups.iter().sum::<f64>() >= SETUP_BUDGET_S
                || setups.len() == *SETUP_REPEATS.end());
        if p.trace || enough {
            break w;
        }
        w.shutdown();
    };
    w.prepare();

    let tracer = Tracer::new();
    let warm = measure(&mut w, 0, None);
    let mut threads_peak = proc::thread_count();
    let measured_trials = if p.trace {
        p.trials.max(2) & !1
    } else {
        p.trials
    };
    let mut all: Vec<Measured> = Vec::with_capacity(measured_trials);
    for i in 0..measured_trials {
        // Traced run: odd trials record spans, even ones do not, so the
        // overhead figure compares like with like inside one process.
        let traced = p.trace && i % 2 == 1;
        all.push(measure(&mut w, i + 1, traced.then_some(&tracer)));
        threads_peak = threads_peak.max(proc::thread_count());
    }

    let space_amp = w.space_amp();

    print_config(&w, p, measured_trials);
    println!(
        "  warm-up trial: {:.3} s, {} ops, {} failed",
        warm.wall_s, warm.out.attempted, warm.out.failed
    );
    for (i, t) in all.iter().enumerate() {
        let p50 = median_percentile(&[t], 0.5);
        println!(
            "  trial {}{}: {:.3} s wall, {:.3} s cpu, {} ops, {} failed, {:.1} ops/s, p50 {p50:.1} us",
            i + 1,
            if t.traced { " (traced)" } else { "" },
            t.wall_s,
            t.usage.cpu_s(),
            t.out.attempted,
            t.out.failed,
            t.ops_per_s()
        );
    }

    let attempted: u64 = warm.out.attempted + all.iter().map(|t| t.out.attempted).sum::<u64>();
    let failed: u64 = warm.out.failed + all.iter().map(|t| t.out.failed).sum::<u64>();
    let correct = failed == 0;

    let metrics = if p.trace {
        let untraced: Vec<&Measured> = all.iter().filter(|t| !t.traced).collect();
        let traced: Vec<&Measured> = all.iter().filter(|t| t.traced).collect();
        let rate = |ts: &[&Measured]| median_over(ts, Measured::ops_per_s);
        let overhead_pct = (rate(&untraced) - rate(&traced)) / rate(&untraced) * 100.0;
        let spans = tracer.spans();
        let mut m = MetricSet::zeroed(PER_LAYER);
        shared_layer_metrics(&all, overhead_pct, threads_peak, &mut m);
        probes::shared(w.cloud(), &mut m);
        w.layer_metrics(
            &LayerCtx {
                trials: &all,
                spans: &spans,
            },
            &mut m,
        );
        write_trace(W::NAME, p.seed, &spans);
        println!("  self time by span name (span minus the part its children cover):");
        for (name, t) in trace::self_times(&spans) {
            println!(
                "    {name:<28} n={:<8} total {:>12.1} us  self {:>12.1} us",
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            );
        }
        m
    } else {
        let trials: Vec<&Measured> = all.iter().collect();
        end_to_end(&trials, W::TAIL, space_amp, median(&setups))
    };
    w.shutdown();

    println!("  ops attempted {attempted}, failed {failed}");
    metrics.print();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(attempted)),
            ("failed", Json::U64(failed)),
            ("metrics", metrics.json()),
        ])
    );
    correct
}

fn write_trace(workload: &str, seed: u64, spans: &[Span]) {
    let dir = out_dir();
    let path = dir.join(format!("{workload}.trace.json"));
    let doc = trace::trace_json(workload, seed, spans);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{doc}\n"))) {
        Ok(()) => println!("  trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("  trace: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(wall_s: f64, lat: &[f64]) -> Measured {
        Measured {
            traced: false,
            wall_s,
            usage: Usage {
                user_s: wall_s,
                ..Usage::default()
            },
            net: StatsDelta::default(),
            frame_copy_bytes: 0,
            frame_payload_bytes: 0,
            tfs: TfsTraffic::default(),
            cache: CacheStats::default(),
            prefetch_hits: 0,
            prefetch_misses: 0,
            out: TrialOutput {
                attempted: lat.len() as u64,
                failed: 0,
                lat_us: lat.to_vec(),
            },
        }
    }

    #[test]
    fn timing_metrics_are_medians_over_trials() {
        let lat: Vec<f64> = (1..=2_000).map(f64::from).collect();
        let ts = [trial(1.0, &lat), trial(2.0, &lat), trial(10.0, &lat)];
        let refs: Vec<&Measured> = ts.iter().collect();
        let m = end_to_end(&refs, Tail::PerTrial(0.99), 1.5, 0.25);
        assert_eq!(m.get("ops_per_s"), 1_000.0);
        assert_eq!(m.get("p50_us"), 1_000.0);
        assert_eq!(m.get("tail_us"), 1_980.0);
        assert_eq!(m.get("cpu_us_per_op"), 1_000.0);
        assert_eq!(m.get("space_amp"), 1.5);
        assert_eq!(m.get("setup_s"), 0.25);
    }

    #[test]
    fn failed_ops_lower_throughput_and_carry_no_latency() {
        let mut t = trial(1.0, &[5.0; 90]);
        t.out.attempted = 100;
        t.out.failed = 10;
        assert_eq!(t.ops_per_s(), 90.0);
    }

    #[test]
    #[should_panic(expected = "fewer than 10 beyond")]
    fn a_tail_with_too_few_samples_beyond_it_is_refused() {
        let t = trial(1.0, &[1.0; 500]);
        tail_us(&[&t], Tail::PerTrial(0.99));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
