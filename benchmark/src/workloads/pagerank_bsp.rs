//! `pagerank_bsp` — the paper's offline path (fig 12c/d, fig 13).
//!
//! `pagerank_distributed` on a social graph over 4 machines, one compute
//! thread each, packed messaging, default hub threshold. An op is one
//! superstep over the whole graph. 85–90 % of its CPU is message packing,
//! delivery and inbox sort (core.bsp + the net one-way path); serve, the
//! read cache and tfs do nothing, which makes this the bypass workload
//! for cache, serving and tiering changes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trinity_algos::{pagerank_distributed, pagerank_reference};
use trinity_core::{BspConfig, SuperstepHook};
use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity_memcloud::MemoryCloud;

use crate::gen::cloud_config;
use crate::harness::{LayerCtx, MetricSet, Tail, TrialOutput, Workload};
use crate::model::{graph_user_bytes, space_amp};
use crate::probes;
use crate::trace::Tracer;

const MACHINES: usize = 4;
/// Ranks may differ from the single-process reference by summation order
/// only.
const TOLERANCE: f64 = 1e-9;

struct Sizes {
    nodes: usize,
    degree: usize,
    iterations: usize,
}

const FULL: Sizes = Sizes {
    nodes: 15_000,
    degree: 16,
    iterations: 20,
};
const SMOKE: Sizes = Sizes {
    nodes: 2_000,
    degree: 8,
    iterations: 3,
};

/// Records when machine 0 enters each superstep: consecutive marks are
/// one superstep's wall time, barrier included.
#[derive(Default)]
struct StepClock {
    marks: Mutex<Vec<Instant>>,
}

impl SuperstepHook for StepClock {
    fn superstep_start(&self, machine: usize, _superstep: usize) {
        if machine == 0 {
            self.marks
                .lock()
                .expect("a BSP driver panicked")
                .push(Instant::now());
        }
    }
}

/// Counters of one run that the layer metrics need.
#[derive(Debug, Clone, Copy, Default)]
struct RunCounters {
    compute_cpu_s: f64,
    messages: u64,
    remote_messages: u64,
    supersteps: u64,
    modeled_s: f64,
}

/// The oracle: every rank within [`TOLERANCE`] of the reference, and
/// bit-identical to the first run of this process (the engine promises
/// determinism, not just accuracy).
pub fn ranks_are_correct(
    got: &HashMap<u64, u64>,
    reference: &HashMap<u64, f64>,
    first_run: Option<&HashMap<u64, u64>>,
) -> bool {
    got.len() == reference.len()
        && reference.iter().all(|(id, want)| {
            got.get(id)
                .is_some_and(|bits| (f64::from_bits(*bits) - want).abs() < TOLERANCE)
        })
        && first_run.is_none_or(|first| first == got)
}

pub struct PagerankBsp {
    seed: u64,
    sizes: &'static Sizes,
    csr: Csr,
    cloud: Arc<MemoryCloud>,
    graph: Arc<DistributedGraph>,
    reference: HashMap<u64, f64>,
    first_run: Option<HashMap<u64, u64>>,
    counters: Vec<RunCounters>,
    load_s: f64,
}

impl Workload for PagerankBsp {
    const NAME: &'static str = "pagerank_bsp";
    /// 21 supersteps a trial are too few for a per-trial tail: pool them.
    const TAIL: Tail = Tail::Pooled(0.90);

    fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let csr = trinity_graphgen::social(sizes.nodes, sizes.degree, seed);
        let cloud = Arc::new(MemoryCloud::new(cloud_config(MACHINES, 4)));
        let t_load = Instant::now();
        let graph = Arc::new(
            load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default())
                .expect("load the social graph"),
        );
        let load_s = t_load.elapsed().as_secs_f64();
        PagerankBsp {
            seed,
            sizes,
            csr,
            cloud,
            graph,
            reference: HashMap::new(),
            first_run: None,
            counters: Vec::new(),
            load_s,
        }
    }

    fn prepare(&mut self) {
        self.reference = pagerank_reference(&self.csr, self.sizes.iterations);
    }

    fn cloud(&self) -> &Arc<MemoryCloud> {
        &self.cloud
    }

    fn run_trial(&mut self, trial: usize, tracer: Option<&Tracer>) -> TrialOutput {
        let clock = Arc::new(StepClock::default());
        let cfg = BspConfig {
            compute_threads: 1,
            superstep_hook: Some(Arc::clone(&clock) as Arc<dyn SuperstepHook>),
            ..BspConfig::default()
        };
        let begun = Instant::now();
        let result = pagerank_distributed(Arc::clone(&self.graph), self.sizes.iterations, cfg);
        let ended = Instant::now();

        let mut marks = std::mem::take(&mut *clock.marks.lock().expect("a BSP driver panicked"));
        marks.push(ended);
        let steps: Vec<(Instant, Instant)> = marks.windows(2).map(|w| (w[0], w[1])).collect();
        if let Some(t) = tracer {
            let run = t.reserve();
            for (i, &(s, e)) in steps.iter().enumerate() {
                t.span(run, i as u64, "core.bsp_superstep", s, e);
            }
            t.record(run, 0, trial as u64, "core.bsp_run", begun, ended);
        }

        let bits: HashMap<u64, u64> = result
            .states
            .iter()
            .map(|(&id, s)| (id, s.rank.to_bits()))
            .collect();
        let expected_steps = self.sizes.iterations + 1;
        let correct = result.terminated
            && result.reports.len() == expected_steps
            && steps.len() == expected_steps
            && ranks_are_correct(&bits, &self.reference, self.first_run.as_ref());
        if self.first_run.is_none() {
            self.first_run = Some(bits);
        }
        if trial > 0 {
            self.counters.push(RunCounters {
                compute_cpu_s: result.reports.iter().map(|r| r.compute_cpu_seconds).sum(),
                messages: result
                    .reports
                    .iter()
                    .map(|r| r.remote_messages + r.local_messages)
                    .sum(),
                remote_messages: result.reports.iter().map(|r| r.remote_messages).sum(),
                supersteps: result.reports.len() as u64,
                modeled_s: result.modeled_seconds(),
            });
        }
        // A wrong or non-deterministic rank vector fails every superstep
        // of the run: no latency of it is reported.
        let attempted = expected_steps as u64;
        if correct {
            TrialOutput {
                attempted,
                failed: 0,
                lat_us: steps
                    .iter()
                    .map(|&(s, e)| (e - s).as_secs_f64() * 1e6)
                    .collect(),
            }
        } else {
            TrialOutput {
                attempted,
                failed: attempted,
                lat_us: Vec::new(),
            }
        }
    }

    fn space_amp(&mut self) -> f64 {
        space_amp(&self.cloud, graph_user_bytes(&self.csr, |_| 0))
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "graph",
                format!(
                    "social(n={}, degree={}, seed={})",
                    self.sizes.nodes, self.sizes.degree, self.seed
                ),
            ),
            (
                "cluster",
                format!("{MACHINES} machines, workers_per_machine=4, compute_threads=1"),
            ),
            (
                "bsp",
                format!(
                    "{} iterations = {} supersteps per trial, packed messaging, hub threshold \
                     128, no combiner",
                    self.sizes.iterations,
                    self.sizes.iterations + 1
                ),
            ),
            (
                "load",
                "the BSP runner itself: 4 machine drivers".to_string(),
            ),
            (
                "tail",
                "p90 of the superstep samples pooled over the measured trials".into(),
            ),
        ]
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut MetricSet) {
        out.set(
            "core.bsp_superstep_us",
            ctx.span_p50_us("core.bsp_superstep"),
        );
        let sum = |f: &dyn Fn(&RunCounters) -> f64| -> f64 { self.counters.iter().map(f).sum() };
        let compute = sum(&|c| c.compute_cpu_s);
        let cpu = ctx.total_cpu_s();
        let messages = sum(&|c| c.messages as f64);
        let supersteps = sum(&|c| c.supersteps as f64);
        if cpu > 0.0 && messages > 0.0 && supersteps > 0.0 {
            out.set("core.bsp_compute_cpu_share", compute / cpu);
            out.set("core.bsp_msg_cpu_ns", (cpu - compute) * 1e9 / messages);
            out.set(
                "core.bsp_remote_msgs_per_superstep",
                sum(&|c| c.remote_messages as f64) / supersteps,
            );
            out.set(
                "core.bsp_modeled_s",
                sum(&|c| c.modeled_s) / self.counters.len() as f64,
            );
        }
        probes::graph(&self.cloud, self.sizes.nodes, self.load_s, out);
    }

    fn shutdown(self) {
        self.cloud.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_inaccurate_and_non_deterministic_ranks() {
        let reference: HashMap<u64, f64> = [(0, 0.25), (1, 0.75)].into();
        let exact: HashMap<u64, u64> = reference.iter().map(|(&k, v)| (k, v.to_bits())).collect();
        assert!(ranks_are_correct(&exact, &reference, None));
        assert!(ranks_are_correct(&exact, &reference, Some(&exact)));
        // Within tolerance of the reference but not the same bits as the
        // first run: not deterministic, so not correct.
        let mut wobble = exact.clone();
        wobble.insert(1, (0.75 + 1e-12f64).to_bits());
        assert!(ranks_are_correct(&wobble, &reference, None));
        assert!(!ranks_are_correct(&wobble, &reference, Some(&exact)));
        // A deliberately wrong expectation must fail.
        let wrong: HashMap<u64, f64> = [(0, 0.25), (1, 0.5)].into();
        assert!(!ranks_are_correct(&exact, &wrong, None));
        let missing: HashMap<u64, u64> = [(0, 0.25f64.to_bits())].into();
        assert!(!ranks_are_correct(&missing, &reference, None));
    }

    #[test]
    fn smoke_trial_passes_its_oracle_and_fails_a_corrupted_reference() {
        let mut w = PagerankBsp::setup(11, true);
        w.prepare();
        let out = w.run_trial(1, None);
        assert_eq!(out.attempted, (SMOKE.iterations + 1) as u64);
        assert_eq!(out.failed, 0);
        assert_eq!(out.lat_us.len(), SMOKE.iterations + 1);
        *w.reference.get_mut(&0).unwrap() += 1e-6;
        let out = w.run_trial(2, None);
        assert_eq!(out.failed, out.attempted);
        w.shutdown();
    }
}
