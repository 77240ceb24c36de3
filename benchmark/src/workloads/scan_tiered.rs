//! `scan_tiered` — graphs larger than RAM (paper §5.4, DESIGN §15).
//!
//! A social graph on 4 machines with a memory budget of half the largest
//! per-machine working set, scanned bucket by bucket through
//! `BucketPrefetcher`: each superstep every machine runs the prefetcher
//! hook, then `resident_trunk` + `for_each_cell` over the scheduled
//! bucket, decoding each node record and folding out-degree and payload
//! into a checksum. ≈70 % of the time is spill/fault (`TrunkSnapshot`
//! encode/restore, TFS replicated writes, the tier state machine), ≈30 %
//! the local trunk scan; the fabric and the serving runtime do nothing.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use trinity_core::{BucketPrefetcher, SuperstepHook};
use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions, NodeView};
use trinity_memcloud::MemoryCloud;

use crate::gen::cloud_config;
use crate::harness::{LayerCtx, MetricSet, Tail, TrialOutput, Workload};
use crate::model::{graph_user_bytes, space_amp};
use crate::probes;
use crate::stats::percentile;
use crate::trace::Tracer;

const MACHINES: usize = 4;
const BUCKETS: usize = 4;
const DRIVERS: usize = 2;
/// Resident budget as a share of the largest per-machine working set.
const BUDGET_SHARE: f64 = 0.5;

struct Sizes {
    nodes: usize,
    degree: usize,
    supersteps: usize,
}

const FULL: Sizes = Sizes {
    nodes: 48_000,
    degree: 16,
    supersteps: 240,
};
const SMOKE: Sizes = Sizes {
    nodes: 8_000,
    degree: 8,
    supersteps: 16,
};

/// Fold one node cell into a checksum: FNV-1a over the id, the decoded
/// out-degree and every payload byte.
fn fold_cell(id: u64, payload: &[u8]) -> u64 {
    let degree = NodeView::new(payload).map_or(u64::MAX, |v| v.out_degree() as u64);
    let mut h = (id ^ 0xcbf2_9ce4_8422_2325).wrapping_mul(0x1000_0000_01b3) ^ degree;
    for &b in payload {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Checksum of one machine's scheduled bucket, through the tier-aware
/// accessor. `None` if a trunk could not be made resident.
fn scan_bucket(
    cloud: &MemoryCloud,
    prefetcher: &BucketPrefetcher,
    m: usize,
    superstep: usize,
    mut span: impl FnMut(&'static str, Instant, Instant),
) -> Option<u64> {
    let mut sum = 0u64;
    for &gid in prefetcher.bucket(m, superstep) {
        let t0 = Instant::now();
        let trunk = cloud.node(m).resident_trunk(gid).ok()?;
        let t1 = Instant::now();
        trunk.for_each_cell(|id, payload| sum = sum.wrapping_add(fold_cell(id, payload)));
        span("memcloud.resident_trunk", t0, t1);
        span("memstore.scan", t1, Instant::now());
    }
    Some(sum)
}

/// The oracle for one superstep: the machines' bucket checksums must add
/// up to what one fully resident pass computed during set-up.
pub fn superstep_is_correct(parts: &[Option<u64>], want: u64) -> bool {
    parts
        .iter()
        .try_fold(0u64, |acc, p| p.map(|v| acc.wrapping_add(v)))
        == Some(want)
}

pub struct ScanTiered {
    seed: u64,
    sizes: &'static Sizes,
    csr: Csr,
    cloud: Arc<MemoryCloud>,
    prefetcher: Arc<BucketPrefetcher>,
    /// Per bucket: Σ over machines of the resident-pass checksum.
    expected: Vec<u64>,
    budget: u64,
    working_set: u64,
    /// Supersteps run so far: the bucket schedule continues across trials.
    clock: usize,
    load_s: f64,
}

impl ScanTiered {
    /// Wait until no background fetch or spill has moved a trunk for a
    /// while, so the space reading sees a settled tier.
    fn quiesce(&self) {
        let moved = || {
            let s = self.cloud.tier_stats();
            s.spills + s.faults
        };
        let (mut last, mut calm) = (moved(), 0);
        while calm < 5 {
            std::thread::sleep(Duration::from_millis(10));
            let now = moved();
            calm = if now == last { calm + 1 } else { 0 };
            last = now;
        }
    }
}

impl Workload for ScanTiered {
    const NAME: &'static str = "scan_tiered";
    const TAIL: Tail = Tail::PerTrial(0.95);

    fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let csr = trinity_graphgen::social(sizes.nodes, sizes.degree, seed);
        let cloud = Arc::new(MemoryCloud::new(cloud_config(MACHINES, 4)));
        let t_load = Instant::now();
        let graph: Arc<DistributedGraph> = Arc::new(
            load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default())
                .expect("load the social graph"),
        );
        let load_s = t_load.elapsed().as_secs_f64();
        let working_set = cloud
            .nodes()
            .iter()
            .map(|n| {
                n.store()
                    .trunks()
                    .iter()
                    .map(|t| t.stats().used_bytes as u64)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        let prefetcher = BucketPrefetcher::new(graph, BUCKETS);
        // The oracle's reference: one pass with everything resident,
        // before any budget exists.
        let expected = (0..BUCKETS)
            .map(|b| {
                (0..MACHINES)
                    .map(|m| {
                        scan_bucket(&cloud, &prefetcher, m, b, |_, _, _| {})
                            .expect("resident trunks cannot fail to resolve")
                    })
                    .fold(0u64, u64::wrapping_add)
            })
            .collect();
        let budget = (working_set as f64 * BUDGET_SHARE) as u64;
        cloud.set_memory_budget(budget);
        ScanTiered {
            seed,
            sizes,
            csr,
            cloud,
            prefetcher,
            expected,
            budget,
            working_set,
            clock: 0,
            load_s,
        }
    }

    fn cloud(&self) -> &Arc<MemoryCloud> {
        &self.cloud
    }

    fn run_trial(&mut self, _trial: usize, tracer: Option<&Tracer>) -> TrialOutput {
        let steps = self.sizes.supersteps;
        let first = self.clock;
        self.clock += steps;
        let barrier = Barrier::new(DRIVERS);
        let (cloud, prefetcher) = (&self.cloud, &self.prefetcher);
        // Each driver owns MACHINES / DRIVERS machines; a barrier ends
        // every superstep, BSP style. Driver 0 times the supersteps.
        let per_driver: Vec<(Vec<Option<u64>>, Vec<f64>)> = std::thread::scope(|s| {
            let drivers: Vec<_> = (0..DRIVERS)
                .map(|d| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut sums = Vec::with_capacity(steps);
                        let mut lat_us = Vec::with_capacity(steps);
                        barrier.wait();
                        for step in first..first + steps {
                            let begun = Instant::now();
                            let mut sum = Some(0u64);
                            for m in (d..MACHINES).step_by(DRIVERS) {
                                let root = tracer.map_or(0, Tracer::reserve);
                                let t0 = Instant::now();
                                prefetcher.superstep_start(m, step);
                                let t1 = Instant::now();
                                let part = scan_bucket(cloud, prefetcher, m, step, |name, s, e| {
                                    if let Some(t) = tracer {
                                        t.span(root, step as u64, name, s, e);
                                    }
                                });
                                if let Some(t) = tracer {
                                    t.span(root, step as u64, "core.prefetch", t0, t1);
                                    t.record(
                                        root,
                                        0,
                                        step as u64,
                                        "scan.superstep",
                                        t0,
                                        Instant::now(),
                                    );
                                }
                                sum = sum.zip(part).map(|(a, b)| a.wrapping_add(b));
                            }
                            sums.push(sum);
                            barrier.wait();
                            lat_us.push(begun.elapsed().as_secs_f64() * 1e6);
                        }
                        (sums, lat_us)
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|h| h.join().expect("scan driver panicked"))
                .collect()
        });

        let mut out = TrialOutput {
            attempted: steps as u64,
            ..TrialOutput::default()
        };
        for i in 0..steps {
            let parts: Vec<Option<u64>> = per_driver.iter().map(|(sums, _)| sums[i]).collect();
            if superstep_is_correct(&parts, self.expected[(first + i) % BUCKETS]) {
                out.lat_us.push(per_driver[0].1[i]);
            } else {
                out.failed += 1;
            }
        }
        out
    }

    fn space_amp(&mut self) -> f64 {
        // With the pins gone, one sweep per machine brings every store
        // back under its budget: the state the reading describes.
        self.prefetcher.release();
        self.quiesce();
        for node in self.cloud.nodes() {
            let _ = node.enforce_budget();
        }
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
                format!("{MACHINES} machines, workers_per_machine=4, 8 trunks per machine"),
            ),
            (
                "tiering",
                format!(
                    "budget {} B = {BUDGET_SHARE} x largest per-machine working set ({} B), \
                     BucketPrefetcher with {BUCKETS} buckets",
                    self.budget, self.working_set
                ),
            ),
            (
                "load",
                format!(
                    "{DRIVERS} driver threads, {} machines each, barrier per superstep; {} \
                     supersteps per trial",
                    MACHINES / DRIVERS,
                    self.sizes.supersteps
                ),
            ),
            ("tail", "p95 per trial, best trial".into()),
        ]
    }

    fn layer_metrics(&mut self, _ctx: &LayerCtx<'_>, out: &mut MetricSet) {
        // `resident_trunk` on a trunk that is spilled right now: the full
        // fault-in path (TFS read, snapshot restore, budget sweep). Every
        // fault-in pushes another trunk out, so there is always a next one.
        let mut lat: Vec<f64> = Vec::new();
        'probe: for _ in 0..8 {
            for node in self.cloud.nodes() {
                let Some(&gid) = node.spilled_trunks().iter().min() else {
                    break 'probe;
                };
                let t0 = Instant::now();
                if node.resident_trunk(gid).is_ok() {
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        if !lat.is_empty() {
            out.set("memcloud.fault_in_us", percentile(&mut lat, 0.5));
        }
        self.quiesce();
        probes::graph(&self.cloud, self.sizes.nodes, self.load_s, out);
    }

    fn shutdown(self) {
        self.prefetcher.release();
        self.quiesce();
        self.cloud.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_sum_and_a_missing_part() {
        assert!(superstep_is_correct(&[Some(3), Some(4)], 7));
        assert!(superstep_is_correct(&[Some(u64::MAX), Some(2)], 1));
        // A deliberately wrong expectation must fail.
        assert!(!superstep_is_correct(&[Some(3), Some(4)], 8));
        assert!(!superstep_is_correct(&[Some(7), None], 7));
    }

    #[test]
    fn checksum_sees_every_byte_and_the_id() {
        let rec = trinity_graph::NodeRecord::with_outs(vec![], vec![1, 2, 3]).encode();
        let base = fold_cell(9, &rec);
        assert_ne!(base, fold_cell(10, &rec));
        let mut flipped = rec.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_ne!(base, fold_cell(9, &flipped));
    }

    #[test]
    fn smoke_trial_under_budget_matches_the_resident_pass() {
        let mut w = ScanTiered::setup(11, true);
        let out = w.run_trial(1, None);
        assert_eq!(out.attempted, SMOKE.supersteps as u64);
        assert_eq!(out.failed, 0);
        assert!(
            w.cloud.tier_stats().faults > 0,
            "the budget must force fault-ins, or the workload measures nothing"
        );
        // Corrupt one bucket's expectation: a quarter of the supersteps
        // must now fail.
        w.expected[0] ^= 1;
        let out = w.run_trial(2, None);
        assert_eq!(out.failed, (SMOKE.supersteps / BUCKETS) as u64);
        w.shutdown();
    }
}
