//! Incremental BSP: dirty-set-scheduled recomputation over a streaming
//! graph (§5.3 offline computation, kept fresh under §2's online
//! writes).
//!
//! [`IncrementalBsp`] drives a *pull-based* vertex program
//! ([`GatherProgram`]): each vertex's value is a pure function of the
//! global vertex count, its own previous value, and its in-neighborhood
//! signature `{(u, outdeg(u), value(u))}` with in-neighbors visited in
//! ascending id order. That purity is what makes incremental refresh
//! **bit-identical** to a from-scratch recompute:
//!
//! * **Layered programs** (`mode() == Layered(k)`, e.g. PageRank): the
//!   engine caches all `k+1` layers. After a batch, only vertices whose
//!   layer-`l` inputs changed are re-evaluated at layer `l` — the
//!   structurally dirty set ([`DirtySet`](crate::streaming::DirtySet), in-neighborhood signature
//!   rule) plus the value-propagation frontier (out-neighbors of
//!   vertices whose previous-layer value changed, plus those vertices
//!   themselves, since `prev` feeds the gather). Every skipped vertex
//!   provably has the same inputs as the full recompute at that layer,
//!   so every layer — not just the final one — matches bitwise.
//! * **Monotone fixpoint programs** (`mode() == MonotoneFixpoint`, e.g.
//!   min-label components): values move monotonically in a lattice and
//!   `gather` is idempotent in `prev`. Additions keep the cached
//!   fixpoint a valid pre-fixpoint, so chaotic iteration seeded with
//!   the dirty set reconverges to the *unique* fixpoint a from-scratch
//!   run reaches; any removal invalidates that argument and triggers a
//!   full recompute.
//!
//! When the dirty fraction exceeds
//! [`IncrementalConfig::fallback_threshold`], re-evaluating almost
//! everything layer by layer costs more than a clean start, so the
//! engine falls back to a full recompute (same code path, all vertices
//! dirty — identical results by construction).
//!
//! Freshness-lag (`incr.freshness_lag_us`) and dirty-fraction
//! (`incr.dirty_fraction_pct`) metrics are exported through a
//! [`trinity_obs::MachineScope`] when one is attached.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use trinity_graph::DistributedGraph;
use trinity_memcloud::CellId;
use trinity_obs::MachineScope;

use crate::streaming::{CommittedBatch, Mutation, Topology};

/// Global context handed to every gather call.
#[derive(Debug, Clone, Copy)]
pub struct GatherCtx {
    /// Current vertex count.
    pub n: u64,
}

/// One in-neighbor's contribution: its id, out-degree, and
/// previous-layer value.
#[derive(Debug, Clone, Copy)]
pub struct InContribution<V> {
    pub src: CellId,
    pub out_degree: u32,
    pub value: V,
}

/// How a program iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMode {
    /// Exactly `k` gather layers after init (superstep-indexed values).
    Layered(usize),
    /// Iterate to a fixpoint (monotone lattice; `gather` idempotent in
    /// `prev`), bounded by `max_rounds` as a divergence backstop.
    MonotoneFixpoint { max_rounds: usize },
}

/// A pull-based vertex program. The contract that makes incremental
/// scheduling exact: `gather`'s result may depend only on `ctx`, `id`,
/// `prev`, and `ins` — in particular **not** on the vertex's own
/// out-edges — and must be deterministic (same inputs, same bits).
pub trait GatherProgram: Sync {
    type Value: Copy + Send + Sync + std::fmt::Debug + 'static;

    fn mode(&self) -> GatherMode;

    /// Layer-0 value.
    fn init(&self, ctx: &GatherCtx, id: CellId) -> Self::Value;

    /// Compute the next value from the previous layer.
    fn gather(
        &self,
        ctx: &GatherCtx,
        id: CellId,
        prev: Self::Value,
        ins: &[InContribution<Self::Value>],
    ) -> Self::Value;

    /// Change detection (bitwise for floats).
    fn value_eq(&self, a: Self::Value, b: Self::Value) -> bool;

    /// Whether values depend on the global vertex count (any vertex
    /// add/remove then forces a full recompute).
    fn vertex_count_sensitive(&self) -> bool {
        true
    }
}

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// Worker threads for layer evaluation (contiguous chunking keeps
    /// results independent of the thread count).
    pub compute_threads: usize,
    /// Dirty fraction above which refresh falls back to a full
    /// recompute.
    pub fallback_threshold: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            compute_threads: 1,
            fallback_threshold: 0.2,
        }
    }
}

/// What one refresh did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefreshReport {
    /// Vertices in the graph after the batch.
    pub total_vertices: usize,
    /// Structurally dirty vertices (in-neighborhood signature rule).
    pub dirty_vertices: usize,
    /// `dirty_vertices / total_vertices`.
    pub dirty_fraction: f64,
    /// Whether the engine fell back to a full recompute.
    pub full_recompute: bool,
    /// Gather evaluations performed.
    pub evaluations: u64,
    /// Iteration rounds run (layers touched, or fixpoint rounds).
    pub rounds: usize,
    /// Wall-clock time of the refresh.
    pub wall: Duration,
}

/// The incremental driver. Owns a private [`Topology`] mirror, the
/// cached value layers, and the activation machinery.
pub struct IncrementalBsp<P: GatherProgram> {
    program: P,
    cfg: IncrementalConfig,
    topo: Topology,
    /// Vertex ids in ascending order; `layers[l][i]` is `ids[i]`'s
    /// layer-`l` value.
    ids: Vec<CellId>,
    pos: HashMap<CellId, usize>,
    layers: Vec<Vec<P::Value>>,
    /// Highest batch sequence number absorbed (duplicate deliveries of
    /// a batch are no-ops).
    applied_seq: u64,
    obs: Option<MachineScope>,
}

impl<P: GatherProgram> std::fmt::Debug for IncrementalBsp<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalBsp")
            .field("vertices", &self.ids.len())
            .field("layers", &self.layers.len())
            .field("applied_seq", &self.applied_seq)
            .finish()
    }
}

impl<P: GatherProgram> IncrementalBsp<P> {
    /// Build from a topology and run the initial full compute.
    pub fn new(program: P, topo: Topology, cfg: IncrementalConfig) -> Self {
        let mut engine = IncrementalBsp {
            program,
            cfg,
            topo,
            ids: Vec::new(),
            pos: HashMap::new(),
            layers: Vec::new(),
            applied_seq: 0,
            obs: None,
        };
        engine.full_compute();
        engine
    }

    /// Build by scanning a loaded distributed graph.
    pub fn from_graph(program: P, dg: &DistributedGraph, cfg: IncrementalConfig) -> Self {
        Self::new(program, Topology::from_graph(dg), cfg)
    }

    /// Attach a metric scope (freshness lag, dirty fraction, refresh
    /// counters are reported through it).
    pub fn with_obs(mut self, obs: MachineScope) -> Self {
        self.obs = Some(obs);
        self
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The gather program this engine runs.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Vertex ids, ascending; parallel to every layer slice.
    pub fn ids(&self) -> &[CellId] {
        &self.ids
    }

    /// Number of stored layers (layered mode: `k + 1`; fixpoint mode:
    /// `1`, the converged values).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Values at one layer, parallel to [`Self::ids`].
    pub fn layer_values(&self, layer: usize) -> Option<&[P::Value]> {
        self.layers.get(layer).map(|v| v.as_slice())
    }

    /// Final values as `(id, value)` pairs in ascending id order.
    pub fn values(&self) -> Vec<(CellId, P::Value)> {
        match self.layers.last() {
            Some(last) => self.ids.iter().copied().zip(last.iter().copied()).collect(),
            None => Vec::new(),
        }
    }

    /// Final value of one vertex.
    pub fn value(&self, id: CellId) -> Option<P::Value> {
        let &p = self.pos.get(&id)?;
        Some(self.layers.last()?[p])
    }

    /// Last absorbed batch sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Absorb one committed batch. Batches must arrive in order;
    /// duplicates (lost-ack replays) are skipped. The engine recomputes
    /// the dirty set from its own topology mirror — it never trusts the
    /// batch's reported dirty set.
    pub fn apply_batch(&mut self, batch: &CommittedBatch) -> RefreshReport {
        if batch.seq <= self.applied_seq {
            return RefreshReport {
                total_vertices: self.ids.len(),
                ..RefreshReport::default()
            };
        }
        self.applied_seq = batch.seq;
        let report = self.apply_mutations(&batch.mutations);
        if let Some(obs) = &self.obs {
            let lag = batch.committed_at.elapsed().as_micros() as i64;
            obs.gauge("incr.freshness_lag_us").set(lag);
        }
        report
    }

    /// Absorb raw mutations (the un-sequenced core path).
    pub fn apply_mutations(&mut self, mutations: &[Mutation]) -> RefreshReport {
        let start = Instant::now();
        let dirty = self.topo.apply_batch(mutations);
        let total = self.topo.len();
        let fraction = dirty.fraction(total);
        let go_full = match self.program.mode() {
            GatherMode::Layered(_) => {
                dirty.vertex_set_changed || fraction > self.cfg.fallback_threshold
            }
            GatherMode::MonotoneFixpoint { .. } => {
                dirty.removals
                    || fraction > self.cfg.fallback_threshold
                    || (dirty.vertex_set_changed && self.program.vertex_count_sensitive())
            }
        };
        let mut report = RefreshReport {
            total_vertices: total,
            dirty_vertices: dirty.len(),
            dirty_fraction: fraction,
            full_recompute: go_full,
            ..RefreshReport::default()
        };
        if go_full {
            let (evals, rounds) = self.full_compute();
            report.evaluations = evals;
            report.rounds = rounds;
        } else {
            let (evals, rounds) = match self.program.mode() {
                GatherMode::Layered(k) => self.refresh_layered(k, &dirty.vertices),
                GatherMode::MonotoneFixpoint { max_rounds } => {
                    self.refresh_fixpoint(max_rounds, &dirty)
                }
            };
            report.evaluations = evals;
            report.rounds = rounds;
        }
        report.wall = start.elapsed();
        if let Some(obs) = &self.obs {
            obs.counter("incr.batches").inc();
            obs.counter("incr.evals").add(report.evaluations);
            if report.full_recompute {
                obs.counter("incr.full_recomputes").inc();
            }
            obs.gauge("incr.dirty_fraction_pct")
                .set((report.dirty_fraction * 100.0) as i64);
        }
        report
    }

    /// Recompute everything from scratch (also the fallback path).
    /// Returns `(evaluations, rounds)`.
    pub fn full_compute(&mut self) -> (u64, usize) {
        self.ids = self.topo.ids().collect();
        self.pos = self
            .ids
            .iter()
            .copied()
            .enumerate()
            .map(|(i, id)| (id, i))
            .collect();
        let ctx = GatherCtx {
            n: self.ids.len() as u64,
        };
        let init: Vec<P::Value> = self
            .ids
            .iter()
            .map(|&id| self.program.init(&ctx, id))
            .collect();
        let mut evals = 0u64;
        match self.program.mode() {
            GatherMode::Layered(k) => {
                self.layers = Vec::with_capacity(k + 1);
                self.layers.push(init);
                let all: Vec<usize> = (0..self.ids.len()).collect();
                for _ in 0..k {
                    let prev = self.layers.last().expect("layer 0 exists");
                    let updates = self.eval_positions(&ctx, prev, &all);
                    evals += updates.len() as u64;
                    self.layers
                        .push(updates.into_iter().map(|(_, v)| v).collect());
                }
                (evals, k)
            }
            GatherMode::MonotoneFixpoint { max_rounds } => {
                let mut values = init;
                let all: Vec<usize> = (0..self.ids.len()).collect();
                let mut rounds = 0usize;
                while rounds < max_rounds {
                    let updates = self.eval_positions(&ctx, &values, &all);
                    evals += updates.len() as u64;
                    let mut changed = false;
                    let mut next = values.clone();
                    for (p, v) in updates {
                        if !self.program.value_eq(next[p], v) {
                            changed = true;
                        }
                        next[p] = v;
                    }
                    values = next;
                    rounds += 1;
                    if !changed {
                        break;
                    }
                }
                self.layers = vec![values];
                (evals, rounds)
            }
        }
    }

    /// Layered incremental refresh: per layer, re-evaluate the
    /// structurally dirty set plus the value-change frontier.
    fn refresh_layered(&mut self, k: usize, dirty: &BTreeSet<CellId>) -> (u64, usize) {
        let ctx = GatherCtx {
            n: self.ids.len() as u64,
        };
        let dirty_pos: BTreeSet<usize> = dirty
            .iter()
            .filter_map(|id| self.pos.get(id).copied())
            .collect();
        // Layer 0 (init) depends only on (id, n); both are unchanged on
        // this path, so the value-change frontier starts empty.
        let mut changed: Vec<usize> = Vec::new();
        let mut evals = 0u64;
        let mut rounds = 0usize;
        for l in 1..=k {
            let mut frontier: BTreeSet<usize> = dirty_pos.clone();
            for &p in &changed {
                frontier.insert(p);
                for &w in self.topo.outs(self.ids[p]) {
                    if let Some(&wp) = self.pos.get(&w) {
                        frontier.insert(wp);
                    }
                }
            }
            if frontier.is_empty() {
                break;
            }
            rounds += 1;
            let targets: Vec<usize> = frontier.into_iter().collect();
            let updates = {
                let prev = &self.layers[l - 1];
                self.eval_positions(&ctx, prev, &targets)
            };
            evals += updates.len() as u64;
            let layer = &mut self.layers[l];
            changed.clear();
            for (p, v) in updates {
                if !self.program.value_eq(layer[p], v) {
                    changed.push(p);
                }
                layer[p] = v;
            }
        }
        (evals, rounds)
    }

    /// Fixpoint incremental refresh (additions only): seed the
    /// activation set with the dirty vertices and chase value changes
    /// until quiet.
    fn refresh_fixpoint(
        &mut self,
        max_rounds: usize,
        dirty: &crate::streaming::DirtySet,
    ) -> (u64, usize) {
        if dirty.vertex_set_changed {
            // Additions only (removals forced a full recompute): splice
            // the new vertices in, keeping surviving values.
            let old_values: HashMap<CellId, P::Value> = self
                .ids
                .iter()
                .copied()
                .zip(
                    self.layers
                        .last()
                        .map(|l| l.iter().copied())
                        .into_iter()
                        .flatten(),
                )
                .collect();
            self.ids = self.topo.ids().collect();
            self.pos = self
                .ids
                .iter()
                .copied()
                .enumerate()
                .map(|(i, id)| (id, i))
                .collect();
            let ctx = GatherCtx {
                n: self.ids.len() as u64,
            };
            let values: Vec<P::Value> = self
                .ids
                .iter()
                .map(|&id| match old_values.get(&id) {
                    Some(&v) => v,
                    None => self.program.init(&ctx, id),
                })
                .collect();
            self.layers = vec![values];
        }
        let ctx = GatherCtx {
            n: self.ids.len() as u64,
        };
        let mut active: BTreeSet<usize> = dirty
            .vertices
            .iter()
            .filter_map(|id| self.pos.get(id).copied())
            .collect();
        let mut evals = 0u64;
        let mut rounds = 0usize;
        while !active.is_empty() && rounds < max_rounds {
            rounds += 1;
            let targets: Vec<usize> = active.iter().copied().collect();
            let updates = {
                let prev = self.layers.last().expect("fixpoint values exist");
                self.eval_positions(&ctx, prev, &targets)
            };
            evals += updates.len() as u64;
            let values = self.layers.last_mut().expect("fixpoint values exist");
            let mut changed: Vec<usize> = Vec::new();
            for (p, v) in updates {
                if !self.program.value_eq(values[p], v) {
                    changed.push(p);
                }
                values[p] = v;
            }
            active.clear();
            for p in changed {
                for &w in self.topo.outs(self.ids[p]) {
                    if let Some(&wp) = self.pos.get(&w) {
                        active.insert(wp);
                    }
                }
            }
        }
        (evals, rounds)
    }

    /// Evaluate `gather` for the given positions against `prev`,
    /// returning `(position, value)` in position order. Work is split
    /// into contiguous chunks across the configured threads; chunk
    /// boundaries cannot affect any value, so the result is independent
    /// of the thread count.
    fn eval_positions(
        &self,
        ctx: &GatherCtx,
        prev: &[P::Value],
        targets: &[usize],
    ) -> Vec<(usize, P::Value)> {
        let threads = self.cfg.compute_threads.max(1).min(targets.len().max(1));
        let eval_one = |p: usize, scratch: &mut Vec<InContribution<P::Value>>| {
            let id = self.ids[p];
            scratch.clear();
            for &u in self.topo.ins(id) {
                let up = self.pos[&u];
                scratch.push(InContribution {
                    src: u,
                    out_degree: self.topo.out_degree(u) as u32,
                    value: prev[up],
                });
            }
            (p, self.program.gather(ctx, id, prev[p], scratch))
        };
        if threads <= 1 {
            let mut scratch = Vec::new();
            return targets.iter().map(|&p| eval_one(p, &mut scratch)).collect();
        }
        let chunk = targets.len().div_ceil(threads);
        let mut out = Vec::with_capacity(targets.len());
        let eval_one = &eval_one;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for part in targets.chunks(chunk) {
                handles.push(scope.spawn(move || {
                    let mut scratch = Vec::new();
                    part.iter()
                        .map(|&p| eval_one(p, &mut scratch))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                out.extend(h.join().expect("gather worker panicked"));
            }
        });
        out
    }
}

// --- Canonical programs -------------------------------------------------

/// Pull-based PageRank: `rank(v) = (1-d)/n + d·Σ rank(u)/outdeg(u)`
/// over in-neighbors in ascending id order (bit-reproducible float
/// accumulation). Dangling mass is not redistributed — it leaks, as in
/// `trinity_algos`' push-based reference on dangling-free graphs.
#[derive(Debug, Clone, Copy)]
pub struct PageRankGather {
    pub iterations: usize,
    pub damping: f64,
}

impl Default for PageRankGather {
    fn default() -> Self {
        PageRankGather {
            iterations: 10,
            damping: 0.85,
        }
    }
}

impl GatherProgram for PageRankGather {
    type Value = f64;

    fn mode(&self) -> GatherMode {
        GatherMode::Layered(self.iterations)
    }

    fn init(&self, ctx: &GatherCtx, _id: CellId) -> f64 {
        1.0 / ctx.n as f64
    }

    fn gather(&self, ctx: &GatherCtx, _id: CellId, _prev: f64, ins: &[InContribution<f64>]) -> f64 {
        let mut acc = (1.0 - self.damping) / ctx.n as f64;
        for c in ins {
            acc += self.damping * (c.value / c.out_degree as f64);
        }
        acc
    }

    fn value_eq(&self, a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }
}

/// Monotone min-label propagation: every vertex converges to the
/// smallest id that reaches it (on symmetric edge sets: its weakly
/// connected component's minimum id). Additions refine incrementally;
/// removals force a full recompute.
#[derive(Debug, Clone, Copy)]
pub struct MinLabel {
    pub max_rounds: usize,
}

impl Default for MinLabel {
    fn default() -> Self {
        MinLabel {
            max_rounds: 1 << 20,
        }
    }
}

impl GatherProgram for MinLabel {
    type Value = u64;

    fn mode(&self) -> GatherMode {
        GatherMode::MonotoneFixpoint {
            max_rounds: self.max_rounds,
        }
    }

    fn init(&self, _ctx: &GatherCtx, id: CellId) -> u64 {
        id
    }

    fn gather(&self, _ctx: &GatherCtx, _id: CellId, prev: u64, ins: &[InContribution<u64>]) -> u64 {
        let mut best = prev;
        for c in ins {
            best = best.min(c.value);
        }
        best
    }

    fn value_eq(&self, a: u64, b: u64) -> bool {
        a == b
    }

    fn vertex_count_sensitive(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::Mutation;

    fn ring(n: u64) -> Topology {
        let mut t = Topology::new();
        for v in 0..n {
            t.add_edge(v, (v + 1) % n);
        }
        t
    }

    fn assert_matches_fresh(engine: &IncrementalBsp<PageRankGather>) {
        let fresh = IncrementalBsp::new(
            PageRankGather::default(),
            engine.topology().clone(),
            IncrementalConfig::default(),
        );
        for l in 0..engine.num_layers() {
            let a = engine.layer_values(l).unwrap();
            let b = fresh.layer_values(l).unwrap();
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "layer {l} vertex {} diverged: {x} vs {y}",
                    engine.ids()[i]
                );
            }
        }
    }

    #[test]
    fn incremental_pagerank_is_bit_identical_to_fresh() {
        let mut engine = IncrementalBsp::new(
            PageRankGather::default(),
            ring(32),
            IncrementalConfig::default(),
        );
        // A small edge change: incremental path.
        let r = engine.apply_mutations(&[Mutation::AddEdge(3, 17)]);
        assert!(!r.full_recompute, "2 dirty of 32 is under the threshold");
        assert!(r.evaluations > 0);
        assert_matches_fresh(&engine);
        // A second, overlapping change.
        let r = engine.apply_mutations(&[Mutation::RemoveEdge(3, 17), Mutation::AddEdge(5, 3)]);
        assert!(!r.full_recompute);
        assert_matches_fresh(&engine);
    }

    #[test]
    fn vertex_set_change_forces_full_recompute_for_pagerank() {
        let mut engine = IncrementalBsp::new(
            PageRankGather::default(),
            ring(16),
            IncrementalConfig::default(),
        );
        let r = engine.apply_mutations(&[Mutation::AddVertex(99)]);
        assert!(r.full_recompute, "n changed; every init value changed");
        assert_matches_fresh(&engine);
    }

    #[test]
    fn dirty_fraction_over_threshold_falls_back() {
        let mut engine = IncrementalBsp::new(
            PageRankGather::default(),
            ring(16),
            IncrementalConfig {
                compute_threads: 1,
                fallback_threshold: 0.1,
            },
        );
        // Rewire a third of the ring: way past 10%.
        let muts: Vec<Mutation> = (0..6u64)
            .map(|v| Mutation::AddEdge(v, (v + 8) % 16))
            .collect();
        let r = engine.apply_mutations(&muts);
        assert!(r.full_recompute);
        assert_matches_fresh(&engine);
    }

    #[test]
    fn incremental_is_cheaper_than_full_for_small_changes() {
        let mut engine = IncrementalBsp::new(
            PageRankGather::default(),
            ring(256),
            IncrementalConfig::default(),
        );
        let full_evals = 256 * PageRankGather::default().iterations as u64;
        let r = engine.apply_mutations(&[Mutation::AddEdge(10, 100)]);
        assert!(!r.full_recompute);
        assert!(
            r.evaluations < full_evals / 2,
            "evaluated {} of {} full evals",
            r.evaluations,
            full_evals
        );
        assert_matches_fresh(&engine);
    }

    #[test]
    fn min_label_additions_reconverge_incrementally() {
        // Two rings; a new edge merges them.
        let mut t = ring(8);
        for v in 100..108u64 {
            t.add_edge(v, if v == 107 { 100 } else { v + 1 });
        }
        let mut engine = IncrementalBsp::new(MinLabel::default(), t, IncrementalConfig::default());
        assert_eq!(engine.value(5), Some(0));
        assert_eq!(engine.value(103), Some(100));
        let r = engine.apply_mutations(&[Mutation::AddEdge(3, 100)]);
        assert!(!r.full_recompute, "pure addition refines incrementally");
        for v in 100..108u64 {
            assert_eq!(engine.value(v), Some(0), "merged component relabels");
        }
        // Removals force the full path.
        let r = engine.apply_mutations(&[Mutation::RemoveEdge(3, 100)]);
        assert!(r.full_recompute);
        assert_eq!(engine.value(103), Some(100));
    }

    #[test]
    fn thread_count_does_not_change_any_layer() {
        let topo = ring(64);
        let base = IncrementalBsp::new(
            PageRankGather::default(),
            topo.clone(),
            IncrementalConfig {
                compute_threads: 1,
                ..IncrementalConfig::default()
            },
        );
        for threads in [2usize, 4, 8] {
            let other = IncrementalBsp::new(
                PageRankGather::default(),
                topo.clone(),
                IncrementalConfig {
                    compute_threads: threads,
                    ..IncrementalConfig::default()
                },
            );
            for l in 0..base.num_layers() {
                let a = base.layer_values(l).unwrap();
                let b = other.layer_values(l).unwrap();
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "threads={threads} layer={l} diverged"
                );
            }
        }
    }

    #[test]
    fn duplicate_batch_delivery_is_a_noop() {
        let mut engine = IncrementalBsp::new(
            PageRankGather::default(),
            ring(16),
            IncrementalConfig::default(),
        );
        let batch = CommittedBatch {
            seq: 1,
            mutations: vec![Mutation::AddEdge(2, 9)],
            dirty: Default::default(),
            commit_us: 0,
            committed_at: Instant::now(),
        };
        let r1 = engine.apply_batch(&batch);
        assert!(r1.evaluations > 0);
        let snapshot: Vec<u64> = engine
            .layer_values(engine.num_layers() - 1)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let r2 = engine.apply_batch(&batch);
        assert_eq!(r2.evaluations, 0, "replayed batch must be skipped");
        let after: Vec<u64> = engine
            .layer_values(engine.num_layers() - 1)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(snapshot, after);
    }
}
