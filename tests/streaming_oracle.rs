//! The differential oracle for streaming mutations.
//!
//! Every mutation batch committed through [`StreamingIngest`] is
//! replayed against a single-threaded reference graph ([`Topology`]),
//! and at **every batch boundary** the incremental engine's values must
//! be bit-identical to a from-scratch recompute on the reference — for
//! the layered program (PageRank) and the monotone-fixpoint program
//! (min-label), across the fallback paths (removals, vertex-set
//! changes, dirty fractions over the threshold).
//!
//! The oracle also pins the storage story: after the stream, the
//! mutation log replayed over the seed equals the reference *and* the
//! store read back cell by cell.

use std::sync::Arc;

use trinity::core::incremental::GatherProgram;
use trinity::core::minitx::TxService;
use trinity::core::{
    IncrementalBsp, IncrementalConfig, MinLabel, Mutation, MutationBatch, PageRankGather,
    StreamingIngest, Topology,
};
use trinity::graph::NodeRecord;
use trinity::memcloud::{CloudConfig, MemoryCloud};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Seed the cloud with a directed ring of `n` vertices (in-links
/// maintained) and return the matching reference topology.
fn seed_ring(cloud: &MemoryCloud, n: u64) -> Topology {
    let mut topo = Topology::new();
    for v in 0..n {
        let rec = NodeRecord {
            attrs: Vec::new(),
            outs: vec![(v + 1) % n],
            ins: Some(vec![(v + n - 1) % n]),
        };
        cloud.node(0).put(v, &rec.encode()).unwrap();
        topo.add_edge(v, (v + 1) % n);
    }
    topo
}

/// A deterministic batch over the id universe `0..n + 8`, biased toward
/// additions but exercising all four mutations.
fn gen_batch(rng: &mut u64, n: u64, size: usize) -> MutationBatch {
    let mut muts = Vec::with_capacity(size);
    for _ in 0..size {
        let kind = xorshift(rng) % 10;
        let a = xorshift(rng) % (n + 8);
        let b = xorshift(rng) % (n + 8);
        muts.push(match kind {
            0 => Mutation::AddVertex(n + xorshift(rng) % 8),
            1 => Mutation::RemoveVertex(a),
            2 | 3 => Mutation::RemoveEdge(a, b),
            _ => Mutation::AddEdge(a, b),
        });
    }
    MutationBatch::new(muts)
}

/// Bit-identity of the incremental engine against a from-scratch
/// recompute on the same (reference) topology, every layer.
fn assert_bit_identical<P>(engine: &IncrementalBsp<P>, reference: &Topology, at: &str)
where
    P: GatherProgram + Clone,
    P::Value: BitEq,
{
    assert_eq!(
        engine.topology(),
        reference,
        "{at}: engine mirror diverged from the reference graph"
    );
    let fresh = IncrementalBsp::new(
        engine.program().clone(),
        reference.clone(),
        IncrementalConfig::default(),
    );
    assert_eq!(engine.num_layers(), fresh.num_layers(), "{at}: layer count");
    for l in 0..fresh.num_layers() {
        let (a, b) = (
            engine.layer_values(l).unwrap(),
            fresh.layer_values(l).unwrap(),
        );
        assert_eq!(a.len(), b.len(), "{at}: layer {l} width");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.bit_eq(y),
                "{at}: layer {l} slot {i}: incremental {x:?} != fresh {y:?}"
            );
        }
    }
}

/// Exact (bitwise) equality — the oracle tolerates no accumulation
/// reordering at all.
trait BitEq: std::fmt::Debug {
    fn bit_eq(&self, other: &Self) -> bool;
}
impl BitEq for f64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}
impl BitEq for u64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self == other
    }
}

/// Drive `batches` random batches through the ingest, checking the
/// oracle for `program` at every commit, then pin log-vs-store.
fn run_oracle<P>(program: P, seed: u64, batches: usize)
where
    P: GatherProgram + Clone,
    P::Value: BitEq,
{
    let n = 10u64;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
    let svc = TxService::install(Arc::clone(&cloud));
    let seed_topo = seed_ring(&cloud, n);
    let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);

    let mut reference = seed_topo.clone();
    let mut engine = IncrementalBsp::new(program, seed_topo.clone(), IncrementalConfig::default());
    assert_bit_identical(&engine, &reference, "seed");

    let mut rng = seed | 1;
    for k in 0..batches {
        let batch = gen_batch(&mut rng, n, 4);
        let committed = ingest
            .commit_batch(k % cloud.machines(), &batch)
            .expect("commit batch");
        // The single-threaded reference applies the same mutations.
        reference.apply_batch(&committed.mutations);
        engine.apply_batch(&committed);
        assert_bit_identical(&engine, &reference, &format!("batch {k}"));
    }

    // Storage story: log replay over the seed equals the reference and
    // the store, cell by cell.
    let replayed = ingest.log().replay_onto(seed_topo);
    assert_eq!(replayed, reference, "log replay != reference");
    let mut store = Topology::new();
    for v in 0..n + 8 {
        if let Some(bytes) = cloud.node(1).get(v).unwrap() {
            let rec = NodeRecord::decode(&bytes).unwrap();
            store.add_vertex(v);
            for w in rec.outs {
                store.add_edge(v, w);
            }
        }
    }
    assert_eq!(store, reference, "store read-back != reference");
    cloud.shutdown();
}

#[test]
fn pagerank_oracle_seed_101() {
    run_oracle(PageRankGather::default(), 0x101, 24);
}

#[test]
fn pagerank_oracle_seed_7e57() {
    run_oracle(PageRankGather::default(), 0x7E57, 24);
}

#[test]
fn minlabel_oracle_seed_101() {
    run_oracle(MinLabel::default(), 0x101, 24);
}

#[test]
fn minlabel_oracle_seed_7e57() {
    run_oracle(MinLabel::default(), 0x7E57, 24);
}

/// A crafted stream that walks every incremental path in order: pure
/// additions (in-place refresh), an over-threshold batch (dirty-fraction
/// fallback), a removal (fixpoint full-recompute fallback), and a
/// duplicate batch (no-op replay) — each boundary oracle-checked above;
/// this test pins the *reports* so the fast paths are actually taken.
#[test]
fn refresh_reports_walk_every_path() {
    let n = 32u64;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
    let svc = TxService::install(Arc::clone(&cloud));
    let seed_topo = seed_ring(&cloud, n);
    let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);
    let mut reference = seed_topo.clone();
    let mut engine = IncrementalBsp::new(
        PageRankGather::default(),
        seed_topo,
        IncrementalConfig::default(),
    );

    // One edge between far-apart ring vertices: small dirty set, no
    // vertex-set change → incremental path.
    let b1 = ingest
        .commit_batch(0, &MutationBatch::new(vec![Mutation::AddEdge(2, 9)]))
        .unwrap();
    reference.apply_batch(&b1.mutations);
    let r1 = engine.apply_batch(&b1);
    assert!(!r1.full_recompute, "small additive batch stays incremental");
    assert!(r1.dirty_fraction < 0.2, "{}", r1.dirty_fraction);
    assert_bit_identical(&engine, &reference, "additive");

    // Rewire a third of the ring at once: dirty fraction over the 0.2
    // threshold → full-recompute fallback.
    let big: Vec<Mutation> = (0..n / 3).map(|v| Mutation::AddEdge(v, v + 2)).collect();
    let b2 = ingest.commit_batch(0, &MutationBatch::new(big)).unwrap();
    reference.apply_batch(&b2.mutations);
    let r2 = engine.apply_batch(&b2);
    assert!(r2.full_recompute, "over-threshold batch must fall back");
    assert_bit_identical(&engine, &reference, "over-threshold");

    // A duplicate submission commits as a no-op: nothing dirty, no work.
    let b3 = ingest
        .commit_batch(0, &MutationBatch::new(vec![Mutation::AddEdge(2, 9)]))
        .unwrap();
    reference.apply_batch(&b3.mutations);
    let r3 = engine.apply_batch(&b3);
    assert_eq!(r3.dirty_vertices, 0, "duplicate batch dirties nothing");
    assert_eq!(r3.evaluations, 0, "duplicate batch evaluates nothing");
    assert_bit_identical(&engine, &reference, "duplicate");

    // A stale redelivery of an old batch (same seq) is skipped outright.
    let r4 = engine.apply_batch(&b1);
    assert_eq!(r4.evaluations, 0, "stale seq must be skipped");
    assert_bit_identical(&engine, &reference, "stale redelivery");
    cloud.shutdown();
}

/// The dirty-set scheduler's reason to exist, as a count: a single-edge
/// batch on a 400-vertex ring dirties under 5 % of the graph, stays on
/// the incremental path and runs strictly fewer gather evaluations than
/// a from-scratch build of the same graph — while landing on the same
/// bits.
#[test]
fn single_edge_refresh_evaluates_less_than_a_from_scratch_build() {
    let n = 400u64;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
    let svc = TxService::install(Arc::clone(&cloud));
    let seed_topo = seed_ring(&cloud, n);
    let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);
    let mut reference = seed_topo.clone();
    let mut engine = IncrementalBsp::new(
        PageRankGather::default(),
        seed_topo,
        IncrementalConfig::default(),
    );
    for rep in 0..5u64 {
        let a = rep * 37 % n;
        let batch = MutationBatch::new(vec![Mutation::AddEdge(a, (a + n / 3) % n)]);
        let committed = ingest.commit_batch(0, &batch).unwrap();
        reference.apply_batch(&committed.mutations);
        let report = engine.apply_batch(&committed);
        assert!(!report.full_recompute, "rep {rep} fell back to a rebuild");
        assert!(report.dirty_fraction < 0.05, "{}", report.dirty_fraction);
        let (full_evals, _) = IncrementalBsp::new(
            PageRankGather::default(),
            reference.clone(),
            IncrementalConfig::default(),
        )
        .full_compute();
        assert!(
            report.evaluations > 0 && report.evaluations < full_evals,
            "rep {rep}: {} incremental evaluations, {full_evals} from scratch",
            report.evaluations
        );
        assert_bit_identical(&engine, &reference, "single edge");
    }
    cloud.shutdown();
}
