//! The differential oracle for streaming mutations.
//!
//! Every mutation batch committed through [`StreamingIngest`] is
//! applied to a single-threaded reference graph ([`Topology`]), and at
//! **every batch boundary** three graphs must be equal: the reference,
//! the mutation log replayed over the seed, and the store read back
//! cell by cell through a rotating machine, with every in-list the
//! exact reverse of the out-lists ([`Topology::read_back`]).

use std::sync::Arc;

use trinity::core::minitx::TxService;
use trinity::core::{Mutation, MutationBatch, StreamingIngest, Topology};
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

/// Drive `batches` random batches through the ingest, submitting and
/// reading back through a different machine each time, and check the
/// reference, the log replay and the store at every commit.
fn run_oracle(seed: u64, batches: usize) {
    let n = 10u64;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
    let machines = cloud.machines();
    let svc = TxService::install(Arc::clone(&cloud));
    let seed_topo = seed_ring(&cloud, n);
    let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);

    let mut reference = seed_topo.clone();
    let mut rng = seed | 1;
    for k in 0..batches {
        let batch = gen_batch(&mut rng, n, 4);
        ingest
            .commit_batch(k % machines, &batch)
            .expect("commit batch");
        for m in &batch.mutations {
            reference.apply(m);
        }
        let at = format!("batch {k}");
        let replayed = ingest.log().replay_onto(seed_topo.clone());
        assert_eq!(replayed, reference, "{at}: log replay != reference");
        let store = Topology::read_back(&cloud, (k + 1) % machines, 0..n + 8)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(store, reference, "{at}: store read-back != reference");
    }
    cloud.shutdown();
}

#[test]
fn ingest_oracle_seed_101() {
    run_oracle(0x101, 24);
}

#[test]
fn ingest_oracle_seed_7e57() {
    run_oracle(0x7E57, 24);
}

/// Two threads commit through one ingest, each growing its own star of
/// fresh vertices, so every batch leaves a mark no other batch erases.
/// The log must hold every batch either thread saw commit: replay over
/// the empty seed equals the store.
#[test]
fn two_writers_through_one_ingest_lose_no_batch() {
    const PER_WRITER: u64 = 400;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
    let machines = cloud.machines();
    let svc = TxService::install(Arc::clone(&cloud));
    let ingest = StreamingIngest::new(Arc::clone(&cloud), svc, 0);
    // Writer `w` owns ids `w * span..(w + 1) * span`: 8 hubs, then one
    // fresh vertex per batch.
    let span = 8 + PER_WRITER;
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let ingest = &ingest;
            s.spawn(move || {
                let base = w * span;
                for k in 0..PER_WRITER {
                    let batch =
                        MutationBatch::new(vec![Mutation::AddEdge(base + k % 8, base + 8 + k)]);
                    ingest
                        .commit_batch((w + k) as usize % machines, &batch)
                        .expect("commit batch");
                }
            });
        }
    });
    assert_eq!(ingest.log().len() as u64, 2 * PER_WRITER);
    let replayed = ingest.log().replay_onto(Topology::new());
    assert_eq!(replayed.len() as u64, 2 * span);
    let store = Topology::read_back(&cloud, 1, 0..2 * span).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(store, replayed, "store read-back != log replay");
    cloud.shutdown();
}
