//! Regression: a mutation batch racing an online trunk migration must
//! fully land or cleanly abort — never split across the flip.
//!
//! Each batch writes *paired* cells (an edge updates the source's
//! out-list and the destination's in-list) through mini-transactions
//! whose prepare phase carries the epoch fence: a participant that
//! observes `Moved{epoch}` mid-2PC aborts the whole batch rather than
//! applying its half. These tests hammer a migrating trunk with
//! cross-trunk edge batches through the seal window and the table flip,
//! then prove atomicity from the storage itself: the mutation log
//! replayed over the seed equals the store read-back, and every
//! in-list is exactly the reverse of the out-lists — a split pair
//! would break the reciprocity.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use trinity::core::minitx::TxService;
use trinity::core::{Mutation, MutationBatch, StreamingIngest, Topology};
use trinity::elastic::{MigrationConfig, MigrationEngine, MigrationPhase};
use trinity::graph::NodeRecord;
use trinity::memcloud::{CloudConfig, MemoryCloud};
use trinity::net::MachineId;

/// Seed a directed ring of `n` vertices (in-links maintained) and
/// return the matching reference topology.
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

/// Read every vertex record back through `via` and check it against
/// `expect`: same edge set, and every in-list is the exact reverse of
/// the out-lists. A batch split across the flip would leave an edge
/// present on one side only.
fn assert_store_matches(cloud: &MemoryCloud, via: usize, n: u64, expect: &Topology) {
    let store = Topology::read_back(cloud, via, 0..n).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(&store, expect, "store read-back != log replay");
}

/// Commit `batch`, re-submitting through the next machine on transport
/// errors (set semantics make replays no-ops; the compare fences make
/// half-application impossible). Returns how many attempts it took.
fn commit_with_retry(ingest: &StreamingIngest, machines: usize, batch: &MutationBatch) -> usize {
    for attempt in 0..100 {
        if ingest.commit_batch(attempt % machines, batch).is_ok() {
            return attempt + 1;
        }
    }
    panic!("batch did not commit within 100 attempts");
}

#[test]
fn mutation_batches_never_split_across_a_trunk_flip() {
    let n = 96u64;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig {
        standby_machines: 1,
        ..CloudConfig::small(3)
    }));
    let machines = cloud.machines();
    let svc = TxService::install(Arc::clone(&cloud));
    let seed_topo = seed_ring(&cloud, n);
    let ingest = Arc::new(StreamingIngest::new(Arc::clone(&cloud), svc, 1));

    // The migrating trunk and the seed vertices that live in it: every
    // batch pairs one of these with a vertex elsewhere, so the 2PC
    // always spans the moving trunk.
    let table = cloud.node(0).table();
    let trunk = table.trunks_of(MachineId(0))[0];
    let targets: Vec<u64> = (0..n).filter(|&v| table.trunk_of(v) == trunk).collect();
    assert!(
        !targets.is_empty(),
        "the seed must populate the migrating trunk"
    );

    // A background writer hammers the moving trunk with cross-trunk
    // edge batches for the whole migration, re-submitting on error.
    let stop = Arc::new(AtomicBool::new(false));
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let writer = {
        let ingest = Arc::clone(&ingest);
        let stop = Arc::clone(&stop);
        let targets = targets.clone();
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let a = targets[(k as usize) % targets.len()];
                let b = (a + 3 + k * 7) % n;
                let batch = MutationBatch::new(vec![
                    Mutation::AddEdge(a, b),
                    Mutation::RemoveEdge(a, (a + 3 + k.saturating_sub(4) * 7) % n),
                ]);
                commit_with_retry(&ingest, machines, &batch);
                k += 1;
                let _ = started_tx.send(());
            }
            k
        })
    };
    // The move starts once the writer is demonstrably writing: on a
    // loaded host the whole migration can otherwise finish before the
    // writer thread is first scheduled.
    started_rx.recv().expect("the writer landed a batch");

    // Synchronous batches at the dangerous phases too: during the
    // stream (rides the delta log) and right before the seal (the last
    // pre-fence commit).
    let hook_ingest = Arc::clone(&ingest);
    let hook_target = targets[0];
    let engine = MigrationEngine::new(MigrationConfig {
        chunk_cells: 8,
        ..MigrationConfig::default()
    })
    .with_phase_hook(move |phase, _| {
        let edge = match phase {
            MigrationPhase::Stream => Mutation::AddEdge(hook_target, (hook_target + 11) % n),
            MigrationPhase::Seal => Mutation::AddEdge(hook_target, (hook_target + 13) % n),
            _ => return,
        };
        commit_with_retry(&hook_ingest, machines, &MutationBatch::new(vec![edge]));
    });
    let report = engine
        .migrate_trunk(&cloud, trunk, MachineId(3))
        .expect("migration under write load");
    assert_eq!(report.to, MachineId(3));
    stop.store(true, Ordering::Relaxed);
    let batches = writer.join().unwrap();
    assert!(batches > 0, "the writer must land batches during the move");

    // Post-flip: a batch against the moved trunk commits on the new
    // owner through the refreshed table.
    commit_with_retry(
        &ingest,
        machines,
        &MutationBatch::new(vec![Mutation::AddEdge(targets[0], (targets[0] + 17) % n)]),
    );

    // Atomicity, from storage: the log replay over the seed is exactly
    // the store, and in/out lists stay reciprocal.
    let expect = ingest.log().replay_onto(seed_topo);
    for via in 0..machines {
        assert_store_matches(&cloud, via, n, &expect);
    }
    cloud.shutdown();
}

/// The same race, but the trunk moves *back and forth* twice, so
/// batches cross flips in both directions and through re-seals of a
/// trunk that already migrated once.
#[test]
fn mutation_batches_survive_repeated_flips() {
    let n = 64u64;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig {
        standby_machines: 1,
        ..CloudConfig::small(3)
    }));
    let machines = cloud.machines();
    let svc = TxService::install(Arc::clone(&cloud));
    let seed_topo = seed_ring(&cloud, n);
    let ingest = Arc::new(StreamingIngest::new(Arc::clone(&cloud), svc, 1));
    let table = cloud.node(0).table();
    let trunk = table.trunks_of(MachineId(0))[0];
    let targets: Vec<u64> = (0..n).filter(|&v| table.trunk_of(v) == trunk).collect();
    assert!(!targets.is_empty());

    let stop = Arc::new(AtomicBool::new(false));
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let writer = {
        let ingest = Arc::clone(&ingest);
        let stop = Arc::clone(&stop);
        let targets = targets.clone();
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let a = targets[(k as usize) % targets.len()];
                let batch = MutationBatch::new(vec![Mutation::AddEdge(a, (a + 5 + k * 3) % n)]);
                commit_with_retry(&ingest, machines, &batch);
                k += 1;
                let _ = started_tx.send(());
            }
            k
        })
    };
    // As above: flips start once the writer is demonstrably writing.
    started_rx.recv().expect("the writer landed a batch");
    let engine = MigrationEngine::new(MigrationConfig {
        chunk_cells: 8,
        ..MigrationConfig::default()
    });
    for &to in &[3u16, 0, 3] {
        let report = engine
            .migrate_trunk(&cloud, trunk, MachineId(to))
            .expect("repeated migration under write load");
        assert_eq!(report.to, MachineId(to));
    }
    stop.store(true, Ordering::Relaxed);
    assert!(writer.join().unwrap() > 0);

    let expect = ingest.log().replay_onto(seed_topo);
    assert_store_matches(&cloud, 2, n, &expect);
    cloud.shutdown();
}
