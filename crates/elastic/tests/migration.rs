//! End-to-end migration tests over a simulated memory cloud: cells
//! survive the move, concurrent writes land exactly once, and the
//! cluster operations (join, drain, rebalance) leave every cell
//! readable through every machine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use trinity_elastic::{
    cluster_trunk_scores, placement_imbalance, MigrationConfig, MigrationEngine, MigrationPhase,
};
use trinity_memcloud::{migration, AddressingTable, CloudConfig, MemoryCloud, TFS_TABLE_PATH};
use trinity_net::MachineId;

fn cloud_with_standby(machines: usize, standby: usize) -> MemoryCloud {
    MemoryCloud::new(CloudConfig {
        standby_machines: standby,
        ..CloudConfig::small(machines)
    })
}

/// Ids that route to `trunk` under the cloud's table.
fn ids_in_trunk(cloud: &MemoryCloud, trunk: u64, n: usize) -> Vec<u64> {
    let table = cloud.node(0).table();
    (0u64..)
        .filter(|&i| table.trunk_of(i) == trunk)
        .take(n)
        .collect()
}

/// A trunk owned by `m` (the first one).
fn trunk_of_machine(cloud: &MemoryCloud, m: u16) -> u64 {
    cloud.node(0).table().trunks_of(MachineId(m))[0]
}

#[test]
fn migrate_trunk_moves_cells_and_bumps_epoch() {
    let cloud = cloud_with_standby(3, 1);
    for i in 0..300u64 {
        cloud.node(0).put(i, format!("v{i}").as_bytes()).unwrap();
    }
    let trunk = trunk_of_machine(&cloud, 0);
    let before_epoch = cloud.node(0).table().epoch;
    let engine = MigrationEngine::new(MigrationConfig::default());
    let report = engine
        .migrate_trunk(&cloud, trunk, MachineId(3))
        .expect("migration");
    assert_eq!(report.from, MachineId(0));
    assert_eq!(report.to, MachineId(3));
    assert!(report.cells_moved > 0, "the trunk must carry cells");
    assert_eq!(report.epoch, before_epoch + 1);
    // The recipient owns the trunk on every replica, and every cell
    // reads back through every machine.
    for m in 0..4 {
        assert_eq!(
            cloud.node(m).table().machine_for(trunk),
            MachineId(3),
            "replica {m} still routes the trunk to the donor"
        );
    }
    for i in 0..300u64 {
        for m in 0..4 {
            assert_eq!(
                cloud.node(m).get(i).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "cell {i} via machine {m} after migration"
            );
        }
    }
    // Writes to the moved trunk land on the new owner.
    let id = ids_in_trunk(&cloud, trunk, 1)[0];
    cloud.node(1).put(id, b"post-flip").unwrap();
    assert_eq!(cloud.node(3).get(id).unwrap().unwrap(), b"post-flip");
    cloud.shutdown();
}

#[test]
fn migrating_to_current_owner_is_a_noop() {
    let cloud = cloud_with_standby(3, 0);
    let trunk = trunk_of_machine(&cloud, 1);
    let before = cloud.node(0).table().epoch;
    let engine = MigrationEngine::new(MigrationConfig::default());
    let report = engine.migrate_trunk(&cloud, trunk, MachineId(1)).unwrap();
    assert_eq!(report.cells_moved, 0);
    assert_eq!(report.epoch, before, "a no-op must not bump the epoch");
    cloud.shutdown();
}

#[test]
fn writes_during_stream_and_catchup_are_replayed() {
    let cloud = cloud_with_standby(3, 1);
    let trunk = trunk_of_machine(&cloud, 0);
    let ids = ids_in_trunk(&cloud, trunk, 40);
    for &i in &ids {
        cloud.node(0).put(i, b"original").unwrap();
    }
    // The phase hook mutates the trunk mid-protocol, from another
    // machine's vantage point: overwrites during the stream, an
    // overwrite plus a remove during catch-up. All must be reflected
    // after the flip — the delta log replays them.
    let hook_cloud: Arc<MemoryCloud> = Arc::new(cloud);
    let cloud = Arc::clone(&hook_cloud);
    let ids_hook = ids.clone();
    let engine = MigrationEngine::new(MigrationConfig {
        // Tiny chunks so the stream phase takes several round trips.
        chunk_cells: 8,
        ..MigrationConfig::default()
    })
    .with_phase_hook(move |phase, _trunk| match phase {
        MigrationPhase::Stream => {
            for &i in ids_hook.iter().take(10) {
                hook_cloud.node(1).put(i, b"streamed-over").unwrap();
            }
        }
        MigrationPhase::CatchUp => {
            hook_cloud.node(2).put(ids_hook[0], b"caught-up").unwrap();
            hook_cloud.node(2).remove(ids_hook[1]).unwrap();
        }
        _ => {}
    });
    let report = engine.migrate_trunk(&cloud, trunk, MachineId(3)).unwrap();
    assert!(
        report.delta_replayed >= 2,
        "concurrent writes must flow through the delta log (replayed {})",
        report.delta_replayed
    );
    // Final states: id[0] caught-up, id[1] removed, ids[2..10]
    // streamed-over, the rest original.
    assert_eq!(
        cloud.node(0).get(ids[0]).unwrap().as_deref(),
        Some(&b"caught-up"[..])
    );
    assert_eq!(cloud.node(0).get(ids[1]).unwrap(), None);
    for &i in &ids[2..10] {
        assert_eq!(
            cloud.node(0).get(i).unwrap().as_deref(),
            Some(&b"streamed-over"[..]),
            "cell {i}"
        );
    }
    for &i in &ids[10..] {
        assert_eq!(
            cloud.node(0).get(i).unwrap().as_deref(),
            Some(&b"original"[..]),
            "cell {i}"
        );
    }
    cloud.shutdown();
}

#[test]
fn donor_serves_reads_through_every_pre_flip_phase() {
    let cloud = cloud_with_standby(3, 1);
    let trunk = trunk_of_machine(&cloud, 0);
    let ids = ids_in_trunk(&cloud, trunk, 20);
    for &i in &ids {
        cloud.node(0).put(i, b"readable").unwrap();
    }
    let hook_cloud: Arc<MemoryCloud> = Arc::new(cloud);
    let cloud = Arc::clone(&hook_cloud);
    let ids_hook = ids.clone();
    let saw_flip = Arc::new(AtomicBool::new(false));
    let saw_flip_hook = Arc::clone(&saw_flip);
    let engine =
        MigrationEngine::new(MigrationConfig::default()).with_phase_hook(move |phase, _| {
            if phase == MigrationPhase::Flip {
                saw_flip_hook.store(true, Ordering::SeqCst);
            }
            // Reads must succeed in every phase — served by the donor
            // until the flip, by the recipient after. Cache cleared so
            // each read exercises the fabric path.
            hook_cloud.node(1).clear_cache();
            for &i in ids_hook.iter().take(5) {
                assert_eq!(
                    hook_cloud.node(1).get(i).unwrap().as_deref(),
                    Some(&b"readable"[..]),
                    "read failed during phase {}",
                    phase.name()
                );
            }
        });
    engine.migrate_trunk(&cloud, trunk, MachineId(3)).unwrap();
    assert!(saw_flip.load(Ordering::SeqCst));
    cloud.shutdown();
}

#[test]
fn concurrent_writers_ride_out_the_whole_migration() {
    let cloud = Arc::new(cloud_with_standby(3, 1));
    let trunk = trunk_of_machine(&cloud, 0);
    let ids = ids_in_trunk(&cloud, trunk, 16);
    for &i in &ids {
        cloud.node(0).put(i, &0u64.to_le_bytes()).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for (w, &id) in ids.iter().enumerate().take(4) {
        let cloud = Arc::clone(&cloud);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let via = (w % 3) + 1; // never the standby
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                // Every write must succeed: the access path retries
                // MOVED (seal window, post-flip staleness) internally.
                cloud.node(via).put(id, &n.to_le_bytes()).unwrap();
            }
            n
        }));
    }
    let engine = MigrationEngine::new(MigrationConfig {
        chunk_cells: 4,
        ..MigrationConfig::default()
    });
    let report = engine.migrate_trunk(&cloud, trunk, MachineId(3)).unwrap();
    stop.store(true, Ordering::Relaxed);
    let finals: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(report.to, MachineId(3));
    // The last acknowledged write of each writer is the visible state —
    // nothing lost, nothing rolled back.
    for (w, &id) in ids.iter().enumerate().take(4) {
        let got = cloud.node(0).get(id).unwrap().unwrap();
        let got = u64::from_le_bytes(got.as_slice().try_into().unwrap());
        assert_eq!(
            got, finals[w],
            "writer {w}: cell shows {got}, last ack was {}",
            finals[w]
        );
    }
    cloud.shutdown();
}

#[test]
fn join_machine_streams_a_fair_share_online() {
    let cloud = cloud_with_standby(3, 1);
    for i in 0..400u64 {
        cloud.node(0).put(i, format!("j{i}").as_bytes()).unwrap();
    }
    // Before the join, the standby owns nothing and serves nothing.
    assert!(cloud.node(0).table().trunks_of(MachineId(3)).is_empty());
    assert_eq!(cloud.node(3).store().cell_count(), 0);
    // The placement the online moves must arrive at: the table's own
    // count-wise fair-share steal.
    let mut planned = cloud.node(0).table();
    planned.rebalance_join(MachineId(3));
    let engine = MigrationEngine::new(MigrationConfig::default());
    let reports = engine.join_machine(&cloud, 3).expect("join");
    let fair = cloud.node(0).table().trunk_count() / 4;
    assert_eq!(reports.len(), fair, "the joiner gets a fair share");
    let its_trunks = cloud.node(0).table().trunks_of(MachineId(3));
    assert_eq!(its_trunks.len(), reports.len());
    assert_eq!(its_trunks, planned.trunks_of(MachineId(3)));
    assert!(
        cloud.node(3).store().cell_count() > 0,
        "moved trunks must carry their cells"
    );
    for i in 0..400u64 {
        for m in 0..4 {
            assert_eq!(
                cloud.node(m).get(i).unwrap().as_deref(),
                Some(format!("j{i}").as_bytes()),
                "cell {i} via machine {m} after online join"
            );
        }
    }
    // New writes route to the joiner for its trunks.
    let joiner_bound = (1000..2000u64)
        .find(|&i| cloud.node(0).table().machine_of(i) == MachineId(3))
        .expect("some id routes to the joiner");
    cloud.node(0).put(joiner_bound, b"fresh-on-joiner").unwrap();
    assert_eq!(
        cloud.node(3).get(joiner_bound).unwrap().unwrap(),
        b"fresh-on-joiner"
    );
    cloud.shutdown();
}

/// The scenario the engine exists for: a steady 7:1 read/write mix through
/// the original members keeps running while the standby joins online. No
/// op may fail because the cluster grew (the access path retries `MOVED`
/// internally); afterwards a load-driven rebalance must not worsen the
/// imbalance, and every cell reads back through the joiner.
#[test]
fn a_read_write_mix_never_fails_while_a_machine_joins() {
    const CELLS: u64 = 3_000;
    const WORKERS: usize = 4;
    let value = |i: u64| format!("cell{i}").into_bytes();
    let cloud = cloud_with_standby(3, 1);
    for i in 0..CELLS {
        cloud.node(0).put(i, &value(i)).unwrap();
    }
    let ops: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
    let errors = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let total = || ops.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>();

    let (reports, during) = std::thread::scope(|scope| {
        for (w, done) in ops.iter().enumerate() {
            let (cloud, errors, stop) = (&cloud, &errors, &stop);
            scope.spawn(move || {
                let via = w % 3; // entry nodes: the original members
                let mut i = w as u64 * 7919 % CELLS;
                while !stop.load(Ordering::Relaxed) {
                    i = (i + 7919) % CELLS;
                    let ok = if i.is_multiple_of(8) {
                        cloud.node(via).put(i, &value(i)).is_ok()
                    } else {
                        cloud.node(via).get(i).is_ok()
                    };
                    if !ok {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The join starts only once every worker is mid-stream.
        while ops.iter().any(|c| c.load(Ordering::Relaxed) == 0) {
            std::thread::yield_now();
        }
        let before = total();
        let reports = MigrationEngine::new(MigrationConfig::default())
            .join_machine(&cloud, 3)
            .expect("online join");
        let during = total() - before;
        stop.store(true, Ordering::Relaxed);
        (reports, during)
    });
    assert!(during > 0, "the mix must overlap the join");
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "ops failed while the cluster grew — the join was not transparent"
    );
    assert!(
        reports.iter().map(|r| r.cells_moved).sum::<u64>() > 0,
        "the join streamed no cells"
    );

    // Skew the load map onto machine 0, then let the planner spread it.
    let table = cloud.node(0).table();
    for i in (0..CELLS).filter(|&i| table.machine_of(i) == MachineId(0)) {
        for _ in 0..2 {
            cloud.node(0).get(i).unwrap();
        }
    }
    let imbalance = || placement_imbalance(&cloud.node(0).table(), &cluster_trunk_scores(&cloud));
    let before = imbalance();
    MigrationEngine::new(MigrationConfig::default())
        .rebalance(&cloud)
        .expect("rebalance");
    let after = imbalance();
    assert!(
        after <= before + 1e-9,
        "rebalance worsened the imbalance: {before:.3} → {after:.3}"
    );

    for m in 0..4 {
        cloud.node(m).clear_cache();
    }
    for i in 0..CELLS {
        assert_eq!(
            cloud.node(3).get(i).unwrap().as_deref(),
            Some(value(i).as_slice()),
            "cell {i} wrong after join + rebalance"
        );
    }
    cloud.shutdown();
}

#[test]
fn join_then_failure_uses_the_joiner_as_survivor() {
    let cloud = cloud_with_standby(2, 1);
    for i in 0..80u64 {
        cloud.node(0).put(i, b"resilient").unwrap();
    }
    MigrationEngine::new(MigrationConfig::default())
        .join_machine(&cloud, 2)
        .expect("join");
    cloud.backup_all().unwrap();
    cloud.kill_machine(0);
    cloud.recover(0).unwrap();
    for i in 0..80u64 {
        assert_eq!(
            cloud.node(2).get(i).unwrap().as_deref(),
            Some(&b"resilient"[..]),
            "cell {i}"
        );
    }
    cloud.shutdown();
}

#[test]
fn drain_machine_empties_it_without_data_loss() {
    let cloud = cloud_with_standby(4, 0);
    for i in 0..400u64 {
        cloud.node(0).put(i, format!("d{i}").as_bytes()).unwrap();
    }
    let victim = 2;
    assert!(cloud.node(victim).store().cell_count() > 0);
    let engine = MigrationEngine::new(MigrationConfig::default());
    let reports = engine.drain_machine(&cloud, victim).expect("drain");
    assert!(!reports.is_empty());
    assert!(
        cloud
            .node(0)
            .table()
            .trunks_of(MachineId(victim as u16))
            .is_empty(),
        "the drained machine must own nothing"
    );
    // The machine can now leave without a recovery event: kill it and
    // read everything back with no recover() call.
    cloud.kill_machine(victim);
    for i in 0..400u64 {
        assert_eq!(
            cloud.node(0).get(i).unwrap().as_deref(),
            Some(format!("d{i}").as_bytes()),
            "cell {i} lost by the drain"
        );
    }
    cloud.shutdown();
}

#[test]
fn uncommitted_staging_is_not_adopted_by_failure_recovery() {
    let cloud = cloud_with_standby(3, 1);
    let donor = MachineId(0);
    let recipient = MachineId(3);
    let trunk = trunk_of_machine(&cloud, 0);
    let ids = ids_in_trunk(&cloud, trunk, 12);
    for &i in &ids {
        cloud.node(0).put(i, b"durable").unwrap();
    }
    cloud.backup_all().unwrap();
    // A coordinator streams a *partial* chunk into the standby, then
    // dies before MIG_COMMIT: the staging persists, uncommitted.
    let ep = cloud.node(1).endpoint().clone();
    let mid = migration::next_migration_id();
    let total = migration::begin(&ep, donor, mid, trunk).unwrap();
    let (_, entries) = migration::read_chunk(&ep, donor, mid, trunk, 0, 4, u32::MAX).unwrap();
    assert!(
        (entries.len() as u64) < total,
        "the staged image must be incomplete for this test to bite"
    );
    migration::apply(&ep, recipient, mid, trunk, &entries).unwrap();
    // The donor dies, and recovery happens to hand its trunks to the
    // very machine holding the partial staging.
    cloud.kill_machine(0);
    let mut table = cloud.node(1).table();
    for gid in table.trunks_of(donor) {
        table.reassign_one(gid, recipient);
    }
    cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
    for m in 1..4 {
        cloud.node(m).install_table(table.clone()).unwrap();
    }
    // The new owner must serve the reloaded TFS backup — every acked
    // cell — never the partial staged image.
    for &i in &ids {
        assert_eq!(
            cloud.node(1).get(i).unwrap().as_deref(),
            Some(&b"durable"[..]),
            "cell {i} vanished: uncommitted staging was adopted as authoritative"
        );
    }
    cloud.shutdown();
}

/// Finish a hand-driven migration the way the engine does after the
/// seal: drain to empty with acknowledgements, commit, flip, install.
fn drain_commit_flip(
    cloud: &MemoryCloud,
    trunk: u64,
    mid: u64,
    to: MachineId,
    mut acked: u64,
    chunk: u32,
) {
    let ep = cloud.node(1).endpoint().clone();
    loop {
        let (remaining, seq, entries) =
            migration::drain_delta(&ep, MachineId(0), mid, trunk, acked, chunk).unwrap();
        migration::apply(&ep, to, mid, trunk, &entries).unwrap();
        acked = seq;
        if remaining == 0 && entries.is_empty() {
            break;
        }
    }
    migration::commit(&ep, to, mid, trunk).unwrap();
    let mut table = cloud.node(1).table();
    table.reassign_one(trunk, to);
    cloud.tfs().write(TFS_TABLE_PATH, &table.encode()).unwrap();
    for m in [to.0 as usize, 0, 1, 2] {
        cloud.node(m).install_table(table.clone()).unwrap();
    }
}

#[test]
fn a_repeated_delta_request_ships_the_last_write() {
    // write, MIG_DELTA, write, the same MIG_DELTA again (the fabric runs
    // every copy of a duplicated request; only one reply has a caller),
    // seal, drain, commit, flip. A drain that pops hands the second write
    // to the copy nobody listens to.
    let cloud = cloud_with_standby(3, 1);
    let (donor, to) = (MachineId(0), MachineId(3));
    let trunk = trunk_of_machine(&cloud, 0);
    let id = ids_in_trunk(&cloud, trunk, 1)[0];
    let ep = cloud.node(1).endpoint().clone();
    let mid = migration::next_migration_id();
    migration::begin(&ep, donor, mid, trunk).unwrap();
    cloud.node(2).put(id, b"first").unwrap();
    let (_, seq, entries) = migration::drain_delta(&ep, donor, mid, trunk, 0, 8).unwrap();
    assert_eq!(entries.len(), 1);
    migration::apply(&ep, to, mid, trunk, &entries).unwrap();
    cloud.node(2).put(id, b"last").unwrap();
    // The same request bytes again; its reply is the one that gets lost.
    let _ = migration::drain_delta(&ep, donor, mid, trunk, 0, 8).unwrap();
    migration::seal(&ep, donor, mid, trunk).unwrap();
    drain_commit_flip(&cloud, trunk, mid, to, seq, 8);
    for m in 0..4 {
        assert_eq!(
            cloud.node(m).get(id).unwrap().as_deref(),
            Some(&b"last"[..]),
            "acked write lost across the flip (read via machine {m})"
        );
    }
    cloud.shutdown();
}

#[test]
fn a_repeated_post_seal_drain_loses_no_batch() {
    // Two chunks of dirty cells are pending at the seal, where nothing
    // re-dirties them. The copy of the first post-seal drain takes the
    // second chunk; it must still reach the recipient.
    let cloud = cloud_with_standby(3, 1);
    let (donor, to) = (MachineId(0), MachineId(3));
    let trunk = trunk_of_machine(&cloud, 0);
    let chunk = 4u32;
    let ids = ids_in_trunk(&cloud, trunk, 2 * chunk as usize);
    for &i in &ids {
        cloud.node(0).put(i, b"old").unwrap();
    }
    let ep = cloud.node(1).endpoint().clone();
    let mid = migration::next_migration_id();
    let total = migration::begin(&ep, donor, mid, trunk).unwrap();
    let (_, entries) =
        migration::read_chunk(&ep, donor, mid, trunk, 0, total as u32, u32::MAX).unwrap();
    migration::apply(&ep, to, mid, trunk, &entries).unwrap();
    for &i in &ids {
        cloud.node(2).put(i, b"new").unwrap();
    }
    assert_eq!(
        migration::seal(&ep, donor, mid, trunk).unwrap(),
        ids.len() as u64
    );
    let (_, seq, first) = migration::drain_delta(&ep, donor, mid, trunk, 0, chunk).unwrap();
    assert_eq!(first.len(), chunk as usize);
    let _ = migration::drain_delta(&ep, donor, mid, trunk, 0, chunk).unwrap();
    migration::apply(&ep, to, mid, trunk, &first).unwrap();
    drain_commit_flip(&cloud, trunk, mid, to, seq, chunk);
    for &i in &ids {
        assert_eq!(
            cloud.node(1).get(i).unwrap().as_deref(),
            Some(&b"new"[..]),
            "cell {i}: its post-seal batch went to the duplicate"
        );
    }
    cloud.shutdown();
}

#[test]
fn donor_unseal_fences_out_a_slow_coordinators_flip() {
    let cloud = cloud_with_standby(3, 1);
    let trunk = trunk_of_machine(&cloud, 0);
    let id = ids_in_trunk(&cloud, trunk, 1)[0];
    cloud.node(0).put(id, b"before").unwrap();
    let ep = cloud.node(1).endpoint().clone();
    let mid = migration::next_migration_id();
    migration::begin(&ep, MachineId(0), mid, trunk).unwrap();
    migration::seal(&ep, MachineId(0), mid, trunk).unwrap();
    // The coordinator reads the table for its flip... then stalls.
    let (ver, bytes) = cloud.tfs().read_versioned(TFS_TABLE_PATH).unwrap();
    let mut flipped = AddressingTable::decode(&bytes).unwrap();
    flipped.reassign_one(trunk, MachineId(3));
    // The seal lease expires; the donor persists its unseal decision
    // through TFS and applies the write — which was never streamed.
    std::thread::sleep(migration::SEAL_TIMEOUT + Duration::from_millis(100));
    cloud.node(2).put(id, b"after-unseal").unwrap();
    // The stalled coordinator wakes and attempts the flip: the donor's
    // lease release bumped the table version, so the conditional write
    // must lose — committing it would drop the acked write above.
    assert!(
        matches!(
            cloud
                .tfs()
                .write_if_version(TFS_TABLE_PATH, &flipped.encode(), ver),
            Err(trinity_tfs::TfsError::VersionMismatch { .. })
        ),
        "a flip planned before the unseal must be fenced out"
    );
    cloud.node(1).clear_cache();
    assert_eq!(cloud.node(1).get(id).unwrap().unwrap(), b"after-unseal");
    cloud.shutdown();
}

#[test]
fn idle_unsealed_donor_entry_is_garbage_collected() {
    let cloud = cloud_with_standby(3, 1);
    let trunk = trunk_of_machine(&cloud, 0);
    let id = ids_in_trunk(&cloud, trunk, 1)[0];
    cloud.node(0).put(id, b"v0").unwrap();
    let ep = cloud.node(1).endpoint().clone();
    let mid = migration::next_migration_id();
    migration::begin(&ep, MachineId(0), mid, trunk).unwrap();
    // The coordinator dies before SEAL: no frame ever arrives again.
    // After the idle timeout the first gated write reaps the entry, so
    // the trunk stops paying the delta-log tax...
    std::thread::sleep(migration::DONOR_IDLE_TIMEOUT + Duration::from_millis(100));
    cloud.node(2).put(id, b"v1").unwrap();
    // ...and stale frames of the abandoned attempt are refused.
    assert!(
        migration::read_chunk(&ep, MachineId(0), mid, trunk, 0, 8, u32::MAX).is_err(),
        "the reaped migration must not serve further frames"
    );
    assert_eq!(cloud.node(0).get(id).unwrap().unwrap(), b"v1");
    cloud.shutdown();
}

#[test]
fn rebalance_follows_the_load_map() {
    let cloud = cloud_with_standby(3, 1);
    // Heat exactly one machine's trunks so max/mean is far above the
    // threshold, then let the planner spread them out.
    for i in 0..2000u64 {
        let id = i;
        if cloud.node(0).table().machine_of(id) == MachineId(0) {
            cloud.node(0).put(id, b"hot").unwrap();
            cloud.node(0).get(id).unwrap();
        }
    }
    let engine = MigrationEngine::new(MigrationConfig::default());
    let reports = engine.rebalance(&cloud).expect("rebalance");
    assert!(
        !reports.is_empty(),
        "a lopsided load map must produce at least one move"
    );
    assert!(reports.iter().all(|r| r.from == MachineId(0)));
    cloud.shutdown();
}
