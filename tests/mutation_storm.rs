//! Pinned-seed chaos drills for the streaming-mutation path.
//!
//! Each test runs [`MutationStorm`] — a deterministic batch stream
//! committed through mini-transactions — under a seeded fault plan that
//! crashes and revives a specific protocol role mid-batch:
//!
//! * the **writer** (the machine batches are submitted through),
//! * a **trunk owner** (a machine holding cells the batches touch),
//! * the **leader** (machine 0, the table-sync authority).
//!
//! The workload's own invariants do the heavy lifting: the storm's
//! mirror of every batch it saw commit, the mutation log's replay and
//! the store read-back are all equal, with in-lists the reverse of the
//! out-lists (an acked batch fully lands or cleanly aborts — never
//! splits), and the outcome equals the fault-free run's.

use trinity::chaos::{ChaosRunner, MutationStorm};
use trinity::net::{FaultPlan, NodeEvent, Trigger};

/// The drill for one pinned seed: the faulty run passes every workload
/// invariant and the recorded fault log replays to a pass. (The storm's
/// traffic is timing-dependent, so no fault-log equality is pinned.)
fn assert_storm_seed(runner: &ChaosRunner<MutationStorm>, seed: u64) {
    let report = runner.run(seed);
    assert!(
        report.passed(),
        "mutation-storm seed {seed:#x}: {:?}",
        report.failures
    );
    let replayed = runner.replay(&report.faulty.log);
    assert!(
        replayed.passed(),
        "replay of seed {seed:#x}: {:?}",
        replayed.failures
    );
}

/// Benign chaos: duplicated and delayed deliveries only. Duplicate
/// prepare/commit frames and lost acks force the idempotent-retry path
/// without ever killing a machine.
#[test]
fn mutation_storm_benign_chaos_seed_beef() {
    let plan = FaultPlan::new(0)
        .with_duplicate(0.3)
        .with_delay(0.2, 10, 50);
    let runner = ChaosRunner::new(MutationStorm::small(), plan);
    assert_storm_seed(&runner, 0xBEEF);
}

/// Crash the writer's machine two batches in, revive it three batches
/// later: submission fails over to the next live machine and the stream
/// must not lose or split the in-flight batch.
#[test]
fn mutation_storm_writer_crash_mid_batch_seed_ab1() {
    let storm = MutationStorm::small();
    let writer = storm.writer;
    let plan = FaultPlan::new(0)
        .with_event(Trigger::Mark(2), NodeEvent::Crash(writer))
        .with_event(Trigger::Mark(5), NodeEvent::Revive(writer));
    let runner = ChaosRunner::new(storm, plan);
    assert_storm_seed(&runner, 0xAB1);
    let report = runner.run(0xAB1);
    assert!(
        report.faulty.crashes().contains(&writer),
        "the writer crash must fire"
    );
}

/// Crash a trunk owner mid-stream: commits touching its cells abort at
/// prepare (or stall on leased locks) until it returns; the epoch fence
/// and compare fences must keep every batch atomic across the outage.
#[test]
fn mutation_storm_owner_crash_mid_batch_seed_0b2() {
    let plan = FaultPlan::new(0)
        .with_event(Trigger::Mark(3), NodeEvent::Crash(2))
        .with_event(Trigger::Mark(6), NodeEvent::Revive(2));
    let runner = ChaosRunner::new(MutationStorm::small(), plan);
    assert_storm_seed(&runner, 0x0B2);
    let report = runner.run(0x0B2);
    assert!(
        report.faulty.crashes().contains(&2),
        "the owner crash must fire"
    );
}

/// Crash the leader (machine 0): it owns trunks *and* answers the
/// earliest table syncs, so its death exercises the stale-table retry
/// arms under an active write stream.
#[test]
fn mutation_storm_leader_crash_mid_batch_seed_1ead() {
    let plan = FaultPlan::new(0)
        .with_event(Trigger::Mark(4), NodeEvent::Crash(0))
        .with_event(Trigger::Mark(7), NodeEvent::Revive(0));
    let runner = ChaosRunner::new(MutationStorm::small(), plan);
    assert_storm_seed(&runner, 0x1EAD);
    let report = runner.run(0x1EAD);
    assert!(
        report.faulty.crashes().contains(&0),
        "the leader crash must fire"
    );
}

/// Two overlapping outages: the writer dies early and the leader dies
/// late, with no scheduled revivals — the storm's own casualty revival
/// must unwedge the stream both times.
#[test]
fn mutation_storm_double_crash_seed_2bad() {
    let storm = MutationStorm::small();
    let writer = storm.writer;
    let plan = FaultPlan::new(0)
        .with_event(Trigger::Mark(1), NodeEvent::Crash(writer))
        .with_event(Trigger::Mark(6), NodeEvent::Crash(0));
    let runner = ChaosRunner::new(storm, plan);
    assert_storm_seed(&runner, 0x2BAD);
    let report = runner.run(0x2BAD);
    let crashes = report.faulty.crashes();
    assert!(
        crashes.contains(&writer) && crashes.contains(&0),
        "both crashes must fire: {crashes:?}"
    );
}

/// Dropped frames on top of delays: lost prepare replies and lost
/// commit acks drive the duplicate-submission path, which must commit
/// as a no-op and dirty nothing.
#[test]
fn mutation_storm_dropped_frames_seed_d10p() {
    let plan = FaultPlan::new(0).with_drop(0.1).with_delay(0.2, 10, 40);
    let runner = ChaosRunner::new(MutationStorm::small(), plan);
    assert_storm_seed(&runner, 0xD10);
}
