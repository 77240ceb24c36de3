//! Chaos regression suite: pinned seeds over the fault-injection fabric.
//!
//! Every test drives a whole workload (BSP job, online traversal,
//! recovery protocol, serving slice) under a seeded `FaultPlan` and
//! checks the invariant set from `trinity_chaos`:
//!
//! * results equal the fault-free run (exactness under benign faults and
//!   under crash + §6 recovery),
//! * the frame ledger balances and nothing leaks in the injector,
//! * crash records match the schedule and every crashed machine was
//!   recovered (where the workload recovers),
//! * the serving runtime accounts for every submitted query.
//!
//! Deterministic workloads additionally pin the *fault log*: the same
//! seed twice yields identical logs and outcomes, and replaying the
//! recorded log re-injects it bit-for-bit.

use trinity::chaos::{
    BspRingMax, CachedRemoteReads, ChaosRunner, ChaosWorkload, MigrationStorm, PartitionHeal,
    ServeSlice, TraversalSearch,
};
use trinity::net::{FaultPlan, NodeEvent, Partition, Trigger};

/// The full determinism drill for one pinned seed: the run passes, the
/// same seed reproduces the same fault log and outcome, and the
/// recorded log replays verbatim and still passes.
fn assert_pinned_seed<W: ChaosWorkload>(runner: &ChaosRunner<W>, seed: u64) {
    let first = runner.run(seed);
    assert!(
        first.passed(),
        "{} seed {seed:#x}: {:?}",
        runner.workload().name(),
        first.failures
    );
    if runner.workload().deterministic() {
        let second = runner.run(seed);
        assert!(second.passed(), "rerun: {:?}", second.failures);
        assert_eq!(
            first.faulty.log, second.faulty.log,
            "same seed must inject the same faults"
        );
        assert_eq!(
            first.faulty.outcome, second.faulty.outcome,
            "same seed must produce the same outcome"
        );
    }
    let replayed = runner.replay(&first.faulty.log);
    assert!(
        replayed.passed(),
        "replay of seed {seed:#x}: {:?}",
        replayed.failures
    );
    if runner.workload().deterministic() {
        assert_eq!(
            replayed.faulty.log, first.faulty.log,
            "replaying a log must re-inject exactly it"
        );
        assert_eq!(replayed.faulty.outcome, first.faulty.outcome);
    }
}

fn bsp_delay_runner() -> ChaosRunner<BspRingMax> {
    ChaosRunner::new(
        BspRingMax::small(),
        FaultPlan::new(0).with_delay(0.3, 200, 400),
    )
}

#[test]
fn bsp_under_delays_seed_a11ce() {
    assert_pinned_seed(&bsp_delay_runner(), 0xA11CE);
}

#[test]
fn bsp_under_delays_seed_b0b() {
    assert_pinned_seed(&bsp_delay_runner(), 0xB0B);
}

/// Crash a machine at the superstep-8 checkpoint boundary
/// (crash-during-superstep: the job is mid-flight, half its state is
/// only in memory, and the §6.2 checkpoint + §6.1 trunk recovery must
/// reconstruct the rest).
fn bsp_crash_runner(machine: u16) -> ChaosRunner<BspRingMax> {
    ChaosRunner::new(
        BspRingMax::small(),
        FaultPlan::new(0)
            .with_delay(0.2, 150, 300)
            .with_event(Trigger::Mark(8), NodeEvent::Crash(machine)),
    )
}

#[test]
fn bsp_crash_during_superstep_seed_cafe() {
    let runner = bsp_crash_runner(1);
    assert_pinned_seed(&runner, 0xCAFE);
    let report = runner.run(0xCAFE);
    assert_eq!(report.faulty.crashes(), vec![1], "the crash must fire");
    assert_eq!(report.faulty.recovered, vec![1]);
}

#[test]
fn bsp_crash_during_superstep_seed_d00d() {
    assert_pinned_seed(&bsp_crash_runner(2), 0xD00D);
}

fn traversal_runner() -> ChaosRunner<TraversalSearch> {
    ChaosRunner::new(
        TraversalSearch::small(),
        FaultPlan::new(0)
            .with_duplicate(0.3)
            .with_delay(0.2, 100, 300),
    )
}

#[test]
fn traversal_duplicate_delivery_seed_e17() {
    let runner = traversal_runner();
    assert_pinned_seed(&runner, 0xE17);
    let report = runner.run(0xE17);
    assert!(
        report
            .faulty
            .log
            .records
            .iter()
            .any(|r| matches!(r.kind, trinity::net::FaultKind::Duplicate)),
        "the plan must actually duplicate something"
    );
}

#[test]
fn traversal_duplicate_delivery_seed_f00d() {
    assert_pinned_seed(&traversal_runner(), 0xF00D);
}

/// Bounded reordering on its own — with no delay policy, whether an
/// envelope is held is a pure function of its link sequence number, so
/// the log pins like any other deterministic seed.
#[test]
fn traversal_reordered_delivery_seed_0dd() {
    let runner = ChaosRunner::new(
        TraversalSearch::small(),
        FaultPlan::new(0).with_reorder(0.3, 500),
    );
    assert_pinned_seed(&runner, 0x0DD);
    let report = runner.run(0x0DD);
    assert!(
        report
            .faulty
            .log
            .records
            .iter()
            .any(|r| matches!(r.kind, trinity::net::FaultKind::Reorder)),
        "the plan must actually hold something back"
    );
}

/// Partition windows swallow protocol traffic between survivors while
/// the recovery agents handle a crashed machine; the partitions heal
/// (their sequence windows end) and recovery must converge with exact
/// data anyway.
#[test]
fn partition_heal_during_recovery_seed_1010() {
    let plan = FaultPlan::new(0)
        .with_event(Trigger::Mark(1), NodeEvent::Crash(2))
        .with_partition(Partition {
            from: 0,
            to: 1,
            from_seq: 10,
            to_seq: 30,
        })
        .with_partition(Partition {
            from: 1,
            to: 0,
            from_seq: 10,
            to_seq: 30,
        });
    let runner = ChaosRunner::new(PartitionHeal::small(), plan);
    let report = runner.run(0x1010);
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report.faulty.crashes().contains(&2));
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// The remote-cell read cache under drops plus a crash/revive cycle:
/// in-storm reads must only ever surface values actually written
/// (bounded staleness is allowed while invalidations drop), and after
/// recovery + cache clear the whole cluster must converge on the final
/// write of every cell.
#[test]
fn cached_reads_stay_valid_under_drops_and_crash_seed_cac4e() {
    let plan = FaultPlan::new(0)
        .with_drop(0.05)
        .with_delay(0.1, 100, 300)
        .with_event(Trigger::Mark(1), NodeEvent::Crash(2));
    let runner = ChaosRunner::new(CachedRemoteReads::small(), plan);
    let report = runner.run(0xCAC4E);
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(report.faulty.crashes(), vec![2], "the crash must fire");
    assert_eq!(report.faulty.recovered, vec![2]);
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// Serving under chaos: 5% frame drops plus two slave crashes mid-burst.
/// Every submitted query must be accounted for — admitted + shed ==
/// submitted, admitted == completed + cancelled + expired — and no query
/// may start running after its deadline expired.
#[test]
fn serve_under_chaos_accounts_for_every_query_seed_5eae() {
    let plan = FaultPlan::new(0)
        .with_drop(0.05)
        .with_event(Trigger::Mark(1), NodeEvent::Crash(1))
        .with_event(Trigger::Mark(2), NodeEvent::Crash(2));
    let runner = ChaosRunner::new(ServeSlice::small(), plan);
    let report = runner.run(0x5EAE);
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(
        report.faulty.crashes().len(),
        2,
        "both scheduled crashes must fire"
    );
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// Online trunk migration under benign chaos (duplicates + sub-timeout
/// delays, no crashes): whether the migration commits or aborts, no
/// acknowledged write to the migrating trunk may be lost, every observed
/// value must be real, and the cluster must agree on the trunk's owner.
#[test]
fn migration_storm_benign_chaos_seed_3a57() {
    let plan = FaultPlan::new(0)
        .with_duplicate(0.3)
        .with_delay(0.2, 10, 50);
    let runner = ChaosRunner::new(MigrationStorm::small(), plan);
    let report = runner.run(0x3A57);
    assert!(report.passed(), "{:?}", report.failures);
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// Crash the donor mid-stream (`Mark(2)`): the migration must abort or
/// complete cleanly, recovery reassigns the donor's trunks, and the
/// final write round converges exactly — no cell lost or served stale.
#[test]
fn migration_storm_donor_crash_during_stream_seed_d0e() {
    let storm = MigrationStorm::small();
    let plan = FaultPlan::new(0).with_event(Trigger::Mark(2), NodeEvent::Crash(storm.donor));
    let runner = ChaosRunner::new(storm, plan);
    let report = runner.run(0xD0E);
    assert!(report.passed(), "{:?}", report.failures);
    assert!(
        report.faulty.crashes().contains(&0),
        "the donor crash must fire"
    );
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// Crash the recipient during catch-up (`Mark(3)`): its staged cells die
/// with it; the abort must leave the donor serving and nothing may
/// reference the half-streamed copy.
#[test]
fn migration_storm_recipient_crash_during_catchup_seed_2ec() {
    let storm = MigrationStorm::small();
    let plan = FaultPlan::new(0).with_event(Trigger::Mark(3), NodeEvent::Crash(storm.recipient));
    let runner = ChaosRunner::new(storm, plan);
    let report = runner.run(0x2EC);
    assert!(report.passed(), "{:?}", report.failures);
    assert!(
        report.faulty.crashes().contains(&3),
        "the recipient crash must fire"
    );
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// Crash the donor at the seal (`Mark(4)`): writes are being rejected
/// with MOVED at that instant, so the retry path and the recovery path
/// overlap — acked writes must still never vanish from the converged
/// state (the final round rewrites everything; validity + agreement are
/// the live checks).
#[test]
fn migration_storm_donor_crash_at_seal_seed_5ea1() {
    let storm = MigrationStorm::small();
    let plan = FaultPlan::new(0).with_event(Trigger::Mark(4), NodeEvent::Crash(storm.donor));
    let runner = ChaosRunner::new(storm, plan);
    let report = runner.run(0x5EA1);
    assert!(report.passed(), "{:?}", report.failures);
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}

/// Crash the coordinator right before the flip (`Mark(6)`): the donor is
/// sealed with no one driving. Its seal timeout must kick in, consult
/// the TFS primary, and either resume serving (abort) or adopt the
/// flipped table — clients retrying on MOVED never observe the limbo.
#[test]
fn migration_storm_coordinator_crash_at_flip_seed_c0de() {
    let storm = MigrationStorm::small();
    let plan = FaultPlan::new(0).with_event(Trigger::Mark(6), NodeEvent::Crash(storm.coordinator));
    let runner = ChaosRunner::new(storm, plan);
    let report = runner.run(0xC0DE);
    assert!(report.passed(), "{:?}", report.failures);
    assert!(
        report.faulty.crashes().contains(&1),
        "the coordinator crash must fire"
    );
    let replayed = runner.replay(&report.faulty.log);
    assert!(replayed.passed(), "replay: {:?}", replayed.failures);
}
