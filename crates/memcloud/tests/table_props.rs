//! Property tests for the addressing table's reconfiguration operations.
//!
//! Under arbitrary sequences of joins and failures the table must keep
//! three promises the rest of the stack leans on:
//!
//! * **minimal disruption** — a reconfiguration only rewrites the slots
//!   it must (a join moves exactly the trunks the newcomer receives, a
//!   failure moves exactly the dead machine's trunks; everything else
//!   keeps its owner), so `changed_trunks` stays small and cache
//!   invalidation stays selective;
//! * **fairness** — after a join the newcomer holds its fair share and
//!   no machine is left more than one trunk above the post-join fair
//!   level among previously-balanced placements; after a failure the
//!   survivors' counts differ by at most one more than they did before;
//! * **epoch monotonicity** — every reconfiguration bumps the epoch by
//!   exactly one, so version fencing (`Moved{epoch}`, table refresh)
//!   totally orders reconfigurations.

use proptest::prelude::*;
use std::collections::BTreeSet;

use trinity_memcloud::AddressingTable;
use trinity_net::MachineId;

/// One cluster-membership reconfiguration.
#[derive(Debug, Clone, Copy)]
enum Reconfig {
    Join(u16),
    Fail(u16),
}

fn reconfig_strategy(max_machines: u16) -> impl Strategy<Value = Reconfig> {
    prop_oneof![
        1 => (0..max_machines).prop_map(Reconfig::Join),
        1 => (0..max_machines).prop_map(Reconfig::Fail),
    ]
}

/// Apply one reconfiguration, checking the per-step invariants. Returns
/// false if the step was skipped as inapplicable (joining a member,
/// failing a non-member or the last machine).
fn step(table: &mut AddressingTable, live: &mut BTreeSet<u16>, r: Reconfig) -> bool {
    let before = table.clone();
    match r {
        Reconfig::Join(m) => {
            if live.contains(&m) {
                return false;
            }
            let moved = table.rebalance_join(MachineId(m));
            live.insert(m);

            // Epoch: exactly one bump.
            assert_eq!(table.epoch, before.epoch + 1, "join must bump epoch once");
            // Minimal disruption: the changed slots are exactly the moved
            // trunks, and each moved trunk went from its recorded donor to
            // the joiner.
            let changed: BTreeSet<u64> = before.changed_trunks(table).into_iter().collect();
            let moved_set: BTreeSet<u64> = moved.iter().map(|&(g, _)| g).collect();
            assert_eq!(changed, moved_set, "join rewrote slots it did not move");
            for &(g, from) in &moved {
                assert_eq!(before.machine_for(g), from);
                assert_eq!(table.machine_for(g), MachineId(m));
            }
            // Fairness: the joiner reaches the fair share unless every
            // potential donor is already at or below it.
            let fair = table.trunk_count() / live.len();
            let got = table.trunks_of(MachineId(m)).len();
            if got < fair {
                for &other in live.iter().filter(|&&o| o != m) {
                    assert!(
                        table.trunks_of(MachineId(other)).len() <= fair,
                        "joiner below fair share while machine {other} holds a surplus"
                    );
                }
            }
            assert!(got <= fair, "joiner must not overshoot its fair share");
        }
        Reconfig::Fail(m) => {
            if !live.contains(&m) || live.len() == 1 {
                return false;
            }
            live.remove(&m);
            let survivors: Vec<MachineId> = live.iter().map(|&s| MachineId(s)).collect();
            let spread_before = count_spread(table, &survivors);
            let orphaned: BTreeSet<u64> = table.trunks_of(MachineId(m)).into_iter().collect();
            let moved = table.reassign_failed(MachineId(m), &survivors);

            assert_eq!(
                table.epoch,
                before.epoch + 1,
                "failure must bump epoch once"
            );
            // Minimal disruption: exactly the dead machine's trunks moved.
            let changed: BTreeSet<u64> = before.changed_trunks(table).into_iter().collect();
            assert_eq!(changed, orphaned, "failure rewrote slots of survivors");
            let moved_set: BTreeSet<u64> = moved.iter().map(|&(g, _)| g).collect();
            assert_eq!(moved_set, orphaned);
            assert!(table.trunks_of(MachineId(m)).is_empty());
            // Fairness: least-loaded-first placement never widens the
            // count spread beyond one (the indivisible remainder).
            let spread_after = count_spread(table, &survivors);
            assert!(
                spread_after <= spread_before.max(1),
                "failure reassignment widened the spread {spread_before} -> {spread_after}"
            );
        }
    }
    true
}

/// Max-min trunk count across `machines`.
fn count_spread(table: &AddressingTable, machines: &[MachineId]) -> usize {
    let counts: Vec<usize> = machines.iter().map(|&m| table.trunks_of(m).len()).collect();
    counts.iter().max().unwrap() - counts.iter().min().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary join/fail sequences: every applied step keeps the
    /// minimal-disruption, fairness, and epoch contracts, and the table
    /// always maps every trunk to a live machine.
    #[test]
    fn reconfigurations_preserve_table_contracts(
        p in 3u32..6,
        initial in 2usize..5,
        seq in proptest::collection::vec(reconfig_strategy(8), 1..24),
    ) {
        let mut table = AddressingTable::round_robin(p, initial);
        let mut live: BTreeSet<u16> = (0..initial as u16).collect();
        let mut epoch_floor = table.epoch;
        for &r in &seq {
            if step(&mut table, &mut live, r) {
                // Epoch strictly increases across applied reconfigs.
                prop_assert!(table.epoch > epoch_floor);
                epoch_floor = table.epoch;
            } else {
                prop_assert_eq!(table.epoch, epoch_floor, "skipped step must not bump epoch");
            }
            // Every trunk is owned by a live machine at all times.
            for g in 0..table.trunk_count() as u64 {
                prop_assert!(
                    live.contains(&table.machine_for(g).0),
                    "trunk {} owned by dead machine {:?}", g, table.machine_for(g)
                );
            }
        }
    }

    /// A join into a balanced placement takes exactly the fair share from
    /// the donors, each trunk taken from a machine holding more than the
    /// fair share at the moment of the steal.
    #[test]
    fn join_steals_only_from_surplus_holders(
        p in 3u32..6,
        machines in 2usize..7,
    ) {
        let mut table = AddressingTable::round_robin(p, machines);
        let joiner = MachineId(machines as u16);
        let before = table.clone();
        let moved = table.rebalance_join(joiner);
        let fair = table.trunk_count() / (machines + 1);
        prop_assert_eq!(moved.len(), fair);
        // Donor counts stay at or above the fair level afterwards.
        for m in 0..machines as u16 {
            prop_assert!(table.trunks_of(MachineId(m)).len() >= fair);
        }
        prop_assert_eq!(table.epoch, before.epoch + 1);
    }

    /// Failing a machine and then re-joining one restores a placement
    /// with the same balance (spread <= 1), whatever the interleaving —
    /// the table never drifts toward lopsidedness.
    #[test]
    fn fail_then_join_restores_balance(
        p in 3u32..6,
        machines in 3usize..6,
        victim in 0u16..3,
    ) {
        let mut table = AddressingTable::round_robin(p, machines);
        let survivors: Vec<MachineId> = (0..machines as u16)
            .filter(|&m| m != victim)
            .map(MachineId)
            .collect();
        table.reassign_failed(MachineId(victim), &survivors);
        table.rebalance_join(MachineId(victim));
        let all: Vec<MachineId> = (0..machines as u16).map(MachineId).collect();
        prop_assert!(count_spread(&table, &all) <= 1,
            "spread {} after fail+rejoin", count_spread(&table, &all));
    }
}
