//! Rebalance planning: which trunks move where, and why.
//!
//! Plans are pure functions of an addressing table plus (for the
//! load-driven planner) per-trunk hotness scores merged from the cluster
//! [`LoadMap`](trinity_obs::LoadMap)s. The engine executes a plan one
//! migration at a time, so a crash mid-plan leaves a consistent (just
//! less balanced) cloud.

use std::collections::HashMap;

use trinity_memcloud::{AddressingTable, MemoryCloud};
use trinity_net::MachineId;

/// One planned trunk move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    pub trunk: u64,
    pub from: MachineId,
    pub to: MachineId,
}

/// Merge every machine's per-trunk load into cluster-wide hotness
/// scores ([`TrunkLoad::score`](trinity_obs::TrunkLoad::score): ops/s
/// regardless of kind). Owner-side and client-side attributions for the
/// same trunk add up.
pub fn cluster_trunk_scores(cloud: &MemoryCloud) -> HashMap<u64, f64> {
    let mut scores: HashMap<u64, f64> = HashMap::new();
    for scope in cloud.fabric().obs().scopes() {
        for tl in scope.load().snapshot() {
            *scores.entry(tl.trunk).or_default() += tl.score();
        }
    }
    scores
}

/// Hotness imbalance of a placement: max per-machine score over mean
/// per-machine score (`1.0` = perfectly balanced, `0.0` = no load).
pub fn placement_imbalance(table: &AddressingTable, scores: &HashMap<u64, f64>) -> f64 {
    let machines = table.machines();
    if machines.is_empty() {
        return 0.0;
    }
    let loads: Vec<f64> = machines
        .iter()
        .map(|&m| {
            table
                .trunks_of(m)
                .iter()
                .map(|t| scores.get(t).copied().unwrap_or(0.0))
                .sum()
        })
        .collect();
    let sum: f64 = loads.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let mean = sum / loads.len() as f64;
    loads.iter().cloned().fold(0.0, f64::max) / mean
}

/// Plan the fewest moves that bring [`placement_imbalance`] at or under
/// `threshold` (e.g. `1.5`). Greedy: repeatedly shift the hottest
/// movable trunk from the most loaded machine to the least loaded one,
/// stopping when the threshold is met, a move stops helping, or every
/// trunk of the hot machine has been considered. Deterministic — ties
/// break toward lower ids.
pub fn plan_rebalance(
    table: &AddressingTable,
    scores: &HashMap<u64, f64>,
    threshold: f64,
) -> Vec<Move> {
    let mut table = table.clone();
    let mut moves = Vec::new();
    // One pass per trunk at most: the greedy loop always terminates.
    for _ in 0..table.trunk_count() {
        if placement_imbalance(&table, scores) <= threshold {
            break;
        }
        let machines = table.machines();
        let load_of = |t: &AddressingTable, m: MachineId| -> f64 {
            t.trunks_of(m)
                .iter()
                .map(|g| scores.get(g).copied().unwrap_or(0.0))
                .sum()
        };
        let &hot = machines
            .iter()
            .max_by(|&&a, &&b| {
                load_of(&table, a)
                    .partial_cmp(&load_of(&table, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(&a.0))
            })
            .expect("non-empty cluster");
        let &cold = machines
            .iter()
            .min_by(|&&a, &&b| {
                load_of(&table, a)
                    .partial_cmp(&load_of(&table, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .expect("non-empty cluster");
        if hot == cold {
            break;
        }
        let gap = load_of(&table, hot) - load_of(&table, cold);
        // The best trunk to move is the hottest one that still fits in
        // the gap — moving something hotter than the gap would just swap
        // which machine is overloaded.
        let candidate = table
            .trunks_of(hot)
            .into_iter()
            .map(|g| (g, scores.get(&g).copied().unwrap_or(0.0)))
            .filter(|&(_, s)| s > 0.0 && s < gap)
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(&a.0))
            });
        let Some((trunk, _)) = candidate else {
            break;
        };
        moves.push(Move {
            trunk,
            from: hot,
            to: cold,
        });
        table.reassign_one(trunk, cold);
    }
    moves
}

/// Plan a join: the trunks a newcomer should receive for a fair share,
/// stolen count-wise from the most loaded machines
/// (`AddressingTable::rebalance_join`'s placement, as a list of online
/// moves).
pub fn plan_join(table: &AddressingTable, joiner: MachineId) -> Vec<Move> {
    let mut scratch = table.clone();
    scratch
        .rebalance_join(joiner)
        .into_iter()
        .map(|(trunk, from)| Move {
            trunk,
            from,
            to: joiner,
        })
        .collect()
}

/// Plan a drain: every trunk of `victim` goes to the live machine with
/// the fewest trunks at that point (ties toward the lower machine id),
/// so the survivors end up count-balanced.
pub fn plan_drain(table: &AddressingTable, victim: MachineId, live: &[MachineId]) -> Vec<Move> {
    let mut scratch = table.clone();
    let targets: Vec<MachineId> = live.iter().copied().filter(|&m| m != victim).collect();
    assert!(!targets.is_empty(), "cannot drain the last machine");
    let mut moves = Vec::new();
    for trunk in scratch.trunks_of(victim) {
        let &to = targets
            .iter()
            .min_by_key(|&&m| (scratch.trunks_of(m).len(), m.0))
            .expect("non-empty targets");
        moves.push(Move {
            trunk,
            from: victim,
            to,
        });
        scratch.reassign_one(trunk, to);
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(p: u32, machines: usize) -> AddressingTable {
        AddressingTable::round_robin(p, machines)
    }

    #[test]
    fn rebalance_plan_moves_heat_off_the_hot_machine() {
        let t = table(4, 4); // 16 trunks over 4 machines
                             // All heat on machine 0's trunks.
        let mut scores = HashMap::new();
        for g in t.trunks_of(MachineId(0)) {
            scores.insert(g, 100.0);
        }
        for g in 0..16u64 {
            scores.entry(g).or_insert(10.0);
        }
        assert!(placement_imbalance(&t, &scores) > 1.5);
        let moves = plan_rebalance(&t, &scores, 1.5);
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|m| m.from == MachineId(0)));
        // Applying the plan meets the threshold.
        let mut after = t.clone();
        for m in &moves {
            after.reassign_one(m.trunk, m.to);
        }
        assert!(placement_imbalance(&after, &scores) <= 1.5);
        // And the plan is minimal in the greedy sense: prefix plans do
        // not already meet the threshold.
        let mut partial = t.clone();
        for m in &moves[..moves.len() - 1] {
            partial.reassign_one(m.trunk, m.to);
        }
        assert!(placement_imbalance(&partial, &scores) > 1.5);
    }

    #[test]
    fn rebalance_plan_is_empty_when_balanced() {
        let t = table(4, 4);
        let scores: HashMap<u64, f64> = (0..16u64).map(|g| (g, 5.0)).collect();
        assert!(plan_rebalance(&t, &scores, 1.5).is_empty());
        // No load at all: nothing to do either.
        assert!(plan_rebalance(&t, &HashMap::new(), 1.5).is_empty());
    }

    #[test]
    fn drain_plan_empties_the_victim_and_balances_survivors() {
        let t = table(4, 4);
        let live: Vec<MachineId> = (0..4).map(MachineId).collect();
        let moves = plan_drain(&t, MachineId(2), &live);
        assert_eq!(moves.len(), t.trunks_of(MachineId(2)).len());
        let mut after = t.clone();
        for m in &moves {
            assert_eq!(m.from, MachineId(2));
            assert_ne!(m.to, MachineId(2));
            after.reassign_one(m.trunk, m.to);
        }
        assert!(after.trunks_of(MachineId(2)).is_empty());
        for &m in live.iter().filter(|&&m| m != MachineId(2)) {
            let n = after.trunks_of(m).len();
            assert!((5..=6).contains(&n), "machine {m:?} got {n} trunks");
        }
    }

    #[test]
    fn join_plan_gives_the_joiner_its_fair_share() {
        let t = table(4, 3);
        let moves = plan_join(&t, MachineId(3));
        assert_eq!(moves.len(), 4); // 16 / 4 fair share
        assert!(moves.iter().all(|m| m.to == MachineId(3)));
    }
}
