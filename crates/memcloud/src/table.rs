//! The shared addressing table.
//!
//! `2^p` slots, each naming the machine that hosts the corresponding
//! memory trunk (paper Figure 3). The table is the unit of cluster
//! reconfiguration: machine join, leave, and failure are all expressed as
//! slot reassignments followed by trunk reloads from TFS. Tables carry an
//! epoch so replicas can tell stale from fresh; the primary replica is
//! persisted in TFS before an update commits (§6.2).

use trinity_memstore::codec::Reader;
use trinity_net::MachineId;

/// Name of the primary addressing-table replica in TFS.
pub const TFS_TABLE_PATH: &str = "addressing/table";

/// The trunk → machine map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressingTable {
    /// Monotonic version; bumped on every reassignment.
    pub epoch: u64,
    slots: Vec<u16>,
}

impl AddressingTable {
    /// Build the initial table: `2^p` trunks dealt round-robin over
    /// `machines` machines.
    pub fn round_robin(p: u32, machines: usize) -> Self {
        assert!(machines > 0 && machines <= u16::MAX as usize);
        let n = 1usize << p;
        assert!(
            n >= machines,
            "need 2^p >= machine count so every machine hosts a trunk"
        );
        AddressingTable {
            epoch: 1,
            slots: (0..n).map(|i| (i % machines) as u16).collect(),
        }
    }

    /// Number of trunks (`2^p`).
    pub fn trunk_count(&self) -> usize {
        self.slots.len()
    }

    /// `p`, the number of hash bits.
    pub fn p_bits(&self) -> u32 {
        self.slots.len().trailing_zeros()
    }

    /// The machine hosting trunk `trunk`.
    pub fn machine_for(&self, trunk: u64) -> MachineId {
        MachineId(self.slots[trunk as usize])
    }

    /// The trunk a cell id routes to.
    pub fn trunk_of(&self, id: u64) -> u64 {
        trinity_memstore::hash::trunk_of(id, self.p_bits())
    }

    /// The machine a cell id routes to (both hashing steps).
    pub fn machine_of(&self, id: u64) -> MachineId {
        self.machine_for(self.trunk_of(id))
    }

    /// All trunks hosted by `machine`.
    pub fn trunks_of(&self, machine: MachineId) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == machine.0)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Machines that currently host at least one trunk.
    pub fn machines(&self) -> Vec<MachineId> {
        let mut ms: Vec<u16> = self.slots.to_vec();
        ms.sort_unstable();
        ms.dedup();
        ms.into_iter().map(MachineId).collect()
    }

    /// Reassign every trunk of a failed machine onto the `survivors`,
    /// least-loaded first, bumping the epoch. Returns the reassignments
    /// as `(trunk, new_machine)` pairs.
    pub fn reassign_failed(
        &mut self,
        failed: MachineId,
        survivors: &[MachineId],
    ) -> Vec<(u64, MachineId)> {
        assert!(
            !survivors.is_empty(),
            "cannot reassign trunks with no survivors"
        );
        assert!(!survivors.contains(&failed));
        let mut load: Vec<(usize, MachineId)> = survivors
            .iter()
            .map(|&m| (self.trunks_of(m).len(), m))
            .collect();
        let mut moved = Vec::new();
        for slot in 0..self.slots.len() {
            if self.slots[slot] == failed.0 {
                load.sort_unstable_by_key(|(n, m)| (*n, m.0));
                let (n, target) = load[0];
                load[0] = (n + 1, target);
                self.slots[slot] = target.0;
                moved.push((slot as u64, target));
            }
        }
        self.epoch += 1;
        moved
    }

    /// Rebalance onto a newly joined machine: steal trunks from the most
    /// loaded machines until the newcomer holds its fair share. Returns
    /// the moved `(trunk, from)` pairs.
    pub fn rebalance_join(&mut self, joiner: MachineId) -> Vec<(u64, MachineId)> {
        let mut machines = self.machines();
        if !machines.contains(&joiner) {
            machines.push(joiner);
        }
        let fair = self.slots.len() / machines.len();
        let mut moved = Vec::new();
        while self.trunks_of(joiner).len() < fair {
            // Take one trunk from the currently most loaded machine.
            let donor = *machines
                .iter()
                .filter(|&&m| m != joiner)
                .max_by_key(|&&m| self.trunks_of(m).len())
                .expect("at least one donor");
            if self.trunks_of(donor).len() <= fair {
                break; // already balanced
            }
            let trunk = self.trunks_of(donor)[0];
            self.slots[trunk as usize] = joiner.0;
            moved.push((trunk, donor));
        }
        self.epoch += 1;
        moved
    }

    /// Move a single trunk to a new owner, bumping the epoch — the unit
    /// step of an online migration flip. No-op (and no epoch bump) if the
    /// trunk already lives there.
    pub fn reassign_one(&mut self, trunk: u64, to: MachineId) {
        if self.slots[trunk as usize] == to.0 {
            return;
        }
        self.slots[trunk as usize] = to.0;
        self.epoch += 1;
    }

    /// Trunks whose owner differs between this table and `other` — the
    /// set a replica holder must treat as reconfigured (cached cells
    /// dropped, sharer directories reset) when stepping between them.
    pub fn changed_trunks(&self, other: &AddressingTable) -> Vec<u64> {
        assert_eq!(self.slots.len(), other.slots.len());
        self.slots
            .iter()
            .zip(&other.slots)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Serialize for TFS persistence.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.slots.len() * 2);
        out.extend_from_slice(b"ATBL");
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for s in &self.slots {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Deserialize what [`encode`](Self::encode) wrote, or `None`.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut r = Reader::new(data);
        r.take(4).ok().filter(|magic| magic == b"ATBL")?;
        let epoch = r.u64().ok()?;
        let n = r.u32().ok().filter(|n| n.is_power_of_two())?;
        let slots = r.chunks::<2>(n.into()).ok()?;
        r.finish().ok()?;
        let slots = slots.iter().map(|s| u16::from_le_bytes(*s)).collect();
        Some(AddressingTable { epoch, slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_all_machines_evenly() {
        let t = AddressingTable::round_robin(4, 3); // 16 trunks, 3 machines
        assert_eq!(t.trunk_count(), 16);
        assert_eq!(t.p_bits(), 4);
        let loads: Vec<usize> = (0..3).map(|m| t.trunks_of(MachineId(m)).len()).collect();
        assert_eq!(loads.iter().sum::<usize>(), 16);
        assert!(loads.iter().all(|&l| (5..=6).contains(&l)), "{loads:?}");
    }

    #[test]
    fn routing_is_total_and_stable() {
        let t = AddressingTable::round_robin(5, 4);
        for id in 0..10_000u64 {
            let m1 = t.machine_of(id);
            let m2 = t.machine_of(id);
            assert_eq!(m1, m2);
            assert!(m1.0 < 4);
        }
    }

    #[test]
    fn reassign_failed_moves_every_trunk_off_the_dead_machine() {
        let mut t = AddressingTable::round_robin(4, 4);
        let before_epoch = t.epoch;
        let survivors: Vec<MachineId> = (0..3).map(MachineId).collect();
        let moved = t.reassign_failed(MachineId(3), &survivors);
        assert_eq!(moved.len(), 4);
        assert!(t.trunks_of(MachineId(3)).is_empty());
        assert_eq!(t.epoch, before_epoch + 1);
        // Survivors stay balanced: 16 trunks over 3 machines.
        for m in 0..3 {
            let l = t.trunks_of(MachineId(m)).len();
            assert!((5..=6).contains(&l), "machine {m} got {l} trunks");
        }
    }

    #[test]
    fn rebalance_join_gives_newcomer_a_fair_share() {
        let mut t = AddressingTable::round_robin(4, 3);
        let moved = t.rebalance_join(MachineId(3));
        assert!(!moved.is_empty());
        assert_eq!(t.trunks_of(MachineId(3)).len(), 4); // 16 / 4
        let total: usize = (0..4).map(|m| t.trunks_of(MachineId(m)).len()).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = AddressingTable::round_robin(3, 2);
        t.reassign_failed(MachineId(1), &[MachineId(0)]);
        let bytes = t.encode();
        assert_eq!(AddressingTable::decode(&bytes).unwrap(), t);
        assert_eq!(AddressingTable::decode(b"junk"), None);
        assert_eq!(AddressingTable::decode(&bytes[..10]), None);
    }

    #[test]
    fn table_codec_keeps_the_codec_laws() {
        crate::codec_laws::check(
            0xa7b1,
            |rng| AddressingTable {
                epoch: rng.u64(),
                slots: (0..1 << rng.below(5))
                    .map(|_| rng.below(4) as u16)
                    .collect(),
            },
            AddressingTable::encode,
            AddressingTable::decode,
            true,
        );
    }
}
