//! Out-of-core tiering properties (DESIGN.md §15).
//!
//! The spill path must be a lossless round trip: a trunk's sealed cell
//! image goes to TFS, the trunk drops from the memstore, and the first
//! access faults back a **bit-identical** trunk — under arbitrary cell
//! sets, repeated spill/fault cycles (advancing the TFS CAS version each
//! time), and concurrent readers racing the fault-in. Crash seeds prove
//! the recovery contract: a machine that dies mid-spill or with trunks
//! spilled loses nothing, because the spill image *is* the recovery
//! backup image.
//!
//! Eviction must also cost what changed and no more: a trunk untouched
//! since it was faulted in leaves memory without a byte written to TFS,
//! while any write — or any foreign writer of its backup path — forces
//! exactly one full image write. `eviction_cost_tracks_change` checks
//! both directions against an exact model.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use trinity_graph::{load_graph, LoadOptions};
use trinity_memcloud::{trunk_backup_path, CloudConfig, CloudError, CloudNode, MemoryCloud};
use trinity_memstore::{Trunk, TrunkConfig, TrunkSnapshot};

/// Capture the canonical byte image of every resident trunk `machine`
/// owns, keyed by trunk id.
fn capture_owned(cloud: &MemoryCloud, machine: usize) -> HashMap<u64, Vec<u8>> {
    let node = cloud.node(machine);
    let table = node.table();
    let mut images = HashMap::new();
    for gid in table.trunks_of(node.machine()) {
        if let Some(trunk) = node.store().trunk(gid) {
            images.insert(gid, TrunkSnapshot::capture(&trunk).encode());
        }
    }
    images
}

/// The image a trunk holding exactly `cells` must have: captured from a
/// scratch trunk filled from the model, never from the trunk under test
/// (the byte layout itself is pinned in `memstore`).
fn model_image(gid: u64, cells: &BTreeMap<u64, Vec<u8>>) -> Vec<u8> {
    let trunk = Trunk::new(gid, TrunkConfig::small());
    for (id, bytes) in cells {
        trunk.put(*id, bytes).unwrap();
    }
    TrunkSnapshot::capture(&trunk).encode()
}

/// The resident trunk `gid` holds exactly `cells`.
fn assert_trunk_is(node: &CloudNode, gid: u64, cells: &BTreeMap<u64, Vec<u8>>, when: &str) {
    let trunk = node
        .store()
        .trunk(gid)
        .unwrap_or_else(|| panic!("{when}: trunk {gid} is not in the store"));
    assert_eq!(
        TrunkSnapshot::capture(&trunk).as_bytes(),
        model_image(gid, cells),
        "{when}: trunk {gid} diverged from the model"
    );
}

/// One trunk of machine 0 and `n` cell ids that live in it.
fn trunk_with_keys(cloud: &MemoryCloud, n: usize) -> (u64, Vec<u64>) {
    let node = cloud.node(0);
    let table = node.table();
    let gid = table.trunks_of(node.machine())[0];
    let keys = (0u64..).filter(|&k| table.trunk_of(k) == gid).take(n);
    (gid, keys.collect())
}

#[derive(Debug, Clone)]
enum TierOp {
    Put(usize, Vec<u8>),
    Append(usize, Vec<u8>),
    Remove(usize),
    Backup,
    /// A foreign writer re-writes the backup file with the bytes it
    /// already has: contents equal, version stamp advanced.
    ForeignTouch,
    Spill,
    Fault,
    /// Evict, then lose the machine: revive it and reload from TFS.
    EvictAndCrash,
}

const TIER_KEYS: usize = 10;

fn tier_op() -> impl Strategy<Value = TierOp> {
    let key = 0usize..TIER_KEYS;
    let bytes = proptest::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        3 => (key.clone(), bytes.clone()).prop_map(|(k, b)| TierOp::Put(k, b)),
        2 => (key.clone(), bytes).prop_map(|(k, b)| TierOp::Append(k, b)),
        1 => key.prop_map(TierOp::Remove),
        1 => Just(TierOp::Backup),
        1 => Just(TierOp::ForeignTouch),
        5 => Just(TierOp::Spill),
        4 => Just(TierOp::Fault),
        1 => Just(TierOp::EvictAndCrash),
    ]
}

/// Evict trunk `gid` and check the cost against what the model expects:
/// `dirty` ⇒ exactly one full image write; clean ⇒ no write at all.
fn spill_and_check(
    cloud: &MemoryCloud,
    gid: u64,
    cells: &BTreeMap<u64, Vec<u8>>,
    dirty: bool,
    step: usize,
) {
    let path = trunk_backup_path(gid);
    let before = cloud.tier_stats();
    let file_before = cloud.tfs().read_versioned(&path).ok();
    assert!(
        cloud.node(0).spill_trunk(gid).unwrap(),
        "step {step}: a resident, unpinned trunk must leave memory"
    );
    let after = cloud.tier_stats();
    let (version, file) = cloud.tfs().read_versioned(&path).unwrap();
    let image = model_image(gid, cells);
    assert_eq!(*file, image, "step {step}: TFS does not hold the trunk");
    assert!(cloud.node(0).store().trunk(gid).is_none());
    if dirty {
        assert_eq!(after.spills, before.spills + 1, "step {step}: one write");
        assert_eq!(after.spill_bytes, before.spill_bytes + image.len() as u64);
        assert_eq!(after.clean_evictions, before.clean_evictions);
        assert!(file_before.is_none_or(|(v, _)| version > v));
    } else {
        let (version_before, file_before) = file_before.expect("clean implies an image");
        assert_eq!(after.spills, before.spills, "step {step}: no write");
        assert_eq!(
            after.spill_bytes, before.spill_bytes,
            "step {step}: 0 bytes"
        );
        assert_eq!(after.clean_evictions, before.clean_evictions + 1);
        assert_eq!(version, version_before, "step {step}: stamp untouched");
        assert!(
            Arc::ptr_eq(&file, &file_before),
            "step {step}: blob replaced"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of cell writes, backups and foreign touches
    /// of the backup file with evictions, faults and crashes, on one
    /// trunk, against an exact model of (a) the trunk's cells and (b)
    /// whether TFS already holds them.
    #[test]
    fn eviction_cost_tracks_change(ops in proptest::collection::vec(tier_op(), 1..60)) {
        let cloud = MemoryCloud::new(CloudConfig::small(2));
        let (gid, keys) = trunk_with_keys(&cloud, TIER_KEYS);
        let node = cloud.node(0);
        let path = trunk_backup_path(gid);
        let mut cells: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut resident = true;
        // A trunk TFS has never seen is dirty by definition.
        let mut dirty = true;
        for (step, op) in ops.into_iter().enumerate() {
            // Every cell operation faults a spilled trunk in first.
            let touches_cells = matches!(
                op,
                TierOp::Put(..) | TierOp::Append(..) | TierOp::Remove(_) | TierOp::Fault
            );
            if touches_cells && !resident {
                if let TierOp::Fault = op {
                    node.resident_trunk(gid).unwrap();
                }
                (resident, dirty) = (true, false);
            }
            // Route writes through either machine: the local handler and
            // the remote one share the gate.
            let via = cloud.node(step % 2);
            match op {
                TierOp::Put(k, bytes) => {
                    via.put(keys[k], &bytes).unwrap();
                    cells.insert(keys[k], bytes);
                    dirty = true;
                }
                TierOp::Append(k, bytes) => {
                    let applied = via.append(keys[k], &bytes).unwrap();
                    prop_assert_eq!(applied, cells.contains_key(&keys[k]));
                    if let Some(cell) = cells.get_mut(&keys[k]) {
                        cell.extend_from_slice(&bytes);
                        dirty = true;
                    }
                }
                TierOp::Remove(k) => {
                    let applied = via.remove(keys[k]).unwrap();
                    prop_assert_eq!(applied, cells.remove(&keys[k]).is_some());
                    dirty |= applied;
                }
                TierOp::Backup => {
                    node.backup_trunk(gid).unwrap();
                    // Same bytes, new stamp: the next eviction cannot
                    // know that and must write.
                    dirty |= resident;
                }
                TierOp::ForeignTouch => {
                    if let Ok(file) = cloud.tfs().read(&path) {
                        cloud.tfs().write(&path, &file).unwrap();
                        // A spilled trunk faults in at the new stamp and
                        // is clean again; a resident one is not.
                        dirty |= resident;
                    }
                }
                TierOp::Spill => {
                    if resident {
                        spill_and_check(&cloud, gid, &cells, dirty, step);
                        resident = false;
                    } else {
                        prop_assert!(!node.spill_trunk(gid).unwrap());
                    }
                }
                TierOp::Fault => {
                    node.resident_trunk(gid).unwrap();
                    assert_trunk_is(node, gid, &cells, &format!("step {step}, after fault"));
                }
                TierOp::EvictAndCrash => {
                    if resident {
                        spill_and_check(&cloud, gid, &cells, dirty, step);
                    }
                    cloud.kill_machine(0);
                    cloud.revive_machine(0).unwrap();
                    node.reload_trunk(gid).unwrap();
                    assert_trunk_is(node, gid, &cells, &format!("step {step}, after crash"));
                    // The machine's tier books died with it.
                    (resident, dirty) = (true, true);
                }
            }
        }
        node.resident_trunk(gid).unwrap();
        assert_trunk_is(node, gid, &cells, "at the end");
        // Read through to the owner, not machine 1's cache.
        cloud.node(1).clear_cache();
        for (k, v) in &cells {
            let got = cloud.node(1).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        cloud.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary cell sets, several spill → TFS → fault-in cycles (the
    /// CAS version advances every cycle), writes between cycles: every
    /// faulted-in trunk image is bit-identical to the sealed capture,
    /// and the TFS blob in between is exactly that capture.
    #[test]
    fn spill_fault_round_trip_is_bit_identical(
        cells in proptest::collection::vec((0u64..512, proptest::collection::vec(any::<u8>(), 0..48)), 1..80),
        extra in proptest::collection::vec((0u64..512, proptest::collection::vec(any::<u8>(), 0..48)), 1..20),
        cycles in 1usize..3,
    ) {
        let cloud = MemoryCloud::new(CloudConfig::small(2));
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (k, v) in &cells {
            cloud.node(0).put(*k, v).unwrap();
            model.insert(*k, v.clone());
        }
        for cycle in 0..cycles {
            for m in 0..2 {
                let node = cloud.node(m);
                let before = capture_owned(&cloud, m);
                for (&gid, image) in &before {
                    let spilled = node.spill_trunk(gid).unwrap();
                    prop_assert!(spilled, "resident unpinned trunk {gid} must spill");
                    prop_assert!(!node.trunk_resident(gid));
                    prop_assert!(node.store().trunk(gid).is_none(), "spill must drop trunk {gid} from the memstore");
                    // The TFS blob is the sealed capture, byte for byte.
                    let (_, blob) = cloud.tfs().read_versioned(&trunk_backup_path(gid)).unwrap();
                    prop_assert_eq!(&*blob, image, "TFS spill image diverged for trunk {}", gid);
                    // Fault back in and re-capture: bit-identical.
                    node.resident_trunk(gid).unwrap();
                    prop_assert!(node.trunk_resident(gid));
                    let trunk = node.store().trunk(gid).unwrap();
                    let after = TrunkSnapshot::capture(&trunk).encode();
                    prop_assert_eq!(&after, image, "fault-in diverged for trunk {}", gid);
                }
            }
            // Mutate between cycles so the next spill CASes over a
            // non-zero TFS version and captures a different image.
            if cycle + 1 < cycles {
                for (k, v) in &extra {
                    let mut v = v.clone();
                    v.push(cycle as u8);
                    cloud.node(1).put(*k, &v).unwrap();
                    model.insert(*k, v);
                }
            }
        }
        let stats = cloud.tier_stats();
        prop_assert!(stats.spills >= 1 && stats.faults >= 1);
        prop_assert_eq!(stats.spilled_trunks, 0, "everything faulted back");
        for (k, v) in &model {
            let got = cloud.node(0).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        cloud.shutdown();
    }

    /// Concurrent readers racing a spilled trunk's fault-in: exactly one
    /// wins the fault turn, the rest block on the tier condvar, and every
    /// reader — local or routed from the remote machine — observes the
    /// pre-spill value of every cell.
    #[test]
    fn concurrent_reads_during_fault_in_see_sealed_values(
        cells in proptest::collection::vec((0u64..256, proptest::collection::vec(any::<u8>(), 1..32)), 8..64),
    ) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (k, v) in &cells {
            cloud.node(0).put(*k, v).unwrap();
            model.insert(*k, v.clone());
        }
        for m in 0..2 {
            let node = cloud.node(m);
            for gid in node.table().trunks_of(node.machine()) {
                node.spill_trunk(gid).unwrap();
            }
        }
        let keys: Vec<u64> = model.keys().copied().collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cloud = Arc::clone(&cloud);
                let keys = keys.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::with_capacity(keys.len());
                    for &k in &keys {
                        got.push((k, cloud.node(t % 2).get(k).unwrap().map(|b| b.to_vec())));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (k, v) in h.join().unwrap() {
                prop_assert_eq!(v.as_deref(), model.get(&k).map(Vec::as_slice), "reader diverged on cell {}", k);
            }
        }
        // Trunks holding none of the read keys legitimately stay
        // spilled; every trunk a reader touched must be back.
        let stats = cloud.tier_stats();
        prop_assert!(stats.faults >= 1, "spilled trunks must fault in under read load");
        for m in 0..2 {
            let node = cloud.node(m);
            let table = node.table();
            for &k in &keys {
                let gid = table.trunk_of(k);
                if table.machine_for(gid) == node.machine() {
                    prop_assert!(
                        node.trunk_resident(gid),
                        "machine {} trunk {} holds read cell {} but stayed spilled (state {:?})",
                        m, gid, k, node.spilled_trunks()
                    );
                }
            }
        }
        cloud.shutdown();
    }
}

/// Crash between the spill's TFS write and the memstore eviction: the
/// image landed at the trunk's backup path but the process died before
/// committing the tier state. Recovery reads the backup path — which
/// holds exactly the sealed capture — so the reassigned trunk loses
/// nothing.
#[test]
fn crash_between_spill_write_and_eviction_loses_nothing() {
    let cloud = MemoryCloud::new(CloudConfig::small(3));
    let mut model = HashMap::new();
    for k in 0u64..192 {
        let v = vec![(k % 251) as u8; 1 + (k % 37) as usize];
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    // Everything else is durable; the victim's trunks carry the fresh data.
    cloud.backup_all().unwrap();
    for k in 200u64..230 {
        let v = vec![0xA5; 9];
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    let victim = 1usize;
    let vm = cloud.node(victim).machine();
    // Replay the first half of the spill by hand: seal-capture each
    // trunk and CAS the image to the backup path, then "crash" before
    // the eviction / tier-state commit would have happened.
    let table = cloud.node(victim).table();
    for gid in table.trunks_of(vm) {
        if let Some(trunk) = cloud.node(victim).store().trunk(gid) {
            let image = TrunkSnapshot::capture(&trunk).encode();
            let path = trunk_backup_path(gid);
            let expected = cloud
                .tfs()
                .read_versioned(&path)
                .map(|(v, _)| v)
                .unwrap_or(0);
            cloud
                .tfs()
                .write_if_version(&path, &image, expected)
                .unwrap();
        }
    }
    cloud.kill_machine(victim);
    cloud.recover(victim).unwrap();
    for (k, v) in &model {
        assert_eq!(
            cloud.node(0).get(*k).unwrap().as_deref(),
            Some(v.as_slice()),
            "cell {k} lost across the mid-spill crash"
        );
    }
    cloud.shutdown();
}

/// Crash while trunks are spilled (covers a crash during fault-in: the
/// TFS image is still the source of truth). The dead machine's memstore
/// held nothing for those trunks — recovery must restore them on the
/// survivors purely from the spill images, with zero divergence.
#[test]
fn crash_with_spilled_trunks_recovers_from_spill_images() {
    let cloud = MemoryCloud::new(CloudConfig::small(3));
    let mut model = HashMap::new();
    for k in 0u64..256 {
        let v = vec![(k % 13) as u8; 1 + (k % 29) as usize];
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    cloud.backup_all().unwrap();
    // Post-backup writes live only in the victim's trunks; the spill
    // seals them into TFS *after* the backup, so recovery serves them.
    let victim = 2usize;
    let vm = cloud.node(victim).machine();
    let table = cloud.node(victim).table();
    let fresh: Vec<u64> = (300u64..360)
        .filter(|k| table.machine_of(*k) == vm)
        .collect();
    assert!(
        !fresh.is_empty(),
        "seed must land post-backup cells on the victim"
    );
    for &k in &fresh {
        let v = vec![0x5A; 17];
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    let mut spilled = 0;
    for gid in table.trunks_of(vm) {
        if cloud.node(victim).spill_trunk(gid).unwrap() {
            spilled += 1;
        }
    }
    assert!(
        spilled > 0,
        "the victim must have trunks out-of-core when it dies"
    );
    assert_eq!(cloud.node(victim).spilled_trunks().len(), spilled);
    cloud.kill_machine(victim);
    cloud.recover(victim).unwrap();
    for (k, v) in &model {
        assert_eq!(
            cloud.node(0).get(*k).unwrap().as_deref(),
            Some(v.as_slice()),
            "cell {k} diverged recovering a spilled trunk"
        );
    }
    cloud.shutdown();
}

/// Budget-driven eviction: with the budget at roughly half the resident
/// bytes, the sweep spills coldest-first until under budget, reads fault
/// the spilled trunks back in transparently, and a pinned trunk is never
/// selected no matter how cold it is.
#[test]
fn budget_sweep_spills_cold_trunks_and_reads_fault_back() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    let mut model = HashMap::new();
    for k in 0u64..512 {
        let v = vec![(k % 199) as u8; 24];
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    let node = cloud.node(0);
    let resident: u64 = node
        .store()
        .trunks()
        .into_iter()
        .map(|t| t.stats().used_bytes as u64)
        .sum();
    assert!(resident > 0);
    // Pin one owned trunk; it must survive even a starvation budget.
    let pinned_gid = node.table().trunks_of(node.machine())[0];
    node.pin_trunk(pinned_gid);
    let spilled = node.set_memory_budget(resident / 2).unwrap();
    assert!(spilled > 0, "half budget must force spills");
    assert!(node.trunk_resident(pinned_gid), "pinned trunk evicted");
    assert!(!node.spilled_trunks().is_empty());
    let remaining: u64 = node
        .store()
        .trunks()
        .into_iter()
        .map(|t| t.stats().used_bytes as u64)
        .sum();
    assert!(
        remaining <= resident / 2,
        "sweep left {remaining} bytes resident over the {} budget",
        resident / 2
    );
    // Every cell still reads correctly — spilled ones via fault-in.
    for (k, v) in &model {
        assert_eq!(
            cloud.node(1).get(*k).unwrap().as_deref(),
            Some(v.as_slice())
        );
    }
    let stats = cloud.tier_stats();
    assert!(stats.spills as usize >= spilled);
    assert!(stats.faults >= 1);
    node.unpin_trunk(pinned_gid);
    cloud.shutdown();
}

/// `tier.resident_bytes` is the bytes actually resident after every way
/// a trunk comes back, budget or no budget: the blocking fault-in and
/// the bulk one both leave it equal to the store's sum.
#[test]
fn resident_gauge_follows_every_fault_in() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    for k in 0u64..256 {
        cloud.node(0).put(k, &[k as u8; 40]).unwrap();
    }
    let node = cloud.node(0);
    let resident = || -> i64 {
        let trunks = node.store().trunks().into_iter();
        trunks.map(|t| t.stats().used_bytes as i64).sum()
    };
    let owned = node.table().trunks_of(node.machine());
    for &gid in &owned {
        assert!(node.spill_trunk(gid).unwrap());
    }
    assert_eq!(node.tier_stats().resident_bytes, resident());
    node.resident_trunk(owned[0]).unwrap();
    assert!(resident() > 0);
    assert_eq!(
        node.tier_stats().resident_bytes,
        resident(),
        "after a blocking fault-in"
    );
    assert_eq!(node.fault_in_many(&owned[1..]).unwrap(), owned.len() - 1);
    assert_eq!(
        node.tier_stats().resident_bytes,
        resident(),
        "after a bulk fault-in"
    );
    cloud.shutdown();
}

/// Writes targeting a spilled trunk fault it in first and land — the
/// gated-mutation path re-checks the tier state, so no mutation applies
/// to a trunk that is mid-spill or absent.
#[test]
fn writes_to_spilled_trunks_fault_in_and_land() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    for k in 0u64..128 {
        cloud.node(0).put(k, &[1, 2, 3]).unwrap();
    }
    for m in 0..2 {
        let node = cloud.node(m);
        for gid in node.table().trunks_of(node.machine()) {
            node.spill_trunk(gid).unwrap();
        }
    }
    for k in 0u64..128 {
        assert!(cloud.node(1).append(k, &[4]).unwrap(), "cell {k} vanished");
        cloud.node(0).put(k + 1000, &[9]).unwrap();
        assert!(cloud.node(0).remove(k + 1000).unwrap());
    }
    for k in 0u64..128 {
        assert_eq!(
            cloud.node(0).get(k).unwrap().as_deref(),
            Some(&[1, 2, 3, 4][..]),
            "append lost on spilled trunk for cell {k}"
        );
    }
    cloud.shutdown();
}

/// A backup file that exists but is not an image is a typed error on
/// every load path, and nothing of it — nor of a remnant trunk left in
/// the store — is ever served: after the file is repaired, both the
/// single and the bulk fault-in restore exactly the image.
#[test]
fn damaged_image_is_typed_and_fault_in_restores_exactly_the_image() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    let (gid, keys) = trunk_with_keys(&cloud, 8);
    let node = cloud.node(0);
    let path = trunk_backup_path(gid);
    let mut cells = BTreeMap::new();
    for (i, &k) in keys.iter().enumerate() {
        let v = vec![i as u8; 5 + i];
        node.put(k, &v).unwrap();
        cells.insert(k, v);
    }
    assert!(node.spill_trunk(gid).unwrap());
    let good = cloud.tfs().read(&path).unwrap();
    let junk_cell = |node: &CloudNode| {
        node.store()
            .ensure_trunk(gid)
            .put(u64::MAX - 7, b"not in the image")
            .unwrap();
    };

    cloud.tfs().write(&path, &good[..good.len() - 3]).unwrap();
    let corrupt = CloudError::CorruptImage { trunk: gid };
    assert_eq!(node.resident_trunk(gid).err(), Some(corrupt.clone()));
    assert_eq!(node.fault_in_many(&[gid]).unwrap(), 0);
    assert_eq!(node.reload_trunk(gid).err(), Some(corrupt));
    assert!(!node.trunk_resident(gid));
    assert_eq!(node.spilled_trunks(), vec![gid], "still spilled, to retry");
    assert_eq!(cloud.tier_stats().faults, 0);
    // Leave a remnant in the store for the next fault-in to discard.
    junk_cell(node);

    cloud.tfs().write(&path, &good).unwrap();
    assert_eq!(node.fault_in_many(&[gid]).unwrap(), 1);
    assert_trunk_is(node, gid, &cells, "bulk fault over a remnant");

    assert!(node.spill_trunk(gid).unwrap());
    junk_cell(node);
    node.resident_trunk(gid).unwrap();
    assert_trunk_is(node, gid, &cells, "single fault over a remnant");

    // A vanished backup restores as an empty trunk on both paths too.
    for bulk in [false, true] {
        assert!(node.spill_trunk(gid).unwrap());
        cloud.tfs().delete(&path).unwrap();
        junk_cell(node);
        if bulk {
            assert_eq!(node.fault_in_many(&[gid]).unwrap(), 1);
        } else {
            node.resident_trunk(gid).unwrap();
        }
        assert_trunk_is(node, gid, &BTreeMap::new(), "fault with no backup");
        for (&k, v) in &cells {
            node.put(k, v).unwrap();
        }
    }
    cloud.shutdown();
}

/// A byte flipped inside a cell payload of a spilled trunk's TFS image —
/// the only durable copy of those cells — is refused on every load path:
/// the trunk stays spilled and nothing of the image is served.
#[test]
fn a_flipped_payload_byte_in_a_spilled_image_is_refused() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    let (gid, keys) = trunk_with_keys(&cloud, 4);
    let node = cloud.node(0);
    let payload = b"a payload the image stores verbatim";
    for &k in &keys {
        node.put(k, payload).unwrap();
    }
    assert!(node.spill_trunk(gid).unwrap());
    let path = trunk_backup_path(gid);
    let mut image = cloud.tfs().read(&path).unwrap().to_vec();
    let at = image
        .windows(payload.len())
        .position(|w| w == payload)
        .expect("the payload is in the image");
    image[at + 10] ^= 0x20;
    cloud.tfs().write(&path, &image).unwrap();

    let corrupt = CloudError::CorruptImage { trunk: gid };
    assert_eq!(node.resident_trunk(gid).err(), Some(corrupt.clone()));
    assert_eq!(node.fault_in_many(&[gid]).unwrap(), 0);
    assert_eq!(node.reload_trunk(gid).err(), Some(corrupt));
    assert!(!node.trunk_resident(gid));
    assert_eq!(node.store().trunk(gid).map_or(0, |t| t.cell_count()), 0);
    assert_eq!(cloud.tier_stats().faults, 0);
    cloud.shutdown();
}

/// Graph trunks shrink on their way to TFS: `social(8_000, 16)` spilled
/// whole costs at most 0.35 of what the same cells took in the previous
/// fixed-width image (20 bytes a trunk, 12 a cell, payloads verbatim),
/// and every cell faults back in bit-identical.
#[test]
fn graph_trunk_images_shrink_and_fault_back_bit_identical() {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
    let csr = trinity_graphgen::social(8_000, 16, 7);
    load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap();
    let mut before: HashMap<u64, Vec<u8>> = HashMap::new();
    let (mut fixed_width, mut image_bytes) = (0u64, 0u64);
    for node in cloud.nodes() {
        for gid in node.table().trunks_of(node.machine()) {
            let trunk = node.store().trunk(gid).expect("every trunk holds nodes");
            fixed_width += 20;
            trunk.for_each_cell(|id, payload| {
                fixed_width += 12 + payload.len() as u64;
                before.insert(id, payload.to_vec());
            });
            assert!(node.spill_trunk(gid).unwrap());
            image_bytes += cloud.tfs().read(&trunk_backup_path(gid)).unwrap().len() as u64;
        }
    }
    assert_eq!(before.len(), 8_000);
    assert!(
        image_bytes * 100 <= fixed_width * 35,
        "{image_bytes} image bytes for {fixed_width} fixed-width bytes"
    );
    let mut seen = 0;
    for node in cloud.nodes() {
        for gid in node.table().trunks_of(node.machine()) {
            node.resident_trunk(gid)
                .unwrap()
                .for_each_cell(|id, payload| {
                    assert_eq!(
                        Some(payload),
                        before.get(&id).map(Vec::as_slice),
                        "cell {id}"
                    );
                    seen += 1;
                });
        }
    }
    assert_eq!(seen, before.len());
    cloud.shutdown();
}

/// `resident_trunk` finds a trunk and never creates one: on a trunk this
/// machine does not own it is `WrongOwner`, and the store still has no
/// trunk under that id afterwards.
#[test]
fn resident_trunk_on_a_trunk_owned_elsewhere_creates_nothing() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    let node = cloud.node(0);
    let table = node.table();
    let gid = table.trunks_of(cloud.node(1).machine())[0];
    assert!(node.store().trunk(gid).is_none());
    assert_eq!(
        node.resident_trunk(gid).err(),
        Some(CloudError::WrongOwner {
            trunk: gid,
            asked: node.machine()
        })
    );
    assert!(
        node.store().trunk(gid).is_none(),
        "resident_trunk left a phantom trunk behind"
    );
    cloud.shutdown();
}

/// Machine 0's owned trunks, each filled with `cells` cells of 48 bytes,
/// and what each holds.
fn filled_trunks(cloud: &MemoryCloud, cells: usize) -> Vec<(u64, BTreeMap<u64, Vec<u8>>)> {
    let node = cloud.node(0);
    let table = node.table();
    table
        .trunks_of(node.machine())
        .into_iter()
        .map(|gid| {
            let keys = (0u64..).filter(|&k| table.trunk_of(k) == gid).take(cells);
            let model: BTreeMap<u64, Vec<u8>> =
                keys.map(|k| (k, vec![(k % 251) as u8; 48])).collect();
            for (k, v) in &model {
                node.put(*k, v).unwrap();
            }
            (gid, model)
        })
        .collect()
}

/// A region is handed to a restore only when nobody else holds the
/// trunk that gave it up. A reader keeps an `Arc` of the one resident
/// trunk while a fault-in of another pushes it out: the reader goes on
/// reading every cell right, and the restore takes a fresh region. Once
/// the reader lets go, the next fault-in lands in a pushed-out region.
#[test]
fn a_held_trunk_keeps_its_region_and_its_cells() {
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    let trunks = filled_trunks(&cloud, 64);
    let node = cloud.node(0);
    let ((held_gid, held_cells), (other_gid, _)) = (&trunks[0], &trunks[1]);
    for (gid, _) in &trunks[1..] {
        assert!(node.spill_trunk(*gid).unwrap());
    }
    let held = node.resident_trunk(*held_gid).unwrap();
    node.set_memory_budget(held.stats().used_bytes as u64)
        .unwrap();
    assert!(
        node.trunk_resident(*held_gid),
        "the budget fits the one trunk"
    );
    let before = node.tier_stats();
    // The reader is reading before the fault-in starts and stops only
    // after it returned.
    let (started, reading) = (Barrier::new(2), AtomicBool::new(true));
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            started.wait();
            let mut rounds = 0u64;
            while reading.load(Ordering::Relaxed) || rounds == 0 {
                for (k, v) in held_cells {
                    assert_eq!(held.get_owned(*k).as_ref(), Some(v), "cell {k}");
                }
                rounds += 1;
            }
            rounds
        });
        started.wait();
        node.resident_trunk(*other_gid).unwrap();
        reading.store(false, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
    });
    assert!(
        node.store().trunk(*held_gid).is_none(),
        "the sweep pushed the held trunk out"
    );
    let after = node.tier_stats();
    assert_eq!(after.faults, before.faults + 1);
    assert_eq!(
        after.region_reuses, before.region_reuses,
        "a held trunk's region was reused"
    );
    for (k, v) in held_cells {
        assert_eq!(held.get_owned(*k).as_ref(), Some(v), "cell {k} after");
    }
    drop(held);
    node.resident_trunk(*held_gid).unwrap();
    let last = node.tier_stats();
    assert_eq!(last.faults, after.faults + 1);
    assert_eq!(last.region_reuses, after.region_reuses + 1);
    assert_trunk_is(node, *held_gid, held_cells, "after the reuse");
    cloud.shutdown();
}

/// In a steady bucket rotation under a budget every fault-in after the
/// first rotation lands in the region of a trunk its sweep pushed out,
/// resident bytes never exceed the budget once a fault-in returns, and
/// every trunk reads back exactly.
#[test]
fn a_steady_bucket_rotation_reuses_every_region() {
    const BUCKETS: usize = 4;
    let cloud = MemoryCloud::new(CloudConfig::small(2));
    let trunks = filled_trunks(&cloud, 48);
    let node = cloud.node(0);
    let largest = trunks
        .iter()
        .map(|(gid, _)| node.store().trunk(*gid).unwrap().stats().used_bytes as u64)
        .max()
        .unwrap();
    let buckets: Vec<Vec<usize>> = (0..BUCKETS)
        .map(|b| (b..trunks.len()).step_by(BUCKETS).collect())
        .collect();
    let per_bucket = buckets.iter().map(Vec::len).max().unwrap() as u64;
    // Two buckets fit, a third does not.
    let budget = 2 * per_bucket * largest + largest / 2;
    node.set_memory_budget(budget).unwrap();
    let resident = || -> u64 {
        let trunks = node.store().trunks().into_iter();
        trunks.map(|t| t.stats().used_bytes as u64).sum()
    };
    let mut after_first = None;
    for step in 0..6 * BUCKETS {
        if step == BUCKETS {
            after_first = Some(node.tier_stats());
        }
        let bucket: Vec<u64> = buckets[step % BUCKETS]
            .iter()
            .map(|&i| trunks[i].0)
            .collect();
        node.fault_in_many(&bucket).unwrap();
        assert!(resident() <= budget, "step {step}: over budget");
        for &i in &buckets[step % BUCKETS] {
            let (gid, cells) = &trunks[i];
            node.resident_trunk(*gid).unwrap();
            assert_trunk_is(node, *gid, cells, &format!("step {step}"));
        }
    }
    let (first, last) = (after_first.unwrap(), node.tier_stats());
    let faults = last.faults - first.faults;
    assert!(faults as usize >= 5 * BUCKETS, "every step faulted");
    assert_eq!(
        last.region_reuses - first.region_reuses,
        faults,
        "a fault-in took a fresh region"
    );
    cloud.shutdown();
}
