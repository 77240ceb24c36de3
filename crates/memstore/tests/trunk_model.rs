//! Model-based property tests for the memory trunk.
//!
//! The trunk must behave exactly like a `HashMap<u64, Vec<u8>>` under any
//! interleaving of puts, appends, updates, removes and defragmentation
//! passes — the circular allocator, wrap fillers, short-lived reservations
//! and compaction are all invisible at the key-value level.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use trinity_memstore::{
    next_version, SnapshotError, StoreError, Trunk, TrunkConfig, TrunkSnapshot,
};
use trinity_obs::MachineScope;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Append(u64, Vec<u8>),
    Update(u64, Vec<u8>),
    Remove(u64),
    Defrag,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u64..32;
    let bytes = proptest::collection::vec(any::<u8>(), 0..120);
    prop_oneof![
        4 => (key.clone(), bytes.clone()).prop_map(|(k, b)| Op::Put(k, b)),
        3 => (key.clone(), bytes.clone()).prop_map(|(k, b)| Op::Append(k, b)),
        2 => (key.clone(), bytes).prop_map(|(k, b)| Op::Update(k, b)),
        2 => key.clone().prop_map(Op::Remove),
        1 => Just(Op::Defrag),
    ]
}

fn check_against_model(ops: Vec<Op>, slack: f64) {
    let obs = MachineScope::detached();
    let trunk = Trunk::with_obs(
        0,
        TrunkConfig {
            reserved_bytes: 64 << 10,
            page_bytes: 1 << 10,
            expansion_slack: slack,
        },
        obs.clone(),
    );
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    // Upper bound on any single allocation the trunk may have made: a cell
    // of the largest length seen plus its expansion slack (slack is at
    // most `factor * growth <= factor * len`). A wrap filler — the one
    // kind of dead byte a *completed* defrag pass may leave behind — is
    // always smaller than the allocation that triggered the wrap.
    let mut max_need = 0usize;
    let note_len = |max_need: &mut usize, len: usize| {
        let bound = 16 + (((1.0 + slack) * len as f64) as usize).div_ceil(8) * 8;
        *max_need = (*max_need).max(bound);
    };
    for op in ops {
        match op {
            Op::Put(k, b) => {
                trunk.put(k, &b).unwrap();
                note_len(&mut max_need, b.len());
                model.insert(k, b);
            }
            Op::Append(k, b) => match trunk.append(k, &b) {
                Ok(_) => {
                    let cell = model
                        .get_mut(&k)
                        .expect("trunk accepted append on absent key");
                    cell.extend_from_slice(&b);
                    note_len(&mut max_need, cell.len());
                }
                Err(StoreError::NotFound(_)) => assert!(!model.contains_key(&k)),
                Err(e) => panic!("unexpected append error: {e}"),
            },
            // A replace of an existing cell: a compare-and-swap at the
            // cell's current stamp, so an absent key is still `NotFound`.
            Op::Update(k, b) => match trunk.put_if_version(k, &b, trunk.version_of(k).unwrap_or(0))
            {
                Ok(_) => {
                    assert!(model.contains_key(&k), "trunk updated an absent key");
                    note_len(&mut max_need, b.len());
                    model.insert(k, b);
                }
                Err(StoreError::NotFound(_)) => assert!(!model.contains_key(&k)),
                Err(e) => panic!("unexpected update error: {e}"),
            },
            Op::Remove(k) => match trunk.remove(k) {
                Ok(_) => {
                    assert!(model.remove(&k).is_some(), "trunk removed an absent key");
                }
                Err(StoreError::NotFound(_)) => assert!(!model.contains_key(&k)),
                Err(e) => panic!("unexpected remove error: {e}"),
            },
            Op::Defrag => {
                let report = trunk.defragment();
                assert!(
                    report.completed,
                    "no cell is pinned in this single-threaded test"
                );
                let stats = trunk.stats();
                // A completed pass reclaims everything except, at most, one
                // wrap filler written while re-appending cells past the
                // reserved end; a filler is always smaller than the
                // allocation that triggered it.
                assert!(
                    stats.dead_bytes <= max_need,
                    "completed defrag left {} dead bytes (> largest allocation {})",
                    stats.dead_bytes,
                    max_need
                );
                assert_eq!(
                    stats.slack_bytes, 0,
                    "completed defrag must drop all reservation slack"
                );
            }
        }
        // Continuous invariants.
        assert_eq!(trunk.cell_count(), model.len());
        let stats = trunk.stats();
        let payload: usize = model.values().map(|v| v.len()).sum();
        assert_eq!(
            stats.live_payload_bytes, payload,
            "live payload accounting drifted"
        );
        assert!(stats.used_bytes <= stats.reserved_bytes);
        assert!(stats.committed_bytes <= stats.reserved_bytes);
        // The machine gauges follow the window exactly.
        let gauge = |name: &str| obs.snapshot().gauges.get(name).copied().unwrap_or(0);
        assert_eq!(gauge("store.used_bytes"), stats.used_bytes as i64);
        assert_eq!(gauge("store.committed_bytes"), stats.committed_bytes as i64);
    }
    // Final full readback.
    for (k, v) in &model {
        assert_eq!(
            trunk.get_owned(*k).as_deref(),
            Some(v.as_slice()),
            "cell {k} corrupted"
        );
    }
    // Snapshot/restore must preserve exactly the model contents.
    let snap = TrunkSnapshot::capture(&trunk);
    let restored = snap.restore(TrunkConfig::small()).unwrap();
    assert_eq!(restored.cell_count(), model.len());
    for (k, v) in &model {
        assert_eq!(restored.get_owned(*k).as_deref(), Some(v.as_slice()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trunk_matches_hashmap_with_reservations(ops in proptest::collection::vec(op_strategy(), 0..300)) {
        check_against_model(ops, 1.0);
    }

    #[test]
    fn trunk_matches_hashmap_without_reservations(ops in proptest::collection::vec(op_strategy(), 0..300)) {
        check_against_model(ops, 0.0);
    }

    #[test]
    fn trunk_matches_hashmap_with_aggressive_slack(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        check_against_model(ops, 4.0);
    }

    /// Image bytes come from TFS, i.e. from outside the process. Whatever
    /// arrives — noise, or a real image cut short or with a byte flipped
    /// anywhere — the restorer answers without panicking and an `Err`
    /// leaves the target trunk exactly as it was. A cut or a flip never
    /// restores: the trailer vouches for every byte.
    #[test]
    fn restorer_survives_arbitrary_and_damaged_images(
        cells in proptest::collection::vec((0u64..64, payload()), 0..24),
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        cut in any::<usize>(),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let source = Trunk::new(5, TrunkConfig::small());
        for (k, v) in &cells {
            source.put(*k, v).unwrap();
        }
        let good = TrunkSnapshot::capture(&source).encode();
        let truncated = good[..cut % good.len()].to_vec();
        let mut flipped = good.clone();
        flipped[flip % good.len()] ^= 1 << bit;
        for image in [&noise, &truncated, &flipped] {
            let target = Trunk::new(5, TrunkConfig::small());
            match TrunkSnapshot::restore_image(image, &target) {
                Err(_) => {
                    prop_assert_eq!(target.cell_count(), 0);
                    prop_assert_eq!(target.mutation_count(), 0);
                    prop_assert!(TrunkSnapshot::decode(image).is_err());
                }
                Ok(()) => {
                    prop_assert!(image == &noise, "a damaged image restored");
                    prop_assert_eq!(TrunkSnapshot::capture(&target).encode(), *image);
                }
            }
        }
    }

    /// Every payload comes back bit-identical, whatever its shape: bytes
    /// with no list tail, a real `u32 n | n × u64` tail whose ids are
    /// ascending, descending, repeated or near `u64::MAX`, and tails that
    /// only look like one. Cell ids span the whole `u64` range. The image
    /// is canonical: decoding it and encoding again gives the same bytes.
    #[test]
    fn image_round_trip_is_bit_identical_and_canonical(
        cells in proptest::collection::vec((cell_id(), payload()), 0..40),
    ) {
        let source = Trunk::new(9, TrunkConfig::small());
        let mut model = HashMap::new();
        for (k, v) in cells {
            source.put(k, &v).unwrap();
            model.insert(k, v);
        }
        let image = TrunkSnapshot::capture(&source).encode();
        let decoded = TrunkSnapshot::decode(&image).unwrap();
        prop_assert_eq!(decoded.cell_count(), model.len() as u64);
        let restored = decoded.restore(TrunkConfig::small()).unwrap();
        prop_assert_eq!(restored.cell_count(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(restored.get_owned(*k), Some(v.clone()), "cell {}", k);
        }
        prop_assert_eq!(TrunkSnapshot::capture(&restored).encode(), image);
    }
}

/// The trunk a bulk load is compared in: its largest cell, `check_len`'s
/// limit, leaves a page of room, and a page holds every small cell a
/// case draws, so no case runs out of room.
fn bulk_target(obs: &MachineScope) -> Trunk {
    let cfg = TrunkConfig {
        reserved_bytes: 64 << 10,
        page_bytes: 16 << 10,
        expansion_slack: 1.0,
    };
    Trunk::with_obs(3, cfg, obs.clone())
}

/// The largest payload [`bulk_target`] accepts.
const BULK_LIMIT: usize = (64 << 10) - (16 << 10) - 16;

/// A cell set for the bulk-load property: small cells of every shape,
/// empty ones among them, and perhaps one within a few bytes of
/// [`BULK_LIMIT`] on either side.
fn bulk_cells() -> impl Strategy<Value = BTreeMap<u64, Vec<u8>>> {
    let small = prop_oneof![1 => Just(Vec::new()), 4 => payload()];
    let big = proptest::option::of((cell_id(), 0usize..16, any::<u8>()));
    let small = proptest::collection::vec((cell_id(), small), 0..24);
    (small, big).prop_map(|(small, big)| {
        let mut cells: BTreeMap<_, _> = small.into_iter().collect();
        if let Some((id, d, fill)) = big {
            cells.insert(id, vec![fill; BULK_LIMIT + 8 - d]);
        }
        cells
    })
}

/// Everything a caller can observe of `trunk` but its version stamps.
fn observed(trunk: &Trunk, obs: &MachineScope) -> impl PartialEq + std::fmt::Debug {
    let mut ids = trunk.cell_ids();
    ids.sort_unstable();
    let cells: Vec<_> = ids.iter().map(|&id| (id, trunk.get_owned(id))).collect();
    let metrics = obs.snapshot();
    let state = (
        cells,
        trunk.stats(),
        trunk.mutation_count(),
        metrics.counters,
        metrics.gauges,
        metrics.hists,
    );
    // Equal layouts defragment alike.
    (state, trunk.defragment())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `restore_image` is one bulk load, and it must leave the trunk as
    /// `insert_new` of each cell in id order would: the same cells, the
    /// same statistics and layout, the same mutation count and `store.*`
    /// metrics, and the same error at the same cell when one does not
    /// fit. Its stamps are one ascending block drawn after the call began.
    #[test]
    fn bulk_load_equals_per_cell_inserts(cells in bulk_cells()) {
        let source = Trunk::new(3, TrunkConfig { reserved_bytes: 1 << 20, ..TrunkConfig::small() });
        for (&id, payload) in &cells {
            source.put(id, payload).unwrap();
        }
        let image = TrunkSnapshot::capture(&source).encode();

        let each_obs = MachineScope::detached();
        let each = bulk_target(&each_obs);
        let mut each_result = Ok(());
        for (&id, payload) in &cells {
            if let Err(e) = each.insert_new(id, payload) {
                each_result = Err(SnapshotError::Load(id, e));
                break;
            }
        }

        let bulk_obs = MachineScope::detached();
        let bulk = bulk_target(&bulk_obs);
        let before = next_version();
        let bulk_result = TrunkSnapshot::restore_image(&image, &bulk);
        prop_assert_eq!(&bulk_result, &each_result);
        let mut last = before;
        for &id in cells.keys().filter(|&&id| bulk.contains(id)) {
            let version = bulk.version_of(id).unwrap();
            prop_assert!(version > last, "cell {} stamped {} after {}", id, version, last);
            last = version;
        }
        prop_assert_eq!(observed(&bulk, &bulk_obs), observed(&each, &each_obs));
    }
}

/// The configuration of the recycled-region property: a window small
/// enough that a few hundred random ops, and the forced wrap after them,
/// cross the reserved end.
fn recycled_cfg(slack: f64) -> TrunkConfig {
    TrunkConfig {
        reserved_bytes: 32 << 10,
        page_bytes: 1 << 10,
        expansion_slack: slack,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A region a trunk gave up is indistinguishable from a fresh one. The
    /// first trunk runs random ops (relocating appends, removes and
    /// defragmentation passes among them), and then keeps one cell while
    /// enough passes move it around the window to wrap it past the
    /// reserved end. The region it gives up reads zero throughout, so
    /// every byte past the head of the trunk restored into it does too,
    /// and that trunk equals a restore of the same image into a fresh
    /// region: cells, statistics, mutation count, every `store.*` metric
    /// and the report of a follow-up defragmentation pass.
    #[test]
    fn a_recycled_region_restores_like_a_fresh_one(
        ops in proptest::collection::vec(op_strategy(), 0..300),
        slack in prop_oneof![1 => Just(0.0), 1 => Just(1.0), 1 => Just(4.0)],
    ) {
        let first_obs = MachineScope::detached();
        let first = Trunk::with_obs(1, recycled_cfg(slack), first_obs.clone());
        for op in ops {
            // Only what the ops leave in the region matters here: a write
            // the window has no room for is skipped.
            let _ = match op {
                Op::Put(k, b) => first.put(k, &b).map(drop),
                Op::Append(k, b) => first.append(k, &b).map(drop),
                Op::Update(k, b) => first.put_if_version(k, &b, first.version_of(k).unwrap_or(0)).map(drop),
                Op::Remove(k) => first.remove(k).map(drop),
                Op::Defrag => {
                    first.defragment();
                    Ok(())
                }
            };
        }
        let image = TrunkSnapshot::capture(&first).encode();
        for id in first.cell_ids() {
            first.remove(id).unwrap();
        }
        first.put(1_000, &[7; 200]).unwrap();
        // Each pass re-appends the live cell at the head.
        for _ in 0..(32 << 10) / 216 + 2 {
            prop_assert!(first.defragment().completed);
        }
        let region = first.into_region();
        prop_assert!(region.is_zeroed(), "a given-up region kept a written byte");
        let gauges = first_obs.snapshot().gauges;
        prop_assert!(gauges.values().all(|&g| g == 0), "{:?}", gauges);

        let recycled_obs = MachineScope::detached();
        let recycled = Trunk::in_region(2, recycled_cfg(slack), recycled_obs.clone(), region);
        let fresh_obs = MachineScope::detached();
        let fresh = Trunk::with_obs(2, recycled_cfg(slack), fresh_obs.clone());
        prop_assert_eq!(
            TrunkSnapshot::restore_image(&image, &recycled),
            TrunkSnapshot::restore_image(&image, &fresh)
        );
        prop_assert_eq!(observed(&recycled, &recycled_obs), observed(&fresh, &fresh_obs));
        // What the recycled trunk wrote is zeroed again on the way out,
        // and nothing else was ever written.
        prop_assert!(recycled.into_region().is_zeroed());
    }
}

/// `prefix | u32 n | n × u64 LE`, the list tail the image codec stores as
/// gaps.
fn with_list(mut prefix: Vec<u8>, ids: &[u64]) -> Vec<u8> {
    prefix.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        prefix.extend_from_slice(&id.to_le_bytes());
    }
    prefix
}

/// A cell id; the trunk reserves the top two.
fn cell_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..256,
        1 => (2u64..258).prop_map(|k| u64::MAX - k),
        1 => 0..u64::MAX - 1,
    ]
}

/// An id as a list stores it: any `u64`.
fn listed_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => 0u64..256,
        1 => (0u64..256).prop_map(|k| u64::MAX - k),
        1 => any::<u64>(),
    ]
}

/// Payloads of every shape the image codec tells apart.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..40);
    let ids = || proptest::collection::vec(listed_id(), 0..24);
    prop_oneof![
        2 => bytes(),
        // A real list: sorted, reversed, every id twice, or as drawn.
        3 => (bytes(), ids(), 0u8..4).prop_map(|(prefix, mut ids, order)| {
            match order {
                0 => ids.sort_unstable(),
                1 => ids.sort_unstable_by(|a, b| b.cmp(a)),
                2 => ids = ids.iter().flat_map(|&id| [id, id]).collect(),
                _ => {}
            }
            with_list(prefix, &ids)
        }),
        // Looks like a list and is not: the count is off by one, or the
        // last byte of the last id is missing.
        2 => (bytes(), ids(), any::<bool>()).prop_map(|(prefix, ids, cut)| {
            let mut p = with_list(prefix.clone(), &ids);
            if cut {
                p.pop();
            } else {
                p[prefix.len()] ^= 1;
            }
            p
        }),
    ]
}
