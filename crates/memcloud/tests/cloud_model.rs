//! Model-based property tests for the memory cloud.
//!
//! The cloud must behave exactly like a `HashMap<u64, Vec<u8>>` under
//! arbitrary op sequences issued from arbitrary machines — including a
//! machine failure + recovery in the middle (for cells that were backed
//! up). The same model runs across an online join in
//! `crates/elastic/tests/join.rs`.

use proptest::prelude::*;
use std::collections::HashMap;

use trinity_memcloud::{CloudConfig, MemoryCloud};

mod model;
use model::{apply, op_strategy, Op};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cloud_matches_hashmap(ops in proptest::collection::vec(op_strategy(3), 1..120)) {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        let mut model = HashMap::new();
        for op in &ops {
            apply(&cloud, &mut model, op);
        }
        for (k, v) in &model {
            let got = cloud.node(0).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        cloud.shutdown();
    }

    #[test]
    fn failure_and_recovery_mid_sequence_preserves_backed_up_state(
        before in proptest::collection::vec(op_strategy(3), 1..60),
        after in proptest::collection::vec(op_strategy(3), 1..60),
        victim in 1usize..3,
    ) {
        let cloud = MemoryCloud::new(CloudConfig::small(3));
        let mut model = HashMap::new();
        for op in &before {
            apply(&cloud, &mut model, op);
        }
        // Snapshot everything, then crash & recover: the model is intact
        // because every live cell was just backed up.
        cloud.backup_all().unwrap();
        cloud.kill_machine(victim);
        cloud.recover(victim).unwrap();
        for (k, v) in &model {
            let got = cloud.node(0).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()), "cell {} lost in recovery", k);
        }
        // The cloud keeps working afterwards, routed around the dead
        // machine (ops avoid issuing via the victim).
        for op in &after {
            let redirected = redirect(op, victim);
            apply(&cloud, &mut model, &redirected);
        }
        for (k, v) in &model {
            let got = cloud.node(0).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        cloud.shutdown();
    }
}

fn redirect(op: &Op, victim: usize) -> Op {
    let fix = |via: usize| if via == victim { (victim + 1) % 3 } else { via };
    match op {
        Op::Put { via, key, val } => Op::Put {
            via: fix(*via),
            key: *key,
            val: val.clone(),
        },
        Op::Append { via, key, val } => Op::Append {
            via: fix(*via),
            key: *key,
            val: val.clone(),
        },
        Op::Remove { via, key } => Op::Remove {
            via: fix(*via),
            key: *key,
        },
        Op::Get { via, key } => Op::Get {
            via: fix(*via),
            key: *key,
        },
        Op::Backup => Op::Backup,
    }
}

/// The single-cell CAS behaves like `compare_exchange` on the owner's
/// version stamp, from any machine in the cloud: a fresh stamp wins, a
/// stale one reports the mismatch without clobbering, and the ack stamp
/// chains into the next CAS.
#[test]
fn put_if_version_is_a_cloudwide_cas() {
    use trinity_memcloud::CloudError;
    use trinity_memstore::StoreError;

    let cloud = MemoryCloud::new(CloudConfig::small(3));
    // Pick a key owned by machine 0 so machine 1 exercises the remote path.
    let key = (0u64..)
        .find(|k| {
            let t = cloud.node(0).table();
            t.machine_of(t.trunk_of(*k)) == cloud.node(0).machine()
        })
        .unwrap();

    cloud.node(1).put(key, b"v0").unwrap();
    let v0 = cloud.node(1).version_of(key).unwrap().unwrap();

    let v1 = cloud.node(1).put_if_version(key, b"v1", v0).unwrap();
    assert!(v1 > v0);

    // The stale stamp must lose, reporting what it collided with.
    match cloud.node(2).put_if_version(key, b"stale", v0) {
        Err(CloudError::Store(StoreError::VersionMismatch {
            id,
            expected,
            found,
        })) => {
            assert_eq!(id, key);
            assert_eq!(expected, v0);
            assert_eq!(found, v1);
        }
        other => panic!("expected version mismatch, got {other:?}"),
    }
    assert_eq!(cloud.node(2).get(key).unwrap().as_deref(), Some(&b"v1"[..]));

    // The winning ack's stamp is the next expected value — and works
    // issued from the owner itself (local dispatch path).
    let v2 = cloud.node(0).put_if_version(key, b"v2", v1).unwrap();
    assert!(v2 > v1);
    assert_eq!(cloud.node(1).get(key).unwrap().as_deref(), Some(&b"v2"[..]));

    // CAS on a cell that never existed is NotFound, not a silent create.
    match cloud.node(1).put_if_version(key + (1 << 40), b"x", v2) {
        Err(CloudError::Store(StoreError::NotFound(_))) => {}
        other => panic!("expected not-found, got {other:?}"),
    }
    cloud.shutdown();
}
