//! The op model the cloud property tests share: a random op issued via a
//! random machine, applied to the cloud and to a `HashMap` side by side.
//! (Also included by `crates/elastic/tests/join.rs`, which runs it across
//! an online join.)

use proptest::prelude::*;
use std::collections::HashMap;

use trinity_memcloud::MemoryCloud;

#[derive(Debug, Clone)]
pub enum Op {
    Put { via: usize, key: u64, val: Vec<u8> },
    Append { via: usize, key: u64, val: Vec<u8> },
    Remove { via: usize, key: u64 },
    Get { via: usize, key: u64 },
    Backup,
}

pub fn op_strategy(machines: usize) -> impl Strategy<Value = Op> {
    let via = 0..machines;
    let key = 0u64..64;
    let bytes = proptest::collection::vec(any::<u8>(), 0..48);
    prop_oneof![
        4 => (via.clone(), key.clone(), bytes.clone()).prop_map(|(via, key, val)| Op::Put { via, key, val }),
        2 => (via.clone(), key.clone(), bytes).prop_map(|(via, key, val)| Op::Append { via, key, val }),
        2 => (via.clone(), key.clone()).prop_map(|(via, key)| Op::Remove { via, key }),
        3 => (via, key).prop_map(|(via, key)| Op::Get { via, key }),
        1 => Just(Op::Backup),
    ]
}

pub fn apply(cloud: &MemoryCloud, model: &mut HashMap<u64, Vec<u8>>, op: &Op) {
    match op {
        Op::Put { via, key, val } => {
            cloud.node(*via).put(*key, val).unwrap();
            model.insert(*key, val.clone());
        }
        Op::Append { via, key, val } => {
            let existed = cloud.node(*via).append(*key, val).unwrap();
            match model.get_mut(key) {
                Some(m) => {
                    assert!(existed);
                    m.extend_from_slice(val);
                }
                None => assert!(!existed),
            }
        }
        Op::Remove { via, key } => {
            let existed = cloud.node(*via).remove(*key).unwrap();
            assert_eq!(existed, model.remove(key).is_some());
        }
        Op::Get { via, key } => {
            assert_eq!(
                cloud.node(*via).get(*key).unwrap().as_deref(),
                model.get(key).map(Vec::as_slice)
            );
        }
        Op::Backup => cloud.backup_all().unwrap(),
    }
}
