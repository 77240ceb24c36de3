//! The memory cloud's `HashMap` model (shared with
//! `crates/memcloud/tests/cloud_model.rs`) across an online join: a
//! standby machine joining mid-sequence is invisible to every reader and
//! writer, including ones that go through the joiner afterwards.

use proptest::prelude::*;
use std::collections::HashMap;

use trinity_elastic::{MigrationConfig, MigrationEngine};
use trinity_memcloud::{CloudConfig, MemoryCloud};

#[path = "../../memcloud/tests/model/mod.rs"]
mod model;
use model::{apply, op_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn join_mid_sequence_is_transparent(
        before in proptest::collection::vec(op_strategy(2), 1..60),
        after in proptest::collection::vec(op_strategy(3), 1..60),
    ) {
        let cloud = MemoryCloud::new(CloudConfig { standby_machines: 1, ..CloudConfig::small(2) });
        let mut model = HashMap::new();
        for op in &before {
            apply(&cloud, &mut model, op);
        }
        MigrationEngine::new(MigrationConfig::default()).join_machine(&cloud, 2).unwrap();
        for (k, v) in &model {
            let got = cloud.node(2).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()), "cell {} lost in join", k);
        }
        for op in &after {
            apply(&cloud, &mut model, op); // `via` may now be the joiner
        }
        for (k, v) in &model {
            let got = cloud.node(1).get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        cloud.shutdown();
    }
}
