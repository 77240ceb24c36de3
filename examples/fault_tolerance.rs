//! Fault tolerance end to end (paper §6.2).
//!
//! Brings up a cluster with recovery agents, stores data, kills a
//! machine, and watches the leader detect the failure, reassign the dead
//! machine's trunks and reload them from their TFS images. §6.2's
//! buffered logging is not implemented, so the example also shows where
//! the durable point is: cells written after the last trunk image die
//! with the machine that owned them.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;
use std::time::Duration;

use trinity::core::recovery::{RecoveryAgents, RecoveryConfig, RecoveryEvent};
use trinity::memcloud::{CloudConfig, MemoryCloud};
use trinity::net::MachineId;

fn main() {
    let machines = 4;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig {
        call_timeout: Duration::from_millis(200),
        ..CloudConfig::small(machines)
    }));

    // Phase 1: base data, snapshotted to TFS.
    println!("writing 300 cells and snapshotting trunks to TFS...");
    for i in 0..300u64 {
        cloud
            .node(0)
            .put(i, format!("snapshot-cell-{i}").as_bytes())
            .unwrap();
    }
    cloud.backup_all().unwrap();

    // Phase 2: post-snapshot updates, held in memory only.
    println!("writing 100 post-snapshot cells (no trunk image yet)...");
    for i in 300..400u64 {
        cloud
            .node(1)
            .put(i, format!("volatile-cell-{i}").as_bytes())
            .unwrap();
    }

    // Start the recovery agents: leader election over the TFS flag.
    let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
    let leader = loop {
        if let Some(l) = RecoveryAgents::current_leader(&cloud) {
            break l;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    println!("leader elected: {leader}");

    // Kill a non-leader machine (remembering which cells die with it).
    let victim = (0..machines as u16)
        .map(MachineId)
        .find(|&p| p != leader)
        .unwrap();
    let table = cloud.node(0).table();
    let on_victim = |i: &u64| table.machine_of(*i) == victim;
    let volatile_on_victim = (300..400u64).filter(on_victim).count();
    println!(
        "killing machine {victim} (owner of {} trunks)...",
        table.trunks_of(victim).len()
    );
    cloud.kill_machine(victim.0 as usize);

    // The leader's probe loop notices and runs the §6.2 recovery protocol.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::time::Instant::now() < deadline {
        if agents.events().iter().any(
            |e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == victim),
        ) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for e in agents.events() {
        println!("  event: {e:?}");
    }

    // Everything that had a trunk image is back; of the post-snapshot
    // cells, exactly the ones the victim owned are gone.
    let survivor = (0..machines).find(|&m| m != victim.0 as usize).unwrap();
    let missing = |range: std::ops::Range<u64>| {
        range
            .filter(|&i| cloud.node(survivor).get(i).unwrap().is_none())
            .count()
    };
    let snapshot_missing = missing(0..300);
    let volatile_missing = missing(300..400);
    println!("verification: {snapshot_missing} of 300 snapshotted cells missing after recovery");
    println!(
        "              {volatile_missing} of 100 post-snapshot cells missing \
         ({volatile_on_victim} lived on {victim})"
    );
    assert_eq!(
        snapshot_missing, 0,
        "recovery must restore every imaged cell"
    );
    assert_eq!(volatile_missing, volatile_on_victim);
    println!(
        "recovered from TFS. new table epoch: {}",
        cloud.node(survivor).table().epoch
    );
    agents.stop();
    cloud.shutdown();
}
