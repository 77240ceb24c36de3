//! Fault-injection integration tests: failures at awkward moments.

use std::sync::Arc;
use std::time::Duration;

use trinity::core::checkpoint::{resume_from_checkpoint, run_with_checkpoints, CheckpointConfig};
use trinity::core::recovery::{RecoveryAgents, RecoveryConfig, RecoveryEvent};
use trinity::core::{BspConfig, BspRunner, VertexContext, VertexProgram};
use trinity::graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity::memcloud::{CloudConfig, MemoryCloud};
use trinity::net::MachineId;

/// Max-id propagation (the canonical deterministic BSP job).
struct MaxValue;
impl VertexProgram for MaxValue {
    type State = u64;
    type Msg = u64;
    fn init(&self, id: u64, _view: &trinity::graph::NodeView<'_>) -> u64 {
        id
    }
    fn compute(&self, ctx: &mut VertexContext<'_, u64>, _id: u64, state: &mut u64, msgs: &[u64]) {
        let before = *state;
        for &m in msgs {
            *state = (*state).max(m);
        }
        if ctx.superstep() == 0 || *state > before {
            ctx.send_to_neighbors(*state);
        }
        ctx.vote_to_halt();
    }
    fn encode_msg(m: &u64) -> Vec<u8> {
        m.to_le_bytes().to_vec()
    }
    fn decode_msg(b: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
    fn encode_state(s: &u64) -> Vec<u8> {
        s.to_le_bytes().to_vec()
    }
    fn decode_state(b: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
}

/// A ring of `n` loaded into `cloud` for the hub route (`hubs`) or the
/// grouped one (marked directed, no in-links).
fn ring_graph(cloud: &Arc<MemoryCloud>, n: usize, hubs: bool) -> Arc<DistributedGraph> {
    let edges: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
    let mut csr = Csr::undirected_from_edges(n, &edges, true);
    csr.directed = !hubs;
    Arc::new(load_graph(Arc::clone(cloud), &csr, &LoadOptions::default()).unwrap())
}

fn cfg(limit: usize) -> BspConfig {
    BspConfig {
        max_supersteps: limit,
        ..BspConfig::default()
    }
}

#[test]
fn bsp_job_interrupted_and_resumed_from_tfs_checkpoint() {
    for hubs in [true, false] {
        interrupted_and_resumed(hubs);
    }
}

fn interrupted_and_resumed(hubs: bool) {
    let n = 36;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
    let graph = ring_graph(&cloud, n, hubs);
    let expected = BspRunner::new(Arc::clone(&graph), MaxValue, cfg(128)).run();
    // Run 6 supersteps (1.5 checkpoint intervals), then "crash".
    let ckpt = CheckpointConfig::new(4, "interrupted");
    let runner = BspRunner::new(Arc::clone(&graph), MaxValue, cfg(4));
    let partial = run_with_checkpoints(&runner, &cfg(8), &ckpt).unwrap();
    assert!(!partial.terminated);
    drop(partial);
    drop(runner);
    // A brand-new runner resumes from TFS; the result is exact.
    let runner2 = BspRunner::new(Arc::clone(&graph), MaxValue, cfg(4));
    let resumed = resume_from_checkpoint(&runner2, &cfg(128), &ckpt).unwrap();
    assert!(resumed.terminated);
    assert_eq!(resumed.states, expected.states);
    cloud.shutdown();
}

#[test]
fn machine_failure_mid_bsp_job_recovers_through_cloud_and_checkpoint() {
    // The full §6.2 story in one scenario: a BSP job checkpoints to TFS;
    // a machine dies between segments; the memory cloud reloads its
    // trunks onto survivors; the job resumes from the checkpoint over the
    // recovered data and finishes with exact results.
    for hubs in [true, false] {
        recovers_through_cloud_and_checkpoint(hubs);
    }
}

fn recovers_through_cloud_and_checkpoint(hubs: bool) {
    let n = 40;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(4)));
    let graph = ring_graph(&cloud, n, hubs);
    let expected = BspRunner::new(Arc::clone(&graph), MaxValue, cfg(128)).run();
    cloud.backup_all().unwrap();

    // Run 8 supersteps with checkpoints, then a machine dies.
    let ckpt = CheckpointConfig::new(4, "bsp-under-failure");
    let runner = BspRunner::new(Arc::clone(&graph), MaxValue, cfg(4));
    let partial = run_with_checkpoints(&runner, &cfg(8), &ckpt).unwrap();
    assert!(!partial.terminated);
    drop(runner);
    cloud.kill_machine(2);
    cloud.recover(2).unwrap();
    // The machine reboots blank and rejoins: it revives at the fabric
    // level, syncs the (new-epoch) addressing table from TFS — which
    // evicts its stale trunks — and participates in the resumed job as an
    // empty slave.
    cloud.fabric().revive(trinity::net::MachineId(2));
    cloud.node(2).sync_table().unwrap();
    assert_eq!(
        cloud.node(2).store().cell_count(),
        0,
        "rebooted machine must come back blank"
    );

    // The recovered cloud hosts all graph cells again; resume from TFS.
    let handles_ok = (0..n as u64).all(|v| cloud.node(0).get(v).unwrap().is_some());
    assert!(handles_ok, "graph cells lost in recovery");
    let runner2 = BspRunner::new(Arc::clone(&graph), MaxValue, cfg(4));
    let resumed = resume_from_checkpoint(&runner2, &cfg(128), &ckpt).unwrap();
    assert!(resumed.terminated);
    assert_eq!(resumed.states, expected.states);
    cloud.shutdown();
}

#[test]
fn tfs_storage_node_failure_does_not_lose_backups() {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(4)));
    for i in 0..120u64 {
        cloud.node(0).put(i, format!("v{i}").as_bytes()).unwrap();
    }
    cloud.backup_all().unwrap();
    // A TFS storage node dies (distinct failure domain from the slaves).
    cloud.tfs().kill_node(0);
    // Then a slave dies; recovery must still reload from the surviving
    // TFS replicas.
    cloud.kill_machine(2);
    cloud.recover(2).unwrap();
    for i in 0..120u64 {
        assert_eq!(
            cloud.node(0).get(i).unwrap().as_deref(),
            Some(format!("v{i}").as_bytes()),
            "cell {i}"
        );
    }
    cloud.shutdown();
}

#[test]
fn cascading_failures_leader_then_slave() {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig {
        call_timeout: Duration::from_millis(100),
        ..CloudConfig::small(5)
    }));
    for i in 0..100u64 {
        cloud.node(0).put(i, b"durable").unwrap();
    }
    cloud.backup_all().unwrap();
    let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let first_leader = loop {
        if let Some(l) = RecoveryAgents::current_leader(&cloud) {
            break l;
        }
        assert!(std::time::Instant::now() < deadline, "no initial leader");
        std::thread::sleep(Duration::from_millis(10));
    };
    // Failure 1: the leader dies.
    cloud.kill_machine(first_leader.0 as usize);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let second_leader = loop {
        match RecoveryAgents::current_leader(&cloud) {
            Some(l) if l != first_leader => break l,
            _ => {
                assert!(std::time::Instant::now() < deadline, "no re-election");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    // Failure 2: another slave dies under the new leader.
    let victim = (0..5u16)
        .map(MachineId)
        .find(|&p| p != first_leader && p != second_leader)
        .unwrap();
    cloud.kill_machine(victim.0 as usize);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let events = agents.events();
        let both_recovered = events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == first_leader))
            && events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == victim));
        if both_recovered {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cascade not recovered; events: {events:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // All data reachable from any survivor.
    let reader = (0..5u16)
        .map(MachineId)
        .find(|&p| p != first_leader && p != victim)
        .unwrap();
    for i in 0..100u64 {
        assert_eq!(
            cloud.node(reader.0 as usize).get(i).unwrap().as_deref(),
            Some(&b"durable"[..]),
            "cell {i} after cascading failures"
        );
    }
    agents.stop();
    cloud.shutdown();
}

#[test]
fn queries_continue_during_and_after_unrelated_machine_failure() {
    use trinity::core::Explorer;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(4)));
    let csr = trinity::graphgen::social(400, 10, 3);
    load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap();
    cloud.backup_all().unwrap();
    let explorer = Explorer::install(Arc::clone(&cloud));
    let before = explorer.explore(0, 5, 2, b"");
    cloud.kill_machine(3);
    cloud.recover(3).unwrap();
    let after = explorer.explore(0, 5, 2, b"");
    assert_eq!(
        before.per_hop, after.per_hop,
        "exploration results changed across recovery"
    );
    assert_eq!(after.failed_batches, 0, "recovered cluster lost a batch");
    cloud.shutdown();
}

#[test]
fn exploration_with_a_dead_owner_reports_failed_batches() {
    use trinity::core::Explorer;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(4)));
    let csr = trinity::graphgen::social(400, 10, 3);
    load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap();
    let explorer = Explorer::install(Arc::clone(&cloud));
    let whole = explorer.explore(0, 5, 2, b"");
    assert_eq!(whole.failed_batches, 0);
    // Machine 3 dies and nobody recovers it: its share of every frontier
    // is unreachable, and the result must say so rather than pass for a
    // smaller but complete neighbourhood.
    cloud.kill_machine(3);
    let partial = explorer.explore(0, 5, 2, b"");
    assert!(
        partial.failed_batches > 0,
        "lost batches went unreported: {partial:?}"
    );
    assert!(partial.visited() < whole.visited());
    assert!(!partial.deadline_exceeded && !partial.cancelled);
    let failed = cloud
        .node(0)
        .endpoint()
        .obs()
        .counter("explore.failed_batches")
        .get();
    assert_eq!(failed, partial.failed_batches as u64);
    cloud.shutdown();
}
