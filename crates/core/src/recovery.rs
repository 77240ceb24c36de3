//! Fault-tolerance orchestration (paper §6.2).
//!
//! Trinity keeps the primary addressing-table replica on a *leader*
//! machine and persists it in TFS before committing any update. The paper
//! detects failures two ways — the leader's liveness probes, and
//! detection-by-access (a machine whose access to a peer fails informs
//! the leader). Only the probes are wired here: a failed access in
//! `trinity-memcloud` re-syncs its table from TFS and returns the error,
//! and no access path calls [`report_failure`], so the leader learns of a
//! death only from its `PING` probes. This module is the cluster's only
//! failure detector; `trinity-net` just answers `PING`. On a confirmed
//! failure the leader reloads the dead machine's trunks onto survivors
//! (from their TFS backups), updates the primary table, and broadcasts
//! it; a machine that misses the broadcast self-heals on its next failed
//! access by syncing with the TFS primary. A recovered machine that answers a
//! probe again (revived, possibly rejoined with trunks) is re-armed, so
//! its next death is recovered too; a bounce shorter than one probe
//! interval is not observed as a revival. If the leader itself dies, a
//! new election is triggered; the winner "marks a flag on the shared
//! distributed fault-tolerant file system to avoid multiple leaders".
//!
//! [`RecoveryAgents::install`] runs one agent thread per machine. Agents
//! race for the TFS leader flag; the leader probes peers and performs
//! recovery; followers watch the leader and re-elect on its death.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use trinity_elastic::{MigrationConfig, MigrationEngine};
use trinity_memcloud::MemoryCloud;
use trinity_memcloud::{AddressingTable, CloudNode};
use trinity_memstore::codec::{DecodeError, Reader};
use trinity_net::{proto as netproto, MachineId};

use crate::proto;

/// TFS flag name claimed by the elected leader.
pub const LEADER_FLAG: &str = "trinity/leader";

/// Agent cadence parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Pause between agent rounds (probe cadence).
    pub interval: Duration,
    /// Consecutive missed probes before a peer is declared dead.
    pub miss_threshold: u32,
    /// When set, the elected leader doubles as the elastic-rebalance
    /// coordinator: at this period it merges the cluster load map and,
    /// if the placement is lopsided, executes the planner's moves as
    /// online trunk migrations (see `trinity_elastic`).
    pub rebalance_every: Option<Duration>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            interval: Duration::from_millis(50),
            miss_threshold: 2,
            rebalance_every: None,
        }
    }
}

/// Observable protocol events (for tests and operators).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    LeaderElected(MachineId),
    MachineRecovered {
        failed: MachineId,
        by: MachineId,
        epoch: u64,
    },
    TrunksRebalanced {
        by: MachineId,
        moves: usize,
        epoch: u64,
    },
}

/// Handle to the per-machine recovery agents.
pub struct RecoveryAgents {
    stop: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<RecoveryEvent>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RecoveryAgents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryAgents").finish()
    }
}

fn leader_name(m: MachineId) -> String {
    format!("m{}", m.0)
}

/// A `REPORT_FAILURE` frame: exactly the suspect's `u16` machine id.
fn decode_suspect(data: &[u8]) -> Result<u16, DecodeError> {
    let mut r = Reader::new(data);
    let suspect = r.u16()?;
    r.finish().map(|()| suspect)
}

fn parse_leader(name: &str) -> Option<MachineId> {
    name.strip_prefix('m')
        .and_then(|s| s.parse().ok())
        .map(MachineId)
}

impl RecoveryAgents {
    /// Start one agent per slave.
    pub fn install(cloud: Arc<MemoryCloud>, cfg: RecoveryConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        // TABLE_BCAST handler: adopt the leader's new table.
        for m in 0..cloud.machines() {
            let node = Arc::clone(cloud.node(m));
            cloud
                .node(m)
                .endpoint()
                .register(proto::TABLE_BCAST, move |_src, data| {
                    if let Some(table) = AddressingTable::decode(data) {
                        let _ = node.install_table(table);
                    }
                    Some(Vec::new())
                });
        }
        // REPORT_FAILURE handler: handled inside the agent loop via a
        // shared suspicion set.
        let suspicions: Arc<Mutex<HashSet<u16>>> = Arc::new(Mutex::new(HashSet::new()));
        for m in 0..cloud.machines() {
            let suspicions = Arc::clone(&suspicions);
            let reports = cloud
                .node(m)
                .endpoint()
                .obs()
                .counter("recovery.failure_reports");
            cloud
                .node(m)
                .endpoint()
                .register(proto::REPORT_FAILURE, move |_src, data| {
                    if let Ok(suspect) = decode_suspect(data) {
                        reports.inc();
                        suspicions.lock().insert(suspect);
                    }
                    Some(Vec::new())
                });
        }
        let mut handles = Vec::new();
        for m in 0..cloud.machines() {
            let cloud = Arc::clone(&cloud);
            let stop = Arc::clone(&stop);
            let events = Arc::clone(&events);
            let suspicions = Arc::clone(&suspicions);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("trinity-recovery-{m}"))
                    .spawn(move || agent_loop(m, cloud, cfg, stop, events, suspicions))
                    .expect("spawn recovery agent"),
            );
        }
        RecoveryAgents {
            stop,
            events,
            handles,
        }
    }

    /// Events observed so far.
    pub fn events(&self) -> Vec<RecoveryEvent> {
        self.events.lock().clone()
    }

    /// The currently elected leader per the TFS flag.
    pub fn current_leader(cloud: &MemoryCloud) -> Option<MachineId> {
        cloud
            .tfs()
            .flag_owner(LEADER_FLAG)
            .as_deref()
            .and_then(parse_leader)
    }

    /// Stop all agents.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RecoveryAgents {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Report a failed access to the cluster (detection-by-access): "machine
/// A will inform the leader machine of the failure of machine B". No
/// access path calls it yet; only the recovery tests do.
pub fn report_failure(node: &CloudNode, suspect: MachineId) {
    node.endpoint()
        .broadcast(proto::REPORT_FAILURE, &suspect.0.to_le_bytes());
}

#[allow(clippy::too_many_arguments)]
fn agent_loop(
    m: usize,
    cloud: Arc<MemoryCloud>,
    cfg: RecoveryConfig,
    stop: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<RecoveryEvent>>>,
    suspicions: Arc<Mutex<HashSet<u16>>>,
) {
    let me = MachineId(m as u16);
    let my_name = leader_name(me);
    let tfs = cloud.tfs().clone();
    let endpoint = Arc::clone(cloud.node(m).endpoint());
    // Recovery-protocol health counters, surfaced as `recovery.*` in this
    // machine's metrics scope.
    let obs = endpoint.obs();
    let elections_won = obs.counter("recovery.elections_won");
    let probes = obs.counter("recovery.probes");
    let recoveries = obs.counter("recovery.recoveries");
    let leader_breaks = obs.counter("recovery.leader_flag_breaks");
    let rebalances = obs.counter("recovery.rebalances");
    let mut misses: HashMap<u16, u32> = HashMap::new();
    let mut recovered: HashSet<u16> = HashSet::new();
    let mut last_rebalance = std::time::Instant::now();
    // At most one rebalance runs at a time, on its own thread: a long
    // sequence of migrations must not suspend the leader's probe loop,
    // or machines dying mid-rebalance would go undetected for the whole
    // duration.
    let mut rebalance_worker: Option<std::thread::JoinHandle<()>> = None;
    while !stop.load(Ordering::Acquire) {
        // A dead machine's agent must fall silent.
        if cloud.fabric().is_dead(me) {
            std::thread::sleep(cfg.interval);
            continue;
        }
        match tfs.flag_owner(LEADER_FLAG) {
            None => {
                if tfs.try_acquire_flag(LEADER_FLAG, &my_name) {
                    elections_won.inc();
                    events.lock().push(RecoveryEvent::LeaderElected(me));
                }
            }
            Some(owner) if owner == my_name => {
                // Leader duties: probe every other slave; recover confirmed
                // failures (missed probes + reported suspicions).
                let suspected: HashSet<u16> = suspicions.lock().drain().collect();
                for peer in 0..cloud.machines() as u16 {
                    if peer == me.0 {
                        continue;
                    }
                    probes.inc();
                    let alive = endpoint.call(MachineId(peer), netproto::PING, &[]).is_ok();
                    let miss = misses.entry(peer).or_insert(0);
                    if alive {
                        // A recovered peer that answers again has been
                        // revived: re-arm it, so that a second death is
                        // detected and recovered like the first.
                        *miss = 0;
                        recovered.remove(&peer);
                        continue;
                    }
                    if recovered.contains(&peer) {
                        continue;
                    }
                    *miss += 1;
                    let confirmed = *miss >= cfg.miss_threshold || suspected.contains(&peer);
                    if confirmed {
                        // Marked recovered only on success: a recovery that
                        // failed (TFS error, table CAS exhausted) is retried
                        // on the next round.
                        if let Ok(table) = cloud.recover(peer as usize) {
                            recovered.insert(peer);
                            recoveries.inc();
                            // Broadcast the new epoch; stragglers self-heal
                            // through TFS on their next failed access.
                            endpoint.broadcast(proto::TABLE_BCAST, &table.encode());
                            events.lock().push(RecoveryEvent::MachineRecovered {
                                failed: MachineId(peer),
                                by: me,
                                epoch: table.epoch,
                            });
                        }
                    }
                }
                // Elastic duty: periodically level the placement against
                // the live load map. The engine migrates online, so this
                // never pauses serving; an empty plan is a no-op. The
                // migrations run on a worker thread so probe rounds (and
                // with them failure detection and recovery) continue
                // while trunks move; a machine that dies mid-rebalance
                // is recovered concurrently, and the engine's
                // conditional table flip keeps the two writers from
                // clobbering each other.
                if let Some(every) = cfg.rebalance_every {
                    if rebalance_worker.as_ref().is_some_and(|h| h.is_finished()) {
                        let _ = rebalance_worker.take().map(|h| h.join());
                    }
                    if rebalance_worker.is_none() && last_rebalance.elapsed() >= every {
                        last_rebalance = std::time::Instant::now();
                        let cloud = Arc::clone(&cloud);
                        let events = Arc::clone(&events);
                        let rebalances = Arc::clone(&rebalances);
                        rebalance_worker = std::thread::Builder::new()
                            .name(format!("trinity-rebalance-{m}"))
                            .spawn(move || {
                                let engine = MigrationEngine::new(MigrationConfig {
                                    coordinator: Some(me.0),
                                    ..MigrationConfig::default()
                                });
                                if let Ok(reports) = engine.rebalance(&cloud) {
                                    if !reports.is_empty() {
                                        rebalances.inc();
                                        events.lock().push(RecoveryEvent::TrunksRebalanced {
                                            by: me,
                                            moves: reports.len(),
                                            epoch: reports.last().map(|r| r.epoch).unwrap_or(0),
                                        });
                                    }
                                }
                            })
                            .ok();
                    }
                }
            }
            Some(owner) => {
                // Follower: watch the leader; on its death, break the flag
                // and race for it.
                if let Some(leader) = parse_leader(&owner) {
                    let alive = endpoint.call(leader, netproto::PING, &[]).is_ok();
                    let miss = misses.entry(leader.0).or_insert(0);
                    if alive {
                        *miss = 0;
                    } else {
                        *miss += 1;
                        if *miss >= cfg.miss_threshold {
                            // Only break the flag if it is still held by
                            // the machine we just confirmed dead.
                            if tfs.flag_owner(LEADER_FLAG).as_deref() == Some(owner.as_str()) {
                                leader_breaks.inc();
                                tfs.break_flag(LEADER_FLAG);
                            }
                            *miss = 0;
                        }
                    }
                }
            }
        }
        std::thread::sleep(cfg.interval);
    }
    // Drain an in-flight rebalance before the agent exits, so stop()
    // leaves no worker running against a cloud about to shut down.
    if let Some(h) = rebalance_worker.take() {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_memcloud::CloudConfig;

    fn fast_cloud(machines: usize) -> Arc<MemoryCloud> {
        Arc::new(MemoryCloud::new(CloudConfig {
            call_timeout: Duration::from_millis(100),
            ..CloudConfig::small(machines)
        }))
    }

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(deadline_ms);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn a_failure_report_is_exactly_one_machine_id() {
        assert_eq!(decode_suspect(&7u16.to_le_bytes()), Ok(7));
        assert!(decode_suspect(&[7]).is_err());
        assert!(decode_suspect(&[7, 0, 0]).is_err());
    }

    #[test]
    fn exactly_one_leader_is_elected() {
        let cloud = fast_cloud(4);
        let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
        assert!(wait_until(5_000, || RecoveryAgents::current_leader(&cloud).is_some()));
        std::thread::sleep(Duration::from_millis(100));
        let elected: Vec<_> = agents
            .events()
            .into_iter()
            .filter(|e| matches!(e, RecoveryEvent::LeaderElected(_)))
            .collect();
        assert_eq!(elected.len(), 1, "split brain: {elected:?}");
        agents.stop();
        cloud.shutdown();
    }

    #[test]
    fn slave_failure_is_detected_and_recovered_automatically() {
        let cloud = fast_cloud(4);
        for i in 0..100u64 {
            cloud.node(0).put(i, format!("v{i}").as_bytes()).unwrap();
        }
        cloud.backup_all().unwrap();
        let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
        assert!(wait_until(5_000, || RecoveryAgents::current_leader(&cloud).is_some()));
        let leader = RecoveryAgents::current_leader(&cloud).unwrap();
        // Kill a non-leader slave.
        let victim = (0..4u16).map(MachineId).find(|&p| p != leader).unwrap();
        cloud.kill_machine(victim.0 as usize);
        assert!(
            wait_until(10_000, || agents.events().iter().any(
                |e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == victim)
            )),
            "leader never recovered the failed slave; events: {:?}",
            agents.events()
        );
        // All data reachable again from a surviving machine.
        let reader = (0..4u16).map(MachineId).find(|&p| p != victim).unwrap();
        for i in 0..100u64 {
            assert_eq!(
                cloud.node(reader.0 as usize).get(i).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "cell {i} unreachable after recovery"
            );
        }
        agents.stop();
        cloud.shutdown();
    }

    #[test]
    fn a_machine_that_dies_twice_is_recovered_twice() {
        let cloud = fast_cloud(4);
        for i in 0..200u64 {
            cloud.node(0).put(i, format!("v{i}").as_bytes()).unwrap();
        }
        cloud.backup_all().unwrap();
        let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
        assert!(wait_until(5_000, || RecoveryAgents::current_leader(&cloud).is_some()));
        let leader = RecoveryAgents::current_leader(&cloud).unwrap();
        let victim = (0..4u16).map(MachineId).find(|&p| p != leader).unwrap();
        let recoveries_of_victim = || {
            agents
                .events()
                .iter()
                .filter(|e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == victim))
                .count()
        };
        cloud.kill_machine(victim.0 as usize);
        assert!(
            wait_until(10_000, || recoveries_of_victim() == 1),
            "first death never recovered; events: {:?}",
            agents.events()
        );
        // The machine comes back, rejoins online and is imaged again.
        cloud.revive_machine(victim.0 as usize).unwrap();
        let joined = MigrationEngine::new(MigrationConfig::default())
            .join_machine(&cloud, victim.0 as usize)
            .unwrap();
        assert!(!joined.is_empty(), "the revived machine must own trunks");
        cloud.backup_all().unwrap();
        // Let at least one full probe round (3 peers) start and finish
        // after the revival: two rounds' worth of probes from now.
        let probes = cloud
            .node(leader.0 as usize)
            .endpoint()
            .obs()
            .counter("recovery.probes");
        let seen = probes.get();
        assert!(wait_until(5_000, || probes.get() >= seen + 2 * 3));
        cloud.kill_machine(victim.0 as usize);
        assert!(
            wait_until(10_000, || recoveries_of_victim() == 2),
            "second death never recovered; events: {:?}",
            agents.events()
        );
        let reader = (0..4u16).map(MachineId).find(|&p| p != victim).unwrap();
        for i in 0..200u64 {
            assert_eq!(
                cloud.node(reader.0 as usize).get(i).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "cell {i} unreachable after the second recovery"
            );
        }
        agents.stop();
        cloud.shutdown();
    }

    #[test]
    fn leader_failure_triggers_reelection_and_recovery_continues() {
        let cloud = fast_cloud(4);
        for i in 0..60u64 {
            cloud.node(0).put(i, b"payload").unwrap();
        }
        cloud.backup_all().unwrap();
        let agents = RecoveryAgents::install(Arc::clone(&cloud), RecoveryConfig::default());
        assert!(wait_until(5_000, || RecoveryAgents::current_leader(&cloud).is_some()));
        let old_leader = RecoveryAgents::current_leader(&cloud).unwrap();
        cloud.kill_machine(old_leader.0 as usize);
        // A new, different leader gets elected...
        assert!(
            wait_until(10_000, || {
                matches!(RecoveryAgents::current_leader(&cloud), Some(l) if l != old_leader)
            }),
            "no re-election after leader death"
        );
        // ...and it recovers the old leader's trunks.
        assert!(
            wait_until(10_000, || {
                agents.events().iter().any(
                |e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == old_leader)
            )
            }),
            "new leader never recovered the dead one; events: {:?}",
            agents.events()
        );
        let reader = (0..4u16).find(|&p| p != old_leader.0).unwrap();
        for i in 0..60u64 {
            assert_eq!(
                cloud.node(reader as usize).get(i).unwrap().as_deref(),
                Some(&b"payload"[..])
            );
        }
        agents.stop();
        cloud.shutdown();
    }

    #[test]
    fn leader_rebalances_a_lopsided_load_online() {
        let cloud = fast_cloud(4);
        // Concentrate all heat on machine 0's trunks so max/mean blows
        // past the planner threshold.
        let mut hot_ids = Vec::new();
        for i in 0..3000u64 {
            if cloud.node(0).table().machine_of(i) == MachineId(0) {
                cloud.node(0).put(i, b"hot").unwrap();
                cloud.node(0).get(i).unwrap();
                hot_ids.push(i);
            }
        }
        let agents = RecoveryAgents::install(
            Arc::clone(&cloud),
            RecoveryConfig {
                rebalance_every: Some(Duration::from_millis(100)),
                ..RecoveryConfig::default()
            },
        );
        assert!(
            wait_until(10_000, || agents.events().iter().any(
                |e| matches!(e, RecoveryEvent::TrunksRebalanced { moves, .. } if *moves > 0)
            )),
            "leader never rebalanced; events: {:?}",
            agents.events()
        );
        // The moved trunks stay fully readable.
        for &i in &hot_ids {
            assert_eq!(
                cloud.node(1).get(i).unwrap().as_deref(),
                Some(&b"hot"[..]),
                "cell {i} lost by the automatic rebalance"
            );
        }
        agents.stop();
        cloud.shutdown();
    }

    #[test]
    fn reported_suspicion_accelerates_recovery() {
        let cloud = fast_cloud(3);
        cloud.backup_all().unwrap();
        let agents = RecoveryAgents::install(
            Arc::clone(&cloud),
            RecoveryConfig {
                interval: Duration::from_millis(30),
                miss_threshold: 100,
                ..RecoveryConfig::default()
            },
        );
        assert!(wait_until(5_000, || RecoveryAgents::current_leader(&cloud).is_some()));
        let leader = RecoveryAgents::current_leader(&cloud).unwrap();
        let victim = (0..3u16).map(MachineId).find(|&p| p != leader).unwrap();
        cloud.kill_machine(victim.0 as usize);
        // With a miss threshold of 100, probes alone would take ages;
        // a detection-by-access report forces immediate recovery.
        let reporter = (0..3u16)
            .find(|&p| p != victim.0 && !cloud.fabric().is_dead(MachineId(p)))
            .unwrap();
        report_failure(cloud.node(reporter as usize), victim);
        assert!(
            wait_until(10_000, || agents.events().iter().any(
                |e| matches!(e, RecoveryEvent::MachineRecovered { failed, .. } if *failed == victim)
            )),
            "report did not trigger recovery; events: {:?}",
            agents.events()
        );
        agents.stop();
        cloud.shutdown();
    }
}
