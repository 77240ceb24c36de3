//! Deterministic fault injection for the fabric (the trinity-chaos
//! substrate).
//!
//! A [`FaultPlan`] describes how the interconnect should misbehave: drop,
//! delay, duplicate, or reorder envelopes on individual links, partition
//! pairs of machines asymmetrically, and crash/revive whole machines on a
//! schedule keyed on envelope count or workload marks.
//! The plan is *seeded*: every per-envelope decision is a pure function of
//! `(seed, src, dst, link sequence number)`, so the same plan applied to
//! the same traffic injects the same faults — the property the chaos
//! harness's replay and shrinking machinery is built on.
//!
//! Every injected fault is appended to a [`FaultLog`]. A log can be
//! re-applied verbatim with [`FaultPlan::replay`], which turns the
//! recorded decisions back into a plan that injects exactly those faults
//! and nothing else — the `trinity-chaos` crate uses this to replay and
//! bisect failing schedules.
//!
//! # Determinism contract
//!
//! Fault decisions are keyed on the *per-link* sequence number (the
//! ordinal of the envelope on its `(src, dst)` link), never on global
//! arrival order: concurrent senders race for global order, but each
//! link's own ordinals are stable as long as the workload's per-link
//! traffic is. Logs are compared in canonical `(src, dst, seq)` order for
//! the same reason. Delays are FIFO-preserving: a delayed envelope raises
//! a per-link delivery barrier, and everything behind it on the same link
//! queues behind that barrier — the fabric's per-pair FIFO guarantee
//! survives arbitrary delay plans.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use trinity_obs::{Counter, Registry};

use crate::deadline::deadline_now_us;
use crate::envelope::Envelope;
use crate::fabric::Router;
use crate::MachineId;

/// When a scheduled crash/revive fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Trigger {
    /// After the fabric has transmitted this many remote envelopes.
    Envelopes(u64),
    /// When the workload calls [`crate::Fabric::chaos_mark`] with this
    /// value (checkpoint boundaries, superstep fences, phase changes).
    Mark(u64),
}

/// A scheduled whole-machine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// Kill the machine (same semantics as [`crate::Fabric::kill`]).
    Crash(u16),
    /// Revive the machine.
    Revive(u16),
}

/// Per-envelope delay policy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DelayPolicy {
    /// Probability an envelope is delayed.
    prob: f64,
    /// Fixed delay component, microseconds.
    base_us: u64,
    /// Seeded uniform jitter in `[0, jitter_us]` added to the base.
    jitter_us: u64,
}

/// Per-envelope bounded-reordering policy: a selected envelope is held
/// until the *next* envelope on the same link passes it (or `hold_us`
/// elapses), swapping adjacent deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReorderPolicy {
    /// Probability an envelope is held for reordering.
    prob: f64,
    /// Maximum hold before the envelope is released anyway.
    hold_us: u64,
}

/// An asymmetric one-way partition of a single link: envelopes from
/// `from` to `to` whose link sequence number falls in
/// `[from_seq, to_seq)` are swallowed. Partition the reverse link too for
/// a symmetric split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Sending side of the partitioned link.
    pub from: u16,
    /// Receiving side of the partitioned link.
    pub to: u16,
    /// First link sequence number swallowed.
    pub from_seq: u64,
    /// First link sequence number delivered again (exclusive end).
    pub to_seq: u64,
}

/// A seeded description of how the fabric should misbehave.
///
/// Construct with [`FaultPlan::new`] and the `with_*` builders; pass it to
/// the fabric via [`crate::FabricConfig::faults`]. The all-defaults plan
/// (`FaultPlan::new(seed)`) injects nothing and is byte-identical to a
/// fault-free fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-envelope decision.
    pub seed: u64,
    /// Probability an envelope is dropped.
    drop: f64,
    /// Delay policy.
    delay: DelayPolicy,
    /// Probability an envelope is duplicated (delivered twice).
    duplicate: f64,
    /// Bounded reordering policy.
    reorder: ReorderPolicy,
    /// Link partition windows.
    partitions: Vec<Partition>,
    /// Crash/revive schedule.
    pub schedule: Vec<(Trigger, NodeEvent)>,
    /// When set, the plan ignores the seeded policies and re-applies
    /// exactly the recorded faults (see [`FaultPlan::replay`]).
    replay: Option<FaultLog>,
}

impl FaultPlan {
    /// A plan that injects nothing (until builders add policies).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            delay: DelayPolicy {
                prob: 0.0,
                base_us: 0,
                jitter_us: 0,
            },
            duplicate: 0.0,
            reorder: ReorderPolicy {
                prob: 0.0,
                hold_us: 2_000,
            },
            partitions: Vec::new(),
            schedule: Vec::new(),
            replay: None,
        }
    }

    /// Same plan, different seed — the idiom for sweeping pinned seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drop each envelope with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Delay envelopes with probability `prob` by `base_us` plus seeded
    /// jitter in `[0, jitter_us]`.
    pub fn with_delay(mut self, prob: f64, base_us: u64, jitter_us: u64) -> Self {
        self.delay = DelayPolicy {
            prob,
            base_us,
            jitter_us,
        };
        self
    }

    /// Duplicate each envelope with probability `p`.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Hold envelopes with probability `prob` (released when the next
    /// envelope on the link passes, or after `hold_us`).
    pub fn with_reorder(mut self, prob: f64, hold_us: u64) -> Self {
        self.reorder = ReorderPolicy { prob, hold_us };
        self
    }

    /// Add a one-way partition window on a link.
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Schedule a crash or revive.
    pub fn with_event(mut self, trigger: Trigger, event: NodeEvent) -> Self {
        self.schedule.push((trigger, event));
        self
    }

    /// A plan that re-applies exactly the faults in `log`: link faults
    /// fire on the same `(src, dst, seq)` envelopes, crashes/revives on
    /// the same triggers. Policy probabilities are ignored.
    pub fn replay(log: &FaultLog) -> Self {
        let mut plan = FaultPlan::new(0);
        for rec in &log.records {
            match rec.kind {
                FaultKind::Crash(t) => plan.schedule.push((t, NodeEvent::Crash(rec.src))),
                FaultKind::Revive(t) => plan.schedule.push((t, NodeEvent::Revive(rec.src))),
                _ => {}
            }
        }
        plan.replay = Some(log.clone());
        plan
    }

    /// The recorded faults this plan replays, if it is a replay plan.
    pub fn replay_records(&self) -> Option<&[FaultRecord]> {
        self.replay.as_ref().map(|l| l.records.as_slice())
    }

    /// Whether the plan can inject anything at all.
    pub fn is_neutral(&self) -> bool {
        self.drop == 0.0
            && self.delay.prob == 0.0
            && self.duplicate == 0.0
            && self.reorder.prob == 0.0
            && self.partitions.is_empty()
            && self.schedule.is_empty()
            && self.replay.is_none()
    }
}

/// What was injected on one envelope (or one scheduled machine event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Envelope swallowed by the drop policy.
    Drop,
    /// Envelope delivery postponed by this many microseconds.
    Delay(u64),
    /// Envelope delivered twice.
    Duplicate,
    /// Envelope held so its successor passes it.
    Reorder,
    /// Envelope swallowed by a partition window.
    Partition,
    /// Machine killed by the schedule (trigger recorded for replay).
    Crash(Trigger),
    /// Machine revived by the schedule.
    Revive(Trigger),
}

/// One injected fault. For link faults `seq` is the envelope's per-link
/// ordinal; for crash/revive it is the event's index in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Sending machine (for crash/revive: the affected machine).
    pub src: u16,
    /// Receiving machine (for crash/revive: the affected machine).
    pub dst: u16,
    /// Per-link envelope ordinal (or schedule index).
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// The replayable record of every fault a chaos run injected.
///
/// Equality is order-insensitive: two logs are equal when their canonical
/// `(src, dst, seq)` orderings match, because concurrent links race for
/// append order even when each link's decisions are identical.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    /// Records in append (observation) order.
    pub records: Vec<FaultRecord>,
}

impl PartialEq for FaultLog {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for FaultLog {}

impl FaultLog {
    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records sorted by `(src, dst, seq, kind)` — the stable order used
    /// for equality.
    pub fn canonical(&self) -> Vec<FaultRecord> {
        let mut v = self.records.clone();
        v.sort_by_key(|r| (r.src, r.dst, r.seq, kind_rank(&r.kind)));
        v
    }
}

fn kind_rank(k: &FaultKind) -> u8 {
    match k {
        FaultKind::Drop => 0,
        FaultKind::Delay(_) => 1,
        FaultKind::Duplicate => 2,
        FaultKind::Reorder => 3,
        FaultKind::Partition => 4,
        FaultKind::Crash(_) => 5,
        FaultKind::Revive(_) => 6,
    }
}

// ---------------------------------------------------------------------
// Seeded decisions
// ---------------------------------------------------------------------

/// xorshift64* over a mixed key: every decision is a pure function of the
/// plan seed and the envelope's link coordinates, so replays and reruns
/// agree.
fn link_rand(seed: u64, src: u16, dst: u16, seq: u64, salt: u64) -> u64 {
    // Multiplicative diffusion first: the `| 1` nonzero guard must not
    // erase low-bit differences between nearby seeds.
    let mut x = seed
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .wrapping_add(((src as u64) << 48) ^ ((dst as u64) << 32))
        .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------

/// Where a chaos-routed envelope should go.
enum Action {
    Deliver,
    Swallow(FaultKind),
    Delay(u64),
    Duplicate,
    Hold,
}

#[derive(Default)]
struct LinkState {
    /// Next envelope ordinal on this link.
    seq: u64,
    /// Absolute time before which nothing on this link may be delivered
    /// (the FIFO barrier raised by delayed envelopes).
    barrier_us: u64,
    /// Envelopes from this link still parked in the timer. While any
    /// remain, later envelopes must route through the timer too: the
    /// barrier alone cannot order an inline delivery against a timer
    /// item whose due time has passed but which the timer thread has not
    /// fired yet.
    in_timer: u64,
    /// An envelope held for reordering, waiting for a successor to pass
    /// it. `None` inside the slot means the timer already released it.
    held: Option<Arc<Mutex<Option<Envelope>>>>,
}

/// A link's state shared between `transmit` and the timer thread.
type SharedLink = Arc<Mutex<LinkState>>;

struct TimedItem {
    due_us: u64,
    /// Tie-break so equal due times deliver in schedule order.
    order: u64,
    what: Timed,
}

enum Timed {
    /// Deliver the envelope and decrement its link's in-timer count.
    Deliver(Envelope, SharedLink),
    Release(Arc<Mutex<Option<Envelope>>>),
}

impl PartialEq for TimedItem {
    fn eq(&self, other: &Self) -> bool {
        self.due_us == other.due_us && self.order == other.order
    }
}

impl Eq for TimedItem {}

impl PartialOrd for TimedItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimedItem {
    /// Reversed: BinaryHeap is a max-heap, we want the earliest due first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due_us, other.order).cmp(&(self.due_us, self.order))
    }
}

struct TimerQueue {
    heap: BinaryHeap<TimedItem>,
    next_order: u64,
    stopped: bool,
}

struct ScheduledEvent {
    trigger: Trigger,
    event: NodeEvent,
    /// Schedule index (stable id in the log).
    index: u64,
    fired: AtomicBool,
}

/// Cached chaos counters for one source machine's scope.
struct ChaosMetrics {
    drops: Arc<Counter>,
    delays: Arc<Counter>,
    dups: Arc<Counter>,
    reorders: Arc<Counter>,
    partition_drops: Arc<Counter>,
}

/// The live fault injector attached to a fabric. Created by the fabric
/// when [`crate::FabricConfig::faults`] is set; reachable through
/// [`crate::Fabric::chaos`].
pub struct ChaosState {
    plan: FaultPlan,
    /// `(src, dst, seq)` → fault, when replaying a recorded log.
    replay_map: Option<HashMap<(u16, u16, u64), FaultKind>>,
    router: Arc<Router>,
    links: Mutex<HashMap<(u16, u16), SharedLink>>,
    log: Mutex<Vec<FaultRecord>>,
    schedule: Vec<ScheduledEvent>,
    sent_envelopes: AtomicU64,
    /// Frames swallowed by drop/partition decisions (they left the
    /// sender's counters but never reach a receiver).
    swallowed_frames: AtomicU64,
    /// Extra frames created by duplication (they reach a receiver without
    /// a matching sender-side count).
    dup_frames: AtomicU64,
    /// Envelopes currently parked in the timer or a reorder slot.
    pending: AtomicU64,
    /// While disarmed the injector is fully transparent: envelopes pass
    /// through untouched, uncounted, and unlogged. Workloads disarm
    /// during setup (graph loading) so fault decisions and trigger
    /// counts start at the interesting phase.
    armed: AtomicBool,
    timer: Mutex<TimerQueue>,
    timer_cv: Condvar,
    timer_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    metrics: Vec<ChaosMetrics>,
    crash_counter: Arc<Counter>,
    revive_counter: Arc<Counter>,
    /// Cluster registry: every injected fault is also appended to the
    /// flight recorder's event log so a postmortem dump shows *which*
    /// faults landed in the faulting window.
    registry: Arc<Registry>,
}

impl std::fmt::Debug for ChaosState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosState")
            .field("seed", &self.plan.seed)
            .field("faults", &self.log.lock().len())
            .finish()
    }
}

impl ChaosState {
    pub(crate) fn start(
        plan: FaultPlan,
        machines: usize,
        router: Arc<Router>,
        obs: &Arc<Registry>,
    ) -> Arc<Self> {
        let replay_map = plan.replay.as_ref().map(|log| {
            log.records
                .iter()
                .filter(|r| !matches!(r.kind, FaultKind::Crash(_) | FaultKind::Revive(_)))
                .map(|r| ((r.src, r.dst, r.seq), r.kind))
                .collect()
        });
        let schedule = plan
            .schedule
            .iter()
            .enumerate()
            .map(|(i, (trigger, event))| ScheduledEvent {
                trigger: *trigger,
                event: *event,
                index: i as u64,
                fired: AtomicBool::new(false),
            })
            .collect();
        let metrics = (0..machines as u16)
            .map(|m| {
                let scope = obs.scope(m);
                ChaosMetrics {
                    drops: scope.counter("chaos.drops"),
                    delays: scope.counter("chaos.delays"),
                    dups: scope.counter("chaos.dups"),
                    reorders: scope.counter("chaos.reorders"),
                    partition_drops: scope.counter("chaos.partition_drops"),
                }
            })
            .collect();
        let scope0 = obs.scope(0);
        let state = Arc::new(ChaosState {
            plan,
            replay_map,
            router,
            links: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            schedule,
            sent_envelopes: AtomicU64::new(0),
            swallowed_frames: AtomicU64::new(0),
            dup_frames: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            armed: AtomicBool::new(true),
            timer: Mutex::new(TimerQueue {
                heap: BinaryHeap::new(),
                next_order: 0,
                stopped: false,
            }),
            timer_cv: Condvar::new(),
            timer_handle: Mutex::new(None),
            metrics,
            crash_counter: scope0.counter("chaos.crashes"),
            revive_counter: scope0.counter("chaos.revives"),
            registry: Arc::clone(obs),
        });
        let thread_state = Arc::clone(&state);
        *state.timer_handle.lock() = Some(
            std::thread::Builder::new()
                .name("trinity-chaos-timer".into())
                .spawn(move || timer_loop(thread_state))
                .expect("spawn chaos timer"),
        );
        state
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of every fault injected so far (append order).
    pub fn fault_log(&self) -> FaultLog {
        FaultLog {
            records: self.log.lock().clone(),
        }
    }

    /// Envelopes currently held back by delays or reorder slots.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Frames swallowed by drop/partition faults.
    pub fn swallowed_frames(&self) -> u64 {
        self.swallowed_frames.load(Ordering::Relaxed)
    }

    /// Extra frames minted by duplication faults.
    pub fn duplicated_frames(&self) -> u64 {
        self.dup_frames.load(Ordering::Relaxed)
    }

    /// Arm or disarm the injector. Disarmed, every envelope passes
    /// through untouched and neither link sequence numbers nor trigger
    /// counters advance — arming later starts the fault clock at that
    /// moment, so a workload's setup traffic does not perturb the seeded
    /// decisions for its measured phase.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::Release);
    }

    /// Fire every `Trigger::Mark(value)` event not yet fired. Workloads
    /// call this (via [`crate::Fabric::chaos_mark`]) at logical
    /// boundaries — checkpoint writes, phase changes — so crash schedules
    /// can be keyed on workload progress instead of raw traffic.
    pub fn mark(&self, value: u64) {
        for ev in &self.schedule {
            if ev.trigger == Trigger::Mark(value) {
                self.fire_event(ev);
            }
        }
    }

    /// Block until no envelopes are parked in the injector (all delays
    /// elapsed, all held envelopes released), or `timeout` passes.
    /// Returns whether the injector quiesced.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.pending() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Chaos-routed transmit: decide this envelope's fate, record it, and
    /// either deliver (now or later) or swallow it. Called by the
    /// endpoint for remote envelopes only — local loopback cannot fail.
    pub(crate) fn transmit(&self, env: Envelope) -> crate::Result<()> {
        if !self.armed.load(Ordering::Acquire) {
            return self.router.deliver(env);
        }
        let n = self.sent_envelopes.fetch_add(1, Ordering::Relaxed) + 1;
        self.check_schedule(n);

        let key = (env.src.0, env.dst.0);
        let link_arc = {
            let mut links = self.links.lock();
            Arc::clone(links.entry(key).or_default())
        };
        // The link lock is held across delivery/scheduling so this link's
        // envelopes enter the work queue (or the timer) in sequence order —
        // the same discipline `flush_to` uses for pack buffers.
        let mut link = link_arc.lock();
        let seq = link.seq;
        link.seq += 1;
        let frames = env.frames.len() as u64;
        let now = deadline_now_us();
        let action = self.decide(key.0, key.1, seq, now, &link);

        match action {
            Action::Swallow(kind) => {
                self.record(key.0, key.1, seq, kind);
                self.swallowed_frames.fetch_add(frames, Ordering::Relaxed);
                match kind {
                    FaultKind::Partition => {
                        self.metrics[key.0 as usize].partition_drops.inc();
                    }
                    _ => self.metrics[key.0 as usize].drops.inc(),
                }
                // The sender sees success: a dropped packet looks like
                // silence, never like an error at the send site.
                Ok(())
            }
            Action::Hold => {
                self.record(key.0, key.1, seq, FaultKind::Reorder);
                self.metrics[key.0 as usize].reorders.inc();
                let slot = Arc::new(Mutex::new(Some(env)));
                link.held = Some(Arc::clone(&slot));
                self.pending.fetch_add(1, Ordering::AcqRel);
                self.schedule_timed(now + self.plan.reorder.hold_us, Timed::Release(slot));
                Ok(())
            }
            Action::Delay(us) => {
                self.record(key.0, key.1, seq, FaultKind::Delay(us));
                self.metrics[key.0 as usize].delays.inc();
                let due = (now + us).max(link.barrier_us);
                link.barrier_us = due;
                link.in_timer += 1;
                self.pending.fetch_add(1, Ordering::AcqRel);
                self.schedule_timed(due, Timed::Deliver(env, Arc::clone(&link_arc)));
                // The swap completes behind the successor: held envelopes
                // are always released *after* the current one.
                self.release_held(&mut link, &link_arc, Some(due));
                Ok(())
            }
            Action::Duplicate => {
                self.record(key.0, key.1, seq, FaultKind::Duplicate);
                self.metrics[key.0 as usize].dups.inc();
                self.dup_frames.fetch_add(frames, Ordering::Relaxed);
                // Frame payloads are shared slices: duplicating the
                // envelope bumps refcounts, copying nothing — so the copy
                // counter (a true memcpy count) stays untouched here.
                let copy = env.clone();
                if link.barrier_us > now || link.in_timer > 0 {
                    let due = link.barrier_us.max(now);
                    link.in_timer += 2;
                    self.pending.fetch_add(2, Ordering::AcqRel);
                    self.schedule_timed(due, Timed::Deliver(env, Arc::clone(&link_arc)));
                    self.schedule_timed(due, Timed::Deliver(copy, Arc::clone(&link_arc)));
                    self.release_held(&mut link, &link_arc, Some(due));
                    Ok(())
                } else {
                    let r = self.router.deliver(env);
                    let _ = self.router.deliver(copy);
                    self.release_held(&mut link, &link_arc, None);
                    r
                }
            }
            Action::Deliver => {
                if link.barrier_us > now || link.in_timer > 0 {
                    // FIFO: queue behind the timer items in front.
                    let due = link.barrier_us.max(now);
                    link.in_timer += 1;
                    self.pending.fetch_add(1, Ordering::AcqRel);
                    self.schedule_timed(due, Timed::Deliver(env, Arc::clone(&link_arc)));
                    self.release_held(&mut link, &link_arc, Some(due));
                    Ok(())
                } else {
                    let r = self.router.deliver(env);
                    self.release_held(&mut link, &link_arc, None);
                    r
                }
            }
        }
    }

    /// Decide an envelope's fate. Pure in `(seed, src, dst, seq)` except
    /// for reordering, which only arms when the link has no active delay
    /// barrier and no envelope already held (deterministic whenever the
    /// reorder policy runs without a delay policy).
    fn decide(&self, src: u16, dst: u16, seq: u64, now: u64, link: &LinkState) -> Action {
        if let Some(map) = &self.replay_map {
            return match map.get(&(src, dst, seq)) {
                Some(FaultKind::Drop) => Action::Swallow(FaultKind::Drop),
                Some(FaultKind::Partition) => Action::Swallow(FaultKind::Partition),
                Some(FaultKind::Delay(us)) => Action::Delay(*us),
                Some(FaultKind::Duplicate) => Action::Duplicate,
                Some(FaultKind::Reorder) => {
                    if link.barrier_us <= now && link.held.is_none() {
                        Action::Hold
                    } else {
                        Action::Deliver
                    }
                }
                _ => Action::Deliver,
            };
        }
        let p = &self.plan;
        for part in &p.partitions {
            if part.from == src && part.to == dst && seq >= part.from_seq && seq < part.to_seq {
                return Action::Swallow(FaultKind::Partition);
            }
        }
        if p.drop > 0.0 && unit(link_rand(p.seed, src, dst, seq, 1)) < p.drop {
            return Action::Swallow(FaultKind::Drop);
        }
        if p.reorder.prob > 0.0
            && unit(link_rand(p.seed, src, dst, seq, 2)) < p.reorder.prob
            && link.barrier_us <= now
            && link.held.is_none()
        {
            return Action::Hold;
        }
        if p.duplicate > 0.0 && unit(link_rand(p.seed, src, dst, seq, 3)) < p.duplicate {
            return Action::Duplicate;
        }
        if p.delay.prob > 0.0 && unit(link_rand(p.seed, src, dst, seq, 4)) < p.delay.prob {
            let jitter = if p.delay.jitter_us == 0 {
                0
            } else {
                link_rand(p.seed, src, dst, seq, 5) % (p.delay.jitter_us + 1)
            };
            return Action::Delay(p.delay.base_us + jitter);
        }
        Action::Deliver
    }

    /// Release a reorder-held envelope *behind* the current one: the swap
    /// is complete the moment its successor is delivered or scheduled.
    fn release_held(&self, link: &mut LinkState, link_arc: &SharedLink, after_due: Option<u64>) {
        if let Some(slot) = link.held.take() {
            if let Some(held) = slot.lock().take() {
                match after_due {
                    Some(due) => {
                        link.in_timer += 1;
                        self.schedule_timed(due, Timed::Deliver(held, Arc::clone(link_arc)));
                    }
                    None => {
                        let _ = self.router.deliver(held);
                        self.pending.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
        }
    }

    fn record(&self, src: u16, dst: u16, seq: u64, kind: FaultKind) {
        self.registry
            .flight_event(format!("fault {kind:?} link {src}->{dst} seq {seq}"));
        self.log.lock().push(FaultRecord {
            src,
            dst,
            seq,
            kind,
        });
    }

    fn check_schedule(&self, envelopes: u64) {
        for ev in &self.schedule {
            if matches!(ev.trigger, Trigger::Envelopes(n) if envelopes >= n) {
                self.fire_event(ev);
            }
        }
    }

    fn fire_event(&self, ev: &ScheduledEvent) {
        if ev.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        let (m, kind) = match ev.event {
            NodeEvent::Crash(m) => {
                self.router.set_dead(MachineId(m), true);
                self.crash_counter.inc();
                (m, FaultKind::Crash(ev.trigger))
            }
            NodeEvent::Revive(m) => {
                self.router.set_dead(MachineId(m), false);
                self.revive_counter.inc();
                (m, FaultKind::Revive(ev.trigger))
            }
        };
        self.record(m, m, ev.index, kind);
    }

    fn schedule_timed(&self, due_us: u64, what: Timed) {
        let mut q = self.timer.lock();
        if q.stopped {
            // Late arrival after the timer stopped: deliver inline, under
            // the link lock the caller holds, so nothing leaks. All later
            // traffic on the link comes this way too, in order under that
            // lock, so the in-timer count it raised no longer matters.
            drop(q);
            self.deliver_parked(what);
            return;
        }
        let order = q.next_order;
        q.next_order += 1;
        q.heap.push(TimedItem {
            due_us,
            order,
            what,
        });
        drop(q);
        self.timer_cv.notify_all();
    }

    /// Timer-thread delivery of a parked item. Deliver before decrementing:
    /// once in_timer drops, a concurrent sender may deliver inline, and the
    /// work queue must already hold this envelope for FIFO to hold.
    fn fire_timed(&self, what: Timed) {
        if let Some(link) = self.deliver_parked(what) {
            link.lock().in_timer -= 1;
        }
    }

    /// Deliver a parked envelope (a reorder slot may already be empty) and
    /// take it off the quiescence count. Takes no link lock: returns the
    /// link whose in-timer count the item still holds.
    fn deliver_parked(&self, what: Timed) -> Option<SharedLink> {
        let (env, link) = match what {
            Timed::Deliver(env, link) => (Some(env), Some(link)),
            Timed::Release(slot) => (slot.lock().take(), None),
        };
        if let Some(env) = env {
            let _ = self.router.deliver(env);
            self.pending.fetch_sub(1, Ordering::AcqRel);
        }
        link
    }

    /// Stop the timer thread, delivering everything still parked. Called
    /// by fabric shutdown before the workers are stopped.
    pub(crate) fn stop(&self) {
        let drained: Vec<TimedItem> = {
            let mut q = self.timer.lock();
            if q.stopped {
                return;
            }
            q.stopped = true;
            std::mem::take(&mut q.heap).into_sorted_vec()
        };
        self.timer_cv.notify_all();
        if let Some(h) = self.timer_handle.lock().take() {
            let _ = h.join();
        }
        // into_sorted_vec sorts ascending by Ord; our Ord is reversed
        // (min-heap), so iterate in reverse for due-time order.
        for item in drained.into_iter().rev() {
            self.fire_timed(item.what);
        }
    }
}

fn timer_loop(state: Arc<ChaosState>) {
    loop {
        let mut q = state.timer.lock();
        if q.stopped {
            return;
        }
        let now = deadline_now_us();
        let mut due = Vec::new();
        while q.heap.peek().is_some_and(|t| t.due_us <= now) {
            due.push(q.heap.pop().expect("peeked"));
        }
        if !due.is_empty() {
            drop(q);
            for item in due {
                state.fire_timed(item.what);
            }
            continue;
        }
        match q.heap.peek().map(|t| t.due_us) {
            Some(next) => {
                let wait = Duration::from_micros(next.saturating_sub(now).max(1));
                state.timer_cv.wait_for(&mut q, wait);
            }
            None => state.timer_cv.wait(&mut q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: u16, dst: u16, seq: u64, kind: FaultKind) -> FaultRecord {
        FaultRecord {
            src,
            dst,
            seq,
            kind,
        }
    }

    #[test]
    fn log_equality_is_order_insensitive() {
        let a = FaultLog {
            records: vec![rec(0, 1, 3, FaultKind::Drop), rec(2, 1, 9, FaultKind::Drop)],
        };
        let b = FaultLog {
            records: vec![rec(2, 1, 9, FaultKind::Drop), rec(0, 1, 3, FaultKind::Drop)],
        };
        assert_eq!(a, b);
        let c = FaultLog {
            records: vec![rec(2, 1, 8, FaultKind::Drop), rec(0, 1, 3, FaultKind::Drop)],
        };
        assert_ne!(a, c);
    }

    #[test]
    fn decisions_are_pure_in_seed_and_link_coordinates() {
        for seed in [1u64, 42, 0xdead_beef] {
            for (src, dst, seq) in [(0u16, 1u16, 0u64), (3, 2, 17), (1, 0, 9999)] {
                let a = link_rand(seed, src, dst, seq, 1);
                let b = link_rand(seed, src, dst, seq, 1);
                assert_eq!(a, b);
                // Different salt, seed, or coordinates shift the draw.
                assert_ne!(a, link_rand(seed, src, dst, seq, 2));
                assert_ne!(a, link_rand(seed ^ 1, src, dst, seq, 1));
                assert_ne!(a, link_rand(seed, src, dst, seq + 1, 1));
            }
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let hits = (0..10_000u64)
            .filter(|&seq| unit(link_rand(7, 0, 1, seq, 1)) < 0.2)
            .count();
        assert!(
            (1_500..2_500).contains(&hits),
            "20% drop rate wildly off: {hits}/10000"
        );
    }

    #[test]
    fn replay_plan_reconstructs_schedule_and_link_map() {
        let log = FaultLog {
            records: vec![
                rec(0, 1, 3, FaultKind::Drop),
                rec(2, 2, 0, FaultKind::Crash(Trigger::Mark(8))),
                rec(2, 2, 1, FaultKind::Revive(Trigger::Mark(9))),
            ],
        };
        let plan = FaultPlan::replay(&log);
        assert_eq!(
            plan.schedule,
            vec![
                (Trigger::Mark(8), NodeEvent::Crash(2)),
                (Trigger::Mark(9), NodeEvent::Revive(2)),
            ]
        );
        assert_eq!(plan.replay_records().unwrap().len(), 3);
        assert!(!plan.is_neutral());
        assert!(FaultPlan::new(99).is_neutral());
    }
}
