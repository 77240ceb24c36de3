//! Property tests on the fault injector's contracts.
//!
//! Invariants: a neutral `FaultPlan` (drop=0, delay=0, no partitions, no
//! schedule) is indistinguishable from the fault-free fabric — same
//! delivery order, same stats, empty fault log — for any seed and any
//! send/flush interleaving; a delay-only plan preserves per-link FIFO and
//! exactly-once delivery; a reorder-only plan gives up FIFO but not
//! exactly-once; a lossy plan keeps the frame ledger balanced
//! (entered == consumed + swallowed) after quiescence; and `call_many`
//! answers what sequential calls answer under delays and duplicates.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use trinity_net::{Fabric, FabricConfig, FaultPlan, FrameBuf, MachineId};

#[derive(Debug, Clone)]
enum SendOp {
    Send { dst: u16 },
    Flush { dst: u16 },
    FlushAll,
}

fn op_strategy() -> impl Strategy<Value = SendOp> {
    prop_oneof![
        6 => (1u16..=2).prop_map(|dst| SendOp::Send { dst }),
        2 => (1u16..=2).prop_map(|dst| SendOp::Flush { dst }),
        1 => Just(SendOp::FlushAll),
    ]
}

/// Run `ops` from machine 0 against a fabric with the given plan; return
/// the per-destination delivery orders and the cluster-wide stats.
fn run_ops(
    ops: &[SendOp],
    faults: Option<FaultPlan>,
) -> (Vec<Vec<u32>>, trinity_net::StatsDelta, usize) {
    let fabric = Fabric::new(FabricConfig {
        workers_per_machine: 1, // handler-order FIFO requires one worker
        call_timeout: Duration::from_secs(5),
        faults,
        ..FabricConfig::with_machines(3)
    });
    let seen: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(vec![Vec::new(); 3]));
    for m in 1..=2u16 {
        let seen = Arc::clone(&seen);
        fabric.endpoint(MachineId(m)).register(30, move |_src, p| {
            seen.lock()[m as usize].push(u32::from_le_bytes(p.try_into().unwrap()));
            None
        });
    }
    let sender = fabric.endpoint(MachineId(0));
    let mut total = 0usize;
    let mut seq = 0u32;
    for op in ops {
        match op {
            SendOp::Send { dst } => {
                sender.send(MachineId(*dst), 30, &seq.to_le_bytes());
                seq += 1;
                total += 1;
            }
            SendOp::Flush { dst } => sender.flush_to(MachineId(*dst)),
            SendOp::FlushAll => sender.flush(),
        }
    }
    sender.flush();
    fabric.chaos_quiesce(Duration::from_secs(10));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while seen.lock().iter().map(Vec::len).sum::<usize>() < total
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let orders = seen.lock().clone();
    let stats = fabric.total_stats();
    let log_len = fabric.fault_log().len();
    fabric.shutdown();
    (orders, stats, log_len)
}

/// Regression: a kill → revive → resend cycle must not double-count
/// frames in the delivery ledger. Frames refused while the target is dead
/// never enter the ledger; frames dropped by the kill are counted exactly
/// once; resent frames are fresh entries, not replays of the dropped
/// ones. After quiescence `entered == consumed` and the handler ran
/// exactly `delivered` times.
#[test]
fn kill_revive_resend_does_not_double_count_frames() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let fabric = Fabric::new(FabricConfig {
        workers_per_machine: 1, // one worker: the inbox drains serially
        call_timeout: Duration::from_secs(5),
        ..FabricConfig::with_machines(2)
    });
    let handled = Arc::new(AtomicU64::new(0));
    {
        let handled = Arc::clone(&handled);
        fabric.endpoint(MachineId(1)).register(30, move |_src, _p| {
            // Slow handler: the inbox stays backed up long enough for the
            // kill to catch queued frames deterministically.
            std::thread::sleep(Duration::from_millis(5));
            handled.fetch_add(1, Ordering::SeqCst);
            None
        });
    }
    let sender = fabric.endpoint(MachineId(0));
    const BURST: u32 = 20;
    for i in 0..BURST {
        sender.send(MachineId(1), 30, &i.to_le_bytes());
    }
    sender.flush();
    // Wait for the first deliveries, then kill with the queue non-empty:
    // at 5ms per frame the remaining ~18 frames cannot have drained.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handled.load(Ordering::SeqCst) < 2 {
        assert!(std::time::Instant::now() < deadline, "no deliveries");
        std::thread::sleep(Duration::from_millis(1));
    }
    fabric.kill(MachineId(1));
    // Let the dead machine's worker drain its backed-up queue (each
    // queued frame is counted dropped at dequeue) before reviving —
    // reviving earlier would let the leftovers deliver normally.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let total = fabric.total_stats();
        if total.entered_frames() == total.consumed_frames() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "kill never drained the queue: {total:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Sends into a dead machine are refused at the send site: they must
    // never enter the ledger (neither as delivered nor as dropped).
    const WHILE_DEAD: u32 = 10;
    for i in 0..WHILE_DEAD {
        sender.send(MachineId(1), 30, &i.to_le_bytes());
    }
    sender.flush();

    fabric.revive(MachineId(1));
    for i in 0..BURST {
        sender.send(MachineId(1), 30, &i.to_le_bytes());
    }
    sender.flush();

    // Quiesce: every entered frame terminally accounted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let total = fabric.total_stats();
        if total.entered_frames() == total.consumed_frames() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "ledger never balanced: {total:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let total = fabric.total_stats();
    let handled = handled.load(Ordering::SeqCst);
    // Exactly the two bursts entered; the dead-window sends did not.
    assert_eq!(total.entered_frames(), 2 * BURST as u64);
    assert_eq!(total.refused_frames, WHILE_DEAD as u64);
    // The kill discarded the backed-up queue, and each discarded frame is
    // counted exactly once: delivered + dropped covers both bursts.
    assert!(total.dropped_frames > 0, "kill must drop the queued frames");
    assert_eq!(
        total.delivered_frames + total.dropped_frames,
        2 * BURST as u64
    );
    // The handler ran once per delivered frame — a resend delivered twice
    // or a dropped frame also delivered would break this equality.
    assert_eq!(handled, total.delivered_frames);
    fabric.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite invariant: a seeded plan with every policy off is
    /// byte-identical to the fault-free fabric.
    #[test]
    fn neutral_plan_is_invisible(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        seed in any::<u64>(),
    ) {
        let neutral = FaultPlan::new(seed);
        prop_assert!(neutral.is_neutral());
        let (plain_order, plain_stats, _) = run_ops(&ops, None);
        let (chaos_order, chaos_stats, log_len) = run_ops(&ops, Some(neutral));
        prop_assert_eq!(plain_order, chaos_order, "delivery order diverged");
        prop_assert_eq!(plain_stats, chaos_stats, "stats diverged");
        prop_assert_eq!(log_len, 0, "a neutral plan must inject nothing");
    }

    /// Delays postpone but never reorder, lose, or duplicate: per-link
    /// FIFO and exactly-once survive any delay plan.
    #[test]
    fn delay_only_plan_preserves_fifo_and_exactly_once(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        seed in any::<u64>(),
        prob_pct in 10u32..100,
        base_us in 1u64..3_000,
    ) {
        let plan = FaultPlan::new(seed).with_delay(prob_pct as f64 / 100.0, base_us, base_us);
        let (plain_order, _, _) = run_ops(&ops, None);
        let (chaos_order, stats, _) = run_ops(&ops, Some(plan));
        prop_assert_eq!(plain_order, chaos_order, "delay plan changed delivery");
        prop_assert_eq!(stats.entered_frames(), stats.consumed_frames());
    }

    /// Reordering permutes a link's deliveries but never loses or
    /// duplicates one: every message arrives exactly once (so no envelope
    /// stays parked in a hold slot) and the ledger balances.
    #[test]
    fn reorder_only_plan_balances_the_ledger_and_leaks_nothing(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        seed in any::<u64>(),
        prob_pct in 10u32..100,
        hold_us in 1u64..3_000,
    ) {
        let plan = FaultPlan::new(seed).with_reorder(prob_pct as f64 / 100.0, hold_us);
        let (plain_order, _, _) = run_ops(&ops, None);
        let (mut chaos_order, stats, _) = run_ops(&ops, Some(plan));
        chaos_order.iter_mut().for_each(|per_dst| per_dst.sort_unstable());
        prop_assert_eq!(plain_order, chaos_order, "reordering lost or minted a message");
        prop_assert_eq!(stats.entered_frames(), stats.consumed_frames());
    }

    /// Lossy plans keep the ledger balanced: after quiescence every frame
    /// that entered was either consumed by a receiver or swallowed by the
    /// injector — none are stuck in buffers.
    #[test]
    fn lossy_plan_balances_the_ledger(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        seed in any::<u64>(),
        drop_pct in 5u32..50,
    ) {
        let plan = FaultPlan::new(seed).with_drop(drop_pct as f64 / 100.0);
        let fabric = Fabric::new(FabricConfig {
            faults: Some(plan),
            call_timeout: Duration::from_secs(5),
            ..FabricConfig::with_machines(3)
        });
        for m in 1..=2u16 {
            fabric.endpoint(MachineId(m)).register(30, |_src, _p| None);
        }
        let sender = fabric.endpoint(MachineId(0));
        let mut seq = 0u32;
        for op in &ops {
            match op {
                SendOp::Send { dst } => {
                    sender.send(MachineId(*dst), 30, &seq.to_le_bytes());
                    seq += 1;
                }
                SendOp::Flush { dst } => sender.flush_to(MachineId(*dst)),
                SendOp::FlushAll => sender.flush(),
            }
        }
        sender.flush();
        prop_assert!(fabric.chaos_quiesce(Duration::from_secs(10)));
        let chaos = Arc::clone(fabric.chaos().unwrap());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let total = fabric.total_stats();
            if total.entered_frames() == total.consumed_frames() + chaos.swallowed_frames() {
                break;
            }
            prop_assert!(
                std::time::Instant::now() < deadline,
                "ledger never balanced: {:?} swallowed={}",
                total,
                chaos.swallowed_frames()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The recorded drops are exactly the swallowed envelopes.
        let log = fabric.fault_log();
        prop_assert!(log
            .records
            .iter()
            .all(|r| matches!(r.kind, trinity_net::FaultKind::Drop)));
        fabric.shutdown();
    }

    /// `call_many` is the sequential `call`s it replaces, whatever the
    /// links do: under any delay/duplicate plan each slot gets what a
    /// `call` of its own gets, and once the injector is quiet the frame
    /// ledger balances (every frame that entered, plus every copy the
    /// injector minted, was delivered or dropped; none was refused).
    #[test]
    fn call_many_returns_what_sequential_calls_return(
        dsts in proptest::collection::vec(0u16..3, 0..12),
        seed in any::<u64>(),
        delay_pct in 0u32..100,
        base_us in 1u64..2_000,
        dup_pct in 0u32..50,
    ) {
        let plan = FaultPlan::new(seed)
            .with_delay(delay_pct as f64 / 100.0, base_us, base_us)
            .with_duplicate(dup_pct as f64 / 100.0);
        let fabric = Fabric::new(FabricConfig {
            faults: Some(plan),
            call_timeout: Duration::from_secs(5),
            ..FabricConfig::with_machines(3)
        });
        for m in 0..3u16 {
            fabric.endpoint(MachineId(m)).register(31, move |src, p| {
                Some([p, &[m as u8, src.0 as u8]].concat())
            });
        }
        let caller = fabric.endpoint(MachineId(0));
        let payloads: Vec<[u8; 4]> = (0..dsts.len() as u32).map(u32::to_le_bytes).collect();
        let requests: Vec<(MachineId, u16, &[u8])> = dsts
            .iter()
            .zip(&payloads)
            .map(|(&dst, payload)| (MachineId(dst), 31, &payload[..]))
            .collect();
        let many: Vec<_> = caller
            .call_many(&requests)
            .into_iter()
            .map(|r| r.map(FrameBuf::into_vec))
            .collect();
        let one_by_one: Vec<_> = requests
            .iter()
            .map(|&(dst, proto, payload)| caller.call(dst, proto, payload).map(FrameBuf::into_vec))
            .collect();
        prop_assert!(many.iter().all(Result::is_ok), "{:?}", many);
        prop_assert_eq!(many, one_by_one);
        prop_assert!(fabric.chaos_quiesce(Duration::from_secs(10)));
        let chaos = Arc::clone(fabric.chaos().unwrap());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let total = fabric.total_stats();
            if total.entered_frames() + chaos.duplicated_frames()
                == total.delivered_frames + total.dropped_frames
            {
                prop_assert_eq!(total.refused_frames, 0);
                break;
            }
            prop_assert!(
                std::time::Instant::now() < deadline,
                "ledger never balanced: {:?} duplicated={}",
                total,
                chaos.duplicated_frames()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        fabric.shutdown();
    }

    /// Same seed, same traffic: the injected fault log is bit-identical
    /// across runs (the replay substrate's core guarantee).
    #[test]
    fn same_seed_yields_identical_logs(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed)
            .with_drop(0.2)
            .with_delay(0.2, 200, 400)
            .with_duplicate(0.1);
        let (_, _, _) = run_ops(&ops, Some(plan.clone()));
        let log_of = |p: FaultPlan| {
            let fabric = Fabric::new(FabricConfig {
                workers_per_machine: 1,
                faults: Some(p),
                call_timeout: Duration::from_secs(5),
                ..FabricConfig::with_machines(3)
            });
            for m in 1..=2u16 {
                fabric.endpoint(MachineId(m)).register(30, |_src, _p| None);
            }
            let sender = fabric.endpoint(MachineId(0));
            let mut seq = 0u32;
            for op in &ops {
                match op {
                    SendOp::Send { dst } => {
                        sender.send(MachineId(*dst), 30, &seq.to_le_bytes());
                        seq += 1;
                    }
                    SendOp::Flush { dst } => sender.flush_to(MachineId(*dst)),
                    SendOp::FlushAll => sender.flush(),
                }
            }
            sender.flush();
            fabric.chaos_quiesce(Duration::from_secs(10));
            let log = fabric.fault_log();
            fabric.shutdown();
            log
        };
        let first = log_of(plan.clone());
        let second = log_of(plan.clone());
        prop_assert_eq!(&first, &second, "same seed diverged");
        // And a replay plan built from the log re-injects exactly it.
        let replayed = log_of(FaultPlan::replay(&first));
        prop_assert_eq!(&replayed, &first, "replay diverged from its log");
    }
}
