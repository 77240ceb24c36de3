//! Property tests on the fabric's delivery guarantees.
//!
//! Invariants: per-(src, dst) FIFO order of packed one-way messages under
//! arbitrary send/flush interleavings (with a single handler worker) —
//! from one sender thread and from two racing on one endpoint — and
//! exactly-once delivery regardless of packing boundaries.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use trinity_net::{Fabric, FabricConfig, FaultPlan, MachineId};

#[derive(Debug, Clone)]
enum SendOp {
    /// Send one message to the destination machine (1 or 2).
    Send { dst: u16 },
    /// Flush the named destination's pack buffer.
    Flush { dst: u16 },
    /// Flush everything.
    FlushAll,
}

fn op_strategy() -> impl Strategy<Value = SendOp> {
    prop_oneof![
        6 => (1u16..=2).prop_map(|dst| SendOp::Send { dst }),
        2 => (1u16..=2).prop_map(|dst| SendOp::Flush { dst }),
        1 => Just(SendOp::FlushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_delivery_is_fifo_and_exactly_once(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let fabric = Fabric::new(FabricConfig {
            workers_per_machine: 1, // handler-order FIFO requires one worker
            call_timeout: Duration::from_secs(5),
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
        let mut sent: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut seq = 0u32;
        for op in &ops {
            match op {
                SendOp::Send { dst } => {
                    sender.send(MachineId(*dst), 30, &seq.to_le_bytes());
                    sent[*dst as usize].push(seq);
                    seq += 1;
                }
                SendOp::Flush { dst } => sender.flush_to(MachineId(*dst)),
                SendOp::FlushAll => sender.flush(),
            }
        }
        sender.flush();
        let total: usize = sent.iter().map(Vec::len).sum();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.lock().iter().map(Vec::len).sum::<usize>() < total
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = seen.lock();
        for dst in 1..=2usize {
            prop_assert_eq!(
                &seen[dst],
                &sent[dst],
                "per-pair FIFO broken to machine {}", dst
            );
        }
        fabric.shutdown();
    }

    /// Two threads of one endpoint send to the same destinations with no
    /// receiver thread to serialise them: whichever thread trips a flush
    /// routes the envelope itself. Each thread's frames must still reach
    /// the handler in that thread's send order — the pack-buffer lock
    /// (and, under a delay-only plan, the injector's link lock) orders
    /// the envelopes on their way into the work queue.
    #[test]
    fn two_sender_threads_keep_each_threads_order(
        ops_a in proptest::collection::vec(op_strategy(), 1..120),
        ops_b in proptest::collection::vec(op_strategy(), 1..120),
        delay in proptest::option::of((10u32..100, 1u64..2_000)),
        seed in any::<u64>(),
    ) {
        let fabric = Fabric::new(FabricConfig {
            workers_per_machine: 1, // handler-order FIFO requires one worker
            pack_threshold_bytes: 256, // threshold flushes race the explicit ones
            call_timeout: Duration::from_secs(5),
            faults: delay.map(|(pct, us)| FaultPlan::new(seed).with_delay(pct as f64 / 100.0, us, us)),
            ..FabricConfig::with_machines(3)
        });
        // seen[dst][thread] = that thread's sequence numbers, in handler order.
        let seen: Arc<Mutex<Vec<[Vec<u32>; 2]>>> = Arc::new(Mutex::new(vec![Default::default(); 3]));
        for m in 1..=2u16 {
            let seen = Arc::clone(&seen);
            fabric.endpoint(MachineId(m)).register(30, move |_src, p| {
                let seq = u32::from_le_bytes(p[1..].try_into().unwrap());
                seen.lock()[m as usize][p[0] as usize].push(seq);
                None
            });
        }
        let sender = fabric.endpoint(MachineId(0));
        let mut sent = [[0u32; 3]; 2];
        std::thread::scope(|s| {
            for ((t, ops), sent) in [&ops_a, &ops_b].into_iter().enumerate().zip(&mut sent) {
                let sender = &sender;
                s.spawn(move || {
                    for op in ops {
                        match op {
                            SendOp::Send { dst } => {
                                let mut p = vec![t as u8];
                                p.extend_from_slice(&sent[*dst as usize].to_le_bytes());
                                sender.send(MachineId(*dst), 30, &p);
                                sent[*dst as usize] += 1;
                            }
                            SendOp::Flush { dst } => sender.flush_to(MachineId(*dst)),
                            SendOp::FlushAll => sender.flush(),
                        }
                    }
                });
            }
        });
        sender.flush();
        let total: u32 = sent.iter().flatten().sum();
        let arrived = || seen.lock().iter().flatten().map(Vec::len).sum::<usize>();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while arrived() < total as usize && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = seen.lock();
        for dst in 1..=2usize {
            for t in 0..2 {
                prop_assert_eq!(
                    &seen[dst][t],
                    &(0..sent[t][dst]).collect::<Vec<u32>>(),
                    "thread {}'s order broken to machine {}", t, dst
                );
            }
        }
        fabric.shutdown();
    }

    #[test]
    fn stats_count_every_frame_exactly_once(msgs in 1usize..200, chunk in 1usize..50) {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = Arc::clone(&counter);
            fabric.endpoint(MachineId(1)).register(31, move |_src, _p| {
                counter.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        for i in 0..msgs {
            a.send(MachineId(1), 31, &(i as u64).to_le_bytes());
            if i % chunk == 0 {
                a.flush_to(MachineId(1));
            }
        }
        a.flush();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < msgs && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert_eq!(counter.load(Ordering::SeqCst), msgs, "lost or duplicated frames");
        let stats = a.stats().snapshot();
        prop_assert_eq!(stats.remote_frames as usize, msgs);
        prop_assert!(stats.remote_envelopes as usize <= msgs);
        prop_assert!(stats.remote_envelopes >= 1);
        fabric.shutdown();
    }
}
