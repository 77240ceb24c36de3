//! Property tests for the zero-copy pack/unpack path, plus aliasing and
//! error-classification regressions.
//!
//! The pack path turns N payloads into slices of one pooled arena chunk;
//! these tests drive arbitrary frame counts and payload sizes (empty,
//! tiny, and bigger than the packing threshold) through a real fabric and
//! assert every byte survives, in order — then pin down the two
//! lifetime/classification bugs the zero-copy rewrite is easiest to get
//! wrong on: a kept subslice outliving its recycled neighbors, and an
//! expired call during peer death misreporting `Unreachable`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use trinity_net::{
    deadline_now_us, DeadlineGuard, Fabric, FabricConfig, FrameBuf, FrameKind, FramePool,
    MachineId, NetError, PackArena,
};

const SINK: u16 = 90;
const ECHO: u16 = 91;
const SLOW: u16 = 92;
const BATCH: u16 = 93;

/// Payload shapes that exercise every packing regime: empty frames,
/// sub-threshold runts that pack many-to-an-envelope, and payloads larger
/// than the (shrunken) packing threshold that flush mid-batch.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        prop_oneof![
            1 => proptest::strategy::Just(Vec::new()),
            2 => proptest::collection::vec(any::<u8>(), 1..32),
            2 => proptest::collection::vec(any::<u8>(), 200..600),
        ],
        0..40,
    )
}

/// One step of the batch-vs-per-frame comparison: a stretch of payloads
/// sent to the batch protocol, the per-frame protocol, or alternating
/// between them (so runs are cut at every protocol change), a synchronous
/// call (a request lands between the one-ways), or an explicit flush.
#[derive(Debug, Clone)]
enum Step {
    Stretch {
        len: usize,
        pad: usize,
        interleave: bool,
    },
    Call,
    Flush,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (1usize..24, 0usize..80, any::<bool>())
                .prop_map(|(len, pad, interleave)| Step::Stretch { len, pad, interleave }),
            1 => proptest::strategy::Just(Step::Call),
            1 => proptest::strategy::Just(Step::Flush),
        ],
        1..24,
    )
}

fn small_pack_fabric() -> Arc<Fabric> {
    let mut cfg = FabricConfig::with_machines(2);
    // Shrink the packing threshold so multi-envelope flushes happen at
    // test-sized payloads instead of 64 KiB.
    cfg.pack_threshold_bytes = 512;
    // One worker: handlers then run in arrival order, which is what the
    // FIFO assertions and the echo-call fence below rely on. A pool of
    // several may finish a later envelope's frames first.
    cfg.workers_per_machine = 1;
    Fabric::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-way sends: every payload arrives exactly once, byte-identical
    /// and in per-destination FIFO order, regardless of how the packer
    /// splits the batch into envelopes.
    #[test]
    fn packed_sends_roundtrip(batch in payloads()) {
        let fabric = small_pack_fabric();
        let a = fabric.endpoint(MachineId(0));
        let b = fabric.endpoint(MachineId(1));
        let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        b.register(SINK, move |_src, p| {
            sink.lock().unwrap().push(p.to_vec());
            None
        });
        for p in &batch {
            a.send(MachineId(1), SINK, p);
        }
        a.flush_to(MachineId(1));
        // An empty-payload echo call after the flush fences the one-ways:
        // same destination, so FIFO guarantees the sink ran for all.
        b.register(ECHO, |_src, p| Some(p.to_vec()));
        a.call(MachineId(1), ECHO, b"fence").unwrap();
        prop_assert_eq!(&*seen.lock().unwrap(), &batch);
        fabric.shutdown();
    }

    /// The flat-buffer batch path (`send_slices`) is byte-equivalent to
    /// issuing each span as its own `send`.
    #[test]
    fn send_slices_matches_individual_sends(batch in payloads()) {
        let fabric = small_pack_fabric();
        let a = fabric.endpoint(MachineId(0));
        let b = fabric.endpoint(MachineId(1));
        let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        b.register(SINK, move |_src, p| {
            sink.lock().unwrap().push(p.to_vec());
            None
        });
        let mut flat = Vec::new();
        let mut ends = Vec::new();
        for p in &batch {
            flat.extend_from_slice(p);
            ends.push(flat.len());
        }
        a.send_slices(MachineId(1), SINK, &flat, &ends);
        a.flush_to(MachineId(1));
        b.register(ECHO, |_src, p| Some(p.to_vec()));
        a.call(MachineId(1), ECHO, b"fence").unwrap();
        prop_assert_eq!(&*seen.lock().unwrap(), &batch);
        fabric.shutdown();
    }

    /// The delivery unit is the run: a batch handler sees exactly the
    /// frames a per-frame handler sees — the same multiset, and envelope
    /// (= send) order inside every run — whatever the pack threshold cuts,
    /// however the two protocols interleave, and with requests landing
    /// between the one-ways. With one worker the order is total.
    #[test]
    fn batch_handler_sees_what_per_frame_handler_sees(
        script in steps(),
        threshold in 48usize..4096,
        one_worker in any::<bool>(),
    ) {
        let mut cfg = FabricConfig::with_machines(2);
        cfg.pack_threshold_bytes = threshold;
        cfg.workers_per_machine = if one_worker { 1 } else { 4 };
        let fabric = Fabric::new(cfg);
        let a = fabric.endpoint(MachineId(0));
        let b = fabric.endpoint(MachineId(1));
        let seq_of = |p: &[u8]| u32::from_le_bytes(p[..4].try_into().unwrap());
        let runs: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(Vec::new()));
        let singles: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let runs = Arc::clone(&runs);
            b.register_batch(BATCH, move |_src, frames| {
                let run = frames.iter().map(|f| seq_of(&f.payload)).collect();
                runs.lock().unwrap().push(run);
            });
            let singles = Arc::clone(&singles);
            b.register(SINK, move |_src, p| {
                singles.lock().unwrap().push(seq_of(p));
                None
            });
            b.register(ECHO, |_src, p| Some(p.to_vec()));
        }
        let mut sent = 0u32;
        for step in &script {
            match *step {
                Step::Stretch { len, pad, interleave } => {
                    let payloads: Vec<Vec<u8>> = (sent..sent + len as u32)
                        .map(|seq| {
                            let mut p = seq.to_le_bytes().to_vec();
                            p.resize(4 + pad, 0xa5);
                            p
                        })
                        .collect();
                    sent += len as u32;
                    if interleave {
                        for p in &payloads {
                            a.send(MachineId(1), BATCH, p);
                            a.send(MachineId(1), SINK, p);
                        }
                    } else {
                        for proto in [BATCH, SINK] {
                            for p in &payloads {
                                a.send(MachineId(1), proto, p);
                            }
                        }
                    }
                }
                Step::Call => {
                    prop_assert_eq!(a.call(MachineId(1), ECHO, b"mid").unwrap(), b"mid");
                }
                Step::Flush => a.flush_to(MachineId(1)),
            }
        }
        a.flush_to(MachineId(1));
        // One worker: the echo fences every earlier run. Four: poll.
        a.call(MachineId(1), ECHO, b"fence").unwrap();
        let seen = || {
            let batched: usize = runs.lock().unwrap().iter().map(Vec::len).sum();
            (batched, singles.lock().unwrap().len())
        };
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        while seen() != (sent as usize, sent as usize) && std::time::Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        let runs = runs.lock().unwrap().clone();
        let mut batched: Vec<u32> = runs.concat();
        let mut singles = singles.lock().unwrap().clone();
        let all: Vec<u32> = (0..sent).collect();
        for run in &runs {
            prop_assert!(!run.is_empty());
            prop_assert!(run.windows(2).all(|w| w[0] < w[1]), "run out of order: {:?}", run);
        }
        if one_worker {
            prop_assert_eq!(&batched, &all);
            prop_assert_eq!(&singles, &all);
        }
        batched.sort_unstable();
        singles.sort_unstable();
        prop_assert_eq!(&batched, &all);
        prop_assert_eq!(&singles, &all);
        fabric.shutdown();
    }

    /// Synchronous calls echo arbitrary payloads unchanged through the
    /// shared-slice reply path.
    #[test]
    fn call_replies_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let fabric = small_pack_fabric();
        let a = fabric.endpoint(MachineId(0));
        let b = fabric.endpoint(MachineId(1));
        b.register(ECHO, |_src, p| Some(p.to_vec()));
        let reply = a.call(MachineId(1), ECHO, &payload).unwrap();
        prop_assert_eq!(reply.as_slice(), payload.as_slice());
        fabric.shutdown();
    }
}

/// A subslice of one packed frame stays valid after every neighboring
/// frame from the same arena chunk is dropped, the pool recycles other
/// chunks, and new traffic overwrites the recycled memory. The kept
/// slice pins its chunk; everything else churns.
#[test]
fn kept_subslice_survives_neighbor_recycling() {
    let pool = FramePool::new();
    let mut arena = PackArena::new();
    for i in 0u8..8 {
        arena.push(1, FrameKind::OneWay, &[i; 64]);
    }
    let frames = arena.seal(&pool);
    let kept: FrameBuf = frames[3].payload.slice(10..20);
    drop(frames); // all neighbors gone; `kept` still pins the chunk
    assert_eq!(pool.spares(), 0, "a live subslice must block recycling");

    // Churn the pool: many more seals, each recycled in full, so spare
    // buffers are reused and overwritten with different bytes.
    for round in 0u8..16 {
        let mut next = PackArena::new();
        for i in 0u8..8 {
            next.push(1, FrameKind::OneWay, &[round.wrapping_mul(17) ^ i; 64]);
        }
        drop(next.seal(&pool));
    }
    assert!(pool.spares() >= 1, "fully-dropped chunks recycle");
    assert_eq!(kept, &[3u8; 10][..], "kept subslice is untouched by churn");

    drop(kept);
    let spares_after = pool.spares();
    assert!(
        spares_after >= 1,
        "the pinned chunk returns to the pool on last drop"
    );
}

/// Regression (error-classification race): a call whose inherited budget
/// expires while its peer is dying must report `DeadlineExceeded` — not
/// `Unreachable` — and bump the `net.deadline.expired` counter, so
/// callers don't retry a budget-exhausted query.
#[test]
fn expired_call_during_peer_death_reports_deadline() {
    let fabric = Fabric::new(FabricConfig::with_machines(2));
    let a = fabric.endpoint(MachineId(0));
    let b = fabric.endpoint(MachineId(1));
    let served = Arc::new(AtomicU64::new(0));
    let served2 = Arc::clone(&served);
    b.register(SLOW, move |_src, _p| {
        served2.fetch_add(1, Ordering::SeqCst);
        // Never answers within the caller's budget.
        std::thread::sleep(Duration::from_millis(600));
        Some(Vec::new())
    });
    let expired_before = a.obs().counter("net.deadline.expired").get();
    let caller = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            // Inherited budget (200 ms) is far tighter than the call's own
            // timeout, so the budget is what lapses while m1 is dead.
            let _g = DeadlineGuard::enter(deadline_now_us() + 200_000);
            a.call_with_deadline(MachineId(1), SLOW, b"x", Duration::from_secs(5))
        })
    };
    // Let the request reach m1's worker, then kill m1 while the call is
    // waiting — the old classification order saw `is_dead` first and
    // answered `Unreachable`.
    while served.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    fabric.kill(MachineId(1));
    let err = caller.join().unwrap().unwrap_err();
    assert!(
        matches!(err, NetError::DeadlineExceeded(MachineId(1), SLOW)),
        "expired budget must win over peer death: {err}"
    );
    assert_eq!(
        a.obs().counter("net.deadline.expired").get(),
        expired_before + 1,
        "the expiry is counted"
    );
    fabric.shutdown();
}
