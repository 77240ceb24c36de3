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
