//! The fabric's thread model, checked from the outside: a fabric owns its
//! handler workers (and the injector's timer) and nothing else, handlers
//! run only on the destination machine's workers, a response needs no
//! thread of the calling endpoint to arrive, and a `call_many` round is
//! waited for by its caller alone.
//!
//! The census reads every thread of this process, so the tests in this
//! file take turns.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use trinity_net::{Fabric, FabricConfig, FaultPlan, MachineId};

static TURN: Mutex<()> = Mutex::new(());

/// `comm` of every live thread of this process that starts with
/// `prefix`. The kernel keeps 15 bytes of a thread's name, so a worker
/// `trinity-net-wk-<m>-<w>` reads `trinity-net-wk-` and the injector's
/// timer `trinity-chaos-t`.
fn threads_named(prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// [`threads_named`], once it reads `want` or 5 s have passed. A thread
/// names itself as it starts, and a joined one can linger in procfs for
/// a moment after `join` returns, so a census is polled to where it
/// settles; a thread too many never goes away and still fails.
fn census(prefix: &str, want: &[&str]) -> Vec<String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while threads_named(prefix) != want && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    threads_named(prefix)
}

#[test]
fn a_fabric_owns_its_workers_and_the_injectors_timer_and_nothing_else() {
    let _turn = TURN.lock();
    assert_eq!(census("trinity-", &[]), Vec::<String>::new());
    for (machines, workers) in [(1usize, 1usize), (3, 2), (4, 4)] {
        for faults in [None, Some(FaultPlan::new(9).with_delay(0.5, 100, 100))] {
            let timers = faults.is_some() as usize;
            let fabric = Fabric::new(FabricConfig {
                workers_per_machine: workers,
                faults,
                ..FabricConfig::with_machines(machines)
            });
            // Traffic must not conjure threads either.
            fabric
                .endpoint(MachineId(0))
                .call(
                    MachineId((machines - 1) as u16),
                    trinity_net::proto::PING,
                    b"",
                )
                .expect("ping");
            let mut want = vec!["trinity-chaos-t"; timers];
            want.extend(vec!["trinity-net-wk-"; machines * workers]);
            assert_eq!(
                census("trinity-", &want),
                want,
                "{machines} machines x {workers} workers"
            );
            fabric.shutdown();
            assert_eq!(
                census("trinity-", &[]),
                Vec::<String>::new(),
                "shutdown joins every thread"
            );
        }
    }
}

#[test]
fn call_many_waits_for_its_round_on_the_calling_thread() {
    let _turn = TURN.lock();
    let fabric = Fabric::new(FabricConfig::with_machines(4));
    let gate = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicUsize::new(0));
    for m in 1..4u16 {
        let (gate, parked) = (Arc::clone(&gate), Arc::clone(&parked));
        fabric.endpoint(MachineId(m)).register(10, move |_, p| {
            parked.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(p.to_vec())
        });
    }
    // A thread that the caller spawned without a name would inherit the
    // caller's and show in the census.
    let a = fabric.endpoint(MachineId(0));
    let caller = std::thread::Builder::new()
        .name("round-caller".into())
        .spawn(move || {
            let requests: Vec<_> = (1..4u16).map(|m| (MachineId(m), 10, &b"r"[..])).collect();
            a.call_many(&requests)
        })
        .expect("spawn caller");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while parked.load(Ordering::SeqCst) < 3 {
        assert!(std::time::Instant::now() < deadline, "round never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every request of the round is being handled, and one thread waits.
    assert_eq!(census("round-caller", &["round-caller"]), ["round-caller"]);
    gate.store(true, Ordering::SeqCst);
    let replies = caller.join().expect("caller");
    assert!(replies.iter().all(|r| r.as_deref() == Ok(&b"r"[..])));
    fabric.shutdown();
}

#[test]
fn handlers_run_only_on_the_destinations_workers() {
    let _turn = TURN.lock();
    let fabric = Fabric::new(FabricConfig::with_machines(3));
    // (what ran, on which thread)
    let ran: Arc<Mutex<Vec<(&'static str, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let note = {
        let ran = Arc::clone(&ran);
        move |what| {
            let thread = std::thread::current().name().unwrap_or("").to_string();
            ran.lock().push((what, thread));
        }
    };
    let b = fabric.endpoint(MachineId(1));
    {
        let note = note.clone();
        b.register(10, move |_, _| {
            note("request");
            Some(Vec::new())
        });
    }
    {
        let note = note.clone();
        b.register(11, move |_, _| {
            note("one-way");
            None
        });
    }
    b.register_batch(12, move |_, _| note("batch"));
    // From a remote machine, and from the destination's own endpoint
    // (loopback is routed on the sending thread too).
    for src in [0u16, 1] {
        let a = fabric.endpoint(MachineId(src));
        a.call(MachineId(1), 10, b"").expect("call");
        for _ in 0..8 {
            a.send(MachineId(1), 11, b"x");
            a.send(MachineId(1), 12, b"y");
        }
        a.flush();
    }
    // 2 requests, 16 per-frame one-ways, and the batch runs (at least one).
    let done = || {
        let ran = ran.lock();
        let batches = ran.iter().filter(|(what, _)| *what == "batch").count();
        batches > 0 && ran.len() - batches == 18
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "handlers never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    for (what, thread) in ran.lock().iter() {
        assert!(
            thread.starts_with("trinity-net-wk-1-"),
            "{what} handler of machine 1 ran on thread {thread:?}"
        );
    }
    fabric.shutdown();
}

#[test]
fn a_response_arrives_while_every_worker_of_the_caller_is_parked() {
    let _turn = TURN.lock();
    let fabric = Fabric::new(FabricConfig {
        workers_per_machine: 2,
        call_timeout: Duration::from_secs(5),
        ..FabricConfig::with_machines(2)
    });
    let gate = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicUsize::new(0));
    let a = fabric.endpoint(MachineId(0));
    {
        let (gate, parked) = (Arc::clone(&gate), Arc::clone(&parked));
        a.register(20, move |_, _| {
            parked.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            None
        });
    }
    fabric
        .endpoint(MachineId(1))
        .register(10, |_, p| Some(p.to_vec()));
    // Two flushes, two runs: one parks each of machine 0's workers.
    for _ in 0..2 {
        fabric.endpoint(MachineId(1)).send(MachineId(0), 20, b"");
        fabric.endpoint(MachineId(1)).flush();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while parked.load(Ordering::SeqCst) < 2 {
        assert!(std::time::Instant::now() < deadline, "workers never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The replying worker of machine 1 completes the caller's slot itself.
    let reply = a.call(MachineId(1), 10, b"echo").expect("response starved");
    assert_eq!(&reply[..], b"echo");
    gate.store(true, Ordering::SeqCst);
    fabric.shutdown();
}
