//! The simulated interconnect.
//!
//! A [`Fabric`] wires `n` machine endpoints together. Machines exchange
//! data exclusively through envelopes: the sending thread hands one to the
//! router, which routes it at the destination endpoint — a response into
//! the waiting caller's slot, requests and one-way runs onto the
//! destination's work queue — so there is one queue between two machines
//! and only the destination's worker threads ever run its handlers. This
//! is the in-process stand-in for the paper's cluster network (see
//! DESIGN.md). The fabric also owns failure injection: a killed machine
//! handles nothing more, what is queued for it is counted dropped, and
//! every transfer addressed to it fails, which is how the recovery
//! experiments exercise the paper's §6.2 protocols.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use trinity_obs::Registry;

use crate::cost::CostModel;
use crate::endpoint::{worker_loop, Endpoint, Work};
use crate::envelope::Envelope;
use crate::error::NetError;
use crate::fault::{ChaosState, FaultLog, FaultPlan};
use crate::stats::StatsDelta;
use crate::{MachineId, Result};

/// Shared routing state: the destination endpoints plus liveness flags.
pub(crate) struct Router {
    /// Every machine's endpoint, set once by [`Fabric::new`]. Weak,
    /// because each endpoint holds the router.
    endpoints: OnceLock<Vec<Weak<Endpoint>>>,
    dead: Vec<AtomicBool>,
    closed: AtomicBool,
}

impl Router {
    pub(crate) fn is_dead(&self, m: MachineId) -> bool {
        self.dead
            .get(m.0 as usize)
            .is_none_or(|d| d.load(Ordering::Acquire))
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    pub(crate) fn set_dead(&self, m: MachineId, dead: bool) {
        if let Some(d) = self.dead.get(m.0 as usize) {
            d.store(dead, Ordering::Release);
        }
    }

    /// Hand `env` to its destination: the calling thread routes it
    /// ([`Endpoint::route_envelope`]); handlers run on its workers only.
    pub(crate) fn deliver(&self, env: Envelope) -> Result<()> {
        let routes = self.endpoints.get();
        let ep = routes.and_then(|eps| eps.get(env.dst.0 as usize));
        let ep = ep.ok_or(NetError::Unreachable(env.dst))?;
        ep.upgrade().ok_or(NetError::Closed)?.route_envelope(env);
        Ok(())
    }
}

/// Fabric construction parameters.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of machines on the fabric.
    pub machines: usize,
    /// Handler worker threads per machine. Workers may block in nested
    /// calls (recursive traversal fan-out), so more workers allow deeper
    /// concurrent fan-out. An online query holds one worker of its start's
    /// owner while its rounds are out, so two machines can stall each other
    /// only with `2 × workers_per_machine` queries in flight, or half that
    /// while a migration leaves tables stale (DESIGN §14).
    pub workers_per_machine: usize,
    /// Byte threshold at which a destination's packed one-way buffer is
    /// shipped.
    pub pack_threshold_bytes: usize,
    /// Timeout for synchronous calls: how long a caller waits on a silent
    /// peer before it gets [`NetError::Timeout`]. The recovery leader's
    /// `PING` probes are calls too, so it also bounds each probe.
    pub call_timeout: Duration,
    /// Price list used when converting measured traffic into modeled
    /// network seconds.
    pub cost: CostModel,
    /// Seeded fault-injection plan; `None` (the default) runs the fabric
    /// fault-free.
    pub faults: Option<FaultPlan>,
}

impl FabricConfig {
    /// Defaults for an `n`-machine fabric.
    pub fn with_machines(n: usize) -> Self {
        FabricConfig {
            machines: n,
            workers_per_machine: 4,
            pack_threshold_bytes: 64 << 10,
            call_timeout: Duration::from_secs(10),
            cost: CostModel::default(),
            faults: None,
        }
    }
}

/// The simulated cluster interconnect.
pub struct Fabric {
    cfg: FabricConfig,
    router: Arc<Router>,
    endpoints: Vec<Arc<Endpoint>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    obs: Arc<Registry>,
    chaos: Option<Arc<ChaosState>>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("machines", &self.cfg.machines)
            .finish()
    }
}

impl Fabric {
    /// Bring up the fabric: all machines alive, worker threads running.
    pub fn new(cfg: FabricConfig) -> Arc<Self> {
        assert!(cfg.machines >= 1 && cfg.machines <= u16::MAX as usize);
        let router = Arc::new(Router {
            endpoints: OnceLock::new(),
            dead: (0..cfg.machines).map(|_| AtomicBool::new(false)).collect(),
            closed: AtomicBool::new(false),
        });
        let obs = Arc::new(Registry::new());
        let chaos = cfg
            .faults
            .clone()
            .map(|plan| ChaosState::start(plan, cfg.machines, Arc::clone(&router), &obs));
        let mut endpoints = Vec::with_capacity(cfg.machines);
        let mut handles = Vec::new();
        for m in 0..cfg.machines {
            let (work_tx, work_rx) = unbounded::<Work>();
            let workers = cfg.workers_per_machine.max(1);
            let ep = Endpoint::new(
                MachineId(m as u16),
                Arc::clone(&router),
                cfg.machines,
                cfg.pack_threshold_bytes,
                cfg.call_timeout,
                work_tx,
                workers,
                cfg.cost,
                obs.scope(m as u16),
                chaos.clone(),
            );
            for w in 0..workers {
                let ep = Arc::clone(&ep);
                let work_rx = work_rx.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("trinity-net-wk-{m}-{w}"))
                        .spawn(move || worker_loop(ep, work_rx))
                        .expect("spawn worker"),
                );
            }
            endpoints.push(ep);
        }
        let routes = endpoints.iter().map(Arc::downgrade).collect();
        assert!(router.endpoints.set(routes).is_ok(), "routes are set once");
        Arc::new(Fabric {
            cfg,
            router,
            endpoints,
            handles: Mutex::new(handles),
            obs,
            chaos,
        })
    }

    /// The endpoint attached to machine `m`.
    pub fn endpoint(&self, m: MachineId) -> Arc<Endpoint> {
        Arc::clone(&self.endpoints[m.0 as usize])
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.cfg.machines
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cfg.cost
    }

    /// This cluster's metrics registry. One registry per fabric, so tests
    /// running several simulated clusters in one process stay disjoint.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Kill a machine: it stops processing messages and every transfer
    /// addressed to it fails with [`NetError::Unreachable`].
    pub fn kill(&self, m: MachineId) {
        self.router.set_dead(m, true);
    }

    /// Revive a killed machine (its state is whatever it held at death;
    /// Trinity's recovery instead reloads trunks from TFS onto survivors,
    /// and a revived machine rejoins through `MigrationEngine::join_machine`).
    pub fn revive(&self, m: MachineId) {
        self.router.set_dead(m, false);
    }

    /// Whether machine `m` is currently dead.
    pub fn is_dead(&self, m: MachineId) -> bool {
        self.router.is_dead(m)
    }

    /// Cluster-wide traffic totals.
    pub fn total_stats(&self) -> StatsDelta {
        let mut total = StatsDelta::default();
        for ep in &self.endpoints {
            total.merge(&ep.stats().snapshot());
        }
        total
    }

    /// The fault injector, when this fabric was built with
    /// [`FabricConfig::faults`].
    pub fn chaos(&self) -> Option<&Arc<ChaosState>> {
        self.chaos.as_ref()
    }

    /// Every fault injected so far (empty for fault-free fabrics).
    pub fn fault_log(&self) -> FaultLog {
        self.chaos
            .as_ref()
            .map(|c| c.fault_log())
            .unwrap_or_default()
    }

    /// Fire `Trigger::Mark(value)` crash/revive events. Workloads call
    /// this at logical boundaries (checkpoints, phase changes); a no-op
    /// without an injector or matching events.
    pub fn chaos_mark(&self, value: u64) {
        if let Some(c) = &self.chaos {
            c.mark(value);
        }
    }

    /// Arm or disarm the fault injector (no-op on fault-free fabrics).
    /// See [`ChaosState::set_armed`].
    pub fn chaos_arm(&self, armed: bool) {
        if let Some(c) = &self.chaos {
            c.set_armed(armed);
        }
    }

    /// Wait until the injector holds no envelopes (delays elapsed, holds
    /// released). `true` immediately for fault-free fabrics.
    pub fn chaos_quiesce(&self, timeout: Duration) -> bool {
        self.chaos.as_ref().is_none_or(|c| c.quiesce(timeout))
    }

    /// Stop all fabric threads. Pending calls fail with
    /// [`NetError::Closed`]. Idempotent.
    pub fn shutdown(&self) {
        if self.router.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Drain the injector first: parked envelopes reach the work queues
        // ahead of the workers' stops, so nothing leaks through shutdown.
        if let Some(c) = &self.chaos {
            c.stop();
        }
        // Stop every endpoint before joining any thread: a worker blocked
        // in a nested call is released by its own endpoint's `Closed`.
        for ep in &self.endpoints {
            ep.stop();
        }
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framebuf::FrameBuf;
    use std::sync::atomic::AtomicUsize;

    fn quick_cfg(n: usize) -> FabricConfig {
        FabricConfig {
            call_timeout: Duration::from_millis(500),
            ..FabricConfig::with_machines(n)
        }
    }

    /// Wait until every frame that entered the fabric has been consumed —
    /// handled, or counted dropped. Nothing may sit uncounted in channel
    /// buffers.
    fn wait_balanced(fabric: &Fabric) -> StatsDelta {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let total = fabric.total_stats();
            if total.entered_frames() == total.consumed_frames() {
                return total;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ledger never balanced: {total:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A handler body that counts its arrival and parks until the gate
    /// opens, so a test can act while handlers provably hold workers.
    fn parking() -> (impl Fn() + Clone, Arc<AtomicUsize>, Arc<AtomicBool>) {
        let (parked, gate) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let park = {
            let (parked, gate) = (Arc::clone(&parked), Arc::clone(&gate));
            move || {
                parked.fetch_add(1, Ordering::SeqCst);
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        (park, parked, gate)
    }

    #[test]
    fn echo_call_roundtrip() {
        let fabric = Fabric::new(quick_cfg(3));
        fabric.endpoint(MachineId(1)).register(10, |src, p| {
            let mut out = format!("from {src}: ").into_bytes();
            out.extend_from_slice(p);
            Some(out)
        });
        let a = fabric.endpoint(MachineId(0));
        let reply = a.call(MachineId(1), 10, b"hi").unwrap();
        assert_eq!(reply, b"from m0: hi");
        fabric.shutdown();
    }

    #[test]
    fn call_to_self_works() {
        let fabric = Fabric::new(quick_cfg(1));
        let ep = fabric.endpoint(MachineId(0));
        ep.register(10, |_, p| Some(p.iter().rev().copied().collect()));
        assert_eq!(ep.call(MachineId(0), 10, b"abc").unwrap(), b"cba");
        // Local traffic is counted as local, not remote.
        let s = ep.stats().snapshot();
        assert_eq!(s.remote_envelopes, 0);
        assert!(s.local_frames >= 2);
        fabric.shutdown();
    }

    #[test]
    fn missing_handler_is_an_error() {
        let fabric = Fabric::new(quick_cfg(2));
        let a = fabric.endpoint(MachineId(0));
        assert_eq!(a.call(MachineId(1), 99, b""), Err(NetError::NoHandler(99)));
        fabric.shutdown();
    }

    #[test]
    fn call_many_answers_in_input_order() {
        let fabric = Fabric::new(quick_cfg(3));
        for m in 0..3u16 {
            fabric.endpoint(MachineId(m)).register(10, move |_, p| {
                let mut out = p.to_vec();
                out.push(b'0' + m as u8);
                Some(out)
            });
        }
        let a = fabric.endpoint(MachineId(0));
        let (x, y, z) = (&b"x"[..], &b"y"[..], &b"z"[..]);
        let got = a.call_many(&[
            (MachineId(2), 10, x),
            (MachineId(0), 10, y),
            (MachineId(1), 10, z),
            (MachineId(2), 10, y),
        ]);
        let got: Vec<Vec<u8>> = got.into_iter().map(|r| r.unwrap().into_vec()).collect();
        assert_eq!(got, [&b"x2"[..], b"y0", b"z1", b"y2"]);
        assert!(a.call_many(&[]).is_empty());
        fabric.shutdown();
    }

    #[test]
    fn call_many_fails_only_the_slot_that_failed() {
        let fabric = Fabric::new(quick_cfg(3));
        for m in 1..3u16 {
            fabric
                .endpoint(MachineId(m))
                .register(10, |_, p| Some(p.to_vec()));
        }
        fabric.kill(MachineId(2));
        let a = fabric.endpoint(MachineId(0));
        let got = a.call_many(&[
            (MachineId(1), 10, b"a"),
            (MachineId(2), 10, b"b"),
            (MachineId(1), 99, b"c"),
            (MachineId(1), 10, b"d"),
        ]);
        let got: Vec<_> = got.into_iter().map(|r| r.map(FrameBuf::into_vec)).collect();
        assert_eq!(
            got,
            [
                Ok(b"a".to_vec()),
                Err(NetError::Unreachable(MachineId(2))),
                Err(NetError::NoHandler(99)),
                Ok(b"d".to_vec()),
            ]
        );
        fabric.shutdown();
    }

    #[test]
    fn a_partitioned_peer_costs_one_timeout_per_round_not_per_slot() {
        let timeout = Duration::from_millis(300);
        let fabric = Fabric::new(FabricConfig {
            call_timeout: timeout,
            faults: Some(FaultPlan::new(1).with_partition(crate::Partition {
                from: 0,
                to: 2,
                from_seq: 0,
                to_seq: u64::MAX,
            })),
            ..quick_cfg(3)
        });
        for m in 1..3u16 {
            fabric
                .endpoint(MachineId(m))
                .register(10, |_, p| Some(p.to_vec()));
        }
        let a = fabric.endpoint(MachineId(0));
        let mut requests = vec![(MachineId(1), 10, &b"up"[..])];
        requests.extend((0..4).map(|_| (MachineId(2), 10, &b"lost"[..])));
        let started = std::time::Instant::now();
        let got = a.call_many(&requests);
        let took = started.elapsed();
        assert_eq!(got[0].as_deref(), Ok(&b"up"[..]));
        for r in &got[1..] {
            assert_eq!(r, &Err(NetError::Timeout(MachineId(2), 10)));
        }
        assert!(
            took >= timeout && took < 2 * timeout,
            "{took:?} for four slots on a silent peer"
        );
        fabric.shutdown();
    }

    #[test]
    fn shutdown_fails_every_slot_of_a_waiting_call_many() {
        let fabric = Fabric::new(FabricConfig {
            call_timeout: Duration::from_secs(60),
            ..quick_cfg(3)
        });
        let (park, parked, gate) = parking();
        for m in 1..3u16 {
            let park = park.clone();
            fabric.endpoint(MachineId(m)).register(10, move |_, _| {
                park();
                Some(Vec::new())
            });
        }
        let a = fabric.endpoint(MachineId(0));
        let caller = std::thread::spawn(move || {
            let requests = [
                (MachineId(1), 10, &b""[..]),
                (MachineId(2), 10, b""),
                (MachineId(1), 10, b""),
            ];
            a.call_many(&requests)
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while parked.load(Ordering::SeqCst) < 3 {
            assert!(std::time::Instant::now() < deadline, "calls never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stopper = std::thread::spawn({
            let fabric = Arc::clone(&fabric);
            move || fabric.shutdown()
        });
        assert_eq!(caller.join().unwrap(), vec![Err(NetError::Closed); 3]);
        gate.store(true, Ordering::SeqCst);
        stopper.join().unwrap();
        assert!(fabric.handles.lock().is_empty(), "every thread was joined");
    }

    #[test]
    fn one_way_messages_are_packed() {
        let fabric = Fabric::new(quick_cfg(2));
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = Arc::clone(&counter);
            fabric.endpoint(MachineId(1)).register(10, move |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        for i in 0..1000u32 {
            a.send(MachineId(1), 10, &i.to_le_bytes());
        }
        a.flush();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 1000 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
        let s = a.stats().snapshot();
        assert_eq!(s.remote_frames, 1000);
        assert!(
            s.remote_envelopes < 100,
            "1000 small frames should pack into few envelopes, got {}",
            s.remote_envelopes
        );
        assert!(s.packing_factor() > 10.0);
        fabric.shutdown();
    }

    #[test]
    fn concurrent_send_slices_delivers_everything_packed() {
        // Several sender threads (BSP compute workers flushing private
        // flat outboxes) push batches to the same destinations
        // concurrently; every frame must arrive exactly once and still
        // pack well.
        let fabric = Fabric::new(quick_cfg(3));
        let sums: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let counts: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        for m in 0..3u16 {
            let sum = Arc::clone(&sums[m as usize]);
            let count = Arc::clone(&counts[m as usize]);
            fabric.endpoint(MachineId(m)).register(10, move |_, p| {
                let v = u64::from_le_bytes(p.try_into().unwrap());
                sum.fetch_add(v as usize, Ordering::SeqCst);
                count.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        let per_worker = 500u64;
        let workers = 4u64;
        std::thread::scope(|s| {
            for w in 0..workers {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    // Per destination: payloads laid end to end + end offsets.
                    let mut outbox: Vec<(Vec<u8>, Vec<usize>)> = vec![Default::default(); 3];
                    for i in 0..per_worker {
                        let v = w * per_worker + i;
                        let dst = 1 + (v % 2) as usize;
                        let (data, ends) = &mut outbox[dst];
                        data.extend_from_slice(&v.to_le_bytes());
                        ends.push(data.len());
                        if ends.len() >= 32 {
                            a.send_slices(MachineId(dst as u16), 10, data, ends);
                            data.clear();
                            ends.clear();
                        }
                    }
                    for (dst, (data, ends)) in outbox.iter().enumerate() {
                        a.send_slices(MachineId(dst as u16), 10, data, ends);
                    }
                });
            }
        });
        a.flush();
        let total = (workers * per_worker) as usize;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counts[1].load(Ordering::SeqCst) + counts[2].load(Ordering::SeqCst) < total
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            counts[1].load(Ordering::SeqCst) + counts[2].load(Ordering::SeqCst),
            total,
            "no frame lost or duplicated under concurrent batched sends"
        );
        let expect: usize = (0..workers * per_worker).sum::<u64>() as usize;
        assert_eq!(
            sums[1].load(Ordering::SeqCst) + sums[2].load(Ordering::SeqCst),
            expect
        );
        let s = a.stats().snapshot();
        assert_eq!(s.remote_frames, total as u64);
        assert!(
            s.packing_factor() > 4.0,
            "batched sends should still pack: {}",
            s.packing_factor()
        );
        fabric.shutdown();
    }

    #[test]
    fn killed_machine_is_unreachable() {
        let fabric = Fabric::new(quick_cfg(2));
        fabric
            .endpoint(MachineId(1))
            .register(10, |_, p| Some(p.to_vec()));
        let a = fabric.endpoint(MachineId(0));
        assert!(a.call(MachineId(1), 10, b"x").is_ok());
        fabric.kill(MachineId(1));
        assert_eq!(
            a.call(MachineId(1), 10, b"x"),
            Err(NetError::Unreachable(MachineId(1)))
        );
        fabric.revive(MachineId(1));
        assert!(a.call(MachineId(1), 10, b"x").is_ok());
        fabric.shutdown();
    }

    #[test]
    fn handlers_can_fan_out_recursively() {
        // m0 asks m1 for a value that m1 must fetch from m2: nested calls
        // from inside a handler must not deadlock the worker pool.
        let fabric = Fabric::new(quick_cfg(3));
        {
            let fabric2 = Arc::clone(&fabric);
            fabric.endpoint(MachineId(1)).register(10, move |_, p| {
                let inner = fabric2
                    .endpoint(MachineId(1))
                    .call(MachineId(2), 11, p)
                    .unwrap();
                Some(inner.into_vec())
            });
        }
        fabric.endpoint(MachineId(2)).register(11, |_, p| {
            let mut v = p.to_vec();
            v.push(b'!');
            Some(v)
        });
        let reply = fabric
            .endpoint(MachineId(0))
            .call(MachineId(1), 10, b"deep")
            .unwrap();
        assert_eq!(reply, b"deep!");
        fabric.shutdown();
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let fabric = Fabric::new(quick_cfg(4));
        let counter = Arc::new(AtomicUsize::new(0));
        for m in 1..4u16 {
            let counter = Arc::clone(&counter);
            fabric.endpoint(MachineId(m)).register(10, move |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        fabric.endpoint(MachineId(0)).broadcast(10, b"hello all");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        fabric.shutdown();
    }

    #[test]
    fn shutdown_fails_pending_calls() {
        let fabric = Fabric::new(FabricConfig {
            call_timeout: Duration::from_secs(30),
            ..FabricConfig::with_machines(2)
        });
        // Handler that never responds in time.
        fabric.endpoint(MachineId(1)).register(10, |_, _| {
            std::thread::sleep(Duration::from_secs(60));
            None
        });
        let a = fabric.endpoint(MachineId(0));
        let h = std::thread::spawn(move || a.call(MachineId(1), 10, b""));
        std::thread::sleep(Duration::from_millis(100));
        // Shutdown must complete the pending call with Closed without
        // waiting for the sleeping handler... but join() would wait for the
        // worker. So run the shutdown on its own thread and verify the
        // pending call errors out quickly.
        std::thread::spawn({
            let fabric = Arc::clone(&fabric);
            move || fabric.shutdown()
        });
        let res = h.join().unwrap();
        assert!(
            matches!(res, Err(NetError::Closed) | Err(NetError::Timeout(..))),
            "got {res:?}"
        );
    }

    #[test]
    fn shutdown_with_calls_in_flight_closes_every_caller_and_joins_every_thread() {
        // Every worker of machine 1 is parked in a handler, more calls
        // sit queued behind them, and one handler is itself blocked in a
        // nested call: shutdown must fail all of them with `Closed` at
        // once (not after `call_timeout`) and join every thread as soon
        // as the handlers return.
        let fabric = Fabric::new(FabricConfig {
            workers_per_machine: 2,
            call_timeout: Duration::from_secs(60),
            ..FabricConfig::with_machines(3)
        });
        let (park, parked, gate) = parking();
        fabric.endpoint(MachineId(1)).register(10, move |_, _| {
            park();
            Some(Vec::new())
        });
        let nested = Arc::new(Mutex::new(None));
        {
            let (fabric2, nested) = (Arc::clone(&fabric), Arc::clone(&nested));
            fabric.endpoint(MachineId(2)).register(11, move |_, p| {
                let r = fabric2.endpoint(MachineId(2)).call(MachineId(1), 10, p);
                *nested.lock() = Some(r.map(|_| ()));
                None
            });
        }
        let callers: Vec<_> = (0..6)
            .map(|i| {
                let a = fabric.endpoint(MachineId(0));
                // The last caller goes through machine 2's nested call.
                let (dst, proto) = if i == 5 { (2, 11) } else { (1, 10) };
                std::thread::spawn(move || a.call(MachineId(dst), proto, b"").map(|_| ()))
            })
            .collect();
        // All seven requests (six callers, one nested) are on the wire and
        // both workers of machine 1 are parked before the shutdown starts.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while parked.load(Ordering::SeqCst) < 2 || fabric.total_stats().remote_envelopes < 7 {
            assert!(std::time::Instant::now() < deadline, "calls never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = std::time::Instant::now();
        let stopper = std::thread::spawn({
            let fabric = Arc::clone(&fabric);
            move || fabric.shutdown()
        });
        for c in callers {
            assert_eq!(c.join().unwrap(), Err(NetError::Closed));
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "callers waited out their timeout: {:?}",
            started.elapsed()
        );
        // A call that starts after the shutdown began is refused too.
        assert_eq!(
            fabric.endpoint(MachineId(0)).call(MachineId(1), 10, b""),
            Err(NetError::Closed)
        );
        gate.store(true, Ordering::SeqCst);
        stopper.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "threads joined late: {:?}",
            started.elapsed()
        );
        assert_eq!(*nested.lock(), Some(Err(NetError::Closed)));
        assert!(fabric.handles.lock().is_empty(), "every thread was joined");
    }

    #[test]
    fn a_send_racing_the_injectors_stop_is_delivered_not_deadlocked() {
        // A sender that passed `transmit`'s closed check just before
        // shutdown reaches the injector after its timer stopped. The
        // delayed envelope is then delivered inline — under the link lock
        // the sender already holds, which the inline path used to take a
        // second time: the worker hung, and `shutdown` hung joining it.
        let fabric = Fabric::new(FabricConfig {
            faults: Some(FaultPlan::new(5).with_delay(1.0, 50, 0)),
            ..quick_cfg(2)
        });
        let (tx, rx) = crossbeam::channel::bounded(1);
        fabric.endpoint(MachineId(1)).register(10, move |_, p| {
            let _ = tx.send(p.to_vec());
            None
        });
        fabric.chaos().unwrap().stop();
        let a = fabric.endpoint(MachineId(0));
        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || {
            a.send(MachineId(1), 10, b"late");
            a.flush();
            let _ = done_tx.send(());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).as_deref(),
            Ok(&b"late"[..]),
            "the late envelope was never delivered"
        );
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "the sender hung inside the injector"
        );
        assert_eq!(fabric.chaos().unwrap().pending(), 0);
        fabric.shutdown();
    }

    #[test]
    fn the_ledger_stays_open_until_a_requests_reply_has_entered_it() {
        // A chaos run snapshots its fault log once the ledger balances. A
        // request counted consumed before its handler returned left that
        // balance true with a reply — and whatever fault the injector
        // draws for it — still to be born: one log record more or fewer
        // between two runs of one seed.
        let fabric = Fabric::new(quick_cfg(2));
        let (park, parked, gate) = parking();
        fabric.endpoint(MachineId(1)).register(10, move |_, p| {
            park();
            Some(p.to_vec())
        });
        let a = fabric.endpoint(MachineId(0));
        let caller = std::thread::spawn(move || a.call(MachineId(1), 10, b"x").map(|_| ()));
        while parked.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let total = fabric.total_stats();
        assert_eq!(
            (total.entered_frames(), total.consumed_frames()),
            (1, 0),
            "the request is consumed only once its reply is in the ledger"
        );
        gate.store(true, Ordering::SeqCst);
        assert_eq!(caller.join().unwrap(), Ok(()));
        assert_eq!(wait_balanced(&fabric).entered_frames(), 2);
        fabric.shutdown();
    }

    #[test]
    fn metrics_mirror_net_stats() {
        let fabric = Fabric::new(quick_cfg(2));
        fabric
            .endpoint(MachineId(1))
            .register(10, |_, p| Some(p.to_vec()));
        let a = fabric.endpoint(MachineId(0));
        for _ in 0..5 {
            a.call(MachineId(1), 10, b"payload").unwrap();
        }
        let s = a.stats().snapshot();
        let snap = fabric.obs().scope(0).snapshot();
        assert_eq!(snap.counters["net.env.sent"], s.remote_envelopes);
        assert_eq!(snap.counters["net.frames.sent"], s.remote_frames);
        assert_eq!(snap.counters["net.bytes.sent"], s.remote_bytes);
        assert_eq!(snap.hists["net.env.bytes"].count, s.remote_envelopes);
        assert_eq!(snap.hists["net.call.us"].count, 5);
        assert!(
            snap.counters["net.modeled_tx_us"] > 0,
            "cost model charged per transfer"
        );
        // The responder counted its inbound side.
        let snap1 = fabric.obs().scope(1).snapshot();
        assert_eq!(snap1.counters["net.env.recv"], 5);
        assert_eq!(snap1.hists["net.handler.us"].count, 5);
        fabric.shutdown();
    }

    #[test]
    fn trace_id_crosses_machines() {
        use trinity_obs::{current_trace, next_trace_id, TraceGuard};
        // m0 calls m1, whose handler fans out to m2: all three machines
        // must record spans under the single trace installed on m0.
        let fabric = Fabric::new(quick_cfg(3));
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let fabric2 = Arc::clone(&fabric);
            let seen = Arc::clone(&seen);
            fabric.endpoint(MachineId(1)).register(10, move |_, p| {
                seen.lock().push(current_trace());
                Some(
                    fabric2
                        .endpoint(MachineId(1))
                        .call(MachineId(2), 11, p)
                        .unwrap()
                        .into_vec(),
                )
            });
        }
        {
            let seen = Arc::clone(&seen);
            fabric.endpoint(MachineId(2)).register(11, move |_, p| {
                seen.lock().push(current_trace());
                Some(p.to_vec())
            });
        }
        let trace = next_trace_id();
        {
            let _g = TraceGuard::enter(trace);
            fabric
                .endpoint(MachineId(0))
                .call(MachineId(1), 10, b"x")
                .unwrap();
        }
        assert_eq!(
            &*seen.lock(),
            &[trace, trace],
            "handlers observe the caller's trace"
        );
        let spans = fabric.obs().spans_for_trace(trace);
        let machines: std::collections::BTreeSet<u16> = spans.iter().map(|s| s.machine).collect();
        assert_eq!(machines.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        // Untraced traffic records no spans at all.
        fabric
            .endpoint(MachineId(0))
            .call(MachineId(1), 10, b"y")
            .unwrap();
        let all = fabric.obs().spans();
        assert!(
            all.iter().all(|s| s.trace == trace),
            "spans only exist under a trace"
        );
        fabric.shutdown();
    }

    #[test]
    fn queued_work_of_a_killed_machine_is_counted_dropped() {
        let fabric = Fabric::new(quick_cfg(2));
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = Arc::clone(&counter);
            fabric.endpoint(MachineId(1)).register(10, move |_, _| {
                // Slow handler: the worker queue backs up so the kill
                // lands while frames are still queued.
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        for i in 0..200u32 {
            a.send(MachineId(1), 10, &i.to_le_bytes());
            if i % 10 == 0 {
                a.flush_to(MachineId(1));
            }
        }
        a.flush();
        std::thread::sleep(Duration::from_millis(20));
        fabric.kill(MachineId(1));
        // Every frame that entered the fabric must be consumed — handled
        // before the kill, or counted dropped after it. Nothing may sit
        // uncounted in channel buffers.
        let total = wait_balanced(&fabric);
        assert_eq!(total.entered_frames(), 200);
        assert!(
            total.dropped_frames > 0,
            "kill with a backed-up queue must discard some frames"
        );
        assert_eq!(
            counter.load(Ordering::SeqCst) as u64,
            total.delivered_frames,
            "handled exactly the frames the ledger says were delivered"
        );
        fabric.shutdown();
    }

    #[test]
    fn kill_with_queued_runs_balances_the_ledger() {
        // The delivery unit is the run: a kill that lands while whole
        // runs (batch and per-frame) sit in the worker queue must still
        // account every frame exactly once — handled before the kill,
        // dropped in the queue, or refused at the send site after it.
        let fabric = Fabric::new(quick_cfg(2));
        let handled = Arc::new(AtomicUsize::new(0));
        // Handlers park until the gate opens, so the kill provably lands
        // with every worker mid-run and the rest of the runs queued.
        let parked = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(AtomicBool::new(false));
        let wait = {
            let (parked, gate) = (Arc::clone(&parked), Arc::clone(&gate));
            move || {
                parked.fetch_add(1, Ordering::SeqCst);
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        {
            let (handled, wait) = (Arc::clone(&handled), wait.clone());
            fabric
                .endpoint(MachineId(1))
                .register_batch(10, move |_, frames| {
                    wait();
                    handled.fetch_add(frames.len(), Ordering::SeqCst);
                });
        }
        {
            let handled = Arc::clone(&handled);
            fabric.endpoint(MachineId(1)).register(11, move |_, _| {
                wait();
                handled.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        let sent = 600u64;
        for i in 0..sent {
            a.send(MachineId(1), 10 + (i / 8 % 2) as u16, &i.to_le_bytes());
            if i % 24 == 23 {
                a.flush_to(MachineId(1));
            }
            if i == sent / 2 {
                while parked.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                fabric.kill(MachineId(1));
                gate.store(true, Ordering::SeqCst);
            }
        }
        a.flush();
        let total = wait_balanced(&fabric);
        assert_eq!(
            sent,
            total.delivered_frames + total.dropped_frames + total.refused_frames,
            "sent == delivered + dropped + refused: {total:?}"
        );
        assert!(total.dropped_frames > 0, "the kill found queued runs");
        assert!(total.refused_frames > 0, "sends after the kill are refused");
        assert_eq!(
            handled.load(Ordering::SeqCst) as u64,
            total.delivered_frames,
            "handlers saw exactly the frames the ledger says were delivered"
        );
        fabric.shutdown();
    }

    #[test]
    fn mixed_envelope_is_cut_into_runs_at_requests() {
        // `call` always ships its request alone, so a mixed envelope only
        // arises from a foreign sender; route one by hand. One-way frames
        // on either side of the request form separate runs, cut again at
        // the protocol change, and every frame is ledgered once.
        use crate::envelope::{Frame, FrameKind};
        let fabric = Fabric::new(FabricConfig {
            workers_per_machine: 1,
            ..quick_cfg(2)
        });
        let b = fabric.endpoint(MachineId(1));
        let runs = Arc::new(Mutex::new(Vec::new()));
        {
            let runs = Arc::clone(&runs);
            b.register_batch(10, move |_, frames| {
                let run: Vec<u8> = frames.iter().map(|f| f.payload[0]).collect();
                runs.lock().push(run);
            });
        }
        {
            let runs = Arc::clone(&runs);
            b.register(11, move |_, p| {
                runs.lock().push(vec![p[0]]);
                Some(p.to_vec())
            });
        }
        let frame = |proto, kind, tag: u8| Frame {
            proto,
            kind,
            payload: FrameBuf::from_vec(vec![tag]),
        };
        b.route_envelope(Envelope {
            src: MachineId(0),
            dst: MachineId(1),
            trace: 0,
            deadline: crate::NO_DEADLINE,
            frames: vec![
                frame(10, FrameKind::OneWay, 1),
                frame(10, FrameKind::OneWay, 2),
                frame(11, FrameKind::Request(77), 3),
                frame(10, FrameKind::OneWay, 4),
                frame(12, FrameKind::OneWay, 5), // no handler: dropped
                frame(11, FrameKind::OneWay, 6),
                frame(10, FrameKind::Response(99), 7), // orphan: dropped
                frame(10, FrameKind::OneWay, 8),
            ],
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while runs.lock().len() < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            &*runs.lock(),
            &[vec![1, 2], vec![3], vec![4], vec![6], vec![8]],
            "one worker: runs dispatch in envelope order"
        );
        let s = b.stats().snapshot();
        assert_eq!((s.delivered_frames, s.dropped_frames), (6, 2));
        fabric.shutdown();
    }

    #[test]
    fn chaos_crash_schedule_fires_on_envelope_count() {
        let fabric = Fabric::new(FabricConfig {
            faults: Some(
                FaultPlan::new(3)
                    .with_event(crate::Trigger::Envelopes(6), crate::NodeEvent::Crash(1)),
            ),
            ..quick_cfg(2)
        });
        fabric
            .endpoint(MachineId(1))
            .register(10, |_, p| Some(p.to_vec()));
        let a = fabric.endpoint(MachineId(0));
        // Each call is two remote envelopes (request + response): the
        // schedule fires mid-call 3, whose response may or may not beat
        // the flag; by call 4 the destination is dead for sure.
        let mut failed = None;
        for i in 0..10 {
            if let Err(e) = a.call(MachineId(1), 10, b"x") {
                failed = Some((i, e));
                break;
            }
        }
        let (i, e) = failed.expect("crash schedule never fired");
        assert!(i >= 2, "died before the trigger: call {i}");
        assert!(
            matches!(e, NetError::Unreachable(_) | NetError::Timeout(..)),
            "got {e:?}"
        );
        assert!(fabric.is_dead(MachineId(1)));
        let log = fabric.fault_log();
        assert_eq!(log.len(), 1);
        assert!(matches!(
            log.records[0].kind,
            crate::FaultKind::Crash(crate::Trigger::Envelopes(6))
        ));
        fabric.shutdown();
    }

    #[test]
    fn chaos_duplicate_delivers_oneways_twice() {
        let fabric = Fabric::new(FabricConfig {
            faults: Some(FaultPlan::new(11).with_duplicate(1.0)),
            ..quick_cfg(2)
        });
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = Arc::clone(&counter);
            fabric.endpoint(MachineId(1)).register(10, move |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        for i in 0..50u32 {
            a.send(MachineId(1), 10, &i.to_le_bytes());
            a.flush_to(MachineId(1));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 100 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100, "every envelope twice");
        let chaos = fabric.chaos().unwrap();
        assert_eq!(chaos.duplicated_frames(), 50);
        assert_eq!(fabric.fault_log().len(), 50);
        // Ledger: entered + duplicated == consumed.
        let total = fabric.total_stats();
        assert_eq!(
            total.entered_frames() + chaos.duplicated_frames(),
            total.consumed_frames()
        );
        fabric.shutdown();
    }

    #[test]
    fn per_pair_fifo_for_packed_sends() {
        let fabric = Fabric::new(FabricConfig {
            workers_per_machine: 1, // single worker => handler-order FIFO
            ..quick_cfg(2)
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            fabric.endpoint(MachineId(1)).register(10, move |_, p| {
                seen.lock().push(u32::from_le_bytes(p.try_into().unwrap()));
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        for i in 0..500u32 {
            a.send(MachineId(1), 10, &i.to_le_bytes());
            if i % 37 == 0 {
                a.flush_to(MachineId(1));
            }
        }
        a.flush();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().len() < 500 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = seen.lock();
        assert_eq!(
            &*seen,
            &(0..500).collect::<Vec<u32>>(),
            "packed delivery broke FIFO order"
        );
        fabric.shutdown();
    }
}
