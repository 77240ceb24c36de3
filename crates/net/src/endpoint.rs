//! A machine's attachment to the fabric.
//!
//! Each Trinity component (slave, proxy, or client) owns one [`Endpoint`].
//! The endpoint exposes the two communication paradigms the paper's TSL
//! protocols compile to:
//!
//! * [`Endpoint::call`] — synchronous one-sided request/response, and
//!   [`Endpoint::call_many`], a round of them issued together and awaited
//!   on the calling thread (`call` is `call_many` of one);
//! * [`Endpoint::send`] — asynchronous one-way messages, transparently
//!   packed per destination and shipped in bulk.
//!
//! One thread role services an endpoint: a pool of *worker* threads that
//! run the registered protocol handlers. The thread that delivers an
//! envelope routes it here ([`Endpoint::route_envelope`]): a response
//! frame completes its caller's pending slot on the spot — on the replying
//! thread, so a response can never be starved by busy handlers — while
//! request and one-way frames go onto the pool's work queue, the one queue
//! between the two machines. No handler ever runs on a sender's thread.
//! Handlers are allowed to issue further `call`s and `send`s — a slave
//! expanding a traversal frontier (§5.1) fetches straggler cells from
//! their owners exactly this way.
//!
//! The unit of one-way delivery is the *run*: the consecutive one-way
//! frames of one envelope reach the pool as one work item, so what was
//! packed per destination is also handled in bulk. A protocol registered
//! with [`Endpoint::register_batch`] sees a run's frames as one slice;
//! per-frame handlers ([`Endpoint::register`]) are looped over it, with
//! the run cut into one chunk per worker so handlers that block still
//! occupy the whole pool. See DESIGN.md §14 for the ordering contract.
//!
//! # The one-copy contract
//!
//! Every payload byte an endpoint ships is copied exactly once: into the
//! per-destination [`PackArena`] (or a pooled request buffer). From there
//! it travels as a [`FrameBuf`] shared slice — through the fault injector,
//! the work queue, the pending-call table, and into caches — without ever
//! being copied again. `net.frame_copy_bytes` counts the arena copies and
//! `net.frame_payload_bytes` counts the bytes that entered frames, so
//! their ratio is the contract's live audit (≤ 1.0; response payloads ship
//! zero-copy and pull it below 1). See DESIGN.md §14.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use trinity_obs::{current_trace, Counter, Histogram, MachineScope, TraceGuard, NO_TRACE};

use crate::cost::CostModel;
use crate::deadline::{current_deadline, deadline_now_us, DeadlineGuard, NO_DEADLINE};
use crate::envelope::{layout, Envelope, Frame, FrameKind};
use crate::error::NetError;
use crate::fabric::Router;
use crate::fault::ChaosState;
use crate::framebuf::{FrameBuf, FramePool, PackArena};
use crate::stats::NetStats;
use crate::{proto, MachineId, ProtoId, Result};

/// A protocol handler: receives the source machine and the request
/// payload; returns the response payload (ignored for one-way frames).
/// The payload slice borrows the received frame directly — no copy sits
/// between the wire and the handler.
type Handler = Arc<dyn Fn(MachineId, &[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// A batch handler for a one-way protocol: receives the source machine
/// and a run of the protocol's frames — consecutive in one envelope, in
/// envelope order — as one slice.
type BatchHandler = Arc<dyn Fn(MachineId, &[Frame]) + Send + Sync>;

#[derive(Clone)]
pub(crate) enum Registered {
    Frame(Handler),
    Batch(BatchHandler),
}

pub(crate) enum Work {
    /// Source machine, trace id and deadline carried by the envelope,
    /// request frame.
    Frame(MachineId, u64, u64, Frame),
    /// Source machine, trace id, deadline, a run of one-way frames of one
    /// protocol, and that protocol's handler.
    Run(MachineId, u64, u64, Vec<Frame>, Registered),
    Stop,
}

/// A request on the wire whose reply is still to be collected.
struct Issued {
    dst: MachineId,
    proto: ProtoId,
    corr: u64,
    rx: Receiver<Result<FrameBuf>>,
    /// The caller's deadline at issue ([`NO_DEADLINE`] when none).
    inherited: u64,
    /// When the slot gives up: the tighter of the timeout and `inherited`.
    effective: u64,
    start_us: u64,
    sent_bytes: u64,
}

struct PackBuf {
    arena: PackArena,
    /// Wire bytes buffered (payloads plus frame headers) — the packing
    /// threshold is a transfer-size bound, so it counts header overhead.
    wire_bytes: usize,
    /// Trace of the first frame buffered since the last flush: a packed
    /// envelope carries one trace id, and mixed-trace packs are attributed
    /// to the query that opened the pack.
    trace: u64,
    /// Tightest deadline among the buffered frames: a packed envelope
    /// carries one deadline, and under-reporting a budget is safe
    /// (handlers merely re-check a little early) while over-reporting
    /// would let expired work through.
    deadline: u64,
}

impl Default for PackBuf {
    fn default() -> Self {
        PackBuf {
            arena: PackArena::new(),
            wire_bytes: 0,
            trace: NO_TRACE,
            deadline: crate::NO_DEADLINE,
        }
    }
}

/// Cached metric handles for the fabric hot path — resolved once at
/// endpoint construction so recording never performs a name lookup.
struct NetMetrics {
    env_recv: Arc<Counter>,
    frames_recv: Arc<Counter>,
    bytes_recv: Arc<Counter>,
    /// Requests refused (or calls aborted) because the query's deadline
    /// budget was exhausted.
    deadline_expired: Arc<Counter>,
    /// Modeled network microseconds charged by the cost model for this
    /// machine's outbound transfers.
    modeled_tx_us: Arc<Counter>,
    /// Payload bytes memcpy'd on this machine's send paths — a *true* copy
    /// count: every path (`call`, `send`, `send_slices`)
    /// records its arena copy here and nothing else counts. Dividing by
    /// [`Self::frame_payload_bytes`] gives copies-per-payload-byte, which
    /// the zero-copy wire path holds at ≤ 1.0.
    frame_copy_bytes: Arc<Counter>,
    /// Payload bytes that entered outbound frames (local and remote) —
    /// the denominator of the copy ratio.
    frame_payload_bytes: Arc<Counter>,
    /// Wire bytes per outbound remote envelope.
    env_bytes: Arc<Histogram>,
    /// Frames per outbound remote envelope (the packing factor, as a
    /// distribution rather than an average).
    env_frames: Arc<Histogram>,
    /// Synchronous call round-trip latency, microseconds.
    call_us: Arc<Histogram>,
    /// Handler execution time, microseconds: one sample per request and
    /// per same-protocol stretch of a one-way run.
    handler_us: Arc<Histogram>,
}

impl NetMetrics {
    fn new(obs: &MachineScope) -> Self {
        NetMetrics {
            env_recv: obs.counter("net.env.recv"),
            frames_recv: obs.counter("net.frames.recv"),
            bytes_recv: obs.counter("net.bytes.recv"),
            deadline_expired: obs.counter("net.deadline.expired"),
            modeled_tx_us: obs.counter("net.modeled_tx_us"),
            frame_copy_bytes: obs.counter("net.frame_copy_bytes"),
            frame_payload_bytes: obs.counter("net.frame_payload_bytes"),
            env_bytes: obs.histogram("net.env.bytes"),
            env_frames: obs.histogram("net.env.frames"),
            call_us: obs.histogram("net.call.us"),
            handler_us: obs.histogram("net.handler.us"),
        }
    }
}

/// One machine's attachment to the [`crate::Fabric`].
pub struct Endpoint {
    machine: MachineId,
    router: Arc<Router>,
    handlers: RwLock<HashMap<ProtoId, Registered>>,
    pending: Mutex<HashMap<u64, Sender<Result<FrameBuf>>>>,
    corr: AtomicU64,
    pack_bufs: Vec<Mutex<PackBuf>>,
    pack_threshold: usize,
    call_timeout: Duration,
    work_tx: Sender<Work>,
    /// Size of the worker pool behind `work_tx`.
    workers: usize,
    stats: NetStats,
    cost: CostModel,
    obs: MachineScope,
    metrics: NetMetrics,
    /// Arena recycler shared by every send path on this endpoint.
    pool: FramePool,
    /// Fault injector shared with the fabric; `None` outside chaos runs.
    chaos: Option<Arc<ChaosState>>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("machine", &self.machine)
            .finish()
    }
}

impl Endpoint {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        machine: MachineId,
        router: Arc<Router>,
        machines: usize,
        pack_threshold: usize,
        call_timeout: Duration,
        work_tx: Sender<Work>,
        workers: usize,
        cost: CostModel,
        obs: MachineScope,
        chaos: Option<Arc<ChaosState>>,
    ) -> Arc<Self> {
        let metrics = NetMetrics::new(&obs);
        let ep = Arc::new(Endpoint {
            machine,
            router,
            handlers: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            corr: AtomicU64::new(1),
            pack_bufs: (0..machines)
                .map(|_| Mutex::new(PackBuf::default()))
                .collect(),
            pack_threshold,
            call_timeout,
            work_tx,
            workers,
            stats: NetStats::new(&obs),
            cost,
            obs,
            metrics,
            pool: FramePool::new(),
            chaos,
        });
        // Liveness probe, answered for the recovery leader's probe loop.
        ep.register(proto::PING, |_src, _p| Some(Vec::new()));
        ep
    }

    /// This endpoint's machine id.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Number of machines on the fabric.
    fn machine_count(&self) -> usize {
        self.pack_bufs.len()
    }

    /// Register (or replace) the handler for a protocol. The TSL compiler
    /// generates one registration per `protocol` block; the handler body is
    /// the user's algorithm logic, written "as if implementing a local
    /// method" (paper §4.2).
    pub fn register<F>(&self, proto: ProtoId, handler: F)
    where
        F: Fn(MachineId, &[u8]) -> Option<Vec<u8>> + Send + Sync + 'static,
    {
        self.handlers
            .write()
            .insert(proto, Registered::Frame(Arc::new(handler)));
    }

    /// Register (or replace) a batch handler for a one-way protocol: it
    /// is called once per run with every frame of the run, in envelope
    /// order, instead of once per frame. For protocols whose per-message
    /// work is small next to a lock or a wake-up (BSP vertex messages). A
    /// batch handler never blocks the run's other frames from spreading,
    /// so it must not block; requests to the protocol get `NoHandler`.
    pub fn register_batch<F>(&self, proto: ProtoId, handler: F)
    where
        F: Fn(MachineId, &[Frame]) + Send + Sync + 'static,
    {
        self.handlers
            .write()
            .insert(proto, Registered::Batch(Arc::new(handler)));
    }

    /// Copy `payload` once into a pooled buffer and wrap it as a frame
    /// payload — the single counted copy of every send path.
    fn pooled_payload(&self, payload: &[u8]) -> FrameBuf {
        self.metrics.frame_copy_bytes.add(payload.len() as u64);
        let mut buf = self.pool.take();
        buf.extend_from_slice(payload);
        self.pool.seal(buf)
    }

    /// Synchronous one-sided call: send `payload` to `dst` and block for
    /// the response, bounded by the fabric-wide call timeout. Delegates to
    /// [`Endpoint::call_with_deadline`].
    ///
    /// The reply is a [`FrameBuf`] view of the response frame — it derefs
    /// to `&[u8]` and converts to an owned vector (zero-copy when unique)
    /// via [`FrameBuf::into_vec`].
    pub fn call(&self, dst: MachineId, proto: ProtoId, payload: &[u8]) -> Result<FrameBuf> {
        self.call_with_deadline(dst, proto, payload, self.call_timeout)
    }

    /// Synchronous one-sided call with a per-call timeout. The effective
    /// budget is the *tighter* of `timeout` and the thread's inherited
    /// deadline (see [`crate::DeadlineGuard`]); it is stamped into the
    /// envelope so the callee can refuse work that is already doomed, and
    /// exhausting an inherited deadline surfaces as
    /// [`NetError::DeadlineExceeded`] rather than a liveness timeout.
    /// It is [`Endpoint::call_many`] of one request.
    pub fn call_with_deadline(
        &self,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<FrameBuf> {
        self.issue(dst, proto, payload, timeout)
            .and_then(|slot| self.complete(slot))
    }

    /// One fan-out round on the calling thread: every request goes on the
    /// wire first, then each reply is collected, and the results come back
    /// in input order. Each request is a [`Endpoint::call`] of its own —
    /// its own pending slot, FIFO flush, stamped deadline and error — and
    /// waits against its own absolute deadline, so a peer that never
    /// answers costs one call timeout for the whole round, not one per
    /// request. No thread is spawned.
    pub fn call_many(&self, requests: &[(MachineId, ProtoId, &[u8])]) -> Vec<Result<FrameBuf>> {
        self.call_many_while(requests, || ()).0
    }

    /// [`Endpoint::call_many`] with the caller's own work in the middle:
    /// every request goes on the wire, `meanwhile` runs on the calling
    /// thread while the peers work, then the replies are collected.
    pub fn call_many_while<T>(
        &self,
        requests: &[(MachineId, ProtoId, &[u8])],
        meanwhile: impl FnOnce() -> T,
    ) -> (Vec<Result<FrameBuf>>, T) {
        let issued: Vec<Result<Issued>> = requests
            .iter()
            .map(|&(dst, proto, payload)| self.issue(dst, proto, payload, self.call_timeout))
            .collect();
        let own = meanwhile();
        let replies = issued
            .into_iter()
            .map(|slot| slot.and_then(|slot| self.complete(slot)))
            .collect();
        (replies, own)
    }

    /// The sending half of a call: open its pending slot and ship the
    /// request.
    fn issue(
        &self,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<Issued> {
        if self.router.is_closed() {
            return Err(NetError::Closed);
        }
        if self.router.is_dead(dst) {
            return Err(NetError::Unreachable(dst));
        }
        let inherited = current_deadline();
        let now = deadline_now_us();
        if inherited != NO_DEADLINE && now >= inherited {
            // The query's budget is already spent: don't even transmit.
            self.metrics.deadline_expired.inc();
            return Err(NetError::DeadlineExceeded(dst, proto));
        }
        let effective = inherited.min(now.saturating_add(timeout.as_micros() as u64));
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(corr, tx);
        // Preserve per-destination FIFO with previously buffered one-ways.
        self.flush_to(dst);
        let start_us = self.obs.now_us();
        let env = Envelope {
            src: self.machine,
            dst,
            trace: current_trace(),
            deadline: effective,
            frames: vec![Frame {
                proto,
                kind: FrameKind::Request(corr),
                payload: self.pooled_payload(payload),
            }],
        };
        let sent_bytes = env.wire_bytes();
        // `transmit` re-checks `closed` after the insert above: a shutdown
        // either drains this slot or the call returns `Closed` right here.
        if let Err(e) = self.transmit(env) {
            self.pending.lock().remove(&corr);
            return Err(e);
        }
        Ok(Issued {
            dst,
            proto,
            corr,
            rx,
            inherited,
            effective,
            start_us,
            sent_bytes,
        })
    }

    /// The waiting half of a call: block until the reply fills the slot
    /// or the slot's absolute deadline passes.
    fn complete(&self, slot: Issued) -> Result<FrameBuf> {
        let (dst, proto) = (slot.dst, slot.proto);
        let wait = Duration::from_micros(slot.effective.saturating_sub(deadline_now_us()));
        let result = match slot.rx.recv_timeout(wait) {
            Ok(result) => result,
            Err(_) => {
                self.pending.lock().remove(&slot.corr);
                // Classify the inherited deadline FIRST: a call that
                // expired while its peer was dying is a spent budget, not
                // a liveness failure — reporting `Unreachable` here would
                // skip the `deadline_expired` metric and invite callers to
                // retry a query whose budget is already gone.
                if slot.inherited != NO_DEADLINE && deadline_now_us() >= slot.inherited {
                    self.metrics.deadline_expired.inc();
                    Err(NetError::DeadlineExceeded(dst, proto))
                } else if self.router.is_dead(dst) {
                    Err(NetError::Unreachable(dst))
                } else {
                    Err(NetError::Timeout(dst, proto))
                }
            }
        };
        self.metrics
            .call_us
            .record(self.obs.now_us().saturating_sub(slot.start_us));
        self.obs
            .span("net.call", proto, slot.sent_bytes, 1, slot.start_us);
        result
    }

    /// Asynchronous one-way message. Messages to remote machines are
    /// buffered per destination and shipped when the buffer exceeds the
    /// packing threshold (or on [`Endpoint::flush`]); machine-local
    /// messages are delivered immediately.
    pub fn send(&self, dst: MachineId, proto: ProtoId, payload: &[u8]) {
        let trace = current_trace();
        let deadline = current_deadline();
        if dst == self.machine {
            let frame = Frame {
                proto,
                kind: FrameKind::OneWay,
                payload: self.pooled_payload(payload),
            };
            let _ = self.transmit(Envelope {
                src: self.machine,
                dst,
                trace,
                deadline,
                frames: vec![frame],
            });
            return;
        }
        let mut buf = self.pack_bufs[dst.0 as usize].lock();
        self.buffer_frame(&mut buf, dst, proto, payload, trace, deadline);
    }

    /// Batched one-way messages from one flat buffer: `bounds[i-1]..bounds[i]`
    /// (starting at 0) delimits the i-th payload within `data`. The
    /// allocation-free flush path for producers (BSP outboxes) that encode
    /// messages back-to-back into a reusable buffer — the bytes go
    /// straight from `data` into the pack arena, one copy, no per-message
    /// vectors anywhere.
    pub fn send_slices(&self, dst: MachineId, proto: ProtoId, data: &[u8], bounds: &[usize]) {
        if dst == self.machine {
            let mut start = 0;
            for &end in bounds {
                self.send(dst, proto, &data[start..end]);
                start = end;
            }
            return;
        }
        let trace = current_trace();
        let deadline = current_deadline();
        let mut buf = self.pack_bufs[dst.0 as usize].lock();
        let mut start = 0;
        for &end in bounds {
            self.buffer_frame(&mut buf, dst, proto, &data[start..end], trace, deadline);
            start = end;
        }
    }

    /// Append one one-way frame to a locked pack buffer (the single
    /// counted payload copy), transmitting at the packing threshold while
    /// the lock is held so envelopes to `dst` stay in FIFO order.
    fn buffer_frame(
        &self,
        buf: &mut PackBuf,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
        trace: u64,
        deadline: u64,
    ) {
        if buf.arena.is_empty() {
            buf.trace = trace;
        }
        buf.deadline = buf.deadline.min(deadline);
        let copied = buf.arena.push(proto, FrameKind::OneWay, payload);
        self.metrics.frame_copy_bytes.add(copied as u64);
        buf.wire_bytes += copied + layout::FRAME_HEADER_BYTES as usize;
        if buf.wire_bytes >= self.pack_threshold {
            let frames = buf.arena.seal(&self.pool);
            buf.wire_bytes = 0;
            let trace = std::mem::replace(&mut buf.trace, NO_TRACE);
            let deadline = std::mem::replace(&mut buf.deadline, NO_DEADLINE);
            let _ = self.transmit(Envelope {
                src: self.machine,
                dst,
                trace,
                deadline,
                frames,
            });
        }
    }

    /// One-way message to every other machine (flushed immediately).
    pub fn broadcast(&self, proto: ProtoId, payload: &[u8]) {
        for m in 0..self.machine_count() as u16 {
            let dst = MachineId(m);
            if dst != self.machine {
                self.send(dst, proto, payload);
                self.flush_to(dst);
            }
        }
    }

    /// Ship any buffered one-way frames bound for `dst`.
    pub fn flush_to(&self, dst: MachineId) {
        if dst == self.machine {
            return;
        }
        let mut buf = self.pack_bufs[dst.0 as usize].lock();
        if buf.arena.is_empty() {
            return;
        }
        let frames = buf.arena.seal(&self.pool);
        buf.wire_bytes = 0;
        let trace = std::mem::replace(&mut buf.trace, NO_TRACE);
        let deadline = std::mem::replace(&mut buf.deadline, NO_DEADLINE);
        // Transmit while holding the buffer lock so envelopes from this
        // endpoint to `dst` enter its work queue in flush order.
        let _ = self.transmit(Envelope {
            src: self.machine,
            dst,
            trace,
            deadline,
            frames,
        });
    }

    /// Ship all buffered one-way frames.
    pub fn flush(&self) {
        for m in 0..self.machine_count() as u16 {
            self.flush_to(MachineId(m));
        }
    }

    /// Traffic counters for this endpoint.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// This machine's observability scope — the channel through which the
    /// memory cloud and runtime layers publish their metrics and spans.
    pub fn obs(&self) -> &MachineScope {
        &self.obs
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn transmit(&self, mut env: Envelope) -> Result<()> {
        if self.router.is_closed() {
            return Err(NetError::Closed);
        }
        let frames = env.frames.len() as u64;
        if self.router.is_dead(env.dst) {
            // Refused at the send site: the frames never enter the fabric,
            // so they are ledgered apart from in-flight drops.
            self.stats.record_refused(frames);
            return Err(NetError::Unreachable(env.dst));
        }
        // Payload bytes entering frames — denominator of the copy ratio.
        self.metrics.frame_payload_bytes.add(env.payload_bytes());
        if env.dst == env.src {
            self.stats.record_local(frames);
        } else {
            let bytes = env.wire_bytes();
            self.stats.record_remote(frames, bytes);
            self.metrics.env_bytes.record(bytes);
            self.metrics.env_frames.record(frames);
            // Charge the cost model as the transfer happens, so modeled
            // network time is observable per machine, not just per window.
            let modeled_us = (self.cost.seconds(1, bytes) * 1e6) as u64;
            self.metrics.modeled_tx_us.add(modeled_us);
            // The transfer itself consumes budget: tighten the deadline by
            // the modeled wire time so a query's budget accounts for
            // network cost, not just compute.
            if env.deadline != NO_DEADLINE {
                env.deadline = env.deadline.saturating_sub(modeled_us);
            }
            self.obs.span_for(
                env.trace,
                "net.send",
                0,
                bytes,
                frames as u32,
                self.obs.now_us(),
            );
            // Remote envelopes route through the fault injector when one
            // is installed; machine-local loopback cannot fail.
            if let Some(chaos) = &self.chaos {
                return chaos.transmit(env);
            }
        }
        self.router.deliver(env)
    }

    /// Route one inbound envelope, on the thread that delivers it: responses
    /// into their callers' slots, everything else onto the work queue.
    pub(crate) fn route_envelope(&self, env: Envelope) {
        if self.router.is_dead(self.machine) {
            // A dead machine processes nothing, but the frames must still
            // be consumed from the ledger: they entered the fabric and
            // die here, at its door.
            self.stats.record_dropped(env.frames.len() as u64);
            return;
        }
        if env.src != self.machine {
            self.metrics.env_recv.inc();
            self.metrics.frames_recv.add(env.frames.len() as u64);
            self.metrics.bytes_recv.add(env.wire_bytes());
            self.obs.span_for(
                env.trace,
                "net.deliver",
                0,
                env.wire_bytes(),
                env.frames.len() as u32,
                self.obs.now_us(),
            );
        }
        // The common packed envelope is all one-way: its frame vector
        // goes to the pool as it is.
        if env.frames.iter().all(|f| f.kind == FrameKind::OneWay) {
            self.queue_run(env.src, env.trace, env.deadline, env.frames);
            return;
        }
        let mut run = Vec::new();
        for frame in env.frames {
            let corr = match frame.kind {
                FrameKind::OneWay => {
                    run.push(frame);
                    continue;
                }
                FrameKind::Request(_) => {
                    self.queue_run(env.src, env.trace, env.deadline, std::mem::take(&mut run));
                    let _ = self
                        .work_tx
                        .send(Work::Frame(env.src, env.trace, env.deadline, frame));
                    continue;
                }
                FrameKind::Response(corr)
                | FrameKind::NoHandler(corr)
                | FrameKind::Expired(corr) => corr,
            };
            match self.pending.lock().remove(&corr) {
                Some(tx) => {
                    self.stats.record_delivered(1);
                    let _ = tx.send(match frame.kind {
                        // The payload moves into the caller's hands as
                        // the same shared slice that crossed the wire.
                        FrameKind::Response(_) => Ok(frame.payload),
                        FrameKind::NoHandler(_) => Err(NetError::NoHandler(frame.proto)),
                        _ => Err(NetError::DeadlineExceeded(env.src, frame.proto)),
                    });
                }
                // An orphan response: its call already completed (timed
                // out, or this is a duplicate delivery).
                None => self.stats.record_dropped(1),
            }
        }
        self.queue_run(env.src, env.trace, env.deadline, run);
    }

    /// Queue a run of one-way frames for the worker pool, one work item
    /// per same-protocol stretch with its handler resolved here. A batch
    /// handler takes its stretch whole — the common one-protocol envelope
    /// forwards its frame vector as it is. Per-frame handlers may block
    /// (nested calls), so their stretch is cut into one chunk per worker,
    /// queued in envelope order: a run of blocking frames occupies the
    /// pool the way single frames did, and with one worker nothing is cut
    /// and handler order stays FIFO per (src, dst).
    fn queue_run(&self, src: MachineId, trace: u64, deadline: u64, mut frames: Vec<Frame>) {
        while !frames.is_empty() {
            let proto = frames[0].proto;
            let n = frames.iter().take_while(|f| f.proto == proto).count();
            let Some(handler) = self.handlers.read().get(&proto).cloned() else {
                self.stats.record_dropped(n as u64);
                frames.drain(..n);
                continue;
            };
            let chunk = match handler {
                Registered::Batch(_) => n,
                Registered::Frame(_) => n.div_ceil(self.workers),
            };
            let mut left = n;
            while left > 0 {
                let rest = frames.split_off(chunk.min(left));
                left -= frames.len();
                let run = std::mem::replace(&mut frames, rest);
                let _ = self
                    .work_tx
                    .send(Work::Run(src, trace, deadline, run, handler.clone()));
            }
        }
    }

    /// Worker-thread entry: dispatch a run of one-way frames of one
    /// protocol. The envelope's trace id and deadline are installed on
    /// the worker thread for the duration of the handler, so spans it
    /// records — and any nested `call`/`send` it issues — stay attributed
    /// to the originating query and bounded by its remaining budget. This
    /// is how a trace (and a budget) follows the recursive fan-out of the
    /// paper's traversal queries across machines.
    ///
    /// The guards, the clock, `net.handler.us` and the `net.dispatch`
    /// span are paid once per run, not per frame; the ledger still counts
    /// every frame, and a machine killed mid-run handles no further frame
    /// of it. One-way frames dispatch even past
    /// their deadline: BSP run frames and fences rely on every message
    /// being counted, and their handlers check the deadline themselves.
    pub(crate) fn dispatch_run(
        &self,
        src: MachineId,
        trace: u64,
        deadline: u64,
        frames: Vec<Frame>,
        handler: Registered,
    ) {
        let _guard = TraceGuard::enter(trace);
        let _deadline_guard = DeadlineGuard::enter(deadline);
        let start_us = self.obs.now_us();
        let handled = match handler {
            Registered::Batch(_) if self.router.is_dead(self.machine) => 0,
            Registered::Batch(h) => {
                h(src, &frames);
                frames.len()
            }
            // A machine killed mid-run stops at the next frame.
            Registered::Frame(h) => frames
                .iter()
                .take_while(|f| {
                    let alive = !self.router.is_dead(self.machine);
                    if alive {
                        h(src, &f.payload);
                    }
                    alive
                })
                .count(),
        };
        self.stats.record_dropped((frames.len() - handled) as u64);
        if handled > 0 {
            self.stats.record_delivered(handled as u64);
            self.metrics
                .handler_us
                .record(self.obs.now_us().saturating_sub(start_us));
            if trace != NO_TRACE {
                let bytes = frames[..handled].iter().map(|f| f.payload.len() as u64);
                self.obs.span_for(
                    trace,
                    "net.dispatch",
                    frames[0].proto,
                    bytes.sum(),
                    handled as u32,
                    start_us,
                );
            }
        }
    }

    /// Worker-thread entry: dispatch one request frame, under the
    /// envelope's trace id and deadline like [`Self::dispatch_run`]. A
    /// request whose deadline has already passed is refused without
    /// running the handler — the caller has given up, so the answer would
    /// be wasted CPU.
    pub(crate) fn dispatch_request(&self, src: MachineId, trace: u64, deadline: u64, frame: Frame) {
        let FrameKind::Request(corr) = frame.kind else {
            unreachable!("only requests are queued frame by frame")
        };
        if self.router.is_dead(self.machine) {
            self.stats.record_dropped(1);
            return;
        }
        let _guard = TraceGuard::enter(trace);
        let _deadline_guard = DeadlineGuard::enter(deadline);
        let start_us = self.obs.now_us();
        let handler = self.handlers.read().get(&frame.proto).cloned();
        let (kind, payload) = if deadline != NO_DEADLINE && deadline_now_us() >= deadline {
            self.metrics.deadline_expired.inc();
            (FrameKind::Expired(corr), FrameBuf::new())
        } else if let Some(Registered::Frame(h)) = handler {
            let payload = h(src, &frame.payload).unwrap_or_default();
            self.metrics
                .handler_us
                .record(self.obs.now_us().saturating_sub(start_us));
            let sent = frame.payload.len() as u64;
            self.obs
                .span("net.dispatch", frame.proto, sent, 1, start_us);
            // The handler's buffer *is* the wire payload: adopted, never
            // copied.
            (FrameKind::Response(corr), FrameBuf::from_vec(payload))
        } else {
            (FrameKind::NoHandler(corr), FrameBuf::new())
        };
        let _ = self.transmit(Envelope {
            src: self.machine,
            dst: src,
            trace,
            deadline,
            frames: vec![Frame {
                proto: frame.proto,
                kind,
                payload,
            }],
        });
        // The request leaves the ledger only once its reply is in it, so
        // a balanced ledger means no reply is still to be born — what a
        // chaos run waits for before it snapshots its fault log.
        self.stats.record_delivered(1);
    }

    /// Fabric shutdown, once marked closed: workers stop after what is
    /// already queued, and pending calls fail with [`NetError::Closed`].
    pub(crate) fn stop(&self) {
        for _ in 0..self.workers {
            let _ = self.work_tx.send(Work::Stop);
        }
        for (_, tx) in self.pending.lock().drain() {
            let _ = tx.send(Err(NetError::Closed));
        }
    }
}

pub(crate) fn worker_loop(ep: Arc<Endpoint>, rx: Receiver<Work>) {
    while let Ok(work) = rx.recv() {
        match work {
            Work::Frame(src, trace, deadline, frame) => {
                ep.dispatch_request(src, trace, deadline, frame)
            }
            Work::Run(src, trace, deadline, frames, handler) => {
                ep.dispatch_run(src, trace, deadline, frames, handler)
            }
            Work::Stop => break,
        }
    }
}
