//! A machine's attachment to the fabric.
//!
//! Each Trinity component (slave, proxy, or client) owns one [`Endpoint`].
//! The endpoint exposes the two communication paradigms the paper's TSL
//! protocols compile to:
//!
//! * [`Endpoint::call`] — synchronous one-sided request/response;
//! * [`Endpoint::send`] — asynchronous one-way messages, transparently
//!   packed per destination and shipped in bulk.
//!
//! Two thread roles service an endpoint. A *receiver* thread drains the
//! machine's inbox: response frames are completed directly (so a response
//! can never be starved by busy handlers), while request and one-way
//! frames are queued to a pool of *worker* threads that run the registered
//! protocol handlers. Handlers are allowed to issue further `call`s and
//! `send`s — a slave expanding a traversal frontier (§5.1) fetches
//! straggler cells from their owners exactly this way.
//!
//! # The one-copy contract
//!
//! Every payload byte an endpoint ships is copied exactly once: into the
//! per-destination [`PackArena`] (or a pooled request buffer). From there
//! it travels as a [`FrameBuf`] shared slice — through the fault injector,
//! the receiver, the pending-call table, and into caches — without ever
//! being copied again. `net.frame_copy_bytes` counts the arena copies and
//! `net.frame_payload_bytes` counts the bytes that entered frames, so
//! their ratio is the contract's live audit (≤ 1.0; response payloads ship
//! zero-copy and pull it below 1). See DESIGN.md §14.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender};
use parking_lot::{Mutex, RwLock};
use trinity_obs::{current_trace, Counter, Histogram, MachineScope, TraceGuard, NO_TRACE};

use crate::cost::CostModel;
use crate::deadline::{current_deadline, deadline_now_us, DeadlineGuard, NO_DEADLINE};
use crate::envelope::{layout, Envelope, Frame, FrameKind};
use crate::error::NetError;
use crate::fabric::{Item, Router};
use crate::fault::ChaosState;
use crate::framebuf::{FrameBuf, FramePool, PackArena};
use crate::stats::NetStats;
use crate::{proto, MachineId, ProtoId, Result};

/// A protocol handler: receives the source machine and the request
/// payload; returns the response payload (ignored for one-way frames).
/// The payload slice borrows the received frame directly — no copy sits
/// between the wire and the handler.
pub type Handler = Arc<dyn Fn(MachineId, &[u8]) -> Option<Vec<u8>> + Send + Sync>;

pub(crate) enum Work {
    /// Source machine, trace id and deadline carried by the envelope,
    /// frame.
    Frame(MachineId, u64, u64, Frame),
    Stop,
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
    env_sent: Arc<Counter>,
    frames_sent: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    env_recv: Arc<Counter>,
    frames_recv: Arc<Counter>,
    bytes_recv: Arc<Counter>,
    frames_local: Arc<Counter>,
    frames_delivered: Arc<Counter>,
    frames_dropped: Arc<Counter>,
    frames_refused: Arc<Counter>,
    /// Requests refused (or calls aborted) because the query's deadline
    /// budget was exhausted.
    deadline_expired: Arc<Counter>,
    /// Modeled network microseconds charged by the cost model for this
    /// machine's outbound transfers.
    modeled_tx_us: Arc<Counter>,
    /// Payload bytes memcpy'd on this machine's send paths — a *true* copy
    /// count: every path (`call`, `send`, `send_batch`, `send_slices`)
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
    /// Handler execution time, microseconds.
    handler_us: Arc<Histogram>,
}

impl NetMetrics {
    fn new(obs: &MachineScope) -> Self {
        NetMetrics {
            env_sent: obs.counter("net.env.sent"),
            frames_sent: obs.counter("net.frames.sent"),
            bytes_sent: obs.counter("net.bytes.sent"),
            env_recv: obs.counter("net.env.recv"),
            frames_recv: obs.counter("net.frames.recv"),
            bytes_recv: obs.counter("net.bytes.recv"),
            frames_local: obs.counter("net.frames.local"),
            frames_delivered: obs.counter("net.frames.delivered"),
            frames_dropped: obs.counter("net.frames.dropped"),
            frames_refused: obs.counter("net.frames.refused"),
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
    handlers: RwLock<HashMap<ProtoId, Handler>>,
    pending: Mutex<HashMap<u64, Sender<Result<FrameBuf>>>>,
    corr: AtomicU64,
    pack_bufs: Vec<Mutex<PackBuf>>,
    pack_threshold: usize,
    call_timeout: Duration,
    pub(crate) work_tx: Sender<Work>,
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
            stats: NetStats::default(),
            cost,
            obs,
            metrics,
            pool: FramePool::new(),
            chaos,
        });
        // Liveness probe for the heartbeat monitor.
        ep.register(proto::PING, |_src, _p| Some(Vec::new()));
        ep
    }

    /// This endpoint's machine id.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Number of machines on the fabric.
    pub fn machine_count(&self) -> usize {
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
        self.handlers.write().insert(proto, Arc::new(handler));
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
    pub fn call_with_deadline(
        &self,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<FrameBuf> {
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
        let timeout_abs = now.saturating_add(timeout.as_micros() as u64);
        let effective = inherited.min(timeout_abs);
        let wait = Duration::from_micros(effective - now);
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
        if let Err(e) = self.transmit(env) {
            self.pending.lock().remove(&corr);
            return Err(e);
        }
        let result = match rx.recv_timeout(wait) {
            Ok(result) => result,
            Err(_) => {
                self.pending.lock().remove(&corr);
                // Classify the inherited deadline FIRST: a call that
                // expired while its peer was dying is a spent budget, not
                // a liveness failure — reporting `Unreachable` here would
                // skip the `deadline_expired` metric and invite callers to
                // retry a query whose budget is already gone.
                if inherited != NO_DEADLINE && deadline_now_us() >= inherited {
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
            .record(self.obs.now_us().saturating_sub(start_us));
        self.obs.span("net.call", proto, sent_bytes, 1, start_us);
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

    /// Batched one-way messages: append `payloads` (drained) to `dst`'s
    /// pack buffer under a single lock acquisition, shipping full
    /// envelopes at the packing threshold along the way. Semantically
    /// identical to calling [`Endpoint::send`] once per payload, but a
    /// concurrent sender (a BSP compute worker flushing its outbox)
    /// contends on the per-destination lock once per batch instead of
    /// once per message, and per-destination FIFO order within the batch
    /// is preserved because threshold flushes happen while the lock is
    /// held.
    pub fn send_batch(&self, dst: MachineId, proto: ProtoId, payloads: &mut Vec<Vec<u8>>) {
        if dst == self.machine {
            for payload in payloads.drain(..) {
                self.send(dst, proto, &payload);
            }
            return;
        }
        let trace = current_trace();
        let deadline = current_deadline();
        let mut buf = self.pack_bufs[dst.0 as usize].lock();
        for payload in payloads.drain(..) {
            self.buffer_frame(&mut buf, dst, proto, &payload, trace, deadline);
        }
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
        // endpoint to `dst` enter the inbox in flush order.
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
            self.metrics.frames_refused.add(frames);
            return Err(NetError::Unreachable(env.dst));
        }
        // Payload bytes entering frames — denominator of the copy ratio.
        self.metrics.frame_payload_bytes.add(env.payload_bytes());
        if env.dst == env.src {
            self.stats.record_local(frames);
            self.metrics.frames_local.add(frames);
        } else {
            let bytes = env.wire_bytes();
            self.stats.record_remote(frames, bytes);
            self.metrics.env_sent.inc();
            self.metrics.frames_sent.add(frames);
            self.metrics.bytes_sent.add(bytes);
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

    /// Receiver-thread entry: route one inbound envelope.
    pub(crate) fn route_envelope(&self, env: Envelope) {
        if self.router.is_dead(self.machine) {
            // A dead machine processes nothing, but the frames must still
            // be consumed from the ledger: they entered the fabric and
            // die here, in its inbox.
            let frames = env.frames.len() as u64;
            self.stats.record_dropped(frames);
            self.metrics.frames_dropped.add(frames);
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
        for frame in env.frames {
            match frame.kind {
                FrameKind::Response(corr) => {
                    match self.pending.lock().remove(&corr) {
                        Some(tx) => {
                            self.count_delivered(1);
                            // The payload moves into the caller's hands as
                            // the same shared slice that crossed the wire.
                            let _ = tx.send(Ok(frame.payload));
                        }
                        // An orphan response: its call already completed
                        // (timed out, or this is a duplicate delivery).
                        None => self.count_dropped(1),
                    }
                }
                FrameKind::NoHandler(corr) => match self.pending.lock().remove(&corr) {
                    Some(tx) => {
                        self.count_delivered(1);
                        let _ = tx.send(Err(NetError::NoHandler(frame.proto)));
                    }
                    None => self.count_dropped(1),
                },
                FrameKind::Expired(corr) => match self.pending.lock().remove(&corr) {
                    Some(tx) => {
                        self.count_delivered(1);
                        let _ = tx.send(Err(NetError::DeadlineExceeded(env.src, frame.proto)));
                    }
                    None => self.count_dropped(1),
                },
                FrameKind::Request(_) | FrameKind::OneWay => {
                    let _ = self
                        .work_tx
                        .send(Work::Frame(env.src, env.trace, env.deadline, frame));
                }
            }
        }
    }

    /// Worker-thread entry: dispatch one request or one-way frame. The
    /// envelope's trace id and deadline are installed on the worker thread
    /// for the duration of the handler, so spans the handler records — and
    /// any nested `call`/`send` it issues — stay attributed to the
    /// originating query and bounded by its remaining budget. This is how
    /// a trace (and a budget) follows the recursive fan-out of the paper's
    /// traversal queries across machines.
    ///
    /// A *request* whose deadline has already passed is refused without
    /// running the handler — the caller has given up, so the answer would
    /// be wasted CPU. *One-way* frames always dispatch: asynchronous
    /// protocols (BSP fences, Safra tokens) rely on every message
    /// being counted, and their handlers check the deadline themselves.
    pub(crate) fn dispatch(&self, src: MachineId, trace: u64, deadline: u64, frame: Frame) {
        if self.router.is_dead(self.machine) {
            self.count_dropped(1);
            return;
        }
        let _guard = TraceGuard::enter(trace);
        let _deadline_guard = DeadlineGuard::enter(deadline);
        if deadline != NO_DEADLINE && deadline_now_us() >= deadline {
            if let FrameKind::Request(corr) = frame.kind {
                self.count_delivered(1);
                self.metrics.deadline_expired.inc();
                let _ = self.transmit(Envelope {
                    src: self.machine,
                    dst: src,
                    trace,
                    deadline,
                    frames: vec![Frame {
                        proto: frame.proto,
                        kind: FrameKind::Expired(corr),
                        payload: FrameBuf::new(),
                    }],
                });
                return;
            }
        }
        let start_us = self.obs.now_us();
        let proto = frame.proto;
        let payload_len = frame.payload.len() as u64;
        let handler = self.handlers.read().get(&frame.proto).cloned();
        match frame.kind {
            FrameKind::OneWay => {
                if let Some(h) = handler {
                    h(src, &frame.payload);
                    self.count_delivered(1);
                    self.metrics
                        .handler_us
                        .record(self.obs.now_us().saturating_sub(start_us));
                    self.obs
                        .span("net.dispatch", proto, payload_len, 1, start_us);
                } else {
                    self.count_dropped(1);
                }
            }
            FrameKind::Request(corr) => {
                self.count_delivered(1);
                let reply = match handler {
                    Some(h) => {
                        let payload = h(src, &frame.payload).unwrap_or_default();
                        self.metrics
                            .handler_us
                            .record(self.obs.now_us().saturating_sub(start_us));
                        self.obs
                            .span("net.dispatch", proto, payload_len, 1, start_us);
                        Frame {
                            proto: frame.proto,
                            kind: FrameKind::Response(corr),
                            // The handler's buffer *is* the wire payload:
                            // adopted, never copied.
                            payload: FrameBuf::from_vec(payload),
                        }
                    }
                    None => Frame {
                        proto: frame.proto,
                        kind: FrameKind::NoHandler(corr),
                        payload: FrameBuf::new(),
                    },
                };
                let _ = self.transmit(Envelope {
                    src: self.machine,
                    dst: src,
                    trace,
                    deadline,
                    frames: vec![reply],
                });
            }
            FrameKind::Response(_) | FrameKind::NoHandler(_) | FrameKind::Expired(_) => {
                unreachable!("responses are routed by the receiver")
            }
        }
    }

    fn count_delivered(&self, frames: u64) {
        self.stats.record_delivered(frames);
        self.metrics.frames_delivered.add(frames);
    }

    fn count_dropped(&self, frames: u64) {
        self.stats.record_dropped(frames);
        self.metrics.frames_dropped.add(frames);
    }

    /// Fail any calls still pending when the fabric shuts down.
    pub(crate) fn fail_pending(&self) {
        for (_, tx) in self.pending.lock().drain() {
            let _ = tx.send(Err(NetError::Closed));
        }
    }
}

pub(crate) fn receiver_loop(
    ep: Arc<Endpoint>,
    rx: crossbeam::channel::Receiver<Item>,
    workers: usize,
) {
    while let Ok(item) = rx.recv() {
        match item {
            Item::Env(env) => ep.route_envelope(env),
            Item::Stop => break,
        }
    }
    for _ in 0..workers {
        let _ = ep.work_tx.send(Work::Stop);
    }
    ep.fail_pending();
}

pub(crate) fn worker_loop(ep: Arc<Endpoint>, rx: crossbeam::channel::Receiver<Work>) {
    while let Ok(work) = rx.recv() {
        match work {
            Work::Frame(src, trace, deadline, frame) => ep.dispatch(src, trace, deadline, frame),
            Work::Stop => break,
        }
    }
}
