//! One machine's worker pool: the superstep loop every worker runs, the
//! per-worker shard of the job's state, and the leader's serial sections
//! (fence, aggregation, stop decision).

use std::sync::atomic::Ordering;
use std::sync::Barrier;

use parking_lot::Mutex;

use trinity_memcloud::{AddressingTable, CellId};
use trinity_net::{deadline_expired, CostModel, DeadlineGuard, StatsDelta};
use trinity_obs::TraceGuard;

use super::path::{Arrivals, Inbox, MachineRt, RunOutbox};
use super::{runs, Job, SuperstepReport, VertexContext, VertexProgram};
use crate::cputime::ThreadTimer;
use crate::proto;

/// One superstep's cross-machine aggregate, filled by every machine's
/// leader and read by the global leader.
#[derive(Default)]
pub(super) struct RoundAgg {
    active: usize,
    computed: usize,
    deliveries: u64,
    remote_messages: u64,
    local_messages: u64,
    compute_max: f64,
    compute_sum: f64,
    net_max: StatsDelta,
}

/// One worker's owned shard of a machine's BSP state, addressed by
/// *slot*: an id's position in `ids`. Its buffers are reused across
/// supersteps.
pub(super) struct WorkerState<P: VertexProgram> {
    w: usize,
    /// The shard's local vertices, in id order.
    pub(super) ids: Vec<CellId>,
    /// Slot-aligned: state and active flag.
    pub(super) states: Vec<P::State>,
    pub(super) active: Vec<bool>,
    /// Each local vertex's out-list, copied once by the census: the job's
    /// topology, which no superstep reads from the trunks again.
    pub(super) outs: SlotLists<CellId>,
    /// The other machines each local vertex's out-list reaches, ascending.
    pub(super) peers: SlotLists<u16>,
    /// The [`runs::base`] of each local vertex's last broadcast, which
    /// every peer got and keeps too: its next hub records' XOR base.
    pub(super) bases: Vec<u64>,
    /// The current superstep's messages, by slot.
    pub(super) inbox: Inbox<P::Msg>,
    /// Reusable per-trunk delivery counts of a drain.
    tally: Vec<u64>,
    /// Private per-destination run frames.
    outbox: Vec<RunOutbox>,
    /// Buffered machine-local deliveries per shard.
    local_buf: Vec<Arrivals<P::Msg>>,
}

impl<P: VertexProgram> WorkerState<P> {
    /// Worker `w` of `workers`, shipping to `machines`.
    pub(super) fn new(w: usize, machines: usize, workers: usize) -> Self {
        WorkerState {
            w,
            ids: Vec::new(),
            states: Vec::new(),
            active: Vec::new(),
            outs: SlotLists::default(),
            peers: SlotLists::default(),
            bases: Vec::new(),
            inbox: Inbox::new(0),
            tally: Vec::new(),
            outbox: (0..machines).map(RunOutbox::new).collect(),
            local_buf: (0..workers).map(|_| Arrivals::new()).collect(),
        }
    }
}

/// Per-slot lists laid end to end: slot `s`'s list runs from where slot
/// `s - 1`'s ends to `ends[s]`.
#[derive(Default)]
pub(super) struct SlotLists<T> {
    ends: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> SlotLists<T> {
    /// Append the next slot's list.
    pub(super) fn push(&mut self, list: &[T]) {
        self.items.extend_from_slice(list);
        let end = u32::try_from(self.items.len()).expect("a shard holds under 2^32 list items");
        self.ends.push(end);
    }

    /// Slot `s`'s list.
    #[inline]
    pub(super) fn get(&self, s: usize) -> &[T] {
        let start = s.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.items[start as usize..self.ends[s] as usize]
    }
}

/// Per-round results a worker hands to the leader (worker 0) at the
/// phase barriers. Written by its owner during a phase, read by the
/// leader strictly after the phase barrier, so the mutexes never contend.
#[derive(Default)]
struct WorkerRound {
    /// Run frames shipped per destination machine (the fence's unit).
    frames_to: Vec<u64>,
    sent: u64,
    computed: usize,
    cpu_seconds: f64,
    active_after: usize,
    distinct_dsts: u64,
}

/// Shared context of one machine's worker pool.
struct PoolCtx<'x, P: VertexProgram> {
    job: &'x Job<'x, P>,
    m: usize,
    machines: usize,
    rt: &'x MachineRt<P>,
    table: AddressingTable,
    cost: CostModel,
    barrier: Barrier,
    rounds: Vec<Mutex<WorkerRound>>,
}

/// Run the job's supersteps on machine `m` over `shards`, one worker
/// each; worker 0 (the leader) runs on the calling thread and keeps the
/// serial work: fences, aggregation, the stop decision.
pub(super) fn run<P: VertexProgram>(
    job: &Job<'_, P>,
    m: usize,
    rt: &MachineRt<P>,
    mut shards: Vec<WorkerState<P>>,
) {
    let ctx = &PoolCtx {
        job,
        m,
        machines: job.graph.machines(),
        rt,
        table: job.graph.cloud().node(m).table(),
        cost: job.graph.cloud().fabric().cost_model(),
        barrier: Barrier::new(shards.len()),
        rounds: shards.iter().map(|_| Mutex::default()).collect(),
    };
    std::thread::scope(|scope| {
        // Shard 0, the leader's, comes off last and runs here.
        while let Some(ws) = shards.pop() {
            if shards.is_empty() {
                worker_main(ctx, ws);
            } else {
                scope.spawn(move || {
                    // Guards are thread-local: re-enter them on each pool worker.
                    let _tg = TraceGuard::enter(job.trace);
                    let _dg = DeadlineGuard::enter(job.deadline);
                    worker_main(ctx, ws);
                });
            }
        }
    });
}

/// One pool worker's superstep loop. Four pool barriers per superstep
/// separate the phases:
///
/// 1. parallel compute over this worker's shard (+ shard flush);
/// 2. leader: fences, quiescence wait, global barrier;
/// 3. parallel inbox drain (runs by slot, reactivate, count, load tally);
/// 4. leader: round aggregation, reports, stop decision.
fn worker_main<P: VertexProgram>(ctx: &PoolCtx<'_, P>, mut ws: WorkerState<P>) {
    let leader = ws.w == 0;
    let mut superstep = 0usize;
    // Leader-only round state; idle copies on the other workers.
    let mut net_before = ctx.rt.endpoint.stats().snapshot();
    let mut wall_start_us = ctx.rt.endpoint.obs().now_us();
    loop {
        // Start-of-superstep hook (bucket prefetch): the leader runs it,
        // the barrier orders it before anyone computes. Gated on the
        // option so hook-free jobs pay no extra barrier — every worker
        // evaluates the same `is_some()`, so the barrier count matches.
        if let Some(hook) = &ctx.job.cfg.superstep_hook {
            if leader {
                hook.superstep_start(ctx.m, ctx.job.superstep_offset + superstep);
            }
            ctx.barrier.wait();
        }
        compute_phase(ctx, &mut ws, superstep);
        ctx.barrier.wait();
        if leader {
            leader_fence(ctx, superstep);
        }
        ctx.barrier.wait();
        drain_phase(ctx, &mut ws);
        ctx.barrier.wait();
        if leader {
            leader_aggregate(ctx, superstep, &net_before, wall_start_us);
            // Next round's deltas start here — after the stop-decision
            // barrier, exactly where the serial driver snapshotted.
            net_before = ctx.rt.endpoint.stats().snapshot();
            wall_start_us = ctx.rt.endpoint.obs().now_us();
        }
        ctx.barrier.wait();
        superstep += 1;
        if ctx.job.stop.load(Ordering::Acquire) {
            break;
        }
    }
    // Export this shard's slice of the job state (checkpoint material).
    let mut f = ctx.job.finals.lock();
    for (s, (id, state)) in ws.ids.into_iter().zip(ws.states).enumerate() {
        f.states.insert(id, state);
        if ws.active[s] {
            f.active.insert(id);
        }
        let run = ws.inbox.run(s);
        if !run.is_empty() {
            f.pending.entry(id).or_default().extend_from_slice(run);
        }
    }
}

/// Compute every vertex of this worker's shard for one superstep,
/// routing broadcasts into the private run frames and local buffers and
/// flushing them at shard end. A panic in the program (`compute`,
/// `encode_msg`) stops the loop and is kept for the job to re-raise; the
/// flush still runs, so the fences balance and every worker reaches the
/// barriers it waits at.
fn compute_phase<P: VertexProgram>(
    ctx: &PoolCtx<'_, P>,
    ws: &mut WorkerState<P>,
    superstep: usize,
) {
    let rt = ctx.rt;
    let timer = ThreadTimer::start();
    // Remote deliveries sent (the reports' unit) and vertices computed.
    let mut sent = 0u64;
    let mut computed = 0usize;
    let mut local_delivered = 0u64;
    let vertices = std::panic::AssertUnwindSafe(|| {
        for s in 0..ws.ids.len() {
            let id = ws.ids[s];
            let msgs = ws.inbox.run(s);
            if msgs.is_empty() && !ws.active[s] {
                continue;
            }
            computed += 1;
            let mut vctx = VertexContext {
                superstep: ctx.job.superstep_offset + superstep,
                outs: ws.outs.get(s),
                broadcast: None,
                halt: false,
            };
            ctx.job
                .program
                .compute(&mut vctx, id, &mut ws.states[s], msgs);
            ws.active[s] = !vctx.halt;
            let Some(msg) = vctx.broadcast else {
                continue;
            };
            // One hub record to each other machine the out-list reaches,
            // which that machine fans out to the neighbors its own
            // in-edges list, and one cast to this machine's. Encoded once,
            // and only if a record leaves the machine.
            let peers = ws.peers.get(s);
            if !peers.is_empty() {
                let payload = P::encode_msg(&msg);
                for &owner in peers {
                    ws.outbox[owner as usize].push(rt, superstep, &payload, id, ws.bases[s]);
                }
                ws.bases[s] = runs::base(&payload);
            }
            rt.metrics.hub_broadcasts.add(peers.len() as u64);
            sent += peers.len() as u64;
            local_delivered += rt.cast_local(&mut ws.local_buf, id, &msg);
        }
    });
    if let Err(panic) = std::panic::catch_unwind(vertices) {
        ctx.job.panic.lock().get_or_insert(panic);
    }
    // Shard flush: hand the open run frames to the endpoint's pack
    // buffers and buffered local deliveries to their shard inboxes.
    let mut round = ctx.rounds[ws.w].lock();
    let outboxes = ws.outbox.iter_mut();
    round.frames_to = outboxes
        .map(|outbox| {
            outbox.flush(rt);
            std::mem::take(&mut outbox.frames)
        })
        .collect();
    rt.deliver_sharded(&mut ws.local_buf);
    rt.local_deliveries
        .fetch_add(local_delivered, Ordering::Relaxed);
    let cpu_seconds = timer.elapsed_seconds();
    rt.metrics.worker_us.record((cpu_seconds * 1e6) as u64);
    round.computed = computed;
    round.cpu_seconds = cpu_seconds;
    round.sent = sent;
}

/// Leader work after the parallel compute phase: tell every peer how
/// many run frames the pool sent it, then wait for quiescence.
fn leader_fence<P: VertexProgram>(ctx: &PoolCtx<'_, P>, superstep: usize) {
    let mut frames_to: Vec<u64> = vec![0; ctx.machines];
    for slot in &ctx.rounds {
        for (total, &f) in frames_to.iter_mut().zip(&slot.lock().frames_to) {
            *total += f;
        }
    }
    ctx.rt.fence(ctx.m, superstep, &frames_to);
    // After this barrier no machine is still computing superstep `s`, so
    // the workers' inbox drain (next phase) cannot race new deliveries:
    // anything arriving now belongs to `s + 1` and lands after the swap.
    ctx.job.barrier.wait();
}

/// Drain this worker's shared inbox for the next superstep: place its
/// arrivals into per-slot runs, reactivate the vertices that
/// received messages, count distinct destinations, and attribute the
/// deliveries to their trunks — one `LoadMap` update per trunk.
fn drain_phase<P: VertexProgram>(ctx: &PoolCtx<'_, P>, ws: &mut WorkerState<P>) {
    // Taken, not swapped with a reused buffer: freeing it every superstep
    // keeps the allocator's peak down (with the buffer recycled, peak RSS
    // on pagerank_bsp measured 8–12 MB higher on a 2-vCPU host).
    let arrivals = std::mem::take(&mut *ctx.rt.inboxes[ws.w].lock());
    ws.inbox.fill(arrivals, &ctx.rt.fanout.targets, P::msg_cmp);
    ws.tally.resize(ctx.table.trunk_count(), 0);
    let mut distinct = 0u64;
    for s in 0..ws.ids.len() {
        let n = ws.inbox.run(s).len();
        if n > 0 {
            // Message arrivals reactivate halted vertices.
            ws.active[s] = true;
            distinct += 1;
            ws.tally[ctx.table.trunk_of(ws.ids[s]) as usize] += n as u64;
        }
    }
    let load = ctx.rt.endpoint.obs().load();
    for (trunk, n) in ws.tally.iter_mut().enumerate() {
        if *n > 0 {
            load.record_msgs(trunk as u64, std::mem::take(n));
        }
    }
    let mut round = ctx.rounds[ws.w].lock();
    round.active_after = ws.active.iter().filter(|&&a| a).count();
    round.distinct_dsts = distinct;
}

/// Leader work after the drain phase: total the workers' rounds, publish
/// the machine's into the cross-machine aggregate, and (as global leader)
/// emit the report and the stop decision. A machine's compute CPU is its
/// workers' sum, its critical path the slowest worker's.
fn leader_aggregate<P: VertexProgram>(
    ctx: &PoolCtx<'_, P>,
    superstep: usize,
    net_before: &StatsDelta,
    wall_start_us: u64,
) {
    let rt = ctx.rt;
    let net_delta = rt.endpoint.stats().delta(net_before);
    let local_delivered = rt.local_deliveries.swap(0, Ordering::Relaxed);
    let (mut active_after, mut computed, mut deliveries, mut sent) = (0, 0, 0, 0);
    let (mut cpu_sum, mut cpu_max) = (0.0, 0.0f64);
    for slot in &ctx.rounds {
        let r = slot.lock();
        active_after += r.active_after;
        computed += r.computed;
        deliveries += r.distinct_dsts;
        sent += r.sent;
        cpu_sum += r.cpu_seconds;
        cpu_max = cpu_max.max(r.cpu_seconds);
    }
    rt.metrics.supersteps.inc();
    rt.metrics.computed.add(computed as u64);
    rt.metrics.frames_remote.add(sent);
    rt.metrics.frames_local.add(local_delivered);
    rt.metrics.compute_us.record((cpu_max * 1e6) as u64);
    rt.metrics
        .superstep_us
        .record(rt.endpoint.obs().now_us().saturating_sub(wall_start_us));
    rt.endpoint.obs().span(
        "bsp.superstep",
        proto::BSP_HUB,
        net_delta.remote_bytes,
        sent.min(u32::MAX as u64) as u32,
        wall_start_us,
    );
    {
        let mut a = ctx.job.agg.lock();
        a.active += active_after;
        a.computed += computed;
        a.deliveries += deliveries;
        a.remote_messages += sent;
        a.local_messages += local_delivered;
        a.compute_max = a.compute_max.max(cpu_max);
        a.compute_sum += cpu_sum;
        if ctx.cost.transfer_seconds(&net_delta) > ctx.cost.transfer_seconds(&a.net_max) {
            a.net_max = net_delta;
        }
    }
    let leader = ctx.job.barrier.wait().is_leader();
    if leader {
        let mut a = ctx.job.agg.lock();
        let quiet = a.deliveries == 0 && a.active == 0;
        // Stop on quiescence, the superstep cap, a lapsed serving
        // deadline (the job ends un-terminated with partial state), or a
        // panicked program (the job re-raises it).
        let stop = quiet
            || superstep + 1 >= ctx.job.cfg.max_supersteps
            || deadline_expired()
            || ctx.job.panic.lock().is_some();
        let compute_parallel = a.compute_sum / ctx.machines as f64;
        let modeled = compute_parallel
            + ctx.cost.transfer_seconds(&a.net_max)
            + 2.0 * ctx.cost.envelope_latency_s * (ctx.machines as f64).log2().max(1.0);
        ctx.job.reports.lock().push(SuperstepReport {
            superstep: ctx.job.superstep_offset + superstep,
            computed: a.computed,
            active_after: a.active,
            remote_messages: a.remote_messages,
            local_messages: a.local_messages,
            compute_seconds: a.compute_max,
            compute_cpu_seconds: a.compute_sum,
            max_machine_net: a.net_max,
            modeled_seconds: modeled,
        });
        if stop {
            if quiet {
                ctx.job.terminated.store(true, Ordering::Release);
            }
            ctx.job.stop.store(true, Ordering::Release);
        }
        *a = RoundAgg::default();
    }
    ctx.job.barrier.wait();
}
