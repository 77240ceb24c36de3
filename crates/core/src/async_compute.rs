//! Asynchronous vertex computation (paper §5.3, §6.2).
//!
//! Unlike the BSP runtime, asynchronous computation has no supersteps: a
//! vertex processes each message as it arrives and immediately emits its
//! own messages (the GraphChi-style model the paper situates Trinity
//! against — Trinity supports it alongside BSP because the engine is not
//! constrained to one computation model). Asynchronous SSSP, for example,
//! relaxes distances in whatever order messages land.
//!
//! Two §6.2 mechanisms are implemented here:
//!
//! * **termination detection** — machine 0 circulates a Safra token
//!   ([`crate::safra`]) whenever it is passive; the job completes when a
//!   round proves the ring quiet;
//! * **periodic-interruption snapshots** — "Trinity issues an interruption
//!   signal... all vertices will pause after finishing the job in hand.
//!   After issuing the interruption signal, Trinity calls Safra's
//!   termination detection algorithm to check whether the system ceases.
//!   A snapshot is written to the persistent disk storage once the system
//!   ceases." [`AsyncJob::snapshot`] performs exactly this sequence and a
//!   job can be resumed from the snapshot after a failure
//!   ([`spawn_from_snapshot`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use trinity_graph::DistributedGraph;
use trinity_memcloud::CellId;
use trinity_memstore::codec::{DecodeError, Reader};
use trinity_net::MachineId;
use trinity_tfs::Tfs;

use crate::checkpoint::{put_by_id, put_value, take_by_id, take_value};
use crate::proto;
use crate::safra::{SafraState, Token};

const PURPOSE_TERMINATE: u8 = 0;
const PURPOSE_SNAPSHOT: u8 = 1;

/// An asynchronous vertex program.
pub trait AsyncVertexProgram: Send + Sync + 'static {
    /// Per-vertex state.
    type State: Send + Clone + 'static;
    /// Message type.
    type Msg: Send + Clone + 'static;

    /// Initial state (out-degree provided for normalization-style inits).
    fn init(&self, id: CellId, out_degree: usize) -> Self::State;

    /// React to one message.
    fn on_message(
        &self,
        ctx: &mut AsyncContext<'_, Self::Msg>,
        id: CellId,
        state: &mut Self::State,
        msg: &Self::Msg,
    );

    fn encode_msg(msg: &Self::Msg) -> Vec<u8>;
    fn decode_msg(bytes: &[u8]) -> Option<Self::Msg>;
    fn encode_state(state: &Self::State) -> Vec<u8>;
    fn decode_state(bytes: &[u8]) -> Option<Self::State>;
}

/// Message-emission context for asynchronous programs.
pub struct AsyncContext<'a, M> {
    outs: &'a [CellId],
    sends: &'a mut Vec<(CellId, M)>,
}

impl<'a, M: Clone> AsyncContext<'a, M> {
    /// The vertex's out-neighbors.
    pub fn out_neighbors(&self) -> &'a [CellId] {
        self.outs
    }

    /// Emit a message to any vertex.
    pub fn send(&mut self, dst: CellId, msg: M) {
        self.sends.push((dst, msg));
    }

    /// Emit the same message to every out-neighbor.
    pub fn send_to_neighbors(&mut self, msg: M) {
        for &dst in self.outs {
            self.sends.push((dst, msg.clone()));
        }
    }
}

/// Result of a completed asynchronous job.
pub struct AsyncResult<S> {
    /// Final vertex states.
    pub states: HashMap<CellId, S>,
    /// Messages processed across the cluster.
    pub messages_processed: u64,
}

struct MachineAsync<P: AsyncVertexProgram> {
    queue: Mutex<VecDeque<(CellId, P::Msg)>>,
    cv: Condvar,
    /// Tokens held at this machine (termination and snapshot rounds may
    /// coexist; a held token must never be lost or overwritten).
    tokens: Mutex<VecDeque<Token>>,
    paused: AtomicBool,
    safra: SafraState,
    states: Mutex<HashMap<CellId, P::State>>,
}

struct JobShared<P: AsyncVertexProgram> {
    rts: Vec<Arc<MachineAsync<P>>>,
    stop: AtomicBool,
    /// A termination-detection round is circulating.
    term_round_active: AtomicBool,
    /// A snapshot-quiescence round is circulating.
    snap_round_active: AtomicBool,
    /// A snapshot has been requested (machine 0 launches a snapshot
    /// token when the ring is paused).
    snap_requested: AtomicBool,
    /// The snapshot token completed: network quiet, safe to serialize.
    snap_ready: Mutex<bool>,
    snap_cv: Condvar,
    processed: AtomicU64,
}

/// Handle to a running asynchronous job.
pub struct AsyncJob<P: AsyncVertexProgram> {
    shared: Arc<JobShared<P>>,
    graph: Arc<DistributedGraph>,
    job_name: String,
    drivers: Vec<std::thread::JoinHandle<()>>,
}

/// TFS path of machine `m`'s snapshot for job `name`.
fn snap_path(name: &str, m: usize) -> String {
    format!("async/{name}/m{m}")
}

/// Launch an asynchronous job with initial `seeds` (vertex, message).
pub fn spawn<P: AsyncVertexProgram>(
    graph: Arc<DistributedGraph>,
    program: P,
    job_name: &str,
    seeds: Vec<(CellId, P::Msg)>,
) -> AsyncJob<P> {
    let machines = graph.machines();
    let table = graph.cloud().node(0).table();
    let mut queues: Vec<VecDeque<(CellId, P::Msg)>> =
        (0..machines).map(|_| VecDeque::new()).collect();
    for (dst, msg) in seeds {
        queues[table.machine_of(dst).0 as usize].push_back((dst, msg));
    }
    let mut states: Vec<HashMap<CellId, P::State>> =
        (0..machines).map(|_| HashMap::new()).collect();
    for (m, st) in states.iter_mut().enumerate() {
        let program = &program;
        graph.handle(m).for_each_local_node(|id, view| {
            st.insert(id, program.init(id, view.out_degree()));
        });
    }
    launch(graph, program, job_name, queues, states)
}

/// Resume a job from its most recent snapshot.
pub fn spawn_from_snapshot<P: AsyncVertexProgram>(
    graph: Arc<DistributedGraph>,
    program: P,
    job_name: &str,
) -> Result<AsyncJob<P>, trinity_tfs::TfsError> {
    let machines = graph.machines();
    let tfs = graph.cloud().tfs().clone();
    let mut queues = Vec::with_capacity(machines);
    let mut states = Vec::with_capacity(machines);
    for m in 0..machines {
        let bytes = tfs.read(&snap_path(job_name, m))?;
        let (st, q) = decode_snapshot::<P>(&bytes)
            .map_err(|_| trinity_tfs::TfsError::NotFound(snap_path(job_name, m)))?;
        states.push(st);
        queues.push(q);
    }
    Ok(launch(graph, program, job_name, queues, states))
}

fn launch<P: AsyncVertexProgram>(
    graph: Arc<DistributedGraph>,
    program: P,
    job_name: &str,
    queues: Vec<VecDeque<(CellId, P::Msg)>>,
    states: Vec<HashMap<CellId, P::State>>,
) -> AsyncJob<P> {
    let machines = graph.machines();
    let program = Arc::new(program);
    let rts: Vec<Arc<MachineAsync<P>>> = queues
        .into_iter()
        .zip(states)
        .map(|(queue, states)| {
            Arc::new(MachineAsync {
                queue: Mutex::new(queue),
                cv: Condvar::new(),
                tokens: Mutex::new(VecDeque::new()),
                paused: AtomicBool::new(false),
                safra: SafraState::new(),
                states: Mutex::new(states),
            })
        })
        .collect();
    let shared = Arc::new(JobShared {
        rts,
        stop: AtomicBool::new(false),
        term_round_active: AtomicBool::new(false),
        snap_round_active: AtomicBool::new(false),
        snap_requested: AtomicBool::new(false),
        snap_ready: Mutex::new(false),
        snap_cv: Condvar::new(),
        processed: AtomicU64::new(0),
    });
    // Handlers.
    for m in 0..machines {
        let endpoint = graph.cloud().node(m).endpoint();
        {
            let rt = Arc::clone(&shared.rts[m]);
            endpoint.register(proto::ASYNC_MSG, move |_src, data| {
                let mut r = Reader::new(data);
                let dst = r.u64().ok()?;
                let msg = P::decode_msg(r.rest())?;
                rt.safra.on_receive();
                rt.queue.lock().push_back((dst, msg));
                rt.cv.notify_all();
                None
            });
        }
        {
            let rt = Arc::clone(&shared.rts[m]);
            endpoint.register(proto::SAFRA_TOKEN, move |_src, data| {
                if let Some(token) = Token::decode(data) {
                    rt.tokens.lock().push_back(token);
                    rt.cv.notify_all();
                }
                None
            });
        }
        {
            let rt = Arc::clone(&shared.rts[m]);
            endpoint.register(proto::ASYNC_INTERRUPT, move |_src, data| {
                rt.paused.store(data.first() == Some(&1), Ordering::Release);
                rt.cv.notify_all();
                Some(Vec::new())
            });
        }
    }
    // Drivers.
    let mut drivers = Vec::with_capacity(machines);
    for m in 0..machines {
        let shared = Arc::clone(&shared);
        let graph2 = Arc::clone(&graph);
        let program = Arc::clone(&program);
        drivers.push(
            std::thread::Builder::new()
                .name(format!("trinity-async-{m}"))
                .spawn(move || driver_loop(m, shared, graph2, program))
                .expect("spawn async driver"),
        );
    }
    AsyncJob {
        shared,
        graph,
        job_name: job_name.to_string(),
        drivers,
    }
}

fn driver_loop<P: AsyncVertexProgram>(
    m: usize,
    shared: Arc<JobShared<P>>,
    graph: Arc<DistributedGraph>,
    program: Arc<P>,
) {
    let machines = graph.machines();
    let rt = Arc::clone(&shared.rts[m]);
    let endpoint = Arc::clone(graph.cloud().node(m).endpoint());
    let table = graph.cloud().node(m).table();
    let handle = graph.handle(m).clone();
    let next = MachineId(((m + 1) % machines) as u16);
    let mut outs_scratch: Vec<CellId> = Vec::new();
    let mut sends_scratch: Vec<(CellId, P::Msg)> = Vec::new();

    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        // --- Token duty ------------------------------------------------
        // Process every held token that is currently eligible; hold the
        // rest (a termination token simply waits out a pause).
        let held: Vec<Token> = {
            let mut slot = rt.tokens.lock();
            let paused = rt.paused.load(Ordering::Acquire);
            let queue_empty = rt.queue.lock().is_empty();
            let mut eligible = Vec::new();
            slot.retain(|token| {
                let ok = match token.purpose {
                    PURPOSE_SNAPSHOT => paused,
                    _ => queue_empty && !paused,
                };
                if ok {
                    eligible.push(*token);
                }
                !ok
            });
            eligible
        };
        let mut terminated = false;
        for token in held {
            if m == 0 {
                // Round complete: evaluate.
                if rt.safra.evaluate(&token) {
                    if token.purpose == PURPOSE_SNAPSHOT {
                        shared.snap_round_active.store(false, Ordering::Release);
                        *shared.snap_ready.lock() = true;
                        shared.snap_cv.notify_all();
                    } else {
                        shared.term_round_active.store(false, Ordering::Release);
                        shared.stop.store(true, Ordering::Release);
                        for peer in &shared.rts {
                            peer.cv.notify_all();
                        }
                        terminated = true;
                        break;
                    }
                } else {
                    // Retry with a fresh token of the same purpose, unless
                    // a snapshot round lost its purpose (request already
                    // satisfied by a competing round).
                    rt.safra.whiten();
                    endpoint.send(
                        next,
                        proto::SAFRA_TOKEN,
                        &Token::fresh(token.purpose).encode(),
                    );
                    endpoint.flush_to(next);
                }
            } else {
                let fwd = rt.safra.forward(token);
                endpoint.send(next, proto::SAFRA_TOKEN, &fwd.encode());
                endpoint.flush_to(next);
            }
        }
        if terminated {
            break;
        }
        // --- Pause -----------------------------------------------------
        if rt.paused.load(Ordering::Acquire) {
            // Ship anything still sitting in the pack buffers, or the
            // quiescence round can never balance the send counts.
            endpoint.flush();
            // Machine 0 launches the snapshot-quiescence round.
            if m == 0
                && shared.snap_requested.load(Ordering::Acquire)
                && !shared.snap_round_active.swap(true, Ordering::AcqRel)
            {
                if machines == 1 {
                    shared.snap_round_active.store(false, Ordering::Release);
                    if rt.safra.balance() == 0 {
                        *shared.snap_ready.lock() = true;
                        shared.snap_cv.notify_all();
                    }
                } else {
                    rt.safra.whiten();
                    endpoint.send(
                        next,
                        proto::SAFRA_TOKEN,
                        &Token::fresh(PURPOSE_SNAPSHOT).encode(),
                    );
                    endpoint.flush_to(next);
                }
            }
            let mut q = rt.queue.lock();
            rt.cv.wait_for(&mut q, Duration::from_millis(1));
            continue;
        }
        // --- Process a batch of messages --------------------------------
        let batch: Vec<(CellId, P::Msg)> = {
            let mut q = rt.queue.lock();
            let take = q.len().min(64);
            q.drain(..take).collect()
        };
        if batch.is_empty() {
            endpoint.flush();
            // Idle initiator launches a termination round.
            if m == 0 && !shared.term_round_active.swap(true, Ordering::AcqRel) {
                if machines == 1 {
                    if rt.queue.lock().is_empty() {
                        shared.stop.store(true, Ordering::Release);
                        break;
                    }
                    shared.term_round_active.store(false, Ordering::Release);
                } else {
                    rt.safra.whiten();
                    endpoint.send(
                        next,
                        proto::SAFRA_TOKEN,
                        &Token::fresh(PURPOSE_TERMINATE).encode(),
                    );
                    endpoint.flush_to(next);
                }
            }
            let mut q = rt.queue.lock();
            if q.is_empty() && rt.tokens.lock().is_empty() && !shared.stop.load(Ordering::Acquire) {
                rt.cv.wait_for(&mut q, Duration::from_millis(1));
            }
            continue;
        }
        for (dst, msg) in batch {
            shared.processed.fetch_add(1, Ordering::Relaxed);
            // Reusable scratches: adjacency is read through the zero-copy
            // view, sends accumulate and drain without reallocating.
            outs_scratch.clear();
            let _ = handle.with_node(dst, |view| outs_scratch.extend(view.outs()));
            sends_scratch.clear();
            {
                let mut ctx = AsyncContext {
                    outs: &outs_scratch,
                    sends: &mut sends_scratch,
                };
                let mut states = rt.states.lock();
                let state = match states.get_mut(&dst) {
                    Some(s) => s,
                    None => continue, // message to a nonexistent vertex
                };
                program.on_message(&mut ctx, dst, state, &msg);
            }
            for (target, out_msg) in sends_scratch.drain(..) {
                let owner = table.machine_of(target).0 as usize;
                if owner == m {
                    rt.queue.lock().push_back((target, out_msg));
                } else {
                    let mut frame = Vec::with_capacity(8);
                    frame.extend_from_slice(&target.to_le_bytes());
                    frame.extend_from_slice(&P::encode_msg(&out_msg));
                    rt.safra.on_send();
                    endpoint.send(MachineId(owner as u16), proto::ASYNC_MSG, &frame);
                }
            }
        }
    }
}

impl<P: AsyncVertexProgram> AsyncJob<P> {
    /// Take a consistent snapshot: pause all machines, wait for network
    /// quiescence (Safra), persist every machine's states and pending
    /// queue to TFS, resume.
    pub fn snapshot(&self) -> Result<(), trinity_tfs::TfsError> {
        let machines = self.graph.machines();
        let ep0 = self.graph.cloud().node(0).endpoint();
        // Interruption signal.
        for m in 0..machines {
            let _ = ep0.call(MachineId(m as u16), proto::ASYNC_INTERRUPT, &[1]);
        }
        *self.shared.snap_ready.lock() = false;
        self.shared.snap_requested.store(true, Ordering::Release);
        for rt in &self.shared.rts {
            rt.cv.notify_all();
        }
        // Wait for the quiescence round to succeed.
        {
            let mut ready = self.shared.snap_ready.lock();
            while !*ready && !self.shared.stop.load(Ordering::Acquire) {
                self.shared
                    .snap_cv
                    .wait_for(&mut ready, Duration::from_millis(5));
            }
        }
        self.shared.snap_requested.store(false, Ordering::Release);
        // Network quiet and machines paused: serialize.
        let tfs: Tfs = self.graph.cloud().tfs().clone();
        for (m, rt) in self.shared.rts.iter().enumerate() {
            let bytes = encode_snapshot::<P>(&rt.states.lock(), &rt.queue.lock());
            tfs.write(&snap_path(&self.job_name, m), &bytes)?;
        }
        // Resume.
        for m in 0..machines {
            let _ = ep0.call(MachineId(m as u16), proto::ASYNC_INTERRUPT, &[0]);
        }
        for rt in &self.shared.rts {
            rt.cv.notify_all();
        }
        Ok(())
    }

    /// Abandon the job without waiting for termination (simulates the
    /// computation dying; a successor resumes from the last snapshot).
    pub fn abort(self) {
        self.shared.stop.store(true, Ordering::Release);
        for rt in &self.shared.rts {
            rt.cv.notify_all();
        }
        for d in self.drivers {
            let _ = d.join();
        }
    }

    /// Wait for termination and collect the final states.
    pub fn join(self) -> AsyncResult<P::State> {
        for d in self.drivers {
            let _ = d.join();
        }
        let mut states = HashMap::new();
        for rt in &self.shared.rts {
            states.extend(rt.states.lock().drain());
        }
        AsyncResult {
            states,
            messages_processed: self.shared.processed.load(Ordering::Relaxed),
        }
    }
}

fn encode_snapshot<P: AsyncVertexProgram>(
    states: &HashMap<CellId, P::State>,
    queue: &VecDeque<(CellId, P::Msg)>,
) -> Vec<u8> {
    let mut out = Vec::new();
    let states = states.iter().map(|(&id, st)| (id, st)).collect();
    put_by_id(&mut out, states, |out, st| {
        put_value(out, &P::encode_state(st))
    });
    out.extend_from_slice(&(queue.len() as u64).to_le_bytes());
    for (dst, msg) in queue {
        out.extend_from_slice(&dst.to_le_bytes());
        put_value(&mut out, &P::encode_msg(msg));
    }
    out
}

#[allow(clippy::type_complexity)]
fn decode_snapshot<P: AsyncVertexProgram>(
    data: &[u8],
) -> Result<(HashMap<CellId, P::State>, VecDeque<(CellId, P::Msg)>), DecodeError> {
    let mut r = Reader::new(data);
    let states = take_by_id(&mut r, 4, |r| take_value(r, P::decode_state))?;
    let n = r.u64()?;
    let queue = (0..r.count(n, 12)?)
        .map(|_| Ok((r.u64()?, take_value(&mut r, P::decode_msg)?)))
        .collect::<Result<_, _>>()?;
    r.finish()?;
    Ok((states, queue))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only the snapshot codec runs this program: `u64` states and messages.
    struct Words;

    impl AsyncVertexProgram for Words {
        type State = u64;
        type Msg = u64;
        fn init(&self, _id: CellId, _out_degree: usize) -> u64 {
            0
        }
        fn on_message(&self, _: &mut AsyncContext<'_, u64>, _: CellId, _: &mut u64, _: &u64) {}
        fn encode_msg(m: &u64) -> Vec<u8> {
            m.to_le_bytes().to_vec()
        }
        fn decode_msg(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        fn encode_state(s: &u64) -> Vec<u8> {
            s.to_le_bytes().to_vec()
        }
        fn decode_state(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
    }

    /// A TFS image whose state count no bytes back is refused before a
    /// table is sized for it, and bytes after the queue are refused.
    #[test]
    fn snapshot_counts_and_trailing_bytes_are_refused() {
        assert!(decode_snapshot::<Words>(&u64::MAX.to_le_bytes()).is_err());
        let mut bytes = encode_snapshot::<Words>(&HashMap::new(), &VecDeque::new());
        assert!(decode_snapshot::<Words>(&bytes).is_ok());
        bytes.push(0);
        assert!(decode_snapshot::<Words>(&bytes).is_err());
    }

    #[test]
    fn snapshot_codec_keeps_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        check(
            0xa5c0,
            |rng| {
                let ids = rng.vec(4, Rng::u64);
                let states: HashMap<_, _> = ids.into_iter().map(|id| (id, rng.u64())).collect();
                let queue: VecDeque<_> = rng.vec(4, |rng| (rng.u64(), rng.u64())).into();
                (states, queue)
            },
            |(states, queue)| encode_snapshot::<Words>(states, queue),
            |b| decode_snapshot::<Words>(b).ok(),
            true,
        );
    }
}
