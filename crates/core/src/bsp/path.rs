//! The BSP message path, from a worker's send to the shard inbox its
//! destination's owner drains. Sending: a [`RunOutbox`] per (worker,
//! destination machine, protocol) builds [`super::runs`] frames and ships
//! them by size or on a change of message width. Receiving: the
//! `BSP_MSG`/`BSP_HUB` batch handlers validate each frame whole, decode
//! every record's message once, fan it out to the owning shards — a hub's
//! through the machine's [`Fanout`] index — and credit the fence.
//! Machine-local deliveries go straight to the inboxes. Draining: an
//! [`Inbox`] sorts a shard's arrivals into per-slot runs.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use trinity_graph::GraphHandle;
use trinity_memcloud::{AddressingTable, CellId};
use trinity_memstore::codec::{DecodeError, Reader};
use trinity_memstore::hash::mix64;
use trinity_net::{deadline_expired, Endpoint, MachineId, ProtoId};
use trinity_obs::{Counter, Histogram};

use super::{runs, VertexProgram};
use crate::proto;

/// Ship an outbox's frame once it holds this many bytes: hundreds of
/// records a frame, a few frames to the fabric's pack threshold.
const RUN_FLUSH_BYTES: usize = 16 << 10;

/// Flush a worker's buffered local deliveries for a shard at this many.
const LOCAL_CHUNK: usize = 128;

struct FenceState {
    /// Per-peer announced run-frame count for the current superstep.
    expected: Vec<Option<u64>>,
    /// Per-peer run frames received so far for the current superstep.
    got: Vec<u64>,
}

/// Cached `bsp.*` metric handles for one machine's runtime (resolved once
/// per job; superstep hot paths touch only relaxed atomics).
pub(super) struct BspMetrics {
    /// Supersteps this machine drove (`bsp.supersteps`).
    pub(super) supersteps: Arc<Counter>,
    /// Vertices computed (`bsp.computed`).
    pub(super) computed: Arc<Counter>,
    /// Deliveries sent to other machines, a hub broadcast counting one
    /// (`bsp.frames.remote`).
    pub(super) frames_remote: Arc<Counter>,
    /// Machine-local deliveries (`bsp.frames.local`).
    pub(super) frames_local: Arc<Counter>,
    /// Run records sent, `BSP_MSG` and `BSP_HUB` (`bsp.records.sent`).
    records_sent: Arc<Counter>,
    /// Run frames refused and dropped whole (`bsp.frames.malformed`).
    frames_malformed: Arc<Counter>,
    /// Hub broadcasts sent, one per machine reached (`bsp.hub.broadcasts`).
    pub(super) hub_broadcasts: Arc<Counter>,
    /// Vertices fanned out to by incoming hub broadcasts (`bsp.hub.fanout`).
    hub_fanout: Arc<Counter>,
    /// Per-superstep compute CPU time, µs (`bsp.compute.us`).
    pub(super) compute_us: Arc<Histogram>,
    /// Per-worker per-superstep compute CPU time, µs (`bsp.worker.compute.us`).
    pub(super) worker_us: Arc<Histogram>,
    /// Pool workers resolved per job per machine (`bsp.pool.workers`).
    pub(super) pool_workers: Arc<Counter>,
    /// Per-superstep wall time including the fence, µs (`bsp.superstep.us`).
    pub(super) superstep_us: Arc<Histogram>,
}

impl BspMetrics {
    fn new(endpoint: &Endpoint) -> Self {
        let obs = endpoint.obs();
        BspMetrics {
            supersteps: obs.counter("bsp.supersteps"),
            computed: obs.counter("bsp.computed"),
            frames_remote: obs.counter("bsp.frames.remote"),
            frames_local: obs.counter("bsp.frames.local"),
            records_sent: obs.counter("bsp.records.sent"),
            frames_malformed: obs.counter("bsp.frames.malformed"),
            hub_broadcasts: obs.counter("bsp.hub.broadcasts"),
            hub_fanout: obs.counter("bsp.hub.fanout"),
            compute_us: obs.histogram("bsp.compute.us"),
            worker_us: obs.histogram("bsp.worker.compute.us"),
            pool_workers: obs.counter("bsp.pool.workers"),
            superstep_us: obs.histogram("bsp.superstep.us"),
        }
    }
}

/// One worker's inbox: flattened `(dst, msg)` pairs under a single lock.
type ShardInbox<M> = Mutex<Vec<(CellId, M)>>;

/// One machine's receive-side state for a job.
pub(super) struct MachineRt<P: VertexProgram> {
    pub(super) endpoint: Arc<Endpoint>,
    machines: usize,
    /// Resolved pool size: sharding is `trunk_of(dst) % shard_workers`, a
    /// pure function of the id, so receive handlers can route a message
    /// to its owning worker's inbox without any setup handshake.
    shard_workers: usize,
    table: AddressingTable,
    /// Per-worker inboxes for the *next* superstep: flattened
    /// `(dst, msg)` pairs in arrival order, which the owning worker
    /// drains into an [`Inbox`].
    pub(super) inboxes: Vec<ShardInbox<P::Msg>>,
    pub(super) local_deliveries: AtomicU64,
    fence: Mutex<FenceState>,
    fence_cv: Condvar,
    /// Remote vertex → the local vertices its broadcast reaches; built
    /// before the handlers are installed and read-only after.
    fanout: Fanout,
    pub(super) metrics: BspMetrics,
}

impl<P: VertexProgram> MachineRt<P> {
    /// A machine's runtime, with the fan-out index of `hubs`, its graph
    /// handle when hub buffering is on.
    pub(super) fn new(
        endpoint: Arc<Endpoint>,
        machines: usize,
        shard_workers: usize,
        table: AddressingTable,
        hubs: Option<&GraphHandle>,
    ) -> Self {
        let mut rt = MachineRt {
            metrics: BspMetrics::new(&endpoint),
            endpoint,
            machines,
            shard_workers,
            table,
            inboxes: (0..shard_workers).map(|_| Mutex::new(Vec::new())).collect(),
            local_deliveries: AtomicU64::new(0),
            fence: Mutex::new(FenceState {
                expected: vec![None; machines],
                got: vec![0; machines],
            }),
            fence_cv: Condvar::new(),
            fanout: Fanout::default(),
        };
        if let Some(handle) = hubs {
            rt.fanout = Fanout::build(handle, &rt.table, shard_workers);
        }
        rt
    }

    pub(super) fn shard_of(&self, id: CellId) -> usize {
        shard_of(&self.table, self.shard_workers, id)
    }

    /// Hand deliveries staged by owning shard to the shard inboxes: each
    /// inbox lock is taken once per call.
    pub(super) fn deliver_sharded(&self, staged: &mut [Vec<(CellId, P::Msg)>]) {
        for (shard, buf) in staged.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.inboxes[shard].lock().append(buf);
            }
        }
    }

    /// Buffer one machine-local delivery, flushing the shard's buffer into
    /// its inbox once it fills.
    pub(super) fn push_local(
        &self,
        local_buf: &mut [Vec<(CellId, P::Msg)>],
        dst: CellId,
        msg: P::Msg,
    ) {
        let shard = self.shard_of(dst);
        let buf = &mut local_buf[shard];
        buf.push((dst, msg));
        if buf.len() >= LOCAL_CHUNK {
            self.inboxes[shard].lock().append(buf);
        }
    }

    /// Credit `n` received run frames from `src` to the fence.
    fn count_frames(&self, src: MachineId, n: usize) {
        let mut f = self.fence.lock();
        f.got[src.0 as usize] += n as u64;
        self.fence_cv.notify_all();
    }

    /// Fence: tell every peer how many run frames this machine sent it
    /// this superstep, flush everything, and block until every peer's
    /// count has arrived and that many of its frames have been received.
    pub(super) fn fence(&self, self_machine: usize, superstep: usize, frames_to: &[u64]) {
        for (peer, &sent) in frames_to.iter().enumerate() {
            if peer != self_machine {
                let peer = MachineId(peer as u16);
                let mut fence = (superstep as u32).to_le_bytes().to_vec();
                fence.extend_from_slice(&sent.to_le_bytes());
                self.endpoint.send(peer, proto::BSP_FENCE, &fence);
                self.endpoint.flush_to(peer);
            }
        }
        self.endpoint.flush();
        let mut f = self.fence.lock();
        loop {
            let done = (0..self.machines)
                .all(|p| p == self_machine || matches!(f.expected[p], Some(e) if f.got[p] >= e));
            if done {
                // Reset for the next superstep.
                for p in 0..self.machines {
                    f.expected[p] = None;
                    f.got[p] = 0;
                }
                return;
            }
            self.fence_cv.wait(&mut f);
        }
    }

    /// Decode one run frame of hub records (`hub`) or message records and
    /// hand `each` every record's message and ids — after the whole frame,
    /// every message included, has decoded. A frame that does not is
    /// dropped whole and counted.
    fn for_each_record(&self, frame: &[u8], hub: bool, mut each: impl FnMut(&P::Msg, &[CellId])) {
        let decoded = runs::decode(frame, hub).and_then(|run| {
            let msgs: Option<Vec<P::Msg>> =
                run.records().map(|(msg, _)| P::decode_msg(msg)).collect();
            Some((msgs?, run))
        });
        let Some((msgs, run)) = decoded else {
            self.metrics.frames_malformed.inc();
            return;
        };
        for (msg, (_, ids)) in msgs.iter().zip(run.records()) {
            each(msg, ids);
        }
    }

    /// Install this machine's three BSP protocol handlers.
    pub(super) fn register_handlers(self: &Arc<Self>) {
        // Vertex data messages: decode the run, then one lock per shard
        // inbox and one fence update for all of it. A malformed frame is
        // still credited: fences must balance.
        let rt = Arc::clone(self);
        self.endpoint
            .register_batch(proto::BSP_MSG, move |src, frames| {
                let mut staged = vec![Vec::new(); rt.shard_workers];
                for frame in frames {
                    rt.for_each_record(&frame.payload, false, |msg, ids| {
                        for &dst in ids {
                            staged[rt.shard_of(dst)].push((dst, msg.clone()));
                        }
                    });
                }
                rt.deliver_sharded(&mut staged);
                rt.count_frames(src, frames.len());
            });
        // Hub broadcasts: the same run, its ids naming hubs; fan each out
        // through the fan-out index.
        let rt = Arc::clone(self);
        self.endpoint
            .register_batch(proto::BSP_HUB, move |src, frames| {
                // On a lapsed deadline the fan-out is skipped but the
                // frames are still counted: fences must balance or the
                // superstep would hang instead of finishing early.
                if !deadline_expired() {
                    let mut staged = vec![Vec::new(); rt.shard_workers];
                    for frame in frames {
                        rt.for_each_record(&frame.payload, true, |msg, hubs| {
                            for shards in hubs.iter().filter_map(|&hub| rt.fanout.get(hub)) {
                                for (buf, targets) in staged.iter_mut().zip(shards) {
                                    buf.extend(targets.iter().map(|&t| (t, msg.clone())));
                                }
                            }
                        });
                    }
                    let fanned: u64 = staged.iter().map(|b| b.len() as u64).sum();
                    rt.local_deliveries.fetch_add(fanned, Ordering::Relaxed);
                    rt.metrics.hub_fanout.add(fanned);
                    rt.deliver_sharded(&mut staged);
                }
                rt.count_frames(src, frames.len());
            });
        // Fences.
        let rt = Arc::clone(self);
        self.endpoint.register(proto::BSP_FENCE, move |src, data| {
            let count = decode_fence(data).ok()?;
            let mut f = rt.fence.lock();
            *f.expected.get_mut(src.0 as usize)? = Some(count);
            rt.fence_cv.notify_all();
            None
        });
    }
}

/// The pool worker among `shards` that owns `id`.
fn shard_of(table: &AddressingTable, shards: usize, id: CellId) -> usize {
    (table.trunk_of(id) as usize) % shards
}

/// A `BSP_FENCE` record, `superstep u32 | run frames sent u64`: the count.
fn decode_fence(data: &[u8]) -> Result<u64, DecodeError> {
    let mut r = Reader::new(data);
    let (_superstep, count) = (r.u32()?, r.u64()?);
    r.finish().map(|()| count)
}

/// Marks an empty [`Slots`] entry: a slot, never an id, so any id —
/// `u64::MAX` included — can be a key.
const NO_SLOT: usize = usize::MAX;

/// `id → slot`, slots numbered in insertion order: open addressing over
/// the addressing table's mixer, at most half full.
pub(super) struct Slots {
    table: Vec<(CellId, usize)>,
    len: usize,
}

impl Default for Slots {
    fn default() -> Self {
        Slots {
            table: vec![(0, NO_SLOT)],
            len: 0,
        }
    }
}

impl Slots {
    /// The entry holding `id`, or the empty one ending its probe.
    #[inline]
    fn probe(&self, id: CellId) -> usize {
        let mask = self.table.len() - 1;
        let mut i = mix64(id) as usize & mask;
        while self.table[i].1 != NO_SLOT && self.table[i].0 != id {
            i = (i + 1) & mask;
        }
        i
    }

    /// The slot of `id`, if it has one.
    #[inline]
    pub(super) fn get(&self, id: CellId) -> Option<usize> {
        Some(self.table[self.probe(id)].1).filter(|&s| s != NO_SLOT)
    }

    /// The slot of `id`, giving it the next one if it has none.
    fn insert(&mut self, id: CellId) -> usize {
        if (self.len + 1) * 2 > self.table.len() {
            let grown = vec![(0, NO_SLOT); self.table.len() * 2];
            let old = std::mem::replace(&mut self.table, grown);
            for entry in old.into_iter().filter(|e| e.1 != NO_SLOT) {
                let i = self.probe(entry.0);
                self.table[i] = entry;
            }
        }
        let i = self.probe(id);
        if self.table[i].1 == NO_SLOT {
            self.table[i] = (id, self.len);
            self.len += 1;
        }
        self.table[i].1
    }
}

/// One machine's fan-out index for a job: remote vertex → the local
/// vertices that list it as an in-neighbor (once per listing), split by
/// owning shard. It covers every remote in-neighbor, hub or not: a
/// machine cannot see a remote vertex's out-degree. A hub's sender ships
/// a record to every machine its out-list reaches, and on a reverse
/// traversable graph the in-lists agree with the out-lists, so each hub
/// record finds its entry. Entry `e`'s targets in shard `w` are
/// `targets[off[e * shards + w]..off[e * shards + w + 1]]`.
#[derive(Default)]
struct Fanout {
    slots: Slots,
    shards: usize,
    off: Vec<usize>,
    targets: Vec<CellId>,
}

impl Fanout {
    /// One pass over the local adjacency, then a counting sort of its
    /// remote in-edges by (entry, shard).
    fn build(handle: &GraphHandle, table: &AddressingTable, shards: usize) -> Self {
        let me = handle.machine();
        let mut slots = Slots::default();
        let mut edges: Vec<(usize, CellId)> = Vec::new();
        handle.for_each_local_node(|id, view| {
            let shard = shard_of(table, shards, id);
            let mut add = |src: CellId| {
                if table.machine_of(src) != me {
                    edges.push((slots.insert(src) * shards + shard, id));
                }
            };
            // In-neighbors when stored; otherwise the graph is undirected
            // and out-neighbors are the same set.
            if view.has_ins() {
                view.ins().for_each(&mut add);
            } else {
                view.outs().for_each(&mut add);
            }
        });
        // Bucket `b` is counted at `off[b + 1]`; after the prefix sum
        // `off[b]` is its start, then its cursor, which ends at `b + 1`'s
        // start: one rotation puts the starts back.
        let mut off = vec![0; slots.len * shards + 1];
        for &(b, _) in &edges {
            off[b + 1] += 1;
        }
        for b in 1..off.len() {
            off[b] += off[b - 1];
        }
        let mut targets = vec![0; edges.len()];
        for (b, t) in edges {
            targets[off[b]] = t;
            off[b] += 1;
        }
        off.rotate_right(1);
        off[0] = 0;
        Fanout {
            slots,
            shards,
            off,
            targets,
        }
    }

    /// The local targets of `hub`, one slice per shard, if it has any.
    #[inline]
    fn get(&self, hub: CellId) -> Option<impl Iterator<Item = &[CellId]>> {
        let e = self.slots.get(hub)?;
        let off = &self.off[e * self.shards..=(e + 1) * self.shards];
        Some(off.windows(2).map(|w| &self.targets[w[0]..w[1]]))
    }
}

/// One superstep's drained shard inbox, by *slot*: an id's position in the
/// list the inbox was built over. The messages to slot `s` are `run(s)`, in
/// `msg_cmp` order, and those to ids without a slot are `strays`, in
/// `(dst, msg_cmp)` order: each id gets what a stable `(dst, msg_cmp)`
/// sort of the arrivals gives it, but only runs are comparison-sorted.
pub(super) struct Inbox<M> {
    /// `id → slot`, probed once per delivered message.
    pub(super) slots: Slots,
    msgs: Vec<M>,
    /// `off[s]..off[s + 1]` delimits slot `s`'s run in `msgs`.
    off: Vec<usize>,
    pub(super) strays: Vec<(CellId, M)>,
    /// Reusable scratch: each arrival's bucket, then its position.
    dest: Vec<usize>,
}

impl<M> Inbox<M> {
    /// An empty inbox over distinct `ids`: `ids[s]` gets slot `s`.
    pub(super) fn new(ids: &[CellId]) -> Self {
        let mut slots = Slots::default();
        for &id in ids {
            slots.insert(id);
        }
        Inbox {
            slots,
            msgs: Vec::new(),
            off: vec![0; ids.len() + 1],
            strays: Vec::new(),
            dest: Vec::new(),
        }
    }

    /// Replace the contents with the arrivals in `raw`: a stable counting
    /// sort by slot, then a stable sort of each run, and of the strays, by
    /// `cmp`.
    pub(super) fn fill(&mut self, mut raw: Vec<(CellId, M)>, cmp: impl Fn(&M, &M) -> CmpOrdering) {
        // Bucket `strays` follows every slot's. Counting bucket `b` at
        // `off[b + 2]` leaves `off[b + 1]` at its start after the prefix
        // sum, and at the next bucket's start once it has served as `b`'s
        // cursor.
        let strays = self.off.len() - 1;
        self.off.clear();
        self.off.resize(strays + 3, 0);
        self.dest.clear();
        for &(dst, _) in raw.iter() {
            let b = self.slots.get(dst).unwrap_or(strays);
            self.dest.push(b);
            self.off[b + 2] += 1;
        }
        for b in 2..self.off.len() {
            self.off[b] += self.off[b - 1];
        }
        for d in &mut self.dest {
            let b = *d;
            *d = self.off[b + 1];
            self.off[b + 1] += 1;
        }
        self.off.truncate(strays + 1);
        // Move every arrival to its position along the permutation's
        // cycles: swaps only, no message is cloned.
        for i in 0..raw.len() {
            while self.dest[i] != i {
                let j = self.dest[i];
                raw.swap(i, j);
                self.dest.swap(i, j);
            }
        }
        self.strays.clear();
        self.strays.extend(raw.drain(self.off[strays]..));
        self.strays
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| cmp(&a.1, &b.1)));
        self.msgs.clear();
        self.msgs.extend(raw.into_iter().map(|(_, msg)| msg));
        for run in self.off.windows(2) {
            if run[1] - run[0] > 1 {
                self.msgs[run[0]..run[1]].sort_by(&cmp);
            }
        }
    }

    /// Slot `s`'s messages.
    pub(super) fn run(&self, s: usize) -> &[M] {
        &self.msgs[self.off[s]..self.off[s + 1]]
    }
}

/// One destination's run frame under construction, for one protocol
/// (`BSP_MSG`: ids are destination vertices; `BSP_HUB`: ids are hubs).
pub(super) struct RunOutbox {
    peer: MachineId,
    proto: ProtoId,
    frame: Vec<u8>,
    /// The open frame's message width.
    width: usize,
    /// The open frame's last id: the next record's gaps start from it.
    prev: CellId,
    /// Records in `frame`, added to `bsp.records.sent` when it ships.
    records: u64,
    /// Frames shipped (the fence's unit); whoever reads it resets it.
    pub(super) frames: u64,
}

impl RunOutbox {
    pub(super) fn new(peer: usize, proto: ProtoId) -> Self {
        RunOutbox {
            peer: MachineId(peer as u16),
            proto,
            frame: Vec::new(),
            width: 0,
            prev: 0,
            records: 0,
            frames: 0,
        }
    }

    /// Append the record "`msg` to `ids`", in a new frame if the open
    /// one's width is not `msg`'s. The frame ships once it reaches
    /// [`RUN_FLUSH_BYTES`] — or, `unpacked`, at once and its envelope
    /// with it: the naive one-transfer-per-message baseline.
    pub(super) fn push<P: VertexProgram>(
        &mut self,
        rt: &MachineRt<P>,
        superstep: usize,
        unpacked: bool,
        msg: &[u8],
        ids: &[CellId],
    ) {
        if self.frame.is_empty() || msg.len() != self.width {
            self.flush(rt);
            runs::start(&mut self.frame, superstep as u32, msg.len());
            self.width = msg.len();
            self.prev = 0;
        }
        let hub = self.proto == proto::BSP_HUB;
        runs::push_record(&mut self.frame, &mut self.prev, hub, msg, ids);
        self.records += 1;
        if unpacked {
            self.flush(rt);
            rt.endpoint.flush_to(self.peer);
        } else if self.frame.len() >= RUN_FLUSH_BYTES {
            self.flush(rt);
        }
    }

    /// Hand the open frame, if any, to the fabric's pack buffer.
    pub(super) fn flush<P: VertexProgram>(&mut self, rt: &MachineRt<P>) {
        if !self.frame.is_empty() {
            rt.endpoint.send(self.peer, self.proto, &self.frame);
            rt.metrics
                .records_sent
                .add(std::mem::take(&mut self.records));
            self.frame.clear();
            self.frames += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// Ids a shard may be sent: small ones, the same with only high bytes
    /// changed, and `u64::MAX`.
    fn id_pool() -> Vec<CellId> {
        let small = 0..12u64;
        let high = (0..12u64).map(|v| v | 0xab << 56);
        let mid = (0..4u64).map(|v| v | 1 << 40);
        small.chain(high).chain(mid).chain([u64::MAX]).collect()
    }

    const VALUES: [f64; 6] = [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY];

    /// A message is a value and its arrival index; compared by bits so
    /// NaN and the zero signs count.
    type Msg = (f64, usize);

    fn bits(msgs: &[Msg]) -> Vec<(u64, usize)> {
        msgs.iter().map(|&(v, i)| (v.to_bits(), i)).collect()
    }

    /// Fill `inbox` with `arrivals` and hold every slot's run and the
    /// strays to a stable `(dst, cmp)` sort of the arrivals.
    fn check(
        inbox: &mut Inbox<Msg>,
        hosted: &[CellId],
        arrivals: &[(CellId, Msg)],
        cmp: fn(&Msg, &Msg) -> CmpOrdering,
    ) -> Result<(), String> {
        let mut reference = arrivals.to_vec();
        reference.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| cmp(&a.1, &b.1)));
        inbox.fill(arrivals.to_vec(), cmp);
        for (s, &id) in hosted.iter().enumerate() {
            let want: Vec<Msg> = reference
                .iter()
                .filter(|m| m.0 == id)
                .map(|m| m.1)
                .collect();
            prop_assert_eq!(bits(inbox.run(s)), bits(&want), "slot {} (id {:#x})", s, id);
        }
        let strays: Vec<(CellId, Msg)> = reference
            .into_iter()
            .filter(|m| !hosted.contains(&m.0))
            .collect();
        let stray_bits = |v: &[(CellId, Msg)]| -> Vec<(CellId, (u64, usize))> {
            v.iter().map(|&(d, (x, i))| (d, (x.to_bits(), i))).collect()
        };
        prop_assert_eq!(stray_bits(&inbox.strays), stray_bits(&strays));
        Ok(())
    }

    #[test]
    fn a_fence_record_is_exactly_a_superstep_and_a_count() {
        let mut fence = 3u32.to_le_bytes().to_vec();
        fence.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(decode_fence(&fence), Ok(9));
        assert!(decode_fence(&fence[..11]).is_err());
        fence.push(0);
        assert!(decode_fence(&fence).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn inbox_runs_equal_a_stable_dst_then_msg_cmp_sort(
            hosted_bits in any::<u64>(),
            picks in proptest::collection::vec((0..29usize, 0..VALUES.len()), 0..300),
            reorder in any::<u64>(),
        ) {
            let pool = id_pool();
            // Slot order need not be id order: extra slots follow the census.
            let mut hosted: Vec<CellId> = (0..pool.len())
                .filter(|i| hosted_bits >> i & 1 == 1)
                .map(|i| pool[i])
                .collect();
            let turn = reorder as usize % hosted.len().max(1);
            hosted.rotate_left(turn);
            let arrivals: Vec<(CellId, Msg)> = picks
                .iter()
                .enumerate()
                .map(|(i, &(d, v))| (pool[d], (VALUES[v], i)))
                .collect();
            let total: fn(&Msg, &Msg) -> CmpOrdering = |a, b| a.0.total_cmp(&b.0);
            let equal: fn(&Msg, &Msg) -> CmpOrdering = |_, _| CmpOrdering::Equal;
            // One inbox, refilled: nothing of a drain survives into the next.
            let mut inbox = Inbox::new(&hosted);
            for cmp in [total, equal] {
                check(&mut inbox, &hosted, &arrivals, cmp)?;
                let reversed: Vec<_> = arrivals.iter().rev().copied().collect();
                check(&mut inbox, &hosted, &reversed, cmp)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// What hub records rest on: a hub ships one to every peer its
        /// out-list reaches, so every peer `p` must index a remote vertex
        /// `u` exactly when `u` has an out-neighbor on `p`, and fan it out
        /// to exactly those neighbors, repeats included, each in its
        /// owning shard.
        #[test]
        fn the_fanout_index_is_every_remote_vertexs_out_neighbors_here(
            machines in 2..6usize,
            shards in 1..4usize,
            directed in any::<bool>(),
            arcs in proptest::collection::vec((0..40u64, 0..40u64), 0..160),
        ) {
            let n = 40;
            let csr = if directed {
                Csr::from_arcs(n, arcs, true, false)
            } else {
                Csr::undirected_from_edges(n, &arcs, false)
            };
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
            let opts = LoadOptions {
                with_in_links: true,
                attrs: None,
            };
            let graph = load_graph(Arc::clone(&cloud), &csr, &opts).unwrap();
            let table = cloud.node(0).table();
            let owner = |v: CellId| table.machine_of(v).0 as usize;
            for p in 0..machines {
                let fanout = Fanout::build(graph.handle(p), &table, shards);
                for u in (0..n as CellId).filter(|&u| owner(u) != p) {
                    let mut want = vec![Vec::new(); shards];
                    for &v in csr.neighbors(u).iter().filter(|&&v| owner(v) == p) {
                        want[shard_of(&table, shards, v)].push(v);
                    }
                    want.iter_mut().for_each(|t| t.sort_unstable());
                    let want = want.iter().any(|t| !t.is_empty()).then_some(want);
                    let got: Option<Vec<Vec<CellId>>> = fanout.get(u).map(|slices| {
                        slices
                            .map(|t| {
                                let mut t = t.to_vec();
                                t.sort_unstable();
                                t
                            })
                            .collect()
                    });
                    prop_assert_eq!(got, want, "vertex {} on machine {}", u, p);
                }
            }
            cloud.shutdown();
        }
    }
}
