//! The BSP message path, from a worker's broadcast to the shard inboxes
//! its neighbors' owners drain. Sending: a [`RunOutbox`] per (worker,
//! destination machine) builds [`super::runs`] frames of hub records, and
//! the sender's own machine gets the broadcast as local *casts*.
//! Receiving: a batch handler validates each frame whole, rebuilds and
//! decodes every record's message once, stages it as one cast per shard
//! its hub's entry in the machine's [`Fanout`] index reaches, and credits
//! the fence. Draining: an [`Inbox`] expands every cast into the runs of
//! the slots it targets.

use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use trinity_memcloud::{AddressingTable, CellId};
use trinity_memstore::codec::{DecodeError, Reader};
use trinity_memstore::hash::mix64;
use trinity_net::{deadline_expired, Endpoint, MachineId};
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
    /// Hub records sent (`bsp.records.sent`).
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

/// One shard's arrivals for the next superstep: *casts* `(targets, msg)`,
/// a broadcast once per shard it reaches, which the drain expands to the
/// slots a range of a target list names (the fan-out index's; a resumed
/// job's first inbox uses its own).
pub(super) type Arrivals<M> = Vec<(Range<usize>, M)>;

/// One machine's receive-side state for a job.
pub(super) struct MachineRt<P: VertexProgram> {
    pub(super) endpoint: Arc<Endpoint>,
    /// Per shard, `id → slot`: sharding is `trunk_of(dst) % shards`, a
    /// pure function of the id, so receive handlers can route a message
    /// to its owning worker's slot without any setup handshake. Built
    /// before the handlers are installed and read-only after.
    pub(super) slots: Vec<Slots>,
    /// Per-worker inboxes for the *next* superstep, which the owning
    /// worker drains into an [`Inbox`].
    pub(super) inboxes: Vec<Mutex<Arrivals<P::Msg>>>,
    pub(super) local_deliveries: AtomicU64,
    fence: Mutex<FenceState>,
    fence_cv: Condvar,
    /// Vertex → the local vertices its broadcast reaches; built before
    /// the handlers are installed and read-only after.
    pub(super) fanout: Fanout,
    /// Per fan-out entry, the [`runs::base`] of its hub's last record. An
    /// entry gets at most one record a superstep, and the fence (its lock,
    /// then the job barrier) orders every frame of a superstep before any
    /// of the next: that, not the atomics, publishes a base, so relaxed.
    bases: Vec<AtomicU64>,
    pub(super) metrics: BspMetrics,
}

impl<P: VertexProgram> MachineRt<P> {
    /// A machine's runtime over one `id → slot` table per shard and its
    /// fan-out index.
    pub(super) fn new(
        endpoint: Arc<Endpoint>,
        machines: usize,
        slots: Vec<Slots>,
        fanout: Fanout,
    ) -> Self {
        MachineRt {
            metrics: BspMetrics::new(&endpoint),
            endpoint,
            inboxes: slots.iter().map(|_| Mutex::default()).collect(),
            slots,
            local_deliveries: AtomicU64::new(0),
            fence: Mutex::new(FenceState {
                expected: vec![None; machines],
                got: vec![0; machines],
            }),
            fence_cv: Condvar::new(),
            bases: (0..fanout.entries.len).map(|_| AtomicU64::new(0)).collect(),
            fanout,
        }
    }

    /// Empty staging buffers, one per shard.
    pub(super) fn staging(&self) -> Vec<Arrivals<P::Msg>> {
        self.slots.iter().map(|_| Arrivals::new()).collect()
    }

    /// Stage the broadcast of fan-out entry `e` as one cast per shard
    /// holding targets of it; returns the targets reached.
    fn stage_cast(&self, staged: &mut [Arrivals<P::Msg>], e: usize, msg: &P::Msg) -> u64 {
        let mut reached = 0;
        for (shard, buf) in staged.iter_mut().enumerate() {
            let targets = self.fanout.range(e, shard);
            if !targets.is_empty() {
                reached += targets.len() as u64;
                buf.push((targets, msg.clone()));
            }
        }
        reached
    }

    /// Hand staged deliveries to the shard inboxes: each inbox lock is
    /// taken once per call.
    pub(super) fn deliver_sharded(&self, staged: &mut [Arrivals<P::Msg>]) {
        for (shard, buf) in staged.iter_mut().enumerate() {
            self.spill(buf, shard, 1);
        }
    }

    /// Move `buf` into shard `shard`'s inbox once it holds `at` arrivals.
    fn spill(&self, buf: &mut Arrivals<P::Msg>, shard: usize, at: usize) {
        if buf.len() >= at {
            self.inboxes[shard].lock().append(buf);
        }
    }

    /// Buffer `src`'s broadcast to its local out-neighbors — the local
    /// vertices whose in-edges list it — as casts; returns the neighbors
    /// reached.
    pub(super) fn cast_local(
        &self,
        local_buf: &mut [Arrivals<P::Msg>],
        src: CellId,
        msg: &P::Msg,
    ) -> u64 {
        let Some(e) = self.fanout.entry(src) else {
            return 0;
        };
        let reached = self.stage_cast(local_buf, e, msg);
        for (shard, buf) in local_buf.iter_mut().enumerate() {
            self.spill(buf, shard, LOCAL_CHUNK);
        }
        reached
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
            let done = (0..frames_to.len())
                .all(|p| p == self_machine || matches!(f.expected[p], Some(e) if f.got[p] >= e));
            if done {
                // Reset for the next superstep.
                f.expected.fill(None);
                f.got.fill(0);
                return;
            }
            self.fence_cv.wait(&mut f);
        }
    }

    /// Decode one run frame and hand `each` every record's message and
    /// its hub's fan-out entry — after the whole frame, every message
    /// included, has decoded; else drop it whole and count it. A record is
    /// rebuilt from its entry's base, which moves unless the codec refuses
    /// the frame (the sender's moved); one whose hub no local in-edge
    /// lists reaches no one and is skipped.
    fn for_each_record(&self, frame: &[u8], mut each: impl FnMut(&P::Msg, usize)) {
        let Some(run) = runs::decode(frame) else {
            self.metrics.frames_malformed.inc();
            return;
        };
        let (mut msgs, mut rebuilt, mut refused) = (Vec::new(), Vec::new(), false);
        for &(delta, hub) in &run.records {
            let Some(e) = self.fanout.entry(hub) else {
                continue;
            };
            let base = &self.bases[e];
            let last = base.load(Ordering::Relaxed);
            base.store(run.rebuild(delta, last, &mut rebuilt), Ordering::Relaxed);
            match P::decode_msg(&rebuilt) {
                Some(msg) => msgs.push((msg, e)),
                None => refused = true,
            }
        }
        if refused {
            self.metrics.frames_malformed.inc();
            return;
        }
        for (msg, e) in &msgs {
            each(msg, *e);
        }
    }

    /// Install this machine's two BSP protocol handlers, which hold the
    /// runtime weakly: they drop what arrives once its job has ended.
    pub(super) fn register_handlers(self: &Arc<Self>) {
        // Run frames: decode the run, stage each record as one cast per
        // shard its hub's fan-out entry reaches, then one lock per shard
        // inbox and one fence update for all of it. A malformed frame is
        // still credited, and so, on a lapsed deadline, is a frame whose
        // fan-out is skipped (its bases still move): fences must balance
        // or the superstep would hang instead of finishing early.
        let rt = Arc::downgrade(self);
        self.endpoint
            .register_batch(proto::BSP_HUB, move |src, frames| {
                let Some(rt) = rt.upgrade() else {
                    return;
                };
                let fan_out = !deadline_expired();
                let mut staged = rt.staging();
                let mut fanned = 0;
                for frame in frames {
                    rt.for_each_record(&frame.payload, |msg, e| {
                        if fan_out {
                            fanned += rt.stage_cast(&mut staged, e, msg);
                        }
                    });
                }
                rt.local_deliveries.fetch_add(fanned, Ordering::Relaxed);
                rt.metrics.hub_fanout.add(fanned);
                rt.deliver_sharded(&mut staged);
                rt.count_frames(src, frames.len());
            });
        // Fences.
        let rt = Arc::downgrade(self);
        self.endpoint.register(proto::BSP_FENCE, move |src, data| {
            let rt = rt.upgrade()?;
            let count = decode_fence(data).ok()?;
            let mut f = rt.fence.lock();
            *f.expected.get_mut(src.0 as usize)? = Some(count);
            rt.fence_cv.notify_all();
            None
        });
    }
}

/// The pool worker among `shards` that owns `id`.
pub(super) fn shard_of(table: &AddressingTable, shards: usize, id: CellId) -> usize {
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
    /// The table over distinct `ids`: `ids[s]` gets slot `s`.
    pub(super) fn new(ids: &[CellId]) -> Self {
        let mut slots = Slots::default();
        for &id in ids {
            slots.insert(id);
        }
        slots
    }

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

    /// Renumber the slots in id order; returns each old slot's new one.
    fn renumber_by_id(&mut self) -> Vec<usize> {
        let mut order: Vec<(CellId, usize)> = self
            .table
            .iter()
            .copied()
            .filter(|e| e.1 != NO_SLOT)
            .collect();
        order.sort_unstable();
        let mut rank = vec![0; self.len];
        for (new, &(_, old)) in order.iter().enumerate() {
            rank[old] = new;
        }
        for e in self.table.iter_mut().filter(|e| e.1 != NO_SLOT) {
            e.1 = rank[e.1];
        }
        rank
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

/// One machine's fan-out index for a job: vertex → the local vertices
/// that list it as an in-neighbor (once per listing), as slots of their
/// owning shards. It covers every in-edge, local sources included: a
/// broadcast reaches this machine as one cast, whether a hub record
/// brought it or a local vertex sent it. A hub's sender ships a record to
/// every machine its out-list reaches, and on a reverse traversable graph
/// the in-lists agree with the out-lists, so each cast finds its entry.
/// Entry `e`'s targets in shard `w` are
/// `targets[off[e * shards + w]..off[e * shards + w + 1]]`.
pub(super) struct Fanout {
    entries: Slots,
    shards: usize,
    off: Vec<usize>,
    /// Slots; a shard holds fewer than 2^32.
    pub(super) targets: Vec<u32>,
}

impl Fanout {
    /// The index over `ins`, each local vertex with its in-neighbors as
    /// the census read them: a counting sort of the in-edges by (entry,
    /// shard).
    pub(super) fn build(
        ins: &[(CellId, &[CellId])],
        table: &AddressingTable,
        slots: &[Slots],
    ) -> Self {
        let shards = slots.len();
        let mut entries = Slots::default();
        let mut edges: Vec<(usize, u32)> = Vec::new();
        for &(id, srcs) in ins {
            let shard = shard_of(table, shards, id);
            let Some(slot) = slots[shard].get(id) else {
                continue;
            };
            for &src in srcs {
                edges.push((entries.insert(src) * shards + shard, slot as u32));
            }
        }
        // Entries in id order: a hub frame lists its senders ascending, so
        // the casts it stages read `off` and `targets` front to back.
        let rank = entries.renumber_by_id();
        for (b, _) in &mut edges {
            *b = rank[*b / shards] * shards + *b % shards;
        }
        // Bucket `b` is counted at `off[b + 1]`; after the prefix sum
        // `off[b]` is its start, then its cursor, which ends at `b + 1`'s
        // start: one rotation puts the starts back.
        let mut off = vec![0; entries.len * shards + 1];
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
            entries,
            shards,
            off,
            targets,
        }
    }

    /// `src`'s entry, if a local vertex lists it as an in-neighbor.
    #[inline]
    pub(super) fn entry(&self, src: CellId) -> Option<usize> {
        self.entries.get(src)
    }

    /// Where entry `e`'s targets in shard `shard` lie in `targets`.
    #[inline]
    fn range(&self, e: usize, shard: usize) -> Range<usize> {
        let b = e * self.shards + shard;
        self.off[b]..self.off[b + 1]
    }
}

/// One superstep's drained shard inbox, by *slot*: an id's position in the
/// list the shard was built over. The messages to slot `s` are `run(s)`, in
/// `msg_cmp` order: each slot gets what a stable `(dst, msg_cmp)` sort of
/// the expanded arrivals gives it, but only runs are comparison-sorted.
pub(super) struct Inbox<M> {
    msgs: Vec<M>,
    /// `off[s]..off[s + 1]` delimits slot `s`'s run in `msgs`.
    off: Vec<usize>,
}

impl<M: Clone> Inbox<M> {
    /// An empty inbox over `slots` slots.
    pub(super) fn new(slots: usize) -> Self {
        Inbox {
            msgs: Vec::new(),
            off: vec![0; slots + 1],
        }
    }

    /// Replace the contents with `casts`, each going to the slots its
    /// range of `targets` lists: a counting sort by slot that moves or
    /// clones each cast's message once into its run, then a stable sort of
    /// each run by `cmp`. A run holds its casts' messages in arrival order.
    pub(super) fn fill(
        &mut self,
        casts: Arrivals<M>,
        targets: &[u32],
        cmp: impl Fn(&M, &M) -> CmpOrdering,
    ) {
        // Counting slot `s` at `off[s + 2]` leaves `off[s + 1]` at its
        // start after the prefix sum, and at the next slot's start once it
        // has served as `s`'s cursor.
        let slots = self.off.len() - 1;
        self.off.clear();
        self.off.resize(slots + 2, 0);
        for (range, _) in &casts {
            for &t in &targets[range.clone()] {
                self.off[t as usize + 2] += 1;
            }
        }
        for s in 2..self.off.len() {
            self.off[s] += self.off[s - 1];
        }
        // Every position below `total` is written exactly once: a grown
        // buffer is padded with the first message first.
        let total = self.off[slots + 1];
        self.msgs.truncate(total);
        if let Some((_, pad)) = casts.first() {
            self.msgs.resize(total, pad.clone());
        }
        let (off, msgs) = (&mut self.off, &mut self.msgs);
        let mut place = |s: usize, msg: M| {
            msgs[off[s + 1]] = msg;
            off[s + 1] += 1;
        };
        for (range, msg) in casts {
            if let Some((&last, rest)) = targets[range].split_last() {
                for &t in rest {
                    place(t as usize, msg.clone());
                }
                place(last as usize, msg);
            }
        }
        self.off.truncate(slots + 1);
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

/// One destination's run frame under construction.
pub(super) struct RunOutbox {
    peer: MachineId,
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
    pub(super) fn new(peer: usize) -> Self {
        RunOutbox {
            peer: MachineId(peer as u16),
            frame: Vec::new(),
            width: 0,
            prev: 0,
            records: 0,
            frames: 0,
        }
    }

    /// Append hub `id`'s record of `msg`, XORed against `base`, the
    /// hub's last, in a new frame if the open one's width is not `msg`'s.
    /// The frame ships once it reaches [`RUN_FLUSH_BYTES`].
    pub(super) fn push<P: VertexProgram>(
        &mut self,
        rt: &MachineRt<P>,
        superstep: usize,
        msg: &[u8],
        id: CellId,
        base: u64,
    ) {
        if self.frame.is_empty() || msg.len() != self.width {
            self.flush(rt);
            runs::start(&mut self.frame, superstep as u32, msg.len());
            self.width = msg.len();
            self.prev = 0;
        }
        runs::push_hub(&mut self.frame, &mut self.prev, base, msg, id);
        self.records += 1;
        if self.frame.len() >= RUN_FLUSH_BYTES {
            self.flush(rt);
        }
    }

    /// Hand the open frame, if any, to the fabric's pack buffer.
    pub(super) fn flush<P: VertexProgram>(&mut self, rt: &MachineRt<P>) {
        if !self.frame.is_empty() {
            rt.endpoint.send(self.peer, proto::BSP_HUB, &self.frame);
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

    const VALUES: [f64; 6] = [0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY];

    /// A message is a value and its sender; compared by bits so NaN and
    /// the zero signs count.
    type Msg = (f64, usize);

    fn bits(msgs: &[Msg]) -> Vec<(u64, usize)> {
        msgs.iter().map(|&(v, i)| (v.to_bits(), i)).collect()
    }

    /// Fill `inbox` over `slots` slots from `sent`, casts of entry `e` to
    /// the slots `fans[e]` lists, laid end to end as one target vector,
    /// and hold every slot's run to a stable `cmp` sort of the messages
    /// the casts bring it, in arrival order.
    fn check(
        inbox: &mut Inbox<Msg>,
        slots: usize,
        fans: &[Vec<u32>],
        sent: &[(usize, Msg)],
        cmp: fn(&Msg, &Msg) -> CmpOrdering,
    ) -> Result<(), String> {
        let targets = fans.concat();
        let starts: Vec<usize> = fans
            .iter()
            .scan(0, |at, f| Some(std::mem::replace(at, *at + f.len())))
            .collect();
        let casts = sent
            .iter()
            .map(|&(e, msg)| (starts[e]..starts[e] + fans[e].len(), msg))
            .collect();
        inbox.fill(casts, &targets, cmp);
        for s in 0..slots {
            let mut want: Vec<Msg> = Vec::new();
            for &(e, msg) in sent {
                let hits = fans[e].iter().filter(|&&t| t as usize == s).count();
                want.extend(std::iter::repeat_n(msg, hits));
            }
            want.sort_by(cmp);
            prop_assert_eq!(bits(inbox.run(s)), bits(&want), "slot {}", s);
        }
        Ok(())
    }

    /// `u64` messages; the all-ones pattern is refused.
    struct Values;

    impl VertexProgram for Values {
        type State = ();
        type Msg = u64;
        fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) {}
        fn compute(
            &self,
            _: &mut super::super::VertexContext<'_, u64>,
            _: CellId,
            _: &mut (),
            _: &[u64],
        ) {
        }
        fn encode_msg(m: &u64) -> Vec<u8> {
            m.to_le_bytes().to_vec()
        }
        fn decode_msg(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?)).filter(|&v| v != u64::MAX)
        }
        fn encode_state(_: &()) -> Vec<u8> {
            Vec::new()
        }
        fn decode_state(_: &[u8]) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn a_hub_frame_moves_its_bases_unless_the_codec_refuses_it() {
        // One local vertex, 5, lists one hub, 3.
        let cloud = MemoryCloud::new(CloudConfig::small(2));
        let table = cloud.node(0).table();
        let slots = vec![Slots::new(&[5])];
        let fanout = Fanout::build(&[(5, &[3][..])], &table, &slots);
        let endpoint = Arc::clone(cloud.node(0).endpoint());
        let rt = MachineRt::<Values>::new(endpoint, 2, slots, fanout);
        // Hub 3's frame of one record, `value` against `base`.
        let frame = |base: u64, value: u64| {
            let mut frame = Vec::new();
            runs::start(&mut frame, 0, 8);
            runs::push_hub(&mut frame, &mut 0, base, &value.to_le_bytes(), 3);
            frame
        };
        let got = |frame: &[u8]| {
            let mut got = Vec::new();
            rt.for_each_record(frame, |&msg, e| got.push((msg, e)));
            got
        };
        let malformed = || rt.metrics.frames_malformed.get();
        // Hub 3 is the fan-out's one entry, 0.
        assert_eq!(got(&frame(0, 7)), [(7, 0)]);
        // A frame the codec refuses moves no base: the record against 7
        // that follows rebuilds.
        let next = frame(7, 8);
        assert!(got(&next[..next.len() - 1]).is_empty());
        assert_eq!(malformed(), 1);
        assert_eq!(got(&next), [(8, 0)]);
        // One whose message `decode_msg` refuses is dropped and counted,
        // but moves its base, as its sender's moved.
        assert!(got(&frame(8, u64::MAX)).is_empty());
        assert_eq!(malformed(), 2);
        assert_eq!(got(&frame(u64::MAX, 3)), [(3, 0)]);
        // A repeated value is the head byte alone (hub 3's gap fits it).
        let repeat = frame(3, 3);
        assert_eq!(repeat.len(), 4 + 1 + 1);
        assert_eq!(got(&repeat), [(3, 0)]);
        // A hub no local vertex lists reaches no one here.
        let mut unlisted = Vec::new();
        runs::start(&mut unlisted, 0, 8);
        runs::push_hub(&mut unlisted, &mut 0, 0, &4u64.to_le_bytes(), 6);
        assert!(got(&unlisted).is_empty());
        assert_eq!(malformed(), 2);
        cloud.shutdown();
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
            slots in 0..20usize,
            fan_picks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..6),
                1..5,
            ),
            picks in proptest::collection::vec((0..8usize, 0..VALUES.len(), 1..4usize), 0..120),
        ) {
            // Each entry's targets: slots, repeats allowed, or none.
            let fans: Vec<Vec<u32>> = fan_picks
                .iter()
                .map(|f| {
                    f.iter()
                        .filter(|_| slots > 0)
                        .map(|&t| (t as usize % slots) as u32)
                        .collect()
                })
                .collect();
            // Each pick is one value cast by `senders` senders in a row:
            // equal values, told apart only by the sender.
            let mut sent: Vec<(usize, Msg)> = Vec::new();
            for &(e, v, senders) in &picks {
                for k in 0..senders {
                    let sender = sent.len();
                    sent.push(((e + k) % fans.len(), (VALUES[v], sender)));
                }
            }
            let total: fn(&Msg, &Msg) -> CmpOrdering = |a, b| a.0.total_cmp(&b.0);
            let equal: fn(&Msg, &Msg) -> CmpOrdering = |_, _| CmpOrdering::Equal;
            // One inbox, refilled: nothing of a drain survives into the next.
            let mut inbox = Inbox::new(slots);
            for cmp in [total, equal] {
                check(&mut inbox, slots, &fans, &sent, cmp)?;
                let reversed: Vec<_> = sent.iter().rev().copied().collect();
                check(&mut inbox, slots, &fans, &reversed, cmp)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// What casts rest on: a hub ships a record to every peer its
        /// out-list reaches and casts to its own machine, so every machine
        /// `p` must index a vertex `u`, local or remote, exactly when `u`
        /// has an out-neighbor on `p`, and fan it out to exactly those
        /// neighbors' slots, repeats included, each in its owning shard.
        #[test]
        fn the_fanout_index_is_every_vertexs_out_neighbors_here(
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
                // The runner's census: local ids ascending, split by shard.
                let mut ids = vec![Vec::new(); shards];
                let mut local = Vec::new();
                graph.handle(p).for_each_local_node(|id, _| local.push(id));
                local.sort_unstable();
                for id in local {
                    ids[shard_of(&table, shards, id)].push(id);
                }
                let slots: Vec<Slots> = ids.iter().map(|ids| Slots::new(ids)).collect();
                let mut ins = Vec::new();
                graph.handle(p).for_each_local_node(|id, view| {
                    let srcs: Vec<CellId> = if view.has_ins() {
                        view.ins().collect()
                    } else {
                        view.outs().collect()
                    };
                    ins.push((id, srcs));
                });
                let ins: Vec<(CellId, &[CellId])> =
                    ins.iter().map(|(id, srcs)| (*id, srcs.as_slice())).collect();
                let fanout = Fanout::build(&ins, &table, &slots);
                for u in 0..n as CellId {
                    let mut want = vec![Vec::new(); shards];
                    for &v in csr.neighbors(u).iter().filter(|&&v| owner(v) == p) {
                        let w = shard_of(&table, shards, v);
                        want[w].push(slots[w].get(v).unwrap() as u32);
                    }
                    want.iter_mut().for_each(|t| t.sort_unstable());
                    let want = want.iter().any(|t| !t.is_empty()).then_some(want);
                    let got: Option<Vec<Vec<u32>>> = fanout.entry(u).map(|e| {
                        (0..shards)
                            .map(|w| {
                                let mut t = fanout.targets[fanout.range(e, w)].to_vec();
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
