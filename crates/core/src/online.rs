//! Traversal-based online query processing (paper §5.1).
//!
//! Online queries explore the neighborhood of a node — the paper's
//! motivating example is the *David problem*: find anyone named David
//! within 3 hops of a user in a social network. No practical index covers
//! such queries on a web-scale graph; Trinity instead relies on fast
//! random access plus parallel machine fan-out.
//!
//! A query runs where it starts: [`explore_via`] ships it whole in one
//! `EXPLORE` call to its start node's owner, which explores level by level.
//! Each round it sends every other machine owning part of the frontier one
//! batched `EXPAND` request and expands its own share in place meanwhile
//! ([`Endpoint::call_many_while`]); every machine reads purely local,
//! zero-copy node cells and returns exactly what the round asks for —
//! attribute matches when there is a pattern, the discovered neighbors when
//! another hop will consume them. The last level is therefore only checked
//! for matches, and a round that could return neither is not issued at
//! all. Each hop costs one parallel fan-out round — which is why 3-hop
//! queries over millions of reachable nodes return in the tens of
//! milliseconds.
//!
//! Wire formats (DESIGN §10): a flags byte, varints, and strictly ascending
//! id lists as varint `count | first | gap…`; the decoders reject anything
//! else, and every varint and count follows DESIGN "Byte formats".

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use trinity_graph::GraphHandle;
use trinity_memcloud::{AddressingTable, CellId, MemoryCloud};
use trinity_memstore::codec::{put_varint, DecodeError, Reader};
use trinity_memstore::hash::IdBuildHasher;
use trinity_net::{
    current_deadline, deadline_expired, deadline_now_us, remaining_us, CancelToken, DeadlineGuard,
    Endpoint, FrameBuf, MachineId, NetError, ProtoId, NO_DEADLINE,
};
use trinity_obs::{current_trace, next_trace_id, MachineScope, TraceGuard, NO_TRACE};

use crate::proto;

/// How a query is shipped to its start node's owner: one call, one
/// result. The serving runtime injects its request coalescer here so
/// identical in-flight queries merge into one; the default is a plain
/// [`Endpoint::call`].
pub type CallHook =
    Arc<dyn Fn(MachineId, ProtoId, &[u8]) -> trinity_net::Result<FrameBuf> + Send + Sync>;

/// Per-query controls for an exploration.
#[derive(Clone, Default)]
pub struct ExploreOptions {
    /// Absolute deadline (µs on the [`trinity_net::deadline_now_us`]
    /// clock), shipped with the query. `None` inherits the calling
    /// thread's deadline, if any.
    pub deadline: Option<u64>,
    /// Cooperative cancellation, checked before the query ships (a token
    /// is process-local; a shipped query is bounded by its deadline).
    pub cancel: Option<CancelToken>,
    /// Override for shipping the query (request coalescing).
    pub call: Option<CallHook>,
}

impl std::fmt::Debug for ExploreOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreOptions")
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.is_some())
            .field("call", &self.call.is_some())
            .finish()
    }
}

/// Result of one exploration query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplorationResult {
    /// Nodes visited, per hop (index 0 is the start node).
    pub per_hop: Vec<usize>,
    /// Ids whose attributes matched the search pattern (empty when no
    /// pattern was given).
    pub matches: Vec<CellId>,
    /// Batched expand requests issued: one per (round, owning machine),
    /// the owner's own in-place batch included.
    pub batches: usize,
    /// The query's deadline budget ran out mid-flight: `per_hop` and
    /// `matches` cover only the hops completed before expiry.
    pub deadline_exceeded: bool,
    /// The query was cancelled before it shipped; results are partial.
    pub cancelled: bool,
    /// Fan-out batches lost to anything but the deadline: the owner was
    /// unreachable, the call failed, or the reply did not decode. Non-zero
    /// means `per_hop` and `matches` miss those machines' share of the
    /// frontier; a query lost on its way to the start's owner counts one.
    pub failed_batches: usize,
}

impl ExplorationResult {
    /// Total nodes visited.
    pub fn visited(&self) -> usize {
        self.per_hop.iter().sum()
    }
}

/// `EXPAND` request flag: the owner will consume this round's neighbors.
const WANT_NEIGHBORS: u8 = 1;
/// `EXPAND` reply flag: the scan stopped at the envelope deadline, so the
/// lists cover only a prefix of the batch.
const TRUNCATED: u8 = 1;
/// `EXPLORE` request flag: the caller set a deadline of its own.
const BUDGETED: u8 = 1;
/// `EXPLORE` reply flag: the result's `deadline_exceeded`.
const DEADLINE_EXCEEDED: u8 = 1;

/// A strictly ascending id list: count, first id, then the gaps.
fn put_ids(out: &mut Vec<u8>, ids: &[CellId]) {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
    put_varint(out, ids.len() as u64);
    let mut prev = 0;
    for &id in ids {
        put_varint(out, id - prev);
        prev = id;
    }
}

/// The flags byte, which may carry `flag` and nothing else.
fn take_flag(r: &mut Reader, flag: u8) -> Result<bool, DecodeError> {
    let flags = r.u8()?;
    (flags & !flag == 0)
        .then_some(flags == flag)
        .ok_or_else(|| r.error())
}

fn take_usize(r: &mut Reader) -> Result<usize, DecodeError> {
    let v = r.varint()?;
    usize::try_from(v).map_err(|_| r.error())
}

fn take_ids(r: &mut Reader) -> Result<Vec<CellId>, DecodeError> {
    // Every id costs at least one byte.
    let n = r.varint()?;
    let n = r.count(n, 1)?;
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let gap = r.varint()?;
        prev = prev
            .checked_add(gap)
            .filter(|_| gap > 0 || i == 0)
            .ok_or_else(|| r.error())?;
        ids.push(prev);
    }
    Ok(ids)
}

fn encode_request(want_neighbors: bool, pattern: &[u8], ids: &[CellId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + pattern.len() + ids.len() * 2);
    out.push(if want_neighbors { WANT_NEIGHBORS } else { 0 });
    put_varint(&mut out, pattern.len() as u64);
    out.extend_from_slice(pattern);
    put_ids(&mut out, ids);
    out
}

fn decode_request(data: &[u8]) -> Result<(bool, &[u8], Vec<CellId>), DecodeError> {
    let mut r = Reader::new(data);
    let want_neighbors = take_flag(&mut r, WANT_NEIGHBORS)?;
    let plen = r.varint()?;
    let pattern = r.take(r.count(plen, 1)?)?;
    let ids = take_ids(&mut r)?;
    r.finish()?;
    Ok((want_neighbors, pattern, ids))
}

fn encode_reply(truncated: bool, matches: &[CellId], neighbors: &[CellId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + (matches.len() + neighbors.len()) * 2);
    out.push(if truncated { TRUNCATED } else { 0 });
    put_ids(&mut out, matches);
    put_ids(&mut out, neighbors);
    out
}

fn decode_reply(data: &[u8]) -> Result<(bool, Vec<CellId>, Vec<CellId>), DecodeError> {
    let mut r = Reader::new(data);
    let truncated = take_flag(&mut r, TRUNCATED)?;
    let matches = take_ids(&mut r)?;
    let neighbors = take_ids(&mut r)?;
    r.finish()?;
    Ok((truncated, matches, neighbors))
}

fn encode_query(budgeted: bool, hops: usize, pattern: &[u8], start: CellId) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + pattern.len());
    out.push(if budgeted { BUDGETED } else { 0 });
    put_varint(&mut out, hops as u64);
    put_varint(&mut out, pattern.len() as u64);
    out.extend_from_slice(pattern);
    put_varint(&mut out, start);
    out
}

fn decode_query(data: &[u8]) -> Result<(bool, usize, &[u8], CellId), DecodeError> {
    let mut r = Reader::new(data);
    let budgeted = take_flag(&mut r, BUDGETED)?;
    let hops = take_usize(&mut r)?;
    let plen = r.varint()?;
    let pattern = r.take(r.count(plen, 1)?)?;
    let start = r.varint()?;
    r.finish()?;
    Ok((budgeted, hops, pattern, start))
}

fn encode_result(r: &ExplorationResult) -> Vec<u8> {
    let mut out = vec![u8::from(r.deadline_exceeded) * DEADLINE_EXCEEDED];
    let counts = [r.batches, r.failed_batches, r.per_hop.len()];
    for n in counts.into_iter().chain(r.per_hop.iter().copied()) {
        put_varint(&mut out, n as u64);
    }
    put_ids(&mut out, &r.matches);
    out
}

fn decode_result(data: &[u8]) -> Result<ExplorationResult, DecodeError> {
    let mut r = Reader::new(data);
    let deadline_exceeded = take_flag(&mut r, DEADLINE_EXCEEDED)?;
    let [batches, failed_batches] = [take_usize(&mut r)?, take_usize(&mut r)?];
    // Every level costs at least one byte, and the start's is always there.
    let levels = r.varint()?;
    let per_hop: Vec<usize> = (0..r.count(levels, 1)?)
        .map(|_| take_usize(&mut r))
        .collect::<Result<_, _>>()?;
    if per_hop.is_empty() {
        return Err(r.error());
    }
    let matches = take_ids(&mut r)?;
    r.finish()?;
    Ok(ExplorationResult {
        per_hop,
        matches,
        batches,
        deadline_exceeded,
        cancelled: false,
        failed_batches,
    })
}

/// Frontiers below this size expand serially: spawning a pool costs more
/// than scanning a few hundred ids.
const PARALLEL_FRONTIER: usize = 256;

/// The distributed exploration engine. One instance serves a whole
/// cluster: handlers are installed on every slave at construction.
#[derive(Debug)]
pub struct Explorer {
    cloud: Arc<MemoryCloud>,
}

impl Explorer {
    /// Install the exploration protocol on every slave of the cloud: the
    /// `EXPLORE` handler that runs a whole query, and the `EXPAND` handler
    /// that answers one batch of it. Each slave's expansion pool is
    /// trunk-aligned: one worker per hosted trunk, capped by the host's
    /// parallelism.
    pub fn install(cloud: Arc<MemoryCloud>) -> Arc<Self> {
        for m in 0..cloud.machines() {
            let node = cloud.node(m);
            let handle = GraphHandle::new(Arc::clone(node));
            let trunks = node.table().trunks_of(MachineId(m as u16)).len();
            let workers = crate::bsp::resolve_compute_threads(0, trunks);
            let expand = handle.clone();
            node.endpoint().register(proto::EXPAND, move |_src, data| {
                expand_local(&expand, data, workers)
            });
            node.endpoint().register(proto::EXPLORE, move |_src, data| {
                Some(answer_query(&handle, workers, data))
            });
        }
        Arc::new(Explorer { cloud })
    }

    /// Expand the `hops`-neighborhood of `start`, asked from machine
    /// `from`; it runs at the start's owner, through a loopback call when
    /// that is `from`. With a `pattern`, node attributes containing the
    /// pattern bytes are reported as matches (substring match — the
    /// people-search predicate).
    pub fn explore(
        &self,
        from: usize,
        start: CellId,
        hops: usize,
        pattern: &[u8],
    ) -> ExplorationResult {
        let node = self.cloud.node(from);
        let (table, opts) = (node.table(), ExploreOptions::default());
        explore_via(node.endpoint(), &table, 0, start, hops, pattern, &opts)
    }
}

/// Run one query from any fabric endpoint — a slave, or a Trinity *proxy*
/// that owns no trunks (the serving runtime). It ships in one `EXPLORE`
/// call (through `opts.call` when set) to the machine `table` names as the
/// owner of `start`, which runs every round with its own table. `_slaves`
/// is unused; `benchmark/` still passes it.
pub fn explore_via(
    coordinator: &Arc<Endpoint>,
    table: &AddressingTable,
    _slaves: usize,
    start: CellId,
    hops: usize,
    pattern: &[u8],
    opts: &ExploreOptions,
) -> ExplorationResult {
    // One trace id per query, carried to the owner and on to every serving
    // machine; a trace the serving runtime installed is reused.
    let _trace_guard = TraceGuard::enter(match current_trace() {
        NO_TRACE => next_trace_id(),
        t => t,
    });
    // The per-query deadline (if given), else the thread's own: the call
    // stamps it into the envelope.
    let _deadline_guard = opts.deadline.map(DeadlineGuard::enter);
    let obs = coordinator.obs();
    obs.counter("explore.queries").inc();
    let mut result = ExplorationResult {
        per_hop: vec![1],
        ..Default::default()
    };
    if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        result.cancelled = true;
        obs.counter("explore.cancelled").inc();
        return result;
    }
    // A patternless 0-hop query has no round to run anywhere.
    if hops == 0 && pattern.is_empty() {
        return result;
    }
    let owner = table.machine_of(start);
    let request = encode_query(current_deadline() != NO_DEADLINE, hops, pattern, start);
    let reply = match &opts.call {
        Some(call) => call(owner, proto::EXPLORE, &request),
        None => coordinator.call(owner, proto::EXPLORE, &request),
    };
    match reply.map(|bytes| decode_result(&bytes)) {
        Ok(Ok(answer)) => result = answer,
        Err(NetError::DeadlineExceeded(..)) => result.deadline_exceeded = true,
        // Lost on its way, like a lost round 0: no such owner, no handler,
        // a failed call, or an answer that does not decode.
        _ => result.failed_batches = 1,
    }
    let failed = obs.counter("explore.failed_batches");
    failed.add(result.failed_batches as u64);
    if result.deadline_exceeded {
        obs.counter("explore.deadline_exceeded").inc();
    }
    result
}

/// Owner-side `EXPLORE`, with this machine's own table: each round the
/// other owners' batches go out as `EXPAND` calls while this machine's own
/// is expanded in place. An eighth of the budget is kept back so the
/// answer, partial or whole, beats the caller's own deadline. A query whose
/// caller set none has only the ship's call timeout: each round may use
/// half of what is left, so a silent peer fails its batch, not the rest of
/// the query. A request that does not decode gets the empty reply.
fn answer_query(handle: &GraphHandle, workers: usize, request: &[u8]) -> Vec<u8> {
    let Ok((budgeted, hops, pattern, start)) = decode_query(request) else {
        return Vec::new();
    };
    let deadline = current_deadline();
    let _reserve = (deadline != NO_DEADLINE).then(|| {
        let left = deadline.saturating_sub(deadline_now_us());
        DeadlineGuard::enter(deadline - left / 8)
    });
    let endpoint = handle.cloud().endpoint();
    let me = endpoint.machine();
    let round = |batches: &[(MachineId, Vec<u8>)]| {
        let _share = (!budgeted)
            .then(|| DeadlineGuard::enter(deadline_now_us().saturating_add(remaining_us() / 2)));
        let remote: Vec<(MachineId, ProtoId, &[u8])> = batches
            .iter()
            .filter(|(m, _)| *m != me)
            .map(|(m, request)| (*m, proto::EXPAND, request.as_slice()))
            .collect();
        let (replies, mut own) = endpoint.call_many_while(&remote, || {
            let (_, request) = batches.iter().find(|(m, _)| *m == me)?;
            let reply = expand_local(handle, request, workers).unwrap_or_default();
            Some(Ok(FrameBuf::from_vec(reply)))
        });
        let mut replies = replies.into_iter();
        batches
            .iter()
            .filter_map(|(m, _)| if *m == me { own.take() } else { replies.next() })
            .collect()
    };
    let (obs, table) = (endpoint.obs(), handle.cloud().table());
    let result = run_query(obs, &table, start, hops, pattern, budgeted, round);
    encode_result(&result)
}

/// The level-synchronous loop of one query, on the machine that owns its
/// start node. `round` issues one round — one `EXPAND` request per owning
/// machine — and returns one result per request, in order; a missing
/// result fails its batch, and so does one that ran out of time when the
/// caller set no deadline (`budgeted` clear).
fn run_query(
    obs: &MachineScope,
    table: &AddressingTable,
    start: CellId,
    hops: usize,
    pattern: &[u8],
    budgeted: bool,
    mut round: impl FnMut(&[(MachineId, Vec<u8>)]) -> Vec<trinity_net::Result<FrameBuf>>,
) -> ExplorationResult {
    let hop_us = obs.histogram("explore.hop.us");
    let frontier_sizes = obs.histogram("explore.frontier");
    let batches_sent = obs.counter("explore.batches");
    let reply_bytes_total = obs.counter("explore.reply_bytes");
    let ids_received = obs.counter("explore.ids_received");
    let ids_new = obs.counter("explore.ids_new");
    // Hashed as the cloud routes an id (`mix64`), not with SipHash. The set
    // is never iterated, so its hasher cannot change what enters a level.
    let mut visited: HashSet<CellId, IdBuildHasher> = HashSet::default();
    visited.insert(start);
    let mut result = ExplorationResult {
        per_hop: vec![1],
        ..Default::default()
    };
    let mut frontier = vec![start];
    // Round `hop` expands level `hop` into level `hop + 1`; the round after
    // the last expansion only checks the last level against the pattern,
    // so without a pattern it has nothing to ask and is not issued.
    let rounds = hops.saturating_add(usize::from(!pattern.is_empty()));
    for hop in 0..rounds {
        // Hop boundaries are where a lapsed budget stops the query: it
        // returns what previous hops already established.
        if deadline_expired() {
            result.deadline_exceeded = true;
            break;
        }
        let want_neighbors = hop < hops;
        let hop_start_us = obs.now_us();
        frontier_sizes.record(frontier.len() as u64);
        // One batched request per machine owning part of the frontier, in
        // machine order, its ids ascending as the wire format requires.
        let mut by_machine: BTreeMap<MachineId, Vec<CellId>> = BTreeMap::new();
        for &id in &frontier {
            by_machine.entry(table.machine_of(id)).or_default().push(id);
        }
        let batches: Vec<(MachineId, Vec<u8>)> = by_machine
            .into_iter()
            .map(|(m, mut batch)| {
                batch.sort_unstable();
                (m, encode_request(want_neighbors, pattern, &batch))
            })
            .collect();
        let replies = round(&batches);
        let hop_batches = batches.len();
        result.batches += hop_batches;
        batches_sent.add(hop_batches as u64);
        let mut reply_bytes = 0u64;
        let mut replies = replies.into_iter();
        let mut answers = Vec::with_capacity(hop_batches);
        for _ in 0..hop_batches {
            let decoded = match replies.next() {
                Some(Ok(reply)) => {
                    reply_bytes += reply.len() as u64;
                    decode_reply(&reply).ok()
                }
                Some(Err(NetError::DeadlineExceeded(..))) if budgeted => {
                    result.deadline_exceeded = true;
                    continue;
                }
                // A failed or (unbudgeted) timed-out call, or a round that
                // returned too few results.
                _ => None,
            };
            // A batch lost to a dead owner or a damaged reply leaves a hole
            // in the frontier: say so instead of looking complete.
            let Some(answer) = decoded else {
                result.failed_batches += 1;
                continue;
            };
            answers.push(answer);
        }
        let carried: usize = answers.iter().map(|(_, _, n)| n.len()).sum();
        ids_received.add(carried as u64);
        // At most every carried id is new: room for them once, not a
        // doubling of the set and the level as they arrive.
        let mut next = Vec::new();
        if want_neighbors {
            visited.reserve(carried);
            next.reserve(carried);
        }
        for (truncated, matches, neighbors) in answers {
            // A truncated reply covers a prefix of its batch: a partial answer.
            result.deadline_exceeded |= truncated;
            result.matches.extend(matches);
            if want_neighbors {
                next.extend(neighbors.into_iter().filter(|&n| visited.insert(n)));
            }
        }
        ids_new.add(next.len() as u64);
        reply_bytes_total.add(reply_bytes);
        hop_us.record(obs.now_us().saturating_sub(hop_start_us));
        obs.span(
            "explore.hop",
            proto::EXPAND,
            reply_bytes,
            hop_batches.min(u32::MAX as usize) as u32,
            hop_start_us,
        );
        // Only a round that asked for neighbors can have found a next level.
        if next.is_empty() {
            break;
        }
        result.per_hop.push(next.len());
        frontier = next;
    }
    result.matches.sort_unstable();
    result.matches.dedup();
    result
}

/// What one scan of (part of) a batch found; `truncated` = the deadline cut it.
#[derive(Default)]
struct Scan {
    matches: Vec<CellId>,
    neighbors: Vec<CellId>,
    truncated: bool,
}

/// Slave-side frontier expansion: purely local zero-copy reads. The scan
/// polls the envelope-carried deadline (installed on this worker thread by
/// the fabric) every few dozen ids and returns what it has when the budget
/// lapses — a partial reply beats a wasted one, as long as it says so
/// (the `TRUNCATED` flag). Neighbors are collected, sorted and encoded
/// only when the request wants them.
///
/// Large frontiers are split into contiguous chunks scanned by a pool of
/// scoped threads; trunk reads are lock-free for concurrent readers, so
/// the chunks proceed independently. Chunk results are concatenated in
/// chunk order and the neighbor set is sorted and deduplicated exactly as
/// in the serial scan, so the reply bytes do not depend on the pool width.
///
/// `None` (an empty reply on the wire) for a request that does not decode.
fn expand_local(handle: &GraphHandle, request: &[u8], workers: usize) -> Option<Vec<u8>> {
    let (want_neighbors, pattern, ids) = decode_request(request).ok()?;
    // The owner routed these ids here because its table says we own
    // them — but a stale table can leave stragglers owned elsewhere. Those
    // would each cost one remote round-trip inside `with_node`; batch-warm
    // the read cache first so the straggler fetches ride one envelope per
    // actual owner.
    let stragglers: Vec<CellId> = ids
        .iter()
        .copied()
        .filter(|&id| !handle.is_local(id))
        .collect();
    if !stragglers.is_empty() {
        handle.prefetch(&stragglers);
    }
    let mut all = if workers > 1 && ids.len() >= PARALLEL_FRONTIER {
        let chunk = ids.len().div_ceil(workers);
        let trace = current_trace();
        let deadline = current_deadline();
        std::thread::scope(|scope| {
            let joins: Vec<_> = ids
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        // Trace and deadline are thread-local; re-enter
                        // them so chunk scans poll the query's budget.
                        let _tg = TraceGuard::enter(trace);
                        let _dg = DeadlineGuard::enter(deadline);
                        scan_ids(handle, want_neighbors, pattern, part)
                    })
                })
                .collect();
            joins.into_iter().fold(Scan::default(), |mut all, j| {
                let part = j.join().expect("expand pool worker panicked");
                all.matches.extend(part.matches);
                all.neighbors.extend(part.neighbors);
                all.truncated |= part.truncated;
                all
            })
        })
    } else {
        scan_ids(handle, want_neighbors, pattern, &ids)
    };
    all.neighbors.sort_unstable();
    all.neighbors.dedup();
    Some(encode_reply(all.truncated, &all.matches, &all.neighbors))
}

/// Scan one contiguous run of frontier ids, polling the deadline every
/// few dozen ids.
fn scan_ids(handle: &GraphHandle, want_neighbors: bool, pattern: &[u8], ids: &[CellId]) -> Scan {
    let mut scan = Scan::default();
    // Per-trunk hop attribution, batched locally so the hot loop pays one
    // `trunk_of` hash per id and the shared LoadMap one update per trunk.
    let table = handle.cloud().table();
    let mut hops: BTreeMap<u64, u64> = BTreeMap::new();
    let mut read_errors = 0;
    for (i, &id) in ids.iter().enumerate() {
        if i % 64 == 63 && deadline_expired() {
            scan.truncated = true;
            break;
        }
        // A node that could not be read (a dead straggler owner, a trunk
        // that moved mid-read, a record that does not decode) is not a node
        // without neighbors: the reply cannot say which, but the count can.
        let read = handle.with_node(id, |view| {
            // Attribute patterns are short names: a byte-substring check.
            if !pattern.is_empty() && view.attrs().windows(pattern.len()).any(|w| w == pattern) {
                scan.matches.push(id);
            }
            if want_neighbors {
                scan.neighbors.extend(view.outs());
            }
        });
        read_errors += u64::from(read.is_err());
        *hops.entry(table.trunk_of(id)).or_insert(0) += 1;
    }
    let obs = handle.cloud().endpoint().obs();
    if read_errors > 0 {
        obs.counter("explore.read_errors").add(read_errors);
    }
    let load = obs.load();
    for (trunk, n) in hops {
        load.record_hops(trunk, n);
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire_model;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_graphgen::names::name_for;
    use trinity_memcloud::CloudConfig;

    type Round = Vec<trinity_net::Result<FrameBuf>>;

    fn path_graph(n: usize) -> Csr {
        let edges: Vec<(u64, u64)> = (0..n as u64 - 1).map(|v| (v, v + 1)).collect();
        Csr::undirected_from_edges(n, &edges, true)
    }

    fn cloud_with(
        csr: &Csr,
        machines: usize,
        attrs: Option<Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync>>,
    ) -> (Arc<MemoryCloud>, Arc<Explorer>) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        load_graph(
            Arc::clone(&cloud),
            csr,
            &LoadOptions {
                with_in_links: false,
                attrs,
            },
        )
        .unwrap();
        let explorer = Explorer::install(Arc::clone(&cloud));
        (cloud, explorer)
    }

    /// [`explore_via`] from machine 0, with the shipped query run right
    /// here on the calling thread and `round` standing in for the owner's
    /// fan-out.
    fn explore_faked(
        cloud: &MemoryCloud,
        start: CellId,
        hops: usize,
        pattern: &[u8],
        round: impl Fn(&[(MachineId, Vec<u8>)]) -> Round + Send + Sync + 'static,
    ) -> ExplorationResult {
        let node = cloud.node(0);
        let (obs, table) = (node.endpoint().obs().clone(), node.table());
        let hook: CallHook = Arc::new(move |_owner, _proto, request| {
            let (_, hops, pattern, start) = decode_query(request).expect("the query decodes");
            let result = run_query(&obs, &table, start, hops, pattern, true, &round);
            Ok(FrameBuf::from_vec(encode_result(&result)))
        });
        let opts = ExploreOptions {
            call: Some(hook),
            ..Default::default()
        };
        explore_via(
            node.endpoint(),
            &node.table(),
            0,
            start,
            hops,
            pattern,
            &opts,
        )
    }

    /// A round sent as plain `EXPAND` calls from `endpoint`.
    fn expand_calls(endpoint: &Endpoint, batches: &[(MachineId, Vec<u8>)]) -> Round {
        let requests: Vec<(MachineId, ProtoId, &[u8])> = batches
            .iter()
            .map(|(m, request)| (*m, proto::EXPAND, request.as_slice()))
            .collect();
        endpoint.call_many(&requests)
    }

    #[test]
    fn explores_exactly_k_hops_on_a_path() {
        let (cloud, ex) = cloud_with(&path_graph(20), 3, None);
        // From node 10, k hops reach 2k new nodes on a path (both sides).
        for hops in 0..5 {
            let r = ex.explore(0, 10, hops, b"");
            assert_eq!(r.visited(), 1 + 2 * hops, "hops={hops}");
            assert_eq!(r.per_hop.len(), hops + 1);
        }
        cloud.shutdown();
    }

    #[test]
    fn handles_cycles_without_revisits() {
        let n = 12;
        let mut edges: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
        edges.push((0, 6)); // chord
        let csr = Csr::undirected_from_edges(n, &edges, true);
        let (cloud, ex) = cloud_with(&csr, 2, None);
        let r = ex.explore(1, 0, 12, b"");
        assert_eq!(r.visited(), n, "every node visited exactly once");
        cloud.shutdown();
    }

    #[test]
    fn pattern_matching_finds_named_nodes_within_hops() {
        let csr = path_graph(10);
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> = Arc::new(|v| {
            if v % 4 == 0 {
                b"David".to_vec()
            } else {
                b"Someone".to_vec()
            }
        });
        let (cloud, ex) = cloud_with(&csr, 3, Some(attrs));
        // From node 5, 2 hops covers 3..=7: only node 4 is a David.
        let r = ex.explore(0, 5, 2, b"David");
        assert_eq!(r.matches, vec![4]);
        // 3 hops covers 2..=8: nodes 4 and 8.
        let r = ex.explore(2, 5, 3, b"David");
        assert_eq!(r.matches, vec![4, 8]);
        cloud.shutdown();
    }

    #[test]
    fn exploration_from_any_machine_gives_identical_results() {
        let csr = trinity_graphgen::social(300, 12, 5);
        let (cloud, ex) = cloud_with(&csr, 4, None);
        let base = ex.explore(0, 7, 3, b"");
        for m in 1..4 {
            let r = ex.explore(m, 7, 3, b"");
            assert_eq!(r.per_hop, base.per_hop, "machine {m} disagrees");
        }
        cloud.shutdown();
    }

    #[test]
    fn one_trace_id_spans_every_serving_machine() {
        let machines = 4;
        let csr = trinity_graphgen::social(400, 12, 9);
        let (cloud, ex) = cloud_with(&csr, machines, None);
        let obs = cloud.fabric().obs();
        let owner = cloud.node(0).table().machine_of(7).0;
        // The query allocates its trace id internally; recover it from the
        // owner's "explore.hop" spans after the fact.
        let r = ex.explore(0, 7, 3, b"");
        assert!(r.visited() > machines, "graph too small to fan out");
        let hop_spans: Vec<_> = obs
            .spans()
            .into_iter()
            .filter(|s| s.label == "explore.hop")
            .collect();
        assert!(!hop_spans.is_empty(), "the owner records per-hop spans");
        let trace = hop_spans[0].trace;
        assert_ne!(trace, trinity_obs::NO_TRACE);
        assert!(
            hop_spans.iter().all(|s| s.trace == trace),
            "one trace per query"
        );
        assert!(
            hop_spans.iter().all(|s| s.machine == owner),
            "hops recorded on the start's owner, machine {owner}"
        );
        // A 3-hop exploration of a social graph touches all 4 machines:
        // every one must have recorded spans under the same trace id.
        let spans = obs.spans_for_trace(trace);
        let serving: BTreeSet<u16> = spans.iter().map(|s| s.machine).collect();
        assert_eq!(
            serving.len(),
            machines,
            "trace spans on every machine: {serving:?}"
        );
        assert!(
            spans
                .iter()
                .any(|s| s.machine != owner && s.label == "net.dispatch"),
            "the other machines record handler dispatch under the query trace"
        );
        cloud.shutdown();
    }

    #[test]
    fn the_owner_expands_its_own_batch_in_place() {
        let csr = trinity_graphgen::social(400, 12, 9);
        let (cloud, ex) = cloud_with(&csr, 4, None);
        let owner = cloud.node(0).table().machine_of(7).0 as usize;
        let count = |name: &'static str| cloud.node(owner).endpoint().obs().counter(name).get();
        let before = count("net.frames.local");
        // Asked from another machine, so the query itself arrives remotely.
        let r = ex.explore((owner + 1) % 4, 7, 3, b"");
        // Every round ran on the owner, round 0 (the start alone) was its
        // own batch, and none of its batches came back to it as a frame.
        assert_eq!(count("explore.batches"), r.batches as u64);
        assert_eq!(count("net.frames.local"), before, "a loopback EXPAND");
        cloud.shutdown();
    }

    #[test]
    fn a_truncated_reply_marks_the_result_deadline_exceeded() {
        let (cloud, _ex) = cloud_with(&path_graph(10), 2, None);
        // The slave says its scan was cut short; nothing else is wrong.
        // One round only (final round, with a pattern): no hop boundary
        // follows that could notice a lapsed budget.
        let r = explore_faked(&cloud, 5, 0, b"David", |batches| {
            batches
                .iter()
                .map(|_| Ok(FrameBuf::from_vec(encode_reply(true, &[4], &[]))))
                .collect()
        });
        assert!(r.deadline_exceeded, "{r:?}");
        assert_eq!((r.matches.as_slice(), r.failed_batches), (&[4][..], 0));
        let obs = cloud.node(0).endpoint().obs();
        assert_eq!(obs.counter("explore.deadline_exceeded").get(), 1);
        cloud.shutdown();
    }

    #[test]
    fn an_unbudgeted_query_fails_a_lost_batch_and_runs_its_other_hops() {
        use trinity_net::{FaultKind, FaultLog, FaultPlan, FaultRecord};
        let n = 40;
        let table = {
            let probe = MemoryCloud::new(CloudConfig::small(3));
            let table = probe.node(0).table();
            probe.shutdown();
            table
        };
        let m = |id: CellId| table.machine_of(id);
        // A start on the path whose upper neighbour is asked alone, of a
        // machine other than the start's owner.
        let start = (3..n as u64 - 4)
            .find(|&s| m(s + 1) != m(s) && m(s + 1) != m(s - 1))
            .expect("such a start on a 3-machine path");
        // The owner's first envelope to that machine — round 1's EXPAND —
        // is lost.
        let lost = FaultRecord {
            src: m(start).0,
            dst: m(start + 1).0,
            seq: 0,
            kind: FaultKind::Drop,
        };
        let cloud = Arc::new(MemoryCloud::new(CloudConfig {
            call_timeout: std::time::Duration::from_millis(400),
            faults: Some(FaultPlan::replay(&FaultLog {
                records: vec![lost],
            })),
            ..CloudConfig::small(3)
        }));
        cloud.fabric().chaos_arm(false);
        let options = LoadOptions {
            with_in_links: false,
            attrs: None,
        };
        load_graph(Arc::clone(&cloud), &path_graph(n), &options).unwrap();
        let ex = Explorer::install(Arc::clone(&cloud));
        cloud.fabric().chaos_arm(true);
        let r = ex.explore(m(start).0 as usize, start, 3, b"");
        // As a timed-out call: one failed batch, no deadline, and the lower
        // side of the path is still explored to the last hop.
        assert_eq!((r.failed_batches, r.deadline_exceeded), (1, false), "{r:?}");
        assert_eq!(r.per_hop, vec![1, 2, 1, 1]);
        cloud.shutdown();
    }

    #[test]
    fn a_round_returning_too_few_results_fails_those_batches() {
        let (cloud, _ex) = cloud_with(&trinity_graphgen::social(400, 12, 9), 4, None);
        // The start node's round has one batch and gets no result for it.
        let r = explore_faked(&cloud, 7, 3, b"", |_| Vec::new());
        assert_eq!((r.batches, r.failed_batches, r.per_hop), (1, 1, vec![1]));
        let obs = cloud.node(0).endpoint().obs();
        assert_eq!(obs.counter("explore.failed_batches").get(), 1);
        cloud.shutdown();
    }

    #[test]
    fn the_match_round_ships_no_neighbors() {
        let csr = trinity_graphgen::social(300, 8, 7);
        let names: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> =
            Arc::new(|v| name_for(13, v).into_bytes());
        let (cloud, ex) = cloud_with(&csr, 3, Some(names));
        // Pass every call through, keeping what was asked and answered.
        let wire = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let round = {
            let (wire, endpoint) = (Arc::clone(&wire), Arc::clone(cloud.node(0).endpoint()));
            move |batches: &[(MachineId, Vec<u8>)]| {
                let replies = expand_calls(&endpoint, batches);
                for ((_, request), reply) in batches.iter().zip(&replies) {
                    if let Ok(reply) = reply {
                        wire.lock().push((request.clone(), reply.to_vec()));
                    }
                }
                replies
            }
        };
        let got = explore_faked(&cloud, 11, 2, b"David", round);
        let want = ex.explore(0, 11, 2, b"David");
        assert_eq!((&got.per_hop, &got.matches), (&want.per_hop, &want.matches));
        assert_eq!(got.failed_batches, 0);
        let (mut expanding, mut matching) = (0, 0);
        for (request, reply) in wire.lock().iter() {
            let request = wire_model::decode_request(request).expect("request decodes");
            let reply = wire_model::decode_reply(reply).expect("reply decodes");
            if request.want_neighbors {
                expanding += 1;
            } else {
                matching += 1;
                assert!(
                    reply.neighbors.is_empty(),
                    "unwanted: {:?}",
                    reply.neighbors
                );
            }
        }
        assert!(expanding > 0 && matching > 0, "{expanding} + {matching}");
        assert_eq!(expanding + matching, got.batches);
        cloud.shutdown();
    }

    #[test]
    fn a_scan_cut_by_the_deadline_says_so_on_both_scan_paths() {
        let n = 600u64;
        let (cloud, _ex) = cloud_with(&path_graph(n as usize), 1, None);
        let handle = GraphHandle::new(Arc::clone(cloud.node(0)));
        let ids: Vec<CellId> = (0..n).collect();
        let request = encode_request(true, b"", &ids);
        for workers in [1, 4] {
            let whole = expand_local(&handle, &request, workers).unwrap();
            let (truncated, _, neighbors) = decode_reply(&whole).unwrap();
            assert!(!truncated, "workers={workers}");
            assert_eq!(neighbors, ids, "workers={workers}");
            // Budget long gone: every scan stops at its first poll (id 63 of
            // its chunk) and the reply owns up to it.
            let _expired = DeadlineGuard::enter(1);
            let cut = expand_local(&handle, &request, workers).unwrap();
            let (truncated, _, neighbors) = decode_reply(&cut).unwrap();
            assert!(truncated, "workers={workers}");
            assert!(neighbors.len() < ids.len(), "workers={workers}");
        }
        cloud.shutdown();
    }

    #[test]
    fn a_node_whose_owner_is_dead_counts_as_a_read_error() {
        let n = 30u64;
        let (cloud, _ex) = cloud_with(&path_graph(n as usize), 3, None);
        let handle = GraphHandle::new(Arc::clone(cloud.node(0)));
        let table = cloud.node(0).table();
        let mine = (0..n).find(|&id| table.machine_of(id).0 == 0).unwrap();
        let dead = (0..n).find(|&id| table.machine_of(id).0 == 1).unwrap();
        cloud.kill_machine(1);
        // A stale batch: machine 0 is asked about a straggler of machine 1.
        let mut ids = vec![mine, dead];
        ids.sort_unstable();
        let reply = expand_local(&handle, &encode_request(true, b"", &ids), 1).unwrap();
        let (truncated, _, neighbors) = decode_reply(&reply).expect("the reply decodes");
        assert!(!truncated);
        let want: Vec<CellId> = [mine.checked_sub(1), Some(mine + 1).filter(|&v| v < n)]
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(neighbors, want, "only the readable node's neighbors");
        let obs = cloud.node(0).endpoint().obs();
        assert_eq!(obs.counter("explore.read_errors").get(), 1);
        cloud.shutdown();
    }

    #[test]
    fn zero_hops_only_checks_the_start_node() {
        let csr = path_graph(5);
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> = Arc::new(|_| b"David".to_vec());
        let (cloud, ex) = cloud_with(&csr, 2, Some(attrs));
        let r = ex.explore(0, 2, 0, b"David");
        assert_eq!(r.matches, vec![2]);
        assert_eq!(r.visited(), 1);
        cloud.shutdown();
    }

    #[test]
    fn traversal_codecs_keep_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        let ids = |rng: &mut Rng| -> Vec<CellId> {
            BTreeSet::from_iter(rng.vec(6, Rng::u64))
                .into_iter()
                .collect()
        };
        check(
            0xe9a,
            |rng| (rng.coin(), rng.bytes(6), ids(rng)),
            |(want, pattern, ids)| encode_request(*want, pattern, ids),
            |b| {
                decode_request(b)
                    .ok()
                    .map(|(w, p, ids)| (w, p.to_vec(), ids))
            },
            true,
        );
        check(
            0xe9b,
            |rng| (rng.coin(), ids(rng), ids(rng)),
            |(cut, matches, neighbors)| encode_reply(*cut, matches, neighbors),
            |b| decode_reply(b).ok(),
            true,
        );
        check(
            0xe91,
            |rng| (rng.coin(), rng.u64() as usize, rng.bytes(6), rng.u64()),
            |(budgeted, hops, pattern, start)| encode_query(*budgeted, *hops, pattern, *start),
            |b| {
                decode_query(b)
                    .ok()
                    .map(|(b, h, p, s)| (b, h, p.to_vec(), s))
            },
            true,
        );
        check(
            0xe92,
            |rng| ExplorationResult {
                per_hop: (0..=rng.below(4)).map(|_| rng.u64() as usize).collect(),
                matches: ids(rng),
                batches: rng.u64() as usize,
                deadline_exceeded: rng.coin(),
                cancelled: false,
                failed_batches: rng.u64() as usize,
            },
            encode_result,
            |b| decode_result(b).ok(),
            true,
        );
    }

    mod wire_props {
        use super::*;
        use proptest::prelude::*;

        const MACHINES: usize = 3;
        const NODES: u64 = 120;

        /// A cluster whose table and metrics the fake rounds run against;
        /// no graph is needed, the round answers for the slaves.
        fn fixture() -> &'static MemoryCloud {
            static CLOUD: OnceLock<MemoryCloud> = OnceLock::new();
            CLOUD.get_or_init(|| MemoryCloud::new(CloudConfig::small(MACHINES)))
        }

        fn reply_bytes() -> impl Strategy<Value = Vec<u8>> {
            use wire_model::{id_list, twist, Writer};
            wire_model::hostile(
                (any::<bool>(), id_list(NODES), id_list(NODES), twist())
                    .prop_map(|(cut, m, n, t)| Writer::twisted(t).reply(cut, &m, &n)),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// Any bytes handed back as a round's replies never panic the
            /// loop; a malformed reply is counted in `failed_batches`, a
            /// well-formed one is taken at its word (round trip, truncated
            /// flag included), and every request the loop emits decodes
            /// under the model, goes to the owner, and asks for neighbors
            /// on every round but the last.
            #[test]
            fn reply_decoder_counts_malformed_and_round_trips_well_formed(
                bytes in reply_bytes(),
                start in 0u64..NODES,
                hops in 1usize..=2,
                pattern in prop_oneof![1 => Just(&b"Da"[..]), 1 => Just(&b""[..])],
            ) {
                let node = fixture().node(0);
                let (obs, table) = (node.endpoint().obs(), node.table());
                // Every batch is answered with `bytes`, whatever it asked.
                let mut asked = Vec::new();
                let got = run_query(obs, &table, start, hops, pattern, true, |batches| {
                    asked.extend(batches.iter().cloned());
                    batches.iter().map(|_| Ok(FrameBuf::from_vec(bytes.clone()))).collect()
                });
                // Requests: round 0 asks the start's owner about the start
                // alone, and wants its neighbors (there is a hop to go).
                prop_assert_eq!(
                    asked.first(),
                    Some(&(table.machine_of(start), wire_model::encode_request(true, pattern, &[start])))
                );
                prop_assert_eq!(got.batches, asked.len());
                let Some(reply) = wire_model::decode_reply(&bytes) else {
                    prop_assert_eq!(got.failed_batches, 1, "{:?}", bytes);
                    prop_assert_eq!(&got.per_hop, &vec![1]);
                    prop_assert!(got.matches.is_empty());
                    prop_assert!(!got.deadline_exceeded);
                    prop_assert_eq!(asked.len(), 1);
                    return Ok(());
                };
                // Well-formed: the reply is taken at its word. Its neighbors
                // become level 1, each sent to its owner in ascending order —
                // if a second round has anything to ask: more neighbors, or
                // matches.
                prop_assert_eq!(got.failed_batches, 0, "{:?}", bytes);
                prop_assert_eq!(got.deadline_exceeded, reply.truncated);
                let frontier: Vec<u64> = reply.neighbors.into_iter().filter(|&n| n != start).collect();
                let mut per_hop = vec![1];
                per_hop.extend((!frontier.is_empty()).then_some(frontier.len()));
                prop_assert_eq!(&got.per_hop, &per_hop);
                prop_assert_eq!(got.matches, reply.matches);
                // The same reply again reveals nothing new, so round 1 is the
                // last issued; it wants neighbors iff the hop budget has one
                // more level.
                let rounds = hops + usize::from(!pattern.is_empty());
                let mut routed = Vec::new();
                for (dst, payload) in &asked[1..] {
                    let request = wire_model::decode_request(payload);
                    prop_assert!(request.is_some(), "the loop emitted {:?}", payload);
                    let request = request.unwrap();
                    prop_assert_eq!(request.want_neighbors, hops > 1, "round 1 of {}", rounds);
                    prop_assert_eq!(request.pattern.as_slice(), pattern);
                    prop_assert!(!request.ids.is_empty(), "empty batch sent to {:?}", dst);
                    prop_assert!(request.ids.iter().all(|&id| table.machine_of(id) == *dst));
                    routed.push((*dst, request.ids));
                }
                routed.sort();
                let mut expect: Vec<(MachineId, Vec<u64>)> = Vec::new();
                for m in 0..MACHINES as u16 {
                    let ids: Vec<u64> = frontier
                        .iter()
                        .copied()
                        .filter(|&id| rounds > 1 && table.machine_of(id) == MachineId(m))
                        .collect();
                    if !ids.is_empty() {
                        expect.push((MachineId(m), ids));
                    }
                }
                prop_assert_eq!(routed, expect);
            }
        }
    }
}
