//! Traversal-based online query processing (paper §5.1).
//!
//! Online queries explore the neighborhood of a node — the paper's
//! motivating example is the *David problem*: find anyone named David
//! within 3 hops of a user in a social network. No practical index covers
//! such queries on a web-scale graph; Trinity instead relies on fast
//! random access plus parallel machine fan-out.
//!
//! The [`Explorer`] implements level-by-level exploration: the machine
//! coordinating a query partitions the current frontier by owner machine
//! and sends each machine one batched `EXPAND` request; every machine
//! expands its share of the frontier against purely local, zero-copy node
//! cells and returns exactly what the request asks for — attribute matches
//! when there is a pattern, the discovered neighbors when another hop will
//! consume them. The last level is therefore only checked for matches, and
//! a round that could return neither is not issued at all.
//! The coordinator issues a round's requests together from its own thread
//! ([`Endpoint::call_many`]) and all machines expand in parallel, so each
//! hop costs one fan-out round — which is why 3-hop queries over millions
//! of reachable nodes return in the tens of milliseconds.
//!
//! Wire format (DESIGN §10): a flags byte, then strictly ascending id lists
//! as varint `count | first | gap…`; the decoders reject anything else, and
//! every varint and count follows DESIGN "Byte formats".

use std::collections::HashSet;
use std::sync::Arc;

use trinity_graph::GraphHandle;
use trinity_memcloud::{AddressingTable, CellId, MemoryCloud};
use trinity_memstore::codec::{put_varint, DecodeError, Reader};
use trinity_net::{
    current_deadline, deadline_expired, CancelToken, DeadlineGuard, Endpoint, FrameBuf, MachineId,
    NetError, ProtoId,
};
use trinity_obs::{current_trace, next_trace_id, TraceGuard, NO_TRACE};

use crate::proto;

/// How a fan-out round is issued: it takes the round's requests and
/// returns one result per request, in order. The serving runtime injects
/// its request coalescer here so identical in-flight expansions against
/// the same machine merge into one upstream call; the default is a plain
/// [`Endpoint::call_many`].
pub type CallHook =
    Arc<dyn Fn(&[(MachineId, ProtoId, &[u8])]) -> Vec<trinity_net::Result<FrameBuf>> + Send + Sync>;

/// Per-query controls for an exploration.
#[derive(Clone, Default)]
pub struct ExploreOptions {
    /// Absolute deadline (µs on the [`trinity_net::deadline_now_us`]
    /// clock). `None` inherits the calling thread's deadline, if any.
    pub deadline: Option<u64>,
    /// Cooperative cancellation, checked at every hop boundary.
    pub cancel: Option<CancelToken>,
    /// Override for issuing fan-out calls (request coalescing).
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
    /// Batched expand requests issued.
    pub batches: usize,
    /// The query's deadline budget ran out mid-flight: `per_hop` and
    /// `matches` cover only the hops completed before expiry.
    pub deadline_exceeded: bool,
    /// The query was cancelled mid-flight; results are partial.
    pub cancelled: bool,
    /// Fan-out batches lost to anything but the deadline: the owner was
    /// unreachable, the call failed, or the reply did not decode. Non-zero
    /// means `per_hop` and `matches` miss those machines' share of the
    /// frontier.
    pub failed_batches: usize,
}

impl ExplorationResult {
    /// Total nodes visited.
    pub fn visited(&self) -> usize {
        self.per_hop.iter().sum()
    }
}

/// Request flag: the coordinator will consume this round's neighbors.
const WANT_NEIGHBORS: u8 = 1;
/// Reply flag: the scan stopped at the envelope deadline, so the lists
/// cover only a prefix of the batch.
const TRUNCATED: u8 = 1;

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

/// Frontiers below this size expand serially: spawning a pool costs more
/// than scanning a few hundred ids.
const PARALLEL_FRONTIER: usize = 256;

/// The distributed exploration engine. One instance serves a whole
/// cluster: handlers are installed on every slave at construction.
pub struct Explorer {
    cloud: Arc<MemoryCloud>,
    handles: Vec<GraphHandle>,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("machines", &self.handles.len())
            .finish()
    }
}

impl Explorer {
    /// Install the exploration protocol on every slave of the cloud. Each
    /// slave's expansion pool is trunk-aligned: one worker per hosted
    /// trunk, capped by the host's parallelism.
    pub fn install(cloud: Arc<MemoryCloud>) -> Arc<Self> {
        let handles: Vec<GraphHandle> = (0..cloud.machines())
            .map(|m| GraphHandle::new(Arc::clone(cloud.node(m))))
            .collect();
        let explorer = Arc::new(Explorer { cloud, handles });
        for m in 0..explorer.handles.len() {
            let handle = explorer.handles[m].clone();
            let trunks = explorer
                .cloud
                .node(m)
                .table()
                .trunks_of(MachineId(m as u16))
                .len();
            let workers = crate::bsp::resolve_compute_threads(0, trunks);
            explorer
                .cloud
                .node(m)
                .endpoint()
                .register(proto::EXPAND, move |_src, data| {
                    expand_local(&handle, data, workers)
                });
        }
        explorer
    }

    /// Expand the `hops`-neighborhood of `start`, coordinated from
    /// machine `from`. With a `pattern`, node attributes containing the
    /// pattern bytes are reported as matches (substring match — the
    /// people-search predicate).
    pub fn explore(
        &self,
        from: usize,
        start: CellId,
        hops: usize,
        pattern: &[u8],
    ) -> ExplorationResult {
        self.explore_with(from, start, hops, pattern, &ExploreOptions::default())
    }

    /// [`Explorer::explore`] with per-query deadline, cancellation, and
    /// call-hook controls.
    pub fn explore_with(
        &self,
        from: usize,
        start: CellId,
        hops: usize,
        pattern: &[u8],
        opts: &ExploreOptions,
    ) -> ExplorationResult {
        let coordinator = self.cloud.node(from).endpoint();
        let table = self.cloud.node(from).table();
        explore_via(
            coordinator,
            &table,
            self.handles.len(),
            start,
            hops,
            pattern,
            opts,
        )
    }
}

/// Level-synchronous exploration coordinated from an arbitrary fabric
/// endpoint — a slave (the classic path) or a Trinity *proxy*, which is
/// how the serving runtime drives queries without owning any trunks.
/// `slaves` is how many machines are expected to hold graph data (a
/// capacity hint); the addressing `table` routes each id to its owner.
pub fn explore_via(
    coordinator: &Arc<Endpoint>,
    table: &AddressingTable,
    slaves: usize,
    start: CellId,
    hops: usize,
    pattern: &[u8],
    opts: &ExploreOptions,
) -> ExplorationResult {
    // One trace id per query: the EXPAND fan-out calls carry it to every
    // serving machine, so the whole multi-hop exploration can be
    // reconstructed from span rings across the cluster. A trace installed
    // by the serving runtime is reused rather than replaced.
    let trace = match current_trace() {
        NO_TRACE => next_trace_id(),
        t => t,
    };
    let _trace_guard = TraceGuard::enter(trace);
    // Install the per-query deadline (if given); otherwise the thread's
    // inherited budget keeps applying.
    let _deadline_guard = opts.deadline.map(DeadlineGuard::enter);
    let obs = coordinator.obs();
    obs.counter("explore.queries").inc();
    let hop_us = obs.histogram("explore.hop.us");
    let frontier_sizes = obs.histogram("explore.frontier");
    let batches_sent = obs.counter("explore.batches");
    let reply_bytes_total = obs.counter("explore.reply_bytes");
    let ids_received = obs.counter("explore.ids_received");
    let ids_new = obs.counter("explore.ids_new");
    let mut visited: HashSet<CellId> = HashSet::new();
    visited.insert(start);
    let mut result = ExplorationResult {
        per_hop: vec![1],
        ..Default::default()
    };
    let mut frontier = vec![start];
    // Round `hop` expands level `hop` into level `hop + 1`; the round after
    // the last expansion only checks the last level against the pattern,
    // so without a pattern it has nothing to ask and is not issued.
    let rounds = hops + usize::from(!pattern.is_empty());
    for hop in 0..rounds {
        // Hop boundaries are the cooperation points: a lapsed budget or a
        // cancelled token stops the fan-out and returns what previous
        // hops already established.
        if deadline_expired() {
            result.deadline_exceeded = true;
            break;
        }
        if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            result.cancelled = true;
            obs.counter("explore.cancelled").inc();
            break;
        }
        let want_neighbors = hop < hops;
        let hop_start_us = obs.now_us();
        frontier_sizes.record(frontier.len() as u64);
        // Partition the frontier by owner machine. The table may route an
        // id past `slaves` (a trunk migrated to a machine joined later).
        let mut by_machine: Vec<Vec<CellId>> = vec![Vec::new(); slaves];
        for &id in &frontier {
            let owner = table.machine_of(id).0 as usize;
            if owner >= by_machine.len() {
                by_machine.resize(owner + 1, Vec::new());
            }
            by_machine[owner].push(id);
        }
        // One batched request per machine owning part of the frontier,
        // its ids ascending as the wire format requires.
        let batches: Vec<(MachineId, Vec<u8>)> = by_machine
            .iter_mut()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(m, batch)| {
                batch.sort_unstable();
                let payload = encode_request(want_neighbors, pattern, batch);
                (MachineId(m as u16), payload)
            })
            .collect();
        let requests: Vec<(MachineId, ProtoId, &[u8])> = batches
            .iter()
            .map(|(dst, payload)| (*dst, proto::EXPAND, payload.as_slice()))
            .collect();
        // The whole round goes out from this thread, which carries the
        // query's trace and deadline, and this thread collects the replies.
        let replies = match &opts.call {
            Some(call) => call(&requests),
            None => coordinator.call_many(&requests),
        };
        let hop_batches = batches.len();
        result.batches += hop_batches;
        batches_sent.add(hop_batches as u64);
        let mut reply_bytes = 0u64;
        let mut next = Vec::new();
        let mut replies = replies.into_iter();
        for _ in 0..hop_batches {
            let decoded = match replies.next() {
                Some(Ok(reply)) => {
                    reply_bytes += reply.len() as u64;
                    decode_reply(&reply).ok()
                }
                Some(Err(NetError::DeadlineExceeded(_, _))) => {
                    result.deadline_exceeded = true;
                    continue;
                }
                // A failed call, or a hook that returned too few results.
                _ => None,
            };
            // A batch lost to a dead owner or a damaged reply leaves a hole
            // in the frontier: say so instead of looking complete.
            let Some((truncated, matches, neighbors)) = decoded else {
                result.failed_batches += 1;
                obs.counter("explore.failed_batches").inc();
                continue;
            };
            // A truncated reply covers a prefix of its batch: a partial answer.
            result.deadline_exceeded |= truncated;
            result.matches.extend(matches);
            ids_received.add(neighbors.len() as u64);
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
    if result.deadline_exceeded {
        obs.counter("explore.deadline_exceeded").inc();
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
    // The coordinator routed these ids here because its table says we own
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
        let parts: Vec<Scan> = std::thread::scope(|scope| {
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
            joins
                .into_iter()
                .map(|j| j.join().expect("expand pool worker panicked"))
                .collect()
        });
        let mut all = Scan::default();
        for part in parts {
            all.matches.extend(part.matches);
            all.neighbors.extend(part.neighbors);
            all.truncated |= part.truncated;
        }
        all
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
    let mut hops: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        if i % 64 == 63 && deadline_expired() {
            scan.truncated = true;
            break;
        }
        let _ = handle.with_node(id, |view| {
            if !pattern.is_empty() && contains(view.attrs(), pattern) {
                scan.matches.push(id);
            }
            if want_neighbors {
                scan.neighbors.extend(view.outs());
            }
        });
        *hops.entry(table.trunk_of(id)).or_insert(0) += 1;
    }
    let load = handle.cloud().endpoint().obs().load();
    for (trunk, n) in hops {
        load.record_hops(trunk, n);
    }
    scan
}

/// Byte-substring check (attribute patterns are short names).
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::CloudConfig;

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
        // The query allocates its trace id internally; recover it from the
        // coordinator's "explore.hop" spans after the fact.
        let r = ex.explore(0, 7, 3, b"");
        assert!(r.visited() > machines, "graph too small to fan out");
        let hop_spans: Vec<_> = obs
            .spans()
            .into_iter()
            .filter(|s| s.label == "explore.hop")
            .collect();
        assert!(!hop_spans.is_empty(), "coordinator records per-hop spans");
        let trace = hop_spans[0].trace;
        assert_ne!(trace, trinity_obs::NO_TRACE);
        assert!(
            hop_spans.iter().all(|s| s.trace == trace),
            "one trace per query"
        );
        assert!(
            hop_spans.iter().all(|s| s.machine == 0),
            "hops recorded on the coordinator"
        );
        // A 3-hop exploration of a social graph touches all 4 machines:
        // every one must have recorded spans under the same trace id.
        let spans = obs.spans_for_trace(trace);
        let serving: std::collections::BTreeSet<u16> = spans.iter().map(|s| s.machine).collect();
        assert_eq!(
            serving.len(),
            machines,
            "trace spans on every machine: {serving:?}"
        );
        assert!(
            spans
                .iter()
                .any(|s| s.machine != 0 && s.label == "net.dispatch"),
            "remote machines record handler dispatch under the query trace"
        );
        cloud.shutdown();
    }

    #[test]
    fn a_truncated_reply_marks_the_result_deadline_exceeded() {
        let (cloud, ex) = cloud_with(&path_graph(10), 2, None);
        // The slave says its scan was cut short; nothing else is wrong.
        let hook: CallHook = Arc::new(|requests| {
            requests
                .iter()
                .map(|_| Ok(FrameBuf::from_vec(encode_reply(true, &[4], &[]))))
                .collect()
        });
        let opts = ExploreOptions {
            call: Some(hook),
            ..Default::default()
        };
        // One round only (final round, with a pattern): no hop boundary
        // follows that could notice a lapsed budget.
        let r = ex.explore_with(0, 5, 0, b"David", &opts);
        assert!(r.deadline_exceeded, "{r:?}");
        assert_eq!((r.matches.as_slice(), r.failed_batches), (&[4][..], 0));
        let obs = cloud.node(0).endpoint().obs();
        assert_eq!(obs.counter("explore.deadline_exceeded").get(), 1);
        cloud.shutdown();
    }

    #[test]
    fn every_request_of_every_round_leaves_from_the_calling_thread() {
        let (cloud, ex) = cloud_with(&trinity_graphgen::social(400, 12, 9), 4, None);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let hook: CallHook = {
            let (seen, endpoint) = (Arc::clone(&seen), Arc::clone(cloud.node(0).endpoint()));
            Arc::new(move |requests| {
                let me = std::thread::current().id();
                seen.lock().extend(requests.iter().map(|_| me));
                endpoint.call_many(requests)
            })
        };
        let opts = ExploreOptions {
            call: Some(hook),
            ..Default::default()
        };
        let r = ex.explore_with(0, 7, 3, b"", &opts);
        assert_eq!(r.per_hop, ex.explore(0, 7, 3, b"").per_hop);
        let seen = seen.lock();
        assert!(seen.len() > 3, "rounds of several batches: {}", seen.len());
        assert_eq!(seen.len(), r.batches);
        let me = std::thread::current().id();
        assert!(
            seen.iter().all(|&t| t == me),
            "a request left another thread"
        );
        cloud.shutdown();
    }

    #[test]
    fn a_hook_returning_too_few_results_fails_those_batches() {
        let (cloud, ex) = cloud_with(&trinity_graphgen::social(400, 12, 9), 4, None);
        // The start node's round has one batch and gets no result for it.
        let hook: CallHook = Arc::new(|_| Vec::new());
        let opts = ExploreOptions {
            call: Some(hook),
            ..Default::default()
        };
        let r = ex.explore_with(0, 7, 3, b"", &opts);
        assert_eq!((r.batches, r.failed_batches, r.per_hop), (1, 1, vec![1]));
        let obs = cloud.node(0).endpoint().obs();
        assert_eq!(obs.counter("explore.failed_batches").get(), 1);
        cloud.shutdown();
    }

    #[test]
    fn a_scan_cut_by_the_deadline_says_so_on_both_scan_paths() {
        let n = 600u64;
        let (cloud, ex) = cloud_with(&path_graph(n as usize), 1, None);
        let ids: Vec<CellId> = (0..n).collect();
        let request = encode_request(true, b"", &ids);
        for workers in [1, 4] {
            let whole = expand_local(&ex.handles[0], &request, workers).unwrap();
            let (truncated, _, neighbors) = decode_reply(&whole).unwrap();
            assert!(!truncated, "workers={workers}");
            assert_eq!(neighbors, ids, "workers={workers}");
            // Budget long gone: every scan stops at its first poll (id 63 of
            // its chunk) and the reply owns up to it.
            let _expired = DeadlineGuard::enter(1);
            let cut = expand_local(&ex.handles[0], &request, workers).unwrap();
            let (truncated, _, neighbors) = decode_reply(&cut).unwrap();
            assert!(truncated, "workers={workers}");
            assert!(neighbors.len() < ids.len(), "workers={workers}");
        }
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
}
