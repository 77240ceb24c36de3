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
//! cells and returns the discovered neighbors (and attribute matches).
//! All machines expand in parallel, so each hop costs one fan-out round —
//! which is why 3-hop queries over millions of reachable nodes return in
//! the tens of milliseconds.

use std::collections::HashSet;
use std::sync::Arc;

use trinity_graph::GraphHandle;
use trinity_memcloud::{AddressingTable, CellId, MemoryCloud};
use trinity_net::{
    current_deadline, deadline_expired, CancelToken, DeadlineGuard, Endpoint, FrameBuf, MachineId,
    NetError, ProtoId,
};
use trinity_obs::{current_trace, next_trace_id, TraceGuard, NO_TRACE};

use crate::proto;

/// How a fan-out request is issued. The serving runtime injects its
/// request coalescer here so identical in-flight expansions against the
/// same machine merge into one upstream call; the default is a plain
/// [`Endpoint::call`].
pub type CallHook =
    Arc<dyn Fn(MachineId, ProtoId, &[u8]) -> trinity_net::Result<FrameBuf> + Send + Sync>;

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

fn encode_ids(pattern: &[u8], ids: &[CellId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + pattern.len() + ids.len() * 8);
    out.extend_from_slice(&(pattern.len() as u16).to_le_bytes());
    out.extend_from_slice(pattern);
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

fn decode_ids(data: &[u8]) -> Option<(&[u8], Vec<CellId>)> {
    if data.len() < 2 {
        return None;
    }
    let plen = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
    let pattern = data.get(2..2 + plen)?;
    let rest = &data[2 + plen..];
    if rest.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let body = rest.get(4..4 + n * 8)?;
    let ids = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Some((pattern, ids))
}

fn encode_reply(matches: &[CellId], neighbors: &[CellId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + (matches.len() + neighbors.len()) * 8);
    out.extend_from_slice(&(matches.len() as u32).to_le_bytes());
    for m in matches {
        out.extend_from_slice(&m.to_le_bytes());
    }
    out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
    for n in neighbors {
        out.extend_from_slice(&n.to_le_bytes());
    }
    out
}

fn decode_reply(data: &[u8]) -> Option<(Vec<CellId>, Vec<CellId>)> {
    let n_m = u32::from_le_bytes(data.get(..4)?.try_into().unwrap()) as usize;
    let m_end = 4 + n_m * 8;
    let matches = data
        .get(4..m_end)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let n_n = u32::from_le_bytes(data.get(m_end..m_end + 4)?.try_into().unwrap()) as usize;
    let neighbors = data
        .get(m_end + 4..m_end + 4 + n_n * 8)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Some((matches, neighbors))
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
                    let (pattern, ids) = decode_ids(data)?;
                    Some(expand_local(&handle, pattern, &ids, workers))
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
/// `slaves` is the number of machines holding graph data; the addressing
/// `table` routes each frontier id to its owner.
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
    let effective_deadline = current_deadline();
    let obs = coordinator.obs();
    obs.counter("explore.queries").inc();
    let hop_us = obs.histogram("explore.hop.us");
    let frontier_sizes = obs.histogram("explore.frontier");
    let batches_sent = obs.counter("explore.batches");
    let mut visited: HashSet<CellId> = HashSet::new();
    visited.insert(start);
    let mut result = ExplorationResult {
        per_hop: vec![1],
        ..Default::default()
    };
    let mut frontier = vec![start];
    for hop in 0..=hops {
        // Hop boundaries are the cooperation points: a lapsed budget or a
        // cancelled token stops the fan-out and returns what previous
        // hops already established.
        if deadline_expired() {
            result.deadline_exceeded = true;
            obs.counter("explore.deadline_exceeded").inc();
            break;
        }
        if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            result.cancelled = true;
            obs.counter("explore.cancelled").inc();
            break;
        }
        let hop_start_us = obs.now_us();
        frontier_sizes.record(frontier.len() as u64);
        // Partition the frontier by owner machine.
        let mut by_machine: Vec<Vec<CellId>> = vec![Vec::new(); slaves];
        for &id in &frontier {
            by_machine[table.machine_of(id).0 as usize].push(id);
        }
        // One batched request per machine owning part of the frontier.
        let batches: Vec<(MachineId, &[CellId])> = by_machine
            .iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(m, batch)| (MachineId(m as u16), batch.as_slice()))
            .collect();
        let issue = |dst: MachineId, batch: &[CellId]| {
            let payload = encode_ids(pattern, batch);
            match &opts.call {
                Some(call) => call(dst, proto::EXPAND, &payload),
                None => coordinator.call(dst, proto::EXPAND, &payload),
            }
        };
        let replies: Vec<trinity_net::Result<FrameBuf>> = match batches.as_slice() {
            // A lone batch (hop 0 always is one) goes out on the calling
            // thread, which already carries the query's trace and deadline.
            &[(dst, batch)] => vec![issue(dst, batch)],
            // Several are issued in parallel. Each worker re-installs the
            // trace and deadline: guards are thread-local and these are
            // fresh scoped threads.
            many => std::thread::scope(|scope| {
                let joins: Vec<_> = many
                    .iter()
                    .map(|&(dst, batch)| {
                        let issue = &issue;
                        scope.spawn(move || {
                            let _tg = TraceGuard::enter(trace);
                            let _dg = DeadlineGuard::enter(effective_deadline);
                            issue(dst, batch)
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("expand worker panicked"))
                    .collect()
            }),
        };
        let hop_batches = batches.len();
        result.batches += hop_batches;
        batches_sent.add(hop_batches as u64);
        let mut reply_bytes = 0u64;
        let mut next = Vec::new();
        for reply in replies {
            let decoded = match reply {
                Ok(reply) => {
                    reply_bytes += reply.len() as u64;
                    decode_reply(&reply)
                }
                Err(NetError::DeadlineExceeded(_, _)) => {
                    result.deadline_exceeded = true;
                    continue;
                }
                Err(_) => None,
            };
            // A batch lost to a dead owner or a damaged reply leaves a hole
            // in the frontier: say so instead of looking complete.
            let Some((matches, neighbors)) = decoded else {
                result.failed_batches += 1;
                obs.counter("explore.failed_batches").inc();
                continue;
            };
            result.matches.extend(matches);
            if hop < hops {
                for n in neighbors {
                    if visited.insert(n) {
                        next.push(n);
                    }
                }
            }
        }
        hop_us.record(obs.now_us().saturating_sub(hop_start_us));
        obs.span(
            "explore.hop",
            proto::EXPAND,
            reply_bytes,
            hop_batches.min(u32::MAX as usize) as u32,
            hop_start_us,
        );
        if hop < hops {
            result.per_hop.push(next.len());
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    result.matches.sort_unstable();
    result.matches.dedup();
    // Normalize: drop trailing empty hops (the frontier died before the
    // hop budget ran out).
    while result.per_hop.len() > 1 && *result.per_hop.last().unwrap() == 0 {
        result.per_hop.pop();
    }
    result
}

/// Slave-side frontier expansion: purely local zero-copy reads. The scan
/// polls the envelope-carried deadline (installed on this worker thread by
/// the fabric) every few dozen ids and returns what it has when the budget
/// lapses — a partial reply beats a wasted one.
///
/// Large frontiers are split into contiguous chunks scanned by a pool of
/// scoped threads; trunk reads are lock-free for concurrent readers, so
/// the chunks proceed independently. Chunk results are concatenated in
/// chunk order and the neighbor set is sorted and deduplicated exactly as
/// in the serial scan, so the reply bytes do not depend on the pool width.
fn expand_local(handle: &GraphHandle, pattern: &[u8], ids: &[CellId], workers: usize) -> Vec<u8> {
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
    let mut matches = Vec::new();
    let mut neighbors = Vec::new();
    if workers > 1 && ids.len() >= PARALLEL_FRONTIER {
        let chunk = ids.len().div_ceil(workers);
        let trace = current_trace();
        let deadline = current_deadline();
        let parts: Vec<(Vec<CellId>, Vec<CellId>)> = std::thread::scope(|scope| {
            let joins: Vec<_> = ids
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        // Trace and deadline are thread-local; re-enter
                        // them so chunk scans poll the query's budget.
                        let _tg = TraceGuard::enter(trace);
                        let _dg = DeadlineGuard::enter(deadline);
                        scan_ids(handle, pattern, part)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("expand pool worker panicked"))
                .collect()
        });
        for (m, n) in parts {
            matches.extend(m);
            neighbors.extend(n);
        }
    } else {
        let (m, n) = scan_ids(handle, pattern, ids);
        matches = m;
        neighbors = n;
    }
    neighbors.sort_unstable();
    neighbors.dedup();
    encode_reply(&matches, &neighbors)
}

/// Scan one contiguous run of frontier ids, polling the deadline every
/// few dozen ids.
fn scan_ids(handle: &GraphHandle, pattern: &[u8], ids: &[CellId]) -> (Vec<CellId>, Vec<CellId>) {
    let mut matches = Vec::new();
    let mut neighbors = Vec::new();
    // Per-trunk hop attribution, batched locally so the hot loop pays one
    // `trunk_of` hash per id and the shared LoadMap one update per trunk.
    let table = handle.cloud().table();
    let mut hops: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (i, &id) in ids.iter().enumerate() {
        if i % 64 == 63 && deadline_expired() {
            break;
        }
        let _ = handle.with_node(id, |view| {
            if !pattern.is_empty() && contains(view.attrs(), pattern) {
                matches.push(id);
            }
            neighbors.extend(view.outs());
        });
        *hops.entry(table.trunk_of(id)).or_insert(0) += 1;
    }
    let load = handle.cloud().endpoint().obs().load();
    for (trunk, n) in hops {
        load.record_hops(trunk, n);
    }
    (matches, neighbors)
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
