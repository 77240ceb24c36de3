//! The client-side read path end to end: a k-hop traversal driven from one
//! machine over a hub-heavy graph, where ~3/4 of the cells are remote.
//! Count-based guards on the three things that path promises — the remote
//! cache serves repeats, a payload byte is copied once on its way into a
//! frame, and a traced query stitches into one cross-machine timeline.

use std::collections::HashSet;
use std::sync::Arc;

use trinity::graph::{load_graph, Csr, GraphHandle, LoadOptions};
use trinity::memcloud::{CloudConfig, MemoryCloud};
use trinity_obs::{next_trace_id, SpanEvent, Timeline, TraceGuard};

const MACHINES: usize = 4;
const HOPS: usize = 2;

/// A power-law graph and its four highest-degree vertices: queries that
/// start at hubs fan out and revisit the same high-degree cells, the
/// workload the cache is for.
fn hub_graph() -> (Csr, Vec<u64>) {
    let n = 2_000;
    let csr = trinity::graphgen::power_law(n, 2.16, 1, n / 10, 7);
    let mut by_degree: Vec<u64> = (0..n as u64).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(csr.out_degree(v)));
    by_degree.truncate(4);
    (csr, by_degree)
}

/// A cloud holding `csr`, read through machine 0's handle.
fn cloud_with(csr: &Csr, cache_capacity: usize) -> (Arc<MemoryCloud>, GraphHandle) {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig {
        cache_capacity,
        ..CloudConfig::new(MACHINES)
    }));
    let opts = LoadOptions {
        with_in_links: false,
        attrs: None,
    };
    load_graph(Arc::clone(&cloud), csr, &opts).expect("load graph");
    let handle = GraphHandle::new(Arc::clone(cloud.node(0)));
    (cloud, handle)
}

/// Level-synchronous traversal from `start`. With `prefetch`, each hop's
/// remote frontier is batch-fetched (one MULTI_GET envelope per owner)
/// before the per-node visits; without it every remote node costs one GET
/// round trip. `after_hop(frontier_len)` runs at each hop boundary.
fn traverse(
    handle: &GraphHandle,
    start: u64,
    prefetch: bool,
    mut after_hop: impl FnMut(usize),
) -> usize {
    let mut visited: HashSet<u64> = HashSet::from([start]);
    let mut frontier = vec![start];
    for _ in 0..HOPS {
        if prefetch {
            let remote: Vec<u64> = frontier
                .iter()
                .copied()
                .filter(|&id| !handle.is_local(id))
                .collect();
            handle.prefetch(&remote);
        }
        let mut next = Vec::new();
        for &id in &frontier {
            let _ = handle.with_node(id, |view| {
                for n in view.outs() {
                    if visited.insert(n) {
                        next.push(n);
                    }
                }
            });
        }
        after_hop(frontier.len());
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    visited.len()
}

/// One pass over every start; returns (vertices visited, remote envelopes,
/// cache hits) for the pass.
fn pass(
    cloud: &MemoryCloud,
    handle: &GraphHandle,
    starts: &[u64],
    prefetch: bool,
) -> (usize, u64, u64) {
    let net0 = cloud.fabric().total_stats();
    let hits0 = cloud.cache_stats().hits;
    let visited = starts
        .iter()
        .map(|&s| traverse(handle, s, prefetch, |_| {}))
        .sum();
    let envelopes = net0
        .delta_to(&cloud.fabric().total_stats())
        .remote_envelopes;
    (visited, envelopes, cloud.cache_stats().hits - hits0)
}

#[test]
fn warm_cache_halves_remote_envelopes_and_copies_each_byte_once() {
    let (csr, starts) = hub_graph();

    // The ablation baseline: no cache, no prefetch, every remote read a
    // round trip — the second pass costs what the first did.
    let (cloud, handle) = cloud_with(&csr, 0);
    let (cold_visited, _, _) = pass(&cloud, &handle, &starts, false);
    let (visited, baseline_envelopes, hits) = pass(&cloud, &handle, &starts, false);
    assert_eq!(visited, cold_visited, "traversal must be deterministic");
    assert_eq!(hits, 0, "a disabled cache cannot hit");
    cloud.shutdown();

    let (cloud, handle) = cloud_with(&csr, 4096);
    let (cold_visited, _, _) = pass(&cloud, &handle, &starts, true);
    let (visited, warm_envelopes, warm_hits) = pass(&cloud, &handle, &starts, true);
    assert_eq!(visited, cold_visited, "traversal must be deterministic");
    assert!(warm_hits > 0, "the warm pass recorded no cache hits");
    assert!(
        warm_envelopes * 2 <= baseline_envelopes,
        "warm pass used {warm_envelopes} remote envelopes, cache-disabled baseline \
         {baseline_envelopes}: less than a 2x reduction"
    );

    // The one-copy contract over the whole run (load + cold + warm): the
    // wire path may memcpy a payload byte at most once, into the pack
    // arena; replies adopt their buffers. The tolerance absorbs frames
    // buffered but not yet shipped when the counters are read.
    let obs = cloud.fabric().obs();
    let sum =
        |name: &'static str| -> u64 { obs.scopes().iter().map(|s| s.counter(name).get()).sum() };
    let (copied, payload) = (sum("net.frame_copy_bytes"), sum("net.frame_payload_bytes"));
    assert!(payload > 0, "the read path shipped no payload");
    assert!(
        copied as f64 <= 1.05 * payload as f64,
        "{copied} bytes copied for {payload} payload bytes: one-copy contract broken"
    );
    cloud.shutdown();
}

#[test]
fn a_traced_query_stitches_into_one_cross_machine_timeline() {
    let (csr, starts) = hub_graph();
    let (cloud, handle) = cloud_with(&csr, 4096);
    let scope = handle.cloud().endpoint().obs().clone();

    // One query under a fresh trace id, with one `query.hop` span per hop
    // recorded on the coordinator. Consecutive spans share a boundary
    // timestamp, so they tile the query with no seam.
    let trace = next_trace_id();
    let mut bounds = vec![scope.now_us()];
    {
        let _guard = TraceGuard::enter(trace);
        traverse(&handle, starts[0], true, |frontier| {
            let start_us = *bounds.last().unwrap();
            let end_us = scope.now_us();
            scope.spans().record(SpanEvent {
                trace,
                machine: 0,
                label: "query.hop",
                proto: 0,
                bytes: 0,
                frames: frontier as u32,
                start_us,
                end_us,
            });
            bounds.push(end_us);
        });
    }
    let (query_start, query_end) = (bounds[0], *bounds.last().unwrap());
    assert_eq!(
        bounds.len(),
        HOPS + 1,
        "a hub's neighborhood fills every hop"
    );

    let timeline = Timeline::from_registry(cloud.fabric().obs(), trace);
    let hops: Vec<&SpanEvent> = timeline
        .spans
        .iter()
        .filter(|s| s.label == "query.hop")
        .collect();
    assert_eq!(hops.len(), HOPS);
    let tiled: u64 = hops.iter().map(|s| s.end_us - s.start_us).sum();
    assert_eq!(tiled, query_end - query_start, "hop spans must tile");
    let machines: HashSet<u16> = timeline.spans.iter().map(|s| s.machine).collect();
    assert!(
        machines.len() > 1,
        "the owners' spans were not stitched in: {machines:?}"
    );

    // Every span that finished inside the query lies under the tiling, so
    // the critical path covers exactly the tiled time. (An owner may stamp
    // its dispatch span a moment after its reply was consumed; such a span
    // is part of the trace but not of the query's wall.)
    let inside = Timeline::build(
        trace,
        timeline
            .spans
            .iter()
            .copied()
            .filter(|s| s.end_us <= query_end),
    );
    assert!(
        inside.spans.len() > HOPS,
        "only the hop spans were captured"
    );
    assert_eq!(inside.critical_us(), tiled);
    assert!(timeline.critical_us() >= tiled);

    // The Chrome export of the full timeline passes the artifact schema.
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/read_path.trace.json");
    std::fs::write(path, format!("{}\n", timeline.chrome_trace_json())).unwrap();
    trinity_bench::check_artifact(path).unwrap();
    cloud.shutdown();
}
