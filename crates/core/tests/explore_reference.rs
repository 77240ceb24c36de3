//! The online-query engine against a single-process reference BFS over
//! the source `Csr`: every distributed answer (`per_hop`, `matches`) must
//! equal what a plain level-by-level walk of the adjacency lists gives,
//! for any machine count, coordinator, hop budget and pattern.

use std::sync::{Arc, Barrier};

use trinity_core::{ExplorationResult, Explorer};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_graphgen::names::name_for;
use trinity_memcloud::{CloudConfig, MemoryCloud};

const NAME_SEED: u64 = 13;

/// Level-by-level BFS with the explorer's result conventions: index 0 is
/// the start node, trailing empty levels are dropped, matches are the
/// visited nodes whose name contains `pattern` (none for an empty one).
fn reference(csr: &Csr, start: u64, hops: usize, pattern: &str) -> (Vec<usize>, Vec<u64>) {
    let mut seen = vec![false; csr.node_count()];
    seen[start as usize] = true;
    let mut per_hop = vec![1];
    let mut matches = Vec::new();
    let mut frontier = vec![start];
    for hop in 0..=hops {
        if !pattern.is_empty() {
            matches.extend(
                frontier
                    .iter()
                    .filter(|&&v| name_for(NAME_SEED, v).contains(pattern)),
            );
        }
        if hop == hops {
            break;
        }
        let mut next = Vec::new();
        for &v in &frontier {
            for &t in csr.neighbors(v) {
                if !std::mem::replace(&mut seen[t as usize], true) {
                    next.push(t);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        per_hop.push(next.len());
        frontier = next;
    }
    matches.sort_unstable();
    (per_hop, matches)
}

fn named_cloud(csr: &Csr, machines: usize) -> (Arc<MemoryCloud>, Arc<Explorer>) {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
    load_graph(
        Arc::clone(&cloud),
        csr,
        &LoadOptions {
            with_in_links: false,
            attrs: Some(Arc::new(|v| name_for(NAME_SEED, v).into_bytes())),
        },
    )
    .unwrap();
    let explorer = Explorer::install(Arc::clone(&cloud));
    (cloud, explorer)
}

fn assert_matches_reference(
    got: &ExplorationResult,
    csr: &Csr,
    start: u64,
    hops: usize,
    pattern: &str,
    what: &str,
) {
    let (per_hop, matches) = reference(csr, start, hops, pattern);
    assert_eq!(got.per_hop, per_hop, "per_hop: {what}");
    assert_eq!(got.matches, matches, "matches: {what}");
    assert_eq!(got.failed_batches, 0, "failed batches: {what}");
    assert!(!got.deadline_exceeded && !got.cancelled, "{what}");
}

#[test]
fn random_social_graphs_match_the_reference_bfs() {
    let mut named_hits = 0;
    for seed in [3u64, 7, 11] {
        let csr = trinity_graphgen::social(300, 8, seed);
        for machines in [2usize, 3, 4] {
            let (cloud, explorer) = named_cloud(&csr, machines);
            for pattern in ["", "David"] {
                for (q, hops) in [0usize, 1, 2, 3, 5].into_iter().enumerate() {
                    let start = (seed * 31 + q as u64 * 57) % 300;
                    let from = q % machines;
                    let got = explorer.explore(from, start, hops, pattern.as_bytes());
                    let what = format!(
                        "seed={seed} machines={machines} from={from} start={start} \
                         hops={hops} pattern={pattern:?}"
                    );
                    assert_matches_reference(&got, &csr, start, hops, pattern, &what);
                    named_hits += got.matches.len();
                }
            }
            cloud.shutdown();
        }
    }
    assert!(named_hits > 0, "the pattern half of the matrix was vacuous");
}

#[test]
fn concurrent_queries_from_different_coordinators_do_not_interfere() {
    let csr = trinity_graphgen::social(400, 10, 9);
    let (cloud, explorer) = named_cloud(&csr, 4);
    let queries = 8usize;
    // The barrier releases every query at once, so their fan-outs are in
    // flight on the same slaves together.
    let gate = Barrier::new(queries);
    std::thread::scope(|scope| {
        for q in 0..queries {
            let (explorer, csr, gate) = (&explorer, &csr, &gate);
            scope.spawn(move || {
                let start = q as u64 * 50;
                let pattern = if q % 2 == 0 { "" } else { "David" };
                gate.wait();
                for round in 0..4 {
                    let got = explorer.explore(q % 4, start, 3, pattern.as_bytes());
                    let what = format!("query {q} round {round}");
                    assert_matches_reference(&got, csr, start, 3, pattern, &what);
                }
            });
        }
    });
    cloud.shutdown();
}

#[test]
fn zero_hops_and_isolated_starts() {
    let csr = Csr::undirected_from_edges(5, &[(0, 1)], true);
    let (cloud, explorer) = named_cloud(&csr, 2);
    // Node 3 has no edges: any hop budget visits only it.
    let isolated = explorer.explore(0, 3, 4, b"");
    assert_matches_reference(&isolated, &csr, 3, 4, "", "isolated start");
    assert_eq!(isolated.visited(), 1);
    assert_eq!(isolated.batches, 1);
    // Zero hops never leaves the start node, whatever its degree.
    let zero = explorer.explore(1, 0, 0, b"");
    assert_matches_reference(&zero, &csr, 0, 0, "", "zero hops");
    assert_eq!(zero.visited(), 1);
    assert_eq!(zero.batches, 1);
    cloud.shutdown();
}
