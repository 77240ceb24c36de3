//! The online-query engine against a single-process reference BFS over
//! the source `Csr`: every distributed answer (`per_hop`, `matches`) must
//! equal what a plain level-by-level walk of the adjacency lists gives,
//! for any machine count, coordinator, hop budget and pattern — and it
//! must get there with exactly the work the answer needs: one batch per
//! (round, owning machine), no cell scanned for a round nothing consumes.

#[path = "wire_model/mod.rs"]
mod wire_model;

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier, Mutex};

use trinity_core::{
    explore_via, CallHook, ExplorationResult, ExploreOptions, Explorer, TrinityCluster,
    TrinityConfig,
};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_graphgen::names::name_for;
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_net::MachineId;

const NAME_SEED: u64 = 13;

/// Level-by-level BFS with the explorer's result conventions: index 0 is
/// the start node, trailing empty levels are dropped, matches are the
/// visited nodes whose name contains `pattern` (none for an empty one).
fn reference(csr: &Csr, start: u64, hops: usize, pattern: &str) -> (Vec<usize>, Vec<u64>) {
    let levels = reference_levels(csr, start, hops);
    let mut matches: Vec<u64> = levels
        .iter()
        .flatten()
        .copied()
        .filter(|&v| !pattern.is_empty() && name_for(NAME_SEED, v).contains(pattern))
        .collect();
    matches.sort_unstable();
    (levels.iter().map(Vec::len).collect(), matches)
}

/// The BFS levels themselves: level 0 is the start, no level is empty.
fn reference_levels(csr: &Csr, start: u64, hops: usize) -> Vec<Vec<u64>> {
    let mut seen = vec![false; csr.node_count()];
    seen[start as usize] = true;
    let mut levels = vec![vec![start]];
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in &levels[levels.len() - 1] {
            for &t in csr.neighbors(v) {
                if !std::mem::replace(&mut seen[t as usize], true) {
                    next.push(t);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    levels
}

/// The levels a query has to send out: every level with a hop still to go
/// is expanded; the last one is only asked for matches, so without a
/// pattern nobody is asked about it at all.
fn levels_asked(csr: &Csr, start: u64, hops: usize, pattern: &str) -> Vec<Vec<u64>> {
    let mut levels = reference_levels(csr, start, hops);
    levels.truncate(hops + usize::from(!pattern.is_empty()));
    levels
}

/// Traversal hops the cluster's LoadMaps have attributed so far.
fn load_map_hops(cloud: &MemoryCloud) -> u64 {
    // A roll shorter than a millisecond is skipped; outwait it.
    std::thread::sleep(std::time::Duration::from_millis(2));
    let obs = cloud.fabric().obs();
    (0..cloud.machines() as u16)
        .flat_map(|m| obs.scope(m).load().snapshot())
        .map(|trunk| trunk.hops)
        .sum()
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
            let table = cloud.node(0).table();
            let mut cells_asked = 0;
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
                    // Exact work: one batch per (round, owning machine) and
                    // one cell scan per id some round asks about.
                    let asked = levels_asked(&csr, start, hops, pattern);
                    let owners = |level: &Vec<u64>| {
                        BTreeSet::from_iter(level.iter().map(|&v| table.machine_of(v))).len()
                    };
                    assert_eq!(
                        got.batches,
                        asked.iter().map(owners).sum::<usize>(),
                        "batches: {what}"
                    );
                    cells_asked += asked.iter().map(Vec::len).sum::<usize>();
                }
            }
            assert_eq!(
                load_map_hops(&cloud),
                cells_asked as u64,
                "LoadMap traversal hops: seed={seed} machines={machines}"
            );
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
    // Zero hops never leaves the start node, whatever its degree — and
    // with no pattern there is nothing to ask anyone.
    let zero = explorer.explore(1, 0, 0, b"");
    assert_matches_reference(&zero, &csr, 0, 0, "", "zero hops");
    assert_eq!(zero.visited(), 1);
    assert_eq!(zero.batches, 0);
    // With one, the start node is the one cell checked.
    let zero = explorer.explore(1, 0, 0, b"David");
    assert_matches_reference(&zero, &csr, 0, 0, "David", "zero hops, pattern");
    assert_eq!(zero.batches, 1);
    cloud.shutdown();
}

#[test]
fn a_patternless_query_never_touches_its_last_level() {
    let csr = trinity_graphgen::social(300, 8, 7);
    let (cloud, explorer) = named_cloud(&csr, 3);
    let levels = reference_levels(&csr, 11, 3);
    assert_eq!(levels.len(), 4, "the graph is deep enough for 3 hops");
    let got = explorer.explore(0, 11, 3, b"");
    assert_matches_reference(&got, &csr, 11, 3, "", "3 hops");
    assert_eq!(
        load_map_hops(&cloud),
        (got.visited() - levels[3].len()) as u64,
        "cells scanned = visited − |last level|"
    );
    cloud.shutdown();
}

#[test]
fn the_match_round_ships_no_neighbors() {
    let csr = trinity_graphgen::social(300, 8, 7);
    let (cloud, explorer) = named_cloud(&csr, 3);
    // Pass every call through, keeping what was asked and answered.
    let wire = Arc::new(Mutex::new(Vec::new()));
    let hook: CallHook = {
        let (wire, cloud) = (Arc::clone(&wire), Arc::clone(&cloud));
        Arc::new(move |requests| {
            let replies = cloud.node(0).endpoint().call_many(requests);
            for (&(_, _, payload), reply) in requests.iter().zip(&replies) {
                if let Ok(reply) = reply {
                    wire.lock()
                        .unwrap()
                        .push((payload.to_vec(), reply.to_vec()));
                }
            }
            replies
        })
    };
    let opts = ExploreOptions {
        call: Some(hook),
        ..Default::default()
    };
    let got = explorer.explore_with(0, 11, 2, b"David", &opts);
    assert_matches_reference(&got, &csr, 11, 2, "David", "2 hops, pattern");
    let (mut expanding, mut matching) = (0, 0);
    for (request, reply) in wire.lock().unwrap().iter() {
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
fn an_id_routed_past_the_slave_count_is_asked_of_its_owner() {
    // Three slaves and a proxy (machine 3) that runs no EXPAND handler.
    let csr = trinity_graphgen::social(120, 6, 5);
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(3, 1));
    load_graph(Arc::clone(cluster.cloud()), &csr, &LoadOptions::default()).unwrap();
    let _explorer = Explorer::install(Arc::clone(cluster.cloud()));
    let start = 9;
    let explore = |owner: MachineId| {
        // A table that moved the start's trunk to `owner` — as after a
        // migration to a machine joined later — while the caller still
        // passes the slave count it was configured with.
        let mut table = cluster.cloud().node(0).table();
        table.reassign_one(table.trunk_of(start), owner);
        let coordinator = cluster.cloud().node(0).endpoint();
        explore_via(
            coordinator,
            &table,
            2,
            start,
            2,
            b"",
            &ExploreOptions::default(),
        )
    };
    // A machine that serves EXPAND answers (reading the cell from wherever
    // it really lives): the query is complete.
    let got = explore(MachineId(2));
    assert_matches_reference(&got, &csr, start, 2, "", "owner past the slave count");
    // One that does not, or does not exist, is a lost batch — not a panic.
    for (owner, what) in [
        (cluster.proxy(0).machine(), "no handler"),
        (MachineId(7), "no such machine"),
    ] {
        let got = explore(owner);
        assert_eq!((got.failed_batches, got.batches), (1, 1), "{what}");
        assert_eq!(got.per_hop, vec![1], "{what}");
    }
    cluster.shutdown();
}
