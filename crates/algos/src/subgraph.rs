//! Index-free subgraph matching (paper §5.2, Figures 8(a) and 14(a)).
//!
//! Indexes for subgraph queries need super-linear space or construction
//! time (the paper cites the O(n⁴) 2-hop index behind R-Join), which is
//! hopeless at web scale. Trinity instead matches patterns by *parallel
//! exploration*: candidate roots are scanned in parallel on every
//! machine, and each partial embedding is extended by walking the
//! neighborhoods of already-matched vertices — pure random access, no
//! index.
//!
//! Following the paper's experimental setup (queries generated with the
//! DFS and RANDOM methods of reference \[32\], query size 10), patterns are
//! sampled from the data graph itself so every query has at least one
//! embedding, and nodes carry small labels to make matching selective.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::RngExt;
use rand::SeedableRng;

use trinity_graph::{Csr, DistributedGraph};
use trinity_memcloud::CellId;

/// A query pattern: labeled vertices plus undirected edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Label per pattern vertex.
    pub labels: Vec<u8>,
    /// Adjacency lists (symmetric).
    pub adj: Vec<Vec<usize>>,
}

impl Pattern {
    /// Number of pattern vertices.
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// A matching order where every vertex after the first has an
    /// already-ordered neighbor (BFS over the pattern).
    fn matching_order(&self) -> Vec<usize> {
        let n = self.size();
        // Start from the highest-degree pattern vertex (most selective).
        let root = (0..n).max_by_key(|&v| self.adj[v].len()).unwrap_or(0);
        let mut order = vec![root];
        let mut seen = vec![false; n];
        seen[root] = true;
        let mut at = 0;
        while at < order.len() {
            let v = order[at];
            at += 1;
            for &t in &self.adj[v] {
                if !seen[t] {
                    seen[t] = true;
                    order.push(t);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "patterns must be connected");
        order
    }
}

/// How query patterns are sampled from the data graph (reference \[32\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternGen {
    /// Take the first `size` vertices of a depth-first walk.
    Dfs,
    /// Grow by uniformly random frontier expansion.
    Random,
}

/// Sample a connected pattern of `size` vertices from the data graph,
/// carrying the data labels; the returned pattern is the induced
/// subgraph, so at least one embedding exists.
pub fn generate_pattern(
    csr: &Csr,
    labels: &[u8],
    size: usize,
    gen: PatternGen,
    seed: u64,
) -> Pattern {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = csr.node_count();
    loop {
        let start = rng.random_range(0..n as u64);
        let mut chosen: Vec<u64> = vec![start];
        match gen {
            PatternGen::Dfs => {
                let mut stack = vec![start];
                while chosen.len() < size {
                    let Some(&top) = stack.last() else { break };
                    let fresh: Vec<u64> = csr
                        .neighbors(top)
                        .iter()
                        .copied()
                        .filter(|v| !chosen.contains(v))
                        .collect();
                    if fresh.is_empty() {
                        stack.pop();
                        continue;
                    }
                    let next = fresh[rng.random_range(0..fresh.len())];
                    chosen.push(next);
                    stack.push(next);
                }
            }
            PatternGen::Random => {
                while chosen.len() < size {
                    let mut frontier: Vec<u64> = chosen
                        .iter()
                        .flat_map(|&v| csr.neighbors(v).iter().copied())
                        .filter(|v| !chosen.contains(v))
                        .collect();
                    frontier.sort_unstable();
                    frontier.dedup();
                    if frontier.is_empty() {
                        break;
                    }
                    chosen.push(frontier[rng.random_range(0..frontier.len())]);
                }
            }
        }
        if chosen.len() < size {
            continue; // landed in a tiny component; resample
        }
        let index: HashMap<u64, usize> = chosen.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut adj = vec![Vec::new(); size];
        for (i, &v) in chosen.iter().enumerate() {
            for &t in csr.neighbors(v) {
                if let Some(&j) = index.get(&t) {
                    if i != j && !adj[i].contains(&j) {
                        adj[i].push(j);
                    }
                }
            }
        }
        return Pattern {
            labels: chosen.iter().map(|&v| labels[v as usize]).collect(),
            adj,
        };
    }
}

/// Result of one subgraph-match query.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphReport {
    /// Embeddings found (capped at the query limit).
    pub embeddings: usize,
    /// Wall-clock seconds on the simulation host.
    pub seconds: f64,
    /// Modeled cluster seconds: the slowest machine's CPU work plus its
    /// priced network traffic (each remote cell fetch is a round trip).
    pub modeled_seconds: f64,
    /// Candidate roots scanned.
    pub roots_scanned: usize,
}

/// Match `pattern` against the distributed graph. Every machine scans its
/// own partition for root candidates in parallel and extends embeddings
/// by (possibly remote) neighborhood exploration. Counting stops at
/// `limit` embeddings.
pub fn subgraph_match(graph: &DistributedGraph, pattern: &Pattern, limit: usize) -> SubgraphReport {
    let t0 = Instant::now();
    let order = pattern.matching_order();
    let found = AtomicUsize::new(0);
    let roots = AtomicUsize::new(0);
    let cost = graph.cloud().fabric().cost_model();
    let modeled_max = parking_lot::Mutex::new(0.0f64);
    std::thread::scope(|scope| {
        for m in 0..graph.machines() {
            let handle = graph.handle(m).clone();
            let order = &order;
            let found = &found;
            let roots = &roots;
            let modeled_max = &modeled_max;
            scope.spawn(move || {
                let timer = trinity_core::cputime::ThreadTimer::start();
                let net_before = handle.cloud().endpoint().stats().snapshot();
                let root_q = order[0];
                // Scan the local partition for root candidates.
                let mut candidates: Vec<CellId> = Vec::new();
                handle.for_each_local_node(|id, view| {
                    if view.attrs().first() == Some(&pattern.labels[root_q])
                        && view.out_degree() >= pattern.adj[root_q].len()
                    {
                        candidates.push(id);
                    }
                });
                roots.fetch_add(candidates.len(), Ordering::Relaxed);
                let mut cache: HashMap<CellId, (u8, Vec<CellId>)> = HashMap::new();
                let mut embedding: Vec<Option<CellId>> = vec![None; pattern.size()];
                for root in candidates {
                    if found.load(Ordering::Relaxed) >= limit {
                        break;
                    }
                    embedding[root_q] = Some(root);
                    extend(
                        &handle,
                        pattern,
                        order,
                        1,
                        &mut embedding,
                        &mut cache,
                        found,
                        limit,
                    );
                    embedding[root_q] = None;
                }
                // This machine's modeled time: its CPU work plus its
                // outbound traffic priced as serial round trips.
                let delta = handle.cloud().endpoint().stats().delta(&net_before);
                let modeled = timer.elapsed_seconds() + 2.0 * cost.transfer_seconds(&delta);
                let mut max = modeled_max.lock();
                *max = max.max(modeled);
            });
        }
    });
    let modeled_seconds = *modeled_max.lock();
    SubgraphReport {
        embeddings: found.load(Ordering::Relaxed).min(limit),
        seconds: t0.elapsed().as_secs_f64(),
        modeled_seconds,
        roots_scanned: roots.load(Ordering::Relaxed),
    }
}

/// Fetch (label, neighbors) with a per-query cache.
fn node_info(
    handle: &trinity_graph::GraphHandle,
    cache: &mut HashMap<CellId, (u8, Vec<CellId>)>,
    id: CellId,
) -> Option<(u8, Vec<CellId>)> {
    if let Some(hit) = cache.get(&id) {
        return Some(hit.clone());
    }
    let info = handle
        .with_node(id, |view| {
            (
                view.attrs().first().copied().unwrap_or(0),
                view.outs().collect::<Vec<_>>(),
            )
        })
        .ok()
        .flatten()?;
    cache.insert(id, info.clone());
    Some(info)
}

#[allow(clippy::too_many_arguments)]
fn extend(
    handle: &trinity_graph::GraphHandle,
    pattern: &Pattern,
    order: &[usize],
    depth: usize,
    embedding: &mut Vec<Option<CellId>>,
    cache: &mut HashMap<CellId, (u8, Vec<CellId>)>,
    found: &AtomicUsize,
    limit: usize,
) {
    if found.load(Ordering::Relaxed) >= limit {
        return;
    }
    if depth == order.len() {
        found.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let q = order[depth];
    // Pick an already-matched pattern neighbor to expand from.
    let anchor_q = pattern.adj[q]
        .iter()
        .copied()
        .find(|&j| embedding[j].is_some())
        .expect("matching order guarantees a matched neighbor");
    let anchor = embedding[anchor_q].unwrap();
    let (_, anchor_neighbors) = match node_info(handle, cache, anchor) {
        Some(info) => info,
        None => return,
    };
    for cand in anchor_neighbors {
        if embedding.contains(&Some(cand)) {
            continue; // injective matching
        }
        let (label, cand_neighbors) = match node_info(handle, cache, cand) {
            Some(info) => info,
            None => continue,
        };
        if label != pattern.labels[q] || cand_neighbors.len() < pattern.adj[q].len() {
            continue;
        }
        // Every already-matched pattern neighbor must be a data neighbor.
        let consistent = pattern.adj[q].iter().all(|&j| match embedding[j] {
            Some(data_j) => cand_neighbors.contains(&data_j),
            None => true,
        });
        if !consistent {
            continue;
        }
        embedding[q] = Some(cand);
        extend(
            handle,
            pattern,
            order,
            depth + 1,
            embedding,
            cache,
            found,
            limit,
        );
        embedding[q] = None;
        if found.load(Ordering::Relaxed) >= limit {
            return;
        }
    }
}

/// Single-process reference matcher (for verification).
pub fn reference_match(csr: &Csr, labels: &[u8], pattern: &Pattern, limit: usize) -> usize {
    let order = pattern.matching_order();
    let mut embedding: Vec<Option<u64>> = vec![None; pattern.size()];
    let mut count = 0usize;
    let root_q = order[0];
    for root in 0..csr.node_count() as u64 {
        if labels[root as usize] != pattern.labels[root_q]
            || csr.out_degree(root) < pattern.adj[root_q].len()
        {
            continue;
        }
        embedding[root_q] = Some(root);
        ref_extend(
            csr,
            labels,
            pattern,
            &order,
            1,
            &mut embedding,
            &mut count,
            limit,
        );
        embedding[root_q] = None;
        if count >= limit {
            break;
        }
    }
    count.min(limit)
}

#[allow(clippy::too_many_arguments)]
fn ref_extend(
    csr: &Csr,
    labels: &[u8],
    pattern: &Pattern,
    order: &[usize],
    depth: usize,
    embedding: &mut Vec<Option<u64>>,
    count: &mut usize,
    limit: usize,
) {
    if *count >= limit {
        return;
    }
    if depth == order.len() {
        *count += 1;
        return;
    }
    let q = order[depth];
    let anchor_q = pattern.adj[q]
        .iter()
        .copied()
        .find(|&j| embedding[j].is_some())
        .unwrap();
    let anchor = embedding[anchor_q].unwrap();
    for &cand in csr.neighbors(anchor) {
        if embedding.contains(&Some(cand)) {
            continue;
        }
        if labels[cand as usize] != pattern.labels[q] || csr.out_degree(cand) < pattern.adj[q].len()
        {
            continue;
        }
        let consistent = pattern.adj[q].iter().all(|&j| match embedding[j] {
            Some(dj) => csr.neighbors(cand).contains(&dj),
            None => true,
        });
        if !consistent {
            continue;
        }
        embedding[q] = Some(cand);
        ref_extend(
            csr,
            labels,
            pattern,
            order,
            depth + 1,
            embedding,
            count,
            limit,
        );
        embedding[q] = None;
    }
}

/// Assign deterministic labels from an alphabet of `distinct` symbols.
pub fn assign_labels(n: usize, distinct: u8, seed: u64) -> Vec<u8> {
    (0..n as u64)
        .map(|v| {
            // splitmix64-style mix of (seed, v).
            let mut x = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((x ^ (x >> 31)) % distinct as u64) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trinity_graph::{load_graph, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    fn labeled_cloud(
        csr: &Csr,
        labels: Vec<u8>,
        machines: usize,
    ) -> (Arc<MemoryCloud>, Arc<DistributedGraph>) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let labels = Arc::new(labels);
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> = {
            let labels = Arc::clone(&labels);
            Arc::new(move |v| vec![labels[v as usize]])
        };
        let graph = Arc::new(
            load_graph(
                Arc::clone(&cloud),
                csr,
                &LoadOptions {
                    with_in_links: false,
                    attrs: Some(attrs),
                },
            )
            .unwrap(),
        );
        (cloud, graph)
    }

    #[test]
    fn generated_patterns_are_connected_and_sized() {
        let csr = trinity_graphgen::social(500, 16, 3);
        let labels = assign_labels(500, 20, 1);
        for gen in [PatternGen::Dfs, PatternGen::Random] {
            let p = generate_pattern(&csr, &labels, 8, gen, 42);
            assert_eq!(p.size(), 8);
            assert_eq!(p.matching_order().len(), 8, "pattern must be connected");
            // Symmetric adjacency.
            for (i, adj) in p.adj.iter().enumerate() {
                for &j in adj {
                    assert!(p.adj[j].contains(&i));
                }
            }
        }
    }

    #[test]
    fn distributed_match_agrees_with_reference() {
        let csr = trinity_graphgen::social(400, 10, 9);
        let labels = assign_labels(400, 12, 2);
        let (cloud, graph) = labeled_cloud(&csr, labels.clone(), 3);
        for (gen, seed) in [(PatternGen::Dfs, 5), (PatternGen::Random, 6)] {
            let pattern = generate_pattern(&csr, &labels, 5, gen, seed);
            let expect = reference_match(&csr, &labels, &pattern, 10_000);
            let got = subgraph_match(&graph, &pattern, 10_000);
            assert_eq!(got.embeddings, expect, "{gen:?} pattern mismatch");
            assert!(
                got.embeddings >= 1,
                "a sampled pattern always has an embedding"
            );
        }
        cloud.shutdown();
    }

    #[test]
    fn limit_caps_the_search() {
        let csr = trinity_graphgen::social(600, 14, 4);
        let labels = assign_labels(600, 4, 3); // few labels => many embeddings
        let (cloud, graph) = labeled_cloud(&csr, labels.clone(), 2);
        let pattern = generate_pattern(&csr, &labels, 3, PatternGen::Random, 8);
        let got = subgraph_match(&graph, &pattern, 5);
        assert_eq!(got.embeddings, 5);
        cloud.shutdown();
    }

    #[test]
    fn machine_count_does_not_change_the_answer() {
        let csr = trinity_graphgen::social(300, 12, 13);
        let labels = assign_labels(300, 10, 4);
        let pattern = generate_pattern(&csr, &labels, 4, PatternGen::Dfs, 77);
        let expect = reference_match(&csr, &labels, &pattern, usize::MAX);
        for machines in [1usize, 2, 5] {
            let (cloud, graph) = labeled_cloud(&csr, labels.clone(), machines);
            let got = subgraph_match(&graph, &pattern, usize::MAX);
            assert_eq!(got.embeddings, expect, "{machines} machines");
            cloud.shutdown();
        }
    }
}
