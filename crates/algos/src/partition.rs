//! Multi-level graph partitioning (paper §5.3).
//!
//! "Trinity can partition billion-node graphs within a few hours using a
//! multi-level partitioning algorithm, \[with\] quality comparable to the
//! best partitioning algorithm (e.g., METIS). To the best of our
//! knowledge, billion-node graph partitioning is an unsolved problem on
//! general-purpose graph platforms." Partitioning is the paper's example
//! of a computation that does *not* fit the vertex-centric mold — Trinity
//! can express it because the engine is not constrained to one model.
//!
//! The implementation follows the classic multi-level scheme:
//!
//! 1. **coarsen** — repeated heavy-edge matching collapses the graph
//!    until it is small;
//! 2. **initial partition** — greedy balanced region growing on the
//!    coarsest graph;
//! 3. **uncoarsen + refine** — project the assignment back level by
//!    level, applying boundary refinement (greedy gain moves under a
//!    balance constraint) at each level.

use rand::RngExt;
use rand::SeedableRng;
use std::collections::BTreeMap;

use trinity_graph::Csr;

/// A k-way partition of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionResult {
    /// Part id per vertex.
    pub assignment: Vec<u32>,
    /// Edges crossing part boundaries (undirected count).
    pub cut: u64,
    /// Heaviest part weight divided by the ideal weight.
    pub imbalance: f64,
}

/// Count cut edges under an assignment (each undirected edge once).
pub fn edge_cut(csr: &Csr, assignment: &[u32]) -> u64 {
    let mut cut = 0u64;
    for (s, t) in csr.arcs() {
        if s < t && assignment[s as usize] != assignment[t as usize] {
            cut += 1;
        }
    }
    if csr.directed {
        // Directed arcs counted individually.
        cut = csr
            .arcs()
            .filter(|(s, t)| assignment[*s as usize] != assignment[*t as usize])
            .count() as u64;
    }
    cut
}

/// One level of the coarsening hierarchy: weighted graph + the mapping
/// from the finer level's vertices to this level's.
struct Level {
    /// Weighted adjacency: vertex → (neighbor → edge weight).
    adj: Vec<BTreeMap<u32, u64>>,
    /// Vertex weights (collapsed vertex counts).
    vweight: Vec<u64>,
    /// For each finer vertex, its coarse representative.
    map_from_finer: Vec<u32>,
}

fn coarsen(adj: &[BTreeMap<u32, u64>], vweight: &[u64], rng: &mut rand::rngs::StdRng) -> Level {
    let n = adj.len();
    // Heavy-edge matching in random vertex order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut matched = vec![u32::MAX; n];
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mate = adj[v as usize]
            .iter()
            .filter(|(&t, _)| matched[t as usize] == u32::MAX && t != v)
            .max_by_key(|(_, &w)| w)
            .map(|(&t, _)| t);
        match mate {
            Some(t) => {
                matched[v as usize] = t;
                matched[t as usize] = v;
            }
            None => matched[v as usize] = v,
        }
    }
    // Assign coarse ids.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let m = matched[v as usize];
        map[v as usize] = next;
        if m != v && m != u32::MAX {
            map[m as usize] = next;
        }
        next += 1;
    }
    // Build the coarse weighted graph.
    let cn = next as usize;
    let mut cadj: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); cn];
    let mut cw = vec![0u64; cn];
    for v in 0..n {
        cw[map[v] as usize] += vweight[v];
        for (&t, &w) in &adj[v] {
            let (cv, ct) = (map[v], map[t as usize]);
            if cv != ct {
                *cadj[cv as usize].entry(ct).or_insert(0) += w;
            }
        }
    }
    Level {
        adj: cadj,
        vweight: cw,
        map_from_finer: map,
    }
}

/// Greedy balanced region growing for the initial k-way partition.
fn initial_partition(
    adj: &[BTreeMap<u32, u64>],
    vweight: &[u64],
    k: usize,
    rng: &mut rand::rngs::StdRng,
) -> Vec<u32> {
    let n = adj.len();
    let total: u64 = vweight.iter().sum();
    let target = total.div_ceil(k as u64);
    let mut assignment = vec![u32::MAX; n];
    let mut part_weight = vec![0u64; k];
    let mut unassigned = n;
    for part in 0..k as u32 {
        if unassigned == 0 {
            break;
        }
        // Seed: a random unassigned vertex.
        let mut seed = rng.random_range(0..n as u32);
        while assignment[seed as usize] != u32::MAX {
            seed = (seed + 1) % n as u32;
        }
        let mut frontier = vec![seed];
        while let Some(v) = frontier.pop() {
            if assignment[v as usize] != u32::MAX {
                continue;
            }
            if part_weight[part as usize] + vweight[v as usize] > target && part as usize != k - 1 {
                continue;
            }
            assignment[v as usize] = part;
            part_weight[part as usize] += vweight[v as usize];
            unassigned -= 1;
            if part_weight[part as usize] >= target && part as usize != k - 1 {
                break;
            }
            frontier.extend(
                adj[v as usize]
                    .keys()
                    .copied()
                    .filter(|&t| assignment[t as usize] == u32::MAX),
            );
        }
    }
    // Leftovers (disconnected bits): lightest part wins.
    for v in 0..n {
        if assignment[v] == u32::MAX {
            let part = (0..k).min_by_key(|&p| part_weight[p]).unwrap();
            assignment[v] = part as u32;
            part_weight[part] += vweight[v];
        }
    }
    assignment
}

/// Greedy boundary refinement: move vertices to the neighboring part with
/// the highest cut gain while keeping parts under `max_weight`.
fn refine(
    adj: &[BTreeMap<u32, u64>],
    vweight: &[u64],
    assignment: &mut [u32],
    k: usize,
    max_weight: u64,
    passes: usize,
) {
    let n = adj.len();
    let mut part_weight = vec![0u64; k];
    for v in 0..n {
        part_weight[assignment[v] as usize] += vweight[v];
    }
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let cur = assignment[v];
            // Connectivity to each part.
            let mut link: BTreeMap<u32, u64> = BTreeMap::new();
            for (&t, &w) in &adj[v] {
                *link.entry(assignment[t as usize]).or_insert(0) += w;
            }
            let here = link.get(&cur).copied().unwrap_or(0);
            // Never empty the source part: the result must stay k-way.
            if part_weight[cur as usize] <= vweight[v] {
                continue;
            }
            let best = link
                .iter()
                .filter(|(&p, _)| p != cur)
                .filter(|(&p, _)| part_weight[p as usize] + vweight[v] <= max_weight)
                .max_by_key(|(_, &w)| w);
            if let Some((&p, &w)) = best {
                if w > here {
                    part_weight[cur as usize] -= vweight[v];
                    part_weight[p as usize] += vweight[v];
                    assignment[v] = p;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Multi-level k-way partitioning. `balance_eps` bounds the allowed
/// imbalance (1.05 = parts within 5% over ideal... plus one vertex).
pub fn multilevel_partition(csr: &Csr, k: usize, balance_eps: f64, seed: u64) -> PartitionResult {
    assert!(k >= 1);
    let n = csr.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Level 0: the input graph as weighted adjacency.
    let mut adj: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); n];
    for (s, t) in csr.arcs() {
        if s == t {
            continue;
        }
        *adj[s as usize].entry(t as u32).or_insert(0) += 1;
        if csr.directed {
            // Partitioning treats the graph as undirected.
            *adj[t as usize].entry(s as u32).or_insert(0) += 1;
        }
    }
    let mut levels: Vec<Level> = Vec::new();
    let mut cur_adj = adj.clone();
    let mut cur_w: Vec<u64> = vec![1; n];
    while cur_adj.len() > (k * 20).max(64) {
        let level = coarsen(&cur_adj, &cur_w, &mut rng);
        if level.adj.len() as f64 > cur_adj.len() as f64 * 0.95 {
            break; // matching stalled (e.g. star graphs)
        }
        cur_adj = level.adj.clone();
        cur_w = level.vweight.clone();
        levels.push(level);
    }
    // Initial partition on the coarsest graph.
    let total: u64 = cur_w.iter().sum();
    let max_weight = ((total as f64 / k as f64) * balance_eps).ceil() as u64
        + cur_w.iter().copied().max().unwrap_or(1);
    let mut assignment = initial_partition(&cur_adj, &cur_w, k, &mut rng);
    refine(&cur_adj, &cur_w, &mut assignment, k, max_weight, 4);
    // Uncoarsen with refinement at every level.
    for level in levels.iter().rev() {
        let finer_n = level.map_from_finer.len();
        let mut finer_assignment = vec![0u32; finer_n];
        for v in 0..finer_n {
            finer_assignment[v] = assignment[level.map_from_finer[v] as usize];
        }
        assignment = finer_assignment;
        // Rebuild the finer level's adjacency for refinement.
        // The finest level uses the original graph.
        let (finer_adj, finer_w): (&[BTreeMap<u32, u64>], Vec<u64>) =
            if std::ptr::eq(level, &levels[0]) {
                (&adj, vec![1; n])
            } else {
                // Locate the finer level's stored data.
                let idx = levels.iter().position(|l| std::ptr::eq(l, level)).unwrap();
                (&levels[idx - 1].adj, levels[idx - 1].vweight.clone())
            };
        let total: u64 = finer_w.iter().sum();
        let max_weight = ((total as f64 / k as f64) * balance_eps).ceil() as u64
            + finer_w.iter().copied().max().unwrap_or(1);
        refine(finer_adj, &finer_w, &mut assignment, k, max_weight, 3);
    }
    // Final metrics.
    let cut = edge_cut(csr, &assignment);
    let mut weights = vec![0u64; k];
    for &p in &assignment {
        weights[p as usize] += 1;
    }
    let ideal = n as f64 / k as f64;
    let imbalance = weights.iter().copied().max().unwrap_or(0) as f64 / ideal;
    PartitionResult {
        assignment,
        cut,
        imbalance,
    }
}

/// Random hash partition (the memory cloud's default placement) — the
/// baseline multi-level partitioning is compared against.
pub fn random_partition(n: usize, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..k as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Csr {
        let idx = |r: usize, c: usize| (r * n + c) as u64;
        let mut edges = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r + 1 < n {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
                if c + 1 < n {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
            }
        }
        Csr::undirected_from_edges(n * n, &edges, true)
    }

    #[test]
    fn grid_partition_beats_random_by_a_wide_margin() {
        let g = grid(24); // 576 nodes, 1104 edges
        let k = 4;
        let result = multilevel_partition(&g, k, 1.1, 7);
        let random_cut = edge_cut(&g, &random_partition(g.node_count(), k, 7));
        assert!(
            result.cut * 3 < random_cut,
            "multilevel cut {} should be far below random cut {random_cut}",
            result.cut
        );
        // A 24x24 grid split 4 ways has an ideal cut around 2*24 = 48.
        assert!(result.cut < 150, "cut {} too poor for a grid", result.cut);
        assert!(result.imbalance < 1.35, "imbalance {}", result.imbalance);
    }

    #[test]
    fn ring_of_cliques_is_cut_at_the_bridges() {
        // 8 cliques of 12, connected in a ring: ideal 4-way cut = 8
        // bridge edges at most.
        let mut edges = Vec::new();
        let cliques = 8;
        let size = 12;
        for c in 0..cliques as u64 {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    edges.push((base + i, base + j));
                }
            }
            let next = ((c + 1) % cliques as u64) * size;
            edges.push((base, next));
        }
        let g = Csr::undirected_from_edges(cliques * size as usize, &edges, true);
        let result = multilevel_partition(&g, 4, 1.15, 3);
        assert!(
            result.cut <= 12,
            "cut {} should be near the 8 bridge edges",
            result.cut
        );
        // No clique should be split.
        for c in 0..cliques as u64 {
            let base = (c * size) as usize;
            let part = result.assignment[base];
            let split = (0..size as usize)
                .filter(|&i| result.assignment[base + i] != part)
                .count();
            assert_eq!(split, 0, "clique {c} was split");
        }
    }

    #[test]
    fn every_part_is_populated_and_covered() {
        let g = trinity_graphgen::social(500, 10, 5);
        let k = 6;
        let result = multilevel_partition(&g, k, 1.2, 11);
        assert_eq!(result.assignment.len(), 500);
        let mut counts = vec![0usize; k];
        for &p in &result.assignment {
            assert!((p as usize) < k);
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "empty part: {counts:?}");
        assert_eq!(edge_cut(&g, &result.assignment), result.cut);
    }

    #[test]
    fn single_part_has_zero_cut() {
        let g = grid(6);
        let result = multilevel_partition(&g, 1, 1.05, 1);
        assert_eq!(result.cut, 0);
        assert!(result.assignment.iter().all(|&p| p == 0));
    }
}
