//! PageRank under the restrictive vertex-centric model (paper §5.3,
//! Figure 12(b)).
//!
//! PageRank is the paper's canonical restrictive-model workload: every
//! vertex talks only to its out-neighbors, with the same value on every
//! edge — which makes it eligible for both transparent packing and
//! hub-vertex buffering. One iteration is one superstep; the evaluation
//! reports time per iteration as the graph and machine counts scale.

use std::collections::HashMap;
use std::sync::Arc;

use trinity_core::{BspConfig, BspResult, BspRunner, VertexContext, VertexProgram};
use trinity_graph::{Csr, DistributedGraph};
use trinity_memcloud::CellId;

/// Damping factor used throughout (the standard 0.85).
const DAMPING: f64 = 0.85;

/// The vertex program: state is the current rank; messages carry
/// `rank / out_degree` shares.
pub struct PageRankProgram {
    /// Total vertex count (for the teleport term).
    pub n: u64,
    /// Iterations to run (supersteps `0..iterations` send; the final
    /// superstep only absorbs).
    pub iterations: usize,
}

impl VertexProgram for PageRankProgram {
    type State = PageRankState;
    type Msg = f64;

    fn init(&self, _id: CellId, view: &trinity_graph::NodeView<'_>) -> PageRankState {
        PageRankState {
            rank: 1.0 / self.n as f64,
            out_degree: view.out_degree(),
        }
    }

    fn compute(
        &self,
        ctx: &mut VertexContext<'_, f64>,
        _id: CellId,
        state: &mut PageRankState,
        msgs: &[f64],
    ) {
        if ctx.superstep() > 0 {
            let sum: f64 = msgs.iter().sum();
            state.rank = (1.0 - DAMPING) / self.n as f64 + DAMPING * sum;
        }
        if ctx.superstep() < self.iterations {
            if state.out_degree > 0 {
                ctx.send_to_neighbors(state.rank / state.out_degree as f64);
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn encode_msg(m: &f64) -> Vec<u8> {
        m.to_le_bytes().to_vec()
    }

    fn decode_msg(b: &[u8]) -> Option<f64> {
        Some(f64::from_le_bytes(b.try_into().ok()?))
    }

    fn encode_state(s: &PageRankState) -> Vec<u8> {
        let mut out = s.rank.to_le_bytes().to_vec();
        out.extend_from_slice(&(s.out_degree as u64).to_le_bytes());
        out
    }

    fn decode_state(b: &[u8]) -> Option<PageRankState> {
        if b.len() < 16 {
            return None;
        }
        Some(PageRankState {
            rank: f64::from_le_bytes(b[..8].try_into().ok()?),
            out_degree: u64::from_le_bytes(b[8..16].try_into().ok()?) as usize,
        })
    }

    fn msg_cmp(a: &f64, b: &f64) -> std::cmp::Ordering {
        // Rank shares are summed and f64 addition is not associative:
        // give the runtime a total order so every inbox run is absorbed
        // in one canonical sequence regardless of arrival interleaving or
        // the worker-pool width.
        a.total_cmp(b)
    }
}

/// Per-vertex PageRank state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankState {
    pub rank: f64,
    pub out_degree: usize,
}

/// Run `iterations` of PageRank on a distributed graph.
pub fn pagerank_distributed(
    graph: Arc<DistributedGraph>,
    iterations: usize,
    mut cfg: BspConfig,
) -> BspResult<PageRankProgram> {
    cfg.max_supersteps = iterations + 2;
    let n = graph.node_count();
    BspRunner::new(graph, PageRankProgram { n, iterations }, cfg).run()
}

/// Single-process reference implementation (for verification).
pub fn pagerank_reference(csr: &Csr, iterations: usize) -> HashMap<CellId, f64> {
    let n = csr.node_count();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - DAMPING) / n as f64; n];
        for v in 0..n as u64 {
            let outs = csr.neighbors(v);
            if outs.is_empty() {
                continue;
            }
            let share = DAMPING * rank[v as usize] / outs.len() as f64;
            for &t in outs {
                next[t as usize] += share;
            }
        }
        rank = next;
    }
    (0..n as u64).map(|v| (v, rank[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_graph::{load_graph, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// PageRank over `csr` loaded undirected as it is, or (`directed`,
    /// or `csr` directed) its out-lists marked directed with in-links
    /// stored.
    fn distributed_ranks(
        csr: &Csr,
        machines: usize,
        iters: usize,
        directed: bool,
        compute_threads: usize,
    ) -> HashMap<CellId, f64> {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let mut csr = csr.clone();
        csr.directed |= directed;
        let opts = LoadOptions {
            with_in_links: csr.directed,
            attrs: None,
        };
        let graph = Arc::new(load_graph(Arc::clone(&cloud), &csr, &opts).unwrap());
        let cfg = BspConfig {
            compute_threads,
            ..BspConfig::default()
        };
        let result = pagerank_distributed(graph, iters, cfg);
        cloud.shutdown();
        result
            .states
            .into_iter()
            .map(|(id, s)| (id, s.rank))
            .collect()
    }

    #[test]
    fn distributed_matches_reference() {
        let csr = trinity_graphgen::rmat(8, 6, 11);
        let expect = pagerank_reference(&csr, 5);
        let got = distributed_ranks(&csr, 3, 5, true, 0);
        assert_eq!(got.len(), expect.len());
        for (id, r) in &expect {
            let g = got[id];
            assert!((g - r).abs() < 1e-9, "vertex {id}: {g} vs {r}");
        }
    }

    #[test]
    fn the_two_graph_kinds_give_the_same_rank_bits() {
        // Undirected or directed with in-links, the same out-lists give
        // every vertex the same shares to sum, in the same order: the
        // same rank bits.
        let bits = |ranks: HashMap<CellId, f64>| -> HashMap<CellId, u64> {
            ranks.into_iter().map(|(id, r)| (id, r.to_bits())).collect()
        };
        for csr in [
            trinity_graphgen::power_law(800, 2.16, 1, 120, 5),
            trinity_graphgen::social(2_000, 16, 5),
        ] {
            for compute_threads in [1, 3] {
                let undirected = distributed_ranks(&csr, 3, 4, false, compute_threads);
                let directed = distributed_ranks(&csr, 3, 4, true, compute_threads);
                assert_eq!(
                    bits(undirected),
                    bits(directed),
                    "{compute_threads} threads"
                );
            }
        }
    }

    #[test]
    fn ranks_sum_to_at_most_one_and_hubs_rank_high() {
        let csr = trinity_graphgen::rmat(9, 8, 3);
        let ranks = pagerank_reference(&csr, 10);
        let total: f64 = ranks.values().sum();
        // Dangling nodes leak rank, so the sum is <= 1.
        assert!(total <= 1.0 + 1e-9 && total > 0.3, "total rank {total}");
        // The most-linked-to vertex should outrank the median vertex.
        let t = csr.transpose();
        let popular = (0..csr.node_count() as u64)
            .max_by_key(|&v| t.out_degree(v))
            .unwrap();
        let mut sorted: Vec<f64> = ranks.values().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!(
            ranks[&popular] > median * 2.0,
            "popular vertex should rank well above median"
        );
    }
}
