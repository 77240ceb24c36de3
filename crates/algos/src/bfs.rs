//! Breadth-first search on the BSP runtime (paper Figures 12(c), 13).
//!
//! "Breadth-first search is a fundamental graph computation operation.
//! Many graph algorithms are built on BFS. Graph 500 adopts BFS as one of
//! its two computation kernels." The BSP formulation is the textbook one:
//! the frontier expands one level per superstep; unreached vertices halt
//! until a message arrives. It answers to [`bfs_reference`].

use std::collections::HashMap;
use std::sync::Arc;

use trinity_core::{BspConfig, BspResult, BspRunner, VertexContext, VertexProgram};
use trinity_graph::{Csr, DistributedGraph};
use trinity_memcloud::CellId;

/// Distance marker for unreached vertices.
const UNREACHED: u64 = u64::MAX;

/// BSP breadth-first search from a single source.
pub struct BfsProgram {
    pub source: CellId,
}

impl VertexProgram for BfsProgram {
    type State = u64; // BFS depth
    type Msg = u64;

    fn init(&self, _id: CellId, _view: &trinity_graph::NodeView<'_>) -> u64 {
        UNREACHED
    }

    fn compute(&self, ctx: &mut VertexContext<'_, u64>, id: CellId, state: &mut u64, msgs: &[u64]) {
        if ctx.superstep() == 0 {
            if id == self.source {
                *state = 0;
                ctx.send_to_neighbors(1);
            }
        } else if *state == UNREACHED {
            if let Some(&depth) = msgs.iter().min() {
                *state = depth;
                ctx.send_to_neighbors(depth + 1);
            }
        }
        ctx.vote_to_halt();
    }

    fn encode_msg(m: &u64) -> Vec<u8> {
        m.to_le_bytes().to_vec()
    }

    fn decode_msg(b: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    fn encode_state(s: &u64) -> Vec<u8> {
        s.to_le_bytes().to_vec()
    }

    fn decode_state(b: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
}

/// Run BFS on a distributed graph; returns depths and the run report.
pub fn bfs_distributed(
    graph: Arc<DistributedGraph>,
    source: CellId,
    cfg: BspConfig,
) -> BspResult<BfsProgram> {
    BspRunner::new(graph, BfsProgram { source }, cfg).run()
}

/// Single-process reference BFS.
pub fn bfs_reference(csr: &Csr, source: CellId) -> HashMap<CellId, u64> {
    let mut dist: HashMap<CellId, u64> = (0..csr.node_count() as u64)
        .map(|v| (v, UNREACHED))
        .collect();
    dist.insert(source, 0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        for &t in csr.neighbors(v) {
            if dist[&t] == UNREACHED {
                dist.insert(t, d + 1);
                queue.push_back(t);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_graph::{load_graph, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// BFS over `csr`, loaded with its in-links when it is directed.
    fn run(csr: &Csr, machines: usize, source: u64, cfg: BspConfig) -> HashMap<CellId, u64> {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let opts = LoadOptions {
            with_in_links: csr.directed,
            attrs: None,
        };
        let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, &opts).unwrap());
        let r = bfs_distributed(graph, source, cfg);
        cloud.shutdown();
        r.states
    }

    #[test]
    fn distributed_bfs_matches_reference_on_rmat() {
        let csr = trinity_graphgen::rmat(8, 8, 21);
        let expect = bfs_reference(&csr, 0);
        let got = run(
            &csr,
            4,
            0,
            BspConfig {
                max_supersteps: 256,
                ..BspConfig::default()
            },
        );
        assert_eq!(got.len(), expect.len());
        for (id, d) in &expect {
            assert_eq!(got[id], *d, "vertex {id}");
        }
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        // Two disjoint rings.
        let mut edges: Vec<(u64, u64)> = (0..10u64).map(|v| (v, (v + 1) % 10)).collect();
        edges.extend((0..10u64).map(|v| (10 + v, 10 + (v + 1) % 10)));
        let csr = Csr::undirected_from_edges(20, &edges, true);
        let got = run(&csr, 2, 0, BspConfig::default());
        for v in 0..10u64 {
            assert_ne!(got[&v], UNREACHED);
        }
        for v in 10..20u64 {
            assert_eq!(got[&v], UNREACHED, "vertex {v} should be unreachable");
        }
    }

    #[test]
    fn superstep_count_tracks_eccentricity() {
        // A path graph: BFS from one end needs length-many levels.
        let n = 24;
        let edges: Vec<(u64, u64)> = (0..n as u64 - 1).map(|v| (v, v + 1)).collect();
        let csr = Csr::undirected_from_edges(n, &edges, true);
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(2)));
        let graph =
            Arc::new(load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap());
        let r = bfs_distributed(
            graph,
            0,
            BspConfig {
                max_supersteps: 256,
                ..BspConfig::default()
            },
        );
        assert!(r.terminated);
        // Levels 0..n-1 plus a final quiet superstep.
        assert!(
            (n..n + 2).contains(&r.supersteps()),
            "{} supersteps for a {n}-path",
            r.supersteps()
        );
        cloud.shutdown();
    }
}
