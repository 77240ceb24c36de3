//! Property tests for the BSP runtime: on arbitrary random graphs, both
//! graph kinds a job runs on (undirected, and the same out-lists marked
//! directed with in-links stored) and every machine count must produce
//! the same vertex states as a single-process reference — max-id propagation converges to each connected
//! component's maximum id, and every vertex is lent exactly its out-list,
//! at every pool width.
//!
//! `TRINITY_STRESS_THREADS` adds a pool width to the sweep (see
//! `scripts/check.sh`, which runs this suite with `RUST_TEST_THREADS=1`
//! and 8 threads).

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

use trinity_core::{BspConfig, BspRunner, VertexContext, VertexProgram};
use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity_memcloud::{CloudConfig, MemoryCloud};

struct MaxValue;
impl VertexProgram for MaxValue {
    type State = u64;
    type Msg = u64;
    fn init(&self, id: u64, _view: &trinity_graph::NodeView<'_>) -> u64 {
        id
    }
    fn compute(&self, ctx: &mut VertexContext<'_, u64>, _id: u64, state: &mut u64, msgs: &[u64]) {
        let before = *state;
        for &m in msgs {
            *state = (*state).max(m);
        }
        if ctx.superstep() == 0 || *state > before {
            ctx.send_to_neighbors(*state);
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

/// Reference: each vertex converges to its connected component's max id.
fn component_max(csr: &Csr) -> HashMap<u64, u64> {
    let n = csr.node_count();
    let mut comp = vec![u64::MAX; n];
    let mut result = HashMap::new();
    for start in 0..n as u64 {
        if comp[start as usize] != u64::MAX {
            continue;
        }
        // BFS the component, tracking its max.
        let mut members = vec![start];
        let mut stack = vec![start];
        comp[start as usize] = start;
        let mut max = start;
        while let Some(v) = stack.pop() {
            for &t in csr.neighbors(v) {
                if comp[t as usize] == u64::MAX {
                    comp[t as usize] = start;
                    max = max.max(t);
                    members.push(t);
                    stack.push(t);
                }
            }
            max = max.max(v);
        }
        for m in members {
            result.insert(m, max);
        }
    }
    result
}

fn random_graph(n: usize, edges: &[(u64, u64)]) -> Csr {
    Csr::undirected_from_edges(n, edges, true)
}

/// Supersteps in which [`OutLists`] reads its out-list and broadcasts.
const ROUNDS: usize = 3;

/// An order-sensitive hash of `list`, folded into `h`.
fn fold_list(h: u64, list: &[u64]) -> u64 {
    list.iter().fold(h ^ list.len() as u64, |h, &v| {
        (h ^ v).wrapping_mul(0x0100_0000_01b3).rotate_left(23)
    })
}

/// Folds `out_neighbors()` into its state's first half in each of the
/// first [`ROUNDS`] supersteps and broadcasts its id in each, then halts;
/// the second half sums what it receives. A broadcast goes along the
/// same list the program is lent.
struct OutLists;
impl VertexProgram for OutLists {
    type State = (u64, u64);
    type Msg = u64;
    fn init(&self, _id: u64, _view: &trinity_graph::NodeView<'_>) -> (u64, u64) {
        (0, 0)
    }
    fn compute(
        &self,
        ctx: &mut VertexContext<'_, u64>,
        id: u64,
        state: &mut (u64, u64),
        msgs: &[u64],
    ) {
        if ctx.superstep() < ROUNDS {
            state.0 = fold_list(state.0, ctx.out_neighbors());
            ctx.send_to_neighbors(id);
        }
        state.1 = msgs.iter().fold(state.1, |a, &m| a.wrapping_add(m));
        if ctx.superstep() + 1 >= ROUNDS {
            ctx.vote_to_halt();
        }
    }
    fn encode_msg(m: &u64) -> Vec<u8> {
        m.to_le_bytes().to_vec()
    }
    fn decode_msg(b: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }
    fn encode_state(s: &(u64, u64)) -> Vec<u8> {
        [s.0.to_le_bytes(), s.1.to_le_bytes()].concat()
    }
    fn decode_state(b: &[u8]) -> Option<(u64, u64)> {
        let (a, b) = b.split_at_checked(8)?;
        Some((
            u64::from_le_bytes(a.try_into().ok()?),
            u64::from_le_bytes(b.try_into().ok()?),
        ))
    }
}

/// What [`OutLists`] ends with on `csr`: its out-list folded [`ROUNDS`]
/// times, and [`ROUNDS`] times the sum of its in-neighbors.
fn out_lists_reference(csr: &Csr) -> HashMap<u64, (u64, u64)> {
    let n = csr.node_count() as u64;
    let mut want: HashMap<u64, (u64, u64)> = (0..n)
        .map(|u| {
            (
                u,
                (
                    (0..ROUNDS).fold(0, |h, _| fold_list(h, csr.neighbors(u))),
                    0,
                ),
            )
        })
        .collect();
    for u in 0..n {
        for &v in csr.neighbors(u) {
            let got = &mut want.get_mut(&v).unwrap().1;
            *got = got.wrapping_add(u.wrapping_mul(ROUNDS as u64));
        }
    }
    want
}

/// Pool widths: 1, 3 and 8 (more workers than a machine has trunks, so
/// some shards are empty), plus `TRINITY_STRESS_THREADS` when set.
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 3, 8];
    let stress = std::env::var("TRINITY_STRESS_THREADS").ok();
    if let Some(n) = stress.and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
        if !sweep.contains(&n) {
            sweep.push(n);
        }
    }
    sweep
}

/// `csr` loaded into `cloud` undirected as it is, or (`directed`, or
/// `csr` directed) its out-lists marked directed with in-links stored;
/// replacing what `cloud` held.
fn load_for(cloud: &Arc<MemoryCloud>, csr: &Csr, directed: bool) -> Arc<DistributedGraph> {
    let mut csr = csr.clone();
    csr.directed |= directed;
    let opts = LoadOptions {
        with_in_links: csr.directed,
        attrs: None,
    };
    Arc::new(load_graph(Arc::clone(cloud), &csr, &opts).unwrap())
}

fn cfg(compute_threads: usize) -> BspConfig {
    BspConfig {
        max_supersteps: 256,
        compute_threads,
        ..BspConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn both_graph_kinds_match_the_component_reference(
        n in 4usize..60,
        edge_seeds in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..150),
        machines in 1usize..5,
    ) {
        let edges: Vec<(u64, u64)> = edge_seeds
            .iter()
            .map(|(a, b)| (a % n as u64, b % n as u64))
            .filter(|(a, b)| a != b)
            .collect();
        let csr = random_graph(n, &edges);
        let expect = component_max(&csr);
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        for directed in [false, true] {
            let graph = load_for(&cloud, &csr, directed);
            let result = BspRunner::new(graph, MaxValue, cfg(0)).run();
            prop_assert!(result.terminated, "must reach quiescence (directed {})", directed);
            prop_assert_eq!(result.states.len(), n);
            for (id, state) in &result.states {
                prop_assert_eq!(*state, expect[id], "vertex {} (directed {})", id, directed);
            }
        }
        cloud.shutdown();
    }

    #[test]
    fn every_vertex_is_lent_its_out_list(
        n in 4usize..60,
        edge_seeds in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..150),
        machines in 1usize..5,
        directed in any::<bool>(),
    ) {
        // Self-loops and repeated arcs kept: the list is the graph's as stored.
        let arcs: Vec<(u64, u64)> = edge_seeds
            .iter()
            .map(|(a, b)| (a % n as u64, b % n as u64))
            .collect();
        let csr = if directed {
            Csr::from_arcs(n, arcs, true, false)
        } else {
            Csr::undirected_from_edges(n, &arcs, false)
        };
        let expect = out_lists_reference(&csr);
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let graph = load_for(&cloud, &csr, directed);
        for compute_threads in thread_sweep() {
            let result = BspRunner::new(Arc::clone(&graph), OutLists, cfg(compute_threads)).run();
            prop_assert!(result.terminated, "must reach quiescence (directed {})", directed);
            prop_assert_eq!(
                &result.states, &expect,
                "directed {}, {} threads", directed, compute_threads
            );
        }
        cloud.shutdown();
    }
}
