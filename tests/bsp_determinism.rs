//! Worker-pool determinism: the BSP result must not depend on how many
//! compute threads a machine runs.
//!
//! The sharded driver routes each message to the inbox of the worker
//! owning its destination and sorts every inbox run into a canonical
//! `(dst, msg_cmp)` order before compute — so `compute_threads` is a pure
//! performance knob. These tests pin that contract:
//!
//! * final states are **bit-identical** across `compute_threads` in
//!   `{1, 2, 4}` (f64 ranks compared via `to_bits`), on both graph kinds
//!   a job runs on: undirected, and directed with in-links stored;
//! * superstep counts and aggregate message counts are identical;
//! * a seeded chaos workload still replays its fault log under the
//!   threaded driver;
//! * a repeated-iteration race smoke hammers the sharded inbox handoff.
//!
//! `TRINITY_STRESS_THREADS` widens the pools (see `scripts/check.sh`,
//! which runs this suite with `RUST_TEST_THREADS=1` and a high thread
//! count so the pool, not the test harness, provides the parallelism).

use std::sync::Arc;

use trinity::algos::pagerank_distributed;
use trinity::chaos::{BspRingMax, ChaosRunner};
use trinity::core::{BspConfig, BspResult, BspRunner, VertexContext, VertexProgram};
use trinity::graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity::memcloud::{CloudConfig, MemoryCloud};
use trinity::net::FaultPlan;

/// Extra pool widths to exercise on top of the standard {1, 2, 4} sweep;
/// `scripts/check.sh` sets this high to stress the shard handoff.
fn stress_threads() -> Option<usize> {
    std::env::var("TRINITY_STRESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 4];
    if let Some(n) = stress_threads() {
        if !sweep.contains(&n) {
            sweep.push(n);
        }
    }
    sweep
}

/// Max-id propagation (integer messages, order-insensitive compute).
struct MaxValue;

impl VertexProgram for MaxValue {
    type State = u64;
    type Msg = u64;
    fn init(&self, id: u64, _view: &trinity::graph::NodeView<'_>) -> u64 {
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

/// The two graph kinds a job runs on, from `csr`'s out-lists: undirected
/// (a directed `csr` symmetrized), and marked directed.
fn kinds(csr: &Csr) -> [Csr; 2] {
    let undirected = match csr.directed {
        true => {
            Csr::undirected_from_edges(csr.node_count(), &csr.arcs().collect::<Vec<_>>(), false)
        }
        false => csr.clone(),
    };
    let mut directed = csr.clone();
    directed.directed = true;
    [undirected, directed]
}

/// Run `f` over `csr`, loaded with its in-links when it is directed.
fn with_graph<R>(csr: &Csr, machines: usize, f: impl FnOnce(Arc<DistributedGraph>) -> R) -> R {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
    let opts = LoadOptions {
        with_in_links: csr.directed,
        attrs: None,
    };
    let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, &opts).unwrap());
    let out = f(graph);
    cloud.shutdown();
    out
}

fn cfg(compute_threads: usize) -> BspConfig {
    BspConfig {
        compute_threads,
        max_supersteps: 256,
        ..BspConfig::default()
    }
}

/// (supersteps, per-superstep remote and local message counts).
fn message_profile<P: VertexProgram>(r: &BspResult<P>) -> (usize, Vec<(u64, u64)>) {
    (
        r.supersteps(),
        r.reports
            .iter()
            .map(|rep| (rep.remote_messages, rep.local_messages))
            .collect(),
    )
}

#[test]
fn maxvalue_identical_across_thread_counts() {
    for csr in kinds(&trinity::graphgen::social(600, 10, 17)) {
        let directed = csr.directed;
        let run =
            |threads| with_graph(&csr, 4, |g| BspRunner::new(g, MaxValue, cfg(threads)).run());
        let serial = run(1);
        assert!(serial.terminated);
        let serial_profile = message_profile(&serial);
        for threads in thread_sweep() {
            let threaded = run(threads);
            assert_eq!(
                threaded.states, serial.states,
                "states diverged at {threads} threads (directed {directed})"
            );
            assert_eq!(
                message_profile(&threaded),
                serial_profile,
                "superstep/message profile diverged at {threads} threads (directed {directed})"
            );
        }
    }
}

#[test]
fn pagerank_bit_identical_across_thread_counts() {
    // f64 addition is not associative: bit-identity across pool widths
    // only holds because inbox runs are sorted by `msg_cmp` (total_cmp).
    let iterations = 5;
    for csr in kinds(&trinity::graphgen::rmat(9, 8, 23)) {
        let directed = csr.directed;
        let run = |threads| {
            with_graph(&csr, 4, |g| {
                pagerank_distributed(g, iterations, cfg(threads))
            })
        };
        let serial = run(1);
        let serial_bits: std::collections::BTreeMap<u64, u64> = serial
            .states
            .iter()
            .map(|(&id, s)| (id, s.rank.to_bits()))
            .collect();
        let serial_profile = message_profile(&serial);
        for threads in thread_sweep() {
            let threaded = run(threads);
            let bits: std::collections::BTreeMap<u64, u64> = threaded
                .states
                .iter()
                .map(|(&id, s)| (id, s.rank.to_bits()))
                .collect();
            assert_eq!(
                bits, serial_bits,
                "ranks not bit-identical at {threads} threads (directed {directed})"
            );
            assert_eq!(message_profile(&threaded), serial_profile);
        }
    }
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The ranks on `csr` at `compute_threads` as `(id, rank bits)` words,
/// in id order.
fn rank_words(csr: &Csr, compute_threads: usize) -> Vec<u64> {
    let r = with_graph(csr, 4, |g| pagerank_distributed(g, 5, cfg(compute_threads)));
    let ranks: std::collections::BTreeMap<u64, u64> = r
        .states
        .iter()
        .map(|(&id, s)| (id, s.rank.to_bits()))
        .collect();
    assert_eq!(ranks.len(), 300);
    ranks
        .into_iter()
        .flat_map(|(id, bits)| [id, bits])
        .collect()
}

#[test]
fn pagerank_rank_bits_match_the_pinned_digest() {
    // "Bit-identical to before" as a test: every rank, hashed to a
    // constant computed before the BSP wire format became grouped run
    // frames and since pinned per configuration. How messages
    // are framed, grouped or fanned out on the way must never reach the
    // ranks; a change that moves this digest changed what vertices
    // compute, not how messages travel. Each graph kind at 1 and 3
    // threads: the undirected graph, and the same out-lists marked
    // directed with their in-links stored.
    const PLAIN: u64 = 0x3c04_f6c8_2e1e_e45a;
    let mut moved = Vec::new();
    for csr in kinds(&trinity::graphgen::social(300, 8, 5)) {
        for compute_threads in [1, 3] {
            let digest = fnv1a(rank_words(&csr, compute_threads));
            if digest != PLAIN {
                let directed = csr.directed;
                moved.push(format!(
                    "directed {directed}, {compute_threads} threads: {digest:#018x}"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "PageRank rank bits moved in: {moved:#?}");
}

#[test]
fn chaos_fault_injection_replays_under_threaded_driver() {
    // The checkpointed ring workload under seeded delays, driven by an
    // explicit 4-wide pool: the run must pass, the same seed must yield
    // the same fault log and outcome, and replaying the log must too.
    let threads = stress_threads().unwrap_or(4);
    let runner = ChaosRunner::new(
        BspRingMax::small_threaded(threads),
        FaultPlan::new(0).with_delay(0.3, 200, 400),
    );
    let seed = 0x0007_EAD5_u64;
    let first = runner.run(seed);
    assert!(
        first.passed(),
        "threaded chaos run failed: {:?}",
        first.failures
    );
    let second = runner.run(seed);
    assert_eq!(
        first.faulty.log, second.faulty.log,
        "same seed must inject the same faults under the pool"
    );
    assert_eq!(first.faulty.outcome, second.faulty.outcome);
    let replayed = runner.replay(&first.faulty.log);
    assert!(replayed.passed(), "replay failed: {:?}", replayed.failures);
    assert_eq!(replayed.faulty.outcome, first.faulty.outcome);
}

#[test]
fn sharded_inbox_handoff_race_smoke() {
    // Repeated-iteration race smoke for the shard inbox handoff: many
    // short supersteps, every vertex messaging across shards, repeated
    // enough times that a racy drain/deliver interleaving would surface
    // as a divergent outcome. The ring maximizes cross-shard handoffs
    // (neighbors of trunk-sharded vertices land in other workers).
    let n = 120u64;
    let edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let csr = Csr::undirected_from_edges(n as usize, &edges, true);
    let threads = stress_threads().unwrap_or(4);
    let mut baseline: Option<(std::collections::HashMap<u64, u64>, usize)> = None;
    for rep in 0..20 {
        let r = with_graph(&csr, 3, |g| BspRunner::new(g, MaxValue, cfg(threads)).run());
        assert!(r.terminated, "rep {rep} did not terminate");
        match &baseline {
            None => {
                let steps = r.supersteps();
                baseline = Some((r.states, steps));
            }
            Some((states, steps)) => {
                assert_eq!(&r.states, states, "rep {rep} diverged");
                assert_eq!(r.supersteps(), *steps, "rep {rep} superstep count diverged");
            }
        }
    }
}

#[test]
fn checkpointed_pagerank_is_bit_identical_to_a_straight_run() {
    // Two-superstep segments: every resume hands the next segment the f64
    // shares of the superstep before it as `pending`, so the resumed inbox
    // must be in exactly the order a straight run's drain gives it.
    use trinity::algos::PageRankProgram;
    use trinity::core::checkpoint::{run_with_checkpoints, CheckpointConfig};
    let iterations = 5;
    let rank_bits = |r: &BspResult<PageRankProgram>| -> std::collections::BTreeMap<u64, u64> {
        r.states
            .iter()
            .map(|(&id, s)| (id, s.rank.to_bits()))
            .collect()
    };
    for csr in kinds(&trinity::graphgen::social(300, 8, 5)) {
        let directed = csr.directed;
        for compute_threads in [1, 3] {
            let cfg = BspConfig {
                compute_threads,
                max_supersteps: iterations + 2,
                ..BspConfig::default()
            };
            with_graph(&csr, 4, |g| {
                let straight = pagerank_distributed(Arc::clone(&g), iterations, cfg.clone());
                let program = PageRankProgram {
                    n: g.node_count(),
                    iterations,
                };
                let segment = BspConfig {
                    max_supersteps: 2,
                    ..cfg.clone()
                };
                let runner = BspRunner::new(g, program, segment);
                let first = runner.run();
                assert!(!first.terminated && !first.pending.is_empty());
                let job = format!("pagerank-{directed}-{compute_threads}");
                let ckpt = CheckpointConfig::new(2, job);
                let resumed = run_with_checkpoints(&runner, &cfg, &ckpt).unwrap();
                assert!(resumed.terminated);
                assert_eq!(resumed.supersteps(), straight.supersteps());
                assert_eq!(
                    rank_bits(&resumed),
                    rank_bits(&straight),
                    "checkpointed ranks not bit-identical (directed {directed}, {compute_threads} threads)"
                );
            });
        }
    }
}
