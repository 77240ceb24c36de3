//! The asynchronous runtime (`trinity_core::async_compute`) driven by its
//! one in-tree program, `trinity_algos::AsyncSssp`: termination detection,
//! degenerate jobs, and the §6.2 interruption snapshot / resume cycle,
//! each checked against `bfs_reference`.

use std::sync::Arc;
use std::time::Duration;

use trinity_algos::{bfs_reference, AsyncSssp};
use trinity_core::async_compute::{spawn, spawn_from_snapshot, AsyncResult};
use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity_memcloud::{CloudConfig, MemoryCloud};

fn grid(n: usize) -> Csr {
    // n x n grid, undirected.
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

fn setup(csr: &Csr, machines: usize) -> (Arc<MemoryCloud>, Arc<DistributedGraph>) {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
    let graph = Arc::new(load_graph(Arc::clone(&cloud), csr, &LoadOptions::default()).unwrap());
    (cloud, graph)
}

fn assert_matches_bfs(result: &AsyncResult<u64>, csr: &Csr, at: &str) {
    for (v, d) in bfs_reference(csr, 0) {
        assert_eq!(result.states[&v], d, "vertex {v} {at}");
    }
}

#[test]
fn async_sssp_matches_bfs_and_terminates() {
    let csr = grid(8);
    let (cloud, graph) = setup(&csr, 3);
    let job = spawn(Arc::clone(&graph), AsyncSssp, "sssp-term", vec![(0, 0u64)]);
    let result = job.join();
    assert_matches_bfs(&result, &csr, "at termination");
    assert!(result.messages_processed > 0);
    cloud.shutdown();
}

#[test]
fn empty_seed_job_terminates_immediately() {
    let csr = grid(3);
    let (cloud, graph) = setup(&csr, 2);
    let job = spawn(Arc::clone(&graph), AsyncSssp, "empty", vec![]);
    let result = job.join();
    assert!(result.states.values().all(|&d| d == u64::MAX));
    cloud.shutdown();
}

#[test]
fn single_machine_jobs_work() {
    let csr = grid(5);
    let (cloud, graph) = setup(&csr, 1);
    let job = spawn(Arc::clone(&graph), AsyncSssp, "one", vec![(0, 0u64)]);
    let result = job.join();
    assert_matches_bfs(&result, &csr, "on one machine");
    cloud.shutdown();
}

#[test]
fn snapshot_then_abort_then_resume_completes_correctly() {
    let csr = grid(12); // enough work that the snapshot lands mid-run
    let (cloud, graph) = setup(&csr, 3);
    let job = spawn(Arc::clone(&graph), AsyncSssp, "resumable", vec![(0, 0u64)]);
    // Let it make some progress, then snapshot and kill it.
    std::thread::sleep(Duration::from_millis(20));
    job.snapshot().unwrap();
    job.abort();
    // Resume from the snapshot on a fresh runtime.
    let job2 = spawn_from_snapshot(Arc::clone(&graph), AsyncSssp, "resumable").unwrap();
    let result = job2.join();
    assert_matches_bfs(&result, &csr, "after resume");
    cloud.shutdown();
}

#[test]
fn snapshot_during_quiet_periods_is_safe_and_repeatable() {
    let csr = grid(6);
    let (cloud, graph) = setup(&csr, 2);
    let job = spawn(Arc::clone(&graph), AsyncSssp, "multi-snap", vec![(0, 0u64)]);
    for _ in 0..3 {
        job.snapshot().unwrap();
    }
    let result = job.join();
    assert_matches_bfs(&result, &csr, "after three snapshots");
    cloud.shutdown();
}
