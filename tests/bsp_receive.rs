//! The BSP receive path delivers packed envelopes as runs.
//!
//! `BSP_HUB` is a batch protocol: a worker decodes a whole run, takes
//! each shard inbox lock once and bumps the fence once; the `LoadMap` is
//! updated once per trunk when a shard drains its inbox.
//! These tests pin what that batching
//! must not change — every delivery is still attributed exactly once —
//! and what it fixes: one `net.dispatch` span per run instead of one per
//! vertex message, so a traced job keeps the spans it was traced for. The
//! send side of the same path is held to its one-copy contract and to the
//! exact bytes the run-frame format (DESIGN §14) predicts, on both graph
//! kinds, in the first sending superstep and in later ones, where a hub
//! record ships its change since the vertex's last: one-way run frames and
//! fences, and not one call.

#[path = "../crates/core/tests/run_model/mod.rs"]
mod run_model;

use std::collections::BTreeMap;
use std::sync::Arc;

use trinity::algos::pagerank_distributed;
use trinity::core::BspConfig;
use trinity::graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity::memcloud::{AddressingTable, CloudConfig, MemoryCloud};

/// `csr` loaded into `cloud` undirected as it is, or (`directed`, or
/// `csr` directed) its out-lists marked directed with in-links stored.
fn load_for(cloud: &Arc<MemoryCloud>, csr: &Csr, directed: bool) -> Arc<DistributedGraph> {
    let mut csr = csr.clone();
    csr.directed |= directed;
    let opts = LoadOptions {
        with_in_links: csr.directed,
        attrs: None,
    };
    Arc::new(load_graph(Arc::clone(cloud), &csr, &opts).unwrap())
}

/// Span ring capacity per machine (`trinity_obs::SPAN_RING_CAPACITY`).
const SPAN_RING: u64 = 4096;

#[test]
fn traced_pagerank_keeps_every_superstep_span() {
    // More remote messages per machine per superstep than the span ring
    // holds. One `net.dispatch` span per message (the parent) overwrites
    // every `bsp.superstep` span but the last; one per run leaves room to
    // spare.
    let machines = 2;
    let csr = trinity::graphgen::rmat(15, 8, 41);
    // Full-size trunks: the graph and its in-links outgrow small ones.
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::new(machines)));
    let graph = load_for(&cloud, &csr, true);
    let result = pagerank_distributed(graph, 4, BspConfig::default());
    let busiest = result.reports.iter().map(|r| r.remote_messages).max();
    assert!(
        busiest.unwrap() / machines as u64 > SPAN_RING,
        "workload too small to overflow the ring: {busiest:?}"
    );
    let obs = cloud.fabric().obs();
    let supersteps = obs
        .spans()
        .iter()
        .filter(|s| s.label == "bsp.superstep")
        .count();
    assert_eq!(
        supersteps,
        machines * result.supersteps(),
        "every machine's span of every superstep is still in the ring"
    );
    assert_eq!(obs.snapshot().totals().counters["obs.spans_dropped"], 0);
    cloud.shutdown();
}

#[test]
fn load_map_counts_every_delivery_once() {
    // `record_msgs` is batched per trunk per drain; the per-trunk totals
    // must still add up to exactly the deliveries the reports count. A
    // broadcast travels as one hub record per other machine it reaches
    // and is counted as local deliveries where it fans out, so the
    // records themselves are subtracted.
    let machines = 4;
    let iterations = 5;
    let csr = trinity::graphgen::social(900, 10, 29);
    for directed in [false, true] {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let graph = load_for(&cloud, &csr, directed);
        let table = cloud.node(0).table();
        let records = predict(&csr, &table, &pagerank_shares(&csr, 1)).records;
        let result = pagerank_distributed(graph, iterations, BspConfig::default());
        let reported: u64 = result
            .reports
            .iter()
            .map(|r| r.local_messages + r.remote_messages)
            .sum();
        let obs = cloud.fabric().obs();
        let hub_frames = obs.snapshot().totals().counters["bsp.hub.broadcasts"];
        assert_eq!(hub_frames, iterations as u64 * records);
        // A roll shorter than a millisecond is skipped; outwait it.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let attributed: u64 = (0..machines as u16)
            .flat_map(|m| obs.scope(m).load().snapshot())
            .map(|trunk| trunk.msgs)
            .sum();
        assert_eq!(
            attributed,
            reported - hub_frames,
            "LoadMap message total (directed: {directed})"
        );
        cloud.shutdown();
    }
}

#[test]
fn bsp_frames_are_copied_once() {
    // The one-copy contract on the BSP message path: a superstep frame is
    // copied once into the pack arena and never again, whatever the
    // worker-pool width (5 % slack for frame headers and control traffic).
    let machines = 4;
    let csr = trinity::graphgen::social(4_000, 12, 7);
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
    let graph = Arc::new(load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap());
    let obs = cloud.fabric().obs();
    let sum =
        |name: &'static str| -> u64 { obs.scopes().iter().map(|s| s.counter(name).get()).sum() };
    let (copied0, payload0) = (sum("net.frame_copy_bytes"), sum("net.frame_payload_bytes"));
    let cfg = BspConfig {
        compute_threads: 4,
        ..BspConfig::default()
    };
    let result = pagerank_distributed(graph, 4, cfg);
    assert!(result.reports.iter().any(|r| r.remote_messages > 0));
    let copied = sum("net.frame_copy_bytes") - copied0;
    let payload = sum("net.frame_payload_bytes") - payload0;
    assert!(payload > 0, "the job must ship frames");
    let ratio = copied as f64 / payload as f64;
    assert!(
        ratio <= 1.05,
        "one-copy contract broken on the BSP path: {copied} bytes copied for \
         {payload} payload bytes ({ratio:.3} per byte)"
    );
    cloud.shutdown();
}

/// What the run format (the test's own model) predicts a PageRank job
/// over `csr` sends, one worker a machine, when its sending supersteps
/// broadcast `shares` (per superstep, per vertex): each machine's payload
/// bytes, fences included, the hub records of a superstep, and the most
/// neighbors one record stands for.
struct Predicted {
    bytes: Vec<u64>,
    records: u64,
    widest: usize,
}

fn predict(csr: &Csr, table: &AddressingTable, shares: &[Vec<f64>]) -> Predicted {
    let machines = table.machines().len();
    let owner = |v: u64| table.machine_of(v).0 as usize;
    // A superstep's fence: 12 bytes to each peer, the last one's too.
    let fences = 12 * (machines as u64 - 1) * (shares.len() as u64 + 1);
    let mut p = Predicted {
        bytes: vec![fences; machines],
        records: 0,
        widest: 0,
    };
    // Each receiving machine's hub bases, kept across supersteps.
    let mut bases: Vec<run_model::Bases> = vec![Default::default(); machines];
    for share in shares {
        let mut records = 0;
        // (sender, peer) → the frame's bytes and its last id so far.
        let mut frames: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
        for v in 0..csr.node_count() as u64 {
            let mut groups: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for &t in csr.neighbors(v) {
                if owner(t) != owner(v) {
                    groups.entry(owner(t)).or_default().push(t);
                }
            }
            let msg = share[v as usize].to_le_bytes();
            for (peer, ids) in groups {
                records += 1;
                p.widest = p.widest.max(ids.len());
                let header = run_model::header_len(8) as u64;
                let (bytes, prev) = frames.entry((owner(v), peer)).or_insert((header, 0));
                *bytes += run_model::hub_record_len(prev, &mut bases[peer], &msg, v) as u64;
            }
        }
        for (&(from, _), &(bytes, _)) in &frames {
            assert!(bytes < 16 << 10, "a frame this size ships in one piece");
            p.bytes[from] += bytes;
        }
        p.records = records;
    }
    p
}

/// Each sending superstep's share per vertex, as `PageRankProgram`
/// computes it: rank `1/n`, then `0.15/n + 0.85 · Σ` of the shares its
/// in-edges bring, summed in `total_cmp` order; a share is the rank over
/// the out-degree.
fn pagerank_shares(csr: &Csr, iterations: usize) -> Vec<Vec<f64>> {
    let n = csr.node_count();
    let degree = |v: usize| csr.neighbors(v as u64).len() as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut shares: Vec<Vec<f64>> = Vec::new();
    for _ in 0..iterations {
        if let Some(last) = shares.last() {
            let mut inbox = vec![Vec::new(); n];
            for (v, &share) in last.iter().enumerate() {
                for &t in csr.neighbors(v as u64) {
                    inbox[t as usize].push(share);
                }
            }
            for (r, mut msgs) in rank.iter_mut().zip(inbox) {
                msgs.sort_by(f64::total_cmp);
                let sum: f64 = msgs.iter().sum();
                *r = (1.0 - 0.85) / n as f64 + 0.85 * sum;
            }
        }
        shares.push((0..n).map(|v| rank[v] / degree(v)).collect());
    }
    shares
}

/// Run `iterations` of PageRank over `csr` loaded by [`load_for`], one
/// worker a machine, and hold each machine's payload bytes and the
/// records to [`predict`]'s; the job sends run frames and fences only and
/// makes no call.
fn ships_what_the_run_format_predicts(csr: &Csr, iterations: usize, directed: bool) {
    let machines = 4;
    let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
    let graph = load_for(&cloud, csr, directed);
    let table = cloud.node(0).table();
    let want = predict(csr, &table, &pagerank_shares(csr, iterations));
    assert!(
        want.widest >= 3,
        "no vertex has several neighbors on one peer"
    );

    let obs = cloud.fabric().obs();
    let sum =
        |name: &'static str| -> u64 { obs.scopes().iter().map(|s| s.counter(name).get()).sum() };
    let payload = |m: usize| obs.scope(m as u16).counter("net.frame_payload_bytes").get();
    let payload0: Vec<u64> = (0..machines).map(payload).collect();
    let calls = || -> u64 {
        let scopes = obs.scopes().into_iter();
        scopes
            .map(|s| s.histogram("net.call.us").snapshot().count)
            .sum()
    };
    let calls0 = calls();
    let cfg = BspConfig {
        compute_threads: 1,
        ..BspConfig::default()
    };
    let result = pagerank_distributed(graph, iterations, cfg);
    assert_eq!(result.supersteps(), iterations + 1);
    for (s, report) in result.reports.iter().enumerate() {
        let sent = if s < iterations { want.records } else { 0 };
        assert_eq!(report.remote_messages, sent, "superstep {s}");
    }
    let iterations = iterations as u64;
    // A vertex with k neighbors on one peer is one record there, not k.
    assert_eq!(sum("bsp.frames.remote"), iterations * want.records);
    assert_eq!(sum("bsp.records.sent"), iterations * want.records);
    assert_eq!(sum("bsp.hub.broadcasts"), iterations * want.records);
    assert_eq!(sum("bsp.frames.malformed"), 0);
    assert_eq!(calls(), calls0, "the job made calls (directed: {directed})");
    for (m, want) in want.bytes.iter().enumerate() {
        assert_eq!(
            payload(m) - payload0[m],
            *want,
            "payload bytes machine {m} sent (directed: {directed}, {iterations} sending supersteps)"
        );
    }
    cloud.shutdown();
}

#[test]
fn one_superstep_ships_exactly_the_bytes_the_run_format_predicts() {
    // One PageRank iteration = one sending superstep, in which every
    // vertex broadcasts an 8-byte share. The format model (written
    // independently of the engine's encoder) sizes what each machine sends
    // from the graph, the addressing table and the shares alone: per peer
    // one run frame, per (vertex, peer it reaches) one record, gaps
    // running on from the record before, the frame stating the 8-byte
    // width once. Every vertex is a hub: its record names only itself and
    // ships its share against a zero base, this being its first.
    let csr = trinity::graphgen::social(1_200, 10, 29);
    for directed in [false, true] {
        ships_what_the_run_format_predicts(&csr, 1, directed);
    }
}

#[test]
fn later_supersteps_ship_exactly_the_deltas_the_run_format_predicts() {
    // Two and three sending supersteps: from the second on, each hub
    // record ships its share XORed against the vertex's last one, which
    // its peer kept as the base, and cuts the zero bytes that leaves.
    let csr = trinity::graphgen::social(1_200, 10, 29);
    for iterations in [2, 3] {
        ships_what_the_run_format_predicts(&csr, iterations, false);
    }
    ships_what_the_run_format_predicts(&csr, 2, true);
}
