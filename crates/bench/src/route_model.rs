//! An exact count model of the wire traffic of a PageRank job (E15.2),
//! on the engine's two routes and on four it no longer has. It computes
//! each sending superstep's shares as the engine's PageRank does; per
//! machine and pool worker (vertices split by `trunk_of(id) % workers`,
//! computed in id order) it encodes, with [`runs`], the records a
//! superstep's broadcasts produce, a hub record XORed against its
//! vertex's last share; fills run frames, shipped at `RUN_FLUSH_BYTES`
//! and at shard end, `BSP_MSG` before `BSP_HUB` per peer; has a
//! combiner's leader ship one point record per destination after the
//! workers, ascending; and seals envelopes at `PACK_THRESHOLD_BYTES`,
//! the fence's frame closing the last. The bottleneck is the machine the
//! cost model prices highest. Taking the concurrent workers' frames
//! worker by worker fixes the envelope count whenever no peer's traffic
//! reaches the pack threshold within a superstep.

use trinity_core::bsp::runs;
use trinity_core::{resolve_compute_threads, SuperstepReport};
use trinity_graph::Csr;
use trinity_memcloud::AddressingTable;
use trinity_net::{CostModel, MachineId};

/// A worker ships its open run frame once it holds this many bytes.
const RUN_FLUSH_BYTES: usize = 16 << 10;
/// The fabric's header on every frame.
const FRAME_HEADER_BYTES: u64 = 16;
/// The fabric's header on every envelope.
const ENVELOPE_HEADER_BYTES: u64 = 40;
/// The fabric seals a peer's envelope once its frames reach this many bytes.
const PACK_THRESHOLD_BYTES: u64 = 64 << 10;
/// A fence's payload: superstep u32, run frames sent u64.
const FENCE_BYTES: usize = 12;
/// PageRank's damping factor (`trinity_algos::pagerank`).
const DAMPING: f64 = 0.85;

/// How broadcasts travel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// One record per remote neighbor, in a frame and envelope of its own.
    Unpacked,
    /// One record per machine holding neighbors, naming them: the engine's
    /// route on a directed graph loaded without in-links.
    Grouped,
    /// Hub records from this out-degree up, grouped records below; the
    /// engine's route on a reverse traversable graph is `Hubs(1)`.
    Hubs(usize),
    /// Hub records from this out-degree up; below it, remote deliveries
    /// combined by the machine's leader into one record per destination.
    Combined(usize),
}

/// One superstep: remote deliveries over every machine, and the busiest
/// machine's transfers and wire bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step {
    pub deliveries: u64,
    pub envelopes: u64,
    pub bytes: u64,
}

impl Step {
    /// A live job's superstep as the model states it.
    pub fn of(report: &SuperstepReport) -> Step {
        let net = &report.max_machine_net;
        Step {
            deliveries: report.remote_messages,
            envelopes: net.remote_envelopes,
            bytes: net.remote_bytes,
        }
    }
}

/// One machine's traffic to one peer in a superstep: the frames' wire
/// bytes in its pack buffer, the envelopes sealed, and their bytes.
#[derive(Clone, Default)]
struct Link(u64, u64, u64);

impl Link {
    fn frame(&mut self, payload: usize) {
        self.0 += payload as u64 + FRAME_HEADER_BYTES;
        if self.0 >= PACK_THRESHOLD_BYTES {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if self.0 > 0 {
            self.1 += 1;
            self.2 += std::mem::take(&mut self.0) + ENVELOPE_HEADER_BYTES;
        }
    }
}

/// One open run frame, and the last id it names.
#[derive(Clone, Default)]
struct Outbox(Vec<u8>, u64);

impl Outbox {
    /// Push the record "`msg` to `ids`", or with `hub = Some(base)` the
    /// hub record of `msg` from `ids[0]`, XORed against `base`.
    fn push(&mut self, link: &mut Link, route: Route, hub: Option<u64>, msg: &[u8], ids: &[u64]) {
        if self.0.is_empty() {
            runs::start(&mut self.0, 0, msg.len());
            self.1 = 0;
        }
        match hub {
            Some(base) => runs::push_hub(&mut self.0, &mut self.1, base, msg, ids[0]),
            None => runs::push_record(&mut self.0, &mut self.1, msg, ids),
        }
        if route == Route::Unpacked {
            self.flush(link);
            link.seal();
        } else if self.0.len() >= RUN_FLUSH_BYTES {
            self.flush(link);
        }
    }

    fn flush(&mut self, link: &mut Link) {
        if !self.0.is_empty() {
            link.frame(self.0.len());
            self.0.clear();
        }
    }
}

/// The traffic of `pagerank_distributed(graph, iterations, cfg)` over
/// `csr`'s out-lists placed by `table`, with `compute_threads` as in
/// `BspConfig`: `iterations` supersteps in which every vertex with an
/// out-neighbor broadcasts, then one that only fences.
pub fn pagerank_traffic(
    csr: &Csr,
    table: &AddressingTable,
    compute_threads: usize,
    route: Route,
    iterations: usize,
    cost: &CostModel,
) -> Vec<Step> {
    let machines = table.machines().len();
    let busiest = |links: Vec<Vec<Link>>, deliveries| {
        let per_machine = links.into_iter().enumerate().map(|(m, mut peers)| {
            for (p, link) in peers.iter_mut().enumerate() {
                if p != m {
                    link.frame(FENCE_BYTES);
                }
                link.seal();
            }
            peers.iter().fold((0, 0), |(e, b), l| (e + l.1, b + l.2))
        });
        let (envelopes, bytes) = per_machine
            .max_by(|a, b| cost.seconds(a.0, a.1).total_cmp(&cost.seconds(b.0, b.1)))
            .unwrap_or_default();
        Step {
            deliveries,
            envelopes,
            bytes,
        }
    };
    // Each vertex's last share, as a hub record's base.
    let mut bases = vec![0; csr.node_count()];
    let mut steps: Vec<Step> = shares(csr, iterations)
        .iter()
        .map(|share| {
            let (links, deliveries) =
                broadcast(csr, table, compute_threads, route, share, &mut bases);
            busiest(links, deliveries)
        })
        .collect();
    steps.push(busiest(vec![vec![Link::default(); machines]; machines], 0));
    steps
}

/// Each sending superstep's share per vertex, computed as
/// `PageRankProgram` does: rank `1/n`, then `(1 − d)/n + d · Σ` of the
/// shares its in-edges bring, summed in `total_cmp` order; a share is the
/// rank over the out-degree (unused for a vertex without out-neighbors).
fn shares(csr: &Csr, iterations: usize) -> Vec<Vec<f64>> {
    let n = csr.node_count();
    let degree = |v: usize| csr.neighbors(v as u64).len() as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut all: Vec<Vec<f64>> = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        if let Some(last) = all.last() {
            let mut inbox = vec![Vec::new(); n];
            for (v, &share) in last.iter().enumerate() {
                for &t in csr.neighbors(v as u64) {
                    inbox[t as usize].push(share);
                }
            }
            for (r, mut msgs) in rank.iter_mut().zip(inbox) {
                msgs.sort_by(f64::total_cmp);
                let sum: f64 = msgs.iter().sum();
                *r = (1.0 - DAMPING) / n as f64 + DAMPING * sum;
            }
        }
        all.push((0..n).map(|v| rank[v] / degree(v)).collect());
    }
    all
}

/// One superstep in which every vertex with an out-neighbor broadcasts
/// its `share`: each machine's links to its peers before the fence, and
/// the remote deliveries. A hub record is XORed against its vertex's
/// entry in `bases`, which then holds the new share.
fn broadcast(
    csr: &Csr,
    table: &AddressingTable,
    compute_threads: usize,
    route: Route,
    share: &[f64],
    bases: &mut [u64],
) -> (Vec<Vec<Link>>, u64) {
    let machines = table.machines().len();
    let owner = |v: u64| table.machine_of(v).0 as usize;
    let (hub_from, combine) = match route {
        Route::Unpacked | Route::Grouped => (usize::MAX, false),
        Route::Hubs(t) => (t, false),
        Route::Combined(t) => (t, true),
    };
    let mut deliveries = 0;
    let mut all = Vec::with_capacity(machines);
    for m in 0..machines {
        let mut links = vec![Link::default(); machines];
        let trunks = table.trunks_of(MachineId(m as u16)).len();
        let workers = resolve_compute_threads(compute_threads, trunks);
        let mut deferred = vec![Vec::new(); machines];
        for w in 0..workers {
            let mut out = vec![Outbox::default(); machines];
            let mut hub = vec![Outbox::default(); machines];
            let mut groups = vec![Vec::new(); machines];
            let shard = (0..csr.node_count() as u64)
                .filter(|&v| owner(v) == m && table.trunk_of(v) as usize % workers == w);
            for v in shard {
                let outs = csr.neighbors(v);
                if outs.is_empty() {
                    continue;
                }
                let msg = share[v as usize].to_le_bytes();
                if outs.len() >= hub_from {
                    let mut peers: Vec<usize> = outs.iter().map(|&u| owner(u)).collect();
                    peers.retain(|&p| p != m);
                    peers.sort_unstable();
                    peers.dedup();
                    let base = &mut bases[v as usize];
                    for &p in &peers {
                        hub[p].push(&mut links[p], route, Some(*base), &msg, &[v]);
                    }
                    *base = runs::base(&msg);
                    deliveries += peers.len() as u64;
                    continue;
                }
                for &u in outs.iter().filter(|&&u| owner(u) != m) {
                    let p = owner(u);
                    if combine {
                        deferred[p].push(u);
                    } else if route == Route::Unpacked {
                        deliveries += 1;
                        out[p].push(&mut links[p], route, None, &msg, &[u]);
                    } else {
                        groups[p].push(u);
                    }
                }
                for (p, group) in groups.iter_mut().enumerate().filter(|(_, g)| !g.is_empty()) {
                    deliveries += group.len() as u64;
                    out[p].push(&mut links[p], route, None, &msg, group);
                    group.clear();
                }
            }
            for (p, link) in links.iter_mut().enumerate() {
                out[p].flush(link);
                hub[p].flush(link);
            }
        }
        for (p, mut dsts) in deferred.into_iter().enumerate() {
            dsts.sort_unstable();
            dsts.dedup();
            deliveries += dsts.len() as u64;
            let mut leader = Outbox::default();
            for &u in &dsts {
                leader.push(&mut links[p], route, None, &[0; 8], &[u]);
            }
            leader.flush(&mut links[p]);
        }
        all.push(links);
    }
    (all, deliveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_cloud_config, cloud_with_graph};
    use trinity_algos::pagerank_distributed;
    use trinity_core::BspConfig;
    use trinity_graph::LoadOptions;
    use trinity_memcloud::MemoryCloud;

    const ITERATIONS: usize = 3;

    /// The routes the engine no longer runs, in [`LIVE`]'s order.
    const REMOVED: [Route; 4] = [
        Route::Unpacked,
        Route::Hubs(64),
        Route::Hubs(16),
        Route::Combined(16),
    ];

    /// What the engine shipped on each removed route before it was
    /// deleted (commit `4869ecb`), per graph and `compute_threads`:
    /// remote deliveries, bottleneck transfers and wire bytes summed over
    /// the job's four supersteps. Where a row carries hub records its
    /// bytes are the model's with today's hub record, a delta against the
    /// vertex's last share; the engine shipped 9-byte ones then.
    const LIVE: [(&str, usize, [[u64; 3]; 4]); 6] = [
        (
            "e15",
            1,
            [
                [259_380, 36_976, 2_689_025],
                [192_684, 28, 223_968],
                [161_262, 28, 212_377],
                [99_906, 28, 147_272],
            ],
        ),
        (
            "e15",
            3,
            [
                [259_380, 36_975, 2_688_985],
                [192_684, 28, 225_573],
                [161_262, 28, 214_267],
                [99_906, 28, 148_279],
            ],
        ),
        (
            "social",
            1,
            [
                [81_636, 21_078, 1_517_142],
                [81_636, 12, 102_498],
                [74_838, 12, 97_913],
                [27_345, 12, 76_182],
            ],
        ),
        (
            "social",
            3,
            [
                [81_636, 21_072, 1_516_902],
                [81_636, 12, 102_828],
                [74_838, 12, 98_945],
                [27_345, 12, 76_745],
            ],
        ),
        (
            "rmat",
            1,
            [
                [39_081, 9_502, 681_953],
                [21_189, 16, 27_027],
                [12_966, 16, 22_831],
                [7_134, 16, 17_440],
            ],
        ),
        (
            "rmat",
            3,
            [
                [39_081, 9_501, 681_913],
                [21_189, 16, 28_146],
                [12_966, 16, 24_150],
                [7_134, 16, 18_059],
            ],
        ),
    ];

    /// The model's combiner bytes, in [`LIVE`]'s order, hub records
    /// priced as in [`LIVE`]. The engine shipped combined records in
    /// hash-map order, so its gap bytes followed the hash seed; the
    /// model's ascending order gaps shorter.
    const COMBINER_MODEL_BYTES: [u64; 6] = [135_021, 136_122, 70_191, 70_794, 16_765, 17_602];

    /// E15.2's graph and two more, each with its machine count and
    /// whether it is stored with in-links (the hub route's condition on a
    /// directed graph).
    fn graph(name: &str) -> (Csr, usize, bool) {
        match name {
            "e15" => (
                trinity_graphgen::power_law(30_000, 2.16, 1, 3_000, 7),
                8,
                false,
            ),
            "social" => (trinity_graphgen::social(3_000, 12, 9), 4, false),
            _ => (trinity_graphgen::rmat(11, 8, 4), 5, true),
        }
    }

    fn totals(steps: &[Step]) -> [u64; 3] {
        steps.iter().fold([0; 3], |[d, e, b], s| {
            [d + s.deliveries, e + s.envelopes, b + s.bytes]
        })
    }

    #[test]
    fn the_model_reproduces_what_the_removed_routes_shipped() {
        for (i, &(name, threads, live)) in LIVE.iter().enumerate() {
            let (csr, machines, _) = graph(name);
            let cloud = MemoryCloud::new(bench_cloud_config(machines));
            let (table, cost) = (cloud.node(0).table(), cloud.fabric().cost_model());
            cloud.shutdown();
            for (route, live) in REMOVED.iter().zip(live) {
                let steps = pagerank_traffic(&csr, &table, threads, *route, ITERATIONS, &cost);
                let [deliveries, envelopes, bytes] = totals(&steps);
                let at = format!("{name}, {threads} threads, {route:?}");
                assert_eq!(steps.len(), ITERATIONS + 1);
                assert_eq!(deliveries, live[0], "{at}");
                if let Route::Combined(_) = route {
                    assert_eq!(
                        [envelopes, bytes],
                        [live[1], COMBINER_MODEL_BYTES[i]],
                        "{at}"
                    );
                } else if *route == Route::Unpacked && threads > 1 {
                    // Two workers could meet in one pack buffer between
                    // one's send and its flush, sharing an envelope: the
                    // engine then shipped a few transfers, each exactly
                    // one envelope header, fewer than one per record.
                    let merged = envelopes - live[1];
                    assert!(merged <= 10, "{at}: {merged} envelopes merged");
                    assert_eq!(bytes - live[2], merged * ENVELOPE_HEADER_BYTES, "{at}");
                } else {
                    assert_eq!([envelopes, bytes], [live[1], live[2]], "{at}");
                }
            }
        }
    }

    #[test]
    fn the_model_equals_the_live_engine_on_both_routes() {
        for name in ["social", "rmat"] {
            let (csr, machines, in_links) = graph(name);
            for (route, directed) in [(Route::Hubs(1), csr.directed), (Route::Grouped, true)] {
                let mut csr = csr.clone();
                csr.directed = directed;
                let opts = LoadOptions {
                    with_in_links: in_links && route == Route::Hubs(1),
                    attrs: None,
                };
                for threads in [1, 3] {
                    let (cloud, graph) = cloud_with_graph(&csr, machines, &opts);
                    let (table, cost) = (cloud.node(0).table(), cloud.fabric().cost_model());
                    let cfg = BspConfig {
                        compute_threads: threads,
                        ..BspConfig::default()
                    };
                    let result = pagerank_distributed(graph, ITERATIONS, cfg);
                    cloud.shutdown();
                    let live: Vec<Step> = result.reports.iter().map(Step::of).collect();
                    let model = pagerank_traffic(&csr, &table, threads, route, ITERATIONS, &cost);
                    assert_eq!(live, model, "{name}, {threads} threads, {route:?}");
                }
            }
        }
    }
}
