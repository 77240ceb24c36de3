//! `serve_mix` — the paper's online path (§5.1 people search, e11
//! three-hop) through the serving runtime.
//!
//! A social graph with name attributes on 4 slaves + 1 proxy;
//! `ServeRuntime` (2 workers) runs 60 % 2-hop people search for "David"
//! (Interactive class) and 40 % full 3-hop exploration (Normal class)
//! through `explore_via` with the coalescer hook. Closed loop: 2 client
//! threads, one query in flight each. serve, core (explorer), net (call
//! fan-out, ≈170 KB replies per 3-hop) and memcloud reads do the work;
//! memstore writes, tfs and tiering do almost none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use trinity_core::online::{explore_via, ExploreOptions};
use trinity_core::{ExplorationResult, Explorer, TrinityCluster, TrinityConfig};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_graphgen::names::name_for;
use trinity_memcloud::{AddressingTable, MemoryCloud};
use trinity_net::Endpoint;
use trinity_serve::{CallHook, Coalescer, Priority, ServeConfig, ServeCounts, ServeRuntime};

use crate::gen::{cloud_config, Rng};
use crate::harness::{LayerCtx, MetricSet, Tail, TrialOutput, Workload};
use crate::model::{graph_user_bytes, space_amp};
use crate::probes;
use crate::stats::percentile;
use crate::trace::Tracer;

const SLAVES: usize = 4;
const CLIENTS: usize = 2;
const PATTERN: &[u8] = b"David";

struct Sizes {
    nodes: usize,
    degree: usize,
    queries: usize,
}

const FULL: Sizes = Sizes {
    nodes: 20_000,
    degree: 16,
    queries: 1_600,
};
const SMOKE: Sizes = Sizes {
    nodes: 2_000,
    degree: 8,
    queries: 60,
};

/// One generated query.
#[derive(Debug, Clone, Copy)]
struct Query {
    start: u64,
    /// 2-hop "David" search when true, full 3-hop exploration otherwise.
    people_search: bool,
}

impl Query {
    fn hops(&self) -> usize {
        if self.people_search {
            2
        } else {
            3
        }
    }

    fn pattern(&self) -> &'static [u8] {
        if self.people_search {
            PATTERN
        } else {
            b""
        }
    }

    fn class(&self) -> Priority {
        if self.people_search {
            Priority::Interactive
        } else {
            Priority::Normal
        }
    }

    fn span_name(&self) -> &'static str {
        if self.people_search {
            "core.explore_2hop"
        } else {
            "core.explore_3hop"
        }
    }
}

/// What the reference BFS says a query must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub visited: usize,
    pub matches: Vec<u64>,
}

/// Reference level-synchronous BFS on the CSR: every node within `hops`
/// of `start` is visited once; nodes whose name contains the pattern are
/// matches (no pattern, no matches).
pub fn reference_explore(
    csr: &Csr,
    is_match: &dyn Fn(u64) -> bool,
    start: u64,
    hops: usize,
    filter: bool,
) -> Expected {
    let mut seen = vec![false; csr.node_count()];
    seen[start as usize] = true;
    let (mut visited, mut matches) = (1usize, Vec::new());
    let mut frontier = vec![start];
    for hop in 0..=hops {
        if filter {
            matches.extend(frontier.iter().copied().filter(|&v| is_match(v)));
        }
        if hop == hops {
            break;
        }
        let mut next = Vec::new();
        for &v in &frontier {
            for &t in csr.neighbors(v) {
                if !std::mem::replace(&mut seen[t as usize], true) {
                    next.push(t);
                }
            }
        }
        visited += next.len();
        frontier = next;
    }
    matches.sort_unstable();
    Expected { visited, matches }
}

/// The oracle: a complete (not partial) result whose visited count and
/// match set equal the reference.
pub fn query_is_correct(got: &ExplorationResult, want: &Expected) -> bool {
    !got.deadline_exceeded
        && !got.cancelled
        && got.visited() == want.visited
        && got.matches == want.matches
}

/// Everything a query job needs, shared by the runtime's workers.
struct QueryEnv {
    endpoint: Arc<Endpoint>,
    table: AddressingTable,
    hook: CallHook,
}

/// What a query job hands back through its ticket.
struct JobDone {
    result: ExplorationResult,
    started: Instant,
    finished: Instant,
}

pub struct ServeMix {
    seed: u64,
    sizes: &'static Sizes,
    csr: Csr,
    name_seed: u64,
    cluster: TrinityCluster,
    _explorer: Arc<Explorer>,
    rt: Arc<ServeRuntime>,
    env: Arc<QueryEnv>,
    queries: Vec<Query>,
    expected: Vec<Expected>,
    load_s: f64,
    user_bytes: u64,
    counts_after_warmup: ServeCounts,
}

impl ServeMix {
    fn client(&self, c: usize, tracer: Option<&Tracer>) -> TrialOutput {
        let mut out = TrialOutput::default();
        for (i, q) in self.queries.iter().enumerate().skip(c).step_by(CLIENTS) {
            out.attempted += 1;
            let env = Arc::clone(&self.env);
            let q = *q;
            let sent = Instant::now();
            let done = self
                .rt
                .submit(q.class(), None, move |ctx| {
                    let started = Instant::now();
                    let result = explore_via(
                        &env.endpoint,
                        &env.table,
                        SLAVES,
                        q.start,
                        q.hops(),
                        q.pattern(),
                        &ExploreOptions {
                            cancel: Some(ctx.cancel.clone()),
                            call: Some(env.hook.clone()),
                            ..ExploreOptions::default()
                        },
                    );
                    JobDone {
                        result,
                        started,
                        finished: Instant::now(),
                    }
                })
                .and_then(|ticket| ticket.wait());
            let replied = Instant::now();
            // Shed, expired, cancelled, partial or wrong: all failed.
            let Ok(done) = done else {
                out.failed += 1;
                continue;
            };
            if let Some(t) = tracer {
                let request = t.reserve();
                t.span(request, i as u64, "serve.queue", sent, done.started);
                t.span(
                    request,
                    i as u64,
                    q.span_name(),
                    done.started,
                    done.finished,
                );
                t.record(request, 0, i as u64, "serve.request", sent, replied);
            }
            if query_is_correct(&done.result, &self.expected[i]) {
                out.lat_us.push((replied - sent).as_secs_f64() * 1e6);
            } else {
                out.failed += 1;
            }
        }
        out
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const TAIL: Tail = Tail::PerTrial(0.99);

    fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let csr = trinity_graphgen::social(sizes.nodes, sizes.degree, seed);
        let name_seed = Rng::new(seed, 0x5e7e).next_u64();
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> =
            Arc::new(move |v| name_for(name_seed, v).into_bytes());
        // Few fabric workers on purpose: the whole cluster shares two
        // cores, and latency should reflect the serving design rather
        // than timeslice rotation across dozens of threads.
        let cluster = TrinityCluster::new(TrinityConfig {
            cloud: cloud_config(SLAVES, 2),
            proxies: 1,
            clients: 0,
        });
        let t_load = Instant::now();
        load_graph(
            Arc::clone(cluster.cloud()),
            &csr,
            &LoadOptions {
                with_in_links: false,
                attrs: Some(attrs),
            },
        )
        .expect("load the social graph");
        let load_s = t_load.elapsed().as_secs_f64();
        let explorer = Explorer::install(Arc::clone(cluster.cloud()));
        let proxy = cluster.proxy(0);
        let coalescer = Coalescer::new(Arc::clone(proxy.endpoint()));
        let env = Arc::new(QueryEnv {
            endpoint: Arc::clone(proxy.endpoint()),
            table: cluster.cloud().node(0).table(),
            hook: coalescer.hook(),
        });
        let rt = ServeRuntime::start(
            proxy.endpoint(),
            ServeConfig {
                workers: 2,
                queue_capacity: [8; 4],
                default_deadline: Some(Duration::from_secs(5)),
            },
        );
        // Distinct start nodes: two identical expansions are never in
        // flight together, so coalescing (and with it the envelope count)
        // does not depend on timing.
        let mut rng = Rng::new(seed, 0x9e7);
        // Exactly 60 % people search, in a seed-shuffled order: the mix a
        // trial runs does not wobble with the seed.
        let mut people_search: Vec<bool> = (0..sizes.queries).map(|i| i % 5 < 3).collect();
        for i in (1..people_search.len()).rev() {
            people_search.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let queries = rng
            .distinct(sizes.nodes as u64, sizes.queries)
            .into_iter()
            .zip(people_search)
            .map(|(start, people_search)| Query {
                start,
                people_search,
            })
            .collect();
        let counts_after_warmup = rt.counts();
        ServeMix {
            seed,
            sizes,
            csr,
            name_seed,
            cluster,
            _explorer: explorer,
            rt,
            env,
            queries,
            expected: Vec::new(),
            load_s,
            user_bytes: 0,
            counts_after_warmup,
        }
    }

    fn prepare(&mut self) {
        let names: Vec<String> = (0..self.sizes.nodes as u64)
            .map(|v| name_for(self.name_seed, v))
            .collect();
        self.user_bytes = graph_user_bytes(&self.csr, |v| names[v as usize].len());
        let is_match = |v: u64| names[v as usize].contains("David");
        self.expected = self
            .queries
            .iter()
            .map(|q| reference_explore(&self.csr, &is_match, q.start, q.hops(), q.people_search))
            .collect();
    }

    fn cloud(&self) -> &Arc<MemoryCloud> {
        self.cluster.cloud()
    }

    fn run_trial(&mut self, trial: usize, tracer: Option<&Tracer>) -> TrialOutput {
        let this = &*self;
        let per_client: Vec<TrialOutput> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || this.client(c, tracer)))
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut out = TrialOutput::default();
        for c in per_client {
            out.attempted += c.attempted;
            out.failed += c.failed;
            out.lat_us.extend(c.lat_us);
        }
        if trial == 0 {
            self.counts_after_warmup = self.rt.counts();
        }
        out
    }

    fn space_amp(&mut self) -> f64 {
        space_amp(self.cluster.cloud(), self.user_bytes)
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        let two_hop = self.queries.iter().filter(|q| q.people_search).count();
        vec![
            (
                "graph",
                format!(
                    "social(n={}, degree={}, seed={}) with name attrs",
                    self.sizes.nodes, self.sizes.degree, self.seed
                ),
            ),
            (
                "cluster",
                format!("{SLAVES} slaves + 1 proxy, workers_per_machine=2"),
            ),
            (
                "serve",
                "2 workers, queue 8 per class, 5 s deadline, coalescer hook".into(),
            ),
            (
                "load",
                format!(
                    "closed loop, {CLIENTS} clients, one query in flight each; {} queries per \
                     trial ({two_hop} 2-hop \"David\" / {} 3-hop)",
                    self.queries.len(),
                    self.queries.len() - two_hop
                ),
            ),
            ("tail", "p99 per trial, best trial".into()),
        ]
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut MetricSet) {
        out.set("serve.queue_wait_us", ctx.span_p50_us("serve.queue"));
        out.set("core.explore_2hop_us", ctx.span_p50_us("core.explore_2hop"));
        out.set("core.explore_3hop_us", ctx.span_p50_us("core.explore_3hop"));
        // Request minus job body, per request.
        let mut body_ns = std::collections::HashMap::new();
        for s in ctx
            .spans
            .iter()
            .filter(|s| s.name.starts_with("core.explore"))
        {
            body_ns.insert(s.parent, s.end_ns - s.start_ns);
        }
        let mut overhead: Vec<f64> = ctx
            .spans
            .iter()
            .filter(|s| s.name == "serve.request")
            .filter_map(|s| Some(((s.end_ns - s.start_ns) - body_ns.get(&s.id)?) as f64 / 1e3))
            .collect();
        if !overhead.is_empty() {
            out.set("serve.overhead_us", percentile(&mut overhead, 0.5));
        }
        let visited: usize = self.expected.iter().map(|e| e.visited).sum();
        out.set(
            "core.explore_visited_per_query",
            visited as f64 / self.expected.len().max(1) as f64,
        );
        let now = self.rt.counts();
        out.set(
            "serve.shed_count",
            (now.shed_total() - self.counts_after_warmup.shed_total()) as f64,
        );
        out.set(
            "serve.expired_count",
            (now.expired_in_queue - self.counts_after_warmup.expired_in_queue) as f64,
        );
        // An empty job through the runtime: admission, hand-off to a
        // worker, ticket back. The floor under every request.
        let mut rtt: Vec<f64> = (0..2_000)
            .filter_map(|_| {
                let t0 = Instant::now();
                self.rt
                    .submit(Priority::Interactive, None, |_| ())
                    .and_then(|t| t.wait())
                    .ok()?;
                Some(t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        if !rtt.is_empty() {
            out.set("serve.noop_rtt_us", percentile(&mut rtt, 0.5));
        }
        probes::graph(self.cluster.cloud(), self.sizes.nodes, self.load_s, out);
    }

    fn shutdown(self) {
        self.rt.shutdown();
        self.cluster.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Csr {
        // 0 - 1 - 2 - 3 - 4
        Csr::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], true)
    }

    #[test]
    fn reference_bfs_counts_levels_and_filters_names() {
        let csr = path_graph();
        let named = |v: u64| v == 2 || v == 4;
        let two = reference_explore(&csr, &named, 0, 2, true);
        assert_eq!(two.visited, 3);
        assert_eq!(two.matches, vec![2]);
        let three = reference_explore(&csr, &named, 1, 3, false);
        assert_eq!(three.visited, 5);
        assert!(three.matches.is_empty());
    }

    #[test]
    fn oracle_rejects_wrong_counts_wrong_matches_and_partial_results() {
        let want = Expected {
            visited: 3,
            matches: vec![2],
        };
        let good = ExplorationResult {
            per_hop: vec![1, 1, 1],
            matches: vec![2],
            ..ExplorationResult::default()
        };
        assert!(query_is_correct(&good, &want));
        // A deliberately wrong expectation must fail.
        let wrong_count = Expected {
            visited: 4,
            ..want.clone()
        };
        assert!(!query_is_correct(&good, &wrong_count));
        let wrong_matches = Expected {
            matches: vec![4],
            ..want.clone()
        };
        assert!(!query_is_correct(&good, &wrong_matches));
        let partial = ExplorationResult {
            deadline_exceeded: true,
            ..good.clone()
        };
        assert!(!query_is_correct(&partial, &want));
    }

    #[test]
    fn smoke_trial_passes_its_oracle() {
        let mut w = ServeMix::setup(11, true);
        w.prepare();
        let out = w.run_trial(1, None);
        assert_eq!(out.attempted, SMOKE.queries as u64);
        assert_eq!(out.failed, 0);
        // Corrupt one expectation: the same trial must now report it.
        w.expected[0].visited += 1;
        let out = w.run_trial(2, None);
        assert_eq!(out.failed, 1);
        w.shutdown();
    }
}
