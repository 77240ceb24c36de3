//! Cluster-level serving tests: deadline aborts mid-flight, shedding at
//! 2× capacity, cancellation, and explorations driven from a proxy.

use std::sync::Arc;
use std::time::Duration;

use trinity_core::online::{explore_via, ExploreOptions, Explorer};
use trinity_core::{TrinityCluster, TrinityConfig};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_net::{CancelToken, FaultKind, FaultLog, FaultPlan, FaultRecord};
use trinity_serve::{Coalescer, Priority, ServeConfig, ServeError, ServeRuntime};

fn cluster_with_path(n: usize, slaves: usize) -> (TrinityCluster, Arc<Explorer>) {
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(slaves, 1));
    let explorer = load_path(&cluster, n);
    (cluster, explorer)
}

/// Load an `n`-node path graph and install the explorer.
fn load_path(cluster: &TrinityCluster, n: usize) -> Arc<Explorer> {
    let edges: Vec<(u64, u64)> = (0..n as u64 - 1).map(|v| (v, v + 1)).collect();
    let csr = Csr::undirected_from_edges(n, &edges, true);
    load_graph(
        Arc::clone(cluster.cloud()),
        &csr,
        &LoadOptions {
            with_in_links: false,
            attrs: None,
        },
    )
    .unwrap();
    Explorer::install(Arc::clone(cluster.cloud()))
}

/// Three slaves and a proxy over a 40-node path, with every envelope
/// between two slaves 35 ms late: each round a start's owner sends out
/// costs ~70 ms. The proxy's own links are not slowed, so a query and its
/// answer cross at once and only the owner's hop loop feels the delay.
fn slow_path_cluster() -> TrinityCluster {
    let slaves = 3u16;
    let slow = (0..slaves)
        .flat_map(|src| (0..slaves).map(move |dst| (src, dst)))
        .filter(|(src, dst)| src != dst)
        .flat_map(|(src, dst)| {
            (0..64).map(move |seq| FaultRecord {
                src,
                dst,
                seq,
                kind: FaultKind::Delay(35_000),
            })
        })
        .collect();
    let mut cfg = TrinityConfig::with_proxies(slaves as usize, 1);
    cfg.cloud.faults = Some(FaultPlan::replay(&FaultLog { records: slow }));
    let cluster = TrinityCluster::new(cfg);
    let fabric = Arc::clone(cluster.cloud().fabric());
    fabric.chaos_arm(false);
    let _explorer = load_path(&cluster, 40);
    fabric.chaos_arm(true);
    cluster
}

/// Explore 8 hops from node 20 of the path, from the proxy, with `budget`.
fn explore_from_proxy(
    cluster: &TrinityCluster,
    budget: Duration,
    call: Option<trinity_core::CallHook>,
) -> trinity_core::ExplorationResult {
    explore_via(
        cluster.proxy(0).endpoint(),
        &cluster.cloud().node(0).table(),
        cluster.slaves(),
        20,
        8,
        b"",
        &ExploreOptions {
            deadline: Some(trinity_net::deadline_now_us() + budget.as_micros() as u64),
            call,
            ..ExploreOptions::default()
        },
    )
}

#[test]
fn expired_deadline_aborts_exploration_mid_flight() {
    // With a 100 ms budget and ~70 ms a round, the 8-hop exploration must
    // die after a hop or two, on the shipped budget.
    let cluster = slow_path_cluster();
    let hops = 8;
    let r = explore_from_proxy(&cluster, Duration::from_millis(100), None);
    assert!(r.deadline_exceeded, "budget must lapse mid-flight: {r:?}");
    assert!(
        r.per_hop.len() >= 2,
        "at least one hop completed before expiry: {:?}",
        r.per_hop
    );
    assert!(
        r.per_hop.len() < hops + 1,
        "but not all {hops} hops: {:?}",
        r.per_hop
    );
    // The hops before the last are whole on a path graph; the last, whose
    // scans the deadline may cut, can only come up short.
    for (h, &count) in r.per_hop.iter().enumerate() {
        let whole = if h == 0 { 1 } else { 2 };
        assert!(
            count == whole || (h + 1 == r.per_hop.len() && (1..=whole).contains(&count)),
            "hop {h}: {count}"
        );
    }
    cluster.shutdown();
}

#[test]
fn identical_queries_with_different_deadlines_each_get_their_own_answer() {
    let cluster = slow_path_cluster();
    let coalescer = Coalescer::new(Arc::clone(cluster.proxy(0).endpoint()));
    std::thread::scope(|scope| {
        let short = scope.spawn(|| {
            explore_from_proxy(&cluster, Duration::from_millis(100), Some(coalescer.hook()))
        });
        while coalescer.misses() == 0 {
            std::thread::yield_now();
        }
        // The same query, asked while the first is in flight, with time
        // for all 8 hops: the first one's partial answer is not its answer.
        let long = explore_from_proxy(&cluster, Duration::from_secs(5), Some(coalescer.hook()));
        assert!(!long.deadline_exceeded, "{long:?}");
        assert_eq!(long.visited(), 1 + 2 * 8);
        let short = short.join().unwrap();
        assert!(short.deadline_exceeded, "{short:?}");
    });
    assert_eq!(coalescer.hits(), 0);
    cluster.shutdown();
}

#[test]
fn unbudgeted_exploration_is_unaffected() {
    let (cluster, explorer) = cluster_with_path(30, 3);
    let r = explorer.explore(0, 15, 4, b"");
    assert!(!r.deadline_exceeded && !r.cancelled);
    assert_eq!(r.visited(), 1 + 2 * 4);
    cluster.shutdown();
}

#[test]
fn a_query_cancelled_before_it_ships_sends_nothing() {
    let (cluster, _explorer) = cluster_with_path(40, 3);
    let proxy = cluster.proxy(0);
    let table = cluster.cloud().node(0).table();
    let sent = || proxy.endpoint().obs().counter("net.env.sent").get();
    let before = sent();
    // A token is process-local: it is checked before the query ships, and
    // a shipped query is bounded by its deadline instead.
    let cancel = CancelToken::new();
    cancel.cancel();
    let r = explore_via(
        proxy.endpoint(),
        &table,
        cluster.slaves(),
        20,
        8,
        b"",
        &ExploreOptions {
            cancel: Some(cancel),
            ..ExploreOptions::default()
        },
    );
    assert!(r.cancelled, "cancellation must be observed: {r:?}");
    assert_eq!(r.per_hop, vec![1]);
    assert_eq!(sent(), before, "a cancelled query sends no envelope");
    cluster.shutdown();
}

#[test]
fn shed_rate_absorbs_2x_overload() {
    // A runtime whose total service capacity (workers × concurrency) is
    // saturated and whose queue is full must shed the excess — and only
    // the excess — rather than queueing it.
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(2, 1));
    let rt = ServeRuntime::start(
        cluster.proxy(0).endpoint(),
        ServeConfig {
            workers: 2,
            queue_capacity: [8, 8, 8, 8],
            default_deadline: None,
        },
    );
    // Offer 2× what workers + queue can hold, all at once: 2 running,
    // 8 queued, the rest must shed.
    let offered = 2 * (2 + 8);
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..offered {
        match rt.submit(Priority::Normal, None, move |_ctx| {
            std::thread::sleep(Duration::from_millis(20));
            i
        }) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded {
                depth, capacity, ..
            }) => {
                assert!(depth >= capacity, "shed only at capacity");
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(
            rt.depth(Priority::Normal) <= 8,
            "queue must never exceed its cap"
        );
    }
    assert!(shed > 0, "2x overload must shed");
    assert!(
        tickets.len() >= 8,
        "at least a queue's worth of queries admitted: {}",
        tickets.len()
    );
    for t in tickets {
        t.wait().unwrap();
    }
    let expected_rate = shed as f64 / offered as f64;
    assert!((rt.shed_rate() - expected_rate).abs() < 1e-9);
    rt.shutdown();
    cluster.shutdown();
}

#[test]
fn shed_storm_writes_one_flight_dump() {
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(2, 1));
    let rt = ServeRuntime::start(
        cluster.proxy(0).endpoint(),
        ServeConfig {
            workers: 1,
            queue_capacity: [1, 1, 1, 1],
            default_deadline: None,
        },
    );
    let registry = Arc::clone(cluster.cloud().fabric().obs());
    let dir = std::env::temp_dir().join(format!("trinity-shed-storm-{}", std::process::id()));
    let path = dir.join("serve-shed.flight.json");
    let _ = std::fs::remove_file(&path);
    rt.arm_flight_dump(Arc::clone(&registry), &path, 4);
    // Occupy the worker and fill the 1-deep queue, then pour in
    // submissions: everything past the first two sheds.
    let blocker = rt
        .submit(Priority::Normal, None, |_ctx| {
            std::thread::sleep(Duration::from_millis(150));
        })
        .unwrap();
    // The worker needs a moment to pop the blocker before the queue slot
    // frees up; retry until this one is admitted.
    let queued = loop {
        match rt.submit(Priority::Normal, None, |_ctx| ()) {
            Ok(t) => break t,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let mut shed = 0;
    for _ in 0..16 {
        if rt.submit(Priority::Normal, None, |_ctx| ()).is_err() {
            shed += 1;
        }
    }
    assert!(shed >= 4, "storm must shed: {shed}");
    assert!(rt.flight_dump_fired(), "trigger must latch after 4 sheds");
    let text = std::fs::read_to_string(&path).expect("flight dump written");
    trinity_obs::validate_json(&text).expect("dump is valid JSON");
    assert!(text.contains("serve shed storm"), "dump carries the reason");
    blocker.wait().unwrap();
    queued.wait().unwrap();
    rt.shutdown();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_query_expires_without_running() {
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(2, 1));
    let rt = ServeRuntime::start(
        cluster.proxy(0).endpoint(),
        ServeConfig {
            workers: 1,
            queue_capacity: [8, 8, 8, 8],
            default_deadline: None,
        },
    );
    // Occupy the only worker...
    let blocker = rt
        .submit(Priority::Normal, None, |_ctx| {
            std::thread::sleep(Duration::from_millis(120));
        })
        .unwrap();
    // ...and queue a query whose budget dies in the queue.
    let doomed = rt
        .submit(Priority::Normal, Some(Duration::from_millis(30)), |_ctx| {
            unreachable!("an expired query must never run")
        })
        .unwrap();
    assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExceeded);
    blocker.wait().unwrap();
    rt.shutdown();
    cluster.shutdown();
}

#[test]
fn serve_runtime_drives_proxy_explorations_end_to_end() {
    let (cluster, _explorer) = cluster_with_path(60, 3);
    let proxy = cluster.proxy(0);
    let rt = ServeRuntime::start(
        proxy.endpoint(),
        ServeConfig {
            workers: 4,
            queue_capacity: [32, 16, 16, 16],
            default_deadline: Some(Duration::from_secs(5)),
        },
    );
    let coalescer = Coalescer::new(Arc::clone(proxy.endpoint()));
    let table = Arc::new(cluster.cloud().node(0).table());
    let slaves = cluster.slaves();
    let endpoint = Arc::clone(proxy.endpoint());
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            let table = Arc::clone(&table);
            let endpoint = Arc::clone(&endpoint);
            let hook = coalescer.hook();
            rt.submit(Priority::Interactive, None, move |ctx| {
                explore_via(
                    &endpoint,
                    &table,
                    slaves,
                    30 + (i % 3),
                    3,
                    b"",
                    &ExploreOptions {
                        cancel: Some(ctx.cancel.clone()),
                        call: Some(hook),
                        ..ExploreOptions::default()
                    },
                )
            })
            .unwrap()
        })
        .collect();
    for t in tickets {
        let r = t.wait().unwrap();
        assert!(!r.deadline_exceeded && !r.cancelled);
        assert_eq!(r.visited(), 1 + 2 * 3, "3 hops on a path");
    }
    // 24 queries over 3 distinct start nodes issued identical overlapping
    // expansions: coalescing must have merged some.
    assert!(
        coalescer.hits() > 0,
        "identical in-flight expansions should coalesce (hits={})",
        coalescer.hits()
    );
    rt.shutdown();
    cluster.shutdown();
}

#[test]
fn mutation_class_drains_ahead_of_batch_and_sheds_independently() {
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(2, 1));
    let rt = ServeRuntime::start(
        cluster.proxy(0).endpoint(),
        ServeConfig {
            workers: 1,
            queue_capacity: [4, 4, 2, 4],
            default_deadline: None,
        },
    );
    // Occupy the worker so subsequent submissions queue in class order.
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let blocker = {
        let gate = Arc::clone(&gate);
        rt.submit(Priority::Normal, None, move |_ctx| {
            while !gate.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .unwrap()
    };
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let push = |tag: &'static str| {
        let order = Arc::clone(&order);
        move |_ctx: &trinity_serve::QueryCtx| order.lock().push(tag)
    };
    let batch = rt.submit(Priority::Batch, None, push("batch")).unwrap();
    let mutation = rt.submit_mutation(None, push("mutation")).unwrap();
    let normal = rt.submit(Priority::Normal, None, push("normal")).unwrap();
    // The 2-deep mutation queue sheds the third writer, naming its class.
    rt.submit_mutation::<(), _>(None, |_ctx| ()).unwrap();
    match rt.submit_mutation::<(), _>(None, |_ctx| ()) {
        Err(ServeError::Overloaded {
            class, capacity, ..
        }) => {
            assert_eq!(class, Priority::Mutation);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected mutation shed, got {other:?}"),
    }
    assert_eq!(
        rt.counts().shed,
        [0, 0, 1, 0],
        "only the mutation class shed"
    );
    gate.store(true, std::sync::atomic::Ordering::Relaxed);
    blocker.wait().unwrap();
    normal.wait().unwrap();
    mutation.wait().unwrap();
    batch.wait().unwrap();
    assert_eq!(
        *order.lock(),
        vec!["normal", "mutation", "batch"],
        "mutations drain after normal reads but ahead of batch scans"
    );
    rt.shutdown();
    cluster.shutdown();
}
