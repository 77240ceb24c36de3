//! Cluster-level serving tests: deadline aborts mid-flight, shedding at
//! 2× capacity, cancellation, and proxy-coordinated exploration.

use std::sync::Arc;
use std::time::Duration;

use trinity_core::online::{explore_via, ExploreOptions, Explorer};
use trinity_core::{TrinityCluster, TrinityConfig};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_net::CancelToken;
use trinity_serve::{Coalescer, Priority, ServeConfig, ServeError, ServeRuntime};

fn cluster_with_path(n: usize, slaves: usize) -> (TrinityCluster, Arc<Explorer>) {
    let edges: Vec<(u64, u64)> = (0..n as u64 - 1).map(|v| (v, v + 1)).collect();
    let csr = Csr::undirected_from_edges(n, &edges, true);
    let cluster = TrinityCluster::new(TrinityConfig::with_proxies(slaves, 1));
    load_graph(
        Arc::clone(cluster.cloud()),
        &csr,
        &LoadOptions {
            with_in_links: false,
            attrs: None,
        },
    )
    .unwrap();
    let explorer = Explorer::install(Arc::clone(cluster.cloud()));
    (cluster, explorer)
}

#[test]
fn expired_deadline_aborts_exploration_mid_flight() {
    let (cluster, _explorer) = cluster_with_path(40, 3);
    let proxy = cluster.proxy(0);
    let table = cluster.cloud().node(0).table();
    // A call hook that slows every fan-out hop: with a ~35 ms/hop wire
    // and a 100 ms budget, the 8-hop exploration must die after 2-3 hops.
    let endpoint = Arc::clone(proxy.endpoint());
    let slow: trinity_core::CallHook = Arc::new(move |requests| {
        std::thread::sleep(Duration::from_millis(35));
        endpoint.call_many(requests)
    });
    let hops = 8;
    let r = explore_via(
        proxy.endpoint(),
        &table,
        cluster.slaves(),
        20,
        hops,
        b"",
        &ExploreOptions {
            deadline: Some(trinity_net::deadline_now_us() + 100_000),
            call: Some(slow),
            ..ExploreOptions::default()
        },
    );
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
    // The hops that did complete are correct on a path graph.
    for (h, &count) in r.per_hop.iter().enumerate() {
        assert_eq!(count, if h == 0 { 1 } else { 2 }, "hop {h}");
    }
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
fn cancel_token_stops_exploration_between_hops() {
    let (cluster, _explorer) = cluster_with_path(40, 3);
    let proxy = cluster.proxy(0);
    let table = cluster.cloud().node(0).table();
    let cancel = CancelToken::new();
    // Cancel fires during hop 2's fan-out.
    let endpoint = Arc::clone(proxy.endpoint());
    let cancel2 = cancel.clone();
    let hook: trinity_core::CallHook = Arc::new(move |requests| {
        std::thread::sleep(Duration::from_millis(10));
        cancel2.cancel();
        endpoint.call_many(requests)
    });
    let r = explore_via(
        proxy.endpoint(),
        &table,
        cluster.slaves(),
        20,
        8,
        b"",
        &ExploreOptions {
            cancel: Some(cancel),
            call: Some(hook),
            ..ExploreOptions::default()
        },
    );
    assert!(r.cancelled, "cancellation must be observed: {r:?}");
    assert!(r.per_hop.len() < 9, "partial results: {:?}", r.per_hop);
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
