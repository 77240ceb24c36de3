//! `tiering` — out-of-core trunk tiering under a memory budget
//! (DESIGN.md §15): budget sweep, pipelined bucket prefetch, and
//! eviction-thrash chaos seeds.
//!
//! The workload is the §5.4 offline shape: an iterative job whose
//! superstep `s` computes over bucket `s % nbuckets` of every machine's
//! trunks, driven through [`BucketPrefetcher`] exactly as the BSP
//! runtime drives it (pin scheduled + next, bulk-fault the scheduled
//! bucket, background-fetch the next). The sweep runs the identical job
//! fully resident and at budgets of 1.0x / 0.5x / 0.25x the per-machine
//! working set, asserting a bit-identical checksum every time — tiering
//! must never change an answer, only its latency.
//!
//! `--smoke` gates the headline claims: at 0.5x budget (working set =
//! 2x budget) the job completes within 2.5x of the fully-resident wall,
//! and the prefetch pipeline delivers ≥ 80% of bucket transitions with
//! the scheduled trunks already resident. Chaos seeds then replay the
//! crash matrix — crash between spill-write and eviction, crash with
//! trunks spilled (the fault-in image is the source of truth), and
//! eviction thrash under a live migration — each required to show zero
//! cell divergence. A wall-clock ratchet (`results/tiering.baseline.json`)
//! catches order-of-magnitude regressions of the out-of-core path across
//! commits, re-recording whenever the run gets faster.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use trinity_bench::{bytes, cloud_with_graph, header, row, scaled, secs, timed, MetricsOut};
use trinity_core::bsp::SuperstepHook;
use trinity_core::BucketPrefetcher;
use trinity_elastic::{MigrationConfig, MigrationEngine};
use trinity_graph::LoadOptions;
use trinity_memcloud::{trunk_backup_path, CloudConfig, MemoryCloud};
use trinity_memstore::TrunkSnapshot;
use trinity_net::MachineId;
use trinity_obs::Json;

const MACHINES: usize = 4;
const NBUCKETS: usize = 4;
/// Checksum passes per cell — the simulated vertex compute. Heavy enough
/// that a superstep's compute overlaps the background fetch of the next
/// bucket, which is the whole point of the pipeline.
const PASSES: usize = 6;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut metrics = MetricsOut::from_args();

    let (n, degree, supersteps) = if smoke {
        (24_000, 12, 24)
    } else {
        (scaled(80_000), 16, 40)
    };
    let csr = trinity_graphgen::social(n, degree, 7);

    header(
        &format!(
            "tiering — bucket-scheduled scan ({supersteps} supersteps, {NBUCKETS} buckets) \
             on social n={n} deg={degree}, {MACHINES} machines, budget swept"
        ),
        &[
            "budget",
            "wall",
            "spills",
            "clean",
            "faults",
            "prefetch",
            "hit-rate",
            "vs resident",
        ],
    );

    // Fully-resident reference: budget disabled, same prefetcher-driven
    // job (the pins and residency checks run; nothing ever spills).
    let (wall_full, checksum_full, working_set) = {
        let (cloud, graph) = cloud_with_graph(&csr, MACHINES, &LoadOptions::default());
        let working_set = (0..MACHINES)
            .map(|m| {
                cloud
                    .node(m)
                    .store()
                    .trunks()
                    .into_iter()
                    .map(|t| t.stats().used_bytes as u64)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        let prefetcher = BucketPrefetcher::new(Arc::clone(&graph), NBUCKETS);
        let (checksum, wall) = timed(|| run_job(&cloud, &prefetcher, supersteps));
        prefetcher.release();
        metrics.capture("resident", &cloud);
        let s = cloud.tier_stats();
        row(&[
            "resident".into(),
            secs(wall),
            s.spills.to_string(),
            s.clean_evictions.to_string(),
            s.faults.to_string(),
            format!(
                "{}/{}",
                s.prefetch_hits,
                s.prefetch_hits + s.prefetch_misses
            ),
            "1.00".into(),
            "1.00x".into(),
        ]);
        cloud.shutdown();
        (wall, checksum, working_set)
    };
    println!(
        "working set: {} per machine; budgets swept at 1.0x / 0.5x / 0.25x",
        bytes(working_set)
    );

    let mut series = vec![Json::obj([
        ("budget_factor", Json::F64(0.0)),
        ("budget_bytes", Json::U64(0)),
        ("wall_seconds", Json::F64(wall_full)),
        ("checksum", Json::U64(checksum_full)),
    ])];
    let mut wall_half = None;
    let mut hit_rate_half = None;
    for factor in [1.0f64, 0.5, 0.25] {
        let (cloud, graph) = cloud_with_graph(&csr, MACHINES, &LoadOptions::default());
        let budget = (working_set as f64 * factor) as u64;
        cloud.set_memory_budget(budget);
        let prefetcher = BucketPrefetcher::new(Arc::clone(&graph), NBUCKETS);
        let (checksum, wall) = timed(|| run_job(&cloud, &prefetcher, supersteps));
        prefetcher.release();
        assert_eq!(
            checksum, checksum_full,
            "tiering changed the answer at budget {factor}x — cell divergence"
        );
        let s = cloud.tier_stats();
        let transitions = s.prefetch_hits + s.prefetch_misses;
        let hit_rate = s.prefetch_hits as f64 / transitions.max(1) as f64;
        if factor == 0.5 {
            wall_half = Some(wall);
            hit_rate_half = Some(hit_rate);
        }
        metrics.capture(&format!("budget={factor}"), &cloud);
        series.push(Json::obj([
            ("budget_factor", Json::F64(factor)),
            ("budget_bytes", Json::U64(budget)),
            ("wall_seconds", Json::F64(wall)),
            ("checksum", Json::U64(checksum)),
            ("spills", Json::U64(s.spills)),
            ("spill_bytes", Json::U64(s.spill_bytes)),
            ("clean_evictions", Json::U64(s.clean_evictions)),
            ("faults", Json::U64(s.faults)),
            ("fault_bytes", Json::U64(s.fault_bytes)),
            ("prefetch_hits", Json::U64(s.prefetch_hits)),
            ("prefetch_misses", Json::U64(s.prefetch_misses)),
            ("prefetch_hit_rate", Json::F64(hit_rate)),
        ]));
        row(&[
            format!("{factor:.2}x"),
            secs(wall),
            s.spills.to_string(),
            s.clean_evictions.to_string(),
            s.faults.to_string(),
            format!("{}/{}", s.prefetch_hits, transitions),
            format!("{hit_rate:.2}"),
            format!("{:.2}x", wall / wall_full.max(1e-12)),
        ]);
        cloud.shutdown();
    }
    metrics.section("budget_sweep", Json::Arr(series));

    // Chaos seeds: the crash matrix of the spill path, each scenario
    // seeded so the cell patterns (and thus any divergence) reproduce.
    header(
        "tiering — eviction chaos seeds (zero cell divergence required)",
        &["scenario", "seed", "cells", "divergence"],
    );
    let mut chaos = Vec::new();
    for (scenario, seed) in [
        ("crash-during-spill", 11u64),
        ("crash-during-fault-in", 23),
        ("thrash-under-migration", 37),
    ] {
        let (cells, divergence) = match scenario {
            "crash-during-spill" => chaos_crash_during_spill(seed),
            "crash-during-fault-in" => chaos_crash_during_fault_in(seed),
            _ => chaos_thrash_under_migration(seed),
        };
        assert_eq!(
            divergence, 0,
            "{scenario} seed {seed}: {divergence} cells diverged"
        );
        chaos.push(Json::obj([
            ("scenario", Json::Str(scenario.into())),
            ("seed", Json::U64(seed)),
            ("cells", Json::U64(cells)),
            ("divergence", Json::U64(divergence)),
        ]));
        row(&[
            scenario.into(),
            seed.to_string(),
            cells.to_string(),
            divergence.to_string(),
        ]);
    }
    metrics.section("chaos", Json::Arr(chaos));
    metrics.finish();

    if smoke {
        let wall_half = wall_half.expect("sweep includes 0.5x");
        let ratio = wall_half / wall_full.max(1e-12);
        assert!(
            ratio <= 2.5,
            "out-of-core too slow: working set 2x budget ran {} vs resident {} \
             ({ratio:.2}x > 2.5x)",
            secs(wall_half),
            secs(wall_full),
        );
        println!("smoke: 0.5x-budget wall {ratio:.2}x of fully resident (gate 2.5x)");
        let hit_rate = hit_rate_half.expect("sweep includes 0.5x");
        assert!(
            hit_rate >= 0.8,
            "prefetch pipeline broke: only {:.0}% of bucket transitions found the \
             scheduled trunks resident (gate 80%)",
            hit_rate * 100.0,
        );
        println!(
            "smoke: prefetch delivered {:.0}% of bucket transitions resident (gate 80%)",
            hit_rate * 100.0
        );
        wall_regression_gate(wall_half);
        println!("smoke: OK (checksums bit-identical across all budgets; chaos seeds clean)");
    }
}

/// The bucket-scheduled job: each superstep, every machine (in parallel,
/// BSP-style barrier at the end) runs the prefetcher hook and then scans
/// the scheduled bucket's trunks, folding every cell into a
/// machine-order-independent checksum. Returns the job checksum.
fn run_job(cloud: &Arc<MemoryCloud>, prefetcher: &Arc<BucketPrefetcher>, supersteps: usize) -> u64 {
    let mut checksum = 0u64;
    for s in 0..supersteps {
        let workers: Vec<_> = (0..MACHINES)
            .map(|m| {
                let cloud = Arc::clone(cloud);
                let prefetcher = Arc::clone(prefetcher);
                std::thread::spawn(move || {
                    prefetcher.superstep_start(m, s);
                    let mut sum = 0u64;
                    for &gid in prefetcher.bucket(m, s) {
                        let trunk = cloud
                            .node(m)
                            .resident_trunk(gid)
                            .expect("scheduled trunk must fault in");
                        trunk.for_each_cell(|id, payload| {
                            let mut h = id ^ 0xcbf2_9ce4_8422_2325;
                            for _ in 0..PASSES {
                                for &b in payload {
                                    h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
                                }
                            }
                            sum = sum.wrapping_add(h);
                        });
                    }
                    sum
                })
            })
            .collect();
        for w in workers {
            checksum = checksum.wrapping_add(w.join().expect("superstep worker"));
        }
    }
    checksum
}

/// Deterministic chaos cell pattern.
fn pattern(seed: u64, k: u64) -> Vec<u8> {
    vec![((k.wrapping_mul(seed)) % 251) as u8; 8 + ((k + seed) % 24) as usize]
}

/// Crash between the spill's TFS write and the eviction: the image
/// landed at the backup path but the machine died before the tier-state
/// commit. Recovery must serve every cell from that image.
fn chaos_crash_during_spill(seed: u64) -> (u64, u64) {
    let cloud = MemoryCloud::new(CloudConfig::small(3));
    let mut model = HashMap::new();
    for k in 0..256u64 {
        let v = pattern(seed, k);
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    cloud.backup_all().unwrap();
    // Post-backup writes exist only in the victim's resident trunks and
    // in the half-finished spill images.
    for k in 300..340u64 {
        let v = pattern(seed, k);
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    let victim = 1 + (seed as usize % 2);
    let vm = cloud.node(victim).machine();
    let table = cloud.node(victim).table();
    for gid in table.trunks_of(vm) {
        if let Some(trunk) = cloud.node(victim).store().trunk(gid) {
            let image = TrunkSnapshot::capture(&trunk).encode();
            let path = trunk_backup_path(gid);
            let expected = cloud
                .tfs()
                .read_versioned(&path)
                .map(|(v, _)| v)
                .unwrap_or(0);
            cloud
                .tfs()
                .write_if_version(&path, &image, expected)
                .unwrap();
        }
    }
    cloud.kill_machine(victim);
    cloud.recover(victim).unwrap();
    let divergence = count_divergence(&cloud, &model);
    cloud.shutdown();
    (model.len() as u64, divergence)
}

/// Crash with the victim's trunks spilled (covers a crash during
/// fault-in — the TFS image stays the source of truth throughout).
fn chaos_crash_during_fault_in(seed: u64) -> (u64, u64) {
    let cloud = MemoryCloud::new(CloudConfig::small(3));
    let mut model = HashMap::new();
    for k in 0..256u64 {
        let v = pattern(seed, k);
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    cloud.backup_all().unwrap();
    let victim = 1 + (seed as usize % 2);
    let vm = cloud.node(victim).machine();
    for gid in cloud.node(victim).table().trunks_of(vm) {
        let _ = cloud.node(victim).spill_trunk(gid).unwrap();
    }
    cloud.kill_machine(victim);
    cloud.recover(victim).unwrap();
    let divergence = count_divergence(&cloud, &model);
    cloud.shutdown();
    (model.len() as u64, divergence)
}

/// Eviction thrash (starvation budget, sweeps forced from the write
/// path) while a trunk migrates to a standby and back, with a writer
/// hammering the key space throughout.
fn chaos_thrash_under_migration(seed: u64) -> (u64, u64) {
    let cloud = Arc::new(MemoryCloud::new(CloudConfig {
        standby_machines: 1,
        ..CloudConfig::small(3)
    }));
    let machines = cloud.machines();
    let mut model = HashMap::new();
    for k in 0..256u64 {
        let v = pattern(seed, k);
        cloud.node(0).put(k, &v).unwrap();
        model.insert(k, v);
    }
    cloud.set_memory_budget(2048);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cloud = Arc::clone(&cloud);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut model = HashMap::new();
            let mut k = seed;
            while !stop.load(Ordering::Relaxed) {
                let key = k % 256;
                let v = pattern(seed.wrapping_add(1), k);
                for _ in 0..100 {
                    if cloud.node((k as usize) % machines).put(key, &v).is_ok() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                model.insert(key, v);
                if k.is_multiple_of(64) {
                    for m in 0..machines {
                        let _ = cloud.node(m).enforce_budget();
                    }
                }
                k += 1;
            }
            model
        })
    };
    let engine = MigrationEngine::new(MigrationConfig {
        chunk_cells: 8,
        ..MigrationConfig::default()
    });
    let trunk = cloud.node(0).table().trunks_of(MachineId(0))[seed as usize % 4];
    for &to in &[3u16, 0] {
        engine
            .migrate_trunk(&cloud, trunk, MachineId(to))
            .expect("migration under eviction thrash");
    }
    stop.store(true, Ordering::Relaxed);
    for (k, v) in writer.join().unwrap() {
        model.insert(k, v);
    }
    for m in 0..machines {
        cloud.node(m).clear_cache();
    }
    let divergence = count_divergence(&cloud, &model);
    cloud.shutdown();
    (model.len() as u64, divergence)
}

fn count_divergence(cloud: &MemoryCloud, model: &HashMap<u64, Vec<u8>>) -> u64 {
    let mut divergence = 0;
    for (k, v) in model {
        if cloud.node(0).get(*k).unwrap().as_deref() != Some(v.as_slice()) {
            divergence += 1;
        }
    }
    divergence
}

/// Wall-clock ratchet for the out-of-core path, mirroring
/// `bsp_scaling`'s gate: first run records the 0.5x-budget wall; later
/// runs fail past 2x, and faster runs re-record so the bound only
/// tightens.
fn wall_regression_gate(wall_half: f64) {
    const TOLERANCE: f64 = 2.0;
    let path = std::path::Path::new("results/tiering.baseline.json");
    let recorded: Option<f64> = std::fs::read_to_string(path).ok().and_then(|s| {
        s.split(':')
            .nth(1)?
            .trim()
            .trim_end_matches(['}', '\n', ' '])
            .parse()
            .ok()
    });
    let record = |wall: f64| {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, format!("{{\"wall_halfbudget_seconds\":{wall:.6}}}\n")) {
            Ok(()) => println!(
                "smoke: recorded out-of-core wall baseline {} to {}",
                secs(wall),
                path.display()
            ),
            Err(e) => eprintln!("smoke: failed to record baseline: {e}"),
        }
    };
    match recorded {
        None => record(wall_half),
        Some(base) => {
            assert!(
                wall_half <= base * TOLERANCE,
                "out-of-core wall regression: 0.5x-budget run took {} vs baseline {} \
                 (>{TOLERANCE}x; delete {} if the host changed)",
                secs(wall_half),
                secs(base),
                path.display(),
            );
            println!(
                "smoke: out-of-core wall {} within {TOLERANCE}x of baseline {}",
                secs(wall_half),
                secs(base)
            );
            if wall_half < base {
                record(wall_half);
            }
        }
    }
}
