//! The chaos harness: run a workload under a seeded fault plan, judge
//! the result against a fault-free reference, replay recorded schedules,
//! and shrink failing ones.

use std::time::Duration;

use trinity_net::{Fabric, FaultKind, FaultLog, FaultPlan, FaultRecord};

/// What one execution of a workload produced, plus the injector's
/// post-quiescence accounting.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Workload-defined result fingerprint (e.g. sorted BSP states).
    /// Deterministic workloads must produce the same outcome for the
    /// same inputs regardless of benign faults.
    pub outcome: String,
    /// Every fault the injector recorded during the run.
    pub log: FaultLog,
    /// Envelopes still parked inside the injector after quiescence
    /// (must be 0: nothing may leak in delay timers or reorder slots).
    pub leaked: u64,
    /// Frame-ledger imbalance after quiescence:
    /// `(entered + duplicated) - (consumed + swallowed)`. Must be 0.
    pub imbalance: i64,
    /// Machines the workload recovered (§6 protocol) after scheduled
    /// crashes. Every entry must correspond to a crash in `log`.
    pub recovered: Vec<u16>,
    /// Invariant violations the workload itself observed while running
    /// (e.g. serve-counter conservation, a query returning success past
    /// its deadline).
    pub failures: Vec<String>,
    /// Serialized flight-recorder dump captured from the fabric's
    /// registry before shutdown. Stashed here (not dumped lazily)
    /// because the fabric is gone by the time the run is judged; the
    /// runner writes it to disk only when the run fails.
    pub flight: Option<String>,
}

impl ChaosRun {
    /// Capture a run's accounting from its fabric: quiesce the injector,
    /// wait for the frame ledger to balance, and snapshot the fault log.
    /// Call after the workload's traffic is finished, before shutdown.
    pub fn capture(fabric: &Fabric, outcome: impl Into<String>, timeout: Duration) -> ChaosRun {
        let quiesced = fabric.chaos_quiesce(timeout);
        let deadline = std::time::Instant::now() + timeout;
        let mut imbalance;
        loop {
            let (dup, swallowed) = match fabric.chaos() {
                Some(c) => (c.duplicated_frames(), c.swallowed_frames()),
                None => (0, 0),
            };
            let total = fabric.total_stats();
            imbalance = (total.entered_frames() + dup) as i64
                - (total.consumed_frames() + swallowed) as i64;
            if imbalance == 0 || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let leaked = if quiesced {
            0
        } else {
            fabric.chaos().map_or(0, |c| c.pending())
        };
        // Close out the final flight window and serialize the dump while
        // the registry is still reachable.
        fabric.obs().flight_tick();
        let flight = Some(fabric.obs().flight_dump("chaos run capture").to_string());
        ChaosRun {
            outcome: outcome.into(),
            log: fabric.fault_log(),
            leaked,
            imbalance,
            recovered: Vec::new(),
            failures: Vec::new(),
            flight,
        }
    }

    /// Crash records in this run's log, as `(machine, index)` pairs.
    pub fn crashes(&self) -> Vec<u16> {
        self.log
            .records
            .iter()
            .filter(|r| matches!(r.kind, FaultKind::Crash(_)))
            .map(|r| r.src)
            .collect()
    }
}

/// A workload the chaos harness can execute under an arbitrary fault
/// plan. Implementations build their own cluster per run (so runs are
/// independent), disarm the injector during setup, and arm it for the
/// measured phase.
pub trait ChaosWorkload {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Execute once. `faults: None` is the fault-free reference run.
    fn run(&self, faults: Option<FaultPlan>) -> ChaosRun;

    /// Workload-specific invariants comparing the faulty run to the
    /// reference (e.g. result equality). Return one message per
    /// violation; empty means the run passed.
    fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String>;

    /// Whether this workload's fault log is expected to be identical
    /// across same-seed runs (false for timing-driven workloads such as
    /// the serving slice or heartbeat-paced recovery).
    fn deterministic(&self) -> bool {
        true
    }
}

/// One judged chaos execution.
#[derive(Debug)]
pub struct ChaosReport {
    /// Seed the plan ran with (0 for replays).
    pub seed: u64,
    /// The fault-free reference run.
    pub reference: ChaosRun,
    /// The run under faults.
    pub faulty: ChaosRun,
    /// Every violated invariant; empty means the run passed.
    pub failures: Vec<String>,
    /// Where the faulty run's flight-recorder dump was written, when the
    /// run failed and a dump was captured.
    pub flight_path: Option<std::path::PathBuf>,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Destination for a failing run's flight dump:
/// `$TRINITY_FLIGHT_DIR/<workload>-seed<seed>.flight.json`. The default
/// directory is `target/flight` of the workspace this crate was built
/// in — anchored at the manifest, not the cwd (which is the crate
/// directory under `cargo test`), so a failing run never writes into a
/// tracked or unignored path.
fn flight_artifact_path(workload: &str, seed: u64) -> std::path::PathBuf {
    const DEFAULT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/flight");
    let dir = std::env::var("TRINITY_FLIGHT_DIR").unwrap_or_else(|_| DEFAULT_DIR.to_string());
    std::path::PathBuf::from(dir).join(format!("{workload}-seed{seed}.flight.json"))
}

/// Write a failing run's stashed flight dump to its artifact path.
/// Best-effort: a failed write is reported on stderr, never panics —
/// the postmortem artifact must not mask the original failure.
fn write_flight_artifact(
    workload: &str,
    seed: u64,
    faulty: &ChaosRun,
) -> Option<std::path::PathBuf> {
    let text = faulty.flight.as_ref()?;
    let path = flight_artifact_path(workload, seed);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "trinity-chaos: flight dump to {} failed: {e}",
                path.display()
            );
            None
        }
    }
}

/// Drives a [`ChaosWorkload`] under seeded instances of a template
/// [`FaultPlan`], judges each run, replays recorded logs, and shrinks
/// failing schedules to minimal fault lists.
pub struct ChaosRunner<W: ChaosWorkload> {
    workload: W,
    template: FaultPlan,
}

impl<W: ChaosWorkload> ChaosRunner<W> {
    /// A runner applying `template` (reseeded per run) to `workload`.
    pub fn new(workload: W, template: FaultPlan) -> Self {
        ChaosRunner { workload, template }
    }

    /// The workload under test.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Run the workload fault-free and under `template` seeded with
    /// `seed`, and judge the faulty run.
    pub fn run(&self, seed: u64) -> ChaosReport {
        let reference = self.workload.run(None);
        let plan = self.template.clone().with_seed(seed);
        let faulty = self.workload.run(Some(plan.clone()));
        let failures = self.judge(&plan, &reference, &faulty);
        let flight_path = if failures.is_empty() {
            None
        } else {
            write_flight_artifact(self.workload.name(), seed, &faulty)
        };
        ChaosReport {
            seed,
            reference,
            faulty,
            failures,
            flight_path,
        }
    }

    /// Re-apply a recorded fault log verbatim and judge the result. A
    /// failing seed's log must fail the same way when replayed.
    pub fn replay(&self, log: &FaultLog) -> ChaosReport {
        let reference = self.workload.run(None);
        let plan = FaultPlan::replay(log);
        let faulty = self.workload.run(Some(plan.clone()));
        let failures = self.judge(&plan, &reference, &faulty);
        let flight_path = if failures.is_empty() {
            None
        } else {
            write_flight_artifact(self.workload.name(), 0, &faulty)
        };
        ChaosReport {
            seed: 0,
            reference,
            faulty,
            failures,
            flight_path,
        }
    }

    /// Shrink a failing fault log to a smaller list that still fails, by
    /// delta-debugging over the record list (repeatedly replaying
    /// complements of ever-finer chunks). Returns the shrunk log and the
    /// number of replays spent; `max_runs` caps the search. If `log`
    /// does not actually fail, it is returned unchanged.
    pub fn shrink(&self, log: &FaultLog, max_runs: usize) -> (FaultLog, usize) {
        let reference = self.workload.run(None);
        let mut runs = 0usize;
        let still_fails = |records: &[FaultRecord]| -> bool {
            let sub = FaultLog {
                records: records.to_vec(),
            };
            let plan = FaultPlan::replay(&sub);
            let faulty = self.workload.run(Some(plan.clone()));
            !self.judge(&plan, &reference, &faulty).is_empty()
        };
        let mut current = log.canonical();
        runs += 1;
        if current.is_empty() || !still_fails(&current) {
            return (FaultLog { records: current }, runs);
        }
        let mut n = 2usize;
        while current.len() >= 2 && runs < max_runs {
            let chunk = current.len().div_ceil(n);
            let mut reduced = false;
            let mut at = 0usize;
            while at < current.len() && runs < max_runs {
                // Try the complement of the chunk starting at `at`.
                let end = (at + chunk).min(current.len());
                let mut candidate = current[..at].to_vec();
                candidate.extend_from_slice(&current[end..]);
                runs += 1;
                if !candidate.is_empty() && still_fails(&candidate) {
                    current = candidate;
                    n = n.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
                at = end;
            }
            if !reduced {
                if n >= current.len() {
                    break;
                }
                n = (n * 2).min(current.len());
            }
        }
        (FaultLog { records: current }, runs)
    }

    /// The harness-level invariants, plus the workload's own checks.
    fn judge(&self, plan: &FaultPlan, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
        let mut failures = Vec::new();
        if faulty.leaked != 0 {
            failures.push(format!(
                "{} envelopes leaked inside the injector after quiescence",
                faulty.leaked
            ));
        }
        if faulty.imbalance != 0 {
            failures.push(format!(
                "frame ledger off by {} after quiescence",
                faulty.imbalance
            ));
        }
        // Crash/revive records must correspond to scheduled events (for
        // replays, `FaultPlan::replay` reconstructed the schedule from
        // the log, so this also validates replayed records).
        let scheduled = plan.schedule.len();
        let recorded = faulty
            .log
            .records
            .iter()
            .filter(|r| matches!(r.kind, FaultKind::Crash(_) | FaultKind::Revive(_)))
            .count();
        if recorded > scheduled {
            failures.push(format!(
                "{recorded} crash/revive faults recorded but only {scheduled} were scheduled"
            ));
        }
        // Machines the workload recovered must have actually crashed.
        let crashes = faulty.crashes();
        for m in &faulty.recovered {
            if !crashes.contains(m) {
                failures.push(format!("machine {m} recovered without a recorded crash"));
            }
        }
        failures.extend(faulty.failures.iter().cloned());
        failures.extend(self.workload.check(reference, faulty));
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_net::FaultKind;

    fn rec(src: u16, dst: u16, seq: u64) -> FaultRecord {
        FaultRecord {
            src,
            dst,
            seq,
            kind: FaultKind::Drop,
        }
    }

    /// A workload that "fails" exactly when every needle record is in
    /// the injected set — the shrink target is the needle set itself.
    struct Synthetic {
        needles: Vec<FaultRecord>,
    }

    impl ChaosWorkload for Synthetic {
        fn name(&self) -> &str {
            "synthetic"
        }

        fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
            let injected: Vec<FaultRecord> = faults
                .as_ref()
                .and_then(|p| p.replay_records())
                .map(|r| r.to_vec())
                .unwrap_or_default();
            let bad = self.needles.iter().all(|n| injected.contains(n));
            ChaosRun {
                outcome: if bad { "corrupt" } else { "ok" }.into(),
                log: FaultLog { records: injected },
                leaked: 0,
                imbalance: 0,
                recovered: Vec::new(),
                failures: Vec::new(),
                flight: None,
            }
        }

        fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
            if faulty.outcome != reference.outcome {
                vec!["outcome diverged".into()]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn shrink_reduces_to_the_failing_records() {
        let needles = vec![rec(0, 1, 7), rec(2, 1, 3)];
        let runner = ChaosRunner::new(
            Synthetic {
                needles: needles.clone(),
            },
            FaultPlan::new(0),
        );
        // 40 irrelevant records around the two needles.
        let mut records: Vec<FaultRecord> = (0..40).map(|i| rec(1, 2, 100 + i)).collect();
        records.insert(13, needles[0]);
        records.insert(29, needles[1]);
        let log = FaultLog { records };
        let report = runner.replay(&log);
        assert!(!report.passed(), "the full log must fail");
        let (minimal, runs) = runner.shrink(&log, 200);
        assert!(runs <= 200);
        let mut got = minimal.records.clone();
        let mut want = needles.clone();
        got.sort_by_key(|r| (r.src, r.dst, r.seq));
        want.sort_by_key(|r| (r.src, r.dst, r.seq));
        assert_eq!(got, want, "shrink must isolate exactly the needles");
    }

    #[test]
    fn shrink_returns_passing_logs_unchanged() {
        let runner = ChaosRunner::new(
            Synthetic {
                needles: vec![rec(9, 9, 9)],
            },
            FaultPlan::new(0),
        );
        let log = FaultLog {
            records: (0..10).map(|i| rec(0, 1, i)).collect(),
        };
        assert!(runner.replay(&log).passed());
        let (same, _) = runner.shrink(&log, 50);
        assert_eq!(same.canonical(), log.canonical());
    }

    /// Judging always fails: the real runs execute (so faults are
    /// injected and recorded), but `check` adds a violation
    /// unconditionally.
    struct Sabotaged<W>(W);

    impl<W: ChaosWorkload> ChaosWorkload for Sabotaged<W> {
        fn name(&self) -> &str {
            "sabotaged"
        }
        fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
            self.0.run(faults)
        }
        fn check(&self, reference: &ChaosRun, faulty: &ChaosRun) -> Vec<String> {
            let mut v = self.0.check(reference, faulty);
            v.push("forced failure: exercising the flight-dump path".into());
            v
        }
    }

    /// A failure that produces no artifact is a silent failure: a failing
    /// run of a real workload must leave a schema-valid flight dump that
    /// carries a closed delta window and the injected faults' breadcrumbs.
    #[test]
    fn a_failing_run_leaves_a_valid_flight_dump() {
        let runner = ChaosRunner::new(
            Sabotaged(crate::BspRingMax::small()),
            FaultPlan::new(0).with_delay(0.3, 200, 400),
        );
        let report = runner.run(0xBAD);
        assert!(!report.passed(), "the sabotaged run must fail");
        let path = report.flight_path.expect("a failing run writes a dump");
        assert!(path.ends_with("sabotaged-seed2989.flight.json"), "{path:?}");
        trinity_bench::check_artifact(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in ["\"start_us\"", "fault Delay"] {
            assert!(text.contains(needle), "flight dump lacks {needle:?}");
        }
    }

    #[test]
    fn judge_flags_leaks_imbalance_and_phantom_recovery() {
        struct Leaky;
        impl ChaosWorkload for Leaky {
            fn name(&self) -> &str {
                "leaky"
            }
            fn run(&self, faults: Option<FaultPlan>) -> ChaosRun {
                ChaosRun {
                    outcome: String::new(),
                    log: FaultLog {
                        records: Vec::new(),
                    },
                    leaked: u64::from(faults.is_some()),
                    imbalance: i64::from(faults.is_some()),
                    recovered: if faults.is_some() { vec![3] } else { vec![] },
                    failures: Vec::new(),
                    flight: None,
                }
            }
            fn check(&self, _: &ChaosRun, _: &ChaosRun) -> Vec<String> {
                Vec::new()
            }
        }
        let report = ChaosRunner::new(Leaky, FaultPlan::new(0)).run(1);
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
    }
}
