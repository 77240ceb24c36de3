//! Seeded chaos testing for the Trinity memory cloud.
//!
//! The paper's recovery story (§6) is stated in terms of *mechanisms* —
//! heartbeats, TFS backups, BSP checkpoints, detection-by-access (here
//! only the leader's `PING` probes detect a death; a failed access
//! returns its error to the caller and reports nothing). This
//! crate tests the *guarantees* those mechanisms are supposed to add up
//! to, by running whole workloads (BSP jobs, online traversals, a serving
//! slice) on a fabric whose interconnect misbehaves on a seeded schedule
//! (see `trinity_net::FaultPlan`), and checking invariants afterwards:
//!
//! 1. **Exactness under benign faults** — delays, duplicates, and bounded
//!    reordering must not change any result: BSP states, traversal
//!    neighborhoods, and query answers are byte-equal to a fault-free
//!    run.
//! 2. **Exactness under crashes** — a machine crash followed by the §6
//!    recovery protocol (reload trunks from TFS, resume the job from its
//!    checkpoint) still yields byte-equal results.
//! 3. **Conservation** — after quiescence the frame ledger balances
//!    (`entered + duplicated == consumed + swallowed`), no envelopes leak
//!    inside the injector, and the serving runtime accounts for every
//!    submitted query (`submitted == admitted + shed`,
//!    `admitted == completed + cancelled + expired`).
//! 4. **Replayability** — the same seed injects the same faults
//!    ([`trinity_net::FaultLog`]s are equal), and a failing schedule can
//!    be re-applied verbatim and *shrunk* to a minimal failing fault list
//!    ([`ChaosRunner::shrink`]).
//!
//! ```no_run
//! use trinity_chaos::{BspRingMax, ChaosRunner};
//! use trinity_net::FaultPlan;
//!
//! let runner = ChaosRunner::new(
//!     BspRingMax::small(),
//!     FaultPlan::new(0).with_delay(0.3, 300, 500),
//! );
//! let report = runner.run(0xC0FFEE);
//! assert!(report.passed(), "{:?}", report.failures);
//! // A failing schedule replays and shrinks:
//! let (minimal, _runs) = runner.shrink(&report.faulty.log, 64);
//! ```

mod runner;
mod workloads;

pub use runner::{ChaosReport, ChaosRun, ChaosRunner, ChaosWorkload};
pub use workloads::{
    BspRingMax, CachedRemoteReads, MigrationStorm, MutationStorm, PartitionHeal, ServeSlice,
    TraversalSearch,
};
