//! The Trinity query serving runtime (proxy tier).
//!
//! The paper positions Trinity as an *online* query engine — Table 1
//! reports people-search throughput against user-facing latency budgets —
//! but the storage and computation layers alone only run one query at a
//! time. This crate is the layer that turns them into a service, the way
//! production in-memory graph stores front their storage (cf. A1 serving
//! Bing traffic under millisecond SLOs). It runs on the proxy tier
//! (paper §2, Figure 1) and owns four mechanisms:
//!
//! * **Admission control** ([`ServeRuntime`], [`BoundedQueue`]):
//!   per-proxy bounded queues with [`Priority`] classes. A full queue
//!   sheds with a typed [`ServeError::Overloaded`] instead of buffering —
//!   queue depth is the enemy of p99.
//! * **Deadline propagation**: each admitted query's budget is installed
//!   on its worker thread, stamped into every fabric envelope next to the
//!   trace id (`trinity-net`), tightened by the modeled wire time of the
//!   cost model, and honored by slave-side `EXPLORE`/`EXPAND`/BSP
//!   handlers, which return partial results instead of completing doomed
//!   work.
//! * **Cooperative cancellation** ([`trinity_net::CancelToken`]): checked
//!   before a query ships, through [`trinity_core::ExploreOptions`]; once
//!   shipped, the query is bounded by its deadline.
//! * **Request coalescing** ([`Coalescer`]): identical in-flight queries
//!   against the same start node's owner merge into one upstream call.

mod coalesce;
mod error;
mod queue;
mod runtime;

pub use coalesce::Coalescer;
pub use error::ServeError;
pub use queue::{BoundedQueue, Priority, CLASSES};
pub use runtime::{QueryCtx, ServeConfig, ServeCounts, ServeRuntime, Ticket};

pub use trinity_core::online::CallHook;

/// Result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;
