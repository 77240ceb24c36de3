//! Unified observability for the Trinity reproduction.
//!
//! The paper's evaluation is built entirely on measurement: message
//! volumes for the packing and hub optimizations (§4.2, §5.4), memory
//! utilization of the circular trunk manager (§6.1), per-superstep compute
//! time for the BSP figures (Fig. 13/14). Before this crate each subsystem
//! measured itself with an ad-hoc counter struct; `trinity-obs` is the
//! shared substrate they all publish into.
//!
//! Three pieces:
//!
//! * **Metrics** — named [`Counter`]s, [`Gauge`]s, and log₂-bucketed
//!   [`Histogram`]s, scoped per simulated machine in a [`Registry`]. The
//!   registry has the same snapshot/delta semantics as
//!   `trinity_net::NetStats`: counters are monotonic, a
//!   [`RegistrySnapshot`] is a point-in-time copy, and
//!   [`RegistrySnapshot::delta_to`] yields the traffic between two
//!   snapshots.
//! * **Tracing** — a 64-bit trace id allocated at query/job entry
//!   ([`next_trace_id`]), carried across machine hops in every
//!   `trinity_net` envelope header, and recorded as [`SpanEvent`]s into a
//!   per-machine bounded [ring buffer](SpanRing) so one multi-hop query or
//!   BSP superstep can be reconstructed across the whole simulated
//!   cluster.
//! * **Export** — one JSON document per registry snapshot
//!   ([`snapshot_json`]), hand-rolled on `std` because the build
//!   environment is offline.
//!
//! Three analysis layers sit on top of that substrate:
//!
//! * **Per-trunk load accounting** ([`LoadMap`]) — every cell read/write,
//!   MULTI_GET batch, BSP delivery, and traversal hop is attributed to the
//!   owning trunk as EWMA-decayed windowed rates; trunk migration and
//!   tiering rank its [`LoadMap::snapshot`] by [`TrunkLoad::score`].
//! * **Flight recorder** ([`FlightRecorder`]) — a bounded ring of
//!   windowed [`RegistrySnapshot`] deltas plus an event log, dumped as one
//!   postmortem JSON artifact when a chaos invariant fails or the serving
//!   tier sheds a storm.
//! * **Trace timelines** ([`Timeline`]) — spans for one trace id stitched
//!   across machines (all rings share their registry's epoch) with
//!   critical-path extraction and Chrome trace-event export.
//!
//! Everything is cheap when idle: relaxed atomics on the hot paths, metric
//! handles are `Arc`s cached by the instrumented layer (no name lookup per
//! event), span recording is skipped entirely when no trace is active, and
//! rings are fixed-size and overwrite-oldest.

mod export;
mod hist;
mod load;
mod metric;
mod recorder;
mod registry;
mod timeline;
mod trace;

pub use export::{snapshot_json, span_json, validate_json, Json};
pub use hist::{HistSnapshot, Histogram};
pub use load::{LoadMap, TrunkLoad, MIN_ROLL_WINDOW_US};
pub use metric::{Counter, Gauge};
pub use recorder::FlightRecorder;
pub use registry::{MachineScope, MachineSnapshot, Registry, RegistrySnapshot};
pub use timeline::Timeline;
pub use trace::{
    current_trace, next_trace_id, SpanEvent, SpanRing, TraceGuard, NO_TRACE, SPAN_RING_CAPACITY,
};
