//! The per-proxy serving runtime: admission, execution, shedding.
//!
//! One [`ServeRuntime`] runs on each Trinity proxy. Clients submit
//! queries as closures; the runtime admits them into a bounded
//! priority-classed queue (or sheds them with
//! [`ServeError::Overloaded`]), and a fixed worker pool executes admitted
//! queries with the query's trace id and deadline installed on the
//! worker thread — so every fabric envelope the query touches carries
//! both, cluster-wide.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use trinity_net::{deadline_now_us, CancelToken, DeadlineGuard, Endpoint, NO_DEADLINE};
use trinity_obs::{next_trace_id, Counter, Gauge, Histogram, MachineScope, Registry, TraceGuard};

use crate::error::ServeError;
use crate::queue::{BoundedQueue, Priority};

/// Serving-runtime shape.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing admitted queries.
    pub workers: usize,
    /// Admission-queue capacity per priority class
    /// (`[interactive, normal, mutation, batch]`). Small on purpose: a
    /// deep queue is deferred shedding with worse latency.
    pub queue_capacity: [usize; 4],
    /// Deadline stamped on queries submitted without one. `None` admits
    /// unbounded queries.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: [32, 64, 96, 128],
            default_deadline: None,
        }
    }
}

/// What an executing query sees: its identity and its controls.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// Trace id stamped on every envelope this query sends.
    pub trace: u64,
    /// Absolute deadline (µs), [`NO_DEADLINE`] when unbounded. Also
    /// installed as the worker thread's ambient deadline.
    pub deadline: u64,
    /// This query's cancel token; long jobs should poll it.
    pub cancel: CancelToken,
}

struct Job {
    enqueued_us: u64,
    deadline: u64,
    trace: u64,
    cancel: CancelToken,
    run: Box<dyn FnOnce(&QueryCtx) + Send>,
    fail: Box<dyn FnOnce(ServeError) + Send>,
}

/// Completion handle for a submitted query.
pub struct Ticket<R> {
    rx: Receiver<Result<R, ServeError>>,
    cancel: CancelToken,
    trace: u64,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("trace", &self.trace)
            .finish()
    }
}

impl<R> Ticket<R> {
    /// Block until the query completes, is shed in-queue, expires, or is
    /// cancelled.
    pub fn wait(self) -> Result<R, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Request cooperative cancellation of this query.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The query's trace id (for span-ring reconstruction).
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

/// Cached handles for the runtime's `serve.*` metrics.
struct ServeMetrics {
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: [Arc<Counter>; 4],
    completed: Arc<Counter>,
    cancelled: Arc<Counter>,
    expired_in_queue: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    latency_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(obs: &MachineScope) -> Self {
        ServeMetrics {
            submitted: obs.counter("serve.submitted"),
            admitted: obs.counter("serve.admitted"),
            shed: [
                obs.counter("serve.shed.interactive"),
                obs.counter("serve.shed.normal"),
                obs.counter("serve.shed.mutation"),
                obs.counter("serve.shed.batch"),
            ],
            completed: obs.counter("serve.completed"),
            cancelled: obs.counter("serve.cancelled"),
            expired_in_queue: obs.counter("serve.expired_in_queue"),
            queue_depth: obs.gauge("serve.queue.depth"),
            queue_wait_us: obs.histogram("serve.queue_wait.us"),
            latency_us: obs.histogram("serve.latency.us"),
        }
    }
}

/// Snapshot of the runtime's `serve.*` counters (see
/// [`ServeRuntime::counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounts {
    /// Queries offered to `submit`.
    pub submitted: u64,
    /// Queries that passed admission.
    pub admitted: u64,
    /// Queries shed at admission, per class
    /// (interactive, normal, mutation, batch).
    pub shed: [u64; 4],
    /// Admitted queries that ran to completion.
    pub completed: u64,
    /// Admitted queries cancelled before running.
    pub cancelled: u64,
    /// Admitted queries whose deadline expired while queued.
    pub expired_in_queue: u64,
}

impl ServeCounts {
    /// Total shed across all classes.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Admitted queries fully accounted for (done, cancelled, or expired).
    pub fn drained(&self) -> u64 {
        self.completed + self.cancelled + self.expired_in_queue
    }
}

/// Armed flight-recorder hookup: when a shed storm is detected the
/// runtime dumps the registry's recent windows to `path` (see
/// [`ServeRuntime::arm_flight_dump`]).
struct FlightTrigger {
    registry: Arc<Registry>,
    path: PathBuf,
    /// Consecutive sheds (with no admit in between) that count as a storm.
    threshold: u32,
}

/// The serving runtime attached to one proxy endpoint.
pub struct ServeRuntime {
    queue: Arc<BoundedQueue<Job>>,
    cfg: ServeConfig,
    obs: MachineScope,
    metrics: Arc<ServeMetrics>,
    workers: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
    flight: parking_lot::Mutex<Option<FlightTrigger>>,
    /// Sheds since the last successful admission; a run of
    /// `FlightTrigger::threshold` of these is a storm.
    consecutive_shed: AtomicU32,
    /// One-shot latch so a sustained storm produces one dump, not one per
    /// shed.
    flight_dumped: AtomicBool,
}

impl std::fmt::Debug for ServeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRuntime")
            .field("machine", &self.obs.machine())
            .field("workers", &self.cfg.workers)
            .finish()
    }
}

impl ServeRuntime {
    /// Start the runtime on `endpoint` (typically a proxy). Metrics are
    /// published under the endpoint's machine scope as `serve.*`.
    pub fn start(endpoint: &Arc<Endpoint>, cfg: ServeConfig) -> Arc<Self> {
        let obs = endpoint.obs().clone();
        let metrics = Arc::new(ServeMetrics::new(&obs));
        let rt = Arc::new(ServeRuntime {
            queue: Arc::new(BoundedQueue::new(cfg.queue_capacity)),
            cfg,
            obs,
            metrics,
            workers: parking_lot::Mutex::new(Vec::new()),
            flight: parking_lot::Mutex::new(None),
            consecutive_shed: AtomicU32::new(0),
            flight_dumped: AtomicBool::new(false),
        });
        let mut workers = rt.workers.lock();
        for i in 0..rt.cfg.workers {
            let queue = Arc::clone(&rt.queue);
            let metrics = Arc::clone(&rt.metrics);
            let obs = rt.obs.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("trinity-serve-{i}"))
                    .spawn(move || worker_loop(queue, metrics, obs))
                    .expect("spawn serve worker"),
            );
        }
        drop(workers);
        rt
    }

    /// Arm the shed-storm flight dump: when `threshold` consecutive
    /// submissions are shed with no admission in between, the runtime
    /// writes `registry`'s flight-recorder dump (last windows + events +
    /// recent spans) to `path` and latches — one dump per runtime, so a
    /// sustained storm yields one postmortem artifact, not thousands.
    pub fn arm_flight_dump(
        &self,
        registry: Arc<Registry>,
        path: impl Into<PathBuf>,
        threshold: u32,
    ) {
        *self.flight.lock() = Some(FlightTrigger {
            registry,
            path: path.into(),
            threshold: threshold.max(1),
        });
    }

    /// Whether the shed-storm trigger has fired and written its dump.
    pub fn flight_dump_fired(&self) -> bool {
        self.flight_dumped.load(Ordering::Relaxed)
    }

    fn note_shed(&self, class: Priority, depth: usize) {
        let run = self.consecutive_shed.fetch_add(1, Ordering::Relaxed) + 1;
        let flight = self.flight.lock();
        let Some(trigger) = flight.as_ref() else {
            return;
        };
        if run < trigger.threshold || self.flight_dumped.swap(true, Ordering::Relaxed) {
            return;
        }
        trigger.registry.flight_event(format!(
            "serve shed storm on machine {}: {run} consecutive sheds (class {class:?}, depth {depth})",
            self.obs.machine()
        ));
        trigger.registry.flight_tick();
        if let Err(e) = trigger
            .registry
            .flight_dump_to(&trigger.path, "serve shed storm")
        {
            eprintln!(
                "trinity-serve: flight dump to {} failed: {e}",
                trigger.path.display()
            );
        }
    }

    /// Queue capacity for `class`.
    pub fn capacity(&self, class: Priority) -> usize {
        self.queue.capacity(class)
    }

    /// Current depth of `class`'s admission queue.
    pub fn depth(&self, class: Priority) -> usize {
        self.queue.depth(class)
    }

    /// Submit a query. Admission is decided *now*: a full class queue
    /// sheds the query immediately with [`ServeError::Overloaded`] — the
    /// submitter never blocks on a saturated proxy.
    ///
    /// The job runs on a runtime worker with the query's trace id and
    /// deadline installed, and receives a [`QueryCtx`] carrying its
    /// cancel token.
    pub fn submit<R, F>(
        &self,
        class: Priority,
        deadline: Option<Duration>,
        job: F,
    ) -> Result<Ticket<R>, ServeError>
    where
        R: Send + 'static,
        F: FnOnce(&QueryCtx) -> R + Send + 'static,
    {
        self.metrics.submitted.inc();
        let now = deadline_now_us();
        let deadline = match deadline.or(self.cfg.default_deadline) {
            Some(d) => now.saturating_add(d.as_micros() as u64),
            None => NO_DEADLINE,
        };
        let trace = next_trace_id();
        let cancel = CancelToken::new();
        let (tx, rx): (Sender<Result<R, ServeError>>, _) = bounded(1);
        let tx_fail = tx.clone();
        let entry = Job {
            enqueued_us: now,
            deadline,
            trace,
            cancel: cancel.clone(),
            run: Box::new(move |ctx| {
                let _ = tx.send(Ok(job(ctx)));
            }),
            fail: Box::new(move |e| {
                let _ = tx_fail.send(Err(e));
            }),
        };
        match self.queue.try_push(class, entry) {
            Ok(_) => {
                self.metrics.admitted.inc();
                self.metrics.queue_depth.add(1);
                self.consecutive_shed.store(0, Ordering::Relaxed);
                Ok(Ticket { rx, cancel, trace })
            }
            Err((_job, depth)) => {
                if self.queue.is_closed() {
                    return Err(ServeError::Closed);
                }
                self.metrics.shed[class.idx()].inc();
                self.note_shed(class, depth);
                Err(ServeError::Overloaded {
                    class,
                    depth,
                    capacity: self.queue.capacity(class),
                })
            }
        }
    }

    /// Submit a streaming mutation batch under the [`Priority::Mutation`]
    /// class: ahead of analytical batch scans (freshness lag is
    /// user-visible) but never preempting interactive reads. Sheds with
    /// [`ServeError::Overloaded`] exactly like [`submit`](Self::submit) —
    /// back-pressure reaches the writer instead of queueing into a
    /// freshness disaster.
    pub fn submit_mutation<R, F>(
        &self,
        deadline: Option<Duration>,
        job: F,
    ) -> Result<Ticket<R>, ServeError>
    where
        R: Send + 'static,
        F: FnOnce(&QueryCtx) -> R + Send + 'static,
    {
        self.submit(Priority::Mutation, deadline, job)
    }

    /// A consistent-enough snapshot of the runtime's admission and
    /// completion counters. The chaos harness checks conservation on
    /// these: after a drain, `submitted == admitted + shed_total()` and
    /// `admitted == completed + cancelled + expired_in_queue`.
    pub fn counts(&self) -> ServeCounts {
        ServeCounts {
            submitted: self.metrics.submitted.get(),
            admitted: self.metrics.admitted.get(),
            shed: [
                self.metrics.shed[0].get(),
                self.metrics.shed[1].get(),
                self.metrics.shed[2].get(),
                self.metrics.shed[3].get(),
            ],
            completed: self.metrics.completed.get(),
            cancelled: self.metrics.cancelled.get(),
            expired_in_queue: self.metrics.expired_in_queue.get(),
        }
    }

    /// Shed rate so far: fraction of submitted queries refused at
    /// admission.
    pub fn shed_rate(&self) -> f64 {
        let submitted = self.metrics.submitted.get();
        if submitted == 0 {
            return 0.0;
        }
        let shed: u64 = self.metrics.shed.iter().map(|c| c.get()).sum();
        shed as f64 / submitted as f64
    }

    /// Stop accepting queries, drain the queue, and join the workers.
    pub fn shutdown(&self) {
        self.queue.close();
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(queue: Arc<BoundedQueue<Job>>, metrics: Arc<ServeMetrics>, obs: MachineScope) {
    while let Some(job) = queue.pop() {
        metrics.queue_depth.sub(1);
        let picked_us = deadline_now_us();
        metrics
            .queue_wait_us
            .record(picked_us.saturating_sub(job.enqueued_us));
        // A query that died waiting is failed, not run: the queue never
        // spends worker time on work nobody is waiting for.
        if job.cancel.is_cancelled() {
            metrics.cancelled.inc();
            (job.fail)(ServeError::Cancelled);
            continue;
        }
        if job.deadline != NO_DEADLINE && picked_us >= job.deadline {
            metrics.expired_in_queue.inc();
            (job.fail)(ServeError::DeadlineExceeded);
            continue;
        }
        let ctx = QueryCtx {
            trace: job.trace,
            deadline: job.deadline,
            cancel: job.cancel,
        };
        {
            let _tg = TraceGuard::enter(job.trace);
            let _dg = DeadlineGuard::enter(job.deadline);
            let start_us = obs.now_us();
            (job.run)(&ctx);
            obs.span("serve.query", 0, 0, 1, start_us);
        }
        metrics.completed.inc();
        metrics
            .latency_us
            .record(deadline_now_us().saturating_sub(job.enqueued_us));
    }
}
