//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer
//! (name, start, end, the span that caused it, the request it belongs
//! to). Spans stay in memory until the run ends; the untraced run never
//! touches this module, so end-to-end figures carry no tracing cost.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use trinity_obs::Json;

/// Most spans written to the trace file; summaries always cover all.
const MAX_SPANS_WRITTEN: usize = 50_000;

/// One recorded interval. `parent == 0` marks a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Request identifier shared by every span of one operation.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ (duration − the part of the interval covered by child spans).
    pub self_ns: u64,
}

/// Thread-safe span sink shared by the load-generating threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds of `t` on this tracer's clock.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent's end time is known.
    pub fn reserve(&self) -> u32 {
        // Relaxed: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved id.
    pub fn record(
        &self,
        id: u32,
        parent: u32,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(span);
    }

    /// Record a finished span with a fresh id; returns the id.
    pub fn span(
        &self,
        parent: u32,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record(id, parent, req, name, start, end);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }
}

/// Per-name count, total and self time. A span's self time is its
/// duration minus the part of its interval its children cover; children
/// that overlap each other (parallel fan-out) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut frontier) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(frontier), e.min(hi));
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    covered
}

/// The trace document: per-name summaries over every span, plus the
/// first [`MAX_SPANS_WRITTEN`] spans themselves.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let summary = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::obj([
                    ("count", Json::U64(t.count)),
                    ("total_us", Json::F64(t.total_ns as f64 / 1e3)),
                    ("self_us", Json::F64(t.self_ns as f64 / 1e3)),
                ]),
            )
        })
        .collect();
    let written: Vec<Json> = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .map(|s| {
            Json::obj([
                ("id", Json::U64(s.id.into())),
                ("parent", Json::U64(s.parent.into())),
                ("req", Json::U64(s.req)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::U64(seed)),
        ("spans_total", Json::U64(spans.len() as u64)),
        ("spans_written", Json::U64(written.len() as u64)),
        ("by_name", Json::Obj(summary)),
        ("spans", Json::Arr(written)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_where_they_overlap() {
        // request 0..100 with a queue wait 0..20 and two fan-out calls
        // 30..70 and 50..90 that overlap on 50..70: covered = 20 + 60.
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "queue", 0, 20),
            span(3, 1, "call", 30, 70),
            span(4, 1, "call", 50, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["request"].self_ns, 20);
        assert_eq!(t["queue"].self_ns, 20);
        assert_eq!(t["call"].count, 2);
        assert_eq!(t["call"].total_ns, 80);
        assert_eq!(t["call"].self_ns, 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent (background work) only counts
        // for the part inside the parent's interval.
        let spans = [span(1, 0, "op", 10, 50), span(2, 1, "bg", 40, 500)];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 30);
    }

    #[test]
    fn tracer_links_children_to_reserved_parents() {
        let tr = Tracer::new();
        let t0 = Instant::now();
        let parent = tr.reserve();
        let child = tr.span(parent, 9, "child", t0, t0);
        tr.record(parent, 0, 9, "parent", t0, Instant::now());
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.req == 9));
    }
}
