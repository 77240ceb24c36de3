//! Cross-machine trace timelines.
//!
//! A trace id follows one logical query across every machine it touches
//! (see [`crate::trace`]); each machine buffers its own [`SpanEvent`]s.
//! This module stitches those spans back into one causal [`Timeline`]:
//!
//! * spans are ordered by start time on a **shared clock** — every span
//!   ring created by one [`crate::Registry`] shares the registry's epoch,
//!   so cross-machine timestamps are directly comparable;
//! * [`Timeline::critical_us`] is the wall time covered by a greedy
//!   longest chain of overlapping spans — the sequence of work that
//!   actually bounded the query's latency (gaps between disjoint spans are
//!   not counted);
//! * [`Timeline::chrome_trace_json`] exports the Chrome trace-event
//!   format (`chrome://tracing`, Perfetto) with one track per machine.

use crate::export::Json;
use crate::registry::Registry;
use crate::trace::SpanEvent;

/// The spans of one trace, stitched across machines and sorted by start.
#[derive(Debug, Clone)]
pub struct Timeline {
    pub trace: u64,
    pub spans: Vec<SpanEvent>,
}

impl Timeline {
    /// Build from an arbitrary span soup: keeps `trace`'s spans, sorted by
    /// `(start_us, end_us, machine)`.
    pub fn build(trace: u64, spans: impl IntoIterator<Item = SpanEvent>) -> Timeline {
        let mut spans: Vec<SpanEvent> = spans.into_iter().filter(|s| s.trace == trace).collect();
        spans.sort_by_key(|s| (s.start_us, s.end_us, s.machine));
        Timeline { trace, spans }
    }

    /// Build from everything currently buffered in `reg`'s span rings.
    pub fn from_registry(reg: &Registry, trace: u64) -> Timeline {
        Timeline::build(trace, reg.spans_for_trace(trace))
    }

    /// Greedy critical path: starting from the earliest span, repeatedly
    /// take — among spans overlapping the chain's current end — the one
    /// reaching furthest; when none overlaps, jump across the gap to the
    /// next span to start. The result is a minimal chain of spans whose
    /// union spans the whole timeline.
    fn critical_path(&self) -> Vec<SpanEvent> {
        let mut chain = Vec::new();
        let Some(first) = self.spans.first() else {
            return chain;
        };
        // Spans are sorted by start; scan once, keeping the candidate that
        // extends coverage the furthest at each step.
        let mut cur = *first;
        let mut cur_end = first.end_us;
        for s in self.spans.iter().skip(1) {
            if s.start_us <= cur_end {
                // Overlaps (or abuts) the current chain end.
                if s.end_us > cur_end {
                    // Prefer to extend the current span's reach by chaining
                    // through this one; commit the previous link first.
                    chain.push(cur);
                    cur = *s;
                    cur_end = s.end_us;
                }
            } else {
                // Gap: nothing bridged it, start a new segment.
                chain.push(cur);
                cur = *s;
                cur_end = cur_end.max(s.end_us);
            }
        }
        chain.push(cur);
        chain
    }

    /// Wall time covered by the critical path, µs. Gaps where no span ran
    /// are excluded, so for a fully-instrumented query this approximates
    /// the measured wall time.
    pub fn critical_us(&self) -> u64 {
        let mut covered = 0u64;
        let mut cur_end = 0u64;
        let mut started = false;
        for s in self.critical_path() {
            if !started || s.start_us >= cur_end {
                covered += s.end_us.saturating_sub(s.start_us);
                cur_end = s.end_us;
                started = true;
            } else if s.end_us > cur_end {
                covered += s.end_us - cur_end;
                cur_end = s.end_us;
            }
        }
        covered
    }

    /// Chrome trace-event JSON (`{"traceEvents": [...]}`, "X" complete
    /// events). `pid`/`tid` carry the machine id so viewers draw one track
    /// per machine; span metadata rides in `args`.
    pub fn chrome_trace_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.label)),
                    ("cat", Json::from("trinity")),
                    ("ph", Json::from("X")),
                    ("ts", Json::U64(s.start_us)),
                    ("dur", Json::U64(s.end_us.saturating_sub(s.start_us))),
                    ("pid", Json::U64(s.machine as u64)),
                    ("tid", Json::U64(s.machine as u64)),
                    (
                        "args",
                        Json::obj([
                            ("trace", Json::U64(s.trace)),
                            ("proto", Json::U64(s.proto as u64)),
                            ("bytes", Json::U64(s.bytes)),
                            ("frames", Json::U64(s.frames as u64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;

    fn span(machine: u16, label: &'static str, start_us: u64, end_us: u64) -> SpanEvent {
        SpanEvent {
            trace: 9,
            machine,
            label,
            proto: 0,
            bytes: 10,
            frames: 1,
            start_us,
            end_us,
        }
    }

    #[test]
    fn build_filters_and_sorts() {
        let mut other = span(0, "noise", 0, 1);
        other.trace = 8;
        let tl = Timeline::build(9, vec![span(1, "b", 50, 80), other, span(0, "a", 10, 60)]);
        assert_eq!(tl.spans.len(), 2);
        assert_eq!(tl.spans[0].label, "a");
        assert_eq!(tl.spans[1].label, "b");
    }

    #[test]
    fn critical_path_chains_overlaps_and_skips_gaps() {
        // a[0,100) overlaps b[60,200); gap; c[300,350).
        let tl = Timeline::build(
            9,
            vec![
                span(0, "a", 0, 100),
                span(1, "b", 60, 200),
                span(0, "inner", 70, 90), // dominated: never on the path
                span(2, "c", 300, 350),
            ],
        );
        let path: Vec<&str> = tl.critical_path().iter().map(|s| s.label).collect();
        assert_eq!(path, vec!["a", "b", "c"]);
        // Covered: [0,200) ∪ [300,350) = 250; gap of 100 excluded.
        assert_eq!(tl.critical_us(), 250);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let tl = Timeline::build(9, vec![span(0, "a", 0, 100), span(1, "b", 60, 200)]);
        let doc = tl.chrome_trace_json().to_string();
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":140"));
    }
}
