//! Windowed flight recorder: a bounded postmortem buffer per registry.
//!
//! Lifetime counters answer "how much, ever"; a postmortem needs "what
//! changed in the last few seconds before it went wrong". The
//! [`FlightRecorder`] keeps a ring of the last [`FLIGHT_WINDOWS`]
//! *windows* — each a [`RegistrySnapshot`] delta between two consecutive
//! [`FlightRecorder::tick`]s — plus a bounded log of freeform events
//! (chaos fault firings, shed storms, invariant breadcrumbs).
//!
//! Ticks are pull-based: there is no background thread. Natural tick
//! points are chaos-run captures, bench section boundaries, and serve-side
//! storm detection; anything that ticks at least once per interesting
//! period gets windowed deltas for free.
//!
//! [`FlightRecorder::dump_json`] folds the windows, the event log, and the
//! caller-supplied recent spans into one JSON artifact. The chaos runner
//! writes it when an invariant fails; the serve runtime writes it when a
//! shed storm trips. Either way the artifact carries the *faulting window*
//! rather than only lifetime totals.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::export::{snapshot_json, span_json, Json};
use crate::registry::RegistrySnapshot;
use crate::trace::SpanEvent;

/// Windows retained; older windows fall off the ring.
const FLIGHT_WINDOWS: usize = 16;

/// Freeform events retained.
const FLIGHT_EVENTS: usize = 256;

/// Recent spans included in a dump, newest last.
const FLIGHT_SPANS: usize = 512;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// One recorded window: activity between two consecutive ticks.
#[derive(Debug, Clone)]
struct FlightWindow {
    /// Monotonic window number (first window is 1).
    seq: u64,
    /// Window bounds, µs since the owning registry's epoch.
    start_us: u64,
    end_us: u64,
    /// Metric deltas over the window.
    delta: RegistrySnapshot,
}

#[derive(Debug, Default)]
struct FlightState {
    seq: u64,
    last_us: u64,
    last: Option<RegistrySnapshot>,
    windows: VecDeque<FlightWindow>,
    events: VecDeque<(u64, String)>,
}

/// Bounded ring of windowed metric deltas plus an event log.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    inner: Mutex<FlightState>,
}

impl FlightRecorder {
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Close the current window at `now_us` with registry state `snap`.
    /// The first tick only establishes the baseline; each later tick
    /// appends one `FlightWindow` holding the delta since the previous.
    pub fn tick(&self, now_us: u64, snap: RegistrySnapshot) {
        let mut st = lock(&self.inner);
        if let Some(prev) = st.last.take() {
            st.seq += 1;
            let w = FlightWindow {
                seq: st.seq,
                start_us: st.last_us,
                end_us: now_us,
                delta: prev.delta_to(&snap),
            };
            st.windows.push_back(w);
            while st.windows.len() > FLIGHT_WINDOWS {
                st.windows.pop_front();
            }
        }
        st.last = Some(snap);
        st.last_us = now_us;
    }

    /// Append a freeform event line (fault firing, shed, breadcrumb).
    pub fn event(&self, now_us: u64, line: impl Into<String>) {
        let mut st = lock(&self.inner);
        st.events.push_back((now_us, line.into()));
        while st.events.len() > FLIGHT_EVENTS {
            st.events.pop_front();
        }
    }

    /// Serialize the buffered windows, events, and `spans` (the caller
    /// passes the registry's recent spans; only the newest
    /// `FLIGHT_SPANS` are kept) into one postmortem document.
    pub fn dump_json(&self, reason: &str, now_us: u64, spans: &[SpanEvent]) -> Json {
        let st = lock(&self.inner);
        let windows: Vec<Json> = st
            .windows
            .iter()
            .map(|w| {
                Json::obj([
                    ("seq", Json::U64(w.seq)),
                    ("start_us", Json::U64(w.start_us)),
                    ("end_us", Json::U64(w.end_us)),
                    ("delta", snapshot_json(&w.delta)),
                ])
            })
            .collect();
        let events: Vec<Json> = st
            .events
            .iter()
            .map(|(us, line)| {
                Json::obj([("us", Json::U64(*us)), ("event", Json::Str(line.clone()))])
            })
            .collect();
        let recent = &spans[spans.len().saturating_sub(FLIGHT_SPANS)..];
        Json::obj([
            ("kind", Json::from("trinity.flight")),
            ("reason", Json::from(reason)),
            ("dumped_at_us", Json::U64(now_us)),
            ("windows", Json::Arr(windows)),
            ("events", Json::Arr(events)),
            ("spans", Json::Arr(recent.iter().map(span_json).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;
    use crate::registry::Registry;

    #[test]
    fn windows_hold_deltas_not_totals() {
        let reg = Registry::new();
        let rec = FlightRecorder::new();
        reg.scope(0).counter("x").add(10);
        rec.tick(1_000, reg.snapshot()); // baseline only
        reg.scope(0).counter("x").add(5);
        rec.tick(2_000, reg.snapshot());
        let ws = lock(&rec.inner).windows.clone();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].seq, 1);
        assert_eq!((ws[0].start_us, ws[0].end_us), (1_000, 2_000));
        assert_eq!(ws[0].delta.machines[&0].counters["x"], 5);
    }

    #[test]
    fn ring_caps_windows_and_events() {
        let reg = Registry::new();
        let rec = FlightRecorder::new();
        for i in 0..(FLIGHT_WINDOWS as u64 + 5) {
            rec.tick(i * 1_000, reg.snapshot());
        }
        let ws = lock(&rec.inner).windows.clone();
        assert_eq!(ws.len(), FLIGHT_WINDOWS);
        assert_eq!(ws[0].seq, 5, "oldest windows fall off");
        for i in 0..(FLIGHT_EVENTS + 9) {
            rec.event(i as u64, format!("e{i}"));
        }
        assert_eq!(lock(&rec.inner).events.len(), FLIGHT_EVENTS);
    }

    #[test]
    fn dump_is_valid_json_with_faulting_window() {
        let reg = Registry::new();
        let rec = FlightRecorder::new();
        rec.tick(0, reg.snapshot());
        reg.scope(2).counter("net.env.dropped").add(3);
        rec.tick(1_000, reg.snapshot());
        rec.event(900, "drop 0 1 17");
        let doc = rec
            .dump_json("invariant: frames leaked", 1_100, &[])
            .to_string();
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"reason\":\"invariant: frames leaked\""));
        assert!(doc.contains("\"net.env.dropped\":3"));
        assert!(doc.contains("drop 0 1 17"));
    }
}
