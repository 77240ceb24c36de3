//! Traffic accounting.
//!
//! Every envelope leaving an endpoint is counted here. The counters are
//! the measured half of the simulation contract (see DESIGN.md): the
//! algorithms run for real and produce real message volumes; the
//! [`crate::CostModel`] prices them. Machine-local frames (src == dst) are
//! tracked separately and never priced.
//!
//! The counters are the machine scope's own `net.*` counters, so the
//! registry export and [`NetStats::snapshot`] read one ledger.

use std::sync::Arc;

use trinity_obs::{Counter, MachineScope};

/// Monotonic traffic counters for one endpoint.
#[derive(Debug)]
pub struct NetStats {
    remote_envelopes: Arc<Counter>,
    remote_frames: Arc<Counter>,
    remote_bytes: Arc<Counter>,
    local_frames: Arc<Counter>,
    delivered_frames: Arc<Counter>,
    dropped_frames: Arc<Counter>,
    refused_frames: Arc<Counter>,
}

impl Default for NetStats {
    /// Counters in a scope no registry reads.
    fn default() -> Self {
        NetStats::new(&MachineScope::detached())
    }
}

/// A point-in-time copy of [`NetStats`], or a difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Physical transfers to other machines.
    pub remote_envelopes: u64,
    /// Logical messages to other machines.
    pub remote_frames: u64,
    /// Bytes shipped to other machines (headers included).
    pub remote_bytes: u64,
    /// Logical messages delivered machine-locally (free).
    pub local_frames: u64,
    /// Frames terminally handled on the receive side (handler ran, call
    /// completed, or the request was refused with an expired reply).
    pub delivered_frames: u64,
    /// Frames that entered the fabric but were discarded on the receive
    /// side: the destination died in flight, no handler was registered,
    /// or a duplicate response found its call already completed.
    pub dropped_frames: u64,
    /// Frames refused at the *send* site because the destination was
    /// already dead — they never entered the fabric and are excluded
    /// from the delivery ledger.
    pub refused_frames: u64,
}

impl NetStats {
    /// The counters of machine scope `obs`, registered under their
    /// exported `net.*` names.
    pub(crate) fn new(obs: &MachineScope) -> Self {
        NetStats {
            remote_envelopes: obs.counter("net.env.sent"),
            remote_frames: obs.counter("net.frames.sent"),
            remote_bytes: obs.counter("net.bytes.sent"),
            local_frames: obs.counter("net.frames.local"),
            delivered_frames: obs.counter("net.frames.delivered"),
            dropped_frames: obs.counter("net.frames.dropped"),
            refused_frames: obs.counter("net.frames.refused"),
        }
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> StatsDelta {
        StatsDelta {
            remote_envelopes: self.remote_envelopes.get(),
            remote_frames: self.remote_frames.get(),
            remote_bytes: self.remote_bytes.get(),
            local_frames: self.local_frames.get(),
            delivered_frames: self.delivered_frames.get(),
            dropped_frames: self.dropped_frames.get(),
            refused_frames: self.refused_frames.get(),
        }
    }

    pub(crate) fn record_remote(&self, frames: u64, bytes: u64) {
        self.remote_envelopes.inc();
        self.remote_frames.add(frames);
        self.remote_bytes.add(bytes);
    }

    pub(crate) fn record_local(&self, frames: u64) {
        self.local_frames.add(frames);
    }

    pub(crate) fn record_delivered(&self, frames: u64) {
        self.delivered_frames.add(frames);
    }

    pub(crate) fn record_dropped(&self, frames: u64) {
        self.dropped_frames.add(frames);
    }

    pub(crate) fn record_refused(&self, frames: u64) {
        self.refused_frames.add(frames);
    }

    /// Traffic since a previous snapshot — the idiom every measurement
    /// window uses:
    ///
    /// ```
    /// # let stats = trinity_net::NetStats::default();
    /// let before = stats.snapshot();
    /// // ... traffic ...
    /// let window = stats.delta(&before);
    /// ```
    pub fn delta(&self, prev: &StatsDelta) -> StatsDelta {
        self.snapshot() - *prev
    }
}

impl StatsDelta {
    /// Traffic between two snapshots (`later - self`).
    pub fn delta_to(&self, later: &StatsDelta) -> StatsDelta {
        StatsDelta {
            remote_envelopes: later.remote_envelopes - self.remote_envelopes,
            remote_frames: later.remote_frames - self.remote_frames,
            remote_bytes: later.remote_bytes - self.remote_bytes,
            local_frames: later.local_frames - self.local_frames,
            delivered_frames: later.delivered_frames - self.delivered_frames,
            dropped_frames: later.dropped_frames - self.dropped_frames,
            refused_frames: later.refused_frames - self.refused_frames,
        }
    }

    /// Element-wise sum (aggregating endpoints into cluster totals).
    pub fn merge(&mut self, other: &StatsDelta) {
        self.remote_envelopes += other.remote_envelopes;
        self.remote_frames += other.remote_frames;
        self.remote_bytes += other.remote_bytes;
        self.local_frames += other.local_frames;
        self.delivered_frames += other.delivered_frames;
        self.dropped_frames += other.dropped_frames;
        self.refused_frames += other.refused_frames;
    }

    /// Frames that entered the fabric on the send side (remote plus
    /// machine-local; refused frames never entered).
    pub fn entered_frames(&self) -> u64 {
        self.remote_frames + self.local_frames
    }

    /// Frames fully accounted on the receive side (terminally handled or
    /// discarded). In a quiescent fabric every entered frame is consumed:
    /// `entered_frames + duplicated == consumed_frames + swallowed`, where
    /// the chaos layer reports the duplicated/swallowed corrections.
    pub fn consumed_frames(&self) -> u64 {
        self.delivered_frames + self.dropped_frames
    }

    /// Average frames per envelope — the packing factor the transparent
    /// packing optimization is trying to maximize.
    pub fn packing_factor(&self) -> f64 {
        if self.remote_envelopes == 0 {
            0.0
        } else {
            self.remote_frames as f64 / self.remote_envelopes as f64
        }
    }
}

impl std::ops::Add for StatsDelta {
    type Output = StatsDelta;

    fn add(self, rhs: StatsDelta) -> StatsDelta {
        StatsDelta {
            remote_envelopes: self.remote_envelopes + rhs.remote_envelopes,
            remote_frames: self.remote_frames + rhs.remote_frames,
            remote_bytes: self.remote_bytes + rhs.remote_bytes,
            local_frames: self.local_frames + rhs.local_frames,
            delivered_frames: self.delivered_frames + rhs.delivered_frames,
            dropped_frames: self.dropped_frames + rhs.dropped_frames,
            refused_frames: self.refused_frames + rhs.refused_frames,
        }
    }
}

impl std::ops::AddAssign for StatsDelta {
    fn add_assign(&mut self, rhs: StatsDelta) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for StatsDelta {
    type Output = StatsDelta;

    /// Saturating element-wise difference: a later snapshot minus an
    /// earlier one. Saturation (rather than panic) keeps windows taken
    /// across concurrent recording safe.
    fn sub(self, rhs: StatsDelta) -> StatsDelta {
        StatsDelta {
            remote_envelopes: self.remote_envelopes.saturating_sub(rhs.remote_envelopes),
            remote_frames: self.remote_frames.saturating_sub(rhs.remote_frames),
            remote_bytes: self.remote_bytes.saturating_sub(rhs.remote_bytes),
            local_frames: self.local_frames.saturating_sub(rhs.local_frames),
            delivered_frames: self.delivered_frames.saturating_sub(rhs.delivered_frames),
            dropped_frames: self.dropped_frames.saturating_sub(rhs.dropped_frames),
            refused_frames: self.refused_frames.saturating_sub(rhs.refused_frames),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = NetStats::default();
        s.record_remote(10, 1000);
        s.record_local(5);
        let a = s.snapshot();
        s.record_remote(10, 500);
        s.record_dropped(2);
        let b = s.snapshot();
        let d = a.delta_to(&b);
        assert_eq!(d.remote_envelopes, 1);
        assert_eq!(d.remote_frames, 10);
        assert_eq!(d.remote_bytes, 500);
        assert_eq!(d.local_frames, 0);
        assert_eq!(d.dropped_frames, 2);
        assert_eq!(d.packing_factor(), 10.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StatsDelta {
            remote_envelopes: 1,
            remote_bytes: 10,
            ..Default::default()
        };
        a.merge(&StatsDelta {
            remote_envelopes: 2,
            remote_bytes: 30,
            ..Default::default()
        });
        assert_eq!(a.remote_envelopes, 3);
        assert_eq!(a.remote_bytes, 40);
    }

    #[test]
    fn delta_helper_and_operators_agree() {
        let s = NetStats::default();
        s.record_remote(4, 400);
        let before = s.snapshot();
        s.record_remote(6, 600);
        s.record_local(3);
        let d = s.delta(&before);
        assert_eq!(d, before.delta_to(&s.snapshot()));
        assert_eq!(d.remote_envelopes, 1);
        assert_eq!(d.remote_frames, 6);
        assert_eq!(d.remote_bytes, 600);
        assert_eq!(d.local_frames, 3);
        assert_eq!(before + d, s.snapshot());
        // Sub saturates instead of panicking on out-of-order windows.
        let weird = before - s.snapshot();
        assert_eq!(weird, StatsDelta::default());
    }
}
