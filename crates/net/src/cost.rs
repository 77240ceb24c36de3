//! The network cost model.
//!
//! The paper's cluster has dual adapters — a 40 Gbps Mellanox IPoIB link
//! and a 1 Gbps HP Ethernet link (§7). This reproduction runs machines in
//! one process, so the fabric *measures* exactly what would cross the wire
//! (envelopes and bytes, via [`crate::NetStats`]) and this model *prices*
//! it, as the 1 Gbps Ethernet link: a fixed per-envelope latency (NIC +
//! switch + protocol stack) plus a bandwidth term. Experiment harnesses use
//! [`CostModel::transfer_seconds`] to convert measured deltas into modeled
//! network seconds, which is what "execution time" figures report for the
//! communication component.
//!
//! The evaluation's scaling shapes fall out of this model the same way
//! they fall out of real hardware: packing many small frames into one
//! envelope amortizes the latency term; adding machines splits the byte
//! volume but multiplies envelope counts; an engine that sends each
//! message k times (no hub buffering) pays k times the bandwidth term.

use crate::stats::StatsDelta;

/// Latency/bandwidth price list for one interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds of fixed cost per envelope (per physical transfer).
    pub envelope_latency_s: f64,
    /// Sustained bandwidth in bytes per second per machine link.
    pub bandwidth_bytes_per_s: f64,
}

impl CostModel {
    /// 1 Gbps Ethernet with ~100 µs per-transfer overhead — the commodity
    /// adapter in the paper's cluster.
    pub fn gigabit_ethernet() -> Self {
        CostModel {
            envelope_latency_s: 100e-6,
            bandwidth_bytes_per_s: 125e6,
        }
    }

    /// Modeled seconds to push `envelopes` transfers totalling `bytes`
    /// through one machine's link.
    pub fn seconds(&self, envelopes: u64, bytes: u64) -> f64 {
        envelopes as f64 * self.envelope_latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Modeled seconds for a measured stats delta (remote traffic only;
    /// machine-local frames are free).
    pub fn transfer_seconds(&self, delta: &StatsDelta) -> f64 {
        self.seconds(delta.remote_envelopes, delta.remote_bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::gigabit_ethernet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_amortizes_latency() {
        let m = CostModel::gigabit_ethernet();
        // 10_000 messages of 100 bytes: unpacked pays 10_000 latencies,
        // packed into 10 envelopes pays 10.
        let unpacked = m.seconds(10_000, 1_160_000);
        let packed = m.seconds(10, 1_160_240);
        assert!(
            unpacked > 10.0 * packed,
            "packing should dominate: {unpacked} vs {packed}"
        );
    }
}
