//! Seed-derived input generation shared by the workloads.
//!
//! `--seed` is the only workload input: the same seed gives the same
//! graphs, cells and op sequences on every run, and the program under
//! test only ever sees those generated inputs.

use std::collections::HashSet;

use trinity_memcloud::CloudConfig;

/// splitmix64: small, fast, and every `(seed, stream)` pair gives an
/// independent sequence, so one seed can drive several generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is < 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        assert!(k as u64 <= n, "cannot draw {k} distinct values from {n}");
        let mut seen = HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// The cluster shape every workload starts from: default 64 MiB trunks,
/// 8 per machine, TFS replication 3, 4 096-entry read cache, no faults.
pub fn cloud_config(machines: usize, workers_per_machine: usize) -> CloudConfig {
    let mut cfg = CloudConfig::new(machines);
    cfg.workers_per_machine = workers_per_machine;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let draw = |stream| {
            let mut r = Rng::new(7, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        let (a, b, c) = (draw(1), draw(1), draw(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_draws_are_distinct_and_in_range() {
        let v = Rng::new(1, 0).distinct(100, 100);
        let set: HashSet<u64> = v.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert!(v.iter().all(|&x| x < 100));
    }
}
