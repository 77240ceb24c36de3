//! R-MAT recursive matrix graphs (paper reference \[12\]).
//!
//! Each arc is placed by recursively descending into one of the four
//! quadrants of the adjacency matrix with probabilities `(a, b, c, d)`;
//! the classic skewed parameters produce the power-law-ish degree
//! distributions of web graphs. The paper's Figure 12(b,c) R-MAT graphs
//! use average degree 13.

use rand::RngExt;
use trinity_graph::Csr;

/// R-MAT quadrant probabilities. The defaults are the Graph500/Kronecker
/// standard `(0.57, 0.19, 0.19, 0.05)`.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generate a directed R-MAT graph with `2^scale` nodes and
/// `avg_degree * 2^scale` arcs.
pub fn rmat(scale: u32, avg_degree: usize, seed: u64) -> Csr {
    rmat_with(scale, avg_degree, seed, RmatParams::default())
}

/// Generate with explicit quadrant probabilities.
pub fn rmat_with(scale: u32, avg_degree: usize, seed: u64, p: RmatParams) -> Csr {
    let n = 1usize << scale;
    let arcs_wanted = n * avg_degree;
    let mut rng = crate::rng(seed);
    let mut arcs = Vec::with_capacity(arcs_wanted);
    // Slight parameter noise per level, as in the original paper, to avoid
    // exactly repeated degree ties.
    for _ in 0..arcs_wanted {
        let (mut x, mut y) = (0u64, 0u64);
        for level in 0..scale {
            let shift = scale - 1 - level;
            let r: f64 = rng.random();
            let (dx, dy) = if r < p.a {
                (0, 0)
            } else if r < p.a + p.b {
                (0, 1)
            } else if r < p.a + p.b + p.c {
                (1, 0)
            } else {
                (1, 1)
            };
            x |= dx << shift;
            y |= dy << shift;
        }
        arcs.push((x, y));
    }
    Csr::from_arcs(n, arcs, true, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_requested_size() {
        let g = rmat(10, 13, 42);
        assert_eq!(g.node_count(), 1024);
        assert_eq!(g.arc_count(), 1024 * 13);
        assert!((g.avg_degree() - 13.0).abs() < 1e-9);
        assert!(g.directed);
    }

    #[test]
    fn is_deterministic_per_seed() {
        assert_eq!(rmat(8, 4, 7), rmat(8, 4, 7));
        assert_ne!(rmat(8, 4, 7), rmat(8, 4, 8));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = rmat(12, 16, 1);
        let mut degrees: Vec<usize> = (0..g.node_count() as u64)
            .map(|v| g.out_degree(v))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // The hot head should hold far more than its proportional share:
        // top 1% of nodes should own > 10% of all arcs.
        let top: usize = degrees.iter().take(g.node_count() / 100).sum();
        assert!(
            top as f64 > 0.10 * g.arc_count() as f64,
            "R-MAT head too flat: top 1% holds {top} of {}",
            g.arc_count()
        );
        // And all targets are in range.
        assert!(g.arcs().all(|(s, t)| s < 4096 && t < 4096));
    }
}
