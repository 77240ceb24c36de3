//! Synthetic graph generators for the Trinity evaluation workloads.
//!
//! Every experiment in the paper's §7 runs on one of four graph families,
//! all reproduced here (deterministically, from a seed):
//!
//! * **R-MAT** ([`rmat`](fn@rmat)) — the recursive matrix model of Chakrabarti et
//!   al. (paper ref \[12\]); used by the PageRank, BFS, and PBGL/Giraph
//!   comparison experiments.
//! * **Power-law** ([`power_law`]) — degree distribution `P(k) ∝ c·k^-γ`
//!   with the paper's §5.4 parameters `c = 1.16`, `γ = 2.16`; used by the
//!   hub-vertex message-optimization analysis and the distance-oracle
//!   experiment.
//! * **Social** ([`social`](fn@social)) — a Facebook-like graph with a configurable
//!   average degree (the paper sweeps 10–200 for people search, with 130
//!   called out as Facebook's average), plus a first-name attribute
//!   generator ([`names`]) in which "David" is a popular name.
//! * **LUBM-like RDF** ([`lubm`]) and **real-world stand-ins**
//!   ([`realworld`]) — for the SPARQL and subgraph-match speedup figures.

pub mod lubm;
pub mod names;
pub mod realworld;
pub mod rmat;
pub mod social;

pub use lubm::{lubm_like, LubmGraph, NodeType};
pub use realworld::{patent_like, wordnet_like};
pub use rmat::rmat;
pub use social::{power_law, social};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deterministic RNG used by every generator.
pub(crate) fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
