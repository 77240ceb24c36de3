//! The four workloads.

pub mod cell_mix;
pub mod pagerank_bsp;
pub mod scan_tiered;
pub mod serve_mix;
