//! Graph algorithms on the Trinity engine.
//!
//! These are the applications the paper evaluates (§7) plus the ones its
//! architecture sections motivate:
//!
//! * [`pagerank`] — synchronous vertex-centric PageRank (Figure 12(b));
//! * [`bfs`] — BSP breadth-first search, the Graph 500 kernel
//!   (Figures 12(c), 13);
//! * [`people_search`](mod@people_search) — the "David problem": k-hop name search on a
//!   social graph via online exploration (Figure 12(a), §5.1);
//! * [`subgraph`] — index-free subgraph matching by parallel exploration
//!   (Figure 8(a), Figure 14(a), §5.2);
//! * [`landmarks`] — the distance-oracle landmark study comparing
//!   largest-degree, local-betweenness, and global-betweenness selection
//!   (Figure 8(b), §5.5);
//! * [`sparql`] — typed structural patterns over LUBM-like RDF data
//!   (Figure 14(b)).
//!
//! No partitioner is kept: cells are placed by hash (§3), so nothing in
//! the system could use a partition.

pub mod bfs;
pub mod landmarks;
pub mod pagerank;
pub mod people_search;
pub mod sparql;
pub mod subgraph;

pub use bfs::{bfs_distributed, bfs_reference, BfsProgram};
pub use landmarks::{estimate_accuracy, select_landmarks, LandmarkStrategy};
pub use pagerank::{pagerank_distributed, pagerank_reference, PageRankProgram};
pub use people_search::{people_search, PeopleSearchReport};
pub use sparql::{load_lubm, run_sparql_query, SparqlQuery, SparqlReport};
pub use subgraph::{
    assign_labels, generate_pattern, reference_match, subgraph_match, Pattern, PatternGen,
    SubgraphReport,
};
