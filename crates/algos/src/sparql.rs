//! SPARQL-style structural queries over RDF graph data (Figure 14(b)).
//!
//! The paper's Figure 14(b) reports the parallel speedup of four SPARQL
//! queries on a LUBM data set, executed by a distributed graph engine
//! built on Trinity (the Trinity.RDF system of reference \[36\]): RDF is
//! stored in its native graph form and queries run by graph exploration
//! rather than relational joins.
//!
//! This module implements that approach over the LUBM-like generator of
//! `trinity-graphgen`: entities are typed node cells (the type is the
//! attribute byte) and the four benchmark queries are typed structural
//! patterns executed by partition-parallel scan + exploration. Machine
//! counts scale the anchor scan, which is what produces the speedup
//! curve.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use trinity_graph::{load_graph, DistributedGraph, LoadOptions};
use trinity_graphgen::{LubmGraph, NodeType};
use trinity_memcloud::{CellId, MemoryCloud};

/// The four benchmark queries (LUBM-inspired shapes of increasing join
/// complexity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparqlQuery {
    /// Q1: professors and the department + university they belong to
    /// (a 2-hop path: Professor → Department → University).
    ProfessorsOfUniversities,
    /// Q2: students taking a course taught by their own advisor
    /// (a triangle: Student → Professor, Professor → Course,
    /// Student → Course).
    AdvisorTeachesTakenCourse,
    /// Q3: students enrolled in a course offered by their own department
    /// (a triangle through the department).
    StudentsInHomeDeptCourses,
    /// Q4: pairs of distinct students sharing an advisor (a join through
    /// a professor's advisee list).
    CoAdvisedStudentPairs,
}

impl SparqlQuery {
    /// All four queries in figure order.
    pub fn all() -> [SparqlQuery; 4] {
        [
            SparqlQuery::ProfessorsOfUniversities,
            SparqlQuery::AdvisorTeachesTakenCourse,
            SparqlQuery::StudentsInHomeDeptCourses,
            SparqlQuery::CoAdvisedStudentPairs,
        ]
    }
}

/// Result of one query run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparqlReport {
    /// Result bindings found.
    pub count: u64,
    /// Wall-clock seconds on the simulation host.
    pub seconds: f64,
    /// Modeled cluster seconds: the slowest machine's CPU work plus its
    /// priced traffic.
    pub modeled_seconds: f64,
}

/// Load a LUBM-like graph into a memory cloud: node type as the attribute
/// byte, in-links stored (RDF queries traverse predicates both ways).
pub fn load_lubm(cloud: Arc<MemoryCloud>, data: &LubmGraph) -> DistributedGraph {
    let types: Arc<Vec<u8>> = Arc::new(data.types.iter().map(|t| *t as u8).collect());
    let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> = {
        let types = Arc::clone(&types);
        Arc::new(move |v| vec![types[v as usize]])
    };
    load_graph(
        cloud,
        &data.csr,
        &LoadOptions {
            with_in_links: true,
            attrs: Some(attrs),
        },
    )
    .expect("load LUBM graph")
}

/// Node info fetched during exploration: type byte, out-list, in-list.
type Info = (u8, Vec<CellId>, Vec<CellId>);

fn node_info(
    handle: &trinity_graph::GraphHandle,
    cache: &mut HashMap<CellId, Info>,
    id: CellId,
) -> Option<Info> {
    if let Some(hit) = cache.get(&id) {
        return Some(hit.clone());
    }
    let info = handle
        .with_node(id, |view| {
            (
                view.attrs().first().copied().unwrap_or(255),
                view.outs().collect::<Vec<_>>(),
                view.ins().collect::<Vec<_>>(),
            )
        })
        .ok()
        .flatten()?;
    cache.insert(id, info.clone());
    Some(info)
}

fn is_type(info: &Info, t: NodeType) -> bool {
    info.0 == t as u8
}

/// Execute a query over the distributed graph. Every machine scans its
/// own partition for anchors in parallel; expansion may touch remote
/// cells through the memory cloud.
pub fn run_sparql_query(graph: &DistributedGraph, query: SparqlQuery) -> SparqlReport {
    let t0 = Instant::now();
    let total = AtomicU64::new(0);
    let cost = graph.cloud().fabric().cost_model();
    let modeled_max = parking_lot::Mutex::new(0.0f64);
    std::thread::scope(|scope| {
        for m in 0..graph.machines() {
            let handle = graph.handle(m).clone();
            let total = &total;
            let modeled_max = &modeled_max;
            scope.spawn(move || {
                let timer = trinity_core::cputime::ThreadTimer::start();
                let net_before = handle.cloud().endpoint().stats().snapshot();
                let mut cache: HashMap<CellId, Info> = HashMap::new();
                let mut local_anchors: Vec<CellId> = Vec::new();
                let anchor_type = match query {
                    SparqlQuery::ProfessorsOfUniversities => NodeType::Professor,
                    SparqlQuery::AdvisorTeachesTakenCourse => NodeType::Student,
                    SparqlQuery::StudentsInHomeDeptCourses => NodeType::Student,
                    SparqlQuery::CoAdvisedStudentPairs => NodeType::Professor,
                };
                handle.for_each_local_node(|id, view| {
                    if view.attrs().first() == Some(&(anchor_type as u8)) {
                        local_anchors.push(id);
                    }
                });
                let mut count = 0u64;
                for anchor in local_anchors {
                    let info = match node_info(&handle, &mut cache, anchor) {
                        Some(i) => i,
                        None => continue,
                    };
                    count += match query {
                        SparqlQuery::ProfessorsOfUniversities => {
                            // prof →worksFor dept →subOrgOf uni
                            let mut hits = 0;
                            for &dept in &info.1 {
                                let dinfo = match node_info(&handle, &mut cache, dept) {
                                    Some(i) if is_type(&i, NodeType::Department) => i,
                                    _ => continue,
                                };
                                hits += dinfo
                                    .1
                                    .iter()
                                    .filter(|&&u| {
                                        node_info(&handle, &mut cache, u)
                                            .is_some_and(|ui| is_type(&ui, NodeType::University))
                                    })
                                    .count() as u64;
                            }
                            hits
                        }
                        SparqlQuery::AdvisorTeachesTakenCourse => {
                            // student →advisor prof →teacherOf course ←takes student
                            let mut hits = 0;
                            let courses: Vec<CellId> = info
                                .1
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    node_info(&handle, &mut cache, c)
                                        .is_some_and(|ci| is_type(&ci, NodeType::Course))
                                })
                                .collect();
                            for &prof in &info.1 {
                                let pinfo = match node_info(&handle, &mut cache, prof) {
                                    Some(i) if is_type(&i, NodeType::Professor) => i,
                                    _ => continue,
                                };
                                hits +=
                                    courses.iter().filter(|c| pinfo.1.contains(c)).count() as u64;
                            }
                            hits
                        }
                        SparqlQuery::StudentsInHomeDeptCourses => {
                            // student →memberOf dept; student →takes course
                            // →offeredBy that same dept
                            let mut hits = 0;
                            let depts: Vec<CellId> = info
                                .1
                                .iter()
                                .copied()
                                .filter(|&d| {
                                    node_info(&handle, &mut cache, d)
                                        .is_some_and(|di| is_type(&di, NodeType::Department))
                                })
                                .collect();
                            for &course in &info.1 {
                                let cinfo = match node_info(&handle, &mut cache, course) {
                                    Some(i) if is_type(&i, NodeType::Course) => i,
                                    _ => continue,
                                };
                                hits += depts.iter().filter(|d| cinfo.1.contains(d)).count() as u64;
                            }
                            hits
                        }
                        SparqlQuery::CoAdvisedStudentPairs => {
                            // prof ←advisor student (in-links), count
                            // unordered distinct pairs.
                            let advisees = info
                                .2
                                .iter()
                                .filter(|&&s| {
                                    node_info(&handle, &mut cache, s)
                                        .is_some_and(|si| is_type(&si, NodeType::Student))
                                })
                                .count() as u64;
                            advisees * advisees.saturating_sub(1) / 2
                        }
                    };
                }
                total.fetch_add(count, Ordering::Relaxed);
                let delta = handle.cloud().endpoint().stats().delta(&net_before);
                let modeled = timer.elapsed_seconds() + 2.0 * cost.transfer_seconds(&delta);
                let mut max = modeled_max.lock();
                *max = max.max(modeled);
            });
        }
    });
    let modeled_seconds = *modeled_max.lock();
    SparqlReport {
        count: total.load(Ordering::Relaxed),
        seconds: t0.elapsed().as_secs_f64(),
        modeled_seconds,
    }
}

/// Single-process reference evaluation (for verification).
pub fn reference_count(data: &LubmGraph, query: SparqlQuery) -> u64 {
    let ty = |v: u64| data.types[v as usize];
    let outs = |v: u64| data.csr.neighbors(v);
    let rev = data.csr.transpose();
    let mut count = 0u64;
    match query {
        SparqlQuery::ProfessorsOfUniversities => {
            for p in data.of_type(NodeType::Professor) {
                for &d in outs(p) {
                    if ty(d) == NodeType::Department {
                        count += outs(d)
                            .iter()
                            .filter(|&&u| ty(u) == NodeType::University)
                            .count() as u64;
                    }
                }
            }
        }
        SparqlQuery::AdvisorTeachesTakenCourse => {
            for s in data.of_type(NodeType::Student) {
                let courses: Vec<u64> = outs(s)
                    .iter()
                    .copied()
                    .filter(|&c| ty(c) == NodeType::Course)
                    .collect();
                for &p in outs(s) {
                    if ty(p) == NodeType::Professor {
                        count += courses.iter().filter(|c| outs(p).contains(c)).count() as u64;
                    }
                }
            }
        }
        SparqlQuery::StudentsInHomeDeptCourses => {
            for s in data.of_type(NodeType::Student) {
                let depts: Vec<u64> = outs(s)
                    .iter()
                    .copied()
                    .filter(|&d| ty(d) == NodeType::Department)
                    .collect();
                for &c in outs(s) {
                    if ty(c) == NodeType::Course {
                        count += depts.iter().filter(|d| outs(c).contains(d)).count() as u64;
                    }
                }
            }
        }
        SparqlQuery::CoAdvisedStudentPairs => {
            for p in data.of_type(NodeType::Professor) {
                let advisees = rev
                    .neighbors(p)
                    .iter()
                    .filter(|&&s| ty(s) == NodeType::Student)
                    .count() as u64;
                count += advisees * advisees.saturating_sub(1) / 2;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_memcloud::CloudConfig;

    #[test]
    fn all_queries_match_the_reference_counts() {
        let data = trinity_graphgen::lubm_like(1, 33);
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(3)));
        let graph = load_lubm(Arc::clone(&cloud), &data);
        for q in SparqlQuery::all() {
            let expect = reference_count(&data, q);
            let got = run_sparql_query(&graph, q);
            assert_eq!(got.count, expect, "{q:?}");
            assert!(got.count > 0, "{q:?} should have results on LUBM data");
        }
        cloud.shutdown();
    }

    #[test]
    fn machine_count_does_not_change_counts() {
        let data = trinity_graphgen::lubm_like(1, 8);
        let expect: Vec<u64> = SparqlQuery::all()
            .iter()
            .map(|&q| reference_count(&data, q))
            .collect();
        for machines in [1usize, 4] {
            let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
            let graph = load_lubm(Arc::clone(&cloud), &data);
            for (i, q) in SparqlQuery::all().into_iter().enumerate() {
                assert_eq!(
                    run_sparql_query(&graph, q).count,
                    expect[i],
                    "{q:?} on {machines} machines"
                );
            }
            cloud.shutdown();
        }
    }
}
