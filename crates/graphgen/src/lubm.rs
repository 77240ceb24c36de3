//! LUBM-like RDF benchmark data (paper reference \[20\]).
//!
//! The paper's Figure 14(b) runs four SPARQL queries over a LUBM data set
//! (via the Trinity.RDF engine of reference \[36\]). This generator produces
//! the same *shape* of data: a university ontology — universities,
//! departments, professors, students, courses — with the standard LUBM
//! relationship edges, scaled by a university count. Node types are
//! stored as a one-byte attribute; the SPARQL-subset engine in
//! `trinity-algos` matches typed structural patterns against it.

use rand::RngExt;
use trinity_graph::Csr;

/// Entity types in the university ontology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NodeType {
    University = 0,
    Department = 1,
    Professor = 2,
    Student = 3,
    Course = 4,
}

impl NodeType {
    /// Decode from the attribute byte.
    pub fn from_byte(b: u8) -> Option<NodeType> {
        Some(match b {
            0 => NodeType::University,
            1 => NodeType::Department,
            2 => NodeType::Professor,
            3 => NodeType::Student,
            4 => NodeType::Course,
            _ => return None,
        })
    }
}

/// A generated LUBM-like graph: typed nodes plus directed edges with
/// in-links (RDF queries traverse both directions).
#[derive(Debug, Clone)]
pub struct LubmGraph {
    /// Directed adjacency (subject → object).
    pub csr: Csr,
    /// Node type per id.
    pub types: Vec<NodeType>,
}

impl LubmGraph {
    /// Number of entities.
    pub fn node_count(&self) -> usize {
        self.types.len()
    }

    /// Ids of all nodes of a type.
    pub fn of_type(&self, t: NodeType) -> impl Iterator<Item = u64> + '_ {
        self.types
            .iter()
            .enumerate()
            .filter(move |(_, ty)| **ty == t)
            .map(|(i, _)| i as u64)
    }
}

/// Generate `universities` universities worth of LUBM-like data.
///
/// Per university: 12–18 departments. Per department: 8–12 professors,
/// 40–80 students, 10–15 courses; students take 2–4 courses, professors
/// teach 1–2, students have one advisor.
pub fn lubm_like(universities: usize, seed: u64) -> LubmGraph {
    let mut rng = crate::rng(seed);
    let mut types = Vec::new();
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let new_node = |types: &mut Vec<NodeType>, t: NodeType| -> u64 {
        types.push(t);
        (types.len() - 1) as u64
    };
    for _ in 0..universities {
        let uni = new_node(&mut types, NodeType::University);
        let n_depts = rng.random_range(12..=18);
        for _ in 0..n_depts {
            let dept = new_node(&mut types, NodeType::Department);
            edges.push((dept, uni)); // subOrganizationOf
            let n_prof = rng.random_range(8..=12);
            let n_stud = rng.random_range(40..=80);
            let n_course = rng.random_range(10..=15);
            let profs: Vec<u64> = (0..n_prof)
                .map(|_| {
                    let p = new_node(&mut types, NodeType::Professor);
                    edges.push((p, dept)); // worksFor
                    p
                })
                .collect();
            let courses: Vec<u64> = (0..n_course)
                .map(|_| {
                    let c = new_node(&mut types, NodeType::Course);
                    edges.push((c, dept)); // offeredBy
                    c
                })
                .collect();
            for &p in &profs {
                let teaches = rng.random_range(1..=2usize);
                for _ in 0..teaches {
                    let c = courses[rng.random_range(0..courses.len())];
                    edges.push((p, c)); // teacherOf
                }
            }
            for _ in 0..n_stud {
                let s = new_node(&mut types, NodeType::Student);
                edges.push((s, dept)); // memberOf
                let advisor = profs[rng.random_range(0..profs.len())];
                edges.push((s, advisor)); // advisor
                let takes = rng.random_range(2..=4usize);
                for _ in 0..takes {
                    let c = courses[rng.random_range(0..courses.len())];
                    edges.push((s, c)); // takesCourse
                }
            }
        }
    }
    let n = types.len();
    LubmGraph {
        csr: Csr::from_arcs(n, edges, true, true),
        types,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_entity_types_in_plausible_ratios() {
        let g = lubm_like(3, 17);
        let count = |t| g.of_type(t).count();
        assert_eq!(count(NodeType::University), 3);
        let depts = count(NodeType::Department);
        assert!((36..=54).contains(&depts), "{depts} departments");
        assert!(count(NodeType::Student) > count(NodeType::Professor) * 3);
        assert!(count(NodeType::Course) > 0);
        assert_eq!(g.node_count(), g.csr.node_count());
    }

    #[test]
    fn every_student_has_department_advisor_and_courses() {
        let g = lubm_like(1, 5);
        for s in g.of_type(NodeType::Student) {
            let outs = g.csr.neighbors(s);
            assert!(
                outs.iter()
                    .any(|&o| g.types[o as usize] == NodeType::Department),
                "student {s} has no dept"
            );
            assert!(
                outs.iter()
                    .any(|&o| g.types[o as usize] == NodeType::Professor),
                "student {s} has no advisor"
            );
            // Duplicate enrollments are deduplicated, so 1 is possible.
            let courses = outs
                .iter()
                .filter(|&&o| g.types[o as usize] == NodeType::Course)
                .count();
            assert!(
                (1..=4).contains(&courses),
                "student {s} takes {courses} courses"
            );
        }
    }

    #[test]
    fn type_bytes_roundtrip() {
        for t in [
            NodeType::University,
            NodeType::Department,
            NodeType::Professor,
            NodeType::Student,
            NodeType::Course,
        ] {
            assert_eq!(NodeType::from_byte(t as u8), Some(t));
        }
        assert_eq!(NodeType::from_byte(9), None);
    }

    #[test]
    fn deterministic() {
        let a = lubm_like(2, 3);
        let b = lubm_like(2, 3);
        assert_eq!(a.csr, b.csr);
        assert_eq!(a.types, b.types);
    }
}
