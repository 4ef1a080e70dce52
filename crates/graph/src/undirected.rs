//! The paper's primary substrate: an undirected, unweighted, *simple*
//! dynamic graph, the [`Graph`] store of kind [`Undirected`]. The store
//! keeps ids, sorted adjacency and both copies of every edge; this module
//! adds the undirected vocabulary.

use crate::store::{Graph, GraphKind};
use crate::{Result, VertexId};

/// The undirected kind: a slot is the neighbour's id, and an edge's second
/// copy sits in the other endpoint's list.
#[derive(Clone, Debug)]
pub enum Undirected {}

impl GraphKind for Undirected {
    type Slot = u32;

    const DIRECTED: bool = false;

    #[inline]
    fn target(slot: u32) -> u32 {
        slot
    }

    #[inline]
    fn retarget(_: u32, to: u32) -> u32 {
        to
    }
}

/// An undirected, unweighted dynamic graph with stable vertex ids.
pub type UndirectedGraph = Graph<Undirected>;

impl Graph<Undirected> {
    /// Bulk-builds a graph from an edge list over vertices `0..n`.
    ///
    /// Duplicate edges and self loops are silently dropped, mirroring the
    /// paper's preprocessing of the SNAP datasets (directed inputs are
    /// symmetrized, multi-edges collapsed).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::from_pairs(n, edges)
    }

    /// Number of edges (the paper's `m`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_count()
    }

    /// Degree of `v` (the paper's `deg(v)`).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.slots(v).len()
    }

    /// Sorted neighbor slice of `v` (the paper's `nbr(v)`).
    ///
    /// This is the hot accessor used by every BFS in the reproduction, so it
    /// returns the raw `u32` slice without wrapping.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        self.slots(v)
    }

    /// Whether edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find(u, v).is_some()
    }

    /// Inserts edge `(u, v)`.
    ///
    /// Rejects self loops, unknown endpoints, and duplicates.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.link(u, v.0)
    }

    /// Deletes edge `(u, v)`.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.unlink(u, v).map(drop)
    }

    /// Deletes vertex `v`, removing its incident edges.
    ///
    /// Returns the former neighbors — the paper treats vertex deletion as a
    /// sequence of edge deletions (§3), and callers replay exactly this list
    /// through `DecSPC`.
    pub fn delete_vertex(&mut self, v: VertexId) -> Result<Vec<VertexId>> {
        let (neighbors, _) = self.retire(v)?;
        Ok(neighbors.into_iter().map(VertexId).collect())
    }

    /// Iterates every edge once as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.each_edge().map(|(u, v)| (VertexId(v), VertexId(u)))
    }

    /// Picks an arbitrary existing edge by dense index, useful for sampling
    /// deletion workloads. `i` must be `< num_edges()`.
    pub fn nth_edge(&self, i: usize) -> Option<(VertexId, VertexId)> {
        self.edges().nth(i)
    }

    /// Maximum degree over alive vertices.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Sum of degrees (== 2m); sanity hook for tests.
    pub fn degree_sum(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    fn path(n: usize) -> UndirectedGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        UndirectedGraph::from_edges(n, &edges)
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.capacity(), 0);
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g.edges().count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn insert_and_query_edges() {
        let mut g = UndirectedGraph::with_vertices(4);
        g.insert_edge(VertexId(0), VertexId(1)).unwrap();
        g.insert_edge(VertexId(2), VertexId(1)).unwrap();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(g.has_edge(VertexId(1), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(2)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert_eq!(g.neighbors(VertexId(1)), &[0, 2]);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = UndirectedGraph::with_vertices(2);
        g.insert_edge(VertexId(0), VertexId(1)).unwrap();
        assert!(matches!(
            g.insert_edge(VertexId(1), VertexId(0)),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn delete_edge() {
        let mut g = path(3);
        g.delete_edge(VertexId(0), VertexId(1)).unwrap();
        assert!(!g.has_edge(VertexId(0), VertexId(1)));
        assert_eq!(g.num_edges(), 1);
        assert!(matches!(
            g.delete_edge(VertexId(0), VertexId(1)),
            Err(GraphError::MissingEdge(_, _))
        ));
        g.validate().unwrap();
    }

    #[test]
    fn delete_vertex_removes_incident_edges() {
        let mut g = path(5);
        let removed = g.delete_vertex(VertexId(2)).unwrap();
        assert_eq!(removed, vec![VertexId(1), VertexId(3)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices(), 4);
        assert!(!g.contains_vertex(VertexId(2)));
        assert!(matches!(
            g.insert_edge(VertexId(2), VertexId(0)),
            Err(GraphError::UnknownVertex(_))
        ));
        assert_eq!(g.vertices().count(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn from_edges_dedups_and_drops_loops() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(VertexId(1)), &[0, 2]);
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in &edges {
            assert!(u < v);
        }
        assert_eq!(g.degree_sum(), 8);
    }

    #[test]
    fn nth_edge_matches_iterator() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.nth_edge(0), g.edges().next());
        assert_eq!(g.nth_edge(2), g.edges().nth(2));
        assert_eq!(g.nth_edge(3), None);
    }

    #[test]
    fn max_degree() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
    }
}
