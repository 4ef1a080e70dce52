//! Weighted undirected dynamic graph — substrate for the Appendix C.2
//! extension: the [`Graph`] store of kind [`Weighted`].
//!
//! Weights are positive integers (`u32`), accumulated into `u64` distances.
//! Integer weights keep shortest-path *counting* exact: with floats, two
//! paths of equal length can compare unequal after accumulation error, which
//! would silently corrupt counts. The paper's weighted extension only needs
//! comparable, additive weights, so this loses no generality.

use crate::store::{Graph, GraphKind};
use crate::{GraphError, Result, VertexId};

/// Edge weight type (positive integer).
pub type Weight = u32;

/// Weighted path length type.
pub type WDist = u64;

/// Sentinel for "unreachable" weighted distance.
pub const WDIST_INF: WDist = WDist::MAX;

/// The weighted kind: a slot is `(neighbour, weight)`, an edge's second
/// copy sits in the other endpoint's list with the same weight, and a
/// weight must be positive.
#[derive(Clone, Debug)]
pub enum Weighted {}

impl GraphKind for Weighted {
    type Slot = (u32, Weight);

    const DIRECTED: bool = false;

    #[inline]
    fn target((v, _): (u32, Weight)) -> u32 {
        v
    }

    #[inline]
    fn retarget((_, w): (u32, Weight), to: u32) -> (u32, Weight) {
        (to, w)
    }

    fn admits((_, w): (u32, Weight)) -> bool {
        w > 0
    }
}

/// An undirected, weighted, simple dynamic graph with stable vertex ids.
pub type WeightedGraph = Graph<Weighted>;

impl Graph<Weighted> {
    /// Bulk-builds from `(u, v, w)` triples. Later duplicates overwrite
    /// earlier ones; self loops and zero weights are rejected by assertion.
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, Weight)]) -> Self {
        let mut g = WeightedGraph::with_vertices(n);
        for &(u, v, w) in edges {
            assert!(w > 0, "zero weight");
            assert!(u != v, "self loop");
            match g.insert_edge(VertexId(u), VertexId(v), w) {
                Ok(()) => {}
                Err(GraphError::DuplicateEdge(..)) => {
                    g.set_weight(VertexId(u), VertexId(v), w).unwrap();
                }
                Err(e) => panic!("from_weighted_edges: {e}"),
            }
        }
        g
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_count()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.slots(v).len()
    }

    /// Sorted `(neighbor, weight)` slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(u32, Weight)] {
        self.slots(v)
    }

    /// Weight of edge `(u, v)`, if present.
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.find(u, v).map(|(_, w)| w)
    }

    /// Whether edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find(u, v).is_some()
    }

    /// Inserts edge `(u, v)` with weight `w > 0`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<()> {
        self.link(u, (v.0, w))
    }

    /// Changes the weight of an existing edge; returns the old weight.
    pub fn set_weight(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<Weight> {
        self.relink(u, (v.0, w)).map(|(_, old)| old)
    }

    /// Deletes edge `(u, v)`; returns its weight.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<Weight> {
        self.unlink(u, v).map(|(_, w)| w)
    }

    /// Deletes vertex `v`; returns `(neighbor, weight)` pairs removed.
    pub fn delete_vertex(&mut self, v: VertexId) -> Result<Vec<(VertexId, Weight)>> {
        let (list, _) = self.retire(v)?;
        Ok(list.into_iter().map(|(u, w)| (VertexId(u), w)).collect())
    }

    /// Iterates edges once as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.each_edge()
            .map(|(u, (v, w))| (VertexId(v), VertexId(u), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_weights() {
        let mut g = WeightedGraph::with_vertices(3);
        g.insert_edge(VertexId(0), VertexId(1), 5).unwrap();
        g.insert_edge(VertexId(1), VertexId(2), 3).unwrap();
        assert_eq!(g.weight(VertexId(0), VertexId(1)), Some(5));
        assert_eq!(g.weight(VertexId(1), VertexId(0)), Some(5));
        assert_eq!(g.weight(VertexId(0), VertexId(2)), None);
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn zero_weight_rejected() {
        let mut g = WeightedGraph::with_vertices(2);
        assert!(matches!(
            g.insert_edge(VertexId(0), VertexId(1), 0),
            Err(GraphError::InvalidWeight(_))
        ));
    }

    #[test]
    fn set_weight_updates_both_sides() {
        let mut g = WeightedGraph::with_vertices(2);
        g.insert_edge(VertexId(0), VertexId(1), 5).unwrap();
        let old = g.set_weight(VertexId(1), VertexId(0), 2).unwrap();
        assert_eq!(old, 5);
        assert_eq!(g.weight(VertexId(0), VertexId(1)), Some(2));
        g.validate().unwrap();
    }

    #[test]
    fn delete_edge_returns_weight() {
        let mut g = WeightedGraph::with_vertices(2);
        g.insert_edge(VertexId(0), VertexId(1), 7).unwrap();
        assert_eq!(g.delete_edge(VertexId(0), VertexId(1)).unwrap(), 7);
        assert_eq!(g.num_edges(), 0);
        assert!(g.delete_edge(VertexId(0), VertexId(1)).is_err());
    }

    #[test]
    fn delete_vertex_weighted() {
        let mut g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 2), (1, 3, 3)]);
        let removed = g.delete_vertex(VertexId(1)).unwrap();
        assert_eq!(
            removed,
            vec![(VertexId(0), 1), (VertexId(2), 2), (VertexId(3), 3)]
        );
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn from_weighted_edges_overwrites_duplicates() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 1, 4), (1, 0, 9)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(VertexId(0), VertexId(1)), Some(9));
    }

    #[test]
    fn edges_iterator_with_weights() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 4), (1, 2, 6)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(VertexId(0), VertexId(1), 4)));
        assert!(edges.contains(&(VertexId(1), VertexId(2), 6)));
    }
}
