//! Directed dynamic graph — substrate for the Appendix C.1 extension: the
//! [`Graph`] store of kind [`Directed`].
//!
//! Each arc is stored in its tail's out-list and its head's in-list, so the
//! directed SPC-Index can run forward BFSs (populating `L_in` of reached
//! vertices) and backward BFSs (populating `L_out`) symmetrically.

use crate::store::{Graph, GraphKind};
use crate::{Result, VertexId};

/// The directed kind: a slot is the neighbour's id, and an arc's second
/// copy sits in its head's in-list.
#[derive(Clone, Debug)]
pub enum Directed {}

impl GraphKind for Directed {
    type Slot = u32;

    const DIRECTED: bool = true;

    #[inline]
    fn target(slot: u32) -> u32 {
        slot
    }

    #[inline]
    fn retarget(_: u32, to: u32) -> u32 {
        to
    }
}

/// A directed, unweighted, simple dynamic graph with stable vertex ids.
pub type DirectedGraph = Graph<Directed>;

impl Graph<Directed> {
    /// Bulk-builds from arcs `(u, v)` meaning `u → v`. Duplicates and self
    /// loops are dropped.
    pub fn from_arcs(n: usize, arcs: &[(u32, u32)]) -> Self {
        Self::from_pairs(n, arcs)
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.edge_count()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.slots(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_slots(v).len()
    }

    /// Sorted out-neighbors (`v → w`).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[u32] {
        self.slots(v)
    }

    /// Sorted in-neighbors (`w → v`).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[u32] {
        self.in_slots(v)
    }

    /// Whether arc `u → v` exists.
    #[inline]
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.find(u, v).is_some()
    }

    /// Inserts arc `u → v`.
    pub fn insert_arc(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.link(u, v.0)
    }

    /// Deletes arc `u → v`.
    pub fn delete_arc(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.unlink(u, v).map(drop)
    }

    /// Deletes vertex `v` and all incident arcs. Returns `(in_neighbors,
    /// out_neighbors)` so callers can replay the arc deletions through the
    /// decremental index update.
    pub fn delete_vertex(&mut self, v: VertexId) -> Result<(Vec<VertexId>, Vec<VertexId>)> {
        let (outs, ins) = self.retire(v)?;
        Ok((
            ins.into_iter().map(VertexId).collect(),
            outs.into_iter().map(VertexId).collect(),
        ))
    }

    /// Iterates all arcs `(u, v)` meaning `u → v`.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.each_edge().map(|(u, v)| (VertexId(u), VertexId(v)))
    }

    /// Builds the undirected symmetrization — the paper converts its directed
    /// datasets to undirected this way (§4.1.1).
    pub fn to_undirected(&self) -> crate::UndirectedGraph {
        let arcs: Vec<(u32, u32)> = self.arcs().map(|(u, v)| (u.0, v.0)).collect();
        crate::UndirectedGraph::from_edges(self.capacity(), &arcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    #[test]
    fn insert_and_query_arcs() {
        let mut g = DirectedGraph::with_vertices(3);
        g.insert_arc(VertexId(0), VertexId(1)).unwrap();
        g.insert_arc(VertexId(1), VertexId(2)).unwrap();
        assert!(g.has_arc(VertexId(0), VertexId(1)));
        assert!(!g.has_arc(VertexId(1), VertexId(0)));
        assert_eq!(g.out_degree(VertexId(1)), 1);
        assert_eq!(g.in_degree(VertexId(1)), 1);
        assert_eq!(g.num_arcs(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn asymmetric_pair_allowed() {
        let mut g = DirectedGraph::with_vertices(2);
        g.insert_arc(VertexId(0), VertexId(1)).unwrap();
        g.insert_arc(VertexId(1), VertexId(0)).unwrap();
        assert_eq!(g.num_arcs(), 2);
        assert!(matches!(
            g.insert_arc(VertexId(0), VertexId(1)),
            Err(GraphError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn delete_arc() {
        let mut g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
        g.delete_arc(VertexId(1), VertexId(2)).unwrap();
        assert!(!g.has_arc(VertexId(1), VertexId(2)));
        assert_eq!(g.num_arcs(), 2);
        assert!(g.delete_arc(VertexId(1), VertexId(2)).is_err());
        g.validate().unwrap();
    }

    #[test]
    fn delete_vertex_returns_both_sides() {
        let mut g = DirectedGraph::from_arcs(4, &[(0, 1), (1, 2), (3, 1)]);
        let (ins, outs) = g.delete_vertex(VertexId(1)).unwrap();
        assert_eq!(ins, vec![VertexId(0), VertexId(3)]);
        assert_eq!(outs, vec![VertexId(2)]);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.num_vertices(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn from_arcs_dedups() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (0, 1), (1, 1), (2, 1)]);
        assert_eq!(g.num_arcs(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn to_undirected_symmetrizes() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 0), (1, 2)]);
        let u = g.to_undirected();
        assert_eq!(u.num_edges(), 2);
        assert!(u.has_edge(VertexId(1), VertexId(2)));
    }

    #[test]
    fn arcs_iterator() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(
            arcs,
            vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))]
        );
    }
}
