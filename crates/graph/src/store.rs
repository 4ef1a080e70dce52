//! The one simple-graph store behind every graph kind.
//!
//! [`UndirectedGraph`](crate::UndirectedGraph),
//! [`DirectedGraph`](crate::DirectedGraph) and
//! [`WeightedGraph`](crate::WeightedGraph) are [`Graph<K>`] for the three
//! [`GraphKind`]s. The store alone keeps what they share:
//!
//! * A stable id space: deleting a vertex retires its id rather than
//!   renumbering. The SPC-Index stores per-vertex label rows indexed by id,
//!   so ids must stay stable under deletion (the paper models vertex
//!   deletion as deleting all incident edges, §3).
//! * Adjacency lists **sorted by vertex id**, so an edge lookup is a binary
//!   search and neighbour iteration is deterministic. Determinism matters
//!   because the DSPC update algorithms are compared against full
//!   reconstruction, and both must see identical graphs.
//! * Two copies of every edge, kept in step by every insert and delete: one
//!   in the tail's list, its mirror in the other endpoint's list (or, for
//!   arcs, in the head's in-list).
//! * The simple-graph rules: parallel edges and self loops are rejected,
//!   since shortest path counting is defined on simple graphs (§2.1).
//!
//! A kind fixes only what a neighbour slot holds and where an edge's second
//! copy lives; its own module adds the kind's vocabulary as thin methods.

use crate::{GraphError, Result, VertexId};
use std::fmt::Debug;

/// What sets one graph kind apart: what a neighbour slot holds, and where
/// an edge's second copy lives.
pub trait GraphKind: Clone + Debug + Send + Sync + 'static {
    /// A neighbour slot: the neighbour's id, plus whatever the edge carries.
    type Slot: Copy + PartialEq + Debug + Send + Sync;

    /// Whether edges are arcs, whose second copy sits in the head's
    /// in-list, rather than edges mirrored in the other endpoint's list.
    const DIRECTED: bool;

    /// The neighbour `slot` names.
    fn target(slot: Self::Slot) -> u32;

    /// The same edge seen from the other end: `slot`, naming `to`.
    fn retarget(slot: Self::Slot, to: u32) -> Self::Slot;

    /// Whether an edge may carry `slot`'s payload. A rejected slot is an
    /// [`GraphError::InvalidWeight`].
    fn admits(_slot: Self::Slot) -> bool {
        true
    }
}

type Slots<K> = Vec<<K as GraphKind>::Slot>;

/// A simple dynamic graph of kind `K`, with stable vertex ids.
#[derive(Clone, Debug)]
pub struct Graph<K: GraphKind> {
    /// `out[v]`: the slots of `v`'s edges (its out-arcs), sorted by id.
    out: Vec<Vec<K::Slot>>,
    /// `ins[v]`: the slots of `v`'s in-arcs, sorted by id; no lists at all
    /// for undirected kinds.
    ins: Vec<Vec<K::Slot>>,
    /// `alive[v]` is false once `v` has been deleted.
    alive: Vec<bool>,
    /// Number of alive vertices.
    n_alive: usize,
    /// Number of edges (arcs).
    m: usize,
}

impl<K: GraphKind> Default for Graph<K> {
    fn default() -> Self {
        Self::with_vertices(0)
    }
}

impl<K: GraphKind> Graph<K> {
    /// Creates an empty graph with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated vertices, ids `0..n`.
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            out: vec![Vec::new(); n],
            ins: vec![Vec::new(); if K::DIRECTED { n } else { 0 }],
            alive: vec![true; n],
            n_alive: n,
            m: 0,
        }
    }

    /// Total id space (`0..capacity()`), including deleted vertices.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.out.len()
    }

    /// Number of alive vertices (the paper's `n`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n_alive
    }

    /// Whether `v` is a valid, alive vertex.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// Adds a fresh isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::from_index(self.out.len());
        self.out.push(Vec::new());
        if K::DIRECTED {
            self.ins.push(Vec::new());
        }
        self.alive.push(true);
        self.n_alive += 1;
        id
    }

    /// Iterates alive vertex ids in increasing order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| VertexId::from_index(i))
    }

    /// Structural validation: sorted lists, no self loops, admissible
    /// payloads, every edge's second copy present and equal, an edge count
    /// that matches, and no edges at deleted vertices.
    pub fn validate(&self) -> Result<()> {
        let sorted = |list: &[K::Slot]| list.windows(2).all(|w| K::target(w[0]) < K::target(w[1]));
        for (u, list) in self.out.iter().enumerate() {
            let id = VertexId::from_index(u);
            let ins = self.ins.get(u).map_or(&[][..], Vec::as_slice);
            if !self.alive[u] && list.len() + ins.len() > 0 {
                return Err(GraphError::UnknownVertex(id));
            }
            if !sorted(list) || !sorted(ins) {
                return Err(GraphError::Parse {
                    line: 0,
                    message: format!("adjacency of v{u} not strictly sorted"),
                });
            }
            for &slot in list {
                let v = K::target(slot);
                if v == id.0 {
                    return Err(GraphError::SelfLoop(id));
                }
                if !K::admits(slot) {
                    return Err(GraphError::InvalidWeight(0.0));
                }
                let copies = match K::DIRECTED {
                    true => self.ins.get(v as usize),
                    false => self.out.get(v as usize),
                };
                let copies = copies.map_or(&[][..], Vec::as_slice);
                if Self::search(copies, id.0).map(|i| copies[i]) != Ok(K::retarget(slot, id.0)) {
                    return Err(GraphError::MissingEdge(id, VertexId(v)));
                }
            }
        }
        let total = |lists: &[Vec<K::Slot>]| lists.iter().map(Vec::len).sum::<usize>();
        let (out, ins) = (total(&self.out), total(&self.ins));
        // An edge fills two out-slots; an arc one out-slot and one in-slot.
        let expected = match K::DIRECTED {
            true => (self.m, self.m),
            false => (2 * self.m, 0),
        };
        if (out, ins) != expected {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "edge count mismatch: {out} out-slots, {ins} in-slots, m={}",
                    self.m
                ),
            });
        }
        Ok(())
    }

    /// The slots of `v`'s edges (its out-arcs), sorted by neighbour id.
    #[inline]
    pub(crate) fn slots(&self, v: VertexId) -> &[K::Slot] {
        &self.out[v.index()]
    }

    /// The slots of `v`'s in-arcs, sorted by id.
    #[inline]
    pub(crate) fn in_slots(&self, v: VertexId) -> &[K::Slot] {
        &self.ins[v.index()]
    }

    /// Number of edges (arcs).
    #[inline]
    pub(crate) fn edge_count(&self) -> usize {
        self.m
    }

    /// The slot of edge `u → v` in `u`'s list, if present.
    #[inline]
    pub(crate) fn find(&self, u: VertexId, v: VertexId) -> Option<K::Slot> {
        let list = self.out.get(u.index())?;
        Self::search(list, v.0).ok().map(|i| list[i])
    }

    /// Inserts the edge from `u` that `slot` names, and its second copy.
    /// Rejects self loops, payloads the kind does not admit, unknown
    /// endpoints, and duplicates.
    pub(crate) fn link(&mut self, u: VertexId, slot: K::Slot) -> Result<()> {
        let v = VertexId(K::target(slot));
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !K::admits(slot) {
            return Err(GraphError::InvalidWeight(0.0));
        }
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let pos = match Self::search(&self.out[u.index()], v.0) {
            Ok(_) => return Err(GraphError::DuplicateEdge(u, v)),
            Err(p) => p,
        };
        self.out[u.index()].insert(pos, slot);
        let copies = self.copies_mut(v.0);
        let pos = Self::search(copies, u.0).expect_err("edge copies out of step");
        copies.insert(pos, K::retarget(slot, u.0));
        self.m += 1;
        Ok(())
    }

    /// Replaces the payload of the present edge from `u` that `slot` names,
    /// in both copies. Returns the old slot.
    pub(crate) fn relink(&mut self, u: VertexId, slot: K::Slot) -> Result<K::Slot> {
        let v = VertexId(K::target(slot));
        if !K::admits(slot) {
            return Err(GraphError::InvalidWeight(0.0));
        }
        let pos = self.position(u, v)?;
        let old = std::mem::replace(&mut self.out[u.index()][pos], slot);
        let copies = self.copies_mut(v.0);
        let pos = Self::search(copies, u.0).expect("edge copies out of step");
        copies[pos] = K::retarget(slot, u.0);
        Ok(old)
    }

    /// Deletes edge `u → v` and its second copy, returning its slot.
    pub(crate) fn unlink(&mut self, u: VertexId, v: VertexId) -> Result<K::Slot> {
        let pos = self.position(u, v)?;
        let slot = self.out[u.index()].remove(pos);
        Self::drop_copy(self.copies_mut(v.0), u.0);
        self.m -= 1;
        Ok(slot)
    }

    /// Deletes vertex `v` with every edge at it, retiring its id. Returns
    /// the slots of its former edges (out-arcs) and in-arcs.
    pub(crate) fn retire(&mut self, v: VertexId) -> Result<(Slots<K>, Slots<K>)> {
        self.check_vertex(v)?;
        let out = std::mem::take(&mut self.out[v.index()]);
        let ins = match K::DIRECTED {
            true => std::mem::take(&mut self.ins[v.index()]),
            false => Vec::new(),
        };
        for &slot in &out {
            Self::drop_copy(self.copies_mut(K::target(slot)), v.0);
        }
        for &slot in &ins {
            Self::drop_copy(&mut self.out[K::target(slot) as usize], v.0);
        }
        self.m -= out.len() + ins.len();
        self.alive[v.index()] = false;
        self.n_alive -= 1;
        Ok((out, ins))
    }

    /// Every edge once, as `(u, slot)` from `u`'s list: every arc, and of
    /// an undirected edge the copy whose neighbour has the smaller id.
    pub(crate) fn each_edge(&self) -> impl Iterator<Item = (u32, K::Slot)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, list)| {
            let u = u as u32;
            list.iter()
                .take_while(move |&&slot| K::DIRECTED || K::target(slot) < u)
                .map(move |&slot| (u, slot))
        })
    }

    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if self.contains_vertex(v) {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    /// Where edge `u → v` sits in `u`'s list, after checking both ends.
    fn position(&self, u: VertexId, v: VertexId) -> Result<usize> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        Self::search(&self.out[u.index()], v.0).map_err(|_| GraphError::MissingEdge(u, v))
    }

    #[inline]
    fn search(list: &[K::Slot], id: u32) -> std::result::Result<usize, usize> {
        list.binary_search_by_key(&id, |&slot| K::target(slot))
    }

    /// The list that holds the second copies of edges towards `v`.
    fn copies_mut(&mut self, v: u32) -> &mut Vec<K::Slot> {
        match K::DIRECTED {
            true => &mut self.ins[v as usize],
            false => &mut self.out[v as usize],
        }
    }

    fn drop_copy(copies: &mut Vec<K::Slot>, id: u32) {
        let pos = Self::search(copies, id).expect("edge copies out of step");
        copies.remove(pos);
    }
}

impl<K: GraphKind<Slot = u32>> Graph<K> {
    /// Bulk-builds a graph over vertices `0..n` from `(u, v)` pairs, each an
    /// edge from `u` to `v`. Duplicates and self loops are dropped.
    pub(crate) fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Self {
        let mut g = Self::with_vertices(n);
        for &(u, v) in pairs {
            if u == v {
                continue;
            }
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            g.out[u as usize].push(v);
            g.copies_mut(v).push(u);
        }
        for list in g.out.iter_mut().chain(&mut g.ins) {
            list.sort_unstable();
            list.dedup();
        }
        g.m = g.out.iter().map(Vec::len).sum::<usize>() / if K::DIRECTED { 1 } else { 2 };
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Directed, Undirected, Weighted};

    /// The path 0 - 1 - 2 - 3 of kind `K`.
    fn path<K: GraphKind>(slot: impl Fn(u32) -> K::Slot) -> Graph<K> {
        let mut g = Graph::with_vertices(4);
        for u in 0..3 {
            g.link(VertexId(u), slot(u + 1)).unwrap();
        }
        g
    }

    fn paths() -> (Graph<Undirected>, Graph<Directed>, Graph<Weighted>) {
        (path(|v| v), path(|v| v), path(|v| (v, v + 1)))
    }

    fn m_mismatch<K: GraphKind>(mut g: Graph<K>) {
        g.validate().unwrap();
        g.m = 5;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_m_mismatch() {
        let (u, d, w) = paths();
        m_mismatch(u);
        m_mismatch(d);
        m_mismatch(w);
    }

    fn missing_second_copy<K: GraphKind>(mut g: Graph<K>) {
        let (u, slot) = g.each_edge().next().unwrap();
        let v = K::target(slot);
        g.copies_mut(v).retain(|&c| K::target(c) != u);
        assert!(matches!(g.validate(), Err(GraphError::MissingEdge(..))));
    }

    #[test]
    fn validate_catches_a_missing_second_copy() {
        let (u, d, w) = paths();
        missing_second_copy(u);
        missing_second_copy(d);
        missing_second_copy(w);
    }

    #[test]
    fn validate_catches_unequal_copies() {
        let (_, _, mut w) = paths();
        w.copies_mut(1)[0].1 = 7;
        assert!(matches!(w.validate(), Err(GraphError::MissingEdge(..))));
    }
}
