//! Directed SPC-Index — the Appendix C.1 extension.
//!
//! Each vertex carries two label sets: `L_in(v)` covers shortest paths
//! *into* `v` (an entry `(h, d, c)` certifies `c` shortest `h → v` paths of
//! length `d` on which `h` is the highest-ranked vertex) and `L_out(v)`
//! covers shortest paths *out of* `v`. A query `SPC(s → t)` merges
//! `L_out(s)` with `L_in(t)`.
//!
//! Construction runs two rank-pruned BFSs per hub — forward (emitting
//! `L_in` labels of reached vertices) and backward (emitting `L_out`) — and
//! the update algorithms mirror the undirected ones with directions
//! attached. [`DirectedSpcIndex`] is the label store over [`Directed`]
//! and [`DynamicDirectedSpc`] the facade; the shared pipeline runs both
//! halves through [`crate::engine::Topo`] views of the family each repairs.
//!
//! ## IncSPC / DecSPC over arcs
//!
//! * **Insertion of arc `a → b`.** Affected hubs come from
//!   `L_in(a) ∪ L_out(b)`. A hub `h ∈ L_in(a)` (it tops paths `h → … → a`)
//!   runs a *forward* pruned BFS from `b`, seeded across the new arc,
//!   repairing `L_in` labels downstream. A hub `h ∈ L_out(b)` runs the
//!   mirror-image *backward* BFS from `a`, repairing `L_out` labels
//!   upstream.
//! * **Deletion of arc `a → b`.** `SR_a/R_a` are found by a backward
//!   counting sweep from `a` (vertices with shortest paths `v → a → b`),
//!   classified per Definition 3.10 with in-side hub membership;
//!   `SR_b/R_b` symmetrically by a forward sweep from `b` with out-side
//!   membership. Then hubs in `SR_a` repair `L_in` labels of
//!   `SR_b ∪ R_b` by forward BFS, hubs in `SR_b` repair `L_out` labels of
//!   `SR_a ∪ R_a` by backward BFS, with the same `PreQUERY` pruning and
//!   removal pass as the undirected Algorithm 6. A hub on a cycle through
//!   the arc does both, once per family.

pub mod build;

pub use build::{build_directed_index, rebuild_directed_index};

use crate::dynamic::{Dynamic, UpdateStats};
use crate::engine::{Directed, REPAIR_PRIMARY, REPAIR_SECONDARY};
use crate::index::LabelIndex;
use crate::label::LabelSet;
use crate::query::{pre_query_rows, query_rows, QueryResult};
use dspc_graph::VertexId;

/// Which label family a sweep writes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `L_in` — labels describing paths hub → vertex.
    In,
    /// `L_out` — labels describing paths vertex → hub.
    Out,
}

impl Side {
    /// The other family (`L_in` ↔ `L_out`).
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::In => Side::Out,
            Side::Out => Side::In,
        }
    }

    /// The repair-agenda flag naming this family in the label store.
    #[inline]
    pub fn family(self) -> u8 {
        match self {
            Side::In => REPAIR_PRIMARY,
            Side::Out => REPAIR_SECONDARY,
        }
    }
}

/// The directed SPC-Index: `L_in` and `L_out` per vertex.
pub type DirectedSpcIndex = LabelIndex<Directed>;

impl DirectedSpcIndex {
    /// `L_in(v)`.
    #[inline]
    pub fn label_in(&self, v: VertexId) -> &LabelSet {
        self.row(v, REPAIR_PRIMARY)
    }

    /// `L_out(v)`.
    #[inline]
    pub fn label_out(&self, v: VertexId) -> &LabelSet {
        self.row(v, REPAIR_SECONDARY)
    }

    /// Label set for `side` of `v`.
    #[inline]
    pub fn label(&self, side: Side, v: VertexId) -> &LabelSet {
        self.row(v, side.family())
    }
}

/// `SPC(s → t)`: merge `L_out(s)` with `L_in(t)`.
pub fn directed_spc_query(index: &DirectedSpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = query_rows(index.label_out(s).view(), index.label_in(t).view());
    QueryResult { dist, count }
}

/// `PreQUERY(s → t)`: [`directed_spc_query`] restricted to hubs ranked
/// strictly above `s` — the directed analogue of
/// [`crate::query::pre_query`].
pub fn directed_pre_query(index: &DirectedSpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = pre_query_rows(
        index.label_out(s).view(),
        index.label_in(t).view(),
        index.rank(s),
    );
    QueryResult { dist, count }
}

/// A directed topological update, for batch application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArcUpdate {
    /// Insert arc `a → b`.
    InsertArc(VertexId, VertexId),
    /// Delete arc `a → b`.
    DeleteArc(VertexId, VertexId),
}

/// Directed facade: a [`DirectedGraph`](dspc_graph::DirectedGraph) and its
/// index kept in lockstep, [`Dynamic`] over [`Directed`].
pub type DynamicDirectedSpc = Dynamic<Directed>;

impl Dynamic<Directed> {
    /// Inserts arc `a → b` and repairs the index.
    pub fn insert_arc(&mut self, a: VertexId, b: VertexId) -> dspc_graph::Result<UpdateStats> {
        self.insert(a, b, ())
    }

    /// Deletes arc `a → b` and repairs the index ([`Dynamic::delete_edge`]).
    pub fn delete_arc(&mut self, a: VertexId, b: VertexId) -> dspc_graph::Result<UpdateStats> {
        self.delete_edge(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelEntry, Rank, INF_DIST};
    use crate::order::{OrderingStrategy, RankMap};
    use dspc_graph::DirectedGraph;

    #[test]
    fn rank_map_total_degree() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (2, 1), (1, 3)]);
        let idx = build_directed_index(&g, OrderingStrategy::Degree);
        // Vertex 1 has total degree 3 → highest rank.
        assert_eq!(idx.vertex(Rank(0)), VertexId(1));
    }

    #[test]
    fn self_labeled_queries() {
        let ranks = RankMap::from_rank_order(&[0, 1, 2], OrderingStrategy::Identity);
        let idx = DirectedSpcIndex::self_labeled(ranks);
        idx.check_invariants().unwrap();
        assert_eq!(
            directed_spc_query(&idx, VertexId(0), VertexId(0)).as_option(),
            Some((0, 1))
        );
        assert!(!directed_spc_query(&idx, VertexId(0), VertexId(1)).is_connected());
    }

    #[test]
    fn invariant_checker_catches_infinite_distance() {
        let ranks = RankMap::from_rank_order(&[0, 1, 2], OrderingStrategy::Identity);
        let mut idx = DirectedSpcIndex::self_labeled(ranks);
        idx.row_mut(VertexId(2), Side::In.family())
            .upsert(LabelEntry::new(Rank(0), INF_DIST, 1));
        assert!(idx.check_invariants().is_err());
    }
}

/// Appendix C.1's IncSPC / DecSPC, tested through the facade.
#[cfg(test)]
mod update {
    mod tests {
        use crate::directed::{directed_spc_query, DirectedSpcIndex, DynamicDirectedSpc};
        use crate::order::OrderingStrategy;
        use dspc_graph::generators::random::{erdos_renyi_gnm, random_orientation};
        use dspc_graph::traversal::dbfs::DirectedBfsCounter;
        use dspc_graph::{DirectedGraph, VertexId};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn assert_matches_oracle(g: &DirectedGraph, index: &DirectedSpcIndex) {
            let mut bfs = DirectedBfsCounter::new(g.capacity());
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(
                        directed_spc_query(index, s, t).as_option(),
                        bfs.count(g, s, t),
                        "pair ({s:?} → {t:?})"
                    );
                }
            }
        }

        #[test]
        fn insert_creates_reachability() {
            let g = DirectedGraph::from_arcs(4, &[(0, 1), (2, 3)]);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            assert_eq!(d.query(VertexId(0), VertexId(3)), None);
            d.insert_arc(VertexId(1), VertexId(2)).unwrap();
            assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
            assert_matches_oracle(d.graph(), d.index());
        }

        #[test]
        fn insert_parallel_path_updates_counts() {
            let g = DirectedGraph::from_arcs(4, &[(0, 1), (1, 3), (0, 2)]);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            d.insert_arc(VertexId(2), VertexId(3)).unwrap();
            assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 2)));
            assert_matches_oracle(d.graph(), d.index());
        }

        #[test]
        fn delete_reroutes_and_disconnects() {
            let g = DirectedGraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 1)));
            d.delete_arc(VertexId(4), VertexId(3)).unwrap();
            assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
            assert_matches_oracle(d.graph(), d.index());
            d.delete_arc(VertexId(2), VertexId(3)).unwrap();
            assert_eq!(d.query(VertexId(0), VertexId(3)), None);
            assert_matches_oracle(d.graph(), d.index());
        }

        #[test]
        fn reciprocal_arcs_are_independent() {
            let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            d.delete_arc(VertexId(1), VertexId(2)).unwrap();
            assert_eq!(d.query(VertexId(0), VertexId(2)), None);
            assert_eq!(d.query(VertexId(2), VertexId(0)), Some((2, 1)));
            assert_matches_oracle(d.graph(), d.index());
        }

        #[test]
        fn random_hybrid_streams_match_oracle() {
            let mut rng = StdRng::seed_from_u64(777);
            for trial in 0..5 {
                let base = erdos_renyi_gnm(22 + trial, 50, &mut rng);
                let g = random_orientation(&base, 0.25, &mut rng);
                let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
                for step in 0..24 {
                    if rng.gen_bool(0.6) || d.graph().num_arcs() == 0 {
                        loop {
                            let a = rng.gen_range(0..d.graph().capacity() as u32);
                            let b = rng.gen_range(0..d.graph().capacity() as u32);
                            if a != b && !d.graph().has_arc(VertexId(a), VertexId(b)) {
                                d.insert_arc(VertexId(a), VertexId(b)).unwrap();
                                break;
                            }
                        }
                    } else {
                        let arcs: Vec<_> = d.graph().arcs().collect();
                        let (a, b) = arcs[rng.gen_range(0..arcs.len())];
                        d.delete_arc(a, b).unwrap();
                    }
                    if step % 6 == 5 {
                        assert_matches_oracle(d.graph(), d.index());
                        d.index().check_invariants().unwrap();
                    }
                }
                assert_matches_oracle(d.graph(), d.index());
            }
        }

        #[test]
        fn delete_missing_arc_errors() {
            let g = DirectedGraph::from_arcs(2, &[(0, 1)]);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            assert!(d.delete_arc(VertexId(1), VertexId(0)).is_err());
        }

        #[test]
        fn vertex_lifecycle_directed() {
            let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 2)]);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            let v = d.add_vertex();
            assert_eq!(v, VertexId(3));
            d.insert_arc(VertexId(2), v).unwrap();
            d.insert_arc(v, VertexId(0)).unwrap();
            assert_eq!(d.query(VertexId(0), v), Some((3, 1)));
            assert_eq!(d.query(v, VertexId(1)), Some((2, 1)));
            assert_matches_oracle(d.graph(), d.index());
            d.delete_vertex(v).unwrap();
            assert_matches_oracle(d.graph(), d.index());
            d.index().check_invariants().unwrap();
        }
    }
}
