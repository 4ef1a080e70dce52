//! Directed HP-SPC: two rank-pruned counting BFSs per hub.
//!
//! For hub `h` (descending rank): a **forward** sweep over out-arcs inside
//! `G_h` emits `(h, D[w], C[w])` into `L_in(w)`; a **backward** sweep over
//! in-arcs emits into `L_out(w)`. Pruning compares against the partial
//! index in the matching direction (`L_out(h) ⋈ L_in(w)` forward,
//! `L_out(w) ⋈ L_in(h)` backward), strictly, as in the undirected build.
//! Both sweeps are [`crate::engine::UpdateEngine::inc_pass`] seeded at the
//! hub, through a [`crate::engine::Topo`] view of the family they write.

use super::DirectedSpcIndex;
use crate::engine::{Directed, Pipeline};
use crate::order::{OrderingStrategy, RankMap};
use dspc_graph::DirectedGraph;

/// One-shot directed build (ranked by in + out degree under `Degree`).
pub fn build_directed_index(g: &DirectedGraph, strategy: OrderingStrategy) -> DirectedSpcIndex {
    Pipeline::<Directed>::new(g.capacity()).build(g, strategy)
}

/// One-shot directed build over an explicit rank map — the comparison
/// target for [`crate::reorder::rerank_adjacent`].
pub fn rebuild_directed_index(g: &DirectedGraph, ranks: RankMap) -> DirectedSpcIndex {
    Pipeline::<Directed>::new(g.capacity()).rebuild(g, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::directed_spc_query;
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_orientation};
    use dspc_graph::traversal::dbfs::DirectedBfsCounter;
    use dspc_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn assert_matches_dbfs(g: &DirectedGraph, index: &DirectedSpcIndex) {
        let mut bfs = DirectedBfsCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                let expect = bfs.count(g, s, t);
                let got = directed_spc_query(index, s, t).as_option();
                assert_eq!(got, expect, "pair ({s:?} → {t:?})");
            }
        }
    }

    #[test]
    fn diamond_and_cycle() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let idx = build_directed_index(&g, OrderingStrategy::Degree);
        idx.check_invariants().unwrap();
        assert_matches_dbfs(&g, &idx);
        assert_eq!(
            directed_spc_query(&idx, VertexId(0), VertexId(3)).as_option(),
            Some((2, 2))
        );

        let c = DirectedGraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let idx = build_directed_index(&c, OrderingStrategy::Degree);
        assert_matches_dbfs(&c, &idx);
    }

    #[test]
    fn random_digraphs_match_oracle() {
        let mut rng = StdRng::seed_from_u64(404);
        for _ in 0..8 {
            let base = erdos_renyi_gnm(30, 70, &mut rng);
            let g = random_orientation(&base, 0.3, &mut rng);
            for strategy in [
                OrderingStrategy::Degree,
                OrderingStrategy::Identity,
                OrderingStrategy::Random(5),
            ] {
                let idx = build_directed_index(&g, strategy);
                idx.check_invariants().unwrap();
                assert_matches_dbfs(&g, &idx);
            }
        }
    }

    #[test]
    fn asymmetric_reachability() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let idx = build_directed_index(&g, OrderingStrategy::Degree);
        assert_eq!(
            directed_spc_query(&idx, VertexId(0), VertexId(2)).as_option(),
            Some((2, 1))
        );
        assert!(!directed_spc_query(&idx, VertexId(2), VertexId(0)).is_connected());
    }

    #[test]
    fn deleted_vertex_gets_bare_self_labels() {
        let mut rng = StdRng::seed_from_u64(405);
        let base = erdos_renyi_gnm(20, 50, &mut rng);
        let mut g = random_orientation(&base, 0.3, &mut rng);
        g.delete_vertex(VertexId(4)).unwrap();
        for strategy in [OrderingStrategy::Degree, OrderingStrategy::Identity] {
            let idx = build_directed_index(&g, strategy);
            idx.check_invariants().unwrap();
            assert_matches_dbfs(&g, &idx);
            assert_eq!(idx.label_in(VertexId(4)).len(), 1);
            assert_eq!(idx.label_out(VertexId(4)).len(), 1);
        }
    }
}
