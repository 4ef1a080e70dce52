//! Weighted HP-SPC: Dijkstra hub pushing (Appendix C.2).
//!
//! Identical structure to the unweighted build with Dijkstra in place of
//! BFS: vertices settle in weighted-distance order, the settle step carries
//! the strict prune (`query(h, v) < D[v]`), labels are emitted at settle
//! time when not pruned, and relaxations observe rank pruning — the same
//! [`crate::engine::UpdateEngine::inc_pass`] seeded at the hub, over a
//! [`crate::engine::Topo`] view.

use super::WeightedSpcIndex;
use crate::engine::{Pipeline, Weighted};
use crate::order::{OrderingStrategy, RankMap};
use dspc_graph::weighted::WeightedGraph;

/// One-shot weighted build. `Degree` ranks by structural degree: the
/// heuristic the paper inherits, since weights do not change who the
/// likely hubs are.
pub fn build_weighted_index(g: &WeightedGraph, strategy: OrderingStrategy) -> WeightedSpcIndex {
    Pipeline::<Weighted>::new(g.capacity()).build(g, strategy)
}

/// One-shot weighted build over an explicit rank map — the comparison
/// target for [`crate::reorder::rerank_adjacent`].
pub fn rebuild_weighted_index(g: &WeightedGraph, ranks: RankMap) -> WeightedSpcIndex {
    Pipeline::<Weighted>::new(g.capacity()).rebuild(g, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::weighted_spc_query;
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_weights};
    use dspc_graph::traversal::dijkstra::DijkstraCounter;
    use dspc_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn assert_matches_dijkstra(g: &WeightedGraph, index: &WeightedSpcIndex) {
        let mut dj = DijkstraCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    weighted_spc_query(index, s, t).as_option(),
                    dj.count(g, s, t),
                    "pair ({s:?}, {t:?})"
                );
            }
        }
    }

    #[test]
    fn weighted_diamond() {
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 2)],
        );
        let idx = build_weighted_index(&g, OrderingStrategy::Degree);
        idx.check_invariants().unwrap();
        assert_eq!(
            weighted_spc_query(&idx, VertexId(0), VertexId(3)).as_option(),
            Some((2, 3))
        );
        assert_matches_dijkstra(&g, &idx);
    }

    #[test]
    fn random_weighted_graphs_match_oracle() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..6 {
            let base = erdos_renyi_gnm(30, 70, &mut rng);
            let g = random_weights(&base, 6, &mut rng);
            for strategy in [OrderingStrategy::Degree, OrderingStrategy::Random(2)] {
                let idx = build_weighted_index(&g, strategy);
                idx.check_invariants().unwrap();
                assert_matches_dijkstra(&g, &idx);
            }
        }
    }

    #[test]
    fn unit_weights_match_unweighted_index() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = erdos_renyi_gnm(25, 60, &mut rng);
        let g = random_weights(&base, 1, &mut rng);
        let widx = build_weighted_index(&g, OrderingStrategy::Degree);
        let uidx = crate::build::build_index(&base, OrderingStrategy::Degree);
        for s in base.vertices() {
            for t in base.vertices() {
                let w = weighted_spc_query(&widx, s, t).as_option();
                let u = crate::query::spc_query(&uidx, s, t)
                    .as_option()
                    .map(|(d, c)| (d as u64, c));
                assert_eq!(w, u);
            }
        }
    }

    #[test]
    fn deleted_vertex_gets_bare_self_label() {
        let mut rng = StdRng::seed_from_u64(32);
        let base = erdos_renyi_gnm(20, 50, &mut rng);
        let mut g = random_weights(&base, 5, &mut rng);
        g.delete_vertex(VertexId(4)).unwrap();
        for strategy in [OrderingStrategy::Degree, OrderingStrategy::Identity] {
            let idx = build_weighted_index(&g, strategy);
            idx.check_invariants().unwrap();
            assert_matches_dijkstra(&g, &idx);
            assert_eq!(idx.label_set(VertexId(4)).len(), 1);
        }
    }
}
