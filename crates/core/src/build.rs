//! HP-SPC — hub-pushing construction of the SPC-Index (§2.2, following
//! Zhang & Yu \[30\]).
//!
//! Vertices are processed in descending rank order. Each hub `h` runs a
//! counting BFS inside `G_h` — the subgraph induced by vertices ranked no
//! higher than `h` — and a label `(h, D[w], C[w])` is pushed into `L(w)` for
//! every vertex `w` the BFS reaches *unless* the partial index already
//! certifies a strictly shorter `h`–`w` distance. The sweep is IncSPC's
//! [`crate::engine::UpdateEngine::inc_pass`] seeded at `h` with `(0, 1)`:
//! no row holds an `(h, ·, ·)` entry yet, so every emission is an
//! insertion. The directed and weighted builds and adjacent-rank re-rank
//! run on the same sweep.
//!
//! The pruning is **strict** (`query(h, w) < D[w]`), unlike distance-PLL's
//! `<=`: when the existing index ties the BFS distance, the tying paths run
//! through higher-ranked hubs while the BFS paths live entirely inside
//! `G_h` and have `h` as their highest-ranked vertex — those paths are
//! counted nowhere else, so the label must still be emitted (it becomes one
//! of the paper's *non-canonical* labels, e.g. `(v2, 2, 1) ∈ L(v8)` in
//! Table 2).

use crate::engine::{Pipeline, Undirected};
use crate::index::SpcIndex;
use crate::order::{OrderingStrategy, RankMap};
use dspc_graph::UndirectedGraph;

/// One-shot build: the SPC-Index of `g` under a fresh `strategy` order.
/// [`crate::DynamicSpc`] builds and rebuilds through the [`Pipeline`] it
/// owns instead, reusing its scratch.
pub fn build_index(g: &UndirectedGraph, strategy: OrderingStrategy) -> SpcIndex {
    Pipeline::<Undirected>::new(g.capacity()).build(g, strategy)
}

/// One-shot build under an existing ordering (the reconstruction baseline).
pub fn rebuild_index(g: &UndirectedGraph, ranks: RankMap) -> SpcIndex {
    Pipeline::<Undirected>::new(g.capacity()).rebuild(g, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::spc_query;
    use dspc_graph::generators::classic::*;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::*;
    use dspc_graph::traversal::bfs::BfsCounter;
    use dspc_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_bfs(g: &UndirectedGraph, index: &SpcIndex) {
        let mut bfs = BfsCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                let expect = bfs.count(g, s, t);
                let got = spc_query(index, s, t).as_option();
                assert_eq!(got, expect, "pair ({s:?}, {t:?})");
            }
        }
    }

    #[test]
    fn figure2_reproduces_table2_exactly() {
        // Under the paper's identity ordering the built index must equal
        // Table 2 label for label.
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Identity);
        index.check_invariants().unwrap();
        let expected = crate::query::tests::table2_index();
        for v in 0..12u32 {
            assert_eq!(
                index.label_set(VertexId(v)),
                expected.label_set(VertexId(v)),
                "L(v{v})"
            );
        }
    }

    #[test]
    fn classics_match_bfs() {
        for g in [
            path_graph(12),
            cycle_graph(9),
            star_graph(8),
            complete_graph(6),
            grid_graph(4, 5),
            two_cliques_bridge(4),
        ] {
            for strategy in [
                OrderingStrategy::Degree,
                OrderingStrategy::Identity,
                OrderingStrategy::Random(3),
            ] {
                let index = build_index(&g, strategy);
                index.check_invariants().unwrap();
                assert_matches_bfs(&g, &index);
            }
        }
    }

    #[test]
    fn random_graphs_match_bfs() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..10 {
            let n = rng.gen_range(10..60);
            let m = rng.gen_range(n..4 * n);
            let g = erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), &mut rng);
            let index = build_index(&g, OrderingStrategy::Degree);
            index.check_invariants().unwrap();
            assert_matches_bfs(&g, &index);
        }
    }

    #[test]
    fn disconnected_graph_supported() {
        let mut g = path_graph(6);
        g.delete_edge(VertexId(2), VertexId(3)).unwrap();
        let index = build_index(&g, OrderingStrategy::Degree);
        assert_matches_bfs(&g, &index);
        assert!(!spc_query(&index, VertexId(0), VertexId(5)).is_connected());
    }

    #[test]
    fn deleted_vertices_get_self_labels() {
        let mut g = path_graph(5);
        g.delete_vertex(VertexId(2)).unwrap();
        let index = build_index(&g, OrderingStrategy::Degree);
        index.check_invariants().unwrap();
        assert_matches_bfs(&g, &index);
        assert_eq!(index.label_set(VertexId(2)).len(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let g = UndirectedGraph::new();
        let index = build_index(&g, OrderingStrategy::Degree);
        assert_eq!(index.num_entries(), 0);
        let g1 = UndirectedGraph::with_vertices(1);
        let i1 = build_index(&g1, OrderingStrategy::Degree);
        assert_eq!(
            spc_query(&i1, VertexId(0), VertexId(0)).as_option(),
            Some((0, 1))
        );
    }

    #[test]
    fn degree_order_index_not_larger_than_random() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(200, 3, &mut rng);
        let by_degree = build_index(&g, OrderingStrategy::Degree).num_entries();
        let by_random = build_index(&g, OrderingStrategy::Random(1)).num_entries();
        assert!(
            by_degree <= by_random,
            "degree ordering should prune at least as well: {by_degree} vs {by_random}"
        );
    }

    #[test]
    fn builder_reuse_is_clean() {
        let mut b = Pipeline::<Undirected>::new(0);
        let g1 = cycle_graph(7);
        let i1 = b.build(&g1, OrderingStrategy::Degree);
        let g2 = grid_graph(3, 3);
        let i2 = b.build(&g2, OrderingStrategy::Degree);
        assert_matches_bfs(&g1, &i1);
        assert_matches_bfs(&g2, &i2);
        assert_eq!(i1, build_index(&g1, OrderingStrategy::Degree));
        assert_eq!(i2, build_index(&g2, OrderingStrategy::Degree));
    }

    #[test]
    fn rebuild_with_existing_ranks_is_deterministic() {
        let g = figure2_g();
        let ranks = RankMap::build(&g, OrderingStrategy::Degree);
        let a = rebuild_index(&g, ranks.clone());
        let b = rebuild_index(&g, ranks);
        assert_eq!(a, b);
    }
}
