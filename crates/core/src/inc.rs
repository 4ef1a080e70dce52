//! IncSPC — incremental SPC-Index maintenance under edge insertion
//! (Algorithms 2 and 3, §3.1).
//!
//! When edge `(a, b)` arrives, the affected hub set is
//! `AFF = hubs(L(a)) ∪ hubs(L(b))` — sufficient because a new shortest path
//! through `(a, b)` whose highest-ranked vertex is `h` decomposes at the new
//! edge into a prefix certified by `h ∈ L(a)` (or `L(b)`); a vertex labeling
//! neither endpoint cannot top any path through the edge (§3.1's `v8`
//! discussion).
//!
//! For each affected hub `h` (descending rank), a pruned counting BFS starts
//! *at the far endpoint*, seeded as if stepping across the new edge:
//! `D[b] = d + 1, C[b] = c` for `(h, d, c) ∈ L(a)`. The BFS prunes where the
//! current index already certifies a strictly smaller distance
//! (`SpcQUERY(h, v) < D[v]`, the *relaxed* condition of Lemma 3.4 that keeps
//! count-only changes reachable), renews or inserts labels elsewhere, and
//! observes rank pruning (`h ≤ w`) to preserve ESPC.
//!
//! Distance-stale labels are deliberately kept (Lemma 3.1): a label whose
//! distance is now an overestimate loses every query to some fresher hub,
//! so correctness survives and update time drops.

use crate::engine::{Pipeline, Undirected};

/// Reusable IncSPC driver (Algorithm 2): the shared [`Pipeline`] over the
/// undirected variant. [`insert_edge`](Pipeline::insert_edge) repairs the
/// index after the graph gained the edge ([`crate::DynamicSpc`] sequences
/// the two for you).
pub type IncSpc = Pipeline<Undirected>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::engine::MaintenanceCounters;
    use crate::index::SpcIndex;
    use crate::order::OrderingStrategy;
    use crate::query::spc_query;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::{barabasi_albert, erdos_renyi_gnm};
    use dspc_graph::{UndirectedGraph, VertexId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn insert_and_verify(
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        engine: &mut IncSpc,
        a: u32,
        b: u32,
    ) -> MaintenanceCounters {
        g.insert_edge(VertexId(a), VertexId(b)).unwrap();
        let stats = engine.insert_edge(g, index, VertexId(a), VertexId(b));
        verify_all_pairs(g, index).unwrap();
        stats
    }

    #[test]
    fn paper_example_3_5_insert_v3_v9() {
        // Figure 3: inserting (v3, v9) into G under the identity ordering.
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = IncSpc::new(g.capacity());
        insert_and_verify(&mut g, &mut index, &mut engine, 3, 9);

        // Figure 3(d) row 1: L(v9) hub v0 renewed from (v0,4,4) to (v0,2,1).
        let e = index.label_of(VertexId(9), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (2, 1));
        // Row 2: L(v4) hub v0 count renewed 3 → 4 at distance 3.
        let e = index.label_of(VertexId(4), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (3, 4));
        // Row 3: L(v10) hub v0 count renewed 1 → 2 at distance 3.
        let e = index.label_of(VertexId(10), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (3, 2));
        // Hub v1 block: L(v9) hub v1 renewed (v1,3,2) → (v1,3,3).
        let e = index.label_of(VertexId(9), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (3, 3));
        // Hub v2 block: (v2,3,1) → (v2,2,1) in L(v9); new (v2,3,1) in L(v10).
        let e = index.label_of(VertexId(9), VertexId(2)).unwrap();
        assert_eq!((e.dist, e.count), (2, 1));
        let e = index.label_of(VertexId(10), VertexId(2)).unwrap();
        assert_eq!((e.dist, e.count), (3, 1));
        // New hub v3 label at v9: distance 1.
        let e = index.label_of(VertexId(9), VertexId(3)).unwrap();
        assert_eq!((e.dist, e.count), (1, 1));
    }

    #[test]
    fn aff_excludes_uninvolved_hubs() {
        // §3.1: v8 ∉ AFF for the (v3, v9) insertion even though
        // sd(v8, v9) decreases.
        let g0 = figure2_g();
        let index = build_index(&g0, OrderingStrategy::Identity);
        let r8 = index.rank(VertexId(8));
        assert!(!index.label_set(VertexId(3)).contains(r8));
        assert!(!index.label_set(VertexId(9)).contains(r8));
        // And after the update the v8 labels elsewhere are untouched but
        // queries involving v8 are still exact (covered by other hubs) —
        // checked by verify_all_pairs in the previous test.
    }

    #[test]
    fn connects_two_components() {
        let mut g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        assert!(!spc_query(&index, VertexId(0), VertexId(5)).is_connected());
        let mut engine = IncSpc::new(g.capacity());
        let stats = insert_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        assert!(stats.inserted > 0);
        assert_eq!(
            spc_query(&index, VertexId(0), VertexId(5)).as_option(),
            Some((5, 1))
        );
    }

    #[test]
    fn parallel_shortest_path_only_changes_counts() {
        // Square 0-1-2-3-0: inserting chord creates new equal-length paths.
        let mut g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = IncSpc::new(g.capacity());
        let stats = insert_and_verify(&mut g, &mut index, &mut engine, 3, 4);
        // sd(0,4) stays 2 but gains no path; sd(2,4) stays 2 and gains one.
        assert_eq!(
            spc_query(&index, VertexId(2), VertexId(4)).as_option(),
            Some((2, 2))
        );
        assert!(stats.total_ops() > 0);
    }

    #[test]
    fn two_isolated_vertices_edge() {
        let mut g = UndirectedGraph::with_vertices(2);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = IncSpc::new(g.capacity());
        let stats = insert_and_verify(&mut g, &mut index, &mut engine, 0, 1);
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.renew_count + stats.renew_dist, 0);
    }

    #[test]
    fn random_insertion_streams_stay_correct() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..6 {
            let n = 30 + trial * 5;
            let mut g = erdos_renyi_gnm(n, 2 * n, &mut rng);
            let mut index = build_index(&g, OrderingStrategy::Degree);
            let mut engine = IncSpc::new(g.capacity());
            let mut applied = 0;
            while applied < 15 {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b || g.has_edge(VertexId(a), VertexId(b)) {
                    continue;
                }
                g.insert_edge(VertexId(a), VertexId(b)).unwrap();
                engine.insert_edge(&g, &mut index, VertexId(a), VertexId(b));
                applied += 1;
            }
            verify_all_pairs(&g, &index).unwrap();
            index.check_invariants().unwrap();
        }
    }

    #[test]
    fn scale_free_insertions_match_rebuild_queries() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut g = barabasi_albert(120, 2, &mut rng);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = IncSpc::new(g.capacity());
        for _ in 0..25 {
            loop {
                let a = rng.gen_range(0..120u32);
                let b = rng.gen_range(0..120u32);
                if a != b && !g.has_edge(VertexId(a), VertexId(b)) {
                    g.insert_edge(VertexId(a), VertexId(b)).unwrap();
                    engine.insert_edge(&g, &mut index, VertexId(a), VertexId(b));
                    break;
                }
            }
        }
        let rebuilt = crate::build::rebuild_index(&g, index.ranks().clone());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    spc_query(&index, s, t),
                    spc_query(&rebuilt, s, t),
                    "({s:?},{t:?})"
                );
            }
        }
    }

    #[test]
    fn stale_labels_are_kept_not_removed() {
        // Lemma 3.1: the maintained index may be a superset of the rebuilt
        // one, never smaller.
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = erdos_renyi_gnm(40, 80, &mut rng);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = IncSpc::new(g.capacity());
        for _ in 0..10 {
            loop {
                let a = rng.gen_range(0..40u32);
                let b = rng.gen_range(0..40u32);
                if a != b && !g.has_edge(VertexId(a), VertexId(b)) {
                    g.insert_edge(VertexId(a), VertexId(b)).unwrap();
                    engine.insert_edge(&g, &mut index, VertexId(a), VertexId(b));
                    break;
                }
            }
        }
        let rebuilt = crate::build::rebuild_index(&g, index.ranks().clone());
        assert!(index.num_entries() >= rebuilt.num_entries());
    }
}
