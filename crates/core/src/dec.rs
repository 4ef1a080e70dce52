//! DecSPC — decremental SPC-Index maintenance under edge deletion
//! (Algorithms 4, 5, and 6, §3.2).
//!
//! Deletions are the hard direction: distances can *increase*, so stale
//! labels would underestimate queries and must be found. DecSPC works in
//! two phases:
//!
//! 1. **`SrrSEARCH`** (Algorithm 5) runs on the *pre-deletion* graph: a
//!    full-counting BFS from each endpoint classifies every vertex with a
//!    shortest path through `(a, b)` into
//!    * `SR` (*Sender-and-Receiver*, Definition 3.10) — hubs whose outgoing
//!      labels `(v, ·, ·)` may need renewal/insertion/removal: either
//!      condition **A** (`v` is a common hub of `a` and `b` — at least one
//!      top-ranked shortest path crosses the edge) or condition **B**
//!      (`spc_i(v, a) = spc_i(v, b)` — *every* shortest path to the far
//!      endpoint crosses the edge, so a brand-new top-ranked path may
//!      emerge, Figure 4's `w`), or
//!    * `R` (*Receiver-Only*, Definition 3.12) — vertices whose own label
//!      set may change but who never need a BFS of their own.
//! 2. **`DecUPDATE`** (Algorithm 6) runs on the *post-deletion* graph: for
//!    each hub `h ∈ SR` in descending rank order, a rank-pruned counting
//!    BFS from `h` repairs `(h, ·, ·)` labels of reached vertices in the
//!    *opposite side's* `SR ∪ R` (Lemma 3.14), pruning where `PreQUERY`
//!    (hubs ranked strictly above `h`, already repaired) certifies a
//!    shorter path. Labels of opposite-side vertices the BFS never updated
//!    are removed afterwards — unconditionally, not only for common hubs
//!    of `a` and `b` as in the paper's Algorithm 6: the common-hub gate is
//!    unsound once Lemma 3.1's kept-stale labels are in play (see
//!    [`crate::engine`] module docs for the counterexample).
//!
//! The isolated-vertex optimization (§3.2.3) short-circuits the whole
//! procedure when the deletion strands a degree-one endpoint that no label
//! anywhere uses as a hub (tracked exactly by the index's hub-entry
//! counts; [`crate::engine::Variant::pendant_fast_path`]).

use crate::engine::{Pipeline, Undirected};

pub use crate::engine::{DecMode, SrrOutcome};

/// Reusable DecSPC driver (Algorithm 4): the shared [`Pipeline`] over the
/// undirected variant, with the §3.2.3 isolated-vertex fast path and the
/// [`DecMode`] ablation hook ([`Pipeline::delete_edge_with_mode`]).
/// [`crate::DynamicSpc`] sequences it with the graph for you.
pub type DecSpc = Pipeline<Undirected>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::engine::MaintenanceCounters;
    use crate::index::SpcIndex;
    use crate::order::OrderingStrategy;
    use crate::query::spc_query;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::{figure2_g, figure4_toy, figure5_chain};
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use dspc_graph::{UndirectedGraph, VertexId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Algorithm 5 — `SR_a, R_a` (the sweep from `a`, classifying against
    /// queries to `b`) and symmetrically `SR_b, R_b`, on the pre-deletion
    /// graph, as Algorithm 4 computes them. The deletion itself runs on a
    /// copy, without the §3.2.3 fast path.
    fn srr_search(g: &UndirectedGraph, index: &SpcIndex, a: VertexId, b: VertexId) -> SrrOutcome {
        let (mut g, mut index) = (g.clone(), index.clone());
        DecSpc::new(g.capacity())
            .delete_one(
                &mut g,
                &mut index,
                (a, b),
                |g| g.delete_edge(a, b),
                false,
                1,
            )
            .unwrap()
            .1
    }

    fn delete_and_verify(
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        engine: &mut DecSpc,
        a: u32,
        b: u32,
    ) -> (MaintenanceCounters, SrrOutcome) {
        let out = engine
            .delete_edge(g, index, VertexId(a), VertexId(b), 2)
            .unwrap();
        verify_all_pairs(g, index).unwrap();
        index.check_invariants().unwrap();
        out
    }

    #[test]
    fn paper_example_3_13_sr_and_r_sets() {
        // Deleting (v1, v2) from Figure 2's G: SR_v1 = {v1, v6, v10},
        // SR_v2 = {v2}, R_v2 = {v3, v7}, R_v1 = ∅.
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Identity);
        let srr = srr_search(&g, &index, VertexId(1), VertexId(2));
        let as_set = |v: &[VertexId]| {
            let mut s: Vec<u32> = v.iter().map(|x| x.0).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(as_set(&srr.sr_a), vec![1, 6, 10]);
        assert_eq!(as_set(&srr.r_a), Vec::<u32>::new());
        assert_eq!(as_set(&srr.sr_b), vec![2]);
        assert_eq!(as_set(&srr.r_b), vec![3, 7]);
    }

    #[test]
    fn paper_example_3_15_delete_v1_v2() {
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        let (stats, _) = delete_and_verify(&mut g, &mut index, &mut engine, 1, 2);

        // Figure 6(d): (v1,1,1) ∈ L(v2) renewed to (v1,2,1).
        let e = *index.label_of(VertexId(2), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (2, 1));
        // (v1,2,1) ∈ L(v3) deleted in the removal pass.
        assert!(index.label_of(VertexId(3), VertexId(1)).is_none());
        // (v1,3,2) ∈ L(v7) renewed to (v1,3,1).
        let e = *index.label_of(VertexId(7), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (3, 1));
        // New label (v2,4,1) inserted into L(v10).
        let e = *index.label_of(VertexId(10), VertexId(2)).unwrap();
        assert_eq!((e.dist, e.count), (4, 1));
        assert!(stats.removed >= 1);
        assert!(stats.inserted >= 1);
    }

    #[test]
    fn figure4_condition_b_emergence() {
        // Deleting (a, b) = (2, 3): label (h,3,1) ∈ L(u) must become
        // (h,6,1) and (w,5,1) must appear although w labeled neither
        // endpoint (condition B hub).
        let mut g = figure4_toy();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        assert!(index.label_of(VertexId(2), VertexId(1)).is_none()); // w ∉ L(a)
        let mut engine = DecSpc::new(g.capacity());
        delete_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        let e = *index.label_of(VertexId(4), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (6, 1));
        let e = *index.label_of(VertexId(4), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (5, 1));
    }

    #[test]
    fn figure5_condition_a_renewals() {
        let mut g = figure5_chain();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        delete_and_verify(&mut g, &mut index, &mut engine, 3, 4);
        // (v1, 3, 1) → (v1, 5, 1) and (v2, 3, 2) → (v2, 3, 1) in L(u).
        let e = *index.label_of(VertexId(5), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (5, 1));
        let e = *index.label_of(VertexId(5), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (3, 1));
    }

    #[test]
    fn disconnecting_bridge_removes_labels() {
        let mut g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = DecSpc::new(g.capacity());
        let (stats, _) = delete_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        assert!(!spc_query(&index, VertexId(0), VertexId(5)).is_connected());
        assert!(stats.removed > 0 || stats.isolated_fast_path);
    }

    #[test]
    fn isolated_vertex_fast_path() {
        // Pendant vertex hanging off a triangle: the pendant has degree 1
        // and the lowest degree, hence the lowest rank under degree order.
        let mut g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = DecSpc::new(g.capacity());
        let (stats, srr) = delete_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        assert!(stats.isolated_fast_path);
        assert!(stats.removed >= 1);
        assert!(srr.sr_a.is_empty() && srr.sr_b.is_empty());
        assert_eq!(index.label_set(VertexId(3)).len(), 1);
    }

    #[test]
    fn fast_path_skipped_when_pendant_ranks_higher() {
        // Force the pendant to rank *highest* via identity order on ids
        // chosen so the pendant is vertex 0: the general path must run and
        // remove hub-0 labels from the rest of the graph.
        let mut g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
        let mut index = build_index(&g, OrderingStrategy::Identity);
        assert!(index.label_of(VertexId(3), VertexId(0)).is_some());
        let mut engine = DecSpc::new(g.capacity());
        let (stats, _) = delete_and_verify(&mut g, &mut index, &mut engine, 0, 1);
        assert!(!stats.isolated_fast_path);
        assert!(index.label_of(VertexId(3), VertexId(0)).is_none());
        assert!(stats.removed >= 1);
    }

    #[test]
    fn delete_missing_edge_errors() {
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        assert!(engine
            .delete_edge(&mut g, &mut index, VertexId(0), VertexId(9), 1)
            .is_err());
    }

    #[test]
    fn random_deletion_streams_stay_correct() {
        let mut rng = StdRng::seed_from_u64(555);
        for trial in 0..6 {
            let n = 25 + trial * 5;
            let mut g = erdos_renyi_gnm(n, 3 * n, &mut rng);
            let mut index = build_index(&g, OrderingStrategy::Degree);
            let mut engine = DecSpc::new(g.capacity());
            for _ in 0..10 {
                let m = g.num_edges();
                if m == 0 {
                    break;
                }
                let (a, b) = g.nth_edge(rng.gen_range(0..m)).unwrap();
                engine.delete_edge(&mut g, &mut index, a, b, 2).unwrap();
                verify_all_pairs(&g, &index).unwrap();
                index.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn every_edge_of_figure2_deletes_cleanly() {
        let base = figure2_g();
        let edges: Vec<_> = base.edges().collect();
        for &(a, b) in &edges {
            let mut g = figure2_g();
            let mut index = build_index(&g, OrderingStrategy::Identity);
            let mut engine = DecSpc::new(g.capacity());
            delete_and_verify(&mut g, &mut index, &mut engine, a.0, b.0);
        }
    }

    #[test]
    fn fast_path_is_a_pure_optimization() {
        // Delete pendant edges both with and without the §3.2.3 fast path;
        // the resulting indexes must answer identically everywhere.
        let mut rng = StdRng::seed_from_u64(909);
        for _ in 0..5 {
            let mut g0 = erdos_renyi_gnm(25, 50, &mut rng);
            // Attach a pendant chain so pendant deletions exist.
            let p = g0.add_vertex();
            g0.insert_edge(VertexId(0), p).unwrap();
            let targets: Vec<(VertexId, VertexId)> = g0
                .edges()
                .filter(|&(u, v)| g0.degree(u) == 1 || g0.degree(v) == 1)
                .collect();
            for &(a, b) in &targets {
                let mut fast_g = g0.clone();
                let mut fast_idx = build_index(&fast_g, OrderingStrategy::Degree);
                let mut slow_g = g0.clone();
                let mut slow_idx = build_index(&slow_g, OrderingStrategy::Degree);
                let mut engine = DecSpc::new(g0.capacity());
                engine
                    .delete_edge(&mut fast_g, &mut fast_idx, a, b, 1)
                    .unwrap();
                // Algorithm 4 itself, which never takes the fast path.
                engine
                    .delete_one(
                        &mut slow_g,
                        &mut slow_idx,
                        (a, b),
                        |g| g.delete_edge(a, b),
                        false,
                        1,
                    )
                    .unwrap();
                for s in fast_g.vertices() {
                    for t in fast_g.vertices() {
                        assert_eq!(
                            spc_query(&fast_idx, s, t),
                            spc_query(&slow_idx, s, t),
                            "edge ({a:?},{b:?}), pair ({s:?},{t:?})"
                        );
                    }
                }
                verify_all_pairs(&fast_g, &fast_idx).unwrap();
            }
        }
    }

    #[test]
    fn naive_mode_stays_correct_and_does_more_work() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut total_sr = 0usize;
        let mut total_naive = 0usize;
        for _ in 0..5 {
            let g0 = erdos_renyi_gnm(30, 90, &mut rng);
            let m = g0.num_edges();
            let (a, b) = g0.nth_edge(rng.gen_range(0..m)).unwrap();
            for mode in [DecMode::SrOnly, DecMode::NaiveAffected] {
                let mut g = g0.clone();
                let mut index = build_index(&g, OrderingStrategy::Degree);
                let mut engine = DecSpc::new(g.capacity());
                let (stats, _) = engine
                    .delete_edge_with_mode(&mut g, &mut index, a, b, mode, 1)
                    .unwrap();
                verify_all_pairs(&g, &index).unwrap();
                match mode {
                    DecMode::SrOnly => total_sr += stats.hubs_processed,
                    DecMode::NaiveAffected => total_naive += stats.hubs_processed,
                }
            }
        }
        assert!(
            total_naive >= total_sr,
            "naive must process at least as many hubs: {total_naive} vs {total_sr}"
        );
    }

    #[test]
    fn delete_then_full_drain() {
        // Deleting every edge one by one must end at the all-isolated
        // index with only self labels.
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        while g.num_edges() > 0 {
            let (a, b) = g.nth_edge(0).unwrap();
            engine.delete_edge(&mut g, &mut index, a, b, 1).unwrap();
        }
        verify_all_pairs(&g, &index).unwrap();
        assert_eq!(index.num_entries(), 12);
    }
}
