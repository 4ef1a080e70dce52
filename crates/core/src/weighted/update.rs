//! Weighted IncSPC / DecSPC (Appendix C.2).
//!
//! * **Incremental** (`insert_edge`): edge insertion, or weight decrease
//!   `w_ab → w'_ab`. For each hub `h ∈ L(a) ∪ L(b)` a partial Dijkstra
//!   starts across the edge with initial distance `d_{h,a} + w'_ab` and
//!   count `c_{h,a}`, renewing/inserting labels under the strict
//!   settle-time prune `query(h, v) < D[v]`.
//! * **Decremental** (`delete_edge` / `increase_weight`): the affected
//!   vertex condition becomes `sd_i(v, a) + w_ab = sd_i(v, b)` (weight, not
//!   hops). `SrrSEARCH` runs Dijkstra on the old graph; `DecUPDATE` runs
//!   rank-pruned Dijkstra from each `SR` hub on the new graph with
//!   `PreQUERY` pruning and the (unconditional — see [`crate::engine`])
//!   removal pass.

use super::WeightedSpcIndex;
use crate::engine::{DecPipeline, MaintenanceCounters, PushPipeline, Weighted};
use dspc_graph::weighted::{Weight, WeightedGraph};
use dspc_graph::VertexId;

/// Weighted incremental driver: the shared [`PushPipeline`] over weighted
/// edges, running partial Dijkstras through [`crate::engine::WeightedTopo`]
/// views. Its [`insert_edge`](PushPipeline::insert_edge) also repairs a
/// weight decrease, seeding each sweep across the edge's current weight.
pub type WeightedIncSpc = PushPipeline<Weighted>;

/// Weighted decremental driver: the deletion/weight-increase policy over
/// the shared [`DecPipeline`].
#[derive(Debug)]
pub struct WeightedDecSpc {
    pipeline: DecPipeline<Weighted>,
}

impl WeightedDecSpc {
    /// Creates an engine.
    pub fn new(capacity: usize) -> Self {
        WeightedDecSpc {
            pipeline: DecPipeline::new(capacity),
        }
    }

    /// Deletes edge `(a, b)` and repairs the index, speculating the repair
    /// sweeps over up to `threads` threads ([`DecPipeline::delete_one`]).
    /// Returns the counters.
    pub fn delete_edge(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.pipeline
            .delete_one(
                g,
                index,
                (a, b),
                |g| g.delete_edge(a, b).map(drop),
                false,
                threads,
            )
            .map(|(stats, _)| stats)
    }

    /// Increases the weight of `(a, b)` to `new_w` and repairs the index:
    /// the single-edge deletion pipeline with the weight raise as its
    /// mutation, classifying with the old weight as the edge length, on up
    /// to `threads` threads. Returns the counters.
    pub fn increase_weight(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        new_w: Weight,
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let w = g
            .weight(a, b)
            .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
        assert!(
            new_w > w,
            "increase_weight requires a strictly larger weight"
        );
        self.pipeline
            .delete_one(
                g,
                index,
                (a, b),
                |g| g.set_weight(a, b, new_w).map(drop),
                false,
                threads,
            )
            .map(|(stats, _)| stats)
    }

    /// Multi-edge `SrrSEARCH` repair: deletes every edge of `edges` from
    /// `g` and repairs `index` with one rank-pruned Dijkstra per distinct
    /// affected hub, classifying with each edge's pre-deletion weight as
    /// its length, and repairing, on up to `threads` threads
    /// ([`DecPipeline::delete_batch`]). All edges are validated present
    /// (and pairwise distinct) before the first mutation.
    pub fn delete_edges(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        edges: &[(VertexId, VertexId)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.pipeline.delete_batch(g, index, edges, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderingStrategy;
    use crate::weighted::{weighted_spc_query, DynamicWeightedSpc};
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_weights};
    use dspc_graph::traversal::dijkstra::DijkstraCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_oracle(g: &WeightedGraph, index: &WeightedSpcIndex) {
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
    fn insert_edge_incremental() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 2)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 1)));
        d.insert_edge(VertexId(0), VertexId(3), 6).unwrap();
        // Equal-length alternative: counts accumulate.
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.insert_edge(VertexId(0), VertexId(2), 1).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn decrease_weight_is_incremental() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 20)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 1)));
        d.set_weight(VertexId(0), VertexId(2), 10).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 2)));
        d.set_weight(VertexId(0), VertexId(2), 3).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn increase_weight_is_decremental() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 3)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((3, 1)));
        d.set_weight(VertexId(0), VertexId(2), 10).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.set_weight(VertexId(0), VertexId(2), 50).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn delete_edge_decremental() {
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 3, 2)],
        );
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 3)));
        d.delete_edge(VertexId(0), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_edge(VertexId(1), VertexId(3)).unwrap();
        d.delete_edge(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn vertex_lifecycle_weighted() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        let v = d.add_vertex();
        d.insert_edge(v, VertexId(0), 1).unwrap();
        d.insert_edge(v, VertexId(2), 1).unwrap();
        // Shortcut through the new vertex: 0 → v → 2 costs 2 < 5.
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_vertex(v).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((5, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.index().check_invariants().unwrap();
    }

    #[test]
    fn random_weighted_update_streams() {
        let mut rng = StdRng::seed_from_u64(2718);
        for trial in 0..4 {
            let base = erdos_renyi_gnm(20 + trial * 4, 55, &mut rng);
            let g = random_weights(&base, 5, &mut rng);
            let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
            for step in 0..20 {
                let roll: f64 = rng.gen();
                if roll < 0.35 || d.graph().num_edges() == 0 {
                    loop {
                        let a = rng.gen_range(0..d.graph().capacity() as u32);
                        let b = rng.gen_range(0..d.graph().capacity() as u32);
                        if a != b && !d.graph().has_edge(VertexId(a), VertexId(b)) {
                            d.insert_edge(VertexId(a), VertexId(b), rng.gen_range(1..=5))
                                .unwrap();
                            break;
                        }
                    }
                } else if roll < 0.6 {
                    let edges: Vec<_> = d.graph().edges().collect();
                    let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                    d.delete_edge(a, b).unwrap();
                } else {
                    let edges: Vec<_> = d.graph().edges().collect();
                    let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                    d.set_weight(a, b, rng.gen_range(1..=8)).unwrap();
                }
                if step % 5 == 4 {
                    assert_matches_oracle(d.graph(), d.index());
                    d.index().check_invariants().unwrap();
                }
            }
            assert_matches_oracle(d.graph(), d.index());
        }
    }
}
