//! Weighted SPC-Index — the Appendix C.2 extension.
//!
//! Labels store accumulated edge weights instead of hop counts; Dijkstra
//! (with a priority queue) replaces BFS everywhere. Edge-weight *decreases*
//! (and insertions) are incremental updates; *increases* (and deletions)
//! are decremental, with the affected-vertex condition becoming
//! `|sd(v, a) − sd(v, b)| = w_ab`.
//!
//! Weighted labels carry `u64` accumulated weights in their own entry
//! type, [`WLabelEntry`]; the row storage ([`crate::label::LabelRow`]), the
//! query kernel and the pinned probe ([`crate::query`]) are the generic
//! ones the unweighted variants use, so the unweighted hot path keeps its
//! compact `u32` distances. [`WeightedSpcIndex`] is the label store over
//! [`Weighted`] and [`DynamicWeightedSpc`] the facade; the shared pipeline
//! runs partial Dijkstras through [`crate::engine::Topo`] views.
//!
//! ## IncSPC / DecSPC over weights
//!
//! * **Incremental** (edge insertion, or weight decrease
//!   `w_ab → w'_ab`). For each hub `h ∈ L(a) ∪ L(b)` a partial Dijkstra
//!   starts across the edge with initial distance `d_{h,a} + w'_ab` and
//!   count `c_{h,a}`, renewing/inserting labels under the strict
//!   settle-time prune `query(h, v) < D[v]`.
//! * **Decremental** (edge deletion, or weight increase): the affected
//!   vertex condition becomes `sd_i(v, a) + w_ab = sd_i(v, b)` (weight, not
//!   hops). `SrrSEARCH` runs Dijkstra on the old graph, with the old weight
//!   as the edge's length; `DecUPDATE` runs rank-pruned Dijkstra from each
//!   `SR` hub on the new graph with `PreQUERY` pruning and the
//!   (unconditional — see [`crate::engine`]) removal pass.

pub mod build;

pub use build::{build_weighted_index, rebuild_weighted_index};

use crate::dynamic::{Dynamic, UpdateStats};
use crate::engine::{Weighted, REPAIR_PRIMARY};
use crate::index::LabelIndex;
use crate::label::{Count, HubEntry, LabelRow, Rank};
use crate::query::{pre_query_rows, query_rows};
use dspc_graph::weighted::{WDist, Weight, WDIST_INF};
use dspc_graph::VertexId;
use serde::{Deserialize, Serialize};

/// One weighted hub label `(hub, dist, count)` with a `u64` distance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct WLabelEntry {
    /// Rank of the hub vertex.
    pub hub: Rank,
    /// Accumulated shortest-path weight from the hub.
    pub dist: WDist,
    /// `spc(ĥ, v)` under weighted shortest paths.
    pub count: Count,
}

impl WLabelEntry {
    /// Convenience constructor.
    pub fn new(hub: Rank, dist: WDist, count: Count) -> Self {
        WLabelEntry { hub, dist, count }
    }
}

impl HubEntry for WLabelEntry {
    type Dist = WDist;
    type Key = [u64; 2];
    #[inline]
    fn hub(&self) -> Rank {
        self.hub
    }
    #[inline]
    fn dist(&self) -> WDist {
        self.dist
    }
    #[inline]
    fn count(&self) -> Count {
        self.count
    }
    #[inline]
    fn new(hub: Rank, dist: WDist, count: Count) -> Self {
        WLabelEntry { hub, dist, count }
    }
}

/// A weighted label row, sorted by hub rank ascending — the same
/// copy-on-write storage as [`crate::label::LabelSet`].
pub type WLabelSet = LabelRow<WLabelEntry>;

/// The weighted SPC-Index.
pub type WeightedSpcIndex = LabelIndex<Weighted>;

impl WeightedSpcIndex {
    /// `L(v)`.
    #[inline]
    pub fn label_set(&self, v: VertexId) -> &WLabelSet {
        self.row(v, REPAIR_PRIMARY)
    }

    /// Raw mutable `L(v)` ([`LabelIndex::row_mut`]).
    #[inline]
    pub fn label_set_mut(&mut self, v: VertexId) -> &mut WLabelSet {
        self.row_mut(v, REPAIR_PRIMARY)
    }
}

/// Weighted query result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WQueryResult {
    /// Accumulated weight (`WDIST_INF` when disconnected).
    pub dist: WDist,
    /// Shortest-path count.
    pub count: Count,
}

impl WQueryResult {
    /// Whether connected.
    pub fn is_connected(&self) -> bool {
        self.dist != WDIST_INF
    }

    /// As `Option<(dist, count)>`.
    pub fn as_option(&self) -> Option<(WDist, Count)> {
        self.is_connected().then_some((self.dist, self.count))
    }
}

impl From<(WDist, Count)> for WQueryResult {
    fn from((dist, count): (WDist, Count)) -> Self {
        WQueryResult { dist, count }
    }
}

/// Weighted `SpcQUERY(s, t)`.
pub fn weighted_spc_query(index: &WeightedSpcIndex, s: VertexId, t: VertexId) -> WQueryResult {
    let (dist, count) = query_rows(index.label_set(s).view(), index.label_set(t).view());
    WQueryResult { dist, count }
}

/// Weighted `PreQUERY(s, t)`: [`weighted_spc_query`] restricted to hubs
/// ranked strictly above `s`.
pub fn weighted_pre_query(index: &WeightedSpcIndex, s: VertexId, t: VertexId) -> WQueryResult {
    let (dist, count) = pre_query_rows(
        index.label_set(s).view(),
        index.label_set(t).view(),
        index.rank(s),
    );
    WQueryResult { dist, count }
}

/// Weighted facade keeping a [`WeightedGraph`](dspc_graph::WeightedGraph)
/// and its index in lockstep: [`Dynamic`] over [`Weighted`].
pub type DynamicWeightedSpc = Dynamic<Weighted>;

impl Dynamic<Weighted> {
    /// Inserts edge `(a, b)` with weight `w` (incremental update).
    pub fn insert_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> dspc_graph::Result<UpdateStats> {
        self.insert(a, b, w)
    }

    /// Changes the weight of `(a, b)`: decreases run the incremental
    /// machinery, increases the decremental one, equal weights are no-ops.
    pub fn set_weight(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> dspc_graph::Result<UpdateStats> {
        self.rewrite(a, b, w)
    }
}

/// A weighted topological update, for batch application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightedUpdate {
    /// Insert edge `(a, b)` with the given weight.
    InsertEdge(VertexId, VertexId, Weight),
    /// Delete edge `(a, b)`.
    DeleteEdge(VertexId, VertexId),
    /// Change the weight of existing edge `(a, b)`.
    SetWeight(VertexId, VertexId, Weight),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{OrderingStrategy, RankMap};
    use dspc_graph::generators::classic::path_graph;
    use dspc_graph::WeightedGraph;

    #[test]
    fn wlabel_set_ops() {
        let mut ls = WLabelSet::self_only(Rank(3));
        assert!(ls.contains(Rank(3)));
        ls.upsert(WLabelEntry::new(Rank(1), 5, 2));
        ls.upsert(WLabelEntry::new(Rank(0), 9, 1));
        assert!(ls.is_sorted_strict());
        assert_eq!(ls.len(), 3);
        assert_eq!(ls.remove(Rank(1)).unwrap().dist, 5);
        assert!(!ls.contains(Rank(1)));
    }

    #[test]
    fn empty_index_queries() {
        let g = path_graph(3);
        let ranks = RankMap::build(&g, OrderingStrategy::Identity);
        let idx = WeightedSpcIndex::self_labeled(ranks);
        idx.check_invariants().unwrap();
        assert_eq!(
            weighted_spc_query(&idx, VertexId(1), VertexId(1)).as_option(),
            Some((0, 1))
        );
        assert!(!weighted_spc_query(&idx, VertexId(0), VertexId(2)).is_connected());
    }

    #[test]
    fn invariant_checker_catches_infinite_distance() {
        let g = path_graph(3);
        let ranks = RankMap::build(&g, OrderingStrategy::Identity);
        let hub = ranks.rank(VertexId(0));
        let mut idx = WeightedSpcIndex::self_labeled(ranks);
        idx.label_set_mut(VertexId(2))
            .upsert(WLabelEntry::new(hub, WDIST_INF, 1));
        assert!(idx.check_invariants().is_err());
    }

    #[test]
    fn zero_weight_batches_fail_before_mutating() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 1)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        for zero in [
            WeightedUpdate::InsertEdge(VertexId(0), VertexId(3), 0),
            WeightedUpdate::SetWeight(VertexId(1), VertexId(2), 0),
        ] {
            let batch = [WeightedUpdate::DeleteEdge(VertexId(0), VertexId(1)), zero];
            assert!(matches!(
                d.apply_batch(&batch),
                Err(dspc_graph::GraphError::InvalidWeight(_))
            ));
            assert_eq!(d.graph().weight(VertexId(0), VertexId(1)), Some(2));
            assert_eq!(d.graph().weight(VertexId(1), VertexId(2)), Some(3));
            assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 1)));
        }
    }
}

/// Appendix C.2's IncSPC / DecSPC, tested through the facade.
#[cfg(test)]
mod update {
    mod tests {
        use crate::order::OrderingStrategy;
        use crate::weighted::{weighted_spc_query, DynamicWeightedSpc, WeightedSpcIndex};
        use dspc_graph::generators::random::{erdos_renyi_gnm, random_weights};
        use dspc_graph::traversal::dijkstra::DijkstraCounter;
        use dspc_graph::{VertexId, WeightedGraph};
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
}
