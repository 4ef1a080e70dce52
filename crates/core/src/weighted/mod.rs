//! Weighted SPC-Index — the Appendix C.2 extension.
//!
//! Labels store accumulated edge weights instead of hop counts; Dijkstra
//! (with a priority queue) replaces BFS everywhere. Edge-weight *decreases*
//! (and insertions) are incremental updates; *increases* (and deletions)
//! are decremental, with the affected-vertex condition becoming
//! `|sd(v, a) − sd(v, b)| = w_ab`.
//!
//! Weighted labels carry `u64` accumulated weights in their own entry
//! type, [`WLabelEntry`]; the row storage ([`crate::label::LabelRow`]) and
//! the query kernel ([`crate::query`]) are the generic ones the unweighted
//! variants use, so the unweighted hot path keeps its compact `u32`
//! distances.

pub mod build;
pub mod update;

pub use build::{build_weighted_index, WeightedBuilder};
pub use update::{WeightedDecSpc, WeightedIncSpc};

use crate::dynamic::{UpdateKind, UpdateStats};
use crate::engine::{ordered_key, EdgeCoalescer};
use crate::label::{Count, HubEntry, LabelRow, Rank, SharedRows};
use crate::order::OrderingStrategy;
use crate::parallel::MaintenanceThreads;
use crate::query::{pre_query_rows, query_rows};
use dspc_graph::weighted::{WDist, Weight, WeightedGraph, WDIST_INF};
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
    fn self_label(rank: Rank) -> Self {
        WLabelEntry::new(rank, 0, 1)
    }
}

/// A weighted label row, sorted by hub rank ascending — the same
/// copy-on-write storage as [`crate::label::LabelSet`].
pub type WLabelSet = LabelRow<WLabelEntry>;

/// The weighted SPC-Index.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightedSpcIndex {
    labels: Vec<WLabelSet>,
    ranks: crate::order::RankMap,
}

impl WeightedSpcIndex {
    pub(crate) fn new(labels: Vec<WLabelSet>, ranks: crate::order::RankMap) -> Self {
        WeightedSpcIndex { labels, ranks }
    }

    /// The vertex total order.
    pub fn ranks(&self) -> &crate::order::RankMap {
        &self.ranks
    }

    /// Rank of `v`.
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// Vertex at `r`.
    pub fn vertex(&self, r: Rank) -> VertexId {
        self.ranks.vertex(r)
    }

    /// `L(v)`.
    pub fn label_set(&self, v: VertexId) -> &WLabelSet {
        &self.labels[v.index()]
    }

    /// Mutable `L(v)`.
    pub fn label_set_mut(&mut self, v: VertexId) -> &mut WLabelSet {
        &mut self.labels[v.index()]
    }

    /// Total label entries.
    pub fn num_entries(&self) -> usize {
        self.labels.iter().map(WLabelSet::len).sum()
    }

    /// Publishes the labels for readers — the weighted twin of
    /// [`crate::index::SpcIndex::publish`]: written rows become shared,
    /// one handle per vertex comes back.
    pub fn publish(&mut self) -> SharedRows<WLabelEntry> {
        SharedRows::publish(&mut self.labels)
    }

    /// Registers a freshly added isolated vertex at the lowest rank.
    pub fn append_vertex(&mut self, v: VertexId) -> Rank {
        let r = self.ranks.append_vertex(v);
        self.labels.push(WLabelSet::self_only(r));
        r
    }

    /// Swaps the vertices at ranks `r` and `r + 1` without touching the
    /// label sets — the weighted twin of
    /// [`crate::index::SpcIndex::swap_adjacent_ranks`]; the caller
    /// ([`crate::reorder`]) purges both ranks' entries around the remap.
    pub fn swap_adjacent_ranks(&mut self, r: Rank) {
        self.ranks.swap_adjacent(r);
    }

    /// Structural invariants (sorted, self labels, upward hubs).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (vi, ls) in self.labels.iter().enumerate() {
            let v = VertexId(vi as u32);
            if !ls.is_sorted_strict() {
                return Err(format!("L({v}) not sorted"));
            }
            let sr = self.ranks.rank(v);
            match ls.get(sr) {
                Some(e) if e.dist == 0 && e.count == 1 => {}
                _ => return Err(format!("self label of {v} missing/malformed")),
            }
            for e in ls.entries() {
                if e.hub > sr {
                    return Err(format!("L({v}) hub below owner"));
                }
                if e.count == 0 {
                    return Err(format!("L({v}) zero count"));
                }
            }
        }
        Ok(())
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

/// Weighted `SpcQUERY(s, t)`.
pub fn weighted_spc_query(index: &WeightedSpcIndex, s: VertexId, t: VertexId) -> WQueryResult {
    let (dist, count) = query_rows(index.label_set(s).entries(), index.label_set(t).entries());
    WQueryResult { dist, count }
}

/// Weighted `PreQUERY(s, t)`: [`weighted_spc_query`] restricted to hubs
/// ranked strictly above `s`.
pub fn weighted_pre_query(index: &WeightedSpcIndex, s: VertexId, t: VertexId) -> WQueryResult {
    let (dist, count) = pre_query_rows(
        index.label_set(s).entries(),
        index.label_set(t).entries(),
        index.rank(s),
    );
    WQueryResult { dist, count }
}

/// Rank-indexed probe for repeated weighted queries against one hub.
#[derive(Clone, Debug)]
pub struct WHubProbe {
    dist: Vec<WDist>,
    count: Vec<Count>,
    loaded: Vec<Rank>,
}

impl WHubProbe {
    /// Creates a probe.
    pub fn new(capacity: usize) -> Self {
        WHubProbe {
            dist: vec![WDIST_INF; capacity],
            count: vec![0; capacity],
            loaded: Vec::new(),
        }
    }

    /// Grows if needed.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.dist.len() < capacity {
            self.dist.resize(capacity, WDIST_INF);
            self.count.resize(capacity, 0);
        }
    }

    /// Pins `L(h)`.
    pub fn load(&mut self, index: &WeightedSpcIndex, h: VertexId) {
        self.ensure_capacity(index.ranks().len());
        for &r in &self.loaded {
            self.dist[r.index()] = WDIST_INF;
            self.count[r.index()] = 0;
        }
        self.loaded.clear();
        for e in index.label_set(h).entries() {
            self.dist[e.hub.index()] = e.dist;
            self.count[e.hub.index()] = e.count;
            self.loaded.push(e.hub);
        }
    }

    /// Weighted `SpcQUERY(h, v)` with optional rank limit (`PreQUERY`).
    pub fn query_limited(&self, lv: &WLabelSet, limit: Option<Rank>) -> WQueryResult {
        let mut best = WDIST_INF;
        let mut count: Count = 0;
        for e in lv.entries() {
            if let Some(lim) = limit {
                if e.hub >= lim {
                    break;
                }
            }
            let hd = self.dist[e.hub.index()];
            if hd == WDIST_INF {
                continue;
            }
            let d = hd.saturating_add(e.dist);
            if d < best {
                best = d;
                count = self.count[e.hub.index()].saturating_mul(e.count);
            } else if d == best && d != WDIST_INF {
                count = count.saturating_add(self.count[e.hub.index()].saturating_mul(e.count));
            }
        }
        WQueryResult { dist: best, count }
    }
}

/// Weighted facade keeping a [`WeightedGraph`] and its index in lockstep.
#[derive(Debug)]
pub struct DynamicWeightedSpc {
    graph: WeightedGraph,
    index: WeightedSpcIndex,
    inc: WeightedIncSpc,
    dec: WeightedDecSpc,
    maintenance_threads: MaintenanceThreads,
    /// Flat snapshot of the current epoch; dropped on any mutation.
    flat: Option<crate::flat::WeightedFlatIndex>,
}

impl DynamicWeightedSpc {
    /// Builds and wraps.
    pub fn build(graph: WeightedGraph, strategy: OrderingStrategy) -> Self {
        let index = build_weighted_index(&graph, strategy);
        let cap = graph.capacity();
        DynamicWeightedSpc {
            graph,
            index,
            inc: WeightedIncSpc::new(cap),
            dec: WeightedDecSpc::new(cap),
            maintenance_threads: MaintenanceThreads::default(),
            flat: None,
        }
    }

    /// The read-optimized flat snapshot of the current epoch (frozen on
    /// first use, reused until the next mutation drops it — same contract
    /// as [`crate::dynamic::DynamicSpc::frozen_queries`]).
    pub fn frozen_queries(&mut self) -> &crate::flat::WeightedFlatIndex {
        self.flat
            .get_or_insert_with(|| crate::flat::WeightedFlatIndex::publish(&mut self.index))
    }

    /// Publishes the current epoch's snapshot, sharing every row that
    /// is unchanged since the previous publish
    /// ([`crate::flat::WeightedFlatIndex::publish`]).
    pub fn publish(&mut self) -> crate::flat::WeightedFlatIndex {
        crate::flat::WeightedFlatIndex::publish(&mut self.index)
    }

    /// Whether a flat snapshot is currently cached.
    pub fn has_frozen_snapshot(&self) -> bool {
        self.flat.is_some()
    }

    /// Sets the worker-thread budget for the classification sweeps of
    /// [`DynamicWeightedSpc::delete_edges`] and of the deletion segments of
    /// [`DynamicWeightedSpc::apply_batch`]. Every thread count produces the
    /// same index, queries, and counters.
    pub fn set_maintenance_threads(&mut self, threads: MaintenanceThreads) {
        self.maintenance_threads = threads;
    }

    /// The configured maintenance thread budget.
    pub fn maintenance_threads(&self) -> MaintenanceThreads {
        self.maintenance_threads
    }

    /// The underlying graph.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// The maintained index.
    pub fn index(&self) -> &WeightedSpcIndex {
        &self.index
    }

    /// `SPC(s, t)` under weighted shortest paths.
    pub fn query(&self, s: VertexId, t: VertexId) -> Option<(WDist, Count)> {
        weighted_spc_query(&self.index, s, t).as_option()
    }

    /// Inserts edge `(a, b)` with weight `w` (incremental update).
    pub fn insert_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: dspc_graph::Weight,
    ) -> dspc_graph::Result<UpdateStats> {
        self.graph.insert_edge(a, b, w)?;
        self.flat = None;
        let c = self.inc.apply(&self.graph, &mut self.index, a, b, w);
        Ok(UpdateStats::from_counters(UpdateKind::InsertEdge, c))
    }

    /// Deletes edge `(a, b)` (decremental update).
    pub fn delete_edge(&mut self, a: VertexId, b: VertexId) -> dspc_graph::Result<UpdateStats> {
        let c = self
            .dec
            .delete_edge(&mut self.graph, &mut self.index, a, b)?;
        self.flat = None;
        Ok(UpdateStats::from_counters(UpdateKind::DeleteEdge, c))
    }

    /// Deletes a *set* of edges as one epoch through the multi-edge
    /// `SrrSEARCH` repair path ([`WeightedDecSpc::delete_edges`]): one
    /// rank-pruned Dijkstra per distinct affected hub against the residual
    /// graph with the whole set already absent, classifying on the
    /// configured [`MaintenanceThreads`]. All edges are validated present
    /// before the first mutation.
    pub fn delete_edges(
        &mut self,
        edges: &[(VertexId, VertexId)],
    ) -> dspc_graph::Result<UpdateStats> {
        let c = self.dec.delete_edges(
            &mut self.graph,
            &mut self.index,
            edges,
            self.maintenance_threads.resolve(),
        )?;
        self.flat = None;
        Ok(UpdateStats::from_counters(UpdateKind::Batch, c))
    }

    /// Adds an isolated vertex at the lowest rank (O(1) on the index).
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        self.flat = None;
        self.index.append_vertex(v);
        v
    }

    /// Deletes vertex `v` — the incident edges are removed as one epoch
    /// through the multi-edge repair path (one global agenda instead of a
    /// per-edge DecSPC cascade), then the id is retired.
    pub fn delete_vertex(&mut self, v: VertexId) -> dspc_graph::Result<()> {
        if !self.graph.contains_vertex(v) {
            return Err(dspc_graph::GraphError::UnknownVertex(v));
        }
        let edges: Vec<(VertexId, VertexId)> = self
            .graph
            .neighbors(v)
            .iter()
            .map(|&(n, _)| (v, VertexId(n)))
            .collect();
        self.delete_edges(&edges)?;
        self.graph.delete_vertex(v)?;
        self.flat = None;
        Ok(())
    }

    /// Changes the weight of `(a, b)`: decreases run the incremental
    /// machinery, increases the decremental one, equal weights are no-ops.
    pub fn set_weight(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: dspc_graph::Weight,
    ) -> dspc_graph::Result<UpdateStats> {
        let old = self
            .graph
            .weight(a, b)
            .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
        if w == old {
            return Ok(UpdateStats::empty(UpdateKind::WeightChange));
        }
        if w < old {
            self.graph.set_weight(a, b, w)?;
            self.flat = None;
            let c = self.inc.apply(&self.graph, &mut self.index, a, b, w);
            Ok(UpdateStats::from_counters(UpdateKind::WeightChange, c))
        } else {
            let c = self
                .dec
                .increase_weight(&mut self.graph, &mut self.index, a, b, w)?;
            self.flat = None;
            Ok(UpdateStats::from_counters(UpdateKind::WeightChange, c))
        }
    }

    /// Applies `updates` as one epoch: per-edge operations fold into their
    /// net effect (insert + delete cancels; consecutive weight changes
    /// collapse to the last; delete + re-insert at the original weight is
    /// a no-op, at a different weight a plain weight change), then the net
    /// operations run in rank-friendly order — deletions, then weight
    /// changes, then insertions, each ordered by the higher-ranked
    /// endpoint. The whole net-deletion set repairs through one agenda.
    /// Returns the aggregated [`UpdateStats`]. Validation mirrors applying
    /// the operations one by one.
    pub fn apply_batch(&mut self, updates: &[WeightedUpdate]) -> dspc_graph::Result<UpdateStats> {
        let mut co: EdgeCoalescer<Weight> = EdgeCoalescer::new();
        for &u in updates {
            match u {
                WeightedUpdate::InsertEdge(a, b, w) => {
                    let graph = &self.graph;
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_insert(ordered_key(a, b), w, || graph.weight(a, b))?;
                }
                WeightedUpdate::DeleteEdge(a, b) => {
                    let graph = &self.graph;
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_remove(ordered_key(a, b), || graph.weight(a, b))?;
                }
                WeightedUpdate::SetWeight(a, b, w) => {
                    let graph = &self.graph;
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_rewrite(ordered_key(a, b), w, || graph.weight(a, b))?;
                }
            }
        }
        let index = &self.index;
        let plan = crate::engine::NetPlan::build(co.drain(), |v| index.rank(VertexId(v)));
        let mut total = UpdateStats::empty(UpdateKind::Batch);
        let deletions = plan.vertex_deletions();
        if !deletions.is_empty() {
            total.absorb(&self.delete_edges(&deletions)?);
        }
        for op in plan.into_post_deletion_ops() {
            total.absorb(&match op {
                crate::engine::NetOp::Rewrite(a, b, w) => self.set_weight(a, b, w)?,
                crate::engine::NetOp::Insert(a, b, w) => self.insert_edge(a, b, w)?,
            });
        }
        Ok(total)
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
    use crate::order::RankMap;
    use dspc_graph::generators::classic::path_graph;

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
        let labels = (0..3)
            .map(|v| WLabelSet::self_only(ranks.rank(VertexId(v))))
            .collect();
        let idx = WeightedSpcIndex::new(labels, ranks);
        idx.check_invariants().unwrap();
        assert_eq!(
            weighted_spc_query(&idx, VertexId(1), VertexId(1)).as_option(),
            Some((0, 1))
        );
        assert!(!weighted_spc_query(&idx, VertexId(0), VertexId(2)).is_connected());
    }
}
