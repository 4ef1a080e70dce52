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
//! attached (see [`update`]).

pub mod build;
pub mod update;

pub use build::{build_directed_index, DirectedBuilder};
pub use update::{DirectedDecSpc, DirectedIncSpc};

use crate::dynamic::{UpdateKind, UpdateStats};
use crate::engine::EdgeCoalescer;
use crate::label::{Count, LabelEntry, LabelSet, Rank, SharedRows};
use crate::order::OrderingStrategy;
use crate::parallel::MaintenanceThreads;
use crate::query::{pre_query_rows, query_rows, QueryResult};
use dspc_graph::{DirectedGraph, VertexId};
use serde::{Deserialize, Serialize};

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
}

/// Bijection between vertex ids and ranks for directed graphs (degree =
/// in + out, descending; ties by id).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectedRankMap {
    rank_of: Vec<u32>,
    vertex_at: Vec<u32>,
}

impl DirectedRankMap {
    /// Computes the order of `g`'s id space.
    pub fn build(g: &DirectedGraph, strategy: OrderingStrategy) -> Self {
        let n = g.capacity();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        match strategy {
            OrderingStrategy::Degree => ids.sort_by_key(|&v| {
                let vid = VertexId(v);
                (std::cmp::Reverse(g.out_degree(vid) + g.in_degree(vid)), v)
            }),
            OrderingStrategy::Identity => {}
            OrderingStrategy::Random(seed) => {
                let key = |v: u32| -> u64 {
                    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15).wrapping_add(v as u64);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    z ^ (z >> 31)
                };
                ids.sort_by_key(|&v| (key(v), v));
            }
        }
        let mut rank_of = vec![0u32; n];
        for (r, &v) in ids.iter().enumerate() {
            rank_of[v as usize] = r as u32;
        }
        DirectedRankMap {
            rank_of,
            vertex_at: ids,
        }
    }

    /// Rank of `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        Rank(self.rank_of[v.index()])
    }

    /// Vertex at rank `r`.
    #[inline]
    pub fn vertex(&self, r: Rank) -> VertexId {
        VertexId(self.vertex_at[r.index()])
    }

    /// Rank-space size.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertex_at.len()
    }

    /// Builds a map from an explicit rank order (`order[r]` = vertex id at
    /// rank `r`); must be a permutation of `0..order.len()`.
    pub fn from_rank_order(order: &[u32]) -> Self {
        let n = order.len();
        let mut rank_of = vec![u32::MAX; n];
        for (r, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < n && rank_of[v as usize] == u32::MAX,
                "not a permutation"
            );
            rank_of[v as usize] = r as u32;
        }
        DirectedRankMap {
            rank_of,
            vertex_at: order.to_vec(),
        }
    }

    /// Swaps the vertices at ranks `r` and `r + 1` (see
    /// [`crate::order::RankMap::swap_adjacent`]).
    pub fn swap_adjacent(&mut self, r: Rank) {
        let hi = r.index();
        let lo = hi + 1;
        assert!(lo < self.vertex_at.len(), "swap_adjacent out of range");
        self.vertex_at.swap(hi, lo);
        self.rank_of[self.vertex_at[hi] as usize] = hi as u32;
        self.rank_of[self.vertex_at[lo] as usize] = lo as u32;
    }

    /// Appends a fresh vertex at the lowest rank; `v` must be the next
    /// dense id.
    pub fn append_vertex(&mut self, v: VertexId) -> Rank {
        assert_eq!(v.index(), self.rank_of.len(), "non-dense vertex id");
        let r = Rank(self.vertex_at.len() as u32);
        self.rank_of.push(r.0);
        self.vertex_at.push(v.0);
        r
    }

    /// Whether empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertex_at.is_empty()
    }
}

/// The directed SPC-Index: `L_in` and `L_out` per vertex.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DirectedSpcIndex {
    labels_in: Vec<LabelSet>,
    labels_out: Vec<LabelSet>,
    ranks: DirectedRankMap,
}

impl DirectedSpcIndex {
    /// Index with only self labels on both sides.
    pub fn self_labeled(ranks: DirectedRankMap) -> Self {
        let n = ranks.len();
        let mk = |_| {
            (0..n)
                .map(|v| LabelSet::self_only(ranks.rank(VertexId(v as u32))))
                .collect::<Vec<_>>()
        };
        DirectedSpcIndex {
            labels_in: mk(()),
            labels_out: mk(()),
            ranks,
        }
    }

    /// The vertex total order.
    pub fn ranks(&self) -> &DirectedRankMap {
        &self.ranks
    }

    /// Rank of `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// Vertex at rank `r`.
    #[inline]
    pub fn vertex(&self, r: Rank) -> VertexId {
        self.ranks.vertex(r)
    }

    /// `L_in(v)`.
    #[inline]
    pub fn label_in(&self, v: VertexId) -> &LabelSet {
        &self.labels_in[v.index()]
    }

    /// `L_out(v)`.
    #[inline]
    pub fn label_out(&self, v: VertexId) -> &LabelSet {
        &self.labels_out[v.index()]
    }

    /// Label set for `side` of `v`.
    #[inline]
    pub fn label(&self, side: Side, v: VertexId) -> &LabelSet {
        match side {
            Side::In => &self.labels_in[v.index()],
            Side::Out => &self.labels_out[v.index()],
        }
    }

    /// Mutable label set for `side` of `v`.
    #[inline]
    pub fn label_mut(&mut self, side: Side, v: VertexId) -> &mut LabelSet {
        match side {
            Side::In => &mut self.labels_in[v.index()],
            Side::Out => &mut self.labels_out[v.index()],
        }
    }

    /// Publishes one label family for readers — the directed twin of
    /// [`crate::index::SpcIndex::publish`]: written rows become shared,
    /// one handle per vertex comes back.
    pub fn publish(&mut self, side: Side) -> SharedRows<LabelEntry> {
        SharedRows::publish(match side {
            Side::In => &mut self.labels_in,
            Side::Out => &mut self.labels_out,
        })
    }

    /// Swaps the vertices at ranks `r` and `r + 1` without touching either
    /// label family — the directed twin of
    /// [`crate::index::SpcIndex::swap_adjacent_ranks`]; the caller
    /// ([`crate::reorder`]) purges both ranks' entries around the remap.
    pub fn swap_adjacent_ranks(&mut self, r: Rank) {
        self.ranks.swap_adjacent(r);
    }

    /// Registers a freshly added isolated vertex at the lowest rank with
    /// self labels on both sides; returns its rank.
    pub fn append_vertex(&mut self, v: VertexId) -> Rank {
        let r = self.ranks.append_vertex(v);
        self.labels_in.push(LabelSet::self_only(r));
        self.labels_out.push(LabelSet::self_only(r));
        r
    }

    /// Total entries across both sides.
    pub fn num_entries(&self) -> usize {
        self.labels_in.iter().map(LabelSet::len).sum::<usize>()
            + self.labels_out.iter().map(LabelSet::len).sum::<usize>()
    }

    /// Structural invariants on both sides.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (name, family) in [("L_in", &self.labels_in), ("L_out", &self.labels_out)] {
            for (vi, ls) in family.iter().enumerate() {
                let v = VertexId(vi as u32);
                if !ls.is_sorted_strict() {
                    return Err(format!("{name}({v}) not strictly sorted"));
                }
                let self_rank = self.ranks.rank(v);
                match ls.get(self_rank) {
                    Some(e) if e.dist == 0 && e.count == 1 => {}
                    _ => return Err(format!("{name}({v}) self label missing or malformed")),
                }
                for e in ls.entries() {
                    if e.hub > self_rank {
                        return Err(format!("{name}({v}) hub ranked below owner"));
                    }
                    if e.count == 0 {
                        return Err(format!("{name}({v}) zero-count label"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `SPC(s → t)`: merge `L_out(s)` with `L_in(t)`.
pub fn directed_spc_query(index: &DirectedSpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = query_rows(index.label_out(s).entries(), index.label_in(t).entries());
    QueryResult { dist, count }
}

/// `PreQUERY(s → t)`: [`directed_spc_query`] restricted to hubs ranked
/// strictly above `s` — the directed analogue of
/// [`crate::query::pre_query`].
pub fn directed_pre_query(index: &DirectedSpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = pre_query_rows(
        index.label_out(s).entries(),
        index.label_in(t).entries(),
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

/// Directed facade: a [`DirectedGraph`] and its index kept in lockstep.
#[derive(Debug)]
pub struct DynamicDirectedSpc {
    graph: DirectedGraph,
    index: DirectedSpcIndex,
    inc: DirectedIncSpc,
    dec: DirectedDecSpc,
    maintenance_threads: MaintenanceThreads,
    /// Flat snapshot of the current epoch; dropped on any mutation.
    flat: Option<crate::flat::DirectedFlatIndex>,
}

impl DynamicDirectedSpc {
    /// Builds the index and wraps both.
    pub fn build(graph: DirectedGraph, strategy: OrderingStrategy) -> Self {
        let index = build_directed_index(&graph, strategy);
        let cap = graph.capacity();
        DynamicDirectedSpc {
            graph,
            index,
            inc: DirectedIncSpc::new(cap),
            dec: DirectedDecSpc::new(cap),
            maintenance_threads: MaintenanceThreads::default(),
            flat: None,
        }
    }

    /// The read-optimized flat snapshot of the current epoch (frozen on
    /// first use, reused until the next mutation drops it — same contract
    /// as [`crate::dynamic::DynamicSpc::frozen_queries`]).
    pub fn frozen_queries(&mut self) -> &crate::flat::DirectedFlatIndex {
        self.flat
            .get_or_insert_with(|| crate::flat::DirectedFlatIndex::publish(&mut self.index))
    }

    /// Publishes the current epoch's snapshot, sharing every row that
    /// is unchanged since the previous publish
    /// ([`crate::flat::DirectedFlatIndex::publish`]).
    pub fn publish(&mut self) -> crate::flat::DirectedFlatIndex {
        crate::flat::DirectedFlatIndex::publish(&mut self.index)
    }

    /// Whether a flat snapshot is currently cached.
    pub fn has_frozen_snapshot(&self) -> bool {
        self.flat.is_some()
    }

    /// Sets the worker-thread budget for the classification sweeps of
    /// [`DynamicDirectedSpc::delete_arcs`] and of the deletion segments of
    /// [`DynamicDirectedSpc::apply_batch`]. Every thread count produces the
    /// same index, queries, and counters.
    pub fn set_maintenance_threads(&mut self, threads: MaintenanceThreads) {
        self.maintenance_threads = threads;
    }

    /// The configured maintenance thread budget.
    pub fn maintenance_threads(&self) -> MaintenanceThreads {
        self.maintenance_threads
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DirectedGraph {
        &self.graph
    }

    /// The maintained index.
    pub fn index(&self) -> &DirectedSpcIndex {
        &self.index
    }

    /// `SPC(s → t)` as `Some((sd, spc))`, `None` when unreachable.
    pub fn query(&self, s: VertexId, t: VertexId) -> Option<(u32, Count)> {
        directed_spc_query(&self.index, s, t).as_option()
    }

    /// Inserts arc `a → b` and repairs the index.
    pub fn insert_arc(&mut self, a: VertexId, b: VertexId) -> dspc_graph::Result<UpdateStats> {
        self.graph.insert_arc(a, b)?;
        self.flat = None;
        let c = self.inc.insert_arc(&self.graph, &mut self.index, a, b);
        Ok(UpdateStats::from_counters(UpdateKind::InsertEdge, c))
    }

    /// Deletes arc `a → b` and repairs the index.
    pub fn delete_arc(&mut self, a: VertexId, b: VertexId) -> dspc_graph::Result<UpdateStats> {
        let c = self
            .dec
            .delete_arc(&mut self.graph, &mut self.index, a, b)?;
        self.flat = None;
        Ok(UpdateStats::from_counters(UpdateKind::DeleteEdge, c))
    }

    /// Deletes a *set* of arcs as one epoch through the multi-arc
    /// `SrrSEARCH` repair path ([`DirectedDecSpc::delete_arcs`]): one
    /// repair sweep per distinct affected hub per label family, against the
    /// residual graph with the whole set already absent, classifying on the
    /// configured [`MaintenanceThreads`]. All arcs are validated present
    /// before the first mutation.
    pub fn delete_arcs(
        &mut self,
        arcs: &[(VertexId, VertexId)],
    ) -> dspc_graph::Result<UpdateStats> {
        let c = self.dec.delete_arcs(
            &mut self.graph,
            &mut self.index,
            arcs,
            self.maintenance_threads.resolve(),
        )?;
        self.flat = None;
        Ok(UpdateStats::from_counters(UpdateKind::Batch, c))
    }

    /// Applies `updates` as one epoch: arc operations are deduplicated and
    /// coalesced (insert + delete of the same arc cancels, delete +
    /// re-insert is a topological no-op), the surviving net operations run
    /// through the engine in rank-friendly order (deletions before
    /// insertions, each ordered by the higher-ranked endpoint), and the
    /// aggregated counters come back as one [`UpdateStats`]. The whole
    /// net-deletion set repairs through one agenda. Validation mirrors
    /// applying the arcs one by one.
    pub fn apply_batch(&mut self, updates: &[ArcUpdate]) -> dspc_graph::Result<UpdateStats> {
        let mut co: EdgeCoalescer<()> = EdgeCoalescer::new();
        for &u in updates {
            match u {
                ArcUpdate::InsertArc(a, b) => {
                    let graph = &self.graph;
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_insert((a.0, b.0), (), || graph.has_arc(a, b).then_some(()))?;
                }
                ArcUpdate::DeleteArc(a, b) => {
                    let graph = &self.graph;
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_remove((a.0, b.0), || graph.has_arc(a, b).then_some(()))?;
                }
            }
        }
        let index = &self.index;
        let plan = crate::engine::NetPlan::build(co.drain(), |v| index.rank(VertexId(v)));
        let mut total = UpdateStats::empty(UpdateKind::Batch);
        let deletions = plan.vertex_deletions();
        if !deletions.is_empty() {
            total.absorb(&self.delete_arcs(&deletions)?);
        }
        for op in plan.into_post_deletion_ops() {
            total.absorb(&match op {
                crate::engine::NetOp::Insert(a, b, ()) => self.insert_arc(a, b)?,
                crate::engine::NetOp::Rewrite(..) => {
                    unreachable!("unit payloads cannot rewrite")
                }
            });
        }
        Ok(total)
    }

    /// Adds an isolated vertex at the lowest rank (O(1) on the index, as in
    /// the undirected case §3).
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        self.flat = None;
        let r = self.index.append_vertex(v);
        debug_assert_eq!(self.index.vertex(r), v);
        v
    }

    /// Deletes vertex `v` — the incident arcs are removed as one epoch
    /// through the multi-arc repair path (one global agenda instead of a
    /// per-arc DecSPC cascade), then the id is retired.
    pub fn delete_vertex(&mut self, v: VertexId) -> dspc_graph::Result<()> {
        if !self.graph.contains_vertex(v) {
            return Err(dspc_graph::GraphError::UnknownVertex(v));
        }
        let mut arcs: Vec<(VertexId, VertexId)> = self
            .graph
            .out_neighbors(v)
            .iter()
            .map(|&w| (v, VertexId(w)))
            .collect();
        arcs.extend(self.graph.in_neighbors(v).iter().map(|&w| (VertexId(w), v)));
        self.delete_arcs(&arcs)?;
        self.graph.delete_vertex(v)?;
        self.flat = None;
        Ok(())
    }
}

/// Ensures the self label exists on both sides for isolated additions.
pub(crate) fn self_entry(rank: Rank) -> LabelEntry {
    LabelEntry::new(rank, 0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_map_total_degree() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (2, 1), (1, 3)]);
        let rm = DirectedRankMap::build(&g, OrderingStrategy::Degree);
        // Vertex 1 has total degree 3 → highest rank.
        assert_eq!(rm.vertex(Rank(0)), VertexId(1));
    }

    #[test]
    fn self_labeled_queries() {
        let g = DirectedGraph::with_vertices(3);
        let idx =
            DirectedSpcIndex::self_labeled(DirectedRankMap::build(&g, OrderingStrategy::Identity));
        idx.check_invariants().unwrap();
        assert_eq!(
            directed_spc_query(&idx, VertexId(0), VertexId(0)).as_option(),
            Some((0, 1))
        );
        assert!(!directed_spc_query(&idx, VertexId(0), VertexId(1)).is_connected());
    }
}
