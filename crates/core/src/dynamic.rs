//! `DynamicSpc` — the user-facing facade: a graph and its SPC-Index kept in
//! lockstep under topological updates.
//!
//! This is the object the paper's experiments drive: build once (HP-SPC),
//! then stream edge/vertex insertions and deletions through IncSPC/DecSPC
//! while answering `spc` queries at index speed throughout. Every update
//! returns an [`UpdateStats`] with the label-operation counters behind
//! Figures 8–10.
//!
//! ## The epoch contract
//!
//! There are two write APIs with one consistency story:
//!
//! * **Streaming** ([`DynamicSpc::insert_edge`], [`DynamicSpc::delete_edge`],
//!   [`DynamicSpc::apply_stream`]) repairs the index after every single
//!   update — the index is exact after each call.
//! * **Epochs** ([`DynamicSpc::apply_batch`], [`DynamicSpc::delete_edges`])
//!   treat a whole update slice as one atomic step: ops fold to their net
//!   effect (an insert and a delete of the same edge cancel, a delete
//!   followed by a re-insert is a topological no-op), the net deletions
//!   are repaired together through the multi-edge `SrrSEARCH` path (one
//!   repair sweep per distinct affected hub), and the index is exact again
//!   when the call returns.
//!
//! The index is never observed mid-epoch: readers query either the
//! pre-batch or the post-batch state. That boundary is what makes query
//! fan-out safe — [`crate::parallel::par_batch_query_auto`] may spread a
//! read burst across threads against the immutable index *between*
//! epochs, with no locking anywhere.
//!
//! ```
//! use dspc::dynamic::GraphUpdate;
//! use dspc::{DynamicSpc, OrderingStrategy};
//! use dspc_graph::{UndirectedGraph, VertexId};
//!
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
//! assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
//!
//! // One epoch: the insert + delete of (0, 3) cancels out entirely; only
//! // the shortcut (1, 3) survives coalescing and pays for index repair.
//! let stats = d
//!     .apply_batch(&[
//!         GraphUpdate::InsertEdge(VertexId(0), VertexId(3)),
//!         GraphUpdate::InsertEdge(VertexId(1), VertexId(3)),
//!         GraphUpdate::DeleteEdge(VertexId(0), VertexId(3)),
//!     ])
//!     .unwrap();
//! assert!(!d.graph().has_edge(VertexId(0), VertexId(3)));
//! assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 1))); // 0–1–3
//! assert_eq!(stats.kind, dspc::dynamic::UpdateKind::Batch);
//! ```

use crate::dec::{DecSpc, SrrOutcome};
use crate::engine::{ordered_key, MaintenanceCounters};
use crate::flat::FlatIndex;
use crate::inc::IncSpc;
use crate::index::{IndexStats, SpcIndex};
use crate::label::Count;
use crate::order::OrderingStrategy;
use crate::parallel::MaintenanceThreads;
use crate::query::spc_query;
use dspc_graph::{Result, UndirectedGraph, VertexId};
use std::ops::{Deref, DerefMut};

/// What kind of update produced an [`UpdateStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// Edge insertion (IncSPC).
    InsertEdge,
    /// Edge deletion (DecSPC).
    DeleteEdge,
    /// Isolated vertex insertion (O(1)).
    InsertVertex,
    /// Vertex deletion (a DecSPC cascade over incident edges).
    DeleteVertex,
    /// Edge-weight change on the weighted facade (incremental machinery
    /// for decreases, decremental for increases).
    WeightChange,
    /// A coalesced batch ([`DynamicSpc::apply_batch`] and the directed and
    /// weighted equivalents).
    Batch,
}

/// Per-update label-operation counters: the unified
/// [`MaintenanceCounters`] tagged with which algorithm ran.
///
/// Derefs to [`MaintenanceCounters`], so every counter field
/// (`renew_count`, `classify_sweeps`, `agenda_hubs`, …) and derived metric
/// ([`MaintenanceCounters::total_ops`], [`MaintenanceCounters::total_sweeps`],
/// [`MaintenanceCounters::entry_delta`]) reads directly off an
/// `UpdateStats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateStats {
    /// Which algorithm ran.
    pub kind: UpdateKind,
    /// The unified engine counters.
    pub counters: MaintenanceCounters,
}

impl Deref for UpdateStats {
    type Target = MaintenanceCounters;

    fn deref(&self) -> &MaintenanceCounters {
        &self.counters
    }
}

impl DerefMut for UpdateStats {
    fn deref_mut(&mut self) -> &mut MaintenanceCounters {
        &mut self.counters
    }
}

impl UpdateStats {
    /// Zeroed counters tagged with `kind` — accumulation seed for cascades
    /// and batches.
    pub fn empty(kind: UpdateKind) -> Self {
        UpdateStats {
            kind,
            counters: MaintenanceCounters::default(),
        }
    }

    /// Wraps raw engine counters.
    pub(crate) fn from_counters(kind: UpdateKind, counters: MaintenanceCounters) -> Self {
        UpdateStats { kind, counters }
    }

    fn from_dec(c: MaintenanceCounters) -> Self {
        UpdateStats::from_counters(UpdateKind::DeleteEdge, c)
    }

    /// Accumulates another update's counters (the kind keeps the
    /// receiver's value; see [`MaintenanceCounters::absorb`] for the
    /// per-field semantics).
    pub fn absorb(&mut self, other: &UpdateStats) {
        self.counters.absorb(&other.counters);
    }
}

/// A topological update, for batch/stream application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert edge `(a, b)`.
    InsertEdge(VertexId, VertexId),
    /// Delete edge `(a, b)`.
    DeleteEdge(VertexId, VertexId),
    /// Add an isolated vertex.
    InsertVertex,
    /// Delete a vertex and all incident edges.
    DeleteVertex(VertexId),
}

/// A dynamic graph with an always-consistent SPC-Index.
#[derive(Debug)]
pub struct DynamicSpc {
    graph: UndirectedGraph,
    index: SpcIndex,
    /// Insertion repair, and the scratch every build, rebuild and re-rank
    /// runs on.
    inc: IncSpc,
    dec: DecSpc,
    strategy: OrderingStrategy,
    updates_since_build: usize,
    maintenance_threads: MaintenanceThreads,
    /// Cached flat snapshot of `index` for the current epoch; `None` until
    /// [`DynamicSpc::frozen_queries`] is called and again after any
    /// mutation.
    flat: Option<FlatIndex>,
}

impl DynamicSpc {
    /// Builds the index for `graph` under `strategy` and wraps both.
    pub fn build(graph: UndirectedGraph, strategy: OrderingStrategy) -> Self {
        let cap = graph.capacity();
        let mut inc = IncSpc::new(cap);
        let index = inc.build(&graph, strategy);
        DynamicSpc {
            graph,
            index,
            inc,
            dec: DecSpc::new(cap),
            strategy,
            updates_since_build: 0,
            maintenance_threads: MaintenanceThreads::default(),
            flat: None,
        }
    }

    /// Wraps an already-built `(graph, index)` pair — the warm-start path:
    /// a server boots from a serialized index
    /// ([`crate::serialize::load_flat`] + [`crate::flat::FlatIndex::thaw`])
    /// and resumes dynamic maintenance without paying a rebuild. `strategy`
    /// is what a later [`DynamicSpc::rebuild`] will re-rank with.
    ///
    /// The caller asserts `index` is exact for `graph`; the id spaces must
    /// at least agree (checked here).
    pub fn from_parts(graph: UndirectedGraph, index: SpcIndex, strategy: OrderingStrategy) -> Self {
        assert_eq!(
            index.num_vertices(),
            graph.capacity(),
            "index and graph id spaces disagree"
        );
        let cap = graph.capacity();
        DynamicSpc {
            graph,
            index,
            inc: IncSpc::new(cap),
            dec: DecSpc::new(cap),
            strategy,
            updates_since_build: 0,
            maintenance_threads: MaintenanceThreads::default(),
            flat: None,
        }
    }

    /// The read-optimized flat snapshot of the current epoch, freezing one
    /// on first use and reusing it until the next mutation. Between epochs
    /// the index is immutable (see the module docs), so handing the
    /// snapshot to [`crate::parallel::par_batch_query`] — or querying it
    /// directly — always answers exactly like [`DynamicSpc::query`].
    ///
    /// Any mutation through this facade (single updates, batches,
    /// rebuilds) drops the cached snapshot; the next call re-freezes
    /// against the repaired index.
    pub fn frozen_queries(&mut self) -> &FlatIndex {
        self.flat
            .get_or_insert_with(|| FlatIndex::freeze(&self.index))
    }

    /// Whether a flat snapshot is currently cached (it is dropped by every
    /// mutation — the invalidation tests key off this).
    pub fn has_frozen_snapshot(&self) -> bool {
        self.flat.is_some()
    }

    /// Publishes the current epoch's serving snapshot over `shards`
    /// counter-attribution ranges: every label row written since the
    /// previous publish becomes shared, every other row is handed out
    /// again as is ([`crate::shard::ShardedFlatIndex::publish`]). Costs
    /// `O(n)` handle clones plus the rows the epoch changed.
    pub fn publish(&mut self, shards: usize) -> crate::shard::ShardedFlatIndex {
        crate::shard::ShardedFlatIndex::publish(&mut self.index, shards)
    }

    /// Sets the worker-thread budget for deletion maintenance: the
    /// classification sweeps of [`DynamicSpc::delete_edges`] and of the
    /// deletion segments of [`DynamicSpc::apply_batch`], and the repair
    /// sweeps of every deletion, [`DynamicSpc::delete_edge`] included.
    /// Repair sweeps speculate read-only in blocks and commit in rank
    /// order, re-running any sweep an earlier commit invalidated, so every
    /// thread count produces the same index, queries, and counters.
    pub fn set_maintenance_threads(&mut self, threads: MaintenanceThreads) {
        self.maintenance_threads = threads;
    }

    /// The configured maintenance thread budget.
    pub fn maintenance_threads(&self) -> MaintenanceThreads {
        self.maintenance_threads
    }

    /// The underlying graph (read-only; mutations must flow through this
    /// facade to keep the index consistent).
    pub fn graph(&self) -> &UndirectedGraph {
        &self.graph
    }

    /// The maintained SPC-Index.
    pub fn index(&self) -> &SpcIndex {
        &self.index
    }

    /// Number of updates applied since the last (re)build.
    pub fn updates_since_build(&self) -> usize {
        self.updates_since_build
    }

    /// The ordering strategy a later [`DynamicSpc::rebuild`] re-ranks with.
    pub fn strategy(&self) -> OrderingStrategy {
        self.strategy
    }

    /// Restores the update-pressure counter after crash recovery, so a
    /// recovered facade triggers staleness policies exactly like the
    /// never-crashed one whose state was checkpointed. Not for general use:
    /// the counter is otherwise maintained by the mutators themselves.
    pub fn restore_update_pressure(&mut self, updates_since_build: usize) {
        self.updates_since_build = updates_since_build;
    }

    /// `SPC(s, t)`: `Some((sd, spc))`, or `None` when disconnected.
    pub fn query(&self, s: VertexId, t: VertexId) -> Option<(u32, Count)> {
        spc_query(&self.index, s, t).as_option()
    }

    /// Shortest distance only.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Option<u32> {
        self.query(s, t).map(|(d, _)| d)
    }

    /// Inserts edge `(a, b)` and repairs the index with IncSPC.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId) -> Result<UpdateStats> {
        self.graph.insert_edge(a, b)?;
        self.flat = None;
        let stats = self.inc.insert_edge(&self.graph, &mut self.index, a, b);
        self.updates_since_build += 1;
        Ok(UpdateStats::from_counters(UpdateKind::InsertEdge, stats))
    }

    /// Deletes edge `(a, b)` and repairs the index with DecSPC.
    pub fn delete_edge(&mut self, a: VertexId, b: VertexId) -> Result<UpdateStats> {
        self.delete_edge_with_sets(a, b).map(|(s, _)| s)
    }

    /// Deletes edge `(a, b)`, also returning the `SR`/`R` affected sets
    /// (Table 5's measurement hook).
    pub fn delete_edge_with_sets(
        &mut self,
        a: VertexId,
        b: VertexId,
    ) -> Result<(UpdateStats, SrrOutcome)> {
        let (stats, srr) = self.dec.delete_edge(
            &mut self.graph,
            &mut self.index,
            a,
            b,
            self.maintenance_threads.resolve(),
        )?;
        self.flat = None;
        self.updates_since_build += 1;
        Ok((UpdateStats::from_dec(stats), srr))
    }

    /// Deletes a *set* of edges as one epoch through the multi-edge
    /// `SrrSEARCH` repair path ([`crate::dec::DecSpc::delete_edges`]):
    /// every edge is classified against the pre-mutation graph (one
    /// multi-far sweep per distinct endpoint), the whole set is removed at
    /// once, and each distinct affected hub is repaired with a single sweep
    /// of the residual graph — strictly fewer engine sweeps than deleting
    /// the edges one by one whenever their affected hub sets overlap. Both
    /// phases run on the configured [`MaintenanceThreads`].
    ///
    /// All edges are validated present before the first mutation; on error
    /// nothing is applied. Returns aggregated counters tagged
    /// [`UpdateKind::Batch`].
    pub fn delete_edges(&mut self, edges: &[(VertexId, VertexId)]) -> Result<UpdateStats> {
        let stats = self.dec.delete_edges(
            &mut self.graph,
            &mut self.index,
            edges,
            self.maintenance_threads.resolve(),
        )?;
        self.flat = None;
        self.updates_since_build += edges.len();
        Ok(UpdateStats::from_counters(UpdateKind::Batch, stats))
    }

    /// Adds an isolated vertex: O(1) on the index (§3 — only an empty label
    /// set joins).
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.graph.add_vertex();
        self.flat = None;
        self.index.add_isolated_vertex(v);
        self.updates_since_build += 1;
        v
    }

    /// Adds a vertex already connected to `neighbors` — modeled, per §3, as
    /// an isolated insertion followed by IncSPC per edge.
    pub fn add_vertex_connected(
        &mut self,
        neighbors: &[VertexId],
    ) -> Result<(VertexId, UpdateStats)> {
        let v = self.add_vertex();
        let mut total = UpdateStats::empty(UpdateKind::InsertVertex);
        for &u in neighbors {
            total.absorb(&self.insert_edge(v, u)?);
        }
        Ok((v, total))
    }

    /// Deletes vertex `v` — the incident edges are removed as one epoch
    /// through the multi-edge repair path (one global agenda instead of a
    /// per-edge DecSPC cascade), then the id is retired.
    pub fn delete_vertex(&mut self, v: VertexId) -> Result<UpdateStats> {
        if !self.graph.contains_vertex(v) {
            return Err(dspc_graph::GraphError::UnknownVertex(v));
        }
        let edges: Vec<(VertexId, VertexId)> = self
            .graph
            .neighbors(v)
            .iter()
            .map(|&u| (v, VertexId(u)))
            .collect();
        let mut total = self.delete_edges(&edges)?;
        total.kind = UpdateKind::DeleteVertex;
        // The batch's fast-path flag describes sub-deletions, not the
        // vertex deletion itself.
        total.counters.isolated_fast_path = false;
        // Retire the now-isolated vertex; its self label stays (harmless)
        // so that the id space and rank map remain aligned.
        self.graph.delete_vertex(v)?;
        self.flat = None;
        self.updates_since_build += 1;
        Ok(total)
    }

    /// Applies one update from a stream.
    pub fn apply(&mut self, update: GraphUpdate) -> Result<UpdateStats> {
        match update {
            GraphUpdate::InsertEdge(a, b) => self.insert_edge(a, b),
            GraphUpdate::DeleteEdge(a, b) => self.delete_edge(a, b),
            GraphUpdate::InsertVertex => {
                self.add_vertex();
                let mut s = UpdateStats::empty(UpdateKind::InsertVertex);
                s.inserted = 1;
                Ok(s)
            }
            GraphUpdate::DeleteVertex(v) => self.delete_vertex(v),
        }
    }

    /// Applies a whole stream, returning per-update stats.
    pub fn apply_stream(&mut self, updates: &[GraphUpdate]) -> Result<Vec<UpdateStats>> {
        updates.iter().map(|&u| self.apply(u)).collect()
    }

    /// Applies `updates` as one epoch: edge operations are deduplicated and
    /// coalesced (an insert and a delete of the same edge cancel; a delete
    /// followed by a re-insert is a topological no-op), the surviving net
    /// operations run through the engine in rank-friendly order, and the
    /// aggregated label-operation counters come back as one
    /// [`UpdateStats`].
    ///
    /// This is the write-side epoch boundary the serving story assumes:
    /// [`crate::parallel::par_batch_query`] fans queries out between
    /// batches, and the index is never observed mid-batch.
    ///
    /// Validation mirrors [`DynamicSpc::apply_stream`]: each edge op must
    /// be valid against the state left by the ops before it (inserting a
    /// present edge or deleting a missing one errors), and every edge op in
    /// a segment is validated before the first one is applied. Vertex
    /// operations act as barriers: pending edge ops flush first, then the
    /// vertex op applies, preserving sequential meaning.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Result<UpdateStats> {
        let mut total = UpdateStats::empty(UpdateKind::Batch);
        let mut co: crate::engine::EdgeCoalescer<()> = crate::engine::EdgeCoalescer::new();
        for &u in updates {
            match u {
                GraphUpdate::InsertEdge(a, b) => {
                    let (graph, key) = (&self.graph, ordered_key(a, b));
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_insert(key, (), || graph.has_edge(a, b).then_some(()))?;
                }
                GraphUpdate::DeleteEdge(a, b) => {
                    let (graph, key) = (&self.graph, ordered_key(a, b));
                    crate::engine::check_endpoints(a, b, |v| graph.contains_vertex(v))?;
                    co.fold_remove(key, || graph.has_edge(a, b).then_some(()))?;
                }
                GraphUpdate::InsertVertex | GraphUpdate::DeleteVertex(_) => {
                    self.flush_batch_segment(&mut co, &mut total)?;
                    total.absorb(&self.apply(u)?);
                }
            }
        }
        self.flush_batch_segment(&mut co, &mut total)?;
        Ok(total)
    }

    /// Applies one coalesced segment: the whole net-deletion set first, as
    /// one batch with one global repair agenda — then net insertions
    /// ordered by the higher-ranked endpoint (ascending rank position), a
    /// heuristic that settles the labels of top hubs before lower-ranked
    /// updates consult them, trimming repeat renewals. Per-call
    /// [`UpdateStats`] are aggregated into `total`.
    fn flush_batch_segment(
        &mut self,
        co: &mut crate::engine::EdgeCoalescer<()>,
        total: &mut UpdateStats,
    ) -> Result<()> {
        if co.is_empty() {
            return Ok(());
        }
        let index = &self.index;
        let plan = crate::engine::NetPlan::build(co.drain(), |v| index.rank(VertexId(v)));
        let deletions = plan.vertex_deletions();
        if !deletions.is_empty() {
            total.absorb(&self.delete_edges(&deletions)?);
        }
        for op in plan.into_post_deletion_ops() {
            total.absorb(&match op {
                crate::engine::NetOp::Insert(a, b, ()) => self.insert_edge(a, b)?,
                crate::engine::NetOp::Rewrite(..) => {
                    unreachable!("unit payloads cannot rewrite")
                }
            });
        }
        total.counters.isolated_fast_path = false;
        Ok(())
    }

    /// Index size/shape statistics (Table 4's "L Size").
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Plans up to `budget` non-overlapping adjacent rank swaps against
    /// the current degree order, largest inversions first
    /// ([`crate::order::plan_adjacent_swaps`]).
    pub fn plan_rerank(&self, budget: usize) -> Vec<crate::label::Rank> {
        crate::order::plan_adjacent_swaps(&self.graph, self.index.ranks(), budget)
    }

    /// Applies a sorted, non-overlapping run of adjacent rank swaps and
    /// repairs the index in place ([`crate::reorder::rerank_adjacent`]) —
    /// the bounded middle ground between per-update repair and
    /// [`DynamicSpc::rebuild`]. The post-repair index is bit-identical to
    /// a fresh build at the swapped order; like every mutation, a
    /// non-empty re-rank drops the cached frozen snapshot.
    pub fn rerank_adjacent(&mut self, swaps: &[crate::label::Rank]) -> MaintenanceCounters {
        if swaps.is_empty() {
            return MaintenanceCounters::default();
        }
        self.flat = None;
        self.inc.rerank(&self.graph, &mut self.index, swaps)
    }

    /// Rebuilds from scratch with a *fresh* ordering — the paper's lazy
    /// answer to ordering staleness (§6).
    pub fn rebuild(&mut self) {
        self.index = self.inc.build(&self.graph, self.strategy);
        self.flat = None;
        self.updates_since_build = 0;
    }

    /// Rebuilds from scratch keeping the current ordering — the
    /// reconstruction baseline the dynamic algorithms race against.
    pub fn rebuild_same_order(&mut self) {
        self.index = self.inc.rebuild(&self.graph, self.index.ranks().clone());
        self.flat = None;
        self.updates_since_build = 0;
    }

    /// Consumes the facade, returning the graph and index.
    pub fn into_parts(self) -> (UndirectedGraph, SpcIndex) {
        (self.graph, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_query_roundtrip() {
        let d = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
        assert_eq!(d.query(VertexId(4), VertexId(6)), Some((3, 2)));
        assert_eq!(d.distance(VertexId(0), VertexId(9)), Some(4));
        assert_eq!(d.query(VertexId(0), VertexId(0)), Some((0, 1)));
    }

    #[test]
    fn insert_then_delete_roundtrip_preserves_queries() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
        let before: Vec<_> = (0..12u32)
            .flat_map(|s| (0..12u32).map(move |t| (s, t)))
            .map(|(s, t)| d.query(VertexId(s), VertexId(t)))
            .collect();
        d.insert_edge(VertexId(3), VertexId(9)).unwrap();
        d.delete_edge(VertexId(3), VertexId(9)).unwrap();
        let after: Vec<_> = (0..12u32)
            .flat_map(|s| (0..12u32).map(move |t| (s, t)))
            .map(|(s, t)| d.query(VertexId(s), VertexId(t)))
            .collect();
        assert_eq!(before, after);
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }

    #[test]
    fn vertex_lifecycle() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        let (v, _) = d.add_vertex_connected(&[VertexId(0), VertexId(9)]).unwrap();
        assert_eq!(v, VertexId(12));
        verify_all_pairs(d.graph(), d.index()).unwrap();
        // New vertex creates a shortcut 0–9 of length 2.
        assert_eq!(d.distance(VertexId(0), VertexId(9)), Some(2));
        let stats = d.delete_vertex(v).unwrap();
        assert_eq!(stats.kind, UpdateKind::DeleteVertex);
        verify_all_pairs(d.graph(), d.index()).unwrap();
        assert_eq!(d.distance(VertexId(0), VertexId(9)), Some(4));
    }

    #[test]
    fn hybrid_stream_matches_reconstruction() {
        let mut rng = StdRng::seed_from_u64(10_000);
        let g = erdos_renyi_gnm(40, 100, &mut rng);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        for step in 0..40 {
            if rng.gen_bool(0.6) || d.graph().num_edges() == 0 {
                loop {
                    let a = rng.gen_range(0..40u32);
                    let b = rng.gen_range(0..40u32);
                    if a != b && !d.graph().has_edge(VertexId(a), VertexId(b)) {
                        d.insert_edge(VertexId(a), VertexId(b)).unwrap();
                        break;
                    }
                }
            } else {
                let m = d.graph().num_edges();
                let (a, b) = d.graph().nth_edge(rng.gen_range(0..m)).unwrap();
                d.delete_edge(a, b).unwrap();
            }
            if step % 10 == 9 {
                verify_all_pairs(d.graph(), d.index()).unwrap();
            }
        }
        verify_all_pairs(d.graph(), d.index()).unwrap();
        assert_eq!(d.updates_since_build(), 40);
    }

    #[test]
    fn apply_stream_counts() {
        let mut d = DynamicSpc::build(UndirectedGraph::with_vertices(3), OrderingStrategy::Degree);
        let stats = d
            .apply_stream(&[
                GraphUpdate::InsertEdge(VertexId(0), VertexId(1)),
                GraphUpdate::InsertEdge(VertexId(1), VertexId(2)),
                GraphUpdate::InsertVertex,
                GraphUpdate::InsertEdge(VertexId(3), VertexId(0)),
                GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
            ])
            .unwrap();
        assert_eq!(stats.len(), 5);
        verify_all_pairs(d.graph(), d.index()).unwrap();
        // Deleting (0,1) stranded {1,2} from {0,3}.
        assert_eq!(d.query(VertexId(1), VertexId(3)), None);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((1, 1)));
        assert_eq!(d.query(VertexId(1), VertexId(2)), Some((1, 1)));
    }

    #[test]
    fn apply_batch_coalesces_and_matches_sequential() {
        // Same ops, batch vs stream: identical final graphs and queries.
        let base = figure2_g();
        let ops = [
            GraphUpdate::InsertEdge(VertexId(3), VertexId(9)),
            GraphUpdate::DeleteEdge(VertexId(1), VertexId(2)),
            GraphUpdate::DeleteEdge(VertexId(3), VertexId(9)), // cancels the insert
            GraphUpdate::InsertEdge(VertexId(0), VertexId(10)),
        ];
        let mut batched = DynamicSpc::build(base.clone(), OrderingStrategy::Degree);
        let stats = batched.apply_batch(&ops).unwrap();
        assert_eq!(stats.kind, UpdateKind::Batch);
        let mut streamed = DynamicSpc::build(base, OrderingStrategy::Degree);
        streamed.apply_stream(&ops).unwrap();
        assert_eq!(batched.graph().num_edges(), streamed.graph().num_edges());
        for s in batched.graph().vertices() {
            for t in batched.graph().vertices() {
                assert_eq!(batched.query(s, t), streamed.query(s, t), "({s:?},{t:?})");
            }
        }
        verify_all_pairs(batched.graph(), batched.index()).unwrap();
        // The cancelled edge never exists in the batched graph.
        assert!(!batched.graph().has_edge(VertexId(3), VertexId(9)));
    }

    #[test]
    fn apply_batch_validates_like_the_stream() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        // Inserting an existing edge fails even inside a batch…
        assert!(d
            .apply_batch(&[GraphUpdate::InsertEdge(VertexId(0), VertexId(1))])
            .is_err());
        // …unless a preceding batched delete removed it first.
        let stats = d
            .apply_batch(&[
                GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
                GraphUpdate::InsertEdge(VertexId(0), VertexId(1)),
            ])
            .unwrap();
        // Delete + re-insert nets out: no maintenance ran at all.
        assert_eq!(stats.total_ops(), 0);
        assert!(d.graph().has_edge(VertexId(0), VertexId(1)));
        // Deleting a missing edge fails, and double-delete inside a batch
        // fails at fold time (before anything is applied).
        assert!(d
            .apply_batch(&[GraphUpdate::DeleteEdge(VertexId(0), VertexId(9))])
            .is_err());
        assert!(d
            .apply_batch(&[
                GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
                GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
            ])
            .is_err());
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }

    #[test]
    fn apply_batch_rejects_bad_endpoints_before_applying_anything() {
        // Presence checks alone would let an unknown-vertex op through
        // folding and only fail mid-flush, after the reordered net plan
        // already deleted (0, 1). Endpoint validation must fire at fold
        // time, before any mutation.
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        assert!(d
            .apply_batch(&[
                GraphUpdate::InsertEdge(VertexId(0), VertexId(99)),
                GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
            ])
            .is_err());
        assert!(
            d.graph().has_edge(VertexId(0), VertexId(1)),
            "nothing applied"
        );
        assert!(d
            .apply_batch(&[GraphUpdate::InsertEdge(VertexId(2), VertexId(2))])
            .is_err());
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }

    #[test]
    fn apply_batch_vertex_ops_are_barriers() {
        let mut d = DynamicSpc::build(UndirectedGraph::with_vertices(2), OrderingStrategy::Degree);
        let stats = d
            .apply_batch(&[
                GraphUpdate::InsertEdge(VertexId(0), VertexId(1)),
                GraphUpdate::InsertVertex, // v2 — flushes the pending insert
                GraphUpdate::InsertEdge(VertexId(1), VertexId(2)),
                GraphUpdate::DeleteVertex(VertexId(0)),
            ])
            .unwrap();
        assert!(stats.inserted >= 1);
        assert_eq!(d.graph().num_vertices(), 2);
        assert_eq!(d.query(VertexId(1), VertexId(2)), Some((1, 1)));
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }

    #[test]
    fn isolated_vertex_fast_path_through_facade() {
        // Pendant off a triangle under degree order: deleting the pendant
        // edge must take the §3.2.3 fast path and leave an exact index
        // (exercises the one-pass LabelSet::reset_to_self).
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        let stats = d.delete_edge(VertexId(2), VertexId(3)).unwrap();
        assert!(stats.isolated_fast_path);
        assert!(stats.removed >= 1);
        assert_eq!(d.index().label_set(VertexId(3)).len(), 1);
        assert_eq!(d.query(VertexId(3), VertexId(0)), None);
        assert_eq!(d.query(VertexId(3), VertexId(3)), Some((0, 1)));
        verify_all_pairs(d.graph(), d.index()).unwrap();
        d.index().check_invariants().unwrap();
    }

    #[test]
    fn rebuild_resets_counter_and_stays_correct() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        d.insert_edge(VertexId(3), VertexId(9)).unwrap();
        assert_eq!(d.updates_since_build(), 1);
        d.rebuild();
        assert_eq!(d.updates_since_build(), 0);
        verify_all_pairs(d.graph(), d.index()).unwrap();
        d.rebuild_same_order();
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }

    #[test]
    fn frozen_snapshot_caches_and_invalidates() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        assert!(!d.has_frozen_snapshot());
        let r = d.frozen_queries().query(VertexId(4), VertexId(6));
        assert_eq!(r.as_option(), d.query(VertexId(4), VertexId(6)));
        assert!(d.has_frozen_snapshot());
        // Repeated access reuses the cached snapshot.
        d.frozen_queries();
        assert!(d.has_frozen_snapshot());

        // Every mutation path drops the cache…
        d.insert_edge(VertexId(3), VertexId(9)).unwrap();
        assert!(!d.has_frozen_snapshot());
        d.frozen_queries();
        d.delete_edge(VertexId(3), VertexId(9)).unwrap();
        assert!(!d.has_frozen_snapshot());
        d.frozen_queries();
        d.apply_batch(&[GraphUpdate::InsertEdge(VertexId(3), VertexId(9))])
            .unwrap();
        assert!(!d.has_frozen_snapshot());
        d.frozen_queries();
        d.add_vertex();
        assert!(!d.has_frozen_snapshot());
        d.frozen_queries();
        d.rebuild();
        assert!(!d.has_frozen_snapshot());

        // …and the re-frozen snapshot answers like the repaired index.
        let vs: Vec<VertexId> = d.graph().vertices().collect();
        for &s in &vs {
            for &t in &vs {
                let live = d.query(s, t);
                assert_eq!(d.frozen_queries().query(s, t).as_option(), live);
            }
        }
    }

    #[test]
    fn errors_do_not_corrupt_state() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        assert!(d.insert_edge(VertexId(0), VertexId(1)).is_err()); // duplicate
        assert!(d.delete_edge(VertexId(0), VertexId(9)).is_err()); // missing
        assert!(d.delete_vertex(VertexId(40)).is_err()); // unknown
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }
}
