//! `Dynamic<V>` — the user-facing facade: a graph and its SPC-Index kept in
//! lockstep under topological updates, written once for every
//! [`Variant`]. [`DynamicSpc`] (undirected),
//! [`crate::directed::DynamicDirectedSpc`] and
//! [`crate::weighted::DynamicWeightedSpc`] are its three instances; each
//! adds only the entry points whose names or signatures differ
//! (`insert_arc`, `insert_edge(a, b, w)`, `set_weight`, …).
//!
//! This is the object the paper's experiments drive: build once (HP-SPC),
//! then stream edge/vertex insertions and deletions through IncSPC/DecSPC
//! while answering `spc` queries at index speed throughout. Every update
//! returns an [`UpdateStats`] with the label-operation counters behind
//! Figures 8–10.
//!
//! Each facade also carries a [`MaintenancePolicy`] (default
//! [`MaintenancePolicy::NEVER`]), the paper's §6 answer to a decaying
//! vertex order: [`Dynamic::apply`] and [`Dynamic::apply_batch`] run it
//! once, after the call, and it may re-rank or rebuild
//! ([`crate::policy`]).
//!
//! ## The epoch contract
//!
//! There are two write APIs with one consistency story:
//!
//! * **Streaming** ([`DynamicSpc::insert_edge`], [`Dynamic::delete_edge`],
//!   [`Dynamic::apply_stream`]) repairs the index after every single
//!   update — the index is exact after each call.
//! * **Epochs** ([`Dynamic::apply_batch`], [`Dynamic::delete_edges`])
//!   treat a whole update slice as one atomic step: ops fold to their net
//!   effect (an insert and a delete of the same edge cancel, a delete
//!   followed by a re-insert is a topological no-op), the net deletions
//!   are repaired together through the multi-edge `SrrSEARCH` path (one
//!   repair sweep per distinct affected hub), and the index is exact again
//!   when the call returns. A batch that fails applies nothing.
//!
//! The index is never observed mid-epoch: readers query either the
//! pre-batch or the post-batch state. [`Dynamic::publish`] hands that
//! state to readers as an immutable snapshot, sharing every label row the
//! epoch left unchanged with the previous one; a snapshot does not follow
//! later updates, so each epoch publishes its own. The same boundary is
//! what makes query fan-out safe — [`crate::parallel::par_batch_query_auto`]
//! may spread a read burst across threads against the immutable index
//! *between* epochs, with no locking anywhere.
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
//! let snapshot = d.publish(1);
//! assert_eq!(snapshot.query(VertexId(0), VertexId(3)).as_option(), Some((2, 1)));
//! ```

use crate::dec::SrrOutcome;
use crate::engine::{
    check_endpoints, EdgeCoalescer, MaintenanceCounters, NetOp, NetPlan, Pipeline, Undirected,
    UpdateOp, Variant,
};
use crate::flat::Snapshot;
use crate::index::{IndexStats, LabelIndex};
use crate::label::{Count, LabelDist, Rank};
use crate::order::OrderingStrategy;
use crate::parallel::MaintenanceThreads;
use crate::policy::MaintenancePolicy;
use dspc_graph::{GraphError, Result, VertexId};
use std::cmp::Ordering;
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
    /// A coalesced batch ([`Dynamic::apply_batch`]).
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

/// A dynamic graph with an always-consistent SPC-Index, for the
/// [`Variant`] `V`.
#[derive(Debug)]
pub struct Dynamic<V: Variant> {
    graph: V::Graph,
    index: LabelIndex<V>,
    /// The scratch every update, build, rebuild and re-rank runs on.
    pipeline: Pipeline<V>,
    strategy: OrderingStrategy,
    updates_since_build: usize,
    maintenance_threads: MaintenanceThreads,
    /// What [`Dynamic::apply`] and [`Dynamic::apply_batch`] do about a
    /// stale order after each call ([`crate::policy`]).
    pub(crate) policy: MaintenancePolicy,
    /// Rebuilds the policy triggered.
    pub(crate) rebuilds: usize,
    /// Counters of every re-rank the policy ran.
    pub(crate) rerank_totals: MaintenanceCounters,
}

/// The undirected facade: the paper's primary setting.
pub type DynamicSpc = Dynamic<Undirected>;

impl<V: Variant> Dynamic<V> {
    /// Builds the index for `graph` under `strategy` and wraps both.
    pub fn build(graph: V::Graph, strategy: OrderingStrategy) -> Self {
        let mut pipeline = Pipeline::new(V::capacity(&graph));
        let index = pipeline.build(&graph, strategy);
        Self::assemble(graph, index, pipeline, strategy)
    }

    /// Wraps an already-built `(graph, index)` pair — the warm-start path:
    /// a server boots from a serialized index
    /// ([`crate::serialize::load_flat`] + [`crate::flat::Snapshot::thaw`],
    /// whose rows stay shared with the loaded snapshot until first written)
    /// and resumes dynamic maintenance without paying a rebuild. `strategy`
    /// is what a later [`Dynamic::rebuild`] will re-rank with.
    ///
    /// The caller asserts `index` is exact for `graph`; the id spaces must
    /// at least agree (checked here).
    pub fn from_parts(graph: V::Graph, index: LabelIndex<V>, strategy: OrderingStrategy) -> Self {
        let cap = V::capacity(&graph);
        assert_eq!(
            index.num_vertices(),
            cap,
            "index and graph id spaces disagree"
        );
        Self::assemble(graph, index, Pipeline::new(cap), strategy)
    }

    fn assemble(
        graph: V::Graph,
        index: LabelIndex<V>,
        pipeline: Pipeline<V>,
        strategy: OrderingStrategy,
    ) -> Self {
        Dynamic {
            graph,
            index,
            pipeline,
            strategy,
            updates_since_build: 0,
            maintenance_threads: MaintenanceThreads::default(),
            policy: MaintenancePolicy::NEVER,
            rebuilds: 0,
            rerank_totals: MaintenanceCounters::default(),
        }
    }

    /// Publishes the current epoch's serving snapshot: every label row
    /// written since the previous publish becomes shared, every other row
    /// is handed out again as is. Costs `O(n)` handle clones plus the rows
    /// the epoch changed. The snapshot attributes query counters over
    /// `shards` evenly sized vertex ranges ([`Snapshot::publish`]).
    pub fn publish(&mut self, shards: usize) -> Snapshot<V> {
        Snapshot::publish(&mut self.index, shards)
    }

    /// Sets the worker-thread budget for deletion maintenance: the
    /// classification sweeps of [`Dynamic::delete_edges`] and of the
    /// deletion segments of [`Dynamic::apply_batch`], and the repair sweeps
    /// of every deletion and weight increase, [`Dynamic::delete_edge`]
    /// included. Repair sweeps speculate read-only in blocks and commit in
    /// rank order, re-running any sweep an earlier commit invalidated, so
    /// every thread count produces the same index, queries, and counters.
    pub fn set_maintenance_threads(&mut self, threads: MaintenanceThreads) {
        self.maintenance_threads = threads;
    }

    /// The configured maintenance thread budget.
    pub fn maintenance_threads(&self) -> MaintenanceThreads {
        self.maintenance_threads
    }

    /// The underlying graph (read-only; mutations must flow through this
    /// facade to keep the index consistent).
    pub fn graph(&self) -> &V::Graph {
        &self.graph
    }

    /// The maintained SPC-Index.
    pub fn index(&self) -> &LabelIndex<V> {
        &self.index
    }

    /// Number of updates applied since the last (re)build.
    pub fn updates_since_build(&self) -> usize {
        self.updates_since_build
    }

    /// The ordering strategy a later [`Dynamic::rebuild`] re-ranks with.
    pub fn strategy(&self) -> OrderingStrategy {
        self.strategy
    }

    /// Restores the update pressure, the policy's rebuild count and its
    /// cumulative re-rank counters after crash recovery, so a recovered
    /// facade runs its policy, and reports it, exactly like the
    /// never-crashed one whose state was checkpointed. Not for general
    /// use: all three are otherwise kept by the mutators themselves.
    pub fn restore_counts(
        &mut self,
        updates_since_build: usize,
        rebuilds: usize,
        rerank_totals: MaintenanceCounters,
    ) {
        self.updates_since_build = updates_since_build;
        self.rebuilds = rebuilds;
        self.rerank_totals = rerank_totals;
    }

    /// `SPC(s, t)` (`s → t` for arcs): `Some((sd, spc))`, or `None` when
    /// unreachable.
    pub fn query(&self, s: VertexId, t: VertexId) -> Option<(V::Dist, Count)> {
        let (dist, count) = V::query(&self.index, s, t);
        (dist != V::Dist::INF).then_some((dist, count))
    }

    /// Shortest distance only.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Option<V::Dist> {
        self.query(s, t).map(|(d, _)| d)
    }

    /// Inserts edge `(a, b)` carrying `w` and repairs the index with
    /// IncSPC.
    pub(crate) fn insert(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: V::Payload,
    ) -> Result<UpdateStats> {
        V::insert(&mut self.graph, a, b, w)?;
        let stats = self
            .pipeline
            .insert_edge(&self.graph, &mut self.index, a, b);
        self.updates_since_build += 1;
        Ok(UpdateStats::from_counters(UpdateKind::InsertEdge, stats))
    }

    /// Changes the payload of `(a, b)` to `w`: a smaller one runs the
    /// incremental machinery, a larger one the single-edge deletion
    /// pipeline with the change as its mutation (classifying with the old
    /// length), an equal one nothing.
    pub(crate) fn rewrite(
        &mut self,
        a: VertexId,
        b: VertexId,
        w: V::Payload,
    ) -> Result<UpdateStats> {
        let old = V::payload(&self.graph, a, b).ok_or(GraphError::MissingEdge(a, b))?;
        let stats = match w.cmp(&old) {
            Ordering::Equal => return Ok(UpdateStats::empty(UpdateKind::WeightChange)),
            Ordering::Less => {
                V::set_payload(&mut self.graph, a, b, w)?;
                self.pipeline
                    .insert_edge(&self.graph, &mut self.index, a, b)
            }
            Ordering::Greater => {
                let mutate = |g: &mut V::Graph| V::set_payload(g, a, b, w);
                let threads = self.maintenance_threads.resolve();
                let (graph, index) = (&mut self.graph, &mut self.index);
                self.pipeline
                    .delete_one(graph, index, (a, b), mutate, false, threads)?
                    .0
            }
        };
        self.updates_since_build += 1;
        Ok(UpdateStats::from_counters(UpdateKind::WeightChange, stats))
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
        let threads = self.maintenance_threads.resolve();
        let (graph, index) = (&mut self.graph, &mut self.index);
        let (stats, srr) = self.pipeline.delete_edge(graph, index, a, b, threads)?;
        self.updates_since_build += 1;
        Ok((
            UpdateStats::from_counters(UpdateKind::DeleteEdge, stats),
            srr,
        ))
    }

    /// Deletes a *set* of edges as one epoch through the multi-edge
    /// `SrrSEARCH` repair path ([`Pipeline::delete_edges`]): every edge
    /// is classified against the pre-mutation graph (one multi-far sweep
    /// per distinct endpoint), the whole set is removed at once, and each
    /// distinct affected hub is repaired with a single sweep of the
    /// residual graph per label family — strictly fewer engine sweeps than
    /// deleting the edges one by one whenever their affected hub sets
    /// overlap. Both phases run on the configured [`MaintenanceThreads`].
    ///
    /// All edges are validated present before the first mutation; on error
    /// nothing is applied. Returns aggregated counters tagged
    /// [`UpdateKind::Batch`].
    pub fn delete_edges(&mut self, edges: &[(VertexId, VertexId)]) -> Result<UpdateStats> {
        let threads = self.maintenance_threads.resolve();
        let stats = self
            .pipeline
            .delete_edges(&mut self.graph, &mut self.index, edges, threads)?;
        self.updates_since_build += edges.len();
        Ok(UpdateStats::from_counters(UpdateKind::Batch, stats))
    }

    /// Adds an isolated vertex: O(1) on the index (§3 — only its self
    /// labels join, at the lowest rank).
    pub fn add_vertex(&mut self) -> VertexId {
        let v = V::add_vertex(&mut self.graph);
        self.index.append_vertex(v);
        self.updates_since_build += 1;
        v
    }

    /// Deletes vertex `v` — the incident edges are removed as one epoch
    /// through the multi-edge repair path (one global agenda instead of a
    /// per-edge DecSPC cascade), then the id is retired.
    pub fn delete_vertex(&mut self, v: VertexId) -> Result<UpdateStats> {
        if !V::contains(&self.graph, v) {
            return Err(GraphError::UnknownVertex(v));
        }
        let mut total = self.delete_edges(&V::incident(&self.graph, v))?;
        total.kind = UpdateKind::DeleteVertex;
        // The batch's fast-path flag describes sub-deletions, not the
        // vertex deletion itself.
        total.counters.isolated_fast_path = false;
        // Retire the now-isolated vertex; its self label stays (harmless)
        // so that the id space and rank map remain aligned.
        V::remove_vertex(&mut self.graph, v)?;
        self.updates_since_build += 1;
        Ok(total)
    }

    /// Applies one update from a stream, then runs the
    /// [`MaintenancePolicy`] (its re-rank counters are absorbed into the
    /// returned stats). A failed update changes nothing.
    pub fn apply(&mut self, update: V::Update) -> Result<UpdateStats> {
        let mut stats = self.apply_op(update)?;
        stats.counters.absorb(&self.maintain());
        Ok(stats)
    }

    fn apply_op(&mut self, update: V::Update) -> Result<UpdateStats> {
        match V::op(update) {
            UpdateOp::Insert(a, b, w) => self.insert(a, b, w),
            UpdateOp::Delete(a, b) => self.delete_edge(a, b),
            UpdateOp::Rewrite(a, b, w) => self.rewrite(a, b, w),
            UpdateOp::InsertVertex => {
                self.add_vertex();
                let mut s = UpdateStats::empty(UpdateKind::InsertVertex);
                s.inserted = 1;
                Ok(s)
            }
            UpdateOp::DeleteVertex(v) => self.delete_vertex(v),
        }
    }

    /// Applies a whole stream, one [`Dynamic::apply`] per update, returning
    /// per-update stats.
    pub fn apply_stream(&mut self, updates: &[V::Update]) -> Result<Vec<UpdateStats>> {
        updates.iter().map(|&u| self.apply(u)).collect()
    }

    /// Applies `updates` as one epoch: edge operations are deduplicated and
    /// coalesced (an insert and a delete of the same edge cancel; a delete
    /// followed by a re-insert at the same payload is a topological no-op;
    /// consecutive payload changes collapse to the last), the surviving
    /// net operations run through the engine in rank-friendly order, and
    /// the aggregated label-operation counters come back as one
    /// [`UpdateStats`]. The [`MaintenancePolicy`] runs once, after the whole
    /// batch, and its re-rank counters join the aggregate.
    ///
    /// This is the write-side epoch boundary the serving story assumes:
    /// [`crate::parallel::par_batch_query`] fans queries out between
    /// batches, and the index is never observed mid-batch.
    ///
    /// Validation mirrors [`Dynamic::apply_stream`]: each edge op must be
    /// valid against the state left by the ops before it (inserting a
    /// present edge, deleting a missing one, or a zero weight errors), and
    /// a batch that fails applies nothing. Edge ops are validated as they
    /// fold, before the first one is applied. Vertex operations act as
    /// barriers: pending edge ops flush first, then the vertex op applies,
    /// preserving sequential meaning; the first one replays the whole
    /// batch on a copy of the graph before anything applies.
    pub fn apply_batch(&mut self, updates: &[V::Update]) -> Result<UpdateStats> {
        let mut total = UpdateStats::empty(UpdateKind::Batch);
        let mut co: EdgeCoalescer<V::Payload> = EdgeCoalescer::new();
        let mut replayed = false;
        for &u in updates {
            let graph = &self.graph;
            let contains = |v| V::contains(graph, v);
            match V::op(u) {
                UpdateOp::Insert(a, b, w) => {
                    check_endpoints(a, b, contains)?;
                    V::check_payload(w)?;
                    co.fold_insert(V::edge_key(a, b), w, || V::payload(graph, a, b))?;
                }
                UpdateOp::Delete(a, b) => {
                    check_endpoints(a, b, contains)?;
                    co.fold_remove(V::edge_key(a, b), || V::payload(graph, a, b))?;
                }
                UpdateOp::Rewrite(a, b, w) => {
                    check_endpoints(a, b, contains)?;
                    V::check_payload(w)?;
                    co.fold_rewrite(V::edge_key(a, b), w, || V::payload(graph, a, b))?;
                }
                UpdateOp::InsertVertex | UpdateOp::DeleteVertex(_) => {
                    if !replayed {
                        self.replay(updates)?;
                        replayed = true;
                    }
                    self.flush_batch_segment(&mut co, &mut total)?;
                    total.absorb(&self.apply_op(u)?);
                }
            }
        }
        self.flush_batch_segment(&mut co, &mut total)?;
        total.counters.absorb(&self.maintain());
        Ok(total)
    }

    /// Replays `updates` on a copy of the graph, returning the first op's
    /// error. A batch holding a vertex op flushes edge segments before its
    /// later ops are checked, so it is replayed in full first: a batch that
    /// fails applies nothing. Edge-only batches never pay for the copy.
    fn replay(&self, updates: &[V::Update]) -> Result<()> {
        let mut g = self.graph.clone();
        for &u in updates {
            match V::op(u) {
                UpdateOp::Insert(a, b, w) => V::insert(&mut g, a, b, w)?,
                UpdateOp::Delete(a, b) => V::delete(&mut g, a, b)?,
                UpdateOp::Rewrite(a, b, w) => V::set_payload(&mut g, a, b, w)?,
                UpdateOp::InsertVertex => drop(V::add_vertex(&mut g)),
                UpdateOp::DeleteVertex(v) => V::remove_vertex(&mut g, v)?,
            }
        }
        Ok(())
    }

    /// Applies one coalesced segment: the whole net-deletion set first, as
    /// one batch with one global repair agenda — then payload changes and
    /// net insertions, each ordered by the higher-ranked endpoint
    /// (ascending rank position), a heuristic that settles the labels of
    /// top hubs before lower-ranked updates consult them, trimming repeat
    /// renewals. Per-call [`UpdateStats`] are aggregated into `total`.
    fn flush_batch_segment(
        &mut self,
        co: &mut EdgeCoalescer<V::Payload>,
        total: &mut UpdateStats,
    ) -> Result<()> {
        if co.is_empty() {
            return Ok(());
        }
        let ranks = self.index.ranks();
        let plan = NetPlan::build(co.drain(), |v| ranks.rank(VertexId(v)));
        let deletions = plan.vertex_deletions();
        if !deletions.is_empty() {
            total.absorb(&self.delete_edges(&deletions)?);
        }
        for op in plan.into_post_deletion_ops() {
            total.absorb(&match op {
                NetOp::Rewrite(a, b, w) => self.rewrite(a, b, w)?,
                NetOp::Insert(a, b, w) => self.insert(a, b, w)?,
            });
        }
        total.counters.isolated_fast_path = false;
        Ok(())
    }

    /// Applies a sorted, non-overlapping run of adjacent rank swaps and
    /// repairs the index in place ([`crate::reorder::rerank_adjacent`]) —
    /// the bounded middle ground between per-update repair and
    /// [`Dynamic::rebuild`]. The post-repair index is bit-identical to a
    /// fresh build at the swapped order.
    pub fn rerank_adjacent(&mut self, swaps: &[Rank]) -> MaintenanceCounters {
        self.pipeline.rerank(&self.graph, &mut self.index, swaps)
    }

    /// Rebuilds from scratch with a *fresh* ordering — the paper's lazy
    /// answer to ordering staleness (§6).
    pub fn rebuild(&mut self) {
        self.index = self.pipeline.build(&self.graph, self.strategy);
        self.updates_since_build = 0;
    }

    /// Rebuilds from scratch keeping the current ordering — the
    /// reconstruction baseline the dynamic algorithms race against.
    pub fn rebuild_same_order(&mut self) {
        self.index = self
            .pipeline
            .rebuild(&self.graph, self.index.ranks().clone());
        self.updates_since_build = 0;
    }

    /// Consumes the facade, returning the graph and index.
    pub fn into_parts(self) -> (V::Graph, LabelIndex<V>) {
        (self.graph, self.index)
    }
}

impl Dynamic<Undirected> {
    /// Inserts edge `(a, b)` and repairs the index with IncSPC.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId) -> Result<UpdateStats> {
        self.insert(a, b, ())
    }

    /// Adds a vertex already connected to `neighbors` — modeled, per §3, as
    /// an isolated insertion followed by IncSPC per edge. The neighbors are
    /// checked first (live, none repeated): on error nothing is added.
    pub fn add_vertex_connected(
        &mut self,
        neighbors: &[VertexId],
    ) -> Result<(VertexId, UpdateStats)> {
        if let Some(&u) = neighbors.iter().find(|&&u| !self.graph.contains_vertex(u)) {
            return Err(GraphError::UnknownVertex(u));
        }
        let mut sorted = neighbors.to_vec();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            let next = VertexId::from_index(self.graph.capacity());
            return Err(GraphError::DuplicateEdge(next, pair[0]));
        }
        let v = self.add_vertex();
        let mut total = UpdateStats::empty(UpdateKind::InsertVertex);
        for &u in neighbors {
            total.absorb(&self.insert_edge(v, u)?);
        }
        Ok((v, total))
    }

    /// Index size/shape statistics (Table 4's "L Size").
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use dspc_graph::UndirectedGraph;
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
        // A snapshot published after each mutation answers like the
        // repaired live index, whichever path mutated it.
        fn check(d: &mut DynamicSpc) {
            let snapshot = d.publish(1);
            let vs: Vec<VertexId> = d.graph().vertices().collect();
            for &s in &vs {
                for &t in &vs {
                    assert_eq!(snapshot.query(s, t).as_option(), d.query(s, t));
                }
            }
        }
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        check(&mut d);
        d.insert_edge(VertexId(3), VertexId(9)).unwrap();
        check(&mut d);
        d.delete_edge(VertexId(3), VertexId(9)).unwrap();
        check(&mut d);
        d.apply_batch(&[GraphUpdate::InsertEdge(VertexId(3), VertexId(9))])
            .unwrap();
        check(&mut d);
        d.add_vertex();
        check(&mut d);
        d.rebuild();
        check(&mut d);
    }

    #[test]
    fn failing_vertex_op_applies_nothing() {
        // The vertex op fails only after the edge segment before it would
        // have flushed: the whole batch must be rejected first.
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        let err = d.apply_batch(&[
            GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
            GraphUpdate::DeleteVertex(VertexId(99)),
        ]);
        assert!(matches!(err, Err(GraphError::UnknownVertex(VertexId(99)))));
        assert!(
            d.graph().has_edge(VertexId(0), VertexId(1)),
            "nothing applied"
        );
        assert_eq!(d.query(VertexId(0), VertexId(1)), Some((1, 1)));
        assert_eq!(d.updates_since_build(), 0);
        // An edge op after a vertex op is checked against the state the
        // vertex op leaves: vertex 4 does not exist yet when it is named.
        assert!(d
            .apply_batch(&[
                GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
                GraphUpdate::InsertVertex,
                GraphUpdate::InsertEdge(VertexId(5), VertexId(0)),
            ])
            .is_err());
        assert_eq!(d.graph().capacity(), 4);
        assert!(d.graph().has_edge(VertexId(0), VertexId(1)));
        verify_all_pairs(d.graph(), d.index()).unwrap();
    }

    #[test]
    fn add_vertex_connected_checks_neighbors_first() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        let n = d.graph().capacity();
        assert!(matches!(
            d.add_vertex_connected(&[VertexId(0), VertexId(9), VertexId(0)]),
            Err(GraphError::DuplicateEdge(VertexId(12), VertexId(0)))
        ));
        assert!(d
            .add_vertex_connected(&[VertexId(0), VertexId(40)])
            .is_err());
        assert_eq!(d.graph().capacity(), n, "no vertex added");
        assert_eq!(d.updates_since_build(), 0);
        verify_all_pairs(d.graph(), d.index()).unwrap();
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
