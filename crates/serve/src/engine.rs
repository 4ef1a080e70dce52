//! The two capability traits the server is generic over: what a published
//! snapshot can answer, and what a live engine can do between rotations.

use dspc::directed::{directed_spc_query, DynamicDirectedSpc};
use dspc::dynamic::GraphUpdate;
use dspc::policy::ManagedSpc;
use dspc::query::spc_query;
use dspc::shard::ShardedFlatIndex;
use dspc::weighted::{weighted_spc_query, DynamicWeightedSpc, WQueryResult, WeightedUpdate};
use dspc::{
    DirectedFlatIndex, DynamicSpc, FlatIndex, FlatScratch, KernelCounters, QueryResult,
    UpdateStats, WeightedFlatIndex,
};
use dspc_graph::VertexId;

/// A frozen, immutable index representation the read path can serve from.
///
/// Implementations attribute the kernel's deterministic work counters to
/// the shard that owns the *source* vertex's label slice; unsharded
/// snapshots report a single shard.
pub trait ServingSnapshot: Send + Sync + 'static {
    /// What a query returns (`QueryResult` for hop distances,
    /// `WQueryResult` for accumulated weights).
    type Answer: Copy + PartialEq + std::fmt::Debug + Send + 'static;

    /// Number of shards this snapshot attributes kernel counters to.
    fn shard_count(&self) -> usize;

    /// Label rows this snapshot copied when it was made; every other row
    /// is shared with the previous publication.
    fn rows_copied(&self) -> usize;

    /// `SPC(s, t)` against the snapshot, accumulating kernel work into
    /// `per_shard` (length [`ServingSnapshot::shard_count`]).
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> Self::Answer;
}

impl ServingSnapshot for ShardedFlatIndex {
    type Answer = QueryResult;

    fn shard_count(&self) -> usize {
        self.num_shards()
    }

    fn rows_copied(&self) -> usize {
        ShardedFlatIndex::rows_copied(self)
    }

    #[inline]
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        ShardedFlatIndex::query_counted(self, scratch, per_shard, s, t)
    }
}

impl ServingSnapshot for FlatIndex {
    type Answer = QueryResult;

    fn shard_count(&self) -> usize {
        1
    }

    /// Columns are always a full copy.
    fn rows_copied(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        FlatIndex::query_counted(self, scratch, &mut per_shard[0], s, t)
    }
}

impl ServingSnapshot for DirectedFlatIndex {
    type Answer = QueryResult;

    fn shard_count(&self) -> usize {
        1
    }

    fn rows_copied(&self) -> usize {
        DirectedFlatIndex::rows_copied(self)
    }

    #[inline]
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        DirectedFlatIndex::query_counted(self, scratch, &mut per_shard[0], s, t)
    }
}

impl ServingSnapshot for WeightedFlatIndex {
    type Answer = WQueryResult;

    fn shard_count(&self) -> usize {
        1
    }

    fn rows_copied(&self) -> usize {
        WeightedFlatIndex::rows_copied(self)
    }

    #[inline]
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> WQueryResult {
        WeightedFlatIndex::query_counted(self, scratch, &mut per_shard[0], s, t)
    }
}

/// A live dynamic index a single writer drives between rotations: apply a
/// coalesced epoch batch, freeze a serving snapshot, answer reference
/// queries against the live labels (the oracle the snapshots must agree
/// with).
pub trait ServingEngine: Send + 'static {
    /// The frozen representation published to readers.
    type Snapshot: ServingSnapshot;
    /// The update vocabulary of this graph variant. Updates are
    /// journalable ([`crate::journal::JournalUpdate`]) so any engine can
    /// ride behind the write-ahead journal.
    type Update: Clone + Send + 'static + crate::journal::JournalUpdate;

    /// Applies one epoch's updates as a single coalesced batch (the
    /// `apply_batch` epoch contract: net effect only, exact index on
    /// return). Implementations route through the facade's `apply_batch`,
    /// so the serving write path inherits the global-agenda repair pipeline
    /// and the facade's [`dspc::MaintenanceThreads`] budget.
    fn apply_batch(&mut self, updates: &[Self::Update]) -> dspc_graph::Result<UpdateStats>;

    /// Publishes the current epoch's serving snapshot, attributing
    /// counters over `shards` where the representation supports it
    /// (unsharded representations ignore the hint). Implementations
    /// publish through the index's publish step: rows written since the
    /// last call become shared, every other row is handed out again, so
    /// the cost is `O(n)` plus the entries the epoch changed.
    fn freeze(&mut self, shards: usize) -> Self::Snapshot;

    /// `SPC(s, t)` straight off the live label sets — bit-identical to
    /// what a freshly frozen snapshot answers.
    fn query_live(&self, s: VertexId, t: VertexId) -> <Self::Snapshot as ServingSnapshot>::Answer;
}

impl ServingEngine for DynamicSpc {
    type Snapshot = ShardedFlatIndex;
    type Update = GraphUpdate;

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> dspc_graph::Result<UpdateStats> {
        DynamicSpc::apply_batch(self, updates)
    }

    fn freeze(&mut self, shards: usize) -> ShardedFlatIndex {
        self.publish(shards)
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> QueryResult {
        spc_query(self.index(), s, t)
    }
}

/// A policy-managed engine: the epoch batch applies through
/// [`ManagedSpc::apply_batch`], so a rotation may end in a policy-triggered
/// full rebuild (fresh ordering) instead of incremental repair — the
/// serving layer's rebuild/rotation policy knob.
impl ServingEngine for ManagedSpc {
    type Snapshot = ShardedFlatIndex;
    type Update = GraphUpdate;

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> dspc_graph::Result<UpdateStats> {
        ManagedSpc::apply_batch(self, updates)
    }

    fn freeze(&mut self, shards: usize) -> ShardedFlatIndex {
        self.publish(shards)
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> QueryResult {
        spc_query(self.inner().index(), s, t)
    }
}

impl ServingEngine for DynamicDirectedSpc {
    type Snapshot = DirectedFlatIndex;
    type Update = dspc::directed::ArcUpdate;

    fn apply_batch(
        &mut self,
        updates: &[dspc::directed::ArcUpdate],
    ) -> dspc_graph::Result<UpdateStats> {
        DynamicDirectedSpc::apply_batch(self, updates)
    }

    fn freeze(&mut self, _shards: usize) -> DirectedFlatIndex {
        self.publish()
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> QueryResult {
        directed_spc_query(self.index(), s, t)
    }
}

impl ServingEngine for DynamicWeightedSpc {
    type Snapshot = WeightedFlatIndex;
    type Update = WeightedUpdate;

    fn apply_batch(&mut self, updates: &[WeightedUpdate]) -> dspc_graph::Result<UpdateStats> {
        DynamicWeightedSpc::apply_batch(self, updates)
    }

    fn freeze(&mut self, _shards: usize) -> WeightedFlatIndex {
        self.publish()
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> WQueryResult {
        weighted_spc_query(self.index(), s, t)
    }
}
