//! The two capability traits the server is generic over: what a published
//! snapshot can answer, and what a live engine can do between rotations.

use dspc::dynamic::{Dynamic, GraphUpdate};
use dspc::engine::Variant;
use dspc::policy::ManagedSpc;
use dspc::query::{spc_query, RowPin};
use dspc::shard::ShardedFlatIndex;
use dspc::weighted::{WLabelEntry, WQueryResult};
use dspc::{
    DirectedFlatIndex, FlatScratch, KernelCounters, QueryResult, UpdateStats, WeightedFlatIndex,
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

    /// What a reader keeps between queries: its last source row, loaded
    /// into a hub probe ([`dspc::query::RowPin`]). A default pin is empty.
    type Pin: Default + Send + 'static;

    /// Number of shards this snapshot attributes kernel counters to.
    fn shard_count(&self) -> usize;

    /// Label rows this snapshot copied when it was made; every other row
    /// is shared with the previous publication.
    fn rows_copied(&self) -> usize;

    /// `SPC(s, t)` against the snapshot, accumulating kernel work into
    /// `per_shard` (length [`ServingSnapshot::shard_count`]). This is the
    /// two-row merge: the reference [`ServingSnapshot::query_pinned`]
    /// must match.
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> Self::Answer;

    /// [`ServingSnapshot::query_counted`] through `pin`: the source row is
    /// loaded into the pin unless it is already pinned, then only the
    /// target row is scanned. Answers and counters are bit-identical to
    /// the merge.
    fn query_pinned(
        &self,
        pin: &mut Self::Pin,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> Self::Answer;
}

impl ServingSnapshot for ShardedFlatIndex {
    type Answer = QueryResult;
    type Pin = RowPin;

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

    #[inline]
    fn query_pinned(
        &self,
        pin: &mut RowPin,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        ShardedFlatIndex::query_pinned(self, pin, per_shard, s, t)
    }
}

impl ServingSnapshot for DirectedFlatIndex {
    type Answer = QueryResult;
    type Pin = RowPin;

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

    #[inline]
    fn query_pinned(
        &self,
        pin: &mut RowPin,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        DirectedFlatIndex::query_pinned(self, pin, &mut per_shard[0], s, t)
    }
}

impl ServingSnapshot for WeightedFlatIndex {
    type Answer = WQueryResult;
    type Pin = RowPin<WLabelEntry>;

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

    #[inline]
    fn query_pinned(
        &self,
        pin: &mut RowPin<WLabelEntry>,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> WQueryResult {
        WeightedFlatIndex::query_pinned(self, pin, &mut per_shard[0], s, t)
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

/// Every facade, whichever its variant: the epoch batch applies through
/// [`Dynamic::apply_batch`] and the snapshot is [`Dynamic::publish`]'s.
impl<V: Variant> ServingEngine for Dynamic<V>
where
    Dynamic<V>: Send,
    V::Update: crate::journal::JournalUpdate + Send,
    V::Snapshot: ServingSnapshot<Answer = V::Answer>,
{
    type Snapshot = V::Snapshot;
    type Update = V::Update;

    fn apply_batch(&mut self, updates: &[V::Update]) -> dspc_graph::Result<UpdateStats> {
        Dynamic::apply_batch(self, updates)
    }

    fn freeze(&mut self, shards: usize) -> V::Snapshot {
        self.publish(shards)
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> V::Answer {
        V::query(self.index(), s, t).into()
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
