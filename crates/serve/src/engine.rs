//! The two capability traits the server is generic over: what a published
//! snapshot can answer, and what a live engine can do between rotations.
//! One impl of each covers every graph variant: [`dspc::Snapshot`] serves
//! reads, and the facade [`Dynamic`], maintenance policy included, is the
//! engine.

use dspc::dynamic::Dynamic;
use dspc::engine::Variant;
use dspc::query::RowPin;
use dspc::{FlatScratch, KernelCounters, Snapshot, UpdateStats};
use dspc_graph::VertexId;

/// A frozen, immutable index representation the read path can serve from.
///
/// Implementations attribute the kernel's deterministic work counters to
/// the shard that owns the *source* vertex's label slice. Every variant's
/// published [`Snapshot`] implements it, over the shards it was published
/// with.
pub trait ServingSnapshot: Send + Sync + 'static {
    /// What a query returns (`QueryResult` for hop distances,
    /// `WQueryResult` for accumulated weights).
    type Answer: Copy + PartialEq + std::fmt::Debug + Send + 'static;

    /// What a reader keeps between queries: its last source row, loaded
    /// into a hub probe ([`dspc::query::RowPin`]). A default pin is empty.
    type Pin: Default + Send + 'static;

    /// Number of shards this snapshot attributes kernel counters to.
    fn shard_count(&self) -> usize;

    /// Size of the vertex id space the snapshot answers over.
    fn num_vertices(&self) -> usize;

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

/// Every published snapshot, whichever its variant: the answer is the
/// variant's, the pin holds the variant's entries, and counters go to the
/// shard owning the source vertex ([`Snapshot::query_counted`]).
impl<V: Variant> ServingSnapshot for Snapshot<V> {
    type Answer = V::Answer;
    type Pin = RowPin<V::Entry>;

    fn shard_count(&self) -> usize {
        self.num_shards()
    }

    fn num_vertices(&self) -> usize {
        Snapshot::num_vertices(self)
    }

    fn rows_copied(&self) -> usize {
        Snapshot::rows_copied(self)
    }

    #[inline]
    fn query_counted(
        &self,
        scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> V::Answer {
        Snapshot::query_counted(self, scratch, per_shard, s, t)
    }

    #[inline]
    fn query_pinned(
        &self,
        pin: &mut RowPin<V::Entry>,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> V::Answer {
        Snapshot::query_pinned(self, pin, per_shard, s, t)
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
    /// so the serving write path inherits the global-agenda repair
    /// pipeline, the facade's [`dspc::MaintenanceThreads`] budget and its
    /// [`dspc::policy::MaintenancePolicy`]: a rotation may end in a
    /// policy-triggered re-rank or full rebuild.
    fn apply_batch(&mut self, updates: &[Self::Update]) -> dspc_graph::Result<UpdateStats>;

    /// Publishes the current epoch's serving snapshot, attributing
    /// counters over `shards` vertex ranges. Implementations publish
    /// through the index's publish step: rows written since the last call
    /// become shared, every other row is handed out again, so the cost is
    /// `O(n)` plus the entries the epoch changed.
    fn freeze(&mut self, shards: usize) -> Self::Snapshot;

    /// `SPC(s, t)` straight off the live label sets — bit-identical to
    /// what a freshly frozen snapshot answers.
    fn query_live(&self, s: VertexId, t: VertexId) -> <Self::Snapshot as ServingSnapshot>::Answer;

    /// Size of the live graph's vertex id space.
    fn num_vertices(&self) -> usize;
}

/// Every facade, whichever its variant: the epoch batch applies through
/// [`Dynamic::apply_batch`], maintenance policy included, and the snapshot
/// is [`Dynamic::publish`]'s.
impl<V: Variant> ServingEngine for Dynamic<V>
where
    Dynamic<V>: Send,
    V::Update: crate::journal::JournalUpdate + Send,
{
    type Snapshot = Snapshot<V>;
    type Update = V::Update;

    fn apply_batch(&mut self, updates: &[V::Update]) -> dspc_graph::Result<UpdateStats> {
        Dynamic::apply_batch(self, updates)
    }

    fn freeze(&mut self, shards: usize) -> Snapshot<V> {
        self.publish(shards)
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> V::Answer {
        V::query(self.index(), s, t).into()
    }

    fn num_vertices(&self) -> usize {
        V::capacity(self.graph())
    }
}
