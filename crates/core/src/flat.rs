//! Published query snapshots: the read-only form of every label index,
//! served, frozen and decoded alike.
//!
//! The serving layer publishes one immutable [`Snapshot`] per epoch, one
//! type for every graph variant. It holds one [`SharedRows`] per label
//! family — one `Arc<[E]>` handle per vertex, *shared* with the live index
//! rather than copied out of it — plus the rank map and the shard bounds
//! that attribute query counters. [`LabelIndex::publish`] turns every row
//! written since the last publish into a shared row and hands out one
//! handle per vertex, so a rotation costs `O(n)` handle clones per family
//! plus the entries the epoch changed; the live index copies a shared row
//! back to an owned one on its first write (see
//! [`crate::label::LabelRow`]). The copying [`Snapshot::freeze`] remains
//! for callers that must not touch the live index.
//!
//! The instances keep the names of the per-variant types they replace —
//! [`FlatIndex`] and [`crate::shard::ShardedFlatIndex`] (both the
//! undirected snapshot), [`DirectedFlatIndex`] and [`WeightedFlatIndex`] —
//! because the wall-clock benchmark (`perfbench/`) compiles against these
//! names and methods.
//!
//! The v2 file format ([`crate::serialize`]) stores the undirected
//! snapshot's rows as columns, and decodes them straight back into one
//! shared row per vertex; [`Snapshot::thaw`] hands those rows to a live
//! index still shared, so a loaded file is held once, not twice.
//!
//! Every query — live rows and shared rows — runs the single merge
//! kernel in [`crate::query`], except the serving readers'
//! [`Snapshot::query_pinned`], which scans the target row against a pinned
//! source row ([`crate::query::RowPin`]) and reports the merge's counters.
//! Results and the deterministic [`KernelCounters`] are **bit-identical**
//! across all of them; the test suite and the `bench_smoke` CI lane both
//! enforce this.
//!
//! ## Freshness contract
//!
//! A snapshot is immutable and does **not** follow later updates to the
//! index it was published from. [`crate::dynamic::Dynamic::publish`]
//! publishes the index as the last mutation left it, so its snapshot
//! answers exactly like the live index until the next mutation; each epoch
//! publishes its own, at the cost of `O(n)` plus the rows the epoch
//! changed. Nothing caches a snapshot between calls.

use crate::directed::Side;
use crate::engine::{
    families, family_slot, source_family, Directed, Undirected, Variant, Weighted, REPAIR_PRIMARY,
};
use crate::index::LabelIndex;
use crate::label::{LabelEntry, Rank, SharedRows};
use crate::order::RankMap;
use crate::query::{counted_query_rows, pre_query_rows, query_rows, RowPin};
use crate::shard::even_bounds;
use crate::weighted::WLabelEntry;
use dspc_graph::VertexId;

/// Deterministic work counters of the counted query kernel.
/// Machine-independent, so the `bench-smoke` CI lane can gate on them
/// exactly — no wall-clock flakiness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Queries evaluated through a counted kernel.
    pub queries: u64,
    /// Merge loop iterations across all counted queries — the
    /// wall-clock-independent unit of merge work.
    pub merge_steps: u64,
    /// Common hubs found.
    pub common_hubs: u64,
}

impl KernelCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One counter block is the per-shard counters of a one-shard snapshot.
impl AsMut<[KernelCounters]> for KernelCounters {
    fn as_mut(&mut self) -> &mut [KernelCounters] {
        std::slice::from_mut(self)
    }
}

/// Per-thread query scratch. The single-pass merge kernel needs none; the
/// type remains because the snapshot query signatures (and the code
/// compiled against them) take one.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatScratch;

impl FlatScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        FlatScratch
    }
}

/// The published snapshot of a [`LabelIndex`]: one family of shared rows
/// per label family of `V` (`L`, or `L_in` then `L_out`), the rank map, and
/// vertex-range shard bounds. The bounds only attribute the kernel's
/// deterministic work counters to the shard that owns the query's source
/// vertex (`bounds[i] .. bounds[i + 1]`); the rows themselves are not
/// split, so publishing shares unchanged rows instead of re-slicing the
/// index. `SPC(s, t)` merges `L(s)` with `L(t)`, or `L_out(s)` with
/// `L_in(t)` for arcs. Two snapshots are equal when their rows, rank maps
/// and bounds are.
#[derive(Clone, Debug)]
pub struct Snapshot<V: Variant> {
    /// Published rows, one family per label family, in family order.
    rows: Vec<SharedRows<V::Entry>>,
    ranks: RankMap,
    bounds: Vec<u32>,
}

impl<V: Variant> PartialEq for Snapshot<V> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.ranks == other.ranks && self.bounds == other.bounds
    }
}

/// The undirected snapshot under the name of the v2 file's in-memory form:
/// [`Snapshot::freeze`] copies a live [`crate::SpcIndex`] into one,
/// [`crate::serialize::decode_flat`] reads one, and [`Snapshot::thaw`]
/// turns one back into a live index. The same type as
/// [`crate::shard::ShardedFlatIndex`].
pub type FlatIndex = Snapshot<Undirected>;

/// The published snapshot of a [`crate::directed::DirectedSpcIndex`].
pub type DirectedFlatIndex = Snapshot<Directed>;

/// The published snapshot of a [`crate::weighted::WeightedSpcIndex`].
pub type WeightedFlatIndex = Snapshot<Weighted>;

impl<V: Variant> Snapshot<V> {
    /// Publishes `index` over `shards` evenly sized vertex ranges: every
    /// row written since the last publish becomes shared, every other row
    /// is the previous snapshot's ([`LabelIndex::publish`]).
    pub fn publish(index: &mut LabelIndex<V>, shards: usize) -> Self {
        Snapshot {
            bounds: even_bounds(index.num_vertices(), shards),
            rows: index.publish(),
            ranks: index.ranks().clone(),
        }
    }

    /// Copies `index` into a fresh one-shard snapshot, leaving the live
    /// rows alone.
    pub fn freeze(index: &LabelIndex<V>) -> Self {
        let n = index.num_vertices();
        let family = |f| {
            let rows = (0..n).map(|v| index.row(VertexId::from_index(v), f).entries());
            SharedRows::copied_from(rows)
        };
        Snapshot {
            rows: families::<V>().iter().map(|&f| family(f)).collect(),
            ranks: index.ranks().clone(),
            bounds: even_bounds(n, 1),
        }
    }

    /// Assembles a snapshot from families, in family order, and validated
    /// `bounds`.
    pub(crate) fn from_parts(
        rows: Vec<SharedRows<V::Entry>>,
        ranks: RankMap,
        bounds: Vec<u32>,
    ) -> Self {
        Snapshot {
            rows,
            ranks,
            bounds,
        }
    }

    /// A live index over the snapshot's rows and rank map. The rows stay
    /// shared with the snapshot and with every other holder until the
    /// index first writes each one ([`crate::label::LabelRow`]), so thawing
    /// costs `O(n)` handle clones and copies no entry.
    pub fn thaw(&self) -> LabelIndex<V> {
        LabelIndex::from_shared(&self.rows, self.ranks.clone())
    }

    /// One label family's published rows.
    #[inline]
    pub(crate) fn family(&self, family: u8) -> &SharedRows<V::Entry> {
        &self.rows[family_slot(family)]
    }

    /// The rows a query's source reads: `L_out` for arcs, `L` otherwise.
    #[inline]
    fn sources(&self) -> &SharedRows<V::Entry> {
        self.family(source_family::<V>())
    }

    /// The rows a query's target reads: `L_in` for arcs, `L` otherwise.
    #[inline]
    fn targets(&self) -> &SharedRows<V::Entry> {
        self.family(REPAIR_PRIMARY)
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of vertices covered (all shards together).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ranks.len()
    }

    /// Total label entries across every family.
    pub fn num_entries(&self) -> usize {
        self.rows.iter().map(SharedRows::num_entries).sum()
    }

    /// Rows copied (rather than shared) when this snapshot was made, every
    /// family.
    pub fn rows_copied(&self) -> usize {
        self.rows.iter().map(SharedRows::rows_copied).sum()
    }

    /// Bytes of every family in the columnar layout
    /// ([`SharedRows::column_bytes`]: the weighted distance column is
    /// 8-byte).
    pub fn column_bytes(&self) -> usize {
        self.rows.iter().map(SharedRows::column_bytes).sum()
    }

    /// The shard boundaries (`num_shards() + 1` values, first 0, last
    /// `num_vertices()`).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The vertex total order.
    #[inline]
    pub fn ranks(&self) -> &RankMap {
        &self.ranks
    }

    /// Rank of `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// Which shard owns vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        debug_assert!(v.index() < self.num_vertices());
        self.bounds.partition_point(|&b| b <= v.0) - 1
    }

    /// `SpcQUERY(s, t)` against the snapshot.
    pub fn query(&self, s: VertexId, t: VertexId) -> V::Answer {
        self.query_with(&mut FlatScratch, s, t)
    }

    /// `SpcQUERY(s, t)`; `scratch` is unused (see [`FlatScratch`]).
    #[inline]
    pub fn query_with(&self, _scratch: &mut FlatScratch, s: VertexId, t: VertexId) -> V::Answer {
        query_rows(self.sources().row(s.index()), self.targets().row(t.index())).into()
    }

    /// `PreQUERY(s, t)`: only hubs ranked strictly above `rank(s)`
    /// participate, matching [`crate::query::pre_query`].
    pub fn pre_query(&self, s: VertexId, t: VertexId) -> V::Answer {
        let (sources, targets) = (self.sources().row(s.index()), self.targets().row(t.index()));
        pre_query_rows(sources, targets, self.rank(s)).into()
    }

    /// Counted [`Snapshot::query_with`]: kernel work units are attributed
    /// to the shard owning `s` — `per_shard` must hold one counter per
    /// shard (a bare [`KernelCounters`] is one shard's). This is the
    /// serving layer's per-shard `merge_steps` accounting.
    pub fn query_counted(
        &self,
        _scratch: &mut FlatScratch,
        per_shard: &mut (impl AsMut<[KernelCounters]> + ?Sized),
        s: VertexId,
        t: VertexId,
    ) -> V::Answer {
        let per_shard = per_shard.as_mut();
        assert_eq!(per_shard.len(), self.num_shards(), "one counter per shard");
        let (sources, targets) = (self.sources().row(s.index()), self.targets().row(t.index()));
        counted_query_rows(sources, targets, &mut per_shard[self.shard_of(s)]).into()
    }

    /// [`Snapshot::query_counted`] through a reader's `pin`: the source row
    /// is loaded into the pin's probe unless it is already pinned, then
    /// only the target row is scanned. Answers and per-shard counters are
    /// bit-identical to the merge.
    #[inline]
    pub fn query_pinned(
        &self,
        pin: &mut RowPin<V::Entry>,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> V::Answer {
        assert_eq!(per_shard.len(), self.num_shards(), "one counter per shard");
        let shard = &mut per_shard[self.shard_of(s)];
        pin.query_counted(self.sources(), s, self.targets().row(t.index()), shard)
            .into()
    }
}

impl DirectedFlatIndex {
    /// One label family's rows.
    pub fn rows(&self, side: Side) -> &SharedRows<LabelEntry> {
        self.family(side.family())
    }
}

impl WeightedFlatIndex {
    /// The published rows.
    pub fn rows(&self) -> &SharedRows<WLabelEntry> {
        self.family(REPAIR_PRIMARY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::order::OrderingStrategy;
    use crate::query::{pre_query, spc_query, spc_query_counted};
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flat_matches_live_on_table2() {
        let idx = crate::query::tests::table2_index();
        let flat = FlatIndex::freeze(&idx);
        assert_eq!(flat.num_entries(), idx.num_entries());
        let mut scratch = FlatScratch::new();
        for s in 0..12u32 {
            for t in 0..12u32 {
                let (s, t) = (VertexId(s), VertexId(t));
                assert_eq!(flat.query_with(&mut scratch, s, t), spc_query(&idx, s, t));
                assert_eq!(
                    flat.pre_query(s, t),
                    pre_query(&idx, s, t),
                    "pre ({s:?}, {t:?})"
                );
            }
        }
    }

    #[test]
    fn counted_kernel_matches_and_counts() {
        let g = figure2_g();
        let idx = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&idx);
        let mut scratch = FlatScratch::new();
        let mut flat_c = KernelCounters::new();
        let mut live_c = KernelCounters::new();
        for s in 0..12u32 {
            for t in 0..12u32 {
                let (s, t) = (VertexId(s), VertexId(t));
                let f = flat.query_counted(&mut scratch, &mut flat_c, s, t);
                let l = spc_query_counted(&idx, &mut live_c, s, t);
                assert_eq!(f, l);
            }
        }
        assert_eq!(flat_c.queries, 144);
        assert!(flat_c.merge_steps > 0);
        assert!(flat_c.common_hubs > 0);
        // The flat compare loop visits exactly the live merge's positions.
        assert_eq!(flat_c, live_c);
    }

    #[test]
    fn thaw_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_gnm(50, 120, &mut rng);
        let idx = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&idx);
        let back = flat.thaw();
        assert_eq!(back, idx);
        back.check_invariants().unwrap();
        assert_eq!(FlatIndex::freeze(&back), flat);
    }

    #[test]
    fn thaw_shares_the_rows_of_every_variant() {
        use crate::directed::build_directed_index;
        use crate::weighted::build_weighted_index;
        use dspc_graph::generators::random::{random_orientation, random_weights};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(9);
        let g = erdos_renyi_gnm(40, 90, &mut rng);
        let directed = build_directed_index(
            &random_orientation(&g, 0.3, &mut rng),
            OrderingStrategy::Degree,
        );
        let weighted =
            build_weighted_index(&random_weights(&g, 9, &mut rng), OrderingStrategy::Degree);
        fn round_trip<V: Variant>(idx: &LabelIndex<V>) {
            let snap = Snapshot::freeze(idx);
            let mut back = snap.thaw();
            assert!(back == *idx);
            back.check_invariants().unwrap();
            // Publishing the thawed index copies nothing: its rows are the
            // snapshot's.
            let again = back.publish();
            for (f, rows) in again.iter().enumerate() {
                for v in 0..rows.num_vertices() {
                    assert!(Arc::ptr_eq(rows.handle(v), snap.rows[f].handle(v)));
                }
                assert_eq!(rows.rows_copied(), 0);
            }
        }
        round_trip(&directed);
        round_trip(&weighted);
    }

    #[test]
    fn byte_accounting() {
        let idx = crate::query::tests::table2_index();
        let flat = FlatIndex::freeze(&idx);
        let e = flat.num_entries();
        assert_eq!(flat.column_bytes(), e * 16 + (flat.num_vertices() + 1) * 4);
    }

    #[test]
    fn empty_and_self_queries() {
        let g = dspc_graph::UndirectedGraph::with_vertices(3);
        let idx = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&idx);
        assert_eq!(
            flat.query(VertexId(0), VertexId(0)).as_option(),
            Some((0, 1))
        );
        assert!(!flat.query(VertexId(0), VertexId(2)).is_connected());

        let empty = build_index(
            &dspc_graph::UndirectedGraph::new(),
            OrderingStrategy::Degree,
        );
        let flat = FlatIndex::freeze(&empty);
        assert_eq!(flat.num_vertices(), 0);
        assert_eq!(flat.num_entries(), 0);
    }
}
