//! Published query snapshots, and the columnar form of the v2 file.
//!
//! The serving layer publishes one immutable snapshot per epoch. The
//! snapshot types here (and [`crate::shard::ShardedFlatIndex`]) hold
//! [`SharedRows`]: one `Arc<[E]>` handle per vertex, *shared* with the
//! live index rather than copied out of it. An index's publish step
//! (`SpcIndex::publish`, `DirectedSpcIndex::publish`,
//! `WeightedSpcIndex::publish`) turns every row written since the last
//! publish into a shared row and hands out one handle per vertex, so a
//! rotation costs `O(n)` handle clones plus the entries the epoch changed;
//! the live index copies a shared row back to an owned one on its first
//! write (see [`crate::label::LabelRow`]). The copying constructors
//! (`freeze`) remain for callers that must not touch the live index.
//!
//! The published types keep their `Flat` names from the columnar design
//! they replace: the wall-clock benchmark (`perfbench/`) compiles against
//! these names and methods.
//!
//! [`FlatIndex`] keeps the CSR columns (`offsets`, `hubs`, `dists`,
//! `counts`) as the in-memory form of the v2 file format
//! ([`crate::serialize`]), and serves queries straight off them.
//!
//! Every query — live rows, shared rows, columns — runs the single merge
//! kernel in [`crate::query`], so results and the deterministic
//! [`KernelCounters`] are **bit-identical** across all of them; the test
//! suite and the `bench_smoke` CI lane both enforce this.
//!
//! ## Freshness contract
//!
//! A snapshot is immutable and does **not** follow later updates to the
//! index it was published from. The dynamic facades own that lifecycle:
//! [`crate::dynamic::DynamicSpc::frozen_queries`] (and the directed /
//! weighted equivalents) cache a snapshot per epoch and invalidate it on
//! any mutation, so a facade-obtained snapshot is always exact.

use crate::directed::{DirectedRankMap, DirectedSpcIndex, Side};
use crate::index::SpcIndex;
use crate::label::{Count, LabelEntry, Rank, SharedRows};
use crate::order::RankMap;
use crate::query::{counted_query_rows, pre_query_rows, query_rows, HubRow, QueryResult};
use crate::weighted::{WLabelEntry, WQueryResult, WeightedSpcIndex};
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

/// One vertex's slice of the flat columns, read by the merge kernel.
#[derive(Clone, Copy)]
pub(crate) struct ColumnRow<'a> {
    hubs: &'a [u32],
    dists: &'a [u32],
    counts: &'a [Count],
}

impl HubRow for ColumnRow<'_> {
    type Dist = u32;
    #[inline]
    fn len(self) -> usize {
        self.hubs.len()
    }
    #[inline]
    fn hub(self, i: usize) -> u32 {
        self.hubs[i]
    }
    #[inline]
    fn dist(self, i: usize) -> u32 {
        self.dists[i]
    }
    #[inline]
    fn count(self, i: usize) -> Count {
        self.counts[i]
    }
}

impl<'a> ColumnRow<'a> {
    /// The row's entries.
    pub(crate) fn entries(self) -> impl Iterator<Item = LabelEntry> + 'a {
        (0..self.hubs.len())
            .map(move |k| LabelEntry::new(Rank(self.hubs[k]), self.dists[k], self.counts[k]))
    }
}

/// One CSR column set: per-vertex label slices over three contiguous
/// columns. `offsets[v]..offsets[v + 1]` is vertex `v`'s slice in each
/// column; entries within a slice are sorted ascending by hub rank, exactly
/// like the live label rows they were frozen from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FlatColumns {
    offsets: Vec<u32>,
    hubs: Vec<u32>,
    dists: Vec<u32>,
    counts: Vec<Count>,
}

impl FlatColumns {
    /// Packs every label row of `index` into columns, in id order.
    fn build(index: &SpcIndex) -> Self {
        let n = index.num_vertices();
        let entries = index.num_entries();
        assert!(
            entries <= u32::MAX as usize,
            "flat index exceeds u32 offset space"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hubs = Vec::with_capacity(entries);
        let mut dists = Vec::with_capacity(entries);
        let mut counts = Vec::with_capacity(entries);
        offsets.push(0);
        for v in 0..n {
            for e in index.label_set(VertexId(v as u32)).entries() {
                hubs.push(e.hub.0);
                dists.push(e.dist);
                counts.push(e.count);
            }
            offsets.push(hubs.len() as u32);
        }
        FlatColumns {
            offsets,
            hubs,
            dists,
            counts,
        }
    }

    /// Reassembles columns decoded from storage, validating CSR shape.
    pub(crate) fn from_raw(
        offsets: Vec<u32>,
        hubs: Vec<u32>,
        dists: Vec<u32>,
        counts: Vec<Count>,
    ) -> Result<Self, &'static str> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing");
        }
        if offsets.last().copied().unwrap_or(0) as usize != hubs.len() {
            return Err("last offset must equal the entry count");
        }
        if hubs.len() != dists.len() || hubs.len() != counts.len() {
            return Err("column lengths disagree");
        }
        Ok(FlatColumns {
            offsets,
            hubs,
            dists,
            counts,
        })
    }

    /// Number of vertices covered.
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Vertex `v`'s slice of the three columns.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> ColumnRow<'_> {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        ColumnRow {
            hubs: &self.hubs[lo..hi],
            dists: &self.dists[lo..hi],
            counts: &self.counts[lo..hi],
        }
    }

    /// Bytes occupied by the entry columns alone (`hubs` + `dists` +
    /// `counts`), excluding the per-vertex offsets.
    fn entry_column_bytes(&self) -> usize {
        self.hubs.len() * 16
    }

    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    pub(crate) fn hubs(&self) -> &[u32] {
        &self.hubs
    }

    pub(crate) fn dists(&self) -> &[u32] {
        &self.dists
    }

    pub(crate) fn counts(&self) -> &[Count] {
        &self.counts
    }
}

/// A read-only columnar snapshot of an undirected [`SpcIndex`] — the
/// in-memory form of the v2 file.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatIndex {
    cols: FlatColumns,
    ranks: RankMap,
}

impl FlatIndex {
    /// Freezes `index` into columns in one pass over its labels (a copy).
    pub fn freeze(index: &SpcIndex) -> Self {
        FlatIndex {
            cols: FlatColumns::build(index),
            ranks: index.ranks().clone(),
        }
    }

    /// Reassembles a snapshot from decoded parts (the serialization codec).
    pub(crate) fn from_parts(cols: FlatColumns, ranks: RankMap) -> Self {
        assert_eq!(cols.num_vertices(), ranks.len(), "rank space mismatch");
        FlatIndex { cols, ranks }
    }

    pub(crate) fn columns(&self) -> &FlatColumns {
        &self.cols
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

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.cols.num_vertices()
    }

    /// Total label entries.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.cols.hubs.len()
    }

    /// Bytes of the entry columns alone — `16 × entries` (4-byte hub +
    /// 4-byte dist + 8-byte count), the `label_bytes_per_entry` numerator.
    pub fn entry_column_bytes(&self) -> usize {
        self.cols.entry_column_bytes()
    }

    /// Total snapshot bytes (entry columns + per-vertex offsets).
    pub fn column_bytes(&self) -> usize {
        self.cols.entry_column_bytes() + self.cols.offsets.len() * 4
    }

    /// `SpcQUERY(s, t)` against the snapshot.
    pub fn query(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.query_with(&mut FlatScratch, s, t)
    }

    /// `SpcQUERY(s, t)`; `scratch` is unused (see [`FlatScratch`]).
    #[inline]
    pub fn query_with(&self, _scratch: &mut FlatScratch, s: VertexId, t: VertexId) -> QueryResult {
        let (dist, count) = query_rows(self.cols.row(s.index()), self.cols.row(t.index()));
        QueryResult { dist, count }
    }

    /// `PreQUERY(s, t)`: only hubs ranked strictly above `rank(s)`
    /// participate, matching [`crate::query::pre_query`].
    pub fn pre_query(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.pre_query_with(&mut FlatScratch, s, t)
    }

    /// [`FlatIndex::pre_query`]; `scratch` is unused.
    #[inline]
    pub fn pre_query_with(
        &self,
        _scratch: &mut FlatScratch,
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        let (dist, count) = pre_query_rows(
            self.cols.row(s.index()),
            self.cols.row(t.index()),
            self.rank(s),
        );
        QueryResult { dist, count }
    }

    /// Counted [`FlatIndex::query_with`]: same result, and the kernel's
    /// deterministic work units are accumulated into `counters`.
    pub fn query_counted(
        &self,
        _scratch: &mut FlatScratch,
        counters: &mut KernelCounters,
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        let (dist, count) =
            counted_query_rows(self.cols.row(s.index()), self.cols.row(t.index()), counters);
        QueryResult { dist, count }
    }

    /// Vertex `v`'s entries, in hub-rank order.
    pub(crate) fn row_entries(&self, v: usize) -> impl Iterator<Item = LabelEntry> + '_ {
        self.cols.row(v).entries()
    }

    /// Reconstructs a live [`SpcIndex`] with identical labels — the
    /// deserialization path for v2 snapshots. O(entries), no per-entry
    /// searches: slices are already sorted, so labels append in order.
    pub fn thaw(&self) -> SpcIndex {
        let mut index = SpcIndex::self_labeled(self.ranks.clone());
        for v in 0..self.num_vertices() {
            let ls = index.label_set_mut(VertexId(v as u32));
            ls.clear_all();
            for e in self.row_entries(v) {
                ls.push_descending(e);
            }
        }
        index
    }
}

/// The published snapshot of a [`DirectedSpcIndex`]: one shared row per
/// vertex in each label family. `SPC(s → t)` merges `L_out(s)` with
/// `L_in(t)`.
#[derive(Clone, Debug)]
pub struct DirectedFlatIndex {
    out_rows: SharedRows<LabelEntry>,
    in_rows: SharedRows<LabelEntry>,
    ranks: DirectedRankMap,
}

impl DirectedFlatIndex {
    /// Copies `index` into a fresh snapshot, leaving the live rows alone.
    pub fn freeze(index: &DirectedSpcIndex) -> Self {
        let n = index.ranks().len();
        let family = |side| {
            SharedRows::copied_from((0..n).map(|v| index.label(side, VertexId(v as u32)).entries()))
        };
        DirectedFlatIndex {
            out_rows: family(Side::Out),
            in_rows: family(Side::In),
            ranks: index.ranks().clone(),
        }
    }

    /// Publishes `index`: shares both families' rows (see
    /// [`DirectedSpcIndex::publish`]).
    pub fn publish(index: &mut DirectedSpcIndex) -> Self {
        DirectedFlatIndex {
            out_rows: index.publish(Side::Out),
            in_rows: index.publish(Side::In),
            ranks: index.ranks().clone(),
        }
    }

    /// Rank of `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// One label family's rows.
    pub fn rows(&self, side: Side) -> &SharedRows<LabelEntry> {
        match side {
            Side::Out => &self.out_rows,
            Side::In => &self.in_rows,
        }
    }

    /// Rows copied (rather than shared) when this snapshot was made, both
    /// families.
    pub fn rows_copied(&self) -> usize {
        self.out_rows.rows_copied() + self.in_rows.rows_copied()
    }

    /// Total entries across both families.
    pub fn num_entries(&self) -> usize {
        self.out_rows.num_entries() + self.in_rows.num_entries()
    }

    /// Bytes of both families in the columnar layout
    /// ([`SharedRows::column_bytes`]).
    pub fn column_bytes(&self) -> usize {
        self.out_rows.column_bytes() + self.in_rows.column_bytes()
    }

    /// `SPC(s → t)` against the snapshot.
    pub fn query(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.query_with(&mut FlatScratch, s, t)
    }

    /// [`DirectedFlatIndex::query`]; `scratch` is unused.
    #[inline]
    pub fn query_with(&self, _scratch: &mut FlatScratch, s: VertexId, t: VertexId) -> QueryResult {
        let (dist, count) = query_rows(self.out_rows.row(s.index()), self.in_rows.row(t.index()));
        QueryResult { dist, count }
    }

    /// `PreQUERY(s → t)`: hubs ranked strictly above `rank(s)` only.
    pub fn pre_query(&self, s: VertexId, t: VertexId) -> QueryResult {
        let (dist, count) = pre_query_rows(
            self.out_rows.row(s.index()),
            self.in_rows.row(t.index()),
            self.rank(s),
        );
        QueryResult { dist, count }
    }

    /// Counted [`DirectedFlatIndex::query_with`].
    pub fn query_counted(
        &self,
        _scratch: &mut FlatScratch,
        counters: &mut KernelCounters,
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        let (dist, count) = counted_query_rows(
            self.out_rows.row(s.index()),
            self.in_rows.row(t.index()),
            counters,
        );
        QueryResult { dist, count }
    }
}

/// The published snapshot of a [`WeightedSpcIndex`]: one shared row of
/// `u64`-distance entries per vertex.
#[derive(Clone, Debug)]
pub struct WeightedFlatIndex {
    rows: SharedRows<WLabelEntry>,
    ranks: RankMap,
}

impl WeightedFlatIndex {
    /// Copies `index` into a fresh snapshot, leaving the live rows alone.
    pub fn freeze(index: &WeightedSpcIndex) -> Self {
        let n = index.ranks().len();
        WeightedFlatIndex {
            rows: SharedRows::copied_from(
                (0..n).map(|v| index.label_set(VertexId(v as u32)).entries()),
            ),
            ranks: index.ranks().clone(),
        }
    }

    /// Publishes `index`: shares its rows (see
    /// [`WeightedSpcIndex::publish`]).
    pub fn publish(index: &mut WeightedSpcIndex) -> Self {
        WeightedFlatIndex {
            rows: index.publish(),
            ranks: index.ranks().clone(),
        }
    }

    /// Rank of `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// The published rows.
    pub fn rows(&self) -> &SharedRows<WLabelEntry> {
        &self.rows
    }

    /// Rows copied (rather than shared) when this snapshot was made.
    pub fn rows_copied(&self) -> usize {
        self.rows.rows_copied()
    }

    /// Total label entries.
    pub fn num_entries(&self) -> usize {
        self.rows.num_entries()
    }

    /// Bytes in the columnar layout (`20 × entries` plus offsets: the
    /// distance column is 8-byte).
    pub fn column_bytes(&self) -> usize {
        self.rows.column_bytes()
    }

    /// Weighted `SpcQUERY(s, t)` against the snapshot.
    pub fn query(&self, s: VertexId, t: VertexId) -> WQueryResult {
        self.query_with(&mut FlatScratch, s, t)
    }

    /// [`WeightedFlatIndex::query`]; `scratch` is unused.
    #[inline]
    pub fn query_with(&self, _scratch: &mut FlatScratch, s: VertexId, t: VertexId) -> WQueryResult {
        let (dist, count) = query_rows(self.rows.row(s.index()), self.rows.row(t.index()));
        WQueryResult { dist, count }
    }

    /// Weighted `PreQUERY(s, t)`: hubs ranked strictly above `rank(s)`.
    pub fn pre_query(&self, s: VertexId, t: VertexId) -> WQueryResult {
        let (dist, count) = pre_query_rows(
            self.rows.row(s.index()),
            self.rows.row(t.index()),
            self.rank(s),
        );
        WQueryResult { dist, count }
    }

    /// Counted [`WeightedFlatIndex::query_with`].
    pub fn query_counted(
        &self,
        _scratch: &mut FlatScratch,
        counters: &mut KernelCounters,
        s: VertexId,
        t: VertexId,
    ) -> WQueryResult {
        let (dist, count) =
            counted_query_rows(self.rows.row(s.index()), self.rows.row(t.index()), counters);
        WQueryResult { dist, count }
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
                    flat.pre_query_with(&mut scratch, s, t),
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
    fn byte_accounting() {
        let idx = crate::query::tests::table2_index();
        let flat = FlatIndex::freeze(&idx);
        let e = flat.num_entries();
        assert_eq!(flat.entry_column_bytes(), e * 16);
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
