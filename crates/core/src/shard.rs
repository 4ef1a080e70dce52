//! Vertex-range shard attribution for the published undirected snapshot,
//! plus the epoch-stamped snapshot wrapper the serving layer publishes.
//!
//! [`ShardedFlatIndex`] is what the serving layer hands readers for an
//! undirected engine: one shared label row per vertex
//! ([`crate::label::SharedRows`]) plus the rank map. It keeps vertex-range
//! `bounds` only to attribute the kernel's deterministic work counters to
//! the shard that owns the query's source vertex (`bounds[i] ..
//! bounds[i + 1]`); the rows themselves are not split, so a rotation
//! publishes by sharing unchanged rows instead of re-slicing the index.
//! A query runs the same merge kernel as the live index and
//! [`crate::flat::FlatIndex`], so answers and `merge_steps` are
//! **bit-identical** to both (`tests/shard_equivalence.rs`).
//!
//! The type keeps its name (and its copying constructors
//! [`ShardedFlatIndex::from_flat`] / [`ShardedFlatIndex::with_bounds`])
//! because the wall-clock benchmark in `perfbench/` compiles against them;
//! the serving path uses [`ShardedFlatIndex::publish`].
//!
//! [`EpochSnapshot`] stamps any snapshot with the epoch that froze it. The
//! serving layer (`dspc-serve`) publishes `Arc<EpochSnapshot<_>>` values at
//! epoch boundaries; the stamp is what lets a concurrent test harness check
//! every answer against the exact epoch the reader observed.

use crate::flat::{FlatIndex, FlatScratch, KernelCounters};
use crate::index::SpcIndex;
use crate::label::{LabelEntry, Rank, SharedRows};
use crate::order::RankMap;
use crate::query::{counted_query_rows, pre_query_rows, query_rows, QueryResult};
use dspc_graph::VertexId;
use std::sync::Arc;

/// Evenly spaced shard boundaries over an `n`-vertex id space: `shards + 1`
/// non-decreasing values from `0` to `n`, ranges differing in size by at
/// most one vertex.
pub fn even_bounds(n: usize, shards: usize) -> Vec<u32> {
    let shards = shards.max(1);
    let base = n / shards;
    let extra = n % shards;
    let mut bounds = Vec::with_capacity(shards + 1);
    let mut at = 0usize;
    bounds.push(0);
    for i in 0..shards {
        at += base + usize::from(i < extra);
        bounds.push(at as u32);
    }
    bounds
}

/// The published undirected snapshot: shared label rows, the rank map, and
/// vertex-range shard bounds for per-shard counter attribution.
#[derive(Clone, Debug)]
pub struct ShardedFlatIndex {
    rows: SharedRows<LabelEntry>,
    bounds: Vec<u32>,
    ranks: RankMap,
}

impl ShardedFlatIndex {
    /// Publishes `index` over `shards` evenly sized vertex ranges: every
    /// row written since the last publish becomes shared, every other row
    /// is the previous snapshot's ([`SpcIndex::publish`]).
    pub fn publish(index: &mut SpcIndex, shards: usize) -> Self {
        ShardedFlatIndex {
            bounds: even_bounds(index.num_vertices(), shards),
            rows: index.publish(),
            ranks: index.ranks().clone(),
        }
    }

    /// Copies `flat` into a snapshot over `shards` evenly sized vertex
    /// ranges.
    pub fn from_flat(flat: &FlatIndex, shards: usize) -> Self {
        Self::with_bounds(flat, &even_bounds(flat.num_vertices(), shards))
            .expect("even bounds are always valid")
    }

    /// Copies `flat` into a snapshot split at explicit `bounds`
    /// (`bounds[0] = 0`, non-decreasing, last element = vertex count) —
    /// uneven ranges and empty shards are allowed. Errors on malformed
    /// bounds.
    pub fn with_bounds(flat: &FlatIndex, bounds: &[u32]) -> Result<Self, &'static str> {
        let n = flat.num_vertices();
        if bounds.len() < 2 {
            return Err("bounds need at least two entries");
        }
        if bounds[0] != 0 {
            return Err("bounds must start at 0");
        }
        if bounds.windows(2).any(|w| w[0] > w[1]) {
            return Err("bounds must be non-decreasing");
        }
        if *bounds.last().unwrap() as usize != n {
            return Err("bounds must end at the vertex count");
        }
        let rows = (0..n).map(|v| flat.row_entries(v).collect::<Arc<[LabelEntry]>>());
        Ok(ShardedFlatIndex {
            rows: SharedRows::copied_from(rows),
            bounds: bounds.to_vec(),
            ranks: flat.ranks().clone(),
        })
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of vertices covered (all shards together).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.rows.num_vertices()
    }

    /// Total label entries.
    pub fn num_entries(&self) -> usize {
        self.rows.num_entries()
    }

    /// The published rows.
    pub fn rows(&self) -> &SharedRows<LabelEntry> {
        &self.rows
    }

    /// Rows copied (rather than shared) when this snapshot was made.
    pub fn rows_copied(&self) -> usize {
        self.rows.rows_copied()
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
        debug_assert!((v.0 as usize) < self.num_vertices());
        self.bounds.partition_point(|&b| b <= v.0) - 1
    }

    /// Label entries of the vertices shard `i` owns.
    pub fn shard_entries(&self, i: usize) -> usize {
        (self.bounds[i]..self.bounds[i + 1])
            .map(|v| self.rows.row(v as usize).len())
            .sum()
    }

    /// `SpcQUERY(s, t)` against the snapshot.
    pub fn query(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.query_with(&mut FlatScratch, s, t)
    }

    /// `SpcQUERY(s, t)`; `scratch` is unused (see [`FlatScratch`]).
    #[inline]
    pub fn query_with(&self, _scratch: &mut FlatScratch, s: VertexId, t: VertexId) -> QueryResult {
        let (dist, count) = query_rows(self.rows.row(s.index()), self.rows.row(t.index()));
        QueryResult { dist, count }
    }

    /// `PreQUERY(s, t)`: only hubs ranked strictly above `rank(s)`
    /// participate, matching [`crate::query::pre_query`].
    pub fn pre_query(&self, s: VertexId, t: VertexId) -> QueryResult {
        self.pre_query_with(&mut FlatScratch, s, t)
    }

    /// [`ShardedFlatIndex::pre_query`]; `scratch` is unused.
    #[inline]
    pub fn pre_query_with(
        &self,
        _scratch: &mut FlatScratch,
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        let (dist, count) = pre_query_rows(
            self.rows.row(s.index()),
            self.rows.row(t.index()),
            self.rank(s),
        );
        QueryResult { dist, count }
    }

    /// Counted [`ShardedFlatIndex::query_with`]: kernel work units are
    /// attributed to the shard owning `s` — `per_shard` must hold one
    /// counter per shard. This is the serving layer's per-shard
    /// `merge_steps` accounting.
    pub fn query_counted(
        &self,
        _scratch: &mut FlatScratch,
        per_shard: &mut [KernelCounters],
        s: VertexId,
        t: VertexId,
    ) -> QueryResult {
        assert_eq!(per_shard.len(), self.num_shards(), "one counter per shard");
        let (dist, count) = counted_query_rows(
            self.rows.row(s.index()),
            self.rows.row(t.index()),
            &mut per_shard[self.shard_of(s)],
        );
        QueryResult { dist, count }
    }
}

impl crate::parallel::QueryEngine for ShardedFlatIndex {
    type Scratch = FlatScratch;

    fn make_scratch(&self) -> Self::Scratch {
        FlatScratch::new()
    }

    #[inline]
    fn query_one(&self, scratch: &mut Self::Scratch, s: VertexId, t: VertexId) -> QueryResult {
        self.query_with(scratch, s, t)
    }
}

/// A snapshot stamped with the epoch that froze it.
///
/// The serving layer publishes one of these per epoch boundary; readers
/// answer queries from whichever stamped snapshot they currently hold, so
/// every answer names the exact index state it was computed against.
#[derive(Clone, Debug)]
pub struct EpochSnapshot<S> {
    epoch: u64,
    index: S,
}

impl<S> EpochSnapshot<S> {
    /// Wraps `index` as the snapshot of `epoch`.
    pub fn new(epoch: u64, index: S) -> Self {
        EpochSnapshot { epoch, index }
    }

    /// The epoch this snapshot was frozen at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen index.
    #[inline]
    pub fn index(&self) -> &S {
        &self.index
    }

    /// Unwraps.
    pub fn into_inner(self) -> S {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::order::OrderingStrategy;
    use crate::query::{pre_query, spc_query};
    use dspc_graph::generators::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn even_bounds_cover_and_balance() {
        assert_eq!(even_bounds(10, 4), vec![0, 3, 6, 8, 10]);
        assert_eq!(even_bounds(3, 7), vec![0, 1, 2, 3, 3, 3, 3, 3]);
        assert_eq!(even_bounds(0, 2), vec![0, 0, 0]);
        assert_eq!(even_bounds(5, 1), vec![0, 5]);
    }

    #[test]
    fn sharded_matches_unsharded_and_live() {
        let g = barabasi_albert(120, 3, &mut StdRng::seed_from_u64(7));
        let idx = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&idx);
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedFlatIndex::from_flat(&flat, shards);
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(sharded.num_entries(), flat.num_entries());
            let mut scratch = FlatScratch::new();
            for s in 0..120u32 {
                for t in (0..120u32).step_by(7) {
                    let (s, t) = (VertexId(s), VertexId(t));
                    assert_eq!(
                        sharded.query_with(&mut scratch, s, t),
                        spc_query(&idx, s, t)
                    );
                    assert_eq!(
                        sharded.pre_query_with(&mut scratch, s, t),
                        pre_query(&idx, s, t)
                    );
                }
            }
        }
    }

    #[test]
    fn per_shard_counters_attribute_to_source_shard() {
        let g = barabasi_albert(40, 2, &mut StdRng::seed_from_u64(3));
        let idx = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&idx);
        let sharded = ShardedFlatIndex::from_flat(&flat, 4);
        let mut per_shard = vec![KernelCounters::new(); 4];
        let mut scratch = FlatScratch::new();
        // Queries sourced at vertex 0 land in shard 0's counters only.
        for t in 0..40u32 {
            sharded.query_counted(&mut scratch, &mut per_shard, VertexId(0), VertexId(t));
        }
        assert_eq!(per_shard[0].queries, 40);
        assert!(per_shard[1..].iter().all(|c| c.queries == 0));
        // Summed per-shard work equals the unsharded counted kernel's.
        let mut flat_c = KernelCounters::new();
        for t in 0..40u32 {
            flat.query_counted(&mut scratch, &mut flat_c, VertexId(0), VertexId(t));
        }
        assert_eq!(per_shard[0], flat_c);
    }

    #[test]
    fn uneven_and_empty_shards() {
        let g = barabasi_albert(30, 2, &mut StdRng::seed_from_u64(5));
        let idx = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&idx);
        // Lopsided split with an empty middle shard.
        let sharded = ShardedFlatIndex::with_bounds(&flat, &[0, 1, 1, 29, 30]).unwrap();
        assert_eq!(sharded.shard_entries(1), 0);
        assert_eq!(sharded.shard_of(VertexId(0)), 0);
        assert_eq!(sharded.shard_of(VertexId(1)), 2);
        assert_eq!(sharded.shard_of(VertexId(29)), 3);
        for s in 0..30u32 {
            for t in 0..30u32 {
                let (s, t) = (VertexId(s), VertexId(t));
                assert_eq!(sharded.query(s, t), flat.query(s, t));
            }
        }
        // Malformed bounds are rejected.
        assert!(ShardedFlatIndex::with_bounds(&flat, &[0, 31]).is_err());
        assert!(ShardedFlatIndex::with_bounds(&flat, &[1, 30]).is_err());
        assert!(ShardedFlatIndex::with_bounds(&flat, &[0, 20, 10, 30]).is_err());
        assert!(ShardedFlatIndex::with_bounds(&flat, &[0]).is_err());
    }

    #[test]
    fn epoch_snapshot_stamps() {
        let g = dspc_graph::UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let idx = build_index(&g, OrderingStrategy::Degree);
        let snap = EpochSnapshot::new(7, FlatIndex::freeze(&idx));
        assert_eq!(snap.epoch(), 7);
        assert_eq!(
            snap.index().query(VertexId(0), VertexId(2)).as_option(),
            Some((2, 1))
        );
        let back = snap.into_inner();
        assert_eq!(back.num_vertices(), 3);
    }
}
