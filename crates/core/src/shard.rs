//! Vertex-range shard attribution for published snapshots, the undirected
//! snapshot's re-bounding constructors, and the epoch-stamped snapshot
//! wrapper the serving layer publishes.
//!
//! Every published [`crate::flat::Snapshot`] keeps vertex-range `bounds`
//! ([`even_bounds`]) only to attribute the kernel's deterministic work
//! counters to the shard that owns the query's source vertex; the rows
//! themselves are not split. [`ShardedFlatIndex`] is the undirected
//! instance, the same type as [`crate::flat::FlatIndex`], and what the
//! serving layer hands readers for an undirected engine. Its
//! `query_counted` runs the same merge kernel as the live index; the
//! serving readers answer through its `query_pinned`, the pinned hub probe
//! of [`crate::query::RowPin`]. Answers and `merge_steps` are
//! **bit-identical** across all of them (`tests/shard_equivalence.rs`,
//! `tests/pinned_reads.rs`).
//!
//! The undirected instance keeps its name and the constructors that
//! re-bound a frozen or loaded snapshot's shared rows
//! ([`ShardedFlatIndex::from_flat`] / [`ShardedFlatIndex::with_bounds`])
//! because the wall-clock benchmark in `perfbench/` compiles against them;
//! the serving path publishes.
//!
//! [`EpochSnapshot`] stamps any snapshot with the epoch that froze it. The
//! serving layer (`dspc-serve`) publishes `Arc<EpochSnapshot<_>>` values at
//! epoch boundaries; the stamp is what lets a concurrent test harness check
//! every answer against the exact epoch the reader observed.

use crate::engine::{Undirected, REPAIR_PRIMARY};
use crate::flat::{FlatIndex, Snapshot};
use crate::label::{LabelEntry, SharedRows};

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
pub type ShardedFlatIndex = Snapshot<Undirected>;

impl ShardedFlatIndex {
    /// `flat`'s rows, shared, over `shards` evenly sized vertex ranges.
    pub fn from_flat(flat: &FlatIndex, shards: usize) -> Self {
        Self::with_bounds(flat, &even_bounds(flat.num_vertices(), shards))
            .expect("even bounds are always valid")
    }

    /// `flat`'s rows, shared, split at explicit `bounds`
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
        Ok(Snapshot::from_parts(
            vec![flat.rows().reshared()],
            flat.ranks().clone(),
            bounds.to_vec(),
        ))
    }

    /// The published rows.
    pub fn rows(&self) -> &SharedRows<LabelEntry> {
        self.family(REPAIR_PRIMARY)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::flat::{FlatScratch, KernelCounters};
    use crate::order::OrderingStrategy;
    use crate::query::{pre_query, spc_query};
    use dspc_graph::generators::random::barabasi_albert;
    use dspc_graph::VertexId;
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
                    assert_eq!(sharded.pre_query(s, t), pre_query(&idx, s, t));
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
        assert_eq!(&sharded.bounds()[1..3], &[1, 1], "shard 1 owns no vertex");
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
        assert_eq!(snap.index().num_vertices(), 3);
    }
}
