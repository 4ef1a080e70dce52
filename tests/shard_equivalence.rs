//! Property-based equivalence of the shared-nothing sharded snapshot: for
//! arbitrary random graphs and shard layouts — even shard counts that
//! exceed the vertex count, and adversarially uneven explicit bounds with
//! empty shards — [`dspc::ShardedFlatIndex`] must answer **bit-identically**
//! to the unsharded [`dspc::FlatIndex`] and to the live label sets,
//! including the rank-limited `PreQUERY` kernel. The per-shard counted path
//! must also conserve work: summed across shards, `merge_steps` equals the
//! unsharded kernel's count exactly (the serving layer's per-shard
//! attribution is a partition, not an approximation).
//!
//! The snapshot a server publishes shares every label row its epoch left
//! unchanged with the previous snapshot. After random batches it must
//! answer and count exactly like the copying constructors and the oracle,
//! exactly the changed rows must be fresh allocations, and a reader pinned
//! at an old epoch must keep answering that epoch's oracle while later
//! rotations rewrite the rows it holds.

use dspc::dynamic::GraphUpdate;
use dspc::serialize::{decode_flat, encode_flat};
use dspc::shard::{even_bounds, ShardedFlatIndex};
use dspc::{
    pre_query, spc_query, DynamicSpc, FlatIndex, FlatScratch, KernelCounters, OrderingStrategy,
    QueryResult,
};
use dspc_graph::generators::classic::grid_graph;
use dspc_graph::scratch::ScratchDir;
use dspc_graph::traversal::bfs::BfsCounter;
use dspc_graph::{UndirectedGraph, VertexId};
use dspc_serve::{EpochServer, ServeConfig};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::graph_strategy;

/// Turns `picks` into batches of up to `per_batch` updates, valid in
/// sequence against `g`: an even pick deletes an existing edge, an odd
/// pick inserts the non-edge it names (or nothing).
fn batches(g: &UndirectedGraph, picks: &[usize], per_batch: usize) -> Vec<Vec<GraphUpdate>> {
    let mut shadow = g.clone();
    let n = g.capacity();
    picks
        .chunks(per_batch)
        .map(|chunk| {
            let mut batch = Vec::new();
            for &pick in chunk {
                let m = shadow.num_edges();
                if pick % 2 == 0 && m > 0 {
                    let (a, b) = shadow.nth_edge(pick / 2 % m).unwrap();
                    shadow.delete_edge(a, b).unwrap();
                    batch.push(GraphUpdate::DeleteEdge(a, b));
                } else {
                    let (a, b) = (
                        VertexId((pick / 2 % n) as u32),
                        VertexId((pick / 7 % n) as u32),
                    );
                    if a != b && !shadow.has_edge(a, b) {
                        shadow.insert_edge(a, b).unwrap();
                        batch.push(GraphUpdate::InsertEdge(a, b));
                    }
                }
            }
            batch
        })
        .collect()
}

/// Every pair's oracle answer on `g`.
fn oracle(g: &UndirectedGraph) -> Vec<Option<(u32, u64)>> {
    let mut bfs = BfsCounter::new(g.capacity());
    g.vertices()
        .flat_map(|s| g.vertices().map(move |t| (s, t)))
        .map(|(s, t)| bfs.count(g, s, t))
        .collect()
}

/// The published snapshot answers and counts exactly like a copy of the
/// live index and like the oracle.
fn assert_matches_copy(published: &ShardedFlatIndex, engine: &DynamicSpc) {
    let flat = FlatIndex::freeze(engine.index());
    let copied = ShardedFlatIndex::with_bounds(&flat, published.bounds()).unwrap();
    let g = engine.graph();
    let shards = published.num_shards();
    let (mut got, mut want) = (
        vec![KernelCounters::new(); shards],
        vec![KernelCounters::new(); shards],
    );
    let mut flat_c = KernelCounters::new();
    let mut scratch = FlatScratch::new();
    let truth = oracle(g);
    let pairs = g.vertices().flat_map(|s| g.vertices().map(move |t| (s, t)));
    for ((s, t), truth) in pairs.zip(truth) {
        let answer = published.query_counted(&mut scratch, &mut got, s, t);
        assert_eq!(answer, copied.query_counted(&mut scratch, &mut want, s, t));
        assert_eq!(answer, flat.query_counted(&mut scratch, &mut flat_c, s, t));
        assert_eq!(answer, spc_query(engine.index(), s, t));
        assert_eq!(answer.as_option(), truth);
        assert_eq!(published.pre_query(s, t), pre_query(engine.index(), s, t));
    }
    assert_eq!(got, want, "per-shard counters of shared and copied rows");
    let mut summed = KernelCounters::new();
    for c in &got {
        summed.queries += c.queries;
        summed.merge_steps += c.merge_steps;
        summed.common_hubs += c.common_hubs;
    }
    assert_eq!(summed, flat_c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded queries ≡ flat queries ≡ live kernel, across 1/2/4/7-way
    /// even splits (7 deliberately never divides the sizes the strategy
    /// produces evenly, and often exceeds the vertex count).
    #[test]
    fn sharded_matches_flat_and_live(g in graph_strategy(18), seed in 0u64..1000) {
        let index = dspc::build_index(&g, OrderingStrategy::Random(seed));
        let flat = FlatIndex::freeze(&index);
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedFlatIndex::from_flat(&flat, shards);
            prop_assert_eq!(sharded.num_shards(), shards);
            prop_assert_eq!(sharded.num_vertices(), flat.num_vertices());
            prop_assert_eq!(sharded.num_entries(), flat.num_entries());
            for s in g.vertices() {
                for t in g.vertices() {
                    let live = spc_query(&index, s, t);
                    prop_assert_eq!(sharded.query(s, t), live);
                    prop_assert_eq!(sharded.query(s, t), flat.query(s, t));
                    prop_assert_eq!(sharded.pre_query(s, t), pre_query(&index, s, t));
                    prop_assert_eq!(sharded.pre_query(s, t), flat.pre_query(s, t));
                }
            }
        }
    }

    /// Explicit uneven bounds (arbitrary cut points, duplicates allowed →
    /// empty shards) answer identically to the unsharded snapshot, and
    /// `shard_of` routes every vertex into the range that owns it.
    #[test]
    fn uneven_bounds_are_exact(
        g in graph_strategy(16),
        cuts in proptest::collection::vec(0u32..16, 0..5),
    ) {
        let index = dspc::build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&index);
        let n = flat.num_vertices() as u32;
        let mut bounds: Vec<u32> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        let sharded = ShardedFlatIndex::with_bounds(&flat, &bounds).expect("bounds are valid");
        prop_assert_eq!(sharded.num_shards(), bounds.len() - 1);
        for s in g.vertices() {
            let owner = sharded.shard_of(s);
            prop_assert!(sharded.bounds()[owner] <= s.0 && s.0 < sharded.bounds()[owner + 1]);
            for t in g.vertices() {
                prop_assert_eq!(sharded.query(s, t), flat.query(s, t));
                prop_assert_eq!(sharded.pre_query(s, t), flat.pre_query(s, t));
            }
        }
    }

    /// Per-shard counted queries conserve kernel work: the per-shard
    /// `merge_steps`/`common_hubs` totals equal the unsharded kernel's
    /// counters bit-for-bit, and every query is attributed to exactly the
    /// shard owning its source vertex.
    #[test]
    fn per_shard_counters_partition_the_kernel_work(
        g in graph_strategy(14),
        shards in 1usize..6,
    ) {
        let index = dspc::build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&index);
        let sharded = ShardedFlatIndex::from_flat(&flat, shards);
        let mut scratch = FlatScratch::new();
        let mut flat_c = KernelCounters::new();
        let mut per_shard = vec![KernelCounters::new(); shards];
        for s in g.vertices() {
            for t in g.vertices() {
                let want = flat.query_counted(&mut scratch, &mut flat_c, s, t);
                let got = sharded.query_counted(&mut scratch, &mut per_shard, s, t);
                prop_assert_eq!(got, want);
            }
        }
        let mut summed = KernelCounters::new();
        for c in &per_shard {
            summed.queries += c.queries;
            summed.merge_steps += c.merge_steps;
            summed.common_hubs += c.common_hubs;
        }
        prop_assert_eq!(summed, flat_c);
        // Attribution: shard i answered exactly the queries whose source
        // lives in its vertex range.
        let vs: Vec<_> = g.vertices().collect();
        for (i, c) in per_shard.iter().enumerate() {
            let owned = vs.iter().filter(|v| sharded.shard_of(**v) == i).count();
            prop_assert_eq!(c.queries, (owned * vs.len()) as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rotations publish by sharing: after every random batch the served
    /// snapshot ≡ the copying constructors ≡ the live kernel ≡ the oracle
    /// (answers and counters), the rows the batch changed are the only
    /// fresh allocations (`rows_copied` counts them), and a reader pinned
    /// at epoch 0 keeps answering epoch 0's oracle.
    #[test]
    fn published_snapshot_shares_unchanged_rows(
        g in graph_strategy(14),
        picks in proptest::collection::vec(0usize..1 << 12, 1..10),
        shards in 1usize..5,
    ) {
        let batches = batches(&g, &picks, 3);
        let epoch0 = oracle(&g);
        let engine = DynamicSpc::build(g, OrderingStrategy::Degree);
        let mut server = EpochServer::new(engine, ServeConfig { shards });
        let mut pinned = server.reader();
        let mut fresh = server.reader();
        for batch in batches {
            let prev = fresh.snapshot().index().clone();
            // A mixed batch may delete a label and re-insert it unchanged:
            // the row was written, so it is fresh although equal.
            let inserts = batch.iter().filter(|u| matches!(u, GraphUpdate::InsertEdge(..))).count();
            let one_kind = inserts == 0 || inserts == batch.len();
            server.submit(batch).unwrap();
            let report = server.rotate().unwrap();
            fresh.refresh();
            let now = fresh.snapshot().index();
            assert_matches_copy(now, server.engine());
            let mut new_rows = 0;
            for v in 0..now.num_vertices() {
                let shared = Arc::ptr_eq(prev.rows().handle(v), now.rows().handle(v));
                let changed = prev.rows().row(v) != now.rows().row(v);
                prop_assert!(!(changed && shared), "row {} changed but shared", v);
                prop_assert!(!one_kind || changed || shared, "row {} copied unchanged", v);
                new_rows += usize::from(!shared);
            }
            prop_assert_eq!(report.rows_copied, new_rows);
        }
        let n = pinned.snapshot().index().num_vertices() as u32;
        let answers = (0..n).flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t))));
        for ((s, t), truth) in answers.zip(epoch0) {
            let (epoch, answer) = pinned.query(s, t);
            prop_assert_eq!(epoch, 0);
            prop_assert_eq!(answer.as_option(), truth);
        }
    }
}

/// Path counts overflow `u64` on a 36×36 grid: the corners are 70 apart
/// with C(70, 35) ≈ 1.1·10²⁰ shortest paths. The live kernel, the flat
/// columns, the published snapshot, a v2 file round trip (encode, decode,
/// thaw) and a journaled server checkpointed and recovered must all
/// saturate to `u64::MAX` (not wrap) and agree with the saturating BFS
/// oracle: before any update, after a rotation that inserts a chord two
/// corners see at equal distance, and after one that deletes an edge at
/// the corner, whose repair rewrites saturated counts (C(69, 34) ≈
/// 5.6·10¹⁹ corner paths remain). A reader answers through
/// its pinned source row, so each epoch asks `(corner, far)` twice — a
/// reload, then a kept pin — and `(far, corner)` once (a reload again).
#[test]
fn saturated_counts_survive_publication() {
    let side = 36;
    let g = grid_graph(side, side);
    let at = |r: usize, c: usize| VertexId((r * side + c) as u32);
    let (corner, far) = (at(0, 0), at(side - 1, side - 1));
    let saturated = QueryResult {
        dist: 70,
        count: u64::MAX,
    };
    let config = || ServeConfig { shards: 4 };
    let dir = ScratchDir::new("dspc_saturated_counts").unwrap();
    let engine = DynamicSpc::build(g, OrderingStrategy::Degree);
    let mut server = EpochServer::with_journal(engine, config(), dir.path()).unwrap();
    let mut reader = server.reader();
    let mut bfs = BfsCounter::new(side * side);
    let epochs = [
        None,
        Some(GraphUpdate::InsertEdge(at(10, 20), at(20, 10))),
        Some(GraphUpdate::DeleteEdge(at(0, 0), at(0, 1))),
    ];
    for (epoch, update) in (0u64..).zip(epochs) {
        if let Some(update) = update {
            server.submit([update]).unwrap();
            assert!(server.rotate().unwrap().rows_copied > 0);
        }
        let engine = server.engine();
        assert_eq!(
            bfs.count(engine.graph(), corner, far),
            saturated.as_option(),
            "oracle, epoch {epoch}"
        );
        assert_eq!(
            spc_query(engine.index(), corner, far),
            saturated,
            "live, epoch {epoch}"
        );
        let flat = FlatIndex::freeze(engine.index());
        assert_eq!(flat.query(corner, far), saturated, "flat, epoch {epoch}");
        let decoded = decode_flat(&encode_flat(&flat)).unwrap();
        assert_eq!(decoded.query(corner, far), saturated, "v2, epoch {epoch}");
        assert_eq!(
            spc_query(&decoded.thaw(), corner, far),
            saturated,
            "thawed v2, epoch {epoch}"
        );
        assert_eq!(reader.refresh(), epoch);
        for (s, t, path) in [
            (corner, far, "reload"),
            (corner, far, "kept pin"),
            (far, corner, "reload"),
        ] {
            assert_eq!(
                reader.query(s, t).1,
                saturated,
                "published, epoch {epoch}, {path}"
            );
        }
    }
    server.checkpoint().unwrap();
    drop((reader, server));
    let (recovered, _) = EpochServer::<DynamicSpc>::recover(dir.path(), config()).unwrap();
    assert_eq!(
        spc_query(recovered.engine().index(), corner, far),
        saturated,
        "recovered"
    );
    assert_eq!(
        recovered.reader().query(corner, far).1,
        saturated,
        "recovered, published"
    );
}

/// `even_bounds` invariants at the edges the proptest sizes don't hit.
#[test]
fn even_bounds_shapes() {
    assert_eq!(even_bounds(10, 4), vec![0, 3, 6, 8, 10]);
    assert_eq!(even_bounds(3, 7), vec![0, 1, 2, 3, 3, 3, 3, 3]);
    assert_eq!(even_bounds(0, 3), vec![0, 0, 0, 0]);
    assert_eq!(even_bounds(5, 0), vec![0, 5], "zero shards clamps to one");
}

/// Malformed bounds are rejected, not mis-sliced.
#[test]
fn bad_bounds_are_rejected() {
    let g = dspc_graph::UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let flat = FlatIndex::freeze(&dspc::build_index(&g, OrderingStrategy::Degree));
    assert!(ShardedFlatIndex::with_bounds(&flat, &[0]).is_err());
    assert!(ShardedFlatIndex::with_bounds(&flat, &[1, 4]).is_err());
    assert!(ShardedFlatIndex::with_bounds(&flat, &[0, 3, 2, 4]).is_err());
    assert!(ShardedFlatIndex::with_bounds(&flat, &[0, 2, 3]).is_err());
}
