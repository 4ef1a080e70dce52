//! Property-based equivalence of the flat columnar query path: for
//! arbitrary random graphs, the frozen [`dspc::FlatIndex`] (and its
//! directed / weighted counterparts) must answer exactly like the live
//! label sets, which in turn must match the brute-force counting oracle.
//! Also covers the `PreQUERY` rank-limited kernels and the dynamic
//! facades' snapshot invalidation contract around `apply_batch`.
//!
//! The directed and weighted servers publish by sharing every label row
//! an epoch left unchanged: after random batches the published snapshot
//! must answer and count exactly like the copying `freeze` and the oracle,
//! only written rows may be fresh allocations, and a reader pinned at
//! epoch 0 must keep answering epoch 0's oracle.

use dspc::directed::{directed_pre_query, directed_spc_query, ArcUpdate, DynamicDirectedSpc, Side};
use dspc::label::{HubEntry, SharedRows};
use dspc::weighted::{weighted_pre_query, weighted_spc_query, DynamicWeightedSpc, WeightedUpdate};
use dspc::{
    pre_query, spc_query, DirectedFlatIndex, DynamicSpc, FlatIndex, FlatScratch, GraphUpdate,
    KernelCounters, OrderingStrategy, WeightedFlatIndex,
};
use dspc_graph::traversal::bfs::BfsCounter;
use dspc_graph::traversal::dbfs::DirectedBfsCounter;
use dspc_graph::traversal::dijkstra::DijkstraCounter;
use dspc_graph::{DirectedGraph, VertexId, WeightedGraph};
use dspc_serve::{EpochServer, ServeConfig};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{arc_batches, graph_strategy, weighted_batches};

/// Every ordered pair of an `n`-vertex id space.
fn all_pairs(n: usize) -> impl Iterator<Item = (VertexId, VertexId)> {
    (0..n as u32).flat_map(move |s| (0..n as u32).map(move |t| (VertexId(s), VertexId(t))))
}

/// Compares two publications family by family: a row whose labels changed
/// is never shared, and with `strict` (a single-kind batch) an unchanged
/// row is never copied. Returns how many rows are fresh allocations.
fn fresh_rows<E: HubEntry>(prev: &[&SharedRows<E>], now: &[&SharedRows<E>], strict: bool) -> usize {
    let mut fresh = 0;
    for (prev, now) in prev.iter().zip(now) {
        for v in 0..now.num_vertices() {
            let shared = Arc::ptr_eq(prev.handle(v), now.handle(v));
            let changed = prev.row(v) != now.row(v);
            assert!(!(changed && shared), "row {v} changed but shared");
            assert!(!strict || changed || shared, "row {v} copied unchanged");
            fresh += usize::from(!shared);
        }
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Flat undirected queries ≡ live kernel ≡ counting BFS, and the
    /// flat `PreQUERY` honors the same rank limit as the live one.
    #[test]
    fn flat_matches_live_and_oracle(g in graph_strategy(18), seed in 0u64..1000) {
        for strategy in [
            OrderingStrategy::Degree,
            OrderingStrategy::Identity,
            OrderingStrategy::Random(seed),
        ] {
            let index = dspc::build_index(&g, strategy);
            let flat = FlatIndex::freeze(&index);
            let mut bfs = BfsCounter::new(g.capacity());
            for s in g.vertices() {
                for t in g.vertices() {
                    let live = spc_query(&index, s, t);
                    prop_assert_eq!(flat.query(s, t), live);
                    prop_assert_eq!(live.as_option(), bfs.count(&g, s, t));
                    prop_assert_eq!(flat.pre_query(s, t), pre_query(&index, s, t));
                }
            }
        }
    }

    /// Directed flat queries ≡ live `L_out × L_in` merge ≡ directed BFS.
    #[test]
    fn directed_flat_matches_live_and_oracle(
        n in 3usize..12,
        arcs in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
    ) {
        let arcs: Vec<(u32, u32)> = arcs
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = dspc_graph::DirectedGraph::from_arcs(n, &arcs);
        let index = dspc::directed::build_directed_index(&g, OrderingStrategy::Degree);
        let flat = dspc::DirectedFlatIndex::freeze(&index);
        let mut bfs = DirectedBfsCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                let live = directed_spc_query(&index, s, t);
                prop_assert_eq!(flat.query(s, t), live);
                prop_assert_eq!(live.as_option(), bfs.count(&g, s, t));
                prop_assert_eq!(flat.pre_query(s, t), directed_pre_query(&index, s, t));
            }
        }
    }

    /// Weighted flat queries ≡ live merge ≡ counting Dijkstra.
    #[test]
    fn weighted_flat_matches_live_and_oracle(
        g in graph_strategy(12),
        weights in proptest::collection::vec(1u32..6, 40),
    ) {
        let triples: Vec<(u32, u32, u32)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| (u.0, v.0, weights[i % weights.len()]))
            .collect();
        let wg = dspc_graph::WeightedGraph::from_weighted_edges(g.capacity(), &triples);
        let index = dspc::weighted::build_weighted_index(&wg, OrderingStrategy::Degree);
        let flat = dspc::WeightedFlatIndex::freeze(&index);
        let mut dj = DijkstraCounter::new(wg.capacity());
        for s in wg.vertices() {
            for t in wg.vertices() {
                let live = weighted_spc_query(&index, s, t);
                prop_assert_eq!(flat.query(s, t), live);
                prop_assert_eq!(live.as_option(), dj.count(&wg, s, t));
                prop_assert_eq!(flat.pre_query(s, t), weighted_pre_query(&index, s, t));
            }
        }
    }

    /// Published snapshots stay exact across `apply_batch` epochs: the
    /// snapshot published after each batch answers like the repaired live
    /// index.
    #[test]
    fn frozen_snapshot_invalidates_across_batches(
        g in graph_strategy(14),
        picks in proptest::collection::vec(0usize..1 << 12, 1..4),
    ) {
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        d.publish(1);
        for pick in picks {
            let m = d.graph().num_edges();
            if m == 0 { break; }
            let (a, b) = d.graph().nth_edge(pick % m).unwrap();
            d.apply_batch(&[GraphUpdate::DeleteEdge(a, b)]).unwrap();
            let snapshot = d.publish(1);
            let vs: Vec<VertexId> = d.graph().vertices().collect();
            for &s in &vs {
                for &t in &vs {
                    let live = d.query(s, t);
                    prop_assert_eq!(snapshot.query(s, t).as_option(), live);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Directed rotations publish both families by sharing: snapshot ≡
    /// copying `freeze` ≡ live ≡ directed BFS after every batch, answers
    /// and counters; `rows_copied` counts the fresh rows; a pinned reader
    /// keeps epoch 0.
    #[test]
    fn directed_publication_shares_unchanged_rows(
        n in 3usize..12,
        arcs in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        picks in proptest::collection::vec(0usize..1 << 12, 1..10),
    ) {
        let arcs: Vec<(u32, u32)> = arcs
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = DirectedGraph::from_arcs(n, &arcs);
        let mut bfs = DirectedBfsCounter::new(n);
        let epoch0: Vec<_> = all_pairs(n).map(|(s, t)| bfs.count(&g, s, t)).collect();
        let batches = arc_batches(&g, &picks);
        let engine = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        let mut server = EpochServer::new(engine, ServeConfig::default());
        let (mut pinned, mut fresh) = (server.reader(), server.reader());
        for batch in batches {
            let inserts = batch.iter().filter(|u| matches!(u, ArcUpdate::InsertArc(..))).count();
            let prev = fresh.snapshot().index().clone();
            server.submit(batch.iter().copied()).unwrap();
            let report = server.rotate().unwrap();
            fresh.refresh();
            let now = fresh.snapshot().index();
            let engine = server.engine();
            let copied = DirectedFlatIndex::freeze(engine.index());
            let (mut got, mut want) = (KernelCounters::new(), KernelCounters::new());
            let mut scratch = FlatScratch::new();
            for (s, t) in all_pairs(n) {
                let answer = now.query_counted(&mut scratch, &mut got, s, t);
                prop_assert_eq!(answer, copied.query_counted(&mut scratch, &mut want, s, t));
                prop_assert_eq!(answer, directed_spc_query(engine.index(), s, t));
                prop_assert_eq!(answer.as_option(), bfs.count(engine.graph(), s, t));
                prop_assert_eq!(now.pre_query(s, t), directed_pre_query(engine.index(), s, t));
            }
            prop_assert_eq!(got, want);
            let families = |x: &DirectedFlatIndex| [Side::Out, Side::In].map(|side| x.rows(side).clone());
            let (before, after) = (families(&prev), families(now));
            let strict = inserts == 0 || inserts == batch.len();
            let copies = fresh_rows(&[&before[0], &before[1]], &[&after[0], &after[1]], strict);
            prop_assert_eq!(report.rows_copied, copies);
        }
        for ((s, t), truth) in all_pairs(n).zip(epoch0) {
            let (epoch, answer) = pinned.query(s, t);
            prop_assert_eq!((epoch, answer.as_option()), (0, truth));
        }
    }

    /// Weighted rotations publish by sharing: snapshot ≡ copying `freeze`
    /// ≡ live ≡ counting Dijkstra after every batch (deletions, weight
    /// changes, insertions); `rows_copied` counts the fresh rows; a pinned
    /// reader keeps epoch 0.
    #[test]
    fn weighted_publication_shares_unchanged_rows(
        g in graph_strategy(12),
        weights in proptest::collection::vec(1u32..6, 40),
        picks in proptest::collection::vec(0usize..1 << 12, 1..10),
    ) {
        let triples: Vec<(u32, u32, u32)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| (u.0, v.0, weights[i % weights.len()]))
            .collect();
        let n = g.capacity();
        let wg = WeightedGraph::from_weighted_edges(n, &triples);
        let mut dj = DijkstraCounter::new(n);
        let epoch0: Vec<_> = all_pairs(n).map(|(s, t)| dj.count(&wg, s, t)).collect();
        let batches = weighted_batches(&wg, &picks);
        let engine = DynamicWeightedSpc::build(wg, OrderingStrategy::Degree);
        let mut server = EpochServer::new(engine, ServeConfig::default());
        let (mut pinned, mut fresh) = (server.reader(), server.reader());
        for batch in batches {
            let inserts = batch.iter().filter(|u| matches!(u, WeightedUpdate::InsertEdge(..))).count();
            let deletes = batch.iter().filter(|u| matches!(u, WeightedUpdate::DeleteEdge(..))).count();
            let prev = fresh.snapshot().index().clone();
            server.submit(batch.iter().copied()).unwrap();
            let report = server.rotate().unwrap();
            fresh.refresh();
            let now = fresh.snapshot().index();
            let engine = server.engine();
            let copied = WeightedFlatIndex::freeze(engine.index());
            let (mut got, mut want) = (KernelCounters::new(), KernelCounters::new());
            let mut scratch = FlatScratch::new();
            for (s, t) in all_pairs(n) {
                let answer = now.query_counted(&mut scratch, &mut got, s, t);
                prop_assert_eq!(answer, copied.query_counted(&mut scratch, &mut want, s, t));
                prop_assert_eq!(answer, weighted_spc_query(engine.index(), s, t));
                prop_assert_eq!(answer.as_option(), dj.count(engine.graph(), s, t));
                prop_assert_eq!(now.pre_query(s, t), weighted_pre_query(engine.index(), s, t));
            }
            prop_assert_eq!(got, want);
            let strict = inserts == batch.len() || deletes == batch.len();
            let copies = fresh_rows(&[prev.rows()], &[now.rows()], strict);
            prop_assert_eq!(report.rows_copied, copies);
        }
        for ((s, t), truth) in all_pairs(n).zip(epoch0) {
            let (epoch, answer) = pinned.query(s, t);
            prop_assert_eq!((epoch, answer.as_option()), (0, truth));
        }
    }
}

/// Deterministic spot checks that the directed and weighted facades
/// publish the repaired index after a mutation (kept out of proptest: one
/// shape suffices).
#[test]
fn directed_and_weighted_facades_invalidate() {
    let g = dspc_graph::DirectedGraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
    let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
    assert_eq!(
        d.publish(1).query(VertexId(0), VertexId(3)).as_option(),
        Some((1, 1))
    );
    d.delete_arc(VertexId(0), VertexId(3)).unwrap();
    assert_eq!(
        d.publish(1).query(VertexId(0), VertexId(3)).as_option(),
        Some((3, 1))
    );

    let wg = dspc_graph::WeightedGraph::from_weighted_edges(3, &[(0, 1, 2), (1, 2, 2), (0, 2, 5)]);
    let mut w = DynamicWeightedSpc::build(wg, OrderingStrategy::Degree);
    assert_eq!(
        w.publish(1).query(VertexId(0), VertexId(2)).as_option(),
        Some((4, 1))
    );
    w.set_weight(VertexId(0), VertexId(2), 3).unwrap();
    assert_eq!(
        w.publish(1).query(VertexId(0), VertexId(2)).as_option(),
        Some((3, 1))
    );
}
