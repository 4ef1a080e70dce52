//! Property-based tests (proptest): for *arbitrary* random graphs and
//! *arbitrary* update sequences, every index variant must agree with its
//! brute-force oracle, and the core data structures must uphold their
//! invariants.

use dspc::label::{
    packed, Count, HubEntry, LabelDist, LabelEntry, LabelRow, LabelSet, Rank, RowKey, SharedRows,
};
use dspc::verify::verify_all_pairs;
use dspc::weighted::WLabelEntry;
use dspc::{DynamicSpc, OrderingStrategy};
use dspc_graph::traversal::bfs::BfsCounter;
use dspc_graph::traversal::bibfs::BiBfsCounter;
use dspc_graph::{UndirectedGraph, VertexId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Strategy: a small random graph as (n, edge list).
fn graph_strategy(max_n: usize) -> impl Strategy<Value = UndirectedGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(3 * n))
            .prop_map(move |edges| UndirectedGraph::from_edges(n, &edges))
    })
}

/// One random topology update, encoded structurally so it can be decoded
/// against whatever the current graph looks like.
#[derive(Clone, Debug)]
enum Op {
    /// Insert the i-th available non-edge (mod count).
    Insert(usize),
    /// Delete the i-th existing edge (mod count).
    Delete(usize),
}

/// Hub ranks the split-row model check draws from.
const ROW_HUBS: u32 = 40;

/// One step of the split-row model check: an op code (0–4 upsert, 5–6
/// remove, 7 reset to self, 8 clear, 9 publish), then the hub, distance
/// and count the op uses.
type RowStep = (u8, u32, u64, u64);

/// Drives one [`LabelRow`] through `steps` against a sorted-map model.
/// After every step the row's keys ascend strictly, and its keys, counts,
/// `len`, `get` and `contains` agree with the model; every family
/// published earlier still holds what it held (copy-on-write); and a row
/// no mutator touched since its last publish republishes the same handle.
fn model_check_row<E: HubEntry>(steps: &[RowStep], entry: impl Fn(u32, u64, Count) -> E) {
    let mut row = LabelRow::<E>::new();
    let mut model: BTreeMap<Rank, (E::Dist, Count)> = BTreeMap::new();
    let mut published: Vec<(SharedRows<E>, Vec<E>)> = Vec::new();
    let mut touched = true;
    for &(op, hub, dist, count) in steps {
        let hub = Rank(hub);
        match op {
            0..=4 => {
                let e = entry(hub.0, dist, count);
                let old = row.upsert(e).map(|o| (o.dist(), o.count()));
                assert_eq!(old, model.insert(hub, (e.dist(), e.count())));
            }
            5 | 6 => {
                let old = row.remove(hub).map(|o| (o.dist(), o.count()));
                assert_eq!(old, model.remove(&hub));
            }
            7 => {
                let dropped = model.len() - usize::from(model.contains_key(&hub));
                assert_eq!(row.reset_to_self(hub), dropped);
                model.clear();
                model.insert(hub, (<E::Dist as LabelDist>::ZERO, 1));
            }
            8 => {
                row.clear_all();
                model.clear();
            }
            _ => {
                let family = SharedRows::publish(std::slice::from_mut(&mut row));
                if let (false, Some((last, _))) = (touched, published.last()) {
                    assert!(Arc::ptr_eq(family.handle(0), last.handle(0)));
                }
                published.push((family, row.iter().collect()));
            }
        }
        touched = op < 9;
        let keys = row.keys();
        assert!(keys.windows(2).all(|w| w[0].hub() < w[1].hub()));
        let want: Vec<(Rank, E::Dist)> = model.iter().map(|(&h, &(d, _))| (h, d)).collect();
        let got: Vec<(Rank, E::Dist)> = keys.iter().map(|k| (k.hub(), k.dist())).collect();
        assert_eq!(got, want);
        let counts: Vec<Count> = model.values().map(|&(_, c)| c).collect();
        assert_eq!(row.counts(), &counts[..]);
        assert_eq!(row.len(), model.len());
        for h in (0..ROW_HUBS).map(Rank) {
            let got = row.get(h).map(|e| (e.dist(), e.count()));
            assert_eq!(got, model.get(&h).copied());
            assert_eq!(row.contains(h), model.contains_key(&h));
        }
        for (family, held) in &published {
            assert_eq!(&family.row(0).iter().collect::<Vec<_>>(), held);
        }
    }
}

fn ops_strategy(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..1 << 16).prop_map(Op::Insert),
            (0usize..1 << 16).prop_map(Op::Delete),
        ],
        0..=len,
    )
}

fn non_edges(g: &UndirectedGraph) -> Vec<(VertexId, VertexId)> {
    let mut out = Vec::new();
    let vs: Vec<VertexId> = g.vertices().collect();
    for (i, &u) in vs.iter().enumerate() {
        for &v in &vs[i + 1..] {
            if !g.has_edge(u, v) {
                out.push((u, v));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fresh builds answer exactly like counting BFS under any ordering.
    #[test]
    fn built_index_matches_bfs(g in graph_strategy(20), seed in 0u64..1000) {
        for strategy in [
            OrderingStrategy::Degree,
            OrderingStrategy::Identity,
            OrderingStrategy::Random(seed),
        ] {
            let index = dspc::build_index(&g, strategy);
            index.check_invariants().unwrap();
            verify_all_pairs(&g, &index).unwrap();
        }
    }

    /// A maintained index stays exact through any insert/delete sequence.
    #[test]
    fn maintained_index_matches_bfs_after_any_stream(
        g in graph_strategy(16),
        ops in ops_strategy(12),
    ) {
        let mut dspc = DynamicSpc::build(g, OrderingStrategy::Degree);
        for op in ops {
            match op {
                Op::Insert(i) => {
                    let pool = non_edges(dspc.graph());
                    if pool.is_empty() { continue; }
                    let (a, b) = pool[i % pool.len()];
                    dspc.insert_edge(a, b).unwrap();
                }
                Op::Delete(i) => {
                    let m = dspc.graph().num_edges();
                    if m == 0 { continue; }
                    let (a, b) = dspc.graph().nth_edge(i % m).unwrap();
                    dspc.delete_edge(a, b).unwrap();
                }
            }
            dspc.index().check_invariants().unwrap();
        }
        verify_all_pairs(dspc.graph(), dspc.index()).unwrap();
    }

    /// Bidirectional BFS counts exactly like unidirectional BFS.
    #[test]
    fn bibfs_equals_bfs(g in graph_strategy(24), s in 0u32..24, t in 0u32..24) {
        let cap = g.capacity() as u32;
        let (s, t) = (VertexId(s % cap), VertexId(t % cap));
        let mut bfs = BfsCounter::new(g.capacity());
        let mut bibfs = BiBfsCounter::new(g.capacity());
        prop_assert_eq!(bibfs.count(&g, s, t), bfs.count(&g, s, t));
    }

    /// Packed 64-bit labels round-trip all in-range values and saturate
    /// out-of-range counts.
    #[test]
    fn packed_label_round_trip(
        hub in 0u32..=packed::MAX_HUB,
        dist in 0u32..=packed::MAX_DIST,
        count in proptest::num::u64::ANY,
    ) {
        let e = LabelEntry::new(Rank(hub), dist, count);
        let p = packed::pack(e).unwrap();
        let back = packed::unpack(p);
        prop_assert_eq!(back.hub, e.hub);
        prop_assert_eq!(back.dist, e.dist);
        prop_assert_eq!(back.count, count.min(packed::MAX_COUNT));
    }

    /// LabelSet behaves like a sorted map keyed by hub rank.
    #[test]
    fn label_set_is_a_sorted_map(
        ops in proptest::collection::vec((0u32..50, 0u32..100, 1u64..500, proptest::bool::ANY), 0..60)
    ) {
        let mut ls = LabelSet::new();
        let mut model = std::collections::BTreeMap::new();
        for (hub, dist, count, remove) in ops {
            if remove {
                let got = ls.remove(Rank(hub));
                let want = model.remove(&hub);
                prop_assert_eq!(got.map(|e| (e.dist, e.count)), want);
            } else {
                ls.upsert(LabelEntry::new(Rank(hub), dist, count));
                model.insert(hub, (dist, count));
            }
            prop_assert!(ls.is_sorted_strict());
            prop_assert_eq!(ls.len(), model.len());
        }
        for (hub, (dist, count)) in model {
            let e = ls.get(Rank(hub)).unwrap();
            prop_assert_eq!((e.dist, e.count), (dist, count));
        }
    }

    /// The split row (keys, then counts, in one copy-on-write block) is
    /// a sorted map under every mutator and publication, unweighted and
    /// weighted alike.
    #[test]
    fn split_rows_match_a_sorted_map_model(
        steps in proptest::collection::vec((0u8..10, 0..ROW_HUBS, 0u64..1 << 40, 1u64..u64::MAX), 0..80)
    ) {
        model_check_row(&steps, |h, d, c| LabelEntry::new(Rank(h), d as u32, c));
        model_check_row(&steps, |h, d, c| WLabelEntry::new(Rank(h), d, c));
    }

    /// Index serialization round-trips any freshly built index.
    #[test]
    fn serialization_round_trip(g in graph_strategy(20)) {
        let index = dspc::build_index(&g, OrderingStrategy::Degree);
        let bytes = dspc::serialize::encode_index(&index);
        let back = dspc::serialize::decode_index(&bytes).unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(
                    dspc::spc_query(&index, s, t),
                    dspc::spc_query(&back, s, t)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The weighted index agrees with counting Dijkstra through random
    /// weight mutations (insert / delete / increase / decrease).
    #[test]
    fn weighted_index_matches_dijkstra(
        g in graph_strategy(12),
        weights in proptest::collection::vec(1u32..6, 40),
        muts in proptest::collection::vec((0usize..1 << 12, 1u32..8), 0..6),
    ) {
        use dspc::weighted::DynamicWeightedSpc;
        use dspc_graph::traversal::dijkstra::DijkstraCounter;
        let triples: Vec<(u32, u32, u32)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| (u.0, v.0, weights[i % weights.len()]))
            .collect();
        let wg = dspc_graph::WeightedGraph::from_weighted_edges(g.capacity(), &triples);
        let mut d = DynamicWeightedSpc::build(wg, OrderingStrategy::Degree);
        for (pick, w) in muts {
            let edges: Vec<_> = d.graph().edges().collect();
            if edges.is_empty() { continue; }
            let (a, b, _) = edges[pick % edges.len()];
            if pick % 3 == 0 {
                d.delete_edge(a, b).unwrap();
            } else {
                d.set_weight(a, b, w).unwrap();
            }
        }
        let mut dj = DijkstraCounter::new(d.graph().capacity());
        for s in d.graph().vertices() {
            for t in d.graph().vertices() {
                prop_assert_eq!(d.query(s, t), dj.count(d.graph(), s, t));
            }
        }
        dspc::verify::verify_weighted_all_pairs(d.graph(), d.index()).unwrap();
    }

    /// The directed index agrees with directed BFS through arc streams.
    #[test]
    fn directed_index_matches_dbfs(
        n in 3usize..12,
        arcs in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        muts in proptest::collection::vec((0usize..1 << 12, proptest::bool::ANY), 0..6),
    ) {
        use dspc::directed::DynamicDirectedSpc;
        use dspc_graph::traversal::dbfs::DirectedBfsCounter;
        let arcs: Vec<(u32, u32)> = arcs
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = dspc_graph::DirectedGraph::from_arcs(n, &arcs);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        for (pick, insert) in muts {
            if insert {
                // Pick a missing arc.
                let mut candidates = Vec::new();
                for u in 0..n as u32 {
                    for v in 0..n as u32 {
                        if u != v && !d.graph().has_arc(VertexId(u), VertexId(v)) {
                            candidates.push((u, v));
                        }
                    }
                }
                if candidates.is_empty() { continue; }
                let (a, b) = candidates[pick % candidates.len()];
                d.insert_arc(VertexId(a), VertexId(b)).unwrap();
            } else {
                let arcs: Vec<_> = d.graph().arcs().collect();
                if arcs.is_empty() { continue; }
                let (a, b) = arcs[pick % arcs.len()];
                d.delete_arc(a, b).unwrap();
            }
        }
        let mut bfs = DirectedBfsCounter::new(d.graph().capacity());
        for s in d.graph().vertices() {
            for t in d.graph().vertices() {
                prop_assert_eq!(d.query(s, t), bfs.count(d.graph(), s, t));
            }
        }
        dspc::verify::verify_directed_all_pairs(d.graph(), d.index()).unwrap();
    }
}
