//! Integration tests for the multi-edge `SrrSEARCH` repair path: batched
//! pure-deletion epochs must match sequential deletion query-for-query
//! (and the brute-force oracles), while performing strictly fewer engine
//! sweeps whenever the deleted edges share affected hubs.

use dspc::directed::DynamicDirectedSpc;
use dspc::dynamic::{GraphUpdate, UpdateKind};
use dspc::verify::{verify_all_pairs, verify_directed_all_pairs, verify_weighted_all_pairs};
use dspc::weighted::DynamicWeightedSpc;
use dspc::{DynamicSpc, OrderingStrategy};
use dspc_graph::generators::random::{erdos_renyi_gnm, random_orientation, random_weights};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wheel graph: center `0` joined to every rim vertex `1..=n`, rim closed
/// into a cycle. Deleting spokes never isolates a rim vertex, and every
/// spoke deletion affects the center hub — the ideal overlap case.
fn wheel(n: u32) -> UndirectedGraph {
    let mut edges: Vec<(u32, u32)> = (1..=n).map(|v| (0, v)).collect();
    for v in 1..=n {
        edges.push((v, if v == n { 1 } else { v + 1 }));
    }
    UndirectedGraph::from_edges(n as usize + 1, &edges)
}

#[test]
fn pure_deletion_batch_uses_strictly_fewer_sweeps_than_sequential() {
    // Three spokes of the wheel share the center as their higher-ranked
    // endpoint: one hub group, heavily overlapping SR sets.
    let g = wheel(8);
    let spokes = [
        (VertexId(0), VertexId(2)),
        (VertexId(0), VertexId(4)),
        (VertexId(0), VertexId(6)),
    ];
    let ops: Vec<GraphUpdate> = spokes
        .iter()
        .map(|&(a, b)| GraphUpdate::DeleteEdge(a, b))
        .collect();

    let mut batched = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
    let batch_stats = batched.apply_batch(&ops).unwrap();
    assert_eq!(batch_stats.kind, UpdateKind::Batch);

    let mut streamed = DynamicSpc::build(g, OrderingStrategy::Degree);
    let mut seq_sweeps = 0usize;
    for &(a, b) in &spokes {
        seq_sweeps += streamed.delete_edge(a, b).unwrap().total_sweeps();
    }

    // The amortization claim: one repair sweep per distinct affected hub
    // for the whole group, versus one per edge per hub sequentially.
    assert!(
        batch_stats.total_sweeps() < seq_sweeps,
        "batch {} sweeps, sequential {seq_sweeps}",
        batch_stats.total_sweeps()
    );
    // Classification runs one multi-far sweep per distinct affected
    // endpoint — the three spokes share the center, so 4 endpoints beat
    // the 2-per-edge cost (6) of per-edge classification.
    assert_eq!(batch_stats.classify_sweeps, 4);
    assert!(batch_stats.classify_sweeps < 2 * spokes.len());
    // The center classifies against all three doomed spokes in one sweep.
    assert!(batch_stats.multi_far_sweeps >= 1);
    assert!(batch_stats.hubs_processed < seq_sweeps - batch_stats.classify_sweeps);

    // And the amortized path still lands on the exact same index behavior.
    for s in batched.graph().vertices() {
        for t in batched.graph().vertices() {
            assert_eq!(batched.query(s, t), streamed.query(s, t), "({s:?},{t:?})");
        }
    }
    verify_all_pairs(batched.graph(), batched.index()).unwrap();
    batched.index().check_invariants().unwrap();

    // Wave-parallel repair is a scheduling change, not an algorithmic one:
    // every sweep-count assertion above holds verbatim at any thread count.
    for threads in [2usize, 4, 8] {
        let mut par = DynamicSpc::build(wheel(8), OrderingStrategy::Degree);
        par.set_maintenance_threads(dspc::MaintenanceThreads::Fixed(threads));
        let par_stats = par.apply_batch(&ops).unwrap();
        assert_eq!(
            par_stats.total_sweeps(),
            batch_stats.total_sweeps(),
            "threads={threads}"
        );
        assert_eq!(par_stats.classify_sweeps, batch_stats.classify_sweeps);
        assert_eq!(par_stats.hubs_processed, batch_stats.hubs_processed);
        assert_eq!(par_stats.total_ops(), batch_stats.total_ops());
        verify_all_pairs(par.graph(), par.index()).unwrap();
    }
}

#[test]
fn batch_deletions_disconnecting_a_hub_entirely() {
    // Delete every spoke of a small wheel in one epoch: the center (the
    // top-ranked hub under degree order) ends up isolated and all its
    // outgoing labels must disappear from the rim.
    let n = 5u32;
    let g = wheel(n);
    let ops: Vec<GraphUpdate> = (1..=n)
        .map(|v| GraphUpdate::DeleteEdge(VertexId(0), VertexId(v)))
        .collect();
    let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
    let stats = d.apply_batch(&ops).unwrap();
    assert!(stats.removed > 0);
    assert_eq!(d.query(VertexId(0), VertexId(0)), Some((0, 1)));
    for v in 1..=n {
        assert_eq!(d.query(VertexId(0), VertexId(v)), None);
    }
    // The rim cycle survives intact.
    assert_eq!(d.query(VertexId(1), VertexId(3)), Some((2, 1)));
    verify_all_pairs(d.graph(), d.index()).unwrap();
    d.index().check_invariants().unwrap();
}

#[test]
fn overlapping_deletions_sharing_endpoints_with_one_hub() {
    // Triangle (h, a, b) with h the top-ranked hub plus an a–c–b detour:
    // deleting (h,a) and (h,b) in one batch leaves h attached through d
    // only. Both deletions share hub h and the triangle edge (a,b) sits
    // in both affected regions.
    //   h=0, a=1, b=2, c=3, d=4; edges: (0,1) (0,2) (1,2) (1,3) (2,3) (0,4).
    let g = UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4)]);
    let ops = [
        GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
        GraphUpdate::DeleteEdge(VertexId(0), VertexId(2)),
    ];
    let mut batched = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
    batched.apply_batch(&ops).unwrap();
    let mut streamed = DynamicSpc::build(g, OrderingStrategy::Degree);
    streamed.apply_stream(&ops).unwrap();
    for s in batched.graph().vertices() {
        for t in batched.graph().vertices() {
            assert_eq!(batched.query(s, t), streamed.query(s, t), "({s:?},{t:?})");
        }
    }
    // h and its pendant are cut off from the triangle remnant.
    assert_eq!(batched.query(VertexId(0), VertexId(3)), None);
    assert_eq!(batched.query(VertexId(4), VertexId(1)), None);
    assert_eq!(batched.query(VertexId(0), VertexId(4)), Some((1, 1)));
    verify_all_pairs(batched.graph(), batched.index()).unwrap();
    batched.index().check_invariants().unwrap();
}

#[test]
fn delete_then_reinsert_bridge_folds_to_noop() {
    // The bridge of two triangles: deleting and re-inserting it inside one
    // epoch must coalesce away — no maintenance, no sweeps, same queries.
    let g = dspc_graph::generators::classic::two_cliques_bridge(3);
    let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
    let bridge = {
        // two_cliques_bridge joins vertex 2 of the left clique to vertex 3
        // of the right one; recover it structurally to stay robust.
        let (a, b) = d
            .graph()
            .edges()
            .find(|&(a, b)| (a.0 < 3) != (b.0 < 3))
            .unwrap();
        (a, b)
    };
    let before: Vec<_> = d
        .graph()
        .vertices()
        .flat_map(|s| d.graph().vertices().map(move |t| (s, t)))
        .map(|(s, t)| d.query(s, t))
        .collect();
    let stats = d
        .apply_batch(&[
            GraphUpdate::DeleteEdge(bridge.0, bridge.1),
            GraphUpdate::InsertEdge(bridge.0, bridge.1),
        ])
        .unwrap();
    assert_eq!(stats.total_ops(), 0, "coalesced to nothing");
    assert_eq!(stats.total_sweeps(), 0, "no engine work at all");
    let after: Vec<_> = d
        .graph()
        .vertices()
        .flat_map(|s| d.graph().vertices().map(move |t| (s, t)))
        .map(|(s, t)| d.query(s, t))
        .collect();
    assert_eq!(before, after);
    assert!(d.graph().has_edge(bridge.0, bridge.1));
    verify_all_pairs(d.graph(), d.index()).unwrap();
}

#[test]
fn pendant_heavy_batch_peels_fast_path_deletions() {
    // A star: every spoke deletion strands a pendant leaf, so sequential
    // deletes cost zero sweeps via the §3.2.3 fast path. The batch path
    // must not be slower — eligible edges are peeled off the group to the
    // same fast path before any classification sweep runs.
    let g = dspc_graph::generators::classic::star_graph(7);
    let ops: Vec<GraphUpdate> = (1..4)
        .map(|v| GraphUpdate::DeleteEdge(VertexId(0), VertexId(v)))
        .collect();
    let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
    let stats = d.apply_batch(&ops).unwrap();
    assert_eq!(stats.total_sweeps(), 0, "all spokes peel to the fast path");
    assert!(stats.removed >= 3);
    for v in 1..4 {
        assert_eq!(d.query(VertexId(0), VertexId(v)), None);
    }
    assert_eq!(d.query(VertexId(0), VertexId(5)), Some((1, 1)));
    verify_all_pairs(d.graph(), d.index()).unwrap();
    d.index().check_invariants().unwrap();
}

#[test]
fn random_pure_deletion_batches_match_sequential_and_oracle() {
    let mut rng = StdRng::seed_from_u64(97_531);
    for trial in 0..12 {
        let n = 18 + trial;
        let g = erdos_renyi_gnm(n, 3 * n, &mut rng);
        let mut batched = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
        let mut streamed = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);

        // Pick a hub-sharing batch: up to half the edges incident to the
        // top-ranked vertex, padded with random edges.
        let top = batched.index().vertex(dspc::Rank(0));
        let mut doomed: Vec<(VertexId, VertexId)> = g
            .neighbors(top)
            .iter()
            .take(4)
            .map(|&u| (top, VertexId(u)))
            .collect();
        for _ in 0..3 {
            let m = g.num_edges();
            let (a, b) = g.nth_edge(rng.gen_range(0..m)).unwrap();
            if !doomed.contains(&(a, b)) && !doomed.contains(&(b, a)) {
                doomed.push((a, b));
            }
        }
        let ops: Vec<GraphUpdate> = doomed
            .iter()
            .map(|&(a, b)| GraphUpdate::DeleteEdge(a, b))
            .collect();

        batched.apply_batch(&ops).unwrap();
        streamed.apply_stream(&ops).unwrap();
        for s in batched.graph().vertices() {
            for t in batched.graph().vertices() {
                assert_eq!(
                    batched.query(s, t),
                    streamed.query(s, t),
                    "trial {trial}, pair ({s:?},{t:?})"
                );
            }
        }
        verify_all_pairs(batched.graph(), batched.index()).unwrap();
        batched.index().check_invariants().unwrap();
    }
}

#[test]
fn random_directed_pure_deletion_batches_match_oracle() {
    use dspc::directed::ArcUpdate;
    let mut rng = StdRng::seed_from_u64(86_420);
    for trial in 0..8 {
        let base = erdos_renyi_gnm(14 + trial, 40, &mut rng);
        let g: DirectedGraph = random_orientation(&base, 0.3, &mut rng);
        let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
        let arcs: Vec<_> = g.arcs().collect();
        if arcs.len() < 4 {
            continue;
        }
        let k = 3 + (trial % 4);
        let mut doomed: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..k {
            let (a, b) = arcs[rng.gen_range(0..arcs.len())];
            if !doomed.contains(&(a, b)) {
                doomed.push((a, b));
            }
        }
        let ops: Vec<ArcUpdate> = doomed
            .iter()
            .map(|&(a, b)| ArcUpdate::DeleteArc(a, b))
            .collect();
        d.apply_batch(&ops).unwrap();
        verify_directed_all_pairs(d.graph(), d.index()).unwrap();
        d.index().check_invariants().unwrap();
    }
}

#[test]
fn random_weighted_pure_deletion_batches_match_oracle() {
    use dspc::weighted::WeightedUpdate;
    let mut rng = StdRng::seed_from_u64(75_309);
    for trial in 0..8 {
        let base = erdos_renyi_gnm(12 + trial, 34, &mut rng);
        let g = random_weights(&base, 5, &mut rng);
        let mut d = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
        let edges: Vec<_> = g.edges().collect();
        if edges.len() < 4 {
            continue;
        }
        let k = 3 + (trial % 3);
        let mut doomed: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..k {
            let (a, b, _) = edges[rng.gen_range(0..edges.len())];
            if !doomed.contains(&(a, b)) {
                doomed.push((a, b));
            }
        }
        let ops: Vec<WeightedUpdate> = doomed
            .iter()
            .map(|&(a, b)| WeightedUpdate::DeleteEdge(a, b))
            .collect();
        d.apply_batch(&ops).unwrap();
        verify_weighted_all_pairs(d.graph(), d.index()).unwrap();
        d.index().check_invariants().unwrap();
    }
}

#[test]
fn facade_delete_edges_validates_before_mutating() {
    let g = wheel(5);
    let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
    let edges_before = d.graph().num_edges();
    // Second edge missing: nothing at all may be applied.
    let err = d.delete_edges(&[(VertexId(0), VertexId(1)), (VertexId(2), VertexId(5))]);
    assert!(err.is_err());
    assert_eq!(d.graph().num_edges(), edges_before);
    // Duplicate edge in one set: rejected up front, naming the actual
    // duplicated edge — not an arbitrary member of the set.
    let err = d.delete_edges(&[
        (VertexId(1), VertexId(2)),
        (VertexId(0), VertexId(1)),
        (VertexId(1), VertexId(0)),
    ]);
    match err {
        Err(dspc_graph::GraphError::MissingEdge(a, b)) => {
            assert_eq!((a, b), (VertexId(0), VertexId(1)));
        }
        other => panic!("expected MissingEdge(0, 1), got {other:?}"),
    }
    assert_eq!(d.graph().num_edges(), edges_before);
    verify_all_pairs(d.graph(), d.index()).unwrap();
}
