//! Intra-batch maintenance at any thread count must be *bit-identical* to
//! the sequential path — same queries, same index, same counters. Only
//! classification fans out; repair sweeps run in rank order either way.

use dspc::directed::{ArcUpdate, DynamicDirectedSpc};
use dspc::dynamic::GraphUpdate;
use dspc::verify::{verify_all_pairs, verify_directed_all_pairs, verify_weighted_all_pairs};
use dspc::weighted::{DynamicWeightedSpc, WeightedUpdate};
use dspc::{DynamicSpc, MaintenanceThreads, OrderingStrategy};
use dspc_graph::generators::random::{erdos_renyi_gnm, random_orientation, random_weights};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two disjoint wheels bridged through a single cut vertex `0`: center 1
/// with rim {2..=5} and center 6 with rim {7..=10}, plus bridge edges
/// (0, 1) and (0, 6). Identity ordering makes vertex 0 the top-ranked
/// endpoint of both bridge edges, so one net-deletion group severs both
/// wheels at once and the residual graph splits into three components.
fn double_wheel_bridge() -> UndirectedGraph {
    let mut edges: Vec<(u32, u32)> = vec![(0, 1), (0, 6)];
    for (center, rim) in [(1u32, [2u32, 3, 4, 5]), (6, [7, 8, 9, 10])] {
        for (i, &v) in rim.iter().enumerate() {
            edges.push((center, v));
            edges.push((v, rim[(i + 1) % rim.len()]));
        }
    }
    UndirectedGraph::from_edges(11, &edges)
}

/// A deletion batch spanning both wheels and the bridge, whose residual
/// graph splits into three components, repairs identically at every
/// thread count.
#[test]
fn two_wheels_batch_is_identical_at_any_thread_count() {
    let g = double_wheel_bridge();
    let ops = [
        GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
        GraphUpdate::DeleteEdge(VertexId(0), VertexId(6)),
        GraphUpdate::DeleteEdge(VertexId(3), VertexId(4)),
    ];

    let mut seq = DynamicSpc::build(g.clone(), OrderingStrategy::Identity);
    seq.set_maintenance_threads(MaintenanceThreads::Fixed(1));
    let seq_stats = seq.apply_batch(&ops).unwrap();
    assert_eq!(seq_stats.waves, 0, "repair schedules no waves");
    assert_eq!(seq_stats.max_wave_width, 0);

    for threads in [2usize, 4, 8] {
        let mut par = DynamicSpc::build(g.clone(), OrderingStrategy::Identity);
        par.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let par_stats = par.apply_batch(&ops).unwrap();
        assert_eq!(par_stats, seq_stats, "threads={threads}");
        for s in par.graph().vertices() {
            for t in par.graph().vertices() {
                assert_eq!(par.query(s, t), seq.query(s, t), "({s:?},{t:?})");
            }
        }
        assert_eq!(par.query(VertexId(2), VertexId(7)), None, "wheels severed");
        verify_all_pairs(par.graph(), par.index()).unwrap();
        par.index().check_invariants().unwrap();
    }
}

/// Deleting every spoke of a wheel in one epoch at several thread counts:
/// the removal-heavy case must match the sequential run exactly.
#[test]
fn hub_disconnect_batch_is_identical_at_any_thread_count() {
    let n = 6u32;
    let mut edges: Vec<(u32, u32)> = (1..=n).map(|v| (0, v)).collect();
    for v in 1..=n {
        edges.push((v, if v == n { 1 } else { v + 1 }));
    }
    let g = UndirectedGraph::from_edges(n as usize + 1, &edges);
    let ops: Vec<GraphUpdate> = (1..=n)
        .map(|v| GraphUpdate::DeleteEdge(VertexId(0), VertexId(v)))
        .collect();

    let mut seq = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
    seq.set_maintenance_threads(MaintenanceThreads::Fixed(1));
    let seq_stats = seq.apply_batch(&ops).unwrap();
    for threads in [2usize, 4, 8] {
        let mut par = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
        par.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let par_stats = par.apply_batch(&ops).unwrap();
        assert_eq!(par_stats, seq_stats, "threads={threads}");
        for s in par.graph().vertices() {
            for t in par.graph().vertices() {
                assert_eq!(par.query(s, t), seq.query(s, t));
            }
        }
        verify_all_pairs(par.graph(), par.index()).unwrap();
    }
}

/// Decodes selector pairs into a valid mixed batch against `g`: distinct
/// existing edges to delete, distinct absent edges to insert.
fn mixed_ops(g: &UndirectedGraph, sel: &[(usize, usize)]) -> Vec<GraphUpdate> {
    let edges: Vec<_> = g.edges().collect();
    let vs: Vec<VertexId> = g.vertices().collect();
    let mut non_edges = Vec::new();
    for (i, &u) in vs.iter().enumerate() {
        for &v in &vs[i + 1..] {
            if !g.has_edge(u, v) {
                non_edges.push((u, v));
            }
        }
    }
    let (mut used_del, mut used_ins) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    for &(d, i) in sel {
        if !edges.is_empty() {
            let k = d % edges.len();
            if !used_del.contains(&k) {
                used_del.push(k);
                ops.push(GraphUpdate::DeleteEdge(edges[k].0, edges[k].1));
            }
        }
        if !non_edges.is_empty() {
            let k = i % non_edges.len();
            if !used_ins.contains(&k) {
                used_ins.push(k);
                ops.push(GraphUpdate::InsertEdge(non_edges[k].0, non_edges[k].1));
            }
        }
    }
    ops
}

fn graph_strategy(max_n: usize) -> impl Strategy<Value = UndirectedGraph> {
    (4usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=3 * n)
            .prop_map(move |edges| UndirectedGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// For arbitrary graphs and mixed batches, parallel repair at 2, 4,
    /// and 8 threads is query-identical to `threads = 1` and to the
    /// BFS-counting oracle, and the merged counters equal the sequential
    /// counters.
    #[test]
    fn parallel_mixed_batches_match_sequential_and_oracle(
        g in graph_strategy(18),
        sel in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 1..7),
    ) {
        let ops = mixed_ops(&g, &sel);
        let mut seq = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
        seq.set_maintenance_threads(MaintenanceThreads::Fixed(1));
        let seq_stats = seq.apply_batch(&ops).unwrap();
        for threads in [2usize, 4, 8] {
            let mut par = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
            par.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let par_stats = par.apply_batch(&ops).unwrap();
            prop_assert_eq!(par_stats, seq_stats, "threads={}", threads);
            for s in par.graph().vertices() {
                for t in par.graph().vertices() {
                    prop_assert_eq!(par.query(s, t), seq.query(s, t));
                }
            }
            verify_all_pairs(par.graph(), par.index()).unwrap();
            par.index().check_invariants().unwrap();
        }
    }
}

#[test]
fn directed_parallel_batches_match_sequential_and_oracle() {
    let mut rng = StdRng::seed_from_u64(13_571);
    for trial in 0..10 {
        let base = erdos_renyi_gnm(12 + trial, 36, &mut rng);
        let g: DirectedGraph = random_orientation(&base, 0.3, &mut rng);
        let arcs: Vec<_> = g.arcs().collect();
        if arcs.len() < 4 {
            continue;
        }
        let mut doomed: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..(3 + trial % 4) {
            let (a, b) = arcs[rng.gen_range(0..arcs.len())];
            if !doomed.contains(&(a, b)) {
                doomed.push((a, b));
            }
        }
        let ops: Vec<ArcUpdate> = doomed
            .iter()
            .map(|&(a, b)| ArcUpdate::DeleteArc(a, b))
            .collect();

        let mut seq = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
        seq.set_maintenance_threads(MaintenanceThreads::Fixed(1));
        let seq_stats = seq.apply_batch(&ops).unwrap();
        for threads in [2usize, 4, 8] {
            let mut par = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
            par.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let par_stats = par.apply_batch(&ops).unwrap();
            assert_eq!(par_stats, seq_stats, "trial={trial} threads={threads}");
            for s in par.graph().vertices() {
                for t in par.graph().vertices() {
                    assert_eq!(par.query(s, t), seq.query(s, t), "({s:?}→{t:?})");
                }
            }
            verify_directed_all_pairs(par.graph(), par.index()).unwrap();
            par.index().check_invariants().unwrap();
        }
    }
}

#[test]
fn weighted_parallel_batches_match_sequential_and_oracle() {
    let mut rng = StdRng::seed_from_u64(24_680);
    for trial in 0..10 {
        let base = erdos_renyi_gnm(11 + trial, 30, &mut rng);
        let g = random_weights(&base, 5, &mut rng);
        let edges: Vec<_> = g.edges().collect();
        if edges.len() < 4 {
            continue;
        }
        let mut doomed: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..(3 + trial % 3) {
            let (a, b, _) = edges[rng.gen_range(0..edges.len())];
            if !doomed.contains(&(a, b)) {
                doomed.push((a, b));
            }
        }
        let ops: Vec<WeightedUpdate> = doomed
            .iter()
            .map(|&(a, b)| WeightedUpdate::DeleteEdge(a, b))
            .collect();

        let mut seq = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
        seq.set_maintenance_threads(MaintenanceThreads::Fixed(1));
        let seq_stats = seq.apply_batch(&ops).unwrap();
        for threads in [2usize, 4, 8] {
            let mut par = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
            par.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let par_stats = par.apply_batch(&ops).unwrap();
            assert_eq!(par_stats, seq_stats, "trial={trial} threads={threads}");
            for s in par.graph().vertices() {
                for t in par.graph().vertices() {
                    assert_eq!(par.query(s, t), seq.query(s, t), "({s:?},{t:?})");
                }
            }
            verify_weighted_all_pairs(par.graph(), par.index()).unwrap();
            par.index().check_invariants().unwrap();
        }
    }
}

/// The knob round-trips and `Auto` stays usable as the default.
#[test]
fn maintenance_threads_knob_roundtrip() {
    let mut d = DynamicSpc::build(double_wheel_bridge(), OrderingStrategy::Degree);
    assert_eq!(d.maintenance_threads(), MaintenanceThreads::Auto);
    d.set_maintenance_threads(MaintenanceThreads::Fixed(3));
    assert_eq!(d.maintenance_threads(), MaintenanceThreads::Fixed(3));
    // A batch under the configured budget still repairs exactly.
    d.apply_batch(&[
        GraphUpdate::DeleteEdge(VertexId(1), VertexId(2)),
        GraphUpdate::DeleteEdge(VertexId(6), VertexId(7)),
    ])
    .unwrap();
    verify_all_pairs(d.graph(), d.index()).unwrap();
}
