//! Holder-targeted removal: the DecSPC removal pass walks per-repair
//! hub → holder lists instead of probing every receiver for every hub.
//! These tests pin what makes that exact — each `(hub, family)` pair sweeps
//! once per repair, including the directed hub that lands in both `SR_a`
//! and `SR_b` — and that the deterministic counters, `removal_probes`
//! included, do not depend on the thread count.

use dspc::directed::{ArcUpdate, DynamicDirectedSpc};
use dspc::dynamic::GraphUpdate;
use dspc::verify::{verify_all_pairs, verify_directed_all_pairs, verify_weighted_all_pairs};
use dspc::weighted::{DynamicWeightedSpc, WeightedUpdate};
use dspc::{DynamicSpc, MaintenanceThreads, OrderingStrategy, UpdateStats};
use dspc_graph::generators::paper::figure2_g;
use dspc_graph::generators::random::{random_orientation, random_weights};
use dspc_graph::{DirectedGraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;

/// The counters with the wave-schedule fields cleared: only the parallel
/// path schedules waves, and steals and interference probes depend on it.
fn deterministic(mut s: UpdateStats) -> UpdateStats {
    s.counters.waves = 0;
    s.counters.max_wave_width = 0;
    s.counters.interference_probes = 0;
    s.counters.steal_events = 0;
    s
}

/// Distinct picks from `0..len`, in selection order.
fn distinct(sel: &[usize], len: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    if len == 0 {
        return out;
    }
    for &k in sel {
        if !out.contains(&(k % len)) {
            out.push(k % len);
        }
    }
    out
}

/// On a directed cycle every vertex but the head reaches the head only
/// through the deleted arc, and every vertex but the tail is reached from
/// the tail only through it, so every other vertex is in both `SR_a`
/// (repairs `L_in`) and `SR_b` (repairs `L_out`). Each such hub sweeps
/// twice, once per family, and the holder lists must serve both removals.
#[test]
fn directed_cycle_hub_in_both_sides_repairs_each_family_once() {
    for n in [4u32, 5, 7] {
        let arcs: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = DirectedGraph::from_arcs(n as usize, &arcs);
        for threads in [1usize, 2] {
            let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let stats = d.delete_arc(VertexId(0), VertexId(1)).unwrap();
            // SR_a = every vertex but the head, SR_b = every vertex but
            // the tail: 2n − 2 sweeps over n vertices.
            assert_eq!(stats.hubs_processed, 2 * n as usize - 2, "n={n}");
            assert!(stats.removed > 0, "n={n}: the cut leaves stale rows");
            verify_directed_all_pairs(d.graph(), d.index()).unwrap();
            d.index().check_invariants().unwrap();
            assert_eq!(d.query(VertexId(0), VertexId(1)), None, "n={n}");
        }
    }
}

/// The same cycle with chords keeps a second route from the tail to the
/// head, so the repair renews rows instead of only removing them.
#[test]
fn directed_cycle_with_chords_matches_oracle() {
    let g = DirectedGraph::from_arcs(
        6,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 3),
            (4, 1),
        ],
    );
    let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
    let stats = d.delete_arc(VertexId(0), VertexId(1)).unwrap();
    assert!(stats.hubs_processed > 0);
    assert_eq!(d.query(VertexId(0), VertexId(1)), Some((3, 1)));
    verify_directed_all_pairs(d.graph(), d.index()).unwrap();
    d.index().check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Undirected deletion batches (one edge: the single-edge path; more:
    /// the group path) at 1 and 2 threads: identical counters, the
    /// oracle's answers.
    #[test]
    fn undirected_counters_match_across_threads(
        g in common::graph_strategy(16),
        sel in proptest::collection::vec(0usize..1 << 16, 1..6),
    ) {
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let ops: Vec<GraphUpdate> = distinct(&sel, edges.len())
            .into_iter()
            .map(|k| GraphUpdate::DeleteEdge(edges[k].0, edges[k].1))
            .collect();
        let run = |threads: usize| {
            let mut d = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let stats = d.apply_batch(&ops).unwrap();
            verify_all_pairs(d.graph(), d.index()).unwrap();
            d.index().check_invariants().unwrap();
            deterministic(stats)
        };
        prop_assert_eq!(run(1), run(2));
    }

    /// Directed deletion batches at 1 and 2 threads.
    #[test]
    fn directed_counters_match_across_threads(
        base in common::graph_strategy(14),
        seed in 0u64..1 << 32,
        sel in proptest::collection::vec(0usize..1 << 16, 1..6),
    ) {
        let g = random_orientation(&base, 0.3, &mut StdRng::seed_from_u64(seed));
        let arcs: Vec<(VertexId, VertexId)> = g.arcs().collect();
        let ops: Vec<ArcUpdate> = distinct(&sel, arcs.len())
            .into_iter()
            .map(|k| ArcUpdate::DeleteArc(arcs[k].0, arcs[k].1))
            .collect();
        let run = |threads: usize| {
            let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let stats = d.apply_batch(&ops).unwrap();
            verify_directed_all_pairs(d.graph(), d.index()).unwrap();
            d.index().check_invariants().unwrap();
            deterministic(stats)
        };
        prop_assert_eq!(run(1), run(2));
    }

    /// Weighted deletion batches at 1 and 2 threads.
    #[test]
    fn weighted_counters_match_across_threads(
        base in common::graph_strategy(14),
        seed in 0u64..1 << 32,
        sel in proptest::collection::vec(0usize..1 << 16, 1..6),
    ) {
        let g = random_weights(&base, 4, &mut StdRng::seed_from_u64(seed));
        let edges: Vec<(VertexId, VertexId)> = g.edges().map(|(a, b, _)| (a, b)).collect();
        let ops: Vec<WeightedUpdate> = distinct(&sel, edges.len())
            .into_iter()
            .map(|k| WeightedUpdate::DeleteEdge(edges[k].0, edges[k].1))
            .collect();
        let run = |threads: usize| {
            let mut d = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
            d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
            let stats = d.apply_batch(&ops).unwrap();
            verify_weighted_all_pairs(d.graph(), d.index()).unwrap();
            d.index().check_invariants().unwrap();
            deterministic(stats)
        };
        prop_assert_eq!(run(1), run(2));
    }
}

/// Paper Example 3.15: deleting `(v1, v2)` from Figure 2's graph removes
/// `(v1, 2, 1)` from `L(v3)` in the removal pass — found through the holder
/// list of hub `v1`.
#[test]
fn removal_probes_count_the_holder_walk() {
    let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
    assert!(d.index().label_of(VertexId(3), VertexId(1)).is_some());
    let stats = d.delete_edge(VertexId(1), VertexId(2)).unwrap();
    assert!(d.index().label_of(VertexId(3), VertexId(1)).is_none());
    assert!(stats.removed >= 1);
    assert!(stats.removal_probes >= stats.removed);
    verify_all_pairs(d.graph(), d.index()).unwrap();
}
