//! Equivalence proofs for incremental re-ranking: for arbitrary graphs
//! and arbitrary non-overlapping adjacent-swap plans, the repaired index
//! must be bit-identical to a fresh build at the swapped order — for the
//! undirected core, the directed extension, and the weighted extension —
//! and must still answer exactly like the brute-force oracle. Plus the
//! maintenance policy's tier transitions on every variant's facade: each
//! tier (local re-rank, batched re-rank, full rebuild) fires at its
//! staleness band, and the snapshot published after it answers like the
//! live index.

use dspc::directed::ArcUpdate;
use dspc::dynamic::Dynamic;
use dspc::engine::{Directed, Undirected, Variant, Weighted};
use dspc::policy::{MaintenanceAction, MaintenancePolicy};
use dspc::reorder::rerank_adjacent;
use dspc::verify::{verify_all_pairs, verify_directed_all_pairs, verify_weighted_all_pairs};
use dspc::weighted::WeightedUpdate;
use dspc::{rebuild_index, DynamicSpc, GraphUpdate, OrderingStrategy, Rank, RankMap};
use dspc_graph::{DirectedGraph, Graph, UndirectedGraph, VertexId, WeightedGraph};
use proptest::prelude::*;

/// Strategy: a small random graph as (n, edge list).
fn graph_strategy(max_n: usize) -> impl Strategy<Value = UndirectedGraph> {
    (4usize..max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(3 * n))
            .prop_map(move |edges| UndirectedGraph::from_edges(n, &edges))
    })
}

fn swapped_order(ranks: &RankMap, swaps: &[Rank]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..ranks.len() as u32)
        .map(|r| ranks.vertex(Rank(r)).0)
        .collect();
    for &r in swaps {
        order.swap(r.index(), r.index() + 1);
    }
    order
}

/// Decode raw rank picks into a sorted, non-overlapping swap plan.
fn decode_swaps(picks: &[u32], n: u32) -> Vec<Rank> {
    let mut swaps: Vec<u32> = picks.iter().map(|&p| p % (n - 1)).collect();
    swaps.sort_unstable();
    swaps.dedup();
    let mut out: Vec<Rank> = Vec::new();
    for r in swaps {
        if out.last().is_none_or(|&last| r > last.0 + 1) {
            out.push(Rank(r));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Undirected: re-rank ≡ rebuild at the swapped order, and the result
    /// still matches counting BFS.
    #[test]
    fn undirected_rerank_equals_rebuild(
        g in graph_strategy(28),
        picks in proptest::collection::vec(0u32..1 << 16, 1..6),
        seed in 0u64..1 << 20,
    ) {
        let base = RankMap::build(&g, OrderingStrategy::Random(seed));
        let swaps = decode_swaps(&picks, g.capacity() as u32);
        assert!(!swaps.is_empty(), "decode_swaps always yields at least one swap");
        let fresh = rebuild_index(
            &g,
            RankMap::from_rank_order(&swapped_order(&base, &swaps), base.strategy()),
        );
        let mut index = rebuild_index(&g, base.clone());
        let c = rerank_adjacent::<Undirected>(&g, &mut index, &swaps);
        prop_assert_eq!(c.rerank_swaps, swaps.len());
        index.check_invariants().unwrap();
        prop_assert_eq!(&index, &fresh, "re-rank differs from rebuild");
        verify_all_pairs(&g, &fresh).unwrap();
    }

    /// Directed: re-rank ≡ rebuild, oracle-checked.
    #[test]
    fn directed_rerank_equals_rebuild(
        arcs in proptest::collection::vec((0u32..18, 0u32..18), 0..70),
        picks in proptest::collection::vec(0u32..1 << 16, 1..5),
    ) {
        use dspc::directed::build::{build_directed_index, rebuild_directed_index};

        let n = 18usize;
        let g = dspc_graph::DirectedGraph::from_arcs(n, &arcs);
        let base = build_directed_index(&g, OrderingStrategy::Degree).ranks().clone();
        let swaps = decode_swaps(&picks, n as u32);
        assert!(!swaps.is_empty(), "decode_swaps always yields at least one swap");
        let mut index = rebuild_directed_index(&g, base.clone());
        rerank_adjacent::<Directed>(&g, &mut index, &swaps);
        index.check_invariants().unwrap();
        let fresh = rebuild_directed_index(
            &g,
            RankMap::from_rank_order(&swapped_order(&base, &swaps), base.strategy()),
        );
        prop_assert_eq!(&index, &fresh, "directed re-rank differs from rebuild");
        verify_directed_all_pairs(&g, &fresh).unwrap();
    }

    /// Weighted: re-rank ≡ rebuild, oracle-checked.
    #[test]
    fn weighted_rerank_equals_rebuild(
        edges in proptest::collection::vec((0u32..16, 0u32..16, 1u32..7), 0..50),
        picks in proptest::collection::vec(0u32..1 << 16, 1..5),
    ) {
        use dspc::weighted::build::{build_weighted_index, rebuild_weighted_index};

        let n = 16usize;
        let edges: Vec<(u32, u32, u32)> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
        let g = dspc_graph::WeightedGraph::from_weighted_edges(n, &edges);
        let base = build_weighted_index(&g, OrderingStrategy::Degree).ranks().clone();
        let swaps = decode_swaps(&picks, n as u32);
        assert!(!swaps.is_empty(), "decode_swaps always yields at least one swap");
        let mut index = rebuild_weighted_index(&g, base.clone());
        rerank_adjacent::<Weighted>(&g, &mut index, &swaps);
        index.check_invariants().unwrap();
        let fresh = rebuild_weighted_index(
            &g,
            RankMap::from_rank_order(&swapped_order(&base, &swaps), base.strategy()),
        );
        prop_assert_eq!(&index, &fresh, "weighted re-rank differs from rebuild");
        verify_weighted_all_pairs(&g, &fresh).unwrap();
    }

}

/// Picks tier thresholds around a measured staleness value so `action`
/// lands exactly in the requested tier for that staleness.
fn policy_for(tier: MaintenanceAction, s: f64) -> MaintenancePolicy {
    let p = match tier {
        MaintenanceAction::LocalRerank => MaintenancePolicy::tiered(s / 2.0, s * 2.0, s * 4.0),
        MaintenanceAction::BatchedRerank => MaintenancePolicy::tiered(s / 4.0, s / 2.0, s * 2.0),
        MaintenanceAction::Rebuild => MaintenancePolicy::tiered(s / 8.0, s / 4.0, s / 2.0),
        MaintenanceAction::None => MaintenancePolicy::NEVER,
    };
    assert_eq!(p.action(1, s), tier, "threshold construction is off");
    p
}

/// The BA(80, 2) base and the churn batch every variant's tier test
/// replays.
fn churn_base() -> (UndirectedGraph, Vec<GraphUpdate>) {
    use dspc_graph::generators::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let g = barabasi_albert(80, 2, &mut rng);
    let batch = dspc_bench::workload::churn_stream(&g, 1, 10, &mut rng).remove(0);
    (g, batch)
}

/// The weight the weighted tier test gives edge `(a, b)`.
fn weight(a: VertexId, b: VertexId) -> u32 {
    1 + (a.0 + b.0) % 5
}

/// One facade per maintenance tier, all replaying the same churn batch:
/// each tier fires in its staleness band, leaves the expected counter
/// signature, keeps the index oracle-exact (`verify`), and a snapshot
/// published after the batch answers like the re-ranked live index.
fn tier_transitions<V: Variant>(g: &Graph<V>, batch: &[V::Update], verify: impl Fn(&Dynamic<V>)) {
    // Measure the staleness the policy will see at decision time.
    let mut probe = Dynamic::<V>::build(g.clone(), OrderingStrategy::Degree);
    probe.apply_batch(batch).unwrap();
    let s = probe.staleness();
    assert!(s > 0.0, "churn batch must perturb the degree order");

    for tier in [
        MaintenanceAction::LocalRerank,
        MaintenanceAction::BatchedRerank,
        MaintenanceAction::Rebuild,
    ] {
        let mut managed = Dynamic::<V>::build(g.clone(), OrderingStrategy::Degree);
        managed.set_policy(policy_for(tier, s));
        // Published before the batch, so the next snapshot shares every
        // row the batch and the tier's response left alone.
        managed.publish(1);
        managed.apply_batch(batch).unwrap();
        let snapshot = managed.publish(1);
        let n = managed.graph().capacity() as u32;
        for s in (0..n).map(VertexId) {
            for t in (0..n).map(VertexId) {
                let live: V::Answer = V::query(managed.index(), s, t).into();
                assert_eq!(snapshot.query(s, t), live, "{tier:?}");
            }
        }
        let rr = managed.rerank_totals();
        match tier {
            MaintenanceAction::LocalRerank => {
                assert_eq!(managed.rebuilds(), 0);
                assert!(rr.rerank_swaps > 0, "local tier must swap");
                assert!(
                    rr.rerank_swaps <= managed.policy().local_swap_budget,
                    "local tier must respect its budget"
                );
            }
            MaintenanceAction::BatchedRerank => {
                assert_eq!(managed.rebuilds(), 0);
                assert!(
                    rr.rerank_swaps > managed.policy().local_swap_budget,
                    "batched tier must out-swap the local budget"
                );
            }
            MaintenanceAction::Rebuild => {
                assert_eq!(managed.rebuilds(), 1, "cliff tier must rebuild");
                assert_eq!(rr.rerank_swaps, 0);
                assert!(
                    managed.staleness() < s,
                    "rebuild must restore a fresh degree order"
                );
            }
            MaintenanceAction::None => unreachable!(),
        }
        verify(&managed);
    }
}

#[test]
fn tier_transitions_fire_and_invalidate_the_snapshot() {
    let (g, batch) = churn_base();
    tier_transitions::<Undirected>(&g, &batch, |d| {
        verify_all_pairs(d.graph(), d.index()).unwrap();
    });
}

/// The same tiers on the directed facade, each edge an arc from the lower
/// id to the higher, so every vertex keeps its degree.
#[test]
fn directed_tier_transitions_fire_and_invalidate_the_snapshot() {
    let (g, batch) = churn_base();
    let arcs: Vec<(u32, u32)> = g
        .edges()
        .map(|(a, b)| (a.0.min(b.0), a.0.max(b.0)))
        .collect();
    let dg = DirectedGraph::from_arcs(g.capacity(), &arcs);
    let batch: Vec<ArcUpdate> = batch
        .iter()
        .map(|u| match *u {
            GraphUpdate::InsertEdge(a, b) => ArcUpdate::InsertArc(a.min(b), a.max(b)),
            GraphUpdate::DeleteEdge(a, b) => ArcUpdate::DeleteArc(a.min(b), a.max(b)),
            other => unreachable!("churn batches hold edge ops only: {other:?}"),
        })
        .collect();
    tier_transitions::<Directed>(&dg, &batch, |d| {
        verify_directed_all_pairs(d.graph(), d.index()).unwrap();
    });
}

/// The same tiers on the weighted facade, edge `(a, b)` weighing
/// `1 + (a + b) % 5`.
#[test]
fn weighted_tier_transitions_fire_and_invalidate_the_snapshot() {
    let (g, batch) = churn_base();
    let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0, weight(a, b))).collect();
    let wg = WeightedGraph::from_weighted_edges(g.capacity(), &edges);
    let batch: Vec<WeightedUpdate> = batch
        .iter()
        .map(|u| match *u {
            GraphUpdate::InsertEdge(a, b) => WeightedUpdate::InsertEdge(a, b, weight(a, b)),
            GraphUpdate::DeleteEdge(a, b) => WeightedUpdate::DeleteEdge(a, b),
            other => unreachable!("churn batches hold edge ops only: {other:?}"),
        })
        .collect();
    tier_transitions::<Weighted>(&wg, &batch, |d| {
        verify_weighted_all_pairs(d.graph(), d.index()).unwrap();
    });
}

/// The batched tier's replan loop converges: with enough budget one
/// response drives staleness down to the batched threshold even when
/// vertices are displaced by many rank positions.
#[test]
fn batched_tier_replans_until_threshold() {
    use dspc_graph::generators::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0xF00D);
    let g = barabasi_albert(100, 3, &mut rng);
    let batch: Vec<GraphUpdate> = dspc_bench::workload::churn_stream(&g, 1, 12, &mut rng).remove(0);
    let mut managed = DynamicSpc::build(g, OrderingStrategy::Degree);
    managed.set_policy(MaintenancePolicy {
        batched_swap_budget: 4096,
        ..MaintenancePolicy::tiered(0.0, 1e-9, 0.99)
    });
    managed.apply_batch(&batch).unwrap();
    assert_eq!(managed.rebuilds(), 0);
    assert!(
        managed.staleness() <= 1e-9,
        "replan loop must drive staleness to the batched threshold, got {}",
        managed.staleness()
    );
    // Fully de-staled order + exact repair ⇒ the index matches a fresh
    // degree-order rebuild's footprint (up to degree ties, which the two
    // orders may break differently).
    let fresh = DynamicSpc::build(managed.graph().clone(), OrderingStrategy::Degree);
    let (a, b) = (managed.index().num_entries(), fresh.index().num_entries());
    assert!(
        a.abs_diff(b) * 100 <= b,
        "re-ranked footprint {a} strays from rebuild-fresh {b}"
    );
    // And the planner has nothing left to do.
    assert!(managed.plan_rerank(16).is_empty());
}
