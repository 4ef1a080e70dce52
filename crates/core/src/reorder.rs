//! Bounded local re-ranking: swap adjacent ranks and repair only the two
//! affected hubs' label state — the incremental answer to ordering
//! staleness that §6 of the paper leaves open (its suggested mitigation is
//! a full lazy rebuild; [`crate::policy`] now escalates through re-ranks
//! first).
//!
//! ## Why a swap repair is local
//!
//! HP-SPC writes the `(h, ·, ·)` entries of hub `h` only during `h`'s own
//! sweep, and every prune decision of a later hub consults the *set* of
//! hubs ranked above it — a set that is unchanged when two adjacent ranks
//! `r`, `r + 1` trade occupants. So swapping the pair invalidates exactly
//! the entries at the two ranks: remap the two rank positions in O(1)
//! ([`crate::index::LabelIndex::swap_adjacent_ranks`]), purge the two ranks'
//! entries everywhere, and re-run the two hubs' pruned counting sweeps
//! ([`crate::engine::UpdateEngine::inc_pass`] seeded at each hub) in the
//! new order. The result is **bit-identical** to
//! [`crate::build::rebuild_index`] at the swapped order (pinned by
//! `tests/reorder_equivalence.rs`).
//!
//! ## Batched swaps
//!
//! A *sorted, non-overlapping* run of swaps (no two positions within 2 of
//! each other — what [`crate::order::plan_adjacent_swaps`] emits) repairs
//! in one pass ([`crate::engine::Pipeline::rerank`]): swap every pair,
//! purge all their ranks from every label family in one scan, then re-push
//! the pairs in ascending rank order, promoted hub before demoted, `L_in`
//! before `L_out`. When a pair's sweeps run, every pair ranked above it is
//! already repaired and every pair below it is absent, so each sweep reads
//! exactly the labels a fresh build at the swapped order would.

use crate::engine::{MaintenanceCounters, Pipeline, Variant};
use crate::index::LabelIndex;
use crate::label::Rank;
use dspc_graph::Graph;

/// Applies a sorted, non-overlapping run of adjacent swaps to `index` and
/// repairs it so the result is bit-identical to a fresh build at the
/// swapped order, for any variant: `rerank_adjacent::<Undirected>`,
/// `::<Directed>` (both label families, four sweeps per swap) or
/// `::<Weighted>`. [`crate::DynamicSpc::rerank_adjacent`] runs the same
/// repair on the facade's own scratch.
pub fn rerank_adjacent<V: Variant>(
    g: &Graph<V>,
    index: &mut LabelIndex<V>,
    swaps: &[Rank],
) -> MaintenanceCounters {
    Pipeline::<V>::new(g.capacity()).rerank(g, index, swaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::rebuild_index;
    use crate::directed::{build_directed_index, rebuild_directed_index};
    use crate::engine::{Directed, Undirected, Weighted};
    use crate::index::SpcIndex;
    use crate::order::{plan_adjacent_swaps, OrderingStrategy, RankMap};
    use crate::weighted::{build_weighted_index, rebuild_weighted_index};
    use dspc_graph::generators::classic::{grid_graph, star_graph};
    use dspc_graph::generators::random::{
        barabasi_albert, erdos_renyi_gnm, random_orientation, random_weights,
    };
    use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, WeightedGraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn swapped_ranks(ranks: &RankMap, swaps: &[Rank]) -> RankMap {
        let mut order: Vec<u32> = (0..ranks.len() as u32)
            .map(|r| ranks.vertex(Rank(r)).0)
            .collect();
        for &r in swaps {
            order.swap(r.index(), r.index() + 1);
        }
        RankMap::from_rank_order(&order, ranks.strategy())
    }

    fn assert_rebuild_identical(
        g: &UndirectedGraph,
        index: &SpcIndex,
        base: &RankMap,
        swaps: &[Rank],
    ) {
        let fresh = rebuild_index(g, swapped_ranks(base, swaps));
        assert_eq!(index, &fresh, "re-ranked index differs from rebuild");
    }

    #[test]
    fn single_swap_matches_rebuild_on_classics() {
        for g in [star_graph(8), grid_graph(4, 4)] {
            let base = RankMap::build(&g, OrderingStrategy::Identity);
            for r in 0..g.capacity() - 1 {
                let mut index = rebuild_index(&g, base.clone());
                let c = rerank_adjacent::<Undirected>(&g, &mut index, &[Rank(r as u32)]);
                assert_eq!(c.rerank_swaps, 1);
                assert_eq!(c.rerank_sweeps, 2);
                index.check_invariants().unwrap();
                assert_rebuild_identical(&g, &index, &base, &[Rank(r as u32)]);
            }
        }
    }

    #[test]
    fn random_graph_swaps_match_rebuild() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let n = rng.gen_range(12..40);
            let m = rng.gen_range(n..3 * n);
            let g = erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), &mut rng);
            let base = RankMap::build(&g, OrderingStrategy::Degree);
            let mut index = rebuild_index(&g, base.clone());
            let r = Rank(rng.gen_range(0..n as u32 - 1));
            rerank_adjacent::<Undirected>(&g, &mut index, &[r]);
            index.check_invariants().unwrap();
            assert_rebuild_identical(&g, &index, &base, &[r]);
        }
    }

    #[test]
    fn batched_swaps_match_rebuild_at_every_thread_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(60, 3, &mut rng);
        let base = RankMap::build(&g, OrderingStrategy::Random(5));
        let swaps = plan_adjacent_swaps(&base, |v| g.degree(v), 8);
        assert!(swaps.len() > 1, "expected multiple inversions to plan");
        let mut index = rebuild_index(&g, base.clone());
        let c = rerank_adjacent::<Undirected>(&g, &mut index, &swaps);
        assert_eq!(c.rerank_swaps, swaps.len());
        index.check_invariants().unwrap();
        assert_rebuild_identical(&g, &index, &base, &swaps);
    }

    #[test]
    fn swap_with_deleted_vertex_keeps_bare_self_label() {
        let mut g = star_graph(6);
        g.delete_vertex(VertexId(3)).unwrap();
        let base = RankMap::build(&g, OrderingStrategy::Identity);
        for r in 0..5u32 {
            let mut index = rebuild_index(&g, base.clone());
            rerank_adjacent::<Undirected>(&g, &mut index, &[Rank(r)]);
            index.check_invariants().unwrap();
            assert_rebuild_identical(&g, &index, &base, &[Rank(r)]);
        }
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_swaps_rejected() {
        let g = star_graph(5);
        let base = RankMap::build(&g, OrderingStrategy::Degree);
        let mut index = rebuild_index(&g, base);
        rerank_adjacent::<Undirected>(&g, &mut index, &[Rank(1), Rank(2)]);
    }

    #[test]
    fn directed_swaps_match_rebuild() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..6 {
            let base_g = erdos_renyi_gnm(25, 60, &mut rng);
            let g = random_orientation(&base_g, 0.3, &mut rng);
            let n = g.capacity() as u32;
            let base = build_directed_index(&g, OrderingStrategy::Degree)
                .ranks()
                .clone();
            let mut index = rebuild_directed_index(&g, base.clone());
            let swaps = [Rank(rng.gen_range(0..n / 2)), Rank(n / 2 + 1)];
            let c = rerank_adjacent::<Directed>(&g, &mut index, &swaps);
            assert_eq!(c.rerank_swaps, 2);
            assert_eq!(c.rerank_sweeps, 8);
            index.check_invariants().unwrap();
            let fresh = rebuild_directed_index(&g, swapped_ranks(&base, &swaps));
            assert_eq!(index, fresh, "directed re-rank differs from rebuild");
        }
    }

    #[test]
    fn weighted_swaps_match_rebuild() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..6 {
            let base_g = erdos_renyi_gnm(25, 60, &mut rng);
            let g = random_weights(&base_g, 6, &mut rng);
            let n = g.capacity() as u32;
            let base = build_weighted_index(&g, OrderingStrategy::Degree)
                .ranks()
                .clone();
            let mut index = rebuild_weighted_index(&g, base.clone());
            let swaps = [Rank(rng.gen_range(0..n / 2)), Rank(n / 2 + 1)];
            let c = rerank_adjacent::<Weighted>(&g, &mut index, &swaps);
            assert_eq!(c.rerank_swaps, 2);
            assert_eq!(c.rerank_sweeps, 4);
            index.check_invariants().unwrap();
            let fresh = rebuild_weighted_index(&g, swapped_ranks(&base, &swaps));
            assert_eq!(index, fresh, "weighted re-rank differs from rebuild");
        }
    }

    /// The ranks `r` whose swap pair `(r, r + 1)` includes the vertex at
    /// rank `dead`.
    fn pairs_around(dead: Rank, n: usize) -> impl Iterator<Item = Rank> {
        let lo = dead.0.saturating_sub(1);
        (lo..=dead.0)
            .filter(move |&r| (r as usize) + 1 < n)
            .map(Rank)
    }

    #[test]
    fn directed_swap_with_deleted_vertex_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(31);
        let base_g = erdos_renyi_gnm(20, 50, &mut rng);
        let mut g: DirectedGraph = random_orientation(&base_g, 0.3, &mut rng);
        g.delete_vertex(VertexId(4)).unwrap();
        for strategy in [OrderingStrategy::Degree, OrderingStrategy::Identity] {
            let base = build_directed_index(&g, strategy).ranks().clone();
            for r in pairs_around(base.rank(VertexId(4)), base.len()) {
                let mut index = rebuild_directed_index(&g, base.clone());
                rerank_adjacent::<Directed>(&g, &mut index, &[r]);
                index.check_invariants().unwrap();
                let fresh = rebuild_directed_index(&g, swapped_ranks(&base, &[r]));
                assert_eq!(index, fresh, "swap at {r:?} differs from rebuild");
            }
        }
    }

    #[test]
    fn weighted_swap_with_deleted_vertex_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(32);
        let base_g = erdos_renyi_gnm(20, 50, &mut rng);
        let mut g: WeightedGraph = random_weights(&base_g, 5, &mut rng);
        g.delete_vertex(VertexId(4)).unwrap();
        for strategy in [OrderingStrategy::Degree, OrderingStrategy::Identity] {
            let base = build_weighted_index(&g, strategy).ranks().clone();
            for r in pairs_around(base.rank(VertexId(4)), base.len()) {
                let mut index = rebuild_weighted_index(&g, base.clone());
                rerank_adjacent::<Weighted>(&g, &mut index, &[r]);
                index.check_invariants().unwrap();
                let fresh = rebuild_weighted_index(&g, swapped_ranks(&base, &[r]));
                assert_eq!(index, fresh, "swap at {r:?} differs from rebuild");
            }
        }
    }
}
