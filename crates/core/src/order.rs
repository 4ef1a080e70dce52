//! Vertex orderings and the rank map.
//!
//! §2.2: "vertices with larger degrees are considered to lie on more
//! shortest paths and thus are ranked higher so that the later searches in
//! HP-SPC can be pruned earlier. The degree-based ordering … is adopted in
//! our work." Identity and random orderings are provided for the ablation
//! benchmark (they inflate the index, demonstrating why the paper's choice
//! matters).
//!
//! A vertex added after construction receives the next (lowest) rank, and
//! ranks otherwise move only by adjacent swaps ([`RankMap::swap_adjacent`],
//! repaired by [`crate::reorder`]). The paper's §6 discusses why
//! re-ranking in place is an open problem; [`crate::policy`] implements
//! the lazy-rebuild mitigation it suggests, and the bounded re-ranks.
//!
//! ## Measuring order decay
//!
//! Because ranks are frozen at build time, churn makes a degree order
//! drift away from the degrees it was computed from, and a stale order
//! inflates every later label set (low-degree "hubs" prune nothing).
//! [`degree_order_staleness`] quantifies the drift as the fraction of
//! *adjacent rank pairs* that are inverted with respect to current
//! degrees — `0.0` for a fresh degree order, approaching the ~`0.5` of a
//! random permutation as the order decays. It reads degrees through a
//! function, as [`RankMap::from_degrees`] does, so it measures every graph
//! variant; [`crate::dynamic::Dynamic::staleness`] passes the variant's
//! degree, and the maintenance policy decides from that value when a
//! re-rank or a lazy rebuild pays for itself:
//!
//! ```
//! use dspc::order::{degree_order_staleness, OrderingStrategy, RankMap};
//! use dspc_graph::generators::classic::star_graph;
//! use dspc_graph::VertexId;
//!
//! let mut g = star_graph(5); // vertex 0 is the hub
//! let ranks = RankMap::build(&g, OrderingStrategy::Degree);
//! assert_eq!(degree_order_staleness(&ranks, |v| g.degree(v)), 0.0);
//!
//! // Rewire until leaf 1 out-degrees the old hub: the frozen order decays.
//! for v in 2..5 {
//!     g.insert_edge(VertexId(1), VertexId(v)).unwrap();
//! }
//! g.delete_edge(VertexId(0), VertexId(2)).unwrap();
//! g.delete_edge(VertexId(0), VertexId(3)).unwrap();
//! assert!(degree_order_staleness(&ranks, |v| g.degree(v)) > 0.0);
//! ```

use crate::label::Rank;
use dspc_graph::{UndirectedGraph, VertexId};
use serde::{Deserialize, Serialize};

/// Strategy for computing the initial total order over vertices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderingStrategy {
    /// Descending degree, ties broken by ascending vertex id — the paper's
    /// choice (and \[30\]'s).
    #[default]
    Degree,
    /// Ascending vertex id; baseline for the ordering ablation.
    Identity,
    /// Pseudo-random permutation from the given seed; worst-case baseline
    /// for the ordering ablation.
    Random(u64),
}

/// Bijection between vertex ids and rank positions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankMap {
    /// `rank_of[v]` = rank position of vertex id `v` (0 = highest).
    rank_of: Vec<u32>,
    /// `vertex_at[r]` = vertex id holding rank `r`.
    vertex_at: Vec<u32>,
    /// Strategy that produced the base order (before appends).
    strategy: OrderingStrategy,
}

impl RankMap {
    /// Computes the order of `g`'s id space under `strategy`.
    ///
    /// Deleted vertices still receive ranks (at the tail for `Degree`,
    /// since their degree is 0) — harmless, since nothing references them.
    pub fn build(g: &UndirectedGraph, strategy: OrderingStrategy) -> Self {
        Self::from_degrees(g.capacity(), strategy, |v| g.degree(v))
    }

    /// Computes the order of an id space of `n` vertices under `strategy`,
    /// with `degree` ranking [`OrderingStrategy::Degree`] — the structural
    /// degree for undirected and weighted graphs, in + out degree for
    /// directed ones.
    pub fn from_degrees(
        n: usize,
        strategy: OrderingStrategy,
        degree: impl Fn(VertexId) -> usize,
    ) -> Self {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        match strategy {
            OrderingStrategy::Degree => {
                ids.sort_by_key(|&v| (std::cmp::Reverse(degree(VertexId(v))), v));
            }
            OrderingStrategy::Identity => {}
            OrderingStrategy::Random(seed) => {
                // SplitMix64-keyed sort: deterministic, dependency-free.
                let key = |v: u32| -> u64 {
                    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15).wrapping_add(v as u64);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    z ^ (z >> 31)
                };
                ids.sort_by_key(|&v| (key(v), v));
            }
        }
        Self::from_rank_order(&ids, strategy)
    }

    /// Builds a map from an explicit rank order (`order[r]` = vertex id at
    /// rank `r`); must be a permutation of `0..order.len()`.
    pub fn from_rank_order(order: &[u32], strategy: OrderingStrategy) -> Self {
        let n = order.len();
        let mut rank_of = vec![u32::MAX; n];
        for (r, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < n && rank_of[v as usize] == u32::MAX,
                "not a permutation"
            );
            rank_of[v as usize] = r as u32;
        }
        RankMap {
            rank_of,
            vertex_at: order.to_vec(),
            strategy,
        }
    }

    /// Rank of vertex `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        Rank(self.rank_of[v.index()])
    }

    /// Vertex holding rank `r`.
    #[inline]
    pub fn vertex(&self, r: Rank) -> VertexId {
        VertexId(self.vertex_at[r.index()])
    }

    /// Size of the rank space (== graph id capacity at last sync).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertex_at.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertex_at.is_empty()
    }

    /// Strategy used for the base order.
    #[inline]
    pub fn strategy(&self) -> OrderingStrategy {
        self.strategy
    }

    /// Appends a fresh vertex at the lowest rank; returns its rank.
    ///
    /// `v` must be the next unused id (graphs allocate ids densely).
    pub fn append_vertex(&mut self, v: VertexId) -> Rank {
        assert_eq!(
            v.index(),
            self.rank_of.len(),
            "append_vertex must receive the next dense id"
        );
        let r = Rank(self.vertex_at.len() as u32);
        self.rank_of.push(r.0);
        self.vertex_at.push(v.0);
        r
    }

    /// Swaps the vertices at ranks `r` and `r + 1` — the primitive
    /// [`crate::reorder`] repairs around. The map stays a bijection; only
    /// the two adjacent positions change.
    pub fn swap_adjacent(&mut self, r: Rank) {
        let hi = r.index();
        let lo = hi + 1;
        assert!(lo < self.vertex_at.len(), "swap_adjacent out of range");
        self.vertex_at.swap(hi, lo);
        self.rank_of[self.vertex_at[hi] as usize] = hi as u32;
        self.rank_of[self.vertex_at[lo] as usize] = lo as u32;
    }

    /// Validates the bijection.
    pub fn validate(&self) -> bool {
        self.rank_of.len() == self.vertex_at.len()
            && self
                .vertex_at
                .iter()
                .enumerate()
                .all(|(r, &v)| self.rank_of[v as usize] == r as u32)
    }
}

/// Measures how stale a degree-based order has become after updates:
/// the fraction of adjacent rank pairs that are inverted w.r.t. the
/// current `degree` of their vertices, which must answer for every vertex
/// the map ranks. One pass over every pair; drives
/// [`crate::policy::MaintenancePolicy`].
pub fn degree_order_staleness(ranks: &RankMap, degree: impl Fn(VertexId) -> usize) -> f64 {
    let pairs = ranks.len().saturating_sub(1);
    if pairs == 0 {
        return 0.0;
    }
    inverted_pairs(ranks, degree).count() as f64 / pairs as f64
}

/// Enumerates the adjacent rank pairs currently inverted w.r.t. degree:
/// every `r` with `degree(vertex(r)) < degree(vertex(r + 1))`, together
/// with the degree gap. These are exactly the pairs
/// [`degree_order_staleness`] counts, and the candidate set
/// [`plan_adjacent_swaps`] chooses from.
pub fn adjacent_inversions(
    ranks: &RankMap,
    degree: impl Fn(VertexId) -> usize,
) -> Vec<(Rank, usize)> {
    inverted_pairs(ranks, degree).collect()
}

/// The scan behind [`degree_order_staleness`] and [`adjacent_inversions`].
fn inverted_pairs<'a>(
    ranks: &'a RankMap,
    degree: impl Fn(VertexId) -> usize + 'a,
) -> impl Iterator<Item = (Rank, usize)> + 'a {
    ranks
        .vertex_at
        .windows(2)
        .zip(0u32..)
        .filter_map(move |(pair, r)| {
            let (du, dv) = (degree(VertexId(pair[0])), degree(VertexId(pair[1])));
            (du < dv).then(|| (Rank(r), dv - du))
        })
}

/// Picks up to `budget` **non-overlapping** adjacent swaps, greedily by
/// largest degree gap (ties to the higher rank position). Non-overlap —
/// no two chosen positions differ by less than 2 — makes the swaps
/// mutually independent: each touches only its own pair of ranks, so a
/// batched repair can run them under one agenda. Returned sorted by rank.
pub fn plan_adjacent_swaps(
    ranks: &RankMap,
    degree: impl Fn(VertexId) -> usize,
    budget: usize,
) -> Vec<Rank> {
    if budget == 0 {
        return Vec::new();
    }
    let mut candidates = adjacent_inversions(ranks, degree);
    candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut chosen: Vec<Rank> = Vec::new();
    for (r, _) in candidates {
        if chosen.len() >= budget {
            break;
        }
        if chosen.iter().all(|&c| c.0.abs_diff(r.0) >= 2) {
            chosen.push(r);
        }
    }
    chosen.sort();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspc_graph::generators::classic::star_graph;
    use dspc_graph::generators::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degree_order_puts_hub_first() {
        let g = star_graph(6);
        let rm = RankMap::build(&g, OrderingStrategy::Degree);
        assert_eq!(rm.rank(VertexId(0)), Rank(0));
        assert_eq!(rm.vertex(Rank(0)), VertexId(0));
        assert!(rm.validate());
        // Leaves tie-break by id.
        assert_eq!(rm.vertex(Rank(1)), VertexId(1));
        assert_eq!(rm.vertex(Rank(5)), VertexId(5));
    }

    #[test]
    fn identity_order() {
        let g = star_graph(4);
        let rm = RankMap::build(&g, OrderingStrategy::Identity);
        for v in 0..4 {
            assert_eq!(rm.rank(VertexId(v)), Rank(v));
        }
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let g = barabasi_albert(50, 2, &mut StdRng::seed_from_u64(1));
        let a = RankMap::build(&g, OrderingStrategy::Random(7));
        let b = RankMap::build(&g, OrderingStrategy::Random(7));
        let c = RankMap::build(&g, OrderingStrategy::Random(8));
        assert_eq!(a, b);
        assert_ne!(a.vertex_at, c.vertex_at);
        assert!(a.validate() && c.validate());
    }

    #[test]
    fn append_assigns_lowest_rank() {
        let mut g = star_graph(3);
        let mut rm = RankMap::build(&g, OrderingStrategy::Degree);
        let v = g.add_vertex();
        let r = rm.append_vertex(v);
        assert_eq!(r, Rank(3));
        assert_eq!(rm.vertex(r), v);
        assert!(rm.validate());
    }

    #[test]
    #[should_panic(expected = "next dense id")]
    fn append_rejects_gaps() {
        let g = star_graph(3);
        let mut rm = RankMap::build(&g, OrderingStrategy::Degree);
        rm.append_vertex(VertexId(10));
    }

    #[test]
    fn staleness_zero_on_fresh_degree_order() {
        let g = barabasi_albert(80, 2, &mut StdRng::seed_from_u64(3));
        let rm = RankMap::build(&g, OrderingStrategy::Degree);
        assert_eq!(degree_order_staleness(&rm, |v| g.degree(v)), 0.0);
    }

    #[test]
    fn staleness_rises_after_updates() {
        let mut g = star_graph(8);
        let rm = RankMap::build(&g, OrderingStrategy::Degree);
        // Make a leaf the new hub.
        for v in 2..8 {
            g.insert_edge(VertexId(1), VertexId(v)).unwrap();
        }
        g.delete_edge(VertexId(0), VertexId(2)).unwrap();
        g.delete_edge(VertexId(0), VertexId(3)).unwrap();
        assert!(degree_order_staleness(&rm, |v| g.degree(v)) > 0.0);
    }
}
