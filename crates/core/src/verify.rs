//! ESPC verification oracles.
//!
//! Three levels of checking, all against brute-force BFS ground truth:
//!
//! 1. [`verify_all_pairs`] — the gold standard: the index must answer every
//!    `(s, t)` query identically to counting BFS. This is sound *and*
//!    complete for query correctness (a stale label with a wrong count at
//!    the minimum distance would surface at the pair it covers).
//! 2. [`verify_sampled_pairs`] — the same check on a random pair sample,
//!    for graphs where all-pairs is too slow.
//! 3. [`espc_ground_truth`] — reconstructs the *minimal* ESPC index
//!    (exactly the labels `(h, sd(h,v), spc(ĥ,v))` with `spc(ĥ,v) > 0`)
//!    by restricted BFS; HP-SPC output must equal it label for label.
//!    Maintained indexes may legally differ (IncSPC keeps distance-stale
//!    labels, Lemma 3.1), so this check is for fresh builds only.

use crate::index::SpcIndex;
use crate::label::{LabelEntry, Rank, INF_DIST};
use crate::query::spc_query;
use dspc_graph::traversal::bfs::BfsCounter;
use dspc_graph::{UndirectedGraph, VertexId};
use rand::Rng;

/// A query mismatch found by verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Query source.
    pub s: VertexId,
    /// Query target.
    pub t: VertexId,
    /// `(dist, count)` from the index (`None` = disconnected).
    pub index_answer: Option<(u32, u64)>,
    /// `(dist, count)` from BFS ground truth.
    pub truth: Option<(u32, u64)>,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query ({:?}, {:?}): index says {:?}, BFS says {:?}",
            self.s, self.t, self.index_answer, self.truth
        )
    }
}

/// Checks every alive pair. Quadratic in `n` times BFS cost — intended for
/// the ≤ a-few-hundred-vertex graphs used in tests.
pub fn verify_all_pairs(g: &UndirectedGraph, index: &SpcIndex) -> Result<(), Mismatch> {
    let mut bfs = BfsCounter::new(g.capacity());
    let vertices: Vec<VertexId> = g.vertices().collect();
    for &s in &vertices {
        // One SSSP sweep per source instead of n point queries.
        let (dist, count) = {
            let (d, c) = bfs.sssp(g, s);
            (d.to_vec(), c.to_vec())
        };
        for &t in &vertices {
            let truth = if dist[t.index()] == u32::MAX {
                None
            } else {
                Some((dist[t.index()], count[t.index()]))
            };
            let got = spc_query(index, s, t).as_option();
            if got != truth {
                return Err(Mismatch {
                    s,
                    t,
                    index_answer: got,
                    truth,
                });
            }
        }
    }
    Ok(())
}

/// Checks `samples` random pairs (with replacement).
pub fn verify_sampled_pairs<R: Rng>(
    g: &UndirectedGraph,
    index: &SpcIndex,
    samples: usize,
    rng: &mut R,
) -> Result<(), Mismatch> {
    let vertices: Vec<VertexId> = g.vertices().collect();
    if vertices.is_empty() {
        return Ok(());
    }
    let mut bfs = BfsCounter::new(g.capacity());
    for _ in 0..samples {
        let s = vertices[rng.gen_range(0..vertices.len())];
        let t = vertices[rng.gen_range(0..vertices.len())];
        let truth = bfs.count(g, s, t);
        let got = spc_query(index, s, t).as_option();
        if got != truth {
            return Err(Mismatch {
                s,
                t,
                index_answer: got,
                truth,
            });
        }
    }
    Ok(())
}

/// Builds the minimal ESPC index by brute force: for each hub `h`, a BFS
/// restricted to `G_h` yields `spc(ĥ, v)`; the label exists iff that count
/// is positive *and* the restricted distance equals the true `sd(h, v)`.
pub fn espc_ground_truth(g: &UndirectedGraph, index_ranks: &crate::order::RankMap) -> SpcIndex {
    let cap = g.capacity();
    let mut truth = SpcIndex::self_labeled(index_ranks.clone());
    let mut restricted = BfsCounter::new(cap);
    let mut full = BfsCounter::new(cap);
    for r in 0..cap as u32 {
        let h = truth.vertex(Rank(r));
        if !g.contains_vertex(h) {
            continue;
        }
        let (true_dist, _) = {
            let (d, _) = full.sssp(g, h);
            (d.to_vec(), ())
        };
        let hr = truth.rank(h);
        let ranks = truth.ranks().clone();
        let (rd, rc) = restricted.sssp_restricted(g, h, |w| ranks.rank(VertexId(w)) > hr);
        let entries: Vec<(u32, u32, u64)> = (0..cap as u32)
            .filter(|&v| v != h.0)
            .filter(|&v| rd[v as usize] != INF_DIST && rd[v as usize] == true_dist[v as usize])
            .map(|v| (v, rd[v as usize], rc[v as usize]))
            .collect();
        for (v, d, c) in entries {
            truth
                .label_set_mut(VertexId(v))
                .upsert(LabelEntry::new(hr, d, c));
        }
    }
    truth
}

/// Canonical/non-canonical label census (Example 2.2 terminology):
/// a label `(h, d, c) ∈ L(v)` is canonical when `c = spc(h, v)` — the hub
/// lies on *every* shortest path's top position — and non-canonical when
/// `c < spc(h, v)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelCensus {
    /// Labels with the full path count.
    pub canonical: usize,
    /// Labels covering only a strict subset of shortest paths.
    pub non_canonical: usize,
    /// Distance-stale labels (dist > true sd) retained by IncSPC.
    pub stale: usize,
}

/// Classifies every label of `index` against BFS ground truth.
pub fn label_census(g: &UndirectedGraph, index: &SpcIndex) -> LabelCensus {
    let mut bfs = BfsCounter::new(g.capacity());
    let mut census = LabelCensus::default();
    for v in g.vertices() {
        for e in index.label_set(v).iter() {
            let h = index.vertex(e.hub);
            if h == v {
                census.canonical += 1;
                continue;
            }
            match bfs.count(g, h, v) {
                Some((d, c)) if d == e.dist => {
                    if e.count == c {
                        census.canonical += 1;
                    } else {
                        census.non_canonical += 1;
                    }
                }
                _ => census.stale += 1,
            }
        }
    }
    census
}

/// All-pairs oracle check for the directed extension: the index must agree
/// with directed counting BFS on every ordered pair.
pub fn verify_directed_all_pairs(
    g: &dspc_graph::DirectedGraph,
    index: &crate::directed::DirectedSpcIndex,
) -> Result<(), Mismatch> {
    let mut bfs = dspc_graph::traversal::dbfs::DirectedBfsCounter::new(g.capacity());
    let vertices: Vec<VertexId> = g.vertices().collect();
    for &s in &vertices {
        for &t in &vertices {
            let truth = bfs.count(g, s, t);
            let got = crate::directed::directed_spc_query(index, s, t).as_option();
            if got != truth {
                return Err(Mismatch {
                    s,
                    t,
                    index_answer: got,
                    truth,
                });
            }
        }
    }
    Ok(())
}

/// All-pairs oracle check for the weighted extension against counting
/// Dijkstra. Distances are weighted (`u64`); the mismatch report reuses the
/// unweighted shape with distances clamped into `u32` for display.
pub fn verify_weighted_all_pairs(
    g: &dspc_graph::WeightedGraph,
    index: &crate::weighted::WeightedSpcIndex,
) -> Result<(), String> {
    let mut dj = dspc_graph::traversal::dijkstra::DijkstraCounter::new(g.capacity());
    let vertices: Vec<VertexId> = g.vertices().collect();
    for &s in &vertices {
        for &t in &vertices {
            let truth = dj.count(g, s, t);
            let got = crate::weighted::weighted_spc_query(index, s, t).as_option();
            if got != truth {
                return Err(format!(
                    "weighted query ({s:?}, {t:?}): index says {got:?}, Dijkstra says {truth:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::order::{OrderingStrategy, RankMap};
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_build_passes_all_pairs() {
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Identity);
        verify_all_pairs(&g, &index).unwrap();
    }

    #[test]
    fn corrupted_index_is_caught() {
        let g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        // Corrupt one count.
        let r0 = index.rank(VertexId(0));
        let e = index.label_set(VertexId(9)).get(r0).unwrap();
        index
            .label_set_mut(VertexId(9))
            .upsert(LabelEntry::new(r0, e.dist, e.count + 1));
        let err = verify_all_pairs(&g, &index).unwrap_err();
        assert_eq!(err.t.0.max(err.s.0), 9);
    }

    #[test]
    fn underestimating_distance_is_caught() {
        let g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let r0 = index.rank(VertexId(0));
        index
            .label_set_mut(VertexId(9))
            .upsert(LabelEntry::new(r0, 1, 1));
        assert!(verify_all_pairs(&g, &index).is_err());
    }

    #[test]
    fn hp_spc_equals_minimal_ground_truth() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let g = erdos_renyi_gnm(40, 90, &mut rng);
            let ranks = RankMap::build(&g, OrderingStrategy::Degree);
            let built = crate::build::rebuild_index(&g, ranks.clone());
            let truth = espc_ground_truth(&g, &ranks);
            for v in g.vertices() {
                assert_eq!(built.label_set(v), truth.label_set(v), "L({v:?})");
            }
        }
    }

    #[test]
    fn census_matches_example_2_2() {
        // Table 2: (v2, 2, 1) ∈ L(v8) is the non-canonical example; the
        // graph has exactly two non-canonical labels ((v2,2,1) ∈ L(v8) and
        // the analogous one in L(v7) if any).
        let g = figure2_g();
        let index = build_index(&g, OrderingStrategy::Identity);
        let census = label_census(&g, &index);
        assert_eq!(census.stale, 0);
        assert!(census.non_canonical >= 1);
        // Spot-check the exact label from Example 2.2.
        let r2 = index.rank(VertexId(2));
        let e = index.label_set(VertexId(8)).get(r2).unwrap();
        assert_eq!((e.dist, e.count), (2, 1));
        let mut bfs = dspc_graph::traversal::bfs::BfsCounter::new(g.capacity());
        assert_eq!(bfs.count(&g, VertexId(2), VertexId(8)), Some((2, 2)));
    }

    #[test]
    fn sampled_verification_smoke() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_gnm(50, 120, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        verify_sampled_pairs(&g, &index, 500, &mut rng).unwrap();
    }
}
