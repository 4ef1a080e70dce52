//! Workload generation following §4.1's protocol: random edge insertions,
//! random edge deletions, random query pairs, and the degree-skewed edge
//! pools of §4.5.

use dspc_graph::{UndirectedGraph, VertexId};
use rand::Rng;

/// Samples `k` distinct non-edges (candidate insertions) uniformly.
pub fn sample_insertions<R: Rng>(
    g: &UndirectedGraph,
    k: usize,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    let n = g.capacity() as u32;
    assert!(n >= 2, "graph too small to sample insertions");
    let mut chosen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(k);
    let mut guard = 0usize;
    while out.len() < k {
        guard += 1;
        assert!(
            guard < 1000 * k.max(16),
            "could not find enough non-edges (graph too dense?)"
        );
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (va, vb) = (VertexId(a), VertexId(b));
        if !g.contains_vertex(va) || !g.contains_vertex(vb) || g.has_edge(va, vb) {
            continue;
        }
        if chosen.insert((a, b)) {
            out.push((va, vb));
        }
    }
    out
}

/// Samples `k` distinct existing edges (candidate deletions) uniformly.
pub fn sample_deletions<R: Rng>(
    g: &UndirectedGraph,
    k: usize,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    assert!(edges.len() >= k, "not enough edges to delete");
    let mut picked = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let i = rng.gen_range(0..edges.len());
        if picked.insert(i) {
            out.push(edges[i]);
        }
    }
    out
}

/// Samples `k` random query pairs (with replacement, endpoints may repeat —
/// the paper's 10,000 random pairs).
pub fn sample_query_pairs<R: Rng>(
    g: &UndirectedGraph,
    k: usize,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    let vertices: Vec<VertexId> = g.vertices().collect();
    assert!(!vertices.is_empty());
    (0..k)
        .map(|_| {
            (
                vertices[rng.gen_range(0..vertices.len())],
                vertices[rng.gen_range(0..vertices.len())],
            )
        })
        .collect()
}

/// An edge with its degree product (the paper's §4.5 "degree of an edge":
/// `deg(u) · deg(v)`).
#[derive(Clone, Copy, Debug)]
pub struct SkewedEdge {
    /// Edge endpoints.
    pub edge: (VertexId, VertexId),
    /// `deg(u) * deg(v)` at sampling time.
    pub degree_product: u64,
}

/// Samples `k` existing edges and buckets them by degree product into
/// `buckets` quantile groups (Figure 11's x-axis). Returns edges sorted by
/// degree product along with their bucket index.
pub fn sample_skewed_deletions<R: Rng>(
    g: &UndirectedGraph,
    k: usize,
    buckets: usize,
    rng: &mut R,
) -> Vec<(SkewedEdge, usize)> {
    let mut picked = sample_deletions(g, k, rng)
        .into_iter()
        .map(|(u, v)| SkewedEdge {
            edge: (u, v),
            degree_product: g.degree(u) as u64 * g.degree(v) as u64,
        })
        .collect::<Vec<_>>();
    picked.sort_by_key(|e| e.degree_product);
    let per = picked.len().div_ceil(buckets.max(1));
    picked
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e, i / per.max(1)))
        .collect()
}

/// Skewed *insertion* pool: samples `k` non-edges and buckets by endpoint
/// degree product, mirroring [`sample_skewed_deletions`].
pub fn sample_skewed_insertions<R: Rng>(
    g: &UndirectedGraph,
    k: usize,
    buckets: usize,
    rng: &mut R,
) -> Vec<(SkewedEdge, usize)> {
    let mut picked = sample_insertions(g, k, rng)
        .into_iter()
        .map(|(u, v)| SkewedEdge {
            edge: (u, v),
            degree_product: g.degree(u) as u64 * g.degree(v) as u64,
        })
        .collect::<Vec<_>>();
    picked.sort_by_key(|e| e.degree_product);
    let per = picked.len().div_ceil(buckets.max(1));
    picked
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e, i / per.max(1)))
        .collect()
}

/// The §4.4 streaming mix: `ins` insertions and `del` deletions shuffled
/// into one update sequence (deletions drawn from the original graph, so
/// the stream is applicable in any order — inserted edges are fresh
/// non-edges, deleted edges are original edges, and the pools are
/// disjoint).
pub fn hybrid_stream<R: Rng>(
    g: &UndirectedGraph,
    ins: usize,
    del: usize,
    rng: &mut R,
) -> Vec<dspc::dynamic::GraphUpdate> {
    use dspc::dynamic::GraphUpdate;
    let insertions = sample_insertions(g, ins, rng);
    let deletions = sample_deletions(g, del, rng);
    let mut stream: Vec<GraphUpdate> = insertions
        .into_iter()
        .map(|(a, b)| GraphUpdate::InsertEdge(a, b))
        .chain(
            deletions
                .into_iter()
                .map(|(a, b)| GraphUpdate::DeleteEdge(a, b)),
        )
        .collect();
    // Fisher-Yates shuffle.
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.gen_range(0..=i));
    }
    stream
}

/// A churn stream: `epochs` update batches that steadily migrate edges
/// away from the graph's initially high-degree vertices toward its
/// initially low-degree ones, so the build-time degree order goes stale
/// the way §6 worries about — yesterday's hubs decay while fringe
/// vertices grow into hubs the old order ranks near the bottom.
///
/// Each batch performs `per_epoch` *moves*; a move deletes one edge
/// incident to a declining vertex (initial top-third by degree) and
/// inserts one fresh edge between two rising vertices (initial
/// bottom-third). Batches are generated against a live copy of the graph,
/// so each one is valid when applied in sequence after its predecessors.
pub fn churn_stream<R: Rng>(
    g: &UndirectedGraph,
    epochs: usize,
    per_epoch: usize,
    rng: &mut R,
) -> Vec<Vec<dspc::dynamic::GraphUpdate>> {
    use dspc::dynamic::GraphUpdate;
    let mut live = g.clone();
    let mut by_degree: Vec<VertexId> = live.vertices().collect();
    by_degree.sort_by_key(|&v| (live.degree(v), v.0));
    let third = by_degree.len() / 3;
    let rising: Vec<VertexId> = by_degree[..third].to_vec();
    let declining: Vec<VertexId> = by_degree[by_degree.len() - third..].to_vec();
    let mut out = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut batch = Vec::with_capacity(2 * per_epoch);
        for _ in 0..per_epoch {
            // Delete an edge off a declining vertex that still has one.
            let mut guard = 0;
            loop {
                guard += 1;
                if guard > 10_000 {
                    break;
                }
                let d = declining[rng.gen_range(0..declining.len())];
                if live.degree(d) == 0 {
                    continue;
                }
                let nbrs = live.neighbors(d);
                let u = VertexId(nbrs[rng.gen_range(0..nbrs.len())]);
                live.delete_edge(d, u).expect("live edge");
                batch.push(GraphUpdate::DeleteEdge(d, u));
                break;
            }
            // Insert a fresh edge between two rising vertices.
            let mut guard = 0;
            loop {
                guard += 1;
                if guard > 10_000 {
                    break;
                }
                let a = rising[rng.gen_range(0..rising.len())];
                let b = rising[rng.gen_range(0..rising.len())];
                if a == b || live.has_edge(a, b) {
                    continue;
                }
                live.insert_edge(a, b).expect("fresh non-edge");
                batch.push(GraphUpdate::InsertEdge(a, b));
                break;
            }
        }
        out.push(batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspc_graph::generators::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> UndirectedGraph {
        barabasi_albert(200, 3, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn insertions_are_fresh_non_edges() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(1);
        let ins = sample_insertions(&g, 50, &mut rng);
        assert_eq!(ins.len(), 50);
        for &(a, b) in &ins {
            assert!(!g.has_edge(a, b));
            assert_ne!(a, b);
        }
        let set: std::collections::HashSet<_> = ins.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn deletions_are_distinct_existing_edges() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(2);
        let del = sample_deletions(&g, 30, &mut rng);
        assert_eq!(del.len(), 30);
        for &(a, b) in &del {
            assert!(g.has_edge(a, b));
        }
        let set: std::collections::HashSet<_> = del.iter().collect();
        assert_eq!(set.len(), 30);
    }

    #[test]
    fn query_pairs_cover_alive_vertices() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_query_pairs(&g, 100, &mut rng);
        assert_eq!(pairs.len(), 100);
        for &(s, t) in &pairs {
            assert!(g.contains_vertex(s) && g.contains_vertex(t));
        }
    }

    #[test]
    fn skewed_buckets_are_monotone() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(4);
        let sk = sample_skewed_deletions(&g, 40, 4, &mut rng);
        assert_eq!(sk.len(), 40);
        for w in sk.windows(2) {
            assert!(w[0].0.degree_product <= w[1].0.degree_product);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(sk.last().unwrap().1, 3);
    }

    #[test]
    fn hybrid_stream_applies_cleanly() {
        use dspc::{DynamicSpc, OrderingStrategy};
        let g = graph();
        let mut rng = StdRng::seed_from_u64(6);
        let stream = hybrid_stream(&g, 20, 5, &mut rng);
        assert_eq!(stream.len(), 25);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        for u in stream {
            d.apply(u).unwrap();
        }
    }

    #[test]
    fn churn_stream_applies_cleanly_and_inverts_the_order() {
        use dspc::{DynamicSpc, OrderingStrategy};
        let g = graph();
        let mut rng = StdRng::seed_from_u64(7);
        let epochs = churn_stream(&g, 12, 5, &mut rng);
        assert_eq!(epochs.len(), 12);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        let before = d.staleness();
        for batch in &epochs {
            d.apply_batch(batch).unwrap();
        }
        let after = d.staleness();
        assert!(
            after > before,
            "churn must increase staleness ({before} -> {after})"
        );
    }
}
