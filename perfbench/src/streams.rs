//! Seeded update streams and read requests, generated before timing starts.
//!
//! Every stream is drawn against a live copy of the graph, so batch `i` is
//! valid once batches `0..i` have been applied: inserts name non-edges,
//! deletes name edges, and no batch both inserts and deletes one edge (the
//! batch planner would fold the pair to nothing). The same [`ShadowGraph`]
//! trait applies the batches to the benchmark's own copy of the graph,
//! which is what served answers are checked against.

use dspc::directed::ArcUpdate;
use dspc::dynamic::GraphUpdate;
use dspc::weighted::WeightedUpdate;
use dspc_graph::traversal::bfs::BfsCounter;
use dspc_graph::traversal::dbfs::DirectedBfsCounter;
use dspc_graph::traversal::dijkstra::DijkstraCounter;
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, Weight, WeightedGraph};
use rand::Rng;
use std::collections::HashSet;

/// Heaviest edge weight the weighted streams draw (weights are `1..=5`).
pub const MAX_WEIGHT: Weight = 5;

/// One graph variant as the benchmark sees it: the update vocabulary, how
/// an update changes the graph, and the traversal oracle that gives the
/// true answer.
pub trait ShadowGraph: Clone + Send + 'static {
    /// The engine's update type for this variant.
    type Update: Copy + Send + std::fmt::Debug + 'static;
    /// The reusable oracle workspace.
    type Oracle;

    /// Id-space size.
    fn capacity(&self) -> usize;
    /// Every edge (arc) present.
    fn edge_list(&self) -> Vec<(VertexId, VertexId)>;
    /// Edges at `v` (in- plus out-arcs when directed).
    fn degree(&self, v: VertexId) -> usize;
    /// Whether an insert of `(a, b)` would be a duplicate.
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool;
    /// The vertices one hop out of `v`.
    fn successors(&self, v: VertexId) -> Vec<u32>;
    /// An insert of `(a, b)`; the weighted variant draws its weight.
    fn insert<R: Rng>(a: VertexId, b: VertexId, rng: &mut R) -> Self::Update;
    /// A delete of `(a, b)`.
    fn delete(a: VertexId, b: VertexId) -> Self::Update;
    /// Whether `u` deletes an edge (and so runs decremental repair).
    fn is_delete(u: &Self::Update) -> bool;
    /// Applies `u`; panics if it is not valid here (a generator bug).
    fn apply(&mut self, u: &Self::Update);
    /// A fresh oracle workspace.
    fn oracle(&self) -> Self::Oracle;
    /// `(distance, count)` of shortest `s → t` paths, `None` if unreachable.
    fn truth(&self, oracle: &mut Self::Oracle, s: VertexId, t: VertexId) -> Option<(u64, u64)>;

    /// Applies a whole batch in order.
    fn apply_all(&mut self, batch: &[Self::Update]) {
        for u in batch {
            self.apply(u);
        }
    }
}

impl ShadowGraph for UndirectedGraph {
    type Update = GraphUpdate;
    type Oracle = BfsCounter;

    fn capacity(&self) -> usize {
        UndirectedGraph::capacity(self)
    }
    fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().collect()
    }
    fn degree(&self, v: VertexId) -> usize {
        UndirectedGraph::degree(self, v)
    }
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        UndirectedGraph::has_edge(self, a, b)
    }
    fn successors(&self, v: VertexId) -> Vec<u32> {
        self.neighbors(v).to_vec()
    }
    fn insert<R: Rng>(a: VertexId, b: VertexId, _: &mut R) -> GraphUpdate {
        GraphUpdate::InsertEdge(a, b)
    }
    fn delete(a: VertexId, b: VertexId) -> GraphUpdate {
        GraphUpdate::DeleteEdge(a, b)
    }
    fn is_delete(u: &GraphUpdate) -> bool {
        matches!(
            u,
            GraphUpdate::DeleteEdge(..) | GraphUpdate::DeleteVertex(_)
        )
    }
    fn apply(&mut self, u: &GraphUpdate) {
        match *u {
            GraphUpdate::InsertEdge(a, b) => {
                self.insert_edge(a, b).expect("stream inserts a non-edge")
            }
            GraphUpdate::DeleteEdge(a, b) => {
                self.delete_edge(a, b).expect("stream deletes an edge")
            }
            other => unreachable!("streams only touch edges, got {other:?}"),
        }
    }
    fn oracle(&self) -> BfsCounter {
        BfsCounter::new(UndirectedGraph::capacity(self))
    }
    fn truth(&self, oracle: &mut BfsCounter, s: VertexId, t: VertexId) -> Option<(u64, u64)> {
        oracle.count(self, s, t).map(|(d, c)| (u64::from(d), c))
    }
}

impl ShadowGraph for DirectedGraph {
    type Update = ArcUpdate;
    type Oracle = DirectedBfsCounter;

    fn capacity(&self) -> usize {
        DirectedGraph::capacity(self)
    }
    fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.arcs().collect()
    }
    fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.has_arc(a, b)
    }
    fn successors(&self, v: VertexId) -> Vec<u32> {
        self.out_neighbors(v).to_vec()
    }
    fn insert<R: Rng>(a: VertexId, b: VertexId, _: &mut R) -> ArcUpdate {
        ArcUpdate::InsertArc(a, b)
    }
    fn delete(a: VertexId, b: VertexId) -> ArcUpdate {
        ArcUpdate::DeleteArc(a, b)
    }
    fn is_delete(u: &ArcUpdate) -> bool {
        matches!(u, ArcUpdate::DeleteArc(..))
    }
    fn apply(&mut self, u: &ArcUpdate) {
        match *u {
            ArcUpdate::InsertArc(a, b) => self.insert_arc(a, b).expect("stream inserts a non-arc"),
            ArcUpdate::DeleteArc(a, b) => self.delete_arc(a, b).expect("stream deletes an arc"),
        }
    }
    fn oracle(&self) -> DirectedBfsCounter {
        DirectedBfsCounter::new(DirectedGraph::capacity(self))
    }
    fn truth(
        &self,
        oracle: &mut DirectedBfsCounter,
        s: VertexId,
        t: VertexId,
    ) -> Option<(u64, u64)> {
        oracle.count(self, s, t).map(|(d, c)| (u64::from(d), c))
    }
}

impl ShadowGraph for WeightedGraph {
    type Update = WeightedUpdate;
    type Oracle = DijkstraCounter;

    fn capacity(&self) -> usize {
        WeightedGraph::capacity(self)
    }
    fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().map(|(a, b, _)| (a, b)).collect()
    }
    fn degree(&self, v: VertexId) -> usize {
        WeightedGraph::degree(self, v)
    }
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        WeightedGraph::has_edge(self, a, b)
    }
    fn successors(&self, v: VertexId) -> Vec<u32> {
        self.neighbors(v).iter().map(|&(u, _)| u).collect()
    }
    fn insert<R: Rng>(a: VertexId, b: VertexId, rng: &mut R) -> WeightedUpdate {
        WeightedUpdate::InsertEdge(a, b, rng.gen_range(1..=MAX_WEIGHT))
    }
    fn delete(a: VertexId, b: VertexId) -> WeightedUpdate {
        WeightedUpdate::DeleteEdge(a, b)
    }
    fn is_delete(u: &WeightedUpdate) -> bool {
        matches!(u, WeightedUpdate::DeleteEdge(..))
    }
    fn apply(&mut self, u: &WeightedUpdate) {
        match *u {
            WeightedUpdate::InsertEdge(a, b, w) => self
                .insert_edge(a, b, w)
                .expect("stream inserts a non-edge"),
            WeightedUpdate::DeleteEdge(a, b) => {
                self.delete_edge(a, b).expect("stream deletes an edge");
            }
            WeightedUpdate::SetWeight(a, b, w) => {
                self.set_weight(a, b, w).expect("stream reweights an edge");
            }
        }
    }
    fn oracle(&self) -> DijkstraCounter {
        DijkstraCounter::new(WeightedGraph::capacity(self))
    }
    fn truth(&self, oracle: &mut DijkstraCounter, s: VertexId, t: VertexId) -> Option<(u64, u64)> {
        oracle.count(self, s, t)
    }
}

/// The size of one hybrid epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochShape {
    /// Inserts per ordinary epoch.
    pub inserts: usize,
    /// Deletes per ordinary epoch.
    pub deletes: usize,
    /// Every this-many-th epoch is doubled (`None`: never).
    pub double_every: Option<usize>,
}

impl EpochShape {
    /// `(inserts, deletes)` of epoch `i` (0-based).
    pub fn size(&self, i: usize) -> (usize, usize) {
        match self.double_every {
            Some(k) if (i + 1).is_multiple_of(k) => (2 * self.inserts, 2 * self.deletes),
            _ => (self.inserts, self.deletes),
        }
    }
}

/// Degree-product strata the deletes of a stream cycle through.
pub const STRATA: usize = 10;

/// `epochs` hybrid batches shaped by `shape`, each shuffled, valid in
/// sequence from `g`. Inserts are uniform non-edges of the graph as it
/// stands, drawn from `rng`. Deletes remove edges of `g` itself, each at
/// most once, drawn from `delete_rng` by stratified sampling: the edges of
/// `g` are ranked by the product of their endpoint degrees (the §4.5 edge
/// degree) and split into [`STRATA`] equal strata, and the `j`-th delete of
/// the stream is uniform within stratum `j mod STRATA`. Every edge is as
/// likely as under uniform sampling, every run sees the same mix of cheap
/// and costly deletes, and the deletes depend on `delete_rng` alone.
pub fn hybrid_epochs<G: ShadowGraph, R: Rng>(
    g: &G,
    epochs: usize,
    shape: EpochShape,
    delete_rng: &mut R,
    rng: &mut R,
) -> Vec<Vec<G::Update>> {
    let mut strata = g.edge_list();
    strata.sort_by_cached_key(|&(a, b)| (g.degree(a) * g.degree(b), a.0, b.0));
    let m = strata.len();
    let mut used = HashSet::new();
    let mut live = g.clone();
    (0..epochs)
        .map(|i| {
            let (ins, del) = shape.size(i);
            let mut deleted = HashSet::new();
            let mut batch = Vec::with_capacity(ins + del);
            while deleted.len() < del {
                assert!(used.len() < m, "every edge of the graph is already deleted");
                let stratum = used.len() % STRATA;
                let range = stratum * m / STRATA..(stratum + 1) * m / STRATA;
                let (a, b) = strata[delete_rng.gen_range(range)];
                if used.insert(unordered(a, b)) {
                    deleted.insert(unordered(a, b));
                    batch.push(G::delete(a, b));
                }
            }
            batch.extend(fresh_inserts(&live, ins, &deleted, rng));
            for i in (1..batch.len()).rev() {
                batch.swap(i, rng.gen_range(0..=i));
            }
            live.apply_all(&batch);
            batch
        })
        .collect()
}

/// Insert-only batches with the given sizes, valid in sequence from `g`.
pub fn insert_batches<G: ShadowGraph, R: Rng>(
    g: &G,
    sizes: impl IntoIterator<Item = usize>,
    rng: &mut R,
) -> Vec<Vec<G::Update>> {
    let mut live = g.clone();
    sizes
        .into_iter()
        .map(|k| {
            let batch = fresh_inserts(&live, k, &HashSet::new(), rng);
            live.apply_all(&batch);
            batch
        })
        .collect()
}

/// `k` inserts of distinct uniform non-edges of `live`, avoiding the pairs
/// in `deleted`.
fn fresh_inserts<G: ShadowGraph, R: Rng>(
    live: &G,
    k: usize,
    deleted: &HashSet<(u32, u32)>,
    rng: &mut R,
) -> Vec<G::Update> {
    let n = live.capacity() as u32;
    let mut inserted = HashSet::new();
    let mut batch = Vec::with_capacity(k);
    let mut attempts = 0usize;
    while batch.len() < k {
        attempts += 1;
        assert!(attempts < 1000 * k.max(16), "graph too dense for inserts");
        let (a, b) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
        if a == b || live.has_edge(a, b) || deleted.contains(&unordered(a, b)) {
            continue;
        }
        if inserted.insert(unordered(a, b)) {
            batch.push(G::insert(a, b, rng));
        }
    }
    batch
}

/// Undirected key of a pair; arcs `a → b` and `b → a` share it, so a batch
/// never inserts the reverse of an arc it deletes (harmless, but it would
/// make the shapes of the three variants differ).
fn unordered(a: VertexId, b: VertexId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// `k` uniform `(s, t)` pairs over the id space, the paper's §4.1 query
/// protocol.
pub fn query_pairs<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<(VertexId, VertexId)> {
    let n = n as u32;
    (0..k)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect()
}

/// Targets per fan-out request.
pub const FANOUT: usize = 64;

/// One fan-out request: a source and [`FANOUT`] targets from its 2-hop
/// ball, the friend-recommendation lookup shape.
#[derive(Clone, Debug)]
pub struct Fanout {
    /// The shared source.
    pub source: VertexId,
    /// Targets, drawn with replacement from the source's 2-hop ball.
    pub targets: Vec<VertexId>,
}

/// `k` fan-out requests over `g`; sources with an empty 2-hop ball are
/// skipped.
pub fn fanouts<G: ShadowGraph, R: Rng>(g: &G, k: usize, rng: &mut R) -> Vec<Fanout> {
    let n = g.capacity() as u32;
    let mut out = Vec::with_capacity(k);
    for _ in 0..1000 * k.max(1) {
        if out.len() == k {
            break;
        }
        let source = VertexId(rng.gen_range(0..n));
        let mut ball: Vec<u32> = g.successors(source);
        for &u in ball.clone().iter() {
            ball.extend(g.successors(VertexId(u)));
        }
        ball.retain(|&v| v != source.0);
        ball.sort_unstable();
        ball.dedup();
        if ball.is_empty() {
            continue;
        }
        let targets = (0..FANOUT)
            .map(|_| VertexId(ball[rng.gen_range(0..ball.len())]))
            .collect();
        out.push(Fanout { source, targets });
    }
    assert_eq!(out.len(), k, "graph has too few vertices with a 2-hop ball");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspc::directed::DynamicDirectedSpc;
    use dspc::weighted::DynamicWeightedSpc;
    use dspc::{DynamicSpc, OrderingStrategy};
    use dspc_graph::generators::random::{
        barabasi_albert, erdos_renyi_gnm, random_orientation, random_weights,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SHAPE: EpochShape = EpochShape {
        inserts: 10,
        deletes: 1,
        double_every: Some(5),
    };

    /// Applies every batch to the engine and the shadow, then checks the
    /// engine against the oracle on sampled pairs.
    fn applies_cleanly<G: ShadowGraph, E>(
        g: &G,
        batches: &[Vec<G::Update>],
        engine: &mut E,
        apply: impl Fn(&mut E, &[G::Update]),
        query: impl Fn(&E, VertexId, VertexId) -> Option<(u64, u64)>,
    ) {
        let mut shadow = g.clone();
        for batch in batches {
            apply(engine, batch);
            shadow.apply_all(batch);
        }
        let mut oracle = shadow.oracle();
        let mut rng = StdRng::seed_from_u64(99);
        for (s, t) in query_pairs(shadow.capacity(), 200, &mut rng) {
            assert_eq!(
                query(engine, s, t),
                shadow.truth(&mut oracle, s, t),
                "({s:?}, {t:?})"
            );
        }
    }

    #[test]
    fn epoch_shape_doubles_every_fifth() {
        let sizes: Vec<_> = (0..10).map(|i| SHAPE.size(i)).collect();
        assert_eq!(sizes[3], (10, 1));
        assert_eq!(sizes[4], (20, 2));
        assert_eq!(sizes[9], (20, 2));
    }

    #[test]
    fn undirected_hybrid_stream_applies_cleanly() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = barabasi_albert(300, 3, &mut rng);
        let batches = hybrid_epochs(&g, 20, SHAPE, &mut StdRng::seed_from_u64(9), &mut rng);
        let deletes = batches
            .iter()
            .flatten()
            .filter(|u| matches!(u, GraphUpdate::DeleteEdge(..)))
            .count();
        assert_eq!(
            batches.iter().map(Vec::len).sum::<usize>(),
            20 * 11 + 4 * 11
        );
        assert_eq!(deletes, 24);
        let mut d = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
        applies_cleanly(
            &g,
            &batches,
            &mut d,
            |d, b| {
                d.apply_batch(b).unwrap();
            },
            |d, s, t| d.query(s, t).map(|(dist, c)| (u64::from(dist), c)),
        );
    }

    #[test]
    fn insert_batches_alternate_sizes_and_apply_cleanly() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = barabasi_albert(300, 3, &mut rng);
        let batches = insert_batches(&g, [1, 16].into_iter().cycle().take(30), &mut rng);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[1].len(), 16);
        let mut d = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
        applies_cleanly(
            &g,
            &batches,
            &mut d,
            |d, b| {
                d.apply_batch(b).unwrap();
            },
            |d, s, t| d.query(s, t).map(|(dist, c)| (u64::from(dist), c)),
        );
    }

    #[test]
    fn directed_hybrid_stream_applies_cleanly() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_orientation(&erdos_renyi_gnm(200, 600, &mut rng), 0.25, &mut rng);
        let batches = hybrid_epochs(&g, 20, SHAPE, &mut StdRng::seed_from_u64(9), &mut rng);
        let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
        applies_cleanly(
            &g,
            &batches,
            &mut d,
            |d, b| {
                d.apply_batch(b).unwrap();
            },
            |d, s, t| d.query(s, t).map(|(dist, c)| (u64::from(dist), c)),
        );
    }

    #[test]
    fn weighted_hybrid_stream_applies_cleanly() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = random_weights(&erdos_renyi_gnm(200, 600, &mut rng), MAX_WEIGHT, &mut rng);
        let batches = hybrid_epochs(&g, 20, SHAPE, &mut StdRng::seed_from_u64(9), &mut rng);
        assert!(batches.iter().flatten().all(|u| match u {
            WeightedUpdate::InsertEdge(_, _, w) => (1..=MAX_WEIGHT).contains(w),
            _ => true,
        }));
        let mut d = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
        applies_cleanly(
            &g,
            &batches,
            &mut d,
            |d, b| {
                d.apply_batch(b).unwrap();
            },
            |d, s, t| d.query(s, t),
        );
    }

    #[test]
    fn deletes_cycle_through_degree_strata() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = barabasi_albert(300, 3, &mut rng);
        let shape = EpochShape {
            inserts: 0,
            deletes: 1,
            double_every: None,
        };
        let product = |u: &GraphUpdate| match *u {
            GraphUpdate::DeleteEdge(a, b) => g.degree(a) * g.degree(b),
            _ => unreachable!(),
        };
        let mut products: Vec<usize> = g.edges().map(|(a, b)| g.degree(a) * g.degree(b)).collect();
        products.sort_unstable();
        let median = products[products.len() / 2];
        for round in
            hybrid_epochs(&g, 30, shape, &mut StdRng::seed_from_u64(9), &mut rng).chunks(STRATA)
        {
            assert!(
                product(&round[0][0]) <= median,
                "stratum 0 is the cheap end"
            );
            assert!(
                product(&round[STRATA - 1][0]) >= median,
                "the last stratum is the costly end"
            );
        }
    }

    #[test]
    fn deletes_do_not_depend_on_the_seed() {
        let g = barabasi_albert(200, 3, &mut StdRng::seed_from_u64(5));
        let deletes = |seed| {
            let mut d = StdRng::seed_from_u64(11);
            hybrid_epochs(&g, 12, SHAPE, &mut d, &mut StdRng::seed_from_u64(seed))
                .into_iter()
                .flatten()
                .filter(|u| matches!(u, GraphUpdate::DeleteEdge(..)))
                .map(|u| match u {
                    GraphUpdate::DeleteEdge(a, b) => unordered(a, b),
                    _ => unreachable!(),
                })
                .collect::<HashSet<_>>()
        };
        assert_eq!(deletes(1), deletes(2));
    }

    #[test]
    fn streams_repeat_per_seed() {
        let g = barabasi_albert(200, 3, &mut StdRng::seed_from_u64(5));
        let stream = |seed| {
            let mut deletes = StdRng::seed_from_u64(10);
            hybrid_epochs(&g, 5, SHAPE, &mut deletes, &mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(stream(6), stream(6));
        assert_ne!(stream(6), stream(7), "the seed changes the inserts");
    }

    #[test]
    fn fanout_targets_lie_in_the_two_hop_ball() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(200, 3, &mut rng);
        for f in fanouts(&g, 20, &mut rng) {
            assert_eq!(f.targets.len(), FANOUT);
            for t in f.targets {
                assert_ne!(t, f.source);
                let near = g.has_edge(f.source, t)
                    || g.neighbors(f.source)
                        .iter()
                        .any(|&u| g.has_edge(VertexId(u), t));
                assert!(near, "{t:?} is not within two hops of {:?}", f.source);
            }
        }
    }
}
