//! Pinned-source reads answer and count exactly like the merge, across
//! epochs. A [`dspc_serve::Reader`] answers every query through a hub probe
//! loaded with its last source's row, and keeps that row pinned across
//! rotations that share it. For random batches and a query script that
//! mixes uniform pairs with runs of one source, every answer — and every
//! per-shard counter delta — must equal the two-row merge
//! (`ServingSnapshot::query_counted`) on the snapshot the reader holds, and
//! the live engine's answer, for all three variants.
//!
//! The first lookup after each rotation repeats the last source, so the
//! script meets a pin whose row the batch rewrote (reload) and one whose
//! row the publication shared (kept). Vertex insertions grow the rank
//! space past the size the probe was loaded at, and a `ManagedSpc` policy
//! rebuild replaces every row.

use dspc::directed::{DynamicDirectedSpc, Side};
use dspc::policy::{MaintenancePolicy, ManagedSpc};
use dspc::shard::ShardedFlatIndex;
use dspc::weighted::DynamicWeightedSpc;
use dspc::{
    DirectedFlatIndex, DynamicSpc, FlatScratch, GraphUpdate, KernelCounters, OrderingStrategy,
    WeightedFlatIndex,
};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, WeightedGraph};
use dspc_serve::{EpochServer, ServeConfig, ServingEngine, ServingSnapshot};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{arc_batches, graph_strategy, weighted_batches};

/// The rows a reader pins: the snapshot's vertex count and the address of
/// a source row (`L(s)`, or `L_out(s)` for the directed variant).
trait SourceRows: ServingSnapshot {
    fn vertices(&self) -> usize;
    fn source_row(&self, s: VertexId) -> *const ();
}

impl SourceRows for ShardedFlatIndex {
    fn vertices(&self) -> usize {
        self.num_vertices()
    }
    fn source_row(&self, s: VertexId) -> *const () {
        Arc::as_ptr(self.rows().handle(s.index())) as *const ()
    }
}

impl SourceRows for DirectedFlatIndex {
    fn vertices(&self) -> usize {
        self.rows(Side::Out).num_vertices()
    }
    fn source_row(&self, s: VertexId) -> *const () {
        Arc::as_ptr(self.rows(Side::Out).handle(s.index())) as *const ()
    }
}

impl SourceRows for WeightedFlatIndex {
    fn vertices(&self) -> usize {
        self.rows().num_vertices()
    }
    fn source_row(&self, s: VertexId) -> *const () {
        Arc::as_ptr(self.rows().handle(s.index())) as *const ()
    }
}

/// What the lookups met, modelled from outside the reader: every query
/// pins its source row, so the pin is the previous query's source row.
#[derive(Debug, Default)]
struct Coverage {
    /// Lookups whose source row a rotation shared with the pin's epoch.
    kept_across_rotation: usize,
    /// Kept pins read in a larger rank space than the probe was sized for.
    kept_in_grown_space: usize,
    /// Lookups from the pinned source whose row a rotation rewrote.
    rewritten: usize,
}

/// The reader's pin: source, row address, epoch and vertex count at load.
/// The reader holds the row, so its address cannot be reused meanwhile.
#[derive(Clone, Copy)]
struct Pin {
    source: VertexId,
    row: *const (),
    epoch: u64,
    vertices: usize,
}

/// Per-shard counter growth between two readings.
fn delta(after: &[KernelCounters], before: &[KernelCounters]) -> Vec<KernelCounters> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| KernelCounters {
            queries: a.queries - b.queries,
            merge_steps: a.merge_steps - b.merge_steps,
            common_hubs: a.common_hubs - b.common_hubs,
        })
        .collect()
}

/// Rotates `server` once per batch. At epoch 0 and after every rotation a
/// refreshed reader first repeats its last source against the newest
/// vertex, then runs `script`: each `(s, targets)` is a run of lookups
/// from one source, and a single target is a uniform pair. Ids wrap into
/// the snapshot's vertex count.
fn replay<E>(
    server: &mut EpochServer<E>,
    batches: Vec<Vec<E::Update>>,
    script: &[(u32, Vec<u32>)],
) -> Coverage
where
    E: ServingEngine,
    E::Snapshot: SourceRows,
    E::Update: std::fmt::Debug,
{
    let mut reader = server.reader();
    let mut coverage = Coverage::default();
    let mut pin: Option<Pin> = None;
    let epochs = std::iter::once(None).chain(batches.into_iter().map(Some));
    for batch in epochs {
        if let Some(batch) = batch {
            server.submit(batch).unwrap();
            server.rotate().unwrap();
            reader.refresh();
        }
        let n = reader.snapshot().index().vertices() as u32;
        let repeat = pin.map(|p| (p.source.0, vec![n - 1]));
        for (s, targets) in repeat.iter().chain(script) {
            let s = VertexId(s % n);
            for &t in targets {
                let t = VertexId(t % n);
                let (expected, want) = {
                    let snap = reader.snapshot();
                    let index = snap.index();
                    let row = index.source_row(s);
                    match pin {
                        Some(p) if p.row == row => {
                            if p.epoch < snap.epoch() {
                                coverage.kept_across_rotation += 1;
                                if p.vertices < index.vertices() {
                                    coverage.kept_in_grown_space += 1;
                                }
                            }
                        }
                        _ => {
                            if pin.is_some_and(|p| p.source == s) {
                                coverage.rewritten += 1;
                            }
                            pin = Some(Pin {
                                source: s,
                                row,
                                epoch: snap.epoch(),
                                vertices: index.vertices(),
                            });
                        }
                    }
                    let mut want = vec![KernelCounters::new(); index.shard_count()];
                    let expected = index.query_counted(&mut FlatScratch::new(), &mut want, s, t);
                    (expected, want)
                };
                let before = reader.shard_counters().to_vec();
                let (epoch, got) = reader.query(s, t);
                assert_eq!(epoch, server.epoch(), "reader is fresh");
                assert_eq!(got, expected, "pinned vs merge at ({s:?}, {t:?})");
                assert_eq!(got, server.engine().query_live(s, t), "live ({s:?}, {t:?})");
                assert_eq!(
                    delta(reader.shard_counters(), &before),
                    want,
                    "counters at ({s:?}, {t:?}), epoch {epoch}"
                );
            }
        }
    }
    coverage
}

/// Valid-in-sequence undirected batches of three picks: a pick ≡ 4
/// (mod 5) adds a vertex, another even pick deletes an existing edge, and
/// an odd pick inserts the non-edge it names (or nothing). Later picks
/// may name the added vertices.
fn growing_batches(g: &UndirectedGraph, picks: &[usize]) -> Vec<Vec<GraphUpdate>> {
    let mut shadow = g.clone();
    picks
        .chunks(3)
        .map(|chunk| {
            let mut batch = Vec::new();
            for &pick in chunk {
                let (n, m) = (shadow.capacity(), shadow.num_edges());
                if pick % 5 == 4 {
                    shadow.add_vertex();
                    batch.push(GraphUpdate::InsertVertex);
                } else if pick % 2 == 0 && m > 0 {
                    let (a, b) = shadow.nth_edge(pick / 2 % m).unwrap();
                    shadow.delete_edge(a, b).unwrap();
                    batch.push(GraphUpdate::DeleteEdge(a, b));
                } else {
                    let (a, b) = (
                        VertexId((pick / 2 % n) as u32),
                        VertexId((pick / 7 % n) as u32),
                    );
                    if a != b && !shadow.has_edge(a, b) {
                        shadow.insert_edge(a, b).unwrap();
                        batch.push(GraphUpdate::InsertEdge(a, b));
                    }
                }
            }
            batch
        })
        .collect()
}

/// A lookup script: runs of one to four lookups from one source.
fn script_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    proptest::collection::vec((0u32..64, proptest::collection::vec(0u32..64, 1..5)), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Undirected, sharded: pinned reads ≡ the merge per shard, through
    /// edge batches and vertex insertions.
    #[test]
    fn undirected_pinned_reads_match_the_merge(
        g in graph_strategy(12),
        picks in proptest::collection::vec(0usize..1 << 12, 1..12),
        script in script_strategy(),
        shards in 1usize..5,
    ) {
        let batches = growing_batches(&g, &picks);
        let engine = DynamicSpc::build(g, OrderingStrategy::Degree);
        let mut server = EpochServer::new(engine, ServeConfig { shards });
        replay(&mut server, batches, &script);
    }

    /// Policy-managed: a rebuild every four updates replaces every row,
    /// so the pin reloads; pinned reads stay ≡ the merge.
    #[test]
    fn managed_pinned_reads_match_the_merge(
        g in graph_strategy(12),
        picks in proptest::collection::vec(0usize..1 << 12, 1..12),
        script in script_strategy(),
    ) {
        let batches = growing_batches(&g, &picks);
        let engine = ManagedSpc::new(
            DynamicSpc::build(g, OrderingStrategy::Degree),
            MaintenancePolicy::every(4),
        );
        let mut server = EpochServer::new(engine, ServeConfig { shards: 2 });
        replay(&mut server, batches, &script);
    }

    /// Directed, sharded: the pin holds `L_out(s)` and the scan reads
    /// `L_in(t)`.
    #[test]
    fn directed_pinned_reads_match_the_merge(
        n in 3usize..12,
        arcs in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        picks in proptest::collection::vec(0usize..1 << 12, 1..12),
        script in script_strategy(),
        shards in 1usize..5,
    ) {
        let arcs: Vec<(u32, u32)> = arcs
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = DirectedGraph::from_arcs(n, &arcs);
        let batches = arc_batches(&g, &picks);
        let engine = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        let mut server = EpochServer::new(engine, ServeConfig { shards });
        prop_assert_eq!(server.reader().shard_counters().len(), shards);
        replay(&mut server, batches, &script);
    }

    /// Weighted, sharded: 16-byte probe slots, deletions, weight changes
    /// and insertions.
    #[test]
    fn weighted_pinned_reads_match_the_merge(
        g in graph_strategy(12),
        weights in proptest::collection::vec(1u32..6, 40),
        picks in proptest::collection::vec(0usize..1 << 12, 1..12),
        script in script_strategy(),
        shards in 1usize..5,
    ) {
        let triples: Vec<(u32, u32, u32)> = g
            .edges()
            .enumerate()
            .map(|(i, (u, v))| (u.0, v.0, weights[i % weights.len()]))
            .collect();
        let wg = WeightedGraph::from_weighted_edges(g.capacity(), &triples);
        let batches = weighted_batches(&wg, &picks);
        let engine = DynamicWeightedSpc::build(wg, OrderingStrategy::Degree);
        let mut server = EpochServer::new(engine, ServeConfig { shards });
        prop_assert_eq!(server.reader().shard_counters().len(), shards);
        replay(&mut server, batches, &script);
    }
}

/// One fixed history meets every pin transition: vertex insertions leave
/// the pinned row shared while the rank space grows past the probe, an
/// edge at the pinned source rewrites its row, and a policy rebuild
/// rewrites every row.
#[test]
fn pinned_reads_meet_every_transition() {
    let g = UndirectedGraph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (1, 5),
        ],
    );
    let script = vec![(2, vec![0, 4, 7]), (6, vec![3]), (7, vec![0, 1, 2, 5])];
    let batches = vec![
        vec![GraphUpdate::InsertVertex, GraphUpdate::InsertVertex],
        vec![GraphUpdate::InsertEdge(VertexId(7), VertexId(0))],
        vec![GraphUpdate::InsertEdge(VertexId(8), VertexId(3))],
        vec![GraphUpdate::DeleteEdge(VertexId(1), VertexId(5))],
    ];
    let engine = ManagedSpc::new(
        DynamicSpc::build(g, OrderingStrategy::Degree),
        MaintenancePolicy::every(4),
    );
    let mut server = EpochServer::new(engine, ServeConfig { shards: 3 });
    let coverage = replay(&mut server, batches, &script);
    assert!(server.engine().rebuilds() > 0, "the policy rebuilt");
    assert!(coverage.kept_across_rotation > 0, "{coverage:?}");
    assert!(coverage.kept_in_grown_space > 0, "{coverage:?}");
    assert!(coverage.rewritten > 0, "{coverage:?}");
}
