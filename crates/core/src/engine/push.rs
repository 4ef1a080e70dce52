//! The drivers that only add labels, written once for every variant:
//! IncSPC's edge insertion (Algorithm 2), HP-SPC construction (§2.2), and
//! adjacent-rank re-rank ([`crate::reorder`]).
//!
//! Construction pushes every hub in descending rank order with
//! [`UpdateEngine::inc_pass`] seeded at the hub with `(0, 1)`, `L_in`
//! before `L_out` for arcs. A re-rank swaps its planned pairs, purges their
//! ranks from every label family in one scan, and re-pushes each pair in
//! ascending rank order — promoted hub first — so every sweep reads exactly
//! the higher-ranked labels a fresh build at the swapped order would see.

use super::topology::{families, side_families};
use super::{
    merge_affected, LabelTopology, MaintenanceCounters, ReadTopology, UpdateEngine, Variant,
};
use crate::label::{HubEntry, LabelDist, Rank};
use crate::order::{OrderingStrategy, RankMap};
use crate::query::HubProbe;
use dspc_graph::VertexId;

/// Checks that `swaps` is strictly ascending with no two positions closer
/// than 2 (so every pair owns its two ranks exclusively) and in range.
fn validate_swaps(swaps: &[Rank], rank_space: usize) {
    for (i, &r) in swaps.iter().enumerate() {
        assert!(
            r.index() + 1 < rank_space,
            "swap position {r:?} out of range"
        );
        if i > 0 {
            assert!(
                swaps[i - 1].0 + 2 <= r.0,
                "swap positions must be ascending and non-overlapping"
            );
        }
    }
}

/// One variant's sweep scratch — the engine arena and the pinned-hub probe
/// — and the insertion, construction, and re-rank drivers that run on it.
/// The facade owns one and reuses it for every build and rebuild.
#[derive(Debug)]
pub struct PushPipeline<V: Variant> {
    engine: UpdateEngine<V::Dist>,
    probe: HubProbe<V::Entry>,
}

impl<V: Variant> PushPipeline<V> {
    /// A pipeline for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        PushPipeline {
            engine: UpdateEngine::new(capacity),
            probe: HubProbe::new(capacity),
        }
    }

    /// Algorithm 2: repairs `index` after edge `(a, b)` was inserted into
    /// `g`, or after its weight decreased. `g` must already hold the edge
    /// (line 1 performs `G_{i+1} ← G_i ⊕ (a, b)` before any sweep).
    ///
    /// `AFF = hubs(L(a)) ∪ hubs(L(b))` — `L_in(a) ∪ L_out(b)` for an arc —
    /// is snapshotted before any label changes and processed in descending
    /// rank order. A hub from `a`'s side sweeps from `b`, seeded across the
    /// edge from its *live* label at `a` (a same-hub pass in the opposite
    /// direction may already have refreshed it), and vice versa.
    pub fn insert_edge(
        &mut self,
        g: &V::Graph,
        index: &mut V::Index,
        a: VertexId,
        b: VertexId,
    ) -> MaintenanceCounters {
        let len = V::edge_len(g, a, b).expect("IncSPC runs after the graph mutation");
        self.engine.ensure_capacity(V::capacity(g));
        let mut stats = MaintenanceCounters::default();
        let [fam_a, fam_b] = side_families::<V>();
        let aff = merge_affected(V::row(index, a, fam_a), V::row(index, b, fam_b));
        let (rank_a, rank_b) = (V::ranks(index).rank(a), V::ranks(index).rank(b));
        for (h_rank, in_a, in_b) in aff {
            let h = V::ranks(index).vertex(h_rank);
            stats.hubs_processed += 1;
            for (member, near, far, far_rank, family) in
                [(in_a, a, b, rank_b, fam_a), (in_b, b, a, rank_a, fam_b)]
            {
                if !member || h_rank > far_rank {
                    continue;
                }
                let mut topo = V::write(g, index, &mut self.probe, family);
                if let Some((d, c)) = topo.label_get(near, h_rank) {
                    self.engine
                        .inc_pass(&mut topo, h, far, d.sat_add(len), c, &mut stats);
                }
            }
        }
        stats
    }

    /// HP-SPC: builds the index of `g` under a fresh `strategy` order.
    pub fn build(&mut self, g: &V::Graph, strategy: OrderingStrategy) -> V::Index {
        let ranks = RankMap::from_degrees(V::capacity(g), strategy, |v| V::degree(g, v));
        self.rebuild(g, ranks)
    }

    /// HP-SPC under an existing order — the reconstruction baseline, which
    /// reuses the maintained index's order so comparisons are label for
    /// label.
    pub fn rebuild(&mut self, g: &V::Graph, ranks: RankMap) -> V::Index {
        let cap = V::capacity(g);
        assert_eq!(ranks.len(), cap, "rank map must cover the graph id space");
        self.engine.ensure_capacity(cap);
        let mut index = V::empty_index(ranks);
        let mut stats = MaintenanceCounters::default();
        for r in 0..cap as u32 {
            self.push_hub(g, &mut index, Rank(r), &mut stats);
        }
        index
    }

    /// Applies a sorted, non-overlapping run of adjacent rank swaps to
    /// `index` and repairs it so the result is bit-identical to
    /// [`rebuild`](Self::rebuild) at the swapped order: swap every pair,
    /// purge the swapped ranks from every label family in one scan, then
    /// re-push each pair in ascending rank order.
    ///
    /// # Panics
    /// If `swaps` is not strictly ascending with gaps of at least 2, or
    /// names a position without a successor.
    pub fn rerank(
        &mut self,
        g: &V::Graph,
        index: &mut V::Index,
        swaps: &[Rank],
    ) -> MaintenanceCounters {
        let mut stats = MaintenanceCounters::default();
        if swaps.is_empty() {
            return stats;
        }
        let n = V::ranks(index).len();
        validate_swaps(swaps, n);
        self.engine.ensure_capacity(V::capacity(g));

        let mut doomed = vec![false; n];
        for &r in swaps {
            V::swap_adjacent_ranks(index, r);
            doomed[r.index()] = true;
            doomed[r.index() + 1] = true;
        }
        let mut hits: Vec<Rank> = Vec::new();
        for v in (0..n as u32).map(VertexId) {
            for &family in families::<V>() {
                hits.clear();
                hits.extend(
                    V::row(index, v, family)
                        .iter()
                        .map(HubEntry::hub)
                        .filter(|h| doomed[h.index()]),
                );
                if hits.is_empty() {
                    continue;
                }
                let mut topo = V::write(g, index, &mut self.probe, family);
                for &hub in &hits {
                    topo.label_remove(v, hub);
                }
                stats.removed += hits.len();
            }
        }

        for &r in swaps {
            self.push_hub(g, index, r, &mut stats);
            self.push_hub(g, index, Rank(r.0 + 1), &mut stats);
            stats.rerank_swaps += 1;
            stats.rerank_sweeps += 2 * families::<V>().len();
        }
        stats
    }

    /// Pushes the hub at rank `r` into every label family, in family
    /// order. A vertex absent from the graph gets only its bare self
    /// label, as construction leaves it.
    ///
    /// Precondition: no row of any family holds an `(h, ·, ·)` entry yet —
    /// construction starts from empty rows and re-rank purges the hub's
    /// rank first — so every emission of the sweep is an insertion.
    fn push_hub(
        &mut self,
        g: &V::Graph,
        index: &mut V::Index,
        r: Rank,
        stats: &mut MaintenanceCounters,
    ) {
        let h = V::ranks(index).vertex(r);
        let present = V::contains(g, h);
        for &family in families::<V>() {
            let mut topo = V::write(g, index, &mut self.probe, family);
            if present {
                let renewed = (stats.renew_count, stats.renew_dist);
                self.engine
                    .inc_pass(&mut topo, h, h, V::Dist::ZERO, 1, stats);
                debug_assert_eq!(
                    (stats.renew_count, stats.renew_dist),
                    renewed,
                    "hub {h:?} renewed a row that already held rank {r:?}"
                );
            } else {
                topo.label_upsert(h, r, V::Dist::ZERO, 1);
                stats.inserted += 1;
            }
        }
    }
}
