//! The drivers that only add labels, written once for every variant on the
//! first worker of the one [`Pipeline`]: IncSPC's edge insertion
//! (Algorithm 2), HP-SPC construction (§2.2), and adjacent-rank re-rank
//! ([`crate::reorder`]).
//!
//! Construction pushes every hub in descending rank order with
//! [`UpdateEngine::inc_pass`](super::UpdateEngine::inc_pass) seeded at the
//! hub with `(0, 1)`, `L_in` before `L_out` for arcs. A re-rank swaps its
//! planned pairs, purges their ranks from every label family in one scan,
//! and re-pushes each pair in ascending rank order — promoted hub first —
//! so every sweep reads exactly the higher-ranked labels a fresh build at
//! the swapped order would see.

use super::topology::{families, side_families};
use super::{merge_affected, MaintenanceCounters, Pipeline, ReadTopology, Topo, Variant};
use crate::index::LabelIndex;
use crate::label::{HubEntry, LabelDist, Rank, RowKey};
use crate::order::{OrderingStrategy, RankMap};
use dspc_graph::{Graph, VertexId};

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

impl<V: Variant> Pipeline<V> {
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
        g: &Graph<V>,
        index: &mut LabelIndex<V>,
        a: VertexId,
        b: VertexId,
    ) -> MaintenanceCounters {
        let len = V::edge_len(g, a, b).expect("IncSPC runs after the graph mutation");
        let (engine, probe) = self.first_worker(g.capacity());
        let mut stats = MaintenanceCounters::default();
        let [fam_a, fam_b] = side_families::<V>();
        let aff = merge_affected(index.row(a, fam_a).keys(), index.row(b, fam_b).keys());
        let (rank_a, rank_b) = (index.rank(a), index.rank(b));
        for (h_rank, in_a, in_b) in aff {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            for (member, near, far, far_rank, family) in
                [(in_a, a, b, rank_b, fam_a), (in_b, b, a, rank_a, fam_b)]
            {
                if !member || h_rank > far_rank {
                    continue;
                }
                let mut topo = Topo::new(g, &mut *index, &mut *probe, family);
                if let Some((d, c)) = topo.label_get(near, h_rank) {
                    engine.inc_pass(&mut topo, h, far, d.sat_add(len), c, &mut stats);
                }
            }
        }
        stats
    }

    /// HP-SPC: builds the index of `g` under a fresh `strategy` order.
    pub fn build(&mut self, g: &Graph<V>, strategy: OrderingStrategy) -> LabelIndex<V> {
        let ranks = RankMap::from_degrees(g.capacity(), strategy, |v| V::degree(g, v));
        self.rebuild(g, ranks)
    }

    /// HP-SPC under an existing order — the reconstruction baseline, which
    /// reuses the maintained index's order so comparisons are label for
    /// label.
    pub fn rebuild(&mut self, g: &Graph<V>, ranks: RankMap) -> LabelIndex<V> {
        let cap = g.capacity();
        assert_eq!(ranks.len(), cap, "rank map must cover the graph id space");
        let mut index = LabelIndex::with_empty_rows(ranks);
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
        g: &Graph<V>,
        index: &mut LabelIndex<V>,
        swaps: &[Rank],
    ) -> MaintenanceCounters {
        let mut stats = MaintenanceCounters::default();
        if swaps.is_empty() {
            return stats;
        }
        let n = index.num_vertices();
        validate_swaps(swaps, n);

        let mut doomed = vec![false; n];
        for &r in swaps {
            index.swap_adjacent_ranks(r);
            doomed[r.index()] = true;
            doomed[r.index() + 1] = true;
        }
        let mut hits: Vec<Rank> = Vec::new();
        for v in (0..n).map(VertexId::from_index) {
            for &family in families::<V>() {
                hits.clear();
                hits.extend(
                    index
                        .row(v, family)
                        .keys()
                        .iter()
                        .map(|k| k.hub())
                        .filter(|h| doomed[h.index()]),
                );
                for &hub in &hits {
                    index.remove_entry(v, family, hub);
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
        g: &Graph<V>,
        index: &mut LabelIndex<V>,
        r: Rank,
        stats: &mut MaintenanceCounters,
    ) {
        let h = index.vertex(r);
        let present = g.contains_vertex(h);
        let (engine, probe) = self.first_worker(g.capacity());
        for &family in families::<V>() {
            if present {
                let renewed = (stats.renew_count, stats.renew_dist);
                let mut topo = Topo::new(g, &mut *index, &mut *probe, family);
                engine.inc_pass(&mut topo, h, h, V::Dist::ZERO, 1, stats);
                debug_assert_eq!(
                    (stats.renew_count, stats.renew_dist),
                    renewed,
                    "hub {h:?} renewed a row that already held rank {r:?}"
                );
            } else {
                index.upsert_entry(h, family, HubEntry::self_label(r));
                stats.inserted += 1;
            }
        }
    }
}
