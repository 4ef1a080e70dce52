//! The SPC-Index: per-vertex label rows plus the vertex total order, one
//! store for every graph variant.
//!
//! The structure follows §2.2 exactly: each vertex `v` owns `L(v)`, a set of
//! `(hub, dist, count)` triples obeying the **Exact Shortest Paths Covering**
//! (ESPC) constraint — `spc(s, t)` is computable for every pair from
//! `L(s)` and `L(t)` alone via Equations (1)–(2).
//!
//! Appendix C keeps that layout for both extensions, so [`LabelIndex`]
//! stores the labels of every [`Variant`] the same way: the rank map, one
//! vector of copy-on-write rows ([`LabelRow`]) per label family, and the
//! hub-entry counts. Every row is sorted by hub rank, holds its owner's
//! self label, and names only hubs ranked at or above its owner. The
//! undirected and weighted variants have one family, `L`; the directed one
//! has `L_in` then `L_out`. Families are named by the repair-agenda flags
//! ([`REPAIR_PRIMARY`] for `L` or `L_in`,
//! [`REPAIR_SECONDARY`](crate::engine::REPAIR_SECONDARY) for `L_out`).
//! [`SpcIndex`], [`crate::directed::DirectedSpcIndex`] and
//! [`crate::weighted::WeightedSpcIndex`] are its three instances; each adds
//! only the accessors that name its families.

use crate::engine::{families, family_slot, Undirected, Variant, REPAIR_PRIMARY};
use crate::label::{check_row, HubEntry, LabelEntry, LabelRow, LabelSet, Rank, RowKey, SharedRows};
use crate::order::RankMap;
use dspc_graph::VertexId;
use serde::{Deserialize, Serialize};

/// The label store of variant `V` (the paper's `L`, or `L_in` and `L_out`).
#[derive(Clone, Debug)]
pub struct LabelIndex<V: Variant> {
    /// `rows[f][v]`: vertex `v`'s row of the family in slot `f`
    /// ([`family_slot`]), indexed by vertex id.
    rows: Vec<Vec<LabelRow<V::Entry>>>,
    /// The vertex total order.
    ranks: RankMap,
    /// `hub_counts[r]` = number of label entries across the whole index,
    /// every family, whose hub has rank `r` (self labels included).
    /// Maintained exactly by the tracked mutators
    /// ([`LabelIndex::upsert_entry`] / [`LabelIndex::remove_entry`] /
    /// [`LabelIndex::reset_vertex_to_self`]); raw access through
    /// [`LabelIndex::row_mut`] invalidates the counts, which are then
    /// recomputed on the next [`LabelIndex::hub_entry_count`] call. The
    /// decremental isolated-vertex fast path (§3.2.3) keys off these
    /// counts: emptying `L(x)` is a complete repair exactly when no other
    /// vertex carries an `(x, ·, ·)` label.
    hub_counts: Vec<u32>,
    /// Whether `hub_counts` is currently exact.
    hub_counts_valid: bool,
}

/// The SPC-Index of an undirected graph.
pub type SpcIndex = LabelIndex<Undirected>;

impl<V: Variant> PartialEq for LabelIndex<V> {
    fn eq(&self, other: &Self) -> bool {
        // Hub-count bookkeeping is derived state; equality is label content
        // plus the total order.
        self.rows == other.rows && self.ranks == other.ranks
    }
}

/// Size and shape statistics of an index (Table 4's "L Size" column).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Total label entries across all vertices.
    pub entries: usize,
    /// Bytes under the paper's packed 64-bit-per-entry encoding.
    pub packed_bytes: usize,
    /// Actual in-memory footprint of the live wide representation: the
    /// row vector's spine plus, per vertex, the `LabelSet` header and its
    /// heap block at *capacity* (not length) — what resident memory really
    /// pays, unlike the old entries-only figure.
    pub wide_bytes: usize,
    /// Bytes of this index's label columns in the v2 file
    /// ([`crate::serialize::encode_flat`]): 16 per entry across the hub,
    /// distance and count columns plus one `u32` offset per vertex (and
    /// one terminator).
    pub flat_bytes: usize,
    /// Largest single label set.
    pub max_label_len: usize,
    /// Mean label set size (the paper's `l`).
    pub avg_label_len: f64,
}

impl<V: Variant> LabelIndex<V> {
    /// An index over `ranks` whose every row is `row(rank)`, with exact
    /// hub-entry counts of `per_hub` per rank.
    fn filled(ranks: RankMap, per_hub: u32, row: impl Fn(Rank) -> LabelRow<V::Entry>) -> Self {
        let n = ranks.len();
        let family = || {
            (0..n)
                .map(|v| row(ranks.rank(VertexId::from_index(v))))
                .collect()
        };
        LabelIndex {
            rows: families::<V>().iter().map(|_| family()).collect(),
            hub_counts: vec![per_hub; n],
            hub_counts_valid: true,
            ranks,
        }
    }

    /// Creates an index whose every vertex has only its self labels: the
    /// correct index for an edgeless graph.
    pub fn self_labeled(ranks: RankMap) -> Self {
        Self::filled(ranks, families::<V>().len() as u32, LabelRow::self_only)
    }

    /// An index over `ranks` whose every row is empty, with exact (zero)
    /// hub-entry counts: where construction starts, since HP-SPC emits
    /// every label, self labels included.
    pub(crate) fn with_empty_rows(ranks: RankMap) -> Self {
        Self::filled(ranks, 0, |_| LabelRow::default())
    }

    /// An index whose rows are `families`' rows, in family order, still
    /// shared: each is copied on its first write. The hub-entry counts are
    /// recomputed on first use.
    pub(crate) fn from_shared(families: &[SharedRows<V::Entry>], ranks: RankMap) -> Self {
        let thaw = |f: &SharedRows<V::Entry>| {
            (0..f.num_vertices())
                .map(|v| LabelRow::shared(std::sync::Arc::clone(f.handle(v))))
                .collect()
        };
        LabelIndex {
            rows: families.iter().map(thaw).collect(),
            ranks,
            hub_counts: Vec::new(),
            hub_counts_valid: false,
        }
    }

    /// Number of vertices covered (id-space size).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ranks.len()
    }

    /// The vertex total order.
    #[inline]
    pub fn ranks(&self) -> &RankMap {
        &self.ranks
    }

    /// Rank of `v`.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// Vertex at rank `r`.
    #[inline]
    pub fn vertex(&self, r: Rank) -> VertexId {
        self.ranks.vertex(r)
    }

    /// `v`'s row of label family `family`.
    #[inline]
    pub fn row(&self, v: VertexId, family: u8) -> &LabelRow<V::Entry> {
        &self.rows[family_slot(family)][v.index()]
    }

    /// Raw mutable row of `family` at `v` — wholesale replacement (the
    /// brute-force oracle of [`crate::verify`], tests). Invalidates the
    /// hub-entry counts; the engine uses the tracked mutators below
    /// instead.
    #[inline]
    pub fn row_mut(&mut self, v: VertexId, family: u8) -> &mut LabelRow<V::Entry> {
        self.hub_counts_valid = false;
        &mut self.rows[family_slot(family)][v.index()]
    }

    /// Inserts or replaces `(e.hub, ·, ·)` in `v`'s row of `family`,
    /// keeping hub-entry counts exact. Returns the previous entry.
    pub fn upsert_entry(&mut self, v: VertexId, family: u8, e: V::Entry) -> Option<V::Entry> {
        let old = self.rows[family_slot(family)][v.index()].upsert(e);
        if self.hub_counts_valid && old.is_none() {
            self.hub_counts[e.hub().index()] += 1;
        }
        old
    }

    /// Removes `(hub, ·, ·)` from `v`'s row of `family`, keeping hub-entry
    /// counts exact.
    pub fn remove_entry(&mut self, v: VertexId, family: u8, hub: Rank) -> Option<V::Entry> {
        let old = self.rows[family_slot(family)][v.index()].remove(hub);
        if self.hub_counts_valid && old.is_some() {
            self.hub_counts[hub.index()] -= 1;
        }
        old
    }

    /// Clears every row of `v` down to a fresh self label (the §3.2.3
    /// isolated-vertex repair), keeping hub-entry counts exact. Returns how
    /// many non-self entries were dropped.
    pub fn reset_vertex_to_self(&mut self, v: VertexId) -> usize {
        let self_rank = self.ranks.rank(v);
        let mut dropped = 0;
        for family in &mut self.rows {
            let row = &mut family[v.index()];
            if self.hub_counts_valid {
                let mut had_self = false;
                for k in row.keys() {
                    if k.hub() == self_rank {
                        had_self = true;
                    } else {
                        self.hub_counts[k.hub().index()] -= 1;
                    }
                }
                if !had_self {
                    self.hub_counts[self_rank.index()] += 1;
                }
            }
            dropped += row.reset_to_self(self_rank);
        }
        dropped
    }

    /// Publishes the labels for readers: every row written since the last
    /// publish becomes an immutable shared row, and one handle per vertex
    /// and family comes back, in family order. Costs `O(n)` handle clones
    /// per family plus one copy of each written row; a row untouched since
    /// the last publish is already shared, so no dirty list is needed. The
    /// next write to a published row copies it first (see [`LabelRow`]).
    /// Label content, and with it the hub-entry counts, is unchanged.
    pub fn publish(&mut self) -> Vec<SharedRows<V::Entry>> {
        self.rows
            .iter_mut()
            .map(|rows| SharedRows::publish(rows))
            .collect()
    }

    /// Number of label entries anywhere in the index whose hub has rank
    /// `r` (including the hub vertex's own self labels). Recomputes the
    /// counts first if raw mutation invalidated them.
    pub fn hub_entry_count(&mut self, r: Rank) -> u32 {
        if !self.hub_counts_valid {
            self.hub_counts.clear();
            self.hub_counts.resize(self.ranks.len(), 0);
            for k in self.rows.iter().flatten().flat_map(LabelRow::keys) {
                self.hub_counts[k.hub().index()] += 1;
            }
            self.hub_counts_valid = true;
        }
        self.hub_counts[r.index()]
    }

    /// Swaps the vertices at ranks `r` and `r + 1` **without touching any
    /// label storage**: the rank map's two positions trade occupants. Both
    /// label entries and hub-entry counts are keyed by *rank*, so neither
    /// moves — but every entry at the two ranks now attributes its paths
    /// to the wrong hub vertex, which is why the caller
    /// ([`crate::engine::Pipeline::rerank`]) swaps, purges both ranks'
    /// entries from every label family, then re-pushes both hubs. This
    /// method only performs the O(1) order remap.
    pub fn swap_adjacent_ranks(&mut self, r: Rank) {
        self.ranks.swap_adjacent(r);
    }

    /// Registers a freshly added isolated vertex: appends it at the lowest
    /// rank with a self label in every family, and returns that rank. This
    /// is the paper's entire incremental handling of vertex insertion
    /// (§3): an isolated vertex affects no other label.
    pub fn append_vertex(&mut self, v: VertexId) -> Rank {
        let r = self.ranks.append_vertex(v);
        for family in &mut self.rows {
            family.push(LabelRow::self_only(r));
        }
        self.hub_counts.push(self.rows.len() as u32);
        r
    }

    /// Total entries across every family.
    pub fn num_entries(&self) -> usize {
        self.rows.iter().flatten().map(LabelRow::len).sum()
    }

    /// Structural invariants: the rank map is a bijection, and in every
    /// family each row is strictly sorted, carries its owner's self label
    /// `(rank, 0, 1)`, and holds only entries whose hub ranks at least as
    /// high as the owner (labels only point "up" the order), with finite
    /// distances (the hub probe reads an `INF` slot as "hub absent") and
    /// positive counts.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.ranks.validate() {
            return Err("rank map is not a bijection".into());
        }
        let names: &[&str] = if V::DIRECTED {
            &["L_in", "L_out"]
        } else {
            &["L"]
        };
        for (name, family) in names.iter().zip(&self.rows) {
            for (vi, row) in family.iter().enumerate() {
                let v = VertexId::from_index(vi);
                check_row(row.view(), self.ranks.rank(v))
                    .map_err(|fault| format!("{name}({v}) {fault}"))?;
            }
        }
        Ok(())
    }
}

impl SpcIndex {
    /// `L(v)`.
    #[inline]
    pub fn label_set(&self, v: VertexId) -> &LabelSet {
        self.row(v, REPAIR_PRIMARY)
    }

    /// Raw mutable `L(v)` ([`LabelIndex::row_mut`]).
    #[inline]
    pub fn label_set_mut(&mut self, v: VertexId) -> &mut LabelSet {
        self.row_mut(v, REPAIR_PRIMARY)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> IndexStats {
        let rows = &self.rows[0];
        let entries = self.num_entries();
        let n = rows.len();
        IndexStats {
            entries,
            packed_bytes: entries * 8,
            wide_bytes: std::mem::size_of::<Vec<LabelSet>>()
                + rows.iter().map(LabelSet::memory_byte_size).sum::<usize>(),
            flat_bytes: entries * 16 + (n + 1) * 4,
            max_label_len: rows.iter().map(LabelSet::len).max().unwrap_or(0),
            avg_label_len: if n == 0 {
                0.0
            } else {
                entries as f64 / n as f64
            },
        }
    }

    /// Convenience accessor: the entry `(h, d, c) ∈ L(v)` for hub vertex
    /// `h`, if present.
    pub fn label_of(&self, v: VertexId, hub_vertex: VertexId) -> Option<LabelEntry> {
        self.label_set(v).get(self.rank(hub_vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::INF_DIST;
    use crate::order::OrderingStrategy;
    use dspc_graph::generators::classic::star_graph;

    fn fresh() -> SpcIndex {
        let g = star_graph(4);
        SpcIndex::self_labeled(RankMap::build(&g, OrderingStrategy::Degree))
    }

    #[test]
    fn self_labeled_invariants() {
        let idx = fresh();
        idx.check_invariants().unwrap();
        assert_eq!(idx.num_entries(), 4);
        for v in 0..4u32 {
            assert_eq!(idx.label_set(VertexId(v)).len(), 1);
        }
    }

    #[test]
    fn stats_shape() {
        let idx = fresh();
        let s = idx.stats();
        assert_eq!(s.entries, 4);
        assert_eq!(s.packed_bytes, 32);
        assert_eq!(s.max_label_len, 1);
        assert!((s.avg_label_len - 1.0).abs() < 1e-12);
        // Flat snapshot: 16 bytes per entry + (n + 1) u32 offsets.
        assert_eq!(s.flat_bytes, 4 * 16 + 5 * 4);
        // Real footprint: Vec spine + 4 LabelSet headers + ≥ 4 entries of
        // heap — at least the header overhead above the raw entry bytes.
        let floor = std::mem::size_of::<Vec<LabelSet>>()
            + 4 * std::mem::size_of::<LabelSet>()
            + 4 * std::mem::size_of::<LabelEntry>();
        assert!(s.wide_bytes >= floor, "{} < {floor}", s.wide_bytes);
    }

    #[test]
    fn wide_bytes_tracks_capacity_not_length() {
        let mut idx = fresh();
        let before = idx.stats().wide_bytes;
        // Grow then shrink a label set: length returns to 1 but the Vec
        // keeps its grown capacity, and wide_bytes must report it.
        for h in 0..3u32 {
            idx.label_set_mut(VertexId(0))
                .upsert(LabelEntry::new(Rank(h), 1, 1));
        }
        let rank0 = idx.rank(VertexId(0));
        for h in 0..3u32 {
            if Rank(h) != rank0 {
                idx.label_set_mut(VertexId(0)).remove(Rank(h));
            }
        }
        assert_eq!(idx.label_set(VertexId(0)).len(), 1);
        assert!(idx.stats().wide_bytes > before);
    }

    #[test]
    fn add_isolated_vertex_extends_order() {
        let mut idx = fresh();
        idx.append_vertex(VertexId(4));
        assert_eq!(idx.num_vertices(), 5);
        assert_eq!(idx.rank(VertexId(4)), Rank(4));
        idx.check_invariants().unwrap();
    }

    #[test]
    fn invariant_checker_catches_missing_self_label() {
        let mut idx = fresh();
        let r = idx.rank(VertexId(2));
        idx.label_set_mut(VertexId(2)).remove(r);
        assert!(idx.check_invariants().is_err());
    }

    #[test]
    fn invariant_checker_catches_downward_hub() {
        let mut idx = fresh();
        // Hub ranked *lower* than the owner is illegal.
        let low_rank = Rank(3);
        let owner = idx.vertex(Rank(0));
        idx.label_set_mut(owner)
            .upsert(LabelEntry::new(low_rank, 1, 1));
        assert!(idx.check_invariants().is_err());
    }

    #[test]
    fn invariant_checker_catches_infinite_distance() {
        let mut idx = fresh();
        let owner = idx.vertex(Rank(3));
        idx.label_set_mut(owner)
            .upsert(LabelEntry::new(Rank(0), INF_DIST, 1));
        assert!(idx.check_invariants().is_err());
    }

    #[test]
    fn label_of_uses_vertex_identity() {
        let idx = fresh();
        assert!(idx.label_of(VertexId(1), VertexId(1)).is_some());
        assert!(idx.label_of(VertexId(1), VertexId(0)).is_none());
    }
}
