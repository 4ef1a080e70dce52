//! The SPC-Index: per-vertex label sets plus the vertex total order.
//!
//! The structure follows §2.2 exactly: each vertex `v` owns `L(v)`, a set of
//! `(hub, dist, count)` triples obeying the **Exact Shortest Paths Covering**
//! (ESPC) constraint — `spc(s, t)` is computable for every pair from
//! `L(s)` and `L(t)` alone via Equations (1)–(2).

use crate::label::{LabelEntry, LabelSet, Rank, SharedRows};
use crate::order::RankMap;
use dspc_graph::VertexId;
use serde::{Deserialize, Serialize};

/// The SPC-Index of a graph (the paper's `L`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpcIndex {
    /// `labels[v]` = `L(v)`, indexed by vertex id.
    labels: Vec<LabelSet>,
    /// The vertex total order.
    ranks: RankMap,
    /// `hub_counts[r]` = number of label entries across the whole index
    /// whose hub has rank `r` (self labels included). Maintained exactly by
    /// the tracked mutators ([`SpcIndex::upsert_entry`] /
    /// [`SpcIndex::remove_entry`] / [`SpcIndex::reset_vertex_to_self`]);
    /// raw access through [`SpcIndex::label_set_mut`] invalidates the
    /// counts, which are then recomputed on the next
    /// [`SpcIndex::hub_entry_count`] call. The decremental isolated-vertex
    /// fast path (§3.2.3) keys off these counts: emptying `L(x)` is a
    /// complete repair exactly when no other vertex carries an
    /// `(x, ·, ·)` label.
    hub_counts: Vec<u32>,
    /// Whether `hub_counts` is currently exact.
    hub_counts_valid: bool,
}

impl PartialEq for SpcIndex {
    fn eq(&self, other: &Self) -> bool {
        // Hub-count bookkeeping is derived state; equality is label content
        // plus the total order.
        self.labels == other.labels && self.ranks == other.ranks
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
    /// `Vec<LabelSet>` spine plus, per vertex, the `LabelSet` header and
    /// its heap block at *capacity* (not length) — what resident memory
    /// really pays, unlike the old entries-only figure.
    pub wide_bytes: usize,
    /// Bytes a [`crate::flat::FlatIndex`] snapshot of this index occupies:
    /// 16 per entry across the three columns plus one `u32` offset per
    /// vertex (and one terminator).
    pub flat_bytes: usize,
    /// Largest single label set.
    pub max_label_len: usize,
    /// Mean label set size (the paper's `l`).
    pub avg_label_len: f64,
}

impl SpcIndex {
    /// Creates an index whose every vertex has only its self label.
    ///
    /// This is the correct index for an edgeless graph; [`crate::build`]
    /// populates the rest.
    pub fn self_labeled(ranks: RankMap) -> Self {
        let labels: Vec<LabelSet> = (0..ranks.len())
            .map(|v| LabelSet::self_only(ranks.rank(VertexId(v as u32))))
            .collect();
        let n = labels.len();
        SpcIndex {
            labels,
            ranks,
            hub_counts: vec![1; n],
            hub_counts_valid: true,
        }
    }

    /// Number of vertices covered (id-space size).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// The vertex total order.
    #[inline]
    pub fn ranks(&self) -> &RankMap {
        &self.ranks
    }

    /// `L(v)`.
    #[inline]
    pub fn label_set(&self, v: VertexId) -> &LabelSet {
        &self.labels[v.index()]
    }

    /// Raw mutable `L(v)` — wholesale construction/replacement (the
    /// builder, the codec, tests). Invalidates the hub-entry counts; the
    /// update engine uses the tracked mutators below instead.
    #[inline]
    pub fn label_set_mut(&mut self, v: VertexId) -> &mut LabelSet {
        self.hub_counts_valid = false;
        &mut self.labels[v.index()]
    }

    /// Inserts or replaces `(e.hub, ·, ·) ∈ L(v)`, keeping hub-entry
    /// counts exact. Returns the previous entry.
    pub fn upsert_entry(&mut self, v: VertexId, e: LabelEntry) -> Option<LabelEntry> {
        let old = self.labels[v.index()].upsert(e);
        if self.hub_counts_valid && old.is_none() {
            self.hub_counts[e.hub.index()] += 1;
        }
        old
    }

    /// Removes `(hub, ·, ·)` from `L(v)`, keeping hub-entry counts exact.
    pub fn remove_entry(&mut self, v: VertexId, hub: Rank) -> Option<LabelEntry> {
        let old = self.labels[v.index()].remove(hub);
        if self.hub_counts_valid && old.is_some() {
            self.hub_counts[hub.index()] -= 1;
        }
        old
    }

    /// Clears `L(v)` down to a fresh self label (the §3.2.3 isolated-vertex
    /// repair), keeping hub-entry counts exact. Returns how many non-self
    /// entries were dropped.
    pub fn reset_vertex_to_self(&mut self, v: VertexId) -> usize {
        let self_rank = self.ranks.rank(v);
        if self.hub_counts_valid {
            let mut had_self = false;
            for e in self.labels[v.index()].entries() {
                if e.hub == self_rank {
                    had_self = true;
                } else {
                    self.hub_counts[e.hub.index()] -= 1;
                }
            }
            if !had_self {
                self.hub_counts[self_rank.index()] += 1;
            }
        }
        self.labels[v.index()].reset_to_self(self_rank)
    }

    /// Publishes the labels for readers: every row written since the last
    /// publish becomes an immutable shared row, and one handle per vertex
    /// comes back. Costs `O(n)` handle clones plus one copy of each
    /// written row; a row untouched since the last publish is already
    /// shared, so no dirty list is needed. The next write to a published
    /// row copies it first (see [`LabelSet`]). Label content, and with it
    /// the hub-entry counts, is unchanged.
    pub fn publish(&mut self) -> SharedRows<LabelEntry> {
        SharedRows::publish(&mut self.labels)
    }

    /// Number of label entries anywhere in the index whose hub has rank
    /// `r` (including the hub vertex's own self label). Recomputes the
    /// counts first if raw mutation invalidated them.
    pub fn hub_entry_count(&mut self, r: Rank) -> u32 {
        if !self.hub_counts_valid {
            self.hub_counts.clear();
            self.hub_counts.resize(self.ranks.len(), 0);
            for ls in &self.labels {
                for e in ls.entries() {
                    self.hub_counts[e.hub.index()] += 1;
                }
            }
            self.hub_counts_valid = true;
        }
        self.hub_counts[r.index()]
    }

    /// Rank of `v` (convenience).
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.ranks.rank(v)
    }

    /// Vertex at `r` (convenience).
    #[inline]
    pub fn vertex(&self, r: Rank) -> VertexId {
        self.ranks.vertex(r)
    }

    /// Swaps the vertices at ranks `r` and `r + 1` **without touching any
    /// label storage**: the rank map's two positions trade occupants. Both
    /// label entries and hub-entry counts are keyed by *rank*, so neither
    /// moves — but every entry at the two ranks now attributes its paths
    /// to the wrong hub vertex, which is why the caller
    /// ([`crate::reorder`]) purges both ranks' entries before the swap and
    /// re-pushes both hubs after it. This method only performs the O(1)
    /// order remap.
    pub fn swap_adjacent_ranks(&mut self, r: Rank) {
        self.ranks.swap_adjacent(r);
    }

    /// Registers a freshly added isolated vertex: appends it at the lowest
    /// rank with a self label. This is the paper's entire incremental
    /// handling of vertex insertion (§3): an isolated vertex affects no
    /// other label.
    pub fn add_isolated_vertex(&mut self, v: VertexId) {
        let r = self.ranks.append_vertex(v);
        self.labels.push(LabelSet::self_only(r));
        self.hub_counts.push(1);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> IndexStats {
        let entries: usize = self.labels.iter().map(LabelSet::len).sum();
        let max = self.labels.iter().map(LabelSet::len).max().unwrap_or(0);
        let n = self.labels.len();
        IndexStats {
            entries,
            packed_bytes: entries * 8,
            wide_bytes: std::mem::size_of::<Vec<LabelSet>>()
                + self
                    .labels
                    .iter()
                    .map(LabelSet::memory_byte_size)
                    .sum::<usize>(),
            flat_bytes: entries * 16 + (n + 1) * 4,
            max_label_len: max,
            avg_label_len: if n == 0 {
                0.0
            } else {
                entries as f64 / n as f64
            },
        }
    }

    /// Structural invariants: every label set strictly sorted, every vertex
    /// carries its self label, every entry's hub ranks at least as high as
    /// the owner (labels only point "up" the order), counts positive.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.ranks.validate() {
            return Err("rank map is not a bijection".into());
        }
        for (vi, ls) in self.labels.iter().enumerate() {
            let v = VertexId(vi as u32);
            if !ls.is_sorted_strict() {
                return Err(format!("L({v}) not strictly sorted by hub rank"));
            }
            let self_rank = self.ranks.rank(v);
            match ls.get(self_rank) {
                Some(e) if e.dist == 0 && e.count == 1 => {}
                Some(e) => {
                    return Err(format!(
                        "self label of {v} malformed: dist={} count={}",
                        e.dist, e.count
                    ))
                }
                None => return Err(format!("missing self label of {v}")),
            }
            for e in ls.entries() {
                if e.hub > self_rank {
                    return Err(format!(
                        "L({v}) contains hub ranked lower than the owner: {:?}",
                        e.hub
                    ));
                }
                if e.count == 0 {
                    return Err(format!("zero-count label in L({v}): hub {:?}", e.hub));
                }
                if e.hub == self_rank && e.dist != 0 {
                    return Err(format!("nonzero self distance at {v}"));
                }
            }
        }
        Ok(())
    }

    /// Total entries (shorthand used in experiments).
    pub fn num_entries(&self) -> usize {
        self.labels.iter().map(LabelSet::len).sum()
    }

    /// Convenience accessor: the entry `(h, d, c) ∈ L(v)` for hub vertex
    /// `h`, if present.
    pub fn label_of(&self, v: VertexId, hub_vertex: VertexId) -> Option<&LabelEntry> {
        self.labels[v.index()].get(self.ranks.rank(hub_vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        idx.add_isolated_vertex(VertexId(4));
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
    fn label_of_uses_vertex_identity() {
        let idx = fresh();
        assert!(idx.label_of(VertexId(1), VertexId(1)).is_some());
        assert!(idx.label_of(VertexId(1), VertexId(0)).is_none());
    }
}
