//! Label entries and per-vertex label sets — the building blocks of the
//! SPC-Index (§2.2).
//!
//! A label `(h, d, c) ∈ L(v)` states: the shortest distance from hub `h` to
//! `v` is `d`, and `c = spc(ĥ, v)` — the number of shortest `h`–`v` paths on
//! which `h` is the highest-ranked vertex. Hubs are stored as **ranks**
//! (position in the total order, `0` = highest) so rank comparisons are
//! plain integer compares and label sets merge in rank order.
//!
//! The paper packs each entry into a 64-bit integer (25 bits hub, 10 bits
//! distance, 29 bits count — §4.1). The in-memory working set uses full-width
//! fields (web-scale counts overflow 29 bits on adversarial inputs); the
//! packed form is provided for storage parity and serialization.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A position in the vertex total order; `Rank(0)` is the highest rank.
///
/// The paper writes `v ≤ u` for "`v` ranks at least as high as `u`"; here
/// that is simply `rank(v).0 <= rank(u).0`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Rank(pub u32);

impl Rank {
    /// Index view.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Distance sentinel meaning "unreachable".
pub const INF_DIST: u32 = u32::MAX;

/// Shortest-path count. All arithmetic on counts is saturating: counts grow
/// exponentially with graph size in the worst case and a saturated count
/// still orders correctly for the applications (ranking, betweenness).
pub type Count = u64;

/// One hub label `(hub, dist, count)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LabelEntry {
    /// Rank of the hub vertex.
    pub hub: Rank,
    /// Shortest distance from the hub.
    pub dist: u32,
    /// `spc(ĥ, v)`: shortest paths on which the hub is the highest-ranked
    /// vertex.
    pub count: Count,
}

impl LabelEntry {
    /// Convenience constructor.
    #[inline]
    pub fn new(hub: Rank, dist: u32, count: Count) -> Self {
        LabelEntry { hub, dist, count }
    }
}

/// Bit widths of the paper's packed encoding (§4.1): 25-bit hub, 10-bit
/// distance, 29-bit count.
pub mod packed {
    use super::{Count, LabelEntry, Rank};

    /// Bits for the hub field.
    pub const HUB_BITS: u32 = 25;
    /// Bits for the distance field.
    pub const DIST_BITS: u32 = 10;
    /// Bits for the count field.
    pub const COUNT_BITS: u32 = 29;

    /// Maximum hub rank representable.
    pub const MAX_HUB: u32 = (1 << HUB_BITS) - 1;
    /// Maximum distance representable.
    pub const MAX_DIST: u32 = (1 << DIST_BITS) - 1;
    /// Maximum count representable; larger counts saturate.
    pub const MAX_COUNT: u64 = (1 << COUNT_BITS) - 1;

    /// A label entry packed into one 64-bit word, exactly as the paper's
    /// implementation stores it.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct PackedLabel(pub u64);

    /// Packs an entry. Distance and hub must fit their fields; the count
    /// saturates at [`MAX_COUNT`].
    ///
    /// # Errors
    /// Returns `None` when the hub or distance exceeds its field width
    /// (the caller decides whether to fall back to the wide format).
    pub fn pack(e: LabelEntry) -> Option<PackedLabel> {
        if e.hub.0 > MAX_HUB || e.dist > MAX_DIST {
            return None;
        }
        let count = e.count.min(MAX_COUNT);
        Some(PackedLabel(
            ((e.hub.0 as u64) << (DIST_BITS + COUNT_BITS))
                | ((e.dist as u64) << COUNT_BITS)
                | count,
        ))
    }

    /// Unpacks an entry.
    pub fn unpack(p: PackedLabel) -> LabelEntry {
        LabelEntry {
            hub: Rank((p.0 >> (DIST_BITS + COUNT_BITS)) as u32 & MAX_HUB),
            dist: (p.0 >> COUNT_BITS) as u32 & MAX_DIST,
            count: (p.0 & MAX_COUNT) as Count,
        }
    }
}

/// Distance field of a label entry: `u32` hop counts for the unweighted
/// variants, `u64` accumulated weights for the weighted one. Implemented
/// for exactly those two types.
pub trait LabelDist: Copy + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// The "unreachable" sentinel ([`INF_DIST`] /
    /// [`dspc_graph::weighted::WDIST_INF`]).
    const INF: Self;
    /// The zero distance (a hub's self label, a sweep's seed).
    const ZERO: Self;
    /// Saturating addition, so an unreachable side stays unreachable.
    fn sat_add(self, other: Self) -> Self;
}

impl LabelDist for u32 {
    const INF: Self = INF_DIST;
    const ZERO: Self = 0;
    #[inline]
    fn sat_add(self, other: Self) -> Self {
        self.saturating_add(other)
    }
}

impl LabelDist for u64 {
    const INF: Self = dspc_graph::weighted::WDIST_INF;
    const ZERO: Self = 0;
    #[inline]
    fn sat_add(self, other: Self) -> Self {
        self.saturating_add(other)
    }
}

/// A hub label `(hub, dist, count)` over some distance type: what a
/// [`LabelRow`] stores and the query kernel reads. Implemented by
/// [`LabelEntry`] and the weighted `WLabelEntry`.
pub trait HubEntry: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// The distance field's type.
    type Dist: LabelDist;
    /// Rank of the hub vertex.
    fn hub(&self) -> Rank;
    /// Shortest distance from the hub.
    fn dist(&self) -> Self::Dist;
    /// Shortest paths on which the hub is the highest-ranked vertex.
    fn count(&self) -> Count;
    /// The entry `(hub, dist, count)`.
    fn new(hub: Rank, dist: Self::Dist, count: Count) -> Self;
    /// The self label `(rank, 0, 1)`.
    fn self_label(rank: Rank) -> Self {
        Self::new(rank, Self::Dist::ZERO, 1)
    }
}

impl HubEntry for LabelEntry {
    type Dist = u32;
    #[inline]
    fn hub(&self) -> Rank {
        self.hub
    }
    #[inline]
    fn dist(&self) -> u32 {
        self.dist
    }
    #[inline]
    fn count(&self) -> Count {
        self.count
    }
    #[inline]
    fn new(hub: Rank, dist: u32, count: Count) -> Self {
        LabelEntry { hub, dist, count }
    }
}

/// A vertex's label row `L(v)`: entries sorted by hub rank ascending
/// (highest-ranked hub first), unique hubs.
///
/// Sorted order gives `O(log l)` point lookups, `O(l_s + l_t)` merge
/// queries, and a natural prefix for the paper's `PreQUERY` (stop at the
/// first hub not higher-ranked than the query source).
///
/// Rows are stored copy-on-write. While the writer mutates a row it owns a
/// `Vec`; the indexes' publish step ([`SharedRows::publish`]) turns it
/// into an immutable `Arc<[E]>` that published snapshots hold too.
/// The first mutation after that copies the row back into an owned `Vec`,
/// so a snapshot never observes a later write, and a row nobody wrote
/// since the last publish is handed out again without a copy. Mutators
/// that would leave the row unchanged (upserting an identical entry,
/// removing an absent hub) do not copy. A thawed snapshot
/// ([`crate::flat::Snapshot::thaw`]) hands its rows to the index shared in
/// the same way, so the rows of a decoded file are copied only on their
/// first write. Either form is 24 bytes, the size of a bare `Vec`.
pub struct LabelRow<E> {
    row: Row<E>,
}

enum Row<E> {
    Owned(Vec<E>),
    Shared(Arc<[E]>),
}

/// The unweighted label row (undirected `L(v)`, directed `L_in` / `L_out`).
pub type LabelSet = LabelRow<LabelEntry>;

impl<E> Default for LabelRow<E> {
    fn default() -> Self {
        LabelRow {
            row: Row::Owned(Vec::new()),
        }
    }
}

impl<E> From<Arc<[E]>> for LabelRow<E> {
    /// A row shared with `shared`'s other holders until its first write.
    fn from(shared: Arc<[E]>) -> Self {
        LabelRow {
            row: Row::Shared(shared),
        }
    }
}

impl<E: Clone> Clone for LabelRow<E> {
    fn clone(&self) -> Self {
        let row = match &self.row {
            Row::Owned(v) => Row::Owned(v.clone()),
            Row::Shared(a) => Row::Shared(Arc::clone(a)),
        };
        LabelRow { row }
    }
}

impl<E: HubEntry> PartialEq for LabelRow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl<E: HubEntry + Eq> Eq for LabelRow<E> {}

impl<E: HubEntry> std::fmt::Debug for LabelRow<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.entries()).finish()
    }
}

impl<E: HubEntry> LabelRow<E> {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Row containing only the self label `(rank, 0, 1)` — every vertex
    /// carries its own hub (Table 2's diagonal).
    pub fn self_only(rank: Rank) -> Self {
        LabelRow {
            row: Row::Owned(vec![E::self_label(rank)]),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the row is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Sorted entry slice.
    #[inline]
    pub fn entries(&self) -> &[E] {
        match &self.row {
            Row::Owned(v) => v,
            Row::Shared(a) => a,
        }
    }

    /// Whether the row is currently shared with published snapshots (the
    /// next mutation copies it).
    #[cfg(test)]
    fn is_shared(&self) -> bool {
        matches!(self.row, Row::Shared(_))
    }

    /// The owned entries, copying a shared row first.
    fn owned(&mut self) -> &mut Vec<E> {
        if let Row::Shared(shared) = &self.row {
            // One slot of headroom: the commonest first write is an insert.
            let mut v = Vec::with_capacity(shared.len() + 1);
            v.extend_from_slice(shared);
            self.row = Row::Owned(v);
        }
        match &mut self.row {
            Row::Owned(v) => v,
            Row::Shared(_) => unreachable!("row was just made owned"),
        }
    }

    /// Publishes the row: an owned row becomes an immutable shared one.
    /// Returns the shared handle and whether this call made it (copying
    /// the row once); a row untouched since its last publication is
    /// handed out again as is.
    fn share(&mut self) -> (Arc<[E]>, bool) {
        let mut copied = false;
        if let Row::Owned(v) = &mut self.row {
            let shared: Arc<[E]> = std::mem::take(v).into();
            self.row = Row::Shared(shared);
            copied = true;
        }
        match &self.row {
            Row::Shared(a) => (Arc::clone(a), copied),
            Row::Owned(_) => unreachable!("row was just shared"),
        }
    }

    /// Where `hub` is (`Ok`) or would be inserted (`Err`). A hub ranked
    /// below every entry skips the binary search: construction pushes hubs
    /// in rank order, so each of its lookups and inserts lands there.
    #[inline]
    fn search(&self, hub: Rank) -> Result<usize, usize> {
        let entries = self.entries();
        match entries.last() {
            Some(last) if last.hub() >= hub => entries.binary_search_by_key(&hub, |e| e.hub()),
            _ => Err(entries.len()),
        }
    }

    /// Position of `hub`, if present.
    #[inline]
    pub fn position(&self, hub: Rank) -> Option<usize> {
        self.search(hub).ok()
    }

    /// Entry for `hub`, if present.
    #[inline]
    pub fn get(&self, hub: Rank) -> Option<&E> {
        self.position(hub).map(|i| &self.entries()[i])
    }

    /// Whether `hub` labels this vertex (the paper's `h ∈ L(v)`).
    #[inline]
    pub fn contains(&self, hub: Rank) -> bool {
        self.position(hub).is_some()
    }

    /// Inserts or replaces the entry for `e.hub()`. Returns the previous
    /// entry if one existed.
    pub fn upsert(&mut self, e: E) -> Option<E> {
        match self.search(e.hub()) {
            Ok(i) if self.entries()[i] == e => Some(e),
            Ok(i) => Some(std::mem::replace(&mut self.owned()[i], e)),
            Err(i) => {
                self.owned().insert(i, e);
                None
            }
        }
    }

    /// Removes the entry for `hub`, returning it if present.
    pub fn remove(&mut self, hub: Rank) -> Option<E> {
        let i = self.position(hub)?;
        Some(self.owned().remove(i))
    }

    /// Clears all entries except a fresh self label — used by the isolated
    /// vertex deletion optimization (§3.2.3). Returns how many non-self
    /// entries were dropped.
    pub fn reset_to_self(&mut self, rank: Rank) -> usize {
        let fresh = E::self_label(rank);
        if self.entries() == [fresh] {
            return 0;
        }
        // One binary search instead of a full counting pass: everything
        // drops except a present self label.
        let dropped = self.len() - usize::from(self.contains(rank));
        self.clear_all();
        self.owned().push(fresh);
        dropped
    }

    /// Removes every entry, self label included (a row about to be
    /// restored from scratch).
    pub fn clear_all(&mut self) {
        match &mut self.row {
            Row::Owned(v) => v.clear(),
            Row::Shared(_) => self.row = Row::Owned(Vec::new()),
        }
    }

    /// Actual in-memory footprint of this row: the `LabelRow` itself plus
    /// the heap block behind it. An owned row's block is sized by
    /// *capacity*, not length — after churn-heavy maintenance capacity
    /// routinely exceeds length. A shared row's block is exact, plus the
    /// two reference counts (and may be shared with published snapshots).
    #[inline]
    pub fn memory_byte_size(&self) -> usize {
        let heap = match &self.row {
            Row::Owned(v) => v.capacity() * std::mem::size_of::<E>(),
            Row::Shared(a) => a.len() * std::mem::size_of::<E>() + 2 * std::mem::size_of::<usize>(),
        };
        std::mem::size_of::<Self>() + heap
    }

    /// Structural invariants: strictly increasing hub ranks.
    pub fn is_sorted_strict(&self) -> bool {
        self.entries().windows(2).all(|w| w[0].hub() < w[1].hub())
    }
}

/// The rules every stored row obeys: hubs strictly ascending, the owner's
/// self label `(owner, 0, 1)` present, no hub ranked below the owner (so
/// every hub ranks inside the index's rank space), finite distances (the
/// hub probe reads an `INF` slot as "hub absent") and non-zero counts.
/// [`crate::index::LabelIndex::check_invariants`] applies them to every
/// row, and the codec to every decoded one, so a damaged file is rejected
/// instead of reaching the query kernels. The error names the first rule
/// broken.
pub(crate) fn check_row<E: HubEntry>(entries: &[E], owner: Rank) -> Result<(), String> {
    if entries.windows(2).any(|w| w[0].hub() >= w[1].hub()) {
        return Err("not strictly sorted by hub rank".into());
    }
    match entries.binary_search_by_key(&owner, |e| e.hub()) {
        Ok(i) if entries[i] == E::self_label(owner) => {}
        Ok(i) => return Err(format!("malformed self label {:?}", entries[i])),
        Err(_) => return Err("missing its self label".into()),
    }
    for e in entries {
        if e.hub() > owner {
            return Err(format!("holds a hub ranked below it: {e:?}"));
        }
        if e.dist() == E::Dist::INF {
            return Err(format!("holds an infinite distance: {e:?}"));
        }
        if e.count() == 0 {
            return Err(format!("holds a zero count: {e:?}"));
        }
    }
    Ok(())
}

/// One label family as published to readers: an immutable shared handle
/// per vertex, produced by an index's publish step (sharing every row
/// written since the previous publish), by a copying constructor, or by
/// the decoder. Two families are equal when their rows hold the same
/// entries.
#[derive(Clone, Debug)]
pub struct SharedRows<E> {
    rows: Vec<Arc<[E]>>,
    copied: usize,
}

impl<E: HubEntry> PartialEq for SharedRows<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl<E: HubEntry> SharedRows<E> {
    /// Publishes `rows` in place: owned rows become shared, and every row
    /// contributes one handle. Costs one handle clone per row plus one
    /// copy of each row written since the last publish.
    pub fn publish(rows: &mut [LabelRow<E>]) -> Self {
        let mut copied = 0;
        let rows = rows
            .iter_mut()
            .map(|row| {
                let (shared, fresh) = row.share();
                copied += usize::from(fresh);
                shared
            })
            .collect();
        SharedRows { rows, copied }
    }

    /// Takes each row as a fresh allocation (freezes that must not touch
    /// the live index, the decoder, tests).
    pub fn copied_from<R: Into<Arc<[E]>>>(rows: impl Iterator<Item = R>) -> Self {
        let rows: Vec<Arc<[E]>> = rows.map(Into::into).collect();
        let copied = rows.len();
        SharedRows { rows, copied }
    }

    /// The same rows under a second handle each: nothing is copied.
    pub(crate) fn reshared(&self) -> Self {
        SharedRows {
            rows: self.rows.clone(),
            copied: 0,
        }
    }

    /// Vertex `v`'s sorted entries.
    #[inline]
    pub fn row(&self, v: usize) -> &[E] {
        &self.rows[v]
    }

    /// Vertex `v`'s shared handle (pointer identity shows sharing).
    pub fn handle(&self, v: usize) -> &Arc<[E]> {
        &self.rows[v]
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Total entries across all rows.
    pub fn num_entries(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// Rows this family copied when it was made; the rest are shared with
    /// the previous publication.
    pub fn rows_copied(&self) -> usize {
        self.copied
    }

    /// Bytes the family occupies in the columnar (v2 file) layout: a
    /// 4-byte hub, the distance and an 8-byte count per entry, plus one
    /// `u32` offset per vertex and a terminator.
    pub fn column_bytes(&self) -> usize {
        let per_entry = 4 + std::mem::size_of::<E::Dist>() + 8;
        self.num_entries() * per_entry + (self.rows.len() + 1) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(h: u32, d: u32, c: Count) -> LabelEntry {
        LabelEntry::new(Rank(h), d, c)
    }

    #[test]
    fn self_only_set() {
        let l = LabelSet::self_only(Rank(5));
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(Rank(5)), Some(&e(5, 0, 1)));
        assert!(l.is_sorted_strict());
    }

    #[test]
    fn upsert_keeps_order_and_replaces() {
        let mut l = LabelSet::new();
        assert_eq!(l.upsert(e(4, 2, 1)), None);
        assert_eq!(l.upsert(e(1, 3, 2)), None);
        assert_eq!(l.upsert(e(9, 1, 1)), None);
        assert!(l.is_sorted_strict());
        assert_eq!(l.upsert(e(4, 5, 7)), Some(e(4, 2, 1)));
        assert_eq!(l.get(Rank(4)), Some(&e(4, 5, 7)));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn remove_entry() {
        let mut l = LabelSet::new();
        l.upsert(e(1, 1, 1));
        l.upsert(e(2, 2, 2));
        assert_eq!(l.remove(Rank(1)), Some(e(1, 1, 1)));
        assert_eq!(l.remove(Rank(1)), None);
        assert_eq!(l.len(), 1);
        assert!(!l.contains(Rank(1)));
        assert!(l.contains(Rank(2)));
    }

    #[test]
    fn reset_to_self_counts_drops() {
        let mut l = LabelSet::new();
        l.upsert(e(0, 1, 1));
        l.upsert(e(2, 2, 3));
        l.upsert(e(5, 0, 1));
        assert_eq!(l.reset_to_self(Rank(5)), 2);
        assert_eq!(l.entries(), &[e(5, 0, 1)]);
    }

    #[test]
    fn row_is_the_size_of_a_vec() {
        let vec = std::mem::size_of::<Vec<LabelEntry>>();
        assert_eq!(std::mem::size_of::<LabelSet>(), vec);
        assert_eq!(
            std::mem::size_of::<LabelRow<crate::weighted::WLabelEntry>>(),
            vec
        );
    }

    #[test]
    fn first_write_after_share_copies_once() {
        let mut l = LabelSet::self_only(Rank(5));
        l.upsert(e(1, 2, 3));
        let (first, copied) = l.share();
        assert!(copied && l.is_shared());
        // Untouched since the last share: the same allocation again.
        let (again, copied) = l.share();
        assert!(!copied && Arc::ptr_eq(&first, &again));
        // No-op writes keep sharing.
        assert_eq!(l.upsert(e(1, 2, 3)), Some(e(1, 2, 3)));
        assert_eq!(l.remove(Rank(0)), None);
        assert!(l.is_shared());
        // A real write copies; the published row does not see it.
        assert_eq!(l.upsert(e(1, 1, 1)), Some(e(1, 2, 3)));
        assert!(!l.is_shared());
        assert_eq!(&first[..], &[e(1, 2, 3), e(5, 0, 1)]);
        assert_eq!(l.entries(), &[e(1, 1, 1), e(5, 0, 1)]);
        let (next, copied) = l.share();
        assert!(copied && !Arc::ptr_eq(&first, &next));
    }

    #[test]
    fn every_mutator_copies_a_shared_row() {
        let mut base = LabelSet::self_only(Rank(5));
        base.upsert(e(1, 2, 3));
        let (published, _) = base.share();
        let writes: [fn(&mut LabelSet); 4] = [
            |l| {
                l.upsert(e(0, 1, 1));
            },
            |l| {
                l.remove(Rank(1));
            },
            |l| {
                l.reset_to_self(Rank(5));
            },
            |l| l.clear_all(),
        ];
        for write in writes {
            let mut l = base.clone();
            assert!(l.is_shared());
            write(&mut l);
            assert!(!l.is_shared());
            assert_eq!(&published[..], &[e(1, 2, 3), e(5, 0, 1)]);
        }
        // Equality is by content, whatever the storage.
        let mut owned = LabelSet::new();
        owned.upsert(e(1, 2, 3));
        owned.upsert(e(5, 0, 1));
        assert_eq!(owned, base);
    }

    #[test]
    fn publish_counts_only_written_rows() {
        let mut rows: Vec<LabelSet> = (0..4).map(|r| LabelSet::self_only(Rank(r))).collect();
        let first = SharedRows::publish(&mut rows);
        assert_eq!(first.rows_copied(), 4);
        rows[2].upsert(e(0, 1, 1));
        let second = SharedRows::publish(&mut rows);
        assert_eq!(second.rows_copied(), 1);
        for v in 0..4 {
            assert_eq!(Arc::ptr_eq(first.handle(v), second.handle(v)), v != 2);
        }
        assert_eq!(second.num_entries(), 5);
        assert_eq!(second.row(2), &[e(0, 1, 1), e(2, 0, 1)]);
    }

    #[test]
    fn packed_round_trip() {
        let entry = e(123_456, 731, 400_000_000);
        let p = packed::pack(entry).unwrap();
        assert_eq!(packed::unpack(p), entry);
    }

    #[test]
    fn packed_saturates_count() {
        let entry = e(1, 1, u64::MAX);
        let p = packed::pack(entry).unwrap();
        assert_eq!(packed::unpack(p).count, packed::MAX_COUNT);
    }

    #[test]
    fn packed_rejects_oversized_fields() {
        assert!(packed::pack(e(packed::MAX_HUB + 1, 0, 0)).is_none());
        assert!(packed::pack(e(0, packed::MAX_DIST + 1, 0)).is_none());
        assert!(packed::pack(e(packed::MAX_HUB, packed::MAX_DIST, 1)).is_some());
    }

    #[test]
    fn packed_extremes_round_trip() {
        let entry = e(packed::MAX_HUB, packed::MAX_DIST, packed::MAX_COUNT);
        assert_eq!(packed::unpack(packed::pack(entry).unwrap()), entry);
        let zero = e(0, 0, 0);
        assert_eq!(packed::unpack(packed::pack(zero).unwrap()), zero);
    }
}
