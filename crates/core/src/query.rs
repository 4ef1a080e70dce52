//! Query evaluation: `SpcQUERY` (Algorithm 1), `PreQUERY` (§3.2.2), and the
//! hub-probe fast path behind the update algorithms and the serving
//! readers.
//!
//! `SpcQUERY(s, t)` merges `L(s)` and `L(t)` by hub rank; among common hubs
//! it keeps the minimum `sd(h,s) + sd(h,t)` and accumulates
//! `Σ σ(h,s)·σ(h,t)` over hubs attaining it (Equations (1)–(2)).
//!
//! `PreQUERY(s, t)` is identical but stops at the first hub not strictly
//! higher-ranked than `s` — it upper-bounds `sd(s, t)` using only hubs the
//! decremental update has already repaired (processing is in descending
//! rank order, so those labels are trustworthy).
//!
//! [`HubProbe`] answers the same query by scattering one row into
//! rank-indexed arrays and scanning the other, as pruned landmark labeling
//! does inside its pruned BFS (Akiba, Iwata & Yoshida, SIGMOD 2013). Every
//! sweep step of construction, IncSPC and DecSPC probes through it. The
//! classification sweeps need the count for condition **B**, so they run
//! the counting query; the label-writing sweeps need only the prune verdict
//! (is some hub's path strictly shorter than the sweep's?), and
//! [`HubProbe::certifies_shorter`] leaves the scan at the first hub that
//! witnesses it, as pruned landmark labeling does. Every serving read goes
//! through the probe too: a [`RowPin`] keeps a reader's last source row
//! loaded, so consecutive queries from one source scan only `L(t)`. Its
//! counted scan reports the merge's own [`KernelCounters`], so the two paths
//! are interchangeable under the exact counter gates.

use crate::flat::KernelCounters;
use crate::index::SpcIndex;
use crate::label::{
    Count, HubEntry, LabelDist, LabelEntry, Rank, RowKey, RowRef, SharedRows, INF_DIST,
};
use dspc_graph::VertexId;
use std::sync::Arc;

/// Result of a shortest-path-counting query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Shortest distance, [`INF_DIST`] when disconnected.
    pub dist: u32,
    /// Number of shortest paths (0 when disconnected).
    pub count: Count,
}

impl QueryResult {
    /// The "no path" result.
    pub const DISCONNECTED: QueryResult = QueryResult {
        dist: INF_DIST,
        count: 0,
    };

    /// Whether a path exists.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.dist != INF_DIST
    }

    /// `(dist, count)` as an `Option`, `None` when disconnected.
    #[inline]
    pub fn as_option(&self) -> Option<(u32, Count)> {
        self.is_connected().then_some((self.dist, self.count))
    }
}

impl From<(u32, Count)> for QueryResult {
    fn from((dist, count): (u32, Count)) -> Self {
        QueryResult { dist, count }
    }
}

/// The one label-merge kernel behind every query path — live and published
/// rows of all three variants. It merges the keys of two rows sorted by
/// hub rank; among common hubs it keeps the minimum `d_a + d_b` and
/// accumulates `Σ c_a · c_b` over the hubs attaining it (Equations
/// (1)–(2)), all with saturating arithmetic. A count is read only at a
/// common hub that attains the minimum so far.
///
/// `LIMITED` stops at the first hub not strictly above `limit`
/// (`PreQUERY`); `COUNTED` tallies the deterministic work units into
/// `counters`: one `merge_steps` per loop iteration that passed the limit
/// check and one `common_hubs` per equal-hub hit. Both are const so the
/// production path compiles without either test.
#[inline]
pub(crate) fn merge<E: HubEntry, const LIMITED: bool, const COUNTED: bool>(
    a: RowRef<'_, E>,
    b: RowRef<'_, E>,
    limit: Rank,
    counters: &mut KernelCounters,
) -> (E::Dist, Count) {
    let inf = E::Dist::INF;
    let (ka, kb) = (a.keys(), b.keys());
    // As long as the keys, so an index the loop bounds needs no check.
    let (ca, cb) = (&a.counts()[..ka.len()], &b.counts()[..kb.len()]);
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = inf;
    let mut count: Count = 0;
    let (mut steps, mut common) = (0u64, 0u64);
    while i < ka.len() && j < kb.len() {
        let (x, y) = (ka[i].hub(), kb[j].hub());
        if LIMITED && (x >= limit || y >= limit) {
            // Sorted ascending: once either side's head reaches the limit,
            // no common hub strictly above the limit remains.
            break;
        }
        if COUNTED {
            steps += 1;
        }
        if x == y {
            if COUNTED {
                common += 1;
            }
            let d = ka[i].dist().sat_add(kb[j].dist());
            if d < best {
                best = d;
                count = ca[i].saturating_mul(cb[j]);
            } else if d == best && d != inf {
                count = count.saturating_add(ca[i].saturating_mul(cb[j]));
            }
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
    if COUNTED {
        counters.queries += 1;
        counters.merge_steps += steps;
        counters.common_hubs += common;
    }
    (best, count)
}

/// `SpcQUERY` over two rows.
#[inline]
pub(crate) fn query_rows<E: HubEntry>(a: RowRef<'_, E>, b: RowRef<'_, E>) -> (E::Dist, Count) {
    merge::<E, false, false>(a, b, Rank(0), &mut KernelCounters::new())
}

/// `PreQUERY` over two rows: hubs ranked strictly above `limit` only.
#[inline]
pub(crate) fn pre_query_rows<E: HubEntry>(
    a: RowRef<'_, E>,
    b: RowRef<'_, E>,
    limit: Rank,
) -> (E::Dist, Count) {
    merge::<E, true, false>(a, b, limit, &mut KernelCounters::new())
}

/// Counted `SpcQUERY` over two rows.
#[inline]
pub(crate) fn counted_query_rows<E: HubEntry>(
    a: RowRef<'_, E>,
    b: RowRef<'_, E>,
    counters: &mut KernelCounters,
) -> (E::Dist, Count) {
    merge::<E, false, true>(a, b, Rank(0), counters)
}

/// `SpcQUERY(s, t)` — Algorithm 1. Returns the shortest distance and the
/// exact number of shortest paths, or [`QueryResult::DISCONNECTED`].
pub fn spc_query(index: &SpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = query_rows(index.label_set(s).view(), index.label_set(t).view());
    QueryResult { dist, count }
}

/// [`spc_query`] with the kernel's deterministic work units tallied into
/// `counters` — same result, plus `merge_steps` (loop iterations) and
/// `common_hubs` (equal-hub hits). The `bench_smoke` query phase compares
/// these against the flat-snapshot kernel's counters.
pub fn spc_query_counted(
    index: &SpcIndex,
    counters: &mut KernelCounters,
    s: VertexId,
    t: VertexId,
) -> QueryResult {
    let (dist, count) = counted_query_rows(
        index.label_set(s).view(),
        index.label_set(t).view(),
        counters,
    );
    QueryResult { dist, count }
}

/// `PreQUERY(s, t)` — `SpcQUERY` restricted to hubs strictly higher-ranked
/// than `s` (§3.2.2: "the addition of the line *if h = s then break*").
///
/// ```
/// use dspc::{build_index, pre_query, spc_query, OrderingStrategy};
/// use dspc_graph::{UndirectedGraph, VertexId};
///
/// // Path a — b — c; b has the highest degree, hence the highest rank.
/// let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// let idx = build_index(&g, OrderingStrategy::Degree);
/// assert_eq!(spc_query(&idx, VertexId(0), VertexId(2)).as_option(), Some((2, 1)));
///
/// // PreQUERY(s, t) only consults hubs ranked *strictly above* s, so it
/// // upper-bounds sd(s, t). From a it may use hub b: the bound is exact.
/// assert_eq!(pre_query(&idx, VertexId(0), VertexId(1)).as_option(), Some((1, 1)));
/// // From b itself no hub ranks strictly higher — the bound degenerates
/// // to "disconnected" even though b — c are adjacent.
/// assert!(!pre_query(&idx, VertexId(1), VertexId(2)).is_connected());
/// ```
pub fn pre_query(index: &SpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = pre_query_rows(
        index.label_set(s).view(),
        index.label_set(t).view(),
        index.rank(s),
    );
    QueryResult { dist, count }
}

/// Fast repeated queries against one pinned hub-side label row, over any
/// entry type (`u32` hop or `u64` weighted distances).
///
/// Loading `L(h)` scatters its entries into rank-indexed arrays; each
/// subsequent query then scans only `L(v)` — `O(|L(v)|)` instead of
/// `O(|L(h)| + |L(v)|)`. Every sweep step of construction, IncSPC and
/// DecSPC probes it, so this is the reproduction's hottest path: the
/// classification sweeps through the counting [`query`](Self::query), the
/// label-writing sweeps through the early-exit
/// [`certifies_shorter`](Self::certifies_shorter), which reads only the
/// row's `(hub, dist)` keys. The counting scans read a count of `L(v)`
/// only at a probe hit.
///
/// Loading is sound for the duration of one rooted sweep: the sweep for
/// hub `h` only rewrites `(h, ·, ·)` entries in *other* vertices' label
/// sets, never the pinned `L(h)` itself (see module tests).
///
/// A slot holding the distance sentinel `INF` means "hub absent", so a
/// stored entry must never carry `INF`; the indexes' `check_invariants`
/// reject one.
#[derive(Clone, Debug)]
pub struct HubProbe<E: HubEntry = LabelEntry> {
    dist: Vec<E::Dist>,
    count: Vec<Count>,
    /// The pinned row's hubs, in row order (ascending rank).
    loaded: Vec<Rank>,
}

impl<E: HubEntry> Default for HubProbe<E> {
    /// An empty probe: nothing allocated until the first load.
    fn default() -> Self {
        HubProbe::new(0)
    }
}

impl<E: HubEntry> HubProbe<E> {
    /// Creates a probe for rank spaces up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        HubProbe {
            dist: vec![E::Dist::INF; capacity],
            count: vec![0; capacity],
            loaded: Vec::new(),
        }
    }

    /// Grows the probe if the rank space expanded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.dist.len() < capacity {
            self.dist.resize(capacity, E::Dist::INF);
            self.count.resize(capacity, 0);
        }
    }

    /// Unloads the previous pin.
    pub fn clear(&mut self) {
        for &r in &self.loaded {
            self.dist[r.index()] = E::Dist::INF;
            self.count[r.index()] = 0;
        }
        self.loaded.clear();
    }

    /// Pins a sorted label row (`L(h)`, or `L_out(h)` / `L_in(h)` for the
    /// directed extension, whose sweeps pin the family opposite the one
    /// they repair) whose hubs all rank below `rank_capacity`.
    pub fn load_labels(&mut self, row: RowRef<'_, E>, rank_capacity: usize) {
        self.ensure_capacity(rank_capacity);
        self.clear();
        // Each key is read once: a store into the probe may alias the row
        // as far as the compiler knows, so a key read through a reference
        // after one would be loaded again.
        let (keys, counts) = (row.keys(), row.counts());
        let (dist, count) = (&mut self.dist[..], &mut self.count[..]);
        for (&k, &c) in keys.iter().zip(counts) {
            let h = k.hub().index();
            dist[h] = k.dist();
            count[h] = c;
        }
        self.loaded.extend(keys.iter().map(|k| k.hub()));
    }

    /// `SpcQUERY(h, v)` against the pinned `L(h)`: `(distance, count)`.
    #[inline]
    pub fn query(&self, lv: RowRef<'_, E>) -> (E::Dist, Count) {
        self.query_limited(lv, None)
    }

    /// The prune test of the label-writing sweeps: whether some pinned hub
    /// ranked strictly above `limit` (any pinned hub when `limit` is
    /// `None`) certifies a path strictly shorter than `bound`, that is
    /// `dist[h] ⊕ d_v(h) < bound`, over `lv`, the keys of `L(v)`. Returns
    /// the verdict and the number of keys read.
    ///
    /// The scan stops at the first witnessing hub, at `limit`, or past the
    /// pinned row's last hub, whichever comes first: no entry beyond those
    /// can witness. The verdict always equals
    /// `SpcQUERY(h, v).0 < bound` (`PreQUERY` with a limit), because both
    /// distance domains saturate at the `INF` sentinel, which no bound
    /// exceeds.
    #[inline]
    pub fn certifies_shorter(
        &self,
        lv: &[E::Key],
        bound: E::Dist,
        limit: Option<Rank>,
    ) -> (bool, usize) {
        let verdict = self.first_witness(lv, bound, limit);
        debug_assert_eq!(
            verdict.0,
            self.shortest(lv, limit) < bound,
            "early-exit prune disagrees with the full probe query"
        );
        verdict
    }

    #[inline]
    fn first_witness(&self, lv: &[E::Key], bound: E::Dist, limit: Option<Rank>) -> (bool, usize) {
        let Some(&last) = self.loaded.last() else {
            return (false, 0);
        };
        let top = match limit {
            Some(Rank(0)) => return (false, 0),
            Some(lim) => last.min(Rank(lim.0 - 1)),
            None => last,
        };
        for (read, &k) in lv.iter().enumerate() {
            let h = k.hub();
            if h > top {
                return (false, read);
            }
            // An absent hub reads `INF`, and `INF ⊕ d = INF` never
            // undercuts a bound.
            if self.dist[h.index()].sat_add(k.dist()) < bound {
                return (true, read + 1);
            }
        }
        (false, lv.len())
    }

    /// The probe query's distance over hubs ranked strictly above `limit`:
    /// the reference [`certifies_shorter`](Self::certifies_shorter) is
    /// checked against.
    fn shortest(&self, lv: &[E::Key], limit: Option<Rank>) -> E::Dist {
        let inf = E::Dist::INF;
        let mut best = inf;
        for &k in lv {
            let h = k.hub();
            if limit.is_some_and(|lim| h >= lim) {
                break;
            }
            let hd = self.dist[h.index()];
            if hd != inf {
                best = best.min(hd.sat_add(k.dist()));
            }
        }
        best
    }

    /// The full probe query over hubs ranked strictly above `limit`.
    #[inline]
    fn query_limited(&self, lv: RowRef<'_, E>, limit: Option<Rank>) -> (E::Dist, Count) {
        let Some(&last) = self.loaded.last() else {
            return (E::Dist::INF, 0);
        };
        // Sorted ascending: no hub past the pinned row's last or at the
        // limit can qualify.
        let keys = lv.keys();
        let end =
            keys.partition_point(|k| k.hub() <= last && limit.is_none_or(|lim| k.hub() < lim));
        let (best, count, _) = self.scan(&keys[..end], &lv.counts()[..end]);
        (best, count)
    }

    /// `SpcQUERY` of the pinned row against the entries `(keys, counts)`,
    /// none of whose hubs ranks below the pinned row's last: the distance,
    /// the count, and how many of the hubs are pinned (common hubs). A
    /// count is read only at a pinned hub that attains the minimum so far.
    #[inline]
    fn scan(&self, keys: &[E::Key], counts: &[Count]) -> (E::Dist, Count, usize) {
        let inf = E::Dist::INF;
        let dist = &self.dist[..];
        // As long as `dist`, so a hub that indexes `dist` indexes it too.
        let pinned = &self.count[..dist.len()];
        let (mut best, mut count, mut common) = (inf, 0, 0);
        for (&k, &c) in keys.iter().zip(counts) {
            let h = k.hub().index();
            let hd = dist[h];
            if hd == inf {
                continue;
            }
            common += 1;
            let d = hd.sat_add(k.dist());
            if d < best {
                best = d;
                count = pinned[h].saturating_mul(c);
            } else if d == best && d != inf {
                count = count.saturating_add(pinned[h].saturating_mul(c));
            }
        }
        (best, count, common)
    }

    /// Counted `SpcQUERY(h, v)` against the pinned `L(h)`: the answer and
    /// the [`KernelCounters`] of the two-row merge ([`spc_query_counted`])
    /// over `(L(h), lv)`, bit for bit.
    ///
    /// With `a = L(h)`, `b = lv` and `m` the smaller of the two rows' last
    /// hubs, the merge consumes exactly the entries ranked at most `m` on
    /// each side, one step per entry except that a common hub's two
    /// entries share one: `merge_steps = #{a ≤ m} + #{b ≤ m} − common`
    /// (0 when either row is empty). So the scan of `b` stops past `a`'s
    /// last hub (which also keeps it inside the probe when `lv` comes from
    /// a larger rank space), and `#{a ≤ m}` needs a binary search only
    /// when `b` ends first. Probe hits are the common hubs.
    pub(crate) fn query_counted(
        &self,
        lv: RowRef<'_, E>,
        counters: &mut KernelCounters,
    ) -> (E::Dist, Count) {
        counters.queries += 1;
        let Some(&last) = self.loaded.last() else {
            return (E::Dist::INF, 0);
        };
        let keys = lv.keys();
        let scanned = keys.partition_point(|k| k.hub() <= last);
        let (best, count, common) = self.scan(&keys[..scanned], &lv.counts()[..scanned]);
        let pinned = match keys.get(scanned) {
            // `lv` runs past the pinned row: the merge consumed all of it.
            Some(_) => self.loaded.len(),
            None => keys
                .last()
                .map_or(0, |k| self.loaded.partition_point(|&h| h <= k.hub())),
        };
        counters.merge_steps += (pinned + scanned - common) as u64;
        counters.common_hubs += common as u64;
        (best, count)
    }
}

/// A reader's pinned source row over published rows: a [`HubProbe`]
/// loaded with the row, and a handle that keeps the row's block alive.
///
/// A query whose source row is the pinned handle (`Arc::ptr_eq`) scans
/// only the target row; any other query reloads the probe first. Pointer
/// identity is exact: the pin keeps the row alive so its address cannot
/// be reused, published rows never change, and a publication shares every
/// unchanged row's handle with the previous one, so a pin survives epoch
/// rotations that leave its row alone. The probe is allocated on the
/// first query, sized to that snapshot's rank space.
#[derive(Debug)]
pub struct RowPin<E: HubEntry = LabelEntry> {
    probe: HubProbe<E>,
    row: Option<Arc<[u64]>>,
}

impl<E: HubEntry> Default for RowPin<E> {
    /// An empty pin: the first query loads (and allocates) the probe.
    fn default() -> Self {
        RowPin {
            probe: HubProbe::default(),
            row: None,
        }
    }
}

impl<E: HubEntry> RowPin<E> {
    /// Counted `SpcQUERY` of source row `sources[s]` against `target`,
    /// pinning the source row first unless it is already pinned.
    #[inline]
    pub(crate) fn query_counted(
        &mut self,
        sources: &SharedRows<E>,
        s: VertexId,
        target: RowRef<'_, E>,
        counters: &mut KernelCounters,
    ) -> (E::Dist, Count) {
        let row = sources.handle(s.index());
        if !self
            .row
            .as_ref()
            .is_some_and(|pinned| Arc::ptr_eq(pinned, row))
        {
            self.probe
                .load_labels(sources.row(s.index()), sources.num_vertices());
            self.row = Some(Arc::clone(row));
        }
        self.probe.query_counted(target, counters)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::SpcIndex;
    use crate::label::LabelRow;
    use crate::order::{OrderingStrategy, RankMap};
    use dspc_graph::generators::paper::figure2_g;

    /// Builds the paper's Table 2 index by hand (identity ordering matches
    /// the paper's `v0 ≤ v1 ≤ … ≤ v11`).
    pub(crate) fn table2_index() -> SpcIndex {
        let g = figure2_g();
        let ranks = RankMap::build(&g, OrderingStrategy::Identity);
        let mut idx = SpcIndex::self_labeled(ranks);
        type Row = (u32, &'static [(u32, u32, u64)]);
        let table: &[Row] = &[
            (1, &[(0, 1, 1)]),
            (2, &[(0, 1, 1), (1, 1, 1)]),
            (3, &[(0, 1, 1), (1, 2, 1), (2, 1, 1)]),
            (4, &[(0, 3, 3), (1, 2, 1), (2, 2, 1), (3, 2, 1)]),
            (5, &[(0, 2, 2), (1, 1, 1), (2, 1, 1), (4, 1, 1)]),
            (6, &[(0, 2, 1), (1, 1, 1), (4, 3, 1)]),
            (7, &[(0, 2, 1), (1, 3, 2), (2, 2, 1), (3, 1, 1), (4, 1, 1)]),
            (8, &[(0, 1, 1), (2, 2, 1), (3, 1, 1)]),
            (
                9,
                &[
                    (0, 4, 4),
                    (1, 3, 2),
                    (2, 3, 1),
                    (3, 3, 1),
                    (4, 1, 1),
                    (6, 2, 1),
                ],
            ),
            (
                10,
                &[
                    (0, 3, 1),
                    (1, 2, 1),
                    (3, 4, 1),
                    (4, 2, 1),
                    (6, 1, 1),
                    (9, 1, 1),
                ],
            ),
            (11, &[(0, 1, 1)]),
        ];
        for &(v, entries) in table {
            for &(h, d, c) in entries {
                idx.label_set_mut(VertexId(v))
                    .upsert(LabelEntry::new(Rank(h), d, c));
            }
        }
        idx.check_invariants().unwrap();
        idx
    }

    #[test]
    fn example_2_1_query() {
        // SPC(v4, v6): common hubs {v0, v1, v4}; H = {v1, v4}; spc = 2.
        let idx = table2_index();
        let r = spc_query(&idx, VertexId(4), VertexId(6));
        assert_eq!(r, QueryResult { dist: 3, count: 2 });
    }

    #[test]
    fn all_pairs_match_bfs_on_table2() {
        use dspc_graph::traversal::bfs::BfsCounter;
        let g = figure2_g();
        let idx = table2_index();
        let mut bfs = BfsCounter::new(g.capacity());
        for s in 0..12u32 {
            for t in 0..12u32 {
                let expect = bfs.count(&g, VertexId(s), VertexId(t));
                let got = spc_query(&idx, VertexId(s), VertexId(t)).as_option();
                assert_eq!(got, expect, "pair (v{s}, v{t})");
            }
        }
    }

    #[test]
    fn self_query_is_zero_one() {
        let idx = table2_index();
        for v in 0..12u32 {
            assert_eq!(
                spc_query(&idx, VertexId(v), VertexId(v)),
                QueryResult { dist: 0, count: 1 }
            );
        }
    }

    #[test]
    fn disconnected_query() {
        let g = dspc_graph::UndirectedGraph::with_vertices(3);
        let idx = SpcIndex::self_labeled(RankMap::build(&g, OrderingStrategy::Identity));
        assert_eq!(
            spc_query(&idx, VertexId(0), VertexId(2)),
            QueryResult::DISCONNECTED
        );
    }

    #[test]
    fn pre_query_excludes_own_hub() {
        let idx = table2_index();
        // PreQUERY(v4, v9): hub v4 itself (which gives d=1) is excluded;
        // best via strictly higher hubs: v0: 3+4=7, v1: 2+3=5, v2: 2+3=5,
        // v3: 2+3=5 → d̄ = 5.
        let r = pre_query(&idx, VertexId(4), VertexId(9));
        assert_eq!(r.dist, 5);
        // Full query sees hub v4: d = 1.
        assert_eq!(spc_query(&idx, VertexId(4), VertexId(9)).dist, 1);
    }

    #[test]
    fn pre_query_of_highest_ranked_vertex_is_disconnected() {
        let idx = table2_index();
        // v0 has the highest rank: no hub ranks strictly above it.
        assert_eq!(
            pre_query(&idx, VertexId(0), VertexId(5)),
            QueryResult::DISCONNECTED
        );
    }

    #[test]
    fn probe_matches_merge_query() {
        let idx = table2_index();
        let mut probe = HubProbe::new(idx.ranks().len());
        for h in 0..12u32 {
            probe.load_labels(idx.label_set(VertexId(h)).view(), idx.ranks().len());
            for v in 0..12u32 {
                let full = spc_query(&idx, VertexId(h), VertexId(v));
                assert_eq!(
                    probe.query(idx.label_set(VertexId(v)).view()),
                    (full.dist, full.count),
                    "h=v{h}, v=v{v}"
                );
                let pre = pre_query(&idx, VertexId(h), VertexId(v));
                for bound in [pre.dist, pre.dist.saturating_add(1)] {
                    assert_eq!(
                        probe
                            .certifies_shorter(
                                idx.label_set(VertexId(v)).keys(),
                                bound,
                                Some(idx.rank(VertexId(h)))
                            )
                            .0,
                        pre.dist < bound,
                        "pre h=v{h}, v=v{v}, bound {bound}"
                    );
                }
            }
        }
    }

    /// A row holding `entries`.
    fn row<E: HubEntry>(entries: &[E]) -> LabelRow<E> {
        let mut row = LabelRow::new();
        for &e in entries {
            row.upsert(e);
        }
        row
    }

    /// Checks [`HubProbe::certifies_shorter`] against the full probe query
    /// for one pinned row and target, at every limit (none, and each rank
    /// in `0..=ranks`) and every bound in `bounds`, and that a positive
    /// verdict's last entry read is its witness.
    fn assert_prune_matches_query<E: HubEntry>(
        probe: &HubProbe<E>,
        lv: RowRef<'_, E>,
        ranks: u32,
        bounds: &[E::Dist],
    ) {
        let limits = std::iter::once(None).chain((0..=ranks).map(|r| Some(Rank(r))));
        for limit in limits {
            let (best, _) = probe.query_limited(lv, limit);
            for &bound in bounds {
                let (verdict, read) = probe.certifies_shorter(lv.keys(), bound, limit);
                assert_eq!(verdict, best < bound, "limit {limit:?}, bound {bound:?}");
                assert!(read <= lv.len());
                if verdict {
                    let witness = lv.keys()[read - 1];
                    assert!(probe.dist[witness.hub().index()].sat_add(witness.dist()) < bound);
                }
            }
        }
    }

    #[test]
    fn early_exit_prune_matches_probe_query() {
        let idx = table2_index();
        let n = idx.ranks().len() as u32;
        let mut probe = HubProbe::new(idx.ranks().len());
        let mut max = 0;
        for h in 0..n {
            probe.load_labels(idx.label_set(VertexId(h)).view(), idx.ranks().len());
            for v in 0..n {
                let (d, _) = probe.query(idx.label_set(VertexId(v)).view());
                if d != INF_DIST {
                    max = max.max(d);
                }
            }
        }
        let bounds: Vec<u32> = (0..=max + 1).chain([INF_DIST]).collect();
        for h in 0..n {
            probe.load_labels(idx.label_set(VertexId(h)).view(), idx.ranks().len());
            for v in 0..n {
                let lv = idx.label_set(VertexId(v)).view();
                assert_prune_matches_query(&probe, lv, n, &bounds);
            }
        }
    }

    #[test]
    fn early_exit_prune_saturates_at_weighted_inf() {
        use crate::weighted::WLabelEntry;
        let big = u64::MAX - 2;
        let e = |h: u32, d: u64| WLabelEntry::new(Rank(h), d, 1);
        // Sums through hubs 0 and 3 saturate at u64::MAX; hub 1's stays
        // finite, and hub 2 is absent from the first pinned row.
        let pinned: [&[WLabelEntry]; 2] = [&[e(0, big), e(1, 5), e(3, 7)], &[e(2, big)]];
        let targets: [&[WLabelEntry]; 4] = [
            &[e(0, 9), e(1, 9), e(3, big)],
            &[e(0, 3), e(3, big)],
            &[e(1, u64::MAX - 14), e(2, 3)],
            &[],
        ];
        let bounds = [0, 1, 13, 14, 15, big, u64::MAX - 1, u64::MAX];
        let mut probe = HubProbe::<WLabelEntry>::new(4);
        for pinned in pinned.map(row) {
            probe.load_labels(pinned.view(), 4);
            for lv in targets.map(row) {
                assert_prune_matches_query(&probe, lv.view(), 4, &bounds);
            }
        }
    }

    #[test]
    fn counted_probe_matches_merge_counters() {
        let idx = table2_index();
        let mut probe = HubProbe::default();
        for h in 0..12u32 {
            probe.load_labels(idx.label_set(VertexId(h)).view(), idx.ranks().len());
            for v in 0..12u32 {
                let (a, b) = (
                    idx.label_set(VertexId(h)).view(),
                    idx.label_set(VertexId(v)).view(),
                );
                let (mut merged, mut probed) = (KernelCounters::new(), KernelCounters::new());
                let want = counted_query_rows(a, b, &mut merged);
                assert_eq!(probe.query_counted(b, &mut probed), want, "h=v{h}, v=v{v}");
                assert_eq!(probed, merged, "h=v{h}, v=v{v}");
            }
        }
    }

    #[test]
    fn counted_probe_edge_rows() {
        let e = |h: u32| LabelEntry::new(Rank(h), 1, 2);
        let rows: [&[LabelEntry]; 6] = [
            &[],
            &[e(0)],
            &[e(3)],
            &[e(0), e(2), e(5)],
            &[e(1), e(2), e(4)],
            &[e(6), e(7)],
        ];
        // A probe sized to ranks 0..6: target hubs 6 and 7 lie past it and
        // past every pinned row's last hub, so the scan never reaches them.
        let rows = rows.map(row);
        let mut probe = HubProbe::new(6);
        for a in &rows[..5] {
            let a = a.view();
            probe.load_labels(a, 6);
            for b in rows.iter().map(LabelRow::view) {
                let (mut merged, mut probed) = (KernelCounters::new(), KernelCounters::new());
                let want = counted_query_rows(a, b, &mut merged);
                assert_eq!(probe.query_counted(b, &mut probed), want, "{a:?} / {b:?}");
                assert_eq!(probed, merged, "{a:?} / {b:?}");
            }
        }
    }

    #[test]
    fn probe_reload_clears_previous_hub() {
        let idx = table2_index();
        let mut probe = HubProbe::new(idx.ranks().len());
        probe.load_labels(idx.label_set(VertexId(0)).view(), idx.ranks().len());
        let with_v0 = probe.query(idx.label_set(VertexId(9)).view());
        probe.load_labels(idx.label_set(VertexId(11)).view(), idx.ranks().len());
        let with_v11 = probe.query(idx.label_set(VertexId(9)).view());
        assert_ne!(with_v0, with_v11);
        assert_eq!(with_v11.0, 1 + 4); // via common hub v0 only
    }
}
