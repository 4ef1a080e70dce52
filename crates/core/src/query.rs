//! Query evaluation: `SpcQUERY` (Algorithm 1), `PreQUERY` (§3.2.2), and the
//! hub-probe fast path used inside the update algorithms.
//!
//! `SpcQUERY(s, t)` merges `L(s)` and `L(t)` by hub rank; among common hubs
//! it keeps the minimum `sd(h,s) + sd(h,t)` and accumulates
//! `Σ σ(h,s)·σ(h,t)` over hubs attaining it (Equations (1)–(2)).
//!
//! `PreQUERY(s, t)` is identical but stops at the first hub not strictly
//! higher-ranked than `s` — it upper-bounds `sd(s, t)` using only hubs the
//! decremental update has already repaired (processing is in descending
//! rank order, so those labels are trustworthy).

use crate::flat::KernelCounters;
use crate::index::SpcIndex;
use crate::label::{Count, HubEntry, LabelDist, LabelSet, Rank, INF_DIST};
use dspc_graph::VertexId;

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

/// A sorted label row the merge kernel reads: a live or published entry
/// slice, or one vertex's slice of the flat columns.
pub(crate) trait HubRow: Copy {
    /// The distance field's type.
    type Dist: LabelDist;
    /// Number of entries.
    fn len(self) -> usize;
    /// Hub rank of entry `i`.
    fn hub(self, i: usize) -> u32;
    /// Distance of entry `i`.
    fn dist(self, i: usize) -> Self::Dist;
    /// Count of entry `i`.
    fn count(self, i: usize) -> Count;
}

impl<E: HubEntry> HubRow for &[E] {
    type Dist = E::Dist;
    #[inline]
    fn len(self) -> usize {
        <[E]>::len(self)
    }
    #[inline]
    fn hub(self, i: usize) -> u32 {
        self[i].hub().0
    }
    #[inline]
    fn dist(self, i: usize) -> E::Dist {
        self[i].dist()
    }
    #[inline]
    fn count(self, i: usize) -> Count {
        self[i].count()
    }
}

/// The one label-merge kernel behind every query path — live and published
/// rows of all three variants, and the flat columns. It merges two rows
/// sorted by hub rank; among common hubs it keeps the minimum
/// `d_a + d_b` and accumulates `Σ c_a · c_b` over the hubs attaining it
/// (Equations (1)–(2)), all with saturating arithmetic.
///
/// `LIMITED` stops at the first hub not strictly above `limit`
/// (`PreQUERY`); `COUNTED` tallies the deterministic work units into
/// `counters`: one `merge_steps` per loop iteration that passed the limit
/// check and one `common_hubs` per equal-hub hit. Both are const so the
/// production path compiles without either test.
#[inline]
pub(crate) fn merge<R: HubRow, const LIMITED: bool, const COUNTED: bool>(
    a: R,
    b: R,
    limit: Rank,
    counters: &mut KernelCounters,
) -> (R::Dist, Count) {
    let inf = <R::Dist as LabelDist>::INF;
    let (mut i, mut j) = (0usize, 0usize);
    let mut best = inf;
    let mut count: Count = 0;
    let (mut steps, mut common) = (0u64, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a.hub(i), b.hub(j));
        if LIMITED && (x >= limit.0 || y >= limit.0) {
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
            let d = a.dist(i).sat_add(b.dist(j));
            if d < best {
                best = d;
                count = a.count(i).saturating_mul(b.count(j));
            } else if d == best && d != inf {
                count = count.saturating_add(a.count(i).saturating_mul(b.count(j)));
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
pub(crate) fn query_rows<R: HubRow>(a: R, b: R) -> (R::Dist, Count) {
    merge::<R, false, false>(a, b, Rank(0), &mut KernelCounters::new())
}

/// `PreQUERY` over two rows: hubs ranked strictly above `limit` only.
#[inline]
pub(crate) fn pre_query_rows<R: HubRow>(a: R, b: R, limit: Rank) -> (R::Dist, Count) {
    merge::<R, true, false>(a, b, limit, &mut KernelCounters::new())
}

/// Counted `SpcQUERY` over two rows.
#[inline]
pub(crate) fn counted_query_rows<R: HubRow>(
    a: R,
    b: R,
    counters: &mut KernelCounters,
) -> (R::Dist, Count) {
    merge::<R, false, true>(a, b, Rank(0), counters)
}

/// `SpcQUERY(s, t)` — Algorithm 1. Returns the shortest distance and the
/// exact number of shortest paths, or [`QueryResult::DISCONNECTED`].
pub fn spc_query(index: &SpcIndex, s: VertexId, t: VertexId) -> QueryResult {
    let (dist, count) = query_rows(index.label_set(s).entries(), index.label_set(t).entries());
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
        index.label_set(s).entries(),
        index.label_set(t).entries(),
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
        index.label_set(s).entries(),
        index.label_set(t).entries(),
        index.rank(s),
    );
    QueryResult { dist, count }
}

/// Distance-only convenience wrapper over [`spc_query`].
pub fn dist_query(index: &SpcIndex, s: VertexId, t: VertexId) -> Option<u32> {
    let r = spc_query(index, s, t);
    r.is_connected().then_some(r.dist)
}

/// Fast repeated queries against one pinned hub-side label set.
///
/// Loading `L(h)` scatters its entries into rank-indexed arrays; each
/// subsequent query then scans only `L(v)` — `O(|L(v)|)` instead of
/// `O(|L(h)| + |L(v)|)`. Every BFS step in IncSPC/DecSPC issues such a
/// query, so this is the reproduction's hottest path.
///
/// Loading is sound for the duration of one rooted update BFS: the BFS for
/// hub `h` only rewrites `(h, ·, ·)` entries in *other* vertices' label
/// sets, never the pinned `L(h)` itself (see module tests).
#[derive(Clone, Debug)]
pub struct HubProbe {
    dist: Vec<u32>,
    count: Vec<Count>,
    loaded: Vec<Rank>,
}

impl HubProbe {
    /// Creates a probe for rank spaces up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        HubProbe {
            dist: vec![INF_DIST; capacity],
            count: vec![0; capacity],
            loaded: Vec::new(),
        }
    }

    /// Grows the probe if the rank space expanded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.dist.len() < capacity {
            self.dist.resize(capacity, INF_DIST);
            self.count.resize(capacity, 0);
        }
    }

    /// Unloads the previous pin.
    pub fn clear(&mut self) {
        for &r in &self.loaded {
            self.dist[r.index()] = INF_DIST;
            self.count[r.index()] = 0;
        }
        self.loaded.clear();
    }

    /// Pins `L(h)`.
    pub fn load(&mut self, index: &SpcIndex, h: VertexId) {
        self.load_labels(index.label_set(h), index.ranks().len());
    }

    /// Pins an arbitrary label set (used by the directed extension, whose
    /// queries pin `L_out(h)` or `L_in(h)` depending on sweep direction).
    pub fn load_labels(&mut self, labels: &LabelSet, rank_capacity: usize) {
        self.ensure_capacity(rank_capacity);
        self.clear();
        for e in labels.entries() {
            self.dist[e.hub.index()] = e.dist;
            self.count[e.hub.index()] = e.count;
            self.loaded.push(e.hub);
        }
    }

    /// `SpcQUERY(h, v)` against the pinned `L(h)`.
    #[inline]
    pub fn query(&self, lv: &LabelSet) -> QueryResult {
        self.query_limited(lv, None)
    }

    /// `PreQUERY(h, v)` against the pinned `L(h)`: only hubs with rank
    /// strictly above `limit` participate.
    #[inline]
    pub fn pre_query(&self, lv: &LabelSet, limit: Rank) -> QueryResult {
        self.query_limited(lv, Some(limit))
    }

    #[inline]
    fn query_limited(&self, lv: &LabelSet, limit: Option<Rank>) -> QueryResult {
        let mut best = INF_DIST;
        let mut count: Count = 0;
        for e in lv.entries() {
            if let Some(lim) = limit {
                if e.hub >= lim {
                    break; // sorted ascending — nothing below can qualify
                }
            }
            let hd = self.dist[e.hub.index()];
            if hd == INF_DIST {
                continue;
            }
            let d = hd.saturating_add(e.dist);
            if d < best {
                best = d;
                count = self.count[e.hub.index()].saturating_mul(e.count);
            } else if d == best && d != INF_DIST {
                count = count.saturating_add(self.count[e.hub.index()].saturating_mul(e.count));
            }
        }
        QueryResult { dist: best, count }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::index::SpcIndex;
    use crate::label::LabelEntry;
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
        assert_eq!(dist_query(&idx, VertexId(0), VertexId(2)), None);
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
            probe.load(&idx, VertexId(h));
            for v in 0..12u32 {
                assert_eq!(
                    probe.query(idx.label_set(VertexId(v))),
                    spc_query(&idx, VertexId(h), VertexId(v)),
                    "h=v{h}, v=v{v}"
                );
                assert_eq!(
                    probe.pre_query(idx.label_set(VertexId(v)), idx.rank(VertexId(h))),
                    pre_query(&idx, VertexId(h), VertexId(v)),
                    "pre h=v{h}, v=v{v}"
                );
            }
        }
    }

    #[test]
    fn probe_reload_clears_previous_hub() {
        let idx = table2_index();
        let mut probe = HubProbe::new(idx.ranks().len());
        probe.load(&idx, VertexId(0));
        let with_v0 = probe.query(idx.label_set(VertexId(9)));
        probe.load(&idx, VertexId(11));
        let with_v11 = probe.query(idx.label_set(VertexId(9)));
        assert_ne!(with_v0, with_v11);
        assert_eq!(with_v11.dist, 1 + 4); // via common hub v0 only
    }
}
