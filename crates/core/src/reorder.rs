//! Bounded local re-ranking: swap adjacent ranks and repair only the two
//! affected hubs' label state — the incremental answer to ordering
//! staleness that §6 of the paper leaves open (its suggested mitigation is
//! a full lazy rebuild; [`crate::policy`] now escalates through re-ranks
//! first).
//!
//! ## Why a swap repair is local
//!
//! HP-SPC writes the `(h, ·, ·)` entries of hub `h` only during `h`'s own
//! sweep, and every prune decision of a later hub consults the *set* of
//! hubs ranked above it — a set that is unchanged when two adjacent ranks
//! `r`, `r + 1` trade occupants. So swapping the pair invalidates exactly
//! the entries at the two ranks: purge them everywhere (the index's
//! hub-entry counts bound the scan), remap the two rank positions in O(1)
//! ([`crate::index::SpcIndex::swap_adjacent_ranks`]), and re-run the two
//! hubs' pruned counting BFS sweeps in the new order. The result is
//! **bit-identical** to [`crate::build::rebuild_index`] at the swapped
//! order (pinned by `tests/reorder_equivalence.rs`).
//!
//! ## Batched swaps
//!
//! A *sorted, non-overlapping* run of swaps (no two positions within 2 of
//! each other — what [`crate::order::plan_adjacent_swaps`] emits) repairs
//! under one agenda: every pair's two sweeps read a frozen snapshot of the
//! pre-repair labels (own-pair entries masked, the promoted hub's fresh
//! entries carried in a task-local overlay) and only the commit mutates
//! the index, in ascending rank order. The pairs are independent, so they
//! fan out over scoped threads and the repair parallelizes across pairs
//! while the committed result stays the same at every thread count.

use crate::directed::{DirectedSpcIndex, Side};
use crate::engine::MaintenanceCounters;
use crate::index::SpcIndex;
use crate::label::{Count, LabelEntry, Rank, INF_DIST};
use crate::query::HubProbe;
use crate::weighted::{WHubProbe, WLabelEntry, WeightedSpcIndex};
use dspc_graph::weighted::{WeightedGraph, WDIST_INF};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// One pair's repair assignment: the post-swap occupants of `r`/`r + 1`.
struct SwapTask {
    r: Rank,
    promoted: VertexId,
    demoted: VertexId,
}

/// What one pair's two sweeps want committed: fresh entries for ranks
/// `r` and `r + 1`, in emission order, plus the sweep's visit tally.
struct TaskResult {
    ops: Vec<(u32, LabelEntry)>,
    visited: usize,
}

/// Per-worker workspace for swap-repair sweeps: the counting-BFS arrays,
/// a rank-pinned probe (the pushing hub's label set with the swapped pair
/// masked), and the vertex-indexed overlay holding the promoted hub's
/// fresh entries so the demoted hub's sweep can prune against them before
/// anything is committed.
struct ReorderScratch {
    dist: Vec<u32>,
    count: Vec<Count>,
    queue: Vec<u32>,
    touched: Vec<u32>,
    pdist: Vec<u32>,
    pcount: Vec<Count>,
    pinned: Vec<u32>,
    odist: Vec<u32>,
    ocount: Vec<Count>,
    otouched: Vec<u32>,
}

impl ReorderScratch {
    fn new(n: usize) -> Self {
        ReorderScratch {
            dist: vec![INF_DIST; n],
            count: vec![0; n],
            queue: Vec::new(),
            touched: Vec::new(),
            pdist: vec![INF_DIST; n],
            pcount: vec![0; n],
            pinned: Vec::new(),
            odist: vec![INF_DIST; n],
            ocount: vec![0; n],
            otouched: Vec::new(),
        }
    }

    fn reset_bfs(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INF_DIST;
            self.count[v as usize] = 0;
        }
        self.touched.clear();
        self.queue.clear();
    }

    fn unpin(&mut self) {
        for &r in &self.pinned {
            self.pdist[r as usize] = INF_DIST;
            self.pcount[r as usize] = 0;
        }
        self.pinned.clear();
    }

    fn clear_overlay(&mut self) {
        for &v in &self.otouched {
            self.odist[v as usize] = INF_DIST;
            self.ocount[v as usize] = 0;
        }
        self.otouched.clear();
    }

    /// Pins `L(h)` with the swapped pair's ranks masked; for the demoted
    /// sweep, the promoted hub's fresh entry at `h` (if any) is pinned
    /// from the overlay instead of the stale frozen row.
    fn pin(&mut self, index: &SpcIndex, h: VertexId, task: &SwapTask, use_overlay: bool) {
        self.unpin();
        let (ra, rb) = (task.r.0, task.r.0 + 1);
        for e in index.label_set(h).entries() {
            if e.hub.0 == ra || e.hub.0 == rb {
                continue;
            }
            self.pdist[e.hub.index()] = e.dist;
            self.pcount[e.hub.index()] = e.count;
            self.pinned.push(e.hub.0);
        }
        if use_overlay && self.odist[h.index()] != INF_DIST {
            self.pdist[ra as usize] = self.odist[h.index()];
            self.pcount[ra as usize] = self.ocount[h.index()];
            self.pinned.push(ra);
        }
    }

    /// `SpcQUERY(h, v)` against the pinned label set, reading `L(v)` from
    /// the frozen index with the swapped pair masked and (for the demoted
    /// sweep) the promoted hub's fresh entry merged in from the overlay.
    fn query(
        &self,
        index: &SpcIndex,
        v: VertexId,
        task: &SwapTask,
        use_overlay: bool,
    ) -> (u32, Count) {
        let (ra, rb) = (task.r.0, task.r.0 + 1);
        let mut best = INF_DIST;
        let mut count: Count = 0;
        let mut fold = |hd: u32, hc: Count, d: u32, c: Count| {
            if hd == INF_DIST || d == INF_DIST {
                return;
            }
            let total = hd.saturating_add(d);
            if total < best {
                best = total;
                count = hc.saturating_mul(c);
            } else if total == best && total != INF_DIST {
                count = count.saturating_add(hc.saturating_mul(c));
            }
        };
        for e in index.label_set(v).entries() {
            if e.hub.0 == ra || e.hub.0 == rb {
                continue;
            }
            fold(
                self.pdist[e.hub.index()],
                self.pcount[e.hub.index()],
                e.dist,
                e.count,
            );
        }
        if use_overlay && self.odist[v.index()] != INF_DIST {
            fold(
                self.pdist[ra as usize],
                self.pcount[ra as usize],
                self.odist[v.index()],
                self.ocount[v.index()],
            );
        }
        (best, count)
    }
}

/// One pruned counting BFS from `h` at (new) rank `hr`, identical to the
/// HP-SPC builder's sweep except that reads go through the frozen index +
/// overlay and emissions land in `out` instead of the label rows.
#[allow(clippy::too_many_arguments)]
fn push_hub_frozen(
    g: &UndirectedGraph,
    index: &SpcIndex,
    scratch: &mut ReorderScratch,
    task: &SwapTask,
    h: VertexId,
    hr: Rank,
    record_overlay: bool,
    out: &mut Vec<(u32, LabelEntry)>,
) -> usize {
    if h.index() >= g.capacity() || !g.contains_vertex(h) {
        // Deleted vertices keep a bare self label, exactly as the builder
        // leaves them.
        out.push((h.0, LabelEntry::new(hr, 0, 1)));
        return 0;
    }
    let use_overlay = !record_overlay;
    scratch.reset_bfs();
    scratch.pin(index, h, task, use_overlay);
    scratch.dist[h.index()] = 0;
    scratch.count[h.index()] = 1;
    scratch.touched.push(h.0);
    scratch.queue.push(h.0);
    let mut head = 0usize;
    let mut visited = 0usize;
    while head < scratch.queue.len() {
        let v = scratch.queue[head];
        head += 1;
        visited += 1;
        let dv = scratch.dist[v as usize];
        let (qd, _) = scratch.query(index, VertexId(v), task, use_overlay);
        if qd < dv {
            continue;
        }
        let cv = scratch.count[v as usize];
        out.push((v, LabelEntry::new(hr, dv, cv)));
        if record_overlay {
            scratch.odist[v as usize] = dv;
            scratch.ocount[v as usize] = cv;
            scratch.otouched.push(v);
        }
        for &w in g.neighbors(VertexId(v)) {
            if index.rank(VertexId(w)) <= hr {
                continue;
            }
            let dw = scratch.dist[w as usize];
            if dw == INF_DIST {
                scratch.dist[w as usize] = dv + 1;
                scratch.count[w as usize] = cv;
                scratch.touched.push(w);
                scratch.queue.push(w);
            } else if dw == dv + 1 {
                scratch.count[w as usize] = scratch.count[w as usize].saturating_add(cv);
            }
        }
    }
    visited
}

/// Runs one pair's repair: promoted hub first (recording the overlay),
/// demoted hub second (pruning against it).
fn run_task(
    g: &UndirectedGraph,
    index: &SpcIndex,
    scratch: &mut ReorderScratch,
    task: &SwapTask,
) -> TaskResult {
    scratch.clear_overlay();
    let mut ops = Vec::new();
    let mut visited = push_hub_frozen(
        g,
        index,
        scratch,
        task,
        task.promoted,
        task.r,
        true,
        &mut ops,
    );
    visited += push_hub_frozen(
        g,
        index,
        scratch,
        task,
        task.demoted,
        Rank(task.r.0 + 1),
        false,
        &mut ops,
    );
    scratch.clear_overlay();
    TaskResult { ops, visited }
}

/// Applies a sorted, non-overlapping run of adjacent swaps to `index` and
/// repairs it so the result is bit-identical to a fresh
/// [`crate::build::rebuild_index`] at the swapped order.
///
/// `threads` ≤ 1 runs the pair sweeps inline; larger values fan them out
/// over up to `threads` scoped threads. The committed index is identical
/// at every thread count: sweeps read only the frozen pre-repair snapshot,
/// and the commit applies results in ascending pair order.
pub fn rerank_adjacent(
    g: &UndirectedGraph,
    index: &mut SpcIndex,
    swaps: &[Rank],
    threads: usize,
) -> MaintenanceCounters {
    let mut counters = MaintenanceCounters::default();
    if swaps.is_empty() {
        return counters;
    }
    validate_swaps(swaps, index.ranks().len());

    // Remap the rank positions first: every sweep's rank comparisons must
    // see the post-swap order, and positions outside the swapped pairs
    // compare identically either way.
    for &r in swaps {
        index.swap_adjacent_ranks(r);
    }
    let tasks: Vec<SwapTask> = swaps
        .iter()
        .map(|&r| SwapTask {
            r,
            promoted: index.vertex(r),
            demoted: index.vertex(Rank(r.0 + 1)),
        })
        .collect();

    // Budget the purge scan before any mutation: once this many doomed
    // entries are gone, no vertex further down can carry one.
    let mut purge_budget: u64 = 0;
    for t in &tasks {
        purge_budget += index.hub_entry_count(t.r) as u64;
        purge_budget += index.hub_entry_count(Rank(t.r.0 + 1)) as u64;
    }

    // Non-overlapping pairs share no rank rows, so every task runs at
    // once against the frozen snapshot.
    let n = index.ranks().len();
    let frozen: &SpcIndex = index;
    let results = crate::parallel::fan_out(
        &tasks,
        threads,
        || ReorderScratch::new(n),
        |scratch, task| run_task(g, frozen, scratch, task),
    );

    // Commit: purge every doomed rank's stale entries in one early-exiting
    // scan, then upsert the fresh entries in ascending pair order.
    let mut doomed = vec![false; n];
    for t in &tasks {
        doomed[t.r.index()] = true;
        doomed[t.r.index() + 1] = true;
    }
    let mut hits: Vec<Rank> = Vec::new();
    for v in 0..n {
        if purge_budget == 0 {
            break;
        }
        let vid = VertexId(v as u32);
        hits.clear();
        hits.extend(
            index
                .label_set(vid)
                .entries()
                .iter()
                .filter(|e| doomed[e.hub.index()])
                .map(|e| e.hub),
        );
        for &hub in &hits {
            index.remove_entry(vid, hub);
            counters.removed += 1;
            purge_budget -= 1;
        }
    }
    for tr in &results {
        counters.vertices_visited += tr.visited;
        for &(v, e) in &tr.ops {
            index.upsert_entry(VertexId(v), e);
            counters.inserted += 1;
        }
    }
    counters.rerank_swaps += tasks.len();
    counters.rerank_sweeps += 2 * tasks.len();
    counters
}

/// Convenience single-swap repair: swap ranks `r` and `r + 1` and restore
/// rebuild-identity, sequentially.
pub fn swap_and_repair(g: &UndirectedGraph, index: &mut SpcIndex, r: Rank) -> MaintenanceCounters {
    rerank_adjacent(g, index, &[r], 1)
}

/// Directed swap repair: applies a sorted, non-overlapping run of adjacent
/// swaps and restores bit-identity with
/// [`crate::directed::build::rebuild_directed_index`] at the swapped order.
///
/// Sequential by construction: after a pair's purge no stale entry of
/// either rank survives in either label family, so the four committed
/// sweeps (promoted forward/backward, demoted forward/backward — the fresh
/// build's per-hub order) each read exactly the state a fresh build would
/// see, and no frozen-snapshot machinery is needed.
pub fn rerank_adjacent_directed(
    g: &DirectedGraph,
    index: &mut DirectedSpcIndex,
    swaps: &[Rank],
) -> MaintenanceCounters {
    let mut counters = MaintenanceCounters::default();
    if swaps.is_empty() {
        return counters;
    }
    let n = index.ranks().len();
    validate_swaps(swaps, n);
    let mut scratch = ReorderScratch::new(n);
    let mut probe = HubProbe::new(n);
    for &r in swaps {
        let rb = Rank(r.0 + 1);
        // Purge both ranks from both families; the directed index keeps no
        // hub-entry counts, so the scan covers every row.
        for v in 0..n {
            let vid = VertexId(v as u32);
            for side in [Side::In, Side::Out] {
                for hub in [r, rb] {
                    if index.label_mut(side, vid).remove(hub).is_some() {
                        counters.removed += 1;
                    }
                }
            }
        }
        index.swap_adjacent_ranks(r);
        let promoted = index.vertex(r);
        let demoted = index.vertex(rb);
        for (h, hr) in [(promoted, r), (demoted, rb)] {
            if h.index() >= g.capacity() || !g.contains_vertex(h) {
                for side in [Side::In, Side::Out] {
                    if index
                        .label_mut(side, h)
                        .upsert(crate::directed::self_entry(hr))
                        .is_none()
                    {
                        counters.inserted += 1;
                    }
                }
                continue;
            }
            for target in [Side::In, Side::Out] {
                counters.vertices_visited += push_hub_directed(
                    g,
                    index,
                    &mut scratch,
                    &mut probe,
                    h,
                    hr,
                    target,
                    &mut counters,
                );
            }
        }
        counters.rerank_swaps += 1;
        counters.rerank_sweeps += 4;
    }
    counters
}

/// One committed directed sweep of hub `h` at (new) rank `hr`, identical
/// to [`crate::directed::build::DirectedBuilder`]'s sweep except that
/// emissions upsert into already-populated label rows (lower-priority
/// hubs' entries are still in place after the purge).
#[allow(clippy::too_many_arguments)]
fn push_hub_directed(
    g: &DirectedGraph,
    index: &mut DirectedSpcIndex,
    scratch: &mut ReorderScratch,
    probe: &mut HubProbe,
    h: VertexId,
    hr: Rank,
    target: Side,
    counters: &mut MaintenanceCounters,
) -> usize {
    scratch.reset_bfs();
    probe.load_labels(index.label(target.opposite(), h), index.ranks().len());
    scratch.dist[h.index()] = 0;
    scratch.count[h.index()] = 1;
    scratch.touched.push(h.0);
    scratch.queue.push(h.0);
    let mut head = 0usize;
    let mut visited = 0usize;
    while head < scratch.queue.len() {
        let v = scratch.queue[head];
        head += 1;
        visited += 1;
        let dv = scratch.dist[v as usize];
        let q = probe.query(index.label(target, VertexId(v)));
        if q.dist < dv {
            continue;
        }
        let cv = scratch.count[v as usize];
        if index
            .label_mut(target, VertexId(v))
            .upsert(LabelEntry::new(hr, dv, cv))
            .is_none()
        {
            counters.inserted += 1;
        }
        let neighbors = match target {
            Side::In => g.out_neighbors(VertexId(v)),
            Side::Out => g.in_neighbors(VertexId(v)),
        };
        for &w in neighbors {
            if index.rank(VertexId(w)) <= hr {
                continue;
            }
            let dw = scratch.dist[w as usize];
            if dw == INF_DIST {
                scratch.dist[w as usize] = dv + 1;
                scratch.count[w as usize] = cv;
                scratch.touched.push(w);
                scratch.queue.push(w);
            } else if dw == dv + 1 {
                scratch.count[w as usize] = scratch.count[w as usize].saturating_add(cv);
            }
        }
    }
    visited
}

/// Weighted swap repair: applies a sorted, non-overlapping run of adjacent
/// swaps and restores bit-identity with
/// [`crate::weighted::build::rebuild_weighted_index`] at the swapped order.
///
/// Sequential committed repair, like the directed variant: purge both
/// ranks everywhere, remap, then re-run the two hubs' Dijkstra sweeps in
/// the new order (two sweeps per swap).
pub fn rerank_adjacent_weighted(
    g: &WeightedGraph,
    index: &mut WeightedSpcIndex,
    swaps: &[Rank],
) -> MaintenanceCounters {
    let mut counters = MaintenanceCounters::default();
    if swaps.is_empty() {
        return counters;
    }
    let n = index.ranks().len();
    validate_swaps(swaps, n);
    let mut scratch = WeightedReorderScratch::new(n);
    for &r in swaps {
        let rb = Rank(r.0 + 1);
        for v in 0..n {
            let vid = VertexId(v as u32);
            for hub in [r, rb] {
                if index.label_set_mut(vid).remove(hub).is_some() {
                    counters.removed += 1;
                }
            }
        }
        index.swap_adjacent_ranks(r);
        let promoted = index.vertex(r);
        let demoted = index.vertex(rb);
        for (h, hr) in [(promoted, r), (demoted, rb)] {
            if h.index() >= g.capacity() || !g.contains_vertex(h) {
                if index
                    .label_set_mut(h)
                    .upsert(WLabelEntry::new(hr, 0, 1))
                    .is_none()
                {
                    counters.inserted += 1;
                }
                continue;
            }
            counters.vertices_visited += scratch.push_hub(g, index, h, hr, &mut counters.inserted);
        }
        counters.rerank_swaps += 1;
        counters.rerank_sweeps += 2;
    }
    counters
}

/// Dijkstra workspace for weighted swap repair — the committed twin of
/// [`crate::weighted::build::WeightedBuilder`]'s sweep, emitting via
/// upsert.
struct WeightedReorderScratch {
    dist: Vec<dspc_graph::weighted::WDist>,
    count: Vec<Count>,
    settled: Vec<bool>,
    heap: BinaryHeap<Reverse<(dspc_graph::weighted::WDist, u32)>>,
    touched: Vec<u32>,
    probe: WHubProbe,
}

impl WeightedReorderScratch {
    fn new(capacity: usize) -> Self {
        WeightedReorderScratch {
            dist: vec![WDIST_INF; capacity],
            count: vec![0; capacity],
            settled: vec![false; capacity],
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            probe: WHubProbe::new(capacity),
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = WDIST_INF;
            self.count[v as usize] = 0;
            self.settled[v as usize] = false;
        }
        self.touched.clear();
        self.heap.clear();
    }

    fn push_hub(
        &mut self,
        g: &WeightedGraph,
        index: &mut WeightedSpcIndex,
        h: VertexId,
        hr: Rank,
        inserted: &mut usize,
    ) -> usize {
        self.reset();
        self.probe.load(index, h);
        self.dist[h.index()] = 0;
        self.count[h.index()] = 1;
        self.touched.push(h.0);
        self.heap.push(Reverse((0, h.0)));
        let mut visited = 0usize;
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if self.settled[v as usize] {
                continue;
            }
            self.settled[v as usize] = true;
            visited += 1;
            let q = self.probe.query_limited(index.label_set(VertexId(v)), None);
            if q.dist < d {
                continue;
            }
            let cv = self.count[v as usize];
            if index
                .label_set_mut(VertexId(v))
                .upsert(WLabelEntry::new(hr, d, cv))
                .is_none()
            {
                *inserted += 1;
            }
            for &(w, wt) in g.neighbors(VertexId(v)) {
                if index.rank(VertexId(w)) <= hr {
                    continue;
                }
                let nd = d + wt as dspc_graph::weighted::WDist;
                let dw = self.dist[w as usize];
                if nd < dw {
                    if dw == WDIST_INF {
                        self.touched.push(w);
                    }
                    self.dist[w as usize] = nd;
                    self.count[w as usize] = cv;
                    self.heap.push(Reverse((nd, w)));
                } else if nd == dw {
                    self.count[w as usize] = self.count[w as usize].saturating_add(cv);
                }
            }
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::rebuild_index;
    use crate::order::{plan_adjacent_swaps, OrderingStrategy, RankMap};
    use dspc_graph::generators::classic::{grid_graph, star_graph};
    use dspc_graph::generators::random::{barabasi_albert, erdos_renyi_gnm};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn swapped_order(ranks: &RankMap, swaps: &[Rank]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..ranks.len() as u32)
            .map(|r| ranks.vertex(Rank(r)).0)
            .collect();
        for &r in swaps {
            order.swap(r.index(), r.index() + 1);
        }
        order
    }

    fn assert_rebuild_identical(
        g: &UndirectedGraph,
        index: &SpcIndex,
        base: &RankMap,
        swaps: &[Rank],
    ) {
        let order = swapped_order(base, swaps);
        let fresh = rebuild_index(g, RankMap::from_rank_order(&order, base.strategy()));
        assert_eq!(index, &fresh, "re-ranked index differs from rebuild");
    }

    #[test]
    fn single_swap_matches_rebuild_on_classics() {
        for g in [star_graph(8), grid_graph(4, 4)] {
            let base = RankMap::build(&g, OrderingStrategy::Identity);
            for r in 0..g.capacity() - 1 {
                let mut index = rebuild_index(&g, base.clone());
                let c = swap_and_repair(&g, &mut index, Rank(r as u32));
                assert_eq!(c.rerank_swaps, 1);
                assert_eq!(c.rerank_sweeps, 2);
                index.check_invariants().unwrap();
                assert_rebuild_identical(&g, &index, &base, &[Rank(r as u32)]);
            }
        }
    }

    #[test]
    fn random_graph_swaps_match_rebuild() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let n = rng.gen_range(12..40);
            let m = rng.gen_range(n..3 * n);
            let g = erdos_renyi_gnm(n, m.min(n * (n - 1) / 2), &mut rng);
            let base = RankMap::build(&g, OrderingStrategy::Degree);
            let mut index = rebuild_index(&g, base.clone());
            let r = Rank(rng.gen_range(0..n as u32 - 1));
            swap_and_repair(&g, &mut index, r);
            index.check_invariants().unwrap();
            assert_rebuild_identical(&g, &index, &base, &[r]);
        }
    }

    #[test]
    fn batched_swaps_match_rebuild_at_every_thread_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(60, 3, &mut rng);
        let base = RankMap::build(&g, OrderingStrategy::Random(5));
        let swaps = plan_adjacent_swaps(&g, &base, 8);
        assert!(swaps.len() > 1, "expected multiple inversions to plan");
        let mut reference: Option<SpcIndex> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut index = rebuild_index(&g, base.clone());
            let c = rerank_adjacent(&g, &mut index, &swaps, threads);
            assert_eq!(c.rerank_swaps, swaps.len());
            index.check_invariants().unwrap();
            assert_rebuild_identical(&g, &index, &base, &swaps);
            match &reference {
                None => reference = Some(index),
                Some(prev) => assert_eq!(prev, &index, "thread count changed the result"),
            }
        }
    }

    #[test]
    fn swap_with_deleted_vertex_keeps_bare_self_label() {
        let mut g = star_graph(6);
        g.delete_vertex(VertexId(3)).unwrap();
        let base = RankMap::build(&g, OrderingStrategy::Identity);
        for r in 0..5u32 {
            let mut index = rebuild_index(&g, base.clone());
            swap_and_repair(&g, &mut index, Rank(r));
            index.check_invariants().unwrap();
            assert_rebuild_identical(&g, &index, &base, &[Rank(r)]);
        }
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_swaps_rejected() {
        let g = star_graph(5);
        let base = RankMap::build(&g, OrderingStrategy::Degree);
        let mut index = rebuild_index(&g, base);
        rerank_adjacent(&g, &mut index, &[Rank(1), Rank(2)], 1);
    }

    #[test]
    fn directed_swaps_match_rebuild() {
        use crate::directed::build::rebuild_directed_index;
        use crate::directed::DirectedRankMap;
        use dspc_graph::generators::random::random_orientation;

        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..6 {
            let base_g = erdos_renyi_gnm(25, 60, &mut rng);
            let g = random_orientation(&base_g, 0.3, &mut rng);
            let n = g.capacity() as u32;
            let base: Vec<u32> = {
                let r = DirectedRankMap::build(&g, OrderingStrategy::Degree);
                (0..n).map(|i| r.vertex(Rank(i)).0).collect()
            };
            let mut index = rebuild_directed_index(&g, DirectedRankMap::from_rank_order(&base));
            let swaps = [Rank(rng.gen_range(0..n / 2)), Rank(n / 2 + 1)];
            let c = rerank_adjacent_directed(&g, &mut index, &swaps);
            assert_eq!(c.rerank_swaps, 2);
            assert_eq!(c.rerank_sweeps, 8);
            index.check_invariants().unwrap();
            let mut order = base.clone();
            for &r in &swaps {
                order.swap(r.index(), r.index() + 1);
            }
            let fresh = rebuild_directed_index(&g, DirectedRankMap::from_rank_order(&order));
            assert_eq!(index, fresh, "directed re-rank differs from rebuild");
        }
    }

    #[test]
    fn weighted_swaps_match_rebuild() {
        use crate::weighted::build::rebuild_weighted_index;
        use dspc_graph::generators::random::random_weights;

        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..6 {
            let base_g = erdos_renyi_gnm(25, 60, &mut rng);
            let g = random_weights(&base_g, 6, &mut rng);
            let n = g.capacity() as u32;
            let base = crate::weighted::build::build_weighted_index(&g, OrderingStrategy::Degree)
                .ranks()
                .clone();
            let mut index = rebuild_weighted_index(&g, base.clone());
            let swaps = [Rank(rng.gen_range(0..n / 2)), Rank(n / 2 + 1)];
            let c = rerank_adjacent_weighted(&g, &mut index, &swaps);
            assert_eq!(c.rerank_swaps, 2);
            assert_eq!(c.rerank_sweeps, 4);
            index.check_invariants().unwrap();
            let order = swapped_order(&base, &swaps);
            let fresh =
                rebuild_weighted_index(&g, RankMap::from_rank_order(&order, base.strategy()));
            assert_eq!(index, fresh, "weighted re-rank differs from rebuild");
        }
    }
}
