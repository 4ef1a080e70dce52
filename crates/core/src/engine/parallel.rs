//! Wave-scheduled parallel intra-batch maintenance.
//!
//! §6 of the paper leaves parallel *updates* as future work because hub
//! repair sweeps have strict rank-order dependencies: `DecUPDATE` for hub
//! `h` prunes with `PreQUERY`, which trusts the labels of every hub ranked
//! strictly above `h` to be repaired already. This module recovers
//! intra-batch parallelism anyway, without giving up exactness or
//! determinism, by exploiting what the batch path already computes: the
//! deduplicated hub agenda and shared receiver frontier of a whole
//! net-deletion group ([`super::RepairAgenda`]).
//!
//! ## The scheme
//!
//! 1. **Frozen sweeps.** A worker runs a hub's repair sweep against an
//!    *immutable* borrow of the index, recording its label mutations in a
//!    [`LabelWriteLog`] instead of applying them ([`Buffered`] wraps a
//!    read-only [`FrozenTopology`] view into the engine's mutable
//!    [`LabelTopology`]). Logs are committed on the coordinating thread at
//!    wave boundaries, so no two threads ever alias index memory.
//! 2. **Rank-independent waves.** Hubs are partitioned greedily, in
//!    descending rank order, into waves such that no two hubs in one wave
//!    *interfere* ([`plan_waves`]). A sweep for hub `h` only ever writes
//!    `(h, ·, ·)` rows — two sweeps never write the same label — so the
//!    only hazard is a lower-ranked hub **reading** (via `PreQUERY` or its
//!    pinned probe) a label a higher-ranked same-wave hub would have
//!    rewritten. The conservative interference test over-approximates that
//!    read/write intersection (see [`Interference`]); whenever it reports
//!    independence, the frozen sweep observes exactly the state the
//!    sequential schedule would have shown it.
//! 3. **Deterministic merge.** Logs and [`super::MaintenanceCounters`]
//!    are merged in rank order. Because every sweep is bit-identical to
//!    its sequential counterpart, the committed index, query answers, and
//!    merged counters are independent of the thread count — which is what
//!    lets CI gate on sweep counters instead of flaky wall-clock numbers.
//!    Hub sweeps of one wave run on a **persistent worker pool**
//!    ([`run_wave_pool`]): workers and their engine arenas are created
//!    once per batch and reused across every wave, with idle workers
//!    back-stealing queued hubs from their neighbors — only the
//!    (scheduling-dependent) `steal_events` counter can tell the
//!    difference.
//!
//! ## The interference test
//!
//! Let `comp(v)` be `v`'s connected component in the *residual* graph (the
//! graph with the whole net-deletion set removed; weak components for
//! the directed variant). Components are labeled by [`agenda_components`],
//! a bounded BFS seeded only at the agenda's hubs and receivers — vertices
//! in components the agenda never touches are left unlabeled and never
//! visited, unlike the former full-graph union-find over every residual
//! edge. A sweep for hub `h`:
//!
//! * **writes** row `h` at vertices it visits (all inside `comp(h)`, by
//!   connectivity) and *removes* row `h` at unreached receivers — which
//!   can lie in other components, but only where the index already holds
//!   an `(h, ·, ·)` entry;
//! * **reads** labels only at visited vertices (all inside `comp(h)`) and
//!   at its own pinned label set (`h` itself).
//!
//! Hence hubs `x` and `y` can only interfere when `comp(x) = comp(y)`, or
//! when one hub's *removal reach* — the set of components holding a
//! receiver labeled with that hub's row — includes the other's component.
//! Everything else is independent; in particular, repair work in disjoint
//! residual components always parallelizes. A hub's own upserts only ever
//! shrink nothing and stay in `comp(h)`, so the model built once per group
//! stays conservative for every later wave.

use super::{
    EngineDist, HubHolders, LabelTopology, MaintenanceCounters, UpdateEngine, MARK_A,
    REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::label::{Count, Rank};
use dspc_graph::VertexId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// A recorded label mutation: `Some((d, c))` upserts `(hub, d, c)` at the
/// vertex, `None` removes the `(hub, ·, ·)` entry.
pub type LabelWriteOp<D> = (VertexId, Rank, Option<(D, Count)>);

/// The buffered label mutations of one frozen repair sweep, in the order
/// the sequential sweep would have applied them.
#[derive(Debug, Default)]
pub struct LabelWriteLog<D> {
    ops: Vec<LabelWriteOp<D>>,
}

impl<D> LabelWriteLog<D> {
    /// An empty log.
    pub fn new() -> Self {
        LabelWriteLog { ops: Vec::new() }
    }

    /// Drains the recorded operations for committing.
    pub fn drain(&mut self) -> impl Iterator<Item = LabelWriteOp<D>> + '_ {
        self.ops.drain(..)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The read-only half of [`LabelTopology`]: what a frozen worker view must
/// provide. [`Buffered`] lifts any implementor into a full
/// [`LabelTopology`] by logging the write half.
pub trait FrozenTopology {
    /// Distance domain.
    type Dist: EngineDist;

    /// Whether sweeps settle in distance order (Dijkstra) or FIFO order.
    const DIJKSTRA: bool;

    /// Rank of vertex `v`.
    fn rank(&self, v: u32) -> Rank;

    /// Pins the hub-side label set of `x` for subsequent probe queries.
    fn load_probe(&mut self, x: VertexId);

    /// `SpcQUERY(pinned, v)`.
    fn probe_query(&self, v: VertexId) -> (Self::Dist, Count);

    /// `PreQUERY(pinned, v)`: hubs ranked strictly above `limit` only.
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (Self::Dist, Count);

    /// Visits each traversal neighbor of `v` with its edge length.
    fn for_each_neighbor<F: FnMut(u32, Self::Dist)>(&self, v: u32, f: F);

    /// Entry `(hub, ·, ·)` of the repaired family at `v`, if present.
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(Self::Dist, Count)>;

    /// Condition **A** membership test.
    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool;
}

/// Adapter: a frozen read-only view plus a write log, presented to the
/// engine as a plain [`LabelTopology`].
///
/// Sound for the engine's sweeps because neither `srr_pass` nor `dec_pass`
/// ever reads a label its own pass previously wrote: every vertex is
/// settled once, the row-`h` read at a vertex precedes the row-`h` write
/// there, and removal only touches receivers the sweep never updated —
/// so reading the frozen index reproduces the sequential values verbatim.
pub struct Buffered<'a, T: FrozenTopology> {
    base: T,
    log: &'a mut LabelWriteLog<T::Dist>,
}

impl<'a, T: FrozenTopology> Buffered<'a, T> {
    /// Wraps `base`, recording writes into `log`.
    pub fn new(base: T, log: &'a mut LabelWriteLog<T::Dist>) -> Self {
        Buffered { base, log }
    }
}

impl<T: FrozenTopology> LabelTopology for Buffered<'_, T> {
    type Dist = T::Dist;

    const DIJKSTRA: bool = T::DIJKSTRA;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.base.rank(v)
    }

    fn load_probe(&mut self, x: VertexId) {
        self.base.load_probe(x);
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (Self::Dist, Count) {
        self.base.probe_query(v)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (Self::Dist, Count) {
        self.base.probe_pre_query(v, limit)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, Self::Dist)>(&self, v: u32, f: F) {
        self.base.for_each_neighbor(v, f);
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(Self::Dist, Count)> {
        self.base.label_get(v, hub)
    }

    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: Self::Dist, c: Count) {
        self.log.ops.push((v, hub, Some((d, c))));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        let existed = self.base.label_get(v, hub).is_some();
        if existed {
            self.log.ops.push((v, hub, None));
        }
        existed
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        self.base.is_common_hub(hub, near, far)
    }
}

/// Labels the residual components *touched by the agenda* with a bounded
/// BFS: each unlabeled seed floods its component (via `neighbors`, which
/// visits a vertex's residual adjacency; directed callers visit out- and
/// in-neighbors for weak components), labeling every member with the
/// seed's vertex id. Vertices in components no seed reaches keep the
/// `u32::MAX` sentinel and are never visited — [`Interference`] only ever
/// compares labels of agenda members, so the partition is equivalent to a
/// full-graph union-find restricted to the components that matter, at a
/// cost bounded by their total size instead of the whole residual edge
/// set.
///
/// Returns `(comp, probes)` where `probes` counts labeled vertices (the
/// `interference_probes` counter).
pub fn agenda_components(
    capacity: usize,
    seeds: impl Iterator<Item = VertexId>,
    mut neighbors: impl FnMut(u32, &mut dyn FnMut(u32)),
) -> (Vec<u32>, usize) {
    let mut comp = vec![u32::MAX; capacity];
    let mut probes = 0usize;
    let mut queue: Vec<u32> = Vec::new();
    for seed in seeds {
        if comp[seed.index()] != u32::MAX {
            continue;
        }
        let label = seed.0;
        comp[seed.index()] = label;
        probes += 1;
        queue.clear();
        queue.push(seed.0);
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            neighbors(v, &mut |w| {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = label;
                    probes += 1;
                    queue.push(w);
                }
            });
        }
    }
    (comp, probes)
}

/// The conservative pairwise interference model over one group's hub
/// agenda (see the module docs for the safety argument).
#[derive(Debug)]
pub struct Interference {
    /// Residual-graph component of each agenda hub's vertex.
    hub_comp: Vec<u32>,
    /// Per hub: sorted component ids of receivers carrying that hub's row
    /// — the components its removal pass can write into.
    removal_comps: Vec<Vec<u32>>,
}

impl Interference {
    /// Builds the model. `comp` maps vertex id → residual component,
    /// `hubs` is the rank-ordered agenda, `hub_vertex` resolves a rank to
    /// its vertex, and `holders` lists, per agenda hub (slot `i` = agenda
    /// entry `i`), the receivers carrying its row in any label family.
    pub fn build(
        comp: &[u32],
        hubs: &[(Rank, u8)],
        mut hub_vertex: impl FnMut(Rank) -> VertexId,
        holders: &HubHolders,
    ) -> Interference {
        debug_assert_eq!(holders.hubs(), hubs.len());
        let hub_comp: Vec<u32> = hubs
            .iter()
            .map(|&(r, _)| comp[hub_vertex(r).index()])
            .collect();
        let removal_comps: Vec<Vec<u32>> = (0..hubs.len())
            .map(|i| {
                let mut rc: Vec<u32> = holders.of_slot(i).iter().map(|v| comp[v.index()]).collect();
                rc.sort_unstable();
                rc.dedup();
                rc
            })
            .collect();
        Interference {
            hub_comp,
            removal_comps,
        }
    }

    /// Whether agenda hubs `i` and `j` may interfere: same residual
    /// component, or either hub's removal reach covers the other's
    /// component.
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        self.hub_comp[i] == self.hub_comp[j]
            || self.removal_comps[i]
                .binary_search(&self.hub_comp[j])
                .is_ok()
            || self.removal_comps[j]
                .binary_search(&self.hub_comp[i])
                .is_ok()
    }
}

/// The wave partition of one group's hub agenda: each wave holds agenda
/// indices that are pairwise independent and may run concurrently; waves
/// execute in order, with every log committed before the next wave starts.
#[derive(Debug)]
pub struct WaveSchedule {
    waves: Vec<Vec<usize>>,
}

impl WaveSchedule {
    /// Number of waves.
    pub fn waves(&self) -> usize {
        self.waves.len()
    }

    /// Width of the widest wave (≥ 2 means real parallelism was found).
    pub fn max_wave_width(&self) -> usize {
        self.waves.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The waves, in execution order, as slices of agenda indices (each
    /// slice ascending, i.e. descending hub rank).
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.waves.iter().map(Vec::as_slice)
    }
}

/// Greedy earliest-wave partition of `n` rank-ordered agenda entries:
/// entry `i` lands in the first wave after every earlier conflicting
/// entry's wave. Conflicting pairs therefore always execute in rank order
/// with a commit barrier between them, while independent hubs share a
/// wave. Deterministic: depends only on the agenda order and the
/// (deterministic) interference test, never on thread scheduling.
pub fn plan_waves(n: usize, mut conflicts: impl FnMut(usize, usize) -> bool) -> WaveSchedule {
    let mut wave_of = vec![0usize; n];
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let mut w = 0usize;
        for (j, &wave_j) in wave_of.iter().enumerate().take(i) {
            if wave_j >= w && conflicts(j, i) {
                w = wave_j + 1;
            }
        }
        wave_of[i] = w;
        if waves.len() <= w {
            waves.resize_with(w + 1, Vec::new);
        }
        waves[w].push(i);
    }
    WaveSchedule { waves }
}

/// Records a schedule's shape into the group's counters (sequential
/// repair leaves both fields at zero).
pub fn note_schedule(stats: &mut MaintenanceCounters, schedule: &WaveSchedule) {
    stats.waves += schedule.waves();
    stats.max_wave_width = stats.max_wave_width.max(schedule.max_wave_width());
}

/// Runs a wave schedule on a persistent worker pool with work stealing.
///
/// `threads` workers are spawned **once** (one [`std::thread::scope`]
/// spans every wave) and each creates its scratch **once** — the arena
/// allocations the former per-wave `fan_out` paid per wave are paid per
/// batch. For each wave, the coordinating thread splits the wave's item
/// indices into contiguous per-worker runs, releases the pool through a
/// barrier, and waits on a second barrier while workers drain their own
/// runs front-to-back and, when empty, *steal from the back* of the next
/// non-empty neighbor (fixed scan order). Each item's result lands in its
/// own slot, so `commit` always observes a wave's results in item order —
/// stealing changes *which worker* computes a result, never the committed
/// outcome. The commit closure runs on the coordinating thread between
/// barriers, when no worker touches shared state.
///
/// A panic in `work` is caught on its worker, so the pool still meets at
/// every barrier; the coordinator then commits nothing of that wave, shuts
/// the pool down, and resumes the panic on the calling thread — a failing
/// sweep fails the batch instead of deadlocking it.
///
/// Returns the number of successful steals (the `steal_events` counter —
/// scheduling-dependent, excluded from determinism checks).
pub fn run_wave_pool<I, S, R>(
    threads: usize,
    items: &[I],
    waves: &[&[usize]],
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &I) -> R + Sync,
    mut commit: impl FnMut(Vec<R>),
) -> usize
where
    I: Sync,
    R: Send,
{
    if threads <= 1 || items.len() <= 1 {
        let mut scratch = make_scratch();
        for wave in waves {
            let results: Vec<R> = wave
                .iter()
                .map(|&i| work(&mut scratch, &items[i]))
                .collect();
            commit(results);
        }
        return 0;
    }
    let workers = threads.min(items.len());
    let steals = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(workers + 1);
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let results: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    let mut panicked = None;
    std::thread::scope(|scope| {
        for k in 0..workers {
            let (barrier, done, deques, results, steals) =
                (&barrier, &done, &deques, &results, &steals);
            let (make_scratch, work) = (&make_scratch, &work);
            scope.spawn(move || {
                let mut scratch = make_scratch();
                loop {
                    barrier.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    loop {
                        let mut item = deques[k].lock().unwrap().pop_front();
                        if item.is_none() {
                            for off in 1..workers {
                                let victim = (k + off) % workers;
                                if let Some(i) = deques[victim].lock().unwrap().pop_back() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    item = Some(i);
                                    break;
                                }
                            }
                        }
                        let Some(i) = item else { break };
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            work(&mut scratch, &items[i])
                        }));
                        *results[i].lock().unwrap() = Some(r);
                    }
                    barrier.wait();
                }
            });
        }
        for wave in waves {
            let mut pos = 0usize;
            for (k, len) in crate::parallel::chunk_lengths(wave.len(), workers).enumerate() {
                let mut dq = deques[k].lock().unwrap();
                for &i in &wave[pos..pos + len] {
                    dq.push_back(i);
                }
                pos += len;
            }
            barrier.wait(); // release the pool into this wave
            barrier.wait(); // wait for the wave to drain
            let mut collected: Vec<R> = Vec::with_capacity(wave.len());
            for &i in *wave {
                let result = results[i]
                    .lock()
                    .expect("workers catch their panics, so no result lock is poisoned")
                    .take();
                match result.expect("every wave item produces a result") {
                    Ok(r) => collected.push(r),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            if panicked.is_some() {
                break;
            }
            commit(collected);
        }
        done.store(true, Ordering::Release);
        barrier.wait();
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    steals.into_inner()
}

/// One worker's reusable scratch: an engine arena (with the group's
/// receiver marks pre-set) and the variant's probe.
pub struct WorkerScratch<D: EngineDist, P> {
    /// The engine arena.
    pub engine: UpdateEngine<D>,
    /// The variant's pinned-hub probe.
    pub probe: P,
}

impl<D: EngineDist, P> WorkerScratch<D, P> {
    /// Scratch for graphs up to `capacity` ids with the group receiver
    /// union pre-marked (the batch path marks every receiver `MARK_A`).
    pub fn for_group(capacity: usize, receivers: &[VertexId], probe: P) -> Self {
        let mut engine = UpdateEngine::new(capacity);
        engine.set_marks([receivers, &[]], [&[], &[]]);
        WorkerScratch { engine, probe }
    }
}

/// Shared shape of one parallel repair sweep: runs `dec_pass` for
/// `h` against a frozen view with `h`'s holder list, returning the write
/// log and the sweep's own counters (with `hubs_processed = 1`, mirroring
/// the sequential driver).
pub fn frozen_dec_sweep<T: FrozenTopology>(
    engine: &mut UpdateEngine<T::Dist>,
    base: T,
    h: VertexId,
    holders: &[VertexId],
) -> (LabelWriteLog<T::Dist>, MaintenanceCounters) {
    let mut counters = MaintenanceCounters {
        hubs_processed: 1,
        ..MaintenanceCounters::default()
    };
    let mut log = LabelWriteLog::new();
    {
        let mut topo = Buffered::new(base, &mut log);
        engine.dec_pass(&mut topo, h, MARK_A, holders, &mut counters);
    }
    (log, counters)
}

/// Splits agenda family bits into the directed variant's sweep order
/// (`L_in` first, then `L_out`), matching the sequential driver.
pub fn family_sweeps(families: u8) -> impl Iterator<Item = u8> {
    [REPAIR_PRIMARY, REPAIR_SECONDARY]
        .into_iter()
        .filter(move |&f| families & f != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelEntry;

    #[test]
    fn bounded_bfs_labels_only_touched_components() {
        // Adjacency: {0,1,2} form a path, {4,5} an edge, 3 and 6 isolated.
        let adj: Vec<Vec<u32>> = vec![
            vec![1],
            vec![0, 2],
            vec![1],
            vec![],
            vec![5],
            vec![4],
            vec![],
        ];
        // Seeds touch the path and the edge but never vertex 3 or 6.
        let (comp, probes) =
            agenda_components(7, [VertexId(0), VertexId(5)].into_iter(), |v, f| {
                for &w in &adj[v as usize] {
                    f(w);
                }
            });
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[0], comp[4]);
        // Untouched components stay unlabeled and unvisited.
        assert_eq!(comp[3], u32::MAX);
        assert_eq!(comp[6], u32::MAX);
        assert_eq!(probes, 5);

        // A second seed inside an already-labeled component floods nothing.
        let (comp2, probes2) = agenda_components(
            7,
            [VertexId(0), VertexId(2), VertexId(5)].into_iter(),
            |v, f| {
                for &w in &adj[v as usize] {
                    f(w);
                }
            },
        );
        assert_eq!(comp2[..6], comp[..6]);
        assert_eq!(probes2, 5);
    }

    #[test]
    fn wave_pool_matches_inline_execution_and_reuses_scratch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..23).collect();
        let all: Vec<usize> = (0..items.len()).collect();
        let waves: Vec<&[usize]> = vec![&all[..7], &all[7..8], &all[8..]];
        for threads in [1usize, 2, 4, 8] {
            let scratches = AtomicUsize::new(0);
            let mut committed: Vec<Vec<usize>> = Vec::new();
            let steals = run_wave_pool(
                threads,
                &items,
                &waves,
                || {
                    scratches.fetch_add(1, Ordering::Relaxed);
                },
                |_s, &i| i * 10,
                |r| committed.push(r),
            );
            // Results arrive per wave, in item order, at every thread count.
            let expect: Vec<Vec<usize>> = waves
                .iter()
                .map(|w| w.iter().map(|&i| i * 10).collect())
                .collect();
            assert_eq!(committed, expect, "threads={threads}");
            // One scratch per pool worker for the whole schedule — not per
            // wave.
            let max_workers = threads.min(items.len()).max(1);
            assert!(
                scratches.load(Ordering::Relaxed) <= max_workers,
                "threads={threads}"
            );
            if threads <= 1 {
                assert_eq!(steals, 0);
            }
        }
    }

    #[test]
    fn wave_pool_resumes_a_worker_panic_instead_of_deadlocking() {
        let items: Vec<usize> = (0..8).collect();
        let all: Vec<usize> = (0..items.len()).collect();
        let waves: Vec<&[usize]> = vec![&all[..4], &all[4..]];
        let mut committed = 0usize;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_wave_pool(
                2,
                &items,
                &waves,
                || (),
                |_, &i| {
                    assert_ne!(i, 5, "item 5 fails");
                    i
                },
                |r| committed += r.len(),
            )
        }));
        assert!(outcome.is_err(), "the worker's panic reaches the caller");
        // The first wave committed; the failing wave committed nothing.
        assert_eq!(committed, 4);
    }

    #[test]
    fn greedy_waves_respect_conflicts() {
        // 0 conflicts both 1 and 2; 1 and 2 are independent of each other:
        // waves [0], [1, 2].
        let schedule = plan_waves(3, |j, i| j == 0 && (i == 1 || i == 2));
        let waves: Vec<&[usize]> = schedule.iter().collect();
        assert_eq!(waves, vec![&[0][..], &[1, 2][..]]);
        assert_eq!(schedule.waves(), 2);
        assert_eq!(schedule.max_wave_width(), 2);

        // A conflict chain serializes transitively: 1 waits on 0, 2 on 1.
        let chain = plan_waves(3, |j, i| i == j + 1);
        let waves: Vec<&[usize]> = chain.iter().collect();
        assert_eq!(waves, vec![&[0][..], &[1][..], &[2][..]]);
    }

    #[test]
    fn fully_conflicting_agenda_serializes() {
        let schedule = plan_waves(4, |_, _| true);
        assert_eq!(schedule.waves(), 4);
        assert_eq!(schedule.max_wave_width(), 1);
        // Execution order is rank order.
        let order: Vec<usize> = schedule.iter().flatten().copied().collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Holder lists over receivers 1 and 3 with the given label rows.
    fn holders_of(hubs: &[(Rank, u8)], rows: &[Vec<LabelEntry>]) -> HubHolders {
        HubHolders::build(
            hubs.iter().map(|&(r, _)| r),
            &[VertexId(1), VertexId(3)],
            1,
            |v, _| &rows[v.index()][..],
            &mut MaintenanceCounters::default(),
        )
    }

    fn row(hubs: &[u32]) -> Vec<LabelEntry> {
        hubs.iter()
            .map(|&h| LabelEntry::new(Rank(h), 1, 1))
            .collect()
    }

    #[test]
    fn interference_separates_disjoint_components() {
        // comp layout: {0,1} and {2,3}; hubs at 0 (rank 0) and 2 (rank 2);
        // receivers 1 and 3 carry only their own side's rows.
        let comp = vec![0u32, 0, 2, 2];
        let hubs = vec![(Rank(0), 1u8), (Rank(2), 1u8)];
        let rows = vec![row(&[]), row(&[0]), row(&[]), row(&[2])];
        let inter = Interference::build(&comp, &hubs, |r| VertexId(r.0), &holders_of(&hubs, &rows));
        assert!(!inter.conflicts(0, 1));
        let schedule = plan_waves(2, |i, j| inter.conflicts(i, j));
        assert_eq!(schedule.max_wave_width(), 2);
    }

    #[test]
    fn interference_detects_cross_component_removals() {
        // Hub 0 sits in component 0 but a receiver in component 2 still
        // carries its row (a pre-deletion path crossed the cut): its
        // removal pass reaches into the other hub's component.
        let comp = vec![0u32, 0, 2, 2];
        let hubs = vec![(Rank(0), 1u8), (Rank(2), 1u8)];
        let rows = vec![row(&[]), row(&[0]), row(&[]), row(&[0, 2])];
        let inter = Interference::build(&comp, &hubs, |r| VertexId(r.0), &holders_of(&hubs, &rows));
        assert!(inter.conflicts(0, 1));
    }
}
