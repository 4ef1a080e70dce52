//! Directed IncSPC / DecSPC (Appendix C.1).
//!
//! The undirected algorithms with directions attached:
//!
//! * **Insertion of arc `a → b`.** Affected hubs come from
//!   `L_in(a) ∪ L_out(b)`. A hub `h ∈ L_in(a)` (it tops paths `h → … → a`)
//!   runs a *forward* pruned BFS from `b`, seeded across the new arc,
//!   repairing `L_in` labels downstream. A hub `h ∈ L_out(b)` runs the
//!   mirror-image *backward* BFS from `a`, repairing `L_out` labels
//!   upstream.
//! * **Deletion of arc `a → b`.** `SR_a/R_a` are found by a backward
//!   counting sweep from `a` (vertices with shortest paths `v → a → b`),
//!   classified per Definition 3.10 with in-side hub membership;
//!   `SR_b/R_b` symmetrically by a forward sweep from `b` with out-side
//!   membership. Then hubs in `SR_a` repair `L_in` labels of
//!   `SR_b ∪ R_b` by forward BFS, hubs in `SR_b` repair `L_out` labels of
//!   `SR_a ∪ R_a` by backward BFS, with the same `PreQUERY` pruning and
//!   removal pass as the undirected Algorithm 6.

use super::{DirectedSpcIndex, Side};
use crate::engine::{
    aggregate_far_columns, build_endpoint_tasks, merge_affected, DirectedTopo, FarAggregator,
    FarColumn, HubHolders, MaintenanceCounters, RepairAgenda, UpdateEngine, MARK_A, MARK_B,
    REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::label::Rank;
use crate::parallel::{ClassifyMode, MaintenanceOptions, MaintenanceThreads};
use crate::query::HubProbe;
use dspc_graph::{DirectedGraph, VertexId};

/// Directed incremental driver: the arc-insertion policy over the shared
/// [`UpdateEngine`], running the forward (`L_in`) and backward (`L_out`)
/// halves through [`DirectedTopo`] views.
#[derive(Debug)]
pub struct DirectedIncSpc {
    engine: UpdateEngine<u32>,
    probe: HubProbe,
}

impl DirectedIncSpc {
    /// Creates an engine for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DirectedIncSpc {
            engine: UpdateEngine::new(capacity),
            probe: HubProbe::new(capacity),
        }
    }

    /// Repairs `index` after arc `a → b` was inserted into `g`. Returns the
    /// label-operation counters.
    pub fn insert_arc(
        &mut self,
        g: &DirectedGraph,
        index: &mut DirectedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> MaintenanceCounters {
        debug_assert!(g.has_arc(a, b));
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();
        // Snapshot AFF = hubs(L_in(a)) ∪ hubs(L_out(b)) with side flags,
        // merged in descending rank order.
        let aff = merge_affected(index.label_in(a).entries(), index.label_out(b).entries());
        let rank_a = index.rank(a);
        let rank_b = index.rank(b);
        for (h_rank, from_in_a, from_out_b) in aff {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            // The seed label lives on the same family as the repaired side:
            // L_in(a) when repairing L_in, L_out(b) when repairing L_out.
            if from_in_a && h_rank <= rank_b {
                // New paths h → … → a → b → …: forward from b, L_in side.
                if let Some(seed) = index.label_in(a).get(h_rank).copied() {
                    let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::In);
                    self.engine
                        .inc_pass(&mut topo, h, b, seed.dist + 1, seed.count, &mut stats);
                }
            }
            if from_out_b && h_rank <= rank_a {
                // New paths … → a → b → … → h: backward from a, L_out side.
                if let Some(seed) = index.label_out(b).get(h_rank).copied() {
                    let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::Out);
                    self.engine
                        .inc_pass(&mut topo, h, a, seed.dist + 1, seed.count, &mut stats);
                }
            }
        }
        stats
    }
}

/// Holder-list family of a repaired side: `L_in` is family 0, `L_out`
/// family 1.
fn family(side: Side) -> usize {
    match side {
        Side::In => 0,
        Side::Out => 1,
    }
}

/// Hub → holder lists over both label families of the receivers (see
/// [`family`]), for every agenda hub whichever families it repairs: the
/// wave scheduler's removal reach counts a row of either family.
fn directed_holders(
    index: &DirectedSpcIndex,
    hubs: impl IntoIterator<Item = Rank>,
    receivers: &[VertexId],
    stats: &mut MaintenanceCounters,
) -> HubHolders {
    HubHolders::build(
        hubs,
        receivers,
        2,
        |v, f| index.label([Side::In, Side::Out][f], v).entries(),
        stats,
    )
}

/// Directed decremental driver: the arc-deletion policy over the shared
/// [`UpdateEngine`].
#[derive(Debug)]
pub struct DirectedDecSpc {
    engine: UpdateEngine<u32>,
    probe: HubProbe,
    probes: Vec<HubProbe>,
    agenda: RepairAgenda,
    agg: FarAggregator,
}

impl DirectedDecSpc {
    /// Creates an engine for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DirectedDecSpc {
            engine: UpdateEngine::new(capacity),
            probe: HubProbe::new(capacity),
            probes: Vec::new(),
            agenda: RepairAgenda::new(capacity),
            agg: FarAggregator::new(capacity),
        }
    }

    /// Deletes arc `a → b` from `g` and repairs `index`. Returns the
    /// label-operation counters.
    pub fn delete_arc(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        if !g.has_arc(a, b) {
            return Err(dspc_graph::GraphError::MissingEdge(a, b));
        }
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();

        // Phase 1 on G_i: senders upstream of a (backward sweep from a over
        // in-arcs = the L_out view), receivers downstream of b (forward
        // sweep from b = the L_in view). The view's pin/scan/membership
        // sides line up with the sweep direction by construction — see
        // [`DirectedTopo`].
        let (sr_a, r_a) = {
            let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::Out);
            self.engine.srr_pass(&mut topo, a, b, 1, &mut stats)
        };
        let (sr_b, r_b) = {
            let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::In);
            self.engine.srr_pass(&mut topo, b, a, 1, &mut stats)
        };
        self.engine.set_marks([&sr_a, &r_a], [&sr_b, &r_b]);

        g.delete_arc(a, b)?;

        let mut sr: Vec<(Rank, bool)> = sr_a
            .iter()
            .map(|&v| (index.rank(v), true))
            .chain(sr_b.iter().map(|&v| (index.rank(v), false)))
            .collect();
        sr.sort_unstable_by_key(|&(r, _)| r);
        // A hub on a cycle through the arc can sit in both SR_a and SR_b;
        // it then sweeps twice, but once per family.
        let holders = directed_holders(
            index,
            sr.iter().map(|&(r, _)| r),
            self.engine.marked(),
            &mut stats,
        );

        for &(h_rank, upstream) in &sr {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            let (repair, opposite) = if upstream {
                // h tops paths h → … → a → b → …; repair L_in downstream.
                (Side::In, MARK_B)
            } else {
                (Side::Out, MARK_A)
            };
            let mut topo = DirectedTopo::new(g, index, &mut self.probe, repair);
            self.engine.dec_pass(
                &mut topo,
                h,
                opposite,
                holders.of(h_rank, family(repair)),
                &mut stats,
            );
        }

        self.engine.clear_marks();
        Ok(stats)
    }

    /// Multi-arc `SrrSEARCH` repair, sequential. Equivalent to
    /// [`DirectedDecSpc::delete_arcs_with`] with
    /// [`MaintenanceOptions::sequential`].
    #[deprecated(note = "use `delete_arcs_with` with `MaintenanceOptions::sequential()`")]
    pub fn delete_arcs(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        arcs: &[(VertexId, VertexId)],
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.delete_arcs_with(g, index, arcs, &MaintenanceOptions::sequential())
    }

    /// Multi-arc deletion with an explicit thread budget. Equivalent to
    /// [`DirectedDecSpc::delete_arcs_with`] with
    /// [`MaintenanceOptions::with_threads`].
    #[deprecated(note = "use `delete_arcs_with` with `MaintenanceOptions::with_threads(..)`")]
    pub fn delete_arcs_with_threads(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        arcs: &[(VertexId, VertexId)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.delete_arcs_with(
            g,
            index,
            arcs,
            &MaintenanceOptions::with_threads(MaintenanceThreads::Fixed(threads)),
        )
    }

    /// Multi-arc `SrrSEARCH` repair (the batch generalization of the
    /// directed deletion): deletes every arc of `arcs` from `g` and repairs
    /// `index` with at most one `DecUPDATE` sweep per distinct affected hub
    /// *per label family*, instead of one per arc per hub.
    ///
    /// Classification runs on the group-pre graph. Under the default
    /// [`ClassifyMode::MultiFar`] it costs one
    /// [`UpdateEngine::multi_far_pass`] per *distinct tail* (backward
    /// sweep, heads as fars) plus one per *distinct head* (forward sweep,
    /// tails as fars); the per-far count columns are summed per shared far
    /// endpoint, which fixes the mixed-frontier condition-**B** undercount
    /// when several doomed arcs share a head (or tail). Hubs found
    /// upstream are flagged to repair `L_in`, downstream hubs to repair
    /// `L_out`, and a hub affected from both directions across different
    /// arcs gets both flags merged into a single agenda entry. The repair
    /// sweeps then run against the residual graph with the union of all
    /// classified vertices as the shared receiver/removal frontier.
    ///
    /// A thread budget above 1 classifies endpoint tasks in parallel and
    /// runs the per-family repair sweeps as rank-independent waves over
    /// *weak* residual components (conservative for both sweep
    /// directions) on a persistent worker pool. Deterministic at every
    /// thread count.
    ///
    /// All arcs are validated present (and pairwise distinct) before the
    /// first mutation; on error nothing is applied.
    pub fn delete_arcs_with(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        arcs: &[(VertexId, VertexId)],
        options: &MaintenanceOptions,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        match arcs {
            [] => return Ok(MaintenanceCounters::default()),
            &[(a, b)] => return self.delete_arc(g, index, a, b),
            _ => {}
        }
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(arcs.len());
        for &(a, b) in arcs {
            if !g.has_arc(a, b) {
                return Err(dspc_graph::GraphError::MissingEdge(a, b));
            }
            keys.push((a.0, b.0));
        }
        if let Some((x, y)) = crate::engine::duplicate_edge_key(&mut keys) {
            return Err(dspc_graph::GraphError::MissingEdge(
                VertexId(x),
                VertexId(y),
            ));
        }
        self.engine.ensure_capacity(g.capacity());
        self.agenda.ensure_capacity(g.capacity());
        self.agg.ensure_capacity(g.capacity());
        let threads = options.threads.resolve();
        let mut stats = MaintenanceCounters::default();

        if threads <= 1 {
            match options.classify {
                ClassifyMode::PerEdge => {
                    for &(a, b) in arcs {
                        let (sr_a, r_a) = {
                            let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::Out);
                            self.engine.srr_pass(&mut topo, a, b, 1, &mut stats)
                        };
                        let (sr_b, r_b) = {
                            let mut topo = DirectedTopo::new(g, index, &mut self.probe, Side::In);
                            self.engine.srr_pass(&mut topo, b, a, 1, &mut stats)
                        };
                        // Upstream hubs top paths h → … → a → b and repair
                        // L_in; downstream hubs the mirror image.
                        self.agenda
                            .note_side(&sr_a, &r_a, REPAIR_PRIMARY, |v| index.rank(v));
                        self.agenda
                            .note_side(&sr_b, &r_b, REPAIR_SECONDARY, |v| index.rank(v));
                    }
                }
                ClassifyMode::MultiFar => {
                    use crate::engine::FrozenDirected;
                    // Tail tasks sweep backward (Side::Out views, heads as
                    // fars) and feed the L_in repair family; head tasks the
                    // mirror image.
                    for (side, family, tasks) in [
                        (
                            Side::Out,
                            REPAIR_PRIMARY,
                            build_endpoint_tasks(arcs.iter().map(|&(a, b)| (a, b, 1u32))),
                        ),
                        (
                            Side::In,
                            REPAIR_SECONDARY,
                            build_endpoint_tasks(arcs.iter().map(|&(a, b)| (b, a, 1u32))),
                        ),
                    ] {
                        let mut columns: Vec<FarColumn> = Vec::new();
                        {
                            let (g_ref, index_ref): (&DirectedGraph, &DirectedSpcIndex) =
                                (g, index);
                            let engine = &mut self.engine;
                            let probes = &mut self.probes;
                            for task in &tasks {
                                while probes.len() < task.fars.len() {
                                    probes.push(HubProbe::new(g_ref.capacity()));
                                }
                                let mut views: Vec<FrozenDirected> = probes[..task.fars.len()]
                                    .iter_mut()
                                    .map(|p| FrozenDirected::new(g_ref, index_ref, p, side))
                                    .collect();
                                columns.extend(
                                    engine.multi_far_pass(
                                        &mut views, task.near, &task.fars, &mut stats,
                                    ),
                                );
                            }
                        }
                        aggregate_far_columns(
                            &mut self.agg,
                            &columns,
                            &mut self.agenda,
                            family,
                            |v| index.rank(v),
                        );
                    }
                }
            }
            self.engine
                .set_marks([self.agenda.receivers(), &[]], [&[], &[]]);

            for &(a, b) in arcs {
                g.delete_arc(a, b)?;
            }

            let hubs = self.agenda.take_hubs();
            stats.agenda_hubs += hubs.len();
            let holders = directed_holders(
                index,
                hubs.iter().map(|&(r, _)| r),
                self.agenda.receivers(),
                &mut stats,
            );
            for (h_rank, families) in hubs {
                let h = index.vertex(h_rank);
                for (flag, repair) in [(REPAIR_PRIMARY, Side::In), (REPAIR_SECONDARY, Side::Out)] {
                    if families & flag == 0 {
                        continue;
                    }
                    stats.hubs_processed += 1;
                    let mut topo = DirectedTopo::new(g, index, &mut self.probe, repair);
                    self.engine.dec_pass(
                        &mut topo,
                        h,
                        MARK_A,
                        holders.of(h_rank, family(repair)),
                        &mut stats,
                    );
                }
            }

            self.engine.clear_marks();
        } else {
            self.delete_group_parallel(g, index, arcs, threads, options.classify, &mut stats)?;
        }
        self.agenda.clear();
        Ok(stats)
    }

    /// Wave-parallel twin of the sequential multi-arc body: classification
    /// fans out over the group's endpoint tasks, the set is deleted, and
    /// each agenda hub's family sweeps run as frozen sweeps inside
    /// rank-independent waves on a persistent worker pool. Both sweeps of
    /// one hub (`L_in` then `L_out`) stay on one worker in the sequential
    /// order — they touch disjoint label families, so the frozen reads
    /// match the sequential interleaving exactly.
    fn delete_group_parallel(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        arcs: &[(VertexId, VertexId)],
        threads: usize,
        classify: ClassifyMode,
        stats: &mut MaintenanceCounters,
    ) -> dspc_graph::Result<()> {
        use crate::engine::parallel::{
            agenda_components, family_sweeps, frozen_dec_sweep, note_schedule, plan_waves,
            run_wave_pool, Buffered, Interference, LabelWriteLog, WorkerScratch,
        };
        use crate::engine::FrozenDirected;
        use crate::label::LabelEntry;

        let cap = g.capacity();

        match classify {
            ClassifyMode::PerEdge => {
                let outcomes = {
                    let (g_ref, index_ref): (&DirectedGraph, &DirectedSpcIndex) = (g, index);
                    crate::parallel::fan_out(
                        arcs,
                        threads,
                        || {
                            (
                                UpdateEngine::<u32>::new(cap),
                                HubProbe::new(cap),
                                LabelWriteLog::<u32>::new(),
                            )
                        },
                        |(engine, probe, log), &(a, b)| {
                            let mut c = MaintenanceCounters::default();
                            let (sr_a, r_a) = {
                                let base = FrozenDirected::new(g_ref, index_ref, probe, Side::Out);
                                let mut topo = Buffered::new(base, log);
                                engine.srr_pass(&mut topo, a, b, 1, &mut c)
                            };
                            let (sr_b, r_b) = {
                                let base = FrozenDirected::new(g_ref, index_ref, probe, Side::In);
                                let mut topo = Buffered::new(base, log);
                                engine.srr_pass(&mut topo, b, a, 1, &mut c)
                            };
                            debug_assert!(log.is_empty(), "classification never writes");
                            (sr_a, r_a, sr_b, r_b, c)
                        },
                    )
                };
                for (sr_a, r_a, sr_b, r_b, c) in &outcomes {
                    stats.absorb(c);
                    self.agenda
                        .note_side(sr_a, r_a, REPAIR_PRIMARY, |v| index.rank(v));
                    self.agenda
                        .note_side(sr_b, r_b, REPAIR_SECONDARY, |v| index.rank(v));
                }
            }
            ClassifyMode::MultiFar => {
                for (side, family, tasks) in [
                    (
                        Side::Out,
                        REPAIR_PRIMARY,
                        build_endpoint_tasks(arcs.iter().map(|&(a, b)| (a, b, 1u32))),
                    ),
                    (
                        Side::In,
                        REPAIR_SECONDARY,
                        build_endpoint_tasks(arcs.iter().map(|&(a, b)| (b, a, 1u32))),
                    ),
                ] {
                    let outcomes = {
                        let (g_ref, index_ref): (&DirectedGraph, &DirectedSpcIndex) = (g, index);
                        crate::parallel::fan_out(
                            &tasks,
                            threads,
                            || (UpdateEngine::<u32>::new(cap), Vec::<HubProbe>::new()),
                            |(engine, probes), task| {
                                while probes.len() < task.fars.len() {
                                    probes.push(HubProbe::new(cap));
                                }
                                let mut c = MaintenanceCounters::default();
                                let mut views: Vec<FrozenDirected> = probes[..task.fars.len()]
                                    .iter_mut()
                                    .map(|p| FrozenDirected::new(g_ref, index_ref, p, side))
                                    .collect();
                                let cols = engine
                                    .multi_far_pass(&mut views, task.near, &task.fars, &mut c);
                                (cols, c)
                            },
                        )
                    };
                    let mut columns: Vec<FarColumn> = Vec::new();
                    for (cols, c) in outcomes {
                        stats.absorb(&c);
                        columns.extend(cols);
                    }
                    aggregate_far_columns(&mut self.agg, &columns, &mut self.agenda, family, |v| {
                        index.rank(v)
                    });
                }
            }
        }

        for &(a, b) in arcs {
            g.delete_arc(a, b)?;
        }

        let hubs = self.agenda.take_hubs();
        stats.agenda_hubs += hubs.len();
        let receivers = self.agenda.receivers();
        let holders = directed_holders(index, hubs.iter().map(|&(r, _)| r), receivers, stats);
        let schedule = if hubs.len() < 2 {
            plan_waves(hubs.len(), |_, _| false)
        } else {
            // Weak components of the residual digraph, labeled only where
            // the agenda actually reaches.
            let (comp, probes) = agenda_components(
                cap,
                hubs.iter()
                    .map(|&(r, _)| index.vertex(r))
                    .chain(receivers.iter().copied()),
                |v, f| {
                    for &w in g.out_neighbors(VertexId(v)) {
                        f(w);
                    }
                    for &w in g.in_neighbors(VertexId(v)) {
                        f(w);
                    }
                },
            );
            stats.interference_probes += probes;
            let inter = Interference::build(&comp, &hubs, |r| index.vertex(r), &holders);
            plan_waves(hubs.len(), |i, j| inter.conflicts(i, j))
        };
        note_schedule(stats, &schedule);
        type SweepResult = (Side, LabelWriteLog<u32>, MaintenanceCounters);
        let items: Vec<(Rank, u8)> = hubs;
        let waves: Vec<&[usize]> = schedule.iter().collect();
        let g_ref: &DirectedGraph = g;
        let index_lock = std::sync::RwLock::new(&mut *index);
        let steals = run_wave_pool(
            threads,
            &items,
            &waves,
            || WorkerScratch::for_group(cap, receivers, HubProbe::new(cap)),
            |scratch, &(h_rank, families)| {
                let guard = index_lock.read().unwrap();
                let index: &DirectedSpcIndex = &guard;
                let h = index.vertex(h_rank);
                let sweeps: Vec<SweepResult> = family_sweeps(families)
                    .map(|flag| {
                        let repair = if flag == REPAIR_PRIMARY {
                            Side::In
                        } else {
                            Side::Out
                        };
                        let base = FrozenDirected::new(g_ref, index, &mut scratch.probe, repair);
                        let (log, c) = frozen_dec_sweep(
                            &mut scratch.engine,
                            base,
                            h,
                            holders.of(h_rank, family(repair)),
                        );
                        (repair, log, c)
                    })
                    .collect();
                sweeps
            },
            |results| {
                let mut guard = index_lock.write().unwrap();
                for sweeps in results {
                    for (repair, mut log, c) in sweeps {
                        stats.absorb(&c);
                        for (v, hub, op) in log.drain() {
                            match op {
                                Some((d, cnt)) => {
                                    guard
                                        .label_mut(repair, v)
                                        .upsert(LabelEntry::new(hub, d, cnt));
                                }
                                None => {
                                    guard.label_mut(repair, v).remove(hub);
                                }
                            }
                        }
                    }
                }
            },
        );
        stats.steal_events += steals;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::{directed_spc_query, DynamicDirectedSpc};
    use crate::order::OrderingStrategy;
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_orientation};
    use dspc_graph::traversal::dbfs::DirectedBfsCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_oracle(g: &DirectedGraph, index: &DirectedSpcIndex) {
        let mut bfs = DirectedBfsCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    directed_spc_query(index, s, t).as_option(),
                    bfs.count(g, s, t),
                    "pair ({s:?} → {t:?})"
                );
            }
        }
    }

    #[test]
    fn insert_creates_reachability() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (2, 3)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        d.insert_arc(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn insert_parallel_path_updates_counts() {
        let g = DirectedGraph::from_arcs(4, &[(0, 1), (1, 3), (0, 2)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        d.insert_arc(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 2)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn delete_reroutes_and_disconnects() {
        let g = DirectedGraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 1)));
        d.delete_arc(VertexId(4), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_arc(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn reciprocal_arcs_are_independent() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        d.delete_arc(VertexId(1), VertexId(2)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), None);
        assert_eq!(d.query(VertexId(2), VertexId(0)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn random_hybrid_streams_match_oracle() {
        let mut rng = StdRng::seed_from_u64(777);
        for trial in 0..5 {
            let base = erdos_renyi_gnm(22 + trial, 50, &mut rng);
            let g = random_orientation(&base, 0.25, &mut rng);
            let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
            for step in 0..24 {
                if rng.gen_bool(0.6) || d.graph().num_arcs() == 0 {
                    loop {
                        let a = rng.gen_range(0..d.graph().capacity() as u32);
                        let b = rng.gen_range(0..d.graph().capacity() as u32);
                        if a != b && !d.graph().has_arc(VertexId(a), VertexId(b)) {
                            d.insert_arc(VertexId(a), VertexId(b)).unwrap();
                            break;
                        }
                    }
                } else {
                    let arcs: Vec<_> = d.graph().arcs().collect();
                    let (a, b) = arcs[rng.gen_range(0..arcs.len())];
                    d.delete_arc(a, b).unwrap();
                }
                if step % 6 == 5 {
                    assert_matches_oracle(d.graph(), d.index());
                    d.index().check_invariants().unwrap();
                }
            }
            assert_matches_oracle(d.graph(), d.index());
        }
    }

    #[test]
    fn delete_missing_arc_errors() {
        let g = DirectedGraph::from_arcs(2, &[(0, 1)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        assert!(d.delete_arc(VertexId(1), VertexId(0)).is_err());
    }

    #[test]
    fn vertex_lifecycle_directed() {
        let g = DirectedGraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
        let v = d.add_vertex();
        assert_eq!(v, VertexId(3));
        d.insert_arc(VertexId(2), v).unwrap();
        d.insert_arc(v, VertexId(0)).unwrap();
        assert_eq!(d.query(VertexId(0), v), Some((3, 1)));
        assert_eq!(d.query(v, VertexId(1)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_vertex(v).unwrap();
        assert_matches_oracle(d.graph(), d.index());
        d.index().check_invariants().unwrap();
    }
}
