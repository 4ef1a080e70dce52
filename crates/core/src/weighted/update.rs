//! Weighted IncSPC / DecSPC (Appendix C.2).
//!
//! * **Incremental** (`apply`): edge insertion, or weight decrease
//!   `w_ab → w'_ab`. For each hub `h ∈ L(a) ∪ L(b)` a partial Dijkstra
//!   starts across the edge with initial distance `d_{h,a} + w'_ab` and
//!   count `c_{h,a}`, renewing/inserting labels under the strict
//!   settle-time prune `query(h, v) < D[v]`.
//! * **Decremental** (`delete_edge` / `increase_weight`): the affected
//!   vertex condition becomes `sd_i(v, a) + w_ab = sd_i(v, b)` (weight, not
//!   hops). `SrrSEARCH` runs Dijkstra on the old graph; `DecUPDATE` runs
//!   rank-pruned Dijkstra from each `SR` hub on the new graph with
//!   `PreQUERY` pruning and the (unconditional — see [`crate::engine`])
//!   removal pass.

use super::{WHubProbe, WeightedSpcIndex};
use crate::engine::{
    aggregate_far_columns, build_endpoint_tasks, merge_affected, FarAggregator, FarColumn,
    HubHolders, MaintenanceCounters, RepairAgenda, UpdateEngine, WeightedTopo, MARK_A, MARK_B,
    REPAIR_PRIMARY,
};
use crate::label::Rank;
use crate::parallel::{ClassifyMode, MaintenanceOptions, MaintenanceThreads};
use dspc_graph::weighted::{WDist, Weight, WeightedGraph};
use dspc_graph::VertexId;

/// Weighted incremental driver: the insertion/weight-decrease policy over
/// the shared [`UpdateEngine`], running partial Dijkstras through
/// [`WeightedTopo`] views.
#[derive(Debug)]
pub struct WeightedIncSpc {
    engine: UpdateEngine<WDist>,
    probe: WHubProbe,
}

impl WeightedIncSpc {
    /// Creates an engine.
    pub fn new(capacity: usize) -> Self {
        WeightedIncSpc {
            engine: UpdateEngine::new(capacity),
            probe: WHubProbe::new(capacity),
        }
    }

    /// Repairs `index` after edge `(a, b)` was inserted with weight `w`, or
    /// after its weight *decreased* to `w`. `g` must already reflect the
    /// change. Returns the label-operation counters.
    pub fn apply(
        &mut self,
        g: &WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> MaintenanceCounters {
        debug_assert_eq!(g.weight(a, b), Some(w));
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();
        let aff = merge_affected(index.label_set(a).entries(), index.label_set(b).entries());
        let (rank_a, rank_b) = (index.rank(a), index.rank(b));
        for (h_rank, in_a, in_b) in aff {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            if in_a && h_rank <= rank_b {
                if let Some(seed) = index.label_set(a).get(h_rank).copied() {
                    let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                    self.engine.inc_pass(
                        &mut topo,
                        h,
                        b,
                        seed.dist + w as WDist,
                        seed.count,
                        &mut stats,
                    );
                }
            }
            if in_b && h_rank <= rank_a {
                if let Some(seed) = index.label_set(b).get(h_rank).copied() {
                    let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                    self.engine.inc_pass(
                        &mut topo,
                        h,
                        a,
                        seed.dist + w as WDist,
                        seed.count,
                        &mut stats,
                    );
                }
            }
        }
        stats
    }
}

/// Hub → holder lists over the receivers' label rows (one family).
fn weighted_holders(
    index: &WeightedSpcIndex,
    hubs: impl IntoIterator<Item = Rank>,
    receivers: &[VertexId],
    stats: &mut MaintenanceCounters,
) -> HubHolders {
    HubHolders::build(
        hubs,
        receivers,
        1,
        |v, _| index.label_set(v).entries(),
        stats,
    )
}

/// Weighted decremental driver: the deletion/weight-increase policy over
/// the shared [`UpdateEngine`].
#[derive(Debug)]
pub struct WeightedDecSpc {
    engine: UpdateEngine<WDist>,
    probe: WHubProbe,
    probes: Vec<WHubProbe>,
    agenda: RepairAgenda,
    agg: FarAggregator,
}

impl WeightedDecSpc {
    /// Creates an engine.
    pub fn new(capacity: usize) -> Self {
        WeightedDecSpc {
            engine: UpdateEngine::new(capacity),
            probe: WHubProbe::new(capacity),
            probes: Vec::new(),
            agenda: RepairAgenda::new(capacity),
            agg: FarAggregator::new(capacity),
        }
    }

    /// Multi-edge `SrrSEARCH` repair, sequential. Equivalent to
    /// [`WeightedDecSpc::delete_edges_with`] with
    /// [`MaintenanceOptions::sequential`].
    #[deprecated(note = "use `delete_edges_with` with `MaintenanceOptions::sequential()`")]
    pub fn delete_edges(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        edges: &[(VertexId, VertexId)],
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.delete_edges_with(g, index, edges, &MaintenanceOptions::sequential())
    }

    /// Multi-edge deletion with an explicit thread budget. Equivalent to
    /// [`WeightedDecSpc::delete_edges_with`] with
    /// [`MaintenanceOptions::with_threads`].
    #[deprecated(note = "use `delete_edges_with` with `MaintenanceOptions::with_threads(..)`")]
    pub fn delete_edges_with_threads(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        edges: &[(VertexId, VertexId)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.delete_edges_with(
            g,
            index,
            edges,
            &MaintenanceOptions::with_threads(MaintenanceThreads::Fixed(threads)),
        )
    }

    /// Multi-edge `SrrSEARCH` repair (the batch generalization of the
    /// weighted deletion): deletes every edge of `edges` from `g` and
    /// repairs `index` with one rank-pruned Dijkstra per distinct affected
    /// hub, instead of one per edge per hub.
    ///
    /// Classification runs on the group-pre graph with each edge's
    /// pre-deletion weight as the affected-condition length. Under the
    /// default [`ClassifyMode::MultiFar`] it costs one
    /// [`UpdateEngine::multi_far_pass`] Dijkstra per *distinct endpoint*
    /// of the set, with per-far count columns summed per shared far
    /// endpoint — fixing the mixed-frontier condition-**B** undercount
    /// when several doomed edges share a far endpoint. The repair sweeps
    /// then run against the residual graph with the whole set absent.
    ///
    /// A thread budget above 1 classifies endpoint tasks in parallel and
    /// runs the rank-pruned repair Dijkstras as rank-independent waves on
    /// a persistent worker pool. Deterministic at every thread count.
    ///
    /// All edges are validated present (and pairwise distinct) before the
    /// first mutation.
    pub fn delete_edges_with(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        edges: &[(VertexId, VertexId)],
        options: &MaintenanceOptions,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        match edges {
            [] => return Ok(MaintenanceCounters::default()),
            &[(a, b)] => return self.delete_edge(g, index, a, b),
            _ => {}
        }
        let mut weights: Vec<Weight> = Vec::with_capacity(edges.len());
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            let w = g
                .weight(a, b)
                .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
            weights.push(w);
            keys.push(crate::engine::ordered_key(a, b));
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
                    for (&(a, b), &w) in edges.iter().zip(&weights) {
                        let (sr_a, r_a) = {
                            let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                            self.engine
                                .srr_pass(&mut topo, a, b, w as WDist, &mut stats)
                        };
                        let (sr_b, r_b) = {
                            let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                            self.engine
                                .srr_pass(&mut topo, b, a, w as WDist, &mut stats)
                        };
                        self.agenda
                            .note_side(&sr_a, &r_a, REPAIR_PRIMARY, |v| index.rank(v));
                        self.agenda
                            .note_side(&sr_b, &r_b, REPAIR_PRIMARY, |v| index.rank(v));
                    }
                }
                ClassifyMode::MultiFar => {
                    use crate::engine::FrozenWeighted;
                    let tasks = build_endpoint_tasks(
                        edges
                            .iter()
                            .zip(&weights)
                            .flat_map(|(&(a, b), &w)| [(a, b, w as WDist), (b, a, w as WDist)]),
                    );
                    let mut columns: Vec<FarColumn> = Vec::new();
                    {
                        let (g_ref, index_ref): (&WeightedGraph, &WeightedSpcIndex) = (g, index);
                        let engine = &mut self.engine;
                        let probes = &mut self.probes;
                        for task in &tasks {
                            while probes.len() < task.fars.len() {
                                probes.push(WHubProbe::new(g_ref.capacity()));
                            }
                            let mut views: Vec<FrozenWeighted> = probes[..task.fars.len()]
                                .iter_mut()
                                .map(|p| FrozenWeighted::new(g_ref, index_ref, p))
                                .collect();
                            columns.extend(
                                engine
                                    .multi_far_pass(&mut views, task.near, &task.fars, &mut stats),
                            );
                        }
                    }
                    aggregate_far_columns(
                        &mut self.agg,
                        &columns,
                        &mut self.agenda,
                        REPAIR_PRIMARY,
                        |v| index.rank(v),
                    );
                }
            }
            self.engine
                .set_marks([self.agenda.receivers(), &[]], [&[], &[]]);

            for &(a, b) in edges {
                g.delete_edge(a, b)?;
            }

            let hubs = self.agenda.take_hubs();
            stats.agenda_hubs += hubs.len();
            let holders = weighted_holders(
                index,
                hubs.iter().map(|&(r, _)| r),
                self.agenda.receivers(),
                &mut stats,
            );
            for (h_rank, _) in hubs {
                let h = index.vertex(h_rank);
                stats.hubs_processed += 1;
                let mut topo = WeightedTopo::new(g, index, &mut self.probe);
                self.engine
                    .dec_pass(&mut topo, h, MARK_A, holders.of(h_rank, 0), &mut stats);
            }

            self.engine.clear_marks();
        } else {
            self.delete_group_parallel(
                g,
                index,
                edges,
                &weights,
                threads,
                options.classify,
                &mut stats,
            )?;
        }
        self.agenda.clear();
        Ok(stats)
    }

    /// Wave-parallel twin of the sequential multi-edge body: the
    /// classification Dijkstras fan out over the group's endpoint tasks
    /// (read-only on the pre-mutation graph), then the deduplicated hub
    /// agenda runs as rank-independent waves of frozen repair Dijkstras
    /// on the residual graph, on a persistent worker pool.
    #[allow(clippy::too_many_arguments)]
    fn delete_group_parallel(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        edges: &[(VertexId, VertexId)],
        weights: &[Weight],
        threads: usize,
        classify: ClassifyMode,
        stats: &mut MaintenanceCounters,
    ) -> dspc_graph::Result<()> {
        use crate::engine::parallel::{
            agenda_components, frozen_dec_sweep, note_schedule, plan_waves, run_wave_pool,
            Buffered, Interference, LabelWriteLog, WorkerScratch,
        };
        use crate::engine::FrozenWeighted;
        use crate::weighted::WLabelEntry;

        let cap = g.capacity();

        match classify {
            ClassifyMode::PerEdge => {
                let items: Vec<(VertexId, VertexId, Weight)> = edges
                    .iter()
                    .zip(weights)
                    .map(|(&(a, b), &w)| (a, b, w))
                    .collect();
                let outcomes = {
                    let (g_ref, index_ref): (&WeightedGraph, &WeightedSpcIndex) = (g, index);
                    crate::parallel::fan_out(
                        &items,
                        threads,
                        || {
                            (
                                UpdateEngine::<WDist>::new(cap),
                                WHubProbe::new(cap),
                                LabelWriteLog::<WDist>::new(),
                            )
                        },
                        |(engine, probe, log), &(a, b, w)| {
                            let mut c = MaintenanceCounters::default();
                            let (sr_a, r_a) = {
                                let mut topo = Buffered::new(
                                    FrozenWeighted::new(g_ref, index_ref, probe),
                                    log,
                                );
                                engine.srr_pass(&mut topo, a, b, w as WDist, &mut c)
                            };
                            let (sr_b, r_b) = {
                                let mut topo = Buffered::new(
                                    FrozenWeighted::new(g_ref, index_ref, probe),
                                    log,
                                );
                                engine.srr_pass(&mut topo, b, a, w as WDist, &mut c)
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
                        .note_side(sr_b, r_b, REPAIR_PRIMARY, |v| index.rank(v));
                }
            }
            ClassifyMode::MultiFar => {
                let tasks = build_endpoint_tasks(
                    edges
                        .iter()
                        .zip(weights)
                        .flat_map(|(&(a, b), &w)| [(a, b, w as WDist), (b, a, w as WDist)]),
                );
                let outcomes = {
                    let (g_ref, index_ref): (&WeightedGraph, &WeightedSpcIndex) = (g, index);
                    crate::parallel::fan_out(
                        &tasks,
                        threads,
                        || (UpdateEngine::<WDist>::new(cap), Vec::<WHubProbe>::new()),
                        |(engine, probes), task| {
                            while probes.len() < task.fars.len() {
                                probes.push(WHubProbe::new(cap));
                            }
                            let mut c = MaintenanceCounters::default();
                            let mut views: Vec<FrozenWeighted> = probes[..task.fars.len()]
                                .iter_mut()
                                .map(|p| FrozenWeighted::new(g_ref, index_ref, p))
                                .collect();
                            let cols =
                                engine.multi_far_pass(&mut views, task.near, &task.fars, &mut c);
                            (cols, c)
                        },
                    )
                };
                let mut columns: Vec<FarColumn> = Vec::new();
                for (cols, c) in outcomes {
                    stats.absorb(&c);
                    columns.extend(cols);
                }
                aggregate_far_columns(
                    &mut self.agg,
                    &columns,
                    &mut self.agenda,
                    REPAIR_PRIMARY,
                    |v| index.rank(v),
                );
            }
        }

        for &(a, b) in edges {
            g.delete_edge(a, b)?;
        }

        let hubs = self.agenda.take_hubs();
        stats.agenda_hubs += hubs.len();
        let receivers = self.agenda.receivers();
        let holders = weighted_holders(index, hubs.iter().map(|&(r, _)| r), receivers, stats);
        let schedule = if hubs.len() < 2 {
            plan_waves(hubs.len(), |_, _| false)
        } else {
            let (comp, probes) = agenda_components(
                cap,
                hubs.iter()
                    .map(|&(r, _)| index.vertex(r))
                    .chain(receivers.iter().copied()),
                |v, f| {
                    for &(w, _) in g.neighbors(VertexId(v)) {
                        f(w);
                    }
                },
            );
            stats.interference_probes += probes;
            let inter = Interference::build(&comp, &hubs, |r| index.vertex(r), &holders);
            plan_waves(hubs.len(), |i, j| inter.conflicts(i, j))
        };
        note_schedule(stats, &schedule);
        let items: Vec<Rank> = hubs.iter().map(|&(r, _)| r).collect();
        let waves: Vec<&[usize]> = schedule.iter().collect();
        let g_ref: &WeightedGraph = g;
        let index_lock = std::sync::RwLock::new(&mut *index);
        let steals = run_wave_pool(
            threads,
            &items,
            &waves,
            || WorkerScratch::for_group(cap, receivers, WHubProbe::new(cap)),
            |scratch, &h_rank| {
                let guard = index_lock.read().unwrap();
                let index: &WeightedSpcIndex = &guard;
                frozen_dec_sweep(
                    &mut scratch.engine,
                    FrozenWeighted::new(g_ref, index, &mut scratch.probe),
                    index.vertex(h_rank),
                    holders.of(h_rank, 0),
                )
            },
            |results| {
                let mut guard = index_lock.write().unwrap();
                for (mut log, c) in results {
                    stats.absorb(&c);
                    for (v, hub, op) in log.drain() {
                        match op {
                            Some((d, cnt)) => {
                                guard.label_set_mut(v).upsert(WLabelEntry::new(hub, d, cnt));
                            }
                            None => {
                                guard.label_set_mut(v).remove(hub);
                            }
                        }
                    }
                }
            },
        );
        stats.steal_events += steals;
        Ok(())
    }

    /// Deletes edge `(a, b)` and repairs the index. Returns the counters.
    pub fn delete_edge(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let w = g
            .weight(a, b)
            .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
        self.decremental(g, index, a, b, w, None)
    }

    /// Increases the weight of `(a, b)` to `new_w` and repairs the index.
    /// Returns the counters.
    pub fn increase_weight(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        new_w: Weight,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let w = g
            .weight(a, b)
            .ok_or(dspc_graph::GraphError::MissingEdge(a, b))?;
        assert!(
            new_w > w,
            "increase_weight requires a strictly larger weight"
        );
        self.decremental(g, index, a, b, w, Some(new_w))
    }

    /// Shared decremental procedure: phase 1 on the old graph (weight
    /// `old_w`), then the mutation (delete, or raise to `new_w`), then
    /// phase 2 on the new graph.
    fn decremental(
        &mut self,
        g: &mut WeightedGraph,
        index: &mut WeightedSpcIndex,
        a: VertexId,
        b: VertexId,
        old_w: Weight,
        new_w: Option<Weight>,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();

        // Phase 1 — SrrSEARCH with the weighted affected condition
        // (`D[v] + old_w = sd_i(v, far)` replaces the hop condition).
        let (sr_a, r_a) = {
            let mut topo = WeightedTopo::new(g, index, &mut self.probe);
            self.engine
                .srr_pass(&mut topo, a, b, old_w as WDist, &mut stats)
        };
        let (sr_b, r_b) = {
            let mut topo = WeightedTopo::new(g, index, &mut self.probe);
            self.engine
                .srr_pass(&mut topo, b, a, old_w as WDist, &mut stats)
        };
        self.engine.set_marks([&sr_a, &r_a], [&sr_b, &r_b]);
        debug_assert!(
            !self.engine.sides_overlap(),
            "SR_a ∪ R_a and SR_b ∪ R_b of one edge are disjoint"
        );

        match new_w {
            None => {
                g.delete_edge(a, b)?;
            }
            Some(w) => {
                g.set_weight(a, b, w)?;
            }
        }

        let mut sr: Vec<(Rank, bool)> = sr_a
            .iter()
            .map(|&v| (index.rank(v), true))
            .chain(sr_b.iter().map(|&v| (index.rank(v), false)))
            .collect();
        sr.sort_unstable_by_key(|&(r, _)| r);
        let holders = weighted_holders(
            index,
            sr.iter().map(|&(r, _)| r),
            self.engine.marked(),
            &mut stats,
        );
        for &(h_rank, from_a) in &sr {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            let mask = if from_a { MARK_B } else { MARK_A };
            let mut topo = WeightedTopo::new(g, index, &mut self.probe);
            self.engine
                .dec_pass(&mut topo, h, mask, holders.of(h_rank, 0), &mut stats);
        }

        self.engine.clear_marks();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderingStrategy;
    use crate::weighted::{weighted_spc_query, DynamicWeightedSpc};
    use dspc_graph::generators::random::{erdos_renyi_gnm, random_weights};
    use dspc_graph::traversal::dijkstra::DijkstraCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_oracle(g: &WeightedGraph, index: &WeightedSpcIndex) {
        let mut dj = DijkstraCounter::new(g.capacity());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    weighted_spc_query(index, s, t).as_option(),
                    dj.count(g, s, t),
                    "pair ({s:?}, {t:?})"
                );
            }
        }
    }

    #[test]
    fn insert_edge_incremental() {
        let g = WeightedGraph::from_weighted_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 2)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 1)));
        d.insert_edge(VertexId(0), VertexId(3), 6).unwrap();
        // Equal-length alternative: counts accumulate.
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((6, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.insert_edge(VertexId(0), VertexId(2), 1).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn decrease_weight_is_incremental() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 20)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 1)));
        d.set_weight(VertexId(0), VertexId(2), 10).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 2)));
        d.set_weight(VertexId(0), VertexId(2), 3).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((3, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn increase_weight_is_decremental() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 3)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((3, 1)));
        d.set_weight(VertexId(0), VertexId(2), 10).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.set_weight(VertexId(0), VertexId(2), 50).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((10, 1)));
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn delete_edge_decremental() {
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 3, 2)],
        );
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 3)));
        d.delete_edge(VertexId(0), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), Some((2, 2)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_edge(VertexId(1), VertexId(3)).unwrap();
        d.delete_edge(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(3)), None);
        assert_matches_oracle(d.graph(), d.index());
    }

    #[test]
    fn vertex_lifecycle_weighted() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
        let v = d.add_vertex();
        d.insert_edge(v, VertexId(0), 1).unwrap();
        d.insert_edge(v, VertexId(2), 1).unwrap();
        // Shortcut through the new vertex: 0 → v → 2 costs 2 < 5.
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((2, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.delete_vertex(v).unwrap();
        assert_eq!(d.query(VertexId(0), VertexId(2)), Some((5, 1)));
        assert_matches_oracle(d.graph(), d.index());
        d.index().check_invariants().unwrap();
    }

    #[test]
    fn random_weighted_update_streams() {
        let mut rng = StdRng::seed_from_u64(2718);
        for trial in 0..4 {
            let base = erdos_renyi_gnm(20 + trial * 4, 55, &mut rng);
            let g = random_weights(&base, 5, &mut rng);
            let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
            for step in 0..20 {
                let roll: f64 = rng.gen();
                if roll < 0.35 || d.graph().num_edges() == 0 {
                    loop {
                        let a = rng.gen_range(0..d.graph().capacity() as u32);
                        let b = rng.gen_range(0..d.graph().capacity() as u32);
                        if a != b && !d.graph().has_edge(VertexId(a), VertexId(b)) {
                            d.insert_edge(VertexId(a), VertexId(b), rng.gen_range(1..=5))
                                .unwrap();
                            break;
                        }
                    }
                } else if roll < 0.6 {
                    let edges: Vec<_> = d.graph().edges().collect();
                    let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                    d.delete_edge(a, b).unwrap();
                } else {
                    let edges: Vec<_> = d.graph().edges().collect();
                    let (a, b, _) = edges[rng.gen_range(0..edges.len())];
                    d.set_weight(a, b, rng.gen_range(1..=8)).unwrap();
                }
                if step % 5 == 4 {
                    assert_matches_oracle(d.graph(), d.index());
                    d.index().check_invariants().unwrap();
                }
            }
            assert_matches_oracle(d.graph(), d.index());
        }
    }
}
