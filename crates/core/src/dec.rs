//! DecSPC — decremental SPC-Index maintenance under edge deletion
//! (Algorithms 4, 5, and 6, §3.2).
//!
//! Deletions are the hard direction: distances can *increase*, so stale
//! labels would underestimate queries and must be found. DecSPC works in
//! two phases:
//!
//! 1. **`SrrSEARCH`** (Algorithm 5) runs on the *pre-deletion* graph: a
//!    full-counting BFS from each endpoint classifies every vertex with a
//!    shortest path through `(a, b)` into
//!    * `SR` (*Sender-and-Receiver*, Definition 3.10) — hubs whose outgoing
//!      labels `(v, ·, ·)` may need renewal/insertion/removal: either
//!      condition **A** (`v` is a common hub of `a` and `b` — at least one
//!      top-ranked shortest path crosses the edge) or condition **B**
//!      (`spc_i(v, a) = spc_i(v, b)` — *every* shortest path to the far
//!      endpoint crosses the edge, so a brand-new top-ranked path may
//!      emerge, Figure 4's `w`), or
//!    * `R` (*Receiver-Only*, Definition 3.12) — vertices whose own label
//!      set may change but who never need a BFS of their own.
//! 2. **`DecUPDATE`** (Algorithm 6) runs on the *post-deletion* graph: for
//!    each hub `h ∈ SR` in descending rank order, a rank-pruned counting
//!    BFS from `h` repairs `(h, ·, ·)` labels of reached vertices in the
//!    *opposite side's* `SR ∪ R` (Lemma 3.14), pruning where `PreQUERY`
//!    (hubs ranked strictly above `h`, already repaired) certifies a
//!    shorter path. Labels of opposite-side vertices the BFS never updated
//!    are removed afterwards — unconditionally, not only for common hubs
//!    of `a` and `b` as in the paper's Algorithm 6: the common-hub gate is
//!    unsound once Lemma 3.1's kept-stale labels are in play (see
//!    [`crate::engine`] module docs for the counterexample).
//!
//! The isolated-vertex optimization (§3.2.3) short-circuits the whole
//! procedure when the deletion strands a degree-one endpoint that no label
//! anywhere uses as a hub (tracked exactly by the index's hub-entry
//! counts).

use crate::engine::{
    aggregate_far_columns, build_endpoint_tasks, FarAggregator, FarColumn, HubHolders,
    MaintenanceCounters, RepairAgenda, UndirectedTopo, UpdateEngine, MARK_A, MARK_B,
    REPAIR_PRIMARY,
};
use crate::index::SpcIndex;
use crate::label::Rank;
use crate::parallel::{ClassifyMode, MaintenanceOptions, MaintenanceThreads};
use crate::query::HubProbe;
use dspc_graph::{UndirectedGraph, VertexId};

/// Former name of the deletion driver's counter block — now the unified
/// [`MaintenanceCounters`] (the `isolated_fast_path` flag lives there).
#[deprecated(
    note = "renamed to `MaintenanceCounters` (one counter type across engine, drivers, and facades)"
)]
pub type DecStats = MaintenanceCounters;

/// The affected-vertex sets computed by `SrrSEARCH` — Table 5 reports their
/// cardinalities.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SrrOutcome {
    /// Affected hubs on `a`'s side (`SR_a`).
    pub sr_a: Vec<VertexId>,
    /// Affected hubs on `b`'s side (`SR_b`).
    pub sr_b: Vec<VertexId>,
    /// Receiver-only vertices on `a`'s side (`R_a`).
    pub r_a: Vec<VertexId>,
    /// Receiver-only vertices on `b`'s side (`R_b`).
    pub r_b: Vec<VertexId>,
}

/// Which affected-hub set drives the update BFSs — the ablation knob
/// behind the paper's §2.3 argument that prior SD-Index definitions of
/// "affected" give no reduction for SPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DecMode {
    /// The paper's DecSPC: BFS only from `SR` hubs (Definition 3.10).
    #[default]
    SrOnly,
    /// Naive baseline: treat *every* affected vertex (`SR ∪ R`, the
    /// `|sd(v,a) − sd(v,b)| = 1` set of \[8\]) as a hub to update from.
    /// Correct but wasteful — the extra BFSs only insert redundant
    /// (accurate) labels; benchmarked in `ablation_dec`.
    NaiveAffected,
    /// The paper's DecSPC with the §3.2.3 isolated-vertex fast path
    /// disabled — used by tests to prove the fast path is a pure
    /// optimization (identical resulting queries).
    SrOnlyNoFastPath,
}

/// Hub → holder lists over the receivers' label rows (one family).
fn undirected_holders(
    index: &SpcIndex,
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

/// Reusable DecSPC driver (Algorithm 4): the undirected deletion policy
/// over the shared [`UpdateEngine`].
#[derive(Debug)]
pub struct DecSpc {
    engine: UpdateEngine<u32>,
    probe: HubProbe,
    /// Probe pool for multi-far classification (one probe per pinned far
    /// of the widest task seen), grown on demand.
    probes: Vec<HubProbe>,
    agenda: RepairAgenda,
    agg: FarAggregator,
}

impl DecSpc {
    /// Creates an engine for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DecSpc {
            engine: UpdateEngine::new(capacity),
            probe: HubProbe::new(capacity),
            probes: Vec::new(),
            agenda: RepairAgenda::new(capacity),
            agg: FarAggregator::new(capacity),
        }
    }

    /// Deletes `(a, b)` from `g` and repairs `index`. The engine performs
    /// the graph mutation itself because Algorithm 4 interleaves it between
    /// the two phases (`SrrSEARCH` sees `G_i`, `DecUPDATE` sees `G_{i+1}`).
    ///
    /// Returns the operation counters and the affected sets (for Table 5).
    pub fn delete_edge(
        &mut self,
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<(MaintenanceCounters, SrrOutcome)> {
        self.delete_edge_with_mode(g, index, a, b, DecMode::SrOnly)
    }

    /// [`DecSpc::delete_edge`] with an explicit [`DecMode`] (ablation hook).
    pub fn delete_edge_with_mode(
        &mut self,
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        a: VertexId,
        b: VertexId,
        mode: DecMode,
    ) -> dspc_graph::Result<(MaintenanceCounters, SrrOutcome)> {
        if !g.has_edge(a, b) {
            return Err(dspc_graph::GraphError::MissingEdge(a, b));
        }
        self.engine.ensure_capacity(g.capacity());

        // §3.2.3 isolated-vertex fast path: the deletion strands a
        // degree-one endpoint `x` that no label anywhere uses as a hub
        // (checked exactly via the index's hub-entry counts — `x`'s own
        // self label is the single permitted occurrence), so emptying L(x)
        // is the entire repair. The count check replaces the paper's
        // rank-comparison precondition: rank(y) < rank(x) guarantees a
        // *freshly built* index has no (x, ·, ·) labels, but stale labels
        // from earlier updates can violate that — and conversely the count
        // check also fires for higher-ranked pendants whose hub entries
        // happen to have been cleaned up, so it is both sound and broader.
        for x in [b, a] {
            if mode != DecMode::SrOnlyNoFastPath
                && g.degree(x) == 1
                && index.hub_entry_count(index.rank(x)) == 1
            {
                g.delete_edge(a, b)?;
                let stats = MaintenanceCounters {
                    removed: index.reset_vertex_to_self(x),
                    isolated_fast_path: true,
                    ..MaintenanceCounters::default()
                };
                return Ok((stats, SrrOutcome::default()));
            }
        }

        // Phase 1 — SrrSEARCH on G_i (edge still present).
        let mut stats = MaintenanceCounters::default();
        let srr = {
            let mut topo = UndirectedTopo::new(g, index, &mut self.probe);
            let (sr_a, r_a) = self.engine.srr_pass(&mut topo, a, b, 1, &mut stats);
            let (sr_b, r_b) = self.engine.srr_pass(&mut topo, b, a, 1, &mut stats);
            SrrOutcome {
                sr_a,
                sr_b,
                r_a,
                r_b,
            }
        };
        self.engine
            .set_marks([&srr.sr_a, &srr.r_a], [&srr.sr_b, &srr.r_b]);
        debug_assert!(
            !self.engine.sides_overlap(),
            "SR_a ∪ R_a and SR_b ∪ R_b of one edge are disjoint"
        );

        // Phase boundary — G_{i+1} ← G_i ⊖ (a, b).
        g.delete_edge(a, b)?;

        // SR = SR_a ∪ SR_b sorted by descending rank (ascending position).
        // NaiveAffected additionally promotes every R vertex to hub status.
        let mut sr: Vec<(Rank, bool)> = srr
            .sr_a
            .iter()
            .map(|&v| (index.rank(v), true))
            .chain(srr.sr_b.iter().map(|&v| (index.rank(v), false)))
            .collect();
        if mode == DecMode::NaiveAffected {
            sr.extend(srr.r_a.iter().map(|&v| (index.rank(v), true)));
            sr.extend(srr.r_b.iter().map(|&v| (index.rank(v), false)));
        }
        sr.sort_unstable_by_key(|&(r, _)| r);
        let holders = undirected_holders(
            index,
            sr.iter().map(|&(r, _)| r),
            self.engine.marked(),
            &mut stats,
        );

        for &(h_rank, from_a) in &sr {
            let h = index.vertex(h_rank);
            stats.hubs_processed += 1;
            let opposite = if from_a { MARK_B } else { MARK_A };
            let mut topo = UndirectedTopo::new(g, index, &mut self.probe);
            self.engine
                .dec_pass(&mut topo, h, opposite, holders.of(h_rank, 0), &mut stats);
        }

        self.engine.clear_marks();
        Ok((stats, srr))
    }

    /// Multi-edge `SrrSEARCH` repair (the batch generalization of
    /// Algorithm 4), sequential. Equivalent to [`DecSpc::delete_edges_with`]
    /// with [`MaintenanceOptions::sequential`].
    #[deprecated(note = "use `delete_edges_with` with `MaintenanceOptions::sequential()`")]
    pub fn delete_edges(
        &mut self,
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        edges: &[(VertexId, VertexId)],
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.delete_edges_with(g, index, edges, &MaintenanceOptions::sequential())
    }

    /// Multi-edge deletion with an explicit thread budget. Equivalent to
    /// [`DecSpc::delete_edges_with`] with
    /// [`MaintenanceOptions::with_threads`].
    #[deprecated(note = "use `delete_edges_with` with `MaintenanceOptions::with_threads(..)`")]
    pub fn delete_edges_with_threads(
        &mut self,
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
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

    /// Multi-edge `SrrSEARCH` repair (the batch generalization of
    /// Algorithm 4): deletes every edge of `edges` from `g` and repairs
    /// `index` with **one** `DecUPDATE` sweep per distinct affected hub,
    /// instead of one per edge per hub.
    ///
    /// Phase 1 classifies the whole set on the *group-pre* graph (all of
    /// `edges` still present). Under the default
    /// [`ClassifyMode::MultiFar`] this costs **one**
    /// [`UpdateEngine::multi_far_pass`] sweep per *distinct endpoint* of
    /// the set (not two per edge), with per-far count columns summed per
    /// shared far endpoint — which also fixes the mixed-frontier
    /// condition-**B** undercount the legacy per-edge comparison suffers
    /// when several doomed edges share a far endpoint. The mutation then
    /// removes the whole set; phase 2 sweeps each hub of `⋃ SR`
    /// (descending rank, deduplicated) against the residual graph, so
    /// every repaired label is RenewC/RenewD relative to the graph with
    /// the *entire* deleted set absent. The receiver/removal candidate
    /// list is the union of every classified vertex — a superset of each
    /// edge's opposite side, safe under the unconditional removal pass
    /// (see [`crate::engine`] module docs).
    ///
    /// A thread budget above 1 classifies endpoint tasks in parallel
    /// (read-only on the pre-mutation graph) and runs the repair sweeps
    /// as rank-independent waves on a persistent worker pool
    /// ([`crate::engine::parallel::run_wave_pool`]). Results are
    /// deterministic: the repaired index, query answers, and
    /// label-operation counters are identical at every thread count —
    /// only the `waves` / `max_wave_width` / `interference_probes` /
    /// `steal_events` schedule counters distinguish the parallel path.
    ///
    /// Edges eligible for the §3.2.3 isolated-vertex fast path (a pendant
    /// endpoint no label uses as a hub) are peeled off the group first and
    /// deleted through [`DecSpc::delete_edge`] — they cost zero sweeps
    /// there, so routing them through the group machinery would only *add*
    /// classification work.
    ///
    /// All edges are validated present (and pairwise distinct) before the
    /// first mutation; on error nothing is applied.
    pub fn delete_edges_with(
        &mut self,
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        edges: &[(VertexId, VertexId)],
        options: &MaintenanceOptions,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        match edges {
            [] => return Ok(MaintenanceCounters::default()),
            &[(a, b)] => return self.delete_edge(g, index, a, b).map(|(s, _)| s),
            _ => {}
        }
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if !g.has_edge(a, b) {
                return Err(dspc_graph::GraphError::MissingEdge(a, b));
            }
            keys.push(crate::engine::ordered_key(a, b));
        }
        if let Some((x, y)) = crate::engine::duplicate_edge_key(&mut keys) {
            return Err(dspc_graph::GraphError::MissingEdge(
                VertexId(x),
                VertexId(y),
            ));
        }

        // Peel fast-path-eligible edges off the group (checked against the
        // evolving graph, since each peeled deletion can strand the next
        // pendant).
        let mut total = MaintenanceCounters::default();
        let mut group: Vec<(VertexId, VertexId)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            let eligible = [a, b].into_iter().any(|x| {
                let r = index.rank(x);
                g.degree(x) == 1 && index.hub_entry_count(r) == 1
            });
            if eligible {
                let (s, _) = self.delete_edge(g, index, a, b)?;
                total.absorb(&s);
            } else {
                group.push((a, b));
            }
        }
        match group[..] {
            [] => return Ok(total),
            [(a, b)] => {
                let (s, _) = self.delete_edge(g, index, a, b)?;
                total.absorb(&s);
                return Ok(total);
            }
            _ => {}
        }

        self.engine.ensure_capacity(g.capacity());
        self.agenda.ensure_capacity(g.capacity());
        self.agg.ensure_capacity(g.capacity());
        let threads = options.threads.resolve();
        let mut stats = MaintenanceCounters::default();

        if threads <= 1 {
            // Phase 1 — classification on the group-pre graph, outcomes
            // merged into the shared agenda.
            match options.classify {
                ClassifyMode::PerEdge => {
                    for &(a, b) in &group {
                        let mut topo = UndirectedTopo::new(g, index, &mut self.probe);
                        let (sr_a, r_a) = self.engine.srr_pass(&mut topo, a, b, 1, &mut stats);
                        let (sr_b, r_b) = self.engine.srr_pass(&mut topo, b, a, 1, &mut stats);
                        self.agenda
                            .note_side(&sr_a, &r_a, REPAIR_PRIMARY, |v| index.rank(v));
                        self.agenda
                            .note_side(&sr_b, &r_b, REPAIR_PRIMARY, |v| index.rank(v));
                    }
                }
                ClassifyMode::MultiFar => {
                    let tasks = build_endpoint_tasks(
                        group.iter().flat_map(|&(a, b)| [(a, b, 1u32), (b, a, 1)]),
                    );
                    let mut columns: Vec<FarColumn> = Vec::new();
                    {
                        use crate::engine::FrozenUndirected;
                        let (g_ref, index_ref): (&UndirectedGraph, &SpcIndex) = (g, index);
                        let engine = &mut self.engine;
                        let probes = &mut self.probes;
                        for task in &tasks {
                            while probes.len() < task.fars.len() {
                                probes.push(HubProbe::new(g_ref.capacity()));
                            }
                            let mut views: Vec<FrozenUndirected> = probes[..task.fars.len()]
                                .iter_mut()
                                .map(|p| FrozenUndirected::new(g_ref, index_ref, p))
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

            // Phase boundary — G_{i+1} ← G_i ⊖ group (the whole set at once).
            for &(a, b) in &group {
                g.delete_edge(a, b)?;
            }

            // Phase 2 — one sweep per distinct hub on the residual graph.
            let hubs = self.agenda.take_hubs();
            stats.agenda_hubs += hubs.len();
            let holders = undirected_holders(
                index,
                hubs.iter().map(|&(r, _)| r),
                self.agenda.receivers(),
                &mut stats,
            );
            for (h_rank, _) in hubs {
                let h = index.vertex(h_rank);
                stats.hubs_processed += 1;
                let mut topo = UndirectedTopo::new(g, index, &mut self.probe);
                self.engine
                    .dec_pass(&mut topo, h, MARK_A, holders.of(h_rank, 0), &mut stats);
            }

            self.engine.clear_marks();
        } else {
            self.delete_group_parallel(g, index, &group, threads, options.classify, &mut stats)?;
        }
        self.agenda.clear();
        total.absorb(&stats);
        Ok(total)
    }

    /// The wave-parallel twin of the sequential group body: classification
    /// fans out over the group's endpoint tasks (read-only on the
    /// pre-mutation graph and index), the whole set is deleted, and the
    /// deduplicated hub agenda runs as rank-independent waves of frozen
    /// sweeps on a persistent worker pool, with buffered label writes
    /// committed at each wave boundary.
    fn delete_group_parallel(
        &mut self,
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        group: &[(VertexId, VertexId)],
        threads: usize,
        classify: ClassifyMode,
        stats: &mut MaintenanceCounters,
    ) -> dspc_graph::Result<()> {
        use crate::engine::parallel::{
            agenda_components, frozen_dec_sweep, note_schedule, plan_waves, run_wave_pool,
            Buffered, Interference, LabelWriteLog, WorkerScratch,
        };
        use crate::engine::FrozenUndirected;

        let cap = g.capacity();

        // Phase 1 — parallel classification on the group-pre graph, merged
        // in task order so the agenda and counters end up exactly as the
        // sequential classification would have left them.
        match classify {
            ClassifyMode::PerEdge => {
                let outcomes = {
                    let (g_ref, index_ref): (&UndirectedGraph, &SpcIndex) = (g, index);
                    crate::parallel::fan_out(
                        group,
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
                            let mut topo =
                                Buffered::new(FrozenUndirected::new(g_ref, index_ref, probe), log);
                            let (sr_a, r_a) = engine.srr_pass(&mut topo, a, b, 1, &mut c);
                            let (sr_b, r_b) = engine.srr_pass(&mut topo, b, a, 1, &mut c);
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
                    group.iter().flat_map(|&(a, b)| [(a, b, 1u32), (b, a, 1)]),
                );
                let outcomes = {
                    let (g_ref, index_ref): (&UndirectedGraph, &SpcIndex) = (g, index);
                    crate::parallel::fan_out(
                        &tasks,
                        threads,
                        || (UpdateEngine::<u32>::new(cap), Vec::<HubProbe>::new()),
                        |(engine, probes), task| {
                            while probes.len() < task.fars.len() {
                                probes.push(HubProbe::new(cap));
                            }
                            let mut c = MaintenanceCounters::default();
                            let mut views: Vec<FrozenUndirected> = probes[..task.fars.len()]
                                .iter_mut()
                                .map(|p| FrozenUndirected::new(g_ref, index_ref, p))
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

        // Phase boundary — G_{i+1} ← G_i ⊖ group (the whole set at once).
        for &(a, b) in group {
            g.delete_edge(a, b)?;
        }

        // Phase 2 — wave-scheduled repair on the residual graph. The
        // interference model is only worth building when the agenda could
        // actually share a wave; its component labeling is a bounded BFS
        // seeded at the agenda's hubs and receivers, so untouched residual
        // components cost nothing.
        let hubs = self.agenda.take_hubs();
        stats.agenda_hubs += hubs.len();
        let receivers = self.agenda.receivers();
        let holders = undirected_holders(index, hubs.iter().map(|&(r, _)| r), receivers, stats);
        let schedule = if hubs.len() < 2 {
            plan_waves(hubs.len(), |_, _| false)
        } else {
            let (comp, probes) = agenda_components(
                cap,
                hubs.iter()
                    .map(|&(r, _)| index.vertex(r))
                    .chain(receivers.iter().copied()),
                |v, f| {
                    for &w in g.neighbors(VertexId(v)) {
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
        let g_ref: &UndirectedGraph = g;
        let index_lock = std::sync::RwLock::new(&mut *index);
        let steals = run_wave_pool(
            threads,
            &items,
            &waves,
            || WorkerScratch::for_group(cap, receivers, HubProbe::new(cap)),
            |scratch, &h_rank| {
                // A shared read lock per sweep: writes only ever happen in
                // the commit closure below, between waves, when every
                // worker is parked at the pool barrier.
                let guard = index_lock.read().unwrap();
                let index: &SpcIndex = &guard;
                frozen_dec_sweep(
                    &mut scratch.engine,
                    FrozenUndirected::new(g_ref, index, &mut scratch.probe),
                    index.vertex(h_rank),
                    holders.of(h_rank, 0),
                )
            },
            |results| {
                // Commit in rank order. Distinct hubs write distinct label
                // rows, so the order only matters for matching the
                // sequential counter accumulation.
                let mut guard = index_lock.write().unwrap();
                for (mut log, c) in results {
                    stats.absorb(&c);
                    for (v, hub, op) in log.drain() {
                        match op {
                            Some((d, cnt)) => {
                                guard.upsert_entry(v, crate::label::LabelEntry::new(hub, d, cnt));
                            }
                            None => {
                                guard.remove_entry(v, hub);
                            }
                        }
                    }
                }
            },
        );
        stats.steal_events += steals;
        Ok(())
    }

    /// Algorithm 5 — computes `SR_a, R_a` (BFS from `a`, classifying against
    /// queries to `b`) and symmetrically `SR_b, R_b`, on the pre-deletion
    /// graph. (Callers wanting the sets alongside a real deletion use
    /// [`crate::DynamicSpc::delete_edge_with_sets`]; this standalone entry
    /// backs the paper-example tests. `index` is taken mutably only because
    /// the engine's topology view unifies read and repair passes.)
    #[cfg(test)]
    fn srr_search(
        &mut self,
        g: &UndirectedGraph,
        index: &mut SpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> SrrOutcome {
        self.engine.ensure_capacity(g.capacity());
        let mut stats = MaintenanceCounters::default();
        let mut topo = UndirectedTopo::new(g, index, &mut self.probe);
        let (sr_a, r_a) = self.engine.srr_pass(&mut topo, a, b, 1, &mut stats);
        let (sr_b, r_b) = self.engine.srr_pass(&mut topo, b, a, 1, &mut stats);
        SrrOutcome {
            sr_a,
            sr_b,
            r_a,
            r_b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::order::OrderingStrategy;
    use crate::query::spc_query;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::{figure2_g, figure4_toy, figure5_chain};
    use dspc_graph::generators::random::erdos_renyi_gnm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn delete_and_verify(
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        engine: &mut DecSpc,
        a: u32,
        b: u32,
    ) -> (MaintenanceCounters, SrrOutcome) {
        let out = engine
            .delete_edge(g, index, VertexId(a), VertexId(b))
            .unwrap();
        verify_all_pairs(g, index).unwrap();
        index.check_invariants().unwrap();
        out
    }

    #[test]
    fn paper_example_3_13_sr_and_r_sets() {
        // Deleting (v1, v2) from Figure 2's G: SR_v1 = {v1, v6, v10},
        // SR_v2 = {v2}, R_v2 = {v3, v7}, R_v1 = ∅.
        let g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        let srr = engine.srr_search(&g, &mut index, VertexId(1), VertexId(2));
        let as_set = |v: &[VertexId]| {
            let mut s: Vec<u32> = v.iter().map(|x| x.0).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(as_set(&srr.sr_a), vec![1, 6, 10]);
        assert_eq!(as_set(&srr.r_a), Vec::<u32>::new());
        assert_eq!(as_set(&srr.sr_b), vec![2]);
        assert_eq!(as_set(&srr.r_b), vec![3, 7]);
    }

    #[test]
    fn paper_example_3_15_delete_v1_v2() {
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        let (stats, _) = delete_and_verify(&mut g, &mut index, &mut engine, 1, 2);

        // Figure 6(d): (v1,1,1) ∈ L(v2) renewed to (v1,2,1).
        let e = *index.label_of(VertexId(2), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (2, 1));
        // (v1,2,1) ∈ L(v3) deleted in the removal pass.
        assert!(index.label_of(VertexId(3), VertexId(1)).is_none());
        // (v1,3,2) ∈ L(v7) renewed to (v1,3,1).
        let e = *index.label_of(VertexId(7), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (3, 1));
        // New label (v2,4,1) inserted into L(v10).
        let e = *index.label_of(VertexId(10), VertexId(2)).unwrap();
        assert_eq!((e.dist, e.count), (4, 1));
        assert!(stats.removed >= 1);
        assert!(stats.inserted >= 1);
    }

    #[test]
    fn figure4_condition_b_emergence() {
        // Deleting (a, b) = (2, 3): label (h,3,1) ∈ L(u) must become
        // (h,6,1) and (w,5,1) must appear although w labeled neither
        // endpoint (condition B hub).
        let mut g = figure4_toy();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        assert!(index.label_of(VertexId(2), VertexId(1)).is_none()); // w ∉ L(a)
        let mut engine = DecSpc::new(g.capacity());
        delete_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        let e = *index.label_of(VertexId(4), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (6, 1));
        let e = *index.label_of(VertexId(4), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (5, 1));
    }

    #[test]
    fn figure5_condition_a_renewals() {
        let mut g = figure5_chain();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        delete_and_verify(&mut g, &mut index, &mut engine, 3, 4);
        // (v1, 3, 1) → (v1, 5, 1) and (v2, 3, 2) → (v2, 3, 1) in L(u).
        let e = *index.label_of(VertexId(5), VertexId(0)).unwrap();
        assert_eq!((e.dist, e.count), (5, 1));
        let e = *index.label_of(VertexId(5), VertexId(1)).unwrap();
        assert_eq!((e.dist, e.count), (3, 1));
    }

    #[test]
    fn disconnecting_bridge_removes_labels() {
        let mut g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = DecSpc::new(g.capacity());
        let (stats, _) = delete_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        assert!(!spc_query(&index, VertexId(0), VertexId(5)).is_connected());
        assert!(stats.removed > 0 || stats.isolated_fast_path);
    }

    #[test]
    fn isolated_vertex_fast_path() {
        // Pendant vertex hanging off a triangle: the pendant has degree 1
        // and the lowest degree, hence the lowest rank under degree order.
        let mut g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut index = build_index(&g, OrderingStrategy::Degree);
        let mut engine = DecSpc::new(g.capacity());
        let (stats, srr) = delete_and_verify(&mut g, &mut index, &mut engine, 2, 3);
        assert!(stats.isolated_fast_path);
        assert!(stats.removed >= 1);
        assert!(srr.sr_a.is_empty() && srr.sr_b.is_empty());
        assert_eq!(index.label_set(VertexId(3)).len(), 1);
    }

    #[test]
    fn fast_path_skipped_when_pendant_ranks_higher() {
        // Force the pendant to rank *highest* via identity order on ids
        // chosen so the pendant is vertex 0: the general path must run and
        // remove hub-0 labels from the rest of the graph.
        let mut g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
        let mut index = build_index(&g, OrderingStrategy::Identity);
        assert!(index.label_of(VertexId(3), VertexId(0)).is_some());
        let mut engine = DecSpc::new(g.capacity());
        let (stats, _) = delete_and_verify(&mut g, &mut index, &mut engine, 0, 1);
        assert!(!stats.isolated_fast_path);
        assert!(index.label_of(VertexId(3), VertexId(0)).is_none());
        assert!(stats.removed >= 1);
    }

    #[test]
    fn delete_missing_edge_errors() {
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        assert!(engine
            .delete_edge(&mut g, &mut index, VertexId(0), VertexId(9))
            .is_err());
    }

    #[test]
    fn random_deletion_streams_stay_correct() {
        let mut rng = StdRng::seed_from_u64(555);
        for trial in 0..6 {
            let n = 25 + trial * 5;
            let mut g = erdos_renyi_gnm(n, 3 * n, &mut rng);
            let mut index = build_index(&g, OrderingStrategy::Degree);
            let mut engine = DecSpc::new(g.capacity());
            for _ in 0..10 {
                let m = g.num_edges();
                if m == 0 {
                    break;
                }
                let (a, b) = g.nth_edge(rng.gen_range(0..m)).unwrap();
                engine.delete_edge(&mut g, &mut index, a, b).unwrap();
                verify_all_pairs(&g, &index).unwrap();
                index.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn every_edge_of_figure2_deletes_cleanly() {
        let base = figure2_g();
        let edges: Vec<_> = base.edges().collect();
        for &(a, b) in &edges {
            let mut g = figure2_g();
            let mut index = build_index(&g, OrderingStrategy::Identity);
            let mut engine = DecSpc::new(g.capacity());
            delete_and_verify(&mut g, &mut index, &mut engine, a.0, b.0);
        }
    }

    #[test]
    fn fast_path_is_a_pure_optimization() {
        // Delete pendant edges both with and without the §3.2.3 fast path;
        // the resulting indexes must answer identically everywhere.
        let mut rng = StdRng::seed_from_u64(909);
        for _ in 0..5 {
            let mut g0 = erdos_renyi_gnm(25, 50, &mut rng);
            // Attach a pendant chain so pendant deletions exist.
            let p = g0.add_vertex();
            g0.insert_edge(VertexId(0), p).unwrap();
            let targets: Vec<(VertexId, VertexId)> = g0
                .edges()
                .filter(|&(u, v)| g0.degree(u) == 1 || g0.degree(v) == 1)
                .collect();
            for &(a, b) in &targets {
                let mut fast_g = g0.clone();
                let mut fast_idx = build_index(&fast_g, OrderingStrategy::Degree);
                let mut slow_g = g0.clone();
                let mut slow_idx = build_index(&slow_g, OrderingStrategy::Degree);
                let mut engine = DecSpc::new(g0.capacity());
                engine
                    .delete_edge_with_mode(&mut fast_g, &mut fast_idx, a, b, DecMode::SrOnly)
                    .unwrap();
                engine
                    .delete_edge_with_mode(
                        &mut slow_g,
                        &mut slow_idx,
                        a,
                        b,
                        DecMode::SrOnlyNoFastPath,
                    )
                    .unwrap();
                for s in fast_g.vertices() {
                    for t in fast_g.vertices() {
                        assert_eq!(
                            spc_query(&fast_idx, s, t),
                            spc_query(&slow_idx, s, t),
                            "edge ({a:?},{b:?}), pair ({s:?},{t:?})"
                        );
                    }
                }
                verify_all_pairs(&fast_g, &fast_idx).unwrap();
            }
        }
    }

    #[test]
    fn naive_mode_stays_correct_and_does_more_work() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut total_sr = 0usize;
        let mut total_naive = 0usize;
        for _ in 0..5 {
            let g0 = erdos_renyi_gnm(30, 90, &mut rng);
            let m = g0.num_edges();
            let (a, b) = g0.nth_edge(rng.gen_range(0..m)).unwrap();
            for mode in [DecMode::SrOnly, DecMode::NaiveAffected] {
                let mut g = g0.clone();
                let mut index = build_index(&g, OrderingStrategy::Degree);
                let mut engine = DecSpc::new(g.capacity());
                let (stats, _) = engine
                    .delete_edge_with_mode(&mut g, &mut index, a, b, mode)
                    .unwrap();
                verify_all_pairs(&g, &index).unwrap();
                match mode {
                    DecMode::SrOnly => total_sr += stats.hubs_processed,
                    DecMode::NaiveAffected => total_naive += stats.hubs_processed,
                    DecMode::SrOnlyNoFastPath => unreachable!("not exercised here"),
                }
            }
        }
        assert!(
            total_naive >= total_sr,
            "naive must process at least as many hubs: {total_naive} vs {total_sr}"
        );
    }

    #[test]
    fn delete_then_full_drain() {
        // Deleting every edge one by one must end at the all-isolated
        // index with only self labels.
        let mut g = figure2_g();
        let mut index = build_index(&g, OrderingStrategy::Identity);
        let mut engine = DecSpc::new(g.capacity());
        while g.num_edges() > 0 {
            let (a, b) = g.nth_edge(0).unwrap();
            engine.delete_edge(&mut g, &mut index, a, b).unwrap();
        }
        verify_all_pairs(&g, &index).unwrap();
        assert_eq!(index.num_entries(), 12);
    }
}
