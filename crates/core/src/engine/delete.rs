//! The DecSPC deletion pipeline, written once for every variant.
//!
//! [`DecPipeline::delete_one`] is the paper's single-edge Algorithm 4:
//! classify both sides of the edge with `SrrSEARCH` on the pre-deletion
//! graph, apply the mutation, then run one `DecUPDATE` sweep per `SR` hub
//! in rank order, repairing the opposite side.
//!
//! [`DecPipeline::delete_batch`] generalizes it to an edge set:
//!
//! 1. **Validate.** Every edge is present and none repeats, before anything
//!    mutates.
//! 2. **Classify** on the pre-deletion graph with one
//!    [`UpdateEngine::multi_far_pass`] per distinct endpoint, its per-far
//!    count columns summed per shared far endpoint
//!    ([`aggregate_far_columns`]). These sweeps only read, so with a thread
//!    budget above 1 their endpoint tasks fan out over scoped threads;
//!    results merge in task order, so the agenda does not depend on the
//!    thread count.
//! 3. **Delete** the whole set.
//! 4. **Repair** one global [`RepairAgenda`]: one sweep per distinct hub
//!    and label family, in rank order on the calling thread, each removal
//!    walking the hub's [`HubHolders`] list.
//!
//! The repair stays sequential because the paper's §6 reason holds: every
//! `DecUPDATE` sweep prunes with `PreQUERY` against the labels of all
//! higher-ranked hubs, which the sweeps before it have just repaired. A
//! directed hub flagged for both families sweeps `L_in` before `L_out`,
//! hub by hub: an `L_in` sweep pins `L_out` rows that the `L_out` sweeps of
//! higher-ranked hubs write.

use super::batch::duplicate_edge_key;
use super::{
    aggregate_far_columns, build_endpoint_tasks, EngineDist, FarAggregator, FarColumn, HubBearing,
    HubHolders, LabelTopology, MaintenanceCounters, MultiFarTask, ReadTopology, RepairAgenda,
    UpdateEngine, MARK_A, MARK_B, REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::label::Rank;
use dspc_graph::{GraphError, VertexId};

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

/// What the deletion pipeline needs of one index variant. Label families
/// are named by the [`RepairAgenda`] flags: [`REPAIR_PRIMARY`] is `L` (or
/// `L_in` for arcs) and [`REPAIR_SECONDARY`] is `L_out`; single-family
/// variants ignore the flag.
pub trait DecVariant {
    /// The graph.
    type Graph: Sync;
    /// The index.
    type Index: Sync;
    /// The pinned-hub probe a view queries through.
    type Probe: Send + std::fmt::Debug;
    /// The distance domain.
    type Dist: EngineDist + Send + Sync;
    /// A label-row entry.
    type Entry: HubBearing;
    /// A view over a shared index borrow (classification).
    type Read<'a>: ReadTopology<Dist = Self::Dist>
    where
        Self: 'a;
    /// A view over a mutable index borrow (repair).
    type Write<'a>: LabelTopology<Dist = Self::Dist>
    where
        Self: 'a;

    /// Arcs with `L_in` / `L_out` rather than edges with one `L`.
    const DIRECTED: bool;

    /// A probe for graphs up to `capacity` ids.
    fn probe(capacity: usize) -> Self::Probe;

    /// The graph's id-space size.
    fn capacity(g: &Self::Graph) -> usize;

    /// Rank of `v`.
    fn rank(index: &Self::Index, v: VertexId) -> Rank;

    /// Vertex at rank `r`.
    fn vertex(index: &Self::Index, r: Rank) -> VertexId;

    /// Length of edge `(a, b)`, or `None` when it is absent.
    fn edge_len(g: &Self::Graph, a: VertexId, b: VertexId) -> Option<Self::Dist>;

    /// The key under which two deletions name the same edge.
    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32);

    /// Removes edge `(a, b)` from the graph.
    fn delete(g: &mut Self::Graph, a: VertexId, b: VertexId) -> dspc_graph::Result<()>;

    /// The read view of `family`.
    fn read<'a>(
        g: &'a Self::Graph,
        index: &'a Self::Index,
        probe: &'a mut Self::Probe,
        family: u8,
    ) -> Self::Read<'a>;

    /// The repair view of `family`.
    fn write<'a>(
        g: &'a Self::Graph,
        index: &'a mut Self::Index,
        probe: &'a mut Self::Probe,
        family: u8,
    ) -> Self::Write<'a>;

    /// `v`'s rank-sorted label row of `family`.
    fn row(index: &Self::Index, v: VertexId, family: u8) -> &[Self::Entry];
}

/// The label families of a variant's `SR_a` and `SR_b` hubs: for an arc
/// `a → b`, hubs upstream of the tail repair `L_in` and hubs downstream of
/// the head repair `L_out`; otherwise both repair `L`.
fn side_families<V: DecVariant>() -> [u8; 2] {
    if V::DIRECTED {
        [REPAIR_PRIMARY, REPAIR_SECONDARY]
    } else {
        [REPAIR_PRIMARY; 2]
    }
}

/// The family whose view classifies the endpoint side whose hubs repair
/// `family`: the sweep from an arc's tail walks in-arcs (the `L_out`
/// view), the sweep from its head out-arcs (the `L_in` view).
fn classify_view<V: DecVariant>(family: u8) -> u8 {
    if V::DIRECTED && family == REPAIR_PRIMARY {
        REPAIR_SECONDARY
    } else {
        REPAIR_PRIMARY
    }
}

/// One holder list per label family, each over the `hubs` flagged for that
/// family.
fn family_holders<V: DecVariant>(
    index: &V::Index,
    hubs: &[(Rank, u8)],
    receivers: &[VertexId],
    stats: &mut MaintenanceCounters,
) -> [HubHolders; 2] {
    [REPAIR_PRIMARY, REPAIR_SECONDARY].map(|family| {
        HubHolders::build(
            hubs.iter()
                .filter(|&&(_, flags)| flags & family != 0)
                .map(|&(r, _)| r),
            receivers,
            |v| V::row(index, v, family),
            stats,
        )
    })
}

/// Holder-list slot of a family flag.
fn slot(family: u8) -> usize {
    usize::from(family != REPAIR_PRIMARY)
}

/// The scratch of the deletion pipeline for one variant: the engine arena,
/// the repair probe, and the batch agenda.
#[derive(Debug)]
pub struct DecPipeline<V: DecVariant> {
    engine: UpdateEngine<V::Dist>,
    probe: V::Probe,
    agenda: RepairAgenda,
    agg: FarAggregator,
}

impl<V: DecVariant> DecPipeline<V> {
    /// A pipeline for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DecPipeline {
            engine: UpdateEngine::new(capacity),
            probe: V::probe(capacity),
            agenda: RepairAgenda::new(capacity),
            agg: FarAggregator::new(capacity),
        }
    }

    /// Checks a deletion set before anything mutates: every edge present,
    /// none named twice. Returns each edge's length, in order.
    pub(crate) fn validate(
        g: &V::Graph,
        edges: &[(VertexId, VertexId)],
    ) -> dspc_graph::Result<Vec<V::Dist>> {
        let mut keys = Vec::with_capacity(edges.len());
        let mut lens = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            lens.push(V::edge_len(g, a, b).ok_or(GraphError::MissingEdge(a, b))?);
            keys.push(V::edge_key(a, b));
        }
        // A repeated edge would be missing by the time its second deletion
        // applied, so the set is rejected up front, naming the edge.
        match duplicate_edge_key(&mut keys) {
            Some((x, y)) => Err(GraphError::MissingEdge(VertexId(x), VertexId(y))),
            None => Ok(lens),
        }
    }

    /// Algorithm 4: classifies edge `(a, b)` on the current graph, applies
    /// `mutate` (deleting the edge, or raising its weight), and repairs
    /// `index` with one sweep per `SR` hub. `promote_receivers` also sweeps
    /// from every `R` vertex — the naive "every affected vertex is a hub"
    /// ablation. Returns the counters and the affected sets.
    pub fn delete_one(
        &mut self,
        g: &mut V::Graph,
        index: &mut V::Index,
        (a, b): (VertexId, VertexId),
        mutate: impl FnOnce(&mut V::Graph) -> dspc_graph::Result<()>,
        promote_receivers: bool,
    ) -> dspc_graph::Result<(MaintenanceCounters, SrrOutcome)> {
        let len = V::edge_len(g, a, b).ok_or(GraphError::MissingEdge(a, b))?;
        self.engine.ensure_capacity(V::capacity(g));
        let mut stats = MaintenanceCounters::default();
        let [fam_a, fam_b] = side_families::<V>();

        // Phase 1 — SrrSEARCH on G_i (edge still present).
        let srr = {
            let (g, index, probe) = (&*g, &*index, &mut self.probe);
            let (sr_a, r_a) = self.engine.srr_pass(
                &mut V::read(g, index, probe, classify_view::<V>(fam_a)),
                a,
                b,
                len,
                &mut stats,
            );
            let (sr_b, r_b) = self.engine.srr_pass(
                &mut V::read(g, index, probe, classify_view::<V>(fam_b)),
                b,
                a,
                len,
                &mut stats,
            );
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
            V::DIRECTED || !self.engine.sides_overlap(),
            "SR_a ∪ R_a and SR_b ∪ R_b of one edge are disjoint"
        );

        // Phase boundary — G_{i+1} ← G_i ⊖ (a, b).
        mutate(g)?;

        // SR = SR_a ∪ SR_b sorted by descending rank (ascending position);
        // a hub of SR_a repairs the b side, a hub of SR_b the a side.
        let mut sr: Vec<(Rank, bool)> = srr
            .sr_a
            .iter()
            .map(|&v| (V::rank(index, v), true))
            .chain(srr.sr_b.iter().map(|&v| (V::rank(index, v), false)))
            .collect();
        if promote_receivers {
            sr.extend(srr.r_a.iter().map(|&v| (V::rank(index, v), true)));
            sr.extend(srr.r_b.iter().map(|&v| (V::rank(index, v), false)));
        }
        sr.sort_unstable_by_key(|&(r, _)| r);
        let family = |from_a: bool| if from_a { fam_a } else { fam_b };
        let flagged: Vec<(Rank, u8)> = sr.iter().map(|&(r, from_a)| (r, family(from_a))).collect();
        let holders = family_holders::<V>(index, &flagged, self.engine.marked(), &mut stats);

        for &(h_rank, from_a) in &sr {
            let h = V::vertex(index, h_rank);
            stats.hubs_processed += 1;
            let opposite = if from_a { MARK_B } else { MARK_A };
            let family = family(from_a);
            let mut topo = V::write(g, index, &mut self.probe, family);
            self.engine.dec_pass(
                &mut topo,
                h,
                opposite,
                holders[slot(family)].of(h_rank),
                &mut stats,
            );
        }

        self.engine.clear_marks();
        Ok((stats, srr))
    }

    /// Deletes every edge of `edges` from `g` and repairs `index` with at
    /// most one `DecUPDATE` sweep per distinct affected hub and label
    /// family, against the graph with the whole set absent (see the module
    /// docs). Classification fans out over up to `threads` threads; the
    /// repaired index and every counter are the same at any thread count.
    /// A single edge takes [`delete_one`](Self::delete_one).
    ///
    /// All edges are validated present, and pairwise distinct, before the
    /// first mutation; on error nothing is applied.
    pub fn delete_batch(
        &mut self,
        g: &mut V::Graph,
        index: &mut V::Index,
        edges: &[(VertexId, VertexId)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let lens = match edges {
            [] => return Ok(MaintenanceCounters::default()),
            &[(a, b)] => {
                return self
                    .delete_one(g, index, (a, b), |g| V::delete(g, a, b), false)
                    .map(|(stats, _)| stats)
            }
            _ => Self::validate(g, edges)?,
        };
        let cap = V::capacity(g);
        self.engine.ensure_capacity(cap);
        self.agenda.ensure_capacity(cap);
        self.agg.ensure_capacity(cap);
        let mut stats = MaintenanceCounters::default();

        // Phase 1 — classification on the pre-deletion graph, merged into
        // the agenda.
        let doomed: Vec<(VertexId, VertexId, V::Dist)> = edges
            .iter()
            .zip(lens)
            .map(|(&(a, b), len)| (a, b, len))
            .collect();
        self.classify(g, index, &doomed, threads, &mut stats);
        self.engine
            .set_marks([self.agenda.receivers(), &[]], [&[], &[]]);

        // Phase boundary — G_{i+1} ← G_i ⊖ edges (the whole set at once).
        for &(a, b) in edges {
            V::delete(g, a, b)?;
        }

        // Phase 2 — one sweep per distinct hub and family on the residual
        // graph, hub-major in rank order.
        let hubs = self.agenda.take_hubs();
        stats.agenda_hubs += hubs.len();
        let holders = family_holders::<V>(index, &hubs, self.agenda.receivers(), &mut stats);
        for (h_rank, families) in hubs {
            let h = V::vertex(index, h_rank);
            for family in [REPAIR_PRIMARY, REPAIR_SECONDARY] {
                if families & family == 0 {
                    continue;
                }
                stats.hubs_processed += 1;
                let mut topo = V::write(g, index, &mut self.probe, family);
                self.engine.dec_pass(
                    &mut topo,
                    h,
                    MARK_A,
                    holders[slot(family)].of(h_rank),
                    &mut stats,
                );
            }
        }

        self.engine.clear_marks();
        self.agenda.clear();
        Ok(stats)
    }

    /// Classifies the doomed edges into the agenda with multi-far sweeps.
    /// Edges contribute one endpoint task per distinct near endpoint; an
    /// arc's tail and head sides repair different families, so they
    /// classify as two task sets.
    fn classify(
        &mut self,
        g: &V::Graph,
        index: &V::Index,
        doomed: &[(VertexId, VertexId, V::Dist)],
        threads: usize,
        stats: &mut MaintenanceCounters,
    ) {
        let [fam_a, fam_b] = side_families::<V>();
        let passes: Vec<(u8, Vec<MultiFarTask<V::Dist>>)> = if V::DIRECTED {
            vec![
                (fam_a, build_endpoint_tasks(doomed.iter().copied())),
                (
                    fam_b,
                    build_endpoint_tasks(doomed.iter().map(|&(a, b, len)| (b, a, len))),
                ),
            ]
        } else {
            vec![(
                fam_a,
                build_endpoint_tasks(
                    doomed
                        .iter()
                        .flat_map(|&(a, b, len)| [(a, b, len), (b, a, len)]),
                ),
            )]
        };
        let cap = V::capacity(g);
        for (family, tasks) in passes {
            let view = classify_view::<V>(family);
            let outcomes = crate::parallel::fan_out(
                &tasks,
                threads,
                || (UpdateEngine::<V::Dist>::new(cap), Vec::<V::Probe>::new()),
                |(engine, probes), task| {
                    while probes.len() < task.fars.len() {
                        probes.push(V::probe(cap));
                    }
                    let mut views: Vec<V::Read<'_>> = probes[..task.fars.len()]
                        .iter_mut()
                        .map(|p| V::read(g, index, p, view))
                        .collect();
                    let mut c = MaintenanceCounters::default();
                    let columns = engine.multi_far_pass(&mut views, task.near, &task.fars, &mut c);
                    (columns, c)
                },
            );
            let mut columns: Vec<FarColumn> = Vec::new();
            for (cols, c) in outcomes {
                stats.absorb(&c);
                columns.extend(cols);
            }
            aggregate_far_columns(&mut self.agg, &columns, &mut self.agenda, family, |v| {
                V::rank(index, v)
            });
        }
    }
}
