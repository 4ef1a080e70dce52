//! [`Pipeline`], the one maintenance pipeline of a facade, and its DecSPC
//! deletion half, written once for every variant. The additive half —
//! insertion, construction and re-rank — runs on the first worker's arena
//! and probe (`push.rs`).
//!
//! [`Pipeline::delete_one`] is the paper's single-edge Algorithm 4:
//! classify both sides of the edge with `SrrSEARCH` on the pre-deletion
//! graph (one [`UpdateEngine::multi_far_pass`] per side, against the one
//! far endpoint), apply the mutation, then run one `DecUPDATE` sweep per
//! `SR` hub in rank order, repairing the opposite side.
//!
//! [`Pipeline::delete_edges`] generalizes it to an edge set:
//!
//! 1. **Validate.** Every edge is present and none repeats, before anything
//!    mutates. Edges the variant's §3.2.3 fast path takes are peeled off.
//! 2. **Classify** on the pre-deletion graph with one
//!    [`UpdateEngine::multi_far_pass`] per distinct endpoint, its per-far
//!    count columns summed per shared far endpoint
//!    ([`aggregate_far_columns`]). These sweeps only read, so their
//!    endpoint tasks fan out over the thread budget; results merge in task
//!    order, so the agenda does not depend on the thread count.
//! 3. **Delete** the whole set.
//! 4. **Repair** one global [`RepairAgenda`]: one sweep per distinct hub
//!    and label family, in rank order, each removal walking the hub's
//!    [`HubHolders`] list.
//!
//! Both repair through one driver, `repair`. The paper's §6 reason to keep
//! it sequential is that every `DecUPDATE` sweep prunes with `PreQUERY`
//! against the labels of all higher-ranked hubs, which the sweeps before it
//! have just repaired. Yet a sweep writes only row `h` of the marked
//! receivers it repairs, so a block of consecutive sweeps rarely disturbs
//! itself. The driver therefore runs each block of [`SPECULATION_BLOCK`]
//! sweeps read-only over the thread budget, against the index as of the
//! block start ([`UpdateEngine::dec_pass`] fills a [`RepairLog`]), and then
//! commits the logs in rank order on the calling thread. Before committing
//! a log it checks the two reads an earlier commit of the block can have
//! changed:
//!
//! * the sweep's pinned hub row — if a commit wrote it, the sweep re-runs
//!   against the current index;
//! * the prune outcome at every marked receiver the sweep dequeued whose
//!   row a commit wrote — re-tested against the current index; a flipped
//!   outcome re-runs the sweep, a held one keeps the log and takes the
//!   re-read entry count into `prune_probes`.
//!
//! Every committed log is then the one the sequential repair records, so
//! labels and counters match it at any thread count. At one thread a block
//! is one sweep and nothing is checked. A directed hub flagged for both
//! families sweeps `L_in` before `L_out`: an `L_in` sweep pins `L_out`
//! rows that the `L_out` sweeps of higher-ranked hubs write.

use super::batch::duplicate_edge_key;
use super::topology::{family_slot, pinned_family, side_families};
use super::{
    aggregate_far_columns, build_endpoint_tasks, FarAggregator, FarColumn, HubHolders,
    MaintenanceCounters, Marks, MultiFarTask, RepairAgenda, RepairLog, Topo, UpdateEngine, Variant,
    MARK_A, MARK_B, REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::index::LabelIndex;
use crate::label::Rank;
use crate::parallel::fan_out;
use crate::query::HubProbe;
use dspc_graph::{Graph, GraphError, VertexId};

/// Repair sweeps speculated side by side when the thread budget exceeds
/// one. A larger block leaves the workers idle less often (a block ends
/// when its slowest sweep does) but speculates more sweeps against labels
/// an earlier commit changes: on `hybrid-epochs` at two threads, blocks of
/// 8, 16 and 32 spent 9.2, 8.4 and 7.7 s repairing the same 85,151 sweeps
/// and re-ran 0.27%, 0.57% and 1.1% of them.
const SPECULATION_BLOCK: usize = 16;

/// The workers a budget of `threads` runs on: at least one, and no more
/// than a speculation block has sweeps.
fn worker_count(threads: usize) -> usize {
    threads.clamp(1, SPECULATION_BLOCK)
}

/// Which affected-hub set drives the update sweeps — the ablation knob
/// behind the paper's §2.3 argument that prior SD-Index definitions of
/// "affected" give no reduction for SPC. `experiments ablation` compares
/// the two per deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DecMode {
    /// The paper's DecSPC: sweeps only from `SR` hubs (Definition 3.10).
    #[default]
    SrOnly,
    /// Naive baseline: treat *every* affected vertex (`SR ∪ R`, the
    /// `|sd(v,a) − sd(v,b)| = 1` set of \[8\]) as a hub to update from.
    /// Correct but wasteful — the extra sweeps only insert redundant
    /// (accurate) labels.
    NaiveAffected,
}

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

/// One `DecUPDATE` sweep of a repair: its hub, the label family it
/// repairs, and the side mark of the receivers it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Sweep {
    hub: Rank,
    family: u8,
    opposite: u8,
}

/// One holder list per label family, each over the sweeps of that family.
fn family_holders<V: Variant>(
    index: &LabelIndex<V>,
    sweeps: &[Sweep],
    receivers: &[VertexId],
    stats: &mut MaintenanceCounters,
) -> [HubHolders; 2] {
    [REPAIR_PRIMARY, REPAIR_SECONDARY].map(|family| {
        HubHolders::build(
            sweeps.iter().filter(|s| s.family == family).map(|s| s.hub),
            receivers,
            |v| index.row(v, family).keys(),
            stats,
        )
    })
}

/// One worker's sweep scratch, kept for the pipeline's lifetime: the
/// engine arena, the pinned-hub probe of the repair sweeps (a
/// classification task adds one per further far endpoint, for its
/// duration), and committed repair logs to refill (at most one block's
/// worth).
#[derive(Debug)]
struct Worker<V: Variant> {
    engine: UpdateEngine<V::Dist>,
    probes: Vec<HubProbe<V::Entry>>,
    spare: Vec<RepairLog<V::Dist>>,
}

impl<V: Variant> Worker<V> {
    fn new(capacity: usize) -> Self {
        Worker {
            engine: UpdateEngine::new(capacity),
            probes: vec![HubProbe::new(capacity)],
            spare: Vec::new(),
        }
    }

    /// Runs `sweep` read-only against `index` into a recycled log.
    fn speculate(
        &mut self,
        g: &Graph<V>,
        index: &LabelIndex<V>,
        marks: &Marks,
        holders: &[HubHolders; 2],
        sweep: &Sweep,
    ) -> RepairLog<V::Dist> {
        let mut log = self.spare.pop().unwrap_or_default();
        self.engine.dec_pass(
            &mut Topo::new(g, index, &mut self.probes[0], sweep.family),
            index.vertex(sweep.hub),
            marks,
            sweep.opposite,
            holders[family_slot(sweep.family)].of(sweep.hub),
            &mut log,
        );
        log
    }
}

/// The label rows, per family, that the commits of the current
/// speculation block wrote.
#[derive(Debug, Default)]
struct Written {
    rows: [Vec<bool>; 2],
    list: Vec<(usize, VertexId)>,
}

impl Written {
    fn ensure_capacity(&mut self, capacity: usize) {
        for rows in &mut self.rows {
            if rows.len() < capacity {
                rows.resize(capacity, false);
            }
        }
    }

    fn note(&mut self, family: u8, v: VertexId) {
        let row = &mut self.rows[family_slot(family)][v.index()];
        if !*row {
            *row = true;
            self.list.push((family_slot(family), v));
        }
    }

    fn has(&self, family: u8, v: VertexId) -> bool {
        self.rows[family_slot(family)][v.index()]
    }

    fn clear(&mut self) {
        for (s, v) in self.list.drain(..) {
            self.rows[s][v.index()] = false;
        }
    }
}

/// One variant's maintenance scratch and the drivers that run on it: one
/// sweep worker per thread of the deletion budget (the first serves the
/// calling thread, and every insertion, construction and re-rank sweep),
/// the repair's side marks, and the batch agenda. The facade owns one and
/// reuses it for every update, build and rebuild.
#[derive(Debug)]
pub struct Pipeline<V: Variant> {
    workers: Vec<Worker<V>>,
    marks: Marks,
    written: Written,
    agenda: RepairAgenda,
    agg: FarAggregator,
    /// Every log `repair` committed, in order.
    #[cfg(test)]
    committed: Vec<RepairLog<V::Dist>>,
}

impl<V: Variant> Pipeline<V> {
    /// A pipeline for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        Pipeline {
            workers: vec![Worker::new(capacity)],
            marks: Marks::new(capacity),
            written: Written::default(),
            agenda: RepairAgenda::new(capacity),
            agg: FarAggregator::new(capacity),
            #[cfg(test)]
            committed: Vec::new(),
        }
    }

    /// The first worker's arena and repair probe, grown to `capacity` ids:
    /// the scratch of the additive sweeps.
    pub(super) fn first_worker(
        &mut self,
        capacity: usize,
    ) -> (&mut UpdateEngine<V::Dist>, &mut HubProbe<V::Entry>) {
        let Worker { engine, probes, .. } = &mut self.workers[0];
        engine.ensure_capacity(capacity);
        (engine, &mut probes[0])
    }

    /// Grows the scratch to `capacity` ids and to the workers of a budget
    /// of `threads`.
    fn ensure_capacity(&mut self, capacity: usize, threads: usize) {
        while self.workers.len() < worker_count(threads) {
            self.workers.push(Worker::new(capacity));
        }
        for worker in &mut self.workers {
            worker.engine.ensure_capacity(capacity);
        }
        self.marks.ensure_capacity(capacity);
        self.written.ensure_capacity(capacity);
        self.agenda.ensure_capacity(capacity);
        self.agg.ensure_capacity(capacity);
    }

    /// Checks a deletion set before anything mutates: every edge present,
    /// none named twice. Returns each edge's length, in order.
    fn validate(g: &Graph<V>, edges: &[(VertexId, VertexId)]) -> dspc_graph::Result<Vec<V::Dist>> {
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
    /// `index` with one sweep per `SR` hub, speculated over up to `threads`
    /// threads. `promote_receivers` also sweeps from every `R` vertex — the
    /// naive "every affected vertex is a hub" ablation. Returns the
    /// counters and the affected sets, the same at any thread count.
    pub fn delete_one(
        &mut self,
        g: &mut Graph<V>,
        index: &mut LabelIndex<V>,
        (a, b): (VertexId, VertexId),
        mutate: impl FnOnce(&mut Graph<V>) -> dspc_graph::Result<()>,
        promote_receivers: bool,
        threads: usize,
    ) -> dspc_graph::Result<(MaintenanceCounters, SrrOutcome)> {
        let len = V::edge_len(g, a, b).ok_or(GraphError::MissingEdge(a, b))?;
        self.ensure_capacity(g.capacity(), threads);
        let mut stats = MaintenanceCounters::default();
        let [fam_a, fam_b] = side_families::<V>();

        // Phase 1 — SrrSEARCH on G_i (edge still present): one sweep per
        // side against its far endpoint, walking the view its hubs pin.
        let srr = {
            let Worker { engine, probes, .. } = &mut self.workers[0];
            let agg = &mut self.agg;
            let mut classify = |near, far, family| {
                let view = pinned_family::<V>(family);
                let columns = engine.multi_far_pass(
                    &mut [Topo::new(g, &*index, &mut probes[0], view)],
                    near,
                    &[(far, len)],
                    &mut stats,
                );
                let (mut sr, mut r) = (Vec::new(), Vec::new());
                agg.classify(&columns, &mut sr, &mut r);
                (sr, r)
            };
            let (sr_a, r_a) = classify(a, b, fam_a);
            let (sr_b, r_b) = classify(b, a, fam_b);
            SrrOutcome {
                sr_a,
                sr_b,
                r_a,
                r_b,
            }
        };
        self.marks.set([&srr.sr_a, &srr.r_a], [&srr.sr_b, &srr.r_b]);
        debug_assert!(
            V::DIRECTED || !self.marks.sides_overlap(),
            "SR_a ∪ R_a and SR_b ∪ R_b of one edge are disjoint"
        );

        // Phase boundary — G_{i+1} ← G_i ⊖ (a, b).
        mutate(g)?;

        // SR = SR_a ∪ SR_b sorted by descending rank (ascending position);
        // a hub of SR_a repairs the b side, a hub of SR_b the a side.
        let mut sr: Vec<(Rank, bool)> = srr
            .sr_a
            .iter()
            .map(|&v| (index.rank(v), true))
            .chain(srr.sr_b.iter().map(|&v| (index.rank(v), false)))
            .collect();
        if promote_receivers {
            sr.extend(srr.r_a.iter().map(|&v| (index.rank(v), true)));
            sr.extend(srr.r_b.iter().map(|&v| (index.rank(v), false)));
        }
        sr.sort_unstable_by_key(|&(r, _)| r);
        let sweeps: Vec<Sweep> = sr
            .iter()
            .map(|&(hub, from_a)| Sweep {
                hub,
                family: if from_a { fam_a } else { fam_b },
                opposite: if from_a { MARK_B } else { MARK_A },
            })
            .collect();
        let holders = family_holders::<V>(index, &sweeps, self.marks.marked(), &mut stats);
        self.repair(g, index, &sweeps, &holders, threads, &mut stats);
        self.marks.clear();
        Ok((stats, srr))
    }

    /// Deletes `(a, b)` from `g` and repairs `index`: the variant's §3.2.3
    /// isolated-vertex fast path ([`Variant::pendant_fast_path`]) when it
    /// applies, Algorithm 4 ([`delete_one`](Self::delete_one)) otherwise,
    /// speculating the repair sweeps over up to `threads` threads (the
    /// result is the same at any count). Returns the counters and the
    /// affected sets (Table 5; empty on the fast path).
    pub fn delete_edge(
        &mut self,
        g: &mut Graph<V>,
        index: &mut LabelIndex<V>,
        a: VertexId,
        b: VertexId,
        threads: usize,
    ) -> dspc_graph::Result<(MaintenanceCounters, SrrOutcome)> {
        self.delete_edge_with_mode(g, index, a, b, DecMode::SrOnly, threads)
    }

    /// [`delete_edge`](Self::delete_edge) with an explicit [`DecMode`]
    /// (the ablation hook).
    pub fn delete_edge_with_mode(
        &mut self,
        g: &mut Graph<V>,
        index: &mut LabelIndex<V>,
        a: VertexId,
        b: VertexId,
        mode: DecMode,
        threads: usize,
    ) -> dspc_graph::Result<(MaintenanceCounters, SrrOutcome)> {
        V::edge_len(g, a, b).ok_or(GraphError::MissingEdge(a, b))?;
        if let Some(stats) = V::pendant_fast_path(g, index, a, b)? {
            return Ok((stats, SrrOutcome::default()));
        }
        let promote = mode == DecMode::NaiveAffected;
        self.delete_one(g, index, (a, b), |g| V::delete(g, a, b), promote, threads)
    }

    /// Deletes a set of edges as one epoch (see the module docs): edges
    /// eligible for the isolated-vertex fast path are peeled off first
    /// (checked against the evolving graph, since each peeled deletion can
    /// strand the next pendant) — they cost no sweep there, so the batch
    /// would only add classification work. The rest are deleted together
    /// and repaired with at most one `DecUPDATE` sweep per distinct
    /// affected hub and label family, against the graph with the whole set
    /// absent; a single remaining edge takes
    /// [`delete_edge`](Self::delete_edge). Classification and repair run
    /// over up to `threads` threads; the repaired index and every counter
    /// are the same at any thread count.
    ///
    /// All edges are validated present, and pairwise distinct, before the
    /// first mutation; on error nothing is applied.
    pub fn delete_edges(
        &mut self,
        g: &mut Graph<V>,
        index: &mut LabelIndex<V>,
        edges: &[(VertexId, VertexId)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        let single = |p: &mut Self, g: &mut Graph<V>, index: &mut LabelIndex<V>, (a, b)| {
            p.delete_edge(g, index, a, b, threads)
                .map(|(stats, _)| stats)
        };
        if let &[edge] = edges {
            return single(self, g, index, edge);
        }
        let lens = Self::validate(g, edges)?;
        let mut total = MaintenanceCounters::default();
        let mut rest = Vec::with_capacity(edges.len());
        for (&(a, b), len) in edges.iter().zip(lens) {
            match V::pendant_fast_path(g, index, a, b)? {
                Some(stats) => total.absorb(&stats),
                None => rest.push((a, b, len)),
            }
        }
        total.absorb(&match rest[..] {
            [] => MaintenanceCounters::default(),
            [(a, b, _)] => single(self, g, index, (a, b))?,
            _ => self.delete_batch(g, index, &rest, threads)?,
        });
        Ok(total)
    }

    /// The multi-edge core of [`delete_edges`](Self::delete_edges):
    /// classifies the validated, pairwise distinct `doomed` edges (with
    /// their lengths), deletes them all, and repairs one global agenda.
    fn delete_batch(
        &mut self,
        g: &mut Graph<V>,
        index: &mut LabelIndex<V>,
        doomed: &[(VertexId, VertexId, V::Dist)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.ensure_capacity(g.capacity(), threads);
        let mut stats = MaintenanceCounters::default();

        // Phase 1 — classification on the pre-deletion graph, merged into
        // the agenda.
        self.classify(g, index, doomed, threads, &mut stats);
        self.marks.set([self.agenda.receivers(), &[]], [&[], &[]]);

        // Phase boundary — G_{i+1} ← G_i ⊖ edges (the whole set at once).
        for &(a, b, _) in doomed {
            V::delete(g, a, b)?;
        }

        // Phase 2 — one sweep per distinct hub and family on the residual
        // graph, hub-major in rank order.
        let hubs = self.agenda.take_hubs();
        stats.agenda_hubs += hubs.len();
        let sweeps: Vec<Sweep> = hubs
            .iter()
            .flat_map(|&(hub, families)| {
                [REPAIR_PRIMARY, REPAIR_SECONDARY]
                    .into_iter()
                    .filter(move |&family| families & family != 0)
                    .map(move |family| Sweep {
                        hub,
                        family,
                        opposite: MARK_A,
                    })
            })
            .collect();
        let holders = family_holders::<V>(index, &sweeps, self.agenda.receivers(), &mut stats);
        self.repair(g, index, &sweeps, &holders, threads, &mut stats);

        self.marks.clear();
        self.agenda.clear();
        Ok(stats)
    }

    /// Runs `sweeps` in order, as the module docs describe: blocks of
    /// [`SPECULATION_BLOCK`] sweeps speculated over up to `threads` workers
    /// (one sweep per block at one thread), committed in order on the
    /// calling thread. Returns how many sweeps re-ran because an earlier
    /// commit of their block changed what they read.
    fn repair(
        &mut self,
        g: &Graph<V>,
        index: &mut LabelIndex<V>,
        sweeps: &[Sweep],
        holders: &[HubHolders; 2],
        threads: usize,
        stats: &mut MaintenanceCounters,
    ) -> usize {
        let workers = worker_count(threads);
        let block = if workers == 1 { 1 } else { SPECULATION_BLOCK };
        let mut reruns = 0;
        for chunk in sweeps.chunks(block) {
            let logs = {
                let (index, marks) = (&*index, &self.marks);
                fan_out(chunk, &mut self.workers[..workers], |worker, sweep| {
                    worker.speculate(g, index, marks, holders, sweep)
                })
            };
            for (i, (sweep, mut log)) in chunk.iter().zip(logs).enumerate() {
                if i > 0 && !self.still_holds(g, index, sweep, &mut log) {
                    reruns += 1;
                    let worker = &mut self.workers[0];
                    worker.spare.push(log);
                    log = worker.speculate(g, index, &self.marks, holders, sweep);
                }
                let written = &mut self.written;
                log.apply(
                    &mut Topo::new(g, &mut *index, &mut self.workers[0].probes[0], sweep.family),
                    sweep.hub,
                    |v| written.note(sweep.family, v),
                );
                stats.absorb(&log.counters);
                stats.hubs_processed += 1;
                #[cfg(test)]
                self.committed.push(log.clone());
                // Refill the emptiest pool, up to one block's worth: the
                // workers claim sweeps unevenly, and the logs keep their
                // buffers, so no pool may grow without bound.
                let pool = self.workers[..workers]
                    .iter_mut()
                    .map(|worker| &mut worker.spare)
                    .min_by_key(|spare| spare.len())
                    .expect("at least one worker");
                if pool.len() < block {
                    pool.push(log);
                }
            }
            self.written.clear();
        }
        reruns
    }

    /// Whether `log`, speculated against the index as of its block's
    /// start, still describes `sweep` after the block's earlier commits:
    /// they left the sweep's pinned row alone, and no prune outcome at a
    /// receiver whose row they wrote flipped ([`RepairLog`]).
    fn still_holds(
        &mut self,
        g: &Graph<V>,
        index: &LabelIndex<V>,
        sweep: &Sweep,
        log: &mut RepairLog<V::Dist>,
    ) -> bool {
        let h = index.vertex(sweep.hub);
        let written = &self.written;
        !written.has(pinned_family::<V>(sweep.family), h)
            && log.revalidate(
                &mut Topo::new(g, index, &mut self.workers[0].probes[0], sweep.family),
                h,
                |v| written.has(sweep.family, v),
            )
    }

    /// Classifies the doomed edges into the agenda with multi-far sweeps
    /// over the workers. Edges contribute one endpoint task per distinct
    /// near endpoint; an arc's tail and head sides repair different
    /// families, so they classify as two task sets.
    fn classify(
        &mut self,
        g: &Graph<V>,
        index: &LabelIndex<V>,
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
        let workers = worker_count(threads);
        for (family, tasks) in passes {
            let view = pinned_family::<V>(family);
            let outcomes = fan_out(
                &tasks,
                &mut self.workers[..workers],
                |Worker { engine, probes, .. }, task| {
                    while probes.len() < task.fars.len() {
                        probes.push(HubProbe::new(g.capacity()));
                    }
                    let mut views: Vec<_> = probes[..task.fars.len()]
                        .iter_mut()
                        .map(|p| Topo::new(g, index, p, view))
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
                index.rank(v)
            });
        }
        // A task pins one id-space-sized probe per far endpoint, and a
        // vertex deletion's task has one per neighbor: keep only the probe
        // the repair sweeps use.
        for worker in &mut self.workers {
            worker.probes.truncate(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::engine::Undirected;
    use crate::index::SpcIndex;
    use crate::order::OrderingStrategy;
    use dspc_graph::UndirectedGraph;

    /// What one repair did: the index it left, its counters, the logs it
    /// committed, and how many sweeps it re-ran.
    type Outcome = (SpcIndex, MaintenanceCounters, Vec<RepairLog<u32>>, usize);

    /// The graph, its identity-order index with `(0, ·, ·)` dropped from
    /// the row of `damaged`, and the sweeps of hubs `0` and `later`, with
    /// every vertex marked. Hub 0's sweep rewrites exactly the dropped
    /// entry, so its commit writes row `damaged` and nothing else.
    struct Block {
        g: UndirectedGraph,
        index: SpcIndex,
        sweeps: Vec<Sweep>,
    }

    impl Block {
        fn new(edges: &[(u32, u32)], damaged: u32, later: u32) -> Self {
            let g = UndirectedGraph::from_edges(6, edges);
            let mut index = build_index(&g, OrderingStrategy::Identity);
            index
                .remove_entry(VertexId(damaged), REPAIR_PRIMARY, Rank(0))
                .expect("hub 0 reaches every vertex");
            let sweeps = [0, later]
                .map(|hub| Sweep {
                    hub: Rank(hub),
                    family: REPAIR_PRIMARY,
                    opposite: MARK_A,
                })
                .to_vec();
            Block { g, index, sweeps }
        }

        fn pipeline(&self, threads: usize) -> Pipeline<Undirected> {
            let mut p = Pipeline::new(self.g.capacity());
            p.ensure_capacity(self.g.capacity(), threads);
            let all: Vec<VertexId> = self.g.vertices().collect();
            p.marks.set([&all, &[]], [&[], &[]]);
            p
        }

        fn repair(&self, threads: usize) -> Outcome {
            let mut p = self.pipeline(threads);
            let mut index = self.index.clone();
            let mut stats = MaintenanceCounters::default();
            let holders =
                family_holders::<Undirected>(&index, &self.sweeps, p.marks.marked(), &mut stats);
            let reruns = p.repair(
                &self.g,
                &mut index,
                &self.sweeps,
                &holders,
                threads,
                &mut stats,
            );
            (index, stats, p.committed, reruns)
        }

        /// The later sweep's log speculated against the block-start index.
        fn speculated(&self) -> RepairLog<u32> {
            let mut p = self.pipeline(1);
            let mut stats = MaintenanceCounters::default();
            let holders = family_holders::<Undirected>(
                &self.index,
                &self.sweeps,
                p.marks.marked(),
                &mut stats,
            );
            p.workers[0].speculate(&self.g, &self.index, &p.marks, &holders, &self.sweeps[1])
        }

        /// Repairs at one thread and at two (one block of both sweeps):
        /// the index, every counter and every committed log agree. Returns
        /// the sequential log of the later sweep and the two-thread re-run
        /// count.
        fn check(&self) -> (RepairLog<u32>, usize) {
            let (seq_index, seq_stats, seq_logs, seq_reruns) = self.repair(1);
            assert_eq!(seq_reruns, 0, "a block of one sweep never re-runs");
            let (par_index, par_stats, par_logs, reruns) = self.repair(2);
            assert_eq!(par_index, seq_index);
            assert_eq!(par_stats, seq_stats);
            assert_eq!(par_logs, seq_logs);
            (seq_logs[1].clone(), reruns)
        }
    }

    fn visit_at(log: &RepairLog<u32>, v: u32) -> (bool, u32) {
        let visit = log
            .visits
            .iter()
            .find(|visit| visit.v == VertexId(v))
            .expect("the sweep dequeues v");
        (visit.pruned, visit.read)
    }

    /// (i) Hub 0's commit rewrites hub 1's pinned row `L(1)`: hub 1 re-runs.
    #[test]
    fn rewritten_pinned_row_reruns() {
        // The 5-cycle 0-1-3-4-2-0.
        let block = Block::new(&[(0, 1), (1, 3), (3, 4), (4, 2), (2, 0)], 1, 1);
        let (_, reruns) = block.check();
        assert_eq!(reruns, 1);
    }

    /// (ii) Hub 0's commit restores `(0, 1, 1)` at vertex 2, which then
    /// certifies `sd(1, 2) = 2` below the sweep's `D[2] = 3` (around the
    /// cycle avoiding 0): the prune at 2 flips, so hub 1 re-runs.
    #[test]
    fn flipped_prune_reruns() {
        let block = Block::new(&[(0, 1), (1, 3), (3, 4), (4, 2), (2, 0)], 2, 1);
        let (sequential, reruns) = block.check();
        assert!(!visit_at(&block.speculated(), 2).0, "unpruned at the start");
        assert!(visit_at(&sequential, 2).0, "pruned after hub 0's commit");
        assert_eq!(reruns, 1);
    }

    /// (iii) Hub 0's commit restores `(0, 1, 1)` at vertex 5 ahead of the
    /// witness `(1, 1, 1)` that prunes hub 2's sweep there, without itself
    /// witnessing (`sd(2, 0) + 1 = 4` is not below `D[5] = 3`). The
    /// outcome holds, so hub 2 keeps its log, and `prune_probes` takes the
    /// re-read count: one entry more.
    #[test]
    fn moved_first_witness_keeps_the_log() {
        // The 5-cycle 1-2-3-4-5-1 with the pendant 0 on 5.
        let block = Block::new(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (0, 5)], 5, 2);
        let (sequential, reruns) = block.check();
        let speculated = block.speculated();
        assert_eq!(visit_at(&speculated, 5), (true, 1));
        assert_eq!(visit_at(&sequential, 5), (true, 2));
        assert_eq!(
            sequential.counters.prune_probes,
            speculated.counters.prune_probes + 1
        );
        assert_eq!(reruns, 0);
    }
}
