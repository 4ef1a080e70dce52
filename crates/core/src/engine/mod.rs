//! The shared update engine behind HP-SPC construction, IncSPC and DecSPC —
//! one implementation of the paper's hub-ordered push/renew/insert/remove
//! machinery, reused by the undirected core and both extensions.
//!
//! Each traversal is written once here, for every variant:
//!
//! * **`inc_pass`** — Algorithm 3's `IncUPDATE`: a pruned counting sweep
//!   seeded across the new edge, renewing or inserting `(h, ·, ·)` labels
//!   wherever the index does not already certify a strictly shorter path.
//!   Seeded at the hub itself with `(0, 1)` over rows that hold no
//!   `(h, ·, ·)` entry, it is HP-SPC's hub-pushing sweep (§2.2):
//!   construction and adjacent-rank re-rank run on it.
//! * **`multi_far_pass`** — Algorithm 5's `SrrSEARCH` (one side): a full
//!   counting sweep on the pre-mutation graph from one endpoint, against
//!   every doomed edge's far endpoint at once. Its per-far columns,
//!   summed per far endpoint ([`aggregate_far_columns`]), classify every
//!   vertex with a shortest path through a doomed edge into `SR` (hub
//!   must re-sweep) or `R` (labels may change, no sweep needed). A
//!   single-edge deletion runs it with one far endpoint per side.
//! * **`dec_pass`** — Algorithm 6's `DecUPDATE`: a rank-pruned counting
//!   sweep from an affected hub on the post-mutation graph, repairing
//!   labels of the opposite side's `SR ∪ R`, followed by a removal pass
//!   over the never-reached receivers that hold the hub's row. It only
//!   reads: it records its writes in a [`RepairLog`], which the deletion
//!   pipeline commits in rank order.
//!
//! The passes read and write the index through the [`ReadTopology`] /
//! [`LabelTopology`] traits, which one view, [`Topo`], implements over the
//! one label store ([`crate::index::LabelIndex`]) for every variant. What
//! varies is the view's label family (`L`, `L_in` or `L_out`) and what the
//! [`Variant`] supplies: the adjacency a family's sweep walks
//! ([`Variant::for_each_neighbor`]: undirected, directed-forward,
//! directed-backward, weighted) and the distance domain (`u32` hops vs
//! `u64` accumulated weight — [`Variant::DIJKSTRA`] switches the frontier
//! from a FIFO queue to a binary heap). The engine owns the per-sweep scratch
//! (distance/count arrays, frontier, visited flags) and reports the
//! RenewC/RenewD/Insert/Remove counters ([`MaintenanceCounters`]) feeding
//! Figures 8–9; the `SR ∪ R` side marks of a repair live in one shared
//! [`Marks`].
//!
//! ## Departure from the paper: the removal pass is unconditional
//!
//! Algorithm 6 removes never-updated `(h, ·, ·)` labels only when `h` is a
//! common hub of the deleted edge's endpoints (`h ∈ L(a) ∩ L(b)`). That
//! gate is unsound in the presence of Lemma 3.1's *kept stale labels*: a
//! stale label's witness path can degrade under later updates until the
//! hub no longer appears in `L(a) ∩ L(b)`, yet a deletion can raise the
//! true distance to *meet* the stale distance — promoting the label from a
//! harmless loser into a phantom count contributor (observed as an
//! overcount on long hybrid streams). Removing unconditionally is safe:
//! any label still valid after the mutation is re-established by the hub's
//! own repair sweep (a valid `(h, d, c)` label means its witness path lies
//! inside `G_h` at distance `d = sd(h, v)`, so the sweep reaches `v`
//! unpruned and marks it updated), so only unjustifiable labels are
//! dropped.
//!
//! Removing unconditionally must not mean *probing* unconditionally:
//! looking up row `h` at every receiver for every hub costs
//! `|hubs| × |receivers|` although few receivers hold a given row. Each
//! deletion repair therefore inverts its receivers' rows once into
//! [`HubHolders`] (hub → receivers holding it), and `dec_pass` walks only
//! `h`'s holders. The `removal_probes` counter measures that work: row
//! entries scanned by the inversion plus holders walked.
//!
//! ## Repair sweeps speculate, then commit in rank order
//!
//! A `DecUPDATE` sweep prunes against the labels of every higher-ranked
//! hub, which the sweeps before it have just repaired (the paper's §6
//! reason to leave parallel updates open). But a sweep writes only row `h`
//! of the receivers it repairs, so what an earlier sweep can change for a
//! later one is narrow: the prune outcome at a marked receiver the later
//! sweep dequeued, or the later hub's own pinned row. [`Pipeline`] runs
//! blocks of sweeps read-only side by side against the index as of the
//! block start, then commits their logs in rank order, re-running a sweep
//! whose recorded reads an earlier commit of its block changed. The result
//! is the sequential repair's, label for label and counter for counter.
//!
//! ## One pipeline, written once
//!
//! [`Pipeline`] owns one variant's sweep scratch and drives every pass.
//! On its first worker's arena and probe it runs the passes that only add
//! labels: edge insertion (Algorithm 2), construction, and adjacent-rank
//! re-rank. On all its workers it runs deletion: single-edge
//! (Algorithm 4) and batch (classify the whole set, delete it, repair one
//! global agenda). A [`Variant`] supplies what differs — graph and entry
//! types, the edge length, the ordering degree, the adjacency per label
//! family, and what the one facade ([`crate::dynamic::Dynamic`]) needs:
//! the update vocabulary, graph mutations, and the undirected §3.2.3 fast
//! path.

use crate::label::{Count, HubEntry, LabelDist, Rank};
use dspc_graph::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod batch;
mod delete;
mod holders;
mod push;
mod topology;

pub(crate) use batch::{check_endpoints, ordered_key};
pub use batch::{EdgeCoalescer, NetEdgeEffect, NetOp, NetPlan, UpdateOp};
pub use delete::{DecMode, Pipeline, SrrOutcome};
pub use holders::HubHolders;
pub(crate) use topology::{families, family_slot, source_family};
pub use topology::{Directed, Topo, Undirected, Variant, Weighted};

/// The read half of one variant's view of "graph + index + pinned-hub
/// probe": everything a classification or `DecUPDATE` sweep needs,
/// including the early-exit prune test the label-writing sweeps read
/// through. A view over a shared index borrow implements only this, so
/// those sweeps can fan out across threads.
pub trait ReadTopology {
    /// Distance domain (`u32` hops or `u64` accumulated weight).
    type Dist: LabelDist;

    /// Whether sweeps must settle in distance order (Dijkstra) rather than
    /// FIFO order (unit-length BFS).
    const DIJKSTRA: bool;

    /// Rank of vertex `v`.
    fn rank(&self, v: u32) -> Rank;

    /// Pins the hub-side label set of `x` for subsequent
    /// [`probe_query`](Self::probe_query) and
    /// [`probe_certifies_shorter`](Self::probe_certifies_shorter) calls.
    /// Directed views pin the family opposite to the one being repaired.
    fn load_probe(&mut self, x: VertexId);

    /// `SpcQUERY(pinned, v)` against the repaired family: what the
    /// classification sweeps need, since condition **B** reads the count.
    fn probe_query(&self, v: VertexId) -> (Self::Dist, Count);

    /// The prune test of the label-writing sweeps: whether a pinned hub
    /// ranked strictly above `limit` (any pinned hub when `None`) reaches
    /// `v` by a path strictly shorter than `bound`, with the `v` entries
    /// read ([`crate::query::HubProbe::certifies_shorter`]). The verdict
    /// equals `SpcQUERY(pinned, v).0 < bound`, or `PreQUERY`'s with a
    /// limit, but the scan stops at the first witnessing hub.
    fn probe_certifies_shorter(
        &self,
        v: VertexId,
        bound: Self::Dist,
        limit: Option<Rank>,
    ) -> (bool, usize);

    /// Visits each traversal neighbor of `v` with its edge length.
    fn for_each_neighbor<F: FnMut(u32, Self::Dist)>(&self, v: u32, f: F);

    /// Entry `(hub, ·, ·)` of the repaired family at `v`, if present.
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(Self::Dist, Count)>;

    /// Condition **A** of Definition 3.10: is `hub` a common hub of both
    /// endpoints (in the variant's membership family)?
    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool;
}

/// A view that can also write the repaired label family: what the hub-push
/// sweeps and the commit of a `DecUPDATE` log need. Views over a mutable
/// index borrow implement it.
pub trait LabelTopology: ReadTopology {
    /// Inserts or replaces `(hub, d, c)` in the repaired family at `v`.
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: Self::Dist, c: Count);

    /// Removes `(hub, ·, ·)` from the repaired family at `v`; returns
    /// whether an entry existed.
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool;
}

/// The unified maintenance counter block: the RenewC / RenewD / Insert /
/// Remove label-operation series of Figures 8–9 plus the sweep and agenda
/// counters every batch path reports. One type serves every layer — the
/// engine passes it to its sweeps, the pipelines return it, and the
/// facade wraps it in [`crate::dynamic::UpdateStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceCounters {
    /// Labels whose count changed at unchanged distance (RenewC).
    pub renew_count: usize,
    /// Labels whose distance changed (RenewD).
    pub renew_dist: usize,
    /// Newly inserted labels (Insert).
    pub inserted: usize,
    /// Removed labels (Remove).
    pub removed: usize,
    /// Affected hubs processed (one per repair sweep: `inc_pass` or
    /// `dec_pass`).
    pub hubs_processed: usize,
    /// Classification sweeps performed ([`UpdateEngine::multi_far_pass`]
    /// invocations: two per single-edge deletion, one per distinct
    /// endpoint of a batch).
    pub classify_sweeps: usize,
    /// Classification sweeps that classified against two or more far
    /// endpoints at once (the multi-far amortization win: always
    /// `<= classify_sweeps`).
    pub multi_far_sweeps: usize,
    /// Vertices dequeued across update sweeps.
    pub vertices_visited: usize,
    /// Distinct hubs drained from the global repair agenda (after
    /// deduplication across the batch's edges).
    pub agenda_hubs: usize,
    /// Always 0: the repair schedules no waves of independent hubs (it
    /// speculates blocks of sweeps and commits them in rank order). Kept
    /// only because the wall-clock benchmark (`perfbench/`) reads it.
    pub waves: usize,
    /// Always 0, like [`waves`](Self::waves); kept only because the
    /// wall-clock benchmark reads it.
    pub max_wave_width: usize,
    /// Always 0, like [`waves`](Self::waves); kept only because the
    /// wall-clock benchmark reads it.
    pub steal_events: usize,
    /// Whether the §3.2.3 isolated-vertex fast path handled (part of)
    /// the update.
    pub isolated_fast_path: bool,
    /// Adjacent rank swaps repaired by [`crate::reorder`] (one per
    /// demote/promote pair).
    pub rerank_swaps: usize,
    /// Hub re-push sweeps run by swap repair (two per undirected/weighted
    /// swap, four per directed swap — both families).
    pub rerank_sweeps: usize,
    /// Work of the removal pass: receiver label-row entries scanned while
    /// building the [`HubHolders`] lists, plus holder entries walked by
    /// [`UpdateEngine::dec_pass`].
    pub removal_probes: usize,
    /// Work of the prune tests of [`UpdateEngine::inc_pass`] and
    /// [`UpdateEngine::dec_pass`]: label entries of the visited vertices
    /// read before each verdict.
    pub prune_probes: usize,
}

impl MaintenanceCounters {
    /// Total label operations.
    pub fn total_ops(&self) -> usize {
        self.renew_count + self.renew_dist + self.inserted + self.removed
    }

    /// Total engine sweeps (classification + repair + re-rank re-pushes) —
    /// the amortization metric batch deletion optimizes.
    pub fn total_sweeps(&self) -> usize {
        self.classify_sweeps + self.hubs_processed + self.rerank_sweeps
    }

    /// Signed change in index entry count (`inserted - removed`).
    pub fn entry_delta(&self) -> isize {
        self.inserted as isize - self.removed as isize
    }

    /// Merges counters (for streams and batches).
    pub fn absorb(&mut self, other: &MaintenanceCounters) {
        self.renew_count += other.renew_count;
        self.renew_dist += other.renew_dist;
        self.inserted += other.inserted;
        self.removed += other.removed;
        self.hubs_processed += other.hubs_processed;
        self.classify_sweeps += other.classify_sweeps;
        self.multi_far_sweeps += other.multi_far_sweeps;
        self.vertices_visited += other.vertices_visited;
        self.agenda_hubs += other.agenda_hubs;
        self.waves += other.waves;
        self.max_wave_width = self.max_wave_width.max(other.max_wave_width);
        self.steal_events += other.steal_events;
        self.isolated_fast_path |= other.isolated_fast_path;
        self.rerank_swaps += other.rerank_swaps;
        self.rerank_sweeps += other.rerank_sweeps;
        self.removal_probes += other.removal_probes;
        self.prune_probes += other.prune_probes;
    }
}

/// Merges two rank-sorted label slices into the affected-hub list
/// `AFF = hubs(L(a)) ∪ hubs(L(b))` with per-side membership flags,
/// in descending rank order (ascending rank position) — the snapshot every
/// incremental update starts from (Algorithm 2 line 2).
pub fn merge_affected<E: HubEntry>(la: &[E], lb: &[E]) -> Vec<(Rank, bool, bool)> {
    let mut aff = Vec::with_capacity(la.len() + lb.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < la.len() || j < lb.len() {
        match (la.get(i), lb.get(j)) {
            (Some(x), Some(y)) if x.hub() == y.hub() => {
                aff.push((x.hub(), true, true));
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x.hub() < y.hub() => {
                aff.push((x.hub(), true, false));
                i += 1;
            }
            (Some(_), Some(y)) => {
                aff.push((y.hub(), false, true));
                j += 1;
            }
            (Some(x), None) => {
                aff.push((x.hub(), true, false));
                i += 1;
            }
            (None, Some(y)) => {
                aff.push((y.hub(), false, true));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    aff
}

/// Side markers for `SR ∪ R` membership.
pub const MARK_A: u8 = 1;
/// Second side marker.
pub const MARK_B: u8 = 2;

/// The `SR ∪ R` side marks of one deletion repair: the receivers whose
/// labels its sweeps may rewrite, each tagged with the side of the deleted
/// edge it lies on ([`MARK_A`], [`MARK_B`]). Set once after classification
/// and only read while the repair runs, so every speculating worker shares
/// the same marks.
#[derive(Debug, Default)]
pub struct Marks {
    bits: Vec<u8>,
    /// Every marked vertex once, in first-marked order.
    marked: Vec<VertexId>,
}

impl Marks {
    /// No marks, for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        Marks {
            bits: vec![0; capacity],
            marked: Vec::new(),
        }
    }

    /// Grows the mark array when the id space expanded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.bits.len() < capacity {
            self.bits.resize(capacity, 0);
        }
    }

    /// Marks the vertices of `side_a` with [`MARK_A`] and those of
    /// `side_b` with [`MARK_B`].
    pub fn set(&mut self, side_a: [&[VertexId]; 2], side_b: [&[VertexId]; 2]) {
        for (slices, bit) in [(side_a, MARK_A), (side_b, MARK_B)] {
            for slice in slices {
                for &v in slice {
                    if self.bits[v.index()] == 0 {
                        self.marked.push(v);
                    }
                    self.bits[v.index()] |= bit;
                }
            }
        }
    }

    /// `v`'s side bits (0 when unmarked).
    #[inline]
    pub fn of(&self, v: VertexId) -> u8 {
        self.bits[v.index()]
    }

    /// Every marked vertex once, in first-marked order: the receivers of
    /// the repair.
    pub fn marked(&self) -> &[VertexId] {
        &self.marked
    }

    /// Whether some vertex carries both side marks. Never true for a
    /// single undirected or weighted edge: `sd(v, a) + w = sd(v, b)` and
    /// `sd(v, b) + w = sd(v, a)` cannot both hold when `w ≥ 1`, so each hub
    /// sweeps at most once — which [`HubHolders`] relies on.
    pub fn sides_overlap(&self) -> bool {
        self.marked.iter().any(|&v| self.of(v) == MARK_A | MARK_B)
    }

    /// Clears every mark after the repair.
    pub fn clear(&mut self) {
        for &v in &self.marked {
            self.bits[v.index()] = 0;
        }
        self.marked.clear();
    }
}

/// A marked receiver one repair sweep dequeued: the distance it reached
/// it at, and its prune test's outcome and cost. Another sweep's writes
/// can change the sweep only through these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Visit<D> {
    v: VertexId,
    /// `D[v]`, the bound of the prune test.
    dist: D,
    /// Label entries the prune test read (a row length, so `u32` holds it
    /// and the log stays compact).
    read: u32,
    pruned: bool,
}

/// What one read-only [`UpdateEngine::dec_pass`] sweep for hub `h` would
/// write — its row-`h` upserts, in visit order, and its row-`h` removals —
/// with its counters, and every marked receiver it dequeued, recorded as
/// `(v, D[v], entries read, prune outcome)`.
///
/// The sweep writes only row `h` of marked receivers, and it reads only the
/// rows of the vertices it dequeues and `h`'s pinned row. So the log still
/// describes the sweep after another sweep's writes unless they landed on
/// the pinned row or flipped the prune outcome at a receiver it records;
/// when the outcome holds, a re-read count replaces the recorded one in
/// `prune_probes` ([`Pipeline`] checks this before it commits a log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairLog<D> {
    upserts: Vec<(VertexId, D, Count)>,
    removals: Vec<VertexId>,
    counters: MaintenanceCounters,
    visits: Vec<Visit<D>>,
}

impl<D> Default for RepairLog<D> {
    fn default() -> Self {
        RepairLog {
            upserts: Vec::new(),
            removals: Vec::new(),
            counters: MaintenanceCounters::default(),
            visits: Vec::new(),
        }
    }
}

impl<D: LabelDist> RepairLog<D> {
    /// Empties the log, keeping its buffers.
    fn clear(&mut self) {
        self.upserts.clear();
        self.removals.clear();
        self.counters = MaintenanceCounters::default();
        self.visits.clear();
    }

    /// Re-runs the prune test of hub `h`'s sweep, against `topo`'s current
    /// index, at every recorded receiver whose row `written` names. The
    /// caller guarantees that `h`'s pinned row is unchanged. Returns
    /// whether every outcome held. If so, the sweep dequeues the same
    /// vertices at the same distances and writes the same entries, so with
    /// the re-read entry counts substituted the log is the one the sweep
    /// records against the current index. Otherwise the log is stale and
    /// must be discarded.
    fn revalidate<T: ReadTopology<Dist = D>>(
        &mut self,
        topo: &mut T,
        h: VertexId,
        written: impl Fn(VertexId) -> bool,
    ) -> bool {
        let h_rank = topo.rank(h.0);
        let mut pinned = false;
        for visit in &mut self.visits {
            if !written(visit.v) {
                continue;
            }
            if !pinned {
                topo.load_probe(h);
                pinned = true;
            }
            let (pruned, read) = topo.probe_certifies_shorter(visit.v, visit.dist, Some(h_rank));
            if pruned != visit.pruned {
                return false;
            }
            self.counters.prune_probes = self.counters.prune_probes - visit.read as usize + read;
            visit.read = read as u32;
        }
        true
    }

    /// Applies the logged writes to `topo`'s index as row-`hub` entries,
    /// naming each written vertex to `wrote`.
    fn apply<T: LabelTopology<Dist = D>>(
        &self,
        topo: &mut T,
        hub: Rank,
        mut wrote: impl FnMut(VertexId),
    ) {
        for &(v, d, c) in &self.upserts {
            topo.label_upsert(v, hub, d, c);
            wrote(v);
        }
        for &u in &self.removals {
            let held = topo.label_remove(u, hub);
            debug_assert!(held, "a logged removal found no row {hub:?} at {u:?}");
            wrote(u);
        }
    }
}

/// [`RepairAgenda`] hub flag: the hub must re-sweep the variant's primary
/// label family (`L` for undirected/weighted, `L_in` for directed).
pub const REPAIR_PRIMARY: u8 = 1;
/// [`RepairAgenda`] hub flag: the hub must re-sweep the secondary family
/// (`L_out`; unused by single-family variants).
pub const REPAIR_SECONDARY: u8 = 2;

/// The deduplicated repair agenda of one deletion batch.
///
/// The single-edge deletion path (Algorithm 4) runs one `DecUPDATE` sweep
/// per hub in `SR_a ∪ SR_b` *per edge*, so a hub affected by `k` deleted
/// edges of a batch is swept `k` times. This accumulator merges the
/// classification outcomes of a whole deletion set into
///
/// * one rank-keyed hub agenda (each affected hub appears once, carrying
///   the union of label families it must repair), and
/// * one shared receiver frontier (the union of every classified vertex
///   across all edges and both sides), whose label rows [`HubHolders`]
///   inverts into the removal candidates of every sweep.
///
/// [`UpdateEngine::dec_pass`] then runs **once per distinct hub** against
/// the residual graph (all net deletions applied), which is what makes the
/// classification invariant of the batch path "RenewC/RenewD relative to
/// the residual graph": a single sweep observes the whole deleted set as
/// absent. Marking the union (rather than each edge's opposite side) only
/// widens the repair/removal candidate set, which is safe for the same
/// reason the unconditional removal pass is (see module docs): reached
/// candidates are rewritten with sweep-true values and unreached
/// candidates hold no justifiable label for that hub.
#[derive(Debug, Default)]
pub struct RepairAgenda {
    /// `(hub rank, REPAIR_* bits)`, unsorted until [`take_hubs`](Self::take_hubs).
    hubs: Vec<(Rank, u8)>,
    /// Union of classified vertices in first-noted order.
    marked: Vec<VertexId>,
    /// Dedup bitmap for `marked`, indexed by vertex id.
    noted: Vec<bool>,
}

impl RepairAgenda {
    /// An empty agenda for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        RepairAgenda {
            hubs: Vec::new(),
            marked: Vec::new(),
            noted: vec![false; capacity],
        }
    }

    /// Grows the dedup bitmap when the id space expanded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.noted.len() < capacity {
            self.noted.resize(capacity, false);
        }
    }

    /// Records that `hub` needs a repair sweep over `families`
    /// ([`REPAIR_PRIMARY`] and/or [`REPAIR_SECONDARY`]).
    pub fn note_hub(&mut self, hub: Rank, families: u8) {
        self.hubs.push((hub, families));
    }

    /// Records `v` as a receiver (its labels may change); deduplicated.
    pub fn note_receiver(&mut self, v: VertexId) {
        if !self.noted[v.index()] {
            self.noted[v.index()] = true;
            self.marked.push(v);
        }
    }

    /// Merges one classified far group (the `SR` and `R` sets of one far
    /// endpoint, [`aggregate_far_columns`]) into the agenda: the `SR` hubs
    /// get `family` repair flags, and every classified vertex (`SR ∪ R`)
    /// joins the receiver union.
    pub fn note_side(
        &mut self,
        sr: &[VertexId],
        r: &[VertexId],
        family: u8,
        mut rank_of: impl FnMut(VertexId) -> Rank,
    ) {
        for &h in sr {
            self.note_hub(rank_of(h), family);
        }
        for &v in sr.iter().chain(r) {
            self.note_receiver(v);
        }
    }

    /// The receiver union so far.
    pub fn receivers(&self) -> &[VertexId] {
        &self.marked
    }

    /// Drains the hub agenda: descending rank order (ascending rank
    /// position), one entry per hub with its family bits OR-merged.
    pub fn take_hubs(&mut self) -> Vec<(Rank, u8)> {
        self.hubs.sort_unstable_by_key(|&(r, _)| r);
        let mut out: Vec<(Rank, u8)> = Vec::with_capacity(self.hubs.len());
        for &(r, f) in &self.hubs {
            match out.last_mut() {
                Some((lr, lf)) if *lr == r => *lf |= f,
                _ => out.push((r, f)),
            }
        }
        self.hubs.clear();
        out
    }

    /// Resets the receiver set for the next batch.
    pub fn clear(&mut self) {
        for v in self.marked.drain(..) {
            self.noted[v.index()] = false;
        }
        self.hubs.clear();
    }
}

/// One candidate row of a [`FarColumn`]: a vertex with a shortest path to
/// the column's far endpoint crossing the classified edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarCandidate {
    /// The classified vertex.
    pub v: VertexId,
    /// `spc(near, v)` — shortest-path count from the sweep origin, i.e.
    /// the number of shortest `v`–`far` paths whose last hop before `far`
    /// is this edge's `near` endpoint.
    pub through: Count,
    /// `SpcQUERY(v, far)` — total shortest-path count to the far endpoint
    /// on the pre-deletion index.
    pub qc: Count,
    /// Condition **A**: `v` is a common hub of `near` and `far`.
    pub common_hub: bool,
}

/// One far endpoint's classification column from
/// [`UpdateEngine::multi_far_pass`], in sweep settle order.
#[derive(Clone, Debug)]
pub struct FarColumn {
    /// The far endpoint this column classifies against.
    pub far: VertexId,
    /// Candidates in the order the sweep settled them.
    pub candidates: Vec<FarCandidate>,
}

/// One endpoint's classification task: a single
/// [`UpdateEngine::multi_far_pass`] sweep from `near` against every doomed
/// partner endpoint.
#[derive(Clone, Debug)]
pub struct MultiFarTask<D> {
    /// The shared endpoint the sweep is seeded at.
    pub near: VertexId,
    /// The doomed partner endpoints with their edge lengths, in
    /// deterministic (batch) order.
    pub fars: Vec<(VertexId, D)>,
}

/// Groups a stream of directed `(near, far, len)` doomed-edge sides into
/// one [`MultiFarTask`] per distinct `near` endpoint, sorted by endpoint
/// id (deterministic across thread counts). Undirected callers pass each
/// edge twice (once per direction); directed callers pass tails and heads
/// through separate invocations.
pub fn build_endpoint_tasks<D: LabelDist>(
    sides: impl Iterator<Item = (VertexId, VertexId, D)>,
) -> Vec<MultiFarTask<D>> {
    let mut by_near: std::collections::BTreeMap<u32, Vec<(VertexId, D)>> =
        std::collections::BTreeMap::new();
    for (near, far, len) in sides {
        by_near.entry(near.0).or_default().push((far, len));
    }
    by_near
        .into_iter()
        .map(|(near, fars)| MultiFarTask {
            near: VertexId(near),
            fars,
        })
        .collect()
}

/// Epoch-stamped scratch for summing [`FarColumn`]s that share a far
/// endpoint: per-vertex `through` totals, the (consistent) `qc`, and the
/// OR of condition-**A** flags, in first-contribution order.
#[derive(Debug)]
pub struct FarAggregator {
    stamp: Vec<u64>,
    epoch: u64,
    through: Vec<Count>,
    qc: Vec<Count>,
    common: Vec<bool>,
    order: Vec<VertexId>,
}

impl FarAggregator {
    /// An aggregator for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        FarAggregator {
            stamp: vec![0; capacity],
            epoch: 0,
            through: vec![0; capacity],
            qc: vec![0; capacity],
            common: vec![false; capacity],
            order: Vec::new(),
        }
    }

    /// Grows the scratch when the id space expanded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.stamp.len() < capacity {
            self.stamp.resize(capacity, 0);
            self.through.resize(capacity, 0);
            self.qc.resize(capacity, 0);
            self.common.resize(capacity, false);
        }
    }

    /// Classifies one far group, the columns of every doomed edge into
    /// one far endpoint, into `(SR, R)` in first-contribution order:
    /// condition **A**, or condition **B** with the *summed*
    /// through-count — every shortest path to the far endpoint crosses
    /// some doomed edge of the group.
    pub(crate) fn classify<'c>(
        &mut self,
        columns: impl IntoIterator<Item = &'c FarColumn>,
        sr: &mut Vec<VertexId>,
        r: &mut Vec<VertexId>,
    ) {
        self.epoch += 1;
        self.order.clear();
        for col in columns {
            self.add_column(col);
        }
        sr.clear();
        r.clear();
        for &v in &self.order {
            let i = v.index();
            if self.common[i] || self.through[i] == self.qc[i] {
                sr.push(v);
            } else {
                r.push(v);
            }
        }
    }

    /// Folds one column of the current far group in.
    fn add_column(&mut self, col: &FarColumn) {
        for c in &col.candidates {
            let i = c.v.index();
            if self.stamp[i] != self.epoch {
                self.stamp[i] = self.epoch;
                self.through[i] = c.through;
                self.qc[i] = c.qc;
                self.common[i] = c.common_hub;
                self.order.push(c.v);
            } else {
                self.through[i] = self.through[i].saturating_add(c.through);
                debug_assert_eq!(self.qc[i], c.qc, "inconsistent SpcQUERY across columns");
                self.common[i] |= c.common_hub;
            }
        }
    }
}

/// Merges every [`FarColumn`] of one classification role into the agenda:
/// columns are grouped by far endpoint (ascending id — deterministic
/// regardless of task execution order), each group's through-counts are
/// summed per vertex, and the resulting `(SR, R)` classification is noted
/// with `family` repair flags.
///
/// Summing is exact because columns of one far group count *disjoint*
/// path sets (each fixes a different doomed last hop into the same far),
/// so `Σ through ≤ qc` always, with equality exactly when every shortest
/// path is doomed. Any vertex the old per-edge test classified SR stays
/// SR here; vertices whose doom was split across edges are newly caught.
pub fn aggregate_far_columns(
    agg: &mut FarAggregator,
    columns: &[FarColumn],
    agenda: &mut RepairAgenda,
    family: u8,
    mut rank_of: impl FnMut(VertexId) -> Rank,
) {
    let mut groups: std::collections::BTreeMap<u32, Vec<&FarColumn>> =
        std::collections::BTreeMap::new();
    for col in columns {
        groups.entry(col.far.0).or_default().push(col);
    }
    let (mut sr, mut r) = (Vec::new(), Vec::new());
    for (_, cols) in groups {
        agg.classify(cols, &mut sr, &mut r);
        agenda.note_side(&sr, &r, family, &mut rank_of);
    }
}

/// The generic maintenance engine: scratch state + the three traversal
/// passes, parameterized over a [`LabelTopology`] view per call.
#[derive(Debug)]
pub struct UpdateEngine<D: LabelDist> {
    dist: Vec<D>,
    count: Vec<Count>,
    /// FIFO frontier (unit-length sweeps).
    fifo: Vec<u32>,
    /// Priority frontier (weighted sweeps).
    heap: BinaryHeap<Reverse<(D, u32)>>,
    settled: Vec<bool>,
    touched: Vec<u32>,
    /// Algorithm 6's `U[·]` visited-and-updated flags (reset per pass).
    updated: Vec<bool>,
}

impl<D: LabelDist> UpdateEngine<D> {
    /// Engine for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        UpdateEngine {
            dist: vec![D::INF; capacity],
            count: vec![0; capacity],
            fifo: Vec::new(),
            heap: BinaryHeap::new(),
            settled: vec![false; capacity],
            touched: Vec::new(),
            updated: vec![false; capacity],
        }
    }

    /// Grows scratch arrays when the id space expanded.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if self.dist.len() < capacity {
            self.dist.resize(capacity, D::INF);
            self.count.resize(capacity, 0);
            self.settled.resize(capacity, false);
            self.updated.resize(capacity, false);
        }
    }

    fn reset_sweep(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = D::INF;
            self.count[v as usize] = 0;
            self.settled[v as usize] = false;
        }
        self.touched.clear();
        self.fifo.clear();
        self.heap.clear();
    }

    #[inline]
    fn seed(&mut self, dijkstra: bool, v: VertexId, d: D, c: Count) {
        self.dist[v.index()] = d;
        self.count[v.index()] = c;
        self.touched.push(v.0);
        self.push_frontier(dijkstra, v.0, d);
    }

    #[inline]
    fn push_frontier(&mut self, dijkstra: bool, v: u32, d: D) {
        if dijkstra {
            self.heap.push(Reverse((d, v)));
        } else {
            self.fifo.push(v);
        }
    }

    /// Pops the next unsettled vertex in traversal order, marking it
    /// settled. `head` is the FIFO cursor (unused under Dijkstra).
    #[inline]
    fn pop_frontier(&mut self, dijkstra: bool, head: &mut usize) -> Option<u32> {
        if dijkstra {
            while let Some(Reverse((_, v))) = self.heap.pop() {
                if !self.settled[v as usize] {
                    self.settled[v as usize] = true;
                    return Some(v);
                }
            }
            None
        } else {
            // Unit lengths + FIFO order: each vertex is pushed exactly once
            // (relaxation only pushes on strict improvement from INF), so
            // the settled check never skips here.
            while *head < self.fifo.len() {
                let v = self.fifo[*head];
                *head += 1;
                if !self.settled[v as usize] {
                    self.settled[v as usize] = true;
                    return Some(v);
                }
            }
            None
        }
    }

    /// Algorithm 3 — one incremental repair sweep for hub `h`, seeded at
    /// `start` with `(seed_dist, seed_count)` (the hub's label at the near
    /// endpoint, extended across the new/cheaper edge).
    ///
    /// Renews or inserts `(h, ·, ·)` labels wherever the current index does
    /// not certify a strictly shorter path (the relaxed prune of Lemma 3.4
    /// that keeps count-only changes reachable), expanding under rank
    /// pruning (`rank(w) ≥ rank(h)` stays inside `G_h`).
    ///
    /// Seeded at `h` with `(0, 1)` over rows that hold no `(h, ·, ·)`
    /// entry, every emission is an insertion and the sweep is HP-SPC's
    /// hub push (§2.2, the counting form of pruned landmark labeling's
    /// pruned BFS; [`crate::build`] explains why its prune is strict too).
    pub fn inc_pass<T: LabelTopology<Dist = D>>(
        &mut self,
        topo: &mut T,
        h: VertexId,
        start: VertexId,
        seed_dist: D,
        seed_count: Count,
        stats: &mut MaintenanceCounters,
    ) {
        let h_rank = topo.rank(h.0);
        topo.load_probe(h);
        self.reset_sweep();
        self.seed(T::DIJKSTRA, start, seed_dist, seed_count);
        let mut head = 0usize;
        while let Some(v) = self.pop_frontier(T::DIJKSTRA, &mut head) {
            stats.vertices_visited += 1;
            let dv = self.dist[v as usize];
            // The index already covers a strictly shorter path: the new
            // paths through the mutated edge are not shortest here.
            let (shorter, read) = topo.probe_certifies_shorter(VertexId(v), dv, None);
            stats.prune_probes += read;
            if shorter {
                continue;
            }
            let cv = self.count[v as usize];
            let (label_count, tally) = match topo.label_get(VertexId(v), h_rank) {
                // Same length: additional shortest paths, counts add.
                Some((ed, ec)) if ed == dv => (cv.saturating_add(ec), &mut stats.renew_count),
                Some(_) => (cv, &mut stats.renew_dist),
                None => (cv, &mut stats.inserted),
            };
            *tally += 1;
            topo.label_upsert(VertexId(v), h_rank, dv, label_count);
            self.expand_ranked(topo, v, dv, cv, h_rank);
        }
    }

    /// Algorithm 5 (one side), generalized to several doomed edges: one
    /// full counting sweep from `near` on the pre-mutation graph,
    /// classifying against *every* doomed partner endpoint in `fars` at
    /// once, instead of one sweep per edge.
    ///
    /// `views[j]` answers `SpcQUERY(fars[j], ·)` (each view gets its own
    /// pinned probe); rank, adjacency, and the condition-**A** test are
    /// read through `views[0]` — all three are probe-independent. A popped vertex `v` is a *candidate* for far `j` when
    /// `D[v] + len_j = SpcQUERY(v, far_j) ≠ ∞` (some shortest `v`–`far_j`
    /// path crosses edge `j`), and the sweep expands `v` iff it is a
    /// candidate for at least one far. The candidate set of each far is
    /// closed under shortest-path predecessors toward `near` (if
    /// `D[u] + w(u,v) = D[v]` then `sd(u, far_j) = D[u] + len_j` by the
    /// triangle inequality both ways), so the union cone contains every
    /// far's complete shortest-path DAG and `C[v] = spc(near, v)` is exact
    /// for every candidate. With one far endpoint the sweep is the paper's
    /// `SrrSEARCH` exactly: it expands only the candidates.
    ///
    /// Rather than classifying into `(SR, R)` directly, the sweep returns
    /// one [`FarColumn`] per far so [`aggregate_far_columns`] can sum
    /// `through`-counts across *all* edges doomed into the same far —
    /// the per-edge condition-**B** comparison `spc(v, near) = spc(v, far)`
    /// undercounts when several doomed last hops share `far`, misreading
    /// SR as R (see `tests/mixed_frontier.rs`).
    pub fn multi_far_pass<T: ReadTopology<Dist = D>>(
        &mut self,
        views: &mut [T],
        near: VertexId,
        fars: &[(VertexId, D)],
        stats: &mut MaintenanceCounters,
    ) -> Vec<FarColumn> {
        debug_assert_eq!(views.len(), fars.len());
        stats.classify_sweeps += 1;
        if fars.len() > 1 {
            stats.multi_far_sweeps += 1;
        }
        for (view, &(far, _)) in views.iter_mut().zip(fars) {
            view.load_probe(far);
        }
        let mut columns: Vec<FarColumn> = fars
            .iter()
            .map(|&(far, _)| FarColumn {
                far,
                candidates: Vec::new(),
            })
            .collect();
        self.reset_sweep();
        self.seed(T::DIJKSTRA, near, D::ZERO, 1);
        let mut head = 0usize;
        while let Some(v) = self.pop_frontier(T::DIJKSTRA, &mut head) {
            stats.vertices_visited += 1;
            let dv = self.dist[v as usize];
            let cv = self.count[v as usize];
            let vr = views[0].rank(v);
            let mut expand = false;
            for (j, &(far, edge_len)) in fars.iter().enumerate() {
                let (qd, qc) = views[j].probe_query(VertexId(v));
                // Prune per far: no shortest path from v to far_j crosses
                // edge j.
                if qd == D::INF || dv.sat_add(edge_len) != qd {
                    continue;
                }
                expand = true;
                columns[j].candidates.push(FarCandidate {
                    v: VertexId(v),
                    through: cv,
                    qc,
                    common_hub: views[0].is_common_hub(vr, near, far),
                });
            }
            if expand {
                self.expand_all(&views[0], v, dv, cv);
            }
        }
        columns
    }

    /// Algorithm 6 — one decremental repair sweep for hub `h` on the
    /// post-mutation graph, run read-only: `log` receives the row-`h`
    /// upserts of the receivers carrying `opposite_mark` that the sweep
    /// reaches unpruned, then the removal of row `h` at every such receiver
    /// it never updated (unconditionally — see module docs), its counters,
    /// and every marked receiver it dequeues. `holders` lists the receivers
    /// whose repaired row held `h` before the repair ([`HubHolders::of`]);
    /// no other receiver can hold it, so the removal walks only them.
    ///
    /// Deferring the writes changes nothing for the sweep itself: they all
    /// land in row `h`, which its prune tests never read (they consult
    /// only hubs ranked above `h`), and it looks each receiver's row `h` up
    /// once. Applying the log therefore leaves the index exactly as the
    /// writing sweep of Algorithm 6 would.
    pub fn dec_pass<T: ReadTopology<Dist = D>>(
        &mut self,
        topo: &mut T,
        h: VertexId,
        marks: &Marks,
        opposite_mark: u8,
        holders: &[VertexId],
        log: &mut RepairLog<D>,
    ) {
        log.clear();
        let stats = &mut log.counters;
        let h_rank = topo.rank(h.0);
        topo.load_probe(h);
        self.reset_sweep();
        self.seed(T::DIJKSTRA, h, D::ZERO, 1);
        let mut head = 0usize;
        while let Some(v) = self.pop_frontier(T::DIJKSTRA, &mut head) {
            stats.vertices_visited += 1;
            let dv = self.dist[v as usize];
            // PreQUERY prune: hubs ranked strictly above h (repaired this
            // round or untouched-and-valid) certify a strictly shorter
            // path — h tops no shortest path here.
            let (pruned, read) = topo.probe_certifies_shorter(VertexId(v), dv, Some(h_rank));
            stats.prune_probes += read;
            let mark = marks.of(VertexId(v));
            if mark != 0 {
                log.visits.push(Visit {
                    v: VertexId(v),
                    dist: dv,
                    read: read as u32,
                    pruned,
                });
            }
            if pruned {
                continue;
            }
            let cv = self.count[v as usize];
            if mark & opposite_mark != 0 {
                let tally = match topo.label_get(VertexId(v), h_rank) {
                    None => Some(&mut stats.inserted),
                    Some((ed, _)) if ed != dv => Some(&mut stats.renew_dist),
                    Some((_, ec)) if ec != cv => Some(&mut stats.renew_count),
                    Some(_) => None,
                };
                if let Some(tally) = tally {
                    *tally += 1;
                    log.upserts.push((VertexId(v), dv, cv));
                }
                self.updated[v as usize] = true;
            }
            self.expand_ranked(topo, v, dv, cv, h_rank);
        }
        stats.removal_probes += holders.len();
        for &u in holders {
            if marks.of(u) & opposite_mark != 0
                && !self.updated[u.index()]
                && topo.label_get(u, h_rank).is_some()
            {
                log.removals.push(u);
                stats.removed += 1;
            }
        }
        #[cfg(debug_assertions)]
        self.assert_row_removed(topo, h_rank, marks, opposite_mark, &log.removals);
        for visit in &log.visits {
            self.updated[visit.v.index()] = false;
        }
    }

    /// Debug check of the removal pass: every opposite-marked receiver the
    /// sweep left un-updated and still holding row `h` is among the
    /// removals — the holder lists missed no receiver.
    #[cfg(debug_assertions)]
    fn assert_row_removed<T: ReadTopology<Dist = D>>(
        &self,
        topo: &T,
        h_rank: Rank,
        marks: &Marks,
        opposite_mark: u8,
        removals: &[VertexId],
    ) {
        for &u in marks.marked() {
            if marks.of(u) & opposite_mark != 0 && !self.updated[u.index()] {
                debug_assert!(
                    topo.label_get(u, h_rank).is_none() || removals.contains(&u),
                    "receiver {u:?} keeps row {h_rank:?} through its removal pass"
                );
            }
        }
    }

    /// Relaxes every neighbor inside `G_h` (rank pruning).
    #[inline]
    fn expand_ranked<T: ReadTopology<Dist = D>>(
        &mut self,
        topo: &T,
        v: u32,
        dv: D,
        cv: Count,
        h_rank: Rank,
    ) {
        topo.for_each_neighbor(v, |w, len| {
            if topo.rank(w) < h_rank {
                return; // strictly higher-ranked: outside G_h
            }
            self.relax(T::DIJKSTRA, w, dv.sat_add(len), cv);
        });
    }

    /// Relaxes every neighbor (no rank pruning — SrrSEARCH sweeps the full
    /// graph).
    #[inline]
    fn expand_all<T: ReadTopology<Dist = D>>(&mut self, topo: &T, v: u32, dv: D, cv: Count) {
        topo.for_each_neighbor(v, |w, len| {
            self.relax(T::DIJKSTRA, w, dv.sat_add(len), cv);
        });
    }

    #[inline]
    fn relax(&mut self, dijkstra: bool, w: u32, nd: D, cv: Count) {
        let dw = self.dist[w as usize];
        if nd < dw {
            if dw == D::INF {
                self.touched.push(w);
            }
            self.dist[w as usize] = nd;
            self.count[w as usize] = cv;
            self.push_frontier(dijkstra, w, nd);
        } else if nd == dw && dw != D::INF {
            self.count[w as usize] = self.count[w as usize].saturating_add(cv);
        }
    }
}
