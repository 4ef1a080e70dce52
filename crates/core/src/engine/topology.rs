//! Label-family views: how each index variant exposes its graph, label
//! family, and pinned-hub probe to the generic engine, and the [`Variant`]
//! glue the shared drivers ([`super::PushPipeline`],
//! [`super::DecPipeline`]) and the facade ([`crate::dynamic::Dynamic`])
//! build them through.
//!
//! A view borrows the graph immutably and the index through `I`. Over a
//! shared borrow (`&Index`) it implements [`ReadTopology`] only — what the
//! classification and `DecUPDATE` sweeps read, shareable across threads.
//! Over a mutable borrow (`&mut Index`) it adds the two label writes of
//! [`LabelTopology`], which the hub-push sweeps and the commit of a
//! `DecUPDATE` log need. One implementation of the read methods serves
//! both, so every sweep reads the index the same way.
//!
//! The directed view is parameterized by the label family being repaired:
//! repairing `L_in` walks out-arcs and pins `L_out` hubs, repairing `L_out`
//! walks in-arcs and pins `L_in` — which makes the same view type serve the
//! forward and backward halves of every directed update.

use super::{
    LabelTopology, MaintenanceCounters, ReadTopology, UpdateOp, REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::directed::{ArcUpdate, DirectedSpcIndex, Side};
use crate::dynamic::GraphUpdate;
use crate::flat::{DirectedFlatIndex, WeightedFlatIndex};
use crate::index::SpcIndex;
use crate::label::{Count, HubEntry, LabelDist, LabelEntry, Rank};
use crate::order::RankMap;
use crate::query::{query_rows, HubProbe, QueryResult};
use crate::shard::ShardedFlatIndex;
use crate::weighted::{WLabelEntry, WLabelSet, WQueryResult, WeightedSpcIndex, WeightedUpdate};
use dspc_graph::weighted::{WDist, Weight, WeightedGraph};
use dspc_graph::{DirectedGraph, GraphError, UndirectedGraph, VertexId};
use std::ops::{Deref, DerefMut};

/// What the shared drivers and the facade need of one index variant. Label
/// families are named by the [`super::RepairAgenda`] flags:
/// [`REPAIR_PRIMARY`] is `L` (or `L_in` for arcs) and [`REPAIR_SECONDARY`]
/// is `L_out`; single-family variants ignore the flag.
pub trait Variant: Sized + 'static {
    /// The graph.
    type Graph: Clone + Sync;
    /// The index.
    type Index: Sync;
    /// The distance domain.
    type Dist: LabelDist;
    /// A label-row entry.
    type Entry: HubEntry<Dist = Self::Dist>;
    /// A view over a shared index borrow (classification and `DecUPDATE`
    /// sweeps).
    type Read<'a>: ReadTopology<Dist = Self::Dist>
    where
        Self: 'a;
    /// A view over a mutable index borrow (hub pushes and `DecUPDATE`
    /// commits).
    type Write<'a>: LabelTopology<Dist = Self::Dist>
    where
        Self: 'a;
    /// What an edge carries: `()` for unit lengths, the weight otherwise.
    type Payload: Copy + Ord + std::fmt::Debug;
    /// The facade's update vocabulary.
    type Update: Copy;
    /// The immutable snapshot [`publish`](Self::publish) hands readers.
    type Snapshot;
    /// What a query answers: a distance (or `INF`) and a count.
    type Answer: From<(Self::Dist, Count)>;

    /// Arcs with `L_in` / `L_out` rather than edges with one `L`.
    const DIRECTED: bool;

    /// The graph's id-space size.
    fn capacity(g: &Self::Graph) -> usize;

    /// Whether `v` is a live vertex of `g`.
    fn contains(g: &Self::Graph, v: VertexId) -> bool;

    /// The degree [`crate::order::OrderingStrategy::Degree`] ranks `v` by
    /// (in + out for arcs).
    fn degree(g: &Self::Graph, v: VertexId) -> usize;

    /// Length of edge `(a, b)`, or `None` when it is absent.
    fn edge_len(g: &Self::Graph, a: VertexId, b: VertexId) -> Option<Self::Dist>;

    /// The key under which two deletions name the same edge.
    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32);

    /// Removes edge `(a, b)` from the graph.
    fn delete(g: &mut Self::Graph, a: VertexId, b: VertexId) -> dspc_graph::Result<()>;

    /// The index's vertex order.
    fn ranks(index: &Self::Index) -> &RankMap;

    /// Swaps the vertices at ranks `r` and `r + 1` without touching any
    /// label row.
    fn swap_adjacent_ranks(index: &mut Self::Index, r: Rank);

    /// An index over `ranks` whose every row is empty: where construction
    /// starts.
    fn empty_index(ranks: RankMap) -> Self::Index;

    /// The read view of `family`.
    fn read<'a>(
        g: &'a Self::Graph,
        index: &'a Self::Index,
        probe: &'a mut HubProbe<Self::Entry>,
        family: u8,
    ) -> Self::Read<'a>;

    /// The writing view of `family`.
    fn write<'a>(
        g: &'a Self::Graph,
        index: &'a mut Self::Index,
        probe: &'a mut HubProbe<Self::Entry>,
        family: u8,
    ) -> Self::Write<'a>;

    /// `v`'s rank-sorted label row of `family`.
    fn row(index: &Self::Index, v: VertexId, family: u8) -> &[Self::Entry];

    /// `SpcQUERY(s, t)` on the live labels: `L(s)` merged with `L(t)`, or
    /// `L_out(s)` with `L_in(t)` for arcs.
    fn query(index: &Self::Index, s: VertexId, t: VertexId) -> (Self::Dist, Count) {
        query_rows(
            Self::row(index, s, pinned_family::<Self>(REPAIR_PRIMARY)),
            Self::row(index, t, REPAIR_PRIMARY),
        )
    }

    /// An update in the variant-independent form the facade folds.
    fn op(update: Self::Update) -> UpdateOp<Self::Payload>;

    /// The payload of edge `(a, b)`, or `None` when it is absent.
    fn payload(g: &Self::Graph, a: VertexId, b: VertexId) -> Option<Self::Payload>;

    /// Rejects a payload no edge may carry, before anything mutates.
    fn check_payload(_w: Self::Payload) -> dspc_graph::Result<()> {
        Ok(())
    }

    /// Inserts edge `(a, b)` carrying `w` into the graph.
    fn insert(
        g: &mut Self::Graph,
        a: VertexId,
        b: VertexId,
        w: Self::Payload,
    ) -> dspc_graph::Result<()>;

    /// Sets the payload of the present edge `(a, b)` to `w`. A unit
    /// payload never changes, so by default this does nothing.
    fn set_payload(
        _g: &mut Self::Graph,
        _a: VertexId,
        _b: VertexId,
        _w: Self::Payload,
    ) -> dspc_graph::Result<()> {
        Ok(())
    }

    /// Adds an isolated vertex to the graph.
    fn add_vertex(g: &mut Self::Graph) -> VertexId;

    /// Retires vertex `v` and every edge at it.
    fn remove_vertex(g: &mut Self::Graph, v: VertexId) -> dspc_graph::Result<()>;

    /// The edges at `v`: `(v, u)` per neighbor, out-arcs then in-arcs for
    /// arcs.
    fn incident(g: &Self::Graph, v: VertexId) -> Vec<(VertexId, VertexId)>;

    /// Registers a freshly added isolated vertex at the lowest rank, with
    /// only its self labels.
    fn append_vertex(index: &mut Self::Index, v: VertexId);

    /// Publishes the index for readers: every row written since the last
    /// publish becomes shared, the rest are handed out again, attributing
    /// counters over `shards` where the snapshot supports it.
    fn publish(index: &mut Self::Index, shards: usize) -> Self::Snapshot;

    /// The §3.2.3 isolated-vertex fast path: when deleting the present
    /// edge `(a, b)` strands an endpoint no label uses as a hub, deletes
    /// the edge, empties that endpoint's row down to its self label, and
    /// returns the counters. Undirected only; elsewhere it never applies.
    fn pendant_fast_path(
        _g: &mut Self::Graph,
        _index: &mut Self::Index,
        _a: VertexId,
        _b: VertexId,
    ) -> dspc_graph::Result<Option<MaintenanceCounters>> {
        Ok(None)
    }
}

/// The label families a variant's hubs write: `L`, or `L_in` then `L_out`.
pub(super) fn families<V: Variant>() -> &'static [u8] {
    if V::DIRECTED {
        &[REPAIR_PRIMARY, REPAIR_SECONDARY]
    } else {
        &[REPAIR_PRIMARY]
    }
}

/// The label families of the hubs on an edge's `a` and `b` sides: for an
/// arc `a → b`, hubs upstream of the tail repair `L_in` and hubs downstream
/// of the head repair `L_out`; otherwise both repair `L`.
pub(super) fn side_families<V: Variant>() -> [u8; 2] {
    if V::DIRECTED {
        [REPAIR_PRIMARY, REPAIR_SECONDARY]
    } else {
        [REPAIR_PRIMARY; 2]
    }
}

/// The label family a view of `family` pins its hub's row from: the
/// opposite family for arcs (a view repairing `L_in` pins `L_out`), the
/// one family otherwise.
pub(super) fn pinned_family<V: Variant>(family: u8) -> u8 {
    if V::DIRECTED && family == REPAIR_PRIMARY {
        REPAIR_SECONDARY
    } else {
        REPAIR_PRIMARY
    }
}

/// The paper's primary setting: undirected unit-length edges, one label
/// set per vertex, hub-entry counts maintained through the index.
pub struct UndirectedTopo<'a, I> {
    g: &'a UndirectedGraph,
    index: I,
    probe: &'a mut HubProbe,
}

impl<'a, I: Deref<Target = SpcIndex>> UndirectedTopo<'a, I> {
    /// Borrows graph, index, and probe for one sweep.
    pub fn new(g: &'a UndirectedGraph, index: I, probe: &'a mut HubProbe) -> Self {
        UndirectedTopo { g, index, probe }
    }
}

impl<I: Deref<Target = SpcIndex>> ReadTopology for UndirectedTopo<'_, I> {
    type Dist = u32;

    const DIJKSTRA: bool = false;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        self.probe.load(&self.index, x);
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (u32, Count) {
        self.probe.query(self.index.label_set(v))
    }

    #[inline]
    fn probe_certifies_shorter(
        &self,
        v: VertexId,
        bound: u32,
        limit: Option<Rank>,
    ) -> (bool, usize) {
        self.probe
            .certifies_shorter(self.index.label_set(v).entries(), bound, limit)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, u32)>(&self, v: u32, mut f: F) {
        for &w in self.g.neighbors(VertexId(v)) {
            f(w, 1);
        }
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(u32, Count)> {
        self.index.label_set(v).get(hub).map(|e| (e.dist, e.count))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        hub <= self.index.rank(near)
            && hub <= self.index.rank(far)
            && self.index.label_set(near).contains(hub)
            && self.index.label_set(far).contains(hub)
    }
}

impl<I: DerefMut<Target = SpcIndex>> LabelTopology for UndirectedTopo<'_, I> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: u32, c: Count) {
        self.index.upsert_entry(v, LabelEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.remove_entry(v, hub).is_some()
    }
}

/// Appendix C.1: directed graphs with an `L_in`/`L_out` pair per vertex.
/// `repair` selects the family the engine reads and writes.
pub struct DirectedTopo<'a, I> {
    g: &'a DirectedGraph,
    index: I,
    probe: &'a mut HubProbe,
    repair: Side,
}

impl<'a, I: Deref<Target = DirectedSpcIndex>> DirectedTopo<'a, I> {
    /// Borrows graph, index, and probe; `repair` is the family to fix up.
    pub fn new(g: &'a DirectedGraph, index: I, probe: &'a mut HubProbe, repair: Side) -> Self {
        DirectedTopo {
            g,
            index,
            probe,
            repair,
        }
    }

    #[inline]
    fn pin_side(&self) -> Side {
        self.repair.opposite()
    }
}

impl<I: Deref<Target = DirectedSpcIndex>> ReadTopology for DirectedTopo<'_, I> {
    type Dist = u32;

    const DIJKSTRA: bool = false;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        self.probe.load_labels(
            self.index.label(self.pin_side(), x).entries(),
            self.index.ranks().len(),
        );
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (u32, Count) {
        self.probe.query(self.index.label(self.repair, v))
    }

    #[inline]
    fn probe_certifies_shorter(
        &self,
        v: VertexId,
        bound: u32,
        limit: Option<Rank>,
    ) -> (bool, usize) {
        self.probe
            .certifies_shorter(self.index.label(self.repair, v).entries(), bound, limit)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, u32)>(&self, v: u32, mut f: F) {
        let neighbors = match self.repair {
            // Repairing L_in means sweeping *away* from the hub along arcs.
            Side::In => self.g.out_neighbors(VertexId(v)),
            Side::Out => self.g.in_neighbors(VertexId(v)),
        };
        for &w in neighbors {
            f(w, 1);
        }
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(u32, Count)> {
        self.index
            .label(self.repair, v)
            .get(hub)
            .map(|e| (e.dist, e.count))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        let side = self.pin_side();
        self.index.label(side, near).contains(hub) && self.index.label(side, far).contains(hub)
    }
}

impl<I: DerefMut<Target = DirectedSpcIndex>> LabelTopology for DirectedTopo<'_, I> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: u32, c: Count) {
        self.index
            .label_mut(self.repair, v)
            .upsert(LabelEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.label_mut(self.repair, v).remove(hub).is_some()
    }
}

/// Appendix C.2: weighted edges, `u64` accumulated distances, Dijkstra
/// traversal order.
pub struct WeightedTopo<'a, I> {
    g: &'a WeightedGraph,
    index: I,
    probe: &'a mut HubProbe<WLabelEntry>,
}

impl<'a, I: Deref<Target = WeightedSpcIndex>> WeightedTopo<'a, I> {
    /// Borrows graph, index, and probe for one sweep.
    pub fn new(g: &'a WeightedGraph, index: I, probe: &'a mut HubProbe<WLabelEntry>) -> Self {
        WeightedTopo { g, index, probe }
    }
}

impl<I: Deref<Target = WeightedSpcIndex>> ReadTopology for WeightedTopo<'_, I> {
    type Dist = WDist;

    const DIJKSTRA: bool = true;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        self.probe
            .load_labels(self.index.label_set(x).entries(), self.index.ranks().len());
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (WDist, Count) {
        self.probe.query(self.index.label_set(v))
    }

    #[inline]
    fn probe_certifies_shorter(
        &self,
        v: VertexId,
        bound: WDist,
        limit: Option<Rank>,
    ) -> (bool, usize) {
        self.probe
            .certifies_shorter(self.index.label_set(v).entries(), bound, limit)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, WDist)>(&self, v: u32, mut f: F) {
        for &(w, wt) in self.g.neighbors(VertexId(v)) {
            f(w, wt as WDist);
        }
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(WDist, Count)> {
        self.index.label_set(v).get(hub).map(|e| (e.dist, e.count))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        hub <= self.index.rank(near)
            && hub <= self.index.rank(far)
            && self.index.label_set(near).contains(hub)
            && self.index.label_set(far).contains(hub)
    }
}

impl<I: DerefMut<Target = WeightedSpcIndex>> LabelTopology for WeightedTopo<'_, I> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: WDist, c: Count) {
        self.index
            .label_set_mut(v)
            .upsert(WLabelEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.label_set_mut(v).remove(hub).is_some()
    }
}

/// The undirected variant ([`crate::DynamicSpc`]): unit-length edges and
/// one label family.
#[derive(Debug)]
pub enum Undirected {}

impl Variant for Undirected {
    type Graph = UndirectedGraph;
    type Index = SpcIndex;
    type Dist = u32;
    type Entry = LabelEntry;
    type Read<'a> = UndirectedTopo<'a, &'a SpcIndex>;
    type Write<'a> = UndirectedTopo<'a, &'a mut SpcIndex>;
    type Payload = ();
    type Update = GraphUpdate;
    type Snapshot = ShardedFlatIndex;
    type Answer = QueryResult;

    const DIRECTED: bool = false;

    fn capacity(g: &UndirectedGraph) -> usize {
        g.capacity()
    }

    fn contains(g: &UndirectedGraph, v: VertexId) -> bool {
        g.contains_vertex(v)
    }

    fn degree(g: &UndirectedGraph, v: VertexId) -> usize {
        g.degree(v)
    }

    fn edge_len(g: &UndirectedGraph, a: VertexId, b: VertexId) -> Option<u32> {
        g.has_edge(a, b).then_some(1)
    }

    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32) {
        super::ordered_key(a, b)
    }

    fn delete(g: &mut UndirectedGraph, a: VertexId, b: VertexId) -> dspc_graph::Result<()> {
        g.delete_edge(a, b)
    }

    fn ranks(index: &SpcIndex) -> &RankMap {
        index.ranks()
    }

    fn swap_adjacent_ranks(index: &mut SpcIndex, r: Rank) {
        index.swap_adjacent_ranks(r);
    }

    fn empty_index(ranks: RankMap) -> SpcIndex {
        SpcIndex::with_empty_rows(ranks)
    }

    fn read<'a>(
        g: &'a UndirectedGraph,
        index: &'a SpcIndex,
        probe: &'a mut HubProbe,
        _family: u8,
    ) -> Self::Read<'a> {
        UndirectedTopo::new(g, index, probe)
    }

    fn write<'a>(
        g: &'a UndirectedGraph,
        index: &'a mut SpcIndex,
        probe: &'a mut HubProbe,
        _family: u8,
    ) -> Self::Write<'a> {
        UndirectedTopo::new(g, index, probe)
    }

    fn row(index: &SpcIndex, v: VertexId, _family: u8) -> &[LabelEntry] {
        index.label_set(v).entries()
    }

    fn op(update: GraphUpdate) -> UpdateOp<()> {
        match update {
            GraphUpdate::InsertEdge(a, b) => UpdateOp::Insert(a, b, ()),
            GraphUpdate::DeleteEdge(a, b) => UpdateOp::Delete(a, b),
            GraphUpdate::InsertVertex => UpdateOp::InsertVertex,
            GraphUpdate::DeleteVertex(v) => UpdateOp::DeleteVertex(v),
        }
    }

    fn payload(g: &UndirectedGraph, a: VertexId, b: VertexId) -> Option<()> {
        g.has_edge(a, b).then_some(())
    }

    fn insert(g: &mut UndirectedGraph, a: VertexId, b: VertexId, _: ()) -> dspc_graph::Result<()> {
        g.insert_edge(a, b)
    }

    fn add_vertex(g: &mut UndirectedGraph) -> VertexId {
        g.add_vertex()
    }

    fn remove_vertex(g: &mut UndirectedGraph, v: VertexId) -> dspc_graph::Result<()> {
        g.delete_vertex(v).map(drop)
    }

    fn incident(g: &UndirectedGraph, v: VertexId) -> Vec<(VertexId, VertexId)> {
        g.neighbors(v).iter().map(|&u| (v, VertexId(u))).collect()
    }

    fn append_vertex(index: &mut SpcIndex, v: VertexId) {
        index.add_isolated_vertex(v);
    }

    fn publish(index: &mut SpcIndex, shards: usize) -> ShardedFlatIndex {
        ShardedFlatIndex::publish(index, shards)
    }

    /// The stranding test reads the index's hub-entry counts instead of
    /// the paper's rank precondition: `rank(y) < rank(x)` guarantees that a
    /// *freshly built* index has no `(x, ·, ·)` labels, but labels kept
    /// stale by earlier updates can violate that, and the count check also
    /// fires for a higher-ranked pendant whose hub entries are gone — it is
    /// both sound and broader. `x`'s own self label is the one permitted
    /// entry.
    fn pendant_fast_path(
        g: &mut UndirectedGraph,
        index: &mut SpcIndex,
        a: VertexId,
        b: VertexId,
    ) -> dspc_graph::Result<Option<MaintenanceCounters>> {
        let Some(x) = [b, a]
            .into_iter()
            .find(|&x| g.degree(x) == 1 && index.hub_entry_count(index.rank(x)) == 1)
        else {
            return Ok(None);
        };
        g.delete_edge(a, b)?;
        Ok(Some(MaintenanceCounters {
            removed: index.reset_vertex_to_self(x),
            isolated_fast_path: true,
            ..MaintenanceCounters::default()
        }))
    }
}

/// The label family a directed repair flag stands for: `L_in` for
/// [`REPAIR_PRIMARY`], `L_out` otherwise.
fn side(family: u8) -> Side {
    if family == REPAIR_PRIMARY {
        Side::In
    } else {
        Side::Out
    }
}

/// The directed variant ([`crate::directed::DynamicDirectedSpc`]): arcs,
/// with `L_in` as the primary family and `L_out` as the secondary one.
#[derive(Debug)]
pub enum Directed {}

impl Variant for Directed {
    type Graph = DirectedGraph;
    type Index = DirectedSpcIndex;
    type Dist = u32;
    type Entry = LabelEntry;
    type Read<'a> = DirectedTopo<'a, &'a DirectedSpcIndex>;
    type Write<'a> = DirectedTopo<'a, &'a mut DirectedSpcIndex>;
    type Payload = ();
    type Update = ArcUpdate;
    type Snapshot = DirectedFlatIndex;
    type Answer = QueryResult;

    const DIRECTED: bool = true;

    fn capacity(g: &DirectedGraph) -> usize {
        g.capacity()
    }

    fn contains(g: &DirectedGraph, v: VertexId) -> bool {
        g.contains_vertex(v)
    }

    fn degree(g: &DirectedGraph, v: VertexId) -> usize {
        g.out_degree(v) + g.in_degree(v)
    }

    fn edge_len(g: &DirectedGraph, a: VertexId, b: VertexId) -> Option<u32> {
        g.has_arc(a, b).then_some(1)
    }

    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32) {
        (a.0, b.0)
    }

    fn delete(g: &mut DirectedGraph, a: VertexId, b: VertexId) -> dspc_graph::Result<()> {
        g.delete_arc(a, b)
    }

    fn ranks(index: &DirectedSpcIndex) -> &RankMap {
        index.ranks()
    }

    fn swap_adjacent_ranks(index: &mut DirectedSpcIndex, r: Rank) {
        index.swap_adjacent_ranks(r);
    }

    fn empty_index(ranks: RankMap) -> DirectedSpcIndex {
        DirectedSpcIndex::with_empty_rows(ranks)
    }

    fn read<'a>(
        g: &'a DirectedGraph,
        index: &'a DirectedSpcIndex,
        probe: &'a mut HubProbe,
        family: u8,
    ) -> Self::Read<'a> {
        DirectedTopo::new(g, index, probe, side(family))
    }

    fn write<'a>(
        g: &'a DirectedGraph,
        index: &'a mut DirectedSpcIndex,
        probe: &'a mut HubProbe,
        family: u8,
    ) -> Self::Write<'a> {
        DirectedTopo::new(g, index, probe, side(family))
    }

    fn row(index: &DirectedSpcIndex, v: VertexId, family: u8) -> &[LabelEntry] {
        index.label(side(family), v).entries()
    }

    fn op(update: ArcUpdate) -> UpdateOp<()> {
        match update {
            ArcUpdate::InsertArc(a, b) => UpdateOp::Insert(a, b, ()),
            ArcUpdate::DeleteArc(a, b) => UpdateOp::Delete(a, b),
        }
    }

    fn payload(g: &DirectedGraph, a: VertexId, b: VertexId) -> Option<()> {
        g.has_arc(a, b).then_some(())
    }

    fn insert(g: &mut DirectedGraph, a: VertexId, b: VertexId, _: ()) -> dspc_graph::Result<()> {
        g.insert_arc(a, b)
    }

    fn add_vertex(g: &mut DirectedGraph) -> VertexId {
        g.add_vertex()
    }

    fn remove_vertex(g: &mut DirectedGraph, v: VertexId) -> dspc_graph::Result<()> {
        g.delete_vertex(v).map(drop)
    }

    fn incident(g: &DirectedGraph, v: VertexId) -> Vec<(VertexId, VertexId)> {
        let outs = g.out_neighbors(v).iter().map(|&w| (v, VertexId(w)));
        outs.chain(g.in_neighbors(v).iter().map(|&w| (VertexId(w), v)))
            .collect()
    }

    fn append_vertex(index: &mut DirectedSpcIndex, v: VertexId) {
        index.append_vertex(v);
    }

    fn publish(index: &mut DirectedSpcIndex, _shards: usize) -> DirectedFlatIndex {
        DirectedFlatIndex::publish(index)
    }
}

/// The weighted variant ([`crate::weighted::DynamicWeightedSpc`]):
/// positive integer weights, `u64` distances, one label family.
#[derive(Debug)]
pub enum Weighted {}

impl Variant for Weighted {
    type Graph = WeightedGraph;
    type Index = WeightedSpcIndex;
    type Dist = WDist;
    type Entry = WLabelEntry;
    type Read<'a> = WeightedTopo<'a, &'a WeightedSpcIndex>;
    type Write<'a> = WeightedTopo<'a, &'a mut WeightedSpcIndex>;
    type Payload = Weight;
    type Update = WeightedUpdate;
    type Snapshot = WeightedFlatIndex;
    type Answer = WQueryResult;

    const DIRECTED: bool = false;

    fn capacity(g: &WeightedGraph) -> usize {
        g.capacity()
    }

    fn contains(g: &WeightedGraph, v: VertexId) -> bool {
        g.contains_vertex(v)
    }

    fn degree(g: &WeightedGraph, v: VertexId) -> usize {
        g.degree(v)
    }

    fn edge_len(g: &WeightedGraph, a: VertexId, b: VertexId) -> Option<WDist> {
        g.weight(a, b).map(WDist::from)
    }

    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32) {
        super::ordered_key(a, b)
    }

    fn delete(g: &mut WeightedGraph, a: VertexId, b: VertexId) -> dspc_graph::Result<()> {
        g.delete_edge(a, b).map(drop)
    }

    fn ranks(index: &WeightedSpcIndex) -> &RankMap {
        index.ranks()
    }

    fn swap_adjacent_ranks(index: &mut WeightedSpcIndex, r: Rank) {
        index.swap_adjacent_ranks(r);
    }

    fn empty_index(ranks: RankMap) -> WeightedSpcIndex {
        let n = ranks.len();
        WeightedSpcIndex::new(vec![WLabelSet::default(); n], ranks)
    }

    fn read<'a>(
        g: &'a WeightedGraph,
        index: &'a WeightedSpcIndex,
        probe: &'a mut HubProbe<WLabelEntry>,
        _family: u8,
    ) -> Self::Read<'a> {
        WeightedTopo::new(g, index, probe)
    }

    fn write<'a>(
        g: &'a WeightedGraph,
        index: &'a mut WeightedSpcIndex,
        probe: &'a mut HubProbe<WLabelEntry>,
        _family: u8,
    ) -> Self::Write<'a> {
        WeightedTopo::new(g, index, probe)
    }

    fn row(index: &WeightedSpcIndex, v: VertexId, _family: u8) -> &[WLabelEntry] {
        index.label_set(v).entries()
    }

    fn op(update: WeightedUpdate) -> UpdateOp<Weight> {
        match update {
            WeightedUpdate::InsertEdge(a, b, w) => UpdateOp::Insert(a, b, w),
            WeightedUpdate::DeleteEdge(a, b) => UpdateOp::Delete(a, b),
            WeightedUpdate::SetWeight(a, b, w) => UpdateOp::Rewrite(a, b, w),
        }
    }

    fn payload(g: &WeightedGraph, a: VertexId, b: VertexId) -> Option<Weight> {
        g.weight(a, b)
    }

    fn check_payload(w: Weight) -> dspc_graph::Result<()> {
        match w {
            0 => Err(GraphError::InvalidWeight(0.0)),
            _ => Ok(()),
        }
    }

    fn insert(
        g: &mut WeightedGraph,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> dspc_graph::Result<()> {
        g.insert_edge(a, b, w)
    }

    fn set_payload(
        g: &mut WeightedGraph,
        a: VertexId,
        b: VertexId,
        w: Weight,
    ) -> dspc_graph::Result<()> {
        g.set_weight(a, b, w).map(drop)
    }

    fn add_vertex(g: &mut WeightedGraph) -> VertexId {
        g.add_vertex()
    }

    fn remove_vertex(g: &mut WeightedGraph, v: VertexId) -> dspc_graph::Result<()> {
        g.delete_vertex(v).map(drop)
    }

    fn incident(g: &WeightedGraph, v: VertexId) -> Vec<(VertexId, VertexId)> {
        g.neighbors(v)
            .iter()
            .map(|&(u, _)| (v, VertexId(u)))
            .collect()
    }

    fn append_vertex(index: &mut WeightedSpcIndex, v: VertexId) {
        index.append_vertex(v);
    }

    fn publish(index: &mut WeightedSpcIndex, _shards: usize) -> WeightedFlatIndex {
        WeightedFlatIndex::publish(index)
    }
}
