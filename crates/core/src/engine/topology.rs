//! The one sweep view, and the [`Variant`] glue the shared pipeline
//! ([`super::Pipeline`]), the label store ([`crate::index::LabelIndex`]),
//! the published snapshot ([`crate::flat::Snapshot`]) and the facade
//! ([`crate::dynamic::Dynamic`]) are written over.
//!
//! A [`Topo`] borrows the graph immutably and the index through `I`, and
//! reads and writes one label family. Over a shared borrow
//! (`&LabelIndex<V>`) it implements [`ReadTopology`] only — what the
//! classification and `DecUPDATE` sweeps read, shareable across threads.
//! Over a mutable borrow (`&mut LabelIndex<V>`) it adds the two label writes
//! of [`LabelTopology`], which the hub-push sweeps and the commit of a
//! `DecUPDATE` log need. One implementation of the read methods serves
//! both, so every sweep reads the index the same way.
//!
//! The view of a family walks the adjacency [`Variant::for_each_neighbor`]
//! gives for it and pins its hubs' rows from [`pinned_family`]: repairing
//! `L_in` walks out-arcs and pins `L_out` rows, repairing `L_out` walks
//! in-arcs and pins `L_in` — which makes the same view serve the forward
//! and backward halves of every directed update. A single-family variant
//! walks its edges and pins `L` either way.

use super::{
    LabelTopology, MaintenanceCounters, ReadTopology, UpdateOp, REPAIR_PRIMARY, REPAIR_SECONDARY,
};
use crate::directed::ArcUpdate;
use crate::dynamic::GraphUpdate;
use crate::index::LabelIndex;
use crate::label::{Count, HubEntry, LabelDist, LabelEntry, Rank};
use crate::query::{query_rows, HubProbe, QueryResult};
use crate::weighted::{WLabelEntry, WQueryResult, WeightedUpdate};
use dspc_graph::weighted::{WDist, Weight, WeightedGraph};
use dspc_graph::{DirectedGraph, Graph, GraphError, GraphKind, UndirectedGraph, VertexId};
use std::fmt::Debug;
use std::ops::{Deref, DerefMut};

/// The three variants are the graph kinds: a variant's graph is
/// [`Graph<V>`], and its [`GraphKind::DIRECTED`] says whether its edges are
/// arcs with `L_in` / `L_out` rather than edges with one `L`.
pub use dspc_graph::{Directed, Undirected, Weighted};

/// What the shared drivers, the label store and the facade need of one
/// graph kind beyond its [`Graph<V>`]: its distance domain and label
/// entries, how a sweep walks it, and the facade's update vocabulary. Label
/// families are named by the [`super::RepairAgenda`] flags:
/// [`REPAIR_PRIMARY`] is `L` (or `L_in` for arcs) and [`REPAIR_SECONDARY`]
/// is `L_out`.
pub trait Variant: GraphKind {
    /// The distance domain.
    type Dist: LabelDist;
    /// A label-row entry.
    type Entry: HubEntry<Dist = Self::Dist>;
    /// What an edge carries: `()` for unit lengths, the weight otherwise.
    type Payload: Copy + Ord + Debug;
    /// The facade's update vocabulary.
    type Update: Copy;
    /// What a query answers: a distance (or `INF`) and a count.
    type Answer: From<(Self::Dist, Count)> + Copy + PartialEq + Debug + Send + 'static;

    /// Whether sweeps must settle in distance order (Dijkstra) rather than
    /// FIFO order (unit-length BFS).
    const DIJKSTRA: bool;

    /// The degree [`crate::order::OrderingStrategy::Degree`] ranks `v` by
    /// (in + out for arcs).
    fn degree(g: &Graph<Self>, v: VertexId) -> usize;

    /// Length of edge `(a, b)`, or `None` when it is absent.
    fn edge_len(g: &Graph<Self>, a: VertexId, b: VertexId) -> Option<Self::Dist>;

    /// The key under which two deletions name the same edge.
    fn edge_key(a: VertexId, b: VertexId) -> (u32, u32);

    /// Removes edge `(a, b)` from the graph.
    fn delete(g: &mut Graph<Self>, a: VertexId, b: VertexId) -> dspc_graph::Result<()>;

    /// Visits each neighbor a sweep repairing `family` steps to from `v`,
    /// with the edge's length: along arcs for `L_in`, against them for
    /// `L_out`, every edge otherwise.
    fn for_each_neighbor<F: FnMut(u32, Self::Dist)>(g: &Graph<Self>, v: u32, family: u8, f: F);

    /// `SpcQUERY(s, t)` on the live labels: `L(s)` merged with `L(t)`, or
    /// `L_out(s)` with `L_in(t)` for arcs.
    fn query(index: &LabelIndex<Self>, s: VertexId, t: VertexId) -> (Self::Dist, Count) {
        query_rows(
            index.row(s, source_family::<Self>()).view(),
            index.row(t, REPAIR_PRIMARY).view(),
        )
    }

    /// An update in the variant-independent form the facade folds.
    fn op(update: Self::Update) -> UpdateOp<Self::Payload>;

    /// The payload of edge `(a, b)`, or `None` when it is absent.
    fn payload(g: &Graph<Self>, a: VertexId, b: VertexId) -> Option<Self::Payload>;

    /// Rejects a payload no edge may carry, before anything mutates.
    fn check_payload(_w: Self::Payload) -> dspc_graph::Result<()> {
        Ok(())
    }

    /// Inserts edge `(a, b)` carrying `w` into the graph.
    fn insert(
        g: &mut Graph<Self>,
        a: VertexId,
        b: VertexId,
        w: Self::Payload,
    ) -> dspc_graph::Result<()>;

    /// Sets the payload of the present edge `(a, b)` to `w`. A unit
    /// payload never changes, so by default this does nothing.
    fn set_payload(
        _g: &mut Graph<Self>,
        _a: VertexId,
        _b: VertexId,
        _w: Self::Payload,
    ) -> dspc_graph::Result<()> {
        Ok(())
    }

    /// Retires vertex `v` and every edge at it.
    fn remove_vertex(g: &mut Graph<Self>, v: VertexId) -> dspc_graph::Result<()>;

    /// The edges at `v`: `(v, u)` per neighbor, out-arcs then in-arcs for
    /// arcs.
    fn incident(g: &Graph<Self>, v: VertexId) -> Vec<(VertexId, VertexId)>;

    /// The §3.2.3 isolated-vertex fast path: when deleting the present
    /// edge `(a, b)` strands an endpoint no label uses as a hub, deletes
    /// the edge, empties that endpoint's row down to its self label, and
    /// returns the counters. Undirected only; elsewhere it never applies.
    fn pendant_fast_path(
        _g: &mut Graph<Self>,
        _index: &mut LabelIndex<Self>,
        _a: VertexId,
        _b: VertexId,
    ) -> dspc_graph::Result<Option<MaintenanceCounters>> {
        Ok(None)
    }
}

/// The label families a variant's hubs write: `L`, or `L_in` then `L_out`.
pub(crate) fn families<V: Variant>() -> &'static [u8] {
    if V::DIRECTED {
        &[REPAIR_PRIMARY, REPAIR_SECONDARY]
    } else {
        &[REPAIR_PRIMARY]
    }
}

/// Where family `family` sits among a variant's [`families`]: `L` and
/// `L_in` first, `L_out` second.
#[inline]
pub(crate) fn family_slot(family: u8) -> usize {
    usize::from(family != REPAIR_PRIMARY)
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
#[inline]
pub(crate) fn pinned_family<V: Variant>(family: u8) -> u8 {
    if V::DIRECTED && family == REPAIR_PRIMARY {
        REPAIR_SECONDARY
    } else {
        REPAIR_PRIMARY
    }
}

/// The family a query's source row comes from: `L_out(s)` for arcs, `L(s)`
/// otherwise. The target row is always of [`REPAIR_PRIMARY`].
#[inline]
pub(crate) fn source_family<V: Variant>() -> u8 {
    pinned_family::<V>(REPAIR_PRIMARY)
}

/// The sweep view of one label family: the graph, the index borrowed
/// through `I`, the pinned-hub probe, and the family the sweep reads and
/// writes.
pub struct Topo<'a, V: Variant, I> {
    g: &'a Graph<V>,
    index: I,
    probe: &'a mut HubProbe<V::Entry>,
    family: u8,
}

impl<'a, V: Variant, I: Deref<Target = LabelIndex<V>>> Topo<'a, V, I> {
    /// Borrows graph, index, and probe for one sweep over `family`.
    pub fn new(g: &'a Graph<V>, index: I, probe: &'a mut HubProbe<V::Entry>, family: u8) -> Self {
        Topo {
            g,
            index,
            probe,
            family,
        }
    }
}

impl<V: Variant, I: Deref<Target = LabelIndex<V>>> ReadTopology for Topo<'_, V, I> {
    type Dist = V::Dist;

    const DIJKSTRA: bool = V::DIJKSTRA;

    #[inline]
    fn rank(&self, v: u32) -> Rank {
        self.index.rank(VertexId(v))
    }

    fn load_probe(&mut self, x: VertexId) {
        let pinned = self.index.row(x, pinned_family::<V>(self.family));
        self.probe
            .load_labels(pinned.view(), self.index.ranks().len());
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (V::Dist, Count) {
        self.probe.query(self.index.row(v, self.family).view())
    }

    #[inline]
    fn probe_certifies_shorter(
        &self,
        v: VertexId,
        bound: V::Dist,
        limit: Option<Rank>,
    ) -> (bool, usize) {
        self.probe
            .certifies_shorter(self.index.row(v, self.family).keys(), bound, limit)
    }

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, V::Dist)>(&self, v: u32, f: F) {
        V::for_each_neighbor(self.g, v, self.family, f);
    }

    #[inline]
    fn label_get(&self, v: VertexId, hub: Rank) -> Option<(V::Dist, Count)> {
        let e = self.index.row(v, self.family).get(hub)?;
        Some((e.dist(), e.count()))
    }

    fn is_common_hub(&self, hub: Rank, near: VertexId, far: VertexId) -> bool {
        let pinned = pinned_family::<V>(self.family);
        hub <= self.index.rank(near)
            && hub <= self.index.rank(far)
            && self.index.row(near, pinned).contains(hub)
            && self.index.row(far, pinned).contains(hub)
    }
}

impl<V: Variant, I: DerefMut<Target = LabelIndex<V>>> LabelTopology for Topo<'_, V, I> {
    #[inline]
    fn label_upsert(&mut self, v: VertexId, hub: Rank, d: V::Dist, c: Count) {
        self.index
            .upsert_entry(v, self.family, HubEntry::new(hub, d, c));
    }

    #[inline]
    fn label_remove(&mut self, v: VertexId, hub: Rank) -> bool {
        self.index.remove_entry(v, self.family, hub).is_some()
    }
}

/// The undirected variant ([`crate::DynamicSpc`]): unit-length edges and
/// one label family.
impl Variant for Undirected {
    type Dist = u32;
    type Entry = LabelEntry;
    type Payload = ();
    type Update = GraphUpdate;
    type Answer = QueryResult;

    const DIJKSTRA: bool = false;

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

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, u32)>(g: &UndirectedGraph, v: u32, _: u8, mut f: F) {
        for &w in g.neighbors(VertexId(v)) {
            f(w, 1);
        }
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

    fn remove_vertex(g: &mut UndirectedGraph, v: VertexId) -> dspc_graph::Result<()> {
        g.delete_vertex(v).map(drop)
    }

    fn incident(g: &UndirectedGraph, v: VertexId) -> Vec<(VertexId, VertexId)> {
        g.neighbors(v).iter().map(|&u| (v, VertexId(u))).collect()
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
        index: &mut LabelIndex<Undirected>,
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

/// The directed variant ([`crate::directed::DynamicDirectedSpc`]): arcs,
/// with `L_in` as the primary family and `L_out` as the secondary one.
impl Variant for Directed {
    type Dist = u32;
    type Entry = LabelEntry;
    type Payload = ();
    type Update = ArcUpdate;
    type Answer = QueryResult;

    const DIJKSTRA: bool = false;

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

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, u32)>(g: &DirectedGraph, v: u32, family: u8, mut f: F) {
        // Repairing L_in means sweeping *away* from the hub along arcs.
        let neighbors = if family == REPAIR_PRIMARY {
            g.out_neighbors(VertexId(v))
        } else {
            g.in_neighbors(VertexId(v))
        };
        for &w in neighbors {
            f(w, 1);
        }
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

    fn remove_vertex(g: &mut DirectedGraph, v: VertexId) -> dspc_graph::Result<()> {
        g.delete_vertex(v).map(drop)
    }

    fn incident(g: &DirectedGraph, v: VertexId) -> Vec<(VertexId, VertexId)> {
        let outs = g.out_neighbors(v).iter().map(|&w| (v, VertexId(w)));
        outs.chain(g.in_neighbors(v).iter().map(|&w| (VertexId(w), v)))
            .collect()
    }
}

/// The weighted variant ([`crate::weighted::DynamicWeightedSpc`]):
/// positive integer weights, `u64` distances, one label family.
impl Variant for Weighted {
    type Dist = WDist;
    type Entry = WLabelEntry;
    type Payload = Weight;
    type Update = WeightedUpdate;
    type Answer = WQueryResult;

    const DIJKSTRA: bool = true;

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

    #[inline]
    fn for_each_neighbor<F: FnMut(u32, WDist)>(g: &WeightedGraph, v: u32, _: u8, mut f: F) {
        for &(w, wt) in g.neighbors(VertexId(v)) {
            f(w, wt as WDist);
        }
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

    fn remove_vertex(g: &mut WeightedGraph, v: VertexId) -> dspc_graph::Result<()> {
        g.delete_vertex(v).map(drop)
    }

    fn incident(g: &WeightedGraph, v: VertexId) -> Vec<(VertexId, VertexId)> {
        g.neighbors(v)
            .iter()
            .map(|&(u, _)| (v, VertexId(u)))
            .collect()
    }
}
