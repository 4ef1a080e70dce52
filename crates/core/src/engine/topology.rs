//! Label-family views: how each index variant exposes its graph, label
//! family, and pinned-hub probe to the generic engine, and the
//! [`DecVariant`] glue the deletion pipeline builds them through.
//!
//! A view borrows the graph immutably and the index through `I`. Over a
//! shared borrow (`&Index`) it implements [`ReadTopology`] only — what a
//! classification sweep reads, shareable across threads. Over a mutable
//! borrow (`&mut Index`) it adds the two label writes of [`LabelTopology`]
//! that repair sweeps need. One implementation of the read methods serves
//! both, so a classification sweep and a repair sweep always read the index
//! the same way.
//!
//! The directed view is parameterized by the label family being repaired:
//! repairing `L_in` walks out-arcs and pins `L_out` hubs, repairing `L_out`
//! walks in-arcs and pins `L_in` — which makes the same view type serve the
//! forward and backward halves of every directed update.

use super::{DecVariant, LabelTopology, ReadTopology, REPAIR_PRIMARY};
use crate::directed::{DirectedSpcIndex, Side};
use crate::index::SpcIndex;
use crate::label::{Count, LabelEntry, Rank};
use crate::query::HubProbe;
use crate::weighted::{WHubProbe, WLabelEntry, WeightedSpcIndex};
use dspc_graph::weighted::{WDist, WeightedGraph};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId};
use std::ops::{Deref, DerefMut};

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
        let q = self.probe.query(self.index.label_set(v));
        (q.dist, q.count)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (u32, Count) {
        let q = self.probe.pre_query(self.index.label_set(v), limit);
        (q.dist, q.count)
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
            self.index.label(self.pin_side(), x),
            self.index.ranks().len(),
        );
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (u32, Count) {
        let q = self.probe.query(self.index.label(self.repair, v));
        (q.dist, q.count)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (u32, Count) {
        let q = self
            .probe
            .pre_query(self.index.label(self.repair, v), limit);
        (q.dist, q.count)
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
    probe: &'a mut WHubProbe,
}

impl<'a, I: Deref<Target = WeightedSpcIndex>> WeightedTopo<'a, I> {
    /// Borrows graph, index, and probe for one sweep.
    pub fn new(g: &'a WeightedGraph, index: I, probe: &'a mut WHubProbe) -> Self {
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
        self.probe.load(&self.index, x);
    }

    #[inline]
    fn probe_query(&self, v: VertexId) -> (WDist, Count) {
        let q = self.probe.query_limited(self.index.label_set(v), None);
        (q.dist, q.count)
    }

    #[inline]
    fn probe_pre_query(&self, v: VertexId, limit: Rank) -> (WDist, Count) {
        let q = self
            .probe
            .query_limited(self.index.label_set(v), Some(limit));
        (q.dist, q.count)
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

/// The undirected variant ([`crate::dec::DecSpc`]): unit-length edges and
/// one label family.
#[derive(Debug)]
pub enum Undirected {}

impl DecVariant for Undirected {
    type Graph = UndirectedGraph;
    type Index = SpcIndex;
    type Probe = HubProbe;
    type Dist = u32;
    type Entry = LabelEntry;
    type Read<'a> = UndirectedTopo<'a, &'a SpcIndex>;
    type Write<'a> = UndirectedTopo<'a, &'a mut SpcIndex>;

    const DIRECTED: bool = false;

    fn probe(capacity: usize) -> HubProbe {
        HubProbe::new(capacity)
    }

    fn capacity(g: &UndirectedGraph) -> usize {
        g.capacity()
    }

    fn rank(index: &SpcIndex, v: VertexId) -> Rank {
        index.rank(v)
    }

    fn vertex(index: &SpcIndex, r: Rank) -> VertexId {
        index.vertex(r)
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

/// The directed variant ([`crate::directed::DirectedDecSpc`]): arcs, with
/// `L_in` as the primary family and `L_out` as the secondary one.
#[derive(Debug)]
pub enum Directed {}

impl DecVariant for Directed {
    type Graph = DirectedGraph;
    type Index = DirectedSpcIndex;
    type Probe = HubProbe;
    type Dist = u32;
    type Entry = LabelEntry;
    type Read<'a> = DirectedTopo<'a, &'a DirectedSpcIndex>;
    type Write<'a> = DirectedTopo<'a, &'a mut DirectedSpcIndex>;

    const DIRECTED: bool = true;

    fn probe(capacity: usize) -> HubProbe {
        HubProbe::new(capacity)
    }

    fn capacity(g: &DirectedGraph) -> usize {
        g.capacity()
    }

    fn rank(index: &DirectedSpcIndex, v: VertexId) -> Rank {
        index.rank(v)
    }

    fn vertex(index: &DirectedSpcIndex, r: Rank) -> VertexId {
        index.vertex(r)
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
}

/// The weighted variant ([`crate::weighted::WeightedDecSpc`]): positive
/// integer weights, `u64` distances, one label family.
#[derive(Debug)]
pub enum Weighted {}

impl DecVariant for Weighted {
    type Graph = WeightedGraph;
    type Index = WeightedSpcIndex;
    type Probe = WHubProbe;
    type Dist = WDist;
    type Entry = WLabelEntry;
    type Read<'a> = WeightedTopo<'a, &'a WeightedSpcIndex>;
    type Write<'a> = WeightedTopo<'a, &'a mut WeightedSpcIndex>;

    const DIRECTED: bool = false;

    fn probe(capacity: usize) -> WHubProbe {
        WHubProbe::new(capacity)
    }

    fn capacity(g: &WeightedGraph) -> usize {
        g.capacity()
    }

    fn rank(index: &WeightedSpcIndex, v: VertexId) -> Rank {
        index.rank(v)
    }

    fn vertex(index: &WeightedSpcIndex, r: Rank) -> VertexId {
        index.vertex(r)
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

    fn read<'a>(
        g: &'a WeightedGraph,
        index: &'a WeightedSpcIndex,
        probe: &'a mut WHubProbe,
        _family: u8,
    ) -> Self::Read<'a> {
        WeightedTopo::new(g, index, probe)
    }

    fn write<'a>(
        g: &'a WeightedGraph,
        index: &'a mut WeightedSpcIndex,
        probe: &'a mut WHubProbe,
        _family: u8,
    ) -> Self::Write<'a> {
        WeightedTopo::new(g, index, probe)
    }

    fn row(index: &WeightedSpcIndex, v: VertexId, _family: u8) -> &[WLabelEntry] {
        index.label_set(v).entries()
    }
}
