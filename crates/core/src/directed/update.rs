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

use super::DirectedSpcIndex;
use crate::engine::{DecPipeline, Directed, MaintenanceCounters, PushPipeline};
use dspc_graph::{DirectedGraph, VertexId};

/// Directed incremental driver: the shared [`PushPipeline`] over arcs. Its
/// [`insert_edge`](PushPipeline::insert_edge) takes hubs from
/// `L_in(a) ∪ L_out(b)` and runs the forward (`L_in`) and backward
/// (`L_out`) halves through [`crate::engine::DirectedTopo`] views.
pub type DirectedIncSpc = PushPipeline<Directed>;

/// Directed decremental driver: the arc-deletion policy over the shared
/// [`DecPipeline`]. A deleted arc `a → b` sends hubs upstream of `a` to
/// repair `L_in` downstream and hubs downstream of `b` to repair `L_out`
/// upstream; a hub on a cycle through the arc does both, once per family.
#[derive(Debug)]
pub struct DirectedDecSpc {
    pipeline: DecPipeline<Directed>,
}

impl DirectedDecSpc {
    /// Creates an engine for graphs up to `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        DirectedDecSpc {
            pipeline: DecPipeline::new(capacity),
        }
    }

    /// Deletes arc `a → b` from `g` and repairs `index`, speculating the
    /// repair sweeps over up to `threads` threads
    /// ([`DecPipeline::delete_one`]). Returns the label-operation counters.
    pub fn delete_arc(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        a: VertexId,
        b: VertexId,
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.pipeline
            .delete_one(g, index, (a, b), |g| g.delete_arc(a, b), false, threads)
            .map(|(stats, _)| stats)
    }

    /// Multi-arc `SrrSEARCH` repair: deletes every arc of `arcs` from `g`
    /// and repairs `index` with at most one `DecUPDATE` sweep per distinct
    /// affected hub *per label family*, classifying one multi-far sweep per
    /// distinct tail and one per distinct head, and repairing, on up to
    /// `threads` threads ([`DecPipeline::delete_batch`]). All arcs are validated present
    /// (and pairwise distinct) before the first mutation.
    pub fn delete_arcs(
        &mut self,
        g: &mut DirectedGraph,
        index: &mut DirectedSpcIndex,
        arcs: &[(VertexId, VertexId)],
        threads: usize,
    ) -> dspc_graph::Result<MaintenanceCounters> {
        self.pipeline.delete_batch(g, index, arcs, threads)
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
