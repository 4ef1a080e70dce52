//! Batch coalescing: fold a sequence of edge-level updates into their net
//! effect before any index maintenance runs.
//!
//! The facade's `apply_batch` ([`crate::dynamic::Dynamic::apply_batch`])
//! reads each update as an [`UpdateOp`] and uses this to implement epoch
//! semantics: within a batch, an insert followed by a delete of the same
//! edge cancels outright, repeated weight changes collapse to the last
//! one, and a delete followed by a re-insert of an existing edge is a
//! topological no-op — none of them pay for index repair. Each folded
//! operation is still validated against the *folded* state exactly as the
//! sequential facade methods would validate it against the live graph
//! (inserting a present edge or deleting a missing one is an error), so a
//! batch accepts precisely the op sequences `apply_stream` accepts, and
//! validation completes before the first mutation.
//!
//! `W` is the per-edge payload: `()` for unweighted edges, the weight for
//! weighted ones. The `current` closure passed to each `fold_*` call
//! supplies the live-graph state of an edge the first time the batch
//! touches it; afterwards the coalescer tracks the folded state itself:
//!
//! ```
//! use dspc::engine::EdgeCoalescer;
//!
//! let mut co: EdgeCoalescer<u32> = EdgeCoalescer::new();
//! // Insert at weight 5, then rewrite to 9: one net insertion at 9.
//! co.fold_insert((1, 2), 5, || None).unwrap();
//! co.fold_rewrite((1, 2), 9, || unreachable!("state cached")).unwrap();
//! // Delete + re-insert of a live edge at its old weight: the drained
//! // effect has identical before/after state — a topological no-op that
//! // NetPlan::build drops entirely.
//! co.fold_remove((3, 4), || Some(7)).unwrap();
//! co.fold_insert((3, 4), 7, || unreachable!("state cached")).unwrap();
//! assert_eq!(
//!     co.drain(),
//!     vec![((1, 2), None, Some(9)), ((3, 4), Some(7), Some(7))]
//! );
//! ```
//!
//! The drained [`NetEdgeEffect`]s feed [`NetPlan::build`], which sorts
//! each surviving class rank-friendly; the net deletions then go to the
//! multi-edge `SrrSEARCH` repair path as one set
//! ([`crate::engine::Pipeline::delete_edges`]).

use crate::label::Rank;
use dspc_graph::{GraphError, VertexId};
use std::collections::HashMap;

/// One drained edge: `(key, state before the batch, state after)`.
pub type NetEdgeEffect<W> = ((u32, u32), Option<W>, Option<W>);

/// Canonical undirected edge key (smaller id first).
pub(crate) fn ordered_key(a: VertexId, b: VertexId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Fold-time endpoint validation. Presence checks (`has_edge`/`weight`)
/// answer "absent" for unknown or deleted vertices and for self-loops, so
/// without this check such an op would sail through folding and only error
/// mid-flush — after other net ops already mutated the graph, breaking the
/// validate-before-apply guarantee.
pub(crate) fn check_endpoints(
    a: VertexId,
    b: VertexId,
    contains: impl Fn(VertexId) -> bool,
) -> dspc_graph::Result<()> {
    if a == b {
        return Err(GraphError::SelfLoop(a));
    }
    for v in [a, b] {
        if !contains(v) {
            return Err(GraphError::UnknownVertex(v));
        }
    }
    Ok(())
}

/// Sorts `keys` and returns the first duplicated key, if any.
pub(crate) fn duplicate_edge_key(keys: &mut [(u32, u32)]) -> Option<(u32, u32)> {
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// One update of a facade batch, in the form every variant's vocabulary
/// maps to ([`crate::engine::Variant::op`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp<W> {
    /// Insert edge `(a, b)` carrying the payload.
    Insert(VertexId, VertexId, W),
    /// Delete edge `(a, b)`.
    Delete(VertexId, VertexId),
    /// Change the payload of edge `(a, b)`.
    Rewrite(VertexId, VertexId, W),
    /// Add an isolated vertex.
    InsertVertex,
    /// Delete a vertex and every edge at it.
    DeleteVertex(VertexId),
}

/// One post-deletion net operation a facade must apply during a batch
/// flush. Net *deletions* are not streamed through this enum: they are
/// handed to the multi-edge deletion path as one set
/// ([`NetPlan::vertex_deletions`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOp<W> {
    /// Change the payload of edge `(a, b)` (present → present, new value).
    Rewrite(VertexId, VertexId, W),
    /// Insert edge `(a, b)` with the payload (absent → present).
    Insert(VertexId, VertexId, W),
}

/// The net operations a drained batch segment boils down to, each class
/// sorted rank-friendly: by the higher-ranked endpoint first (ascending
/// rank position), so the labels of top hubs settle before lower-ranked
/// updates consult them, trimming repeat renewals.
#[derive(Debug)]
pub struct NetPlan<W> {
    /// Edges to delete (present → absent).
    pub deletions: Vec<(u32, u32)>,
    /// Edges whose payload changed (present → present with a new value).
    pub rewrites: Vec<((u32, u32), W)>,
    /// Edges to insert (absent → present).
    pub insertions: Vec<((u32, u32), W)>,
}

impl<W> NetPlan<W> {
    /// The net deletions with keys widened to [`VertexId`] pairs — the
    /// form the facade hands straight to its multi-edge deletion entry
    /// point.
    pub fn vertex_deletions(&self) -> Vec<(VertexId, VertexId)> {
        self.deletions
            .iter()
            .map(|&(a, b)| (VertexId(a), VertexId(b)))
            .collect()
    }

    /// The post-deletion plan in application order — rewrites, then
    /// insertions — as a single op stream, so the facade's flush is one
    /// set deletion plus one loop over this iterator, and the ordering
    /// policy lives here alone.
    pub fn into_post_deletion_ops(self) -> impl Iterator<Item = NetOp<W>> {
        let v = |(a, b): (u32, u32)| (VertexId(a), VertexId(b));
        self.rewrites
            .into_iter()
            .map(move |(k, w)| {
                let (a, b) = v(k);
                NetOp::Rewrite(a, b, w)
            })
            .chain(self.insertions.into_iter().map(move |(k, w)| {
                let (a, b) = v(k);
                NetOp::Insert(a, b, w)
            }))
    }
}

impl<W: Copy + PartialEq> NetPlan<W> {
    /// Partitions drained net effects into apply classes; `rank_of` maps a
    /// vertex id to its rank position.
    pub fn build(
        effects: Vec<NetEdgeEffect<W>>,
        mut rank_of: impl FnMut(u32) -> Rank,
    ) -> NetPlan<W> {
        let mut plan = NetPlan {
            deletions: Vec::new(),
            rewrites: Vec::new(),
            insertions: Vec::new(),
        };
        for (key, initial, fin) in effects {
            match (initial, fin) {
                (Some(_), None) => plan.deletions.push(key),
                (None, Some(w)) => plan.insertions.push((key, w)),
                (Some(w0), Some(w1)) if w0 != w1 => plan.rewrites.push((key, w1)),
                // Present→same and absent→absent net out: no repair.
                _ => {}
            }
        }
        let mut rank_key = |&(a, b): &(u32, u32)| {
            let (ra, rb) = (rank_of(a), rank_of(b));
            (ra.min(rb), ra.max(rb))
        };
        plan.deletions.sort_by_key(&mut rank_key);
        plan.rewrites.sort_by_key(|(k, _)| rank_key(k));
        plan.insertions.sort_by_key(|(k, _)| rank_key(k));
        plan
    }
}

/// One edge's fold through a batch.
#[derive(Clone, Copy, Debug)]
struct EdgeFold<W> {
    key: (u32, u32),
    /// Presence/payload in the live graph when first touched.
    initial: Option<W>,
    /// Presence/payload after folding every batched op so far.
    folded: Option<W>,
}

/// Folds edge updates keyed by endpoint pair into net effects.
#[derive(Debug)]
pub struct EdgeCoalescer<W: Copy> {
    slot: HashMap<(u32, u32), usize>,
    /// First-touch order, for deterministic iteration.
    folds: Vec<EdgeFold<W>>,
}

impl<W: Copy> EdgeCoalescer<W> {
    /// An empty coalescer.
    pub fn new() -> Self {
        EdgeCoalescer {
            slot: HashMap::new(),
            folds: Vec::new(),
        }
    }

    /// Whether any ops were folded since the last [`drain`](Self::drain).
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    fn entry(&mut self, key: (u32, u32), current: impl FnOnce() -> Option<W>) -> &mut EdgeFold<W> {
        let idx = match self.slot.get(&key) {
            Some(&i) => i,
            None => {
                let initial = current();
                self.folds.push(EdgeFold {
                    key,
                    initial,
                    folded: initial,
                });
                let i = self.folds.len() - 1;
                self.slot.insert(key, i);
                i
            }
        };
        &mut self.folds[idx]
    }

    /// Folds an insertion of `key` with payload `w`. Errors when the edge
    /// is present in the folded state (mirrors the sequential duplicate
    /// check).
    pub fn fold_insert(
        &mut self,
        key: (u32, u32),
        w: W,
        current: impl FnOnce() -> Option<W>,
    ) -> dspc_graph::Result<()> {
        let fold = self.entry(key, current);
        if fold.folded.is_some() {
            return Err(GraphError::DuplicateEdge(VertexId(key.0), VertexId(key.1)));
        }
        fold.folded = Some(w);
        Ok(())
    }

    /// Folds a deletion of `key`. Errors when the edge is absent in the
    /// folded state.
    pub fn fold_remove(
        &mut self,
        key: (u32, u32),
        current: impl FnOnce() -> Option<W>,
    ) -> dspc_graph::Result<()> {
        let fold = self.entry(key, current);
        if fold.folded.is_none() {
            return Err(GraphError::MissingEdge(VertexId(key.0), VertexId(key.1)));
        }
        fold.folded = None;
        Ok(())
    }

    /// Folds a payload rewrite (weight change). Errors when the edge is
    /// absent in the folded state.
    pub fn fold_rewrite(
        &mut self,
        key: (u32, u32),
        w: W,
        current: impl FnOnce() -> Option<W>,
    ) -> dspc_graph::Result<()> {
        let fold = self.entry(key, current);
        if fold.folded.is_none() {
            return Err(GraphError::MissingEdge(VertexId(key.0), VertexId(key.1)));
        }
        fold.folded = Some(w);
        Ok(())
    }

    /// Returns every touched edge as `(key, initial, final)` in first-touch
    /// order and resets the coalescer for the next segment.
    pub fn drain(&mut self) -> Vec<NetEdgeEffect<W>> {
        self.slot.clear();
        self.folds
            .drain(..)
            .map(|f| (f.key, f.initial, f.folded))
            .collect()
    }
}

impl<W: Copy> Default for EdgeCoalescer<W> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_delete_cancels() {
        let mut co: EdgeCoalescer<()> = EdgeCoalescer::new();
        co.fold_insert((1, 2), (), || None).unwrap();
        co.fold_remove((1, 2), || None).unwrap();
        let net = co.drain();
        assert_eq!(net.len(), 1);
        let (key, initial, fin) = net[0];
        assert_eq!(key, (1, 2));
        assert!(initial.is_none() && fin.is_none());
    }

    #[test]
    fn delete_then_reinsert_is_topological_noop() {
        let mut co: EdgeCoalescer<u32> = EdgeCoalescer::new();
        co.fold_remove((1, 2), || Some(7)).unwrap();
        co.fold_insert((1, 2), 7, || unreachable!("state cached"))
            .unwrap();
        let net = co.drain();
        assert_eq!(net, vec![((1, 2), Some(7), Some(7))]);
    }

    #[test]
    fn sequential_validation_preserved() {
        let mut co: EdgeCoalescer<()> = EdgeCoalescer::new();
        co.fold_insert((1, 2), (), || None).unwrap();
        assert!(matches!(
            co.fold_insert((1, 2), (), || None),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            co.fold_remove((3, 4), || None),
            Err(GraphError::MissingEdge(_, _))
        ));
        assert!(matches!(
            co.fold_rewrite((3, 4), (), || None),
            Err(GraphError::MissingEdge(_, _))
        ));
    }

    #[test]
    fn net_plan_groups_deletions_by_top_endpoint() {
        // Identity ranks: the smaller id is the higher-ranked endpoint.
        let effects: Vec<NetEdgeEffect<()>> = vec![
            ((3, 5), Some(()), None),
            ((1, 9), Some(()), None),
            ((1, 4), Some(()), None),
            ((2, 6), None, Some(())),
            ((3, 7), Some(()), None),
        ];
        let plan = NetPlan::build(effects, Rank);
        // Sorted by (top rank, bottom rank): edges sharing a top endpoint
        // end up adjacent.
        assert_eq!(plan.deletions, vec![(1, 4), (1, 9), (3, 5), (3, 7)]);
        assert_eq!(plan.insertions, vec![((2, 6), ())]);
        let ops: Vec<NetOp<()>> = plan.into_post_deletion_ops().collect();
        assert_eq!(ops, vec![NetOp::Insert(VertexId(2), VertexId(6), ())]);
    }

    #[test]
    fn last_weight_wins_and_drain_resets() {
        let mut co: EdgeCoalescer<u32> = EdgeCoalescer::new();
        co.fold_rewrite((0, 1), 5, || Some(2)).unwrap();
        co.fold_rewrite((0, 1), 9, || unreachable!()).unwrap();
        assert_eq!(co.drain(), vec![((0, 1), Some(2), Some(9))]);
        assert!(co.is_empty());
        // Post-drain, the live state is consulted afresh.
        co.fold_insert((0, 1), 3, || None).unwrap();
        assert_eq!(co.drain(), vec![((0, 1), None, Some(3))]);
    }
}
