//! Maintenance policy — the answer to ordering staleness, tiered.
//!
//! §6 ("Vertex Ordering Changes"): after many updates the degree-based
//! order no longer reflects the graph, inflating future labels. The paper's
//! suggested mitigation is a *lazy strategy* — "reconstructing the entire
//! index after a certain number of updates". [`MaintenancePolicy`] encodes
//! that trigger plus a direct staleness measurement
//! ([`crate::order::degree_order_staleness`]), and since the bounded
//! re-ranking work ([`crate::reorder`]) it escalates through three tiers
//! instead of jumping straight to reconstruction:
//!
//! 1. **Local re-rank** — staleness crossed
//!    [`MaintenancePolicy::local_staleness`]: repair up to
//!    [`MaintenancePolicy::local_swap_budget`] adjacent inversions one
//!    committed swap at a time.
//! 2. **Batched re-rank** — staleness crossed
//!    [`MaintenancePolicy::batched_staleness`]: plan up to
//!    [`MaintenancePolicy::batched_swap_budget`] non-overlapping swaps and
//!    repair them under one agenda on the maintenance thread pool.
//! 3. **Full rebuild** — the update cliff
//!    ([`MaintenancePolicy::max_updates`]) or the staleness cliff
//!    ([`MaintenancePolicy::max_staleness`]) fired; reconstruct with a
//!    fresh order, exactly as before.
//!
//! [`ManagedSpc`] applies the policy automatically around a [`DynamicSpc`],
//! measuring staleness in O(1) per check through an incrementally
//! maintained [`StalenessTracker`] instead of rescanning all rank pairs on
//! every batch.

use crate::dynamic::{DynamicSpc, GraphUpdate, UpdateStats};
use crate::engine::MaintenanceCounters;
use crate::order::{degree_order_staleness, plan_adjacent_swaps, StalenessTracker};
use dspc_graph::Result;

/// When — and how hard — to push back against ordering staleness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaintenancePolicy {
    /// Rebuild after this many updates since the last build (the paper's
    /// "certain number of updates"). `None` disables the trigger.
    pub max_updates: Option<usize>,
    /// Rebuild when the fraction of degree-order inversions among adjacent
    /// ranks exceeds this threshold. `None` disables the trigger.
    pub max_staleness: Option<f64>,
    /// Below the rebuild cliff: batched re-rank when staleness exceeds
    /// this. `None` disables the tier.
    pub batched_staleness: Option<f64>,
    /// Below the batched tier: bounded local re-rank when staleness
    /// exceeds this. `None` disables the tier.
    pub local_staleness: Option<f64>,
    /// Most adjacent swaps one local-tier response may repair (sequential,
    /// one committed swap at a time).
    pub local_swap_budget: usize,
    /// Most adjacent swaps one batched-tier response may repair (one
    /// agenda on the maintenance thread pool).
    pub batched_swap_budget: usize,
}

/// The response [`MaintenancePolicy::action`] selects, most severe wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// Nothing due.
    None,
    /// Repair a few inversions sequentially ([`crate::reorder::swap_and_repair`]).
    LocalRerank,
    /// Repair a planned swap run under one agenda
    /// ([`crate::reorder::rerank_adjacent`]).
    BatchedRerank,
    /// Reconstruct with a fresh order ([`DynamicSpc::rebuild`]).
    Rebuild,
}

impl MaintenancePolicy {
    /// Never rebuild (pure dynamic maintenance — what the paper evaluates).
    pub const NEVER: MaintenancePolicy = MaintenancePolicy {
        max_updates: None,
        max_staleness: None,
        batched_staleness: None,
        local_staleness: None,
        local_swap_budget: 0,
        batched_swap_budget: 0,
    };

    /// Rebuild every `n` updates.
    pub fn every(n: usize) -> Self {
        MaintenancePolicy {
            max_updates: Some(n),
            ..MaintenancePolicy::NEVER
        }
    }

    /// A three-tier policy: local re-rank above `local`, batched re-rank
    /// above `batched`, full rebuild only above the `cliff` staleness —
    /// with default swap budgets (4 local, 32 batched).
    pub fn tiered(local: f64, batched: f64, cliff: f64) -> Self {
        MaintenancePolicy {
            max_updates: None,
            max_staleness: Some(cliff),
            batched_staleness: Some(batched),
            local_staleness: Some(local),
            local_swap_budget: 4,
            batched_swap_budget: 32,
        }
    }

    /// The response due after `updates` updates at `staleness` — the
    /// severest tier whose trigger fired.
    pub fn action(&self, updates: usize, staleness: f64) -> MaintenanceAction {
        if let Some(n) = self.max_updates {
            if updates >= n {
                return MaintenanceAction::Rebuild;
            }
        }
        if let Some(limit) = self.max_staleness {
            if staleness > limit {
                return MaintenanceAction::Rebuild;
            }
        }
        if let Some(limit) = self.batched_staleness {
            if staleness > limit && self.batched_swap_budget > 0 {
                return MaintenanceAction::BatchedRerank;
            }
        }
        if let Some(limit) = self.local_staleness {
            if staleness > limit && self.local_swap_budget > 0 {
                return MaintenanceAction::LocalRerank;
            }
        }
        MaintenanceAction::None
    }

    /// Whether a rebuild is due for `dspc` (one-shot staleness scan; the
    /// managed facade uses [`MaintenancePolicy::action`] with the tracked
    /// value instead).
    pub fn should_rebuild(&self, dspc: &DynamicSpc) -> bool {
        let staleness = if self.max_staleness.is_some() {
            degree_order_staleness(dspc.graph(), dspc.index().ranks())
        } else {
            0.0
        };
        self.action(dspc.updates_since_build(), staleness) == MaintenanceAction::Rebuild
    }
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy::NEVER
    }
}

/// A [`DynamicSpc`] that applies a [`MaintenancePolicy`] after every
/// update, tracking staleness incrementally so the per-update policy check
/// is O(1).
#[derive(Debug)]
pub struct ManagedSpc {
    inner: DynamicSpc,
    policy: MaintenancePolicy,
    rebuilds: usize,
    tracker: StalenessTracker,
    rerank_totals: MaintenanceCounters,
}

impl ManagedSpc {
    /// Wraps `dspc` under `policy`.
    pub fn new(inner: DynamicSpc, policy: MaintenancePolicy) -> Self {
        let tracker = StalenessTracker::new(inner.graph(), inner.index().ranks());
        ManagedSpc {
            inner,
            policy,
            rebuilds: 0,
            tracker,
            rerank_totals: MaintenanceCounters::default(),
        }
    }

    /// Reassembles a managed facade from checkpointed state: the recovered
    /// inner facade, the policy it ran under, and the rebuild count at
    /// checkpoint time — so policy behavior (and its counters) continue
    /// exactly where the crashed instance left off.
    pub fn recover(inner: DynamicSpc, policy: MaintenancePolicy, rebuilds: usize) -> Self {
        let tracker = StalenessTracker::new(inner.graph(), inner.index().ranks());
        ManagedSpc {
            inner,
            policy,
            rebuilds,
            tracker,
            rerank_totals: MaintenanceCounters::default(),
        }
    }

    /// The wrapped facade.
    pub fn inner(&self) -> &DynamicSpc {
        &self.inner
    }

    /// The active maintenance policy.
    pub fn policy(&self) -> MaintenancePolicy {
        self.policy
    }

    /// Number of policy-triggered rebuilds so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Cumulative counters of every policy-triggered re-rank (local and
    /// batched tiers) over the facade's lifetime — `rerank_swaps`,
    /// `rerank_sweeps`, and the label ops the repairs performed.
    pub fn rerank_totals(&self) -> MaintenanceCounters {
        self.rerank_totals
    }

    /// Current degree-order staleness, read off the incremental tracker
    /// (O(1); same value [`crate::order::degree_order_staleness`] would
    /// recompute by scanning every adjacent rank pair).
    pub fn staleness(&self) -> f64 {
        self.tracker.staleness()
    }

    /// Applies an update, then responds if the policy fires (re-rank
    /// counters are absorbed into the returned stats).
    pub fn apply(&mut self, update: GraphUpdate) -> Result<UpdateStats> {
        match self.inner.apply(update) {
            Ok(mut stats) => {
                self.note_updates(&[update]);
                stats.counters.absorb(&self.maybe_maintain());
                Ok(stats)
            }
            Err(e) => {
                self.reseed_tracker();
                Err(e)
            }
        }
    }

    /// Applies a whole epoch through [`DynamicSpc::apply_batch`], then
    /// responds if the policy fires — the write path the serving layer
    /// drives once per rotation. Whether the epoch ends in incremental
    /// repair, a re-rank, or a policy-triggered rebuild, the facade's
    /// frozen snapshot cache is dropped, so the next
    /// [`ManagedSpc::frozen_queries`] freezes the post-epoch index.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Result<UpdateStats> {
        match self.inner.apply_batch(updates) {
            Ok(mut stats) => {
                self.note_updates(updates);
                stats.counters.absorb(&self.maybe_maintain());
                Ok(stats)
            }
            Err(e) => {
                // A failed batch may still have applied earlier segments
                // (vertex ops are barriers); reseed rather than guess.
                self.reseed_tracker();
                Err(e)
            }
        }
    }

    /// Feeds the applied updates to the staleness tracker. Edge endpoints
    /// refresh their ≤ 2 rank pairs; vertex insertion grows the tracker at
    /// the tail; vertex deletion reseeds (the deleted adjacency — whose
    /// endpoints all changed degree — is no longer observable).
    fn note_updates(&mut self, updates: &[GraphUpdate]) {
        if updates
            .iter()
            .any(|u| matches!(u, GraphUpdate::DeleteVertex(_)))
        {
            self.reseed_tracker();
            return;
        }
        let ManagedSpc { inner, tracker, .. } = self;
        tracker.sync(inner.graph(), inner.index().ranks());
        for u in updates {
            if let GraphUpdate::InsertEdge(a, b) | GraphUpdate::DeleteEdge(a, b) = u {
                tracker.note_vertex(inner.graph(), inner.index().ranks(), *a);
                tracker.note_vertex(inner.graph(), inner.index().ranks(), *b);
            }
        }
    }

    fn reseed_tracker(&mut self) {
        let ManagedSpc { inner, tracker, .. } = self;
        tracker.rebuild(inner.graph(), inner.index().ranks());
    }

    /// Runs the severest due maintenance response; returns the counters of
    /// any re-rank work performed.
    fn maybe_maintain(&mut self) -> MaintenanceCounters {
        let mut extra = MaintenanceCounters::default();
        let action = self
            .policy
            .action(self.inner.updates_since_build(), self.tracker.staleness());
        match action {
            MaintenanceAction::None => {}
            MaintenanceAction::Rebuild => {
                self.inner.rebuild();
                self.rebuilds += 1;
                self.reseed_tracker();
            }
            MaintenanceAction::LocalRerank => {
                // One committed swap at a time, re-picking the largest
                // inversion after each repair so a displaced vertex can
                // climb several positions within the budget.
                for _ in 0..self.policy.local_swap_budget {
                    let plan =
                        plan_adjacent_swaps(self.inner.graph(), self.inner.index().ranks(), 1);
                    let Some(&r) = plan.first() else { break };
                    extra.absorb(&self.inner.rerank_adjacent(&[r], 1));
                    let ManagedSpc { inner, tracker, .. } = self;
                    tracker.note_swap(inner.index().ranks(), r);
                    if self
                        .policy
                        .local_staleness
                        .is_some_and(|limit| self.tracker.staleness() <= limit)
                    {
                        break;
                    }
                }
            }
            MaintenanceAction::BatchedRerank => {
                // Spend the budget over successive plan-and-repair rounds:
                // a non-overlapping plan moves each vertex at most one
                // position, so replanning after each committed round lets a
                // badly displaced vertex keep climbing within one response.
                let threads = self.inner.maintenance_threads().resolve();
                let mut budget = self.policy.batched_swap_budget;
                while budget > 0 {
                    let plan =
                        plan_adjacent_swaps(self.inner.graph(), self.inner.index().ranks(), budget);
                    if plan.is_empty() {
                        break;
                    }
                    budget -= plan.len();
                    extra.absorb(&self.inner.rerank_adjacent(&plan, threads));
                    let ManagedSpc { inner, tracker, .. } = self;
                    for &r in &plan {
                        tracker.note_swap(inner.index().ranks(), r);
                    }
                    if self
                        .policy
                        .batched_staleness
                        .is_some_and(|limit| self.tracker.staleness() <= limit)
                    {
                        break;
                    }
                }
            }
        }
        self.rerank_totals.absorb(&extra);
        extra
    }

    /// `SPC(s, t)` through the live index.
    pub fn query(
        &self,
        s: dspc_graph::VertexId,
        t: dspc_graph::VertexId,
    ) -> Option<(u32, crate::label::Count)> {
        self.inner.query(s, t)
    }

    /// The current epoch's flat snapshot (delegates to
    /// [`DynamicSpc::frozen_queries`] — invalidated by every mutation,
    /// including policy-triggered rebuilds).
    pub fn frozen_queries(&mut self) -> &crate::flat::FlatIndex {
        self.inner.frozen_queries()
    }

    /// Whether a flat snapshot is currently cached.
    pub fn has_frozen_snapshot(&self) -> bool {
        self.inner.has_frozen_snapshot()
    }

    /// Publishes the current epoch's serving snapshot (delegates to
    /// [`DynamicSpc::publish`]).
    pub fn publish(&mut self, shards: usize) -> crate::shard::ShardedFlatIndex {
        self.inner.publish(shards)
    }

    /// Unwraps.
    pub fn into_inner(self) -> DynamicSpc {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderingStrategy;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::{UndirectedGraph, VertexId};

    #[test]
    fn never_policy_never_fires() {
        let d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        assert!(!MaintenancePolicy::NEVER.should_rebuild(&d));
    }

    #[test]
    fn update_count_trigger() {
        let d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        let mut managed = ManagedSpc::new(d, MaintenancePolicy::every(2));
        managed
            .apply(GraphUpdate::InsertEdge(VertexId(3), VertexId(9)))
            .unwrap();
        assert_eq!(managed.rebuilds(), 0);
        managed
            .apply(GraphUpdate::DeleteEdge(VertexId(3), VertexId(9)))
            .unwrap();
        assert_eq!(managed.rebuilds(), 1);
        assert_eq!(managed.inner().updates_since_build(), 0);
        verify_all_pairs(managed.inner().graph(), managed.inner().index()).unwrap();
    }

    /// Regression pin: the policy's full-rebuild branch replaces the index
    /// wholesale, so it MUST drop the facade's cached flat snapshot like
    /// every ordinary mutator does — otherwise `frozen_queries` would keep
    /// serving the pre-rebuild labels. Queries through the frozen engine
    /// after a policy-triggered rebuild must match the rebuilt live index.
    #[test]
    fn policy_rebuild_invalidates_frozen_snapshot() {
        let d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        let mut managed = ManagedSpc::new(d, MaintenancePolicy::every(1));
        managed.frozen_queries();
        assert!(managed.has_frozen_snapshot());
        // Every apply fires the policy: update repair, then a full rebuild.
        managed
            .apply(GraphUpdate::InsertEdge(VertexId(3), VertexId(9)))
            .unwrap();
        assert_eq!(managed.rebuilds(), 1);
        assert!(
            !managed.has_frozen_snapshot(),
            "rebuild must invalidate the frozen snapshot"
        );
        let vs: Vec<VertexId> = managed.inner().graph().vertices().collect();
        for &s in &vs {
            for &t in &vs {
                let live = managed.query(s, t);
                assert_eq!(managed.frozen_queries().query(s, t).as_option(), live);
            }
        }
        // Same contract on the batch path.
        managed
            .apply_batch(&[GraphUpdate::DeleteEdge(VertexId(3), VertexId(9))])
            .unwrap();
        assert_eq!(managed.rebuilds(), 2);
        assert!(!managed.has_frozen_snapshot());
        for &s in &vs {
            for &t in &vs {
                let live = managed.query(s, t);
                assert_eq!(managed.frozen_queries().query(s, t).as_option(), live);
            }
        }
        verify_all_pairs(managed.inner().graph(), managed.inner().index()).unwrap();
    }

    #[test]
    fn staleness_trigger() {
        // Star where the hub loses its edges: degree order inverts quickly.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let d = DynamicSpc::build(g, OrderingStrategy::Degree);
        let policy = MaintenancePolicy {
            max_staleness: Some(0.0),
            ..MaintenancePolicy::NEVER
        };
        let mut managed = ManagedSpc::new(d, policy);
        managed
            .apply(GraphUpdate::DeleteEdge(VertexId(0), VertexId(3)))
            .unwrap();
        managed
            .apply(GraphUpdate::DeleteEdge(VertexId(0), VertexId(4)))
            .unwrap();
        // Vertex 0 now has degree 2 like vertex 1/2 — inversions appear and
        // the policy rebuilds with a fresh order.
        assert!(managed.rebuilds() >= 1);
        verify_all_pairs(managed.inner().graph(), managed.inner().index()).unwrap();
    }
}
