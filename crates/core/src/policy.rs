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
//!    repair them together: one purge scan, then each pair's re-push in
//!    rank order.
//! 3. **Full rebuild** — the update cliff
//!    ([`MaintenancePolicy::max_updates`]) or the staleness cliff
//!    ([`MaintenancePolicy::max_staleness`]) fired; reconstruct with a
//!    fresh order, exactly as before.
//!
//! Every facade carries a policy ([`Dynamic::set_policy`], default
//! [`MaintenancePolicy::NEVER`]) and runs it once at the end of each
//! [`Dynamic::apply`] and [`Dynamic::apply_batch`] call, for all three
//! graph variants. The decision reads the staleness off one scan of the
//! rank pairs ([`Dynamic::staleness`]), taken only when the policy sets a
//! staleness threshold. The single-purpose mutators (`insert_edge`,
//! `delete_edge`, `delete_edges`, the vertex ops, `rerank_adjacent` and
//! `rebuild`) never run it.

use crate::dynamic::Dynamic;
use crate::engine::{MaintenanceCounters, Variant};
use crate::label::Rank;
use crate::order::{degree_order_staleness, plan_adjacent_swaps};

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
    /// Most adjacent swaps one batched-tier response may repair (planned
    /// rounds, each repaired with one purge scan).
    pub batched_swap_budget: usize,
}

/// The response [`MaintenancePolicy::action`] selects, most severe wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// Nothing due.
    None,
    /// Repair a few inversions one swap at a time
    /// ([`crate::reorder::rerank_adjacent`] with single-swap plans).
    LocalRerank,
    /// Repair a planned run of non-overlapping swaps together
    /// ([`crate::reorder::rerank_adjacent`]).
    BatchedRerank,
    /// Reconstruct with a fresh order ([`Dynamic::rebuild`]).
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

    /// Whether any tier reads the staleness.
    fn reads_staleness(&self) -> bool {
        self.max_staleness.is_some()
            || self.batched_staleness.is_some()
            || self.local_staleness.is_some()
    }
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy::NEVER
    }
}

impl<V: Variant> Dynamic<V> {
    /// Sets the policy [`Dynamic::apply`] and [`Dynamic::apply_batch`] run
    /// after each call.
    pub fn set_policy(&mut self, policy: MaintenancePolicy) {
        self.policy = policy;
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

    /// Current degree-order staleness
    /// ([`crate::order::degree_order_staleness`] under the variant's
    /// degree). An O(n) scan of every adjacent rank pair.
    pub fn staleness(&self) -> f64 {
        degree_order_staleness(self.index().ranks(), |v| V::degree(self.graph(), v))
    }

    /// Plans up to `budget` non-overlapping adjacent rank swaps against
    /// the current degree order, largest inversions first
    /// ([`crate::order::plan_adjacent_swaps`]).
    pub fn plan_rerank(&self, budget: usize) -> Vec<Rank> {
        plan_adjacent_swaps(self.index().ranks(), |v| V::degree(self.graph(), v), budget)
    }

    /// Runs the severest due maintenance response; returns the counters of
    /// any re-rank work performed.
    pub(crate) fn maintain(&mut self) -> MaintenanceCounters {
        let policy = self.policy;
        let staleness = if policy.reads_staleness() {
            self.staleness()
        } else {
            0.0
        };
        let mut extra = MaintenanceCounters::default();
        match policy.action(self.updates_since_build(), staleness) {
            MaintenanceAction::None => {}
            MaintenanceAction::Rebuild => {
                self.rebuild();
                self.rebuilds += 1;
            }
            MaintenanceAction::LocalRerank => {
                // One committed swap at a time, re-picking the largest
                // inversion after each repair so a displaced vertex can
                // climb several positions within the budget.
                for _ in 0..policy.local_swap_budget {
                    let Some(&r) = self.plan_rerank(1).first() else {
                        break;
                    };
                    extra.absorb(&self.rerank_adjacent(&[r]));
                    if policy
                        .local_staleness
                        .is_some_and(|limit| self.staleness() <= limit)
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
                let mut budget = policy.batched_swap_budget;
                while budget > 0 {
                    let plan = self.plan_rerank(budget);
                    if plan.is_empty() {
                        break;
                    }
                    budget -= plan.len();
                    extra.absorb(&self.rerank_adjacent(&plan));
                    if policy
                        .batched_staleness
                        .is_some_and(|limit| self.staleness() <= limit)
                    {
                        break;
                    }
                }
            }
        }
        self.rerank_totals.absorb(&extra);
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynamicSpc, GraphUpdate};
    use crate::order::OrderingStrategy;
    use crate::verify::verify_all_pairs;
    use dspc_graph::generators::paper::figure2_g;
    use dspc_graph::{UndirectedGraph, VertexId};

    #[test]
    fn never_policy_never_fires() {
        let mut d = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        assert_eq!(d.policy(), MaintenancePolicy::NEVER);
        assert_eq!(
            MaintenancePolicy::NEVER.action(usize::MAX, 1.0),
            MaintenanceAction::None
        );
        d.apply(GraphUpdate::InsertEdge(VertexId(3), VertexId(9)))
            .unwrap();
        d.apply_batch(&[GraphUpdate::DeleteEdge(VertexId(3), VertexId(9))])
            .unwrap();
        assert_eq!((d.rebuilds(), d.updates_since_build()), (0, 2));
        assert_eq!(d.rerank_totals(), MaintenanceCounters::default());
    }

    #[test]
    fn update_count_trigger() {
        let mut managed = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        managed.set_policy(MaintenancePolicy::every(2));
        managed
            .apply(GraphUpdate::InsertEdge(VertexId(3), VertexId(9)))
            .unwrap();
        assert_eq!(managed.rebuilds(), 0);
        managed
            .apply(GraphUpdate::DeleteEdge(VertexId(3), VertexId(9)))
            .unwrap();
        assert_eq!(managed.rebuilds(), 1);
        assert_eq!(managed.updates_since_build(), 0);
        verify_all_pairs(managed.graph(), managed.index()).unwrap();
    }

    /// Regression pin: the policy's full-rebuild branch replaces the index
    /// wholesale, so a snapshot published after a policy-triggered rebuild
    /// must answer like the rebuilt live index, on the single-update and the
    /// batch path alike.
    #[test]
    fn policy_rebuild_invalidates_frozen_snapshot() {
        let mut managed = DynamicSpc::build(figure2_g(), OrderingStrategy::Degree);
        managed.set_policy(MaintenancePolicy::every(1));
        let vs: Vec<VertexId> = managed.graph().vertices().collect();
        let check = |managed: &mut DynamicSpc| {
            let snapshot = managed.publish(1);
            for &s in &vs {
                for &t in &vs {
                    assert_eq!(snapshot.query(s, t).as_option(), managed.query(s, t));
                }
            }
        };
        check(&mut managed);
        // Every apply fires the policy: update repair, then a full rebuild.
        managed
            .apply(GraphUpdate::InsertEdge(VertexId(3), VertexId(9)))
            .unwrap();
        assert_eq!(managed.rebuilds(), 1);
        check(&mut managed);
        managed
            .apply_batch(&[GraphUpdate::DeleteEdge(VertexId(3), VertexId(9))])
            .unwrap();
        assert_eq!(managed.rebuilds(), 2);
        check(&mut managed);
        verify_all_pairs(managed.graph(), managed.index()).unwrap();
    }

    #[test]
    fn staleness_trigger() {
        // Star where the hub loses its edges: degree order inverts quickly.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        let mut managed = DynamicSpc::build(g, OrderingStrategy::Degree);
        managed.set_policy(MaintenancePolicy {
            max_staleness: Some(0.0),
            ..MaintenancePolicy::NEVER
        });
        managed
            .apply(GraphUpdate::DeleteEdge(VertexId(0), VertexId(3)))
            .unwrap();
        managed
            .apply(GraphUpdate::DeleteEdge(VertexId(0), VertexId(4)))
            .unwrap();
        // Vertex 0 now has degree 2 like vertex 1/2 — inversions appear and
        // the policy rebuilds with a fresh order.
        assert!(managed.rebuilds() >= 1);
        verify_all_pairs(managed.graph(), managed.index()).unwrap();
    }
}
