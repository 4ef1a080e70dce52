//! Helpers shared by the workspace integration tests (`mod common;`).

#![allow(dead_code)]

use dspc::directed::ArcUpdate;
use dspc::weighted::WeightedUpdate;
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, WeightedGraph};
use proptest::prelude::*;

/// Strategy: a small random graph as (n, edge list).
pub fn graph_strategy(max_n: usize) -> impl Strategy<Value = UndirectedGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(3 * n))
            .prop_map(move |edges| UndirectedGraph::from_edges(n, &edges))
    })
}

/// Valid-in-sequence arc batches from `picks`: an even pick deletes an
/// existing arc, an odd pick inserts the non-arc it names (or nothing).
pub fn arc_batches(g: &DirectedGraph, picks: &[usize]) -> Vec<Vec<ArcUpdate>> {
    let mut shadow = g.clone();
    let n = g.capacity();
    picks
        .chunks(3)
        .map(|chunk| {
            let mut batch = Vec::new();
            for &pick in chunk {
                let m = shadow.num_arcs();
                if pick % 2 == 0 && m > 0 {
                    let (a, b) = shadow.arcs().nth(pick / 2 % m).unwrap();
                    shadow.delete_arc(a, b).unwrap();
                    batch.push(ArcUpdate::DeleteArc(a, b));
                } else {
                    let (a, b) = (
                        VertexId((pick / 2 % n) as u32),
                        VertexId((pick / 7 % n) as u32),
                    );
                    if a != b && !shadow.has_arc(a, b) {
                        shadow.insert_arc(a, b).unwrap();
                        batch.push(ArcUpdate::InsertArc(a, b));
                    }
                }
            }
            batch
        })
        .collect()
}

/// Valid-in-sequence weighted batches from `picks`: deletions, weight
/// changes of existing edges, and insertions of weight 1–5.
pub fn weighted_batches(g: &WeightedGraph, picks: &[usize]) -> Vec<Vec<WeightedUpdate>> {
    let mut shadow = g.clone();
    let n = g.capacity();
    picks
        .chunks(3)
        .map(|chunk| {
            let mut batch = Vec::new();
            for &pick in chunk {
                let m = shadow.num_edges();
                let w = 1 + (pick / 3 % 5) as u32;
                if pick % 3 != 2 && m > 0 {
                    let (a, b, old) = shadow.edges().nth(pick / 3 % m).unwrap();
                    if pick % 3 == 0 {
                        shadow.delete_edge(a, b).unwrap();
                        batch.push(WeightedUpdate::DeleteEdge(a, b));
                    } else if w != old {
                        shadow.set_weight(a, b, w).unwrap();
                        batch.push(WeightedUpdate::SetWeight(a, b, w));
                    }
                } else {
                    let (a, b) = (
                        VertexId((pick / 2 % n) as u32),
                        VertexId((pick / 7 % n) as u32),
                    );
                    if a != b && !shadow.has_edge(a, b) {
                        shadow.insert_edge(a, b, w).unwrap();
                        batch.push(WeightedUpdate::InsertEdge(a, b, w));
                    }
                }
            }
            batch
        })
        .collect()
}
