//! Cross-crate integration tests: dataset registry → construction →
//! dynamic maintenance → applications → serialization, end to end.

use dspc::policy::MaintenancePolicy;
use dspc::verify::{verify_all_pairs, verify_sampled_pairs};
use dspc::{DynamicSpc, OrderingStrategy};
use dspc_graph::generators::random::{barabasi_albert, erdos_renyi_gnm, watts_strogatz};
use dspc_graph::{UndirectedGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drives a long mixed update stream on a scale-free graph and verifies the
/// maintained index, an independently rebuilt index, and BFS all agree.
#[test]
fn long_hybrid_stream_three_way_agreement() {
    let mut rng = StdRng::seed_from_u64(0x1001);
    let g = barabasi_albert(150, 2, &mut rng);
    let mut dspc = DynamicSpc::build(g, OrderingStrategy::Degree);
    for step in 0..120 {
        let roll: f64 = rng.gen();
        if roll < 0.55 || dspc.graph().num_edges() < 10 {
            loop {
                let a = VertexId(rng.gen_range(0..dspc.graph().capacity() as u32));
                let b = VertexId(rng.gen_range(0..dspc.graph().capacity() as u32));
                if a != b
                    && dspc.graph().contains_vertex(a)
                    && dspc.graph().contains_vertex(b)
                    && !dspc.graph().has_edge(a, b)
                {
                    dspc.insert_edge(a, b).unwrap();
                    break;
                }
            }
        } else if roll < 0.85 {
            let m = dspc.graph().num_edges();
            let (a, b) = dspc.graph().nth_edge(rng.gen_range(0..m)).unwrap();
            dspc.delete_edge(a, b).unwrap();
        } else if roll < 0.93 {
            let neighbors: Vec<VertexId> = dspc
                .graph()
                .vertices()
                .filter(|_| rng.gen_bool(0.02))
                .take(3)
                .collect();
            dspc.add_vertex_connected(&neighbors).unwrap();
        } else {
            let candidates: Vec<VertexId> = dspc.graph().vertices().collect();
            let v = candidates[rng.gen_range(0..candidates.len())];
            dspc.delete_vertex(v).unwrap();
        }
        if step % 30 == 29 {
            verify_all_pairs(dspc.graph(), dspc.index()).unwrap();
            dspc.index().check_invariants().unwrap();
        }
    }
    verify_all_pairs(dspc.graph(), dspc.index()).unwrap();

    // Independent rebuild answers identically on every pair.
    let rebuilt = dspc::rebuild_index(dspc.graph(), dspc.index().ranks().clone());
    for s in dspc.graph().vertices() {
        for t in dspc.graph().vertices() {
            assert_eq!(
                dspc::spc_query(dspc.index(), s, t),
                dspc::spc_query(&rebuilt, s, t)
            );
        }
    }
}

#[test]
fn serialization_round_trip_mid_stream() {
    let mut rng = StdRng::seed_from_u64(0x1002);
    let g = erdos_renyi_gnm(80, 200, &mut rng);
    let mut dspc = DynamicSpc::build(g, OrderingStrategy::Degree);
    for _ in 0..20 {
        loop {
            let a = VertexId(rng.gen_range(0..80));
            let b = VertexId(rng.gen_range(0..80));
            if a != b && !dspc.graph().has_edge(a, b) {
                dspc.insert_edge(a, b).unwrap();
                break;
            }
        }
    }
    // Snapshot the (stale-label-bearing) maintained index and restore it.
    let bytes = dspc::serialize::encode_index(dspc.index());
    let restored = dspc::serialize::decode_index(&bytes).unwrap();
    verify_all_pairs(dspc.graph(), &restored).unwrap();
    assert_eq!(restored.num_entries(), dspc.index().num_entries());
}

#[test]
fn managed_policy_over_dataset_registry() {
    let dataset = dspc_bench::datasets::find("EUA-S").unwrap();
    let g = dataset.generate(0.05);
    let mut rng = StdRng::seed_from_u64(0x1003);
    let mut managed = DynamicSpc::build(g, OrderingStrategy::Degree);
    managed.set_policy(MaintenancePolicy::every(10));
    for _ in 0..25 {
        let (a, b) = loop {
            let a = VertexId(rng.gen_range(0..managed.graph().capacity() as u32));
            let b = VertexId(rng.gen_range(0..managed.graph().capacity() as u32));
            if a != b && !managed.graph().has_edge(a, b) {
                break (a, b);
            }
        };
        managed
            .apply(dspc::dynamic::GraphUpdate::InsertEdge(a, b))
            .unwrap();
    }
    assert_eq!(managed.rebuilds(), 2);
    verify_sampled_pairs(managed.graph(), managed.index(), 500, &mut rng).unwrap();
}

#[test]
fn applications_survive_churn() {
    let mut rng = StdRng::seed_from_u64(0x1004);
    let g = watts_strogatz(120, 3, 0.2, &mut rng);
    let mut dspc = DynamicSpc::build(g, OrderingStrategy::Degree);
    for round in 0..5 {
        // Churn.
        for _ in 0..5 {
            loop {
                let a = VertexId(rng.gen_range(0..120));
                let b = VertexId(rng.gen_range(0..120));
                if a != b && !dspc.graph().has_edge(a, b) {
                    dspc.insert_edge(a, b).unwrap();
                    break;
                }
            }
        }
        let m = dspc.graph().num_edges();
        let (a, b) = dspc.graph().nth_edge(rng.gen_range(0..m)).unwrap();
        dspc.delete_edge(a, b).unwrap();

        // Betweenness via index must match Brandes on the live graph.
        let v = VertexId((round * 17 % 120) as u32);
        let via_index = dspc_apps::betweenness::vertex_betweenness(&dspc, v);
        let brandes = dspc_apps::betweenness::brandes_betweenness(dspc.graph());
        assert!(
            (via_index - brandes[v.index()]).abs() < 1e-6,
            "round {round}: {via_index} vs {}",
            brandes[v.index()]
        );

        // Recommendations must only propose non-neighbors.
        let recs = dspc_apps::recommendation::recommend_links(&dspc, v, 10, 3);
        for r in &recs {
            assert!(!dspc.graph().has_edge(v, r.candidate));
        }
    }
}

#[test]
fn edge_list_io_feeds_the_index() {
    // Write a generated graph to the SNAP text format, read it back, build
    // and verify — the ingestion path a real deployment would use.
    let mut rng = StdRng::seed_from_u64(0x1006);
    let g = erdos_renyi_gnm(60, 150, &mut rng);
    let mut buf = Vec::new();
    dspc_graph::io::write_edge_list(&g, &mut buf).unwrap();
    let parsed = dspc_graph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(parsed.num_edges(), g.num_edges());
    let dspc = DynamicSpc::build(parsed, OrderingStrategy::Degree);
    verify_all_pairs(dspc.graph(), dspc.index()).unwrap();
}

#[test]
fn empty_and_degenerate_graphs() {
    // Empty graph.
    let d = DynamicSpc::build(UndirectedGraph::new(), OrderingStrategy::Degree);
    assert_eq!(d.index_stats().entries, 0);
    // Single vertex.
    let mut d = DynamicSpc::build(UndirectedGraph::with_vertices(1), OrderingStrategy::Degree);
    assert_eq!(d.query(VertexId(0), VertexId(0)), Some((0, 1)));
    // Grow from nothing.
    let v1 = d.add_vertex();
    d.insert_edge(VertexId(0), v1).unwrap();
    assert_eq!(d.query(VertexId(0), v1), Some((1, 1)));
    // Shrink back to nothing.
    d.delete_edge(VertexId(0), v1).unwrap();
    assert_eq!(d.query(VertexId(0), v1), None);
    verify_all_pairs(d.graph(), d.index()).unwrap();
}
