//! Pins the work of single-edge deletion (`Pipeline::delete_one`, the
//! paper's Algorithm 4) on every variant.
//!
//! The bench_smoke counter gate only sees deletion batches of two or more
//! edges, which classify through the multi-edge path. These seeded streams
//! delete one edge at a time: undirected edges through
//! `delete_edge_with_sets`, arcs through `delete_arc`, and weight increases
//! through `set_weight`. The summed counters (every field not named is
//! zero) and `SR`/`R` set sizes are exact, the same at one maintenance
//! thread and at two, so a change to classification or repair that moves
//! any of them fails here.

use dspc::directed::DynamicDirectedSpc;
use dspc::verify::{verify_all_pairs, verify_directed_all_pairs, verify_weighted_all_pairs};
use dspc::weighted::DynamicWeightedSpc;
use dspc::{DynamicSpc, MaintenanceCounters, MaintenanceThreads, OrderingStrategy};
use dspc_graph::generators::random::{
    barabasi_albert, erdos_renyi_gnm, random_orientation, random_weights,
};
use dspc_graph::UndirectedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deletions per stream.
const STEPS: usize = 24;

/// Summed `|SR_a| + |SR_b|` and `|R_a| + |R_b|`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sets {
    sr: usize,
    r: usize,
}

/// Deletes `STEPS` random edges of `g` one by one under `strategy`.
fn undirected(
    g: UndirectedGraph,
    strategy: OrderingStrategy,
    seed: u64,
) -> (MaintenanceCounters, Sets) {
    let mut out = Vec::new();
    for threads in [1, 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = DynamicSpc::build(g.clone(), strategy);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let (mut work, mut sets) = (MaintenanceCounters::default(), Sets::default());
        for _ in 0..STEPS {
            let i = rng.gen_range(0..d.graph().num_edges());
            let (a, b) = d.graph().nth_edge(i).unwrap();
            let (stats, srr) = d.delete_edge_with_sets(a, b).unwrap();
            work.absorb(&stats);
            sets.sr += srr.sr_a.len() + srr.sr_b.len();
            sets.r += srr.r_a.len() + srr.r_b.len();
        }
        verify_all_pairs(d.graph(), d.index()).unwrap();
        out.push((work, sets));
    }
    assert_eq!(out[0], out[1], "one thread against two");
    out[0]
}

#[test]
fn undirected_single_edge_deletions() {
    let mut rng = StdRng::seed_from_u64(71);
    let ba = barabasi_albert(300, 3, &mut rng);
    let er = erdos_renyi_gnm(200, 500, &mut rng);
    let cases = [
        (ba.clone(), OrderingStrategy::Degree, 1),
        (ba, OrderingStrategy::Random(5), 2),
        (er, OrderingStrategy::Identity, 3),
    ];
    let got: Vec<(MaintenanceCounters, Sets)> = cases
        .into_iter()
        .map(|(g, strategy, seed)| undirected(g, strategy, seed))
        .collect();
    let want = [
        (
            MaintenanceCounters {
                classify_sweeps: 48,
                vertices_visited: 79023,
                hubs_processed: 1182,
                renew_count: 279,
                renew_dist: 64,
                inserted: 55,
                removed: 310,
                removal_probes: 228016,
                prune_probes: 566670,
                ..MaintenanceCounters::default()
            },
            Sets { sr: 1182, r: 3055 },
        ),
        (
            MaintenanceCounters {
                classify_sweeps: 48,
                vertices_visited: 309506,
                hubs_processed: 1806,
                renew_count: 2731,
                renew_dist: 510,
                inserted: 422,
                removed: 555,
                removal_probes: 1068181,
                prune_probes: 11996372,
                ..MaintenanceCounters::default()
            },
            Sets { sr: 1806, r: 2946 },
        ),
        (
            MaintenanceCounters {
                classify_sweeps: 48,
                vertices_visited: 176786,
                hubs_processed: 1786,
                renew_count: 1920,
                renew_dist: 627,
                inserted: 237,
                removed: 814,
                removal_probes: 493151,
                prune_probes: 4952520,
                ..MaintenanceCounters::default()
            },
            Sets { sr: 1786, r: 1463 },
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn directed_single_arc_deletions() {
    let mut rng = StdRng::seed_from_u64(72);
    let g = random_orientation(&erdos_renyi_gnm(200, 700, &mut rng), 0.3, &mut rng);
    let mut out = Vec::new();
    for threads in [1, 2] {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = DynamicDirectedSpc::build(g.clone(), OrderingStrategy::Degree);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let mut work = MaintenanceCounters::default();
        for _ in 0..STEPS {
            let i = rng.gen_range(0..d.graph().num_arcs());
            let (a, b) = d.graph().arcs().nth(i).unwrap();
            work.absorb(&d.delete_arc(a, b).unwrap());
        }
        verify_directed_all_pairs(d.graph(), d.index()).unwrap();
        out.push(work);
    }
    assert_eq!(out[0], out[1], "one thread against two");
    assert_eq!(
        out[0],
        MaintenanceCounters {
            classify_sweeps: 48,
            vertices_visited: 110547,
            hubs_processed: 1659,
            renew_count: 887,
            renew_dist: 340,
            inserted: 239,
            removed: 602,
            removal_probes: 459055,
            prune_probes: 1466511,
            ..MaintenanceCounters::default()
        }
    );
}

#[test]
fn weighted_single_edge_weight_increases() {
    let mut rng = StdRng::seed_from_u64(73);
    let g = random_weights(&erdos_renyi_gnm(200, 600, &mut rng), 5, &mut rng);
    let mut out = Vec::new();
    for threads in [1, 2] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = DynamicWeightedSpc::build(g.clone(), OrderingStrategy::Degree);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
        let mut work = MaintenanceCounters::default();
        for _ in 0..STEPS {
            let i = rng.gen_range(0..d.graph().num_edges());
            let (a, b, w) = d.graph().edges().nth(i).unwrap();
            let raised = w + rng.gen_range(1..=4u32);
            work.absorb(&d.set_weight(a, b, raised).unwrap());
        }
        verify_weighted_all_pairs(d.graph(), d.index()).unwrap();
        out.push(work);
    }
    assert_eq!(out[0], out[1], "one thread against two");
    assert_eq!(
        out[0],
        MaintenanceCounters {
            classify_sweeps: 48,
            vertices_visited: 66280,
            hubs_processed: 1241,
            renew_count: 151,
            renew_dist: 268,
            inserted: 85,
            removed: 193,
            removal_probes: 128316,
            prune_probes: 716121,
            ..MaintenanceCounters::default()
        }
    );
}
