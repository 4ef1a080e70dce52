//! End-to-end reproduction of every worked example in the paper, at the
//! integration level: Table 2's index, Figure 3's incremental walkthrough,
//! Figure 6's decremental walkthrough, and Example 2.1/2.2's queries —
//! exercised through the public `DynamicSpc` facade only.

use dspc::{DynamicSpc, OrderingStrategy};
use dspc_graph::generators::paper::figure2_g;
use dspc_graph::VertexId;

fn v(x: u32) -> VertexId {
    VertexId(x)
}

/// Table 2 of the paper: the complete SPC-Index of Figure 2's graph under
/// `v0 ≤ v1 ≤ … ≤ v11`.
type Table2Row = (u32, &'static [(u32, u32, u64)]);
const TABLE2: &[Table2Row] = &[
    (0, &[(0, 0, 1)]),
    (1, &[(0, 1, 1), (1, 0, 1)]),
    (2, &[(0, 1, 1), (1, 1, 1), (2, 0, 1)]),
    (3, &[(0, 1, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1)]),
    (4, &[(0, 3, 3), (1, 2, 1), (2, 2, 1), (3, 2, 1), (4, 0, 1)]),
    (5, &[(0, 2, 2), (1, 1, 1), (2, 1, 1), (4, 1, 1), (5, 0, 1)]),
    (6, &[(0, 2, 1), (1, 1, 1), (4, 3, 1), (6, 0, 1)]),
    (
        7,
        &[
            (0, 2, 1),
            (1, 3, 2),
            (2, 2, 1),
            (3, 1, 1),
            (4, 1, 1),
            (7, 0, 1),
        ],
    ),
    (8, &[(0, 1, 1), (2, 2, 1), (3, 1, 1), (8, 0, 1)]),
    (
        9,
        &[
            (0, 4, 4),
            (1, 3, 2),
            (2, 3, 1),
            (3, 3, 1),
            (4, 1, 1),
            (6, 2, 1),
            (9, 0, 1),
        ],
    ),
    (
        10,
        &[
            (0, 3, 1),
            (1, 2, 1),
            (3, 4, 1),
            (4, 2, 1),
            (6, 1, 1),
            (9, 1, 1),
            (10, 0, 1),
        ],
    ),
    (11, &[(0, 1, 1), (11, 0, 1)]),
];

#[test]
fn table2_is_reproduced_exactly() {
    let dspc = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
    let index = dspc.index();
    for &(vertex, expected) in TABLE2 {
        let got: Vec<(u32, u32, u64)> = index
            .label_set(v(vertex))
            .iter()
            .map(|e| (e.hub.0, e.dist, e.count))
            .collect();
        assert_eq!(got, expected.to_vec(), "L(v{vertex})");
    }
    // Identity ordering ⇒ hub rank == hub vertex id, so Table 2 reads off
    // directly. Total size: 50 entries.
    assert_eq!(index.num_entries(), 50);
}

#[test]
fn example_2_1_and_2_2() {
    let dspc = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
    // Example 2.1: SPC(v4, v6) = 2 at distance 3 via hubs {v1, v4}.
    assert_eq!(dspc.query(v(4), v(6)), Some((3, 2)));
    // Example 2.2: (v0,2,2) ∈ L(v5) is canonical (spc(v0,v5) = 2);
    // (v2,2,1) ∈ L(v8) is non-canonical (spc(v2,v8) = 2 > 1).
    assert_eq!(dspc.query(v(0), v(5)), Some((2, 2)));
    assert_eq!(dspc.query(v(2), v(8)), Some((2, 2)));
    let e = dspc.index().label_of(v(8), v(2)).unwrap();
    assert_eq!((e.dist, e.count), (2, 1));
}

#[test]
fn figure3_incremental_walkthrough() {
    let mut dspc = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
    let stats = dspc.insert_edge(v(3), v(9)).unwrap();

    // Figure 3(d)'s ledger, row by row (hub v0 block):
    let idx = dspc.index();
    let entry = |vv: u32, h: u32| {
        let e = idx.label_of(v(vv), v(h)).unwrap();
        (e.dist, e.count)
    };
    assert_eq!(entry(9, 0), (2, 1)); // renew d and c: (v0,2,1)
    assert_eq!(entry(4, 0), (3, 4)); // renew c: count 3 → 4
    assert_eq!(entry(10, 0), (3, 2)); // renew c: count 1 → 2
    assert_eq!(entry(9, 1), (3, 3)); // hub v1: renew c 2 → 3
    assert_eq!(entry(9, 2), (2, 1)); // hub v2: renew d and c
    assert_eq!(entry(10, 2), (3, 1)); // hub v2: fresh insert
    assert_eq!(entry(9, 3), (1, 1)); // the new edge itself under hub v3

    // The walkthrough's operation mix is visible in the stats.
    assert!(stats.renew_count >= 3);
    assert!(stats.renew_dist >= 2);
    assert!(stats.inserted >= 1);
    assert_eq!(stats.removed, 0);

    dspc::verify::verify_all_pairs(dspc.graph(), dspc.index()).unwrap();
}

#[test]
fn example_3_13_and_figure6_decremental_walkthrough() {
    let mut dspc = DynamicSpc::build(figure2_g(), OrderingStrategy::Identity);
    let (stats, srr) = dspc.delete_edge_with_sets(v(1), v(2)).unwrap();

    // Example 3.13: SR_v1 = {v1, v6, v10}, SR_v2 = {v2}, R_v2 = {v3, v7},
    // R_v1 = ∅.
    let sorted = |xs: &[VertexId]| {
        let mut s: Vec<u32> = xs.iter().map(|x| x.0).collect();
        s.sort_unstable();
        s
    };
    assert_eq!(sorted(&srr.sr_a), vec![1, 6, 10]);
    assert_eq!(sorted(&srr.sr_b), vec![2]);
    assert_eq!(sorted(&srr.r_a), Vec::<u32>::new());
    assert_eq!(sorted(&srr.r_b), vec![3, 7]);

    // Figure 6(d)'s ledger:
    let idx = dspc.index();
    let e = idx.label_of(v(2), v(1)).unwrap();
    assert_eq!((e.dist, e.count), (2, 1)); // (v1,1,1) → (v1,2,1)
    assert!(idx.label_of(v(3), v(1)).is_none()); // (v1,2,1) removed
    let e = idx.label_of(v(7), v(1)).unwrap();
    assert_eq!((e.dist, e.count), (3, 1)); // (v1,3,2) → (v1,3,1)
    let e = idx.label_of(v(10), v(2)).unwrap();
    assert_eq!((e.dist, e.count), (4, 1)); // fresh (v2,4,1)

    assert!(stats.removed >= 1);
    dspc::verify::verify_all_pairs(dspc.graph(), dspc.index()).unwrap();
}

#[test]
fn figure1_motivation_via_facade() {
    // Figure 1: recommend c (two shortest paths) over b (one).
    let g = dspc_graph::generators::paper::figure1_h();
    let dspc = DynamicSpc::build(g, OrderingStrategy::Degree);
    let (d_b, c_b) = dspc.query(v(0), v(3)).unwrap();
    let (d_c, c_c) = dspc.query(v(0), v(4)).unwrap();
    assert_eq!(d_b, d_c, "equidistant candidates");
    assert!(c_c > c_b, "c has strictly more shortest paths");
}

#[test]
fn figure4_toy_decremental_rerouting() {
    // Figure 4: after deleting (a, b), (h,3,1) ∈ L(u) becomes (h,6,1) and
    // (w,5,1) appears though w labeled neither endpoint (condition B).
    let g = dspc_graph::generators::paper::figure4_toy();
    let mut dspc = DynamicSpc::build(g, OrderingStrategy::Identity);
    dspc.delete_edge(v(2), v(3)).unwrap();
    let e = dspc.index().label_of(v(4), v(0)).unwrap();
    assert_eq!((e.dist, e.count), (6, 1));
    let e = dspc.index().label_of(v(4), v(1)).unwrap();
    assert_eq!((e.dist, e.count), (5, 1));
    dspc::verify::verify_all_pairs(dspc.graph(), dspc.index()).unwrap();
}
