//! Criterion bench: dynamic maintenance vs reconstruction (the paper's
//! headline claim, Table 4): one IncSPC insertion, one DecSPC deletion, and
//! one full HP-SPC rebuild on the same graph.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dspc::dec::DecSpc;
use dspc::inc::IncSpc;
use dspc::{build_index, rebuild_index, OrderingStrategy};
use dspc_bench::datasets::find;
use dspc_bench::workload::{sample_deletions, sample_insertions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("update");
    group.sample_size(10);
    for key in ["EUA-S", "GOO-S"] {
        let d = find(key).expect("registry key");
        let g0 = d.generate(0.12);
        let index0 = build_index(&g0, OrderingStrategy::Degree);
        let mut rng = StdRng::seed_from_u64(7);
        let insertions = sample_insertions(&g0, 64, &mut rng);
        let deletions = sample_deletions(&g0, 64, &mut rng);

        group.bench_function(BenchmarkId::new("inc_spc", key), |b| {
            let mut i = 0usize;
            let mut engine = IncSpc::new(g0.capacity());
            b.iter_batched(
                || (g0.clone(), index0.clone()),
                |(mut g, mut index)| {
                    let (a, bb) = insertions[i % insertions.len()];
                    i += 1;
                    g.insert_edge(a, bb).unwrap();
                    engine.insert_edge(&g, &mut index, a, bb);
                    index
                },
                BatchSize::LargeInput,
            )
        });

        group.bench_function(BenchmarkId::new("dec_spc", key), |b| {
            let mut i = 0usize;
            let mut engine = DecSpc::new(g0.capacity());
            b.iter_batched(
                || (g0.clone(), index0.clone()),
                |(mut g, mut index)| {
                    let (a, bb) = deletions[i % deletions.len()];
                    i += 1;
                    engine.delete_edge(&mut g, &mut index, a, bb, 1).unwrap();
                    index
                },
                BatchSize::LargeInput,
            )
        });

        group.bench_function(BenchmarkId::new("rebuild", key), |b| {
            let mut i = 0usize;
            b.iter_batched(
                || {
                    let mut g = g0.clone();
                    let (a, bb) = insertions[i % insertions.len()];
                    i += 1;
                    g.insert_edge(a, bb).unwrap();
                    g
                },
                |g| rebuild_index(&g, index0.ranks().clone()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
