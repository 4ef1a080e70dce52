//! Ablation bench: DecSPC's SR-restricted hub set vs the naive
//! all-affected-vertices baseline (§2.3's argument against reusing
//! SD-Index affected-set definitions), with full reconstruction for scale.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dspc::dec::{DecMode, DecSpc};
use dspc::{build_index, rebuild_index, OrderingStrategy};
use dspc_bench::datasets::find;
use dspc_bench::workload::sample_deletions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dec_modes(c: &mut Criterion) {
    let d = find("NTD-S").expect("registry key");
    let g0 = d.generate(0.12);
    let index0 = build_index(&g0, OrderingStrategy::Degree);
    let mut rng = StdRng::seed_from_u64(17);
    let deletions = sample_deletions(&g0, 64, &mut rng);

    let mut group = c.benchmark_group("ablation_dec");
    group.sample_size(10);
    for (name, mode) in [
        ("sr_only", DecMode::SrOnly),
        ("naive_affected", DecMode::NaiveAffected),
    ] {
        group.bench_function(BenchmarkId::new("delete", name), |b| {
            let mut i = 0usize;
            let mut engine = DecSpc::new(g0.capacity());
            b.iter_batched(
                || (g0.clone(), index0.clone()),
                |(mut g, mut index)| {
                    let (a, bb) = deletions[i % deletions.len()];
                    i += 1;
                    engine
                        .delete_edge_with_mode(&mut g, &mut index, a, bb, mode, 1)
                        .unwrap();
                    index
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.bench_function(BenchmarkId::new("delete", "rebuild"), |b| {
        let mut i = 0usize;
        b.iter_batched(
            || {
                let mut g = g0.clone();
                let (a, bb) = deletions[i % deletions.len()];
                i += 1;
                g.delete_edge(a, bb).unwrap();
                g
            },
            |g| rebuild_index(&g, index0.ranks().clone()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_dec_modes);
criterion_main!(benches);
