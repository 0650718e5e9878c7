//! Attack-pipeline scaling benchmarks and the defense-layer ablation:
//! synthesis + measurement cost as N grows, with and without dependencies,
//! distributions and generalization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mp_core::{measure_all, run_attack, ExperimentConfig};
use mp_datasets::{all_classes_spec, echocardiogram, verified_dependencies};
use mp_federated::{bloom_candidate_rows, multi_align, BloomFilter};
use mp_metadata::{DomainGeneralization, MetadataPackage};
use mp_synth::{Adversary, SynthConfig};
use std::hint::black_box;

fn bench_attack_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack_scaling");
    for rows in [200usize, 2_000, 20_000] {
        let real = all_classes_spec(rows, 5).generate().unwrap();
        let pkg = MetadataPackage::describe("p", &real.relation, real.planted.clone()).unwrap();
        let adversary = Adversary::new(pkg);
        group.bench_function(BenchmarkId::new("synthesize_with_deps", rows), |b| {
            b.iter(|| {
                adversary
                    .synthesize(black_box(&SynthConfig::with_dependencies(rows, 1)))
                    .unwrap()
            })
        });
        let syn = adversary
            .synthesize(&SynthConfig::with_dependencies(rows, 1))
            .unwrap();
        group.bench_function(BenchmarkId::new("measure_all", rows), |b| {
            b.iter(|| measure_all(black_box(&real.relation), black_box(&syn), 1.0).unwrap())
        });
    }
    group.finish();
}

fn bench_full_rounds(c: &mut Criterion) {
    let real = echocardiogram();
    let pkg = MetadataPackage::describe("h", &real, verified_dependencies()).unwrap();
    let mut group = c.benchmark_group("attack_rounds_echocardiogram");
    for rounds in [1usize, 10] {
        let config = ExperimentConfig {
            rounds,
            base_seed: 1,
            epsilon: 0.0,
        };
        group.bench_function(BenchmarkId::from_parameter(rounds), |b| {
            b.iter(|| run_attack(black_box(&real), black_box(&pkg), true, &config).unwrap())
        });
    }
    group.finish();
}

fn bench_defense_layers(c: &mut Criterion) {
    let real = echocardiogram();
    let pkg = MetadataPackage::describe("h", &real, vec![]).unwrap();
    let mut group = c.benchmark_group("defense_layers");
    group.bench_function("generalize_package", |b| {
        let g = DomainGeneralization::default();
        b.iter(|| g.apply(black_box(&pkg), black_box(&real)).unwrap())
    });
    group.bench_function("k_anonymity_qi2", |b| {
        b.iter(|| mp_core::k_anonymity(black_box(&real), &[2, 7]).unwrap())
    });
    group.bench_function("bucketize_column", |b| {
        b.iter(|| mp_core::bucketize_column(black_box(&real), 2, 5.0).unwrap())
    });
    group.finish();
}

fn bench_psi_variants(c: &mut Criterion) {
    // Ablation: digest PSI (exact, linear communication) vs Bloom-filter
    // candidate generation (fixed communication, false positives).
    let data = mp_datasets::fintech_scenario(20_000, 3);
    let a = data.bank.relation.column_values(0).unwrap();
    let b = data.ecommerce.relation.column_values(0).unwrap();
    let mut group = c.benchmark_group("psi_variants");
    group.bench_function("digest_align", |bench| {
        bench.iter(|| multi_align(black_box(&[&a, &b]), 42))
    });
    group.bench_function("bloom_build_and_probe", |bench| {
        bench.iter(|| {
            let mut f = BloomFilter::with_capacity(a.len(), 4, 42);
            for id in &a {
                f.insert(id);
            }
            bloom_candidate_rows(&f, black_box(&b))
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    // Keep full-workspace bench runs fast: fewer samples and short
    // measurement windows; pass Criterion CLI flags to override.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700));
    targets = bench_attack_scaling,
    bench_full_rounds,
    bench_defense_layers,
    bench_psi_variants

);
criterion_main!(benches);
