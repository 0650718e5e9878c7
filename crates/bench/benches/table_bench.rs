//! Timing of the table regeneration cells (one per paper table) and of
//! the federated substrate — PSI and training.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mp_bench::tables;
use mp_core::ExperimentConfig;
use mp_datasets::{echocardiogram, fintech_scenario};
use mp_federated::{multi_align, train, FeatureBlock, TrainConfig};
use mp_relation::Domain;
use std::hint::black_box;

fn bench_table4_cells(c: &mut Criterion) {
    let real = echocardiogram();
    let domains = Domain::infer_all(&real).unwrap();
    let config = ExperimentConfig {
        rounds: 10,
        base_seed: 1,
        epsilon: 0.0,
    };
    let mut group = c.benchmark_group("table4_cells");
    for (_, class) in tables::ROWS {
        group.bench_function(BenchmarkId::from_parameter(class), |b| {
            b.iter(|| {
                for &attr in &mp_datasets::CATEGORICAL_ATTRS {
                    black_box(tables::cell(&real, &domains, class, attr, &config));
                }
            })
        });
    }
    group.finish();
}

fn bench_table3_cells(c: &mut Criterion) {
    let real = echocardiogram();
    let domains = Domain::infer_all(&real).unwrap();
    let config = ExperimentConfig {
        rounds: 10,
        base_seed: 1,
        epsilon: 0.0,
    };
    let mut group = c.benchmark_group("table3_cells");
    for (_, class) in tables::ROWS {
        group.bench_function(BenchmarkId::from_parameter(class), |b| {
            b.iter(|| {
                for &attr in &mp_datasets::CONTINUOUS_ATTRS {
                    black_box(tables::cell(&real, &domains, class, attr, &config));
                }
            })
        });
    }
    group.finish();
}

fn bench_psi(c: &mut Criterion) {
    let mut group = c.benchmark_group("psi_align");
    for n in [1_000usize, 50_000] {
        let data = fintech_scenario(n, 5);
        let ids_a = data.bank.relation.column_values(0).unwrap();
        let ids_b = data.ecommerce.relation.column_values(0).unwrap();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| multi_align(black_box(&[&ids_a, &ids_b]), 42))
        });
    }
    group.finish();
}

fn bench_federated_training(c: &mut Criterion) {
    let data = fintech_scenario(2_000, 9);
    let labels: Vec<f64> = data
        .bank
        .relation
        .column(5)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap_or(0.0))
        .collect();
    let bank = FeatureBlock::encode(&data.bank.relation, &[1, 2, 3, 4]).unwrap();
    c.bench_function("federated_train_50_epochs", |b| {
        b.iter(|| {
            train(
                vec![black_box(bank.clone())],
                &labels,
                &TrainConfig {
                    epochs: 50,
                    lr: 0.5,
                    l2: 1e-4,
                },
            )
        })
    });
}

criterion_group!(
    name = benches;
    // Keep full-workspace bench runs fast: fewer samples and short
    // measurement windows; pass Criterion CLI flags to override.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700));
    targets = bench_table4_cells,
    bench_table3_cells,
    bench_psi,
    bench_federated_training

);
criterion_main!(benches);
