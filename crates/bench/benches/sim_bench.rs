//! Fault-simulator benchmarks: VFL setup wall-clock as a function of the
//! injected fault rate. The companion CI binary (`sim_matrix`) runs the
//! full 32-seed invariant matrix and writes `BENCH_sim.json`; this bench
//! tracks the per-run cost of the simulator itself.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mp_federated::{
    run_setup_protocol, simulate_setup, FaultPlan, Party, PerfectTransport, RetryConfig,
};
use mp_metadata::SharePolicy;
use std::hint::black_box;

const SALT: u64 = 0xF1A7;

fn parties(rows: usize) -> Vec<Party> {
    let data = mp_datasets::fintech_scenario(rows, 42);
    let bank = Party::new("bank", data.bank.relation, 0, data.bank.dependencies).unwrap();
    let ecom = Party::new(
        "ecommerce",
        data.ecommerce.relation,
        0,
        data.ecommerce.dependencies,
    )
    .unwrap();
    vec![bank, ecom]
}

fn policies() -> Vec<SharePolicy> {
    vec![SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL]
}

/// Setup wall-clock vs drop rate: retransmissions and back-off stretch
/// the virtual run, and this measures what that costs in real time.
fn bench_setup_vs_fault_rate(c: &mut Criterion) {
    let parties = parties(120);
    let pols = policies();
    let retry = RetryConfig::default();
    let mut group = c.benchmark_group("sim_setup_vs_drop_rate");
    for drop_pct in [0u32, 10, 25, 40] {
        group.bench_with_input(
            BenchmarkId::from_parameter(drop_pct),
            &drop_pct,
            |b, &pct| {
                b.iter(|| {
                    let plan = FaultPlan {
                        drop_rate: f64::from(pct) / 100.0,
                        ..FaultPlan::fault_free(7)
                    };
                    simulate_setup(black_box(&parties), &pols, SALT, &plan, &retry)
                })
            },
        );
    }
    group.finish();
}

/// The simulator's overhead over the plain setup path: a fault-free
/// simulation vs the engine over a `PerfectTransport`.
fn bench_sim_overhead(c: &mut Criterion) {
    let parties = parties(120);
    let pols = policies();
    let retry = RetryConfig::default();
    let mut group = c.benchmark_group("sim_overhead");
    group.bench_function("perfect_transport", |b| {
        b.iter(|| {
            let mut t = PerfectTransport::new(2);
            run_setup_protocol(black_box(&parties), &pols, SALT, &mut t, &retry).unwrap()
        })
    });
    group.bench_function("fault_free_sim", |b| {
        b.iter(|| {
            simulate_setup(
                black_box(&parties),
                &pols,
                SALT,
                &FaultPlan::fault_free(7),
                &retry,
            )
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700));
    targets = bench_setup_vs_fault_rate, bench_sim_overhead
);

fn main() {
    benches();
}
