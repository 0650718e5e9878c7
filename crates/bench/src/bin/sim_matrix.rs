//! CI fault-injection matrix: 32 seeds × 4 fault profiles through the
//! invariant harness ([`mp_federated::check_invariants`]), plus a
//! wall-clock-vs-fault-rate sweep. Exits non-zero on the first invariant
//! violation; writes `BENCH_sim.json` at the repo root.
//!
//! Usage: `sim_matrix [seeds]` (default 32).

use mp_federated::{
    check_invariants, simulate_setup, FaultPlan, Party, RetryConfig, FAULT_PROFILES,
};
use mp_metadata::SharePolicy;
use std::time::Instant;

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

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32);
    let parties = parties(120);
    let salt = 0xF1A7;
    let policies = vec![SharePolicy::PAPER_RECOMMENDED, SharePolicy::FULL];
    let retry = RetryConfig::default();

    // --- The invariant matrix. ------------------------------------------
    let mut violations = 0usize;
    let mut profile_rows = Vec::new();
    for profile in FAULT_PROFILES {
        let mut completed = 0usize;
        let mut aborted = 0usize;
        let mut total_ms = 0.0f64;
        let mut total_ticks = 0u64;
        let mut total_sent = 0usize;
        for seed in 0..seeds {
            let plan = FaultPlan::from_names(profile, seed, parties.len()).unwrap();
            let start = Instant::now();
            match check_invariants(&parties, &policies, salt, &plan, &retry) {
                Ok(report) => {
                    if report.completed {
                        completed += 1;
                    } else {
                        aborted += 1;
                    }
                    total_ticks += report.ticks;
                    total_sent += report.summary.sent;
                }
                Err(v) => {
                    violations += 1;
                    eprintln!("VIOLATION [{profile}, seed {seed}]: {v}");
                }
            }
            total_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        let runs = seeds as f64;
        println!(
            "{profile:>8}: {completed} completed, {aborted} aborted, {:.2} ms/run, {:.0} ticks/run",
            total_ms / runs,
            total_ticks as f64 / runs
        );
        profile_rows.push(format!(
            "{{ \"profile\": \"{profile}\", \"seeds\": {seeds}, \"completed\": {completed}, \
             \"aborted\": {aborted}, \"mean_ms\": {:.3}, \"mean_ticks\": {:.1}, \"mean_sent\": {:.1} }}",
            total_ms / runs,
            total_ticks as f64 / runs,
            total_sent as f64 / runs
        ));
    }

    // --- Setup wall-clock vs fault (drop) rate. -------------------------
    let mut rate_rows = Vec::new();
    for drop_pct in [0u32, 10, 20, 30, 40] {
        let mut ms = Vec::new();
        let mut retx = 0usize;
        let mut ticks = 0u64;
        for seed in 0..seeds.min(16) {
            let plan = FaultPlan {
                drop_rate: f64::from(drop_pct) / 100.0,
                ..FaultPlan::fault_free(seed)
            };
            let start = Instant::now();
            let sim = simulate_setup(&parties, &policies, salt, &plan, &retry);
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            retx += sim.summary.retransmissions;
            ticks += sim.ticks;
        }
        ms.sort_by(f64::total_cmp);
        let median = ms[ms.len() / 2];
        let runs = ms.len() as f64;
        println!(
            "drop {drop_pct:>2}%: median {median:.2} ms, {:.1} retransmissions/run, {:.0} ticks/run",
            retx as f64 / runs,
            ticks as f64 / runs
        );
        rate_rows.push(format!(
            "{{ \"drop_rate\": {:.2}, \"median_ms\": {median:.3}, \"mean_retransmissions\": {:.2}, \"mean_ticks\": {:.1} }}",
            f64::from(drop_pct) / 100.0,
            retx as f64 / runs,
            ticks as f64 / runs
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"seeds\": {seeds},\n  \"profiles\": [\n    {}\n  ],\n  \"wallclock_vs_drop_rate\": [\n    {}\n  ],\n  \"violations\": {violations}\n}}\n",
        profile_rows.join(",\n    "),
        rate_rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("write BENCH_sim.json");
    println!("wrote {path}");

    if violations > 0 {
        eprintln!("{violations} invariant violation(s)");
        std::process::exit(1);
    }
}
