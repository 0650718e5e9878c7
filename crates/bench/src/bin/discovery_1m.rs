//! End-to-end million-row scale bench: streaming ingest → PLI build →
//! memory-bounded depth-2 discovery.
//!
//! Generates the planted 7-column scale relation, round-trips it through
//! the streaming CSV path (asserting bit-identical ingest), times the
//! single-column PLI builds, then runs a depth-2 TANE pass
//! under a fixed [`MemoryBudget`] (cached) and uncached, asserting both
//! produce the same FDs. Writes `BENCH_scale.json` at the repo root —
//! the scale companion to `BENCH_columnar.json`.
//!
//! Usage: `discovery_1m [rows] [budget_mb]` (defaults: 1000000, 256).

use mp_discovery::{discover_fds_with, DiscoveryContext, MemoryBudget, ParallelConfig, TaneConfig};
use mp_relation::csv::{read_path, write_str_with, CsvOptions};
use mp_relation::Pli;
use std::time::Instant;

fn canon(fds: &[mp_metadata::Fd]) -> Vec<(Vec<usize>, usize)> {
    let mut v: Vec<(Vec<usize>, usize)> = fds
        .iter()
        .map(|f| (f.lhs.indices().to_vec(), f.rhs))
        .collect();
    v.sort();
    v
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let budget_mb: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    let out = mp_datasets::scale_relation(rows, 7).expect("scale relation generates");
    let rel = out.relation;
    println!(
        "scale relation: {} rows x {} columns",
        rel.n_rows(),
        rel.arity()
    );

    // Streaming ingest: write the relation out with its kind row and read
    // it back through the chunked file path; the round trip must be
    // bit-identical (dictionaries in first-occurrence order, shortest
    // round-trip float formatting).
    let opts = CsvOptions::with_kind_row();
    let text = write_str_with(&rel, &opts);
    let csv_path = std::env::temp_dir().join(format!("mpriv_discovery_1m_{rows}.csv"));
    std::fs::write(&csv_path, &text).expect("write temp CSV");
    let t = Instant::now();
    let back = read_path(&csv_path, &opts).expect("streaming ingest");
    let ingest_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&csv_path).ok();
    assert_eq!(
        rel, back,
        "streaming ingest must round-trip bit-identically"
    );
    let ingest_rows_per_sec = rows as f64 / ingest_s.max(f64::MIN_POSITIVE);
    println!(
        "ingest: {} bytes in {:.2} s ({:.0} rows/s), round trip bit-identical",
        text.len(),
        ingest_s,
        ingest_rows_per_sec
    );

    // Single-column PLI build over every column.
    let t = Instant::now();
    let plis: Vec<Pli> = (0..rel.arity())
        .map(|a| Pli::from_typed(rel.column(a).expect("column in range")))
        .collect();
    let pli_single_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("pli build: {} columns in {pli_single_ms:.1} ms", plis.len());

    // Depth-2 discovery under a fixed memory budget (cached) vs uncached.
    let config = TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
        ..TaneConfig::default()
    };
    let budget = MemoryBudget::from_mb(budget_mb);
    let ctx = DiscoveryContext::with_budget(&rel, ParallelConfig::default(), budget);
    let t = Instant::now();
    let cached = discover_fds_with(&ctx, &config).expect("budgeted discovery");
    let discovery_cached_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = ctx.cache_stats();
    println!("budgeted discovery: {discovery_cached_ms:.1} ms, {stats}");

    let uncached_ctx = DiscoveryContext::new(&rel, ParallelConfig::uncached(0));
    let t = Instant::now();
    let uncached = discover_fds_with(&uncached_ctx, &config).expect("uncached discovery");
    let discovery_uncached_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        canon(&cached),
        canon(&uncached),
        "budgeted discovery must find the same FDs as the uncached engine"
    );
    println!(
        "uncached discovery: {discovery_uncached_ms:.1} ms, same {} FDs",
        cached.len()
    );

    // Every planted dependency must be visible in the generated relation.
    for dep in &out.planted {
        assert!(
            dep.holds(&rel).expect("dependency check"),
            "planted {dep} must hold"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"rows\": {rows},\n  \"ingest_rows_per_sec\": {ingest_rows_per_sec:.0},\n  \"pli_build_single_ms\": {pli_single_ms:.1},\n  \"discovery_cached_ms\": {discovery_cached_ms:.1},\n  \"discovery_uncached_ms\": {discovery_uncached_ms:.1},\n  \"budget_mb\": {budget_mb},\n  \"fds\": {}\n}}\n",
        cached.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}:\n{json}");
}
