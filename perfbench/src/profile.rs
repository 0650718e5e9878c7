//! `profile_1m` and `profile_echo`: decode CSV text, discover
//! dependencies, then describe, redact and serialise the package — the
//! path `mpriv profile` takes, run as repeated passes.

use crate::check::Checks;
use crate::output::Measured;
use crate::speed::Speed;
use crate::trace::{Open, Trace};
use crate::{ms_since, repeat_setup, Ctx, Run};
use mp_discovery::{
    discover_cfds, discover_dds_with, discover_fds_with, discover_mfds, discover_nds_with,
    discover_ods_with, discover_ofds_with, DependencyProfile, DiscoveryContext, MemoryBudget,
    ParallelConfig, ProfileConfig, TaneConfig,
};
use mp_metadata::{Dependency, MetadataPackage, SharePolicy};
use mp_observe::{NoopRecorder, Recorder, Registry};
use mp_relation::csv::{self, CsvOptions};
use mp_relation::{Pli, PliCacheStats, Relation};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OneMillion,
    Echo,
}

const ROWS_1M: usize = 1_000_000;
const BUDGET_MB: usize = 64;
const PARTY: &str = "owner";

struct Input {
    text: String,
    relation: Relation,
    planted: Vec<Dependency>,
}

fn setup(kind: Kind, seed: u64) -> Result<Input, String> {
    let (relation, planted) = match kind {
        Kind::OneMillion => {
            let out = mp_datasets::scale_relation(ROWS_1M, seed).map_err(|e| e.to_string())?;
            (out.relation, out.planted)
        }
        Kind::Echo => (mp_datasets::echocardiogram(), Vec::new()),
    };
    let text = csv::write_str_with(&relation, &CsvOptions::with_kind_row());
    Ok(Input {
        text,
        relation,
        planted,
    })
}

fn budget(kind: Kind) -> MemoryBudget {
    match kind {
        Kind::OneMillion => MemoryBudget::from_mb(BUDGET_MB),
        Kind::Echo => MemoryBudget::unlimited(),
    }
}

fn fd_config() -> TaneConfig {
    TaneConfig {
        max_lhs: 2,
        g3_threshold: 0.0,
        ..TaneConfig::default()
    }
}

fn canon_fds(deps: &[Dependency]) -> Vec<String> {
    let mut fds: Vec<String> = deps
        .iter()
        .filter(|d| d.class() == "FD")
        .map(ToString::to_string)
        .collect();
    fds.sort();
    fds
}

/// Spans for one pass, or nothing when the pass is untraced.
struct Spans<'t> {
    trace: Option<&'t mut Trace>,
    op: u64,
}

impl Spans<'_> {
    fn open(&mut self, name: &str, parent: Option<usize>) -> Option<Open> {
        let op = self.op;
        self.trace.as_mut().map(|t| t.open(name, parent, op))
    }

    fn close(&mut self, open: Option<Open>) {
        if let (Some(t), Some(o)) = (self.trace.as_mut(), open) {
            t.close(o);
        }
    }
}

struct PassOut {
    relation: Relation,
    deps: Vec<Dependency>,
    json: String,
    cache: PliCacheStats,
    threads: usize,
}

/// One pass. Traced passes decode through the observed reader, count
/// into `recorder` and record a span per layer call.
fn pass(
    kind: Kind,
    input: &Input,
    nproc: usize,
    recorder: Arc<dyn Recorder>,
    mut spans: Spans<'_>,
) -> Result<PassOut, String> {
    let opts = CsvOptions::with_kind_row();
    let root = spans.open("pass", None);
    let parent = root.as_ref().map(Open::id);

    let s = spans.open("csv.decode", parent);
    let relation = if spans.trace.is_some() {
        csv::read_stream_observed(input.text.as_bytes(), &opts, recorder.as_ref())
    } else {
        csv::read_stream(input.text.as_bytes(), &opts)
    }
    .map_err(|e| format!("decode: {e}"))?;
    spans.close(s);

    let parallel = ParallelConfig {
        threads: nproc,
        ..ParallelConfig::default()
    };
    let ctx =
        DiscoveryContext::instrumented_with_budget(&relation, parallel, budget(kind), recorder);
    let deps: Vec<Dependency> = match kind {
        Kind::OneMillion => {
            let s = spans.open("discovery.fds", parent);
            let fds = discover_fds_with(&ctx, &fd_config()).map_err(|e| e.to_string())?;
            spans.close(s);
            fds.into_iter().map(Dependency::from).collect()
        }
        Kind::Echo => {
            let s = spans.open("discovery.profile", parent);
            let profile = DependencyProfile::discover_with(&ctx, &ProfileConfig::paper())
                .map_err(|e| e.to_string())?;
            spans.close(s);
            profile.to_dependencies()
        }
    };
    let cache = ctx.cache_stats();
    let threads = ctx.threads();
    drop(ctx);

    let s = spans.open("metadata.describe", parent);
    let package = MetadataPackage::describe(PARTY, &relation, deps.clone())
        .map_err(|e| format!("describe: {e}"))?;
    spans.close(s);
    let s = spans.open("metadata.redact", parent);
    let shared = SharePolicy::PAPER_RECOMMENDED.apply(&package);
    spans.close(s);
    let s = spans.open("metadata.to_json", parent);
    let json = shared.to_json();
    spans.close(s);
    spans.close(root);
    Ok(PassOut {
        relation,
        deps,
        json,
        cache,
        threads,
    })
}

/// What every pass must reproduce.
struct Reference {
    fds: Option<Vec<String>>,
    deps: Option<String>,
    json: Option<String>,
}

fn check_pass(
    kind: Kind,
    input: &Input,
    out: &PassOut,
    reference: &mut Reference,
    nproc: usize,
) -> Checks {
    let mut c = Checks::default();
    c.expect(out.relation == input.relation, || {
        "decoded relation differs from the generated one".into()
    });
    c.expect(out.threads == nproc, || {
        format!("discovery ran {} threads", out.threads)
    });
    if kind == Kind::OneMillion {
        let fds = canon_fds(&out.deps);
        c.expect(reference.fds.as_ref() == Some(&fds), || {
            "FD set differs from the uncached engine's".into()
        });
    } else {
        let deps: String = out.deps.iter().map(|d| format!("{d}\n")).collect();
        let first = reference.deps.get_or_insert_with(|| deps.clone());
        c.expect(*first == deps, || {
            "dependency list differs from pass 1".into()
        });
    }
    let first = reference.json.get_or_insert_with(|| out.json.clone());
    c.expect(*first == out.json, || {
        "package JSON differs from pass 1".into()
    });
    c
}

pub fn run(kind: Kind, ctx: &Ctx) -> Result<Run, String> {
    let mut run = match kind {
        Kind::OneMillion => ctx.run("--seed seeds mp_datasets::scale_relation"),
        Kind::Echo => {
            ctx.run("the shipped echocardiogram relation; --seed does not change the inputs")
        }
    };
    let (input, setup_secs) = repeat_setup(|| setup(kind, ctx.seed))?;
    run.measured.set_median("setup_s", &setup_secs);
    run.sizes = vec![
        ("rows", input.relation.n_rows().to_string()),
        ("columns", input.relation.arity().to_string()),
        ("csv_bytes", input.text.len().to_string()),
        (
            "budget_mb",
            match kind {
                Kind::OneMillion => BUDGET_MB.to_string(),
                Kind::Echo => "unlimited".into(),
            },
        ),
        ("setups", setup_secs.len().to_string()),
    ];
    run.limits = vec![("discovery_threads", ctx.nproc.to_string())];

    let mut reference = Reference {
        fds: None,
        deps: None,
        json: None,
    };
    if kind == Kind::OneMillion {
        // The uncached engine's FD set is the oracle every pass must match,
        // and every planted dependency must hold in the generated input.
        let mut c = Checks::default();
        let uncached = DiscoveryContext::new(&input.relation, ParallelConfig::uncached(ctx.nproc));
        match discover_fds_with(&uncached, &fd_config()) {
            Ok(fds) => {
                let deps: Vec<Dependency> = fds.into_iter().map(Dependency::from).collect();
                reference.fds = Some(canon_fds(&deps));
            }
            Err(e) => c.expect(false, || format!("uncached discovery: {e}")),
        }
        for dep in &input.planted {
            c.expect(matches!(dep.holds(&input.relation), Ok(true)), || {
                format!("planted {dep} does not hold")
            });
        }
        run.tally.record("oracle", c);
    }

    let mut plain_ms = Vec::new();
    let mut traced = TracedPasses::default();
    // `profile_echo` passes are many short parallel discovery calls, so
    // its kernel runs on every core; `profile_1m` decodes on one.
    let mut speed = match kind {
        Kind::OneMillion => Speed::default(),
        Kind::Echo => Speed::with_threads(ctx.nproc),
    };
    let start = Instant::now();
    let mut op = 0u64;
    // Untraced runs time plain passes only; traced runs alternate plain
    // and traced passes so the difference is the tracing overhead.
    while start.elapsed() < ctx.seconds
        || plain_ms.is_empty()
        || (run.trace.is_some() && traced.ms.is_empty())
    {
        let is_traced = run.trace.is_some() && op % 2 == 1;
        let registry = Arc::new(Registry::new());
        let recorder: Arc<dyn Recorder> = if is_traced {
            registry.clone()
        } else {
            Arc::new(NoopRecorder)
        };
        let spans = Spans {
            trace: if is_traced { run.trace.as_mut() } else { None },
            op,
        };
        speed.tick();
        let t = Instant::now();
        let result = pass(kind, &input, ctx.nproc, recorder, spans);
        let ms = ms_since(t);
        op += 1;
        match result {
            Ok(out) => {
                if is_traced {
                    traced.ms.push(ms);
                    traced
                        .counters
                        .push(registry.snapshot().counters.into_iter().collect());
                    traced.cache_bytes.push(out.cache.bytes as f64);
                    traced.fds_found.push(canon_fds(&out.deps).len() as f64);
                    traced.package_bytes.push(out.json.len() as f64);
                } else {
                    plain_ms.push(ms);
                }
                let checks = check_pass(kind, &input, &out, &mut reference, ctx.nproc);
                run.tally.record(&format!("pass {op}"), checks);
            }
            Err(e) => run.tally.error(&format!("pass {op}"), e),
        }
    }

    speed.finish();
    let pass_ms: Vec<f64> = plain_ms.iter().map(|&t| speed.normalise(t)).collect();
    let rows = input.relation.n_rows() as f64;
    if let Some(p50) = crate::stats::median(&pass_ms) {
        let m = &mut run.measured;
        m.set("pass_ms_p50", p50, pass_ms.len());
        m.set("work_per_s", rows / (p50 / 1e3), pass_ms.len());
        if let Some(p90) = crate::stats::tail(&pass_ms, 0.9) {
            m.report("pass_ms_p90", p90, "ms", pass_ms.len());
        }
        m.report_host(&plain_ms, speed.samples());
    }
    if let Some(trace) = &run.trace {
        let probe = Probe {
            kind,
            nproc: ctx.nproc,
            relation: &input.relation,
        };
        layer_metrics(&probe, trace, &plain_ms, &traced, &mut run.measured)?;
    }
    Ok(run)
}

/// What the traced passes of a run observed, one entry per pass.
#[derive(Default)]
struct TracedPasses {
    ms: Vec<f64>,
    counters: Vec<BTreeMap<String, u64>>,
    cache_bytes: Vec<f64>,
    fds_found: Vec<f64>,
    package_bytes: Vec<f64>,
}

impl TracedPasses {
    /// A registry counter's value in each traced pass.
    fn counter(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .map(|c| c.get(name).copied().unwrap_or(0) as f64)
            .collect()
    }
}

/// The input the layer probes run on.
struct Probe<'a> {
    kind: Kind,
    nproc: usize,
    relation: &'a Relation,
}

fn layer_metrics(
    probe: &Probe<'_>,
    trace: &Trace,
    plain_ms: &[f64],
    traced: &TracedPasses,
    m: &mut Measured,
) -> Result<(), String> {
    let med = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
    let rows = probe.relation.n_rows() as f64;

    let decode = trace.durations_ms("csv.decode");
    m.set_median("csv.decode_ms", &decode);
    m.set("csv.rows_per_s", rows / (med(&decode) / 1e3), decode.len());
    m.set_median("ingest.bytes", &traced.counter("ingest.bytes"));
    m.set_median("ingest.chunks", &traced.counter("ingest.chunks"));

    let hits = traced.counter("pli_cache.hits");
    let misses = traced.counter("pli_cache.misses");
    let lookups: Vec<f64> = hits.iter().zip(&misses).map(|(h, m)| h + m).collect();
    let rates: Vec<f64> = hits
        .iter()
        .zip(&lookups)
        .map(|(h, l)| if *l > 0.0 { h / l } else { 0.0 })
        .collect();
    m.set_median("pli_cache.hits", &hits);
    m.set_median("pli_cache.misses", &misses);
    m.set_median(
        "pli_cache.evictions",
        &traced.counter("pli_cache.evictions"),
    );
    m.set_median("pli_cache.lookups", &lookups);
    m.set_median("pli_cache.hit_rate", &rates);
    m.set_median("pli_cache.resident_bytes", &traced.cache_bytes);

    let builds = traced.counter("discovery.pli.builds");
    let tested = traced.counter("discovery.candidates.tested");
    let yields: Vec<f64> = traced
        .fds_found
        .iter()
        .zip(&tested)
        .map(|(f, t)| f / t)
        .collect();
    m.set_median("discovery.pli.builds", &builds);
    m.set_median("discovery.candidates.tested", &tested);
    m.set_median("discovery.fds_found", &traced.fds_found);
    m.set_median("discovery.fd_yield", &yields);

    for (name, stage) in [
        ("metadata.describe_ms", "metadata.describe"),
        ("metadata.redact_ms", "metadata.redact"),
        ("metadata.to_json_ms", "metadata.to_json"),
    ] {
        m.set_median(name, &trace.durations_ms(stage));
    }
    m.set_median("metadata.package_bytes", &traced.package_bytes);
    m.set(
        "trace.overhead_pct",
        (med(&traced.ms) / med(plain_ms) - 1.0) * 100.0,
        traced.ms.len().min(plain_ms.len()),
    );

    // The discovery span: the FD search on profile_1m, the whole
    // eight-pass profile on profile_echo, where the FD pass alone comes
    // from the pass probe.
    let discovery = match probe.kind {
        Kind::OneMillion => {
            let fds = trace.durations_ms("discovery.fds");
            m.set_median("discovery.fds_ms", &fds);
            fds
        }
        Kind::Echo => {
            let fd_pass = pass_probe(probe, m)?;
            m.set_median("discovery.fds_ms", &fd_pass);
            trace.durations_ms("discovery.profile")
        }
    };
    let kernel = partition_probe(probe, m)?;
    // Estimated kernel time of one discovery span: the probe's per-call
    // costs times the engine's own counts (single-column builds, with
    // their code grouping, are taken as one per column; every other
    // build is a product).
    let arity = probe.relation.arity() as f64;
    let products = (med(&builds) - arity).max(0.0);
    let estimate =
        kernel.build_ms + kernel.product_ms * products + kernel.fd_check_ms * med(&tested);
    m.set(
        "discovery.kernel_share",
        estimate / med(&discovery),
        discovery.len(),
    );
    Ok(())
}

/// Per-call kernel costs from [`partition_probe`].
struct KernelCosts {
    build_ms: f64,
    product_ms: f64,
    fd_check_ms: f64,
}

/// Times the partition kernels directly on the input: code grouping and
/// PLI build for every column, the product of every column pair, and the
/// FD check of every pair against every other column.
fn partition_probe(probe: &Probe<'_>, m: &mut Measured) -> Result<KernelCosts, String> {
    let relation = probe.relation;
    let reps = match probe.kind {
        Kind::OneMillion => 1,
        Kind::Echo => 20,
    };
    let arity = relation.arity();
    let mut group_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut product_ms = Vec::new();
    let mut check_ms = Vec::new();
    let mut resident = 0usize;
    for rep in 0..reps {
        let mut codes = Vec::with_capacity(arity);
        let t = Instant::now();
        for a in 0..arity {
            codes.push(relation.column(a).map_err(|e| e.to_string())?.group_codes());
        }
        group_ms.push(ms_since(t));
        let t = Instant::now();
        let singles: Vec<Pli> = codes.iter().map(|(c, n)| Pli::from_codes(c, *n)).collect();
        build_ms.push(ms_since(t));
        drop(codes);
        let sigs: Vec<Vec<usize>> = singles.iter().map(Pli::full_signature).collect();
        if rep == 0 {
            resident += singles.iter().map(Pli::heap_bytes).sum::<usize>();
        }
        // Level 1 of the lattice: every column against every other.
        for (i, single) in singles.iter().enumerate() {
            for (rhs, sig) in sigs.iter().enumerate() {
                if rhs != i {
                    let t = Instant::now();
                    std::hint::black_box(single.g3_violations(sig));
                    check_ms.push(ms_since(t));
                }
            }
        }
        // Level 2: every column pair, and its check against every other
        // column.
        for i in 0..arity {
            for j in i + 1..arity {
                let t = Instant::now();
                let pair = std::hint::black_box(singles[i].intersect(&singles[j]));
                product_ms.push(ms_since(t));
                if rep == 0 {
                    resident += pair.heap_bytes();
                }
                for (rhs, sig) in sigs.iter().enumerate() {
                    if rhs != i && rhs != j {
                        let t = Instant::now();
                        std::hint::black_box(pair.g3_violations(sig));
                        check_ms.push(ms_since(t));
                    }
                }
            }
        }
    }
    let med = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
    // Per-call costs are bimodal (level-1 checks scan whole columns,
    // most level-2 partitions are near keys), so products and checks are
    // reported as means per call.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    m.set_median("column.group_codes_ms", &group_ms);
    m.set_median("partition.build_ms", &build_ms);
    m.set("partition.product_ms", mean(&product_ms), product_ms.len());
    m.set("partition.fd_check_ms", mean(&check_ms), check_ms.len());
    m.set("partition.resident_bytes", resident as f64, 1);
    Ok(KernelCosts {
        build_ms: med(&group_ms) + med(&build_ms),
        product_ms: mean(&product_ms),
        fd_check_ms: mean(&check_ms),
    })
}

/// Times each of the eight passes of the paper profile through its
/// public entry point, all on one shared context per repetition, in the
/// order `DependencyProfile::discover_with` runs them. Returns the FD
/// pass times.
fn pass_probe(probe: &Probe<'_>, m: &mut Measured) -> Result<Vec<f64>, String> {
    let relation = probe.relation;
    let config = ProfileConfig::paper();
    let err = |e: mp_relation::RelationError| e.to_string();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps < 5 || (reps < 200 && start.elapsed().as_secs_f64() < 2.0) {
        reps += 1;
        let parallel = ParallelConfig {
            threads: probe.nproc,
            ..ParallelConfig::default()
        };
        let dctx = DiscoveryContext::with_budget(relation, parallel, MemoryBudget::unlimited());
        let mut time = |name: &'static str, f: &mut dyn FnMut() -> Result<usize, String>| {
            let t = Instant::now();
            let found = f();
            times.entry(name).or_default().push(ms_since(t));
            found
        };
        time("discovery.pass.fd_ms", &mut || {
            discover_fds_with(&dctx, &config.fd)
                .map(|v| v.len())
                .map_err(err)
        })?;
        let afd = TaneConfig {
            g3_threshold: config.afd_threshold.unwrap_or(0.0),
            ..config.fd.clone()
        };
        time("discovery.pass.afd_ms", &mut || {
            discover_fds_with(&dctx, &afd).map(|v| v.len()).map_err(err)
        })?;
        time("discovery.pass.od_ms", &mut || {
            discover_ods_with(&dctx, &config.od)
                .map(|v| v.len())
                .map_err(err)
        })?;
        time("discovery.pass.nd_ms", &mut || {
            discover_nds_with(&dctx, &config.nd)
                .map(|v| v.len())
                .map_err(err)
        })?;
        let dd = config.dd.clone().unwrap_or_default();
        time("discovery.pass.dd_ms", &mut || {
            discover_dds_with(&dctx, &dd).map(|v| v.len()).map_err(err)
        })?;
        time("discovery.pass.ofd_ms", &mut || {
            discover_ofds_with(&dctx, true)
                .map(|v| v.len())
                .map_err(err)
        })?;
        let cfd = config.cfd.clone().unwrap_or_default();
        time("discovery.pass.cfd_ms", &mut || {
            discover_cfds(relation, &cfd).map(|v| v.len()).map_err(err)
        })?;
        let mfd = config.mfd.clone().unwrap_or_default();
        time("discovery.pass.mfd_ms", &mut || {
            discover_mfds(relation, &mfd).map(|v| v.len()).map_err(err)
        })?;
    }
    let fd = times
        .get("discovery.pass.fd_ms")
        .cloned()
        .unwrap_or_default();
    for (name, samples) in times {
        m.set_median(name, &samples);
    }
    Ok(fd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;

    #[test]
    fn a_forced_wrong_output_counts_as_a_failed_pass() {
        let input = setup(Kind::Echo, 7).expect("echo input");
        let pass = || {
            pass(
                Kind::Echo,
                &input,
                1,
                Arc::new(NoopRecorder),
                Spans { trace: None, op: 0 },
            )
        };
        let mut reference = Reference {
            fds: None,
            deps: None,
            json: None,
        };
        let mut tally = Tally::default();
        for _ in 0..2 {
            let out = pass().expect("pass runs");
            tally.record(
                "pass",
                check_pass(Kind::Echo, &input, &out, &mut reference, 1),
            );
        }
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        let mut wrong = pass().expect("pass runs");
        wrong.json.push(' ');
        tally.record(
            "pass",
            check_pass(Kind::Echo, &input, &wrong, &mut reference, 1),
        );
        let mut wrong = pass().expect("pass runs");
        wrong.deps.pop();
        tally.record(
            "pass",
            check_pass(Kind::Echo, &input, &wrong, &mut reference, 1),
        );
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_rate(), 0.5);
    }
}
