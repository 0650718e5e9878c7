//! `audit_matrix`: the shipped 420-cell leakage matrix, one full
//! `LeakageMatrix::run` per pass.

use crate::check::Checks;
use crate::output::Measured;
use crate::speed::Speed;
use crate::{ms_since, repeat_setup, Ctx, Run};
use mp_core::{LeakageMatrix, MatrixConfig, MatrixDataset, MatrixPolicy, MetadataClass};
use mp_metadata::MetadataPackage;
use mp_observe::{NoopRecorder, Registry};
use mp_synth::{Adversary, AdversaryModel, SynthConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const ROUNDS: usize = 24;
const EPSILON: f64 = 0.5;
const BANK_CUSTOMERS: usize = 500;
const CELLS: usize = 420;

const ADVERSARIES: [AdversaryModel; 4] = [
    AdversaryModel::Baseline,
    AdversaryModel::PartialAlignment { aligned_pct: 50 },
    AdversaryModel::Collusion { parties: 2 },
    AdversaryModel::NoisyDomains { noise_pct: 10 },
];

/// The shipped configuration of `audit_matrix`: echocardiogram, bank and
/// car.
fn datasets() -> Vec<MatrixDataset> {
    let bank = mp_datasets::bank_table(BANK_CUSTOMERS);
    let (car, car_deps) = mp_datasets::car_table();
    vec![
        MatrixDataset {
            name: "echocardiogram".to_owned(),
            relation: mp_datasets::echocardiogram(),
            dependencies: mp_datasets::verified_dependencies(),
        },
        MatrixDataset {
            name: "bank".to_owned(),
            relation: bank.relation,
            dependencies: bank.dependencies,
        },
        MatrixDataset {
            name: "car".to_owned(),
            relation: car,
            dependencies: car_deps,
        },
    ]
}

fn config(nproc: usize, adversaries: Vec<AdversaryModel>) -> MatrixConfig {
    MatrixConfig {
        rounds: ROUNDS,
        epsilon: EPSILON,
        threads: nproc,
        adversaries,
    }
}

/// An untraced pass: the whole matrix in one call.
fn plain_pass(datasets: &[MatrixDataset], nproc: usize) -> Result<(LeakageMatrix, String), String> {
    let matrix = LeakageMatrix::run(
        datasets,
        &config(nproc, ADVERSARIES.to_vec()),
        &NoopRecorder,
    )
    .map_err(|e| e.to_string())?;
    let json = matrix.to_json();
    Ok((matrix, json))
}

/// A traced pass: one run per dataset and adversary, in the sweep order
/// of the full matrix, so the concatenated cells are the same matrix.
fn traced_pass(
    datasets: &[MatrixDataset],
    nproc: usize,
    trace: &mut crate::trace::Trace,
    op: u64,
    registry: &Registry,
) -> Result<(LeakageMatrix, String), String> {
    let root = trace.open("pass", None, op);
    let mut cells = Vec::with_capacity(CELLS);
    for dataset in datasets {
        for adversary in ADVERSARIES {
            let s = trace.open(
                format!("matrix.run/{}/{}", dataset.name, adversary.label()),
                Some(root.id()),
                op,
            );
            let part = LeakageMatrix::run(
                std::slice::from_ref(dataset),
                &config(nproc, vec![adversary]),
                registry,
            )
            .map_err(|e| e.to_string())?;
            trace.close(s);
            cells.extend(part.cells);
        }
    }
    let matrix = LeakageMatrix {
        cells,
        rounds: ROUNDS,
        epsilon: EPSILON,
    };
    let s = trace.open("matrix.to_json", Some(root.id()), op);
    let json = matrix.to_json();
    trace.close(s);
    trace.close(root);
    Ok((matrix, json))
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = ctx.run(
        "fixed shipped datasets; every cell seeds itself from its coordinates (mp_core::seed_for), \
         so --seed does not change the inputs",
    );
    let (datasets, setup_secs) = repeat_setup(|| Ok(datasets()))?;
    run.measured.set_median("setup_s", &setup_secs);
    run.sizes = vec![
        ("datasets", "echocardiogram,bank,car".into()),
        ("bank_customers", BANK_CUSTOMERS.to_string()),
        ("cells", CELLS.to_string()),
        ("rounds", ROUNDS.to_string()),
        ("epsilon", EPSILON.to_string()),
        ("setups", setup_secs.len().to_string()),
    ];
    run.limits = vec![("matrix_threads", ctx.nproc.to_string())];

    let mut reference: Option<String> = None;
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut synth_calls = Vec::new();
    let mut leaking = Vec::new();
    let mut speed = Speed::default();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < ctx.seconds
        || plain_ms.is_empty()
        || (run.trace.is_some() && traced_ms.is_empty())
    {
        let traced = run.trace.is_some() && op % 2 == 1;
        let registry = Registry::new();
        speed.tick();
        let t = Instant::now();
        let result = match run.trace.as_mut() {
            Some(trace) if traced => traced_pass(&datasets, ctx.nproc, trace, op, &registry),
            _ => plain_pass(&datasets, ctx.nproc),
        };
        let ms = ms_since(t);
        op += 1;
        let (matrix, json) = match result {
            Ok(out) => out,
            Err(e) => {
                run.tally.error(&format!("pass {op}"), e);
                continue;
            }
        };
        if traced {
            traced_ms.push(ms);
            let counters = registry.snapshot().counters;
            synth_calls.push(counters.get("matrix.synth.rounds").copied().unwrap_or(0) as f64);
            leaking.push(matrix.cells.iter().filter(|c| c.leaks).count() as f64);
        } else {
            plain_ms.push(ms);
        }
        let mut c = Checks::default();
        c.expect(matrix.cells.len() == CELLS, || {
            format!("{} cells, expected {CELLS}", matrix.cells.len())
        });
        let violations = matrix.fd_adds_no_extra_leakage();
        c.expect(violations.is_empty(), || {
            format!("FDs add leakage: {}", violations.join("; "))
        });
        let first = reference.get_or_insert_with(|| json.clone());
        c.expect(*first == json, || "matrix JSON differs from pass 1".into());
        run.tally.record(&format!("pass {op}"), c);
    }

    speed.finish();
    let pass_ms: Vec<f64> = plain_ms.iter().map(|&t| speed.normalise(t)).collect();
    if let Some(p50) = crate::stats::median(&pass_ms) {
        let m = &mut run.measured;
        m.set("pass_ms_p50", p50, pass_ms.len());
        m.set("work_per_s", CELLS as f64 / (p50 / 1e3), pass_ms.len());
        m.report_host(&plain_ms, speed.samples());
    }
    if let Some(trace) = run.trace.take() {
        let med = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
        let m = &mut run.measured;
        // Per traced pass, the sum of its sub-runs by adversary and by
        // dataset.
        let mut by_label: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
        for span in &trace.spans {
            if let Some(rest) = span.name.strip_prefix("matrix.run/") {
                for label in rest.split('/') {
                    *by_label
                        .entry(label.to_owned())
                        .or_default()
                        .entry(span.op)
                        .or_default() += span.ms();
                }
            }
        }
        for (label, name) in [
            ("baseline", "matrix.run_ms.baseline"),
            ("partial50", "matrix.run_ms.partial50"),
            ("collude2", "matrix.run_ms.collude2"),
            ("noisy10", "matrix.run_ms.noisy10"),
            ("echocardiogram", "matrix.run_ms.echocardiogram"),
            ("bank", "matrix.run_ms.bank"),
            ("car", "matrix.run_ms.car"),
        ] {
            let per_pass: Vec<f64> = by_label
                .get(label)
                .map(|p| p.values().copied().collect())
                .unwrap_or_default();
            m.set_median(name, &per_pass);
        }
        m.set_median("matrix.to_json_ms", &trace.durations_ms("matrix.to_json"));
        m.set_median("synth.calls", &synth_calls);
        m.set("matrix.cells", CELLS as f64, traced_ms.len());
        m.set_median("matrix.leaking_cells", &leaking);
        m.set(
            "trace.overhead_pct",
            (med(&traced_ms) / med(&plain_ms) - 1.0) * 100.0,
            traced_ms.len().min(plain_ms.len()),
        );
        cell_probe(&datasets, m)?;
        run.trace = Some(trace);
    }
    Ok(run)
}

/// Times the layer calls one matrix cell makes, for round 0 of every
/// cell: describe the class's dependencies, redact under the policy,
/// serialise, synthesise the adversary's relation and score it.
fn cell_probe(datasets: &[MatrixDataset], m: &mut Measured) -> Result<(), String> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rows = 0usize;
    let mut synth_secs = 0.0;
    for dataset in datasets {
        for adversary in ADVERSARIES {
            for class in MetadataClass::ALL {
                for policy in MatrixPolicy::ALL {
                    let deps = dataset
                        .dependencies
                        .iter()
                        .filter(|d| d.class().eq_ignore_ascii_case(class.label()))
                        .cloned()
                        .collect();
                    let t = Instant::now();
                    let package =
                        MetadataPackage::describe(dataset.name.clone(), &dataset.relation, deps)
                            .map_err(|e| e.to_string())?;
                    samples
                        .entry("metadata.describe_ms")
                        .or_default()
                        .push(ms_since(t));
                    let t = Instant::now();
                    let shared = policy.apply(&package);
                    samples
                        .entry("metadata.redact_ms")
                        .or_default()
                        .push(ms_since(t));
                    let t = Instant::now();
                    let json = shared.to_json();
                    samples
                        .entry("metadata.to_json_ms")
                        .or_default()
                        .push(ms_since(t));
                    samples
                        .entry("metadata.package_bytes")
                        .or_default()
                        .push(json.len() as f64);

                    let effective = adversary.shared_package(&shared)?;
                    let attacker = Adversary::new(effective);
                    let policy_label = format!("{}/{}", class.label(), policy.label());
                    let seed = mp_core::seed_for(
                        &dataset.name,
                        &policy_label,
                        &adversary.generation_label(),
                        0,
                    );
                    let n_rows = dataset.relation.n_rows();
                    let t = Instant::now();
                    let synthetic = attacker
                        .synthesize(&SynthConfig {
                            n_rows,
                            seed,
                            use_dependencies: true,
                        })
                        .map_err(|e| e.to_string())?;
                    let ms = ms_since(t);
                    synth_secs += ms / 1e3;
                    rows += n_rows;
                    samples.entry("synth.synthesize_ms").or_default().push(ms);
                    let t = Instant::now();
                    mp_core::measure_all(&dataset.relation, &synthetic, EPSILON)
                        .map_err(|e| e.to_string())?;
                    samples
                        .entry("leakage.score_ms")
                        .or_default()
                        .push(ms_since(t));
                }
            }
        }
    }
    for (name, xs) in &samples {
        m.set_median(name, xs);
    }
    m.set(
        "synth.rows_per_s",
        rows as f64 / synth_secs,
        samples["synth.synthesize_ms"].len(),
    );
    Ok(())
}
