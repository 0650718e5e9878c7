//! The workspace benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <profile_1m|profile_echo|audit_matrix|serve_closed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It builds the workload's inputs from the seed, measures for the given
//! seconds, checks every output, prints a table and a provenance report,
//! and ends with one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates plain and traced passes and reports
//! the per-layer metrics. `all` runs every workload in its own process.
//! Exits non-zero when any check fails.

mod audit;
mod catalogue;
mod check;
mod output;
mod profile;
mod serve;
mod speed;
mod stats;
mod sys;
mod trace;

use check::Tally;
use output::Measured;
use speed::Speed;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;

/// What one workload run hands back for output.
pub struct Run {
    pub tally: Tally,
    pub measured: Measured,
    pub sizes: Vec<(&'static str, String)>,
    pub limits: Vec<(&'static str, String)>,
    /// How `--seed` reaches the inputs.
    pub seeding: &'static str,
    pub trace: Option<Trace>,
}

impl Run {
    fn new(seeding: &'static str, traced: bool, epoch: Instant) -> Self {
        Run {
            tally: Tally::default(),
            measured: Measured::default(),
            sizes: Vec::new(),
            limits: Vec::new(),
            seeding,
            trace: traced.then(|| Trace::new(epoch)),
        }
    }
}

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub nproc: usize,
    pub epoch: Instant,
}

impl Ctx {
    pub fn run(&self, seeding: &'static str) -> Run {
        Run::new(seeding, self.traced, self.epoch)
    }
}

/// Every workload builds its inputs at least [`SETUP_MIN`] times and
/// goes on until [`SETUP_TIME`] has passed or [`SETUP_MAX`] builds.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 1000;
const SETUP_TIME: Duration = Duration::from_secs(1);

/// Builds the inputs repeatedly, keeping the last, and returns the
/// duration in seconds of each build, each normalised by a kernel sample
/// taken right after it: set-up builds can be far shorter than the swings
/// of host speed. Earlier builds are dropped first so they do not raise
/// the peak resident set.
pub fn repeat_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut speed = Speed::default();
    let start = Instant::now();
    let mut kept = None;
    let mut secs = Vec::new();
    while secs.len() < SETUP_MIN || (secs.len() < SETUP_MAX && start.elapsed() < SETUP_TIME) {
        drop(kept.take());
        let t = Instant::now();
        let built = build()?;
        let wall = t.elapsed().as_secs_f64();
        secs.push(speed.normalise_now(wall));
        kept = Some(built);
    }
    Ok((kept.expect("at least one setup ran"), secs))
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && catalogue::workload(&value).is_none() {
                    let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {value}; expected one of {} or all",
                        names.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds takes an integer")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "profile_1m" => profile::run(profile::Kind::OneMillion, ctx),
        "profile_echo" => profile::run(profile::Kind::Echo, ctx),
        "audit_matrix" => audit::run(ctx),
        "serve_closed" => serve::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs every workload in a child process of its own, so no workload
/// inflates another's peak resident set.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0u64;
    for w in catalogue::WORKLOADS {
        println!("== {}", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("perfbench: workload {} failed: {status:?}", w.name);
            failed += 1;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        failed == 0,
        catalogue::WORKLOADS.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.traced,
        nproc: sys::nproc(),
        epoch,
    };
    let mut run = match run_workload(&args.workload, &ctx) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.traced {
        match sys::peak_rss_mb() {
            Ok(mb) => run.measured.set("peak_rss_mb", mb, 1),
            Err(e) => run.tally.error("peak_rss_mb", e),
        }
    }
    if let Some(trace) = &run.trace {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.to_json()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let emitted = match output::result_metrics(&args.workload, args.traced, &run.measured) {
        Ok(emitted) => emitted,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = output::Report {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        nproc: ctx.nproc,
        git_rev: sys::git_rev(),
        seeding: run.seeding,
        sizes: &run.sizes,
        limits: &run.limits,
    };
    print!("{}", output::table(&run.tally, &emitted, &run.measured));
    println!("{}", report.line(&run.tally, &emitted, &run.measured));
    println!("{}", output::result_line(&run.tally, &emitted));
    if run.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
