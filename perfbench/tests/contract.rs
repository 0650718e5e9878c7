//! Runs the built benchmark and checks its output against
//! `BENCHMARK.json`: every listed metric is emitted, and nothing else.

use serde::Content;
use std::process::Command;

fn benchmark_json() -> Content {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn get<'a>(obj: &'a Content, key: &str) -> &'a Content {
    obj.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn names(list: &Content) -> Vec<String> {
    let Content::Seq(items) = list else {
        panic!("expected a list")
    };
    let mut names: Vec<String> = items
        .iter()
        .map(|i| match get(i, "name") {
            Content::Str(s) => s.clone(),
            other => panic!("name is {other:?}"),
        })
        .collect();
    names.sort();
    names
}

/// Runs one workload briefly; returns the exit success and the parsed
/// last line of standard output.
fn run(workload: &str, trace: &str) -> (bool, Content) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    (out.status.success(), result)
}

fn check_result(workload: &str, trace: &str, listed: &[String]) {
    let (ok, result) = run(workload, trace);
    assert!(ok, "{workload} --trace {trace} failed");
    let keys: Vec<&str> = result
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(get(&result, "correct"), &Content::Bool(true));
    assert!(matches!(
        get(&result, "failed"),
        Content::I64(0) | Content::U64(0)
    ));
    let metrics = get(&result, "metrics").as_map().expect("metrics object");
    let mut emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    emitted.sort();
    assert_eq!(emitted, listed, "{workload} --trace {trace}");
    for (name, metric) in metrics {
        let Some(Content::Str(_)) = metric
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "unit").map(|(_, v)| v))
        else {
            panic!("{name} has no unit");
        };
        let value = match get(metric, "value") {
            Content::F64(v) => *v,
            Content::I64(v) => *v as f64,
            Content::U64(v) => *v as f64,
            other => panic!("{name} value is {other:?}"),
        };
        if trace == "0" {
            assert!(value > 0.0, "end-to-end {name} must never be 0");
        }
    }
}

/// The workloads that finish in a few seconds; `profile_1m` takes about
/// a minute per run and has an ignored test of its own.
const QUICK: [&str; 3] = ["profile_echo", "audit_matrix", "serve_closed"];

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_no_other() {
    let listed = names(get(&benchmark_json(), "end_to_end"));
    for workload in QUICK {
        check_result(workload, "0", &listed);
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_no_other() {
    let listed = names(get(&benchmark_json(), "per_layer"));
    for workload in QUICK {
        check_result(workload, "1", &listed);
    }
}

#[test]
#[ignore = "about a minute per run; run with --ignored"]
fn profile_1m_emits_every_listed_metric_and_no_other() {
    let doc = benchmark_json();
    check_result("profile_1m", "0", &names(get(&doc, "end_to_end")));
    check_result("profile_1m", "1", &names(get(&doc, "per_layer")));
}

#[test]
fn every_listed_workload_is_accepted_and_unknown_ones_are_refused() {
    let doc = benchmark_json();
    for name in names(get(&doc, "workloads")) {
        // Argument checking happens before any work: a bad seed is refused
        // for a known workload with the usage exit code, not as unknown.
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                &name,
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(!String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
    }
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
