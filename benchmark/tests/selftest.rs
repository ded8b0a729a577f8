//! The benchmark's self-test: `run --smoke` end to end (0.2 s windows;
//! the numbers are not compared), then the shape of everything it emits
//! against `BENCHMARK.json`. This repository's CI does not run the
//! benchmark, so `cargo test --manifest-path benchmark/Cargo.toml` is the
//! check that the two have not drifted apart.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_adminref-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Value::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let text = |key| {
                m.get(key)
                    .and_then(Value::as_str)
                    .expect("a string")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// `(name, unit, value)` of every metric a pass emitted, duplicates and all.
fn emitted(pass: &Value) -> Vec<(String, String, f64)> {
    pass.get("metrics")
        .and_then(Value::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, metric)| {
            let fields = metric.as_obj().expect("a metric object");
            assert_eq!(fields.len(), 2, "{name} carries exactly a value and a unit");
            (
                name.clone(),
                metric
                    .get("unit")
                    .and_then(Value::as_str)
                    .expect("a unit")
                    .to_string(),
                metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("a number"),
            )
        })
        .collect()
}

fn scratch_leftovers() -> Vec<PathBuf> {
    let scratch = Path::new(EXE)
        .parent()
        .expect("a directory")
        .join("bench-scratch");
    std::fs::read_dir(scratch)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("adminref-"))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_names() {
    let benchmark = benchmark_json();
    let record_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-record.json");
    let status = Command::new(EXE)
        .args(["run", "--smoke", "--trace", "--seed", "11", "--out"])
        .arg(&record_path)
        .status()
        .expect("the benchmark starts");
    assert!(
        status.success(),
        "run --smoke exits zero: every check passed, no operation failed"
    );

    // The record parses back.
    let record = json::parse(&std::fs::read_to_string(&record_path).expect("a record was written"))
        .expect("the record parses back");
    for key in ["nproc", "kernel", "rustc", "commit", "scratch_fs"] {
        assert!(
            record.get("environment").and_then(|e| e.get(key)).is_some(),
            "environment.{key}"
        );
    }
    assert_eq!(record.get("seed").and_then(Value::as_f64), Some(11.0));

    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    let workloads = benchmark
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 5);
    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(Value::as_str)
            .expect("a workload name");
        let ran = record
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("{name} ran"));
        assert!(ran
            .get("trace_overhead_share")
            .and_then(Value::as_f64)
            .is_some());
        for (pass, names) in [("untraced", &end_to_end), ("traced", &per_layer)] {
            let pass = ran.get(pass).expect("both passes ran");
            assert_eq!(
                pass.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name}"
            );
            assert_eq!(
                pass.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{name}"
            );
            assert!(
                pass.get("attempted")
                    .and_then(Value::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            // Every declared (metric, workload) pair exactly once, in
            // order, with its unit — and nothing undeclared.
            let got = emitted(pass);
            let got_names: Vec<(&str, &str)> = got
                .iter()
                .map(|(n, u, _)| (n.as_str(), u.as_str()))
                .collect();
            let want: Vec<(&str, &str)> = names
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(got_names, want, "{name}");
            for (metric, _, value) in &got {
                assert!(
                    metric
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{metric} is a plain name"
                );
                assert!(value.is_finite(), "{name} {metric}");
            }
            // A tail percentile is reported only with ten samples beyond
            // it, and always travels with the count it rests on.
            for (metric, _, value) in &got {
                let needed = if metric.ends_with("_p99_us") {
                    1000.0
                } else if metric.ends_with("_p90_us") {
                    100.0
                } else {
                    continue;
                };
                let stem = metric.rsplit_once("_p").expect("a tail name").0;
                let samples = got
                    .iter()
                    .find(|(n, _, _)| *n == format!("{stem}_samples"))
                    .unwrap_or_else(|| panic!("{metric} has no sample count"))
                    .2;
                assert_eq!(
                    *value > 0.0,
                    samples >= needed,
                    "{name} {metric} on {samples} samples"
                );
            }
        }
        // End-to-end metrics are never zero.
        for (metric, _, value) in emitted(ran.get("untraced").expect("untraced")) {
            assert!(value > 0.0, "{name} {metric}");
        }
    }

    one_workload_form_prints_the_contract_line_last();

    // Durable scratch directories are gone; only span files remain.
    assert_eq!(scratch_leftovers(), Vec::<PathBuf>::new());
}

/// Part of the test above, not one of its own: tests run in parallel, and
/// a second child at work would show in the first's leftover check.
fn one_workload_form_prints_the_contract_line_last() {
    let output = Command::new(EXE)
        .args([
            "--workload",
            "analysis_suite",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "wire_read"],
        &["frobnicate"],
    ] {
        let output = Command::new(EXE)
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
