//! Smoke runs of every workload, one pass each, without and with layers:
//! every run must pass its output checks and print exactly the metrics
//! `BENCHMARK.json` declares. Workloads run at 1% scale, except `analysis`
//! at 10%: phase sampling meets its accuracy bound only on traces of tens
//! of thousands of branches. One full-scale pass of every workload at seed
//! 1 checks the outputs against the digests committed for it.

use std::path::{Path, PathBuf};
use std::process::Command;

use mbp::json::Value;

const WORKLOADS: [&str; 4] = ["kernel-scan", "composite-run", "table3-sweep", "analysis"];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.parse().expect("BENCHMARK.json parses")
}

/// The `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared<'d>(doc: &'d Value, key: &str) -> Vec<(&'d str, &'d str)> {
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().unwrap_or_else(|| panic!("metric {f}"));
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload with its own build directory and returns the
/// directory and the parsed last line of standard output.
fn run(workload: &str, trace: &str) -> (PathBuf, Value) {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let scale = if workload == "analysis" {
        "0.1"
    } else {
        "0.01"
    };
    let out = Command::new(env!("CARGO_BIN_EXE_mbpbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--scale", scale, "--trace", trace])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("mbpbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (target, last.parse().expect("the last line is JSON"))
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let doc = benchmark_json();
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    let workloads: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, names) in [("0", &e2e), ("1", &layers)] {
            let (target, line) = run(workload, trace);
            let keys: Vec<&str> = line.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line["correct"].as_bool(), Some(true), "{workload}");
            assert_eq!(line["failed"].as_u64(), Some(0), "{workload}");
            assert!(line["attempted"].as_u64().is_some_and(|n| n >= 1));
            let metrics = line["metrics"].as_object().expect("metrics object");
            let emitted: Vec<&str> = metrics.keys().collect();
            for (name, m) in metrics.iter() {
                assert!(is_metric_name(name), "{workload}: bad metric name {name:?}");
                let unit = names.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
                assert!(unit.is_some(), "{workload}: undeclared {name}");
                assert_eq!(m["unit"].as_str(), unit, "{workload}: unit of {name}");
                assert!(
                    m["value"].as_f64().is_some(),
                    "{workload}: {name} has no value"
                );
            }
            for (name, _) in names {
                assert!(emitted.contains(name), "{workload}: {name} missing");
            }
            if trace == "1" {
                let spans = target.join(format!("mbpbench/layers-{workload}.json"));
                let spans: Value = std::fs::read_to_string(&spans)
                    .expect("span file written")
                    .parse()
                    .expect("span file parses");
                let check = mbp::events_export::validate_chrome_trace(&spans)
                    .expect("span file is a valid Chrome trace");
                assert!(check.events > 0, "{workload}: empty span file");
            }
        }
    }
}

#[test]
fn seed_1_outputs_match_the_committed_digests() {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seed-1");
    let out = Command::new(env!("CARGO_BIN_EXE_mbpbench"))
        .args(["--workload", "all", "--seed", "1", "--seconds", "0"])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("mbpbench starts");
    assert!(
        out.status.success(),
        "seed 1 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in WORKLOADS {
        let path = target.join(format!("mbpbench/results-{workload}.json"));
        let results: Value = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
            .parse()
            .expect("results file parses");
        let digest = results["digest"].as_str();
        assert!(digest.is_some(), "{workload}: no digest");
        assert_eq!(digest, results["expected_digest"].as_str(), "{workload}");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "analysis", "--trace", "2"],
        &["--seconds", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mbpbench"))
            .args(args)
            .output()
            .expect("mbpbench starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
