//! End-to-end tests of the sweep resilience layer through the `mbpsim`
//! binary: checkpoint/resume determinism (including a torn checkpoint
//! tail and a real SIGTERM mid-sweep), the deadline watchdog, and the
//! memory-budget admission gate.
//!
//! The determinism tests compare *canonicalized* sweep documents: every
//! field derived from wall-clock time is zeroed, everything else —
//! leaderboard order, metrics, metadata, failure lists — must match to
//! the byte.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use mbp::json::Value;

fn mbpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbpsim"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mbplib-resilience-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates the smoke suite into `dir` and returns the mobile trace path.
fn gen_smoke(dir: &Path) -> PathBuf {
    let status = mbpsim()
        .args(["gen", "--suite", "smoke", "--out"])
        .arg(dir)
        .status()
        .expect("spawn gen");
    assert!(status.success(), "gen failed");
    dir.join("SMOKE-mobile.sbbt.mzst")
}

fn zero_field(object: &mut Value, key: &str) {
    if let Some(slot) = object.as_object_mut().and_then(|o| o.get_mut(key)) {
        *slot = Value::from(0.0);
    }
}

/// Parses a sweep document and zeroes every wall-clock-derived field, so
/// two runs of the same work are comparable byte for byte.
fn canonical_sweep_json(stdout: &[u8]) -> String {
    let mut doc: Value = String::from_utf8(stdout.to_vec())
        .expect("utf8")
        .parse()
        .expect("sweep output is valid JSON");
    let root = doc.as_object_mut().expect("sweep doc is an object");
    let meta = root.get_mut("metadata").expect("metadata");
    for key in [
        "decode_time",
        "wall_time",
        "cumulative_simulation_time",
        "parallel_speedup",
    ] {
        zero_field(meta, key);
    }
    if let Some(Value::Array(rows)) = root.get_mut("leaderboard").map(|v| &mut *v) {
        for row in rows {
            zero_field(row, "simulation_time");
        }
    }
    if let Some(Value::Array(results)) = root.get_mut("results").map(|v| &mut *v) {
        for result in results {
            if let Some(metrics) = result.as_object_mut().and_then(|o| o.get_mut("metrics")) {
                zero_field(metrics, "simulation_time");
            }
        }
    }
    doc.to_pretty_string()
}

fn read_doc(stdout: &[u8]) -> Value {
    String::from_utf8(stdout.to_vec())
        .expect("utf8")
        .parse()
        .expect("valid JSON")
}

const PREDICTORS: &str =
    "bimodal,two-level,gshare,gselect,tournament,2bc-gskew,hashed-perceptron,tage,batage";

fn sweep_cmd(trace: &Path) -> Command {
    let mut cmd = mbpsim();
    cmd.args(["sweep", "--predictors", PREDICTORS, "--trace"])
        .arg(trace)
        .args(["--jobs", "1", "--max", "200000", "--quiet"]);
    cmd
}

#[test]
fn truncated_checkpoint_resume_reproduces_the_clean_run() {
    let dir = temp_dir("truncated-resume");
    let trace = gen_smoke(&dir);

    // The reference: one uninterrupted sweep, no checkpoint.
    let clean = sweep_cmd(&trace).output().expect("spawn clean sweep");
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let reference = canonical_sweep_json(&clean.stdout);

    // A checkpointed sweep records one JSONL line per settled predictor.
    let ckpt = dir.join("sweep.ckpt.jsonl");
    let full = sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn checkpointed sweep");
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    assert_eq!(canonical_sweep_json(&full.stdout), reference);
    let lines: Vec<String> = std::fs::read_to_string(&ckpt)
        .expect("checkpoint exists")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), PREDICTORS.split(',').count());

    // Simulate a crash mid-write: keep two whole records plus a torn third
    // line (half of record 3, no trailing newline).
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    std::fs::write(&ckpt, torn).expect("write torn checkpoint");

    // Resume must ignore the torn tail, re-run the unsettled predictors and
    // print a document identical to the clean run.
    let resumed = sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--resume")
        .output()
        .expect("spawn resumed sweep");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(canonical_sweep_json(&resumed.stdout), reference);

    // The resume cut the torn line off before appending, so a second resume
    // of the same file finds every predictor settled: it starts no worker,
    // writes nothing, and otherwise prints the clean run's document.
    let again = sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--resume", "--metrics"])
        .output()
        .expect("spawn second resume");
    assert!(
        again.status.success(),
        "{}",
        String::from_utf8_lossy(&again.stderr)
    );
    let mut doc = read_doc(&again.stdout);
    let metrics = (doc.as_object_mut())
        .and_then(|root| root.remove("metrics"))
        .expect("--metrics adds a metrics object");
    assert_eq!(
        metrics["sweep"]["resume_skips"].as_u64(),
        Some(lines.len() as u64)
    );
    assert_eq!(metrics["sweep"]["checkpoint_writes"].as_u64(), Some(0));
    let kept = std::fs::read_to_string(&ckpt).expect("checkpoint kept");
    assert_eq!(kept.lines().count(), lines.len(), "{kept}");
    let clean_workers = read_doc(&clean.stdout)["metadata"]["workers_used"].clone();
    let workers = (doc.as_object_mut())
        .and_then(|root| root.get_mut("metadata"))
        .and_then(Value::as_object_mut)
        .and_then(|meta| meta.insert("workers_used", clean_workers));
    assert_eq!(workers.and_then(|w| w.as_u64()), Some(0));
    let doc = doc.to_pretty_string();
    assert_eq!(canonical_sweep_json(doc.as_bytes()), reference);
}

#[cfg(unix)]
#[test]
fn sigterm_mid_sweep_drains_checkpoints_and_resumes_identically() {
    let dir = temp_dir("sigterm-resume");
    let trace = gen_smoke(&dir);

    let clean = sweep_cmd(&trace).output().expect("spawn clean sweep");
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let reference = canonical_sweep_json(&clean.stdout);

    // Start a checkpointed sweep, wait for the first record to be fsync'd,
    // then deliver SIGTERM — the drain keeps the in-flight predictor and
    // parks the rest.
    let ckpt = dir.join("sweep.ckpt.jsonl");
    let child = sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    while std::fs::read_to_string(&ckpt)
        .map(|s| !s.contains('\n'))
        .unwrap_or(true)
    {
        assert!(
            Instant::now() < deadline,
            "no checkpoint record appeared in time"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let kill = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill");
    assert!(kill.success(), "kill failed");
    let out = child.wait_with_output().expect("wait for sweep");

    // Dedicated exit code 6, a well-formed partial document, and complete
    // accounting: every predictor is settled, failed or listed as not run.
    assert_eq!(
        out.status.code(),
        Some(6),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = read_doc(&out.stdout);
    assert_eq!(doc["metadata"]["interrupted"].as_bool(), Some(true));
    let n = PREDICTORS.split(',').count() as u64;
    assert_eq!(doc["metadata"]["num_predictors"].as_u64(), Some(n));
    let not_run = match &doc["not_run"] {
        Value::Array(names) => names.len(),
        other => panic!("not_run is not an array: {other:?}"),
    };
    assert!(
        not_run > 0,
        "drain left nothing unstarted — raced to the end"
    );

    // Resume finishes the remainder and reconstructs the clean document.
    let resumed = sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--resume")
        .output()
        .expect("spawn resumed sweep");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(canonical_sweep_json(&resumed.stdout), reference);
    let doc = read_doc(&resumed.stdout);
    assert_eq!(doc["metadata"]["interrupted"].as_bool(), Some(false));
}

#[test]
fn deadline_flags_wedged_predictor_with_typed_failure() {
    let dir = temp_dir("deadline");
    let trace = gen_smoke(&dir);

    // `stalled` is the hidden test predictor that wedges after a few
    // predictions. Without the watchdog this sweep would sit for its full
    // self-bounded nap; with it, the config becomes a typed failure.
    let started = Instant::now();
    let out = mbpsim()
        .args(["sweep", "--predictors", "stalled,bimodal", "--trace"])
        .arg(&trace)
        .args(["--jobs", "2", "--deadline-secs", "0.4", "--quiet"])
        .output()
        .expect("spawn sweep");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "watchdog did not keep the sweep bounded"
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = read_doc(&out.stdout);
    assert_eq!(doc["failures"][0]["predictor"].as_str(), Some("stalled"));
    assert_eq!(doc["failures"][0]["kind"].as_str(), Some("deadline"));
    let message = doc["failures"][0]["message"].as_str().expect("message");
    assert!(message.contains("deadline of"), "{message}");
    assert_eq!(doc["leaderboard"][0]["predictor"].as_str(), Some("bimodal"));
}

#[test]
fn zero_memory_budget_rejects_table_predictors_typed() {
    let dir = temp_dir("mem-budget");
    let trace = gen_smoke(&dir);

    // Budget 0: every predictor with a non-zero size hint must be rejected
    // up front; `always-taken` hints 0 bytes and still runs.
    let out = mbpsim()
        .args([
            "sweep",
            "--predictors",
            "always-taken,gshare,tage",
            "--trace",
        ])
        .arg(&trace)
        .args(["--mem-budget-mb", "0", "--quiet"])
        .output()
        .expect("spawn sweep");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = read_doc(&out.stdout);
    assert_eq!(doc["metadata"]["num_failures"].as_u64(), Some(2));
    for i in 0..2 {
        assert_eq!(doc["failures"][i]["kind"].as_str(), Some("mem_budget"));
    }
    assert_eq!(
        doc["leaderboard"][0]["predictor"].as_str(),
        Some("always-taken")
    );
}

/// Builds a phases document for `trace` with `mbpsim simpoint` and returns
/// its path.
fn gen_phases(dir: &Path, trace: &Path, window: &str, clusters: &str) -> PathBuf {
    let path = dir.join(format!("phases-{window}-{clusters}.json"));
    let out = mbpsim()
        .args(["simpoint", "--trace"])
        .arg(trace)
        .args(["--window", window, "--clusters", clusters, "--out"])
        .arg(&path)
        .output()
        .expect("spawn simpoint");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// A sweep command without `--max` (which is incompatible with `--phases`).
fn unsliced_sweep_cmd(trace: &Path) -> Command {
    let mut cmd = mbpsim();
    cmd.args(["sweep", "--predictors", "bimodal,gshare", "--trace"])
        .arg(trace)
        .args(["--jobs", "1", "--quiet"]);
    cmd
}

#[test]
fn resume_refuses_checkpoints_across_sampling_plans() {
    let dir = temp_dir("sampling-mismatch");
    let trace = gen_smoke(&dir);
    let phases = gen_phases(&dir, &trace, "2000", "4");

    // Direction 1: a full-sweep checkpoint must not be resumed sampled.
    let ckpt = dir.join("full.ckpt.jsonl");
    let full = unsliced_sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .expect("spawn full sweep");
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let mixed = unsliced_sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--resume")
        .arg("--phases")
        .arg(&phases)
        .output()
        .expect("spawn sampled resume");
    assert_eq!(
        mixed.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&mixed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("refusing to resume"),
        "{}",
        String::from_utf8_lossy(&mixed.stderr)
    );

    // Direction 2: a sampled checkpoint must not be resumed full.
    let ckpt = dir.join("sampled.ckpt.jsonl");
    let sampled = unsliced_sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--phases")
        .arg(&phases)
        .output()
        .expect("spawn sampled sweep");
    assert!(
        sampled.status.success(),
        "{}",
        String::from_utf8_lossy(&sampled.stderr)
    );
    let mixed = unsliced_sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--resume")
        .output()
        .expect("spawn full resume");
    assert_eq!(
        mixed.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&mixed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("refusing to resume"),
        "{}",
        String::from_utf8_lossy(&mixed.stderr)
    );

    // A different plan (other window size) is also a mismatch.
    let other = gen_phases(&dir, &trace, "4000", "4");
    let mixed = unsliced_sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--resume")
        .arg("--phases")
        .arg(&other)
        .output()
        .expect("spawn mismatched-plan resume");
    assert_eq!(
        mixed.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&mixed.stderr)
    );

    // The matching plan resumes cleanly.
    let resumed = unsliced_sweep_cmd(&trace)
        .arg("--checkpoint")
        .arg(&ckpt)
        .arg("--resume")
        .arg("--phases")
        .arg(&phases)
        .output()
        .expect("spawn matching resume");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
}

#[test]
fn phases_rejects_flags_that_reslice_the_trace() {
    for conflicting in [
        ["--max", "1000"],
        ["--warmup", "1000"],
        ["--window", "1000"],
        ["--timeseries-out", "/dev/null"],
    ] {
        let out = mbpsim()
            .args([
                "sweep",
                "--predictors",
                "bimodal",
                "--trace",
                "/does/not/matter",
                "--phases",
                "/also/does/not/matter",
            ])
            .args(conflicting)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{:?}", conflicting[0]);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot be combined with --phases"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn resume_without_checkpoint_is_a_usage_error() {
    let out = mbpsim()
        .args([
            "sweep",
            "--predictors",
            "bimodal",
            "--trace",
            "/does/not/matter",
            "--resume",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume requires --checkpoint"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
