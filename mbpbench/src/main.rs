//! `mbpbench` — the end-to-end and per-layer benchmark of MBPlib.
//!
//! ```text
//! mbpbench [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!          [--layers] [--scale F]
//! ```
//!
//! Set-up generates each workload's traces from `--seed` (once per seed;
//! they are kept under `$CARGO_TARGET_DIR/mbpbench/traces`, `target/` when
//! unset). Then passes run back to back, each in a fresh child process of
//! this binary. A workload makes a fixed number of passes, `--seconds`
//! divided by its nominal pass time, so every commit measured on a host
//! gets the same count; with several workloads, one round runs one pass of
//! each in turn. With `--trace 1` (or `--layers`), untraced passes alternate
//! with layer passes, and the per-layer ledger is reported instead. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
//! when every output check passed. See `README.md` next to this crate's
//! manifest.

mod pass;
mod spans;
mod stats;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mbp::json::{json, Map, Value};

use pass::PassReport;
use stats::Summary;
use workloads::{Workload, WORKLOAD_NAMES};

const USAGE: &str =
    "usage: mbpbench [--workload kernel-scan|composite-run|table3-sweep|analysis|all] \
                     [--seed N] [--seconds S] [--trace 0|1] [--layers] [--scale F]";

/// `--seconds` when the flag is not given: `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// A layer pass takes about this many untraced passes (replays and probes
/// come on top of the jobs).
const LAYER_PASS_COST: f64 = 3.0;
/// A run stops starting passes once it has taken this many times its
/// nominal length, so a slow host cannot stretch it without bound; the
/// pass count it reached is printed.
const OVERRUN: f64 = 1.4;
/// Times are scaled to a clock at which [`stats::reference_loop_ns`] takes
/// this long per iteration: the reference host at its usual clock (see
/// the README).
const REFERENCE_LOOP_NS: f64 = 2.0;
/// Interleaved subsets of a run's passes over which an end-to-end
/// metric's quartiles are computed.
const SPREAD_SUBSETS: usize = 4;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("minstr_per_s", "Minstr/s"),
    ("cpu_s_per_ginstr", "s/Ginstr"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Unit of a per-layer metric, from the suffix of its name.
fn layer_unit(name: &str) -> &'static str {
    const SUFFIXES: [(&str, &str); 7] = [
        ("_minstr_per_s", "Minstr/s"),
        ("_mrec_per_s", "Mrec/s"),
        ("_mb_per_s", "MB/s"),
        ("_speedup", "x"),
        ("_mib", "MiB"),
        ("_ns", "ns"),
        ("_s", "s"),
    ];
    SUFFIXES
        .iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map_or("ratio", |(_, unit)| unit)
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    /// Set in the child processes the parent spawns: `e2e` or `layers`.
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOAD_NAMES.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1.0,
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--layers" {
            args.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOAD_NAMES.to_vec(),
            "--workload" => {
                let name = WORKLOAD_NAMES
                    .iter()
                    .find(|&&n| n == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workloads = vec![name];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad())?;
                if !(args.scale > 0.0 && args.scale <= 4.0) {
                    return Err(bad());
                }
            }
            "--child" if value == "e2e" || value == "layers" => args.child = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.child.is_some() && args.workloads.len() != 1 {
        return Err("a child pass runs one workload".into());
    }
    Ok(args)
}

/// Where results, span files and traces go: inside the build directory,
/// so a checkout's `.gitignore` already covers them.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("mbpbench")
}

fn trace_dir(out_dir: &Path, args: &Args) -> PathBuf {
    out_dir
        .join("traces")
        .join(format!("seed-{}-scale-{}", args.seed, args.scale))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mbpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = output_dir();
    match &args.child {
        Some(kind) => child(&args, &out_dir, kind == "layers"),
        None => parent(&args, &out_dir),
    }
}

/// A child process: one pass over traces the parent set up, reported as
/// one JSON line.
fn child(args: &Args, out_dir: &Path, layers: bool) -> ExitCode {
    let w = Workload::named(args.workloads[0], args.scale).expect("workload name checked");
    let trace_dir = trace_dir(out_dir, args);
    let Some(facts) = workloads::load(&w, &trace_dir) else {
        eprintln!(
            "mbpbench: traces of {} are not set up in {}",
            w.name,
            trace_dir.display()
        );
        return ExitCode::FAILURE;
    };
    let report = pass::run(&w, &facts, layers, out_dir);
    println!("{}", report.to_json().to_compact_string());
    ExitCode::SUCCESS
}

/// Runs one pass of `w` in a fresh child process and waits for it. A
/// child that crashes or prints no report fails every job it attempted.
fn spawn_pass(args: &Args, w: &Workload, layers: bool) -> PassReport {
    // A layer pass also attempts its probes.
    let jobs = w.jobs.len() as u64 + u64::from(layers);
    let failed = |error: String| PassReport {
        attempted: jobs,
        failed: jobs,
        errors: vec![error],
        ..PassReport::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot locate mbpbench: {e}")),
    };
    let output = Command::new(exe)
        .args(["--child", if layers { "layers" } else { "e2e" }])
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--scale", &args.scale.to_string()])
        // glibc raises its mmap threshold each time a large block is freed,
        // so whether a later job's trace buffers land on the heap or in
        // fresh mappings, and so the pass's peak memory, depends on the
        // order of earlier frees: peaks fell on one of two levels 4% apart
        // from seed to seed. Holding the threshold at its initial 128 KiB
        // makes every job allocate as a fresh `mbpsim` process does.
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return failed(format!("cannot start a pass: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(|line| line.parse::<Value>().ok())
        .and_then(|doc| PassReport::from_json(&doc));
    match report {
        Some(report) if output.status.success() => report,
        _ => failed(format!(
            "{} pass exited with {} and no report",
            w.name, output.status
        )),
    }
}

/// A metric as reported: the value compared between commits, its unit,
/// the quartiles of the same statistic behind it, and the passes it came
/// from.
#[derive(Clone)]
struct Reported {
    name: String,
    unit: &'static str,
    value: f64,
    summary: Summary,
    passes: usize,
}

impl Reported {
    /// The median of per-pass `values`.
    fn median(name: &str, unit: &'static str, values: &[f64]) -> Option<Self> {
        (!values.is_empty()).then(|| {
            let summary = Summary::of(values);
            Self {
                name: name.to_string(),
                unit,
                value: summary.median,
                summary,
                passes: values.len(),
            }
        })
    }
}

/// One workload's passes in a run.
struct Run {
    w: Workload,
    /// Seconds the one-time set-up took (near zero when the traces of this
    /// seed were already set up).
    gen_s: f64,
    /// Rounds the run makes: untraced passes, or untraced and layer pairs.
    rounds: usize,
    e2e: Vec<PassReport>,
    layered: Vec<PassReport>,
}

/// Rounds a run of `w` makes: `--seconds` over the nominal time of one
/// round, at least one.
fn rounds(w: &Workload, args: &Args) -> usize {
    let round_s = if args.trace {
        w.pass_s * (1.0 + LAYER_PASS_COST)
    } else {
        w.pass_s
    };
    ((args.seconds / round_s).round() as usize).max(1)
}

/// The end-to-end metrics of `passes`, in [`END_TO_END`] order. Each of
/// the `jobs` counts at its fastest pass, its time scaled to the
/// reference clock by the median reference loop of `passes`; memory is
/// the largest pass's.
fn end_to_end(jobs: usize, passes: &[&PassReport]) -> [f64; 4] {
    let fastest = |times: fn(&PassReport) -> &[f64]| -> f64 {
        (0..jobs)
            .map(|j| {
                passes
                    .iter()
                    .filter_map(|r| times(r).get(j).copied())
                    .filter(|s| s.is_finite())
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let ref_loop_ns: Vec<f64> = passes.iter().map(|r| r.ref_loop_ns).collect();
    let clock = REFERENCE_LOOP_NS / Summary::of(&ref_loop_ns).median;
    let ginstr = passes[0].instructions as f64 / 1e9;
    let rss_kib = passes.iter().map(|r| r.rss_kib).max().unwrap_or(0);
    [
        ginstr * 1e3 / (fastest(|r| &r.job_s) * clock),
        fastest(|r| &r.job_cpu_s) * clock / ginstr,
        fastest(|r| &r.job_setup_s) * clock,
        rss_kib as f64 / 1024.0,
    ]
}

/// What one workload's run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
}

fn parent(args: &Args, out_dir: &Path) -> ExitCode {
    let trace_dir = trace_dir(out_dir, args);
    let mut runs = Vec::new();
    for &name in &args.workloads {
        let w = Workload::named(name, args.scale).expect("workload name checked");
        let start = Instant::now();
        if let Err(e) = workloads::prepare(&w, args.seed, &trace_dir) {
            eprintln!("mbpbench: set-up of {name} failed: {e}");
            return ExitCode::FAILURE;
        }
        runs.push(Run {
            rounds: rounds(&w, args),
            w,
            gen_s: start.elapsed().as_secs_f64(),
            e2e: Vec::new(),
            layered: Vec::new(),
        });
    }

    // Closed loop, one client: each pass starts when the previous one has
    // ended. Workloads take turns pass by pass, so host drift lands on each
    // of them; layer passes alternate with untraced ones, so the tracing
    // overhead compares passes that saw the same host conditions.
    let start = Instant::now();
    let deadline = OVERRUN * args.seconds * runs.len() as f64;
    let mut round = 0;
    while runs.iter().any(|run| round < run.rounds) {
        if round > 0 && start.elapsed().as_secs_f64() > deadline {
            eprintln!("mbpbench: stopped after {round} rounds, past {deadline:.0} s");
            break;
        }
        for run in runs.iter_mut().filter(|run| round < run.rounds) {
            run.e2e.push(spawn_pass(args, &run.w, false));
            if args.trace {
                run.layered.push(spawn_pass(args, &run.w, true));
            }
        }
        round += 1;
    }

    let (cpu, mhz) = stats::cpu_model();
    let threads = stats::available_parallelism();
    println!(
        "mbpbench seed {} scale {}: {:.1} s{}, {threads} threads, {cpu} @ {mhz:.0} MHz",
        args.seed,
        args.scale,
        start.elapsed().as_secs_f64(),
        if args.trace { " with layer passes" } else { "" },
    );
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Map::new();
    for run in &mut runs {
        let outcome = summarize(args, run, out_dir);
        attempted += outcome.attempted;
        failed += outcome.failed;
        for m in &outcome.metrics {
            // With several workloads, each metric name carries its
            // workload's.
            let name = if args.workloads.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", run.w.name, m.name)
            };
            metrics.insert(name.as_str(), json!({"value": m.value, "unit": m.unit}));
        }
    }
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!("{}", line.to_compact_string());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks one workload's passes, prints its table, writes its results
/// file, and returns the metrics the run reports for it.
fn summarize(args: &Args, run: &mut Run, out_dir: &Path) -> Outcome {
    let w = &run.w;
    // Every pass must produce the same outputs; for seed 1 at scale 1,
    // the committed ones.
    let expected = w.expected_digest(args.seed, args.scale);
    let reference = expected.unwrap_or(run.e2e[0].digest);
    for report in run.e2e.iter_mut().chain(run.layered.iter_mut()) {
        if report.failed < report.attempted && report.digest != reference {
            report.errors.push(format!(
                "{}: outputs digest {:016x}, expected {reference:016x}",
                w.name, report.digest
            ));
            report.failed = report.attempted;
        }
    }
    let all: Vec<&PassReport> = run.e2e.iter().chain(&run.layered).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    for error in all.iter().flat_map(|r| &r.errors) {
        eprintln!("mbpbench: {error}");
    }

    // On a shared host other tenants slow a pass by up to 1.7x, in spells
    // of seconds to minutes, and the clock drifts by up to a fifth between
    // runs. So every job counts at its fastest of the run's fixed number of
    // passes, the state most runs reach, and times are scaled to the
    // reference clock by the run's median reference loop, a serial chain
    // that follows the host's speed over the run (see `end_to_end`). The
    // quartiles are of the same statistic over interleaved subsets of the
    // passes; the results file keeps every pass.
    let timed: Vec<&PassReport> = run.e2e.iter().filter(|r| r.instructions > 0).collect();
    let mut e2e_metrics = Vec::new();
    if !timed.is_empty() {
        let values = end_to_end(w.jobs.len(), &timed);
        let k = timed.len().min(SPREAD_SUBSETS);
        let subsets: Vec<[f64; 4]> = (0..k)
            .map(|i| {
                let subset: Vec<&PassReport> = timed.iter().skip(i).step_by(k).copied().collect();
                end_to_end(w.jobs.len(), &subset)
            })
            .collect();
        for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
            let by_subset: Vec<f64> = subsets.iter().map(|s| s[i]).collect();
            e2e_metrics.push(Reported {
                name: name.to_string(),
                unit,
                value: values[i],
                summary: Summary::of(&by_subset),
                passes: timed.len(),
            });
        }
    }
    // The sampled sweeps' error is the same in every pass of a seed. Only
    // `analysis` has it, and every workload must print the same metrics in
    // the result line, so it is shown and kept in the results file only.
    let sampled_err: Vec<f64> = timed
        .iter()
        .filter_map(|r| r.sampled_mpki_rel_err)
        .collect();
    let sampled = Reported::median("sampled_mpki_rel_err", "ratio", &sampled_err);

    // The reference loop's median scales the times above; its quartiles
    // show how far the host's speed drifted during the run.
    let ref_loop_ns: Vec<f64> = timed.iter().map(|r| r.ref_loop_ns).collect();
    let ref_loop = Reported::median("host.ref_loop_ns", "ns", &ref_loop_ns);

    let mut layer_metrics = Vec::new();
    if let Some(first) = run.layered.iter().find(|r| !r.layers.is_empty()) {
        for (name, _) in &first.layers {
            let values: Vec<f64> = run
                .layered
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            layer_metrics.extend(Reported::median(name, layer_unit(name), &values));
        }
        // The median traced job time against the median untraced pass.
        let traced: Vec<f64> = run
            .layered
            .iter()
            .filter_map(|r| r.layers.iter().find(|(n, _)| n == "core.job_s"))
            .map(|(_, v)| *v)
            .collect();
        let untraced: Vec<f64> = timed.iter().map(|r| r.pass_s()).collect();
        if !traced.is_empty() && !untraced.is_empty() {
            let overhead = Summary::of(&traced).median / Summary::of(&untraced).median - 1.0;
            layer_metrics.extend(Reported::median(
                "bench.trace_overhead_frac",
                "ratio",
                &[overhead],
            ));
        }
        layer_metrics.extend(Reported::median("bench.gen_s", "s", &[run.gen_s]));
        layer_metrics.extend(ref_loop.clone());
    }

    println!(
        "\n{}: {} passes{}, digest {:016x}, set-up {:.2} s",
        w.name,
        run.e2e.len(),
        if args.trace {
            format!(" + {} layer passes", run.layered.len())
        } else {
            String::new()
        },
        run.e2e[0].digest,
        run.gen_s,
    );
    for r in run.layered.iter().filter(|r| !r.layers.is_empty()) {
        println!("{}", reconciliation_row(&r.layers));
    }
    let (cpu, mhz) = stats::cpu_model();
    let ref_loop_detail = metrics_detail(ref_loop.iter())["host.ref_loop_ns"].clone();
    let results = json!({
        "workload": w.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "host": {
            "available_parallelism": stats::available_parallelism(),
            "cpu_model": cpu,
            "cpu_mhz": mhz,
            "ref_loop_ns": ref_loop_detail,
            "reference_clock_loop_ns": REFERENCE_LOOP_NS,
            "clock_scale": ref_loop.as_ref().map(|m| REFERENCE_LOOP_NS / m.value),
        },
        "passes": run.e2e.len(),
        "layer_passes": run.layered.len(),
        "setup_gen_s": run.gen_s,
        "digest": format!("{:016x}", run.e2e[0].digest),
        "expected_digest": expected.map(|d| format!("{d:016x}")),
        "attempted": attempted,
        "failed": failed,
        "errors": all.iter().flat_map(|r| &r.errors).map(String::as_str).collect::<Vec<_>>(),
        "metrics": metrics_detail(e2e_metrics.iter().chain(&sampled).chain(&layer_metrics)),
        "pass_reports": run.e2e.iter().map(PassReport::to_json).collect::<Vec<_>>(),
    });
    let results_path = out_dir.join(if args.trace {
        format!("results-{}-layers.json", w.name)
    } else {
        format!("results-{}.json", w.name)
    });
    if let Err(e) = fs::write(&results_path, format!("{results:#}\n")) {
        eprintln!("mbpbench: cannot write {}: {e}", results_path.display());
    }
    let (shown, reported) = if args.trace {
        (layer_metrics.clone(), layer_metrics)
    } else {
        (
            e2e_metrics.iter().chain(&sampled).cloned().collect(),
            e2e_metrics,
        )
    };
    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>8} {:>6}  unit",
        "metric", "value", "q1", "q3", "spread", "passes"
    );
    for m in &shown {
        println!(
            "{:<44} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>6}  {}",
            m.name,
            m.value,
            m.summary.q1,
            m.summary.q3,
            100.0 * m.summary.relative_spread(),
            m.passes,
            m.unit
        );
    }

    Outcome {
        attempted,
        failed,
        metrics: reported,
    }
}

fn metrics_detail<'m>(metrics: impl Iterator<Item = &'m Reported>) -> Value {
    let mut out = Map::new();
    for m in metrics {
        out.insert(
            m.name.as_str(),
            json!({
                "value": m.value,
                "unit": m.unit,
                "median": m.summary.median,
                "q1": m.summary.q1,
                "q3": m.summary.q3,
                "spread": m.summary.relative_spread(),
                "n": m.passes,
            }),
        );
    }
    Value::Object(out)
}

/// One layer pass's reconciliation: the traced job time as the sum of the
/// layers' self times and the residual.
fn reconciliation_row(layers: &[(String, f64)]) -> String {
    let get = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let terms = [
        ("inflate", "compress.inflate_s"),
        ("open", "trace.open_s"),
        ("new", "predictors.new_s"),
        ("decode", "trace.decode_s"),
        ("predict_batch", "predictors.batch_s"),
        ("score", "core.score_s"),
        ("to_json", "core.to_json_s"),
        ("residual", "core.residual_s"),
    ];
    let sum: f64 = terms.iter().map(|(_, metric)| get(metric)).sum();
    let parts: Vec<String> = terms
        .iter()
        .map(|(label, metric)| format!("{label} {:.4}", get(metric)))
        .collect();
    format!(
        "ledger: job {:.4} s = {} (sum {sum:.4}; residual {:.1}% of job)",
        get("core.job_s"),
        parts.join(" + "),
        100.0 * get("core.residual_frac"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = parse_args(&argv(&[
            "--workload",
            "analysis",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workloads, ["analysis"]);
        assert_eq!((args.seed, args.seconds, args.trace), (3, 2.0, true));
        let args = parse_args(&argv(&["--layers"])).expect("valid");
        assert_eq!(args.workloads, WORKLOAD_NAMES);
        assert_eq!((args.trace, args.seconds), (true, DEFAULT_SECONDS));
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "analysis", "--trace", "2"],
            &["--workload", "analysis", "--seed"],
            &["--workload", "analysis", "--scale", "0"],
            &["--workload", "analysis", "--seconds", "-1"],
            &["--workload", "analysis", "--passes", "3"],
            &["--workload", "analysis", "--frobnicate", "1"],
            &["--workload", "analysis", "--child", "other"],
            &["--child", "e2e"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn pass_count_follows_seconds_not_host_speed() {
        let w = Workload::named("composite-run", 1.0).expect("defined");
        let mut args = parse_args(&argv(&["--seconds", "0"])).expect("valid");
        assert_eq!(rounds(&w, &args), 1);
        args.seconds = 12.0 * w.pass_s;
        assert_eq!(rounds(&w, &args), 12);
        args.trace = true;
        assert_eq!(rounds(&w, &args), 3);
    }

    #[test]
    fn each_job_counts_at_its_fastest_pass_on_the_reference_clock() {
        let pass = |job_s: [f64; 2], ref_loop_ns: f64, rss_kib: u64| PassReport {
            job_s: job_s.to_vec(),
            job_cpu_s: job_s.to_vec(),
            job_setup_s: vec![0.1, 0.2],
            rss_kib,
            instructions: 1_000_000_000,
            ref_loop_ns,
            ..PassReport::default()
        };
        // The median reference loop runs at twice the reference clock.
        let a = pass([1.0, 4.0], REFERENCE_LOOP_NS / 2.0, 1024);
        let b = pass([2.0, 3.0], REFERENCE_LOOP_NS, 2048);
        let c = pass([5.0, 5.0], REFERENCE_LOOP_NS / 4.0, 1024);
        let [minstr_per_s, cpu_s_per_ginstr, setup_s, peak_rss_mib] = end_to_end(2, &[&a, &b, &c]);
        // Jobs at 1.0 s and 3.0 s, scaled to 8.0 s over 1 Ginstr.
        assert_eq!(minstr_per_s, 125.0);
        assert_eq!(cpu_s_per_ginstr, 8.0);
        assert!((setup_s - 0.6).abs() < 1e-12, "{setup_s}");
        assert_eq!(peak_rss_mib, 2.0);
        assert_eq!(end_to_end(2, &[&c, &b, &a]), end_to_end(2, &[&a, &b, &c]));
    }

    #[test]
    fn layer_units_follow_name_suffixes() {
        assert_eq!(layer_unit("trace.decode_mrec_per_s"), "Mrec/s");
        assert_eq!(layer_unit("predictors.tage.batch_minstr_per_s"), "Minstr/s");
        assert_eq!(layer_unit("compress.inflate_mb_per_s"), "MB/s");
        assert_eq!(layer_unit("compress.inflate_s"), "s");
        assert_eq!(layer_unit("predictors.tage.kernel_speedup"), "x");
        assert_eq!(layer_unit("core.residual_frac"), "ratio");
        assert_eq!(layer_unit("host.ref_loop_ns"), "ns");
        assert_eq!(layer_unit("trace.resident_mib"), "MiB");
    }

    #[test]
    fn reconciliation_adds_up() {
        let layers: Vec<(String, f64)> = [
            ("compress.inflate_s", 0.1),
            ("trace.open_s", 0.2),
            ("predictors.new_s", 0.0),
            ("trace.decode_s", 0.3),
            ("predictors.batch_s", 0.4),
            ("core.score_s", 0.5),
            ("core.to_json_s", 0.1),
            ("core.residual_s", 0.4),
            ("core.residual_frac", 0.2),
            ("core.job_s", 2.0),
        ]
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
        let row = reconciliation_row(&layers);
        assert!(row.contains("job 2.0000 s"), "{row}");
        assert!(row.contains("(sum 2.0000;"), "{row}");
    }
}
