//! The timeline and the pipeline timers are one measurement: every span a
//! timer counts is a span of the event journal, opened and closed by the
//! same clock reads. For each command, the `span_end - span_begin` lengths
//! that `mbpsim --events-out` journals under a timer's span name must sum
//! to what `--metrics-out` reports for that timer, and the run and decode
//! spans to the documents' `simulation_time`s and `decode_time`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use mbp::json::Value;
use mbp::stats::{PipelineStats, Reading};

/// Each timer's journal span, and its `--metrics-out` section and key.
const LAW: [(&str, &str, &str); 6] = [
    ("trace.fill_batch", "decode", "time_s"),
    ("compress.inflate", "compress", "time_s"),
    ("sim.fill_batch", "simulate", "fill_batch_time_s"),
    ("sim.simulate", "simulate", "time_s"),
    ("sweep.worker_busy", "sweep", "worker_busy_s"),
    ("workloads.generate", "generation", "time_s"),
];

/// How far a journal sum may stray from its timer, per span: the journal
/// bumps a timestamp by a nanosecond where two events would tie.
const NS_PER_SPAN: f64 = 2.0;

fn mbpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbpsim"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mbplib-timeline-law").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Summed lengths and counts of the journal's spans, by name. Spans nest
/// per thread, so each end closes the innermost open span of its thread.
fn journal_spans(events: &Path) -> BTreeMap<String, (u64, u64)> {
    let text = std::fs::read_to_string(events).expect("read events");
    let mut open: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for line in text.lines() {
        let e: Value = line.parse().expect("JSONL event");
        let field = |key: &str| e.get(key).expect("event field");
        let (tid, ts) = (
            field("tid").as_u64().unwrap(),
            field("ts_ns").as_u64().unwrap(),
        );
        let name = field("name").as_str().unwrap().to_string();
        match field("kind").as_str().unwrap() {
            "span_begin" => open.entry(tid).or_default().push((name, ts)),
            "span_end" => {
                let (begun, start) = open.get_mut(&tid).and_then(Vec::pop).expect("open span");
                assert_eq!(begun, name, "spans nest per thread");
                let sum = spans.entry(name).or_default();
                *sum = (sum.0 + (ts - start), sum.1 + 1);
            }
            _ => {}
        }
    }
    assert!(open.values().all(Vec::is_empty), "every span closes");
    spans
}

/// Every `simulation_time` in `doc`, wherever it sits.
fn simulation_times(doc: &Value, out: &mut Vec<f64>) {
    match doc {
        Value::Object(map) => {
            for (key, value) in map.iter() {
                match (key, value.as_f64()) {
                    ("simulation_time", Some(t)) => out.push(t),
                    _ => simulation_times(value, out),
                }
            }
        }
        Value::Array(items) => items.iter().for_each(|v| simulation_times(v, out)),
        _ => {}
    }
}

fn assert_close(what: &str, journal_ns: u64, spans: u64, reported_s: f64) {
    let gap = (journal_ns as f64 - reported_s * 1e9).abs();
    assert!(
        gap <= NS_PER_SPAN * spans as f64 + 1.0,
        "{what}: journal {journal_ns} ns over {spans} span(s), reported {reported_s} s"
    );
}

/// Runs one command with `--events-out` and `--metrics-out` and checks
/// the law on what it wrote, and on the document it prints if `document`.
fn check(dir: &Path, label: &str, args: &[&str], document: bool) {
    let (events, metrics) = (dir.join("events.jsonl"), dir.join("metrics.json"));
    let out = mbpsim()
        .args(args)
        .arg("--events-out")
        .arg(&events)
        .arg("--metrics-out")
        .arg(&metrics)
        .current_dir(dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{label}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spans = journal_spans(&events);
    let metrics: Value = (std::fs::read_to_string(&metrics).expect("read metrics"))
        .parse()
        .expect("valid JSON");
    assert_eq!(
        metrics.get("dropped_events").and_then(Value::as_u64),
        Some(0),
        "{label}: the journal kept every event"
    );
    for (name, section, key) in LAW {
        let (ns, count) = spans.get(name).copied().unwrap_or_default();
        let reported = (metrics.get(section))
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{label}: no {section}.{key}"));
        assert_close(&format!("{label}: {name}"), ns, count, reported);
    }
    if !document {
        return;
    }
    let doc: Value = String::from_utf8(out.stdout)
        .expect("utf8")
        .parse()
        .expect("JSON document");
    // A sweep's leaderboard repeats its results' times.
    let mut times = Vec::new();
    simulation_times(doc.get("results").unwrap_or(&doc), &mut times);
    assert!(!times.is_empty(), "{label}: the document times its runs");
    let (ns, count) = spans.get("sim.simulate").copied().unwrap_or_default();
    assert_close(
        &format!("{label}: simulation_time"),
        ns,
        count,
        times.iter().sum(),
    );
    if let Some(decode) = (doc.get("metadata"))
        .and_then(|m| m.get("decode_time"))
        .and_then(Value::as_f64)
    {
        let (ns, count) = spans.get("sweep.decode").copied().unwrap_or_default();
        assert_eq!(count, 1, "{label}: one decode pass");
        assert_close(&format!("{label}: decode_time"), ns, count, decode);
    }
}

#[test]
fn every_journal_span_sums_to_its_timer() {
    let dir = temp_dir("commands");
    let traces = dir.join("traces");
    let traces = traces.to_str().expect("utf8 path");
    check(
        &dir,
        "gen",
        &["gen", "--suite", "smoke", "--out", traces],
        false,
    );
    let server = format!("{traces}/SMOKE-server.sbbt.mzst");
    let trace = server.as_str();
    let predictors = ["--predictors", "gshare,tage,bimodal", "--trace", trace];
    let plan = ["--window", "5000", "--clusters", "3", "--out", "plan.json"];
    let runs: [(&str, Vec<&str>, bool); 6] = [
        (
            "run with a cut-off",
            vec![
                "run",
                "--predictor",
                "gshare",
                "--trace",
                trace,
                "--max",
                "60000",
                "--quiet",
            ],
            true,
        ),
        ("explain", vec!["explain", trace, "tage", "--quiet"], true),
        (
            "compare",
            vec!["compare", "--predictors", "gshare,tage", "--trace", trace],
            true,
        ),
        (
            "sweep",
            [&["sweep"], &predictors[..], &["--jobs", "1", "--quiet"]].concat(),
            true,
        ),
        (
            "simpoint",
            [&["simpoint", "--trace", trace], &plan[..]].concat(),
            false,
        ),
        (
            "sweep with phases",
            [
                &["sweep"],
                &predictors[..],
                &["--jobs", "1", "--phases", "plan.json", "--quiet"],
            ]
            .concat(),
            true,
        ),
    ];
    for (label, args, document) in runs {
        check(&dir, label, &args, document);
    }
}

/// The law's table covers every timer the pipeline renders, so a new
/// timer is checked as soon as its row exists.
#[test]
fn the_law_names_every_timer() {
    let timers: BTreeSet<(&str, &str)> = (PipelineStats::new().rows().into_iter())
        .filter(|row| matches!(row.value, Reading::Timer { .. }))
        .map(|row| (row.section, row.key))
        .collect();
    let named: BTreeSet<(&str, &str)> = LAW.iter().map(|&(_, s, k)| (s, k)).collect();
    assert_eq!(timers, named);
}
