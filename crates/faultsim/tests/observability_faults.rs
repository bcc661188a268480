//! The observability read-back campaign: `stats-diff`, `report` and
//! `validate-trace` read back documents that `--metrics-out`, `sweep` and
//! `--trace-out` wrote, so those documents are untrusted input like a
//! trace. A metrics file carrying the time series, introspection and
//! forensics sections, a sweep document and a Chrome trace are each built
//! through the library calls `mbpsim` makes, then cut at every offset,
//! flipped at a seeded sample of bits, and stripped of each top-level key
//! in turn. Every mutant goes through `mbp-json` parsing, `diff_metrics`
//! against the original in both directions with its rendering,
//! `render_html` and `validate_chrome_trace`: none may panic, and each
//! rejection is an `Err`.

use mbp::diff::{diff_metrics, DiffOptions};
use mbp::events_export::{chrome_trace_json, validate_chrome_trace};
use mbp::examples::by_name;
use mbp::html_report::render_html;
use mbp::json::Value;
use mbp::sim::{
    simulate, simulate_many, ForensicsConfig, Predictor, Section, SimConfig, SliceSource,
    SweepConfig,
};
use mbp::stats::events;
use mbp::trace::BranchRecord;
use mbp::workloads::{ProgramParams, TraceGenerator};
use mbp_faultsim::{bit_flips, cuts_at, run_suite, Expect, Mutant, SuiteReport};

/// A short trace: documents stay a few kilobytes, so every cut is cheap.
fn records() -> Vec<BranchRecord> {
    TraceGenerator::from_params(&ProgramParams::mobile(), 7).take_records(3_000)
}

/// A run with every opt-in section a run can carry, and its
/// `--metrics-out` file as `mbpsim run --metrics-out` assembles it.
fn metrics_file(records: &[BranchRecord]) -> Value {
    let config = SimConfig {
        timeseries_window: Some(4_000),
        collect_probes: true,
        forensics: Some(ForensicsConfig { top_limit: 3 }),
        most_failed_limit: 3,
        ..SimConfig::default()
    };
    let mut predictor = by_name("gshare").expect("stock predictor");
    let result = simulate(&mut SliceSource::new(records), &mut *predictor, &config);
    let mut doc = result.expect("in-memory run").to_json();
    let metrics = mbp::report::metrics_document(mbp::stats::pipeline(), 0, Some(&mut doc));
    for section in [
        Section::Timeseries,
        Section::Introspection,
        Section::Forensics,
    ] {
        assert!(metrics.get(section.name()).is_some(), "{}", section.name());
    }
    metrics
}

fn sweep_document(records: &[BranchRecord]) -> Value {
    let predictors: Vec<(String, Box<dyn Predictor + Send>)> = ["gshare", "bimodal"]
        .iter()
        .map(|name| (name.to_string(), by_name(name).expect("stock predictor")))
        .collect();
    let config = SweepConfig {
        sim: SimConfig {
            most_failed_limit: 3,
            ..SimConfig::default()
        },
        jobs: 1,
        ..SweepConfig::default()
    };
    let sweep = simulate_many(&mut SliceSource::new(records), predictors, &config);
    sweep.expect("in-memory sweep").to_json()
}

/// The journal of one run, as `--trace-out` renders it. The journal is
/// process-wide, and this is the only test in this binary that arms it.
fn chrome_trace(records: &[BranchRecord]) -> Value {
    events::set_events_enabled(true);
    events::clear();
    let mut predictor = by_name("bimodal").expect("stock predictor");
    let config = SimConfig::default();
    simulate(&mut SliceSource::new(records), &mut *predictor, &config).expect("in-memory run");
    events::set_events_enabled(false);
    let doc = chrome_trace_json(&events::drain(), events::dropped_events());
    validate_chrome_trace(&doc).expect("the journal renders a valid trace");
    doc
}

/// What `stats-diff`, `report` and `validate-trace` do with `bytes`.
fn read_back(original: &Value, bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let doc: Value = text.parse().map_err(|e| format!("{e}"))?;
    let options = DiffOptions::default();
    diff_metrics(original, &doc, &options).render();
    diff_metrics(&doc, original, &options).render();
    render_html(&doc);
    validate_chrome_trace(&doc).map(|_| ())
}

fn rendered(doc: &Value) -> Vec<u8> {
    format!("{doc:#}\n").into_bytes()
}

/// The document without each of its top-level keys in turn.
fn without_each_key(doc: &Value) -> Vec<Mutant> {
    let keys: Vec<String> = (doc.as_object().expect("an object").iter())
        .map(|(key, _)| key.to_string())
        .collect();
    keys.into_iter()
        .map(|key| {
            let mut mutant = doc.clone();
            if let Some(obj) = mutant.as_object_mut() {
                obj.remove(&key);
            }
            Mutant {
                description: format!("without {key:?}"),
                bytes: rendered(&mutant),
                expect: Expect::NoPanic,
            }
        })
        .collect()
}

/// Drives every mutant of `doc` through [`read_back`] and returns the
/// report of the key removals.
fn campaign(label: &str, doc: &Value, seed: u64) -> SuiteReport {
    let base = rendered(doc);
    // A cut that keeps the closing brace drops only the trailing newline.
    let closing = base.len() - 1;
    let expect = |at| {
        if at < closing {
            Expect::Reject
        } else {
            Expect::NoPanic
        }
    };
    let cuts = run_suite(&cuts_at(&base, 0..base.len(), expect), |bytes| {
        read_back(doc, bytes)
    });
    cuts.assert_clean(&format!("{label} cuts"));
    assert_eq!(cuts.total, base.len(), "{label}: every cut");

    let flips = bit_flips(&base, 300, seed, |_| Expect::NoPanic);
    run_suite(&flips, |bytes| read_back(doc, bytes)).assert_clean(&format!("{label} flips"));

    let removals = run_suite(&without_each_key(doc), |bytes| read_back(doc, bytes));
    removals.assert_clean(&format!("{label} key removals"));
    removals
}

#[test]
fn every_cut_flip_and_missing_key_of_an_observability_document_fails_closed() {
    let records = records();
    campaign("metrics file", &metrics_file(&records), 0x0B5E_0001);
    campaign("sweep document", &sweep_document(&records), 0x0B5E_0002);
    let trace = chrome_trace(&records);
    let removals = campaign("chrome trace", &trace, 0x0B5E_0003);
    // Only the event array is required: without `otherData` a trace
    // validates with no dropped events.
    assert_eq!(
        (removals.rejected, removals.decoded),
        (1, 2),
        "{removals:?}"
    );
}
