//! End-to-end tests of the event journal's export path: a real multi-worker
//! sweep, drained and rendered as Chrome trace-event JSON, must parse back
//! through `mbp-json` and satisfy the validator's per-thread monotonicity.
//!
//! The journal is process-global, so every test takes the same lock and
//! clears the journal while holding it.

use std::sync::{Mutex, MutexGuard, PoisonError};

use mbp::events_export::{chrome_trace_json, validate_chrome_trace};
use mbp::examples::by_name;
use mbp::json::Value;
use mbp::sim::{simulate_many, Predictor, SimConfig, SliceSource, SweepConfig};
use mbp::stats::events::{self, EventKind, EventName};
use mbp::trace::{Branch, BranchRecord};
use mbp::workloads::{ProgramParams, Suite, TraceGenerator};

fn journal_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    events::set_events_enabled(true);
    events::clear();
    guard
}

fn sweep_config(jobs: usize) -> SweepConfig {
    SweepConfig {
        sim: SimConfig {
            max_instructions: Some(50_000),
            ..SimConfig::default()
        },
        jobs,
        ..SweepConfig::default()
    }
}

/// A finite record block for sweeps: `simulate_many` decodes its whole
/// source up front, so it must not be fed the endless generator.
fn smoke_records() -> Vec<BranchRecord> {
    Suite::smoke().traces[0].records()
}

fn generator() -> TraceGenerator {
    TraceGenerator::from_params(&ProgramParams::mobile(), 1).with_name("EVENTS-test")
}

/// Wraps a stock predictor and sleeps once on the first prediction, so a
/// single fast worker cannot drain the whole queue before its sibling has
/// spawned — the test needs both workers to actually journal intervals.
struct SlowOnce {
    inner: Box<dyn Predictor + Send>,
    slept: bool,
}

impl SlowOnce {
    fn boxed(name: &str) -> Box<dyn Predictor + Send> {
        Box::new(Self {
            inner: by_name(name).unwrap(),
            slept: false,
        })
    }
}

impl Predictor for SlowOnce {
    fn predict(&mut self, ip: u64) -> bool {
        if !self.slept {
            self.slept = true;
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        self.inner.predict(ip)
    }
    fn train(&mut self, b: &Branch) {
        self.inner.train(b)
    }
    fn track(&mut self, b: &Branch) {
        self.inner.track(b)
    }
    fn metadata(&self) -> Value {
        self.inner.metadata()
    }
}

/// Panics after `n` predictions; exercises the sweep's `catch_unwind` path.
struct PanicAfter(u64);

impl Predictor for PanicAfter {
    fn predict(&mut self, _ip: u64) -> bool {
        if self.0 == 0 {
            panic!("intentional fault for testing");
        }
        self.0 -= 1;
        true
    }
    fn train(&mut self, _b: &Branch) {}
    fn track(&mut self, _b: &Branch) {}
    fn metadata(&self) -> Value {
        mbp::json::json!({"name": "panic-after"})
    }
}

#[test]
fn two_worker_sweep_round_trips_through_chrome_trace() {
    let _guard = journal_lock();
    let predictors: Vec<(String, Box<dyn Predictor + Send>)> =
        ["gshare", "bimodal", "gshare", "bimodal"]
            .iter()
            .enumerate()
            .map(|(i, name)| (format!("{name}-{i}"), SlowOnce::boxed(name)))
            .collect();
    let records = smoke_records();
    let mut trace = SliceSource::new(&records);
    let result = simulate_many(&mut trace, predictors, &sweep_config(2)).expect("sweep runs");
    assert_eq!(result.entries.len(), 4);
    assert_eq!(result.jobs, 2);

    let drained = events::drain();
    assert!(
        !drained.is_empty(),
        "an instrumented sweep leaves a journal"
    );
    let worker_tids: std::collections::HashSet<u64> = drained
        .iter()
        .filter(|e| e.name == EventName::SweepWorker)
        .map(|e| e.tid)
        .collect();
    assert_eq!(worker_tids.len(), 2, "both workers journal their intervals");
    assert!(
        drained.iter().any(|e| e.name == EventName::SweepDecode),
        "the decode pass is journaled"
    );
    assert_eq!(
        drained
            .iter()
            .filter(|e| e.name == EventName::SweepPredictorDone)
            .count(),
        4,
        "one completion instant per predictor"
    );

    // The export must survive a full serialize -> reparse -> validate loop.
    let doc = chrome_trace_json(&drained, events::dropped_events());
    let reparsed: Value = doc.to_pretty_string().parse().expect("trace JSON parses");
    let check = validate_chrome_trace(&reparsed).expect("strictly monotonic per thread");
    assert_eq!(check.events, drained.len() as u64);
    assert!(check.threads >= 3, "decode thread plus two workers");
}

#[test]
fn sweep_fault_path_keeps_worker_spans_paired() {
    let _guard = journal_lock();
    let predictors: Vec<(String, Box<dyn Predictor + Send>)> = vec![
        ("ok".to_string(), by_name("bimodal").unwrap()),
        ("buggy".to_string(), Box::new(PanicAfter(100))),
    ];
    let records = smoke_records();
    let mut trace = SliceSource::new(&records);
    let result = simulate_many(&mut trace, predictors, &sweep_config(2)).expect("sweep survives");
    assert_eq!(result.failures.len(), 1, "the fault is isolated");

    let drained = events::drain();
    assert!(
        drained.iter().any(|e| e.name == EventName::SweepFault),
        "the caught panic is journaled as an instant"
    );
    // Every worker interval that opened also closed — the panicking
    // predictor unwound through the span guard, not past it.
    for tid in drained
        .iter()
        .map(|e| e.tid)
        .collect::<std::collections::HashSet<_>>()
    {
        let begins = drained
            .iter()
            .filter(|e| {
                e.tid == tid && e.name == EventName::SweepWorker && e.kind == EventKind::SpanBegin
            })
            .count();
        let ends = drained
            .iter()
            .filter(|e| {
                e.tid == tid && e.name == EventName::SweepWorker && e.kind == EventKind::SpanEnd
            })
            .count();
        assert_eq!(begins, ends, "unbalanced worker spans on tid {tid}");
    }

    let doc = chrome_trace_json(&drained, events::dropped_events());
    validate_chrome_trace(&doc).expect("fault-path trace still validates");
}

#[test]
fn journal_overflow_is_counted_and_warned_about() {
    let _guard = journal_lock();
    assert_eq!(events::dropped_events(), 0, "clear() zeroes the loss count");
    assert_eq!(
        mbp::events_export::dropped_events_warning(events::dropped_events()),
        None,
        "a fresh journal warns about nothing"
    );
    // The ring holds CAPACITY events; overfill it so the ring must evict
    // and the producer-side loss counter moves.
    for i in 0..(events::CAPACITY as u64 + 1000) {
        events::instant(EventName::TelemetryScrape, i);
    }
    let dropped = events::dropped_events();
    assert!(dropped >= 1000, "overfill is counted, got {dropped}");
    let warning =
        mbp::events_export::dropped_events_warning(dropped).expect("loss produces the warning");
    assert!(
        warning.contains(&format!("{dropped} event(s) dropped")),
        "{warning}"
    );
    events::clear();
}

#[test]
fn simulation_batches_feed_the_sampler() {
    let _guard = journal_lock();
    let before = events::sample_every();
    events::set_sample_every(4);
    let mut trace = generator();
    let mut predictor = by_name("gshare").unwrap();
    let cfg = SimConfig {
        max_instructions: Some(100_000),
        ..SimConfig::default()
    };
    mbp::sim::simulate(&mut trace, &mut *predictor, &cfg).expect("sim runs");
    events::set_sample_every(before);

    let drained = events::drain();
    let samples: Vec<_> = drained
        .iter()
        .filter(|e| e.kind == EventKind::Sample)
        .collect();
    assert!(
        !samples.is_empty(),
        "a multi-batch run crosses the sampling interval"
    );
    assert!(samples
        .iter()
        .any(|e| e.name == EventName::SampleSimRecords));
    // Cumulative series never go backwards within a thread.
    let mut last = 0u64;
    for s in samples
        .iter()
        .filter(|e| e.name == EventName::SampleSimRecords)
    {
        assert!(s.arg >= last, "cumulative sample series regressed");
        last = s.arg;
    }
}
