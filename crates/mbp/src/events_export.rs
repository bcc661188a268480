//! Export layers for the [`mbp_stats::events`] journal: Chrome trace-event
//! JSON (loadable in Perfetto or `chrome://tracing`) and a compact JSONL
//! stream, plus the validator behind `mbpsim validate-trace`.
//!
//! The Chrome trace-event format is the de-facto interchange format for
//! timeline viewers: a JSON object with a `traceEvents` array whose entries
//! carry a name, a phase (`"B"`egin / `"E"`nd / `"i"`nstant / `"C"`ounter),
//! a microsecond timestamp and a process/thread id. Spans from the journal
//! map to `B`/`E` pairs per thread, instants to `i`, and samples to `C`
//! counter tracks, so a `--trace-out` file opens directly as a per-worker
//! swim-lane timeline with throughput curves underneath.

use std::collections::HashMap;

use mbp_json::{json, Map, Value};
use mbp_stats::events::{Event, EventKind};

/// Renders drained journal events as a Chrome trace-event JSON document.
///
/// Timestamps are converted to microseconds and bumped (by 1 ns) where
/// needed so they are **strictly increasing per thread** — viewers sort
/// stably, but downstream diffing tools rely on the order being total.
/// `dropped_events` (from [`mbp_stats::events::dropped_events`]) is recorded
/// under `otherData` so a truncated timeline is detectable.
pub fn chrome_trace_json(events: &[Event], dropped_events: u64) -> Value {
    let mut trace_events = Vec::with_capacity(events.len());
    let mut last_us: HashMap<u64, f64> = HashMap::new();
    for e in events {
        let mut ts = e.ts_ns as f64 / 1000.0;
        if let Some(prev) = last_us.get(&e.tid) {
            if ts <= *prev {
                ts = prev + 0.001;
            }
        }
        last_us.insert(e.tid, ts);
        let mut obj = Map::new();
        obj.insert("name", e.name.as_str());
        obj.insert("cat", "mbp");
        obj.insert("ph", phase(e.kind));
        obj.insert("ts", ts);
        obj.insert("pid", 1u64);
        obj.insert("tid", e.tid);
        match e.kind {
            EventKind::SpanBegin | EventKind::Instant => {
                if e.kind == EventKind::Instant {
                    // Thread-scoped instant marker.
                    obj.insert("s", "t");
                }
                obj.insert("args", json!({ "arg": e.arg }));
            }
            EventKind::Sample => {
                // Counter tracks chart `args` values over time.
                obj.insert("args", json!({ "value": e.arg }));
            }
            EventKind::SpanEnd => {}
        }
        trace_events.push(Value::Object(obj));
    }
    json!({
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "mbpsim",
            "dropped_events": dropped_events,
        },
    })
}

fn phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::SpanBegin => "B",
        EventKind::SpanEnd => "E",
        EventKind::Instant => "i",
        EventKind::Sample => "C",
    }
}

/// Renders drained journal events as compact JSONL: one event object per
/// line, in drain order (grouped by thread, chronological within each).
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let line = json!({
            "ts_ns": e.ts_ns,
            "tid": e.tid,
            "kind": e.kind.as_str(),
            "name": e.name.as_str(),
            "arg": e.arg,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// Summary of a validated Chrome trace file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Events in the `traceEvents` array.
    pub events: u64,
    /// Distinct thread ids observed.
    pub threads: u64,
    /// Events the producer dropped to ring wrap-around (`otherData`).
    pub dropped: u64,
}

/// Validates a parsed Chrome trace document: `traceEvents` must be an array
/// of objects carrying `name`/`ph`/`ts`/`pid`/`tid`, with a known phase and
/// **strictly increasing** timestamps per thread, and every `E` must close
/// the innermost `B` still open on its thread, of the same name. A `B` left
/// open at the end is accepted: a worker stalled past a deadline leaves
/// one. A document without `otherData.dropped_events` reports no dropped
/// events.
///
/// # Errors
///
/// A one-line description of the first structural violation; an unpaired
/// `E` also says how many events the producer dropped, if any.
pub fn validate_chrome_trace(doc: &Value) -> Result<TraceCheck, String> {
    let events = (doc.get("traceEvents"))
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let dropped = (doc.get("otherData"))
        .and_then(|other| other.get("dropped_events")?.as_u64())
        .unwrap_or(0);
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut open: HashMap<u64, Vec<&Value>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let obj = e
            .as_object()
            .ok_or(format!("traceEvents[{i}]: not an object"))?;
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if !obj.contains_key(key) {
                return Err(format!("traceEvents[{i}]: missing {key:?}"));
            }
        }
        let ph = e["ph"]
            .as_str()
            .ok_or(format!("traceEvents[{i}]: ph not a string"))?;
        if !matches!(ph, "B" | "E" | "i" | "C") {
            return Err(format!("traceEvents[{i}]: unknown phase {ph:?}"));
        }
        let ts = e["ts"]
            .as_f64()
            .ok_or(format!("traceEvents[{i}]: ts not a number"))?;
        let tid = e["tid"]
            .as_u64()
            .ok_or(format!("traceEvents[{i}]: tid not an integer"))?;
        if let Some(prev) = last_ts.get(&tid) {
            if ts <= *prev {
                return Err(format!(
                    "traceEvents[{i}]: timestamp {ts} not strictly after {prev} on tid {tid}"
                ));
            }
        }
        last_ts.insert(tid, ts);
        let spans = open.entry(tid).or_default();
        match ph {
            "B" => spans.push(&e["name"]),
            "E" if spans.last() == Some(&&e["name"]) => {
                spans.pop();
            }
            "E" => {
                let lost = match dropped {
                    0 => String::new(),
                    n => format!(" (the producer dropped {n} events)"),
                };
                return Err(format!(
                    "traceEvents[{i}]: end of span {} on tid {tid} closes no open begin{lost}",
                    e["name"]
                ));
            }
            _ => {}
        }
    }
    Ok(TraceCheck {
        events: events.len() as u64,
        threads: last_ts.len() as u64,
        dropped,
    })
}

/// The end-of-run warning for a journal that wrapped: `None` when nothing
/// was lost, one stderr-ready line otherwise. Pure, so the exact wording
/// (which fleet drivers grep for) is pinned by a test.
pub fn dropped_events_warning(dropped: u64) -> Option<String> {
    (dropped > 0).then(|| {
        format!(
            "mbpsim: warning: event journal overflowed; {dropped} event(s) dropped \
             (shorten the run with --max for a complete timeline)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_stats::events::EventName;

    fn ev(ts_ns: u64, tid: u64, kind: EventKind, name: EventName, arg: u64) -> Event {
        Event {
            ts_ns,
            tid,
            kind,
            name,
            arg,
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(1_000, 1, EventKind::SpanBegin, EventName::SimSimulate, 0),
            ev(
                2_000,
                1,
                EventKind::Instant,
                EventName::SweepPredictorDone,
                7,
            ),
            ev(3_000, 1, EventKind::SpanEnd, EventName::SimSimulate, 0),
            ev(
                1_500,
                2,
                EventKind::Sample,
                EventName::SampleSimRecords,
                2048,
            ),
        ]
    }

    #[test]
    fn chrome_trace_round_trips_and_validates() {
        let doc = chrome_trace_json(&sample_events(), 3);
        let reparsed: Value = doc.to_pretty_string().parse().unwrap();
        let check = validate_chrome_trace(&reparsed).unwrap();
        assert_eq!(check.events, 4);
        assert_eq!(check.threads, 2);
        assert_eq!(check.dropped, 3);
        assert_eq!(reparsed["traceEvents"][0]["ph"], Value::from("B"));
        assert_eq!(reparsed["traceEvents"][3]["ph"], Value::from("C"));
    }

    #[test]
    fn equal_timestamps_are_bumped_per_thread() {
        let events = vec![
            ev(1_000, 1, EventKind::Instant, EventName::SweepFault, 0),
            ev(1_000, 1, EventKind::Instant, EventName::SweepFault, 1),
            ev(1_000, 2, EventKind::Instant, EventName::SweepFault, 2),
        ];
        let doc = chrome_trace_json(&events, 0);
        validate_chrome_trace(&doc).expect("strictly monotonic after bumping");
        let t0 = doc["traceEvents"][0]["ts"].as_f64().unwrap();
        let t1 = doc["traceEvents"][1]["ts"].as_f64().unwrap();
        let t2 = doc["traceEvents"][2]["ts"].as_f64().unwrap();
        assert!(t1 > t0, "same-thread tie bumped");
        assert_eq!(t0, t2, "different threads may share a timestamp");
    }

    #[test]
    fn validator_rejects_backwards_time() {
        let events = vec![
            ev(2_000, 1, EventKind::Instant, EventName::SweepFault, 0),
            ev(1_000, 1, EventKind::Instant, EventName::SweepFault, 1),
        ];
        // Rewind the second event's clock by hand so the exporter's
        // tie-bumping cannot fix it.
        let mut doc = chrome_trace_json(&events, 0);
        if let Some(Value::Array(arr)) = doc.as_object_mut().and_then(|o| o.get_mut("traceEvents"))
        {
            if let Some(obj) = arr[1].as_object_mut() {
                obj.insert("ts", 0.5);
            }
        }
        assert!(validate_chrome_trace(&doc).is_err());
    }

    #[test]
    fn validator_rejects_span_ends_it_cannot_pair() {
        use EventKind::{SpanBegin, SpanEnd};
        use EventName::{SimFillBatch, SimSimulate};
        // A thread whose first event ends a span, as a journal that dropped
        // the begin leaves it; and an end for a span other than the open one.
        for (events, dropped, expect) in [
            (
                vec![
                    ev(1_000, 1, SpanEnd, SimSimulate, 0),
                    ev(2_000, 1, SpanBegin, SimSimulate, 0),
                ],
                287,
                r#"traceEvents[0]: end of span "sim.simulate" on tid 1 closes no open begin (the producer dropped 287 events)"#,
            ),
            (
                vec![
                    ev(1_000, 4, SpanBegin, SimSimulate, 0),
                    ev(2_000, 4, SpanBegin, SimFillBatch, 0),
                    ev(3_000, 4, SpanEnd, SimSimulate, 0),
                ],
                0,
                r#"traceEvents[2]: end of span "sim.simulate" on tid 4 closes no open begin"#,
            ),
        ] {
            let doc = chrome_trace_json(&events, dropped);
            assert_eq!(validate_chrome_trace(&doc), Err(expect.to_string()));
        }
        // Nested spans pair innermost first, per thread; a begin still open
        // at the end is accepted.
        let events = vec![
            ev(1_000, 1, SpanBegin, SimSimulate, 0),
            ev(1_500, 2, SpanBegin, SimSimulate, 0),
            ev(2_000, 1, SpanBegin, SimFillBatch, 0),
            ev(3_000, 1, SpanEnd, SimFillBatch, 0),
            ev(4_000, 1, SpanEnd, SimSimulate, 0),
        ];
        let check = validate_chrome_trace(&chrome_trace_json(&events, 0)).unwrap();
        assert_eq!((check.events, check.threads), (5, 2));
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let text = events_jsonl(&sample_events());
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v: Value = line.parse().expect("valid JSON line");
            assert!(v["ts_ns"].as_u64().is_some());
            assert!(v["kind"].as_str().is_some());
        }
    }

    #[test]
    fn dropped_events_warning_fires_only_on_loss() {
        assert_eq!(dropped_events_warning(0), None);
        let warning = dropped_events_warning(7).expect("loss warns");
        assert!(warning.starts_with("mbpsim: warning:"), "{warning}");
        assert!(warning.contains("7 event(s) dropped"), "{warning}");
    }
}
