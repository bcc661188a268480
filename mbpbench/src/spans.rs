//! In-memory spans recorded around the benchmark's calls into each layer,
//! their self times, and their export as Chrome trace-event JSON.
//!
//! Spans are recorded only in layer passes; in end-to-end passes the
//! recorder is disabled and every call is a branch on one flag. All spans
//! come from the benchmark's main thread (sweep workers run inside a
//! `simulate_many` span), so one timeline holds them all.

use std::time::Instant;

use mbp::json::{json, Map, Value};

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `inflate` or `predict_batch`.
    pub name: &'static str,
    /// Predictor the call concerns, or empty.
    pub detail: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to (the job's index in the pass, or
    /// [`PROBE_JOB`]).
    pub job: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Job id of the per-layer probes that run after a pass's jobs.
pub const PROBE_JOB: usize = usize::MAX;

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(span, is_begin)` in the order they happened.
    events: Vec<(usize, bool)>,
    job: usize,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            events: Vec::new(),
            job: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attributes the spans begun from now on to `job`.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, detail: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        self.events.push((id, true));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
            self.events.push((id, false));
        }
    }

    /// Closes every open span, after a call failed between `begin` and
    /// `end`.
    pub fn end_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took (measured whether or not spans are recorded).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        self.begin(name, detail);
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        self.end();
        (secs, value)
    }

    /// The spans as a Chrome trace-event document: one `B`/`E` pair per
    /// span on a single thread, timestamps in microseconds, bumped by one
    /// nanosecond where two events share a timestamp so they strictly
    /// increase.
    pub fn chrome_trace(&self) -> Value {
        let mut events = Vec::with_capacity(self.events.len());
        let mut last_us = f64::NEG_INFINITY;
        for &(id, is_begin) in &self.events {
            let span = &self.spans[id];
            let ns = if is_begin { span.start_ns } else { span.end_ns };
            let mut ts = ns as f64 / 1000.0;
            if ts <= last_us {
                ts = last_us + 0.001;
            }
            last_us = ts;
            let mut event = Map::new();
            event.insert("name", span.name);
            event.insert("cat", "mbpbench");
            event.insert("ph", if is_begin { "B" } else { "E" });
            event.insert("ts", ts);
            event.insert("pid", 1u64);
            event.insert("tid", 1u64);
            if is_begin {
                let job = if span.job == PROBE_JOB {
                    Value::from("probe")
                } else {
                    Value::from(span.job)
                };
                event.insert(
                    "args",
                    json!({"job": job, "parent": span.parent, "detail": span.detail}),
                );
            }
            events.push(Value::Object(event));
        }
        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "mbpbench", "dropped_events": 0u64},
        })
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            detail: "",
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("job", 0, 100, None),
            span("simulate", 10, 60, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("to_json", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("worker", 10, 50, Some(0)),
            span("worker", 30, 70, Some(0)),
            span("worker", 60, 65, Some(0)),
            // Sticks out of its parent: only the inside part is covered.
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_and_exports_a_valid_chrome_trace() {
        let mut rec = Recorder::new(true);
        rec.set_job(3);
        rec.begin("job", "gshare");
        let (secs, v) = rec.time("simulate", "gshare", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        rec.begin("to_json", "");
        rec.end_all();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 3 && s.end_ns >= s.start_ns));
        let doc: Value = rec.chrome_trace().to_compact_string().parse().unwrap();
        let check = mbp::events_export::validate_chrome_trace(&doc).expect("valid");
        assert_eq!((check.events, check.threads), (6, 1));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        rec.begin("job", "");
        let (_, v) = rec.time("simulate", "", || 1);
        rec.end();
        assert_eq!(v, 1);
        assert!(rec.spans().is_empty());
    }
}
