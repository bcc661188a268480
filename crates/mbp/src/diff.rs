//! `mbpsim stats-diff`: section-by-section comparison of two `--metrics-out`
//! files, with regression thresholds so CI can gate on it.
//!
//! The metrics schema (see `DESIGN.md`) has fixed sections — the pipeline
//! sections of [`mbp_stats::PipelineStats::rows`] (`decode` … `generation`),
//! plus the opt-in sections of [`mbp_core::Section::ALL`] — of numeric
//! leaves. The diff walks both documents in that order, flattens every
//! numeric leaf to a dotted path, and classifies each delta:
//!
//! * **time-like** metrics (`*time_s`, `*_busy_s`, fault counters) regress
//!   when they *grow* beyond the threshold;
//! * **rate-like** metrics (`*_per_second`) regress when they *shrink*
//!   beyond the threshold;
//! * everything else (counts, histogram buckets) is informational — it is
//!   reported as changed but never fails the gate, since a different
//!   workload legitimately moves every counter.
//!
//! A metric (or whole section) present in only one file is reported as
//! `added`/`removed` rather than treated as an error or a regression, so
//! baselines recorded before a schema extension keep diffing cleanly.
//!
//! [`DiffReport::render`] produces the stable text report pinned by the
//! golden-fixture test; [`DiffReport::has_regressions`] drives the nonzero
//! exit code.

use mbp_core::Section;
use mbp_json::{Map, Value};

/// The fixed section order of the metrics schema: the pipeline sections in
/// table order, then the opt-in ones in [`Section::ALL`] order.
fn sections() -> Vec<&'static str> {
    let mut sections = Vec::new();
    for row in mbp_stats::PipelineStats::new().rows() {
        if !sections.contains(&row.section) {
            sections.push(row.section);
        }
    }
    sections.extend(Section::ALL.map(Section::name));
    sections
}

/// Tuning knobs for a diff run.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative change (percent) beyond which a directional metric counts
    /// as a regression or an improvement.
    pub threshold_pct: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self { threshold_pct: 5.0 }
    }
}

/// How a metric moved between the two files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Identical values (or both absent).
    Unchanged,
    /// Moved, but informational or within the threshold.
    Changed,
    /// A directional metric moved the good way beyond the threshold.
    Improvement,
    /// A directional metric moved the bad way beyond the threshold.
    Regression,
    /// Present only in the candidate file (e.g. a new schema section).
    Added,
    /// Present only in the baseline file.
    Removed,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Unchanged => "unchanged",
            Status::Changed => "changed",
            Status::Improvement => "improvement",
            Status::Regression => "REGRESSION",
            Status::Added => "added",
            Status::Removed => "removed",
        }
    }
}

/// Which direction of movement is bad for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Informational,
}

/// Classifies a flattened metric path by its final segment.
fn classify(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.ends_with("time_s")
        || leaf.ends_with("_busy_s")
        || leaf == "faults"
        || leaf == "trace_errors"
    {
        Direction::LowerIsBetter
    } else if leaf.contains("per_second") {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// Dotted path, e.g. `simulate.time_s`.
    pub path: String,
    /// Value in the first (baseline) file; `None` if absent there.
    pub a: Option<f64>,
    /// Value in the second (candidate) file; `None` if absent there.
    pub b: Option<f64>,
    /// Verdict for this metric.
    pub status: Status,
}

/// The full outcome of a metrics diff.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Threshold the directional verdicts were computed against.
    pub threshold_pct: f64,
    /// Every compared metric, in schema order.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Whether any metric regressed beyond the threshold (the CI gate).
    pub fn has_regressions(&self) -> bool {
        self.lines.iter().any(|l| l.status == Status::Regression)
    }

    /// Count of lines with the given status.
    pub fn count(&self, status: Status) -> usize {
        self.lines.iter().filter(|l| l.status == status).count()
    }

    /// Renders the stable text report (pinned by the golden-fixture test).
    pub fn render(&self) -> String {
        let mut out = format!(
            "stats-diff (threshold \u{00b1}{:.1}%)\n",
            self.threshold_pct
        );
        for line in &self.lines {
            out.push_str(&format!(
                "{:<12} {:<44} {:>14} -> {:<14} {:>10}\n",
                line.status.label(),
                line.path,
                fmt_value(line.a),
                fmt_value(line.b),
                fmt_delta(line.a, line.b),
            ));
        }
        out.push_str(&format!(
            "summary: {} metrics — {} unchanged, {} changed, {} improved, {} regressed, \
             {} added, {} removed\n",
            self.lines.len(),
            self.count(Status::Unchanged),
            self.count(Status::Changed),
            self.count(Status::Improvement),
            self.count(Status::Regression),
            self.count(Status::Added),
            self.count(Status::Removed),
        ));
        out
    }
}

/// Formats a metric value: integers bare, reals with six decimals.
fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) => format!("{v:.6}"),
    }
}

/// Formats the relative change between two values.
fn fmt_delta(a: Option<f64>, b: Option<f64>) -> String {
    match (a, b) {
        (Some(a), Some(b)) if a == b => "0.00%".to_string(),
        (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b - a) / a.abs() * 100.0),
        (Some(_), Some(_)) => "+inf%".to_string(),
        (None, Some(_)) => "new".to_string(),
        (Some(_), None) => "gone".to_string(),
        (None, None) => "-".to_string(),
    }
}

/// Compares two metrics documents section by section.
///
/// Both documents are expected in the `--metrics-out` schema (top-level
/// `decode`/`compress`/`simulate`/`sweep`/`generation` objects); unknown
/// extra sections are ignored, and a section absent from both is skipped.
pub fn diff_metrics(a: &Value, b: &Value, options: &DiffOptions) -> DiffReport {
    let mut lines = Vec::new();
    for section in sections() {
        flatten_pair(section, a.get(section), b.get(section), options, &mut lines);
    }
    DiffReport {
        threshold_pct: options.threshold_pct,
        lines,
    }
}

/// Recursively walks two subtrees in parallel, emitting a [`DiffLine`] per
/// numeric leaf. Keys are visited in sorted order (union of both sides) so
/// the report is deterministic regardless of document key order.
fn flatten_pair(
    path: &str,
    a: Option<&Value>,
    b: Option<&Value>,
    options: &DiffOptions,
    out: &mut Vec<DiffLine>,
) {
    fn as_map<'v>(v: Option<&'v Value>, empty: &'v Map) -> Option<&'v Map> {
        match v {
            Some(Value::Object(m)) => Some(m),
            None => Some(empty),
            _ => None,
        }
    }
    fn as_arr(v: Option<&Value>) -> Option<&[Value]> {
        match v {
            Some(Value::Array(a)) => Some(a),
            None => Some(&[]),
            _ => None,
        }
    }
    let empty_map = Map::new();
    match (a, b) {
        (None, None) => {}
        // An object (or array) missing on one side still gets walked, with
        // `None` on the absent side, so every leaf shows up as new/gone.
        (a, b)
            if (matches!(a, Some(Value::Object(_))) || matches!(b, Some(Value::Object(_))))
                && as_map(a, &empty_map).is_some()
                && as_map(b, &empty_map).is_some() =>
        {
            let (ma, mb) = (
                as_map(a, &empty_map).unwrap(),
                as_map(b, &empty_map).unwrap(),
            );
            let mut keys: Vec<&str> = ma.keys().chain(mb.keys()).collect();
            keys.sort_unstable();
            keys.dedup();
            for key in keys {
                let child = format!("{path}.{key}");
                flatten_pair(&child, ma.get(key), mb.get(key), options, out);
            }
        }
        (a, b)
            if (matches!(a, Some(Value::Array(_))) || matches!(b, Some(Value::Array(_))))
                && as_arr(a).is_some()
                && as_arr(b).is_some() =>
        {
            let (aa, ab) = (as_arr(a).unwrap(), as_arr(b).unwrap());
            for i in 0..aa.len().max(ab.len()) {
                let child = format!("{path}[{i}]");
                flatten_pair(&child, aa.get(i), ab.get(i), options, out);
            }
        }
        (a, b) => {
            let va = a.and_then(Value::as_f64);
            let vb = b.and_then(Value::as_f64);
            // Objects/arrays paired with scalars, strings, booleans: only
            // numeric leaves participate in the diff.
            if va.is_none() && vb.is_none() {
                return;
            }
            out.push(DiffLine {
                path: path.to_string(),
                a: va,
                b: vb,
                status: judge(path, va, vb, options),
            });
        }
    }
}

/// Applies direction and threshold to one metric pair.
fn judge(path: &str, a: Option<f64>, b: Option<f64>, options: &DiffOptions) -> Status {
    let (Some(a), Some(b)) = (a, b) else {
        // Present on one side only: a schema section (or metric) that one of
        // the two files predates. Informational, never a gate failure.
        return match (a, b) {
            (None, Some(_)) => Status::Added,
            _ => Status::Removed,
        };
    };
    if a == b {
        return Status::Unchanged;
    }
    let direction = classify(path);
    if direction == Direction::Informational {
        return Status::Changed;
    }
    let worse = match direction {
        Direction::LowerIsBetter => b > a,
        Direction::HigherIsBetter => b < a,
        Direction::Informational => unreachable!(),
    };
    let pct = if a != 0.0 {
        ((b - a) / a.abs() * 100.0).abs()
    } else {
        f64::INFINITY
    };
    if pct <= options.threshold_pct {
        Status::Changed
    } else if worse {
        Status::Regression
    } else {
        Status::Improvement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_json::json;

    fn metrics(time_s: f64, rate: f64, records: u64) -> Value {
        json!({
            "decode": { "packets_decoded": records, "time_s": 0.5 },
            "simulate": {
                "records": records,
                "time_s": time_s,
                "branches_per_second": rate,
            },
            "sweep": { "faults": 0 },
        })
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let a = metrics(1.0, 1e6, 2048);
        let report = diff_metrics(&a, &a, &DiffOptions::default());
        assert!(!report.has_regressions());
        assert_eq!(report.count(Status::Unchanged), report.lines.len());
    }

    #[test]
    fn slower_time_beyond_threshold_regresses() {
        let a = metrics(1.0, 1e6, 2048);
        let b = metrics(1.5, 1e6, 2048);
        let report = diff_metrics(
            &a,
            &b,
            &DiffOptions {
                threshold_pct: 10.0,
            },
        );
        assert!(report.has_regressions());
        let line = report
            .lines
            .iter()
            .find(|l| l.path == "simulate.time_s")
            .unwrap();
        assert_eq!(line.status, Status::Regression);
    }

    #[test]
    fn faster_rate_is_an_improvement_and_counts_are_informational() {
        let a = metrics(1.0, 1e6, 2048);
        let b = metrics(1.0, 2e6, 4096);
        let report = diff_metrics(
            &a,
            &b,
            &DiffOptions {
                threshold_pct: 10.0,
            },
        );
        assert!(!report.has_regressions());
        let rate = report
            .lines
            .iter()
            .find(|l| l.path == "simulate.branches_per_second")
            .unwrap();
        assert_eq!(rate.status, Status::Improvement);
        let count = report
            .lines
            .iter()
            .find(|l| l.path == "simulate.records")
            .unwrap();
        assert_eq!(count.status, Status::Changed, "counts never gate");
    }

    #[test]
    fn within_threshold_is_just_changed() {
        let a = metrics(1.0, 1e6, 2048);
        let b = metrics(1.04, 1e6, 2048);
        let report = diff_metrics(&a, &b, &DiffOptions { threshold_pct: 5.0 });
        assert!(!report.has_regressions());
    }

    #[test]
    fn fault_increase_from_zero_regresses() {
        let a = metrics(1.0, 1e6, 2048);
        let mut b = metrics(1.0, 1e6, 2048);
        if let Some(sweep) = b.as_object_mut().and_then(|o| o.get_mut("sweep")) {
            if let Some(obj) = sweep.as_object_mut() {
                obj.insert("faults", 2u64);
            }
        }
        let report = diff_metrics(&a, &b, &DiffOptions::default());
        assert!(report.has_regressions(), "zero-baseline fault growth gates");
    }

    #[test]
    fn missing_side_is_reported_not_fatal() {
        let a = metrics(1.0, 1e6, 2048);
        let b = json!({ "decode": { "packets_decoded": 2048, "time_s": 0.5 } });
        let report = diff_metrics(&a, &b, &DiffOptions::default());
        assert!(!report.has_regressions());
        let gone = report
            .lines
            .iter()
            .find(|l| l.path == "simulate.time_s")
            .unwrap();
        assert!(gone.b.is_none());
        assert_eq!(gone.status, Status::Removed);
    }

    #[test]
    fn new_sections_are_added_not_regressions() {
        // A candidate recorded after the timeseries/introspection schema
        // extension must diff cleanly against an older baseline.
        let a = metrics(1.0, 1e6, 2048);
        let mut b = metrics(1.0, 1e6, 2048);
        if let Some(obj) = b.as_object_mut() {
            obj.insert(
                "timeseries",
                json!({ "num_windows": 4, "phase_change_score": 0.25 }),
            );
            obj.insert("introspection", json!({ "probes": [{ "entries": 64 }] }));
        }
        let report = diff_metrics(&a, &b, &DiffOptions::default());
        assert!(!report.has_regressions());
        let added: Vec<&str> = report
            .lines
            .iter()
            .filter(|l| l.status == Status::Added)
            .map(|l| l.path.as_str())
            .collect();
        assert!(added.contains(&"timeseries.num_windows"), "{added:?}");
        assert!(
            added.contains(&"introspection.probes[0].entries"),
            "{added:?}"
        );
    }

    #[test]
    fn simpoint_section_diffs_numerically_and_skips_the_hash() {
        // Phase-sampling summaries carry a string `doc_hash` next to the
        // numeric fields; the diff reports the numbers and ignores the hash.
        let sampled = |fraction: f64| {
            let mut m = metrics(1.0, 1e6, 2048);
            if let Some(obj) = m.as_object_mut() {
                obj.insert(
                    "simpoint",
                    json!({
                        "doc_hash": "fnv1a64:0123456789abcdef",
                        "simulated_fraction": fraction,
                        "max_error_estimate": 0.01,
                    }),
                );
            }
            m
        };
        let report = diff_metrics(&sampled(0.3), &sampled(0.4), &DiffOptions::default());
        let paths: Vec<&str> = report.lines.iter().map(|l| l.path.as_str()).collect();
        assert!(paths.contains(&"simpoint.simulated_fraction"), "{paths:?}");
        assert!(
            !paths.iter().any(|p| p.contains("doc_hash")),
            "string leaves stay out of the numeric diff: {paths:?}"
        );
    }

    #[test]
    fn forensics_section_diffs_numerically_and_skips_the_classes() {
        // `mbpsim explain --metrics-out` lifts the forensic report into the
        // metrics file; the diff reports its numbers and ignores its class
        // labels and H2P flags.
        let explained = |mispredictions: u64| {
            let mut m = metrics(1.0, 1e6, 2048);
            if let Some(obj) = m.as_object_mut() {
                obj.insert(
                    "forensics",
                    json!({
                        "schema_version": 2,
                        "mispredictions": mispredictions,
                        "top": [{
                            "ip": 0x4a0u64,
                            "mispredictions": mispredictions,
                            "entropy_class": "unbiased",
                            "h2p": true,
                        }],
                    }),
                );
            }
            m
        };
        let report = diff_metrics(&explained(80), &explained(90), &DiffOptions::default());
        let paths: Vec<&str> = report.lines.iter().map(|l| l.path.as_str()).collect();
        assert!(paths.contains(&"forensics.mispredictions"), "{paths:?}");
        assert!(
            paths.contains(&"forensics.top[0].mispredictions"),
            "{paths:?}"
        );
        assert!(
            !paths
                .iter()
                .any(|p| p.contains("entropy_class") || p.contains("h2p")),
            "string and boolean leaves stay out of the numeric diff: {paths:?}"
        );
        assert!(!report.has_regressions(), "counts are informational");
    }
}
