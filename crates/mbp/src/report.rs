//! Rendering of the [`mbp_stats`] pipeline metrics: a JSON `"metrics"`
//! object for machines, a one-screen summary for stderr.
//!
//! The JSON object is one loop over [`PipelineStats::rows`]: five fixed
//! sections — `decode`, `compress`, `simulate`, `sweep`, `generation` —
//! documented field-by-field in `DESIGN.md`. Sections for stages that did
//! not run are still present with zero counts, so consumers can index
//! unconditionally.

use mbp_core::Section;
use mbp_json::{json, Map, Value};
use mbp_stats::{HistogramSnapshot, PipelineStats, Reading};

/// Renders a histogram as `{bounds, counts, overflow, count, mean}`.
fn histogram_json(h: &HistogramSnapshot) -> Value {
    json!({
        "bounds": h.bounds.clone(),
        "counts": h.counts.clone(),
        "overflow": h.overflow,
        "count": h.count,
        "mean": h.mean(),
    })
}

/// Renders the pipeline metrics as the `"metrics"` JSON object emitted by
/// `mbpsim --metrics` and served under `/snapshot`'s `pipeline`.
pub fn pipeline_json(stats: &PipelineStats) -> Value {
    pipeline_sections(stats).into()
}

fn pipeline_sections(stats: &PipelineStats) -> Map {
    let mut doc = Map::new();
    for row in stats.rows() {
        let value = match &row.value {
            Reading::Counter(v) => Value::from(*v),
            Reading::Timer { total_ns, .. } => Value::from(*total_ns as f64 / 1e9),
            Reading::Histogram(h) => histogram_json(h),
            Reading::Derived(x) => Value::from(*x),
        };
        if !doc.contains_key(row.section) {
            doc.insert(row.section, Map::new());
        }
        if let Some(section) = doc.get_mut(row.section).and_then(Value::as_object_mut) {
            section.insert(row.key, value);
        }
    }
    doc
}

/// The `--metrics-out` file: the pipeline sections and the journal's
/// `dropped` events. Given the command's document, it merges them into the
/// document's `metrics` and lifts the document's opt-in sections to its
/// own top level, where `report` and `stats-diff` read them.
pub fn metrics_document(stats: &PipelineStats, dropped: u64, doc: Option<&mut Value>) -> Value {
    let mut out = pipeline_sections(stats);
    out.insert("dropped_events", dropped);
    let Some(doc) = doc else { return out.into() };
    if let Some(obj) = doc.as_object_mut() {
        if !obj.contains_key("metrics") {
            obj.insert("metrics", Map::new());
        }
        if let Some(metrics) = obj.get_mut("metrics").and_then(Value::as_object_mut) {
            for (key, value) in out.iter() {
                metrics.insert(key, value.clone());
            }
        }
    }
    for section in Section::ALL {
        if let Some(value) = section.find(doc) {
            out.insert(section.name(), value.clone());
        }
    }
    out.into()
}

/// `1234567` → `"1.2M"`; keeps the summary lines one screen wide.
fn count(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n}"),
        10_000..=999_999 => format!("{:.1}k", n as f64 / 1e3),
        _ => format!("{:.1}M", n as f64 / 1e6),
    }
}

/// `1234567` bytes → `"1.2 MB"`.
fn bytes(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n} B"),
        10_000..=999_999 => format!("{:.1} kB", n as f64 / 1e3),
        _ => format!("{:.1} MB", n as f64 / 1e6),
    }
}

/// Events per second → `"3.9M/s"`.
fn rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

/// Renders the one-screen human summary printed to stderr by
/// `mbpsim --metrics`. Stages that never ran are shown as `(idle)`.
pub fn human_summary(stats: &PipelineStats) -> String {
    let (t, c, s) = (&stats.trace, &stats.compress, &stats.sim);
    let (w, g) = (&stats.sweep, &stats.workload);
    let mut out = String::from("── pipeline metrics ──────────────────────────────\n");
    if t.packets_decoded.get() > 0 {
        out.push_str(&format!(
            "decode:    {} packets, {} in {:.3} s ({})\n",
            count(t.packets_decoded.get()),
            bytes(t.bytes_read.get()),
            t.decode.seconds(),
            rate(stats.packets_per_second()),
        ));
    } else {
        out.push_str("decode:    (idle)\n");
    }
    if c.blocks_inflated.get() > 0 {
        out.push_str(&format!(
            "compress:  {} blocks, {} -> {} ({:.2}x) in {:.3} s\n",
            count(c.blocks_inflated.get()),
            bytes(c.compressed_bytes.get()),
            bytes(c.inflated_bytes.get()),
            stats.inflate_ratio(),
            c.inflate.seconds(),
        ));
    } else {
        out.push_str("compress:  (idle)\n");
    }
    if s.runs.get() > 0 {
        out.push_str(&format!(
            "simulate:  {} run(s), {} branches ({} kernel / {} scalar), {} instr in {:.3} s ({} branches)\n",
            s.runs.get(),
            count(s.records.get()),
            count(s.kernel_branches.get()),
            count(s.scalar_fallback_branches.get()),
            count(s.instructions.get()),
            s.simulate.seconds(),
            rate(stats.branches_per_second()),
        ));
    } else {
        out.push_str("simulate:  (idle)\n");
    }
    if w.predictors.get() > 0 {
        out.push_str(&format!(
            "sweep:     {} predictor(s) on {} worker(s), busy {:.3} s, {} fault(s), {} trace error(s)\n",
            w.predictors.get(),
            w.workers.get(),
            w.worker_busy.seconds(),
            w.faults.get(),
            w.trace_errors.get(),
        ));
    } else {
        out.push_str("sweep:     (idle)\n");
    }
    if g.records_generated.get() > 0 {
        out.push_str(&format!(
            "generate:  {} records in {} refill(s), {:.3} s\n",
            count(g.records_generated.get()),
            g.refills.get(),
            g.generate.seconds(),
        ));
    } else {
        out.push_str("generate:  (idle)\n");
    }
    out.push_str("──────────────────────────────────────────────────");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineStats {
        let stats = PipelineStats::new();
        stats.trace.bytes_read.add(32 * 2048);
        stats.trace.packets_decoded.add(2048);
        stats.trace.batches.inc();
        stats.trace.decode.record_ns(1_000_000);
        stats.sim.runs.inc();
        stats.sim.records.add(2048);
        stats.sim.instructions.add(10_240);
        stats.sim.kernel_branches.add(2000);
        stats.sim.scalar_fallback_branches.add(48);
        stats.sim.simulate.record_ns(2_000_000);
        stats
    }

    #[test]
    fn json_has_all_five_sections() {
        let doc = pipeline_json(&sample());
        let keys: Vec<&str> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["decode", "compress", "simulate", "sweep", "generation"]
        );
        assert_eq!(doc["decode"]["packets_decoded"], Value::from(2048));
        assert_eq!(doc["simulate"]["runs"], Value::from(1));
        assert_eq!(doc["simulate"]["kernel_branches"], Value::from(2000));
        assert_eq!(doc["simulate"]["scalar_fallback_branches"], Value::from(48));
        assert_eq!(doc["sweep"]["predictors"], Value::from(0));
        // The document parses back.
        let reparsed: Value = doc.to_pretty_string().parse().unwrap();
        assert_eq!(reparsed, doc);
    }

    /// The law between `/metrics` and `--metrics-out`: one state rendered
    /// both ways agrees on every measured row — counters exactly, timers to
    /// the nanosecond, histograms on count and sum. The loop runs over the
    /// table, so a new row is checked without editing this test.
    #[test]
    fn openmetrics_and_json_agree_on_every_measured_row() {
        let stats = sample();
        stats.sim.instructions.add(1 << 53);
        stats.compress.inflate.record_ns(1_234_567_891);
        stats.sweep.worker_busy.record_ns(987_654_321);
        stats.sweep.predictor_us.record(150);
        stats.sweep.predictor_us.record(20_000_000);
        stats.compress.block_ratio_pct.record(380);
        let text = mbp_stats::render_openmetrics(&stats, 0, &[]);
        let samples: std::collections::HashMap<&str, &str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .collect();
        let om = |name: String| -> u64 {
            let text = samples
                .get(name.as_str())
                .unwrap_or_else(|| panic!("no {name}"));
            match text.split_once('.') {
                Some((s, ns)) => {
                    s.parse::<u64>().unwrap() * 1_000_000_000 + ns.parse::<u64>().unwrap()
                }
                None => text.parse().unwrap(),
            }
        };
        let doc: Value = pipeline_json(&stats).to_pretty_string().parse().unwrap();
        for row in stats.rows() {
            let (family, json) = (row.family, &doc[row.section][row.key]);
            let at = format!("{}.{}", row.section, row.key);
            match row.value {
                Reading::Counter(_) => {
                    assert_eq!(json.as_u64(), Some(om(format!("{family}_total"))), "{at}");
                }
                Reading::Timer { .. } => {
                    let ns = (json.as_f64().unwrap() * 1e9).round() as u64;
                    assert_eq!(ns, om(format!("{family}_seconds_total")), "{at}");
                }
                Reading::Histogram(_) => {
                    let count = json["count"].as_u64().unwrap();
                    let sum = (json["mean"].as_f64().unwrap() * count as f64).round() as u64;
                    assert_eq!(count, om(format!("{family}_count")), "{at}");
                    assert_eq!(sum, om(format!("{family}_sum")), "{at}");
                }
                Reading::Derived(_) => assert!(json.as_f64().is_some(), "{at}"),
            }
        }
    }

    #[test]
    fn summary_is_one_screen_and_marks_idle_stages() {
        let text = human_summary(&sample());
        assert!(text.lines().count() <= 10, "one screen");
        assert!(text.contains("decode:"));
        assert!(text.contains("sweep:     (idle)"));
        assert!(text.contains("generate:  (idle)"));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(count(999), "999");
        assert_eq!(count(1_234_567), "1.2M");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2_500_000), "2.5 MB");
        assert_eq!(rate(3_900_000.0), "3.9M/s");
    }
}
