//! Prometheus/OpenMetrics text exposition of the pipeline metrics.
//!
//! This is the wire format of the live telemetry plane's `/metrics`
//! endpoint: the rows of [`PipelineStats::rows`] rendered as
//! `# TYPE`-annotated metric families. The renderer is a function of the
//! table, so it can be tested byte-for-byte, and it never touches the hot
//! path — scrape cost is one read of the table's relaxed atomics plus
//! string formatting, entirely on the serving thread.
//!
//! Formatting rules, chosen for diffability:
//!
//! * counters render as monotonic `_total` series, `u64` values printed as
//!   exact integers (never through `f64`, which loses precision past 2^53);
//! * timers render as a `_seconds_total` counter (exact decimal built from
//!   integer nanoseconds) plus a `_spans_total` counter;
//! * histograms render with cumulative `_bucket{le="..."}` semantics, a
//!   trailing `+Inf` bucket, `_sum` and `_count`;
//! * families appear in the fixed order of the table, so repeat scrapes of
//!   an idle process are byte-identical.

use std::fmt::Write as _;

use crate::metric::HistogramSnapshot;
use crate::pipeline::{PipelineStats, Reading};

/// One predictor's live hard-to-predict summary, rendered as the
/// `mbp_h2p_*` labeled gauge family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct H2pRow {
    /// Value of the `predictor` label.
    pub predictor: String,
    /// Address of the predictor's currently worst (most-mispredicted)
    /// branch; `None` before any misprediction.
    pub worst_ip: Option<u64>,
    /// Misprediction count of that branch (0 when `worst_ip` is `None`).
    pub worst_mispredictions: u64,
}

/// Escapes a label value per the OpenMetrics text format: backslash,
/// double quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Emits the `mbp_h2p_*` family: per-predictor worst-branch gauges. Every
/// row renders a misprediction count (so a predictor with no misses yet is
/// still visible as `0`); the address gauge appears once a worst branch
/// exists.
fn h2p_family(out: &mut String, rows: &[H2pRow]) {
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "# TYPE mbp_h2p_worst_branch_mispredictions gauge");
    for r in rows {
        let _ = writeln!(
            out,
            "mbp_h2p_worst_branch_mispredictions{{predictor=\"{}\"}} {}",
            escape_label_value(&r.predictor),
            r.worst_mispredictions
        );
    }
    if rows.iter().any(|r| r.worst_ip.is_some()) {
        let _ = writeln!(out, "# TYPE mbp_h2p_worst_branch_ip gauge");
        for r in rows {
            if let Some(ip) = r.worst_ip {
                let _ = writeln!(
                    out,
                    "mbp_h2p_worst_branch_ip{{predictor=\"{}\"}} {ip}",
                    escape_label_value(&r.predictor)
                );
            }
        }
    }
}

/// Emits one counter family: `# TYPE` line plus a `_total` sample.
fn counter(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name}_total {value}");
}

/// Emits a timer as `_seconds_total` (exact decimal seconds from integer
/// nanoseconds) and `_spans_total` counters.
fn timer(out: &mut String, name: &str, total_ns: u64, spans: u64) {
    let _ = writeln!(out, "# TYPE {name}_seconds counter");
    let _ = writeln!(
        out,
        "{name}_seconds_total {}.{:09}",
        total_ns / 1_000_000_000,
        total_ns % 1_000_000_000
    );
    let _ = writeln!(out, "# TYPE {name}_spans counter");
    let _ = writeln!(out, "{name}_spans_total {spans}");
}

/// Emits a histogram family with cumulative buckets, `+Inf`, sum and count.
fn histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let cumulative = h.cumulative_counts();
    for (bound, cum) in h.bounds.iter().zip(&cumulative) {
        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
    }
    // cumulative_counts always appends the +Inf bucket (== count).
    let inf = cumulative.last().copied().unwrap_or(0);
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {inf}");
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders the pipeline rows, the event journal's drop counter and the
/// per-predictor H2P rows as one OpenMetrics text document.
///
/// Pipeline families come first, in table order (derived rows are
/// JSON-only and skipped), then `mbp_events_dropped`, then the
/// `mbp_h2p_*` family (omitted when `h2p` is empty). Rendering an
/// unchanged state twice yields byte-identical output.
pub fn render_openmetrics(pipeline: &PipelineStats, dropped_events: u64, h2p: &[H2pRow]) -> String {
    let mut out = String::with_capacity(4096);
    for row in pipeline.rows() {
        match &row.value {
            Reading::Counter(v) => counter(&mut out, row.family, *v),
            Reading::Timer { total_ns, spans } => timer(&mut out, row.family, *total_ns, *spans),
            Reading::Histogram(h) => histogram(&mut out, row.family, h),
            Reading::Derived(_) => {}
        }
    }
    counter(&mut out, "mbp_events_dropped", dropped_events);
    h2p_family(&mut out, h2p);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_exact_u64_beyond_f64_range() {
        let stats = PipelineStats::new();
        // 2^53 + 1 is not representable in f64; the text must round-trip.
        let big = (1u64 << 53) + 1;
        stats.sim.instructions.add(big);
        let text = render_openmetrics(&stats, 0, &[]);
        assert!(
            text.contains(&format!("mbp_sim_instructions_total {big}\n")),
            "expected exact integer rendering, got:\n{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let stats = PipelineStats::new();
        stats.sweep.predictor_us.record(5);
        stats.sweep.predictor_us.record(1_000_000_000);
        let text = render_openmetrics(&stats, 0, &[]);
        let inf = text
            .lines()
            .find(|l| l.starts_with("mbp_sweep_predictor_us_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket");
        assert!(inf.ends_with(" 2"), "bad +Inf bucket: {inf}");
        // Cumulative counts never decrease down the bucket list.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("mbp_sweep_predictor_us_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets not monotone: {line}");
            last = v;
        }
    }

    #[test]
    fn idle_scrapes_are_byte_stable() {
        let stats = PipelineStats::new();
        let a = render_openmetrics(&stats, 0, &[]);
        let b = render_openmetrics(&stats, 0, &[]);
        assert_eq!(a, b, "idle scrapes must be byte-identical");
        assert!(a.contains("# TYPE mbp_sim_instructions counter"));
        assert!(a.lines().all(|l| l.starts_with("# TYPE") || !l.is_empty()));
    }

    #[test]
    fn empty_histogram_renders_zero_count_and_only_inf_populated() {
        // Declared but never recorded into.
        let text = render_openmetrics(&PipelineStats::new(), 0, &[]);
        let name = "mbp_compress_block_ratio_pct";
        assert!(text.contains(&format!("# TYPE {name} histogram")));
        assert!(text.contains(&format!("{name}_bucket{{le=\"100\"}} 0\n")));
        assert!(text.contains(&format!("{name}_bucket{{le=\"3200\"}} 0\n")));
        assert!(text.contains(&format!("{name}_bucket{{le=\"+Inf\"}} 0\n")));
        assert!(text.contains(&format!("{name}_sum 0\n")));
        assert!(text.contains(&format!("{name}_count 0\n")));
    }

    #[test]
    fn h2p_family_renders_labels_with_escaping() {
        let stats = PipelineStats::new();
        let rows = [
            H2pRow {
                predictor: "tage".into(),
                worst_ip: Some(0x40),
                worst_mispredictions: 17,
            },
            H2pRow {
                predictor: "we\"ird\\nm\ne".into(),
                worst_ip: None,
                worst_mispredictions: 0,
            },
        ];
        let text = render_openmetrics(&stats, 0, &rows);
        assert!(text.contains("# TYPE mbp_h2p_worst_branch_mispredictions gauge"));
        assert!(text.contains("mbp_h2p_worst_branch_mispredictions{predictor=\"tage\"} 17\n"));
        assert!(
            text.contains(
                "mbp_h2p_worst_branch_mispredictions{predictor=\"we\\\"ird\\\\nm\\ne\"} 0\n"
            ),
            "label escaping, got:\n{text}"
        );
        assert!(text.contains("mbp_h2p_worst_branch_ip{predictor=\"tage\"} 64\n"));
        assert!(
            !text.contains("mbp_h2p_worst_branch_ip{predictor=\"we"),
            "no ip sample for a predictor without a worst branch"
        );

        // Empty rows: family omitted entirely.
        let text = render_openmetrics(&stats, 0, &[]);
        assert!(!text.contains("mbp_h2p_"));
    }
}
