//! `mbpsim top <addr>` — a live terminal dashboard over the telemetry
//! plane's `/snapshot` endpoint: the interactive counterpart of the
//! progress line.
//!
//! The dashboard is a pure client: it polls `/snapshot`, keeps a short
//! per-predictor MPKI history for the sparkline column, and repaints a
//! sweep-level header plus a per-predictor table. Rendering is TTY-gated —
//! when stdout is not a terminal (or `--once` is passed) it prints a
//! single plain frame and exits, so it can be scripted and tested.

use std::collections::BTreeMap;
use std::io::{IsTerminal, Write};
use std::time::Duration;

use mbp_json::Value;

use crate::report::count;
use crate::spark::text_sparkline;
use crate::telemetry::http_get;

/// Width of the MPKI trend sparkline column.
const TREND_WIDTH: usize = 16;
/// MPKI history points kept per predictor.
const HISTORY: usize = 64;

/// Dashboard options, parsed from the `top` subcommand's flags.
pub struct TopOptions {
    /// Telemetry address, `host:port`.
    pub addr: String,
    /// Poll interval.
    pub interval: Duration,
    /// Render exactly one frame and exit.
    pub once: bool,
}

/// Null-tolerant nested lookup (indexing a [`Value`] panics on misses).
fn field<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    Some(cur)
}

/// Renders one dashboard frame from a `/snapshot` document and the
/// accumulated MPKI history. Pure, so frames are unit-testable.
pub fn render_frame(doc: &Value, history: &BTreeMap<String, Vec<f64>>) -> String {
    let mut out = String::new();
    let kind = field(doc, &["kind"]).and_then(Value::as_str).unwrap_or("?");
    let elapsed = field(doc, &["elapsed_s"])
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let shutdown = field(doc, &["shutdown_requested"])
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let dropped = field(doc, &["dropped_events"])
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let instr = field(doc, &["pipeline", "simulate", "instructions"])
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let ips = field(doc, &["pipeline", "simulate", "instructions_per_second"])
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    out.push_str(&format!(
        "mbpsim {kind} | elapsed {elapsed:.1}s | {} instr ({}/s)",
        count(instr),
        count(ips as u64),
    ));
    if let Some(fraction) = field(doc, &["sampling", "simulated_fraction"]).and_then(Value::as_f64)
    {
        out.push_str(&format!(" | sampled {:.0}%", fraction * 100.0));
    }
    if shutdown {
        out.push_str(" | SHUTDOWN REQUESTED");
    }
    if dropped > 0 {
        out.push_str(&format!(" | {dropped} events dropped"));
    }
    out.push('\n');

    let predictors = field(doc, &["sweep", "predictors"]).and_then(Value::as_array);
    match predictors {
        Some(preds) if !preds.is_empty() => {
            let width = TREND_WIDTH;
            let name_w = preds
                .iter()
                .filter_map(|p| field(p, &["name"]).and_then(Value::as_str))
                .map(str::len)
                .max()
                .unwrap_or(4)
                .max(4);
            out.push_str(&format!(
                "{:<name_w$}  {:<8}  {:>7}  {:>10}  {:>10}  {:>8}  {:<width$}\n",
                "NAME", "STATE", "EPOCH", "INSTR", "MISPRED", "MPKI", "TREND",
            ));
            for p in preds {
                let name = field(p, &["name"]).and_then(Value::as_str).unwrap_or("?");
                let trend = history
                    .get(name)
                    .map(|h| text_sparkline(h, TREND_WIDTH))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "{:<name_w$}  {:<8}  {:>7}  {:>10}  {:>10}  {:>8.3}  {:<width$}\n",
                    name,
                    field(p, &["state"]).and_then(Value::as_str).unwrap_or("?"),
                    field(p, &["epoch"]).and_then(Value::as_u64).unwrap_or(0),
                    count(
                        field(p, &["instructions"])
                            .and_then(Value::as_u64)
                            .unwrap_or(0)
                    ),
                    count(
                        field(p, &["mispredictions"])
                            .and_then(Value::as_u64)
                            .unwrap_or(0)
                    ),
                    field(p, &["mpki"]).and_then(Value::as_f64).unwrap_or(0.0),
                    trend,
                ));
                // Forensic drill-down: the predictor's current worst
                // (most-mispredicted) branch, once one exists (v2 snapshot).
                if let (Some(ip), Some(misses)) = (
                    field(p, &["worst_branch", "ip"]).and_then(Value::as_u64),
                    field(p, &["worst_branch", "mispredictions"]).and_then(Value::as_u64),
                ) {
                    out.push_str(&format!(
                        "{:<name_w$}  └ worst branch {ip:#014x}  {} mispredictions\n",
                        "",
                        count(misses),
                    ));
                }
            }
        }
        _ => out.push_str("(no predictor status published)\n"),
    }
    out
}

/// Appends the latest per-predictor MPKI readings to the trend history.
pub fn update_history(doc: &Value, history: &mut BTreeMap<String, Vec<f64>>) {
    if let Some(preds) = field(doc, &["sweep", "predictors"]).and_then(Value::as_array) {
        for p in preds {
            let (Some(name), Some(mpki)) = (
                field(p, &["name"]).and_then(Value::as_str),
                field(p, &["mpki"]).and_then(Value::as_f64),
            ) else {
                continue;
            };
            let series = history.entry(name.to_string()).or_default();
            series.push(mpki);
            if series.len() > HISTORY {
                series.remove(0);
            }
        }
    }
}

/// Polls `/snapshot` and renders frames until the server goes away or the
/// options ask for a single frame. Returns an error message on failure to
/// reach the server at all.
pub fn run_top(opts: &TopOptions) -> Result<(), String> {
    let timeout = Duration::from_secs(2);
    let live = !opts.once && std::io::stdout().is_terminal();
    let mut history: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut connected = false;
    loop {
        let body = match http_get(&opts.addr, "/snapshot", timeout) {
            Ok(body) => body,
            Err(e) if connected => {
                // The run finished and drained its listener: a clean exit.
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "telemetry endpoint closed ({e}); run finished");
                return Ok(());
            }
            Err(e) => return Err(format!("cannot reach {}: {e}", opts.addr)),
        };
        connected = true;
        let doc: Value = body
            .parse()
            .map_err(|e| format!("malformed snapshot from {}: {e:?}", opts.addr))?;
        let version = field(&doc, &["schema_version"])
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if version != crate::telemetry::SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema version {version} is not the supported {}",
                crate::telemetry::SNAPSHOT_SCHEMA_VERSION
            ));
        }
        update_history(&doc, &mut history);
        let frame = render_frame(&doc, &history);
        {
            let mut out = std::io::stdout().lock();
            if live {
                // Home + repaint + clear the remainder: flicker-free like
                // the progress line's \r ... \x1b[K, extended to a block.
                let _ = write!(out, "\x1b[H{frame}\x1b[J");
            } else {
                let _ = out.write_all(frame.as_bytes());
            }
            let _ = out.flush();
        }
        if !live {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_json::json;

    fn sample_doc() -> Value {
        json!({
            "schema_version": 2,
            "kind": "sweep",
            "elapsed_s": 2.5,
            "shutdown_requested": false,
            "dropped_events": 0,
            "scrapes": 4,
            "pipeline": {"simulate": {
                "instructions": 1_500_000,
                "instructions_per_second": 600_000.0,
            }},
            "sweep": {"predictors": [
                {"name": "gshare", "state": "running", "epoch": 12,
                 "instructions": 800_000, "conditional_branches": 100_000,
                 "mispredictions": 4_000, "mpki": 5.0,
                 "worst_branch": {"ip": 0x4a0u64, "mispredictions": 1_200}},
                {"name": "tage", "state": "queued", "epoch": 0,
                 "instructions": 0, "conditional_branches": 0,
                 "mispredictions": 0, "mpki": 0.0,
                 "worst_branch": Value::Null},
            ]},
        })
    }

    #[test]
    fn frame_has_header_and_one_row_per_predictor() {
        let doc = sample_doc();
        let mut history = BTreeMap::new();
        update_history(&doc, &mut history);
        let frame = render_frame(&doc, &history);
        assert!(frame.starts_with("mbpsim sweep | elapsed 2.5s"));
        assert!(frame.contains("1.5M instr"));
        let lines: Vec<&str> = frame.lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "header + column row + 2 predictors + gshare drill-down"
        );
        assert!(lines[2].starts_with("gshare"));
        assert!(lines[2].contains("running"));
        assert!(lines[2].contains("5.000"));
        assert!(
            lines[3].contains("└ worst branch 0x0000000004a0"),
            "drill-down row under gshare: {}",
            lines[3]
        );
        assert!(lines[3].contains("1200 mispredictions"));
        assert!(lines[4].starts_with("tage"));
        assert!(lines[4].contains("queued"));
    }

    #[test]
    fn history_accumulates_and_caps() {
        let doc = sample_doc();
        let mut history = BTreeMap::new();
        for _ in 0..(HISTORY + 10) {
            update_history(&doc, &mut history);
        }
        assert_eq!(history["gshare"].len(), HISTORY);
        assert_eq!(history["gshare"].last(), Some(&5.0));
        // With history present the trend column carries sparkline glyphs.
        let frame = render_frame(&doc, &history);
        assert!(frame.contains('▁'), "{frame}");
    }

    #[test]
    fn sampled_and_shutdown_flags_surface_in_header() {
        let mut doc = sample_doc();
        if let Some(obj) = doc.as_object_mut() {
            obj.insert("sampling", json!({"simulated_fraction": 0.25}));
            obj.insert("shutdown_requested", Value::from(true));
            obj.insert("dropped_events", Value::from(9));
        }
        let frame = render_frame(&doc, &BTreeMap::new());
        assert!(frame.contains("sampled 25%"));
        assert!(frame.contains("SHUTDOWN REQUESTED"));
        assert!(frame.contains("9 events dropped"));
    }

    #[test]
    fn empty_board_renders_placeholder() {
        let doc = json!({
            "schema_version": 1, "kind": "run", "elapsed_s": 0.1,
            "pipeline": {"simulate": {"instructions": 0}},
            "sweep": {"predictors": []},
        });
        let frame = render_frame(&doc, &BTreeMap::new());
        assert!(frame.contains("no predictor status published"));
    }
}
