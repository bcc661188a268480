//! `mbpsim report`: renders a metrics/run/compare/sweep JSON document into a
//! single self-contained HTML page — inline CSS and inline SVG sparklines,
//! no external assets or scripts — so a run's time-series and table-health
//! probes can be eyeballed without any tooling beyond a browser.
//!
//! The renderer is deliberately permissive about document shape: it accepts
//! the output of `mbpsim run`/`compare`/`sweep` as well as the flat
//! `--metrics-out` schema, looking for each opt-in section where the
//! section table ([`mbp_core::Section`]) places it in a run document, or at
//! the top level.

use mbp_core::Section;
use mbp_json::Value;

static NULL: Value = Value::Null;

/// Null-tolerant field access: `Value::index` panics on a missing key, but
/// report documents legitimately omit sections.
fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key).unwrap_or(&NULL)
}

/// Escapes text for safe inclusion in HTML body or attribute context.
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders one numeric series as an inline SVG sparkline polyline. Returns
/// an empty string for series with no points.
fn sparkline(values: &[f64], width: u32, height: u32) -> String {
    if values.is_empty() {
        return String::new();
    }
    let normalized = crate::spark::normalize(values);
    let (w, h) = (width as f64, height as f64);
    let pad = 2.0;
    let step = if values.len() > 1 {
        (w - 2.0 * pad) / (values.len() - 1) as f64
    } else {
        0.0
    };
    let points: Vec<String> = normalized
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let x = pad + i as f64 * step;
            let y = pad + (h - 2.0 * pad) * (1.0 - n);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" height=\"{height}\" \
         role=\"img\"><polyline fill=\"none\" stroke=\"#2a6fb0\" stroke-width=\"1.5\" \
         points=\"{}\"/></svg>",
        points.join(" ")
    )
}

/// Formats a JSON scalar for display; objects/arrays render as a count.
fn scalar(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Array(a) => format!("[{} items]", a.len()),
        Value::Object(o) => format!("{{{} keys}}", o.keys().count()),
        other => esc(&other.to_string()),
    }
}

/// A two-column key/value table over an object's entries.
fn kv_table(obj: &Value) -> String {
    let Some(map) = obj.as_object() else {
        return String::new();
    };
    let mut out = String::from("<table>");
    for (key, value) in map.iter() {
        out.push_str(&format!(
            "<tr><th>{}</th><td>{}</td></tr>",
            esc(key),
            scalar(value)
        ));
    }
    out.push_str("</table>");
    out
}

/// Extracts one per-window field as an f64 series.
fn window_series(windows: &[Value], name: &str) -> Vec<f64> {
    windows
        .iter()
        .filter_map(|w| field(w, name).as_f64())
        .collect()
}

/// Renders the `metrics.timeseries` object: a summary line plus one labelled
/// sparkline per headline per-window metric.
fn timeseries_section(ts: &Value) -> String {
    let mut out = String::from("<section><h2>Time series</h2>");
    let warmup = match field(ts, "warmup_end_window").as_u64() {
        Some(w) => format!("window {w}"),
        None => "not detected".to_string(),
    };
    out.push_str(&format!(
        "<p>{} windows of {} instructions — warmup ends at {}, \
         phase-change score {}, {} phase changes.</p>",
        scalar(field(ts, "num_windows")),
        scalar(field(ts, "window_size")),
        esc(&warmup),
        scalar(field(ts, "phase_change_score")),
        scalar(field(ts, "num_phase_changes")),
    ));
    if let Some(windows) = field(ts, "windows").as_array() {
        out.push_str("<table class=\"spark\">");
        for (label, name) in [
            ("MPKI", "mpki"),
            ("Accuracy", "accuracy"),
            ("Taken rate", "taken_rate"),
            ("Unique branches", "unique_branches"),
        ] {
            let series = window_series(windows, name);
            let (lo, hi) = series
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let range = if series.is_empty() {
                "-".to_string()
            } else {
                format!("{lo:.4} … {hi:.4}")
            };
            out.push_str(&format!(
                "<tr><th>{label}</th><td>{}</td><td>{}</td></tr>",
                sparkline(&series, 360, 48),
                esc(&range),
            ));
        }
        out.push_str("</table>");
    }
    out.push_str("</section>");
    out
}

/// Renders one probe array as a table-health report.
fn probes_table(probes: &[Value]) -> String {
    let mut out = String::from(
        "<table><tr><th>table</th><th>entries</th><th>occupied</th>\
         <th>occupancy</th><th>saturated</th><th>useful density</th>\
         <th>histogram</th></tr>",
    );
    for probe in probes {
        let hist = field(probe, "counter_histogram")
            .as_object()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| format!("{k}:{}", scalar(v)))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        let occupancy = field(probe, "occupancy")
            .as_f64()
            .map(|o| format!("{:.1}%", o * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let density = field(probe, "useful_density")
            .as_f64()
            .map(|d| format!("{d:.4}"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td class=\"hist\">{}</td></tr>",
            scalar(field(probe, "name")),
            scalar(field(probe, "entries")),
            scalar(field(probe, "occupied")),
            esc(&occupancy),
            scalar(field(probe, "saturated")),
            esc(&density),
            esc(&hist),
        ));
    }
    out.push_str("</table>");
    out
}

/// Renders the `introspection` section in any of its shapes: a run's
/// `{probes: [...]}`, a comparison's `{predictor_0: {probes}, ...}`, or a
/// bare probe array.
fn introspection_section(intro: &Value) -> String {
    let mut out = String::from("<section><h2>Predictor introspection</h2>");
    if let Some(probes) = field(intro, "probes").as_array() {
        out.push_str(&probes_table(probes));
    } else if let Some(probes) = intro.as_array() {
        out.push_str(&probes_table(probes));
    } else if let Some(map) = intro.as_object() {
        for (key, value) in map.iter() {
            if let Some(probes) = field(value, "probes").as_array() {
                out.push_str(&format!("<h3>{}</h3>", esc(key)));
                out.push_str(&probes_table(probes));
            }
        }
    }
    out.push_str("</section>");
    out
}

/// Renders the scalar leaves of a `metrics` object (an opt-in section
/// nested there, rendered separately, is skipped).
fn metrics_section(metrics: &Value) -> String {
    let Some(map) = metrics.as_object() else {
        return String::new();
    };
    let mut out = String::from("<section><h2>Metrics</h2><table>");
    for (key, value) in map.iter() {
        if Section::ALL.iter().any(|s| s.name() == key) {
            continue;
        }
        out.push_str(&format!(
            "<tr><th>{}</th><td>{}</td></tr>",
            esc(key),
            scalar(value)
        ));
    }
    out.push_str("</table></section>");
    out
}

/// Renders the `forensics` section: attribution summary, the top-K
/// hard-to-predict branch table and the misprediction coverage curve.
fn forensics_section(f: &Value) -> String {
    let mut out = String::from("<section><h2>Misprediction forensics</h2>");
    out.push_str(&format!(
        "<p>{} conditional branches, {} mispredictions — {} branches \
         tracked, {} classified hard-to-predict.</p>",
        scalar(field(f, "conditional_branches")),
        scalar(field(f, "mispredictions")),
        scalar(field(f, "tracked_branches")),
        scalar(field(f, "h2p_branches")),
    ));
    if let Some(top) = field(f, "top").as_array() {
        out.push_str(
            "<table><tr><th>branch</th><th>occurrences</th>\
             <th>mispredictions</th><th>miss rate</th><th>entropy</th>\
             <th>transitions</th><th>MPKI</th><th>H2P</th>\
             <th>attribution</th></tr>",
        );
        for b in top {
            let ip = field(b, "ip")
                .as_u64()
                .map(|ip| format!("{ip:#x}"))
                .unwrap_or_else(|| "-".to_string());
            let rate = field(b, "misprediction_rate")
                .as_f64()
                .map(|r| format!("{:.1}%", r * 100.0))
                .unwrap_or_else(|| "-".to_string());
            let attribution = field(b, "attribution")
                .as_object()
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| format!("{k}:{}", scalar(v)))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td class=\"hist\">{}</td></tr>",
                esc(&ip),
                scalar(field(b, "occurrences")),
                scalar(field(b, "mispredictions")),
                esc(&rate),
                scalar(field(b, "entropy_class")),
                scalar(field(b, "transition_class")),
                scalar(field(b, "mpki")),
                scalar(field(b, "h2p")),
                esc(&attribution),
            ));
        }
        out.push_str("</table>");
    }
    if let Some(coverage) = field(f, "coverage").as_array() {
        if let Some(last) = coverage.last() {
            out.push_str(&format!(
                "<p>Coverage: the top {} tracked branches explain {:.1}% of \
                 all mispredictions.</p>",
                scalar(field(last, "top_n")),
                field(last, "fraction").as_f64().unwrap_or(0.0) * 100.0,
            ));
        }
        let fractions: Vec<f64> = coverage
            .iter()
            .filter_map(|c| field(c, "fraction").as_f64())
            .collect();
        out.push_str(&sparkline(&fractions, 360, 48));
    }
    out.push_str("</section>");
    out
}

/// Renders the sections of one run/compare document (or a flat metrics
/// document) into `out`.
fn render_doc_sections(doc: &Value, out: &mut String) {
    let metadata = field(doc, "metadata");
    if !metadata.is_null() {
        out.push_str("<section><h2>Metadata</h2>");
        out.push_str(&kv_table(metadata));
        out.push_str("</section>");
    }
    let metrics = field(doc, "metrics");
    if !metrics.is_null() {
        out.push_str(&metrics_section(metrics));
    }
    opt_in_sections(doc, true, out);
    let stats = field(doc, "predictor_statistics");
    if !stats.is_null() {
        out.push_str("<section><h2>Predictor statistics</h2>");
        out.push_str(&kv_table(stats));
        out.push_str("</section>");
    }
    opt_in_sections(doc, false, out);
}

/// Renders, in table order, the opt-in sections a run document nests in
/// an object (`nested`) or carries at its top level; a flat `--metrics-out`
/// document carries them all at its top level.
fn opt_in_sections(doc: &Value, nested: bool, out: &mut String) {
    for section in Section::ALL
        .into_iter()
        .filter(|s| s.place().parent.is_some() == nested)
    {
        out.push_str(&match (section, section.find(doc)) {
            (_, None | Some(Value::Null)) => continue,
            (Section::Timeseries, Some(v)) => timeseries_section(v),
            (Section::Forensics, Some(v)) => forensics_section(v),
            (Section::Introspection, Some(v)) => introspection_section(v),
            // The phase-sampling summary has no view of its own.
            (Section::Simpoint, Some(_)) => continue,
        });
    }
}

/// The predictor display name of a run document, when it has one.
fn predictor_name(doc: &Value) -> Option<&str> {
    field(field(field(doc, "metadata"), "predictor"), "name").as_str()
}

/// Renders a full mbpsim JSON document as one self-contained HTML page.
pub fn render_html(doc: &Value) -> String {
    let title = predictor_name(doc)
        .map(|n| format!("mbpsim report — {n}"))
        .unwrap_or_else(|| "mbpsim report".to_string());
    let mut out = String::from("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str(&format!("<title>{}</title>", esc(&title)));
    out.push_str(
        "<style>\
         body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:64rem;\
         padding:0 1rem;color:#1a1a2e}\
         h1{font-size:1.4rem}h2{font-size:1.1rem;border-bottom:1px solid #ccd;\
         padding-bottom:.2rem;margin-top:2rem}h3{font-size:1rem}\
         table{border-collapse:collapse;margin:.5rem 0}\
         th,td{border:1px solid #ccd;padding:.25rem .6rem;text-align:left;\
         font-variant-numeric:tabular-nums}\
         th{background:#f0f2f8;font-weight:600}\
         .spark td{vertical-align:middle}\
         .hist{font-size:11px;color:#445}\
         </style></head><body>",
    );
    out.push_str(&format!("<h1>{}</h1>", esc(&title)));

    if let Some(results) = field(doc, "results").as_array() {
        // A sweep document: metadata and leaderboard summary, then one
        // block per result.
        let metadata = field(doc, "metadata");
        if !metadata.is_null() {
            out.push_str("<section><h2>Metadata</h2>");
            out.push_str(&kv_table(metadata));
            out.push_str("</section>");
        }
        if let Some(entries) = field(doc, "leaderboard").as_array() {
            out.push_str("<section><h2>Leaderboard</h2>");
            out.push_str(
                "<table><tr><th>rank</th><th>predictor</th><th>mpki</th>\
                 <th>accuracy</th></tr>",
            );
            for e in entries {
                out.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    scalar(field(e, "rank")),
                    scalar(field(e, "predictor")),
                    scalar(field(e, "mpki")),
                    scalar(field(e, "accuracy")),
                ));
            }
            out.push_str("</table></section>");
        }
        for result in results {
            let name = predictor_name(result).unwrap_or("predictor");
            out.push_str(&format!("<h2>{}</h2>", esc(name)));
            render_doc_sections(result, &mut out);
        }
    } else {
        render_doc_sections(doc, &mut out);
    }

    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_json::json;

    fn run_doc() -> Value {
        json!({
            "metadata": { "predictor": { "name": "MBPlib GShare" }, "trace": "t.sbbt" },
            "metrics": {
                "mpki": 7.5,
                "accuracy": 0.93,
                "timeseries": {
                    "window_size": 100,
                    "num_windows": 3,
                    "warmup_end_window": 1,
                    "phase_change_score": 0.2,
                    "num_phase_changes": 1,
                    "windows": [
                        { "mpki": 12.0, "accuracy": 0.8, "taken_rate": 0.5, "unique_branches": 4 },
                        { "mpki": 8.0, "accuracy": 0.9, "taken_rate": 0.5, "unique_branches": 4 },
                        { "mpki": 7.0, "accuracy": 0.92, "taken_rate": 0.6, "unique_branches": 5 },
                    ],
                },
            },
            "predictor_statistics": {},
            "introspection": {
                "probes": [{
                    "name": "gshare", "entries": 16, "occupied": 7,
                    "occupancy": 0.4375, "saturated": 2,
                    "counter_histogram": { "-2": 1, "-1": 2, "0": 9, "1": 4 },
                }],
            },
        })
    }

    #[test]
    fn run_report_is_well_formed_and_self_contained() {
        let html = render_html(&run_doc());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(html.contains("<svg"), "sparklines rendered");
        assert!(html.contains("MBPlib GShare"));
        assert!(html.contains("gshare"), "probe table rendered");
        assert!(!html.contains("<script"), "no scripts");
        assert!(
            !html.contains("http://") && !html.contains("https://"),
            "no external assets"
        );
    }

    #[test]
    fn timeseries_found_at_top_level_too() {
        // The flat --metrics-out schema keeps timeseries at the top level.
        let doc = json!({
            "simulate": { "records": 10 },
            "timeseries": field(field(&run_doc(), "metrics"), "timeseries").clone(),
        });
        let html = render_html(&doc);
        assert!(html.contains("<svg"));
        assert!(html.contains("Time series"));
    }

    #[test]
    fn sweep_report_renders_every_result() {
        let doc = json!({
            "leaderboard": [{ "rank": 1, "predictor": "gshare", "mpki": 7.5, "accuracy": 0.93 }],
            "results": [run_doc()],
        });
        let html = render_html(&doc);
        assert!(html.contains("Leaderboard"));
        assert!(html.contains("MBPlib GShare"));
        assert!(html.trim_end().ends_with("</html>"));
    }

    #[test]
    fn forensics_section_renders_top_table_and_coverage() {
        let mut doc = run_doc();
        if let Some(obj) = doc.as_object_mut() {
            obj.insert(
                "forensics",
                json!({
                    "schema_version": 2,
                    "tracked_branches": 2,
                    "conditional_branches": 1000,
                    "mispredictions": 100,
                    "h2p_branches": 1,
                    "top": [{
                        "ip": 0x4a0u64, "occurrences": 500, "mispredictions": 80,
                        "misprediction_rate": 0.16, "taken_rate": 0.5,
                        "direction_entropy": 1.0, "entropy_class": "unbiased",
                        "transition_rate": 0.5, "transition_class": "irregular",
                        "max_streak": 9, "max_misprediction_burst": 4,
                        "misprediction_bursts": 12, "mpki": 8.0, "h2p": true,
                        "attribution": { "chooser_wrong": 30, "both_wrong": 50 },
                    }],
                    "coverage": [{ "top_n": 1, "mispredictions": 80, "fraction": 0.8 }],
                }),
            );
        }
        let html = render_html(&doc);
        assert!(html.contains("Misprediction forensics"));
        assert!(
            html.contains("2 branches tracked, 1 classified hard-to-predict"),
            "summary line"
        );
        assert!(html.contains("0x4a0"), "hex branch address");
        assert!(html.contains("16.0%"), "misprediction rate");
        assert!(html.contains("chooser_wrong:30"), "attribution breakdown");
        assert!(
            html.contains("top 1 tracked branches explain 80.0%"),
            "coverage line"
        );
    }

    #[test]
    fn html_is_escaped() {
        let mut doc = run_doc();
        if let Some(meta) = doc
            .as_object_mut()
            .and_then(|o| o.get_mut("metadata"))
            .and_then(Value::as_object_mut)
            .and_then(|m| m.get_mut("predictor"))
            .and_then(Value::as_object_mut)
        {
            meta.insert("name", "<evil>&\"name\"");
        }
        let html = render_html(&doc);
        assert!(!html.contains("<evil>"));
        assert!(html.contains("&lt;evil&gt;"));
    }

    #[test]
    fn sparkline_handles_degenerate_series() {
        assert_eq!(sparkline(&[], 100, 20), "");
        assert!(sparkline(&[1.0], 100, 20).contains("<svg"));
        assert!(sparkline(&[2.0, 2.0, 2.0], 100, 20).contains("polyline"));
    }
}
