//! JSON rendering of simulation results (Listing 1 of the paper), and the
//! inverse parse used by checkpoint resume.

use mbp_json::{json, Value};

use crate::metrics::{
    BranchStat, BranchTaxonomy, ClassStat, Metrics, ENTROPY_CLASSES, TRANSITION_CLASSES,
};
use crate::simulator::SimMetadata;
use crate::timeseries::{TimeSeries, Window};
use crate::{Section, SimResult, TableProbe};

/// Renders one taxonomy class table as a name-keyed object.
fn classes_json(names: &[&str], stats: &[ClassStat]) -> Value {
    let mut obj = json!({});
    if let Some(map) = obj.as_object_mut() {
        for (name, s) in names.iter().zip(stats) {
            map.insert(
                *name,
                json!({
                    "branches": s.branches,
                    "occurrences": s.occurrences,
                    "mispredictions": s.mispredictions,
                }),
            );
        }
    }
    obj
}

impl BranchTaxonomy {
    /// Renders the taxonomy as the `metrics.branch_taxonomy` JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "measured_branches": self.measured_branches,
            "mean_direction_entropy": self.mean_direction_entropy,
            "mean_transition_rate": self.mean_transition_rate,
            "entropy_classes": classes_json(&ENTROPY_CLASSES, &self.entropy_classes),
            "transition_classes": classes_json(&TRANSITION_CLASSES, &self.transition_classes),
        })
    }
}

impl SimResult {
    /// Renders the result as the JSON document of Listing 1: `metadata`,
    /// `metrics`, `predictor_statistics` and `most_failed` sections, with
    /// the predictor's own metadata embedded under `metadata.predictor`.
    ///
    /// The opt-in [`Section`]s the run collected ride along without
    /// disturbing the Listing-1 shape, each at its place in the section
    /// table and in its order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mbp_core::{simulate, Predictor, SimConfig, SliceSource};
    /// # use mbp_trace::{Branch, BranchRecord, Opcode};
    /// # struct P;
    /// # impl Predictor for P {
    /// #     fn predict(&mut self, _: u64) -> bool { true }
    /// #     fn train(&mut self, _: &Branch) {}
    /// #     fn track(&mut self, _: &Branch) {}
    /// # }
    /// # let recs = vec![BranchRecord::new(
    /// #     Branch::new(0x10, 0, Opcode::conditional_direct(), true), 0)];
    /// # let r = simulate(&mut SliceSource::new(&recs), &mut P, &SimConfig::default())?;
    /// let doc = r.to_json();
    /// assert!(doc["metrics"]["mpki"].as_f64().is_some());
    /// assert_eq!(doc["metadata"]["simulator"].as_str(), Some("MBPlib std simulator"));
    /// # Ok::<(), mbp_trace::TraceError>(())
    /// ```
    pub fn to_json(&self) -> Value {
        let m = &self.metadata;
        let mut doc = json!({
            "metadata": {
                "simulator": m.simulator,
                "version": m.version,
                "trace": m.trace.clone(),
                "warmup_instr": m.warmup_instr,
                "simulation_instr": m.simulation_instr,
                "exhausted_trace": m.exhausted_trace,
                "num_conditional_branches": m.num_conditional_branches,
                "num_branch_instructions": m.num_branch_instructions,
                "track_only_conditional": m.track_only_conditional,
                "predictor": m.predictor.clone(),
            },
            "metrics": {
                "mpki": self.metrics.mpki,
                "mispredictions": self.metrics.mispredictions,
                "accuracy": self.metrics.accuracy,
                "num_most_failed_branches": self.metrics.num_most_failed_branches,
                "simulation_time": self.metrics.simulation_time,
                "branch_taxonomy": self.branch_taxonomy.to_json(),
            },
            "predictor_statistics": self.predictor_statistics.clone(),
            "most_failed": self.most_failed.iter().map(|s| json!({
                "ip": s.ip,
                "occurrences": s.occurrences,
                "mispredictions": s.mispredictions,
                "taken": s.taken,
                "mpki": s.mpki,
                "accuracy": s.accuracy,
                "direction_entropy": s.direction_entropy,
                "transition_rate": s.transition_rate,
            })).collect::<Vec<_>>(),
        });
        for section in Section::ALL {
            let value = match section {
                Section::Timeseries => self.timeseries.as_ref().map(TimeSeries::to_json),
                Section::Forensics => self.forensics.clone(),
                Section::Simpoint => self.sampling.clone(),
                Section::Introspection => (!self.table_probes.is_empty())
                    .then(|| json!({ "probes": crate::probes_to_json(&self.table_probes) })),
            };
            if let Some(value) = value {
                section.place().insert(&mut doc, value);
            }
        }
        doc
    }

    /// Parses a document rendered by [`SimResult::to_json`] back into a
    /// [`SimResult`] — the inverse used by sweep checkpoint resume, so a
    /// predictor completed before a crash is not re-simulated.
    ///
    /// The parse is strict about identity: a document whose
    /// `metadata.simulator` or `metadata.version` does not match this build
    /// is rejected (resume re-runs the predictor instead of mixing results
    /// from different simulator versions into one leaderboard). Re-rendering
    /// the parsed result reproduces the input document byte-for-byte, which
    /// is what makes resumed sweeps indistinguishable from uninterrupted
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first missing, mistyped or
    /// mismatched field.
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let meta = req(doc, "metadata")?;
        let simulator = req_str(meta, "simulator")?;
        if simulator != crate::SIMULATOR_NAME {
            return Err(format!(
                "metadata.simulator is {simulator:?}, not {:?}",
                crate::SIMULATOR_NAME
            ));
        }
        let version = req_str(meta, "version")?;
        if version != crate::SIMULATOR_VERSION {
            return Err(format!(
                "metadata.version is {version:?}, not {:?}",
                crate::SIMULATOR_VERSION
            ));
        }
        let metadata = SimMetadata {
            simulator: crate::SIMULATOR_NAME,
            version: crate::SIMULATOR_VERSION,
            trace: req(meta, "trace")?.clone(),
            warmup_instr: req_u64(meta, "warmup_instr")?,
            simulation_instr: req_u64(meta, "simulation_instr")?,
            exhausted_trace: req_bool(meta, "exhausted_trace")?,
            num_conditional_branches: req_u64(meta, "num_conditional_branches")?,
            num_branch_instructions: req_u64(meta, "num_branch_instructions")?,
            track_only_conditional: req_bool(meta, "track_only_conditional")?,
            predictor: req(meta, "predictor")?.clone(),
        };

        let m = req(doc, "metrics")?;
        let metrics = Metrics {
            mpki: req_f64(m, "mpki")?,
            mispredictions: req_u64(m, "mispredictions")?,
            accuracy: req_f64(m, "accuracy")?,
            num_most_failed_branches: req_u64(m, "num_most_failed_branches")?,
            simulation_time: req_f64(m, "simulation_time")?,
        };
        let branch_taxonomy = BranchTaxonomy::from_json(req(m, "branch_taxonomy")?)?;
        let timeseries = match Section::Timeseries.place().get(doc) {
            Some(ts) => Some(timeseries_from_json(ts)?),
            None => None,
        };

        let most_failed = req(doc, "most_failed")?
            .as_array()
            .ok_or("most_failed is not an array")?
            .iter()
            .map(branch_stat_from_json)
            .collect::<Result<Vec<_>, _>>()?;

        let table_probes = match Section::Introspection.place().get(doc) {
            Some(intro) => req(intro, "probes")?
                .as_array()
                .ok_or("introspection.probes is not an array")?
                .iter()
                .map(probe_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };

        Ok(SimResult {
            metadata,
            metrics,
            predictor_statistics: req(doc, "predictor_statistics")?.clone(),
            most_failed,
            branch_taxonomy,
            timeseries,
            table_probes,
            sampling: Section::Simpoint.place().get(doc).cloned(),
            forensics: Section::Forensics.place().get(doc).cloned(),
        })
    }
}

impl BranchTaxonomy {
    /// Parses the `metrics.branch_taxonomy` object back (inverse of
    /// [`BranchTaxonomy::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            measured_branches: req_u64(v, "measured_branches")?,
            mean_direction_entropy: req_f64(v, "mean_direction_entropy")?,
            mean_transition_rate: req_f64(v, "mean_transition_rate")?,
            entropy_classes: classes_from_json(&ENTROPY_CLASSES, req(v, "entropy_classes")?)?,
            transition_classes: classes_from_json(
                &TRANSITION_CLASSES,
                req(v, "transition_classes")?,
            )?,
        })
    }
}

fn req<'a>(obj: &'a Value, key: &'static str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn req_str<'a>(obj: &'a Value, key: &'static str) -> Result<&'a str, String> {
    req(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn req_u64(obj: &Value, key: &'static str) -> Result<u64, String> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

fn req_f64(obj: &Value, key: &'static str) -> Result<f64, String> {
    req(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn req_bool(obj: &Value, key: &'static str) -> Result<bool, String> {
    req(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a boolean"))
}

/// Inverse of `classes_json`: reads one taxonomy class table back in the
/// canonical name order.
fn classes_from_json<const N: usize>(
    names: &[&str; N],
    v: &Value,
) -> Result<[ClassStat; N], String> {
    let mut out = [ClassStat::default(); N];
    for (slot, name) in out.iter_mut().zip(names) {
        let c = v
            .get(name)
            .ok_or_else(|| format!("missing taxonomy class `{name}`"))?;
        *slot = ClassStat {
            branches: req_u64(c, "branches")?,
            occurrences: req_u64(c, "occurrences")?,
            mispredictions: req_u64(c, "mispredictions")?,
        };
    }
    Ok(out)
}

fn branch_stat_from_json(v: &Value) -> Result<BranchStat, String> {
    Ok(BranchStat {
        ip: req_u64(v, "ip")?,
        occurrences: req_u64(v, "occurrences")?,
        mispredictions: req_u64(v, "mispredictions")?,
        taken: req_u64(v, "taken")?,
        mpki: req_f64(v, "mpki")?,
        accuracy: req_f64(v, "accuracy")?,
        direction_entropy: req_f64(v, "direction_entropy")?,
        transition_rate: req_f64(v, "transition_rate")?,
    })
}

/// Inverse of `TimeSeries::to_json`. The derived per-window fields (`mpki`,
/// `accuracy`, `taken_rate`) and `num_windows` are recomputed from the raw
/// counts on re-render, so they are validated implicitly by the round-trip.
fn timeseries_from_json(v: &Value) -> Result<TimeSeries, String> {
    let windows = req(v, "windows")?
        .as_array()
        .ok_or("timeseries.windows is not an array")?
        .iter()
        .map(|w| {
            Ok(Window {
                start_instruction: req_u64(w, "start_instruction")?,
                instructions: req_u64(w, "instructions")?,
                conditional: req_u64(w, "conditional_branches")?,
                mispredictions: req_u64(w, "mispredictions")?,
                taken: req_u64(w, "taken_branches")?,
                unique_branches: req_u64(w, "unique_branches")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warmup_end_window = match req(v, "warmup_end_window")? {
        Value::Null => None,
        w => Some(
            w.as_u64()
                .ok_or("warmup_end_window is neither null nor an unsigned integer")?
                as usize,
        ),
    };
    Ok(TimeSeries {
        window_size: req_u64(v, "window_size")?,
        windows,
        warmup_end_window,
        phase_change_score: req_f64(v, "phase_change_score")?,
        num_phase_changes: req_u64(v, "num_phase_changes")?,
    })
}

/// Inverse of `TableProbe::to_json`. The fixed fields are read by name;
/// `occupancy` is derived and skipped; every other key — predictor-specific
/// extras — is kept in document order so re-rendering preserves it.
fn probe_from_json(v: &Value) -> Result<TableProbe, String> {
    let obj = v.as_object().ok_or("probe is not an object")?;
    let hist = req(v, "counter_histogram")?
        .as_object()
        .ok_or("counter_histogram is not an object")?
        .iter()
        .map(|(label, count)| {
            count
                .as_u64()
                .map(|c| (label.to_string(), c))
                .ok_or_else(|| format!("histogram bucket `{label}` is not an unsigned integer"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let useful_density = match obj.get("useful_density") {
        Some(d) => Some(d.as_f64().ok_or("useful_density is not a number")?),
        None => None,
    };
    const FIXED: [&str; 7] = [
        "name",
        "entries",
        "occupied",
        "occupancy",
        "saturated",
        "counter_histogram",
        "useful_density",
    ];
    let extra = obj
        .iter()
        .filter(|(k, _)| !FIXED.contains(k))
        .map(|(k, val)| (k.to_string(), val.clone()))
        .collect();
    Ok(TableProbe {
        name: req_str(v, "name")?.to_string(),
        entries: req_u64(v, "entries")?,
        occupied: req_u64(v, "occupied")?,
        saturated: req_u64(v, "saturated")?,
        counter_histogram: hist,
        useful_density,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use crate::{simulate, Predictor, SimConfig, SliceSource};
    use mbp_json::{json, Value};
    use mbp_trace::{Branch, BranchRecord, Opcode};

    struct Always(bool);

    impl Predictor for Always {
        fn predict(&mut self, _ip: u64) -> bool {
            self.0
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn metadata(&self) -> Value {
            json!({"name": "MBPlib GShare", "history_length": 25, "log_table_size": 18})
        }
    }

    #[test]
    fn output_has_all_listing1_sections() {
        let recs = vec![
            BranchRecord::new(Branch::new(0x10, 0, Opcode::conditional_direct(), true), 3),
            BranchRecord::new(Branch::new(0x10, 0, Opcode::conditional_direct(), false), 3),
        ];
        let r = simulate(
            &mut SliceSource::named(&recs, "traces/SHORT_SERVER-1.sbbt.mzst"),
            &mut Always(true),
            &SimConfig::default(),
        )
        .unwrap();
        let doc = r.to_json();

        // Section presence and ordering per Listing 1.
        let keys: Vec<_> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["metadata", "metrics", "predictor_statistics", "most_failed"]
        );

        let meta = doc["metadata"].as_object().unwrap();
        for key in [
            "simulator",
            "version",
            "trace",
            "warmup_instr",
            "simulation_instr",
            "exhausted_trace",
        ] {
            assert!(meta.contains_key(key), "missing metadata.{key}");
        }
        // Listing 1 contains a typo ("num_conditonal_branches"); we use the
        // corrected spelling.
        assert!(meta.contains_key("num_conditional_branches"));
        assert!(meta.contains_key("num_branch_instructions"));
        assert_eq!(
            doc["metadata"]["predictor"]["history_length"],
            Value::from(25)
        );
        assert_eq!(
            doc["metadata"]["trace"].as_str(),
            Some("traces/SHORT_SERVER-1.sbbt.mzst")
        );

        let metrics = doc["metrics"].as_object().unwrap();
        for key in [
            "mpki",
            "mispredictions",
            "accuracy",
            "num_most_failed_branches",
            "simulation_time",
        ] {
            assert!(metrics.contains_key(key), "missing metrics.{key}");
        }

        assert_eq!(doc["most_failed"][0]["ip"], Value::from(0x10));
        // The document parses back (machine-friendly requirement).
        let text = doc.to_pretty_string();
        let reparsed: Value = text.parse().unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn opt_in_sections_render_after_listing1_sections() {
        struct Probed;
        impl Predictor for Probed {
            fn predict(&mut self, _: u64) -> bool {
                true
            }
            fn train(&mut self, _: &Branch) {}
            fn track(&mut self, _: &Branch) {}
            fn table_probes(&self) -> Vec<crate::TableProbe> {
                vec![crate::TableProbe::new("table", 16)]
            }
        }
        let recs = vec![BranchRecord::new(
            Branch::new(0x10, 0, Opcode::conditional_direct(), true),
            9,
        )];
        let cfg = SimConfig {
            timeseries_window: Some(5),
            collect_probes: true,
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&recs), &mut Probed, &cfg).unwrap();
        let doc = r.to_json();
        let keys: Vec<_> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "metadata",
                "metrics",
                "predictor_statistics",
                "most_failed",
                "introspection"
            ],
            "introspection appends after the Listing-1 sections"
        );
        let ts = &doc["metrics"]["timeseries"];
        assert_eq!(ts["window_size"].as_u64(), Some(5));
        assert_eq!(ts["num_windows"].as_u64(), Some(1));
        assert_eq!(
            doc["introspection"]["probes"][0]["name"].as_str(),
            Some("table")
        );
        let text = doc.to_pretty_string();
        let reparsed: Value = text.parse().unwrap();
        assert_eq!(reparsed, doc);
    }

    /// A result with every optional section populated, for round-trip tests.
    fn full_result() -> crate::SimResult {
        struct Probed;
        impl Predictor for Probed {
            fn predict(&mut self, ip: u64) -> bool {
                ip & 0x8 == 0
            }
            fn train(&mut self, _: &Branch) {}
            fn track(&mut self, _: &Branch) {}
            fn metadata(&self) -> Value {
                json!({"name": "probed", "log_table_size": 4})
            }
            fn execution_statistics(&self) -> Value {
                json!({"lookups": 64})
            }
            fn table_probes(&self) -> Vec<crate::TableProbe> {
                let mut p = crate::TableProbe::new("t0", 16).with_extra("hist_len", 7u64);
                p.occupied = 3;
                p.saturated = 1;
                p.counter_histogram = vec![("-1".to_string(), 6), ("0".to_string(), 10)];
                p.useful_density = Some(0.375);
                vec![p, crate::TableProbe::new("t1", 4)]
            }
        }
        let recs: Vec<_> = (0..40)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(0x10 + (i % 5), 0, Opcode::conditional_direct(), i % 3 != 0),
                    4,
                )
            })
            .collect();
        let cfg = SimConfig {
            warmup_instructions: 25,
            timeseries_window: Some(50),
            collect_probes: true,
            ..SimConfig::default()
        };
        simulate(
            &mut SliceSource::named(&recs, "traces/RT.sbbt.mzst"),
            &mut Probed,
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn from_json_round_trips_byte_identically() {
        let result = full_result();
        let doc = result.to_json();
        let parsed = crate::SimResult::from_json(&doc).expect("parses back");
        assert_eq!(
            parsed.to_json().to_pretty_string(),
            doc.to_pretty_string(),
            "re-render reproduces the document byte-for-byte"
        );
        // And through a serialize/parse cycle, as checkpoint resume does.
        let reparsed: Value = doc.to_pretty_string().parse().unwrap();
        let from_text = crate::SimResult::from_json(&reparsed).expect("parses after text cycle");
        assert_eq!(
            from_text.to_json().to_pretty_string(),
            doc.to_pretty_string()
        );
        // Structured fields survive, not just the rendering.
        assert_eq!(parsed.metrics, result.metrics);
        assert_eq!(parsed.most_failed, result.most_failed);
        assert_eq!(parsed.branch_taxonomy, result.branch_taxonomy);
        assert_eq!(parsed.timeseries, result.timeseries);
        assert_eq!(parsed.table_probes, result.table_probes);
    }

    #[test]
    fn from_json_round_trips_minimal_document() {
        let recs = vec![BranchRecord::new(
            Branch::new(0x10, 0, Opcode::conditional_direct(), true),
            0,
        )];
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut Always(true),
            &SimConfig::default(),
        )
        .unwrap();
        let doc = r.to_json();
        let parsed = crate::SimResult::from_json(&doc).unwrap();
        assert!(parsed.timeseries.is_none());
        assert!(parsed.table_probes.is_empty());
        assert_eq!(parsed.to_json().to_pretty_string(), doc.to_pretty_string());
    }

    #[test]
    fn from_json_rejects_foreign_simulator_or_version() {
        fn patch_meta(doc: &Value, key: &str, value: &str) -> Value {
            let mut doc = doc.clone();
            doc.as_object_mut()
                .unwrap()
                .get_mut("metadata")
                .unwrap()
                .as_object_mut()
                .unwrap()
                .insert(key, value);
            doc
        }
        let doc = full_result().to_json();
        let err = crate::SimResult::from_json(&patch_meta(&doc, "simulator", "other")).unwrap_err();
        assert!(err.contains("metadata.simulator"), "{err}");
        let err =
            crate::SimResult::from_json(&patch_meta(&doc, "version", "v0.0.0-other")).unwrap_err();
        assert!(err.contains("metadata.version"), "{err}");
    }

    #[test]
    fn sampled_result_round_trips_with_simpoint_section() {
        let recs: Vec<_> = (0..400)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(0x10 + (i % 7), 0, Opcode::conditional_direct(), i % 3 != 0),
                    9,
                )
            })
            .collect();
        let phases = crate::extract_phases(&recs, 1000, 3);
        let r = crate::simulate_sampled(&recs, &mut Always(true), &phases, &SimConfig::default());
        let doc = r.to_json();
        let keys: Vec<_> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "metadata",
                "metrics",
                "predictor_statistics",
                "most_failed",
                "simpoint"
            ],
            "simpoint appends after the Listing-1 sections"
        );
        assert_eq!(
            doc["simpoint"]["doc_hash"].as_str(),
            Some(phases.doc_hash().as_str())
        );
        let parsed = crate::SimResult::from_json(&doc).expect("parses back");
        assert_eq!(parsed.to_json().to_pretty_string(), doc.to_pretty_string());
        assert_eq!(parsed.sampling, r.sampling);
    }

    #[test]
    fn forensic_result_round_trips_with_forensics_section() {
        let recs: Vec<_> = (0..60)
            .map(|i| {
                BranchRecord::new(
                    Branch::new(0x10 + (i % 3), 0, Opcode::conditional_direct(), i % 2 == 0),
                    4,
                )
            })
            .collect();
        let cfg = SimConfig {
            forensics: Some(crate::ForensicsConfig::default()),
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&recs), &mut Always(true), &cfg).unwrap();
        let doc = r.to_json();
        let keys: Vec<_> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "metadata",
                "metrics",
                "predictor_statistics",
                "most_failed",
                "forensics"
            ],
            "forensics appends after the Listing-1 sections"
        );
        assert_eq!(
            doc["forensics"]["schema_version"].as_u64(),
            Some(crate::FORENSICS_SCHEMA_VERSION)
        );
        assert!(doc["forensics"]["top"]
            .as_array()
            .is_some_and(|t| !t.is_empty()));
        let parsed = crate::SimResult::from_json(&doc).expect("parses back");
        assert_eq!(parsed.to_json().to_pretty_string(), doc.to_pretty_string());
        assert_eq!(parsed.forensics, r.forensics);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let mut doc = full_result().to_json();
        doc.as_object_mut()
            .unwrap()
            .get_mut("metrics")
            .unwrap()
            .as_object_mut()
            .unwrap()
            .remove("mpki");
        let err = crate::SimResult::from_json(&doc).unwrap_err();
        assert!(err.contains("mpki"), "{err}");
        assert!(crate::SimResult::from_json(&json!({})).is_err());
        assert!(crate::SimResult::from_json(&Value::Null).is_err());
    }
}
