//! Trace-set presets mirroring the paper's evaluation sets.
//!
//! The CBP5 provided 223 training and 440 evaluation traces grouped in
//! categories (SHORT/LONG × MOBILE/SERVER, plus media-style codes); DPC3
//! provided 95 SPEC17-based traces. Regenerating hundreds of traces at
//! hundreds of millions of instructions each is out of scope for a laptop
//! harness, so the presets default to a scaled-down count and length and
//! expose a `scale` knob that multiplies the trace count; the benchmark
//! binaries report the scaling they used.

use crate::{ProgramParams, TraceGenerator};
use mbp_trace::BranchRecord;

/// One trace in a suite.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// Display name, e.g. `SHORT_SERVER-3`.
    pub name: String,
    /// Program parameters.
    pub params: ProgramParams,
    /// Generation seed.
    pub seed: u64,
    /// Approximate instructions to generate.
    pub instructions: u64,
}

impl TraceSpec {
    /// Instantiates the generator for this spec.
    pub fn generator(&self) -> TraceGenerator {
        TraceGenerator::from_params(&self.params, self.seed).with_name(self.name.clone())
    }

    /// Materializes the trace's branch records.
    pub fn records(&self) -> Vec<BranchRecord> {
        self.generator().take_instructions(self.instructions)
    }
}

/// A named set of traces.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Suite name (e.g. `CBP5-training`).
    pub name: &'static str,
    /// Member traces.
    pub traces: Vec<TraceSpec>,
}

impl Suite {
    /// The CBP5 training-set stand-in.
    ///
    /// `scale` multiplies the trace count, and each trace keeps its length;
    /// `scale = 1` yields 10 traces of ~1 M instructions (seconds on a
    /// laptop), mirroring the category mix of the original 223 traces,
    /// including a deliberately long trace per category pair (the CBP5 sets
    /// contained billion-instruction traces; here "long" means 4× the short
    /// length).
    pub fn cbp5_training(scale: u64) -> Suite {
        Self::cbp5(scale, "CBP5-training", 0x5eed_0000)
    }

    /// The CBP5 evaluation-set stand-in (disjoint seeds, more traces).
    pub fn cbp5_evaluation(scale: u64) -> Suite {
        let mut s = Self::cbp5(scale.max(1) * 2, "CBP5-evaluation", 0xeeed_0000);
        s.name = "CBP5-evaluation";
        s
    }

    fn cbp5(scale: u64, name: &'static str, seed_base: u64) -> Suite {
        let scale = scale.max(1);
        let base_instr = 1_000_000u64;
        let mut traces = Vec::new();
        type ParamsFn = fn() -> ProgramParams;
        let categories: [(&str, ParamsFn); 4] = [
            ("SHORT_MOBILE", ProgramParams::mobile),
            ("SHORT_SERVER", ProgramParams::server),
            ("LONG_MOBILE", ProgramParams::mobile),
            ("LONG_SERVER", ProgramParams::server),
        ];
        for rep in 0..2 * scale {
            for (ci, (cat, params)) in categories.iter().enumerate() {
                let long = cat.starts_with("LONG");
                traces.push(TraceSpec {
                    name: format!("{cat}-{}", rep + 1),
                    params: params(),
                    seed: seed_base + (ci as u64) * 1000 + rep,
                    instructions: if long { base_instr * 4 } else { base_instr },
                });
            }
            traces.push(TraceSpec {
                name: format!("MEDIA-{}", rep + 1),
                params: ProgramParams::media(),
                seed: seed_base + 9000 + rep,
                instructions: base_instr * 2,
            });
        }
        Suite { name, traces }
    }

    /// The DPC3 (SPEC17-like) stand-in: per-instruction traces for the
    /// ChampSim comparison.
    pub fn dpc3(scale: u64) -> Suite {
        let scale = scale.max(1);
        let traces = (0..5 * scale)
            .map(|i| TraceSpec {
                name: format!("SPEC17-{}", i + 1),
                params: match i % 3 {
                    0 => ProgramParams::int_speed(),
                    1 => ProgramParams::media(),
                    _ => ProgramParams::fp_speed(),
                },
                seed: 0xdbc3_0000 + i,
                instructions: 1_000_000,
            })
            .collect();
        Suite {
            name: "DPC3",
            traces,
        }
    }

    /// Runs a predictor configuration over every trace of the suite
    /// (a fresh predictor per trace, championship-style) and aggregates
    /// the results.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbp_core::{Branch, Predictor, SimConfig};
    /// use mbp_workloads::Suite;
    ///
    /// struct AlwaysTaken;
    /// impl Predictor for AlwaysTaken {
    ///     fn predict(&mut self, _ip: u64) -> bool { true }
    ///     fn train(&mut self, _b: &Branch) {}
    ///     fn track(&mut self, _b: &Branch) {}
    /// }
    ///
    /// let report = Suite::smoke().evaluate(|| AlwaysTaken, &SimConfig::default());
    /// assert_eq!(report.per_trace.len(), 2);
    /// assert!(report.amean_mpki > 0.0);
    /// ```
    pub fn evaluate<P, F>(&self, mut make: F, config: &mbp_core::SimConfig) -> SuiteReport
    where
        P: mbp_core::Predictor,
        F: FnMut() -> P,
    {
        let mut per_trace = Vec::with_capacity(self.traces.len());
        let mut total_mis = 0u64;
        let mut total_instr = 0u64;
        for spec in &self.traces {
            let records = spec.records();
            let mut source = mbp_core::SliceSource::named(&records, spec.name.clone());
            let mut predictor = make();
            let result = mbp_core::simulate(&mut source, &mut predictor, config)
                .expect("in-memory simulation cannot fail");
            total_mis += result.metrics.mispredictions;
            total_instr += result.metadata.simulation_instr;
            per_trace.push(TraceResult {
                name: spec.name.clone(),
                mpki: result.metrics.mpki,
                mispredictions: result.metrics.mispredictions,
                accuracy: result.metrics.accuracy,
            });
        }
        let amean_mpki =
            per_trace.iter().map(|t| t.mpki).sum::<f64>() / per_trace.len().max(1) as f64;
        SuiteReport {
            suite: self.name,
            per_trace,
            amean_mpki,
            total_mispredictions: total_mis,
            total_instructions: total_instr,
        }
    }

    /// A minimal smoke suite for tests.
    pub fn smoke() -> Suite {
        Suite {
            name: "smoke",
            traces: vec![
                TraceSpec {
                    name: "SMOKE-mobile".into(),
                    params: ProgramParams::mobile(),
                    seed: 1,
                    instructions: 100_000,
                },
                TraceSpec {
                    name: "SMOKE-server".into(),
                    params: ProgramParams::server(),
                    seed: 2,
                    instructions: 100_000,
                },
            ],
        }
    }
}

/// One trace's results inside a [`SuiteReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceResult {
    /// Trace name.
    pub name: String,
    /// Mispredictions per kilo-instruction.
    pub mpki: f64,
    /// Absolute misprediction count.
    pub mispredictions: u64,
    /// Conditional-branch accuracy.
    pub accuracy: f64,
}

/// Aggregated results of [`Suite::evaluate`].
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteReport {
    /// The evaluated suite's name.
    pub suite: &'static str,
    /// Per-trace results in suite order.
    pub per_trace: Vec<TraceResult>,
    /// Arithmetic mean MPKI over the traces (the championship metric).
    pub amean_mpki: f64,
    /// Total mispredictions across the suite.
    pub total_mispredictions: u64,
    /// Total measured instructions across the suite.
    pub total_instructions: u64,
}

impl SuiteReport {
    /// Renders the report as JSON for downstream tooling.
    pub fn to_json(&self) -> mbp_core::Value {
        mbp_core::json!({
            "suite": self.suite,
            "amean_mpki": self.amean_mpki,
            "total_mispredictions": self.total_mispredictions,
            "total_instructions": self.total_instructions,
            "traces": self.per_trace.iter().map(|t| mbp_core::json!({
                "name": t.name.as_str(),
                "mpki": t.mpki,
                "mispredictions": t.mispredictions,
                "accuracy": t.accuracy,
            })).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_suite_has_category_mix() {
        let s = Suite::cbp5_training(1);
        assert_eq!(s.traces.len(), 10);
        assert!(s.traces.iter().any(|t| t.name.starts_with("SHORT_MOBILE")));
        assert!(s.traces.iter().any(|t| t.name.starts_with("LONG_SERVER")));
        assert!(s.traces.iter().any(|t| t.name.starts_with("MEDIA")));
    }

    #[test]
    fn evaluation_suite_is_larger_and_disjoint() {
        let train = Suite::cbp5_training(1);
        let eval = Suite::cbp5_evaluation(1);
        assert!(eval.traces.len() > train.traces.len());
        let train_seeds: Vec<u64> = train.traces.iter().map(|t| t.seed).collect();
        assert!(eval.traces.iter().all(|t| !train_seeds.contains(&t.seed)));
    }

    #[test]
    fn long_traces_are_longer() {
        let s = Suite::cbp5_training(1);
        let short = s
            .traces
            .iter()
            .find(|t| t.name.starts_with("SHORT_MOBILE"))
            .unwrap();
        let long = s
            .traces
            .iter()
            .find(|t| t.name.starts_with("LONG_MOBILE"))
            .unwrap();
        assert!(long.instructions > 2 * short.instructions);
    }

    #[test]
    fn specs_materialize_requested_length() {
        let s = Suite::smoke();
        let recs = s.traces[0].records();
        let instr: u64 = recs.iter().map(|r| r.instructions()).sum();
        assert!(instr >= 100_000);
        assert!(instr < 150_000, "should not hugely overshoot");
    }

    #[test]
    fn evaluate_aggregates_across_traces() {
        let report = Suite::smoke().evaluate(
            || mbp_predictors::Gshare::new(12, 12),
            &mbp_core::SimConfig::default(),
        );
        assert_eq!(report.per_trace.len(), 2);
        assert!(report.amean_mpki > 0.0);
        assert!(report.total_instructions >= 200_000);
        let doc = report.to_json();
        assert_eq!(doc["traces"].as_array().unwrap().len(), 2);
        assert_eq!(doc["suite"].as_str(), Some("smoke"));
    }

    #[test]
    fn scale_multiplies_trace_count() {
        assert_eq!(Suite::cbp5_training(2).traces.len(), 20);
        assert_eq!(Suite::dpc3(2).traces.len(), 10);
    }

    #[test]
    fn scale_two_doubles_each_suite_and_keeps_every_trace_length() {
        type SuiteFn = fn(u64) -> Suite;
        let suites: [SuiteFn; 3] = [Suite::cbp5_training, Suite::cbp5_evaluation, Suite::dpc3];
        for suite in suites {
            let (one, two) = (suite(1), suite(2));
            assert_eq!(two.traces.len(), 2 * one.traces.len(), "{}", one.name);
            // Scale 1's traces come first, unchanged; every added trace is
            // as long as scale 1's trace of its category.
            let length_of = |name: &str| {
                let category = |n: &str| n.rsplit_once('-').map(|(c, _)| c.to_string());
                (one.traces.iter())
                    .find(|t| category(&t.name) == category(name))
                    .map(|t| t.instructions)
            };
            for (i, t) in two.traces.iter().enumerate() {
                if let Some(same) = one.traces.get(i) {
                    assert_eq!((&t.name, t.seed), (&same.name, same.seed));
                }
                assert_eq!(Some(t.instructions), length_of(&t.name), "{}", t.name);
            }
        }
    }
}
