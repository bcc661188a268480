//! The comparison simulator (§VI-C): two predictors over one trace.

use mbp_json::{json, Value};
use mbp_stats::events::{self, EventName};
use mbp_trace::{BranchBatch, TraceError};

use crate::metrics::{accuracy, mpki, BranchTable};
use crate::simulator::{count_records, next_batch, open_run};
use crate::{PredictionBits, Predictor, Section, SimConfig, TableProbe, TraceSource};

/// A branch that one predictor handles better than the other.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DivergingBranch {
    /// Branch instruction address.
    pub ip: u64,
    /// Measured dynamic occurrences.
    pub occurrences: u64,
    /// Mispredictions of the first predictor on this branch.
    pub mispredictions_a: u64,
    /// Mispredictions of the second predictor on this branch.
    pub mispredictions_b: u64,
    /// Contribution of this branch to the MPKI difference (positive when
    /// the second predictor is better here).
    pub mpki_difference: f64,
}

/// The outcome of a comparison run.
#[derive(Clone, Debug)]
pub struct ComparisonResult {
    /// Trace description.
    pub trace: Value,
    /// Instructions measured.
    pub simulation_instr: u64,
    /// Measured conditional branches.
    pub num_conditional_branches: u64,
    /// Both predictors' self-descriptions.
    pub predictors: [Value; 2],
    /// Both predictors' total mispredictions.
    pub mispredictions: [u64; 2],
    /// Both predictors' MPKI.
    pub mpki: [f64; 2],
    /// Both predictors' accuracy.
    pub accuracy: [f64; 2],
    /// Occurrences mispredicted by exactly one of the two.
    pub only_a_wrong: u64,
    /// Occurrences mispredicted by exactly one of the two.
    pub only_b_wrong: u64,
    /// Branches sorted by absolute MPKI difference — "the branches which
    /// accounted for the biggest difference in MPKI".
    pub most_diverging: Vec<DivergingBranch>,
    /// Both predictors' `execution_statistics()` reports.
    pub predictor_statistics: [Value; 2],
    /// Both predictors' table probes; empty unless
    /// [`SimConfig::collect_probes`] was set.
    pub table_probes: [Vec<TableProbe>; 2],
    /// Wall-clock time in seconds.
    pub simulation_time: f64,
}

impl ComparisonResult {
    /// Renders the result as a JSON document analogous to Listing 1, with
    /// `most_failed` replaced by the diverging-branches report and a
    /// `predictor_statistics` section holding both predictors' dynamic
    /// statistics. When probes were collected, the
    /// [`Section::Introspection`] section holds both predictors' probe
    /// reports.
    pub fn to_json(&self) -> Value {
        let mut doc = json!({
            "metadata": {
                "simulator": "MBPlib comparison simulator",
                "version": crate::SIMULATOR_VERSION,
                "trace": self.trace.clone(),
                "simulation_instr": self.simulation_instr,
                "num_conditional_branches": self.num_conditional_branches,
                "predictor_0": self.predictors[0].clone(),
                "predictor_1": self.predictors[1].clone(),
            },
            "metrics": {
                "mpki_0": self.mpki[0],
                "mpki_1": self.mpki[1],
                "mispredictions_0": self.mispredictions[0],
                "mispredictions_1": self.mispredictions[1],
                "accuracy_0": self.accuracy[0],
                "accuracy_1": self.accuracy[1],
                "only_first_wrong": self.only_a_wrong,
                "only_second_wrong": self.only_b_wrong,
                "simulation_time": self.simulation_time,
            },
            "predictor_statistics": {
                "predictor_0": self.predictor_statistics[0].clone(),
                "predictor_1": self.predictor_statistics[1].clone(),
            },
            "most_failed": self.most_diverging.iter().map(|d| json!({
                "ip": d.ip,
                "occurrences": d.occurrences,
                "mispredictions_0": d.mispredictions_a,
                "mispredictions_1": d.mispredictions_b,
                "mpki_difference": d.mpki_difference,
            })).collect::<Vec<_>>(),
        });
        if self.table_probes.iter().any(|p| !p.is_empty()) {
            Section::Introspection.place().insert(
                &mut doc,
                json!({
                    "predictor_0": { "probes": crate::probes_to_json(&self.table_probes[0]) },
                    "predictor_1": { "probes": crate::probes_to_json(&self.table_probes[1]) },
                }),
            );
        }
        doc
    }
}

/// Simulates two predictors "in parallel" over one trace and reports which
/// occurrences are mispredicted by only one of them (§VI-C).
///
/// Each batch goes through both predictors' `predict_batch` (the batched
/// driver's cut-off and warm-up rules apply unchanged), then one pass over
/// the measured records scores the two prediction columns side by side.
/// The predictors share no state, so running them a batch apart instead of
/// a record apart changes nothing.
///
/// # Errors
///
/// Propagates trace decoding errors.
pub fn simulate_comparison<S, A, B>(
    trace: &mut S,
    a: &mut A,
    b: &mut B,
    config: &SimConfig,
) -> Result<ComparisonResult, TraceError>
where
    S: TraceSource + ?Sized,
    A: Predictor + ?Sized,
    B: Predictor + ?Sized,
{
    let run = open_run();
    let mut records = 0u64;
    let mut instructions = 0u64;
    let mut measured_instructions = 0u64;
    let mut conditional = 0u64;
    let mut mis = [0u64; 2];
    let mut only = [0u64; 2];
    // (occurrences, mispredictions of a, of b) per measured branch.
    let mut per_branch: BranchTable<(u64, u64, u64)> = BranchTable::default();
    let mut batch = BranchBatch::new();
    let (mut bits_a, mut bits_b) = (PredictionBits::new(), PredictionBits::new());

    loop {
        let (len, measured_from, cut) = next_batch(
            trace,
            &mut batch,
            instructions,
            config.warmup_instructions,
            config.max_instructions,
        )?;
        if len == 0 {
            break;
        }
        records += len as u64;
        bits_a.clear();
        bits_b.clear();
        a.predict_batch(&batch, config.track_only_conditional, &mut bits_a);
        b.predict_batch(&batch, config.track_only_conditional, &mut bits_b);
        let (pcs, gaps, taken, ops) = (batch.pcs(), batch.gaps(), batch.taken(), batch.ops());
        let retired = |from: usize| gaps[from..].iter().map(|&g| u64::from(g) + 1).sum::<u64>();
        let advanced = retired(0);
        instructions += advanced;
        measured_instructions += retired(measured_from);
        count_records(len as u64, len as u64, advanced);
        let mut bit = ops[..measured_from]
            .iter()
            .filter(|&&op| op & 0b1 != 0)
            .count();
        for i in measured_from..len {
            if ops[i] & 0b1 == 0 {
                continue;
            }
            let outcome = taken[i] != 0;
            let wrong_a = bits_a.get(bit) != outcome;
            let wrong_b = bits_b.get(bit) != outcome;
            bit += 1;
            conditional += 1;
            mis[0] += wrong_a as u64;
            mis[1] += wrong_b as u64;
            only[0] += (wrong_a && !wrong_b) as u64;
            only[1] += (wrong_b && !wrong_a) as u64;
            let e = per_branch.entry(pcs[i]);
            e.0 += 1;
            e.1 += wrong_a as u64;
            e.2 += wrong_b as u64;
        }
        if cut {
            break;
        }
    }
    events::instant(EventName::SimKernelBranches, records);
    let simulation_time = run.finish().as_secs_f64();

    let mut most_diverging: Vec<DivergingBranch> = per_branch
        .iter()
        .filter(|&(_, &(_, ma, mb))| ma != mb)
        .map(|(ip, &(occ, ma, mb))| DivergingBranch {
            ip,
            occurrences: occ,
            mispredictions_a: ma,
            mispredictions_b: mb,
            mpki_difference: if measured_instructions == 0 {
                0.0
            } else {
                (ma as f64 - mb as f64) * 1000.0 / measured_instructions as f64
            },
        })
        .collect();
    most_diverging.sort_unstable_by(|x, y| {
        y.mpki_difference
            .abs()
            .partial_cmp(&x.mpki_difference.abs())
            .expect("finite mpki differences")
            .then(x.ip.cmp(&y.ip))
    });
    most_diverging.truncate(config.most_failed_limit);

    Ok(ComparisonResult {
        trace: trace.description(),
        simulation_instr: measured_instructions,
        num_conditional_branches: conditional,
        predictors: [a.metadata(), b.metadata()],
        mispredictions: mis,
        mpki: [
            mpki(mis[0], measured_instructions),
            mpki(mis[1], measured_instructions),
        ],
        accuracy: [accuracy(mis[0], conditional), accuracy(mis[1], conditional)],
        only_a_wrong: only[0],
        only_b_wrong: only[1],
        most_diverging,
        predictor_statistics: [a.execution_statistics(), b.execution_statistics()],
        table_probes: if config.collect_probes {
            [a.table_probes(), b.table_probes()]
        } else {
            [Vec::new(), Vec::new()]
        },
        simulation_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceSource;
    use mbp_trace::{Branch, BranchRecord, Opcode};

    struct Fixed(bool);

    impl Predictor for Fixed {
        fn predict(&mut self, _ip: u64) -> bool {
            self.0
        }
        fn train(&mut self, _b: &Branch) {}
        fn track(&mut self, _b: &Branch) {}
        fn metadata(&self) -> Value {
            json!({"name": "fixed", "dir": self.0})
        }
        fn execution_statistics(&self) -> Value {
            json!({"direction": self.0})
        }
        fn table_probes(&self) -> Vec<TableProbe> {
            vec![TableProbe::new("fixed", 1)]
        }
    }

    fn cond(ip: u64, taken: bool) -> BranchRecord {
        BranchRecord::new(Branch::new(ip, 0, Opcode::conditional_direct(), taken), 9)
    }

    #[test]
    fn disagreements_attributed_to_each_side() {
        // Branch 0x10 is always taken (B wrong), 0x20 never (A wrong).
        let recs = vec![
            cond(0x10, true),
            cond(0x20, false),
            cond(0x10, true),
            cond(0x20, false),
        ];
        let mut a = Fixed(true);
        let mut b = Fixed(false);
        let r = simulate_comparison(
            &mut SliceSource::new(&recs),
            &mut a,
            &mut b,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.mispredictions, [2, 2]);
        assert_eq!(r.only_a_wrong, 2);
        assert_eq!(r.only_b_wrong, 2);
        assert_eq!(r.simulation_instr, 40);
        assert_eq!(r.mpki, [50.0, 50.0]);
        assert_eq!(r.most_diverging.len(), 2);
        let d0 = r.most_diverging.iter().find(|d| d.ip == 0x10).unwrap();
        assert_eq!(d0.mispredictions_a, 0);
        assert_eq!(d0.mispredictions_b, 2);
        assert!(d0.mpki_difference < 0.0, "negative: B loses here");
    }

    #[test]
    fn identical_predictors_have_no_divergence() {
        let recs = vec![cond(0x10, true), cond(0x10, false)];
        let mut a = Fixed(true);
        let mut b = Fixed(true);
        let r = simulate_comparison(
            &mut SliceSource::new(&recs),
            &mut a,
            &mut b,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(r.most_diverging.is_empty());
        assert_eq!(r.only_a_wrong, 0);
        assert_eq!(r.only_b_wrong, 0);
    }

    #[test]
    fn json_has_both_predictor_sections() {
        let recs = vec![cond(0x10, true)];
        let mut a = Fixed(true);
        let mut b = Fixed(false);
        let r = simulate_comparison(
            &mut SliceSource::new(&recs),
            &mut a,
            &mut b,
            &SimConfig::default(),
        )
        .unwrap();
        let v = r.to_json();
        assert_eq!(v["metadata"]["predictor_0"]["dir"], Value::Bool(true));
        assert_eq!(v["metadata"]["predictor_1"]["dir"], Value::Bool(false));
        assert_eq!(v["metrics"]["mispredictions_1"], Value::from(1));
        assert_eq!(
            v["predictor_statistics"]["predictor_0"]["direction"],
            Value::Bool(true)
        );
        assert_eq!(
            v["predictor_statistics"]["predictor_1"]["direction"],
            Value::Bool(false)
        );
        assert!(
            v.get("introspection").is_none(),
            "no probes unless requested"
        );
    }

    #[test]
    fn introspection_section_renders_when_probes_collected() {
        let recs = vec![cond(0x10, true)];
        let mut a = Fixed(true);
        let mut b = Fixed(false);
        let cfg = SimConfig {
            collect_probes: true,
            ..SimConfig::default()
        };
        let r = simulate_comparison(&mut SliceSource::new(&recs), &mut a, &mut b, &cfg).unwrap();
        let v = r.to_json();
        assert_eq!(
            v["introspection"]["predictor_0"]["probes"][0]["name"].as_str(),
            Some("fixed")
        );
        assert_eq!(
            v["introspection"]["predictor_1"]["probes"][0]["entries"].as_u64(),
            Some(1)
        );
    }
}
