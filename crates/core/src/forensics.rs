//! Misprediction forensics: the per-branch attribution report.
//!
//! Aggregate MPKI says *how much* a predictor loses; forensics says *where*
//! and *why*. A forensic run's [`MostFailed`] accumulator also keeps each
//! branch's outcome [`Shape`] — streaks, misprediction bursts and, for
//! composite predictors implementing
//! [`Predictor::last_mispredict_blame`](crate::Predictor::last_mispredict_blame),
//! the component each misprediction is attributed to — and [`report`]
//! renders it from the same exact per-branch counts `most_failed` shows:
//! the top branches in `most_failed` order, their direction entropy and
//! transition rate, hard-to-predict (H2P) classification against the
//! thresholds of the workload-characterization literature, and the
//! misprediction coverage curve. Everything is deterministic: no
//! randomness, no wall clock, and address-ordered tie-breaking, so two runs
//! over the same record stream produce byte-identical reports.

use mbp_json::{json, Map, Value};

use crate::metrics::{entropy_class_name, transition_class_name, BranchStat, MostFailed};

/// Schema version of the `"forensics"` report section.
pub const FORENSICS_SCHEMA_VERSION: u64 = 2;

/// A branch must execute at least this often to be classified H2P.
pub const H2P_MIN_OCCURRENCES: u64 = 16;

/// A branch must miss at least this fraction of executions to be H2P.
pub const H2P_MIN_MISPREDICTION_RATE: f64 = 0.05;

/// Configuration for the forensic report.
///
/// # Examples
///
/// ```
/// use mbp_core::{simulate, Branch, BranchRecord, ForensicsConfig, Opcode, Predictor};
/// use mbp_core::{SimConfig, SliceSource};
///
/// struct AlwaysTaken;
/// impl Predictor for AlwaysTaken {
///     fn predict(&mut self, _ip: u64) -> bool { true }
///     fn train(&mut self, _b: &Branch) {}
///     fn track(&mut self, _b: &Branch) {}
/// }
///
/// // An alternating branch: always-taken misses half of it.
/// let records: Vec<_> = (0..32)
///     .map(|i| BranchRecord::new(Branch::new(0x40, 0x80, Opcode::conditional_direct(), i % 2 == 0), 0))
///     .collect();
/// let config = SimConfig { forensics: Some(ForensicsConfig::default()), ..SimConfig::default() };
/// let result = simulate(&mut SliceSource::new(&records), &mut AlwaysTaken, &config)?;
/// let report = result.forensics.expect("forensics requested");
/// assert_eq!(report["top"][0]["ip"].as_u64(), Some(0x40));
/// assert_eq!(report["h2p_branches"].as_u64(), Some(1));
/// # Ok::<(), mbp_core::TraceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ForensicsConfig {
    /// Branches reported in the `"top"` array and coverage curve.
    pub top_limit: usize,
}

impl Default for ForensicsConfig {
    fn default() -> Self {
        Self { top_limit: 10 }
    }
}

/// The outcome shape of one branch, which only a forensic accumulator
/// keeps.
#[derive(Clone, Debug, Default)]
pub(crate) struct Shape {
    /// Length of the current same-direction outcome run.
    streak: u64,
    max_streak: u64,
    /// Length of the current consecutive-misprediction run.
    burst: u64,
    max_burst: u64,
    /// Number of misprediction bursts (maximal runs of length ≥ 1).
    bursts: u64,
    /// Component attribution counts, insertion-ordered (sorted at render).
    blame: Vec<(&'static str, u64)>,
}

impl Shape {
    /// Adds one outcome; `repeats` says it equals the branch's previous
    /// outcome, and `blame` names the component a misprediction is
    /// attributed to.
    pub(crate) fn record(
        &mut self,
        repeats: bool,
        mispredicted: bool,
        blame: Option<&'static str>,
    ) {
        self.streak = if repeats { self.streak + 1 } else { 1 };
        self.max_streak = self.max_streak.max(self.streak);
        if mispredicted {
            self.burst += 1;
            if self.burst == 1 {
                self.bursts += 1;
            }
            self.max_burst = self.max_burst.max(self.burst);
            if let Some(label) = blame {
                match self.blame.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, n)) => *n += 1,
                    None => self.blame.push((label, 1)),
                }
            }
        } else {
            self.burst = 0;
        }
    }
}

fn misprediction_rate(b: &BranchStat) -> f64 {
    b.mispredictions as f64 / b.occurrences as f64
}

fn is_h2p(b: &BranchStat) -> bool {
    b.occurrences >= H2P_MIN_OCCURRENCES && misprediction_rate(b) >= H2P_MIN_MISPREDICTION_RATE
}

/// Renders the versioned forensic report of a forensic accumulator over
/// `instructions` measured instructions. Branches come in `most_failed`
/// order (mispredictions descending, then address ascending); attribution
/// labels sort lexicographically; totals, H2P count and coverage span
/// every measured branch.
pub(crate) fn report(
    most_failed: &MostFailed,
    config: &ForensicsConfig,
    instructions: u64,
) -> Value {
    let branches: Vec<BranchStat> = most_failed.ranked(instructions).collect();
    let conditional_branches: u64 = branches.iter().map(|b| b.occurrences).sum();
    let mispredictions: u64 = branches.iter().map(|b| b.mispredictions).sum();
    let h2p_branches = branches.iter().filter(|b| is_h2p(b)).count() as u64;

    let unshaped = Shape::default();
    let mut top = Vec::new();
    let mut coverage = Vec::new();
    let mut covered = 0u64;
    for (n, b) in branches
        .iter()
        .take_while(|b| b.mispredictions > 0)
        .take(config.top_limit.max(1))
        .enumerate()
    {
        let shape = most_failed.shape(b.ip).unwrap_or(&unshaped);
        let mut branch = Map::new();
        branch.insert("ip", b.ip);
        branch.insert("occurrences", b.occurrences);
        branch.insert("mispredictions", b.mispredictions);
        branch.insert("misprediction_rate", misprediction_rate(b));
        branch.insert("taken_rate", b.taken as f64 / b.occurrences as f64);
        branch.insert("direction_entropy", b.direction_entropy);
        branch.insert("entropy_class", entropy_class_name(b.direction_entropy));
        branch.insert("transition_rate", b.transition_rate);
        branch.insert("transition_class", transition_class_name(b.transition_rate));
        branch.insert("max_streak", shape.max_streak);
        branch.insert("max_misprediction_burst", shape.max_burst);
        branch.insert("misprediction_bursts", shape.bursts);
        branch.insert("mpki", b.mpki);
        branch.insert("h2p", is_h2p(b));
        let mut labels: Vec<&(&'static str, u64)> = shape.blame.iter().collect();
        labels.sort_by(|a, b| a.0.cmp(b.0));
        let mut attribution = Map::new();
        for (label, count) in labels {
            attribution.insert(*label, *count);
        }
        branch.insert("attribution", attribution);
        top.push(Value::from(branch));

        covered += b.mispredictions;
        coverage.push(json!({
            "top_n": (n + 1) as u64,
            "mispredictions": covered,
            "fraction": covered as f64 / mispredictions as f64,
        }));
    }

    json!({
        "schema_version": FORENSICS_SCHEMA_VERSION,
        "tracked_branches": branches.len() as u64,
        "conditional_branches": conditional_branches,
        "mispredictions": mispredictions,
        "h2p_branches": h2p_branches,
        "top": top,
        "coverage": coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forensic(records: &[(u64, bool, bool, Option<&'static str>)]) -> MostFailed {
        let mut mf = MostFailed::with_shapes(true);
        for &(ip, taken, missed, blame) in records {
            mf.record_forensic(ip, taken, missed, blame);
        }
        mf
    }

    fn report_of(mf: &MostFailed, top_limit: usize, instructions: u64) -> Value {
        report(mf, &ForensicsConfig { top_limit }, instructions)
    }

    #[test]
    fn accumulates_structure_per_branch() {
        // T T T N T N: 3 transitions, streak max 3.
        let outcomes = [true, true, true, false, true, false];
        let records: Vec<_> = outcomes
            .iter()
            .enumerate()
            .map(|(i, &t)| (0x100, t, i >= 3, (i >= 3).then_some("provider")))
            .collect();
        let doc = report_of(&forensic(&records), 10, 6_000);
        let b = &doc["top"][0];
        assert_eq!(b["ip"].as_u64(), Some(0x100));
        assert_eq!(b["occurrences"].as_u64(), Some(6));
        assert_eq!(b["mispredictions"].as_u64(), Some(3));
        assert_eq!(b["max_streak"].as_u64(), Some(3));
        // Misses at indices 3,4,5 form one burst of length 3.
        assert_eq!(b["misprediction_bursts"].as_u64(), Some(1));
        assert_eq!(b["max_misprediction_burst"].as_u64(), Some(3));
        assert_eq!(b["attribution"]["provider"].as_u64(), Some(3));
        assert_eq!(
            doc["schema_version"].as_u64(),
            Some(FORENSICS_SCHEMA_VERSION)
        );
    }

    #[test]
    fn h2p_requires_volume_and_rate() {
        let mut records = Vec::new();
        // 0x10: frequent and often missed -> H2P.
        records.extend((0..100).map(|i| (0x10, i % 2 == 0, i % 3 == 0, None)));
        // 0x20: frequent but rarely missed -> not H2P.
        records.extend((0..100).map(|i| (0x20, true, i == 0, None)));
        // 0x30: missed every time but too rare -> not H2P.
        records.extend((0..4).map(|_| (0x30, true, true, None)));
        let doc = report_of(&forensic(&records), 10, 1);
        assert_eq!(doc["h2p_branches"].as_u64(), Some(1));
        assert_eq!(doc["tracked_branches"].as_u64(), Some(3));
    }

    #[test]
    fn coverage_curve_is_cumulative_over_global_total() {
        let mut records = vec![(0xA, true, true, None); 6];
        records.extend([(0xB, true, true, None); 3]);
        records.push((0xC, true, true, None));
        let doc = report_of(&forensic(&records), 2, 1);
        let cov = doc["coverage"].as_array().unwrap();
        assert_eq!(cov.len(), 2);
        assert_eq!(cov[0]["mispredictions"].as_u64(), Some(6));
        assert_eq!(cov[0]["fraction"].as_f64(), Some(0.6));
        assert_eq!(cov[1]["mispredictions"].as_u64(), Some(9));
        assert_eq!(cov[1]["fraction"].as_f64(), Some(0.9));
    }

    #[test]
    fn report_is_deterministic_and_address_ordered_on_ties() {
        let records = [
            (0x30, true, true, None),
            (0x10, false, true, None),
            (0x20, true, true, None),
            (0x40, true, false, None),
        ];
        let (a, b) = (forensic(&records), forensic(&records));
        let ra = report_of(&a, 10, 3_000).to_pretty_string();
        let rb = report_of(&b, 10, 3_000).to_pretty_string();
        assert_eq!(ra, rb);
        let doc = report_of(&a, 10, 3_000);
        let ips: Vec<u64> = doc["top"]
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x["ip"].as_u64().unwrap())
            .collect();
        assert_eq!(ips, [0x10, 0x20, 0x30], "ties break toward low address");
        assert_eq!(doc["tracked_branches"].as_u64(), Some(4));
    }
}
