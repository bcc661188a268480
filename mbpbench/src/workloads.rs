//! The four workloads: the traces each one reads, the jobs one pass runs,
//! and the one-time set-up that generates those traces from the seed.
//!
//! Every trace is a stretch of several programs of the same
//! [`ProgramParams`] family, back to back, like a fixed benchmark suite
//! traced at different points of its execution: the programs are the same
//! for every seed, and `--seed` picks where each program's stretch starts.
//! One program's branch footprint and predictability vary so much between
//! program seeds that a pass's time would mostly measure which programs a
//! seed drew; fixing the programs keeps the workload's character
//! (server-like or loop-dominated) and its cost steady across seeds.
//! Traces are sized in branch records, not instructions, because the
//! simulator's cost is per branch.

use std::fs;
use std::path::{Path, PathBuf};

use mbp::compress::Codec;
use mbp::examples::by_name;
use mbp::json::{json, Map, Value};
use mbp::sim::{simulate, ForensicsConfig, SimConfig, SliceSource};
use mbp::trace::sbbt::SbbtWriter;
use mbp::trace::BranchRecord;
use mbp::workloads::{ProgramParams, TraceGenerator};

use crate::stats::{available_parallelism, fnv1a64};

/// Predictors with hand-written `predict_batch` kernels.
pub const KERNEL_PREDICTORS: [&str; 4] = ["bimodal", "gshare", "gselect", "two-level"];
/// Composite predictors, which run the trait's default per-record loop.
pub const COMPOSITE_PREDICTORS: [&str; 5] = [
    "tournament",
    "2bc-gskew",
    "hashed-perceptron",
    "tage",
    "batage",
];
/// The eight predictors of the paper's Table III.
pub const TABLE3_PREDICTORS: [&str; 8] = [
    "bimodal",
    "two-level",
    "gshare",
    "tournament",
    "2bc-gskew",
    "hashed-perceptron",
    "tage",
    "batage",
];
/// Predictors the `analysis` workload explains.
pub const EXPLAIN_PREDICTORS: [&str; 3] = ["gshare", "tournament", "tage"];
/// Every predictor some workload uses; layer passes probe each of them.
pub const ALL_PREDICTORS: [&str; 9] = [
    "bimodal",
    "gshare",
    "gselect",
    "two-level",
    "tournament",
    "2bc-gskew",
    "hashed-perceptron",
    "tage",
    "batage",
];

/// Workload names, in the order the README describes them.
pub const WORKLOAD_NAMES: [&str; 4] = ["kernel-scan", "composite-run", "table3-sweep", "analysis"];

/// Branch records of a `kernel-scan` trace at scale 1. Kernel predictors
/// run at tens of millions of branches per second, so their traces are the
/// longest.
const LONG_RECORDS: f64 = 1_000_000.0;
/// Branch records of a `composite-run` or `analysis` trace at scale 1.
const SHORT_RECORDS: f64 = 300_000.0;
/// Branch records of a `table3-sweep` trace at scale 1: the shortest,
/// because each job runs eight predictors over its trace.
const SWEEP_RECORDS: f64 = 150_000.0;
/// Programs per trace (see the module documentation).
const PROGRAMS_PER_TRACE: usize = 8;
/// Branch records of the prefix a layer pass probes, at scale 1.
const PROBE_RECORDS: f64 = 200_000.0;

/// Seconds of one untraced pass of each workload ([`Workload::pass_s`]).
const KERNEL_SCAN_PASS_S: f64 = 0.5;
const COMPOSITE_RUN_PASS_S: f64 = 0.75;
const TABLE3_SWEEP_PASS_S: f64 = 0.8;
const ANALYSIS_PASS_S: f64 = 0.8;

/// Explain-style warm-up at scale 1, in instructions.
const EXPLAIN_WARMUP: f64 = 250_000.0;
/// Explain-style time-series window at scale 1, in instructions.
const TIMESERIES_WINDOW: f64 = 100_000.0;
/// SimPoint window at scale 1, in instructions. A short trace holds a
/// hundred or more, so ten clusters with three warm-up windows each plan
/// under half of it; over 80 seeds, every sampled MPKI stayed within 70%
/// of the allowed error (eight clusters with two warm-up windows reached
/// 87%).
const SIMPOINT_WINDOW: f64 = 25_000.0;
/// SimPoint clusters.
pub const SIMPOINT_CLUSTERS: usize = 10;
/// Windows of warm-up replay before each SimPoint slice.
pub const SIMPOINT_WARMUP_WINDOWS: usize = 3;
/// A sampled sweep's MPKI may differ from the full-trace reference by this
/// share of the reference or by [`SAMPLED_MPKI_FLOOR`], whichever is
/// larger: the bound the repository's CI gate holds phase sampling to.
pub const SAMPLED_MPKI_SHARE: f64 = 0.15;
/// Absolute MPKI floor of the sampled-sweep bound, so near-perfect
/// predictors are not held to a fraction of a tiny MPKI.
pub const SAMPLED_MPKI_FLOOR: f64 = 1.0;

/// `|sampled − full| / full` MPKI of one sampled sweep entry; 0 when both
/// are 0.
pub fn sampled_mpki_rel_err(sampled: f64, full: f64) -> f64 {
    let error = (sampled - full).abs();
    if error == 0.0 {
        0.0
    } else {
        error / full
    }
}

/// Workload digests for `--seed 1 --scale 1`, as the `digest` field of a
/// pass prints them. A pass whose outputs hash differently fails.
const SEED1_DIGESTS: [(&str, u64); 4] = [
    ("kernel-scan", 0x1ed8_08e4_52f2_33fc),
    ("composite-run", 0xa76d_a8ce_4c86_393c),
    ("table3-sweep", 0x09d3_fc4e_0dd6_b16d),
    ("analysis", 0xbec0_2d5f_a04d_53ce),
];

/// One generated trace file.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// The program family (`mobile`, `server`, …).
    pub kind: &'static str,
    /// Branch records in the trace.
    pub records: usize,
}

impl TraceSpec {
    fn new(kind: &'static str, records: f64, scale: f64) -> Self {
        let records = (records * scale).round().max(1.0) as usize;
        Self { kind, records }
    }

    /// File stem, unique per family and length.
    pub fn name(&self) -> String {
        format!("{}-{}", self.kind, self.records)
    }

    fn params(&self) -> ProgramParams {
        match self.kind {
            "mobile" => ProgramParams::mobile(),
            "server" => ProgramParams::server(),
            "media" => ProgramParams::media(),
            "fp_speed" => ProgramParams::fp_speed(),
            "int_speed" => ProgramParams::int_speed(),
            other => unreachable!("no program family {other}"),
        }
    }

    /// The trace's records: [`PROGRAMS_PER_TRACE`] programs back to back.
    /// The programs are fixed per family; `seed` picks where in its
    /// execution each program's stretch starts.
    pub fn generate(&self, seed: u64) -> Vec<BranchRecord> {
        let params = self.params();
        let mut records = Vec::with_capacity(self.records);
        for program in 0..PROGRAMS_PER_TRACE {
            let end = self.records * (program + 1) / PROGRAMS_PER_TRACE;
            let len = end - records.len();
            let program_seed = fnv1a64(format!("{}/{program}", self.kind).as_bytes());
            let start =
                fnv1a64(format!("{seed}/{}/{program}", self.name()).as_bytes()) % (len as u64 + 1);
            let mut generator = TraceGenerator::from_params(&params, program_seed);
            drop(generator.take_records(start as usize));
            records.extend(generator.take_records(len));
        }
        records
    }
}

/// One unit of work in a pass, mirroring one `mbpsim` invocation.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    /// `mbpsim run`: one predictor over one trace.
    Run {
        trace: usize,
        predictor: &'static str,
    },
    /// `mbpsim sweep` of the Table III predictors.
    Sweep { trace: usize },
    /// `mbpsim explain --warmup --window`: one predictor with the
    /// time-series and forensics observers on.
    Explain {
        trace: usize,
        predictor: &'static str,
    },
    /// `mbpsim simpoint`: extract the trace's sampling plan.
    Simpoint { trace: usize },
    /// `mbpsim sweep --phases` of the Table III predictors over the plan
    /// the pass's `Simpoint` job extracted for the same trace.
    SampledSweep { trace: usize },
}

/// A named workload: its traces and the jobs of one pass.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub traces: Vec<TraceSpec>,
    pub jobs: Vec<Job>,
    /// Whether set-up computes full-trace reference results, which sweep
    /// entries are checked against.
    pub references: bool,
    /// Instructions of warm-up in explain-style runs.
    pub explain_warmup: u64,
    /// Time-series window of explain-style runs.
    pub timeseries_window: u64,
    /// SimPoint window, in instructions.
    pub simpoint_window: u64,
    /// Branch records of the first trace that layer passes probe.
    pub probe_records: usize,
    /// Seconds one untraced pass takes at scale 1 on the reference host
    /// (see the README), process start included. A run of `--seconds S`
    /// makes `S / pass_s` passes, so two commits compared on the same host
    /// get the same pass count.
    pub pass_s: f64,
}

impl Workload {
    /// The workload called `name` with every trace length multiplied by
    /// `scale`, or `None` for an unknown name.
    pub fn named(name: &str, scale: f64) -> Option<Self> {
        let long = |kind| TraceSpec::new(kind, LONG_RECORDS, scale);
        let short = |kind| TraceSpec::new(kind, SHORT_RECORDS, scale);
        let sweep = |kind| TraceSpec::new(kind, SWEEP_RECORDS, scale);
        let runs = |traces: usize, predictors: &'static [&'static str]| -> Vec<Job> {
            (0..traces)
                .flat_map(|trace| {
                    predictors
                        .iter()
                        .map(move |&predictor| Job::Run { trace, predictor })
                })
                .collect()
        };
        let (name, traces, jobs, references, pass_s) = match name {
            "kernel-scan" => (
                "kernel-scan",
                vec![long("mobile"), long("media"), long("fp_speed")],
                runs(3, &KERNEL_PREDICTORS),
                false,
                KERNEL_SCAN_PASS_S,
            ),
            "composite-run" => (
                "composite-run",
                vec![short("server"), short("int_speed")],
                runs(2, &COMPOSITE_PREDICTORS),
                false,
                COMPOSITE_RUN_PASS_S,
            ),
            "table3-sweep" => (
                "table3-sweep",
                vec![
                    sweep("server"),
                    sweep("mobile"),
                    sweep("media"),
                    sweep("int_speed"),
                ],
                (0..4).map(|trace| Job::Sweep { trace }).collect(),
                true,
                TABLE3_SWEEP_PASS_S,
            ),
            "analysis" => (
                "analysis",
                vec![short("server"), short("int_speed")],
                (0..2)
                    .flat_map(|trace| {
                        EXPLAIN_PREDICTORS
                            .iter()
                            .map(move |&predictor| Job::Explain { trace, predictor })
                            .chain([Job::Simpoint { trace }, Job::SampledSweep { trace }])
                    })
                    .collect(),
                true,
                ANALYSIS_PASS_S,
            ),
            _ => return None,
        };
        let scaled = |v: f64| (v * scale).round().max(1.0) as u64;
        Some(Self {
            name,
            traces,
            jobs,
            references,
            explain_warmup: scaled(EXPLAIN_WARMUP),
            timeseries_window: scaled(TIMESERIES_WINDOW),
            simpoint_window: scaled(SIMPOINT_WINDOW),
            probe_records: scaled(PROBE_RECORDS) as usize,
            pass_s,
        })
    }

    /// The configuration of an explain-style run.
    pub fn explain_config(&self) -> SimConfig {
        SimConfig {
            warmup_instructions: self.explain_warmup,
            timeseries_window: Some(self.timeseries_window),
            forensics: Some(ForensicsConfig::default()),
            ..SimConfig::default()
        }
    }

    /// The committed digest of this workload's outputs, for the inputs of
    /// `--seed 1 --scale 1` only.
    pub fn expected_digest(&self, seed: u64, scale: f64) -> Option<u64> {
        if seed != 1 || scale != 1.0 {
            return None;
        }
        SEED1_DIGESTS
            .iter()
            .find(|(name, _)| *name == self.name)
            .map(|(_, digest)| *digest)
    }
}

/// A full-trace result one sweep entry is checked against.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    pub predictor: String,
    pub mispredictions: u64,
    pub mpki: f64,
}

/// What set-up learned about one trace, independently of the simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct Facts {
    pub path: PathBuf,
    pub instructions: u64,
    pub branches: u64,
    pub conditional: u64,
    /// Standalone `simulate` results of the Table III predictors, when the
    /// workload checks sweeps against them.
    pub reference: Vec<Reference>,
}

impl Facts {
    fn of(path: PathBuf, records: &[BranchRecord]) -> Self {
        Self {
            path,
            instructions: records.iter().map(|r| r.instructions()).sum(),
            branches: records.len() as u64,
            conditional: records.iter().filter(|r| r.branch.is_conditional()).count() as u64,
            reference: Vec::new(),
        }
    }

    /// The reference result for `predictor`, if set-up computed one.
    pub fn reference_for(&self, predictor: &str) -> Option<&Reference> {
        self.reference.iter().find(|r| r.predictor == predictor)
    }

    fn to_json(&self) -> Value {
        let mut reference = Map::new();
        for r in &self.reference {
            reference.insert(
                r.predictor.as_str(),
                json!({"mispredictions": r.mispredictions, "mpki": r.mpki}),
            );
        }
        json!({
            "instructions": self.instructions,
            "branches": self.branches,
            "conditional": self.conditional,
            "reference": reference,
        })
    }

    fn from_json(path: PathBuf, doc: &Value) -> Option<Self> {
        let reference = doc["reference"]
            .as_object()?
            .iter()
            .map(|(name, r)| {
                Some(Reference {
                    predictor: name.to_string(),
                    mispredictions: r["mispredictions"].as_u64()?,
                    mpki: r["mpki"].as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            path,
            instructions: doc["instructions"].as_u64()?,
            branches: doc["branches"].as_u64()?,
            conditional: doc["conditional"].as_u64()?,
            reference,
        })
    }
}

fn facts_path(dir: &Path, spec: &TraceSpec) -> PathBuf {
    dir.join(format!("{}.facts.json", spec.name()))
}

fn trace_path(dir: &Path, spec: &TraceSpec) -> PathBuf {
    dir.join(format!("{}.sbbt.mzst", spec.name()))
}

/// Reads the facts set-up recorded for `w`'s traces in `dir`; `None` when
/// any trace has not been set up (or lacks the references `w` needs).
pub fn load(w: &Workload, dir: &Path) -> Option<Vec<Facts>> {
    w.traces
        .iter()
        .map(|spec| {
            let text = fs::read_to_string(facts_path(dir, spec)).ok()?;
            let facts = Facts::from_json(trace_path(dir, spec), &text.parse().ok()?)?;
            let complete = facts.path.is_file() && (!w.references || !facts.reference.is_empty());
            complete.then_some(facts)
        })
        .collect()
}

/// One-time, untimed set-up: generates every trace of `w` from `seed`,
/// writes it as `mbpsim gen` does (SBBT compressed with MZST at level 22),
/// and records its facts and, when `w` needs them, the reference results.
/// Traces already set up in `dir` are reused; the facts file is written
/// last, so an interrupted set-up is redone.
///
/// # Errors
///
/// A description of the first file that could not be written.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<Vec<Facts>, String> {
    if let Some(facts) = load(w, dir) {
        return Ok(facts);
    }
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    w.traces
        .iter()
        .map(|spec| {
            let records = spec.generate(seed);
            let path = trace_path(dir, spec);
            write_trace(&path, &records)?;
            let mut facts = Facts::of(path, &records);
            if w.references {
                facts.reference = reference_runs(&records);
            }
            let facts_file = facts_path(dir, spec);
            fs::write(&facts_file, format!("{:#}\n", facts.to_json()))
                .map_err(|e| format!("cannot write {}: {e}", facts_file.display()))?;
            Ok(facts)
        })
        .collect()
}

fn write_trace(path: &Path, records: &[BranchRecord]) -> Result<(), String> {
    let fail = |e: mbp::trace::TraceError| format!("cannot write {}: {e}", path.display());
    let mut writer = SbbtWriter::create_compressed(path, Codec::Mzst, 22).map_err(fail)?;
    for record in records {
        writer.write_record(record).map_err(fail)?;
    }
    writer.finish_compressed().map_err(fail)
}

/// Standalone `simulate` of every Table III predictor over `records`,
/// spread over the host's threads.
fn reference_runs(records: &[BranchRecord]) -> Vec<Reference> {
    let workers = available_parallelism().min(TABLE3_PREDICTORS.len());
    let mut refs: Vec<Reference> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                s.spawn(move || {
                    TABLE3_PREDICTORS
                        .iter()
                        .skip(worker)
                        .step_by(workers)
                        .map(|&name| {
                            let mut predictor = by_name(name).expect("stock predictor");
                            let result = simulate(
                                &mut SliceSource::new(records),
                                &mut predictor,
                                &SimConfig::default(),
                            )
                            .expect("in-memory simulation cannot fail");
                            Reference {
                                predictor: name.to_string(),
                                mispredictions: result.metrics.mispredictions,
                                mpki: result.metrics.mpki,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    refs.sort_by_key(|r| TABLE3_PREDICTORS.iter().position(|&n| n == r.predictor));
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_defined_and_scales() {
        for name in WORKLOAD_NAMES {
            let w = Workload::named(name, 0.01).expect("defined");
            assert!(!w.jobs.is_empty(), "{name}");
            assert!(w.traces.iter().all(|t| t.records < 100_000), "{name}");
        }
        assert!(Workload::named("nope", 1.0).is_none());
    }

    #[test]
    fn generation_is_seeded_and_sized_in_records() {
        let spec = TraceSpec::new("server", 4_000.0, 1.0);
        let a = spec.generate(7);
        assert_eq!(a.len(), 4_000);
        assert_eq!(a, spec.generate(7));
        assert_ne!(a, spec.generate(8));
    }

    #[test]
    fn facts_round_trip_through_json() {
        let spec = TraceSpec::new("mobile", 2_000.0, 1.0);
        let mut facts = Facts::of(PathBuf::from("x"), &spec.generate(1));
        facts.reference = reference_runs(&spec.generate(1));
        assert_eq!(facts.reference.len(), TABLE3_PREDICTORS.len());
        let back = Facts::from_json(PathBuf::from("x"), &facts.to_json()).expect("parses");
        assert_eq!(back, facts);
    }
}
